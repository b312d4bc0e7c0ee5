//! The traced run: drives the pipelines of `pipelines.rs` on the run's own
//! inputs, reads the spans back, and — together with what the live run
//! measured from outside the server — produces every per-layer metric.

use crate::gen::PairStream;
use crate::host::Timed;
use crate::loadgen::{Read1, Write1};
use crate::metrics::{Measured, MetricSet};
use crate::pipelines::{self, span, Engine};
use crate::report::overlaps;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{Ctx, Live, PhaseClock, Profile, BATCH_WORKERS, LANDMARKS};
use hcl_core::bfs::distances_from;
use hcl_core::EdgeDelta;
use hcl_index::{AnswerSource, HighwayCoverIndex, QueryContext, QueryStats};
use hcl_store::IndexStore;
use std::time::Instant;

/// Queries of the in-process probe, from connection 0's pair stream.
const QUERY_PROBE: usize = 20_000;

/// Repetitions behind each one-shot timing (opens, full BFS).
const REPS: usize = 3;

fn put(set: &mut MetricSet, name: &'static str, value: f64, samples: usize) {
    set.insert(name, Measured { value, samples });
}

/// Median over `REPS` timed calls, in milliseconds.
fn timed_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

fn p(values: &[f64], q: f64) -> f64 {
    percentile(&sorted(values), q).unwrap_or(0.0)
}

/// Durations in milliseconds of every span called `name` whose operation
/// came after `after_op` (0: all of them).
fn span_ms(t: &Tracer, name: &str, after_op: u64) -> Vec<f64> {
    t.spans()
        .iter()
        .filter(|s| s.name == name && s.op_id > after_op)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Runs the traced pipelines and assembles every per-layer metric.
pub fn run(
    ctx: &Ctx,
    profile: &Profile,
    seed: u64,
    live: &Live,
    t: &mut Tracer,
) -> Result<MetricSet, String> {
    let mut set = MetricSet::new();
    let mut clock = PhaseClock::start();
    let extras = live
        .extras
        .as_ref()
        .ok_or("the traced run needs a live run with its extra probes")?;
    let graph = &live.inputs.graph;
    let vertices = graph.num_vertices();
    let path = ctx.dir.join("traced.hcl");
    let mut op = 0u64;
    let mut next_op = || {
        op += 1;
        op
    };

    // ---- build: edge list → container → validated open ----
    let build_op = next_op();
    let built = pipelines::build(t, build_op, &live.inputs.edges, LANDMARKS, &path)?;
    let build_ms = |name| t.self_ms_per_op(name).first().map_or(0.0, |&(_, ms)| ms);
    put(
        &mut set,
        "core.graph.from_edges_s",
        build_ms(span::FROM_EDGES) / 1e3,
        1,
    );
    put(
        &mut set,
        "index.build.seq_s",
        build_ms(span::INDEX_BUILD) / 1e3,
        1,
    );
    let stats = &built.stats;
    put(
        &mut set,
        "index.select.ms",
        stats.selection_us as f64 / 1e3,
        1,
    );
    let batches = stats.batch_us.len();
    put(
        &mut set,
        "index.build.batches_s",
        stats.batch_us.iter().sum::<u64>() as f64 / 1e6,
        batches,
    );
    put(
        &mut set,
        "index.build.merge_ms",
        stats.merge_us as f64 / 1e3,
        batches,
    );
    put(
        &mut set,
        "index.build.closure_ms",
        stats.closure_us as f64 / 1e3,
        1,
    );
    put(
        &mut set,
        "index.build.bfs_visits",
        stats.bfs_visits as f64,
        1,
    );
    put(
        &mut set,
        "index.build.label_insertions",
        stats.label_insertions as f64,
        1,
    );
    put(
        &mut set,
        "index.build.domination_cut_rate",
        stats.domination_cut_rate(),
        stats.bfs_visits as usize,
    );
    put(
        &mut set,
        "store.format.container_bytes",
        built.container_bytes as f64,
        1,
    );
    let build_attributed_s: f64 = span::BUILD_PATH.iter().map(|n| build_ms(n)).sum::<f64>() / 1e3;
    put(
        &mut set,
        "cli.build.unattributed_s",
        live.build[0].secs() - build_attributed_s,
        1,
    );

    clock.lap("traced build pipeline");
    // Every core; informational on a shared two-core box.
    let par = Instant::now();
    std::hint::black_box(HighwayCoverIndex::build_with(
        graph,
        &pipelines::build_options(LANDMARKS, ctx.nproc),
    ));
    put(
        &mut set,
        "index.build.par_s",
        par.elapsed().as_secs_f64(),
        1,
    );

    clock.lap("parallel build");

    // ---- open ----
    let validated_ms = timed_ms(|| IndexStore::open(&path).map(|s| s.len_bytes()));
    put(&mut set, "store.open.validated_ms", validated_ms, REPS);
    put(
        &mut set,
        "store.open.trusted_ms",
        timed_ms(|| IndexStore::open_trusted(&path).map(|s| s.len_bytes())),
        REPS,
    );

    clock.lap("opens");

    // ---- query engine, on this workload's graph and pair stream ----
    let store = &built.store;
    let (view, index) = (store.graph(), store.index());
    let pairs: Vec<_> = PairStream::new(seed, vertices, 0)
        .take(QUERY_PROBE)
        .collect();
    let mut qctx = QueryContext::new();
    let plain_ns: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| {
            let t0 = Instant::now();
            std::hint::black_box(index.query_with(view, &mut qctx, u, v));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    put(
        &mut set,
        "index.query.p50_ns",
        median(&plain_ns),
        plain_ns.len(),
    );
    let query_mean_ns = mean(&plain_ns);
    put(
        &mut set,
        "index.query.mean_ns",
        query_mean_ns,
        plain_ns.len(),
    );
    let mut qstats = QueryStats::new();
    let mut by_source: [Vec<f64>; 3] = Default::default();
    let (mut bfs_nodes, mut hub_entries) = (0u64, 0u64);
    for &(u, v) in &pairs {
        let t0 = Instant::now();
        std::hint::black_box(index.query_probed(view, &mut qctx, u, v, &mut qstats));
        let ns = t0.elapsed().as_nanos() as f64;
        match qstats.source {
            AnswerSource::LabelHit => by_source[0].push(ns),
            AnswerSource::HighwayBound => by_source[1].push(ns),
            AnswerSource::ResidualBfs => by_source[2].push(ns),
            AnswerSource::Trivial | AnswerSource::Disconnected => {}
        }
        bfs_nodes += qstats.bfs_nodes_expanded;
        hub_entries += qstats.hub_entries_scanned;
    }
    let names = [
        "index.query.label_hit_mean_ns",
        "index.query.highway_mean_ns",
        "index.query.residual_bfs_mean_ns",
    ];
    for (name, ns) in names.into_iter().zip(&by_source) {
        put(&mut set, name, mean(ns), ns.len());
    }
    let probes = pairs.len() as f64;
    // Share of queries the residual BFS answered (it runs on nearly all).
    put(
        &mut set,
        "index.query.residual_bfs_share",
        by_source[2].len() as f64 / probes,
        pairs.len(),
    );
    put(
        &mut set,
        "index.query.bfs_nodes_per_query",
        bfs_nodes as f64 / probes,
        pairs.len(),
    );
    put(
        &mut set,
        "index.query.hub_entries_per_query",
        hub_entries as f64 / probes,
        pairs.len(),
    );

    let source = pairs[0].0;
    put(
        &mut set,
        "core.bfs.full_bfs_ms",
        timed_ms(|| distances_from(graph, source)),
        REPS,
    );

    clock.lap("query probe and full BFS");

    // ---- update: the script's inserts, one `POST /update` each ----
    let engine_op = next_op();
    let mut engine = Engine::from_store(t, engine_op, built.store, &path);
    let mut outcomes = Vec::new();
    for &(u, v) in &live.inputs.script[..profile.traced_inserts] {
        outcomes.push(engine.update(t, next_op(), EdgeDelta::insert(u, v))?);
    }
    let inserts = outcomes.len();
    put(
        &mut set,
        "index.repair.from_view_ms",
        median(&span_ms(t, span::FROM_VIEW, 0)),
        1,
    );
    let repair_ms = span_ms(t, span::REPAIR_INSERT, 0);
    put(
        &mut set,
        "index.repair.insert_p50_ms",
        p(&repair_ms, 0.5),
        inserts,
    );
    put(
        &mut set,
        "index.repair.insert_p90_ms",
        p(&repair_ms, 0.9),
        inserts,
    );
    let zero_ms: Vec<f64> = repair_ms
        .iter()
        .zip(&outcomes)
        .filter(|(_, o)| o.affected_landmarks == 0)
        .map(|(&ms, _)| ms)
        .collect();
    put(
        &mut set,
        "index.repair.insert_zero_affected_p50_ms",
        median(&zero_ms),
        zero_ms.len(),
    );
    put(
        &mut set,
        "index.repair.zero_affected_share",
        zero_ms.len() as f64 / inserts as f64,
        inserts,
    );
    put(
        &mut set,
        "index.repair.affected_landmarks_mean",
        mean(
            &outcomes
                .iter()
                .map(|o| o.affected_landmarks as f64)
                .collect::<Vec<_>>(),
        ),
        inserts,
    );
    put(
        &mut set,
        "index.repair.label_entries",
        engine.label_entries() as f64,
        1,
    );
    // The engine's own set-up (op `engine_op`) also flattens once; only the
    // updates after it count. Serialise runs twice per update: once to
    // persist, once to fold.
    let per_span = [
        ("core.delta.to_graph_ms", span::TO_GRAPH),
        ("index.repair.to_index_ms", span::TO_INDEX),
        ("store.format.serialize_ms", span::SERIALIZE),
        ("store.durable.publish_ms", span::PUBLISH),
        ("store.open.from_bytes_trusted_ms", span::FROM_BYTES_TRUSTED),
    ];
    for (name, span_name) in per_span {
        let ms = span_ms(t, span_name, engine_op);
        put(&mut set, name, median(&ms), ms.len());
    }
    let swap_us: Vec<f64> = span_ms(t, span::SWAP, 0)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    put(
        &mut set,
        "store.generation.swap_us",
        median(&swap_us),
        swap_us.len(),
    );

    // Σ of the layers' per-update medians against the live server's median.
    let selfs_of_updates = |name: &str| -> Vec<f64> {
        t.self_ms_per_op(name)
            .into_iter()
            .filter(|&(op, _)| op > engine_op)
            .map(|(_, ms)| ms)
            .collect()
    };
    let attributed_ms: f64 = span::UPDATE_PATH
        .iter()
        .map(|name| median(&selfs_of_updates(name)))
        .sum();

    clock.lap("traced updates");

    // ---- journal replay and compaction, on the file the updates left ----
    // Once: a replaying open costs as much as all the updates' repairs.
    let replay = Instant::now();
    std::hint::black_box(IndexStore::open(&path).map(|s| s.len_bytes()))
        .map_err(|e| e.to_string())?;
    let replay_ms = replay.elapsed().as_secs_f64() * 1e3;
    put(
        &mut set,
        "store.open.replay_ms_per_delta",
        (replay_ms - validated_ms) / engine.pending() as f64,
        engine.pending(),
    );
    let copy = ctx.dir.join("compact.hcl");
    std::fs::copy(&path, &copy).map_err(|e| format!("copying {}: {e}", path.display()))?;
    let compact = Instant::now();
    hcl_store::compact_file(&copy).map_err(|e| format!("compacting {}: {e}", copy.display()))?;
    put(
        &mut set,
        "store.compact.compact_file_ms",
        compact.elapsed().as_secs_f64() * 1e3,
        1,
    );

    clock.lap("replay opens and compaction");

    // ---- deletes (layer metric only) and the rebuild they compete with ----
    for &(u, v) in &live.inputs.script[..profile.traced_deletes] {
        engine.delete(t, next_op(), u, v)?;
    }
    put(
        &mut set,
        "index.repair.delete_p50_ms",
        median(&span_ms(t, span::REPAIR_DELETE, 0)),
        profile.traced_deletes,
    );
    let rebuild = Instant::now();
    std::hint::black_box(HighwayCoverIndex::build_with(
        engine.live_graph(),
        &pipelines::build_options(LANDMARKS, 1),
    ));
    put(
        &mut set,
        "index.repair.rebuild_ms",
        rebuild.elapsed().as_secs_f64() * 1e3,
        1,
    );

    clock.lap("deletes and rebuild");

    // ---- cli.* and loadgen.*: the live server, seen from outside ----
    put(
        &mut set,
        "cli.server.ready_ms",
        median(
            &live
                .ready
                .iter()
                .map(|t| t.secs() * 1e3)
                .collect::<Vec<_>>(),
        ),
        live.ready.len(),
    );
    put(
        &mut set,
        "cli.serve_stdin.engine_share",
        query_mean_ns * 1e-9 * live.batch_pairs as f64
            / BATCH_WORKERS as f64
            / live.batch[0].secs(),
        live.batch_pairs,
    );
    put(
        &mut set,
        "cli.query.restart_first_answer_ms",
        live.restart_ms.unwrap_or(0.0),
        1,
    );
    let rtt_us = sorted(&live.reads.iter().map(Read1::latency_us).collect::<Vec<_>>());
    let reads = rtt_us.len();
    put(
        &mut set,
        "cli.server.queries_per_s",
        reads as f64 / live.read_window_s,
        reads,
    );
    put(
        &mut set,
        "cli.server.null_rtt_us",
        median(&extras.null_rtt_us),
        extras.null_rtt_us.len(),
    );
    put(
        &mut set,
        "cli.server.rtt_overhead_us",
        percentile(&rtt_us, 0.5).unwrap_or(0.0) - median(&plain_ns) / 1e3,
        reads,
    );
    put(
        &mut set,
        "cli.server.query_p99_us",
        percentile(&rtt_us, 0.99).unwrap_or(0.0),
        reads,
    );
    put(
        &mut set,
        "cli.server.query_p999_us",
        percentile(&rtt_us, 0.999).unwrap_or(0.0),
        reads,
    );
    let answers = extras.answers.max(1.0);
    put(
        &mut set,
        "cli.server.cpu_us_per_query",
        extras.server_cpu_s * 1e6 / answers,
        extras.answers as usize,
    );
    for (name, count) in [
        ("cli.server.label_hit_share", extras.answers_label_hit),
        ("cli.server.highway_share", extras.answers_highway),
        ("cli.server.bfs_share", extras.answers_bfs),
    ] {
        put(&mut set, name, count / answers, extras.answers as usize);
    }
    let update_ms: Vec<f64> = live.writes.writes.iter().map(Write1::latency_ms).collect();
    let updates = update_ms.len();
    put(
        &mut set,
        "cli.server.updates_per_s",
        updates as f64 / live.writes.wall.as_secs_f64(),
        updates,
    );
    put(
        &mut set,
        "cli.server.update_p90_ms",
        p(&update_ms, 0.9),
        updates,
    );
    put(
        &mut set,
        "cli.server.update_max_ms",
        p(&update_ms, 1.0),
        updates,
    );
    put(
        &mut set,
        "cli.server.update_unattributed_ms",
        median(&update_ms) - attributed_ms,
        updates,
    );
    let overlap_writes = &extras.overlap_writes.writes;
    let (during, idle): (Vec<&Read1>, Vec<&Read1>) = extras
        .overlap_reads
        .iter()
        .partition(|r| overlaps(r, overlap_writes));
    let us = |reads: &[&Read1]| reads.iter().map(|r| r.latency_us()).collect::<Vec<_>>();
    put(
        &mut set,
        "cli.server.read_p50_idle_us",
        median(&us(&idle)),
        idle.len(),
    );
    put(
        &mut set,
        "cli.server.read_p50_during_update_us",
        median(&us(&during)),
        during.len(),
    );
    put(
        &mut set,
        "cli.server.read_max_during_update_us",
        p(&us(&during), 1.0),
        during.len(),
    );
    put(
        &mut set,
        "loadgen.gen_inputs_s",
        median(&live.gen.iter().map(Timed::secs).collect::<Vec<_>>()),
        live.gen.len(),
    );
    // Lateness only exists on a schedule: the probe's writes, plus the
    // main stream's where that is open loop too.
    let late_ms: Vec<f64> = overlap_writes
        .iter()
        .chain(
            live.writes
                .writes
                .iter()
                .filter(|_| profile.write_period.is_some()),
        )
        .map(|w| w.late_ns as f64 / 1e6)
        .collect();
    put(
        &mut set,
        "loadgen.late_p99_ms",
        p(&late_ms, 0.99),
        late_ms.len(),
    );
    put(
        &mut set,
        "loadgen.client_cpu_share",
        extras.client_cpu_s / (extras.client_cpu_s + extras.server_cpu_s).max(1e-9),
        1,
    );
    Ok(set)
}
