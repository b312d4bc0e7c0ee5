//! The four workloads and the live run that drives the real `hcl` binary
//! from outside.
//!
//! Every workload walks the same life cycle — build the index from an edge
//! list, answer from a cold process, answer a batch on stdin (these three
//! in rounds), serve reads on a socket, take single-edge inserts over
//! `POST /update`, die by `kill -9`, be reopened — so every end-to-end
//! metric is defined on every workload. What differs is the
//! data in [`PROFILES`]: how large the graph is, how much of the run each
//! phase gets, and whether reads come before, after or beside the writes.
//! That is what makes one workload exercise a layer another bypasses.

use crate::check::{self, Sample};
use crate::gen::{self, PairStream};
use crate::host::{Meter, Timed};
use crate::loadgen::{self, Pace, Queries, Read1, ReadLog, WriteLog};
use crate::proc::{self, Server};
use hcl_core::{Graph, VertexId};
use hcl_index::HighwayCoverIndex;
use hcl_store::IndexStore;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `--landmarks` for every index the harness builds.
pub const LANDMARKS: usize = 32;

/// Workers of the stdin batch (`hcl serve --workers`): one per core.
pub const BATCH_WORKERS: usize = 2;

/// How often the set-up steps are repeated; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Cold `hcl query --random 1` runs per round (see [`Profile::rounds`]).
const FIRST_ANSWERS_PER_ROUND: usize = 3;

/// A read window that runs alone is cut into segments of this length, each
/// on fresh connections, with a yardstick reading on every core before and
/// after: each core of this host flips between a fast and a slow state
/// about once a second (README, "Host-speed correction"), and half a second
/// mostly lies inside one. Each connection's round trips get one median
/// per segment, corrected for how slow the host was then; `query_p50_us`
/// is the median of those. A read window beside a writer cannot be
/// interrupted for readings: there `query_p50_us` is the plain median round
/// trip of the reads in flight during a write.
pub const READ_SEGMENT: Duration = Duration::from_millis(500);

/// Unrecorded share at the start of each connection.
const WARMUP_SHARE: f64 = 0.1;

/// Pair-stream index of the stdin batch; connections use 0, 1, ….
const BATCH_STREAM: u64 = 1000;

/// Writes of the traced run's reader-beside-writer probe.
const OVERLAP_WRITES: usize = 2;

/// Where the read window sits relative to the writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reads {
    /// On the freshly built index, before any write.
    Before,
    /// After the whole write stream, on the repaired index.
    After,
    /// While the writes arrive.
    Beside,
}

pub struct Profile {
    pub name: &'static str,
    pub why: &'static str,
    pub vertices: usize,
    /// The cold-process phases — `hcl build`, cold `hcl query --random 1`,
    /// the stdin batch — run as a round, this many times; each metric is
    /// the median (first answer: the best) of its samples. Smaller graphs
    /// get more rounds: a sample costs less.
    pub rounds: usize,
    /// Stdin batch size per second of `--seconds`.
    pub batch_pairs_per_s: usize,
    pub reads: Reads,
    /// Persistent reader connections (closed loop each).
    pub read_conns: usize,
    /// Length of the read window as a share of `--seconds`.
    pub read_share: f64,
    /// Single-edge inserts per second of `--seconds` (script prefix).
    pub writes_per_s: f64,
    /// `Some(period)`: writes go out on a fixed schedule (open loop, timed
    /// from when they were due). `None`: closed loop.
    pub write_period: Option<Duration>,
    /// Answers checked against the BFS oracle: socket reads, batch lines.
    pub oracle_reads: usize,
    pub oracle_batch: usize,
    /// In-process inserts and deletes of the traced run.
    pub traced_inserts: usize,
    pub traced_deletes: usize,
}

pub const PROFILES: &[Profile] = &[
    Profile {
        name: "cold_start",
        why: "200k-vertex graph, large stdin batch, few socket reads, writes last: ingest, selection, build, serialise, publish and validated open do the work, and the batch is engine-bound",
        vertices: 200_000,
        rounds: 3,
        batch_pairs_per_s: 25_000,
        reads: Reads::Before,
        read_conns: 2,
        read_share: 0.25,
        writes_per_s: 1.6,
        write_period: None,
        oracle_reads: 200,
        oracle_batch: 200,
        traced_inserts: 4,
        traced_deletes: 1,
    },
    Profile {
        name: "serve_read",
        why: "100k-vertex static index, two closed-loop TCP connections for most of the run, writes only after them: the socket serve loop does the work and no update code runs beside the reads",
        vertices: 100_000,
        rounds: 4,
        batch_pairs_per_s: 10_000,
        reads: Reads::Before,
        read_conns: 2,
        read_share: 0.8,
        writes_per_s: 1.6,
        write_period: None,
        oracle_reads: 1000,
        oracle_batch: 200,
        traced_inserts: 12,
        traced_deletes: 2,
    },
    Profile {
        name: "insert_stream",
        why: "the paper's protocol on a 100k-vertex graph: one-by-one random inserts in a closed loop, each visible after its ack, then reads on the repaired index: repair, delta, format and durable do the work",
        vertices: 100_000,
        rounds: 4,
        batch_pairs_per_s: 10_000,
        reads: Reads::After,
        read_conns: 2,
        read_share: 0.4,
        writes_per_s: 3.0,
        write_period: None,
        oracle_reads: 1000,
        oracle_batch: 200,
        traced_inserts: 12,
        traced_deletes: 2,
    },
    Profile {
        name: "mixed_churn",
        why: "one closed-loop reader beside one insert per second on a fixed schedule, same 100k graph: shows a faster update that stalls readers at the swap, or a read path that starves the update lock",
        vertices: 100_000,
        rounds: 4,
        batch_pairs_per_s: 10_000,
        reads: Reads::Beside,
        read_conns: 1,
        read_share: 1.4,
        writes_per_s: 1.4,
        write_period: Some(Duration::from_secs(1)),
        oracle_reads: 1000,
        oracle_batch: 200,
        traced_inserts: 12,
        traced_deletes: 2,
    },
];

/// `--scale`: `full` is what `BENCHMARK.json` measures; `smoke` shrinks
/// every graph to 10k vertices for a pass that takes seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn vertices(self, profile: &Profile) -> usize {
        match self {
            Scale::Full => profile.vertices,
            Scale::Smoke => 10_000,
        }
    }
}

/// Everything generated from the seed for one run.
pub struct Inputs {
    pub graph: Graph,
    pub edges: Vec<(VertexId, VertexId)>,
    pub script: Vec<(VertexId, VertexId)>,
}

impl Inputs {
    pub fn generate(seed: u64, vertices: usize) -> Self {
        let graph = gen::graph(seed, vertices);
        let edges = gen::edges(&graph);
        let script = gen::insert_script(&graph, seed, gen::SCRIPT_LEN);
        Inputs {
            graph,
            edges,
            script,
        }
    }
}

/// What the run needs to know about where it is.
pub struct Ctx {
    pub hcl: PathBuf,
    /// Scratch directory of this run, inside `bench/out`.
    pub dir: PathBuf,
    pub nproc: usize,
}

/// Measurements only the traced run takes from the live server.
#[derive(Default)]
pub struct Extras {
    pub null_rtt_us: Vec<f64>,
    /// CPU seconds over the read window: the server's and this process's.
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    /// `/metrics` answer counters over the read window.
    pub answers: f64,
    pub answers_label_hit: f64,
    pub answers_highway: f64,
    pub answers_bfs: f64,
    /// One reader beside scheduled writes, after the main phases.
    pub overlap_reads: Vec<Read1>,
    pub overlap_writes: WriteLog,
}

/// Raw results of one live run; `report` turns them into metrics.
pub struct Live {
    pub inputs: Inputs,
    /// The yardstick readings of the run: how slow the host was when.
    pub meter: Meter,
    pub gen: Vec<Timed>,
    pub ready: Vec<Timed>,
    /// One sample per round (several for the first answers).
    pub build: Vec<Timed>,
    pub first_answer: Vec<Timed>,
    pub batch_pairs: usize,
    pub batch: Vec<Timed>,
    pub reads: Vec<Read1>,
    /// Median round trip of every [`READ_SEGMENT`] of every connection,
    /// with the interval it covers; empty when the reads ran beside writes.
    pub segments: Vec<(Timed, f64)>,
    pub read_window_s: f64,
    pub writes: WriteLog,
    /// File bytes the server wrote over the write stream.
    pub persist_bytes: u64,
    pub final_file_bytes: u64,
    pub final_edges: u64,
    pub repaired_label_entries: u64,
    pub fresh_label_entries: u64,
    /// Cold query on the journalled file after `kill -9`; traced runs only.
    pub restart_ms: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Exit code of a server drained gracefully (stdin closed).
    pub drain_exit_code: Option<i32>,
    /// False when the open-loop writer itself ran more than 50 ms late:
    /// such a run says nothing about the server.
    pub loadgen_valid: bool,
    pub extras: Option<Extras>,
}

/// Progress on stderr: which phase just ended and how long it took, so a
/// run that is over its time budget shows where the time went.
pub struct PhaseClock(Instant);

impl PhaseClock {
    pub fn start() -> Self {
        PhaseClock(Instant::now())
    }

    pub fn lap(&mut self, phase: &str) {
        eprintln!("  [{:>7.2} s] {phase}", self.0.elapsed().as_secs_f64());
        self.0 = Instant::now();
    }
}

fn os(s: &str) -> &std::ffi::OsStr {
    std::ffi::OsStr::new(s)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times a child process (or in-process work) pinned to `core`, between
/// two yardstick readings on that core.
fn timed_on<T>(
    meter: &Meter,
    core: usize,
    work: impl FnOnce() -> Result<T, String>,
) -> Result<Timed, String> {
    meter
        .timed(Some(core), || meter.pinned(core, work))
        .map(|(timed, _)| timed)
}

/// What every client of the live server needs.
#[derive(Clone, Copy)]
struct Link<'a> {
    addr: &'a str,
    seed: u64,
    vertices: usize,
    epoch: Instant,
    meter: &'a Meter,
}

/// What a read window saw: every read and, when it ran in segments, one
/// median round trip per connection and segment with the interval covered.
#[derive(Default)]
pub struct ReadWindow {
    pub reads: Vec<Read1>,
    pub failed: u64,
    pub segments: Vec<(Timed, f64)>,
}

impl Link<'_> {
    /// Runs one closed-loop reader per stream from `from` to `to` on fresh
    /// connections, the first tenth of the time unrecorded; with `writer`
    /// set, one writer works through its script beside them, starting when
    /// recording starts.
    fn read_segment(
        self,
        streams: std::ops::Range<u64>,
        (from, to): (Instant, Instant),
        writer: Option<(&[(VertexId, VertexId)], Pace)>,
    ) -> Result<(Vec<ReadLog>, WriteLog), String> {
        let warmup = (to - from).mul_f64(WARMUP_SHARE);
        std::thread::scope(|scope| {
            let readers: Vec<_> = streams
                .map(|stream| {
                    scope.spawn(move || {
                        // One endless stream per connection.
                        let pairs = PairStream::new(self.seed, self.vertices, stream);
                        let queries = Queries::Stream(pairs);
                        loadgen::read_closed_loop(self.addr, queries, self.epoch, from + warmup, to)
                    })
                })
                .collect();
            let writes = writer.map_or_else(WriteLog::default, |(script, pace)| {
                std::thread::sleep(warmup);
                loadgen::write_stream(self.addr, script, pace, self.epoch, self.meter)
            });
            let logs = readers
                .into_iter()
                .map(|r| r.join().expect("reader thread panicked"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((logs, writes))
        })
    }

    /// The read window of `conns` closed-loop connections. Alone, it runs
    /// segment by segment between yardstick readings on every core; beside
    /// a `writer` it runs in one piece.
    fn read_phase(
        self,
        conns: usize,
        window: Duration,
        writer: Option<(&[(VertexId, VertexId)], Pace)>,
    ) -> Result<(ReadWindow, WriteLog), String> {
        let mut seen = ReadWindow::default();
        let mut absorb = |logs: Vec<ReadLog>, segmented: bool| {
            for log in logs {
                if segmented {
                    seen.segments.extend(loadgen::median_us(&log.reads));
                }
                seen.reads.extend(log.reads);
                seen.failed += log.failed;
            }
        };
        let conns = conns as u64;
        let mut writes = WriteLog::default();
        if writer.is_some() {
            let start = Instant::now();
            let (logs, beside) = self.read_segment(0..conns, (start, start + window), writer)?;
            absorb(logs, false);
            writes = beside;
        } else {
            let segments = (window.as_secs_f64() / READ_SEGMENT.as_secs_f64()).round() as u64;
            for k in 0..segments.max(1) {
                self.meter.read(None);
                let start = Instant::now();
                let streams = k * conns..(k + 1) * conns;
                let (logs, _) = self.read_segment(streams, (start, start + READ_SEGMENT), None)?;
                absorb(logs, true);
            }
            self.meter.read(None);
        }
        Ok((seen, writes))
    }
}

/// File bytes written by the server between two samples: the growth of
/// its `wchar` minus what went to its stderr log. Socket answers are not
/// in `wchar` (they leave through `send`, not `write`), so what remains
/// is the index file. Sample only while no update is in flight.
struct WriteMeter {
    wchar: u64,
    stderr: u64,
}

impl WriteMeter {
    fn start(server: &Server) -> Result<Self, String> {
        Ok(WriteMeter {
            wchar: proc::wchar(server.pid())?,
            stderr: server.stderr_bytes(),
        })
    }

    fn file_bytes(&self, server: &Server) -> Result<u64, String> {
        let wchar = proc::wchar(server.pid())? - self.wchar;
        let stderr = server.stderr_bytes() - self.stderr;
        Ok(wchar.saturating_sub(stderr))
    }
}

/// Total, label-hit, highway and residual-BFS answer counters.
fn answer_counters(addr: &str) -> Result<[f64; 4], String> {
    let (status, body) = loadgen::http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let get = |name| loadgen::metric_counter(&body, name).unwrap_or(0.0);
    Ok([
        get("hcl_answers_total"),
        get("hcl_answers_label_hit_total"),
        get("hcl_answers_highway_total"),
        get("hcl_answers_bfs_total"),
    ])
}

/// The live server plus what every phase needs to talk to it.
struct Session<'a> {
    server: Server,
    profile: &'a Profile,
    seed: u64,
    vertices: usize,
    epoch: Instant,
    window: Duration,
    meter: &'a Meter,
    extras: Option<Extras>,
}

impl Session<'_> {
    fn link<'a>(&'a self, addr: &'a str) -> Link<'a> {
        Link {
            addr,
            seed: self.seed,
            vertices: self.vertices,
            epoch: self.epoch,
            meter: self.meter,
        }
    }

    /// The read window, optionally beside a writer. A traced run brackets
    /// it with CPU and `/metrics` samples and follows it with the null
    /// round-trip probe.
    fn read_window(
        &mut self,
        writer: Option<(&[(VertexId, VertexId)], Pace)>,
    ) -> Result<(ReadWindow, WriteLog), String> {
        let addr = self.server.addr.clone();
        let pid = self.server.pid();
        let sample = || -> Result<([f64; 4], f64, f64), String> {
            Ok((
                answer_counters(&addr)?,
                proc::cpu_seconds(pid)?,
                proc::cpu_seconds(std::process::id())?,
            ))
        };
        let before = self.extras.is_some().then(&sample).transpose()?;
        let out = self
            .link(&addr)
            .read_phase(self.profile.read_conns, self.window, writer)?;
        if let (Some(extras), Some((c0, server0, client0))) = (&mut self.extras, before) {
            let (c1, server1, client1) = sample()?;
            extras.server_cpu_s = server1 - server0;
            extras.client_cpu_s = client1 - client0;
            extras.answers = c1[0] - c0[0];
            extras.answers_label_hit = c1[1] - c0[1];
            extras.answers_highway = c1[2] - c0[2];
            extras.answers_bfs = c1[3] - c0[3];
            let start = Instant::now();
            let null = loadgen::read_closed_loop(
                &addr,
                Queries::Null(0),
                self.epoch,
                start + Duration::from_millis(100),
                start + Duration::from_millis(600),
            )?;
            extras.null_rtt_us = null.reads.iter().map(Read1::latency_us).collect();
        }
        Ok(out)
    }
}

/// One live run of `profile`: the real binary, driven from outside.
/// `traced` adds the measurements the per-layer `cli.*` metrics need; the
/// end-to-end metrics are only ever reported from runs without it.
pub fn run_live(
    ctx: &Ctx,
    profile: &Profile,
    vertices: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Live, String> {
    let epoch = Instant::now();
    let mut clock = PhaseClock::start();
    let edges_path = ctx.dir.join("graph.edges");
    let index_path = ctx.dir.join("graph.hcl");
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up, part one: inputs from the seed, onto disk.
    let meter = Meter::new(epoch);
    // Single-threaded samples alternate between the cores.
    let mut cores = (0..meter.cores()).cycle();
    let mut next_core = move || cores.next().expect("a meter has at least one core");
    let mut gen = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        gen.push(timed_on(&meter, next_core(), || {
            let made = Inputs::generate(seed, vertices);
            std::fs::write(&edges_path, gen::pair_lines(&made.edges))
                .map_err(|e| format!("writing {}: {e}", edges_path.display()))?;
            inputs = Some(made);
            Ok(())
        })?);
    }
    let inputs = inputs.expect("SETUP_REPS is positive");
    clock.lap("inputs generated and written (repeated)");

    // Rounds of the cold-process phases. A traced run reports none of
    // their timings, so it makes one round.
    let rounds = if traced { 1 } else { profile.rounds };
    let batch_pairs = (profile.batch_pairs_per_s as f64 * seconds) as usize;
    let batch: Vec<_> = PairStream::new(seed, vertices, BATCH_STREAM)
        .take(batch_pairs)
        .collect();
    let batch_input = gen::pair_lines(&batch);
    let cold_query = [
        os("query"),
        os("--index"),
        index_path.as_os_str(),
        os("--random"),
        os("1"),
    ];
    let (mut build, mut first_answer, mut batch_timed) = (Vec::new(), Vec::new(), Vec::new());
    let mut batch_samples = Vec::new();
    for _ in 0..rounds {
        // Build: edge list → durable container. One thread, so that it
        // can be pinned to the core whose yardstick readings correct it.
        build.push(timed_on(&meter, next_core(), || {
            proc::time_hcl(
                &ctx.hcl,
                &[
                    os("build"),
                    edges_path.as_os_str(),
                    os("--out"),
                    index_path.as_os_str(),
                    os("--landmarks"),
                    os(&LANDMARKS.to_string()),
                    os("--threads"),
                    os("1"),
                ],
            )
        })?);

        // First answer from a cold process: validated open plus one query.
        for _ in 0..FIRST_ANSWERS_PER_ROUND {
            first_answer.push(timed_on(&meter, next_core(), || {
                proc::time_hcl(&ctx.hcl, &cold_query)
            })?);
        }
        attempted += FIRST_ANSWERS_PER_ROUND as u64;

        // Stdin batch, trusted open, one worker per core.
        let (batch_wall, (_, batch_out)) = meter.timed(None, || {
            proc::batch_serve(&ctx.hcl, &index_path, BATCH_WORKERS, &batch_input)
        })?;
        batch_timed.push(batch_wall);
        attempted += batch_pairs as u64;
        let mut batch_lines = batch_out.split(|&b| b == b'\n');
        batch_samples.clear();
        for &(u, v) in &batch {
            match batch_lines.next().and_then(loadgen::parse_answer) {
                Some((au, av, d)) if (au, av) == (u, v) => batch_samples.push(Sample {
                    u,
                    v,
                    d,
                    lo_prefix: 0,
                    hi_prefix: 0,
                }),
                _ => failed += 1,
            }
        }
    }
    clock.lap("rounds of build, first answers, stdin batch");

    // Set-up, part two: bring the server to `listening on`. Every start
    // but the last is drained gracefully and its exit status kept.
    let stderr_path = ctx.dir.join("server.stderr");
    let mut ready = Vec::new();
    let mut drain_exit_code = None;
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (took, started) =
            meter.timed(None, || Server::start(&ctx.hcl, &index_path, &stderr_path))?;
        ready.push(took);
        if rep + 1 < SETUP_REPS {
            drain_exit_code = started.drain()?.code();
        } else {
            server = Some(started);
        }
    }
    let mut session = Session {
        server: server.expect("SETUP_REPS is positive"),
        profile,
        seed,
        vertices,
        epoch,
        window: Duration::from_secs_f64(profile.read_share * seconds),
        meter: &meter,
        extras: traced.then(Extras::default),
    };
    let addr = session.server.addr.clone();
    clock.lap("server starts (repeated)");

    // Reads and writes, placed as the profile says.
    let write_count = ((profile.writes_per_s * seconds).round() as usize).max(1);
    let (script, spare_script) = inputs.script.split_at(write_count);
    let pace = profile
        .write_period
        .map_or(Pace::Closed, |period| Pace::Open { period });
    let (seen, writes, persist_bytes) = match profile.reads {
        Reads::Before => {
            let (seen, _) = session.read_window(None)?;
            let written = WriteMeter::start(&session.server)?;
            let writes = loadgen::write_stream(&addr, script, pace, epoch, &meter);
            (seen, writes, written.file_bytes(&session.server)?)
        }
        Reads::After => {
            let written = WriteMeter::start(&session.server)?;
            let writes = loadgen::write_stream(&addr, script, pace, epoch, &meter);
            let persisted = written.file_bytes(&session.server)?;
            let (seen, _) = session.read_window(None)?;
            (seen, writes, persisted)
        }
        Reads::Beside => {
            let written = WriteMeter::start(&session.server)?;
            let (seen, writes) = session.read_window(Some((script, pace)))?;
            (seen, writes, written.file_bytes(&session.server)?)
        }
    };
    clock.lap("read window and write stream");

    // Traced runs only: one reader beside two more scheduled writes, for
    // read latency with and without an update in flight. The period leaves
    // an idle gap after each update whatever an update costs here.
    let mut extras = session.extras.take();
    if let Some(extras) = &mut extras {
        let typical = crate::stats::median(
            &writes
                .writes
                .iter()
                .map(|w| w.latency_ms())
                .collect::<Vec<_>>(),
        );
        let period = Duration::from_secs_f64((1.5 * typical / 1e3).max(0.5));
        let overlap_script = &spare_script[..OVERLAP_WRITES];
        let window = period.mul_f64(OVERLAP_WRITES as f64);
        let (beside, overlap) = session.link(&addr).read_phase(
            1,
            window,
            Some((overlap_script, Pace::Open { period })),
        )?;
        extras.overlap_reads = beside.reads;
        extras.overlap_writes = overlap;
    }
    clock.lap("traced probes");

    // Crash; a traced run then answers once more from the journalled file.
    session.server.kill9();
    drop(session);
    let restart_ms = traced
        .then(|| proc::time_hcl(&ctx.hcl, &cold_query).map(ms))
        .transpose()?;
    attempted += u64::from(traced);
    clock.lap("kill -9 and restart answer");

    // ---- Checks; nothing below is timed. ----
    let all_writes: Vec<_> = writes
        .writes
        .iter()
        .chain(extras.iter().flat_map(|e| &e.overlap_writes.writes))
        .copied()
        .collect();
    attempted += all_writes.len() as u64;
    let store = IndexStore::open(&index_path)
        .map_err(|e| format!("reopening {} after kill -9: {e}", index_path.display()))?;
    // Acknowledged and visible, or failed; and if acknowledged, it must
    // have survived the crash.
    failed += all_writes
        .iter()
        .filter(|w| !w.ok || !store.graph().has_edge(w.u, w.v))
        .count() as u64;
    let inserted: Vec<_> = all_writes.iter().map(|w| (w.u, w.v)).collect();

    let ReadWindow {
        reads,
        failed: failed_reads,
        segments,
    } = seen;
    attempted += reads.len() as u64 + failed_reads;
    failed += failed_reads;
    let sampled_reads = check::evenly_spaced(&reads, profile.oracle_reads);
    let mut samples = check::samples_from_reads(&sampled_reads, &all_writes);
    samples.extend(check::evenly_spaced(&batch_samples, profile.oracle_batch));
    failed += check::count_wrong(&inputs.graph, &inserted, &samples, ctx.nproc);
    clock.lap("oracle checks");

    // Labelling size against a fresh build on the final graph. The thread
    // count never changes what is built, so use every core.
    let final_graph = store.graph().to_owned_graph();
    let fresh = HighwayCoverIndex::build_with(
        &final_graph,
        &crate::pipelines::build_options(LANDMARKS, ctx.nproc),
    );
    clock.lap("fresh build for the labelling-size ratio");

    let loadgen_valid = all_writes.iter().all(|w| w.late_ns <= 50_000_000);
    Ok(Live {
        meter,
        gen,
        ready,
        build,
        first_answer,
        batch_pairs,
        batch: batch_timed,
        reads,
        segments,
        read_window_s: profile.read_share * seconds * (1.0 - WARMUP_SHARE),
        writes,
        persist_bytes,
        final_file_bytes: store.len_bytes(),
        final_edges: store.graph().num_edges() as u64,
        repaired_label_entries: store.index().stats().total_label_entries as u64,
        fresh_label_entries: fresh.stats().total_label_entries as u64,
        restart_ms,
        attempted,
        failed,
        drain_exit_code,
        loadgen_valid,
        extras,
        inputs,
    })
}
