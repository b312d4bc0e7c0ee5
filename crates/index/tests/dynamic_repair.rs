//! Property suite for incremental label repair: seeded random edit
//! scripts (mixed insert/delete) over the eleven graph families, asserting
//! after **every** step that the repaired index answers identically to a
//! fresh rebuild on the edited graph — and to the BFS oracle on a sampled
//! pair set — at 1 and 4 build threads.
//!
//! This is the acceptance gate for the dynamic-graphs tentpole: repair
//! never gives a different *answer* than a rebuild, and its labels are a
//! superset of a fresh build's over the same landmarks — how much of one
//! is measured below, not assumed.

use hcl_core::testkit::{barabasi_albert, disjoint_union, families, SplitMix64};
use hcl_core::{bfs, DeltaOp, EdgeDelta, Graph, PatchedGraph};
use hcl_index::repair::{PatchedIndex, RepairOutcome};
use hcl_index::{BuildContext, HighwayCoverIndex, QueryContext};
use std::sync::Arc;

const SCRIPT_LEN: usize = 12;

/// The top `k` by degree, labelled by `threads` fresh workers (`0`: the
/// auto mode).
fn build_top_k(g: &Graph, k: usize, threads: usize) -> HighwayCoverIndex {
    let mut pool: Vec<BuildContext> = (0..threads).map(|_| BuildContext::new()).collect();
    let landmarks = g.top_k_by_degree(k);
    HighwayCoverIndex::build(g, &landmarks, &mut pool, None)
        .unwrap()
        .0
}

/// Drives one seeded edit script over one family and checks answer
/// identity after every effective step.
fn run_script(name: &str, base: &Graph, threads: usize, seed: u64) {
    let n = base.num_vertices();
    if n < 2 {
        return; // no representable edge edits
    }
    let k = n.min(4);
    let built = build_top_k(base, k, threads);
    let mut dynamic = PatchedIndex::flat(Arc::new(built));
    let mut graph = PatchedGraph::flat(Arc::new(base.clone()));
    let mut cx = BuildContext::new();
    let mut rng = SplitMix64::new(seed);

    for step in 0..SCRIPT_LEN {
        let u = rng.next_below(n as u64) as u32;
        let v = rng.next_below(n as u64) as u32;
        if u == v {
            continue;
        }
        let delta = if graph.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        let outcome = dynamic
            .apply_and_repair(&mut graph, delta, &mut cx)
            .unwrap_or_else(|e| panic!("[{name}] step {step}: {delta} rejected: {e}"));
        assert!(outcome.applied, "[{name}] step {step}: {delta} was a no-op");

        let edited = graph.to_graph();
        let rebuilt = build_top_k(&edited, k, threads);
        let repaired = dynamic.to_index();
        let mut cx_rep = QueryContext::new();
        let mut cx_reb = QueryContext::new();
        let mut oracle_scratch = bfs::BfsScratch::new();
        let mut pair_rng = SplitMix64::new(seed ^ (step as u64).wrapping_mul(0x9e37));
        let all_pairs = n <= 40;
        let checks = if all_pairs { n * n } else { 300 };
        for c in 0..checks {
            let (a, b) = if all_pairs {
                ((c / n) as u32, (c % n) as u32)
            } else {
                (
                    pair_rng.next_below(n as u64) as u32,
                    pair_rng.next_below(n as u64) as u32,
                )
            };
            let got = repaired.as_view().query_with(&edited, &mut cx_rep, a, b);
            let want = rebuilt.as_view().query_with(&edited, &mut cx_reb, a, b);
            assert_eq!(
                got, want,
                "[{name}] step {step} ({delta}, threads {threads}): repaired vs rebuilt \
                 diverged on ({a}, {b})"
            );
            // Spot-check against ground truth too, so a bug shared by
            // repair and rebuild cannot slip through as "identical".
            if c % 7 == 0 {
                let truth = bfs::distance_with(&edited, a, b, &mut oracle_scratch);
                assert_eq!(
                    got, truth,
                    "[{name}] step {step} ({delta}): repaired answer wrong vs oracle \
                     on ({a}, {b})"
                );
            }
        }
    }
}

#[test]
fn edit_scripts_match_rebuild_over_all_families_single_thread() {
    for (name, graph) in families() {
        run_script(&name, &graph, 1, 0xA11C_E5ED ^ graph.num_vertices() as u64);
    }
}

#[test]
fn edit_scripts_match_rebuild_over_all_families_four_threads() {
    for (name, graph) in families() {
        run_script(&name, &graph, 4, 0xB0B5_1ED5 ^ graph.num_vertices() as u64);
    }
}

/// The landmark counts of `oracle_property.rs`.
const KS: &[usize] = &[0, 1, 2, 4, 16];

/// BFS distances from every landmark of `index` on `graph`, in rank order.
fn landmark_bfs(graph: &Graph, index: &HighwayCoverIndex) -> Vec<Vec<u32>> {
    index
        .as_view()
        .landmarks()
        .iter()
        .map(|&lm| bfs::distances_from(graph, lm))
        .collect()
}

/// Every vertex's `(hub rank, distance)` label, read off the flattened form.
fn labels_of(dynamic: &PatchedIndex) -> Vec<Vec<(u32, u32)>> {
    let index = dynamic.to_index();
    (0..index.as_view().num_vertices() as u32)
        .map(|v| index.as_view().label(v).collect())
        .collect()
}

/// The edit that led to a [`Snapshot`], with the state it started from.
struct Edit<'a> {
    delta: EdgeDelta,
    outcome: RepairOutcome,
    labels_before: &'a [Vec<(u32, u32)>],
    truth_before: &'a [Vec<u32>],
}

/// What [`sweep_edit_scripts`] hands its check: the freshly built index
/// (`edit: None`), then the state after every edit of the script.
struct Snapshot<'a> {
    tag: &'a str,
    /// The graph as it stands.
    graph: &'a Graph,
    dynamic: &'a PatchedIndex,
    /// BFS distances from each landmark on the current graph.
    truth: &'a [Vec<u32>],
    edit: Option<Edit<'a>>,
}

/// Walks every family × landmark count × one seeded script of mixed
/// inserts and deletes, calling `check` on the built index and after
/// every step.
fn sweep_edit_scripts(mut check: impl FnMut(&Snapshot<'_>)) {
    for (name, base) in families() {
        let n = base.num_vertices();
        for &k in KS {
            let built = build_top_k(&base, k, 0);
            let mut dynamic = PatchedIndex::flat(Arc::new(built.as_view().to_owned_index()));
            let mut graph = PatchedGraph::flat(Arc::new(base.clone()));
            let mut cx = BuildContext::new();
            let mut rng = SplitMix64::new(0xDE7E_C7ED ^ (n * 31 + k) as u64);
            let mut truth = landmark_bfs(&base, &built);
            check(&Snapshot {
                tag: &format!("[{name}] k={k} as built"),
                graph: &base,
                dynamic: &dynamic,
                truth: &truth,
                edit: None,
            });
            if n < 2 {
                continue; // no representable edge edits
            }
            for step in 0..SCRIPT_LEN {
                let (u, v) = loop {
                    let u = rng.next_below(n as u64) as u32;
                    let v = rng.next_below(n as u64) as u32;
                    if u != v {
                        break (u, v);
                    }
                };
                let delta = if graph.has_edge(u, v) {
                    EdgeDelta::delete(u, v)
                } else {
                    EdgeDelta::insert(u, v)
                };
                let labels_before = labels_of(&dynamic);
                let outcome = dynamic
                    .apply_and_repair(&mut graph, delta, &mut cx)
                    .unwrap_or_else(|e| panic!("[{name}] k={k} step {step}: {delta}: {e}"));
                let edited = graph.to_graph();
                let truth_after = landmark_bfs(&edited, &built);
                check(&Snapshot {
                    tag: &format!("[{name}] k={k} step {step} ({delta})"),
                    graph: &edited,
                    dynamic: &dynamic,
                    truth: &truth_after,
                    edit: Some(Edit {
                        delta,
                        outcome,
                        labels_before: &labels_before,
                        truth_before: &truth,
                    }),
                });
                truth = truth_after;
            }
        }
    }
}

/// (C): the landmark distances read off each vertex's label and the
/// highway equal BFS's, for every vertex.
fn assert_cover(tag: &str, dynamic: &PatchedIndex, truth: &[Vec<u32>]) {
    for v in 0..dynamic.num_vertices() {
        let want: Vec<u32> = truth.iter().map(|d| d[v]).collect();
        assert_eq!(
            dynamic.landmark_distances(v as u32),
            want,
            "{tag}: label-derived landmark distances of vertex {v} differ from BFS"
        );
    }
}

/// The invariants every repair must restore, against BFS ground truth:
/// (U) no label entry is below the true landmark distance, (C) the cover
/// property, and a highway that is exact for every landmark pair.
fn assert_index_invariants(tag: &str, dynamic: &PatchedIndex, truth: &[Vec<u32>]) {
    assert_cover(tag, dynamic, truth);
    let index = dynamic.to_index();
    let view = index.as_view();
    let k = view.landmarks().len();
    for v in 0..index.as_view().num_vertices() as u32 {
        for (hub, d) in index.as_view().label(v) {
            let exact = truth[hub as usize][v as usize];
            assert!(
                d >= exact,
                "{tag}: entry ({hub}, {d}) of vertex {v} is below the BFS distance {exact}"
            );
        }
    }
    for (i, from_i) in truth.iter().enumerate() {
        for (j, &lm) in view.landmarks().iter().enumerate() {
            assert_eq!(
                view.highway()[i * k + j],
                from_i[lm as usize],
                "{tag}: highway[{i}][{j}] differs from BFS"
            );
        }
    }
}

/// The paper's detection step: landmark distances read off a vertex's
/// label and the highway must equal a BFS's, for every vertex, on the
/// built index and after every step of a seeded edit script — so the
/// affected set, and with it every repaired label, is exactly what the
/// endpoint BFSs it replaced computed.
#[test]
fn label_derived_landmark_distances_match_bfs_over_all_families() {
    sweep_edit_scripts(|s| assert_cover(s.tag, s.dynamic, s.truth));
}

/// After every step the index holds (U), (C) and an exact highway; and an
/// insert's repair is *partial*: it reports exactly the (landmark, vertex)
/// pairs whose BFS distance strictly dropped, and every vertex outside
/// that set keeps a byte-identical label — the write set is the affected
/// set.
#[test]
fn repair_restores_invariants_and_writes_only_the_affected_set() {
    sweep_edit_scripts(|s| {
        assert_index_invariants(s.tag, s.dynamic, s.truth);
        let Some(edit) = &s.edit else { return };
        let tag = s.tag;
        assert!(edit.outcome.applied, "{tag}: was a no-op");
        if edit.delta.op == DeltaOp::Delete {
            assert_eq!(edit.outcome.affected_vertices, 0, "{tag}");
            return;
        }
        assert!(!edit.outcome.full_relabel, "{tag}: insert fell back");
        let n = s.dynamic.num_vertices();
        let dropped = |i: usize, v: usize| s.truth[i][v] < edit.truth_before[i][v];
        let k = s.truth.len();
        let pairs = (0..k)
            .map(|i| (0..n).filter(|&v| dropped(i, v)).count())
            .collect::<Vec<_>>();
        assert_eq!(
            edit.outcome.affected_vertices,
            pairs.iter().sum::<usize>(),
            "{tag}: affected_vertices is not the number of pairs whose distance dropped"
        );
        assert_eq!(
            edit.outcome.affected_landmarks,
            pairs.iter().filter(|&&c| c > 0).count(),
            "{tag}: affected_landmarks is not the number of landmarks with a drop"
        );
        let labels_after = labels_of(s.dynamic);
        for v in (0..n).filter(|&v| !(0..k).any(|i| dropped(i, v))) {
            assert_eq!(
                labels_after[v], edit.labels_before[v],
                "{tag}: label of unaffected vertex {v} was rewritten"
            );
        }
    });
}

/// How far a repaired index is from a fresh build over the same
/// landmarks, after every step: the highway is equal and the labels are a
/// superset — every fresh entry present at the same distance. An index as
/// built, and one just relabelled by a delete, *is* the fresh build. The
/// surplus after inserts is the entries a vertex keeps when it gains an
/// equal-length path through another landmark without its own distance
/// dropping (the find never visits it), plus entries written while the
/// only hub that would have certified them was still waiting for its own
/// repair later in the same pass. It is counted and printed (`--nocapture`).
/// These families are tiny and rich in equal-length paths, so it runs to
/// a few percent here (3.7 % when written) against parts per million on
/// the benchmark's power-law graphs; the bound is a tripwire, not a claim.
#[test]
fn repaired_labels_are_a_superset_of_a_fresh_builds() {
    let (mut surplus_total, mut fresh_total, mut steps) = (0usize, 0usize, 0usize);
    sweep_edit_scripts(|s| {
        let tag = s.tag;
        let repaired = s.dynamic.to_index();
        let landmarks = repaired.as_view().landmarks();
        let fresh = HighwayCoverIndex::build(s.graph, landmarks, &mut [], None)
            .unwrap()
            .0;
        assert_eq!(
            repaired.as_view().highway(),
            fresh.as_view().highway(),
            "{tag}: highway differs from a fresh build's"
        );
        let mut surplus = 0usize;
        for v in 0..s.graph.num_vertices() as u32 {
            let held: Vec<(u32, u32)> = repaired.as_view().label(v).collect();
            for entry in fresh.as_view().label(v) {
                assert!(
                    held.contains(&entry),
                    "{tag}: fresh entry {entry:?} of vertex {v} missing from {held:?}"
                );
            }
            surplus += held.len() - fresh.as_view().label(v).count();
        }
        if s.edit.as_ref().is_none_or(|e| e.outcome.full_relabel) {
            assert_eq!(
                surplus, 0,
                "{tag}: a build is not byte-identical to a build"
            );
        }
        surplus_total += surplus;
        fresh_total += fresh.stats().total_label_entries;
        steps += 1;
    });
    println!(
        "repaired vs fresh over {steps} snapshots: {surplus_total} surplus entries beside \
         {fresh_total} fresh ones (ratio {:.6})",
        (fresh_total + surplus_total) as f64 / fresh_total as f64
    );
    assert!(
        surplus_total * 20 < fresh_total,
        "surplus {surplus_total} is not under 5 % of {fresh_total}"
    );
}

/// Joining two components: every vertex on the other side becomes
/// reachable from each landmark, so the affected set is the whole newly
/// reachable side, and the repair must label all of it.
#[test]
fn joining_two_components_repairs_the_whole_newly_reachable_side() {
    let left = barabasi_albert(60, 3, 5);
    let right = barabasi_albert(40, 2, 6);
    let base = disjoint_union(&left, &right);
    let built = build_top_k(&base, 8, 0);
    let on_left = built
        .as_view()
        .landmarks()
        .iter()
        .filter(|&&lm| lm < 60)
        .count();
    let mut dynamic = PatchedIndex::flat(Arc::new(built.as_view().to_owned_index()));
    let mut graph = PatchedGraph::flat(Arc::new(base.clone()));
    let mut cx = BuildContext::new();
    assert_index_invariants("disjoint, as built", &dynamic, &landmark_bfs(&base, &built));

    // Two ordinary vertices, one per side.
    let ordinary = |v: &u32| !built.as_view().is_landmark(*v);
    let a = (0..60).rev().find(ordinary).unwrap();
    let b = (60..100).rev().find(ordinary).unwrap();
    let outcome = dynamic
        .apply_and_repair(&mut graph, EdgeDelta::insert(a, b), &mut cx)
        .unwrap();
    assert_eq!(outcome.affected_landmarks, 8);
    assert_eq!(outcome.affected_vertices, on_left * 40 + (8 - on_left) * 60);
    let joined = graph.to_graph();
    assert_index_invariants("joined", &dynamic, &landmark_bfs(&joined, &built));

    // Cross-component answers exist now and are exact.
    let repaired = dynamic.to_index();
    let mut ctx = QueryContext::new();
    for (u, v) in [(0, 99), (a, b), (17, 73), (59, 60)] {
        assert_eq!(
            repaired.as_view().query_with(&joined, &mut ctx, u, v),
            bfs::distance(&joined, u, v),
            "({u}, {v}) after the join"
        );
    }

    // A second bridge is an ordinary insert on a connected graph.
    dynamic
        .apply_and_repair(&mut graph, EdgeDelta::insert(0, 60), &mut cx)
        .unwrap();
    let truth = landmark_bfs(&graph.to_graph(), &built);
    assert_index_invariants("second bridge", &dynamic, &truth);
}

/// The paper's size and locality claims as counts, not timings: after 200
/// random inserts on a 10k-vertex power-law graph the repaired labelling is
/// within 1 % of a fresh build's size, and an insert's find phase visits —
/// `affected_vertices` is one visit per recorded pair — fewer than 1 % of
/// the vertices on average.
#[test]
fn partial_repair_stays_small_and_local_on_a_power_law_graph() {
    const N: usize = 10_000;
    const INSERTS: usize = 200;
    let base = barabasi_albert(N, 5, 0x1AC4);
    let built = build_top_k(&base, 32, 0);
    let mut dynamic = PatchedIndex::flat(Arc::new(built));
    let mut graph = PatchedGraph::flat(Arc::new(base.clone()));
    let mut cx = BuildContext::new();
    let mut rng = SplitMix64::new(0x5CA1E);
    let mut visited = 0usize;
    let mut applied = 0usize;
    while applied < INSERTS {
        let u = rng.next_below(N as u64) as u32;
        let v = rng.next_below(N as u64) as u32;
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let outcome = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(u, v), &mut cx)
            .unwrap();
        assert!(outcome.applied && !outcome.full_relabel);
        visited += outcome.affected_vertices;
        applied += 1;
    }
    assert!(
        visited < INSERTS * N / 100,
        "{visited} vertices visited over {INSERTS} inserts: not under 1 % of {N} per insert"
    );
    let edited = graph.to_graph();
    let fresh = build_top_k(&edited, 32, 0);
    let (repaired, rebuilt) = (
        dynamic.num_label_entries(),
        fresh.stats().total_label_entries,
    );
    assert!(
        repaired * 100 <= rebuilt * 101,
        "repaired labelling holds {repaired} entries, a fresh build {rebuilt}"
    );
    // Still exact where it matters: sampled answers against the oracle.
    let repaired = dynamic.to_index();
    let mut ctx = QueryContext::new();
    let mut scratch = bfs::BfsScratch::new();
    for _ in 0..200 {
        let u = rng.next_below(N as u64) as u32;
        let v = rng.next_below(N as u64) as u32;
        assert_eq!(
            repaired.as_view().query_with(&edited, &mut ctx, u, v),
            bfs::distance_with(&edited, u, v, &mut scratch),
            "({u}, {v}) after {INSERTS} inserts"
        );
    }
}

/// Flattening is a publish step, not part of the repair: two twins fed the
/// same seeded edit script — one flattened after every delta, one only at
/// the end of each batch of eight, so delete relabels land mid-batch with
/// replacement labels pending — hold byte-identical label offsets, label
/// entries and highway at every batch boundary. A delta that wrote nothing
/// flattens to the very `Arc` published before it.
#[test]
fn flattening_per_delta_or_per_batch_gives_the_same_bytes() {
    const BATCH: usize = 8;
    for (name, base) in families() {
        let n = base.num_vertices();
        if n < 2 {
            continue; // no representable edge edits
        }
        for &k in KS {
            let built = build_top_k(&base, k, 0);
            let mut per_delta = PatchedIndex::flat(Arc::new(built.as_view().to_owned_index()));
            let mut per_batch = PatchedIndex::flat(Arc::new(built));
            let mut graphs = [
                PatchedGraph::flat(Arc::new(base.clone())),
                PatchedGraph::flat(Arc::new(base.clone())),
            ];
            let mut cx = BuildContext::new();
            let mut rng = SplitMix64::new(0xF1A7 ^ (n * 31 + k) as u64);
            let mut published = per_delta.flatten();
            for step in 0..3 * BATCH {
                // Every third edit deletes an existing edge, so each batch
                // holds deletes between inserts.
                let u = rng.next_below(n as u64) as u32;
                let adj = graphs[0].neighbors(u);
                let v = if step % 3 == 1 && !adj.is_empty() {
                    adj[rng.next_below(adj.len() as u64) as usize]
                } else {
                    rng.next_below(n as u64) as u32
                };
                if u == v {
                    continue;
                }
                let delta = if graphs[0].has_edge(u, v) {
                    EdgeDelta::delete(u, v)
                } else {
                    EdgeDelta::insert(u, v)
                };
                let tag = format!("[{name}] k={k} step {step} ({delta})");
                let [a, b] = &mut graphs;
                let outcome = per_delta.apply_and_repair(a, delta, &mut cx).unwrap();
                assert_eq!(
                    per_batch.apply_and_repair(b, delta, &mut cx).unwrap(),
                    outcome
                );
                let flattened = per_delta.flatten();
                if outcome.affected_vertices == 0 && !outcome.full_relabel {
                    assert!(
                        std::sync::Arc::ptr_eq(&published, &flattened),
                        "{tag}: a delta that wrote nothing republished the labels"
                    );
                }
                published = flattened;
                if step % BATCH == BATCH - 1 {
                    let batched = per_batch.flatten();
                    let (got, want) = (batched.as_view(), published.as_view());
                    assert_eq!(got.label_offsets(), want.label_offsets(), "{tag}: offsets");
                    assert_eq!(got.label_entries(), want.label_entries(), "{tag}: entries");
                    assert_eq!(got.highway(), want.highway(), "{tag}: highway");
                }
            }
        }
    }
}

#[test]
fn deltas_never_mutate_the_base_graph() {
    let base = hcl_core::testkit::barabasi_albert(60, 3, 7);
    let before: Vec<Vec<u32>> = (0..60).map(|v| base.neighbors(v).to_vec()).collect();
    let mut graph = PatchedGraph::flat(Arc::new(base.clone()));
    let mut rng = SplitMix64::new(99);
    for _ in 0..40 {
        let u = rng.next_below(60) as u32;
        let v = rng.next_below(60) as u32;
        if u == v {
            continue;
        }
        let delta = if graph.has_edge(u, v) {
            EdgeDelta::delete(u, v)
        } else {
            EdgeDelta::insert(u, v)
        };
        graph.apply(delta).unwrap();
    }
    for v in 0..60 {
        assert_eq!(base.neighbors(v), &before[v as usize][..]);
    }
}
