//! Property suite for incremental label repair: seeded random edit
//! scripts (mixed insert/delete) over the eleven graph families, asserting
//! after **every** step that the repaired index answers identically to a
//! fresh rebuild on the edited graph — and to the BFS oracle on a sampled
//! pair set — at 1 and 4 build threads.
//!
//! This is the acceptance gate for the dynamic-graphs tentpole: repair is
//! allowed to produce different label *bytes* than a rebuild (pruning
//! decisions are history-dependent), but never a different *answer*.

use hcl_core::testkit::{families, SplitMix64};
use hcl_core::{bfs, DeltaGraph, EdgeDelta};
use hcl_index::repair::DynamicIndex;
use hcl_index::{BuildContext, BuildOptions, HighwayCoverIndex, QueryContext};

const SCRIPT_LEN: usize = 12;

/// Drives one seeded edit script over one family and checks answer
/// identity after every effective step.
fn run_script(name: &str, base: &hcl_core::Graph, threads: usize, seed: u64) {
    let n = base.num_vertices();
    if n < 2 {
        return; // no representable edge edits
    }
    let k = n.min(4);
    let options = BuildOptions {
        num_landmarks: k,
        threads,
        ..Default::default()
    };
    let built = HighwayCoverIndex::build_with(base, &options);
    let mut dynamic = DynamicIndex::from_view(built.as_view());
    let mut graph = DeltaGraph::new(base.as_view());
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
        let rebuilt = HighwayCoverIndex::build_with(&edited, &options);
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

/// The paper's detection step: landmark distances read off a vertex's
/// label and the highway must equal a BFS's, for every vertex, on the
/// built index and after every step of a seeded edit script — so the
/// affected set, and with it every repaired label, is exactly what the
/// endpoint BFSs it replaced computed.
#[test]
fn label_derived_landmark_distances_match_bfs_over_all_families() {
    // The landmark counts of `oracle_property.rs`.
    const KS: &[usize] = &[0, 1, 2, 4, 16];
    for (name, base) in families() {
        let n = base.num_vertices();
        for &k in KS {
            let options = BuildOptions {
                num_landmarks: k,
                ..Default::default()
            };
            let built = HighwayCoverIndex::build_with(&base, &options);
            let mut dynamic = DynamicIndex::from_view(built.as_view());
            let mut graph = DeltaGraph::new(base.as_view());
            let mut cx = BuildContext::new();
            let mut rng = SplitMix64::new(0xDE7E_C7ED ^ (n * 31 + k) as u64);
            for step in 0..=SCRIPT_LEN {
                let current = graph.to_graph();
                let from_landmarks: Vec<Vec<u32>> = built
                    .as_view()
                    .landmarks()
                    .iter()
                    .map(|&lm| bfs::distances_from(&current, lm))
                    .collect();
                for v in 0..n {
                    let want: Vec<u32> = from_landmarks.iter().map(|d| d[v]).collect();
                    assert_eq!(
                        dynamic.landmark_distances(v as u32),
                        want,
                        "[{name}] k={k} after {step} edit(s): label-derived landmark \
                         distances of vertex {v} differ from BFS"
                    );
                }
                if n < 2 || step == SCRIPT_LEN {
                    break;
                }
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
                dynamic
                    .apply_and_repair(&mut graph, delta, &mut cx)
                    .unwrap_or_else(|e| panic!("[{name}] k={k} step {step}: {delta}: {e}"));
            }
        }
    }
}

#[test]
fn deltas_never_mutate_the_base_graph() {
    let base = hcl_core::testkit::barabasi_albert(60, 3, 7);
    let before: Vec<Vec<u32>> = (0..60).map(|v| base.neighbors(v).to_vec()).collect();
    let mut graph = DeltaGraph::new(base.as_view());
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
