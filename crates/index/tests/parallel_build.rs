//! What the builder must produce, and that it produces it identically
//! however it is run: the labelling is checked entry by entry against the
//! paper's definition by brute force, and every thread count and every
//! selection strategy must yield an index whose five arrays are
//! **identical** to the single-threaded build — over every testkit family
//! plus two graphs large enough for several sweep groups. This is the
//! contract that lets `hcl build --threads N` persist byte-identical `.hcl`
//! containers regardless of the machine it ran on.

use hcl_core::{bfs, testkit, Graph, GraphView, VertexId, INFINITY};
use hcl_index::{
    BuildContext, BuildOptions, HighwayCoverIndex, LandmarkSelector, SelectionStrategy,
};

/// Array-level equality of two built indexes (stronger than answer-level:
/// the serialised container is a function of exactly these arrays).
fn assert_identical(name: &str, a: &HighwayCoverIndex, b: &HighwayCoverIndex) {
    let (a, b) = (a.as_view(), b.as_view());
    assert_eq!(a.landmarks(), b.landmarks(), "{name}: landmarks");
    assert_eq!(a.landmark_rank(), b.landmark_rank(), "{name}: rank table");
    assert_eq!(a.label_offsets(), b.label_offsets(), "{name}: offsets");
    assert_eq!(a.label_entries(), b.label_entries(), "{name}: entries");
    assert_eq!(a.highway(), b.highway(), "{name}: highway");
}

/// Landmark counts on both sides of the 64-wide sweep group: none, one
/// group (partly and exactly full), two and three.
const KS: [usize; 7] = [0, 1, 4, 16, 64, 65, 130];

/// The testkit families (none has more than 60 vertices) plus a connected
/// and a disconnected graph big enough that 65 and 130 landmarks really
/// are several groups — which is also what keeps a `HCL_BUILD_THREADS=4`
/// run of this suite on the threaded path.
fn graphs() -> Vec<(String, Graph)> {
    let mut graphs = testkit::families();
    graphs.push(("ba(150,2)".into(), testkit::barabasi_albert(150, 2, 21)));
    graphs.push((
        "grid(9x9)⊎er(70,0.05)".into(),
        testkit::disjoint_union(&testkit::grid(9, 9), &testkit::erdos_renyi(70, 0.05, 5)),
    ));
    graphs
}

/// The paper's labelling, by definition and by brute force: `(i, δ)` is in
/// `L(v)` iff `δ = d(r_i, v)` is finite and no other landmark `r_j` has
/// `d(r_i, r_j) + d(r_j, v) = d(r_i, v)` — which also excludes every
/// landmark `v ≠ r_i` (take `r_j = v`) and leaves `r_i` its self entry.
fn labelling_by_definition(g: &Graph, landmarks: &[VertexId]) -> Vec<Vec<(u32, u32)>> {
    let from: Vec<Vec<u32>> = landmarks
        .iter()
        .map(|&r| bfs::distances_from(g, r))
        .collect();
    (0..g.num_vertices())
        .map(|v| {
            (0..landmarks.len())
                .filter(|&i| {
                    from[i][v] != INFINITY
                        && (0..landmarks.len()).all(|j| {
                            let via = from[i][landmarks[j] as usize].saturating_add(from[j][v]);
                            j == i || via != from[i][v]
                        })
                })
                .map(|i| (i as u32, from[i][v]))
                .collect()
        })
        .collect()
}

const STRATEGIES: [SelectionStrategy; 3] = [
    SelectionStrategy::DegreeRank,
    SelectionStrategy::ApproxCoverage { seed: 11 },
    SelectionStrategy::SeededRandom { seed: 11 },
];

/// Builds single-threaded, asserts the 2-, 4- and 8-thread builds are
/// identical to it, and hands the index back.
fn build_at_every_thread_count(
    tag: &str,
    g: &Graph,
    num_landmarks: usize,
    selection: Option<SelectionStrategy>,
) -> HighwayCoverIndex {
    let opts = |threads| BuildOptions {
        num_landmarks,
        threads,
        batch_size: 0,
        selection,
    };
    let sequential = HighwayCoverIndex::build_with(g, &opts(1));
    for threads in [2usize, 4, 8] {
        let parallel = HighwayCoverIndex::build_with(g, &opts(threads));
        assert_identical(&format!("{tag} t={threads}"), &sequential, &parallel);
    }
    sequential
}

#[test]
fn built_labelling_is_the_papers_definition_on_every_family() {
    for (name, g) in graphs() {
        for (k, strategy) in KS.iter().flat_map(|&k| STRATEGIES.map(|s| (k, s))) {
            let tag = format!("{name} k={k} {strategy}");
            let built = build_at_every_thread_count(&tag, &g, k, Some(strategy));
            let view = built.as_view();
            let landmarks = view.landmarks();
            assert_eq!(landmarks.len(), k.min(g.num_vertices()), "{tag}");
            let expected = labelling_by_definition(&g, landmarks);
            for (v, want) in expected.iter().enumerate() {
                let got: Vec<(u32, u32)> = built.label(v as VertexId).collect();
                assert_eq!(&got, want, "{tag}: label of vertex {v}");
            }
            for (i, &r) in landmarks.iter().enumerate() {
                let own: Vec<(u32, u32)> = built.label(r).collect();
                assert_eq!(own, [(i as u32, 0)], "{tag}: landmark {i}'s label");
                let from = bfs::distances_from(&g, r);
                let row = &view.highway()[i * landmarks.len()..][..landmarks.len()];
                let want: Vec<u32> = landmarks.iter().map(|&o| from[o as usize]).collect();
                assert_eq!(row, want, "{tag}: highway row {i}");
            }
        }
    }
}

/// The ambient default strategy (`HCL_BUILD_STRATEGY` or degree rank).
#[test]
fn every_thread_count_builds_the_identical_index() {
    for (name, g) in graphs() {
        for k in KS {
            build_at_every_thread_count(&format!("{name} k={k}"), &g, k, None);
        }
    }
}

#[test]
fn build_in_reuses_contexts_across_builds() {
    // A held worker pool must serve repeated builds of different graphs
    // without state leaking between them.
    let opts = BuildOptions {
        num_landmarks: 70,
        threads: 4,
        batch_size: 0,
        selection: None,
    };
    let mut pool: Vec<BuildContext> = (0..4).map(|_| BuildContext::new()).collect();
    for seed in 0..3 {
        let g = testkit::erdos_renyi(40 + 40 * seed as usize, 0.08, seed);
        let fresh = HighwayCoverIndex::build_with(&g, &opts);
        let reused = HighwayCoverIndex::build_in(&g, &opts, &mut pool);
        assert_identical(&format!("seed {seed}"), &fresh, &reused);
    }
}

#[test]
fn every_strategy_is_thread_count_invariant() {
    // The byte-identity guarantee must hold *per selection strategy*:
    // selection runs once, deterministically, before the sweeps, so the
    // thread count can never change which landmarks anchor the index — or
    // anything downstream of them. Two groups, one of them partly full.
    let g = testkit::barabasi_albert(160, 3, 7);
    for strategy in STRATEGIES {
        build_at_every_thread_count(&format!("ba(160,3) {strategy}"), &g, 100, Some(strategy));
    }
}

/// A selector that panics when consulted — the "poisoned" pluggable
/// strategy case. It pins the worker-panic contract: the build must
/// surface **one coherent panic carrying the worker's payload**, not the
/// old opaque `join().expect("build worker panicked")` secondary panic.
struct PoisonedSelector;

impl LandmarkSelector for PoisonedSelector {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn select(&self, _graph: GraphView<'_>, _k: usize) -> Vec<VertexId> {
        panic!("selector poisoned on purpose")
    }
}

#[test]
fn worker_panics_reraise_as_one_coherent_build_panic() {
    // Two sweep groups, so the four contexts really mean worker threads.
    let g = testkit::barabasi_albert(100, 2, 3);
    let opts = BuildOptions {
        num_landmarks: 70,
        threads: 4,
        batch_size: 0,
        selection: None,
    };
    // Quiet the panic banner for this *deliberate* panic only: a filtering
    // hook that delegates everything else to the previous hook. Installed
    // once and left in place — swapping the hook back mid-run would race
    // with concurrently failing tests in this binary and could swallow
    // their diagnostics.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !msg.is_some_and(|m| m.contains("selector poisoned on purpose")) {
            previous(info);
        }
    }));
    let mut contexts: Vec<BuildContext> = (0..4).map(|_| BuildContext::new()).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        HighwayCoverIndex::build_in_with_selector(&g, &opts, &mut contexts, &PoisonedSelector)
    }));

    let Err(payload) = result else {
        panic!("poisoned selector must fail the build");
    };
    let msg = payload
        .downcast_ref::<String>()
        .expect("re-raised build panic carries a String payload");
    assert!(
        msg.contains("index build worker panicked"),
        "missing build context in panic: {msg}"
    );
    assert!(
        msg.contains("selector poisoned on purpose"),
        "worker payload swallowed: {msg}"
    );
}

#[test]
fn parallel_output_stays_exact_against_the_oracle() {
    // Equality above ties every thread count to the sequential output;
    // this ties a threaded build's *answers* to ground truth on a graph
    // with unreachable pairs.
    let g = testkit::disjoint_union(&testkit::barabasi_albert(90, 2, 5), &testkit::grid(4, 4));
    let idx = HighwayCoverIndex::build_with(
        &g,
        &BuildOptions {
            num_landmarks: 72,
            threads: 4,
            batch_size: 0,
            selection: None,
        },
    );
    let n = g.num_vertices() as u32;
    let mut ctx = hcl_index::QueryContext::new();
    for u in 0..n {
        let oracle = hcl_core::bfs::distances_from(&g, u);
        for v in 0..n {
            let expected = match oracle[v as usize] {
                hcl_core::INFINITY => None,
                d => Some(d),
            };
            assert_eq!(
                idx.query_with(&g, &mut ctx, u, v),
                expected,
                "parallel-built index wrong at ({u}, {v})"
            );
        }
    }
}
