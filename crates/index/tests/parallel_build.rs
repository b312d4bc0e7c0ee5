//! What the builder must produce, and that it produces it identically
//! however it is run: the labelling is checked entry by entry against the
//! paper's definition by brute force, for the degree-ranked landmarks and
//! for seeded random landmark lists, and every thread count must yield an
//! index whose five arrays are **identical** to the single-threaded build
//! — over every testkit family plus two graphs large enough for several
//! sweep groups. This is the contract that lets `hcl build --threads N`
//! persist byte-identical `.hcl` containers regardless of the machine it
//! ran on.

use hcl_core::{bfs, testkit, Graph, VertexId, INFINITY};
use hcl_index::{BuildContext, HighwayCoverIndex};

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

/// The landmark lists the definition is checked over: the degree-ranked
/// top `k` every build uses, and two seeded random lists of the same
/// length, so the labelling is right for any landmark set, not just hubs.
fn landmark_lists(g: &Graph, k: usize) -> Vec<(String, Vec<VertexId>)> {
    let n = g.num_vertices();
    let mut lists = vec![("degree".to_string(), g.top_k_by_degree(k))];
    for seed in [11, 12] {
        lists.push((
            format!("random:{seed}"),
            testkit::random_vertices(n, k, seed),
        ));
    }
    lists
}

/// The top `k` by degree, labelled by `threads` fresh workers.
fn build_top_k(g: &Graph, k: usize, threads: usize) -> HighwayCoverIndex {
    let mut pool: Vec<BuildContext> = (0..threads).map(|_| BuildContext::new()).collect();
    let landmarks = g.top_k_by_degree(k);
    HighwayCoverIndex::build(g, &landmarks, &mut pool, None)
        .unwrap()
        .0
}

/// Builds for `landmarks` in the calling thread, asserts the 2-, 4- and
/// 8-worker builds are identical to it, and hands the index back.
fn build_at_every_thread_count(tag: &str, g: &Graph, landmarks: &[VertexId]) -> HighwayCoverIndex {
    let sequential = HighwayCoverIndex::build(g, landmarks, &mut [BuildContext::new()], None)
        .unwrap()
        .0;
    for threads in [2usize, 4, 8] {
        let mut pool: Vec<BuildContext> = (0..threads).map(|_| BuildContext::new()).collect();
        let parallel = HighwayCoverIndex::build(g, landmarks, &mut pool, None)
            .unwrap()
            .0;
        assert_identical(&format!("{tag} t={threads}"), &sequential, &parallel);
    }
    sequential
}

/// Levels the sweeps of a degree-ranked, single-threaded build of `g`
/// expanded by pulling, read off its progress lines.
fn pulled_levels(g: &Graph, k: usize) -> u64 {
    let mut pulled = 0;
    let mut sink = |line: String| {
        let field = line.split_once(" dense, ").map(|(_, rest)| rest);
        if let Some((count, _)) = field.and_then(|rest| rest.split_once(" pulled, ")) {
            pulled += count.parse::<u64>().expect("a pulled-level count");
        }
    };
    let landmarks = g.top_k_by_degree(k);
    let mut cx = BuildContext::new();
    HighwayCoverIndex::build(
        g,
        &landmarks,
        std::slice::from_mut(&mut cx),
        Some(&mut sink),
    )
    .unwrap();
    pulled
}

#[test]
fn built_labelling_is_the_papers_definition_on_every_family() {
    let mut pulled = 0;
    for (name, g) in graphs() {
        for k in KS {
            for (list, landmarks) in landmark_lists(&g, k) {
                let tag = format!("{name} k={k} {list}");
                let built = build_at_every_thread_count(&tag, &g, &landmarks);
                assert_definition(&tag, &g, &built);
            }
            pulled += pulled_levels(&g, k);
        }
    }
    // The sweep chooses a direction per level; the check above must have
    // held the pulled levels to the definition too, not only pushed ones.
    assert!(pulled > 0, "no family pulled a level");
}

/// A broom — a BA head on 1 000 vertices with a 1 500-vertex path for a
/// handle — makes the sweep put its head's wide levels in vertex order
/// from the arrival bitmap and its handle's one-vertex levels by sorting;
/// both orders must build the definition, identically at every thread
/// count, in one group and in two.
#[test]
fn built_labelling_is_the_papers_definition_on_a_broom() {
    let g = testkit::broom(1_000, 3, 1_500, 23);
    for k in [16, 65] {
        for (list, landmarks) in landmark_lists(&g, k) {
            let tag = format!("broom k={k} {list}");
            let built = build_at_every_thread_count(&tag, &g, &landmarks);
            assert_definition(&tag, &g, &built);
        }
    }
}

/// Asserts `built` is the paper's labelling of `g` for its own landmarks,
/// entry by entry, and that its highway holds the exact distances.
fn assert_definition(tag: &str, g: &Graph, built: &HighwayCoverIndex) {
    let view = built.as_view();
    let landmarks = view.landmarks();
    let expected = labelling_by_definition(g, landmarks);
    for (v, want) in expected.iter().enumerate() {
        let got: Vec<(u32, u32)> = view.label(v as VertexId).collect();
        assert_eq!(&got, want, "{tag}: label of vertex {v}");
    }
    for (i, &r) in landmarks.iter().enumerate() {
        let own: Vec<(u32, u32)> = view.label(r).collect();
        assert_eq!(own, [(i as u32, 0)], "{tag}: landmark {i}'s label");
        let from = bfs::distances_from(g, r);
        let row = &view.highway()[i * landmarks.len()..][..landmarks.len()];
        let want: Vec<u32> = landmarks.iter().map(|&o| from[o as usize]).collect();
        assert_eq!(row, want, "{tag}: highway row {i}");
    }
}

/// Every worker count — what `hcl build --threads` sets — builds the
/// identical index.
#[test]
fn every_thread_count_builds_the_identical_index() {
    for (name, g) in graphs() {
        for k in KS {
            let sequential = build_top_k(&g, k, 1);
            for threads in [2usize, 4, 8] {
                let parallel = build_top_k(&g, k, threads);
                assert_identical(&format!("{name} k={k} t={threads}"), &sequential, &parallel);
            }
        }
    }
}

#[test]
fn build_in_reuses_contexts_across_builds() {
    // A held worker pool must serve repeated builds of different graphs
    // without state leaking between them.
    let mut pool: Vec<BuildContext> = (0..4).map(|_| BuildContext::new()).collect();
    for seed in 0..3 {
        let g = testkit::erdos_renyi(40 + 40 * seed as usize, 0.08, seed);
        let fresh = build_top_k(&g, 70, 4);
        let landmarks = g.top_k_by_degree(70);
        let reused = HighwayCoverIndex::build(&g, &landmarks, &mut pool, None)
            .unwrap()
            .0;
        assert_identical(&format!("seed {seed}"), &fresh, &reused);
    }
}

#[test]
fn parallel_output_stays_exact_against_the_oracle() {
    // Equality above ties every thread count to the sequential output;
    // this ties a threaded build's *answers* to ground truth on a graph
    // with unreachable pairs.
    let g = testkit::disjoint_union(&testkit::barabasi_albert(90, 2, 5), &testkit::grid(4, 4));
    let idx = build_top_k(&g, 72, 4);
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
                idx.as_view().query_with(&g, &mut ctx, u, v),
                expected,
                "parallel-built index wrong at ({u}, {v})"
            );
        }
    }
}
