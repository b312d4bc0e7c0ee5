//! Property tests: on every generated graph family, for every vertex pair
//! and several landmark counts, the index answer must equal the plain BFS
//! oracle — including `None` for disconnected pairs.

use hcl_core::{bfs, testkit, Graph, INFINITY};
use hcl_index::{HighwayCoverIndex, QueryContext};

/// The top `k` by degree, labelled with the auto-mode contexts.
fn build_top_k(g: &Graph, k: usize) -> HighwayCoverIndex {
    let landmarks = g.top_k_by_degree(k);
    HighwayCoverIndex::build(g, &landmarks, &mut [], None)
        .unwrap()
        .0
}

/// Exhaustively checks `index.query(u, v) == bfs_oracle(u, v)` for all
/// pairs, for each landmark count in `ks`.
fn assert_matches_oracle(name: &str, g: &Graph, ks: &[usize]) {
    let n = g.num_vertices() as u32;
    for &k in ks {
        let idx = build_top_k(g, k);
        let mut ctx = QueryContext::new();
        for u in 0..n {
            let oracle = bfs::distances_from(g, u);
            for v in 0..n {
                let expected = match oracle[v as usize] {
                    INFINITY => None,
                    d => Some(d),
                };
                let got = idx.as_view().query_with(g, &mut ctx, u, v);
                assert_eq!(
                    got, expected,
                    "{name}: query({u}, {v}) with k={k} disagrees with BFS oracle"
                );
            }
        }
    }
}

const KS: &[usize] = &[0, 1, 2, 4, 16];

/// Exactness does not depend on how the landmarks were chosen: for the
/// degree-ranked landmarks every build uses and for two seeded random
/// landmark lists, every query must still equal the BFS oracle — the
/// labelling and query engine may assume nothing about *why* a vertex is a
/// landmark. All pairs over the shared eleven-family sweep
/// (`testkit::families`), several landmark counts.
#[test]
fn every_strategy_matches_oracle_on_all_families() {
    for (name, g) in testkit::families() {
        let n = g.num_vertices();
        for &k in &[0usize, 2, 8] {
            let lists = [
                ("degree", g.top_k_by_degree(k)),
                ("random:7", testkit::random_vertices(n, k, 7)),
                ("random:8", testkit::random_vertices(n, k, 8)),
            ];
            for (list, landmarks) in lists {
                let idx = HighwayCoverIndex::build(&g, &landmarks, &mut [], None)
                    .unwrap()
                    .0;
                let mut ctx = QueryContext::new();
                for u in 0..n as u32 {
                    let oracle = bfs::distances_from(&g, u);
                    for v in 0..n as u32 {
                        let expected = match oracle[v as usize] {
                            INFINITY => None,
                            d => Some(d),
                        };
                        assert_eq!(
                            idx.as_view().query_with(&g, &mut ctx, u, v),
                            expected,
                            "{name}: query({u}, {v}) with k={k}, {list} landmarks, \
                             disagrees with BFS oracle"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn family_path() {
    assert_matches_oracle("path(1)", &testkit::path(1), KS);
    assert_matches_oracle("path(2)", &testkit::path(2), KS);
    assert_matches_oracle("path(23)", &testkit::path(23), KS);
}

#[test]
fn family_cycle() {
    assert_matches_oracle("cycle(3)", &testkit::cycle(3), KS);
    assert_matches_oracle("cycle(24)", &testkit::cycle(24), KS);
    assert_matches_oracle("cycle(25)", &testkit::cycle(25), KS);
}

#[test]
fn family_star() {
    assert_matches_oracle("star(2)", &testkit::star(2), KS);
    assert_matches_oracle("star(30)", &testkit::star(30), KS);
}

#[test]
fn family_grid() {
    assert_matches_oracle("grid(1x7)", &testkit::grid(1, 7), KS);
    assert_matches_oracle("grid(5x6)", &testkit::grid(5, 6), KS);
}

#[test]
fn family_erdos_renyi() {
    for seed in 0..4 {
        for &p in &[0.02, 0.05, 0.15] {
            let g = testkit::erdos_renyi(48, p, seed);
            assert_matches_oracle(&format!("er(48, {p}, seed {seed})"), &g, KS);
        }
    }
}

#[test]
fn family_barabasi_albert() {
    // The power-law family the paper's hub-domination argument targets:
    // a few high-degree hubs should cover almost all shortest paths.
    for seed in 0..3 {
        for &m in &[1, 3] {
            let g = testkit::barabasi_albert(42, m, seed);
            assert_matches_oracle(&format!("ba(42, {m}, seed {seed})"), &g, KS);
        }
    }
}

#[test]
fn queries_over_views_match_owned_index() {
    // The same queries must produce identical answers whether the engine
    // runs over the owned index/graph or over borrowed views — this is the
    // abstraction `hcl-store` relies on to serve mmap'd files.
    let g = testkit::barabasi_albert(50, 2, 5);
    let idx = build_top_k(&g, 8);
    let (gv, iv) = (g.as_view(), idx.as_view());
    let mut ctx = QueryContext::new();
    for u in 0..50 {
        for v in 0..50 {
            assert_eq!(
                iv.query_with(gv, &mut ctx, u, v),
                idx.as_view().query_with(&g, &mut ctx, u, v),
                "view/owned disagreement at ({u}, {v})"
            );
        }
    }
}

#[test]
fn family_disconnected_returns_none() {
    // Disjoint union guarantees cross-component pairs; the oracle comparison
    // above already checks them, but assert explicitly that `None` shows up.
    let g = testkit::disjoint_union(&testkit::grid(3, 3), &testkit::cycle(5));
    let (idx, mut ctx) = (build_top_k(&g, 4), QueryContext::new());
    assert_eq!(idx.as_view().query_with(&g, &mut ctx, 0, 9), None);
    assert_eq!(idx.as_view().query_with(&g, &mut ctx, 8, 13), None);
    assert_matches_oracle("grid ⊎ cycle", &g, KS);

    // Sparse ER graphs are naturally fragmented: make sure at least one
    // generated instance actually exercises the unreachable path.
    let g = testkit::erdos_renyi(40, 0.02, 1);
    let oracle = bfs::distances_from(&g, 0);
    assert!(
        oracle.contains(&INFINITY),
        "test graph unexpectedly connected; pick a sparser p or another seed"
    );
    assert_matches_oracle("sparse er", &g, KS);
}

#[test]
fn family_with_isolated_vertices() {
    let mut b = hcl_core::GraphBuilder::new();
    b.add_edge(0, 1).add_edge(1, 2).reserve_vertices(6);
    let g = b.build();
    assert_matches_oracle("path+isolated", &g, &[0, 2, 6]);
}

#[test]
fn query_context_reuse_is_clean() {
    // Reusing one context across many queries must not leak state between
    // them; interleave reachable and unreachable pairs.
    let g = testkit::disjoint_union(&testkit::path(10), &testkit::star(6));
    let idx = build_top_k(&g, 3);
    let mut ctx = QueryContext::new();
    for _ in 0..3 {
        assert_eq!(idx.as_view().query_with(&g, &mut ctx, 0, 9), Some(9));
        assert_eq!(idx.as_view().query_with(&g, &mut ctx, 0, 10), None);
        assert_eq!(idx.as_view().query_with(&g, &mut ctx, 11, 12), Some(2));
        assert_eq!(idx.as_view().query_with(&g, &mut ctx, 5, 5), Some(0));
    }
}

#[test]
fn landmark_endpoints_answer_exactly() {
    let g = testkit::grid(4, 4);
    let idx = build_top_k(&g, 3);
    let (view, mut ctx) = (idx.as_view(), QueryContext::new());
    let landmark = (0..16).find(|&v| view.is_landmark(v)).unwrap();
    for v in 0..16 {
        let expected = bfs::distance(&g, landmark, v);
        assert_eq!(view.query_with(&g, &mut ctx, landmark, v), expected);
        assert_eq!(view.query_with(&g, &mut ctx, v, landmark), expected);
    }
}
