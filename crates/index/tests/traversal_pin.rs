//! Pins the query engine's *work*, not only its answers: summed
//! [`QueryStats`] over a seeded sample of pairs on three generations — a
//! BA graph, a grid with chords, and a live-patched generation. A change
//! to the residual search's data layout must leave every total here
//! unchanged; that shows it runs the same search (same levels, same side
//! choices, same exits), not merely one that answers alike.

use hcl_core::testkit::{self, SplitMix64};
use hcl_core::{EdgeDelta, Graph, GraphBuilder, GraphView, PatchedGraph, VertexId};
use hcl_index::{
    AnswerSource, BuildContext, HighwayCoverIndex, IndexConfig, IndexView, PatchedIndex,
    QueryContext, QueryStats,
};

const PAIRS: usize = 300;

/// [`QueryStats`] summed over a sample, with the answers counted per
/// [`AnswerSource`].
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    bfs_nodes_expanded: u64,
    bfs_edges_scanned: u64,
    bfs_frontier_peak: u64,
    hub_entries_scanned: u64,
    /// `[trivial, disconnected, label hit, highway, residual BFS]`.
    sources: [u64; 5],
}

fn totals(index: IndexView<'_>, graph: GraphView<'_>, seed: u64) -> Totals {
    let n = graph.num_vertices() as u64;
    let mut rng = SplitMix64::new(seed);
    let mut ctx = QueryContext::new();
    let mut stats = QueryStats::new();
    let mut t = Totals::default();
    for _ in 0..PAIRS {
        let u = rng.next_below(n) as VertexId;
        let v = rng.next_below(n) as VertexId;
        index.query_probed(graph, &mut ctx, u, v, &mut stats);
        t.bfs_nodes_expanded += stats.bfs_nodes_expanded;
        t.bfs_edges_scanned += stats.bfs_edges_scanned;
        t.bfs_frontier_peak += stats.bfs_frontier_peak;
        t.hub_entries_scanned += stats.hub_entries_scanned;
        t.sources[match stats.source {
            AnswerSource::Trivial => 0,
            AnswerSource::Disconnected => 1,
            AnswerSource::LabelHit => 2,
            AnswerSource::HighwayBound => 3,
            AnswerSource::ResidualBfs => 4,
        }] += 1;
    }
    t
}

/// A `rows × cols` grid plus `chords` seeded random edges.
fn grid_with_chords(rows: usize, cols: usize, chords: usize, seed: u64) -> Graph {
    let grid = testkit::grid(rows, cols);
    let n = grid.num_vertices() as u64;
    let mut b = GraphBuilder::new();
    b.reserve_vertices(grid.num_vertices());
    for u in 0..n as VertexId {
        for &w in grid.neighbors(u) {
            if u < w {
                b.add_edge(u, w);
            }
        }
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..chords {
        let u = rng.next_below(n) as VertexId;
        let v = rng.next_below(n) as VertexId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[test]
fn barabasi_albert_traversal_is_pinned() {
    let g = testkit::barabasi_albert(2000, 5, 0x5EED);
    let index = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 16 });
    let got = totals(index.as_view(), g.as_view(), 0xA11CE);
    assert_eq!(
        got,
        Totals {
            bfs_nodes_expanded: 1157,
            bfs_edges_scanned: 15866,
            bfs_frontier_peak: 940,
            hub_entries_scanned: 2656,
            sources: [0, 0, 173, 59, 68],
        }
    );
}

#[test]
fn grid_with_chords_traversal_is_pinned() {
    let g = grid_with_chords(40, 40, 32, 0xC40D);
    let index = HighwayCoverIndex::build(&g, IndexConfig { num_landmarks: 8 });
    let got = totals(index.as_view(), g.as_view(), 0xB0B);
    assert_eq!(
        got,
        Totals {
            bfs_nodes_expanded: 45404,
            bfs_edges_scanned: 180215,
            bfs_frontier_peak: 7923,
            hub_entries_scanned: 2470,
            sources: [0, 0, 54, 25, 221],
        }
    );
}

#[test]
fn patched_generation_traversal_is_pinned() {
    let base = testkit::barabasi_albert(2000, 5, 0x5EED);
    let index = HighwayCoverIndex::build(&base, IndexConfig { num_landmarks: 16 });
    let mut dynamic = PatchedIndex::from_view(index.as_view());
    let mut graph = PatchedGraph::new(base.as_view());
    let mut cx = BuildContext::new();
    let mut rng = SplitMix64::new(0x1A5E);
    let mut applied = 0;
    while applied < 6 {
        let u = rng.next_below(2000) as VertexId;
        let v = rng.next_below(2000) as VertexId;
        if u != v && !graph.has_edge(u, v) {
            let delta = EdgeDelta::insert(u, v);
            dynamic
                .apply_and_repair(&mut graph, delta, &mut cx)
                .unwrap();
            applied += 1;
        }
    }
    // Served the way the update engine publishes: the overlays cloned
    // beside the shared bases.
    let (frozen_graph, frozen_index) = (graph.clone(), dynamic.clone());
    let (gv, iv) = (frozen_graph.as_view(), frozen_index.as_view());
    assert!(gv.is_patched() && iv.is_patched());
    let got = totals(iv, gv, 0xD1CE);
    assert_eq!(
        got,
        Totals {
            bfs_nodes_expanded: 1137,
            bfs_edges_scanned: 14806,
            bfs_frontier_peak: 870,
            hub_entries_scanned: 2628,
            sources: [0, 0, 179, 53, 68],
        }
    );
}
