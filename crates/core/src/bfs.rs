//! Breadth-first-search distance oracles.
//!
//! These are deliberately simple and obviously correct: they serve as the
//! ground truth that the hub-labelling index is property-tested against, and
//! as the fallback search primitive inside the query engine.
//!
//! Both oracles read their rows through [`Rows`] — an owned `&Graph`, or a
//! borrowed [`GraphView`](crate::GraphView) over a memory-mapped store or
//! under a [`PatchedGraph`](crate::PatchedGraph)'s edits — so verification
//! works identically on every backing, frozen or dynamic.

use crate::graph::{Rows, VertexId, INFINITY};
use std::collections::VecDeque;

/// Observation hooks for BFS-shaped traversals.
///
/// Every hook is an empty `#[inline]` default, so a search generic over
/// `P: BfsProbe` monomorphised with [`NoProbe`] compiles to exactly the
/// un-instrumented loop — instrumentation is opt-in per *call site*, not a
/// runtime branch on the hot path. `hcl-index` extends this trait with
/// label-merge hooks for its query engine; the traversal-shaped hooks live
/// here because the searches they observe (full oracles, the residual BFS,
/// the pruned landmark BFS) are all built from this crate's primitives.
pub trait BfsProbe {
    /// Called once per vertex expanded (taken off the frontier or pushed
    /// onto the next one, depending on the traversal's shape).
    #[inline]
    fn bfs_node_expanded(&mut self) {}

    /// Called once per expanded vertex, beside
    /// [`bfs_node_expanded`](Self::bfs_node_expanded), with the length of
    /// the adjacency list the traversal is about to scan. A search that
    /// stops mid-list still reports the whole list, so the sum is the
    /// scanned-edge count rounded up to whole vertices.
    #[inline]
    fn bfs_edges_scanned(&mut self, edges: usize) {
        let _ = edges;
    }

    /// Called as each level starts with the size of the frontier about to
    /// be *expanded*, so an implementation can track the widest frontier
    /// the search actually worked through (a frontier that is built but
    /// never expanded, or never built at all, is not reported).
    #[inline]
    fn bfs_level(&mut self, frontier_len: usize) {
        let _ = frontier_len;
    }
}

/// The do-nothing probe: the zero-cost default for un-instrumented runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl BfsProbe for NoProbe {}

/// Reusable BFS scratch space: one distance array, one FIFO queue, and the
/// touched-list used to reset the distance array in `O(visited)` instead of
/// `O(n)`.
///
/// This is the allocation-free building block for callers that run many
/// searches back to back — the batch verifier in the CLI, and every worker
/// of the parallel index builder (via `hcl-index`'s `BuildContext`). The
/// fields are public so specialised traversals (e.g. the pruned landmark
/// BFS) can drive the loop themselves while reusing the buffers; the only
/// invariant to uphold is the one [`reset`](BfsScratch::reset) restores:
/// **every vertex whose `dist` entry is not [`INFINITY`] must be on
/// `touched`**.
#[derive(Default)]
pub struct BfsScratch {
    /// Per-vertex distances; [`INFINITY`] everywhere between searches.
    pub dist: Vec<u32>,
    /// FIFO frontier queue; empty between searches.
    pub queue: VecDeque<VertexId>,
    /// Vertices whose `dist` entry was written by the current search.
    pub touched: Vec<VertexId>,
}

impl BfsScratch {
    /// Creates an empty scratch; buffers grow lazily to the graph size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the distance array to at least `n` entries (all [`INFINITY`]).
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
        }
    }

    /// Restores the between-searches invariant: resets every touched
    /// distance back to [`INFINITY`] and clears the queue and touched-list.
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.queue.clear();
    }
}

/// Distances from `src` to every vertex, with [`INFINITY`] for vertices in
/// other connected components.
///
/// # Panics
/// Panics if `src` is out of range.
pub fn distances_from<'a>(graph: impl Rows<'a, VertexId>, src: VertexId) -> Vec<u32> {
    let mut scratch = BfsScratch::new();
    distances_from_with(graph, src, &mut scratch);
    scratch.dist
}

/// Runs a full BFS from `src`, leaving per-vertex distances in
/// `scratch.dist` and the visited set in `scratch.touched`.
///
/// The allocation-free form of [`distances_from`]: the caller owns the
/// scratch and reads the results out of it, then the next search reuses the
/// same buffers. `scratch` is [`reset`](BfsScratch::reset) on entry, so the
/// results stay readable until the next call.
///
/// # Panics
/// Panics if `src` is out of range.
pub fn distances_from_with<'a>(
    graph: impl Rows<'a, VertexId>,
    src: VertexId,
    scratch: &mut BfsScratch,
) {
    distances_from_probed(graph, src, scratch, &mut NoProbe);
}

/// [`distances_from_with`] with observation hooks: `probe` sees every
/// expanded vertex. Monomorphised with [`NoProbe`] this is byte-for-byte
/// the plain search.
///
/// # Panics
/// Panics if `src` is out of range.
pub fn distances_from_probed<'a, P: BfsProbe>(
    graph: impl Rows<'a, VertexId>,
    src: VertexId,
    scratch: &mut BfsScratch,
    probe: &mut P,
) {
    scratch.reset();
    scratch.ensure_capacity(graph.num_rows());
    scratch.dist[src as usize] = 0;
    scratch.touched.push(src);
    scratch.queue.push_back(src);
    while let Some(u) = scratch.queue.pop_front() {
        probe.bfs_node_expanded();
        let du = scratch.dist[u as usize];
        for &w in graph.row(u) {
            if scratch.dist[w as usize] == INFINITY {
                scratch.dist[w as usize] = du + 1;
                scratch.touched.push(w);
                scratch.queue.push_back(w);
            }
        }
    }
}

/// Exact distance between `u` and `v`, or `None` if they are disconnected.
///
/// Early-exits as soon as `v` is settled, so point-to-point queries do not
/// pay for the whole component.
///
/// # Panics
/// Panics if `u` or `v` is out of range.
pub fn distance<'a>(graph: impl Rows<'a, VertexId>, u: VertexId, v: VertexId) -> Option<u32> {
    distance_with(graph, u, v, &mut BfsScratch::new())
}

/// Exact distance between `u` and `v` reusing caller-owned scratch — the
/// batch form of [`distance`], e.g. for verifying many answers in a row.
///
/// # Panics
/// Panics if `u` or `v` is out of range.
pub fn distance_with<'a>(
    graph: impl Rows<'a, VertexId>,
    u: VertexId,
    v: VertexId,
    scratch: &mut BfsScratch,
) -> Option<u32> {
    assert!((v as usize) < graph.num_rows(), "vertex out of range");
    if u == v {
        return Some(0);
    }
    scratch.reset();
    scratch.ensure_capacity(graph.num_rows());
    scratch.dist[u as usize] = 0;
    scratch.touched.push(u);
    scratch.queue.push_back(u);
    while let Some(x) = scratch.queue.pop_front() {
        let dx = scratch.dist[x as usize];
        for &w in graph.row(x) {
            if scratch.dist[w as usize] == INFINITY {
                if w == v {
                    // Leave the partial search on the touched-list; the next
                    // call's reset() cleans it up.
                    scratch.touched.push(w);
                    scratch.dist[w as usize] = dx + 1;
                    return Some(dx + 1);
                }
                scratch.dist[w as usize] = dx + 1;
                scratch.touched.push(w);
                scratch.queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn distances_on_a_path() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(distances_from(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(distance(&g, 0, 3), Some(3));
        assert_eq!(distance(&g, 3, 0), Some(3));
        assert_eq!(distance(&g, 2, 2), Some(0));
    }

    #[test]
    fn disconnected_components_are_unreachable() {
        let mut b = crate::GraphBuilder::new();
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build();
        assert_eq!(distance(&g, 0, 3), None);
        assert_eq!(distances_from(&g, 0), vec![0, 1, INFINITY, INFINITY]);
    }

    #[test]
    fn scratch_reuse_is_clean_across_searches() {
        let mut b = crate::GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 2).add_edge(3, 4);
        let g = b.build();
        let mut scratch = BfsScratch::new();
        for _ in 0..3 {
            assert_eq!(distance_with(&g, 0, 2, &mut scratch), Some(2));
            assert_eq!(distance_with(&g, 0, 4, &mut scratch), None);
            distances_from_with(&g, 3, &mut scratch);
            assert_eq!(scratch.dist[4], 1);
            assert_eq!(scratch.dist[0], INFINITY);
            assert_eq!(scratch.touched.len(), 2);
        }
    }

    #[test]
    fn probed_search_counts_every_expansion() {
        struct Counting {
            expanded: u64,
        }
        impl BfsProbe for Counting {
            fn bfs_node_expanded(&mut self) {
                self.expanded += 1;
            }
        }
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let mut scratch = BfsScratch::new();
        let mut probe = Counting { expanded: 0 };
        distances_from_probed(&g, 0, &mut scratch, &mut probe);
        // The whole 4-vertex component is expanded; the other stays cold.
        assert_eq!(probe.expanded, 4);
        assert_eq!(scratch.dist[3], 3);
        assert_eq!(scratch.dist[4], INFINITY);
    }

    #[test]
    fn views_answer_like_owned_graphs() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let view = g.as_view();
        assert_eq!(distance(view, 0, 4), Some(4));
        assert_eq!(distances_from(view, 1), distances_from(&g, 1));
    }
}
