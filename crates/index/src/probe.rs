//! Query observation: the [`Probe`] trait and the [`QueryStats`] collector.
//!
//! The query engine is generic over a probe so instrumentation is a
//! *compile-time* choice per call site, not a runtime branch on the hot
//! path. Every hook has an empty `#[inline]` default; the un-instrumented
//! entry points monomorphise with [`hcl_core::NoProbe`] and compile to the
//! same machine code as a probe-free engine (the `probe_overhead` bench
//! pins this at ≤ 2 % mean latency against an in-binary pre-probe
//! baseline). Hooks are placed so that even a *live* probe only pays for
//! work the engine already did: counts are derived from loop variables the
//! merge maintains anyway, and per-node hooks sit on paths that touch the
//! node regardless.
//!
//! [`QueryStats`] is the standard collector: it classifies which mechanism
//! produced the answer (label merge, highway routing, or the residual BFS)
//! and records how much work each phase did. The CLI's `query --explain`,
//! the slow-query log, and the `/metrics` per-mechanism counters are all
//! rendered from it.

use hcl_core::BfsProbe;

/// Observation hooks for the query engine, extending the BFS-shaped hooks
/// of [`hcl_core::BfsProbe`] with label-phase events.
///
/// All hooks default to inline no-ops, so `P = NoProbe` costs nothing.
/// A probe is per-thread mutable state; the engine never shares one.
pub trait Probe: BfsProbe {
    /// A new query is starting; collectors should reset themselves.
    #[inline]
    fn query_start(&mut self) {}

    /// The common-hub merge finished. `galloped` says which merge ran,
    /// `entries_scanned` how many label entries it examined (0 when one
    /// label was empty and no merge ran), `bound` the resulting distance
    /// upper bound (`u64::MAX` when no common hub certified anything).
    #[inline]
    fn merge_done(&mut self, galloped: bool, entries_scanned: usize, bound: u64) {
        let _ = (galloped, entries_scanned, bound);
    }

    /// The highway cross-product tightened the label bound to `bound`.
    #[inline]
    fn highway_improved(&mut self, bound: u64) {
        let _ = bound;
    }

    /// The query finished. `trivial` is the `u == v` fast path;
    /// `label_bound` is the phase-1 bound after the highway pass and
    /// `best` the final answer (`u64::MAX` = disconnected).
    #[inline]
    fn query_done(&mut self, trivial: bool, label_bound: u64, best: u64) {
        let _ = (trivial, label_bound, best);
    }
}

/// The zero-cost probe: inherits every no-op default.
impl Probe for hcl_core::NoProbe {}

/// Which mechanism produced the final answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// `u == v`; answered without touching the index.
    Trivial,
    /// No mechanism found a path; the endpoints are disconnected.
    Disconnected,
    /// The common-hub label merge alone was exact.
    LabelHit,
    /// Routing between distinct hubs over the highway matrix tightened
    /// the merge bound to the final answer.
    HighwayBound,
    /// The landmark-avoiding residual BFS beat the label bound.
    ResidualBfs,
}

impl AnswerSource {
    /// Stable lower-case token used by `--explain`, the slow-query log,
    /// and the `/metrics` counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            AnswerSource::Trivial => "trivial",
            AnswerSource::Disconnected => "disconnected",
            AnswerSource::LabelHit => "label-hit",
            AnswerSource::HighwayBound => "highway",
            AnswerSource::ResidualBfs => "residual-bfs",
        }
    }
}

/// Which common-hub merge the label phase used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeKind {
    /// No merge ran (an endpoint had an empty label).
    None,
    /// Two-pointer linear merge.
    Linear,
    /// Galloping merge (labels were ≥ 8× skewed).
    Galloping,
}

impl MergeKind {
    /// Stable lower-case token used by `--explain` and the slow-query log.
    pub fn as_str(self) -> &'static str {
        match self {
            MergeKind::None => "none",
            MergeKind::Linear => "linear",
            MergeKind::Galloping => "gallop",
        }
    }
}

/// Per-query work breakdown, collected by passing `&mut QueryStats` to
/// [`IndexView::query_probed`](crate::IndexView::query_probed).
///
/// One collector can be reused across queries — it resets itself on the
/// engine's `query_start` hook, so after each query it describes exactly
/// that query.
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// Which mechanism produced the final answer.
    pub source: AnswerSource,
    /// Which common-hub merge ran.
    pub merge: MergeKind,
    /// Label entries examined by the common-hub merge.
    pub hub_entries_scanned: u64,
    /// How many times the highway cross-product tightened the bound.
    pub highway_improvements: u64,
    /// Vertices expanded by the residual BFS (frontier pops).
    pub bfs_nodes_expanded: u64,
    /// Widest frontier the residual BFS expanded.
    pub bfs_frontier_peak: u64,
    /// Edges the residual BFS scanned: the degrees of the vertices it
    /// expanded, summed. Kernel time is close to linear in this.
    pub bfs_edges_scanned: u64,
    /// Phase-1 bound from the merge alone (`u64::MAX` = none).
    pub merge_bound: u64,
    /// Phase-1 bound after the highway pass (`u64::MAX` = none).
    pub label_bound: u64,
}

impl QueryStats {
    /// A fresh collector (equivalent to the post-`query_start` state).
    pub fn new() -> Self {
        QueryStats {
            source: AnswerSource::Trivial,
            merge: MergeKind::None,
            hub_entries_scanned: 0,
            highway_improvements: 0,
            bfs_nodes_expanded: 0,
            bfs_frontier_peak: 0,
            bfs_edges_scanned: 0,
            merge_bound: u64::MAX,
            label_bound: u64::MAX,
        }
    }
}

impl Default for QueryStats {
    fn default() -> Self {
        Self::new()
    }
}

impl BfsProbe for QueryStats {
    #[inline]
    fn bfs_node_expanded(&mut self) {
        self.bfs_nodes_expanded += 1;
    }

    #[inline]
    fn bfs_edges_scanned(&mut self, edges: usize) {
        self.bfs_edges_scanned += edges as u64;
    }

    #[inline]
    fn bfs_level(&mut self, frontier_len: usize) {
        self.bfs_frontier_peak = self.bfs_frontier_peak.max(frontier_len as u64);
    }
}

impl Probe for QueryStats {
    #[inline]
    fn query_start(&mut self) {
        *self = QueryStats::new();
    }

    #[inline]
    fn merge_done(&mut self, galloped: bool, entries_scanned: usize, bound: u64) {
        self.merge = if entries_scanned == 0 {
            MergeKind::None
        } else if galloped {
            MergeKind::Galloping
        } else {
            MergeKind::Linear
        };
        self.hub_entries_scanned = entries_scanned as u64;
        self.merge_bound = bound;
        self.label_bound = bound;
    }

    #[inline]
    fn highway_improved(&mut self, bound: u64) {
        self.highway_improvements += 1;
        self.label_bound = bound;
    }

    #[inline]
    fn query_done(&mut self, trivial: bool, label_bound: u64, best: u64) {
        self.label_bound = label_bound;
        self.source = if trivial {
            AnswerSource::Trivial
        } else if best == u64::MAX {
            AnswerSource::Disconnected
        } else if best < label_bound {
            AnswerSource::ResidualBfs
        } else if label_bound < self.merge_bound {
            AnswerSource::HighwayBound
        } else {
            AnswerSource::LabelHit
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_classifies_each_mechanism() {
        let mut s = QueryStats::new();

        // Trivial.
        s.query_start();
        s.query_done(true, u64::MAX, 0);
        assert_eq!(s.source, AnswerSource::Trivial);

        // Label hit: merge bound survives as the answer.
        s.query_start();
        s.merge_done(false, 6, 4);
        s.query_done(false, 4, 4);
        assert_eq!(s.source, AnswerSource::LabelHit);
        assert_eq!(s.merge, MergeKind::Linear);
        assert_eq!(s.hub_entries_scanned, 6);

        // Highway: the cross-product tightened the merge bound.
        s.query_start();
        s.merge_done(true, 3, 9);
        s.highway_improved(5);
        s.query_done(false, 5, 5);
        assert_eq!(s.source, AnswerSource::HighwayBound);
        assert_eq!(s.merge, MergeKind::Galloping);
        assert_eq!(s.highway_improvements, 1);

        // Residual BFS beat the label bound.
        s.query_start();
        s.merge_done(false, 2, 7);
        s.bfs_level(3);
        s.bfs_node_expanded();
        s.bfs_edges_scanned(4);
        s.bfs_node_expanded();
        s.bfs_edges_scanned(1);
        s.query_done(false, 7, 3);
        assert_eq!(s.source, AnswerSource::ResidualBfs);
        assert_eq!(s.bfs_nodes_expanded, 2);
        assert_eq!(s.bfs_edges_scanned, 5);
        assert_eq!(s.bfs_frontier_peak, 3);

        // Disconnected; also checks reset between queries.
        s.query_start();
        s.merge_done(false, 0, u64::MAX);
        s.query_done(false, u64::MAX, u64::MAX);
        assert_eq!(s.source, AnswerSource::Disconnected);
        assert_eq!(s.merge, MergeKind::None);
        assert_eq!(s.bfs_nodes_expanded, 0);
        assert_eq!(s.bfs_edges_scanned, 0);
    }

    #[test]
    fn tokens_are_stable() {
        assert_eq!(AnswerSource::LabelHit.as_str(), "label-hit");
        assert_eq!(AnswerSource::HighwayBound.as_str(), "highway");
        assert_eq!(AnswerSource::ResidualBfs.as_str(), "residual-bfs");
        assert_eq!(AnswerSource::Trivial.as_str(), "trivial");
        assert_eq!(AnswerSource::Disconnected.as_str(), "disconnected");
        assert_eq!(MergeKind::Galloping.as_str(), "gallop");
        assert_eq!(MergeKind::Linear.as_str(), "linear");
        assert_eq!(MergeKind::None.as_str(), "none");
    }
}
