//! Incremental label repair under edge insertions and deletions.
//!
//! A built [`HighwayCoverIndex`](crate::HighwayCoverIndex) is frozen — its
//! labels are CSR-flattened and its highway closed. This module keeps an
//! *editable* twin, [`DynamicIndex`], that answers the same queries but can
//! be repaired in place after an edge edit instead of rebuilt from scratch.
//!
//! The repair contract is **answer identity, not byte identity**: after any
//! sequence of edits, queries against the repaired index return exactly the
//! distances a fresh rebuild on the edited graph would return. The repaired
//! label *bytes* may differ (pruning decisions depend on history), which is
//! fine — the property suite checks answers against the BFS oracle and a
//! fresh rebuild after every step of seeded edit scripts.
//!
//! # How repair works
//!
//! The landmark set is kept fixed across edits (re-selection would force a
//! full rebuild for no answer-quality gain; the landmarks stay exactly the
//! vertices the original build chose). Each edit is processed as:
//!
//! 1. **Affected-tree detection** on the *pre-edit* state: `d(i, u)` and
//!    `d(i, v)` for every landmark `i` are read off the endpoints' labels
//!    and the highway ([`DynamicIndex::landmark_distances`], the paper's
//!    detection step — `O(|L|·k)` per endpoint, no graph search). For an
//!    **insertion**, landmark
//!    `i`'s distance function can only change if `|d(i,u) − d(i,v)| ≥ 2`
//!    (a new strictly-shorter path must route through the new edge). For a
//!    **deletion**, it can only change if `|d(i,u) − d(i,v)| == 1` (the
//!    edge lies on a shortest path from `i` exactly when the endpoint
//!    depths differ; equal depths mean no shortest path from `i` crosses
//!    it).
//! 2. **Exact highway patch**: each affected row is recomputed by a full
//!    (unpruned) BFS from that landmark on the post-edit graph, then
//!    mirrored to keep the matrix symmetric. Unaffected rows are untouched
//!    — their distance functions did not change. The highway therefore
//!    stays *exact* at all times (the build's Floyd–Warshall closure is
//!    never needed again).
//! 3. **Tree relabel**: stale per-landmark label trees are stripped and
//!    regrown with the same pruned BFS discipline as the builder (landmark
//!    stop + domination pruning against strictly lower-rank entries, in
//!    rank order), reusing [`BuildContext`]'s scratch buffers.
//!
//! The relabel scope differs by edit kind, and the asymmetry is load
//! bearing. An **insertion** only shrinks distances, so repairing just the
//! affected trees preserves the cover property: an unaffected landmark's
//! coverage can only improve when the entries it routes through get
//! tighter. A **deletion** grows distances, which can silently break the
//! coverage of *unaffected* landmarks whose cover routed through an
//! affected hub — so a deletion with a non-empty affected set strips every
//! label and regrows all trees (still cheaper than a rebuild: selection is
//! skipped and unaffected highway rows are reused). A deletion whose
//! affected set is empty is free: no label touches at all.

use crate::build::{sat_add, BuildContext, HighwayCoverIndex, NOT_A_LANDMARK};
use crate::view::IndexView;
use hcl_core::bfs::distances_from_with;
use hcl_core::{DeltaError, DeltaGraph, DeltaOp, DynGraphView, EdgeDelta, VertexId, INFINITY};

/// What one [`DynamicIndex::apply_and_repair`] call did, for logging,
/// metrics, and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Whether the delta changed the graph at all (inserting an existing
    /// edge or deleting a missing one is a no-op and costs nothing beyond
    /// the membership probe).
    pub applied: bool,
    /// Number of landmark trees whose distance function was (possibly)
    /// affected by the edit.
    pub affected_landmarks: usize,
    /// Whether the repair fell back to regrowing every tree (deletions
    /// with a non-empty affected set; see the module docs for why).
    pub full_relabel: bool,
}

/// An editable highway-cover index: same landmarks, labels, and highway as
/// the frozen form, but with per-vertex label vectors that can be stripped
/// and regrown in place.
///
/// Convert a built index in with [`DynamicIndex::from_view`], apply edits
/// with [`DynamicIndex::apply_and_repair`], and flatten back out with
/// [`DynamicIndex::to_index`] whenever a frozen snapshot is needed (for
/// serving or serialisation). The conversion round-trip is lossless.
pub struct DynamicIndex {
    /// Landmark vertices in rank order (frozen across edits).
    landmarks: Vec<VertexId>,
    /// Inverse of `landmarks`: `NOT_A_LANDMARK` for ordinary vertices.
    landmark_rank: Vec<u32>,
    /// Per-vertex `(rank, distance)` labels, kept rank-sorted so the
    /// flattened form is hub-sorted without a final sort pass.
    labels: Vec<Vec<(u32, u32)>>,
    /// Row-major exact `k × k` landmark-to-landmark distances.
    highway: Vec<u32>,
}

impl DynamicIndex {
    /// Unpacks a frozen index (owned or mapped) into editable form.
    pub fn from_view(view: IndexView<'_>) -> Self {
        let n = view.num_vertices();
        let mut labels = Vec::with_capacity(n);
        for v in 0..n {
            labels.push(view.label(v as VertexId).collect());
        }
        Self {
            landmarks: view.landmarks().to_vec(),
            landmark_rank: view.landmark_rank().to_vec(),
            labels,
            highway: view.highway().to_vec(),
        }
    }

    /// Number of landmarks (fixed across edits).
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of vertices the index covers (fixed across edits — the delta
    /// layer does not add vertices).
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Total number of label entries currently held.
    pub fn num_label_entries(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// `d(landmark_i, v)` for every landmark rank `i`, read from `v`'s
    /// label and the highway: `min over (j, δ) ∈ L(v) of highway[i][j] + δ`
    /// (`INFINITY` when no labelled hub reaches landmark `i`). Exact by the
    /// highway-cover property — some hub of `v` lies on a shortest path to
    /// every landmark `v` can reach; a landmark's own label is its self
    /// entry, so its row is the highway row. `O(|L(v)|·k)`.
    ///
    /// # Panics
    /// Panics if `v` is not a vertex of the index.
    pub fn landmark_distances(&self, v: VertexId) -> Vec<u32> {
        let k = self.landmarks.len();
        let mut out = vec![INFINITY; k];
        for &(hub, d) in &self.labels[v as usize] {
            // The highway is symmetric: row `hub` read across is column
            // `hub` read down.
            let row = &self.highway[hub as usize * k..(hub as usize + 1) * k];
            for (best, &h) in out.iter_mut().zip(row) {
                *best = (*best).min(sat_add(h, d));
            }
        }
        out
    }

    /// Flattens back into the frozen, query-servable form.
    pub fn to_index(&self) -> HighwayCoverIndex {
        let n = self.labels.len();
        let mut label_offsets = Vec::with_capacity(n.saturating_add(1));
        label_offsets.push(0u64);
        let total = self.num_label_entries();
        let mut label_entries = Vec::with_capacity(total);
        for per_vertex in &self.labels {
            for &(hub, d) in per_vertex {
                label_entries.push(crate::view::pack_label_entry(hub, d));
            }
            label_offsets.push(label_entries.len() as u64);
        }
        HighwayCoverIndex {
            landmarks: self.landmarks.clone(),
            landmark_rank: self.landmark_rank.clone(),
            label_offsets,
            label_entries,
            highway: self.highway.clone(),
        }
    }

    /// Applies one edge delta to `graph` and repairs the index so it
    /// answers exactly for the edited graph.
    ///
    /// The delta is validated (range, self-loop) before anything is
    /// touched; on error neither the graph nor the index changes. An
    /// ineffective delta (inserting a present edge, deleting an absent
    /// one) leaves both untouched and reports `applied: false`.
    ///
    /// # Panics
    /// Panics if `graph` does not have the vertex count this index was
    /// built for — the overlay never adds vertices, so a mismatch means
    /// the caller paired the wrong graph with the wrong index.
    pub fn apply_and_repair(
        &mut self,
        graph: &mut DeltaGraph<'_>,
        delta: EdgeDelta,
        cx: &mut BuildContext,
    ) -> Result<RepairOutcome, DeltaError> {
        let n = self.num_vertices();
        let k = self.num_landmarks();
        assert_eq!(graph.num_vertices(), n, "graph/index vertex count mismatch");
        // Probe validity first so detection work is never wasted on a
        // delta that will not apply.
        delta.validate(n)?;
        let effective = match delta.op {
            DeltaOp::Insert => !graph.has_edge(delta.u, delta.v),
            DeltaOp::Delete => graph.has_edge(delta.u, delta.v),
        };
        if !effective {
            return Ok(RepairOutcome::default());
        }

        // Step 1: landmark distances of both endpoints, read from the
        // *pre-edit* labels — the affected-tree tests below are stated in
        // terms of old distances.
        let d_landmarks_u = self.landmark_distances(delta.u);
        let d_landmarks_v = self.landmark_distances(delta.v);

        let applied = graph.apply(delta)?;
        debug_assert!(applied, "membership probe and apply disagreed");

        let affected: Vec<usize> = (0..k)
            .filter(|&i| {
                let (a, b) = (d_landmarks_u[i], d_landmarks_v[i]);
                match delta.op {
                    // A new edge only creates shorter paths from landmark i
                    // if hopping it beats the old detour; both endpoints
                    // unreachable stay unreachable (the new edge cannot be
                    // reached from i at all).
                    DeltaOp::Insert => {
                        if a == INFINITY || b == INFINITY {
                            a != b
                        } else {
                            a.abs_diff(b) >= 2
                        }
                    }
                    // A removed edge lies on a shortest path from i exactly
                    // when the endpoint depths differ (by 1, since the edge
                    // existed; equal depths mean no shortest path from i
                    // crosses it, so i's distances cannot change).
                    DeltaOp::Delete => a != b,
                }
            })
            .collect();

        if affected.is_empty() {
            return Ok(RepairOutcome {
                applied: true,
                affected_landmarks: 0,
                full_relabel: false,
            });
        }

        // Step 2: recompute affected highway rows exactly on the post-edit
        // graph, mirroring writes to preserve symmetry. Unaffected rows
        // are already exact — their landmarks' distances did not change.
        let view = graph.as_dyn_view();
        for &i in &affected {
            distances_from_with(view, self.landmarks[i], &mut cx.scratch);
            for j in 0..k {
                let d = cx.scratch.dist[self.landmarks[j] as usize];
                self.highway[i * k + j] = d;
                self.highway[j * k + i] = d;
            }
        }
        cx.scratch.reset();

        // Step 3: strip and regrow stale trees. Insertions repair only the
        // affected trees; deletions with a non-empty affected set regrow
        // everything (see module docs for the coverage argument).
        let full_relabel = matches!(delta.op, DeltaOp::Delete);
        if full_relabel {
            for per_vertex in &mut self.labels {
                per_vertex.clear();
            }
            for rank in 0..k {
                self.relabel_tree(view, rank, cx);
            }
        } else {
            let mut stale = vec![false; k];
            for &i in &affected {
                stale[i] = true;
            }
            for per_vertex in &mut self.labels {
                per_vertex.retain(|&(rank, _)| !stale[rank as usize]);
            }
            for &rank in &affected {
                self.relabel_tree(view, rank, cx);
            }
        }

        Ok(RepairOutcome {
            applied: true,
            affected_landmarks: affected.len(),
            full_relabel,
        })
    }

    /// Regrows one landmark's label tree with the builder's pruned BFS
    /// discipline: stop at other landmarks (the highway row is already
    /// exact, so no seeds are collected), and skip vertices whose existing
    /// *lower-rank* entries already cover them at least as well.
    ///
    /// Restricting domination to strictly lower ranks mirrors the
    /// builder's strict batch ordering and is what makes regrowth sound:
    /// the classic pruned-labelling induction (a pruned vertex is covered
    /// through a smaller-rank hub, recursively) needs the rank order to
    /// terminate.
    fn relabel_tree(&mut self, graph: DynGraphView<'_>, rank: usize, cx: &mut BuildContext) {
        let k = self.landmarks.len();
        let root = self.landmarks[rank];
        let rank32 = rank as u32;

        cx.scratch.reset();
        cx.scratch.ensure_capacity(graph.num_vertices());
        cx.highway_row.clear();
        cx.highway_row
            .extend_from_slice(&self.highway[rank * k..(rank + 1) * k]);

        insert_sorted(&mut self.labels[root as usize], rank32, 0);
        cx.scratch.dist[root as usize] = 0;
        cx.scratch.touched.push(root);
        cx.scratch.queue.push_back(root);

        while let Some(v) = cx.scratch.queue.pop_front() {
            let d = cx.scratch.dist[v as usize];
            if v != root {
                if self.landmark_rank[v as usize] != NOT_A_LANDMARK {
                    // Another landmark: the exact highway already carries
                    // this distance, and searches never expand through
                    // landmarks.
                    continue;
                }
                let dominated = self.labels[v as usize].iter().any(|&(j, dj)| {
                    if j >= rank32 {
                        return false;
                    }
                    let h = cx.highway_row[j as usize];
                    h != INFINITY && sat_add(h, dj) <= d
                });
                if dominated {
                    continue;
                }
                insert_sorted(&mut self.labels[v as usize], rank32, d);
            }
            for &w in graph.neighbors(v) {
                if cx.scratch.dist[w as usize] == INFINITY {
                    cx.scratch.dist[w as usize] = d + 1;
                    cx.scratch.touched.push(w);
                    cx.scratch.queue.push_back(w);
                }
            }
        }
        cx.scratch.reset();
    }
}

/// Inserts `(rank, d)` into a rank-sorted label vector, replacing any
/// existing entry for the same rank (regrowth after a strip never sees one,
/// but root self-entries of unaffected-then-regrown trees do).
fn insert_sorted(entries: &mut Vec<(u32, u32)>, rank: u32, d: u32) {
    match entries.binary_search_by_key(&rank, |&(r, _)| r) {
        Ok(pos) => entries[pos] = (rank, d),
        Err(pos) => entries.insert(pos, (rank, d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, HighwayCoverIndex, QueryContext};
    use hcl_core::Graph;

    fn assert_answers_match_rebuild(graph: &DeltaGraph<'_>, dynamic: &DynamicIndex, k: usize) {
        let edited = graph.to_graph();
        let rebuilt = HighwayCoverIndex::build_with(
            &edited,
            &BuildOptions {
                num_landmarks: k,
                ..Default::default()
            },
        );
        let repaired = dynamic.to_index();
        let mut cx_a = QueryContext::new();
        let mut cx_b = QueryContext::new();
        let n = edited.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    repaired.as_view().query_with(&edited, &mut cx_a, u, v),
                    rebuilt.as_view().query_with(&edited, &mut cx_b, u, v),
                    "repaired vs rebuilt answer diverged for ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 2,
                ..Default::default()
            },
        );
        let dynamic = DynamicIndex::from_view(built.as_view());
        let back = dynamic.to_index();
        assert_eq!(back.as_view().landmarks(), built.as_view().landmarks());
        assert_eq!(
            back.as_view().label_entries(),
            built.as_view().label_entries()
        );
        assert_eq!(back.as_view().highway(), built.as_view().highway());
    }

    #[test]
    fn ineffective_deltas_touch_nothing() {
        let g = Graph::from_edges(&[(0, 1), (1, 2)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 1,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 1), &mut cx)
            .unwrap();
        assert_eq!(out, RepairOutcome::default());
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::delete(0, 2), &mut cx)
            .unwrap();
        assert_eq!(out, RepairOutcome::default());
        assert!(dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 9), &mut cx)
            .is_err());
    }

    #[test]
    fn insert_shortcut_repairs_affected_trees() {
        // A long path: inserting a chord changes many distances.
        let g = Graph::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 3,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 6), &mut cx)
            .unwrap();
        assert!(out.applied && out.affected_landmarks > 0 && !out.full_relabel);
        assert_answers_match_rebuild(&graph, &dynamic, 3);
    }

    #[test]
    fn delete_bridge_disconnects_and_repairs() {
        // Two triangles joined by a bridge; deleting the bridge splits the
        // graph and must leave cross-component answers at None.
        let g = Graph::from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 2,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::delete(2, 3), &mut cx)
            .unwrap();
        assert!(out.applied);
        assert_answers_match_rebuild(&graph, &dynamic, 2);
    }

    #[test]
    fn mixed_script_stays_exact_on_a_grid() {
        let g = hcl_core::testkit::grid(4, 4);
        let built = HighwayCoverIndex::build_with(
            &g,
            &BuildOptions {
                num_landmarks: 4,
                ..Default::default()
            },
        );
        let mut dynamic = DynamicIndex::from_view(built.as_view());
        let mut graph = DeltaGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let script = [
            EdgeDelta::insert(0, 15),
            EdgeDelta::delete(5, 6),
            EdgeDelta::insert(3, 12),
            EdgeDelta::delete(0, 1),
            EdgeDelta::delete(0, 15),
        ];
        for delta in script {
            dynamic
                .apply_and_repair(&mut graph, delta, &mut cx)
                .unwrap();
            assert_answers_match_rebuild(&graph, &dynamic, 4);
        }
    }
}
