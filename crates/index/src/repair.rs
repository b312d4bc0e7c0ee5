//! Incremental label repair under edge insertions and deletions.
//!
//! A built [`HighwayCoverIndex`] is frozen — its
//! labels are CSR-flattened. This module keeps an *editable* twin,
//! [`PatchedIndex`], that answers the same queries but can be repaired in
//! place after an edge edit instead of rebuilt from scratch.
//!
//! # Representation
//!
//! A [`PatchedIndex`] is a frozen base, shared by `Arc` with whoever serves
//! it — anything that lends flat label arrays ([`LabelArrays`]): a built
//! [`HighwayCoverIndex`], or a store's mapped image, repaired over, not
//! copied — plus the edits made since: a replacement label (packed and
//! hub-sorted like the base's) for each vertex a repair rewrote, in an
//! [`hcl_core::Overlay`] (the copy-on-write rows a
//! [`PatchedGraph`] keeps its adjacency patches in), and the highway once a
//! repair patched a cell, behind an `Arc`. Every read — detection, the
//! find's `d_old`, the repair — goes through one accessor: the replacement
//! if there is one, else the base slice. A served generation is a clone:
//! `Arc` clones that share the base, every label chunk and the highway.
//! The edits after it copy on write — the overlay's spine and each chunk
//! they land in once, the highway once — so what a publish costs is what
//! its update touched. [`PatchedIndex::flatten`] is the fold: it splices
//! the replacements into a fresh copy of the base arrays (each clean run of
//! vertices one copy, its offsets shifted) and adopts the result as the new
//! base; when no repair wrote anything since the last flatten it keeps the
//! same base and copies nothing. A delete's relabel adopts what
//! [`HighwayCoverIndex::build_in`] returns over the edited graph's view as
//! the base directly.
//!
//! The repair contract is **answer identity, and near byte identity**:
//! after any sequence of edits, queries against the repaired index return
//! exactly the distances a fresh build on the edited graph would return,
//! and the repaired labels are a *superset* of that fresh build's (same
//! highway, every fresh entry present at the same distance). Where the
//! small surplus comes from is stated under the insertion steps below; the
//! property suite checks answers against the BFS oracle, and the superset
//! relation with its surplus count, after every step of seeded edit
//! scripts.
//!
//! # How repair works
//!
//! The landmark set is kept fixed across edits (re-selection would force a
//! full rebuild for no answer-quality gain; the landmarks stay exactly the
//! vertices the original build chose). Two invariants hold for a built
//! index and are restored by every repair; together with an exact highway
//! `H` they are all the query engine relies on:
//!
//! * **(U) upper bound** — every entry `(j, δ) ∈ L(v)` has
//!   `δ ≥ d(r_j, v)`;
//! * **(C) cover** — for every vertex `v` and landmark `i`,
//!   `min over (j, δ) ∈ L(v) of δ + H[j][i] = d(r_i, v)`
//!   ([`PatchedIndex::landmark_distances`] reads exactly this). A
//!   landmark's label is its own self entry, so its row is the highway row.
//!
//! Every edit starts with the paper's **detection** step on the *pre-edit*
//! state: `da[i] = d(r_i, a)` and `db[i] = d(r_i, b)` for the endpoints
//! `a`, `b` and every landmark `i`, read off the endpoints' labels and the
//! highway — `O(|L|·k)` per endpoint, no graph search.
//!
//! ## Insertion of `(a, b)`: IncHL+ partial repair
//!
//! A new strictly shorter path must cross the new edge, so landmark `i` is
//! affected only if `|da[i] − db[i]| ≥ 2` (or exactly one endpoint was
//! unreachable from it). The repair reads and writes only the affected
//! set — the `(landmark, vertex)` pairs whose distance strictly drops:
//!
//! 1. **Find**, per affected landmark `i`: a BFS on the post-edit graph
//!    from the endpoint farther from `r_i`, seeded at depth
//!    `min(da[i], db[i]) + 1`, that enqueues a neighbour `x` at depth `D`
//!    only if `D < d_old(r_i, x)`, with `d_old` read from `x`'s pre-edit
//!    label and the pre-edit highway (property (C)). Every vertex on a new
//!    shortest path behind the far endpoint is itself affected, so this
//!    search visits exactly the pairs whose distance drops, at their new
//!    exact distance `D`, and records `(i, x, D)`. It expands *through*
//!    landmarks and through vertices that will end up without an `i`
//!    entry: coverage by another hub does not stop a distance from
//!    dropping further out.
//! 2. **Highway in closed form**, no search:
//!    `H'[i][j] = min(H[i][j], da[i] + 1 + db[j], db[i] + 1 + da[j])`
//!    — exact because a new shortest path crosses the new edge exactly
//!    once, symmetric by construction.
//! 3. **Repair**, over the recorded pairs in landmark-rank order: a
//!    landmark `x` is skipped (its row is the highway); otherwise, if some
//!    other hub already certifies the new distance
//!    (`∃ (j, δ) ∈ L(x), j ≠ i, H'[i][j] + δ ≤ D`) the `i` entry of `x` is
//!    removed if there is one, else `(i, D)` is inserted or tightened.
//!
//! **Find precedes repair — all of it.** No find may read a label an
//! earlier landmark's repair already tightened, nor the patched highway:
//! `d_old` computed from half-repaired state can make a vertex look
//! "already covered at the new distance", stop the search there, and
//! strand the affected vertices behind it.
//!
//! Why (U) and (C) survive. Insertions only shrink distances, so untouched
//! entries keep (U), and written entries are exact new distances. For a
//! pair `(i, v)` *outside* the recorded set the distance is unchanged; the
//! hub `j` that covered it before has `δ_j = d_old(r_j, v)` on a shortest
//! `r_i`–`v` path, so `(j, v)` cannot be recorded either (if `d(r_j, v)`
//! had dropped, `d(r_i, v)` would have too) — the entry is untouched, and
//! `H' ≤ H` keeps it tight. For a recorded pair either `(i, D)` is written
//! or a certifier exists; a certifier's entry is an exact *new* distance
//! (by (U) and the exactness of `H'`), so it is either untouched or was
//! written earlier in the same pass, and is never removed later: an entry
//! still waiting for its own repair holds an old, strictly larger distance
//! and cannot certify anything.
//!
//! The cost is `O(Σ affected vertices × degree × |L|)` — on the
//! benchmark's 100k-vertex graphs a median of one or two pairs per insert
//! — against `O(affected landmarks × (n + m))` for regrowing whole trees.
//!
//! **How far this is from a fresh build.** The builder's labelling is
//! defined without reference to history: `(i, δ) ∈ L(v)` iff no other
//! landmark lies on any shortest `r_i`–`v` path. (U), (C) and an exact
//! highway already force every such entry to be present at its exact
//! distance, so repaired ⊇ fresh with equality on the highway, and what
//! remains is a surplus with two sources. A pair whose distance is
//! unchanged but which *gains* an equal-length shortest path through
//! another landmark (`D = d_old`) is never visited, and keeps an entry a
//! fresh build would drop. And a visited pair `(i, x)` whose new shortest
//! paths run through a landmark `r_j` is written anyway when `x`'s `j`
//! entry is itself still waiting for its repair later in the pass
//! (`j > i`, both distances dropped). Admitting `D ≤ d_old` in the find
//! closes the first, pruning only after every write closes the second;
//! both are future work. `tests/dynamic_repair.rs` checks the superset
//! relation after every step and counts the surplus.
//!
//! ## Deletion: relabel
//!
//! A deleted edge lies on a shortest path from `r_i` exactly when the
//! endpoint depths differ (by 1, since the edge existed), so landmark `i`
//! is affected iff `da[i] ≠ db[i]`; an empty affected set costs nothing.
//! Otherwise the post-edit graph is labelled afresh for the same landmark
//! set by [`HighwayCoverIndex::build_in`] over its view — labels and
//! every highway row in one pass — and the index it returns becomes the
//! new base, with no unpacking; so after a delete the index *is* a fresh
//! build's. The asymmetry with insertion is load bearing: a deletion
//! *grows* distances, which can silently break the coverage of an
//! *unaffected* landmark whose cover routed through an affected hub, and
//! entries that were exact become too small — (U) fails — so neither
//! "only the affected trees" nor "only tighten" is sound. A decremental partial repair is future work; until
//! then a delete costs a build minus selection.

use crate::build::{sat_add, BuildContext, HighwayCoverIndex, TooFar, NOT_A_LANDMARK};
use crate::view::{
    entry_dist, entry_hub, pack_label_entry, try_pack_label_entry, IndexView, MAX_LABEL_DISTANCE,
};
use hcl_core::{
    DeltaError, DeltaOp, EdgeDelta, GraphView, Overlay, PatchedGraph, VertexId, INFINITY,
};
use std::mem::size_of_val;
use std::sync::Arc;

/// What one [`PatchedIndex::apply_and_repair`] call did, for logging,
/// metrics, and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Whether the delta changed the graph at all (inserting an existing
    /// edge or deleting a missing one is a no-op and costs nothing beyond
    /// the membership probe).
    pub applied: bool,
    /// Number of landmarks whose distance function was (possibly)
    /// affected by the edit — those passing the detection test.
    pub affected_landmarks: usize,
    /// Number of `(landmark, vertex)` pairs whose distance strictly
    /// dropped: what an insertion's find phase visited and the only labels
    /// its repair touched. Always 0 for a deletion, whose relabel never
    /// computes the set.
    pub affected_vertices: usize,
    /// Whether the repair fell back to relabelling the whole graph
    /// (deletions with a non-empty affected set; see the module docs for
    /// why).
    pub full_relabel: bool,
}

/// Anything that lends the arrays of a flat labelling: a built
/// [`HighwayCoverIndex`], or a store's validated, memory-mapped image. The
/// base a [`PatchedIndex`] repairs over.
pub trait LabelArrays: Send + Sync {
    /// The arrays as an unpatched view.
    fn as_view(&self) -> IndexView<'_>;
}

impl LabelArrays for HighwayCoverIndex {
    fn as_view(&self) -> IndexView<'_> {
        self.as_view()
    }
}

/// A highway-cover labelling under edits: the arrays of the last fold (or
/// the ones it was opened over, or a relabel), shared by `Arc` with every
/// generation cloned since, plus the labels and highway its repairs
/// rewrote after that fold. A clone is a served generation, sharing every
/// label chunk and the highway until an edit writes to them.
///
/// Put any [`LabelArrays`] under edit with [`flat`](Self::flat), apply
/// edits with [`apply_and_repair`](Self::apply_and_repair), and get the
/// state back flat with [`flatten`](Self::flatten) (spliced and adopted as
/// the new base) or [`to_index`](Self::to_index) (a spliced copy that
/// leaves the edits pending). The conversion round-trip is lossless.
#[derive(Clone)]
pub struct PatchedIndex {
    base: Arc<dyn LabelArrays>,
    labels: Overlay<u32>,
    highway: Option<Arc<Vec<u32>>>,
    /// Bytes the highway's copies on write and the folds' splices copied
    /// since [`take_copied_bytes`](Self::take_copied_bytes).
    copied: usize,
}

/// [`PatchedIndex`], kept only because the frozen harness names it
/// (ROADMAP 1(c)).
pub type DynamicIndex = PatchedIndex;

impl PatchedIndex {
    /// Copies a frozen index (owned or mapped) into editable form: five
    /// slice copies, no per-vertex work.
    pub fn from_view(view: IndexView<'_>) -> Self {
        Self::flat(Arc::new(view.to_owned_index()))
    }

    /// `base` with no edits: shared, not copied.
    pub fn flat(base: Arc<dyn LabelArrays>) -> Self {
        Self {
            labels: Overlay::new(base.as_view().num_vertices()),
            highway: None,
            base,
            copied: 0,
        }
    }

    /// The shared base arrays.
    pub fn base(&self) -> &Arc<dyn LabelArrays> {
        &self.base
    }

    /// The replacement labels over the base.
    pub fn labels(&self) -> &Overlay<u32> {
        &self.labels
    }

    /// The labelling as a view: the base labels under the replacements,
    /// and the patched highway if a repair wrote one.
    pub fn as_view(&self) -> IndexView<'_> {
        let base = self.base.as_view();
        IndexView {
            highway: self.highway.as_deref().map_or(base.highway, Vec::as_slice),
            label_patches: (!self.labels.is_empty()).then_some(&self.labels),
            ..base
        }
    }

    /// Number of vertices the index covers (fixed across edits — the delta
    /// layer does not add vertices).
    pub fn num_vertices(&self) -> usize {
        self.labels.num_rows()
    }

    /// Number of vertices whose label a repair rewrote since the base.
    pub fn patched_rows(&self) -> usize {
        self.labels.len()
    }

    /// Total number of label entries currently held.
    pub fn num_label_entries(&self) -> usize {
        let base = self.base.as_view().label_entries.len();
        self.labels.patched_len(base)
    }

    /// The highway for writing: copied from the base on the first write
    /// since the last fold, and again whenever a served generation shares
    /// it.
    fn highway_mut(&mut self) -> &mut Vec<u32> {
        let base = self.base.as_view().highway;
        let bytes = size_of_val(base);
        let highway = self.highway.get_or_insert_with(|| {
            self.copied += bytes;
            Arc::new(base.to_vec())
        });
        if Arc::get_mut(highway).is_none() {
            self.copied += bytes;
        }
        Arc::make_mut(highway)
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
        let view = self.as_view();
        let k = view.num_landmarks();
        (0..k).map(|i| landmark_distance(view, i, v)).collect()
    }

    /// The frozen, query-servable form of the current state, as a copy:
    /// the base's label arrays spliced with the replacement labels (each
    /// clean run of vertices one copy, its offsets shifted), the edits left
    /// pending. [`flatten`](Self::flatten) is the form that also adopts it.
    pub fn to_index(&self) -> HighwayCoverIndex {
        self.as_view().to_owned_index()
    }

    /// The frozen form of the current state, adopted as the new base: the
    /// pending edits are spliced in ([`to_index`](Self::to_index)) and
    /// cleared. With nothing pending — no label and no highway cell
    /// rewritten since the last call — this is the previous result, the
    /// same `Arc`, and copies nothing.
    pub fn flatten(&mut self) -> Arc<dyn LabelArrays> {
        if !self.labels.is_empty() || self.highway.is_some() {
            let index = self.to_index();
            self.copied += [
                size_of_val(index.landmarks.as_slice()),
                size_of_val(index.landmark_rank.as_slice()),
                size_of_val(index.label_offsets.as_slice()),
                size_of_val(index.label_entries.as_slice()),
                size_of_val(index.highway.as_slice()),
            ]
            .iter()
            .sum::<usize>();
            self.adopt(index);
        }
        Arc::clone(&self.base)
    }

    /// Adopts `base` with no edits pending; the copies the replaced label
    /// overlay made stay counted.
    fn adopt(&mut self, base: HighwayCoverIndex) {
        let copied = self.take_copied_bytes();
        *self = Self {
            copied,
            ..Self::flat(Arc::new(base))
        };
    }

    /// Bytes copied since the last call: the label overlay's spine and
    /// chunks and the highway, each copied on the first write while a
    /// served generation shared it, plus the arrays of every fold.
    pub fn take_copied_bytes(&mut self) -> usize {
        self.labels.take_copied_bytes() + std::mem::take(&mut self.copied)
    }

    /// Applies one edge delta to `graph` and repairs the index so it
    /// answers exactly for the edited graph.
    ///
    /// The delta is validated (range, self-loop) before anything is
    /// touched; on error neither the graph nor the index changes. An
    /// ineffective delta (inserting a present edge, deleting an absent
    /// one) leaves both untouched and reports `applied: false`. An edit
    /// that would give some label entry a distance above
    /// [`MAX_LABEL_DISTANCE`] (possible only on graphs of more than 2^24
    /// vertices) is refused with [`DeltaError::DistanceLimit`]: the
    /// repair finds that before it writes anything, and the graph edit is
    /// undone, so the graph has its old edges and the index is untouched.
    ///
    /// # Panics
    /// Panics if `graph` does not have the vertex count this index was
    /// built for — edits never add vertices, so a mismatch means
    /// the caller paired the wrong graph with the wrong index.
    pub fn apply_and_repair(
        &mut self,
        graph: &mut PatchedGraph,
        delta: EdgeDelta,
        cx: &mut BuildContext,
    ) -> Result<RepairOutcome, DeltaError> {
        let n = self.num_vertices();
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

        // Detection: landmark distances of both endpoints, read from the
        // *pre-edit* labels — the affected tests are stated in terms of
        // old distances.
        let da = self.landmark_distances(delta.u);
        let db = self.landmark_distances(delta.v);

        let applied = graph.apply(delta)?;
        debug_assert!(applied, "membership probe and apply disagreed");

        let repaired = match delta.op {
            DeltaOp::Insert => {
                self.repair_insert(graph.as_view(), (delta.u, delta.v), &da, &db, cx)
            }
            DeltaOp::Delete => self.repair_delete(graph.as_view(), &da, &db, cx),
        };
        repaired.or_else(|too_far| {
            let undo = match delta.op {
                DeltaOp::Insert => EdgeDelta::delete(delta.u, delta.v),
                DeltaOp::Delete => EdgeDelta::insert(delta.u, delta.v),
            };
            graph.apply(undo)?;
            Err(DeltaError::DistanceLimit {
                vertex: too_far.vertex,
                distance: too_far.distance,
                limit: MAX_LABEL_DISTANCE,
            })
        })
    }

    /// The insert branch: find, closed-form highway patch, repair — see
    /// the module docs. Reads and writes only the affected set. Fails, with
    /// nothing written, if a label entry it would write does not fit its
    /// word.
    fn repair_insert(
        &mut self,
        graph: GraphView<'_>,
        (a, b): (VertexId, VertexId),
        da: &[u32],
        db: &[u32],
        cx: &mut BuildContext,
    ) -> Result<RepairOutcome, TooFar> {
        // The pre-edit labels and highway, read through one view: the base
        // lends its arrays once per repair, not once per label read.
        let before = self.as_view();
        let k = before.num_landmarks();
        let mut outcome = RepairOutcome {
            applied: true,
            ..RepairOutcome::default()
        };

        // Find: every `(rank, vertex, new distance)` whose distance drops,
        // in rank order. Labels and highway are still pre-edit throughout.
        let mut dropped: Vec<(u32, VertexId, u32)> = Vec::new();
        cx.scratch.reset();
        cx.scratch.ensure_capacity(graph.num_vertices());
        for i in 0..k {
            let (near, far_depth, far) = if da[i] <= db[i] {
                (da[i], db[i], b)
            } else {
                (db[i], da[i], a)
            };
            // Hopping the new edge must beat the old detour; both
            // endpoints unreachable stay unreachable.
            let affected = if far_depth == INFINITY {
                near != INFINITY
            } else {
                far_depth.abs_diff(near) >= 2
            };
            if !affected {
                continue;
            }
            outcome.affected_landmarks += 1;

            let seed = sat_add(near, 1);
            cx.scratch.dist[far as usize] = seed;
            cx.scratch.touched.push(far);
            cx.scratch.queue.push_back(far);
            dropped.push((i as u32, far, seed));
            while let Some(x) = cx.scratch.queue.pop_front() {
                let depth = sat_add(cx.scratch.dist[x as usize], 1);
                for &w in graph.neighbors(x) {
                    if cx.scratch.dist[w as usize] == INFINITY
                        && depth < landmark_distance(before, i, w)
                    {
                        cx.scratch.dist[w as usize] = depth;
                        cx.scratch.touched.push(w);
                        cx.scratch.queue.push_back(w);
                        dropped.push((i as u32, w, depth));
                    }
                }
            }
            cx.scratch.reset();
        }
        outcome.affected_vertices = dropped.len();
        if dropped.is_empty() {
            return Ok(outcome);
        }
        // Every entry the repair could write is a dropped pair at a
        // vertex that is not a landmark; refuse before writing if one of
        // them does not fit.
        let too_far = dropped.iter().find(|&&(i, x, d)| {
            before.landmark_rank[x as usize] == NOT_A_LANDMARK
                && try_pack_label_entry(i, d).is_none()
        });
        if let Some(&(_, vertex, distance)) = too_far {
            return Err(TooFar { vertex, distance });
        }

        // Highway in closed form: a new shortest path crosses the new edge
        // once, in one direction or the other.
        let shorter: Vec<(usize, usize, u32)> = (0..k)
            .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
            .filter_map(|(i, j)| {
                let via = sat_add(sat_add(da[i], 1), db[j]).min(sat_add(sat_add(db[i], 1), da[j]));
                (via < before.highway[i * k + j]).then_some((i, j, via))
            })
            .collect();
        if !shorter.is_empty() {
            let highway = self.highway_mut();
            for (i, j, via) in shorter {
                highway[i * k + j] = via;
                highway[j * k + i] = via;
            }
        }

        // Repair, in rank order, against the patched highway. A vertex's
        // label is copied into the replacements on its first real change.
        let base = self.base.as_view();
        let highway = self.highway.as_deref().map_or(base.highway, Vec::as_slice);
        for (i, x, d) in dropped {
            if base.landmark_rank[x as usize] != NOT_A_LANDMARK {
                continue; // a landmark's row is the highway
            }
            let row = &highway[i as usize * k..(i as usize + 1) * k];
            let label = self.labels.get(x).unwrap_or_else(|| base.packed_label(x));
            let certified = label.iter().any(|&e| {
                entry_hub(e) != i && sat_add(row[entry_hub(e) as usize], entry_dist(e)) <= d
            });
            // The `i` slot of the label — its entry, or the empty gap where
            // one would go — becomes `(i, d)`, or nothing if certified.
            let slot = match label.binary_search_by_key(&i, |&e| entry_hub(e)) {
                Ok(pos) => pos..pos + 1,
                Err(pos) => pos..pos,
            };
            let entry = [pack_label_entry(i, d)];
            let wanted = if certified { &entry[..0] } else { &entry[..] };
            if label[slot.clone()] == *wanted {
                continue;
            }
            self.labels.edit(x, base.packed_label(x), |label| {
                label.splice(slot, wanted.iter().copied());
            });
        }
        Ok(outcome)
    }

    /// The delete branch: if any landmark is affected, relabel the
    /// post-edit graph for the same landmarks with
    /// [`HighwayCoverIndex::build_in`] (see the module docs for why nothing
    /// less is sound) and adopt the result as the new base, pending edits
    /// and all superseded. Fails, adopting nothing, if the relabel meets
    /// a label entry that does not fit its word.
    fn repair_delete(
        &mut self,
        graph: GraphView<'_>,
        da: &[u32],
        db: &[u32],
        cx: &mut BuildContext,
    ) -> Result<RepairOutcome, TooFar> {
        // A removed edge lies on a shortest path from i exactly when the
        // endpoint depths differ (by 1, since the edge existed; equal
        // depths mean no shortest path from i crosses it, so i's distances
        // cannot change).
        let affected = da.iter().zip(db).filter(|(a, b)| a != b).count();
        if affected == 0 {
            return Ok(RepairOutcome {
                applied: true,
                ..RepairOutcome::default()
            });
        }

        let landmarks = self.base.as_view().landmarks;
        let relabelled = HighwayCoverIndex::relabel(graph, landmarks, std::slice::from_mut(cx))?;
        self.adopt(relabelled);

        Ok(RepairOutcome {
            applied: true,
            affected_landmarks: affected,
            affected_vertices: 0,
            full_relabel: true,
        })
    }
}

/// `d(landmark_i, v)` from `v`'s label and column `i` of the highway (the
/// matrix is symmetric) — one cell of
/// [`PatchedIndex::landmark_distances`], `O(|L(v)|)`.
fn landmark_distance(index: IndexView<'_>, i: usize, v: VertexId) -> u32 {
    let k = index.num_landmarks();
    index
        .packed_label(v)
        .iter()
        .map(|&e| sat_add(index.highway[entry_hub(e) as usize * k + i], entry_dist(e)))
        .min()
        .unwrap_or(INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, HighwayCoverIndex, QueryContext};
    use hcl_core::Graph;

    fn assert_answers_match_rebuild(graph: &PatchedGraph, dynamic: &PatchedIndex, k: usize) {
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
        let dynamic = PatchedIndex::from_view(built.as_view());
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
        let mut dynamic = PatchedIndex::from_view(built.as_view());
        let mut graph = PatchedGraph::new(g.as_view());
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
        let mut dynamic = PatchedIndex::from_view(built.as_view());
        let mut graph = PatchedGraph::new(g.as_view());
        let mut cx = BuildContext::new();
        let out = dynamic
            .apply_and_repair(&mut graph, EdgeDelta::insert(0, 6), &mut cx)
            .unwrap();
        assert!(out.applied && out.affected_landmarks > 0 && !out.full_relabel);
        assert!(out.affected_vertices >= out.affected_landmarks);
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
        let mut dynamic = PatchedIndex::from_view(built.as_view());
        let mut graph = PatchedGraph::new(g.as_view());
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
        let mut dynamic = PatchedIndex::from_view(built.as_view());
        let mut graph = PatchedGraph::new(g.as_view());
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
