//! The update engine: the one place edge deltas become served state, for
//! live updates and open-time replay alike.
//!
//! [`LiveState`] is the live graph and labels — the base arrays of the
//! last fold plus the rows patched since — maintained incrementally by
//! `hcl-index`'s repair path (never a full rebuild). It holds the fold
//! rule: freezing it for serving folds first once either overlay holds
//! more than `n / FOLD_DIVISOR` patched rows. An open replays a pending
//! journal through it, so a reopened file is exactly what the engine that
//! appended the journal served, patched or flat.
//!
//! [`UpdateEngine`] is that state plus a [`JournalWriter`], the
//! container's single writer. One call, [`UpdateEngine::publish`], makes a
//! batch of applied deltas durable and servable at a cost proportional to
//! the batch, not the container:
//!
//! * **persist** — the batch goes to the file as one self-checksummed
//!   frame appended after the container image and `fdatasync`ed; the
//!   image is never rewritten. Reopening the file replays the frames
//!   through this module and arrives at the live state.
//! * **publish** — the next generation is an `IndexStore` sharing the
//!   already-validated image and carrying the live state in its replayed
//!   slot: answers identical to that reopen's, with nothing serialised or
//!   re-validated. The live state is *frozen*, not copied: the generation
//!   shares the graph and label arrays of the last fold (the same `Arc`s
//!   every generation since holds, so they are resident once) and gets a
//!   frozen copy of only the adjacency and label rows patched since that
//!   fold, plus the patched highway — `O(rows patched + n / 64)`, whatever
//!   the size of the graph.
//! * **fold** — once either overlay holds more than `n / FOLD_DIVISOR`
//!   patched rows, the publish first splices both into fresh base arrays
//!   (`DeltaGraph::to_graph`, `DynamicIndex::flatten`: the previous arrays
//!   copied run by run with the patched rows in between) and serves those
//!   flat. That bounds what each freeze copies, and spreads the `O(n + m)`
//!   splice over the publishes that filled the overlay.
//!
//! Only a compacting publish (the `compact_after` threshold reached, or a
//! forced compaction) writes a whole container — the live state as the new
//! base, empty journal, no tail — and then serves a trusted reopen of it,
//! which bounds both open-time replay and the memory the shared image pins.
//!
//! The engine is transport-agnostic: a caller drives it file-to-file or
//! behind a mutex from a serving loop. This file is on the request-serving
//! path (the `no-panics` lint covers it): every failure is a typed
//! [`UpdateError`], never a panic that would take a serving loop down.

use crate::{IndexStore, JournalWriter, StoreError};
use hcl_core::{DeltaError, DeltaGraph, DeltaPatches, EdgeDelta, FrozenGraph, Graph, GraphView};
use hcl_index::repair::{DynamicIndex, RepairOutcome};
use hcl_index::{BuildContext, FrozenIndex, IndexView};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A freeze folds both overlays into fresh base arrays once either holds
/// more than `n / FOLD_DIVISOR` patched rows: that bounds what each freeze
/// copies, and amortises the `O(n + m)` splice over the publishes before it.
const FOLD_DIVISOR: usize = 64;

/// The live graph and labels: the base arrays of the last fold, shared
/// with every generation frozen since, plus the edits applied after it.
pub(crate) struct LiveState {
    /// The graph as of the last fold; `patches` holds what was applied
    /// after it.
    graph: Arc<Graph>,
    /// Adjacency edits applied since the last fold: the detached half of
    /// the overlay repairs run on, kept across `apply` calls and frozen
    /// into each generation until the next fold splices it.
    patches: DeltaPatches,
    /// The labels of the last fold (the same `Arc` every generation since
    /// holds) plus the labels repaired after it.
    index: DynamicIndex,
    /// Reused BFS scratch for the repair path.
    cx: BuildContext,
}

impl LiveState {
    /// Copies `graph` and `index` (flat or patched) into editable form.
    pub(crate) fn new(graph: GraphView<'_>, index: IndexView<'_>) -> Self {
        Self {
            graph: Arc::new(graph.to_owned_graph()),
            patches: DeltaPatches::default(),
            index: DynamicIndex::from_view(index),
            cx: BuildContext::new(),
        }
    }

    /// Applies one delta through incremental label repair. An ineffective
    /// delta (inserting an existing edge, deleting a missing one) returns
    /// `applied: false`; an invalid one (out-of-range endpoint, self-loop)
    /// is an error and changes nothing.
    pub(crate) fn apply(&mut self, delta: EdgeDelta) -> Result<RepairOutcome, DeltaError> {
        let mut overlay =
            DeltaGraph::reattach(self.graph.as_view(), std::mem::take(&mut self.patches));
        let repaired = self
            .index
            .apply_and_repair(&mut overlay, delta, &mut self.cx);
        self.patches = overlay.detach();
        repaired
    }

    /// Patched rows in the graph and in the label overlay.
    fn rows(&self) -> [usize; 2] {
        [self.patches.num_patched(), self.index.patched_rows()]
    }

    /// The live state for serving: the base arrays shared, the rows
    /// patched since the last fold frozen beside them. Folds first when
    /// `fold` is set or either overlay holds more than `n / FOLD_DIVISOR`
    /// rows; the flag says whether a fold spliced any rows (the result is
    /// then flat).
    pub(crate) fn freeze(&mut self, fold: bool) -> (FrozenGraph, FrozenIndex, bool) {
        let (limit, rows) = (self.index.num_vertices() / FOLD_DIVISOR, self.rows());
        let folded = rows.iter().any(|&r| r > 0) && (fold || rows.iter().any(|&r| r > limit));
        if folded || fold {
            // The fold: both overlays spliced into fresh base arrays,
            // adopted with nothing left pending.
            if !self.patches.is_empty() {
                let patches = std::mem::take(&mut self.patches);
                let graph = DeltaGraph::reattach(self.graph.as_view(), patches).to_graph();
                self.graph = Arc::new(graph);
            }
            self.index.flatten();
        }
        (
            self.patches.freeze(&self.graph),
            self.index.freeze(),
            folded,
        )
    }
}

/// What one update batch cost: where it spent its time, measured at the
/// engine's own boundaries, and how much of the index its repairs touched.
/// The caller adds `swap` (it owns the generation handle).
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdatePhases {
    /// Label repair (`DynamicIndex::apply_and_repair`).
    pub repair: Duration,
    /// Live state made servable, once per batch: the rows patched since
    /// the last fold frozen beside the shared base arrays (`DeltaPatches::
    /// freeze`, `DynamicIndex::freeze`), or — when the batch folds — the
    /// fold's splice into fresh base arrays (`DeltaGraph::to_graph`,
    /// `DynamicIndex::flatten`, `O(n + m)` bytes moved) first.
    pub materialise: Duration,
    /// Made durable: the frame append, or the whole-container publish and
    /// reopen of a compaction.
    pub persist: Duration,
    /// The generation swap.
    pub swap: Duration,
    /// Landmarks whose distance function an applied delta affected
    /// (`RepairOutcome::affected_landmarks`, summed over the batch).
    pub affected_landmarks: u64,
    /// `(landmark, vertex)` pairs whose distance dropped — the labels the
    /// batch's insert repairs visited (`RepairOutcome::affected_vertices`).
    pub affected_vertices: u64,
    /// Deltas whose repair relabelled the whole graph
    /// (`RepairOutcome::full_relabel`).
    pub full_relabels: u64,
}

impl UpdatePhases {
    /// `(name, duration)` per phase, in pipeline order; the names are the
    /// `phase` label values of `hcl_update_phase_seconds_total`.
    pub fn named(&self) -> [(&'static str, Duration); 4] {
        [
            ("repair", self.repair),
            ("materialise", self.materialise),
            ("persist", self.persist),
            ("swap", self.swap),
        ]
    }
}

/// `repair=0.1ms materialise=0.0ms persist=0.2ms swap=0.0ms affected=3/41`.
impl std::fmt::Display for UpdatePhases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, took) in self.named() {
            write!(f, "{name}={:.1}ms ", took.as_secs_f64() * 1e3)?;
        }
        write!(
            f,
            "affected={}/{}",
            self.affected_landmarks, self.affected_vertices
        )
    }
}

/// What one [`UpdateEngine::publish`] call produced.
pub struct Published {
    /// The generation to serve: shares the validated image with its
    /// predecessor (or, after a compaction, is a trusted reopen).
    pub store: IndexStore,
    /// Bytes written to the backing file, or `None` for an in-memory
    /// engine (no file to write back to).
    pub bytes: Option<u64>,
    /// Whether the journal was compacted into a new base (the
    /// `compact_after` threshold reached, or a forced compaction).
    pub compacted: bool,
    /// Whether the publish spliced the overlays into fresh base arrays
    /// (an overlay outgrew `n / FOLD_DIVISOR` rows, or a compaction needed
    /// flat arrays); the generation is then flat.
    pub folded: bool,
    /// Time since the previous publish, by phase (`swap` still zero).
    pub phases: UpdatePhases,
}

/// Why an [`UpdateEngine`] call failed, by the step that failed. Nothing
/// the failed call did is served: drop the engine and start the next one
/// from the generation being served.
#[derive(Debug)]
pub enum UpdateError {
    /// A delta the graph cannot take (self-loop, out-of-range endpoint).
    /// The deltas before it in its batch were applied.
    Invalid {
        /// The refused delta.
        delta: EdgeDelta,
        /// Why the graph refused it.
        why: DeltaError,
    },
    /// Appending the batch's journal frame failed.
    Journal(StoreError),
    /// Stamping the generation that serves the batch failed.
    Generation(StoreError),
    /// Writing or reopening the compacted container failed.
    Compact(StoreError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Invalid { delta, why } => write!(f, "applying {delta}: {why}"),
            UpdateError::Journal(e) => write!(f, "journalling the update: {e}"),
            UpdateError::Generation(e) => write!(f, "publishing the updated index: {e}"),
            UpdateError::Compact(e) => write!(f, "compacting the index: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Incremental edge-update engine: applies deltas through label repair,
/// journals them for durability, and stamps out the generations that
/// serve them.
pub struct UpdateEngine {
    /// The container's writer: shared image, pending journal, append
    /// handle to the backing file (if any).
    writer: JournalWriter,
    live: LiveState,
    /// Deltas applied since the last publish: the next frame.
    staged: Vec<EdgeDelta>,
    /// Compact the journal once it holds this many deltas (0 = never).
    compact_after: usize,
    /// Phase time accumulated since the last publish.
    phases: UpdatePhases,
}

impl UpdateEngine {
    /// Builds the engine from an opened container, continuing its history:
    /// a later [`publish`](UpdateEngine::publish) appends to `path` (the
    /// file `store` was opened from) or, without one, journals in memory.
    /// The live state starts as a copy of what `store` serves.
    pub fn from_store(store: &IndexStore, path: Option<PathBuf>, compact_after: usize) -> Self {
        Self {
            writer: JournalWriter::new(store, path),
            live: LiveState::new(store.graph(), store.index()),
            staged: Vec::new(),
            compact_after,
            phases: UpdatePhases::default(),
        }
    }

    /// Applies `deltas` in order through incremental label repair and
    /// returns how many changed the graph. An ineffective delta (inserting
    /// an existing edge, deleting a missing one) is not journalled; an
    /// invalid one stops the batch with [`UpdateError::Invalid`].
    pub fn apply(&mut self, deltas: &[EdgeDelta]) -> Result<u64, UpdateError> {
        let t0 = Instant::now();
        let mut applied = 0;
        for &delta in deltas {
            let outcome = self
                .live
                .apply(delta)
                .map_err(|why| UpdateError::Invalid { delta, why })?;
            if outcome.applied {
                applied += 1;
                self.staged.push(delta);
                self.phases.affected_landmarks += outcome.affected_landmarks as u64;
                self.phases.affected_vertices += outcome.affected_vertices as u64;
                self.phases.full_relabels += u64::from(outcome.full_relabel);
            }
        }
        self.phases.repair += t0.elapsed();
        Ok(applied)
    }

    /// Pending (applied, not yet compacted) delta count.
    pub fn pending(&self) -> usize {
        self.writer.pending() + self.staged.len()
    }

    /// Compactions of the container so far.
    pub fn compactions(&self) -> u64 {
        self.writer.compactions()
    }

    /// Makes every delta applied since the last publish durable and
    /// returns the generation that serves them. Normally that is one
    /// frame appended to the file and a generation sharing the validated
    /// image and the last fold's arrays under a frozen overlay; when
    /// `force_compact` is set or the `compact_after` threshold is reached
    /// (and anything is pending), the live state is instead folded,
    /// published as a whole new container and reopened.
    pub fn publish(&mut self, force_compact: bool) -> Result<Published, UpdateError> {
        let pending = self.pending();
        let compacting = pending > 0
            && (force_compact || (self.compact_after > 0 && pending >= self.compact_after));
        let t0 = Instant::now();
        let (graph, index, folded) = self.live.freeze(compacting);
        self.phases.materialise += t0.elapsed();

        let t0 = Instant::now();
        let (store, written) = if compacting {
            let store = self
                .writer
                .compact(graph.base(), index.base())
                .map_err(UpdateError::Compact)?;
            let written = store.len_bytes();
            (store, written)
        } else {
            let written = self
                .writer
                .append(&self.staged)
                .map_err(UpdateError::Journal)?;
            let store = self
                .writer
                .generation(graph, index)
                .map_err(UpdateError::Generation)?;
            (store, written)
        };
        self.staged.clear();
        self.phases.persist += t0.elapsed();
        Ok(Published {
            store,
            bytes: self.writer.path().is_some().then_some(written),
            compacted: compacting,
            folded,
            phases: std::mem::take(&mut self.phases),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::{testkit, DeltaOp};
    use hcl_index::{BuildOptions, HighwayCoverIndex, QueryContext};

    fn engine_for(n: usize, k: usize, seed: u64) -> (Graph, UpdateEngine) {
        let graph = testkit::barabasi_albert(n, 3, seed);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: k,
                ..Default::default()
            },
        );
        let image = crate::serialize(&graph, &index).unwrap();
        let store = IndexStore::from_bytes(&image).unwrap();
        (graph, UpdateEngine::from_store(&store, None, 0))
    }

    #[test]
    fn apply_updates_live_answers_and_journals() {
        let (graph, mut engine) = engine_for(40, 4, 9);
        // Find a non-adjacent pair at distance > 1 and connect it.
        let mut pair = None;
        'outer: for u in 0..40u32 {
            for v in (u + 1)..40 {
                if !graph.as_view().neighbors(u).contains(&v) {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.expect("a sparse graph has non-adjacent pairs");
        assert_eq!(engine.apply(&[EdgeDelta::insert(u, v)]).unwrap(), 1);
        assert_eq!(engine.pending(), 1);
        let mut ctx = QueryContext::new();
        let live = engine.publish(false).unwrap().store;
        assert_eq!(
            live.index().query_with(live.graph(), &mut ctx, u, v),
            Some(1)
        );
        // Re-inserting is a no-op and is not journalled.
        assert_eq!(engine.apply(&[EdgeDelta::insert(u, v)]).unwrap(), 0);
        assert_eq!(engine.pending(), 1);
        // Invalid deltas are errors and change nothing.
        for bad in [EdgeDelta::insert(0, 40), EdgeDelta::insert(3, 3)] {
            let err = engine.apply(&[bad]).unwrap_err();
            assert!(
                matches!(err, UpdateError::Invalid { delta, .. } if delta == bad),
                "{err}"
            );
            assert!(err.to_string().starts_with(&format!("applying {bad}: ")));
        }
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn compacting_publish_compacts_the_journal_into_a_new_base() {
        let (_graph, mut engine) = engine_for(30, 4, 2);
        let script = [EdgeDelta::insert(0, 17), EdgeDelta::delete(0, 17)];
        assert_eq!(engine.apply(&script).unwrap(), 2);
        assert_eq!(engine.pending(), 2);
        let published = engine.publish(true).unwrap();
        assert!(published.compacted);
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.compactions(), 1);
        let journal = published.store.journal().unwrap();
        assert!(journal.is_empty());
        assert_eq!(journal.compactions, 1);
        // Nothing pending: a second compacting publish compacts nothing.
        assert!(!engine.publish(true).unwrap().compacted);
        assert_eq!(engine.compactions(), 1);
    }

    /// Journal replay at open runs the same engine state over the same
    /// deltas, so it must land on the same bytes as the live engine did —
    /// graph CSR, labels and highway — not merely on the same answers, over
    /// a script of inserts and deletes published one by one. A publish
    /// that does not fold serves the previous generation's base arrays
    /// themselves (the labels' too, unless a delete relabelled). The
    /// journal holds more than `n / 64` rows since the image, so the
    /// reopen folds to flat arrays; a journal under that bound reopens
    /// patched, with the live generation's overlay.
    #[test]
    fn a_reopen_replays_to_the_last_published_generation_byte_for_byte() {
        const N: usize = 640;
        const DELTAS: usize = 40;
        let graph = testkit::barabasi_albert(N, 3, 21);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: 8,
                ..Default::default()
            },
        );
        let path = std::env::temp_dir().join(format!("hcl_replay_{}.hcl", std::process::id()));
        let reopen_like = |last: &IndexStore, what: &str| {
            let reopened = IndexStore::open(&path).unwrap();
            assert_eq!(
                reopened.journal().unwrap().len(),
                last.journal().unwrap().len()
            );
            let (graph, index) = reopened.to_owned_parts();
            let (live_graph, live_index) = last.to_owned_parts();
            assert_eq!(graph, live_graph, "{what}: graph");
            let (index, live) = (index.as_view(), live_index.as_view());
            assert_eq!(index.landmarks(), live.landmarks(), "{what}");
            assert_eq!(index.label_offsets(), live.label_offsets(), "{what}");
            assert_eq!(index.label_entries(), live.label_entries(), "{what}");
            assert_eq!(index.highway(), live.highway(), "{what}");
            assert_eq!(last.index().highway(), live.highway(), "{what}");
            reopened
        };

        // Under the bound: two inserts, never folded, reopen patched.
        crate::save(&path, &graph, &index).unwrap();
        let store = IndexStore::open(&path).unwrap();
        let mut engine = UpdateEngine::from_store(&store, Some(path.clone()), 0);
        let (hub, leaf) = (graph.top_k_by_degree(1)[0], N as u32 - 1);
        let script = [
            EdgeDelta::insert(leaf, leaf - 1),
            EdgeDelta::insert(leaf, hub),
        ];
        assert_eq!(engine.apply(&script).unwrap(), 2);
        let published = engine.publish(false).unwrap();
        let last = published.store;
        let rows = (last.graph().patched_rows(), last.index().patched_rows());
        assert!(!published.folded && rows.0 > 0 && rows.1 > 0, "{rows:?}");
        let reopened = reopen_like(&last, "under the bound");
        assert!(reopened.graph().is_patched() && reopened.index().is_patched());
        assert_eq!(
            (
                reopened.graph().patched_rows(),
                reopened.index().patched_rows()
            ),
            rows
        );

        // Over the bound: a long mixed script, folded along the way.
        crate::save(&path, &graph, &index).unwrap();
        let store = IndexStore::open(&path).unwrap();
        let mut engine = UpdateEngine::from_store(&store, Some(path.clone()), 0);
        let mut rng = testkit::SplitMix64::new(0x4E91A7);
        // The first publish copies the labels out of the mapped file.
        let mut last = engine.publish(false).unwrap().store;
        let (mut deletes, mut folds, mut shared) = (0, 0, 0);
        while engine.pending() < DELTAS {
            // Every fourth delta deletes an edge of the served graph, until
            // the last few inserts leave both overlays patched.
            let u = rng.next_below(N as u64) as u32;
            let adj = last.graph().neighbors(u);
            let deleting = engine.pending() % 4 == 3 && engine.pending() < DELTAS - 8;
            let v = if deleting && !adj.is_empty() {
                adj[rng.next_below(adj.len() as u64) as usize]
            } else {
                rng.next_below(N as u64) as u32
            };
            let delta = if last.graph().has_edge(u, v) {
                EdgeDelta::delete(u, v)
            } else {
                EdgeDelta::insert(u, v)
            };
            if u == v || engine.apply(&[delta]).unwrap() == 0 {
                continue;
            }
            let published = engine.publish(false).unwrap();
            let (graph, index) = (published.store.graph(), published.store.index());
            if published.folded {
                assert!(!graph.is_patched() && !index.is_patched(), "{delta}: fold");
                folds += 1;
            } else {
                let (was_graph, was_index) = (last.graph(), last.index());
                assert_eq!(
                    graph.unpatched().csr_neighbors().as_ptr(),
                    was_graph.unpatched().csr_neighbors().as_ptr(),
                    "{delta}: a publish copied the CSR"
                );
                if published.phases.full_relabels == 0 {
                    assert_eq!(
                        index.unpatched().label_entries().as_ptr(),
                        was_index.unpatched().label_entries().as_ptr(),
                        "{delta}: a publish copied the labels"
                    );
                }
                shared += 1;
            }
            deletes += usize::from(delta.op == DeltaOp::Delete);
            last = published.store;
        }
        assert!(
            deletes >= DELTAS / 5 && folds > 0 && shared > 0,
            "{deletes} deletes, {folds} folds, {shared} sharing publishes"
        );
        let rows = (last.graph().patched_rows(), last.index().patched_rows());
        assert!(
            rows.0 > 0 && rows.1 > 0,
            "the last generation is not patched: {rows:?}"
        );
        let reopened = reopen_like(&last, "over the bound");
        std::fs::remove_file(&path).ok();
        assert_eq!(reopened.journal().unwrap().len(), DELTAS);
        assert!(!reopened.graph().is_patched() && !reopened.index().is_patched());
    }

    /// Every answer `store` gives from a few sources equals BFS on
    /// `oracle`.
    fn assert_answers_match(store: &IndexStore, oracle: &DeltaGraph<'_>, what: &str) {
        let mut ctx = QueryContext::new();
        let n = oracle.num_vertices() as u32;
        for source in [0, n / 3, n - 1] {
            let want = hcl_core::bfs::distances_from(oracle, source);
            for target in (0..n).step_by(7) {
                let got = store
                    .index()
                    .query_with(store.graph(), &mut ctx, source, target);
                let want = Some(want[target as usize]).filter(|&d| d != hcl_core::INFINITY);
                assert_eq!(got, want, "{what}: ({source}, {target})");
            }
        }
    }

    /// A publish folds exactly when an overlay holds more than `n / 64`
    /// patched rows: the generation before it is patched, the folding one
    /// and the next are flat, and every one answers like the BFS oracle —
    /// also once a delete's full relabel has replaced the label base.
    #[test]
    fn the_publish_that_crosses_the_overlay_bound_folds_to_a_flat_generation() {
        let n = if cfg!(miri) { 640 } else { 3_000 };
        let (graph, mut engine) = engine_for(n, 8, 0xF01D);
        let limit = n / FOLD_DIVISOR;
        let mut oracle = DeltaGraph::new(graph.as_view());
        let mut rng = testkit::SplitMix64::new(0xF01D);
        let hub = graph.top_k_by_degree(1)[0];
        for phase in ["inserts", "after a full relabel"] {
            if phase != "inserts" {
                // Deleting an edge at the top landmark affects it.
                let w = oracle.neighbors(hub)[0];
                engine.apply(&[EdgeDelta::delete(hub, w)]).unwrap();
                oracle.apply(EdgeDelta::delete(hub, w)).unwrap();
                let published = engine.publish(false).unwrap();
                assert_eq!(published.phases.full_relabels, 1, "{phase}");
                assert_eq!(published.store.index().patched_rows(), 0, "{phase}");
                assert_answers_match(&published.store, &oracle, phase);
            }
            let mut folded = false;
            while !folded {
                let (u, v) = (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                );
                if u == v || oracle.has_edge(u, v) {
                    continue;
                }
                engine.apply(&[EdgeDelta::insert(u, v)]).unwrap();
                oracle.apply(EdgeDelta::insert(u, v)).unwrap();
                let rows = engine.live.rows();
                let published = engine.publish(false).unwrap();
                let (graph, index) = (published.store.graph(), published.store.index());
                let what = format!("{phase}: +{u} {v} over {rows:?} rows");
                folded = rows.iter().any(|&r| r > limit);
                assert_eq!(published.folded, folded, "{what}");
                assert_eq!(graph.is_patched(), !folded, "{what}");
                if folded {
                    assert!(!index.is_patched(), "{what}");
                    assert_eq!(engine.live.rows(), [0, 0], "{what}");
                } else {
                    assert_eq!(graph.patched_rows(), rows[0], "{what}");
                    assert_eq!(index.patched_rows(), rows[1], "{what}");
                }
                assert_answers_match(&published.store, &oracle, &what);
            }
            // The generation after a fold starts a fresh overlay.
            let next = engine.publish(false).unwrap();
            assert!(!next.folded && !next.store.graph().is_patched(), "{phase}");
            assert_answers_match(&next.store, &oracle, phase);
        }
    }

    #[test]
    fn publish_stamps_the_live_answers_onto_the_shared_image() {
        let (graph, mut engine) = engine_for(30, 4, 5);
        engine.apply(&[EdgeDelta::insert(2, 29)]).unwrap();
        let published = engine.publish(false).unwrap();
        assert!(!published.compacted);
        assert_eq!(published.bytes, None, "no file to write back to");
        let store = published.store;
        // What a reopen would produce: the image untouched, the delta in
        // the journal, the live state served.
        assert_eq!(store.journal().unwrap().deltas, [EdgeDelta::insert(2, 29)]);
        assert_eq!(store.base_graph().num_edges(), graph.num_edges());
        assert_eq!(store.graph().num_edges(), graph.num_edges() + 1);
        let mut ctx = QueryContext::new();
        assert_eq!(
            store.index().query_with(store.graph(), &mut ctx, 2, 29),
            Some(1)
        );
        assert_eq!(engine.pending(), 1);
    }
}
