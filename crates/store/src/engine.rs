//! The update engine: the one place edge deltas become served state, for
//! live updates and open-time replay alike.
//!
//! [`LiveState`] is the live graph and labels — one `PatchedGraph` and
//! one `PatchedIndex`: the base arrays of the last fold (the container
//! image's own, until one folds) plus the rows patched since — maintained
//! incrementally by `hcl-index`'s repair path (never a full rebuild). It
//! starts as a clone of the pair a store serves, so taking a served state
//! under edit copies nothing. It holds the fold rule: publishing it folds
//! first once either overlay holds more than `n / FOLD_DIVISOR` patched
//! rows. An open replays a pending journal through it, so a reopened file
//! is exactly what the engine that appended the journal served, patched
//! or flat.
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
//!   already-validated image and serving the live state: answers identical
//!   to that reopen's, with nothing serialised or re-validated. The live
//!   state is *cloned*, not copied (a clone of each patched type is a
//!   generation): the generation shares the graph and label arrays of the
//!   last fold — the image's own until one folds — (the same `Arc`s every
//!   generation since holds, so they are resident once) and the
//!   copy-on-write overlays of the rows patched since, chunks of 4 096 rows
//!   under an `Arc`'d spine, plus the patched highway. The edits of the
//!   next batch copy what they write to while a generation shares it: each
//!   overlay's spine (`n / 4 096` pointers) once, each chunk they touch
//!   once, the highway once. So a publish costs the chunks its update
//!   touched plus the spines, whatever the size of the graph and whatever
//!   was patched before; `UpdatePhases::copied_bytes` counts it.
//! * **fold** — once either overlay holds more than `n / FOLD_DIVISOR`
//!   patched rows, the publish first splices both into fresh base arrays
//!   (`PatchedGraph::flatten`, `PatchedIndex::flatten`: the previous arrays
//!   copied run by run with the patched rows in between) and serves those
//!   flat. That bounds the overlays' memory and read cost, and spreads the
//!   `O(n + m)` splice over the publishes that filled them.
//!
//! Only a compacting publish (the `compact_after` threshold reached, or a
//! forced compaction) writes a whole container — the live state as the new
//! base, empty journal, no tail — and then serves a validated reopen of it,
//! which bounds both open-time replay and the memory the shared image pins.
//!
//! The engine is transport-agnostic: a caller drives it file-to-file or
//! behind a mutex from a serving loop. This file is on the request-serving
//! path (the `no-panics` lint covers it): every failure is a typed
//! [`UpdateError`], never a panic that would take a serving loop down.

use crate::{IndexStore, JournalWriter, StoreError};
use hcl_core::{DeltaError, EdgeDelta, PatchedGraph};
use hcl_index::{BuildContext, PatchedIndex, RepairOutcome};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A publish folds both overlays into fresh base arrays once either holds
/// more than `n / FOLD_DIVISOR` patched rows: that bounds the overlays'
/// memory and read cost, and amortises the `O(n + m)` splice over the
/// publishes before it.
const FOLD_DIVISOR: usize = 64;

/// The live graph and labels: the base arrays of the last fold, shared
/// with every generation published since, plus the edits applied after it.
pub(crate) struct LiveState {
    graph: PatchedGraph,
    index: PatchedIndex,
    /// Reused BFS scratch for the repair path.
    cx: BuildContext,
}

impl LiveState {
    /// Continues editing `graph` and `index`, which share their arrays and
    /// overlays with whoever else holds clones of them.
    pub(crate) fn new(graph: PatchedGraph, index: PatchedIndex) -> Self {
        Self {
            graph,
            index,
            cx: BuildContext::new(),
        }
    }

    /// Applies one delta through incremental label repair. An ineffective
    /// delta (inserting an existing edge, deleting a missing one) returns
    /// `applied: false`; an invalid one (out-of-range endpoint, self-loop)
    /// is an error and changes nothing.
    pub(crate) fn apply(&mut self, delta: EdgeDelta) -> Result<RepairOutcome, DeltaError> {
        self.index
            .apply_and_repair(&mut self.graph, delta, &mut self.cx)
    }

    /// Patched rows in the graph and in the label overlay.
    fn rows(&self) -> [usize; 2] {
        [self.graph.num_patched(), self.index.patched_rows()]
    }

    /// The live state for serving: clones of both, which share the base
    /// arrays and the overlays of the rows patched since the last fold.
    /// Folds first when `fold` is set or either overlay holds more than
    /// `n / FOLD_DIVISOR` rows; the flag says whether a fold spliced any
    /// rows (the result is then flat).
    pub(crate) fn publish(&mut self, fold: bool) -> (PatchedGraph, PatchedIndex, bool) {
        let (limit, rows) = (self.index.num_vertices() / FOLD_DIVISOR, self.rows());
        let folded = rows.iter().any(|&r| r > 0) && (fold || rows.iter().any(|&r| r > limit));
        if folded || fold {
            self.graph.flatten();
            self.index.flatten();
        }
        (self.graph.clone(), self.index.clone(), folded)
    }

    /// Bytes copied since the last call: both overlays' spines and chunks
    /// and the highway, each copied on the first write while a published
    /// generation shared it, plus the arrays of every fold.
    fn take_copied_bytes(&mut self) -> u64 {
        (self.graph.take_copied_bytes() + self.index.take_copied_bytes()) as u64
    }
}

/// What one update batch cost: where it spent its time, measured at the
/// engine's own boundaries, and how much of the index its repairs touched.
/// The caller adds `swap` (it owns the generation handle).
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdatePhases {
    /// Label repair (`PatchedIndex::apply_and_repair`).
    pub repair: Duration,
    /// Live state made servable, once per batch: the overlays cloned
    /// beside the shared base arrays (`Arc` clones), or — when the batch
    /// folds — the fold's splice into fresh base arrays
    /// (`PatchedGraph::flatten`, `PatchedIndex::flatten`, `O(n + m)` bytes
    /// moved) first. The copies on write land in `repair`.
    pub materialise: Duration,
    /// Made durable: the frame append, or the whole-container publish and
    /// reopen of a compaction.
    pub persist: Duration,
    /// The generation swap.
    pub swap: Duration,
    /// The engine's adoption of the served state: `UpdateEngine::from_store`
    /// cloning the served graph and labels (`Arc` clones, nothing copied).
    /// Paid once, by the first batch.
    pub adopt: Duration,
    /// Bytes the batch copied: each overlay's spine and each chunk its
    /// edits touched while a published generation (the served one, for
    /// the first batch) shared them, the highway likewise, plus the arrays
    /// a fold spliced.
    pub copied_bytes: u64,
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
    /// `(name, duration)` per phase, in pipeline order with the one-off
    /// `adopt` last; the names are the `phase` label values of
    /// `hcl_update_phase_seconds_total`.
    pub fn named(&self) -> [(&'static str, Duration); 5] {
        [
            ("repair", self.repair),
            ("materialise", self.materialise),
            ("persist", self.persist),
            ("swap", self.swap),
            ("adopt", self.adopt),
        ]
    }
}

/// `repair=0.1ms materialise=0.0ms persist=0.2ms swap=0.0ms adopt=0.0ms
/// affected=3/41 copied=4424B`.
impl std::fmt::Display for UpdatePhases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, took) in self.named() {
            write!(f, "{name}={:.1}ms ", took.as_secs_f64() * 1e3)?;
        }
        write!(
            f,
            "affected={}/{} copied={}B",
            self.affected_landmarks, self.affected_vertices, self.copied_bytes
        )
    }
}

/// What one [`UpdateEngine::publish`] call produced.
pub struct Published {
    /// The generation to serve: shares the validated image with its
    /// predecessor (or, after a compaction, is a validated reopen).
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
/// the failed call did is served: [`rebase`](UpdateEngine::rebase) the
/// engine onto the generation being served before its next batch.
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
    /// The live state starts as a clone of the pair `store` serves, timed
    /// as the first batch's `adopt` phase.
    pub fn from_store(store: &IndexStore, path: Option<PathBuf>, compact_after: usize) -> Self {
        let t0 = Instant::now();
        let live = LiveState::new(store.graph.clone(), store.index.clone());
        Self {
            writer: JournalWriter::new(store, path),
            live,
            staged: Vec::new(),
            compact_after,
            phases: UpdatePhases {
                adopt: t0.elapsed(),
                ..UpdatePhases::default()
            },
        }
    }

    /// Restarts the engine from `store`, the generation being served,
    /// after a failed call: the served pair and the journal writer are
    /// cloned again, as [`from_store`](UpdateEngine::from_store) clones
    /// them, and the staged deltas and phase times are dropped, so nothing
    /// the failed batch did is kept. The repair's scratch is kept, so the
    /// next batch does not allocate it again.
    pub fn rebase(&mut self, store: &IndexStore) {
        let t0 = Instant::now();
        self.live.graph = store.graph.clone();
        self.live.index = store.index.clone();
        self.writer = JournalWriter::new(store, self.writer.path().map(Into::into));
        self.staged.clear();
        self.phases = UpdatePhases {
            adopt: t0.elapsed(),
            ..UpdatePhases::default()
        };
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
    /// image, the last fold's arrays and the live overlays; when
    /// `force_compact` is set or the `compact_after` threshold is reached
    /// (and anything is pending), the live state is instead folded,
    /// published as a whole new container and reopened.
    pub fn publish(&mut self, force_compact: bool) -> Result<Published, UpdateError> {
        let pending = self.pending();
        let compacting = pending > 0
            && (force_compact || (self.compact_after > 0 && pending >= self.compact_after));
        let t0 = Instant::now();
        let (graph, index, folded) = self.live.publish(compacting);
        self.phases.materialise += t0.elapsed();
        self.phases.copied_bytes += self.live.take_copied_bytes();

        let t0 = Instant::now();
        let (store, written) = if compacting {
            let store = self
                .writer
                .compact(graph.as_view(), index.as_view())
                .map_err(UpdateError::Compact)?;
            // Edit on over the reopened image: the old image (its file
            // now unlinked) and any arrays folded from it are released
            // once no generation holds them.
            (self.live.graph, self.live.index) = (store.graph.clone(), store.index.clone());
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
    use hcl_core::{testkit, DeltaOp, Graph, Overlay, VertexId};
    use hcl_index::{BuildOptions, HighwayCoverIndex, QueryContext};
    use std::collections::BTreeSet;
    use std::sync::Arc;

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

    /// A failed batch leaves the engine rebased onto the served store:
    /// the deltas before the refused one are gone, and the BFS scratch the
    /// first repair sized to the graph is still there for the next one.
    #[test]
    fn a_rebase_drops_the_failed_batch_and_keeps_the_repair_scratch() {
        let graph = testkit::barabasi_albert(200, 3, 5);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: 4,
                ..Default::default()
            },
        );
        let store = IndexStore::from_bytes(&crate::serialize(&graph, &index).unwrap()).unwrap();
        let mut engine = UpdateEngine::from_store(&store, None, 0);
        assert_eq!(engine.live.cx.scratch_capacity(), 0);
        let far = |u: VertexId| (0..200).rev().find(|&v| v != u && !graph.has_edge(u, v));
        let (u, v) = (0, far(0).expect("a sparse graph has non-neighbours"));
        assert_eq!(engine.apply(&[EdgeDelta::insert(u, v)]).unwrap(), 1);
        let capacity = engine.live.cx.scratch_capacity();
        assert!(capacity >= 200, "{capacity}");

        let (w, x) = (1, far(1).expect("a sparse graph has non-neighbours"));
        let refused = engine.apply(&[EdgeDelta::insert(w, x), EdgeDelta::insert(3, 3)]);
        assert!(matches!(refused, Err(UpdateError::Invalid { .. })));
        engine.rebase(&store);
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.live.cx.scratch_capacity(), capacity);

        // Nothing of the failed batch, nor of the unpublished insert before
        // it, is served; the next batch repairs on the kept scratch.
        assert_eq!(engine.apply(&[EdgeDelta::insert(w, x)]).unwrap(), 1);
        assert_eq!(engine.live.cx.scratch_capacity(), capacity);
        let live = engine.publish(false).unwrap().store;
        assert_eq!(live.journal().unwrap().len(), 1);
        assert!(live.graph().neighbors(w).contains(&x));
        assert!(!live.graph().neighbors(u).contains(&v));
        let mut ctx = QueryContext::new();
        assert_eq!(
            live.index().query_with(live.graph(), &mut ctx, w, x),
            Some(1)
        );
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
        // The first generation shares the fresh overlays over the mapped
        // file's arrays.
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
    fn assert_answers_match(store: &IndexStore, oracle: &PatchedGraph, what: &str) {
        let mut ctx = QueryContext::new();
        let n = oracle.num_vertices() as u32;
        for source in [0, n / 3, n - 1] {
            let want = hcl_core::bfs::distances_from(oracle.as_view(), source);
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
        let mut oracle = PatchedGraph::new(graph.as_view());
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

    /// Everything a generation serves, read out: every adjacency row,
    /// every label, the highway, and the answers from a few sources.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        rows: Vec<Vec<u32>>,
        labels: Vec<Vec<(u32, u32)>>,
        highway: Vec<u32>,
        answers: Vec<Option<u32>>,
    }

    fn snapshot(store: &IndexStore) -> Snapshot {
        let (graph, index) = (store.graph(), store.index());
        let n = graph.num_vertices() as u32;
        let mut ctx = QueryContext::new();
        let answers = [0, n / 2, n - 1]
            .into_iter()
            .flat_map(|s| (0..n).step_by(11).map(move |t| (s, t)))
            .map(|(s, t)| index.query_with(graph, &mut ctx, s, t))
            .collect();
        Snapshot {
            rows: (0..n).map(|v| graph.neighbors(v).to_vec()).collect(),
            labels: (0..n).map(|v| index.label(v).collect()).collect(),
            highway: index.highway().to_vec(),
            answers,
        }
    }

    /// A served generation is immutable: inserts published after it, a
    /// delete that relabels, and a fold leave every row, label, highway
    /// cell and answer it serves exactly as they were when it went live.
    #[test]
    fn a_published_generation_reads_its_snapshot_through_later_updates() {
        let n = if cfg!(miri) { 640 } else { 3_000 };
        let (graph, mut engine) = engine_for(n, 8, 0x150);
        let mut rng = testkit::SplitMix64::new(0x150);
        let mut live = PatchedGraph::new(graph.as_view());
        let mut publish = |engine: &mut UpdateEngine, delta: Option<EdgeDelta>| {
            let delta = delta.unwrap_or_else(|| loop {
                let (u, v) = (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                );
                if u != v && !live.has_edge(u, v) {
                    break EdgeDelta::insert(u, v);
                }
            });
            live.apply(delta).unwrap();
            assert_eq!(engine.apply(&[delta]).unwrap(), 1);
            engine.publish(false).unwrap()
        };
        // The generation to keep: patched rows, patched labels and a
        // patched highway (an edge between two landmarks at distance 2).
        let built = engine.live.index.to_index();
        let (landmarks, highway) = (built.as_view().landmarks(), built.as_view().highway());
        let k = landmarks.len();
        let far = (0..k * k)
            .find(|&c| highway[c] == 2)
            .expect("two landmarks 2 apart");
        let shortcut = EdgeDelta::insert(landmarks[far / k], landmarks[far % k]);
        while !publish(&mut engine, None).store.index().is_patched() {}
        let old = publish(&mut engine, Some(shortcut)).store;
        assert!(old.index().highway() != highway);
        assert!(old.graph().is_patched() && old.index().is_patched());
        let before = snapshot(&old);

        for _ in 0..5 {
            publish(&mut engine, None);
        }
        assert_eq!(snapshot(&old), before, "after more inserts");

        let hub = graph.top_k_by_degree(1)[0];
        let w = old.graph().neighbors(hub)[0];
        let relabelled = publish(&mut engine, Some(EdgeDelta::delete(hub, w)));
        assert_eq!(relabelled.phases.full_relabels, 1);
        assert_eq!(snapshot(&old), before, "after a full relabel");

        while !publish(&mut engine, None).folded {}
        assert_eq!(snapshot(&old), before, "after a fold");
    }

    /// The overlays a published generation serves.
    fn overlays(store: &IndexStore) -> (&Overlay<VertexId>, &Overlay<u32>) {
        (store.graph.patches(), store.index.labels())
    }

    /// What the edits of one update copy on write in an overlay that the
    /// generation before shares (`was`): its spine, if they touched any
    /// chunk, plus each touched chunk `was` held.
    fn cow_bytes<T>(was: &Overlay<T>, touched: &BTreeSet<usize>) -> u64 {
        let chunks = was.chunks();
        let spine = std::mem::size_of_val(chunks) * usize::from(!touched.is_empty());
        let held = touched.iter().filter_map(|&c| chunks[c].as_ref());
        (spine + held.map(|chunk| chunk.bytes()).sum::<usize>()) as u64
    }

    /// Every chunk outside `touched` is `was`'s own `Arc` (or absent from
    /// both); every touched one is a new chunk.
    fn assert_shares_untouched<T>(was: &Overlay<T>, now: &Overlay<T>, touched: &BTreeSet<usize>) {
        for (c, (was, now)) in was.chunks().iter().zip(now.chunks()).enumerate() {
            let shared = match (was, now) {
                (Some(was), Some(now)) => Arc::ptr_eq(was, now),
                (was, now) => was.is_none() && now.is_none(),
            };
            assert_eq!(shared, !touched.contains(&c), "chunk {c} of {touched:?}");
        }
    }

    /// The cost law of a publish, exactly, for every publish of a seeded
    /// insert script on a graph of three chunks: the chunks the update did
    /// not touch are the previous generation's own, and `copied_bytes` is
    /// each written overlay's spine, plus the previous generation's copy
    /// of each chunk the update touched, plus the highway when the update
    /// wrote it — plus, on the publish that folds, the arrays the fold
    /// spliced. No term grows with `n / 64` or with what was patched before.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_publish_copies_the_spines_and_the_chunks_its_update_touched() {
        use hcl_core::delta::CHUNK_ROWS;
        use std::mem::size_of_val;
        const N: usize = 9_000;
        let (graph, mut engine) = engine_for(N, 8, 0xC0);
        let mut rng = testkit::SplitMix64::new(0xC0);
        let mut live = PatchedGraph::new(graph.as_view());
        // The first generation shares the fresh overlays, so every update
        // after it copies on write.
        let mut last = engine.publish(false).unwrap().store;
        let (mut publishes, mut chunks_copied, mut highways) = (0, 0, 0);
        loop {
            // Every eighth insert joins two landmarks 2 or more apart while
            // any are, so that the highway is written too.
            let (landmarks, highway) = (last.index().landmarks(), last.index().highway());
            let k = landmarks.len();
            let far = (0..k * k).find(|&c| highway[c] >= 2 && highway[c] != hcl_core::INFINITY);
            let (u, v) = match far {
                Some(c) if publishes % 8 == 0 => (landmarks[c / k], landmarks[c % k]),
                _ => (
                    rng.next_below(N as u64) as u32,
                    rng.next_below(N as u64) as u32,
                ),
            };
            if u == v || live.has_edge(u, v) {
                continue;
            }
            live.apply(EdgeDelta::insert(u, v)).unwrap();
            engine.apply(&[EdgeDelta::insert(u, v)]).unwrap();
            let published = engine.publish(false).unwrap();
            let now = &published.store;
            let what = format!("publish {publishes}: +{u} {v}");

            let (was_graph, was_labels) = overlays(&last);
            let graph_chunks: BTreeSet<usize> =
                [u, v].iter().map(|&r| r as usize / CHUNK_ROWS).collect();
            let label_chunks: BTreeSet<usize> = (0..N as u32)
                .filter(|&x| !last.index().label(x).eq(now.index().label(x)))
                .map(|x| x as usize / CHUNK_ROWS)
                .collect();
            let highway = last.index().highway();
            let highway_written = highway != now.index().highway();
            let mut law = cow_bytes(was_graph, &graph_chunks)
                + cow_bytes(was_labels, &label_chunks)
                + size_of_val(highway) as u64 * u64::from(highway_written);
            if published.folded {
                let (graph, index) = (now.graph(), now.index());
                let arrays = [
                    size_of_val(graph.csr_offsets()) + size_of_val(graph.csr_neighbors()),
                    size_of_val(index.landmarks()) + size_of_val(index.landmark_rank()),
                    size_of_val(index.label_offsets()) + size_of_val(index.label_entries()),
                    size_of_val(index.highway()),
                ];
                assert!(
                    last.index().is_patched(),
                    "{what}: the labels had rows to fold"
                );
                law += arrays.iter().sum::<usize>() as u64;
            } else {
                let (now_graph, now_labels) = overlays(now);
                assert_shares_untouched(was_graph, now_graph, &graph_chunks);
                assert_shares_untouched(was_labels, now_labels, &label_chunks);
            }
            assert_eq!(published.phases.copied_bytes, law, "{what}");
            publishes += 1;
            chunks_copied += graph_chunks.len() + label_chunks.len();
            highways += usize::from(highway_written);
            if published.folded {
                break;
            }
            last = published.store;
        }
        assert!(
            publishes > 20 && chunks_copied > publishes && highways > 1,
            "{publishes} publishes, {chunks_copied} chunks, {highways} highways"
        );
    }

    /// The first update edits over the mapped image instead of a copy of
    /// it: the generation it publishes serves the image's own graph and
    /// label arrays under its overlays, and copies what the cost law above
    /// allows against the served generation's empty overlays — the spines
    /// of the overlays it wrote, and the highway if it wrote it. A reopen,
    /// whose one pending insert stays under the fold bound, replays into
    /// overlays over its own mapped arrays.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_first_update_and_a_replay_edit_over_the_mapped_image() {
        use hcl_core::delta::CHUNK_ROWS;
        use std::mem::size_of_val;
        const N: usize = 9_000;
        let graph = testkit::barabasi_albert(N, 3, 0x5A4E);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: 8,
                ..Default::default()
            },
        );
        let path = std::env::temp_dir().join(format!("hcl_shared_{}.hcl", std::process::id()));
        crate::save(&path, &graph, &index).unwrap();
        let store = IndexStore::open(&path).unwrap();
        assert_eq!(store.backing_kind(), "mmap");
        // Where the graph and label arrays of the image, or of what a
        // store serves under its overlays, live.
        let arrays = |store: &IndexStore, served: bool| {
            let (graph, index) = match served {
                true => (store.graph().unpatched(), store.index().unpatched()),
                false => (store.base_graph(), store.base_index()),
            };
            [
                graph.csr_offsets().as_ptr() as usize,
                graph.csr_neighbors().as_ptr() as usize,
                index.label_offsets().as_ptr() as usize,
                index.label_entries().as_ptr() as usize,
            ]
        };

        // A late, low-degree vertex joined to the top landmark: its label
        // gains that landmark at distance 1.
        let hub = graph.top_k_by_degree(1)[0];
        let leaf = (0..N as u32)
            .rev()
            .find(|&v| !graph.has_edge(v, hub))
            .unwrap();
        let mut engine = UpdateEngine::from_store(&store, Some(path.clone()), 0);
        assert_eq!(engine.apply(&[EdgeDelta::insert(leaf, hub)]).unwrap(), 1);
        let published = engine.publish(false).unwrap();
        let now = &published.store;
        assert!(!published.folded && now.graph().is_patched() && now.index().is_patched());
        assert_eq!(
            arrays(now, true),
            arrays(&store, false),
            "the first update copied the image"
        );

        let (was_graph, was_labels) = overlays(&store);
        let graph_chunks: BTreeSet<usize> = [leaf, hub]
            .iter()
            .map(|&r| r as usize / CHUNK_ROWS)
            .collect();
        let label_chunks: BTreeSet<usize> = (0..N as u32)
            .filter(|&x| !store.index().label(x).eq(now.index().label(x)))
            .map(|x| x as usize / CHUNK_ROWS)
            .collect();
        let highway = store.index().highway();
        let highway_written = highway != now.index().highway();
        let law = cow_bytes(was_graph, &graph_chunks)
            + cow_bytes(was_labels, &label_chunks)
            + size_of_val(highway) as u64 * u64::from(highway_written);
        assert_eq!(published.phases.copied_bytes, law);

        let reopened = IndexStore::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(reopened.graph().is_patched() && reopened.index().is_patched());
        assert_eq!(
            arrays(&reopened, true),
            arrays(&reopened, false),
            "replay copied the image"
        );
    }

    /// The image writer lays out flat arrays only: a patched view is a
    /// typed error, and a compaction handed one writes nothing.
    #[test]
    fn a_patched_view_never_reaches_an_image() {
        let (graph, mut engine) = engine_for(640, 8, 0x1A7);
        let hub = graph.top_k_by_degree(1)[0];
        let leaf = (0..640).rev().find(|&v| !graph.has_edge(v, hub)).unwrap();
        engine.apply(&[EdgeDelta::insert(leaf, hub)]).unwrap();
        let store = engine.publish(false).unwrap().store;
        let (patched_graph, patched_index) = (store.graph(), store.index());
        assert!(patched_graph.is_patched() && patched_index.is_patched());
        let (flat_graph, flat_index) = store.to_owned_parts();
        let cases = [
            ("graph", patched_graph, flat_index.as_view()),
            ("labels", flat_graph.as_view(), patched_index),
        ];
        for (what, graph, index) in cases {
            let laid_out = crate::image_parts(graph, index, Default::default(), None, None);
            assert!(matches!(laid_out, Err(StoreError::Patched)), "{what}");
        }
        let mut writer = JournalWriter::new(&store, None);
        assert!(matches!(
            writer.compact(patched_graph, patched_index),
            Err(StoreError::Patched)
        ));
        assert_eq!(writer.pending(), 1, "the journal is still pending");
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
