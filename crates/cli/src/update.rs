//! Live edge updates: the engine every serving mode routes `+u v` /
//! `-u v` deltas through.
//!
//! [`UpdateEngine`] holds the **live** state — graph plus repairable
//! labels, maintained incrementally by `hcl-index`'s repair path (never a
//! full rebuild) — and a `hcl_store::JournalWriter`, the container's
//! single writer. One call, [`UpdateEngine::publish`], makes a batch of
//! applied deltas durable and servable at a cost proportional to the
//! batch, not the container:
//!
//! * **persist** — the batch goes to the file as one self-checksummed
//!   frame appended after the container image and `fdatasync`ed; the
//!   image is never rewritten. Reopening the file replays the frames
//!   through the same repair code and arrives at the live state.
//! * **publish** — the next generation is an `IndexStore` sharing the
//!   already-validated image and carrying the live graph and flattened
//!   labels in its replayed slot: exactly what that reopen would produce,
//!   with nothing serialised or re-validated. Making the live state flat
//!   is a splice — the previous generation's arrays copied run by run with
//!   the batch's patched rows in between — and labels the batch did not
//!   write are not copied at all: the generation shares the previous one's
//!   label `Arc`, which is also the engine's own base, so labels are
//!   resident once.
//!
//! Only a compacting publish (`--compact-after N` reached, or `hcl update
//! --compact`) writes a whole container — the live state as the new base,
//! empty journal, no tail — and then serves a trusted reopen of it, which
//! bounds both open-time replay and the memory the shared image pins.
//!
//! The engine is deliberately transport-agnostic: the `update`
//! subcommand drives it file-to-file, and every serve transport drives it
//! through the serving pipeline's update step (`pipeline.rs`) behind a
//! mutex — a stdin delta line as a batch of one, a `POST /update` body as
//! one batch.
//!
//! This file is on the request-serving path (the `no-panics` lint
//! covers it): every failure degrades into a `Result` the caller can
//! report and count, never a panic that would take a serving loop down.

use hcl_core::{DeltaGraph, DeltaOp, DeltaPatches, EdgeDelta, Graph};
use hcl_index::repair::{DynamicIndex, RepairOutcome};
use hcl_index::{BuildContext, HighwayCoverIndex};
use hcl_store::{IndexStore, JournalWriter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one update batch cost: where it spent its time, measured at the
/// engine's own boundaries, and how much of the index its repairs touched.
/// The caller adds `swap` (it owns the generation handle).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct UpdatePhases {
    /// Label repair (`DynamicIndex::apply_and_repair`).
    pub(crate) repair: Duration,
    /// Live state made servable, once per batch: the edited graph spliced
    /// into a fresh CSR (`DeltaGraph::to_graph`) and the rewritten labels
    /// into a fresh label array (`DynamicIndex::flatten`, free when the
    /// batch wrote none) — memory-speed copies, `O(n + m)` bytes moved.
    pub(crate) materialise: Duration,
    /// Made durable: the frame append, or the whole-container publish and
    /// reopen of a compaction.
    pub(crate) persist: Duration,
    /// The generation swap.
    pub(crate) swap: Duration,
    /// Landmarks whose distance function an applied delta affected
    /// (`RepairOutcome::affected_landmarks`, summed over the batch).
    pub(crate) affected_landmarks: u64,
    /// `(landmark, vertex)` pairs whose distance dropped — the labels the
    /// batch's insert repairs visited (`RepairOutcome::affected_vertices`).
    pub(crate) affected_vertices: u64,
    /// Deltas whose repair relabelled the whole graph
    /// (`RepairOutcome::full_relabel`).
    pub(crate) full_relabels: u64,
}

impl UpdatePhases {
    /// `(name, duration)` per phase, in pipeline order; the names are the
    /// `phase` label values of `hcl_update_phase_seconds_total`.
    pub(crate) fn named(&self) -> [(&'static str, Duration); 4] {
        [
            ("repair", self.repair),
            ("materialise", self.materialise),
            ("persist", self.persist),
            ("swap", self.swap),
        ]
    }
}

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
pub(crate) struct Published {
    /// The generation to serve: shares the validated image with its
    /// predecessor (or, after a compaction, is a trusted reopen).
    pub(crate) store: IndexStore,
    /// Bytes written to the backing file, or `None` for an in-memory
    /// engine (no `--index` to write back to).
    pub(crate) bytes: Option<u64>,
    /// Whether the journal was folded into a new base
    /// (`--compact-after` threshold reached, or an explicit compact).
    pub(crate) compacted: bool,
    /// Time since the previous publish, by phase (`swap` still zero).
    pub(crate) phases: UpdatePhases,
}

/// Incremental edge-update engine: applies deltas through label repair,
/// journals them for durability, and stamps out the generations that
/// serve them.
pub(crate) struct UpdateEngine {
    /// The container's writer: shared image, pending journal, append
    /// handle to the `--index` file (if any).
    writer: JournalWriter,
    /// The live graph as last materialised, shared with the generations
    /// stamped from it; `patches` holds what was applied since.
    live_graph: Arc<Graph>,
    /// Adjacency edits applied since `live_graph` was materialised: the
    /// detached half of the overlay repairs run on, kept across `apply`
    /// calls so a batch pays one CSR splice, not one per delta.
    patches: DeltaPatches,
    /// The live labels: the last published label arrays (the same `Arc`
    /// the served generation holds) plus the labels repaired since, so a
    /// batch pays one splice, not one per delta.
    dynamic: DynamicIndex,
    /// Deltas applied since the last publish: the next frame.
    staged: Vec<EdgeDelta>,
    /// Reused BFS scratch for the repair path.
    cx: BuildContext,
    /// Fold the journal once it holds this many deltas (0 = never).
    compact_after: usize,
    /// Phase time accumulated since the last publish.
    phases: UpdatePhases,
}

impl UpdateEngine {
    /// Builds the engine from an opened container, continuing its history:
    /// a later [`publish`](UpdateEngine::publish) appends to `path` (the
    /// file `store` was opened from) or, without one, journals in memory.
    pub(crate) fn from_store(
        store: &IndexStore,
        path: Option<PathBuf>,
        compact_after: usize,
    ) -> Self {
        Self {
            writer: JournalWriter::new(store, path),
            live_graph: Arc::new(store.graph().to_owned_graph()),
            patches: DeltaPatches::default(),
            dynamic: DynamicIndex::from_view(store.index()),
            staged: Vec::new(),
            cx: BuildContext::new(),
            compact_after,
            phases: UpdatePhases::default(),
        }
    }

    /// Applies one delta through incremental label repair. An
    /// ineffective delta (inserting an existing edge, deleting a missing
    /// one) returns `applied: false` and is *not* journalled; an invalid
    /// one (out-of-range endpoint, self-loop) is an error and changes
    /// nothing.
    pub(crate) fn apply(&mut self, delta: EdgeDelta) -> Result<RepairOutcome, String> {
        let t0 = Instant::now();
        let mut overlay =
            DeltaGraph::reattach(self.live_graph.as_view(), std::mem::take(&mut self.patches));
        let repaired = self
            .dynamic
            .apply_and_repair(&mut overlay, delta, &mut self.cx);
        self.patches = overlay.detach();
        let outcome = repaired.map_err(|e| format!("applying {delta}: {e}"))?;
        self.phases.repair += t0.elapsed();
        if outcome.applied {
            self.staged.push(delta);
            self.phases.affected_landmarks += outcome.affected_landmarks as u64;
            self.phases.affected_vertices += outcome.affected_vertices as u64;
            self.phases.full_relabels += u64::from(outcome.full_relabel);
        }
        Ok(outcome)
    }

    /// The live graph and flattened labels, brought up to date first: at
    /// most one CSR splice and one label splice, however many deltas were
    /// applied since the last call.
    fn materialised(&mut self) -> (Arc<Graph>, Arc<HighwayCoverIndex>) {
        let t0 = Instant::now();
        if !self.patches.is_empty() {
            let patches = std::mem::take(&mut self.patches);
            let graph = DeltaGraph::reattach(self.live_graph.as_view(), patches).to_graph();
            self.live_graph = Arc::new(graph);
        }
        let index = self.dynamic.flatten();
        self.phases.materialise += t0.elapsed();
        (Arc::clone(&self.live_graph), index)
    }

    /// Pending (applied, not yet compacted) delta count.
    pub(crate) fn pending(&self) -> usize {
        self.writer.pending() + self.staged.len()
    }

    /// Journal folds so far.
    pub(crate) fn compactions(&self) -> u64 {
        self.writer.compactions()
    }

    /// Makes every delta applied since the last publish durable and
    /// returns the generation that serves them. Normally that is one
    /// frame appended to the file and a generation sharing the validated
    /// image; when `force_compact` is set or the `--compact-after`
    /// threshold is reached (and anything is pending), the live state is
    /// instead published as a whole new container and reopened.
    pub(crate) fn publish(&mut self, force_compact: bool) -> Result<Published, String> {
        let (graph, index) = self.materialised();
        let pending = self.pending();
        let compacting = pending > 0
            && (force_compact || (self.compact_after > 0 && pending >= self.compact_after));
        let t0 = Instant::now();
        let (store, written) = if compacting {
            let store = self
                .writer
                .compact(&graph, &index)
                .map_err(|e| format!("compacting the index: {e}"))?;
            let written = store.len_bytes();
            (store, written)
        } else {
            let written = self
                .writer
                .append(&self.staged)
                .map_err(|e| format!("journalling the update: {e}"))?;
            let store = self
                .writer
                .generation(graph, index)
                .map_err(|e| format!("publishing the updated index: {e}"))?;
            (store, written)
        };
        self.staged.clear();
        self.phases.persist += t0.elapsed();
        Ok(Published {
            store,
            bytes: self.writer.path().is_some().then_some(written),
            compacted: compacting,
            phases: std::mem::take(&mut self.phases),
        })
    }
}

// ---------------------------------------------------------------------------
// Delta-line grammar
// ---------------------------------------------------------------------------

/// Splits a serve-loop input line into its delta operation and the `u v`
/// remainder, or `None` when the line is not a delta (a plain query,
/// blank, or comment). `+u v` inserts, `-u v` deletes; whitespace after
/// the sign is allowed.
pub(crate) fn delta_op(line: &str) -> Option<(DeltaOp, &str)> {
    let trimmed = line.trim_start();
    match trimmed.as_bytes().first() {
        Some(b'+') => Some((DeltaOp::Insert, &trimmed[1..])),
        Some(b'-') => Some((DeltaOp::Delete, &trimmed[1..])),
        _ => None,
    }
}

/// Parses the `u v` remainder of a delta line (after [`delta_op`] took
/// the sign), with the same `<source>:<line>` diagnostics the query
/// grammar produces.
pub(crate) fn parse_delta_rest(
    op: DeltaOp,
    rest: &str,
    what: &str,
    lineno: usize,
) -> Result<EdgeDelta, String> {
    match crate::parse_pair_line(rest, what, lineno)? {
        Some((u, v)) => Ok(match op {
            DeltaOp::Insert => EdgeDelta::insert(u, v),
            DeltaOp::Delete => EdgeDelta::delete(u, v),
        }),
        None => Err(format!(
            "{what}:{lineno}: expected two vertex ids after the delta sign"
        )),
    }
}

/// Strict delta-script parsing for `hcl update` input: every non-blank,
/// non-comment line must be a `+u v` or `-u v` delta.
pub(crate) fn parse_delta_line(
    line: &str,
    what: &str,
    lineno: usize,
) -> Result<Option<EdgeDelta>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    match delta_op(trimmed) {
        Some((op, rest)) => parse_delta_rest(op, rest, what, lineno).map(Some),
        None => Err(format!(
            "{what}:{lineno}: expected `+u v` (insert) or `-u v` (delete), got `{trimmed}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testkit;
    use hcl_index::{BuildOptions, QueryContext};

    fn engine_for(n: usize, k: usize, seed: u64) -> (Graph, UpdateEngine) {
        let graph = testkit::barabasi_albert(n, 3, seed);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: k,
                ..Default::default()
            },
        );
        let image = hcl_store::serialize(&graph, &index).unwrap();
        let store = IndexStore::from_bytes(&image).unwrap();
        (graph, UpdateEngine::from_store(&store, None, 0))
    }

    #[test]
    fn delta_lines_parse_and_reject() {
        assert_eq!(
            parse_delta_line("+3 7", "t", 1).unwrap(),
            Some(EdgeDelta::insert(3, 7))
        );
        assert_eq!(
            parse_delta_line("  - 12 4 ", "t", 2).unwrap(),
            Some(EdgeDelta::delete(12, 4))
        );
        assert_eq!(parse_delta_line("# comment", "t", 3).unwrap(), None);
        assert_eq!(parse_delta_line("", "t", 4).unwrap(), None);
        let err = parse_delta_line("3 7", "t", 5).unwrap_err();
        assert!(err.contains("t:5"), "missing location: {err}");
        let err = parse_delta_line("+3", "t", 6).unwrap_err();
        assert!(err.contains("t:6"), "missing location: {err}");
        let err = parse_delta_line("+3 7 9", "t", 7).unwrap_err();
        assert!(err.contains("trailing"), "wrong diagnosis: {err}");
    }

    #[test]
    fn query_lines_are_not_deltas() {
        assert!(delta_op("3 7").is_none());
        assert!(delta_op("# note").is_none());
        assert!(delta_op("").is_none());
        assert!(delta_op("+1 2").is_some());
        assert!(delta_op("-1 2").is_some());
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
        let outcome = engine.apply(EdgeDelta::insert(u, v)).unwrap();
        assert!(outcome.applied);
        assert_eq!(engine.pending(), 1);
        let mut ctx = QueryContext::new();
        let live = engine.publish(false).unwrap().store;
        assert_eq!(
            live.index().query_with(live.graph(), &mut ctx, u, v),
            Some(1)
        );
        // Re-inserting is a no-op and is not journalled.
        let outcome = engine.apply(EdgeDelta::insert(u, v)).unwrap();
        assert!(!outcome.applied);
        assert_eq!(engine.pending(), 1);
        // Invalid deltas are errors and change nothing.
        assert!(engine.apply(EdgeDelta::insert(0, 40)).is_err());
        assert!(engine.apply(EdgeDelta::insert(3, 3)).is_err());
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn compacting_publish_folds_the_journal_into_a_new_base() {
        let (_graph, mut engine) = engine_for(30, 4, 2);
        engine.apply(EdgeDelta::insert(0, 17)).unwrap();
        engine.apply(EdgeDelta::delete(0, 17)).unwrap();
        assert_eq!(engine.pending(), 2);
        let published = engine.publish(true).unwrap();
        assert!(published.compacted);
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.compactions(), 1);
        let journal = published.store.journal().unwrap();
        assert!(journal.is_empty());
        assert_eq!(journal.compactions, 1);
        // Nothing pending: a second compacting publish folds nothing.
        assert!(!engine.publish(true).unwrap().compacted);
        assert_eq!(engine.compactions(), 1);
    }

    /// Journal replay at open runs the same repair over the same deltas,
    /// so it must land on the same bytes as the live engine did — graph
    /// CSR, labels and highway — not merely on the same answers, over a
    /// script of inserts and deletes published one by one. A publish whose
    /// repair wrote no label serves its predecessor's label array itself.
    #[test]
    fn reopening_the_file_replays_to_the_last_published_generation_byte_for_byte() {
        const DELTAS: usize = 32;
        let graph = testkit::barabasi_albert(300, 3, 21);
        let index = HighwayCoverIndex::build_with(
            &graph,
            &BuildOptions {
                num_landmarks: 8,
                ..Default::default()
            },
        );
        let path = std::env::temp_dir().join(format!("hcl_replay_{}.hcl", std::process::id()));
        hcl_store::save(&path, &graph, &index).unwrap();
        let store = IndexStore::open(&path).unwrap();
        let mut engine = UpdateEngine::from_store(&store, Some(path.clone()), 0);

        let mut rng = testkit::SplitMix64::new(0x4E91A7);
        // The first publish copies the labels out of the mapped file.
        let mut last = engine.publish(false).unwrap().store;
        let (mut deletes, mut neutral) = (0, 0);
        while engine.pending() < DELTAS {
            // Every fourth delta deletes an edge of the served graph.
            let u = rng.next_below(300) as u32;
            let adj = last.graph().neighbors(u);
            let v = if engine.pending() % 4 == 3 && !adj.is_empty() {
                adj[rng.next_below(adj.len() as u64) as usize]
            } else {
                rng.next_below(300) as u32
            };
            let delta = if last.graph().has_edge(u, v) {
                EdgeDelta::delete(u, v)
            } else {
                EdgeDelta::insert(u, v)
            };
            if u == v || !engine.apply(delta).unwrap().applied {
                continue;
            }
            let published = engine.publish(false).unwrap();
            let phases = published.phases;
            let wrote_labels = phases.affected_vertices > 0 || phases.full_relabels > 0;
            let shared = published.store.index().label_entries().as_ptr()
                == last.index().label_entries().as_ptr();
            if !wrote_labels {
                assert!(shared, "{delta}: a label-neutral publish copied the labels");
                neutral += 1;
            }
            deletes += usize::from(delta.op == DeltaOp::Delete);
            last = published.store;
        }
        assert!(
            deletes >= DELTAS / 4 && neutral > 0,
            "{deletes} deletes, {neutral} neutral"
        );
        let reopened = IndexStore::open(&path);
        std::fs::remove_file(&path).ok();
        let reopened = reopened.unwrap();

        assert_eq!(reopened.journal().unwrap().len(), DELTAS);
        let (live, replayed) = (last.graph(), reopened.graph());
        assert_eq!(replayed.csr_offsets(), live.csr_offsets());
        assert_eq!(replayed.csr_neighbors(), live.csr_neighbors());
        let (live, replayed) = (last.index(), reopened.index());
        assert_eq!(replayed.landmarks(), live.landmarks());
        assert_eq!(replayed.label_offsets(), live.label_offsets());
        assert_eq!(replayed.label_entries(), live.label_entries());
        assert_eq!(replayed.highway(), live.highway());
    }

    #[test]
    fn publish_stamps_the_live_answers_onto_the_shared_image() {
        let (graph, mut engine) = engine_for(30, 4, 5);
        engine.apply(EdgeDelta::insert(2, 29)).unwrap();
        let published = engine.publish(false).unwrap();
        assert!(!published.compacted);
        assert_eq!(published.bytes, None, "no --index file to write back to");
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
