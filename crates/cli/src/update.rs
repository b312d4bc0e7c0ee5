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
//!   already-validated image and carrying the live state in its replayed
//!   slot: answers identical to that reopen's, with nothing serialised or
//!   re-validated. The live state is *frozen*, not copied: the generation
//!   shares the graph and label arrays of the engine's last fold (the same
//!   `Arc`s every generation since holds, so they are resident once) and
//!   gets a frozen copy of only the adjacency and label rows patched since
//!   that fold, plus the patched highway — `O(rows patched + n / 64)`,
//!   whatever the size of the graph.
//! * **fold** — once either overlay holds more than `n / FOLD_DIVISOR`
//!   patched rows, the publish first splices both into fresh base arrays
//!   (`DeltaGraph::to_graph`, `DynamicIndex::flatten`: the previous arrays
//!   copied run by run with the patched rows in between) and serves those
//!   flat. That bounds what each freeze copies, and spreads the `O(n + m)`
//!   splice over the publishes that filled the overlay.
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
use hcl_index::BuildContext;
use hcl_store::{IndexStore, JournalWriter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A publish folds both overlays into fresh base arrays once either holds
/// more than `n / FOLD_DIVISOR` patched rows: that bounds what each freeze
/// copies, and amortises the `O(n + m)` splice over the publishes before it.
const FOLD_DIVISOR: usize = 64;

/// What one update batch cost: where it spent its time, measured at the
/// engine's own boundaries, and how much of the index its repairs touched.
/// The caller adds `swap` (it owns the generation handle).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct UpdatePhases {
    /// Label repair (`DynamicIndex::apply_and_repair`).
    pub(crate) repair: Duration,
    /// Live state made servable, once per batch: the rows patched since
    /// the last fold frozen beside the shared base arrays (`DeltaPatches::
    /// freeze`, `DynamicIndex::freeze`), or — when the batch folds — the
    /// fold's splice into fresh base arrays (`DeltaGraph::to_graph`,
    /// `DynamicIndex::flatten`, `O(n + m)` bytes moved) first.
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
    /// Whether the publish spliced the overlays into fresh base arrays
    /// (an overlay outgrew `n / FOLD_DIVISOR` rows, or a compaction needed
    /// flat arrays); the generation is then flat.
    pub(crate) folded: bool,
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
    /// The live graph as of the last fold, shared with every generation
    /// stamped since; `patches` holds what was applied after it.
    live_graph: Arc<Graph>,
    /// Adjacency edits applied since the last fold: the detached half of
    /// the overlay repairs run on, kept across `apply` calls and frozen
    /// into each generation until the next fold splices it.
    patches: DeltaPatches,
    /// The live labels: the label arrays of the last fold (the same `Arc`
    /// every generation since holds) plus the labels repaired after it.
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

    /// The fold: splices the adjacency patches into a fresh live graph and
    /// the label patches into fresh label arrays, both adopted as the new
    /// base with nothing left pending.
    fn fold(&mut self) {
        if !self.patches.is_empty() {
            let patches = std::mem::take(&mut self.patches);
            let graph = DeltaGraph::reattach(self.live_graph.as_view(), patches).to_graph();
            self.live_graph = Arc::new(graph);
        }
        self.dynamic.flatten();
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
    /// image and the last fold's arrays under a frozen overlay; when
    /// `force_compact` is set or the `--compact-after` threshold is reached
    /// (and anything is pending), the live state is instead folded,
    /// published as a whole new container and reopened.
    pub(crate) fn publish(&mut self, force_compact: bool) -> Result<Published, String> {
        let pending = self.pending();
        let compacting = pending > 0
            && (force_compact || (self.compact_after > 0 && pending >= self.compact_after));
        let t0 = Instant::now();
        let limit = self.dynamic.num_vertices() / FOLD_DIVISOR;
        let rows = [self.patches.num_patched(), self.dynamic.patched_rows()];
        let folded = rows.iter().any(|&r| r > 0) && (compacting || rows.iter().any(|&r| r > limit));
        if folded || compacting {
            self.fold();
        }
        let (graph, index) = (self.patches.freeze(&self.live_graph), self.dynamic.freeze());
        self.phases.materialise += t0.elapsed();

        let t0 = Instant::now();
        let (store, written) = if compacting {
            let store = self
                .writer
                .compact(graph.base(), index.base())
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
            folded,
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
    /// script of inserts and deletes published one by one: the live
    /// generation, spliced, equals the reopened file's flat arrays. A
    /// publish that does not fold serves the previous generation's base
    /// arrays themselves (the labels' too, unless a delete relabelled).
    #[test]
    fn reopening_the_file_replays_to_the_last_published_generation_byte_for_byte() {
        const DELTAS: usize = 40;
        let graph = testkit::barabasi_albert(640, 3, 21);
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
        let (mut deletes, mut folds, mut shared) = (0, 0, 0);
        while engine.pending() < DELTAS {
            // Every fourth delta deletes an edge of the served graph, until
            // the last few inserts leave both overlays patched.
            let u = rng.next_below(640) as u32;
            let adj = last.graph().neighbors(u);
            let deleting = engine.pending() % 4 == 3 && engine.pending() < DELTAS - 8;
            let v = if deleting && !adj.is_empty() {
                adj[rng.next_below(adj.len() as u64) as usize]
            } else {
                rng.next_below(640) as u32
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
        let reopened = IndexStore::open(&path);
        std::fs::remove_file(&path).ok();
        let reopened = reopened.unwrap();

        assert_eq!(reopened.journal().unwrap().len(), DELTAS);
        let (live_graph, live_index) = last.to_owned_parts();
        let (graph, index) = (reopened.graph(), reopened.index());
        assert_eq!(graph.csr_offsets(), live_graph.csr_offsets());
        assert_eq!(graph.csr_neighbors(), live_graph.csr_neighbors());
        let live = live_index.as_view();
        assert_eq!(index.landmarks(), live.landmarks());
        assert_eq!(index.label_offsets(), live.label_offsets());
        assert_eq!(index.label_entries(), live.label_entries());
        assert_eq!(index.highway(), live.highway());
        assert_eq!(last.index().highway(), live.highway());
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
        const N: usize = 3_000;
        let (graph, mut engine) = engine_for(N, 8, 0xF01D);
        let limit = N / FOLD_DIVISOR;
        let mut oracle = DeltaGraph::new(graph.as_view());
        let mut rng = testkit::SplitMix64::new(0xF01D);
        let hub = graph.top_k_by_degree(1)[0];
        for phase in ["inserts", "after a full relabel"] {
            if phase != "inserts" {
                // Deleting an edge at the top landmark affects it.
                let w = oracle.neighbors(hub)[0];
                engine.apply(EdgeDelta::delete(hub, w)).unwrap();
                oracle.apply(EdgeDelta::delete(hub, w)).unwrap();
                let published = engine.publish(false).unwrap();
                assert_eq!(published.phases.full_relabels, 1, "{phase}");
                assert_eq!(published.store.index().patched_rows(), 0, "{phase}");
                assert_answers_match(&published.store, &oracle, phase);
            }
            let mut folded = false;
            while !folded {
                let (u, v) = (
                    rng.next_below(N as u64) as u32,
                    rng.next_below(N as u64) as u32,
                );
                if u == v || oracle.has_edge(u, v) {
                    continue;
                }
                engine.apply(EdgeDelta::insert(u, v)).unwrap();
                oracle.apply(EdgeDelta::insert(u, v)).unwrap();
                let rows = [engine.patches.num_patched(), engine.dynamic.patched_rows()];
                let published = engine.publish(false).unwrap();
                let (graph, index) = (published.store.graph(), published.store.index());
                let what = format!("{phase}: +{u} {v} over {rows:?} rows");
                folded = rows.iter().any(|&r| r > limit);
                assert_eq!(published.folded, folded, "{what}");
                assert_eq!(graph.is_patched(), !folded, "{what}");
                if folded {
                    assert!(!index.is_patched(), "{what}");
                    assert_eq!(engine.patches.num_patched(), 0, "{what}");
                    assert_eq!(engine.dynamic.patched_rows(), 0, "{what}");
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
