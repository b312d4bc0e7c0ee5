//! The request pipeline every answer goes through: one value that
//! parses and range-checks a query line, answers it, records what the
//! answer cost, applies a batch of edge deltas through the store's
//! `UpdateEngine`, and prints the shutdown summary.
//!
//! The front ends keep only what is theirs. Stdin serving and `hcl query`
//! (`pool.rs`) feed queries through the worker pool, which keeps input
//! order; the socket server (`server.rs`) frames TCP lines and HTTP
//! exchanges and admits connections. What a query or an update *does*
//! happens here, once, so the diagnostics, the counters, the slow log and
//! the update log line are the same on every transport.
//!
//! This file is on the request-serving path (the `no-panics` lint covers
//! it): a failure degrades into a diagnostic, a counter and an error
//! value, never a panic.

use crate::metrics::ServerMetrics;
use crate::parse_pair_line;
use crate::slowlog::{SlowLog, SlowQuery};
use crate::sync::lock_recover;
use hcl_core::{EdgeDelta, GraphView, VertexId};
use hcl_index::{IndexView, QueryContext, QueryStats};
use hcl_store::{Generation, GenerationHandle, IndexStore, Published, UpdateEngine, UpdateError};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// A parsed, range-checked query and when it arrived: every transport's
/// latency starts here.
pub(crate) struct Request {
    pub(crate) u: VertexId,
    pub(crate) v: VertexId,
    pub(crate) received: Instant,
}

/// An answered [`Request`]: the distance, the generation that produced
/// it, and the probe's breakdown when the setup runs one.
pub(crate) struct Answer {
    pub(crate) request: Request,
    pub(crate) dist: Option<u32>,
    generation: u64,
    /// The probe's breakdown, when the pipeline runs one.
    pub(crate) stats: Option<QueryStats>,
}

/// A generation pinned for answering: its views, built once per chunk or
/// request instead of once per query (per query, building them measured
/// a few percent of a one-worker batch).
pub(crate) struct Pinned<'a> {
    graph: GraphView<'a>,
    index: IndexView<'a>,
    number: u64,
}

impl<'a> Pinned<'a> {
    pub(crate) fn new(generation: &'a Generation) -> Self {
        Self {
            graph: generation.store.graph(),
            index: generation.store.index(),
            number: generation.number,
        }
    }
}

/// What one published update batch did, for the transport's reply.
pub(crate) struct Updated {
    pub(crate) applied: u64,
    pub(crate) ignored: u64,
    pub(crate) pending: usize,
    pub(crate) generation: u64,
}

/// The state a serving process answers and updates from.
pub(crate) struct Pipeline {
    /// The generation being served; swapped by updates and reloads.
    pub(crate) handle: GenerationHandle,
    pub(crate) metrics: ServerMetrics,
    /// `--slow-log-us` / `--slow-log-file`, if enabled.
    slow_log: Option<SlowLog>,
    /// Whether answers run with the stats probe: the slow log needs its
    /// fields, a socket server exports per-mechanism counters from it, and
    /// `query --explain` prints it. Everything else keeps the probe-free
    /// query path.
    probe: bool,
    /// Serialises generation swaps: an update and a reload (including
    /// its whole retry loop) never interleave. Taken before `engine`.
    swap_lock: Mutex<()>,
    /// The live-update engine, created from the served generation by the
    /// first update, rebased onto it by a failed update and dropped by a
    /// reload, so the next update restarts from what is being served.
    engine: Mutex<Option<UpdateEngine>>,
    /// The `--index` file updates append to; `None` for an index built in
    /// memory from an edge list (updates stay in memory).
    index_path: Option<PathBuf>,
    /// `--compact-after N`: compact the journal once it holds N deltas
    /// (0 = never).
    compact_after: usize,
}

impl Pipeline {
    /// Serves `store` as generation 1. `probe` makes every answer carry
    /// its [`QueryStats`] (a slow log turns it on too).
    pub(crate) fn new(
        store: IndexStore,
        slow_log: Option<SlowLog>,
        index_path: Option<PathBuf>,
        compact_after: usize,
        probe: bool,
    ) -> Self {
        let pipeline = Self {
            probe: probe || slow_log.is_some(),
            handle: GenerationHandle::new(store),
            metrics: ServerMetrics::new(),
            slow_log,
            swap_lock: Mutex::new(()),
            engine: Mutex::new(None),
            index_path,
            compact_after,
        };
        pipeline.set_open_gauges(&pipeline.handle.current().store);
        pipeline
    }

    /// Parses one query line from `source` (`stdin` or a peer address)
    /// and checks it against a generation of `n` vertices. `None` for
    /// blanks and comments, and for bad lines, which are reported on
    /// stderr as `<source>:<line>: …` and counted: the serve contract is
    /// skip and keep serving.
    pub(crate) fn parse_query(
        &self,
        line: &str,
        source: &str,
        lineno: usize,
        n: usize,
    ) -> Option<Request> {
        let parsed = parse_pair_line(line, source, lineno).transpose()?;
        let received = Instant::now();
        self.metrics.requests.inc();
        match parsed {
            Ok((u, v)) => self.check_range(u, v, received, source, lineno, n),
            Err(msg) => {
                self.metrics.malformed.inc();
                eprintln!("error: {msg}");
                None
            }
        }
    }

    /// Checks the pair on `source`'s line `lineno`, which arrived at
    /// `received`, against a generation of `n` vertices. Out of range is
    /// reported on stderr, counted and skipped (`None`).
    pub(crate) fn check_range(
        &self,
        u: VertexId,
        v: VertexId,
        received: Instant,
        source: &str,
        lineno: usize,
        n: usize,
    ) -> Option<Request> {
        if u as usize >= n || v as usize >= n {
            self.metrics.out_of_range.inc();
            eprintln!("error: {source}:{lineno}: query ({u}, {v}) out of range (n = {n}); skipped");
            return None;
        }
        Some(Request { u, v, received })
    }

    /// Answers `request` on the generation its transport pinned for the
    /// chunk or request.
    pub(crate) fn answer(
        &self,
        pinned: &Pinned<'_>,
        ctx: &mut QueryContext,
        request: Request,
    ) -> Answer {
        let (graph, index) = (pinned.graph, pinned.index);
        let (u, v) = (request.u, request.v);
        let (dist, stats) = if self.probe {
            let mut stats = QueryStats::new();
            let dist = index.query_probed(graph, ctx, u, v, &mut stats);
            (dist, Some(stats))
        } else {
            (index.query_with(graph, ctx, u, v), None)
        };
        Answer {
            request,
            dist,
            generation: pinned.number,
            stats,
        }
    }

    /// Records an answer that went out at `sent`: its latency (arrival →
    /// written), the answer counters, and — over the threshold — a
    /// slow-log line naming the endpoint, the serving thread and the
    /// generation.
    pub(crate) fn record(
        &self,
        answer: &Answer,
        endpoint: &'static str,
        worker: usize,
        sent: Instant,
    ) {
        let latency = sent.saturating_duration_since(answer.request.received);
        self.metrics.latency.record(latency);
        self.metrics.answers.inc();
        if let Some(stats) = &answer.stats {
            self.metrics.record_source(stats.source);
            if let Some(log) = &self.slow_log {
                log.observe(&SlowQuery {
                    endpoint,
                    u: answer.request.u,
                    v: answer.request.v,
                    dist: answer.dist,
                    latency,
                    stats,
                    worker,
                    generation: answer.generation,
                });
            }
        }
    }

    /// Applies one batch of deltas from `origin` (`stdin:<line>` or a
    /// peer address) and serves the result as the next generation: each
    /// delta is repaired into the engine, the batch is made durable as one
    /// journal frame (or a compaction), and the new generation is swapped
    /// in. A failure — a delta the graph refuses (self-loop, endpoint out
    /// of range) included — rebases the engine onto the served generation,
    /// so nothing the batch did is served or kept (the served generation
    /// and the file on disk keep their state) and the next batch starts
    /// from the served generation's live overlays, which costs `Arc`
    /// clones, with the repair scratch the engine already holds.
    /// `received` starts the update-latency sample. An empty
    /// batch changes nothing: no engine, no frame, no generation, and it
    /// reports the one being served.
    pub(crate) fn update(
        &self,
        origin: &str,
        deltas: &[EdgeDelta],
        received: Instant,
    ) -> Result<Updated, UpdateError> {
        if deltas.is_empty() {
            return Ok(Updated {
                applied: 0,
                ignored: 0,
                pending: self.metrics.journal_pending.load(Ordering::Relaxed) as usize,
                generation: self.handle.number(),
            });
        }
        let _serialised = self.lock_swaps();
        let mut slot = lock_recover(&self.engine, "update engine");
        let engine = slot.get_or_insert_with(|| {
            UpdateEngine::from_store(
                &self.handle.current().store,
                self.index_path.clone(),
                self.compact_after,
            )
        });
        let batch = engine
            .apply(deltas)
            .and_then(|applied| engine.publish(false).map(|published| (applied, published)));
        let (applied, published) = match batch {
            Ok(done) => done,
            Err(e) => {
                engine.rebase(&self.handle.current().store);
                self.metrics.update_failures.inc();
                return Err(e);
            }
        };
        let (ignored, pending) = (deltas.len() as u64 - applied, engine.pending());
        let Published {
            store,
            bytes,
            compacted,
            folded,
            mut phases,
        } = published;
        self.metrics.record_overlay(&store);
        let t0 = Instant::now();
        let generation = self.handle.swap(store);
        phases.swap = t0.elapsed();
        self.metrics
            .record_update(&phases, applied, bytes, compacted, folded, pending);
        self.metrics.update_latency.record(received.elapsed());
        eprintln!(
            "update from {origin}: {applied} delta(s) applied ({ignored} no-op) as generation \
             {generation}{}{}{}; {phases}",
            if compacted { "; journal compacted" } else { "" },
            if folded { "; folded" } else { "" },
            match bytes {
                Some(b) => format!("; {b} bytes written to disk"),
                None => "; in-memory index, nothing persisted".to_string(),
            }
        );
        Ok(Updated {
            applied,
            ignored,
            pending,
            generation,
        })
    }

    /// Holds off every other generation swap — updates and reloads — for
    /// as long as the guard lives. It guards no data, so a guard poisoned
    /// by a panicked holder is safe to recover.
    pub(crate) fn lock_swaps(&self) -> MutexGuard<'_, ()> {
        lock_recover(&self.swap_lock, "reload")
    }

    /// Serves `store`, freshly re-opened from the `--index` file, as the
    /// next generation. The file superseded any in-memory update state, so
    /// the engine is dropped and the next update restarts from `store`.
    /// The caller holds [`lock_swaps`](Pipeline::lock_swaps).
    pub(crate) fn install_reloaded(&self, store: IndexStore) -> u64 {
        self.set_open_gauges(&store);
        let generation = self.handle.swap(store);
        *lock_recover(&self.engine, "update engine") = None;
        generation
    }

    /// Points the gauges a freshly opened generation sets at `store`:
    /// `hcl_open_seconds` at where its open spent the time,
    /// `hcl_overlay_rows` at its overlays (what its replay left patched:
    /// none unless a pending journal stayed under the fold bound), and
    /// `hcl_journal_pending` at what a reopen of its file would replay
    /// (live updates keep the last two current from there).
    fn set_open_gauges(&self, store: &IndexStore) {
        self.metrics.record_open(&store.open_phases());
        self.metrics.record_overlay(store);
        let pending = store.journal().map_or(0, |j| j.len() as u64);
        self.metrics
            .journal_pending
            .store(pending, Ordering::Relaxed);
    }

    /// Prints the shutdown summary on stderr: `served N queries <how>`,
    /// then — when there is anything to say — the live-update and
    /// skipped-input tallies, the pinned latency line (unless `quiet`) and
    /// the slow-log lines the rate limit dropped.
    pub(crate) fn print_summary(&self, how: &str, quiet: bool) {
        let m = &self.metrics;
        eprintln!("served {} queries {how}", m.answers.get());
        if m.updates_applied.get() + m.update_failures.get() > 0 {
            eprintln!(
                "applied {} live update(s) ({} compaction(s), {} failed)",
                m.updates_applied.get(),
                m.compactions.get(),
                m.update_failures.get()
            );
        }
        // A line of its own: the latency line's field count is part of the
        // CLI contract.
        let (malformed, out_of_range) = (m.malformed.get(), m.out_of_range.get());
        if malformed + out_of_range > 0 {
            eprintln!("skipped: {malformed} malformed, {out_of_range} out of range");
        }
        if !quiet {
            if let Some(line) = m.latency.summary_line() {
                eprintln!("{line}");
            }
        }
        if let Some(log) = &self.slow_log {
            if log.dropped() > 0 {
                eprintln!(
                    "slow-log: {} line(s) dropped by the rate limit",
                    log.dropped()
                );
            }
        }
    }
}

/// Appends one `u v d` answer line (`inf` for a disconnected pair): the
/// one format stdin, TCP and `query` write.
pub(crate) fn push_answer_line(buf: &mut String, u: VertexId, v: VertexId, d: Option<u32>) {
    use std::fmt::Write as _;
    // Writing into a `String` cannot fail.
    let _ = match d {
        Some(d) => writeln!(buf, "{u} {v} {d}"),
        None => writeln!(buf, "{u} {v} inf"),
    };
}
