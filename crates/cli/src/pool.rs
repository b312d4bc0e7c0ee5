//! Concurrent query serving: a worker pool over one shared index.
//!
//! The shape is the one the storage layer was designed for: `GraphView` /
//! `IndexView` are `Copy`, read-only, and `Sync`, so every worker thread
//! holds the *same* view of the (typically mmap'd) index and owns a
//! private [`QueryContext`] for scratch. Two entry points share that
//! pattern:
//!
//! * [`answer_batch`] — a materialised workload (query subcommand): fixed
//!   chunks claimed off an atomic cursor, results reassembled in order.
//! * [`serve_pooled`] — a streaming workload (serve subcommand): the
//!   calling thread reads stdin and groups valid pairs into
//!   sequence-numbered chunks pushed through a **bounded** channel
//!   (backpressure: a slow consumer stalls the reader instead of ballooning
//!   memory); workers answer chunks and format output lines; a dedicated
//!   writer thread holds a **reorder buffer** keyed by sequence number and
//!   writes chunks strictly in input order.
//!
//! The ordering guarantee is therefore exact: stdout from `--workers N` is
//! **byte-identical** to `--workers 1` for the same input — answers appear
//! in input order, in the same format — which the CLI test suite asserts
//! across graph families and worker counts. Per-line diagnostics
//! (malformed input, out-of-range ids) are produced by the reading thread
//! *before* pairs enter the pool, so stderr stays in input order too.
//!
//! A stdout consumer that goes away early (`… | head`) — or any other
//! write failure — flips a shutdown flag: the writer drains remaining
//! results without writing (so no worker or reader is ever left blocked
//! on a full channel), workers skip remaining chunks, and the reader
//! stops consuming stdin. A broken pipe then ends the session cleanly
//! (the single-threaded contract); other write errors are reported as
//! fatal after the drain. The reorder buffer itself is bounded by a
//! reader/writer sequence window ([`Window`]), so even a pathologically
//! slow chunk stalling the write front cannot balloon memory.

use crate::metrics::ServerMetrics;
use crate::slowlog::{SlowLog, SlowQuery};
use crate::sync::{lock_recover, wait_recover};
use crate::update::{delta_op, parse_delta_rest, UpdateEngine};
use crate::{next_line, validate_serve_pair};
use hcl_core::{GraphView, VertexId};
use hcl_index::{IndexView, QueryContext, QueryStats};
use hcl_store::GenerationHandle;
use std::collections::HashMap;
use std::io::{BufRead, ErrorKind, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Queries per pool chunk. Large enough that channel and reorder overhead
/// amortises to noise against µs-scale queries, small enough that a
/// pipelined consumer sees output promptly. Multi-worker serving is a
/// batch-throughput mode: answers are flushed per chunk, not per line.
pub(crate) const CHUNK: usize = 256;

/// Appends one `u v d` answer line; the format single-threaded serving
/// writes, shared so pooled output is byte-identical.
pub(crate) fn push_answer_line(buf: &mut String, u: VertexId, v: VertexId, d: Option<u32>) {
    use std::fmt::Write as _;
    match d {
        Some(d) => writeln!(buf, "{u} {v} {d}"),
        None => writeln!(buf, "{u} {v} inf"),
    }
    .expect("String writes are infallible");
}

/// Answers a materialised workload with `workers` threads, returning
/// answers in input order. `workers <= 1` (or a workload smaller than one
/// chunk) runs inline on one reused context.
pub(crate) fn answer_batch(
    graph: GraphView<'_>,
    index: IndexView<'_>,
    queries: &[(VertexId, VertexId)],
    workers: usize,
) -> Vec<Option<u32>> {
    let num_chunks = queries.len().div_ceil(CHUNK);
    let workers = workers.min(num_chunks);
    if workers <= 1 {
        let mut ctx = QueryContext::new();
        return queries
            .iter()
            .map(|&(u, v)| index.query_with(graph, &mut ctx, u, v))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<Option<u32>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut ctx = QueryContext::new();
                    let mut out = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let chunk = &queries[c * CHUNK..((c + 1) * CHUNK).min(queries.len())];
                        let answers: Vec<Option<u32>> = chunk
                            .iter()
                            .map(|&(u, v)| index.query_with(graph, &mut ctx, u, v))
                            .collect();
                        out.push((c, answers));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("query worker panicked"))
            .collect()
    });
    parts.sort_unstable_by_key(|p| p.0);
    parts.into_iter().flat_map(|p| p.1).collect()
}

/// Outcome of a pooled serving session.
pub(crate) struct ServeSummary {
    /// Answer lines written to stdout.
    pub(crate) served: u64,
    /// Whether the session ended because the stdout reader went away.
    pub(crate) closed: bool,
}

/// One unit of work: input-order sequence number plus the valid pairs of
/// one chunk, each stamped with its parse time so latency can be measured
/// end to end (parse → answer on the wire), matching what the socket
/// front end reports.
type Job = (u64, Vec<(VertexId, VertexId, Instant)>);
/// One unit of output: the chunk's sequence number, its formatted answer
/// lines, and the parse-time stamps riding along so the writer can record
/// each answer's latency *after* the bytes are flushed.
type Chunk = (u64, String, Vec<Instant>);

/// Live-update wiring for a pooled serving session: where `-u v` deltas
/// persist and when the journal auto-compacts.
pub(crate) struct UpdateConfig {
    /// `.hcl` file to write updated containers back to; `None` for an
    /// index built in memory from an edge list (updates stay in memory).
    pub(crate) path: Option<PathBuf>,
    /// `--compact-after N`: fold the journal once it holds N deltas
    /// (0 = never).
    pub(crate) compact_after: usize,
}

/// Streams `u v` queries from `input` through a pool of `workers` query
/// threads, writing answers to `output` in input order. `+u v` / `-u v`
/// lines are edge deltas: the reader quiesces the pool (all earlier
/// answers flushed), repairs the index incrementally, and publishes the
/// result as a new generation — answers before the delta line come from
/// the old graph, answers after it from the new one, exactly as in
/// sequential serving.
///
/// The calling thread reads and validates input (diagnostics to stderr in
/// input order, bad lines skipped — the serve contract); workers answer
/// and format on per-chunk generation snapshots; a writer thread reorders
/// and writes. See the module docs for the channel/ordering design.
pub(crate) fn serve_pooled(
    handle: &GenerationHandle,
    workers: usize,
    input: impl BufRead,
    output: impl Write + Send,
    metrics: &ServerMetrics,
    slow_log: Option<&SlowLog>,
    updates: UpdateConfig,
) -> Result<ServeSummary, String> {
    let shutdown = AtomicBool::new(false);
    // Bounded everywhere: the channels cap chunks in transit, and the
    // reader additionally never runs more than WINDOW_CHUNKS_PER_WORKER
    // chunks ahead of the writer's watermark (see `Window`), so total
    // in-flight memory — including the reorder buffer — stays
    // O(workers · CHUNK) even when one pathologically slow chunk stalls
    // the in-order write front.
    let (job_tx, job_rx) = sync_channel::<Job>(workers * 2);
    let (res_tx, res_rx) = sync_channel::<Chunk>(workers * 2);
    let job_rx = Mutex::new(job_rx);
    let window = Window::new();

    std::thread::scope(|s| {
        let shutdown = &shutdown;
        let window = &window;
        for worker in 0..workers {
            let job_rx = &job_rx;
            let res_tx = res_tx.clone();
            s.spawn(move || worker_loop(handle, job_rx, res_tx, shutdown, slow_log, worker));
        }
        // The clones above keep the channel open; drop the original so the
        // writer sees EOF once every worker is done.
        drop(res_tx);

        let writer = s.spawn(move || writer_loop(output, res_rx, shutdown, window, metrics));

        let read_result = read_loop(
            handle, updates, input, job_tx, shutdown, window, workers, metrics,
        );

        // A writer panic is reported as a serve error, not re-raised: the
        // reader has already returned (join happens after `read_loop`), so
        // nothing is left blocked on the dead thread.
        let summary = writer
            .join()
            .map_err(|_| "writer thread panicked; output is incomplete".to_string())??;
        // A stdin read failure is fatal, exactly as in sequential serving —
        // but only after the pool has drained, so partial output still
        // lands in order.
        read_result?;
        Ok(summary)
    })
}

/// Flow-control handshake between the reader and the writer: `written` is
/// the lowest sequence number the writer has *not yet* flushed. The reader
/// waits before emitting chunk `s` until `s < written + window`, which
/// caps every downstream buffer — including the reorder buffer, which
/// channel bounds alone cannot cap when one slow chunk stalls the write
/// front while faster workers keep completing later ones.
struct Window {
    written: Mutex<u64>,
    cv: Condvar,
}

/// How many chunks per worker the reader may run ahead of the writer.
/// Must comfortably exceed the chunks a worker can have in flight
/// (job queue + processing + results queue ≈ 5) so the window only binds
/// under genuine skew, not in steady state.
const WINDOW_CHUNKS_PER_WORKER: u64 = 8;

impl Window {
    fn new() -> Self {
        Self {
            written: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Blocks until chunk `seq` is inside the window of `width` chunks
    /// past the writer's watermark. The watermark is a plain `u64`, so a
    /// poisoned lock (some thread panicked mid-update of a single store)
    /// is recovered, not propagated — see `crate::sync`.
    fn wait_for(&self, seq: u64, width: u64) {
        let mut written = lock_recover(&self.written, "window");
        while seq >= written.saturating_add(width) {
            written = wait_recover(&self.cv, written, "window");
        }
    }

    /// Advances the watermark (the writer, after flushing up to — not
    /// including — `next_seq`); `u64::MAX` on shutdown lifts the window
    /// entirely so the reader can never be left parked.
    fn advance(&self, next_seq: u64) {
        *lock_recover(&self.written, "window") = next_seq;
        self.cv.notify_all();
    }

    /// Blocks until every chunk below `seq` has been flushed — the pool
    /// quiesce point before an edge delta mutates the index. Shutdown
    /// lifts the window to `u64::MAX`, so this can never park forever.
    fn wait_drained(&self, seq: u64) {
        let mut written = lock_recover(&self.written, "window");
        while *written < seq {
            written = wait_recover(&self.cv, written, "window");
        }
    }
}

/// Reads, validates, chunks, and enqueues stdin pairs; runs on the
/// calling thread so input-order diagnostics need no cross-thread
/// coordination. Delta lines quiesce the pool and swap generations here,
/// between chunks, so the answer stream splits exactly at the delta.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    handle: &GenerationHandle,
    updates: UpdateConfig,
    mut input: impl BufRead,
    job_tx: SyncSender<Job>,
    shutdown: &AtomicBool,
    window: &Window,
    workers: usize,
    metrics: &ServerMetrics,
) -> Result<(), String> {
    let n = handle.current().store.graph().num_vertices();
    let width = workers as u64 * WINDOW_CHUNKS_PER_WORKER;
    let mut seq = 0u64;
    let mut batch: Vec<(VertexId, VertexId, Instant)> = Vec::with_capacity(CHUNK);
    let mut engine: Option<UpdateEngine> = None;
    let mut result = Ok(());
    let mut line = String::new();
    let mut lineno = 0;
    loop {
        if shutdown.load(Ordering::Acquire) {
            return result; // stdout reader went away; stop consuming stdin
        }
        match next_line(&mut input, &mut line) {
            Ok(true) => lineno += 1,
            Ok(false) => break,
            Err(e) => {
                // Fatal, as in sequential serving — but flush what was
                // already read through the pool first.
                result = Err(format!("reading stdin: {e}"));
                break;
            }
        }
        if let Some((op, rest)) = delta_op(&line) {
            // Quiesce: flush the partial chunk and wait until everything
            // enqueued so far is on the wire, so no in-flight chunk can
            // straddle the generation swap.
            if !batch.is_empty() {
                window.wait_for(seq, width);
                let full = std::mem::replace(&mut batch, Vec::with_capacity(CHUNK));
                if job_tx.send((seq, full)).is_err() {
                    return result;
                }
                seq += 1;
            }
            window.wait_drained(seq);
            if shutdown.load(Ordering::Acquire) {
                return result;
            }
            apply_stdin_delta(op, rest, lineno, handle, &updates, &mut engine, metrics);
            continue;
        }
        let Some((u, v)) = validate_serve_pair(&line, lineno, n, metrics) else {
            continue;
        };
        // Stamp at parse time: the recorded latency then covers queueing,
        // the query itself, and the in-order write — the same end-to-end
        // span the socket front end measures.
        batch.push((u, v, Instant::now()));
        if batch.len() == CHUNK {
            window.wait_for(seq, width);
            let full = std::mem::replace(&mut batch, Vec::with_capacity(CHUNK));
            if job_tx.send((seq, full)).is_err() {
                return result; // pool tore down; stop reading
            }
            seq += 1;
        }
    }
    if !batch.is_empty() {
        job_tx.send((seq, batch)).ok();
    }
    // Dropping job_tx closes the channel; workers drain and exit.
    result
}

/// Applies one `+u v` / `-u v` stdin line: incremental repair, one
/// journal frame appended to the index file, a new generation swapped in. The serve contract for bad lines holds —
/// a stderr diagnostic, a failure-counter bump, and the session continues
/// on the old state. The caller has already quiesced the pool.
fn apply_stdin_delta(
    op: hcl_core::DeltaOp,
    rest: &str,
    lineno: usize,
    handle: &GenerationHandle,
    updates: &UpdateConfig,
    engine: &mut Option<UpdateEngine>,
    metrics: &ServerMetrics,
) {
    let delta = match parse_delta_rest(op, rest, "stdin", lineno) {
        Ok(delta) => delta,
        Err(msg) => {
            metrics.update_failures.inc();
            eprintln!("error: {msg}");
            return;
        }
    };
    if engine.is_none() {
        let generation = handle.current();
        *engine = Some(UpdateEngine::from_store(
            &generation.store,
            updates.path.clone(),
            updates.compact_after,
        ));
    }
    let Some(eng) = engine.as_mut() else {
        return; // unreachable: the slot was just filled
    };
    match eng.apply(delta) {
        Ok(outcome) if !outcome.applied => {
            eprintln!("update stdin:{lineno}: {delta} is a no-op (edge state unchanged)");
        }
        Ok(_) => match eng.publish(false) {
            Ok(published) => {
                let mut phases = published.phases;
                let t0 = Instant::now();
                let generation = handle.swap(published.store);
                phases.swap = t0.elapsed();
                metrics.record_update(
                    &phases,
                    1,
                    published.bytes,
                    published.compacted,
                    eng.pending(),
                );
                eprintln!(
                    "update stdin:{lineno}: applied {delta}; now serving generation \
                     {generation}"
                );
            }
            Err(e) => {
                // The in-memory repair succeeded but publication failed:
                // discard the engine so the next delta restarts from the
                // generation actually being served.
                *engine = None;
                metrics.update_failures.inc();
                eprintln!("error: stdin:{lineno}: publishing {delta} failed: {e}");
            }
        },
        Err(e) => {
            metrics.update_failures.inc();
            eprintln!("error: stdin:{lineno}: {e}");
        }
    }
}

/// Claims chunks, answers them on a private context, formats the output
/// bytes. Skips the work (but keeps draining) once shutdown is flagged.
/// When a slow log is attached, every query runs with the stats probe and
/// over-threshold ones are logged here, with the parse → answer span as
/// the latency (the writer has not flushed yet, so the wire time is not
/// in it — but the slow part of a slow query is the queue and the query,
/// which are).
fn worker_loop(
    handle: &GenerationHandle,
    job_rx: &Mutex<Receiver<Job>>,
    res_tx: SyncSender<Chunk>,
    shutdown: &AtomicBool,
    slow_log: Option<&SlowLog>,
    worker: usize,
) {
    let mut ctx = QueryContext::new();
    loop {
        // Hold the lock only for the dequeue, never across query work. A
        // peer worker panicking mid-`recv` leaves the Receiver intact, so
        // recover the poisoned lock and keep serving.
        let job = lock_recover(job_rx, "job queue").recv();
        let (seq, pairs) = match job {
            Ok(job) => job,
            Err(_) => return, // reader dropped the channel: input exhausted
        };
        if shutdown.load(Ordering::Acquire) {
            continue; // drain without computing; nobody will write it
        }
        // One generation snapshot per chunk: the reader quiesces the pool
        // before swapping generations, so every chunk sees exactly the
        // generation that was current when it was enqueued, and a swap
        // can never unmap state under a running chunk.
        let generation = handle.current();
        let store = &generation.store;
        let graph = store.graph();
        let index = store.index();
        let mut buf = String::with_capacity(pairs.len() * 12);
        let mut stamps = Vec::with_capacity(pairs.len());
        for (u, v, stamp) in pairs {
            let answer = match slow_log {
                Some(log) => {
                    let mut stats = QueryStats::new();
                    let d = index.query_probed(graph, &mut ctx, u, v, &mut stats);
                    log.observe(&SlowQuery {
                        endpoint: "stdin",
                        u,
                        v,
                        dist: d,
                        latency: stamp.elapsed(),
                        stats: &stats,
                        worker,
                        generation: generation.number,
                    });
                    d
                }
                None => index.query_with(graph, &mut ctx, u, v),
            };
            push_answer_line(&mut buf, u, v, answer);
            stamps.push(stamp);
        }
        if res_tx.send((seq, buf, stamps)).is_err() {
            return; // writer gone (can only mean it panicked) — bail out
        }
    }
}

/// Writes chunks strictly in sequence order via a reorder buffer, flushing
/// per chunk and advancing the reader's flow-control watermark. **Any**
/// write error — broken pipe or fatal — flips the shutdown flag, lifts
/// the window, and keeps draining the results channel until it closes:
/// returning early instead would leave the job `Receiver` alive with
/// nobody recv'ing, wedging the reader in a full `job_tx.send` forever.
/// Fatal errors are reported after the drain.
fn writer_loop(
    output: impl Write,
    res_rx: Receiver<Chunk>,
    shutdown: &AtomicBool,
    window: &Window,
    metrics: &ServerMetrics,
) -> Result<ServeSummary, String> {
    let mut out = std::io::BufWriter::new(output);
    let mut pending: HashMap<u64, (String, Vec<Instant>)> = HashMap::new();
    let mut next_seq = 0u64;
    let mut served = 0u64;
    let mut closed = false;
    let mut fatal: Option<String> = None;

    while let Ok((seq, buf, stamps)) = res_rx.recv() {
        if closed || fatal.is_some() {
            continue; // draining: output is done, the pool is winding down
        }
        pending.insert(seq, (buf, stamps));
        while let Some((buf, stamps)) = pending.remove(&next_seq) {
            let res = out.write_all(buf.as_bytes()).and_then(|()| out.flush());
            match res {
                Ok(()) => {
                    // Latency is recorded only now, after the answers hit
                    // the wire: parse-stamp to flushed-write, the same
                    // end-to-end span the socket front end reports.
                    let now = Instant::now();
                    for stamp in &stamps {
                        metrics
                            .latency
                            .record(now.saturating_duration_since(*stamp));
                    }
                    served += stamps.len() as u64;
                    next_seq += 1;
                    window.advance(next_seq);
                }
                Err(e) => {
                    if e.kind() == ErrorKind::BrokenPipe {
                        closed = true;
                    } else {
                        fatal = Some(format!("writing output: {e}"));
                    }
                    shutdown.store(true, Ordering::Release);
                    pending.clear();
                    window.advance(u64::MAX); // never leave the reader parked
                    break;
                }
            }
        }
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(ServeSummary { served, closed }),
    }
}
