//! Stdin serving and batch queries: a worker pool over one shared index.
//!
//! The shape is the one the storage layer was designed for: `GraphView` /
//! `IndexView` are `Copy`, read-only, and `Sync`, so every worker thread
//! holds the *same* view of the (typically mmap'd) index and owns a
//! private [`QueryContext`] for scratch. Two entry points share that
//! pattern:
//!
//! * [`answer_batch`] — a materialised workload (query subcommand): fixed
//!   chunks claimed off an atomic cursor, results reassembled in order.
//! * [`serve_pooled`] — a stream (serve subcommand without `--listen`, at
//!   every `--workers` count): the calling thread reads stdin, has the
//!   [`Pipeline`] parse and range-check each line, and groups the queries
//!   into sequence-numbered chunks pushed through a **bounded** channel
//!   (backpressure: a slow consumer stalls the reader instead of
//!   ballooning memory); workers answer chunks through the pipeline and
//!   format the output lines; a dedicated writer thread holds a **reorder
//!   buffer** keyed by sequence number, writes chunks strictly in input
//!   order, and records each answer once it is flushed.
//!
//! A chunk is sent when it holds [`CHUNK`] queries or when the reader's
//! read-ahead buffer runs dry, i.e. input paused: a piped batch moves in
//! full chunks, and an interactive client gets each answer as soon as its
//! line is in.
//!
//! The ordering guarantee is exact: stdout is the same bytes at every
//! worker count — answers in input order, in one format — which the CLI
//! test suite asserts across graph families and worker counts. Per-line
//! diagnostics (malformed input, out-of-range ids) are produced by the
//! reading thread *before* queries enter the pool, so stderr stays in
//! input order too. A `+u v` / `-u v` line quiesces the pool (every
//! earlier answer flushed) and goes through the pipeline's update step as
//! a batch of one, so answers before it come from the old generation and
//! answers after it from the new one.
//!
//! A stdout consumer that goes away early (`… | head`) — or any other
//! write failure — flips a shutdown flag: the writer drains remaining
//! results without writing (so no worker or reader is ever left blocked
//! on a full channel), workers skip remaining chunks, and the reader
//! stops consuming stdin. A broken pipe then ends the session cleanly;
//! other write errors are reported as fatal after the drain. The reorder
//! buffer itself is bounded by a reader/writer sequence window
//! ([`Window`]), so even a pathologically slow chunk stalling the write
//! front cannot balloon memory.

use crate::next_line;
use crate::pipeline::{push_answer_line, Answer, Pipeline, Request};
use crate::sync::{lock_recover, wait_recover};
use crate::update::{delta_op, parse_delta_rest};
use hcl_core::{GraphView, VertexId};
use hcl_index::{IndexView, QueryContext};
use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Queries per pool chunk. Large enough that channel and reorder overhead
/// amortises to noise against µs-scale queries, small enough that a
/// pipelined consumer sees output promptly.
pub(crate) const CHUNK: usize = 256;

/// The reader's read-ahead buffer. At least std's own stdin buffer
/// (8 KiB), so reads go straight to the file descriptor and an empty
/// buffer here means no input is waiting in the process.
const READ_AHEAD: usize = 64 * 1024;

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

/// One unit of work: input-order sequence number plus the queries of one
/// chunk.
type Job = (u64, Vec<Request>);

/// One unit of output: the chunk's formatted answer lines, and the answers
/// themselves, which the writer records once the lines are flushed.
struct Chunk {
    seq: u64,
    text: String,
    worker: usize,
    answers: Vec<Answer>,
}

/// Streams `u v` queries from `input` through a pool of `workers` query
/// threads, writing answers to `output` in input order; `+u v` / `-u v`
/// lines go through the pipeline's update step between chunks. Returns
/// whether the session ended because the stdout reader went away.
///
/// The calling thread reads and validates input (diagnostics to stderr in
/// input order, bad lines skipped — the serve contract); workers answer
/// and format on per-chunk generation snapshots; a writer thread reorders
/// and writes. See the module docs for the channel/ordering design.
pub(crate) fn serve_pooled(
    pipeline: &Pipeline,
    workers: usize,
    input: impl Read,
    output: impl Write + Send,
) -> Result<bool, String> {
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
            s.spawn(move || worker_loop(pipeline, job_rx, res_tx, shutdown, worker));
        }
        // The clones above keep the channel open; drop the original so the
        // writer sees EOF once every worker is done.
        drop(res_tx);

        let writer = s.spawn(move || writer_loop(output, res_rx, shutdown, window, pipeline));

        let chunks = Chunks {
            tx: job_tx,
            window,
            width: workers as u64 * WINDOW_CHUNKS_PER_WORKER,
            seq: 0,
            open: Vec::with_capacity(CHUNK),
        };
        let read_result = read_loop(pipeline, input, chunks, shutdown);

        // A writer panic is reported as a serve error, not re-raised: the
        // reader has already returned (join happens after `read_loop`), so
        // nothing is left blocked on the dead thread.
        let closed = writer
            .join()
            .map_err(|_| "writer thread panicked; output is incomplete".to_string())??;
        // A stdin read failure is fatal — but only after the pool has
        // drained, so partial output still lands in order.
        read_result?;
        Ok(closed)
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

/// The reader's end of the job channel: the chunk being filled and the
/// sequence number it will carry. Dropping it closes the channel, and the
/// workers drain and exit.
struct Chunks<'a> {
    tx: SyncSender<Job>,
    window: &'a Window,
    width: u64,
    seq: u64,
    open: Vec<Request>,
}

impl Chunks<'_> {
    /// Sends the open chunk, if it holds anything, once the window admits
    /// it; `false` when the pool has torn down.
    fn send(&mut self) -> bool {
        if self.open.is_empty() {
            return true;
        }
        self.window.wait_for(self.seq, self.width);
        let chunk = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
        let sent = self.tx.send((self.seq, chunk)).is_ok();
        self.seq += 1;
        sent
    }
}

/// Reads, validates, chunks, and enqueues stdin queries; runs on the
/// calling thread so input-order diagnostics need no cross-thread
/// coordination. Delta lines quiesce the pool and go through the
/// pipeline's update step here, between chunks, so the answer stream
/// splits exactly at the delta.
fn read_loop(
    pipeline: &Pipeline,
    input: impl Read,
    mut chunks: Chunks<'_>,
    shutdown: &AtomicBool,
) -> Result<(), String> {
    let mut input = BufReader::with_capacity(READ_AHEAD, input);
    // Fixed for the session: a delta must name existing vertices, so no
    // generation an update publishes changes the count.
    let n = pipeline.handle.current().store.graph().num_vertices();
    let mut line = String::new();
    let mut lineno = 0;
    let result = loop {
        if shutdown.load(Ordering::Acquire) {
            return Ok(()); // stdout reader went away; stop consuming stdin
        }
        match next_line(&mut input, &mut line) {
            Ok(true) => lineno += 1,
            Ok(false) => break Ok(()),
            // Fatal — after what was already read has gone through the pool.
            Err(e) => break Err(format!("reading stdin: {e}")),
        }
        if let Some((op, rest)) = delta_op(&line) {
            match parse_delta_rest(op, rest, "stdin", lineno) {
                Err(msg) => {
                    pipeline.metrics.update_failures.inc();
                    eprintln!("error: {msg}");
                }
                Ok(delta) => {
                    // Quiesce: send the partial chunk and wait until
                    // everything enqueued so far is on the wire, so no
                    // in-flight chunk can straddle the generation swap.
                    if !chunks.send() {
                        return Ok(());
                    }
                    chunks.window.wait_drained(chunks.seq);
                    if shutdown.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    let origin = format!("stdin:{lineno}");
                    if let Err(e) = pipeline.update(&origin, &[delta], Instant::now()) {
                        eprintln!("error: {origin}: {e}");
                    }
                }
            }
        } else if let Some(request) = pipeline.parse_query(&line, "stdin", lineno, n) {
            chunks.open.push(request);
        }
        // A full chunk goes at once, a partial one as soon as input
        // pauses, so an interactive client is answered line by line.
        if (chunks.open.len() == CHUNK || input.buffer().is_empty()) && !chunks.send() {
            return Ok(()); // pool tore down; stop reading
        }
    };
    chunks.send();
    result
}

/// Claims chunks, answers them through the pipeline on a private context,
/// formats the output bytes. Skips the work (but keeps draining) once
/// shutdown is flagged.
fn worker_loop(
    pipeline: &Pipeline,
    job_rx: &Mutex<Receiver<Job>>,
    res_tx: SyncSender<Chunk>,
    shutdown: &AtomicBool,
    worker: usize,
) {
    let mut ctx = QueryContext::new();
    loop {
        // Hold the lock only for the dequeue, never across query work. A
        // peer worker panicking mid-`recv` leaves the Receiver intact, so
        // recover the poisoned lock and keep serving.
        let job = lock_recover(job_rx, "job queue").recv();
        let Ok((seq, requests)) = job else {
            return; // reader dropped the channel: input exhausted
        };
        if shutdown.load(Ordering::Acquire) {
            continue; // drain without computing; nobody will write it
        }
        // One generation snapshot per chunk: the reader quiesces the pool
        // before swapping generations, so every chunk sees exactly the
        // generation that was current when it was enqueued, and a swap
        // can never unmap state under a running chunk.
        let generation = pipeline.handle.current();
        let mut text = String::with_capacity(requests.len() * 12);
        let answers = requests
            .into_iter()
            .map(|request| {
                let answer = pipeline.answer(&generation, &mut ctx, request);
                push_answer_line(&mut text, answer.request.u, answer.request.v, answer.dist);
                answer
            })
            .collect();
        let chunk = Chunk {
            seq,
            text,
            worker,
            answers,
        };
        if res_tx.send(chunk).is_err() {
            return; // writer gone (can only mean it panicked) — bail out
        }
    }
}

/// Writes chunks strictly in sequence order via a reorder buffer, flushing
/// per chunk, recording its answers, and advancing the reader's
/// flow-control watermark. **Any** write error — broken pipe or fatal —
/// flips the shutdown flag, lifts the window, and keeps draining the
/// results channel until it closes: returning early instead would leave
/// the job `Receiver` alive with nobody recv'ing, wedging the reader in a
/// full `job_tx.send` forever. Fatal errors are reported after the drain;
/// a broken pipe returns `Ok(true)`.
fn writer_loop(
    output: impl Write,
    res_rx: Receiver<Chunk>,
    shutdown: &AtomicBool,
    window: &Window,
    pipeline: &Pipeline,
) -> Result<bool, String> {
    let mut out = std::io::BufWriter::new(output);
    let mut pending: HashMap<u64, Chunk> = HashMap::new();
    let mut next_seq = 0u64;
    let mut closed = false;
    let mut fatal: Option<String> = None;

    while let Ok(chunk) = res_rx.recv() {
        if closed || fatal.is_some() {
            continue; // draining: output is done, the pool is winding down
        }
        pending.insert(chunk.seq, chunk);
        while let Some(chunk) = pending.remove(&next_seq) {
            match out
                .write_all(chunk.text.as_bytes())
                .and_then(|()| out.flush())
            {
                Ok(()) => {
                    // Recorded only now, on the wire: line parsed to
                    // answer flushed, the span the socket front end
                    // reports too. Before the watermark moves, so a
                    // quiesced reader sees every earlier answer recorded.
                    let sent = Instant::now();
                    for answer in &chunk.answers {
                        pipeline.record(answer, "stdin", chunk.worker, sent);
                    }
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
        None => Ok(closed),
    }
}
