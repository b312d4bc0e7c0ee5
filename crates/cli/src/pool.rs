//! The worker pool every stdin-fed answer goes through: `serve` without
//! `--listen` (at every `--workers` count) and `hcl query`.
//!
//! The shape is the one the storage layer was designed for: a generation
//! is read-only and `Sync`, so every worker thread answers on the *same*
//! (typically mmap'd) index and owns a private [`QueryContext`] for
//! scratch. [`run`] drives it:
//!
//! * the calling thread is the **feed**: it has the [`Pipeline`] parse and
//!   range-check each query and pushes it into the open chunk ([`Feed`]);
//!   `serve`'s feed reads stdin ([`serve_stdin`]), `query`'s pushes its
//!   materialised pairs;
//! * each chunk goes to the workers with the sending half of its own
//!   one-shot **result slot**, while the receiving half goes, in input
//!   order, down a bounded **order channel** to the writer;
//! * workers answer chunks through the pipeline and format the output
//!   lines into the chunk's slot;
//! * the **writer** takes slots off the order channel and waits on each in
//!   turn, so it writes chunks in input order by construction, flushing per
//!   chunk and handing each answer to the caller's callback once it is on
//!   the wire (`serve`'s records it).
//!
//! A chunk is sent when it holds [`CHUNK`] queries or when the feed
//! flushes — `serve` does whenever its read-ahead buffer runs dry, i.e.
//! input paused: a piped batch moves in full chunks, and an interactive
//! client gets each answer as soon as its line is in.
//!
//! Stdout is the same bytes at every worker count, which the CLI test
//! suite asserts across graph families and worker counts. Per-line
//! diagnostics (malformed input, out-of-range ids) are produced by the
//! feed *before* queries enter the pool, so they stay in input order too.
//! A `+u v` / `-u v` line on `serve`'s stdin quiesces the pool (a barrier
//! down the order channel: every earlier answer flushed and handed over)
//! and goes through the pipeline's update step as a batch of one, so
//! answers before it come from the old generation and answers after it
//! from the new one.
//!
//! Memory is bounded by the channels: each holds at most
//! [`WINDOW_CHUNKS_PER_WORKER`] entries per worker, so the feed blocks
//! rather than run further ahead of the writer, even when one slow chunk
//! stalls the write front while faster workers fill later slots.
//!
//! A stdout consumer that goes away early (`… | head`) — or any other
//! write failure — flips a shutdown flag: the writer keeps taking slots
//! off the order channel without writing (dropping chunks, answering
//! barriers), so no worker or feed is ever left blocked; workers skip
//! remaining chunks, and the feed stops. A broken pipe then ends the
//! session cleanly; other write errors are reported as fatal after the
//! drain.

use crate::next_line;
use crate::pipeline::{push_answer_line, Answer, Pinned, Pipeline, Request};
use crate::sync::lock_recover;
use crate::update::{delta_op, parse_delta_rest};
use hcl_index::QueryContext;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::Instant;

/// Queries per pool chunk. Large enough that channel overhead amortises
/// to noise against µs-scale queries, small enough that a pipelined
/// consumer sees output promptly.
const CHUNK: usize = 256;

/// How many chunks per worker the feed may run ahead of the writer: the
/// capacity of both channels. A job is sent only after its slot, and its
/// slot leaves the order channel only once the job is answered, so the
/// job channel never fills first and the feed only ever waits on the
/// writer, never on a worker.
const WINDOW_CHUNKS_PER_WORKER: usize = 8;

/// The reader's read-ahead buffer. At least std's own stdin buffer
/// (8 KiB), so reads go straight to the file descriptor and an empty
/// buffer here means no input is waiting in the process.
const READ_AHEAD: usize = 64 * 1024;

/// One unit of work: the queries of one chunk and where to put the result.
type Job = (Vec<Request>, SyncSender<Chunk>);

/// One unit of output: the chunk's formatted answer lines, and the answers
/// themselves, which the writer records once the lines are flushed.
struct Chunk {
    text: String,
    worker: usize,
    answers: Vec<Answer>,
}

/// What the writer takes off the order channel, in input order.
enum Slot {
    /// A chunk's result, filled by whichever worker answers it.
    Chunk(Receiver<Chunk>),
    /// A quiesce point: acknowledged once every earlier chunk is written
    /// and recorded.
    Barrier(SyncSender<()>),
}

/// The feed's end of the pool: the chunk being filled and the two
/// channels it goes down. Dropping it closes both, and the workers and
/// the writer drain and exit.
pub(crate) struct Feed<'a> {
    jobs: SyncSender<Job>,
    order: SyncSender<Slot>,
    open: Vec<Request>,
    /// A channel closed under the feed: the writer or every worker is gone.
    torn: bool,
    shutdown: &'a AtomicBool,
}

impl Feed<'_> {
    /// Adds `request` to the open chunk, sending the chunk once it is full.
    pub(crate) fn push(&mut self, request: Request) {
        self.open.push(request);
        if self.open.len() == CHUNK {
            self.flush();
        }
    }

    /// Sends the open chunk, if it holds anything. Blocks while the writer
    /// is a full window behind.
    pub(crate) fn flush(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let requests = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
        let (result, slot) = sync_channel(1);
        self.torn |= self.order.send(Slot::Chunk(slot)).is_err()
            || self.jobs.send((requests, result)).is_err();
    }

    /// Sends the open chunk and waits until it and every earlier one are
    /// written and handed to the callback.
    pub(crate) fn quiesce(&mut self) {
        self.flush();
        let (done, acked) = sync_channel(1);
        self.torn |= self.order.send(Slot::Barrier(done)).is_err() || acked.recv().is_err();
    }

    /// Whether the feed should stop: the output is gone or the pool tore
    /// down.
    pub(crate) fn stopped(&self) -> bool {
        self.torn || self.shutdown.load(Ordering::Acquire)
    }
}

/// Answers what `feed` pushes with `workers` query threads, writing the
/// answers to `output` in push order and handing each one to `on_answer`
/// (on the writer thread) after it is flushed, with the worker that
/// answered it and when it went out. Returns whether the session ended
/// because the output's reader went away; an error from `feed` is
/// returned after everything it pushed has gone through the pool.
pub(crate) fn run(
    pipeline: &Pipeline,
    workers: usize,
    output: impl Write + Send,
    on_answer: impl FnMut(&Answer, usize, Instant) + Send,
    feed: impl FnOnce(&mut Feed<'_>) -> Result<(), String>,
) -> Result<bool, String> {
    let shutdown = AtomicBool::new(false);
    let window = workers * WINDOW_CHUNKS_PER_WORKER;
    let (jobs, job_rx) = sync_channel::<Job>(window);
    let (order, order_rx) = sync_channel::<Slot>(window);
    let job_rx = Mutex::new(job_rx);

    std::thread::scope(|s| {
        let shutdown = &shutdown;
        for worker in 0..workers {
            let job_rx = &job_rx;
            s.spawn(move || worker_loop(pipeline, job_rx, shutdown, worker));
        }
        let writer = s.spawn(move || writer_loop(output, order_rx, shutdown, on_answer));

        let mut front = Feed {
            jobs,
            order,
            open: Vec::with_capacity(CHUNK),
            torn: false,
            shutdown,
        };
        let fed = feed(&mut front);
        front.flush();
        drop(front);

        // A writer panic is reported as an error, not re-raised: the feed
        // has already returned, so nothing is left blocked on the dead
        // thread.
        let closed = writer
            .join()
            .map_err(|_| "writer thread panicked; output is incomplete".to_string())??;
        fed?;
        Ok(closed)
    })
}

/// `serve`'s feed: reads, validates and pushes stdin queries. Delta lines
/// quiesce the pool and go through the pipeline's update step here,
/// between chunks, so the answer stream splits exactly at the delta. A
/// stdin read failure is fatal — after what was already read has gone
/// through the pool.
pub(crate) fn serve_stdin(
    pipeline: &Pipeline,
    input: impl Read,
    feed: &mut Feed<'_>,
) -> Result<(), String> {
    let mut input = BufReader::with_capacity(READ_AHEAD, input);
    // Fixed for the session: a delta must name existing vertices, so no
    // generation an update publishes changes the count.
    let n = pipeline.handle.current().store.graph().num_vertices();
    let mut line = String::new();
    let mut lineno = 0;
    while !feed.stopped() {
        match next_line(&mut input, &mut line) {
            Ok(true) => lineno += 1,
            Ok(false) => break,
            Err(e) => return Err(format!("reading stdin: {e}")),
        }
        if let Some((op, rest)) = delta_op(&line) {
            match parse_delta_rest(op, rest, "stdin", lineno) {
                Err(msg) => {
                    pipeline.metrics.update_failures.inc();
                    eprintln!("error: {msg}");
                }
                Ok(delta) => {
                    // No in-flight chunk may straddle the generation swap.
                    feed.quiesce();
                    if feed.stopped() {
                        break;
                    }
                    let origin = format!("stdin:{lineno}");
                    if let Err(e) = pipeline.update(&origin, &[delta], Instant::now()) {
                        eprintln!("error: {origin}: {e}");
                    }
                }
            }
        } else if let Some(request) = pipeline.parse_query(&line, "stdin", lineno, n) {
            feed.push(request);
        }
        // A partial chunk goes as soon as input pauses, so an interactive
        // client is answered line by line.
        if input.buffer().is_empty() {
            feed.flush();
        }
    }
    Ok(())
}

/// Claims chunks, answers them through the pipeline on a private context
/// and formats the output bytes into the chunk's slot. Skips the work (but
/// keeps draining) once shutdown is flagged.
fn worker_loop(
    pipeline: &Pipeline,
    job_rx: &Mutex<Receiver<Job>>,
    shutdown: &AtomicBool,
    worker: usize,
) {
    let mut ctx = QueryContext::new();
    loop {
        // Hold the lock only for the dequeue, never across query work. A
        // peer worker panicking mid-`recv` leaves the Receiver intact, so
        // recover the poisoned lock and keep serving.
        let job = lock_recover(job_rx, "job queue").recv();
        let Ok((requests, slot)) = job else {
            return; // the feed dropped the channel: input exhausted
        };
        if shutdown.load(Ordering::Acquire) {
            continue; // drain without computing; nobody will write it
        }
        // One generation snapshot per chunk: the feed quiesces the pool
        // before swapping generations, so every chunk sees exactly the
        // generation that was current when it was sent, and a swap can
        // never unmap state under a running chunk.
        let generation = pipeline.handle.current();
        let pinned = Pinned::new(&generation);
        let answers: Vec<Answer> = requests
            .into_iter()
            .map(|request| pipeline.answer(&pinned, &mut ctx, request))
            .collect();
        // Formatted in a second pass: run between queries, the formatter
        // measured a few percent slower.
        let mut text = String::with_capacity(answers.len() * 12);
        for answer in &answers {
            push_answer_line(&mut text, answer.request.u, answer.request.v, answer.dist);
        }
        // Fails only once the writer dropped the slot: nobody writes it.
        let _ = slot.send(Chunk {
            text,
            worker,
            answers,
        });
    }
}

/// Writes chunks in the order their slots arrive, flushing per chunk and
/// handing its answers to `on_answer`. **Any** write error — broken pipe
/// or fatal — flips the shutdown flag and keeps taking slots until the
/// feed closes the order channel, dropping chunks and answering barriers,
/// so the feed is never left blocked. Fatal errors are reported after the
/// drain; a broken pipe returns `Ok(true)`.
fn writer_loop(
    output: impl Write,
    order: Receiver<Slot>,
    shutdown: &AtomicBool,
    mut on_answer: impl FnMut(&Answer, usize, Instant),
) -> Result<bool, String> {
    let mut out = std::io::BufWriter::new(output);
    let mut failed: Option<String> = None;
    let mut closed = false;
    for slot in order {
        let result = match slot {
            Slot::Barrier(done) => {
                let _ = done.send(());
                continue;
            }
            Slot::Chunk(result) => result,
        };
        if closed || failed.is_some() {
            continue; // draining: output is done, the pool is winding down
        }
        let Ok(chunk) = result.recv() else {
            // The slot was dropped unfilled: its worker panicked mid-chunk
            // (the scope re-raises that panic once every thread is done).
            failed = Some("query worker panicked; output is incomplete".into());
            shutdown.store(true, Ordering::Release);
            continue;
        };
        match out
            .write_all(chunk.text.as_bytes())
            .and_then(|()| out.flush())
        {
            Ok(()) => {
                // Handed over only now, on the wire (`serve` records line
                // parsed to answer flushed, the span the socket front end
                // reports too), and before any later barrier is
                // acknowledged, so a quiesced feed sees every earlier
                // answer recorded.
                let sent = Instant::now();
                for answer in &chunk.answers {
                    on_answer(answer, chunk.worker, sent);
                }
            }
            Err(e) => {
                if e.kind() == ErrorKind::BrokenPipe {
                    closed = true;
                } else {
                    failed = Some(format!("writing output: {e}"));
                }
                shutdown.store(true, Ordering::Release);
            }
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(closed),
    }
}
