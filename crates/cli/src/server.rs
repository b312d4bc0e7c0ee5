//! The network serving front end: `hcl serve --listen <addr>`.
//!
//! This file does framing and admission; parsing, answering, recording
//! and live updates go through the shared [`Pipeline`] (`pipeline.rs`),
//! exactly as stdin serving does.
//!
//! A deliberately small, dependency-free socket server in the shape the
//! ROADMAP asked for — the proven pool discipline promoted from stdin to
//! TCP:
//!
//! * **Accept loop** (the calling thread): a non-blocking `TcpListener`
//!   waited on with `poll(2)` — woken at once by an incoming connection,
//!   and at least once per short tick to look at the signal flags (drain /
//!   reload) and the stdin-EOF shutdown flag — so one loop multiplexes all
//!   of them without any async runtime.
//! * **Admission control**: accepted sockets go through a **bounded**
//!   queue of `--max-inflight` connections feeding `--workers` handler
//!   threads. Beyond the bound, connections are turned away immediately
//!   with a `error: server busy` line (counted in `/metrics`) instead of
//!   queueing unboundedly — total connection memory is
//!   O(workers + max-inflight), and per-connection memory is one bounded
//!   line buffer (the handler answers each request before reading the
//!   next, so a pipelining client cannot balloon the server).
//! * **Two protocols on one port**, sniffed from the first request line:
//!   newline-delimited `u v` pairs answered as `u v d` lines (byte-for-
//!   byte the stdin `serve` format), or minimal HTTP/1.1
//!   (`GET /query?s=..&t=..`, `/healthz`, `/metrics`, `/reload`;
//!   one request per connection, `Connection: close`) for load balancers
//!   and scrapers.
//! * **Fault containment**: malformed and out-of-range requests are
//!   skipped with a stderr diagnostic (the stdin serve contract) and
//!   counted; oversized request lines (> [`MAX_LINE`] bytes), clients
//!   that vanish mid-request, and stalled readers that trip
//!   `--write-timeout-ms` each close *that* connection and bump a
//!   counter — the server stays up.
//! * **Graceful drain**: SIGTERM/SIGINT or stdin EOF stop the accept
//!   loop; handlers finish the request in flight, close, and the process
//!   exits 0 with the same latency summary the stdin path prints.
//! * **Zero-downtime reload**: `GET /reload` (or the `--reload-signal`
//!   Unix signal) re-opens the `--index` file and atomically swaps the
//!   new generation into the shared [`GenerationHandle`](hcl_store::GenerationHandle); in-flight
//!   requests finish on the old mmap, which is unmapped when its last
//!   snapshot drops. `save`'s rename-into-place makes the writer
//!   side safe, so a build pipeline can overwrite the file and poke the
//!   server with no coordination beyond the poke. A failing reload can
//!   retry with exponential backoff (`--reload-retries`,
//!   `--reload-backoff-ms`); the whole retry loop holds the reload lock,
//!   so concurrent triggers serialise end-to-end.
//! * **Integrity scrubbing**: an optional background thread
//!   (`--scrub-interval-s`, see `scrub.rs`) re-runs the CRC-64 pass over
//!   the live generation and the on-disk reload source; detected
//!   corruption flips `/healthz` to a 503 `degraded` answer (queries keep
//!   flowing from the intact mapping) until a clean pass or a successful
//!   reload restores it.

use crate::pipeline::{push_answer_line, Pinned, Pipeline, Request};
use hcl_index::QueryContext;
use hcl_store::IndexStore;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on one request line, TCP or HTTP. Distance requests are two
/// decimal ids (< 25 bytes); anything kilobytes long is a confused or
/// hostile client, and bounding it keeps per-connection memory fixed.
pub(crate) const MAX_LINE: usize = 8 * 1024;

/// Longest the accept loop waits for a connection before re-checking the
/// signal and shutdown flags — the latency floor for noticing a stdin-EOF
/// drain (a signal interrupts the wait). A connection never waits it out.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Read-timeout tick for connection handlers: how often an idle
/// connection re-checks the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// Hard cap on a `POST /update` body. A delta line is under 25 bytes, so
/// this admits tens of thousands of deltas per request while keeping
/// per-connection memory bounded.
const MAX_UPDATE_BODY: usize = 1024 * 1024;

/// Everything the accept loop, the handlers, and the scrubber share.
pub(crate) struct ServerState {
    /// Answers, updates and the served generation.
    pub(crate) pipeline: Pipeline,
    /// The `.hcl` container a reload re-opens (the `--index` argument);
    /// `None` when the index was built in memory from an edge list —
    /// there is no file to re-open, so reload requests are refused.
    pub(crate) reload: Option<String>,
    pub(crate) shutdown: AtomicBool,
    write_timeout: Duration,
    /// Extra reload attempts after a failure (`--reload-retries`).
    reload_retries: u32,
    /// Base pause before the first retry, doubling per attempt
    /// (`--reload-backoff-ms`).
    reload_backoff: Duration,
}

/// Server configuration assembled by `cmd_serve`.
pub(crate) struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral port,
    /// reported on stderr as `listening on <addr>`).
    pub(crate) addr: String,
    /// Connection-handler threads; each serves one connection at a time.
    pub(crate) workers: usize,
    /// Bound on *queued* admitted connections beyond the `workers` being
    /// served; further connects are rejected with a busy line.
    pub(crate) max_inflight: usize,
    /// How long one blocked answer write may stall before the connection
    /// is declared dead (slow-reader protection).
    pub(crate) write_timeout: Duration,
    /// Reload source; `None` disables `/reload` and the reload signal.
    pub(crate) reload: Option<String>,
    /// Unix signal number that triggers a reload (e.g. SIGHUP = 1), if
    /// any.
    pub(crate) reload_signal: Option<i32>,
    /// Extra attempts after a failed reload (`--reload-retries`).
    pub(crate) reload_retries: u32,
    /// Base backoff before the first retry, doubling per attempt
    /// (`--reload-backoff-ms`).
    pub(crate) reload_backoff: Duration,
    /// Background integrity-scrub cadence (`--scrub-interval-s`); `None`
    /// disables the scrubber thread.
    pub(crate) scrub_interval: Option<Duration>,
    /// Suppress the shutdown latency summary line (`--quiet`).
    pub(crate) quiet: bool,
}

/// Runs the socket front end until drained. Returns `Ok` on a graceful
/// shutdown (SIGTERM/SIGINT/stdin-EOF); the process then exits 0.
pub(crate) fn serve_listen(pipeline: Pipeline, cfg: ServerConfig) -> Result<(), String> {
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener nonblocking: {e}"))?;

    let state = Arc::new(ServerState {
        pipeline,
        reload: cfg.reload,
        shutdown: AtomicBool::new(false),
        write_timeout: cfg.write_timeout,
        reload_retries: cfg.reload_retries,
        reload_backoff: cfg.reload_backoff,
    });
    sig::install(cfg.reload_signal);

    // The line the tooling greps for: the bound address (resolving `:0`)
    // plus the knobs that shape admission.
    eprintln!(
        "listening on {local} ({} workers, max {} queued connections, write timeout {:?}{})",
        cfg.workers,
        cfg.max_inflight,
        cfg.write_timeout,
        match (&state.reload, cfg.reload_signal) {
            (Some(path), Some(sig)) => format!(", reload via /reload or signal {sig} from {path}"),
            (Some(path), None) => format!(", reload via /reload from {path}"),
            (None, _) => ", reload disabled (no --index)".to_string(),
        }
    );

    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(cfg.max_inflight);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let handlers: Vec<_> = (0..cfg.workers.max(1))
        .map(|worker| {
            let rx = Arc::clone(&conn_rx);
            let state = Arc::clone(&state);
            std::thread::spawn(move || handler_loop(&rx, &state, worker))
        })
        .collect();

    // Background integrity scrubber: re-runs the CRC-64 pass over the
    // live generation (and the reload source on disk) every interval,
    // flipping `/healthz` to `degraded` while corruption is detected.
    let scrubber = cfg.scrub_interval.map(|interval| {
        let state = Arc::clone(&state);
        std::thread::spawn(move || crate::scrub::scrub_loop(&state, interval))
    });

    // Stdin watcher: EOF on stdin is the portable drain trigger (the
    // stdin serve mode's contract, kept for the socket mode). Detached —
    // it may stay blocked in read() past shutdown if stdin never closes.
    {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            let mut buf = [0u8; 1024];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {} // stray input on stdin is ignored in listen mode
                }
            }
            state.shutdown.store(true, Ordering::Release);
        });
    }

    let t0 = Instant::now();
    loop {
        if sig::TERM.load(Ordering::Acquire) {
            eprintln!("termination signal received; draining");
            state.shutdown.store(true, Ordering::Release);
        }
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        if sig::RELOAD.swap(false, Ordering::AcqRel) {
            match do_reload(&state) {
                Ok(gen) => eprintln!("signal reload: now serving generation {gen}"),
                Err(e) => eprintln!("error: signal reload failed: {e}"),
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.pipeline.metrics.connections.inc();
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        state.pipeline.metrics.busy_rejected.inc();
                        reject_busy(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                sig::wait_readable(&listener, ACCEPT_TICK)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                // Transient accept failures (EMFILE under load, aborted
                // handshakes) must not kill the server.
                eprintln!("error: accept: {e}; continuing");
                std::thread::sleep(ACCEPT_TICK);
            }
        }
    }

    // Drain: stop admitting (drop the sender), let handlers finish their
    // in-flight request, and close anything still queued unserved.
    state.shutdown.store(true, Ordering::Release);
    drop(conn_tx);
    for h in handlers {
        // A handler that panicked has already dropped (reset) whatever
        // connection it was serving; the server itself keeps draining.
        if h.join().is_err() {
            state.pipeline.metrics.disconnects.inc();
            eprintln!("error: a connection handler thread panicked; its connection was dropped");
        }
    }
    if let Some(scrubber) = scrubber {
        // The scrub loop polls the shutdown flag every tick, so this join
        // is bounded by one sleep tick plus one verification pass.
        if scrubber.join().is_err() {
            eprintln!("error: the scrubber thread panicked during drain");
        }
    }

    let m = &state.pipeline.metrics;
    state.pipeline.print_summary(
        &format!(
            "over {} connections in {:.1?} with {} workers ({} reloads, {} rejected busy)",
            m.connections.get(),
            t0.elapsed(),
            cfg.workers.max(1),
            m.reloads.get(),
            m.busy_rejected.get(),
        ),
        cfg.quiet,
    );
    Ok(())
}

/// Re-opens the reload source and swaps it in as the new generation,
/// retrying up to `--reload-retries` times with exponential backoff.
///
/// The whole retry loop runs under `reload_lock`, so a signal-triggered
/// retry sequence and a concurrent HTTP `/reload` are serialised
/// end-to-end — generation swaps can never interleave out of order. A
/// successful reload also clears the scrubber's `degraded` flag: the new
/// generation was just (re-)validated at open.
pub(crate) fn do_reload(state: &ServerState) -> Result<u64, String> {
    let Some(path) = &state.reload else {
        return Err("reload unavailable: server was built from an edge list, not --index".into());
    };
    let _serialised = state.pipeline.lock_swaps();
    let t0 = Instant::now();
    let attempts = state.reload_retries.saturating_add(1);
    let mut last_err = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            // Exponential backoff: base × 2^(retry-1), capped at 2^10 so
            // the shift cannot overflow however large --reload-retries is.
            let pause = state
                .reload_backoff
                .saturating_mul(1u32 << (attempt - 1).min(10));
            if !crate::sync::sleep_unless(pause, &state.shutdown) {
                return Err(format!(
                    "reload abandoned by shutdown after {attempt} failed attempt(s); \
                     last error: {last_err}"
                ));
            }
        }
        match IndexStore::open(path) {
            Ok(store) => {
                let generation = state.pipeline.install_reloaded(store);
                state.pipeline.metrics.reloads.inc();
                if state.pipeline.metrics.degraded.swap(0, Ordering::Relaxed) != 0 {
                    eprintln!(
                        "health restored: reload published a freshly validated generation; \
                         /healthz is ok again"
                    );
                }
                eprintln!(
                    "reloaded {path} as generation {generation} in {:.1?} (in-flight queries \
                     finish on the old mapping)",
                    t0.elapsed()
                );
                return Ok(generation);
            }
            Err(e) => {
                state.pipeline.metrics.reload_failures.inc();
                last_err = format!("re-opening {path}: {e}");
                if attempt + 1 < attempts {
                    eprintln!(
                        "error: reload attempt {}/{attempts} failed: {last_err}; retrying",
                        attempt + 1
                    );
                }
            }
        }
    }
    Err(last_err)
}

/// Turns away a connection that arrived past the admission bound. Best
/// effort: the client may already be gone, and a stalled client gets at
/// most one second of our time.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut stream = stream;
    let _ = stream.write_all(b"error: server busy (max-inflight reached); retry later\n");
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One handler thread: serves admitted connections one at a time until
/// the admission channel closes. Owns one reusable [`QueryContext`] —
/// the per-worker scratch discipline from the stdin pool.
fn handler_loop(rx: &Mutex<Receiver<TcpStream>>, state: &ServerState, worker: usize) {
    let mut ctx = QueryContext::new();
    loop {
        // A peer handler panicking mid-dequeue leaves the Receiver intact;
        // recover the lock and keep admitting connections.
        let conn = crate::sync::lock_recover(rx, "admission queue").recv();
        let Ok(stream) = conn else {
            return; // accept loop dropped the sender: drained
        };
        if state.shutdown.load(Ordering::Acquire) {
            // Admitted but never served before the drain began: close it
            // rather than start new work during shutdown.
            drop(stream);
            continue;
        }
        let inflight = &state.pipeline.metrics.inflight;
        inflight.fetch_add(1, Ordering::Relaxed);
        handle_conn(stream, &mut ctx, state, worker);
        inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A full line is in the buffer (terminator stripped).
    Line,
    /// Peer closed its write side; `partial` is true when bytes of an
    /// unterminated request were left behind (a mid-request disconnect).
    Eof { partial: bool },
    /// The read timed out ([`READ_TICK`]); check shutdown and retry.
    TimedOut,
    /// The line exceeded `max` bytes; the connection is past saving.
    Oversized,
}

/// Reads one `\n`-terminated line into `buf` (which accumulates across
/// [`LineRead::TimedOut`] returns), enforcing the size cap *while
/// reading* — a hostile client cannot make the buffer grow past
/// `max + one BufReader block` no matter how much it sends.
fn read_line_bounded(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(LineRead::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(LineRead::Eof {
                partial: !buf.is_empty(),
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            if buf.last() == Some(&b'\r') {
                buf.pop(); // accept CRLF (telnet/HTTP framing) transparently
            }
            return Ok(if buf.len() > max {
                LineRead::Oversized
            } else {
                LineRead::Line
            });
        }
        let taken = available.len();
        buf.extend_from_slice(available);
        reader.consume(taken);
        if buf.len() > max {
            return Ok(LineRead::Oversized);
        }
    }
}

/// Does a first request line look like HTTP rather than a `u v` pair?
fn looks_like_http(line: &str) -> bool {
    ["GET ", "POST ", "HEAD ", "PUT ", "DELETE "]
        .iter()
        .any(|m| line.starts_with(m))
}

/// Serves one connection to completion: protocol sniff on the first
/// line, then either the newline `u v` loop or one HTTP exchange.
fn handle_conn(stream: TcpStream, ctx: &mut QueryContext, state: &ServerState, worker: usize) {
    let m = &state.pipeline.metrics;
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "tcp-peer".into());
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(state.write_timeout));
    let reader_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            m.disconnects.inc();
            return;
        }
    };
    let mut reader = BufReader::with_capacity(4096, reader_half);
    let mut writer = BufWriter::new(stream);

    let mut line = Vec::with_capacity(64);
    let mut lineno = 0usize;
    let mut first = true;
    loop {
        match read_line_bounded(&mut reader, &mut line, MAX_LINE) {
            Ok(LineRead::TimedOut) => {
                if state.shutdown.load(Ordering::Acquire) {
                    let _ = writer.flush();
                    return; // drain: the request in flight (none) is done
                }
            }
            Ok(LineRead::Eof { partial }) => {
                if partial {
                    m.disconnects.inc();
                    eprintln!("error: {peer}: disconnected mid-request (partial line dropped)");
                }
                let _ = writer.flush();
                return;
            }
            Ok(LineRead::Oversized) => {
                m.oversized.inc();
                eprintln!("error: {peer}: request line exceeds {MAX_LINE} bytes; closing");
                let _ = writer
                    .write_all(format!("error: request line exceeds {MAX_LINE} bytes\n").as_bytes())
                    .and_then(|()| writer.flush());
                return;
            }
            Ok(LineRead::Line) => {
                lineno += 1;
                let text = String::from_utf8_lossy(&line).into_owned();
                line.clear();
                if first && looks_like_http(&text) {
                    handle_http(&text, &mut reader, &mut writer, ctx, state, &peer, worker);
                    return; // one exchange per HTTP connection
                }
                first = false;
                if !handle_tcp_request(&text, lineno, &mut writer, ctx, state, &peer, worker) {
                    return;
                }
                if state.shutdown.load(Ordering::Acquire) {
                    let _ = writer.flush();
                    return; // drain: current request answered, stop here
                }
            }
            Err(_) => {
                m.disconnects.inc();
                return;
            }
        }
    }
}

/// Handles one `u v` line. Returns `false` when the connection must
/// close (write failure). Invalid requests are skipped with a stderr
/// diagnostic and a metrics bump — never an answer line — so the answer
/// stream stays byte-identical to stdin serving for the same input.
fn handle_tcp_request(
    text: &str,
    lineno: usize,
    writer: &mut impl Write,
    ctx: &mut QueryContext,
    state: &ServerState,
    peer: &str,
    worker: usize,
) -> bool {
    let pipeline = &state.pipeline;
    let generation = pipeline.handle.current();
    let n = generation.store.graph().num_vertices();
    let Some(request) = pipeline.parse_query(text, peer, lineno, n) else {
        return true;
    };
    let answer = pipeline.answer(&Pinned::new(&generation), ctx, request);
    let mut buf = String::with_capacity(24);
    push_answer_line(&mut buf, answer.request.u, answer.request.v, answer.dist);
    if !write_answer_bytes(writer, buf.as_bytes(), state, peer) {
        return false;
    }
    pipeline.record(&answer, "tcp", worker, Instant::now());
    true
}

/// Writes and flushes one answer, classifying failures: a stalled reader
/// trips the write timeout, a vanished one counts as a disconnect.
/// Returns `false` when the connection is dead.
fn write_answer_bytes(
    writer: &mut impl Write,
    bytes: &[u8],
    state: &ServerState,
    peer: &str,
) -> bool {
    match writer.write_all(bytes).and_then(|()| writer.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            state.pipeline.metrics.write_timeouts.inc();
            eprintln!(
                "error: {peer}: answer write stalled past {:?} (slow reader); closing",
                state.write_timeout
            );
            false
        }
        Err(_) => {
            state.pipeline.metrics.disconnects.inc();
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.x handling
// ---------------------------------------------------------------------------

/// Serves one HTTP exchange: drains headers, dispatches on the path,
/// writes a `Connection: close` response.
#[allow(clippy::too_many_arguments)]
fn handle_http(
    request_line: &str,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    ctx: &mut QueryContext,
    state: &ServerState,
    peer: &str,
    worker: usize,
) {
    let m = &state.pipeline.metrics;
    m.http_requests.inc();

    // Drain headers (bounded): the only one we act on is Content-Length
    // (to frame a `POST /update` body), but the socket must be past all
    // of them before the response for well-behaved clients.
    let mut content_length: Option<usize> = None;
    let mut header = Vec::with_capacity(128);
    for _ in 0..100 {
        header.clear();
        match read_line_bounded(reader, &mut header, MAX_LINE) {
            Ok(LineRead::Line) if header.is_empty() => break, // blank line: end of headers
            Ok(LineRead::Line) => {
                let text = String::from_utf8_lossy(&header);
                if let Some((name, value)) = text.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse::<usize>().ok();
                    }
                }
            }
            Ok(LineRead::TimedOut) => {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Ok(LineRead::Eof { .. }) => break, // HTTP/1.0-style bare request
            Ok(LineRead::Oversized) | Err(_) => {
                m.disconnects.inc();
                return;
            }
        }
    }

    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(method), Some(target)) => (method, target),
        _ => {
            respond(
                writer,
                state,
                peer,
                400,
                "Bad Request",
                "text/plain",
                "malformed request line\n",
            );
            return;
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // A known path answers only its listed methods; an unknown one is 404.
    let allowed: &[&str] = match path {
        "/healthz" | "/metrics" | "/query" => &["GET"],
        "/reload" => &["GET", "POST"],
        "/update" => &["POST"],
        _ => &[],
    };
    if !allowed.is_empty() && !allowed.contains(&method) {
        let body = format!("try {}\n", allowed.join(" or "));
        respond(
            writer,
            state,
            peer,
            405,
            "Method Not Allowed",
            "text/plain",
            &body,
        );
        return;
    }
    match path {
        "/healthz" => {
            // Degraded: the scrubber found corruption in the live
            // generation or the reload source. The server keeps answering
            // queries from the (intact) mapped generation, but load
            // balancers should stop routing new traffic here.
            if m.degraded.load(Ordering::Relaxed) != 0 {
                respond(
                    writer,
                    state,
                    peer,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "degraded\n",
                );
            } else {
                respond(writer, state, peer, 200, "OK", "text/plain", "ok\n");
            }
        }
        "/metrics" => {
            let body = m.render(state.pipeline.handle.number());
            respond(writer, state, peer, 200, "OK", "text/plain", &body);
        }
        "/query" => handle_http_query(query, writer, ctx, state, peer, worker),
        "/update" => handle_http_update(content_length, reader, writer, state, peer),
        "/reload" => match do_reload(state) {
            Ok(generation) => {
                let body = format!("{{\"ok\":true,\"generation\":{generation}}}\n");
                respond(writer, state, peer, 200, "OK", "application/json", &body);
            }
            Err(e) => {
                let (status, reason) = if state.reload.is_none() {
                    (409, "Conflict")
                } else {
                    (500, "Internal Server Error")
                };
                let body = format!("{{\"ok\":false,\"error\":{:?}}}\n", e);
                respond(
                    writer,
                    state,
                    peer,
                    status,
                    reason,
                    "application/json",
                    &body,
                );
            }
        },
        _ => {
            respond(
                writer,
                state,
                peer,
                404,
                "Not Found",
                "text/plain",
                "unknown path\n",
            );
        }
    }
}

/// `GET /query?s=A&t=B` → `{"s":A,"t":B,"dist":D|null,"generation":G}`.
fn handle_http_query(
    query: &str,
    writer: &mut impl Write,
    ctx: &mut QueryContext,
    state: &ServerState,
    peer: &str,
    worker: usize,
) {
    let pipeline = &state.pipeline;
    pipeline.metrics.requests.inc();
    let received = Instant::now();
    let (mut s, mut t) = (None, None);
    for kv in query.split('&') {
        match kv.split_once('=') {
            Some(("s", val)) => s = val.parse::<u32>().ok(),
            Some(("t", val)) => t = val.parse::<u32>().ok(),
            _ => {}
        }
    }
    let (Some(s), Some(t)) = (s, t) else {
        pipeline.metrics.malformed.inc();
        respond(
            writer,
            state,
            peer,
            400,
            "Bad Request",
            "application/json",
            "{\"ok\":false,\"error\":\"expected /query?s=<u32>&t=<u32>\"}\n",
        );
        return;
    };
    let generation = pipeline.handle.current();
    let n = generation.store.graph().num_vertices();
    if s as usize >= n || t as usize >= n {
        pipeline.metrics.out_of_range.inc();
        let body = format!("{{\"ok\":false,\"error\":\"vertex id out of range\",\"n\":{n}}}\n");
        respond(
            writer,
            state,
            peer,
            400,
            "Bad Request",
            "application/json",
            &body,
        );
        return;
    }
    let request = Request {
        u: s,
        v: t,
        received,
    };
    let answer = pipeline.answer(&Pinned::new(&generation), ctx, request);
    let dist = match answer.dist {
        Some(d) => d.to_string(),
        None => "null".into(),
    };
    let body = format!(
        "{{\"s\":{s},\"t\":{t},\"dist\":{dist},\"generation\":{}}}\n",
        generation.number
    );
    if respond(writer, state, peer, 200, "OK", "application/json", &body) {
        pipeline.record(&answer, "http", worker, Instant::now());
    }
}

/// Reads exactly `len` body bytes, honouring the shutdown flag on
/// read-timeout ticks. `Err` means the connection is past saving (peer
/// vanished or the server is draining) — close without a response.
fn read_body_bounded(
    reader: &mut impl BufRead,
    len: usize,
    state: &ServerState,
) -> Result<Vec<u8>, ()> {
    let mut body = Vec::with_capacity(len.min(MAX_UPDATE_BODY));
    while body.len() < len {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if state.shutdown.load(Ordering::Acquire) {
                    return Err(());
                }
                continue;
            }
            Err(_) => return Err(()),
        };
        if available.is_empty() {
            return Err(()); // peer closed mid-body
        }
        let take = available.len().min(len - body.len());
        body.extend_from_slice(&available[..take]);
        reader.consume(take);
    }
    Ok(body)
}

/// `POST /update`: a body of `+u v` / `-u v` lines applied through
/// incremental label repair and published as a new generation.
///
/// The whole batch is transactional from the client's point of view: the
/// deltas are parsed up front, applied to the (lazily created) update
/// engine, appended to the `--index` file as one synced journal frame,
/// and only then swapped in. On *any* failure the engine is discarded —
/// the served generation and the file on disk keep their pre-request
/// state, and the next update restarts from the last published
/// generation.
fn handle_http_update(
    content_length: Option<usize>,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    state: &ServerState,
    peer: &str,
) {
    let m = &state.pipeline.metrics;
    let received = Instant::now();
    let Some(len) = content_length else {
        m.update_failures.inc();
        respond(
            writer,
            state,
            peer,
            411,
            "Length Required",
            "application/json",
            "{\"ok\":false,\"error\":\"POST /update needs a Content-Length body of delta lines\"}\n",
        );
        return;
    };
    if len > MAX_UPDATE_BODY {
        m.update_failures.inc();
        let body =
            format!("{{\"ok\":false,\"error\":\"update body exceeds {MAX_UPDATE_BODY} bytes\"}}\n");
        respond(
            writer,
            state,
            peer,
            413,
            "Payload Too Large",
            "application/json",
            &body,
        );
        return;
    }
    let Ok(body) = read_body_bounded(reader, len, state) else {
        m.disconnects.inc();
        return;
    };
    let text = String::from_utf8_lossy(&body);

    // Parse the whole batch before touching anything: a body with any
    // bad line is rejected as a unit.
    let deltas = match crate::update::parse_delta_script(text.as_bytes(), peer) {
        Ok(deltas) => deltas,
        Err(e) => {
            m.update_failures.inc();
            let body = format!("{{\"ok\":false,\"error\":{e:?}}}\n");
            respond(
                writer,
                state,
                peer,
                400,
                "Bad Request",
                "application/json",
                &body,
            );
            return;
        }
    };

    match state.pipeline.update(peer, &deltas, received) {
        Ok(done) => {
            let body = format!(
                "{{\"ok\":true,\"applied\":{},\"ignored\":{},\"pending\":{},\
                 \"generation\":{}}}\n",
                done.applied, done.ignored, done.pending, done.generation
            );
            respond(writer, state, peer, 200, "OK", "application/json", &body);
        }
        Err(e) => {
            let (status, reason) = match e {
                hcl_store::UpdateError::Invalid { .. } => (400, "Bad Request"),
                _ => (500, "Internal Server Error"),
            };
            let body = format!("{{\"ok\":false,\"error\":{:?}}}\n", e.to_string());
            respond(
                writer,
                state,
                peer,
                status,
                reason,
                "application/json",
                &body,
            );
        }
    }
}

/// Writes one complete HTTP response. Returns `true` on success (the
/// failure classification happens inside, like every answer write).
fn respond(
    writer: &mut impl Write,
    state: &ServerState,
    peer: &str,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> bool {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let mut bytes = Vec::with_capacity(head.len() + body.len());
    bytes.extend_from_slice(head.as_bytes());
    bytes.extend_from_slice(body.as_bytes());
    write_answer_bytes(writer, &bytes, state, peer)
}

// ---------------------------------------------------------------------------
// Signal plumbing (flags only; all real work happens on the accept loop)
// ---------------------------------------------------------------------------

#[cfg(unix)]
pub(crate) mod sig {
    //! Async-signal-safe flag setters installed with POSIX `signal(2)`
    //! via the same direct-FFI discipline `hcl-store` uses for mmap: the
    //! handlers only store to static atomics; the accept loop polls.
    //!
    //! This module is the one `unsafe_code` exception in the binary (the
    //! crate root denies it); the FFI surface is two `signal(2)` calls
    //! and the accept loop's `poll(2)`.
    #![allow(unsafe_code)]

    use std::io::ErrorKind;
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Set by SIGTERM/SIGINT: drain and exit 0.
    pub(crate) static TERM: AtomicBool = AtomicBool::new(false);
    /// Set by the configured reload signal: swap in a new generation.
    pub(crate) static RELOAD: AtomicBool = AtomicBool::new(false);

    pub(crate) const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    #[cfg(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd"))]
    pub(crate) const SIGUSR1: i32 = 30;
    #[cfg(not(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd")))]
    pub(crate) const SIGUSR1: i32 = 10;
    const SIGTERM: i32 = 15;

    /// `struct pollfd` of `poll(2)`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 1;
    /// `nfds_t`.
    #[cfg(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd"))]
    type Nfds = std::ffi::c_uint;
    #[cfg(not(any(target_os = "macos", target_os = "freebsd", target_os = "openbsd")))]
    type Nfds = std::ffi::c_ulong;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_reload(_sig: i32) {
        RELOAD.store(true, Ordering::SeqCst);
    }

    /// Installs the drain handlers (SIGTERM, SIGINT) and, when given, the
    /// reload signal.
    pub(crate) fn install(reload_signal: Option<i32>) {
        let term = on_term as extern "C" fn(i32) as *const () as usize;
        let reload = on_reload as extern "C" fn(i32) as *const () as usize;
        // SAFETY: `signal(2)` is called with valid signal numbers and
        // handler addresses of `extern "C" fn(i32)` items that live for
        // the whole program; the handlers themselves only perform
        // async-signal-safe atomic stores (no allocation, no locks), and
        // installation happens once on the main thread before any
        // handler thread is spawned.
        unsafe {
            signal(SIGTERM, term);
            signal(SIGINT, term);
            if let Some(s) = reload_signal {
                signal(s, reload);
            }
        }
    }

    /// Blocks until a connection is waiting on `listener`, `timeout`
    /// elapses, or a signal arrives — whichever is first; the caller
    /// re-checks its flags and retries `accept` in every case.
    pub(crate) fn wait_readable(listener: &TcpListener, timeout: Duration) {
        let mut fd = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `poll(2)` reads and writes exactly `nfds` = 1 `pollfd`
        // through the pointer, which is to a live local whose `repr(C)`
        // layout is the C struct's; the descriptor is borrowed from
        // `listener`, which outlives the call.
        let rc = unsafe { poll(&mut fd, 1, timeout_ms) };
        if rc < 0 && std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
            // A failing poll must not turn the accept loop into a spin.
            std::thread::sleep(timeout);
        }
    }
}

#[cfg(not(unix))]
pub(crate) mod sig {
    //! Non-Unix stub: no signals; drain still works via stdin EOF.
    use std::sync::atomic::AtomicBool;

    pub(crate) static TERM: AtomicBool = AtomicBool::new(false);
    pub(crate) static RELOAD: AtomicBool = AtomicBool::new(false);
    pub(crate) const SIGHUP: i32 = 1;
    pub(crate) const SIGUSR1: i32 = 10;

    pub(crate) fn install(_reload_signal: Option<i32>) {}

    /// No readiness wait without `poll(2)`: sleep out the tick.
    pub(crate) fn wait_readable(_listener: &std::net::TcpListener, timeout: std::time::Duration) {
        std::thread::sleep(timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_reader_splits_lines_and_strips_crlf() {
        let mut r = BufReader::new(Cursor::new(b"0 1\n2 3\r\npartial".to_vec()));
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_bounded(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line
        ));
        assert_eq!(buf, b"0 1");
        buf.clear();
        assert!(matches!(
            read_line_bounded(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line
        ));
        assert_eq!(buf, b"2 3");
        buf.clear();
        assert!(matches!(
            read_line_bounded(&mut r, &mut buf, 64).unwrap(),
            LineRead::Eof { partial: true }
        ));
    }

    #[test]
    fn bounded_reader_caps_unterminated_floods() {
        // 1 MiB of newline-free garbage must trip the cap long before the
        // stream ends, with the buffer never ballooning past max + block.
        let mut r = BufReader::with_capacity(512, Cursor::new(vec![b'x'; 1 << 20]));
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_bounded(&mut r, &mut buf, 4096).unwrap(),
            LineRead::Oversized
        ));
        assert!(buf.len() <= 4096 + 512);
    }

    #[test]
    fn http_sniff_only_matches_http_verbs() {
        assert!(looks_like_http("GET /healthz HTTP/1.1"));
        assert!(looks_like_http("POST /reload HTTP/1.1"));
        assert!(!looks_like_http("0 1"));
        assert!(!looks_like_http("GETTY 1"));
        assert!(!looks_like_http("# comment"));
    }
}
