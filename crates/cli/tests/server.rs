//! Socket-level tests of `hcl serve --listen`: integration (TCP answers
//! byte-identical to stdin serving across graph families and worker
//! counts, HTTP endpoints), fault injection (mid-request disconnects,
//! stalled readers tripping the write timeout, oversized request lines,
//! backpressure rejection beyond `--max-inflight`), graceful drain
//! (stdin EOF and SIGTERM both exit 0 with the latency summary), and a
//! concurrent-reload property test hammering queries while the index
//! file is atomically swapped between two saved generations. The crash
//! -safety PR adds: reload retry/backoff until a bad source is repaired,
//! and the background scrubber flipping `/healthz` to 503 `degraded` on
//! injected corruption (old generation still answering byte-identically)
//! and back to `ok` after repair or a good reload.

mod common;

use common::{build_index, edge_list, hcl, Scratch};
use hcl_core::{testkit, Graph};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A deterministic workload: mostly valid pairs salted with out-of-range
/// ids, comments, blanks, and (optionally) malformed lines — the inputs
/// the serve contract says to skip with a diagnostic, identically on
/// stdin and TCP.
fn workload(n: usize, seed: u64, malformed: bool) -> String {
    let mut rng = testkit::SplitMix64::new(seed);
    let mut out = String::from("# server property workload\n");
    let space = (n.max(1) + 3) as u64;
    for i in 0..600 {
        match i % 83 {
            13 => out.push('\n'),
            29 => out.push_str("% comment line\n"),
            61 if malformed => out.push_str("not a pair\n"),
            _ => {
                let u = rng.next_below(space);
                let v = rng.next_below(space);
                out.push_str(&format!("{u} {v}\n"));
            }
        }
    }
    out
}

/// The stdin `serve` path's stdout for a workload — the byte-identity
/// reference for the TCP path.
fn stdin_serve_stdout(index: &Path, input: &str) -> String {
    let mut child = hcl()
        .arg("serve")
        .arg("--index")
        .arg(index)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stdin serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .expect("feed stdin serve");
    let out = child.wait_with_output().expect("stdin serve");
    assert!(out.status.success());
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// A running `hcl serve --listen` process bound to an ephemeral port,
/// with its stderr collected in the background.
struct Server {
    child: Child,
    addr: String,
    stdin: Option<ChildStdin>,
    stderr: Arc<Mutex<String>>,
}

impl Server {
    fn spawn(index: &Path, extra: &[&str]) -> Self {
        let mut child = hcl()
            .arg("serve")
            .arg("--index")
            .arg(index)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn server");
        let stderr_pipe = child.stderr.take().unwrap();
        let collected = Arc::new(Mutex::new(String::new()));
        let (addr_tx, addr_rx) = mpsc::channel();
        let sink = Arc::clone(&collected);
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr_pipe);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if let Some(rest) = line.strip_prefix("listening on ") {
                            let addr = rest.split_whitespace().next().unwrap().to_string();
                            let _ = addr_tx.send(addr);
                        }
                        sink.lock().unwrap().push_str(&line);
                    }
                }
            }
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server never printed its listen address");
        let stdin = child.stdin.take();
        Self {
            child,
            addr,
            stdin,
            stderr: collected,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    }

    /// Sends a full workload, half-closes, and reads every answer.
    fn tcp_roundtrip(&self, input: &str) -> String {
        let mut stream = self.connect();
        stream.write_all(input.as_bytes()).expect("send workload");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read answers");
        out
    }

    /// One `GET` exchange: `(status, body)`.
    fn http_get(&self, target: &str) -> (u16, String) {
        http_get_addr(&self.addr, target)
    }

    /// One `POST` exchange: `(status, body)`.
    fn http_post(&self, target: &str, body: &str) -> (u16, String) {
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        http_exchange(&self.addr, &(head + body))
    }

    /// Reads one counter from `/metrics`.
    fn metric(&self, name: &str) -> u64 {
        let (status, body) = self.http_get("/metrics");
        assert_eq!(status, 200, "metrics endpoint failed");
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{body}"))
    }

    /// Polls `/metrics` until `name >= target` or the deadline passes.
    fn wait_metric_at_least(&self, name: &str, target: u64, deadline: Duration) -> u64 {
        let t0 = Instant::now();
        loop {
            let value = self.metric(name);
            if value >= target {
                return value;
            }
            assert!(
                t0.elapsed() < deadline,
                "metric {name} stuck at {value} < {target} after {deadline:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Triggers a graceful drain by closing the server's stdin, waits for
    /// exit, and returns `(status, collected stderr)`.
    fn drain(mut self) -> (ExitStatus, String) {
        drop(self.stdin.take());
        let status = wait_exit(&mut self.child, Duration::from_secs(60));
        // Give the stderr collector a beat to drain the pipe after exit.
        std::thread::sleep(Duration::from_millis(100));
        let stderr = self.stderr.lock().unwrap().clone();
        (status, stderr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `GET` exchange against an address: `(status, body)`. Free-standing
/// so background threads can issue requests (e.g. a `/reload` that blocks
/// in the retry loop) without borrowing the `Server`.
fn http_get_addr(addr: &str, target: &str) -> (u16, String) {
    http_exchange(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n"),
    )
}

/// One raw HTTP exchange: sends `request` verbatim and returns
/// `(status, body)`.
fn http_exchange(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// `Child::wait` with a polling deadline, so a wedged server fails the
/// test instead of hanging the harness.
fn wait_exit(child: &mut Child, deadline: Duration) -> ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(
            t0.elapsed() < deadline,
            "server did not exit within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------------
// Integration: TCP ≡ stdin, across families × worker counts
// ---------------------------------------------------------------------------

#[test]
fn tcp_answers_match_stdin_serve_across_families_and_workers() {
    let scratch = Scratch::new("identity");
    let families: Vec<(&str, Graph)> = vec![
        ("path", testkit::path(30)),
        ("cycle", testkit::cycle(31)),
        ("star", testkit::star(24)),
        ("er", testkit::erdos_renyi(60, 0.08, 0xFEED)),
        ("ba", testkit::barabasi_albert(80, 3, 0xBEEF)),
    ];
    for (name, graph) in &families {
        let index = build_index(&scratch, name, &edge_list(graph), 4);
        let input = workload(graph.num_vertices(), 0xD15C0 ^ name.len() as u64, true);
        let expected = stdin_serve_stdout(&index, &input);
        assert!(!expected.is_empty(), "{name}: empty reference output");
        for workers in [1usize, 4] {
            let server = Server::spawn(&index, &["--workers", &workers.to_string()]);
            let got = server.tcp_roundtrip(&input);
            assert_eq!(
                got, expected,
                "{name}: TCP answers diverge from stdin serve at {workers} workers"
            );
            let (status, stderr) = server.drain();
            assert!(status.success(), "{name}: drain exit != 0\n{stderr}");
        }
    }
}

#[test]
fn tcp_connection_can_pipeline_interactively() {
    // Request-response (not bulk half-close): each line answered before
    // the next is sent, over one connection.
    let scratch = Scratch::new("interactive");
    let graph = testkit::grid(5, 6);
    let index = build_index(&scratch, "grid", &edge_list(&graph), 4);
    let expected = stdin_serve_stdout(&index, "0 29\n3 4\n10 22\n");
    let server = Server::spawn(&index, &[]);

    let stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut got = String::new();
    for line in ["0 29\n", "3 4\n", "10 22\n"] {
        writer.write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        got.push_str(&answer);
    }
    assert_eq!(got, expected);
    drop((reader, writer));
    let (status, _) = server.drain();
    assert!(status.success());
}

/// The accept loop wakes for an incoming connection instead of sleeping
/// out its 25 ms flag-polling tick: 20 *sequential* fresh connections —
/// each one request, one answer — finish in well under one tick apiece
/// (sleeping out the tick they took ≈ 330 ms).
#[test]
fn fresh_connections_are_accepted_without_waiting_out_the_tick() {
    let scratch = Scratch::new("accept_latency");
    let graph = testkit::grid(5, 6);
    let index = build_index(&scratch, "grid", &edge_list(&graph), 4);
    let server = Server::spawn(&index, &[]);
    let round = || {
        let t0 = Instant::now();
        for _ in 0..20 {
            assert_eq!(server.tcp_roundtrip("0 29\n"), "0 29 9\n");
        }
        t0.elapsed()
    };
    // Best of three: a loaded test host may stall any one round.
    let best = (0..3).map(|_| round()).min().unwrap();
    assert!(
        best < Duration::from_millis(100),
        "20 fresh connections took {best:?}; the accept loop is sleeping between them"
    );
    let (status, _) = server.drain();
    assert!(status.success());
}

// ---------------------------------------------------------------------------
// HTTP endpoints
// ---------------------------------------------------------------------------

#[test]
fn http_endpoints_answer_health_query_metrics() {
    let scratch = Scratch::new("http");
    let graph = testkit::path(10);
    let index = build_index(&scratch, "path", &edge_list(&graph), 2);
    let server = Server::spawn(&index, &[]);

    let (status, body) = server.http_get("/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // A path graph's distances are checkable by eye: d(0, 9) = 9.
    let (status, body) = server.http_get("/query?s=0&t=9");
    assert_eq!(status, 200, "body: {body}");
    assert!(
        body.contains("\"s\":0") && body.contains("\"t\":9") && body.contains("\"dist\":9"),
        "unexpected query body: {body}"
    );
    assert!(body.contains("\"generation\":1"), "body: {body}");

    let (status, body) = server.http_get("/query?s=0&t=99");
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "body: {body}");

    let (status, body) = server.http_get("/query?s=zero&t=1");
    assert_eq!(status, 400);
    assert!(body.contains("expected /query"), "body: {body}");

    let (status, _) = server.http_get("/nope");
    assert_eq!(status, 404);

    assert_eq!(server.metric("hcl_answers_total"), 1);
    assert_eq!(server.metric("hcl_out_of_range_total"), 1);
    assert_eq!(server.metric("hcl_malformed_total"), 1);
    assert_eq!(server.metric("hcl_index_generation"), 1);
    assert!(server.metric("hcl_http_requests_total") >= 5);

    let (status, _) = server.drain();
    assert!(status.success());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[test]
fn disconnect_mid_request_is_counted_and_survived() {
    let scratch = Scratch::new("disconnect");
    let graph = testkit::cycle(12);
    let index = build_index(&scratch, "cycle", &edge_list(&graph), 2);
    let server = Server::spawn(&index, &[]);

    // Half a request, then vanish.
    {
        let mut stream = server.connect();
        stream.write_all(b"0 ").unwrap();
    }
    server.wait_metric_at_least("hcl_disconnects_total", 1, Duration::from_secs(20));

    // The server is still fully functional afterwards.
    assert_eq!(server.tcp_roundtrip("0 6\n"), "0 6 6\n");
    let (status, _) = server.drain();
    assert!(status.success());
}

#[test]
fn oversized_request_line_is_rejected_and_survived() {
    let scratch = Scratch::new("oversized");
    let graph = testkit::star(8);
    let index = build_index(&scratch, "star", &edge_list(&graph), 2);
    let server = Server::spawn(&index, &[]);

    let mut stream = server.connect();
    let flood = vec![b'7'; 100 * 1024];
    // The server may rightly close before reading the whole flood; a
    // write error here *is* the rejection taking effect.
    let _ = stream.write_all(&flood);
    let _ = stream.write_all(b"\n");
    let mut response = String::new();
    let _ = (&mut stream).take(4096).read_to_string(&mut response);
    if !response.is_empty() {
        assert!(
            response.contains("error: request line exceeds"),
            "unexpected response: {response}"
        );
    }
    drop(stream);
    server.wait_metric_at_least("hcl_oversized_total", 1, Duration::from_secs(20));

    // Fresh connections still get answers.
    assert_eq!(server.tcp_roundtrip("0 1\n"), "0 1 1\n");
    let (status, _) = server.drain();
    assert!(status.success());
}

#[test]
fn stalled_reader_trips_write_timeout_and_is_counted() {
    let scratch = Scratch::new("stall");
    let graph = testkit::path(6);
    let index = build_index(&scratch, "path", &edge_list(&graph), 2);
    // A short write timeout so the stall is detected quickly.
    let server = Server::spawn(&index, &["--write-timeout-ms", "250"]);

    // Pipeline requests forever and never read an answer: the server's
    // socket send buffer (plus our receive buffer) fills, its flush
    // blocks past the timeout, and the connection must be dropped with
    // the event counted — without taking the server down.
    let stream = server.connect();
    let stop = Arc::new(AtomicBool::new(false));
    let writer_stop = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        let request = b"0 1\n".repeat(1024);
        while !writer_stop.load(Ordering::Relaxed) {
            if stream.write_all(&request).is_err() {
                break; // server dropped us: the expected outcome
            }
        }
    });

    server.wait_metric_at_least("hcl_write_timeouts_total", 1, Duration::from_secs(30));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    assert_eq!(server.tcp_roundtrip("0 5\n"), "0 5 5\n");
    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("slow reader"),
        "missing stall diagnostic in:\n{stderr}"
    );
}

#[test]
fn connections_beyond_max_inflight_are_rejected_busy() {
    let scratch = Scratch::new("busy");
    let graph = testkit::path(6);
    let index = build_index(&scratch, "path", &edge_list(&graph), 2);
    // One handler, one queue slot: the third concurrent connection must
    // be turned away immediately.
    let server = Server::spawn(&index, &["--workers", "1", "--max-inflight", "1"]);

    // A occupies the only handler (answered request proves it's being
    // served, and staying connected keeps the handler occupied).
    let stream_a = server.connect();
    let mut reader_a = BufReader::new(stream_a.try_clone().unwrap());
    let mut writer_a = stream_a;
    writer_a.write_all(b"0 1\n").unwrap();
    let mut answer = String::new();
    reader_a.read_line(&mut answer).unwrap();
    assert_eq!(answer, "0 1 1\n");

    // B fills the single queue slot.
    let _stream_b = server.connect();
    // Give the accept loop a beat to enqueue B before C arrives.
    std::thread::sleep(Duration::from_millis(300));

    // C is over the admission bound: busy line, then close.
    let mut stream_c = server.connect();
    let mut rejection = String::new();
    stream_c.read_to_string(&mut rejection).expect("read busy");
    assert!(
        rejection.contains("server busy"),
        "expected busy rejection, got: {rejection:?}"
    );

    // Releasing A lets B get served.
    drop((reader_a, writer_a));
    let mut stream_b = _stream_b;
    stream_b.write_all(b"0 2\n").unwrap();
    stream_b.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answers = String::new();
    stream_b.read_to_string(&mut answers).expect("B served");
    assert_eq!(answers, "0 2 2\n");

    // Only now is a handler free to serve the metrics probe itself —
    // while saturated, even /metrics gets the busy line, by design.
    assert_eq!(server.metric("hcl_busy_rejected_total"), 1);

    let (status, _) = server.drain();
    assert!(status.success());
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

#[test]
fn stdin_eof_drains_gracefully_with_latency_summary() {
    let scratch = Scratch::new("drain");
    let graph = testkit::cycle(20);
    let index = build_index(&scratch, "cycle", &edge_list(&graph), 4);
    let server = Server::spawn(&index, &[]);
    assert_eq!(server.tcp_roundtrip("0 10\n1 3\n"), "0 10 10\n1 3 2\n");

    let (status, stderr) = server.drain();
    assert!(status.success(), "drain exit: {status:?}\n{stderr}");
    assert!(
        stderr.contains("served 2 queries over"),
        "missing serve summary in:\n{stderr}"
    );
    // The same pinned latency-summary format the stdin path prints.
    assert!(
        stderr.contains("latency: p50="),
        "missing latency summary in:\n{stderr}"
    );
    for field in [" p90=", " p99=", " mean=", " over 2 queries"] {
        assert!(stderr.contains(field), "missing {field} in:\n{stderr}");
    }
}

#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_exits_zero() {
    let scratch = Scratch::new("sigterm");
    let graph = testkit::path(8);
    let index = build_index(&scratch, "path", &edge_list(&graph), 2);
    let mut server = Server::spawn(&index, &[]);
    assert_eq!(server.tcp_roundtrip("0 7\n"), "0 7 7\n");

    let kill = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(kill.success());
    let status = wait_exit(&mut server.child, Duration::from_secs(60));
    assert!(status.success(), "SIGTERM drain exit: {status:?}");
    std::thread::sleep(Duration::from_millis(100));
    let stderr = server.stderr.lock().unwrap().clone();
    assert!(
        stderr.contains("termination signal received; draining"),
        "missing drain log in:\n{stderr}"
    );
    assert!(
        stderr.contains("served 1 queries over"),
        "stderr:\n{stderr}"
    );
}

// ---------------------------------------------------------------------------
// Zero-downtime reload
// ---------------------------------------------------------------------------

/// Atomically replaces `live` with a copy of `src` (write sibling, then
/// rename — the same discipline `save` uses), so the server's
/// re-open never sees a torn file.
fn swap_in(src: &Path, live: &Path) {
    let tmp = live.with_extension("swap.tmp");
    std::fs::copy(src, &tmp).expect("copy generation");
    std::fs::rename(&tmp, live).expect("rename generation into place");
}

#[test]
fn http_reload_swaps_generations_and_failure_keeps_serving() {
    let scratch = Scratch::new("reload");
    let graph = testkit::barabasi_albert(60, 3, 7);
    let edges = edge_list(&graph);
    let gen_a = build_index(&scratch, "gen_a", &edges, 4);
    let gen_b = build_index(&scratch, "gen_b", &edges, 8);
    let live = scratch.path("live.hcl");
    std::fs::copy(&gen_a, &live).expect("seed live file");

    let server = Server::spawn(&live, &[]);
    assert_eq!(server.metric("hcl_index_generation"), 1);

    swap_in(&gen_b, &live);
    let (status, body) = server.http_get("/reload");
    assert_eq!(status, 200, "reload body: {body}");
    assert!(body.contains("\"generation\":2"), "body: {body}");
    assert_eq!(server.metric("hcl_index_generation"), 2);

    // Publish a corrupt file (atomically, via rename, so the current
    // generation's mmap keeps its old inode): the reload must fail,
    // count the failure, and keep serving generation 2.
    let garbage = scratch.file("garbage.bin", "HCLSTOR garbage");
    std::fs::rename(&garbage, &live).expect("publish corrupt file");
    let (status, body) = server.http_get("/reload");
    assert_eq!(status, 500, "body: {body}");
    assert_eq!(server.metric("hcl_reload_failures_total"), 1);
    assert_eq!(server.metric("hcl_index_generation"), 2);
    assert_eq!(
        server.tcp_roundtrip("0 1\n"),
        stdin_serve_stdout(&gen_b, "0 1\n")
    );

    let (exit, _) = server.drain();
    assert!(exit.success());
}

#[test]
fn concurrent_queries_survive_repeated_reloads() {
    let scratch = Scratch::new("reload_hammer");
    let graph = testkit::barabasi_albert(120, 3, 0xABAD);
    let n = graph.num_vertices();
    let edges = edge_list(&graph);
    // Two generations with different landmark counts: both answer every
    // query exactly, so correctness is generation-independent — any
    // response must simply match the reference answers.
    let gen_a = build_index(&scratch, "gen_a", &edges, 4);
    let gen_b = build_index(&scratch, "gen_b", &edges, 8);
    let live = scratch.path("live.hcl");
    std::fs::copy(&gen_a, &live).expect("seed live file");

    // Reference answers from the stdin path.
    let mut rng = testkit::SplitMix64::new(0x51AB);
    let queries: Vec<(u64, u64)> = (0..60)
        .map(|_| (rng.next_below(n as u64), rng.next_below(n as u64)))
        .collect();
    let input: String = queries.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let expected: Vec<String> = stdin_serve_stdout(&gen_a, &input)
        .lines()
        .map(|l| l.to_string())
        .collect();
    assert_eq!(expected.len(), queries.len());

    let server = Server::spawn(&live, &["--workers", "4"]);
    let addr = server.addr.clone();
    let stop = Arc::new(AtomicBool::new(false));

    // Hammer: three clients loop the workload request-response over
    // long-lived connections; every answer must be correct and no
    // connection may error while reloads churn underneath.
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("hammer connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut served = 0u64;
                'outer: loop {
                    for ((u, v), want) in queries.iter().zip(&expected) {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        writer
                            .write_all(format!("{u} {v}\n").as_bytes())
                            .unwrap_or_else(|e| panic!("client {c}: write: {e}"));
                        let mut answer = String::new();
                        reader
                            .read_line(&mut answer)
                            .unwrap_or_else(|e| panic!("client {c}: read: {e}"));
                        assert_eq!(
                            answer.trim_end(),
                            want.as_str(),
                            "client {c}: wrong answer during reload churn"
                        );
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Churn: 15 atomic file swaps + HTTP reloads while the hammer runs.
    let mut generation = 1;
    for i in 0..15 {
        swap_in(if i % 2 == 0 { &gen_b } else { &gen_a }, &live);
        let (status, body) = server.http_get("/reload");
        assert_eq!(status, 200, "reload {i} failed: {body}");
        generation += 1;
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("hammer client panicked"))
        .sum();
    assert!(total > 0, "hammer never completed a request");
    assert_eq!(server.metric("hcl_index_generation"), generation);
    assert_eq!(server.metric("hcl_reloads_total"), 15);
    assert_eq!(server.metric("hcl_disconnects_total"), 0);
    assert_eq!(server.metric("hcl_write_timeouts_total"), 0);

    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
}

// ---------------------------------------------------------------------------
// Crash safety: reload retry/backoff and the integrity scrubber
// ---------------------------------------------------------------------------

#[test]
fn reload_retries_with_backoff_until_source_repairs() {
    let scratch = Scratch::new("reload_retry");
    let graph = testkit::barabasi_albert(60, 3, 21);
    let edges = edge_list(&graph);
    let gen_a = build_index(&scratch, "gen_a", &edges, 4);
    let gen_b = build_index(&scratch, "gen_b", &edges, 8);
    let live = scratch.path("live.hcl");
    std::fs::copy(&gen_a, &live).expect("seed live file");

    // Generous retry budget, short base backoff; explicit --workers so
    // /metrics stays reachable while one worker blocks in the retry loop.
    let server = Server::spawn(
        &live,
        &[
            "--workers",
            "4",
            "--reload-retries",
            "40",
            "--reload-backoff-ms",
            "50",
        ],
    );
    assert_eq!(server.metric("hcl_index_generation"), 1);

    // Publish garbage (atomically, so the live mmap keeps its inode),
    // then trigger a reload from a background thread: it must sit in the
    // retry loop rather than fail.
    let garbage = scratch.file("garbage.bin", "HCLSTOR garbage");
    std::fs::rename(&garbage, &live).expect("publish corrupt file");
    let addr = server.addr.clone();
    let reload = std::thread::spawn(move || http_get_addr(&addr, "/reload"));

    // At least two failed attempts prove the backoff loop is really
    // retrying (a single failure would be the old one-shot behaviour).
    server.wait_metric_at_least("hcl_reload_failures_total", 2, Duration::from_secs(30));
    assert_eq!(server.metric("hcl_reloads_total"), 0);
    assert_eq!(server.metric("hcl_index_generation"), 1);
    // The old generation answers normally while the reload retries.
    assert_eq!(
        server.tcp_roundtrip("0 1\n"),
        stdin_serve_stdout(&gen_a, "0 1\n")
    );

    // Repair the source: the in-flight reload's next attempt must win.
    swap_in(&gen_b, &live);
    let (status, body) = reload.join().expect("reload thread panicked");
    assert_eq!(status, 200, "reload after repair failed: {body}");
    assert!(body.contains("\"generation\":2"), "body: {body}");
    assert_eq!(server.metric("hcl_index_generation"), 2);
    assert_eq!(server.metric("hcl_reloads_total"), 1);

    let (exit, stderr) = server.drain();
    assert!(exit.success(), "stderr:\n{stderr}");
    assert!(
        stderr.contains("; retrying"),
        "missing retry diagnostic in:\n{stderr}"
    );
}

#[test]
fn scrubber_degrades_healthz_and_recovers_after_repair() {
    let scratch = Scratch::new("scrub");
    let graph = testkit::barabasi_albert(60, 3, 33);
    let edges = edge_list(&graph);
    let gen_a = build_index(&scratch, "gen_a", &edges, 4);
    let live = scratch.path("live.hcl");
    std::fs::copy(&gen_a, &live).expect("seed live file");

    let input = "0 1\n3 9\n";
    let expected = stdin_serve_stdout(&gen_a, input);

    let server = Server::spawn(&live, &["--scrub-interval-s", "1"]);
    let (status, body) = server.http_get("/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Quarantine property, step 1: publish a corrupt source atomically.
    // The mmap pins the old inode, so the live generation is untouched;
    // only the scrubber's re-read of the path can notice.
    let garbage = scratch.file("garbage.bin", "HCLSTOR garbage");
    std::fs::rename(&garbage, &live).expect("publish corrupt file");
    server.wait_metric_at_least("hcl_scrub_failures_total", 1, Duration::from_secs(30));

    let (status, body) = server.http_get("/healthz");
    assert_eq!(
        (status, body.as_str()),
        (503, "degraded\n"),
        "corruption must degrade /healthz"
    );
    assert_eq!(server.metric("hcl_degraded"), 1);
    // ...while the old generation keeps answering byte-identically.
    assert_eq!(server.tcp_roundtrip(input), expected);

    // Step 2: repair the source; a clean pass must restore health.
    let passes_before = server.metric("hcl_scrub_passes_total");
    swap_in(&gen_a, &live);
    server.wait_metric_at_least(
        "hcl_scrub_passes_total",
        passes_before + 1,
        Duration::from_secs(30),
    );
    let (status, body) = server.http_get("/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert_eq!(server.metric("hcl_degraded"), 0);

    let (exit, stderr) = server.drain();
    assert!(exit.success(), "stderr:\n{stderr}");
    assert!(
        stderr.contains("scrub detected corruption"),
        "missing degradation log in:\n{stderr}"
    );
    assert!(
        stderr.contains("/healthz is ok again"),
        "missing recovery log in:\n{stderr}"
    );
}

#[test]
fn good_reload_clears_scrubber_degradation() {
    let scratch = Scratch::new("scrub_reload");
    let graph = testkit::barabasi_albert(60, 3, 45);
    let edges = edge_list(&graph);
    let gen_a = build_index(&scratch, "gen_a", &edges, 4);
    let gen_b = build_index(&scratch, "gen_b", &edges, 8);
    let live = scratch.path("live.hcl");
    std::fs::copy(&gen_a, &live).expect("seed live file");

    let server = Server::spawn(&live, &["--scrub-interval-s", "1"]);
    let garbage = scratch.file("garbage.bin", "HCLSTOR garbage");
    std::fs::rename(&garbage, &live).expect("publish corrupt file");
    server.wait_metric_at_least("hcl_scrub_failures_total", 1, Duration::from_secs(30));
    let (status, _) = server.http_get("/healthz");
    assert_eq!(status, 503);

    // A successful reload re-validates the file at open, so it clears the
    // degraded state immediately — no waiting for the next scrub pass.
    swap_in(&gen_b, &live);
    let (status, body) = server.http_get("/reload");
    assert_eq!(status, 200, "reload body: {body}");
    let (status, body) = server.http_get("/healthz");
    assert_eq!(
        (status, body.as_str()),
        (200, "ok\n"),
        "a good reload must clear degradation"
    );
    assert_eq!(server.metric("hcl_degraded"), 0);
    assert_eq!(server.metric("hcl_index_generation"), 2);

    let (exit, stderr) = server.drain();
    assert!(exit.success(), "stderr:\n{stderr}");
}

/// `--trusted` is inert: a reload always opens through the checksum, so a
/// file whose label distances rotted on disk — structurally valid, only
/// the CRC can object — is refused, and the scrubber's verdict on it
/// stands.
#[test]
fn trusted_reload_does_not_bless_a_rotted_file() {
    let scratch = Scratch::new("scrub_rot_reload");
    let graph = testkit::barabasi_albert(60, 3, 45);
    let edges = edge_list(&graph);
    let gen_a = build_index(&scratch, "gen_a", &edges, 4);
    let live = scratch.path("live.hcl");
    std::fs::copy(&gen_a, &live).expect("seed live file");

    // Flip a bit inside a label *distance* (the low half of the first
    // packed entry).
    let entries = hcl_store::IndexStore::open(&gen_a)
        .expect("clean file opens")
        .sections()
        .into_iter()
        .find(|s| s.name == "label_entries")
        .expect("label_entries section present");
    let mut rotted = std::fs::read(&gen_a).expect("read clean file");
    rotted[entries.offset as usize] ^= 0x01;
    let rotted_path = scratch.path("rotted.hcl");
    std::fs::write(&rotted_path, &rotted).expect("write rotted file");

    let input = "0 1\n3 9\n17 42\n";
    let server = Server::spawn(&live, &["--trusted", "--scrub-interval-s", "1"]);
    let before = server.tcp_roundtrip(input);
    assert_eq!(before, stdin_serve_stdout(&gen_a, input));

    swap_in(&rotted_path, &live);
    server.wait_metric_at_least("hcl_scrub_failures_total", 1, Duration::from_secs(30));

    let (status, body) = server.http_get("/reload");
    assert_eq!(status, 500, "a rotted file must not reload: {body}");
    assert!(body.contains("checksum mismatch"), "body: {body}");
    let (status, body) = server.http_get("/healthz");
    assert_eq!(
        (status, body.as_str()),
        (503, "degraded\n"),
        "a refused reload must leave the scrubber's verdict standing"
    );
    assert_eq!(server.metric("hcl_index_generation"), 1);
    assert_eq!(server.tcp_roundtrip(input), before);

    let (exit, stderr) = server.drain();
    assert!(exit.success(), "stderr:\n{stderr}");
}

// ---------------------------------------------------------------------------
// PR-7 observability: per-mechanism counters and the socket slow log
// ---------------------------------------------------------------------------

#[test]
fn metrics_exposes_per_mechanism_answer_counters() {
    let scratch = Scratch::new("mechanism_counters");
    let index = build_index(
        &scratch,
        "ba",
        &edge_list(&testkit::barabasi_albert(80, 3, 9)),
        6,
    );
    let server = Server::spawn(&index, &[]);

    // A mix that exercises several mechanisms: self-queries (trivial) and
    // assorted pairs, over TCP and HTTP.
    let mut input = String::new();
    for i in 0..40u32 {
        input.push_str(&format!("{} {}\n", i % 80, (i * 13 + 1) % 80));
    }
    input.push_str("7 7\n");
    let answers = server.tcp_roundtrip(&input);
    assert_eq!(answers.lines().count(), 41);
    let (status, _) = server.http_get("/query?s=3&t=3");
    assert_eq!(status, 200);

    let total = server.wait_metric_at_least("hcl_answers_total", 42, Duration::from_secs(30));
    // Every answer is classified into exactly one mechanism counter, so
    // the five must sum to the answer total — and the names themselves
    // are pinned here (metric() panics on a missing name).
    let by_mechanism: u64 = [
        "hcl_answers_label_hit_total",
        "hcl_answers_highway_total",
        "hcl_answers_bfs_total",
        "hcl_answers_trivial_total",
        "hcl_answers_disconnected_total",
    ]
    .iter()
    .map(|name| server.metric(name))
    .sum();
    assert_eq!(
        by_mechanism, total,
        "mechanism counters must partition answers"
    );
    // The two deliberate self-queries are trivially classified.
    assert!(server.metric("hcl_answers_trivial_total") >= 2);

    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
}

#[test]
fn socket_slow_log_emits_valid_json_for_tcp_and_http() {
    let scratch = Scratch::new("socket_slowlog");
    let index = build_index(
        &scratch,
        "er",
        &edge_list(&testkit::erdos_renyi(50, 0.1, 5)),
        5,
    );
    let server = Server::spawn(&index, &["--slow-log-us", "0"]);

    let answers = server.tcp_roundtrip("0 13\n4 4\n");
    assert_eq!(answers.lines().count(), 2);
    let (status, _) = server.http_get("/query?s=1&t=30");
    assert_eq!(status, 200);
    server.wait_metric_at_least("hcl_answers_total", 3, Duration::from_secs(30));

    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("{\"endpoint\":"))
        .collect();
    assert_eq!(lines.len(), 3, "one slow-log line per answer:\n{stderr}");
    assert!(
        lines.iter().any(|l| l.contains("\"endpoint\":\"tcp\"")),
        "no tcp line:\n{stderr}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"endpoint\":\"http\"")),
        "no http line:\n{stderr}"
    );
    for line in &lines {
        // The full-schema validation lives in tests/observe.rs; here pin
        // the socket-specific fields: generation and worker are present
        // and the line is a complete flat object.
        assert!(line.ends_with('}'), "truncated line: {line}");
        assert!(line.contains("\"generation\":1,"), "generation: {line}");
        assert!(line.contains("\"worker\":"), "worker: {line}");
        assert!(line.contains("\"latency_us\":"), "latency: {line}");
        assert!(line.contains("\"source\":\""), "source: {line}");
    }
}

// ---------------------------------------------------------------------------
// Updates: a rejected batch leaves the live update state alone
// ---------------------------------------------------------------------------

/// A batch the graph refuses (a self-loop) changes nothing, so it must not
/// throw away the update engine either: the inserts before it stay in the
/// live overlay, and the next insert extends that overlay instead of
/// starting over from a copy of the whole served graph and labels.
#[test]
fn a_rejected_update_keeps_the_live_overlay() {
    let scratch = Scratch::new("rejected_update");
    // 20 000 vertices: an overlay folds only past n / 64 = 312 rows, far
    // beyond what four inserts patch.
    let graph = testkit::barabasi_albert(20_000, 3, 0x7e7);
    let index = build_index(&scratch, "ba", &edge_list(&graph), 16);
    let server = Server::spawn(&index, &["--workers", "2"]);

    // Late, low-degree vertices, pairwise apart: each insert patches two
    // fresh adjacency rows.
    let n = graph.num_vertices() as u32;
    let inserts: Vec<(u32, u32)> = (1..=4)
        .map(|i| (n - i, n / 2 - i))
        .inspect(|&(u, v)| assert!(!graph.has_edge(u, v)))
        .collect();
    let graph_rows = "hcl_overlay_rows{overlay=\"graph\"}";
    let mut rows = 0;
    for (i, &(u, v)) in inserts.iter().enumerate() {
        if i == 3 {
            let (status, body) = server.http_post("/update", "+7 7\n");
            assert_eq!(status, 400, "self-loop: {body}");
            assert!(body.contains("self-loop"), "body: {body}");
        }
        let (status, body) = server.http_post("/update", &format!("+{u} {v}\n"));
        assert_eq!(status, 200, "insert {i}: {body}");
        let now = server.metric(graph_rows);
        assert!(now > rows, "insert {i}: graph overlay went {rows} -> {now}");
        rows = now;
    }
    assert_eq!(server.metric("hcl_update_folds_total"), 0);

    let mut edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| graph.neighbors(u).iter().map(move |&w| (u, w)))
        .filter(|&(u, w)| u < w)
        .collect();
    edges.extend(&inserts);
    let updated = Graph::from_edges(&edges);
    let mut rng = testkit::SplitMix64::new(0x7e7);
    let mut pairs: Vec<(u32, u32)> = inserts.iter().map(|&(u, v)| (u, v + 1)).collect();
    pairs.extend((0..40).map(|_| {
        (
            rng.next_below(n as u64) as u32,
            rng.next_below(n as u64) as u32,
        )
    }));
    let input: String = pairs.iter().map(|(s, t)| format!("{s} {t}\n")).collect();
    let expected: String = pairs
        .iter()
        .map(|&(s, t)| match hcl_core::bfs::distance(&updated, s, t) {
            Some(d) => format!("{s} {t} {d}\n"),
            None => format!("{s} {t} inf\n"),
        })
        .collect();
    assert_eq!(server.tcp_roundtrip(&input), expected);
}
