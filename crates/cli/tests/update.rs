//! End-to-end tests of dynamic updates: the `update` subcommand
//! (offline batch repair + journal write-back), `+u v` / `-u v` delta
//! lines interleaved with queries on stdin serving (sequential and
//! pooled, byte-identical across worker counts), and `POST /update` on
//! the socket server — including the PR acceptance property: concurrent
//! in-flight queries see zero dropped and zero wrong answers while
//! update batches churn generations underneath.

mod common;

use common::{build_index, edge_list, hcl, Scratch};
use hcl_core::{testkit, Graph};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The first non-adjacent pair `u < v` whose distance exceeds 1, so
/// inserting the edge is effective *and* changes at least one answer.
fn non_edge(g: &Graph) -> (u32, u32) {
    let n = g.num_vertices() as u32;
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.as_view().neighbors(u).contains(&v) {
                return (u, v);
            }
        }
    }
    panic!("graph is complete; no non-edge to insert");
}

/// Runs `hcl serve --index <index> [extra…] < input`, asserting success,
/// and returns stdout. The byte-identity reference for every other path.
fn stdin_serve(index: &Path, extra: &[&str], input: &str) -> String {
    let mut child = hcl()
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(extra)
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
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Runs `hcl update <index> --deltas <script> [extra…]`, returning
/// `(status, stderr)`.
fn run_update(index: &Path, script: &Path, extra: &[&str]) -> (ExitStatus, String) {
    let out = hcl()
        .arg("update")
        .arg(index)
        .arg("--deltas")
        .arg(script)
        .args(extra)
        .output()
        .expect("spawn hcl update");
    (out.status, String::from_utf8_lossy(&out.stderr).to_string())
}

/// `hcl inspect` stdout for a container.
fn inspect(index: &Path) -> String {
    let out = hcl().arg("inspect").arg(index).output().expect("inspect");
    assert!(
        out.status.success(),
        "inspect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 inspect")
}

/// A running `hcl serve --listen` process bound to an ephemeral port.
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

    /// Sends a full workload over TCP, half-closes, reads every answer.
    fn tcp_roundtrip(&self, input: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.write_all(input.as_bytes()).expect("send workload");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read answers");
        out
    }

    fn http_get(&self, target: &str) -> (u16, String) {
        http_exchange(
            &self.addr,
            &format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n"),
        )
    }

    fn http_post(&self, target: &str, body: &str) -> (u16, String) {
        http_post_addr(&self.addr, target, body)
    }

    /// Reads one counter from `/metrics`.
    fn metric(&self, name: &str) -> u64 {
        self.metric_as(name)
    }

    /// Reads one sample from `/metrics` as `T` (a `_seconds` total is an
    /// `f64`); `name` includes any label set.
    fn metric_as<T: std::str::FromStr>(&self, name: &str) -> T {
        let (status, body) = self.http_get("/metrics");
        assert_eq!(status, 200, "metrics endpoint failed");
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{body}"))
    }

    /// Triggers a graceful drain by closing the server's stdin, waits
    /// for exit, and returns `(status, collected stderr)`.
    fn drain(mut self) -> (ExitStatus, String) {
        drop(self.stdin.take());
        let status = wait_exit(&mut self.child, Duration::from_secs(60));
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

/// One raw HTTP exchange: send `request` verbatim, return
/// `(status, body)`. Free-standing so hammer threads can use it too.
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

fn http_post_addr(addr: &str, target: &str, body: &str) -> (u16, String) {
    http_exchange(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// `Child::wait` with a polling deadline.
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

/// A deterministic pure-query workload that includes the toggled pair.
fn query_workload(g: &Graph, pair: (u32, u32), count: usize, seed: u64) -> String {
    let n = g.num_vertices() as u64;
    let mut rng = testkit::SplitMix64::new(seed);
    let mut out = format!("{} {}\n", pair.0, pair.1);
    for _ in 0..count {
        out.push_str(&format!("{} {}\n", rng.next_below(n), rng.next_below(n)));
    }
    out
}

// ---------------------------------------------------------------------------
// hcl update: offline batch repair, journal write-back, compaction
// ---------------------------------------------------------------------------

#[test]
fn update_subcommand_round_trips_and_compacts() {
    let scratch = Scratch::new("offline");
    let graph = testkit::barabasi_albert(80, 3, 0x0DD5);
    let (a, b) = non_edge(&graph);
    let edges = edge_list(&graph);
    let live = build_index(&scratch, "live", &edges, 6);
    let edited = build_index(&scratch, "edited", &format!("{edges}{a} {b}\n"), 6);
    let input = query_workload(&graph, (a, b), 50, 0x5EED);
    let ref_without = stdin_serve(&live, &[], &input);
    let ref_with = stdin_serve(&edited, &[], &input);
    assert_ne!(ref_without, ref_with, "chosen edge changes no answer");

    // Insert: repaired answers must equal a fresh rebuild of the edited
    // graph, and the delta must land in the journal (replayed at open).
    let insert = scratch.file("insert.deltas", &format!("+{a} {b}\n"));
    let (status, stderr) = run_update(&live, &insert, &[]);
    assert!(status.success(), "update failed: {stderr}");
    assert!(
        stderr.contains("1 delta(s) applied (0 no-op)"),
        "summary: {stderr}"
    );
    assert!(
        inspect(&live).contains("1 pending delta(s)"),
        "journal not visible in inspect:\n{}",
        inspect(&live)
    );
    assert_eq!(stdin_serve(&live, &[], &input), ref_with);

    // Re-applying the same insert is a no-op: nothing new journalled.
    let (status, stderr) = run_update(&live, &insert, &[]);
    assert!(status.success(), "no-op update failed: {stderr}");
    assert!(
        stderr.contains("0 delta(s) applied (1 no-op)"),
        "summary: {stderr}"
    );
    assert!(inspect(&live).contains("1 pending delta(s)"));

    // Delete + --compact: journal folds into the base and empties, and
    // the answers return to the original graph's.
    let delete = scratch.file("delete.deltas", &format!("-{a} {b}\n"));
    let (status, stderr) = run_update(&live, &delete, &["--compact"]);
    assert!(status.success(), "compacting update failed: {stderr}");
    let report = inspect(&live);
    assert!(
        report.contains("0 pending delta(s)") && report.contains("1 compaction(s)"),
        "compaction not visible:\n{report}"
    );
    assert_eq!(stdin_serve(&live, &[], &input), ref_without);
}

#[test]
fn compact_file_writes_what_update_compact_writes() {
    let scratch = Scratch::new("compact_same");
    let graph = testkit::barabasi_albert(300, 3, 0xC0DE);
    let live = build_index(&scratch, "live", &edge_list(&graph), 8);
    // Inserts and a delete, so the journal replays both repairs.
    let (a, b) = non_edge(&graph);
    let c = graph.num_vertices() as u32 - 1;
    let d = graph.neighbors(c)[0];
    let e = (0..c).find(|&w| w != d && !graph.has_edge(c, w)).unwrap();
    let script = scratch.file("mixed.deltas", &format!("+{a} {b}\n-{c} {d}\n+{c} {e}\n"));
    let (status, stderr) = run_update(&live, &script, &[]);
    assert!(status.success(), "update failed: {stderr}");
    assert!(inspect(&live).contains("3 pending delta(s)"));

    let (by_library, by_cli) = (scratch.path("library.hcl"), scratch.path("cli.hcl"));
    std::fs::copy(&live, &by_library).expect("copy container");
    std::fs::copy(&live, &by_cli).expect("copy container");
    let report = hcl_store::compact_file(&by_library).expect("compact_file");
    let nothing = scratch.file("nothing.deltas", "");
    let (status, stderr) = run_update(&by_cli, &nothing, &["--compact"]);
    assert!(status.success(), "compacting update failed: {stderr}");

    let (library, cli) = (
        std::fs::read(&by_library).expect("read compacted"),
        std::fs::read(&by_cli).expect("read compacted"),
    );
    assert!(library == cli, "compact_file and update --compact differ");
    assert_eq!(report.deltas_compacted, 3);
    assert_eq!(report.bytes_after, library.len() as u64);
    assert_eq!(report.compactions, 1);
}

#[test]
fn update_subcommand_rejects_bad_scripts_without_touching_the_file() {
    let scratch = Scratch::new("strict");
    let graph = testkit::barabasi_albert(40, 3, 0xBAD);
    let live = build_index(&scratch, "live", &edge_list(&graph), 4);
    let before = std::fs::read(&live).expect("read container");

    // A query-shaped line: the strict grammar rejects the whole script
    // before anything is applied.
    let (a, b) = non_edge(&graph);
    let unsigned = scratch.file("unsigned.deltas", &format!("+{a} {b}\n3 7\n"));
    let (status, stderr) = run_update(&live, &unsigned, &[]);
    assert!(!status.success(), "unsigned line must be fatal");
    assert!(
        stderr.contains("expected `+u v` (insert) or `-u v` (delete)"),
        "stderr: {stderr}"
    );
    assert_eq!(std::fs::read(&live).expect("re-read"), before);

    // An invalid delta (out-of-range endpoint) fails at apply time, and
    // the file is still untouched because nothing persists on error.
    let oob = scratch.file("oob.deltas", "+0 40000\n");
    let (status, stderr) = run_update(&live, &oob, &[]);
    assert!(!status.success(), "out-of-range delta must be fatal");
    assert!(stderr.contains("out of range"), "stderr: {stderr}");
    assert_eq!(std::fs::read(&live).expect("re-read"), before);
}

/// A script naming a delta the graph refuses is refused whole, after a
/// valid delta before it and before the update engine is built, with the
/// message the engine would give: the file is byte-unchanged.
#[test]
fn update_refuses_self_loops_and_out_of_range_deltas_before_repairing() {
    let scratch = Scratch::new("refuse");
    let graph = testkit::barabasi_albert(40, 3, 0x5E1F);
    let live = build_index(&scratch, "live", &edge_list(&graph), 4);
    let before = std::fs::read(&live).expect("read container");
    let (a, b) = non_edge(&graph);

    let cases = [
        (
            "self_loop",
            format!("+{a} {b}\n+7 7\n"),
            "error: applying +7 7: self-loop (7, 7) is not a valid edge\n",
        ),
        (
            "out_of_range",
            format!("+{a} {b}\n-3 40\n"),
            "error: applying -3 40: vertex 40 out of range (graph has 40 vertices; the vertex \
             set is fixed — growing it requires a rebuild)\n",
        ),
    ];
    for (tag, script, message) in cases {
        let script = scratch.file(&format!("{tag}.deltas"), &script);
        let (status, stderr) = run_update(&live, &script, &[]);
        assert_eq!(status.code(), Some(1), "{tag}: stderr {stderr}");
        assert_eq!(stderr, message, "{tag}");
        assert_eq!(std::fs::read(&live).expect("re-read"), before, "{tag}");
    }
}

// ---------------------------------------------------------------------------
// stdin serving: delta lines between queries, 1 worker ≡ N workers
// ---------------------------------------------------------------------------

#[test]
fn stdin_delta_lines_swap_answers_mid_stream_across_worker_counts() {
    let scratch = Scratch::new("stdin_deltas");
    let graph = testkit::barabasi_albert(100, 3, 0x57D1);
    let (a, b) = non_edge(&graph);
    let edges = edge_list(&graph);
    let pristine = build_index(&scratch, "pristine", &edges, 6);
    let edited = build_index(&scratch, "edited", &format!("{edges}{a} {b}\n"), 6);

    let queries = query_workload(&graph, (a, b), 40, 0xF00D);
    let lines_per_segment = queries.lines().count();
    let ref_without = stdin_serve(&pristine, &[], &queries);
    let ref_with = stdin_serve(&edited, &[], &queries);
    assert_ne!(ref_without, ref_with, "chosen edge changes no answer");

    // queries → insert → same queries → delete → same queries: answers
    // must flip to the edited graph after `+a b` and back after `-a b`.
    let input = format!("{queries}+{a} {b}\n{queries}-{a} {b}\n{queries}");
    let expected = format!("{ref_without}{ref_with}{ref_without}");

    let mut outputs = Vec::new();
    for workers in ["1", "4"] {
        // Serving with --index persists applied deltas to the file, so
        // each worker count gets its own copy.
        let copy = scratch.path(&format!("live_w{workers}.hcl"));
        std::fs::copy(&pristine, &copy).expect("copy container");
        let got = stdin_serve(&copy, &["--workers", workers], &input);
        assert_eq!(
            got.lines().count(),
            3 * lines_per_segment,
            "answer count at {workers} workers"
        );
        assert_eq!(
            got, expected,
            "wrong answers around delta lines at {workers} workers"
        );
        // Both deltas were journalled to the file; replaying insert then
        // delete reproduces the original answers on reopen.
        assert!(
            inspect(&copy).contains("2 pending delta(s)"),
            "journal not persisted:\n{}",
            inspect(&copy)
        );
        assert_eq!(stdin_serve(&copy, &[], &queries), ref_without);
        outputs.push(got);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "pooled stdout must be byte-identical to sequential"
    );
}

// ---------------------------------------------------------------------------
// POST /update: transactional batches, persistence, compaction
// ---------------------------------------------------------------------------

#[test]
fn http_update_applies_transactional_batches_and_persists() {
    let scratch = Scratch::new("http_update");
    let graph = testkit::barabasi_albert(80, 3, 0x4774);
    let (a, b) = non_edge(&graph);
    let live = build_index(&scratch, "live", &edge_list(&graph), 6);
    let server = Server::spawn(&live, &["--workers", "2"]);

    let (status, body) = server.http_get(&format!("/query?s={a}&t={b}"));
    assert_eq!(status, 200, "body: {body}");
    assert!(
        !body.contains("\"dist\":1"),
        "pair already adjacent: {body}"
    );

    // Happy path: one insert, new generation, answer changes.
    let (status, body) = server.http_post("/update", &format!("+{a} {b}\n"));
    assert_eq!(status, 200, "update body: {body}");
    assert!(
        body.contains("\"ok\":true")
            && body.contains("\"applied\":1")
            && body.contains("\"generation\":2"),
        "body: {body}"
    );
    let (status, body) = server.http_get(&format!("/query?s={a}&t={b}"));
    assert_eq!(status, 200);
    assert!(body.contains("\"dist\":1"), "insert not visible: {body}");
    assert_eq!(server.metric("hcl_updates_applied_total"), 1);
    assert_eq!(server.metric("hcl_index_generation"), 2);

    // A batch with any bad line is rejected as a unit before any state
    // changes: generation, answers, and the journal stay put.
    let (status, body) = server.http_post("/update", &format!("-{a} {b}\nnot a delta\n"));
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("expected `+u v`"), "body: {body}");
    // A batch that fails at apply time (self-loop) rolls back even after
    // earlier lines applied in-engine.
    let (status, body) = server.http_post("/update", "+0 1\n+5 5\n");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("self-loop"), "body: {body}");
    assert_eq!(server.metric("hcl_index_generation"), 2);
    let (_, body) = server.http_get(&format!("/query?s={a}&t={b}"));
    assert!(
        body.contains("\"dist\":1"),
        "rollback lost the insert: {body}"
    );
    assert!(server.metric("hcl_update_failures_total") >= 2);

    // Wrong method and missing/oversized bodies get the right statuses.
    // A known path answers only its listed methods: nothing else reloads,
    // updates or renders.
    let (status, _) = server.http_get("/update");
    assert_eq!(status, 405);
    let reloads = server.metric("hcl_reloads_total");
    for request in [
        "PUT /reload",
        "DELETE /reload",
        "DELETE /metrics",
        "HEAD /healthz",
        "POST /query?s=0&t=1",
        "PUT /update",
    ] {
        let (status, body) = http_exchange(
            &server.addr,
            &format!("{request} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n"),
        );
        assert_eq!(status, 405, "{request}: {body}");
    }
    assert_eq!(server.metric("hcl_reloads_total"), reloads);
    assert_eq!(server.metric("hcl_index_generation"), 2);
    let (status, _) = http_exchange(&server.addr, "POST /update HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, 411);
    let (status, _) = http_exchange(
        &server.addr,
        "POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert_eq!(status, 413);

    // An empty or comment-only batch changes nothing: the served
    // generation answers, and no update runs or is logged.
    for body in ["", "# nothing to do\n\n"] {
        let (status, reply) = server.http_post("/update", body);
        assert_eq!(status, 200, "body {body:?}: {reply}");
        assert!(
            reply.contains("\"applied\":0")
                && reply.contains("\"pending\":1")
                && reply.contains("\"generation\":2"),
            "body {body:?}: {reply}"
        );
    }
    assert_eq!(server.metric("hcl_index_generation"), 2);
    assert_eq!(server.metric("hcl_updates_applied_total"), 1);

    // The applied insert was persisted to the --index file as a journal
    // entry: a fresh process replays it at open.
    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
    assert_eq!(
        stderr.matches("update from ").count(),
        1,
        "only the one applied batch logs:\n{stderr}"
    );
    assert!(
        inspect(&live).contains("1 pending delta(s)"),
        "journal not persisted:\n{}",
        inspect(&live)
    );
    let answers = stdin_serve(&live, &[], &format!("{a} {b}\n"));
    assert_eq!(answers, format!("{a} {b} 1\n"));
}

#[test]
fn http_update_compact_after_folds_journal_while_serving() {
    let scratch = Scratch::new("http_compact");
    let graph = testkit::barabasi_albert(60, 3, 0xC0DE);
    let (a, b) = non_edge(&graph);
    let live = build_index(&scratch, "live", &edge_list(&graph), 4);
    let server = Server::spawn(&live, &["--compact-after", "2"]);

    let (status, body) = server.http_post("/update", &format!("+{a} {b}\n"));
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"pending\":1"), "body: {body}");
    assert_eq!(server.metric("hcl_compactions_total"), 0);

    // The second applied delta reaches the threshold: the journal folds
    // into the base sections before the write-back.
    let (status, body) = server.http_post("/update", &format!("-{a} {b}\n"));
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"pending\":0"), "body: {body}");
    assert_eq!(server.metric("hcl_compactions_total"), 1);

    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
    let report = inspect(&live);
    assert!(
        report.contains("0 pending delta(s)") && report.contains("1 compaction(s)"),
        "compaction not visible:\n{report}"
    );
}

/// A `POST /update` body is one batch: its deltas are repaired one by
/// one on a single overlay, which is published once — not once per line.
/// Same answers as the same edges posted one per request (and as the BFS
/// oracle), same repairs and folds. What a publish costs is the overlay
/// chunks the edits after it copy on write (`hcl_update_copied_bytes_total`):
/// the batch is the engine's first update, which edits over the served
/// generation's empty overlays, so it copies their two spines (one pointer
/// per `CHUNK_ROWS` vertices each) and no chunk, while every single post
/// copies at least the graph overlay's spine from the generation before
/// it.
#[test]
fn batched_update_body_materialises_once_and_matches_single_posts() {
    const BATCH: usize = 64;
    let scratch = Scratch::new("batch_body");
    let graph = testkit::barabasi_albert(20_000, 3, 0xBA7C);
    let n = graph.num_vertices() as u64;
    let mut rng = testkit::SplitMix64::new(0x64);
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    while inserts.len() < BATCH {
        let (u, v) = (rng.next_below(n) as u32, rng.next_below(n) as u32);
        let fresh = u != v
            && !graph.as_view().has_edge(u, v)
            && !inserts.contains(&(u, v))
            && !inserts.contains(&(v, u));
        if fresh {
            inserts.push((u, v));
        }
    }
    let pristine = build_index(&scratch, "pristine", &edge_list(&graph), 16);
    let servers: Vec<Server> = ["batched", "single"]
        .iter()
        .map(|tag| {
            let copy = scratch.path(&format!("{tag}.hcl"));
            std::fs::copy(&pristine, &copy).expect("copy container");
            Server::spawn(&copy, &[])
        })
        .collect();
    let (batched, single) = (&servers[0], &servers[1]);

    let body: String = inserts.iter().map(|(u, v)| format!("+{u} {v}\n")).collect();
    let (status, response) = batched.http_post("/update", &body);
    assert_eq!(status, 200, "batch: {response}");
    assert!(
        response.contains(&format!("\"applied\":{BATCH}")) && response.contains("\"generation\":2"),
        "batch: {response}"
    );
    for (u, v) in &inserts {
        let (status, response) = single.http_post("/update", &format!("+{u} {v}\n"));
        assert_eq!(status, 200, "single +{u} {v}: {response}");
    }

    // Same answers on both, and both equal to the oracle on the edited
    // graph: every inserted pair plus a random sample.
    let mut pairs = inserts.clone();
    pairs.extend((0..300).map(|_| (rng.next_below(n) as u32, rng.next_below(n) as u32)));
    let input: String = pairs.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let mut edges: Vec<(u32, u32)> = inserts.clone();
    for u in 0..n as u32 {
        edges.extend(graph.as_view().neighbors(u).iter().map(|&w| (u, w)));
    }
    let edited = Graph::from_edges(&edges);
    let expected: String = pairs
        .iter()
        .map(|&(u, v)| match hcl_core::bfs::distance(&edited, u, v) {
            Some(d) => format!("{u} {v} {d}\n"),
            None => format!("{u} {v} inf\n"),
        })
        .collect();
    assert_eq!(batched.tcp_roundtrip(&input), expected, "batched answers");
    assert_eq!(single.tcp_roundtrip(&input), expected, "single answers");

    // The same repairs ran in the same order, so the affected-set counters
    // agree; what differs is how many requests they were spread over.
    for server in [batched, single] {
        assert_eq!(server.metric("hcl_updates_applied_total"), BATCH as u64);
    }
    for name in [
        "hcl_update_affected_landmarks_total",
        "hcl_update_affected_vertices_total",
    ] {
        assert!(batched.metric(name) > 0, "{name} never moved");
        assert_eq!(batched.metric(name), single.metric(name), "{name}");
    }
    // 64 inserts patch fewer than n / 64 rows: neither side folds.
    for server in [batched, single] {
        assert_eq!(server.metric("hcl_update_folds_total"), 0);
    }
    assert_eq!(batched.metric("hcl_update_latency_samples"), 1);
    assert_eq!(single.metric("hcl_update_latency_samples"), BATCH as u64);

    let copied = "hcl_update_copied_bytes_total";
    let spine = 8 * n.div_ceil(hcl_core::delta::CHUNK_ROWS as u64);
    assert_eq!(
        batched.metric(copied),
        2 * spine,
        "the first batch copies the spines"
    );
    assert!(
        single.metric(copied) >= (BATCH as u64 - 1) * spine,
        "{BATCH} single posts copied {} bytes, under a spine per publish after the first",
        single.metric(copied)
    );

    // One `update from …` line per publish, each with its phases.
    for (server, lines) in servers.into_iter().zip([1, BATCH]) {
        let (status, stderr) = server.drain();
        assert!(status.success(), "stderr:\n{stderr}");
        let published = stderr.lines().filter(|l| l.starts_with("update from "));
        assert!(
            published
                .clone()
                .all(|l| [" materialise=", " affected=", " copied="]
                    .iter()
                    .all(|field| l.contains(field))),
            "an update line lost its phases:\n{stderr}"
        );
        assert_eq!(published.count(), lines, "stderr:\n{stderr}");
    }
}

/// Every acknowledged single-edge update is one small frame appended to
/// the file: `kill -9` after N of them loses none, the file grew by a few
/// hundred bytes, and the container image in front of them is untouched.
#[test]
fn acked_updates_survive_kill_9_as_appended_journal_frames() {
    let scratch = Scratch::new("kill9");
    let graph = testkit::barabasi_albert(90, 3, 0x9111);
    let live = build_index(&scratch, "live", &edge_list(&graph), 6);
    let before = std::fs::read(&live).expect("read container");
    let inserts: Vec<(u32, u32)> = (1..90u32)
        .filter(|&v| !graph.as_view().neighbors(0).contains(&v))
        .map(|v| (0, v))
        .take(5)
        .collect();
    assert_eq!(inserts.len(), 5);

    let mut server = Server::spawn(&live, &["--workers", "2"]);
    for (i, (u, v)) in inserts.iter().enumerate() {
        let (status, body) = server.http_post("/update", &format!("+{u} {v}\n"));
        assert_eq!(status, 200, "update {i}: {body}");
        assert!(
            body.contains(&format!("\"pending\":{}", i + 1)),
            "update {i}: {body}"
        );
    }
    assert_eq!(server.metric("hcl_journal_pending"), 5);
    assert_eq!(server.metric("hcl_update_persist_bytes_total"), 5 * 40);
    let (status, metrics) = server.http_get("/metrics");
    assert_eq!(status, 200);
    for phase in ["repair", "materialise", "persist", "swap"] {
        let name = format!("hcl_update_phase_seconds_total{{phase=\"{phase}\"}} ");
        assert!(metrics.contains(&name), "missing {name} in:\n{metrics}");
    }
    // On 90 vertices an overlay may hold one row (n / 64), so every insert
    // folds and the live generation is flat.
    assert_eq!(server.metric("hcl_update_folds_total"), 5);
    for overlay in ["graph", "labels"] {
        let name = format!("hcl_overlay_rows{{overlay=\"{overlay}\"}} 0\n");
        assert!(metrics.contains(&name), "missing {name} in:\n{metrics}");
    }
    // SIGKILL: no drain, no flush, no goodbye.
    server.child.kill().expect("kill -9");
    server.child.wait().expect("reap");
    let stderr = server.stderr.lock().unwrap().clone();
    assert!(
        stderr.contains("; folded; 40 bytes written to disk; repair="),
        "update log line lost its fold, size or phases:\n{stderr}"
    );
    drop(server);

    let after = std::fs::read(&live).expect("re-read container");
    assert_eq!(
        after.len(),
        before.len() + 5 * 40,
        "one 40-byte frame per ack"
    );
    assert!(after.len() - before.len() < 1024);
    assert_eq!(
        &after[..before.len()],
        &before[..],
        "container image rewritten"
    );

    let report = inspect(&live);
    assert!(
        report.contains("5 pending delta(s)") && report.contains("5 frame(s), 200 B"),
        "journal tail not visible:\n{report}"
    );
    let queries: String = inserts.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let expected: String = inserts
        .iter()
        .map(|(u, v)| format!("{u} {v} 1\n"))
        .collect();
    assert_eq!(stdin_serve(&live, &[], &queries), expected);
}

/// The open is lit on every surface an operator has: `inspect`'s
/// `open:` line, the `index file:` load line, and `hcl_open_seconds` —
/// a gauge for the live generation, so a reload repoints it.
#[test]
fn open_phases_show_in_inspect_on_the_load_line_and_in_metrics() {
    let scratch = Scratch::new("open_phases");
    // Big enough that the phases asserted non-zero below take well over
    // the gauge's microsecond resolution in an optimised build too.
    let graph = testkit::barabasi_albert(2_000, 3, 0x09E4);
    let live = build_index(&scratch, "live", &edge_list(&graph), 6);
    let (a, b) = non_edge(&graph);
    let edit = scratch.file("edit.txt", &format!("+{a} {b}\n"));
    let (status, stderr) = run_update(&live, &edit, &[]);
    assert!(status.success(), "stderr:\n{stderr}");

    let report = inspect(&live);
    let open = report
        .lines()
        .find(|l| l.starts_with("open: "))
        .unwrap_or_else(|| panic!("no open: line in:\n{report}"));
    for phase in ["crc ", ", graph ", ", labels ", ", replay "] {
        assert!(open.contains(phase), "missing `{phase}` in: {open}");
    }

    let open_seconds = |server: &Server, phase: &str| -> f64 {
        let (status, body) = server.http_get("/metrics");
        assert_eq!(status, 200);
        let name = format!("hcl_open_seconds{{phase=\"{phase}\"}} ");
        body.lines()
            .find_map(|l| l.strip_prefix(&name)?.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in:\n{body}"))
    };
    // A validated open of a file with one pending delta ran all four.
    let server = Server::spawn(&live, &[]);
    for phase in ["graph", "labels"] {
        open_seconds(&server, phase);
    }
    assert!(open_seconds(&server, "crc") > 0.0);
    assert!(open_seconds(&server, "replay") > 0.0);
    // Fold the journal offline and reload: nothing left to replay.
    let nothing = scratch.file("nothing.txt", "");
    let (status, stderr) = run_update(&live, &nothing, &["--compact"]);
    assert!(status.success(), "stderr:\n{stderr}");
    assert_eq!(server.http_get("/reload").0, 200);
    assert_eq!(open_seconds(&server, "replay"), 0.0);
    assert!(open_seconds(&server, "crc") > 0.0);
    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
    let load_line = stderr
        .lines()
        .find(|l| l.starts_with("index file: "))
        .unwrap_or_else(|| panic!("no load line in:\n{stderr}"));
    assert!(
        load_line.contains("loaded+validated in ") && load_line.contains(" (crc "),
        "load line lost its phases: {load_line}"
    );

    // `--trusted` is inert: the open still runs the checksum pass.
    let server = Server::spawn(&live, &["--trusted"]);
    assert!(open_seconds(&server, "crc") > 0.0);
}

// ---------------------------------------------------------------------------
// Acceptance: generation swaps drop no in-flight answer
// ---------------------------------------------------------------------------

#[test]
fn concurrent_queries_survive_update_churn() {
    let scratch = Scratch::new("update_hammer");
    let graph = testkit::barabasi_albert(120, 3, 0xCAFE);
    let n = graph.num_vertices();
    let (a, b) = non_edge(&graph);
    let edges = edge_list(&graph);
    let pristine = build_index(&scratch, "pristine", &edges, 6);
    let edited = build_index(&scratch, "edited", &format!("{edges}{a} {b}\n"), 6);
    let live = scratch.path("live.hcl");
    std::fs::copy(&pristine, &live).expect("seed live file");

    // Reference answers for both graph states: while the toggled edge
    // churns, every in-flight answer must match one of the two.
    let mut rng = testkit::SplitMix64::new(0x7146);
    let queries: Vec<(u64, u64)> = std::iter::once((a as u64, b as u64))
        .chain((0..60).map(|_| (rng.next_below(n as u64), rng.next_below(n as u64))))
        .collect();
    let input: String = queries.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let split = |s: String| -> Vec<String> { s.lines().map(|l| l.to_string()).collect() };
    let without = split(stdin_serve(&pristine, &[], &input));
    let with = split(stdin_serve(&edited, &[], &input));
    assert_eq!(without.len(), queries.len());
    assert_ne!(without, with, "chosen edge changes no answer");

    let server = Server::spawn(&live, &["--workers", "4"]);
    let addr = server.addr.clone();
    let stop = Arc::new(AtomicBool::new(false));

    // Hammer: three clients loop the workload request-response over
    // long-lived connections. No connection may error, and every answer
    // must be exact for *some* live graph state — never torn, stale
    // beyond one generation, or dropped.
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let queries = queries.clone();
            let without = without.clone();
            let with = with.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("hammer connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut served = 0u64;
                'outer: loop {
                    for (i, (u, v)) in queries.iter().enumerate() {
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
                        let got = answer.trim_end();
                        assert!(
                            got == without[i] || got == with[i],
                            "client {c}: answer {got:?} matches neither graph state \
                             ({:?} / {:?})",
                            without[i],
                            with[i]
                        );
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Churn: toggle the edge through 12 update batches while the hammer
    // runs. Every batch must succeed and swap a generation.
    for i in 0..12u64 {
        let body = if i % 2 == 0 {
            format!("+{a} {b}\n")
        } else {
            format!("-{a} {b}\n")
        };
        let (status, response) = http_post_addr(&addr, "/update", &body);
        assert_eq!(status, 200, "update {i} failed: {response}");
        assert!(response.contains("\"applied\":1"), "update {i}: {response}");
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("hammer client panicked"))
        .sum();
    assert!(total > 0, "hammer never completed a request");
    assert_eq!(server.metric("hcl_updates_applied_total"), 12);
    assert_eq!(server.metric("hcl_index_generation"), 13);
    assert_eq!(server.metric("hcl_update_failures_total"), 0);
    assert_eq!(server.metric("hcl_disconnects_total"), 0);
    assert_eq!(server.metric("hcl_write_timeouts_total"), 0);

    // After an even number of toggles the edge is gone: settled answers
    // must be exactly the original graph's.
    assert_eq!(
        server.tcp_roundtrip(&input),
        without.join("\n") + "\n",
        "settled answers diverge from the original graph"
    );

    let (status, stderr) = server.drain();
    assert!(status.success(), "stderr:\n{stderr}");
}
