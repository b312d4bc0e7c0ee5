//! End-to-end tests of the `hcl` binary: the full build → save →
//! mmap-load → query → inspect pipeline on degenerate graphs (`n = 0` and
//! a single vertex), the out-of-range skip-don't-die contract shared by
//! `query --index` and `serve`, and clean shutdown when the stdout reader
//! disappears mid-serve (`hcl serve … | head`).

mod common;

use common::{hcl, Scratch};
use std::io::{Read, Write};
use std::process::{Command, Output, Stdio};

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn hcl");
    assert!(
        out.status.success(),
        "command failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        stdout_of(&out),
        stderr_of(&out)
    );
    out
}

/// Runs the whole pipeline for one edge list and returns the final
/// `inspect` output. `stdin_queries` are piped into both `query --index`
/// and `serve --index`; both must succeed.
fn pipeline(scratch: &Scratch, edges: &str, stdin_queries: &str) -> String {
    let graph = scratch.file("graph.edges", edges);
    let index = scratch.path("graph.hcl");

    run_ok(
        hcl()
            .arg("build")
            .arg(&graph)
            .arg("--out")
            .arg(&index)
            .args(["--landmarks", "4", "--threads", "2"]),
    );

    for sub in ["query", "serve"] {
        let mut child = hcl()
            .arg(sub)
            .arg("--index")
            .arg(&index)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hcl");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(stdin_queries.as_bytes())
            .expect("write queries");
        let out = child.wait_with_output().expect("wait");
        assert!(
            out.status.success(),
            "{sub} failed on pipeline graph\nstderr: {}",
            stderr_of(&out)
        );
    }

    stdout_of(&run_ok(hcl().arg("inspect").arg(&index)))
}

#[test]
fn empty_graph_pipeline_builds_serves_inspects() {
    let scratch = Scratch::new("empty");
    let inspect = pipeline(&scratch, "# no edges at all\n", "");
    assert!(inspect.contains("vertices:      0"), "inspect: {inspect}");
    assert!(inspect.contains("landmarks:     0"), "inspect: {inspect}");
    assert!(
        inspect.contains("built with:    sweep width 64"),
        "inspect must show recorded build metadata: {inspect}"
    );
}

#[test]
fn single_vertex_pipeline_answers_the_identity_query() {
    let scratch = Scratch::new("single");
    // A lone self-loop canonicalises to one vertex with no edges.
    let inspect = pipeline(&scratch, "0 0\n", "0 0\n");
    assert!(inspect.contains("vertices:      1"), "inspect: {inspect}");
    assert!(inspect.contains("edges:         0"), "inspect: {inspect}");

    // And the identity query actually answers 0.
    let graph = scratch.file("single.edges", "0 0\n");
    let index = scratch.path("single.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&index));
    let queries = scratch.file("q.txt", "0 0\n");
    let out = run_ok(
        hcl()
            .arg("query")
            .arg("--index")
            .arg(&index)
            .arg("--queries")
            .arg(&queries),
    );
    assert_eq!(stdout_of(&out), "0 0 0\n");
}

/// Both `query --index` and `serve` must diagnose out-of-range ids with
/// `<source>:<line>` and keep answering the remaining queries — the two
/// paths used to disagree (`query` died on the first bad id).
#[test]
fn query_and_serve_agree_on_out_of_range_handling() {
    let scratch = Scratch::new("oor");
    let graph = scratch.file("g.edges", "0 1\n1 2\n");
    let index = scratch.path("g.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&index));

    let input = "0 2\n0 99\n2 2\n";

    // query --index with a queries file.
    let queries = scratch.file("queries.txt", input);
    let out = run_ok(
        hcl()
            .arg("query")
            .arg("--index")
            .arg(&index)
            .arg("--queries")
            .arg(&queries),
    );
    assert_eq!(
        stdout_of(&out),
        "0 2 2\n2 2 0\n",
        "good queries around the bad one must still be answered"
    );
    let err = stderr_of(&out);
    let diag = format!(
        "{}:2: query (0, 99) out of range (n = 3)",
        queries.display()
    );
    assert!(err.contains(&diag), "missing `{diag}` in stderr: {err}");

    // serve with the same pairs on stdin: same diagnostics, same answers.
    let mut child = hcl()
        .arg("serve")
        .arg("--index")
        .arg(&index)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    assert_eq!(stdout_of(&out), "0 2 2\n2 2 0\n");
    let err = stderr_of(&out);
    assert!(
        err.contains("stdin:2: query (0, 99) out of range (n = 3)"),
        "serve diagnostics changed: {err}"
    );
}

/// Both stdin serving paths (sequential and pooled) must end with the
/// same machine-parseable latency summary on stderr. The format is a
/// contract shared with `serve --listen`; this pins it.
#[test]
fn serve_prints_latency_summary_in_pinned_format() {
    let scratch = Scratch::new("latency");
    let graph = scratch.file("g.edges", "0 1\n1 2\n2 3\n3 4\n");
    let index = scratch.path("g.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&index));

    for workers in ["1", "4"] {
        let mut child = hcl()
            .arg("serve")
            .arg("--index")
            .arg(&index)
            .args(["--workers", workers])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(b"0 4\n1 3\n0 0\n")
            .expect("write queries");
        let out = child.wait_with_output().expect("wait");
        assert!(out.status.success());
        let err = stderr_of(&out);
        let line = err
            .lines()
            .find(|l| l.starts_with("latency: "))
            .unwrap_or_else(|| panic!("no latency summary at {workers} workers: {err}"));
        // latency: p50=X.Xµs p90=X.Xµs p99=X.Xµs mean=X.Xµs over N queries
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 8, "summary shape changed: {line}");
        for (i, prefix) in [(1, "p50="), (2, "p90="), (3, "p99="), (4, "mean=")] {
            let rest = fields[i]
                .strip_prefix(prefix)
                .unwrap_or_else(|| panic!("field {i} of `{line}` lost its `{prefix}`"));
            let value = rest
                .strip_suffix("µs")
                .unwrap_or_else(|| panic!("field {i} of `{line}` lost its µs unit"));
            let parsed: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("field {i} of `{line}` is not a decimal: {value}"));
            assert!(parsed >= 0.0);
        }
        assert_eq!(
            (fields[5], fields[6], fields[7]),
            ("over", "3", "queries"),
            "sample count changed: {line}"
        );
    }
}

/// `hcl serve … | head`-style reader disappearance: the serve loop must
/// treat the broken pipe as end-of-session — summary on stderr, exit 0 —
/// not abort with `error: writing output`.
#[test]
fn serve_survives_stdout_reader_closing() {
    let scratch = Scratch::new("epipe");
    let graph = scratch.file("g.edges", "0 1\n1 2\n2 3\n");
    let index = scratch.path("g.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&index));

    let mut child = hcl()
        .arg("serve")
        .arg("--index")
        .arg(&index)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // Close the read end of stdout before feeding any queries, so the
    // first per-line flush hits EPIPE deterministically.
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().expect("stdin piped");
    for _ in 0..64 {
        if stdin.write_all(b"0 3\n").is_err() {
            break; // serve already shut down and closed its stdin — fine
        }
    }
    drop(stdin);

    let status = child.wait().expect("wait");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("read stderr");

    assert!(
        status.success(),
        "serve must exit 0 on a closed stdout, stderr: {err}"
    );
    assert!(
        err.contains("stdout closed by reader"),
        "missing shutdown note: {err}"
    );
    assert!(
        !err.contains("error: writing output"),
        "broken pipe still reported as a write error: {err}"
    );
}

/// The same reader-closing resilience for the batch `query` path.
#[test]
fn query_survives_stdout_reader_closing() {
    let scratch = Scratch::new("epipe_query");
    let graph = scratch.file("g.edges", "0 1\n1 2\n");
    let index = scratch.path("g.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&index));

    let mut child = hcl()
        .arg("query")
        .arg("--index")
        .arg(&index)
        .args(["--random", "100000"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn query");
    drop(child.stdout.take());
    let status = child.wait().expect("wait");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("read stderr");
    assert!(
        status.success(),
        "query must exit 0 on a closed stdout, stderr: {err}"
    );
}

/// And for `inspect`, which used to panic (`failed printing to stdout`)
/// when its reader went away mid-report.
#[test]
fn inspect_survives_stdout_reader_closing() {
    let scratch = Scratch::new("epipe_inspect");
    let graph = scratch.file("g.edges", "0 1\n1 2\n");
    let index = scratch.path("g.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&index));

    let mut child = hcl()
        .arg("inspect")
        .arg(&index)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn inspect");
    drop(child.stdout.take());
    let status = child.wait().expect("wait");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("read stderr");
    assert!(
        status.success(),
        "inspect must exit 0 on a closed stdout, stderr: {err}"
    );
    assert!(!err.contains("panicked"), "inspect panicked: {err}");
}

/// A landmark request larger than the graph must not be clamped
/// *silently*: every subcommand that builds from an edge list (build,
/// query, serve) owes the user a one-line stderr warning naming both
/// numbers. There is no fourth form: `hcl <graph.edges> …` without a
/// subcommand is a usage error, not an implicit `query`.
#[test]
fn landmark_clamp_warns_on_every_subcommand() {
    let scratch = Scratch::new("clamp");
    let graph = scratch.file("g.edges", "0 1\n1 2\n");
    let index = scratch.path("g.hcl");
    let expect_warned = |out: &Output, what: &str| {
        let err = stderr_of(out);
        assert!(
            err.contains("warning: requested 99 landmarks but the graph has 3 vertices"),
            "{what}: missing clamp warning in stderr: {err}"
        );
    };

    let out = run_ok(
        hcl()
            .arg("build")
            .arg(&graph)
            .arg("--out")
            .arg(&index)
            .args(["--landmarks", "99"]),
    );
    expect_warned(&out, "build");

    let queries = scratch.file("q.txt", "0 2\n");
    let out = run_ok(
        hcl()
            .arg("query")
            .arg(&graph)
            .args(["--landmarks", "99", "--queries"])
            .arg(&queries),
    );
    expect_warned(&out, "query");
    assert_eq!(stdout_of(&out), "0 2 2\n");

    let mut child = hcl()
        .arg("serve")
        .arg(&graph)
        .args(["--landmarks", "99"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"0 1\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    expect_warned(&out, "serve");

    // No subcommand: the first argument is not a command.
    let out = hcl()
        .arg(&graph)
        .args(["--landmarks", "99", "--queries"])
        .arg(&queries)
        .output()
        .expect("spawn hcl");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert_eq!(stdout_of(&out), "");
    let err = stderr_of(&out);
    assert!(err.contains("error: unknown command"), "stderr: {err}");
    assert!(err.contains("usage: hcl <command>"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");

    // And no warning when the request fits.
    let out = run_ok(
        hcl()
            .arg("query")
            .arg(&graph)
            .args(["--landmarks", "2", "--queries"])
            .arg(&queries),
    );
    // Scoped to the clamp warning: other warnings are legitimate.
    assert!(
        !stderr_of(&out).contains("warning: requested"),
        "spurious clamp warning: {}",
        stderr_of(&out)
    );

    // The implicit default (16) clamping on a small graph is expected
    // behaviour, not a user mistake — no warning without --landmarks.
    let out = run_ok(
        hcl()
            .arg("query")
            .arg(&graph)
            .arg("--queries")
            .arg(&queries),
    );
    assert!(
        !stderr_of(&out).contains("warning: requested"),
        "default landmark count must clamp silently: {}",
        stderr_of(&out)
    );
}

/// The `num_landmarks = 0` degenerate case end to end: queries fall back
/// to pure residual BFS (verified against the oracle), the container
/// round-trips its empty landmark/highway sections, and pooled serving
/// stays byte-identical to sequential serving.
#[test]
fn zero_landmarks_pipeline_round_trips_and_serves() {
    let scratch = Scratch::new("zero_k");
    // Two components, so both finite and `inf` answers flow through the
    // landmark-free path.
    let graph = scratch.file("g.edges", "0 1\n1 2\n2 3\n4 5\n5 6\n");
    let index = scratch.path("g.hcl");
    run_ok(
        hcl()
            .arg("build")
            .arg(&graph)
            .arg("--out")
            .arg(&index)
            .args(["--landmarks", "0"]),
    );

    let inspect = stdout_of(&run_ok(hcl().arg("inspect").arg(&index)));
    assert!(inspect.contains("landmarks:     0"), "inspect: {inspect}");
    assert!(inspect.contains("label entries: 0"), "inspect: {inspect}");

    // Every answer must match the BFS oracle — pure residual fallback.
    let queries = scratch.file("q.txt", "0 3\n0 0\n4 6\n0 6\n3 2\n");
    let out = run_ok(
        hcl()
            .arg("query")
            .arg("--index")
            .arg(&index)
            .arg("--verify")
            .arg("--queries")
            .arg(&queries),
    );
    assert_eq!(stdout_of(&out), "0 3 3\n0 0 0\n4 6 2\n0 6 inf\n3 2 1\n");

    // Pooled serving over the zero-landmark index must stay byte-identical
    // to the sequential path (several chunks' worth of input).
    let mut input = String::new();
    for i in 0..600u32 {
        input.push_str(&format!("{} {}\n", i % 7, (i * 3 + 1) % 7));
    }
    let mut outputs = Vec::new();
    for workers in ["1", "4"] {
        let mut child = hcl()
            .arg("serve")
            .arg("--index")
            .arg(&index)
            .args(["--workers", workers])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("write");
        let out = child.wait_with_output().expect("wait");
        assert!(out.status.success(), "workers={workers}");
        outputs.push(stdout_of(&out));
    }
    assert!(!outputs[0].is_empty());
    assert_eq!(
        outputs[0], outputs[1],
        "k=0 pooled serving must be byte-identical to sequential"
    );
}

/// `--threads` must not change what gets written: the same edge list
/// builds the byte-identical container at every thread count, header
/// included, so two hosts with different core counts agree.
#[test]
fn threads_flag_does_not_change_the_served_index() {
    let scratch = Scratch::new("threads");
    // Two sweep groups, so 3 threads means two workers.
    let edges: String = (0..400u32)
        .map(|i| format!("{} {}\n", i, (i * 7 + 1) % 400))
        .collect();
    let graph = scratch.file("g.edges", &edges);
    let seq = scratch.path("seq.hcl");
    let par = scratch.path("par.hcl");
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&seq).args([
        "--landmarks",
        "70",
        "--threads",
        "1",
    ]));
    run_ok(hcl().arg("build").arg(&graph).arg("--out").arg(&par).args([
        "--landmarks",
        "70",
        "--threads",
        "3",
    ]));
    let a = std::fs::read(&seq).expect("read seq");
    let b = std::fs::read(&par).expect("read par");
    assert!(a == b, "the container must be thread-count independent");

    // The batched builder's knob went with it: a usage error, not ignored.
    let out = hcl()
        .arg("build")
        .arg(&graph)
        .args(["--batch", "8"])
        .output()
        .expect("spawn hcl");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr_of(&out);
    assert!(err.contains("unrecognised argument `--batch`"), "{err}");
}

/// The `index:` line names the build workers that ran, not the ones asked
/// for: at most one starts per 64-landmark sweep group. `query` on an edge
/// list prints the same line.
#[test]
fn build_reports_the_workers_that_ran() {
    let scratch = Scratch::new("workers_ran");
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/sample.edges");
    let out = run_ok(
        hcl()
            .args(["build", sample, "--landmarks", "4", "--threads", "3"])
            .arg("--out")
            .arg(scratch.path("sample.hcl")),
    );
    assert!(
        stderr_of(&out).contains(" with 1 thread(s)\n"),
        "{}",
        stderr_of(&out)
    );

    // 130 landmarks are three groups, so three workers run.
    let edges: String = (0..400u32)
        .map(|i| format!("{} {}\n", i, (i * 7 + 1) % 400))
        .collect();
    let graph = scratch.file("g.edges", &edges);
    let out = run_ok(
        hcl()
            .arg("build")
            .arg(&graph)
            .arg("--out")
            .arg(scratch.path("g.hcl"))
            .args(["--landmarks", "130", "--threads", "3"]),
    );
    assert!(
        stderr_of(&out).contains(" with 3 thread(s)\n"),
        "{}",
        stderr_of(&out)
    );
    let out = run_ok(hcl().arg("query").arg(&graph).args([
        "--landmarks",
        "130",
        "--threads",
        "3",
        "--random",
        "1",
    ]));
    assert!(
        stderr_of(&out).contains(" with 3 thread(s)\n"),
        "{}",
        stderr_of(&out)
    );
}

/// `build --progress` reports each phase on stderr as it ends, one line
/// each and in this order: the landmark selection, every sweep group, the
/// label fill and the build's total, then the phase and labelling
/// summaries, the load and build lines, the write and the peak memory.
#[test]
fn build_progress_reports_every_phase_in_order() {
    let scratch = Scratch::new("progress");
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/sample.edges");
    let out = run_ok(
        hcl()
            .args(["build", sample, "--progress", "-k", "4"])
            .arg("--out")
            .arg(scratch.path("sample.hcl")),
    );
    let err = stderr_of(&out);
    let lines: Vec<&str> = err.lines().collect();
    let prefixes = [
        "select: 4 landmark(s) by degree",
        "sweep 1: landmarks 0..4 of 4",
        "fill:",
        "build: done",
        "phases: selection",
        "labelling:",
        "graph:",
        "index:",
        "wrote",
        "memory: peak resident",
    ];
    assert_eq!(lines.len(), prefixes.len(), "{err}");
    for (line, prefix) in lines.iter().zip(prefixes) {
        assert!(line.starts_with(prefix), "expected `{prefix}…`:\n{err}");
    }
}

/// `build` labels the graph for its `--landmarks` highest-degree
/// vertices, ties broken by ascending id, clamped to the vertex count.
#[test]
fn build_takes_the_top_k_by_degree_as_landmarks() {
    let scratch = Scratch::new("top_k");
    for (n, m, seed) in [(40, 2, 1), (64, 3, 9)] {
        let g = hcl_core::testkit::barabasi_albert(n, m, seed);
        let graph = scratch.file("g.edges", &common::edge_list(&g));
        for k in [0, 1, 5, n, n + 10] {
            let out = scratch.path("g.hcl");
            run_ok(
                hcl()
                    .arg("build")
                    .arg(&graph)
                    .arg("--out")
                    .arg(&out)
                    .args(["--landmarks", &k.to_string()]),
            );
            let store = hcl_store::IndexStore::open(&out).expect("open the built container");
            assert_eq!(
                store.index().landmarks(),
                &g.rank_by_degree()[..k.min(n)],
                "BA({n}, {m}) k={k}"
            );
        }
    }
}

/// A labelling that needs a distance past a label entry's 24 bits fails
/// `build` with one `error:` line and exit code 1, not a panic. The path
/// has 2^24 + 2 vertices: its highest-degree vertex is vertex 1, whose far
/// end is then 2^24 hops out. It writes a 280 MB edge list and needs
/// ≈ 1.3 GB, so it runs in release only (CI's optimised test step).
#[test]
#[ignore = "release only: a 2^24 + 2-vertex path, run by CI's optimised test step"]
fn build_refuses_a_distance_past_the_label_limit_with_an_error() {
    const FAR: u32 = 1 << 24;
    let scratch = Scratch::new("distance_limit");
    let graph = scratch.path("path.edges");
    let mut edges = std::io::BufWriter::new(std::fs::File::create(&graph).expect("create"));
    for v in 1..=FAR + 1 {
        writeln!(edges, "{} {v}", v - 1).expect("write edge");
    }
    edges.flush().expect("flush edges");
    drop(edges);
    let out = hcl()
        .arg("build")
        .arg(&graph)
        .arg("--out")
        .arg(scratch.path("path.hcl"))
        .args(["--landmarks", "1"])
        .output()
        .expect("spawn hcl");
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let want = format!(
        "error: labelling {}: vertex {} is {FAR} hops from a landmark it is labelled with, \
         but a label entry holds distances up to {}\n",
        graph.display(),
        FAR + 1,
        FAR - 1
    );
    assert_eq!(err, want);
    assert!(!scratch.path("path.hcl").exists(), "nothing is written");
}

/// Every flag that takes a value, per subcommand: `(subcommand, long
/// name, short alias or "", whether the value must be a number)`.
const VALUE_FLAGS: &[(&str, &str, &str, bool)] = &[
    ("build", "--out", "-o", false),
    ("build", "--landmarks", "-k", true),
    ("build", "--threads", "-t", true),
    ("query", "--index", "-i", false),
    ("query", "--landmarks", "-k", true),
    ("query", "--threads", "-t", true),
    ("query", "--queries", "-q", false),
    ("query", "--random", "", true),
    ("query", "--seed", "", true),
    ("query", "--workers", "-w", true),
    ("serve", "--index", "-i", false),
    ("serve", "--landmarks", "-k", true),
    ("serve", "--threads", "-t", true),
    ("serve", "--workers", "-w", true),
    ("serve", "--listen", "-l", false),
    ("serve", "--max-inflight", "", true),
    ("serve", "--write-timeout-ms", "", true),
    ("serve", "--reload-signal", "", false),
    ("serve", "--reload-retries", "", true),
    ("serve", "--reload-backoff-ms", "", true),
    ("serve", "--scrub-interval-s", "", true),
    ("serve", "--slow-log-us", "", true),
    ("serve", "--slow-log-file", "", false),
    ("serve", "--compact-after", "", true),
    ("update", "--deltas", "-d", false),
    ("update", "--compact-after", "", true),
];

/// Every usage error the argument parser gives, on every subcommand:
/// exactly one `error: …` line, then the usage text, on stderr, nothing
/// on stdout, exit code 2. Inputs that break two rules at once pin the
/// order the rules are checked in; `-h` anywhere the parser reaches it
/// prints the usage on stdout and exits 0.
#[test]
fn usage_errors_name_the_problem_then_print_usage_and_exit_2() {
    let run = |args: &[String]| {
        hcl()
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn hcl")
    };
    let owned = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();

    let out = run(&owned(&["-h"]));
    assert_eq!(out.status.code(), Some(0));
    let usage = stdout_of(&out);
    assert!(
        usage.starts_with("usage: hcl <command> [args]\n"),
        "{usage}"
    );
    for args in [
        &["--help"][..],
        &["build", "-h"],
        &["query", "--help"],
        &["serve", "-h"],
        &["update", "-h"],
        &["inspect", "--help"],
        // The parser stops at `-h` before it sees the bad argument.
        &["build", "-h", "--bogus"],
        &["serve", "--landmarks", "4", "-h", "--listen"],
    ] {
        let out = run(&owned(args));
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(stdout_of(&out), usage, "{args:?}");
        assert_eq!(stderr_of(&out), "", "{args:?}");
    }

    // No command at all: the usage alone.
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stdout_of(&out), "");
    assert_eq!(stderr_of(&out), usage);

    let mut cases: Vec<(Vec<String>, String)> = Vec::new();
    for &(cmd, long, short, numeric) in VALUE_FLAGS {
        let names = [long, short];
        for name in names.iter().filter(|n| !n.is_empty()) {
            cases.push((owned(&[cmd, name]), format!("{long} expects a value")));
            if numeric {
                for bad in ["x", "-1", "1.5", ""] {
                    cases.push((
                        owned(&[cmd, name, bad]),
                        format!("invalid value for {long}: `{bad}`"),
                    ));
                }
            }
        }
    }
    let table: &[(&[&str], &str)] = &[
        // Numbers are range-checked by their type.
        (
            &["serve", "--reload-retries", "4294967296"],
            "invalid value for --reload-retries: `4294967296`",
        ),
        (
            &["query", "--seed", "18446744073709551616"],
            "invalid value for --seed: `18446744073709551616`",
        ),
        // A label entry holds 256 landmark ranks.
        (
            &["build", "g.edges", "--landmarks", "257"],
            "invalid value for --landmarks: `257` (at most 256)",
        ),
        (
            &["serve", "-k", "100000", "g.edges"],
            "invalid value for --landmarks: `100000` (at most 256)",
        ),
        // A flag's value is the next argument, whatever it looks like.
        (
            &["query", "--landmarks", "-h"],
            "invalid value for --landmarks: `-h`",
        ),
        (
            &["serve", "--reload-signal", "term"],
            "invalid --reload-signal `term` (expected hup, usr1, or none)",
        ),
        (
            &["serve", "--reload-signal", "HUP", "--listen", "127.0.0.1:0"],
            "invalid --reload-signal `HUP` (expected hup, usr1, or none)",
        ),
        // Unrecognised arguments: unknown flags, other commands' flags,
        // a second positional, a bare `-`.
        (&["build", "--bogus"], "unrecognised argument `--bogus`"),
        (
            &["build", "g.edges", "h.edges"],
            "unrecognised argument `h.edges`",
        ),
        (
            &["build", "g.edges", "--index", "f"],
            "unrecognised argument `--index`",
        ),
        (
            &["build", "g.edges", "--batch", "8"],
            "unrecognised argument `--batch`",
        ),
        (&["build", "-"], "unrecognised argument `-`"),
        (&["query", "--bogus"], "unrecognised argument `--bogus`"),
        (
            &["query", "--listen", "a"],
            "unrecognised argument `--listen`",
        ),
        (&["query", "--stats"], "unrecognised argument `--stats`"),
        (&["query", "--quiet"], "unrecognised argument `--quiet`"),
        (&["serve", "--bogus"], "unrecognised argument `--bogus`"),
        (
            &["serve", "--random", "3"],
            "unrecognised argument `--random`",
        ),
        (&["serve", "--verify"], "unrecognised argument `--verify`"),
        (
            &["serve", "g.edges", "h.edges"],
            "unrecognised argument `h.edges`",
        ),
        (&["update", "--bogus"], "unrecognised argument `--bogus`"),
        (
            &["update", "f.hcl", "g.hcl"],
            "unrecognised argument `g.hcl`",
        ),
        (
            &["update", "--index", "f.hcl"],
            "unrecognised argument `--index`",
        ),
        (
            &["update", "f.hcl", "--stats"],
            "unrecognised argument `--stats`",
        ),
        (&["inspect", "--bogus"], "unrecognised argument `--bogus`"),
        (
            &["inspect", "f.hcl", "g.hcl"],
            "unrecognised argument `g.hcl`",
        ),
        (
            &["inspect", "f.hcl", "--trusted"],
            "unrecognised argument `--trusted`",
        ),
        (
            &["inspect", "--index", "f.hcl"],
            "unrecognised argument `--index`",
        ),
        // Commands that take one path need it.
        (&["build"], "build needs an edge-list path"),
        (
            &["build", "--progress", "-k", "4"],
            "build needs an edge-list path",
        ),
        (&["update"], "update needs an index-file path"),
        (
            &["update", "--compact", "--trusted"],
            "unrecognised argument `--trusted`",
        ),
        (&["inspect"], "inspect needs an index-file path"),
        (&["inspect", "--stats"], "inspect needs an index-file path"),
        // Cross-flag rules.
        (
            &["query", "--queries", "q", "--random", "3"],
            "--queries and --random are mutually exclusive",
        ),
        (
            &["query", "g.edges", "--random", "3", "-q", "q"],
            "--queries and --random are mutually exclusive",
        ),
        (
            &["query", "--index", "f", "--landmarks", "4"],
            "--landmarks/--threads only apply when building from an edge list",
        ),
        (
            &["query", "-t", "2", "-i", "f"],
            "--landmarks/--threads only apply when building from an edge list",
        ),
        (
            &["serve", "--index", "f", "--threads", "2"],
            "--landmarks/--threads only apply when building from an edge list",
        ),
        (
            &["serve", "-k", "4", "-i", "f"],
            "--landmarks/--threads only apply when building from an edge list",
        ),
        (
            &["serve", "--max-inflight", "5"],
            "--max-inflight only applies with --listen",
        ),
        (
            &["serve", "--write-timeout-ms", "10"],
            "--write-timeout-ms only applies with --listen",
        ),
        (
            &["serve", "--reload-signal", "usr1"],
            "--reload-signal only applies with --listen",
        ),
        (
            &["serve", "--reload-retries", "2"],
            "--reload-retries only applies with --listen",
        ),
        (
            &["serve", "--reload-backoff-ms", "5"],
            "--reload-backoff-ms only applies with --listen",
        ),
        (
            &["serve", "--scrub-interval-s", "1"],
            "--scrub-interval-s only applies with --listen",
        ),
        (
            &["serve", "--slow-log-file", "f"],
            "--slow-log-file only applies with --slow-log-us",
        ),
        (
            &["serve", "--listen", "127.0.0.1:0", "--max-inflight", "0"],
            "--max-inflight must be at least 1",
        ),
        // Two listen-only flags and no --listen: the last one is named.
        (
            &["serve", "--max-inflight", "5", "--reload-retries", "2"],
            "--reload-retries only applies with --listen",
        ),
        (
            &["serve", "--reload-retries", "2", "--max-inflight", "5"],
            "--max-inflight only applies with --listen",
        ),
        // Two broken rules: the order the checks run in.
        (
            &[
                "query",
                "--index",
                "f",
                "-k",
                "4",
                "--queries",
                "q",
                "--random",
                "3",
            ],
            "--queries and --random are mutually exclusive",
        ),
        (
            &[
                "query",
                "g.edges",
                "--trusted",
                "--random",
                "3",
                "--queries",
                "q",
            ],
            "--queries and --random are mutually exclusive",
        ),
        (
            &["serve", "--index", "f", "-k", "4", "--max-inflight", "5"],
            "--landmarks/--threads only apply when building from an edge list",
        ),
        (
            &[
                "serve",
                "--index",
                "f",
                "--threads",
                "2",
                "--slow-log-file",
                "f",
            ],
            "--landmarks/--threads only apply when building from an edge list",
        ),
        (
            &["serve", "g.edges", "--trusted", "--scrub-interval-s", "5"],
            "--scrub-interval-s only applies with --listen",
        ),
        (
            &["serve", "--max-inflight", "0"],
            "--max-inflight only applies with --listen",
        ),
        (
            &[
                "serve",
                "--quiet",
                "--scrub-interval-s",
                "2",
                "--slow-log-file",
                "f",
            ],
            "--scrub-interval-s only applies with --listen",
        ),
        (
            &[
                "serve",
                "-l",
                "127.0.0.1:0",
                "--max-inflight",
                "0",
                "--slow-log-file",
                "f",
            ],
            "--max-inflight must be at least 1",
        ),
        // An error in the arguments comes before any cross-flag rule, and
        // the first bad argument is the one named.
        (
            &["query", "--queries", "q", "--random", "3", "--bogus"],
            "unrecognised argument `--bogus`",
        ),
        (
            &["serve", "--trusted", "--reload-signal", "x"],
            "invalid --reload-signal `x` (expected hup, usr1, or none)",
        ),
        (
            &["serve", "--landmarks", "x", "--reload-signal", "bogus"],
            "invalid value for --landmarks: `x`",
        ),
        (
            &["serve", "--reload-signal", "bogus", "--landmarks", "x"],
            "invalid --reload-signal `bogus` (expected hup, usr1, or none)",
        ),
        (
            &["build", "--bogus", "-h"],
            "unrecognised argument `--bogus`",
        ),
        (
            &["build", "-k", "x", "--bogus"],
            "invalid value for --landmarks: `x`",
        ),
        (
            &["build", "--bogus", "-k", "x"],
            "unrecognised argument `--bogus`",
        ),
        (&["build", "--landmarks"], "--landmarks expects a value"),
        (
            &["update", "--trusted", "--deltas"],
            "unrecognised argument `--trusted`",
        ),
        // Not a command.
        (&["bogus"], "unknown command `bogus`"),
        (&["Build", "g.edges"], "unknown command `Build`"),
        (
            &["g.edges", "--landmarks", "4"],
            "unknown command `g.edges`",
        ),
        (&["--index", "f.hcl"], "unknown command `--index`"),
    ];
    for (args, line) in table {
        cases.push((owned(args), line.to_string()));
    }

    for (args, line) in &cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert_eq!(stdout_of(&out), "", "{args:?}");
        assert_eq!(
            stderr_of(&out),
            format!("error: {line}\n{usage}"),
            "{args:?}"
        );
    }
}
