//! End-to-end tests of the PR-7 observability surface: `query --explain`
//! (pinned trace format; stdout byte-identical to a normal run across
//! every testkit graph family), the slow-query log (every emitted line
//! must parse as the documented flat JSON object, on stderr and via
//! `--slow-log-file`, at one worker and several, naming the generation
//! that answered), `--quiet` (suppresses the
//! latency summary line and nothing else), the skipped-input summary,
//! and `inspect --stats` (deep stats on v5 containers, graceful absence
//! note on fabricated v4 ones).

mod common;

use common::{build_index, edge_list, hcl, Scratch};
use hcl_core::testkit;
use std::io::Write;
use std::process::{Output, Stdio};

/// Runs the binary with `args`, feeding `stdin`, asserting exit 0.
fn run_ok(args: &[&str], stdin: &str) -> Output {
    let mut child = hcl()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hcl");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .expect("feed stdin");
    let out = child.wait_with_output().expect("wait hcl");
    assert!(
        out.status.success(),
        "hcl {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

// ---------------------------------------------------------------------------
// Minimal flat-JSON-object parsing (the slow-log schema needs no more:
// string / unsigned-integer / null values, no nesting, no escapes)
// ---------------------------------------------------------------------------

/// A parsed slow-log value.
#[derive(Debug, PartialEq)]
enum Json {
    Str(String),
    Num(u64),
    Null,
}

/// Parses one `{"k":v,...}` line strictly; panics (with the offending
/// line) on anything that deviates from the documented schema shape, so
/// "every line parses" really is asserted, not approximated.
fn parse_flat_json(line: &str) -> Vec<(String, Json)> {
    let inner = line
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not an object: {line:?}"));
    let mut fields = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let r = rest
            .strip_prefix('"')
            .unwrap_or_else(|| panic!("expected key quote at {rest:?} in {line:?}"));
        let (key, r) = r
            .split_once('"')
            .unwrap_or_else(|| panic!("unterminated key in {line:?}"));
        let r = r
            .strip_prefix(':')
            .unwrap_or_else(|| panic!("expected colon after {key:?} in {line:?}"));
        let (value, r) = if let Some(r) = r.strip_prefix('"') {
            let (v, r) = r
                .split_once('"')
                .unwrap_or_else(|| panic!("unterminated value for {key:?} in {line:?}"));
            (Json::Str(v.to_string()), r)
        } else if let Some(r) = r.strip_prefix("null") {
            (Json::Null, r)
        } else {
            let end = r.find(',').unwrap_or(r.len());
            let v = r[..end]
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("bad number for {key:?} in {line:?}"));
            (Json::Num(v), &r[end..])
        };
        fields.push((key.to_string(), value));
        rest = match value_rest_after_comma(r) {
            Some(r) => r,
            None => break,
        };
    }
    fields
}

/// After one value: either `,` and more fields, or the end.
fn value_rest_after_comma(r: &str) -> Option<&str> {
    if r.is_empty() {
        return None;
    }
    Some(r.strip_prefix(',').expect("expected comma between fields"))
}

/// Asserts one slow-log line against the documented schema: exact key
/// order, closed token sets, and the expected endpoint set.
fn assert_slow_log_line(line: &str, endpoints: &[&str]) {
    let fields = parse_flat_json(line);
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "endpoint",
            "u",
            "v",
            "dist",
            "latency_us",
            "source",
            "merge",
            "hub_entries",
            "highway_improvements",
            "bfs_nodes",
            "bfs_frontier_peak",
            "worker",
            "generation",
            "bfs_edges",
        ],
        "key order drifted in {line:?}"
    );
    let get = |k: &str| &fields.iter().find(|(key, _)| key == k).unwrap().1;
    match get("endpoint") {
        Json::Str(e) => assert!(
            endpoints.contains(&e.as_str()),
            "endpoint {e:?} in {line:?}"
        ),
        other => panic!("endpoint not a string: {other:?}"),
    }
    match get("source") {
        Json::Str(s) => assert!(
            [
                "trivial",
                "disconnected",
                "label-hit",
                "highway",
                "residual-bfs"
            ]
            .contains(&s.as_str()),
            "unknown source {s:?} in {line:?}"
        ),
        other => panic!("source not a string: {other:?}"),
    }
    match get("merge") {
        Json::Str(m) => assert!(
            ["none", "linear", "gallop"].contains(&m.as_str()),
            "unknown merge {m:?} in {line:?}"
        ),
        other => panic!("merge not a string: {other:?}"),
    }
    assert!(
        matches!(get("dist"), Json::Num(_) | Json::Null),
        "dist must be number or null in {line:?}"
    );
    for numeric in [
        "u",
        "v",
        "latency_us",
        "hub_entries",
        "highway_improvements",
        "bfs_nodes",
        "bfs_frontier_peak",
        "worker",
        "generation",
        "bfs_edges",
    ] {
        assert!(
            matches!(get(numeric), Json::Num(_)),
            "{numeric} must be a number in {line:?}"
        );
    }
}

/// The slow-log lines in a stderr capture (every line that looks like
/// one must validate; other diagnostics pass through untouched).
fn slow_log_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("{\"endpoint\":"))
        .collect()
}

// ---------------------------------------------------------------------------
// query --explain
// ---------------------------------------------------------------------------

#[test]
fn explain_trace_format_is_pinned() {
    let scratch = Scratch::new("explain_pin");
    // A path graph: distances are exact and every mechanism is reachable.
    let edges = edge_list(&testkit::path(12));
    let graph = scratch.file("path.edges", &edges);
    let out = run_ok(
        &["query", graph.to_str().unwrap(), "--explain"],
        "0 0\n0 11\n",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let traces: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("explain: "))
        .collect();
    assert_eq!(traces.len(), 2, "one trace per query:\n{stderr}");
    // A self-query is fully deterministic: pin the entire line.
    assert_eq!(
        traces[0],
        "explain: (0, 0) -> 0 source=trivial merge=none hub_entries=0 \
         highway_improvements=0 bfs_nodes=0 bfs_frontier_peak=0 bfs_edges=0"
    );
    // The second line's fields vary with the labelling; pin the shape.
    assert!(
        traces[1].starts_with("explain: (0, 11) -> 11 source="),
        "trace = {}",
        traces[1]
    );
    for field in [
        " merge=",
        " hub_entries=",
        " highway_improvements=",
        " bfs_nodes=",
        " bfs_frontier_peak=",
        " bfs_edges=",
    ] {
        assert!(
            traces[1].contains(field),
            "missing {field} in {}",
            traces[1]
        );
    }
    // Stdout still carries exactly the answers.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "0 0 0\n0 11 11\n");
}

/// `--explain` changes no stdout byte, and at `--workers 4` — past two
/// pool chunks, so the chunks really go to different workers — it prints
/// the same trace lines in the same order as at `--workers 1`.
#[test]
fn explain_mode_stdout_is_byte_identical_across_families() {
    let scratch = Scratch::new("explain_identity");
    for (idx, (name, graph)) in testkit::families().into_iter().enumerate() {
        let edges = edge_list(&graph);
        let path = scratch.file(&format!("family{idx}.edges"), &edges);
        // Families with no edges rebuild as empty graphs, which cannot
        // take --random; feed them (skippable) stdin queries instead —
        // the identity must hold there too.
        let _ = graph;
        let (base, stdin, expected_traces): (Vec<&str>, &str, usize) = if edges.is_empty() {
            (
                vec!["query", path.to_str().unwrap(), "--landmarks", "4"],
                "0 1\n2 3\n",
                0,
            )
        } else {
            (
                vec![
                    "query",
                    path.to_str().unwrap(),
                    "--landmarks",
                    "4",
                    "--random",
                    "600",
                    "--seed",
                    "99",
                ],
                "",
                600,
            )
        };
        let plain = run_ok(&base, stdin);
        let mut traces = Vec::new();
        for workers in ["1", "4"] {
            let mut with_explain = base.clone();
            with_explain.extend(["--explain", "--workers", workers]);
            let explained = run_ok(&with_explain, stdin);
            assert_eq!(
                plain.stdout, explained.stdout,
                "{name}: --explain at {workers} worker(s) changed stdout"
            );
            let stderr = String::from_utf8_lossy(&explained.stderr).into_owned();
            let lines: Vec<String> = stderr
                .lines()
                .filter(|l| l.starts_with("explain: "))
                .map(str::to_string)
                .collect();
            assert_eq!(
                lines.len(),
                expected_traces,
                "{name}: expected one trace per query:\n{stderr}"
            );
            traces.push(lines);
        }
        assert_eq!(
            traces[0], traces[1],
            "{name}: explain lines differ between 1 and 4 workers"
        );
    }
}

// ---------------------------------------------------------------------------
// serve --slow-log-us / --slow-log-file
// ---------------------------------------------------------------------------

#[test]
fn slow_log_stdin_sequential_emits_valid_json_per_line() {
    let scratch = Scratch::new("slowlog_seq");
    let index = build_index(
        &scratch,
        "ba",
        &edge_list(&testkit::barabasi_albert(80, 3, 7)),
        6,
    );
    let input = "0 13\n5 5\n2 70\n";
    let out = run_ok(
        &[
            "serve",
            "--index",
            index.to_str().unwrap(),
            "--slow-log-us",
            "0",
        ],
        input,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines = slow_log_lines(&stderr);
    assert_eq!(lines.len(), 3, "one line per served query:\n{stderr}");
    for line in &lines {
        assert_slow_log_line(line, &["stdin"]);
    }
    // The trivial self-query is deterministic enough to pin pieces of.
    assert!(
        lines[1].contains("\"u\":5,\"v\":5,\"dist\":0,"),
        "line = {}",
        lines[1]
    );
    assert!(
        lines[1].contains("\"source\":\"trivial\",\"merge\":\"none\""),
        "line = {}",
        lines[1]
    );
    assert!(
        lines[1].ends_with("\"worker\":0,\"generation\":1,\"bfs_edges\":0}"),
        "line = {}",
        lines[1]
    );
}

#[test]
fn slow_log_pooled_and_file_sink() {
    let scratch = Scratch::new("slowlog_pool");
    let index = build_index(
        &scratch,
        "er",
        &edge_list(&testkit::erdos_renyi(60, 0.08, 3)),
        5,
    );
    let log_path = scratch.path("slow.jsonl");
    let mut input = String::new();
    for i in 0..200u32 {
        input.push_str(&format!("{} {}\n", i % 60, (i * 7) % 60));
    }
    let out = run_ok(
        &[
            "serve",
            "--index",
            index.to_str().unwrap(),
            "--workers",
            "4",
            "--slow-log-us",
            "0",
            "--slow-log-file",
            log_path.to_str().unwrap(),
        ],
        &input,
    );
    // Answers still come out in input order regardless of the log.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 200);
    // The file carries the log; stderr does not.
    let logged = std::fs::read_to_string(&log_path).expect("slow-log file written");
    let lines: Vec<&str> = logged.lines().collect();
    assert_eq!(lines.len(), 200, "one line per served query");
    for line in &lines {
        assert_slow_log_line(line, &["stdin"]);
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        slow_log_lines(&stderr).is_empty(),
        "--slow-log-file must divert lines off stderr:\n{stderr}"
    );
}

/// A `+u v` line swaps in a new generation, and the slow log says which
/// generation answered: the query after the delta reads generation 2 at
/// every worker count.
#[test]
fn slow_log_names_the_generation_a_delta_line_published() {
    let scratch = Scratch::new("slowlog_generation");
    let edges = edge_list(&testkit::path(12));
    let input = "0 11\n+0 11\n0 11\n";
    for workers in ["1", "4"] {
        // Each run journals the insert into its own container.
        let index = build_index(&scratch, &format!("path_w{workers}"), &edges, 4);
        let out = run_ok(
            &[
                "serve",
                "--index",
                index.to_str().unwrap(),
                "--workers",
                workers,
                "--slow-log-us",
                "0",
            ],
            input,
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), "0 11 11\n0 11 1\n");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines = slow_log_lines(&stderr);
        assert_eq!(
            lines.len(),
            2,
            "workers={workers}: one line per query:\n{stderr}"
        );
        for line in &lines {
            assert_slow_log_line(line, &["stdin"]);
        }
        assert!(
            lines[0].contains("\"dist\":11,") && lines[0].contains("\"generation\":1,"),
            "workers={workers}: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"dist\":1,") && lines[1].contains("\"generation\":2,"),
            "workers={workers}: {}",
            lines[1]
        );
    }
}

#[test]
fn slow_log_threshold_filters_fast_queries() {
    let scratch = Scratch::new("slowlog_threshold");
    let index = build_index(&scratch, "path", &edge_list(&testkit::path(20)), 4);
    // An absurd threshold: nothing on a 20-vertex path takes a minute.
    let out = run_ok(
        &[
            "serve",
            "--index",
            index.to_str().unwrap(),
            "--slow-log-us",
            "60000000",
        ],
        "0 19\n3 4\n",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        slow_log_lines(&stderr).is_empty(),
        "under-threshold queries must not log:\n{stderr}"
    );
}

#[test]
fn slow_log_file_requires_threshold_flag() {
    let out = hcl()
        .args(["serve", "--slow-log-file", "/tmp/nope.jsonl"])
        .output()
        .expect("spawn hcl");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--slow-log-file only applies with --slow-log-us"),
        "stderr = {stderr}"
    );
}

// ---------------------------------------------------------------------------
// --quiet and the skipped-input summary
// ---------------------------------------------------------------------------

#[test]
fn quiet_suppresses_only_the_latency_summary() {
    let scratch = Scratch::new("quiet");
    let index = build_index(&scratch, "cyc", &edge_list(&testkit::cycle(16)), 4);
    let input = "0 8\n1 2\n";
    for workers in ["1", "3"] {
        let loud = run_ok(
            &[
                "serve",
                "--index",
                index.to_str().unwrap(),
                "--workers",
                workers,
            ],
            input,
        );
        let loud_err = String::from_utf8_lossy(&loud.stderr);
        assert!(loud_err.contains("latency: p50="), "no summary: {loud_err}");

        let quiet = run_ok(
            &[
                "serve",
                "--index",
                index.to_str().unwrap(),
                "--workers",
                workers,
                "--quiet",
            ],
            input,
        );
        let quiet_err = String::from_utf8_lossy(&quiet.stderr);
        assert!(
            !quiet_err.contains("latency:"),
            "--quiet left the summary: {quiet_err}"
        );
        assert!(
            quiet_err.contains("served 2 queries"),
            "--quiet must keep the served line: {quiet_err}"
        );
        assert_eq!(loud.stdout, quiet.stdout, "--quiet touched stdout");
    }
}

#[test]
fn skipped_input_is_summarised_per_kind() {
    let scratch = Scratch::new("skipped");
    let index = build_index(&scratch, "star", &edge_list(&testkit::star(10)), 3);
    let input = "0 5\nnot a pair\n0 9999\n1 2\nbogus line\n";
    for workers in ["1", "2"] {
        let out = run_ok(
            &[
                "serve",
                "--index",
                index.to_str().unwrap(),
                "--workers",
                workers,
            ],
            input,
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("skipped: 2 malformed, 1 out of range"),
            "workers={workers}: missing/incorrect skip summary:\n{stderr}"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).lines().count(),
            2,
            "workers={workers}: two valid queries expected"
        );
    }

    // Clean input prints no skip line at all.
    let out = run_ok(&["serve", "--index", index.to_str().unwrap()], "0 5\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("skipped:"),
        "clean run grew a skip line: {stderr}"
    );
}

// ---------------------------------------------------------------------------
// inspect --stats
// ---------------------------------------------------------------------------

#[test]
fn inspect_stats_renders_deep_stats_for_v5_containers() {
    let scratch = Scratch::new("inspect_v5");
    let index = build_index(
        &scratch,
        "ba",
        &edge_list(&testkit::barabasi_albert(120, 3, 11)),
        8,
    );
    let out = run_ok(&["inspect", index.to_str().unwrap(), "--stats"], "");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "label histogram:",
        "  entries/vertex: p50=",
        " p99=",
        " max=",
        "top hubs:",
        "label entries",
        "build stats:",
        "  bfs visits:",
        "  label insertions:",
        "  covered:",
        "% of visits)",
        "  top contributors:",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // The plain section table is still there (additive, not replacing).
    assert!(
        text.contains("sections:"),
        "lost the section table:\n{text}"
    );
    assert!(
        text.contains("build_stats"),
        "v5 build_stats section missing from table:\n{text}"
    );

    // Without the flag, none of the deep stats appear.
    let plain = run_ok(&["inspect", index.to_str().unwrap()], "");
    let plain_text = String::from_utf8_lossy(&plain.stdout);
    assert!(!plain_text.contains("label histogram:"), "{plain_text}");
    assert!(!plain_text.contains("build stats:"), "{plain_text}");
}

#[test]
fn inspect_names_the_crc_kernel_on_the_format_line() {
    let scratch = Scratch::new("inspect_kernel");
    let index = build_index(
        &scratch,
        "ba",
        &edge_list(&testkit::barabasi_albert(120, 3, 11)),
        8,
    );
    let out = run_ok(&["inspect", index.to_str().unwrap()], "");
    let text = String::from_utf8_lossy(&out.stdout);
    let format = text
        .lines()
        .find(|l| l.starts_with("format:"))
        .unwrap_or_else(|| panic!("no format: line in:\n{text}"));
    let kernel = hcl_store::crc64_kernel();
    assert!(["pclmulqdq", "slicing-by-16"].contains(&kernel), "{kernel}");
    assert!(
        format.ends_with(&format!(", verified, crc kernel {kernel})")),
        "{format}"
    );
}

#[test]
fn inspect_stats_degrades_gracefully_on_v4_containers() {
    let scratch = Scratch::new("inspect_v4");
    // A container with neither optional section, as the library's plain
    // `serialize` / `save` write it (`hcl build` always records stats).
    let graph = testkit::barabasi_albert(60, 2, 5);
    let index = hcl_index::HighwayCoverIndex::build_with(
        &graph,
        &hcl_index::BuildOptions {
            num_landmarks: 4,
            threads: 1,
            ..hcl_index::BuildOptions::default()
        },
    );
    let bytes = hcl_store::serialize(&graph, &index).expect("serialize");
    let path = scratch.path("plain.hcl");
    std::fs::write(&path, &bytes).expect("write plain container");

    let out = run_ok(&["inspect", path.to_str().unwrap(), "--stats"], "");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HCLSTOR v7"), "not a v7 file?\n{text}");
    // Histogram and hubs come from the label sections and still render;
    // the build counters honestly report their absence.
    assert!(text.contains("label histogram:"), "{text}");
    assert!(text.contains("top hubs:"), "{text}");
    for absent in ["build stats:   (not recorded)\n", "journal:       (none)\n"] {
        assert!(text.contains(absent), "missing {absent:?} in:\n{text}");
    }
}

/// The `label histogram:` and `top hubs:` block of `inspect --stats`.
fn label_stats_block(path: &std::path::Path) -> String {
    let out = run_ok(&["inspect", path.to_str().unwrap(), "--stats"], "");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let from = text.find("label histogram:").expect("no histogram");
    let to = text.find("build stats:").expect("no build stats");
    text[from..to].to_string()
}

/// A container whose pending journal stays under the fold bound opens
/// patched; `inspect --stats` reads its labels through the patches, so it
/// prints exactly what its compacted copy does — not the base's labels.
#[test]
fn inspect_stats_of_a_patched_open_matches_its_compacted_copy() {
    let scratch = Scratch::new("inspect_patched");
    let graph = testkit::barabasi_albert(640, 3, 21);
    let index = build_index(&scratch, "ba", &edge_list(&graph), 8);
    let before = label_stats_block(&index);
    let hub = graph.top_k_by_degree(1)[0];
    let path = index.to_str().unwrap();
    run_ok(&["update", path], &format!("+639 638\n+639 {hub}\n"));
    let store = hcl_store::IndexStore::open(&index).expect("reopen");
    assert_eq!(store.journal().map(|j| j.len()), Some(2));
    assert!(store.graph().is_patched() && store.index().is_patched());
    drop(store);

    let compacted = scratch.path("compacted.hcl");
    std::fs::copy(&index, &compacted).expect("copy container");
    run_ok(&["update", compacted.to_str().unwrap(), "--compact"], "");
    let patched = label_stats_block(&index);
    assert_eq!(patched, label_stats_block(&compacted));
    assert_ne!(patched, before, "the inserts changed no label statistic");
}
