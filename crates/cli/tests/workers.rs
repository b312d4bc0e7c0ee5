//! Property tests for the worker pool: for every testkit graph family,
//! `serve --workers {1, 2, 4, 8}` must produce **byte-identical** stdout
//! (and identical per-line diagnostics) for the same stdin — the writer
//! takes each chunk's result slot in input order — and `query --workers`
//! must agree with its one-worker run. Workloads are sized past one pool
//! chunk so chunks really finish out of order.

mod common;

use common::{edge_list, hcl, Scratch};
use hcl_core::testkit;
use std::io::Write;
use std::process::{Command, Output, Stdio};

/// A deterministic stdin workload: mostly valid pairs, salted with
/// out-of-range ids, comments, and blanks — plus malformed lines when
/// `malformed` is set (`serve` skips them; batch `query` treats them as
/// fatal, so its workload stays clean). Sized well past one pool chunk
/// (256) so multi-worker runs genuinely reorder.
fn workload(n: usize, seed: u64, malformed: bool) -> String {
    let mut rng = testkit::SplitMix64::new(seed);
    let mut out = String::from("# workers property workload\n");
    let space = (n.max(1) + 3) as u64; // a few ids past n → out-of-range
    for i in 0..700 {
        match i % 97 {
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

fn run_with_stdin(cmd: &mut Command, stdin: &str) -> Output {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hcl");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "command failed: {cmd:?}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The per-line contract for interactive clients: with stdin held open,
/// each query is answered as soon as its line is in — the reader sends a
/// partial chunk whenever input pauses — at one worker and at several.
#[test]
fn serve_answers_each_line_while_stdin_stays_open() {
    let scratch = Scratch::new("interactive");
    let edges = scratch.0.join("path.edges");
    std::fs::write(&edges, edge_list(&testkit::path(10))).expect("write edges");
    let index = scratch.0.join("path.hcl");
    let build = hcl()
        .arg("build")
        .arg(&edges)
        .arg("--out")
        .arg(&index)
        .output()
        .expect("spawn build");
    assert!(build.status.success(), "build failed");

    for workers in ["1", "4"] {
        let mut child = hcl()
            .arg("serve")
            .arg("--index")
            .arg(&index)
            .args(["--workers", workers])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let mut stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufRead::lines(std::io::BufReader::new(stdout)) {
                if tx.send(line.expect("read answer")).is_err() {
                    break;
                }
            }
        });
        for (u, v) in [(0u32, 9u32), (3, 4), (7, 2)] {
            stdin
                .write_all(format!("{u} {v}\n").as_bytes())
                .and_then(|()| stdin.flush())
                .expect("write query");
            let answer = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("workers={workers}: no answer to `{u} {v}` within 5 s"));
            assert_eq!(answer, format!("{u} {v} {}", u.abs_diff(v)));
        }
        drop(stdin);
        assert!(child.wait().expect("wait serve").success());
        reader.join().expect("stdout reader");
    }
}

#[test]
fn serve_output_is_byte_identical_across_worker_counts() {
    let scratch = Scratch::new("serve");
    for (name, g) in testkit::families() {
        let slug = name.replace(['(', ')', ',', '.', '⊎', '+'], "_");
        let edges = scratch.0.join(format!("{slug}.edges"));
        std::fs::write(&edges, edge_list(&g)).expect("write edges");
        let index = scratch.0.join(format!("{slug}.hcl"));
        let build = hcl()
            .arg("build")
            .arg(&edges)
            .arg("--out")
            .arg(&index)
            .args(["--landmarks", "4"])
            .output()
            .expect("spawn build");
        assert!(
            build.status.success(),
            "{name}: build failed: {}",
            String::from_utf8_lossy(&build.stderr)
        );

        let input = workload(g.num_vertices(), 0xBEEF ^ g.num_vertices() as u64, true);
        let reference = run_with_stdin(hcl().arg("serve").arg("--index").arg(&index), &input);
        for workers in [2usize, 4, 8] {
            let pooled = run_with_stdin(
                hcl().arg("serve").arg("--index").arg(&index).args([
                    "--workers",
                    &workers.to_string(),
                    "--trusted",
                ]),
                &input,
            );
            assert_eq!(
                pooled.stdout, reference.stdout,
                "{name}: serve --workers {workers} stdout diverged from --workers 1"
            );
            // Per-line diagnostics are emitted by the reading thread, so
            // they too must match the sequential run exactly.
            let diag = |out: &Output| -> Vec<String> {
                String::from_utf8_lossy(&out.stderr)
                    .lines()
                    .filter(|l| l.starts_with("error:"))
                    .map(str::to_owned)
                    .collect()
            };
            assert_eq!(
                diag(&pooled),
                diag(&reference),
                "{name}: serve --workers {workers} diagnostics diverged"
            );
        }

        // The batch query path must agree with serve and with itself
        // across worker counts (on a clean workload — batch query treats
        // malformed lines as fatal by design).
        let clean = workload(g.num_vertices(), 0xBEEF ^ g.num_vertices() as u64, false);
        let serve_clean = run_with_stdin(hcl().arg("serve").arg("--index").arg(&index), &clean);
        let q1 = run_with_stdin(hcl().arg("query").arg("--index").arg(&index), &clean);
        assert_eq!(
            q1.stdout, serve_clean.stdout,
            "{name}: query and serve answers diverged"
        );
        for workers in [2usize, 8] {
            let qn = run_with_stdin(
                hcl()
                    .arg("query")
                    .arg("--index")
                    .arg(&index)
                    .args(["--workers", &workers.to_string()]),
                &clean,
            );
            assert_eq!(
                qn.stdout, q1.stdout,
                "{name}: query --workers {workers} diverged"
            );
        }
    }
}
