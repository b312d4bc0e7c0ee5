//! Workspace automation for the highway-cover labelling repo.
//!
//! The only task so far is `lint`: a dependency-free, workspace-specific
//! static-analysis pass (see [`rules`]) run as `cargo xtask lint`. It is
//! deliberately a lexer-level scanner, not a `syn` AST walk — the
//! workspace has zero external dependencies and the lint layer keeps
//! that discipline. [`scan`] strips comments/strings and marks
//! `#[cfg(test)]` regions so the rules can match keywords soundly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod allowlist;
pub mod rules;
pub mod scan;

use allowlist::Allowlist;
use rules::Violation;
use scan::SourceFile;
use std::path::Path;

/// Directories scanned for Rust sources, relative to the repo root.
/// `target/` never appears because the walk starts inside `src`-bearing
/// trees only.
const SCAN_ROOTS: &[&str] = &["crates", "xtask/src"];

/// Collects every `.rs` file under the scan roots, sorted by path so
/// diagnostics are deterministic.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs(&root.join(sub), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the lint pass over the tree at `root`. `only` restricts to a
/// single rule by name (for focused runs while fixing one class).
pub fn run_lint(root: &Path, only: Option<&str>) -> std::io::Result<Vec<Violation>> {
    let files = scan_tree(root)?;
    let mut out = Vec::new();
    let mut run = |name: &str, f: &mut dyn FnMut(&[SourceFile]) -> Vec<Violation>| {
        if only.map_or(true, |o| o == name) {
            out.extend(f(&files));
        }
    };
    run("safety-comment", &mut |files| {
        rules::safety_comment(files, &mut Allowlist::load(root, "safety_comment"))
    });
    run("no-panics", &mut |files| {
        rules::no_panics(files, &mut Allowlist::load(root, "no_panics"))
    });
    run("dist-arith", &mut |files| {
        rules::dist_arith(files, &mut Allowlist::load(root, "dist_arith"))
    });
    run("no-print", &mut |files| {
        rules::no_print(files, &mut Allowlist::load(root, "no_print"))
    });
    run("harness-fence", &mut |files| {
        rules::harness_fence(files, &mut Allowlist::load(root, "harness_fence"))
    });
    run("store-format", &mut |files| {
        rules::store_format(root, files)
    });
    run("metrics-docs", &mut |files| {
        rules::metrics_docs(root, files)
    });
    run("crate-gates", &mut |files| rules::crate_gates(files));
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(out)
}

/// The rule names accepted by `--rule`.
pub const RULE_NAMES: &[&str] = &[
    "safety-comment",
    "no-panics",
    "dist-arith",
    "no-print",
    "harness-fence",
    "store-format",
    "metrics-docs",
    "crate-gates",
];
