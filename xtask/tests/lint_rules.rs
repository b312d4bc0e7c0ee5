//! Fixture tests for the lint rules: every rule gets at least one
//! failing and one passing snippet, including the tricky lexical cases
//! (`unsafe` inside a string literal, `unwrap` inside `#[cfg(test)]`, a
//! SAFETY comment separated by a blank line), plus a self-check that the
//! real tree is clean.

use std::path::{Path, PathBuf};
use xtask::allowlist::Allowlist;
use xtask::rules;
use xtask::scan::SourceFile;

fn src(path: &str, text: &str) -> Vec<SourceFile> {
    vec![SourceFile::parse(path, text)]
}

/// An allowlist loaded from a root with no `xtask/lints/` — i.e. empty.
fn no_allow(rule: &str) -> Allowlist {
    Allowlist::load(Path::new("/nonexistent-xtask-test-root"), rule)
}

/// A scratch directory seeded with the given `(relative path, content)`
/// files, removed on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str, files: &[(&str, &str)]) -> TempRoot {
        let dir =
            std::env::temp_dir().join(format!("xtask-lint-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, content) in files {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        TempRoot(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------- safety

#[test]
fn safety_comment_flags_undocumented_unsafe() {
    let files = src("crates/store/src/x.rs", "fn f() {\n    unsafe { g() }\n}\n");
    let v = rules::safety_comment(&files, &mut no_allow("safety_comment"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 2);
    assert_eq!(v[0].rule, "safety-comment");
}

#[test]
fn safety_comment_accepts_adjacent_comment_block() {
    let text = "fn f() {\n    // SAFETY: g upholds its contract because\n    // the buffer is owned.\n    unsafe { g() }\n}\n";
    let files = src("crates/store/src/x.rs", text);
    assert!(rules::safety_comment(&files, &mut no_allow("safety_comment")).is_empty());
}

#[test]
fn safety_comment_accepts_same_line_trailing_comment() {
    let files = src(
        "crates/store/src/x.rs",
        "unsafe impl Send for X {} // SAFETY: X owns no thread-bound state\n",
    );
    assert!(rules::safety_comment(&files, &mut no_allow("safety_comment")).is_empty());
}

#[test]
fn safety_comment_rejects_comment_separated_by_blank_line() {
    let text = "// SAFETY: stale justification\n\nunsafe fn f() {}\n";
    let files = src("crates/store/src/x.rs", text);
    let v = rules::safety_comment(&files, &mut no_allow("safety_comment"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 3);
}

#[test]
fn safety_comment_ignores_unsafe_inside_string_literal() {
    let files = src(
        "crates/store/src/x.rs",
        "fn f() { let s = \"unsafe { not code }\"; }\n",
    );
    assert!(rules::safety_comment(&files, &mut no_allow("safety_comment")).is_empty());
}

// --------------------------------------------------------------- panics

#[test]
fn no_panics_flags_unwrap_expect_and_panic_in_serving_files() {
    let text = "fn f() {\n    x.unwrap();\n    y.expect(\"boom\");\n    panic!(\"no\");\n}\n";
    let files = src("crates/cli/src/server.rs", text);
    let v = rules::no_panics(&files, &mut no_allow("no_panics"));
    assert_eq!(v.len(), 3, "{v:?}");
    assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![2, 3, 4]);
}

#[test]
fn no_panics_ignores_cfg_test_regions_and_non_serving_files() {
    let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
    let files = src("crates/cli/src/server.rs", text);
    assert!(
        rules::no_panics(&files, &mut no_allow("no_panics")).is_empty(),
        "unwrap inside #[cfg(test)] must not be flagged"
    );

    let files = src("crates/cli/src/main.rs", "fn f() { x.unwrap(); }\n");
    assert!(
        rules::no_panics(&files, &mut no_allow("no_panics")).is_empty(),
        "non-serving files are out of scope"
    );
}

#[test]
fn no_panics_does_not_flag_lookalike_methods() {
    let text = "fn f() { a.unwrap_or(3); b.unwrap_or_else(|| 4); }\n";
    let files = src("crates/cli/src/pool.rs", text);
    assert!(rules::no_panics(&files, &mut no_allow("no_panics")).is_empty());
}

#[test]
fn no_panics_allowlist_suppresses_and_reports_stale_entries() {
    let root = TempRoot::new(
        "allow",
        &[(
            "xtask/lints/no_panics.allow",
            "# justified\ncrates/cli/src/pool.rs :: .expect(\"fine\")\ncrates/cli/src/pool.rs :: never-matches\n",
        )],
    );
    let files = src("crates/cli/src/pool.rs", "fn f() { x.expect(\"fine\"); }\n");
    let mut allow = Allowlist::load(&root.0, "no_panics");
    let v = rules::no_panics(&files, &mut allow);
    // The real expect is suppressed; the stale entry is the one violation.
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("stale"), "{v:?}");
    assert!(v[0].path.ends_with("no_panics.allow"));
}

// ---------------------------------------------------------------- dist

#[test]
fn dist_arith_flags_bare_plus_and_minus() {
    for line in [
        "let x = dist + 1;",
        "let x = total - dist;",
        "best_dist += 1;",
        "let x = INFINITY - 1;",
        "let x = entry_dist(e) + 1;",
    ] {
        let files = src(
            "crates/index/src/query.rs",
            &format!("fn f() {{ {line} }}\n"),
        );
        let v = rules::dist_arith(&files, &mut no_allow("dist_arith"));
        assert_eq!(v.len(), 1, "expected a violation for `{line}`: {v:?}");
    }
}

#[test]
fn dist_arith_accepts_widened_and_saturating_forms() {
    for line in [
        "let x = dist as u64 + 1;",
        "let x = entry_dist(ea) as u64 + entry_dist(eb) as u64;",
        "let x = dist.saturating_add(1);",
        "if dist == INFINITY { return None; }",
        "let x = dist_fwd[w as usize];",
        "let far = distances.len();",
    ] {
        let files = src(
            "crates/index/src/query.rs",
            &format!("fn f() {{ {line} }}\n"),
        );
        let v = rules::dist_arith(&files, &mut no_allow("dist_arith"));
        assert!(v.is_empty(), "false positive for `{line}`: {v:?}");
    }
}

#[test]
fn dist_arith_only_applies_to_core_and_index() {
    let files = src("crates/cli/src/main.rs", "fn f() { let x = dist + 1; }\n");
    assert!(rules::dist_arith(&files, &mut no_allow("dist_arith")).is_empty());
}

// --------------------------------------------------------------- print

#[test]
fn no_print_flags_library_prints_but_not_tests_or_bins() {
    let files = src("crates/store/src/lib.rs", "fn f() { println!(\"x\"); }\n");
    let v = rules::no_print(&files, &mut no_allow("no_print"));
    assert_eq!(v.len(), 1, "{v:?}");

    let text = "#[cfg(test)]\nmod tests {\n    fn g() { eprintln!(\"dbg\"); }\n}\n";
    let files = src("crates/core/src/lib.rs", text);
    assert!(rules::no_print(&files, &mut no_allow("no_print")).is_empty());

    let files = src(
        "crates/cli/src/main.rs",
        "fn f() { println!(\"cli output\"); }\n",
    );
    assert!(rules::no_print(&files, &mut no_allow("no_print")).is_empty());
}

// -------------------------------------------------------------- format

const FORMAT_RS_FIXTURE: &str = r#"
pub const FORMAT_VERSION: u32 = 5;
pub const HEADER_LEN: usize = 96;
pub enum SectionKind {
    GraphOffsets = 1,
    Highway = 8,
}
impl SectionKind {
    pub fn elem_size(self) -> u32 {
        match self {
            Self::GraphOffsets => 8,
            _ => 4,
        }
    }
    pub fn name(self) -> &'static str {
        match self {
            Self::GraphOffsets => "graph_offsets",
            Self::Highway => "highway",
        }
    }
}
"#;

fn format_doc(version: u64, highway_elem: &str) -> String {
    format!(
        "# doc\n<!-- lint:store-format:begin -->\nversion **{version}**; header \
         **96** bytes.\n\n\
         | kind | section | element |\n|---|---|---|\n\
         | 1 | graph_offsets | u64 |\n| 8 | highway | {highway_elem} |\n\
         <!-- lint:store-format:end -->\n"
    )
}

#[test]
fn store_format_passes_when_doc_matches_code() {
    let root = TempRoot::new("fmt-ok", &[("docs/ARCHITECTURE.md", &format_doc(5, "u32"))]);
    let files = src("crates/store/src/format.rs", FORMAT_RS_FIXTURE);
    let v = rules::store_format(&root.0, &files);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn store_format_flags_version_and_element_mismatches() {
    let root = TempRoot::new(
        "fmt-bad",
        &[("docs/ARCHITECTURE.md", &format_doc(4, "u64"))],
    );
    let files = src("crates/store/src/format.rs", FORMAT_RS_FIXTURE);
    let v = rules::store_format(&root.0, &files);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("format version")));
    assert!(v.iter().any(|v| v.message.contains("highway")));
}

#[test]
fn store_format_requires_the_marker_block() {
    let root = TempRoot::new("fmt-missing", &[("docs/ARCHITECTURE.md", "# no block\n")]);
    let files = src("crates/store/src/format.rs", FORMAT_RS_FIXTURE);
    let v = rules::store_format(&root.0, &files);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("lint:store-format"));
}

// ------------------------------------------------------------- metrics

#[test]
fn metrics_docs_requires_every_emitted_name_documented() {
    let code = "fn f() { emit(\"hcl_documented_total\"); emit(\"hcl_missing_total\"); }\n";
    let root = TempRoot::new(
        "metrics",
        &[(
            "docs/ARCHITECTURE.md",
            "`hcl_documented_total` counts things.\n",
        )],
    );
    let files = src("crates/cli/src/metrics.rs", code);
    let v = rules::metrics_docs(&root.0, &files);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("hcl_missing_total"), "{v:?}");

    // Names in non-emitter files are out of scope.
    let files = src("crates/cli/src/main.rs", code);
    assert!(rules::metrics_docs(&root.0, &files).is_empty());
}

// --------------------------------------------------------------- gates

#[test]
fn crate_gates_pins_the_unsafe_lint_configuration() {
    let good = [
        ("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ("crates/index/src/lib.rs", "#![forbid(unsafe_code)]\n"),
        (
            "crates/store/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\n",
        ),
        (
            "crates/cli/src/main.rs",
            "#![deny(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n",
        ),
    ];
    let files: Vec<SourceFile> = good.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
    assert!(rules::crate_gates(&files).is_empty());

    let mut dropped = files;
    dropped[0] = SourceFile::parse("crates/core/src/lib.rs", "// gate removed\n");
    let v = rules::crate_gates(&dropped);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("forbid(unsafe_code)"));
}

// ----------------------------------------------------------- self-check

/// The real tree must lint clean — the same invariant CI enforces via
/// `cargo xtask lint`, checked here so `cargo test` alone catches it.
#[test]
fn current_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let v = xtask::run_lint(root, None).expect("scan failed");
    assert!(
        v.is_empty(),
        "`cargo xtask lint` violations on the current tree:\n{}",
        v.iter()
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
