//! The workspace-specific lint rules.
//!
//! Every rule works on [`SourceFile`]s scrubbed by [`crate::scan`] —
//! comments and string contents blanked, `#[cfg(test)]` regions marked —
//! so keyword matches are sound without parsing Rust. Each rule returns
//! plain [`Violation`]s; policy (which files, which exceptions) lives
//! here, next to the rule it shapes.

use crate::allowlist::Allowlist;
use crate::scan::{find_words, tokens, SourceFile};
use std::path::Path;

/// One diagnostic, printed as `path:line: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name, e.g. `no-panics`.
    pub rule: &'static str,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

fn violation(file: &SourceFile, line_idx: usize, rule: &'static str, message: String) -> Violation {
    Violation {
        path: file.path.clone(),
        line: line_idx + 1,
        rule,
        message,
    }
}

/// Folds an allowlist's leftover (never-matched) entries into violations:
/// a stale exception is itself a lint failure, so the vetted-exception
/// count can only go down without an explicit allowlist edit.
fn drain_unused(allow: &Allowlist, rule: &'static str, out: &mut Vec<Violation>) {
    for (line, text) in allow.unused() {
        out.push(Violation {
            path: allow.file.clone(),
            line,
            rule,
            message: format!("stale allowlist entry (matches nothing): {text}"),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: safety-comment
// ---------------------------------------------------------------------------

/// Every `unsafe` occurrence (block, fn, impl, trait) must be documented
/// by a `// SAFETY:` comment — on the same line or in the contiguous
/// block of comment lines immediately above (a blank line breaks the
/// chain; the invariant belongs *next to* the unsafety it justifies).
pub fn safety_comment(files: &[SourceFile], allow: &mut Allowlist) -> Vec<Violation> {
    const RULE: &str = "safety-comment";
    let mut out = Vec::new();
    for file in files {
        for (i, line) in file.lines.iter().enumerate() {
            if find_words(&line.code, "unsafe").next().is_none() {
                continue;
            }
            let mut documented = line.comment.contains("SAFETY:");
            let mut j = i;
            while !documented && j > 0 {
                j -= 1;
                let above = &file.lines[j];
                let comment_only = above.code.trim().is_empty() && !above.comment.trim().is_empty();
                if !comment_only {
                    break; // code or a blank line ends the comment block
                }
                documented = above.comment.contains("SAFETY:");
            }
            if documented || allow.permits(&file.path, &line.raw) {
                continue;
            }
            out.push(violation(
                file,
                i,
                RULE,
                "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
            ));
        }
    }
    drain_unused(allow, RULE, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Rule: no-panics
// ---------------------------------------------------------------------------

/// Files on the request-serving path: a panic here takes down a worker
/// thread (or wedges a pool) instead of degrading one request.
pub const SERVING_PATH_FILES: &[&str] = &[
    "crates/cli/src/pipeline.rs",
    "crates/cli/src/server.rs",
    "crates/cli/src/pool.rs",
    "crates/cli/src/scrub.rs",
    "crates/cli/src/slowlog.rs",
    "crates/cli/src/metrics.rs",
    "crates/cli/src/sync.rs",
    "crates/cli/src/update.rs",
    "crates/store/src/lib.rs",
    "crates/store/src/durable.rs",
    "crates/store/src/generation.rs",
    "crates/store/src/engine.rs",
    "crates/store/src/tail.rs",
    "crates/core/src/delta.rs",
    "crates/index/src/query.rs",
    "crates/index/src/view.rs",
    "crates/index/src/repair.rs",
];

/// No `.unwrap()` / `.expect(…)` / `panic!` family in request-serving
/// code outside `#[cfg(test)]`. Vetted exceptions (with justifications)
/// live in `xtask/lints/no_panics.allow`.
pub fn no_panics(files: &[SourceFile], allow: &mut Allowlist) -> Vec<Violation> {
    const RULE: &str = "no-panics";
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut out = Vec::new();
    for file in files {
        if !SERVING_PATH_FILES.contains(&file.path.as_str()) {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let toks = tokens(&line.code);
            for (t, (_, tok)) in toks.iter().enumerate() {
                let next = toks.get(t + 1).map(|(_, s)| s.as_str());
                let prev = t.checked_sub(1).and_then(|p| toks.get(p));
                let is_method_call = |name: &str| {
                    tok == name
                        && next == Some("(")
                        && prev.is_some_and(|(_, p)| p == "." || p == "?")
                };
                let offending = if is_method_call("unwrap") || is_method_call("expect") {
                    Some(format!(".{tok}(…)"))
                } else if MACROS.contains(&tok.as_str()) && next == Some("!") {
                    Some(format!("{tok}!"))
                } else {
                    None
                };
                let Some(what) = offending else { continue };
                if allow.permits(&file.path, &line.raw) {
                    break; // one allow entry covers the whole line
                }
                out.push(violation(
                    file,
                    i,
                    RULE,
                    format!(
                        "`{what}` in request-serving code; degrade and count the error, or \
                         add a justified entry to xtask/lints/no_panics.allow"
                    ),
                ));
                break; // one diagnostic per line keeps the report readable
            }
        }
    }
    drain_unused(allow, RULE, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Rule: dist-arith
// ---------------------------------------------------------------------------

/// Casts wide enough that `u32` distance sums cannot wrap in them.
const WIDE_CASTS: &[&str] = &["u64", "i64", "u128", "i128", "f64"];

/// No bare `+`/`-` on distance-typed values in `hcl-core`/`hcl-index`
/// (outside tests): distances are `u32` with `INFINITY == u32::MAX` as
/// the sentinel, so bare arithmetic can wrap — exactly the PR-3 bug
/// class. Sums must go through `saturating_*` or be widened `as u64`
/// first (the INFINITY-aware helpers all do).
///
/// The detector is a token heuristic: an identifier containing `dist`
/// (or the `INFINITY` sentinel itself) adjacent to a binary `+`/`-`/
/// `+=`/`-=`, with a following balanced `(…)`/`[…]` group and an `as`
/// cast skipped first. A 64-bit-or-wider cast on the flagged operand
/// clears it.
pub fn dist_arith(files: &[SourceFile], allow: &mut Allowlist) -> Vec<Violation> {
    const RULE: &str = "dist-arith";
    let mut out = Vec::new();
    for file in files {
        if !(file.path.starts_with("crates/core/src/")
            || file.path.starts_with("crates/index/src/"))
        {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let toks = tokens(&line.code);
            for (t, (_, tok)) in toks.iter().enumerate() {
                let distish = tok.to_lowercase().contains("dist") || tok == "INFINITY";
                if !distish || !tok.chars().next().is_some_and(crate::scan::is_word_char) {
                    continue;
                }
                if !operand_risky(&toks, t) {
                    continue;
                }
                if allow.permits(&file.path, &line.raw) {
                    break;
                }
                out.push(violation(
                    file,
                    i,
                    RULE,
                    format!(
                        "bare `+`/`-` on distance-typed `{tok}`; use saturating_* or widen \
                         `as u64` first (INFINITY is a sentinel, not a number)"
                    ),
                ));
                break;
            }
        }
    }
    drain_unused(allow, RULE, &mut out);
    out
}

/// Is the operand starting at token `t` (a dist-ish word) involved in
/// bare binary `+`/`-` arithmetic without a widening cast?
fn operand_risky(toks: &[(usize, String)], t: usize) -> bool {
    // Forward: skip one balanced (…) or […] group directly after the
    // word (a call or an index), then an optional `as <type>` cast.
    let mut k = t + 1;
    if let Some((_, open)) = toks.get(k) {
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            _ => "",
        };
        if !close.is_empty() {
            let mut depth = 0i32;
            while k < toks.len() {
                let s = toks[k].1.as_str();
                if s == open {
                    depth += 1;
                } else if s == close {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
            if depth != 0 {
                return false; // group spans lines; cannot analyse — skip
            }
        }
    }
    let mut widened = false;
    while toks.get(k).is_some_and(|(_, s)| s == "as") {
        if let Some((_, ty)) = toks.get(k + 1) {
            widened = WIDE_CASTS.contains(&ty.as_str());
            k += 2;
        } else {
            break;
        }
    }
    let followed_by_op = toks
        .get(k)
        .is_some_and(|(_, s)| matches!(s.as_str(), "+" | "-" | "+=" | "-="));
    if followed_by_op && !widened {
        return true;
    }

    // Backward: `a + dist` — flag when the `+`/`-` is binary (something
    // operand-like precedes it) and this side is not widened.
    if t >= 2 {
        let prev = toks[t - 1].1.as_str();
        let before = toks[t - 2].1.as_str();
        let binary = matches!(prev, "+" | "-")
            && (before.chars().next().is_some_and(crate::scan::is_word_char)
                || matches!(before, ")" | "]"));
        if binary && !widened {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: no-print
// ---------------------------------------------------------------------------

/// No `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in library crates
/// (`core`/`index`/`store`) outside tests: libraries report through
/// return values, probes, and typed errors — a print in library code is
/// invisible to the serving front end's diagnostics discipline.
pub fn no_print(files: &[SourceFile], allow: &mut Allowlist) -> Vec<Violation> {
    const RULE: &str = "no-print";
    const MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
    let mut out = Vec::new();
    for file in files {
        let library = ["crates/core/src/", "crates/index/src/", "crates/store/src/"]
            .iter()
            .any(|p| file.path.starts_with(p));
        if !library {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let toks = tokens(&line.code);
            for (t, (_, tok)) in toks.iter().enumerate() {
                if !MACROS.contains(&tok.as_str())
                    || toks.get(t + 1).map(|(_, s)| s.as_str()) != Some("!")
                {
                    continue;
                }
                if allow.permits(&file.path, &line.raw) {
                    break;
                }
                out.push(violation(
                    file,
                    i,
                    RULE,
                    format!("`{tok}!` in a library crate; return data or use a probe instead"),
                ));
                break;
            }
        }
    }
    drain_unused(allow, RULE, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Rule: store-format
// ---------------------------------------------------------------------------

/// What the store-format rule extracted from `store/src/format.rs`.
struct FormatFacts {
    version: u64,
    header_len: u64,
    /// `(kind discriminant, snake_case name, element type)` per variant.
    kinds: Vec<(u64, String, &'static str)>,
}

/// The format-version constant, section-kind enum, and header-size table
/// documented in `docs/ARCHITECTURE.md` must agree with
/// `store/src/format.rs`. The doc side lives between
/// `<!-- lint:store-format:begin -->` / `<!-- lint:store-format:end -->`
/// markers; the code side is extracted from the constants, the
/// `SectionKind` enum, and its `elem_size` arms.
pub fn store_format(root: &Path, files: &[SourceFile]) -> Vec<Violation> {
    const RULE: &str = "store-format";
    const FORMAT_RS: &str = "crates/store/src/format.rs";
    const DOC: &str = "docs/ARCHITECTURE.md";
    let mut out = Vec::new();
    let fail = |line: usize, path: &str, message: String| Violation {
        path: path.to_string(),
        line,
        rule: RULE,
        message,
    };

    let Some(format_file) = files.iter().find(|f| f.path == FORMAT_RS) else {
        return vec![fail(1, FORMAT_RS, "file missing from the scan set".into())];
    };
    let facts = match extract_format_facts(format_file) {
        Ok(facts) => facts,
        Err(msg) => return vec![fail(1, FORMAT_RS, msg)],
    };

    // Cross-check the derived snake_case names against the string
    // literals in format.rs (the `name()` method): a renamed section
    // whose enum variant was not updated shows up here.
    let literals: Vec<&String> = format_file
        .lines
        .iter()
        .flat_map(|l| l.strings.iter())
        .collect();
    for (_, name, _) in &facts.kinds {
        if !literals.contains(&name) {
            out.push(fail(
                1,
                FORMAT_RS,
                format!(
                    "section `{name}` (derived from the SectionKind enum) has no matching \
                         string literal — `name()` and the enum disagree"
                ),
            ));
        }
    }

    let doc_text = match std::fs::read_to_string(root.join(DOC)) {
        Ok(t) => t,
        Err(e) => return vec![fail(1, DOC, format!("unreadable: {e}"))],
    };
    let Some((block_start, block)) = doc_block(&doc_text, "lint:store-format") else {
        return vec![fail(
            1,
            DOC,
            "missing `<!-- lint:store-format:begin/end -->` block documenting the \
             container format"
                .into(),
        )];
    };

    // Prose side: the two bold integers, in order: format version,
    // header bytes.
    let bold: Vec<u64> = bold_ints(block);
    let expected = [
        ("format version", facts.version),
        ("header length", facts.header_len),
    ];
    if bold.len() < expected.len() {
        out.push(fail(
            block_start,
            DOC,
            format!(
                "store-format block must carry two bold integers (format version, header \
                 bytes); found {}",
                bold.len()
            ),
        ));
    } else {
        for (i, (what, want)) in expected.iter().enumerate() {
            if bold[i] != *want {
                out.push(fail(
                    block_start,
                    DOC,
                    format!("{what} documented as {} but format.rs says {want}", bold[i]),
                ));
            }
        }
    }

    // Table side: `| kind | section | element |` rows.
    let mut doc_kinds: Vec<(u64, String, String)> = Vec::new();
    for row in block.lines() {
        let cells: Vec<&str> = row.trim().trim_matches('|').split('|').collect();
        if cells.len() != 3 {
            continue;
        }
        if let Ok(kind) = cells[0].trim().parse::<u64>() {
            doc_kinds.push((
                kind,
                cells[1].trim().to_string(),
                cells[2].trim().to_string(),
            ));
        }
    }
    for (kind, name, elem) in &facts.kinds {
        match doc_kinds.iter().find(|(k, _, _)| k == kind) {
            None => out.push(fail(
                block_start,
                DOC,
                format!("section kind {kind} (`{name}`) is not in the documented table"),
            )),
            Some((_, doc_name, doc_elem)) => {
                if doc_name != name || doc_elem != elem {
                    out.push(fail(
                        block_start,
                        DOC,
                        format!(
                            "section kind {kind} documented as `{doc_name}`/`{doc_elem}` but \
                             format.rs says `{name}`/`{elem}`"
                        ),
                    ));
                }
            }
        }
    }
    for (kind, doc_name, _) in &doc_kinds {
        if !facts.kinds.iter().any(|(k, _, _)| k == kind) {
            out.push(fail(
                block_start,
                DOC,
                format!(
                    "documented section kind {kind} (`{doc_name}`) does not exist in \
                         format.rs"
                ),
            ));
        }
    }
    out
}

fn extract_format_facts(file: &SourceFile) -> Result<FormatFacts, String> {
    let const_val = |name: &str| -> Result<u64, String> {
        for line in &file.lines {
            if let Some(rest) = line.code.split_once(&format!("const {name}:")) {
                let after_eq = rest
                    .1
                    .split_once('=')
                    .ok_or_else(|| format!("`{name}` has no `=`"))?
                    .1;
                return after_eq
                    .trim()
                    .trim_end_matches(';')
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("`{name}` is not a literal integer"));
            }
        }
        Err(format!("`const {name}` not found"))
    };
    let version = const_val("FORMAT_VERSION")?;
    let header_len = const_val("HEADER_LEN")?;

    // Enum variants with explicit discriminants.
    let mut variants: Vec<(u64, String)> = Vec::new();
    let mut in_enum = false;
    for line in &file.lines {
        let code = line.code.trim();
        if code.contains("enum SectionKind") {
            in_enum = true;
            continue;
        }
        if in_enum {
            if code.starts_with('}') {
                break;
            }
            if let Some((name, value)) = code.split_once('=') {
                let name = name.trim().to_string();
                if let Ok(v) = value.trim().trim_end_matches(',').parse::<u64>() {
                    variants.push((v, name));
                }
            }
        }
    }
    if variants.is_empty() {
        return Err("no `enum SectionKind` variants found".into());
    }

    // `elem_size` arms: variants listed before `=> 8` are u64 sections.
    let mut wide: Vec<String> = Vec::new();
    let mut in_elem = false;
    for line in &file.lines {
        let code = line.code.trim();
        if code.contains("fn elem_size") {
            in_elem = true;
            continue;
        }
        if in_elem {
            if code.contains("=> 8") {
                for part in code.split("=>").next().unwrap_or("").split('|') {
                    let v = part.trim().trim_start_matches("Self::").trim();
                    if !v.is_empty() {
                        wide.push(v.to_string());
                    }
                }
            }
            if code.contains("=> 4") {
                break; // the default arm closes the match for our purposes
            }
        }
    }
    if wide.is_empty() {
        return Err("no `=> 8` arm found in `fn elem_size`".into());
    }

    let kinds = variants
        .into_iter()
        .map(|(v, name)| {
            let elem = if wide.contains(&name) { "u64" } else { "u32" };
            (v, camel_to_snake(&name), elem)
        })
        .collect();
    Ok(FormatFacts {
        version,
        header_len,
        kinds,
    })
}

fn camel_to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// The text between `<!-- <marker>:begin … -->` and `<!-- <marker>:end`,
/// plus the 1-based line the block starts on.
fn doc_block<'a>(text: &'a str, marker: &str) -> Option<(usize, &'a str)> {
    let begin_tag = format!("{marker}:begin");
    let end_tag = format!("{marker}:end");
    let begin = text.find(&begin_tag)?;
    let begin_nl = text[begin..].find('\n').map(|o| begin + o + 1)?;
    let end = text[begin_nl..].find(&end_tag).map(|o| begin_nl + o)?;
    let end_line_start = text[..end].rfind('\n').map(|o| o + 1).unwrap_or(0);
    let line = text[..begin].matches('\n').count() + 1;
    Some((line, &text[begin_nl..end_line_start]))
}

/// All `**N**` bold integers in `text`, in order.
fn bold_ints(text: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find("**") {
        let after = &rest[start + 2..];
        let Some(end) = after.find("**") else { break };
        if let Ok(v) = after[..end].trim().parse::<u64>() {
            out.push(v);
        }
        rest = &after[end + 2..];
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: metrics-docs
// ---------------------------------------------------------------------------

/// Every `hcl_*` metric name emitted by the serving front end
/// (`cli/src/metrics.rs`, `cli/src/pipeline.rs`, `cli/src/server.rs`,
/// `cli/src/scrub.rs`) must
/// be documented in `docs/ARCHITECTURE.md` — dashboards are built from the docs, and an
/// undocumented counter is invisible operational surface.
pub fn metrics_docs(root: &Path, files: &[SourceFile]) -> Vec<Violation> {
    const RULE: &str = "metrics-docs";
    const EMITTERS: &[&str] = &[
        "crates/cli/src/metrics.rs",
        "crates/cli/src/pipeline.rs",
        "crates/cli/src/server.rs",
        "crates/cli/src/scrub.rs",
    ];
    const DOC: &str = "docs/ARCHITECTURE.md";
    let mut out = Vec::new();
    let doc_text = match std::fs::read_to_string(root.join(DOC)) {
        Ok(t) => t,
        Err(e) => {
            return vec![Violation {
                path: DOC.to_string(),
                line: 1,
                rule: RULE,
                message: format!("unreadable: {e}"),
            }]
        }
    };
    for file in files {
        if !EMITTERS.contains(&file.path.as_str()) {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for s in &line.strings {
                for name in extract_metric_names(s) {
                    if !doc_text.contains(&name) {
                        out.push(violation(
                            file,
                            i,
                            RULE,
                            format!("metric `{name}` is not documented in {DOC}"),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Maximal `hcl_[a-z0-9_]+` tokens inside one string literal.
fn extract_metric_names(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let metric_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let at_start = i == 0 || !metric_char(chars[i - 1]);
        if at_start && chars[i..].starts_with(&['h', 'c', 'l', '_']) {
            let mut j = i;
            while j < chars.len() && metric_char(chars[j]) {
                j += 1;
            }
            let name: String = chars[i..j].iter().collect();
            let name = name.trim_end_matches('_');
            if name.len() > "hcl_".len() {
                out.push(name.to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: crate-gates
// ---------------------------------------------------------------------------

/// The unsafe-code lint gates each crate root must carry, pinned so a
/// future refactor cannot silently drop them:
/// `hcl-core`/`hcl-index` forbid unsafe outright; `hcl-store` (whose
/// unsafe is the mmap FFI, aligned casts, byte view and the `LargePages`
/// global allocator's mappings in `backing.rs` plus the CRC kernel's
/// feature-checked call and 16-byte loads in `checksum.rs`) and
/// the CLI (the `server.rs` signal FFI) deny `unsafe_op_in_unsafe_fn`,
/// and the CLI denies `unsafe_code` crate-wide with one scoped allow on
/// the signal module.
pub fn crate_gates(files: &[SourceFile]) -> Vec<Violation> {
    const RULE: &str = "crate-gates";
    const REQUIRED: &[(&str, &[&str])] = &[
        ("crates/core/src/lib.rs", &["#![forbid(unsafe_code)]"]),
        ("crates/index/src/lib.rs", &["#![forbid(unsafe_code)]"]),
        (
            "crates/store/src/lib.rs",
            &["#![deny(unsafe_op_in_unsafe_fn)]"],
        ),
        (
            "crates/cli/src/main.rs",
            &["#![deny(unsafe_code)]", "#![deny(unsafe_op_in_unsafe_fn)]"],
        ),
    ];
    let mut out = Vec::new();
    for (path, gates) in REQUIRED {
        let Some(file) = files.iter().find(|f| f.path == *path) else {
            out.push(Violation {
                path: path.to_string(),
                line: 1,
                rule: RULE,
                message: "file missing from the scan set".to_string(),
            });
            continue;
        };
        for gate in *gates {
            let present = file
                .lines
                .iter()
                .any(|l| l.code.replace(' ', "").contains(gate));
            if !present {
                out.push(Violation {
                    path: path.to_string(),
                    line: 1,
                    rule: RULE,
                    message: format!("missing crate-level lint gate `{gate}`"),
                });
            }
        }
    }
    out
}
