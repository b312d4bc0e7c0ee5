//! The delta-line grammar every serving mode and `hcl update` parse:
//! `+u v` inserts an edge, `-u v` deletes one. The engine that applies
//! the deltas is `hcl_store::UpdateEngine`; the grammar stays here because
//! its diagnostics share the query grammar's `parse_pair_line`.
//!
//! This file is on the request-serving path (the `no-panics` lint covers
//! it): a malformed line is a diagnostic, never a panic.

use hcl_core::{DeltaOp, EdgeDelta};
use std::io::BufRead;

/// Splits a serve-loop input line into its delta operation and the `u v`
/// remainder, or `None` when the line is not a delta (a plain query,
/// blank, or comment). `+u v` inserts, `-u v` deletes; whitespace after
/// the sign is allowed.
pub(crate) fn delta_op(line: &str) -> Option<(DeltaOp, &str)> {
    let trimmed = line.trim_start();
    match trimmed.as_bytes().first() {
        Some(b'+') => Some((DeltaOp::Insert, &trimmed[1..])),
        Some(b'-') => Some((DeltaOp::Delete, &trimmed[1..])),
        _ => None,
    }
}

/// Parses the `u v` remainder of a delta line (after [`delta_op`] took
/// the sign), with the same `<source>:<line>` diagnostics the query
/// grammar produces.
pub(crate) fn parse_delta_rest(
    op: DeltaOp,
    rest: &str,
    what: &str,
    lineno: usize,
) -> Result<EdgeDelta, String> {
    match crate::parse_pair_line(rest, what, lineno)? {
        Some((u, v)) => Ok(match op {
            DeltaOp::Insert => EdgeDelta::insert(u, v),
            DeltaOp::Delete => EdgeDelta::delete(u, v),
        }),
        None => Err(format!(
            "{what}:{lineno}: expected two vertex ids after the delta sign"
        )),
    }
}

/// Parses a whole delta script — `hcl update`'s input or a `POST /update`
/// body — before anything is applied, so a bad line on line 40 rejects
/// the script before line 1 changes anything. Strict: every non-blank,
/// non-comment line must be a `+u v` or `-u v` delta.
pub(crate) fn parse_delta_script(
    script: impl BufRead,
    what: &str,
) -> Result<Vec<EdgeDelta>, String> {
    let mut deltas = Vec::new();
    for (lineno, line) in script.lines().enumerate() {
        let line = line.map_err(|e| format!("reading {what}: {e}"))?;
        if let Some(delta) = parse_delta_line(&line, what, lineno + 1)? {
            deltas.push(delta);
        }
    }
    Ok(deltas)
}

/// One line of a delta script; `Ok(None)` for blanks and comments.
fn parse_delta_line(line: &str, what: &str, lineno: usize) -> Result<Option<EdgeDelta>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    match delta_op(trimmed) {
        Some((op, rest)) => parse_delta_rest(op, rest, what, lineno).map(Some),
        None => Err(format!(
            "{what}:{lineno}: expected `+u v` (insert) or `-u v` (delete), got `{trimmed}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_lines_parse_and_reject() {
        assert_eq!(
            parse_delta_line("+3 7", "t", 1).unwrap(),
            Some(EdgeDelta::insert(3, 7))
        );
        assert_eq!(
            parse_delta_line("  - 12 4 ", "t", 2).unwrap(),
            Some(EdgeDelta::delete(12, 4))
        );
        assert_eq!(parse_delta_line("# comment", "t", 3).unwrap(), None);
        assert_eq!(parse_delta_line("", "t", 4).unwrap(), None);
        let err = parse_delta_line("3 7", "t", 5).unwrap_err();
        assert!(err.contains("t:5"), "missing location: {err}");
        let err = parse_delta_line("+3", "t", 6).unwrap_err();
        assert!(err.contains("t:6"), "missing location: {err}");
        let err = parse_delta_line("+3 7 9", "t", 7).unwrap_err();
        assert!(err.contains("trailing"), "wrong diagnosis: {err}");
    }

    #[test]
    fn scripts_parse_whole_or_name_their_first_bad_line() {
        let script = "# edits\r\n+1 2\r\n\n  -3 4\n% done";
        assert_eq!(
            parse_delta_script(script.as_bytes(), "s").unwrap(),
            vec![EdgeDelta::insert(1, 2), EdgeDelta::delete(3, 4)]
        );
        let err = parse_delta_script("+1 2\n\n3 4\n+x 1\n".as_bytes(), "s").unwrap_err();
        assert!(err.starts_with("s:3: expected `+u v`"), "{err}");
        let err = parse_delta_script(&b"+1 2\n\xff\n"[..], "s").unwrap_err();
        assert_eq!(err, "reading s: stream did not contain valid UTF-8");
    }

    #[test]
    fn query_lines_are_not_deltas() {
        assert!(delta_op("3 7").is_none());
        assert!(delta_op("# note").is_none());
        assert!(delta_op("").is_none());
        assert!(delta_op("+1 2").is_some());
        assert!(delta_op("-1 2").is_some());
    }
}
