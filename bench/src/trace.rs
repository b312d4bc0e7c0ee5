//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the pipelines make into a layer
//! (`name, start_ns, end_ns, parent, op_id`); spans of one operation share
//! an `op_id`. Nothing is written until the run ends. A layer's self time
//! is its span minus the part its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next `begin`.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested inside whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and, defensively, anything opened inside it that was
    /// left open).
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Times `f` as one leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per operation, the summed self time of spans called `name`, in
    /// milliseconds — one `(op_id, ms)` per operation that has such a
    /// span, in `op_id` order.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<(u64, f64)> {
        let selfs = self.self_times_ns();
        let mut per_op: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(&selfs) {
            if span.name == name {
                *per_op.entry(span.op_id).or_default() += self_ns;
            }
        }
        per_op
            .into_iter()
            .map(|(op, ns)| (op, ns as f64 / 1e6))
            .collect()
    }

    /// Writes one JSON object per span. Names are `&'static str`
    /// identifiers chosen by the harness, so they need no escaping.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times_ns();
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children are clipped to the parent's interval and merged where they
/// overlap, so a span is never charged less than zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("update", 0, 100, None),
            span("repair", 10, 40, Some(0)),
            span("bfs", 15, 25, Some(1)),
            span("publish", 50, 90, Some(0)),
        ];
        // update: 100 − (30 + 40); repair: 30 − 10; grandchildren are
        // charged to their own parent only.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_never_go_negative() {
        let spans = vec![
            span("parent", 10, 50, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_by_open_order_and_groups_by_op() {
        let mut t = Tracer::new();
        for op in 0..2u64 {
            let outer = t.begin("update", op);
            t.leaf("serialize", op, || std::hint::black_box(1 + 1));
            t.leaf("serialize", op, || std::hint::black_box(2 + 2));
            t.end(outer);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[4].parent, Some(3));
        // Two serialize spans per op fold into one sample per op.
        let ops: Vec<u64> = t
            .self_ms_per_op("serialize")
            .iter()
            .map(|&(op, _)| op)
            .collect();
        assert_eq!(ops, [0, 1]);
        assert_eq!(t.self_ms_per_op("update").len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
