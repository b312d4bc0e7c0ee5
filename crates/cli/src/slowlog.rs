//! The slow-query log: one JSON line per over-threshold query, with the
//! probe's full work breakdown attached.
//!
//! Every serve transport (stdin, TCP/HTTP) logs through the one
//! [`SlowLog`] its request pipeline holds: the threshold comes from
//! `--slow-log-us N`, the sink is stderr unless `--slow-log-file`
//! redirects it, and a token bucket caps emission at
//! [`MAX_LINES_PER_SEC`] so a pathological workload
//! (e.g. `--slow-log-us 0` on a firehose) degrades to sampling instead of
//! flooding the disk. Suppressed lines are counted and reported once at
//! shutdown.
//!
//! The line format is a single flat JSON object per line — stable keys,
//! numeric values except for the two mechanism tokens — so `jq`, `grep`,
//! and log shippers can consume it without configuration:
//!
//! ```json
//! {"endpoint":"stdin","u":0,"v":13,"dist":2,"latency_us":12,
//!  "source":"label-hit","merge":"linear","hub_entries":5,
//!  "highway_improvements":0,"bfs_nodes":0,"bfs_frontier_peak":0,
//!  "worker":0,"generation":1,"bfs_edges":0}
//! ```
//!
//! `dist` is `null` for disconnected pairs. `worker` is the index of the
//! thread that answered; `generation` is the index generation that
//! answered, which every live update (stdin delta line or `POST /update`)
//! and every reload advances.

use crate::sync::lock_recover;
use hcl_index::QueryStats;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token-bucket rate: at most this many lines per second (with an equal
/// burst allowance), regardless of how many queries trip the threshold.
const MAX_LINES_PER_SEC: f64 = 1000.0;

/// One over-threshold query, ready to be formatted.
pub(crate) struct SlowQuery<'a> {
    /// Which front end served it: `"stdin"`, `"tcp"`, or `"http"`.
    pub(crate) endpoint: &'static str,
    pub(crate) u: u32,
    pub(crate) v: u32,
    /// The answer (`None` for disconnected pairs).
    pub(crate) dist: Option<u32>,
    pub(crate) latency: Duration,
    /// The probe's breakdown of where the answer came from.
    pub(crate) stats: &'a QueryStats,
    /// Index of the thread that answered.
    pub(crate) worker: usize,
    /// The index generation that answered.
    pub(crate) generation: u64,
}

struct Inner {
    out: Box<dyn Write + Send>,
    tokens: f64,
    last_refill: Instant,
    dropped: u64,
}

/// Shared, thread-safe slow-query sink. Cheap to consult when the query
/// was fast: the threshold test happens before the lock is touched.
pub(crate) struct SlowLog {
    threshold: Duration,
    inner: Mutex<Inner>,
}

impl SlowLog {
    /// `threshold_us` comes straight from `--slow-log-us`; `out` is stderr
    /// or the `--slow-log-file` handle.
    pub(crate) fn new(threshold_us: u64, out: Box<dyn Write + Send>) -> Self {
        Self {
            threshold: Duration::from_micros(threshold_us),
            inner: Mutex::new(Inner {
                out,
                tokens: MAX_LINES_PER_SEC,
                last_refill: Instant::now(),
                dropped: 0,
            }),
        }
    }

    /// Logs the query if it is over threshold and the rate limiter has a
    /// token; otherwise returns immediately.
    pub(crate) fn observe(&self, q: &SlowQuery<'_>) {
        if q.latency >= self.threshold {
            self.observe_at(q, Instant::now());
        }
    }

    /// [`observe`](SlowLog::observe) for an over-threshold query, with the
    /// token bucket's clock passed in (tests hold it still).
    fn observe_at(&self, q: &SlowQuery<'_>, now: Instant) {
        let line = format_line(q);
        // Diagnostics must never take serving down: a poisoned lock (a
        // panic inside some other observe call) is recovered — the token
        // bucket state degrades gracefully no matter where the panic hit.
        let mut inner = lock_recover(&self.inner, "slow-log");
        // Racing observers may arrive out of order: the bucket's clock
        // only moves forward (`duration_since` saturates at zero).
        let elapsed = now.duration_since(inner.last_refill).as_secs_f64();
        inner.last_refill = inner.last_refill.max(now);
        inner.tokens = (inner.tokens + elapsed * MAX_LINES_PER_SEC).min(MAX_LINES_PER_SEC);
        if inner.tokens < 1.0 {
            inner.dropped += 1;
            return;
        }
        inner.tokens -= 1.0;
        // A sink error (disk full, closed fd) must never take the serving
        // path down; count the line as dropped and carry on.
        if inner.out.write_all(line.as_bytes()).is_err() || inner.out.flush().is_err() {
            inner.dropped += 1;
        }
    }

    /// Lines suppressed by the rate limiter (or lost to sink errors),
    /// reported once in the shutdown summary.
    pub(crate) fn dropped(&self) -> u64 {
        lock_recover(&self.inner, "slow-log").dropped
    }
}

/// Renders one slow-query record as a JSON line. All keys are fixed and
/// all values numeric except the two mechanism tokens, which come from
/// the closed sets in `hcl_index::{AnswerSource, MergeKind}` — nothing
/// needs escaping.
fn format_line(q: &SlowQuery<'_>) -> String {
    let dist = match q.dist {
        Some(d) => d.to_string(),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"endpoint\":\"{}\",\"u\":{},\"v\":{},\"dist\":{},\"latency_us\":{},",
            "\"source\":\"{}\",\"merge\":\"{}\",\"hub_entries\":{},",
            "\"highway_improvements\":{},\"bfs_nodes\":{},\"bfs_frontier_peak\":{},",
            "\"worker\":{},\"generation\":{},\"bfs_edges\":{}}}\n"
        ),
        q.endpoint,
        q.u,
        q.v,
        dist,
        q.latency.as_micros(),
        q.stats.source.as_str(),
        q.stats.merge.as_str(),
        q.stats.hub_entries_scanned,
        q.stats.highway_improvements,
        q.stats.bfs_nodes_expanded,
        q.stats.bfs_frontier_peak,
        q.worker,
        q.generation,
        q.stats.bfs_edges_scanned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` sink tests can read back.
    #[derive(Clone, Default)]
    struct Sink(Arc<StdMutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_stats() -> QueryStats {
        use hcl_index::Probe as _;
        let mut s = QueryStats::new();
        s.merge_done(false, 5, 2);
        s.query_done(false, 2, 2);
        s
    }

    #[test]
    fn line_format_is_stable_and_null_for_disconnected() {
        let stats = sample_stats();
        let line = format_line(&SlowQuery {
            endpoint: "stdin",
            u: 0,
            v: 13,
            dist: Some(2),
            latency: Duration::from_micros(12),
            stats: &stats,
            worker: 0,
            generation: 1,
        });
        assert_eq!(
            line,
            "{\"endpoint\":\"stdin\",\"u\":0,\"v\":13,\"dist\":2,\"latency_us\":12,\
             \"source\":\"label-hit\",\"merge\":\"linear\",\"hub_entries\":5,\
             \"highway_improvements\":0,\"bfs_nodes\":0,\"bfs_frontier_peak\":0,\
             \"worker\":0,\"generation\":1,\"bfs_edges\":0}\n"
        );

        let line = format_line(&SlowQuery {
            endpoint: "http",
            u: 7,
            v: 9,
            dist: None,
            latency: Duration::from_micros(3),
            stats: &stats,
            worker: 2,
            generation: 4,
        });
        assert!(line.contains("\"dist\":null,"), "line = {line}");
        assert!(
            line.ends_with("\"worker\":2,\"generation\":4,\"bfs_edges\":0}\n"),
            "{line}"
        );
    }

    #[test]
    fn threshold_filters_and_rate_limit_counts_drops() {
        let sink = Sink::default();
        let log = SlowLog::new(10, Box::new(sink.clone()));
        let stats = sample_stats();
        let mut q = SlowQuery {
            endpoint: "stdin",
            u: 1,
            v: 2,
            dist: Some(1),
            latency: Duration::from_micros(5),
            stats: &stats,
            worker: 0,
            generation: 1,
        };
        log.observe(&q); // under threshold: nothing written
        assert!(sink.0.lock().unwrap().is_empty());

        q.latency = Duration::from_micros(50);
        // Exhaust the burst and then some with the bucket's clock frozen
        // (no refill, however slow the host): exactly the burst is
        // written, the excess is dropped, counted, and never blocks.
        let frozen = Instant::now();
        for _ in 0..(MAX_LINES_PER_SEC as usize + 100) {
            log.observe_at(&q, frozen);
        }
        let lines = |sink: &Sink| {
            let written = sink.0.lock().unwrap();
            written.iter().filter(|&&b| b == b'\n').count()
        };
        assert_eq!(lines(&sink), MAX_LINES_PER_SEC as usize);
        assert_eq!(log.dropped(), 100);

        // Ten milliseconds later the bucket holds ten more tokens.
        let later = frozen + Duration::from_millis(10);
        for _ in 0..15 {
            log.observe_at(&q, later);
        }
        assert_eq!(lines(&sink), MAX_LINES_PER_SEC as usize + 10);
        assert_eq!(log.dropped(), 105);
    }
}
