//! Request-latency histograms and serving counters.
//!
//! One [`LatencyHistogram`] underlies every serve transport — stdin and
//! the TCP/HTTP front end — so their shutdown summaries report the **same
//! fields in the same format** and stay directly comparable. The
//! histogram is log-linear (8 linear sub-buckets per power-of-two octave
//! of nanoseconds, ≤ 12.5 % relative quantile error), lock-free
//! (`AtomicU64` buckets, relaxed ordering), and fixed-size (~2.6 KiB), so
//! any number of worker threads can record into a shared instance without
//! coordination.
//!
//! [`ServerMetrics`] adds the counters the socket front end exposes on
//! `GET /metrics`: totals for requests, answers, malformed and
//! out-of-range requests, connections, backpressure rejections, client
//! disconnects, write timeouts, oversized lines, index reloads, the live
//! generation's open (per-phase time), and live updates (per-phase time,
//! affected-set size, full relabels, and a second histogram for update
//! latency), and the process's resident memory, read at scrape time. The
//! rendered format is Prometheus-style `name value` lines.

use hcl_index::AnswerSource;
use hcl_store::{IndexStore, OpenPhases, UpdatePhases};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per octave: values map to bucket by their top
/// `1 + SUB_BITS` mantissa bits, bounding relative error at
/// `2^-SUB_BITS` = 12.5 %.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Octaves above the linear range: covers durations up to 2^42 ns ≈ 73 min,
/// far past anything a distance query can take.
const OCTAVES: usize = 40;
const NUM_BUCKETS: usize = SUBS + OCTAVES * SUBS;

/// The `kB` values of the `/proc/self/status` lines named in `fields`,
/// in bytes and in that order; `None` where the file is missing (off
/// Linux) or lacks one of them. The status file gives the kernel's memory
/// counters in kB, so nothing needs the page size.
pub(crate) fn proc_status_bytes<const N: usize>(fields: [&str; N]) -> Option<[u64; N]> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut found = [None; N];
    for line in status.lines() {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if let Some(i) = fields.iter().position(|&field| field == name) {
            let kib = value
                .trim()
                .strip_suffix("kB")?
                .trim_end()
                .parse::<u64>()
                .ok()?;
            found[i] = Some(kib.saturating_mul(1024));
        }
    }
    let mut bytes = [0; N];
    for (slot, value) in bytes.iter_mut().zip(found) {
        *slot = value?;
    }
    Some(bytes)
}

/// A fixed-size, thread-safe, log-linear histogram of request latencies.
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// Bucket index for a duration of `ns` nanoseconds.
fn bucket_of(ns: u64) -> usize {
    if ns < SUBS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // >= SUB_BITS
    let sub = ((ns >> (octave - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize;
    let idx = (octave - SUB_BITS as usize) * SUBS + sub + SUBS;
    idx.min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound (in ns) of the values mapping to bucket `idx` —
/// the value quantiles report, so quantiles never under-estimate.
fn bucket_upper_ns(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx - SUBS) / SUBS + SUB_BITS as usize;
    let sub = ((idx - SUBS) % SUBS) as u64;
    ((SUBS as u64 + sub + 1) << (octave - SUB_BITS as usize)) - 1
}

/// A duration as the nanosecond count the atomics hold (saturating:
/// `u64` nanoseconds are 584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one request latency. Lock-free; safe from any thread.
    pub(crate) fn record(&self, elapsed: Duration) {
        let ns = nanos(elapsed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Recorded sample count.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q <= 1) in microseconds, or `None` with no
    /// samples. Reported as the upper bound of the bucket holding the
    /// rank, so the true quantile is never under-reported and the error
    /// is bounded by the bucket width (≤ 12.5 % relative).
    pub(crate) fn quantile_us(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_upper_ns(idx) as f64 / 1_000.0);
            }
        }
        // Counter skew between count and buckets under concurrent
        // recording can land here; the last bucket is the honest answer.
        Some(bucket_upper_ns(NUM_BUCKETS - 1) as f64 / 1_000.0)
    }

    /// Mean latency in microseconds, or `None` with no samples.
    pub(crate) fn mean_us(&self) -> Option<f64> {
        let total = self.count();
        (total > 0).then(|| self.sum_ns.load(Ordering::Relaxed) as f64 / total as f64 / 1_000.0)
    }

    /// The one-line latency summary every serving mode prints at
    /// shutdown, and the format the CLI test suite pins:
    ///
    /// `latency: p50=1.2µs p90=3.4µs p99=5.6µs mean=1.8µs over 100 queries`
    ///
    /// `None` when nothing was recorded: an idle session prints no
    /// latency line.
    pub(crate) fn summary_line(&self) -> Option<String> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        Some(format!(
            "latency: p50={:.1}µs p90={:.1}µs p99={:.1}µs mean={:.1}µs over {n} queries",
            self.quantile_us(0.50)?,
            self.quantile_us(0.90)?,
            self.quantile_us(0.99)?,
            self.mean_us()?,
        ))
    }
}

/// One monotonically increasing counter, exported under `name`.
pub(crate) struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub(crate) fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a whole batch at once (e.g. every delta a `POST /update`
    /// body applied).
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Every counter the socket front end maintains, plus the shared latency
/// histogram. All fields are updated lock-free from connection handlers.
pub(crate) struct ServerMetrics {
    /// Accepted TCP connections (including ones later rejected as busy).
    pub(crate) connections: Counter,
    /// Requests received on any transport (valid or not).
    pub(crate) requests: Counter,
    /// Answer lines / JSON answers successfully written.
    pub(crate) answers: Counter,
    /// Requests dropped because they did not parse as `u v`.
    pub(crate) malformed: Counter,
    /// Requests dropped because a vertex id was out of range.
    pub(crate) out_of_range: Counter,
    /// HTTP requests (a subset of `requests` for `/query`, plus the
    /// control/observability endpoints).
    pub(crate) http_requests: Counter,
    /// Connections turned away at admission because `--max-inflight`
    /// connections were already queued.
    pub(crate) busy_rejected: Counter,
    /// Connections that vanished mid-request (EOF with a partial line,
    /// reset, or any other terminal read error).
    pub(crate) disconnects: Counter,
    /// Connections dropped because a stalled client tripped the write
    /// timeout.
    pub(crate) write_timeouts: Counter,
    /// Connections dropped for exceeding the request-line size cap.
    pub(crate) oversized: Counter,
    /// Successful zero-downtime index reloads (generation swaps).
    pub(crate) reloads: Counter,
    /// Reload attempts that failed (the old generation stays live).
    pub(crate) reload_failures: Counter,
    /// Scrub passes that completed clean (live generation and reload
    /// source both verified).
    pub(crate) scrub_passes: Counter,
    /// Scrub passes that detected corruption (the server degrades).
    pub(crate) scrub_failures: Counter,
    /// Gauge: nanoseconds the open behind the live generation spent per
    /// phase, in [`OpenPhases::named`] order; exported in seconds.
    open_phase_ns: [AtomicU64; 4],
    /// Edge deltas applied through live updates (stdin `+u v` / `-u v`
    /// lines and `POST /update` bodies); no-op deltas are not counted.
    pub(crate) updates_applied: Counter,
    /// Update requests rejected (parse error, invalid delta, or a
    /// persistence failure — the previous generation stays live).
    pub(crate) update_failures: Counter,
    /// Journal folds triggered by `--compact-after` during live updates.
    pub(crate) compactions: Counter,
    /// Live-update publishes that spliced the patched rows into fresh base
    /// arrays (an overlay outgrew its bound, or a compaction needed flat
    /// arrays).
    pub(crate) update_folds: Counter,
    /// Gauge: rows the live generation serves from its overlays,
    /// `[graph, labels]` (0 for a flat generation).
    overlay_rows: [AtomicU64; 2],
    /// Bytes live updates wrote to the index file: one journal frame per
    /// batch, or a whole container per compaction.
    pub(crate) update_persist_bytes: Counter,
    /// Nanoseconds live updates spent per phase, in
    /// [`UpdatePhases::named`] order; exported in seconds.
    update_phase_ns: [AtomicU64; 5],
    /// Bytes live updates copied: overlay spines and chunks copied on
    /// write, the highway likewise, and the arrays of every fold.
    pub(crate) update_copied_bytes: Counter,
    /// Landmarks whose distance function an applied delta affected.
    pub(crate) update_affected_landmarks: Counter,
    /// `(landmark, vertex)` pairs whose distance an applied insert
    /// dropped — the labels its partial repair visited.
    pub(crate) update_affected_vertices: Counter,
    /// Applied deltas whose repair relabelled the whole graph (a delete
    /// that affected a landmark).
    pub(crate) update_full_relabels: Counter,
    /// Update latency: request (stdin delta line or `POST /update`)
    /// received → generation swapped.
    pub(crate) update_latency: LatencyHistogram,
    /// Pending-journal gauge: deltas a reopen of the index file would
    /// replay (reset by a compaction or a reload).
    pub(crate) journal_pending: AtomicU64,
    /// Degradation gauge: non-zero while `/healthz` reports `degraded`
    /// (corruption detected by the scrubber, cleared by a clean scrub
    /// pass or a successful reload).
    pub(crate) degraded: AtomicU64,
    /// Answers resolved purely by the common-hub label merge.
    pub(crate) answers_label_hit: Counter,
    /// Answers where the highway cross-product tightened the label bound.
    pub(crate) answers_highway: Counter,
    /// Answers where the residual BFS beat the label/highway bound.
    pub(crate) answers_bfs: Counter,
    /// Trivial answers (`u == v`).
    pub(crate) answers_trivial: Counter,
    /// Queries whose endpoints are in different components.
    pub(crate) answers_disconnected: Counter,
    /// Connections currently being handled (gauge).
    pub(crate) inflight: AtomicI64,
    /// Per-request latency across all transports.
    pub(crate) latency: LatencyHistogram,
}

impl ServerMetrics {
    pub(crate) fn new() -> Self {
        Self {
            connections: Counter::new("hcl_connections_total"),
            requests: Counter::new("hcl_requests_total"),
            answers: Counter::new("hcl_answers_total"),
            malformed: Counter::new("hcl_malformed_total"),
            out_of_range: Counter::new("hcl_out_of_range_total"),
            http_requests: Counter::new("hcl_http_requests_total"),
            busy_rejected: Counter::new("hcl_busy_rejected_total"),
            disconnects: Counter::new("hcl_disconnects_total"),
            write_timeouts: Counter::new("hcl_write_timeouts_total"),
            oversized: Counter::new("hcl_oversized_total"),
            reloads: Counter::new("hcl_reloads_total"),
            reload_failures: Counter::new("hcl_reload_failures_total"),
            scrub_passes: Counter::new("hcl_scrub_passes_total"),
            scrub_failures: Counter::new("hcl_scrub_failures_total"),
            open_phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            updates_applied: Counter::new("hcl_updates_applied_total"),
            update_failures: Counter::new("hcl_update_failures_total"),
            compactions: Counter::new("hcl_compactions_total"),
            update_folds: Counter::new("hcl_update_folds_total"),
            overlay_rows: std::array::from_fn(|_| AtomicU64::new(0)),
            update_persist_bytes: Counter::new("hcl_update_persist_bytes_total"),
            update_phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            update_copied_bytes: Counter::new("hcl_update_copied_bytes_total"),
            update_affected_landmarks: Counter::new("hcl_update_affected_landmarks_total"),
            update_affected_vertices: Counter::new("hcl_update_affected_vertices_total"),
            update_full_relabels: Counter::new("hcl_update_full_relabels_total"),
            update_latency: LatencyHistogram::new(),
            journal_pending: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            answers_label_hit: Counter::new("hcl_answers_label_hit_total"),
            answers_highway: Counter::new("hcl_answers_highway_total"),
            answers_bfs: Counter::new("hcl_answers_bfs_total"),
            answers_trivial: Counter::new("hcl_answers_trivial_total"),
            answers_disconnected: Counter::new("hcl_answers_disconnected_total"),
            inflight: AtomicI64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Bumps the per-mechanism aggregate matching one query's
    /// [`AnswerSource`] (as classified by `hcl_index::QueryStats`).
    pub(crate) fn record_source(&self, source: AnswerSource) {
        match source {
            AnswerSource::LabelHit => self.answers_label_hit.inc(),
            AnswerSource::HighwayBound => self.answers_highway.inc(),
            AnswerSource::ResidualBfs => self.answers_bfs.inc(),
            AnswerSource::Trivial => self.answers_trivial.inc(),
            AnswerSource::Disconnected => self.answers_disconnected.inc(),
        }
    }

    /// Points `hcl_open_seconds` at the open that produced the generation
    /// going live (server start, each successful reload).
    pub(crate) fn record_open(&self, phases: &OpenPhases) {
        for (slot, (_, took)) in self.open_phase_ns.iter().zip(phases.named()) {
            slot.store(nanos(took), Ordering::Relaxed);
        }
    }

    /// Points `hcl_overlay_rows` at the generation going live.
    pub(crate) fn record_overlay(&self, store: &IndexStore) {
        let rows = [store.graph().patched_rows(), store.index().patched_rows()];
        for (slot, rows) in self.overlay_rows.iter().zip(rows) {
            slot.store(rows as u64, Ordering::Relaxed);
        }
    }

    /// Accounts one published update batch: `applied` effective deltas,
    /// where the time went and what the repairs touched (`phases`), what
    /// reached the file, whether it folded, and the journal depth it left.
    pub(crate) fn record_update(
        &self,
        phases: &UpdatePhases,
        applied: u64,
        bytes: Option<u64>,
        compacted: bool,
        folded: bool,
        pending: usize,
    ) {
        self.updates_applied.add(applied);
        if compacted {
            self.compactions.inc();
        }
        if folded {
            self.update_folds.inc();
        }
        self.update_persist_bytes.add(bytes.unwrap_or(0));
        for (slot, (_, took)) in self.update_phase_ns.iter().zip(phases.named()) {
            slot.fetch_add(nanos(took), Ordering::Relaxed);
        }
        self.update_affected_landmarks
            .add(phases.affected_landmarks);
        self.update_affected_vertices.add(phases.affected_vertices);
        self.update_full_relabels.add(phases.full_relabels);
        self.update_copied_bytes.add(phases.copied_bytes);
        self.journal_pending
            .store(pending as u64, Ordering::Relaxed);
    }

    /// Renders the `GET /metrics` body: Prometheus-style `name value`
    /// lines — every counter, the in-flight gauge, the current index
    /// generation, and the latency quantiles (omitted until the first
    /// sample, like every quantile exporter).
    pub(crate) fn render(&self, generation: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(768);
        out.push_str("hcl_up 1\n");
        let _ = writeln!(out, "hcl_index_generation {generation}");
        for c in [
            &self.connections,
            &self.requests,
            &self.answers,
            &self.malformed,
            &self.out_of_range,
            &self.http_requests,
            &self.busy_rejected,
            &self.disconnects,
            &self.write_timeouts,
            &self.oversized,
            &self.reloads,
            &self.reload_failures,
            &self.scrub_passes,
            &self.scrub_failures,
            &self.updates_applied,
            &self.update_failures,
            &self.compactions,
            &self.update_folds,
            &self.update_persist_bytes,
            &self.update_affected_landmarks,
            &self.update_affected_vertices,
            &self.update_full_relabels,
            &self.update_copied_bytes,
            &self.answers_label_hit,
            &self.answers_highway,
            &self.answers_bfs,
            &self.answers_trivial,
            &self.answers_disconnected,
        ] {
            let _ = writeln!(out, "{} {}", c.name, c.get());
        }
        let mut per_phase = |metric: &str, slots: &[AtomicU64], phases: &[&str]| {
            for (slot, phase) in slots.iter().zip(phases) {
                let _ = writeln!(
                    out,
                    "{metric}{{phase=\"{phase}\"}} {:.6}",
                    slot.load(Ordering::Relaxed) as f64 / 1e9
                );
            }
        };
        per_phase(
            "hcl_open_seconds",
            &self.open_phase_ns,
            &OpenPhases::default().named().map(|(phase, _)| phase),
        );
        per_phase(
            "hcl_update_phase_seconds_total",
            &self.update_phase_ns,
            &UpdatePhases::default().named().map(|(phase, _)| phase),
        );
        let _ = writeln!(
            out,
            "hcl_journal_pending {}",
            self.journal_pending.load(Ordering::Relaxed)
        );
        for (slot, overlay) in self.overlay_rows.iter().zip(["graph", "labels"]) {
            let rows = slot.load(Ordering::Relaxed);
            let _ = writeln!(out, "hcl_overlay_rows{{overlay=\"{overlay}\"}} {rows}");
        }
        // Read at scrape time; file pages include shared memory, as in
        // `/proc/self/statm`'s shared count.
        if let Some([anon, file, shmem]) = proc_status_bytes(["RssAnon", "RssFile", "RssShmem"]) {
            let _ = writeln!(out, "hcl_process_resident_bytes{{kind=\"anon\"}} {anon}");
            let _ = writeln!(
                out,
                "hcl_process_resident_bytes{{kind=\"file\"}} {}",
                file.saturating_add(shmem)
            );
        }
        let _ = writeln!(
            out,
            "hcl_inflight_connections {}",
            self.inflight.load(Ordering::Relaxed).max(0)
        );
        let _ = writeln!(
            out,
            "hcl_degraded {}",
            self.degraded.load(Ordering::Relaxed).min(1)
        );
        // Process-global (see `crate::sync`): poison recoveries in the
        // stdin pool and slow log count here too.
        let _ = writeln!(
            out,
            "hcl_lock_poisoned_total {}",
            crate::sync::LOCK_POISONED.load(Ordering::Relaxed)
        );
        for (prefix, histogram) in [
            ("hcl_latency", &self.latency),
            ("hcl_update_latency", &self.update_latency),
        ] {
            let _ = writeln!(out, "{prefix}_samples {}", histogram.count());
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                if let Some(us) = histogram.quantile_us(q) {
                    let _ = writeln!(out, "{prefix}_us{{quantile=\"{label}\"}} {us:.1}");
                }
            }
            if let Some(us) = histogram.mean_us() {
                let _ = writeln!(out, "{prefix}_us_mean {us:.1}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_and_bound_error() {
        for ns in [
            0u64,
            1,
            7,
            8,
            100,
            999,
            12_345,
            1_000_000,
            3_600_000_000_000,
        ] {
            let idx = bucket_of(ns);
            let upper = bucket_upper_ns(idx);
            assert!(upper >= ns, "upper {upper} < value {ns}");
            // ≤ 12.5 % relative over-report (exact in the linear range).
            assert!(
                upper as f64 <= ns as f64 * 1.125 + 1.0,
                "bucket too wide: {ns} -> {upper}"
            );
            if idx > 0 {
                assert!(bucket_upper_ns(idx - 1) < ns, "value below bucket floor");
            }
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 100 samples: 1µs ×90, 100µs ×9, 10ms ×1.
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(10));
        assert_eq!(h.count(), 100);

        let p50 = h.quantile_us(0.50).unwrap();
        assert!((1.0..=1.2).contains(&p50), "p50 = {p50}");
        let p90 = h.quantile_us(0.90).unwrap();
        assert!((1.0..=1.2).contains(&p90), "p90 = {p90}"); // rank 90 is still a 1µs sample
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((100.0..=113.0).contains(&p99), "p99 = {p99}");
        let p100 = h.quantile_us(1.0).unwrap();
        assert!(p100 >= 10_000.0, "p100 = {p100}");
        let mean = h.mean_us().unwrap();
        assert!((100.0..=120.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn summary_line_pins_the_shared_format() {
        let h = LatencyHistogram::new();
        assert!(h.summary_line().is_none(), "idle sessions print no summary");
        for us in [1, 2, 3] {
            h.record(Duration::from_micros(us));
        }
        let line = h.summary_line().unwrap();
        assert!(line.starts_with("latency: p50="), "line = {line}");
        for field in [" p90=", " p99=", " mean=", "µs", " over 3 queries"] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }

    #[test]
    fn render_exposes_counters_generation_and_quantiles() {
        let m = ServerMetrics::new();
        m.requests.inc();
        m.requests.inc();
        m.answers.inc();
        m.latency.record(Duration::from_micros(5));
        m.record_source(AnswerSource::LabelHit);
        m.record_source(AnswerSource::LabelHit);
        m.record_source(AnswerSource::ResidualBfs);
        m.update_latency.record(Duration::from_millis(70));
        m.record_update(
            &UpdatePhases {
                repair: Duration::from_millis(63),
                persist: Duration::from_micros(1500),
                affected_landmarks: 3,
                affected_vertices: 11,
                full_relabels: 1,
                adopt: Duration::from_micros(250),
                copied_bytes: 4424,
                ..Default::default()
            },
            2,
            Some(56),
            false,
            true,
            7,
        );
        m.record_open(&OpenPhases {
            checksum: Duration::from_millis(20),
            graph: Duration::from_micros(23_500),
            ..Default::default()
        });
        let text = m.render(3);
        for needle in [
            "hcl_open_seconds{phase=\"crc\"} 0.020000\n",
            "hcl_open_seconds{phase=\"graph\"} 0.023500\n",
            "hcl_open_seconds{phase=\"labels\"} 0.000000\n",
            "hcl_open_seconds{phase=\"replay\"} 0.000000\n",
            "hcl_up 1\n",
            "hcl_index_generation 3\n",
            "hcl_requests_total 2\n",
            "hcl_answers_total 1\n",
            "hcl_busy_rejected_total 0\n",
            "hcl_answers_label_hit_total 2\n",
            "hcl_answers_highway_total 0\n",
            "hcl_answers_bfs_total 1\n",
            "hcl_answers_trivial_total 0\n",
            "hcl_answers_disconnected_total 0\n",
            "hcl_scrub_passes_total 0\n",
            "hcl_scrub_failures_total 0\n",
            "hcl_updates_applied_total 2\n",
            "hcl_update_failures_total 0\n",
            "hcl_compactions_total 0\n",
            "hcl_update_folds_total 1\n",
            "hcl_update_persist_bytes_total 56\n",
            "hcl_update_affected_landmarks_total 3\n",
            "hcl_update_affected_vertices_total 11\n",
            "hcl_update_full_relabels_total 1\n",
            "hcl_update_latency_samples 1\n",
            "hcl_update_latency_us{quantile=\"0.5\"} 7",
            "hcl_update_latency_us_mean 70000.0\n",
            "hcl_update_phase_seconds_total{phase=\"repair\"} 0.063000\n",
            "hcl_update_phase_seconds_total{phase=\"materialise\"} 0.000000\n",
            "hcl_update_phase_seconds_total{phase=\"persist\"} 0.001500\n",
            "hcl_update_phase_seconds_total{phase=\"swap\"} 0.000000\n",
            "hcl_update_phase_seconds_total{phase=\"adopt\"} 0.000250\n",
            "hcl_update_copied_bytes_total 4424\n",
            "hcl_journal_pending 7\n",
            "hcl_overlay_rows{overlay=\"graph\"} 0\n",
            "hcl_overlay_rows{overlay=\"labels\"} 0\n",
            "hcl_degraded 0\n",
            "hcl_latency_samples 1\n",
            "hcl_latency_us{quantile=\"0.99\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn render_reports_resident_memory_where_the_kernel_does() {
        let text = ServerMetrics::new().render(1);
        let Some([rss]) = proc_status_bytes(["VmRSS"]) else {
            assert!(!text.contains("hcl_process_resident_bytes"), "{text}");
            return;
        };
        let resident = |kind: &str| -> u64 {
            let key = format!("hcl_process_resident_bytes{{kind=\"{kind}\"}} ");
            let line = text.lines().find_map(|l| l.strip_prefix(key.as_str()));
            line.unwrap_or_else(|| panic!("no {key:?} in:\n{text}"))
                .parse()
                .unwrap()
        };
        let (anon, file) = (resident("anon"), resident("file"));
        assert!(anon > 0 && file > 0, "anon {anon}, file {file}");
        // Both parts of the resident set, read a moment apart from it.
        assert!(
            anon + file < 2 * rss + (64 << 20),
            "{anon} + {file} vs {rss}"
        );
    }

    #[test]
    fn proc_status_fields_come_back_in_bytes_in_the_asked_order() {
        let Some([hwm, rss]) = proc_status_bytes(["VmHWM", "VmRSS"]) else {
            return;
        };
        assert!(hwm >= rss && rss > 0 && rss % 1024 == 0, "{hwm} {rss}");
        assert_eq!(proc_status_bytes(["VmRSS", "NoSuchField"]), None);
    }
}
