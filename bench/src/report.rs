//! From raw measurements to named metrics, the printed table, the driver's
//! result line and `bench/out/results.json`.

use crate::host::Timed;
use crate::json::Value;
use crate::loadgen::{Read1, Write1};
use crate::metrics::{self, Measured, MetricSet, END_TO_END};
use crate::proc::Env;
use crate::stats::{best, median, percentile, sorted, tail};
use crate::workloads::Live;

/// Whether a read was in flight during any part of some write.
pub fn overlaps(read: &Read1, writes: &[Write1]) -> bool {
    writes
        .iter()
        .any(|w| read.sent_ns < w.acked_ns && w.sent_ns < read.recv_ns)
}

/// The end-to-end metrics of one untraced live run. The compute-bound
/// timings the harness can take yardstick readings around — input
/// generation, `hcl build`, the stdin batch, read segments that run alone —
/// are divided, sample by sample, by how slow the host was meanwhile
/// (`host.rs`); the metric is the median of the corrected samples.
pub fn end_to_end(live: &Live) -> MetricSet {
    let mut set = MetricSet::new();
    let mut put = |name, value, samples| {
        set.insert(name, Measured { value, samples });
    };
    let raw = |spans: &[Timed]| -> Vec<f64> { spans.iter().map(Timed::secs).collect() };
    let corrected = |spans: &[Timed]| -> Vec<f64> {
        spans
            .iter()
            .map(|t| t.secs() / live.meter.slowdown(t))
            .collect()
    };
    // Time to make the inputs plus time to bring the server to `listening
    // on` (mostly the kernel reading the file: not corrected); the build in
    // between is `build_s`.
    put(
        "setup_s",
        median(&corrected(&live.gen)) + median(&raw(&live.ready)),
        live.gen.len(),
    );
    put("build_s", median(&corrected(&live.build)), live.build.len());
    // Mostly the kernel mapping and the checksum pass streaming the file:
    // the core's state moves it little, so the best sample it is.
    put(
        "first_answer_ms",
        best(&raw(&live.first_answer)) * 1e3,
        live.first_answer.len(),
    );
    put(
        "batch_queries_per_s",
        live.batch_pairs as f64 / median(&corrected(&live.batch)),
        live.batch.len(),
    );
    put(
        "index_bytes_per_edge",
        live.final_file_bytes as f64 / live.final_edges as f64,
        1,
    );
    // Alone: the median round trip per segment of each connection,
    // corrected, then the median over those. Beside writes: the median
    // round trip of the reads in flight during a write.
    let write_slowdown = live.meter.slowdown(&live.writes.during);
    let rtt_us: Vec<f64> = if live.segments.is_empty() {
        let writes = &live.writes.writes;
        live.reads
            .iter()
            .filter(|r| overlaps(r, writes))
            .map(|r| r.latency_us() / write_slowdown)
            .collect()
    } else {
        live.segments
            .iter()
            .map(|(t, p50_us)| p50_us / live.meter.slowdown(t))
            .collect()
    };
    put("query_p50_us", median(&rtt_us), rtt_us.len());
    let update_ms: Vec<f64> = live.writes.writes.iter().map(Write1::latency_ms).collect();
    let updates = update_ms.len();
    put(
        "update_p50_ms",
        median(&update_ms) / write_slowdown,
        updates,
    );
    put(
        "label_entries_ratio",
        live.repaired_label_entries as f64 / live.fresh_label_entries as f64,
        1,
    );
    put(
        "persist_bytes_per_update",
        live.persist_bytes as f64 / updates as f64,
        updates,
    );
    set
}

/// How slow the host was, and for the two latency distributions a reader
/// of the table cares about the uncorrected median and the highest
/// percentile with ten samples beyond it.
pub fn latency_notes(live: &Live) -> Vec<String> {
    let describe = |what: &str, unit: &str, values: Vec<f64>| {
        let values = sorted(&values);
        let p50 = percentile(&values, 0.5).unwrap_or(0.0);
        match tail(&values) {
            Some((label, v)) => format!(
                "{what}: p50 {p50:.1} {unit}, {label} {v:.1} {unit} (n = {})",
                values.len()
            ),
            None => format!(
                "{what}: p50 {p50:.1} {unit} (n = {}, too few for a tail)",
                values.len()
            ),
        }
    };
    let (lo, mid, hi, readings) = live.meter.summary();
    let secs = |spans: &[Timed]| median(&spans.iter().map(Timed::secs).collect::<Vec<_>>());
    vec![
        format!(
            "host: the yardstick took {mid:.2}x its nominal time ({lo:.2}x to {hi:.2}x, {readings} readings); \
             uncorrected medians: build {:.4} s, stdin batch {:.4} s",
            secs(&live.build),
            secs(&live.batch)
        ),
        describe(
            "socket read round trip",
            "us",
            live.reads.iter().map(Read1::latency_us).collect(),
        ),
        describe(
            "POST /update",
            "ms",
            live.writes.writes.iter().map(Write1::latency_ms).collect(),
        ),
    ]
}

/// One finished run of one workload.
pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub drain_exit_code: Option<i32>,
    pub loadgen_valid: bool,
    pub metrics: MetricSet,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The object the driver reads from the last line of stdout.
    pub fn contract_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics::contract_metrics(&self.metrics)),
        ])
        .render()
    }

    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} s, {}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "untraced run: end-to-end metrics"
            }
        );
        for (name, m) in &self.metrics {
            println!(
                "  {name:<44} {:>16.4} {:<9} n = {}",
                m.value,
                metrics::unit_of(name).unwrap_or(""),
                m.samples
            );
        }
        println!(
            "  attempted {} failed {} failed_share {} | graceful drain exit {:?}{}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.drain_exit_code,
            if self.loadgen_valid {
                ""
            } else {
                " | INVALID: the load generator ran more than 50 ms late"
            }
        );
    }

    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    metrics::valid_name(name),
                    "metric name `{name}` is malformed"
                );
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(metrics::unit_of(name).unwrap_or(""))),
                        ("samples", Value::Num(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("trace", Value::Num(f64::from(u8::from(self.traced)))),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "drain_exit_code",
                self.drain_exit_code
                    .map_or(Value::Null, |c| Value::Num(f64::from(c))),
            ),
            ("loadgen_valid", Value::Bool(self.loadgen_valid)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// The `results.json` document: host facts, the bounds in force, and
/// every run with its sample counts.
pub fn results_document(env: &Env, scale: &str, runs: &[RunRecord]) -> Value {
    let bounds = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::obj(vec![
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("bound", Value::Num(m.bound)),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("schema", Value::str("hcl-bench/1")),
        (
            "env",
            Value::obj(vec![
                ("nproc", Value::Num(env.nproc as f64)),
                ("cpu_model", Value::str(env.cpu_model.as_str())),
                ("rustc", Value::str(env.rustc.as_str())),
                ("git_commit", Value::str(env.git_commit.as_str())),
                ("scale", Value::str(scale)),
            ]),
        ),
        ("end_to_end", Value::Obj(bounds)),
        (
            "runs",
            Value::Arr(runs.iter().map(RunRecord::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn record(name: &'static str) -> RunRecord {
        let mut metrics = MetricSet::new();
        metrics.insert(
            name,
            Measured {
                value: 1.2034,
                samples: 7,
            },
        );
        RunRecord {
            workload: "serve_read",
            seed: 3,
            seconds: 10.0,
            traced: false,
            attempted: 1000,
            failed: 0,
            drain_exit_code: Some(0),
            loadgen_valid: true,
            metrics,
        }
    }

    #[test]
    fn results_writer_round_trips_and_carries_sample_counts() {
        let env = Env {
            nproc: 2,
            cpu_model: "Test \"CPU\"".into(),
            rustc: "rustc 1.0".into(),
            git_commit: "unknown".into(),
        };
        let doc = results_document(&env, "smoke", &[record("query_p50_us")]);
        let back = json::parse(&doc.render_pretty(3)).unwrap();
        assert_eq!(back, doc);
        let run = &back.get("runs").unwrap().as_arr().unwrap()[0];
        let metric = run.get("metrics").unwrap().get("query_p50_us").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(1.2034));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(metric.get("samples").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            back.get("env").unwrap().get("nproc").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn results_writer_refuses_names_outside_the_allowed_alphabet() {
        results_document(
            &Env {
                nproc: 1,
                cpu_model: String::new(),
                rustc: String::new(),
                git_commit: String::new(),
            },
            "smoke",
            &[record("bad name")],
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = record("query_p50_us").contract_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"query_p50_us\": {\"value\": 1.2034, \"unit\": \"us\"}"));
        assert!(!line.contains('\n'));
    }
}
