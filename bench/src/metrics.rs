//! The metric registry: every name the harness may print, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repository root is generated from this file (`hcl-bench
//! manifest`) and a unit test keeps the two identical.

use crate::json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of `hcl` sees. Every workload reports every one of these.
///
/// The timing bounds are the widest the driver allows. The compute-bound
/// timings are corrected for the host's speed (`host.rs`); what is left —
/// which edges a script inserts, and how far each metric's sensitivity to a
/// slow core is from the yardstick's — gives ten-seed spreads of 3–15 %.
/// The exact counts are bounded by three times how much they differ between
/// seeds.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_s", "s", Lower, 0.25),
    e2e("first_answer_ms", "ms", Lower, 0.25),
    e2e("batch_queries_per_s", "1/s", Higher, 0.25),
    e2e("index_bytes_per_edge", "B/edge", Lower, 0.12),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("update_p50_ms", "ms", Lower, 0.25),
    e2e("label_entries_ratio", "ratio", Lower, 0.25),
    e2e("persist_bytes_per_update", "B/update", Lower, 0.12),
];

/// Single layers (`crate.module.metric`), measured by the traced run.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.graph.from_edges_s", "s", Lower),
    layer("core.bfs.full_bfs_ms", "ms", Lower),
    layer("core.delta.to_graph_ms", "ms", Lower),
    layer("index.select.ms", "ms", Lower),
    layer("index.build.seq_s", "s", Lower),
    layer("index.build.par_s", "s", Lower),
    layer("index.build.batches_s", "s", Lower),
    layer("index.build.merge_ms", "ms", Lower),
    layer("index.build.closure_ms", "ms", Lower),
    layer("index.build.bfs_visits", "count", Lower),
    layer("index.build.label_insertions", "count", Lower),
    layer("index.build.domination_cut_rate", "ratio", Higher),
    layer("index.query.p50_ns", "ns", Lower),
    layer("index.query.mean_ns", "ns", Lower),
    layer("index.query.label_hit_mean_ns", "ns", Lower),
    layer("index.query.highway_mean_ns", "ns", Lower),
    layer("index.query.residual_bfs_mean_ns", "ns", Lower),
    layer("index.query.residual_bfs_share", "ratio", Lower),
    layer("index.query.bfs_nodes_per_query", "count", Lower),
    layer("index.query.hub_entries_per_query", "count", Lower),
    layer("index.repair.from_view_ms", "ms", Lower),
    layer("index.repair.insert_p50_ms", "ms", Lower),
    layer("index.repair.insert_p90_ms", "ms", Lower),
    layer("index.repair.insert_zero_affected_p50_ms", "ms", Lower),
    layer("index.repair.zero_affected_share", "ratio", Higher),
    layer("index.repair.affected_landmarks_mean", "count", Lower),
    layer("index.repair.to_index_ms", "ms", Lower),
    layer("index.repair.delete_p50_ms", "ms", Lower),
    layer("index.repair.rebuild_ms", "ms", Lower),
    layer("index.repair.label_entries", "count", Lower),
    layer("store.format.serialize_ms", "ms", Lower),
    layer("store.format.container_bytes", "B", Lower),
    layer("store.durable.publish_ms", "ms", Lower),
    layer("store.open.validated_ms", "ms", Lower),
    layer("store.open.trusted_ms", "ms", Lower),
    layer("store.open.from_bytes_trusted_ms", "ms", Lower),
    layer("store.open.replay_ms_per_delta", "ms", Lower),
    layer("store.compact.compact_file_ms", "ms", Lower),
    layer("store.generation.swap_us", "us", Lower),
    layer("cli.build.unattributed_s", "s", Lower),
    layer("cli.serve_stdin.engine_share", "ratio", Higher),
    layer("cli.query.restart_first_answer_ms", "ms", Lower),
    layer("cli.server.ready_ms", "ms", Lower),
    layer("cli.server.queries_per_s", "1/s", Higher),
    layer("cli.server.updates_per_s", "1/s", Higher),
    layer("cli.server.null_rtt_us", "us", Lower),
    layer("cli.server.rtt_overhead_us", "us", Lower),
    layer("cli.server.query_p99_us", "us", Lower),
    layer("cli.server.query_p999_us", "us", Lower),
    layer("cli.server.cpu_us_per_query", "us", Lower),
    layer("cli.server.update_p90_ms", "ms", Lower),
    layer("cli.server.update_max_ms", "ms", Lower),
    layer("cli.server.update_unattributed_ms", "ms", Lower),
    layer("cli.server.read_p50_idle_us", "us", Lower),
    layer("cli.server.read_p50_during_update_us", "us", Lower),
    layer("cli.server.read_max_during_update_us", "us", Lower),
    layer("cli.server.label_hit_share", "ratio", Higher),
    layer("cli.server.highway_share", "ratio", Higher),
    layer("cli.server.bfs_share", "ratio", Lower),
    layer("loadgen.gen_inputs_s", "s", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.client_cpu_share", "ratio", Lower),
];

/// A measured value with how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Values by metric name, in name order.
pub type MetricSet = BTreeMap<&'static str, Measured>;

/// Names are restricted to letters, digits, `_`, `.` and `-`, start with a
/// letter or digit, and are at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Checks that `set` holds exactly the names of one registry table.
pub fn check_complete<'a>(
    set: &MetricSet,
    expected: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    let expected: Vec<&str> = expected.collect();
    for name in &expected {
        if !set.contains_key(name) {
            return Err(format!("metric `{name}` was not measured"));
        }
    }
    for name in set.keys() {
        if !expected.contains(name) {
            return Err(format!("metric `{name}` is not in the registry table"));
        }
    }
    Ok(())
}

/// `{"name": {"value": v, "unit": u}, …}` as the driver contract wants it.
pub fn contract_metrics(set: &MetricSet) -> Value {
    Value::Obj(
        set.iter()
            .map(|(name, m)| {
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(unit_of(name).unwrap_or(""))),
                    ]),
                )
            })
            .collect(),
    )
}

/// The `BENCHMARK.json` document for this registry.
pub fn manifest(run_seconds: u64) -> Value {
    let workloads = crate::workloads::PROFILES
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("name", Value::str(p.name)),
                ("why", Value::str(p.why)),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::obj(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
        "run",
    ];
    Value::obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("bench")])),
        ("run_seconds", Value::Num(run_seconds as f64)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} for {name}"
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let workloads = crate::workloads::PROFILES;
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn names_are_restricted() {
        for ok in ["setup_s", "index.build.seq_s", "p99-9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "has space", "slash/no", "quo\"te", "ünï"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest(crate::RUN_SECONDS).render_pretty(2),
            "regenerate with: cargo run --manifest-path bench/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }
}
