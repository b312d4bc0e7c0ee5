//! `hcl-bench compare A.json B.json`: per workload, one row per end-to-end
//! metric with both medians, the bound and a verdict. The tool for "two
//! sets of runs of one commit agree" and for parent-versus-change reports.

use crate::json::{self, Value};
use crate::metrics::Better;
use crate::stats::{python_median, spread};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a side exceeds the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric on one workload. `a` is the reference set of runs.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = |x: f64, than: f64| match better {
        Better::Lower => x > than,
        Better::Higher => x < than,
    };
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    if noisy {
        // Still resolved if every run of B reads better than every run of A.
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (python_median(a), python_median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Values of every end-to-end metric, by workload then metric, from the
/// untraced runs of a results file; plus the file's metric table.
struct Results {
    by_workload: Vec<(String, BTreeMap<String, Vec<f64>>)>,
    table: Vec<(String, Better, f64, String)>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let bad = |what: &str| format!("{path}: missing or malformed `{what}`");
    let table = doc
        .get("end_to_end")
        .and_then(Value::as_obj)
        .ok_or_else(|| bad("end_to_end"))?
        .iter()
        .map(|(name, m)| {
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(bad("better")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("bound"))?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            Ok((name.clone(), better, bound, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut by_workload: Vec<(String, BTreeMap<String, Vec<f64>>)> = Vec::new();
    for run in doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("runs"))?
    {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("workload"))?;
        let slot = match by_workload.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                by_workload.push((workload.to_string(), BTreeMap::new()));
                by_workload.len() - 1
            }
        };
        for (name, m) in run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("metrics"))?
        {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("value"))?;
            by_workload[slot]
                .1
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(Results { by_workload, table })
}

/// Prints the comparison and returns whether any row regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut regressed = false;
    println!("A = {path_a}\nB = {path_b}");
    for (workload, metrics_a) in &a.by_workload {
        let Some((_, metrics_b)) = b.by_workload.iter().find(|(w, _)| w == workload) else {
            println!("== {workload}: not in B ==");
            continue;
        };
        println!("== {workload} ==");
        println!(
            "  {:<26} {:>15} {:>15} {:>8} {:>7} {:>8} {:>8}  verdict",
            "metric", "median A", "median B", "change", "bound", "spread A", "spread B"
        );
        for (name, better, bound, unit) in &a.table {
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let verdict = judge(va, vb, *better, *bound);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (python_median(va), python_median(vb));
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "  {:<26} {:>15.4} {:>15.4} {:>+7.1}% {:>6.1}% {:>8} {:>8}  {} [{unit}, {} better, n = {}/{}]",
                name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                bound * 100.0,
                pct(spread(va)),
                pct(spread(vb)),
                verdict.as_str(),
                better.as_str(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let steady_b = [104.0, 105.0, 103.0, 104.5, 104.0];
        assert_eq!(
            judge(&steady_a, &steady_b, Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady_a, &steady_b, Better::Lower, 0.02),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            judge(&steady_a, &steady_b, Better::Higher, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady_b, &steady_a, Better::Higher, 0.02),
            Verdict::Regressed
        );
        // A side whose quartiles are further apart than the bound cannot
        // resolve a difference of the bound's size …
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(
            judge(&steady_a, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        let far_better = [40.0, 60.0, 45.0, 65.0, 35.0];
        assert_eq!(
            judge(&steady_a, &far_better, Better::Lower, 0.10),
            Verdict::Ok
        );
        // Single runs have no spread: judged on the values alone.
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(judge(&[100.0], &[105.0], Better::Lower, 0.10), Verdict::Ok);
    }
}
