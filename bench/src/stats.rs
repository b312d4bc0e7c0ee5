//! Order statistics for the harness: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" tail rule,
//! and the quartile spread the acceptance procedure uses.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q * n)` (1-based, clamped to `1..=n`). `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Sorts a copy ascending (total order; the harness never produces NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted samples; `0.0` when there are none, so
/// a layer that did no work reports zero busy time.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5).unwrap_or(0.0)
}

/// Smallest sample; `0.0` when empty.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentiles the harness is willing to report, lowest first.
const TAILS: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
];

/// The highest of p90 / p99 / p99.9 / p99.99 that still has at least ten
/// samples beyond it, with its nearest-rank value. `None` below 100
/// samples, where not even p90 qualifies.
pub fn tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let n = sorted.len();
    TAILS
        .iter()
        .rev()
        .find(|(_, q)| {
            let rank = ((n as f64 * q).ceil() as usize).clamp(1, n.max(1));
            n >= rank + 10
        })
        .and_then(|&(label, q)| percentile(sorted, q).map(|v| (label, v)))
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs at least
/// two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the acceptance procedure compares against a metric's bound.
/// `None` with fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = python_median(values);
    (mid != 0.0).then(|| ((q3 - q1) / mid).abs())
}

/// Median with the mean of the two middle samples for even counts, as
/// Python's `statistics.median` (used for sets of runs, not for timing
/// samples, which use nearest rank).
pub fn python_median(values: &[f64]) -> f64 {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: nearest rank takes the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(99)), None);
        // 100 samples: p90 is rank 90, ten beyond; p99 has only one.
        assert_eq!(tail(&v(100)), Some(("p90", 90.0)));
        assert_eq!(tail(&v(999)), Some(("p90", 900.0)));
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        assert_eq!(tail(&v(1000)), Some(("p99", 990.0)));
        assert_eq!(tail(&v(10_000)), Some(("p99.9", 9990.0)));
        assert_eq!(tail(&v(100_000)), Some(("p99.99", 99_990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        assert_eq!(python_median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
