//! Percentiles that refuse to print what the sample cannot support, and the
//! quartile arithmetic the agreement check uses.

/// The `p`-th percentile (nearest rank) of an ascending slice, or `None`
/// when fewer than ten samples lie beyond it — the rule that makes p99 need
/// 1 000 samples. A window that cannot support its percentile is invalid,
/// not approximately right.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990, not 9 991, despite
    // 0.999 having no exact binary form.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    let needed = if p <= 50.0 { 0 } else { 10 };
    if beyond < needed {
        return None;
    }
    Some(sorted[rank.min(n) - 1])
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them, so spreads computed here match the ones the contract's driver
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the spread figure
/// every bound in `BENCHMARK.json` is derived from and checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(1000), 99.9), None);
        assert_eq!(percentile(&ramp(10_000), 99.9), Some(9990.0));
    }

    #[test]
    fn median_percentile_is_always_supported() {
        assert_eq!(percentile(&ramp(1), 50.0), Some(1.0));
        assert_eq!(percentile(&ramp(4), 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = relative_spread(&ramp(10));
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), 0.0);
    }
}
