//! Small numeric helpers for experiment reporting.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile of an already sorted sample; 0 for an empty
/// slice. The one definition the bench recorders (`bench_tradeoff`,
/// `bench_scale`, `bench_latency`) report with, so the committed
/// `BENCH_*.json` records stay mutually comparable.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Least-squares slope of `y` against `x` (used for the log-log storage
/// plot, where the paper reports slope ≈ 1.5).
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2, "need at least two points for a slope");
    let mx = mean(x);
    let my = mean(y);
    let num: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let den: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn slope_of_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.5, 4.0, 5.5, 7.0];
        assert!((slope(&x, &y) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slope_recovers_power_law_in_log_space() {
        let x: Vec<f64> = [1000.0, 2000.0, 4000.0, 8000.0].iter().map(|n: &f64| n.ln()).collect();
        let y: Vec<f64> =
            [1000.0f64, 2000.0, 4000.0, 8000.0].iter().map(|n| (2.0 * n.powf(1.5)).ln()).collect();
        assert!((slope(&x, &y) - 1.5).abs() < 1e-9);
    }
}
