//! Order statistics for timings and spreads.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a benchmark section that produced no sample
/// is a bug in the benchmark, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// gives them, so a spread computed here is the spread the benchmark
/// driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i*(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// `(max - min) / median`.
pub fn range_share(values: &[f64]) -> f64 {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (max - min) / median(values)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 1-based rank, in an ascending sample of `samples` values, of the
/// highest percentile up to `cap` that still has at least ten samples
/// beyond it — a tail figure read from fewer samples does not repeat.
/// `None` with ten samples or fewer.
pub fn highest_supported_rank(samples: usize, cap: f64) -> Option<usize> {
    let beyond_cap = ((cap / 100.0) * samples as f64).ceil() as usize;
    samples.checked_sub(10).filter(|&rank| rank > 0).map(|rank| rank.min(beyond_cap))
}

/// Latency summary of one run: median, the supported tail percentile
/// (p90 when the sample allows it) and p99 for information.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: u64,
    /// Value at `tail_percentile`.
    pub tail_ns: u64,
    /// 90 unless fewer than 100 samples force a lower percentile; 50 with
    /// ten samples or fewer.
    pub tail_percentile: f64,
    pub p99_ns: u64,
}

/// Summarises latency samples; sorts `samples` in place.
pub fn summarize_latency(samples: &mut [u64]) -> LatencySummary {
    assert!(!samples.is_empty(), "latency summary of no samples");
    samples.sort_unstable();
    // With ten samples or fewer no tail is supported: fall back to the
    // median rather than invent one.
    let p50_ns = percentile_sorted(samples, 50.0);
    let (tail_ns, tail_percentile) = match highest_supported_rank(samples.len(), 90.0) {
        Some(rank) => (samples[rank - 1], 100.0 * rank as f64 / samples.len() as f64),
        None => (p50_ns, 50.0),
    };
    LatencySummary {
        samples: samples.len(),
        p50_ns,
        tail_ns,
        tail_percentile,
        p99_ns: percentile_sorted(samples, 99.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]), [4.0, 5.0, 9.0]);
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), 1.0);
        assert_eq!(range_share(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 90.0), 90);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[5], 90.0), 5);
    }

    #[test]
    fn percentiles_of_unsorted_rates() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 4.0);
        assert_eq!(percentile(&v, 90.0), 36.0);
        assert_eq!(percentile(&[2.5], 10.0), 2.5);
    }

    #[test]
    fn tail_rank_leaves_ten_samples_beyond_it() {
        assert_eq!(highest_supported_rank(10, 90.0), None);
        assert_eq!(highest_supported_rank(3, 90.0), None);
        // 20 samples: ten lie beyond the 10th.
        assert_eq!(highest_supported_rank(20, 90.0), Some(10));
        assert_eq!(highest_supported_rank(30, 90.0), Some(20));
        assert_eq!(highest_supported_rank(40, 90.0), Some(30));
        // From 100 samples on p90 itself is supported, and is the cap.
        assert_eq!(highest_supported_rank(100, 90.0), Some(90));
        assert_eq!(highest_supported_rank(5000, 90.0), Some(4500));
    }

    #[test]
    fn latency_summary_uses_the_supported_tail() {
        let mut few: Vec<u64> = (1..=30).rev().collect();
        let s = summarize_latency(&mut few);
        assert_eq!(s.samples, 30);
        assert_eq!(s.p50_ns, 15);
        // 30 samples: highest supported percentile is 66.67, value rank 20.
        assert!((s.tail_percentile - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.tail_ns, 20);
        let mut many: Vec<u64> = (1..=1000).collect();
        let s = summarize_latency(&mut many);
        assert_eq!((s.tail_percentile, s.tail_ns, s.p99_ns), (90.0, 900, 990));
    }
}
