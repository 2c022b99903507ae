//! Order statistics: nearest-rank percentiles with the "at least ten samples
//! beyond" rule, and the quartiles the acceptance check uses for spreads.

/// Samples a tail percentile needs beyond it before it is reported as a
/// measurement rather than as a single slow sample.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (in `0..=1`) among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Median of unsorted values (mean of the two middle ones when even).
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

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the acceptance check computes spreads
/// with that function, so the comparer must agree with it digit for digit.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Median, p99 and p99.9 of one session's round trips, in the unit given,
/// with the sample count. p99.9 is `None` unless the samples [`supports`] it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: Option<f64>,
}

impl Latency {
    /// Summarize unsorted samples. Panics on none.
    pub fn of(samples: &mut [f64]) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency {
            samples: samples.len(),
            p50: percentile(samples, 0.5),
            p99: percentile(samples, 0.99),
            p999: supports(samples.len(), 0.999).then(|| percentile(samples, 0.999)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1 000 samples: p99 sits at rank 990, ten samples lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(1000, 0.999));
        assert!(supports(10_000, 0.999));
        assert!(!supports(19, 0.5) && supports(20, 0.5));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_sorts_and_counts() {
        let mut s: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let l = Latency::of(&mut s);
        // Two samples beyond p99.9 of 2 000: not reported.
        assert_eq!(
            (l.samples, l.p50, l.p99, l.p999),
            (2000, 1000.0, 1980.0, None)
        );
        let mut s: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        assert_eq!(Latency::of(&mut s).p999, Some(9990.0));
    }
}
