//! Descriptive statistics used by the experiment sweeps.
//!
//! Small, dependency-free helpers (mean, standard deviation, percentiles,
//! confidence half-widths) so that every table reported in EXPERIMENTS.md can
//! carry dispersion information and not only point estimates.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator); 0 for fewer than two
    /// observations.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }
}

/// Percentile (nearest-rank with linear interpolation) of an already sorted
/// sample. `p` is in `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Geometric mean of strictly positive samples (the customary way to average
/// performance *ratios* across instances). Returns `None` if the sample is
/// empty or contains non-positive values.
pub fn geometric_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic example is ~2.138.
        assert!((s.std_dev - 2.138).abs() < 1e-3);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
        assert!(s.p95 >= 7.0 && s.p95 <= 9.0);
    }

    #[test]
    fn summary_edge_cases() {
        assert!(Summary::of(&[]).is_none());
        let single = Summary::of(&[3.5]).unwrap();
        assert_eq!(single.count, 1);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.median, 3.5);
    }

    #[test]
    fn percentiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 3.0);
        assert!((percentile_sorted(&sorted, 25.0) - 2.0).abs() < 1e-12);
        assert!((percentile_sorted(&sorted, 90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile_sorted(&[], 50.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let g = geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
        // Geometric mean never exceeds the arithmetic mean.
        let samples = [1.1, 1.7, 2.9, 1.0];
        let g = geometric_mean(&samples).unwrap();
        let a = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(g <= a);
    }
}
