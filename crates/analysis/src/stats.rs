//! General statistics: bootstrap confidence intervals, Kolmogorov-Smirnov distances, and
//! correlation.
//!
//! The paper reports every data point as an average over 10 network realizations and notes
//! that some of its exponent estimates carry "quite large error bars". This module provides
//! the machinery to make such statements quantitative in the reproduction:
//!
//! * [`bootstrap_mean_ci`] — a percentile bootstrap confidence interval for the mean of a
//!   small sample (realization averages);
//! * [`ks_distance_powerlaw`] — the Kolmogorov-Smirnov distance between an empirical degree
//!   sample and a discrete bounded power law, the goodness-of-fit statistic behind the
//!   `k_min` selection of [`crate::kmin`];
//! * [`pearson_correlation`] — linear correlation between paired measurements (for example
//!   hit counts of two search algorithms across the same sources).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A two-sided confidence interval for a statistic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (the statistic on the full sample).
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level the interval targets (for example 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Returns the half-width `(upper - lower) / 2` of the interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Returns `true` if `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// Percentile-bootstrap confidence interval for the mean of `samples`.
///
/// Returns `None` for an empty sample, a non-positive number of resamples, or a confidence
/// level outside `(0, 1)`. With a single observation the interval collapses onto it.
pub fn bootstrap_mean_ci<R: Rng + ?Sized>(
    samples: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> Option<ConfidenceInterval> {
    if samples.is_empty() || resamples == 0 || !(0.0..1.0).contains(&level) || level <= 0.0 {
        return None;
    }
    let n = samples.len();
    let estimate = samples.iter().sum::<f64>() / n as f64;
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let mut sum = 0.0;
            for _ in 0..n {
                sum += samples[rng.gen_range(0..n)];
            }
            sum / n as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("bootstrap means are finite"));
    let alpha = (1.0 - level) / 2.0;
    let lower_idx = ((resamples as f64) * alpha).floor() as usize;
    let upper_idx = (((resamples as f64) * (1.0 - alpha)).ceil() as usize).min(resamples - 1);
    Some(ConfidenceInterval {
        estimate,
        lower: means[lower_idx],
        upper: means[upper_idx],
        level,
    })
}

/// Kolmogorov-Smirnov distance between the empirical distribution of integer `samples`
/// (restricted to values in `[k_min, k_max]`) and the discrete bounded power law
/// `P(k) ∝ k^{-gamma}` on the same support.
///
/// Returns `None` if no samples fall in the window, the window is empty, or `gamma` is not
/// finite.
pub(crate) fn ks_distance_powerlaw(
    samples: &[usize],
    gamma: f64,
    k_min: usize,
    k_max: usize,
) -> Option<f64> {
    if k_min == 0 || k_min > k_max || !gamma.is_finite() {
        return None;
    }
    let windowed: Vec<usize> = samples
        .iter()
        .copied()
        .filter(|&k| (k_min..=k_max).contains(&k))
        .collect();
    if windowed.is_empty() {
        return None;
    }
    let n = windowed.len() as f64;

    // Empirical counts per degree within the window.
    let mut counts = vec![0usize; k_max - k_min + 1];
    for &k in &windowed {
        counts[k - k_min] += 1;
    }

    // Model pmf, normalized over the same window.
    let weights: Vec<f64> = (k_min..=k_max).map(|k| (k as f64).powf(-gamma)).collect();
    let total_weight: f64 = weights.iter().sum();

    let mut empirical_cdf = 0.0;
    let mut model_cdf = 0.0;
    let mut max_gap: f64 = 0.0;
    for (i, &count) in counts.iter().enumerate() {
        empirical_cdf += count as f64 / n;
        model_cdf += weights[i] / total_weight;
        max_gap = max_gap.max((empirical_cdf - model_cdf).abs());
    }
    Some(max_gap)
}

/// Pearson linear correlation between two paired samples.
///
/// Returns `None` if the samples differ in length, have fewer than two elements, or either
/// has zero variance.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x).powi(2);
        syy += (y - mean_y).powi(2);
        sxy += (x - mean_x) * (y - mean_y);
    }
    if sxx < 1e-300 || syy < 1e-300 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bootstrap_rejects_degenerate_inputs() {
        let mut r = rng(0);
        assert!(bootstrap_mean_ci(&[], 100, 0.95, &mut r).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 0, 0.95, &mut r).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 100, 0.0, &mut r).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 100, 1.5, &mut r).is_none());
    }

    #[test]
    fn bootstrap_interval_contains_the_sample_mean() {
        let samples: Vec<f64> = (0..40).map(|i| 10.0 + (i % 7) as f64).collect();
        let ci = bootstrap_mean_ci(&samples, 2_000, 0.95, &mut rng(1)).unwrap();
        assert!(ci.contains(ci.estimate));
        assert!(ci.lower <= ci.upper);
        assert!(ci.half_width() > 0.0);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn bootstrap_single_observation_collapses() {
        let ci = bootstrap_mean_ci(&[4.2], 500, 0.9, &mut rng(2)).unwrap();
        assert_eq!(ci.estimate, 4.2);
        assert_eq!(ci.lower, 4.2);
        assert_eq!(ci.upper, 4.2);
        assert_eq!(ci.half_width(), 0.0);
    }

    #[test]
    fn bootstrap_interval_narrows_with_more_data() {
        let small: Vec<f64> = (0..10).map(|i| (i % 5) as f64).collect();
        let large: Vec<f64> = (0..1_000).map(|i| (i % 5) as f64).collect();
        let ci_small = bootstrap_mean_ci(&small, 1_000, 0.95, &mut rng(3)).unwrap();
        let ci_large = bootstrap_mean_ci(&large, 1_000, 0.95, &mut rng(3)).unwrap();
        assert!(ci_large.half_width() < ci_small.half_width());
    }

    #[test]
    fn ks_distance_is_small_for_matching_samples() {
        // Build a synthetic sample that follows k^-2.5 closely on [2, 100].
        let mut samples = Vec::new();
        for k in 2usize..=100 {
            let copies = (200_000.0 * (k as f64).powf(-2.5)).round() as usize;
            samples.extend(std::iter::repeat_n(k, copies));
        }
        let good = ks_distance_powerlaw(&samples, 2.5, 2, 100).unwrap();
        let bad = ks_distance_powerlaw(&samples, 1.5, 2, 100).unwrap();
        assert!(
            good < 0.01,
            "matching exponent should give a tiny KS distance, got {good}"
        );
        assert!(
            bad > good * 5.0,
            "wrong exponent should fit much worse ({bad} vs {good})"
        );
    }

    #[test]
    fn ks_distance_edge_cases() {
        assert!(ks_distance_powerlaw(&[], 2.5, 1, 10).is_none());
        assert!(ks_distance_powerlaw(&[5, 6], 2.5, 0, 10).is_none());
        assert!(ks_distance_powerlaw(&[5, 6], 2.5, 10, 5).is_none());
        assert!(ks_distance_powerlaw(&[50, 60], 2.5, 1, 10).is_none());
        assert!(ks_distance_powerlaw(&[5, 6], f64::NAN, 1, 10).is_none());
        // A degenerate single-value window always matches perfectly.
        let d = ks_distance_powerlaw(&[3, 3, 3], 2.0, 3, 3).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn pearson_correlation_detects_linear_relationships() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys_up: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let ys_down: Vec<f64> = xs.iter().map(|x| -2.0 * x + 7.0).collect();
        assert!((pearson_correlation(&xs, &ys_up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson_correlation(&xs, &ys_down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_correlation_edge_cases() {
        assert!(pearson_correlation(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson_correlation(&[1.0], &[1.0]).is_none());
        assert!(pearson_correlation(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        let xs = [1.0, 2.0, 3.0, 4.0];
        let noise = [0.3, -0.4, 0.2, -0.1];
        let r = pearson_correlation(&xs, &noise).unwrap();
        assert!(r.abs() <= 1.0);
    }
}
