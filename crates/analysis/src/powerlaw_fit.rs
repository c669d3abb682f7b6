//! Estimation of the degree-distribution exponent `γ`.
//!
//! The paper reports fitted exponents in Fig. 1(a) ("power-law fits ... have exponents
//! between (−2.9, −2.8)"), Fig. 1(c) (exponent versus hard cutoff for PA), and Fig. 4(g)
//! (the same for DAPA). Those fits are straight lines on the log-log degree distribution;
//! [`fit_exponent_least_squares`] reproduces that estimator. A discrete maximum-likelihood
//! estimator ([`fit_exponent_mle`]) is provided as a more robust cross-check, since
//! least-squares fits of binned tails are known to be noisy — the paper itself notes the
//! large error bars of Fig. 4(g).

use serde::{Deserialize, Serialize};

/// Result of a power-law exponent fit, `P(k) ∝ k^{-γ}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentFit {
    /// Estimated exponent `γ` (reported positive; the slope of the log-log fit is `-γ`).
    pub gamma: f64,
    /// Coefficient of determination of the log-log regression (1.0 for a perfect power
    /// law); `None` for the MLE estimator.
    pub r_squared: Option<f64>,
    /// Number of points (or samples) the fit used.
    pub points_used: usize,
}

/// Fits `γ` by least squares on `ln P(k)` versus `ln k`.
///
/// `points` are `(k, P(k))` pairs; entries with non-positive `k` or `P(k)` are ignored.
/// Returns `None` if fewer than two usable points remain or if all abscissae coincide.
///
/// # Example
///
/// Reached through [`fit_exponent_from_counts`]: a histogram with `counts[k] ∝ k^-3`
/// on `k = 1, 2, 4, …, 512` fits `γ = 3` exactly.
///
/// ```
/// use sfo_analysis::fit_exponent_from_counts;
///
/// let mut counts = vec![0usize; 513];
/// for j in 0..10 {
///     counts[1 << j] = 1 << (3 * (9 - j));
/// }
/// let fit = fit_exponent_from_counts(&counts, 1, 512).unwrap();
/// assert!((fit.gamma - 3.0).abs() < 1e-9);
/// assert!(fit.r_squared.unwrap() > 0.9999);
/// ```
pub(crate) fn fit_exponent_least_squares(points: &[(f64, f64)]) -> Option<ExponentFit> {
    let usable: Vec<(f64, f64)> = points
        .iter()
        .filter(|(k, p)| *k > 0.0 && *p > 0.0 && k.is_finite() && p.is_finite())
        .map(|&(k, p)| (k.ln(), p.ln()))
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let n = usable.len() as f64;
    let mean_x = usable.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = usable.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = usable.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    if sxx < 1e-15 {
        return None;
    }
    let sxy: f64 = usable
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = usable.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = usable
        .iter()
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot < 1e-15 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(ExponentFit {
        gamma: -slope,
        r_squared: Some(r_squared),
        points_used: usable.len(),
    })
}

/// Fits `γ` from a degree histogram by least squares, restricted to degrees within
/// `[k_min, k_max]`.
///
/// `counts[k]` is the number of nodes of degree `k` (as produced by
/// `sfo_graph::degree_histogram`). The restriction is how the paper handles the
/// spike at the hard cutoff: the fit window stops just below `k_c` so the accumulation bin
/// does not drag the slope.
pub fn fit_exponent_from_counts(
    counts: &[usize],
    k_min: usize,
    k_max: usize,
) -> Option<ExponentFit> {
    let total: usize = counts.iter().sum();
    if total == 0 || k_min > k_max {
        return None;
    }
    let points: Vec<(f64, f64)> = counts
        .iter()
        .enumerate()
        .skip(k_min)
        .take(k_max.saturating_sub(k_min) + 1)
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| (k as f64, c as f64 / total as f64))
        .collect();
    fit_exponent_least_squares(&points)
}

/// Discrete maximum-likelihood estimate of `γ` from raw degree samples, using the standard
/// continuous approximation `γ̂ = 1 + n / Σ ln(k_i / (k_min - 1/2))` (Clauset, Shalizi &
/// Newman).
///
/// Samples below `k_min` are ignored. Returns `None` when fewer than two samples remain or
/// the estimate degenerates.
pub(crate) fn fit_exponent_mle(samples: &[usize], k_min: usize) -> Option<ExponentFit> {
    if k_min == 0 {
        return None;
    }
    let usable: Vec<f64> = samples
        .iter()
        .filter(|&&k| k >= k_min)
        .map(|&k| k as f64)
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let shift = k_min as f64 - 0.5;
    let log_sum: f64 = usable.iter().map(|&k| (k / shift).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    let gamma = 1.0 + usable.len() as f64 / log_sum;
    Some(ExponentFit {
        gamma,
        r_squared: None,
        points_used: usable.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_exact_exponent() {
        for gamma in [2.2f64, 2.6, 3.0] {
            let pts: Vec<(f64, f64)> = (1..500)
                .map(|k| (k as f64, 3.0 * (k as f64).powf(-gamma)))
                .collect();
            let fit = fit_exponent_least_squares(&pts).unwrap();
            assert!(
                (fit.gamma - gamma).abs() < 1e-9,
                "gamma {gamma} vs {}",
                fit.gamma
            );
            assert!(fit.r_squared.unwrap() > 0.999999);
            assert_eq!(fit.points_used, 499);
        }
    }

    #[test]
    fn least_squares_ignores_invalid_points() {
        let mut pts: Vec<(f64, f64)> = (1..100)
            .map(|k| (k as f64, (k as f64).powf(-2.0)))
            .collect();
        pts.push((0.0, 1.0));
        pts.push((5.0, 0.0));
        pts.push((f64::NAN, 0.1));
        let fit = fit_exponent_least_squares(&pts).unwrap();
        assert!((fit.gamma - 2.0).abs() < 1e-9);
        assert_eq!(fit.points_used, 99);
    }

    #[test]
    fn least_squares_needs_two_distinct_points() {
        assert!(fit_exponent_least_squares(&[]).is_none());
        assert!(fit_exponent_least_squares(&[(2.0, 0.5)]).is_none());
        assert!(fit_exponent_least_squares(&[(2.0, 0.5), (2.0, 0.4)]).is_none());
    }

    #[test]
    fn fit_from_counts_respects_window() {
        // counts ~ k^-2.5 for k in 1..=50, plus a huge spurious spike at k=60 which the
        // window excludes.
        let mut counts = vec![0usize; 61];
        for (k, count) in counts.iter_mut().enumerate().take(51).skip(1) {
            *count = (1_000_000.0 * (k as f64).powf(-2.5)).round() as usize;
        }
        counts[60] = 500_000;
        let windowed = fit_exponent_from_counts(&counts, 1, 50).unwrap();
        assert!(
            (windowed.gamma - 2.5).abs() < 0.05,
            "windowed fit {}",
            windowed.gamma
        );
        let unwindowed = fit_exponent_from_counts(&counts, 1, 60).unwrap();
        assert!(
            (unwindowed.gamma - 2.5).abs() > (windowed.gamma - 2.5).abs(),
            "the spike should bias the unwindowed fit more"
        );
        assert!(fit_exponent_from_counts(&[], 1, 10).is_none());
        assert!(fit_exponent_from_counts(&counts, 10, 5).is_none());
    }

    #[test]
    fn mle_recovers_exponent_of_synthetic_samples() {
        // Deterministic synthetic sample: value k repeated proportional to k^-2.5.
        let mut samples = Vec::new();
        for k in 1usize..=300 {
            let copies = (3_000_000.0 * (k as f64).powf(-2.5)).round() as usize;
            samples.extend(std::iter::repeat_n(k, copies));
        }
        // The continuous approximation carries a known bias for small k_min, so the check
        // uses a generous tolerance.
        let fit = fit_exponent_mle(&samples, 5).unwrap();
        assert!((fit.gamma - 2.5).abs() < 0.2, "mle estimate {}", fit.gamma);
        assert!(fit.r_squared.is_none());
    }

    #[test]
    fn mle_edge_cases() {
        assert!(fit_exponent_mle(&[], 1).is_none());
        assert!(fit_exponent_mle(&[5], 1).is_none());
        assert!(fit_exponent_mle(&[3, 4, 5], 0).is_none());
        assert!(fit_exponent_mle(&[1, 2, 3], 10).is_none());
    }
}
