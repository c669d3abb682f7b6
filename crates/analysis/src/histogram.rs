//! Logarithmic binning of empirical distributions.
//!
//! Degree distributions of scale-free networks span several orders of magnitude in both
//! `k` and `P(k)`; the paper's Figs. 1-4 are therefore presented on log-log axes. Raw
//! per-degree frequencies become extremely noisy in the tail (most degrees occur zero or
//! one time), so the standard remedy — also used here — is logarithmic binning: bins whose
//! widths grow geometrically, with counts converted to densities.

use serde::{Deserialize, Serialize};

/// One logarithmic bin of a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogBin {
    /// Inclusive lower edge of the bin.
    pub lower: f64,
    /// Exclusive upper edge of the bin.
    pub upper: f64,
    /// Geometric center of the bin, the natural abscissa on a log axis.
    pub center: f64,
    /// Probability density in the bin: (fraction of samples) / (bin width).
    pub density: f64,
    /// Raw number of samples that fell into the bin.
    pub count: usize,
}

/// Logarithmically bins positive integer samples (values of zero are ignored, as degree
/// zero cannot be placed on a log axis).
///
/// `bins_per_decade` controls the resolution; the paper-style plots use around 10. Empty
/// bins are omitted from the output.
///
/// # Panics
///
/// Panics if `bins_per_decade` is zero.
///
/// # Example
///
/// ```
/// use sfo_analysis::log_binned_distribution;
///
/// let samples: Vec<usize> = (1..=1000).collect();
/// let bins = log_binned_distribution(&samples, 5);
/// assert!(!bins.is_empty());
/// // Densities of a uniform sample are roughly constant.
/// let first = bins.first().unwrap().density;
/// let last = bins.last().unwrap().density;
/// assert!((first / last) < 3.0 && (last / first) < 3.0);
/// ```
pub fn log_binned_distribution(samples: &[usize], bins_per_decade: usize) -> Vec<LogBin> {
    assert!(bins_per_decade > 0, "bins_per_decade must be positive");
    let positive: Vec<usize> = samples.iter().copied().filter(|&s| s > 0).collect();
    if positive.is_empty() {
        return Vec::new();
    }
    let total = positive.len() as f64;
    let max = *positive.iter().max().expect("non-empty") as f64;
    let ratio = 10f64.powf(1.0 / bins_per_decade as f64);

    // Bin edges start at 1 and grow geometrically until they cover the maximum.
    let mut edges = vec![1.0f64];
    while *edges.last().expect("non-empty") <= max {
        let next = edges.last().expect("non-empty") * ratio;
        edges.push(next);
    }

    let mut bins: Vec<LogBin> = edges
        .windows(2)
        .map(|w| LogBin {
            lower: w[0],
            upper: w[1],
            center: (w[0] * w[1]).sqrt(),
            density: 0.0,
            count: 0,
        })
        .collect();

    for &s in &positive {
        let v = s as f64;
        // Find the bin whose [lower, upper) interval contains v.
        let idx = bins.partition_point(|b| b.upper <= v).min(bins.len() - 1);
        bins[idx].count += 1;
    }

    for bin in &mut bins {
        let width = bin.upper - bin.lower;
        bin.density = bin.count as f64 / total / width;
    }
    bins.retain(|b| b.count > 0);
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bins_cover_all_positive_samples() {
        let samples: Vec<usize> = vec![1, 2, 3, 10, 100, 1000, 0, 0];
        let bins = log_binned_distribution(&samples, 10);
        let counted: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(counted, 6, "zeros are excluded, everything else is binned");
        for b in &bins {
            assert!(b.lower < b.upper);
            assert!(b.center > b.lower && b.center < b.upper);
            assert!(b.density > 0.0);
        }
    }

    #[test]
    fn log_bins_of_power_law_have_decreasing_density() {
        // Construct an exact discrete power-law-ish sample: value k appears ~ C k^-2 times.
        let mut samples = Vec::new();
        for k in 1usize..=200 {
            let copies = (200_000.0 * (k as f64).powf(-2.0)).round() as usize;
            samples.extend(std::iter::repeat_n(k, copies));
        }
        let bins = log_binned_distribution(&samples, 5);
        assert!(bins.len() >= 5);
        for w in bins.windows(2) {
            assert!(
                w[1].density < w[0].density,
                "density must decrease along a power-law tail"
            );
        }
    }

    #[test]
    fn log_bins_empty_input() {
        assert!(log_binned_distribution(&[], 10).is_empty());
        assert!(log_binned_distribution(&[0, 0, 0], 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "bins_per_decade")]
    fn log_bins_reject_zero_resolution() {
        let _ = log_binned_distribution(&[1, 2, 3], 0);
    }
}
