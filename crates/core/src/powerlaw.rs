//! Bounded discrete power-law distributions.
//!
//! The configuration model (paper, Alg. 2) needs a degree sequence `{k_i}` drawn from
//! `P(k) ∝ k^{-γ}` on the bounded support `m ≤ k ≤ k_c`, with the additional constraint
//! that the sequence sum is even so every stub can be paired. This module provides the
//! distribution, sequence sampling, and the theoretical moments used in tests.

use crate::{DegreeCutoff, Result, TopologyError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A discrete power law `P(k) ∝ k^{-γ}` truncated to the support `[k_min, k_max]`.
///
/// # Example
///
/// ```
/// use sfo_core::BoundedPowerLaw;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let law = BoundedPowerLaw::new(2.5, 1, 100)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let k = law.sample(&mut rng);
/// assert!((1..=100).contains(&k));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundedPowerLaw {
    gamma: f64,
    k_min: usize,
    k_max: usize,
    /// Cumulative distribution over the support, `cdf[i] = P(k <= k_min + i)`.
    cdf: Vec<f64>,
}

impl BoundedPowerLaw {
    /// Creates a bounded power law with exponent `gamma` on the support `[k_min, k_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `gamma` is not finite or not positive,
    /// if `k_min` is zero, or if `k_min > k_max`.
    pub fn new(gamma: f64, k_min: usize, k_max: usize) -> Result<Self> {
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(TopologyError::InvalidConfig {
                reason: "power-law exponent gamma must be finite and positive",
            });
        }
        if k_min == 0 {
            return Err(TopologyError::InvalidConfig {
                reason: "power-law support must start at k >= 1",
            });
        }
        if k_min > k_max {
            return Err(TopologyError::InvalidConfig {
                reason: "power-law support lower bound exceeds upper bound",
            });
        }
        let weights: Vec<f64> = (k_min..=k_max).map(|k| (k as f64).powf(-gamma)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating-point drift so the last bucket always catches.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(BoundedPowerLaw {
            gamma,
            k_min,
            k_max,
            cdf,
        })
    }

    /// Returns the exponent `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Returns the smallest degree in the support.
    pub fn k_min(&self) -> usize {
        self.k_min
    }

    /// Returns the largest degree in the support.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// Returns the probability mass at `k`, or 0 outside the support.
    pub fn pmf(&self, k: usize) -> f64 {
        if k < self.k_min || k > self.k_max {
            return 0.0;
        }
        let idx = k - self.k_min;
        let prev = if idx == 0 { 0.0 } else { self.cdf[idx - 1] };
        self.cdf[idx] - prev
    }

    /// Returns the mean of the distribution.
    pub fn mean(&self) -> f64 {
        (self.k_min..=self.k_max)
            .map(|k| k as f64 * self.pmf(k))
            .sum()
    }

    /// Samples a degree from the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        self.k_min + idx.min(self.cdf.len() - 1)
    }

    /// Samples a degree sequence of length `n` whose sum is even, as required by the
    /// configuration model's stub-pairing step.
    ///
    /// If the raw sample has an odd sum, one entry that can be incremented without leaving
    /// the support is bumped by one (or decremented when every entry is already at `k_max`),
    /// matching the common implementation of the model.
    pub fn sample_even_sequence<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        let mut seq: Vec<usize> = (0..n).map(|_| self.sample(rng)).collect();
        let sum: usize = seq.iter().sum();
        if sum % 2 == 1 {
            if let Some(entry) = seq.iter_mut().find(|k| **k < self.k_max) {
                *entry += 1;
            } else if let Some(entry) = seq.iter_mut().find(|k| **k > self.k_min) {
                *entry -= 1;
            }
            // If neither adjustment is possible the support is a single odd point and the
            // sequence length is odd; the configuration model cannot pair such a sequence and
            // the caller's wiring step will surface the leftover stub.
        }
        seq
    }
}

/// Builds the power-law support for a configuration-model run: `[m, k_c]` where the upper
/// bound defaults to `n - 1` (the largest degree a simple graph on `n` nodes admits) when
/// the cutoff is unbounded, mirroring the paper's convention `k_c = N`.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidConfig`] if `m` is zero or the resulting support is
/// empty.
pub(crate) fn support_for(n: usize, m: usize, cutoff: DegreeCutoff) -> Result<(usize, usize)> {
    if m == 0 {
        return Err(TopologyError::InvalidConfig {
            reason: "stub count m must be at least 1",
        });
    }
    if n < 2 {
        return Err(TopologyError::InvalidConfig {
            reason: "network size must be at least 2",
        });
    }
    let k_max = cutoff.effective_max(n);
    if k_max < m {
        return Err(TopologyError::InvalidConfig {
            reason: "hard cutoff is smaller than the minimum degree m",
        });
    }
    Ok((m, k_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let law = BoundedPowerLaw::new(2.5, 1, 50).unwrap();
        let total: f64 = (1..=50).map(|k| law.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(law.pmf(0), 0.0);
        assert_eq!(law.pmf(51), 0.0);
    }

    #[test]
    fn pmf_is_decreasing_in_k() {
        let law = BoundedPowerLaw::new(3.0, 1, 100).unwrap();
        for k in 1..100 {
            assert!(law.pmf(k) > law.pmf(k + 1));
        }
    }

    #[test]
    fn pmf_ratio_matches_power_law() {
        let law = BoundedPowerLaw::new(2.2, 1, 1000).unwrap();
        let ratio = law.pmf(2) / law.pmf(4);
        assert!((ratio - 2f64.powf(2.2)).abs() < 1e-9);
        assert!((law.gamma() - 2.2).abs() < 1e-12);
        assert_eq!(law.k_min(), 1);
        assert_eq!(law.k_max(), 1000);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(BoundedPowerLaw::new(0.0, 1, 10).is_err());
        assert!(BoundedPowerLaw::new(f64::NAN, 1, 10).is_err());
        assert!(BoundedPowerLaw::new(2.5, 0, 10).is_err());
        assert!(BoundedPowerLaw::new(2.5, 11, 10).is_err());
    }

    #[test]
    fn samples_stay_in_support_and_match_mean() {
        let law = BoundedPowerLaw::new(2.5, 2, 40).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<usize> = (0..n).map(|_| law.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&k| (2..=40).contains(&k)));
        let empirical_mean = samples.iter().sum::<usize>() as f64 / n as f64;
        assert!(
            (empirical_mean - law.mean()).abs() < 0.05,
            "empirical mean {empirical_mean} vs theoretical {}",
            law.mean()
        );
    }

    #[test]
    fn single_point_support_always_returns_that_point() {
        let law = BoundedPowerLaw::new(2.0, 5, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(law.sample(&mut rng), 5);
        assert_eq!(law.mean(), 5.0);
    }

    #[test]
    fn even_sequence_has_even_sum() {
        let law = BoundedPowerLaw::new(3.0, 1, 30).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for len in [1usize, 2, 7, 100, 1001] {
            let seq = law.sample_even_sequence(len, &mut rng);
            assert_eq!(seq.len(), len);
            assert_eq!(seq.iter().sum::<usize>() % 2, 0, "length {len}");
        }
    }

    #[test]
    fn support_for_respects_cutoff() {
        assert_eq!(
            support_for(1000, 2, DegreeCutoff::Unbounded).unwrap(),
            (2, 999)
        );
        assert_eq!(
            support_for(1000, 2, DegreeCutoff::hard(40)).unwrap(),
            (2, 40)
        );
        assert!(support_for(1000, 0, DegreeCutoff::Unbounded).is_err());
        assert!(support_for(1, 1, DegreeCutoff::Unbounded).is_err());
        assert!(support_for(1000, 5, DegreeCutoff::hard(3)).is_err());
    }
}
