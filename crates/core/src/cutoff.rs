//! Natural-cutoff theory for finite scale-free networks (paper, §III-A).
//!
//! A finite scale-free network cannot contain arbitrarily large hubs. The estimate of the
//! largest expected degree (the *natural cutoff* `k_nc`) implemented here is Dorogovtsev &
//! Mendes': the degree above which one expects at most one node in the tail,
//! `N · ∫_{k_nc}^∞ P(k) dk ~ 1`, giving `k_nc ~ m · N^{1/(γ-1)}` (paper, eqs. 3-4).
//!
//! For the Barabási-Albert preferential-attachment model (`γ = 3`) the latter reduces to
//! `k_nc ~ m · √N` (paper, eq. 5). Hard cutoffs studied in the paper are *smaller* than
//! these natural values, which is what reshapes the degree distribution.

use crate::{Result, TopologyError};

fn validate_gamma(gamma: f64) -> Result<()> {
    if !gamma.is_finite() || gamma <= 1.0 {
        return Err(TopologyError::InvalidConfig {
            reason: "power-law exponent gamma must be finite and greater than 1",
        });
    }
    Ok(())
}

fn validate_nodes(nodes: usize) -> Result<()> {
    if nodes == 0 {
        return Err(TopologyError::InvalidConfig {
            reason: "network size must be positive",
        });
    }
    Ok(())
}

/// Natural cutoff according to Dorogovtsev & Mendes: `k_nc = m · N^{1/(γ-1)}`
/// (paper, eq. 4).
///
/// # Errors
///
/// Returns [`TopologyError::InvalidConfig`] if `nodes` is zero, `m` is zero, or
/// `gamma <= 1`.
pub(crate) fn natural_cutoff_dorogovtsev(nodes: usize, m: usize, gamma: f64) -> Result<f64> {
    validate_nodes(nodes)?;
    validate_gamma(gamma)?;
    if m == 0 {
        return Err(TopologyError::InvalidConfig {
            reason: "stub count m must be at least 1",
        });
    }
    Ok(m as f64 * (nodes as f64).powf(1.0 / (gamma - 1.0)))
}

/// Natural cutoff of the Barabási-Albert preferential-attachment model (`γ = 3`):
/// `k_nc = m · √N` (paper, eq. 5).
///
/// # Errors
///
/// Returns [`TopologyError::InvalidConfig`] if `nodes` or `m` is zero.
pub fn pa_natural_cutoff(nodes: usize, m: usize) -> Result<f64> {
    natural_cutoff_dorogovtsev(nodes, m, 3.0)
}

/// Expected diameter scaling class of a scale-free network (paper, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiameterClass {
    /// `d ~ ln ln N` (ultra-small world), for `2 < γ < 3`.
    UltraSmall,
    /// `d ~ ln N / ln ln N`, for `γ = 3` and `m ≥ 2`.
    LogOverLogLog,
    /// `d ~ ln N`, for `γ = 3, m = 1` (scale-free tree) or `γ > 3`.
    Logarithmic,
}

/// Classifies the expected diameter scaling of a scale-free network with exponent `gamma`
/// and `m` stubs per node, following the paper's Table I.
///
/// Values of `gamma` within `1e-6` of 3 are treated as exactly 3.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidConfig`] if `gamma <= 2` (Table I does not cover that
/// regime) or `m` is zero.
pub fn diameter_class(gamma: f64, m: usize) -> Result<DiameterClass> {
    if m == 0 {
        return Err(TopologyError::InvalidConfig {
            reason: "stub count m must be at least 1",
        });
    }
    if !gamma.is_finite() || gamma <= 2.0 {
        return Err(TopologyError::InvalidConfig {
            reason: "diameter classification requires gamma greater than 2",
        });
    }
    let is_three = (gamma - 3.0).abs() < 1e-6;
    Ok(if is_three {
        if m >= 2 {
            DiameterClass::LogOverLogLog
        } else {
            DiameterClass::Logarithmic
        }
    } else if gamma < 3.0 {
        DiameterClass::UltraSmall
    } else {
        DiameterClass::Logarithmic
    })
}

/// Predicted diameter (up to a multiplicative constant) for a network of `nodes` nodes in
/// the given [`DiameterClass`]; used to compare measured growth rates against Table I.
pub fn predicted_diameter(class: DiameterClass, nodes: usize) -> f64 {
    let n = (nodes.max(3)) as f64;
    match class {
        DiameterClass::UltraSmall => n.ln().ln(),
        DiameterClass::LogOverLogLog => n.ln() / n.ln().ln(),
        DiameterClass::Logarithmic => n.ln(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dorogovtsev_cutoff_matches_formula() {
        let k = natural_cutoff_dorogovtsev(10_000, 2, 3.0).unwrap();
        assert!(
            (k - 200.0).abs() < 1e-9,
            "m sqrt(N) = 2 * 100 = 200, got {k}"
        );
        let pa = pa_natural_cutoff(10_000, 2).unwrap();
        assert!((pa - k).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(natural_cutoff_dorogovtsev(0, 1, 2.5).is_err());
        assert!(natural_cutoff_dorogovtsev(10, 1, 1.0).is_err());
        assert!(natural_cutoff_dorogovtsev(10, 1, f64::NAN).is_err());
        assert!(natural_cutoff_dorogovtsev(10, 0, 2.5).is_err());
        assert!(diameter_class(2.5, 0).is_err());
        assert!(diameter_class(1.9, 1).is_err());
    }

    #[test]
    fn diameter_classes_follow_table_one() {
        assert_eq!(diameter_class(2.2, 1).unwrap(), DiameterClass::UltraSmall);
        assert_eq!(diameter_class(2.6, 3).unwrap(), DiameterClass::UltraSmall);
        assert_eq!(
            diameter_class(3.0, 2).unwrap(),
            DiameterClass::LogOverLogLog
        );
        assert_eq!(diameter_class(3.0, 1).unwrap(), DiameterClass::Logarithmic);
        assert_eq!(diameter_class(3.5, 2).unwrap(), DiameterClass::Logarithmic);
    }

    #[test]
    fn predicted_diameters_are_ordered() {
        let n = 100_000;
        let ultra = predicted_diameter(DiameterClass::UltraSmall, n);
        let middle = predicted_diameter(DiameterClass::LogOverLogLog, n);
        let log = predicted_diameter(DiameterClass::Logarithmic, n);
        assert!(
            ultra < middle && middle < log,
            "{ultra} < {middle} < {log} expected"
        );
    }
}
