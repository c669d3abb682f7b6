//! Nonlinear preferential attachment (paper §III-C, refs. \[52, 53\]).
//!
//! The paper motivates the Configuration Model by noting that "modified PA models such as
//! nonlinear preferential attachment \[52\], \[53\] ... have been proposed" to obtain power-law
//! networks whose exponent differs from the Barabási-Albert value `γ = 3`. This module
//! implements that family: a growing network in which a new node attaches to an existing
//! node `i` with probability proportional to `k_i^α`.
//!
//! * `α = 1` recovers linear preferential attachment (the PA model of [`crate::pa`]).
//! * `α < 1` (*sublinear* kernel) produces a stretched-exponential degree distribution:
//!   hubs are suppressed even without a hard cutoff.
//! * `α > 1` (*superlinear* kernel) produces gelation: a single node acquires a finite
//!   fraction of all links, an extreme version of the super-hub problem hard cutoffs are
//!   designed to prevent.
//!
//! The generator supports the same hard-cutoff semantics as the other mechanisms in this
//! crate, which is exactly the combination the paper's discussion motivates: a superlinear
//! kernel with a hard cutoff spreads the would-be super-hub's links over many peers.

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{generators::complete_graph, Graph, NodeId};

/// Default number of candidate draws per stub before the generator falls back to a direct
/// weighted scan over all eligible nodes.
pub(crate) const DEFAULT_MAX_ATTEMPTS: usize = 10_000;

/// Builder/configuration for the nonlinear preferential-attachment generator.
///
/// The attachment kernel is `Π(k) ∝ k^α`; see the module documentation for how the
/// exponent `α` shapes the resulting topology.
///
/// # Example
///
/// ```
/// use sfo_core::{NonlinearPreferentialAttachment, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let graph = NonlinearPreferentialAttachment::new(400, 2, 0.5)?
///     .with_cutoff(DegreeCutoff::hard(20))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 400);
/// assert!(graph.max_degree().unwrap() <= 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NonlinearPreferentialAttachment {
    nodes: usize,
    stubs: StubCount,
    alpha: f64,
    cutoff: DegreeCutoff,
    max_attempts: usize,
}

impl NonlinearPreferentialAttachment {
    /// Creates a nonlinear-PA configuration for `nodes` nodes, `m` stubs per joining node,
    /// and kernel exponent `alpha`, with no hard cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero, `nodes < m + 2`, or `alpha`
    /// is negative or not finite.
    pub fn new(nodes: usize, m: usize, alpha: f64) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < m + 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "nonlinear pa needs at least m + 2 nodes",
            });
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(TopologyError::InvalidConfig {
                reason: "nonlinear pa kernel exponent alpha must be finite and non-negative",
            });
        }
        Ok(NonlinearPreferentialAttachment {
            nodes,
            stubs,
            alpha,
            cutoff: DegreeCutoff::Unbounded,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the number of rejected draws per stub tolerated before the generator scans all
    /// eligible nodes directly.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Returns the configured kernel exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns the configured hard cutoff.
    pub fn cutoff(&self) -> DegreeCutoff {
        self.cutoff
    }

    /// Returns the configured number of stubs `m`.
    pub fn stubs(&self) -> usize {
        self.stubs.get()
    }

    fn validate(&self) -> Result<()> {
        if let Some(k_c) = self.cutoff.value() {
            if k_c < self.stubs.get() {
                return Err(TopologyError::InvalidConfig {
                    reason: "hard cutoff is smaller than the stub count m",
                });
            }
        }
        Ok(())
    }

    /// Generates one topology with the `k^α` attachment kernel.
    ///
    /// The implementation uses rejection sampling against the current maximum kernel
    /// weight: draw a uniform candidate, accept it with probability
    /// `(k_candidate / k_max)^α`. This is exact for any `α ≥ 0` and never needs the global
    /// normalization constant, so its cost per accepted edge stays modest even for strongly
    /// superlinear kernels.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] for inconsistent configurations.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph> {
        self.validate()?;
        let m = self.stubs.get();
        let seed_size = m + 1;
        let mut graph = complete_graph(seed_size)?;
        graph.add_nodes(self.nodes - seed_size);

        for i in seed_size..self.nodes {
            let new_node = NodeId::new(i);
            for _ in 0..m {
                let target = self
                    .pick_rejection(&graph, new_node, i, rng)
                    .or_else(|| self.fallback_weighted_scan(&graph, new_node, i, rng));
                let target = match target {
                    Some(t) => t,
                    None => break, // every existing node is saturated or already linked
                };
                graph.add_edge(new_node, target)?;
            }
        }
        Ok(graph)
    }

    fn kernel(&self, degree: usize) -> f64 {
        (degree as f64).powf(self.alpha)
    }

    fn pick_rejection<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        new_node: NodeId,
        existing: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        // The maximum eligible degree bounds the kernel, so acceptance probabilities stay
        // in [0, 1]. Recomputing it per stub is O(existing), which is dominated by the
        // rejection loop for the sizes this workspace targets.
        let max_degree = (0..existing)
            .map(NodeId::new)
            .filter(|&n| n != new_node)
            .map(|n| graph.degree(n))
            .max()?;
        if max_degree == 0 {
            return None;
        }
        let max_kernel = self.kernel(max_degree);
        for _ in 0..self.max_attempts {
            let candidate = NodeId::new(rng.gen_range(0..existing));
            if candidate == new_node {
                continue;
            }
            let k = graph.degree(candidate);
            if !self.cutoff.admits(k) || graph.contains_edge(new_node, candidate) {
                continue;
            }
            let accept: f64 = rng.gen();
            if accept < self.kernel(k) / max_kernel {
                return Some(candidate);
            }
        }
        None
    }

    fn fallback_weighted_scan<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        new_node: NodeId,
        existing: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        let eligible: Vec<(NodeId, f64)> = (0..existing)
            .map(NodeId::new)
            .filter(|&n| {
                n != new_node
                    && self.cutoff.admits(graph.degree(n))
                    && !graph.contains_edge(new_node, n)
            })
            .map(|n| (n, self.kernel(graph.degree(n).max(1))))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let total: f64 = eligible.iter().map(|(_, w)| w).sum();
        let mut pick = rng.gen::<f64>() * total;
        for (node, weight) in &eligible {
            if pick < *weight {
                return Some(*node);
            }
            pick -= weight;
        }
        Some(eligible.last().expect("eligible list is non-empty").0)
    }
}

impl TopologyGenerator for NonlinearPreferentialAttachment {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        NonlinearPreferentialAttachment::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "NLPA"
    }

    fn target_nodes(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::traversal;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn configuration_validation() {
        assert!(NonlinearPreferentialAttachment::new(100, 0, 1.0).is_err());
        assert!(NonlinearPreferentialAttachment::new(3, 2, 1.0).is_err());
        assert!(NonlinearPreferentialAttachment::new(100, 2, -0.5).is_err());
        assert!(NonlinearPreferentialAttachment::new(100, 2, f64::NAN).is_err());
        assert!(NonlinearPreferentialAttachment::new(100, 2, 0.0).is_ok());
        let bad_cutoff = NonlinearPreferentialAttachment::new(100, 3, 1.0)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(2))
            .generate(&mut rng(0));
        assert!(matches!(
            bad_cutoff,
            Err(TopologyError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn generates_requested_size_and_stays_connected() {
        for alpha in [0.0, 0.5, 1.0, 1.5] {
            let g = NonlinearPreferentialAttachment::new(400, 2, alpha)
                .unwrap()
                .generate(&mut rng(1))
                .unwrap();
            assert_eq!(g.node_count(), 400, "alpha={alpha}");
            assert!(g.min_degree().unwrap() >= 2, "alpha={alpha}");
            assert!(traversal::is_connected(&g), "alpha={alpha}");
            g.assert_consistent();
        }
    }

    #[test]
    fn hard_cutoff_is_never_exceeded() {
        for alpha in [0.5, 1.0, 2.0] {
            let g = NonlinearPreferentialAttachment::new(800, 2, alpha)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(12))
                .generate(&mut rng(3))
                .unwrap();
            assert!(g.max_degree().unwrap() <= 12, "alpha={alpha}");
        }
    }

    #[test]
    fn sublinear_kernel_suppresses_hubs() {
        // A sublinear kernel yields a stretched-exponential tail: the largest hub should be
        // much smaller than under the superlinear kernel on the same number of nodes.
        let sub = NonlinearPreferentialAttachment::new(2_000, 1, 0.3)
            .unwrap()
            .generate(&mut rng(5))
            .unwrap();
        let supr = NonlinearPreferentialAttachment::new(2_000, 1, 1.8)
            .unwrap()
            .generate(&mut rng(5))
            .unwrap();
        assert!(
            supr.max_degree().unwrap() > 3 * sub.max_degree().unwrap(),
            "superlinear hub {} should dwarf sublinear hub {}",
            supr.max_degree().unwrap(),
            sub.max_degree().unwrap()
        );
    }

    #[test]
    fn superlinear_kernel_gelates_toward_a_super_hub() {
        // With a strongly superlinear kernel a single node should capture a finite fraction
        // of all links (the gelation phenomenon).
        let g = NonlinearPreferentialAttachment::new(1_500, 1, 2.5)
            .unwrap()
            .generate(&mut rng(7))
            .unwrap();
        let max = g.max_degree().unwrap();
        assert!(
            max as f64 > 0.3 * g.node_count() as f64,
            "expected a super-hub, got max degree {max} on {} nodes",
            g.node_count()
        );
    }

    #[test]
    fn alpha_one_behaves_like_linear_pa() {
        // Not a distributional test, just a sanity check that the kernel at alpha = 1 still
        // produces a heavy-tailed, connected network of the right size.
        let g = NonlinearPreferentialAttachment::new(2_000, 1, 1.0)
            .unwrap()
            .generate(&mut rng(11))
            .unwrap();
        assert!(g.max_degree().unwrap() as f64 > 5.0 * g.average_degree());
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn uniform_kernel_alpha_zero_has_light_tail() {
        // alpha = 0 is uniform random attachment; its maximum degree grows only
        // logarithmically, so it should stay well below the linear-PA hub size.
        let uniform = NonlinearPreferentialAttachment::new(2_000, 1, 0.0)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        let linear = NonlinearPreferentialAttachment::new(2_000, 1, 1.0)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        assert!(uniform.max_degree().unwrap() < linear.max_degree().unwrap());
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> =
            Box::new(NonlinearPreferentialAttachment::new(60, 1, 1.2).unwrap());
        assert_eq!(gen.name(), "NLPA");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 60);
        let g = gen.generate(&mut rng(17)).unwrap();
        assert_eq!(g.node_count(), 60);
    }

    #[test]
    fn accessors_report_configuration() {
        let gen = NonlinearPreferentialAttachment::new(100, 3, 0.8)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(15))
            .with_max_attempts(0);
        assert_eq!(gen.stubs(), 3);
        assert_eq!(gen.cutoff(), DegreeCutoff::hard(15));
        assert!((gen.alpha() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = NonlinearPreferentialAttachment::new(300, 2, 1.3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(25));
        let a = gen.generate(&mut rng(41)).unwrap();
        let b = gen.generate(&mut rng(41)).unwrap();
        assert_eq!(a, b);
    }
}
