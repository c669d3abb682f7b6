//! Growing network with initial attractiveness (Dorogovtsev-Mendes-Samukhin model).
//!
//! The paper's Configuration Model experiments sweep the degree exponent `γ` over
//! `{2.2, 2.6, 3.0}` by *prescribing* a degree sequence, which requires global information.
//! The initial-attractiveness model provides a *growing* alternative with a tunable
//! exponent: a new node attaches to node `i` with probability proportional to `k_i + a`,
//! where `a > -m` is the initial attractiveness. The stationary degree distribution is a
//! power law with exponent
//!
//! ```text
//! γ = 3 + a / m
//! ```
//!
//! so `a = 0` recovers Barabási-Albert (`γ = 3`), negative `a` yields the `2 < γ < 3`
//! ultra-small regime the paper's Table I highlights, and positive `a` yields `γ > 3`.
//! Combined with the hard-cutoff semantics of this crate it gives a second, growth-based
//! route to the exponent/cutoff trade-off studied in Figs. 1(c) and 4(g).

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{generators::complete_graph, Graph, NodeId};

/// Default number of candidate draws per stub before the generator falls back to a direct
/// weighted scan over all eligible nodes.
pub(crate) const DEFAULT_MAX_ATTEMPTS: usize = 10_000;

/// Builder/configuration for the initial-attractiveness growing-network generator.
///
/// # Example
///
/// ```
/// use sfo_core::{InitialAttractiveness, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// // a = -1 with m = 2 targets gamma = 2.5, inside the ultra-small regime.
/// let generator = InitialAttractiveness::new(500, 2, -1.0)?;
/// assert!((generator.predicted_gamma() - 2.5).abs() < 1e-12);
/// let graph = generator.with_cutoff(DegreeCutoff::hard(40)).generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InitialAttractiveness {
    nodes: usize,
    stubs: StubCount,
    attractiveness: f64,
    cutoff: DegreeCutoff,
    max_attempts: usize,
}

impl InitialAttractiveness {
    /// Creates a configuration for `nodes` nodes, `m` stubs per joining node, and initial
    /// attractiveness `a`, with no hard cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero, `nodes < m + 2`, or
    /// `a <= -m` (the attachment kernel must stay positive for every attainable degree).
    pub fn new(nodes: usize, m: usize, a: f64) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < m + 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "initial-attractiveness model needs at least m + 2 nodes",
            });
        }
        if !a.is_finite() || a <= -(m as f64) {
            return Err(TopologyError::InvalidConfig {
                reason: "initial attractiveness must be finite and greater than -m",
            });
        }
        Ok(InitialAttractiveness {
            nodes,
            stubs,
            attractiveness: a,
            cutoff: DegreeCutoff::Unbounded,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Creates a configuration that targets the asymptotic degree exponent `gamma` using
    /// the relation `a = (gamma - 3) · m`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if the implied attractiveness is not
    /// admissible (`gamma <= 2`) or the size/stub constraints are violated.
    pub fn with_target_gamma(nodes: usize, m: usize, gamma: f64) -> Result<Self> {
        if !gamma.is_finite() || gamma <= 2.0 {
            return Err(TopologyError::InvalidConfig {
                reason: "target gamma must be finite and greater than 2",
            });
        }
        let a = (gamma - 3.0) * m as f64;
        InitialAttractiveness::new(nodes, m, a)
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the rejection-sampling attempt budget per stub.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Returns the initial attractiveness `a`.
    pub fn attractiveness(&self) -> f64 {
        self.attractiveness
    }

    /// Returns the asymptotic degree exponent `γ = 3 + a / m` the configuration targets.
    pub fn predicted_gamma(&self) -> f64 {
        3.0 + self.attractiveness / self.stubs.get() as f64
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

    fn kernel(&self, degree: usize) -> f64 {
        degree as f64 + self.attractiveness
    }

    /// Generates one topology with the `k + a` attachment kernel.
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
                    None => break,
                };
                graph.add_edge(new_node, target)?;
            }
        }
        Ok(graph)
    }

    fn pick_rejection<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        new_node: NodeId,
        existing: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        let max_degree = (0..existing)
            .map(NodeId::new)
            .filter(|&n| n != new_node)
            .map(|n| graph.degree(n))
            .max()?;
        let max_kernel = self.kernel(max_degree);
        if max_kernel <= 0.0 {
            return None;
        }
        for _ in 0..self.max_attempts {
            let candidate = NodeId::new(rng.gen_range(0..existing));
            if candidate == new_node {
                continue;
            }
            let k = graph.degree(candidate);
            if !self.cutoff.admits(k) || graph.contains_edge(new_node, candidate) {
                continue;
            }
            let weight = self.kernel(k);
            if weight <= 0.0 {
                continue;
            }
            let accept: f64 = rng.gen();
            if accept < weight / max_kernel {
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
            .map(|n| (n, self.kernel(graph.degree(n)).max(f64::MIN_POSITIVE)))
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

impl TopologyGenerator for InitialAttractiveness {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        InitialAttractiveness::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "DMS"
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
        assert!(InitialAttractiveness::new(100, 0, 0.0).is_err());
        assert!(InitialAttractiveness::new(3, 2, 0.0).is_err());
        assert!(InitialAttractiveness::new(100, 2, -2.0).is_err());
        assert!(InitialAttractiveness::new(100, 2, -2.5).is_err());
        assert!(InitialAttractiveness::new(100, 2, f64::INFINITY).is_err());
        assert!(InitialAttractiveness::new(100, 2, -1.5).is_ok());
        assert!(InitialAttractiveness::with_target_gamma(100, 2, 2.0).is_err());
        assert!(InitialAttractiveness::with_target_gamma(100, 2, 2.5).is_ok());
        let bad_cutoff = InitialAttractiveness::new(100, 3, 0.0)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(2))
            .generate(&mut rng(0));
        assert!(matches!(
            bad_cutoff,
            Err(TopologyError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn gamma_mapping_round_trips() {
        for gamma in [2.2, 2.6, 3.0, 3.5] {
            let gen = InitialAttractiveness::with_target_gamma(200, 2, gamma).unwrap();
            assert!(
                (gen.predicted_gamma() - gamma).abs() < 1e-12,
                "gamma {gamma} round-trips through a = (gamma - 3) m"
            );
        }
        assert!(
            (InitialAttractiveness::new(200, 2, 0.0)
                .unwrap()
                .predicted_gamma()
                - 3.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn generates_requested_size_and_stays_connected() {
        for a in [-1.0, 0.0, 2.0] {
            let g = InitialAttractiveness::new(400, 2, a)
                .unwrap()
                .generate(&mut rng(1))
                .unwrap();
            assert_eq!(g.node_count(), 400, "a={a}");
            assert!(g.min_degree().unwrap() >= 2, "a={a}");
            assert!(traversal::is_connected(&g), "a={a}");
            g.assert_consistent();
        }
    }

    #[test]
    fn hard_cutoff_is_never_exceeded() {
        let g = InitialAttractiveness::new(800, 2, -1.0)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(12))
            .generate(&mut rng(3))
            .unwrap();
        assert!(g.max_degree().unwrap() <= 12);
    }

    #[test]
    fn negative_attractiveness_grows_larger_hubs() {
        // Smaller gamma (negative a) means heavier tails: the largest hub should exceed the
        // one grown with strongly positive a on the same node count and seed.
        let heavy = InitialAttractiveness::new(2_000, 2, -1.5)
            .unwrap()
            .generate(&mut rng(5))
            .unwrap();
        let light = InitialAttractiveness::new(2_000, 2, 6.0)
            .unwrap()
            .generate(&mut rng(5))
            .unwrap();
        assert!(
            heavy.max_degree().unwrap() > light.max_degree().unwrap(),
            "gamma=2.25 hub {} should exceed gamma=6 hub {}",
            heavy.max_degree().unwrap(),
            light.max_degree().unwrap()
        );
    }

    #[test]
    fn zero_attractiveness_is_heavy_tailed_like_pa() {
        let g = InitialAttractiveness::new(2_000, 1, 0.0)
            .unwrap()
            .generate(&mut rng(7))
            .unwrap();
        assert!(g.max_degree().unwrap() as f64 > 5.0 * g.average_degree());
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> =
            Box::new(InitialAttractiveness::new(60, 1, 0.5).unwrap());
        assert_eq!(gen.name(), "DMS");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 60);
        let g = gen.generate(&mut rng(9)).unwrap();
        assert_eq!(g.node_count(), 60);
    }

    #[test]
    fn accessors_report_configuration() {
        let gen = InitialAttractiveness::new(100, 3, 1.5)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(14))
            .with_max_attempts(0);
        assert_eq!(gen.stubs(), 3);
        assert_eq!(gen.cutoff(), DegreeCutoff::hard(14));
        assert!((gen.attractiveness() - 1.5).abs() < 1e-12);
        assert!((gen.predicted_gamma() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = InitialAttractiveness::new(300, 2, -0.5)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(30));
        let a = gen.generate(&mut rng(41)).unwrap();
        let b = gen.generate(&mut rng(41)).unwrap();
        assert_eq!(a, b);
    }
}
