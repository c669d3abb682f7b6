//! Fitness-based preferential attachment (paper §III-C, refs. \[54, 55\]).
//!
//! The paper lists "fitness models \[54\], \[55\]" among the modified preferential-attachment
//! mechanisms that yield power-law networks with exponents other than `γ = 3`. In the
//! Bianconi-Barabási formulation every node `i` carries an intrinsic *fitness* `η_i` drawn
//! from a fixed distribution when it joins, and a new node attaches to `i` with probability
//! proportional to `η_i · k_i`. Fitter nodes acquire links faster than their age alone
//! would allow ("fit get richer"), which models heterogeneous peers — well-provisioned,
//! long-lived peers versus casual ones — in an unstructured P2P overlay.
//!
//! With a uniform fitness distribution the degree distribution remains a power law with a
//! logarithmic correction; with a single-valued (degenerate) distribution the model reduces
//! exactly to linear preferential attachment. As with every other generator in this crate,
//! an optional hard cutoff `k_c` caps the degree any peer will accept.

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{generators::complete_graph, Graph, NodeId};

/// Default number of candidate draws per stub before the generator falls back to a direct
/// weighted scan over all eligible nodes.
pub(crate) const DEFAULT_MAX_ATTEMPTS: usize = 10_000;

/// Distribution the per-node fitness values are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FitnessDistribution {
    /// Every node has the same fitness; the model reduces to linear preferential
    /// attachment.
    Uniform,
    /// Fitness drawn uniformly at random from `[min, max]`.
    UniformRange {
        /// Lower bound of the fitness interval (must be positive).
        min: f64,
        /// Upper bound of the fitness interval.
        max: f64,
    },
    /// Fitness drawn from an exponential distribution with the given rate; produces a
    /// small population of much-fitter-than-average peers.
    Exponential {
        /// Rate parameter `λ` of the exponential distribution (must be positive).
        rate: f64,
    },
}

impl FitnessDistribution {
    fn validate(&self) -> Result<()> {
        match *self {
            FitnessDistribution::Uniform => Ok(()),
            FitnessDistribution::UniformRange { min, max } => {
                if !(min.is_finite() && max.is_finite()) || min <= 0.0 || max < min {
                    Err(TopologyError::InvalidConfig {
                        reason: "fitness range must satisfy 0 < min <= max and be finite",
                    })
                } else {
                    Ok(())
                }
            }
            FitnessDistribution::Exponential { rate } => {
                if !rate.is_finite() || rate <= 0.0 {
                    Err(TopologyError::InvalidConfig {
                        reason: "fitness exponential rate must be positive and finite",
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            FitnessDistribution::Uniform => 1.0,
            FitnessDistribution::UniformRange { min, max } => {
                if max == min {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
            FitnessDistribution::Exponential { rate } => {
                // Inverse-CDF sampling, shifted away from exactly zero so every node keeps a
                // nonzero chance of attracting links.
                let u: f64 = gen_open_unit(rng);
                -u.ln() / rate
            }
        }
    }
}

/// Draws a uniform sample from the open interval (0, 1], so the exponential sampler never
/// takes the logarithm of zero.
fn gen_open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

/// Builder/configuration for the fitness-model generator.
///
/// # Example
///
/// ```
/// use sfo_core::{fitness::{FitnessDistribution, FitnessModel}, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let graph = FitnessModel::new(500, 2)?
///     .with_distribution(FitnessDistribution::UniformRange { min: 0.1, max: 1.0 })
///     .with_cutoff(DegreeCutoff::hard(30))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 500);
/// assert!(graph.max_degree().unwrap() <= 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessModel {
    nodes: usize,
    stubs: StubCount,
    distribution: FitnessDistribution,
    cutoff: DegreeCutoff,
    max_attempts: usize,
}

impl FitnessModel {
    /// Creates a fitness-model configuration for `nodes` nodes and `m` stubs per joining
    /// node, with uniform (degenerate) fitness and no hard cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero or `nodes < m + 2`.
    pub fn new(nodes: usize, m: usize) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < m + 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "fitness model needs at least m + 2 nodes",
            });
        }
        Ok(FitnessModel {
            nodes,
            stubs,
            distribution: FitnessDistribution::Uniform,
            cutoff: DegreeCutoff::Unbounded,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Sets the fitness distribution.
    pub fn with_distribution(mut self, distribution: FitnessDistribution) -> Self {
        self.distribution = distribution;
        self
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

    /// Returns the configured fitness distribution.
    pub fn distribution(&self) -> FitnessDistribution {
        self.distribution
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
        self.distribution.validate()?;
        if let Some(k_c) = self.cutoff.value() {
            if k_c < self.stubs.get() {
                return Err(TopologyError::InvalidConfig {
                    reason: "hard cutoff is smaller than the stub count m",
                });
            }
        }
        Ok(())
    }

    /// Generates one topology and returns it together with the fitness assigned to every
    /// node (indexed by node id).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] for inconsistent configurations.
    pub fn generate_with_fitness<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<(Graph, Vec<f64>)> {
        self.validate()?;
        let m = self.stubs.get();
        let seed_size = m + 1;
        let mut graph = complete_graph(seed_size)?;
        graph.add_nodes(self.nodes - seed_size);

        let mut fitness: Vec<f64> = (0..self.nodes)
            .map(|_| self.distribution.sample(rng))
            .collect();
        // Guard against pathological zero fitness (possible only through float underflow).
        for f in &mut fitness {
            if *f <= 0.0 {
                *f = f64::MIN_POSITIVE;
            }
        }

        for i in seed_size..self.nodes {
            let new_node = NodeId::new(i);
            for _ in 0..m {
                let target = self
                    .pick_rejection(&graph, &fitness, new_node, i, rng)
                    .or_else(|| self.fallback_weighted_scan(&graph, &fitness, new_node, i, rng));
                let target = match target {
                    Some(t) => t,
                    None => break,
                };
                graph.add_edge(new_node, target)?;
            }
        }
        Ok((graph, fitness))
    }

    /// Generates one topology, discarding the fitness values.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] for inconsistent configurations.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph> {
        self.generate_with_fitness(rng).map(|(graph, _)| graph)
    }

    fn pick_rejection<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        fitness: &[f64],
        new_node: NodeId,
        existing: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        let max_weight = (0..existing)
            .map(NodeId::new)
            .filter(|&n| n != new_node)
            .map(|n| fitness[n.index()] * graph.degree(n) as f64)
            .fold(0.0f64, f64::max);
        if max_weight <= 0.0 {
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
            let weight = fitness[candidate.index()] * k as f64;
            let accept: f64 = rng.gen();
            if accept < weight / max_weight {
                return Some(candidate);
            }
        }
        None
    }

    fn fallback_weighted_scan<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        fitness: &[f64],
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
            .map(|n| (n, fitness[n.index()] * graph.degree(n).max(1) as f64))
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

impl TopologyGenerator for FitnessModel {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        FitnessModel::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "Fitness"
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
        assert!(FitnessModel::new(100, 0).is_err());
        assert!(FitnessModel::new(3, 2).is_err());
        let bad_range = FitnessModel::new(100, 2)
            .unwrap()
            .with_distribution(FitnessDistribution::UniformRange { min: 0.0, max: 1.0 })
            .generate(&mut rng(0));
        assert!(bad_range.is_err());
        let inverted_range = FitnessModel::new(100, 2)
            .unwrap()
            .with_distribution(FitnessDistribution::UniformRange { min: 2.0, max: 1.0 })
            .generate(&mut rng(0));
        assert!(inverted_range.is_err());
        let bad_rate = FitnessModel::new(100, 2)
            .unwrap()
            .with_distribution(FitnessDistribution::Exponential { rate: 0.0 })
            .generate(&mut rng(0));
        assert!(bad_rate.is_err());
        let bad_cutoff = FitnessModel::new(100, 3)
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
        for dist in [
            FitnessDistribution::Uniform,
            FitnessDistribution::UniformRange { min: 0.1, max: 1.0 },
            FitnessDistribution::Exponential { rate: 1.0 },
        ] {
            let g = FitnessModel::new(400, 2)
                .unwrap()
                .with_distribution(dist)
                .generate(&mut rng(1))
                .unwrap();
            assert_eq!(g.node_count(), 400, "{dist:?}");
            assert!(g.min_degree().unwrap() >= 2, "{dist:?}");
            assert!(traversal::is_connected(&g), "{dist:?}");
            g.assert_consistent();
        }
    }

    #[test]
    fn hard_cutoff_is_never_exceeded() {
        let g = FitnessModel::new(800, 2)
            .unwrap()
            .with_distribution(FitnessDistribution::Exponential { rate: 0.5 })
            .with_cutoff(DegreeCutoff::hard(15))
            .generate(&mut rng(3))
            .unwrap();
        assert!(g.max_degree().unwrap() <= 15);
    }

    #[test]
    fn fitness_vector_has_one_entry_per_node() {
        let (g, fitness) = FitnessModel::new(300, 1)
            .unwrap()
            .with_distribution(FitnessDistribution::UniformRange { min: 0.2, max: 0.9 })
            .generate_with_fitness(&mut rng(5))
            .unwrap();
        assert_eq!(fitness.len(), g.node_count());
        assert!(fitness.iter().all(|&f| (0.2..=0.9).contains(&f)));
    }

    #[test]
    fn fitter_nodes_attract_more_links_on_average() {
        // Split the nodes into a high-fitness and a low-fitness half (excluding the seed)
        // and check that the high-fitness half holds more degree in total.
        let (g, fitness) = FitnessModel::new(2_000, 1)
            .unwrap()
            .with_distribution(FitnessDistribution::UniformRange {
                min: 0.05,
                max: 1.0,
            })
            .generate_with_fitness(&mut rng(7))
            .unwrap();
        let mut high = 0usize;
        let mut low = 0usize;
        for (i, &f) in fitness.iter().enumerate() {
            if i < 2 {
                continue; // skip the seed nodes, whose age advantage dominates
            }
            let degree = g.degree(NodeId::new(i));
            if f > 0.525 {
                high += degree;
            } else {
                low += degree;
            }
        }
        assert!(
            high > low,
            "high-fitness half should hold more total degree ({high} vs {low})"
        );
    }

    #[test]
    fn degenerate_fitness_is_heavy_tailed_like_pa() {
        let g = FitnessModel::new(2_000, 1)
            .unwrap()
            .generate(&mut rng(11))
            .unwrap();
        assert!(g.max_degree().unwrap() as f64 > 5.0 * g.average_degree());
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> = Box::new(FitnessModel::new(60, 1).unwrap());
        assert_eq!(gen.name(), "Fitness");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 60);
        let g = gen.generate(&mut rng(13)).unwrap();
        assert_eq!(g.node_count(), 60);
    }

    #[test]
    fn accessors_report_configuration() {
        let gen = FitnessModel::new(100, 3)
            .unwrap()
            .with_distribution(FitnessDistribution::Exponential { rate: 2.0 })
            .with_cutoff(DegreeCutoff::hard(9))
            .with_max_attempts(0);
        assert_eq!(gen.stubs(), 3);
        assert_eq!(gen.cutoff(), DegreeCutoff::hard(9));
        assert_eq!(
            gen.distribution(),
            FitnessDistribution::Exponential { rate: 2.0 }
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = FitnessModel::new(300, 2)
            .unwrap()
            .with_distribution(FitnessDistribution::UniformRange { min: 0.1, max: 1.0 })
            .with_cutoff(DegreeCutoff::hard(25));
        let a = gen.generate(&mut rng(41)).unwrap();
        let b = gen.generate(&mut rng(41)).unwrap();
        assert_eq!(a, b);
    }
}
