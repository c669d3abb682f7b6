//! Configuration Model (CM) with a bounded power-law degree sequence (paper, Alg. 2 and
//! §III-C).
//!
//! The CM generates an uncorrelated random network with a *prescribed* degree distribution:
//! each node is assigned a target degree drawn from `P(k) ∝ k^{-γ}` on `[m, k_c]`, all stubs
//! are paired uniformly at random, and finally self-loops and parallel edges are deleted.
//! Because the degree sequence is fixed in advance, the fitted exponent does not drift with
//! the cutoff (unlike PA, DAPA); the only distortion is the marginal one caused by deleting
//! the discrepancies, which also pushes a negligible number of nodes below the minimum
//! degree `m` (paper, Fig. 2). For `m = 1` the resulting network is almost surely
//! disconnected, the cause of the flooding ceiling observed in Fig. 7.

use crate::powerlaw::{support_for, BoundedPowerLaw};
use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{Graph, MultiGraph, NodeId, SimplifyReport};

/// Outcome of a configuration-model run, including what the simplification step removed.
#[derive(Debug, Clone, PartialEq)]
pub struct CmOutcome {
    /// The simple graph after deleting self-loops and parallel edges.
    pub graph: Graph,
    /// The degree sequence that was targeted before wiring.
    pub target_degrees: Vec<usize>,
    /// What the simplification step discarded.
    pub simplify: SimplifyReport,
}

/// Builder/configuration for the configuration model.
///
/// # Example
///
/// ```
/// use sfo_core::{ConfigurationModel, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let graph = ConfigurationModel::new(1_000, 2.6, 2)?
///     .with_cutoff(DegreeCutoff::hard(40))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 1_000);
/// assert!(graph.max_degree().unwrap() <= 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationModel {
    nodes: usize,
    gamma: f64,
    stubs: StubCount,
    cutoff: DegreeCutoff,
}

impl ConfigurationModel {
    /// Creates a CM configuration for `nodes` nodes, target exponent `gamma`, and minimum
    /// degree `m`, with no hard cutoff (so the support extends to `N - 1`, the paper's
    /// `k_c = N` convention).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `nodes < 2`, `m` is zero, or `gamma` is
    /// not finite and positive.
    pub fn new(nodes: usize, gamma: f64, m: usize) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "cm needs at least two nodes",
            });
        }
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(TopologyError::InvalidConfig {
                reason: "power-law exponent gamma must be finite and positive",
            });
        }
        Ok(ConfigurationModel {
            nodes,
            gamma,
            stubs,
            cutoff: DegreeCutoff::Unbounded,
        })
    }

    /// Sets the hard cutoff `k_c`, truncating the degree-sequence support to `[m, k_c]`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Returns the configured hard cutoff.
    pub fn cutoff(&self) -> DegreeCutoff {
        self.cutoff
    }

    /// Returns the target power-law exponent.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Returns the minimum degree `m`.
    pub fn stubs(&self) -> usize {
        self.stubs.get()
    }

    /// Generates one CM topology, returning only the simplified graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] when the cutoff leaves an empty degree
    /// support (`k_c < m`).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph> {
        Ok(self.generate_with_report(rng)?.graph)
    }

    /// Generates one CM topology, returning the graph together with the target degree
    /// sequence and the simplification report.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] when the cutoff leaves an empty degree
    /// support (`k_c < m`).
    pub fn generate_with_report<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CmOutcome> {
        let (k_min, k_max) = support_for(self.nodes, self.stubs.get(), self.cutoff)?;
        let law = BoundedPowerLaw::new(self.gamma, k_min, k_max)?;
        let target_degrees = law.sample_even_sequence(self.nodes, rng);

        // Build the stub list: node i appears target_degrees[i] times.
        let mut stubs: Vec<NodeId> = Vec::with_capacity(target_degrees.iter().sum());
        for (i, &k) in target_degrees.iter().enumerate() {
            stubs.extend(std::iter::repeat_n(NodeId::new(i), k));
        }
        stubs.shuffle(rng);

        // Pair consecutive stubs; a shuffled list paired sequentially is a uniform perfect
        // matching of the stubs, which is exactly the configuration model's wiring step.
        let mut multigraph = MultiGraph::with_nodes(self.nodes);
        for pair in stubs.chunks_exact(2) {
            multigraph.add_edge(pair[0], pair[1])?;
        }

        let (graph, simplify) = multigraph.into_simple();
        Ok(CmOutcome {
            graph,
            target_degrees,
            simplify,
        })
    }
}

impl TopologyGenerator for ConfigurationModel {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        ConfigurationModel::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "CM"
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
        assert!(ConfigurationModel::new(1, 2.5, 1).is_err());
        assert!(ConfigurationModel::new(100, 0.0, 1).is_err());
        assert!(ConfigurationModel::new(100, f64::INFINITY, 1).is_err());
        assert!(ConfigurationModel::new(100, 2.5, 0).is_err());
        let too_tight = ConfigurationModel::new(100, 2.5, 5)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(3))
            .generate(&mut rng(0));
        assert!(too_tight.is_err());
    }

    #[test]
    fn generates_requested_node_count() {
        let g = ConfigurationModel::new(2_000, 2.6, 2)
            .unwrap()
            .generate(&mut rng(1))
            .unwrap();
        assert_eq!(g.node_count(), 2_000);
        g.assert_consistent();
    }

    #[test]
    fn hard_cutoff_bounds_every_degree() {
        let outcome = ConfigurationModel::new(2_000, 2.2, 1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(40))
            .generate_with_report(&mut rng(3))
            .unwrap();
        assert!(outcome
            .target_degrees
            .iter()
            .all(|&k| (1..=40).contains(&k)));
        assert!(outcome.graph.max_degree().unwrap() <= 40);
    }

    #[test]
    fn target_degree_sum_is_even_and_close_to_realized() {
        let outcome = ConfigurationModel::new(3_000, 3.0, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(50))
            .generate_with_report(&mut rng(5))
            .unwrap();
        let target_sum: usize = outcome.target_degrees.iter().sum();
        assert_eq!(target_sum % 2, 0);
        let realized_sum = outcome.graph.total_degree();
        let removed =
            2 * (outcome.simplify.self_loops_removed + outcome.simplify.parallel_edges_removed);
        assert_eq!(realized_sum + removed, target_sum);
        // The paper notes the error from deleting discrepancies is marginal.
        assert!(
            (target_sum - realized_sum) as f64 / target_sum as f64 <= 0.05,
            "more than 5% of stubs lost to simplification"
        );
    }

    #[test]
    fn smaller_cutoffs_cause_fewer_discrepancies() {
        // Paper, §IV-C: harder (smaller) cutoffs decrease the probability of self-loops and
        // multiple connections.
        let loose = ConfigurationModel::new(2_000, 2.2, 1)
            .unwrap()
            .generate_with_report(&mut rng(7))
            .unwrap();
        let tight = ConfigurationModel::new(2_000, 2.2, 1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(10))
            .generate_with_report(&mut rng(7))
            .unwrap();
        let loose_bad = loose.simplify.self_loops_removed + loose.simplify.parallel_edges_removed;
        let tight_bad = tight.simplify.self_loops_removed + tight.simplify.parallel_edges_removed;
        assert!(
            tight_bad <= loose_bad,
            "expected fewer discrepancies with a hard cutoff ({tight_bad} > {loose_bad})"
        );
    }

    #[test]
    fn simplification_can_push_nodes_below_m() {
        // Paper, Fig. 2: deleting self-loops/multi-edges leaves a negligible number of nodes
        // with degree below m (even zero). We only check that the fraction is small.
        let outcome = ConfigurationModel::new(3_000, 2.2, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(40))
            .generate_with_report(&mut rng(11))
            .unwrap();
        let below_m = outcome.graph.degrees().iter().filter(|&&k| k < 2).count();
        assert!(
            (below_m as f64) < 0.05 * outcome.graph.node_count() as f64,
            "{below_m} nodes below m is not negligible"
        );
    }

    #[test]
    fn m1_networks_are_disconnected_m3_networks_have_giant_component() {
        // Paper, §III-C: CM with m=1 has disconnected clusters; for m>1 the network is
        // almost surely dominated by one giant component.
        let g1 = ConfigurationModel::new(2_000, 2.6, 1)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        let g3 = ConfigurationModel::new(2_000, 2.6, 3)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        assert!(!traversal::is_connected(&g1));
        assert!(traversal::giant_component_fraction(&g1) < 0.95);
        assert!(traversal::giant_component_fraction(&g3) > 0.95);
    }

    #[test]
    fn realized_distribution_tracks_target_exponent() {
        // Heavier tails (smaller gamma) should give a larger maximum degree.
        let g_22 = ConfigurationModel::new(3_000, 2.2, 1)
            .unwrap()
            .generate(&mut rng(17))
            .unwrap();
        let g_30 = ConfigurationModel::new(3_000, 3.0, 1)
            .unwrap()
            .generate(&mut rng(17))
            .unwrap();
        assert!(
            g_22.max_degree().unwrap() > g_30.max_degree().unwrap(),
            "gamma=2.2 should have a heavier tail than gamma=3.0"
        );
        let hist = sfo_graph::degree_histogram(&g_30);
        assert!(
            hist.fraction(1) > 0.4,
            "most nodes should sit at the minimum degree"
        );
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> = Box::new(
            ConfigurationModel::new(300, 2.6, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(30)),
        );
        assert_eq!(gen.name(), "CM");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 300);
        let g = gen.generate(&mut rng(19)).unwrap();
        assert_eq!(g.node_count(), 300);
    }

    #[test]
    fn accessors_report_configuration() {
        let cm = ConfigurationModel::new(500, 2.4, 3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(25));
        assert_eq!(cm.gamma(), 2.4);
        assert_eq!(cm.stubs(), 3);
        assert_eq!(cm.cutoff(), DegreeCutoff::hard(25));
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = ConfigurationModel::new(800, 2.6, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(40));
        let a = gen.generate(&mut rng(42)).unwrap();
        let b = gen.generate(&mut rng(42)).unwrap();
        assert_eq!(a, b);
    }
}
