//! Uncorrelated Configuration Model (UCM) with the structural cutoff (paper ref. \[59\]).
//!
//! The paper's configuration-model discussion cites Catanzaro, Boguñá & Pastor-Satorras
//! \[59\] for the observation that wiring a heavy-tailed degree sequence whose maximum degree
//! exceeds the *structural cutoff* `k_s ∼ √(⟨k⟩ N)` necessarily creates degree correlations
//! or multi-edges. The UCM avoids both by (i) truncating the degree-sequence support at
//! `√N` and (ii) wiring stubs by *rejection*: a candidate pair is discarded (and redrawn)
//! whenever it would create a self-loop or a parallel edge, instead of being deleted
//! afterwards. The result is a genuinely uncorrelated simple power-law network whose degree
//! sequence is realized exactly (no stub loss), the cleanest "optimal" baseline against
//! which the cutoff-carrying generators can be compared.
//!
//! A hard cutoff below the structural cutoff simply narrows the support further, which is
//! the regime the paper operates in ("we work with hard cutoff values typically less than
//! the natural cutoff").

use crate::powerlaw::BoundedPowerLaw;
use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{Graph, NodeId};

/// Default number of times the wiring phase restarts from a fresh shuffle before giving up
/// on placing the remaining stubs and dropping them.
pub(crate) const DEFAULT_MAX_RESTARTS: usize = 50;

/// Outcome of a UCM run.
#[derive(Debug, Clone, PartialEq)]
pub struct UcmOutcome {
    /// The generated simple graph.
    pub graph: Graph,
    /// The degree sequence that was targeted before wiring.
    pub target_degrees: Vec<usize>,
    /// Stubs that could not be wired without creating a self-loop or parallel edge after
    /// the restart budget was exhausted (dropped in pairs; usually zero).
    pub unplaced_stubs: usize,
    /// Number of wiring restarts that were needed.
    pub restarts: usize,
}

/// Builder/configuration for the uncorrelated configuration model.
///
/// # Example
///
/// ```
/// use sfo_core::{UncorrelatedConfigurationModel, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let graph = UncorrelatedConfigurationModel::new(1_000, 2.6, 2)?
///     .with_cutoff(DegreeCutoff::hard(20))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 1_000);
/// assert!(graph.max_degree().unwrap() <= 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UncorrelatedConfigurationModel {
    nodes: usize,
    gamma: f64,
    stubs: StubCount,
    cutoff: DegreeCutoff,
    max_restarts: usize,
}

impl UncorrelatedConfigurationModel {
    /// Creates a UCM configuration for `nodes` nodes, target exponent `gamma`, and minimum
    /// degree `m`. Without a hard cutoff the degree support is capped at the structural
    /// cutoff `⌊√N⌋`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `nodes < 4`, `m` is zero, or `gamma` is
    /// not finite and positive.
    pub fn new(nodes: usize, gamma: f64, m: usize) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < 4 {
            return Err(TopologyError::InvalidConfig {
                reason: "ucm needs at least four nodes",
            });
        }
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(TopologyError::InvalidConfig {
                reason: "power-law exponent gamma must be finite and positive",
            });
        }
        Ok(UncorrelatedConfigurationModel {
            nodes,
            gamma,
            stubs,
            cutoff: DegreeCutoff::Unbounded,
            max_restarts: DEFAULT_MAX_RESTARTS,
        })
    }

    /// Sets the hard cutoff `k_c`. The effective support becomes `[m, min(k_c, √N)]`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the number of wiring restarts tolerated before remaining stubs are dropped.
    pub fn with_max_restarts(mut self, max_restarts: usize) -> Self {
        self.max_restarts = max_restarts.max(1);
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

    /// Returns the structural cutoff `⌊√N⌋` for the configured size.
    pub fn structural_cutoff(&self) -> usize {
        (self.nodes as f64).sqrt().floor() as usize
    }

    /// Returns the effective degree-support bounds `[k_min, k_max]` after combining the
    /// minimum degree, the structural cutoff, and any hard cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if the support is empty (`k_max < m`).
    pub fn support(&self) -> Result<(usize, usize)> {
        let structural = self.structural_cutoff().max(1);
        let k_max = match self.cutoff.value() {
            Some(k_c) => k_c.min(structural),
            None => structural,
        };
        let k_min = self.stubs.get();
        if k_max < k_min {
            return Err(TopologyError::InvalidConfig {
                reason: "degree support is empty: cutoff (or structural cutoff) is below m",
            });
        }
        Ok((k_min, k_max))
    }

    /// Generates one UCM topology, returning only the graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] when the support is empty.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph> {
        Ok(self.generate_with_report(rng)?.graph)
    }

    /// Generates one UCM topology together with its wiring report.
    ///
    /// The wiring phase shuffles the stub list and pairs stubs greedily, skipping any pair
    /// that would create a self-loop or parallel edge; skipped stubs are re-shuffled and
    /// retried up to the restart budget. In the uncorrelated regime (support below the
    /// structural cutoff) the expected number of skipped stubs is `O(1)`, so virtually every
    /// run realizes the target degree sequence exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] when the support is empty.
    pub fn generate_with_report<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<UcmOutcome> {
        let (k_min, k_max) = self.support()?;
        let law = BoundedPowerLaw::new(self.gamma, k_min, k_max)?;
        let target_degrees = law.sample_even_sequence(self.nodes, rng);

        let mut graph = Graph::with_nodes(self.nodes);
        let mut pending: Vec<NodeId> = Vec::with_capacity(target_degrees.iter().sum());
        for (i, &k) in target_degrees.iter().enumerate() {
            pending.extend(std::iter::repeat_n(NodeId::new(i), k));
        }

        let mut restarts = 0usize;
        while !pending.is_empty() && restarts < self.max_restarts {
            pending.shuffle(rng);
            let mut leftover: Vec<NodeId> = Vec::new();
            let mut iter = pending.chunks_exact(2);
            for pair in &mut iter {
                let (a, b) = (pair[0], pair[1]);
                if a == b || graph.contains_edge(a, b) {
                    leftover.push(a);
                    leftover.push(b);
                } else {
                    graph.add_edge(a, b)?;
                }
            }
            leftover.extend_from_slice(iter.remainder());
            // No progress in a full pass means the leftover stubs are mutually unplaceable
            // (for example, two stubs of the same node); stop early rather than looping.
            if leftover.len() == pending.len() {
                pending = leftover;
                break;
            }
            pending = leftover;
            restarts += 1;
        }

        // Repair pass: the few stubs that cannot be paired directly (both belonging to the
        // same node, or to an already-linked pair) are resolved by degree-preserving edge
        // swaps — remove an existing edge (u, v) and add (a, u), (b, v) — which is the
        // standard way to realize a degree sequence exactly without biasing the wiring.
        if !pending.is_empty() {
            pending = Self::repair_by_edge_swaps(&mut graph, pending, rng)?;
        }

        Ok(UcmOutcome {
            graph,
            target_degrees,
            unplaced_stubs: pending.len(),
            restarts,
        })
    }
    /// Places the remaining `pending` stubs via degree-preserving edge swaps, returning any
    /// stubs that still could not be placed.
    fn repair_by_edge_swaps<R: Rng + ?Sized>(
        graph: &mut Graph,
        mut pending: Vec<NodeId>,
        rng: &mut R,
    ) -> Result<Vec<NodeId>> {
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let mut unplaced = Vec::new();
        while pending.len() >= 2 {
            let b = pending.pop().expect("length checked");
            let a = pending.pop().expect("length checked");
            let mut placed = false;
            if a != b && !graph.contains_edge(a, b) {
                graph.add_edge(a, b)?;
                edges.push((a, b));
                placed = true;
            } else {
                // Bounded number of swap attempts; each draws a random existing edge.
                for _ in 0..200 {
                    if edges.is_empty() {
                        break;
                    }
                    let idx = rng.gen_range(0..edges.len());
                    let (u, v) = edges[idx];
                    if u == a || u == b || v == a || v == b {
                        continue;
                    }
                    if graph.contains_edge(a, u) || graph.contains_edge(b, v) {
                        continue;
                    }
                    graph.remove_edge(u, v)?;
                    graph.add_edge(a, u)?;
                    graph.add_edge(b, v)?;
                    edges.swap_remove(idx);
                    edges.push((a, u));
                    edges.push((b, v));
                    placed = true;
                    break;
                }
            }
            if !placed {
                unplaced.push(a);
                unplaced.push(b);
            }
        }
        unplaced.extend(pending);
        Ok(unplaced)
    }
}

impl TopologyGenerator for UncorrelatedConfigurationModel {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        UncorrelatedConfigurationModel::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "UCM"
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
        assert!(UncorrelatedConfigurationModel::new(3, 2.5, 1).is_err());
        assert!(UncorrelatedConfigurationModel::new(100, 0.0, 1).is_err());
        assert!(UncorrelatedConfigurationModel::new(100, f64::NAN, 1).is_err());
        assert!(UncorrelatedConfigurationModel::new(100, 2.5, 0).is_err());
        // m larger than the structural cutoff sqrt(100) = 10 leaves an empty support.
        let too_tight = UncorrelatedConfigurationModel::new(100, 2.5, 20)
            .unwrap()
            .generate(&mut rng(0));
        assert!(too_tight.is_err());
        let cutoff_below_m = UncorrelatedConfigurationModel::new(400, 2.5, 5)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(3))
            .generate(&mut rng(0));
        assert!(cutoff_below_m.is_err());
    }

    #[test]
    fn support_respects_structural_and_hard_cutoffs() {
        let ucm = UncorrelatedConfigurationModel::new(2_500, 2.6, 2).unwrap();
        assert_eq!(ucm.structural_cutoff(), 50);
        assert_eq!(ucm.support().unwrap(), (2, 50));
        let capped = ucm.with_cutoff(DegreeCutoff::hard(10));
        assert_eq!(capped.support().unwrap(), (2, 10));
        let looser_than_structural = UncorrelatedConfigurationModel::new(2_500, 2.6, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(500));
        assert_eq!(looser_than_structural.support().unwrap(), (2, 50));
    }

    #[test]
    fn generates_requested_node_count_without_stub_loss() {
        let outcome = UncorrelatedConfigurationModel::new(2_000, 2.6, 2)
            .unwrap()
            .generate_with_report(&mut rng(1))
            .unwrap();
        assert_eq!(outcome.graph.node_count(), 2_000);
        assert_eq!(
            outcome.unplaced_stubs, 0,
            "uncorrelated regime should place every stub"
        );
        let target_sum: usize = outcome.target_degrees.iter().sum();
        assert_eq!(outcome.graph.total_degree(), target_sum);
        outcome.graph.assert_consistent();
    }

    #[test]
    fn realized_degrees_match_targets_exactly_when_no_stub_is_dropped() {
        let outcome = UncorrelatedConfigurationModel::new(1_500, 2.2, 1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(20))
            .generate_with_report(&mut rng(3))
            .unwrap();
        if outcome.unplaced_stubs == 0 {
            assert_eq!(outcome.graph.degrees(), outcome.target_degrees);
        } else {
            // Even with drops the realized degree can never exceed the target.
            for (realized, target) in outcome.graph.degrees().iter().zip(&outcome.target_degrees) {
                assert!(realized <= target);
            }
        }
    }

    #[test]
    fn hard_cutoff_bounds_every_degree() {
        let g = UncorrelatedConfigurationModel::new(2_000, 2.2, 1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(15))
            .generate(&mut rng(5))
            .unwrap();
        assert!(g.max_degree().unwrap() <= 15);
    }

    #[test]
    fn structural_cutoff_bounds_degrees_without_hard_cutoff() {
        let g = UncorrelatedConfigurationModel::new(2_500, 2.2, 1)
            .unwrap()
            .generate(&mut rng(7))
            .unwrap();
        assert!(
            g.max_degree().unwrap() <= 50,
            "structural cutoff sqrt(2500) = 50"
        );
    }

    #[test]
    fn m1_disconnected_m3_giant_component() {
        let g1 = UncorrelatedConfigurationModel::new(2_000, 2.6, 1)
            .unwrap()
            .generate(&mut rng(9))
            .unwrap();
        let g3 = UncorrelatedConfigurationModel::new(2_000, 2.6, 3)
            .unwrap()
            .generate(&mut rng(9))
            .unwrap();
        assert!(!traversal::is_connected(&g1));
        assert!(traversal::giant_component_fraction(&g3) > 0.95);
    }

    #[test]
    fn degree_correlations_are_weak() {
        // The whole point of the structural cutoff: assortativity should be close to zero.
        let g = UncorrelatedConfigurationModel::new(3_000, 2.5, 2)
            .unwrap()
            .generate(&mut rng(11))
            .unwrap();
        let r = sfo_graph::degree_assortativity(&g).unwrap();
        assert!(r.abs() < 0.1, "expected near-zero assortativity, got {r}");
    }

    #[test]
    fn heavier_tails_for_smaller_gamma() {
        let g_22 = UncorrelatedConfigurationModel::new(2_500, 2.2, 1)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        let g_30 = UncorrelatedConfigurationModel::new(2_500, 3.0, 1)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        assert!(g_22.max_degree().unwrap() >= g_30.max_degree().unwrap());
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> = Box::new(
            UncorrelatedConfigurationModel::new(300, 2.6, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(15)),
        );
        assert_eq!(gen.name(), "UCM");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 300);
        let g = gen.generate(&mut rng(15)).unwrap();
        assert_eq!(g.node_count(), 300);
    }

    #[test]
    fn accessors_report_configuration() {
        let ucm = UncorrelatedConfigurationModel::new(900, 2.4, 3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(25))
            .with_max_restarts(0);
        assert_eq!(ucm.gamma(), 2.4);
        assert_eq!(ucm.stubs(), 3);
        assert_eq!(ucm.cutoff(), DegreeCutoff::hard(25));
        assert_eq!(ucm.structural_cutoff(), 30);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = UncorrelatedConfigurationModel::new(800, 2.6, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(25));
        let a = gen.generate(&mut rng(42)).unwrap();
        let b = gen.generate(&mut rng(42)).unwrap();
        assert_eq!(a, b);
    }
}
