//! Hop-and-Attempt Preferential Attachment (HAPA) (paper, Alg. 3 and §IV-A).
//!
//! HAPA is the paper's first practical mechanism: a joining node picks one random existing
//! node and *attempts* to connect using the preferential-attachment acceptance rule
//! (`rnd < k_node / k_total`, degree below the cutoff, not already linked), then keeps
//! *hopping* across existing links — moving to a random neighbor of the current node and
//! attempting again — until all `m` stubs are filled.
//!
//! Hopping finds hubs far more often than uniform sampling does (a random link is
//! degree-biased), so without a hard cutoff the topology collapses into a star-like
//! structure around a few super-hubs whose degree is on the order of the system size
//! (paper, Fig. 3(a)). A hard cutoff destroys the star and yields a distribution close to a
//! power law with exponent near 3 (Figs. 3(b,c)).
//!
//! HAPA still needs one piece of global information — the total degree `k_total` used in
//! the acceptance probability — which is why the paper classifies it as *partially* local
//! (Table II).

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{generators::complete_graph, Graph, NodeId};

/// Default hop budget per stub before the generator falls back to a uniform eligible
/// target. The expected number of hops per accepted link is on the order of
/// `k_total / k_hub`, so the default is generous for the network sizes used in the paper.
pub(crate) const DEFAULT_MAX_HOPS_PER_STUB: usize = 100_000;

/// Builder/configuration for the HAPA generator.
///
/// # Example
///
/// ```
/// use sfo_core::{HopAndAttempt, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let graph = HopAndAttempt::new(500, 2)?
///     .with_cutoff(DegreeCutoff::hard(30))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 500);
/// assert!(graph.max_degree().unwrap() <= 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopAndAttempt {
    nodes: usize,
    stubs: StubCount,
    cutoff: DegreeCutoff,
    max_hops_per_stub: usize,
}

impl HopAndAttempt {
    /// Creates a HAPA configuration for `nodes` nodes with `m` stubs per joining node and
    /// no hard cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero or `nodes < m + 2`.
    pub fn new(nodes: usize, m: usize) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < m + 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "hapa needs at least m + 2 nodes (seed of m + 1 plus one joining node)",
            });
        }
        Ok(HopAndAttempt {
            nodes,
            stubs,
            cutoff: DegreeCutoff::Unbounded,
            max_hops_per_stub: DEFAULT_MAX_HOPS_PER_STUB,
        })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the hop budget per stub before falling back to a uniform eligible target.
    pub fn with_max_hops_per_stub(mut self, hops: usize) -> Self {
        self.max_hops_per_stub = hops.max(1);
        self
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

    /// Generates one HAPA topology.
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
        let mut k_total = seed_size * m; // total degree of the seed clique

        for i in seed_size..self.nodes {
            let new_node = NodeId::new(i);
            let mut filled = 0usize;

            // Initial attempt from a uniformly random existing node (Alg. 3, lines 3-7).
            let first = NodeId::new(rng.gen_range(0..i));
            if self.attempt(&graph, new_node, first, k_total, rng) {
                graph.add_edge(new_node, first)?;
                k_total += 2;
                filled += 1;
            }

            // Hop along existing links until the stubs are filled (Alg. 3, lines 8-15).
            // The paper restarts the walk at the new node itself; when the current node has
            // no usable links (the new node before its first success) we re-seed the walk
            // with a uniformly random existing node instead, which the pseudo-code leaves
            // implicit.
            let mut current = if filled > 0 { new_node } else { first };
            let mut hops_left = self.max_hops_per_stub.saturating_mul(m);
            while filled < m {
                if hops_left == 0 {
                    match self.fallback_eligible_target(&graph, new_node, i, rng) {
                        Some(target) => {
                            graph.add_edge(new_node, target)?;
                            k_total += 2;
                            filled += 1;
                            continue;
                        }
                        None => break, // every existing node saturated or already linked
                    }
                }
                hops_left -= 1;
                current = if graph.degree(current) == 0 {
                    NodeId::new(rng.gen_range(0..i))
                } else {
                    let neighbors = graph.neighbors(current);
                    neighbors[rng.gen_range(0..neighbors.len())]
                };
                if current != new_node && self.attempt(&graph, new_node, current, k_total, rng) {
                    graph.add_edge(new_node, current)?;
                    k_total += 2;
                    filled += 1;
                }
            }
        }
        Ok(graph)
    }

    /// The attempt condition of Alg. 3 lines 4 and 11: not already linked, under the
    /// cutoff, and accepted with probability `k_node / k_total`.
    fn attempt<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        new_node: NodeId,
        candidate: NodeId,
        k_total: usize,
        rng: &mut R,
    ) -> bool {
        if candidate == new_node || graph.contains_edge(new_node, candidate) {
            return false;
        }
        let k = graph.degree(candidate);
        if !self.cutoff.admits(k) {
            return false;
        }
        rng.gen::<f64>() < k as f64 / k_total as f64
    }

    fn fallback_eligible_target<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        new_node: NodeId,
        existing: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        let eligible: Vec<NodeId> = (0..existing)
            .map(NodeId::new)
            .filter(|&n| {
                n != new_node
                    && self.cutoff.admits(graph.degree(n))
                    && !graph.contains_edge(new_node, n)
            })
            .collect();
        if eligible.is_empty() {
            None
        } else {
            Some(eligible[rng.gen_range(0..eligible.len())])
        }
    }
}

impl TopologyGenerator for HopAndAttempt {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        HopAndAttempt::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Partial
    }

    fn name(&self) -> &'static str {
        "HAPA"
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
        assert!(HopAndAttempt::new(100, 0).is_err());
        assert!(HopAndAttempt::new(3, 2).is_err());
        let bad = HopAndAttempt::new(100, 3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(2))
            .generate(&mut rng(0));
        assert!(bad.is_err());
    }

    #[test]
    fn generates_requested_size_and_min_degree() {
        for m in [1usize, 2, 3] {
            let g = HopAndAttempt::new(400, m)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(50))
                .generate(&mut rng(1))
                .unwrap();
            assert_eq!(g.node_count(), 400);
            assert!(g.min_degree().unwrap() >= m, "m={m}");
            assert!(traversal::is_connected(&g), "m={m}");
            g.assert_consistent();
        }
    }

    #[test]
    fn hard_cutoff_is_never_exceeded() {
        for k_c in [10usize, 40] {
            let g = HopAndAttempt::new(800, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(k_c))
                .generate(&mut rng(3))
                .unwrap();
            assert!(g.max_degree().unwrap() <= k_c);
        }
    }

    #[test]
    fn without_cutoff_super_hubs_emerge() {
        // Paper, Fig. 3(a): hopping concentrates links on a few super-hubs whose degree is
        // on the order of the system size, producing a star-like topology.
        let n = 1_500;
        let g = HopAndAttempt::new(n, 1)
            .unwrap()
            .generate(&mut rng(7))
            .unwrap();
        let max = g.max_degree().unwrap();
        assert!(
            max > n / 4,
            "expected a super-hub with degree on the order of the system size, got {max} of {n}"
        );
    }

    #[test]
    fn cutoff_destroys_the_star_topology() {
        let n = 1_500;
        let star = HopAndAttempt::new(n, 1)
            .unwrap()
            .generate(&mut rng(11))
            .unwrap();
        let capped = HopAndAttempt::new(n, 1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(10))
            .generate(&mut rng(11))
            .unwrap();
        assert!(capped.max_degree().unwrap() <= 10);
        assert!(star.max_degree().unwrap() > capped.max_degree().unwrap() * 10);
        // Destroying the star spreads links: the average shortest path grows.
        let star_stats = sfo_graph::path_statistics_sampled(&star, 30, &mut rng(1));
        let capped_stats = sfo_graph::path_statistics_sampled(&capped, 30, &mut rng(1));
        assert!(capped_stats.average_shortest_path > star_stats.average_shortest_path);
    }

    #[test]
    fn hapa_without_cutoff_has_smaller_diameter_than_pa() {
        // Paper, §IV-A: the star-like HAPA topology has a very small average shortest path
        // compared to PA.
        let n = 1_000;
        let hapa = HopAndAttempt::new(n, 1)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        let pa = crate::pa::PreferentialAttachment::new(n, 1)
            .unwrap()
            .generate(&mut rng(13))
            .unwrap();
        let hapa_stats = sfo_graph::path_statistics_sampled(&hapa, 30, &mut rng(2));
        let pa_stats = sfo_graph::path_statistics_sampled(&pa, 30, &mut rng(2));
        assert!(
            hapa_stats.average_shortest_path < pa_stats.average_shortest_path,
            "hapa {} should beat pa {}",
            hapa_stats.average_shortest_path,
            pa_stats.average_shortest_path
        );
    }

    #[test]
    fn tiny_hop_budget_still_fills_stubs_via_fallback() {
        let g = HopAndAttempt::new(200, 3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(20))
            .with_max_hops_per_stub(0)
            .generate(&mut rng(17))
            .unwrap();
        assert_eq!(g.node_count(), 200);
        assert!(g.min_degree().unwrap() >= 3);
        assert!(g.max_degree().unwrap() <= 20);
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> = Box::new(HopAndAttempt::new(60, 1).unwrap());
        assert_eq!(gen.name(), "HAPA");
        assert_eq!(gen.locality(), Locality::Partial);
        assert_eq!(gen.target_nodes(), 60);
        let g = gen.generate(&mut rng(19)).unwrap();
        assert_eq!(g.node_count(), 60);
    }

    #[test]
    fn accessors_report_configuration() {
        let hapa = HopAndAttempt::new(100, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(15));
        assert_eq!(hapa.cutoff(), DegreeCutoff::hard(15));
        assert_eq!(hapa.stubs(), 2);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = HopAndAttempt::new(300, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(30));
        assert_eq!(
            gen.generate(&mut rng(23)).unwrap(),
            gen.generate(&mut rng(23)).unwrap()
        );
    }
}
