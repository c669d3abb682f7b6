//! Preferential Attachment (PA) with hard cutoffs (paper, Alg. 1 and §III-B).
//!
//! The network grows one node at a time from a fully connected seed of `m + 1` nodes. Each
//! new node fills `m` stubs by attaching to existing nodes with probability proportional to
//! their current degree, *rejecting* any candidate that is already a neighbor or whose
//! degree has reached the hard cutoff `k_c`. Without a cutoff this is the Barabási-Albert
//! model with degree exponent `γ = 3`; with a binding cutoff the distribution keeps a
//! power-law body, accumulates a spike at `k = k_c`, and its fitted exponent decreases as
//! the cutoff shrinks (paper, Fig. 1).

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{CsrGraph, Graph, NodeId};

/// Default number of candidate draws per stub before the generator falls back to scanning
/// for an eligible node directly.
pub const DEFAULT_MAX_ATTEMPTS: usize = 10_000;

/// Builder/configuration for the preferential-attachment generator.
///
/// # Example
///
/// ```
/// use sfo_core::{pa::PreferentialAttachment, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let graph = PreferentialAttachment::new(500, 3)?
///     .with_cutoff(DegreeCutoff::hard(40))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 500);
/// assert!(graph.max_degree().unwrap() <= 40);
/// assert!(graph.min_degree().unwrap() >= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreferentialAttachment {
    nodes: usize,
    stubs: StubCount,
    cutoff: DegreeCutoff,
    max_attempts: usize,
}

impl PreferentialAttachment {
    /// Creates a PA configuration for `nodes` nodes with `m` stubs per joining node and no
    /// hard cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero or `nodes < m + 2` (the
    /// seed network of `m + 1` fully connected nodes plus at least one joining node).
    pub fn new(nodes: usize, m: usize) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < m + 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "pa needs at least m + 2 nodes (seed of m + 1 plus one joining node)",
            });
        }
        Ok(PreferentialAttachment {
            nodes,
            stubs,
            cutoff: DegreeCutoff::Unbounded,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the number of rejected draws per stub tolerated before falling back to a direct
    /// scan for an eligible target.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
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

    /// Generates one PA topology as a mutable graph: [`Self::generate_frozen`], thawed.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] for inconsistent configurations (for
    /// example a cutoff below `m`).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph> {
        Ok(self.generate_frozen(rng)?.thaw())
    }

    /// Generates one PA topology straight into CSR form.
    ///
    /// The draw loop keeps only compact state: a degree per node, the joining node's
    /// row (at most `m` entries, and all of its neighbors while it joins), a stub list
    /// and the edges in insertion order, seed clique first. [`CsrGraph::from_edges`]
    /// turns the edges into exactly the rows adding them to a [`Graph`] would grow.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] for inconsistent configurations (for
    /// example a cutoff below `m`).
    pub fn generate_frozen<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CsrGraph> {
        self.validate()?;
        let m = self.stubs.get();
        let seed_size = m + 1;
        let mut degree = vec![0u32; self.nodes];
        degree[..seed_size].fill(m as u32);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m * self.nodes);
        for a in 0..seed_size as u32 {
            for b in a + 1..seed_size as u32 {
                edges.push((a, b));
            }
        }

        // Stub list: node id repeated once per unit of degree, so a uniform draw is
        // degree-proportional.
        let mut stub_list: Vec<u32> = Vec::with_capacity(2 * m * self.nodes);
        for node in 0..seed_size as u32 {
            stub_list.extend(std::iter::repeat_n(node, m));
        }

        let mut row: Vec<u32> = Vec::with_capacity(m);
        for i in seed_size..self.nodes {
            let new_node = NodeId::new(i).as_u32();
            row.clear();
            for _ in 0..m {
                let target = match self
                    .pick_via_stub_list(&stub_list, &degree, &row, new_node, rng)
                    .or_else(|| self.fallback_eligible_target(&degree[..i], &row, rng))
                {
                    Some(t) => t,
                    None => break, // every existing node is saturated or already linked
                };
                row.push(target);
                degree[i] += 1;
                degree[target as usize] += 1;
                edges.push((new_node, target));
                stub_list.push(new_node);
                stub_list.push(target);
            }
        }
        // Free the draw state before the CSR arrays are allocated: the stub list alone
        // is as large as `targets`.
        drop((stub_list, degree));
        Ok(CsrGraph::from_edges(self.nodes, &edges))
    }

    /// Degree-proportional draw from the stub list, rejecting the joining node itself,
    /// saturated nodes and nodes already in its `row`.
    fn pick_via_stub_list<R: Rng + ?Sized>(
        &self,
        stub_list: &[u32],
        degree: &[u32],
        row: &[u32],
        new_node: u32,
        rng: &mut R,
    ) -> Option<u32> {
        debug_assert!(!stub_list.is_empty());
        for _ in 0..self.max_attempts {
            let candidate = stub_list[rng.gen_range(0..stub_list.len())];
            if candidate != new_node
                && self.cutoff.admits(degree[candidate as usize] as usize)
                && !row.contains(&candidate)
            {
                return Some(candidate);
            }
        }
        None
    }

    /// Degree-weighted draw (weight `max(k, 1)`) over the existing nodes that are still
    /// eligible, used when rejection sampling exceeded its attempt budget (possible only
    /// for very restrictive cutoffs). `existing` holds the degrees of the nodes that
    /// joined before the current one.
    fn fallback_eligible_target<R: Rng + ?Sized>(
        &self,
        existing: &[u32],
        row: &[u32],
        rng: &mut R,
    ) -> Option<u32> {
        let eligible = || {
            (0u32..)
                .zip(existing)
                .filter(|&(n, &k)| self.cutoff.admits(k as usize) && !row.contains(&n))
                .map(|(n, &k)| (n, k.max(1) as usize))
        };
        let total: usize = eligible().map(|(_, w)| w).sum();
        if total == 0 {
            return None;
        }
        let mut pick = rng.gen_range(0..total);
        for (node, weight) in eligible() {
            if pick < weight {
                return Some(node);
            }
            pick -= weight;
        }
        unreachable!("weighted pick is bounded by the total weight")
    }
}

impl TopologyGenerator for PreferentialAttachment {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        PreferentialAttachment::generate(self, rng)
    }

    fn generate_frozen(&self, rng: &mut dyn RngCore) -> Result<CsrGraph> {
        PreferentialAttachment::generate_frozen(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "PA"
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
        assert!(PreferentialAttachment::new(100, 0).is_err());
        assert!(PreferentialAttachment::new(3, 2).is_err());
        assert!(PreferentialAttachment::new(4, 2).is_ok());
        let bad_cutoff = PreferentialAttachment::new(100, 3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(2))
            .generate(&mut rng(0));
        assert!(matches!(
            bad_cutoff,
            Err(TopologyError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn generates_requested_size_and_edge_count() {
        let m = 2;
        let n = 500;
        let g = PreferentialAttachment::new(n, m)
            .unwrap()
            .generate(&mut rng(1))
            .unwrap();
        assert_eq!(g.node_count(), n);
        // Seed contributes m(m+1)/2 edges, every other node contributes m.
        let expected_edges = m * (m + 1) / 2 + (n - (m + 1)) * m;
        assert_eq!(g.edge_count(), expected_edges);
        g.assert_consistent();
    }

    #[test]
    fn minimum_degree_equals_m() {
        for m in [1usize, 2, 3] {
            let g = PreferentialAttachment::new(400, m)
                .unwrap()
                .generate(&mut rng(7))
                .unwrap();
            assert!(
                g.min_degree().unwrap() >= m,
                "m={m}: min degree {} below m",
                g.min_degree().unwrap()
            );
        }
    }

    #[test]
    fn generated_network_is_connected_for_m_at_least_one() {
        let g = PreferentialAttachment::new(600, 1)
            .unwrap()
            .generate(&mut rng(3))
            .unwrap();
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn m_equals_one_without_cutoff_is_a_tree() {
        let g = PreferentialAttachment::new(300, 1)
            .unwrap()
            .generate(&mut rng(11))
            .unwrap();
        assert_eq!(
            g.edge_count(),
            g.node_count() - 1,
            "BA with m=1 is a scale-free tree"
        );
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn hard_cutoff_is_never_exceeded() {
        for k_c in [5usize, 10, 40] {
            let g = PreferentialAttachment::new(1_000, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(k_c))
                .generate(&mut rng(13))
                .unwrap();
            assert!(g.max_degree().unwrap() <= k_c, "cutoff {k_c} violated");
        }
    }

    #[test]
    fn without_cutoff_hubs_exceed_hard_cutoff_levels() {
        let g = PreferentialAttachment::new(2_000, 2)
            .unwrap()
            .generate(&mut rng(17))
            .unwrap();
        assert!(
            g.max_degree().unwrap() > 40,
            "an unbounded PA run of this size should grow hubs beyond 40, got {}",
            g.max_degree().unwrap()
        );
    }

    #[test]
    fn cutoff_accumulates_nodes_at_the_cutoff_value() {
        // Paper, Fig. 1(b): the histogram has a spike at k = k_c.
        let k_c = 10;
        let g = PreferentialAttachment::new(3_000, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(k_c))
            .generate(&mut rng(19))
            .unwrap();
        let hist = sfo_graph::degree_histogram(&g);
        assert!(
            hist.count(k_c) > hist.count(k_c - 1),
            "expected accumulation at the cutoff: count({k_c})={} vs count({})={}",
            hist.count(k_c),
            k_c - 1,
            hist.count(k_c - 1)
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        // The fraction of degree-m nodes should dominate, and the maximum degree should be
        // far above the mean - a crude but robust scale-freeness check.
        let g = PreferentialAttachment::new(5_000, 1)
            .unwrap()
            .generate(&mut rng(29))
            .unwrap();
        let hist = sfo_graph::degree_histogram(&g);
        assert!(hist.fraction(1) > 0.5);
        assert!(g.max_degree().unwrap() as f64 > 5.0 * g.average_degree());
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> = Box::new(PreferentialAttachment::new(50, 1).unwrap());
        assert_eq!(gen.name(), "PA");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 50);
        let mut r = rng(31);
        let g = gen.generate(&mut r).unwrap();
        assert_eq!(g.node_count(), 50);
    }

    #[test]
    fn accessors_report_configuration() {
        let pa = PreferentialAttachment::new(100, 3)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(12))
            .with_max_attempts(0);
        assert_eq!(pa.cutoff(), DegreeCutoff::hard(12));
        assert_eq!(pa.stubs(), 3);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = PreferentialAttachment::new(300, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(30));
        let a = gen.generate(&mut rng(99)).unwrap();
        let b = gen.generate(&mut rng(99)).unwrap();
        assert_eq!(a, b);
    }
}
