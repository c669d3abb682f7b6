//! Local-events growing network with edge addition and rewiring (paper §III-C, ref. \[7\]).
//!
//! The paper cites "dynamic edge-rewiring \[7\]" — the Albert-Barabási *local events* model —
//! as one of the modified preferential-attachment mechanisms that produce power-law degree
//! distributions with tunable exponents. The model evolves an initially sparse network by
//! repeating one of three local events at every time step:
//!
//! * with probability `p`, add `m` new links between existing nodes (one endpoint uniform,
//!   the other degree-preferential);
//! * with probability `q`, rewire `m` existing links (detach a uniformly chosen endpoint's
//!   link and re-attach it degree-preferentially);
//! * with probability `1 - p - q`, add a new node with `m` degree-preferential links.
//!
//! Depending on `(p, q, m)` the stationary degree distribution interpolates between an
//! exponential and a power law whose exponent ranges over `(2, ∞)`, which is exactly the
//! degree-exponent tuning knob the paper's Configuration Model experiments sweep. This
//! implementation adds the workspace's hard-cutoff semantics: no event ever pushes a node
//! past `k_c`.
//!
//! In preferential choices the model uses the shifted kernel `Π(k) ∝ k + 1` of the original
//! paper, so isolated nodes (possible after rewiring) can still attract links.

use crate::{DegreeCutoff, Locality, Result, StubCount, TopologyError, TopologyGenerator};
use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use sfo_graph::{generators::complete_graph, Graph, NodeId};

/// Default number of candidate draws per preferential choice before the event is skipped.
pub(crate) const DEFAULT_MAX_ATTEMPTS: usize = 2_000;

/// Builder/configuration for the local-events (add / rewire / grow) generator.
///
/// # Example
///
/// ```
/// use sfo_core::{LocalEventsModel, DegreeCutoff, TopologyGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sfo_core::TopologyError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let graph = LocalEventsModel::new(400, 2, 0.2, 0.2)?
///     .with_cutoff(DegreeCutoff::hard(25))
///     .generate(&mut rng)?;
/// assert_eq!(graph.node_count(), 400);
/// assert!(graph.max_degree().unwrap() <= 25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalEventsModel {
    nodes: usize,
    stubs: StubCount,
    p_add_links: f64,
    q_rewire: f64,
    cutoff: DegreeCutoff,
    max_attempts: usize,
}

impl LocalEventsModel {
    /// Creates a local-events configuration targeting `nodes` nodes, with `m` links per
    /// event, link-addition probability `p_add_links`, and rewiring probability `q_rewire`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] if `m` is zero, `nodes < m + 2`, either
    /// probability is outside `[0, 1)`, or their sum is not strictly below 1 (node-addition
    /// events must remain possible, otherwise the target size is unreachable).
    pub fn new(nodes: usize, m: usize, p_add_links: f64, q_rewire: f64) -> Result<Self> {
        let stubs = StubCount::try_from(m)?;
        if nodes < m + 2 {
            return Err(TopologyError::InvalidConfig {
                reason: "local-events model needs at least m + 2 nodes",
            });
        }
        let in_unit = |x: f64| x.is_finite() && (0.0..1.0).contains(&x);
        if !in_unit(p_add_links) || !in_unit(q_rewire) || p_add_links + q_rewire >= 1.0 {
            return Err(TopologyError::InvalidConfig {
                reason: "local-events probabilities must lie in [0, 1) with p + q < 1",
            });
        }
        Ok(LocalEventsModel {
            nodes,
            stubs,
            p_add_links,
            q_rewire,
            cutoff: DegreeCutoff::Unbounded,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        })
    }

    /// Sets the hard cutoff `k_c`.
    pub fn with_cutoff(mut self, cutoff: DegreeCutoff) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Sets the rejection-sampling attempt budget per preferential choice.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Returns the probability of a link-addition event.
    pub fn p_add_links(&self) -> f64 {
        self.p_add_links
    }

    /// Returns the probability of a rewiring event.
    pub fn q_rewire(&self) -> f64 {
        self.q_rewire
    }

    /// Returns the configured hard cutoff.
    pub fn cutoff(&self) -> DegreeCutoff {
        self.cutoff
    }

    /// Returns the configured number of links per event `m`.
    pub fn stubs(&self) -> usize {
        self.stubs.get()
    }

    fn validate(&self) -> Result<()> {
        if let Some(k_c) = self.cutoff.value() {
            if k_c < self.stubs.get() {
                return Err(TopologyError::InvalidConfig {
                    reason: "hard cutoff is smaller than the link count m",
                });
            }
        }
        Ok(())
    }

    /// Generates one topology by running local events until the network reaches the target
    /// node count.
    ///
    /// Link-addition and rewiring events do not change the node count, so the run length is
    /// random; the number of events is bounded in expectation by
    /// `nodes / (1 - p - q)`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidConfig`] for inconsistent configurations.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph> {
        self.validate()?;
        let m = self.stubs.get();
        let seed_size = m + 1;
        let mut graph = complete_graph(seed_size)?;

        while graph.node_count() < self.nodes {
            let roll: f64 = rng.gen();
            if roll < self.p_add_links {
                self.add_links_event(&mut graph, rng);
            } else if roll < self.p_add_links + self.q_rewire {
                self.rewire_event(&mut graph, rng);
            } else {
                self.add_node_event(&mut graph, rng)?;
            }
        }
        Ok(graph)
    }

    /// Event: add `m` links, each from a uniformly chosen node to a preferentially chosen
    /// node.
    fn add_links_event<R: Rng + ?Sized>(&self, graph: &mut Graph, rng: &mut R) {
        let m = self.stubs.get();
        for _ in 0..m {
            let n = graph.node_count();
            let from = NodeId::new(rng.gen_range(0..n));
            if !self.cutoff.admits(graph.degree(from)) {
                continue;
            }
            if let Some(to) = self.preferential_target(graph, from, rng) {
                let _ = graph.add_edge_if_absent(from, to);
            }
        }
    }

    /// Event: rewire `m` links. A uniformly chosen node detaches one of its links and
    /// re-attaches it to a preferentially chosen node.
    fn rewire_event<R: Rng + ?Sized>(&self, graph: &mut Graph, rng: &mut R) {
        let m = self.stubs.get();
        for _ in 0..m {
            let n = graph.node_count();
            let pivot = NodeId::new(rng.gen_range(0..n));
            if graph.degree(pivot) == 0 {
                continue;
            }
            let old_neighbor = graph.neighbors(pivot)[rng.gen_range(0..graph.degree(pivot))];
            if let Some(new_neighbor) = self.preferential_target(graph, pivot, rng) {
                if new_neighbor == old_neighbor {
                    continue;
                }
                // Detach first so the preferential target can be a node the pivot is not yet
                // linked to; `preferential_target` already excludes existing neighbors.
                graph
                    .remove_edge(pivot, old_neighbor)
                    .expect("old neighbor was drawn from the adjacency list");
                graph
                    .add_edge(pivot, new_neighbor)
                    .expect("target was verified unlinked and under the cutoff");
            }
        }
    }

    /// Event: add a new node with `m` preferential links.
    fn add_node_event<R: Rng + ?Sized>(&self, graph: &mut Graph, rng: &mut R) -> Result<()> {
        let m = self.stubs.get();
        let new_node = graph.add_node();
        for _ in 0..m {
            match self.preferential_target(graph, new_node, rng) {
                Some(target) => graph.add_edge(new_node, target)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Draws a node with probability proportional to `degree + 1`, excluding `exclude`, its
    /// current neighbors, and nodes at the hard cutoff. Returns `None` if the attempt
    /// budget runs out or no node is eligible.
    fn preferential_target<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        exclude: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        let n = graph.node_count();
        let max_weight = (graph.max_degree().unwrap_or(0) + 1) as f64;
        for _ in 0..self.max_attempts {
            let candidate = NodeId::new(rng.gen_range(0..n));
            if candidate == exclude {
                continue;
            }
            let k = graph.degree(candidate);
            if !self.cutoff.admits(k) || graph.contains_edge(exclude, candidate) {
                continue;
            }
            let accept: f64 = rng.gen();
            if accept < (k + 1) as f64 / max_weight {
                return Some(candidate);
            }
        }
        // Deterministic fallback: weighted scan over eligible nodes.
        let eligible: Vec<(NodeId, usize)> = (0..n)
            .map(NodeId::new)
            .filter(|&c| {
                c != exclude
                    && self.cutoff.admits(graph.degree(c))
                    && !graph.contains_edge(exclude, c)
            })
            .map(|c| (c, graph.degree(c) + 1))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let total: usize = eligible.iter().map(|(_, w)| w).sum();
        let mut pick = rng.gen_range(0..total);
        for (node, weight) in eligible {
            if pick < weight {
                return Some(node);
            }
            pick -= weight;
        }
        unreachable!("weighted pick is bounded by the total weight")
    }
}

impl TopologyGenerator for LocalEventsModel {
    fn generate(&self, rng: &mut dyn RngCore) -> Result<Graph> {
        LocalEventsModel::generate(self, rng)
    }

    fn locality(&self) -> Locality {
        Locality::Global
    }

    fn name(&self) -> &'static str {
        "LocalEvents"
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
        assert!(LocalEventsModel::new(100, 0, 0.1, 0.1).is_err());
        assert!(LocalEventsModel::new(3, 2, 0.1, 0.1).is_err());
        assert!(LocalEventsModel::new(100, 2, -0.1, 0.1).is_err());
        assert!(LocalEventsModel::new(100, 2, 0.6, 0.5).is_err());
        assert!(LocalEventsModel::new(100, 2, 0.5, 0.5).is_err());
        assert!(LocalEventsModel::new(100, 2, 1.0, 0.0).is_err());
        assert!(LocalEventsModel::new(100, 2, 0.3, 0.3).is_ok());
        let bad_cutoff = LocalEventsModel::new(100, 3, 0.1, 0.1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(2))
            .generate(&mut rng(0));
        assert!(matches!(
            bad_cutoff,
            Err(TopologyError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reaches_the_target_node_count() {
        for (p, q) in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.25, 0.25)] {
            let g = LocalEventsModel::new(500, 2, p, q)
                .unwrap()
                .generate(&mut rng(1))
                .unwrap();
            assert_eq!(g.node_count(), 500, "p={p}, q={q}");
            g.assert_consistent();
        }
    }

    #[test]
    fn pure_growth_is_connected_and_heavy_tailed() {
        // With p = q = 0 the model reduces to preferential attachment on the shifted kernel.
        let g = LocalEventsModel::new(1_500, 1, 0.0, 0.0)
            .unwrap()
            .generate(&mut rng(3))
            .unwrap();
        assert!(traversal::is_connected(&g));
        assert!(g.max_degree().unwrap() as f64 > 5.0 * g.average_degree());
    }

    #[test]
    fn hard_cutoff_is_never_exceeded() {
        for (p, q) in [(0.3, 0.0), (0.0, 0.3), (0.2, 0.2)] {
            let g = LocalEventsModel::new(800, 2, p, q)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(10))
                .generate(&mut rng(5))
                .unwrap();
            assert!(g.max_degree().unwrap() <= 10, "p={p}, q={q}");
        }
    }

    #[test]
    fn link_addition_raises_average_degree() {
        let grow_only = LocalEventsModel::new(600, 1, 0.0, 0.0)
            .unwrap()
            .generate(&mut rng(7))
            .unwrap();
        let with_links = LocalEventsModel::new(600, 1, 0.4, 0.0)
            .unwrap()
            .generate(&mut rng(7))
            .unwrap();
        assert!(
            with_links.average_degree() > grow_only.average_degree(),
            "link-addition events should densify the network ({} vs {})",
            with_links.average_degree(),
            grow_only.average_degree()
        );
    }

    #[test]
    fn rewiring_preserves_edge_count_per_event() {
        // Rewiring never changes the number of edges, so p=0, q>0 yields exactly the same
        // edge count as pure growth with the same node count would: rewire events move
        // links, node events add m each.
        let g = LocalEventsModel::new(400, 2, 0.0, 0.4)
            .unwrap()
            .generate(&mut rng(9))
            .unwrap();
        let m = 2;
        let expected_edges = m * (m + 1) / 2 + (g.node_count() - (m + 1)) * m;
        // Some node events may fail to place all m links under pathological rewiring, so
        // allow a small deficit but never a surplus.
        assert!(g.edge_count() <= expected_edges);
        assert!(g.edge_count() >= expected_edges - g.node_count() / 20);
    }

    #[test]
    fn trait_object_usage() {
        let gen: Box<dyn TopologyGenerator> =
            Box::new(LocalEventsModel::new(60, 1, 0.1, 0.1).unwrap());
        assert_eq!(gen.name(), "LocalEvents");
        assert_eq!(gen.locality(), Locality::Global);
        assert_eq!(gen.target_nodes(), 60);
        let g = gen.generate(&mut rng(11)).unwrap();
        assert_eq!(g.node_count(), 60);
    }

    #[test]
    fn accessors_report_configuration() {
        let gen = LocalEventsModel::new(100, 3, 0.2, 0.1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(12))
            .with_max_attempts(0);
        assert_eq!(gen.stubs(), 3);
        assert_eq!(gen.cutoff(), DegreeCutoff::hard(12));
        assert!((gen.p_add_links() - 0.2).abs() < 1e-12);
        assert!((gen.q_rewire() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let gen = LocalEventsModel::new(300, 2, 0.2, 0.2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(20));
        let a = gen.generate(&mut rng(41)).unwrap();
        let b = gen.generate(&mut rng(41)).unwrap();
        assert_eq!(a, b);
    }
}
