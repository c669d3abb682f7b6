//! Normalized Flooding search (NF) — paper §V-A.2, after Gkantsidis, Mihail & Saberi.
//!
//! Flooding has poor granularity: once the query reaches a hub, the next round contacts a
//! huge number of peers at once. NF normalizes the fan-out to the minimum degree `k_min` of
//! the network: a peer whose degree is `k_min` forwards to all neighbors except the
//! previous hop, while a higher-degree peer forwards to only `k_min` randomly chosen
//! neighbors (again excluding the previous hop). The paper runs NF with `k_min = m`, the
//! stub count of the topology-generation mechanism, even when a few peers end up below `m`
//! (CM after simplification, DAPA with short horizons).

use crate::forwarding::Forwarding;
use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Normalized flooding with a configurable fan-out `k_min`.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::complete_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{NormalizedFlooding, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = complete_graph(20)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let nf = NormalizedFlooding::new(2);
/// let outcome = nf.search(&graph, NodeId::new(0), 1, &mut rng);
/// assert_eq!(outcome.hits, 2); // fan-out limited to k_min even in a clique
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalizedFlooding {
    k_min: usize,
}

impl NormalizedFlooding {
    /// Creates a normalized flooding search with fan-out `k_min`.
    ///
    /// # Panics
    ///
    /// Panics if `k_min` is zero; a fan-out of zero would never forward anything.
    pub fn new(k_min: usize) -> Self {
        assert!(k_min > 0, "k_min must be at least 1");
        NormalizedFlooding { k_min }
    }

    /// Returns the configured fan-out.
    pub fn k_min(&self) -> usize {
        self.k_min
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for NormalizedFlooding {
    fn search(&self, graph: &G, source: NodeId, ttl: u32, rng: &mut dyn RngCore) -> SearchOutcome {
        self.search_with_scratch(graph, source, ttl, rng, &mut SearchScratch::new())
    }

    fn search_with_scratch(
        &self,
        graph: &G,
        source: NodeId,
        ttl: u32,
        rng: &mut dyn RngCore,
        scratch: &mut SearchScratch,
    ) -> SearchOutcome {
        assert!(
            graph.contains_node(source),
            "nf source {source} out of bounds"
        );
        let rule = Forwarding::Normalized { k_min: self.k_min };
        rule.flood(graph, source, ttl, rng, scratch, |_, _| {})
    }
}

impl SearchInfo for NormalizedFlooding {
    fn name(&self) -> &'static str {
        "NF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::Flooding;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{complete_graph, ring_graph};
    use sfo_graph::Graph;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    #[should_panic(expected = "k_min")]
    fn zero_fanout_is_rejected() {
        let _ = NormalizedFlooding::new(0);
    }

    #[test]
    fn accessor_reports_fanout() {
        assert_eq!(NormalizedFlooding::new(3).k_min(), 3);
        assert_eq!(NormalizedFlooding::new(3).name(), "NF");
    }

    #[test]
    fn zero_ttl_reaches_nothing() {
        let g = complete_graph(6).unwrap();
        let o = NormalizedFlooding::new(2).search(&g, NodeId::new(0), 0, &mut rng(1));
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn fanout_bounds_per_round_growth() {
        // With fan-out k, at most k + k^2 + ... + k^tau peers can be hit.
        let g = complete_graph(200).unwrap();
        let k = 2usize;
        for ttl in 1..=4u32 {
            let o = NormalizedFlooding::new(k).search(&g, NodeId::new(0), ttl, &mut rng(2));
            let bound: usize = (1..=ttl).map(|t| k.pow(t)).sum();
            assert!(
                o.hits <= bound,
                "ttl={ttl}: hits {} exceed bound {bound}",
                o.hits
            );
        }
    }

    #[test]
    fn on_low_degree_nodes_nf_equals_fl() {
        // Every node of a cycle has degree 2 = k_min, so NF forwards to everyone FL would.
        let g = ring_graph(40, 1).unwrap();
        for ttl in [1u32, 3, 7] {
            let nf = NormalizedFlooding::new(2).search(&g, NodeId::new(5), ttl, &mut rng(3));
            let fl = Flooding::new().search(&g, NodeId::new(5), ttl, &mut rng(3));
            assert_eq!(nf.hits, fl.hits, "ttl={ttl}");
            assert_eq!(nf.messages, fl.messages, "ttl={ttl}");
        }
    }

    #[test]
    fn nf_uses_no_more_messages_than_fl() {
        let g = complete_graph(50).unwrap();
        for ttl in [1u32, 2, 3] {
            let nf = NormalizedFlooding::new(3).search(&g, NodeId::new(0), ttl, &mut rng(4));
            let fl = Flooding::new().search(&g, NodeId::new(0), ttl, &mut rng(4));
            assert!(nf.messages <= fl.messages);
            assert!(nf.hits <= fl.hits);
        }
    }

    #[test]
    fn isolated_source_yields_empty_outcome() {
        let g = Graph::with_nodes(4);
        let o = NormalizedFlooding::new(2).search(&g, NodeId::new(2), 5, &mut rng(5));
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn deterministic_given_the_same_rng_seed() {
        let g = complete_graph(30).unwrap();
        let a = NormalizedFlooding::new(2).search(&g, NodeId::new(0), 4, &mut rng(9));
        let b = NormalizedFlooding::new(2).search(&g, NodeId::new(0), 4, &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = NormalizedFlooding::new(1).search(&g, NodeId::new(7), 2, &mut rng(6));
    }
}
