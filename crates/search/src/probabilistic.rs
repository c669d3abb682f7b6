//! Probabilistic flooding — the query-suppression family of refs. \[29, 30\].
//!
//! Plain flooding forwards the query over *every* link, which the paper calls unscalable;
//! normalized flooding caps the fan-out at `k_min`. Probabilistic flooding is the third
//! classical way to tame flooding traffic: every neighbor (excluding the previous hop) is
//! forwarded the query independently with probability `p`. `p = 1` recovers FL exactly;
//! small `p` approaches a branching random walk. On scale-free overlays the interesting
//! regime is intermediate: hubs still spray the query widely in absolute terms (they have
//! many neighbors, each kept with probability `p`), so the coverage penalty is far smaller
//! than the message saving — the same granularity argument the paper makes for NF.

use crate::forwarding::Forwarding;
use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Probabilistic (gossip-style) flooding with forwarding probability `p`.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::complete_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{ProbabilisticFlooding, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = complete_graph(30)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let outcome = ProbabilisticFlooding::new(0.5).search(&graph, NodeId::new(0), 2, &mut rng);
/// assert!(outcome.hits <= 29);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticFlooding {
    probability: f64,
}

impl ProbabilisticFlooding {
    /// Creates a probabilistic flooding search that forwards over each link with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `(0, 1]` (a forwarding probability of zero would never
    /// deliver anything, and NaN is meaningless).
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && p > 0.0 && p <= 1.0,
            "forwarding probability must lie in (0, 1], got {p}"
        );
        ProbabilisticFlooding { probability: p }
    }

    /// Returns the forwarding probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for ProbabilisticFlooding {
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
            "probabilistic flood source {source} out of bounds"
        );
        let rule = Forwarding::Probabilistic {
            p: self.probability,
        };
        rule.flood(graph, source, ttl, rng, scratch, |_, _| {})
    }
}

impl SearchInfo for ProbabilisticFlooding {
    fn name(&self) -> &'static str {
        "pFL"
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
    #[should_panic(expected = "forwarding probability")]
    fn zero_probability_is_rejected() {
        let _ = ProbabilisticFlooding::new(0.0);
    }

    #[test]
    #[should_panic(expected = "forwarding probability")]
    fn above_one_probability_is_rejected() {
        let _ = ProbabilisticFlooding::new(1.5);
    }

    #[test]
    fn accessor_reports_probability() {
        let p = ProbabilisticFlooding::new(0.3);
        assert!((p.probability() - 0.3).abs() < 1e-12);
        assert_eq!(p.name(), "pFL");
    }

    #[test]
    fn probability_one_equals_plain_flooding() {
        let g = ring_graph(40, 2).unwrap();
        for ttl in [1u32, 3, 6] {
            let pf = ProbabilisticFlooding::new(1.0).search(&g, NodeId::new(0), ttl, &mut rng(1));
            let fl = Flooding::new().search(&g, NodeId::new(0), ttl, &mut rng(1));
            assert_eq!(pf, fl, "ttl={ttl}");
        }
    }

    #[test]
    fn lower_probability_sends_fewer_messages() {
        let g = complete_graph(60).unwrap();
        let low = ProbabilisticFlooding::new(0.2).search(&g, NodeId::new(0), 3, &mut rng(2));
        let high = ProbabilisticFlooding::new(0.9).search(&g, NodeId::new(0), 3, &mut rng(2));
        assert!(low.messages < high.messages);
        assert!(
            low.hits <= high.hits + 1,
            "coverage should not grow when pruning harder"
        );
    }

    #[test]
    fn source_round_always_forwards() {
        // Even with a small p the first round is deterministic, so every neighbor of the
        // source is hit for ttl = 1.
        let g = complete_graph(10).unwrap();
        let o = ProbabilisticFlooding::new(0.05).search(&g, NodeId::new(0), 1, &mut rng(3));
        assert_eq!(o.hits, 9);
        assert_eq!(o.messages, 9);
    }

    #[test]
    fn zero_ttl_reaches_nothing() {
        let g = complete_graph(5).unwrap();
        let o = ProbabilisticFlooding::new(0.5).search(&g, NodeId::new(0), 0, &mut rng(4));
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn isolated_source_yields_empty_outcome() {
        let g = Graph::with_nodes(3);
        let o = ProbabilisticFlooding::new(0.5).search(&g, NodeId::new(1), 5, &mut rng(5));
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn hits_never_exceed_plain_flooding() {
        let g = ring_graph(60, 3).unwrap();
        for seed in 0..10u64 {
            let pf = ProbabilisticFlooding::new(0.6).search(&g, NodeId::new(7), 4, &mut rng(seed));
            let fl = Flooding::new().search(&g, NodeId::new(7), 4, &mut rng(seed));
            assert!(pf.hits <= fl.hits);
            assert!(pf.messages <= fl.messages);
        }
    }

    #[test]
    fn deterministic_given_the_same_rng_seed() {
        let g = complete_graph(40).unwrap();
        let a = ProbabilisticFlooding::new(0.4).search(&g, NodeId::new(0), 3, &mut rng(11));
        let b = ProbabilisticFlooding::new(0.4).search(&g, NodeId::new(0), 3, &mut rng(11));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = ProbabilisticFlooding::new(0.5).search(&g, NodeId::new(9), 2, &mut rng(6));
    }
}
