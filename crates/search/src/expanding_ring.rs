//! Expanding-ring search — successive floods with growing time-to-live (Lv et al.,
//! paper ref. \[23\]).
//!
//! Fixing the flood TTL in advance is wasteful in both directions: too small and popular
//! items are missed, too large and the query sweeps the whole overlay for an item that was
//! two hops away. The expanding-ring strategy starts with a small flood and, if the item is
//! not found, retries with a larger TTL, paying the cost of the earlier rings again. It is
//! the standard practical compromise in Gnutella-like networks and the natural companion
//! baseline to the paper's fixed-TTL FL curves.
//!
//! Because the workspace's [`SearchAlgorithm`] interface measures *coverage* (it has no
//! notion of a target item), the `ttl` argument is interpreted as the radius of the final
//! ring: the reported messages accumulate over every ring of the schedule up to and
//! including `ttl`, while the hits are those of the final (largest) ring. This is exactly
//! the worst-case cost of an expanding-ring lookup that succeeds only at radius `ttl`, and
//! it is the right number to compare against a single flood at the same radius. For
//! item-level success measurements (where earlier rings can terminate the search) use
//! `sfo-sim`, which models item placement and replication explicitly.

use crate::flooding::Flooding;
use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Expanding-ring search: floods of growing radius, re-paying earlier rings.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::ring_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{ExpandingRing, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = ring_graph(50, 1)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Rings of radius 1, 3, 5: coverage equals a radius-5 flood, cost includes all rings.
/// let search = ExpandingRing::new(1, 2);
/// let outcome = search.search(&graph, NodeId::new(0), 5, &mut rng);
/// assert_eq!(outcome.hits, 10);
/// assert!(outcome.messages > 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandingRing {
    initial_ttl: u32,
    increment: u32,
}

impl ExpandingRing {
    /// Creates an expanding-ring search whose rings have radius `initial_ttl`,
    /// `initial_ttl + increment`, `initial_ttl + 2·increment`, … .
    ///
    /// # Panics
    ///
    /// Panics if `initial_ttl` or `increment` is zero.
    pub fn new(initial_ttl: u32, increment: u32) -> Self {
        assert!(initial_ttl > 0, "initial ring radius must be positive");
        assert!(increment > 0, "ring increment must be positive");
        ExpandingRing {
            initial_ttl,
            increment,
        }
    }

    /// Returns the radius of the first ring.
    pub fn initial_ttl(&self) -> u32 {
        self.initial_ttl
    }

    /// Returns the radius increment between rings.
    pub fn increment(&self) -> u32 {
        self.increment
    }

    /// Returns the ring schedule up to and including `final_ttl` (always ends with
    /// `final_ttl`, even when it is not on the arithmetic schedule).
    pub fn schedule(&self, final_ttl: u32) -> Vec<u32> {
        if final_ttl == 0 {
            return Vec::new();
        }
        let mut rings = Vec::new();
        let mut radius = self.initial_ttl;
        while radius < final_ttl {
            rings.push(radius);
            radius = radius.saturating_add(self.increment);
        }
        rings.push(final_ttl);
        rings
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for ExpandingRing {
    fn search(&self, graph: &G, source: NodeId, ttl: u32, rng: &mut dyn RngCore) -> SearchOutcome {
        assert!(
            graph.contains_node(source),
            "expanding-ring source {source} out of bounds"
        );
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
            "expanding-ring source {source} out of bounds"
        );
        let flood = Flooding::new();
        let mut total_messages = 0usize;
        let mut final_hits = 0usize;
        // One arena serves every ring: each flood clears the previous ring's hits on
        // entry, O(hits) per ring.
        for radius in self.schedule(ttl) {
            let outcome = flood.search_with_scratch(graph, source, radius, rng, scratch);
            total_messages += outcome.messages;
            final_hits = outcome.hits;
        }
        SearchOutcome {
            hits: final_hits,
            messages: total_messages,
        }
    }
}

impl SearchInfo for ExpandingRing {
    fn name(&self) -> &'static str {
        "ring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{complete_graph, ring_graph};
    use sfo_graph::Graph;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    #[should_panic(expected = "initial ring radius")]
    fn zero_initial_ttl_is_rejected() {
        let _ = ExpandingRing::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "ring increment")]
    fn zero_increment_is_rejected() {
        let _ = ExpandingRing::new(1, 0);
    }

    #[test]
    fn accessors_and_name() {
        let er = ExpandingRing::new(2, 3);
        assert_eq!(er.initial_ttl(), 2);
        assert_eq!(er.increment(), 3);
        assert_eq!(er.name(), "ring");
    }

    #[test]
    fn schedule_always_ends_at_the_final_ttl() {
        let er = ExpandingRing::new(1, 2);
        assert_eq!(er.schedule(5), vec![1, 3, 5]);
        assert_eq!(er.schedule(6), vec![1, 3, 5, 6]);
        assert_eq!(er.schedule(1), vec![1]);
        assert!(er.schedule(0).is_empty());
    }

    #[test]
    fn coverage_matches_a_single_flood_of_the_final_radius() {
        let g = ring_graph(60, 1).unwrap();
        let er = ExpandingRing::new(1, 2).search(&g, NodeId::new(0), 7, &mut rng());
        let fl = Flooding::new().search(&g, NodeId::new(0), 7, &mut rng());
        assert_eq!(er.hits, fl.hits);
    }

    #[test]
    fn cost_exceeds_a_single_flood_when_several_rings_run() {
        let g = complete_graph(30).unwrap();
        let er = ExpandingRing::new(1, 1).search(&g, NodeId::new(0), 3, &mut rng());
        let fl = Flooding::new().search(&g, NodeId::new(0), 3, &mut rng());
        assert_eq!(er.hits, fl.hits);
        assert!(
            er.messages > fl.messages,
            "{} should exceed {}",
            er.messages,
            fl.messages
        );
    }

    #[test]
    fn single_ring_schedule_costs_the_same_as_flooding() {
        let g = ring_graph(40, 2).unwrap();
        // initial_ttl = final ttl: exactly one ring.
        let er = ExpandingRing::new(4, 5).search(&g, NodeId::new(0), 4, &mut rng());
        let fl = Flooding::new().search(&g, NodeId::new(0), 4, &mut rng());
        assert_eq!(er, fl);
    }

    #[test]
    fn zero_ttl_reaches_nothing() {
        let g = complete_graph(5).unwrap();
        let o = ExpandingRing::new(1, 1).search(&g, NodeId::new(0), 0, &mut rng());
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn isolated_source_yields_empty_outcome() {
        let g = Graph::with_nodes(4);
        let o = ExpandingRing::new(1, 2).search(&g, NodeId::new(2), 6, &mut rng());
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = ExpandingRing::new(1, 1).search(&g, NodeId::new(9), 2, &mut rng());
    }
}
