//! Degree-biased random walk — the "power-law search" of Adamic et al. (paper ref. \[62\]).
//!
//! The paper quotes Adamic, Lukose, Puniyani & Huberman's result that a random walk on a
//! scale-free network with exponent `γ ≈ 2.1` needs `T_N ∼ N^0.79` steps. The same work
//! shows that deliberately steering the walk toward *high-degree* neighbors shortens the
//! search dramatically, because the hubs collectively see most of the network. That
//! strategy is implemented here: at each step the query moves to the highest-degree
//! neighbor that has not yet been visited, falling back to a uniformly random neighbor when
//! all of them have been.
//!
//! On overlays with hard cutoffs the strategy loses exactly the advantage it relies on —
//! there are no super-hubs left to climb toward — which makes it the sharpest probe of what
//! the cutoff takes away from hub-exploiting searches, complementing the paper's NF/RW
//! comparison.

use crate::random_walk::next_hop;
use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Degree-biased ("high-degree seeking") walk.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::star_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{DegreeBiasedWalk, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let star = star_graph(10)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // From a leaf, the first hop goes straight to the hub.
/// let outcome = DegreeBiasedWalk::new().search(&star, NodeId::new(3), 1, &mut rng);
/// assert_eq!(outcome.hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeBiasedWalk {
    _private: (),
}

impl DegreeBiasedWalk {
    /// Creates a degree-biased walk.
    pub fn new() -> Self {
        DegreeBiasedWalk { _private: () }
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for DegreeBiasedWalk {
    fn search(&self, graph: &G, source: NodeId, ttl: u32, rng: &mut dyn RngCore) -> SearchOutcome {
        let mut scratch = SearchScratch::new();
        self.search_with_scratch(graph, source, ttl, rng, &mut scratch)
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
            "biased walk source {source} out of bounds"
        );
        let visited = &mut scratch.visited;
        visited.reset(graph.node_count());
        visited.insert(source.index());
        let mut hits = 0usize;
        let mut messages = 0usize;
        let mut current = source;
        let mut previous: Option<NodeId> = None;

        for _ in 0..ttl {
            let neighbors = graph.neighbors(current);
            if neighbors.is_empty() {
                break;
            }
            // Prefer the unvisited neighbor with the largest degree (ties broken by lowest
            // id so the walk is deterministic given the visited set); if everything has
            // been visited already, take a uniformly random neighbor other than the
            // previous hop so the walk can escape the exhausted neighborhood.
            let next = neighbors
                .iter()
                .copied()
                .filter(|&n| !visited.contains(n.index()))
                .max_by_key(|&n| (graph.degree(n), std::cmp::Reverse(n)))
                .unwrap_or_else(|| {
                    next_hop(neighbors, previous, rng).expect("the row is not empty")
                });
            messages += 1;
            if visited.insert(next.index()) {
                hits += 1;
            }
            previous = Some(current);
            current = next;
        }
        SearchOutcome { hits, messages }
    }
}

impl SearchInfo for DegreeBiasedWalk {
    fn name(&self) -> &'static str {
        "HD-RW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_walk::RandomWalk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{complete_graph, ring_graph, star_graph};
    use sfo_graph::Graph;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Two hubs bridged by a path of low-degree nodes:
    /// hub A (0) with leaves 1..=4, hub B (5) with leaves 6..=9, bridge 0 - 10 - 5.
    fn two_hubs() -> Graph {
        let mut g = Graph::with_nodes(11);
        for leaf in 1..=4 {
            g.add_edge(NodeId::new(0), NodeId::new(leaf)).unwrap();
        }
        for leaf in 6..=9 {
            g.add_edge(NodeId::new(5), NodeId::new(leaf)).unwrap();
        }
        g.add_edge(NodeId::new(0), NodeId::new(10)).unwrap();
        g.add_edge(NodeId::new(10), NodeId::new(5)).unwrap();
        g
    }

    #[test]
    fn first_hop_from_a_leaf_goes_to_the_hub() {
        let g = star_graph(20).unwrap();
        let o = DegreeBiasedWalk::new().search(&g, NodeId::new(7), 1, &mut rng(1));
        assert_eq!(o.hits, 1);
        assert_eq!(o.messages, 1);
    }

    #[test]
    fn walk_prefers_unvisited_high_degree_neighbors() {
        // Starting from hub A's leaf, the walk reaches hub A in one hop, crosses the bridge
        // toward hub B (the bridge node out-degrees the remaining leaves), and drains hub
        // B's leaves: at least nodes {0, 10, 5, 6, 7, 8, 9} are visited within 20 steps.
        let g = two_hubs();
        let o = DegreeBiasedWalk::new().search(&g, NodeId::new(1), 20, &mut rng(2));
        assert!(
            o.hits >= 7,
            "expected both hubs and hub B's leaves covered, got {}",
            o.hits
        );
    }

    #[test]
    fn covers_a_clique_without_revisits() {
        // In a clique every neighbor has equal degree; the walk should still visit a new
        // node at every step until everyone has been seen.
        let g = complete_graph(12).unwrap();
        let o = DegreeBiasedWalk::new().search(&g, NodeId::new(0), 11, &mut rng(3));
        assert_eq!(o.hits, 11);
        assert_eq!(o.messages, 11);
    }

    #[test]
    fn beats_or_matches_uniform_walk_on_a_star() {
        // On a star the uniform walk bounces hub -> leaf -> hub, wasting half its budget;
        // the biased walk only wastes steps once everything is visited.
        let g = star_graph(30).unwrap();
        let biased = DegreeBiasedWalk::new().search(&g, NodeId::new(1), 20, &mut rng(4));
        let uniform = RandomWalk::new().search(&g, NodeId::new(1), 20, &mut rng(4));
        assert!(biased.hits >= uniform.hits);
    }

    #[test]
    fn message_count_equals_ttl_when_not_stuck() {
        let g = ring_graph(25, 2).unwrap();
        let o = DegreeBiasedWalk::new().search(&g, NodeId::new(0), 14, &mut rng(5));
        assert_eq!(o.messages, 14);
        assert!(o.hits <= 14);
    }

    #[test]
    fn zero_ttl_and_isolated_source() {
        let g = complete_graph(5).unwrap();
        assert_eq!(
            DegreeBiasedWalk::new().search(&g, NodeId::new(0), 0, &mut rng(6)),
            SearchOutcome::default()
        );
        let isolated = Graph::with_nodes(3);
        assert_eq!(
            DegreeBiasedWalk::new().search(&isolated, NodeId::new(1), 8, &mut rng(6)),
            SearchOutcome::default()
        );
    }

    #[test]
    fn hits_never_exceed_component_size() {
        let g = ring_graph(10, 1).unwrap();
        let o = DegreeBiasedWalk::new().search(&g, NodeId::new(0), 200, &mut rng(7));
        assert!(o.hits <= 9);
        assert_eq!(o.messages, 200);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(DegreeBiasedWalk::new().name(), "HD-RW");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = DegreeBiasedWalk::new().search(&g, NodeId::new(9), 2, &mut rng(8));
    }
}
