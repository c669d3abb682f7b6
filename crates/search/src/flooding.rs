//! Flooding search (FL) — paper §V-A.1.
//!
//! The source sends the query to all of its neighbors; every peer that receives the query
//! for the first time forwards it to all of its neighbors except the one it arrived from,
//! until the time-to-live `τ` is exhausted. Peers drop duplicate copies (Gnutella-style),
//! but the duplicate transmissions still count as messages — this is exactly the "large
//! number of messages" downside the paper attributes to FL.
//!
//! # The kernel
//!
//! FL draws no random numbers and its outcome depends only on *which* nodes lie at each
//! depth, not on the order a level is expanded in. The kernel is therefore a
//! level-synchronous BFS over one `Vec` of reached nodes in BFS order: the level being
//! expanded is a contiguous run of it, and its discoveries are appended behind it.
//!
//! * **Messages by arithmetic.** On a simple graph a level's nodes send `Σ deg` messages
//!   minus one per node (the link the query arrived on), the source's level `Σ deg`.
//! * **One test-and-set per edge** on a one-array bitset of reached nodes, whose set bits
//!   are exactly the nodes in the order — so the next search clears them in O(hits).
//! * **Bottom-up levels.** Once a level saturates the graph, checking every unreached
//!   node for a neighbour in the level is cheaper than pushing the level's edges, most
//!   of which land on reached nodes. The switch is the direction-optimizing rule of
//!   Beamer, Asanović & Patterson (SC'12), with α tuned to hard-cutoff topologies (see
//!   [`BOTTOM_UP_EDGE_FACTOR`]): a level goes bottom-up when
//!   `Σ deg(level) · BOTTOM_UP_EDGE_FACTOR > 2E − Σ deg(reached)` and
//!   `|level| · BOTTOM_UP_WIDTH_FACTOR > N`. Either direction discovers the same next
//!   level, so `(hits, messages)` do not depend on the switch.

use crate::scratch::FloodLevels;
use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Beamer et al.'s α: a level goes bottom-up only when its edges outnumber the
/// unreached nodes' edges divided by this factor.
///
/// Beamer et al. use 14 on graphs whose hubs put most unreached nodes next to a
/// saturating level. Under a hard cutoff a level's edges spread thinner: on capped and
/// uncapped PA with 10^4–10^5 nodes and TTLs 1–20, 14 switches one level early (a TTL-5
/// flood on 10^4 nodes ran slower than a FIFO flood), while 2 was fastest at every TTL.
pub const BOTTOM_UP_EDGE_FACTOR: usize = 2;

/// Beamer et al.'s β: a level goes bottom-up only when it holds more than `N` divided
/// by this factor nodes.
pub const BOTTOM_UP_WIDTH_FACTOR: usize = 24;

/// Flooding (broadcast) search.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::ring_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{flooding::Flooding, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = ring_graph(20, 1)?; // a simple cycle
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let outcome = Flooding::new().search(&ring, NodeId::new(0), 3, &mut rng);
/// assert_eq!(outcome.hits, 6); // three peers reached in each direction
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flooding {
    _private: (),
}

impl Flooding {
    /// Creates a flooding search.
    pub fn new() -> Self {
        Flooding { _private: () }
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for Flooding {
    fn search(&self, graph: &G, source: NodeId, ttl: u32, rng: &mut dyn RngCore) -> SearchOutcome {
        assert!(
            graph.contains_node(source),
            "flood source {source} out of bounds"
        );
        self.search_with_scratch(graph, source, ttl, rng, &mut SearchScratch::new())
    }

    fn search_with_scratch(
        &self,
        graph: &G,
        source: NodeId,
        ttl: u32,
        _rng: &mut dyn RngCore,
        scratch: &mut SearchScratch,
    ) -> SearchOutcome {
        assert!(
            graph.contains_node(source),
            "flood source {source} out of bounds"
        );
        let node_count = graph.node_count();
        let levels = &mut scratch.levels;
        levels.begin(node_count, source);
        let mut messages = 0usize;
        // Σ deg over every level expanded so far.
        let mut reached_degree = 0usize;
        let (mut lo, mut hi) = (0usize, 1usize);
        for depth in 0..ttl {
            if lo == hi {
                break;
            }
            let width = hi - lo;
            // Only a wide level pays for summing its degrees before it is expanded.
            let wide_degree = (width * BOTTOM_UP_WIDTH_FACTOR > node_count)
                .then(|| levels.order[lo..hi].iter().map(|&v| graph.degree(v)).sum());
            let level_degree = match wide_degree {
                Some(degree)
                    if degree * BOTTOM_UP_EDGE_FACTOR
                        > graph.total_degree().saturating_sub(reached_degree + degree) =>
                {
                    expand_bottom_up(graph, levels, lo..hi);
                    degree
                }
                _ => expand_top_down(graph, levels, lo..hi),
            };
            reached_degree += level_degree;
            // Every node but the source leaves out the link the query arrived on.
            messages += level_degree - if depth == 0 { 0 } else { width };
            (lo, hi) = (hi, levels.order.len());
        }
        SearchOutcome {
            hits: levels.order.len() - 1,
            messages,
        }
    }
}

/// Appends every unreached neighbour of the level `order[range]` behind it; returns
/// the level's degree sum.
fn expand_top_down<G: GraphView + ?Sized>(
    graph: &G,
    levels: &mut FloodLevels,
    range: std::ops::Range<usize>,
) -> usize {
    let mut level_degree = 0;
    for i in range {
        let neighbors = graph.neighbors(levels.order[i]);
        level_degree += neighbors.len();
        for &next in neighbors {
            let index = next.index();
            let word = &mut levels.reached[index / 64];
            let bit = 1u64 << (index % 64);
            if *word & bit == 0 {
                *word |= bit;
                levels.order.push(next);
            }
        }
    }
    level_degree
}

/// Appends every unreached node with a neighbour in the level `order[range]`, in
/// ascending id order: each one scans its own row and stops at the first neighbour
/// marked in `levels.level`.
///
/// The marks stay set until the next search clears them: marks of an earlier level
/// cannot make a later step find a false parent, because every neighbour of an earlier
/// level is reached already.
fn expand_bottom_up<G: GraphView + ?Sized>(
    graph: &G,
    levels: &mut FloodLevels,
    range: std::ops::Range<usize>,
) {
    levels.level_marked = true;
    for &node in &levels.order[range] {
        let index = node.index();
        levels.level[index / 64] |= 1 << (index % 64);
    }
    let node_count = graph.node_count();
    for w in 0..node_count.div_ceil(64) {
        let mut unreached = !levels.reached[w];
        if (w + 1) * 64 > node_count {
            unreached &= (1u64 << (node_count % 64)) - 1;
        }
        while unreached != 0 {
            let bit = unreached.trailing_zeros() as usize;
            unreached &= unreached - 1;
            let node = NodeId::new(w * 64 + bit);
            let in_level = |p: &NodeId| {
                let index = p.index();
                levels.level[index / 64] & (1 << (index % 64)) != 0
            };
            if graph.neighbors(node).iter().any(in_level) {
                levels.reached[w] |= 1 << bit;
                levels.order.push(node);
            }
        }
    }
}

impl SearchInfo for Flooding {
    fn name(&self) -> &'static str {
        "FL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{complete_graph, ring_graph};
    use sfo_graph::reachable_within;
    use sfo_graph::Graph;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn path_graph(len: usize) -> Graph {
        let mut g = Graph::with_nodes(len);
        for i in 1..len {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i)).unwrap();
        }
        g
    }

    #[test]
    fn zero_ttl_reaches_nothing() {
        let g = complete_graph(5).unwrap();
        let o = Flooding::new().search(&g, NodeId::new(0), 0, &mut rng());
        assert_eq!(o, SearchOutcome::new(0, 0));
    }

    #[test]
    fn flooding_hits_match_bfs_reachability() {
        // FL with TTL tau reaches exactly the nodes within tau hops.
        let g = ring_graph(30, 2).unwrap();
        for ttl in 0..6 {
            let o = Flooding::new().search(&g, NodeId::new(3), ttl, &mut rng());
            assert_eq!(
                o.hits,
                reachable_within(&g, NodeId::new(3), ttl),
                "ttl={ttl}"
            );
        }
    }

    #[test]
    fn flooding_on_a_path_counts_messages_without_backtracking() {
        // On a path the query travels outward one link per round and never echoes back.
        let g = path_graph(6);
        let o = Flooding::new().search(&g, NodeId::new(0), 3, &mut rng());
        assert_eq!(o.hits, 3);
        assert_eq!(o.messages, 3);
    }

    #[test]
    fn flooding_in_a_clique_counts_duplicate_messages() {
        // In K4 from the source: 3 messages in round one; each of the 3 peers forwards to 2
        // others (excluding the sender) in round two = 6 more messages, all duplicates.
        let g = complete_graph(4).unwrap();
        let o = Flooding::new().search(&g, NodeId::new(0), 2, &mut rng());
        assert_eq!(o.hits, 3);
        assert_eq!(o.messages, 9);
    }

    #[test]
    fn large_ttl_covers_the_connected_component() {
        let g = ring_graph(50, 1).unwrap();
        let o = Flooding::new().search(&g, NodeId::new(0), 100, &mut rng());
        assert_eq!(o.hits, 49);
    }

    #[test]
    fn disconnected_nodes_are_never_hit() {
        let mut g = path_graph(4);
        g.add_nodes(3);
        let o = Flooding::new().search(&g, NodeId::new(0), 10, &mut rng());
        assert_eq!(o.hits, 3);
    }

    #[test]
    fn isolated_source_yields_empty_outcome() {
        let g = Graph::with_nodes(3);
        let o = Flooding::new().search(&g, NodeId::new(1), 5, &mut rng());
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn name_is_fl() {
        assert_eq!(Flooding::new().name(), "FL");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = Flooding::new().search(&g, NodeId::new(9), 2, &mut rng());
    }
}
