//! Random Walk search (RW) — paper §V-A.3.
//!
//! A single query message hops from peer to peer: each holder forwards it to one uniformly
//! random neighbor, excluding the neighbor it came from (unless that is the only option).
//! The walk runs for `τ` hops, so the message count equals `τ` exactly — the other extreme
//! of the delivery-time/traffic trade-off compared to flooding. [`MultipleRandomWalk`]
//! launches several walkers that share a hop budget, which the paper mentions as the way to
//! make RW behave more like NF.

use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::Rng;
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Single random-walk search.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::ring_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{RandomWalk, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = ring_graph(30, 1)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let outcome = RandomWalk::new().search(&ring, NodeId::new(0), 10, &mut rng);
/// assert_eq!(outcome.messages, 10);
/// assert!(outcome.hits <= 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomWalk {
    _private: (),
}

impl RandomWalk {
    /// Creates a single-walker random-walk search.
    pub fn new() -> Self {
        RandomWalk { _private: () }
    }
}

/// One walker step from a node whose neighbours are `row`: a uniformly random
/// neighbour other than the `previous` hop, drawn by rejection; the only neighbour,
/// without a draw, when there is one (the walk bounces back); `None` at a dead end.
///
/// Every walk in the workspace steps through this function — the serial walks here,
/// the biased walk's fallback, placed execution, and the item lookups over `PeerId`
/// rows — so they consume their RNG streams identically.
pub fn next_hop<T: Copy + PartialEq, R: Rng + ?Sized>(
    row: &[T],
    previous: Option<T>,
    rng: &mut R,
) -> Option<T> {
    match row.len() {
        0 => None,
        1 => Some(row[0]),
        len => loop {
            let candidate = row[rng.gen_range(0..len)];
            if Some(candidate) != previous {
                break Some(candidate);
            }
        },
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for RandomWalk {
    fn search(&self, graph: &G, source: NodeId, ttl: u32, rng: &mut dyn RngCore) -> SearchOutcome {
        self.search_with_scratch(graph, source, ttl, rng, &mut SearchScratch::new())
    }

    /// One walker spending the whole budget: [`MultipleRandomWalk`] with one walker.
    fn search_with_scratch(
        &self,
        graph: &G,
        source: NodeId,
        ttl: u32,
        rng: &mut dyn RngCore,
        scratch: &mut SearchScratch,
    ) -> SearchOutcome {
        MultipleRandomWalk::new(1).search_with_scratch(graph, source, ttl, rng, scratch)
    }
}

impl SearchInfo for RandomWalk {
    fn name(&self) -> &'static str {
        "RW"
    }
}

/// Multiple parallel random walkers sharing one hop budget.
///
/// The `ttl` passed to [`SearchAlgorithm::search`] is the *total* hop budget, split as
/// evenly as possible across the walkers, so outcomes are cost-comparable with a single
/// walk of the same `ttl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultipleRandomWalk {
    walkers: usize,
}

impl MultipleRandomWalk {
    /// Creates a multiple-random-walk search with `walkers` parallel walkers.
    ///
    /// # Panics
    ///
    /// Panics if `walkers` is zero.
    pub fn new(walkers: usize) -> Self {
        assert!(walkers > 0, "at least one walker is required");
        MultipleRandomWalk { walkers }
    }

    /// Returns the number of walkers.
    pub fn walkers(&self) -> usize {
        self.walkers
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for MultipleRandomWalk {
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
            "rw source {source} out of bounds"
        );
        let visited = &mut scratch.visited;
        visited.reset(graph.node_count());
        visited.insert(source.index());
        let mut hits = 0usize;
        let mut messages = 0usize;
        let budget = ttl as usize;
        let base = budget / self.walkers;
        let remainder = budget % self.walkers;
        for w in 0..self.walkers {
            let steps = base + usize::from(w < remainder);
            let mut current = source;
            let mut previous: Option<NodeId> = None;
            for _ in 0..steps {
                let Some(next) = next_hop(graph.neighbors(current), previous, rng) else {
                    break;
                };
                messages += 1;
                if visited.insert(next.index()) {
                    hits += 1;
                }
                previous = Some(current);
                current = next;
            }
        }
        SearchOutcome { hits, messages }
    }
}

impl SearchInfo for MultipleRandomWalk {
    fn name(&self) -> &'static str {
        "multi-RW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{complete_graph, ring_graph};
    use sfo_graph::Graph;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn path_graph(len: usize) -> Graph {
        let mut g = Graph::with_nodes(len);
        for i in 1..len {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i)).unwrap();
        }
        g
    }

    #[test]
    fn message_count_equals_ttl_when_not_stuck() {
        let g = complete_graph(20).unwrap();
        let o = RandomWalk::new().search(&g, NodeId::new(0), 15, &mut rng(1));
        assert_eq!(o.messages, 15);
        assert!(o.hits <= 15);
        assert!(o.hits >= 1);
    }

    #[test]
    fn walk_on_a_path_does_not_backtrack() {
        // On a path, excluding the previous hop forces the walk straight to the end.
        let g = path_graph(6);
        let o = RandomWalk::new().search(&g, NodeId::new(0), 5, &mut rng(2));
        assert_eq!(o.hits, 5);
        assert_eq!(o.messages, 5);
    }

    #[test]
    fn walk_turns_around_at_a_dead_end() {
        let g = path_graph(3);
        let o = RandomWalk::new().search(&g, NodeId::new(0), 4, &mut rng(3));
        // 0 -> 1 -> 2 -> back to 1 -> back to... wait, from 1 the previous is 2 so it goes to 0.
        assert_eq!(o.messages, 4);
        assert_eq!(o.hits, 2);
    }

    #[test]
    fn isolated_source_stops_immediately() {
        let g = Graph::with_nodes(2);
        let o = RandomWalk::new().search(&g, NodeId::new(0), 9, &mut rng(4));
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn zero_ttl_reaches_nothing() {
        let g = complete_graph(5).unwrap();
        assert_eq!(
            RandomWalk::new().search(&g, NodeId::new(1), 0, &mut rng(5)),
            SearchOutcome::default()
        );
    }

    #[test]
    fn hits_never_exceed_component_size() {
        let g = ring_graph(10, 1).unwrap();
        let o = RandomWalk::new().search(&g, NodeId::new(0), 500, &mut rng(6));
        assert!(o.hits <= 9);
        assert_eq!(o.messages, 500);
    }

    #[test]
    fn multiple_walkers_share_the_budget() {
        let g = complete_graph(50).unwrap();
        let o = MultipleRandomWalk::new(4).search(&g, NodeId::new(0), 21, &mut rng(7));
        assert_eq!(
            o.messages, 21,
            "budget split 6+5+5+5 should be fully spent in a clique"
        );
    }

    #[test]
    fn multiple_walkers_on_a_cycle_cover_between_one_and_two_walker_ranges() {
        // On a cycle a walker never backtracks, so each of the 4 walkers covers exactly 10
        // consecutive peers in one of the two directions. The union therefore spans at
        // least 10 (all walkers pick the same direction) and at most 20 distinct peers.
        let g = ring_graph(100, 1).unwrap();
        for seed in 0..20u64 {
            let o = MultipleRandomWalk::new(4).search(&g, NodeId::new(0), 40, &mut rng(seed));
            assert_eq!(o.messages, 40);
            assert!(
                (10..=20).contains(&o.hits),
                "hits {} outside [10, 20]",
                o.hits
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_walkers_is_rejected() {
        let _ = MultipleRandomWalk::new(0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RandomWalk::new().name(), "RW");
        assert_eq!(MultipleRandomWalk::new(2).name(), "multi-RW");
        assert_eq!(MultipleRandomWalk::new(2).walkers(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = RandomWalk::new().search(&g, NodeId::new(9), 2, &mut rng(8));
    }
}
