//! Betweenness centrality: the fraction of shortest paths passing through a node.
//!
//! Scale-free overlays concentrate both links *and* traffic on their hubs — that is the
//! load-imbalance problem that motivates hard cutoffs in the first place (paper, §I and
//! §III). Betweenness is a direct proxy for the forwarding load a peer carries in
//! flooding and random-walk searches, and the `hub-load` experiment reports its maximum.
//!
//! It uses Brandes' algorithm (`O(N·E)` for unweighted graphs), accumulated from a
//! sample of sources; sampling every node gives the exact score.

use crate::{GraphView, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-node centrality scores, indexed by node id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralityScores {
    /// Score of every node, indexed by node id.
    pub scores: Vec<f64>,
}

impl CentralityScores {
    /// Returns the score of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn score(&self, node: NodeId) -> f64 {
        self.scores[node.index()]
    }

    /// Returns the node with the highest score, or `None` for an empty graph.
    pub fn most_central(&self) -> Option<NodeId> {
        self.scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("centrality scores are finite"))
            .map(|(i, _)| NodeId::new(i))
    }

    /// Returns the node ids sorted by descending score.
    pub fn ranking(&self) -> Vec<NodeId> {
        let mut order: Vec<usize> = (0..self.scores.len()).collect();
        order.sort_by(|&a, &b| {
            self.scores[b]
                .partial_cmp(&self.scores[a])
                .expect("centrality scores are finite")
        });
        order.into_iter().map(NodeId::new).collect()
    }

    /// Returns the mean score (0 for an empty graph).
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            0.0
        } else {
            self.scores.iter().sum::<f64>() / self.scores.len() as f64
        }
    }

    /// Returns the maximum score (0 for an empty graph).
    pub fn max(&self) -> f64 {
        self.scores.iter().copied().fold(0.0, f64::max)
    }
}

/// Estimates betweenness centrality by accumulating Brandes' dependencies from `samples`
/// random source nodes, scaled to estimate the exact normalized score.
pub fn betweenness_centrality_sampled<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    samples: usize,
    rng: &mut R,
) -> CentralityScores {
    let mut sources: Vec<NodeId> = graph.nodes().collect();
    sources.shuffle(rng);
    sources.truncate(samples.max(1).min(graph.node_count()));
    let mut scores = betweenness_from_sources(graph, &sources);
    normalize_betweenness(&mut scores, graph.node_count(), sources.len());
    CentralityScores { scores }
}

fn normalize_betweenness(scores: &mut [f64], node_count: usize, sources_used: usize) {
    if node_count < 3 || sources_used == 0 {
        return;
    }
    // Undirected graphs double-count each pair; scale partial sweeps up to a full sweep.
    let pair_normalization = (node_count - 1) as f64 * (node_count - 2) as f64;
    let sweep_scale = node_count as f64 / sources_used as f64;
    for score in scores.iter_mut() {
        *score *= sweep_scale / pair_normalization;
    }
}

fn betweenness_from_sources<G: GraphView + ?Sized>(graph: &G, sources: &[NodeId]) -> Vec<f64> {
    let n = graph.node_count();
    let mut centrality = vec![0.0f64; n];
    // Reusable per-sweep buffers.
    let mut sigma = vec![0.0f64; n];
    let mut distance = vec![-1i64; n];
    let mut delta = vec![0.0f64; n];
    let mut predecessors: Vec<Vec<NodeId>> = vec![Vec::new(); n];

    for &source in sources {
        for v in 0..n {
            sigma[v] = 0.0;
            distance[v] = -1;
            delta[v] = 0.0;
            predecessors[v].clear();
        }
        sigma[source.index()] = 1.0;
        distance[source.index()] = 0;

        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = distance[v.index()];
            for &w in graph.neighbors(v) {
                if distance[w.index()] < 0 {
                    distance[w.index()] = dv + 1;
                    queue.push_back(w);
                }
                if distance[w.index()] == dv + 1 {
                    sigma[w.index()] += sigma[v.index()];
                    predecessors[w.index()].push(v);
                }
            }
        }

        for &w in order.iter().rev() {
            for &v in &predecessors[w.index()] {
                delta[v.index()] += sigma[v.index()] / sigma[w.index()] * (1.0 + delta[w.index()]);
            }
            if w != source {
                centrality[w.index()] += delta[w.index()];
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, ring_graph};
    use crate::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Path graph 0 - 1 - 2 - 3 - 4.
    fn path5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(n(i), n(i + 1)).unwrap();
        }
        g
    }

    /// Star with center 0 and 4 leaves.
    fn star5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(n(0), n(i)).unwrap();
        }
        g
    }

    /// Exact betweenness: Brandes' dependencies accumulated from every source.
    fn betweenness_centrality(graph: &Graph) -> CentralityScores {
        let mut rng = StdRng::seed_from_u64(0);
        betweenness_centrality_sampled(graph, graph.node_count(), &mut rng)
    }

    #[test]
    fn betweenness_of_a_path_peaks_in_the_middle() {
        let scores = betweenness_centrality(&path5());
        assert_eq!(scores.most_central(), Some(n(2)));
        // Ends lie on no shortest path between other nodes.
        assert!(scores.score(n(0)).abs() < 1e-12);
        assert!(scores.score(n(4)).abs() < 1e-12);
        // Middle node lies on all paths between {0,1} and {3,4}: 4 of the 6 pairs.
        assert!((scores.score(n(2)) - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_of_a_star_center_is_one() {
        let scores = betweenness_centrality(&star5());
        assert!((scores.score(n(0)) - 1.0).abs() < 1e-9);
        for i in 1..5 {
            assert!(scores.score(n(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_of_a_complete_graph_is_zero() {
        let scores = betweenness_centrality(&complete_graph(6).unwrap());
        assert!(scores.scores.iter().all(|&s| s.abs() < 1e-12));
    }

    #[test]
    fn ring_nodes_are_interchangeable() {
        let g = ring_graph(8, 1).unwrap();
        let betweenness = betweenness_centrality(&g);
        for v in g.nodes() {
            assert!((betweenness.score(v) - betweenness.score(n(0))).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_betweenness_tracks_exact_on_a_star() {
        let g = star5();
        let mut rng = StdRng::seed_from_u64(3);
        let sampled = betweenness_centrality_sampled(&g, 5, &mut rng);
        let exact = betweenness_centrality(&g);
        assert_eq!(sampled.most_central(), exact.most_central());
        assert!((sampled.score(n(0)) - exact.score(n(0))).abs() < 1e-9);
    }

    #[test]
    fn scores_helpers_on_empty_graph() {
        let scores = betweenness_centrality(&Graph::new());
        assert_eq!(scores.most_central(), None);
        assert_eq!(scores.mean(), 0.0);
        assert_eq!(scores.max(), 0.0);
        assert!(scores.ranking().is_empty());
    }

    #[test]
    fn mean_and_max_are_consistent() {
        let scores = betweenness_centrality(&star5());
        assert!(scores.max() >= scores.mean());
        assert!((scores.max() - 1.0).abs() < 1e-12);
    }
}
