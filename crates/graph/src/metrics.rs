//! Topological metrics: degree distributions, path lengths, diameter, assortativity.
//!
//! Every figure in the paper is computed from one of these quantities: the degree
//! distribution `P(k)` (Figs. 1-4), the average shortest path / diameter (Table I), and the
//! reachability counts that underlie the search-efficiency plots (Figs. 6-12).

use crate::traversal::bfs_distances;
use crate::{GraphView, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Histogram of node degrees: `counts[k]` is the number of nodes with degree exactly `k`.
///
/// # Example
///
/// ```
/// use sfo_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1))?;
/// let hist = sfo_graph::degree_histogram(&g);
/// assert_eq!(hist.counts, vec![1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeHistogram {
    /// `counts[k]` is the number of nodes of degree `k`; the vector extends to the maximum
    /// degree present in the graph.
    pub counts: Vec<usize>,
    /// Total number of nodes the histogram was computed over.
    pub node_count: usize,
}

impl DegreeHistogram {
    /// Returns the empirical degree distribution `P(k)` as `(k, probability)` pairs,
    /// omitting degrees with zero count.
    pub fn distribution(&self) -> Vec<(usize, f64)> {
        if self.node_count == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k, c as f64 / self.node_count as f64))
            .collect()
    }

    /// Returns the maximum degree present, or `None` for an empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Returns the number of nodes whose degree equals `k` (0 if `k` exceeds the histogram).
    pub fn count(&self, k: usize) -> usize {
        self.counts.get(k).copied().unwrap_or(0)
    }

    /// Returns the fraction of nodes whose degree equals `k`.
    pub fn fraction(&self, k: usize) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            self.count(k) as f64 / self.node_count as f64
        }
    }
}

/// Computes the degree histogram of `graph`.
pub fn degree_histogram<G: GraphView + ?Sized>(graph: &G) -> DegreeHistogram {
    let max_degree = graph.max_degree().unwrap_or(0);
    let mut counts = vec![0usize; max_degree + 1];
    for node in graph.nodes() {
        counts[graph.degree(node)] += 1;
    }
    if graph.node_count() == 0 {
        counts.clear();
    }
    DegreeHistogram {
        counts,
        node_count: graph.node_count(),
    }
}

/// Summary statistics of shortest-path lengths within the giant component of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathStatistics {
    /// Mean hop distance between sampled reachable node pairs.
    pub average_shortest_path: f64,
    /// Largest hop distance observed among sampled pairs (a lower bound on the true
    /// diameter when sampling).
    pub diameter: u32,
    /// Number of source nodes the BFS sweep was run from.
    pub sources_sampled: usize,
    /// Number of (source, destination) pairs that contributed to the average.
    pub pairs_counted: usize,
}

/// Computes shortest-path statistics from `samples` BFS sources chosen uniformly at random.
///
/// This is the estimator used for Table I style diameter-scaling measurements on large
/// topologies: the mean shortest path converges quickly with the number of sources, while
/// the reported diameter is a lower bound.
pub fn path_statistics_sampled<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    samples: usize,
    rng: &mut R,
) -> PathStatistics {
    let mut sources: Vec<NodeId> = graph.nodes().collect();
    sources.shuffle(rng);
    sources.truncate(samples.max(1).min(graph.node_count()));
    path_statistics_from_sources(graph, &sources)
}

fn path_statistics_from_sources<G: GraphView + ?Sized>(
    graph: &G,
    sources: &[NodeId],
) -> PathStatistics {
    let mut total = 0u64;
    let mut pairs = 0usize;
    let mut diameter = 0u32;
    for &source in sources {
        let dist = bfs_distances(graph, source);
        for (i, d) in dist.iter().enumerate() {
            if i == source.index() {
                continue;
            }
            if let Some(d) = d {
                total += u64::from(*d);
                pairs += 1;
                diameter = diameter.max(*d);
            }
        }
    }
    PathStatistics {
        average_shortest_path: if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        },
        diameter,
        sources_sampled: sources.len(),
        pairs_counted: pairs,
    }
}

/// Computes the degree assortativity coefficient (Pearson correlation of the degrees at the
/// two ends of each edge).
///
/// Returns `None` when the graph has no edges or when every node has the same degree (the
/// correlation is undefined in those cases).
pub fn degree_assortativity<G: GraphView>(graph: &G) -> Option<f64> {
    if graph.edge_count() == 0 {
        return None;
    }
    let m = graph.edge_count() as f64;
    let mut sum_prod = 0.0;
    let mut sum_half = 0.0;
    let mut sum_sq_half = 0.0;
    for (a, b) in graph.edges() {
        let ka = graph.degree(a) as f64;
        let kb = graph.degree(b) as f64;
        sum_prod += ka * kb;
        sum_half += 0.5 * (ka + kb);
        sum_sq_half += 0.5 * (ka * ka + kb * kb);
    }
    let numerator = sum_prod / m - (sum_half / m).powi(2);
    let denominator = sum_sq_half / m - (sum_half / m).powi(2);
    if denominator.abs() < 1e-15 {
        None
    } else {
        Some(numerator / denominator)
    }
}

/// Counts the nodes reachable from `source` within `ttl` hops, excluding the source.
///
/// This is exactly the quantity an ideal flood with time-to-live `ttl` can hit, and serves
/// as the upper bound the search-efficiency figures compare against.
pub fn reachable_within<G: GraphView + ?Sized>(graph: &G, source: NodeId, ttl: u32) -> usize {
    crate::traversal::bfs_distances_bounded(graph, source, ttl)
        .iter()
        .enumerate()
        .filter(|(i, d)| *i != source.index() && d.is_some())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Exact statistics: a BFS from every node.
    fn path_statistics_exact(graph: &Graph) -> PathStatistics {
        path_statistics_from_sources(graph, &graph.nodes().collect::<Vec<_>>())
    }

    fn star_graph(leaves: usize) -> Graph {
        let mut g = Graph::with_nodes(leaves + 1);
        for i in 1..=leaves {
            g.add_edge(n(0), n(i)).unwrap();
        }
        g
    }

    fn cycle_graph(len: usize) -> Graph {
        let mut g = Graph::with_nodes(len);
        for i in 0..len {
            g.add_edge(n(i), n((i + 1) % len)).unwrap();
        }
        g
    }

    #[test]
    fn histogram_of_star_graph() {
        let g = star_graph(4);
        let hist = degree_histogram(&g);
        assert_eq!(hist.count(1), 4);
        assert_eq!(hist.count(4), 1);
        assert_eq!(hist.count(2), 0);
        assert_eq!(hist.max_degree(), Some(4));
        assert_eq!(hist.node_count, 5);
        let dist = hist.distribution();
        assert_eq!(dist, vec![(1, 0.8), (4, 0.2)]);
        assert!((hist.fraction(1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn histogram_of_empty_graph() {
        let hist = degree_histogram(&Graph::new());
        assert!(hist.counts.is_empty());
        assert!(hist.distribution().is_empty());
        assert_eq!(hist.max_degree(), None);
        assert_eq!(hist.fraction(0), 0.0);
    }

    #[test]
    fn path_statistics_of_cycle() {
        // A cycle of 6 nodes: distances from any node are 1,2,3,2,1 -> mean 1.8, diameter 3.
        let g = cycle_graph(6);
        let stats = path_statistics_exact(&g);
        assert!((stats.average_shortest_path - 1.8).abs() < 1e-12);
        assert_eq!(stats.diameter, 3);
        assert_eq!(stats.sources_sampled, 6);
        assert_eq!(stats.pairs_counted, 30);
    }

    #[test]
    fn sampled_path_statistics_match_exact_on_small_graph() {
        let g = cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(7);
        let sampled = path_statistics_sampled(&g, 8, &mut rng);
        let exact = path_statistics_exact(&g);
        assert!((sampled.average_shortest_path - exact.average_shortest_path).abs() < 1e-12);
        assert_eq!(sampled.diameter, exact.diameter);
    }

    #[test]
    fn sampled_path_statistics_clamp_sample_count() {
        let g = cycle_graph(5);
        let mut rng = StdRng::seed_from_u64(3);
        let stats = path_statistics_sampled(&g, 100, &mut rng);
        assert_eq!(stats.sources_sampled, 5);
    }

    #[test]
    fn assortativity_of_star_is_negative() {
        let r = degree_assortativity(&star_graph(6)).expect("star has varying degrees");
        assert!(r < 0.0, "hub-and-spoke graphs are disassortative, got {r}");
    }

    #[test]
    fn assortativity_of_regular_graph_is_undefined() {
        assert_eq!(degree_assortativity(&cycle_graph(5)), None);
        assert_eq!(degree_assortativity(&Graph::with_nodes(3)), None);
    }

    #[test]
    fn reachable_within_counts_exclude_source() {
        let g = cycle_graph(8);
        assert_eq!(reachable_within(&g, n(0), 1), 2);
        assert_eq!(reachable_within(&g, n(0), 2), 4);
        assert_eq!(reachable_within(&g, n(0), 10), 7);
        assert_eq!(reachable_within(&g, n(0), 0), 0);
    }
}
