//! Degree correlations: average neighbor degree `k_nn(k)` and the rich-club coefficient.
//!
//! The configuration-model literature the paper builds on (refs. \[50\], \[59\]) distinguishes
//! networks by whether high-degree nodes preferentially link to each other. Two standard
//! summaries are provided here:
//!
//! * `k_nn(k)` — the mean degree of the neighbors of degree-`k` nodes. A rising `k_nn(k)`
//!   means assortative mixing (hubs attach to hubs), a falling one means disassortative
//!   mixing (hubs attach to satellites, the typical scale-free pattern), and a flat one
//!   means no degree correlations (the UCM target).
//! * the rich-club coefficient `φ(k)` — the edge density among nodes of degree greater
//!   than `k`. Super-hub formation (HAPA without a cutoff) shows up as a rich club; hard
//!   cutoffs dissolve it.

use crate::metrics::degree_histogram;
use crate::{GraphView, NodeId};
use serde::{Deserialize, Serialize};

/// Average degree of each node's neighbors, indexed by node id (`0.0` for isolated nodes).
pub(crate) fn average_neighbor_degree<G: GraphView + ?Sized>(graph: &G) -> Vec<f64> {
    graph
        .nodes()
        .map(|v| {
            let k = graph.degree(v);
            if k == 0 {
                0.0
            } else {
                let sum: usize = graph.neighbors(v).iter().map(|&u| graph.degree(u)).sum();
                sum as f64 / k as f64
            }
        })
        .collect()
}

/// One point of the `k_nn(k)` curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnnPoint {
    /// Node degree `k`.
    pub degree: usize,
    /// Mean over degree-`k` nodes of the average degree of their neighbors.
    pub average_neighbor_degree: f64,
    /// Number of nodes of degree `k` that contributed.
    pub nodes: usize,
}

/// Computes the degree-dependent average neighbor degree `k_nn(k)`.
///
/// Degrees with no nodes are omitted; isolated nodes (degree 0) are skipped because they
/// have no neighbors to average over.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::complete_graph;
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let g = complete_graph(5)?;
/// let knn = sfo_graph::knn_by_degree(&g);
/// assert_eq!(knn.len(), 1);
/// assert_eq!(knn[0].degree, 4);
/// assert!((knn[0].average_neighbor_degree - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn knn_by_degree<G: GraphView + ?Sized>(graph: &G) -> Vec<KnnPoint> {
    let per_node = average_neighbor_degree(graph);
    let max_degree = graph.max_degree().unwrap_or(0);
    let mut sums = vec![0.0f64; max_degree + 1];
    let mut counts = vec![0usize; max_degree + 1];
    for v in graph.nodes() {
        let k = graph.degree(v);
        if k == 0 {
            continue;
        }
        sums[k] += per_node[v.index()];
        counts[k] += 1;
    }
    (1..=max_degree)
        .filter(|&k| counts[k] > 0)
        .map(|k| KnnPoint {
            degree: k,
            average_neighbor_degree: sums[k] / counts[k] as f64,
            nodes: counts[k],
        })
        .collect()
}

/// One point of the rich-club curve `φ(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RichClubPoint {
    /// Degree threshold `k`: the club contains nodes with degree strictly greater than `k`.
    pub degree: usize,
    /// Number of nodes in the club.
    pub club_size: usize,
    /// Edges among club members.
    pub internal_edges: usize,
    /// `φ(k)` = internal edges divided by the maximum possible `club_size·(club_size-1)/2`,
    /// or 0 when the club has fewer than two members.
    pub coefficient: f64,
}

/// Computes the rich-club coefficient `φ(k)` for every degree threshold `k` present in the
/// graph (from 0 up to the maximum degree minus one).
pub fn rich_club_coefficients<G: GraphView>(graph: &G) -> Vec<RichClubPoint> {
    let max_degree = graph.max_degree().unwrap_or(0);
    if max_degree == 0 {
        return Vec::new();
    }
    let degrees = graph.degrees();
    (0..max_degree)
        .map(|k| {
            let members: Vec<NodeId> = graph.nodes().filter(|v| degrees[v.index()] > k).collect();
            let club_size = members.len();
            let in_club = |v: NodeId| degrees[v.index()] > k;
            let internal_edges = graph
                .edges()
                .filter(|&(a, b)| in_club(a) && in_club(b))
                .count();
            let possible = club_size.saturating_sub(1) * club_size / 2;
            let coefficient = if possible == 0 {
                0.0
            } else {
                internal_edges as f64 / possible as f64
            };
            RichClubPoint {
                degree: k,
                club_size,
                internal_edges,
                coefficient,
            }
        })
        .collect()
}

/// Returns the fraction of nodes whose degree equals the histogram mode (the most common
/// degree), a crude measure of how strongly a hard cutoff piles nodes up at one value.
pub fn modal_degree_fraction<G: GraphView + ?Sized>(graph: &G) -> f64 {
    let hist = degree_histogram(graph);
    match hist.counts.iter().max() {
        Some(&max_count) if hist.node_count > 0 => max_count as f64 / hist.node_count as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, ring_graph};
    use crate::Graph;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Star with center 0 and 4 leaves.
    fn star5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(n(0), n(i)).unwrap();
        }
        g
    }

    #[test]
    fn average_neighbor_degree_of_a_star() {
        let per_node = average_neighbor_degree(&star5());
        assert!(
            (per_node[0] - 1.0).abs() < 1e-12,
            "center's neighbors are all leaves"
        );
        for value in &per_node[1..5] {
            assert!(
                (value - 4.0).abs() < 1e-12,
                "each leaf's only neighbor is the hub"
            );
        }
    }

    #[test]
    fn isolated_nodes_have_zero_neighbor_degree() {
        let g = Graph::with_nodes(3);
        assert_eq!(average_neighbor_degree(&g), vec![0.0, 0.0, 0.0]);
        assert!(knn_by_degree(&g).is_empty());
    }

    #[test]
    fn knn_of_a_star_is_disassortative() {
        let knn = knn_by_degree(&star5());
        // Degree-1 nodes (leaves) have neighbor degree 4; the degree-4 node has neighbor
        // degree 1. A falling knn(k) curve is the disassortative signature.
        assert_eq!(knn.len(), 2);
        assert_eq!(knn[0].degree, 1);
        assert!((knn[0].average_neighbor_degree - 4.0).abs() < 1e-12);
        assert_eq!(knn[0].nodes, 4);
        assert_eq!(knn[1].degree, 4);
        assert!((knn[1].average_neighbor_degree - 1.0).abs() < 1e-12);
        assert!(knn[0].average_neighbor_degree > knn[1].average_neighbor_degree);
    }

    #[test]
    fn knn_of_a_regular_graph_is_flat() {
        let g = ring_graph(12, 2).unwrap();
        let knn = knn_by_degree(&g);
        assert_eq!(knn.len(), 1);
        assert_eq!(knn[0].degree, 4);
        assert!((knn[0].average_neighbor_degree - 4.0).abs() < 1e-12);
        assert_eq!(knn[0].nodes, 12);
    }

    #[test]
    fn rich_club_of_a_complete_graph_is_one() {
        let g = complete_graph(6).unwrap();
        let points = rich_club_coefficients(&g);
        // Thresholds 0..4; every club is the full clique.
        assert_eq!(points.len(), 5);
        for p in &points {
            assert_eq!(p.club_size, 6);
            assert_eq!(p.internal_edges, 15);
            assert!((p.coefficient - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rich_club_of_a_star_has_no_internal_edges_above_threshold_one() {
        let points = rich_club_coefficients(&star5());
        // Threshold 1: club = {center}; no pair, coefficient 0.
        let p1 = points.iter().find(|p| p.degree == 1).unwrap();
        assert_eq!(p1.club_size, 1);
        assert_eq!(p1.internal_edges, 0);
        assert_eq!(p1.coefficient, 0.0);
        // Threshold 0: club = everyone; 4 of the 10 possible edges exist.
        let p0 = points.iter().find(|p| p.degree == 0).unwrap();
        assert_eq!(p0.club_size, 5);
        assert!((p0.coefficient - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rich_club_is_empty_for_edgeless_graphs() {
        assert!(rich_club_coefficients(&Graph::with_nodes(4)).is_empty());
        assert!(rich_club_coefficients(&Graph::new()).is_empty());
    }

    #[test]
    fn modal_degree_fraction_detects_regularity() {
        let ring = ring_graph(10, 1).unwrap();
        assert!((modal_degree_fraction(&ring) - 1.0).abs() < 1e-12);
        let star = star5();
        assert!((modal_degree_fraction(&star) - 0.8).abs() < 1e-12);
        assert_eq!(modal_degree_fraction(&Graph::new()), 0.0);
    }
}
