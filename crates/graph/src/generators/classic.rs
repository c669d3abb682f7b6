//! Classic graph generators used as baselines, initial seeds, and test fixtures.
//!
//! * [`complete_graph`] — the fully connected seed of `m + 1` nodes the preferential
//!   attachment variants start from (paper, Appendix A and C).
//! * [`ring_graph`] — the regular ring lattice, a fixture of the search and wire tests.

use crate::{Graph, GraphError, NodeId, Result};

/// Generates the complete graph on `n` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n` is zero.
pub fn complete_graph(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "complete graph needs at least one node",
        });
    }
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId::new(i), NodeId::new(j))?;
        }
    }
    Ok(g)
}

/// Generates a ring in which every node is connected to its `k` nearest neighbors on each
/// side (a circulant graph, the starting point of the Watts-Strogatz model).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`, `k == 0`, or `2k >= n` (the ring
/// would degenerate into a multigraph).
pub fn ring_graph(n: usize, k: usize) -> Result<Graph> {
    if n == 0 || k == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "ring graph needs positive size and degree",
        });
    }
    if 2 * k >= n {
        return Err(GraphError::InvalidParameter {
            reason: "ring graph requires the neighborhood radius to be below half the ring size",
        });
    }
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for offset in 1..=k {
            let j = (i + offset) % n;
            g.add_edge(NodeId::new(i), NodeId::new(j))?;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn complete_graph_has_all_edges() {
        let g = complete_graph(5).unwrap();
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.min_degree(), Some(4));
        assert!(complete_graph(0).is_err());
    }

    #[test]
    fn complete_graph_of_one_node_has_no_edges() {
        let g = complete_graph(1).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn ring_graph_is_regular_and_connected() {
        let g = ring_graph(10, 2).unwrap();
        assert_eq!(g.edge_count(), 20);
        assert_eq!(g.min_degree(), Some(4));
        assert_eq!(g.max_degree(), Some(4));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn ring_graph_rejects_degenerate_parameters() {
        assert!(ring_graph(0, 1).is_err());
        assert!(ring_graph(10, 0).is_err());
        assert!(ring_graph(6, 3).is_err());
    }
}
