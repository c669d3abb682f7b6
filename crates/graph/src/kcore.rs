//! k-core decomposition.
//!
//! The *k-core* of a graph is the maximal subgraph in which every node has degree at least
//! `k`; a node's *core number* is the largest `k` for which it belongs to the k-core. Core
//! numbers are a compact summary of how deeply embedded a peer is in the overlay: in
//! scale-free topologies the hubs populate the innermost cores, while hard cutoffs flatten
//! the core hierarchy by bounding how dense the innermost core can get. The paper's
//! connectedness guideline ("require 2-3 links per peer") is equivalently a statement about
//! the 2-core/3-core: flooding and random-walk searches only circulate well inside them.
//!
//! The decomposition runs in `O(N + E)` using the standard bucket-peeling algorithm
//! (Batagelj & Zaveršnik), and is generic over [`GraphView`], so it runs on a mutable
//! [`Graph`] or on a frozen [`CsrGraph`](crate::CsrGraph) snapshot alike.

use crate::{GraphView, NodeId};
use serde::{Deserialize, Serialize};

/// Result of a k-core decomposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreDecomposition {
    /// Core number of every node, indexed by node id.
    pub core_numbers: Vec<usize>,
    /// The largest core number present (the graph's *degeneracy*); zero for an empty or
    /// edgeless graph.
    pub degeneracy: usize,
}

impl CoreDecomposition {
    /// Returns the core number of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn core_number(&self, node: NodeId) -> usize {
        self.core_numbers[node.index()]
    }

    /// Returns the nodes belonging to the `k`-core (core number at least `k`).
    pub fn core_members(&self, k: usize) -> Vec<NodeId> {
        self.core_numbers
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= k)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Returns the number of nodes in each core: entry `k` is the size of the `k`-core.
    pub fn core_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.degeneracy + 1];
        for &c in &self.core_numbers {
            for size in sizes.iter_mut().take(c + 1) {
                *size += 1;
            }
        }
        sizes
    }
}

/// Computes the core number of every node with the linear-time bucket-peeling algorithm.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::complete_graph;
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let g = complete_graph(5)?;
/// let decomposition = sfo_graph::core_decomposition(&g);
/// assert_eq!(decomposition.degeneracy, 4);
/// assert!(decomposition.core_numbers.iter().all(|&c| c == 4));
/// # Ok(())
/// # }
/// ```
pub fn core_decomposition<G: GraphView + ?Sized>(graph: &G) -> CoreDecomposition {
    let n = graph.node_count();
    if n == 0 {
        return CoreDecomposition {
            core_numbers: Vec::new(),
            degeneracy: 0,
        };
    }
    let mut degree: Vec<usize> = graph.degrees();
    let max_degree = *degree.iter().max().expect("graph is non-empty");

    // Bucket sort the nodes by degree.
    let mut bin_starts = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin_starts[d + 1] += 1;
    }
    for i in 1..bin_starts.len() {
        bin_starts[i] += bin_starts[i - 1];
    }
    let mut position = vec![0usize; n];
    let mut sorted = vec![0usize; n];
    {
        let mut next = bin_starts.clone();
        for v in 0..n {
            let d = degree[v];
            position[v] = next[d];
            sorted[position[v]] = v;
            next[d] += 1;
        }
    }
    // bin_starts[d] is now the index of the first node with (current) degree d in `sorted`.
    let mut bin = bin_starts;

    let mut core = vec![0usize; n];
    for i in 0..n {
        let v = sorted[i];
        core[v] = degree[v];
        for &u in graph.neighbors(NodeId::new(v)) {
            let u = u.index();
            if degree[u] > degree[v] {
                // Move u to the front of its degree bucket, then shrink its degree by one.
                let du = degree[u];
                let pu = position[u];
                let pw = bin[du];
                let w = sorted[pw];
                if u != w {
                    sorted.swap(pu, pw);
                    position[u] = pw;
                    position[w] = pu;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }

    let degeneracy = core.iter().copied().max().unwrap_or(0);
    CoreDecomposition {
        core_numbers: core,
        degeneracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, ring_graph};
    use crate::Graph;

    #[test]
    fn decomposition_is_identical_on_frozen_snapshots() {
        let mut g = complete_graph(6).unwrap();
        g.add_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(6)).unwrap();
        let frozen = g.freeze();
        assert_eq!(core_decomposition(&g), core_decomposition(&frozen));
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph_has_no_cores() {
        let decomposition = core_decomposition(&Graph::new());
        assert_eq!(decomposition.degeneracy, 0);
        assert!(decomposition.core_numbers.is_empty());
    }

    #[test]
    fn isolated_nodes_have_core_number_zero() {
        let g = Graph::with_nodes(4);
        let decomposition = core_decomposition(&g);
        assert_eq!(decomposition.core_numbers, vec![0, 0, 0, 0]);
        assert_eq!(decomposition.degeneracy, 0);
    }

    #[test]
    fn complete_graph_core_numbers() {
        let g = complete_graph(6).unwrap();
        let decomposition = core_decomposition(&g);
        assert!(decomposition.core_numbers.iter().all(|&c| c == 5));
        assert_eq!(decomposition.degeneracy, 5);
        assert_eq!(decomposition.core_members(5).len(), 6);
        assert!(decomposition.core_members(6).is_empty());
    }

    #[test]
    fn ring_is_a_pure_2_core() {
        let g = ring_graph(10, 1).unwrap();
        let decomposition = core_decomposition(&g);
        assert!(decomposition.core_numbers.iter().all(|&c| c == 2));
        assert_eq!(decomposition.degeneracy, 2);
    }

    #[test]
    fn tree_is_a_pure_1_core() {
        // A star: center plus leaves. Every node peels at 1.
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(n(0), n(i)).unwrap();
        }
        let decomposition = core_decomposition(&g);
        assert!(decomposition.core_numbers.iter().all(|&c| c == 1));
        assert_eq!(decomposition.degeneracy, 1);
    }

    #[test]
    fn pendant_attached_to_a_triangle() {
        // Triangle 0-1-2 plus pendant 3 attached to 0: triangle is the 2-core, the pendant
        // has core number 1.
        let mut g = Graph::with_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(0)).unwrap();
        g.add_edge(n(0), n(3)).unwrap();
        let decomposition = core_decomposition(&g);
        assert_eq!(decomposition.core_number(n(0)), 2);
        assert_eq!(decomposition.core_number(n(1)), 2);
        assert_eq!(decomposition.core_number(n(2)), 2);
        assert_eq!(decomposition.core_number(n(3)), 1);
        assert_eq!(decomposition.degeneracy, 2);
        assert_eq!(decomposition.core_members(2), vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn core_sizes_are_monotone_decreasing() {
        let mut g = complete_graph(5).unwrap();
        let pendant = g.add_node();
        g.add_edge(n(0), pendant).unwrap();
        let decomposition = core_decomposition(&g);
        let sizes = decomposition.core_sizes();
        assert_eq!(sizes[0], 6);
        assert_eq!(sizes[1], 6);
        assert_eq!(sizes[4], 5);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "core sizes must be monotone non-increasing");
        }
    }

    #[test]
    fn core_numbers_never_exceed_degree() {
        let mut g = ring_graph(30, 2).unwrap();
        g.add_edge(n(0), n(15)).unwrap();
        let decomposition = core_decomposition(&g);
        for node in g.nodes() {
            assert!(decomposition.core_number(node) <= g.degree(node));
        }
    }
}
