//! Simple undirected graph stored as adjacency lists.

use crate::{CsrGraph, GraphError, GraphView, NodeId, Result};
use serde::{Deserialize, Serialize};

/// A simple undirected graph: no self-loops, no parallel edges.
///
/// This is the representation every overlay topology in the workspace is built on.
/// Nodes are identified by dense [`NodeId`] indices; adjacency is stored as one
/// `Vec<NodeId>` per node, so `neighbors` is a cheap slice borrow and degree lookups are
/// O(1). Edge existence checks are O(min-degree) which is appropriate for the sparse,
/// cutoff-bounded graphs this workspace manipulates.
///
/// # Example
///
/// ```
/// use sfo_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b)?;
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.neighbors(a), &[b]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph with no nodes.
    pub fn new() -> Self {
        Graph {
            adjacency: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Graph {
            adjacency: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Creates a graph containing `nodes` isolated nodes with ids `0..nodes`.
    pub fn with_nodes(nodes: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); nodes],
            edge_count: 0,
        }
    }

    /// Builds a graph directly from adjacency lists known to describe a valid simple
    /// graph (mirrored entries, no self-loops or duplicates). Used by
    /// [`CsrGraph::thaw`] to reproduce the frozen neighbor order exactly.
    pub(crate) fn from_adjacency(adjacency: Vec<Vec<NodeId>>, edge_count: usize) -> Self {
        let graph = Graph {
            adjacency,
            edge_count,
        };
        debug_assert!({
            graph.assert_consistent();
            true
        });
        graph
    }

    /// Freezes the graph into an immutable [`CsrGraph`] snapshot in O(V + E).
    ///
    /// The snapshot preserves per-node neighbor order, so any algorithm generic over
    /// [`GraphView`] behaves identically on the graph and on its frozen form.
    /// [`CsrGraph::thaw`] converts back.
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_graph(self)
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adjacency.len());
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds `count` new isolated nodes, returning the id of the first one added.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = NodeId::new(self.adjacency.len());
        self.adjacency
            .extend(std::iter::repeat_with(Vec::new).take(count));
        first
    }

    /// Returns the number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns the number of undirected edges in the graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Returns `true` if `node` refers to a node present in the graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.adjacency.len()
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        }
    }

    /// Returns the degree (number of neighbors) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Returns the neighbors of `node` as a slice, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Returns `true` if an edge between `a` and `b` exists.
    ///
    /// The check scans the adjacency list of the lower-degree endpoint.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        GraphView::contains_edge(self, a, b)
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not exist,
    /// [`GraphError::SelfLoop`] if `a == b`, and [`GraphError::DuplicateEdge`] if the edge
    /// already exists.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        if self.contains_edge(a, b) {
            return Err(GraphError::DuplicateEdge { a, b });
        }
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
        self.edge_count += 1;
        Ok(())
    }

    /// Adds an undirected edge between `a` and `b` if it is not already present.
    ///
    /// Returns `true` if the edge was added, `false` if it already existed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not exist and
    /// [`GraphError::SelfLoop`] if `a == b`.
    pub fn add_edge_if_absent(&mut self, a: NodeId, b: NodeId) -> Result<bool> {
        match self.add_edge(a, b) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes the undirected edge between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not exist and
    /// [`GraphError::MissingEdge`] if the edge is not present.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !self.contains_edge(a, b) {
            return Err(GraphError::MissingEdge { a, b });
        }
        let adj_a = &mut self.adjacency[a.index()];
        if let Some(pos) = adj_a.iter().position(|&n| n == b) {
            adj_a.swap_remove(pos);
        }
        let adj_b = &mut self.adjacency[b.index()];
        if let Some(pos) = adj_b.iter().position(|&n| n == a) {
            adj_b.swap_remove(pos);
        }
        self.edge_count -= 1;
        Ok(())
    }

    /// Removes every edge incident to `node`, leaving the node isolated in place.
    ///
    /// This is the operation used to model a peer leaving the overlay: node ids stay
    /// dense and stable while the departed peer keeps no links.
    ///
    /// Returns the neighbors the node had before isolation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node` does not exist.
    pub fn isolate_node(&mut self, node: NodeId) -> Result<Vec<NodeId>> {
        self.check_node(node)?;
        let neighbors = std::mem::take(&mut self.adjacency[node.index()]);
        for &n in &neighbors {
            let adj = &mut self.adjacency[n.index()];
            if let Some(pos) = adj.iter().position(|&x| x == node) {
                adj.swap_remove(pos);
            }
        }
        self.edge_count -= neighbors.len();
        Ok(neighbors)
    }

    /// Returns an iterator over all node ids in the graph.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len()).map(NodeId::new)
    }

    /// Returns an iterator over all undirected edges, each reported once as `(a, b)` with
    /// `a < b`.
    pub fn edges(&self) -> EdgeIter<'_> {
        GraphView::edges(self)
    }

    /// Returns an iterator over the neighbors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn neighbor_iter(&self, node: NodeId) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.adjacency[node.index()].iter(),
        }
    }

    /// Returns the degrees of all nodes, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency.iter().map(Vec::len).collect()
    }

    /// Returns the sum of all node degrees (twice the edge count).
    pub fn total_degree(&self) -> usize {
        2 * self.edge_count
    }

    /// Returns the minimum degree over all nodes, or `None` for an empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(Vec::len).min()
    }

    /// Returns the maximum degree over all nodes, or `None` for an empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(Vec::len).max()
    }

    /// Returns the average degree, `2E / N`, or `0.0` for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            0.0
        } else {
            self.total_degree() as f64 / self.node_count() as f64
        }
    }

    /// Asserts internal consistency of the adjacency structure.
    ///
    /// Checks that every adjacency entry is mirrored, that no self-loops or duplicate
    /// entries exist, and that the cached edge count matches the adjacency lists. Intended
    /// for tests and debugging; cost is O(N + E log E).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency found.
    pub fn assert_consistent(&self) {
        let mut seen_edges = 0usize;
        for (i, adj) in self.adjacency.iter().enumerate() {
            let node = NodeId::new(i);
            let mut sorted = adj.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert!(
                    w[0] != w[1],
                    "duplicate adjacency entry {} on node {}",
                    w[0],
                    node
                );
            }
            for &n in adj {
                assert!(n != node, "self-loop on node {node}");
                assert!(
                    self.adjacency[n.index()].contains(&node),
                    "edge {node}-{n} is not mirrored"
                );
                if node < n {
                    seen_edges += 1;
                }
            }
        }
        assert_eq!(seen_edges, self.edge_count, "edge count cache out of sync");
    }
}

impl GraphView for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    #[inline]
    fn degree(&self, node: NodeId) -> usize {
        Graph::degree(self, node)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        Graph::neighbors(self, node)
    }
}

/// Iterator over the undirected edges of a [`Graph`], produced by [`Graph::edges`].
///
/// Each edge is yielded exactly once as `(a, b)` with `a < b`. This is the shared
/// [`ViewEdges`](crate::ViewEdges) iterator instantiated for the adjacency-list backend,
/// so both backends iterate edges through one implementation.
pub(crate) type EdgeIter<'a> = crate::ViewEdges<'a, Graph>;

/// Iterator over the neighbors of a node, produced by [`Graph::neighbor_iter`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, NodeId>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

impl Extend<(NodeId, NodeId)> for Graph {
    /// Extends the graph with edges, growing the node set as needed and ignoring
    /// duplicate edges and self-loops.
    fn extend<T: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: T) {
        for (a, b) in iter {
            let needed = a.index().max(b.index()) + 1;
            if needed > self.node_count() {
                self.add_nodes(needed - self.node_count());
            }
            if a != b {
                let _ = self.add_edge_if_absent(a, b);
            }
        }
    }
}

impl FromIterator<(NodeId, NodeId)> for Graph {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_degree(), None);
        assert_eq!(g.max_degree(), None);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut g = Graph::new();
        assert_eq!(g.add_node(), n(0));
        assert_eq!(g.add_nodes(3), n(1));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn add_edge_and_query() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains_edge(n(0), n(1)));
        assert!(g.contains_edge(n(1), n(0)));
        assert!(!g.contains_edge(n(0), n(2)));
        assert_eq!(g.degree(n(1)), 2);
        assert_eq!(g.neighbors(n(1)), &[n(0), n(2)]);
        g.assert_consistent();
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(
            g.add_edge(n(1), n(1)),
            Err(GraphError::SelfLoop { node: n(1) })
        );
    }

    #[test]
    fn add_edge_rejects_duplicate() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(
            g.add_edge(n(1), n(0)),
            Err(GraphError::DuplicateEdge { a: n(1), b: n(0) })
        );
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_edge_rejects_out_of_bounds() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(
            g.add_edge(n(0), n(5)),
            Err(GraphError::NodeOutOfBounds {
                node: n(5),
                node_count: 2
            })
        );
    }

    #[test]
    fn add_edge_if_absent_reports_presence() {
        let mut g = Graph::with_nodes(2);
        assert!(g.add_edge_if_absent(n(0), n(1)).unwrap());
        assert!(!g.add_edge_if_absent(n(0), n(1)).unwrap());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_edge_updates_both_endpoints() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.remove_edge(n(0), n(1)).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(!g.contains_edge(n(0), n(1)));
        assert_eq!(g.degree(n(0)), 0);
        assert_eq!(g.degree(n(1)), 1);
        g.assert_consistent();
    }

    #[test]
    fn remove_missing_edge_is_error() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(
            g.remove_edge(n(0), n(1)),
            Err(GraphError::MissingEdge { a: n(0), b: n(1) })
        );
    }

    #[test]
    fn isolate_node_removes_incident_edges() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        let mut former = g.isolate_node(n(0)).unwrap();
        former.sort_unstable();
        assert_eq!(former, vec![n(1), n(2)]);
        assert_eq!(g.degree(n(0)), 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.contains_edge(n(2), n(3)));
        g.assert_consistent();
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g.add_edge(n(3), n(0)).unwrap();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(
            edges,
            vec![(n(0), n(1)), (n(0), n(3)), (n(1), n(2)), (n(2), n(3))]
        );
    }

    #[test]
    fn degree_statistics() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(0), n(3)).unwrap();
        assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(g.total_degree(), 6);
        assert_eq!(g.min_degree(), Some(1));
        assert_eq!(g.max_degree(), Some(3));
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn extend_and_collect_grow_node_set() {
        let g: Graph = vec![(n(0), n(1)), (n(1), n(4)), (n(1), n(4)), (n(2), n(2))]
            .into_iter()
            .collect();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 2);
        g.assert_consistent();
    }

    #[test]
    fn neighbor_iter_matches_slice() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        let via_iter: Vec<_> = g.neighbor_iter(n(0)).collect();
        assert_eq!(via_iter, g.neighbors(n(0)).to_vec());
        assert_eq!(g.neighbor_iter(n(0)).len(), 2);
    }

    #[test]
    fn clone_preserves_structure() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        let copy = g.clone();
        assert_eq!(copy, g);
        assert_eq!(copy.edge_count(), 2);
        copy.assert_consistent();
    }
}
