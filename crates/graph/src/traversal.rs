//! Breadth-first search, connected components, and horizon queries.
//!
//! The topology generators and search algorithms in this workspace are all built on
//! breadth-first traversals: DAPA discovers the peers within a local time-to-live
//! `τ_sub` of a joining node (its *horizon*), flooding reaches all nodes within `τ` hops,
//! and the figures that report connectivity rely on component extraction.

use crate::{GraphView, NodeId};
use std::collections::VecDeque;

/// Hop distance from a breadth-first source to a node, `None` when unreachable.
pub(crate) type Distances = Vec<Option<u32>>;

/// Computes the hop distance from `source` to every node of `graph`.
///
/// Unreachable nodes get `None`. The source itself has distance `Some(0)`.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Example
///
/// ```
/// use sfo_graph::{Graph, NodeId, traversal};
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let mut g = Graph::with_nodes(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1))?;
/// g.add_edge(NodeId::new(1), NodeId::new(2))?;
/// let dist = traversal::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(dist[2], Some(2));
/// assert_eq!(dist[3], None);
/// # Ok(())
/// # }
/// ```
pub fn bfs_distances<G: GraphView + ?Sized>(graph: &G, source: NodeId) -> Distances {
    bfs_distances_bounded(graph, source, u32::MAX)
}

/// Computes hop distances from `source`, abandoning the traversal beyond `max_depth` hops.
///
/// Nodes farther than `max_depth` (or unreachable) get `None`.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub(crate) fn bfs_distances_bounded<G: GraphView + ?Sized>(
    graph: &G,
    source: NodeId,
    max_depth: u32,
) -> Distances {
    assert!(
        graph.contains_node(source),
        "bfs source {source} out of bounds"
    );
    let mut dist: Distances = vec![None; graph.node_count()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(node) = queue.pop_front() {
        let d = dist[node.index()].expect("queued nodes have distances");
        if d >= max_depth {
            continue;
        }
        for &next in graph.neighbors(node) {
            if dist[next.index()].is_none() {
                dist[next.index()] = Some(d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Returns the nodes within `max_depth` hops of `source`, excluding the source itself,
/// together with their hop distances.
///
/// This is the *horizon* query used by the DAPA join procedure (paper, Alg. 4, lines 4-10):
/// a joining node floods a discovery query `τ_sub` hops into the substrate and collects the
/// peers it can see.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn horizon<G: GraphView + ?Sized>(
    graph: &G,
    source: NodeId,
    max_depth: u32,
) -> Vec<(NodeId, u32)> {
    let dist = bfs_distances_bounded(graph, source, max_depth);
    dist.iter()
        .enumerate()
        .filter_map(|(i, d)| match d {
            Some(d) if *d > 0 => Some((NodeId::new(i), *d)),
            _ => None,
        })
        .collect()
}

/// Returns the connected components of `graph`, each as a sorted list of node ids.
///
/// Components are reported in order of their smallest node id.
pub fn connected_components<G: GraphView + ?Sized>(graph: &G) -> Vec<Vec<NodeId>> {
    let mut visited = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for start in graph.nodes() {
        if visited[start.index()] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::new();
        visited[start.index()] = true;
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            component.push(node);
            for &next in graph.neighbors(node) {
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    queue.push_back(next);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// Returns the number of nodes in the largest connected component, or 0 for an empty graph.
pub(crate) fn giant_component_size<G: GraphView + ?Sized>(graph: &G) -> usize {
    connected_components(graph)
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
}

/// Returns `true` if the graph is connected (every node reachable from every other).
///
/// The empty graph and the single-node graph are considered connected.
pub fn is_connected<G: GraphView + ?Sized>(graph: &G) -> bool {
    if graph.node_count() <= 1 {
        return true;
    }
    let dist = bfs_distances(graph, NodeId::new(0));
    dist.iter().all(Option::is_some)
}

/// Returns the fraction of nodes contained in the largest connected component.
///
/// Returns `0.0` for an empty graph. The paper uses this to explain why flooding on
/// configuration-model topologies with minimum degree 1 never reaches the full system size.
pub fn giant_component_fraction<G: GraphView + ?Sized>(graph: &G) -> f64 {
    if graph.node_count() == 0 {
        0.0
    } else {
        giant_component_size(graph) as f64 / graph.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphError};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn path_graph(len: usize) -> Graph {
        let mut g = Graph::with_nodes(len);
        for i in 1..len {
            g.add_edge(n(i - 1), n(i)).unwrap();
        }
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let dist = bfs_distances(&g, n(0));
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_distances_unreachable_nodes_are_none() {
        let mut g = path_graph(3);
        g.add_nodes(2);
        let dist = bfs_distances(&g, n(0));
        assert_eq!(dist[3], None);
        assert_eq!(dist[4], None);
    }

    #[test]
    fn bounded_bfs_stops_at_depth() {
        let g = path_graph(6);
        let dist = bfs_distances_bounded(&g, n(0), 2);
        assert_eq!(dist[2], Some(2));
        assert_eq!(dist[3], None);
    }

    #[test]
    fn horizon_excludes_source_and_respects_ttl() {
        let g = path_graph(6);
        let mut h = horizon(&g, n(2), 2);
        h.sort_unstable();
        assert_eq!(h, vec![(n(0), 2), (n(1), 1), (n(3), 1), (n(4), 2)]);
    }

    #[test]
    fn horizon_of_isolated_node_is_empty() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(1), n(2)).unwrap();
        assert!(horizon(&g, n(0), 5).is_empty());
    }

    #[test]
    fn components_of_disconnected_graph() -> Result<(), GraphError> {
        let mut g = Graph::with_nodes(6);
        g.add_edge(n(0), n(1))?;
        g.add_edge(n(1), n(2))?;
        g.add_edge(n(3), n(4))?;
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![n(0), n(1), n(2)]);
        assert_eq!(comps[1], vec![n(3), n(4)]);
        assert_eq!(comps[2], vec![n(5)]);
        assert_eq!(giant_component_size(&g), 3);
        assert!((giant_component_fraction(&g) - 0.5).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&Graph::new()));
        assert!(is_connected(&Graph::with_nodes(1)));
        assert!(is_connected(&path_graph(4)));
        let mut g = path_graph(4);
        g.add_node();
        assert!(!is_connected(&g));
    }

    #[test]
    fn giant_component_of_empty_graph_is_empty() {
        assert_eq!(giant_component_size(&Graph::new()), 0);
        assert_eq!(giant_component_fraction(&Graph::new()), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bfs_panics_on_bad_source() {
        let g = Graph::with_nodes(2);
        let _ = bfs_distances(&g, n(7));
    }
}
