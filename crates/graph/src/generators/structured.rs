//! Structured and regular generators: stars, paths, and random regular graphs.
//!
//! These serve three roles in the workspace:
//!
//! * **analytic fixtures** — stars and paths have closed-form degree
//!   distributions, diameters, and centralities, which makes them the reference points the
//!   metric and search tests validate against;
//! * **extreme topologies** — the star is the limit HAPA converges to without a hard
//!   cutoff (paper, §IV-A: "this procedure makes the topology of the system a star-like
//!   topology if the network is not limited by a cutoff");
//! * **degree-homogeneous baselines** — the random regular graph is what an overlay looks
//!   like when the hard cutoff equals the minimum degree (`k_c = m`), the tightest cutoff
//!   the paper's sweeps approach.

use crate::{Graph, GraphError, NodeId, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates a star: node 0 is the center, nodes `1..n` are leaves.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn star_graph(n: usize) -> Result<Graph> {
    if n < 2 {
        return Err(GraphError::InvalidParameter {
            reason: "star graph needs at least two nodes",
        });
    }
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::new(0), NodeId::new(i))?;
    }
    Ok(g)
}

/// Generates a path `0 - 1 - ... - (n-1)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`.
pub fn path_graph(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "path graph needs at least one node",
        });
    }
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::new(i - 1), NodeId::new(i))?;
    }
    Ok(g)
}

/// Generates a random `d`-regular graph on `n` nodes by stub matching with edge-swap
/// repair, so the result is always a simple graph in which every node has degree exactly
/// `d`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n·d` is odd, `d >= n`, or `d == 0`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph> {
    if d == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "regular graph degree must be positive",
        });
    }
    if d >= n {
        return Err(GraphError::InvalidParameter {
            reason: "regular graph degree must be below the node count",
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: "regular graph requires an even number of stubs (n * d must be even)",
        });
    }

    // Retry whole matchings a few times; for sparse d this almost always succeeds quickly.
    for _ in 0..100 {
        if let Some(g) = try_regular_matching(n, d, rng)? {
            return Ok(g);
        }
    }
    Err(GraphError::InvalidParameter {
        reason: "could not realize the regular degree sequence; degree too close to n",
    })
}

fn try_regular_matching<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Option<Graph>> {
    let mut stubs: Vec<NodeId> = Vec::with_capacity(n * d);
    for i in 0..n {
        stubs.extend(std::iter::repeat_n(NodeId::new(i), d));
    }
    stubs.shuffle(rng);

    let mut graph = Graph::with_nodes(n);
    let mut pending: Vec<NodeId> = Vec::new();
    for pair in stubs.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if a == b || graph.contains_edge(a, b) {
            pending.push(a);
            pending.push(b);
        } else {
            graph.add_edge(a, b)?;
        }
    }

    // Repair leftover stubs with degree-preserving edge swaps.
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    while pending.len() >= 2 {
        let b = pending.pop().expect("length checked");
        let a = pending.pop().expect("length checked");
        if a != b && !graph.contains_edge(a, b) {
            graph.add_edge(a, b)?;
            edges.push((a, b));
            continue;
        }
        let mut placed = false;
        for _ in 0..500 {
            if edges.is_empty() {
                break;
            }
            let idx = rng.gen_range(0..edges.len());
            let (u, v) = edges[idx];
            if u == a || u == b || v == a || v == b {
                continue;
            }
            if graph.contains_edge(a, u) || graph.contains_edge(b, v) {
                continue;
            }
            graph.remove_edge(u, v)?;
            graph.add_edge(a, u)?;
            graph.add_edge(b, v)?;
            edges.swap_remove(idx);
            edges.push((a, u));
            edges.push((b, v));
            placed = true;
            break;
        }
        if !placed {
            return Ok(None);
        }
    }
    Ok(Some(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn star_shape() {
        let g = star_graph(6).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(n(0)), 5);
        for i in 1..6 {
            assert_eq!(g.degree(n(i)), 1);
        }
        assert!(traversal::is_connected(&g));
        assert!(star_graph(1).is_err());
    }

    #[test]
    fn path_shape() {
        let g = path_graph(5).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(n(0)), 1);
        assert_eq!(g.degree(n(2)), 2);
        assert!(traversal::is_connected(&g));
        assert_eq!(path_graph(1).unwrap().edge_count(), 0);
        assert!(path_graph(0).is_err());
    }

    #[test]
    fn random_regular_is_exactly_regular() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n_nodes, d) in [(50, 3), (64, 4), (101, 2)] {
            let g = random_regular(n_nodes, d, &mut rng).unwrap();
            assert_eq!(g.node_count(), n_nodes);
            assert!(g.degrees().iter().all(|&k| k == d), "n={n_nodes}, d={d}");
            g.assert_consistent();
        }
    }

    #[test]
    fn random_regular_rejects_invalid_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(random_regular(5, 3, &mut rng).is_err(), "odd stub total");
    }

    #[test]
    fn random_regular_three_is_connected_with_high_probability() {
        // Not a theorem at this size, but stable for the fixed seed; a 3-regular random
        // graph on 100 nodes is connected with overwhelming probability.
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(100, 3, &mut rng).unwrap();
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn random_regular_is_deterministic_per_seed() {
        let a = random_regular(60, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = random_regular(60, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
