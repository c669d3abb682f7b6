//! Robustness of a topology to random failures and targeted attacks.
//!
//! The paper motivates hard cutoffs partly by the "robust yet fragile" nature of scale-free
//! networks (§III): they tolerate random node failures well because a random victim is
//! almost surely a low-degree satellite, but removing a few hubs shatters them. Capping the
//! degree removes the super-hubs and therefore changes this trade-off; the `resilience`
//! experiment in `sfo-experiments` quantifies it using the primitives in this module.
//!
//! Everything here reads through [`GraphView`], so profiles run on a mutable [`Graph`]
//! or a frozen [`CsrGraph`](crate::CsrGraph) snapshot alike; the degraded copy is
//! materialized per point via [`Graph::from_view`], the original is never touched.

use crate::traversal::giant_component_fraction;
use crate::{Graph, GraphView, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How victims are chosen when degrading a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RemovalStrategy {
    /// Uniformly random victims: models independent peer failures.
    Random,
    /// Highest-degree victims first: models a deliberate attack on the hubs.
    HighestDegree,
}

/// One point of a robustness profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Fraction of nodes removed.
    pub removed_fraction: f64,
    /// Fraction of the *original* node count still contained in the largest connected
    /// component after the removal.
    pub giant_component_fraction: f64,
}

/// Returns the victims a strategy selects when removing `count` nodes from `graph`.
///
/// For [`RemovalStrategy::HighestDegree`] ties are broken by node id so results are
/// deterministic; for [`RemovalStrategy::Random`] the RNG decides.
pub(crate) fn select_victims<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    strategy: RemovalStrategy,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let count = count.min(graph.node_count());
    match strategy {
        RemovalStrategy::Random => {
            let mut nodes: Vec<NodeId> = graph.nodes().collect();
            nodes.shuffle(rng);
            nodes.truncate(count);
            nodes
        }
        RemovalStrategy::HighestDegree => {
            let mut nodes: Vec<NodeId> = graph.nodes().collect();
            nodes.sort_by_key(|&n| (std::cmp::Reverse(graph.degree(n)), n));
            nodes.truncate(count);
            nodes
        }
    }
}

/// Removes (isolates) a fraction of nodes chosen by `strategy` and reports the surviving
/// giant-component fraction relative to the original node count.
///
/// The removal isolates nodes in a mutable copy of the view (via [`Graph::from_view`]);
/// the input — a [`Graph`] or a frozen snapshot — is untouched.
///
/// # Panics
///
/// Panics if `fraction` is not within `[0, 1]`.
pub(crate) fn degrade<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    strategy: RemovalStrategy,
    fraction: f64,
    rng: &mut R,
) -> RobustnessPoint {
    assert!(
        (0.0..=1.0).contains(&fraction) && fraction.is_finite(),
        "removal fraction must be within [0, 1]"
    );
    if graph.node_count() == 0 {
        return RobustnessPoint {
            removed_fraction: fraction,
            giant_component_fraction: 0.0,
        };
    }
    let count = (fraction * graph.node_count() as f64).round() as usize;
    let victims = select_victims(graph, strategy, count, rng);
    let mut damaged = Graph::from_view(graph);
    for victim in victims {
        damaged
            .isolate_node(victim)
            .expect("victims come from the graph itself");
    }
    // `giant_component_fraction` divides by the node count, which is unchanged because
    // isolation keeps the removed nodes as empty slots; that is exactly the "fraction of the
    // original network still connected" the robustness literature reports.
    RobustnessPoint {
        removed_fraction: fraction,
        giant_component_fraction: giant_component_fraction(&damaged),
    }
}

/// Computes a full robustness profile: the giant-component fraction after removing each of
/// the given fractions of nodes (each point degrades a fresh copy of the original graph).
pub fn robustness_profile<G: GraphView + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    strategy: RemovalStrategy,
    fractions: &[f64],
    rng: &mut R,
) -> Vec<RobustnessPoint> {
    fractions
        .iter()
        .map(|&f| degrade(graph, strategy, f, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn star_graph(leaves: usize) -> Graph {
        let mut g = Graph::with_nodes(leaves + 1);
        for i in 1..=leaves {
            g.add_edge(NodeId::new(0), NodeId::new(i)).unwrap();
        }
        g
    }

    fn ring(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n))
                .unwrap();
        }
        g
    }

    #[test]
    fn victim_selection_respects_strategy() {
        let g = star_graph(9);
        let targeted = select_victims(&g, RemovalStrategy::HighestDegree, 1, &mut rng(1));
        assert_eq!(
            targeted,
            vec![NodeId::new(0)],
            "the hub is the first target"
        );
        let random = select_victims(&g, RemovalStrategy::Random, 4, &mut rng(1));
        assert_eq!(random.len(), 4);
        let over = select_victims(&g, RemovalStrategy::Random, 100, &mut rng(1));
        assert_eq!(over.len(), 10, "requests beyond the node count are clamped");
    }

    #[test]
    fn targeted_attack_on_a_star_shatters_it() {
        let g = star_graph(20);
        let point = degrade(&g, RemovalStrategy::HighestDegree, 0.05, &mut rng(2));
        // Removing ~1 node (the hub) leaves only isolated leaves.
        assert!(point.giant_component_fraction < 0.1);
    }

    #[test]
    fn random_failures_on_a_star_barely_matter() {
        let g = star_graph(100);
        let point = degrade(&g, RemovalStrategy::Random, 0.1, &mut rng(3));
        // With high probability the hub survives a 10% random removal, keeping ~90% connected.
        assert!(point.giant_component_fraction > 0.6);
    }

    #[test]
    fn a_ring_degrades_gracefully_under_both_strategies() {
        let g = ring(200);
        for strategy in [RemovalStrategy::Random, RemovalStrategy::HighestDegree] {
            let profile = robustness_profile(&g, strategy, &[0.0, 0.05, 0.2], &mut rng(4));
            assert_eq!(profile.len(), 3);
            assert!((profile[0].giant_component_fraction - 1.0).abs() < 1e-12);
            // Giant component shrinks monotonically with the removed fraction.
            assert!(profile[1].giant_component_fraction >= profile[2].giant_component_fraction);
        }
    }

    #[test]
    fn zero_and_full_removal_edge_cases() {
        let g = ring(50);
        let none = degrade(&g, RemovalStrategy::Random, 0.0, &mut rng(5));
        assert_eq!(none.giant_component_fraction, 1.0);
        let all = degrade(&g, RemovalStrategy::HighestDegree, 1.0, &mut rng(5));
        assert!(all.giant_component_fraction <= 1.0 / 50.0 + 1e-12);
        let empty = degrade(&Graph::new(), RemovalStrategy::Random, 0.5, &mut rng(5));
        assert_eq!(empty.giant_component_fraction, 0.0);
    }

    #[test]
    fn original_graph_is_untouched() {
        let g = ring(30);
        let edges_before = g.edge_count();
        let _ = degrade(&g, RemovalStrategy::HighestDegree, 0.5, &mut rng(6));
        assert_eq!(g.edge_count(), edges_before);
    }

    #[test]
    fn frozen_snapshots_degrade_identically_to_their_graph() {
        let g = ring(100);
        let frozen = g.freeze();
        for strategy in [RemovalStrategy::Random, RemovalStrategy::HighestDegree] {
            let on_graph = robustness_profile(&g, strategy, &[0.1, 0.3], &mut rng(9));
            let on_csr = robustness_profile(&frozen, strategy, &[0.1, 0.3], &mut rng(9));
            assert_eq!(on_graph, on_csr);
        }
    }

    #[test]
    #[should_panic(expected = "removal fraction")]
    fn out_of_range_fraction_panics() {
        let g = ring(10);
        let _ = degrade(&g, RemovalStrategy::Random, 1.5, &mut rng(7));
    }
}
