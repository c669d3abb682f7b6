//! Property-based tests on the core data structures and algorithms: invariants that must
//! hold for *every* parameter combination, not just the ones the paper plots.
//!
//! The build environment has no access to crates.io, so instead of proptest these tests
//! use a deterministic seeded-case harness: each property runs over a fixed number of
//! randomly generated cases, with all inputs drawn from a per-case `StdRng`. Failures
//! report the case seed, so a failing case replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfoverlay::graph::{traversal, Graph, NodeId};
use sfoverlay::prelude::*;
use sfoverlay::topology::BoundedPowerLaw;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs `body` for `cases` deterministic cases, each with its own input RNG.
fn for_cases(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    for case in 0..cases {
        let mut input = rng(0xC0FF_EE00 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        body(case, &mut input);
    }
}

/// Builds a random simple graph on `nodes` nodes from up to `max_edges` random pairs.
fn random_graph(nodes: usize, max_edges: usize, input: &mut StdRng) -> Graph {
    let mut graph = Graph::with_nodes(nodes);
    for _ in 0..input.gen_range(0..=max_edges) {
        let a = input.gen_range(0..nodes);
        let b = input.gen_range(0..nodes);
        if a != b {
            let _ = graph.add_edge_if_absent(NodeId::new(a), NodeId::new(b));
        }
    }
    graph
}

/// A graph built from an arbitrary edge list stays internally consistent, and its
/// total degree is exactly twice the edge count.
#[test]
fn graph_edge_insertion_invariants() {
    for_cases(24, |case, input| {
        let graph = random_graph(40, 200, input);
        graph.assert_consistent();
        assert_eq!(graph.total_degree(), 2 * graph.edge_count(), "case {case}");
        assert_eq!(graph.edges().count(), graph.edge_count(), "case {case}");
        // BFS from node 0 never reports more reachable nodes than exist.
        let reachable = sfoverlay::graph::reachable_within(&graph, NodeId::new(0), 40);
        assert!(reachable < graph.node_count(), "case {case}");
    });
}

/// Removing the edges of any node leaves a consistent graph with the node isolated.
#[test]
fn node_isolation_preserves_consistency() {
    for_cases(24, |case, input| {
        let mut graph = random_graph(30, 150, input);
        let victim = input.gen_range(0..30);
        let removed = graph.isolate_node(NodeId::new(victim)).unwrap();
        graph.assert_consistent();
        assert_eq!(graph.degree(NodeId::new(victim)), 0, "case {case}");
        for neighbor in removed {
            assert!(
                !graph.contains_edge(NodeId::new(victim), neighbor),
                "case {case}"
            );
        }
    });
}

/// PA respects its size, minimum-degree, cutoff, and connectivity invariants for every
/// valid parameter combination.
#[test]
fn preferential_attachment_invariants() {
    for_cases(24, |case, input| {
        let n: usize = input.gen_range(20..200);
        let m: usize = input.gen_range(1..4);
        let k_c: Option<usize> = if input.gen::<bool>() {
            Some(input.gen_range(5..40).max(m))
        } else {
            None
        };
        let seed: u64 = input.gen_range(0..1_000u64);
        let cutoff = DegreeCutoff::from(k_c);
        let graph = PreferentialAttachment::new(n.max(m + 2), m)
            .unwrap()
            .with_cutoff(cutoff)
            .generate(&mut rng(seed))
            .unwrap();
        assert_eq!(graph.node_count(), n.max(m + 2), "case {case}");
        assert!(graph.min_degree().unwrap() >= 1, "case {case}");
        if let Some(k) = k_c {
            assert!(graph.max_degree().unwrap() <= k, "case {case}");
        }
        assert!(traversal::is_connected(&graph), "case {case}");
        graph.assert_consistent();
    });
}

/// The configuration model never exceeds its cutoff and never loses more than a small
/// fraction of stubs to simplification.
#[test]
fn configuration_model_invariants() {
    for_cases(24, |case, input| {
        let n: usize = input.gen_range(50..400);
        let gamma: f64 = input.gen_range(2.1..3.2);
        let m: usize = input.gen_range(1..4);
        let k_c: usize = input.gen_range(10..60);
        let seed: u64 = input.gen_range(0..1_000u64);
        let outcome = ConfigurationModel::new(n, gamma, m)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(k_c))
            .generate_with_report(&mut rng(seed))
            .unwrap();
        assert_eq!(outcome.graph.node_count(), n, "case {case}");
        assert!(outcome.graph.max_degree().unwrap() <= k_c, "case {case}");
        let target: usize = outcome.target_degrees.iter().sum();
        assert_eq!(target % 2, 0, "case {case}");
        let realized = outcome.graph.total_degree();
        assert!(realized <= target, "case {case}");
        // The "marginal" stub loss the paper describes only holds when the cutoff is well
        // below the system size; when k_c is a sizable fraction of n (possible only for the
        // smallest generated networks here), multi-edges between the few high-degree nodes
        // are common and the loss can be large, so the quantitative bound is restricted to
        // the regime the paper operates in (k_c ≲ n / 4).
        if 4 * k_c <= n {
            assert!(
                (target - realized) as f64 <= 0.25 * target as f64,
                "case {case}: lost {} of {} stubs",
                target - realized,
                target
            );
        }
        outcome.graph.assert_consistent();
    });
}

/// The bounded power law is a proper distribution for every parameterization.
#[test]
fn bounded_power_law_is_a_distribution() {
    for_cases(24, |case, input| {
        let gamma: f64 = input.gen_range(1.1..4.0);
        let k_min: usize = input.gen_range(1..5);
        let span: usize = input.gen_range(1..100);
        let law = BoundedPowerLaw::new(gamma, k_min, k_min + span).unwrap();
        let total: f64 = (k_min..=k_min + span).map(|k| law.pmf(k)).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "case {case}: pmf sums to {total}"
        );
        assert!(
            law.mean() >= k_min as f64 && law.mean() <= (k_min + span) as f64,
            "case {case}"
        );
    });
}

/// Search sanity for arbitrary PA overlays: hits are bounded by BFS reachability (FL
/// attains it exactly), NF hits never exceed FL hits, and RW messages equal its budget
/// unless it starts from an isolated node.
#[test]
fn search_algorithms_respect_reachability_bounds() {
    for_cases(24, |case, input| {
        let n: usize = input.gen_range(30..150);
        let m: usize = input.gen_range(1..3);
        let ttl: u32 = input.gen_range(1..6);
        let seed: u64 = input.gen_range(0..500u64);
        let graph = PreferentialAttachment::new(n.max(m + 2), m)
            .unwrap()
            .generate(&mut rng(seed))
            .unwrap();
        let source = NodeId::new((seed as usize) % graph.node_count());
        let reachable = sfoverlay::graph::reachable_within(&graph, source, ttl);

        let fl = Flooding::new().search(&graph, source, ttl, &mut rng(seed));
        assert_eq!(fl.hits, reachable, "case {case}");

        let nf = NormalizedFlooding::new(m).search(&graph, source, ttl, &mut rng(seed));
        assert!(nf.hits <= fl.hits, "case {case}");
        assert!(nf.messages <= fl.messages, "case {case}");

        let rw = RandomWalk::new().search(&graph, source, ttl, &mut rng(seed));
        assert!(rw.hits <= ttl as usize, "case {case}");
        if graph.degree(source) > 0 {
            assert_eq!(rw.messages, ttl as usize, "case {case}");
        }
    });
}

/// The live overlay stays consistent and below its cutoff under arbitrary interleavings
/// of joins and departures.
#[test]
fn live_overlay_survives_arbitrary_churn() {
    for_cases(24, |case, input| {
        let stubs: usize = input.gen_range(1..4);
        let k_c: usize = input.gen_range(4..20);
        let seed: u64 = input.gen_range(0..1_000u64);
        let operation_count: usize = input.gen_range(1..120);
        let operations: Vec<u8> = (0..operation_count)
            .map(|_| input.gen_range(0..10u8))
            .collect();
        let config = OverlayConfig {
            stubs,
            cutoff: DegreeCutoff::hard(k_c),
            join_strategy: JoinStrategy::UniformRandom,
            repair_on_leave: true,
        };
        let mut overlay = OverlayNetwork::new(config).unwrap();
        let mut r = rng(seed);
        for op in operations {
            // 70% joins, 20% graceful leaves, 10% crashes.
            if op < 7 || overlay.peer_count() < 3 {
                overlay.join(&mut r);
            } else if op < 9 {
                let victim = overlay.random_peer(&mut r).unwrap();
                overlay.leave(victim, &mut r).unwrap();
            } else {
                let victim = overlay.random_peer(&mut r).unwrap();
                overlay.crash(victim).unwrap();
            }
        }
        overlay.assert_consistent();
        assert!(overlay.max_degree().unwrap_or(0) <= k_c, "case {case}");
        let (graph, peers) = overlay.snapshot();
        assert_eq!(graph.node_count(), peers.len(), "case {case}");
        graph.assert_consistent();
    });
}

/// The uncorrelated configuration model never exceeds the tighter of the structural and
/// hard cutoffs and never realizes more degree than it targeted.
#[test]
fn ucm_invariants() {
    for_cases(16, |case, input| {
        let n: usize = input.gen_range(60..400);
        let gamma: f64 = input.gen_range(2.1..3.2);
        let m: usize = input.gen_range(1..3);
        let k_c: Option<usize> = if input.gen::<bool>() {
            Some(input.gen_range(5..40).max(m))
        } else {
            None
        };
        let seed: u64 = input.gen_range(0..500u64);
        let generator = UncorrelatedConfigurationModel::new(n, gamma, m)
            .unwrap()
            .with_cutoff(DegreeCutoff::from(k_c));
        let outcome = generator.generate_with_report(&mut rng(seed)).unwrap();
        let (_, k_max) = generator.support().unwrap();
        assert!(
            outcome.graph.max_degree().unwrap_or(0) <= k_max,
            "case {case}"
        );
        for (realized, target) in outcome.graph.degrees().iter().zip(&outcome.target_degrees) {
            assert!(realized <= target, "case {case}");
        }
        assert!(
            outcome.unplaced_stubs <= 2 * outcome.target_degrees.iter().sum::<usize>() / 100 + 4,
            "case {case}"
        );
        outcome.graph.assert_consistent();
    });
}

/// Edge-list serialization round-trips arbitrary simple graphs: node count, edge count,
/// and the sorted edge set are preserved.
#[test]
fn edge_list_round_trip() {
    use sfoverlay::graph::{parse_edge_list, write_edge_list};
    for_cases(16, |case, input| {
        let graph = random_graph(30, 120, input);
        let parsed = parse_edge_list(&write_edge_list(&graph)).unwrap();
        assert_eq!(parsed.node_count(), graph.node_count(), "case {case}");
        assert_eq!(parsed.edge_count(), graph.edge_count(), "case {case}");
        let mut original: Vec<_> = graph.edges().collect();
        let mut reparsed: Vec<_> = parsed.edges().collect();
        original.sort_unstable();
        reparsed.sort_unstable();
        assert_eq!(original, reparsed, "case {case}");
    });
}

/// The item-hit probability is a probability and is monotone in both coverage and
/// replica count.
#[test]
fn success_probability_is_monotone() {
    use sfoverlay::search::success_probability;
    for_cases(16, |case, input| {
        let hits: usize = input.gen_range(0..500);
        let replicas: usize = input.gen_range(0..50);
        let population: usize = input.gen_range(2..600);
        let p = success_probability(hits, replicas, population);
        assert!((0.0..=1.0).contains(&p), "case {case}");
        assert!(
            success_probability(hits + 10, replicas, population) >= p - 1e-12,
            "case {case}"
        );
        assert!(
            success_probability(hits, replicas + 1, population) >= p - 1e-12,
            "case {case}"
        );
    });
}

/// Replica allocation always spends exactly the budget and gives every item at least
/// one copy, for every strategy and catalog skew.
#[test]
fn replica_allocation_spends_the_budget() {
    use sfoverlay::sim::allocate;
    use sfoverlay::sim::catalog::Catalog;
    for_cases(16, |case, input| {
        let items: usize = input.gen_range(1..60);
        let spare: usize = input.gen_range(0..200);
        let skew: f64 = input.gen_range(0.0..2.0);
        let strategies = [
            ReplicationStrategy::Uniform,
            ReplicationStrategy::Proportional,
            ReplicationStrategy::SquareRoot,
        ];
        let strategy = strategies[input.gen_range(0..strategies.len())];
        let catalog = Catalog::new(items, skew).unwrap();
        let budget = items + spare;
        let allocation = allocate(&catalog, strategy, budget).unwrap();
        assert_eq!(allocation.total(), budget, "case {case}");
        assert!(allocation.replicas.iter().all(|&r| r >= 1), "case {case}");
    });
}

/// Session-length models always produce positive durations, and churn traces stay
/// time-ordered with departures never preceding their arrivals.
#[test]
fn churn_traces_are_well_formed() {
    use sfoverlay::sim::{generate_trace, ChurnAction, ChurnTraceConfig, SessionModel};
    for_cases(16, |case, input| {
        let duration: u64 = input.gen_range(50..400);
        let rate: f64 = input.gen_range(0.05..1.5);
        let mean_session: f64 = input.gen_range(2.0..200.0);
        let crash_fraction: f64 = input.gen_range(0.0..1.0);
        let seed: u64 = input.gen_range(0..500u64);
        let config = ChurnTraceConfig {
            duration,
            arrival_rate: rate,
            sessions: SessionModel::Exponential { mean: mean_session },
            crash_fraction,
        };
        let trace = generate_trace(&config, &mut rng(seed)).unwrap();
        assert!(trace.departures() <= trace.arrivals, "case {case}");
        let mut arrival_time = std::collections::HashMap::new();
        let mut last_time = 0u64;
        for event in &trace.events {
            assert!(event.time >= last_time, "case {case}");
            assert!(event.time <= duration, "case {case}");
            last_time = event.time;
            match event.action {
                ChurnAction::Arrive => {
                    arrival_time.insert(event.session, event.time);
                }
                _ => {
                    let arrived = arrival_time.get(&event.session).copied();
                    assert!(arrived.is_some(), "case {case}");
                    assert!(arrived.unwrap() <= event.time, "case {case}");
                }
            }
        }
    });
}
