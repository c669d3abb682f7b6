//! Integration tests for the extension surface: the uncorrelated configuration model, the
//! additional search strategies, edge-list io, coverage curves, replication, churn traces,
//! and the extension experiments — exercised together through the public `sfoverlay` API
//! the way a downstream user would.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfoverlay::analysis::{bootstrap_mean_ci, pearson_correlation};
use sfoverlay::experiments::{run_experiment, Scale};
use sfoverlay::graph::generators::{random_regular, star_graph};
use sfoverlay::graph::{traversal, NodeId};
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::ttl_sweep;
use sfoverlay::search::{coverage_curve, granularity};
use sfoverlay::sim::catalog::Catalog;
use sfoverlay::sim::{allocate, place};
use sfoverlay::sim::{generate_trace, ChurnTraceConfig, SessionModel};
use sfoverlay::sim::{run_query, QueryMethod};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn tiny_scale() -> Scale {
    Scale {
        degree_nodes: 500,
        search_nodes: 400,
        realizations: 1,
        searches_per_point: 5,
    }
}

/// The uncorrelated configuration model produces the requested size, respects the hard
/// cutoff, and is usable through the shared trait object interface.
#[test]
fn extended_generators_respect_cutoffs_through_the_trait_interface() {
    let n = 600;
    let generator: Box<dyn TopologyGenerator> = Box::new(
        UncorrelatedConfigurationModel::new(n, 2.6, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(15)),
    );
    let graph = generator.generate(&mut rng(5)).unwrap();
    assert_eq!(graph.node_count(), n, "{}", generator.name());
    assert!(graph.max_degree().unwrap() <= 15, "{}", generator.name());
    assert_eq!(
        generator.locality(),
        Locality::Global,
        "{}",
        generator.name()
    );
    assert_eq!(generator.target_nodes(), n);
    graph.assert_consistent();
}

/// The paper's headline observation extends to the new practical search strategies:
/// probabilistic flooding also benefits from hard cutoffs on PA topologies, while plain
/// flooding loses raw coverage.
#[test]
fn hard_cutoffs_help_probabilistic_flooding_but_cost_flooding_coverage() {
    let n = 1_500;
    let ttl = [6u32];
    let free = PreferentialAttachment::new(n, 2)
        .unwrap()
        .generate(&mut rng(21))
        .unwrap();
    let capped = PreferentialAttachment::new(n, 2)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(10))
        .generate(&mut rng(21))
        .unwrap();

    let fl_free = ttl_sweep(&free, &Flooding::new(), &ttl, 40, &mut rng(1))[0].mean_hits;
    let fl_capped = ttl_sweep(&capped, &Flooding::new(), &ttl, 40, &mut rng(1))[0].mean_hits;
    assert!(
        fl_capped < fl_free,
        "cutoffs shrink FL coverage ({fl_capped} vs {fl_free})"
    );

    let pfl = ProbabilisticFlooding::new(0.5);
    let pfl_free = ttl_sweep(&free, &pfl, &ttl, 40, &mut rng(2))[0];
    let pfl_capped = ttl_sweep(&capped, &pfl, &ttl, 40, &mut rng(2))[0];
    let eff_free = pfl_free.mean_hits / pfl_free.mean_messages.max(1.0);
    let eff_capped = pfl_capped.mean_hits / pfl_capped.mean_messages.max(1.0);
    assert!(
        eff_capped > eff_free * 0.9,
        "per-message efficiency should not collapse under the cutoff ({eff_capped} vs {eff_free})"
    );
}

/// The degree-biased walk exploits hubs: it covers an unbounded PA overlay faster than the
/// uniform walk, and the advantage shrinks once a hard cutoff removes the hubs.
#[test]
fn degree_biased_walk_relies_on_hubs() {
    let n = 1_500;
    let budget = [60u32];
    let free = PreferentialAttachment::new(n, 2)
        .unwrap()
        .generate(&mut rng(31))
        .unwrap();
    let biased = ttl_sweep(&free, &DegreeBiasedWalk::new(), &budget, 40, &mut rng(3))[0].mean_hits;
    let uniform = ttl_sweep(&free, &RandomWalk::new(), &budget, 40, &mut rng(3))[0].mean_hits;
    assert!(
        biased > uniform,
        "on an unbounded PA overlay the hub-seeking walk should beat the uniform walk \
         ({biased} vs {uniform})"
    );
}

/// Edge-list round trips preserve generated topologies well enough to recompute identical
/// degree histograms.
#[test]
fn edge_list_round_trip_preserves_degree_structure() {
    let graph = UncorrelatedConfigurationModel::new(800, 2.4, 2)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(20))
        .generate(&mut rng(51))
        .unwrap();
    let text = sfoverlay::graph::write_edge_list(&graph);
    let parsed = sfoverlay::graph::parse_edge_list(&text).unwrap();
    assert_eq!(parsed.node_count(), graph.node_count());
    assert_eq!(parsed.edge_count(), graph.edge_count());
    assert_eq!(
        sfoverlay::graph::degree_histogram(&parsed).counts,
        sfoverlay::graph::degree_histogram(&graph).counts
    );
}

/// Replication strategies interoperate with the live overlay and the lookup machinery; the
/// square-root rule never does worse than uniform on expected blind-search size while
/// popular items stay findable.
#[test]
fn replication_and_lookup_work_end_to_end() {
    let catalog = Catalog::new(40, 1.0).unwrap();
    let mut overlay = OverlayNetwork::new(OverlayConfig {
        stubs: 3,
        cutoff: DegreeCutoff::hard(12),
        join_strategy: JoinStrategy::UniformRandom,
        repair_on_leave: true,
    })
    .unwrap();
    let mut r = rng(61);
    for _ in 0..500 {
        overlay.join(&mut r);
    }
    let allocation = allocate(&catalog, ReplicationStrategy::SquareRoot, 240).unwrap();
    place(&mut overlay, &allocation, &mut r).unwrap();

    let mut successes = 0usize;
    let queries = 100usize;
    for _ in 0..queries {
        let source = overlay.random_peer(&mut r).unwrap();
        let item = catalog.sample_query(&mut r);
        let outcome = run_query(
            &overlay,
            QueryMethod::NormalizedFlooding { k_min: 3 },
            source,
            item,
            6,
            &mut r,
        )
        .unwrap();
        if outcome.found {
            successes += 1;
        }
    }
    assert!(
        successes as f64 / queries as f64 > 0.5,
        "square-root replication plus NF should find most items ({successes}/{queries})"
    );
}

/// Churn traces replay deterministically against a live overlay: arrivals and departures
/// keep the peer count non-negative and the overlay consistent.
#[test]
fn churn_trace_replays_against_the_live_overlay() {
    let trace_config = ChurnTraceConfig {
        duration: 400,
        arrival_rate: 0.8,
        sessions: SessionModel::Pareto {
            shape: 1.8,
            minimum: 20.0,
        },
        crash_fraction: 0.3,
    };
    let mut r = rng(71);
    let trace = generate_trace(&trace_config, &mut r).unwrap();
    assert!(trace.arrivals > 100);

    let mut overlay = OverlayNetwork::new(OverlayConfig::default()).unwrap();
    let mut alive = std::collections::HashMap::new();
    for event in &trace.events {
        match event.action {
            sfoverlay::sim::ChurnAction::Arrive => {
                let outcome = overlay.join(&mut r);
                alive.insert(event.session, outcome.peer);
            }
            sfoverlay::sim::ChurnAction::DepartGracefully => {
                if let Some(peer) = alive.remove(&event.session) {
                    overlay.leave(peer, &mut r).unwrap();
                }
            }
            sfoverlay::sim::ChurnAction::Crash => {
                if let Some(peer) = alive.remove(&event.session) {
                    overlay.crash(peer).unwrap();
                }
            }
        }
    }
    overlay.assert_consistent();
    assert_eq!(overlay.peer_count(), alive.len());
    assert!(overlay.peer_count() > 0);
    assert!(
        overlay.max_degree().unwrap_or(0) <= 30,
        "default cutoff still enforced under churn"
    );
}

/// Coverage curves, granularity, and the analysis statistics compose: flooding on a star
/// baseline has perfect first-round granularity, and bootstrap intervals cover the mean of
/// repeated search outcomes.
#[test]
fn coverage_and_statistics_compose_on_reference_topologies() {
    let star = star_graph(200).unwrap();
    let curve = coverage_curve(&Flooding::new(), &star, NodeId::new(5), 2, &mut rng(81));
    let grain = granularity(&curve);
    assert!((grain[0].marginal_hits_per_message - 1.0).abs() < 1e-9);

    let regular = random_regular(300, 3, &mut rng(82)).unwrap();
    assert!(traversal::is_connected(&regular));
    let hits: Vec<f64> = (0..20)
        .map(|i| {
            ttl_sweep(
                &regular,
                &NormalizedFlooding::new(3),
                &[4],
                10,
                &mut rng(100 + i),
            )[0]
            .mean_hits
        })
        .collect();
    let ci = bootstrap_mean_ci(&hits, 500, 0.95, &mut rng(83)).unwrap();
    let mean = hits.iter().sum::<f64>() / hits.len() as f64;
    assert!(ci.contains(mean));

    let messages: Vec<f64> = hits.iter().map(|h| h * 3.0).collect();
    assert!((pearson_correlation(&hits, &messages).unwrap() - 1.0).abs() < 1e-9);
}

/// The extension experiments are registered and runnable at smoke scale.
#[test]
fn extension_experiments_run_at_tiny_scale() {
    let scale = tiny_scale();
    let replication = run_experiment("replication", &scale, 5).expect("registered");
    assert!(replication.as_table().expect("table").row_count() >= 3);
    let strategies = run_experiment("search-strategies", &scale, 5).expect("registered");
    assert!(strategies.as_figure().expect("figure").series.len() >= 12);
}
