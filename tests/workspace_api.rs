//! Cross-crate integration tests: the public API workflows a downstream user would run,
//! spanning topology generation, search, analysis, the churn simulator, and the experiment
//! registry.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfoverlay::analysis::log_binned_distribution;
use sfoverlay::analysis::{DataPoint, DataSeries, FigureData, Summary};
use sfoverlay::experiments::{run_experiment, Scale};
use sfoverlay::graph::traversal;
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::ttl_sweep;
use sfoverlay::sim::QueryMethod;
use std::sync::Arc;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// All four generators behind one trait object, as the experiment harness uses them.
#[test]
fn every_generator_works_through_the_trait_object_interface() {
    let n = 800;
    let generators: Vec<Box<dyn TopologyGenerator>> = vec![
        Box::new(
            PreferentialAttachment::new(n, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(30)),
        ),
        Box::new(
            ConfigurationModel::new(n, 2.6, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(30)),
        ),
        Box::new(
            HopAndAttempt::new(n, 2)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(30)),
        ),
        Box::new(
            DapaOverGrn::new(n, 2, 4)
                .unwrap()
                .with_cutoff(DegreeCutoff::hard(30)),
        ),
    ];
    let expected = [
        ("PA", Locality::Global),
        ("CM", Locality::Global),
        ("HAPA", Locality::Partial),
        ("DAPA", Locality::Local),
    ];
    for (generator, (name, locality)) in generators.iter().zip(expected) {
        assert_eq!(generator.name(), name);
        assert_eq!(generator.locality(), locality);
        assert_eq!(generator.target_nodes(), n);
        let graph = generator.generate(&mut rng(3)).unwrap();
        assert_eq!(graph.node_count(), n, "{name}");
        assert!(graph.max_degree().unwrap() <= 30, "{name}");
        graph.assert_consistent();
    }
}

/// Generate → search → aggregate into a figure, the full downstream pipeline.
#[test]
fn topology_search_analysis_pipeline_produces_a_figure() {
    let graph = PreferentialAttachment::new(1_200, 2)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(20))
        .generate(&mut rng(5))
        .unwrap();

    let ttls = [2u32, 4, 6];
    let mut figure = FigureData::new("demo", "NF hits on a capped PA overlay", "tau", "hits");
    let mut series = DataSeries::new("m=2, k_c=20");
    for point in ttl_sweep(&graph, &NormalizedFlooding::new(2), &ttls, 30, &mut rng(5)) {
        let summary: Summary = [point.mean_hits].into_iter().collect();
        series.push(DataPoint::from_summary(f64::from(point.ttl), &summary));
    }
    figure.push_series(series);

    assert_eq!(figure.series.len(), 1);
    assert_eq!(figure.series[0].points.len(), 3);
    let csv = figure.to_csv();
    assert!(csv.lines().count() == 4);
    assert!(figure.to_text().contains("k_c=20"));

    // Degree distribution of the same overlay, log-binned as in the paper's figures.
    let bins = log_binned_distribution(&graph.degrees(), 8);
    assert!(!bins.is_empty());
    assert!(bins.iter().all(|b| b.density > 0.0));
}

/// The engine's pooled search sweep gives the same kind of answer as the sequential one.
#[test]
fn parallel_and_sequential_search_averages_agree_roughly() {
    let graph = ConfigurationModel::new(1_500, 2.6, 3)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(40))
        .generate(&mut rng(7))
        .unwrap();
    let sequential = ttl_sweep(&graph, &Flooding::new(), &[4], 60, &mut rng(7))[0].mean_hits;
    let pool = WorkerPool::new(EngineConfig::with_workers(4));
    let parallel = batched_ttl_sweep(
        &pool,
        &Arc::new(graph),
        Box::new(Flooding::new()),
        &[4],
        60,
        7,
    )[0]
    .mean_hits;
    let ratio = parallel / sequential;
    assert!(
        (0.7..=1.4).contains(&ratio),
        "parallel ({parallel:.0}) and sequential ({sequential:.0}) means diverge, ratio {ratio:.2}"
    );
}

/// The live overlay's snapshot can be fed straight into the graph metrics and search
/// algorithms.
#[test]
fn live_overlay_snapshot_supports_static_analysis_and_search() {
    let config = OverlayConfig {
        stubs: 3,
        cutoff: DegreeCutoff::hard(15),
        join_strategy: JoinStrategy::DegreePreferential,
        repair_on_leave: true,
    };
    let mut overlay = OverlayNetwork::new(config).unwrap();
    let mut r = rng(9);
    for _ in 0..400 {
        overlay.join(&mut r);
    }
    for _ in 0..50 {
        let victim = overlay.random_peer(&mut r).unwrap();
        overlay.leave(victim, &mut r).unwrap();
    }
    let (graph, peers) = overlay.snapshot();
    assert_eq!(graph.node_count(), 350);
    assert_eq!(peers.len(), 350);
    assert!(graph.max_degree().unwrap() <= 15);
    assert!(traversal::giant_component_fraction(&graph) > 0.9);
    let hist = sfoverlay::graph::degree_histogram(&graph);
    assert_eq!(hist.node_count, 350);

    let outcome = NormalizedFlooding::new(3).search(&graph, NodeId::new(0), 5, &mut r);
    assert!(outcome.hits > 0);
    assert!(outcome.messages >= outcome.hits);
}

/// An end-to-end churn simulation driven through the umbrella crate's prelude.
#[test]
fn churn_simulation_end_to_end() {
    let mut config = SimulationConfig::small();
    config.query_method = QueryMethod::RandomWalk;
    config.query_ttl = 64;
    let report = Simulation::new(config).unwrap().run(&mut rng(11)).unwrap();
    assert!(report.queries_issued > 0);
    assert!(
        report.success_rate() > 0.0,
        "random-walk lookups should find popular items"
    );
    assert!(report.final_peers > 0);
    assert!(!report.samples.is_empty());
}

/// The experiment registry runs end to end at smoke scale for a cheap figure and both
/// tables.
#[test]
fn experiment_registry_smoke_runs() {
    let scale = Scale {
        degree_nodes: 600,
        search_nodes: 400,
        realizations: 1,
        searches_per_point: 10,
    };
    let fig1a = run_experiment("fig1a", &scale, 3).expect("fig1a registered");
    assert_eq!(fig1a.as_figure().unwrap().series.len(), 3);

    let table2 = run_experiment("table2", &scale, 3).expect("table2 registered");
    let rendered = table2.to_string();
    assert!(rendered.contains("DAPA"));
    assert!(rendered.contains("No"));

    let table1 = run_experiment("table1", &scale, 3).expect("table1 registered");
    assert!(table1.as_table().unwrap().row_count() == 4);
}
