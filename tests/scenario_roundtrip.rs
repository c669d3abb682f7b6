//! Integration tests of the declarative scenario layer: every spec variant round-trips
//! through JSON, runs to a byte-identical report for a fixed seed, and invalid specs
//! fail with typed errors instead of panics.

use sfoverlay::prelude::*;

/// One small static spec per topology family, plus one per search algorithm, plus the
/// two dynamic kinds — together they cover every `ScenarioSpec` variant.
fn all_spec_variants() -> Vec<ScenarioSpec> {
    let nodes = 120usize;
    let topologies = vec![
        TopologySpec::Pa {
            nodes,
            m: 2,
            cutoff: Some(10),
        },
        TopologySpec::Hapa {
            nodes,
            m: 2,
            cutoff: None,
        },
        TopologySpec::Cm {
            nodes,
            gamma: 2.2,
            m: 2,
            cutoff: Some(20),
        },
        TopologySpec::Ucm {
            nodes,
            gamma: 2.6,
            m: 1,
            cutoff: None,
        },
        TopologySpec::DapaGrn {
            nodes,
            m: 2,
            tau_sub: 4,
            cutoff: Some(15),
        },
        TopologySpec::DapaMesh {
            nodes,
            m: 2,
            tau_sub: 6,
            cutoff: None,
        },
    ];
    let mut specs: Vec<ScenarioSpec> = topologies
        .into_iter()
        .map(|topology| {
            ScenarioSpec::sweep(
                format!("roundtrip-{}", topology.label()),
                topology,
                SearchSpec::Flooding,
                SweepSpec::single(vec![1, 3], 4),
                17,
                2,
            )
        })
        .collect();

    let searches = vec![
        SearchSpec::Flooding,
        SearchSpec::NormalizedFlooding { k_min: None },
        SearchSpec::NormalizedFlooding { k_min: Some(3) },
        SearchSpec::ProbabilisticFlooding { p: 0.5 },
        SearchSpec::ExpandingRing {
            initial_ttl: 1,
            increment: 2,
        },
        SearchSpec::RandomWalk,
        SearchSpec::MultipleRandomWalk { walkers: 4 },
        SearchSpec::DegreeBiasedWalk,
        SearchSpec::RwNormalizedToNf { k_min: None },
    ];
    for (i, search) in searches.into_iter().enumerate() {
        specs.push(ScenarioSpec::sweep(
            format!("roundtrip-search-{i}"),
            TopologySpec::Pa {
                nodes,
                m: 2,
                cutoff: Some(12),
            },
            search,
            SweepSpec::single(vec![2, 4], 4),
            23,
            1,
        ));
    }

    // A curve-label override (single curve, static): the label names the legend *and*
    // the RNG stream family.
    let mut labelled = ScenarioSpec::degree_distribution(
        "roundtrip-curve-label",
        TopologySpec::Pa {
            nodes,
            m: 2,
            cutoff: Some(10),
        },
        None,
        8,
        29,
        2,
    );
    labelled.curve_label = Some("m=2".to_string());
    specs.push(labelled);

    let mut sim = SimulationConfig::small();
    sim.initial_peers = 120;
    sim.duration = 120;
    specs.push(ScenarioSpec::churn("roundtrip-churn", sim, 31, 2));

    let mut run = TraceRunConfig::small();
    run.bootstrap_peers = 80;
    specs.push(ScenarioSpec::trace(
        "roundtrip-trace",
        ChurnTraceConfig {
            duration: 150,
            arrival_rate: 0.4,
            sessions: SessionModel::Exponential { mean: 60.0 },
            crash_fraction: 0.25,
        },
        run,
        37,
        2,
    ));
    specs
}

#[test]
fn every_spec_variant_round_trips_and_reruns_byte_identically() {
    let runner = ScenarioRunner::new();
    for spec in all_spec_variants() {
        // Spec -> JSON -> spec is lossless.
        let spec_text = spec.to_json_string();
        let reparsed = ScenarioSpec::parse(&spec_text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", spec.name));
        assert_eq!(reparsed, spec, "{}", spec.name);

        // Run once, serialize the report, parse it back, and rerun from the embedded
        // spec: the two report serializations must be byte-identical.
        let report = runner
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", spec.name));
        assert_eq!(
            report.spec, spec,
            "{}: report must embed its spec",
            spec.name
        );
        let report_text = report.to_json_string();
        let parsed_report = ScenarioReport::parse(&report_text)
            .unwrap_or_else(|e| panic!("{}: report reparse failed: {e}", spec.name));
        assert_eq!(parsed_report, report, "{}", spec.name);
        let rerun = runner
            .run(&parsed_report.spec)
            .unwrap_or_else(|e| panic!("{}: rerun failed: {e}", spec.name));
        assert_eq!(
            rerun.to_json_string(),
            report_text,
            "{}: rerunning the embedded spec must reproduce the report byte for byte",
            spec.name
        );
    }
}

#[test]
fn snapshot_topology_specs_round_trip_through_json() {
    // The snapshot family has no generator parameters — just a path — and must survive
    // spec -> JSON -> spec like every other family. (Validation and execution against
    // real .sfos files are covered by tests/snapshot_roundtrip.rs; this is the codec.)
    let mut spec = ScenarioSpec::sweep(
        "snapshot-sweep",
        TopologySpec::Snapshot {
            path: "realization0.sfos".to_string(),
        },
        SearchSpec::NormalizedFlooding { k_min: Some(2) },
        SweepSpec::single(vec![1, 2, 4], 10),
        2024,
        1,
    );
    spec.sweep.as_mut().unwrap().batch = true;
    // The worker list is part of the sweep section and must round-trip verbatim.
    spec.sweep.as_mut().unwrap().workers = vec![
        "10.0.0.1:9000".to_string(),
        "unix:/var/run/sfo.sock".to_string(),
    ];
    let text = spec.to_json_string();
    assert!(text.contains("\"family\": \"snapshot\""));
    assert!(text.contains("\"path\": \"realization0.sfos\""));
    assert!(text.contains("\"workers\""));
    assert!(text.contains("unix:/var/run/sfo.sock"));
    let back = ScenarioSpec::parse(&text).unwrap();
    assert_eq!(back, spec, "{text}");
    assert_eq!(back.to_json_string(), text);

    // Pre-sfo-net spec files have no "workers" key at all; absence parses to an empty
    // worker list (local execution).
    let legacy = text.replace(
        ",\n    \"workers\": [\"10.0.0.1:9000\", \"unix:/var/run/sfo.sock\"]",
        "",
    );
    assert_ne!(legacy, text, "the replace must have found the worker list");
    let mut no_workers = spec.clone();
    no_workers.sweep.as_mut().unwrap().workers = Vec::new();
    assert_eq!(ScenarioSpec::parse(&legacy).unwrap(), no_workers);

    // Unknown or generator-family fields on a snapshot topology fail loudly.
    let stray = r#"{"family": "snapshot", "path": "x.sfos", "nodes": 100}"#;
    let full = format!(
        r#"{{"name": "s", "topology": {stray}, "search": null,
            "dynamics": {{"kind": "static"}}, "sweep": null,
            "measure": {{"kind": "search_sweep"}}, "seed": 1, "realizations": 1}}"#
    );
    assert!(matches!(
        ScenarioSpec::parse(&full),
        Err(ScenarioError::InvalidSpec { .. })
    ));
}

#[test]
fn invalid_specs_return_typed_errors_not_panics() {
    let base = |topology| {
        ScenarioSpec::sweep(
            "invalid",
            topology,
            SearchSpec::Flooding,
            SweepSpec::single(vec![2], 4),
            1,
            1,
        )
    };

    // Zero nodes.
    let zero_nodes = base(TopologySpec::Pa {
        nodes: 0,
        m: 2,
        cutoff: None,
    });
    assert!(matches!(
        zero_nodes.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Hard cutoff below m.
    let cutoff_below_m = base(TopologySpec::Hapa {
        nodes: 100,
        m: 3,
        cutoff: Some(2),
    });
    assert!(matches!(
        cutoff_below_m.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // The same spec arriving through JSON text stays a typed error.
    let text = cutoff_below_m.to_json_string();
    let reparsed = ScenarioSpec::parse(&text).expect("structurally valid JSON");
    assert!(matches!(
        reparsed.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Flash-crowd intensity outside [0, 1].
    let mut run = TraceRunConfig::small();
    run.workload = Workload::FlashCrowd {
        hot_item: sfoverlay::sim::catalog::ItemId::new(0),
        start: 0,
        end: 50,
        intensity: 1.5,
    };
    let bad_intensity = ScenarioSpec::trace(
        "invalid-intensity",
        ChurnTraceConfig {
            duration: 100,
            arrival_rate: 0.5,
            sessions: SessionModel::Fixed { length: 10.0 },
            crash_fraction: 0.2,
        },
        run,
        1,
        1,
    );
    assert!(matches!(
        bad_intensity.validate(),
        Err(ScenarioError::Sim(_))
    ));

    // Zero realizations, empty TTL grid, zero fan-out.
    let mut spec = base(TopologySpec::Pa {
        nodes: 100,
        m: 2,
        cutoff: None,
    });
    spec.realizations = 0;
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));
    let mut spec = base(TopologySpec::Pa {
        nodes: 100,
        m: 2,
        cutoff: None,
    });
    spec.sweep.as_mut().unwrap().ttls.clear();
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));
    let mut spec = base(TopologySpec::Pa {
        nodes: 100,
        m: 2,
        cutoff: None,
    });
    spec.search = Some(SearchSpec::NormalizedFlooding { k_min: Some(0) });
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Malformed JSON text is a parse error with a position, not a panic.
    assert!(matches!(
        ScenarioSpec::parse("{\"name\": }"),
        Err(ScenarioError::Parse { .. })
    ));
}

#[test]
fn shipped_example_specs_validate_and_the_smoke_spec_runs() {
    let examples_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut spec_files: Vec<_> = std::fs::read_dir(&examples_dir)
        .expect("examples directory exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "json").then_some(path)
        })
        .collect();
    spec_files.sort();
    assert!(
        spec_files.len() >= 5,
        "expected several shipped scenario files, found {spec_files:?}"
    );
    for path in &spec_files {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.starts_with("//"),
            "{}: example specs carry a header comment tying them to the paper",
            path.display()
        );
        let spec = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: validation failed: {e}", path.display()));
    }

    // The CI smoke spec runs end to end and its report embeds the spec.
    let smoke_text = std::fs::read_to_string(examples_dir.join("scenario_smoke.json")).unwrap();
    let smoke = ScenarioSpec::parse(&smoke_text).unwrap();
    let report = ScenarioRunner::new().run(&smoke).unwrap();
    assert_eq!(report.spec, smoke);
    let curves = report.sweep_curves().unwrap();
    assert_eq!(curves.len(), 4);
    for curve in curves {
        assert!(curve.points.iter().all(|p| p.hits.mean > 0.0));
    }
}

#[test]
fn scenario_reports_expose_figure_ready_series() {
    let spec = ScenarioSpec::sweep(
        "series-check",
        TopologySpec::Pa {
            nodes: 200,
            m: 2,
            cutoff: None,
        },
        SearchSpec::NormalizedFlooding { k_min: None },
        SweepSpec::grid(vec![1, 2], vec![Some(10), None], vec![2, 4], 5),
        3,
        2,
    );
    let report = ScenarioRunner::new().run(&spec).unwrap();
    let hits = report.series(SweepMetric::Hits);
    assert_eq!(hits.len(), 4);
    assert_eq!(hits[0].label, "PA, m=1, k_c=10");
    for series in &hits {
        assert_eq!(series.points.len(), 2);
        for p in &series.points {
            assert_eq!(p.realizations, 2);
        }
    }
}
