//! Extension experiments: alternative search strategies, replication strategies, the
//! substrate comparison, and churn-trace replay.
//!
//! These go beyond the paper's plotted figures but stay inside its problem statement. The
//! search-strategy comparison adds the practical algorithms its related-work section
//! points to, and the replication experiment quantifies the Cohen-Shenker allocation rules
//! its §II cites.

use crate::helpers::{nf_rw_ttls, realization_rng, scenario_series};
use crate::{ExperimentOutput, Scale};
use sfo_analysis::TextTable;
use sfo_core::DegreeCutoff;
use sfo_scenario::{ScenarioSpec, SearchSpec, SweepMetric, SweepSpec, TopologySpec};
use sfo_sim::catalog::Catalog;
use sfo_sim::overlay::{JoinStrategy, OverlayConfig, OverlayNetwork};
use sfo_sim::{allocate, expected_search_size, place, ReplicationStrategy};
use sfo_sim::{run_query, QueryMethod};

fn cutoff_label(cutoff: DegreeCutoff) -> String {
    match cutoff.value() {
        None => "no k_c".to_string(),
        Some(k_c) => format!("k_c={k_c}"),
    }
}

fn format_f64(value: f64) -> String {
    format!("{value:.3}")
}

/// Search-strategy comparison: hits versus TTL for every implemented search algorithm on PA
/// topologies (`m = 2`), with and without a hard cutoff.
///
/// FL is the coverage ceiling, NF/pFL/expanding-ring are the practical flooding variants,
/// and RW/HD-RW are the walk variants; the figure shows which of them benefit from hard
/// cutoffs (the paper's NF/RW observation) and which lose their hub shortcut (HD-RW).
pub(crate) fn search_strategies(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = sfo_analysis::FigureData::new(
        "search-strategies",
        "Hits vs tau for all search strategies on PA topologies (m=2)",
        "tau",
        "hits",
    );
    let algorithms: Vec<(&str, SearchSpec)> = vec![
        ("FL", SearchSpec::Flooding),
        (
            "NF k_min=2",
            SearchSpec::NormalizedFlooding { k_min: Some(2) },
        ),
        ("pFL p=0.5", SearchSpec::ProbabilisticFlooding { p: 0.5 }),
        (
            "ring 1+2",
            SearchSpec::ExpandingRing {
                initial_ttl: 1,
                increment: 2,
            },
        ),
        ("RW", SearchSpec::RandomWalk),
        ("HD-RW", SearchSpec::DegreeBiasedWalk),
    ];
    for cutoff in [DegreeCutoff::Unbounded, DegreeCutoff::hard(10)] {
        for (name, search) in &algorithms {
            // One single-curve scenario per algorithm. The curve label (and so the RNG
            // stream) is the topology's, so every algorithm sees identical realizations
            // for a given cutoff — an exact like-for-like comparison.
            let spec = ScenarioSpec::sweep(
                format!("search-strategies {name} {}", cutoff_label(cutoff)),
                TopologySpec::Pa {
                    nodes: scale.search_nodes,
                    m: 2,
                    cutoff: cutoff.value(),
                },
                search.clone(),
                SweepSpec::single(nf_rw_ttls(), scale.searches_per_point),
                seed,
                scale.realizations,
            );
            let mut series = scenario_series(&spec, SweepMetric::Hits).remove(0);
            series.label = format!("{name}, {}", cutoff_label(cutoff));
            figure.push_series(series);
        }
    }
    ExperimentOutput::Figure(figure)
}

/// Replication-strategy comparison (Cohen & Shenker, ref. \[22\]): expected search size and
/// simulated normalized-flooding success rate for uniform, proportional, and square-root
/// replica allocation over a live overlay with hard cutoffs.
pub(crate) fn replication(scale: &Scale, seed: u64) -> ExperimentOutput {
    let peers = (scale.search_nodes / 2).clamp(200, 2_000);
    let items = 50usize;
    let budget = items * 6;
    let queries = (scale.searches_per_point * 10).max(100);
    let ttl = 5u32;

    let catalog = Catalog::new(items, 1.0).expect("valid catalog");
    let mut table = TextTable::new(vec![
        "strategy",
        "expected search size",
        "success rate",
        "mean messages/query",
    ]);
    for (name, strategy) in [
        ("uniform", ReplicationStrategy::Uniform),
        ("proportional", ReplicationStrategy::Proportional),
        ("square-root", ReplicationStrategy::SquareRoot),
    ] {
        let mut rng = realization_rng(seed, 0xA110C, name.len());
        let mut overlay = OverlayNetwork::new(OverlayConfig {
            stubs: 3,
            cutoff: DegreeCutoff::hard(10),
            join_strategy: JoinStrategy::UniformRandom,
            repair_on_leave: true,
        })
        .expect("valid overlay config");
        for _ in 0..peers {
            overlay.join(&mut rng);
        }
        let allocation = allocate(&catalog, strategy, budget).expect("budget covers the catalog");
        place(&mut overlay, &allocation, &mut rng).expect("overlay is non-empty");

        let mut successes = 0usize;
        let mut messages = 0usize;
        for _ in 0..queries {
            let source = overlay.random_peer(&mut rng).expect("overlay is non-empty");
            let item = catalog.sample_query(&mut rng);
            let outcome = run_query(
                &overlay,
                QueryMethod::NormalizedFlooding { k_min: 3 },
                source,
                item,
                ttl,
                &mut rng,
            )
            .expect("query parameters are valid");
            if outcome.found {
                successes += 1;
            }
            messages += outcome.messages;
        }
        table.push_row(vec![
            name.to_string(),
            format_f64(expected_search_size(&catalog, &allocation, peers)),
            format_f64(successes as f64 / queries as f64),
            format_f64(messages as f64 / queries as f64),
        ]);
    }
    ExperimentOutput::Table(table)
}

/// Substrate comparison for DAPA (paper §IV-B): the geometric random network used
/// throughout the paper versus the two-dimensional regular mesh it mentions as the
/// alternative.
///
/// For the same overlay size, stub count, and local TTL, the table reports the largest hub
/// the overlay grows and the normalized-flooding coverage at a fixed search TTL. The mesh's
/// horizons grow only quadratically with `τ_sub`, so its overlays are lighter-tailed and
/// need larger `τ_sub` to reach the same search efficiency — the locality/scale-freeness
/// trade-off of Table II in substrate form.
pub(crate) fn substrate_comparison(scale: &Scale, seed: u64) -> ExperimentOutput {
    let nodes = scale.search_nodes;
    let nf_ttl = 8u32;
    let mut table = TextTable::new(vec![
        "substrate",
        "tau_sub",
        "cutoff",
        "max k",
        "mean k",
        "NF hits @ tau=8",
    ]);
    for tau_sub in [2u32, 4, 10] {
        for cutoff in [DegreeCutoff::Unbounded, DegreeCutoff::hard(10)] {
            let configs: Vec<(&str, TopologySpec)> = vec![
                (
                    "GRN",
                    TopologySpec::DapaGrn {
                        nodes,
                        m: 2,
                        tau_sub,
                        cutoff: cutoff.value(),
                    },
                ),
                (
                    "mesh",
                    TopologySpec::DapaMesh {
                        nodes,
                        m: 2,
                        tau_sub,
                        cutoff: cutoff.value(),
                    },
                ),
            ];
            for (name, topology) in &configs {
                let generator = topology.build().expect("valid DAPA config");
                let mut rng = realization_rng(
                    seed,
                    0x5B5,
                    name.len() + tau_sub as usize + cutoff.value().unwrap_or(0),
                );
                let graph = generator
                    .generate(&mut rng)
                    .unwrap_or_else(|e| panic!("DAPA over {name} failed: {e}"));
                let spec = ScenarioSpec::sweep(
                    format!(
                        "substrate-comparison {name} t{tau_sub} {}",
                        cutoff_label(cutoff)
                    ),
                    topology.clone(),
                    SearchSpec::NormalizedFlooding { k_min: Some(2) },
                    SweepSpec::single(vec![nf_ttl], scale.searches_per_point),
                    seed,
                    scale.realizations,
                );
                let nf = scenario_series(&spec, SweepMetric::Hits).remove(0);
                table.push_row(vec![
                    name.to_string(),
                    tau_sub.to_string(),
                    cutoff_label(cutoff),
                    graph.max_degree().unwrap_or(0).to_string(),
                    format_f64(graph.average_degree()),
                    format_f64(nf.points[0].y),
                ]);
            }
        }
    }
    ExperimentOutput::Table(table)
}

/// Controlled churn comparison: the *same* heavy-tailed churn trace (Pareto sessions,
/// Poisson arrivals, 25% crashes) replayed against overlays with and without a hard cutoff
/// and with and without leave repair.
///
/// Unlike the `churn` experiment (which draws churn on the fly), the trace-replay design
/// guarantees that all four configurations face the identical sequence of arrivals and
/// departures, so differences in lookup success and connectivity are attributable to the
/// overlay policy alone — the controlled experiment the paper's future-work section asks
/// for.
pub(crate) fn churn_trace(scale: &Scale, seed: u64) -> ExperimentOutput {
    use sfo_sim::{generate_trace, ChurnTraceConfig, SessionModel};
    use sfo_sim::{run_trace, TraceRunConfig};

    let bootstrap = (scale.search_nodes / 4).clamp(100, 1_000);
    let duration = 600u64;
    let trace_config = ChurnTraceConfig {
        duration,
        arrival_rate: bootstrap as f64 / duration as f64,
        sessions: SessionModel::Pareto {
            shape: 1.6,
            minimum: 30.0,
        },
        crash_fraction: 0.25,
    };
    let mut trace_rng = realization_rng(seed, 0xC4A2, 0);
    let trace = generate_trace(&trace_config, &mut trace_rng).expect("valid trace config");

    let mut table = TextTable::new(vec![
        "cutoff",
        "leave repair",
        "lookup success",
        "worst giant component",
        "final max degree",
        "control msgs / churn event",
    ]);
    for (cutoff, repair) in [
        (DegreeCutoff::hard(10), true),
        (DegreeCutoff::hard(10), false),
        (DegreeCutoff::Unbounded, true),
        (DegreeCutoff::Unbounded, false),
    ] {
        let mut config = TraceRunConfig::small();
        config.bootstrap_peers = bootstrap;
        config.overlay = OverlayConfig {
            stubs: 3,
            cutoff,
            join_strategy: JoinStrategy::HopAndAttempt {
                max_hops_per_link: 100,
            },
            repair_on_leave: repair,
        };
        config.replica_budget = config.catalog_items * 5;
        let mut rng = realization_rng(
            seed,
            0xC4A2,
            1 + usize::from(repair) + 2 * cutoff.value().unwrap_or(0),
        );
        let report = run_trace(&config, &trace, &mut rng).expect("trace replay succeeds");
        let churn_events = (report.arrivals_applied + report.leaves_applied).max(1);
        table.push_row(vec![
            cutoff_label(cutoff),
            if repair {
                "yes".to_string()
            } else {
                "no".to_string()
            },
            format_f64(report.success_rate()),
            format_f64(report.worst_connectivity()),
            report
                .samples
                .last()
                .map(|s| s.max_degree)
                .unwrap_or(0)
                .to_string(),
            format_f64(report.control_messages as f64 / churn_events as f64),
        ]);
    }
    ExperimentOutput::Table(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            degree_nodes: 500,
            search_nodes: 400,
            realizations: 1,
            searches_per_point: 5,
        }
    }

    #[test]
    fn search_strategies_produces_all_series() {
        let output = search_strategies(&tiny_scale(), 5);
        let figure = output.as_figure().expect("comparison is a figure");
        assert_eq!(figure.series.len(), 12, "6 algorithms x 2 cutoffs");
        // FL dominates every other algorithm at the deepest TTL without a cutoff.
        let fl = figure
            .series_by_label("FL, no k_c")
            .unwrap()
            .max_y()
            .unwrap();
        for s in &figure.series {
            if s.label.ends_with("no k_c") {
                assert!(s.max_y().unwrap() <= fl + 1e-9, "{} exceeds FL", s.label);
            }
        }
    }

    #[test]
    fn replication_orders_expected_search_size() {
        let output = replication(&tiny_scale(), 7);
        let table = output.as_table().expect("replication is a table");
        assert_eq!(table.row_count(), 3);
        let ess: Vec<f64> = (0..3)
            .map(|r| table.cell(r, 1).unwrap().parse::<f64>().unwrap())
            .collect();
        // Square-root (row 2) beats uniform (row 0).
        assert!(ess[2] <= ess[0] + 1e-9);
    }

    #[test]
    fn churn_trace_compares_four_policies() {
        let output = churn_trace(&tiny_scale(), 13);
        let table = output.as_table().expect("churn trace is a table");
        assert_eq!(table.row_count(), 4);
        assert_eq!(table.column_count(), 6);
        // Cutoff rows report a final max degree bounded by 10.
        let capped_max: usize = table.cell(0, 4).unwrap().parse().unwrap();
        assert!(capped_max <= 10);
        // Every success rate is a probability.
        for row in 0..4 {
            let rate: f64 = table.cell(row, 2).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn substrate_comparison_covers_both_substrates() {
        let output = substrate_comparison(&tiny_scale(), 11);
        let table = output.as_table().expect("substrate comparison is a table");
        assert_eq!(
            table.row_count(),
            12,
            "3 tau_sub x 2 cutoffs x 2 substrates"
        );
        assert_eq!(table.column_count(), 6);
        // Column 0 alternates GRN / mesh.
        assert_eq!(table.cell(0, 0), Some("GRN"));
        assert_eq!(table.cell(1, 0), Some("mesh"));
    }
}
