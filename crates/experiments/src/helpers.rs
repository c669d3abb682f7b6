//! Shared building blocks for the figure reproductions.
//!
//! Both measurement families run through the declarative scenario layer: search
//! figures build sweep [`ScenarioSpec`]s and hand them to [`scenario_series`]; the
//! `P(k)` figures build degree-distribution specs and hand them to
//! [`degree_distribution_series`], using the spec's `curve_label` override so the
//! historical legend strings keep salting the *identical* RNG streams the bespoke
//! loops always used. What remains in-crate is the exponent-fit machinery (which needs
//! raw per-realization histograms, not binned reports) and the TTL grids.

use crate::Scale;
use rand::rngs::StdRng;
use sfo_analysis::fit_exponent_from_counts;
use sfo_analysis::{DataSeries, Summary};
use sfo_core::TopologyGenerator;
use sfo_scenario::{ScenarioRunner, ScenarioSpec, SweepMetric, TopologySpec};
use sfo_search::experiment::{label_salt, stream_rng};

/// Number of logarithmic bins per decade used for all degree-distribution figures.
pub(crate) const BINS_PER_DECADE: usize = 8;

/// Derives the RNG for realization `index` of a generator labelled by `salt`.
///
/// Delegates to [`stream_rng`], the workspace's single stream-derivation rule, so
/// realization streams here, worker-thread streams in `sfo-search`, and scenario-runner
/// streams in `sfo-scenario` are seeded identically.
pub(crate) fn realization_rng(seed: u64, salt: u64, index: usize) -> StdRng {
    stream_rng(seed, salt, index)
}

/// Runs a static scenario spec through the shared [`ScenarioRunner`] and converts its
/// sweep report into one labelled series per expanded curve.
///
/// # Panics
///
/// Panics when the spec is invalid or a generator fails — figure code treats both as
/// programming errors, exactly like the old bespoke loops did.
pub(crate) fn scenario_series(spec: &ScenarioSpec, metric: SweepMetric) -> Vec<DataSeries> {
    ScenarioRunner::new()
        .run(spec)
        .unwrap_or_else(|e| panic!("scenario '{}' failed: {e}", spec.name))
        .series(metric)
}

/// Builds a `P(k)` series (log-binned density versus degree) for one topology
/// configuration, as a degree-distribution scenario.
///
/// The figure legends predate [`TopologySpec::label`] (a PA panel says `"m=1"`, not
/// `"PA, m=1, no k_c"`), and those legend strings salt the realization streams — so
/// the spec carries `label` as its `curve_label` override, which makes the runner use
/// it for both the legend and the salt. The resulting series is bit-identical to the
/// bespoke generate-and-bin loop this helper replaced.
///
/// # Panics
///
/// Panics when the spec is invalid or a generator fails — figure code treats both as
/// programming errors, exactly like the old bespoke loops did.
pub(crate) fn degree_distribution_series(
    topology: TopologySpec,
    label: &str,
    scale: &Scale,
    seed: u64,
) -> DataSeries {
    let mut spec = ScenarioSpec::degree_distribution(
        format!("degree-series-{label}"),
        topology,
        None,
        BINS_PER_DECADE,
        seed,
        scale.realizations,
    );
    spec.curve_label = Some(label.to_string());
    let report = ScenarioRunner::new()
        .run(&spec)
        .unwrap_or_else(|e| panic!("scenario '{}' failed: {e}", spec.name));
    report
        .degree_series()
        .pop()
        .expect("a single-curve degree scenario yields one series")
}

/// Estimates the degree-distribution exponent of one generator configuration, averaged over
/// realizations. The fit window is `[m, fit_max]`; the paper stops the window just below
/// the hard cutoff so the accumulation spike does not drag the slope.
pub(crate) fn fitted_exponent(
    generator: &dyn TopologyGenerator,
    label: &str,
    m: usize,
    fit_max: usize,
    scale: &Scale,
    seed: u64,
) -> Summary {
    let salt = label_salt(label);
    let mut summary = Summary::new();
    for r in 0..scale.realizations {
        let mut rng = realization_rng(seed, salt, r);
        let graph = generator.generate_frozen(&mut rng).unwrap_or_else(|e| {
            panic!(
                "generator {} failed for series '{label}': {e}",
                generator.name()
            )
        });
        let hist = sfo_graph::degree_histogram(&graph);
        if let Some(fit) = fit_exponent_from_counts(&hist.counts, m, fit_max) {
            summary.add(fit.gamma);
        }
    }
    summary
}

/// Standard TTL grid for flooding figures (the paper sweeps τ until the flood saturates).
pub(crate) fn flooding_ttls() -> Vec<u32> {
    vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20]
}

/// Standard TTL grid for NF and RW figures (the paper uses τ up to 10).
pub(crate) fn nf_rw_ttls() -> Vec<u32> {
    vec![2, 3, 4, 5, 6, 7, 8, 9, 10]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfo_core::pa::PreferentialAttachment;
    use sfo_scenario::{SearchSpec, SweepSpec, TopologySpec};

    fn tiny_scale() -> Scale {
        Scale {
            degree_nodes: 400,
            search_nodes: 300,
            realizations: 2,
            searches_per_point: 5,
        }
    }

    #[test]
    fn realization_rngs_differ_across_indices_and_labels() {
        use rand::RngCore;
        let a = realization_rng(1, label_salt("a"), 0).next_u64();
        let b = realization_rng(1, label_salt("a"), 1).next_u64();
        let c = realization_rng(1, label_salt("b"), 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic for identical inputs.
        assert_eq!(a, realization_rng(1, label_salt("a"), 0).next_u64());
    }

    #[test]
    fn degree_distribution_series_is_decreasing_for_pa() {
        let scale = tiny_scale();
        let topology = TopologySpec::Pa {
            nodes: scale.degree_nodes,
            m: 1,
            cutoff: None,
        };
        let series = degree_distribution_series(topology, "m=1", &scale, 5);
        assert_eq!(series.label, "m=1");
        assert!(series.points.len() >= 3);
        assert!(series.points.first().unwrap().y > series.points.last().unwrap().y);
        assert!(series.points.iter().all(|p| p.realizations == 2));
    }

    #[test]
    fn degree_series_preserve_the_legacy_label_salted_streams() {
        // The migration contract: the spec-based series must reproduce, bit for bit,
        // what the old bespoke loop produced — generate each realization on
        // stream_rng(seed, label_salt(legend label), r), concatenate degrees, log-bin.
        use sfo_analysis::log_binned_distribution;
        let scale = tiny_scale();
        let topology = TopologySpec::Pa {
            nodes: scale.degree_nodes,
            m: 2,
            cutoff: Some(10),
        };
        let series = degree_distribution_series(topology.clone(), "m=2, k_c=10", &scale, 7);

        let generator = topology.build().unwrap();
        let mut samples = Vec::new();
        for r in 0..scale.realizations {
            let mut rng = realization_rng(7, label_salt("m=2, k_c=10"), r);
            samples.extend(sfo_graph::GraphView::degrees(
                &generator.generate_frozen(&mut rng).unwrap(),
            ));
        }
        let expected = log_binned_distribution(&samples, BINS_PER_DECADE);
        assert_eq!(series.points.len(), expected.len());
        for (point, bin) in series.points.iter().zip(&expected) {
            assert_eq!(point.x, bin.center);
            assert_eq!(point.y, bin.density);
            assert_eq!(point.y_error, 0.0);
        }
    }

    #[test]
    fn fitted_exponent_is_plausible_for_pa() {
        let scale = Scale {
            degree_nodes: 2_000,
            ..tiny_scale()
        };
        let generator = PreferentialAttachment::new(scale.degree_nodes, 2).unwrap();
        let summary = fitted_exponent(&generator, "m=2", 2, 60, &scale, 7);
        assert_eq!(summary.count(), scale.realizations);
        let gamma = summary.mean();
        assert!(
            (1.5..=3.8).contains(&gamma),
            "fitted exponent {gamma} far outside the scale-free range"
        );
    }

    #[test]
    fn scenario_series_hits_grow_with_ttl() {
        let scale = tiny_scale();
        let spec = ScenarioSpec::sweep(
            "helpers-test",
            TopologySpec::Pa {
                nodes: scale.search_nodes,
                m: 2,
                cutoff: Some(20),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1, 2, 4, 8], scale.searches_per_point),
            9,
            scale.realizations,
        );
        let series = scenario_series(&spec, SweepMetric::Hits);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].label, "PA, m=2, k_c=20");
        assert_eq!(series[0].points.len(), 4);
        assert!(series[0].y_at(8.0).unwrap() > series[0].y_at(1.0).unwrap());
        for p in &series[0].points {
            assert_eq!(p.realizations, scale.realizations);
        }
    }

    #[test]
    #[should_panic(expected = "scenario 'broken' failed")]
    fn scenario_series_panics_on_invalid_specs() {
        let spec = ScenarioSpec::sweep(
            "broken",
            TopologySpec::Pa {
                nodes: 0,
                m: 2,
                cutoff: None,
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1], 1),
            1,
            1,
        );
        let _ = scenario_series(&spec, SweepMetric::Hits);
    }

    #[test]
    fn ttl_grids_are_increasing() {
        for grid in [flooding_ttls(), nf_rw_ttls()] {
            for w in grid.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }
}
