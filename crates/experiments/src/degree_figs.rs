//! Degree-distribution figures: Figs. 1(a-c), 2, 3, 4, and 4(g).
//!
//! Sizes follow the active [`Scale`]: the paper's degree distributions use `N = 10^5`
//! (PA/CM/HAPA) and `N_O = 10^4` over an `N_S = 2·10^4` GRN substrate (DAPA). DAPA figures
//! use `scale.search_nodes` rather than `scale.degree_nodes` because every join performs a
//! bounded substrate BFS, which dominates the runtime.
//!
//! Every `P(k)` panel is expressed as a [`TopologySpec`] handed to the scenario layer
//! through [`degree_distribution_series`], with the figure's historical legend string
//! as the curve-label override — the legend salts the realization streams, so the
//! migrated panels are bit-identical to the bespoke loops they replaced. The exponent
//! panels (1(c), 4(g)) keep generating directly: a power-law fit needs raw
//! per-realization histograms, which a binned degree report deliberately does not
//! carry.

use crate::helpers::{degree_distribution_series, fitted_exponent};
use crate::{ExperimentOutput, Scale};
use sfo_analysis::{DataPoint, DataSeries, FigureData};
use sfo_core::pa::PreferentialAttachment;
use sfo_core::DapaOverGrn;
use sfo_core::DegreeCutoff;
use sfo_scenario::TopologySpec;

fn cutoff_label(cutoff: Option<usize>) -> String {
    match cutoff {
        None => "no k_c".to_string(),
        Some(k_c) => format!("k_c={k_c}"),
    }
}

/// Fig. 1(a): PA degree distributions without a hard cutoff, `m = 1, 2, 3`.
pub(crate) fn fig1a(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig1a",
        "Degree distributions of the PA model without hard cutoff",
        "k",
        "P(k)",
    );
    for m in [1usize, 2, 3] {
        let topology = TopologySpec::Pa {
            nodes: scale.degree_nodes,
            m,
            cutoff: None,
        };
        let label = format!("m={m}");
        figure.push_series(degree_distribution_series(topology, &label, scale, seed));
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 1(b): PA degree distributions for different hard cutoffs.
pub(crate) fn fig1b(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig1b",
        "Degree distributions of the PA model with hard cutoffs",
        "k",
        "P(k)",
    );
    let cutoffs = [None, Some(100usize), Some(40), Some(10)];
    for m in [1usize, 3] {
        for cutoff in cutoffs {
            let topology = TopologySpec::Pa {
                nodes: scale.degree_nodes,
                m,
                cutoff,
            };
            let label = format!("m={m}, {}", cutoff_label(cutoff));
            figure.push_series(degree_distribution_series(topology, &label, scale, seed));
        }
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 1(c): fitted PA degree exponent versus the hard cutoff, `m = 1, 2, 3`.
pub(crate) fn fig1c(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig1c",
        "PA degree-distribution exponent vs hard cutoff",
        "k_c",
        "gamma",
    );
    for m in [1usize, 2, 3] {
        let mut series = DataSeries::new(format!("m={m}"));
        for k_c in [10usize, 20, 30, 40, 50] {
            let generator = PreferentialAttachment::new(scale.degree_nodes, m)
                .expect("scale sizes exceed the PA seed")
                .with_cutoff(DegreeCutoff::hard(k_c));
            let label = format!("m={m}, k_c={k_c}");
            // Fit window stops just below the cutoff so the accumulation spike does not
            // drag the slope (paper, Fig. 1(c) methodology).
            let summary =
                fitted_exponent(&generator, &label, m, k_c.saturating_sub(1), scale, seed);
            series.push(DataPoint::from_summary(k_c as f64, &summary));
        }
        figure.push_series(series);
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 2: CM degree distributions for target exponents 2.2, 2.6, and 3.0.
pub(crate) fn fig2(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig2",
        "Degree distributions of the configuration model (target gamma = 2.2, 2.6, 3.0)",
        "k",
        "P(k)",
    );
    for gamma in [2.2f64, 2.6, 3.0] {
        for m in [1usize, 3] {
            for cutoff in [None, Some(40usize), Some(10)] {
                let topology = TopologySpec::Cm {
                    nodes: scale.degree_nodes,
                    gamma,
                    m,
                    cutoff,
                };
                let label = format!("gamma={gamma}, m={m}, {}", cutoff_label(cutoff));
                figure.push_series(degree_distribution_series(topology, &label, scale, seed));
            }
        }
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 3: HAPA degree distributions (star-like without a cutoff, power-law-like with one).
pub(crate) fn fig3(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig3",
        "Degree distributions of the HAPA model",
        "k",
        "P(k)",
    );
    for m in [1usize, 3] {
        for cutoff in [None, Some(50usize), Some(10)] {
            let topology = TopologySpec::Hapa {
                nodes: scale.degree_nodes,
                m,
                cutoff,
            };
            let label = format!("m={m}, {}", cutoff_label(cutoff));
            figure.push_series(degree_distribution_series(topology, &label, scale, seed));
        }
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 4(a-f): DAPA degree distributions as the local TTL `τ_sub`, the connectedness `m`,
/// and the hard cutoff vary.
pub(crate) fn fig4(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig4",
        "Degree distributions of the DAPA model over a GRN substrate",
        "k",
        "P(k)",
    );
    let tau_subs = [2u32, 4, 10, 20];
    for m in [1usize, 3] {
        for cutoff in [None, Some(40usize), Some(10)] {
            for tau_sub in tau_subs {
                let topology = TopologySpec::DapaGrn {
                    nodes: scale.search_nodes,
                    m,
                    tau_sub,
                    cutoff,
                };
                let label = format!("m={m}, {}, tau_sub={tau_sub}", cutoff_label(cutoff));
                figure.push_series(degree_distribution_series(topology, &label, scale, seed));
            }
        }
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 4(g): fitted DAPA degree exponent versus the hard cutoff, `m = 1, 2, 3`.
pub(crate) fn fig4g(scale: &Scale, seed: u64) -> ExperimentOutput {
    let mut figure = FigureData::new(
        "fig4g",
        "DAPA degree-distribution exponent vs hard cutoff (tau_sub = 10)",
        "k_c",
        "gamma",
    );
    for m in [1usize, 2, 3] {
        let mut series = DataSeries::new(format!("m={m}"));
        for k_c in [10usize, 20, 40] {
            let generator = DapaOverGrn::new(scale.search_nodes, m, 10)
                .expect("scale sizes are valid for DAPA")
                .with_cutoff(DegreeCutoff::hard(k_c));
            let label = format!("m={m}, k_c={k_c}");
            let summary = fitted_exponent(
                &generator,
                &label,
                m.max(1),
                k_c.saturating_sub(1),
                scale,
                seed,
            );
            series.push(DataPoint::from_summary(k_c as f64, &summary));
        }
        figure.push_series(series);
    }
    ExperimentOutput::Figure(figure)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny scale so unit tests stay fast in debug builds.
    fn tiny() -> Scale {
        Scale {
            degree_nodes: 600,
            search_nodes: 300,
            realizations: 1,
            searches_per_point: 5,
        }
    }

    #[test]
    fn fig1a_produces_three_decreasing_series() {
        let output = fig1a(&tiny(), 1);
        let figure = output.as_figure().unwrap();
        assert_eq!(figure.series.len(), 3);
        for series in &figure.series {
            assert!(
                series.points.len() >= 3,
                "{} has too few bins",
                series.label
            );
            assert!(series.points.first().unwrap().y > series.points.last().unwrap().y);
        }
    }

    #[test]
    fn fig1b_cutoff_series_have_bounded_support() {
        let output = fig1b(&tiny(), 2);
        let figure = output.as_figure().unwrap();
        assert_eq!(figure.series.len(), 8);
        let capped = figure.series_by_label("m=1, k_c=10").unwrap();
        // Log-bin centers can sit slightly above the largest sample, so allow one bin of
        // slack beyond the cutoff of 10.
        assert!(
            capped.points.iter().all(|p| p.x <= 14.0),
            "support must stop at the cutoff"
        );
        let free = figure.series_by_label("m=1, no k_c").unwrap();
        assert!(free.points.last().unwrap().x > capped.points.last().unwrap().x);
    }

    #[test]
    fn fig1c_exponent_growths_with_cutoff() {
        // Paper, Fig. 1(c): the exponent degrades (decreases) as the cutoff shrinks, i.e. it
        // grows with k_c. With a tiny test network we only require the trend between the
        // extremes, allowing noise in between.
        let scale = Scale {
            degree_nodes: 2_500,
            ..tiny()
        };
        let output = fig1c(&scale, 3);
        let figure = output.as_figure().unwrap();
        let m1 = figure.series_by_label("m=1").unwrap();
        let at_10 = m1.y_at(10.0).unwrap();
        let at_50 = m1.y_at(50.0).unwrap();
        assert!(
            at_50 > at_10 - 0.3,
            "exponent at k_c=50 ({at_50}) should not be far below the k_c=10 value ({at_10})"
        );
        for series in &figure.series {
            for p in &series.points {
                assert!((1.0..=4.5).contains(&p.y), "implausible exponent {}", p.y);
            }
        }
    }

    #[test]
    fn fig3_star_series_reaches_larger_degrees_than_capped_series() {
        let output = fig3(&tiny(), 4);
        let figure = output.as_figure().unwrap();
        let star = figure.series_by_label("m=1, no k_c").unwrap();
        let capped = figure.series_by_label("m=1, k_c=10").unwrap();
        let star_max_k = star.points.iter().map(|p| p.x).fold(0.0f64, f64::max);
        let capped_max_k = capped.points.iter().map(|p| p.x).fold(0.0f64, f64::max);
        assert!(star_max_k > capped_max_k);
        // One log-bin of slack beyond the cutoff of 10 (bin centers exceed the samples).
        assert!(capped_max_k <= 14.0);
    }

    #[test]
    fn fig4g_exponents_are_positive_and_finite() {
        let scale = Scale {
            degree_nodes: 600,
            search_nodes: 500,
            realizations: 1,
            searches_per_point: 5,
        };
        let output = fig4g(&scale, 5);
        let figure = output.as_figure().unwrap();
        assert_eq!(figure.series.len(), 3);
        for series in &figure.series {
            for p in &series.points {
                assert!(
                    p.y.is_finite() && p.y > 0.0,
                    "{}: bad exponent {}",
                    series.label,
                    p.y
                );
            }
        }
    }
}
