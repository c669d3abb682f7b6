//! Flooding search-efficiency figures: Figs. 6, 7, and 8.
//!
//! Every curve reports the mean number of hits (distinct peers reached) per flooding search
//! of time-to-live `τ`, averaged over random sources and network realizations, on
//! `scale.search_nodes`-node topologies (the paper uses `N = 10^4`).
//!
//! Each figure is expressed as declarative [`ScenarioSpec`]s — one per topology family,
//! sweeping the paper's `m × k_c` grid — handed to the shared scenario runner; curve
//! labels and RNG streams are the spec layer's, so a curve here is bit-identical to the
//! same curve run from a JSON spec file.

use crate::helpers::{flooding_ttls, scenario_series};
use crate::{ExperimentOutput, Scale};
use sfo_analysis::FigureData;
use sfo_scenario::{ScenarioSpec, SearchSpec, SweepMetric, SweepSpec, TopologySpec};

/// The hard-cutoff axis the paper sweeps in Figs. 6 and 8 (`k_c = 10, 50, none`).
fn fig6_cutoffs() -> Vec<Option<usize>> {
    vec![Some(10), Some(50), None]
}

/// Builds the flooding sweep spec of one topology family for a figure.
fn flooding_spec(
    name: impl Into<String>,
    topology: TopologySpec,
    cutoffs: Vec<Option<usize>>,
    scale: &Scale,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::sweep(
        name,
        topology,
        SearchSpec::Flooding,
        SweepSpec::grid(
            vec![1, 2, 3],
            cutoffs,
            flooding_ttls(),
            scale.searches_per_point,
        ),
        seed,
        scale.realizations,
    )
}

fn figure_from_specs(id: &str, title: &str, specs: Vec<ScenarioSpec>) -> ExperimentOutput {
    let mut figure = FigureData::new(id, title, "tau", "hits");
    for spec in &specs {
        for series in scenario_series(spec, SweepMetric::Hits) {
            figure.push_series(series);
        }
    }
    ExperimentOutput::Figure(figure)
}

/// Fig. 6(a,b): FL hits versus `τ` on PA and HAPA topologies.
pub(crate) fn fig6(scale: &Scale, seed: u64) -> ExperimentOutput {
    let pa = TopologySpec::Pa {
        nodes: scale.search_nodes,
        m: 1,
        cutoff: None,
    };
    let hapa = TopologySpec::Hapa {
        nodes: scale.search_nodes,
        m: 1,
        cutoff: None,
    };
    figure_from_specs(
        "fig6",
        "Flooding search efficiency on PA and HAPA topologies",
        vec![
            flooding_spec("fig6-pa", pa, fig6_cutoffs(), scale, seed),
            flooding_spec("fig6-hapa", hapa, fig6_cutoffs(), scale, seed),
        ],
    )
}

/// Fig. 7: FL hits versus `τ` on CM topologies with target exponents 2.2, 2.6, and 3.0.
pub(crate) fn fig7(scale: &Scale, seed: u64) -> ExperimentOutput {
    let specs = [2.2f64, 2.6, 3.0]
        .into_iter()
        .map(|gamma| {
            flooding_spec(
                format!("fig7-cm-gamma{gamma}"),
                TopologySpec::Cm {
                    nodes: scale.search_nodes,
                    gamma,
                    m: 1,
                    cutoff: None,
                },
                vec![Some(10), Some(40), None],
                scale,
                seed,
            )
        })
        .collect();
    figure_from_specs(
        "fig7",
        "Flooding search efficiency on configuration-model topologies",
        specs,
    )
}

/// Fig. 8: FL hits versus `τ` on DAPA topologies for different local TTLs `τ_sub`.
pub(crate) fn fig8(scale: &Scale, seed: u64) -> ExperimentOutput {
    let specs = [2u32, 4, 10, 20]
        .into_iter()
        .map(|tau_sub| {
            flooding_spec(
                format!("fig8-dapa-tau{tau_sub}"),
                TopologySpec::DapaGrn {
                    nodes: scale.search_nodes,
                    m: 1,
                    tau_sub,
                    cutoff: None,
                },
                fig6_cutoffs(),
                scale,
                seed,
            )
        })
        .collect();
    figure_from_specs(
        "fig8",
        "Flooding search efficiency on DAPA topologies",
        specs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            degree_nodes: 400,
            search_nodes: 350,
            realizations: 1,
            searches_per_point: 8,
        }
    }

    #[test]
    fn fig6_hits_grow_with_ttl_and_saturate_near_system_size() {
        let scale = tiny();
        let output = fig6(&scale, 1);
        let figure = output.as_figure().unwrap();
        assert_eq!(figure.series.len(), 18);
        for series in &figure.series {
            let first = series.points.first().unwrap().y;
            let last = series.points.last().unwrap().y;
            assert!(
                last >= first,
                "{}: hits must not shrink with ttl",
                series.label
            );
            assert!(
                last <= (scale.search_nodes - 1) as f64 + 1e-9,
                "{}: hits cannot exceed the system size",
                series.label
            );
        }
        // Without a cutoff and with m=3, a deep flood covers essentially the whole network.
        let unbounded = figure.series_by_label("PA, m=3, no k_c").unwrap();
        assert!(unbounded.points.last().unwrap().y > 0.9 * scale.search_nodes as f64);
    }

    #[test]
    fn fig7_m1_floods_stall_below_system_size() {
        // Paper: CM with m=1 is disconnected, so even very deep floods cannot reach the
        // whole network, unlike m=3.
        let scale = tiny();
        let output = fig7(&scale, 2);
        let figure = output.as_figure().unwrap();
        let m1 = figure.series_by_label("CM gamma=2.6, m=1, no k_c").unwrap();
        let m3 = figure.series_by_label("CM gamma=2.6, m=3, no k_c").unwrap();
        let m1_final = m1.points.last().unwrap().y;
        let m3_final = m3.points.last().unwrap().y;
        assert!(
            m1_final < 0.9 * scale.search_nodes as f64,
            "m=1 flood should stall below system size, got {m1_final}"
        );
        assert!(
            m3_final > m1_final,
            "m=3 coverage {m3_final} should exceed m=1 coverage {m1_final}"
        );
    }
}
