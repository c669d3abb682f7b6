//! Normalized-flooding and random-walk figures: Figs. 9, 10, 11, and 12.
//!
//! NF curves report hits per search with fan-out `k_min = m` (the spec layer's
//! `k_min: None`). RW curves are message-normalized: for each TTL the walk's hop budget
//! equals the message count of the corresponding NF search (paper §V-B), so Figs. 9/11
//! and 10/12 are directly comparable.
//!
//! Both figure families share one panel of [`ScenarioSpec`]s — PA and HAPA across the
//! cutoff sweep, CM at `γ = 2.2` and `3.0` (Figs. 9/11), DAPA across `τ_sub` (Figs.
//! 10/12) — and differ only in the [`SearchSpec`] they attach.

use crate::helpers::{nf_rw_ttls, scenario_series};
use crate::{ExperimentOutput, Scale};
use sfo_analysis::FigureData;
use sfo_scenario::{ScenarioSpec, SearchSpec, SweepMetric, SweepSpec, TopologySpec};

/// The cutoff sweep used for the PA/HAPA panels of Figs. 9 and 11.
fn cutoff_sweep() -> Vec<Option<usize>> {
    vec![Some(10), Some(20), Some(40), Some(100), None]
}

fn sweep(cutoffs: Vec<Option<usize>>, scale: &Scale) -> SweepSpec {
    SweepSpec::grid(
        vec![1, 2, 3],
        cutoffs,
        nf_rw_ttls(),
        scale.searches_per_point,
    )
}

/// The topology specs of the PA / CM / HAPA panels (Figs. 9 and 11), with the cutoff
/// grids the paper sweeps per family.
fn panel_specs(figure: &str, search: &SearchSpec, scale: &Scale, seed: u64) -> Vec<ScenarioSpec> {
    let mut specs = vec![
        ScenarioSpec::sweep(
            format!("{figure}-pa"),
            TopologySpec::Pa {
                nodes: scale.search_nodes,
                m: 1,
                cutoff: None,
            },
            search.clone(),
            sweep(cutoff_sweep(), scale),
            seed,
            scale.realizations,
        ),
        ScenarioSpec::sweep(
            format!("{figure}-hapa"),
            TopologySpec::Hapa {
                nodes: scale.search_nodes,
                m: 1,
                cutoff: None,
            },
            search.clone(),
            sweep(cutoff_sweep(), scale),
            seed,
            scale.realizations,
        ),
    ];
    // CM panel: gamma = 2.2 and 3.0, cutoffs 10/40/none, as in Figs. 9(b,e) / 11(b,e).
    for gamma in [2.2f64, 3.0] {
        specs.push(ScenarioSpec::sweep(
            format!("{figure}-cm-gamma{gamma}"),
            TopologySpec::Cm {
                nodes: scale.search_nodes,
                gamma,
                m: 1,
                cutoff: None,
            },
            search.clone(),
            sweep(vec![Some(10), Some(40), None], scale),
            seed,
            scale.realizations,
        ));
    }
    specs
}

/// The DAPA specs of Figs. 10 and 12, one per local TTL `τ_sub`.
fn dapa_specs(figure: &str, search: &SearchSpec, scale: &Scale, seed: u64) -> Vec<ScenarioSpec> {
    [2u32, 4, 10, 20]
        .into_iter()
        .map(|tau_sub| {
            ScenarioSpec::sweep(
                format!("{figure}-dapa-tau{tau_sub}"),
                TopologySpec::DapaGrn {
                    nodes: scale.search_nodes,
                    m: 1,
                    tau_sub,
                    cutoff: None,
                },
                search.clone(),
                sweep(vec![None, Some(50), Some(10)], scale),
                seed,
                scale.realizations,
            )
        })
        .collect()
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

/// Fig. 9: NF hits versus `τ` on PA, CM, and HAPA topologies.
pub(crate) fn fig9(scale: &Scale, seed: u64) -> ExperimentOutput {
    figure_from_specs(
        "fig9",
        "Normalized-flooding search efficiency on PA, CM, and HAPA topologies",
        panel_specs(
            "fig9",
            &SearchSpec::NormalizedFlooding { k_min: None },
            scale,
            seed,
        ),
    )
}

/// Fig. 10: NF hits versus `τ` on DAPA topologies.
pub(crate) fn fig10(scale: &Scale, seed: u64) -> ExperimentOutput {
    figure_from_specs(
        "fig10",
        "Normalized-flooding search efficiency on DAPA topologies",
        dapa_specs(
            "fig10",
            &SearchSpec::NormalizedFlooding { k_min: None },
            scale,
            seed,
        ),
    )
}

/// Fig. 11: message-normalized RW hits versus `τ` on PA, CM, and HAPA topologies.
pub(crate) fn fig11(scale: &Scale, seed: u64) -> ExperimentOutput {
    figure_from_specs(
        "fig11",
        "Random-walk search efficiency (message-normalized to NF) on PA, CM, and HAPA topologies",
        panel_specs(
            "fig11",
            &SearchSpec::RwNormalizedToNf { k_min: None },
            scale,
            seed,
        ),
    )
}

/// Fig. 12: message-normalized RW hits versus `τ` on DAPA topologies.
pub(crate) fn fig12(scale: &Scale, seed: u64) -> ExperimentOutput {
    figure_from_specs(
        "fig12",
        "Random-walk search efficiency (message-normalized to NF) on DAPA topologies",
        dapa_specs(
            "fig12",
            &SearchSpec::RwNormalizedToNf { k_min: None },
            scale,
            seed,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            degree_nodes: 300,
            search_nodes: 300,
            realizations: 1,
            searches_per_point: 8,
        }
    }

    fn narrow_spec(search: SearchSpec, scale: &Scale, seed: u64) -> ScenarioSpec {
        ScenarioSpec::sweep(
            "nf-rw-test",
            TopologySpec::Pa {
                nodes: scale.search_nodes,
                m: 2,
                cutoff: None,
            },
            search,
            SweepSpec::grid(
                vec![2],
                vec![Some(10), None],
                nf_rw_ttls(),
                scale.searches_per_point,
            ),
            seed,
            scale.realizations,
        )
    }

    /// Figs. 9-12 sweep dozens of configurations; the unit tests exercise the shared
    /// machinery on a narrow subset so the full-figure runners stay exercisable through the
    /// `reproduce` binary without making `cargo test` slow.
    #[test]
    fn nf_figure_on_a_narrow_panel_behaves_sanely() {
        let scale = tiny();
        let spec = narrow_spec(SearchSpec::NormalizedFlooding { k_min: None }, &scale, 3);
        let series = scenario_series(&spec, SweepMetric::Hits);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "PA, m=2, k_c=10");
        assert_eq!(series[1].label, "PA, m=2, no k_c");
        for series in &series {
            assert_eq!(series.points.len(), nf_rw_ttls().len());
            let first = series.points.first().unwrap().y;
            let last = series.points.last().unwrap().y;
            assert!(
                last >= first,
                "{}: NF hits should not shrink with tau",
                series.label
            );
            assert!(last <= scale.search_nodes as f64);
        }
    }

    #[test]
    fn rw_figure_hits_are_below_nf_hits_for_the_same_budget() {
        // The paper observes that NF does better averaging than a single RW of equal
        // message cost; verify the direction on one PA configuration.
        let scale = tiny();
        let nf = scenario_series(
            &narrow_spec(SearchSpec::NormalizedFlooding { k_min: None }, &scale, 5),
            SweepMetric::Hits,
        );
        let rw = scenario_series(
            &narrow_spec(SearchSpec::RwNormalizedToNf { k_min: None }, &scale, 5),
            SweepMetric::Hits,
        );
        let nf_last = nf[0].points.last().unwrap().y;
        let rw_last = rw[0].points.last().unwrap().y;
        assert!(
            rw_last <= nf_last * 1.25,
            "RW ({rw_last}) should not significantly exceed NF ({nf_last}) at equal message cost"
        );
    }

    #[test]
    fn panel_sizes_match_the_paper_grid() {
        let scale = tiny();
        let search = SearchSpec::NormalizedFlooding { k_min: None };
        let panel = panel_specs("fig9", &search, &scale, 1);
        let curves: usize = panel.iter().map(|s| s.expanded_topologies().len()).sum();
        assert_eq!(curves, 3 * (2 * 5 + 2 * 3));
        let dapa = dapa_specs("fig10", &search, &scale, 1);
        let curves: usize = dapa.iter().map(|s| s.expanded_topologies().len()).sum();
        assert_eq!(curves, 3 * 3 * 4);
    }
}
