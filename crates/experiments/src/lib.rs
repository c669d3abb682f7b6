//! # sfo-experiments
//!
//! Harness reproducing every figure and table of *"Scale-Free Overlay Topologies with Hard
//! Cutoffs for Unstructured Peer-to-Peer Networks"* (Guclu & Yuksel, ICDCS 2007).
//!
//! Each experiment is registered in [`all_experiments`] under its identifier (`fig1a`
//! ... `fig12`, `table1`, `table2`, `msg-complexity`, `ablation-minlinks`, `churn`) and
//! can be run either through the library API or the `reproduce` binary:
//!
//! ```text
//! cargo run --release -p sfo-experiments --bin reproduce -- --scale reduced fig9
//! ```
//!
//! Scales control the network size and realization count: [`Scale::paper`] matches the
//! paper's parameters (`N = 10^4` search topologies, `N = 10^5` degree distributions, 10
//! realizations), [`Scale::reduced`] is a laptop-friendly compromise, and [`Scale::smoke`]
//! is small enough for CI and the test suite. The paper's qualitative conclusions (who
//! wins, how cutoffs shift the curves) are visible at every scale; absolute hit counts
//! shrink with the network.
//!
//! # Example
//!
//! ```
//! use sfo_experiments::{run_experiment, Scale};
//!
//! let output = run_experiment("table2", &Scale::smoke(), 7).expect("table2 is registered");
//! println!("{output}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degree_figs;
mod extensions;
mod extras;
mod helpers;
mod nf_rw_figs;
mod search_figs;
mod tables;

use serde::{Deserialize, Serialize};
use sfo_analysis::{FigureData, TextTable};
use std::fmt;

/// Experiment sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Number of nodes for degree-distribution topologies (Figs. 1-4).
    pub degree_nodes: usize,
    /// Number of nodes for search topologies (Figs. 6-12).
    pub search_nodes: usize,
    /// Independent network realizations averaged per data point.
    pub realizations: usize,
    /// Searches (random sources) per TTL value per realization.
    pub searches_per_point: usize,
}

impl Scale {
    /// The paper's parameters: slow, intended for full reproduction runs.
    pub fn paper() -> Self {
        Scale {
            degree_nodes: 100_000,
            search_nodes: 10_000,
            realizations: 10,
            searches_per_point: 100,
        }
    }

    /// A laptop-friendly compromise that preserves every qualitative trend.
    pub fn reduced() -> Self {
        Scale {
            degree_nodes: 20_000,
            search_nodes: 4_000,
            realizations: 3,
            searches_per_point: 60,
        }
    }

    /// Small enough for CI and unit tests.
    pub fn smoke() -> Self {
        Scale {
            degree_nodes: 3_000,
            search_nodes: 1_000,
            realizations: 2,
            searches_per_point: 20,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::reduced()
    }
}

/// What an experiment produces: a figure (curves) or a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentOutput {
    /// A figure made of labelled curves.
    Figure(FigureData),
    /// A fixed-width text table.
    Table(TextTable),
}

impl ExperimentOutput {
    /// Returns the figure, if this output is one.
    pub fn as_figure(&self) -> Option<&FigureData> {
        match self {
            ExperimentOutput::Figure(f) => Some(f),
            ExperimentOutput::Table(_) => None,
        }
    }

    /// Returns the table, if this output is one.
    pub fn as_table(&self) -> Option<&TextTable> {
        match self {
            ExperimentOutput::Table(t) => Some(t),
            ExperimentOutput::Figure(_) => None,
        }
    }

    /// Renders the output as CSV (figures) or as its text form (tables).
    pub fn to_csv(&self) -> String {
        match self {
            ExperimentOutput::Figure(f) => f.to_csv(),
            ExperimentOutput::Table(t) => t.to_string(),
        }
    }
}

impl fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentOutput::Figure(fig) => write!(f, "{fig}"),
            ExperimentOutput::Table(table) => write!(f, "{table}"),
        }
    }
}

/// A registered experiment.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Identifier used on the `reproduce` command line.
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Runner: `(scale, seed) -> output`.
    pub run: fn(&Scale, u64) -> ExperimentOutput,
}

impl fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// Returns every registered experiment, in the order they appear in the paper.
pub fn all_experiments() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            id: "fig1a",
            title: "PA degree distributions without cutoff",
            run: degree_figs::fig1a,
        },
        ExperimentSpec {
            id: "fig1b",
            title: "PA degree distributions with hard cutoffs",
            run: degree_figs::fig1b,
        },
        ExperimentSpec {
            id: "fig1c",
            title: "PA degree exponent vs hard cutoff",
            run: degree_figs::fig1c,
        },
        ExperimentSpec {
            id: "fig2",
            title: "CM degree distributions (gamma = 2.2, 2.6, 3)",
            run: degree_figs::fig2,
        },
        ExperimentSpec {
            id: "fig3",
            title: "HAPA degree distributions",
            run: degree_figs::fig3,
        },
        ExperimentSpec {
            id: "fig4",
            title: "DAPA degree distributions vs tau_sub",
            run: degree_figs::fig4,
        },
        ExperimentSpec {
            id: "fig4g",
            title: "DAPA degree exponent vs hard cutoff",
            run: degree_figs::fig4g,
        },
        ExperimentSpec {
            id: "table1",
            title: "Scale-free network diameter behavior",
            run: tables::table1,
        },
        ExperimentSpec {
            id: "table2",
            title: "Topology generators vs global information",
            run: tables::table2,
        },
        ExperimentSpec {
            id: "fig6",
            title: "FL hits vs tau on PA and HAPA",
            run: search_figs::fig6,
        },
        ExperimentSpec {
            id: "fig7",
            title: "FL hits vs tau on CM",
            run: search_figs::fig7,
        },
        ExperimentSpec {
            id: "fig8",
            title: "FL hits vs tau on DAPA",
            run: search_figs::fig8,
        },
        ExperimentSpec {
            id: "fig9",
            title: "NF hits vs tau on PA, CM, HAPA",
            run: nf_rw_figs::fig9,
        },
        ExperimentSpec {
            id: "fig10",
            title: "NF hits vs tau on DAPA",
            run: nf_rw_figs::fig10,
        },
        ExperimentSpec {
            id: "fig11",
            title: "RW hits vs tau on PA, CM, HAPA",
            run: nf_rw_figs::fig11,
        },
        ExperimentSpec {
            id: "fig12",
            title: "RW hits vs tau on DAPA",
            run: nf_rw_figs::fig12,
        },
        ExperimentSpec {
            id: "msg-complexity",
            title: "Messages per search: NF vs RW",
            run: extras::msg_complexity,
        },
        ExperimentSpec {
            id: "ablation-minlinks",
            title: "Effect of minimum connectedness m under a hard cutoff",
            run: extras::ablation_minlinks,
        },
        ExperimentSpec {
            id: "churn",
            title: "Overlay health and search success under churn",
            run: extras::churn,
        },
        ExperimentSpec {
            id: "search-strategies",
            title: "Hits vs tau for all search strategies on PA topologies",
            run: extensions::search_strategies,
        },
        ExperimentSpec {
            id: "replication",
            title: "Uniform vs proportional vs square-root replication",
            run: extensions::replication,
        },
        ExperimentSpec {
            id: "substrate-comparison",
            title: "DAPA over a GRN vs a 2D mesh substrate",
            run: extensions::substrate_comparison,
        },
        ExperimentSpec {
            id: "churn-trace",
            title: "Identical churn trace replayed with/without cutoffs and repair",
            run: extensions::churn_trace,
        },
    ]
}

/// Runs the experiment with the given id, or returns `None` if it is not registered.
pub fn run_experiment(id: &str, scale: &Scale, seed: u64) -> Option<ExperimentOutput> {
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_cover_design_md() {
        let experiments = all_experiments();
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment ids");
        for required in [
            "fig1a",
            "fig1b",
            "fig1c",
            "fig2",
            "fig3",
            "fig4",
            "fig4g",
            "table1",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "msg-complexity",
            "ablation-minlinks",
            "churn",
        ] {
            assert!(ids.contains(&required), "missing experiment {required}");
        }
    }

    #[test]
    fn unknown_experiment_returns_none() {
        assert!(run_experiment("fig99", &Scale::smoke(), 1).is_none());
    }

    #[test]
    fn scales_are_ordered_by_size() {
        let paper = Scale::paper();
        let reduced = Scale::reduced();
        let smoke = Scale::smoke();
        assert!(
            paper.degree_nodes > reduced.degree_nodes && reduced.degree_nodes > smoke.degree_nodes
        );
        assert!(
            paper.search_nodes > reduced.search_nodes && reduced.search_nodes > smoke.search_nodes
        );
        assert_eq!(Scale::default(), reduced);
    }

    #[test]
    fn experiment_output_accessors() {
        let fig = ExperimentOutput::Figure(FigureData::new("x", "t", "a", "b"));
        assert!(fig.as_figure().is_some());
        assert!(fig.as_table().is_none());
        let table = ExperimentOutput::Table(TextTable::new(vec!["c"]));
        assert!(table.as_table().is_some());
        assert!(table.as_figure().is_none());
        assert!(fig.to_csv().contains("series"));
        assert!(format!("{fig}").contains("# x"));
    }

    #[test]
    fn spec_debug_is_informative() {
        let spec = &all_experiments()[0];
        let text = format!("{spec:?}");
        assert!(text.contains("fig1a"));
    }
}
