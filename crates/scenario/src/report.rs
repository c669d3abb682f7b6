//! The uniform result of a scenario run, embedding its spec for provenance.
//!
//! Whatever a [`crate::ScenarioRunner`] executes — a static search sweep, a rate-driven
//! churn simulation, or a trace replay — it returns one [`ScenarioReport`]: the
//! originating [`ScenarioSpec`] plus a [`ScenarioResult`] of matching shape. Reports
//! serialize to JSON through the same deterministic writer as specs, so re-running a
//! deserialized spec reproduces the report byte for byte (enforced by the workspace's
//! round-trip tests), and a report file alone is enough to rerun or extend an experiment.

use crate::json::{FromJson, JsonValue, ToJson};
use crate::spec::ScenarioSpec;
use crate::table::{json_enum, json_record};
use crate::ScenarioError;
use serde::{Deserialize, Serialize};
use sfo_analysis::{DataPoint, DataSeries, Summary};
use sfo_sim::simulation::OverlaySample;

/// Which measurement of a sweep curve to plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepMetric {
    /// Mean distinct peers reached per search (the paper's efficiency metric).
    Hits,
    /// Mean messages per search (the paper's cost metric).
    Messages,
}

/// Mean, spread, and support of one measured quantity across realizations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stat {
    /// Mean across realizations.
    pub mean: f64,
    /// Standard error across realizations (0 for a single realization).
    pub std_error: f64,
    /// Number of realizations averaged.
    pub realizations: usize,
}

impl Stat {
    /// Collapses an accumulated summary into its serializable form.
    pub fn from_summary(summary: &Summary) -> Self {
        Stat {
            mean: summary.mean(),
            std_error: summary.std_error(),
            realizations: summary.count(),
        }
    }
}

json_record!(Stat, "stat", { mean, std_error, realizations });

/// One TTL point of a sweep curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The time-to-live this point corresponds to.
    pub ttl: u32,
    /// Hits per search, averaged across realizations.
    pub hits: Stat,
    /// Messages per search, averaged across realizations.
    pub messages: Stat,
}

json_record!(SweepPoint, "sweep point", { ttl, hits, messages });

/// One curve of a static sweep: a labelled topology configuration measured per TTL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCurve {
    /// The curve label (see [`crate::TopologySpec::label`]); also names the RNG stream
    /// family the curve's realizations were drawn from.
    pub label: String,
    /// One point per TTL of the sweep grid.
    pub points: Vec<SweepPoint>,
}

impl SweepCurve {
    /// Converts the curve into a plot-ready series of the given metric.
    pub fn to_series(&self, metric: SweepMetric) -> DataSeries {
        let mut series = DataSeries::new(self.label.clone());
        for point in &self.points {
            let stat = match metric {
                SweepMetric::Hits => point.hits,
                SweepMetric::Messages => point.messages,
            };
            series.push(DataPoint {
                x: f64::from(point.ttl),
                y: stat.mean,
                y_error: stat.std_error,
                realizations: stat.realizations,
            });
        }
        series
    }
}

json_record!(SweepCurve, "sweep curve", { label, points });

/// One log-binned point of a `P(k)` degree-distribution curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegreeBinPoint {
    /// Geometric center of the bin (the abscissa on a log axis).
    pub k: f64,
    /// Probability density of the bin.
    pub density: f64,
    /// Raw number of degree samples in the bin.
    pub count: usize,
}

json_record!(DegreeBinPoint, "degree bin", { k, density, count });

/// One curve of a degree-distribution scenario: the log-binned `P(k)` of a labelled
/// topology configuration, over the concatenated degrees of all its realizations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeCurve {
    /// The curve label (see [`crate::TopologySpec::label`]); also names the RNG stream
    /// family the curve's realizations were drawn from.
    pub label: String,
    /// Non-empty log bins, in increasing `k`.
    pub points: Vec<DegreeBinPoint>,
}

impl DegreeCurve {
    /// Converts the curve into a plot-ready `P(k)` series (the shape of Figs. 1-4).
    pub fn to_series(&self, realizations: usize) -> DataSeries {
        let mut series = DataSeries::new(self.label.clone());
        for point in &self.points {
            series.push(DataPoint {
                x: point.k,
                y: point.density,
                y_error: 0.0,
                realizations,
            });
        }
        series
    }
}

json_record!(DegreeCurve, "degree curve", { label, points });

/// Outcome of one independent churn-simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnRealization {
    /// Realization index (also the RNG stream index).
    pub realization: usize,
    /// Lookups issued.
    pub queries_issued: usize,
    /// Lookups that found a replica within their TTL.
    pub queries_successful: usize,
    /// Total lookup messages.
    pub query_messages: usize,
    /// Fraction of lookups that succeeded.
    pub success_rate: f64,
    /// Mean messages per lookup.
    pub mean_query_messages: f64,
    /// Mean hops to the first replica over successful lookups.
    pub mean_hops_to_find: f64,
    /// Peers that joined after bootstrap.
    pub joins: usize,
    /// Graceful leaves.
    pub leaves: usize,
    /// Crashes.
    pub crashes: usize,
    /// Mean control messages per churn event.
    pub mean_churn_messages: f64,
    /// Peers alive at the end of the run.
    pub final_peers: usize,
    /// Periodic overlay-health samples.
    pub samples: Vec<OverlaySample>,
}

json_record!(ChurnRealization, "churn realization", {
    realization,
    queries_issued,
    queries_successful,
    query_messages,
    success_rate,
    mean_query_messages,
    mean_hops_to_find,
    joins,
    leaves,
    crashes,
    mean_churn_messages,
    final_peers,
    samples,
});

/// Outcome of replaying the churn trace of one realization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRealization {
    /// Realization index (also the RNG stream index of the trace and the replay).
    pub realization: usize,
    /// Trace arrivals applied as joins.
    pub arrivals_applied: usize,
    /// Graceful departures applied.
    pub leaves_applied: usize,
    /// Crashes applied.
    pub crashes_applied: usize,
    /// Departures skipped because the peer was already gone.
    pub departures_skipped: usize,
    /// Lookups issued.
    pub queries_issued: usize,
    /// Lookups that found a replica within their TTL.
    pub queries_successful: usize,
    /// Fraction of lookups that succeeded.
    pub success_rate: f64,
    /// Total lookup messages.
    pub query_messages: usize,
    /// Control messages spent on joins and leave repair.
    pub control_messages: usize,
    /// Peers alive when the trace ended.
    pub final_peers: usize,
    /// Smallest giant-component fraction observed.
    pub worst_connectivity: f64,
    /// Periodic overlay-health samples.
    pub samples: Vec<OverlaySample>,
}

json_record!(TraceRealization, "trace realization", {
    realization,
    arrivals_applied,
    leaves_applied,
    crashes_applied,
    departures_skipped,
    queries_issued,
    queries_successful,
    success_rate,
    query_messages,
    control_messages,
    final_peers,
    worst_connectivity,
    samples,
});

/// Outcome of growing one overlay through the live membership protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveRealization {
    /// Realization index (always 0: live scenarios grow one overlay per snapshot).
    pub realization: usize,
    /// Peers that arrived over the run.
    pub arrivals: usize,
    /// Graceful departures.
    pub leaves: usize,
    /// Crashes (departures without a `Leave` broadcast).
    pub crashes: usize,
    /// Peers still alive when the overlay was frozen.
    pub final_peers: usize,
    /// Mutual overlay links frozen into the snapshot graph.
    pub edges: usize,
    /// Largest frozen degree (never exceeds the protocol's active-view cap).
    pub max_degree: usize,
    /// Protocol messages delivered over the run.
    pub messages: usize,
    /// Path the provenance-tagged snapshot was written to.
    pub snapshot: String,
    /// Content identity of the written snapshot file.
    pub identity: u64,
}

json_record!(LiveRealization, "live realization", {
    realization,
    arrivals,
    leaves,
    crashes,
    final_peers,
    edges,
    max_degree,
    messages,
    snapshot,
    identity,
});

/// The shape-matched payload of a [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioResult {
    /// Result of a static sweep: one curve per expanded topology configuration.
    Sweep {
        /// The measured curves, in sweep-grid order.
        curves: Vec<SweepCurve>,
    },
    /// Result of a degree-distribution scenario: one `P(k)` curve per expanded topology
    /// configuration.
    DegreeDistribution {
        /// The log-binned curves, in sweep-grid order.
        curves: Vec<DegreeCurve>,
    },
    /// Result of rate-driven churn runs.
    Churn {
        /// One entry per realization, in stream order.
        realizations: Vec<ChurnRealization>,
    },
    /// Result of trace replays.
    Trace {
        /// One entry per realization, in stream order.
        realizations: Vec<TraceRealization>,
    },
    /// Result of growing an overlay through the live membership protocol.
    Live {
        /// One entry per realization (always exactly one).
        realizations: Vec<LiveRealization>,
    },
}

json_enum!(ScenarioResult, "scenario result", "kind", {
    Sweep = "sweep" { curves },
    DegreeDistribution = "degree_distribution" { curves },
    Churn = "churn" { realizations },
    Trace = "trace" { realizations },
    Live = "live" { realizations },
});

/// The uniform outcome of running one [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The spec that produced this report, embedded verbatim for provenance: a report
    /// file alone suffices to rerun the scenario.
    pub spec: ScenarioSpec,
    /// The measured result, shape-matched to the spec's dynamics.
    pub result: ScenarioResult,
}

impl ScenarioReport {
    /// Returns the sweep curves, if this is a static-sweep report.
    pub fn sweep_curves(&self) -> Option<&[SweepCurve]> {
        match &self.result {
            ScenarioResult::Sweep { curves } => Some(curves),
            _ => None,
        }
    }

    /// Returns the curve with the given label, if present.
    pub fn curve_by_label(&self, label: &str) -> Option<&SweepCurve> {
        self.sweep_curves()?.iter().find(|c| c.label == label)
    }

    /// Converts every sweep curve into a plot-ready series of the given metric (empty
    /// for dynamic reports).
    pub fn series(&self, metric: SweepMetric) -> Vec<DataSeries> {
        self.sweep_curves()
            .map(|curves| curves.iter().map(|c| c.to_series(metric)).collect())
            .unwrap_or_default()
    }

    /// Returns the degree-distribution curves, if this is a degree report.
    pub fn degree_curves(&self) -> Option<&[DegreeCurve]> {
        match &self.result {
            ScenarioResult::DegreeDistribution { curves } => Some(curves),
            _ => None,
        }
    }

    /// Converts every degree curve into a plot-ready `P(k)` series (empty for other
    /// report kinds).
    pub fn degree_series(&self) -> Vec<DataSeries> {
        self.degree_curves()
            .map(|curves| {
                curves
                    .iter()
                    .map(|c| c.to_series(self.spec.realizations))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Returns the churn realizations, if this is a churn report.
    pub fn churn_realizations(&self) -> Option<&[ChurnRealization]> {
        match &self.result {
            ScenarioResult::Churn { realizations } => Some(realizations),
            _ => None,
        }
    }

    /// Returns the trace realizations, if this is a trace-replay report.
    pub fn trace_realizations(&self) -> Option<&[TraceRealization]> {
        match &self.result {
            ScenarioResult::Trace { realizations } => Some(realizations),
            _ => None,
        }
    }

    /// Returns the live-overlay realizations, if this is a live-growth report.
    pub fn live_realizations(&self) -> Option<&[LiveRealization]> {
        match &self.result {
            ScenarioResult::Live { realizations } => Some(realizations),
            _ => None,
        }
    }

    /// Serializes the report to its canonical JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a report from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`], [`ScenarioError::NestingTooDeep`] or
    /// [`ScenarioError::InvalidSpec`].
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        ScenarioReport::from_json(&JsonValue::parse(text)?)
    }
}

json_record!(ScenarioReport, "scenario report", { spec, result });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SearchSpec, SweepSpec, TopologySpec};

    fn sample_report() -> ScenarioReport {
        ScenarioReport {
            spec: ScenarioSpec::sweep(
                "sample",
                TopologySpec::Pa {
                    nodes: 100,
                    m: 2,
                    cutoff: Some(10),
                },
                SearchSpec::Flooding,
                SweepSpec::single(vec![2, 4], 5),
                3,
                2,
            ),
            result: ScenarioResult::Sweep {
                curves: vec![SweepCurve {
                    label: "PA, m=2, k_c=10".to_string(),
                    points: vec![SweepPoint {
                        ttl: 2,
                        hits: Stat {
                            mean: 10.5,
                            std_error: 0.25,
                            realizations: 2,
                        },
                        messages: Stat {
                            mean: 14.0,
                            std_error: 0.5,
                            realizations: 2,
                        },
                    }],
                }],
            },
        }
    }

    #[test]
    fn report_round_trips_byte_identically() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = ScenarioReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn series_conversion_matches_the_figure_point_shape() {
        let report = sample_report();
        let series = report.series(SweepMetric::Hits);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].label, "PA, m=2, k_c=10");
        let p = series[0].points[0];
        assert_eq!(p.x, 2.0);
        assert_eq!(p.y, 10.5);
        assert_eq!(p.y_error, 0.25);
        assert_eq!(p.realizations, 2);
        let messages = report.series(SweepMetric::Messages);
        assert_eq!(messages[0].points[0].y, 14.0);
        assert!(report.curve_by_label("PA, m=2, k_c=10").is_some());
        assert!(report.curve_by_label("nope").is_none());
    }
}
