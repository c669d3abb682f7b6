//! The uniform result of a scenario run, embedding its spec for provenance.
//!
//! Whatever a [`crate::ScenarioRunner`] executes — a static search sweep, a rate-driven
//! churn simulation, or a trace replay — it returns one [`ScenarioReport`]: the
//! originating [`ScenarioSpec`] plus a [`ScenarioResult`] of matching shape. Reports
//! serialize to JSON through the same deterministic writer as specs, so re-running a
//! deserialized spec reproduces the report byte for byte (enforced by the workspace's
//! round-trip tests), and a report file alone is enough to rerun or extend an experiment.

use crate::codec::{check_fields, req, req_f64, req_str, req_u32, req_u64, req_usize};
use crate::json::{FromJson, JsonValue, ToJson};
use crate::spec::ScenarioSpec;
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

impl ToJson for Stat {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("mean".to_string(), JsonValue::from_f64(self.mean)),
            ("std_error".to_string(), JsonValue::from_f64(self.std_error)),
            (
                "realizations".to_string(),
                JsonValue::from_usize(self.realizations),
            ),
        ])
    }
}

impl FromJson for Stat {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "stat";
        check_fields(value, CTX, &["mean", "std_error", "realizations"])?;
        Ok(Stat {
            mean: req_f64(value, "mean", CTX)?,
            std_error: req_f64(value, "std_error", CTX)?,
            realizations: req_usize(value, "realizations", CTX)?,
        })
    }
}

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

impl ToJson for SweepPoint {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("ttl".to_string(), JsonValue::from_u64(u64::from(self.ttl))),
            ("hits".to_string(), self.hits.to_json()),
            ("messages".to_string(), self.messages.to_json()),
        ])
    }
}

impl FromJson for SweepPoint {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "sweep point";
        check_fields(value, CTX, &["ttl", "hits", "messages"])?;
        Ok(SweepPoint {
            ttl: req_u32(value, "ttl", CTX)?,
            hits: Stat::from_json(req(value, "hits", CTX)?)?,
            messages: Stat::from_json(req(value, "messages", CTX)?)?,
        })
    }
}

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

impl ToJson for SweepCurve {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("label".to_string(), JsonValue::from_str_value(&self.label)),
            (
                "points".to_string(),
                JsonValue::Array(self.points.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for SweepCurve {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "sweep curve";
        check_fields(value, CTX, &["label", "points"])?;
        let points = req(value, "points", CTX)?
            .as_array()
            .ok_or_else(|| ScenarioError::invalid("sweep curve: \"points\" must be an array"))?
            .iter()
            .map(SweepPoint::from_json)
            .collect::<Result<Vec<SweepPoint>, ScenarioError>>()?;
        Ok(SweepCurve {
            label: req_str(value, "label", CTX)?.to_string(),
            points,
        })
    }
}

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

impl ToJson for DegreeBinPoint {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("k".to_string(), JsonValue::from_f64(self.k)),
            ("density".to_string(), JsonValue::from_f64(self.density)),
            ("count".to_string(), JsonValue::from_usize(self.count)),
        ])
    }
}

impl FromJson for DegreeBinPoint {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "degree bin";
        check_fields(value, CTX, &["k", "density", "count"])?;
        Ok(DegreeBinPoint {
            k: req_f64(value, "k", CTX)?,
            density: req_f64(value, "density", CTX)?,
            count: req_usize(value, "count", CTX)?,
        })
    }
}

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

impl ToJson for DegreeCurve {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("label".to_string(), JsonValue::from_str_value(&self.label)),
            (
                "points".to_string(),
                JsonValue::Array(self.points.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for DegreeCurve {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "degree curve";
        check_fields(value, CTX, &["label", "points"])?;
        let points = req(value, "points", CTX)?
            .as_array()
            .ok_or_else(|| ScenarioError::invalid("degree curve: \"points\" must be an array"))?
            .iter()
            .map(DegreeBinPoint::from_json)
            .collect::<Result<Vec<DegreeBinPoint>, ScenarioError>>()?;
        Ok(DegreeCurve {
            label: req_str(value, "label", CTX)?.to_string(),
            points,
        })
    }
}

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

impl ToJson for ChurnRealization {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "realization".to_string(),
                JsonValue::from_usize(self.realization),
            ),
            (
                "queries_issued".to_string(),
                JsonValue::from_usize(self.queries_issued),
            ),
            (
                "queries_successful".to_string(),
                JsonValue::from_usize(self.queries_successful),
            ),
            (
                "query_messages".to_string(),
                JsonValue::from_usize(self.query_messages),
            ),
            (
                "success_rate".to_string(),
                JsonValue::from_f64(self.success_rate),
            ),
            (
                "mean_query_messages".to_string(),
                JsonValue::from_f64(self.mean_query_messages),
            ),
            (
                "mean_hops_to_find".to_string(),
                JsonValue::from_f64(self.mean_hops_to_find),
            ),
            ("joins".to_string(), JsonValue::from_usize(self.joins)),
            ("leaves".to_string(), JsonValue::from_usize(self.leaves)),
            ("crashes".to_string(), JsonValue::from_usize(self.crashes)),
            (
                "mean_churn_messages".to_string(),
                JsonValue::from_f64(self.mean_churn_messages),
            ),
            (
                "final_peers".to_string(),
                JsonValue::from_usize(self.final_peers),
            ),
            (
                "samples".to_string(),
                JsonValue::Array(self.samples.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for ChurnRealization {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "churn realization";
        check_fields(
            value,
            CTX,
            &[
                "realization",
                "queries_issued",
                "queries_successful",
                "query_messages",
                "success_rate",
                "mean_query_messages",
                "mean_hops_to_find",
                "joins",
                "leaves",
                "crashes",
                "mean_churn_messages",
                "final_peers",
                "samples",
            ],
        )?;
        Ok(ChurnRealization {
            realization: req_usize(value, "realization", CTX)?,
            queries_issued: req_usize(value, "queries_issued", CTX)?,
            queries_successful: req_usize(value, "queries_successful", CTX)?,
            query_messages: req_usize(value, "query_messages", CTX)?,
            success_rate: req_f64(value, "success_rate", CTX)?,
            mean_query_messages: req_f64(value, "mean_query_messages", CTX)?,
            mean_hops_to_find: req_f64(value, "mean_hops_to_find", CTX)?,
            joins: req_usize(value, "joins", CTX)?,
            leaves: req_usize(value, "leaves", CTX)?,
            crashes: req_usize(value, "crashes", CTX)?,
            mean_churn_messages: req_f64(value, "mean_churn_messages", CTX)?,
            final_peers: req_usize(value, "final_peers", CTX)?,
            samples: samples_from_json(value, CTX)?,
        })
    }
}

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

impl ToJson for TraceRealization {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "realization".to_string(),
                JsonValue::from_usize(self.realization),
            ),
            (
                "arrivals_applied".to_string(),
                JsonValue::from_usize(self.arrivals_applied),
            ),
            (
                "leaves_applied".to_string(),
                JsonValue::from_usize(self.leaves_applied),
            ),
            (
                "crashes_applied".to_string(),
                JsonValue::from_usize(self.crashes_applied),
            ),
            (
                "departures_skipped".to_string(),
                JsonValue::from_usize(self.departures_skipped),
            ),
            (
                "queries_issued".to_string(),
                JsonValue::from_usize(self.queries_issued),
            ),
            (
                "queries_successful".to_string(),
                JsonValue::from_usize(self.queries_successful),
            ),
            (
                "success_rate".to_string(),
                JsonValue::from_f64(self.success_rate),
            ),
            (
                "query_messages".to_string(),
                JsonValue::from_usize(self.query_messages),
            ),
            (
                "control_messages".to_string(),
                JsonValue::from_usize(self.control_messages),
            ),
            (
                "final_peers".to_string(),
                JsonValue::from_usize(self.final_peers),
            ),
            (
                "worst_connectivity".to_string(),
                JsonValue::from_f64(self.worst_connectivity),
            ),
            (
                "samples".to_string(),
                JsonValue::Array(self.samples.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for TraceRealization {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "trace realization";
        check_fields(
            value,
            CTX,
            &[
                "realization",
                "arrivals_applied",
                "leaves_applied",
                "crashes_applied",
                "departures_skipped",
                "queries_issued",
                "queries_successful",
                "success_rate",
                "query_messages",
                "control_messages",
                "final_peers",
                "worst_connectivity",
                "samples",
            ],
        )?;
        Ok(TraceRealization {
            realization: req_usize(value, "realization", CTX)?,
            arrivals_applied: req_usize(value, "arrivals_applied", CTX)?,
            leaves_applied: req_usize(value, "leaves_applied", CTX)?,
            crashes_applied: req_usize(value, "crashes_applied", CTX)?,
            departures_skipped: req_usize(value, "departures_skipped", CTX)?,
            queries_issued: req_usize(value, "queries_issued", CTX)?,
            queries_successful: req_usize(value, "queries_successful", CTX)?,
            success_rate: req_f64(value, "success_rate", CTX)?,
            query_messages: req_usize(value, "query_messages", CTX)?,
            control_messages: req_usize(value, "control_messages", CTX)?,
            final_peers: req_usize(value, "final_peers", CTX)?,
            worst_connectivity: req_f64(value, "worst_connectivity", CTX)?,
            samples: samples_from_json(value, CTX)?,
        })
    }
}

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

impl ToJson for LiveRealization {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "realization".to_string(),
                JsonValue::from_usize(self.realization),
            ),
            ("arrivals".to_string(), JsonValue::from_usize(self.arrivals)),
            ("leaves".to_string(), JsonValue::from_usize(self.leaves)),
            ("crashes".to_string(), JsonValue::from_usize(self.crashes)),
            (
                "final_peers".to_string(),
                JsonValue::from_usize(self.final_peers),
            ),
            ("edges".to_string(), JsonValue::from_usize(self.edges)),
            (
                "max_degree".to_string(),
                JsonValue::from_usize(self.max_degree),
            ),
            ("messages".to_string(), JsonValue::from_usize(self.messages)),
            (
                "snapshot".to_string(),
                JsonValue::from_str_value(&self.snapshot),
            ),
            ("identity".to_string(), JsonValue::from_u64(self.identity)),
        ])
    }
}

impl FromJson for LiveRealization {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "live realization";
        check_fields(
            value,
            CTX,
            &[
                "realization",
                "arrivals",
                "leaves",
                "crashes",
                "final_peers",
                "edges",
                "max_degree",
                "messages",
                "snapshot",
                "identity",
            ],
        )?;
        Ok(LiveRealization {
            realization: req_usize(value, "realization", CTX)?,
            arrivals: req_usize(value, "arrivals", CTX)?,
            leaves: req_usize(value, "leaves", CTX)?,
            crashes: req_usize(value, "crashes", CTX)?,
            final_peers: req_usize(value, "final_peers", CTX)?,
            edges: req_usize(value, "edges", CTX)?,
            max_degree: req_usize(value, "max_degree", CTX)?,
            messages: req_usize(value, "messages", CTX)?,
            snapshot: req_str(value, "snapshot", CTX)?.to_string(),
            identity: req_u64(value, "identity", CTX)?,
        })
    }
}

fn samples_from_json(value: &JsonValue, ctx: &str) -> Result<Vec<OverlaySample>, ScenarioError> {
    req(value, "samples", ctx)?
        .as_array()
        .ok_or_else(|| ScenarioError::invalid(format!("{ctx}: \"samples\" must be an array")))?
        .iter()
        .map(OverlaySample::from_json)
        .collect()
}

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

impl ToJson for ScenarioResult {
    fn to_json(&self) -> JsonValue {
        match self {
            ScenarioResult::Sweep { curves } => JsonValue::Object(vec![
                ("kind".to_string(), JsonValue::from_str_value("sweep")),
                (
                    "curves".to_string(),
                    JsonValue::Array(curves.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            ScenarioResult::DegreeDistribution { curves } => JsonValue::Object(vec![
                (
                    "kind".to_string(),
                    JsonValue::from_str_value("degree_distribution"),
                ),
                (
                    "curves".to_string(),
                    JsonValue::Array(curves.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            ScenarioResult::Churn { realizations } => JsonValue::Object(vec![
                ("kind".to_string(), JsonValue::from_str_value("churn")),
                (
                    "realizations".to_string(),
                    JsonValue::Array(realizations.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            ScenarioResult::Trace { realizations } => JsonValue::Object(vec![
                ("kind".to_string(), JsonValue::from_str_value("trace")),
                (
                    "realizations".to_string(),
                    JsonValue::Array(realizations.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            ScenarioResult::Live { realizations } => JsonValue::Object(vec![
                ("kind".to_string(), JsonValue::from_str_value("live")),
                (
                    "realizations".to_string(),
                    JsonValue::Array(realizations.iter().map(ToJson::to_json).collect()),
                ),
            ]),
        }
    }
}

impl FromJson for ScenarioResult {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "scenario result";
        let kind = req_str(value, "kind", CTX)?;
        match kind {
            "sweep" | "degree_distribution" => check_fields(value, CTX, &["kind", "curves"])?,
            "churn" | "trace" | "live" => check_fields(value, CTX, &["kind", "realizations"])?,
            _ => {}
        }
        match kind {
            "sweep" => Ok(ScenarioResult::Sweep {
                curves: req(value, "curves", CTX)?
                    .as_array()
                    .ok_or_else(|| {
                        ScenarioError::invalid("scenario result: \"curves\" must be an array")
                    })?
                    .iter()
                    .map(SweepCurve::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "degree_distribution" => Ok(ScenarioResult::DegreeDistribution {
                curves: req(value, "curves", CTX)?
                    .as_array()
                    .ok_or_else(|| {
                        ScenarioError::invalid("scenario result: \"curves\" must be an array")
                    })?
                    .iter()
                    .map(DegreeCurve::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "churn" => Ok(ScenarioResult::Churn {
                realizations: realizations_from_json(value)?,
            }),
            "trace" => Ok(ScenarioResult::Trace {
                realizations: req(value, "realizations", CTX)?
                    .as_array()
                    .ok_or_else(|| {
                        ScenarioError::invalid("scenario result: \"realizations\" must be an array")
                    })?
                    .iter()
                    .map(TraceRealization::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "live" => Ok(ScenarioResult::Live {
                realizations: req(value, "realizations", CTX)?
                    .as_array()
                    .ok_or_else(|| {
                        ScenarioError::invalid("scenario result: \"realizations\" must be an array")
                    })?
                    .iter()
                    .map(LiveRealization::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            other => Err(ScenarioError::invalid(format!(
                "{CTX}: unknown kind \"{other}\""
            ))),
        }
    }
}

fn realizations_from_json(value: &JsonValue) -> Result<Vec<ChurnRealization>, ScenarioError> {
    req(value, "realizations", "scenario result")?
        .as_array()
        .ok_or_else(|| {
            ScenarioError::invalid("scenario result: \"realizations\" must be an array")
        })?
        .iter()
        .map(ChurnRealization::from_json)
        .collect()
}

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

impl ToJson for ScenarioReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("spec".to_string(), self.spec.to_json()),
            ("result".to_string(), self.result.to_json()),
        ])
    }
}

impl FromJson for ScenarioReport {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        const CTX: &str = "scenario report";
        check_fields(value, CTX, &["spec", "result"])?;
        Ok(ScenarioReport {
            spec: ScenarioSpec::from_json(req(value, "spec", CTX)?)?,
            result: ScenarioResult::from_json(req(value, "result", CTX)?)?,
        })
    }
}

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
