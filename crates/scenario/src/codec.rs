//! JSON tables for the configuration types owned by `sfo-sim` and `sfo-overlay`.
//!
//! The spec layer embeds the simulator's own configuration structs
//! ([`SimulationConfig`], [`TraceRunConfig`], [`ChurnTraceConfig`], [`LiveConfig`], ...)
//! rather than mirroring them, so a scenario file configures exactly what runs. This
//! module gives those foreign types their [`ToJson`]/[`FromJson`] tables (see
//! [`crate::table`]); every table fixes its members' order, so serialization stays
//! deterministic.

use crate::json::{FromJson, JsonValue, ToJson};
use crate::table::{json_enum, json_record};
use crate::ScenarioError;
use sfo_core::DegreeCutoff;
use sfo_overlay::LiveConfig;
use sfo_overlay::ProtocolConfig;
use sfo_sim::overlay::{JoinStrategy, OverlayConfig};
use sfo_sim::simulation::{OverlaySample, SimulationConfig};
use sfo_sim::QueryMethod;
use sfo_sim::ReplicationStrategy;
use sfo_sim::TraceRunConfig;
use sfo_sim::Workload;
use sfo_sim::{ChurnTraceConfig, SessionModel};

// ---------------------------------------------------------------------------------------
// sfo-sim types.

json_enum!(JoinStrategy, "join strategy", "strategy", {
    UniformRandom = "uniform_random" {},
    DegreePreferential = "degree_preferential" {},
    HopAndAttempt = "hop_and_attempt" { max_hops_per_link },
});

json_record!(OverlayConfig, "overlay config", {
    stubs,
    cutoff = DegreeCutoff::Unbounded,
    join_strategy,
    repair_on_leave,
});

json_enum!(QueryMethod, "query method", "method", {
    Flooding = "flooding" {},
    NormalizedFlooding = "normalized_flooding" { k_min },
    RandomWalk = "random_walk" {},
});

json_record!(SimulationConfig, "churn simulation config", {
    initial_peers,
    duration,
    join_rate,
    leave_rate,
    crash_rate,
    query_rate,
    query_ttl,
    query_method,
    overlay,
    catalog_items,
    catalog_skew,
    base_replicas,
    snapshot_interval,
});

json_enum!(SessionModel, "session model", "model", {
    Exponential = "exponential" { mean },
    Pareto = "pareto" { shape, minimum },
    Fixed = "fixed" { length },
});

json_record!(ChurnTraceConfig, "churn trace config", {
    duration,
    arrival_rate,
    sessions,
    crash_fraction,
});

// A bare string rather than an object: it has no members for a table to name.
impl ToJson for ReplicationStrategy {
    fn to_json(&self) -> JsonValue {
        JsonValue::from_str_value(match self {
            ReplicationStrategy::Uniform => "uniform",
            ReplicationStrategy::Proportional => "proportional",
            ReplicationStrategy::SquareRoot => "square_root",
        })
    }
}

impl FromJson for ReplicationStrategy {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        match value.as_str() {
            Some("uniform") => Ok(ReplicationStrategy::Uniform),
            Some("proportional") => Ok(ReplicationStrategy::Proportional),
            Some("square_root") => Ok(ReplicationStrategy::SquareRoot),
            _ => Err(ScenarioError::invalid(
                "replication strategy must be \"uniform\", \"proportional\", or \"square_root\"",
            )),
        }
    }
}

json_enum!(Workload, "workload", "kind", {
    Stationary = "stationary" {},
    FlashCrowd = "flash_crowd" { hot_item, start, end, intensity },
});

json_record!(TraceRunConfig, "trace run config", {
    overlay,
    bootstrap_peers,
    catalog_items,
    catalog_skew,
    replication,
    replica_budget,
    workload,
    queries_per_tick,
    query_ttl,
    query_method,
    snapshot_interval,
});

json_record!(OverlaySample, "overlay sample", {
    time,
    peers,
    edges,
    mean_degree,
    max_degree,
    giant_component_fraction,
});

// ---------------------------------------------------------------------------------------
// sfo-overlay types.

json_record!(ProtocolConfig, "overlay protocol config", {
    active_cap,
    passive_cap,
    attach_walks,
    forward_ttl,
    shuffle_interval,
    shuffle_size,
    probe_interval,
    probe_timeout,
    suspect_grace,
});

json_record!(LiveConfig, "live overlay config", {
    peers,
    arrival_spacing,
    sessions,
    crash_fraction,
    settle,
    protocol,
});

#[cfg(test)]
mod tests {
    use super::*;
    use sfo_sim::catalog::ItemId;

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: T) {
        let json = value.to_json();
        let text = json.to_pretty_string();
        let reparsed = JsonValue::parse(&text).expect("codec output parses");
        let back = T::from_json(&reparsed).expect("codec output decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn sim_configs_round_trip() {
        roundtrip(SimulationConfig::small());
        let mut cfg = SimulationConfig::small();
        cfg.overlay = OverlayConfig {
            stubs: 2,
            cutoff: DegreeCutoff::Unbounded,
            join_strategy: JoinStrategy::DegreePreferential,
            repair_on_leave: false,
        };
        cfg.query_method = QueryMethod::RandomWalk;
        roundtrip(cfg);
    }

    #[test]
    fn trace_configs_round_trip() {
        roundtrip(TraceRunConfig::small());
        let mut cfg = TraceRunConfig::small();
        cfg.replication = ReplicationStrategy::Proportional;
        cfg.workload = Workload::FlashCrowd {
            hot_item: ItemId::new(3),
            start: 10,
            end: 90,
            intensity: 0.75,
        };
        cfg.query_method = QueryMethod::Flooding;
        roundtrip(cfg);
        roundtrip(ChurnTraceConfig {
            duration: 500,
            arrival_rate: 0.4,
            sessions: SessionModel::Pareto {
                shape: 1.6,
                minimum: 30.0,
            },
            crash_fraction: 0.25,
        });
        roundtrip(SessionModel::Exponential { mean: 80.0 });
        roundtrip(SessionModel::Fixed { length: 12.0 });
    }

    #[test]
    fn live_configs_round_trip() {
        roundtrip(ProtocolConfig::small());
        roundtrip(LiveConfig::small());
        let mut cfg = LiveConfig::small();
        cfg.sessions = SessionModel::Pareto {
            shape: 1.2,
            minimum: 64.0,
        };
        cfg.crash_fraction = 0.5;
        cfg.protocol.active_cap = 20;
        roundtrip(cfg);
    }

    #[test]
    fn overlay_samples_round_trip() {
        roundtrip(OverlaySample {
            time: 42,
            peers: 100,
            edges: 280,
            mean_degree: 5.6,
            max_degree: 30,
            giant_component_fraction: 0.987654321,
        });
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        let bad = JsonValue::parse("{\"method\": \"teleport\"}").unwrap();
        assert!(matches!(
            QueryMethod::from_json(&bad),
            Err(ScenarioError::InvalidSpec { .. })
        ));
        let bad = JsonValue::parse("{\"strategy\": \"psychic\"}").unwrap();
        assert!(matches!(
            JoinStrategy::from_json(&bad),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }
}
