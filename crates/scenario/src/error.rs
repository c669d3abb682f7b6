//! Error type of the scenario layer.

use sfo_core::TopologyError;
use sfo_graph::snapshot::SnapshotError;
use sfo_overlay::OverlayError;
use sfo_sim::SimError;
use std::error::Error;
use std::fmt;

/// Errors produced while parsing, validating, or running a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The spec is structurally valid JSON but describes an impossible scenario (zero
    /// nodes, a cutoff below `m`, an empty TTL grid, ...), or a field has the wrong shape.
    InvalidSpec {
        /// Human-readable description of the violated constraint, naming the field.
        reason: String,
    },
    /// The spec file is not valid JSON.
    Parse {
        /// What went wrong.
        message: String,
        /// 1-based line of the offending character.
        line: usize,
        /// 1-based column of the offending character.
        column: usize,
    },
    /// The JSON text nests arrays and objects deeper than the parser accepts
    /// ([`MAX_NESTING`](crate::json::MAX_NESTING)); refused before the parser's
    /// recursion can exhaust the thread's stack.
    NestingTooDeep {
        /// The nesting limit that was exceeded.
        limit: usize,
        /// 1-based line of the bracket that opened one level too many.
        line: usize,
        /// 1-based column of that bracket.
        column: usize,
    },
    /// A topology generator rejected its configuration or could not place a link.
    Topology(TopologyError),
    /// The churn simulator or trace runner rejected its configuration.
    Sim(SimError),
    /// A `TopologySpec::Snapshot` file could not be read, failed verification, or lacks
    /// the section the scenario needs.
    Snapshot(SnapshotError),
    /// The live membership protocol rejected its configuration or a transport failed.
    Overlay(OverlayError),
    /// Remote execution failed: a worker could not be reached, served the wrong
    /// snapshot, or returned a protocol error (the transport lives in `sfo-net`; this
    /// variant is its error surface inside the scenario layer).
    Remote {
        /// Human-readable description of what the dispatcher or a worker reported.
        message: String,
    },
}

impl ScenarioError {
    /// Builds an [`ScenarioError::InvalidSpec`] from anything stringly.
    pub fn invalid(reason: impl Into<String>) -> Self {
        ScenarioError::InvalidSpec {
            reason: reason.into(),
        }
    }

    /// Builds an [`ScenarioError::Remote`] from anything stringly.
    pub fn remote(message: impl Into<String>) -> Self {
        ScenarioError::Remote {
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::InvalidSpec { reason } => write!(f, "invalid scenario spec: {reason}"),
            ScenarioError::Parse {
                message,
                line,
                column,
            } => write!(
                f,
                "spec parse error at line {line}, column {column}: {message}"
            ),
            ScenarioError::NestingTooDeep {
                limit,
                line,
                column,
            } => write!(
                f,
                "spec parse error at line {line}, column {column}: \
                 arrays and objects nest deeper than {limit} levels"
            ),
            ScenarioError::Topology(e) => write!(f, "topology generation failed: {e}"),
            ScenarioError::Sim(e) => write!(f, "simulation failed: {e}"),
            ScenarioError::Snapshot(e) => write!(f, "topology snapshot failed: {e}"),
            ScenarioError::Overlay(e) => write!(f, "live overlay failed: {e}"),
            ScenarioError::Remote { message } => write!(f, "remote execution failed: {message}"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Topology(e) => Some(e),
            ScenarioError::Sim(e) => Some(e),
            ScenarioError::Snapshot(e) => Some(e),
            ScenarioError::Overlay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for ScenarioError {
    fn from(value: TopologyError) -> Self {
        ScenarioError::Topology(value)
    }
}

impl From<SimError> for ScenarioError {
    fn from(value: SimError) -> Self {
        ScenarioError::Sim(value)
    }
}

impl From<SnapshotError> for ScenarioError {
    fn from(value: SnapshotError) -> Self {
        ScenarioError::Snapshot(value)
    }
}

impl From<OverlayError> for ScenarioError {
    fn from(value: OverlayError) -> Self {
        ScenarioError::Overlay(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let invalid = ScenarioError::invalid("nodes must be positive");
        assert!(invalid.to_string().contains("nodes must be positive"));
        assert!(invalid.source().is_none());

        let parse = ScenarioError::Parse {
            message: "expected ':'".to_string(),
            line: 3,
            column: 9,
        };
        assert!(parse.to_string().contains("line 3"));
        let deep = ScenarioError::NestingTooDeep {
            limit: 64,
            line: 1,
            column: 65,
        };
        assert!(deep.to_string().contains("column 65"));
        assert!(deep.to_string().contains("deeper than 64"));

        let topo = ScenarioError::from(TopologyError::InvalidConfig { reason: "m" });
        assert!(topo.source().is_some());
        let sim = ScenarioError::from(SimError::EmptyOverlay);
        assert!(sim.source().is_some());
        let overlay = ScenarioError::from(OverlayError::invalid("peers"));
        assert!(overlay.to_string().contains("live overlay failed"));
        assert!(overlay.source().is_some());
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ScenarioError>();
    }
}
