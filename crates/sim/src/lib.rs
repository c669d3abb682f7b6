//! # sfo-sim
//!
//! A discrete-event simulator of a Gnutella-like unstructured peer-to-peer overlay whose
//! peers impose hard degree cutoffs, built on the topology and search crates of this
//! workspace.
//!
//! The ICDCS'07 paper evaluates static snapshots; its stated future work is the study of
//! *join/leave scenarios* "while attempting to maintain the scale-freeness of the overall
//! topology" at minimal messaging overhead. This crate provides that substrate:
//!
//! * [`overlay`] — a live overlay network: peers join using uniform, degree-preferential,
//!   or hop-and-attempt (HAPA-style) neighbor selection under a hard cutoff, leave
//!   gracefully or crash, and optionally trigger neighbor-rewiring repair.
//! * [`catalog`] — data items with Zipf popularity and replication, the workload
//!   unstructured searches serve.
//! * `query` — item lookups over the live overlay by flooding, normalized flooding, or
//!   random walks, with early termination on the first replica found.
//! * `events` — the discrete-event queue driving joins, leaves, and queries.
//! * [`simulation`] — the end-to-end simulation loop and its report (overlay health and
//!   query success over time).
//! * `replication` — uniform / proportional / square-root replica allocation (Cohen &
//!   Shenker, ref. \[22\]) and placement over the live overlay.
//! * `churn` — heavy-tailed session-time models and reproducible churn traces.
//! * `workload` — stationary Zipf and flash-crowd query workloads.
//! * `trace_runner` — replays a churn trace (plus a workload) against the live overlay,
//!   so different overlay configurations can be compared under identical churn.
//!
//! # Example
//!
//! ```
//! use sfo_sim::simulation::{Simulation, SimulationConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), sfo_sim::SimError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = SimulationConfig::small();
//! let report = Simulation::new(config)?.run(&mut rng)?;
//! assert!(report.queries_issued > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod error;
mod events;
mod query;
mod replication;
mod trace_runner;
mod workload;

pub mod catalog;
pub mod overlay;
pub mod simulation;

pub use churn::{
    generate_trace, ChurnAction, ChurnEvent, ChurnTrace, ChurnTraceConfig, SessionModel,
};
pub use error::SimError;
pub use query::{run_query, QueryMethod, QueryOutcome};
pub use replication::{
    allocate, expected_search_size, place, ReplicaAllocation, ReplicationStrategy,
};
pub use trace_runner::{run_trace, TraceRunConfig, TraceRunReport};
pub use workload::Workload;

/// Convenience result alias used throughout this crate.
pub type Result<T, E = SimError> = std::result::Result<T, E>;
