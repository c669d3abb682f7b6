//! # sfo-scenario
//!
//! A declarative, serializable scenario layer over the whole workspace: the paper's
//! evaluation grid — {PA, CM, UCM, HAPA, DAPA, ...} × hard-cutoff settings × {flooding,
//! normalized flooding, random walks} × TTL sweeps — plus its churn extensions, expressed
//! as *data* instead of hand-wired Rust.
//!
//! The layer has three pieces:
//!
//! * **Specs** (`spec`): [`TopologySpec`] covers every generator family in `sfo-core`,
//!   [`SearchSpec`] every search algorithm in `sfo-search`, [`DynamicsSpec`] selects
//!   static snapshots, rate-driven churn, trace replay, or live protocol growth
//!   (`sfo-overlay`), and [`SweepSpec`] spans the `m × k_c × τ` grid. A top-level [`ScenarioSpec`] bundles them with a seed and a
//!   realization count, and round-trips through JSON files ([`json`]).
//! * **Runner** (`runner`): [`ScenarioRunner`] executes any spec end to end —
//!   generating realizations, freezing them to CSR snapshots, fanning
//!   `(curve, realization)` tasks across threads with the workspace's single
//!   `stream_rng` derivation, or routing dynamic specs into `sfo-sim`.
//! * **Report** ([`report`]): every run returns a [`ScenarioReport`] that embeds the
//!   originating spec for provenance and serializes deterministically, so a fixed seed
//!   reproduces a report byte for byte.
//!
//! The figure harness in `sfo-experiments` builds its paper reproductions on this layer,
//! and the `sfo scenario run <file.json>` binary in the facade crate executes spec files
//! directly (examples ship under `examples/*.json`).
//!
//! Topologies can also be built once and persisted: [`build_snapshot`] writes a spec's
//! realization-0 topology as a binary `SFOS` file (with provenance and an optional
//! shard count), and [`TopologySpec::Snapshot`] runs any later scenario against that
//! file with byte-identical results — the paper's reuse-the-same-realizations workflow,
//! served by `sfo snapshot build|inspect|verify` on the CLI.
//!
//! # Example
//!
//! ```
//! use sfo_scenario::{ScenarioRunner, ScenarioSpec, SearchSpec, SweepSpec, TopologySpec};
//!
//! # fn main() -> Result<(), sfo_scenario::ScenarioError> {
//! // Fig. 6 in miniature: flooding on PA topologies across cutoffs.
//! let spec = ScenarioSpec::sweep(
//!     "fig6-pa-mini",
//!     TopologySpec::Pa { nodes: 400, m: 1, cutoff: None },
//!     SearchSpec::Flooding,
//!     SweepSpec::grid(vec![2], vec![Some(10), None], vec![1, 2, 4], 10),
//!     42,
//!     2,
//! );
//!
//! // Specs are data: they round-trip through JSON text...
//! let reparsed = ScenarioSpec::parse(&spec.to_json_string())?;
//! assert_eq!(reparsed, spec);
//!
//! // ...and one runner executes any of them.
//! let report = ScenarioRunner::new().run(&reparsed)?;
//! assert_eq!(report.sweep_curves().unwrap().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod metrics_json;
mod remote;
mod runner;
mod snapshot_build;
mod spec;
mod table;
mod workload;

pub mod json;
pub mod report;

pub use error::ScenarioError;
pub use remote::{RemoteSweepExecutor, RemoteSweepRequest};
pub use report::{
    ChurnRealization, DegreeBinPoint, DegreeCurve, LiveRealization, ScenarioReport, ScenarioResult,
    Stat, SweepCurve, SweepMetric, SweepPoint, TraceRealization,
};
pub use runner::ScenarioRunner;
pub use snapshot_build::build_snapshot;
pub use spec::{
    BuiltSearch, DynamicsSpec, MeasureSpec, ScenarioSpec, SearchSpec, SweepSpec, TopologySpec,
};
pub use workload::{ArrivalSpec, WorkloadSpec};

/// Convenience result alias used throughout this crate.
pub type Result<T, E = ScenarioError> = std::result::Result<T, E>;
