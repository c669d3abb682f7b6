//! # sfoverlay
//!
//! Umbrella crate for the reproduction of *"Scale-Free Overlay Topologies with Hard Cutoffs
//! for Unstructured Peer-to-Peer Networks"* (Guclu & Yuksel, ICDCS 2007).
//!
//! It re-exports the workspace crates under stable module names so applications can depend
//! on a single crate:
//!
//! * [`graph`] — graph substrate and substrate-network generators ([`sfo_graph`]),
//!   including the binary `SFOS` snapshot codec ([`sfo_graph::snapshot`]) behind
//!   `CsrGraph::save`/`load`, `ShardedCsr::save`/`load`, and the `sfo snapshot`
//!   subcommands (byte layout documented in `docs/FORMATS.md`).
//! * [`topology`] — PA, CM, HAPA, and DAPA overlay generators with hard cutoffs, plus the
//!   uncorrelated configuration model ([`sfo_core`]).
//! * [`search`] — flooding, normalized flooding, and random-walk search ([`sfo_search`]).
//! * [`engine`] — the sharded CSR topology store and batched query scheduler
//!   ([`sfo_engine`]): [`ShardedCsr`](sfo_engine::ShardedCsr) partitions a frozen
//!   snapshot into `Send + Sync` node-range shards with cross-shard boundary tables,
//!   and [`WorkerPool`](sfo_engine::WorkerPool) fans
//!   [`QueryBatch`](sfo_engine::QueryBatch)es across a persistent work-stealing pool
//!   with per-job RNG streams (results independent of worker and shard counts).
//! * [`analysis`] — histograms, power-law fits, and result series ([`sfo_analysis`]).
//! * [`sim`] — the live-overlay churn simulator ([`sfo_sim`]).
//! * [`overlay`] — the live membership protocol ([`sfo_overlay`]): a HyParView-style
//!   peer state machine whose capped attachment walks grow the paper's scale-free
//!   topologies *by protocol execution*, over a deterministic simulated transport
//!   ([`sfo_overlay::grow`]) or real sockets (`sfo overlay`, via [`sfo_net`]).
//! * [`scenario`] — the declarative scenario layer ([`sfo_scenario`]): serializable
//!   [`ScenarioSpec`](sfo_scenario::ScenarioSpec)s covering topologies × searches ×
//!   dynamics × sweeps, executed by one
//!   [`ScenarioRunner`](sfo_scenario::ScenarioRunner) into reports that embed their
//!   spec. The `sfo` binary (`sfo scenario run <file.json>`) runs spec files directly;
//!   examples ship under `examples/*.json`.
//! * [`net`] — the distributed execution layer ([`sfo_net`]): a framed wire protocol
//!   over TCP or Unix sockets, the [`WorkerServer`](sfo_net::WorkerServer) daemon
//!   behind `sfo serve` (a loaded `.sfos` snapshot served to many clients through one
//!   engine pool, with a bounded per-connection queue that sheds overload as typed
//!   frames), the [`RemoteDispatcher`](sfo_net::RemoteDispatcher) that splits a
//!   spec's job grid across workers with byte-identical results, and the open-loop
//!   load driver behind `sfo loadtest` (`sfo_net::loadtest`).
//! * [`obs`] — the workspace telemetry layer ([`sfo_obs`]): lock-free counters,
//!   log-bucketed latency histograms, phase timers, and the named-metric
//!   [`Registry`](sfo_obs::Registry) instrumenting the engine, the wire protocol, the
//!   overlay, and the scenario runner — surfaced by `sfo stats <addr>` and
//!   `--metrics-out`, and never allowed to perturb a result byte (see
//!   `docs/ARCHITECTURE.md`).
//! * [`experiments`] — reproductions of every figure and table of the paper
//!   ([`sfo_experiments`]), built on the scenario layer.
//!
//! Each crate exports only what another crate, the `sfo` binary, `benchmark/`, a bench
//! target or an integration test uses (see `docs/ARCHITECTURE.md`), so these modules
//! are the workspace's whole public surface.
//!
//! The [`prelude`] collects the types needed for the common "generate a topology, run a
//! search on it" workflow, plus the scenario and churn-simulation entry points.
//!
//! # Example
//!
//! ```
//! use sfoverlay::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let overlay = PreferentialAttachment::new(2_000, 2)?
//!     .with_cutoff(DegreeCutoff::hard(20))
//!     .generate(&mut rng)?;
//! let outcome = NormalizedFlooding::new(2).search(&overlay, NodeId::new(0), 5, &mut rng);
//! assert!(outcome.hits > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sfo_analysis as analysis;
pub use sfo_core as topology;
pub use sfo_engine as engine;
pub use sfo_experiments as experiments;
pub use sfo_graph as graph;
pub use sfo_net as net;
pub use sfo_obs as obs;
pub use sfo_overlay as overlay;
pub use sfo_scenario as scenario;
pub use sfo_search as search;
pub use sfo_sim as sim;

/// The most commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use sfo_analysis::{DataPoint, DataSeries, FigureData, Summary};
    pub use sfo_core::pa::PreferentialAttachment;
    pub use sfo_core::{
        ConfigurationModel, DapaOverGrn, DegreeCutoff, DiscoverAndAttempt, DynTopologyGenerator,
        HopAndAttempt, Locality, StubCount, TopologyError, TopologyGenerator,
        UncorrelatedConfigurationModel,
    };
    pub use sfo_engine::{
        batched_rw_normalized_to_nf, batched_ttl_sweep, placed_advance, placed_start,
        BoundaryTable, CsrShard, EngineConfig, PlacedAlgorithm, PlacedState, PlacedStep,
        QueryBatch, QueryJob, ShardedCsr, StepStats, WorkerPool,
    };
    pub use sfo_graph::snapshot::{
        section_layout, Provenance, SectionLayout, SnapshotError, SnapshotFile, SnapshotHeader,
        SnapshotOrigin, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
    };
    pub use sfo_graph::{
        CsrGraph, CsrSlice, Graph, GraphError, GraphView, MultiGraph, NodeId, ShardView,
    };
    pub use sfo_net::placed::{shard_of, shard_range};
    pub use sfo_net::{
        remote_runner, remote_runner_with_metrics, run_loadtest, LoadtestConfig, LoadtestReport,
        NetError, OverlayNode, OverlayNodeConfig, OverlayNodeHandle, RemoteDispatcher, ServeConfig,
        WorkerClient, WorkerServer, DEFAULT_QUEUE_BOUND,
    };
    pub use sfo_obs::{
        Counter, Histogram, HistogramSnapshot, MetricsSnapshot, PhaseTimer, Registry,
    };
    pub use sfo_overlay::{
        grow, grow_metered, LiveConfig, LiveOutcome, LiveStats, OverlayMessage, OverlayMetrics,
        Peer, PeerRef, ProtocolConfig,
    };
    pub use sfo_scenario::{
        build_snapshot, ArrivalSpec, DegreeCurve, DynamicsSpec, LiveRealization, MeasureSpec,
        RemoteSweepExecutor, RemoteSweepRequest, ScenarioError, ScenarioReport, ScenarioRunner,
        ScenarioSpec, SearchSpec, SweepMetric, SweepSpec, TopologySpec, WorkloadSpec,
    };
    pub use sfo_search::flooding::Flooding;
    pub use sfo_search::{
        DegreeBiasedWalk, ExpandingRing, MultipleRandomWalk, NormalizedFlooding,
        ProbabilisticFlooding, RandomWalk, SearchAlgorithm, SearchOutcome, SearchScratch,
        VisitedSet,
    };
    pub use sfo_sim::overlay::{JoinStrategy, OverlayConfig, OverlayNetwork};
    pub use sfo_sim::simulation::{Simulation, SimulationConfig};
    pub use sfo_sim::{
        generate_trace, run_trace, ChurnTrace, ChurnTraceConfig, QueryMethod, ReplicationStrategy,
        SessionModel, TraceRunConfig, Workload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        // Type-level smoke test: constructing configurations must work through the prelude.
        let _ = PreferentialAttachment::new(10, 1).unwrap();
        let _ = ConfigurationModel::new(10, 2.5, 1).unwrap();
        let _ = HopAndAttempt::new(10, 1).unwrap();
        let _ = DapaOverGrn::new(10, 1, 2).unwrap();
        let _ = Flooding::new();
        let _ = NormalizedFlooding::new(2);
        let _ = RandomWalk::new();
        let _ = DegreeCutoff::hard(5);
        // The simulation and scenario layers are reachable without naming internal crates.
        let _ = Workload::Stationary;
        let _ = QueryMethod::NormalizedFlooding { k_min: 3 };
        let _ = ChurnTraceConfig {
            duration: 10,
            arrival_rate: 0.5,
            sessions: SessionModel::Fixed { length: 5.0 },
            crash_fraction: 0.0,
        };
        let _ = TraceRunConfig::small();
        let _ = ScenarioRunner::new();
        // The live membership protocol is reachable through the prelude.
        let live = LiveConfig::small();
        assert!(live.validate().is_ok());
        assert!(ProtocolConfig::small().validate().is_ok());
        let _ = PeerRef::new(0, "127.0.0.1:9200");
        // The engine layer is reachable through the prelude too.
        let sharded = ShardedCsr::from_graph(&Graph::with_nodes(4), 2);
        assert_eq!(sharded.shard_count(), 2);
        let _ = QueryBatch::new();
        let _ = EngineConfig::with_workers(2);
        // The telemetry layer is reachable through the prelude.
        let registry = Registry::new();
        registry.counter("prelude.smoke").inc();
        assert_eq!(registry.snapshot().counter("prelude.smoke"), Some(1));
        let _ = MeasureSpec::DegreeDistribution { bins_per_decade: 8 };
        // The load-testing layer is reachable through the prelude: workload specs,
        // the open-loop driver's config, and the server's default queue bound.
        let default_bound = DEFAULT_QUEUE_BOUND;
        assert!(default_bound > 0);
        let workload = WorkloadSpec {
            name: "prelude".to_string(),
            arrivals: ArrivalSpec::Poisson { rate_hz: 10.0 },
            duration_secs: 1.0,
            connections: 1,
            jobs_per_request: 1,
            search: SearchSpec::Flooding,
            ttl: 2,
            seed: 1,
        };
        assert!(workload.validate().is_ok());
        let _ = LoadtestConfig {
            spec: workload,
            workers: vec![],
            record_outcomes: false,
        };
        let spec = ScenarioSpec::sweep(
            "prelude",
            TopologySpec::Pa {
                nodes: 50,
                m: 1,
                cutoff: Some(5),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1], 1),
            1,
            1,
        );
        assert!(spec.validate().is_ok());
    }
}
