//! The declarative scenario vocabulary: specs as data.
//!
//! A [`ScenarioSpec`] is a complete, serializable description of one experiment cell from
//! the paper's evaluation grid (or of one of its churn extensions): which topology family
//! to grow ([`TopologySpec`]), which search to run over it ([`SearchSpec`]), whether the
//! overlay is static or lives under join/leave dynamics ([`DynamicsSpec`]), and which
//! parameter grid to sweep ([`SweepSpec`]). Specs round-trip through JSON (see
//! [`crate::json`]) and are executed by [`crate::ScenarioRunner`], which embeds the spec
//! in its [`crate::ScenarioReport`] for provenance.

use crate::json::{FromJson, JsonValue, ToJson};
use crate::table::{json_enum, json_record, Tagged};
use crate::ScenarioError;
use serde::{Deserialize, Serialize};
use sfo_core::pa::PreferentialAttachment;
use sfo_core::ConfigurationModel;
use sfo_core::HopAndAttempt;
use sfo_core::UncorrelatedConfigurationModel;
use sfo_core::{DapaOverGrn, DapaOverMesh};
use sfo_core::{DegreeCutoff, DynTopologyGenerator};
use sfo_graph::{CsrGraph, GraphView};
use sfo_overlay::LiveConfig;
use sfo_search::flooding::Flooding;
use sfo_search::DegreeBiasedWalk;
use sfo_search::ExpandingRing;
use sfo_search::NormalizedFlooding;
use sfo_search::ProbabilisticFlooding;
use sfo_search::SearchAlgorithm;
use sfo_search::{MultipleRandomWalk, RandomWalk};
use sfo_sim::catalog::Catalog;
use sfo_sim::simulation::SimulationConfig;
use sfo_sim::ChurnTraceConfig;
use sfo_sim::QueryMethod;
use sfo_sim::TraceRunConfig;

fn cutoff_label(cutoff: Option<usize>) -> String {
    match cutoff {
        None => "no k_c".to_string(),
        Some(k_c) => format!("k_c={k_c}"),
    }
}

/// One topology-generator configuration, covering every generator family in `sfo-core`.
///
/// Each variant holds exactly the parameters of the corresponding generator's
/// constructor plus the hard cutoff, so [`TopologySpec::build`] compiles it into a
/// [`DynTopologyGenerator`] without further input. `cutoff: None` means unbounded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Preferential attachment (paper Alg. 1).
    Pa {
        /// Overlay size.
        nodes: usize,
        /// Stubs per joining node.
        m: usize,
        /// Hard cutoff `k_c` (`None` = unbounded).
        cutoff: Option<usize>,
    },
    /// Hop-and-attempt PA (paper Alg. 3).
    Hapa {
        /// Overlay size.
        nodes: usize,
        /// Stubs per joining node.
        m: usize,
        /// Hard cutoff `k_c` (`None` = unbounded).
        cutoff: Option<usize>,
    },
    /// Configuration model with target exponent `gamma` (paper Alg. 2).
    Cm {
        /// Overlay size.
        nodes: usize,
        /// Target degree exponent.
        gamma: f64,
        /// Minimum degree.
        m: usize,
        /// Hard cutoff `k_c` (`None` = unbounded).
        cutoff: Option<usize>,
    },
    /// Uncorrelated configuration model with the structural cutoff (ref. \[59\]).
    Ucm {
        /// Overlay size.
        nodes: usize,
        /// Target degree exponent.
        gamma: f64,
        /// Minimum degree.
        m: usize,
        /// Hard cutoff `k_c` (`None` = unbounded).
        cutoff: Option<usize>,
    },
    /// Discover-and-attempt PA over a geometric-random-network substrate (paper Alg. 4).
    DapaGrn {
        /// Overlay size (the substrate defaults to twice this, mean degree 10).
        nodes: usize,
        /// Stubs per joining node.
        m: usize,
        /// Local discovery TTL on the substrate.
        tau_sub: u32,
        /// Hard cutoff `k_c` (`None` = unbounded).
        cutoff: Option<usize>,
    },
    /// Discover-and-attempt PA over a 2D torus-mesh substrate (paper §IV-B).
    DapaMesh {
        /// Overlay size (the torus holds at least twice this many nodes).
        nodes: usize,
        /// Stubs per joining node.
        m: usize,
        /// Local discovery TTL on the substrate.
        tau_sub: u32,
        /// Hard cutoff `k_c` (`None` = unbounded).
        cutoff: Option<usize>,
    },
    /// A pre-built topology loaded from a binary `SFOS` snapshot file written by
    /// `sfo snapshot build` (see `sfo_graph::snapshot`).
    ///
    /// The file carries the topology *and* its provenance — the generating curve's
    /// label, `m`, cutoff, seed, and the `sweep_seed` drawn from the generation stream
    /// right after the topology was built — so a scenario run against the snapshot is
    /// byte-identical to the same scenario run against the inline generator. The
    /// structural accessors ([`TopologySpec::nodes`], [`TopologySpec::m`],
    /// [`TopologySpec::cutoff`]) return placeholder values for this variant; the runner
    /// resolves the real ones from the file.
    ///
    /// Snapshot scenarios are single-curve and single-realization (the file holds one
    /// frozen realization), and search sweeps over them must set `sweep.batch = true`:
    /// the engine's per-job RNG streams are the only sweep discipline that survives the
    /// build/run split, which is what makes the results byte-identical.
    Snapshot {
        /// Path of the `.sfos` file, relative to the working directory of the run.
        path: String,
    },
}

impl TopologySpec {
    /// Returns the overlay size the spec describes (0 for [`TopologySpec::Snapshot`],
    /// whose size lives in the file header and is resolved by the runner).
    pub fn nodes(&self) -> usize {
        match *self {
            TopologySpec::Snapshot { .. } => 0,
            TopologySpec::Pa { nodes, .. }
            | TopologySpec::Hapa { nodes, .. }
            | TopologySpec::Cm { nodes, .. }
            | TopologySpec::Ucm { nodes, .. }
            | TopologySpec::DapaGrn { nodes, .. }
            | TopologySpec::DapaMesh { nodes, .. } => nodes,
        }
    }

    /// Returns the stub count (minimum degree for the configuration models; 0 for
    /// [`TopologySpec::Snapshot`], whose `m` lives in the file's provenance record).
    pub fn m(&self) -> usize {
        match *self {
            TopologySpec::Snapshot { .. } => 0,
            TopologySpec::Pa { m, .. }
            | TopologySpec::Hapa { m, .. }
            | TopologySpec::Cm { m, .. }
            | TopologySpec::Ucm { m, .. }
            | TopologySpec::DapaGrn { m, .. }
            | TopologySpec::DapaMesh { m, .. } => m,
        }
    }

    /// Returns the hard cutoff (`None` = unbounded; also `None` for
    /// [`TopologySpec::Snapshot`], whose cutoff lives in the file's provenance record).
    pub fn cutoff(&self) -> Option<usize> {
        match *self {
            TopologySpec::Snapshot { .. } => None,
            TopologySpec::Pa { cutoff, .. }
            | TopologySpec::Hapa { cutoff, .. }
            | TopologySpec::Cm { cutoff, .. }
            | TopologySpec::Ucm { cutoff, .. }
            | TopologySpec::DapaGrn { cutoff, .. }
            | TopologySpec::DapaMesh { cutoff, .. } => cutoff,
        }
    }

    /// Returns a copy with the stub count replaced (used by sweep expansion; a no-op
    /// for [`TopologySpec::Snapshot`], which validation bars from sweep axes anyway).
    pub fn with_m(&self, new_m: usize) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            TopologySpec::Snapshot { .. } => {}
            TopologySpec::Pa { m, .. }
            | TopologySpec::Hapa { m, .. }
            | TopologySpec::Cm { m, .. }
            | TopologySpec::Ucm { m, .. }
            | TopologySpec::DapaGrn { m, .. }
            | TopologySpec::DapaMesh { m, .. } => *m = new_m,
        }
        spec
    }

    /// Returns a copy with the hard cutoff replaced (used by sweep expansion; a no-op
    /// for [`TopologySpec::Snapshot`], which validation bars from sweep axes anyway).
    pub fn with_cutoff(&self, new_cutoff: Option<usize>) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            TopologySpec::Snapshot { .. } => {}
            TopologySpec::Pa { cutoff, .. }
            | TopologySpec::Hapa { cutoff, .. }
            | TopologySpec::Cm { cutoff, .. }
            | TopologySpec::Ucm { cutoff, .. }
            | TopologySpec::DapaGrn { cutoff, .. }
            | TopologySpec::DapaMesh { cutoff, .. } => *cutoff = new_cutoff,
        }
        spec
    }

    /// The family tag used in the JSON encoding.
    pub fn family(&self) -> &'static str {
        self.tag()
    }

    /// The curve label of this configuration, matching the legend strings the figure
    /// harness has always used (e.g. `"PA, m=2, k_c=10"`).
    ///
    /// The label doubles as the salt of the configuration's RNG stream family (via
    /// [`sfo_search::experiment::label_salt`]), so a curve labelled the same way sees
    /// identical topologies in every harness.
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::Pa { m, cutoff, .. } => {
                format!("PA, m={m}, {}", cutoff_label(cutoff))
            }
            TopologySpec::Hapa { m, cutoff, .. } => {
                format!("HAPA, m={m}, {}", cutoff_label(cutoff))
            }
            TopologySpec::Cm {
                gamma, m, cutoff, ..
            } => format!("CM gamma={gamma}, m={m}, {}", cutoff_label(cutoff)),
            TopologySpec::Ucm {
                gamma, m, cutoff, ..
            } => format!("UCM gamma={gamma}, m={m}, {}", cutoff_label(cutoff)),
            TopologySpec::DapaGrn {
                m, tau_sub, cutoff, ..
            } => format!("DAPA m={m}, {}, tau_sub={tau_sub}", cutoff_label(cutoff)),
            TopologySpec::DapaMesh {
                m, tau_sub, cutoff, ..
            } => format!(
                "DAPA-mesh m={m}, {}, tau_sub={tau_sub}",
                cutoff_label(cutoff)
            ),
            // Placeholder only: the runner labels snapshot curves with the provenance
            // label stored in the file, so reports match the inline generator's.
            TopologySpec::Snapshot { ref path } => format!("snapshot:{path}"),
        }
    }

    /// Compiles the spec into a boxed generator.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Topology`] when the generator constructor rejects the
    /// parameters (zero `m`, too few nodes, ...).
    pub fn build(&self) -> Result<DynTopologyGenerator, ScenarioError> {
        let cutoff: DegreeCutoff = self.cutoff().into();
        Ok(match *self {
            TopologySpec::Pa { nodes, m, .. } => {
                Box::new(PreferentialAttachment::new(nodes, m)?.with_cutoff(cutoff))
            }
            TopologySpec::Hapa { nodes, m, .. } => {
                Box::new(HopAndAttempt::new(nodes, m)?.with_cutoff(cutoff))
            }
            TopologySpec::Cm {
                nodes, gamma, m, ..
            } => Box::new(ConfigurationModel::new(nodes, gamma, m)?.with_cutoff(cutoff)),
            TopologySpec::Ucm {
                nodes, gamma, m, ..
            } => {
                Box::new(UncorrelatedConfigurationModel::new(nodes, gamma, m)?.with_cutoff(cutoff))
            }
            TopologySpec::DapaGrn {
                nodes, m, tau_sub, ..
            } => Box::new(DapaOverGrn::new(nodes, m, tau_sub)?.with_cutoff(cutoff)),
            TopologySpec::DapaMesh {
                nodes, m, tau_sub, ..
            } => Box::new(DapaOverMesh::new(nodes, m, tau_sub)?.with_cutoff(cutoff)),
            TopologySpec::Snapshot { .. } => {
                return Err(ScenarioError::invalid(
                    "snapshot topologies are loaded from their file, not generated; \
                     the scenario runner resolves them directly",
                ))
            }
        })
    }

    /// Validates the configuration without generating anything.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSpec`] for constraints the spec layer checks
    /// itself (zero nodes, a hard cutoff below `m`) and [`ScenarioError::Topology`] for
    /// everything the generator constructors reject.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if let TopologySpec::Snapshot { path } = self {
            // The file must exist, be a snapshot this build reads, and carry the
            // provenance record the runner needs for its RNG discipline. The arrays
            // themselves are verified (checksum and structure) at load time.
            let (header, provenance) = sfo_graph::snapshot::read_meta(path)?;
            if header.node_count == 0 {
                return Err(ScenarioError::invalid(format!(
                    "topology snapshot: {path} holds an empty topology"
                )));
            }
            if provenance.is_none() {
                return Err(ScenarioError::invalid(format!(
                    "topology snapshot: {path} has no provenance record; scenario runs \
                     need one — build the file with `sfo snapshot build`",
                )));
            }
            return Ok(());
        }
        if self.nodes() == 0 {
            return Err(ScenarioError::invalid(format!(
                "topology {}: nodes must be positive",
                self.family()
            )));
        }
        if let Some(k_c) = self.cutoff() {
            if k_c < self.m() {
                return Err(ScenarioError::invalid(format!(
                    "topology {}: hard cutoff {k_c} is below the stub count m={}",
                    self.family(),
                    self.m()
                )));
            }
        }
        self.build().map(|_| ())
    }
}

/// A compiled search configuration, ready to run against frozen snapshots.
///
/// Generic over the snapshot backend: the legacy sweep path runs on [`CsrGraph`] (the
/// default), the engine-batched path on [`sfo_engine::ShardedCsr`] — both compiled by
/// [`SearchSpec::build_for`].
pub enum BuiltSearch<G: GraphView + ?Sized = CsrGraph> {
    /// A plain TTL-sweep algorithm.
    Algorithm(Box<dyn SearchAlgorithm<G> + Send + Sync>),
    /// The paper's message-normalized random walk: for each TTL, the walk's hop budget is
    /// the message count of a normalized flood with fan-out `k_min` from the same source.
    RwNormalizedToNf {
        /// NF fan-out whose message count sets the walk budget.
        k_min: usize,
    },
}

/// One search-algorithm configuration (paper §V plus the related-work variants).
///
/// `k_min: None` on the normalized-flooding variants means "match the topology's stub
/// count `m`", which is how the paper couples NF fan-out to minimum connectedness in
/// Figs. 9-12.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchSpec {
    /// Flooding (FL).
    Flooding,
    /// Normalized flooding (NF) with fan-out `k_min` (`None` = match `m`).
    NormalizedFlooding {
        /// Fan-out bound (`None` = match the topology's `m`).
        k_min: Option<usize>,
    },
    /// Gossip-style probabilistic flooding with forwarding probability `p`.
    ProbabilisticFlooding {
        /// Per-neighbor forwarding probability, in `(0, 1]`.
        p: f64,
    },
    /// Expanding-ring search: successive floods of growing radius.
    ExpandingRing {
        /// TTL of the first ring.
        initial_ttl: u32,
        /// Radius increment between rings.
        increment: u32,
    },
    /// A single random walk (RW).
    RandomWalk,
    /// `walkers` parallel random walks sharing one TTL budget.
    MultipleRandomWalk {
        /// Number of parallel walkers.
        walkers: usize,
    },
    /// The degree-biased (highest-degree-seeking) walk of Adamic et al.
    DegreeBiasedWalk,
    /// RW with its hop budget normalized to the message cost of NF at the same TTL
    /// (the methodology of Figs. 11-12). `k_min: None` = match `m`.
    RwNormalizedToNf {
        /// NF fan-out whose message count sets the walk budget (`None` = match `m`).
        k_min: Option<usize>,
    },
}

impl SearchSpec {
    /// Short display name ("FL", "NF", ...).
    pub fn name(&self) -> &'static str {
        match self {
            SearchSpec::Flooding => "FL",
            SearchSpec::NormalizedFlooding { .. } => "NF",
            SearchSpec::ProbabilisticFlooding { .. } => "pFL",
            SearchSpec::ExpandingRing { .. } => "ring",
            SearchSpec::RandomWalk => "RW",
            SearchSpec::MultipleRandomWalk { .. } => "MRW",
            SearchSpec::DegreeBiasedWalk => "HD-RW",
            SearchSpec::RwNormalizedToNf { .. } => "RW/NF",
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSpec`] for zero fan-outs, zero walkers, or
    /// forwarding probabilities outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match *self {
            SearchSpec::NormalizedFlooding { k_min: Some(0) }
            | SearchSpec::RwNormalizedToNf { k_min: Some(0) } => Err(ScenarioError::invalid(
                "search: normalized-flooding fan-out k_min must be positive",
            )),
            SearchSpec::ProbabilisticFlooding { p } => {
                if p.is_finite() && p > 0.0 && p <= 1.0 {
                    Ok(())
                } else {
                    Err(ScenarioError::invalid(
                        "search: forwarding probability p must lie in (0, 1]",
                    ))
                }
            }
            SearchSpec::ExpandingRing {
                initial_ttl,
                increment,
            } => {
                if initial_ttl == 0 || increment == 0 {
                    Err(ScenarioError::invalid(
                        "search: expanding ring needs a positive initial TTL and increment",
                    ))
                } else {
                    Ok(())
                }
            }
            SearchSpec::MultipleRandomWalk { walkers: 0 } => Err(ScenarioError::invalid(
                "search: multiple random walk needs at least one walker",
            )),
            _ => Ok(()),
        }
    }

    /// Compiles the spec for topologies with stub count `m` (resolving `k_min: None`),
    /// bound to the default [`CsrGraph`] backend.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`SearchSpec::validate`].
    pub fn build(&self, m: usize) -> Result<BuiltSearch, ScenarioError> {
        self.build_for::<CsrGraph>(m)
    }

    /// Compiles the spec for topologies with stub count `m`, bound to any graph backend
    /// (every search algorithm is generic over [`GraphView`]).
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`SearchSpec::validate`].
    pub fn build_for<G: GraphView + ?Sized>(
        &self,
        m: usize,
    ) -> Result<BuiltSearch<G>, ScenarioError> {
        self.validate()?;
        Ok(match *self {
            SearchSpec::Flooding => BuiltSearch::Algorithm(Box::new(Flooding::new())),
            SearchSpec::NormalizedFlooding { k_min } => {
                BuiltSearch::Algorithm(Box::new(NormalizedFlooding::new(k_min.unwrap_or(m).max(1))))
            }
            SearchSpec::ProbabilisticFlooding { p } => {
                BuiltSearch::Algorithm(Box::new(ProbabilisticFlooding::new(p)))
            }
            SearchSpec::ExpandingRing {
                initial_ttl,
                increment,
            } => BuiltSearch::Algorithm(Box::new(ExpandingRing::new(initial_ttl, increment))),
            SearchSpec::RandomWalk => BuiltSearch::Algorithm(Box::new(RandomWalk::new())),
            SearchSpec::MultipleRandomWalk { walkers } => {
                BuiltSearch::Algorithm(Box::new(MultipleRandomWalk::new(walkers)))
            }
            SearchSpec::DegreeBiasedWalk => {
                BuiltSearch::Algorithm(Box::new(DegreeBiasedWalk::new()))
            }
            SearchSpec::RwNormalizedToNf { k_min } => BuiltSearch::RwNormalizedToNf {
                k_min: k_min.unwrap_or(m).max(1),
            },
        })
    }
}

/// Whether (and how) the overlay lives under join/leave dynamics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DynamicsSpec {
    /// Static snapshots: generate realizations, freeze them, sweep searches (the paper's
    /// §V methodology).
    Static,
    /// Rate-driven churn: the discrete-event simulator of `sfo-sim` with memoryless
    /// join/leave/crash/query interarrivals (the paper's future-work question).
    Churn {
        /// The full simulator configuration, including the live-overlay policy.
        sim: SimulationConfig,
    },
    /// Trace-driven churn: a reproducible churn trace replayed against the live overlay.
    /// Scenarios sharing a seed and trace configuration replay the *identical* event
    /// sequence, so overlay policies can be compared under the same churn.
    Trace {
        /// How the churn trace is generated.
        trace: ChurnTraceConfig,
        /// How the overlay, catalog, and workload replaying the trace are configured.
        run: TraceRunConfig,
    },
    /// Protocol-grown topology: run the `sfo-overlay` membership protocol over its
    /// deterministic in-process transport, freeze the emergent overlay, and write it to
    /// a provenance-tagged snapshot — so the whole static measurement stack (sweeps,
    /// degree figures, remote dispatch) consumes live-grown graphs unchanged.
    Live {
        /// Peer count, churn schedule, and protocol parameters of the growth run.
        live: LiveConfig,
        /// Path the frozen overlay is written to as a `.sfos` snapshot.
        snapshot: String,
    },
}

impl DynamicsSpec {
    /// The kind tag used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        self.tag()
    }

    /// Validates the dynamics configuration via the simulator's own validators.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Sim`] naming the violated constraint (for example a
    /// flash-crowd intensity outside `[0, 1]`).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            DynamicsSpec::Static => Ok(()),
            DynamicsSpec::Churn { sim } => {
                validate_query_method(sim.query_method)?;
                sim.validate().map_err(ScenarioError::from)
            }
            DynamicsSpec::Trace { trace, run } => {
                validate_query_method(run.query_method)?;
                trace.validate()?;
                run.validate()?;
                let catalog = Catalog::new(run.catalog_items, run.catalog_skew)?;
                run.workload.validate(&catalog)?;
                Ok(())
            }
            DynamicsSpec::Live { live, snapshot } => {
                live.validate()
                    .map_err(|e| ScenarioError::invalid(e.to_string()))?;
                if snapshot.is_empty() {
                    return Err(ScenarioError::invalid(
                        "live scenarios must name the \"snapshot\" path the grown \
                         overlay is written to",
                    ));
                }
                Ok(())
            }
        }
    }
}

fn validate_query_method(method: QueryMethod) -> Result<(), ScenarioError> {
    if matches!(method, QueryMethod::NormalizedFlooding { k_min: 0 }) {
        Err(ScenarioError::invalid(
            "dynamics: query-method fan-out k_min must be positive",
        ))
    } else {
        Ok(())
    }
}

/// The parameter grid a static scenario expands into, plus the measurement knobs.
///
/// The cross product `stubs × cutoffs` is applied to the base topology (an empty axis
/// keeps the base value), producing one labelled curve per combination; every curve is
/// then swept over `ttls` with `searches_per_point` random sources per TTL and averaged
/// over the scenario's realizations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Stub counts to sweep (empty = keep the base topology's `m`).
    pub stubs: Vec<usize>,
    /// Hard cutoffs to sweep, `None` = unbounded (empty = keep the base cutoff).
    pub cutoffs: Vec<Option<usize>>,
    /// Time-to-live grid.
    pub ttls: Vec<u32>,
    /// Searches (random sources) per TTL per realization.
    pub searches_per_point: usize,
    /// Worker threads (0 = all available cores). With `batch: false` they fan
    /// `(curve, realization)` tasks; with `batch: true` they are the engine pool fanning
    /// searches *inside* each realization. Results are independent of this value either
    /// way: every task or job has its own RNG stream.
    pub threads: usize,
    /// Number of contiguous node-id shards each frozen realization is partitioned into
    /// (0 or 1 = unsharded). Sharding never changes results: the sharded store reports
    /// the exact neighbor order of the unsharded snapshot.
    pub shard_count: usize,
    /// Routes the TTL sweep of every realization through the `sfo-engine` query-batch
    /// scheduler: one job per `(ttl, search)` cell with its own derived RNG stream,
    /// fanned across a persistent worker pool. Batched results are independent of the
    /// thread and shard counts, but use per-job streams instead of the legacy per-curve
    /// sequential stream, so they differ numerically (not statistically) from
    /// `batch: false` runs.
    pub batch: bool,
    /// Addresses of `sfo serve` worker processes to split the sweep across (`host:port`
    /// for TCP, `unix:/path` for Unix sockets; empty = run locally). Requires a
    /// snapshot topology — the workers must serve the *identical* realization, which
    /// the dispatcher enforces by comparing snapshot identity hashes — and therefore
    /// also `batch: true`. Because every job's RNG stream is a pure function of its
    /// global job index, the worker list (its length *and* how the grid is split) can
    /// never change a byte of the report.
    pub workers: Vec<String>,
    /// Placed execution: worker `i` of the list holds only shard `i` of
    /// `workers.len()` (shipped by the dispatcher, or pinned with `sfo serve
    /// --shard i`), each job starts on the worker owning its source node, and a
    /// traversal that needs a foreign row hops between workers as a forwarded
    /// frontier. Requires a non-empty `workers` list. Because every frontier carries
    /// the exact serial traversal state, placement can never change a byte of the
    /// report either.
    pub placed: bool,
}

impl SweepSpec {
    /// A sweep of the base topology only: no grid, just a TTL sweep.
    pub fn single(ttls: Vec<u32>, searches_per_point: usize) -> Self {
        SweepSpec {
            stubs: Vec::new(),
            cutoffs: Vec::new(),
            ttls,
            searches_per_point,
            threads: 0,
            shard_count: 0,
            batch: false,
            workers: Vec::new(),
            placed: false,
        }
    }

    /// A full `stubs × cutoffs` grid.
    pub fn grid(
        stubs: Vec<usize>,
        cutoffs: Vec<Option<usize>>,
        ttls: Vec<u32>,
        searches_per_point: usize,
    ) -> Self {
        SweepSpec {
            stubs,
            cutoffs,
            ttls,
            searches_per_point,
            threads: 0,
            shard_count: 0,
            batch: false,
            workers: Vec::new(),
            placed: false,
        }
    }

    /// A `stubs × cutoffs` grid with no measurement knobs: the shape of a
    /// degree-distribution scenario, which sweeps topologies but runs no searches.
    pub fn axes(stubs: Vec<usize>, cutoffs: Vec<Option<usize>>) -> Self {
        SweepSpec {
            stubs,
            cutoffs,
            ttls: Vec::new(),
            searches_per_point: 0,
            threads: 0,
            shard_count: 0,
            batch: false,
            workers: Vec::new(),
            placed: false,
        }
    }

    /// Returns a copy routed through the engine: `shard_count` shards per realization,
    /// batched execution.
    pub fn with_engine(mut self, shard_count: usize) -> Self {
        self.shard_count = shard_count;
        self.batch = true;
        self
    }
}

/// What a static scenario measures over its expanded topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasureSpec {
    /// The search sweep of the paper's §V: every curve swept over `ttls` with
    /// `searches_per_point` sources per TTL (the default, and the only measure dynamic
    /// scenarios support).
    SearchSweep,
    /// The degree distributions of the paper's §III/§IV: `P(k)` of every curve,
    /// log-binned over the concatenated degrees of all realizations (the methodology of
    /// Figs. 1-4). Needs no `search` section, and the `sweep` section — if present —
    /// contributes only its `stubs`/`cutoffs` axes.
    DegreeDistribution {
        /// Logarithmic bins per decade of `k` (the figures use 8).
        bins_per_decade: usize,
    },
}

impl MeasureSpec {
    /// The kind tag used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        self.tag()
    }
}

/// A complete, serializable scenario: one cell (or grid) of the paper's evaluation.
///
/// Static search sweeps require `topology`, `search`, and `sweep`; degree-distribution
/// scenarios require `topology` and take no `search`; dynamic scenarios (churn or trace
/// replay) configure everything inside `dynamics` and must leave the three static fields
/// `None` — [`ScenarioSpec::validate`] enforces the split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name; doubles as the RNG stream-family salt for dynamic runs.
    pub name: String,
    /// Base topology of a static scenario (`None` for dynamic scenarios).
    pub topology: Option<TopologySpec>,
    /// Search algorithm of a static sweep (`None` for dynamic and degree scenarios).
    pub search: Option<SearchSpec>,
    /// Static snapshots, rate-driven churn, or trace replay.
    pub dynamics: DynamicsSpec,
    /// Parameter grid and measurement knobs of a static scenario (`None` for dynamic
    /// scenarios; optional for degree distributions).
    pub sweep: Option<SweepSpec>,
    /// What the scenario measures (search sweep or degree distribution).
    pub measure: MeasureSpec,
    /// Master seed; every realization/thread stream is derived from it.
    pub seed: u64,
    /// Independent realizations averaged per data point (static) or independent runs
    /// (dynamic).
    pub realizations: usize,
    /// Overrides the single curve's label — and therefore its RNG stream-family salt —
    /// in place of [`TopologySpec::label`]. Only valid for static scenarios that expand
    /// to exactly one inline curve (no sweep axes, not a snapshot topology, whose
    /// provenance label already pins the streams). This is what lets the `P(k)` figure
    /// harness express its historically-labelled curves as degree specs without moving
    /// a single stream.
    pub curve_label: Option<String>,
}

impl ScenarioSpec {
    /// Builds a static sweep scenario.
    pub fn sweep(
        name: impl Into<String>,
        topology: TopologySpec,
        search: SearchSpec,
        sweep: SweepSpec,
        seed: u64,
        realizations: usize,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology: Some(topology),
            search: Some(search),
            dynamics: DynamicsSpec::Static,
            sweep: Some(sweep),
            measure: MeasureSpec::SearchSweep,
            seed,
            realizations,
            curve_label: None,
        }
    }

    /// Builds a degree-distribution scenario: `P(k)` of the base topology (expanded over
    /// the optional sweep axes), log-binned with `bins_per_decade` bins per decade.
    pub fn degree_distribution(
        name: impl Into<String>,
        topology: TopologySpec,
        sweep: Option<SweepSpec>,
        bins_per_decade: usize,
        seed: u64,
        realizations: usize,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology: Some(topology),
            search: None,
            dynamics: DynamicsSpec::Static,
            sweep,
            measure: MeasureSpec::DegreeDistribution { bins_per_decade },
            seed,
            realizations,
            curve_label: None,
        }
    }

    /// Builds a rate-driven churn scenario.
    pub fn churn(
        name: impl Into<String>,
        sim: SimulationConfig,
        seed: u64,
        realizations: usize,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology: None,
            search: None,
            dynamics: DynamicsSpec::Churn { sim },
            sweep: None,
            measure: MeasureSpec::SearchSweep,
            seed,
            realizations,
            curve_label: None,
        }
    }

    /// Builds a trace-replay scenario.
    pub fn trace(
        name: impl Into<String>,
        trace: ChurnTraceConfig,
        run: TraceRunConfig,
        seed: u64,
        realizations: usize,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology: None,
            search: None,
            dynamics: DynamicsSpec::Trace { trace, run },
            sweep: None,
            measure: MeasureSpec::SearchSweep,
            seed,
            realizations,
            curve_label: None,
        }
    }

    /// Builds a live-overlay growth scenario: the protocol grows the topology, the
    /// emergent overlay is frozen and written to `snapshot`.
    pub fn live(
        name: impl Into<String>,
        live: LiveConfig,
        snapshot: impl Into<String>,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology: None,
            search: None,
            dynamics: DynamicsSpec::Live {
                live,
                snapshot: snapshot.into(),
            },
            sweep: None,
            measure: MeasureSpec::SearchSweep,
            seed,
            realizations: 1,
            curve_label: None,
        }
    }

    /// Expands the sweep grid into the concrete topology of every curve, in grid order
    /// (stub axis outer, cutoff axis inner). A missing sweep section keeps the base
    /// topology alone; dynamic scenarios (no topology) expand to nothing.
    pub fn expanded_topologies(&self) -> Vec<TopologySpec> {
        let Some(base) = &self.topology else {
            return Vec::new();
        };
        let Some(sweep) = &self.sweep else {
            return vec![base.clone()];
        };
        let stubs = if sweep.stubs.is_empty() {
            vec![base.m()]
        } else {
            sweep.stubs.clone()
        };
        let cutoffs = if sweep.cutoffs.is_empty() {
            vec![base.cutoff()]
        } else {
            sweep.cutoffs.clone()
        };
        let mut expanded = Vec::with_capacity(stubs.len() * cutoffs.len());
        for &m in &stubs {
            for &cutoff in &cutoffs {
                expanded.push(base.with_m(m).with_cutoff(cutoff));
            }
        }
        expanded
    }

    /// Validates the whole scenario: field consistency, the topology grid, the search
    /// configuration, and the dynamics configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSpec`], [`ScenarioError::Topology`], or
    /// [`ScenarioError::Sim`] naming the offending constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::invalid("scenario name must not be empty"));
        }
        if self.realizations == 0 {
            return Err(ScenarioError::invalid("realizations must be positive"));
        }
        self.dynamics.validate()?;
        match self.dynamics {
            DynamicsSpec::Static => {
                if self.topology.is_none() {
                    return Err(ScenarioError::invalid(
                        "static scenarios require a \"topology\" section",
                    ));
                }
                match self.measure {
                    MeasureSpec::SearchSweep => {
                        let Some(search) = &self.search else {
                            return Err(ScenarioError::invalid(
                                "static scenarios require a \"search\" section",
                            ));
                        };
                        let Some(sweep) = &self.sweep else {
                            return Err(ScenarioError::invalid(
                                "static scenarios require a \"sweep\" section",
                            ));
                        };
                        if sweep.ttls.is_empty() {
                            return Err(ScenarioError::invalid("sweep: ttls must not be empty"));
                        }
                        if sweep.searches_per_point == 0 {
                            return Err(ScenarioError::invalid(
                                "sweep: searches_per_point must be positive",
                            ));
                        }
                        search.validate()?;
                    }
                    MeasureSpec::DegreeDistribution { bins_per_decade } => {
                        if bins_per_decade == 0 {
                            return Err(ScenarioError::invalid(
                                "measure: bins_per_decade must be positive",
                            ));
                        }
                        if self.search.is_some() {
                            return Err(ScenarioError::invalid(
                                "degree-distribution scenarios run no searches; \
                                 \"search\" must be null",
                            ));
                        }
                        if let Some(sweep) = &self.sweep {
                            if !sweep.ttls.is_empty() || sweep.searches_per_point != 0 {
                                return Err(ScenarioError::invalid(
                                    "degree-distribution scenarios use only the \
                                     \"stubs\"/\"cutoffs\" sweep axes; \"ttls\" must be \
                                     empty and \"searches_per_point\" zero",
                                ));
                            }
                        }
                    }
                }
                for topology in self.expanded_topologies() {
                    topology.validate()?;
                }
                if let Some(TopologySpec::Snapshot { path }) = &self.topology {
                    self.validate_snapshot_rules(path)?;
                }
                if let Some(label) = &self.curve_label {
                    if label.is_empty() {
                        return Err(ScenarioError::invalid(
                            "\"curve_label\" must not be empty (omit it to use the \
                             topology's own label)",
                        ));
                    }
                    if matches!(self.topology, Some(TopologySpec::Snapshot { .. })) {
                        return Err(ScenarioError::invalid(
                            "\"curve_label\" cannot override a snapshot topology; the \
                             file's provenance label already names (and salts) its streams",
                        ));
                    }
                    if self.expanded_topologies().len() != 1 {
                        return Err(ScenarioError::invalid(
                            "\"curve_label\" names exactly one curve; drop the \
                             \"stubs\"/\"cutoffs\" sweep axes or the override",
                        ));
                    }
                }
                if let Some(sweep) = &self.sweep {
                    self.validate_workers(sweep)?;
                }
                Ok(())
            }
            DynamicsSpec::Churn { .. } | DynamicsSpec::Trace { .. } | DynamicsSpec::Live { .. } => {
                if self.topology.is_some() || self.search.is_some() || self.sweep.is_some() {
                    return Err(ScenarioError::invalid(
                        "dynamic scenarios configure their overlay and workload inside \
                         \"dynamics\"; \"topology\", \"search\", and \"sweep\" must be null",
                    ));
                }
                if self.measure != MeasureSpec::SearchSweep {
                    return Err(ScenarioError::invalid(
                        "dynamic scenarios support only the search_sweep measure",
                    ));
                }
                if self.curve_label.is_some() {
                    return Err(ScenarioError::invalid(
                        "dynamic scenarios have no curves; \"curve_label\" must be null",
                    ));
                }
                if matches!(self.dynamics, DynamicsSpec::Live { .. }) && self.realizations != 1 {
                    return Err(ScenarioError::invalid(
                        "live scenarios grow exactly one overlay per snapshot file; \
                         \"realizations\" must be 1",
                    ));
                }
                Ok(())
            }
        }
    }

    /// The extra constraints of a scenario that splits its sweep across remote workers.
    ///
    /// Workers serve one frozen realization loaded from a snapshot file, so a
    /// distributed sweep must name that file as its topology (anything generated inline
    /// would exist only in the dispatching process; the identity-hash handshake makes
    /// the mismatch impossible rather than silent). The snapshot rules then already pin
    /// the scenario to one curve, one realization, and `batch: true` — the per-job
    /// stream discipline that makes the split invisible in the results.
    fn validate_workers(&self, sweep: &SweepSpec) -> Result<(), ScenarioError> {
        if sweep.workers.is_empty() {
            if sweep.placed {
                return Err(ScenarioError::invalid(
                    "sweep: \"placed\" splits the topology across the \"workers\" \
                     list; name at least one worker address",
                ));
            }
            return Ok(());
        }
        if sweep.workers.iter().any(|w| w.is_empty()) {
            return Err(ScenarioError::invalid(
                "sweep: worker addresses must not be empty strings",
            ));
        }
        if self.measure != MeasureSpec::SearchSweep {
            return Err(ScenarioError::invalid(
                "sweep: \"workers\" applies only to search sweeps; degree \
                 distributions read the snapshot locally",
            ));
        }
        if !matches!(self.topology, Some(TopologySpec::Snapshot { .. })) {
            return Err(ScenarioError::invalid(
                "sweep: \"workers\" requires a snapshot topology — remote workers \
                 serve a persisted realization (`sfo snapshot build`, then point \
                 \"topology\" at the .sfos file and `sfo serve` it on every worker)",
            ));
        }
        Ok(())
    }

    /// The extra constraints of a scenario whose topology is a pre-built snapshot file.
    ///
    /// A snapshot holds exactly one frozen realization of one curve, so the scenario
    /// must be single-curve (no sweep axes) and single-realization; its seed must match
    /// the seed the file was built with (anything else would silently measure a
    /// different experiment than the spec claims); and a search sweep must route
    /// through the engine batch scheduler, because per-job RNG streams are the only
    /// sweep discipline that can continue identically across the build/run split.
    fn validate_snapshot_rules(&self, path: &str) -> Result<(), ScenarioError> {
        // TopologySpec::validate has already rejected provenance-less files, but this
        // is a fresh read of an external file — never assume it still agrees.
        let (_, provenance) = sfo_graph::snapshot::read_meta(path)?;
        let Some(provenance) = provenance else {
            return Err(ScenarioError::invalid(format!(
                "topology snapshot: {path} has no provenance record; scenario runs \
                 need one — build the file with `sfo snapshot build`",
            )));
        };
        if self.realizations != 1 {
            return Err(ScenarioError::invalid(
                "snapshot scenarios hold one frozen realization; \"realizations\" must be 1",
            ));
        }
        if self.seed != provenance.seed {
            return Err(ScenarioError::invalid(format!(
                "scenario seed {} does not match the seed {} the snapshot was built \
                 with; the file continues that seed's RNG streams",
                self.seed, provenance.seed
            )));
        }
        if let Some(sweep) = &self.sweep {
            if !sweep.stubs.is_empty() || !sweep.cutoffs.is_empty() {
                return Err(ScenarioError::invalid(
                    "snapshot topologies cannot be regenerated along \"stubs\"/\"cutoffs\" \
                     sweep axes; both must be empty",
                ));
            }
            if self.measure == MeasureSpec::SearchSweep && !sweep.batch {
                return Err(ScenarioError::invalid(
                    "snapshot search sweeps require \"batch\": true — the engine's \
                     per-job RNG streams are what make results byte-identical to the \
                     inline generator",
                ));
            }
        }
        Ok(())
    }

    /// Serializes the spec to its canonical JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a spec from JSON text (tolerating `//` line comments).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for malformed JSON,
    /// [`ScenarioError::NestingTooDeep`] for JSON nested past the parser's limit, and
    /// [`ScenarioError::InvalidSpec`] for well-formed JSON with wrong fields.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        ScenarioSpec::from_json(&JsonValue::parse(text)?)
    }
}

// ---------------------------------------------------------------------------------------
// JSON tables.

json_enum!(TopologySpec, "topology", "family", {
    Pa = "pa" { nodes, m, cutoff = None },
    Hapa = "hapa" { nodes, m, cutoff = None },
    Cm = "cm" { nodes, gamma, m, cutoff = None },
    Ucm = "ucm" { nodes, gamma, m, cutoff = None },
    DapaGrn = "dapa_grn" { nodes, m, tau_sub, cutoff = None },
    DapaMesh = "dapa_mesh" { nodes, m, tau_sub, cutoff = None },
    Snapshot = "snapshot" { path },
});

json_enum!(SearchSpec, "search", "algorithm", {
    Flooding = "flooding" {},
    NormalizedFlooding = "normalized_flooding" { k_min = None },
    ProbabilisticFlooding = "probabilistic_flooding" { p },
    ExpandingRing = "expanding_ring" { initial_ttl, increment },
    RandomWalk = "random_walk" {},
    MultipleRandomWalk = "multiple_random_walk" { walkers },
    DegreeBiasedWalk = "degree_biased_walk" {},
    RwNormalizedToNf = "rw_normalized_to_nf" { k_min = None },
});

json_enum!(DynamicsSpec, "dynamics", "kind", {
    Static = "static" {},
    Churn = "churn" { sim },
    Trace = "trace" { trace, run },
    Live = "live" { live, snapshot },
});

// Every member may be omitted: pre-engine spec files carry no `shard_count` or `batch`,
// pre-`sfo-net` ones no `workers`, pre-placement ones no `placed`, and degree
// distributions leave the measurement knobs empty (search sweeps enforce them at
// validation time).
json_record!(SweepSpec, "sweep", {
    stubs = Vec::new(),
    cutoffs = Vec::new(),
    ttls = Vec::new(),
    searches_per_point | null = 0,
    threads | null = 0,
    shard_count | null = 0,
    batch = false,
    workers = Vec::new(),
    placed = false,
});

json_enum!(MeasureSpec, "measure", "kind", {
    SearchSweep = "search_sweep" {},
    DegreeDistribution = "degree_distribution" { bins_per_decade },
});

// Pre-engine spec files have no `measure`: the search sweep.
json_record!(ScenarioSpec, "scenario", {
    name,
    topology = None,
    search = None,
    dynamics,
    sweep = None,
    measure | null = MeasureSpec::SearchSweep,
    seed,
    realizations,
    curve_label = None,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topologies(nodes: usize) -> Vec<TopologySpec> {
        vec![
            TopologySpec::Pa {
                nodes,
                m: 2,
                cutoff: Some(10),
            },
            TopologySpec::Hapa {
                nodes,
                m: 2,
                cutoff: None,
            },
            TopologySpec::Cm {
                nodes,
                gamma: 2.2,
                m: 2,
                cutoff: Some(20),
            },
            TopologySpec::Ucm {
                nodes,
                gamma: 2.6,
                m: 1,
                cutoff: None,
            },
            TopologySpec::DapaGrn {
                nodes,
                m: 2,
                tau_sub: 4,
                cutoff: Some(15),
            },
            TopologySpec::DapaMesh {
                nodes,
                m: 2,
                tau_sub: 6,
                cutoff: None,
            },
        ]
    }

    #[test]
    fn every_family_round_trips_through_json() {
        for spec in all_topologies(200) {
            let text = spec.to_json().to_pretty_string();
            let back = TopologySpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn every_family_builds_and_generates() {
        use rand::SeedableRng;
        for spec in all_topologies(120) {
            spec.validate().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            let generator = spec.build().unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let graph = generator
                .generate(&mut rng)
                .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(graph.node_count(), 120, "{spec:?}");
            if let Some(k_c) = spec.cutoff() {
                assert!(graph.max_degree().unwrap() <= k_c, "{spec:?}");
            }
        }
    }

    #[test]
    fn labels_match_the_legacy_legend_strings() {
        assert_eq!(
            TopologySpec::Pa {
                nodes: 10,
                m: 2,
                cutoff: Some(10)
            }
            .label(),
            "PA, m=2, k_c=10"
        );
        assert_eq!(
            TopologySpec::Cm {
                nodes: 10,
                gamma: 2.2,
                m: 1,
                cutoff: None
            }
            .label(),
            "CM gamma=2.2, m=1, no k_c"
        );
        assert_eq!(
            TopologySpec::Cm {
                nodes: 10,
                gamma: 3.0,
                m: 3,
                cutoff: Some(40)
            }
            .label(),
            "CM gamma=3, m=3, k_c=40"
        );
        assert_eq!(
            TopologySpec::DapaGrn {
                nodes: 10,
                m: 1,
                tau_sub: 4,
                cutoff: Some(50)
            }
            .label(),
            "DAPA m=1, k_c=50, tau_sub=4"
        );
    }

    #[test]
    fn parameter_variants_get_distinct_labels() {
        // Labels are stream-family salts and curve identities, so configurations that
        // differ in any generator parameter must not collide.
        let cm = |gamma| TopologySpec::Cm {
            nodes: 100,
            gamma,
            m: 2,
            cutoff: None,
        };
        assert_ne!(cm(2.2).label(), cm(2.6).label());
        let ucm = |gamma| TopologySpec::Ucm {
            nodes: 100,
            gamma,
            m: 2,
            cutoff: None,
        };
        assert_ne!(ucm(2.2).label(), ucm(2.6).label());
        assert_ne!(cm(2.2).label(), ucm(2.2).label());
        let dapa = |tau_sub| TopologySpec::DapaGrn {
            nodes: 100,
            m: 2,
            tau_sub,
            cutoff: None,
        };
        assert_ne!(dapa(2).label(), dapa(4).label());
        let mesh = |tau_sub| TopologySpec::DapaMesh {
            nodes: 100,
            m: 2,
            tau_sub,
            cutoff: None,
        };
        assert_ne!(mesh(2).label(), mesh(4).label());
        assert_ne!(dapa(2).label(), mesh(2).label());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        // A typo must fail loudly instead of silently running a different experiment.
        let misspelled_cutoff =
            JsonValue::parse(r#"{"family": "pa", "nodes": 100, "m": 2, "cutof": 10}"#).unwrap();
        let err = TopologySpec::from_json(&misspelled_cutoff).unwrap_err();
        assert!(err.to_string().contains("cutof"), "{err}");

        let misspelled_k_min =
            JsonValue::parse(r#"{"algorithm": "normalized_flooding", "kmin": 5}"#).unwrap();
        assert!(matches!(
            SearchSpec::from_json(&misspelled_k_min),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        // Fields of another variant are also rejected.
        let wrong_variant_field =
            JsonValue::parse(r#"{"family": "pa", "nodes": 100, "m": 2, "gamma": 2.2}"#).unwrap();
        assert!(TopologySpec::from_json(&wrong_variant_field).is_err());

        let misspelled_sweep_threads =
            JsonValue::parse(r#"{"ttls": [1, 2], "searches_per_point": 5, "thread": 4}"#).unwrap();
        assert!(matches!(
            SweepSpec::from_json(&misspelled_sweep_threads),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn invalid_topologies_yield_typed_errors() {
        let zero_nodes = TopologySpec::Pa {
            nodes: 0,
            m: 2,
            cutoff: None,
        };
        assert!(matches!(
            zero_nodes.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));
        let cutoff_below_m = TopologySpec::Pa {
            nodes: 100,
            m: 3,
            cutoff: Some(2),
        };
        assert!(matches!(
            cutoff_below_m.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));
        let zero_m = TopologySpec::Pa {
            nodes: 100,
            m: 0,
            cutoff: None,
        };
        assert!(matches!(zero_m.validate(), Err(ScenarioError::Topology(_))));
    }

    #[test]
    fn search_specs_round_trip_and_validate() {
        let specs = [
            SearchSpec::Flooding,
            SearchSpec::NormalizedFlooding { k_min: None },
            SearchSpec::NormalizedFlooding { k_min: Some(3) },
            SearchSpec::ProbabilisticFlooding { p: 0.5 },
            SearchSpec::ExpandingRing {
                initial_ttl: 1,
                increment: 2,
            },
            SearchSpec::RandomWalk,
            SearchSpec::MultipleRandomWalk { walkers: 4 },
            SearchSpec::DegreeBiasedWalk,
            SearchSpec::RwNormalizedToNf { k_min: None },
        ];
        for spec in specs {
            spec.validate().unwrap();
            let text = spec.to_json().to_pretty_string();
            let back = SearchSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{text}");
            let _ = spec.build(2).unwrap();
        }
        assert!(SearchSpec::NormalizedFlooding { k_min: Some(0) }
            .validate()
            .is_err());
        assert!(SearchSpec::ProbabilisticFlooding { p: 1.5 }
            .validate()
            .is_err());
        assert!(SearchSpec::MultipleRandomWalk { walkers: 0 }
            .validate()
            .is_err());
    }

    #[test]
    fn sweep_expansion_follows_grid_order() {
        let spec = ScenarioSpec::sweep(
            "grid",
            TopologySpec::Pa {
                nodes: 100,
                m: 1,
                cutoff: None,
            },
            SearchSpec::Flooding,
            SweepSpec::grid(vec![1, 2], vec![Some(10), None], vec![1, 2], 5),
            7,
            1,
        );
        let labels: Vec<String> = spec
            .expanded_topologies()
            .iter()
            .map(TopologySpec::label)
            .collect();
        assert_eq!(
            labels,
            vec![
                "PA, m=1, k_c=10",
                "PA, m=1, no k_c",
                "PA, m=2, k_c=10",
                "PA, m=2, no k_c",
            ]
        );
    }

    #[test]
    fn empty_sweep_axes_keep_the_base_configuration() {
        let spec = ScenarioSpec::sweep(
            "single",
            TopologySpec::Hapa {
                nodes: 100,
                m: 3,
                cutoff: Some(12),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![4], 5),
            7,
            1,
        );
        let expanded = spec.expanded_topologies();
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].m(), 3);
        assert_eq!(expanded[0].cutoff(), Some(12));
    }

    #[test]
    fn scenario_validation_enforces_the_static_dynamic_split() {
        let mut churn = ScenarioSpec::churn("churn", SimulationConfig::small(), 1, 1);
        churn.validate().unwrap();
        churn.topology = Some(TopologySpec::Pa {
            nodes: 100,
            m: 2,
            cutoff: None,
        });
        assert!(matches!(
            churn.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        let mut incomplete = ScenarioSpec::sweep(
            "static",
            TopologySpec::Pa {
                nodes: 100,
                m: 2,
                cutoff: None,
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![2], 5),
            1,
            1,
        );
        incomplete.sweep = None;
        assert!(matches!(
            incomplete.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn invalid_dynamic_specs_yield_typed_errors() {
        use sfo_sim::catalog::ItemId;
        use sfo_sim::Workload;

        let mut sim = SimulationConfig::small();
        sim.initial_peers = 0;
        let spec = ScenarioSpec::churn("bad-churn", sim, 1, 1);
        assert!(matches!(spec.validate(), Err(ScenarioError::Sim(_))));

        let trace_cfg = ChurnTraceConfig {
            duration: 100,
            arrival_rate: 0.5,
            sessions: sfo_sim::SessionModel::Exponential { mean: 40.0 },
            crash_fraction: 0.2,
        };
        let mut run = TraceRunConfig::small();
        run.workload = Workload::FlashCrowd {
            hot_item: ItemId::new(0),
            start: 0,
            end: 50,
            intensity: 1.5, // out of [0, 1]
        };
        let spec = ScenarioSpec::trace("bad-trace", trace_cfg, run, 1, 1);
        assert!(matches!(spec.validate(), Err(ScenarioError::Sim(_))));
    }

    #[test]
    fn scenario_specs_round_trip_through_json_text() {
        let static_spec = ScenarioSpec::sweep(
            "fig6-pa",
            TopologySpec::Pa {
                nodes: 1000,
                m: 1,
                cutoff: None,
            },
            SearchSpec::NormalizedFlooding { k_min: None },
            SweepSpec::grid(
                vec![1, 2, 3],
                vec![Some(10), Some(50), None],
                vec![2, 4, 6],
                20,
            ),
            42,
            3,
        );
        let churn_spec = ScenarioSpec::churn("churn", SimulationConfig::small(), 7, 2);
        let trace_spec = ScenarioSpec::trace(
            "trace",
            ChurnTraceConfig {
                duration: 300,
                arrival_rate: 0.4,
                sessions: sfo_sim::SessionModel::Pareto {
                    shape: 1.6,
                    minimum: 30.0,
                },
                crash_fraction: 0.25,
            },
            TraceRunConfig::small(),
            9,
            1,
        );
        let mut batched_spec = ScenarioSpec::sweep(
            "batched",
            TopologySpec::Pa {
                nodes: 500,
                m: 2,
                cutoff: Some(20),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1, 2], 10).with_engine(4),
            3,
            2,
        );
        batched_spec.sweep.as_mut().unwrap().threads = 2;
        let degree_spec = ScenarioSpec::degree_distribution(
            "degrees",
            TopologySpec::Hapa {
                nodes: 400,
                m: 1,
                cutoff: Some(15),
            },
            Some(SweepSpec::axes(vec![1, 2], vec![Some(10), None])),
            8,
            11,
            2,
        );
        for spec in [
            static_spec,
            churn_spec,
            trace_spec,
            batched_spec,
            degree_spec,
        ] {
            let text = spec.to_json_string();
            let back = ScenarioSpec::parse(&text).unwrap();
            assert_eq!(back, spec, "{text}");
            // Serialization is deterministic.
            assert_eq!(back.to_json_string(), text);
        }
    }

    #[test]
    fn engine_knobs_default_off_and_old_spec_files_still_parse() {
        // A pre-engine spec file: no shard_count/batch in the sweep, no measure section.
        let text = r#"{
            "name": "legacy",
            "topology": {"family": "pa", "nodes": 100, "m": 2, "cutoff": null},
            "search": {"algorithm": "flooding"},
            "dynamics": {"kind": "static"},
            "sweep": {"ttls": [1, 2], "searches_per_point": 5, "threads": 0},
            "seed": 1,
            "realizations": 1
        }"#;
        let spec = ScenarioSpec::parse(text).unwrap();
        spec.validate().unwrap();
        let sweep = spec.sweep.as_ref().unwrap();
        assert_eq!(sweep.shard_count, 0);
        assert!(!sweep.batch);
        assert_eq!(spec.measure, MeasureSpec::SearchSweep);
        // with_engine turns both knobs on.
        let engined = SweepSpec::single(vec![1], 1).with_engine(8);
        assert_eq!(engined.shard_count, 8);
        assert!(engined.batch);
    }

    #[test]
    fn measure_specs_round_trip_and_reject_unknown_kinds() {
        for measure in [
            MeasureSpec::SearchSweep,
            MeasureSpec::DegreeDistribution { bins_per_decade: 8 },
        ] {
            let text = measure.to_json().to_pretty_string();
            let back = MeasureSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, measure, "{text}");
        }
        let bad = JsonValue::parse(r#"{"kind": "entropy"}"#).unwrap();
        assert!(matches!(
            MeasureSpec::from_json(&bad),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn degree_scenario_validation_enforces_its_shape() {
        let topology = TopologySpec::Pa {
            nodes: 100,
            m: 2,
            cutoff: None,
        };
        let good = ScenarioSpec::degree_distribution("deg", topology.clone(), None, 8, 1, 1);
        good.validate().unwrap();

        // A search section is meaningless for a degree measure.
        let mut with_search = good.clone();
        with_search.search = Some(SearchSpec::Flooding);
        assert!(matches!(
            with_search.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        // Sweep measurement knobs must stay empty.
        let mut with_ttls = good.clone();
        with_ttls.sweep = Some(SweepSpec::single(vec![1], 5));
        assert!(matches!(
            with_ttls.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        // Zero bins per decade cannot bin anything.
        let zero_bins = ScenarioSpec::degree_distribution("deg", topology, None, 0, 1, 1);
        assert!(matches!(
            zero_bins.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        // Dynamic scenarios only support the search-sweep measure.
        let mut churn = ScenarioSpec::churn("churn", SimulationConfig::small(), 1, 1);
        churn.measure = MeasureSpec::DegreeDistribution { bins_per_decade: 8 };
        assert!(matches!(
            churn.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }
}
