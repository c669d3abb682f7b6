//! The one execution engine behind every scenario spec.
//!
//! [`ScenarioRunner::run`] validates a [`ScenarioSpec`] and executes it end to end:
//!
//! * **Static sweeps** expand the spec's grid into labelled curves, fan every
//!   `(curve, realization)` pair across worker threads, generate the topology, freeze it
//!   to a CSR snapshot, and run the TTL sweep on the snapshot (build-once/query-many).
//! * **Churn scenarios** run independent `sfo-sim` simulations, one per realization.
//! * **Trace scenarios** generate one churn trace per realization and replay it.
//!
//! Determinism is absolute and thread-count independent: every task derives its RNG with
//! [`stream_rng`] from `(seed, stream family, realization)`, where a curve's stream
//! family is [`label_salt`] of its label and a dynamic scenario's is `label_salt` of the
//! scenario name. Trace streams use a fixed family, so scenarios sharing a seed and
//! trace configuration replay the *identical* churn no matter how their overlays differ
//! — the controlled comparison the paper's future work asks for.

use crate::remote::{RemoteSweepExecutor, RemoteSweepRequest};
use crate::report::{
    ChurnRealization, DegreeBinPoint, DegreeCurve, LiveRealization, ScenarioReport, ScenarioResult,
    Stat, SweepCurve, SweepPoint, TraceRealization,
};
use crate::spec::{
    BuiltSearch, DynamicsSpec, MeasureSpec, ScenarioSpec, SearchSpec, SweepSpec, TopologySpec,
};
use crate::ScenarioError;
use rand::RngCore;
use sfo_analysis::log_binned_distribution;
use sfo_analysis::Summary;
use sfo_engine::{
    average_per_ttl, batched_rw_normalized_to_nf, batched_ttl_sweep, EngineConfig, ShardedCsr,
    WorkerPool,
};
use sfo_graph::snapshot::{Provenance, SnapshotError, SnapshotFile, SnapshotOrigin};
use sfo_graph::{CsrGraph, GraphView};
use sfo_obs::{PhaseTimer, Registry};
use sfo_search::experiment::{
    label_salt, rw_normalized_to_nf, stream_rng, ttl_sweep, AveragedOutcome,
};
use sfo_sim::simulation::{Simulation, SimulationConfig};
use sfo_sim::{generate_trace, ChurnTraceConfig};
use sfo_sim::{run_trace, TraceRunConfig};
use std::sync::Arc;

/// Stream family of the per-realization churn traces. Deliberately independent of the
/// scenario name, so scenarios with the same seed and trace configuration see identical
/// event sequences even when their overlay policies differ.
const TRACE_STREAM_SALT: u64 = 0x5452_4143_4553_414c; // "TRACESAL"

/// Executes [`ScenarioSpec`]s (see the module docs for the execution model).
///
/// # Example
///
/// ```
/// use sfo_scenario::{ScenarioRunner, ScenarioSpec, SearchSpec, SweepSpec, TopologySpec};
///
/// # fn main() -> Result<(), sfo_scenario::ScenarioError> {
/// let spec = ScenarioSpec::sweep(
///     "doc-example",
///     TopologySpec::Pa { nodes: 300, m: 2, cutoff: Some(10) },
///     SearchSpec::Flooding,
///     SweepSpec::single(vec![1, 2, 4], 5),
///     42,
///     2,
/// );
/// let report = ScenarioRunner::new().run(&spec)?;
/// let curves = report.sweep_curves().unwrap();
/// assert_eq!(curves.len(), 1);
/// assert_eq!(report.spec, spec); // provenance: the report embeds the spec
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct ScenarioRunner {
    /// Executes sweeps whose spec names remote workers; `None` (the default) makes such
    /// specs fail with a pointer at the `sfo` binary, which installs `sfo-net`'s
    /// dispatcher.
    remote: Option<Arc<dyn RemoteSweepExecutor>>,
    /// Memory-map snapshot topologies instead of reading them (`--mmap`). Reports are
    /// byte-identical either way; platforms without the mapping path read as usual.
    mmap: bool,
    /// Telemetry sink (`--metrics-out`): per-phase generate/freeze/sweep timings, the
    /// sharded store's boundary fraction, and — through
    /// [`WorkerPool::with_metrics`] — the engine's job/steal/batch counters. Purely
    /// observational: a metered run's report is byte-identical to an unmetered one
    /// (enforced by `tests/metrics_invariance.rs`).
    metrics: Option<Arc<Registry>>,
}

impl std::fmt::Debug for ScenarioRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRunner")
            .field("remote", &self.remote.is_some())
            .field("mmap", &self.mmap)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl ScenarioRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        ScenarioRunner::default()
    }

    /// Returns a runner that hands specs with a non-empty `sweep.workers` list to the
    /// given executor (`sfo-net`'s `RemoteDispatcher`, or a fake in tests). Specs
    /// without workers are unaffected.
    pub fn with_remote(mut self, executor: Arc<dyn RemoteSweepExecutor>) -> Self {
        self.remote = Some(executor);
        self
    }

    /// Returns a runner that memory-maps snapshot topologies in place of reading them
    /// into owned buffers. The file is checksum-verified once either way and every
    /// report stays byte-identical; on platforms without the mapping path this is a
    /// no-op. Only snapshot-backed scenarios are affected — inline generation never
    /// touches a file.
    pub fn with_mmap(mut self, mmap: bool) -> Self {
        self.mmap = mmap;
        self
    }

    /// Returns a runner that records telemetry into `registry`: the
    /// `scenario.generate_micros` / `scenario.freeze_micros` / `scenario.sweep_micros`
    /// phase histograms (generation includes building the CSR arrays; the freeze phase
    /// is the shard partition, or loading the file on a snapshot sweep), the
    /// per-realization `scenario.boundary_fraction_ppm` of the sharded store, and the
    /// engine pool's own counters (batched sweeps build their [`WorkerPool`] with this
    /// registry). Telemetry never touches an RNG stream and never reorders work, so
    /// every report stays byte-identical to an unmetered run.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Validates and executes a spec, returning the report that embeds it.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of [`ScenarioSpec::validate`], plus
    /// [`ScenarioError::Topology`]/[`ScenarioError::Sim`] when generation or simulation
    /// fails at run time (e.g. an attempt budget exhausted by a tight cutoff).
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
        spec.validate()?;
        let result = match (&spec.dynamics, spec.measure) {
            (DynamicsSpec::Static, MeasureSpec::SearchSweep) => self.run_sweep(spec)?,
            (DynamicsSpec::Static, MeasureSpec::DegreeDistribution { bins_per_decade }) => {
                self.run_degree(spec, bins_per_decade)?
            }
            (DynamicsSpec::Churn { sim }, _) => self.run_churn(spec, sim)?,
            (DynamicsSpec::Trace { trace, run }, _) => self.run_traces(spec, trace, run)?,
            (DynamicsSpec::Live { live, snapshot }, _) => self.run_live(spec, live, snapshot)?,
        };
        Ok(ScenarioReport {
            spec: spec.clone(),
            result,
        })
    }

    /// Builds the batched-sweep engine pool, sharing the runner's metrics registry when
    /// one is installed so engine counters land beside the scenario phase timings.
    fn pool(&self, threads: usize) -> WorkerPool {
        match &self.metrics {
            Some(registry) => {
                WorkerPool::with_metrics(EngineConfig::with_workers(threads), Arc::clone(registry))
            }
            None => WorkerPool::new(EngineConfig::with_workers(threads)),
        }
    }

    fn run_sweep(&self, spec: &ScenarioSpec) -> Result<ScenarioResult, ScenarioError> {
        let sweep = spec.sweep.as_ref().expect("validated static spec");
        let search = spec.search.as_ref().expect("validated static spec");
        if let Some(TopologySpec::Snapshot { path }) = &spec.topology {
            return self.run_snapshot_sweep(path, search, sweep);
        }
        let curves = spec.expanded_topologies();
        let labels = curve_labels(spec, &curves);
        let realizations = spec.realizations;

        let task_count = curves.len() * realizations;
        let outcomes = if sweep.batch {
            // Engine-batched execution: the (curve, realization) tasks run in order, and
            // the parallelism lives *inside* each realization — every TTL sweep becomes
            // one query batch fanned across a persistent worker pool, which is what
            // serves the interactive single-realization case. Per-job RNG streams make
            // the results independent of the worker and shard counts.
            let pool = self.pool(sweep.threads);
            (0..task_count)
                .map(|t| {
                    let c = t / realizations;
                    run_batched_sweep_task(
                        &pool,
                        &curves[c],
                        &labels[c],
                        search,
                        sweep,
                        spec.seed,
                        t % realizations,
                        self.metrics.as_deref(),
                    )
                })
                .collect::<Result<Vec<_>, ScenarioError>>()?
        } else {
            // One task per (curve, realization); tasks are independent and individually
            // seeded, so the fan-out below cannot change any result.
            run_tasks(
                task_count,
                effective_threads(sweep.threads, task_count),
                |t| {
                    let c = t / realizations;
                    let realization = t % realizations;
                    run_sweep_task(
                        &curves[c],
                        &labels[c],
                        search,
                        sweep,
                        spec.seed,
                        realization,
                        self.metrics.as_deref(),
                    )
                },
            )?
        };

        // Fold the per-realization outcomes into per-TTL statistics, in stream order.
        let mut report_curves = Vec::with_capacity(curves.len());
        for (c, _curve) in curves.iter().enumerate() {
            let mut hits: Vec<Summary> = vec![Summary::new(); sweep.ttls.len()];
            let mut messages: Vec<Summary> = vec![Summary::new(); sweep.ttls.len()];
            for r in 0..realizations {
                let points = &outcomes[c * realizations + r];
                debug_assert_eq!(points.len(), sweep.ttls.len());
                for (i, point) in points.iter().enumerate() {
                    hits[i].add(point.mean_hits);
                    messages[i].add(point.mean_messages);
                }
            }
            let points = sweep
                .ttls
                .iter()
                .enumerate()
                .map(|(i, &ttl)| SweepPoint {
                    ttl,
                    hits: Stat::from_summary(&hits[i]),
                    messages: Stat::from_summary(&messages[i]),
                })
                .collect();
            report_curves.push(SweepCurve {
                label: labels[c].clone(),
                points,
            });
        }
        Ok(ScenarioResult::Sweep {
            curves: report_curves,
        })
    }

    /// Executes a degree-distribution scenario: one `(curve, realization)` task per
    /// topology draw, each returning its degree sequence; the per-curve samples are then
    /// concatenated and log-binned — exactly the methodology (and, because curve labels
    /// salt the streams, exactly the streams) of the `P(k)` figure harness.
    fn run_degree(
        &self,
        spec: &ScenarioSpec,
        bins_per_decade: usize,
    ) -> Result<ScenarioResult, ScenarioError> {
        if let Some(TopologySpec::Snapshot { path }) = &spec.topology {
            // The file *is* the realization: its degrees are the degrees the inline
            // generator drew at build time, so the binned curve is byte-identical.
            let (file, provenance) = load_snapshot_with_provenance(path, self.mmap)?;
            let degrees = GraphView::degrees(&file.csr);
            let points = log_binned_distribution(&degrees, bins_per_decade)
                .iter()
                .map(|bin| DegreeBinPoint {
                    k: bin.center,
                    density: bin.density,
                    count: bin.count,
                })
                .collect();
            return Ok(ScenarioResult::DegreeDistribution {
                curves: vec![DegreeCurve {
                    label: provenance.label,
                    points,
                }],
            });
        }
        let curves = spec.expanded_topologies();
        let labels = curve_labels(spec, &curves);
        let realizations = spec.realizations;
        let threads = spec.sweep.as_ref().map_or(0, |s| s.threads);
        let task_count = curves.len() * realizations;
        let samples = run_tasks(task_count, effective_threads(threads, task_count), |t| {
            let c = t / realizations;
            let mut rng = stream_rng(spec.seed, label_salt(&labels[c]), t % realizations);
            let csr = curves[c].build()?.generate_frozen(&mut rng)?;
            Ok(GraphView::degrees(&csr))
        })?;

        let mut report_curves = Vec::with_capacity(curves.len());
        for c in 0..curves.len() {
            let mut degrees = Vec::new();
            for r in 0..realizations {
                degrees.extend_from_slice(&samples[c * realizations + r]);
            }
            let points = log_binned_distribution(&degrees, bins_per_decade)
                .iter()
                .map(|bin| DegreeBinPoint {
                    k: bin.center,
                    density: bin.density,
                    count: bin.count,
                })
                .collect();
            report_curves.push(DegreeCurve {
                label: labels[c].clone(),
                points,
            });
        }
        Ok(ScenarioResult::DegreeDistribution {
            curves: report_curves,
        })
    }

    fn run_churn(
        &self,
        spec: &ScenarioSpec,
        sim: &SimulationConfig,
    ) -> Result<ScenarioResult, ScenarioError> {
        let salt = label_salt(&spec.name);
        let sim = *sim;
        let realizations = run_tasks(
            spec.realizations,
            effective_threads(0, spec.realizations),
            |r| {
                let mut rng = stream_rng(spec.seed, salt, r);
                let report = Simulation::new(sim)?.run(&mut rng)?;
                Ok(ChurnRealization {
                    realization: r,
                    queries_issued: report.queries_issued,
                    queries_successful: report.queries_successful,
                    query_messages: report.query_messages,
                    success_rate: report.success_rate(),
                    mean_query_messages: report.mean_query_messages(),
                    mean_hops_to_find: report.mean_hops_to_find(),
                    joins: report.joins,
                    leaves: report.leaves,
                    crashes: report.crashes,
                    mean_churn_messages: report.mean_churn_messages(),
                    final_peers: report.final_peers,
                    samples: report.samples,
                })
            },
        )?;
        Ok(ScenarioResult::Churn { realizations })
    }

    fn run_traces(
        &self,
        spec: &ScenarioSpec,
        trace_config: &ChurnTraceConfig,
        run_config: &TraceRunConfig,
    ) -> Result<ScenarioResult, ScenarioError> {
        let salt = label_salt(&spec.name);
        let realizations = run_tasks(
            spec.realizations,
            effective_threads(0, spec.realizations),
            |r| {
                let mut trace_rng = stream_rng(spec.seed, TRACE_STREAM_SALT, r);
                let trace = generate_trace(trace_config, &mut trace_rng)?;
                let mut run_rng = stream_rng(spec.seed, salt, r);
                let report = run_trace(run_config, &trace, &mut run_rng)?;
                Ok(TraceRealization {
                    realization: r,
                    arrivals_applied: report.arrivals_applied,
                    leaves_applied: report.leaves_applied,
                    crashes_applied: report.crashes_applied,
                    departures_skipped: report.departures_skipped,
                    queries_issued: report.queries_issued,
                    queries_successful: report.queries_successful,
                    success_rate: report.success_rate(),
                    query_messages: report.query_messages,
                    control_messages: report.control_messages,
                    final_peers: report.final_peers,
                    worst_connectivity: report.worst_connectivity(),
                    samples: report.samples,
                })
            },
        )?;
        Ok(ScenarioResult::Trace { realizations })
    }

    /// Grows one overlay through the live membership protocol and freezes it into a
    /// provenance-tagged snapshot file at the spec's `snapshot` path.
    ///
    /// The written file is a first-class topology snapshot: its provenance records the
    /// live curve label, `m` = `attach_walks`, `cutoff` = `active_cap`, the scenario
    /// seed, and the master stream's post-growth `sweep_seed` — exactly the contract of
    /// `sfo snapshot build` — plus a [`SnapshotOrigin::LiveOverlay`] tag naming the
    /// protocol parameters. Everything downstream (`sfo run` against the snapshot,
    /// `sfo snapshot inspect`/`verify`, distributed serving) consumes it unchanged.
    fn run_live(
        &self,
        spec: &ScenarioSpec,
        live: &sfo_overlay::LiveConfig,
        snapshot: &str,
    ) -> Result<ScenarioResult, ScenarioError> {
        let overlay_metrics = self
            .metrics
            .as_deref()
            .map(sfo_overlay::OverlayMetrics::register);
        let grow_timer = PhaseTimer::start();
        let outcome = sfo_overlay::grow_metered(live, spec.seed, overlay_metrics)?;
        observe_phase(
            self.metrics.as_deref(),
            "scenario.generate_micros",
            grow_timer,
        );
        let params = format!(
            "peers={}, k_c={}, walks={}, ttl={}",
            live.peers,
            live.protocol.active_cap,
            live.protocol.attach_walks,
            live.protocol.forward_ttl
        );
        let mut file = SnapshotFile::plain(outcome.graph.freeze());
        file.provenance = Some(Provenance {
            label: live.label(),
            m: u64::from(live.protocol.attach_walks),
            cutoff: Some(live.protocol.active_cap as u64),
            seed: spec.seed,
            realization: 0,
            sweep_seed: outcome.sweep_seed,
            origin: Some(SnapshotOrigin::LiveOverlay { params }),
        });
        file.save(snapshot)?;
        let realization = LiveRealization {
            realization: 0,
            arrivals: outcome.stats.arrivals,
            leaves: outcome.stats.leaves,
            crashes: outcome.stats.crashes,
            final_peers: outcome.stats.final_peers,
            edges: outcome.stats.edges,
            max_degree: outcome.stats.max_degree,
            messages: usize::try_from(outcome.stats.messages).unwrap_or(usize::MAX),
            snapshot: snapshot.to_string(),
            identity: sfo_graph::snapshot::read_identity(snapshot)?,
        };
        Ok(ScenarioResult::Live {
            realizations: vec![realization],
        })
    }

    /// The whole sweep of a snapshot-backed scenario: load the file, shard its arrays,
    /// and hand the TTL grid to the engine as one query batch seeded with the file's
    /// stored `sweep_seed` — or, when the spec names remote workers, ship contiguous
    /// slices of the same grid to `sfo serve` processes through the installed
    /// [`RemoteSweepExecutor`].
    ///
    /// That seed is the `next_u64()` the generation stream produced right after the
    /// topology was drawn — exactly the batch seed [`run_batched_sweep_task`] derives on
    /// the inline path — and the curve label is the generating spec's label from the
    /// provenance record, so the resulting [`SweepCurve`] is byte-identical to an inline
    /// run of the same scenario (enforced by `tests/snapshot_roundtrip.rs`), and a
    /// remote run is byte-identical to both for any worker count and job split
    /// (enforced by `tests/remote_equivalence.rs`). Validation has already pinned
    /// snapshot sweeps to `batch: true`, one curve, one realization.
    fn run_snapshot_sweep(
        &self,
        path: &str,
        search: &SearchSpec,
        sweep: &SweepSpec,
    ) -> Result<ScenarioResult, ScenarioError> {
        if !sweep.workers.is_empty() {
            return self.run_remote_sweep(path, search, sweep);
        }
        let freeze_timer = PhaseTimer::start();
        let (file, provenance) = load_snapshot_with_provenance(path, self.mmap)?;
        let sharded = Arc::new(ShardedCsr::from_csr_owned(
            file.csr,
            sweep.shard_count.max(1),
        ));
        observe_phase(
            self.metrics.as_deref(),
            "scenario.freeze_micros",
            freeze_timer,
        );
        record_boundary_fraction(self.metrics.as_deref(), || sharded.boundary_fraction());
        let pool = self.pool(sweep.threads);
        let m = usize::try_from(provenance.m).unwrap_or(usize::MAX);
        let sweep_timer = PhaseTimer::start();
        let outcomes = match search.build_for::<ShardedCsr>(m)? {
            BuiltSearch::Algorithm(algorithm) => batched_ttl_sweep(
                &pool,
                &sharded,
                algorithm,
                &sweep.ttls,
                sweep.searches_per_point,
                provenance.sweep_seed,
            ),
            BuiltSearch::RwNormalizedToNf { k_min } => batched_rw_normalized_to_nf(
                &pool,
                &sharded,
                k_min,
                &sweep.ttls,
                sweep.searches_per_point,
                provenance.sweep_seed,
            ),
        };
        observe_phase(
            self.metrics.as_deref(),
            "scenario.sweep_micros",
            sweep_timer,
        );
        Ok(fold_snapshot_sweep(provenance.label, sweep, &outcomes))
    }

    /// The distributed variant of a snapshot sweep: build one [`RemoteSweepRequest`]
    /// describing the whole job grid and hand it to the installed executor, then fold
    /// the merged outcomes exactly like the local path.
    ///
    /// The runner never opens a socket itself — but it *does* read the snapshot's
    /// meta locally, both for the provenance (seed, m, label) and for the identity
    /// hash the dispatcher requires every worker to echo.
    fn run_remote_sweep(
        &self,
        path: &str,
        search: &SearchSpec,
        sweep: &SweepSpec,
    ) -> Result<ScenarioResult, ScenarioError> {
        let Some(executor) = &self.remote else {
            return Err(ScenarioError::remote(
                "this runner has no remote dispatcher installed; run the spec through \
                 the `sfo` binary (which wires up sfo-net) or clear \"workers\"",
            ));
        };
        let (header, provenance) = sfo_graph::snapshot::read_meta(path)?;
        let provenance = provenance.ok_or(SnapshotError::MissingSection {
            section: "provenance",
        })?;
        if header.node_count == 0 {
            return Err(ScenarioError::invalid(format!(
                "topology snapshot: {path} holds an empty topology"
            )));
        }
        let request = RemoteSweepRequest {
            workers: sweep.workers.clone(),
            identity: sfo_graph::snapshot::read_identity(path)?,
            seed: provenance.sweep_seed,
            ttls: sweep.ttls.clone(),
            searches_per_point: sweep.searches_per_point,
            search: search.clone(),
            m: usize::try_from(provenance.m).unwrap_or(usize::MAX),
            placed: sweep.placed,
            snapshot_path: path.to_string(),
        };
        let outcomes = executor.run_sweep(&request)?;
        if outcomes.len() != request.job_count() {
            return Err(ScenarioError::remote(format!(
                "dispatcher returned {} outcomes for a grid of {} jobs",
                outcomes.len(),
                request.job_count()
            )));
        }
        let averaged = average_per_ttl(&sweep.ttls, sweep.searches_per_point, &outcomes);
        Ok(fold_snapshot_sweep(provenance.label, sweep, &averaged))
    }
}

/// Resolves the report/stream label of every expanded curve: the spec's `curve_label`
/// override (validation has pinned it to single-curve scenarios) or each topology's own
/// label.
fn curve_labels(spec: &ScenarioSpec, curves: &[TopologySpec]) -> Vec<String> {
    match &spec.curve_label {
        Some(label) => vec![label.clone()],
        None => curves.iter().map(TopologySpec::label).collect(),
    }
}

/// Loads a snapshot file (mapped or read) and unwraps the provenance record scenario
/// runs require.
fn load_snapshot_with_provenance(
    path: &str,
    mmap: bool,
) -> Result<(SnapshotFile, Provenance), ScenarioError> {
    let mut file = if mmap {
        SnapshotFile::load_mmap(path)?
    } else {
        SnapshotFile::load(path)?
    };
    let provenance = file
        .provenance
        .take()
        .ok_or(SnapshotError::MissingSection {
            section: "provenance",
        })?;
    Ok((file, provenance))
}

/// Folds the averaged per-TTL points of a one-realization snapshot sweep into its
/// single labelled curve — identical folding to the inline path with one realization,
/// shared by the local and remote branches so they cannot drift.
fn fold_snapshot_sweep(
    label: String,
    sweep: &SweepSpec,
    outcomes: &[sfo_search::experiment::AveragedOutcome],
) -> ScenarioResult {
    let points = sweep
        .ttls
        .iter()
        .zip(outcomes)
        .map(|(&ttl, outcome)| {
            let mut hits = Summary::new();
            let mut messages = Summary::new();
            hits.add(outcome.mean_hits);
            messages.add(outcome.mean_messages);
            SweepPoint {
                ttl,
                hits: Stat::from_summary(&hits),
                messages: Stat::from_summary(&messages),
            }
        })
        .collect();
    ScenarioResult::Sweep {
        curves: vec![SweepCurve { label, points }],
    }
}

/// One `(curve, realization)` task of a static sweep: generate in frozen form, sweep.
///
/// This reproduces the stream discipline the figure harness has always used — the
/// per-realization RNG is `stream_rng(seed, label_salt(curve label), realization)`, the
/// topology is drawn first, and the TTL sweep continues on the same stream — so a curve
/// produces bit-identical data whether it runs here or ran in the old bespoke loops.
/// A serial sweep reads the frozen rows in place whatever `shard_count` says, since a
/// shard cut changes no neighbor slice; `shard_count > 1` only adds the cut's boundary
/// fraction to the metrics.
fn run_sweep_task(
    curve: &TopologySpec,
    label: &str,
    search: &SearchSpec,
    sweep: &SweepSpec,
    seed: u64,
    realization: usize,
    metrics: Option<&Registry>,
) -> Result<Vec<AveragedOutcome>, ScenarioError> {
    let mut rng = stream_rng(seed, label_salt(label), realization);
    let generate_timer = PhaseTimer::start();
    let generator = curve.build()?;
    let frozen = generator.generate_frozen(&mut rng)?;
    observe_phase(metrics, "scenario.generate_micros", generate_timer);
    let freeze_timer = PhaseTimer::start();
    observe_phase(metrics, "scenario.freeze_micros", freeze_timer);
    if sweep.shard_count > 1 {
        record_boundary_fraction(metrics, || frozen.boundary_fraction(sweep.shard_count));
    }
    let sweep_timer = PhaseTimer::start();
    let outcomes = match search.build_for::<CsrGraph>(curve.m())? {
        BuiltSearch::Algorithm(algorithm) => ttl_sweep(
            &frozen,
            algorithm.as_ref(),
            &sweep.ttls,
            sweep.searches_per_point,
            &mut rng,
        ),
        BuiltSearch::RwNormalizedToNf { k_min } => rw_normalized_to_nf(
            &frozen,
            k_min,
            &sweep.ttls,
            sweep.searches_per_point,
            &mut rng,
        ),
    };
    observe_phase(metrics, "scenario.sweep_micros", sweep_timer);
    Ok(outcomes)
}

/// One `(curve, realization)` task of an engine-batched sweep: generate on the
/// realization stream, shard the snapshot, then hand the whole TTL grid to the engine as
/// one query batch.
///
/// The batch seed is the next draw of the realization stream, so it inherits the
/// workspace's `stream_rng(seed, label_salt(label), realization)` discipline; inside the
/// batch every job derives its own stream from `(batch seed, job index)`, making the
/// outcome independent of the pool's worker count and the store's shard count.
#[allow(clippy::too_many_arguments)]
fn run_batched_sweep_task(
    pool: &WorkerPool,
    curve: &TopologySpec,
    label: &str,
    search: &SearchSpec,
    sweep: &SweepSpec,
    seed: u64,
    realization: usize,
    metrics: Option<&Registry>,
) -> Result<Vec<AveragedOutcome>, ScenarioError> {
    let mut rng = stream_rng(seed, label_salt(label), realization);
    let generate_timer = PhaseTimer::start();
    let generator = curve.build()?;
    let frozen = generator.generate_frozen(&mut rng)?;
    observe_phase(metrics, "scenario.generate_micros", generate_timer);
    let batch_seed = rng.next_u64();
    let freeze_timer = PhaseTimer::start();
    let sharded = Arc::new(ShardedCsr::from_csr_owned(frozen, sweep.shard_count.max(1)));
    observe_phase(metrics, "scenario.freeze_micros", freeze_timer);
    record_boundary_fraction(metrics, || sharded.boundary_fraction());
    let sweep_timer = PhaseTimer::start();
    let outcomes = match search.build_for::<ShardedCsr>(curve.m())? {
        BuiltSearch::Algorithm(algorithm) => batched_ttl_sweep(
            pool,
            &sharded,
            algorithm,
            &sweep.ttls,
            sweep.searches_per_point,
            batch_seed,
        ),
        BuiltSearch::RwNormalizedToNf { k_min } => batched_rw_normalized_to_nf(
            pool,
            &sharded,
            k_min,
            &sweep.ttls,
            sweep.searches_per_point,
            batch_seed,
        ),
    };
    observe_phase(metrics, "scenario.sweep_micros", sweep_timer);
    Ok(outcomes)
}

/// Records the elapsed time of a finished phase into `metrics` (when installed) under
/// the given histogram name. A pure clock observation: no RNG stream is touched and no
/// work is reordered, per the workspace's telemetry rules.
fn observe_phase(metrics: Option<&Registry>, name: &str, timer: PhaseTimer) {
    if let Some(registry) = metrics {
        timer.observe(&registry.histogram(name));
    }
}

/// Records a shard cut's boundary fraction — the cross-shard share of the edges, a pure
/// function of the frozen topology and the shard count — as parts per million in the
/// `scenario.boundary_fraction_ppm` histogram. The rows are counted only when a
/// registry is installed.
fn record_boundary_fraction(metrics: Option<&Registry>, fraction: impl FnOnce() -> f64) {
    if let Some(registry) = metrics {
        let ppm = (fraction() * 1_000_000.0).round() as u64;
        registry
            .histogram("scenario.boundary_fraction_ppm")
            .record(ppm);
    }
}

/// The engine's worker rule (0 = all cores), clamped to the task count.
fn effective_threads(requested: usize, tasks: usize) -> usize {
    EngineConfig::with_workers(requested)
        .effective_workers()
        .clamp(1, tasks.max(1))
}

/// Runs `count` independent tasks on `threads` workers and returns their results in task
/// order. The first failure cancels the remaining work: every worker checks a shared
/// flag before starting its next task, so a misconfigured curve aborts a large grid in
/// roughly one task-length instead of burning the whole sweep. Among the failures that
/// did run, the lowest-indexed error is returned.
fn run_tasks<T, F>(count: usize, threads: usize, task: F) -> Result<Vec<T>, ScenarioError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ScenarioError> + Sync,
{
    use std::sync::atomic::{AtomicBool, Ordering};

    if threads <= 1 || count <= 1 {
        return (0..count).map(task).collect();
    }
    let mut slots: Vec<Option<Result<T, ScenarioError>>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let failed = AtomicBool::new(false);

    let chunks = std::thread::scope(|scope| {
        let task = &task;
        let failed = &failed;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut results = Vec::new();
                    for t in (w..count).step_by(threads) {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let result = task(t);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        results.push((t, result));
                    }
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scenario worker panicked"))
            .collect::<Vec<_>>()
    });
    for chunk in chunks {
        for (t, result) in chunk {
            slots[t] = Some(result);
        }
    }
    let mut first_error: Option<ScenarioError> = None;
    let mut results = Vec::with_capacity(count);
    for slot in slots {
        match slot {
            Some(Ok(value)) => results.push(value),
            Some(Err(e)) => {
                first_error.get_or_insert(e);
                break;
            }
            // A `None` slot means the task was cancelled after an earlier failure; the
            // error that caused the cancellation sits in a lower or later slot.
            None => continue,
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => {
            assert_eq!(
                results.len(),
                count,
                "every task must have run when none failed"
            );
            Ok(results)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfo_core::DegreeCutoff;
    use sfo_sim::overlay::{JoinStrategy, OverlayConfig};
    use sfo_sim::SessionModel;

    fn pa_spec(threads: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::sweep(
            "runner-test",
            TopologySpec::Pa {
                nodes: 300,
                m: 1,
                cutoff: None,
            },
            SearchSpec::Flooding,
            SweepSpec::grid(vec![1, 2], vec![Some(10), None], vec![1, 2, 4], 6),
            11,
            2,
        );
        spec.sweep.as_mut().unwrap().threads = threads;
        spec
    }

    #[test]
    fn sweep_produces_one_curve_per_grid_point() {
        let report = ScenarioRunner::new().run(&pa_spec(1)).unwrap();
        let curves = report.sweep_curves().unwrap();
        assert_eq!(curves.len(), 4);
        assert_eq!(curves[0].label, "PA, m=1, k_c=10");
        for curve in curves {
            assert_eq!(curve.points.len(), 3);
            for point in &curve.points {
                assert_eq!(point.hits.realizations, 2);
                assert!(point.hits.mean > 0.0);
                assert!(point.messages.mean >= point.hits.mean - 1e-12);
            }
            // Flooding hits do not shrink with TTL.
            assert!(curve.points[2].hits.mean >= curve.points[0].hits.mean);
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let sequential = ScenarioRunner::new().run(&pa_spec(1)).unwrap();
        let parallel = ScenarioRunner::new().run(&pa_spec(4)).unwrap();
        // The thread knob is part of the spec, so compare results, not whole reports.
        assert_eq!(sequential.result, parallel.result);
    }

    #[test]
    fn sharding_the_store_does_not_change_serial_results() {
        // shard_count without batch swaps the backend under the legacy sweep; the
        // sharded store reports identical neighbor slices, so the results must be
        // byte-identical, including for shard counts that do not divide N.
        let reference = ScenarioRunner::new().run(&pa_spec(2)).unwrap();
        for shards in [2usize, 7, 64] {
            let mut spec = pa_spec(2);
            spec.sweep.as_mut().unwrap().shard_count = shards;
            let sharded = ScenarioRunner::new().run(&spec).unwrap();
            assert_eq!(sharded.result, reference.result, "{shards} shards");
        }
    }

    #[test]
    fn batched_results_are_thread_and_shard_independent() {
        let mut base = pa_spec(1);
        base.sweep.as_mut().unwrap().batch = true;
        let reference = ScenarioRunner::new().run(&base).unwrap();
        for (threads, shards) in [(2usize, 1usize), (3, 4), (4, 7), (0, 2)] {
            let mut spec = pa_spec(threads);
            let sweep = spec.sweep.as_mut().unwrap();
            sweep.batch = true;
            sweep.shard_count = shards;
            let report = ScenarioRunner::new().run(&spec).unwrap();
            assert_eq!(
                report.result, reference.result,
                "threads={threads} shards={shards}"
            );
        }
    }

    #[test]
    fn batched_sweeps_produce_sane_curves() {
        let mut spec = pa_spec(3);
        spec.sweep.as_mut().unwrap().batch = true;
        spec.sweep.as_mut().unwrap().shard_count = 4;
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let curves = report.sweep_curves().unwrap();
        assert_eq!(curves.len(), 4);
        for curve in curves {
            assert_eq!(curve.points.len(), 3);
            for point in &curve.points {
                assert_eq!(point.hits.realizations, 2);
                assert!(point.hits.mean > 0.0);
                assert!(point.messages.mean >= point.hits.mean - 1e-12);
            }
            assert!(curve.points[2].hits.mean >= curve.points[0].hits.mean);
        }
        // The batched RW/NF normalization path also runs end to end.
        let mut rw = spec.clone();
        rw.search = Some(SearchSpec::RwNormalizedToNf { k_min: None });
        let rw_report = ScenarioRunner::new().run(&rw).unwrap();
        for curve in rw_report.sweep_curves().unwrap() {
            for point in &curve.points {
                assert!(point.hits.mean <= point.messages.mean + 1e-9);
            }
        }
    }

    #[test]
    fn degree_scenarios_follow_the_figure_stream_discipline() {
        let topology = TopologySpec::Pa {
            nodes: 500,
            m: 2,
            cutoff: Some(12),
        };
        let spec = ScenarioSpec::degree_distribution("deg", topology.clone(), None, 8, 5, 2);
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let curves = report.degree_curves().unwrap();
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].label, topology.label());

        // Reproduce by hand with the workspace stream rule: the runner must use
        // stream_rng(seed, label_salt(label), realization) and concatenate degrees, the
        // exact methodology of the P(k) figure harness.
        let mut samples = Vec::new();
        for r in 0..2 {
            let mut rng = stream_rng(5, label_salt(&topology.label()), r);
            let graph = topology.build().unwrap().generate(&mut rng).unwrap();
            samples.extend(sfo_graph::GraphView::degrees(&graph));
        }
        let expected = log_binned_distribution(&samples, 8);
        assert_eq!(curves[0].points.len(), expected.len());
        for (point, bin) in curves[0].points.iter().zip(&expected) {
            assert_eq!(point.k, bin.center);
            assert_eq!(point.density, bin.density);
            assert_eq!(point.count, bin.count);
        }
        // The hard cutoff bounds the support (one log bin of slack for the bin center).
        assert!(curves[0].points.iter().all(|p| p.k <= 12.0 * 1.4));
        // Sample count: every node of every realization lands in some bin.
        let counted: usize = curves[0].points.iter().map(|p| p.count).sum();
        assert_eq!(counted, 2 * 500);
    }

    #[test]
    fn degree_scenarios_expand_grids_and_rerun_identically() {
        let spec = ScenarioSpec::degree_distribution(
            "deg-grid",
            TopologySpec::Pa {
                nodes: 300,
                m: 1,
                cutoff: None,
            },
            Some(SweepSpec::axes(vec![1, 3], vec![Some(10), None])),
            8,
            9,
            2,
        );
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let curves = report.degree_curves().unwrap();
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "PA, m=1, k_c=10",
                "PA, m=1, no k_c",
                "PA, m=3, k_c=10",
                "PA, m=3, no k_c",
            ]
        );
        // Capped curves stop near the cutoff; uncapped ones reach further.
        let max_k = |label: &str| {
            curves
                .iter()
                .find(|c| c.label == label)
                .unwrap()
                .points
                .last()
                .unwrap()
                .k
        };
        assert!(max_k("PA, m=3, no k_c") > max_k("PA, m=3, k_c=10"));
        // Deterministic rerun, byte-identical JSON.
        let again = ScenarioRunner::new().run(&spec).unwrap();
        assert_eq!(again, report);
        assert_eq!(again.to_json_string(), report.to_json_string());
        // P(k) series conversion carries the realization count.
        let series = report.degree_series();
        assert_eq!(series.len(), 4);
        assert!(series[0].points.iter().all(|p| p.realizations == 2));
    }

    #[test]
    fn rw_normalized_sweep_runs() {
        let mut spec = pa_spec(2);
        spec.search = Some(SearchSpec::RwNormalizedToNf { k_min: None });
        let report = ScenarioRunner::new().run(&spec).unwrap();
        for curve in report.sweep_curves().unwrap() {
            for point in &curve.points {
                assert!(point.hits.mean <= point.messages.mean + 1e-9);
            }
        }
    }

    #[test]
    fn churn_scenarios_report_per_realization_runs() {
        let spec = ScenarioSpec::churn(
            "runner-churn",
            sfo_sim::simulation::SimulationConfig::small(),
            5,
            2,
        );
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let runs = report.churn_realizations().unwrap();
        assert_eq!(runs.len(), 2);
        for (r, run) in runs.iter().enumerate() {
            assert_eq!(run.realization, r);
            assert!(run.queries_issued > 0);
            assert!(run.success_rate > 0.0);
            assert!(!run.samples.is_empty());
        }
        // Different realizations use different streams.
        assert_ne!(runs[0].queries_issued, runs[1].queries_issued);
    }

    #[test]
    fn trace_scenarios_share_churn_across_overlay_policies() {
        let trace_config = ChurnTraceConfig {
            duration: 200,
            arrival_rate: 0.4,
            sessions: SessionModel::Exponential { mean: 60.0 },
            crash_fraction: 0.25,
        };
        let mut tight = TraceRunConfig::small();
        tight.bootstrap_peers = 80;
        tight.overlay = OverlayConfig {
            stubs: 3,
            cutoff: DegreeCutoff::hard(8),
            join_strategy: JoinStrategy::UniformRandom,
            repair_on_leave: true,
        };
        let mut loose = tight.clone();
        loose.overlay.cutoff = DegreeCutoff::Unbounded;

        let runner = ScenarioRunner::new();
        let report_tight = runner
            .run(&ScenarioSpec::trace("tight", trace_config, tight, 3, 2))
            .unwrap();
        let report_loose = runner
            .run(&ScenarioSpec::trace("loose", trace_config, loose, 3, 2))
            .unwrap();
        let tight_runs = report_tight.trace_realizations().unwrap();
        let loose_runs = report_loose.trace_realizations().unwrap();
        for (a, b) in tight_runs.iter().zip(loose_runs) {
            // Identical churn: the same arrivals were applied in both scenarios...
            assert_eq!(a.arrivals_applied, b.arrivals_applied);
            assert!(a.arrivals_applied > 0);
            // ...but the cutoff bounds only the tight overlay's degrees.
            assert!(a.samples.iter().all(|s| s.max_degree <= 8));
        }
        assert!(loose_runs
            .iter()
            .flat_map(|r| &r.samples)
            .any(|s| s.max_degree > 8));
    }

    #[test]
    fn metered_runs_record_phases_without_changing_results() {
        let mut spec = pa_spec(2);
        spec.sweep.as_mut().unwrap().batch = true;
        let plain = ScenarioRunner::new().run(&spec).unwrap();
        let registry = Arc::new(Registry::new());
        let metered = ScenarioRunner::new()
            .with_metrics(Arc::clone(&registry))
            .run(&spec)
            .unwrap();
        // Telemetry is pure observation: identical report, identical JSON bytes.
        assert_eq!(metered, plain);
        assert_eq!(metered.to_json_string(), plain.to_json_string());
        // 4 curves × 2 realizations = 8 tasks, each recording all three phases plus
        // its sharded store's boundary fraction.
        let snapshot = registry.snapshot();
        for phase in [
            "scenario.generate_micros",
            "scenario.freeze_micros",
            "scenario.sweep_micros",
            "scenario.boundary_fraction_ppm",
        ] {
            assert_eq!(snapshot.histogram(phase).unwrap().count, 8, "{phase}");
        }
        // The engine pool shares the registry: one batch per task, many jobs.
        assert_eq!(snapshot.counter("engine.batches"), Some(8));
        assert!(snapshot.counter("engine.jobs").unwrap() > 0);

        // The legacy (non-batch) path records the same phases.
        let legacy = Arc::new(Registry::new());
        let legacy_spec = pa_spec(2);
        let metered_legacy = ScenarioRunner::new()
            .with_metrics(Arc::clone(&legacy))
            .run(&legacy_spec)
            .unwrap();
        assert_eq!(
            metered_legacy,
            ScenarioRunner::new().run(&legacy_spec).unwrap()
        );
        let snapshot = legacy.snapshot();
        assert_eq!(
            snapshot
                .histogram("scenario.generate_micros")
                .unwrap()
                .count,
            8
        );
        assert_eq!(
            snapshot.histogram("scenario.sweep_micros").unwrap().count,
            8
        );
    }

    #[test]
    fn runner_is_deterministic() {
        let spec = pa_spec(3);
        let a = ScenarioRunner::new().run(&spec).unwrap();
        let b = ScenarioRunner::new().run(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn run_tasks_preserves_order_and_cancels_after_a_failure() {
        let ok = run_tasks(8, 3, |t| Ok::<usize, ScenarioError>(t * 2)).unwrap();
        assert_eq!(ok, vec![0, 2, 4, 6, 8, 10, 12, 14]);

        let result: Result<Vec<usize>, ScenarioError> = run_tasks(64, 4, |t| {
            if t == 3 {
                Err(ScenarioError::invalid("boom"))
            } else {
                Ok(t)
            }
        });
        assert!(matches!(result, Err(ScenarioError::InvalidSpec { .. })));
    }

    #[test]
    fn invalid_specs_fail_before_any_work() {
        let mut spec = pa_spec(1);
        spec.realizations = 0;
        assert!(matches!(
            ScenarioRunner::new().run(&spec),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn curve_label_overrides_legend_and_streams() {
        // A spec whose override equals another topology's natural label must reproduce
        // that topology's curve byte for byte: the label *is* the stream family.
        let topology = TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(10),
        };
        let natural = ScenarioSpec::degree_distribution("nat", topology.clone(), None, 8, 5, 2);
        let mut overridden =
            ScenarioSpec::degree_distribution("ovr", topology.clone(), None, 8, 5, 2);
        overridden.curve_label = Some(topology.label());
        let a = ScenarioRunner::new().run(&natural).unwrap();
        let b = ScenarioRunner::new().run(&overridden).unwrap();
        assert_eq!(a.result, b.result);

        // A different override produces a different stream family (and legend).
        let mut renamed = overridden.clone();
        renamed.curve_label = Some("m=2".to_string());
        let c = ScenarioRunner::new().run(&renamed).unwrap();
        assert_eq!(c.degree_curves().unwrap()[0].label, "m=2");
        assert_ne!(c.result, b.result);

        // The override survives a JSON round trip.
        let reparsed = ScenarioSpec::parse(&renamed.to_json_string()).unwrap();
        assert_eq!(reparsed, renamed);
        // And applies to search sweeps identically.
        let mut sweep_spec = pa_spec(1);
        sweep_spec.sweep.as_mut().unwrap().stubs = vec![];
        sweep_spec.sweep.as_mut().unwrap().cutoffs = vec![];
        sweep_spec.curve_label = Some("renamed sweep".to_string());
        let report = ScenarioRunner::new().run(&sweep_spec).unwrap();
        assert_eq!(report.sweep_curves().unwrap()[0].label, "renamed sweep");
    }

    #[test]
    fn curve_label_rejects_grids_and_dynamic_scenarios() {
        let mut grid = pa_spec(1);
        grid.curve_label = Some("one label, four curves".to_string());
        assert!(matches!(
            grid.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));
        let mut churn = ScenarioSpec::churn(
            "churn",
            sfo_sim::simulation::SimulationConfig::small(),
            1,
            1,
        );
        churn.curve_label = Some("nope".to_string());
        assert!(matches!(
            churn.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn live_scenarios_grow_deterministic_provenance_tagged_snapshots() {
        use sfo_overlay::LiveConfig;
        let dir = std::env::temp_dir().join(format!("sfo-runner-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grown.sfos");
        let spec = ScenarioSpec::live(
            "live-test",
            LiveConfig::small(),
            path.display().to_string(),
            11,
        );
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let grown = &report.live_realizations().unwrap()[0];
        assert_eq!(grown.realization, 0);
        assert_eq!(grown.arrivals, LiveConfig::small().peers);
        assert!(grown.edges > 0);
        assert!(grown.max_degree <= LiveConfig::small().protocol.active_cap);
        assert!(grown.identity != 0);
        let first = std::fs::read(&path).unwrap();

        // Reports round-trip through JSON like every other kind.
        let reparsed = ScenarioReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(reparsed, report);

        // The same spec grows a byte-identical file and report.
        let again = ScenarioRunner::new().run(&spec).unwrap();
        assert_eq!(again, report);
        assert_eq!(std::fs::read(&path).unwrap(), first);

        // The provenance names the live curve and carries the protocol parameters.
        let (_, provenance) = sfo_graph::snapshot::read_meta(path.to_str().unwrap()).unwrap();
        let provenance = provenance.unwrap();
        assert_eq!(provenance.label, "live, m=2, k_c=8");
        assert_eq!(provenance.m, 2);
        assert_eq!(provenance.cutoff, Some(8));
        assert_eq!(
            provenance.origin,
            Some(SnapshotOrigin::LiveOverlay {
                params: "peers=48, k_c=8, walks=2, ttl=8".to_string()
            })
        );

        // The grown file is a first-class snapshot: a sweep consumes it unchanged.
        let mut sweep = ScenarioSpec::sweep(
            "live-sweep",
            TopologySpec::Snapshot {
                path: path.display().to_string(),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1, 2], 4),
            11,
            1,
        );
        sweep.sweep.as_mut().unwrap().batch = true;
        let swept = ScenarioRunner::new().run(&sweep).unwrap();
        assert_eq!(swept.sweep_curves().unwrap()[0].label, "live, m=2, k_c=8");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn workers_require_a_snapshot_topology_and_a_dispatcher() {
        // Workers on an inline topology: rejected at validation time.
        let mut spec = pa_spec(1);
        {
            let sweep = spec.sweep.as_mut().unwrap();
            sweep.batch = true;
            sweep.workers = vec!["127.0.0.1:4000".to_string()];
        }
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidSpec { .. })
        ));

        // Workers on a snapshot topology but no installed dispatcher: a Remote error
        // pointing at the binary, raised only at run time.
        let dir = std::env::temp_dir().join(format!("sfo-runner-remote-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workers.sfos");
        let mut build = ScenarioSpec::sweep(
            "remote-test",
            TopologySpec::Pa {
                nodes: 200,
                m: 2,
                cutoff: Some(10),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1, 2], 4),
            9,
            1,
        );
        build.sweep.as_mut().unwrap().batch = true;
        crate::build_snapshot(&build, 0)
            .unwrap()
            .save(&path)
            .unwrap();
        let mut remote = build.clone();
        remote.topology = Some(TopologySpec::Snapshot {
            path: path.display().to_string(),
        });
        remote.sweep.as_mut().unwrap().workers = vec!["127.0.0.1:4000".to_string()];
        remote.validate().unwrap();
        assert!(matches!(
            ScenarioRunner::new().run(&remote),
            Err(ScenarioError::Remote { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn installed_executors_get_the_grid_and_their_outcomes_fold_like_local_runs() {
        use crate::remote::{RemoteSweepExecutor, RemoteSweepRequest};
        use sfo_search::SearchOutcome;

        /// A "remote" worker that runs the whole grid in-process through the engine's
        /// serial oracle — if the runner's remote plumbing is faithful, the report must
        /// equal the genuinely local run.
        struct Inline(std::path::PathBuf);
        impl RemoteSweepExecutor for Inline {
            fn run_sweep(
                &self,
                request: &RemoteSweepRequest,
            ) -> Result<Vec<SearchOutcome>, ScenarioError> {
                let pool = WorkerPool::new(EngineConfig::with_workers(2));
                // The executor sees everything it needs to reconstruct the jobs.
                assert!(request.identity != 0);
                assert_eq!(request.workers, vec!["fake:1".to_string()]);
                let graph = Arc::new(ShardedCsr::from_csr_owned(
                    SnapshotFile::load(&self.0).unwrap().csr,
                    1,
                ));
                match request.search.build_for::<ShardedCsr>(request.m)? {
                    BuiltSearch::Algorithm(algorithm) => Ok(sfo_engine::batched_ttl_sweep_range(
                        &pool,
                        &graph,
                        algorithm,
                        &request.ttls,
                        request.searches_per_point,
                        request.seed,
                        0,
                        request.job_count(),
                    )),
                    BuiltSearch::RwNormalizedToNf { .. } => unreachable!("flooding spec"),
                }
            }
        }

        let mut build = ScenarioSpec::sweep(
            "remote-fold",
            TopologySpec::Pa {
                nodes: 250,
                m: 2,
                cutoff: Some(12),
            },
            SearchSpec::Flooding,
            SweepSpec::single(vec![1, 2, 3], 6),
            17,
            1,
        );
        build.sweep.as_mut().unwrap().batch = true;
        let dir = std::env::temp_dir().join(format!("sfo-runner-fold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inline_executor_test.sfos");
        crate::build_snapshot(&build, 0)
            .unwrap()
            .save(&path)
            .unwrap();
        let mut spec = build.clone();
        spec.topology = Some(TopologySpec::Snapshot {
            path: path.display().to_string(),
        });
        let local = ScenarioRunner::new().run(&spec).unwrap();
        spec.sweep.as_mut().unwrap().workers = vec!["fake:1".to_string()];
        let remote = ScenarioRunner::new()
            .with_remote(Arc::new(Inline(path.clone())))
            .run(&spec)
            .unwrap();
        assert_eq!(remote.result, local.result);
        std::fs::remove_file(&path).unwrap();
    }
}
