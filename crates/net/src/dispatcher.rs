//! The dispatcher: splits one job grid across worker processes and merges the results.
//!
//! [`RemoteDispatcher`] is `sfo-net`'s implementation of the scenario layer's
//! [`RemoteSweepExecutor`] seam — the piece [`remote_runner`] installs into a
//! [`ScenarioRunner`] so that a spec with `sweep.workers` set executes against
//! `sfo serve` daemons. The split is mechanical: `W` workers get `W` contiguous,
//! near-equal ranges of the `ttls × searches` grid (the same partition rule as the
//! engine's in-process queues), each worker runs its range with per-job streams keyed
//! by *global* index, and the slices concatenate in index order. Determinism therefore
//! does not depend on the dispatcher at all — any split of the grid yields the same
//! bytes; what the dispatcher adds is the refusal machinery (identity handshake, slice
//! length checks) that turns deployment mistakes into errors instead of wrong data.

use crate::client::WorkerClient;
use crate::message::{BatchRequest, FrontierResult, WHOLE_SNAPSHOT};
use crate::placed::{placed_algorithm, shard_of, shard_payload, sweep_job_state};
use crate::NetError;
use sfo_engine::QueryBatch;
use sfo_graph::snapshot::{self, SnapshotError, SnapshotFile};
use sfo_graph::CsrGraph;
use sfo_obs::{PhaseTimer, Registry};
use sfo_scenario::{
    RemoteSweepExecutor, RemoteSweepRequest, ScenarioError, ScenarioRunner, SearchSpec,
};
use sfo_search::SearchOutcome;
use std::sync::Arc;

/// Splits `total` jobs into `parts` contiguous near-equal ranges (sizes differ by at
/// most one; earlier ranges take the remainder), skipping empty ranges.
fn split_ranges(total: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let base = total / parts;
    let big = total % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < big);
        if len > 0 {
            ranges.push((start, start + len));
        }
        start += len;
    }
    ranges
}

/// Executes [`RemoteSweepRequest`]s against `sfo serve` workers.
#[derive(Debug, Clone, Default)]
pub struct RemoteDispatcher {
    metrics: Option<Arc<Registry>>,
}

impl RemoteDispatcher {
    /// Creates a dispatcher without telemetry.
    pub fn new() -> Self {
        RemoteDispatcher::default()
    }

    /// Creates a dispatcher recording per-worker dispatch latency
    /// (`dispatch.worker_micros`) and slice counts (`dispatch.slices`) into
    /// `registry`. Telemetry observes the dispatch, it never changes the split or the
    /// merged bytes.
    pub fn with_metrics(registry: Arc<Registry>) -> Self {
        RemoteDispatcher {
            metrics: Some(registry),
        }
    }
}

impl RemoteSweepExecutor for RemoteDispatcher {
    fn run_sweep(&self, request: &RemoteSweepRequest) -> Result<Vec<SearchOutcome>, ScenarioError> {
        dispatch_sweep_metered(request, self.metrics.as_deref())
            .map_err(|e| ScenarioError::remote(e.to_string()))
    }
}

/// A [`ScenarioRunner`] with the [`RemoteDispatcher`] installed — behaves exactly like
/// [`ScenarioRunner::new`] for specs without workers, and is what the `sfo` binary uses
/// for every scenario run.
pub fn remote_runner() -> ScenarioRunner {
    ScenarioRunner::new().with_remote(Arc::new(RemoteDispatcher::new()))
}

/// [`remote_runner`] with telemetry installed end to end: the dispatcher's per-worker
/// latency and the runner's phase timings both record into `registry` — the runner
/// behind `--metrics-out` on the CLI. Results are byte-identical to [`remote_runner`].
pub fn remote_runner_with_metrics(registry: Arc<Registry>) -> ScenarioRunner {
    ScenarioRunner::new()
        .with_remote(Arc::new(RemoteDispatcher::with_metrics(Arc::clone(
            &registry,
        ))))
        .with_metrics(registry)
}

/// Connects to `addr` and verifies the worker serves the snapshot `identity` names.
fn connect_verified(addr: &str, identity: u64) -> Result<WorkerClient, NetError> {
    let client = WorkerClient::connect(addr)?;
    let found = client.hello().identity;
    if found != identity {
        return Err(NetError::IdentityMismatch {
            worker: addr.to_string(),
            expected: identity,
            found,
        });
    }
    Ok(client)
}

/// Runs the whole sweep grid of `request` across its workers — one contiguous range
/// each, dispatched concurrently — and returns the outcomes merged in global job order.
///
/// # Errors
///
/// Returns the first failing worker's error (connection, identity mismatch, refusal,
/// or a slice of the wrong length). No partial results are ever returned.
pub fn dispatch_sweep(request: &RemoteSweepRequest) -> Result<Vec<SearchOutcome>, NetError> {
    dispatch_sweep_metered(request, None)
}

/// [`dispatch_sweep`] with optional telemetry (see [`RemoteDispatcher::with_metrics`]).
fn dispatch_sweep_metered(
    request: &RemoteSweepRequest,
    metrics: Option<&Registry>,
) -> Result<Vec<SearchOutcome>, NetError> {
    if request.workers.is_empty() {
        return Err(NetError::protocol("no workers to dispatch to"));
    }
    if request.placed {
        return dispatch_placed(request, metrics);
    }
    let total = request.job_count();
    let ranges = split_ranges(total, request.workers.len());
    let slices = dispatch_slices(
        &request.workers,
        request.identity,
        &ranges,
        metrics,
        |&(start, end)| BatchRequest::SweepRange {
            seed: request.seed,
            start: start as u64,
            end: end as u64,
            searches_per_point: request.searches_per_point as u64,
            ttls: request.ttls.clone(),
            search: request.search.clone(),
        },
    )?;
    Ok(merge(ranges.iter().map(|r| r.1 - r.0), slices))
}

/// Placed execution of one sweep grid: worker `i` holds shard `i` of
/// `workers.len()`, every job is injected at the worker owning its source node, and
/// a traversal needing a foreign row hops between workers as a forwarded frontier.
///
/// The dispatcher reads only what it uses of the snapshot file: its header
/// (`node_count`, the routing modulus) and its trailer identity. Every worker's
/// `Hello` must echo that identity and the header's node and edge counts — the
/// workers verified their own copies at load, so routing runs only on a count a
/// verified source confirms. A worker already announcing a shard index
/// (`sfo serve --shard`) must announce exactly the coordinates this placement
/// assigns it; a whole-snapshot worker is shipped its
/// [`crate::placed::shard_range`] slice, cut from the local file, which is then
/// read and fully verified — once, and only when some worker needs a shipment.
/// The job loop then routes each suspended state to the owner of its cursor until
/// the search completes. Because a frontier carries the exact serial traversal
/// state (RNG words included), the merged outcomes are byte-identical to the serial
/// oracle for any shard count and any interleaving.
fn dispatch_placed(
    request: &RemoteSweepRequest,
    metrics: Option<&Registry>,
) -> Result<Vec<SearchOutcome>, NetError> {
    let setup = PhaseTimer::start();
    let algorithm = placed_algorithm(&request.search, request.m)?;
    let path = &request.snapshot_path;
    let unreadable = |e: SnapshotError| NetError::protocol(format!("cannot read {path}: {e}"));
    let identity = snapshot::read_identity(path).map_err(unreadable)?;
    if identity != request.identity {
        return Err(NetError::protocol(format!(
            "{path} hashes to {identity:#018x}, but the scenario names \
             {:#018x}; the dispatcher must read the same realization it places",
            request.identity
        )));
    }
    let (header, _) = snapshot::read_meta(path).map_err(unreadable)?;
    if header.node_count == 0 {
        return Err(NetError::protocol(format!(
            "{path} holds an empty topology"
        )));
    }
    let node_count = header.node_count as usize;
    let shard_count = request.workers.len();
    let shipped = metrics.map(|registry| registry.counter("placed.shards_shipped"));
    // Read and verified only when a whole-snapshot worker needs its slice shipped.
    let mut csr: Option<CsrGraph> = None;

    // Placement handshake: every worker must end up holding exactly its shard of
    // this snapshot before any frontier moves.
    for (w, addr) in request.workers.iter().enumerate() {
        let mut client = connect_verified(addr, request.identity)?;
        let hello = *client.hello();
        if (hello.node_count, hello.edge_count) != (header.node_count, header.edge_count) {
            return Err(NetError::protocol(format!(
                "worker {addr} serves {} nodes and {} edges, but {path}'s header \
                 declares {} nodes and {} edges",
                hello.node_count, hello.edge_count, header.node_count, header.edge_count
            )));
        }
        let confirmed = if hello.shard_index == WHOLE_SNAPSHOT {
            let csr = match &mut csr {
                Some(csr) => csr,
                slot => slot.insert(SnapshotFile::load(path).map_err(unreadable)?.csr),
            };
            if let Some(shipped) = &shipped {
                shipped.inc();
            }
            client.load_shard(shard_payload(csr, request.identity, shard_count, w))?
        } else {
            hello
        };
        if confirmed.shard_index != w as u32 || confirmed.shard_count as usize != shard_count {
            return Err(NetError::protocol(format!(
                "worker {addr} holds shard {} of {}, but this placement needs it to \
                 hold shard {w} of {shard_count}",
                confirmed.shard_index, confirmed.shard_count
            )));
        }
    }
    if let Some(registry) = metrics {
        setup.observe(&registry.histogram("placed.setup_micros"));
    }

    let total = request.job_count();
    if total == 0 {
        return Ok(Vec::new());
    }
    let searches = request.searches_per_point;
    // Striped across threads (thread t owns jobs ≡ t mod threads); each thread keeps
    // its own connection per shard, opened on first use. The stripe shape is
    // invisible in the results — every job's bytes depend only on its global index.
    let threads = shard_count.min(total).max(1);
    let results: Vec<Result<Vec<(usize, SearchOutcome)>, NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut clients: Vec<Option<WorkerClient>> = Vec::new();
                    clients.resize_with(shard_count, || None);
                    let mut slice = Vec::new();
                    for global in (t..total).step_by(threads) {
                        let ttl = request.ttls[global / searches];
                        let mut state =
                            sweep_job_state(algorithm, request.seed, global, ttl, node_count);
                        let outcome = loop {
                            // Route to the owner of the row the search needs
                            // next; a cursor-less (finished-flood) state can
                            // complete anywhere.
                            let shard = state
                                .cursor()
                                .map_or(0, |c| shard_of(c as usize, node_count, shard_count));
                            let client = match &mut clients[shard] {
                                Some(client) => client,
                                slot => slot.insert(connect_verified(
                                    &request.workers[shard],
                                    request.identity,
                                )?),
                            };
                            let timer = PhaseTimer::start();
                            let reply = client.forward_frontier(request.identity, state)?;
                            if let Some(registry) = metrics {
                                timer.observe(&registry.histogram("placed.hop_micros"));
                                registry.counter("placed.frontiers_sent").inc();
                            }
                            match reply {
                                FrontierResult::Done(outcome) => break outcome,
                                FrontierResult::Continue(next) => state = next,
                            }
                        };
                        slice.push((global, outcome));
                    }
                    Ok(slice)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("placed dispatch thread panicked"))
            .collect()
    });
    let mut merged: Vec<Option<SearchOutcome>> = vec![None; total];
    for slice in results {
        for (global, outcome) in slice? {
            merged[global] = Some(outcome);
        }
    }
    merged
        .into_iter()
        .map(|slot| slot.ok_or_else(|| NetError::protocol("placed dispatch lost a job")))
        .collect()
}

/// Runs an explicit [`QueryBatch`] across workers — one contiguous job slice each —
/// and returns the outcomes merged in job order; the remote counterpart of
/// [`sfo_engine::run_queries`] and the same bytes as
/// [`sfo_engine::run_queries_serial`] on the unsplit batch.
///
/// # Errors
///
/// As [`dispatch_sweep`].
pub fn dispatch_queries(
    workers: &[String],
    identity: u64,
    seed: u64,
    algorithms: &[SearchSpec],
    batch: &QueryBatch,
) -> Result<Vec<SearchOutcome>, NetError> {
    if workers.is_empty() {
        return Err(NetError::protocol("no workers to dispatch to"));
    }
    let ranges = split_ranges(batch.len(), workers.len());
    let slices = dispatch_slices(workers, identity, &ranges, None, |&(start, end)| {
        BatchRequest::Queries {
            seed,
            index_offset: start as u64,
            algorithms: algorithms.to_vec(),
            batch: QueryBatch::from_jobs(batch.jobs()[start..end].to_vec()),
        }
    })?;
    Ok(merge(ranges.iter().map(|r| r.1 - r.0), slices))
}

/// Ships one request per range to one worker per range, concurrently, and collects the
/// slices in range order. With `metrics`, each slice's connect-to-reply wall time is
/// recorded as `dispatch.worker_micros` and counted as `dispatch.slices`.
fn dispatch_slices(
    workers: &[String],
    identity: u64,
    ranges: &[(usize, usize)],
    metrics: Option<&Registry>,
    request_for: impl Fn(&(usize, usize)) -> BatchRequest + Sync,
) -> Result<Vec<Vec<SearchOutcome>>, NetError> {
    // More workers than non-empty ranges leaves the tail of the list idle.
    let assignments: Vec<(&String, &(usize, usize))> = workers.iter().zip(ranges).collect();
    let results: Vec<Result<Vec<SearchOutcome>, NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .iter()
            .map(|(addr, range)| {
                let request = request_for(range);
                scope.spawn(move || {
                    let timer = PhaseTimer::start();
                    let mut client = connect_verified(addr, identity)?;
                    let outcomes = client.submit(&request)?;
                    if let Some(registry) = metrics {
                        timer.observe(&registry.histogram("dispatch.worker_micros"));
                        registry.counter("dispatch.slices").inc();
                    }
                    let expected = range.1 - range.0;
                    if outcomes.len() != expected {
                        return Err(NetError::protocol(format!(
                            "worker {addr} returned {} outcomes for a {expected}-job slice",
                            outcomes.len()
                        )));
                    }
                    Ok(outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatch thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Concatenates per-range slices (already validated to their expected lengths) in
/// range order.
fn merge(
    lengths: impl Iterator<Item = usize>,
    slices: Vec<Vec<SearchOutcome>>,
) -> Vec<SearchOutcome> {
    let mut merged = Vec::with_capacity(lengths.sum());
    for slice in slices {
        merged.extend(slice);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_contiguous_near_equal_and_skip_empties() {
        for (total, parts) in [(30usize, 3usize), (31, 3), (2, 5), (0, 4), (7, 1)] {
            let ranges = split_ranges(total, parts);
            let mut cursor = 0;
            for &(start, end) in &ranges {
                assert_eq!(start, cursor);
                assert!(end > start, "empty ranges must be skipped");
                cursor = end;
            }
            assert_eq!(cursor, total);
            if total >= parts {
                assert_eq!(ranges.len(), parts);
                let sizes: Vec<usize> = ranges.iter().map(|r| r.1 - r.0).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn dispatching_to_nobody_is_an_error() {
        let request = RemoteSweepRequest {
            workers: Vec::new(),
            identity: 1,
            seed: 1,
            ttls: vec![1],
            searches_per_point: 1,
            search: SearchSpec::Flooding,
            m: 1,
            placed: false,
            snapshot_path: String::new(),
        };
        assert!(matches!(
            dispatch_sweep(&request),
            Err(NetError::Protocol { .. })
        ));
    }

    #[test]
    fn unreachable_workers_fail_with_io_errors() {
        let request = RemoteSweepRequest {
            // Port 1 is essentially never listening.
            workers: vec!["127.0.0.1:1".to_string()],
            identity: 1,
            seed: 1,
            ttls: vec![1],
            searches_per_point: 2,
            search: SearchSpec::Flooding,
            m: 1,
            placed: false,
            snapshot_path: String::new(),
        };
        assert!(matches!(dispatch_sweep(&request), Err(NetError::Io { .. })));
    }
}
