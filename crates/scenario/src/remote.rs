//! The seam between the scenario runner and remote execution.
//!
//! `sfo-scenario` knows *what* a distributed snapshot sweep is — which jobs exist, which
//! streams they run on, and how the outcomes fold into a report — but deliberately not
//! *how* bytes move between processes; that transport lives above it in `sfo-net`. This
//! module is the seam: [`ScenarioRunner`](crate::ScenarioRunner) turns a spec whose
//! [`SweepSpec::workers`](crate::SweepSpec::workers) list is non-empty into one
//! [`RemoteSweepRequest`] and hands it to whatever [`RemoteSweepExecutor`] was installed
//! with [`ScenarioRunner::with_remote`](crate::ScenarioRunner::with_remote) (the `sfo`
//! binary installs `sfo-net`'s dispatcher; tests may install fakes).
//!
//! The contract is exact: the executor must return one [`SearchOutcome`] per job of the
//! sweep grid, in global job-index order, each byte-identical to what
//! `sfo_engine::batched_ttl_sweep_range` produces for that index — which is what a
//! compliant worker runs. The runner then folds them through the same averaging as a
//! local run, so the report cannot reveal whether (or how) the sweep was distributed.

use crate::spec::SearchSpec;
use crate::ScenarioError;
use sfo_search::SearchOutcome;

/// Everything a dispatcher needs to split one snapshot-backed TTL sweep across worker
/// processes and merge the results.
///
/// The job grid is `ttls.len() * searches_per_point` jobs (job `t * searches + s` is
/// search `s` of `ttls[t]`), every job seeded from `(seed, global job index)` by the
/// engine's stream rule — so *any* contiguous partition of the grid across workers
/// merges, in index order, to the local result.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteSweepRequest {
    /// Worker addresses, verbatim from [`SweepSpec::workers`](crate::SweepSpec::workers)
    /// (`host:port` for TCP, `unix:/path` for Unix sockets).
    pub workers: Vec<String>,
    /// Identity hash of the snapshot the scenario names
    /// ([`sfo_graph::snapshot::read_identity`]); every worker must echo the same value
    /// in its `Hello` or the dispatcher refuses to send it work.
    pub identity: u64,
    /// The batch seed: the snapshot provenance's `sweep_seed`.
    pub seed: u64,
    /// The TTL grid of the sweep.
    pub ttls: Vec<u32>,
    /// Searches (random sources) per TTL.
    pub searches_per_point: usize,
    /// The search to run, resolved by each worker against `m`.
    pub search: SearchSpec,
    /// Stub count `m` of the generating topology (resolves `k_min: None` searches).
    pub m: usize,
    /// Placed execution (`sweep.placed`): instead of one whole-snapshot range per
    /// worker, worker `i` holds shard `i` of `workers.len()` and every search hops
    /// between workers as a forwarded frontier — still byte-identical to the local
    /// run.
    pub placed: bool,
    /// The `.sfos` file the sweep runs on, as named by the spec. A placed dispatcher
    /// reads its header and trailer identity, and loads the arrays only to cut a shard
    /// shipment for a worker serving the whole snapshot.
    pub snapshot_path: String,
}

impl RemoteSweepRequest {
    /// Total number of jobs in the sweep grid.
    pub fn job_count(&self) -> usize {
        self.ttls.len() * self.searches_per_point
    }
}

/// Executes [`RemoteSweepRequest`]s — implemented by `sfo-net`'s `RemoteDispatcher`,
/// installed into a runner with
/// [`ScenarioRunner::with_remote`](crate::ScenarioRunner::with_remote).
pub trait RemoteSweepExecutor: Send + Sync {
    /// Runs the whole sweep grid across the request's workers and returns one outcome
    /// per job, in global job-index order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Remote`] when a worker cannot be reached, serves a
    /// snapshot with the wrong identity, or violates the protocol.
    fn run_sweep(&self, request: &RemoteSweepRequest) -> Result<Vec<SearchOutcome>, ScenarioError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_count_is_the_grid_size() {
        let request = RemoteSweepRequest {
            workers: vec!["127.0.0.1:9000".to_string()],
            identity: 7,
            seed: 3,
            ttls: vec![1, 2, 4],
            searches_per_point: 10,
            search: SearchSpec::Flooding,
            m: 2,
            placed: false,
            snapshot_path: "pa.sfos".to_string(),
        };
        assert_eq!(request.job_count(), 30);
    }

    #[test]
    fn trait_is_object_safe() {
        fn assert_object_safe(_: Option<&dyn RemoteSweepExecutor>) {}
        assert_object_safe(None);
    }
}
