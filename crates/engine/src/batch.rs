//! Typed query batches over a shared topology snapshot.
//!
//! A [`QueryBatch`] is a list of `(source, algorithm, ttl)` jobs to execute against one
//! frozen snapshot — the paper's evaluation unit (thousands of independent searches over
//! a fixed realization) as a first-class value. [`run_queries`] fans a batch across a
//! [`WorkerPool`]; every job derives its RNG with the workspace's single
//! [`stream_rng`] rule from `(seed, BATCH_STREAM_LABEL, job index)`, so the outcome
//! vector is byte-identical no matter how many workers run it, which worker stole what,
//! or how many shards the snapshot is split into. In particular the batched path over a
//! [`ShardedCsr`](crate::ShardedCsr) equals a serial loop over the unsharded
//! [`CsrGraph`](sfo_graph::CsrGraph) job for job (enforced by
//! `tests/shard_equivalence.rs`).
//!
//! [`batched_ttl_sweep`] and [`batched_rw_normalized_to_nf`] are the sweep-shaped
//! frontends the scenario runner uses: one job per `(ttl, search)` cell, averaged into
//! the same [`AveragedOutcome`] points as the serial harness in
//! [`sfo_search::experiment`].

use crate::scheduler::{execute_with_scratch, WorkerPool};
use serde::{Deserialize, Serialize};
use sfo_graph::{GraphView, NodeId};
use sfo_search::experiment::{label_salt, stream_rng, AveragedOutcome};
use sfo_search::NormalizedFlooding;
use sfo_search::RandomWalk;
use sfo_search::{SearchAlgorithm, SearchOutcome, SearchScratch};
use std::sync::Arc;

/// The stream-family label of batched query jobs; its [`label_salt`] is the salt of
/// every job RNG, making batch streams a family of the workspace's single derivation
/// rule rather than an ad-hoc scheme.
pub(crate) const BATCH_STREAM_LABEL: &str = "sfo-engine/query-batch";

/// Derives the RNG of job `index` in a batch seeded with `seed`.
///
/// This is the engine's whole determinism story: `stream_rng(seed,
/// label_salt(BATCH_STREAM_LABEL), index)`, a pure function of the job index — never of
/// the worker that ran it.
pub fn job_rng(seed: u64, index: usize) -> rand::rngs::StdRng {
    stream_rng(seed, label_salt(BATCH_STREAM_LABEL), index)
}

/// One search job of a batch: a source, an algorithm (by index into the batch's
/// algorithm table), and a TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryJob {
    /// Source node of the search.
    pub source: NodeId,
    /// Index into the algorithm table passed alongside the batch.
    pub algorithm: usize,
    /// Time-to-live (interpretation is algorithm-specific, as in
    /// [`SearchAlgorithm::search`]).
    pub ttl: u32,
}

/// A batch of independent `(source, algorithm, ttl)` search jobs.
///
/// The batch itself is plain data (it serializes, and is the natural wire unit for
/// shipping work to a remote engine); the algorithms it refers to travel separately as
/// an algorithm table, resolved by index.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryBatch {
    jobs: Vec<QueryJob>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// A batch over the given jobs.
    pub fn from_jobs(jobs: Vec<QueryJob>) -> Self {
        QueryBatch { jobs }
    }

    /// Appends one job.
    pub fn push(&mut self, source: NodeId, algorithm: usize, ttl: u32) {
        self.jobs.push(QueryJob {
            source,
            algorithm,
            ttl,
        });
    }

    /// Returns the jobs in submission order.
    pub fn jobs(&self) -> &[QueryJob] {
        &self.jobs
    }

    /// Returns the number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Returns `true` if the batch holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// A shareable table of search algorithms a batch's jobs index into.
pub type AlgorithmTable<G> = Vec<Box<dyn SearchAlgorithm<G> + Send + Sync>>;

/// Executes a batch across the pool and returns one outcome per job, in job order.
///
/// Job `i` runs `algorithms[jobs[i].algorithm]` from `jobs[i].source` with its own RNG
/// ([`job_rng`]`(seed, i)`), so the result vector is independent of the worker count and
/// byte-identical to a serial loop over the same jobs on any [`GraphView`] backend that
/// reports the same neighbor order (in particular, sharded versus unsharded snapshots).
///
/// # Panics
///
/// Panics on the calling thread, before any job runs, if a job's algorithm index is out
/// of range for the table or a job's source is not a node of the graph.
pub fn run_queries<G>(
    pool: &WorkerPool,
    graph: &Arc<G>,
    algorithms: &Arc<AlgorithmTable<G>>,
    batch: &QueryBatch,
    seed: u64,
) -> Vec<SearchOutcome>
where
    G: GraphView + Send + Sync + 'static,
{
    run_queries_offset(pool, graph, algorithms, batch, seed, 0)
}

/// [`run_queries`] for a batch slice that starts at global job index `index_offset`.
///
/// Job `i` of `batch` runs on the stream of global index `index_offset + i` —
/// [`job_rng`]`(seed, index_offset + i)` — so a batch split into contiguous slices and
/// executed piecewise (on one pool or on several remote workers) concatenates to exactly
/// the outcome vector of the unsplit batch. This is the primitive `sfo-net` workers
/// execute: the dispatcher ships each worker a slice plus its offset, and the merged
/// results are byte-identical to a local run by construction.
///
/// # Panics
///
/// Panics on the calling thread, before any job runs, if a job's algorithm index is out
/// of range for the table or a job's source is not a node of the graph.
pub fn run_queries_offset<G>(
    pool: &WorkerPool,
    graph: &Arc<G>,
    algorithms: &Arc<AlgorithmTable<G>>,
    batch: &QueryBatch,
    seed: u64,
    index_offset: usize,
) -> Vec<SearchOutcome>
where
    G: GraphView + Send + Sync + 'static,
{
    for (i, job) in batch.jobs.iter().enumerate() {
        assert!(
            job.algorithm < algorithms.len(),
            "job {i}: algorithm index {} out of range for a table of {}",
            job.algorithm,
            algorithms.len()
        );
        assert!(
            graph.contains_node(job.source),
            "job {i}: source {} out of bounds for a {}-node graph",
            job.source,
            graph.node_count()
        );
    }
    let graph = Arc::clone(graph);
    let algorithms = Arc::clone(algorithms);
    let jobs: Arc<[QueryJob]> = Arc::from(batch.jobs.as_slice());
    pool.run_with_scratch(jobs.len(), move |i, scratch| {
        let job = jobs[i];
        let mut rng = job_rng(seed, index_offset + i);
        algorithms[job.algorithm].search_with_scratch(
            graph.as_ref(),
            job.source,
            job.ttl,
            &mut rng,
            scratch,
        )
    })
}

/// Serial reference implementation of [`run_queries`]: the same jobs, the same per-job
/// streams, executed one after another on the calling thread.
///
/// This is the oracle the shard-equivalence tests compare the pooled path against; it is
/// also the fastest path for tiny batches.
pub fn run_queries_serial<G>(
    graph: &G,
    algorithms: &AlgorithmTable<G>,
    batch: &QueryBatch,
    seed: u64,
) -> Vec<SearchOutcome>
where
    G: GraphView + ?Sized,
{
    batch
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let mut rng = job_rng(seed, i);
            algorithms[job.algorithm].search(graph, job.source, job.ttl, &mut rng)
        })
        .collect()
}

/// A TTL sweep executed as one batch: for every TTL in `ttls`, `searches` jobs whose
/// sources are drawn per job from the job's own stream (job `t * searches + s` covers
/// search `s` of `ttls[t]`).
///
/// Returns one [`AveragedOutcome`] per TTL, exactly the point shape of the serial
/// [`ttl_sweep`](sfo_search::experiment::ttl_sweep) — but with per-job streams, so the
/// points are independent of the pool's worker count and of the snapshot's shard count.
///
/// # Panics
///
/// Panics if `graph` has no nodes.
pub fn batched_ttl_sweep<G>(
    pool: &WorkerPool,
    graph: &Arc<G>,
    algorithm: Box<dyn SearchAlgorithm<G> + Send + Sync>,
    ttls: &[u32],
    searches: usize,
    seed: u64,
) -> Vec<AveragedOutcome>
where
    G: GraphView + Send + Sync + 'static,
{
    let total = ttls.len() * searches;
    let outcomes = batched_ttl_sweep_range(pool, graph, algorithm, ttls, searches, seed, 0, total);
    average_per_ttl(ttls, searches, &outcomes)
}

/// The raw per-job outcomes of the global job range `start..end` of a batched TTL sweep.
///
/// The full sweep is a grid of `ttls.len() * searches` jobs (job `t * searches + s` is
/// search `s` of `ttls[t]`); this function executes only the contiguous slice
/// `start..end` of that grid, with every job on the stream of its *global* index. Any
/// partition of `0..total` into ranges — across calls, pools, or remote workers —
/// therefore concatenates to the identical outcome vector, which is the invariant the
/// `sfo-net` dispatcher relies on when it splits a sweep across worker processes.
///
/// # Panics
///
/// Panics if `graph` has no nodes or the range is out of bounds for the grid.
#[allow(clippy::too_many_arguments)]
pub fn batched_ttl_sweep_range<G>(
    pool: &WorkerPool,
    graph: &Arc<G>,
    algorithm: Box<dyn SearchAlgorithm<G> + Send + Sync>,
    ttls: &[u32],
    searches: usize,
    seed: u64,
    start: usize,
    end: usize,
) -> Vec<SearchOutcome>
where
    G: GraphView + Send + Sync + 'static,
{
    assert!(graph.node_count() > 0, "cannot search an empty graph");
    assert!(
        start <= end && end <= ttls.len() * searches,
        "job range {start}..{end} out of bounds for a grid of {} jobs",
        ttls.len() * searches
    );
    let node_count = graph.node_count();
    let graph = Arc::clone(graph);
    let algorithm: Arc<dyn SearchAlgorithm<G> + Send + Sync> = Arc::from(algorithm);
    let ttls_owned: Arc<[u32]> = Arc::from(ttls);
    pool.run_with_scratch(end - start, move |i, scratch| {
        let global = start + i;
        let ttl = ttls_owned[global / searches];
        let mut rng = job_rng(seed, global);
        let source = NodeId::new(rand::Rng::gen_range(&mut rng, 0..node_count));
        algorithm.search_with_scratch(graph.as_ref(), source, ttl, &mut rng, scratch)
    })
}

/// The batched counterpart of
/// [`rw_normalized_to_nf`](sfo_search::experiment::rw_normalized_to_nf): each job runs
/// one NF search with fan-out `k_min`, then an RW search from the same source whose hop
/// budget is the NF message count — both on the job's own stream, in the same draw order
/// as the serial harness.
///
/// # Panics
///
/// Panics if `graph` has no nodes.
pub fn batched_rw_normalized_to_nf<G>(
    pool: &WorkerPool,
    graph: &Arc<G>,
    k_min: usize,
    ttls: &[u32],
    searches: usize,
    seed: u64,
) -> Vec<AveragedOutcome>
where
    G: GraphView + Send + Sync + 'static,
{
    let total = ttls.len() * searches;
    let outcomes =
        batched_rw_normalized_to_nf_range(pool, graph, k_min, ttls, searches, seed, 0, total);
    average_per_ttl(ttls, searches, &outcomes)
}

/// The raw per-job outcomes of the global job range `start..end` of a batched
/// NF-normalized random-walk sweep — the [`batched_ttl_sweep_range`] counterpart of
/// [`batched_rw_normalized_to_nf`], with the same split-anywhere concatenation
/// invariant.
///
/// # Panics
///
/// Panics if `graph` has no nodes or the range is out of bounds for the grid.
#[allow(clippy::too_many_arguments)]
pub fn batched_rw_normalized_to_nf_range<G>(
    pool: &WorkerPool,
    graph: &Arc<G>,
    k_min: usize,
    ttls: &[u32],
    searches: usize,
    seed: u64,
    start: usize,
    end: usize,
) -> Vec<SearchOutcome>
where
    G: GraphView + Send + Sync + 'static,
{
    assert!(graph.node_count() > 0, "cannot search an empty graph");
    assert!(
        start <= end && end <= ttls.len() * searches,
        "job range {start}..{end} out of bounds for a grid of {} jobs",
        ttls.len() * searches
    );
    let node_count = graph.node_count();
    let graph = Arc::clone(graph);
    let ttls_owned: Arc<[u32]> = Arc::from(ttls);
    pool.run_with_scratch(end - start, move |i, scratch| {
        let global = start + i;
        let ttl = ttls_owned[global / searches];
        let mut rng = job_rng(seed, global);
        let source = NodeId::new(rand::Rng::gen_range(&mut rng, 0..node_count));
        let nf = NormalizedFlooding::new(k_min);
        let nf_outcome = nf.search_with_scratch(graph.as_ref(), source, ttl, &mut rng, scratch);
        let budget = u32::try_from(nf_outcome.messages).unwrap_or(u32::MAX);
        RandomWalk::new().search_with_scratch(graph.as_ref(), source, budget, &mut rng, scratch)
    })
}

/// Folds per-job outcomes (grouped as `searches` consecutive jobs per TTL) into one
/// averaged point per TTL, through the workspace's single averaging rule.
///
/// Public because it is the one folding every sweep frontend — local, snapshot-backed,
/// or remote-dispatched — must share for their points to be byte-comparable.
///
/// # Panics
///
/// Panics if `outcomes` is not exactly `ttls.len() * searches` entries.
pub fn average_per_ttl(
    ttls: &[u32],
    searches: usize,
    outcomes: &[SearchOutcome],
) -> Vec<AveragedOutcome> {
    assert_eq!(outcomes.len(), ttls.len() * searches);
    ttls.iter()
        .enumerate()
        .map(|(t, &ttl)| {
            AveragedOutcome::from_outcomes(ttl, &outcomes[t * searches..(t + 1) * searches])
        })
        .collect()
}

/// Scoped, borrow-friendly batch execution: runs `jobs` closures with per-job streams on
/// `workers` scoped threads (0 = all cores) and returns the results in job order.
///
/// This is the frontend for callers whose job state cannot be `'static` — the churn
/// simulator's query batches borrow the live overlay. The closure receives
/// `(job index, job rng, worker scratch)`; each scoped worker owns one
/// [`SearchScratch`] arena reused across all jobs it claims. The same determinism
/// contract applies: the arena stays invisible to the RNG draws, so results depend only
/// on the job index, never on the worker count.
pub fn run_batch_scoped_with_scratch<T, F>(workers: usize, jobs: usize, seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut rand::rngs::StdRng, &mut SearchScratch) -> T + Sync,
{
    execute_with_scratch(workers, jobs, |i, scratch| {
        let mut rng = job_rng(seed, i);
        job(i, &mut rng, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::EngineConfig;
    use crate::ShardedCsr;
    use sfo_graph::generators::ring_graph;
    use sfo_search::flooding::Flooding;

    fn pool(workers: usize) -> WorkerPool {
        WorkerPool::new(EngineConfig::with_workers(workers))
    }

    fn table() -> AlgorithmTable<ShardedCsr> {
        vec![Box::new(Flooding::new()), Box::new(RandomWalk::new())]
    }

    fn sharded(shards: usize) -> Arc<ShardedCsr> {
        let g = ring_graph(60, 2).unwrap();
        Arc::new(ShardedCsr::from_graph(&g, shards))
    }

    fn mixed_batch(n: usize) -> QueryBatch {
        let mut batch = QueryBatch::new();
        for i in 0..n {
            batch.push(NodeId::new((i * 7) % 60), i % 2, 2 + (i % 3) as u32);
        }
        batch
    }

    #[test]
    fn batch_builder_round_trips_jobs() {
        let batch = mixed_batch(5);
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
        assert_eq!(batch.jobs()[0].source, NodeId::new(0));
        assert_eq!(QueryBatch::from_jobs(batch.jobs().to_vec()), batch);
        assert!(QueryBatch::new().is_empty());
    }

    #[test]
    fn pooled_results_match_the_serial_reference() {
        let graph = sharded(4);
        let algorithms = Arc::new(table());
        let batch = mixed_batch(40);
        let serial = run_queries_serial(graph.as_ref(), &algorithms, &batch, 9);
        for workers in [1usize, 2, 5] {
            let pooled = run_queries(&pool(workers), &graph, &algorithms, &batch, 9);
            assert_eq!(pooled, serial, "{workers} workers");
        }
    }

    #[test]
    fn results_are_shard_count_independent() {
        let algorithms = Arc::new(table());
        let batch = mixed_batch(30);
        let reference = run_queries(&pool(2), &sharded(1), &algorithms, &batch, 4);
        for shards in [2usize, 4, 7] {
            let got = run_queries(&pool(3), &sharded(shards), &algorithms, &batch, 4);
            assert_eq!(got, reference, "{shards} shards");
        }
    }

    #[test]
    fn batched_sweep_matches_across_worker_counts() {
        let graph = sharded(3);
        let reference = batched_ttl_sweep(
            &pool(1),
            &graph,
            Box::new(Flooding::new()),
            &[1, 2, 4],
            11,
            7,
        );
        assert_eq!(reference.len(), 3);
        assert_eq!(reference[0].searches, 11);
        for workers in [2usize, 4] {
            let got = batched_ttl_sweep(
                &pool(workers),
                &graph,
                Box::new(Flooding::new()),
                &[1, 2, 4],
                11,
                7,
            );
            assert_eq!(got, reference, "{workers} workers");
        }
        // Flooding hits grow with TTL on a ring.
        assert!(reference[2].mean_hits > reference[0].mean_hits);
    }

    #[test]
    fn batched_rw_normalization_respects_the_nf_budget() {
        let graph = sharded(2);
        let points = batched_rw_normalized_to_nf(&pool(2), &graph, 2, &[2, 4], 15, 3);
        assert_eq!(points.len(), 2);
        for (point, ttl) in points.iter().zip([2u32, 4]) {
            assert_eq!(point.ttl, ttl);
            assert_eq!(point.searches, 15);
            // NF with fan-out 2 sends at most 2 + 4 + ... messages; the walk spends at
            // most that budget.
            let budget_upper: f64 = (1..=ttl).map(|t| 2f64.powi(t as i32)).sum();
            assert!(point.mean_messages <= budget_upper + 1e-9);
            assert!(point.mean_hits > 0.0);
        }
        let again = batched_rw_normalized_to_nf(&pool(4), &graph, 2, &[2, 4], 15, 3);
        assert_eq!(again, points);
    }

    #[test]
    fn sweep_ranges_concatenate_to_the_full_sweep() {
        // The distributed-execution invariant: any contiguous partition of the job grid
        // concatenates to the unsplit outcome vector, byte for byte.
        let graph = sharded(3);
        let ttls = [1u32, 2, 4];
        let (searches, seed) = (10usize, 21u64);
        let total = ttls.len() * searches;
        let full = batched_ttl_sweep_range(
            &pool(2),
            &graph,
            Box::new(Flooding::new()),
            &ttls,
            searches,
            seed,
            0,
            total,
        );
        assert_eq!(full.len(), total);
        for cuts in [vec![0, total], vec![0, 7, total], vec![0, 1, 13, 29, total]] {
            let mut merged = Vec::new();
            for pair in cuts.windows(2) {
                merged.extend(batched_ttl_sweep_range(
                    &pool(3),
                    &graph,
                    Box::new(Flooding::new()),
                    &ttls,
                    searches,
                    seed,
                    pair[0],
                    pair[1],
                ));
            }
            assert_eq!(merged, full, "split at {cuts:?}");
        }
        // The averaged frontend is exactly the folded range run.
        let averaged = batched_ttl_sweep(
            &pool(2),
            &graph,
            Box::new(Flooding::new()),
            &ttls,
            searches,
            seed,
        );
        assert_eq!(averaged, average_per_ttl(&ttls, searches, &full));
    }

    #[test]
    fn rw_normalized_ranges_concatenate_to_the_full_sweep() {
        let graph = sharded(2);
        let ttls = [2u32, 3];
        let total = ttls.len() * 8;
        let full = batched_rw_normalized_to_nf_range(&pool(2), &graph, 2, &ttls, 8, 9, 0, total);
        let mut merged = Vec::new();
        for pair in [(0usize, 5usize), (5, 11), (11, total)] {
            merged.extend(batched_rw_normalized_to_nf_range(
                &pool(4),
                &graph,
                2,
                &ttls,
                8,
                9,
                pair.0,
                pair.1,
            ));
        }
        assert_eq!(merged, full);
    }

    #[test]
    fn offset_queries_concatenate_to_the_unsplit_batch() {
        let graph = sharded(2);
        let algorithms = Arc::new(table());
        let batch = mixed_batch(24);
        let serial = run_queries_serial(graph.as_ref(), &algorithms, &batch, 13);
        let split = 10usize;
        let head = QueryBatch::from_jobs(batch.jobs()[..split].to_vec());
        let tail = QueryBatch::from_jobs(batch.jobs()[split..].to_vec());
        let mut merged = run_queries_offset(&pool(2), &graph, &algorithms, &head, 13, 0);
        merged.extend(run_queries_offset(
            &pool(3),
            &graph,
            &algorithms,
            &tail,
            13,
            split,
        ));
        assert_eq!(merged, serial);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sweep_ranges_reject_out_of_bounds_ends() {
        let graph = sharded(1);
        let _ = batched_ttl_sweep_range(
            &pool(1),
            &graph,
            Box::new(Flooding::new()),
            &[1],
            2,
            1,
            0,
            3,
        );
    }

    #[test]
    fn scoped_batches_share_the_stream_rule() {
        let outs = run_batch_scoped_with_scratch(3, 20, 5, |i, rng, _| {
            (i, rand::Rng::gen_range(rng, 0..1000u32))
        });
        for (i, (index, value)) in outs.iter().enumerate() {
            assert_eq!(*index, i);
            let mut rng = job_rng(5, i);
            assert_eq!(*value, rand::Rng::gen_range(&mut rng, 0..1000u32));
        }
    }

    #[test]
    fn job_streams_are_decorrelated() {
        use rand::RngCore;
        let a = job_rng(1, 0).next_u64();
        let b = job_rng(1, 1).next_u64();
        let c = job_rng(2, 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, job_rng(1, 0).next_u64());
        // The salt really is the workspace derivation of the documented label.
        let mut direct = stream_rng(1, label_salt(BATCH_STREAM_LABEL), 0);
        assert_eq!(a, direct.next_u64());
    }

    #[test]
    #[should_panic(expected = "algorithm index")]
    fn out_of_range_algorithm_indices_are_rejected() {
        let graph = sharded(2);
        let algorithms: Arc<AlgorithmTable<ShardedCsr>> = Arc::new(vec![Box::new(Flooding::new())]);
        let batch = QueryBatch::from_jobs(vec![QueryJob {
            source: NodeId::new(0),
            algorithm: 3,
            ttl: 1,
        }]);
        let _ = run_queries(&pool(2), &graph, &algorithms, &batch, 1);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn batched_sweep_rejects_empty_graphs() {
        let empty = Arc::new(ShardedCsr::from_graph(&sfo_graph::Graph::new(), 2));
        let _ = batched_ttl_sweep(&pool(2), &empty, Box::new(Flooding::new()), &[1], 1, 1);
    }
}
