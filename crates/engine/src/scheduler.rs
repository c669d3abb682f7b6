//! The batched query scheduler: a persistent worker pool with work stealing.
//!
//! Batches in this workspace are large sets of small, fully independent jobs (one search
//! or lookup each, with its own derived RNG stream), so the scheduler is built around
//! contiguous job ranges: the batch is split into one range per worker, a worker pops
//! jobs from the front of its own range, and a worker that runs dry steals the back half
//! of the fullest remaining range. Ranges live behind plain mutexes — a job costs
//! microseconds to milliseconds, so queue operations are noise — and results are keyed
//! by job index, which makes the output order (and, because every job derives its own
//! RNG from its index, every result) independent of the worker count and of who stole
//! what.
//!
//! Two frontends share the stealing core:
//!
//! * [`WorkerPool`] — a persistent pool: threads are spawned once and reused across
//!   batches, the shape a long-lived query-serving process wants. Jobs must be
//!   `'static` (share state via `Arc`).
//! * [`execute_with_scratch`] — a scoped one-shot run for jobs that borrow local state
//!   (the churn simulator's query batches borrow the live overlay, which cannot be
//!   `Arc`'d away).
//!
//! Both frontends can hand every job a per-thread [`SearchScratch`] arena
//! ([`WorkerPool::run_with_scratch`], [`execute_with_scratch`]):
//! each pool worker owns exactly one arena for its whole lifetime, and a batch small
//! enough to run inline on the calling thread borrows that thread's arena, kept in a
//! thread-local slot between batches. Either way the arena is reused across jobs and
//! batches, so the hot path allocates nothing per query — a one-job request on a
//! 10^6-node graph costs its search, not two N-bit bitsets. The arena is pure workspace
//! memory — it never feeds the job's RNG stream — so outcomes stay byte-identical to
//! the allocate-fresh paths.
//!
//! The persistent pool carries telemetry (an `sfo-obs` [`Registry`], see
//! [`WorkerPool::with_metrics`]): jobs executed, steals, per-worker queue depths, and
//! per-batch wall time. Recording is relaxed atomics at points the scheduler already
//! passes through — it never touches a job's RNG stream and never reorders work, so a
//! metered pool's results are byte-identical to an unmetered one's.

use sfo_obs::{Counter, Histogram, PhaseTimer, Registry};
use sfo_search::SearchScratch;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Configuration of the batched query scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Number of worker threads (0 = all available cores).
    pub workers: usize,
}

impl EngineConfig {
    /// A configuration with an explicit worker count (0 = all available cores).
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers }
    }

    /// Resolves the configured count to a concrete number of workers.
    pub fn effective_workers(&self) -> usize {
        resolve_workers(self.workers)
    }
}

/// Resolves a requested worker count (0 = all available cores) to at least 1.
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

thread_local! {
    /// The arena of the searches this thread runs inline, between batches.
    static THREAD_SCRATCH: Cell<Option<SearchScratch>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's inline-search arena and keeps the arena for the
/// thread's next inline batch, so its buffers grow once to the largest graph the thread
/// serves instead of once per batch. A nested call finds the slot empty and works on a
/// fresh arena; a panicking `f` drops the arena it held.
fn with_thread_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    let mut scratch = THREAD_SCRATCH.take().unwrap_or_default();
    let out = f(&mut scratch);
    THREAD_SCRATCH.set(Some(scratch));
    out
}

// ---------------------------------------------------------------------------------------
// The stealing core, shared by the persistent pool and the scoped executor.

/// Per-worker job ranges over `0..jobs`, contiguous and near-equal.
fn split_ranges(jobs: usize, workers: usize) -> Vec<Mutex<(usize, usize)>> {
    let base = jobs / workers;
    let big = jobs % workers;
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < big);
            let range = (start, start + len);
            start += len;
            Mutex::new(range)
        })
        .collect()
}

/// Claims the next job for worker `me`: the front of its own range, or — once that runs
/// dry — the back half of the fullest other range. Returns `None` when no jobs remain;
/// the flag is true when the job was stolen rather than popped from `me`'s own range.
fn claim(queues: &[Mutex<(usize, usize)>], me: usize) -> Option<(usize, bool)> {
    {
        let mut own = queues[me].lock().expect("queue lock");
        if own.0 < own.1 {
            let job = own.0;
            own.0 += 1;
            return Some((job, false));
        }
    }
    loop {
        // Pick the victim with the most remaining work.
        let mut best: Option<(usize, usize)> = None;
        for (victim, queue) in queues.iter().enumerate() {
            if victim == me {
                continue;
            }
            let queue = queue.lock().expect("queue lock");
            let len = queue.1 - queue.0;
            if len > 0 && best.is_none_or(|(_, l)| len > l) {
                best = Some((victim, len));
            }
        }
        let (victim, _) = best?;
        // Re-lock and take the back half (the range may have shrunk in between).
        let (start, end) = {
            let mut queue = queues[victim].lock().expect("queue lock");
            let len = queue.1 - queue.0;
            if len == 0 {
                continue; // someone drained it first; rescan
            }
            let take = len.div_ceil(2);
            queue.1 -= take;
            (queue.1, queue.1 + take)
        };
        // Run the first stolen job now; the rest refill our own queue.
        if end - start > 1 {
            let mut own = queues[me].lock().expect("queue lock");
            *own = (start + 1, end);
        }
        return Some((start, true));
    }
}

/// Runs `jobs` independent jobs across `workers` scoped threads with work stealing and
/// returns the results in job order, giving each job its worker's [`SearchScratch`] arena.
///
/// The job closure may borrow local state (the threads are scoped); results are
/// independent of the worker count as long as each job is a pure function of its index.
/// With one worker (or at most one job) the jobs run inline on the calling thread.
///
/// Each worker thread owns exactly one arena, reused for every job it claims or steals;
/// the inline single-worker path uses the calling thread's arena, which outlives the
/// call and serves the thread's next inline batch too. The arena is a pure workspace —
/// jobs must not let it influence their RNG draws — so results remain independent of
/// the worker count and byte-identical to a run that allocates fresh scratch per job.
///
/// # Panics
///
/// Propagates panics from the job closure.
pub(crate) fn execute_with_scratch<T, F>(workers: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut SearchScratch) -> T + Sync,
{
    let workers = resolve_workers(workers).min(jobs.max(1));
    if workers <= 1 {
        return with_thread_scratch(|scratch| (0..jobs).map(|i| job(i, scratch)).collect());
    }
    let queues = split_ranges(jobs, workers);
    let mut chunks: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let queues = &queues;
        let job = &job;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = SearchScratch::new();
                    let mut results = Vec::new();
                    while let Some((index, _stolen)) = claim(queues, w) {
                        results.push((index, job(index, &mut scratch)));
                    }
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    for chunk in &mut chunks {
        for (index, value) in chunk.drain(..) {
            debug_assert!(slots[index].is_none(), "job {index} ran twice");
            slots[index] = Some(value);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} was never claimed")))
        .collect()
}

// ---------------------------------------------------------------------------------------
// The persistent pool.

/// Type-erased job runner: executes job `i` with the worker's scratch arena and
/// stores its result.
type BatchRunner = Arc<dyn Fn(usize, &mut SearchScratch) + Send + Sync>;

/// One installed batch, shared with every worker.
#[derive(Clone)]
struct Batch {
    /// Identity of the batch inside the active set (monotonic submission counter).
    id: u64,
    runner: BatchRunner,
    /// The per-worker stealing queues of this batch.
    queues: Arc<Vec<Mutex<(usize, usize)>>>,
    /// Jobs not yet completed; the worker finishing the last one signals `done`.
    pending: Arc<AtomicUsize>,
    /// First panic payload caught from a job; re-thrown by the submitter. Catching the
    /// unwind on the worker keeps `pending` counting down (no deadlocked submitter)
    /// and keeps the worker thread alive for later batches.
    panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>,
}

struct PoolState {
    /// Monotonic batch counter; the next submitted batch takes this id.
    next_id: u64,
    /// Every batch currently submitted and not yet fully drained. Workers scan the set
    /// in submission order, so earlier batches keep priority while later ones fill any
    /// idle workers — concurrent submitters (multiple scenario tasks, multiple network
    /// clients) simply coexist instead of serializing.
    batches: Vec<Batch>,
    shutdown: bool,
}

/// The pool's telemetry, pre-resolved from its [`Registry`] once at construction so
/// the claim path records through plain `Arc`s without any name lookup. Counters and
/// histograms are relaxed atomics: they observe the schedule, they never shape it, and
/// no metric feeds a job's RNG stream — batch results stay byte-identical with
/// telemetry on or off.
struct PoolMetrics {
    /// `engine.jobs`: jobs executed, across all batches (inline ones included).
    jobs: Arc<Counter>,
    /// `engine.steals`: claims served by stealing from another worker's range.
    steals: Arc<Counter>,
    /// `engine.batches`: batches submitted (inline ones included).
    batches: Arc<Counter>,
    /// `engine.queue_depth`: per-worker queue length at batch submission.
    queue_depth: Arc<Histogram>,
    /// `engine.batch_micros`: wall time of each batch, submit to drain.
    batch_micros: Arc<Histogram>,
}

impl PoolMetrics {
    fn register(registry: &Registry) -> Self {
        PoolMetrics {
            jobs: registry.counter("engine.jobs"),
            steals: registry.counter("engine.steals"),
            batches: registry.counter("engine.batches"),
            queue_depth: registry.histogram("engine.queue_depth"),
            batch_micros: registry.histogram("engine.batch_micros"),
        }
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a new batch is installed or the pool shuts down.
    ready: Condvar,
    /// Signalled when the last job of a batch completes.
    done: Condvar,
    /// Pre-resolved telemetry shared with every worker thread.
    metrics: PoolMetrics,
}

/// A persistent pool of worker threads executing query batches with work stealing.
///
/// Threads are spawned once at construction and reused for every batch — the shape a
/// long-lived query-serving process wants, and what makes per-batch latency independent
/// of thread spawn cost. Batches are submitted through [`WorkerPool::run`] (or the
/// typed search frontend in `crate::batch`); any number of threads may submit
/// concurrently — each submission joins the active batch set and workers drain the set
/// in submission order, so a snapshot-serving daemon can fan several clients' batches
/// over one pool — and results come back in job order regardless of which worker ran
/// what.
///
/// # Example
///
/// ```
/// use sfo_engine::{EngineConfig, WorkerPool};
///
/// let pool = WorkerPool::new(EngineConfig::with_workers(4));
/// let squares = pool.run(10, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    registry: Arc<Registry>,
}

impl WorkerPool {
    /// Spawns the pool's worker threads with a private metrics registry.
    pub fn new(config: EngineConfig) -> Self {
        WorkerPool::with_metrics(config, Arc::new(Registry::new()))
    }

    /// Spawns the pool's worker threads, recording telemetry into `registry`.
    ///
    /// The pool registers `engine.jobs`, `engine.steals`, and `engine.batches`
    /// counters plus `engine.queue_depth` and `engine.batch_micros` histograms. A
    /// caller that owns a wider registry (the `sfo serve` daemon, the scenario
    /// runner) passes it here so one [`Registry::snapshot`] covers every layer.
    /// Telemetry is pure observation: it never touches a job's RNG stream and never
    /// reorders work, so results are byte-identical to an unobserved pool.
    pub fn with_metrics(config: EngineConfig, registry: Arc<Registry>) -> Self {
        let workers = config.effective_workers();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                next_id: 0,
                batches: Vec::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            done: Condvar::new(),
            metrics: PoolMetrics::register(&registry),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sfo-engine-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawning engine worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
            registry,
        }
    }

    /// Returns the number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The registry this pool records telemetry into (the one passed to
    /// [`WorkerPool::with_metrics`], or a private one for [`WorkerPool::new`]).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Runs `jobs` independent jobs across the pool and returns the results in job
    /// order.
    ///
    /// The job closure must be `'static` (share state via `Arc`); use `execute_with_scratch` for
    /// jobs that borrow. Batches of at most one job (or on a single-worker pool) run
    /// inline on the calling thread. Results are independent of the worker count as long
    /// as each job is a pure function of its index.
    ///
    /// Submissions from different threads run concurrently: each batch joins the pool's
    /// active set, workers prefer earlier submissions and steal into later ones, and
    /// every submitter wakes when its own batch drains.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any job raised: the unwind is caught on the worker (so
    /// the batch still drains and the pool stays usable for later batches) and resumed
    /// on the calling thread once the batch is done.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        self.run_with_scratch(jobs, move |i, _| job(i))
    }

    /// [`WorkerPool::run`] with a per-worker [`SearchScratch`] arena.
    ///
    /// Every pool thread owns exactly one arena for its whole lifetime and hands it to
    /// each job it runs, across jobs *and* across batches. A batch that runs inline (at
    /// most one job, or a one-worker pool) uses the calling thread's arena instead, kept
    /// between batches the same way: a `sfo serve` connection's one-job requests share
    /// one arena for the life of the connection. So the hot path of a long-lived
    /// query-serving process allocates no per-query scratch on either path. Jobs must
    /// treat the arena as a pure workspace (reset before use, never feeding RNG draws),
    /// which keeps results byte-identical to [`WorkerPool::run`] and to a serial loop.
    ///
    /// # Panics
    ///
    /// Same contract as [`WorkerPool::run`].
    pub fn run_with_scratch<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize, &mut SearchScratch) -> T + Send + Sync + 'static,
    {
        let timer = PhaseTimer::start();
        let metrics = &self.shared.metrics;
        metrics.batches.inc();
        if jobs <= 1 || self.workers <= 1 {
            metrics.queue_depth.record(jobs as u64);
            let out: Vec<T> =
                with_thread_scratch(|scratch| (0..jobs).map(|i| job(i, scratch)).collect());
            metrics.jobs.add(jobs as u64);
            timer.observe(&metrics.batch_micros);
            return out;
        }

        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..jobs).map(|_| Mutex::new(None)).collect());
        let runner = {
            let slots = Arc::clone(&slots);
            Arc::new(move |index: usize, scratch: &mut SearchScratch| {
                let value = job(index, scratch);
                *slots[index].lock().expect("result slot lock") = Some(value);
            })
        };
        let pending = Arc::new(AtomicUsize::new(jobs));
        let panic_slot = Arc::new(Mutex::new(None));

        let queues = Arc::new(split_ranges(jobs, self.workers));
        for queue in queues.iter() {
            let (start, end) = *queue.lock().expect("queue lock");
            metrics.queue_depth.record((end - start) as u64);
        }

        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            let id = state.next_id;
            state.next_id += 1;
            state.batches.push(Batch {
                id,
                runner,
                queues,
                pending: Arc::clone(&pending),
                panic: Arc::clone(&panic_slot),
            });
            self.shared.ready.notify_all();
            while pending.load(Ordering::SeqCst) > 0 {
                state = self.shared.done.wait(state).expect("pool state lock");
            }
            state.batches.retain(|b| b.id != id);
        }
        timer.observe(&metrics.batch_micros);

        let caught = panic_slot.lock().expect("panic slot lock").take();
        if let Some(payload) = caught {
            std::panic::resume_unwind(payload);
        }
        slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.lock()
                    .expect("result slot lock")
                    .take()
                    .unwrap_or_else(|| panic!("job {i} completed without a result"))
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.shutdown = true;
            self.shared.ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    // One scratch arena per worker thread, alive for the thread's whole lifetime and
    // reused across every job of every batch. Jobs reset it before use; it never feeds
    // their RNG streams, so reuse is invisible in the results.
    let mut scratch = SearchScratch::new();
    loop {
        // Claim one job from the earliest active batch that still has queued work (or
        // exit on shutdown). Claiming under the state lock serializes queue access,
        // which is noise next to millisecond-scale jobs and keeps the scan race-free
        // against batch insertion and removal.
        let (batch, index, stolen) = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if state.shutdown {
                    return;
                }
                let claimed = state.batches.iter().find_map(|b| {
                    claim(&b.queues, me).map(|(index, stolen)| (b.clone(), index, stolen))
                });
                if let Some(claimed) = claimed {
                    break claimed;
                }
                state = shared.ready.wait(state).expect("pool state lock");
            }
        };
        shared.metrics.jobs.inc();
        if stolen {
            shared.metrics.steals.inc();
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (batch.runner)(index, &mut scratch)
        }));
        if let Err(payload) = outcome {
            batch
                .panic
                .lock()
                .expect("panic slot lock")
                .get_or_insert(payload);
        }
        if batch.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last job: wake the submitter. Taking the state lock first makes the
            // notify race-free against the submitter's check-then-wait.
            let _state = shared.state.lock().expect("pool state lock");
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_everything_contiguously() {
        for (jobs, workers) in [(10usize, 3usize), (7, 7), (3, 8), (100, 4), (1, 1)] {
            let queues = split_ranges(jobs, workers);
            assert_eq!(queues.len(), workers);
            let mut expected = 0;
            for queue in &queues {
                let (start, end) = *queue.lock().unwrap();
                assert_eq!(start, expected);
                assert!(end >= start);
                expected = end;
            }
            assert_eq!(expected, jobs);
        }
    }

    #[test]
    fn scoped_execute_returns_results_in_job_order() {
        let doubled = execute_with_scratch(4, 100, |i, _| i * 2);
        assert_eq!(doubled.len(), 100);
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn scoped_execute_handles_edge_shapes() {
        assert_eq!(execute_with_scratch(4, 0, |i, _| i), Vec::<usize>::new());
        assert_eq!(execute_with_scratch(4, 1, |i, _| i + 7), vec![7]);
        assert_eq!(execute_with_scratch(1, 5, |i, _| i), vec![0, 1, 2, 3, 4]);
        // More workers than jobs.
        assert_eq!(execute_with_scratch(16, 3, |i, _| i), vec![0, 1, 2]);
    }

    #[test]
    fn scoped_execute_is_worker_count_independent() {
        let reference: Vec<u64> = (0..200).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for workers in [1usize, 2, 3, 8] {
            let got = execute_with_scratch(workers, 200, |i, _| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, reference, "{workers} workers");
        }
    }

    #[test]
    fn stealing_drains_unbalanced_workloads() {
        // Give the jobs wildly uneven costs: stealing must still complete everything.
        let out = execute_with_scratch(4, 64, |i, _| {
            if i < 4 {
                // A few heavy jobs pin their owners...
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate().skip(4) {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn pool_runs_batches_in_order_and_is_reusable() {
        let pool = WorkerPool::new(EngineConfig::with_workers(3));
        assert_eq!(pool.workers(), 3);
        for round in 0..5usize {
            let out = pool.run(50, move |i| i + round);
            assert_eq!(out, (0..50).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_handles_tiny_batches_inline() {
        let pool = WorkerPool::new(EngineConfig::with_workers(4));
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |_| 42), vec![42]);
    }

    #[test]
    fn inline_batches_keep_the_thread_arena_and_nest_on_a_fresh_one() {
        let pool = WorkerPool::new(EngineConfig::with_workers(2));
        pool.run_with_scratch(1, |_, scratch| scratch.candidates.reserve(1000));
        // The next inline batch on this thread finds the grown arena; a batch nested
        // inside it finds the slot empty and works on a fresh one.
        let seen = pool.run_with_scratch(1, |_, scratch| {
            let nested = execute_with_scratch(1, 1, |_, inner| inner.candidates.capacity());
            (scratch.candidates.capacity(), nested[0])
        });
        assert!(seen[0].0 >= 1000);
        assert_eq!(seen[0].1, 0);
        // The outer arena, not the nested one, is what the thread keeps.
        let kept = execute_with_scratch(1, 1, |_, scratch| scratch.candidates.capacity());
        assert!(kept[0] >= 1000);
    }

    #[test]
    fn pool_results_match_scoped_execute() {
        let pool = WorkerPool::new(EngineConfig::with_workers(4));
        let from_pool = pool.run(120, |i| (i as u64).rotate_left(7));
        let from_scope = execute_with_scratch(2, 120, |i, _| (i as u64).rotate_left(7));
        assert_eq!(from_pool, from_scope);
    }

    #[test]
    fn pool_propagates_job_panics_and_stays_usable() {
        let pool = WorkerPool::new(EngineConfig::with_workers(3));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("job 7 exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("the job panic must reach the submitter");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "job 7 exploded");
        // The batch drained and the pool (including its submit turn) is intact.
        assert_eq!(pool.run(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn pool_accepts_concurrent_batches_from_many_threads() {
        // The per-batch queue sets mean submissions no longer serialize: four threads
        // submit interleaved batches and each must get exactly its own results back.
        let pool = WorkerPool::new(EngineConfig::with_workers(3));
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..4usize)
                .map(|t| {
                    scope.spawn(move || {
                        for round in 0..3usize {
                            let out = pool.run(40, move |i| i * 31 + t * 1000 + round);
                            let expected: Vec<usize> =
                                (0..40).map(|i| i * 31 + t * 1000 + round).collect();
                            assert_eq!(out, expected, "thread {t} round {round}");
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("submitter thread panicked");
            }
        });
        // The pool is still healthy afterwards.
        assert_eq!(pool.run(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_batches_match_their_serial_results() {
        // Determinism under concurrency: a batch's outcome vector must not depend on
        // what else is in flight on the pool.
        let pool = WorkerPool::new(EngineConfig::with_workers(4));
        let serial: Vec<u64> = (0..100)
            .map(|i| (i as u64).wrapping_mul(0x1234_5677))
            .collect();
        std::thread::scope(|scope| {
            let pool = &pool;
            let serial = &serial;
            for _ in 0..3 {
                scope.spawn(move || {
                    let got = pool.run(100, |i| (i as u64).wrapping_mul(0x1234_5677));
                    assert_eq!(&got, serial);
                });
            }
        });
    }

    #[test]
    fn config_resolves_zero_to_available_cores() {
        assert!(EngineConfig::default().effective_workers() >= 1);
        assert_eq!(EngineConfig::with_workers(3).effective_workers(), 3);
    }

    #[test]
    fn pool_shuts_down_cleanly_on_drop() {
        let pool = WorkerPool::new(EngineConfig::with_workers(2));
        let _ = pool.run(10, |i| i);
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn pool_metrics_count_jobs_batches_and_timings() {
        let registry = Arc::new(Registry::new());
        let pool = WorkerPool::with_metrics(EngineConfig::with_workers(3), Arc::clone(&registry));
        for _ in 0..4 {
            let _ = pool.run(25, |i| i);
        }
        let _ = pool.run(1, |i| i); // inline path must be counted too
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("engine.jobs"), Some(101));
        assert_eq!(snapshot.counter("engine.batches"), Some(5));
        // Balanced tiny batches may or may not steal, but the counter exists and is
        // bounded by the claims that happened.
        assert!(snapshot.counter("engine.steals").unwrap() <= 100);
        assert_eq!(snapshot.histogram("engine.batch_micros").unwrap().count, 5);
        // 3 queue depths per pooled batch plus 1 for the inline batch.
        let depth = snapshot.histogram("engine.queue_depth").unwrap();
        assert_eq!(depth.count, 13);
        assert_eq!(depth.max, 9); // ceil(25 / 3)
    }

    #[test]
    fn pool_metrics_do_not_change_results() {
        let registry = Arc::new(Registry::new());
        let observed = WorkerPool::with_metrics(EngineConfig::with_workers(4), registry);
        let plain = WorkerPool::new(EngineConfig::with_workers(2));
        let a = observed.run(120, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        let b = plain.run(120, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        assert_eq!(a, b);
    }
}
