//! Inline batches reuse their thread's scratch arena.
//!
//! A batch of one job (or any batch on a one-worker pool or scoped executor) runs on the
//! calling thread. That thread keeps one `SearchScratch` between batches, so a one-job
//! request costs its search — O(hits) — and never the O(N) growth and zeroing of a fresh
//! arena's bitsets. This is the path every `sfo serve` one-job request takes.
//!
//! The allocation guard counts, on the test's own thread only, every allocation of at
//! least `node_count / 8` bytes: one N-bit bitset. Parallel tests in this binary allocate
//! on their own threads and are not counted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfoverlay::engine::{
    run_batch_scoped_with_scratch, run_queries_offset, run_queries_serial, AlgorithmTable,
    QueryBatch, QueryJob,
};
use sfoverlay::graph::CsrGraph;
use sfoverlay::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting this thread's large allocations while armed.
struct CountLarge;

thread_local! {
    /// Allocations of at least this many bytes are counted on this thread; 0 = disarmed.
    static THRESHOLD: Cell<usize> = const { Cell::new(0) };
    /// Large allocations counted on this thread since it was armed.
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being torn down.
    let _ = THRESHOLD.try_with(|threshold| {
        let threshold = threshold.get();
        if threshold > 0 && size >= threshold {
            LARGE.with(|large| large.set(large.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches only
// `const`-initialised thread-local `Cell<usize>`s, which never allocate.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountLarge = CountLarge;

/// Runs `f` and returns how many allocations of at least `threshold` bytes it made on
/// the calling thread.
fn large_allocations(threshold: usize, f: impl FnOnce()) -> usize {
    assert!(threshold > 0);
    LARGE.set(0);
    THRESHOLD.set(threshold);
    f();
    THRESHOLD.set(0);
    LARGE.get()
}

/// A capped-PA realization (m = 2, k_c = 40: the served snapshots' shape), frozen.
fn pa_csr(nodes: usize, seed: u64) -> Arc<CsrGraph> {
    let graph = PreferentialAttachment::new(nodes, 2)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(40))
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
        .freeze();
    Arc::new(graph)
}

fn pool() -> WorkerPool {
    WorkerPool::new(EngineConfig::with_workers(2))
}

/// `count` jobs from random sources, cycling through `algorithms` table entries.
fn jobs(graph: &CsrGraph, algorithms: usize, count: usize, seed: u64) -> Vec<QueryJob> {
    let mut input = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| QueryJob {
            source: NodeId::new(input.gen_range(0..graph.node_count())),
            algorithm: i % algorithms,
            ttl: input.gen_range(1..6),
        })
        .collect()
}

/// Warm once, then 100 one-job TTL-2 floods on a 2-worker pool: none of them may
/// allocate a bitset's worth of bytes. Before inline batches reused their thread's
/// arena, each one allocated (and zeroed) two.
#[test]
fn one_job_batches_allocate_no_bitset_after_warm_up() {
    let graph = pa_csr(100_000, 0x1A7E);
    let threshold = graph.node_count() / 8;
    let flooding: Arc<AlgorithmTable<CsrGraph>> = Arc::new(vec![Box::new(Flooding::new())]);
    let pool = pool();
    let batches: Vec<QueryBatch> = jobs(&graph, 1, 101, 5)
        .into_iter()
        .map(|job| QueryBatch::from_jobs(vec![QueryJob { ttl: 2, ..job }]))
        .collect();
    let (warm, rest) = batches.split_first().unwrap();
    run_queries_offset(&pool, &graph, &flooding, warm, 9, 0);

    let mut outcomes = Vec::new();
    let large = large_allocations(threshold, || {
        for (i, batch) in rest.iter().enumerate() {
            outcomes.extend(run_queries_offset(
                &pool,
                &graph,
                &flooding,
                batch,
                9,
                i + 1,
            ));
        }
    });
    assert_eq!(
        large, 0,
        "{large} allocations of >= {threshold} bytes in 100 one-job batches"
    );
    // The guard watched real searches.
    assert_eq!(outcomes.len(), 100);
    assert!(outcomes.iter().all(|o| o.hits > 1));

    // The scoped executor's one-worker path runs on the same arena.
    let large = large_allocations(threshold, || {
        run_batch_scoped_with_scratch(1, 10, 9, |i, rng, scratch| {
            let job = rest[i].jobs()[0];
            Flooding::new().search_with_scratch(graph.as_ref(), job.source, 2, rng, scratch)
        });
    });
    assert_eq!(
        large, 0,
        "a scoped one-worker batch made {large} large allocations"
    );
}

/// One-job batches through the reused thread arena equal the serial oracle, with FL, NF,
/// pFL and RW jobs alternating and two graphs of different sizes interleaved (the larger
/// first), so every search starts on an arena that is dirty and oversized.
#[test]
fn one_job_batches_through_the_thread_arena_match_the_serial_oracle() {
    let algorithms: Arc<AlgorithmTable<CsrGraph>> = Arc::new(vec![
        Box::new(Flooding::new()),
        Box::new(NormalizedFlooding::new(2)),
        Box::new(ProbabilisticFlooding::new(0.5)),
        Box::new(RandomWalk::new()),
    ]);
    let pool = pool();
    let seed = 0x0A7E;
    let cases: Vec<(Arc<CsrGraph>, Vec<QueryJob>, Vec<SearchOutcome>)> =
        [pa_csr(20_000, 1), pa_csr(700, 2)]
            .into_iter()
            .enumerate()
            .map(|(g, graph)| {
                let jobs = jobs(&graph, algorithms.len(), 48, 100 + g as u64);
                let batch = QueryBatch::from_jobs(jobs.clone());
                let serial = run_queries_serial(graph.as_ref(), &algorithms, &batch, seed);
                (graph, jobs, serial)
            })
            .collect();
    for i in 0..48 {
        for (graph, jobs, serial) in &cases {
            let one = QueryBatch::from_jobs(vec![jobs[i]]);
            let pooled = run_queries_offset(&pool, graph, &algorithms, &one, seed, i);
            assert_eq!(
                pooled,
                [serial[i]],
                "job {i} on {} nodes ({})",
                graph.node_count(),
                algorithms[jobs[i].algorithm].name()
            );
        }
    }
    // The scoped one-worker path: same arena, same streams.
    for (graph, jobs, serial) in &cases {
        let scoped = run_batch_scoped_with_scratch(1, jobs.len(), seed, |i, rng, scratch| {
            let job = jobs[i];
            algorithms[job.algorithm].search_with_scratch(
                graph.as_ref(),
                job.source,
                job.ttl,
                rng,
                scratch,
            )
        });
        assert_eq!(
            &scoped,
            serial,
            "scoped run on {} nodes",
            graph.node_count()
        );
    }
}
