//! Engine comparison: the serial per-realization query path (the pre-engine baseline —
//! one thread walking an unsharded `CsrGraph`) versus `sfo-engine` query batches fanned
//! over a sharded store, on paper-scale hard-cutoff PA overlays.
//!
//! One measurement unit is a whole batch — `FLOOD_BATCH` flooding searches or
//! `WALK_BATCH` random walks with per-job RNG streams — because the batch is what the
//! engine schedules and what an interactive single-realization workload submits. The
//! `serial/…` rows run the batch with `run_queries_serial` on the unsharded snapshot;
//! the `shards{S}/…` rows run the identical batch (byte-identical outcomes, enforced by
//! `tests/shard_equivalence.rs`) through a persistent [`WorkerPool`] with `S` workers
//! over a `ShardedCsr` with `S` shards, so the row index is the unit of scaling the
//! sharded deployment story cares about.
//!
//! Results are written to `BENCH_shard.json` at the workspace root (tracked in git,
//! regenerate with `cargo bench --bench shard_vs_csr`). Environment knobs for smoke
//! runs: `SFO_BENCH_SHARD_NODES` (comma-separated node counts, default
//! `10000,100000`) and `SFO_BENCH_SHARD_OUT` (output path).
//!
//! Reading the numbers: the engine's job streams are per-job, so the batched rows do
//! the *identical* work to the serial row — the measurement isolates scheduling cost
//! and parallel speedup. On a host with W cores, expect the `shardsS` rows to approach
//! `min(S, W)`× the serial throughput; on a single-core container (like the CI box that
//! produced the checked-in `BENCH_shard.json`) the best possible result is parity, and
//! the rows document that the scheduler's overhead stays within measurement noise.

use criterion::Criterion;
use sfo_bench::capped_pa_csr;
use sfo_engine::{
    run_queries, run_queries_serial, AlgorithmTable, EngineConfig, QueryBatch, ShardedCsr,
    WorkerPool,
};
use sfo_graph::{CsrGraph, NodeId};
use sfo_search::flooding::Flooding;
use sfo_search::RandomWalk;
use std::sync::Arc;
use std::time::Duration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Flooding searches per measured batch.
const FLOOD_BATCH: usize = 32;
/// Random walks per measured batch.
const WALK_BATCH: usize = 256;
const FLOOD_TTL: u32 = 4;
const WALK_HOPS: u32 = 512;

fn node_sizes() -> Vec<usize> {
    match std::env::var("SFO_BENCH_SHARD_NODES") {
        Ok(list) => list
            .split(',')
            .map(|n| {
                n.trim()
                    .parse()
                    .expect("SFO_BENCH_SHARD_NODES: node counts")
            })
            .collect(),
        Err(_) => vec![10_000, 100_000],
    }
}

fn flood_batch(nodes: usize) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for i in 0..FLOOD_BATCH {
        batch.push(NodeId::new((i * 97) % nodes), 0, FLOOD_TTL);
    }
    batch
}

fn walk_batch(nodes: usize) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for i in 0..WALK_BATCH {
        batch.push(NodeId::new((i * 101) % nodes), 0, WALK_HOPS);
    }
    batch
}

fn bench_engine(c: &mut Criterion) {
    for nodes in node_sizes() {
        let csr = capped_pa_csr(nodes, 2, 40, 7);
        let floods = flood_batch(nodes);
        let walks = walk_batch(nodes);

        // Short rows: the whole group fits in a narrow time window, so slow drift in
        // host load (CPU steal on shared runners) cannot masquerade as a row-to-row
        // difference.
        let mut group = c.benchmark_group("shard_vs_csr");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(300));

        // Baseline: the pre-engine path — the whole batch on one thread, unsharded.
        let serial_flood_table: AlgorithmTable<CsrGraph> = vec![Box::new(Flooding::new())];
        let serial_walk_table: AlgorithmTable<CsrGraph> = vec![Box::new(RandomWalk::new())];

        // Touch every page of the freshly built graph before the first timed row, so
        // first-touch page faults don't masquerade as a serial-path penalty.
        let _ = run_queries_serial(&csr, &serial_flood_table, &floods, 11);
        let _ = run_queries_serial(&csr, &serial_walk_table, &walks, 13);
        group.bench_function(format!("n{nodes}/flooding/serial"), |b| {
            b.iter(|| run_queries_serial(&csr, &serial_flood_table, &floods, 11))
        });
        group.bench_function(format!("n{nodes}/random_walk/serial"), |b| {
            b.iter(|| run_queries_serial(&csr, &serial_walk_table, &walks, 13))
        });

        // The engine: S workers over an S-shard store, same batches, same outcomes.
        for shards in SHARD_COUNTS {
            let store = Arc::new(ShardedCsr::from_csr(&csr, shards));
            let pool = WorkerPool::new(EngineConfig::with_workers(shards));
            let flood_table: Arc<AlgorithmTable<ShardedCsr>> =
                Arc::new(vec![Box::new(Flooding::new())]);
            let walk_table: Arc<AlgorithmTable<ShardedCsr>> =
                Arc::new(vec![Box::new(RandomWalk::new())]);
            group.bench_function(format!("n{nodes}/flooding/shards{shards}"), |b| {
                b.iter(|| run_queries(&pool, &store, &flood_table, &floods, 11))
            });
            group.bench_function(format!("n{nodes}/random_walk/shards{shards}"), |b| {
                b.iter(|| run_queries(&pool, &store, &walk_table, &walks, 13))
            });
        }
        group.finish();
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_engine(&mut criterion);

    // Persist the measurements next to the workspace root so the perf trajectory
    // extends BENCH_csr.json. Overridable for scratch/smoke runs.
    let path = std::env::var("SFO_BENCH_SHARD_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json").to_string()
    });
    criterion
        .export_json(&path)
        .expect("writing benchmark results");
    println!("\nresults written to {path}");

    // Summarize batched throughput against the serial baseline.
    let mean = |id: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .expect("benchmark ran")
    };
    for nodes in node_sizes() {
        for workload in ["flooding", "random_walk"] {
            let serial = mean(&format!("shard_vs_csr/n{nodes}/{workload}/serial"));
            for shards in SHARD_COUNTS {
                let batched = mean(&format!("shard_vs_csr/n{nodes}/{workload}/shards{shards}"));
                println!(
                    "n={nodes} {workload}: serial/batched({shards} shards) speedup = {:.2}x",
                    serial / batched
                );
            }
        }
    }
}
