//! Backend comparison: identical searches on the mutable adjacency-list `Graph` versus
//! its frozen `CsrGraph` snapshot, on paper-scale (N = 10^4) hard-cutoff PA overlays.
//!
//! This is the measurement behind the `GraphView` refactor: the searches are generic
//! over the backend and consume identical RNG streams on both, so any timing difference
//! is purely the memory layout — one flat `targets` array versus one heap allocation per
//! node. Two workload shapes are measured:
//!
//! * `single/…` — repeated searches over one warm realization. At N = 10^4 a single
//!   topology largely fits in cache on either backend, so this bounds the layout effect
//!   from below.
//! * `sweep/…` — searches round-robined across eight realizations, the shape of the
//!   figure harness (many realizations per data point). The adjacency backend's
//!   aggregate working set (per-node `Vec` headers plus scattered buffers) no longer
//!   fits, while the CSR snapshots stay compact — this is where build-once/query-many
//!   pays.
//!
//! Results are written to `BENCH_csr.json` at the workspace root (tracked in git,
//! regenerate with `cargo bench --bench csr_vs_adjacency`).

use criterion::Criterion;
use sfo_bench::{bench_rng, capped_pa_graph};
use sfo_graph::{CsrGraph, Graph, NodeId};
use sfo_search::flooding::Flooding;
use sfo_search::RandomWalk;
use sfo_search::SearchAlgorithm;
use std::time::Duration;

const NODES: usize = 10_000;
const REALIZATIONS: usize = 8;

fn bench_backends(c: &mut Criterion) {
    let graphs: Vec<Graph> = (0..REALIZATIONS)
        .map(|r| capped_pa_graph(NODES, 2, 40, r as u64))
        .collect();
    let frozen: Vec<CsrGraph> = graphs.iter().map(Graph::freeze).collect();
    for (g, f) in graphs.iter().zip(&frozen) {
        assert_eq!(f.edge_count(), g.edge_count());
    }

    let mut group = c.benchmark_group("csr_vs_adjacency");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    // Flooding at a TTL deep enough to sweep most of the overlay: the cache-linearity
    // stress test (every adjacency list is walked, most of them more than once).
    let flooding = Flooding::new();
    for ttl in [4u32, 8] {
        group.bench_function(format!("single/flooding/adjacency/ttl{ttl}"), |b| {
            let mut rng = bench_rng(11);
            let mut source = 0usize;
            b.iter(|| {
                source = (source + 97) % NODES;
                flooding.search(&graphs[0], NodeId::new(source), ttl, &mut rng)
            });
        });
        group.bench_function(format!("single/flooding/csr/ttl{ttl}"), |b| {
            let mut rng = bench_rng(11);
            let mut source = 0usize;
            b.iter(|| {
                source = (source + 97) % NODES;
                flooding.search(&frozen[0], NodeId::new(source), ttl, &mut rng)
            });
        });
        group.bench_function(format!("sweep/flooding/adjacency/ttl{ttl}"), |b| {
            let mut rng = bench_rng(11);
            let mut search = 0usize;
            b.iter(|| {
                search += 1;
                let source = NodeId::new((search * 97) % NODES);
                flooding.search(&graphs[search % REALIZATIONS], source, ttl, &mut rng)
            });
        });
        group.bench_function(format!("sweep/flooding/csr/ttl{ttl}"), |b| {
            let mut rng = bench_rng(11);
            let mut search = 0usize;
            b.iter(|| {
                search += 1;
                let source = NodeId::new((search * 97) % NODES);
                flooding.search(&frozen[search % REALIZATIONS], source, ttl, &mut rng)
            });
        });
    }

    // Random walk: pointer-chasing workload where each hop touches one adjacency list.
    let walk = RandomWalk::new();
    let hops = 512u32;
    group.bench_function(format!("single/random_walk/adjacency/hops{hops}"), |b| {
        let mut rng = bench_rng(13);
        let mut source = 0usize;
        b.iter(|| {
            source = (source + 101) % NODES;
            walk.search(&graphs[0], NodeId::new(source), hops, &mut rng)
        });
    });
    group.bench_function(format!("single/random_walk/csr/hops{hops}"), |b| {
        let mut rng = bench_rng(13);
        let mut source = 0usize;
        b.iter(|| {
            source = (source + 101) % NODES;
            walk.search(&frozen[0], NodeId::new(source), hops, &mut rng)
        });
    });
    group.bench_function(format!("sweep/random_walk/adjacency/hops{hops}"), |b| {
        let mut rng = bench_rng(13);
        let mut search = 0usize;
        b.iter(|| {
            search += 1;
            let source = NodeId::new((search * 101) % NODES);
            walk.search(&graphs[search % REALIZATIONS], source, hops, &mut rng)
        });
    });
    group.bench_function(format!("sweep/random_walk/csr/hops{hops}"), |b| {
        let mut rng = bench_rng(13);
        let mut search = 0usize;
        b.iter(|| {
            search += 1;
            let source = NodeId::new((search * 101) % NODES);
            walk.search(&frozen[search % REALIZATIONS], source, hops, &mut rng)
        });
    });

    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_backends(&mut criterion);

    // Persist the measurements next to the workspace root so the numbers ride along
    // with the refactor they justify. Overridable for scratch runs.
    let path = std::env::var("SFO_BENCH_CSR_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_csr.json").to_string()
    });
    criterion
        .export_json(&path)
        .expect("writing benchmark results");
    println!("\nresults written to {path}");

    // Summarize the headline ratio the refactor targets.
    let mean = |id: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .expect("benchmark ran")
    };
    for shape in ["single", "sweep"] {
        for ttl in [4u32, 8] {
            let adj = mean(&format!(
                "csr_vs_adjacency/{shape}/flooding/adjacency/ttl{ttl}"
            ));
            let csr = mean(&format!("csr_vs_adjacency/{shape}/flooding/csr/ttl{ttl}"));
            println!(
                "{shape} flooding ttl={ttl}: adjacency/csr speedup = {:.2}x",
                adj / csr
            );
        }
        let adj = mean(&format!(
            "csr_vs_adjacency/{shape}/random_walk/adjacency/hops512"
        ));
        let csr = mean(&format!("csr_vs_adjacency/{shape}/random_walk/csr/hops512"));
        println!(
            "{shape} random walk 512 hops: adjacency/csr speedup = {:.2}x",
            adj / csr
        );
    }
}
