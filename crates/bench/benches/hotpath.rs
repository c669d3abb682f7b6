//! Hot-path scratch arenas: per-query allocation (`SearchAlgorithm::search`, which
//! builds fresh N-sized visited bitsets and a fresh frontier per call) versus arena
//! reuse (`search_with_scratch` over one dirty [`SearchScratch`], whose reset costs
//! O(previous hits) for flooding and O(1) for the walks' epoch-stamped bitset) — the
//! mechanism every `sfo-engine` pool worker rides.
//!
//! One measurement unit is a run of `QUERIES` searches from rotating sources, because
//! amortization is the point: the arena pays its allocation once across the run while
//! the fresh path pays O(node_count) zeroing per query. Short-TTL searches on large
//! graphs are where the paper's sweeps live (thousands of independent queries per
//! frozen realization), so the `flooding` (TTL 3) and `random_walk` rows pin that regime
//! down. The `flooding_full` rows (TTL 64) flood the whole component instead: their
//! middle levels saturate the graph, so they time the kernel's bottom-up side, where the
//! TTL-3 rows time its top-down side. Outcomes are byte-identical between the two paths
//! by the scratch contract (`tests/scratch_equivalence.rs`).
//!
//! Results are written to `BENCH_hotpath.json` at the workspace root (tracked in git,
//! regenerate with `cargo bench --bench hotpath`). Environment knobs for smoke runs:
//! `SFO_BENCH_HOTPATH_NODES` (comma-separated node counts, default `10000,100000`)
//! and `SFO_BENCH_HOTPATH_OUT` (output path).

use criterion::Criterion;
use sfo_bench::{bench_rng, capped_pa_csr};
use sfo_graph::{CsrGraph, NodeId};
use sfo_search::flooding::Flooding;
use sfo_search::RandomWalk;
use sfo_search::{SearchAlgorithm, SearchScratch};
use std::time::Duration;

/// Searches per measured run.
const QUERIES: usize = 32;
const FLOOD_TTL: u32 = 3;
/// Deeper than any capped-PA realization's diameter: every flood covers its component.
const FULL_FLOOD_TTL: u32 = 64;
const WALK_HOPS: u32 = 256;

fn node_sizes() -> Vec<usize> {
    match std::env::var("SFO_BENCH_HOTPATH_NODES") {
        Ok(list) => list
            .split(',')
            .map(|n| {
                n.trim()
                    .parse()
                    .expect("SFO_BENCH_HOTPATH_NODES: node counts")
            })
            .collect(),
        Err(_) => vec![10_000, 100_000],
    }
}

/// Runs `QUERIES` searches with a fresh allocation per query.
fn run_fresh<A: SearchAlgorithm<CsrGraph>>(graph: &CsrGraph, algorithm: &A, ttl: u32) -> usize {
    let mut rng = bench_rng(17);
    (0..QUERIES)
        .map(|i| {
            let source = NodeId::new((i * 97) % graph.node_count());
            algorithm.search(graph, source, ttl, &mut rng).hits
        })
        .sum()
}

/// The identical run through one reused arena.
fn run_scratch<A: SearchAlgorithm<CsrGraph>>(
    graph: &CsrGraph,
    algorithm: &A,
    ttl: u32,
    scratch: &mut SearchScratch,
) -> usize {
    let mut rng = bench_rng(17);
    (0..QUERIES)
        .map(|i| {
            let source = NodeId::new((i * 97) % graph.node_count());
            algorithm
                .search_with_scratch(graph, source, ttl, &mut rng, scratch)
                .hits
        })
        .sum()
}

fn bench_hotpath(c: &mut Criterion) {
    for nodes in node_sizes() {
        let csr = capped_pa_csr(nodes, 2, 40, 7);
        let flooding = Flooding::new();
        let walk = RandomWalk::new();

        let mut group = c.benchmark_group("hotpath");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(300));

        // The arena is deliberately dirty before the first timed iteration, like a
        // pool worker's mid-shift arena; the fresh rows get one untimed warm pass so
        // both sides start with the graph's pages faulted in.
        let mut arena = SearchScratch::new();
        for ttl in [FLOOD_TTL, FULL_FLOOD_TTL] {
            assert_eq!(
                run_scratch(&csr, &flooding, ttl, &mut arena),
                run_fresh(&csr, &flooding, ttl),
                "scratch contract broken at n{nodes}, ttl {ttl}"
            );
        }

        group.bench_function(format!("n{nodes}/flooding/fresh"), |b| {
            b.iter(|| run_fresh(&csr, &flooding, FLOOD_TTL))
        });
        group.bench_function(format!("n{nodes}/flooding/scratch"), |b| {
            b.iter(|| run_scratch(&csr, &flooding, FLOOD_TTL, &mut arena))
        });
        group.bench_function(format!("n{nodes}/flooding_full/fresh"), |b| {
            b.iter(|| run_fresh(&csr, &flooding, FULL_FLOOD_TTL))
        });
        group.bench_function(format!("n{nodes}/flooding_full/scratch"), |b| {
            b.iter(|| run_scratch(&csr, &flooding, FULL_FLOOD_TTL, &mut arena))
        });
        group.bench_function(format!("n{nodes}/random_walk/fresh"), |b| {
            b.iter(|| run_fresh(&csr, &walk, WALK_HOPS))
        });
        group.bench_function(format!("n{nodes}/random_walk/scratch"), |b| {
            b.iter(|| run_scratch(&csr, &walk, WALK_HOPS, &mut arena))
        });
        group.finish();
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_hotpath(&mut criterion);

    // Persist the measurements next to the workspace root so the perf trajectory
    // extends BENCH_csr.json and BENCH_shard.json. Overridable for smoke runs.
    let path = std::env::var("SFO_BENCH_HOTPATH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
    });
    criterion
        .export_json(&path)
        .expect("writing benchmark results");
    println!("\nresults written to {path}");

    // Summarize: what does arena reuse buy per workload?
    let mean = |id: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .expect("benchmark ran")
    };
    for nodes in node_sizes() {
        for workload in ["flooding", "flooding_full", "random_walk"] {
            let fresh = mean(&format!("hotpath/n{nodes}/{workload}/fresh"));
            let scratch = mean(&format!("hotpath/n{nodes}/{workload}/scratch"));
            println!(
                "n={nodes} {workload}: fresh/scratch speedup = {:.2}x \
                 ({:.3} ms -> {:.3} ms per {QUERIES}-query run)",
                fresh / scratch,
                fresh / 1e6,
                scratch / 1e6
            );
        }
    }
}
