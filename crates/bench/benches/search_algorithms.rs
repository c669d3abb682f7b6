//! Per-search cost of FL, NF, and RW on a capped PA overlay (the workload behind
//! Figs. 6-12), swept over the time-to-live.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfo_bench::{bench_rng, capped_pa_csr};
use sfo_graph::{CsrGraph, NodeId};
use sfo_search::flooding::Flooding;
use sfo_search::normalized::NormalizedFlooding;
use sfo_search::random_walk::{MultipleRandomWalk, RandomWalk};
use sfo_search::SearchAlgorithm;
use std::time::Duration;

fn bench_search_algorithms(c: &mut Criterion) {
    let graph = capped_pa_csr(5_000, 2, 40, 3);
    let algorithms: Vec<(&'static str, Box<dyn SearchAlgorithm<CsrGraph>>)> = vec![
        ("FL", Box::new(Flooding::new())),
        ("NF", Box::new(NormalizedFlooding::new(2))),
        ("RW", Box::new(RandomWalk::new())),
        ("multi-RW", Box::new(MultipleRandomWalk::new(4))),
    ];

    let mut group = c.benchmark_group("search_algorithms");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for (name, algorithm) in &algorithms {
        for ttl in [4u32, 8] {
            group.bench_with_input(BenchmarkId::new(*name, ttl), &ttl, |b, &ttl| {
                let mut rng = bench_rng(11);
                let mut source = 0usize;
                b.iter(|| {
                    source = (source + 1) % graph.node_count();
                    algorithm.search(&graph, NodeId::new(source), ttl, &mut rng)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_search_algorithms);
criterion_main!(benches);
