//! Cost of the extended search algorithms (probabilistic flooding, expanding ring,
//! degree-biased walk) alongside the paper's three, on the same cutoff-bounded PA overlay.

use criterion::{criterion_group, criterion_main, Criterion};
use sfo_bench::{bench_rng, capped_pa_csr, BENCH_NODES};
use sfo_graph::{CsrGraph, NodeId};
use sfo_search::biased_walk::DegreeBiasedWalk;
use sfo_search::expanding_ring::ExpandingRing;
use sfo_search::flooding::Flooding;
use sfo_search::normalized::NormalizedFlooding;
use sfo_search::probabilistic::ProbabilisticFlooding;
use sfo_search::random_walk::RandomWalk;
use sfo_search::SearchAlgorithm;
use std::time::Duration;

fn bench_extended_search(c: &mut Criterion) {
    let graph = capped_pa_csr(BENCH_NODES, 2, 20, 7);
    let ttl = 6u32;
    let algorithms: Vec<(&str, Box<dyn SearchAlgorithm<CsrGraph>>)> = vec![
        ("fl", Box::new(Flooding::new())),
        ("nf_k2", Box::new(NormalizedFlooding::new(2))),
        ("pfl_05", Box::new(ProbabilisticFlooding::new(0.5))),
        ("ring_1_2", Box::new(ExpandingRing::new(1, 2))),
        ("rw", Box::new(RandomWalk::new())),
        ("hd_rw", Box::new(DegreeBiasedWalk::new())),
    ];
    let mut group = c.benchmark_group("extended_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (label, algorithm) in &algorithms {
        group.bench_function(*label, |b| {
            let mut rng = bench_rng(11);
            let mut source = 0usize;
            b.iter(|| {
                source = (source + 97) % graph.node_count();
                algorithm.search(&graph, NodeId::new(source), ttl, &mut rng)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extended_search);
criterion_main!(benches);
