//! Ablation benchmarks for three design choices:
//!
//! 1. CM discrepancy handling: how much work the post-wiring simplification step does as
//!    the cutoff varies;
//! 2. DAPA horizon recomputation: the substrate-BFS cost as `τ_sub` grows;
//! 3. RW normalization: message-normalized walks versus raw fixed-budget walks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfo_bench::{bench_rng, capped_pa_graph};
use sfo_core::cm::ConfigurationModel;
use sfo_core::dapa::DiscoverAndAttempt;
use sfo_core::DegreeCutoff;
use sfo_graph::generators::GeometricRandomNetwork;
use sfo_search::experiment::{rw_normalized_to_nf, ttl_sweep};
use sfo_search::random_walk::RandomWalk;
use std::time::Duration;

fn bench_cm_rewire(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cm_rewire");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (label, cutoff) in [
        ("kc_none", DegreeCutoff::Unbounded),
        ("kc_40", DegreeCutoff::hard(40)),
        ("kc_10", DegreeCutoff::hard(10)),
    ] {
        group.bench_function(label, |b| {
            let generator = ConfigurationModel::new(3_000, 2.2, 1)
                .unwrap()
                .with_cutoff(cutoff);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                generator
                    .generate_with_report(&mut bench_rng(seed))
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_dapa_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dapa_bfs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let (substrate, _) = GeometricRandomNetwork::with_average_degree(2_000, 10.0)
        .unwrap()
        .generate(&mut bench_rng(5))
        .unwrap();
    for tau_sub in [2u32, 6, 20] {
        group.bench_with_input(
            BenchmarkId::new("tau_sub", tau_sub),
            &tau_sub,
            |b, &tau_sub| {
                let generator = DiscoverAndAttempt::new(1_000, 2, tau_sub)
                    .unwrap()
                    .with_cutoff(DegreeCutoff::hard(40));
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    generator
                        .generate_on(&substrate, &mut bench_rng(seed))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_rw_normalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rw_normalization");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let graph = capped_pa_graph(3_000, 2, 40, 9);
    group.bench_function("normalized_to_nf", |b| {
        let mut rng = bench_rng(1);
        b.iter(|| rw_normalized_to_nf(&graph, 2, &[6], 20, &mut rng));
    });
    group.bench_function("raw_budget", |b| {
        let mut rng = bench_rng(1);
        b.iter(|| ttl_sweep(&graph, &RandomWalk::new(), &[126], 20, &mut rng));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cm_rewire,
    bench_dapa_bfs,
    bench_rw_normalization
);
criterion_main!(benches);
