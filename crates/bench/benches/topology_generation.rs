//! Generation cost of the four topology-construction mechanisms, with and without a hard
//! cutoff: PA/CM are global but cheap, and DAPA pays for its locality with substrate BFS
//! work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfo_bench::{bench_rng, BENCH_NODES};
use sfo_core::cm::ConfigurationModel;
use sfo_core::dapa::DapaOverGrn;
use sfo_core::hapa::HopAndAttempt;
use sfo_core::pa::PreferentialAttachment;
use sfo_core::{DegreeCutoff, TopologyGenerator};
use std::time::Duration;

fn generators(cutoff: DegreeCutoff) -> Vec<(&'static str, Box<dyn TopologyGenerator>)> {
    vec![
        (
            "PA",
            Box::new(
                PreferentialAttachment::new(BENCH_NODES, 2)
                    .unwrap()
                    .with_cutoff(cutoff),
            ),
        ),
        (
            "CM",
            Box::new(
                ConfigurationModel::new(BENCH_NODES, 2.6, 2)
                    .unwrap()
                    .with_cutoff(cutoff),
            ),
        ),
        (
            "HAPA",
            Box::new(
                HopAndAttempt::new(BENCH_NODES, 2)
                    .unwrap()
                    .with_cutoff(cutoff),
            ),
        ),
        (
            "DAPA",
            Box::new(
                DapaOverGrn::new(BENCH_NODES, 2, 4)
                    .unwrap()
                    .with_cutoff(cutoff),
            ),
        ),
    ]
}

fn bench_topology_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for (cutoff_label, cutoff) in [
        ("no_kc", DegreeCutoff::Unbounded),
        ("kc10", DegreeCutoff::hard(10)),
    ] {
        for (name, generator) in generators(cutoff) {
            group.bench_with_input(
                BenchmarkId::new(name, cutoff_label),
                &generator,
                |b, generator| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        generator
                            .generate(&mut bench_rng(seed))
                            .expect("generation succeeds")
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topology_generation);
criterion_main!(benches);
