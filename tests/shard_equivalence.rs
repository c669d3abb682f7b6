//! Shard-boundary correctness: a `ShardedCsr` store must be indistinguishable from the
//! unsharded `CsrGraph` snapshot it partitions — same structure, same BFS, and
//! byte-identical `SearchOutcome`s for every algorithm and fixed seed, for shard counts
//! that do and do not divide the node count.
//!
//! These are the contract tests of the `sfo-engine` layer: the scenario runner swaps a
//! sharded store under the legacy sweep whenever `shard_count > 1`, and the batched
//! scheduler fans jobs across workers that all read the same shards, so any divergence
//! (an off-by-one at a range boundary, a reordered neighbor slice, a job picking up the
//! wrong stream) would silently corrupt results. Topologies are drawn from the UCM and
//! HAPA generators plus the churn-aged live overlay, like `csr_equivalence.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfoverlay::engine::{run_queries, run_queries_serial, AlgorithmTable, QueryBatch, ShardedCsr};
use sfoverlay::graph::{traversal, CsrGraph, Graph, NodeId};
use sfoverlay::prelude::*;
use sfoverlay::sim::overlay::{JoinStrategy, OverlayConfig, OverlayNetwork};
use std::sync::Arc;

/// The shard counts under test: trivial, even splits, and counts that do not divide the
/// node sizes drawn below.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs `body` over deterministic cases, each with its own input RNG.
fn for_cases(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    for case in 0..cases {
        let mut input = rng(0x5EA2_DED0 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        body(case, &mut input);
    }
}

/// Draws a random UCM or HAPA topology of the kind the experiments sweep.
fn random_topology(case: u64, input: &mut StdRng) -> Graph {
    let n: usize = input.gen_range(100..600);
    let m: usize = input.gen_range(1..4);
    let seed: u64 = input.gen_range(0..10_000);
    let k_c: usize = input.gen_range((m.max(5))..40);
    if input.gen::<bool>() {
        let gamma: f64 = input.gen_range(2.1..3.1);
        UncorrelatedConfigurationModel::new(n, gamma, m)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(k_c))
            .generate(&mut rng(seed))
            .unwrap_or_else(|e| panic!("case {case}: UCM generation failed: {e}"))
    } else {
        HopAndAttempt::new(n, m)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(k_c))
            .generate(&mut rng(seed))
            .unwrap_or_else(|e| panic!("case {case}: HAPA generation failed: {e}"))
    }
}

/// A churn-aged live overlay frozen to CSR: the simulator's snapshot shape.
fn aged_overlay_csr(case: u64, input: &mut StdRng) -> CsrGraph {
    let config = OverlayConfig {
        stubs: input.gen_range(1..4),
        cutoff: DegreeCutoff::hard(input.gen_range(5..20)),
        join_strategy: JoinStrategy::UniformRandom,
        repair_on_leave: true,
    };
    let mut overlay = OverlayNetwork::new(config).unwrap();
    let mut r = rng(input.gen_range(0..10_000) ^ case);
    for _ in 0..input.gen_range(50..200) {
        if overlay.peer_count() > 3 && r.gen::<f64>() < 0.3 {
            let victim = overlay.random_peer(&mut r).unwrap();
            overlay.leave(victim, &mut r).unwrap();
        } else {
            overlay.join(&mut r);
        }
    }
    let (graph, _) = overlay.snapshot();
    graph.freeze()
}

/// Structure is preserved for every shard count: counts, degrees, neighbor slices (order
/// included), shard-range bookkeeping, and the cross-shard edge count.
#[test]
fn sharding_preserves_structure_for_all_counts() {
    for_cases(12, |case, input| {
        let csr = if case % 3 == 0 {
            aged_overlay_csr(case, input)
        } else {
            random_topology(case, input).freeze()
        };
        for shards in SHARD_COUNTS {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            assert_eq!(sharded.node_count(), csr.node_count(), "case {case}");
            assert_eq!(sharded.edge_count(), csr.edge_count(), "case {case}");
            for node in csr.nodes() {
                assert_eq!(
                    sharded.neighbors(node),
                    csr.neighbors(node),
                    "case {case}, {shards} shards, {node}"
                );
            }
            // Contiguous cover with near-equal sizes.
            let mut next = 0;
            for shard in sharded.shards() {
                assert_eq!(shard.node_range().start, next);
                next = shard.node_range().end;
            }
            assert_eq!(next, csr.node_count());
            // The cross-shard count is the directed entries whose ends have different
            // owners, counted here from the rows.
            let cross: usize = csr
                .nodes()
                .flat_map(|node| csr.neighbors(node).iter().map(move |&v| (node, v)))
                .filter(|&(u, v)| sharded.shard_of(u) != sharded.shard_of(v))
                .count();
            assert_eq!(sharded.cross_shard_edges() * 2, cross, "case {case}");
            assert_eq!(sharded.to_csr(), csr, "case {case}, {shards} shards");
        }
    });
}

/// BFS distance maps and connected components agree between the sharded store and the
/// plain snapshot, from several sources including shard-boundary nodes.
#[test]
fn bfs_agrees_across_shard_boundaries() {
    for_cases(8, |case, input| {
        let csr = random_topology(case, input).freeze();
        for shards in SHARD_COUNTS {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            // Probe the first and last node of every shard (the boundary-adjacent ids)
            // plus a few random interior sources.
            let mut sources: Vec<NodeId> = sharded
                .shards()
                .iter()
                .flat_map(|s| {
                    let r = s.node_range();
                    [NodeId::new(r.start), NodeId::new(r.end - 1)]
                })
                .collect();
            for _ in 0..3 {
                sources.push(NodeId::new(input.gen_range(0..csr.node_count())));
            }
            for source in sources {
                assert_eq!(
                    traversal::bfs_distances(&sharded, source),
                    traversal::bfs_distances(&csr, source),
                    "case {case}, {shards} shards, source {source}"
                );
            }
            assert_eq!(
                traversal::connected_components(&sharded),
                traversal::connected_components(&csr),
                "case {case}, {shards} shards"
            );
        }
    });
}

/// Every search algorithm returns a byte-identical `SearchOutcome` on the sharded store
/// and the plain snapshot for a fixed seed — flooding, random walks, and the rest.
#[test]
fn search_outcomes_are_identical_on_sharded_and_plain_snapshots() {
    type Pair = (
        &'static str,
        Box<dyn SearchAlgorithm<CsrGraph>>,
        Box<dyn SearchAlgorithm<ShardedCsr>>,
    );
    let algorithms: Vec<Pair> = vec![
        ("FL", Box::new(Flooding::new()), Box::new(Flooding::new())),
        (
            "NF",
            Box::new(NormalizedFlooding::new(2)),
            Box::new(NormalizedFlooding::new(2)),
        ),
        (
            "RW",
            Box::new(RandomWalk::new()),
            Box::new(RandomWalk::new()),
        ),
        (
            "multi-RW",
            Box::new(MultipleRandomWalk::new(4)),
            Box::new(MultipleRandomWalk::new(4)),
        ),
        (
            "HD-RW",
            Box::new(DegreeBiasedWalk::new()),
            Box::new(DegreeBiasedWalk::new()),
        ),
        (
            "pFL",
            Box::new(ProbabilisticFlooding::new(0.5)),
            Box::new(ProbabilisticFlooding::new(0.5)),
        ),
    ];
    for_cases(8, |case, input| {
        let csr = random_topology(case, input).freeze();
        let ttl: u32 = input.gen_range(1..8);
        let search_seed: u64 = input.gen_range(0..10_000);
        for shards in SHARD_COUNTS {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            for _ in 0..3 {
                let source = NodeId::new(input.gen_range(0..csr.node_count()));
                for (name, on_csr, on_sharded) in &algorithms {
                    let plain = on_csr.search(&csr, source, ttl, &mut rng(search_seed));
                    let split = on_sharded.search(&sharded, source, ttl, &mut rng(search_seed));
                    assert_eq!(
                        plain, split,
                        "case {case}: {name} diverged on {shards} shards from {source} at ttl {ttl}"
                    );
                }
            }
        }
    });
}

/// The batched scheduler is a pure scheduling change: pooled execution over any shard
/// and worker count equals the serial reference loop over the unsharded snapshot,
/// job for job.
#[test]
fn batched_execution_equals_the_serial_unsharded_reference() {
    for_cases(6, |case, input| {
        let csr = random_topology(case, input).freeze();
        let seed: u64 = input.gen_range(0..10_000);

        // Mixed-algorithm batch across random sources and TTLs.
        let plain_table: AlgorithmTable<CsrGraph> = vec![
            Box::new(Flooding::new()),
            Box::new(NormalizedFlooding::new(2)),
            Box::new(RandomWalk::new()),
        ];
        let sharded_table: Arc<AlgorithmTable<ShardedCsr>> = Arc::new(vec![
            Box::new(Flooding::new()),
            Box::new(NormalizedFlooding::new(2)),
            Box::new(RandomWalk::new()),
        ]);
        let mut batch = QueryBatch::new();
        for i in 0..60 {
            batch.push(
                NodeId::new(input.gen_range(0..csr.node_count())),
                i % 3,
                input.gen_range(1..6),
            );
        }
        let reference = run_queries_serial(&csr, &plain_table, &batch, seed);

        for shards in SHARD_COUNTS {
            let sharded = Arc::new(ShardedCsr::from_csr(&csr, shards));
            for workers in [1usize, 2, 4] {
                let pool = WorkerPool::new(EngineConfig::with_workers(workers));
                let pooled = run_queries(&pool, &sharded, &sharded_table, &batch, seed);
                assert_eq!(
                    pooled, reference,
                    "case {case}: batch diverged at {shards} shards / {workers} workers"
                );
            }
        }
    });
}

/// The engine-facing sweep frontends are worker- and shard-count independent too, on the
/// overlay-shaped snapshots the simulator serves.
#[test]
fn batched_sweeps_are_worker_and_shard_independent_on_overlay_snapshots() {
    for_cases(4, |case, input| {
        let csr = aged_overlay_csr(case, input);
        let seed: u64 = input.gen_range(0..10_000);
        let ttls = [1u32, 2, 4];

        let single = Arc::new(ShardedCsr::from_csr(&csr, 1));
        let serial_pool = WorkerPool::new(EngineConfig::with_workers(1));
        let reference = sfoverlay::engine::batched_ttl_sweep(
            &serial_pool,
            &single,
            Box::new(Flooding::new()),
            &ttls,
            20,
            seed,
        );
        let rw_reference = sfoverlay::engine::batched_rw_normalized_to_nf(
            &serial_pool,
            &single,
            2,
            &ttls,
            20,
            seed,
        );

        for shards in SHARD_COUNTS {
            let sharded = Arc::new(ShardedCsr::from_csr(&csr, shards));
            for workers in [2usize, 4] {
                let pool = WorkerPool::new(EngineConfig::with_workers(workers));
                assert_eq!(
                    sfoverlay::engine::batched_ttl_sweep(
                        &pool,
                        &sharded,
                        Box::new(Flooding::new()),
                        &ttls,
                        20,
                        seed,
                    ),
                    reference,
                    "case {case}: FL sweep diverged at {shards} shards / {workers} workers"
                );
                assert_eq!(
                    sfoverlay::engine::batched_rw_normalized_to_nf(
                        &pool, &sharded, 2, &ttls, 20, seed,
                    ),
                    rw_reference,
                    "case {case}: RW/NF sweep diverged at {shards} shards / {workers} workers"
                );
            }
        }
    });
}

/// End to end through the scenario layer: a spec's results are invariant under every
/// combination of the engine knobs, and the sharded-store-under-legacy-sweep path is
/// byte-identical to the unsharded path.
#[test]
fn scenario_results_are_invariant_under_engine_knobs() {
    let base = ScenarioSpec::sweep(
        "shard-equivalence",
        TopologySpec::Ucm {
            nodes: 400,
            gamma: 2.4,
            m: 2,
            cutoff: Some(15),
        },
        SearchSpec::NormalizedFlooding { k_min: None },
        SweepSpec::single(vec![1, 2, 4], 10),
        77,
        2,
    );
    let runner = ScenarioRunner::new();
    let plain = runner.run(&base).unwrap();
    // Legacy sweep over a sharded store: byte-identical results.
    for shards in SHARD_COUNTS {
        let mut spec = base.clone();
        spec.sweep.as_mut().unwrap().shard_count = shards;
        let sharded = runner.run(&spec).unwrap();
        assert_eq!(sharded.result, plain.result, "{shards} shards (serial)");
    }
    // Batched execution: one reference, invariant across thread and shard counts.
    let mut batched = base.clone();
    batched.sweep.as_mut().unwrap().batch = true;
    let reference = runner.run(&batched).unwrap();
    for shards in SHARD_COUNTS {
        let mut spec = batched.clone();
        let sweep = spec.sweep.as_mut().unwrap();
        sweep.shard_count = shards;
        sweep.threads = 1 + (shards % 4);
        let report = runner.run(&spec).unwrap();
        assert_eq!(report.result, reference.result, "{shards} shards (batched)");
    }
}
