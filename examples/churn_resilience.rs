//! Churn resilience: a live overlay with hard cutoffs under continuous join/leave/crash
//! events, serving a Zipf query workload (the paper's future-work scenario, built on
//! `sfo-sim`).
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use rand::SeedableRng;
use sfoverlay::prelude::*;
use sfoverlay::sim::QueryMethod;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (label, cutoff) in [
        ("k_c = 10", DegreeCutoff::hard(10)),
        ("unbounded", DegreeCutoff::Unbounded),
    ] {
        let config = SimulationConfig {
            initial_peers: 1_000,
            duration: 500,
            join_rate: 1.0,
            leave_rate: 0.8,
            crash_rate: 0.2,
            query_rate: 5.0,
            query_ttl: 6,
            query_method: QueryMethod::NormalizedFlooding { k_min: 3 },
            overlay: OverlayConfig {
                stubs: 3,
                cutoff,
                join_strategy: JoinStrategy::HopAndAttempt {
                    max_hops_per_link: 200,
                },
                repair_on_leave: true,
            },
            catalog_items: 200,
            catalog_skew: 1.0,
            base_replicas: 40,
            snapshot_interval: 50,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let report = Simulation::new(config)?.run(&mut rng)?;

        println!("== overlay with {label} ==");
        println!(
            "churn: {} joins, {} leaves, {} crashes; {:.1} control messages per churn event",
            report.joins,
            report.leaves,
            report.crashes,
            report.mean_churn_messages()
        );
        println!(
            "queries: {} issued, success rate {:.1}%, {:.1} messages per query, {:.2} hops to first replica",
            report.queries_issued,
            100.0 * report.success_rate(),
            report.mean_query_messages(),
            report.mean_hops_to_find()
        );
        println!("overlay health over time:");
        println!("   time | peers | mean degree | max degree | giant component");
        for sample in &report.samples {
            println!(
                "  {:>5} | {:>5} | {:>11.2} | {:>10} | {:>14.1}%",
                sample.time,
                sample.peers,
                sample.mean_degree,
                sample.max_degree,
                100.0 * sample.giant_component_fraction
            );
        }
        println!();
    }

    println!(
        "with m = 3 links per peer and leave-repair enabled, the hard cutoff barely hurts\n\
         query success while keeping every peer's neighbor table small - the guideline the\n\
         paper derives for unstructured P2P networks."
    );
    Ok(())
}
