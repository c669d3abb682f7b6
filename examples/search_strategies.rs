//! Search-strategy shoot-out: every implemented search algorithm on the same overlay, with
//! and without a hard cutoff.
//!
//! The paper compares flooding (FL), normalized flooding (NF), and random walks (RW); its
//! related-work section also points to probabilistic flooding, expanding-ring search, and
//! the high-degree-seeking walk of Adamic et al. This example runs all six on a
//! preferential-attachment overlay and shows (i) how many peers each reaches per message and
//! (ii) how the picture changes once every peer caps its neighbor table at `k_c = 10`.
//!
//! ```text
//! cargo run --release --example search_strategies
//! ```

use rand::SeedableRng;
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::ttl_sweep;
use sfoverlay::search::success_probability;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let n = 4_000;
    let ttl = 8u32;
    let replicas = 20usize; // how widely the item we pretend to look for is replicated

    for cutoff in [DegreeCutoff::Unbounded, DegreeCutoff::hard(10)] {
        let overlay = PreferentialAttachment::new(n, 2)?
            .with_cutoff(cutoff)
            .generate(&mut rng)?;
        println!(
            "\n=== PA overlay, m=2, {} peers, {} — max degree {} ===",
            overlay.node_count(),
            cutoff,
            overlay.max_degree().unwrap()
        );
        println!(
            "{:<12} | {:>9} | {:>10} | {:>10} | {:>12}",
            "algorithm", "hits", "messages", "hits/msg", "P(find item)"
        );

        let algorithms: Vec<(&str, Box<dyn SearchAlgorithm>)> = vec![
            ("FL", Box::new(Flooding::new())),
            ("NF k=2", Box::new(NormalizedFlooding::new(2))),
            ("pFL p=0.5", Box::new(ProbabilisticFlooding::new(0.5))),
            ("ring 1+2", Box::new(ExpandingRing::new(1, 2))),
            ("RW", Box::new(RandomWalk::new())),
            ("HD-RW", Box::new(DegreeBiasedWalk::new())),
        ];
        for (name, algorithm) in &algorithms {
            let outcome = &ttl_sweep(&overlay, algorithm.as_ref(), &[ttl], 60, &mut rng)[0];
            let p_find = success_probability(outcome.mean_hits as usize, replicas, n);
            println!(
                "{:<12} | {:>9.1} | {:>10.1} | {:>10.3} | {:>12.3}",
                name,
                outcome.mean_hits,
                outcome.mean_messages,
                if outcome.mean_messages > 0.0 {
                    outcome.mean_hits / outcome.mean_messages
                } else {
                    0.0
                },
                p_find,
            );
        }
    }

    println!(
        "\nReading the table: the hard cutoff shrinks FL's raw coverage but *raises* the\n\
         hits-per-message of the practical algorithms (NF and the walks) — the paper's central\n\
         observation — while the hub-seeking HD-RW loses the super-hubs it relies on."
    );
    Ok(())
}
