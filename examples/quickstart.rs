//! Quickstart: generate a scale-free overlay with a hard cutoff, inspect its degree
//! distribution, and compare flooding against normalized flooding on it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use sfoverlay::analysis::fit_exponent_from_counts;
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::{average_over_sources, ttl_sweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);

    // 1. Build a 5000-peer overlay with preferential attachment, 2 links per joining peer,
    //    and a hard cutoff of 20 entries per neighbor table.
    let n = 5_000;
    let cutoff = DegreeCutoff::hard(20);
    let overlay = PreferentialAttachment::new(n, 2)?
        .with_cutoff(cutoff)
        .generate(&mut rng)?;
    println!(
        "overlay: {} peers, {} links, max degree {}",
        overlay.node_count(),
        overlay.edge_count(),
        overlay.max_degree().unwrap()
    );

    // 2. Look at its degree distribution and fitted power-law exponent.
    let histogram = sfoverlay::graph::degree_histogram(&overlay);
    if let Some(fit) = fit_exponent_from_counts(&histogram.counts, 2, 19) {
        println!(
            "degree distribution: gamma ~= {:.2} (R^2 = {:.3})",
            fit.gamma, fit.r_squared
        );
    }
    println!("peers pinned at the cutoff k=20: {}", histogram.count(20));

    // 3. Compare flooding and normalized flooding at a few TTLs.
    let ttls = [2u32, 4, 6, 8];
    let fl = ttl_sweep(&overlay, &Flooding::new(), &ttls, 50, &mut rng);
    let nf = ttl_sweep(&overlay, &NormalizedFlooding::new(2), &ttls, 50, &mut rng);
    println!("\n tau |      FL hits |   FL msgs |   NF hits |   NF msgs");
    for (f, n) in fl.iter().zip(&nf) {
        println!(
            "{:>4} | {:>12.1} | {:>9.1} | {:>9.1} | {:>9.1}",
            f.ttl, f.mean_hits, f.mean_messages, n.mean_hits, n.mean_messages
        );
    }

    // 4. A single random walk with the same message budget as the NF search at tau = 6.
    let nf_at_6 = nf
        .iter()
        .find(|o| o.ttl == 6)
        .expect("tau=6 is in the sweep");
    let rw = average_over_sources(
        &overlay,
        &RandomWalk::new(),
        nf_at_6.mean_messages as u32,
        50,
        &mut rng,
    );
    println!(
        "\nrandom walk with the NF tau=6 message budget ({:.0} messages): {:.1} hits on average",
        nf_at_6.mean_messages, rw.mean_hits
    );
    Ok(())
}
