//! Hard-cutoff sweep: how the cutoff value changes the degree exponent and the efficiency
//! of practical search algorithms.
//!
//! Reproduces the paper's central observation in miniature: normalized flooding and random
//! walks can do *better* on topologies with smaller hard cutoffs, as long as peers keep 2-3
//! links to the network.
//!
//! ```text
//! cargo run --release --example cutoff_sweep
//! ```

use rand::SeedableRng;
use sfoverlay::analysis::fit_exponent_from_counts;
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::{rw_normalized_to_nf, ttl_sweep};
use sfoverlay::topology::pa_natural_cutoff;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4_000;
    let m = 2;
    let tau = 8u32;
    println!(
        "PA topologies with N = {n}, m = {m}; natural cutoff would be about {:.0}",
        pa_natural_cutoff(n, m)?
    );
    println!("\n  k_c | gamma fit | NF hits (tau={tau}) | RW hits (normalized) | max degree");

    for cutoff in [Some(10usize), Some(20), Some(40), Some(100), None] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let degree_cutoff = DegreeCutoff::from(cutoff);
        let overlay = PreferentialAttachment::new(n, m)?
            .with_cutoff(degree_cutoff)
            .generate(&mut rng)?;

        let histogram = sfoverlay::graph::degree_histogram(&overlay);
        let fit_max = cutoff
            .map(|k| k - 1)
            .unwrap_or(overlay.max_degree().unwrap());
        let gamma = fit_exponent_from_counts(&histogram.counts, m, fit_max)
            .map(|f| f.gamma)
            .unwrap_or(f64::NAN);

        let nf = ttl_sweep(&overlay, &NormalizedFlooding::new(m), &[tau], 80, &mut rng);
        let rw = rw_normalized_to_nf(&overlay, m, &[tau], 80, &mut rng);

        let label = cutoff
            .map(|k| k.to_string())
            .unwrap_or_else(|| "none".to_string());
        println!(
            "{:>5} | {:>9.2} | {:>17.1} | {:>20.1} | {:>10}",
            label,
            gamma,
            nf[0].mean_hits,
            rw[0].mean_hits,
            overlay.max_degree().unwrap()
        );
    }

    println!(
        "\nsmaller cutoffs lower the fitted exponent but *raise* NF/RW hit counts:\n\
         the links that would have piled onto a hub are spread over the network instead."
    );
    Ok(())
}
