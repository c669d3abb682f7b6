//! Gnutella-like overlay construction with purely local information (DAPA).
//!
//! Builds a geometric-random-network substrate (an abstraction of the underlying Internet
//! topology), grows a DAPA overlay on it for several local TTL values `τ_sub`, and shows
//! how locality changes the degree distribution and the normalized-flooding search
//! efficiency — the scenario motivating the paper's fully local join mechanism.
//!
//! ```text
//! cargo run --release --example gnutella_overlay
//! ```

use rand::SeedableRng;
use sfoverlay::graph::generators::GeometricRandomNetwork;
use sfoverlay::graph::traversal;
use sfoverlay::prelude::*;
use sfoverlay::search::experiment::ttl_sweep;
use sfoverlay::topology::DiscoverAndAttempt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Substrate: N_S = 8000 nodes, average degree 10 (the paper uses 2e4 nodes).
    let (substrate, _positions) =
        GeometricRandomNetwork::with_average_degree(8_000, 10.0)?.generate(&mut rng)?;
    println!(
        "substrate: {} nodes, {} links, giant component {:.1}%",
        substrate.node_count(),
        substrate.edge_count(),
        100.0 * traversal::giant_component_fraction(&substrate)
    );

    // Overlay: N_O = 4000 peers, m = 2 stubs, hard cutoff 40, for three horizons.
    for tau_sub in [2u32, 6, 20] {
        let overlay = DiscoverAndAttempt::new(4_000, 2, tau_sub)?
            .with_cutoff(DegreeCutoff::hard(40))
            .generate_on(&substrate, &mut rng)?;
        let graph = &overlay.graph;
        let histogram = sfoverlay::graph::degree_histogram(graph);
        let nf = ttl_sweep(graph, &NormalizedFlooding::new(2), &[4, 8], 50, &mut rng);
        println!(
            "\ntau_sub = {tau_sub:>2}: max degree {:>3}, mean degree {:.2}, peers at cutoff {:>3}, failed discoveries {}",
            graph.max_degree().unwrap(),
            graph.average_degree(),
            histogram.count(40),
            overlay.failed_discoveries
        );
        for point in nf {
            println!(
                "    NF tau={:<2}  hits {:>8.1}  messages {:>8.1}",
                point.ttl, point.mean_hits, point.mean_messages
            );
        }
    }

    println!(
        "\nlarger tau_sub (more discovery effort at join time) recovers a heavier-tailed overlay\n\
         and better search coverage, matching Fig. 4 and Fig. 10 of the paper."
    );
    Ok(())
}
