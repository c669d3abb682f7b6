//! # sfo-search
//!
//! Decentralized search algorithms for unstructured peer-to-peer overlays, as studied in
//! the paper's evaluation (§V):
//!
//! * [`flooding`] — Flooding (FL): every node forwards the query to all neighbors except
//!   the one it came from, up to a time-to-live `τ`. The best possible coverage, at an
//!   unscalable message cost.
//! * `normalized` — Normalized Flooding (NF): nodes forward to at most `k_min` randomly
//!   chosen neighbors, giving flooding-like parallelism with far better granularity.
//! * `random_walk` — Random Walk (RW) and multiple parallel walks: one message hops
//!   through the network, trading delivery time for minimal traffic.
//!
//! Beyond the paper's three algorithms, the crate implements the practical variants its
//! related-work section points to, so they can be compared on the same topologies:
//!
//! * `probabilistic` — gossip-style probabilistic flooding (refs. \[29, 30\]);
//! * `expanding_ring` — successive floods of growing radius (Lv et al., ref. \[23\]);
//! * `biased_walk` — the high-degree-seeking walk of Adamic et al. (ref. \[62\]);
//! * `coverage` — coverage-curve, granularity, and item-hit-probability metrics.
//!
//! `forwarding` holds the one copy of each flooding rule and the level loop that runs
//! it; [`random_walk::next_hop`] is the one walker step. Placed execution and the item
//! lookups call both, so every path runs a rule with the same RNG draws.
//!
//! The [`experiment`] module reproduces the paper's measurement methodology: hits
//! (distinct peers reached) and messages per search, averaged over random sources and
//! network realizations, with the RW time-to-live normalized to the message count of the
//! corresponding NF search so the two are compared at equal cost (§V-B).
//!
//! # Example
//!
//! ```
//! use sfo_graph::generators::complete_graph;
//! use sfo_graph::NodeId;
//! use sfo_search::{flooding::Flooding, SearchAlgorithm};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = complete_graph(10)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let outcome = Flooding::new().search(&graph, NodeId::new(0), 1, &mut rng);
//! assert_eq!(outcome.hits, 9); // one hop reaches everyone in a clique
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biased_walk;
mod coverage;
mod expanding_ring;
mod forwarding;
mod normalized;
mod outcome;
mod probabilistic;
mod random_walk;
mod scratch;

pub mod experiment;
pub mod flooding;

pub use biased_walk::DegreeBiasedWalk;
pub use coverage::{
    coverage_curve, granularity, success_probability, CoveragePoint, GranularityPoint,
};
pub use expanding_ring::ExpandingRing;
pub use forwarding::Forwarding;
pub use normalized::NormalizedFlooding;
pub use outcome::{SearchAlgorithm, SearchInfo, SearchOutcome};
pub use probabilistic::ProbabilisticFlooding;
pub use random_walk::{next_hop, MultipleRandomWalk, RandomWalk};
pub use scratch::{SearchScratch, VisitedSet};
