//! Measurement harness reproducing the paper's search-efficiency methodology (§V-B).
//!
//! For each time-to-live `τ`, a search is launched from many uniformly random source peers
//! and the hit and message counts are averaged. Random walks are compared *at equal cost*:
//! the RW hop budget for a point labelled `τ` is set to the number of messages the NF
//! search with that `τ` generated in the same scenario — the normalization the paper (and
//! Gkantsidis et al.) use so that Figs. 9/10 and Figs. 11/12 share an x axis.
//!
//! Every harness function is generic over [`GraphView`], so sweeps run equally on a
//! mutable [`Graph`](sfo_graph::Graph) or on a frozen
//! [`CsrGraph`](sfo_graph::CsrGraph) snapshot. The figure harness freezes each
//! realization once and runs all TTL sweeps against the snapshot; for a fixed seed the
//! outcomes are identical on either backend.

use crate::normalized::NormalizedFlooding;
use crate::random_walk::RandomWalk;
use crate::{SearchAlgorithm, SearchOutcome};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use sfo_graph::{GraphView, NodeId};

/// Hits and messages averaged over many random source peers for one `τ` value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AveragedOutcome {
    /// The time-to-live this point corresponds to (for RW curves, the TTL of the NF search
    /// whose message count set the walk budget).
    pub ttl: u32,
    /// Mean number of distinct peers reached per search.
    pub mean_hits: f64,
    /// Mean number of messages per search.
    pub mean_messages: f64,
    /// Number of searches averaged.
    pub searches: usize,
}

impl AveragedOutcome {
    /// Folds raw per-search outcomes into the averaged point for `ttl`.
    ///
    /// This is the single averaging rule of the workspace — the serial harness below
    /// and the batched sweeps in `sfo-engine` both produce their points through it.
    pub fn from_outcomes(ttl: u32, outcomes: &[SearchOutcome]) -> Self {
        let n = outcomes.len().max(1) as f64;
        AveragedOutcome {
            ttl,
            mean_hits: outcomes.iter().map(|o| o.hits as f64).sum::<f64>() / n,
            mean_messages: outcomes.iter().map(|o| o.messages as f64).sum::<f64>() / n,
            searches: outcomes.len(),
        }
    }
}

/// Derives the RNG for stream `index` of a family labelled by `salt` under a master
/// `seed`.
///
/// This is the single stream-derivation rule of the workspace: the engine's batches use
/// it for per-job streams, and the figure harness in
/// `sfo-experiments` uses it for per-realization streams (`salt` hashed from the series
/// label) — so independent streams are derived identically everywhere. The golden-ratio
/// multiply decorrelates consecutive indices; the salt rotation keeps label families
/// apart.
pub fn stream_rng(seed: u64, salt: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ salt.rotate_left(17) ^ ((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Hashes a series label into the salt of its stream family.
///
/// An FNV-style xor-and-multiply fold; note the multiplier is a historical constant of
/// this workspace, *not* the 64-bit FNV prime — do not "correct" it, every seeded
/// fixture and the scenario layer's bit-identical-reproduction guarantee depend on these
/// exact stream identities.
///
/// Both the figure harness in `sfo-experiments` and the scenario runner in
/// `sfo-scenario` derive their per-realization RNG streams as
/// `stream_rng(seed, label_salt(label), realization)`, so a curve labelled the same way
/// sees the same topologies no matter which harness runs it.
pub fn label_salt(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

fn random_source<G: GraphView + ?Sized, R: Rng + ?Sized>(graph: &G, rng: &mut R) -> NodeId {
    NodeId::new(rng.gen_range(0..graph.node_count()))
}

/// Runs `searches` searches with the given algorithm and TTL from uniformly random sources
/// and averages the outcomes.
///
/// # Panics
///
/// Panics if `graph` has no nodes.
pub fn average_over_sources<G: GraphView + ?Sized>(
    graph: &G,
    algorithm: &dyn SearchAlgorithm<G>,
    ttl: u32,
    searches: usize,
    rng: &mut dyn RngCore,
) -> AveragedOutcome {
    assert!(graph.node_count() > 0, "cannot search an empty graph");
    let outcomes: Vec<SearchOutcome> = (0..searches)
        .map(|_| {
            let source = random_source(graph, rng);
            algorithm.search(graph, source, ttl, rng)
        })
        .collect();
    AveragedOutcome::from_outcomes(ttl, &outcomes)
}

/// Runs [`average_over_sources`] for every TTL in `ttls`.
pub fn ttl_sweep<G: GraphView + ?Sized>(
    graph: &G,
    algorithm: &dyn SearchAlgorithm<G>,
    ttls: &[u32],
    searches: usize,
    rng: &mut dyn RngCore,
) -> Vec<AveragedOutcome> {
    ttls.iter()
        .map(|&ttl| average_over_sources(graph, algorithm, ttl, searches, rng))
        .collect()
}

/// Runs a TTL sweep of random-walk searches whose hop budget is normalized to the message
/// cost of normalized flooding.
///
/// For each TTL `τ` and each random source, an NF search with fan-out `k_min` is run first;
/// the number of messages it produced becomes the hop budget of an RW search from the same
/// source. The reported point keeps `τ` as its abscissa, exactly like Figs. 11 and 12.
pub fn rw_normalized_to_nf<G: GraphView + ?Sized>(
    graph: &G,
    k_min: usize,
    ttls: &[u32],
    searches: usize,
    rng: &mut dyn RngCore,
) -> Vec<AveragedOutcome> {
    assert!(graph.node_count() > 0, "cannot search an empty graph");
    let nf = NormalizedFlooding::new(k_min);
    let rw = RandomWalk::new();
    ttls.iter()
        .map(|&ttl| {
            let outcomes: Vec<SearchOutcome> = (0..searches)
                .map(|_| {
                    let source = random_source(graph, rng);
                    let nf_outcome = nf.search(graph, source, ttl, rng);
                    let budget = u32::try_from(nf_outcome.messages).unwrap_or(u32::MAX);
                    rw.search(graph, source, budget, rng)
                })
                .collect();
            AveragedOutcome::from_outcomes(ttl, &outcomes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::Flooding;
    use sfo_graph::generators::{complete_graph, ring_graph};
    use sfo_graph::Graph;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn averaging_over_a_vertex_transitive_graph_is_exact() {
        // Every source of a cycle sees the same neighborhood, so the average is exact.
        let g = ring_graph(30, 1).unwrap();
        let avg = average_over_sources(&g, &Flooding::new(), 3, 10, &mut rng(1));
        assert_eq!(avg.ttl, 3);
        assert_eq!(avg.searches, 10);
        assert!((avg.mean_hits - 6.0).abs() < 1e-12);
        assert!((avg.mean_messages - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_produces_monotone_hits_for_flooding() {
        let g = ring_graph(60, 2).unwrap();
        let sweep = ttl_sweep(&g, &Flooding::new(), &[1, 2, 4, 8], 20, &mut rng(2));
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(w[1].mean_hits >= w[0].mean_hits);
        }
    }

    #[test]
    fn sweeps_are_identical_on_graph_and_frozen_snapshot() {
        let g = ring_graph(40, 2).unwrap();
        let frozen = g.freeze();
        let on_graph = ttl_sweep(&g, &Flooding::new(), &[1, 3, 5], 15, &mut rng(8));
        let on_csr = ttl_sweep(&frozen, &Flooding::new(), &[1, 3, 5], 15, &mut rng(8));
        assert_eq!(on_graph, on_csr);
    }

    #[test]
    fn rw_normalization_spends_about_the_nf_message_budget() {
        let g = complete_graph(60).unwrap();
        let points = rw_normalized_to_nf(&g, 2, &[2, 4], 25, &mut rng(3));
        assert_eq!(points.len(), 2);
        for (point, ttl) in points.iter().zip([2u32, 4]) {
            assert_eq!(point.ttl, ttl);
            // NF with fan-out 2 generates at most 2 + 4 + ... messages; RW spends exactly that
            // budget unless it gets stuck, which cannot happen in a clique.
            let nf_budget_upper: f64 = (1..=ttl).map(|t| 2f64.powi(t as i32)).sum();
            assert!(point.mean_messages <= nf_budget_upper + 1e-9);
            assert!(point.mean_messages >= 2.0);
            assert!(point.mean_hits > 0.0);
        }
    }

    #[test]
    fn parallel_average_matches_search_count_and_is_deterministic() {
        let g = ring_graph(80, 2).unwrap();
        let a = average_over_sources(&g, &Flooding::new(), 3, 37, &mut stream_rng(99, 0, 4));
        let b = average_over_sources(&g, &Flooding::new(), 3, 37, &mut stream_rng(99, 0, 4));
        assert_eq!(a, b);
        assert_eq!(a.searches, 37);
        // The cycle is vertex transitive, so the sampled average equals the exact value.
        assert!(
            (a.mean_hits - average_over_sources(&g, &Flooding::new(), 3, 5, &mut rng(1)).mean_hits)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn parallel_average_runs_on_a_frozen_snapshot() {
        let g = ring_graph(80, 2).unwrap();
        let frozen = g.freeze();
        let on_graph = average_over_sources(&g, &Flooding::new(), 3, 16, &mut rng(5));
        let on_csr = average_over_sources(&frozen, &Flooding::new(), 3, 16, &mut rng(5));
        assert_eq!(on_graph, on_csr);
    }

    #[test]
    fn stream_rng_separates_indices_and_salts() {
        use rand::RngCore as _;
        let a = stream_rng(1, 0, 0).next_u64();
        let b = stream_rng(1, 0, 1).next_u64();
        let c = stream_rng(1, 7, 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stream_rng(1, 0, 0).next_u64());
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_is_rejected() {
        let g = Graph::new();
        let _ = average_over_sources(&g, &Flooding::new(), 1, 1, &mut rng(1));
    }
}
