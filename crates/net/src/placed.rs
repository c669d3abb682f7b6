//! Wire-side support for placed execution: the canonical shard partition, the
//! `SearchSpec` → [`PlacedAlgorithm`] compilation, semantic validation of decoded
//! frontiers, and the shard-shipment builder.
//!
//! Placement never ships routing tables. The partition is *canonical arithmetic*:
//! shard `i` of `s` over `n` nodes owns [`shard_range`]`(n, s, i)`, the same
//! contiguous near-equal split [`sfo_engine::ShardedCsr`] computes — so every
//! endpoint (dispatcher, shard host, test oracle) derives ownership from three
//! integers and can never disagree.

use crate::message::ShardPayload;
use crate::NetError;
use rand::Rng;
use sfo_engine::{placed_start, PlacedAlgorithm, PlacedState, NO_NODE};
use sfo_graph::CsrGraph;
use sfo_scenario::SearchSpec;
use std::ops::Range;

/// The node range shard `index` of `shard_count` owns over `node_count` nodes: the
/// first `node_count % shard_count` shards hold one extra node. Identical to the
/// [`sfo_engine::ShardedCsr`] partition whenever `shard_count <= node_count`; beyond
/// that, surplus shards own empty ranges.
///
/// # Panics
///
/// Panics if `shard_count` is zero or `index` is not a shard index.
pub fn shard_range(node_count: usize, shard_count: usize, index: usize) -> Range<usize> {
    assert!(
        shard_count > 0 && index < shard_count,
        "shard {index} of {shard_count} is not a placement"
    );
    let base = node_count / shard_count;
    let big = node_count % shard_count;
    let start = index * base + index.min(big);
    start..start + base + usize::from(index < big)
}

/// The shard owning `node` under the canonical partition — the placed routing
/// function.
///
/// # Panics
///
/// Panics if `shard_count` is zero or `node` is out of bounds.
pub fn shard_of(node: usize, node_count: usize, shard_count: usize) -> usize {
    assert!(
        shard_count > 0 && node < node_count,
        "node {node} out of bounds for a {node_count}-node snapshot"
    );
    let base = node_count / shard_count;
    let big = node_count % shard_count;
    let cut = big * (base + 1);
    if node < cut {
        node / (base + 1)
    } else {
        big + (node - cut) / base
    }
}

/// Compiles a [`SearchSpec`] to its placed equivalent, resolving `k_min: None` to the
/// topology's `m` exactly as [`SearchSpec::build_for`] does.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] for expanding-ring (its rings restart whole floods)
/// and the degree-biased walk (it reads neighbor *degrees*, rows no shard host
/// owns) — the two shapes placed execution cannot route row by row.
pub fn placed_algorithm(search: &SearchSpec, m: usize) -> Result<PlacedAlgorithm, NetError> {
    match *search {
        SearchSpec::Flooding => Ok(PlacedAlgorithm::Flooding),
        SearchSpec::NormalizedFlooding { k_min } => Ok(PlacedAlgorithm::NormalizedFlooding {
            k_min: k_min.unwrap_or(m).max(1),
        }),
        SearchSpec::ProbabilisticFlooding { p } => Ok(PlacedAlgorithm::ProbabilisticFlooding { p }),
        SearchSpec::RandomWalk => Ok(PlacedAlgorithm::RandomWalk),
        SearchSpec::MultipleRandomWalk { walkers } => {
            Ok(PlacedAlgorithm::MultipleRandomWalk { walkers })
        }
        SearchSpec::RwNormalizedToNf { k_min } => Ok(PlacedAlgorithm::RwNormalizedToNf {
            k_min: k_min.unwrap_or(m).max(1),
        }),
        SearchSpec::ExpandingRing { .. } | SearchSpec::DegreeBiasedWalk => {
            Err(NetError::protocol(format!(
                "search {:?} is not supported under placed execution; run it against \
                 whole-snapshot workers",
                search.name()
            )))
        }
    }
}

/// Checks a decoded frontier against the id space of the snapshot it claims to run
/// on — every node reference in bounds and every visited word inside the bitset —
/// so resuming it can never panic the host, and its queue against the shape every
/// honest flood ships: depths never decrease, span at most one BFS level, and never
/// exceed the TTL.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] naming the out-of-range field or the broken queue
/// invariant.
pub fn validate_state(state: &PlacedState, node_count: usize) -> Result<(), NetError> {
    let node_ok = |node: u32| (node as usize) < node_count;
    let from_ok = |node: u32| node == NO_NODE || node_ok(node);
    if !node_ok(state.source) {
        return Err(NetError::protocol(format!(
            "frontier source {} out of bounds for {node_count} nodes",
            state.source
        )));
    }
    if !node_ok(state.current) || !from_ok(state.previous) {
        return Err(NetError::protocol(format!(
            "frontier walker position {}/{} out of bounds for {node_count} nodes",
            state.current, state.previous
        )));
    }
    if let Some(&(node, from, _)) = state
        .queue
        .iter()
        .find(|&&(node, from, _)| !node_ok(node) || !from_ok(from))
    {
        return Err(NetError::protocol(format!(
            "frontier queue entry ({node}, {from}) out of bounds for {node_count} nodes"
        )));
    }
    if let Some(pair) = state.queue.windows(2).find(|pair| pair[1].2 < pair[0].2) {
        return Err(NetError::protocol(format!(
            "frontier queue depths decrease ({} then {})",
            pair[0].2, pair[1].2
        )));
    }
    if let (Some(&(_, _, low)), Some(&(_, _, high))) = (state.queue.first(), state.queue.last()) {
        if high - low > 1 {
            return Err(NetError::protocol(format!(
                "frontier queue spans depths {low}..={high}, more than one BFS level"
            )));
        }
        if high > state.ttl {
            return Err(NetError::protocol(format!(
                "frontier queue depth {high} exceeds the ttl {}",
                state.ttl
            )));
        }
    }
    let words = node_count.div_ceil(64);
    if let Some(&(word, _)) = state
        .visited
        .iter()
        .find(|&&(word, _)| word as usize >= words)
    {
        return Err(NetError::protocol(format!(
            "frontier visited word {word} out of bounds for {node_count} nodes"
        )));
    }
    Ok(())
}

/// Cuts shard `index` of `shard_count` out of `csr` as the shipment for its host.
///
/// # Panics
///
/// Panics if `shard_count` is zero or `index` is not a shard index.
pub fn shard_payload(
    csr: &CsrGraph,
    identity: u64,
    shard_count: usize,
    index: usize,
) -> ShardPayload {
    ShardPayload {
        identity,
        shard_index: index as u32,
        shard_count: shard_count as u32,
        slice: csr.extract_slice(shard_range(csr.node_count(), shard_count, index)),
    }
}

/// The initial [`PlacedState`] of global sweep job `global`: the serial job prelude
/// (per-job RNG stream, one source draw) followed by [`placed_start`], leaving the
/// RNG stream exactly where the serial algorithm would first read it.
pub(crate) fn sweep_job_state(
    algorithm: PlacedAlgorithm,
    seed: u64,
    global: usize,
    ttl: u32,
    node_count: usize,
) -> PlacedState {
    let mut rng = sfo_engine::job_rng(seed, global);
    let source = sfo_graph::NodeId::new(rng.gen_range(0..node_count));
    placed_start(algorithm, source, ttl, rng.state_words())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_range_partitions_exactly_and_matches_sharded_csr() {
        for (n, s) in [(10usize, 3usize), (500, 7), (6, 6), (5, 8), (0, 2), (1, 1)] {
            let mut covered = 0usize;
            for i in 0..s {
                let range = shard_range(n, s, i);
                assert_eq!(range.start, covered, "shard {i} of {s} over {n}");
                covered = range.end;
                for node in range.clone() {
                    assert_eq!(
                        shard_of(node, n, s),
                        i,
                        "node {node} ({n} nodes, {s} shards)"
                    );
                }
            }
            assert_eq!(covered, n);
        }
        // Against the engine's partition, which clamps instead of allowing empties.
        let csr = sfo_graph::generators::ring_graph(23, 2).unwrap().freeze();
        for s in [1usize, 2, 5, 7, 23] {
            let sharded = sfo_engine::ShardedCsr::from_csr(&csr, s);
            for (i, shard) in sharded.shards().iter().enumerate() {
                assert_eq!(shard.node_range(), shard_range(23, s, i));
            }
        }
    }

    #[test]
    fn placed_algorithm_resolves_k_min_and_refuses_row_hungry_shapes() {
        assert_eq!(
            placed_algorithm(&SearchSpec::NormalizedFlooding { k_min: None }, 3).unwrap(),
            PlacedAlgorithm::NormalizedFlooding { k_min: 3 }
        );
        assert_eq!(
            placed_algorithm(&SearchSpec::RwNormalizedToNf { k_min: Some(5) }, 3).unwrap(),
            PlacedAlgorithm::RwNormalizedToNf { k_min: 5 }
        );
        for unsupported in [
            SearchSpec::ExpandingRing {
                initial_ttl: 1,
                increment: 1,
            },
            SearchSpec::DegreeBiasedWalk,
        ] {
            assert!(matches!(
                placed_algorithm(&unsupported, 2),
                Err(NetError::Protocol { .. })
            ));
        }
    }

    #[test]
    fn state_validation_catches_every_out_of_range_field() {
        let base = placed_start(
            PlacedAlgorithm::Flooding,
            sfo_graph::NodeId::new(3),
            2,
            [1, 2, 3, 4],
        );
        assert!(validate_state(&base, 10).is_ok());
        let mut bad = base.clone();
        bad.source = 10;
        assert!(validate_state(&bad, 10).is_err());
        let mut bad = base.clone();
        bad.current = 99;
        assert!(validate_state(&bad, 10).is_err());
        let mut bad = base.clone();
        bad.queue.push((3, 11, 1));
        assert!(validate_state(&bad, 10).is_err());
        let mut bad = base.clone();
        bad.visited.push((1, 1));
        assert!(validate_state(&bad, 10).is_err());
        assert!(validate_state(&base, 4).is_ok());
        assert!(validate_state(&base, 3).is_err());
        // The queue shape: a FIFO level or a deferred-first one passes; depths that
        // decrease, span two levels, or pass the ttl do not.
        let with_queue = |queue: Vec<(u32, u32, u32)>| PlacedState {
            queue,
            ..base.clone()
        };
        assert!(validate_state(&with_queue(vec![(4, 3, 1), (5, 3, 1), (6, 4, 2)]), 10).is_ok());
        for hostile in [
            vec![(4, 3, 1), (5, 3, 0)],
            vec![(3, NO_NODE, 0), (4, 3, 2)],
            vec![(4, 3, 2), (5, 4, 3)],
        ] {
            assert!(
                matches!(
                    validate_state(&with_queue(hostile.clone()), 10),
                    Err(NetError::Protocol { .. })
                ),
                "{hostile:?}"
            );
        }
    }
}
