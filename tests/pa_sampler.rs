//! The capped-PA sampler against the `Graph`-based loop it replaced.
//!
//! `PreferentialAttachment` draws straight into CSR arrays: a `u32` degree vector, the
//! joining node's row held locally, a `u32` stub list and an insertion-ordered edge
//! list. This file keeps the loop it replaced — the same stub-list rejection sampling,
//! weighted fallback scan and saturation `break`, over a mutable `Graph` — as a
//! test-only oracle, and requires for every case:
//!
//! * identical CSR arrays from `generate_frozen` and from the oracle's `freeze`;
//! * identical rows from `generate` (the thawed form);
//! * the same next word of the RNG stream afterwards, so everything drawn after the
//!   topology (a sweep, a snapshot's `sweep_seed`) is unchanged too.
//!
//! The grid covers the smallest legal network (`m + 2` nodes) up to 10^4 nodes, cutoffs
//! that saturate the seed at once (`k_c = m`) or almost (`k_c = m + 1`), and an attempt
//! budget of one draw, so the fallback scan and the saturation `break` both run.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sfoverlay::graph::generators::complete_graph;
use sfoverlay::graph::{Graph, NodeId};
use sfoverlay::topology::pa::{PreferentialAttachment, DEFAULT_MAX_ATTEMPTS};
use sfoverlay::topology::{DegreeCutoff, TopologyGenerator};

/// The stub-list loop as it ran over a mutable `Graph`.
fn oracle(
    nodes: usize,
    m: usize,
    cutoff: DegreeCutoff,
    max_attempts: usize,
    rng: &mut StdRng,
) -> Graph {
    let seed_size = m + 1;
    let mut graph = complete_graph(seed_size).unwrap();
    graph.add_nodes(nodes - seed_size);
    let mut stub_list: Vec<NodeId> = Vec::new();
    for node in 0..seed_size {
        for _ in 0..m {
            stub_list.push(NodeId::new(node));
        }
    }
    for i in seed_size..nodes {
        let new_node = NodeId::new(i);
        for _ in 0..m {
            let mut target = None;
            for _ in 0..max_attempts {
                let candidate = stub_list[rng.gen_range(0..stub_list.len())];
                if candidate == new_node
                    || !cutoff.admits(graph.degree(candidate))
                    || graph.contains_edge(new_node, candidate)
                {
                    continue;
                }
                target = Some(candidate);
                break;
            }
            let target = match target.or_else(|| fallback(&graph, cutoff, new_node, i, rng)) {
                Some(t) => t,
                None => break,
            };
            graph.add_edge(new_node, target).unwrap();
            stub_list.push(new_node);
            stub_list.push(target);
        }
    }
    graph
}

/// The degree-weighted scan over every still-eligible node.
fn fallback(
    graph: &Graph,
    cutoff: DegreeCutoff,
    new_node: NodeId,
    existing: usize,
    rng: &mut StdRng,
) -> Option<NodeId> {
    let eligible: Vec<(NodeId, usize)> = (0..existing)
        .map(NodeId::new)
        .filter(|&n| {
            n != new_node && cutoff.admits(graph.degree(n)) && !graph.contains_edge(new_node, n)
        })
        .map(|n| (n, graph.degree(n).max(1)))
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let total: usize = eligible.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for (node, weight) in eligible {
        if pick < weight {
            return Some(node);
        }
        pick -= weight;
    }
    unreachable!()
}

fn check(nodes: usize, m: usize, k_c: Option<usize>, max_attempts: usize) {
    let cutoff = k_c.map_or(DegreeCutoff::Unbounded, DegreeCutoff::hard);
    let pa = PreferentialAttachment::new(nodes, m)
        .unwrap()
        .with_cutoff(cutoff)
        .with_max_attempts(max_attempts);
    let case = format!("N={nodes} m={m} k_c={k_c:?} attempts={max_attempts}");
    let seed = (nodes * 31 + m * 7 + k_c.unwrap_or(0)) as u64;

    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let expected = oracle(nodes, m, cutoff, max_attempts, &mut oracle_rng);
    let expected_next = oracle_rng.next_u64();
    let expected_csr = expected.freeze();

    // Through the trait object, as the scenario layer calls it.
    let generator: &dyn TopologyGenerator = &pa;
    let mut rng = StdRng::seed_from_u64(seed);
    let frozen = generator.generate_frozen(&mut rng).unwrap();
    assert_eq!(
        frozen.raw_parts(),
        expected_csr.raw_parts(),
        "{case}: CSR arrays"
    );
    assert_eq!(
        rng.next_u64(),
        expected_next,
        "{case}: stream after generate_frozen"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let graph = pa.generate(&mut rng).unwrap();
    assert_eq!(graph.edge_count(), expected.edge_count(), "{case}: edges");
    for node in expected.nodes() {
        assert_eq!(
            graph.neighbors(node),
            expected.neighbors(node),
            "{case}: row of {node:?}"
        );
    }
    assert_eq!(
        rng.next_u64(),
        expected_next,
        "{case}: stream after generate"
    );
}

/// Every cutoff, each with the default attempt budget and with a budget of one draw.
fn grid(nodes: usize, m: usize) {
    for k_c in [None, Some(m), Some(m + 1), Some(10), Some(40)] {
        for max_attempts in [DEFAULT_MAX_ATTEMPTS, 1] {
            check(nodes, m, k_c, max_attempts);
        }
    }
}

#[test]
fn smallest_networks_match_the_graph_loop() {
    for m in [1, 2, 3] {
        grid(m + 2, m);
    }
}

#[test]
fn fifty_nodes_match_the_graph_loop() {
    for m in [1, 2, 3] {
        grid(50, m);
    }
}

#[test]
fn thousand_nodes_with_one_stub_match_the_graph_loop() {
    grid(1_000, 1);
}

#[test]
fn thousand_nodes_with_two_stubs_match_the_graph_loop() {
    grid(1_000, 2);
}

#[test]
fn thousand_nodes_with_three_stubs_match_the_graph_loop() {
    grid(1_000, 3);
}

#[test]
fn ten_thousand_nodes_match_the_graph_loop() {
    // At this size a saturating cutoff or a one-draw budget makes both loops quadratic
    // (seconds a case unoptimized); the grids above cover those branches. This size
    // runs the cutoffs the benchmark and the figures use, with the default budget.
    for m in [1, 2, 3] {
        for k_c in [None, Some(10), Some(40)] {
            check(10_000, m, k_c, DEFAULT_MAX_ATTEMPTS);
        }
    }
}
