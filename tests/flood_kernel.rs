//! An independent oracle for plain flooding's level-synchronous kernel.
//!
//! Every other equivalence suite compares two paths through the *same* kernel — the
//! serial oracle `run_queries_serial` runs it too — so a kernel bug that moves both
//! sides together would pass them all. This file keeps the FIFO flood FL ran before the
//! level loop (one `(peer, previous hop, depth)` queue entry per hit, a `bool` per
//! node, one message per forwarded copy) as a test-only reference, and requires
//! identical `(hits, messages)` for every TTL in `0..=20` on three topology families:
//! capped PA, uncapped PA (hubs, so the bottom-up switch fires early), and HAPA / UCM,
//! plus a few tiny graphs whose first level is already saturating.
//!
//! The kernel runs through one dirty arena for the whole file: graphs grow, shrink and
//! grow again, and normalized-flooding and random-walk jobs run on the same arena in
//! between, so the O(previous hits) reset is exercised against every kind of leftover.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfoverlay::graph::generators::{complete_graph, ring_graph};
use sfoverlay::graph::{CsrGraph, Graph, GraphView, NodeId};
use sfoverlay::prelude::*;
use sfoverlay::search::flooding::{BOTTOM_UP_EDGE_FACTOR, BOTTOM_UP_WIDTH_FACTOR};
use std::collections::VecDeque;

const MAX_TTL: u32 = 20;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// What the FIFO reference saw: the outcome, and the size and degree sum of every
/// level it reached (level 0 is the source).
struct Reference {
    outcome: SearchOutcome,
    level_sizes: Vec<usize>,
    level_degrees: Vec<usize>,
}

impl Reference {
    /// Whether the kernel's direction rule holds for at least one level this flood
    /// expanded — i.e. whether the kernel took at least one bottom-up step.
    fn goes_bottom_up(&self, graph: &CsrGraph, ttl: u32) -> bool {
        let nodes = graph.node_count();
        let mut reached_degree = 0;
        (0..self.level_sizes.len().min(ttl as usize)).any(|depth| {
            let (width, degree) = (self.level_sizes[depth], self.level_degrees[depth]);
            reached_degree += degree;
            width * BOTTOM_UP_WIDTH_FACTOR > nodes
                && degree * BOTTOM_UP_EDGE_FACTOR
                    > graph.total_degree().saturating_sub(reached_degree)
        })
    }
}

/// FL as a FIFO queue over a `bool` vector: every peer forwards to all neighbours but
/// the one the query came from, while its depth is below `ttl`.
fn fifo_flood(graph: &CsrGraph, source: NodeId, ttl: u32) -> Reference {
    let mut visited = vec![false; graph.node_count()];
    visited[source.index()] = true;
    let mut level_sizes = vec![1];
    let mut level_degrees = vec![graph.degree(source)];
    let (mut hits, mut messages) = (0, 0);
    let mut queue = VecDeque::from([(source, None, 0u32)]);
    while let Some((node, from, depth)) = queue.pop_front() {
        if depth >= ttl {
            continue;
        }
        for &next in graph.neighbors(node) {
            if Some(next) == from {
                continue;
            }
            messages += 1;
            if !visited[next.index()] {
                visited[next.index()] = true;
                hits += 1;
                let level = depth as usize + 1;
                if level_sizes.len() == level {
                    level_sizes.push(0);
                    level_degrees.push(0);
                }
                level_sizes[level] += 1;
                level_degrees[level] += graph.degree(next);
                queue.push_back((next, Some(node), depth + 1));
            }
        }
    }
    Reference {
        outcome: SearchOutcome::new(hits, messages),
        level_sizes,
        level_degrees,
    }
}

/// Node counts that grow, shrink and grow again; 1536 is a whole number of bitset
/// words, the others are not.
const SIZES: [usize; 4] = [500, 1536, 120, 2000];

/// An arena whose bitsets were first grown by a flood on a 40 000-node ring, far larger
/// than any graph below. A reset clears every word at once only when the previous
/// search hit at least one node per word, so after this even floods that covered a
/// whole small graph are cleared word by word from their BFS order.
fn grown_arena() -> SearchScratch {
    let mut arena = SearchScratch::new();
    let ring = ring_graph(40_000, 1).unwrap().freeze();
    let outcome =
        Flooding::new().search_with_scratch(&ring, NodeId::new(0), 3, &mut rng(0), &mut arena);
    assert_eq!(outcome, SearchOutcome::new(6, 6));
    arena
}

fn capped_pa(nodes: usize, seed: u64) -> Graph {
    PreferentialAttachment::new(nodes, 2)
        .unwrap()
        .with_cutoff(DegreeCutoff::hard(12))
        .generate(&mut rng(seed))
        .unwrap()
}

fn uncapped_pa(nodes: usize, seed: u64) -> Graph {
    PreferentialAttachment::new(nodes, 1 + seed as usize % 2)
        .unwrap()
        .generate(&mut rng(seed))
        .unwrap()
}

fn hapa_or_ucm(nodes: usize, seed: u64) -> Graph {
    if seed.is_multiple_of(2) {
        HopAndAttempt::new(nodes, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(20))
            .generate(&mut rng(seed))
            .unwrap()
    } else {
        UncorrelatedConfigurationModel::new(nodes, 2.5, 1)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(30))
            .generate(&mut rng(seed))
            .unwrap()
    }
}

/// The sources a case floods from: the largest hub, node 0, and four drawn at random.
fn sources(graph: &CsrGraph, input: &mut StdRng) -> Vec<NodeId> {
    let hub = graph
        .nodes()
        .max_by_key(|&v| graph.degree(v))
        .expect("non-empty graph");
    let n = graph.node_count();
    let mut sources = vec![hub, NodeId::new(0)];
    sources.extend((0..4).map(|_| NodeId::new(input.gen_range(0..n))));
    sources
}

/// Floods every source of `graph` at every TTL through the shared dirty `arena` and
/// compares with the reference; returns how many of the floods went bottom-up.
fn check_graph(label: &str, graph: &Graph, arena: &mut SearchScratch, input: &mut StdRng) -> usize {
    let csr = graph.freeze();
    let mut bottom_up = 0;
    for source in sources(&csr, input) {
        // Leave the arena dirty with other algorithms' state first.
        let seed = input.gen::<u64>();
        NormalizedFlooding::new(2).search_with_scratch(&csr, source, 4, &mut rng(seed), arena);
        RandomWalk::new().search_with_scratch(&csr, source, 64, &mut rng(seed), arena);
        for ttl in 0..=MAX_TTL {
            let reference = fifo_flood(&csr, source, ttl);
            let kernel = Flooding::new().search_with_scratch(&csr, source, ttl, &mut rng(0), arena);
            let case = format!(
                "{label}: {} nodes, source {source}, ttl {ttl}",
                csr.node_count()
            );
            assert_eq!(kernel, reference.outcome, "{case}: dirty arena");
            let fresh = Flooding::new().search(graph, source, ttl, &mut rng(0));
            assert_eq!(fresh, reference.outcome, "{case}: fresh adjacency search");
            if reference.goes_bottom_up(&csr, ttl) {
                bottom_up += 1;
            }
        }
    }
    bottom_up
}

#[test]
fn level_loop_matches_the_fifo_reference_on_every_family_and_ttl() {
    type Family = (&'static str, fn(usize, u64) -> Graph);
    let families: [Family; 3] = [
        ("capped PA", capped_pa),
        ("uncapped PA", uncapped_pa),
        ("HAPA/UCM", hapa_or_ucm),
    ];
    let mut arena = grown_arena();
    let mut input = rng(0xF100_D000);
    let mut bottom_up = Vec::new();
    for (label, generate) in families {
        let mut fired = 0;
        for (i, &nodes) in SIZES.iter().enumerate() {
            let graph = generate(nodes, 70 + i as u64);
            fired += check_graph(label, &graph, &mut arena, &mut input);
        }
        bottom_up.push((label, fired));
    }
    // The bottom-up side of the switch must actually have been compared, in every
    // family.
    for (label, fired) in bottom_up {
        assert!(fired > 0, "{label}: the bottom-up rule never fired");
    }
}

#[test]
fn tiny_and_regular_graphs_match_the_reference() {
    // K10 saturates at its first level (9 · 24 > 10, and 81 · 2 > 0 edges left), and the
    // rings keep every level two nodes wide, so both extremes of the switch run.
    let mut arena = grown_arena();
    let mut input = rng(0x7E57);
    let graphs = [
        complete_graph(10).unwrap(),
        ring_graph(40, 1).unwrap(),
        complete_graph(3).unwrap(),
        ring_graph(130, 3).unwrap(),
        Graph::with_nodes(5),
    ];
    let fired: usize = graphs
        .iter()
        .map(|g| check_graph("small", g, &mut arena, &mut input))
        .sum();
    assert!(fired > 0, "no small graph went bottom-up");
}
