//! Independent oracles for the search kernels.
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
//! The randomized rules get the same treatment: normalized flooding (NF) and
//! probabilistic flooding (pFL) as FIFO loops over a `bool` vector, and the random
//! walks as one plain loop per walker. For those the outcome is not enough — the kernel
//! must also consume its RNG stream exactly as the reference does, so every case
//! compares the next word of both streams afterwards.
//!
//! The kernels run through one dirty arena per test: graphs grow, shrink and grow
//! again, and other algorithms' jobs run on the same arena in between, so every reset
//! is exercised against every kind of leftover.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
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

/// The randomized flooding rules the FIFO reference below implements.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// NF: forward to `k_min` neighbours drawn by `partial_shuffle` when more than
    /// `k_min` remain after dropping the previous hop, else to all of them.
    Normalized(usize),
    /// pFL: the source forwards to every neighbour; a relay keeps each neighbour but the
    /// previous hop with probability `p`, one `f64` draw per neighbour.
    Probabilistic(f64),
}

/// NF or pFL as a FIFO queue over a `bool` vector, drawing from `rng` in queue order.
fn fifo_rule(
    graph: &CsrGraph,
    source: NodeId,
    ttl: u32,
    rule: Rule,
    rng: &mut StdRng,
) -> SearchOutcome {
    let mut visited = vec![false; graph.node_count()];
    visited[source.index()] = true;
    let (mut hits, mut messages) = (0, 0);
    let mut queue = VecDeque::from([(source, None, 0u32)]);
    while let Some((node, from, depth)) = queue.pop_front() {
        if depth >= ttl {
            continue;
        }
        let others = graph
            .neighbors(node)
            .iter()
            .copied()
            .filter(|&n| Some(n) != from);
        let targets: Vec<NodeId> = match rule {
            Rule::Normalized(k_min) => {
                let mut candidates: Vec<NodeId> = others.collect();
                if candidates.len() > k_min {
                    candidates.partial_shuffle(rng, k_min).0.to_vec()
                } else {
                    candidates
                }
            }
            Rule::Probabilistic(p) => others
                .filter(|_| depth == 0 || rng.gen::<f64>() < p)
                .collect(),
        };
        for next in targets {
            messages += 1;
            if !visited[next.index()] {
                visited[next.index()] = true;
                hits += 1;
                queue.push_back((next, Some(node), depth + 1));
            }
        }
    }
    SearchOutcome::new(hits, messages)
}

/// `walkers` walks from `source` sharing a `budget` of hops and one `bool` vector: the
/// budget splits as evenly as possible, earlier walkers taking the remainder. A walker
/// at a dead end stops, one with a single neighbour bounces back without a draw, any
/// other draws uniform neighbours until one is not the previous hop.
fn reference_walks(
    graph: &CsrGraph,
    source: NodeId,
    budget: u32,
    walkers: usize,
    rng: &mut StdRng,
) -> SearchOutcome {
    let mut visited = vec![false; graph.node_count()];
    visited[source.index()] = true;
    let (mut hits, mut messages) = (0, 0);
    let budget = budget as usize;
    for w in 0..walkers {
        let steps = budget / walkers + usize::from(w < budget % walkers);
        let (mut current, mut previous) = (source, None);
        for _ in 0..steps {
            let row = graph.neighbors(current);
            let next = match row.len() {
                0 => break,
                1 => row[0],
                len => loop {
                    let candidate = row[rng.gen_range(0..len)];
                    if Some(candidate) != previous {
                        break candidate;
                    }
                },
            };
            messages += 1;
            if !visited[next.index()] {
                visited[next.index()] = true;
                hits += 1;
            }
            previous = Some(current);
            current = next;
        }
    }
    SearchOutcome::new(hits, messages)
}

/// TTLs the randomized floods are checked at.
const RULE_MAX_TTL: u32 = 12;

/// A search's outcome and the next word of its stream afterwards.
type Drawn = (SearchOutcome, u64);

/// Runs `search` on a stream seeded with `seed`.
fn drawn(seed: u64, search: impl FnOnce(&mut StdRng) -> SearchOutcome) -> Drawn {
    let mut stream = rng(seed);
    let outcome = search(&mut stream);
    (outcome, stream.next_u64())
}

/// The kernel behind `rule`.
fn rule_kernel<G: GraphView>(rule: Rule) -> Box<dyn SearchAlgorithm<G>> {
    match rule {
        Rule::Normalized(k_min) => Box::new(NormalizedFlooding::new(k_min)),
        Rule::Probabilistic(p) => Box::new(ProbabilisticFlooding::new(p)),
    }
}

/// Runs NF (`k_min` 1..=3) and pFL (`p` 0.3, 0.7, 1.0) from every source of `graph` at
/// every TTL in `0..=RULE_MAX_TTL`, through the dirty `arena` and through a fresh
/// adjacency search, against the FIFO reference.
fn check_rules(label: &str, graph: &Graph, arena: &mut SearchScratch, input: &mut StdRng) {
    let csr = graph.freeze();
    let rules = [
        Rule::Normalized(1),
        Rule::Normalized(2),
        Rule::Normalized(3),
        Rule::Probabilistic(0.3),
        Rule::Probabilistic(0.7),
        Rule::Probabilistic(1.0),
    ];
    for source in sources(&csr, input) {
        // Leave a full flood's level state and a walk's visited marks behind.
        Flooding::new().search_with_scratch(&csr, source, MAX_TTL, &mut rng(0), arena);
        RandomWalk::new().search_with_scratch(&csr, source, 64, &mut rng(1), arena);
        for ttl in 0..=RULE_MAX_TTL {
            for rule in rules {
                let seed = input.gen::<u64>();
                let case = format!(
                    "{label}: {rule:?}, {} nodes, source {source}, ttl {ttl}",
                    csr.node_count()
                );
                let reference = drawn(seed, |r| fifo_rule(&csr, source, ttl, rule, r));
                let kernel = drawn(seed, |r| {
                    rule_kernel(rule).search_with_scratch(&csr, source, ttl, r, arena)
                });
                assert_eq!(kernel, reference, "{case}: dirty arena");
                let fresh = drawn(seed, |r| rule_kernel(rule).search(graph, source, ttl, r));
                assert_eq!(fresh, reference, "{case}: fresh adjacency search");
            }
        }
    }
}

/// Runs RW and multi-RW (2, 3 and 5 walkers) from every source of `graph` over a range
/// of budgets, through the dirty `arena`, against the reference walks; RW must also
/// equal a one-walker multi-RW.
fn check_walks(label: &str, graph: &Graph, arena: &mut SearchScratch, input: &mut StdRng) {
    let csr = graph.freeze();
    for source in sources(&csr, input) {
        Flooding::new().search_with_scratch(&csr, source, MAX_TTL, &mut rng(0), arena);
        for budget in (0..=40).chain([63, 64, 97, 256]) {
            let seed = input.gen::<u64>();
            let case = format!(
                "{label}: {} nodes, source {source}, budget {budget}",
                csr.node_count()
            );
            let reference = drawn(seed, |r| reference_walks(&csr, source, budget, 1, r));
            let rw = drawn(seed, |r| {
                RandomWalk::new().search_with_scratch(&csr, source, budget, r, arena)
            });
            assert_eq!(rw, reference, "{case}: RW");
            let one = drawn(seed, |r| {
                MultipleRandomWalk::new(1).search(graph, source, budget, r)
            });
            assert_eq!(one, reference, "{case}: one-walker multi-RW");
            for walkers in [2, 3, 5] {
                let reference = drawn(seed, |r| reference_walks(&csr, source, budget, walkers, r));
                let kernel = drawn(seed, |r| {
                    MultipleRandomWalk::new(walkers)
                        .search_with_scratch(&csr, source, budget, r, arena)
                });
                assert_eq!(kernel, reference, "{case}: {walkers} walkers");
            }
        }
    }
}

/// Every family and size of the FL oracle, then the small graphs.
fn oracle_graphs() -> Vec<(&'static str, Graph)> {
    type Family = (&'static str, fn(usize, u64) -> Graph);
    let families: [Family; 3] = [
        ("capped PA", capped_pa),
        ("uncapped PA", uncapped_pa),
        ("HAPA/UCM", hapa_or_ucm),
    ];
    let mut graphs = Vec::new();
    for (label, generate) in families {
        for (i, &nodes) in SIZES.iter().enumerate() {
            graphs.push((label, generate(nodes, 70 + i as u64)));
        }
    }
    graphs.extend(
        [
            complete_graph(10).unwrap(),
            ring_graph(40, 1).unwrap(),
            complete_graph(3).unwrap(),
            ring_graph(130, 3).unwrap(),
            Graph::with_nodes(5),
        ]
        .map(|g| ("small", g)),
    );
    graphs
}

#[test]
fn nf_and_pfl_match_the_fifo_reference_outcome_and_draws() {
    let mut arena = grown_arena();
    let mut input = rng(0x0F1D_2F1D);
    for (label, graph) in oracle_graphs() {
        check_rules(label, &graph, &mut arena, &mut input);
    }
}

#[test]
fn walks_match_the_reference_outcome_and_draws() {
    let mut arena = grown_arena();
    let mut input = rng(0x3A1C);
    for (label, graph) in oracle_graphs() {
        check_walks(label, &graph, &mut arena, &mut input);
    }
}
