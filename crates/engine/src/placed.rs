//! Placed (cross-host) traversal execution.
//!
//! Under placed execution every host owns one contiguous shard slice of the snapshot
//! (a [`CsrSlice`](sfo_graph::CsrSlice)) and a traversal *moves to its data*: a job
//! starts on the host owning its source node and, whenever the next node to expand
//! lives elsewhere, the whole suspended search — visited-bitset delta, frontier queue,
//! walker position, and raw RNG state — is exported as a [`PlacedState`] and resumed
//! on the owner. Exactly one host works on a job at any moment, so the placed run is
//! a pure partition of the serial oracle's work, and therefore a byte-identical
//! [`SearchOutcome`]: NF, probabilistic flooding and the walks perform the same
//! expansions in the same order consuming the same RNG stream; plain flooding (FL)
//! performs the same expansions, level by level.
//!
//! The state machine here is transport-agnostic; `sfo-net` wraps [`PlacedState`] in
//! `ForwardFrontier`/`FrontierResult` frames and routes by [`PlacedState::cursor`].
//!
//! Two invariants the implementation leans on:
//!
//! * A frontier entry whose TTL is spent is popped *without* reading its neighbor
//!   row, so expired entries never force a hop — only a genuine expansion does.
//! * Floods forward through `sfo-search`'s [`Forwarding::forward`] and walks step
//!   through its [`next_hop`] — the functions the serial algorithms call — so they draw
//!   from the RNG exactly where the serial run does; the RNG state words travel with
//!   the frontier, so a hop is invisible to the stream.
//!
//! A flood keeps its frontier as a FIFO queue of `(node, previous hop, depth)` entries
//! rather than the serial kernels' BFS order: the queue *is* the suspended state a
//! hop ships, front first.
//!
//! FL alone expands every entry of the current BFS level it owns before hopping and
//! ships the entries it deferred first, so a job hops at most `shards - 1` times per
//! level. That is exact: FL draws nothing, each expansion sends one copy to every
//! neighbor but the previous hop, and every node is still reached at its BFS depth.
//! A shipped queue never decreases in depth, spans one level at most, and never
//! passes the TTL.

use rand::rngs::StdRng;
use sfo_graph::{NodeId, ShardView};
use sfo_search::next_hop;
use sfo_search::Forwarding;
use sfo_search::{SearchOutcome, SearchScratch};

/// Sentinel for "no node" in the wire-width node fields of [`PlacedState`]
/// (`previous`, and the `from` column of queue entries).
pub const NO_NODE: u32 = u32::MAX;

/// The search algorithms placed execution supports: every shape whose per-step data
/// need is one neighbor row. Expanding-ring restarts whole floods (its rings would
/// re-hop the entire prefix) and the degree-biased walk reads *neighbor degrees*
/// (rows a shard host does not own), so both stay single-host and are refused by the
/// placed dispatcher with a typed error.
///
/// `k_min`/`walkers` are already resolved (no `None` = "match m" here); the
/// dispatcher resolves them from the spec before any frame is cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacedAlgorithm {
    /// Flooding (FL).
    Flooding,
    /// Normalized flooding (NF) with resolved fan-out `k_min`.
    NormalizedFlooding {
        /// Fan-out bound, at least 1.
        k_min: usize,
    },
    /// Gossip-style probabilistic flooding with forwarding probability `p`.
    ProbabilisticFlooding {
        /// Per-neighbor forwarding probability.
        p: f64,
    },
    /// A single random walk (RW).
    RandomWalk,
    /// `walkers` sequential walks sharing one TTL budget and one visited set.
    MultipleRandomWalk {
        /// Number of walkers, at least 1.
        walkers: usize,
    },
    /// NF to completion, then an RW whose hop budget is the NF message count (the
    /// paper's Figs. 11-12 methodology). The outcome is the walk's alone.
    RwNormalizedToNf {
        /// NF fan-out whose message count sets the walk budget.
        k_min: usize,
    },
}

impl PlacedAlgorithm {
    /// The rule of the flood phase; `None` for the walks, which start in the walk phase
    /// (no frontier queue at all).
    fn forwarding(self) -> Option<Forwarding> {
        match self {
            PlacedAlgorithm::Flooding => Some(Forwarding::All),
            PlacedAlgorithm::NormalizedFlooding { k_min }
            | PlacedAlgorithm::RwNormalizedToNf { k_min } => Some(Forwarding::Normalized { k_min }),
            PlacedAlgorithm::ProbabilisticFlooding { p } => Some(Forwarding::Probabilistic { p }),
            PlacedAlgorithm::RandomWalk | PlacedAlgorithm::MultipleRandomWalk { .. } => None,
        }
    }
}

/// A suspended placed search: everything needed to resume it bit-exactly on another
/// host. All fields are wire-width; `sfo-net` serializes this struct verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedState {
    /// The algorithm being executed.
    pub algorithm: PlacedAlgorithm,
    /// `false`: draining the frontier queue (flood family). `true`: stepping a walk
    /// (RW/MRW from the start; RW/NF after its flood phase completes).
    pub walk_phase: bool,
    /// The job's source node.
    pub source: u32,
    /// Flood TTL, or the remaining-walk *budget* in the walk phase.
    pub ttl: u32,
    /// Hits accumulated so far.
    pub hits: u64,
    /// Messages accumulated so far.
    pub messages: u64,
    /// Walk phase: the walker's position.
    pub current: u32,
    /// Walk phase: the previous hop ([`NO_NODE`] = none yet).
    pub previous: u32,
    /// Walk phase: index of the walker being stepped (always 0 for RW).
    pub walker: u32,
    /// Walk phase: steps the current walker has taken.
    pub steps_done: u32,
    /// Raw xoshiro256++ state of the job's RNG stream.
    pub rng: [u64; 4],
    /// Sparse visited-bitset delta: ascending `(word index, word)` pairs.
    pub visited: Vec<(u32, u64)>,
    /// Frontier queue, front first: `(node, from, depth)` with [`NO_NODE`] for a
    /// missing `from`.
    pub queue: Vec<(u32, u32, u32)>,
}

impl PlacedState {
    /// The node whose neighbor row the search needs next — the routing key: the
    /// dispatcher sends the frontier to the shard owning this node. `None` only for
    /// a flood whose queue is empty (a state [`placed_advance`] would immediately
    /// finish on any host).
    pub fn cursor(&self) -> Option<u32> {
        if self.walk_phase {
            Some(self.current)
        } else {
            self.queue.first().map(|&(node, _, _)| node)
        }
    }
}

/// Result of advancing a placed search on one host.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacedStep {
    /// The search completed here; this is the job's final outcome.
    Done(SearchOutcome),
    /// The next expansion needs a row this host does not own; resume the state on
    /// the shard owning [`PlacedState::cursor`].
    Forward(PlacedState),
}

/// Row-scan tallies of one [`placed_advance`] call, powering the
/// forwarded-frontier telemetry: on a full flood the cross/scanned ratio equals the
/// store's `boundary_fraction()` exactly (every owned row is scanned once, and each
/// cross entry is one end of a cross-shard edge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Adjacency entries read from owned rows.
    pub entries_scanned: u64,
    /// Of those, entries pointing at nodes this view does not own.
    pub entries_cross: u64,
}

impl StepStats {
    /// Tallies one owned row: its full length, and how many of its entries leave
    /// the view.
    fn scan<V: ShardView + ?Sized>(&mut self, view: &V, row: &[NodeId]) {
        self.entries_scanned += row.len() as u64;
        self.entries_cross += row.iter().filter(|next| !view.owns(next.index())).count() as u64;
    }
}

/// Builds the initial [`PlacedState`] of one job: the source is marked visited (never
/// counted as a hit), floods seed their queue with `(source, none, 0)`, walks stand at
/// the source. `rng` is the job's stream *after* the source draw ([`crate::job_rng`]
/// plus one `gen_range`).
pub fn placed_start(
    algorithm: PlacedAlgorithm,
    source: NodeId,
    ttl: u32,
    rng: [u64; 4],
) -> PlacedState {
    let source = source.as_u32();
    let walk_phase = algorithm.forwarding().is_none();
    PlacedState {
        algorithm,
        walk_phase,
        source,
        ttl,
        hits: 0,
        messages: 0,
        current: source,
        previous: NO_NODE,
        walker: 0,
        steps_done: 0,
        rng,
        visited: vec![(source / 64, 1u64 << (source % 64))],
        queue: if walk_phase {
            Vec::new()
        } else {
            vec![(source, NO_NODE, 0)]
        },
    }
}

/// Advances a placed search as far as this host's rows allow.
///
/// Expands nodes over `view` by the algorithm's forwarding rule or walker step, in the
/// serial order (FL: level by level, see the module docs), pausing the moment it needs
/// a row the view does not own (FL: the moment the current level needs one). Returns
/// [`PlacedStep::Done`] with the final outcome, or [`PlacedStep::Forward`] with the
/// suspended state to resume on the owner of its [`PlacedState::cursor`]. `stats`
/// accumulates row-scan tallies across calls.
///
/// # Panics
///
/// Panics if the state references nodes or visited words outside `view`'s global id
/// space, or if its phase contradicts its algorithm — callers resuming *decoded*
/// states must validate them first (`sfo-net` does, frame-side).
pub fn placed_advance<V: ShardView + ?Sized>(
    view: &V,
    mut state: PlacedState,
    scratch: &mut SearchScratch,
    stats: &mut StepStats,
) -> PlacedStep {
    let node_count = view.node_count();
    scratch.visited.import_sparse(node_count, &state.visited);
    let mut rng = StdRng::from_state_words(state.rng);
    let mut hits = state.hits;
    let mut messages = state.messages;

    if !state.walk_phase {
        let rule = state
            .algorithm
            .forwarding()
            .expect("walk algorithms never enter the flood phase");
        scratch.queue.clear();
        scratch.queue.extend(
            state
                .queue
                .iter()
                .map(|&(node, from, depth)| (NodeId::new(node as usize), decode_from(from), depth)),
        );
        let ttl = state.ttl;
        // FL only: an unowned entry of the level being drained waits in `deferred`
        // while this host expands the rest of that level (see the module docs).
        let mut deferred: Vec<QueueEntry> = Vec::new();
        loop {
            let next = scratch.queue.pop_front();
            if matches!(next, Some((_, _, depth)) if depth >= ttl) {
                // Spent entries pop anywhere: no row read, no RNG, no hop.
                continue;
            }
            if let Some(&(_, _, level)) = deferred.first() {
                if next.is_none_or(|(_, _, depth)| depth > level) {
                    // The level cannot finish here: ship the deferred entries first.
                    let rest = next.iter().chain(&scratch.queue);
                    let queue = deferred.iter().chain(rest);
                    return suspend(state, hits, messages, &rng, scratch, queue);
                }
            }
            let Some((node, from, depth)) = next else {
                break;
            };
            if !view.owns(node.index()) {
                if rule == Forwarding::All {
                    deferred.push((node, from, depth));
                    continue;
                }
                scratch.queue.push_front((node, from, depth));
                return suspend(state, hits, messages, &rng, scratch, scratch.queue.iter());
            }
            let row = view.neighbors(node);
            stats.scan(view, row);
            rule.forward(
                row,
                from,
                depth,
                &mut rng,
                &mut scratch.candidates,
                |next| {
                    messages += 1;
                    if scratch.visited.insert(next.index()) {
                        hits += 1;
                        scratch.queue.push_back((next, Some(node), depth + 1));
                    }
                },
            );
        }
        // The flood drained. For RW/NF its message count becomes the walk budget and
        // the walk restarts from the source with a fresh visited set (the outcome is
        // the walk's alone), exactly as the serial two-phase job does.
        if let PlacedAlgorithm::RwNormalizedToNf { .. } = state.algorithm {
            state.ttl = u32::try_from(messages).unwrap_or(u32::MAX);
            hits = 0;
            messages = 0;
            scratch.visited.reset(node_count);
            scratch.visited.insert(state.source as usize);
            state.walk_phase = true;
            state.current = state.source;
            state.previous = NO_NODE;
            state.walker = 0;
            state.steps_done = 0;
        } else {
            return PlacedStep::Done(SearchOutcome::new(hits as usize, messages as usize));
        }
    }

    // Walk phase. The budget is split across walkers exactly as MultipleRandomWalk
    // splits it (RW and the RW/NF walk are the one-walker case).
    let walkers = match state.algorithm {
        PlacedAlgorithm::MultipleRandomWalk { walkers } => walkers as u64,
        _ => 1,
    };
    let budget = u64::from(state.ttl);
    let base = budget / walkers;
    let remainder = budget % walkers;
    loop {
        if u64::from(state.walker) >= walkers {
            return PlacedStep::Done(SearchOutcome::new(hits as usize, messages as usize));
        }
        let steps = base + u64::from(u64::from(state.walker) < remainder);
        if u64::from(state.steps_done) >= steps {
            state.walker += 1;
            state.current = state.source;
            state.previous = NO_NODE;
            state.steps_done = 0;
            continue;
        }
        if !view.owns(state.current as usize) {
            return suspend(state, hits, messages, &rng, scratch, [].iter());
        }
        let row = view.neighbors(NodeId::new(state.current as usize));
        stats.scan(view, row);
        let Some(next) = next_hop(row, decode_from(state.previous), &mut rng) else {
            state.walker += 1;
            state.current = state.source;
            state.previous = NO_NODE;
            state.steps_done = 0;
            continue;
        };
        messages += 1;
        if scratch.visited.insert(next.index()) {
            hits += 1;
        }
        state.previous = state.current;
        state.current = next.as_u32();
        state.steps_done += 1;
    }
}

/// One frontier queue entry: `(node, previous hop, depth)`.
type QueueEntry = (NodeId, Option<NodeId>, u32);

/// Exports the suspended search — counts, RNG words, visited delta, and `queue`, front
/// first — as the [`PlacedStep::Forward`] to resume on the owner of its cursor.
fn suspend<'a>(
    mut state: PlacedState,
    hits: u64,
    messages: u64,
    rng: &StdRng,
    scratch: &SearchScratch,
    queue: impl Iterator<Item = &'a QueueEntry>,
) -> PlacedStep {
    state.hits = hits;
    state.messages = messages;
    state.rng = rng.state_words();
    state.visited = scratch.visited.export_sparse();
    state.queue = queue
        .map(|&(node, from, depth)| (node.as_u32(), encode_from(from), depth))
        .collect();
    PlacedStep::Forward(state)
}

#[inline]
fn decode_from(from: u32) -> Option<NodeId> {
    (from != NO_NODE).then(|| NodeId::new(from as usize))
}

#[inline]
fn encode_from(from: Option<NodeId>) -> u32 {
    from.map_or(NO_NODE, |n| n.as_u32())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedCsr;
    use rand::SeedableRng;
    use sfo_core::pa::PreferentialAttachment;
    use sfo_core::DegreeCutoff;
    use sfo_graph::generators::ring_graph;
    use sfo_graph::{CsrGraph, CsrSlice, Graph};
    use sfo_search::flooding::Flooding;
    use sfo_search::NormalizedFlooding;
    use sfo_search::ProbabilisticFlooding;
    use sfo_search::SearchAlgorithm;
    use sfo_search::{MultipleRandomWalk, RandomWalk};

    /// A small irregular graph: a ring with chords, so degrees differ.
    fn fixture() -> CsrGraph {
        let mut g = ring_graph(60, 2).unwrap();
        for i in 0..12 {
            let a = NodeId::new(i * 5);
            let b = NodeId::new((i * 7 + 13) % 60);
            if a != b {
                let _ = g.add_edge(a, b);
            }
        }
        g.freeze()
    }

    /// The serial oracle for `algorithm` from `source` at `ttl`, on a seeded stream.
    fn oracle(
        csr: &CsrGraph,
        algorithm: PlacedAlgorithm,
        source: NodeId,
        ttl: u32,
        seed: u64,
    ) -> SearchOutcome {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match algorithm {
            PlacedAlgorithm::Flooding => Flooding::new().search(csr, source, ttl, &mut rng),
            PlacedAlgorithm::NormalizedFlooding { k_min } => {
                NormalizedFlooding::new(k_min).search(csr, source, ttl, &mut rng)
            }
            PlacedAlgorithm::ProbabilisticFlooding { p } => {
                ProbabilisticFlooding::new(p).search(csr, source, ttl, &mut rng)
            }
            PlacedAlgorithm::RandomWalk => RandomWalk::new().search(csr, source, ttl, &mut rng),
            PlacedAlgorithm::MultipleRandomWalk { walkers } => {
                MultipleRandomWalk::new(walkers).search(csr, source, ttl, &mut rng)
            }
            PlacedAlgorithm::RwNormalizedToNf { k_min } => {
                let nf = NormalizedFlooding::new(k_min).search(csr, source, ttl, &mut rng);
                let budget = u32::try_from(nf.messages).unwrap_or(u32::MAX);
                RandomWalk::new().search(csr, source, budget, &mut rng)
            }
        }
    }

    /// Runs the state machine over shard slices, routing by cursor like the real
    /// dispatcher; returns the outcome and the number of hops.
    fn run_over_slices(
        csr: &CsrGraph,
        shards: usize,
        algorithm: PlacedAlgorithm,
        source: NodeId,
        ttl: u32,
        seed: u64,
    ) -> (SearchOutcome, usize, StepStats) {
        let sharded = ShardedCsr::from_csr(csr, shards);
        let slices: Vec<CsrSlice> = sharded
            .shards()
            .iter()
            .map(|s| csr.extract_slice(s.node_range()))
            .collect();
        let rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = placed_start(algorithm, source, ttl, rng.state_words());
        let mut scratch = SearchScratch::new();
        let mut stats = StepStats::default();
        let mut hops = 0usize;
        loop {
            let cursor = state.cursor().expect("live state has a cursor");
            let owner = sharded.shard_of(NodeId::new(cursor as usize));
            match placed_advance(&slices[owner], state, &mut scratch, &mut stats) {
                PlacedStep::Done(outcome) => return (outcome, hops, stats),
                PlacedStep::Forward(next) => {
                    hops += 1;
                    assert!(
                        !slices[owner].owns(next.cursor().unwrap() as usize),
                        "forwarded a frontier the host could have served"
                    );
                    state = next;
                }
            }
        }
    }

    fn all_algorithms() -> Vec<PlacedAlgorithm> {
        vec![
            PlacedAlgorithm::Flooding,
            PlacedAlgorithm::NormalizedFlooding { k_min: 2 },
            PlacedAlgorithm::ProbabilisticFlooding { p: 0.6 },
            PlacedAlgorithm::RandomWalk,
            PlacedAlgorithm::MultipleRandomWalk { walkers: 3 },
            PlacedAlgorithm::RwNormalizedToNf { k_min: 2 },
        ]
    }

    #[test]
    fn whole_graph_advance_equals_the_serial_algorithms() {
        let csr = fixture();
        for algorithm in all_algorithms() {
            for (seed, source, ttl) in [(1u64, 0usize, 3u32), (2, 17, 5), (3, 59, 0), (4, 30, 2)] {
                let serial = oracle(&csr, algorithm, NodeId::new(source), ttl, seed);
                let rng = rand::rngs::StdRng::seed_from_u64(seed);
                let state = placed_start(algorithm, NodeId::new(source), ttl, rng.state_words());
                let mut scratch = SearchScratch::new();
                let mut stats = StepStats::default();
                let step = placed_advance(&csr, state, &mut scratch, &mut stats);
                assert_eq!(
                    step,
                    PlacedStep::Done(serial),
                    "{algorithm:?} seed {seed} source {source} ttl {ttl}"
                );
                assert_eq!(stats.entries_cross, 0, "a whole graph owns every row");
            }
        }
    }

    #[test]
    fn sliced_execution_is_byte_identical_for_every_shard_count() {
        let csr = fixture();
        for algorithm in all_algorithms() {
            for shards in [1usize, 2, 3, 5, 7] {
                for (seed, source, ttl) in [(11u64, 3usize, 4u32), (12, 42, 6), (13, 58, 1)] {
                    let serial = oracle(&csr, algorithm, NodeId::new(source), ttl, seed);
                    let (placed, hops, _) =
                        run_over_slices(&csr, shards, algorithm, NodeId::new(source), ttl, seed);
                    assert_eq!(
                        placed, serial,
                        "{algorithm:?} diverged at {shards} shards (seed {seed})"
                    );
                    if shards == 1 {
                        assert_eq!(hops, 0, "a single shard never hops");
                    }
                }
            }
        }
    }

    /// `(seed, source, ttl)` cases the hop tests run on the fixture.
    const HOP_CASES: [(u64, usize, u32); 5] = [
        (11, 3, 4),
        (12, 42, 6),
        (13, 58, 1),
        (14, 17, 12),
        (15, 30, 20),
    ];

    #[test]
    fn flooding_hops_at_most_once_per_level_and_host() {
        let pa = PreferentialAttachment::new(10_000, 2)
            .unwrap()
            .with_cutoff(DegreeCutoff::hard(40))
            .generate(&mut rand::rngs::StdRng::seed_from_u64(1207))
            .unwrap()
            .freeze();
        let pa_cases = [
            (21u64, 0usize, 3u32),
            (22, 5_000, 5),
            (23, 9_999, 8),
            (24, 777, 30),
        ];
        for (csr, cases) in [(fixture(), &HOP_CASES[..]), (pa, &pa_cases[..])] {
            for shards in [2usize, 3, 5, 7] {
                for &(seed, source, ttl) in cases {
                    let algorithm = PlacedAlgorithm::Flooding;
                    let serial = oracle(&csr, algorithm, NodeId::new(source), ttl, seed);
                    let (placed, hops, _) =
                        run_over_slices(&csr, shards, algorithm, NodeId::new(source), ttl, seed);
                    assert_eq!(placed, serial, "{shards} shards, source {source}");
                    assert!(
                        hops <= (shards - 1) * ttl as usize,
                        "{hops} hops at {shards} shards and ttl {ttl} (source {source})"
                    );
                }
            }
        }
    }

    #[test]
    fn randomized_shapes_keep_their_exact_state_hop_counts() {
        // Hops per (shards 2, 3, 5, 7) x HOP_CASES: these algorithms draw the RNG in
        // FIFO order, so they suspend at the first foreign row, exactly as before FL
        // took the level rule.
        let pinned: [(PlacedAlgorithm, [usize; 20]); 5] = [
            (
                PlacedAlgorithm::NormalizedFlooding { k_min: 2 },
                [
                    3, 0, 0, 24, 24, 5, 0, 0, 34, 28, 6, 1, 0, 35, 34, 7, 2, 0, 39, 41,
                ],
            ),
            (
                PlacedAlgorithm::ProbabilisticFlooding { p: 0.6 },
                [
                    5, 15, 0, 13, 23, 6, 21, 0, 24, 26, 8, 19, 0, 27, 34, 8, 25, 0, 35, 38,
                ],
            ),
            (
                PlacedAlgorithm::RandomWalk,
                [1, 0, 0, 0, 5, 2, 0, 0, 2, 5, 2, 1, 0, 3, 3, 2, 1, 0, 4, 5],
            ),
            (
                PlacedAlgorithm::MultipleRandomWalk { walkers: 3 },
                [0, 0, 0, 2, 7, 0, 0, 0, 4, 6, 0, 0, 0, 4, 6, 0, 0, 0, 8, 7],
            ),
            (
                PlacedAlgorithm::RwNormalizedToNf { k_min: 2 },
                [
                    7, 1, 0, 33, 34, 8, 1, 0, 45, 40, 13, 5, 0, 57, 59, 14, 7, 0, 64, 81,
                ],
            ),
        ];
        let csr = fixture();
        for (algorithm, expected) in pinned {
            let mut hops = Vec::new();
            for shards in [2usize, 3, 5, 7] {
                for (seed, source, ttl) in HOP_CASES {
                    hops.push(
                        run_over_slices(&csr, shards, algorithm, NodeId::new(source), ttl, seed).1,
                    );
                }
            }
            assert_eq!(hops, expected, "{algorithm:?}");
        }
    }

    #[test]
    fn full_flood_scan_stats_reproduce_the_boundary_fraction() {
        let csr = fixture();
        for shards in [2usize, 3, 4] {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            let (_, _, stats) = run_over_slices(
                &csr,
                shards,
                PlacedAlgorithm::Flooding,
                NodeId::new(0),
                csr.node_count() as u32,
                99,
            );
            // A full flood on a connected graph expands every node exactly once, so
            // scanned == 2E and cross == 2 * cross_shard_edges: the observed traffic
            // fraction IS boundary_fraction(), as an exact integer identity.
            assert_eq!(stats.entries_scanned, 2 * csr.edge_count() as u64);
            assert_eq!(
                stats.entries_cross,
                2 * sharded.cross_shard_edges() as u64,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn spent_frontier_entries_never_force_a_hop() {
        // ttl 0: the only queue entry pops as spent; any host finishes it, even one
        // owning nothing near the source.
        let csr = fixture();
        let slice = csr.extract_slice(30..40);
        let rng = rand::rngs::StdRng::seed_from_u64(7);
        let state = placed_start(
            PlacedAlgorithm::Flooding,
            NodeId::new(0),
            0,
            rng.state_words(),
        );
        let mut scratch = SearchScratch::new();
        let mut stats = StepStats::default();
        assert_eq!(
            placed_advance(&slice, state, &mut scratch, &mut stats),
            PlacedStep::Done(SearchOutcome::new(0, 0))
        );
    }

    #[test]
    fn walks_on_a_degree_zero_source_finish_empty() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        let csr = g.freeze();
        for algorithm in [
            PlacedAlgorithm::RandomWalk,
            PlacedAlgorithm::MultipleRandomWalk { walkers: 4 },
        ] {
            let rng = rand::rngs::StdRng::seed_from_u64(5);
            let state = placed_start(algorithm, NodeId::new(0), 9, rng.state_words());
            let mut scratch = SearchScratch::new();
            let step = placed_advance(&csr, state, &mut scratch, &mut StepStats::default());
            assert_eq!(step, PlacedStep::Done(SearchOutcome::new(0, 0)));
        }
    }

    #[test]
    fn forwarded_states_carry_a_cursor_their_sender_does_not_own() {
        let csr = fixture();
        let slice = csr.extract_slice(0..30);
        let rng = rand::rngs::StdRng::seed_from_u64(21);
        let state = placed_start(
            PlacedAlgorithm::Flooding,
            NodeId::new(0),
            csr.node_count() as u32,
            rng.state_words(),
        );
        let mut scratch = SearchScratch::new();
        match placed_advance(&slice, state, &mut scratch, &mut StepStats::default()) {
            PlacedStep::Forward(next) => {
                let cursor = next.cursor().unwrap() as usize;
                assert!(!slice.owns(cursor));
                assert!(cursor < csr.node_count());
                assert!(!next.visited.is_empty());
            }
            PlacedStep::Done(_) => panic!("a 30-node slice cannot finish a full flood"),
        }
    }
}
