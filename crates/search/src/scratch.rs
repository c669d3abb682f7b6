//! Reusable per-worker scratch space for the search hot path.
//!
//! Every search marks visited peers and (for the flooding family) keeps a frontier.
//! Allocating those structures fresh per query — `vec![false; N]` plus a queue —
//! costs a megabyte of zeroing per query at N=10^6 before the first neighbor read, and
//! the sweeps run thousands of queries per frozen realization. [`SearchScratch`]
//! amortizes that: one arena per worker thread, reused across jobs and batches, and no
//! search pays O(N) to reset it:
//!
//! * the floods (FL, NF, probabilistic flooding, and the item lookups built on
//!   [`Forwarding::flood`](crate::forwarding::Forwarding::flood)) keep their reached
//!   nodes in BFS order next to a one-array bitset of the same set, so the next search
//!   clears exactly the words the last one set — O(previous hits), however large the
//!   graph;
//! * the walks and placed execution mark nodes in a [`VisitedSet`], an epoch-stamped
//!   bitset whose reset is O(1).
//!
//! The arena is pure *memory* state: algorithms read and write exactly the same
//! visited/frontier values they would with fresh allocations, in the same order, so a
//! search through a dirty reused arena consumes its RNG stream identically and returns
//! a byte-identical [`SearchOutcome`](crate::SearchOutcome). That invariant is what
//! lets `sfo-engine` hand every pool worker a private arena without disturbing the
//! per-job RNG streams (`tests/scratch_equivalence.rs` enforces it).

use sfo_graph::NodeId;
use std::collections::VecDeque;

/// A dense visited set over `u64` bitset words with epoch stamping — the visited
/// marks of the walks and placed execution (the floods keep their own, see
/// [`SearchScratch`]).
///
/// Clearing a `vec![bool; N]` between searches costs O(N); the epoch trick makes it
/// O(1): [`VisitedSet::reset`] bumps a generation counter, and each word lazily
/// zeroes itself the first time it is touched in the new generation. A word whose
/// stamp is stale *reads* as all-unset without being written, so a reset costs
/// nothing for the (vast majority of) words a short search never visits.
///
/// # Example
///
/// ```
/// use sfo_search::VisitedSet;
///
/// let mut visited = VisitedSet::new();
/// visited.reset(1000);
/// assert!(visited.insert(7)); // newly marked
/// assert!(!visited.insert(7)); // already marked
/// visited.reset(1000); // O(1): everything reads as unset again
/// assert!(!visited.contains(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VisitedSet {
    words: Vec<u64>,
    stamps: Vec<u64>,
    epoch: u64,
}

impl VisitedSet {
    /// Creates an empty set; call [`VisitedSet::reset`] before use.
    pub fn new() -> Self {
        VisitedSet::default()
    }

    /// Prepares the set for node indexes in `0..node_count`: every bit reads as
    /// unset. Grows the backing words when `node_count` exceeds the current
    /// capacity and never shrinks, so a worker's set settles at the largest graph
    /// it has served.
    pub fn reset(&mut self, node_count: usize) {
        let words = node_count.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
            self.stamps.resize(words, 0);
        }
        // Stamps start at 0, so the first reset must move the epoch past the
        // initial stamp value; wrapping is unreachable in practice (2^64 resets).
        self.epoch += 1;
    }

    /// Marks `index` as visited; returns `true` when it was not yet marked.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the range given to the last [`VisitedSet::reset`].
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let w = index / 64;
        let bit = 1u64 << (index % 64);
        if self.stamps[w] != self.epoch {
            self.stamps[w] = self.epoch;
            self.words[w] = bit;
            return true;
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Returns `true` if `index` has been marked since the last reset.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the range given to the last [`VisitedSet::reset`].
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        let w = index / 64;
        self.stamps[w] == self.epoch && self.words[w] & (1u64 << (index % 64)) != 0
    }

    /// Exports the visited marks as sparse `(word index, bitset word)` pairs — only
    /// words holding at least one mark in the current generation appear, in ascending
    /// word order. This is the visited-bitset delta a forwarded search frontier
    /// carries across hosts: a short search on a large graph exports a handful of
    /// words, never O(N).
    pub fn export_sparse(&self) -> Vec<(u32, u64)> {
        self.words
            .iter()
            .zip(&self.stamps)
            .enumerate()
            .filter(|(_, (&word, &stamp))| stamp == self.epoch && word != 0)
            .map(|(w, (&word, _))| (w as u32, word))
            .collect()
    }

    /// Resets the set for `node_count` nodes and installs the sparse marks exported
    /// by [`VisitedSet::export_sparse`] on another host. Round-trips exactly: after
    /// the import, every `contains`/`insert` answers as it would have on the
    /// exporting set.
    ///
    /// # Panics
    ///
    /// Panics if a word index lies outside `0..node_count.div_ceil(64)` — callers
    /// decoding untrusted frontiers must bound-check first.
    pub fn import_sparse(&mut self, node_count: usize, marks: &[(u32, u64)]) {
        self.reset(node_count);
        let words = node_count.div_ceil(64);
        for &(w, word) in marks {
            let w = w as usize;
            assert!(
                w < words,
                "visited word {w} out of range for {node_count} nodes"
            );
            self.stamps[w] = self.epoch;
            self.words[w] = word;
        }
    }
}

/// Reusable buffers for one search at a time: the floods' level state, the walks'
/// visited bitset, NF's fan-out candidate list, and placed execution's FIFO frontier.
///
/// One arena serves one search at a time and any number of searches in sequence;
/// every algorithm resets the state it uses on entry, so a *dirty* arena left by a
/// previous job (even of a different algorithm, or on a different graph) is
/// indistinguishable from a fresh one. `sfo-engine` keeps one per pool worker.
///
/// The shared buffers are public so scratch-aware traversals outside this crate (the
/// simulator's snapshot query batches, placed execution) can reuse them under the
/// same contract: reset what you use on entry, leave whatever you like behind. The
/// floods' level state is private, because its reset relies on an invariant between
/// its parts: the reached bitset is cleared by walking the previous search's BFS
/// order, so the next search pays O(previous hits), not O(N).
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Visited marks of the walks and placed execution, reset per search.
    pub visited: VisitedSet,
    /// Placed execution's FIFO frontier, `(peer, previous hop, depth)` entries still to
    /// forward — the shape its suspended state travels in. No serial search uses it.
    pub queue: VecDeque<(NodeId, Option<NodeId>, u32)>,
    /// NF's per-node candidate list (the neighbours besides the previous hop) for
    /// [`Forwarding::forward`](crate::forwarding::Forwarding::forward), in the serial
    /// floods, placed execution and the snapshot item lookups.
    pub candidates: Vec<NodeId>,
    /// The floods' BFS order and bitsets.
    pub(crate) levels: FloodLevels,
}

/// The floods' level state: every node the current search has reached, in BFS order,
/// beside a one-array bitset of the same set.
///
/// Reset contract: the set bits of `reached` are exactly the nodes in `order`, and the
/// set bits of `level` are a subset of them, set only by a search that took a bottom-up
/// step (`level_marked`). So [`FloodLevels::begin`] clears the previous search by
/// walking `order` — or, when that search hit at least one node per word, by zeroing
/// every word — which costs O(previous hits) however large the graph: no O(N) fill, and
/// no N-sized allocation once the bitsets have grown to the largest graph served. A
/// search that never went bottom-up leaves `level` untouched, so its successor does not
/// touch it either.
#[derive(Debug, Clone, Default)]
pub(crate) struct FloodLevels {
    /// The reached nodes in BFS order: `order[0]` is the source, and each level is a
    /// contiguous run behind the level that discovered it.
    pub(crate) order: Vec<NodeId>,
    /// The previous hop of each node in `order`, `None` for the source. Only
    /// [`Forwarding::flood`](crate::forwarding::Forwarding::flood) keeps it in step with
    /// `order`; plain flooding's kernel never reads it and leaves it stale.
    pub(crate) from: Vec<Option<NodeId>>,
    /// One bit per node, set exactly for the nodes in `order`.
    pub(crate) reached: Vec<u64>,
    /// One bit per node of every level a bottom-up step has expanded in this search.
    pub(crate) level: Vec<u64>,
    /// Whether this search has set any bit of `level`; set before the first mark, so a
    /// search cut short inside a bottom-up step still has its marks cleared.
    pub(crate) level_marked: bool,
}

impl FloodLevels {
    /// Clears the previous search and starts one from `source` on a graph of
    /// `node_count` nodes: `order` is `[source]` and only the source's bit is set.
    pub(crate) fn begin(&mut self, node_count: usize, source: NodeId) {
        clear_words(&mut self.reached, &self.order);
        if std::mem::take(&mut self.level_marked) {
            clear_words(&mut self.level, &self.order);
        }
        self.order.clear();
        let words = node_count.div_ceil(64);
        if words > self.reached.len() {
            self.reached.resize(words, 0);
            self.level.resize(words, 0);
        }
        let index = source.index();
        self.reached[index / 64] |= 1 << (index % 64);
        self.order.push(source);
    }

    /// Appends `node` to `order` and sets its bit unless it is reached already;
    /// returns whether it was new.
    #[inline]
    pub(crate) fn reach(&mut self, node: NodeId) -> bool {
        let index = node.index();
        let word = &mut self.reached[index / 64];
        let bit = 1u64 << (index % 64);
        let fresh = *word & bit == 0;
        if fresh {
            *word |= bit;
            self.order.push(node);
        }
        fresh
    }
}

/// Zeroes every word of `bits` that holds a bit of a node in `nodes`.
fn clear_words(bits: &mut [u64], nodes: &[NodeId]) {
    if nodes.len() >= bits.len() {
        // At least one node per word: zeroing every word costs no more.
        bits.fill(0);
    } else {
        for node in nodes {
            bits[node.index() / 64] = 0;
        }
    }
}

impl SearchScratch {
    /// Creates an empty arena; buffers grow to the workload on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_marks_only() {
        let mut v = VisitedSet::new();
        v.reset(130);
        assert!(v.insert(0));
        assert!(v.insert(64));
        assert!(v.insert(129));
        assert!(!v.insert(0));
        assert!(!v.insert(64));
        assert!(v.contains(129));
        assert!(!v.contains(128));
    }

    #[test]
    fn reset_clears_in_constant_time_semantics() {
        let mut v = VisitedSet::new();
        v.reset(256);
        for i in 0..256 {
            assert!(v.insert(i));
        }
        v.reset(256);
        for i in 0..256 {
            assert!(!v.contains(i), "bit {i} survived a reset");
            assert!(v.insert(i));
        }
    }

    #[test]
    fn reset_grows_to_larger_graphs() {
        let mut v = VisitedSet::new();
        v.reset(10);
        assert!(v.insert(9));
        v.reset(1000);
        assert!(!v.contains(9));
        assert!(v.insert(999));
    }

    #[test]
    fn matches_a_bool_vector_under_random_operations() {
        // The bitset must be semantically identical to vec![false; N] — that
        // equivalence is what keeps scratch searches byte-identical.
        let n = 300usize;
        let mut v = VisitedSet::new();
        let mut reference = vec![false; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        v.reset(n);
        for round in 0..5 {
            for _ in 0..500 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(round);
                let i = (state >> 33) as usize % n;
                let fresh = !reference[i];
                reference[i] = true;
                assert_eq!(v.insert(i), fresh, "insert({i}) disagreed");
                assert!(v.contains(i));
            }
            v.reset(n);
            reference.iter_mut().for_each(|b| *b = false);
        }
    }

    #[test]
    fn sparse_export_round_trips_and_skips_stale_generations() {
        let mut v = VisitedSet::new();
        v.reset(400);
        for i in [0usize, 63, 64, 199, 399] {
            v.insert(i);
        }
        let marks = v.export_sparse();
        // Only touched words appear, in ascending order.
        assert_eq!(
            marks.iter().map(|&(w, _)| w).collect::<Vec<_>>(),
            vec![0, 1, 3, 6]
        );
        let mut other = VisitedSet::new();
        other.reset(50); // deliberately dirty and smaller
        other.insert(13);
        other.import_sparse(400, &marks);
        for i in 0..400 {
            assert_eq!(
                other.contains(i),
                v.contains(i),
                "bit {i} diverged after import"
            );
        }
        assert!(!other.insert(63));
        assert!(other.insert(62));
        // Marks from a previous generation never leak into an export.
        v.reset(400);
        v.insert(7);
        assert_eq!(v.export_sparse(), vec![(0, 1u64 << 7)]);
        // A fully unvisited set exports nothing.
        v.reset(400);
        assert!(v.export_sparse().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn importing_an_out_of_range_word_panics() {
        let mut v = VisitedSet::new();
        v.import_sparse(100, &[(2, 1)]);
    }
}
