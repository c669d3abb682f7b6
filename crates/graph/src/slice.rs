//! The shard partition and contiguous shard slices of a frozen CSR snapshot.
//!
//! Shard `i` of `s` over `n` nodes owns [`shard_range`]`(n, s, i)`, a contiguous
//! near-equal split; [`shard_of`] inverts it. Every endpoint that shards a snapshot —
//! the sharded store, a placed dispatcher and its shard hosts, `sfo snapshot inspect` —
//! derives ownership from these three integers, so no partition table is ever stored
//! or shipped.
//!
//! A [`CsrSlice`] is exactly what one shard host owns under placed execution: the
//! rebased `offsets` column and contiguous `targets` rows of one node range
//! `start..end`, plus the *global* node and edge counts of the snapshot it was cut
//! from. Targets stay global [`NodeId`]s — a slice can tell that a neighbor exists and
//! which node it is, but it can only enumerate the neighbor rows of the nodes it owns.
//!
//! [`ShardView`] is the read interface placed traversals run against: the whole
//! snapshot ([`CsrGraph`] owns every row) and a shard slice implement it identically
//! over the rows they hold, so the same traversal code runs single-host and placed.

use crate::{CsrGraph, GraphError, NodeId};
use std::ops::Range;

/// The node range shard `index` of `shard_count` owns over `node_count` nodes: the
/// first `node_count % shard_count` shards hold one extra node. When `shard_count`
/// exceeds `node_count`, the surplus shards own empty ranges.
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

/// The shard owning `node` under [`shard_range`]'s partition — the placed routing
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
        // Only reachable when base > 0: with base == 0 every node lives in a big shard.
        big + (node - cut) / base
    }
}

/// A read view over some (possibly all) rows of a frozen snapshot.
///
/// The contract mirrors [`CsrGraph`]: neighbor slices are in frozen order and
/// `node_count` is the *global* node count of the underlying snapshot, regardless of
/// how many rows this view owns. Callers must check [`ShardView::owns`] before asking
/// for a row a shard view might not hold.
pub trait ShardView {
    /// Global node count of the underlying snapshot.
    fn node_count(&self) -> usize;

    /// Global undirected edge count of the underlying snapshot.
    fn edge_count(&self) -> usize;

    /// Whether this view holds the neighbor row of node `index`.
    fn owns(&self, index: usize) -> bool;

    /// The neighbor row of an owned node, in frozen order.
    ///
    /// # Panics
    ///
    /// Panics if the view does not own `node` (see [`ShardView::owns`]).
    fn neighbors(&self, node: NodeId) -> &[NodeId];
}

impl ShardView for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    #[inline]
    fn owns(&self, index: usize) -> bool {
        index < CsrGraph::node_count(self)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        CsrGraph::neighbors(self, node)
    }
}

/// One contiguous node range of a CSR snapshot: the rebased offsets and row block a
/// shard host owns, plus the global shape of the snapshot it was cut from.
///
/// Built locally by [`CsrGraph::extract_slice`] or remotely from a decoded `LoadShard`
/// payload via [`CsrSlice::from_parts`]; both paths produce the identical value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSlice {
    /// First owned node (global id).
    start: usize,
    /// One past the last owned node (global id).
    end: usize,
    /// Global node count of the source snapshot.
    node_count: usize,
    /// Global undirected edge count of the source snapshot.
    edge_count: usize,
    /// Rebased row offsets: `offsets[i]` is where owned node `start + i`'s row begins
    /// in `targets`; length `end - start + 1`.
    offsets: Vec<u32>,
    /// The owned rows, concatenated. Entries are global node ids.
    targets: Vec<NodeId>,
}

impl CsrSlice {
    /// Assembles a slice from its raw columns, validating every structural invariant:
    /// a sane range, a rebased offsets column of the right length starting at zero and
    /// nondecreasing up to `targets.len()`, and every target inside the global id
    /// space.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] naming the violated invariant.
    pub fn from_parts(
        range: Range<usize>,
        node_count: usize,
        edge_count: usize,
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let invalid = |reason: &'static str| GraphError::InvalidParameter { reason };
        if range.start > range.end || range.end > node_count {
            return Err(invalid("shard slice range out of bounds"));
        }
        if offsets.len() != range.end - range.start + 1 {
            return Err(invalid(
                "shard slice offsets length does not match its range",
            ));
        }
        if offsets[0] != 0 {
            return Err(invalid("shard slice offsets must start at zero"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid("shard slice offsets must be nondecreasing"));
        }
        if *offsets.last().expect("nonempty offsets") as usize != targets.len() {
            return Err(invalid("shard slice offsets do not cover its targets"));
        }
        if targets.iter().any(|t| t.index() >= node_count) {
            return Err(invalid("shard slice target outside the global id space"));
        }
        if targets.len() > edge_count.saturating_mul(2) {
            return Err(invalid("shard slice holds more entries than the snapshot"));
        }
        Ok(CsrSlice {
            start: range.start,
            end: range.end,
            node_count,
            edge_count,
            offsets,
            targets,
        })
    }

    /// First owned node (global id).
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last owned node (global id).
    #[inline]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of nodes this slice owns.
    #[inline]
    pub fn owned_count(&self) -> usize {
        self.end - self.start
    }

    /// Number of directed adjacency entries (row cells) this slice owns.
    #[inline]
    pub fn owned_entries(&self) -> usize {
        self.targets.len()
    }

    /// The slice's raw columns: rebased offsets and global-id targets.
    pub fn raw_parts(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    /// Degree of an owned node.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not own `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        ShardView::neighbors(self, node).len()
    }
}

impl ShardView for CsrSlice {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn owns(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        assert!(
            self.owns(node.index()),
            "node {node} is not owned by shard slice {}..{}",
            self.start,
            self.end
        );
        let local = node.index() - self.start;
        &self.targets[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

impl CsrGraph {
    /// The number of directed adjacency entries in the rows of `range` whose neighbor
    /// lies outside it: the cross-shard entries of the shard owning `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not a valid node range of the snapshot.
    pub fn boundary_entries(&self, range: Range<usize>) -> usize {
        let (offsets, targets) = self.raw_parts();
        let block = &targets[offsets[range.start] as usize..offsets[range.end] as usize];
        block
            .iter()
            .filter(|neighbor| !range.contains(&neighbor.index()))
            .count()
    }

    /// The number of undirected edges whose endpoints lie in different shards when the
    /// node ids are cut into `shard_count` shards by [`shard_range`].
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn cross_shard_edges(&self, shard_count: usize) -> usize {
        assert!(shard_count > 0, "zero shards are not a partition");
        let node_count = self.node_count();
        (0..shard_count)
            .map(|index| self.boundary_entries(shard_range(node_count, shard_count, index)))
            .sum::<usize>()
            / 2
    }

    /// The fraction of undirected edges [`CsrGraph::cross_shard_edges`] counts as
    /// crossing between `shard_count` shards (0.0 for an edgeless graph).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn boundary_fraction(&self, shard_count: usize) -> f64 {
        let cross = self.cross_shard_edges(shard_count);
        if self.edge_count() == 0 {
            0.0
        } else {
            cross as f64 / self.edge_count() as f64
        }
    }

    /// Cuts the contiguous node range `range` out of the snapshot as a [`CsrSlice`]:
    /// the range's row block is copied once and its offsets rebased to start at zero.
    /// This is exactly the per-host shipment of placed execution; [`shard_range`] names
    /// the range of each shard.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not a valid node range of the snapshot.
    pub fn extract_slice(&self, range: Range<usize>) -> CsrSlice {
        assert!(
            range.start <= range.end && range.end <= self.node_count(),
            "range {range:?} out of bounds for a {}-node snapshot",
            self.node_count()
        );
        let (offsets, targets) = self.raw_parts();
        let base = offsets[range.start];
        let rebased: Vec<u32> = offsets[range.start..=range.end]
            .iter()
            .map(|&o| o - base)
            .collect();
        let block = targets[offsets[range.start] as usize..offsets[range.end] as usize].to_vec();
        CsrSlice::from_parts(range, self.node_count(), self.edge_count(), rebased, block)
            .expect("a slice cut from a valid snapshot is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphView};

    fn path_graph(n: usize) -> CsrGraph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        g.freeze()
    }

    #[test]
    fn shard_ranges_tile_the_node_ids_evenly_and_shard_of_inverts_them() {
        for n in [0usize, 1, 2, 23, 100] {
            for s in (1..=7).chain([n, n + 3]).filter(|&s| s > 0) {
                let ranges: Vec<Range<usize>> = (0..s).map(|i| shard_range(n, s, i)).collect();
                let mut next = 0;
                for range in &ranges {
                    assert_eq!(range.start, next, "{n} nodes, {s} shards");
                    next = range.end;
                }
                assert_eq!(next, n, "{n} nodes, {s} shards");
                let sizes = ranges.iter().map(ExactSizeIterator::len);
                let (min, max) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
                assert!(max - min <= 1, "{n} nodes, {s} shards: sizes {min}..={max}");
                for (i, range) in ranges.iter().enumerate() {
                    for node in range.clone() {
                        assert_eq!(
                            shard_of(node, n, s),
                            i,
                            "node {node}, {n} nodes, {s} shards"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cross_shard_edges_count_the_entries_whose_ends_have_different_owners() {
        let mut g = Graph::with_nodes(23);
        for i in 0..23 {
            g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 23))
                .unwrap();
            let _ = g.add_edge(NodeId::new(i), NodeId::new((i + 7) % 23));
        }
        let csr = g.freeze();
        for s in [1usize, 2, 5, 23, 30] {
            let owner = |node: NodeId| shard_of(node.index(), 23, s);
            let crossing = csr.edges().filter(|&(u, v)| owner(u) != owner(v)).count();
            assert_eq!(csr.cross_shard_edges(s), crossing, "{s} shards");
            let sent: usize = (0..s)
                .map(|i| csr.boundary_entries(shard_range(23, s, i)))
                .sum();
            assert_eq!(sent, 2 * crossing, "{s} shards");
        }
    }

    #[test]
    fn extracted_slices_reproduce_the_snapshot_rows() {
        let csr = path_graph(10);
        for (start, end) in [(0usize, 4usize), (4, 7), (7, 10), (0, 10), (3, 3)] {
            let slice = csr.extract_slice(start..end);
            assert_eq!(ShardView::node_count(&slice), 10);
            assert_eq!(ShardView::edge_count(&slice), 9);
            assert_eq!(slice.owned_count(), end - start);
            for node in 0..10 {
                assert_eq!(slice.owns(node), (start..end).contains(&node));
            }
            for node in start..end {
                assert_eq!(
                    ShardView::neighbors(&slice, NodeId::new(node)),
                    csr.neighbors(NodeId::new(node)),
                    "row {node} of slice {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn slices_round_trip_through_their_raw_parts() {
        let csr = path_graph(8);
        let slice = csr.extract_slice(2..6);
        let (offsets, targets) = slice.raw_parts();
        let back = CsrSlice::from_parts(
            2..6,
            ShardView::node_count(&slice),
            ShardView::edge_count(&slice),
            offsets.to_vec(),
            targets.to_vec(),
        )
        .unwrap();
        assert_eq!(back, slice);
    }

    #[test]
    fn malformed_parts_are_typed_errors() {
        let csr = path_graph(6);
        let slice = csr.extract_slice(1..4);
        let (offsets, targets) = slice.raw_parts();
        let (offsets, targets) = (offsets.to_vec(), targets.to_vec());
        // Reversed (deliberately malformed) and out-of-bounds ranges.
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..3;
        assert!(CsrSlice::from_parts(reversed, 6, 5, offsets.clone(), targets.clone()).is_err());
        assert!(CsrSlice::from_parts(1..9, 6, 5, offsets.clone(), targets.clone()).is_err());
        // Offsets column the wrong length / not rebased / decreasing / not covering.
        assert!(CsrSlice::from_parts(1..4, 6, 5, vec![0, 2], targets.clone()).is_err());
        let mut shifted = offsets.clone();
        shifted[0] = 1;
        assert!(CsrSlice::from_parts(1..4, 6, 5, shifted, targets.clone()).is_err());
        let mut decreasing = offsets.clone();
        decreasing[1] = u32::MAX;
        assert!(CsrSlice::from_parts(1..4, 6, 5, decreasing, targets.clone()).is_err());
        let mut short = offsets.clone();
        *short.last_mut().unwrap() -= 1;
        assert!(CsrSlice::from_parts(1..4, 6, 5, short, targets.clone()).is_err());
        // A target outside the global id space.
        let mut wild = targets.clone();
        wild[0] = NodeId::new(6);
        assert!(CsrSlice::from_parts(1..4, 6, 5, offsets.clone(), wild).is_err());
        // More entries than the snapshot has.
        assert!(CsrSlice::from_parts(1..4, 6, 2, offsets, targets).is_err());
    }

    #[test]
    fn the_whole_graph_is_a_shard_view_owning_everything() {
        let csr = path_graph(5);
        assert!(ShardView::owns(&csr, 4));
        assert!(!ShardView::owns(&csr, 5));
        assert_eq!(
            ShardView::neighbors(&csr, NodeId::new(2)),
            csr.neighbors(NodeId::new(2))
        );
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn asking_a_slice_for_a_foreign_row_panics() {
        let csr = path_graph(6);
        let slice = csr.extract_slice(0..3);
        let _ = ShardView::neighbors(&slice, NodeId::new(5));
    }
}
