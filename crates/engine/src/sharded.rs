//! The sharded CSR topology store.
//!
//! [`ShardedCsr`] partitions a frozen [`CsrGraph`] into contiguous node-id ranges. The
//! CSR arrays stay flat — neighbor lookup is the same two array reads as on the
//! unsharded snapshot, so the sharded store costs *nothing* on the traversal hot path —
//! and each [`CsrShard`] describes one partition: its node range, the contiguous slice
//! of the `targets` array holding its rows, and a [`BoundaryTable`] listing the directed
//! adjacency entries that leave the shard. Because every shard's rows are one
//! contiguous slice ([`ShardedCsr::shard_targets`]), a shard is exactly the unit a
//! multi-process deployment would mmap or ship to a shard host, and the boundary table
//! is exactly the routing table it would need for cross-shard edges.
//!
//! The assembly implements [`GraphView`] with the frozen neighbor order of the source
//! snapshot, so *any* algorithm generic over `GraphView` — all seven search algorithms,
//! BFS, the metric sweeps — runs on a sharded store unchanged and returns byte-identical
//! results (enforced by `tests/shard_equivalence.rs` at the workspace root). The store
//! is plain owned arrays, hence `Send + Sync`: a query batch fans out over one shared
//! `ShardedCsr` from any number of worker threads.

use serde::{Deserialize, Serialize};
use sfo_graph::snapshot::{ShardRecord, SnapshotError, SnapshotFile};
use sfo_graph::{CsrGraph, Graph, GraphView, NodeId};
use std::path::Path;

/// One directed adjacency entry whose endpoints live in different shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryEdge {
    /// The node inside the owning shard.
    pub source: NodeId,
    /// Its neighbor in another shard.
    pub target: NodeId,
    /// The shard that owns `target`.
    pub target_shard: usize,
}

/// The cross-shard edges of one shard, in frozen adjacency order.
///
/// Every undirected cross-shard edge appears in exactly two boundary tables, once per
/// direction, so the table alone tells a shard which remote rows its traversals touch.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BoundaryTable {
    edges: Vec<BoundaryEdge>,
}

impl BoundaryTable {
    /// Returns the outgoing cross-shard entries, in frozen adjacency order.
    pub fn edges(&self) -> &[BoundaryEdge] {
        &self.edges
    }

    /// Returns the number of outgoing cross-shard entries.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the shard has no cross-shard edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns how many of the entries point into `shard`.
    pub fn edges_into(&self, shard: usize) -> usize {
        self.edges
            .iter()
            .filter(|e| e.target_shard == shard)
            .count()
    }
}

/// One contiguous node-id range of a [`ShardedCsr`].
///
/// The shard holds partition metadata — its node range, where its rows live in the
/// store's flat `targets` array, and its boundary table; the rows themselves are served
/// by the parent store ([`ShardedCsr::shard_targets`]) so the traversal hot path stays
/// a flat-array lookup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrShard {
    /// First global node id of the shard.
    start: usize,
    /// One past the last global node id of the shard.
    end: usize,
    /// Range of the store's `targets` array holding this shard's rows.
    targets_start: usize,
    /// End of the shard's row block in the store's `targets` array.
    targets_end: usize,
    /// The directed adjacency entries leaving this shard.
    boundary: BoundaryTable,
}

impl CsrShard {
    /// Returns the global node-id range `[start, end)` this shard owns.
    pub fn node_range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Returns the number of nodes in the shard.
    pub fn local_count(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if `node` (global id) belongs to this shard.
    pub fn owns(&self, node: NodeId) -> bool {
        self.node_range().contains(&node.index())
    }

    /// Returns the number of directed adjacency entries stored in the shard.
    pub fn entry_count(&self) -> usize {
        self.targets_end - self.targets_start
    }

    /// Returns the shard's cross-shard edge table.
    pub fn boundary(&self) -> &BoundaryTable {
        &self.boundary
    }
}

/// A frozen CSR snapshot partitioned into contiguous node-id ranges.
///
/// Built by [`ShardedCsr::from_csr`] (or [`ShardedCsr::from_graph`]); the shard count is
/// clamped to `[1, node_count]`, and when the count does not divide the node count the
/// first `node_count % shards` shards hold one extra node, so shard sizes differ by at
/// most one. Node ids, neighbor order, and therefore every RNG-consuming traversal are
/// identical to the unsharded [`CsrGraph`].
///
/// # Example
///
/// ```
/// use sfo_engine::ShardedCsr;
/// use sfo_graph::{Graph, GraphView, NodeId};
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let mut g = Graph::with_nodes(5);
/// g.add_edge(NodeId::new(0), NodeId::new(4))?;
/// g.add_edge(NodeId::new(1), NodeId::new(2))?;
/// let sharded = ShardedCsr::from_csr(&g.freeze(), 2);
/// assert_eq!(sharded.shard_count(), 2);
/// assert_eq!(sharded.node_count(), 5);
/// assert_eq!(sharded.neighbors(NodeId::new(0)), g.neighbors(NodeId::new(0)));
/// // 0-4 crosses the shard boundary, 1-2 does not.
/// assert_eq!(sharded.cross_shard_edges(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedCsr {
    /// The flat snapshot serving every row lookup — a shard's rows are one contiguous
    /// sub-slice of its `targets` array (see [`ShardedCsr::shard_targets`]). Usually
    /// owned; after [`ShardedCsr::load_mmap`] the arrays are borrowed from a read-only
    /// file mapping, with identical values and neighbor order either way.
    csr: CsrGraph,
    /// The partition, ordered by node range.
    shards: Vec<CsrShard>,
    /// Shards `0 .. big_shards` hold `base + 1` nodes; the rest hold `base`.
    base: usize,
    big_shards: usize,
}

impl ShardedCsr {
    /// Partitions a borrowed snapshot into `shards` contiguous node-id ranges.
    ///
    /// `shards` is clamped to `[1, node_count]` (an empty graph yields one empty shard),
    /// so any requested count is safe, including counts that do not divide the node
    /// count. The CSR arrays are block-copied once; use [`ShardedCsr::from_csr_owned`]
    /// to take them over without any copy.
    pub fn from_csr(csr: &CsrGraph, shards: usize) -> Self {
        ShardedCsr::from_csr_owned(csr.clone(), shards)
    }

    /// Partitions an owned snapshot into `shards` contiguous node-id ranges, taking
    /// over its flat arrays without copying them (a memory-mapped snapshot stays
    /// mapped — the partition metadata is computed over the borrowed arrays in place).
    ///
    /// Computing the partition metadata (shard ranges, row blocks, boundary tables) is
    /// one O(V + E) read-only pass over the arrays.
    pub fn from_csr_owned(csr: CsrGraph, shards: usize) -> Self {
        let node_count = csr.node_count();
        let (offsets, targets) = csr.raw_parts();
        let (shard_count, base, big_shards) = partition(node_count, shards);

        let mut built = Vec::with_capacity(shard_count);
        let mut start = 0usize;
        for s in 0..shard_count {
            let len = base + usize::from(s < big_shards);
            let mut boundary = Vec::new();
            for node in start..start + len {
                let row = &targets[offsets[node] as usize..offsets[node + 1] as usize];
                for &neighbor in row {
                    let target_shard = shard_of(neighbor.index(), base, big_shards);
                    if target_shard != s {
                        boundary.push(BoundaryEdge {
                            source: NodeId::new(node),
                            target: neighbor,
                            target_shard,
                        });
                    }
                }
            }
            built.push(CsrShard {
                start,
                end: start + len,
                targets_start: offsets[start] as usize,
                targets_end: offsets[start + len] as usize,
                boundary: BoundaryTable { edges: boundary },
            });
            start += len;
        }
        debug_assert_eq!(start, node_count);

        ShardedCsr {
            csr,
            shards: built,
            base,
            big_shards,
        }
    }

    /// Freezes a mutable graph and partitions the snapshot, moving its arrays straight
    /// into the store.
    pub fn from_graph(graph: &Graph, shards: usize) -> Self {
        ShardedCsr::from_csr_owned(graph.freeze(), shards)
    }

    /// Returns the number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Returns the shards, ordered by node range.
    pub fn shards(&self) -> &[CsrShard] {
        &self.shards
    }

    /// Returns the contiguous slice of the `targets` array holding shard `s`'s rows —
    /// the byte range a shard host would own.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a shard index.
    pub fn shard_targets(&self, s: usize) -> &[NodeId] {
        let shard = &self.shards[s];
        &self.csr.raw_parts().1[shard.targets_start..shard.targets_end]
    }

    /// Returns the shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn shard_of(&self, node: NodeId) -> usize {
        assert!(
            node.index() < self.node_count(),
            "node {node} out of bounds for a {}-node sharded snapshot",
            self.node_count()
        );
        shard_of(node.index(), self.base, self.big_shards)
    }

    /// Returns the total number of directed cross-shard entries divided by two — i.e.
    /// the number of undirected edges whose endpoints live in different shards.
    pub fn cross_shard_edges(&self) -> usize {
        self.shards.iter().map(|s| s.boundary.len()).sum::<usize>() / 2
    }

    /// Returns the fraction of undirected edges that cross a shard boundary (0.0 for an
    /// edgeless graph).
    pub fn boundary_fraction(&self) -> f64 {
        if self.edge_count() == 0 {
            0.0
        } else {
            self.cross_shard_edges() as f64 / self.edge_count() as f64
        }
    }

    /// Reassembles the unsharded snapshot, exactly inverting [`ShardedCsr::from_csr`].
    pub fn to_csr(&self) -> CsrGraph {
        self.csr.clone()
    }

    /// Returns `true` when the store's arrays are borrowed from a file mapping (a
    /// [`ShardedCsr::load_mmap`] store) rather than owned by the heap.
    pub fn is_mapped(&self) -> bool {
        self.csr.is_mapped()
    }

    /// Returns the number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Returns the number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// Returns the neighbors of `node` in frozen order (same as the source snapshot).
    ///
    /// Two flat-array reads, identical to [`CsrGraph::neighbors`] — sharding does not
    /// tax the traversal hot path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.csr.neighbors(node)
    }

    /// Returns the degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.csr.degree(node)
    }

    /// The shard ranges [`ShardedCsr::from_csr_owned`] cuts `node_count` nodes into,
    /// as the snapshot codec's manifest records — the partition without its boundary
    /// tables, which the codec derives from the rows.
    pub fn manifest(node_count: usize, shards: usize) -> Vec<ShardRecord> {
        let (shard_count, base, big_shards) = partition(node_count, shards);
        let mut start = 0u64;
        (0..shard_count)
            .map(|s| {
                let len = (base + usize::from(s < big_shards)) as u64;
                start += len;
                ShardRecord {
                    start: start - len,
                    end: start,
                }
            })
            .collect()
    }

    /// Packs the store into a [`SnapshotFile`]: the flat CSR arrays plus a shard
    /// manifest recording every shard's node range (the file's boundary tables are
    /// derived from them), with no provenance (callers like `sfo snapshot build`
    /// attach their own before saving).
    pub fn to_snapshot_file(&self) -> SnapshotFile {
        SnapshotFile {
            csr: self.to_csr(),
            shards: Some(ShardedCsr::manifest(self.node_count(), self.shard_count())),
            provenance: None,
        }
    }

    /// Writes the store to `path` in the binary `SFOS` snapshot format: the flat CSR
    /// arrays plus a shard manifest recording every shard's node range and
    /// [`BoundaryTable`]. The arrays are written straight from the store.
    ///
    /// A shard host deployment ships exactly what one manifest record describes — the
    /// shard's contiguous [`ShardedCsr::shard_targets`] rows plus its boundary table as
    /// the cross-shard routing table.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let manifest = ShardedCsr::manifest(self.node_count(), self.shard_count());
        sfo_graph::snapshot::save(path, &self.csr, Some(&manifest), None)
    }

    /// Reads a sharded store back from an `SFOS` snapshot file written by
    /// [`ShardedCsr::save`], reconstructing every shard from its contiguous row slice.
    ///
    /// The shards are rebuilt with [`ShardedCsr::from_csr_owned`] over the stored
    /// arrays and then checked against the file's manifest entry by entry, so a loaded
    /// store is *exactly* the saved one — same ranges, same row blocks, same boundary
    /// tables — or a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be read,
    /// [`SnapshotError::MissingSection`] when it has no shard manifest (a plain
    /// [`CsrGraph::save`] file; load it with [`CsrGraph::load`] and shard it with
    /// [`ShardedCsr::from_csr_owned`] instead), [`SnapshotError::Corrupt`] when the
    /// stored manifest does not describe the stored topology, and every decoding error
    /// of [`SnapshotFile::load`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_file(SnapshotFile::load(path)?)
    }

    /// Like [`ShardedCsr::load`], but through
    /// [`SnapshotFile::load_mmap`]: the store's arrays are borrowed out of a read-only
    /// file mapping (checksum-verified once) instead of copied into the heap, with the
    /// partition metadata rebuilt and checked against the stored manifest exactly as in
    /// the read-based load. On targets without mmap support, or for files whose array
    /// sections the loader cannot borrow, the result is the identical owned store.
    ///
    /// # Errors
    ///
    /// The same errors as [`ShardedCsr::load`].
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_file(SnapshotFile::load_mmap(path)?)
    }

    /// Builds the store from a loaded snapshot — the shared tail of the loaders: require
    /// a manifest whose ranges are exactly the partition [`ShardedCsr::from_csr_owned`]
    /// cuts, then rebuild the boundary tables over the arrays as it does. (The loader
    /// has already checked every stored boundary entry against the rows.)
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::MissingSection`] when the file has no shard manifest
    /// and [`SnapshotError::Corrupt`] when its ranges are not that partition.
    pub fn from_snapshot_file(file: SnapshotFile) -> Result<Self, SnapshotError> {
        let Some(stored) = file.shards else {
            return Err(SnapshotError::MissingSection {
                section: "shard manifest",
            });
        };
        if ShardedCsr::manifest(file.csr.node_count(), stored.len()) != stored {
            return Err(SnapshotError::Corrupt {
                reason: "shard manifest does not match the partition of the stored topology"
                    .to_string(),
            });
        }
        Ok(ShardedCsr::from_csr_owned(file.csr, stored.len()))
    }
}

/// The canonical partition of `node_count` nodes into `shards` contiguous ranges, as
/// `(shard_count, base, big_shards)`: the count is clamped to `[1, node_count]` (one
/// empty shard for an empty graph), the first `big_shards` shards hold `base + 1`
/// nodes and the rest `base`.
fn partition(node_count: usize, shards: usize) -> (usize, usize, usize) {
    let shard_count = shards.clamp(1, node_count.max(1));
    (
        shard_count,
        node_count / shard_count,
        node_count % shard_count,
    )
}

/// O(1) shard lookup: the first `big_shards` shards hold `base + 1` nodes, the rest
/// `base`. Only used off the hot path (boundary construction, [`ShardedCsr::shard_of`]).
#[inline]
fn shard_of(index: usize, base: usize, big_shards: usize) -> usize {
    let cut = big_shards * (base + 1);
    if index < cut {
        index / (base + 1)
    } else {
        // Only reachable when base > 0: with base == 0 every node lives in a big shard.
        big_shards + (index - cut) / base
    }
}

impl GraphView for ShardedCsr {
    #[inline]
    fn node_count(&self) -> usize {
        ShardedCsr::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        ShardedCsr::edge_count(self)
    }

    #[inline]
    fn degree(&self, node: NodeId) -> usize {
        ShardedCsr::degree(self, node)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        ShardedCsr::neighbors(self, node)
    }
}

impl sfo_graph::ShardView for ShardedCsr {
    #[inline]
    fn node_count(&self) -> usize {
        ShardedCsr::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        ShardedCsr::edge_count(self)
    }

    /// A whole-snapshot store owns every row, so a placed traversal running against
    /// it never forwards — `placed_advance` completes any frontier in one call.
    #[inline]
    fn owns(&self, index: usize) -> bool {
        index < ShardedCsr::node_count(self)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        ShardedCsr::neighbors(self, node)
    }
}

impl From<&CsrGraph> for ShardedCsr {
    /// A single-shard view of the snapshot.
    fn from(csr: &CsrGraph) -> Self {
        ShardedCsr::from_csr(csr, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sample(nodes: usize) -> Graph {
        // A ring plus a few chords, so every shard cut produces boundary edges.
        let mut g = Graph::with_nodes(nodes);
        for i in 0..nodes {
            g.add_edge(n(i), n((i + 1) % nodes)).unwrap();
        }
        for i in 0..nodes / 3 {
            let _ = g.add_edge(n(i), n((i + nodes / 2) % nodes));
        }
        g
    }

    #[test]
    fn sharding_preserves_structure_for_all_counts() {
        let g = sample(23);
        let csr = g.freeze();
        for shards in [1usize, 2, 3, 4, 7, 23, 100] {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            assert_eq!(sharded.shard_count(), shards.min(23));
            assert_eq!(sharded.node_count(), csr.node_count());
            assert_eq!(sharded.edge_count(), csr.edge_count());
            for node in csr.nodes() {
                assert_eq!(
                    sharded.neighbors(node),
                    csr.neighbors(node),
                    "{shards} shards, {node}"
                );
                assert_eq!(sharded.degree(node), csr.degree(node));
            }
            assert_eq!(sharded.to_csr(), csr, "{shards} shards");
        }
    }

    #[test]
    fn ranges_are_contiguous_and_sizes_differ_by_at_most_one() {
        let g = sample(23);
        let sharded = ShardedCsr::from_graph(&g, 7);
        let mut expected_start = 0;
        let mut sizes = Vec::new();
        for shard in sharded.shards() {
            assert_eq!(shard.node_range().start, expected_start);
            expected_start = shard.node_range().end;
            sizes.push(shard.local_count());
        }
        assert_eq!(expected_start, 23);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
        // 23 = 7 * 3 + 2: two shards of 4, five of 3.
        assert_eq!(sizes.iter().filter(|&&s| s == max).count(), 23 % 7);
    }

    #[test]
    fn shard_of_matches_ownership() {
        let g = sample(23);
        let sharded = ShardedCsr::from_graph(&g, 4);
        for node in (0..23).map(n) {
            let s = sharded.shard_of(node);
            assert!(sharded.shards()[s].owns(node), "{node} not in shard {s}");
            for (other, shard) in sharded.shards().iter().enumerate() {
                if other != s {
                    assert!(!shard.owns(node));
                }
            }
        }
    }

    #[test]
    fn shard_rows_are_contiguous_slices_of_the_flat_store() {
        let g = sample(30);
        let sharded = ShardedCsr::from_graph(&g, 4);
        let mut reassembled: Vec<NodeId> = Vec::new();
        for s in 0..sharded.shard_count() {
            let rows = sharded.shard_targets(s);
            assert_eq!(rows.len(), sharded.shards()[s].entry_count());
            // The shard's row block is exactly the concatenation of its nodes' rows.
            let concatenated: Vec<NodeId> = sharded.shards()[s]
                .node_range()
                .flat_map(|v| sharded.neighbors(n(v)).iter().copied())
                .collect();
            assert_eq!(rows, concatenated.as_slice(), "shard {s}");
            reassembled.extend_from_slice(rows);
        }
        // All shard blocks together cover every directed entry exactly once.
        assert_eq!(reassembled.len(), 2 * sharded.edge_count());
    }

    #[test]
    fn boundary_tables_are_symmetric_and_complete() {
        let g = sample(30);
        let csr = g.freeze();
        for shards in [2usize, 4, 7] {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            // Internal + cross entries add up to all directed entries.
            let cross: usize = sharded.shards().iter().map(|s| s.boundary().len()).sum();
            let total: usize = sharded.shards().iter().map(CsrShard::entry_count).sum();
            assert_eq!(total, 2 * csr.edge_count());
            assert_eq!(cross % 2, 0, "directed cross entries pair up");
            assert_eq!(sharded.cross_shard_edges(), cross / 2);

            for (s, shard) in sharded.shards().iter().enumerate() {
                for edge in shard.boundary().edges() {
                    assert!(shard.owns(edge.source));
                    assert_eq!(sharded.shard_of(edge.target), edge.target_shard);
                    assert_ne!(edge.target_shard, s);
                    // The mirrored entry sits in the target shard's table.
                    let mirrored = sharded.shards()[edge.target_shard]
                        .boundary()
                        .edges()
                        .iter()
                        .any(|e| e.source == edge.target && e.target == edge.source);
                    assert!(mirrored, "missing mirror of {edge:?}");
                }
            }
            // edges_into is consistent with the mirrored counts.
            for (s, shard) in sharded.shards().iter().enumerate() {
                for (t, other) in sharded.shards().iter().enumerate() {
                    if s != t {
                        assert_eq!(
                            shard.boundary().edges_into(t),
                            other.boundary().edges_into(s)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = sample(20);
        let sharded = ShardedCsr::from_graph(&g, 1);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.cross_shard_edges(), 0);
        assert_eq!(sharded.boundary_fraction(), 0.0);
        assert!(sharded.shards()[0].boundary().is_empty());
    }

    #[test]
    fn boundary_fraction_grows_with_shard_count_on_a_ring() {
        // A pure ring: k shards cut exactly k edges (for 1 < k <= n).
        let mut g = Graph::with_nodes(24);
        for i in 0..24 {
            g.add_edge(n(i), n((i + 1) % 24)).unwrap();
        }
        let csr = g.freeze();
        for shards in [2usize, 3, 4, 6] {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            assert_eq!(sharded.cross_shard_edges(), shards, "{shards} shards");
            assert!((sharded.boundary_fraction() - shards as f64 / 24.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_and_tiny_graphs_shard_safely() {
        let empty = ShardedCsr::from_graph(&Graph::new(), 4);
        assert_eq!(empty.shard_count(), 1);
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.boundary_fraction(), 0.0);

        let lone = ShardedCsr::from_graph(&Graph::with_nodes(1), 8);
        assert_eq!(lone.shard_count(), 1);
        assert_eq!(lone.degree(n(0)), 0);

        let pair = ShardedCsr::from_graph(&Graph::with_nodes(2), 8);
        assert_eq!(pair.shard_count(), 2);
    }

    #[test]
    fn graph_view_provided_methods_work() {
        let g = sample(20);
        let sharded = ShardedCsr::from_graph(&g, 3);
        let view: &dyn GraphView = &sharded;
        assert_eq!(view.degrees(), g.degrees());
        assert_eq!(view.min_degree(), g.min_degree());
        assert_eq!(view.max_degree(), g.max_degree());
        assert!(view.contains_edge(n(0), n(1)));
        let edges: Vec<_> = GraphView::edges(&sharded).collect();
        let expected: Vec<_> = g.edges().collect();
        assert_eq!(edges, expected);
    }

    #[test]
    fn conversion_from_csr_reference_is_single_shard() {
        let csr = sample(9).freeze();
        let sharded = ShardedCsr::from(&csr);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.to_csr(), csr);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_lookup_panics() {
        let sharded = ShardedCsr::from_graph(&sample(10), 2);
        let _ = sharded.neighbors(n(99));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sfo-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trips_exactly_including_boundary_tables() {
        let g = sample(23);
        for shards in [1usize, 2, 7] {
            let store = ShardedCsr::from_graph(&g, shards);
            let path = temp_path(&format!("roundtrip-{shards}.sfos"));
            store.save(&path).unwrap();
            let back = ShardedCsr::load(&path).unwrap();
            assert_eq!(back, store, "{shards} shards");
            for (a, b) in back.shards().iter().zip(store.shards()) {
                assert_eq!(a.boundary(), b.boundary());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn mmap_load_matches_the_read_load_exactly() {
        let g = sample(23);
        for shards in [1usize, 2, 7] {
            let store = ShardedCsr::from_graph(&g, shards);
            let path = temp_path(&format!("mmap-roundtrip-{shards}.sfos"));
            store.save(&path).unwrap();
            let read = ShardedCsr::load(&path).unwrap();
            let mapped = ShardedCsr::load_mmap(&path).unwrap();
            // Semantic equality across storages, plus the full per-shard surface.
            assert_eq!(mapped, read, "{shards} shards");
            assert_eq!(mapped, store, "{shards} shards");
            for s in 0..read.shard_count() {
                assert_eq!(mapped.shard_targets(s), read.shard_targets(s));
            }
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            assert!(mapped.is_mapped());
            assert!(!read.is_mapped());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn plain_snapshots_are_rejected_with_a_missing_section_error() {
        let path = temp_path("plain.sfos");
        sample(12).freeze().save(&path).unwrap();
        assert_eq!(
            ShardedCsr::load(&path),
            Err(SnapshotError::MissingSection {
                section: "shard manifest"
            })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_files_load_as_plain_topologies_too() {
        // The arrays in a sharded file are the full topology; CsrGraph::load serves a
        // consumer that does not care about the partition.
        let g = sample(16);
        let store = ShardedCsr::from_graph(&g, 4);
        let path = temp_path("as-plain.sfos");
        store.save(&path).unwrap();
        assert_eq!(CsrGraph::load(&path).unwrap(), g.freeze());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn manifests_that_disagree_with_the_topology_are_rejected() {
        // A file whose ranges tile the node ids — so the codec accepts it, boundary
        // tables and all — but are not the partition this store cuts.
        let g = sample(20);
        let store = ShardedCsr::from_graph(&g, 4);
        let mut ranges = ShardedCsr::manifest(20, 4);
        ranges[0].end -= 1;
        ranges[1].start -= 1;
        let file = SnapshotFile {
            csr: store.to_csr(),
            shards: Some(ranges),
            provenance: None,
        };
        let path = temp_path("bad-manifest.sfos");
        file.save(&path).unwrap();
        SnapshotFile::load(&path).unwrap();
        assert_eq!(
            ShardedCsr::load(&path),
            Err(SnapshotError::Corrupt {
                reason: "shard manifest does not match the partition of the stored topology"
                    .to_string()
            })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn manifest_ranges_are_the_partition_the_store_cuts() {
        for (nodes, shards) in [(0usize, 4usize), (1, 8), (23, 7), (30, 4), (9, 1)] {
            let store = ShardedCsr::from_graph(&Graph::with_nodes(nodes), shards);
            let ranges: Vec<_> = store
                .shards()
                .iter()
                .map(|s| (s.node_range().start as u64, s.node_range().end as u64))
                .collect();
            let manifest: Vec<_> = ShardedCsr::manifest(nodes, shards)
                .iter()
                .map(|r| (r.start, r.end))
                .collect();
            assert_eq!(manifest, ranges, "{nodes} nodes, {shards} shards");
        }
    }
}
