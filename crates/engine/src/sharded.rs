//! The sharded CSR topology store.
//!
//! [`ShardedCsr`] partitions a frozen [`CsrGraph`] into contiguous node-id ranges —
//! [`sfo_graph::shard_range`]'s partition, the one placed execution routes by. The
//! CSR arrays stay flat — neighbor lookup is the same two array reads as on the
//! unsharded snapshot, so the sharded store costs *nothing* on the traversal hot path —
//! and each [`CsrShard`] is just its node range. Everything else about a shard follows
//! from its rows: its cross-shard entries are counted on demand
//! ([`ShardedCsr::cross_shard_edges`]) and never stored, and the rows a shard host owns
//! are cut with [`CsrGraph::extract_slice`].
//!
//! The assembly implements [`GraphView`] with the frozen neighbor order of the source
//! snapshot, so *any* algorithm generic over `GraphView` — all seven search algorithms,
//! BFS, the metric sweeps — runs on a sharded store unchanged and returns byte-identical
//! results (enforced by `tests/shard_equivalence.rs` at the workspace root). The store
//! is plain owned arrays, hence `Send + Sync`: a query batch fans out over one shared
//! `ShardedCsr` from any number of worker threads.

use serde::{Deserialize, Serialize};
use sfo_graph::snapshot::{SnapshotError, SnapshotFile};
use sfo_graph::{shard_range, CsrGraph, Graph, GraphView, NodeId};
use std::path::Path;

/// One contiguous node-id range of a [`ShardedCsr`].
///
/// The rows themselves are served by the parent store, so the traversal hot path stays
/// a flat-array lookup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrShard {
    /// First global node id of the shard.
    start: usize,
    /// One past the last global node id of the shard.
    end: usize,
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
}

/// A frozen CSR snapshot partitioned into contiguous node-id ranges.
///
/// Built by [`ShardedCsr::from_csr`] (or [`ShardedCsr::from_graph`]); the shard count is
/// clamped to `[1, node_count]`, and the ranges are [`sfo_graph::shard_range`]'s: when
/// the count does not divide the node count the first `node_count % shards` shards
/// hold one extra node, so shard sizes differ by at most one. Node ids, neighbor order,
/// and therefore every RNG-consuming traversal are identical to the unsharded
/// [`CsrGraph`].
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
    /// The flat snapshot serving every row lookup. Usually owned; after
    /// [`ShardedCsr::load_mmap`] the arrays are borrowed from a read-only file mapping,
    /// with identical values and neighbor order either way.
    csr: CsrGraph,
    /// The partition, ordered by node range.
    shards: Vec<CsrShard>,
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
    /// mapped). The partition is O(shards): nothing is computed over the arrays.
    pub fn from_csr_owned(csr: CsrGraph, shards: usize) -> Self {
        let node_count = csr.node_count();
        let shard_count = shards.clamp(1, node_count.max(1));
        let shards = (0..shard_count)
            .map(|index| {
                let range = shard_range(node_count, shard_count, index);
                CsrShard {
                    start: range.start,
                    end: range.end,
                }
            })
            .collect();
        ShardedCsr { csr, shards }
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

    /// Returns the shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn shard_of(&self, node: NodeId) -> usize {
        sfo_graph::shard_of(node.index(), self.node_count(), self.shard_count())
    }

    /// Returns the number of undirected edges whose endpoints live in different
    /// shards, counted from the rows.
    pub fn cross_shard_edges(&self) -> usize {
        self.csr.cross_shard_edges(self.shard_count())
    }

    /// Returns the fraction of undirected edges that cross a shard boundary (0.0 for an
    /// edgeless graph).
    pub fn boundary_fraction(&self) -> f64 {
        self.csr.boundary_fraction(self.shard_count())
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

    /// Packs the store into a [`SnapshotFile`]: the flat CSR arrays plus the shard
    /// count, with no provenance (callers like `sfo snapshot build` attach their own
    /// before saving).
    pub fn to_snapshot_file(&self) -> SnapshotFile {
        SnapshotFile {
            csr: self.to_csr(),
            shards: Some(self.shard_count()),
            provenance: None,
        }
    }

    /// Writes the store to `path` in the binary `SFOS` snapshot format: the flat CSR
    /// arrays, written straight from the store, plus the shard count.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be written, or when the store
    /// is empty (no shard count cuts an empty topology).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        sfo_graph::snapshot::save(path, &self.csr, Some(self.shard_count()), None)
    }

    /// Reads a sharded store back from an `SFOS` snapshot file written by
    /// [`ShardedCsr::save`]: the stored arrays cut by the stored shard count.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be read,
    /// [`SnapshotError::MissingSection`] when it has no shard count (a plain
    /// [`CsrGraph::save`] file; load it with [`CsrGraph::load`] and shard it with
    /// [`ShardedCsr::from_csr_owned`] instead), and every decoding error of
    /// [`SnapshotFile::load`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_file(SnapshotFile::load(path)?)
    }

    /// Like [`ShardedCsr::load`], but through [`SnapshotFile::load_mmap`]: the store's
    /// arrays are borrowed out of a read-only file mapping (checksum-verified once)
    /// instead of copied into the heap. On targets without mmap support, or for files
    /// whose array sections the loader cannot borrow, the result is the identical owned
    /// store.
    ///
    /// # Errors
    ///
    /// The same errors as [`ShardedCsr::load`].
    pub fn load_mmap(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_file(SnapshotFile::load_mmap(path)?)
    }

    /// Builds the store from a loaded snapshot — the shared tail of the loaders.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::MissingSection`] when the file has no shard count.
    pub fn from_snapshot_file(file: SnapshotFile) -> Result<Self, SnapshotError> {
        let Some(shards) = file.shards else {
            return Err(SnapshotError::MissingSection {
                section: "shard partition",
            });
        };
        Ok(ShardedCsr::from_csr_owned(file.csr, shards))
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
    fn cross_shard_edges_match_a_count_from_the_rows() {
        let csr = sample(30).freeze();
        for shards in [2usize, 4, 7] {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            let mut cross = 0;
            for node in csr.nodes() {
                for &neighbor in csr.neighbors(node) {
                    let owner = sharded.shard_of(neighbor);
                    assert!(sharded.shards()[owner].owns(neighbor));
                    cross += usize::from(owner != sharded.shard_of(node));
                }
            }
            assert_eq!(cross % 2, 0, "directed cross entries pair up");
            assert_eq!(sharded.cross_shard_edges(), cross / 2, "{shards} shards");
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = sample(20);
        let sharded = ShardedCsr::from_graph(&g, 1);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.cross_shard_edges(), 0);
        assert_eq!(sharded.boundary_fraction(), 0.0);
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
    fn save_load_round_trips_exactly() {
        let g = sample(23);
        for shards in [1usize, 2, 7] {
            let store = ShardedCsr::from_graph(&g, shards);
            let path = temp_path(&format!("roundtrip-{shards}.sfos"));
            store.save(&path).unwrap();
            let back = ShardedCsr::load(&path).unwrap();
            assert_eq!(back, store, "{shards} shards");
            assert_eq!(back.cross_shard_edges(), store.cross_shard_edges());
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
            // Semantic equality across storages.
            assert_eq!(mapped, read, "{shards} shards");
            assert_eq!(mapped, store, "{shards} shards");
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
                section: "shard partition"
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
}
