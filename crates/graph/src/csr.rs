//! Frozen compressed-sparse-row (CSR) graph snapshots.
//!
//! The read-heavy phases of this workspace — flooding and random-walk searches over
//! 10^4–10^5-node hard-cutoff topologies, structural metrics, the figure harness — never
//! mutate the graph they traverse. [`CsrGraph`] is the build-once/query-many counterpart
//! to the mutable [`Graph`]: all adjacency lists are packed back to back into one flat
//! `targets` array, with a per-node `offsets` index. Neighbor lookup is two array reads
//! and traversals walk memory linearly instead of chasing one heap allocation per node.
//!
//! [`Graph::freeze`] builds a snapshot in O(V + E) preserving the per-node neighbor
//! order, so any algorithm generic over [`GraphView`] consumes identical RNG streams and
//! returns identical results on either backend. [`CsrGraph::thaw`] converts back for
//! phases that need mutation again (churn, rewiring).

use crate::{Graph, GraphView, NodeId};
use serde::{Deserialize, Serialize};

/// An immutable undirected simple graph in compressed-sparse-row form.
///
/// Node ids are the same dense indices as in [`Graph`]; the neighbor order of every node
/// is exactly the order the source graph reported at freeze time.
///
/// # Example
///
/// ```
/// use sfo_graph::{Graph, GraphView, NodeId};
///
/// # fn main() -> Result<(), sfo_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1))?;
/// g.add_edge(NodeId::new(1), NodeId::new(2))?;
/// let frozen = g.freeze();
/// assert_eq!(frozen.node_count(), 3);
/// assert_eq!(frozen.neighbors(NodeId::new(1)), g.neighbors(NodeId::new(1)));
/// assert_eq!(frozen.thaw(), g);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct CsrGraph {
    storage: CsrStorage,
}

/// Where a snapshot's `offsets`/`targets` arrays live.
///
/// Every traversal goes through the [`CsrGraph::offsets`]/[`CsrGraph::targets`]
/// accessors, so the two variants are indistinguishable to callers — same values, same
/// neighbor order, same RNG streams. `Owned` is the universal case; `Mapped` borrows the
/// arrays out of a checksum-verified `SFOS` file mapping (see [`crate::mmap`]) and only
/// exists on targets where that reinterpretation is sound.
#[derive(Clone, Serialize, Deserialize)]
enum CsrStorage {
    Owned {
        /// `offsets[v] .. offsets[v + 1]` indexes the neighbor block of node `v` in
        /// `targets`; length is `node_count + 1`. `u32` halves the index footprint: the
        /// workspace bounds graphs by `u32::MAX` nodes and directed-edge entries.
        offsets: Vec<u32>,
        /// All adjacency lists, concatenated in node order; length is `2 * edge_count`.
        targets: Vec<NodeId>,
    },
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped(crate::mmap::MappedCsr),
}

impl CsrGraph {
    /// The `offsets` array, wherever it lives. All reads in this impl go through here.
    #[inline]
    fn offsets(&self) -> &[u32] {
        match &self.storage {
            CsrStorage::Owned { offsets, .. } => offsets,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(mapped) => mapped.offsets(),
        }
    }

    /// The `targets` array, wherever it lives.
    #[inline]
    fn targets(&self) -> &[NodeId] {
        match &self.storage {
            CsrStorage::Owned { targets, .. } => targets,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(mapped) => mapped.targets(),
        }
    }

    /// Builds a CSR snapshot of `graph` in O(V + E), preserving neighbor order.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` directed adjacency entries (twice
    /// the edge count), which cannot happen for the `u32`-indexed graphs this workspace
    /// builds.
    pub fn from_graph(graph: &Graph) -> Self {
        Self::from_neighbor_lists(graph.node_count(), |node| {
            graph.neighbors(NodeId::new(node)).iter().copied()
        })
    }

    /// Builds a snapshot directly from per-node neighbor lists in O(V + E), without an
    /// intermediate [`Graph`]. `neighbors_of(v)` is called once per node, in node order,
    /// and its iteration order becomes the frozen neighbor order of `v`.
    ///
    /// The lists must describe a valid simple undirected graph: mirrored entries, no
    /// self-loops, no duplicates, all targets below `node_count`. This is checked with a
    /// full consistency pass in debug builds only; callers (like the overlay snapshot,
    /// whose adjacency is mirrored by construction) are trusted in release builds.
    ///
    /// # Panics
    ///
    /// Panics if the lists hold more than `u32::MAX` directed adjacency entries.
    pub fn from_neighbor_lists<I, F>(node_count: usize, mut neighbors_of: F) -> Self
    where
        F: FnMut(usize) -> I,
        I: IntoIterator<Item = NodeId>,
    {
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for node in 0..node_count {
            targets.extend(neighbors_of(node));
            let end = u32::try_from(targets.len())
                .expect("directed adjacency entries exceed the u32 CSR index");
            offsets.push(end);
        }
        let csr = CsrGraph {
            storage: CsrStorage::Owned { offsets, targets },
        };
        debug_assert!({
            csr.thaw().assert_consistent();
            true
        });
        csr
    }

    /// Builds a snapshot from an undirected edge list in O(V + E) with a counting sort.
    ///
    /// Row `v` lists the other endpoint of every edge incident to `v`, in edge order —
    /// exactly the rows [`Graph::add_edge`] grows when the edges are added one by one, so
    /// `from_edges(n, &edges)` equals adding them to `Graph::with_nodes(n)` and calling
    /// [`Graph::freeze`]. The generators that know their edges up front build their
    /// frozen form this way, without a mutable [`Graph`].
    ///
    /// The edges must form a simple graph: no self-loops, no duplicates. This is
    /// checked in debug builds only.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `node_count`, or if the list holds more than
    /// `u32::MAX / 2` edges.
    pub fn from_edges(node_count: usize, edges: &[(u32, u32)]) -> Self {
        u32::try_from(2 * edges.len())
            .expect("directed adjacency entries exceed the u32 CSR index");
        let mut offsets = vec![0u32; node_count + 1];
        for &(a, b) in edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for node in 0..node_count {
            offsets[node + 1] += offsets[node];
        }
        let mut cursor = offsets[..node_count].to_vec();
        let mut targets = vec![NodeId::from(0); 2 * edges.len()];
        for &(a, b) in edges {
            targets[cursor[a as usize] as usize] = NodeId::from(b);
            cursor[a as usize] += 1;
            targets[cursor[b as usize] as usize] = NodeId::from(a);
            cursor[b as usize] += 1;
        }
        let csr = CsrGraph {
            storage: CsrStorage::Owned { offsets, targets },
        };
        debug_assert!({
            csr.thaw().assert_consistent();
            true
        });
        csr
    }

    /// Decomposes the snapshot into its raw `(offsets, targets)` arrays, for layers
    /// that build their own storage over the same layout (the sharded store in
    /// `sfo-engine` takes ownership this way). Owned storage moves without copying; a
    /// mapped snapshot copies its borrowed sections into fresh vectors, since the
    /// caller is asking for ownership. The inverse is
    /// [`CsrGraph::from_neighbor_lists`]; the arrays uphold the invariants documented
    /// on the storage fields: `offsets` has `node_count + 1` monotone entries indexing
    /// `targets`, whose blocks are the per-node neighbor lists in frozen order.
    pub fn into_parts(self) -> (Vec<u32>, Vec<NodeId>) {
        match self.storage {
            CsrStorage::Owned { offsets, targets } => (offsets, targets),
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(mapped) => (mapped.offsets().to_vec(), mapped.targets().to_vec()),
        }
    }

    /// Borrows the raw `(offsets, targets)` arrays without consuming the snapshot — the
    /// read-side counterpart of [`CsrGraph::into_parts`], used by the binary snapshot
    /// codec to serialize the arrays verbatim.
    pub fn raw_parts(&self) -> (&[u32], &[NodeId]) {
        (self.offsets(), self.targets())
    }

    /// Assembles a snapshot directly from raw arrays. Only the snapshot codec constructs
    /// graphs this way, and it returns one only after its full structural validation
    /// pass has proven the arrays consistent; everything else goes through
    /// [`CsrGraph::from_neighbor_lists`].
    pub(crate) fn from_raw_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        CsrGraph {
            storage: CsrStorage::Owned { offsets, targets },
        }
    }

    /// Assembles a snapshot over sections borrowed from a checksum-verified file
    /// mapping. Only the snapshot codec's mmap loader constructs graphs this way, after
    /// running the same structural validation pass as [`CsrGraph::from_raw_parts`]
    /// callers.
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    pub(crate) fn from_mapped(mapped: crate::mmap::MappedCsr) -> Self {
        debug_assert!(!mapped.offsets().is_empty());
        CsrGraph {
            storage: CsrStorage::Mapped(mapped),
        }
    }

    /// Returns `true` when this snapshot's arrays are borrowed from a file mapping
    /// rather than owned by the heap. Purely observational — the two storages behave
    /// identically — but useful to assert which path a load actually took.
    pub fn is_mapped(&self) -> bool {
        match &self.storage {
            CsrStorage::Owned { .. } => false,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            CsrStorage::Mapped(_) => true,
        }
    }

    /// Writes the snapshot to `path` in the binary `SFOS` format (no shard count, no
    /// provenance — see [`crate::snapshot`] for the sectioned writers).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`](crate::snapshot::SnapshotError::Io) when the file
    /// cannot be written.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        crate::snapshot::save(path, self, None, None)
    }

    /// Reads a topology from an `SFOS` snapshot file, verifying its checksum and full
    /// structural consistency.
    ///
    /// Any valid snapshot is accepted: a file written by a sharded store or by
    /// `sfo snapshot build` yields the same topology, with the extra sections ignored.
    /// Use [`crate::snapshot::SnapshotFile::load`] to keep them.
    ///
    /// # Errors
    ///
    /// Returns every decoding error of
    /// [`SnapshotFile::load`](crate::snapshot::SnapshotFile::load).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(crate::snapshot::SnapshotFile::load(path)?.csr)
    }

    /// Like [`CsrGraph::load`], but borrows the topology arrays out of a read-only file
    /// mapping instead of copying them into the heap — the checksum and full structural
    /// validation run once against the mapped bytes, after which traversals read the
    /// page cache directly.
    ///
    /// Falls back to [`CsrGraph::load`] (same result, owned storage) on targets without
    /// mmap support, when the mapping cannot be established, or when the file's array
    /// sections are not 4-byte aligned; see `docs/FORMATS.md` for the contract. Decoding
    /// errors — bad magic, checksum mismatch, structural corruption — are never masked
    /// by the fallback.
    ///
    /// # Errors
    ///
    /// Returns every decoding error of
    /// [`SnapshotFile::load_mmap`](crate::snapshot::SnapshotFile::load_mmap).
    pub fn load_mmap(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(crate::snapshot::SnapshotFile::load_mmap(path)?.csr)
    }

    /// Rebuilds a mutable [`Graph`] from this snapshot in O(V + E).
    ///
    /// Neighbor order is preserved, so `graph.freeze().thaw() == graph` for any graph.
    pub fn thaw(&self) -> Graph {
        let adjacency: Vec<Vec<NodeId>> = self
            .nodes()
            .map(|node| self.neighbors(node).to_vec())
            .collect();
        Graph::from_adjacency(adjacency, self.edge_count())
    }

    /// Returns the number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Returns the number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets().len() / 2
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Returns `true` if `node` refers to a node present in the graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Returns the degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        let offsets = self.offsets();
        (offsets[i + 1] - offsets[i]) as usize
    }

    /// Returns the neighbors of `node` as a slice, in frozen order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let offsets = self.offsets();
        &self.targets()[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Returns an iterator over all node ids.
    #[inline]
    pub fn nodes(&self) -> crate::view::NodeIds {
        GraphView::nodes(self)
    }

    /// Returns `true` if an edge between `a` and `b` exists.
    ///
    /// The check scans the adjacency block of the lower-degree endpoint.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        GraphView::contains_edge(self, a, b)
    }
}

impl Default for CsrGraph {
    /// An empty snapshot, equal to `Graph::new().freeze()`.
    fn default() -> Self {
        CsrGraph {
            storage: CsrStorage::Owned {
                offsets: vec![0],
                targets: Vec::new(),
            },
        }
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("mapped", &self.is_mapped())
            .field("offsets", &self.offsets())
            .field("targets", &self.targets())
            .finish()
    }
}

/// Equality is semantic — same topology, same neighbor order — regardless of whether
/// either side owns or borrows its arrays, so a mapped load compares equal to the
/// read-based load of the same file.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.raw_parts() == other.raw_parts()
    }
}

impl Eq for CsrGraph {}

impl GraphView for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    #[inline]
    fn degree(&self, node: NodeId) -> usize {
        CsrGraph::degree(self, node)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        CsrGraph::neighbors(self, node)
    }
}

impl From<&Graph> for CsrGraph {
    fn from(graph: &Graph) -> Self {
        CsrGraph::from_graph(graph)
    }
}

impl From<&CsrGraph> for Graph {
    fn from(csr: &CsrGraph) -> Self {
        csr.thaw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> Graph {
        let mut g = Graph::with_nodes(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g.add_edge(n(3), n(0)).unwrap();
        g
    }

    #[test]
    fn freeze_preserves_counts_and_order() {
        let g = sample();
        let frozen = g.freeze();
        assert_eq!(frozen.node_count(), g.node_count());
        assert_eq!(frozen.edge_count(), g.edge_count());
        for node in g.nodes() {
            assert_eq!(frozen.neighbors(node), g.neighbors(node), "node {node}");
            assert_eq!(frozen.degree(node), g.degree(node));
        }
    }

    #[test]
    fn from_edges_equals_adding_then_freezing() {
        let edges = [(0, 1), (0, 2), (2, 3), (3, 0)];
        assert_eq!(CsrGraph::from_edges(5, &edges), sample().freeze());
        assert_eq!(CsrGraph::from_edges(0, &[]), Graph::new().freeze());
        assert_eq!(CsrGraph::from_edges(3, &[]), Graph::with_nodes(3).freeze());
    }

    #[test]
    fn thaw_round_trips_exactly() {
        let g = sample();
        assert_eq!(g.freeze().thaw(), g);
        let empty = Graph::new();
        assert_eq!(empty.freeze().thaw(), empty);
        let isolated = Graph::with_nodes(3);
        assert_eq!(isolated.freeze().thaw(), isolated);
    }

    #[test]
    fn contains_edge_matches_source() {
        let g = sample();
        let frozen = g.freeze();
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(frozen.contains_edge(a, b), g.contains_edge(a, b), "{a}-{b}");
            }
        }
        assert!(!frozen.contains_edge(n(0), n(9)));
    }

    #[test]
    fn view_edges_match_source_edges() {
        let g = sample();
        let frozen = g.freeze();
        let from_frozen: Vec<_> = GraphView::edges(&frozen).collect();
        let from_graph: Vec<_> = g.edges().collect();
        assert_eq!(from_frozen, from_graph);
    }

    #[test]
    fn isolated_nodes_have_empty_blocks() {
        let frozen = Graph::with_nodes(4).freeze();
        assert_eq!(frozen.node_count(), 4);
        assert_eq!(frozen.edge_count(), 0);
        for node in frozen.nodes() {
            assert!(frozen.neighbors(node).is_empty());
        }
    }

    #[test]
    fn conversion_impls_mirror_freeze_and_thaw() {
        let g = sample();
        let frozen = CsrGraph::from(&g);
        assert_eq!(frozen, g.freeze());
        assert_eq!(Graph::from(&frozen), g);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_neighbors_panic() {
        let frozen = sample().freeze();
        let _ = frozen.neighbors(n(40));
    }

    #[test]
    fn owned_snapshots_report_unmapped() {
        assert!(!sample().freeze().is_mapped());
        assert!(!CsrGraph::default().is_mapped());
    }

    #[test]
    fn default_is_empty() {
        let d = CsrGraph::default();
        assert_eq!(d.node_count(), 0);
        assert!(d.is_empty());
        assert_eq!(d, Graph::new().freeze());
    }
}
