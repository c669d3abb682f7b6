//! # sfo-graph
//!
//! Undirected graph substrate used by the scale-free overlay topology generators,
//! search algorithms, and the unstructured peer-to-peer simulator in the `sfoverlay`
//! workspace.
//!
//! The crate provides two graph backends behind one read interface:
//!
//! * [`Graph`]: a simple undirected graph (no self-loops, no parallel edges) stored as
//!   mutable adjacency lists — the representation every overlay topology is *built and
//!   rewired* on (generators, churn, repair).
//! * [`CsrGraph`]: an immutable compressed-sparse-row snapshot produced by
//!   [`Graph::freeze`] in O(V + E) — the representation read-heavy phases *query*:
//!   flat `offsets`/`targets` arrays make searches and metric sweeps cache-linear.
//!   [`CsrGraph::thaw`] converts back, round-tripping exactly.
//! * [`GraphView`]: the shared read trait (counts, degrees, neighbor slices) both
//!   backends implement. Everything downstream that only reads — the search algorithms
//!   in `sfo-search`, [`traversal`] and the measures below — is generic over it, and
//!   both backends report neighbors in the same order, so a fixed seed produces
//!   identical results on either one.
//! * [`MultiGraph`]: an undirected multigraph permitting self-loops and parallel edges,
//!   needed by the configuration model which wires stubs at random and only afterwards
//!   deletes self-loops and duplicate links (paper, Alg. 2).
//! * [`traversal`]: breadth-first search and connected components.
//! * [`generators`]: substrate-network generators — the geometric random network (GRN)
//!   and the two-dimensional mesh used as the DAPA substrate, plus the ring, complete,
//!   path, star and random regular graphs used as seeds, baselines and test fixtures.
//! * [`snapshot`]: the binary `SFOS` snapshot codec — versioned, checksummed CSR
//!   topology files ([`CsrGraph::save`]/[`CsrGraph::load`]) with optional shard
//!   manifests and provenance, the persistence and wire format of the workspace
//!   (byte layout in `docs/FORMATS.md`).
//! * The measures the figures are computed from, exported at the crate root:
//!   [`degree_histogram`], [`path_statistics_sampled`] and [`degree_assortativity`];
//!   and the plain-text edge list ([`write_edge_list`], [`parse_edge_list`]).
//!
//! A module is `pub` only where a consumer names its path; everything else is reached
//! through the re-exports below.
//!
//! # Example
//!
//! ```
//! use sfo_graph::{Graph, NodeId};
//!
//! # fn main() -> Result<(), sfo_graph::GraphError> {
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(NodeId::new(0), NodeId::new(1))?;
//! g.add_edge(NodeId::new(1), NodeId::new(2))?;
//! g.add_edge(NodeId::new(2), NodeId::new(3))?;
//! assert_eq!(g.degree(NodeId::new(1)), 2);
//! assert!(sfo_graph::traversal::is_connected(&g));
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `mmap` module below is the one place in the
// workspace allowed to use `unsafe` (the mmap syscall shim and the alignment-checked
// byte-slice reinterpretation behind zero-copy snapshot loads). Everything else in this
// crate — and every crate above it — still refuses unsafe code outright.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod graph;
mod io;
mod metrics;
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
mod mmap;
mod multigraph;
mod node;
mod slice;
mod view;

pub mod generators;
pub mod snapshot;
pub mod traversal;

pub use csr::CsrGraph;
pub use error::GraphError;
pub use graph::{Graph, NeighborIter};
pub use io::{parse_edge_list, write_edge_list, EdgeListError};
pub use metrics::{
    degree_assortativity, degree_histogram, path_statistics_sampled, reachable_within,
    DegreeHistogram, PathStatistics,
};
pub use multigraph::{MultiGraph, SimplifyReport};
pub use node::NodeId;
pub use slice::{CsrSlice, ShardView};
pub use view::{GraphView, NodeIds, ViewEdges};

/// Convenience result alias used throughout this crate.
pub type Result<T, E = GraphError> = std::result::Result<T, E>;
