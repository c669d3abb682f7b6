//! # sfo-engine
//!
//! The query-serving engine of the sfoverlay workspace: a sharded CSR topology store
//! plus a batched query scheduler, sitting between the graph substrate (`sfo-graph`) and
//! the consumers that sweep searches over frozen realizations (`sfo-scenario`,
//! `sfo-sim`, the benches).
//!
//! The paper's evaluation — and the workspace's production north star — is thousands of
//! *independent* searches over a frozen topology. The engine turns that shape into
//! infrastructure:
//!
//! * [`ShardedCsr`] (`sharded`): a frozen [`CsrGraph`](sfo_graph::CsrGraph)
//!   partitioned into contiguous node-id ranges. Each [`CsrShard`] is `Send + Sync`,
//!   owns shard-local CSR rows, and carries a [`BoundaryTable`] of its cross-shard
//!   edges; the assembly implements [`GraphView`](sfo_graph::GraphView) with the exact
//!   neighbor order of the unsharded snapshot, so every existing algorithm runs on it
//!   unchanged and byte-identically.
//! * [`WorkerPool`] (`scheduler`): a persistent worker pool executing batches with
//!   work stealing over contiguous job ranges, plus a scoped `execute_with_scratch` for jobs that
//!   borrow local state.
//! * [`QueryBatch`] (`batch`): `(source, algorithm, ttl)` jobs executed across the
//!   pool, each on its own RNG stream derived with the workspace's single
//!   [`stream_rng`](sfo_search::experiment::stream_rng) rule — results are independent
//!   of the worker count, of stealing order, and of the shard count.
//! * `placed`: the cross-host traversal state machine behind placed execution — a
//!   suspended search ([`PlacedState`]) moves between shard hosts as a visited-bitset
//!   delta plus frontier plus raw RNG state, reproducing the serial oracle byte for
//!   byte on any placement ([`placed_advance`]).
//!
//! # Example
//!
//! ```
//! use sfo_engine::{batched_ttl_sweep, EngineConfig, ShardedCsr, WorkerPool};
//! use sfo_graph::generators::ring_graph;
//! use sfo_search::flooding::Flooding;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), sfo_graph::GraphError> {
//! let graph = Arc::new(ShardedCsr::from_graph(&ring_graph(100, 2)?, 4));
//! let pool = WorkerPool::new(EngineConfig::with_workers(2));
//! let points = batched_ttl_sweep(&pool, &graph, Box::new(Flooding::new()), &[1, 2, 4], 25, 7);
//! assert_eq!(points.len(), 3);
//! assert!(points[2].mean_hits > points[0].mean_hits);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod placed;
mod scheduler;
mod sharded;

pub use batch::{
    average_per_ttl, batched_rw_normalized_to_nf, batched_rw_normalized_to_nf_range,
    batched_ttl_sweep, batched_ttl_sweep_range, job_rng, run_batch_scoped_with_scratch,
    run_queries, run_queries_offset, run_queries_serial, AlgorithmTable, QueryBatch, QueryJob,
};
pub use placed::{
    placed_advance, placed_start, PlacedAlgorithm, PlacedState, PlacedStep, StepStats, NO_NODE,
};
pub use scheduler::{EngineConfig, WorkerPool};
pub use sharded::{BoundaryEdge, BoundaryTable, CsrShard, ShardedCsr};

// Re-exported so consumers that do not depend on `sfo-search` directly (notably
// `sfo-sim`'s item lookups) can name the arena type and run the shared forwarding
// rules and walker step.
pub use sfo_search::next_hop;
pub use sfo_search::Forwarding;
pub use sfo_search::SearchScratch;
