//! # sfo-net
//!
//! The transport/process half of distributed scenario execution: a framed wire
//! protocol, a snapshot-serving worker daemon, and the dispatcher that splits one
//! scenario's work across worker processes — the layer between
//! `sfo-engine`/`sfo-scenario` and the `sfo` binary's `serve`/`dispatch` commands.
//!
//! The serialization half already existed: `.sfos` snapshot files ship frozen
//! realizations between processes, a `ScenarioSpec` is the wire unit for a whole
//! experiment, and a `QueryBatch` for work against a shared snapshot. This crate adds
//! the missing pieces:
//!
//! * [`frame`] — a versioned, length-prefixed, FNV-checksummed frame codec over TCP or
//!   Unix sockets, hand-rolled in the same style as `sfo_graph::snapshot` (byte layout
//!   in `docs/FORMATS.md`). Strict readers: corrupt frames are typed [`NetError`]s,
//!   never panics, and declared lengths are bounded before allocation. A connection
//!   owns one [`frame::FrameReader`] and one [`frame::FrameWriter`]: a buffered reader
//!   that takes every frame a `read` delivered, and an outbox whose owner decides when
//!   it is written — every TCP socket runs with `TCP_NODELAY` (`stream`).
//! * [`message`] — the worker vocabulary: `Hello` / `LoadSnapshot` / `SubmitBatch` /
//!   `BatchResult` / `Error`, plus the observability pair `StatsRequest` /
//!   `StatsReport` carrying a worker's `sfo-obs` [`MetricsSnapshot`](sfo_obs::MetricsSnapshot).
//! * `server` — [`WorkerServer`], the `sfo serve` daemon: loads one `.sfos` snapshot
//!   into a sharded store and serves query batches from any number of clients over one
//!   persistent engine pool.
//! * `client` / `dispatcher` — [`WorkerClient`] for one connection, and
//!   [`RemoteDispatcher`], which implements the scenario layer's
//!   [`RemoteSweepExecutor`](sfo_scenario::RemoteSweepExecutor) seam: it splits a
//!   snapshot sweep's job grid into contiguous ranges, one per worker, and merges the
//!   outcomes in global job order.
//! * [`overlay`] — [`OverlayNode`], the `sfo overlay` daemon: one `sfo-overlay` peer
//!   over real sockets, with the five membership messages carried one-to-one on their
//!   own frame types.
//! * [`placed`] — real shard placement: the canonical shard partition
//!   ([`placed::shard_range`]/[`placed::shard_of`]), `LoadShard` shipments that give
//!   worker `i` exactly shard `i`'s rows, and the dispatcher loop that routes every
//!   search to the owner of the row it needs next, hopping between hosts as
//!   `ForwardFrontier`/`FrontierResult` frames (`sweep.placed`, `sfo serve --shard`).
//! * `loadtest` — the open-loop load driver behind `sfo loadtest`: replays a
//!   [`WorkloadSpec`](sfo_scenario::WorkloadSpec) arrival schedule against one or
//!   many workers over concurrent pipelined connections, recording client-side
//!   latency percentiles, in-flight depth, and achieved-vs-offered rate into
//!   `sfo-obs` histograms while counting the worker's typed [`Message::Overloaded`]
//!   sheds instead of dying on them.
//!
//! **The headline invariant is byte-identity.** Every job of a batch derives its RNG
//! from `(batch seed, global job index)` — the workspace's single stream rule — so
//! where a job runs (which worker, which process, which host) is invisible in the
//! results: a `ScenarioSpec` with `workers: [...]` produces a `ScenarioReport.result`
//! byte-identical to the same spec run locally, for any worker count and any job
//! split. The dispatcher's own machinery is therefore pure refusal logic: workers echo
//! the identity hash of the snapshot they serve in `Hello`, and a dispatcher refuses
//! to send work to one serving the wrong realization. Placed runs keep the same
//! invariant by a stronger mechanism: a forwarded frontier carries the search's exact
//! serial state (visited delta, queue, raw RNG words), so cross-host traversal is a
//! pure partition of the serial oracle's work — the same expansions, in the same order
//! for the randomized searches and level by level for plain flooding — byte-identical
//! for any shard count, placement, and interleaving.
//!
//! # Example
//!
//! Serve a snapshot on a loopback port and run one sweep slice against it:
//!
//! ```no_run
//! use sfo_net::{ServeConfig, WorkerServer, WorkerClient};
//! use sfo_net::message::BatchRequest;
//! use sfo_scenario::SearchSpec;
//!
//! # fn main() -> Result<(), sfo_net::NetError> {
//! let server = WorkerServer::bind(&ServeConfig {
//!     snapshot_path: "pa.sfos".to_string(),
//!     listen: "127.0.0.1:0".to_string(),
//!     engine_workers: 0,
//!     shard_count: 4,
//!     shard_index: None,
//!     mmap: false,
//!     queue_bound: 0,
//! })?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = WorkerClient::connect(&addr)?;
//! let outcomes = client.submit(&BatchRequest::SweepRange {
//!     seed: client.hello().identity, // illustrative; a sweep uses the stored sweep_seed
//!     start: 0,
//!     end: 30,
//!     searches_per_point: 10,
//!     ttls: vec![1, 2, 4],
//!     search: SearchSpec::Flooding,
//! })?;
//! assert_eq!(outcomes.len(), 30);
//! handle.stop();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod dispatcher;
mod error;
mod loadtest;
mod server;
mod stream;

pub mod frame;
pub mod message;
pub mod overlay;
pub mod placed;

pub use client::WorkerClient;
pub use dispatcher::{
    dispatch_queries, dispatch_sweep, remote_runner, remote_runner_with_metrics, RemoteDispatcher,
};
pub use error::NetError;
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestReport};
pub use message::{BatchRequest, Hello, Message};
pub use overlay::{OverlayNode, OverlayNodeConfig, OverlayNodeHandle};
pub use server::{ServeConfig, WorkerServer, WorkerServerHandle, DEFAULT_QUEUE_BOUND};
pub use stream::{NetListener, NetStream};
