//! # sfo-overlay
//!
//! A live membership protocol that *grows* the hard-cutoff scale-free topologies this
//! workspace measures, instead of drawing them from an offline generator.
//!
//! The ICDCS'07 paper argues that limited scale-free overlays should emerge from peers
//! following a local attachment rule. This crate provides that rule as a protocol:
//!
//! * `protocol` — the transport-agnostic peer state machine. Each peer keeps a
//!   HyParView-style pair of views: a capacity-bounded **active view** whose cap *is*
//!   the paper's hard cutoff `k_c`, and a larger **passive view** of fallback contacts
//!   refreshed by periodic shuffles. Joins attach by random walks ([`protocol::OverlayMessage::ForwardJoin`]):
//!   a walk's endpoint is distributed proportionally to degree (the stationary
//!   distribution of a random walk), which reproduces preferential attachment, and
//!   saturated endpoints redirect the walk — which reproduces the hard cutoff. SWIM-style
//!   probe/suspect/confirm failure detection removes dead neighbors and repairs the view
//!   with a fresh one-walk join, so the shape survives churn.
//! * `transport` — the [`transport::OverlayTransport`] trait the state machine pumps
//!   messages through. The protocol core performs no I/O of its own.
//! * `sim` — the deterministic in-process transport: N peers, a session-model
//!   arrival/departure schedule, tick-synchronous FIFO delivery, and per-peer RNG
//!   streams derived with the workspace's `stream_rng`/`label_salt` discipline — the
//!   same seed grows a byte-identical overlay, extending the repo's headline
//!   reproducibility invariant to protocol execution. [`sim::grow`] freezes the
//!   emergent overlay into an [`sfo_graph::Graph`] ready for snapshotting.
//!
//! The real-socket transport lives in `sfo-net` (it reuses the SFNF frame codec), and
//! the scenario layer's `DynamicsSpec::Live` drives [`sim::grow`] end to end into a
//! provenance-tagged `.sfos` snapshot.
//!
//! # Example
//!
//! ```
//! use sfo_overlay::ProtocolConfig;
//! use sfo_overlay::{grow, LiveConfig};
//!
//! # fn main() -> Result<(), sfo_overlay::OverlayError> {
//! let config = LiveConfig::small();
//! let outcome = grow(&config, 7)?;
//! let k_c = config.protocol.active_cap;
//! assert!(outcome.graph.max_degree().unwrap_or(0) <= k_c);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod protocol;
mod sim;
mod transport;

pub use error::OverlayError;
pub use protocol::{OverlayMessage, OverlayMetrics, Peer, PeerRef, ProtocolConfig};
pub use sim::{grow, grow_metered, LiveConfig, LiveOutcome, LiveStats};
pub use transport::OverlayTransport;

/// Convenience result alias used throughout this crate.
pub type Result<T, E = OverlayError> = std::result::Result<T, E>;
