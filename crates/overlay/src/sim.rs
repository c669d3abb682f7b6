//! The deterministic in-process transport and the end-to-end growth run.
//!
//! [`grow`] arrives `peers` peers on a fixed schedule, runs each through the protocol
//! over a tick-synchronous simulated network, applies a session-model
//! departure/crash schedule, and freezes the surviving overlay into an
//! [`sfo_graph::Graph`].
//!
//! # Determinism
//!
//! Everything is derived from `(seed, label)` with the workspace's stream discipline:
//!
//! * the **master stream** `stream_rng(seed, label_salt(label), 0)` draws the
//!   arrival/departure schedule, then one final `u64` — the `sweep_seed` recorded in
//!   snapshot provenance, exactly mirroring the generator-side
//!   `sfo snapshot build` contract;
//! * **peer `i`** owns `stream_rng(seed, label_salt(label) ^ PEER_STREAM_SALT, i)` and
//!   draws nothing else.
//!
//! Delivery is tick-synchronous FIFO: a message sent at tick `t` is readable at
//! `t + 1`; peers pump in arrival-index order. With randomness and scheduling both
//! fixed, the same seed grows a byte-identical topology — the repo's headline
//! invariant, extended from offline generation to protocol execution.

use crate::protocol::{Outbox, OverlayMessage, Peer, PeerRef, ProtocolConfig};
use crate::transport::OverlayTransport;
use crate::{OverlayError, Result};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use sfo_graph::{Graph, NodeId};
use sfo_search::experiment::{label_salt, stream_rng};
use sfo_sim::SessionModel;

/// Salt separating per-peer protocol streams from the master schedule stream
/// (ASCII `"PEERSALT"`), in the tradition of the scenario layer's trace salt.
pub(crate) const PEER_STREAM_SALT: u64 = 0x5045_4552_5341_4c54;

/// Configuration of one live growth run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Total number of peers that arrive over the run.
    pub peers: usize,
    /// Ticks between consecutive arrivals (0 = everyone arrives at tick 0).
    pub arrival_spacing: u64,
    /// Session-length model; a peer whose session ends before the run does departs.
    pub sessions: SessionModel,
    /// Probability a departure is a crash (no Leave messages) instead of graceful.
    pub crash_fraction: f64,
    /// Extra ticks after the last arrival, so walks, shuffles, and repairs settle.
    pub settle: u64,
    /// Protocol parameters every peer runs with.
    pub protocol: ProtocolConfig,
}

impl LiveConfig {
    /// A small, fast-settling configuration for tests and examples.
    pub fn small() -> Self {
        LiveConfig {
            peers: 48,
            arrival_spacing: 2,
            sessions: SessionModel::Fixed { length: 1.0e6 },
            crash_fraction: 0.0,
            settle: 64,
            protocol: ProtocolConfig::small(),
        }
    }

    /// The provenance label of this run — the live analogue of a generator curve
    /// label, and the salt every stream of the run is derived from.
    pub fn label(&self) -> String {
        format!(
            "live, m={}, k_c={}",
            self.protocol.attach_walks, self.protocol.active_cap
        )
    }

    /// Checks the schedule and protocol parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        self.protocol.validate()?;
        if self.peers < 2 {
            return Err(OverlayError::invalid("a live run needs at least 2 peers"));
        }
        if !(0.0..=1.0).contains(&self.crash_fraction) {
            return Err(OverlayError::invalid(format!(
                "crash_fraction must lie in [0, 1], got {}",
                self.crash_fraction
            )));
        }
        if self.settle == 0 {
            return Err(OverlayError::invalid(
                "settle must be at least 1 tick (messages sent by the last arrival \
                 need a tick to deliver)",
            ));
        }
        self.sessions
            .validate()
            .map_err(|e| OverlayError::invalid(e.to_string()))
    }
}

/// Counters describing what a growth run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Peers that arrived (always `config.peers`).
    pub arrivals: usize,
    /// Graceful departures executed before the run ended.
    pub leaves: usize,
    /// Crashes executed before the run ended.
    pub crashes: usize,
    /// Peers still alive when the overlay was frozen.
    pub final_peers: usize,
    /// Mutual overlay links in the frozen graph.
    pub edges: usize,
    /// Maximum degree in the frozen graph (never exceeds `k_c`).
    pub max_degree: usize,
    /// Total protocol messages delivered.
    pub messages: u64,
    /// Ticks simulated.
    pub ticks: u64,
}

/// Everything a growth run produces.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// The frozen emergent overlay: surviving peers renumbered densely by arrival
    /// order, edges where both endpoints list each other.
    pub graph: Graph,
    /// Run counters.
    pub stats: LiveStats,
    /// The master stream's next draw after growth — recorded as the snapshot's
    /// `sweep_seed` so measurement batches over the grown topology are reproducible.
    pub sweep_seed: u64,
}

/// The per-peer endpoint of the simulated network: a drained inbox plus a shared
/// staging buffer that becomes next tick's inboxes.
struct SimEndpoint<'a> {
    inbox: Vec<OverlayMessage>,
    staged: &'a mut Outbox,
}

impl OverlayTransport for SimEndpoint<'_> {
    fn send(&mut self, to: &PeerRef, msg: OverlayMessage) -> Result<()> {
        self.staged.push((to.clone(), msg));
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<OverlayMessage>> {
        Ok(std::mem::take(&mut self.inbox))
    }
}

/// What the schedule does to a peer at a given tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Churn {
    Arrive(usize),
    Leave(usize),
    Crash(usize),
}

/// Runs the whole protocol execution for `config` and freezes the emergent overlay.
///
/// See the module docs for the stream discipline; `seed` plays the same role as a
/// scenario seed.
///
/// # Errors
///
/// Returns [`OverlayError::InvalidConfig`] when `config` does not validate.
pub fn grow(config: &LiveConfig, seed: u64) -> Result<LiveOutcome> {
    grow_metered(config, seed, None)
}

/// [`grow`] with optional telemetry: every peer of the cohort shares the given
/// [`OverlayMetrics`](crate::protocol::OverlayMetrics), so the registry behind it
/// aggregates messages, probe RTTs, and
/// failure-detection events across the whole run. The outcome is byte-identical to
/// [`grow`] — telemetry never draws from a stream or reorders the schedule.
///
/// # Errors
///
/// As [`grow`].
pub fn grow_metered(
    config: &LiveConfig,
    seed: u64,
    metrics: Option<crate::protocol::OverlayMetrics>,
) -> Result<LiveOutcome> {
    config.validate()?;
    let salt = label_salt(&config.label());
    let mut master = stream_rng(seed, salt, 0);

    // Draw the whole churn schedule up front on the master stream: arrival ticks are
    // fixed by spacing; each arrival draws (session length, crash?) in order.
    let last_arrival = config.arrival_spacing * (config.peers as u64 - 1);
    let end_tick = last_arrival + config.settle;
    let mut events: Vec<(u64, Churn)> = Vec::with_capacity(config.peers * 2);
    for index in 0..config.peers {
        let arrival = config.arrival_spacing * index as u64;
        events.push((arrival, Churn::Arrive(index)));
        let session = config.sessions.sample(&mut master).max(1);
        let crash = master.gen_bool(config.crash_fraction);
        let departure = arrival.saturating_add(session);
        if departure <= end_tick {
            events.push((
                departure,
                if crash {
                    Churn::Crash(index)
                } else {
                    Churn::Leave(index)
                },
            ));
        }
    }
    // Stable by tick: same-tick events keep schedule order (arrivals were pushed
    // before the departures they precede logically).
    events.sort_by_key(|(tick, _)| *tick);

    let mut peers: Vec<Option<Peer>> = (0..config.peers).map(|_| None).collect();
    let mut inboxes: Vec<Vec<OverlayMessage>> = (0..config.peers).map(|_| Vec::new()).collect();
    let mut staged = Outbox::new();
    let mut stats = LiveStats {
        arrivals: config.peers,
        ticks: end_tick + 1,
        ..LiveStats::default()
    };

    // Seed clique: the first attach_walks + 1 arrivals wire to every earlier peer
    // directly (the protocol analogue of the generator's seed graph); later arrivals
    // bootstrap through a uniformly random alive contact.
    let seed_size = (config.protocol.attach_walks as usize + 1).min(config.peers);
    let mut next_event = 0usize;
    for now in 0..=end_tick {
        while next_event < events.len() && events[next_event].0 == now {
            let (_, churn) = events[next_event];
            next_event += 1;
            match churn {
                Churn::Arrive(index) => {
                    let me = PeerRef::new(index as u64, format!("sim:{index}"));
                    let rng = stream_rng(seed, salt ^ PEER_STREAM_SALT, index);
                    let mut peer = Peer::new(me.clone(), config.protocol.clone(), rng);
                    if let Some(metrics) = &metrics {
                        peer = peer.with_metrics(metrics.clone());
                    }
                    let alive: Vec<PeerRef> =
                        peers.iter().flatten().map(|p| p.me().clone()).collect();
                    if index < seed_size {
                        for other in &alive {
                            staged.push((
                                other.clone(),
                                OverlayMessage::Join {
                                    origin: me.clone(),
                                    walks: 0,
                                },
                            ));
                            staged.push((
                                me.clone(),
                                OverlayMessage::Join {
                                    origin: other.clone(),
                                    walks: 0,
                                },
                            ));
                        }
                    } else if !alive.is_empty() {
                        // The arriving peer picks its own bootstrap contact.
                        let mut out = Outbox::new();
                        let contact = peer.pick_contact(&alive);
                        peer.start_join(&contact, &mut out);
                        staged.append(&mut out);
                    }
                    peers[index] = Some(peer);
                }
                Churn::Leave(index) => {
                    if let Some(mut peer) = peers[index].take() {
                        let mut out = Outbox::new();
                        peer.leave(&mut out);
                        staged.append(&mut out);
                        stats.leaves += 1;
                    }
                }
                Churn::Crash(index) => {
                    if peers[index].take().is_some() {
                        stats.crashes += 1;
                    }
                }
            }
        }

        // Pump every alive peer in arrival order against its drained inbox; sends go
        // into the staging buffer and become next tick's inboxes.
        for index in 0..peers.len() {
            if let Some(peer) = peers[index].as_mut() {
                let mut endpoint = SimEndpoint {
                    inbox: std::mem::take(&mut inboxes[index]),
                    staged: &mut staged,
                };
                peer.pump(now, &mut endpoint)?;
            }
        }

        // Route: messages to departed peers are dropped on the floor, like a closed
        // socket.
        for (to, msg) in staged.drain(..) {
            let index = to.id as usize;
            if index < peers.len() && peers[index].is_some() {
                inboxes[index].push(msg);
                stats.messages += 1;
            }
        }
    }

    // Freeze: survivors renumbered densely by arrival index; an edge exists only when
    // both endpoints list each other (half-open links are not links).
    let alive: Vec<usize> = (0..peers.len()).filter(|&i| peers[i].is_some()).collect();
    let node_of: std::collections::HashMap<u64, NodeId> = alive
        .iter()
        .enumerate()
        .map(|(dense, &index)| (index as u64, NodeId::new(dense)))
        .collect();
    let mut graph = Graph::with_nodes(alive.len());
    for &index in &alive {
        let peer = peers[index].as_ref().expect("alive peer");
        for neighbor in peer.active() {
            if neighbor.id <= index as u64 {
                continue;
            }
            let mutual = peers
                .get(neighbor.id as usize)
                .and_then(|slot| slot.as_ref())
                .is_some_and(|other| other.active().iter().any(|p| p.id == index as u64));
            if mutual {
                graph
                    .add_edge_if_absent(node_of[&(index as u64)], node_of[&neighbor.id])
                    .expect("frozen overlay edges are simple by construction");
            }
        }
    }

    stats.final_peers = alive.len();
    stats.edges = graph.edge_count();
    stats.max_degree = graph.max_degree().unwrap_or(0);
    let sweep_seed = master.next_u64();
    Ok(LiveOutcome {
        graph,
        stats,
        sweep_seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_runs_grow_a_connected_capped_overlay() {
        let config = LiveConfig::small();
        let outcome = grow(&config, 7).unwrap();
        assert_eq!(outcome.stats.final_peers, config.peers);
        assert_eq!(outcome.graph.node_count(), config.peers);
        assert!(outcome.stats.edges > 0);
        assert!(outcome.stats.max_degree <= config.protocol.active_cap);
        // Every peer attached: no isolated nodes after settling.
        assert!(outcome.graph.min_degree().unwrap() >= 1);
    }

    #[test]
    fn the_same_seed_grows_a_byte_identical_overlay() {
        let config = LiveConfig::small();
        let a = grow(&config, 99).unwrap();
        let b = grow(&config, 99).unwrap();
        assert_eq!(a.graph.freeze(), b.graph.freeze());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sweep_seed, b.sweep_seed);
    }

    #[test]
    fn different_seeds_grow_different_overlays() {
        let config = LiveConfig::small();
        let a = grow(&config, 1).unwrap();
        let b = grow(&config, 2).unwrap();
        assert_ne!(a.graph.freeze(), b.graph.freeze());
    }

    #[test]
    fn departures_shrink_the_overlay_and_are_counted() {
        let mut config = LiveConfig::small();
        config.sessions = SessionModel::Fixed { length: 40.0 };
        config.settle = 128;
        let outcome = grow(&config, 5).unwrap();
        assert!(outcome.stats.leaves > 0);
        assert_eq!(
            outcome.stats.final_peers,
            config.peers - outcome.stats.leaves - outcome.stats.crashes
        );
        assert_eq!(outcome.graph.node_count(), outcome.stats.final_peers);
        assert!(outcome.stats.max_degree <= config.protocol.active_cap);
    }

    #[test]
    fn crashes_are_detected_and_repaired_around() {
        let mut config = LiveConfig::small();
        config.sessions = SessionModel::Fixed { length: 40.0 };
        config.crash_fraction = 1.0;
        config.settle = 128;
        let outcome = grow(&config, 5).unwrap();
        assert!(outcome.stats.crashes > 0);
        assert_eq!(outcome.stats.leaves, 0);
        // Survivors must not keep dead neighbors: the failure detector plus the
        // mutual-link freeze rule guarantee dead peers leave no edges behind.
        assert_eq!(outcome.graph.node_count(), outcome.stats.final_peers);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = LiveConfig::small();
        config.peers = 1;
        assert!(grow(&config, 1).is_err());
        let mut config = LiveConfig::small();
        config.crash_fraction = 1.5;
        assert!(grow(&config, 1).is_err());
        let mut config = LiveConfig::small();
        config.settle = 0;
        assert!(grow(&config, 1).is_err());
    }
}
