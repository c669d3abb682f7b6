//! The transport-agnostic peer state machine: capped active/passive views, random-walk
//! attachment, SWIM-style failure detection, and periodic passive-view shuffles.
//!
//! A [`Peer`] never performs I/O. It consumes inbound [`OverlayMessage`]s and emits
//! outbound `(target, message)` pairs; [`Peer::pump`] moves both through any
//! [`OverlayTransport`]. All randomness comes from
//! the peer's own seeded generator, so a fixed seed and a fixed delivery schedule replay
//! the exact same protocol execution — the property the simulated transport in
//! [`crate::sim`] turns into byte-identical emergent topologies.
//!
//! # Why walks reproduce capped preferential attachment
//!
//! A join emits `attach_walks` random walks ([`OverlayMessage::ForwardJoin`]) from a
//! bootstrap contact. A sufficiently long uniform random walk on an undirected graph
//! lands on a node with probability proportional to its degree — the stationary
//! distribution — so walk endpoints implement the paper's preferential-attachment
//! weighting with purely local state. An endpoint whose active view is full (degree
//! `= k_c`) cannot accept and redirects the walk, which is exactly the generator's
//! "re-draw on saturated target" rule: the emergent degree distribution is capped-PA
//! with a hard cutoff at `k_c`, grown by the protocol instead of sampled offline.

use crate::transport::OverlayTransport;
use crate::{OverlayError, Result};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use sfo_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// A peer's identity plus the address a transport needs to reach it.
///
/// Equality compares both fields; view-membership checks inside the protocol compare by
/// `id` only, so a peer that rejoins under a new address replaces its old entry through
/// the normal failure-detection path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerRef {
    /// Stable peer identifier (the arrival index in simulated runs).
    pub id: u64,
    /// Transport address: `sim:<index>` in-process, `host:port` over sockets.
    pub addr: String,
}

impl PeerRef {
    /// Builds a reference from an id and an address.
    pub fn new(id: u64, addr: impl Into<String>) -> Self {
        PeerRef {
            id,
            addr: addr.into(),
        }
    }
}

/// The five protocol messages; the complete wire vocabulary of the overlay.
///
/// The SFNF frame types in `sfo-net` mirror these variants one for one (see
/// `docs/FORMATS.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayMessage {
    /// `walks > 0`: `origin` asks the receiver (its bootstrap contact) to start that
    /// many attachment walks. `walks == 0`: `origin` offers a direct link — sent by a
    /// walk endpoint that accepted, by seed wiring, and by nothing else.
    Join {
        /// The joining (or link-offering) peer.
        origin: PeerRef,
        /// Number of attachment walks to start, or 0 for a direct link offer.
        walks: u32,
    },
    /// One step of an attachment walk on behalf of `origin`. Forwarded to a uniformly
    /// random active neighbor while `ttl > 0`; at `ttl == 0` the receiver tries to
    /// accept the link and redirects the walk if it cannot.
    ForwardJoin {
        /// The joining peer the walk attaches.
        origin: PeerRef,
        /// Remaining walk steps before the attachment attempt.
        ttl: u32,
    },
    /// Passive-view exchange: a sample of `from`'s neighborhood. A non-reply shuffle is
    /// answered with a reply shuffle carrying the receiver's own sample.
    Shuffle {
        /// The shuffling peer (target for the reply).
        from: PeerRef,
        /// Sampled peer references to merge into the receiver's passive view.
        peers: Vec<PeerRef>,
        /// Whether this message is the answer to an earlier shuffle.
        reply: bool,
    },
    /// SWIM-style liveness check. A probe (`ack == false`) is answered with an ack
    /// carrying the same nonce — but only if the prober is in the receiver's active
    /// view, so half-open links fail their probes and get cleaned up.
    Probe {
        /// The probing (or acking) peer.
        from: PeerRef,
        /// Matches an ack to the probe that solicited it.
        nonce: u64,
        /// `false` for the probe, `true` for the answer.
        ack: bool,
    },
    /// Graceful departure: receivers drop `from` from both views immediately and repair
    /// instead of waiting for the failure detector.
    Leave {
        /// The departing peer.
        from: PeerRef,
    },
}

/// Protocol parameters; every interval is in ticks of the driving transport.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Active-view capacity — the hard degree cutoff `k_c` of the emergent topology.
    pub active_cap: usize,
    /// Passive-view capacity (fallback contacts for repair and shuffling).
    pub passive_cap: usize,
    /// Attachment walks a join emits — the paper's `m` (edges added per arrival).
    pub attach_walks: u32,
    /// Steps per attachment walk before the accept attempt (walk mixing length).
    pub forward_ttl: u32,
    /// Ticks between passive-view shuffles.
    pub shuffle_interval: u64,
    /// Peer references carried per shuffle (including the sender itself).
    pub shuffle_size: usize,
    /// Ticks between liveness probes.
    pub probe_interval: u64,
    /// Ticks without an ack before the probed neighbor becomes suspect.
    pub probe_timeout: u64,
    /// Further ticks a suspect gets before it is confirmed dead and dropped.
    pub suspect_grace: u64,
}

impl ProtocolConfig {
    /// A small configuration for tests and examples: `k_c = 8`, `m = 2`.
    pub fn small() -> Self {
        ProtocolConfig {
            active_cap: 8,
            passive_cap: 16,
            attach_walks: 2,
            forward_ttl: 8,
            shuffle_interval: 16,
            shuffle_size: 6,
            probe_interval: 8,
            probe_timeout: 4,
            suspect_grace: 4,
        }
    }

    /// Checks the parameters are self-consistent.
    ///
    /// Walk liveness needs spare capacity somewhere in the network: the average
    /// emergent degree is about `2 * attach_walks`, so the cutoff must exceed it.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.attach_walks == 0 {
            return Err(OverlayError::invalid("attach_walks must be at least 1"));
        }
        if self.active_cap <= 2 * self.attach_walks as usize {
            return Err(OverlayError::invalid(format!(
                "active_cap (the cutoff k_c) must exceed 2 * attach_walks = {} or walks \
                 starve; got {}",
                2 * self.attach_walks,
                self.active_cap
            )));
        }
        if self.passive_cap == 0 {
            return Err(OverlayError::invalid("passive_cap must be at least 1"));
        }
        if self.forward_ttl == 0 {
            return Err(OverlayError::invalid(
                "forward_ttl must be at least 1 (walks need at least one step to mix)",
            ));
        }
        if self.shuffle_size == 0 || self.shuffle_size > self.passive_cap {
            return Err(OverlayError::invalid(format!(
                "shuffle_size must be in 1..=passive_cap ({}), got {}",
                self.passive_cap, self.shuffle_size
            )));
        }
        if self.shuffle_interval == 0 || self.probe_interval == 0 {
            return Err(OverlayError::invalid(
                "shuffle_interval and probe_interval must be at least 1 tick",
            ));
        }
        if self.probe_timeout == 0 {
            return Err(OverlayError::invalid(
                "probe_timeout must be at least 1 tick",
            ));
        }
        Ok(())
    }
}

/// Telemetry of the overlay protocol: inbound messages by type, probe round-trip
/// times, and the three failure-detection/attachment events worth watching in a live
/// deployment (suspicions, death confirmations, walk redirects).
///
/// All handles are shared [`Arc`]s into one [`Registry`], so any number of peers (the
/// whole simulated cohort, or one socket daemon) aggregate into the same counters.
/// Recording is pure observation — relaxed atomic adds, no RNG draws, no reordering —
/// so an instrumented peer replays byte-identically to a bare one.
#[derive(Debug, Clone)]
pub struct OverlayMetrics {
    join: Arc<Counter>,
    forward_join: Arc<Counter>,
    shuffle: Arc<Counter>,
    probe: Arc<Counter>,
    leave: Arc<Counter>,
    probe_rtt_ticks: Arc<Histogram>,
    suspects: Arc<Counter>,
    confirms: Arc<Counter>,
    redirects: Arc<Counter>,
}

impl OverlayMetrics {
    /// Binds the overlay metric names (`overlay.msg.<type>`, `overlay.probe_rtt_ticks`,
    /// `overlay.suspects`/`confirms`/`redirects`) in `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        OverlayMetrics {
            join: registry.counter("overlay.msg.join"),
            forward_join: registry.counter("overlay.msg.forward_join"),
            shuffle: registry.counter("overlay.msg.shuffle"),
            probe: registry.counter("overlay.msg.probe"),
            leave: registry.counter("overlay.msg.leave"),
            probe_rtt_ticks: registry.histogram("overlay.probe_rtt_ticks"),
            suspects: registry.counter("overlay.suspects"),
            confirms: registry.counter("overlay.confirms"),
            redirects: registry.counter("overlay.redirects"),
        }
    }

    fn count_inbound(&self, msg: &OverlayMessage) {
        match msg {
            OverlayMessage::Join { .. } => self.join.inc(),
            OverlayMessage::ForwardJoin { .. } => self.forward_join.inc(),
            OverlayMessage::Shuffle { .. } => self.shuffle.inc(),
            OverlayMessage::Probe { .. } => self.probe.inc(),
            OverlayMessage::Leave { .. } => self.leave.inc(),
        }
    }
}

/// An in-flight liveness probe.
#[derive(Debug, Clone)]
struct ProbeState {
    target: PeerRef,
    nonce: u64,
    sent_at: u64,
    suspected: bool,
}

/// Outbound envelopes a handler produced: `(target, message)` pairs.
pub(crate) type Outbox = Vec<(PeerRef, OverlayMessage)>;

/// One peer's complete protocol state.
///
/// Drive it with [`Peer::pump`] (through a transport) or feed it directly with
/// [`Peer::handle`] / [`Peer::tick`] and route the outbox yourself — the simulated
/// network does the former, unit tests often do the latter.
#[derive(Debug, Clone)]
pub struct Peer {
    me: PeerRef,
    config: ProtocolConfig,
    active: Vec<PeerRef>,
    passive: Vec<PeerRef>,
    rng: StdRng,
    probe: Option<ProbeState>,
    next_probe_at: u64,
    next_shuffle_at: u64,
    metrics: Option<OverlayMetrics>,
}

impl Peer {
    /// Creates a peer with empty views.
    ///
    /// `rng` is the peer's entire randomness budget; the first draws desynchronize its
    /// probe and shuffle phases so a cohort started on the same tick does not fire in
    /// lockstep.
    pub fn new(me: PeerRef, config: ProtocolConfig, mut rng: StdRng) -> Self {
        let probe_phase = rng.gen_range(0..config.probe_interval);
        let shuffle_phase = rng.gen_range(0..config.shuffle_interval);
        Peer {
            me,
            config,
            active: Vec::new(),
            passive: Vec::new(),
            rng,
            probe: None,
            next_probe_at: probe_phase,
            next_shuffle_at: shuffle_phase,
            metrics: None,
        }
    }

    /// Attaches telemetry (usually one [`OverlayMetrics`] shared by a whole cohort).
    /// The instrumented peer's protocol behavior is byte-identical to a bare one.
    #[must_use]
    pub fn with_metrics(mut self, metrics: OverlayMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// This peer's own reference.
    pub fn me(&self) -> &PeerRef {
        &self.me
    }

    /// The current active view (the peer's overlay links, capped at `k_c`).
    pub fn active(&self) -> &[PeerRef] {
        &self.active
    }

    /// The current passive view (fallback contacts).
    pub fn passive(&self) -> &[PeerRef] {
        &self.passive
    }

    /// Picks a uniformly random bootstrap contact from `candidates` on this peer's own
    /// stream, so the choice replays with the peer.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn pick_contact(&mut self, candidates: &[PeerRef]) -> PeerRef {
        candidates[self.rng.gen_range(0..candidates.len())].clone()
    }

    /// Asks `contact` to start this peer's attachment walks.
    pub fn start_join(&mut self, contact: &PeerRef, out: &mut Outbox) {
        self.note_passive(contact.clone());
        out.push((
            contact.clone(),
            OverlayMessage::Join {
                origin: self.me.clone(),
                walks: self.config.attach_walks,
            },
        ));
    }

    /// Announces a graceful departure to every active neighbor.
    pub fn leave(&mut self, out: &mut Outbox) {
        for neighbor in &self.active {
            out.push((
                neighbor.clone(),
                OverlayMessage::Leave {
                    from: self.me.clone(),
                },
            ));
        }
        self.active.clear();
        self.passive.clear();
        self.probe = None;
    }

    /// Drains the transport's inbound messages, advances timers, and sends everything
    /// the handlers produced.
    ///
    /// # Errors
    ///
    /// Propagates the transport's receive/send errors.
    pub fn pump<T: OverlayTransport + ?Sized>(
        &mut self,
        now: u64,
        transport: &mut T,
    ) -> Result<()> {
        let mut out = Outbox::new();
        for msg in transport.recv()? {
            self.handle(msg, now, &mut out);
        }
        self.tick(now, &mut out);
        for (to, msg) in out {
            transport.send(&to, msg)?;
        }
        Ok(())
    }

    /// Processes one inbound message.
    pub fn handle(&mut self, msg: OverlayMessage, now: u64, out: &mut Outbox) {
        if let Some(metrics) = &self.metrics {
            metrics.count_inbound(&msg);
        }
        match msg {
            OverlayMessage::Join { origin, walks } => self.on_join(origin, walks, out),
            OverlayMessage::ForwardJoin { origin, ttl } => self.on_forward_join(origin, ttl, out),
            OverlayMessage::Shuffle { from, peers, reply } => {
                self.on_shuffle(from, peers, reply, out)
            }
            OverlayMessage::Probe { from, nonce, ack } => self.on_probe(from, nonce, ack, now, out),
            OverlayMessage::Leave { from } => self.on_leave(&from, out),
        }
    }

    /// Advances the shuffle and probe timers to `now`.
    pub fn tick(&mut self, now: u64, out: &mut Outbox) {
        self.tick_probe(now, out);
        self.tick_shuffle(now, out);
    }

    fn on_join(&mut self, origin: PeerRef, walks: u32, out: &mut Outbox) {
        if origin.id == self.me.id {
            return;
        }
        if walks == 0 {
            // Direct link offer from a walk endpoint (or seed wiring): mirror it.
            if !self.in_active(&origin) && self.active.len() < self.config.active_cap {
                self.drop_passive(origin.id);
                self.active.push(origin);
            }
            return;
        }
        // Bootstrap request: start the walks. With no neighbors to walk on (we are the
        // first peer, or isolated), accept directly instead.
        self.note_passive(origin.clone());
        if self.active.is_empty() {
            self.try_accept(origin, out);
            return;
        }
        for _ in 0..walks {
            let next = self.random_active();
            out.push((
                next,
                OverlayMessage::ForwardJoin {
                    origin: origin.clone(),
                    ttl: self.config.forward_ttl,
                },
            ));
        }
    }

    fn on_forward_join(&mut self, origin: PeerRef, ttl: u32, out: &mut Outbox) {
        if ttl > 0 && !self.active.is_empty() {
            let next = self.random_active();
            out.push((
                next,
                OverlayMessage::ForwardJoin {
                    origin,
                    ttl: ttl - 1,
                },
            ));
            return;
        }
        // Walk terminated here: attempt the attachment; on failure (view saturated —
        // the hard cutoff in action) redirect the walk with a fresh TTL, the protocol
        // equivalent of the generator's re-draw on a saturated target.
        self.note_passive(origin.clone());
        if !self.try_accept(origin.clone(), out) && !self.active.is_empty() {
            if let Some(metrics) = &self.metrics {
                metrics.redirects.inc();
            }
            let next = self.random_active();
            out.push((
                next,
                OverlayMessage::ForwardJoin {
                    origin,
                    ttl: self.config.forward_ttl,
                },
            ));
        }
    }

    /// Attempts to add `origin` to the active view and offer the link back. Returns
    /// `true` when the walk is resolved (link made, or it already existed), `false`
    /// when the view is saturated and the walk must continue elsewhere.
    fn try_accept(&mut self, origin: PeerRef, out: &mut Outbox) -> bool {
        if origin.id == self.me.id || self.in_active(&origin) {
            return true;
        }
        if self.active.len() >= self.config.active_cap {
            return false;
        }
        self.drop_passive(origin.id);
        out.push((
            origin.clone(),
            OverlayMessage::Join {
                origin: self.me.clone(),
                walks: 0,
            },
        ));
        self.active.push(origin);
        true
    }

    fn on_shuffle(&mut self, from: PeerRef, peers: Vec<PeerRef>, reply: bool, out: &mut Outbox) {
        for peer in peers {
            self.note_passive(peer);
        }
        if !reply {
            let sample = self.shuffle_sample();
            out.push((
                from,
                OverlayMessage::Shuffle {
                    from: self.me.clone(),
                    peers: sample,
                    reply: true,
                },
            ));
        }
    }

    fn on_probe(&mut self, from: PeerRef, nonce: u64, ack: bool, now: u64, out: &mut Outbox) {
        if !ack {
            // Only acknowledge active neighbors: a half-open link (the other side never
            // mirrored it) fails its probes and gets repaired away.
            if self.in_active(&from) {
                out.push((
                    from,
                    OverlayMessage::Probe {
                        from: self.me.clone(),
                        nonce,
                        ack: true,
                    },
                ));
            }
            return;
        }
        if let Some(probe) = &self.probe {
            if probe.target.id == from.id && probe.nonce == nonce {
                if let Some(metrics) = &self.metrics {
                    metrics
                        .probe_rtt_ticks
                        .record(now.saturating_sub(probe.sent_at));
                }
                self.probe = None;
            }
        }
    }

    fn on_leave(&mut self, from: &PeerRef, out: &mut Outbox) {
        let was_neighbor = self.in_active(from);
        self.active.retain(|p| p.id != from.id);
        self.drop_passive(from.id);
        if let Some(probe) = &self.probe {
            if probe.target.id == from.id {
                self.probe = None;
            }
        }
        if was_neighbor {
            self.repair(out);
        }
    }

    fn tick_probe(&mut self, now: u64, out: &mut Outbox) {
        if let Some(probe) = &mut self.probe {
            let deadline = probe.sent_at + self.config.probe_timeout;
            if !probe.suspected && now >= deadline {
                probe.suspected = true;
                if let Some(metrics) = &self.metrics {
                    metrics.suspects.inc();
                }
            }
            if probe.suspected && now >= deadline + self.config.suspect_grace {
                // Confirmed dead: drop the neighbor and walk for a replacement, which
                // keeps the degree distribution's shape under churn.
                if let Some(metrics) = &self.metrics {
                    metrics.confirms.inc();
                }
                let dead = probe.target.clone();
                self.probe = None;
                self.active.retain(|p| p.id != dead.id);
                self.drop_passive(dead.id);
                self.repair(out);
            }
            return;
        }
        if now >= self.next_probe_at {
            self.next_probe_at = now + self.config.probe_interval;
            if !self.active.is_empty() {
                let target = self.random_active();
                let nonce = self.rng.next_u64();
                out.push((
                    target.clone(),
                    OverlayMessage::Probe {
                        from: self.me.clone(),
                        nonce,
                        ack: false,
                    },
                ));
                self.probe = Some(ProbeState {
                    target,
                    nonce,
                    sent_at: now,
                    suspected: false,
                });
            }
        }
    }

    fn tick_shuffle(&mut self, now: u64, out: &mut Outbox) {
        if now < self.next_shuffle_at {
            return;
        }
        self.next_shuffle_at = now + self.config.shuffle_interval;
        if self.active.is_empty() {
            return;
        }
        let target = self.random_active();
        let sample = self.shuffle_sample();
        out.push((
            target,
            OverlayMessage::Shuffle {
                from: self.me.clone(),
                peers: sample,
                reply: false,
            },
        ));
    }

    /// Sends a single repair walk through a passive contact to replace a lost neighbor.
    fn repair(&mut self, out: &mut Outbox) {
        if self.passive.is_empty() {
            return;
        }
        let contact = self.passive[self.rng.gen_range(0..self.passive.len())].clone();
        out.push((
            contact,
            OverlayMessage::Join {
                origin: self.me.clone(),
                walks: 1,
            },
        ));
    }

    /// Sample sent in a shuffle: this peer itself plus a random slice of both views.
    fn shuffle_sample(&mut self) -> Vec<PeerRef> {
        let mut candidates: Vec<PeerRef> = self
            .active
            .iter()
            .chain(self.passive.iter())
            .cloned()
            .collect();
        let take = self.config.shuffle_size.saturating_sub(1);
        let mut sample = Vec::with_capacity(take + 1);
        sample.push(self.me.clone());
        for _ in 0..take.min(candidates.len()) {
            let pick = self.rng.gen_range(0..candidates.len());
            sample.push(candidates.swap_remove(pick));
        }
        sample
    }

    fn random_active(&mut self) -> PeerRef {
        self.active[self.rng.gen_range(0..self.active.len())].clone()
    }

    fn in_active(&self, peer: &PeerRef) -> bool {
        self.active.iter().any(|p| p.id == peer.id)
    }

    fn drop_passive(&mut self, id: u64) {
        self.passive.retain(|p| p.id != id);
    }

    /// Adds `peer` to the passive view, evicting a uniformly random entry when full.
    /// Self, duplicates, and current active neighbors are skipped.
    fn note_passive(&mut self, peer: PeerRef) {
        if peer.id == self.me.id
            || self.in_active(&peer)
            || self.passive.iter().any(|p| p.id == peer.id)
        {
            return;
        }
        if self.passive.len() >= self.config.passive_cap {
            let evict = self.rng.gen_range(0..self.passive.len());
            self.passive.swap_remove(evict);
        }
        self.passive.push(peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn peer(id: u64) -> Peer {
        Peer::new(
            PeerRef::new(id, format!("sim:{id}")),
            ProtocolConfig::small(),
            StdRng::seed_from_u64(id ^ 0xABCD),
        )
    }

    fn r(id: u64) -> PeerRef {
        PeerRef::new(id, format!("sim:{id}"))
    }

    #[test]
    fn config_validation_rejects_degenerate_parameters() {
        assert!(ProtocolConfig::small().validate().is_ok());
        let mut c = ProtocolConfig::small();
        c.attach_walks = 0;
        assert!(c.validate().is_err());
        let mut c = ProtocolConfig::small();
        c.active_cap = 4; // == 2 * attach_walks
        assert!(c.validate().is_err());
        let mut c = ProtocolConfig::small();
        c.shuffle_size = c.passive_cap + 1;
        assert!(c.validate().is_err());
        let mut c = ProtocolConfig::small();
        c.forward_ttl = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn direct_link_offers_are_mirrored_and_capped() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        for id in 1..=10 {
            p.handle(
                OverlayMessage::Join {
                    origin: r(id),
                    walks: 0,
                },
                0,
                &mut out,
            );
        }
        // Cap is 8: the 9th and 10th offers were refused.
        assert_eq!(p.active().len(), 8);
        assert!(out.is_empty(), "link offers are never answered");
    }

    #[test]
    fn walk_endpoints_accept_and_offer_the_link_back() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::ForwardJoin {
                origin: r(7),
                ttl: 0,
            },
            0,
            &mut out,
        );
        assert!(p.active().iter().any(|q| q.id == 7));
        assert_eq!(
            out,
            vec![(
                r(7),
                OverlayMessage::Join {
                    origin: r(0),
                    walks: 0
                }
            )]
        );
    }

    #[test]
    fn saturated_endpoints_redirect_the_walk() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        for id in 1..=8 {
            p.handle(
                OverlayMessage::Join {
                    origin: r(id),
                    walks: 0,
                },
                0,
                &mut out,
            );
        }
        assert_eq!(p.active().len(), 8);
        out.clear();
        p.handle(
            OverlayMessage::ForwardJoin {
                origin: r(99),
                ttl: 0,
            },
            0,
            &mut out,
        );
        // Not accepted; the walk continues with a fresh TTL.
        assert!(!p.active().iter().any(|q| q.id == 99));
        assert!(matches!(
            out.as_slice(),
            [(_, OverlayMessage::ForwardJoin { origin, ttl })]
                if origin.id == 99 && *ttl == ProtocolConfig::small().forward_ttl
        ));
    }

    #[test]
    fn walks_with_ttl_left_are_forwarded_one_step() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::Join {
                origin: r(1),
                walks: 0,
            },
            0,
            &mut out,
        );
        p.handle(
            OverlayMessage::ForwardJoin {
                origin: r(42),
                ttl: 3,
            },
            0,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [(to, OverlayMessage::ForwardJoin { origin, ttl: 2 })]
                if to.id == 1 && origin.id == 42
        ));
    }

    #[test]
    fn probes_are_acked_only_for_active_neighbors() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::Probe {
                from: r(5),
                nonce: 11,
                ack: false,
            },
            0,
            &mut out,
        );
        assert!(out.is_empty(), "strangers' probes are ignored");
        p.handle(
            OverlayMessage::Join {
                origin: r(5),
                walks: 0,
            },
            0,
            &mut out,
        );
        p.handle(
            OverlayMessage::Probe {
                from: r(5),
                nonce: 11,
                ack: false,
            },
            0,
            &mut out,
        );
        assert!(matches!(
            out.as_slice(),
            [(to, OverlayMessage::Probe { nonce: 11, ack: true, .. })] if to.id == 5
        ));
    }

    #[test]
    fn unanswered_probes_confirm_death_and_trigger_a_repair_walk() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::Join {
                origin: r(5),
                walks: 0,
            },
            0,
            &mut out,
        );
        // Give the peer a passive contact to repair through.
        p.handle(
            OverlayMessage::Shuffle {
                from: r(5),
                peers: vec![r(6)],
                reply: true,
            },
            0,
            &mut out,
        );
        out.clear();
        // Drive ticks until the probe fires, times out, and the suspect is confirmed.
        let config = ProtocolConfig::small();
        let horizon = config.probe_interval + config.probe_timeout + config.suspect_grace + 2;
        for now in 0..horizon {
            p.tick(now, &mut out);
        }
        assert!(p.active().is_empty(), "dead neighbor was dropped");
        assert!(
            out.iter().any(|(to, m)| to.id == 6
                && matches!(m, OverlayMessage::Join { walks: 1, origin } if origin.id == 0)),
            "a single repair walk goes through the passive contact: {out:?}"
        );
    }

    #[test]
    fn leave_removes_the_neighbor_and_repairs() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::Join {
                origin: r(5),
                walks: 0,
            },
            0,
            &mut out,
        );
        p.handle(
            OverlayMessage::Shuffle {
                from: r(5),
                peers: vec![r(6)],
                reply: true,
            },
            0,
            &mut out,
        );
        out.clear();
        p.handle(OverlayMessage::Leave { from: r(5) }, 0, &mut out);
        assert!(p.active().is_empty());
        assert!(matches!(
            out.as_slice(),
            [(to, OverlayMessage::Join { walks: 1, .. })] if to.id == 6
        ));
    }

    #[test]
    fn shuffles_merge_into_passive_and_are_answered() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::Shuffle {
                from: r(3),
                peers: vec![r(3), r(4), r(0)],
                reply: false,
            },
            0,
            &mut out,
        );
        // Self is never merged; the reply targets the shuffler.
        assert!(p.passive().iter().all(|q| q.id != 0));
        assert!(p.passive().iter().any(|q| q.id == 4));
        assert!(matches!(
            out.as_slice(),
            [(to, OverlayMessage::Shuffle { reply: true, .. })] if to.id == 3
        ));
    }

    #[test]
    fn passive_view_is_bounded() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        for id in 1..100 {
            p.handle(
                OverlayMessage::Shuffle {
                    from: r(id),
                    peers: vec![r(id)],
                    reply: true,
                },
                0,
                &mut out,
            );
        }
        assert_eq!(p.passive().len(), ProtocolConfig::small().passive_cap);
    }

    #[test]
    fn metrics_count_messages_events_and_probe_rtts_without_changing_behavior() {
        let registry = Registry::new();
        let metrics = OverlayMetrics::register(&registry);
        let drive = |p: &mut Peer| {
            let mut out = Outbox::new();
            // One neighbor, one passive contact to repair through.
            p.handle(
                OverlayMessage::Join {
                    origin: r(5),
                    walks: 0,
                },
                0,
                &mut out,
            );
            p.handle(
                OverlayMessage::Shuffle {
                    from: r(5),
                    peers: vec![r(6)],
                    reply: true,
                },
                0,
                &mut out,
            );
            // Saturate the view, then land a walk on it: a redirect.
            for id in 10..17 {
                p.handle(
                    OverlayMessage::Join {
                        origin: r(id),
                        walks: 0,
                    },
                    0,
                    &mut out,
                );
            }
            p.handle(
                OverlayMessage::ForwardJoin {
                    origin: r(99),
                    ttl: 0,
                },
                0,
                &mut out,
            );
            // Let a probe fire, time out, and confirm a death.
            let config = ProtocolConfig::small();
            let horizon = config.probe_interval + config.probe_timeout + config.suspect_grace + 2;
            for now in 0..horizon {
                p.tick(now, &mut out);
            }
            (out, p.active().to_vec(), p.passive().to_vec())
        };

        let mut plain = peer(0);
        let mut metered = peer(0).with_metrics(metrics);
        // Telemetry is invisible to the protocol: same outbox, same views.
        assert_eq!(drive(&mut plain), drive(&mut metered));

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("overlay.msg.join"), Some(8));
        assert_eq!(snapshot.counter("overlay.msg.forward_join"), Some(1));
        assert_eq!(snapshot.counter("overlay.msg.shuffle"), Some(1));
        assert_eq!(snapshot.counter("overlay.redirects"), Some(1));
        // Nothing ever acks in this rig, so the probe cycle keeps suspecting (and may
        // re-fire within the horizon): at least one suspicion reaches confirmation.
        let suspects = snapshot.counter("overlay.suspects").unwrap();
        let confirms = snapshot.counter("overlay.confirms").unwrap();
        assert!(confirms >= 1);
        assert!(suspects >= confirms);

        // A probed peer that answers produces one RTT sample of probe_timeout - 1
        // ticks (the ack arrives on the next handle() call's clock).
        let registry = Registry::new();
        let mut p = peer(1).with_metrics(OverlayMetrics::register(&registry));
        let mut out = Outbox::new();
        p.handle(
            OverlayMessage::Join {
                origin: r(5),
                walks: 0,
            },
            0,
            &mut out,
        );
        let mut now = 0;
        let nonce = loop {
            out.clear();
            p.tick(now, &mut out);
            if let Some((_, OverlayMessage::Probe { nonce, .. })) = out.first() {
                break *nonce;
            }
            now += 1;
        };
        p.handle(
            OverlayMessage::Probe {
                from: r(5),
                nonce,
                ack: true,
            },
            now + 3,
            &mut out,
        );
        let rtt = registry.snapshot();
        let rtt = rtt.histogram("overlay.probe_rtt_ticks").unwrap();
        assert_eq!(rtt.count, 1);
        assert_eq!(rtt.max, 3);
    }

    #[test]
    fn identical_seeds_replay_identical_outputs() {
        let run = || {
            let mut p = Peer::new(r(0), ProtocolConfig::small(), StdRng::seed_from_u64(0xFEED));
            let mut out = Outbox::new();
            p.handle(
                OverlayMessage::Join {
                    origin: r(1),
                    walks: 2,
                },
                0,
                &mut out,
            );
            for now in 0..64 {
                p.tick(now, &mut out);
            }
            (out, p.active().to_vec(), p.passive().to_vec())
        };
        assert_eq!(run(), run());
    }
}
