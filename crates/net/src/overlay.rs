//! The socket transport of the live membership protocol: `sfo overlay` daemons.
//!
//! [`OverlayNode`] runs one `sfo-overlay` [`Peer`] over real sockets. Each of the five
//! protocol messages travels as its own SFNF frame type (`crate::message::TYPE_JOIN`
//! through `crate::message::TYPE_LEAVE`), one frame per connection: a send dials the
//! target, writes the frame, and hangs up, so a peer needs no connection table and an
//! unreachable target is simply a dropped message — exactly the loss model the
//! protocol's failure detector is built for.
//!
//! The daemon is intentionally *not* deterministic across runs — wall-clock ticks and
//! socket scheduling order arrivals — but it executes the byte-for-byte same state
//! machine the simulated transport drives, so every protocol-level test of
//! `sfo-overlay` covers this transport too. Deterministic topology growth stays the
//! job of `DynamicsSpec::Live` in `sfo-scenario`.

use crate::frame::{FrameReader, FrameWriter};
use crate::message::Message;
use crate::stream::{NetListener, NetStream};
use crate::NetError;
use sfo_overlay::OverlayTransport;
use sfo_overlay::Peer;

pub use sfo_overlay::{OverlayMessage, PeerRef, ProtocolConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of one `sfo overlay` daemon.
#[derive(Debug, Clone)]
pub struct OverlayNodeConfig {
    /// Listen address: `host:port` (port 0 picks a free one) or `unix:/path`.
    pub listen: String,
    /// This peer's stable identifier; must be unique across the overlay.
    pub id: u64,
    /// Seed of the peer's protocol RNG (walk forwarding, shuffle sampling, ...).
    pub seed: u64,
    /// Protocol parameters; every node of an overlay must run the same ones.
    pub protocol: ProtocolConfig,
    /// The bootstrap contact to join through, or `None` to start a new overlay.
    pub bootstrap: Option<PeerRef>,
    /// Milliseconds per protocol tick; timeouts and intervals count these ticks.
    pub tick_millis: u64,
}

/// The receive half of the socket transport: an accept loop fans frames from any
/// number of one-shot connections into one shared inbox, which `recv` drains.
struct SocketTransport {
    inbox: Arc<Mutex<Vec<OverlayMessage>>>,
}

impl OverlayTransport for SocketTransport {
    fn send(&mut self, to: &PeerRef, msg: OverlayMessage) -> sfo_overlay::Result<()> {
        // Best effort by design: a dead or unreachable peer is exactly what probes
        // and redirects handle, so dial and write failures are dropped, not errors.
        if let Ok(stream) = NetStream::connect(&to.addr) {
            let _ = FrameWriter::new(stream).send(&Message::Overlay(msg));
        }
        Ok(())
    }

    fn recv(&mut self) -> sfo_overlay::Result<Vec<OverlayMessage>> {
        Ok(std::mem::take(&mut *self.inbox.lock().expect("inbox lock")))
    }
}

/// A bound, not-yet-running overlay daemon; [`OverlayNode::run`] starts the protocol.
pub struct OverlayNode {
    listener: NetListener,
    me: PeerRef,
    peer: Peer,
    bootstrap: Option<PeerRef>,
    tick_millis: u64,
}

impl OverlayNode {
    /// Binds the listen address and builds the peer state machine.
    ///
    /// The node's [`PeerRef`] advertises the *bound* address (so `host:0` works), and
    /// its protocol RNG is seeded from `config.seed` alone — the daemon trades the
    /// simulated transport's stream discipline for operator-supplied seeds.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the bind fails and [`NetError::Protocol`] when
    /// the protocol configuration does not validate.
    pub fn bind(config: &OverlayNodeConfig) -> Result<Self, NetError> {
        config
            .protocol
            .validate()
            .map_err(|e| NetError::protocol(e.to_string()))?;
        let listener = NetListener::bind(&config.listen)?;
        let me = PeerRef::new(config.id, listener.local_addr());
        let rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(config.seed);
        let peer = Peer::new(me.clone(), config.protocol.clone(), rng);
        Ok(OverlayNode {
            listener,
            me,
            peer,
            bootstrap: config.bootstrap.clone(),
            tick_millis: config.tick_millis.max(1),
        })
    }

    /// The bound address other nodes dial — how callers learn the real port after
    /// binding `host:0`.
    pub fn local_addr(&self) -> String {
        self.me.addr.clone()
    }

    /// This node's peer reference (id plus bound address).
    pub fn me(&self) -> &PeerRef {
        &self.me
    }

    /// Runs the daemon until the handle stops it (or forever, from the CLI).
    ///
    /// Consumes the node: the accept loop moves onto its own thread, and the protocol
    /// loop pumps the peer once per tick on this one.
    pub fn run(self) -> OverlayNodeHandle {
        let inbox = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(Mutex::new(Vec::new()));

        let accept_inbox = Arc::clone(&inbox);
        let accept_stop = Arc::clone(&stop);
        let addr = self.me.addr.clone();
        let accept = std::thread::Builder::new()
            .name("sfo-overlay-accept".to_string())
            .spawn(move || accept_loop(self.listener, &accept_inbox, &accept_stop))
            .expect("spawning overlay accept thread");

        let mut peer = self.peer;
        let mut transport = SocketTransport {
            inbox: Arc::clone(&inbox),
        };
        let loop_stop = Arc::clone(&stop);
        let loop_active = Arc::clone(&active);
        let tick_millis = self.tick_millis;
        let bootstrap = self.bootstrap;
        let pump = std::thread::Builder::new()
            .name("sfo-overlay-pump".to_string())
            .spawn(move || {
                if let Some(contact) = bootstrap {
                    let mut out = Vec::new();
                    peer.start_join(&contact, &mut out);
                    for (to, msg) in out {
                        let _ = transport.send(&to, msg);
                    }
                }
                let mut now = 0u64;
                while !loop_stop.load(Ordering::SeqCst) {
                    // The transport never fails, so neither does the pump.
                    let _ = peer.pump(now, &mut transport);
                    *loop_active.lock().expect("active lock") = peer.active().to_vec();
                    now += 1;
                    std::thread::sleep(std::time::Duration::from_millis(tick_millis));
                }
                // Leave gracefully so neighbors repair immediately instead of waiting
                // out the failure detector.
                let mut out = Vec::new();
                peer.leave(&mut out);
                for (to, msg) in out {
                    let _ = transport.send(&to, msg);
                }
            })
            .expect("spawning overlay pump thread");

        OverlayNodeHandle {
            addr,
            active,
            stop,
            accept,
            pump,
        }
    }
}

/// Accepts one-shot connections and drains each into the shared inbox.
fn accept_loop(listener: NetListener, inbox: &Mutex<Vec<OverlayMessage>>, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok(stream) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let mut reader = FrameReader::new(stream);
                // A connection carries whole frames until the sender hangs up;
                // anything that is not an overlay frame (or does not decode) is
                // dropped with the connection — lossy transport, strict codec.
                while let Ok(message) = reader.recv() {
                    if let Message::Overlay(overlay) = message {
                        inbox.lock().expect("inbox lock").push(overlay);
                    }
                }
            }
            Err(_) if stop.load(Ordering::SeqCst) => return,
            Err(e) => eprintln!("sfo overlay: accept failed: {e}"),
        }
    }
}

/// Stop handle of a running [`OverlayNode`].
pub struct OverlayNodeHandle {
    addr: String,
    active: Arc<Mutex<Vec<PeerRef>>>,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
    pump: std::thread::JoinHandle<()>,
}

impl OverlayNodeHandle {
    /// The served address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A snapshot of the node's current active view (its overlay neighbors).
    pub fn active(&self) -> Vec<PeerRef> {
        self.active.lock().expect("active lock").clone()
    }

    /// Stops the protocol loop (sending a graceful `Leave`), then the accept loop.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.pump.join();
        // Unblock the accept call with one throwaway connection; if the dial fails
        // the thread is leaked rather than deadlocking the caller (it holds no work
        // and dies with the process).
        if NetStream::connect(&self.addr).is_ok() {
            let _ = self.accept.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64, bootstrap: Option<PeerRef>) -> OverlayNode {
        OverlayNode::bind(&OverlayNodeConfig {
            listen: "127.0.0.1:0".to_string(),
            id,
            seed: 100 + id,
            protocol: ProtocolConfig::small(),
            bootstrap,
            tick_millis: 5,
        })
        .unwrap()
    }

    fn wait_until(deadline_ms: u64, mut check: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(deadline_ms);
        while std::time::Instant::now() < deadline {
            if check() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn two_nodes_join_over_sockets_and_leave_cleanly() {
        let seed_node = node(0, None);
        let contact = seed_node.me().clone();
        let seed_handle = seed_node.run();
        let join_handle = node(1, Some(contact)).run();

        // The joiner's bootstrap walk lands on the only peer there is; the direct-link
        // offer wires both sides.
        assert!(
            wait_until(5_000, || {
                join_handle.active().iter().any(|p| p.id == 0)
                    && seed_handle.active().iter().any(|p| p.id == 1)
            }),
            "nodes failed to link over loopback"
        );

        // A graceful stop sends Leave: the survivor drops the departed neighbor.
        join_handle.stop();
        assert!(
            wait_until(5_000, || seed_handle.active().is_empty()),
            "leave was not processed"
        );
        seed_handle.stop();
    }

    #[test]
    fn invalid_protocol_configs_fail_the_bind() {
        let mut protocol = ProtocolConfig::small();
        protocol.active_cap = 0;
        assert!(matches!(
            OverlayNode::bind(&OverlayNodeConfig {
                listen: "127.0.0.1:0".to_string(),
                id: 0,
                seed: 1,
                protocol,
                bootstrap: None,
                tick_millis: 5,
            }),
            Err(NetError::Protocol { .. })
        ));
    }
}
