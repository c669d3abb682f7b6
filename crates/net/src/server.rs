//! The snapshot-serving worker daemon behind `sfo serve`.
//!
//! A [`WorkerServer`] loads one `.sfos` snapshot into a sharded store, spins up a
//! persistent [`WorkerPool`], and serves [`BatchRequest`]s from any number of client
//! connections concurrently — each connection runs as a reader/executor thread pair
//! over one duplicated socket, and the engine's per-batch queues let their
//! submissions interleave on one pool instead of serializing. The worker is
//! deterministic by construction: every job it runs derives its RNG from
//! `(batch seed, global job index)` exactly like a local run, so *where* a job runs
//! is invisible in the results.
//!
//! # Backpressure
//!
//! A pipelining client (the `sfo loadtest` driver) can send requests faster than the
//! engine drains them. Each connection therefore carries a bounded pending-batch
//! queue: the reader admits `SubmitBatch` frames up to [`ServeConfig::queue_bound`]
//! and *sheds* the rest with a typed [`Message::Overloaded`] reply — sent in arrival
//! order like every other reply, so the conversation never desyncs and the
//! connection never dies from overload. Shedding is pure admission control: a shed
//! request is never executed, and the requests that *are* served produce
//! byte-identical `BatchResult` payloads at any bound (determinism rule 6). The
//! reader records admission depth into the `net.queue_depth` histogram and sheds
//! into the `net.shed_total` counter, both visible over `StatsRequest`.
//!
//! # The byte path
//!
//! Nothing on a connection waits for a timer or for the peer's ACK. Sockets run with
//! `TCP_NODELAY` (see [`crate::stream`]), so batching is decided here: the reader
//! thread takes every frame one `read` delivered and hands the run to the executor
//! under one lock; the executor encodes replies into one outbox and writes it when
//! its backlog is empty (always before it sleeps), when the oldest queued reply has
//! been held for 100 µs (`REPLY_HOLD`), when 64 KiB are pending, and before it drops the
//! connection. An idle connection's reply therefore leaves the moment it is built,
//! and cheap replies under pipelining leave many per `write`. Reply order, shed
//! decisions and every reply byte are what they would be with one `write` per frame.
//!
//! On connect the worker announces a [`Hello`] carrying the identity hash of the file
//! it serves ([`sfo_graph::snapshot::read_identity`]); a dispatcher that needs a
//! different realization refuses it instead of silently measuring the wrong topology.
//! `LoadSnapshot` swaps the served file (answering with a fresh `Hello`), and every
//! failure — unknown request kinds, out-of-range jobs, unloadable files — comes back
//! as a typed `Error` frame on a connection that stays usable.
//!
//! # Shard serving
//!
//! Besides the whole-snapshot mode, a worker can hold one *shard* of a placed
//! deployment: the contiguous [`CsrSlice`] of the node range
//! [`crate::placed::shard_range`] assigns it, installed either at startup
//! (`sfo serve --shard i`, which cuts the slice out of the local snapshot file) or
//! over the wire by a dispatcher's `LoadShard` frame. A shard host announces its
//! shard index in `Hello` (whole-snapshot workers announce
//! [`WHOLE_SNAPSHOT`]), refuses `SubmitBatch` — it cannot run whole jobs — and
//! instead serves `ForwardFrontier`: it resumes a suspended placed search on its
//! rows with [`placed_advance`] and answers `FrontierResult::Done` or
//! `FrontierResult::Continue`. Admission is strict: a frontier whose cursor this
//! shard does not own, or whose snapshot identity differs, is a typed error, never
//! silently-wrong work.

use crate::frame::{frame_len, FrameReader, FrameWriter, IO_BUFFER_LEN};
use crate::message::{
    BatchRequest, FrontierResult, Hello, Message, ShardPayload, MAX_BATCH_OUTCOMES, WHOLE_SNAPSHOT,
};
use crate::stream::{NetListener, NetStream};
use crate::NetError;
use sfo_engine::{
    batched_rw_normalized_to_nf_range, batched_ttl_sweep_range, placed_advance, run_queries_offset,
    AlgorithmTable, EngineConfig, PlacedState, PlacedStep, SearchScratch, ShardedCsr, StepStats,
    WorkerPool,
};
use sfo_graph::snapshot::{read_identity, Provenance, SnapshotFile};
use sfo_graph::{CsrSlice, ShardView};
use sfo_obs::{Counter, Histogram, Registry};
use sfo_scenario::BuiltSearch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The pending-batch queue bound used when [`ServeConfig::queue_bound`] is 0.
pub const DEFAULT_QUEUE_BOUND: usize = 32;

/// Configuration of a serving daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The `.sfos` file to serve (must carry a provenance record).
    pub snapshot_path: String,
    /// Listen address: `host:port` (port 0 picks a free one) or `unix:/path`.
    pub listen: String,
    /// Engine pool worker threads (0 = all available cores).
    pub engine_workers: usize,
    /// Whole-snapshot mode: shards the loaded store is partitioned into (0 or 1 =
    /// unsharded; sharding never changes results). Shard mode (`shard_index` set):
    /// the placement's total shard count.
    pub shard_count: usize,
    /// Serve one placed shard instead of the whole snapshot: cut shard `i` of
    /// `shard_count` out of the file and answer `ForwardFrontier` only
    /// (`sfo serve --shard i`). The pin is permanent for the daemon's lifetime —
    /// `LoadShard`/`LoadSnapshot` for a different shard or file are refused.
    pub shard_index: Option<usize>,
    /// Memory-map the snapshot's topology arrays instead of reading them into owned
    /// buffers (`sfo serve --mmap`). The file is checksum-verified once either way,
    /// and a mapped store answers every request byte-identically to a read one; on
    /// platforms without the mapping path this silently falls back to reading.
    pub mmap: bool,
    /// Per-connection pending-batch queue bound (`sfo serve --queue-bound`): how many
    /// admitted `SubmitBatch` requests may be waiting or executing on one connection
    /// before the worker sheds the next with a typed [`Message::Overloaded`] reply
    /// instead of queueing without bound. 0 selects [`DEFAULT_QUEUE_BOUND`]. Shedding
    /// never changes results: the requests that are served produce byte-identical
    /// `BatchResult` payloads at any bound.
    pub queue_bound: usize,
}

/// What a store holds: every row, or one placed shard's rows.
enum Topology {
    /// The whole snapshot, shardable for the in-process engine.
    Whole(Arc<ShardedCsr>),
    /// One placed shard: the slice plus its position in the placement.
    Shard {
        slice: Arc<CsrSlice>,
        shard_index: u32,
        shard_count: u32,
    },
}

/// One loaded snapshot (or shard of one): the store plus what `Hello` announces.
struct Store {
    topology: Topology,
    /// Present on stores loaded from `.sfos` files; absent on shards installed over
    /// the wire (`LoadShard` ships rows, not provenance — shard hosts never build
    /// jobs, so they never need the stored `m`).
    provenance: Option<Provenance>,
    identity: u64,
}

impl Store {
    fn load(
        path: &str,
        shard_count: usize,
        shard_index: Option<usize>,
        mmap: bool,
    ) -> Result<Store, NetError> {
        let file = if mmap {
            SnapshotFile::load_mmap(path)
        } else {
            SnapshotFile::load(path)
        }
        .map_err(|e| NetError::protocol(format!("cannot serve {path}: {e}")))?;
        let provenance = file.provenance.ok_or_else(|| {
            NetError::protocol(format!(
                "cannot serve {path}: no provenance record — scenario jobs need the \
                 stored m and stream state; build the file with `sfo snapshot build`"
            ))
        })?;
        if file.csr.node_count() == 0 {
            return Err(NetError::protocol(format!(
                "cannot serve {path}: the topology is empty"
            )));
        }
        let identity = read_identity(path)
            .map_err(|e| NetError::protocol(format!("cannot serve {path}: {e}")))?;
        let topology = match shard_index {
            None => Topology::Whole(Arc::new(ShardedCsr::from_csr_owned(
                file.csr,
                shard_count.max(1),
            ))),
            Some(index) => {
                if shard_count == 0 || index >= shard_count {
                    return Err(NetError::protocol(format!(
                        "cannot serve {path}: shard {index} of {shard_count} is not a \
                         placement (need --shards above the shard index)"
                    )));
                }
                let range = crate::placed::shard_range(file.csr.node_count(), shard_count, index);
                Topology::Shard {
                    slice: Arc::new(file.csr.extract_slice(range)),
                    shard_index: index as u32,
                    shard_count: shard_count as u32,
                }
            }
        };
        Ok(Store {
            topology,
            provenance: Some(provenance),
            identity,
        })
    }

    /// Wraps a wire-shipped shard as a servable store.
    fn from_payload(payload: ShardPayload) -> Store {
        Store {
            identity: payload.identity,
            topology: Topology::Shard {
                slice: Arc::new(payload.slice),
                shard_index: payload.shard_index,
                shard_count: payload.shard_count,
            },
            provenance: None,
        }
    }

    /// The view placed frontiers run against.
    fn shard_view(&self) -> &dyn ShardView {
        match &self.topology {
            Topology::Whole(graph) => graph.as_ref(),
            Topology::Shard { slice, .. } => slice.as_ref(),
        }
    }

    fn hello(&self, engine_workers: u32) -> Hello {
        let (shard_count, shard_index) = match &self.topology {
            Topology::Whole(graph) => (graph.shard_count() as u32, WHOLE_SNAPSHOT),
            Topology::Shard {
                shard_index,
                shard_count,
                ..
            } => (*shard_count, *shard_index),
        };
        Hello {
            identity: self.identity,
            node_count: self.shard_view().node_count() as u64,
            edge_count: self.shard_view().edge_count() as u64,
            shard_count,
            engine_workers,
            shard_index,
        }
    }
}

struct ServerState {
    pool: WorkerPool,
    store: RwLock<Arc<Store>>,
    shard_count: usize,
    /// The `--shard` pin: a pinned daemon serves exactly this placed shard forever.
    pinned_shard: Option<usize>,
    mmap: bool,
    /// Resolved per-connection pending-batch admission bound (never 0).
    queue_bound: usize,
    stop: AtomicBool,
    /// Monotonic connection ids, so per-connection telemetry and logs attribute to
    /// the conversation that misbehaved, not to whichever peer string a thread last
    /// held.
    connections: AtomicU64,
    /// The daemon's one telemetry registry: the engine pool records into it, the
    /// connection handlers count frames/bytes and request service times, and a
    /// `StatsRequest` answers with its snapshot. Pure observation — nothing in it
    /// feeds an RNG stream or reorders work.
    metrics: Arc<Registry>,
}

/// A bound, snapshot-loaded worker daemon; [`WorkerServer::run`] serves until stopped.
pub struct WorkerServer {
    listener: NetListener,
    state: Arc<ServerState>,
}

impl WorkerServer {
    /// Loads the configured snapshot (fully verified), spawns the engine pool, and
    /// binds the listen address.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Protocol`] when the snapshot cannot be served (unreadable,
    /// corrupt, empty, provenance-less, or a `--shard` index outside the placement)
    /// and [`NetError::Io`] when the bind fails.
    pub fn bind(config: &ServeConfig) -> Result<Self, NetError> {
        let store = Store::load(
            &config.snapshot_path,
            config.shard_count,
            config.shard_index,
            config.mmap,
        )?;
        let listener = NetListener::bind(&config.listen)?;
        let metrics = Arc::new(Registry::new());
        Ok(WorkerServer {
            listener,
            state: Arc::new(ServerState {
                pool: WorkerPool::with_metrics(
                    EngineConfig::with_workers(config.engine_workers),
                    Arc::clone(&metrics),
                ),
                store: RwLock::new(Arc::new(store)),
                shard_count: config.shard_count,
                pinned_shard: config.shard_index,
                mmap: config.mmap,
                queue_bound: if config.queue_bound == 0 {
                    DEFAULT_QUEUE_BOUND
                } else {
                    config.queue_bound
                },
                stop: AtomicBool::new(false),
                connections: AtomicU64::new(0),
                metrics,
            }),
        })
    }

    /// The daemon's telemetry registry — engine pool counters plus the wire-side
    /// frame/byte/service-time metrics. A `StatsRequest` frame (or `sfo stats` on the
    /// CLI) fetches its snapshot remotely.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.state.metrics
    }

    /// The bound address, dialable by [`crate::WorkerClient::connect`] — how callers
    /// learn the real port after binding `host:0`.
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// The `Hello` this server currently announces.
    pub fn hello(&self) -> Hello {
        let store = self.state.store.read().expect("store lock").clone();
        store.hello(self.state.pool.workers() as u32)
    }

    /// Serves connections until [`WorkerServerHandle::stop`] is called (or forever, for
    /// a daemon run from the CLI). Each connection is handled on its own thread; accept
    /// errors on a live listener are logged to stderr and survived.
    pub fn run(&self) {
        loop {
            match self.listener.accept_peer() {
                Ok((stream, peer)) => {
                    if self.state.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    self.state.metrics.counter("net.connections").inc();
                    let conn = self.state.connections.fetch_add(1, Ordering::SeqCst) + 1;
                    let state = Arc::clone(&self.state);
                    // Handlers are detached: they exit when their client hangs up, and
                    // an OS process exit reaps any that remain.
                    let _ = std::thread::Builder::new()
                        .name("sfo-net-conn".to_string())
                        .spawn(move || handle_connection(stream, &state, conn, &peer));
                }
                Err(_) if self.state.stop.load(Ordering::SeqCst) => return,
                Err(e) => eprintln!("sfo serve: accept failed: {e}"),
            }
        }
    }

    /// Moves the server onto a background thread and returns a stop handle — the shape
    /// the in-process tests and the CI smoke use.
    pub fn spawn(self) -> WorkerServerHandle {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let join = std::thread::Builder::new()
            .name("sfo-net-accept".to_string())
            .spawn(move || self.run())
            .expect("spawning accept thread");
        WorkerServerHandle { addr, state, join }
    }
}

/// Stop handle of a [`WorkerServer::spawn`]ed daemon.
pub struct WorkerServerHandle {
    addr: String,
    state: Arc<ServerState>,
    join: std::thread::JoinHandle<()>,
}

impl WorkerServerHandle {
    /// The served address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops accepting and joins the accept thread. Connections already established
    /// drain on their own threads when their clients hang up.
    pub fn stop(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with one throwaway connection. If the dial fails
        // (e.g. a unix socket file someone unlinked or rebound), the accept loop may
        // never observe the flag — leak the thread rather than deadlock the caller;
        // it holds no work and dies with the process.
        if NetStream::connect(&self.addr).is_ok() {
            let _ = self.join.join();
        }
    }
}

/// Whether a receive error means the stream can no longer be trusted to be
/// frame-aligned. Errors raised *after* a whole checksum-verified frame was consumed
/// (an unknown frame type, a payload that decodes wrong) leave the stream aligned on
/// the next frame boundary — the connection answers a typed error and keeps serving.
/// Everything raised mid-frame (bad magic, a truncated payload or trailer, a failed
/// checksum, an IO error) means desync: answer once, then drop.
fn frame_desynced(error: &NetError) -> bool {
    match error {
        NetError::UnknownFrameType { .. } | NetError::Corrupt { .. } => false,
        // Payload-section truncation is a full frame whose *contents* ran short;
        // only the frame codec's own sections mean the stream itself broke.
        NetError::Truncated { section } => matches!(*section, "payload" | "trailer"),
        _ => true,
    }
}

/// What the per-connection reader hands to the executor, in arrival order.
enum ConnEvent {
    /// A decoded, admitted request to serve.
    Request(Message),
    /// A `SubmitBatch` that arrived while the pending-batch queue was full; the
    /// executor answers [`Message::Overloaded`] in sequence, executing nothing.
    Shed {
        /// The queue depth the reader observed at arrival.
        queued: u32,
    },
    /// A receive error; the executor answers a typed `Error` and, when the stream
    /// itself desynced, drops the connection.
    DecodeError {
        /// The error text to answer with.
        message: String,
        /// Whether the stream can no longer be trusted to be frame-aligned.
        desynced: bool,
    },
    /// The peer hung up cleanly between frames.
    Hangup,
}

/// The reader → executor hand-off of one connection.
type ConnQueue = (Mutex<VecDeque<ConnEvent>>, Condvar);

/// The wire names of the message kinds, as they appear in per-kind metric names.
const KINDS: [&str; 12] = [
    "Hello",
    "LoadSnapshot",
    "LoadShard",
    "SubmitBatch",
    "BatchResult",
    "ForwardFrontier",
    "FrontierResult",
    "Error",
    "Overlay",
    "StatsRequest",
    "StatsReport",
    "Overloaded",
];

/// Index of `message`'s kind in [`KINDS`].
fn kind(message: &Message) -> usize {
    match message {
        Message::Hello(_) => 0,
        Message::LoadSnapshot { .. } => 1,
        Message::LoadShard(_) => 2,
        Message::SubmitBatch(_) => 3,
        Message::BatchResult { .. } => 4,
        Message::ForwardFrontier { .. } => 5,
        Message::FrontierResult(_) => 6,
        Message::Error { .. } => 7,
        Message::Overlay(_) => 8,
        Message::StatsRequest => 9,
        Message::StatsReport(_) => 10,
        Message::Overloaded { .. } => 11,
    }
}

/// One connection thread's handles on a family of per-kind metrics
/// (`<prefix><Kind>`), resolved from the registry the first time the thread meets
/// the kind and recorded through from then on — no registry lock, no name
/// allocation per frame. Resolution is lazy, not up front, so the registry (and every
/// `StatsReport`) names exactly the metrics the traffic produced.
struct PerKind<T> {
    prefix: &'static str,
    handles: [Option<Arc<T>>; KINDS.len()],
}

impl<T> PerKind<T> {
    fn new(prefix: &'static str) -> Self {
        PerKind {
            prefix,
            handles: Default::default(),
        }
    }

    fn get(&mut self, kind: usize, resolve: impl FnOnce(&str) -> Arc<T>) -> &T {
        self.handles[kind]
            .get_or_insert_with(|| resolve(&format!("{}{}", self.prefix, KINDS[kind])))
    }
}

/// How long the executor may hold a finished reply in its outbox while it serves the
/// backlog behind it, measured from the moment service began on the request the
/// oldest held reply answers. Cheap requests under pipelining share a `write`: about
/// twenty fit, since a one-job TTL-2 flood on a 10^6-node snapshot is served in ≈ 5 µs
/// (mean of `net.request_micros` at 2000 req/s on a 2-vCPU box). A reply never waits
/// behind an expensive one — a request that alone takes this long is flushed the
/// moment it is answered. Not a timer: the clock is read when a reply is queued, and
/// an empty backlog flushes regardless.
const REPLY_HOLD: Duration = Duration::from_micros(100);

/// The executor's reply path: the connection's outbox and the rule for writing it.
///
/// Replies are encoded into the outbox in arrival order and leave together: when the
/// executor finds its backlog empty (before it sleeps — never across a blocking
/// wait), when [`REPLY_HOLD`] has passed, when the outbox holds 64 KiB
/// ([`IO_BUFFER_LEN`]), and before the connection is dropped.
struct Outbox<'a> {
    writer: FrameWriter<NetStream>,
    /// When service began on the request whose reply is the oldest one still queued.
    held_since: Option<Instant>,
    metrics: &'a Registry,
    frames_out: PerKind<Counter>,
    bytes_out: Arc<Counter>,
}

impl Outbox<'_> {
    /// Queues `reply`, the answer to an event whose handling ran from `began` to
    /// `now`, and writes the outbox if by `now` its oldest reply has been held for
    /// [`REPLY_HOLD`] or it has grown to [`IO_BUFFER_LEN`].
    fn answer(&mut self, reply: &Message, began: Instant, now: Instant) -> Result<(), NetError> {
        let bytes = self.writer.queue(reply);
        let metrics = self.metrics;
        self.frames_out
            .get(kind(reply), |name| metrics.counter(name))
            .inc();
        self.bytes_out.add(bytes as u64);
        let held_since = *self.held_since.get_or_insert(began);
        if now.duration_since(held_since) >= REPLY_HOLD || self.writer.pending() >= IO_BUFFER_LEN {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.held_since = None;
        self.writer.flush()
    }
}

/// The reader half of one conversation: decodes frames as fast as they arrive, decides
/// admission per frame at arrival, and hands the executor every frame one `read`
/// delivered as one run — one lock, one wake-up.
struct ConnReader {
    frames: FrameReader<NetStream>,
    queue: Arc<ConnQueue>,
    pending: Arc<AtomicUsize>,
    queue_bound: usize,
    conn: u64,
    peer: String,
    metrics: Arc<Registry>,
    // Handles into `metrics`, each resolved on first use (see [`PerKind`]).
    frames_in: PerKind<Counter>,
    bytes_in: Option<Arc<Counter>>,
    queue_depth: Option<Arc<Histogram>>,
    shed_total: Option<Arc<Counter>>,
}

impl ConnReader {
    fn run(mut self) {
        let mut run = Vec::new();
        loop {
            // Block for one frame, then take what the same fill delivered behind it.
            let mut next = Some(self.frames.next_frame());
            let mut ended = false;
            while let Some(frame) = next {
                let event = match frame.and_then(|(message_type, payload)| {
                    let message = Message::decode(message_type, payload)?;
                    Ok((message, frame_len(payload.len())))
                }) {
                    Ok((message, bytes)) => {
                        let metrics = &self.metrics;
                        self.frames_in
                            .get(kind(&message), |name| metrics.counter(name))
                            .inc();
                        self.bytes_in
                            .get_or_insert_with(|| metrics.counter("net.bytes_in"))
                            .add(bytes as u64);
                        self.admit(message)
                    }
                    // A clean hang-up between frames: the normal end.
                    Err(NetError::Truncated { section: "header" }) => ConnEvent::Hangup,
                    Err(e) => self.decode_error(&e),
                };
                // After a hang-up or a desync nothing readable follows.
                ended = matches!(
                    event,
                    ConnEvent::Hangup | ConnEvent::DecodeError { desynced: true, .. }
                );
                run.push(event);
                next = if ended {
                    None
                } else {
                    self.frames.buffered_frame()
                };
            }
            let (events, signal) = &*self.queue;
            events
                .lock()
                .expect("conn queue lock")
                .extend(run.drain(..));
            signal.notify_one();
            if ended {
                return;
            }
        }
    }

    /// Admission happens at arrival, not at execution, so a saturated executor sheds
    /// instead of buffering without bound.
    fn admit(&mut self, message: Message) -> ConnEvent {
        if matches!(message, Message::SubmitBatch(_)) {
            let metrics = &self.metrics;
            let depth = self.pending.load(Ordering::SeqCst);
            if depth >= self.queue_bound {
                self.shed_total
                    .get_or_insert_with(|| metrics.counter("net.shed_total"))
                    .inc();
                return ConnEvent::Shed {
                    queued: depth as u32,
                };
            }
            self.pending.fetch_add(1, Ordering::SeqCst);
            self.queue_depth
                .get_or_insert_with(|| metrics.histogram("net.queue_depth"))
                .record(depth as u64 + 1);
        }
        ConnEvent::Request(message)
    }

    /// Attributed to this connection, not to whatever peer string a thread last
    /// logged — loudly, so an operator can trace a misbehaving client.
    fn decode_error(&self, error: &NetError) -> ConnEvent {
        let (conn, peer) = (self.conn, &self.peer);
        self.metrics.counter("net.decode_errors").inc();
        self.metrics
            .counter(&format!("net.decode_errors.conn.{conn}"))
            .inc();
        let desynced = frame_desynced(error);
        eprintln!(
            "sfo serve: conn#{conn} ({peer}): request does not decode{}: {error}",
            if desynced {
                ", dropping connection"
            } else {
                ""
            }
        );
        ConnEvent::DecodeError {
            message: error.to_string(),
            desynced,
        }
    }
}

/// The next event of the conversation. Whatever the executor has answered so far
/// leaves before it sleeps: an empty backlog is what flushes an idle connection's
/// reply immediately, and nothing is ever held across a blocking wait.
fn next_event(queue: &ConnQueue, outbox: &mut Outbox<'_>) -> Result<ConnEvent, NetError> {
    let (events, signal) = queue;
    if let Some(event) = events.lock().expect("conn queue lock").pop_front() {
        return Ok(event);
    }
    outbox.flush()?;
    let mut events = events.lock().expect("conn queue lock");
    loop {
        if let Some(event) = events.pop_front() {
            return Ok(event);
        }
        events = signal.wait(events).expect("conn queue lock");
    }
}

/// One client conversation: `Hello`, then request/reply until the peer hangs up.
///
/// The conversation runs as a thread pair over one duplicated socket: the *reader*
/// ([`ConnReader`]) decodes frames as fast as they arrive and admits batches against
/// the pending-batch bound (shedding past it), while the *executor* — this thread —
/// serves events strictly in arrival order and answers through one [`Outbox`], so a
/// pipelining client reads replies in exactly the order it sent requests.
fn handle_connection(stream: NetStream, state: &ServerState, conn: u64, peer: &str) {
    // The store is pinned per connection: every batch on this connection runs against
    // exactly the snapshot its Hello announced, even if another client swaps the
    // server's default with LoadSnapshot in between. The identity handshake is a
    // promise about *this* conversation, and the `Arc` keeps a swapped-out store
    // alive until its last pinned connection drains.
    let metrics = &state.metrics;
    let mut pinned = state.store.read().expect("store lock").clone();
    // Per-connection traversal arena for placed frontiers, reused across requests.
    let mut scratch = SearchScratch::new();
    // Declared before the outbox, so it drops after the last flush.
    let (_hang_up, (frames, writer)) = match stream.try_clone().and_then(|handle| {
        let halves = stream.split()?;
        Ok((HangUp(handle), halves))
    }) {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("sfo serve: conn#{conn} ({peer}): cannot split the stream: {e}");
            return;
        }
    };
    let mut outbox = Outbox {
        writer,
        held_since: None,
        metrics,
        frames_out: PerKind::new("net.frames_out."),
        bytes_out: metrics.counter("net.bytes_out"),
    };
    let announce = Message::Hello(pinned.hello(state.pool.workers() as u32));
    let now = Instant::now();
    if outbox
        .answer(&announce, now, now)
        .and_then(|()| outbox.flush())
        .is_err()
    {
        return;
    }
    let queue: Arc<ConnQueue> = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
    let queue_bound = state.queue_bound;
    // Admitted-but-not-completed batches: the reader increments at admission, the
    // executor decrements after the reply is built, so the count *is* the pending
    // depth a new arrival competes with.
    let pending = Arc::new(AtomicUsize::new(0));
    let reader = ConnReader {
        frames,
        queue: Arc::clone(&queue),
        pending: Arc::clone(&pending),
        queue_bound,
        conn,
        peer: peer.to_string(),
        metrics: Arc::clone(metrics),
        frames_in: PerKind::new("net.frames_in."),
        bytes_in: None,
        queue_depth: None,
        shed_total: None,
    };
    // The reader is deliberately not joined on exit: after an executor-side write
    // failure it unblocks on its own the moment the peer hangs up or the socket dies,
    // and an OS process exit reaps it regardless.
    if std::thread::Builder::new()
        .name("sfo-net-read".to_string())
        .spawn(move || reader.run())
        .is_err()
    {
        eprintln!("sfo serve: conn#{conn} ({peer}): cannot spawn the reader thread");
        return;
    }
    let mut request_micros = None;
    let mut request_micros_by_kind = PerKind::new("net.request_micros.");
    // The executor. A failed write means the peer is gone: drop the connection.
    loop {
        let Ok(event) = next_event(&queue, &mut outbox) else {
            return;
        };
        #[cfg(test)]
        tests::maybe_panic(peer);
        let began = Instant::now();
        let request = match event {
            ConnEvent::Request(request) => request,
            ConnEvent::Hangup => {
                let _ = outbox.flush();
                return;
            }
            ConnEvent::DecodeError { message, desynced } => {
                // A desync is answered once, behind every earlier reply, then dropped.
                let answered = outbox.answer(&Message::Error { message }, began, began);
                if answered.is_err() || desynced {
                    let _ = outbox.flush();
                    return;
                }
                continue;
            }
            ConnEvent::Shed { queued } => {
                // Not a served request: no engine time was spent and no service
                // time is recorded — only the reply frame itself.
                let reply = Message::Overloaded {
                    queued,
                    limit: queue_bound as u32,
                };
                if outbox.answer(&reply, began, began).is_err() {
                    return;
                }
                continue;
            }
        };
        let request_kind = kind(&request);
        let was_batch = matches!(request, Message::SubmitBatch(_));
        let reply = match request {
            Message::LoadSnapshot { path } => {
                match Store::load(&path, state.shard_count, state.pinned_shard, state.mmap) {
                    Ok(store) => {
                        let store = Arc::new(store);
                        let hello = store.hello(state.pool.workers() as u32);
                        // New connections see the new store; this connection repins.
                        *state.store.write().expect("store lock") = Arc::clone(&store);
                        pinned = store;
                        Message::Hello(hello)
                    }
                    Err(e) => Message::Error {
                        message: e.to_string(),
                    },
                }
            }
            Message::LoadShard(payload) => match install_shard(state, payload) {
                Ok(store) => {
                    let hello = store.hello(state.pool.workers() as u32);
                    pinned = store;
                    Message::Hello(hello)
                }
                Err(e) => Message::Error {
                    message: e.to_string(),
                },
            },
            Message::ForwardFrontier {
                identity,
                state: frontier,
            } => match serve_frontier(state, &pinned, identity, frontier, &mut scratch) {
                Ok(PlacedStep::Done(outcome)) => {
                    Message::FrontierResult(FrontierResult::Done(outcome))
                }
                Ok(PlacedStep::Forward(next)) => {
                    Message::FrontierResult(FrontierResult::Continue(next))
                }
                Err(e) => Message::Error {
                    message: e.to_string(),
                },
            },
            Message::SubmitBatch(request) => match execute_request(state, &pinned, &request) {
                Ok(outcomes) => Message::BatchResult { outcomes },
                Err(e) => Message::Error {
                    message: e.to_string(),
                },
            },
            // The snapshot is taken before this request's own service time is
            // recorded, so the reported histograms describe completed requests only.
            Message::StatsRequest => Message::StatsReport(metrics.snapshot()),
            other => Message::Error {
                message: format!(
                    "unexpected message {:?} on a worker connection",
                    KINDS[kind(&other)]
                ),
            },
        };
        if was_batch {
            pending.fetch_sub(1, Ordering::SeqCst);
        }
        let served = Instant::now();
        let micros = u64::try_from(served.duration_since(began).as_micros()).unwrap_or(u64::MAX);
        request_micros
            .get_or_insert_with(|| metrics.histogram("net.request_micros"))
            .record(micros);
        request_micros_by_kind
            .get(request_kind, |name| metrics.histogram(name))
            .record(micros);
        if outbox.answer(&reply, began, served).is_err() {
            return;
        }
    }
}

/// A connection's socket, shut down both ways when the executor thread leaves
/// [`handle_connection`] by any path, unwinding included: the reader thread's blocked
/// read returns and the client sees EOF instead of waiting on a socket nobody serves.
struct HangUp(NetStream);

impl Drop for HangUp {
    fn drop(&mut self) {
        let _ = self.0.shutdown();
    }
}

/// Installs a wire-shipped shard as the served store (and repins new connections to
/// it). A daemon pinned by `--shard` only accepts its own coordinates back — the
/// handshake then merely confirms the shard it already cut locally.
fn install_shard(state: &ServerState, payload: ShardPayload) -> Result<Arc<Store>, NetError> {
    if let Some(pin) = state.pinned_shard {
        let held = state.store.read().expect("store lock").clone();
        if payload.shard_index as usize != pin || payload.identity != held.identity {
            return Err(NetError::protocol(format!(
                "this worker is pinned to shard {pin} of snapshot {:#018x}; refusing \
                 shard {} of snapshot {:#018x}",
                held.identity, payload.shard_index, payload.identity
            )));
        }
    }
    let store = Arc::new(Store::from_payload(payload));
    *state.store.write().expect("store lock") = Arc::clone(&store);
    Ok(store)
}

/// Resumes one placed frontier on this store's rows.
///
/// Admission is checked before any traversal: the frontier must name this store's
/// snapshot identity, decode-validated fields must fit the snapshot's id space, and
/// its cursor — the row it needs next — must be a row this store owns. The advance
/// itself runs under `catch_unwind`: a frontier must never take the daemon down.
fn serve_frontier(
    state: &ServerState,
    store: &Arc<Store>,
    identity: u64,
    frontier: PlacedState,
    scratch: &mut SearchScratch,
) -> Result<PlacedStep, NetError> {
    if identity != store.identity {
        return Err(NetError::protocol(format!(
            "frontier names snapshot {identity:#018x}, but this worker serves {:#018x}",
            store.identity
        )));
    }
    let view = store.shard_view();
    crate::placed::validate_state(&frontier, view.node_count())?;
    if let Some(cursor) = frontier.cursor() {
        if !view.owns(cursor as usize) {
            let place = match &store.topology {
                Topology::Whole(_) => "the whole snapshot".to_string(),
                Topology::Shard {
                    shard_index,
                    shard_count,
                    ..
                } => format!("shard {shard_index} of {shard_count}"),
            };
            return Err(NetError::protocol(format!(
                "frontier cursor {cursor} is not owned by {place}; route it to shard {}",
                crate::placed::shard_of(
                    cursor as usize,
                    view.node_count(),
                    match &store.topology {
                        Topology::Whole(_) => 1,
                        Topology::Shard { shard_count, .. } => *shard_count as usize,
                    }
                )
            )));
        }
    }
    let mut stats = StepStats::default();
    let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        placed_advance(view, frontier, scratch, &mut stats)
    }))
    .map_err(|_| NetError::protocol("frontier advance panicked"))?;
    let metrics = &state.metrics;
    metrics.counter("placed.frontiers_served").inc();
    metrics
        .counter("placed.frontier_entries_scanned")
        .add(stats.entries_scanned);
    metrics
        .counter("placed.frontier_entries_cross")
        .add(stats.entries_cross);
    if matches!(step, PlacedStep::Forward(_)) {
        metrics.counter("placed.frontiers_forwarded").inc();
    }
    Ok(step)
}

/// Validates and executes one batch request against the connection's pinned store.
///
/// Every precondition the engine asserts is checked here first and returned as a typed
/// error instead — a malformed request must never panic the daemon — and the execution
/// itself runs under `catch_unwind` as a second line of defense.
fn execute_request(
    state: &ServerState,
    store: &Arc<Store>,
    request: &BatchRequest,
) -> Result<Vec<sfo_search::SearchOutcome>, NetError> {
    let Topology::Whole(graph) = &store.topology else {
        let (index, count) = match &store.topology {
            Topology::Shard {
                shard_index,
                shard_count,
                ..
            } => (*shard_index, *shard_count),
            Topology::Whole(_) => unreachable!(),
        };
        return Err(NetError::protocol(format!(
            "this worker serves shard {index} of {count}: it accepts placed frontiers, \
             not whole-snapshot batches"
        )));
    };
    let m = store
        .provenance
        .as_ref()
        .map(|p| usize::try_from(p.m).unwrap_or(usize::MAX))
        .ok_or_else(|| NetError::protocol("the served snapshot carries no provenance"))?;
    // Refused before anything is allocated: a reply the frame cannot carry would
    // otherwise run every job and then fail to encode.
    let jobs = match request {
        BatchRequest::Queries { batch, .. } => batch.len() as u64,
        BatchRequest::SweepRange { start, end, .. } => end.saturating_sub(*start),
    };
    if jobs > MAX_BATCH_OUTCOMES as u64 {
        return Err(NetError::protocol(format!(
            "a batch of {jobs} jobs exceeds the {MAX_BATCH_OUTCOMES} outcomes one reply \
             frame can carry"
        )));
    }
    let run = || -> Result<Vec<sfo_search::SearchOutcome>, NetError> {
        match request {
            BatchRequest::Queries {
                seed,
                index_offset,
                algorithms,
                batch,
            } => {
                let index_offset = usize::try_from(*index_offset)
                    .map_err(|_| NetError::protocol("index offset exceeds usize"))?;
                let mut table: AlgorithmTable<ShardedCsr> = Vec::with_capacity(algorithms.len());
                for spec in algorithms {
                    match spec.build_for::<ShardedCsr>(m) {
                        Ok(BuiltSearch::Algorithm(algorithm)) => table.push(algorithm),
                        Ok(BuiltSearch::RwNormalizedToNf { .. }) => {
                            return Err(NetError::protocol(
                                "rw_normalized_to_nf is not a table algorithm; \
                                 use a sweep-range request",
                            ))
                        }
                        Err(e) => {
                            return Err(NetError::protocol(format!(
                                "algorithm does not build: {e}"
                            )))
                        }
                    }
                }
                for (i, job) in batch.jobs().iter().enumerate() {
                    if job.algorithm >= table.len() {
                        return Err(NetError::protocol(format!(
                            "job {i}: algorithm index {} out of range for a table of {}",
                            job.algorithm,
                            table.len()
                        )));
                    }
                    if !sfo_graph::GraphView::contains_node(graph.as_ref(), job.source) {
                        return Err(NetError::protocol(format!(
                            "job {i}: source {} out of bounds for a {}-node snapshot",
                            job.source,
                            graph.node_count()
                        )));
                    }
                }
                let table = Arc::new(table);
                Ok(run_queries_offset(
                    &state.pool,
                    graph,
                    &table,
                    batch,
                    *seed,
                    index_offset,
                ))
            }
            BatchRequest::SweepRange {
                seed,
                start,
                end,
                searches_per_point,
                ttls,
                search,
            } => {
                let start = usize::try_from(*start)
                    .map_err(|_| NetError::protocol("range start exceeds usize"))?;
                let end = usize::try_from(*end)
                    .map_err(|_| NetError::protocol("range end exceeds usize"))?;
                let searches = usize::try_from(*searches_per_point)
                    .map_err(|_| NetError::protocol("searches_per_point exceeds usize"))?;
                let total = ttls
                    .len()
                    .checked_mul(searches)
                    .ok_or_else(|| NetError::protocol("sweep grid size overflows usize"))?;
                if start > end || end > total {
                    return Err(NetError::protocol(format!(
                        "job range {start}..{end} out of bounds for a grid of {total} jobs"
                    )));
                }
                match search.build_for::<ShardedCsr>(m) {
                    Ok(BuiltSearch::Algorithm(algorithm)) => Ok(batched_ttl_sweep_range(
                        &state.pool,
                        graph,
                        algorithm,
                        ttls,
                        searches,
                        *seed,
                        start,
                        end,
                    )),
                    Ok(BuiltSearch::RwNormalizedToNf { k_min }) => {
                        Ok(batched_rw_normalized_to_nf_range(
                            &state.pool,
                            graph,
                            k_min,
                            ttls,
                            searches,
                            *seed,
                            start,
                            end,
                        ))
                    }
                    Err(e) => Err(NetError::protocol(format!("search does not build: {e}"))),
                }
            }
        }
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(NetError::protocol(format!(
                "batch execution panicked: {message}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::message::{recv_message, send_message, TYPE_LOAD_SHARD};
    use sfo_engine::{placed_start, PlacedAlgorithm};
    use sfo_graph::generators::ring_graph;
    use sfo_graph::NodeId;
    use std::io::Write;

    /// Writes a 40-node ring snapshot (with provenance) into a fresh temp dir and
    /// returns its path.
    fn snapshot_fixture(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sfo-serve-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.sfos");
        let file = SnapshotFile {
            csr: ring_graph(40, 2).unwrap().freeze(),
            shards: None,
            provenance: Some(Provenance {
                label: format!("serve-test-{tag}"),
                m: 2,
                cutoff: None,
                seed: 7,
                realization: 0,
                sweep_seed: 11,
                origin: None,
            }),
        };
        file.save(&path).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn serve(
        path: &str,
        shard_index: Option<usize>,
        shard_count: usize,
    ) -> (WorkerServerHandle, Arc<Registry>) {
        let server = WorkerServer::bind(&ServeConfig {
            snapshot_path: path.to_string(),
            listen: "127.0.0.1:0".to_string(),
            engine_workers: 1,
            shard_count,
            shard_index,
            mmap: false,
            queue_bound: 0,
        })
        .unwrap();
        let metrics = Arc::clone(server.metrics());
        (server.spawn(), metrics)
    }

    fn connect(addr: &str) -> (NetStream, Hello) {
        let mut stream = NetStream::connect(addr).unwrap();
        let Message::Hello(hello) = recv_message(&mut stream).unwrap() else {
            panic!("expected a Hello on connect");
        };
        (stream, hello)
    }

    /// The client address whose next request panics its connection's executor thread,
    /// outside `catch_unwind`. Each test arms it with its own client's address.
    static PANIC_PEER: Mutex<Option<String>> = Mutex::new(None);

    pub(super) fn maybe_panic(peer: &str) {
        let mut armed = PANIC_PEER.lock().unwrap_or_else(|e| e.into_inner());
        if armed.as_deref() == Some(peer) {
            *armed = None;
            drop(armed);
            panic!("injected executor panic for {peer}");
        }
    }

    #[test]
    fn an_executor_panic_ends_in_eof_at_the_client() {
        let path = snapshot_fixture("panic");
        let (handle, _) = serve(&path, None, 1);
        let (mut stream, _) = connect(handle.addr());
        let NetStream::Tcp(tcp) = &stream else {
            panic!("a TCP connection");
        };
        tcp.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        *PANIC_PEER.lock().unwrap() = Some(tcp.local_addr().unwrap().to_string());
        send_message(&mut stream, &Message::StatsRequest).unwrap();
        let started = Instant::now();
        let mut byte = [0u8; 1];
        let read = std::io::Read::read(&mut stream, &mut byte);
        assert!(
            matches!(read, Ok(0)),
            "expected EOF, got {read:?} after {:?}",
            started.elapsed()
        );
        handle.stop();
    }

    #[test]
    fn decode_errors_attribute_to_their_own_connection_and_payload_errors_are_survivable() {
        let path = snapshot_fixture("decode");
        let (handle, metrics) = serve(&path, None, 1);
        // Connection 1: a checksummed frame of an unknown type. The stream stays
        // aligned, so the connection must answer an Error and keep serving.
        let (mut first, _) = connect(handle.addr());
        first.write_all(&encode_frame(999, b"")).unwrap();
        first.flush().unwrap();
        assert!(matches!(
            recv_message(&mut first).unwrap(),
            Message::Error { .. }
        ));
        send_message(&mut first, &Message::StatsRequest).unwrap();
        assert!(matches!(
            recv_message(&mut first).unwrap(),
            Message::StatsReport(_)
        ));
        // Connection 2: a well-framed LoadShard whose payload runs short. Also a
        // full frame — also survivable, and attributed to connection 2, not 1.
        let (mut second, _) = connect(handle.addr());
        second
            .write_all(&encode_frame(TYPE_LOAD_SHARD, &[0u8; 4]))
            .unwrap();
        second.flush().unwrap();
        assert!(matches!(
            recv_message(&mut second).unwrap(),
            Message::Error { .. }
        ));
        send_message(&mut second, &Message::StatsRequest).unwrap();
        assert!(matches!(
            recv_message(&mut second).unwrap(),
            Message::StatsReport(_)
        ));
        let snapshot = metrics.snapshot();
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("net.decode_errors"), 2);
        // The regression: each error lands on its own connection's counter instead
        // of both piling onto whichever peer label the handler saw first.
        assert_eq!(counter("net.decode_errors.conn.1"), 1);
        assert_eq!(counter("net.decode_errors.conn.2"), 1);
        // A desyncing error (bad magic) still drops the connection.
        let (mut third, _) = connect(handle.addr());
        third.write_all(b"HTTP/1.1 GET /").unwrap();
        third.flush().unwrap();
        assert!(matches!(
            recv_message(&mut third).unwrap(),
            Message::Error { .. }
        ));
        assert!(matches!(
            recv_message(&mut third),
            Err(NetError::Truncated { section: "header" }) | Err(NetError::Io { .. })
        ));
        handle.stop();
    }

    #[test]
    fn a_pinned_shard_server_admits_only_its_own_rows() {
        let path = snapshot_fixture("shard");
        // 40 nodes, 3 shards: shard 1 owns 14..27.
        let (handle, metrics) = serve(&path, Some(1), 3);
        let (mut stream, hello) = connect(handle.addr());
        assert_eq!(hello.shard_index, 1);
        assert_eq!(hello.shard_count, 3);
        assert_eq!(hello.node_count, 40);

        // Whole batches are refused with a typed error naming the shard.
        send_message(
            &mut stream,
            &Message::SubmitBatch(BatchRequest::SweepRange {
                seed: 1,
                start: 0,
                end: 1,
                searches_per_point: 1,
                ttls: vec![1],
                search: sfo_scenario::SearchSpec::Flooding,
            }),
        )
        .unwrap();
        let Message::Error { message } = recv_message(&mut stream).unwrap() else {
            panic!("a shard host must refuse SubmitBatch");
        };
        assert!(message.contains("shard 1 of 3"), "got: {message}");

        // A frontier whose cursor it owns advances; a deep ring flood from node 20
        // must eventually leave shard 1's rows.
        let frontier = placed_start(PlacedAlgorithm::Flooding, NodeId::new(20), 12, [1, 2, 3, 4]);
        send_message(
            &mut stream,
            &Message::ForwardFrontier {
                identity: hello.identity,
                state: frontier.clone(),
            },
        )
        .unwrap();
        let Message::FrontierResult(FrontierResult::Continue(next)) =
            recv_message(&mut stream).unwrap()
        else {
            panic!("a deep flood from inside shard 1 must forward");
        };
        let cursor = next.cursor().unwrap() as usize;
        assert!(
            !(14..27).contains(&cursor),
            "forwarded cursor {cursor} is owned"
        );

        // That same forwarded frontier is refused here — its cursor lives elsewhere.
        send_message(
            &mut stream,
            &Message::ForwardFrontier {
                identity: hello.identity,
                state: next,
            },
        )
        .unwrap();
        let Message::Error { message } = recv_message(&mut stream).unwrap() else {
            panic!("a foreign cursor must be refused");
        };
        assert!(message.contains("not owned"), "got: {message}");

        // Wrong snapshot identity: refused before any traversal.
        send_message(
            &mut stream,
            &Message::ForwardFrontier {
                identity: hello.identity ^ 1,
                state: frontier,
            },
        )
        .unwrap();
        assert!(matches!(
            recv_message(&mut stream).unwrap(),
            Message::Error { .. }
        ));

        let snapshot = metrics.snapshot();
        let served = snapshot
            .counters
            .iter()
            .find(|(n, _)| n == "placed.frontiers_served")
            .map(|(_, v)| *v);
        assert_eq!(served, Some(1));
        handle.stop();
    }

    #[test]
    fn load_shard_installs_a_slice_and_a_whole_store_finishes_any_frontier() {
        let path = snapshot_fixture("loadshard");
        let (handle, _metrics) = serve(&path, None, 1);
        let (mut stream, hello) = connect(handle.addr());
        assert_eq!(hello.shard_index, WHOLE_SNAPSHOT);

        // A whole-snapshot store owns every row: any frontier completes in one hop.
        let frontier = placed_start(PlacedAlgorithm::Flooding, NodeId::new(5), 3, [9, 8, 7, 6]);
        send_message(
            &mut stream,
            &Message::ForwardFrontier {
                identity: hello.identity,
                state: frontier,
            },
        )
        .unwrap();
        let Message::FrontierResult(FrontierResult::Done(outcome)) =
            recv_message(&mut stream).unwrap()
        else {
            panic!("a whole store must finish the frontier");
        };
        assert!(outcome.messages > 0);

        // Ship shard 2 of 4 over the wire; the worker re-announces as that shard.
        let csr = ring_graph(40, 2).unwrap().freeze();
        let payload = crate::placed::shard_payload(&csr, hello.identity, 4, 2);
        send_message(&mut stream, &Message::LoadShard(payload)).unwrap();
        let Message::Hello(reannounced) = recv_message(&mut stream).unwrap() else {
            panic!("LoadShard must answer with a fresh Hello");
        };
        assert_eq!(reannounced.shard_index, 2);
        assert_eq!(reannounced.shard_count, 4);
        assert_eq!(reannounced.identity, hello.identity);

        // The connection now serves shard rows only.
        let foreign = placed_start(PlacedAlgorithm::Flooding, NodeId::new(0), 2, [1, 1, 1, 1]);
        send_message(
            &mut stream,
            &Message::ForwardFrontier {
                identity: hello.identity,
                state: foreign,
            },
        )
        .unwrap();
        assert!(matches!(
            recv_message(&mut stream).unwrap(),
            Message::Error { .. }
        ));
        handle.stop();
    }

    #[test]
    fn a_full_pending_queue_sheds_batches_without_killing_the_connection() {
        let path = snapshot_fixture("shed");
        let server = WorkerServer::bind(&ServeConfig {
            snapshot_path: path,
            listen: "127.0.0.1:0".to_string(),
            engine_workers: 1,
            shard_count: 1,
            shard_index: None,
            mmap: false,
            queue_bound: 1,
        })
        .unwrap();
        let handle = server.spawn();
        let (mut stream, _) = connect(handle.addr());
        // Pipeline six sizeable batches without reading a single reply: with a bound
        // of one, batches that arrive while an admitted one executes are shed, in
        // order, and the connection keeps serving.
        let batch = Message::SubmitBatch(BatchRequest::SweepRange {
            seed: 5,
            start: 0,
            end: 20_000,
            searches_per_point: 20_000,
            ttls: vec![6],
            search: sfo_scenario::SearchSpec::Flooding,
        });
        for _ in 0..6 {
            send_message(&mut stream, &batch).unwrap();
        }
        let mut served = 0u64;
        let mut shed = 0u64;
        for _ in 0..6 {
            match recv_message(&mut stream).unwrap() {
                Message::BatchResult { outcomes } => {
                    assert_eq!(outcomes.len(), 20_000);
                    served += 1;
                }
                Message::Overloaded { queued, limit } => {
                    assert_eq!(limit, 1);
                    assert!(queued >= 1);
                    shed += 1;
                }
                other => panic!("expected BatchResult or Overloaded, got {other:?}"),
            }
        }
        // Every request is answered: served plus shed reconciles with sent.
        assert_eq!(served + shed, 6);
        assert!(served >= 1, "the first admitted batch must execute");
        assert!(
            shed >= 1,
            "six pipelined batches against a bound of 1 must shed"
        );
        // The connection stays usable after overload, and the counters agree.
        send_message(&mut stream, &Message::StatsRequest).unwrap();
        let Message::StatsReport(snapshot) = recv_message(&mut stream).unwrap() else {
            panic!("stats must still answer after sheds");
        };
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("net.shed_total"), shed);
        let depth = snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "net.queue_depth")
            .map(|(_, h)| h.clone())
            .expect("admissions must record queue depth");
        assert_eq!(depth.count, served);
        assert_eq!(depth.max, 1, "a bound of 1 admits at depth 1 only");
        handle.stop();
    }

    #[test]
    fn a_pinned_server_refuses_foreign_shard_shipments() {
        let path = snapshot_fixture("pin");
        let (handle, _metrics) = serve(&path, Some(0), 2);
        let (mut stream, hello) = connect(handle.addr());
        let csr = ring_graph(40, 2).unwrap().freeze();
        // Wrong shard index for the pin.
        send_message(
            &mut stream,
            &Message::LoadShard(crate::placed::shard_payload(&csr, hello.identity, 2, 1)),
        )
        .unwrap();
        let Message::Error { message } = recv_message(&mut stream).unwrap() else {
            panic!("a pinned server must refuse a foreign shard");
        };
        assert!(message.contains("pinned to shard 0"), "got: {message}");
        // Wrong identity for the pin.
        send_message(
            &mut stream,
            &Message::LoadShard(crate::placed::shard_payload(&csr, hello.identity ^ 7, 2, 0)),
        )
        .unwrap();
        assert!(matches!(
            recv_message(&mut stream).unwrap(),
            Message::Error { .. }
        ));
        // The right coordinates are accepted (the handshake confirms the pin).
        send_message(
            &mut stream,
            &Message::LoadShard(crate::placed::shard_payload(&csr, hello.identity, 2, 0)),
        )
        .unwrap();
        let Message::Hello(confirmed) = recv_message(&mut stream).unwrap() else {
            panic!("the pinned shard's own coordinates must be accepted");
        };
        assert_eq!(confirmed.shard_index, 0);
        handle.stop();
    }
}
