//! The message vocabulary carried by [`crate::frame`] envelopes.
//!
//! Five messages cover the whole worker conversation, and five more —
//! [`Message::Overlay`], one frame type per [`OverlayMessage`] variant — carry the
//! live membership protocol between `sfo overlay` daemons (byte layouts in
//! `docs/FORMATS.md`):
//!
//! * [`Message::Hello`] — sent by a worker on connect (and after a
//!   [`Message::LoadSnapshot`]): which snapshot it serves, by identity hash, plus its
//!   shape. The dispatcher compares the identity against the scenario's file and
//!   refuses a worker serving the wrong realization.
//! * [`Message::LoadSnapshot`] — asks the worker to load a different `.sfos` file
//!   (a path on the *worker's* filesystem).
//! * [`Message::SubmitBatch`] — a [`BatchRequest`]: either an explicit
//!   [`QueryBatch`] slice or a contiguous range of a TTL sweep grid, both tagged with
//!   the global index information that makes per-job RNG streams split-invariant.
//! * [`Message::BatchResult`] — one [`SearchOutcome`] per job, in job order.
//! * [`Message::Error`] — the worker's typed failure surface; the connection stays
//!   usable afterwards.
//! * [`Message::StatsRequest`] / [`Message::StatsReport`] — the observability pair: a
//!   client (the dispatcher, or `sfo stats` on the CLI) polls a live worker, which
//!   answers with the [`MetricsSnapshot`] of its `sfo-obs` registry — counters plus
//!   log-bucketed histograms, name-sorted, mergeable across workers.
//!
//! Search algorithms travel as their scenario-layer JSON encoding (a length-prefixed
//! string inside the binary payload): the `SearchSpec` codec is already the workspace's
//! one tested vocabulary for naming an algorithm, and reusing it keeps the wire format
//! and the spec files from drifting apart.

use crate::frame::{put_str, FrameReader, FrameWriter, PayloadReader, MAX_PAYLOAD_LEN};
use crate::NetError;
use sfo_engine::{PlacedAlgorithm, PlacedState, QueryBatch};
use sfo_graph::{CsrSlice, NodeId};
use sfo_obs::{HistogramSnapshot, MetricsSnapshot, BUCKET_COUNT};
use sfo_overlay::{OverlayMessage, PeerRef};
use sfo_scenario::json::{FromJson, JsonValue, ToJson};
use sfo_scenario::SearchSpec;
use sfo_search::SearchOutcome;
use std::io::{Read, Write};

/// Frame type tag of [`Message::Hello`].
pub const TYPE_HELLO: u16 = 1;
/// Frame type tag of [`Message::LoadSnapshot`].
pub const TYPE_LOAD_SNAPSHOT: u16 = 2;
/// Frame type tag of [`Message::SubmitBatch`].
pub const TYPE_SUBMIT_BATCH: u16 = 3;
/// Frame type tag of [`Message::BatchResult`].
pub const TYPE_BATCH_RESULT: u16 = 4;
/// Frame type tag of [`Message::Error`].
pub const TYPE_ERROR: u16 = 5;
/// Frame type tag of [`OverlayMessage::Join`].
pub(crate) const TYPE_JOIN: u16 = 6;
/// Frame type tag of [`OverlayMessage::ForwardJoin`].
pub(crate) const TYPE_FORWARD_JOIN: u16 = 7;
/// Frame type tag of [`OverlayMessage::Shuffle`].
pub const TYPE_SHUFFLE: u16 = 8;
/// Frame type tag of [`OverlayMessage::Probe`].
pub(crate) const TYPE_PROBE: u16 = 9;
/// Frame type tag of [`OverlayMessage::Leave`].
pub(crate) const TYPE_LEAVE: u16 = 10;
/// Frame type tag of [`Message::StatsRequest`].
pub(crate) const TYPE_STATS_REQUEST: u16 = 11;
/// Frame type tag of [`Message::StatsReport`].
pub(crate) const TYPE_STATS_REPORT: u16 = 12;
/// Frame type tag of [`Message::LoadShard`].
pub const TYPE_LOAD_SHARD: u16 = 13;
/// Frame type tag of [`Message::ForwardFrontier`].
pub(crate) const TYPE_FORWARD_FRONTIER: u16 = 14;
/// Frame type tag of [`Message::FrontierResult`].
pub(crate) const TYPE_FRONTIER_RESULT: u16 = 15;
/// Frame type tag of [`Message::Overloaded`].
pub(crate) const TYPE_OVERLOADED: u16 = 16;

/// [`Hello::shard_index`] value of a worker serving the whole snapshot rather than
/// one placed shard.
pub const WHOLE_SNAPSHOT: u32 = u32::MAX;

/// The most outcomes one [`Message::BatchResult`] frame can carry: its payload is a
/// 4-byte count and 16 bytes per outcome, within [`MAX_PAYLOAD_LEN`].
pub(crate) const MAX_BATCH_OUTCOMES: usize = (MAX_PAYLOAD_LEN as usize - 4) / 16;

/// What a worker announces about the snapshot it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Identity hash of the served snapshot file
    /// ([`sfo_graph::snapshot::read_identity`]).
    pub identity: u64,
    /// Nodes in the served topology.
    pub node_count: u64,
    /// Undirected edges in the served topology.
    pub edge_count: u64,
    /// Shards the worker's store is partitioned into.
    pub shard_count: u32,
    /// Worker threads in the serving engine pool.
    pub engine_workers: u32,
    /// Which placed shard the worker holds, or [`WHOLE_SNAPSHOT`] when it serves the
    /// entire topology. A placed dispatcher refuses a worker whose announced shard is
    /// not the one its placement assigns it.
    pub shard_index: u32,
}

/// One placed shard as shipped to its host: the slice (range, rebased offsets,
/// contiguous target rows, global shape) plus the identity hash and placement
/// coordinates that let the host refuse a shipment for the wrong snapshot or slot.
///
/// Boundary tables are deliberately *not* shipped: under the canonical contiguous
/// partition, ownership of any node is pure arithmetic on
/// `(node, node_count, shard_count)` (see [`crate::placed::shard_range`]), so the
/// slice alone is enough to route.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPayload {
    /// Identity hash of the snapshot the slice was cut from.
    pub identity: u64,
    /// Which shard of the partition this is.
    pub shard_index: u32,
    /// How many shards the partition has.
    pub shard_count: u32,
    /// The shard's rows.
    pub slice: CsrSlice,
}

/// A worker's answer to a forwarded frontier.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontierResult {
    /// The search completed on this host; the job's final outcome.
    Done(SearchOutcome),
    /// The search needs a row this host does not own; the suspended state to resume
    /// on the owner of its cursor.
    Continue(PlacedState),
}

/// Work shipped to a worker inside a [`Message::SubmitBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchRequest {
    /// An explicit job list: a [`QueryBatch`] slice whose job `i` runs on the RNG
    /// stream of global index `index_offset + i`, against an algorithm table resolved
    /// from [`SearchSpec`]s on the worker (using the served snapshot's provenance `m`).
    Queries {
        /// The batch seed.
        seed: u64,
        /// Global index of the slice's first job.
        index_offset: u64,
        /// The algorithm table, by wire encoding; jobs index into it.
        algorithms: Vec<SearchSpec>,
        /// The jobs of this slice.
        batch: QueryBatch,
    },
    /// The contiguous global job range `start..end` of a TTL sweep grid of
    /// `ttls.len() * searches_per_point` jobs — the unit the dispatcher splits a
    /// snapshot sweep into.
    SweepRange {
        /// The batch seed (a snapshot sweep uses the file's stored `sweep_seed`).
        seed: u64,
        /// First global job index of the range.
        start: u64,
        /// One past the last global job index of the range.
        end: u64,
        /// Searches per TTL of the full grid.
        searches_per_point: u64,
        /// The TTL grid.
        ttls: Vec<u32>,
        /// The search to run (`RwNormalizedToNf` selects the paper's normalized-walk
        /// job shape).
        search: SearchSpec,
    },
}

/// One message of the worker protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → client: what this worker serves.
    Hello(Hello),
    /// Client → worker: load a different snapshot (path on the worker's filesystem).
    LoadSnapshot {
        /// The `.sfos` path to load.
        path: String,
    },
    /// Client → worker: execute a batch.
    SubmitBatch(BatchRequest),
    /// Worker → client: the outcomes of a batch, in job order.
    BatchResult {
        /// One outcome per job of the request.
        outcomes: Vec<SearchOutcome>,
    },
    /// Either direction: a typed failure; the connection survives.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// One live-membership message of `sfo-overlay`, carried one-to-one on its own
    /// frame type (`TYPE_JOIN` through `TYPE_LEAVE`) — the wire side of the
    /// `sfo overlay` daemon.
    Overlay(OverlayMessage),
    /// Client → worker: send me your metrics snapshot. Empty payload.
    StatsRequest,
    /// Worker → client: the point-in-time [`MetricsSnapshot`] of the worker's
    /// `sfo-obs` registry.
    StatsReport(MetricsSnapshot),
    /// Client → worker: serve this placed shard (the worker answers with its new
    /// [`Message::Hello`], now announcing the shard index).
    LoadShard(ShardPayload),
    /// Client → worker: resume this suspended placed search on your rows.
    ForwardFrontier {
        /// Identity hash of the snapshot the search runs on; a worker holding a
        /// different snapshot (or shard) refuses.
        identity: u64,
        /// The suspended search.
        state: PlacedState,
    },
    /// Worker → client: the forwarded frontier either finished here or must hop on.
    FrontierResult(FrontierResult),
    /// Worker → client: the request was shed because the connection's pending-batch
    /// queue was full (`sfo serve --queue-bound`). The request was *not* executed and
    /// the connection stays usable; [`WorkerClient`](crate::WorkerClient) surfaces
    /// this as [`NetError::Overloaded`], which the loadtest driver counts instead of
    /// dying on.
    Overloaded {
        /// How many batches were already pending when the request arrived.
        queued: u32,
        /// The worker's configured queue bound.
        limit: u32,
    },
}

fn put_peer(out: &mut Vec<u8>, peer: &PeerRef) {
    out.extend_from_slice(&peer.id.to_le_bytes());
    put_str(out, &peer.addr);
}

fn read_peer(reader: &mut PayloadReader<'_>, section: &'static str) -> Result<PeerRef, NetError> {
    let id = reader.u64(section)?;
    let addr = reader.str(section)?.to_string();
    Ok(PeerRef { id, addr })
}

fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

fn read_bool(reader: &mut PayloadReader<'_>, section: &'static str) -> Result<bool, NetError> {
    match reader.u8(section)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(NetError::corrupt(format!(
            "{section}: flag byte must be 0 or 1, found {other}"
        ))),
    }
}

fn put_placed_algorithm(out: &mut Vec<u8>, algorithm: PlacedAlgorithm) {
    let (tag, param): (u8, u64) = match algorithm {
        PlacedAlgorithm::Flooding => (0, 0),
        PlacedAlgorithm::NormalizedFlooding { k_min } => (1, k_min as u64),
        PlacedAlgorithm::ProbabilisticFlooding { p } => (2, p.to_bits()),
        PlacedAlgorithm::RandomWalk => (3, 0),
        PlacedAlgorithm::MultipleRandomWalk { walkers } => (4, walkers as u64),
        PlacedAlgorithm::RwNormalizedToNf { k_min } => (5, k_min as u64),
    };
    out.push(tag);
    out.extend_from_slice(&param.to_le_bytes());
}

fn read_placed_algorithm(reader: &mut PayloadReader<'_>) -> Result<PlacedAlgorithm, NetError> {
    let tag = reader.u8("placed algorithm")?;
    let param = reader.u64("placed algorithm")?;
    let positive = |param: u64| {
        usize::try_from(param)
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| {
                NetError::corrupt(format!(
                    "placed algorithm parameter {param} must be a positive machine integer"
                ))
            })
    };
    match tag {
        0 | 3 => {
            if param != 0 {
                return Err(NetError::corrupt(
                    "placed algorithm: parameterless algorithms carry parameter 0",
                ));
            }
            Ok(if tag == 0 {
                PlacedAlgorithm::Flooding
            } else {
                PlacedAlgorithm::RandomWalk
            })
        }
        1 => Ok(PlacedAlgorithm::NormalizedFlooding {
            k_min: positive(param)?,
        }),
        2 => {
            let p = f64::from_bits(param);
            if p.is_finite() && p > 0.0 && p <= 1.0 {
                Ok(PlacedAlgorithm::ProbabilisticFlooding { p })
            } else {
                Err(NetError::corrupt(
                    "placed algorithm: forwarding probability must lie in (0, 1]",
                ))
            }
        }
        4 => Ok(PlacedAlgorithm::MultipleRandomWalk {
            walkers: positive(param)?,
        }),
        5 => Ok(PlacedAlgorithm::RwNormalizedToNf {
            k_min: positive(param)?,
        }),
        other => Err(NetError::corrupt(format!(
            "unknown placed algorithm tag {other}"
        ))),
    }
}

fn put_placed_state(out: &mut Vec<u8>, state: &PlacedState) {
    put_placed_algorithm(out, state.algorithm);
    put_bool(out, state.walk_phase);
    out.extend_from_slice(&state.source.to_le_bytes());
    out.extend_from_slice(&state.ttl.to_le_bytes());
    out.extend_from_slice(&state.hits.to_le_bytes());
    out.extend_from_slice(&state.messages.to_le_bytes());
    out.extend_from_slice(&state.current.to_le_bytes());
    out.extend_from_slice(&state.previous.to_le_bytes());
    out.extend_from_slice(&state.walker.to_le_bytes());
    out.extend_from_slice(&state.steps_done.to_le_bytes());
    for word in state.rng {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(state.visited.len() as u32).to_le_bytes());
    for &(word_index, word) in &state.visited {
        out.extend_from_slice(&word_index.to_le_bytes());
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(state.queue.len() as u32).to_le_bytes());
    for &(node, from, depth) in &state.queue {
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&from.to_le_bytes());
        out.extend_from_slice(&depth.to_le_bytes());
    }
}

fn read_placed_state(reader: &mut PayloadReader<'_>) -> Result<PlacedState, NetError> {
    let algorithm = read_placed_algorithm(reader)?;
    let walk_phase = read_bool(reader, "frontier phase")?;
    if !walk_phase
        && matches!(
            algorithm,
            PlacedAlgorithm::RandomWalk | PlacedAlgorithm::MultipleRandomWalk { .. }
        )
    {
        return Err(NetError::corrupt(
            "frontier: a walk algorithm cannot be in the flood phase",
        ));
    }
    let source = reader.u32("frontier")?;
    let ttl = reader.u32("frontier")?;
    let hits = reader.u64("frontier")?;
    let messages = reader.u64("frontier")?;
    let current = reader.u32("frontier")?;
    let previous = reader.u32("frontier")?;
    let walker = reader.u32("frontier")?;
    let steps_done = reader.u32("frontier")?;
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = reader.u64("frontier rng")?;
    }
    let visited_count = reader.u32("visited delta")? as usize;
    reader.expect_records(visited_count, 12, "visited delta")?;
    let mut visited = Vec::with_capacity(visited_count);
    let mut last_word: Option<u32> = None;
    for _ in 0..visited_count {
        let word_index = reader.u32("visited delta")?;
        if last_word.is_some_and(|previous| previous >= word_index) {
            return Err(NetError::corrupt(
                "visited delta: word indices must be strictly ascending",
            ));
        }
        last_word = Some(word_index);
        visited.push((word_index, reader.u64("visited delta")?));
    }
    let queue_count = reader.u32("frontier queue")? as usize;
    reader.expect_records(queue_count, 12, "frontier queue")?;
    let mut queue = Vec::with_capacity(queue_count);
    for _ in 0..queue_count {
        queue.push((
            reader.u32("frontier queue")?,
            reader.u32("frontier queue")?,
            reader.u32("frontier queue")?,
        ));
    }
    Ok(PlacedState {
        algorithm,
        walk_phase,
        source,
        ttl,
        hits,
        messages,
        current,
        previous,
        walker,
        steps_done,
        rng,
        visited,
        queue,
    })
}

fn put_search_spec(out: &mut Vec<u8>, spec: &SearchSpec) {
    put_str(out, &spec.to_json().to_pretty_string());
}

fn read_search_spec(reader: &mut PayloadReader<'_>) -> Result<SearchSpec, NetError> {
    let text = reader.str("search spec")?;
    let value = JsonValue::parse(text)
        .map_err(|e| NetError::corrupt(format!("search spec is not valid JSON: {e}")))?;
    SearchSpec::from_json(&value)
        .map_err(|e| NetError::corrupt(format!("search spec does not decode: {e}")))
}

impl Message {
    /// The frame type tag the message travels under.
    pub fn frame_type(&self) -> u16 {
        match self {
            Message::Hello(_) => TYPE_HELLO,
            Message::LoadSnapshot { .. } => TYPE_LOAD_SNAPSHOT,
            Message::SubmitBatch(_) => TYPE_SUBMIT_BATCH,
            Message::BatchResult { .. } => TYPE_BATCH_RESULT,
            Message::Error { .. } => TYPE_ERROR,
            Message::Overlay(OverlayMessage::Join { .. }) => TYPE_JOIN,
            Message::Overlay(OverlayMessage::ForwardJoin { .. }) => TYPE_FORWARD_JOIN,
            Message::Overlay(OverlayMessage::Shuffle { .. }) => TYPE_SHUFFLE,
            Message::Overlay(OverlayMessage::Probe { .. }) => TYPE_PROBE,
            Message::Overlay(OverlayMessage::Leave { .. }) => TYPE_LEAVE,
            Message::StatsRequest => TYPE_STATS_REQUEST,
            Message::StatsReport(_) => TYPE_STATS_REPORT,
            Message::LoadShard(_) => TYPE_LOAD_SHARD,
            Message::ForwardFrontier { .. } => TYPE_FORWARD_FRONTIER,
            Message::FrontierResult(_) => TYPE_FRONTIER_RESULT,
            Message::Overloaded { .. } => TYPE_OVERLOADED,
        }
    }

    /// Encodes the message to `(frame type, payload bytes)`.
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        (self.frame_type(), out)
    }

    /// Appends the message's payload bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello(hello) => {
                out.reserve(32);
                out.extend_from_slice(&hello.identity.to_le_bytes());
                out.extend_from_slice(&hello.node_count.to_le_bytes());
                out.extend_from_slice(&hello.edge_count.to_le_bytes());
                out.extend_from_slice(&hello.shard_count.to_le_bytes());
                out.extend_from_slice(&hello.engine_workers.to_le_bytes());
                out.extend_from_slice(&hello.shard_index.to_le_bytes());
            }
            Message::LoadSnapshot { path } => {
                put_str(out, path);
            }
            Message::SubmitBatch(request) => match request {
                BatchRequest::Queries {
                    seed,
                    index_offset,
                    algorithms,
                    batch,
                } => {
                    out.push(0u8);
                    out.extend_from_slice(&seed.to_le_bytes());
                    out.extend_from_slice(&index_offset.to_le_bytes());
                    out.extend_from_slice(&(algorithms.len() as u32).to_le_bytes());
                    for spec in algorithms {
                        put_search_spec(out, spec);
                    }
                    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
                    for job in batch.jobs() {
                        out.extend_from_slice(&(job.source.as_u32()).to_le_bytes());
                        out.extend_from_slice(&(job.algorithm as u32).to_le_bytes());
                        out.extend_from_slice(&job.ttl.to_le_bytes());
                    }
                }
                BatchRequest::SweepRange {
                    seed,
                    start,
                    end,
                    searches_per_point,
                    ttls,
                    search,
                } => {
                    out.push(1u8);
                    out.extend_from_slice(&seed.to_le_bytes());
                    out.extend_from_slice(&start.to_le_bytes());
                    out.extend_from_slice(&end.to_le_bytes());
                    out.extend_from_slice(&searches_per_point.to_le_bytes());
                    out.extend_from_slice(&(ttls.len() as u32).to_le_bytes());
                    for &ttl in ttls {
                        out.extend_from_slice(&ttl.to_le_bytes());
                    }
                    put_search_spec(out, search);
                }
            },
            Message::BatchResult { outcomes } => {
                out.reserve(4 + 16 * outcomes.len());
                out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
                for outcome in outcomes {
                    out.extend_from_slice(&(outcome.hits as u64).to_le_bytes());
                    out.extend_from_slice(&(outcome.messages as u64).to_le_bytes());
                }
            }
            Message::Error { message } => {
                put_str(out, message);
            }
            Message::Overlay(overlay) => match overlay {
                OverlayMessage::Join { origin, walks } => {
                    put_peer(out, origin);
                    out.extend_from_slice(&walks.to_le_bytes());
                }
                OverlayMessage::ForwardJoin { origin, ttl } => {
                    put_peer(out, origin);
                    out.extend_from_slice(&ttl.to_le_bytes());
                }
                OverlayMessage::Shuffle { from, peers, reply } => {
                    put_peer(out, from);
                    out.extend_from_slice(&(peers.len() as u32).to_le_bytes());
                    for peer in peers {
                        put_peer(out, peer);
                    }
                    put_bool(out, *reply);
                }
                OverlayMessage::Probe { from, nonce, ack } => {
                    put_peer(out, from);
                    out.extend_from_slice(&nonce.to_le_bytes());
                    put_bool(out, *ack);
                }
                OverlayMessage::Leave { from } => {
                    put_peer(out, from);
                }
            },
            Message::StatsRequest => {}
            Message::StatsReport(snapshot) => {
                out.extend_from_slice(&(snapshot.counters.len() as u32).to_le_bytes());
                for (name, value) in &snapshot.counters {
                    put_str(out, name);
                    out.extend_from_slice(&value.to_le_bytes());
                }
                out.extend_from_slice(&(snapshot.histograms.len() as u32).to_le_bytes());
                for (name, hist) in &snapshot.histograms {
                    put_str(out, name);
                    out.extend_from_slice(&hist.count.to_le_bytes());
                    out.extend_from_slice(&hist.sum.to_le_bytes());
                    out.extend_from_slice(&hist.max.to_le_bytes());
                    out.extend_from_slice(&(hist.buckets.len() as u32).to_le_bytes());
                    for &(bucket, samples) in &hist.buckets {
                        out.push(bucket);
                        out.extend_from_slice(&samples.to_le_bytes());
                    }
                }
            }
            Message::LoadShard(shard) => {
                let (offsets, targets) = shard.slice.raw_parts();
                out.reserve(60 + 4 * offsets.len() + 4 * targets.len());
                out.extend_from_slice(&shard.identity.to_le_bytes());
                out.extend_from_slice(
                    &(sfo_graph::ShardView::node_count(&shard.slice) as u64).to_le_bytes(),
                );
                out.extend_from_slice(
                    &(sfo_graph::ShardView::edge_count(&shard.slice) as u64).to_le_bytes(),
                );
                out.extend_from_slice(&shard.shard_index.to_le_bytes());
                out.extend_from_slice(&shard.shard_count.to_le_bytes());
                out.extend_from_slice(&(shard.slice.start() as u64).to_le_bytes());
                out.extend_from_slice(&(shard.slice.end() as u64).to_le_bytes());
                for &offset in offsets {
                    out.extend_from_slice(&offset.to_le_bytes());
                }
                out.extend_from_slice(&(targets.len() as u32).to_le_bytes());
                for &target in targets {
                    out.extend_from_slice(&target.as_u32().to_le_bytes());
                }
            }
            Message::ForwardFrontier { identity, state } => {
                out.reserve(128 + 12 * state.visited.len() + 12 * state.queue.len());
                out.extend_from_slice(&identity.to_le_bytes());
                put_placed_state(out, state);
            }
            Message::FrontierResult(result) => match result {
                FrontierResult::Done(outcome) => {
                    out.push(0u8);
                    out.extend_from_slice(&(outcome.hits as u64).to_le_bytes());
                    out.extend_from_slice(&(outcome.messages as u64).to_le_bytes());
                }
                FrontierResult::Continue(state) => {
                    out.push(1u8);
                    put_placed_state(out, state);
                }
            },
            Message::Overloaded { queued, limit } => {
                out.reserve(8);
                out.extend_from_slice(&queued.to_le_bytes());
                out.extend_from_slice(&limit.to_le_bytes());
            }
        }
    }

    /// Decodes a message from a frame's `(type, payload)`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownFrameType`] for unknown tags and
    /// [`NetError::Truncated`]/[`NetError::Corrupt`] when the payload does not decode
    /// exactly — trailing bytes included.
    pub fn decode(message_type: u16, payload: &[u8]) -> Result<Message, NetError> {
        let mut reader = PayloadReader::new(payload);
        let message = match message_type {
            TYPE_HELLO => {
                let hello = Hello {
                    identity: reader.u64("hello")?,
                    node_count: reader.u64("hello")?,
                    edge_count: reader.u64("hello")?,
                    shard_count: reader.u32("hello")?,
                    engine_workers: reader.u32("hello")?,
                    shard_index: reader.u32("hello")?,
                };
                Message::Hello(hello)
            }
            TYPE_LOAD_SNAPSHOT => Message::LoadSnapshot {
                path: reader.str("load snapshot")?.to_string(),
            },
            TYPE_SUBMIT_BATCH => {
                let request = match reader.u8("batch request")? {
                    0 => {
                        let seed = reader.u64("batch request")?;
                        let index_offset = reader.u64("batch request")?;
                        let algorithm_count = reader.u32("algorithm table")? as usize;
                        // Each encoded algorithm is at least a 4-byte length prefix.
                        reader.expect_records(algorithm_count, 4, "algorithm table")?;
                        let mut algorithms = Vec::with_capacity(algorithm_count);
                        for _ in 0..algorithm_count {
                            algorithms.push(read_search_spec(&mut reader)?);
                        }
                        let job_count = reader.u32("job list")? as usize;
                        reader.expect_records(job_count, 12, "job list")?;
                        let mut batch = QueryBatch::new();
                        for _ in 0..job_count {
                            let source = reader.u32("job list")?;
                            let algorithm = reader.u32("job list")? as usize;
                            let ttl = reader.u32("job list")?;
                            batch.push(sfo_graph::NodeId::new(source as usize), algorithm, ttl);
                        }
                        BatchRequest::Queries {
                            seed,
                            index_offset,
                            algorithms,
                            batch,
                        }
                    }
                    1 => {
                        let seed = reader.u64("batch request")?;
                        let start = reader.u64("batch request")?;
                        let end = reader.u64("batch request")?;
                        let searches_per_point = reader.u64("batch request")?;
                        let ttl_count = reader.u32("ttl grid")? as usize;
                        reader.expect_records(ttl_count, 4, "ttl grid")?;
                        let mut ttls = Vec::with_capacity(ttl_count);
                        for _ in 0..ttl_count {
                            ttls.push(reader.u32("ttl grid")?);
                        }
                        let search = read_search_spec(&mut reader)?;
                        BatchRequest::SweepRange {
                            seed,
                            start,
                            end,
                            searches_per_point,
                            ttls,
                            search,
                        }
                    }
                    other => {
                        return Err(NetError::corrupt(format!(
                            "unknown batch request kind {other}"
                        )))
                    }
                };
                Message::SubmitBatch(request)
            }
            TYPE_BATCH_RESULT => {
                let count = reader.u32("batch result")? as usize;
                reader.expect_records(count, 16, "batch result")?;
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    let hits = reader.u64("batch result")?;
                    let messages = reader.u64("batch result")?;
                    outcomes.push(SearchOutcome {
                        hits: usize::try_from(hits)
                            .map_err(|_| NetError::corrupt("hit count exceeds usize"))?,
                        messages: usize::try_from(messages)
                            .map_err(|_| NetError::corrupt("message count exceeds usize"))?,
                    });
                }
                Message::BatchResult { outcomes }
            }
            TYPE_ERROR => Message::Error {
                message: reader.str("error")?.to_string(),
            },
            TYPE_JOIN => Message::Overlay(OverlayMessage::Join {
                origin: read_peer(&mut reader, "join")?,
                walks: reader.u32("join")?,
            }),
            TYPE_FORWARD_JOIN => Message::Overlay(OverlayMessage::ForwardJoin {
                origin: read_peer(&mut reader, "forward join")?,
                ttl: reader.u32("forward join")?,
            }),
            TYPE_SHUFFLE => {
                let from = read_peer(&mut reader, "shuffle")?;
                let count = reader.u32("shuffle sample")? as usize;
                // Each encoded peer is at least an 8-byte id plus a 4-byte length.
                reader.expect_records(count, 12, "shuffle sample")?;
                let mut peers = Vec::with_capacity(count);
                for _ in 0..count {
                    peers.push(read_peer(&mut reader, "shuffle sample")?);
                }
                let reply = read_bool(&mut reader, "shuffle")?;
                Message::Overlay(OverlayMessage::Shuffle { from, peers, reply })
            }
            TYPE_PROBE => Message::Overlay(OverlayMessage::Probe {
                from: read_peer(&mut reader, "probe")?,
                nonce: reader.u64("probe")?,
                ack: read_bool(&mut reader, "probe")?,
            }),
            TYPE_LEAVE => Message::Overlay(OverlayMessage::Leave {
                from: read_peer(&mut reader, "leave")?,
            }),
            TYPE_STATS_REQUEST => Message::StatsRequest,
            TYPE_STATS_REPORT => {
                let counter_count = reader.u32("stats counters")? as usize;
                // Each counter is at least a 4-byte name length plus an 8-byte value.
                reader.expect_records(counter_count, 12, "stats counters")?;
                let mut counters = Vec::with_capacity(counter_count);
                for _ in 0..counter_count {
                    let name = reader.str("stats counters")?.to_string();
                    let value = reader.u64("stats counters")?;
                    counters.push((name, value));
                }
                let histogram_count = reader.u32("stats histograms")? as usize;
                // At least a 4-byte name length, count/sum/max, and a bucket count.
                reader.expect_records(histogram_count, 32, "stats histograms")?;
                let mut histograms = Vec::with_capacity(histogram_count);
                for _ in 0..histogram_count {
                    let name = reader.str("stats histograms")?.to_string();
                    let count = reader.u64("stats histograms")?;
                    let sum = reader.u64("stats histograms")?;
                    let max = reader.u64("stats histograms")?;
                    let bucket_count = reader.u32("stats buckets")? as usize;
                    reader.expect_records(bucket_count, 9, "stats buckets")?;
                    let mut buckets = Vec::with_capacity(bucket_count);
                    let mut previous: Option<u8> = None;
                    for _ in 0..bucket_count {
                        let bucket = reader.u8("stats buckets")?;
                        if bucket as usize >= BUCKET_COUNT {
                            return Err(NetError::corrupt(format!(
                                "stats buckets: bucket index {bucket} out of range"
                            )));
                        }
                        if previous.is_some_and(|p| p >= bucket) {
                            return Err(NetError::corrupt(
                                "stats buckets: bucket indices must be strictly ascending",
                            ));
                        }
                        previous = Some(bucket);
                        let samples = reader.u64("stats buckets")?;
                        buckets.push((bucket, samples));
                    }
                    histograms.push((
                        name,
                        HistogramSnapshot {
                            count,
                            sum,
                            max,
                            buckets,
                        },
                    ));
                }
                Message::StatsReport(MetricsSnapshot {
                    counters,
                    histograms,
                })
            }
            TYPE_LOAD_SHARD => {
                let identity = reader.u64("shard payload")?;
                let node_count = reader.u64("shard payload")?;
                let edge_count = reader.u64("shard payload")?;
                let shard_index = reader.u32("shard payload")?;
                let shard_count = reader.u32("shard payload")?;
                let start = reader.u64("shard payload")?;
                let end = reader.u64("shard payload")?;
                if shard_count == 0 || shard_index >= shard_count {
                    return Err(NetError::corrupt(format!(
                        "shard payload: shard index {shard_index} of {shard_count} is not a placement"
                    )));
                }
                let as_size = |value: u64, what: &str| {
                    usize::try_from(value).map_err(|_| {
                        NetError::corrupt(format!("shard payload: {what} {value} exceeds usize"))
                    })
                };
                let node_count = as_size(node_count, "node count")?;
                let edge_count = as_size(edge_count, "edge count")?;
                let start = as_size(start, "range start")?;
                let end = as_size(end, "range end")?;
                if start > end || end > node_count {
                    return Err(NetError::corrupt(format!(
                        "shard payload: range {start}..{end} out of bounds for {node_count} nodes"
                    )));
                }
                let expected = crate::placed::shard_range(
                    node_count,
                    shard_count as usize,
                    shard_index as usize,
                );
                if expected != (start..end) {
                    return Err(NetError::corrupt(format!(
                        "shard payload: range {start}..{end} is not shard {shard_index} of \
                         {shard_count} over {node_count} nodes (expected {expected:?})"
                    )));
                }
                let offset_count = end - start + 1;
                reader.expect_records(offset_count, 4, "shard offsets")?;
                let mut offsets = Vec::with_capacity(offset_count);
                for _ in 0..offset_count {
                    offsets.push(reader.u32("shard offsets")?);
                }
                let target_count = reader.u32("shard targets")? as usize;
                reader.expect_records(target_count, 4, "shard targets")?;
                let mut targets = Vec::with_capacity(target_count);
                for _ in 0..target_count {
                    targets.push(NodeId::new(reader.u32("shard targets")? as usize));
                }
                let slice =
                    CsrSlice::from_parts(start..end, node_count, edge_count, offsets, targets)
                        .map_err(|e| {
                            NetError::corrupt(format!("shard payload does not assemble: {e}"))
                        })?;
                Message::LoadShard(ShardPayload {
                    identity,
                    shard_index,
                    shard_count,
                    slice,
                })
            }
            TYPE_FORWARD_FRONTIER => {
                let identity = reader.u64("frontier")?;
                let state = read_placed_state(&mut reader)?;
                Message::ForwardFrontier { identity, state }
            }
            TYPE_FRONTIER_RESULT => {
                let result = match reader.u8("frontier result")? {
                    0 => {
                        let hits = reader.u64("frontier result")?;
                        let messages = reader.u64("frontier result")?;
                        FrontierResult::Done(SearchOutcome {
                            hits: usize::try_from(hits)
                                .map_err(|_| NetError::corrupt("hit count exceeds usize"))?,
                            messages: usize::try_from(messages)
                                .map_err(|_| NetError::corrupt("message count exceeds usize"))?,
                        })
                    }
                    1 => FrontierResult::Continue(read_placed_state(&mut reader)?),
                    other => {
                        return Err(NetError::corrupt(format!(
                            "unknown frontier result kind {other}"
                        )))
                    }
                };
                Message::FrontierResult(result)
            }
            TYPE_OVERLOADED => Message::Overloaded {
                queued: reader.u32("overloaded")?,
                limit: reader.u32("overloaded")?,
            },
            other => return Err(NetError::UnknownFrameType { found: other }),
        };
        reader.finish("message payload")?;
        Ok(message)
    }
}

impl<W: Write> FrameWriter<W> {
    /// Encodes `message` into the outbox without writing it (see
    /// [`FrameWriter::queue_frame`]) and returns its frame's wire size.
    pub fn queue(&mut self, message: &Message) -> usize {
        self.queue_frame(message.frame_type(), |out| message.encode_into(out))
    }

    /// Writes `message` — and anything queued before it — now.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the underlying write fails.
    pub fn send(&mut self, message: &Message) -> Result<(), NetError> {
        self.queue(message);
        self.flush()
    }
}

impl<R: Read> FrameReader<R> {
    /// Reads and decodes one message, blocking as needed.
    ///
    /// # Errors
    ///
    /// Every framing failure of [`FrameReader::next_frame`] and decoding failure of
    /// [`Message::decode`]; after the latter the stream is still frame-aligned.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        let (message_type, payload) = self.next_frame()?;
        Message::decode(message_type, payload)
    }
}

/// Writes one message as a frame to a stream the caller keeps. Connections own a
/// [`FrameWriter`]; this is for callers holding a bare `Write` (tests, tools).
///
/// # Errors
///
/// Returns [`NetError::Io`] when the underlying write fails.
pub fn send_message(writer: &mut impl Write, message: &Message) -> Result<(), NetError> {
    FrameWriter::new(writer).send(message)
}

/// Reads one message from a stream the caller keeps, consuming exactly its frame.
/// Connections own a [`FrameReader`]; this is for callers holding a bare `Read`
/// (tests, tools).
///
/// # Errors
///
/// Every framing and decoding failure of [`crate::frame::read_frame`] and
/// [`Message::decode`].
pub fn recv_message(reader: &mut impl Read) -> Result<Message, NetError> {
    let (message_type, payload) = crate::frame::read_frame(reader)?;
    Message::decode(message_type, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfo_graph::NodeId;

    fn sample_placed_state() -> PlacedState {
        PlacedState {
            algorithm: PlacedAlgorithm::NormalizedFlooding { k_min: 2 },
            walk_phase: false,
            source: 3,
            ttl: 5,
            hits: 17,
            messages: 40,
            current: 3,
            previous: sfo_engine::NO_NODE,
            walker: 0,
            steps_done: 0,
            rng: [1, 2, 3, 4],
            visited: vec![(0, 0b1001), (2, u64::MAX)],
            queue: vec![(9, 3, 1), (14, sfo_engine::NO_NODE, 2)],
        }
    }

    fn sample_shard_payload() -> ShardPayload {
        let mut g = sfo_graph::Graph::with_nodes(10);
        for i in 0..9 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        let csr = g.freeze();
        ShardPayload {
            identity: 0xABCD_EF01_2345_6789,
            shard_index: 1,
            shard_count: 3,
            slice: csr.extract_slice(crate::placed::shard_range(10, 3, 1)),
        }
    }

    fn sample_messages() -> Vec<Message> {
        let mut batch = QueryBatch::new();
        batch.push(NodeId::new(3), 0, 4);
        batch.push(NodeId::new(9), 1, 2);
        vec![
            Message::Hello(Hello {
                identity: 0xFEED_F00D_DEAD_BEEF,
                node_count: 10_000,
                edge_count: 20_000,
                shard_count: 4,
                engine_workers: 8,
                shard_index: WHOLE_SNAPSHOT,
            }),
            Message::LoadSnapshot {
                path: "topologies/pa_m2_kc10.sfos".to_string(),
            },
            Message::SubmitBatch(BatchRequest::Queries {
                seed: 7,
                index_offset: 40,
                algorithms: vec![
                    SearchSpec::Flooding,
                    SearchSpec::NormalizedFlooding { k_min: Some(2) },
                ],
                batch,
            }),
            Message::SubmitBatch(BatchRequest::SweepRange {
                seed: 11,
                start: 30,
                end: 60,
                searches_per_point: 30,
                ttls: vec![1, 2, 4, 8],
                search: SearchSpec::RwNormalizedToNf { k_min: None },
            }),
            Message::BatchResult {
                outcomes: vec![SearchOutcome::new(5, 9), SearchOutcome::new(0, 1)],
            },
            Message::Error {
                message: "no snapshot loaded".to_string(),
            },
            Message::Overlay(OverlayMessage::Join {
                origin: PeerRef::new(3, "127.0.0.1:9100"),
                walks: 2,
            }),
            Message::Overlay(OverlayMessage::ForwardJoin {
                origin: PeerRef::new(3, "127.0.0.1:9100"),
                ttl: 7,
            }),
            Message::Overlay(OverlayMessage::Shuffle {
                from: PeerRef::new(1, "127.0.0.1:9101"),
                peers: vec![
                    PeerRef::new(4, "127.0.0.1:9104"),
                    PeerRef::new(5, "127.0.0.1:9105"),
                ],
                reply: true,
            }),
            Message::Overlay(OverlayMessage::Probe {
                from: PeerRef::new(2, "127.0.0.1:9102"),
                nonce: 0xA5A5_5A5A_0F0F_F0F0,
                ack: false,
            }),
            Message::Overlay(OverlayMessage::Leave {
                from: PeerRef::new(9, "127.0.0.1:9109"),
            }),
            Message::StatsRequest,
            Message::StatsReport(MetricsSnapshot {
                counters: vec![
                    ("engine.jobs".to_string(), 4096),
                    ("net.connections".to_string(), 3),
                ],
                histograms: vec![(
                    "net.request_micros".to_string(),
                    HistogramSnapshot {
                        count: 5,
                        sum: 700,
                        max: 300,
                        buckets: vec![(6, 4), (9, 1)],
                    },
                )],
            }),
            Message::StatsReport(MetricsSnapshot::default()),
            Message::LoadShard(sample_shard_payload()),
            Message::ForwardFrontier {
                identity: 0xFEED_F00D_DEAD_BEEF,
                state: sample_placed_state(),
            },
            Message::FrontierResult(FrontierResult::Done(SearchOutcome::new(12, 99))),
            Message::Overloaded {
                queued: 32,
                limit: 32,
            },
            Message::FrontierResult(FrontierResult::Continue(PlacedState {
                algorithm: PlacedAlgorithm::MultipleRandomWalk { walkers: 4 },
                walk_phase: true,
                current: 7,
                previous: 3,
                walker: 2,
                steps_done: 5,
                queue: Vec::new(),
                ..sample_placed_state()
            })),
        ]
    }

    #[test]
    fn every_message_round_trips_through_its_frame() {
        for message in sample_messages() {
            let (message_type, payload) = message.encode();
            let back = Message::decode(message_type, &payload).unwrap();
            assert_eq!(back, message);

            // And through a real byte stream.
            let mut wire = Vec::new();
            send_message(&mut wire, &message).unwrap();
            assert_eq!(recv_message(&mut wire.as_slice()).unwrap(), message);
        }
    }

    #[test]
    fn unknown_types_and_trailing_bytes_are_rejected() {
        assert!(matches!(
            Message::decode(99, &[]),
            Err(NetError::UnknownFrameType { found: 99 })
        ));
        let (message_type, mut payload) = Message::Error {
            message: "x".to_string(),
        }
        .encode();
        payload.push(0);
        assert!(matches!(
            Message::decode(message_type, &payload),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn lying_inner_counts_are_bounded_before_allocation() {
        // A BatchResult claiming u32::MAX outcomes in a 4-byte payload must fail on the
        // record bound, not allocate a 64 GiB vector.
        let payload = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            Message::decode(TYPE_BATCH_RESULT, &payload),
            Err(NetError::Truncated { .. })
        ));
        // Same for a job list.
        let mut payload = vec![0u8];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // no algorithms
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // a lie
        assert!(matches!(
            Message::decode(TYPE_SUBMIT_BATCH, &payload),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn overlay_frames_reject_bad_flags_and_lying_counts() {
        // A probe whose ack byte is neither 0 nor 1.
        let (frame_type, mut payload) = Message::Overlay(OverlayMessage::Probe {
            from: PeerRef::new(1, "127.0.0.1:9100"),
            nonce: 9,
            ack: true,
        })
        .encode();
        *payload.last_mut().unwrap() = 2;
        assert!(matches!(
            Message::decode(frame_type, &payload),
            Err(NetError::Corrupt { .. })
        ));

        // A shuffle claiming u32::MAX peers in a tiny payload must fail on the record
        // bound, not allocate.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        put_str(&mut payload, "127.0.0.1:9100");
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(TYPE_SHUFFLE, &payload),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn stats_reports_reject_lying_counts_and_bad_buckets() {
        // A report claiming u32::MAX counters in an 8-byte payload must fail on the
        // record bound, not allocate.
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Message::decode(TYPE_STATS_REPORT, &payload),
            Err(NetError::Truncated { .. })
        ));

        fn report_with_buckets(buckets: Vec<(u8, u64)>) -> (u16, Vec<u8>) {
            Message::StatsReport(MetricsSnapshot {
                counters: vec![],
                histograms: vec![(
                    "h".to_string(),
                    HistogramSnapshot {
                        count: 2,
                        sum: 2,
                        max: 1,
                        buckets,
                    },
                )],
            })
            .encode()
        }

        // A bucket index past the histogram's range is corrupt.
        let (frame_type, payload) = report_with_buckets(vec![(200, 2)]);
        assert!(matches!(
            Message::decode(frame_type, &payload),
            Err(NetError::Corrupt { .. })
        ));
        // Out-of-order buckets are corrupt too: snapshots are canonical.
        let (frame_type, payload) = report_with_buckets(vec![(5, 1), (3, 1)]);
        assert!(matches!(
            Message::decode(frame_type, &payload),
            Err(NetError::Corrupt { .. })
        ));
        // A stats request carries no payload at all.
        assert!(matches!(
            Message::decode(TYPE_STATS_REQUEST, &[1]),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn placed_frames_reject_malformed_payloads() {
        // A frontier whose visited count lies about the payload is bounded before
        // allocation.
        let (frame_type, payload) = Message::ForwardFrontier {
            identity: 1,
            state: sample_placed_state(),
        }
        .encode();
        let mut lying = payload.clone();
        // The visited count sits right after identity(8) + algorithm(9) + phase(1) +
        // 8 u32 fields... easier: find the encoded count (2) and inflate it.
        let count_at = 8 + 9 + 1 + 4 * 6 + 8 * 2 + 8 * 4;
        assert_eq!(&lying[count_at..count_at + 4], &2u32.to_le_bytes());
        lying[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(frame_type, &lying),
            Err(NetError::Truncated { .. })
        ));

        // Out-of-order visited words are corrupt: exports are canonical.
        let mut disordered = sample_placed_state();
        disordered.visited = vec![(2, 1), (1, 1)];
        let (frame_type, payload) = Message::ForwardFrontier {
            identity: 1,
            state: disordered,
        }
        .encode();
        assert!(matches!(
            Message::decode(frame_type, &payload),
            Err(NetError::Corrupt { .. })
        ));

        // A walk algorithm claiming to be mid-flood is structurally impossible.
        let mut impossible = sample_placed_state();
        impossible.algorithm = PlacedAlgorithm::RandomWalk;
        impossible.walk_phase = false;
        let (frame_type, payload) = Message::ForwardFrontier {
            identity: 1,
            state: impossible,
        }
        .encode();
        assert!(matches!(
            Message::decode(frame_type, &payload),
            Err(NetError::Corrupt { .. })
        ));

        // A shard payload whose range is not the canonical placement of its index.
        let (frame_type, payload) = Message::LoadShard(sample_shard_payload()).encode();
        let mut misplaced = payload.clone();
        misplaced[28..32].copy_from_slice(&0u32.to_le_bytes()); // claim shard 0
        assert!(matches!(
            Message::decode(frame_type, &misplaced),
            Err(NetError::Corrupt { .. })
        ));
        // A shard index outside the partition.
        let mut wild = payload.clone();
        wild[28..32].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            Message::decode(frame_type, &wild),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn malformed_search_specs_are_corrupt_not_panics() {
        let mut payload = vec![1u8];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // no ttls
        put_str(&mut payload, "{\"algorithm\": \"teleportation\"}");
        assert!(matches!(
            Message::decode(TYPE_SUBMIT_BATCH, &payload),
            Err(NetError::Corrupt { .. })
        ));
    }
}
