//! The connection byte path — `FrameReader`, `FrameWriter`, and the serving executor's
//! reply coalescing — must be invisible in what a conversation says.
//!
//! Two properties, both stated over bytes:
//!
//! * **Split invariance.** How a stream is cut into `read`s (whole, one byte at a time,
//!   seeded random chunks, or exactly one frame per reader as `recv_message` does) never
//!   changes what a [`FrameReader`] yields: the identical message or the identical typed
//!   [`NetError`], for every row of the `tests/net_frames.rs` corruption matrix and for
//!   two and three frames glued together.
//! * **Coalescing keeps the conversation exact.** A pipelined burst of batches, sheds
//!   and undecodable-but-aligned frames is answered in arrival order with payloads
//!   byte-identical to one-at-a-time submission, every reply arrives once the client
//!   goes quiet, and a desync is answered once, behind every earlier reply, then dropped.

use rand::Rng;
use sfoverlay::graph::generators::ring_graph;
use sfoverlay::graph::snapshot::{Provenance, SnapshotFile};
use sfoverlay::net::frame::{
    encode_frame, FrameReader, FRAME_HEADER_LEN, MAX_PAYLOAD_LEN, PROTOCOL_VERSION,
};
use sfoverlay::net::message::{
    recv_message, send_message, BatchRequest, FrontierResult, Hello, Message, ShardPayload,
    TYPE_BATCH_RESULT, TYPE_ERROR, TYPE_LOAD_SHARD, TYPE_LOAD_SNAPSHOT, WHOLE_SNAPSHOT,
};
use sfoverlay::net::overlay::{OverlayMessage, PeerRef};
use sfoverlay::net::{NetError, NetStream, ServeConfig, WorkerServer};
use sfoverlay::prelude::{
    shard_range, NodeId, PlacedAlgorithm, PlacedState, QueryBatch, SearchOutcome, SearchSpec,
};
use sfoverlay::search::experiment::{label_salt, stream_rng};
use std::io::{Read, Write};

// ---------------------------------------------------------------------------
// Split invariance

fn sample_frontier() -> PlacedState {
    PlacedState {
        algorithm: PlacedAlgorithm::NormalizedFlooding { k_min: 2 },
        walk_phase: false,
        source: 3,
        ttl: 5,
        hits: 17,
        messages: 40,
        current: 3,
        previous: sfoverlay::engine::NO_NODE,
        walker: 0,
        steps_done: 0,
        rng: [1, 2, 3, 4],
        visited: vec![(0, 0b1001), (2, u64::MAX)],
        queue: vec![(9, 3, 1), (14, sfoverlay::engine::NO_NODE, 2)],
    }
}

/// One of every message kind, with both batch-request shapes.
fn all_messages() -> Vec<Message> {
    let mut batch = QueryBatch::new();
    batch.push(NodeId::new(0), 0, 1);
    batch.push(NodeId::new(41), 1, 6);
    let csr = ring_graph(10, 2).unwrap().freeze();
    vec![
        Message::Hello(Hello {
            identity: u64::MAX,
            node_count: 1,
            edge_count: 0,
            shard_count: 1,
            engine_workers: 64,
            shard_index: WHOLE_SNAPSHOT,
        }),
        Message::LoadSnapshot {
            path: "shards/realization-0.sfos".to_string(),
        },
        Message::SubmitBatch(BatchRequest::Queries {
            seed: 0,
            index_offset: u32::MAX as u64,
            algorithms: vec![
                SearchSpec::Flooding,
                SearchSpec::MultipleRandomWalk { walkers: 4 },
            ],
            batch,
        }),
        Message::SubmitBatch(BatchRequest::SweepRange {
            seed: 0xDEAD_BEEF,
            start: 0,
            end: 0,
            searches_per_point: 0,
            ttls: Vec::new(),
            search: SearchSpec::NormalizedFlooding { k_min: None },
        }),
        Message::BatchResult {
            outcomes: vec![SearchOutcome::new(0, 0), SearchOutcome::new(9999, 123456)],
        },
        Message::Error {
            message: "worker 3 refused: wrong identity".to_string(),
        },
        Message::Overlay(OverlayMessage::Shuffle {
            from: PeerRef::new(2, "10.0.0.2:9200"),
            peers: vec![PeerRef::new(6, "unix:/tmp/peer-6.sock")],
            reply: false,
        }),
        Message::Overlay(OverlayMessage::Probe {
            from: PeerRef::new(3, "10.0.0.3:9200"),
            nonce: u64::MAX,
            ack: true,
        }),
        Message::StatsRequest,
        Message::LoadShard(ShardPayload {
            identity: 0xABCD_EF01_2345_6789,
            shard_index: 1,
            shard_count: 3,
            slice: csr.extract_slice(shard_range(10, 3, 1)),
        }),
        Message::ForwardFrontier {
            identity: 0xFEED_F00D_DEAD_BEEF,
            state: sample_frontier(),
        },
        Message::FrontierResult(FrontierResult::Done(SearchOutcome::new(12, 99))),
        Message::Overloaded {
            queued: 32,
            limit: 32,
        },
    ]
}

fn wire(message: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    send_message(&mut bytes, message).unwrap();
    bytes
}

/// Every malformed (and well-formed) stream of the corruption matrix: whole frames,
/// every truncation, bit flips in every byte, wrong magic / version / type, inflated
/// lengths, and well-framed payloads that decode wrong.
fn matrix() -> Vec<Vec<u8>> {
    let mut cases = Vec::new();
    for (m, message) in all_messages().iter().enumerate() {
        let bytes = wire(message);
        for cut in 0..bytes.len() {
            cases.push(bytes[..cut].to_vec());
        }
        // Every bit of the first frame; one (rotating) bit of every byte of the rest.
        for at in 0..bytes.len() {
            for bit in 0..8 {
                if m == 0 || bit == at % 8 {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1 << bit;
                    cases.push(flipped);
                }
            }
        }
        cases.push(bytes);
    }
    // Wrong magic, unknown version, unknown frame type.
    let mut bad_magic = encode_frame(TYPE_ERROR, b"\x01\x00\x00\x00x");
    bad_magic[..4].copy_from_slice(b"HTTP");
    cases.push(bad_magic);
    let mut bad_version = encode_frame(TYPE_ERROR, b"\x01\x00\x00\x00x");
    bad_version[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
    cases.push(bad_version);
    cases.push(encode_frame(999, b""));
    // Declared lengths past the bound, with nothing (and with junk) behind them.
    for declared in [u32::MAX, MAX_PAYLOAD_LEN + 1] {
        let mut header = encode_frame(TYPE_ERROR, b"")[..FRAME_HEADER_LEN].to_vec();
        header[8..12].copy_from_slice(&declared.to_le_bytes());
        cases.push(header.clone());
        header.extend_from_slice(&[0xAB; 100]);
        cases.push(header);
    }
    // Well-framed, checksummed payloads that do not decode: a count lying about the
    // payload, a short shard, trailing bytes, a path that is not UTF-8.
    cases.push(encode_frame(TYPE_BATCH_RESULT, &u32::MAX.to_le_bytes()));
    cases.push(encode_frame(TYPE_LOAD_SHARD, &[0u8; 4]));
    cases.push(encode_frame(TYPE_ERROR, b"\x01\x00\x00\x00xextra"));
    cases.push(encode_frame(TYPE_LOAD_SNAPSHOT, &[2, 0, 0, 0, 0xFF, 0xFE]));
    cases
}

/// A `Read` that hands out `bytes` in pieces of the sizes `chunk` names.
struct Pieces<'a, F> {
    bytes: &'a [u8],
    chunk: F,
}

impl<F: FnMut() -> usize> Read for Pieces<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (self.chunk)().clamp(1, buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// How many messages every stream is asked for: more than any case holds, so the
/// behaviour *after* an error (a framing error repeats, a decode error moves on, a
/// clean end is `Truncated { section: "header" }`) is part of what is compared.
const ASKED: usize = 5;

fn conversation(bytes: &[u8], chunk: impl FnMut() -> usize) -> Vec<Result<Message, NetError>> {
    let mut reader = FrameReader::new(Pieces { bytes, chunk });
    (0..ASKED).map(|_| reader.recv()).collect()
}

/// The same stream through `recv_message`, which reads exactly one frame per call from
/// a stream it does not own.
fn one_frame_at_a_time(bytes: &[u8]) -> Vec<Result<Message, NetError>> {
    let mut rest = bytes;
    (0..ASKED).map(|_| recv_message(&mut rest)).collect()
}

/// `results` up to and including the first error raised by the frame layer itself.
/// Past that point a stream has no frame boundaries left, so what a *fresh* reader
/// makes of the remainder (`recv_message` is one per call) is not comparable.
fn while_aligned(results: &[Result<Message, NetError>]) -> &[Result<Message, NetError>] {
    let framing = |result: &Result<Message, NetError>| match result {
        Err(NetError::Truncated { section }) => ["header", "payload", "trailer"].contains(section),
        Err(NetError::UnknownFrameType { .. } | NetError::Corrupt { .. }) | Ok(_) => false,
        Err(_) => true,
    };
    let end = results
        .iter()
        .position(framing)
        .map_or(results.len(), |at| at + 1);
    &results[..end]
}

#[test]
fn how_a_stream_is_split_into_reads_never_changes_what_it_decodes_to() {
    let hello = all_messages().swap_remove(0);
    let result = all_messages().swap_remove(4);
    let salt = label_salt("wire-path/split-invariance");
    let cases = matrix();
    assert!(cases.len() > 2000, "the matrix shrank to {}", cases.len());
    for (index, case) in cases.iter().enumerate() {
        let alone = conversation(case, || usize::MAX);
        // The case by itself, then behind one and behind two good frames — which never
        // change what the case itself decodes to.
        for glued in 0..=2 {
            let prefix = [&hello, &result][..glued].to_vec();
            let mut stream: Vec<u8> = prefix.iter().copied().flat_map(wire).collect();
            stream.extend_from_slice(case);
            let mut expected: Vec<_> = prefix.into_iter().cloned().map(Ok).collect();
            expected.extend_from_slice(&alone[..ASKED - glued]);

            let at = format!("case {index} behind {glued} frames");
            assert_eq!(
                conversation(&stream, || usize::MAX),
                expected,
                "{at}, whole"
            );
            assert_eq!(conversation(&stream, || 1), expected, "{at}, bytewise");
            let mut rng = stream_rng(20070625, salt, index * 3 + glued);
            let chunked = conversation(&stream, || rng.gen_range(1..=48));
            assert_eq!(chunked, expected, "{at}, seeded chunks");
            assert_eq!(
                while_aligned(&one_frame_at_a_time(&stream)),
                while_aligned(&expected),
                "{at}, one frame per reader"
            );
        }
    }
}

#[test]
fn glued_good_frames_decode_in_order_and_end_in_a_clean_hangup() {
    let messages = all_messages();
    let stream: Vec<u8> = messages.iter().flat_map(wire).collect();
    let salt = label_salt("wire-path/glued");
    for round in 0..32 {
        let mut rng = stream_rng(7, salt, round);
        let mut reader = FrameReader::new(Pieces {
            bytes: &stream,
            chunk: || rng.gen_range(1..=200),
        });
        for message in &messages {
            assert_eq!(&reader.recv().unwrap(), message);
        }
        assert_eq!(
            reader.recv(),
            Err(NetError::Truncated { section: "header" })
        );
    }
}

#[test]
fn an_inflated_length_is_refused_before_the_buffer_grows_for_it() {
    // Twelve header bytes declaring 4 GiB, trickled in one at a time with a valid frame
    // in front. The refusal must come from the header alone: a reader that grew its
    // buffer first would ask for 4 GiB, and one that waited for the payload would
    // report truncation instead.
    let mut stream = wire(&Message::StatsRequest);
    let mut header = encode_frame(TYPE_ERROR, b"")[..FRAME_HEADER_LEN].to_vec();
    header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    stream.extend_from_slice(&header);
    let got = conversation(&stream, || 1);
    assert_eq!(got[0], Ok(Message::StatsRequest));
    for after in &got[1..] {
        assert_eq!(
            after,
            &Err(NetError::Oversized {
                declared: u64::from(u32::MAX),
                max: u64::from(MAX_PAYLOAD_LEN),
            })
        );
    }
}

// ---------------------------------------------------------------------------
// Coalescing keeps the conversation exact

/// Serves a 40-node ring with a pending-batch bound of 2.
fn serve_ring(tag: &str) -> sfoverlay::net::WorkerServerHandle {
    let dir = std::env::temp_dir().join(format!("sfo-wire-path-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ring.sfos");
    SnapshotFile {
        csr: ring_graph(40, 2).unwrap().freeze(),
        shards: None,
        provenance: Some(Provenance {
            label: format!("wire-path-{tag}"),
            m: 2,
            cutoff: None,
            seed: 7,
            realization: 0,
            sweep_seed: 11,
            origin: None,
        }),
    }
    .save(&path)
    .unwrap();
    WorkerServer::bind(&ServeConfig {
        snapshot_path: path.display().to_string(),
        listen: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        shard_count: 1,
        shard_index: None,
        mmap: false,
        queue_bound: 2,
    })
    .unwrap()
    .spawn()
}

/// Dials the worker, reads its `Hello`, and arms a read timeout so a reply stranded in
/// the worker's outbox fails the test instead of hanging it.
fn dial(addr: &str) -> NetStream {
    let mut stream = NetStream::connect(addr).unwrap();
    let NetStream::Tcp(tcp) = &stream else {
        panic!("a host:port address is a TCP socket");
    };
    tcp.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::Hello(_)
    ));
    stream
}

/// A flood of `jobs` searches at one TTL: sizeable when `jobs` is, and different TTLs
/// give different outcomes, so a reply in the wrong position cannot pass for the right
/// one.
fn flood(ttl: u32, jobs: u64) -> Message {
    Message::SubmitBatch(BatchRequest::SweepRange {
        seed: 5,
        start: 0,
        end: jobs,
        searches_per_point: jobs,
        ttls: vec![ttl],
        search: SearchSpec::Flooding,
    })
}

#[test]
fn a_pipelined_burst_is_answered_in_order_with_the_bytes_of_one_at_a_time() {
    let handle = serve_ring("burst");
    let batches: Vec<Message> = (1..=8).map(|ttl| flood(ttl, 20_000)).collect();

    // One at a time: never more than one batch pending, so none is shed.
    let mut calm = dial(handle.addr());
    let reference: Vec<(u16, Vec<u8>)> = batches
        .iter()
        .map(|batch| {
            send_message(&mut calm, batch).unwrap();
            let reply = recv_message(&mut calm).unwrap();
            assert!(matches!(reply, Message::BatchResult { .. }), "{reply:?}");
            reply.encode()
        })
        .collect();

    // The burst: every batch, with an unknown frame type and a short `LoadShard`
    // (both checksummed, so the stream stays aligned) in between, in a single write.
    let mut burst = Vec::new();
    let mut expected: Vec<Option<usize>> = Vec::new();
    for (index, batch) in batches.iter().enumerate() {
        burst.extend_from_slice(&wire(batch));
        expected.push(Some(index));
        if index % 3 == 0 {
            burst.extend_from_slice(&encode_frame(999, b""));
            burst.extend_from_slice(&encode_frame(TYPE_LOAD_SHARD, &[0u8; 4]));
            expected.extend([None, None]);
        }
    }
    let mut stream = dial(handle.addr());
    stream.write_all(&burst).unwrap();
    // The client now goes quiet and only reads: every reply must arrive.
    let (mut served, mut shed) = (0, 0);
    for (position, expected) in expected.iter().enumerate() {
        let reply = recv_message(&mut stream)
            .unwrap_or_else(|e| panic!("reply {position} never arrived: {e}"));
        match (expected, &reply) {
            (Some(index), Message::BatchResult { .. }) => {
                assert_eq!(reply.encode(), reference[*index], "reply {position}");
                served += 1;
            }
            (Some(_), Message::Overloaded { limit: 2, .. }) => shed += 1,
            (None, Message::Error { .. }) => {}
            _ => panic!("reply {position} is out of order: {reply:?}"),
        }
    }
    assert!(served >= 2, "the first two batches are always admitted");
    assert!(
        shed >= 1,
        "eight sizeable batches in one segment against a bound of 2 must shed"
    );

    // The connection is still in step: one more exchange round-trips.
    send_message(&mut stream, &batches[0]).unwrap();
    assert_eq!(recv_message(&mut stream).unwrap().encode(), reference[0]);
    handle.stop();
}

#[test]
fn cheap_replies_queued_behind_each_other_all_arrive_when_the_client_goes_quiet() {
    // Many tiny batches written back to back with no read in between: the executor
    // finds a backlog after most of them, so most replies are coalesced — and the
    // last ones must still leave the moment the backlog is empty.
    let handle = serve_ring("quiet");
    let mut stream = dial(handle.addr());
    let requests: Vec<Message> = (0..200).map(|i| flood(1 + i % 7, 1)).collect();
    for request in &requests {
        // Past the bound the worker answers `Overloaded`; either way it answers.
        send_message(&mut stream, request).unwrap();
    }
    let mut calm = dial(handle.addr());
    for (position, request) in requests.iter().enumerate() {
        let reply = recv_message(&mut stream)
            .unwrap_or_else(|e| panic!("reply {position} never arrived: {e}"));
        if !matches!(reply, Message::Overloaded { .. }) {
            send_message(&mut calm, request).unwrap();
            assert_eq!(
                reply.encode(),
                recv_message(&mut calm).unwrap().encode(),
                "reply {position}"
            );
        }
    }
    handle.stop();
}

#[test]
fn a_desync_is_answered_once_behind_every_earlier_reply_and_then_dropped() {
    let handle = serve_ring("desync");
    let mut calm = dial(handle.addr());
    let batches = [flood(3, 5_000), flood(4, 1)];
    let reference: Vec<(u16, Vec<u8>)> = batches
        .iter()
        .map(|batch| {
            send_message(&mut calm, batch).unwrap();
            recv_message(&mut calm).unwrap().encode()
        })
        .collect();

    let mut burst: Vec<u8> = batches.iter().flat_map(wire).collect();
    burst.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
    let mut stream = dial(handle.addr());
    stream.write_all(&burst).unwrap();
    for expected in &reference {
        assert_eq!(&recv_message(&mut stream).unwrap().encode(), expected);
    }
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::Error { .. }
    ));
    assert!(matches!(
        recv_message(&mut stream),
        Err(NetError::Truncated { section: "header" }) | Err(NetError::Io { .. })
    ));
    handle.stop();
}
