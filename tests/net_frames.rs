//! Corruption matrix for the `sfo-net` frame codec, mirroring the snapshot matrix in
//! `tests/snapshot_roundtrip.rs`: every way a frame can be malformed — wrong magic,
//! unknown version or message type, truncation in every section, checksum mismatches,
//! oversized declared lengths, lying inner counts — must surface as a typed
//! [`NetError`], never a panic and never a silently wrong message; and every
//! well-formed message must round-trip bit-exactly.

use sfoverlay::graph::generators::ring_graph;
use sfoverlay::net::frame::{
    encode_frame, read_frame, FRAME_HEADER_LEN, MAX_PAYLOAD_LEN, PROTOCOL_VERSION,
};
use sfoverlay::net::message::{
    recv_message, send_message, BatchRequest, FrontierResult, Hello, Message, ShardPayload,
    TYPE_BATCH_RESULT, TYPE_ERROR, TYPE_HELLO, TYPE_SHUFFLE, TYPE_SUBMIT_BATCH, WHOLE_SNAPSHOT,
};
use sfoverlay::net::overlay::{OverlayMessage, PeerRef};
use sfoverlay::net::NetError;
use sfoverlay::prelude::{
    shard_range, NodeId, PlacedAlgorithm, PlacedState, QueryBatch, SearchOutcome, SearchSpec,
};

/// A mid-flight placed search with a non-trivial visited delta and queue, so every
/// variable-length section of the frontier encoding is exercised.
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

/// Shard 1 of a 3-way placement over a 10-node ring — the canonical range `4..7`.
fn sample_shard() -> ShardPayload {
    let csr = ring_graph(10, 2).unwrap().freeze();
    ShardPayload {
        identity: 0xABCD_EF01_2345_6789,
        shard_index: 1,
        shard_count: 3,
        slice: csr.extract_slice(shard_range(10, 3, 1)),
    }
}

/// One of every message kind, with both batch-request shapes.
fn all_messages() -> Vec<Message> {
    let mut batch = QueryBatch::new();
    batch.push(NodeId::new(0), 0, 1);
    batch.push(NodeId::new(41), 1, 6);
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
                SearchSpec::ProbabilisticFlooding { p: 0.25 },
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
        Message::Overlay(OverlayMessage::Join {
            origin: PeerRef::new(17, "10.0.0.5:9200"),
            walks: 2,
        }),
        Message::Overlay(OverlayMessage::ForwardJoin {
            origin: PeerRef::new(17, "10.0.0.5:9200"),
            ttl: 8,
        }),
        Message::Overlay(OverlayMessage::Shuffle {
            from: PeerRef::new(2, "10.0.0.2:9200"),
            peers: vec![
                PeerRef::new(5, "10.0.0.5:9200"),
                PeerRef::new(6, "unix:/tmp/peer-6.sock"),
            ],
            reply: false,
        }),
        Message::Overlay(OverlayMessage::Probe {
            from: PeerRef::new(3, "10.0.0.3:9200"),
            nonce: u64::MAX,
            ack: true,
        }),
        Message::Overlay(OverlayMessage::Leave {
            from: PeerRef::new(4, "10.0.0.4:9200"),
        }),
        Message::LoadShard(sample_shard()),
        Message::ForwardFrontier {
            identity: 0xFEED_F00D_DEAD_BEEF,
            state: sample_frontier(),
        },
        Message::FrontierResult(FrontierResult::Done(SearchOutcome::new(12, 99))),
        Message::FrontierResult(FrontierResult::Continue(PlacedState {
            algorithm: PlacedAlgorithm::MultipleRandomWalk { walkers: 4 },
            walk_phase: true,
            current: 7,
            previous: 3,
            walker: 2,
            steps_done: 5,
            queue: Vec::new(),
            ..sample_frontier()
        })),
    ]
}

/// The three placed frame kinds, each with every variable-length section populated.
fn placed_messages() -> Vec<Message> {
    let mut messages = all_messages();
    messages.retain(|m| {
        matches!(
            m,
            Message::LoadShard(_) | Message::ForwardFrontier { .. } | Message::FrontierResult(_)
        )
    });
    assert_eq!(messages.len(), 4);
    messages
}

#[test]
fn every_message_round_trips_bit_exactly() {
    for message in all_messages() {
        let mut wire = Vec::new();
        send_message(&mut wire, &message).unwrap();
        let back = recv_message(&mut wire.as_slice()).unwrap();
        assert_eq!(back, message);
        // Encoding is deterministic: the same message produces the same bytes.
        let mut again = Vec::new();
        send_message(&mut again, &message).unwrap();
        assert_eq!(again, wire);
    }
}

#[test]
fn messages_stream_back_to_back() {
    let messages = all_messages();
    let mut wire = Vec::new();
    for message in &messages {
        send_message(&mut wire, message).unwrap();
    }
    let mut reader = wire.as_slice();
    for message in &messages {
        assert_eq!(&recv_message(&mut reader).unwrap(), message);
    }
    // The stream ends cleanly on a frame boundary.
    assert!(matches!(
        recv_message(&mut reader),
        Err(NetError::Truncated { section: "header" })
    ));
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = encode_frame(TYPE_HELLO, &[0u8; 32]);
    bytes[..4].copy_from_slice(b"HTTP");
    assert!(matches!(
        read_frame(&mut bytes.as_slice()),
        Err(NetError::BadMagic { found }) if &found == b"HTTP"
    ));
}

#[test]
fn unknown_versions_are_rejected_with_the_found_value() {
    let mut bytes = encode_frame(TYPE_ERROR, &{
        let mut p = Vec::new();
        p.extend_from_slice(&1u32.to_le_bytes());
        p.push(b'x');
        p
    });
    let future = PROTOCOL_VERSION + 41;
    bytes[4..6].copy_from_slice(&future.to_le_bytes());
    assert!(matches!(
        read_frame(&mut bytes.as_slice()),
        Err(NetError::UnsupportedVersion { found }) if found == future
    ));
}

#[test]
fn unknown_message_types_are_rejected() {
    let bytes = encode_frame(999, b"");
    let (message_type, payload) = read_frame(&mut bytes.as_slice()).unwrap();
    assert!(matches!(
        Message::decode(message_type, &payload),
        Err(NetError::UnknownFrameType { found: 999 })
    ));
}

#[test]
fn truncation_at_every_boundary_is_typed_never_a_panic() {
    let message = &all_messages()[2]; // the biggest payload: a Queries request
    let mut wire = Vec::new();
    send_message(&mut wire, message).unwrap();
    for cut in 0..wire.len() {
        let result = recv_message(&mut &wire[..cut]);
        assert!(
            matches!(result, Err(NetError::Truncated { .. })),
            "cut at {cut}: {result:?}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    // The FNV trailer (or a structural check it guards) must catch any one-byte
    // corruption anywhere in the frame.
    let mut wire = Vec::new();
    send_message(
        &mut wire,
        &Message::BatchResult {
            outcomes: vec![SearchOutcome::new(3, 7); 5],
        },
    )
    .unwrap();
    for i in 0..wire.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupted = wire.clone();
            corrupted[i] ^= bit;
            assert!(
                recv_message(&mut corrupted.as_slice()).is_err(),
                "flip of bit {bit:#04x} at byte {i} went unnoticed"
            );
        }
    }
}

#[test]
fn oversized_declared_lengths_error_before_allocation() {
    // Declares 4 GiB with a 12-byte header and nothing behind it. If the reader tried
    // to allocate first, this test would OOM rather than fail an assertion.
    let mut header = Vec::with_capacity(FRAME_HEADER_LEN);
    header.extend_from_slice(b"SFNF");
    header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header.extend_from_slice(&TYPE_ERROR.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_frame(&mut header.as_slice()),
        Err(NetError::Oversized { declared, max })
            if declared == u64::from(u32::MAX) && max == u64::from(MAX_PAYLOAD_LEN)
    ));
    // One past the limit is rejected; the limit itself is the boundary of acceptance.
    let mut header_over = header.clone();
    header_over[8..12].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
    assert!(matches!(
        read_frame(&mut header_over.as_slice()),
        Err(NetError::Oversized { .. })
    ));
}

#[test]
fn inner_counts_lying_about_the_payload_are_bounded_before_allocation() {
    // A BatchResult whose count field claims ~4 billion outcomes (64 GiB of records)
    // inside a 4-byte payload.
    let payload = u32::MAX.to_le_bytes();
    assert!(matches!(
        Message::decode(TYPE_BATCH_RESULT, &payload),
        Err(NetError::Truncated { .. })
    ));

    // A sweep request whose TTL count lies the same way.
    let mut payload = vec![1u8];
    for _ in 0..4 {
        payload.extend_from_slice(&0u64.to_le_bytes());
    }
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode(TYPE_SUBMIT_BATCH, &payload),
        Err(NetError::Truncated { .. })
    ));
}

#[test]
fn overlay_frame_corruption_rows_are_typed() {
    // A shuffle whose peer count lies about the payload is bounded before allocation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u64.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(b"a:99");
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode(TYPE_SHUFFLE, &payload),
        Err(NetError::Truncated { .. })
    ));

    // A probe whose ack flag is neither 0 nor 1 is corrupt, and truncation anywhere
    // inside an overlay frame stays a typed error.
    let message = Message::Overlay(OverlayMessage::Probe {
        from: PeerRef::new(3, "10.0.0.3:9200"),
        nonce: 11,
        ack: false,
    });
    let (frame_type, mut payload) = message.encode();
    *payload.last_mut().unwrap() = 7;
    assert!(matches!(
        Message::decode(frame_type, &payload),
        Err(NetError::Corrupt { .. })
    ));
    let mut wire = Vec::new();
    send_message(&mut wire, &message).unwrap();
    for cut in 0..wire.len() {
        assert!(matches!(
            recv_message(&mut &wire[..cut]),
            Err(NetError::Truncated { .. })
        ));
    }
}

#[test]
fn trailing_payload_bytes_are_corrupt() {
    let (message_type, mut payload) = Message::LoadSnapshot {
        path: "x.sfos".to_string(),
    }
    .encode();
    payload.extend_from_slice(b"extra");
    assert!(matches!(
        Message::decode(message_type, &payload),
        Err(NetError::Corrupt { .. })
    ));
}

#[test]
fn invalid_utf8_and_malformed_specs_are_corrupt() {
    // A LoadSnapshot whose path bytes are not UTF-8.
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]);
    assert!(matches!(
        Message::decode(sfoverlay::net::message::TYPE_LOAD_SNAPSHOT, &payload),
        Err(NetError::Corrupt { .. })
    ));

    // A sweep request naming an algorithm this build has never heard of.
    let (message_type, payload) = Message::SubmitBatch(BatchRequest::SweepRange {
        seed: 1,
        start: 0,
        end: 1,
        searches_per_point: 1,
        ttls: vec![1],
        search: SearchSpec::Flooding,
    })
    .encode();
    let good = String::from_utf8_lossy(&payload).into_owned();
    assert!(good.contains("flooding"));
    let bad = payload
        .windows("flooding".len())
        .position(|w| w == b"flooding")
        .map(|at| {
            let mut p = payload.clone();
            p[at..at + 8].copy_from_slice(b"floodxng");
            p
        })
        .expect("the encoded spec names its algorithm");
    assert!(matches!(
        Message::decode(message_type, &bad),
        Err(NetError::Corrupt { .. })
    ));
}

#[test]
fn placed_frames_detect_every_single_bit_flip() {
    // The FNV trailer (or a structural check it guards) must catch any one-byte
    // corruption in a LoadShard, ForwardFrontier, or FrontierResult frame.
    for message in placed_messages() {
        let mut wire = Vec::new();
        send_message(&mut wire, &message).unwrap();
        for i in 0..wire.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupted = wire.clone();
                corrupted[i] ^= bit;
                assert!(
                    recv_message(&mut corrupted.as_slice()).is_err(),
                    "{message:?}: flip of bit {bit:#04x} at byte {i} went unnoticed"
                );
            }
        }
    }
}

#[test]
fn placed_frames_truncated_at_every_boundary_are_typed_never_a_panic() {
    for message in placed_messages() {
        let mut wire = Vec::new();
        send_message(&mut wire, &message).unwrap();
        for cut in 0..wire.len() {
            let result = recv_message(&mut &wire[..cut]);
            assert!(
                matches!(result, Err(NetError::Truncated { .. })),
                "{message:?}: cut at {cut}: {result:?}"
            );
        }
    }
}

#[test]
fn lying_frontier_lengths_are_bounded_before_allocation() {
    // The frontier's fixed prefix: identity(8) + algorithm tag+param(9) + phase(1)
    // + source/ttl(8) + hits/messages(16) + current/previous/walker/steps(16)
    // + rng(32) = 90 bytes; the visited count is the u32 right after it.
    let (frame_type, payload) = Message::ForwardFrontier {
        identity: 1,
        state: sample_frontier(),
    }
    .encode();
    let visited_count_at = 90;
    assert_eq!(
        &payload[visited_count_at..visited_count_at + 4],
        &2u32.to_le_bytes()
    );
    let mut lying = payload.clone();
    lying[visited_count_at..visited_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &lying),
        Err(NetError::Truncated { .. })
    ));

    // A queue count claiming u32::MAX (48 GiB of records) in a tiny payload. With no
    // visited records, the queue count sits right after the (zero) visited count.
    let mut state = sample_frontier();
    state.visited.clear();
    let (frame_type, payload) = Message::ForwardFrontier { identity: 1, state }.encode();
    let queue_count_at = visited_count_at + 4;
    assert_eq!(
        &payload[queue_count_at..queue_count_at + 4],
        &2u32.to_le_bytes()
    );
    let mut lying = payload.clone();
    lying[queue_count_at..queue_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &lying),
        Err(NetError::Truncated { .. })
    ));

    // A FrontierResult::Continue is the same state encoding behind a 1-byte tag.
    let (frame_type, payload) =
        Message::FrontierResult(FrontierResult::Continue(sample_frontier())).encode();
    let count_at = 1 + visited_count_at - 8; // tag replaces the identity prefix
    assert_eq!(&payload[count_at..count_at + 4], &2u32.to_le_bytes());
    let mut lying = payload.clone();
    lying[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &lying),
        Err(NetError::Truncated { .. })
    ));
}

#[test]
fn lying_shard_lengths_and_indices_are_bounded_before_allocation() {
    let (frame_type, payload) = Message::LoadShard(sample_shard()).encode();

    // Shard 1 of 3 over 10 nodes is rows 4..7: 4 rebased offsets follow the 48-byte
    // fixed prefix (identity 8 + node/edge counts 16 + index/count 8 + range 16), and
    // the target count is the u32 after them. Claiming u32::MAX targets (16 GiB) in
    // this payload must fail on the record bound, not allocate.
    let target_count_at = 48 + 4 * 4;
    let mut lying = payload.clone();
    lying[target_count_at..target_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &lying),
        Err(NetError::Truncated { .. })
    ));

    // The shard index is bytes 24..28. An index outside the partition is corrupt...
    assert_eq!(&payload[24..28], &1u32.to_le_bytes());
    let mut wild = payload.clone();
    wild[24..28].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &wild),
        Err(NetError::Corrupt { .. })
    ));
    // ... and so is an in-range index whose rows are not its canonical range: the
    // shipped range 4..7 is shard 1's, never shard 2's.
    let mut misplaced = payload.clone();
    misplaced[24..28].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &misplaced),
        Err(NetError::Corrupt { .. })
    ));
    // A zero shard count is not a placement at all.
    let mut empty = payload.clone();
    empty[28..32].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        Message::decode(frame_type, &empty),
        Err(NetError::Corrupt { .. })
    ));
}

#[test]
fn a_pinned_worker_refuses_a_load_shard_for_the_wrong_snapshot() {
    use sfoverlay::graph::snapshot::read_identity;
    use sfoverlay::net::placed::shard_payload;
    use sfoverlay::prelude::{Provenance, ServeConfig, SnapshotFile, WorkerClient, WorkerServer};

    let dir = std::env::temp_dir().join(format!("sfo-frames-loadshard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ring.sfos");
    SnapshotFile {
        csr: ring_graph(30, 2).unwrap().freeze(),
        shards: None,
        provenance: Some(Provenance {
            label: "frames-loadshard".to_string(),
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
    let path = path.to_string_lossy().into_owned();

    let server = WorkerServer::bind(&ServeConfig {
        snapshot_path: path.clone(),
        listen: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        shard_count: 3,
        shard_index: Some(1),
        mmap: false,
        queue_bound: 0,
    })
    .unwrap();
    let handle = server.spawn();

    let identity = read_identity(&path).unwrap();
    let csr = SnapshotFile::load(&path).unwrap().csr;
    let mut client = WorkerClient::connect(handle.addr()).unwrap();
    assert_eq!(client.hello().shard_index, 1);

    // The exact rows the server already holds, but stamped with a foreign identity:
    // a pinned worker must refuse rather than silently serve a different realization.
    let foreign = shard_payload(&csr, identity ^ 0xBAD, 3, 1);
    let refused = client.load_shard(foreign);
    assert!(
        matches!(&refused, Err(NetError::Remote { message }) if message.contains("refusing")),
        "{refused:?}"
    );
    // The wrong slot of the right snapshot is refused the same way.
    let misplaced = shard_payload(&csr, identity, 3, 0);
    assert!(matches!(
        client.load_shard(misplaced),
        Err(NetError::Remote { .. })
    ));
    // The connection survives both refusals, and the exact coordinates are accepted.
    let accepted = client
        .load_shard(shard_payload(&csr, identity, 3, 1))
        .unwrap();
    assert_eq!(accepted.shard_index, 1);
    assert_eq!(accepted.shard_count, 3);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_whose_reply_cannot_fit_in_a_frame_is_refused_before_it_runs() {
    use sfoverlay::prelude::{Provenance, ServeConfig, SnapshotFile, WorkerClient, WorkerServer};

    let dir = std::env::temp_dir().join(format!("sfo-frames-reply-size-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ring.sfos");
    SnapshotFile {
        csr: ring_graph(30, 2).unwrap().freeze(),
        shards: None,
        provenance: Some(Provenance {
            label: "frames-reply-size".to_string(),
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

    let server = WorkerServer::bind(&ServeConfig {
        snapshot_path: path.to_string_lossy().into_owned(),
        listen: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        shard_count: 1,
        shard_index: None,
        mmap: false,
        queue_bound: 0,
    })
    .unwrap();
    let handle = server.spawn();
    let mut client = WorkerClient::connect(handle.addr()).unwrap();

    // A `BatchResult` carries a 4-byte count and 16 bytes per outcome, so one frame
    // holds at most this many outcomes.
    let most = u64::from((MAX_PAYLOAD_LEN - 4) / 16);
    let range = |end: u64| BatchRequest::SweepRange {
        seed: 1,
        start: 0,
        end,
        searches_per_point: end,
        ttls: vec![0],
        search: SearchSpec::Flooding,
    };
    for end in [most + 1, 1 << 40] {
        let refused = client.submit(&range(end));
        assert!(
            matches!(&refused, Err(NetError::Remote { message })
                if message.contains(&most.to_string())),
            "{end} jobs: {refused:?}"
        );
    }
    // The connection survives both refusals.
    assert!(client.stats().is_ok());
    let fits = client.submit(&range(3)).unwrap();
    assert_eq!(fits, vec![SearchOutcome::new(0, 0); 3]);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
