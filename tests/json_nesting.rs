//! JSON nested past the parser's limit is a typed error at every entry point that reads
//! it — spec files on the command line and search specs inside wire frames — and never
//! a stack overflow: the scenario parser recurses once per level, a connection thread
//! has a small stack, and no `catch_unwind` can stop an overflow from aborting the
//! whole process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfoverlay::graph::generators::ring_graph;
use sfoverlay::graph::snapshot::{Provenance, SnapshotFile};
use sfoverlay::net::frame::encode_frame;
use sfoverlay::net::message::{
    recv_message, send_message, BatchRequest, Message, TYPE_SUBMIT_BATCH,
};
use sfoverlay::net::{NetStream, ServeConfig, WorkerServer};
use sfoverlay::prelude::{
    Flooding, NodeId, QueryBatch, ScenarioError, ScenarioReport, ScenarioSpec, SearchAlgorithm,
    SearchSpec, WorkloadSpec,
};
use sfoverlay::scenario::json::{JsonValue, ToJson, MAX_NESTING};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfo-json-nesting-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn spec_files_nested_past_the_limit_are_refused_with_a_position() {
    // 200 000 unclosed brackets behind a comment line, as a spec file might start.
    let text = format!("// hostile\n{}", "[".repeat(200_000));
    let too_deep = ScenarioError::NestingTooDeep {
        limit: MAX_NESTING,
        line: 2,
        column: MAX_NESTING + 1,
    };
    assert_eq!(ScenarioSpec::parse(&text).unwrap_err(), too_deep);
    assert_eq!(WorkloadSpec::parse(&text).unwrap_err(), too_deep);
    assert_eq!(ScenarioReport::parse(&text).unwrap_err(), too_deep);

    // The same file on the command line: a clean failure naming the position, not an
    // abort on a signal.
    let path = temp_dir("file").join("deep.json");
    std::fs::write(&path, &text).unwrap();
    let file = path.to_str().unwrap();
    for args in [
        vec!["scenario", "run", file],
        vec!["scenario", "validate", file],
        vec!["loadtest", file, "--worker", "127.0.0.1:9"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_sfo"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "sfo {args:?} must exit 1, not die on a signal: {stderr}"
        );
        assert!(
            stderr.contains("line 2, column 65") && stderr.contains("deeper than 64"),
            "sfo {args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// The two requests that carry search-spec text: a `Queries` batch of one flooding job
/// (the spec in its algorithm table) and a one-point flooding `SweepRange`.
fn flooding_requests() -> [Message; 2] {
    let mut batch = QueryBatch::new();
    batch.push(NodeId::new(0), 0, 2);
    [
        Message::SubmitBatch(BatchRequest::Queries {
            seed: 9,
            index_offset: 0,
            algorithms: vec![SearchSpec::Flooding],
            batch,
        }),
        Message::SubmitBatch(BatchRequest::SweepRange {
            seed: 9,
            start: 0,
            end: 1,
            searches_per_point: 1,
            ttls: vec![2],
            search: SearchSpec::Flooding,
        }),
    ]
}

/// `request` framed and checksummed with its search-spec text replaced by `spec_text`:
/// a well-formed frame around a hostile string.
fn with_spec_text(request: &Message, spec_text: &str) -> Vec<u8> {
    let (frame_type, payload) = request.encode();
    assert_eq!(frame_type, TYPE_SUBMIT_BATCH);
    // The spec travels as a u32 length and that many bytes of JSON.
    let original = SearchSpec::Flooding.to_json().to_pretty_string();
    let text_at = payload
        .windows(original.len())
        .position(|w| w == original.as_bytes())
        .expect("the payload carries the spec text");
    let at = text_at - 4;
    assert_eq!(payload[at..text_at], (original.len() as u32).to_le_bytes());
    let mut hostile = payload[..at].to_vec();
    hostile.extend_from_slice(&(spec_text.len() as u32).to_le_bytes());
    hostile.extend_from_slice(spec_text.as_bytes());
    hostile.extend_from_slice(&payload[text_at + original.len()..]);
    encode_frame(TYPE_SUBMIT_BATCH, &hostile)
}

#[test]
fn a_search_spec_nested_past_the_limit_is_refused_and_the_connection_survives() {
    let dir = temp_dir("wire");
    let path = dir.join("ring.sfos");
    SnapshotFile {
        csr: ring_graph(40, 2).unwrap().freeze(),
        shards: None,
        provenance: Some(Provenance {
            label: "json-nesting".to_string(),
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
    let handle = WorkerServer::bind(&ServeConfig {
        snapshot_path: path.display().to_string(),
        listen: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        shard_count: 1,
        shard_index: None,
        mmap: false,
        queue_bound: 2,
    })
    .unwrap()
    .spawn();

    let mut stream = NetStream::connect(handle.addr()).unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::Hello(_)
    ));
    // 10^5 levels inside one checksummed frame, closed or not, in either request.
    let depth = 100_000;
    for request in &flooding_requests() {
        for text in [
            "[".repeat(depth),
            "[".repeat(depth) + &"]".repeat(depth),
            "{\"algorithm\": ".repeat(depth),
        ] {
            stream.write_all(&with_spec_text(request, &text)).unwrap();
            let Message::Error { message } = recv_message(&mut stream).unwrap() else {
                panic!("a nested search spec must be answered with an Error frame");
            };
            assert!(
                message.contains("deeper than 64"),
                "the error names the limit: {message}"
            );
        }
    }

    // The same connection still serves both requests, and a second one is answered.
    let ring = ring_graph(40, 2).unwrap();
    let expected = Flooding::new().search(&ring, NodeId::new(0), 2, &mut StdRng::seed_from_u64(0));
    for request in &flooding_requests() {
        send_message(&mut stream, request).unwrap();
        let Message::BatchResult { outcomes } = recv_message(&mut stream).unwrap() else {
            panic!("the connection must survive the refused frames");
        };
        assert_eq!(outcomes.len(), 1);
        if let Message::SubmitBatch(BatchRequest::Queries { .. }) = request {
            assert_eq!(outcomes[0], expected);
        }
    }
    let mut second = NetStream::connect(handle.addr()).unwrap();
    assert!(matches!(
        recv_message(&mut second).unwrap(),
        Message::Hello(_)
    ));
    send_message(&mut second, &Message::StatsRequest).unwrap();
    assert!(matches!(
        recv_message(&mut second).unwrap(),
        Message::StatsReport(_)
    ));
    handle.stop();
    std::fs::remove_file(&path).unwrap();
}

/// An object with `width` distinct members `"k0": 0, "k1": 0, ...` after `head`.
fn wide_object(head: &str, width: usize) -> String {
    let mut text = format!("{{{head}");
    for i in 0..width {
        if i > 0 || !head.is_empty() {
            text.push_str(", ");
        }
        text.push_str(&format!("\"k{i}\": 0"));
    }
    text.push('}');
    text
}

#[test]
fn wide_objects_parse_in_near_linear_time_and_duplicates_are_still_refused() {
    // 2·10^5 distinct keys: a quadratic duplicate check would take minutes here.
    let width = 200_000;
    let started = std::time::Instant::now();
    let value = JsonValue::parse(&wide_object("", width)).unwrap();
    assert_eq!(value.as_object().unwrap().len(), width);
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "{width} keys took {elapsed:?}"
    );

    // The same key first and last, with 2·10^5 others between them.
    let text = wide_object("\"dup\": 1", width).replace('}', ", \"dup\": 2}");
    match JsonValue::parse(&text) {
        Err(ScenarioError::Parse { message, .. }) => {
            assert_eq!(message, "duplicate object key \"dup\"")
        }
        other => panic!("a duplicate key must be a parse error, got {other:?}"),
    }
    assert!(JsonValue::parse("{\"a\": 1, \"b\": {\"c\": 2, \"c\": 3}}").is_err());
    assert!(JsonValue::parse("{\"a\": {\"c\": 2}, \"b\": {\"c\": 3}}").is_ok());
}

#[test]
fn a_search_spec_with_a_hundred_thousand_members_is_refused_promptly() {
    let dir = temp_dir("wide");
    let path = dir.join("ring.sfos");
    SnapshotFile {
        csr: ring_graph(40, 2).unwrap().freeze(),
        shards: None,
        provenance: Some(Provenance {
            label: "json-wide".to_string(),
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
    let handle = WorkerServer::bind(&ServeConfig {
        snapshot_path: path.display().to_string(),
        listen: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        shard_count: 1,
        shard_index: None,
        mmap: false,
        queue_bound: 2,
    })
    .unwrap()
    .spawn();

    let mut stream = NetStream::connect(handle.addr()).unwrap();
    let NetStream::Tcp(tcp) = &stream else {
        panic!("the daemon listens on TCP");
    };
    tcp.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::Hello(_)
    ));
    let [queries, _] = flooding_requests();
    let text = wide_object("\"algorithm\": \"flooding\"", 100_000);
    stream.write_all(&with_spec_text(&queries, &text)).unwrap();
    let reply = recv_message(&mut stream)
        .expect("a typed reply within the read timeout, not a thread parsing for minutes");
    let Message::Error { message } = reply else {
        panic!("a search spec with unknown members must be answered with an Error frame");
    };
    assert!(message.contains("unknown field \"k0\""), "{message}");

    // The same connection still serves a request.
    send_message(&mut stream, &queries).unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::BatchResult { .. }
    ));
    handle.stop();
    std::fs::remove_file(&path).unwrap();
}
