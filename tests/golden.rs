//! Golden digests: the bytes every JSON writer of the workspace produces, pinned across
//! commits in `tests/golden/DIGESTS`.
//!
//! The equivalence suites compare two paths of one build. This file compares a build
//! with the bytes an earlier one wrote, so a refactor that changes a spec, a report, a
//! search-spec frame or an error message shows up as a changed line. Each line is
//! `name length fnv1a64`, where `length` is the byte length of the artifact and the hash
//! is the FNV-1a 64 that `sfo-graph::snapshot` exports. The lines cover:
//!
//! * the canonical re-emission of every `examples/*.json` and
//!   `benchmark/workloads/**/*.json` (read only);
//! * the output of each `sfo scenario template` kind;
//! * the reports of `examples/scenario_smoke.json` and of shrunk degree, churn, trace
//!   and live examples;
//! * one `MetricsSnapshot`;
//! * the encoded `SubmitBatch` frame for each search algorithm;
//! * one encoded frame of each SFNF message kind with fixed contents, covering both
//!   `BatchRequest` and both `FrontierResult` shapes;
//! * the first 64 words of `stream_rng` for three labels;
//! * the `SFOS` bytes `sfo snapshot build --shards 4` writes for
//!   `examples/scenario_snapshot_build.json` and the `pa30k` benchmark snapshot;
//! * the CSR arrays of one DAPA-over-GRN and one DAPA-over-mesh realization whose hard
//!   cutoff binds;
//! * the message of every malformed-input case: for each JSON type, an unknown member,
//!   a missing required member, a wrong-typed member and, for tagged types, an unknown
//!   tag.
//!
//! Rewrite the file with `SFO_BLESS=1 cargo test --test golden`, and say in the change
//! log which lines moved and why.

use rand::RngCore;
use sfoverlay::graph::generators::ring_graph;
use sfoverlay::graph::snapshot::fnv1a64;
use sfoverlay::net::frame::encode_frame;
use sfoverlay::net::message::{BatchRequest, FrontierResult, Hello, Message, ShardPayload};
use sfoverlay::net::overlay::{OverlayMessage, PeerRef};
use sfoverlay::prelude::*;
use sfoverlay::scenario::json::{FromJson, JsonValue, ToJson};
use sfoverlay::search::experiment::{label_salt, stream_rng};
use sfoverlay::sim::catalog::ItemId;
use sfoverlay::sim::simulation::OverlaySample;
use sfoverlay::topology::DapaOverMesh;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The artifacts in file order: `(name, bytes)`.
#[derive(Default)]
struct Digests(Vec<(String, Vec<u8>)>);

impl Digests {
    fn add(&mut self, name: impl Into<String>, bytes: impl Into<Vec<u8>>) {
        self.0.push((name.into(), bytes.into()));
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (name, bytes) in &self.0 {
            assert!(!name.contains(' '), "digest names carry no spaces: {name}");
            let _ = writeln!(out, "{name} {} {:016x}", bytes.len(), fnv1a64(bytes));
        }
        out
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn json_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            json_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
}

/// Every checked-in spec file, re-emitted in canonical form.
fn spec_files(digests: &mut Digests) {
    for dir in ["examples", "benchmark/workloads"] {
        let mut files = Vec::new();
        json_files(&root().join(dir), &mut files);
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let name = path.strip_prefix(root()).unwrap().display().to_string();
            let value = JsonValue::parse(&text).unwrap();
            // Scenario specs and load-test workloads are the two spec dialects on disk.
            let canonical = if value.get("arrivals").is_some() {
                WorkloadSpec::parse(&text).unwrap().to_json_string()
            } else {
                ScenarioSpec::parse(&text).unwrap().to_json_string()
            };
            digests.add(format!("spec/{name}"), canonical);
        }
    }
}

fn templates(digests: &mut Digests) {
    for kind in ["static", "degree", "churn", "trace", "live"] {
        let output = Command::new(env!("CARGO_BIN_EXE_sfo"))
            .args(["scenario", "template", kind])
            .output()
            .unwrap();
        assert!(output.status.success(), "template {kind}");
        digests.add(format!("template/{kind}"), output.stdout);
    }
}

fn example(name: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(root().join("examples").join(name)).unwrap();
    ScenarioSpec::parse(&text).unwrap()
}

/// The example reports, shrunk where the example is large. Returns them for the
/// malformed-input matrix, which takes its report samples from here.
fn reports(digests: &mut Digests) -> Vec<ScenarioReport> {
    let dir = std::env::temp_dir().join(format!("sfo-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.display().to_string();

    let smoke = example("scenario_smoke.json");

    let mut degree = example("scenario_degree_pa.json");
    degree.topology = Some(TopologySpec::Pa {
        nodes: 2_000,
        m: 1,
        cutoff: None,
    });
    degree.realizations = 2;

    let mut churn = example("scenario_churn.json");
    churn.realizations = 1;
    if let DynamicsSpec::Churn { sim } = &mut churn.dynamics {
        sim.initial_peers = 120;
        sim.duration = 90;
    }

    let mut trace = example("scenario_trace_cutoff.json");
    trace.realizations = 1;
    if let DynamicsSpec::Trace { trace, run } = &mut trace.dynamics {
        trace.duration = 150;
        run.bootstrap_peers = 80;
    }

    let mut live = example("scenario_live_overlay.json");
    if let DynamicsSpec::Live { live, snapshot } = &mut live.dynamics {
        live.peers = 60;
        *snapshot = dir.join("live_grown.sfos").display().to_string();
    }

    let runner = ScenarioRunner::new();
    let mut reports = Vec::new();
    for (name, spec) in [
        ("smoke", smoke),
        ("degree", degree),
        ("churn", churn),
        ("trace", trace),
        ("live", live),
    ] {
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = runner.run(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The temp dir differs per run; the bytes around it must not.
        let text = report.to_json_string().replace(&tmp, "TMP");
        digests.add(format!("report/{name}"), text);
        reports.push(report);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    reports
}

fn metrics(digests: &mut Digests) {
    let registry = Registry::new();
    registry.counter("engine.jobs").add(1200);
    registry.counter("net.connections").add(3);
    let histogram = registry.histogram("net.request_micros");
    for v in [0, 1, 7, 100, 900, 2000, 4100, 1 << 40] {
        histogram.record(v);
    }
    digests.add(
        "metrics/snapshot",
        registry.snapshot().to_json().to_pretty_string(),
    );
}

fn all_searches() -> Vec<SearchSpec> {
    vec![
        SearchSpec::Flooding,
        SearchSpec::NormalizedFlooding { k_min: Some(3) },
        SearchSpec::ProbabilisticFlooding { p: 0.5 },
        SearchSpec::ExpandingRing {
            initial_ttl: 1,
            increment: 2,
        },
        SearchSpec::RandomWalk,
        SearchSpec::MultipleRandomWalk { walkers: 4 },
        SearchSpec::DegreeBiasedWalk,
        SearchSpec::RwNormalizedToNf { k_min: None },
    ]
}

fn frames(digests: &mut Digests) {
    for search in all_searches() {
        let mut batch = QueryBatch::new();
        batch.push(NodeId::new(3), 0, 4);
        batch.push(NodeId::new(17), 0, 2);
        let name = search
            .to_json()
            .get("algorithm")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let request = Message::SubmitBatch(BatchRequest::Queries {
            seed: 1207,
            index_offset: 40,
            algorithms: vec![search],
            batch,
        });
        let (frame_type, payload) = request.encode();
        digests.add(
            format!("frame/submit_batch/{name}"),
            encode_frame(frame_type, &payload),
        );
    }
}

/// One frame of every SFNF message kind, with fixed contents: both `BatchRequest`
/// shapes, both `FrontierResult` shapes and each overlay message.
fn message_kinds(digests: &mut Digests) {
    let peer = |id: u64| PeerRef::new(id, format!("127.0.0.1:{}", 9200 + id));
    let state = PlacedState {
        algorithm: PlacedAlgorithm::RwNormalizedToNf { k_min: 2 },
        walk_phase: true,
        source: 5,
        ttl: 9,
        hits: 4,
        messages: 11,
        current: 7,
        previous: 3,
        walker: 0,
        steps_done: 2,
        rng: [1, 2, 3, 0x9E37_79B9_7F4A_7C15],
        visited: vec![(0, 0b1010_1000), (2, 1 << 63)],
        queue: vec![(7, 3, 1), (8, u32::MAX, 2)],
    };
    let csr = CsrGraph::from_graph(&ring_graph(12, 2).unwrap());
    let registry = Registry::new();
    registry.counter("net.requests").add(17);
    registry.histogram("net.request_micros").record(42);
    let mut batch = QueryBatch::new();
    batch.push(NodeId::new(1), 0, 3);
    let messages = [
        (
            "hello",
            Message::Hello(Hello {
                identity: 0x0123_4567_89ab_cdef,
                node_count: 1000,
                edge_count: 1997,
                shard_count: 4,
                engine_workers: 2,
                shard_index: 1,
            }),
        ),
        (
            "load_snapshot",
            Message::LoadSnapshot {
                path: "pa30k.sfos".to_string(),
            },
        ),
        (
            "submit_batch_queries",
            Message::SubmitBatch(BatchRequest::Queries {
                seed: 7,
                index_offset: 3,
                algorithms: vec![SearchSpec::Flooding, SearchSpec::RandomWalk],
                batch,
            }),
        ),
        (
            "submit_batch_sweep_range",
            Message::SubmitBatch(BatchRequest::SweepRange {
                seed: 99,
                start: 10,
                end: 250,
                searches_per_point: 100,
                ttls: vec![1, 2, 4, 8],
                search: SearchSpec::NormalizedFlooding { k_min: Some(2) },
            }),
        ),
        (
            "batch_result",
            Message::BatchResult {
                outcomes: vec![SearchOutcome::new(0, 0), SearchOutcome::new(31, 90)],
            },
        ),
        (
            "error",
            Message::Error {
                message: "ttl grid is empty".to_string(),
            },
        ),
        (
            "join",
            Message::Overlay(OverlayMessage::Join {
                origin: peer(1),
                walks: 2,
            }),
        ),
        (
            "forward_join",
            Message::Overlay(OverlayMessage::ForwardJoin {
                origin: peer(2),
                ttl: 5,
            }),
        ),
        (
            "shuffle",
            Message::Overlay(OverlayMessage::Shuffle {
                from: peer(3),
                peers: vec![peer(4), peer(5)],
                reply: true,
            }),
        ),
        (
            "probe",
            Message::Overlay(OverlayMessage::Probe {
                from: peer(6),
                nonce: 0xfeed,
                ack: false,
            }),
        ),
        (
            "leave",
            Message::Overlay(OverlayMessage::Leave { from: peer(7) }),
        ),
        ("stats_request", Message::StatsRequest),
        ("stats_report", Message::StatsReport(registry.snapshot())),
        (
            "load_shard",
            Message::LoadShard(ShardPayload {
                identity: 0xabcd,
                shard_index: 1,
                shard_count: 3,
                slice: csr.extract_slice(4..8),
            }),
        ),
        (
            "forward_frontier",
            Message::ForwardFrontier {
                identity: 0xabcd,
                state: state.clone(),
            },
        ),
        (
            "frontier_result_done",
            Message::FrontierResult(FrontierResult::Done(SearchOutcome::new(12, 40))),
        ),
        (
            "frontier_result_continue",
            Message::FrontierResult(FrontierResult::Continue(state)),
        ),
        (
            "overloaded",
            Message::Overloaded {
                queued: 64,
                limit: 64,
            },
        ),
    ];
    for (name, message) in messages {
        let (frame_type, payload) = message.encode();
        digests.add(
            format!("frame/kind/{name}"),
            encode_frame(frame_type, &payload),
        );
    }
}

/// The first 64 words of three labelled `stream_rng` streams: the vendored PRNG and
/// the seed derivation every seeded result rests on.
fn rng_streams(digests: &mut Digests) {
    for label in ["fig6", "churn-trace", "PA m=2 k_c=10"] {
        let mut rng = stream_rng(2007, label_salt(label), 3);
        let words: Vec<u8> = (0..64).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
        digests.add(format!("rng/stream/{}", label.replace(' ', "_")), words);
    }
}

/// The snapshot files `sfo snapshot build --shards 4` writes for two checked-in build
/// specs: topology, shard count and provenance, byte for byte.
fn snapshots(digests: &mut Digests) {
    for name in [
        "examples/scenario_snapshot_build.json",
        "benchmark/workloads/snapshots/pa30k.json",
    ] {
        let text = std::fs::read_to_string(root().join(name)).unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap();
        let file = build_snapshot(&spec, 4).unwrap_or_else(|e| panic!("{name}: {e}"));
        digests.add(format!("sfos/{name}"), file.to_bytes());
    }
}

/// The CSR arrays (`offsets`, then `targets`, as little-endian `u32`) of one DAPA-over-GRN
/// and one DAPA-over-mesh realization of 2000 nodes, in that order, on one line. The hard
/// cutoff `k_c = 10` binds on both, so the line moves if DAPA ever admits a saturated peer
/// or changes a draw.
fn dapa_realizations(digests: &mut Digests) {
    let cutoff = DegreeCutoff::hard(10);
    let generators: [Box<dyn TopologyGenerator>; 2] = [
        Box::new(DapaOverGrn::new(2_000, 2, 4).unwrap().with_cutoff(cutoff)),
        Box::new(DapaOverMesh::new(2_000, 2, 4).unwrap().with_cutoff(cutoff)),
    ];
    let mut bytes = Vec::new();
    for generator in &generators {
        let mut rng = stream_rng(2007, label_salt(generator.name()), 0);
        let graph = generator.generate(&mut rng).unwrap();
        assert_eq!(graph.max_degree(), Some(10), "{}", generator.name());
        let csr = CsrGraph::from_graph(&graph);
        let (offsets, targets) = csr.raw_parts();
        bytes.extend(offsets.iter().flat_map(|o| o.to_le_bytes()));
        bytes.extend(targets.iter().flat_map(|t| t.as_u32().to_le_bytes()));
    }
    digests.add("csr/dapa/grn+mesh", bytes);
}

/// The malformed-input cases of one JSON type, built from a valid sample: an unknown
/// member, the first member whose absence is refused, the first member with a value of
/// the wrong JSON type and, when the type is tagged by `tag`, an unknown tag.
fn malformed<T: ToJson + FromJson>(
    digests: &mut Digests,
    name: &str,
    sample: &T,
    tag: Option<&str>,
) {
    let decode = |value: JsonValue| -> String {
        match T::from_json(&value) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        }
    };
    let JsonValue::Object(members) = sample.to_json() else {
        panic!("{name}: samples are objects");
    };
    assert_eq!(decode(JsonValue::Object(members.clone())), "ok", "{name}");

    let mut unknown = members.clone();
    unknown.push(("bogus".to_string(), JsonValue::from_u64(1)));
    digests.add(
        format!("error/{name}/unknown"),
        decode(JsonValue::Object(unknown)),
    );

    let fields: Vec<usize> = (0..members.len())
        .filter(|&i| Some(members[i].0.as_str()) != tag)
        .collect();
    for &i in &fields {
        let mut missing = members.clone();
        let key = missing.remove(i).0;
        let message = decode(JsonValue::Object(missing));
        if message != "ok" {
            digests.add(format!("error/{name}/missing-{key}"), message);
            break;
        }
    }
    if let Some(&i) = fields.first() {
        let mut wrong = members.clone();
        wrong[i].1 = match wrong[i].1 {
            JsonValue::String(_) => JsonValue::from_u64(1),
            _ => JsonValue::from_str_value("x"),
        };
        let key = &wrong[i].0;
        digests.add(
            format!("error/{name}/wrong-{key}"),
            decode(JsonValue::Object(wrong.clone())),
        );
    }
    if let Some(tag) = tag {
        let mut bogus = members;
        bogus
            .iter_mut()
            .find(|(k, _)| k == tag)
            .expect("tagged samples carry their tag")
            .1 = JsonValue::from_str_value("bogus");
        digests.add(
            format!("error/{name}/tag"),
            decode(JsonValue::Object(bogus)),
        );
    }
}

fn malformed_matrix(digests: &mut Digests, reports: &[ScenarioReport]) {
    let [smoke, degree, churn, trace, live] = reports else {
        panic!("five reports");
    };
    let spec = &smoke.spec;
    malformed(digests, "scenario_spec", spec, None);
    malformed(
        digests,
        "topology_spec",
        &TopologySpec::Cm {
            nodes: 100,
            gamma: 2.5,
            m: 2,
            cutoff: Some(10),
        },
        Some("family"),
    );
    malformed(
        digests,
        "search_spec",
        &SearchSpec::ExpandingRing {
            initial_ttl: 1,
            increment: 2,
        },
        Some("algorithm"),
    );
    malformed(digests, "dynamics_spec", &churn.spec.dynamics, Some("kind"));
    malformed(digests, "sweep_spec", spec.sweep.as_ref().unwrap(), None);
    malformed(
        digests,
        "measure_spec",
        &MeasureSpec::DegreeDistribution { bins_per_decade: 8 },
        Some("kind"),
    );

    let sim = SimulationConfig::small();
    let run = TraceRunConfig::small();
    let trace_config = ChurnTraceConfig {
        duration: 500,
        arrival_rate: 0.4,
        sessions: SessionModel::Pareto {
            shape: 1.6,
            minimum: 30.0,
        },
        crash_fraction: 0.25,
    };
    malformed(
        digests,
        "join_strategy",
        &JoinStrategy::HopAndAttempt {
            max_hops_per_link: 200,
        },
        Some("strategy"),
    );
    malformed(digests, "overlay_config", &sim.overlay, None);
    malformed(
        digests,
        "query_method",
        &QueryMethod::NormalizedFlooding { k_min: 3 },
        Some("method"),
    );
    malformed(digests, "simulation_config", &sim, None);
    malformed(
        digests,
        "session_model",
        &trace_config.sessions,
        Some("model"),
    );
    malformed(digests, "churn_trace_config", &trace_config, None);
    malformed(
        digests,
        "workload",
        &Workload::FlashCrowd {
            hot_item: ItemId::new(3),
            start: 10,
            end: 90,
            intensity: 0.75,
        },
        Some("kind"),
    );
    malformed(digests, "trace_run_config", &run, None);
    malformed(
        digests,
        "overlay_sample",
        &OverlaySample {
            time: 42,
            peers: 100,
            edges: 280,
            mean_degree: 5.6,
            max_degree: 30,
            giant_component_fraction: 0.987654321,
        },
        None,
    );
    malformed(digests, "protocol_config", &ProtocolConfig::small(), None);
    malformed(digests, "live_config", &LiveConfig::small(), None);
    // The replication strategy is a bare string, not an object.
    digests.add(
        "error/replication_strategy/tag",
        ReplicationStrategy::from_json(&JsonValue::from_str_value("bogus"))
            .unwrap_err()
            .to_string(),
    );

    let curve = &smoke.sweep_curves().unwrap()[0];
    malformed(digests, "stat", &curve.points[0].hits, None);
    malformed(digests, "sweep_point", &curve.points[0], None);
    malformed(digests, "sweep_curve", curve, None);
    let degree_curve = &degree.degree_curves().unwrap()[0];
    malformed(digests, "degree_bin_point", &degree_curve.points[0], None);
    malformed(digests, "degree_curve", degree_curve, None);
    malformed(
        digests,
        "churn_realization",
        &churn.churn_realizations().unwrap()[0],
        None,
    );
    malformed(
        digests,
        "trace_realization",
        &trace.trace_realizations().unwrap()[0],
        None,
    );
    malformed(
        digests,
        "live_realization",
        &live.live_realizations().unwrap()[0],
        None,
    );
    malformed(digests, "scenario_result", &smoke.result, Some("kind"));
    malformed(digests, "scenario_report", smoke, None);

    let workload_text =
        std::fs::read_to_string(root().join("benchmark/workloads/serve-small.json"));
    let mut workload = WorkloadSpec::parse(&workload_text.unwrap()).unwrap();
    workload.arrivals = ArrivalSpec::Bursty {
        rate_hz: 500.0,
        shape: 1.5,
        mean_on_secs: 0.2,
        mean_off_secs: 0.3,
    };
    malformed(digests, "arrival_spec", &workload.arrivals, Some("process"));
    malformed(digests, "workload_spec", &workload, None);

    let registry = Registry::new();
    registry.counter("c").add(2);
    registry.histogram("h").record(5);
    malformed(digests, "metrics_snapshot", &registry.snapshot(), None);
}

#[test]
fn json_bytes_match_the_golden_digests() {
    let mut digests = Digests::default();
    spec_files(&mut digests);
    templates(&mut digests);
    let reports = reports(&mut digests);
    metrics(&mut digests);
    frames(&mut digests);
    message_kinds(&mut digests);
    rng_streams(&mut digests);
    snapshots(&mut digests);
    dapa_realizations(&mut digests);
    malformed_matrix(&mut digests, &reports);
    let rendered = digests.render();

    let path = root().join("tests/golden/DIGESTS");
    if std::env::var_os("SFO_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("tests/golden/DIGESTS exists (bless it with SFO_BLESS=1)");
    if rendered != expected {
        let old: Vec<&str> = expected.lines().collect();
        let new: Vec<&str> = rendered.lines().collect();
        let mut report = String::new();
        for line in &old {
            if !new.contains(line) {
                let _ = writeln!(report, "- {line}");
            }
        }
        for line in &new {
            if !old.contains(line) {
                let _ = writeln!(report, "+ {line}");
            }
        }
        panic!("golden digests changed (SFO_BLESS=1 rewrites them):\n{report}");
    }
}
