//! Placed-vs-local byte identity: the headline invariant of real shard placement.
//!
//! A placed run splits the *topology* (worker `i` holds only shard `i`'s rows) rather
//! than the job grid, and searches hop between hosts as `ForwardFrontier` frames
//! whenever their frontier leaves the rows the current host owns. Because a forwarded
//! frontier carries the search's exact serial state — visited delta, queue, raw RNG
//! words — cross-host traversal is a pure partition of the serial oracle's work (the
//! same expansions: in the same order for the randomized searches, level by level for
//! plain flooding), and the `ScenarioReport.result` must be byte-identical to the
//! single-host run *and* to the whole-snapshot remote path, for any shard count,
//! placement, and interleaving. These tests pin that, plus the failure path when a
//! shard host dies mid-batch, the refusal of a malformed frontier queue, the
//! flooding hop bound, and the `sfo-obs` accounting identity tying forwarded traffic
//! to `boundary_fraction()`.

use sfoverlay::net::frame::encode_frame;
use sfoverlay::net::message::{recv_message, send_message, Hello, Message, WHOLE_SNAPSHOT};
use sfoverlay::net::{NetListener, ServeConfig, WorkerServer};
use sfoverlay::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfo-placed-eq-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds and saves a small snapshot of the given topology; returns its path and the
/// build spec.
fn build_fixture(
    dir: &std::path::Path,
    name: &str,
    topology: TopologySpec,
    seed: u64,
) -> (String, ScenarioSpec) {
    let mut spec = ScenarioSpec::sweep(
        format!("placed-eq-{name}"),
        topology,
        SearchSpec::Flooding,
        SweepSpec::single(vec![1, 2, 3, 5], 9),
        seed,
        1,
    );
    spec.sweep.as_mut().unwrap().batch = true;
    let path = dir.join(format!("{name}.sfos"));
    build_snapshot(&spec, 0).unwrap().save(&path).unwrap();
    (path.display().to_string(), spec)
}

/// Spawns `count` placed workers over the snapshot. When `pinned`, worker `i` is
/// started with `--shard i` and extracts its slice from the file; otherwise the
/// workers come up whole-snapshot and the dispatcher ships each its `LoadShard`.
fn spawn_placed_workers(
    snapshot_path: &str,
    count: usize,
    pinned: bool,
) -> (Vec<sfoverlay::net::WorkerServerHandle>, Vec<String>) {
    let mut handles = Vec::with_capacity(count);
    let mut addrs = Vec::with_capacity(count);
    for w in 0..count {
        let server = WorkerServer::bind(&ServeConfig {
            snapshot_path: snapshot_path.to_string(),
            listen: "127.0.0.1:0".to_string(),
            engine_workers: 1,
            shard_count: if pinned { count } else { 1 + w },
            shard_index: pinned.then_some(w),
            mmap: w % 2 == 1, // a mix of mapped and read stores
            queue_bound: 0,
        })
        .unwrap();
        addrs.push(server.local_addr());
        handles.push(server.spawn());
    }
    (handles, addrs)
}

/// The snapshot-backed spec pointing at `path`, with the given worker list and
/// placement mode.
fn snapshot_spec(
    base: &ScenarioSpec,
    path: &str,
    workers: Vec<String>,
    placed: bool,
) -> ScenarioSpec {
    let mut spec = base.clone();
    spec.topology = Some(TopologySpec::Snapshot {
        path: path.to_string(),
    });
    let sweep = spec.sweep.as_mut().unwrap();
    sweep.workers = workers;
    sweep.placed = placed;
    spec
}

/// The full matrix: 1/2/4/7-shard placed runs across UCM, HAPA, and capped-PA overlay
/// topologies, byte-diffed against the serial oracle and the whole-snapshot remote
/// path.
#[test]
fn placed_shard_sweeps_equal_the_serial_oracle_and_the_remote_path() {
    let dir = scratch("matrix");
    let fixtures = [
        (
            "ucm",
            TopologySpec::Ucm {
                nodes: 300,
                gamma: 2.5,
                m: 2,
                cutoff: Some(17),
            },
            31,
        ),
        (
            "hapa",
            TopologySpec::Hapa {
                nodes: 300,
                m: 2,
                cutoff: Some(10),
            },
            47,
        ),
        (
            "overlay",
            TopologySpec::Pa {
                nodes: 300,
                m: 2,
                cutoff: Some(12),
            },
            77,
        ),
    ];
    for (name, topology, seed) in fixtures {
        let (path, base) = build_fixture(&dir, name, topology, seed);
        // The serial oracle: the same snapshot swept in this process.
        let local = remote_runner()
            .run(&snapshot_spec(&base, &path, Vec::new(), false))
            .unwrap();
        // The whole-snapshot remote path: one worker holding every row.
        let (handles, addrs) = spawn_placed_workers(&path, 1, false);
        let remote = remote_runner()
            .run(&snapshot_spec(&base, &path, addrs, false))
            .unwrap();
        assert_eq!(remote.result, local.result, "{name}: remote path diverged");
        for handle in handles {
            handle.stop();
        }

        for shard_count in [1usize, 2, 4, 7] {
            // Dispatcher-shipped shards on even counts, `--shard`-pinned on odd ones:
            // the placement mechanism must be invisible in the bytes.
            let pinned = shard_count % 2 == 1;
            let (handles, addrs) = spawn_placed_workers(&path, shard_count, pinned);
            let report = remote_runner()
                .run(&snapshot_spec(&base, &path, addrs, true))
                .unwrap();
            assert_eq!(
                report.result, local.result,
                "{name}: {shard_count} placed shards diverged from the serial oracle"
            );
            assert_eq!(
                sfoverlay::scenario::report::ScenarioReport {
                    spec: local.spec.clone(),
                    result: report.result.clone(),
                }
                .to_json_string(),
                local.to_json_string(),
                "{name}: {shard_count} shards: JSON bytes diverged"
            );
            for handle in handles {
                handle.stop();
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rw_normalized_and_walk_sweeps_forward_walker_state_byte_identically() {
    // Walks are the stream-sensitive shape: the walker's position, step budget, and
    // raw RNG words all travel inside the forwarded frontier. The two-phase
    // normalized-walk job (NF then budgeted RW on one stream) additionally crosses
    // the phase boundary mid-placement.
    let dir = scratch("walks");
    let (path, base) = build_fixture(
        &dir,
        "walks",
        TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(12),
        },
        19,
    );
    for (name, search) in [
        (
            "rw-normalized",
            SearchSpec::RwNormalizedToNf { k_min: None },
        ),
        ("random-walk", SearchSpec::RandomWalk),
        ("mrw", SearchSpec::MultipleRandomWalk { walkers: 3 }),
    ] {
        let mut base = base.clone();
        base.search = Some(search);
        let local = remote_runner()
            .run(&snapshot_spec(&base, &path, Vec::new(), false))
            .unwrap();
        let (handles, addrs) = spawn_placed_workers(&path, 3, true);
        let report = remote_runner()
            .run(&snapshot_spec(&base, &path, addrs, true))
            .unwrap();
        assert_eq!(
            report.result, local.result,
            "{name} diverged under placement"
        );
        for handle in handles {
            handle.stop();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A placed shard host that completes the handshake, then closes the connection on
/// the first frontier it is asked to serve — a worker dying mid-batch.
fn doomed_shard_host(
    identity: u64,
    node_count: u64,
    edge_count: u64,
    shard_index: u32,
    shard_count: u32,
) -> (String, Arc<AtomicBool>) {
    let listener = NetListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let died_mid_batch = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&died_mid_batch);
    std::thread::spawn(move || {
        // Serve every connection the dispatcher opens (handshake, then one per
        // dispatch thread), dying on the first forwarded frontier.
        while let Ok(mut stream) = listener.accept() {
            let hello = Message::Hello(Hello {
                identity,
                node_count,
                edge_count,
                shard_count,
                engine_workers: 1,
                shard_index,
            });
            if send_message(&mut stream, &hello).is_err() {
                return;
            }
            match recv_message(&mut stream) {
                Ok(Message::ForwardFrontier { .. }) => {
                    // Drop the stream mid-request: the host is gone.
                    flag.store(true, Ordering::SeqCst);
                }
                Ok(_) => return,
                Err(_) => {}
            }
        }
    });
    (addr, died_mid_batch)
}

#[test]
fn a_worker_dying_mid_batch_is_a_typed_error_not_a_wrong_report() {
    let dir = scratch("death");
    let (path, base) = build_fixture(
        &dir,
        "death",
        TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(12),
        },
        55,
    );
    let file = SnapshotFile::load(&path).unwrap();
    let identity = sfoverlay::graph::snapshot::read_identity(&path).unwrap();

    // Shard 0 is a real pinned worker; shard 1 answers its handshake and then dies
    // on the first frontier routed to it. Every full flood crosses the boundary, so
    // the death is guaranteed to land mid-batch.
    let (handles, mut addrs) = spawn_placed_workers(&path, 2, true);
    let (doomed_addr, died_mid_batch) = doomed_shard_host(
        identity,
        file.csr.node_count() as u64,
        file.csr.edge_count() as u64,
        1,
        2,
    );
    addrs.truncate(1);
    addrs.push(doomed_addr);

    let err = remote_runner()
        .run(&snapshot_spec(&base, &path, addrs, true))
        .unwrap_err();
    assert!(
        died_mid_batch.load(Ordering::SeqCst),
        "the doomed host never saw a frontier: the test exercised the wrong path"
    );
    let message = err.to_string();
    assert!(
        !message.is_empty(),
        "a dead shard host must surface as a typed error"
    );
    for handle in handles {
        handle.stop();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn placed_dispatch_refuses_a_worker_holding_the_wrong_shard() {
    let dir = scratch("refusal");
    let (path, base) = build_fixture(
        &dir,
        "refusal",
        TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(12),
        },
        13,
    );
    // Two workers both pinned to shard 0 of 2: the second one is in the wrong slot.
    let spawn_pinned = |index: usize| {
        let server = WorkerServer::bind(&ServeConfig {
            snapshot_path: path.clone(),
            listen: "127.0.0.1:0".to_string(),
            engine_workers: 1,
            shard_count: 2,
            shard_index: Some(index),
            mmap: false,
            queue_bound: 0,
        })
        .unwrap();
        let addr = server.local_addr();
        (server.spawn(), addr)
    };
    let (handle_a, addr_a) = spawn_pinned(0);
    let (handle_b, addr_b) = spawn_pinned(0);
    let err = remote_runner()
        .run(&snapshot_spec(&base, &path, vec![addr_a, addr_b], true))
        .unwrap_err();
    assert!(
        err.to_string().contains("shard"),
        "unhelpful refusal: {err}"
    );
    handle_a.stop();
    handle_b.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn boundary_fraction_equals_the_forwarded_frontier_traffic_fraction() {
    // Property-style accounting identity, seeded: on full floods (TTL covering the
    // whole component), every directed adjacency entry of a reached node is scanned
    // exactly once, and the cross-shard ones are exactly the boundary entries — so
    // summed over any number of jobs, the workers' `sfo-obs` counters satisfy
    // `entries_cross / entries_scanned == boundary_fraction()` as exact integers.
    let dir = scratch("fraction");
    let (path, base) = build_fixture(
        &dir,
        "fraction",
        TopologySpec::Pa {
            nodes: 250,
            m: 2, // PA with m >= 2 from a seed clique is connected by construction
            cutoff: Some(12),
        },
        91,
    );
    let csr = SnapshotFile::load(&path).unwrap().csr;
    for shard_count in [2usize, 3, 5] {
        let sharded = ShardedCsr::from_csr(&csr, shard_count);
        let cross_edges = {
            // boundary_fraction() is cross-shard undirected edges over all edges.
            let fraction = sharded.boundary_fraction();
            let cross = (fraction * sharded.edge_count() as f64).round() as u64;
            assert!(fraction > 0.0, "a {shard_count}-shard split must cut edges");
            cross
        };

        let mut spec = base.clone();
        // One TTL far beyond the diameter: every flood reaches every node.
        spec.sweep.as_mut().unwrap().ttls = vec![64];
        spec.sweep.as_mut().unwrap().searches_per_point = 6;
        let (handles, addrs) = spawn_placed_workers(&path, shard_count, true);
        let report = remote_runner()
            .run(&snapshot_spec(&spec, &path, addrs.clone(), true))
            .unwrap();

        // Poll every worker's counters over the wire, as `sfo stats` would.
        let (mut scanned, mut cross, mut served, mut forwarded) = (0u64, 0u64, 0u64, 0u64);
        for addr in &addrs {
            let stats = WorkerClient::connect(addr).unwrap().stats().unwrap();
            scanned += stats
                .counter("placed.frontier_entries_scanned")
                .unwrap_or(0);
            cross += stats.counter("placed.frontier_entries_cross").unwrap_or(0);
            served += stats.counter("placed.frontiers_served").unwrap_or(0);
            forwarded += stats.counter("placed.frontiers_forwarded").unwrap_or(0);
        }
        let jobs = 6u64;
        assert_eq!(
            scanned,
            jobs * 2 * csr.edge_count() as u64,
            "{shard_count} shards: full floods scan every directed entry once"
        );
        assert_eq!(
            cross,
            jobs * 2 * cross_edges,
            "{shard_count} shards: cross entries are exactly the boundary entries"
        );
        // The integer identity the float is derived from: cross/scanned == B/E.
        assert_eq!(
            cross * csr.edge_count() as u64,
            scanned * cross_edges,
            "{shard_count} shards: traffic fraction != boundary_fraction()"
        );
        assert_eq!(
            cross as f64 / scanned as f64,
            sharded.boundary_fraction(),
            "{shard_count} shards: float fractions diverged"
        );
        // Every hop either finished or was forwarded onward, and forwarding really
        // happened: a cut topology cannot be flooded from one host.
        assert!(
            served >= jobs && forwarded > 0,
            "served {served}, forwarded {forwarded}"
        );
        // And the accounting never perturbed the result.
        let local = remote_runner()
            .run(&snapshot_spec(&spec, &path, Vec::new(), false))
            .unwrap();
        assert_eq!(report.result, local.result);
        for handle in handles {
            handle.stop();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The engine tests' ring-with-chords graph, saved with a hand-written provenance so a
/// snapshot sweep can run on it.
fn ring_with_chords_fixture(dir: &std::path::Path) -> (String, ScenarioSpec) {
    let mut g = sfoverlay::graph::generators::ring_graph(60, 2).unwrap();
    for i in 0..12 {
        let a = NodeId::new(i * 5);
        let b = NodeId::new((i * 7 + 13) % 60);
        if a != b {
            let _ = g.add_edge(a, b);
        }
    }
    let mut file = SnapshotFile::plain(g.freeze());
    file.provenance = Some(Provenance {
        label: "ring-with-chords".to_string(),
        m: 2,
        cutoff: None,
        seed: 17,
        realization: 0,
        sweep_seed: 0x5eed_0fc4_04d5,
        origin: None,
    });
    let path = dir.join("ring.sfos");
    file.save(&path).unwrap();
    let mut spec = ScenarioSpec::sweep(
        "placed-eq-ring",
        TopologySpec::Snapshot {
            path: path.display().to_string(),
        },
        SearchSpec::Flooding,
        SweepSpec::single(vec![1, 4, 6, 12, 20], 4),
        17,
        1,
    );
    spec.sweep.as_mut().unwrap().batch = true;
    (path.display().to_string(), spec)
}

#[test]
fn placed_floods_hop_at_most_once_per_level_and_host() {
    // FL expands a whole BFS level on each host before it moves, so a job is forwarded
    // at most `shards - 1` times per level: `frontiers_sent` (one first dispatch per
    // job plus one per hop) stays within `jobs + (shards - 1) * sum of the jobs' ttls`.
    let dir = scratch("hops");
    let (pa_path, mut pa_spec) = build_fixture(
        &dir,
        "pa10k",
        TopologySpec::Pa {
            nodes: 10_000,
            m: 2,
            cutoff: Some(40),
        },
        1207,
    );
    pa_spec.sweep.as_mut().unwrap().ttls = vec![3, 5, 8];
    pa_spec.sweep.as_mut().unwrap().searches_per_point = 3;
    for (path, base) in [ring_with_chords_fixture(&dir), (pa_path, pa_spec)] {
        let sweep = base.sweep.as_ref().unwrap();
        let jobs = (sweep.ttls.len() * sweep.searches_per_point) as u64;
        let ttl_sum = sweep.searches_per_point as u64 * sweep.ttls.iter().sum::<u32>() as u64;
        let local = remote_runner()
            .run(&snapshot_spec(&base, &path, Vec::new(), false))
            .unwrap();
        for shard_count in [2usize, 3, 5, 7] {
            let (handles, addrs) = spawn_placed_workers(&path, shard_count, true);
            let registry = Arc::new(Registry::new());
            let report = remote_runner_with_metrics(Arc::clone(&registry))
                .run(&snapshot_spec(&base, &path, addrs, true))
                .unwrap();
            assert_eq!(report.result, local.result, "{path}: {shard_count} shards");
            let sent = registry.counter("placed.frontiers_sent").get();
            let bound = jobs + (shard_count as u64 - 1) * ttl_sum;
            assert!(
                jobs < sent && sent <= bound,
                "{path}: {shard_count} shards sent {sent} frontiers for {jobs} jobs (bound {bound})"
            );
            for handle in handles {
                handle.stop();
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn placed_specs_validate_their_worker_list() {
    // `"placed": true` with no workers is a spec error, caught before any dialing.
    let dir = scratch("validate");
    let (path, base) = build_fixture(
        &dir,
        "validate",
        TopologySpec::Pa {
            nodes: 120,
            m: 2,
            cutoff: Some(10),
        },
        7,
    );
    let spec = snapshot_spec(&base, &path, Vec::new(), true);
    let err = spec.validate().unwrap_err();
    assert!(
        err.to_string().contains("workers"),
        "unhelpful validation: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn whole_snapshot_workers_on_odd_frames_stay_typed() {
    // A placed worker handed garbage between frontier hops keeps its framing: the
    // dispatcher's view of a shard host is only as good as the codec underneath.
    let dir = scratch("framing");
    let (path, _) = build_fixture(
        &dir,
        "framing",
        TopologySpec::Pa {
            nodes: 120,
            m: 2,
            cutoff: Some(10),
        },
        3,
    );
    let (handles, addrs) = spawn_placed_workers(&path, 2, true);
    let mut stream = sfoverlay::net::NetStream::connect(&addrs[0]).unwrap();
    let Message::Hello(hello) = recv_message(&mut stream).unwrap() else {
        panic!("expected a Hello");
    };
    assert_eq!(hello.shard_index, 0);
    assert_ne!(hello.shard_index, WHOLE_SNAPSHOT);
    // An unknown frame type is a full checksummed frame: survivable, answered.
    use std::io::Write as _;
    stream.write_all(&encode_frame(999, b"")).unwrap();
    stream.flush().unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::Error { .. }
    ));
    for handle in handles {
        handle.stop();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_frontier_with_a_malformed_queue_is_refused_and_the_connection_lives() {
    // Depths that decrease are refused at admission with a typed `Error`, before any
    // row is read; the connection keeps its framing and still answers `StatsRequest`.
    let dir = scratch("queue-shape");
    let (path, _) = build_fixture(
        &dir,
        "queue-shape",
        TopologySpec::Pa {
            nodes: 120,
            m: 2,
            cutoff: Some(10),
        },
        5,
    );
    let identity = sfoverlay::graph::snapshot::read_identity(&path).unwrap();
    let (handles, addrs) = spawn_placed_workers(&path, 2, true);
    let mut stream = sfoverlay::net::NetStream::connect(&addrs[0]).unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::Hello(_)
    ));
    let mut state = placed_start(PlacedAlgorithm::Flooding, NodeId::new(3), 4, [1, 2, 3, 4]);
    state.queue = vec![(3, u32::MAX, 2), (4, 3, 1)];
    send_message(&mut stream, &Message::ForwardFrontier { identity, state }).unwrap();
    match recv_message(&mut stream).unwrap() {
        Message::Error { message } => assert!(message.contains("depths"), "{message}"),
        other => panic!("expected a typed Error, got {other:?}"),
    }
    send_message(&mut stream, &Message::StatsRequest).unwrap();
    assert!(matches!(
        recv_message(&mut stream).unwrap(),
        Message::StatsReport(_)
    ));
    for handle in handles {
        handle.stop();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A copy of the snapshot at `path` with `edit` applied to its bytes, for the
/// dispatcher alone: the workers keep serving the intact file.
fn edited_copy(path: &str, tag: &str, edit: impl FnOnce(&mut [u8])) -> String {
    let mut bytes = std::fs::read(path).unwrap();
    edit(&mut bytes);
    let copy = format!("{path}.{tag}");
    std::fs::write(&copy, bytes).unwrap();
    copy
}

#[test]
fn pinned_placements_never_read_the_dispatchers_arrays() {
    // The dispatcher's own copy has garbled `offsets`/`targets` bytes behind an intact
    // header, provenance and trailer. Pinned workers need nothing cut from it, so the
    // dispatch reads only the header and trailer: the same bytes as the serial oracle,
    // nothing shipped. Whole-snapshot workers need their slices cut from it, so the
    // full load runs and refuses the copy.
    let dir = scratch("lazy");
    let (path, base) = build_fixture(
        &dir,
        "lazy",
        TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(12),
        },
        23,
    );
    let layout = sfoverlay::graph::snapshot::section_layout(&path).unwrap();
    let garbled = edited_copy(&path, "garbled", |bytes| {
        let arrays = layout.offsets_bytes.start as usize..layout.targets_bytes.end as usize;
        for byte in &mut bytes[arrays] {
            *byte ^= 0x5a;
        }
    });
    assert_eq!(
        sfoverlay::graph::snapshot::read_identity(&garbled).unwrap(),
        sfoverlay::graph::snapshot::read_identity(&path).unwrap()
    );
    let local = remote_runner()
        .run(&snapshot_spec(&base, &path, Vec::new(), false))
        .unwrap();
    for shard_count in [2usize, 3] {
        let (handles, addrs) = spawn_placed_workers(&path, shard_count, true);
        let registry = Arc::new(Registry::new());
        let report = remote_runner_with_metrics(Arc::clone(&registry))
            .run(&snapshot_spec(&base, &garbled, addrs, true))
            .unwrap();
        assert_eq!(report.result, local.result, "{shard_count} pinned shards");
        let metrics = registry.snapshot();
        assert_eq!(metrics.counter("placed.shards_shipped"), Some(0));
        assert!(metrics.counter("placed.frontiers_sent").unwrap() > 0);
        assert_eq!(metrics.histogram("placed.setup_micros").unwrap().count, 1);
        for handle in handles {
            handle.stop();
        }

        let (handles, addrs) = spawn_placed_workers(&path, shard_count, false);
        let err = remote_runner()
            .run(&snapshot_spec(&base, &garbled, addrs.clone(), true))
            .unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The intact file ships each whole-snapshot worker its slice, once.
        let registry = Arc::new(Registry::new());
        let report = remote_runner_with_metrics(Arc::clone(&registry))
            .run(&snapshot_spec(&base, &path, addrs, true))
            .unwrap();
        assert_eq!(report.result, local.result, "{shard_count} shipped shards");
        assert_eq!(
            registry.snapshot().counter("placed.shards_shipped"),
            Some(shard_count as u64)
        );
        for handle in handles {
            handle.stop();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_header_the_workers_contradict_is_refused_before_any_frontier_moves() {
    // The dispatcher's copy declares one node more than it holds, its trailer kept, so
    // its identity still matches. Routing on that count would send cursors to the
    // wrong owners; the dispatch must refuse with a typed error instead, and no worker
    // may have served a frontier.
    let dir = scratch("header");
    let (path, _) = build_fixture(
        &dir,
        "header",
        TopologySpec::Pa {
            nodes: 300,
            m: 2,
            cutoff: Some(12),
        },
        29,
    );
    let (header, provenance) = sfoverlay::graph::snapshot::read_meta(&path).unwrap();
    let provenance = provenance.unwrap();
    let altered = edited_copy(&path, "altered", |bytes| {
        // `node_count` is header bytes 8..16 (docs/FORMATS.md).
        bytes[8..16].copy_from_slice(&(header.node_count + 1).to_le_bytes());
    });
    let identity = sfoverlay::graph::snapshot::read_identity(&altered).unwrap();
    assert_eq!(
        identity,
        sfoverlay::graph::snapshot::read_identity(&path).unwrap()
    );
    for pinned in [true, false] {
        let (handles, addrs) = spawn_placed_workers(&path, 2, pinned);
        let request = RemoteSweepRequest {
            workers: addrs.clone(),
            identity,
            seed: provenance.sweep_seed,
            ttls: vec![2, 4],
            searches_per_point: 3,
            search: SearchSpec::Flooding,
            m: provenance.m as usize,
            placed: true,
            snapshot_path: altered.clone(),
        };
        let err = sfoverlay::net::dispatch_sweep(&request).unwrap_err();
        assert!(
            matches!(err, sfoverlay::net::NetError::Protocol { .. }),
            "pinned {pinned}: {err}"
        );
        for addr in &addrs {
            let stats = WorkerClient::connect(addr).unwrap().stats().unwrap();
            assert_eq!(
                stats.counter("placed.frontiers_served").unwrap_or(0),
                0,
                "pinned {pinned}: {addr} served a frontier"
            );
        }
        for handle in handles {
            handle.stop();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
