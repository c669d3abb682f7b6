//! Integration tests of the snapshot persistence layer: `SFOS` files round-trip
//! `CsrGraph` and `ShardedCsr` exactly (shard count included), corrupt files fail
//! with typed errors instead of panics, and — the load-bearing guarantee — a sweep
//! `ScenarioSpec` run against a `TopologySpec::Snapshot` file produces a byte-identical
//! `ScenarioReport` result to the same spec run against the inline generator.

use sfoverlay::prelude::*;
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfos-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A paper-shaped overlay with hubs and a hard cutoff, realistic for the codec.
fn pa_topology(nodes: usize) -> TopologySpec {
    TopologySpec::Pa {
        nodes,
        m: 2,
        cutoff: Some(12),
    }
}

/// The inline scenario every snapshot in these tests is built from: single curve,
/// single realization, engine-batched — the shape snapshot sweeps require.
fn inline_spec(searches: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::sweep(
        "snapshot-it",
        pa_topology(600),
        SearchSpec::Flooding,
        SweepSpec::single(vec![1, 2, 4, 6], searches),
        2024,
        1,
    );
    let sweep = spec.sweep.as_mut().unwrap();
    sweep.batch = true;
    sweep.shard_count = 3;
    spec
}

/// `inline_spec` with its topology swapped for the snapshot at `path`.
fn snapshot_spec(base: &ScenarioSpec, path: &Path) -> ScenarioSpec {
    let mut spec = base.clone();
    spec.topology = Some(TopologySpec::Snapshot {
        path: path.to_string_lossy().into_owned(),
    });
    spec
}

#[test]
fn csr_graph_save_load_round_trips_exactly() {
    use rand::SeedableRng;
    let generator = pa_topology(500).build().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let frozen = generator.generate(&mut rng).unwrap().freeze();
    let path = temp_path("csr-roundtrip.sfos");
    frozen.save(&path).unwrap();
    assert_eq!(CsrGraph::load(&path).unwrap(), frozen);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sharded_csr_save_load_round_trips_exactly() {
    use rand::SeedableRng;
    let generator = pa_topology(400).build().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let graph = generator.generate(&mut rng).unwrap();
    for shards in [1usize, 2, 5, 8] {
        let store = ShardedCsr::from_graph(&graph, shards);
        let path = temp_path(&format!("sharded-roundtrip-{shards}.sfos"));
        store.save(&path).unwrap();
        let back = ShardedCsr::load(&path).unwrap();
        assert_eq!(back, store, "{shards} shards");
        for (a, b) in back.shards().iter().zip(store.shards()) {
            assert_eq!(a.node_range(), b.node_range());
        }
        // The loaded store's cross-shard count is the one its rows give.
        let frozen = graph.freeze();
        let cross = frozen
            .edges()
            .filter(|&(u, v)| back.shard_of(u) != back.shard_of(v))
            .count();
        assert_eq!(back.cross_shard_edges(), cross, "{shards} shards");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn snapshot_sweep_reports_are_byte_identical_to_the_inline_generator() {
    let base = inline_spec(15);
    let inline_report = ScenarioRunner::new().run(&base).unwrap();

    let path = temp_path("sweep-identity.sfos");
    build_snapshot(&base, 3).unwrap().save(&path).unwrap();
    let snap = snapshot_spec(&base, &path);
    let snapshot_report = ScenarioRunner::new().run(&snap).unwrap();

    // The embedded specs differ by construction (inline topology vs file path); the
    // measured result must not differ in a single byte. Compare both the values and
    // the serialized JSON (the writer is deterministic, so equal values mean equal
    // bytes — asserting on the serialized form makes the guarantee explicit).
    assert_eq!(snapshot_report.result, inline_report.result);
    let result_json = |report: &ScenarioReport| {
        let full = report.to_json_string();
        full[full.find("\"result\"").unwrap()..].to_string()
    };
    assert_eq!(result_json(&snapshot_report), result_json(&inline_report));

    // The snapshot run is also invariant in thread and shard count, like any batched run.
    for (threads, shards) in [(2usize, 1usize), (3, 7)] {
        let mut varied = snap.clone();
        let sweep = varied.sweep.as_mut().unwrap();
        sweep.threads = threads;
        sweep.shard_count = shards;
        let report = ScenarioRunner::new().run(&varied).unwrap();
        assert_eq!(
            report.result, inline_report.result,
            "threads={threads} shards={shards}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_degree_scenarios_match_the_inline_generator() {
    let mut build_from = inline_spec(5);
    build_from.search = None;
    build_from.sweep = None;
    build_from.measure = MeasureSpec::DegreeDistribution { bins_per_decade: 8 };
    let inline_report = ScenarioRunner::new().run(&build_from).unwrap();

    let path = temp_path("degree-identity.sfos");
    build_snapshot(&build_from, 0).unwrap().save(&path).unwrap();
    let snap = snapshot_spec(&build_from, &path);
    let snapshot_report = ScenarioRunner::new().run(&snap).unwrap();
    assert_eq!(snapshot_report.result, inline_report.result);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_topology_specs_round_trip_through_json() {
    let path = temp_path("json-roundtrip.sfos");
    build_snapshot(&inline_spec(5), 0)
        .unwrap()
        .save(&path)
        .unwrap();
    let spec = snapshot_spec(&inline_spec(5), &path);
    let text = spec.to_json_string();
    let back = ScenarioSpec::parse(&text).unwrap();
    assert_eq!(back, spec, "{text}");
    assert_eq!(back.to_json_string(), text);
    back.validate().unwrap();

    // The family tag is part of the stable JSON dialect.
    assert!(text.contains("\"family\": \"snapshot\""));
    assert!(matches!(back.topology, Some(TopologySpec::Snapshot { .. })));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_snapshot_files_yield_typed_errors_not_panics() {
    let base = inline_spec(5);
    let path = temp_path("corruption.sfos");
    build_snapshot(&base, 2).unwrap().save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let write = |bytes: &[u8]| std::fs::write(&path, bytes).unwrap();
    let spec = snapshot_spec(&base, &path);

    // Wrong magic: not a snapshot at all.
    let mut bytes = pristine.clone();
    bytes[..4].copy_from_slice(b"GZIP");
    write(&bytes);
    assert!(matches!(
        CsrGraph::load(&path),
        Err(SnapshotError::BadMagic { found }) if found == *b"GZIP"
    ));
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::Snapshot(SnapshotError::BadMagic { .. }))
    ));

    // Wrong (future) version.
    let mut bytes = pristine.clone();
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    write(&bytes);
    assert!(matches!(
        SnapshotFile::load(&path),
        Err(SnapshotError::UnsupportedVersion { found: 7 })
    ));
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::Snapshot(
            SnapshotError::UnsupportedVersion { .. }
        ))
    ));

    // Truncation at several depths: inside the header, the arrays, the trailer.
    for keep in [3usize, 17, pristine.len() / 2, pristine.len() - 3] {
        write(&pristine[..keep]);
        let err = SnapshotFile::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            ),
            "keep {keep}: {err:?}"
        );
        assert!(ScenarioRunner::new().run(&spec).is_err(), "keep {keep}");
    }

    // A flipped payload bit fails the checksum.
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    write(&bytes);
    assert!(matches!(
        SnapshotFile::load(&path),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Structural faults behind a valid checksum: each edit re-hashes the trailer, so
    // only the structural checks can refuse the file, each with its exact reason.
    let layout = section_layout(&path).unwrap();
    let offsets_at = layout.offsets_bytes.start as usize;
    let targets_at = layout.targets_bytes.start as usize;
    let word = |at: usize| u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
    let row0_len = word(offsets_at + 4) as usize;
    let row0: Vec<u32> = (0..row0_len).map(|i| word(targets_at + 4 * i)).collect();
    let absent = (1..600u32).find(|v| !row0.contains(v)).unwrap();
    let rows: [(&str, usize, u32, String); 5] = [
        (
            "unmirrored entry",
            targets_at,
            absent,
            format!("adjacency is not mirrored: n0 lists n{absent} but not vice versa"),
        ),
        (
            "out-of-range target",
            targets_at,
            600,
            "node 0 lists out-of-range neighbor n600".to_string(),
        ),
        (
            "self-loop",
            targets_at,
            0,
            "node 0 has a self-loop".to_string(),
        ),
        (
            "parallel edge",
            targets_at,
            row0[1],
            "node 0 lists a neighbor twice (parallel edge)".to_string(),
        ),
        (
            "non-monotone offsets",
            offsets_at + 4,
            u32::MAX,
            "offsets are not monotone".to_string(),
        ),
    ];
    for (name, at, value, reason) in rows {
        let mut bytes = pristine[..pristine.len() - 8].to_vec();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let checksum = sfoverlay::graph::snapshot::fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        write(&bytes);
        let expected = format!("corrupt snapshot: {reason}");
        assert_eq!(
            SnapshotFile::load(&path).unwrap_err().to_string(),
            expected,
            "{name}"
        );
        assert_eq!(
            SnapshotFile::load_mmap(&path).unwrap_err().to_string(),
            expected,
            "{name}"
        );
        assert_eq!(
            ShardedCsr::load(&path).unwrap_err().to_string(),
            expected,
            "{name}"
        );
    }

    // And the pristine bytes still load — the errors above were the file's fault.
    write(&pristine);
    SnapshotFile::load(&path).unwrap();
    ShardedCsr::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_scenario_validation_pins_the_run_shape() {
    let base = inline_spec(5);
    let path = temp_path("validation.sfos");
    build_snapshot(&base, 0).unwrap().save(&path).unwrap();
    let good = snapshot_spec(&base, &path);
    good.validate().unwrap();

    // The file holds one realization.
    let mut two = good.clone();
    two.realizations = 2;
    assert!(matches!(
        two.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Snapshot search sweeps must run through the engine batch scheduler.
    let mut serial = good.clone();
    serial.sweep.as_mut().unwrap().batch = false;
    assert!(matches!(
        serial.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // A snapshot cannot be regenerated along sweep axes.
    let mut axes = good.clone();
    axes.sweep.as_mut().unwrap().stubs = vec![1, 2];
    assert!(matches!(
        axes.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // The spec's seed must be the seed the file was built with.
    let mut reseeded = good.clone();
    reseeded.seed = 1;
    assert!(matches!(
        reseeded.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // A missing file is an IO error, not a panic.
    let mut missing = good.clone();
    missing.topology = Some(TopologySpec::Snapshot {
        path: "/nonexistent/nowhere.sfos".to_string(),
    });
    assert!(matches!(
        missing.validate(),
        Err(ScenarioError::Snapshot(SnapshotError::Io { .. }))
    ));

    // A provenance-less file (plain CsrGraph::save) is rejected up front.
    let plain_path = temp_path("plain-no-provenance.sfos");
    build_snapshot(&base, 0)
        .map(|mut file| {
            file.provenance = None;
            file.save(&plain_path).unwrap();
        })
        .unwrap();
    let mut plain = good.clone();
    plain.topology = Some(TopologySpec::Snapshot {
        path: plain_path.to_string_lossy().into_owned(),
    });
    assert!(matches!(
        plain.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&plain_path).unwrap();
}
