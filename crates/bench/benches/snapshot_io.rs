//! Snapshot persistence: save/load throughput of the binary `SFOS` codec versus the
//! regeneration cost it replaces, on paper-scale hard-cutoff PA overlays.
//!
//! The rows answer the build-once/persist/query-many question directly:
//!
//! * `n{N}/generate` — drawing the topology straight into CSR form
//!   (`generate_frozen`), what a scenario pays per realization without a snapshot;
//! * `n{N}/save` — encoding the frozen snapshot (checksum included) and writing it;
//! * `n{N}/load` — reading the file back with the full checksum and structural
//!   validation pass;
//! * `n{N}/load_sharded` — the same read of a 4-shard file through `ShardedCsr::load`,
//!   which adds only the shard count's four node ranges;
//! * `n{N}/load_mmap` / `n{N}/load_sharded_mmap` — the zero-copy variants: the file
//!   streams through the same verifying pass, but the CSR arrays are borrowed from the
//!   page cache instead of decoded into owned buffers (`docs/FORMATS.md`, "The mmap
//!   contract"). The verification is identical, so the delta against the read rows
//!   isolates the decode the mapping avoids.
//!
//! Results are written to `BENCH_snapshot.json` at the workspace root (tracked in git,
//! regenerate with `cargo bench --bench snapshot_io`). Environment knobs for smoke
//! runs: `SFO_BENCH_SNAPSHOT_NODES` (comma-separated node counts, default
//! `10000,100000`) and `SFO_BENCH_SNAPSHOT_OUT` (output path).
//!
//! Reading the numbers: a load is one sequential pass that hashes every byte and
//! decodes the arrays in place, then the structural check — a row-mark pass and a
//! counting-sort transposition of the incoming entries, one O(E) scan per 4 MiB block
//! of destinations — none of it negotiable, since a loaded topology must be provably
//! the saved one. Capped PA, the cheapest generator family, draws straight into CSR
//! arrays, and regenerating it beats a verified load: at N=10^5 `generate` takes
//! ≈ 2 ms against ≈ 5 ms for `load` and for `load_mmap`.
//! What a snapshot buys is not speed on this family but one realization shared by
//! every process and host: a daemon serves the file, its shard count names the slices a
//! placed dispatch ships, its identity hash lets a dispatcher refuse a worker serving
//! another realization, and a live-grown overlay cannot be regenerated without running
//! the protocol again. For the costlier families a load still wins by orders of
//! magnitude: capped HAPA and DAPA take seconds at N=10^4.

use criterion::Criterion;
use sfo_bench::capped_pa_csr;
use sfo_engine::ShardedCsr;
use sfo_graph::CsrGraph;
use std::time::Duration;

const SHARDS: usize = 4;

fn node_sizes() -> Vec<usize> {
    match std::env::var("SFO_BENCH_SNAPSHOT_NODES") {
        Ok(list) => list
            .split(',')
            .map(|n| {
                n.trim()
                    .parse()
                    .expect("SFO_BENCH_SNAPSHOT_NODES: node counts")
            })
            .collect(),
        Err(_) => vec![10_000, 100_000],
    }
}

fn bench_snapshot_io(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("sfo-bench-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    for nodes in node_sizes() {
        let csr = capped_pa_csr(nodes, 2, 40, 7);
        let path = dir.join(format!("n{nodes}.sfos"));
        let sharded_path = dir.join(format!("n{nodes}-sharded.sfos"));
        csr.save(&path).expect("bench save");
        ShardedCsr::from_csr(&csr, SHARDS)
            .save(&sharded_path)
            .expect("bench sharded save");

        let mut group = c.benchmark_group("snapshot_io");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(300));

        // The baseline the persistence layer replaces: regenerate the realization.
        group.bench_function(format!("n{nodes}/generate"), |b| {
            b.iter(|| capped_pa_csr(nodes, 2, 40, 7))
        });
        group.bench_function(format!("n{nodes}/save"), |b| {
            b.iter(|| csr.save(&path).expect("bench save"))
        });
        group.bench_function(format!("n{nodes}/load"), |b| {
            b.iter(|| CsrGraph::load(&path).expect("bench load"))
        });
        group.bench_function(format!("n{nodes}/load_sharded"), |b| {
            b.iter(|| ShardedCsr::load(&sharded_path).expect("bench sharded load"))
        });
        group.bench_function(format!("n{nodes}/load_mmap"), |b| {
            b.iter(|| CsrGraph::load_mmap(&path).expect("bench mmap load"))
        });
        group.bench_function(format!("n{nodes}/load_sharded_mmap"), |b| {
            b.iter(|| ShardedCsr::load_mmap(&sharded_path).expect("bench sharded mmap load"))
        });
        group.finish();

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sharded_path).ok();
    }
    std::fs::remove_dir(&dir).ok();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_snapshot_io(&mut criterion);

    // Persist the measurements next to the workspace root so the perf trajectory
    // extends BENCH_csr.json and BENCH_shard.json. Overridable for smoke runs.
    let path = std::env::var("SFO_BENCH_SNAPSHOT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json").to_string()
    });
    criterion
        .export_json(&path)
        .expect("writing benchmark results");
    println!("\nresults written to {path}");

    // Summarize: how much regeneration cost does one load avoid?
    let mean = |id: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .expect("benchmark ran")
    };
    for nodes in node_sizes() {
        let generate = mean(&format!("snapshot_io/n{nodes}/generate"));
        for row in [
            "save",
            "load",
            "load_sharded",
            "load_mmap",
            "load_sharded_mmap",
        ] {
            let cost = mean(&format!("snapshot_io/n{nodes}/{row}"));
            println!(
                "n={nodes}: generate/{row} = {:.2}x ({row} {:.2} ms)",
                generate / cost,
                cost / 1e6
            );
        }
    }
}
