//! The `sfo` command-line tool: run declarative scenario files end to end, and manage
//! binary topology snapshots.
//!
//! ```text
//! sfo scenario run <spec.json> [--out <report.json>] [--threads N] [--mmap] [--quiet]
//!                  [--metrics-out <metrics.json>]
//! sfo scenario validate <spec.json> [<spec.json> ...]
//! sfo scenario template [static|degree|churn|trace|live]
//! sfo snapshot build <spec.json> -o <file.sfos> [--shards N]
//! sfo snapshot inspect <file.sfos>
//! sfo snapshot verify <file.sfos>
//! sfo serve <file.sfos> --listen <addr> [--engine-workers N] [--shards N] [--shard I] [--mmap]
//!           [--queue-bound N]
//! sfo dispatch <spec.json> --worker <addr> [--worker <addr> ...] [--placed]
//!              [--out <report.json>] [--quiet] [--metrics-out <metrics.json>]
//! sfo loadtest <workload.json> --worker <addr> [--worker <addr> ...] [--out <bench.json>]
//! sfo stats <addr>
//! sfo overlay --listen <addr> --id N [--seed N] [--bootstrap <id>@<addr>] [--tick-millis N]
//!             [--active-cap N] [--walks N]
//! ```
//!
//! `--threads N` overrides the spec's sweep thread count without editing the file —
//! results are unchanged, because every task and every engine-batched job derives its
//! own RNG stream.
//!
//! `scenario run` parses and validates a [`ScenarioSpec`] file, executes it through the
//! shared [`ScenarioRunner`](sfoverlay::scenario::ScenarioRunner) (with the `sfo-net`
//! dispatcher installed), prints a human summary to stderr, and writes the full
//! [`ScenarioReport`] JSON — which embeds the originating spec for provenance — to
//! stdout or to `--out`. `validate` checks spec files without running them, and
//! `template` prints a commented starter spec. Example spec files reproducing paper
//! figures ship under `examples/*.json`.
//!
//! `snapshot build` generates a spec's realization-0 topology once and persists it as a
//! checksummed `SFOS` file (format: `docs/FORMATS.md`) with provenance, so later runs —
//! a spec whose topology is `{"family": "snapshot", "path": "<file.sfos>"}` — skip
//! regeneration and still produce byte-identical reports. `inspect` prints the header,
//! provenance, degree summary, and boundary fraction; `verify` re-reads the whole file,
//! checksum and structure included.
//!
//! `serve` turns this process into an `sfo-net` worker: the snapshot is loaded once
//! (fully verified) into a sharded store and query batches are served to any number of
//! clients over TCP (`host:port`) or a Unix socket (`unix:/path`). `dispatch` runs a
//! snapshot-backed scenario against such workers (`--worker` repeats; it overrides the
//! spec's own `sweep.workers` list) — and because every job's RNG stream is keyed by
//! its global job index, the report is byte-identical to `sfo scenario run` of the same
//! spec, whatever the worker count. Plain `scenario run` also honors a spec's
//! `workers` field; `dispatch` just makes the worker list a command-line concern.
//! `--placed` (or `"placed": true` in the sweep) switches from range-splitting to real
//! shard placement: worker `i` holds only shard `i`'s rows (`sfo serve --shard i
//! --shards N`, or shipped a `LoadShard` frame at handshake), and every search hops
//! between workers as `ForwardFrontier`/`FrontierResult` frames whenever its frontier
//! crosses a shard boundary — still byte-identical to the local run, for any shard
//! count and placement, because a forwarded frontier carries the search's exact serial
//! state.
//!
//! `loadtest` replays a [`WorkloadSpec`] file —
//! a seed-derived Poisson or bursty arrival schedule — open-loop against running
//! workers over concurrent pipelined connections, printing client-side p50/p95/p99
//! latency, in-flight depth, and achieved-vs-offered rate, and writing the numbers
//! as a `BENCH_*.json`-shaped file with `--out`. Workers bound their per-connection
//! pending-batch queue (`sfo serve --queue-bound N`) and shed excess load with a
//! typed `Overloaded` frame that the driver counts instead of dying on; shedding
//! never changes the bytes of any served result (determinism rule 6, schema:
//! `docs/BENCHMARKS.md`, walkthrough: `docs/OPERATIONS.md`).
//!
//! `stats` polls a running worker's telemetry — the `sfo-obs` counters and latency
//! histograms the daemon accumulates (connections, frames and bytes by message type,
//! per-request service times, engine jobs/steals/batches) — and prints the snapshot as
//! JSON. `--metrics-out <file.json>` on `scenario run` and `dispatch` writes the local
//! process's own telemetry (per-phase generate/freeze/sweep timings, boundary
//! fractions, dispatch latencies) beside the report; the report itself never contains
//! telemetry, so instrumented and plain runs stay byte-identical
//! (metric names and determinism rules: `docs/ARCHITECTURE.md`).
//!
//! `overlay` runs one live membership peer ([`OverlayNode`]) over real sockets: it joins an
//! overlay through `--bootstrap <id>@<addr>` (or seeds a new one without it) and grows
//! a capped scale-free topology by protocol execution. The deterministic counterpart —
//! the same state machine over a simulated transport — is a scenario whose dynamics
//! section is `{"kind": "live", ...}` (`sfo scenario template live`), which freezes the
//! emergent overlay into a provenance-tagged `.sfos` the rest of the stack consumes
//! unchanged.

use sfoverlay::prelude::{
    build_snapshot, remote_runner, remote_runner_with_metrics, run_loadtest, LiveConfig,
    LoadtestConfig, LoadtestReport, OverlayNode, OverlayNodeConfig, PeerRef, ProtocolConfig,
    Registry, ScenarioReport, ScenarioSpec, SearchSpec, ServeConfig, ShardedCsr, SimulationConfig,
    SnapshotFile, SweepSpec, TopologySpec, WorkerClient, WorkerServer, WorkloadSpec,
};
use sfoverlay::scenario::json::{JsonValue, ToJson};
use sfoverlay::scenario::{ScenarioResult, SweepMetric};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    "usage: sfo <scenario|snapshot|serve|dispatch|loadtest|stats|overlay> <command>\n\
     \n\
     scenario commands:\n\
     \x20 run <spec.json> [--out <report.json>] [--threads N] [--mmap] [--quiet]\n\
     \x20     [--metrics-out <metrics.json>]                 execute a scenario file\n\
     \x20 validate <spec.json> [...]                         check scenario files\n\
     \x20 template [static|degree|churn|trace|live]          print a starter spec\n\
     \n\
     snapshot commands:\n\
     \x20 build <spec.json> -o <file.sfos> [--shards N]      generate the spec's topology\n\
     \x20                                                    once and persist it\n\
     \x20 inspect <file.sfos>                                print header, provenance,\n\
     \x20                                                    degrees, boundary fraction,\n\
     \x20                                                    section byte layout\n\
     \x20 verify <file.sfos>                                 full checksum + structure check\n\
     \n\
     distributed execution:\n\
     \x20 serve <file.sfos> --listen <addr> [--engine-workers N] [--shards N]\n\
     \x20       [--shard I] [--mmap] [--queue-bound N]       serve the snapshot's query\n\
     \x20                                                    batches to remote dispatchers;\n\
     \x20                                                    --shard I pins this worker to\n\
     \x20                                                    one shard of a placed layout;\n\
     \x20                                                    --queue-bound N caps pending\n\
     \x20                                                    batches per connection (excess\n\
     \x20                                                    is shed with a typed Overloaded\n\
     \x20                                                    frame; 0 = default bound)\n\
     \x20 dispatch <spec.json> --worker <addr> [--worker <addr> ...] [--placed]\n\
     \x20          [--out <report.json>] [--quiet]           split the spec's sweep across\n\
     \x20          [--metrics-out <metrics.json>]            sfo serve workers; --placed\n\
     \x20                                                    routes each search to the shard\n\
     \x20                                                    owning its frontier (worker i\n\
     \x20                                                    holds shard i)\n\
     \x20 loadtest <workload.json> --worker <addr> [--worker <addr> ...]\n\
     \x20          [--out <bench.json>]                      replay the workload's arrival\n\
     \x20                                                    schedule open-loop against the\n\
     \x20                                                    workers, print p50/p95/p99\n\
     \x20                                                    latency and shed counts, and\n\
     \x20                                                    write a BENCH_*.json-shaped\n\
     \x20                                                    trajectory with --out\n\
     \x20 stats <addr>                                       poll a worker's telemetry\n\
     \x20                                                    (counters + latency\n\
     \x20                                                    histograms) as JSON\n\
     \n\
     live membership:\n\
     \x20 overlay --listen <addr> --id N [--seed N] [--bootstrap <id>@<addr>]\n\
     \x20         [--tick-millis N] [--active-cap N] [--walks N]\n\
     \x20                                                    run one live overlay peer; it\n\
     \x20                                                    joins through the bootstrap\n\
     \x20                                                    contact (or seeds a new overlay)\n\
     \x20                                                    and grows a capped topology by\n\
     \x20                                                    protocol execution\n\
     \n\
     Addresses are host:port (TCP; port 0 picks a free one) or unix:/path.\n\
     --mmap memory-maps snapshot topologies instead of reading them into owned\n\
     buffers (checksum-verified once either way; results are byte-identical, and\n\
     platforms without the mapping path silently fall back to reading).\n\
     --threads N overrides the spec's sweep thread count without editing the file\n\
     (results are unchanged: every task and batched job has its own RNG stream).\n\
     --metrics-out <file.json> writes the run's local telemetry (phase timings,\n\
     boundary fractions, engine and dispatch counters) beside the report; reports\n\
     never embed telemetry, so instrumented runs stay byte-identical to plain ones.\n\
     Run a persisted topology by pointing a spec's topology section at the file:\n\
     {\"family\": \"snapshot\", \"path\": \"<file.sfos>\"} — reports are byte-identical\n\
     to the inline generator, and dispatched runs are byte-identical to local ones\n\
     for any worker count. Example spec files live in examples/*.json."
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("scenario") => scenario_command(&args[1..]),
        Some("snapshot") => snapshot_command(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("dispatch") => dispatch(&args[1..]),
        Some("loadtest") => loadtest(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("overlay") => overlay(&args[1..]),
        Some("--help" | "-h") => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut snapshot_path: Option<&str> = None;
    let mut listen: Option<&str> = None;
    let mut engine_workers = 0usize;
    let mut shards = 0usize;
    let mut shard_index: Option<usize> = None;
    let mut mmap = false;
    let mut queue_bound = 0usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mmap" => mmap = true,
            "--queue-bound" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => queue_bound = value,
                None => {
                    eprintln!(
                        "--queue-bound requires a pending-batch cap per connection \
                         (0 = default bound)"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--shard" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => shard_index = Some(value),
                None => {
                    eprintln!("--shard requires a shard index (pair it with --shards <count>)");
                    return ExitCode::FAILURE;
                }
            },
            "--listen" => match iter.next() {
                Some(value) => listen = Some(value),
                None => {
                    eprintln!("--listen requires an address (host:port or unix:/path)");
                    return ExitCode::FAILURE;
                }
            },
            "--engine-workers" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => engine_workers = value,
                None => {
                    eprintln!("--engine-workers requires a thread count (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => shards = value,
                None => {
                    eprintln!("--shards requires a shard count");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => {
                if snapshot_path.replace(other).is_some() {
                    eprintln!("serve takes exactly one snapshot file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let (Some(snapshot_path), Some(listen)) = (snapshot_path, listen) else {
        eprintln!(
            "serve requires a snapshot file and --listen <addr>\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let server = match WorkerServer::bind(&ServeConfig {
        snapshot_path: snapshot_path.to_string(),
        listen: listen.to_string(),
        engine_workers,
        shard_count: shards,
        shard_index,
        mmap,
        queue_bound,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let hello = server.hello();
    let role = match shard_index {
        Some(index) => format!("shard {index} of {}", hello.shard_count),
        None => format!("{} shard(s)", hello.shard_count),
    };
    eprintln!(
        "serving {snapshot_path} on {} — {} nodes, {} edges, {role}, \
         {} engine worker(s), identity {:#018x}",
        server.local_addr(),
        hello.node_count,
        hello.edge_count,
        hello.engine_workers,
        hello.identity,
    );
    server.run();
    ExitCode::SUCCESS
}

fn dispatch(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut placed = false;
    let mut quiet = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--placed" => placed = true,
            "--worker" => match iter.next() {
                Some(value) => workers.push(value.clone()),
                None => {
                    eprintln!("--worker requires an address (host:port or unix:/path)");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(value) => out = Some(value),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match iter.next() {
                Some(value) => metrics_out = Some(value),
                None => {
                    eprintln!("--metrics-out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--quiet" => quiet = true,
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => {
                if path.replace(other).is_some() {
                    eprintln!("dispatch takes exactly one spec file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("dispatch requires a spec file\n{}", usage());
        return ExitCode::FAILURE;
    };
    // Parse first, inject the worker list, then validate: the spec on disk may carry
    // no workers at all (the list is this command's concern).
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = match ScenarioSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !workers.is_empty() {
        match spec.sweep.as_mut() {
            Some(sweep) => sweep.workers = workers,
            None => {
                eprintln!("{path}: dispatch needs a scenario with a \"sweep\" section");
                return ExitCode::FAILURE;
            }
        }
    }
    if placed {
        match spec.sweep.as_mut() {
            Some(sweep) => sweep.placed = true,
            None => {
                eprintln!("{path}: --placed needs a scenario with a \"sweep\" section");
                return ExitCode::FAILURE;
            }
        }
    }
    if spec.sweep.as_ref().is_none_or(|s| s.workers.is_empty()) {
        eprintln!(
            "{path}: no workers — pass --worker <addr> or set \"workers\" in the spec's sweep"
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = spec.validate() {
        eprintln!("{path}: {e}");
        return ExitCode::FAILURE;
    }
    if !quiet {
        let sweep = spec.sweep.as_ref().expect("validated above");
        eprintln!(
            "dispatching scenario '{}' across {} worker(s) ...",
            spec.name,
            sweep.workers.len()
        );
    }
    // A dispatched sweep reads only the snapshot's meta locally — the workers load
    // the file — so the mapping knob is theirs (`sfo serve --mmap`), not ours.
    execute_and_emit(&spec, out, quiet, false, metrics_out)
}

/// `sfo loadtest <workload.json> --worker <addr> ... [--out <bench.json>]` — replay a
/// workload's arrival schedule open-loop against running workers and report latency.
fn loadtest(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--worker" => match iter.next() {
                Some(value) => workers.push(value.clone()),
                None => {
                    eprintln!("--worker requires an address (host:port or unix:/path)");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(value) => out = Some(value),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => {
                if path.replace(other).is_some() {
                    eprintln!("loadtest takes exactly one workload file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("loadtest requires a workload file\n{}", usage());
        return ExitCode::FAILURE;
    };
    if workers.is_empty() {
        eprintln!(
            "loadtest requires at least one --worker <addr>\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match WorkloadSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loadtest '{}': offered rate {:.1} req/s for {:.1}s across {} worker(s) × {} \
         connection(s), {} job(s) per request ...",
        spec.name,
        spec.arrivals.offered_rate_hz(),
        spec.duration_secs,
        workers.len(),
        spec.connections,
        spec.jobs_per_request,
    );
    let name = spec.name.clone();
    let report = match run_loadtest(&LoadtestConfig {
        spec,
        workers,
        record_outcomes: false,
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadtest '{name}' failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    summarize_loadtest(&report);
    if let Some(out_path) = out {
        let json = loadtest_bench_rows(&name, &report).to_pretty_string();
        if let Err(e) = std::fs::write(out_path, &json) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench rows written to {out_path}");
    }
    if report.decode_errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints the human-readable digest of a loadtest run to stderr.
fn summarize_loadtest(report: &LoadtestReport) {
    eprintln!(
        "  requests: {} offered, {} sent, {} completed, {} shed, {} refused, \
         {} decode error(s)",
        report.offered,
        report.sent,
        report.completed,
        report.shed,
        report.errors,
        report.decode_errors,
    );
    eprintln!(
        "  rate:     {:.1} req/s achieved vs {:.1} req/s offered over {:.2}s",
        report.achieved_rate_hz, report.offered_rate_hz, report.elapsed_secs,
    );
    if report.latency.count > 0 {
        eprintln!(
            "  latency:  p50 {} µs, p95 {} µs, p99 {} µs (min {} µs, max {} µs)",
            report.latency.p50(),
            report.latency.p95(),
            report.latency.p99(),
            report.min_latency_micros,
            report.latency.max,
        );
        eprintln!(
            "  inflight: p50 {}, p95 {}, max {}",
            report.inflight.p50(),
            report.inflight.p95(),
            report.inflight.max,
        );
    }
}

/// Shapes a loadtest report as the flat `BENCH_*.json` row array the bench regression
/// gate (.github/scripts/compare_bench.py) understands. Latencies are reported in
/// nanoseconds like every other bench row; every value is clamped away from zero so a
/// baseline row can never produce an infinite regression ratio.
fn loadtest_bench_rows(name: &str, report: &LoadtestReport) -> JsonValue {
    let completed = report.completed.max(1);
    let min_ns = (report.min_latency_micros.max(1) * 1_000) as f64;
    let max_ns = (report.latency.max.max(1) * 1_000) as f64;
    let mean_ns = ((report.latency.sum as f64 / completed as f64) * 1_000.0).max(1.0);
    let row = |id: String, mean: f64| {
        JsonValue::Object(vec![
            ("id".to_string(), JsonValue::from_str_value(&id)),
            ("min_ns".to_string(), JsonValue::from_f64(min_ns)),
            ("mean_ns".to_string(), JsonValue::from_f64(mean.max(1.0))),
            ("max_ns".to_string(), JsonValue::from_f64(max_ns)),
            ("iterations".to_string(), JsonValue::from_u64(completed)),
        ])
    };
    // request_period is wall-clock per completed request — it degrades (grows) when
    // the serve path slows down or sheds more, which is the direction the gate checks.
    let period_ns = (report.elapsed_secs * 1e9 / completed as f64).max(1.0);
    JsonValue::Array(vec![
        row(format!("serve/{name}/latency"), mean_ns),
        row(
            format!("serve/{name}/latency_p50"),
            (report.latency.p50().max(1) * 1_000) as f64,
        ),
        row(
            format!("serve/{name}/latency_p95"),
            (report.latency.p95().max(1) * 1_000) as f64,
        ),
        row(
            format!("serve/{name}/latency_p99"),
            (report.latency.p99().max(1) * 1_000) as f64,
        ),
        row(format!("serve/{name}/request_period"), period_ns),
    ])
}

fn overlay(args: &[String]) -> ExitCode {
    let mut listen: Option<&str> = None;
    let mut id: Option<u64> = None;
    let mut seed = 0u64;
    let mut bootstrap: Option<PeerRef> = None;
    let mut tick_millis = 50u64;
    let mut protocol = ProtocolConfig::small();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => match iter.next() {
                Some(value) => listen = Some(value),
                None => {
                    eprintln!("--listen requires an address (host:port or unix:/path)");
                    return ExitCode::FAILURE;
                }
            },
            "--id" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(value) => id = Some(value),
                None => {
                    eprintln!("--id requires a peer identifier (u64, unique per overlay)");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(value) => seed = value,
                None => {
                    eprintln!("--seed requires a u64");
                    return ExitCode::FAILURE;
                }
            },
            "--bootstrap" => match iter.next().and_then(|v| parse_peer_ref(v)) {
                Some(value) => bootstrap = Some(value),
                None => {
                    eprintln!("--bootstrap requires <id>@<addr> (e.g. 0@10.0.0.5:9200)");
                    return ExitCode::FAILURE;
                }
            },
            "--tick-millis" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(value) => tick_millis = value,
                None => {
                    eprintln!("--tick-millis requires a duration in milliseconds");
                    return ExitCode::FAILURE;
                }
            },
            "--active-cap" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => protocol.active_cap = value,
                None => {
                    eprintln!("--active-cap requires the hard degree cutoff k_c");
                    return ExitCode::FAILURE;
                }
            },
            "--walks" => match iter.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(value) => protocol.attach_walks = value,
                None => {
                    eprintln!("--walks requires the attachment walk count m");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown option '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(listen), Some(id)) = (listen, id) else {
        eprintln!("overlay requires --listen <addr> and --id N\n{}", usage());
        return ExitCode::FAILURE;
    };
    let node = match OverlayNode::bind(&OverlayNodeConfig {
        listen: listen.to_string(),
        id,
        seed,
        protocol: protocol.clone(),
        bootstrap: bootstrap.clone(),
        tick_millis,
    }) {
        Ok(node) => node,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "overlay peer {id} on {} — k_c {}, {} attachment walk(s), seed {seed}, {}",
        node.local_addr(),
        protocol.active_cap,
        protocol.attach_walks,
        match &bootstrap {
            Some(contact) => format!("joining through {}@{}", contact.id, contact.addr),
            None => "seeding a new overlay".to_string(),
        },
    );
    let _handle = node.run();
    // The daemon runs until the process is killed; the protocol threads own the work.
    loop {
        std::thread::park();
    }
}

/// Parses the `--bootstrap` contact syntax `<id>@<addr>`.
fn parse_peer_ref(value: &str) -> Option<PeerRef> {
    let (id, addr) = value.split_once('@')?;
    let id = id.parse::<u64>().ok()?;
    if addr.is_empty() {
        return None;
    }
    Some(PeerRef::new(id, addr))
}

fn scenario_command(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("template") => template(args.get(1).map(String::as_str)),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn snapshot_command(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("build") => snapshot_build_command(&args[1..]),
        Some("inspect") => snapshot_inspect(&args[1..]),
        Some("verify") => snapshot_verify(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn snapshot_build_command(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut shards: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--out" => match iter.next() {
                Some(value) => out = Some(value),
                None => {
                    eprintln!("-o requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => shards = Some(value),
                None => {
                    eprintln!("--shards requires a shard count");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => {
                if spec_path.replace(other).is_some() {
                    eprintln!("build takes exactly one spec file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let (Some(spec_path), Some(out)) = (spec_path, out) else {
        eprintln!("build requires a spec file and -o <file.sfos>\n{}", usage());
        return ExitCode::FAILURE;
    };
    // No full scenario validation here: building only needs the topology section, so a
    // minimal build spec (no search/sweep) works; build_snapshot checks what it uses.
    let text = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match ScenarioSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Default to the spec's own engine sharding so the persisted manifest matches what
    // the scenario would run with; --shards overrides.
    let shards = shards.unwrap_or_else(|| spec.sweep.as_ref().map_or(0, |s| s.shard_count));
    let file = match build_snapshot(&spec, shards) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = file.save(out) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let provenance = file.provenance.as_ref().expect("build attaches provenance");
    eprintln!(
        "wrote {out}: '{}' — {} nodes, {} edges{}, seed {}",
        provenance.label,
        file.csr.node_count(),
        file.csr.edge_count(),
        file.shards
            .as_ref()
            .map(|s| format!(", {} shards", s.len()))
            .unwrap_or_default(),
        provenance.seed,
    );
    ExitCode::SUCCESS
}

/// Loads a snapshot file for `inspect`/`verify`, printing errors the CLI way.
fn load_snapshot(path: &str) -> Result<SnapshotFile, ExitCode> {
    match SnapshotFile::load(path) {
        Ok(file) => Ok(file),
        Err(e) => {
            eprintln!("{path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn single_path<'a>(args: &'a [String], command: &str) -> Result<&'a str, ExitCode> {
    match args {
        [path] => Ok(path.as_str()),
        _ => {
            eprintln!("{command} takes exactly one snapshot file\n{}", usage());
            Err(ExitCode::FAILURE)
        }
    }
}

fn snapshot_inspect(args: &[String]) -> ExitCode {
    let path = match single_path(args, "inspect") {
        Ok(path) => path,
        Err(code) => return code,
    };
    let file = match load_snapshot(path) {
        Ok(file) => file,
        Err(code) => return code,
    };
    let header = file.header();
    println!("{path}: SFOS version {}", header.version);
    println!("  nodes:  {}", header.node_count);
    println!("  edges:  {}", header.edge_count);
    let degrees = sfoverlay::prelude::GraphView::degrees(&file.csr);
    if let (Some(&min), Some(&max)) = (degrees.iter().min(), degrees.iter().max()) {
        let mean = 2.0 * header.edge_count as f64 / header.node_count as f64;
        println!("  degree: min {min}, mean {mean:.2}, max {max}");
    }
    match &file.shards {
        Some(records) => {
            let boundary: Vec<usize> = records
                .iter()
                .map(|record| record.boundary_len(&file.csr))
                .collect();
            let cross = boundary.iter().sum::<usize>() / 2;
            let fraction = if header.edge_count == 0 {
                0.0
            } else {
                cross as f64 / header.edge_count as f64
            };
            println!(
                "  shards: {} (cross-shard edges: {cross}, boundary fraction {fraction:.4})",
                records.len()
            );
            // Per-shard cut quality: adjacency entries come straight from the offsets
            // array, boundary entries are the rows' entries leaving the range (the
            // stored table, which the load checked), so the per-shard fraction is
            // outbound boundary entries over the shard's directed entries.
            let (offsets, _) = file.csr.raw_parts();
            for (index, (record, &boundary)) in records.iter().zip(&boundary).enumerate() {
                let entries =
                    offsets[record.end as usize] as u64 - offsets[record.start as usize] as u64;
                let shard_fraction = if entries == 0 {
                    0.0
                } else {
                    boundary as f64 / entries as f64
                };
                println!(
                    "    shard {index}: nodes {}..{} ({} entries, {} boundary, \
                     boundary fraction {shard_fraction:.4})",
                    record.start, record.end, entries, boundary,
                );
            }
        }
        None => println!("  shards: none (plain topology)"),
    }
    match &file.provenance {
        Some(p) => {
            println!(
                "  provenance: '{}' (m={}, {})",
                p.label,
                p.m,
                match p.cutoff {
                    Some(k_c) => format!("k_c={k_c}"),
                    None => "no k_c".to_string(),
                }
            );
            println!(
                "  streams: seed {}, realization {}, sweep seed {:#018x}",
                p.seed, p.realization, p.sweep_seed
            );
            if let Some(origin) = &p.origin {
                println!("  origin: {origin}");
            }
        }
        None => println!("  provenance: none (not runnable as a scenario topology)"),
    }
    // The byte layout comes from a prefix read of the file itself (the full load above
    // already proved the checksum), answering "where does each section live" and
    // whether `--mmap` can borrow the arrays in place.
    match sfoverlay::prelude::section_layout(path) {
        Ok(layout) => {
            println!("  layout ({} bytes total):", layout.file_len);
            let row = |name: &str, range: &std::ops::Range<u64>| {
                println!(
                    "    {name:<12} {:>12} .. {:<12} ({} bytes)",
                    range.start,
                    range.end,
                    range.end - range.start
                );
            };
            row("header", &layout.header_bytes);
            if let Some(provenance) = &layout.provenance_bytes {
                row("provenance", provenance);
            }
            row("offsets", &layout.offsets_bytes);
            row("targets", &layout.targets_bytes);
            if let Some(manifest) = &layout.manifest_bytes {
                row("manifest", manifest);
            }
            row("trailer", &layout.trailer_bytes);
            println!(
                "    zero-copy eligible: {}",
                if layout.zero_copy_eligible() {
                    "yes (arrays are 4-byte aligned; --mmap borrows them in place)"
                } else {
                    "no (--mmap falls back to an owned copy)"
                }
            );
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn snapshot_verify(args: &[String]) -> ExitCode {
    let path = match single_path(args, "verify") {
        Ok(path) => path,
        Err(code) => return code,
    };
    // One full load checks magic, version, checksum, and structural consistency of the
    // arrays and manifest; building the sharded store from it additionally proves the
    // manifest is the partition the store cuts.
    let file = match load_snapshot(path) {
        Ok(file) => file,
        Err(code) => return code,
    };
    let (nodes, edges) = (file.csr.node_count(), file.csr.edge_count());
    let sharded = file.shards.is_some();
    if sharded {
        if let Err(e) = ShardedCsr::from_snapshot_file(file) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{path}: ok — {nodes} nodes, {edges} edges, checksum and structure verified{}",
        if sharded {
            ", shard manifest consistent"
        } else {
            ""
        }
    );
    ExitCode::SUCCESS
}

fn load_spec(path: &str) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(spec)
}

fn run(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut threads: Option<usize> = None;
    let mut quiet = false;
    let mut mmap = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mmap" => mmap = true,
            "--out" => match iter.next() {
                Some(value) => out = Some(value),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match iter.next() {
                Some(value) => metrics_out = Some(value),
                None => {
                    eprintln!("--metrics-out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) => threads = Some(value),
                None => {
                    eprintln!("--threads requires a thread count (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--quiet" => quiet = true,
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => {
                if path.replace(other).is_some() {
                    eprintln!("run takes exactly one spec file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("run requires a spec file\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut spec = match load_spec(path) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(threads) = threads {
        // Results are thread-count independent, so overriding the knob is always safe.
        match spec.sweep.as_mut() {
            Some(sweep) => sweep.threads = threads,
            None => eprintln!("note: --threads only applies to scenarios with a sweep section"),
        }
    }
    if !quiet {
        eprintln!(
            "running scenario '{}' ({} realizations) ...",
            spec.name, spec.realizations
        );
    }
    execute_and_emit(&spec, out, quiet, mmap, metrics_out)
}

/// Shared tail of `scenario run` and `dispatch`: execute through the remote-enabled
/// runner (a no-op wiring difference for specs without workers) and emit the report.
///
/// With `metrics_out`, the runner is handed a telemetry [`Registry`] and its snapshot is
/// written as a second JSON file after a successful run. The report bytes are the same
/// either way: telemetry never enters the report.
fn execute_and_emit(
    spec: &ScenarioSpec,
    out: Option<&str>,
    quiet: bool,
    mmap: bool,
    metrics_out: Option<&str>,
) -> ExitCode {
    let registry = metrics_out.map(|_| Arc::new(Registry::new()));
    let runner = match &registry {
        Some(registry) => remote_runner_with_metrics(Arc::clone(registry)),
        None => remote_runner(),
    };
    let report = match runner.with_mmap(mmap).run(spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scenario '{}' failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        summarize(&report);
    }
    let json = report.to_json_string();
    match out {
        Some(out_path) => {
            if let Err(e) = std::fs::write(out_path, &json) {
                eprintln!("cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            if !quiet {
                eprintln!("report written to {out_path}");
            }
        }
        None => print!("{json}"),
    }
    if let (Some(metrics_path), Some(registry)) = (metrics_out, &registry) {
        let metrics_json = registry.snapshot().to_json().to_pretty_string();
        if let Err(e) = std::fs::write(metrics_path, &metrics_json) {
            eprintln!("cannot write {metrics_path}: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("metrics written to {metrics_path}");
        }
    }
    ExitCode::SUCCESS
}

/// `sfo stats <addr>` — poll a running worker's telemetry snapshot and print it as JSON.
fn stats(args: &[String]) -> ExitCode {
    let [addr] = args else {
        eprintln!(
            "stats takes exactly one worker address (host:port or unix:/path)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let addr = addr.as_str();
    let mut client = match WorkerClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match client.stats() {
        Ok(snapshot) => snapshot,
        Err(e) => {
            eprintln!("{addr}: stats request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{addr}: {} counter(s), {} histogram(s)",
        snapshot.counters.len(),
        snapshot.histograms.len()
    );
    print!("{}", snapshot.to_json().to_pretty_string());
    ExitCode::SUCCESS
}

/// Prints a short human-readable digest of the report to stderr.
fn summarize(report: &ScenarioReport) {
    match &report.result {
        ScenarioResult::Sweep { curves } => {
            eprintln!("{} curve(s):", curves.len());
            for series in report.series(SweepMetric::Hits) {
                let last = series.points.last();
                eprintln!(
                    "  {:<40} {} points, final hits {:.2}",
                    series.label,
                    series.points.len(),
                    last.map(|p| p.y).unwrap_or(0.0),
                );
            }
        }
        ScenarioResult::DegreeDistribution { curves } => {
            eprintln!("{} P(k) curve(s):", curves.len());
            for curve in curves {
                let max_k = curve.points.last().map(|p| p.k).unwrap_or(0.0);
                eprintln!(
                    "  {:<40} {} bins, support up to k≈{:.1}",
                    curve.label,
                    curve.points.len(),
                    max_k,
                );
            }
        }
        ScenarioResult::Churn { realizations } => {
            for run in realizations {
                eprintln!(
                    "  realization {}: {} queries, success rate {:.3}, {} peers at end",
                    run.realization, run.queries_issued, run.success_rate, run.final_peers
                );
            }
        }
        ScenarioResult::Trace { realizations } => {
            for run in realizations {
                eprintln!(
                    "  realization {}: {} arrivals, success rate {:.3}, worst connectivity {:.3}",
                    run.realization, run.arrivals_applied, run.success_rate, run.worst_connectivity
                );
            }
        }
        ScenarioResult::Live { realizations } => {
            for run in realizations {
                eprintln!(
                    "  realization {}: {} arrivals, {} leaves, {} peers at end, {} edges, \
                     max degree {}, {} message(s) — snapshot {}",
                    run.realization,
                    run.arrivals,
                    run.leaves,
                    run.final_peers,
                    run.edges,
                    run.max_degree,
                    run.messages,
                    run.snapshot,
                );
            }
        }
    }
}

fn validate(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("validate requires at least one spec file\n{}", usage());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        match load_spec(path) {
            Ok(spec) => {
                let curves = spec.expanded_topologies().len();
                println!(
                    "{path}: ok — scenario '{}', {} dynamics{}",
                    spec.name,
                    spec.dynamics.kind(),
                    if curves > 0 {
                        format!(", {curves} curve(s)")
                    } else {
                        String::new()
                    }
                );
            }
            Err(message) => {
                eprintln!("{message}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn template(kind: Option<&str>) -> ExitCode {
    let spec = match kind.unwrap_or("static") {
        "static" => ScenarioSpec::sweep(
            "my-sweep",
            TopologySpec::Pa {
                nodes: 1_000,
                m: 1,
                cutoff: None,
            },
            SearchSpec::NormalizedFlooding { k_min: None },
            SweepSpec::grid(
                vec![1, 2, 3],
                vec![Some(10), Some(50), None],
                vec![2, 3, 4, 5, 6, 7, 8],
                30,
            ),
            42,
            3,
        ),
        "degree" => sfoverlay::prelude::ScenarioSpec::degree_distribution(
            "my-degrees",
            TopologySpec::Pa {
                nodes: 10_000,
                m: 1,
                cutoff: None,
            },
            Some(sfoverlay::scenario::SweepSpec::axes(
                vec![1, 3],
                vec![Some(10), None],
            )),
            8,
            42,
            3,
        ),
        "churn" => ScenarioSpec::churn("my-churn", SimulationConfig::small(), 42, 3),
        "trace" => {
            use sfoverlay::prelude::{ChurnTraceConfig, SessionModel, TraceRunConfig};
            ScenarioSpec::trace(
                "my-trace",
                ChurnTraceConfig {
                    duration: 600,
                    arrival_rate: 0.4,
                    sessions: SessionModel::Pareto {
                        shape: 1.6,
                        minimum: 30.0,
                    },
                    crash_fraction: 0.25,
                },
                TraceRunConfig::small(),
                42,
                3,
            )
        }
        "live" => ScenarioSpec::live("my-live", LiveConfig::small(), "my-live.sfos", 42),
        other => {
            eprintln!(
                "unknown template '{other}' (expected static, degree, churn, trace, or live)"
            );
            return ExitCode::FAILURE;
        }
    };
    // The spec parser tolerates `//` comments, so the header survives a round trip.
    println!("// Starter scenario — edit and run with: sfo scenario run <file.json>");
    println!("// Override the sweep thread count without editing: --threads N (0 = all cores).");
    println!(
        "// Engine knobs under \"sweep\": \"shard_count\" partitions each frozen realization,"
    );
    println!("// \"batch\": true fans its searches over the sfo-engine worker pool; results are");
    println!("// independent of both knobs and of --threads.");
    print!("{}", spec.to_json_string());
    ExitCode::SUCCESS
}
