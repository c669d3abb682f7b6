//! `sfo-bench-e2e` — the end-to-end half of the benchmark.
//!
//! Drives live `sfo` processes over TCP loopback and the CLI, exactly as a user
//! would, and reports what that user sees: latency from each request's *due* time,
//! CPU per request, wall and CPU time of the offline commands, peak memory, set-up
//! time, and how many operations failed. It is its own instrument on purpose — exact
//! per-sample buffers, a blocking receiver — and checks every output against the
//! repo's byte-identity rule outside the timed path.

use sfo_benchmark::{
    emit_result, frame_of, median, quantile, read_workload_file, request_shape, run_command,
    run_command_ok, seeded_workload_json, snapshot_spec_of, sorted, table_algorithm, Args,
    CommandRun, CpuReading, Daemon, HostCpu, Measured, RequestShape, Result, ScratchDir,
    WORKLOAD_DIR,
};
use sfo_engine::job_rng;
use sfo_graph::snapshot::SnapshotFile;
use sfo_graph::CsrGraph;
use sfo_net::frame::read_frame;
use sfo_net::message::{recv_message, send_message, Message};
use sfo_net::NetStream;
use sfo_scenario::WorkloadSpec;
use sfo_search::SearchOutcome;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Open-loop windows a run may take before the best attempt is reported. Two, not the
/// issue's three: in a noisy hour one window in three is discarded, and a third window
/// in every serve run would take the driver's 92 runs past their time limit.
const MAX_ATTEMPTS: usize = 2;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sfo-bench-e2e: outputs were NOT correct (see failed count)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("sfo-bench-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// What one workload run produced.
struct Outcome {
    measured: Measured,
    attempted: u64,
    failed: u64,
}

fn run() -> Result<bool> {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("--compare") {
        let dir = raw
            .next()
            .ok_or("--compare requires the report directory")?;
        return compare_sets(Path::new(&dir));
    }
    let args = Args::parse()?;
    let scratch = ScratchDir::create(&args)?;
    let outcome = match args.workload.as_str() {
        "scenario-sweep" => scenario_sweep(&args, &scratch)?,
        "placed-sweep" => placed_sweep(&args, &scratch)?,
        _ => serve(&args, &scratch)?,
    };
    drop(scratch);
    let Outcome {
        mut measured,
        attempted,
        failed,
    } = outcome;
    measured.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    measured.print_table(&format!(
        "{} seed {} ({} attempted, {} failed)",
        args.workload, args.seed, attempted, failed
    ));
    if let Some(report) = &args.report {
        measured.write_report(report)?;
    }
    emit_result("end_to_end", &measured, attempted, failed)
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first timed operation.

/// Runs `cycles` cold set-up cycles — `sfo snapshot build`, then one daemon per flag
/// set until each `Hello` is read, then `cold_run` on the fresh daemons — and returns
/// the last cycle's daemons with the median cycle time.
fn setup_daemons(
    args: &Args,
    scratch: &ScratchDir,
    cycles: usize,
    flag_sets: &[&[&str]],
    mut cold_run: impl FnMut(&[Daemon]) -> Result<()>,
) -> Result<(Vec<Daemon>, PathBuf, f64)> {
    let spec_name = snapshot_spec_of(&args.workload);
    let spec = std::path::absolute(format!("{WORKLOAD_DIR}/snapshots/{spec_name}.json"))
        .map_err(|e| e.to_string())?;
    let snapshot = scratch.path(&format!("{spec_name}.sfos"));
    let log = args.log_path();
    let mut times = Vec::new();
    let mut daemons = Vec::new();
    for _ in 0..cycles {
        daemons.clear();
        let _ = std::fs::remove_file(&snapshot);
        let start = Instant::now();
        run_command_ok(
            Command::new(&args.sfo)
                .args(["snapshot", "build"])
                .arg(&spec)
                .arg("-o")
                .arg(&snapshot)
                .args(["--shards", "4"]),
            &log,
        )?;
        for flags in flag_sets {
            let daemon = Daemon::spawn(&args.sfo, &snapshot, flags, &log)?;
            daemon.connect()?;
            daemons.push(daemon);
        }
        cold_run(&daemons)?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((daemons, snapshot, median(&times)))
}

// ---------------------------------------------------------------------------
// serve-small / serve-flood: one client connection against one daemon.

/// Per-workload constants of the serve runs (rates and job mix live in the JSON).
struct ServePlan {
    /// Cold set-up cycles whose median is `setup_s`.
    setup_cycles: usize,
    /// Closed-loop requests every set-up cycle ends with. On `serve-flood` a cycle is
    /// otherwise 20 ms of process spawns, which measures the host (29 % spread over
    /// ten runs); its first hundred requests are 0.12 s of the daemon's own work.
    setup_requests: u64,
    /// Untimed closed-loop requests that fault the snapshot in and fill the pools.
    warmup: u64,
    /// Requests of one flat-out round (the whole round is kept `PIPELINE_DEPTH` deep).
    round: usize,
    /// How many replies of each phase the oracle re-computes (all, when larger).
    verify: usize,
    /// A window whose generator ran later than this at its 99th percentile measured
    /// the box hiccuping, not the program; it is discarded and repeated.
    max_late_p99_ms: f64,
}

/// Flat-out rounds per run; `wall_s`, `cpu_s` and `cpu_ms_per_req` are their medians.
const ROUNDS: usize = 5;
/// Requests in flight during a flat-out round: enough that no daemon thread ever
/// sleeps, far below the daemon's `--queue-bound`.
const PIPELINE_DEPTH: usize = 64;

fn serve_plan(workload: &str) -> ServePlan {
    match workload {
        "serve-small" => ServePlan {
            setup_cycles: 5,
            setup_requests: 0,
            warmup: 5_000,
            round: 20_000,
            verify: usize::MAX,
            max_late_p99_ms: 2.0,
        },
        _ => ServePlan {
            setup_cycles: 9,
            setup_requests: 100,
            warmup: 100,
            round: 1_000,
            verify: 128,
            // Both cores run millisecond kernels here, so the sender routinely waits a
            // scheduler slice (3-4 ms) for a core; a hiccup is 20 ms and more.
            max_late_p99_ms: 8.0,
        },
    }
}

fn serve(args: &Args, scratch: &ScratchDir) -> Result<Outcome> {
    let plan = serve_plan(&args.workload);
    let mut spec = WorkloadSpec::parse(&read_workload_file(&format!("{}.json", args.workload))?)
        .map_err(|e| format!("{}.json: {e}", args.workload))?;
    spec.seed = args.seed;
    let shape = request_shape(&args.workload, args.seed)?;

    // A fixed request count (rate x seconds) rather than a fixed duration, so every
    // seed offers the same amount of work: draw a longer schedule and cut it.
    let count = (spec.arrivals.offered_rate_hz() * args.seconds as f64).round() as usize;
    spec.duration_secs = args.seconds as f64 * 1.5 + 1.0;
    let mut schedule = spec.schedule().map_err(|e| e.to_string())?;
    if schedule.len() < count {
        return Err(format!(
            "the schedule holds {} arrivals, fewer than the {count} the run needs",
            schedule.len()
        ));
    }
    schedule.truncate(count);

    // Requests are encoded before the clock starts: the generator only sleeps and
    // writes. Open-loop requests take indices 0..count and the flat-out rounds the
    // indices after them, so every timed request of a run is a distinct job; the
    // untimed ones come after all of those.
    let timed = (count + plan.round * ROUNDS) as u64;
    let closed_loop = |stream: &mut NetStream, node_count: u64, requests: u64| -> Result<()> {
        for index in 0..requests {
            let (message, _, _) = shape.request(timed + index, node_count);
            send_message(stream, &message).map_err(|e| e.to_string())?;
            recv_message(stream).map_err(|e| e.to_string())?;
        }
        Ok(())
    };

    let (mut daemons, snapshot, setup_s) = setup_daemons(
        args,
        scratch,
        plan.setup_cycles,
        &[&["--engine-workers", "2", "--queue-bound", "1024"]],
        |daemons| {
            if plan.setup_requests == 0 {
                return Ok(());
            }
            let (mut stream, hello) = daemons[0].connect()?;
            closed_loop(&mut stream, hello.node_count, plan.setup_requests)
        },
    )?;
    let daemon = daemons.pop().expect("one daemon per flag set");
    let (mut stream, hello) = daemon.connect()?;
    let node_count = hello.node_count;

    let frames: Vec<Vec<u8>> = (0..timed)
        .map(|index| frame_of(&shape.request(index, node_count).0))
        .collect();
    let (open_frames, round_frames) = frames.split_at(count);

    closed_loop(&mut stream, node_count, plan.warmup)?;

    // The open loop, repeated while the generator itself ran late; the attempt whose
    // generator was least late is the one reported.
    struct Window {
        open: Exchange,
        late_p99_ms: f64,
        stolen: f64,
        stats: Vec<(&'static str, f64, &'static str)>,
    }
    let mut best: Option<Window> = None;
    let mut attempts = 0;
    while attempts < MAX_ATTEMPTS {
        attempts += 1;
        let stats_before = daemon.stats()?;
        let host_before = HostCpu::now()?;
        let open = exchange(&stream, Some(&schedule), open_frames, &daemon)?;
        let window = Window {
            late_p99_ms: quantile(&sorted(open.late_ms.clone()), 0.99),
            stolen: HostCpu::now()?.stolen_since(&host_before),
            stats: sfo_benchmark::stats_delta(&stats_before, &daemon.stats()?),
            open,
        };
        println!(
            "attempt {attempts}: generator lateness p99 {:.3} ms over {} requests",
            window.late_p99_ms,
            window.open.late_ms.len()
        );
        // A desynchronized stream cannot carry another attempt.
        let done = window.late_p99_ms <= plan.max_late_p99_ms || window.open.unanswered > 0;
        if best
            .as_ref()
            .is_none_or(|b| window.late_p99_ms < b.late_p99_ms)
        {
            best = Some(window);
        }
        if done {
            break;
        }
    }
    let Window {
        open,
        stolen,
        stats: open_stats,
        ..
    } = best.expect("at least one attempt ran");

    // Flat out: the same connection kept PIPELINE_DEPTH requests deep, so the daemon
    // never idles. CPU per request here is the capacity metric — without the cost of
    // waking sleeping threads, which varies with whatever else the host is doing.
    let mut rounds = Vec::new();
    if open.unanswered == 0 {
        for frames in round_frames.chunks(plan.round) {
            rounds.push(exchange(&stream, None, frames, &daemon)?);
        }
    }
    drop(stream);
    let reaped = daemon.stop()?;

    // Correctness, outside the timed path: the byte-identity rule is the oracle.
    let oracle = Oracle::load(&snapshot, &shape)?;
    let mut attempted = count as u64;
    let mut failed = open.failed();
    let mut checked = 0;
    let mut wrong = oracle.wrong_replies(&open, 0, plan.verify, args.seed, &mut checked);
    for (round, exchanged) in rounds.iter().enumerate() {
        attempted += plan.round as u64;
        failed += exchanged.failed();
        let first = (count + round * plan.round) as u64;
        wrong += oracle.wrong_replies(
            exchanged,
            first,
            plan.verify / ROUNDS,
            args.seed,
            &mut checked,
        );
    }
    failed += wrong;
    println!("verified {checked} replies against the serial oracle: {wrong} wrong");

    let completed = open.latency_ms.len();
    if completed == 0 || rounds.len() < ROUNDS {
        return Err("the connection was lost before every phase completed".to_string());
    }
    let latency = sorted(open.latency_ms.clone());
    let late = sorted(open.late_ms.clone());
    let round_wall: Vec<f64> = rounds.iter().map(|r| r.window_s).collect();
    let round_cpu: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    let mut measured = Measured::default();
    measured.set("setup_s", setup_s, "s");
    measured.set("latency_p50_ms", quantile(&latency, 0.50), "ms");
    set_latency_tail(&mut measured, &latency);
    measured.set(
        "cpu_ms_per_req",
        median(&round_cpu) * 1e3 / plan.round as f64,
        "ms",
    );
    measured.set("wall_s", median(&round_wall), "s");
    measured.set("cpu_s", median(&round_cpu), "s");
    measured.set("peak_rss_mb", reaped.peak_rss_mb, "MB");
    // Not declared end-to-end metrics: validity of the run and the daemon's own view.
    measured.set("latency_p99_ms", quantile(&latency, 0.99), "ms");
    measured.set("latency_max_ms", *latency.last().expect("non-empty"), "ms");
    measured.set("latency_samples", completed as f64, "count");
    measured.set(
        "open_loop.cpu_ms_per_req",
        open.cpu_s * 1e3 / completed as f64,
        "ms",
    );
    measured.set(
        "flat_out.req_per_s",
        plan.round as f64 / median(&round_wall),
        "1/s",
    );
    measured.set("driver.late_p50_ms", quantile(&late, 0.50), "ms");
    measured.set("driver.late_p99_ms", quantile(&late, 0.99), "ms");
    measured.set("driver.inflight_max", open.inflight_max as f64, "count");
    measured.set("driver.attempts", attempts as f64, "count");
    measured.set("driver.stolen_share", stolen, "ratio");
    measured.set("driver.window_s", open.window_s, "s");
    for (name, value, unit) in &open_stats {
        measured.set(name, *value, unit);
    }
    Ok(Outcome {
        measured,
        attempted,
        failed,
    })
}

/// Records `latency_tail_ms`, the tail percentile the window's sample count supports,
/// and which one that is. A percentile is reported only where about ten samples lie
/// beyond it: the 95th needs 200 samples (the serve windows hold thousands); an offline
/// window holds 30-55 commands, whose 95th percentile is the second or third slowest
/// command — the host hiccuping, not the program — so theirs is the 75th.
fn set_latency_tail(measured: &mut Measured, sorted_ms: &[f64]) {
    let q = if sorted_ms.len() >= 200 { 0.95 } else { 0.75 };
    measured.set("latency_tail_ms", quantile(sorted_ms, q), "ms");
    measured.set("latency_tail_percentile", q * 1e2, "%");
}

/// What one phase on the connection measured.
struct Exchange {
    /// Due time (open loop) or write time (flat out) to reply decoded, per completed
    /// request, in ms.
    latency_ms: Vec<f64>,
    /// Due time to the write starting, per sent request, in ms (open loop only).
    late_ms: Vec<f64>,
    /// The decoded reply of each request, by position (`None`: never answered).
    replies: Vec<Option<Message>>,
    inflight_max: u64,
    shed: u64,
    errors: u64,
    decode_errors: u64,
    unanswered: u64,
    /// First due time (or first write) to last reply, in seconds.
    window_s: f64,
    /// Daemon CPU over the phase.
    cpu_s: f64,
}

impl Exchange {
    fn failed(&self) -> u64 {
        self.shed + self.errors + self.decode_errors + self.unanswered
    }
}

/// Sends `frames` on one connection and collects the replies: a sender thread and a
/// receiver thread blocked in `read`.
///
/// With a `schedule` (due offsets in µs) the sender sleeps until each request is due
/// and writes it whether or not earlier replies have come back — an open loop. Without
/// one it writes as fast as `PIPELINE_DEPTH` requests in flight allow — flat out.
fn exchange(
    stream: &NetStream,
    schedule: Option<&[u64]>,
    frames: &[Vec<u8>],
    daemon: &Daemon,
) -> Result<Exchange> {
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let inflight = AtomicU64::new(0);
    // Flat out, each send takes a slot and each reply returns one.
    let (take_slot, return_slot) = std::sync::mpsc::sync_channel::<()>(PIPELINE_DEPTH);
    let cpu_before = CpuReading::of(daemon.pid())?;
    let start = Instant::now() + Duration::from_millis(20);
    let due =
        move |index: usize| schedule.map(|offsets| start + Duration::from_micros(offsets[index]));

    let (sent, inflight_max, received) = std::thread::scope(|scope| {
        let inflight = &inflight;
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(frames.len());
            let mut inflight_max = 0u64;
            for (index, frame) in frames.iter().enumerate() {
                match due(index) {
                    Some(due) => {
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                    }
                    None => {
                        if take_slot.send(()).is_err() {
                            break; // The receiver gave up.
                        }
                    }
                }
                let now = Instant::now();
                inflight_max = inflight_max.max(inflight.fetch_add(1, Ordering::Relaxed) + 1);
                if write_half.write_all(frame).is_err() {
                    break;
                }
                sent.push(now);
            }
            if sent.len() < frames.len() {
                // The connection died under the sender; wake the receiver too.
                if let NetStream::Tcp(tcp) = &write_half {
                    let _ = tcp.shutdown(std::net::Shutdown::Both);
                }
            }
            (sent, inflight_max)
        });
        let receiver = scope.spawn(move || {
            let mut received = Vec::with_capacity(frames.len());
            while received.len() < frames.len() {
                let Ok((message_type, payload)) = read_frame(&mut read_half) else {
                    break;
                };
                let reply = Message::decode(message_type, &payload);
                let decoded_at = Instant::now();
                inflight.fetch_sub(1, Ordering::Relaxed);
                let _ = return_slot.try_recv();
                let lost_sync = reply.is_err();
                received.push((decoded_at, reply));
                if lost_sync {
                    break;
                }
            }
            received
        });
        let (sent, inflight_max) = sender.join().expect("the sender does not panic");
        let received = receiver.join().expect("the receiver does not panic");
        (sent, inflight_max, received)
    });
    let cpu_s = CpuReading::of(daemon.pid())?.since(&cpu_before);

    // Latency runs from the due time; flat out, where nothing is due, from the write.
    let from = |index: usize| due(index).unwrap_or(sent[index]);
    let mut exchanged = Exchange {
        latency_ms: Vec::with_capacity(received.len()),
        late_ms: match schedule {
            Some(_) => sent
                .iter()
                .enumerate()
                .map(|(index, at)| at.duration_since(from(index)).as_secs_f64() * 1e3)
                .collect(),
            None => Vec::new(),
        },
        replies: vec![None; frames.len()],
        inflight_max,
        shed: 0,
        errors: 0,
        decode_errors: 0,
        unanswered: (frames.len() - received.len()) as u64,
        window_s: received
            .last()
            .map_or(0.0, |(at, _)| at.duration_since(from(0)).as_secs_f64()),
        cpu_s,
    };
    // The worker answers strictly in arrival order, so reply i belongs to request i.
    for (index, (decoded_at, reply)) in received.into_iter().enumerate() {
        match reply {
            Ok(message) => {
                match &message {
                    Message::BatchResult { .. } => exchanged
                        .latency_ms
                        .push(decoded_at.duration_since(from(index)).as_secs_f64() * 1e3),
                    Message::Overloaded { .. } => exchanged.shed += 1,
                    _ => exchanged.errors += 1,
                }
                exchanged.replies[index] = Some(message);
            }
            Err(_) => exchanged.decode_errors += 1,
        }
    }
    Ok(exchanged)
}

/// Positions of the replies the oracle re-computes: all `count`, or a seeded sample of
/// `want`.
fn verification_sample(count: usize, want: usize, seed: u64) -> Vec<usize> {
    if want >= count || want == 0 {
        return (0..count).collect();
    }
    // A seeded stride walk: `want` distinct indices spread over the whole run.
    let stride = count / want;
    let offset = (seed as usize) % stride;
    (0..want).map(|i| i * stride + offset).collect()
}

/// The serial oracle: the workload's search on the workload's snapshot, one job at a
/// time on the job's own stream — the loop `run_queries_serial` runs, entered at an
/// arbitrary global job index.
struct Oracle {
    graph: CsrGraph,
    algorithm: Box<dyn sfo_search::SearchAlgorithm<CsrGraph> + Send + Sync>,
    shape: RequestShape,
}

impl Oracle {
    fn load(snapshot: &Path, shape: &RequestShape) -> Result<Oracle> {
        let file =
            SnapshotFile::load(snapshot).map_err(|e| format!("{}: {e}", snapshot.display()))?;
        let m = file
            .provenance
            .as_ref()
            .map_or(0, |p| usize::try_from(p.m).unwrap_or(usize::MAX));
        let algorithm = table_algorithm::<CsrGraph>(shape.search(), m)?;
        Ok(Oracle {
            graph: file.csr,
            algorithm,
            shape: shape.clone(),
        })
    }

    /// How many of a seeded sample of `want` replies of `exchanged` (whose first request
    /// has global index `first`) differ from the serial search.
    fn wrong_replies(
        &self,
        exchanged: &Exchange,
        first: u64,
        want: usize,
        seed: u64,
        checked: &mut usize,
    ) -> u64 {
        let node_count = self.graph.node_count() as u64;
        let mut wrong = 0;
        for position in verification_sample(exchanged.replies.len(), want, seed) {
            if let Some(Message::BatchResult { outcomes }) = &exchanged.replies[position] {
                *checked += 1;
                if outcomes.as_slice() != [self.expected(first + position as u64, node_count)] {
                    wrong += 1;
                }
            }
        }
        wrong
    }

    fn expected(&self, index: u64, node_count: u64) -> SearchOutcome {
        let (_, source, ttl) = self.shape.request(index, node_count);
        let mut rng = job_rng(self.shape.seed(), index as usize);
        self.algorithm.search(&self.graph, source, ttl, &mut rng)
    }
}

// ---------------------------------------------------------------------------
// scenario-sweep / placed-sweep: a CLI command, run back to back.

/// Cold set-up cycles of an offline workload; `setup_s` is their median.
const OFFLINE_SETUP_CYCLES: usize = 5;

/// Untimed runs of the command between set-up and the window. The first runs of a
/// busy spell are the slow ones (530, 517, 534, 380, 347 ms, then 260-330 ms for the
/// rest of a window, when this was sized): caches, and whatever the host does to a
/// guest that has just become busy. Timed, those alone were the window's slowest 5 %.
const OFFLINE_WARMUP_S: f64 = 2.0;

/// Runs `command` back to back, untimed for [`OFFLINE_WARMUP_S`], then until `seconds`
/// have passed (and at least three times), and returns the timed runs.
fn repeat_command(
    mut command: impl FnMut() -> Result<(CommandRun, f64)>,
    seconds: u64,
) -> Result<Vec<(CommandRun, f64)>> {
    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < OFFLINE_WARMUP_S {
        command()?;
    }
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 3 || start.elapsed().as_secs_f64() < seconds as f64 {
        runs.push(command()?);
    }
    Ok(runs)
}

/// The end-to-end metrics of an offline workload, where one operation is one command:
/// latency percentiles and medians over the `runs`, CPU per search job.
fn offline_metrics(
    runs: &[(CommandRun, f64)],
    jobs_per_command: u64,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Measured {
    let wall: Vec<f64> = runs.iter().map(|(run, _)| run.wall_s).collect();
    let cpu: Vec<f64> = runs
        .iter()
        .map(|(run, extra)| run.reaped.cpu_s + extra)
        .collect();
    let wall_ms = sorted(wall.iter().map(|s| s * 1e3).collect());
    let mut measured = Measured::default();
    measured.set("setup_s", setup_s, "s");
    measured.set("latency_p50_ms", quantile(&wall_ms, 0.50), "ms");
    set_latency_tail(&mut measured, &wall_ms);
    measured.set("latency_p95_ms", quantile(&wall_ms, 0.95), "ms");
    measured.set(
        "cpu_ms_per_req",
        median(&cpu) * 1e3 / jobs_per_command as f64,
        "ms",
    );
    measured.set("wall_s", median(&wall), "s");
    measured.set("cpu_s", median(&cpu), "s");
    measured.set("peak_rss_mb", peak_rss_mb, "MB");
    measured.set("latency_samples", runs.len() as f64, "count");
    measured
}

/// The text of a report's `result` subtree (the spec it embeds may differ in knobs
/// that must not move a result byte, such as the thread count).
fn result_subtree(report: &Path) -> Result<String> {
    let text = std::fs::read_to_string(report)
        .map_err(|e| format!("cannot read {}: {e}", report.display()))?;
    let at = text
        .find("\n  \"result\": ")
        .ok_or_else(|| format!("{} has no \"result\" member", report.display()))?;
    Ok(text[at..].to_string())
}

/// Search jobs one run of a sweep spec executes.
fn sweep_jobs(spec: &sfo_scenario::json::JsonValue) -> u64 {
    let len = |value: Option<&sfo_scenario::json::JsonValue>| {
        value
            .and_then(|v| v.as_array())
            .map_or(1, |a| a.len().max(1)) as u64
    };
    let sweep = spec.get("sweep");
    let field = |name: &str| sweep.and_then(|s| s.get(name));
    let number =
        |value: Option<&sfo_scenario::json::JsonValue>| value.and_then(|v| v.as_u64()).unwrap_or(1);
    len(field("stubs"))
        * len(field("cutoffs"))
        * len(field("ttls"))
        * number(field("searches_per_point"))
        * number(spec.get("realizations"))
}

fn scenario_sweep(args: &Args, scratch: &ScratchDir) -> Result<Outcome> {
    let spec_json = seeded_workload_json(&args.workload, args.seed)?;
    let spec = scratch.path("scenario-sweep.json");
    std::fs::write(&spec, spec_json.to_pretty_string()).map_err(|e| e.to_string())?;
    let log = args.log_path();

    let report = scratch.path("report.json");
    let sweep = |threads: &str, out: &Path| {
        let mut command = Command::new(&args.sfo);
        command
            .args(["scenario", "run"])
            .arg(&spec)
            .args(["--threads", threads, "--quiet", "--out"])
            .arg(out);
        command
    };

    // Set-up of an offline run is everything before the first timed command: validate
    // the spec, run it once. (The validate alone is 1.3 ms of process spawn, which
    // measured the host's mood: 32 % spread, 25 % drift between two studies.)
    let mut setup = Vec::new();
    for _ in 0..OFFLINE_SETUP_CYCLES {
        let start = Instant::now();
        run_command_ok(
            Command::new(&args.sfo)
                .args(["scenario", "validate"])
                .arg(&spec),
            &log,
        )?;
        run_command_ok(&mut sweep("1", &report), &log)?;
        setup.push(start.elapsed().as_secs_f64());
    }

    let runs = repeat_command(
        || Ok((run_command(&mut sweep("1", &report), &log)?, 0.0)),
        args.seconds,
    )?;

    // Correctness: the thread count must not move a result byte.
    let parallel = scratch.path("report-parallel.json");
    let parallel_run = run_command(&mut sweep("2", &parallel), &log)?;
    let mut failed = runs.iter().filter(|(run, _)| !run.reaped.success).count() as u64;
    if !parallel_run.reaped.success || result_subtree(&report)? != result_subtree(&parallel)? {
        failed += 1;
    }
    println!(
        "compared the --threads 1 report with a --threads 2 run of the same spec: {}",
        if failed == 0 {
            "byte-equal"
        } else {
            "DIFFERENT"
        }
    );

    let peaks: Vec<f64> = runs.iter().map(|(run, _)| run.reaped.peak_rss_mb).collect();
    let measured = offline_metrics(
        &runs,
        sweep_jobs(&spec_json),
        median(&setup),
        median(&peaks),
    );
    Ok(Outcome {
        measured,
        attempted: runs.len() as u64 + 1,
        failed,
    })
}

fn placed_sweep(args: &Args, scratch: &ScratchDir) -> Result<Outcome> {
    let spec_json = seeded_workload_json(&args.workload, args.seed)?;
    let spec = scratch.path("placed-sweep.json");
    std::fs::write(&spec, spec_json.to_pretty_string()).map_err(|e| e.to_string())?;
    let log = args.log_path();

    // The spec names its snapshot relative to the scratch directory.
    let report = scratch.path("report.json");
    let dispatch = |daemons: &[Daemon]| {
        let mut command = Command::new(&args.sfo);
        command
            .current_dir(scratch.dir())
            .arg("dispatch")
            .arg(&spec)
            .arg("--placed");
        for daemon in daemons {
            command.args(["--worker", &daemon.addr]);
        }
        command.args(["--quiet", "--out"]).arg(&report);
        command
    };

    // Set-up ends with the first dispatch, on daemons that have not yet touched their
    // shard: without it a cycle is 0.1 s of process spawns and page faults, which
    // drifted 19-25 % between two studies of the same code.
    let (daemons, _snapshot, setup_s) = setup_daemons(
        args,
        scratch,
        OFFLINE_SETUP_CYCLES,
        &[
            &["--shards", "2", "--shard", "0", "--engine-workers", "1"],
            &["--shards", "2", "--shard", "1", "--engine-workers", "1"],
        ],
        |daemons| run_command_ok(&mut dispatch(daemons), &log).map(|_| ()),
    )?;
    let daemon_cpu =
        || -> Result<Vec<CpuReading>> { daemons.iter().map(|d| CpuReading::of(d.pid())).collect() };

    let runs = repeat_command(
        || {
            let cpu_before = daemon_cpu()?;
            let run = run_command(&mut dispatch(&daemons), &log)?;
            let used = daemon_cpu()?
                .iter()
                .zip(&cpu_before)
                .map(|(after, before)| after.since(before))
                .sum();
            Ok((run, used))
        },
        args.seconds,
    )?;

    let mut peak = 0.0;
    for daemon in daemons {
        peak += daemon.stop()?.peak_rss_mb;
    }

    // Correctness: a placed run is byte-identical to the single-host run.
    let local = scratch.path("report-local.json");
    let local_run = run_command(
        Command::new(&args.sfo)
            .current_dir(scratch.dir())
            .args(["scenario", "run"])
            .arg(&spec)
            .args(["--quiet", "--out"])
            .arg(&local),
        &log,
    )?;
    let mut failed = runs.iter().filter(|(run, _)| !run.reaped.success).count() as u64;
    if !local_run.reaped.success || result_subtree(&report)? != result_subtree(&local)? {
        failed += 1;
    }
    println!(
        "compared the placed report with `sfo scenario run` of the same spec: {}",
        if failed == 0 {
            "byte-equal"
        } else {
            "DIFFERENT"
        }
    );

    let measured = offline_metrics(&runs, sweep_jobs(&spec_json), setup_s, peak);
    Ok(Outcome {
        measured,
        attempted: runs.len() as u64 + 1,
        failed,
    })
}

// ---------------------------------------------------------------------------
// `--compare <dir>`: two full sets of the same code, held to the benchmark's bounds.

/// Prints, per workload and end-to-end metric, both sets' values, their relative
/// difference and the bound, and checks that the exact per-layer counts repeated.
/// Returns whether every pair agreed.
fn compare_sets(dir: &Path) -> Result<bool> {
    use sfo_scenario::json::JsonValue;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let declaration = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |section: &str| -> Vec<(String, f64)> {
        declaration
            .get(section)
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|entry| {
                let name = entry.get("name")?.as_str()?.to_string();
                let bound = entry
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                Some((name, bound))
            })
            .collect()
    };
    let both = |kind: &str, workload: &str| -> Result<(Measured, Measured)> {
        let set =
            |n: u32| Measured::read_report(&dir.join(format!("{kind}-{workload}.set{n}.json")));
        Ok((set(1)?, set(2)?))
    };
    let mut agreed = true;
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for workload in sfo_benchmark::WORKLOADS {
        let (first, second) = both("e2e", workload)?;
        // failed_share is not a declared metric (it is the result line's failed /
        // attempted), but it is held to the strictest bound: it may not rise at all.
        let mut rows = names("end_to_end");
        rows.push(("failed_share".to_string(), 0.0));
        for (name, bound) in rows {
            let (Some(a), Some(b)) = (first.get(&name), second.get(&name)) else {
                return Err(format!("{workload}: {name} is missing from a set"));
            };
            let diff = if a == b {
                0.0
            } else {
                (b - a) / a.abs().max(f64::MIN_POSITIVE)
            };
            let ok = diff.abs() <= bound;
            agreed &= ok;
            println!(
                "{workload:<15} {name:<18} {a:>14.6} {b:>14.6} {:>+8.1}% {:>6.0}%{}",
                diff * 1e2,
                bound * 1e2,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
        let (first, second) = both("layers", workload)?;
        for (name, _) in names("per_layer") {
            let exact = name.ends_with("_bytes")
                || name.ends_with("_per_job")
                || name.contains("placed_entries_");
            if exact && first.get(&name) != second.get(&name) {
                agreed = false;
                println!(
                    "{workload:<15} {name:<18} {:?} != {:?}  EXACT COUNT DIFFERS",
                    first.get(&name),
                    second.get(&name)
                );
            }
        }
    }
    println!(
        "{}",
        if agreed {
            "both sets agree within every bound, and every exact count repeated"
        } else {
            "the sets DISAGREE (see above)"
        }
    );
    Ok(agreed)
}
