//! `sfo-bench-trace` — the per-layer half of the benchmark.
//!
//! Replays the workload's seeded requests step by step, in-process and
//! single-threaded, around calls into each crate's public functions. Every step is a
//! span (name, start, end, parent span, request id) kept in memory and written to
//! `trace-<workload>.json` at exit; the per-layer metrics are medians over those
//! spans, exact counts taken at the same boundaries, and a few live round trips that
//! give the floor the spans are subtracted from. Nothing inside the program under
//! test is instrumented: these are the benchmark's own spans around the layers.

use rand::RngCore;
use sfo_benchmark::{
    emit_result, frame_of, mean, median, read_workload_file, request_shape, seeded_workload_json,
    snapshot_spec_of, stats_delta, table_algorithm, Args, CpuReading, Daemon, Measured,
    RequestShape, Result, ScratchDir,
};
use sfo_engine::{
    job_rng, placed_advance, placed_start, run_queries_offset, AlgorithmTable, EngineConfig,
    PlacedStep, SearchScratch, ShardedCsr, StepStats, WorkerPool,
};
use sfo_graph::snapshot::{read_identity, Provenance, SnapshotFile, SnapshotOrigin};
use sfo_graph::{CsrGraph, CsrSlice};
use sfo_net::frame::read_frame;
use sfo_net::message::{recv_message, send_message, BatchRequest, FrontierResult, Message};
use sfo_net::placed::{placed_algorithm, shard_of, shard_range, validate_state};
use sfo_net::{ServeConfig, WorkerClient, WorkerServer};
use sfo_obs::{Histogram, Registry};
use sfo_scenario::json::JsonValue;
use sfo_scenario::{ScenarioRunner, ScenarioSpec};
use sfo_search::experiment::{label_salt, stream_rng};
use sfo_search::SearchOutcome;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Jobs the placed probes run. Few, and with their TTL capped: a placed flood hops
/// every time the frontier's head leaves the shard, so its cost is super-linear in
/// the TTL (a full-coverage flood would hop tens of thousands of times).
const PLACED_JOBS: u64 = 16;
const PLACED_TTL_CAP: u32 = 4;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sfo-bench-trace: a probe's output was NOT correct (see failed count)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("sfo-bench-trace: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: Option<u64>,
}

/// The in-memory span log. A disabled tracer runs the same code and records nothing,
/// which is how the tracing overhead is measured.
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn begin(&mut self, name: &'static str, request: Option<u64>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(id), "spans close innermost first");
        }
    }

    /// Runs `work` inside a leaf span.
    fn timed<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request);
        let value = work();
        self.end(id);
        value
    }

    /// Durations of every span called `name`, in microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e3)
            .collect()
    }

    fn median_us(&self, name: &str) -> Result<f64> {
        let durations = self.durations_us(name);
        if durations.is_empty() {
            return Err(format!("no span named {name} was recorded"));
        }
        Ok(median(&durations))
    }

    fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }
}

/// Operations whose output a probe checked, and how many were wrong.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("sfo-bench-trace: MISMATCH: {}", what());
            }
        }
    }
}

// ---------------------------------------------------------------------------

/// One traced run: what every probe reads and writes.
struct Probe {
    args: Args,
    shape: RequestShape,
    tracer: Tracer,
    measured: Measured,
    checks: Checks,
}

fn run() -> Result<bool> {
    let args = Args::parse()?;
    let scratch = ScratchDir::create(&args)?;
    let mut probe = Probe {
        shape: request_shape(&args.workload, args.seed)?,
        args,
        tracer: Tracer::new(true),
        measured: Measured::default(),
        checks: Checks::default(),
    };
    let topology = probe.setup_path(&scratch)?;
    let replayed = probe.request_path(&topology)?;
    probe.obs();
    let placed = probe.placed_path(&topology)?;
    probe.request_floor(&topology, &replayed)?;
    probe.hop_floor(&topology, &placed)?;
    probe.scenario_layer()?;
    drop(scratch);

    let Probe {
        args,
        tracer,
        mut measured,
        checks,
        ..
    } = probe;
    if let Some(e2e) = &args.merge {
        fold_in_end_to_end(&Measured::read_report(e2e)?, &mut measured);
    }
    measured.print_table(&format!(
        "{} seed {} per-layer ({} checked, {} failed)",
        args.workload, args.seed, checks.attempted, checks.failed
    ));
    let trace_path = args.out.join(format!("trace-{}.json", args.workload));
    write_trace(&trace_path, &args, &tracer, &measured)?;
    println!(
        "{} spans written to {}",
        tracer.spans.len(),
        trace_path.display()
    );
    if let Some(report) = &args.report {
        measured.write_report(report)?;
    }
    emit_result("per_layer", &measured, checks.attempted, checks.failed)
}

// ---------------------------------------------------------------------------
// Set-up path: generator, freeze, shard build, snapshot I/O, slicing, bind.

/// The workload's topology as the later probes need it.
struct Topology {
    snapshot: PathBuf,
    csr: CsrGraph,
    /// Stub count of the generating spec (resolves `k_min: None` searches).
    m: usize,
    identity: u64,
    /// The two placed slices (`--shards 2`).
    slices: Vec<CsrSlice>,
}

impl Probe {
    fn setup_path(&mut self, scratch: &ScratchDir) -> Result<Topology> {
        let spec_name = snapshot_spec_of(&self.args.workload);
        let text = read_workload_file(&format!("snapshots/{spec_name}.json"))?;
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{spec_name}.json: {e}"))?;
        let curve = spec
            .expanded_topologies()
            .into_iter()
            .next()
            .ok_or_else(|| format!("{spec_name}.json names no topology"))?;
        let setup = self.tracer.begin("setup", None);

        // The steps of `sfo snapshot build`, one span each.
        let label = spec.curve_label.clone().unwrap_or_else(|| curve.label());
        let mut rng = stream_rng(spec.seed, label_salt(&label), 0);
        let graph = self
            .tracer
            .timed("core.generate", None, || {
                curve
                    .build()
                    .map_err(|e| e.to_string())?
                    .generate(&mut rng)
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("{spec_name}.json: {e}"))?;
        let sweep_seed = rng.next_u64();
        let csr = self.tracer.timed("graph.freeze", None, || graph.freeze());
        drop(graph);
        let sharded = self.tracer.timed("engine.shard_build", None, || {
            ShardedCsr::from_csr_owned(csr, 4)
        });
        let mut file = sharded.to_snapshot_file();
        drop(sharded);
        file.provenance = Some(Provenance {
            label,
            m: curve.m() as u64,
            cutoff: curve.cutoff().map(|k_c| k_c as u64),
            seed: spec.seed,
            realization: 0,
            sweep_seed,
            origin: Some(SnapshotOrigin::Generator),
        });
        let snapshot = scratch.path(&format!("{spec_name}.sfos"));
        self.tracer
            .timed("graph.snapshot_save", None, || file.save(&snapshot))
            .map_err(|e| e.to_string())?;
        drop(file);
        let bytes = std::fs::metadata(&snapshot)
            .map_err(|e| e.to_string())?
            .len();

        // The steps of `sfo serve` start-up.
        let loaded = self
            .tracer
            .timed("graph.snapshot_load", None, || {
                SnapshotFile::load(&snapshot)
            })
            .map_err(|e| e.to_string())?;
        let mapped = self
            .tracer
            .timed("graph.snapshot_load_mmap", None, || {
                SnapshotFile::load_mmap(&snapshot)
            })
            .map_err(|e| e.to_string())?;
        drop(mapped);
        let node_count = loaded.csr.node_count();
        let slices: Vec<CsrSlice> = self.tracer.timed("graph.extract_slice", None, || {
            (0..2)
                .map(|i| loaded.csr.extract_slice(shard_range(node_count, 2, i)))
                .collect()
        });
        let server = self
            .tracer
            .timed("net.bind", None, || {
                WorkerServer::bind(&ServeConfig {
                    snapshot_path: snapshot.display().to_string(),
                    listen: "127.0.0.1:0".to_string(),
                    engine_workers: 2,
                    shard_count: 0,
                    shard_index: None,
                    mmap: false,
                    queue_bound: 1024,
                })
            })
            .map_err(|e| e.to_string())?;
        drop(server);
        self.tracer.end(setup);

        for (metric, span) in [
            ("core.generate_s", "core.generate"),
            ("graph.freeze_s", "graph.freeze"),
            ("engine.shard_build_s", "engine.shard_build"),
            ("graph.snapshot_save_s", "graph.snapshot_save"),
            ("graph.snapshot_load_s", "graph.snapshot_load"),
            ("graph.snapshot_load_mmap_s", "graph.snapshot_load_mmap"),
            ("graph.extract_slice_s", "graph.extract_slice"),
            ("net.bind_s", "net.bind"),
        ] {
            self.measured.set(metric, self.tracer.total_s(span), "s");
        }
        self.measured
            .set("graph.snapshot_bytes", bytes as f64, "bytes");

        let provenance = loaded.provenance.as_ref().expect("written above");
        Ok(Topology {
            identity: read_identity(&snapshot).map_err(|e| e.to_string())?,
            m: usize::try_from(provenance.m).unwrap_or(usize::MAX),
            snapshot,
            csr: loaded.csr,
            slices,
        })
    }
}

// ---------------------------------------------------------------------------
// Request path: what one SubmitBatch costs in each layer.

/// Builds the request's algorithm table exactly as the server does per request.
fn build_table(
    algorithms: &[sfo_scenario::SearchSpec],
    m: usize,
) -> Result<AlgorithmTable<ShardedCsr>> {
    algorithms
        .iter()
        .map(|spec| table_algorithm::<ShardedCsr>(spec, m))
        .collect()
}

fn message_of(frame: &[u8]) -> Result<Message> {
    let (message_type, payload) = read_frame(&mut &frame[..]).map_err(|e| e.to_string())?;
    Message::decode(message_type, &payload).map_err(|e| e.to_string())
}

/// Exact counts one replay accumulated.
#[derive(Default)]
struct ReplayCounts {
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    hits: Vec<f64>,
    messages: Vec<f64>,
    kernel_ns: u64,
}

/// Replays requests `0..count` one step at a time; returns each request's outcome.
fn replay(
    shape: &RequestShape,
    topology: &Topology,
    graph: &Arc<ShardedCsr>,
    pool: &WorkerPool,
    count: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<Vec<SearchOutcome>> {
    let node_count = topology.csr.node_count() as u64;
    let mut scratch = SearchScratch::new();
    let mut replayed = Vec::with_capacity(count as usize);
    for index in 0..count {
        let id = Some(index);
        let request = tracer.begin("request", id);
        let (message, source, ttl) = tracer.timed("scenario.request_build", id, || {
            shape.request(index, node_count)
        });
        let frame = tracer.timed("net.encode_request", id, || frame_of(&message));
        let decoded = tracer.timed("net.decode_request", id, || message_of(&frame))?;
        let Message::SubmitBatch(BatchRequest::Queries {
            seed,
            index_offset,
            algorithms,
            batch,
        }) = decoded
        else {
            return Err("a request frame did not decode to a query batch".to_string());
        };
        let table = Arc::new(tracer.timed("scenario.build_search", id, || {
            build_table(&algorithms, topology.m)
        })?);
        let outcomes = tracer.timed("engine.batch", id, || {
            run_queries_offset(pool, graph, &table, &batch, seed, index_offset as usize)
        });
        // The batch's one job again, serially with one scratch arena: the kernel the
        // batch span contains (a pool worker runs exactly this call).
        let kernel_start = Instant::now();
        let kernel = tracer.timed("search.kernel", id, || {
            let mut rng = job_rng(seed, index_offset as usize);
            table[0].search_with_scratch(graph.as_ref(), source, ttl, &mut rng, &mut scratch)
        });
        counts.kernel_ns += kernel_start.elapsed().as_nanos() as u64;
        let reply = Message::BatchResult { outcomes };
        let reply_frame = tracer.timed("net.encode_reply", id, || frame_of(&reply));
        let decoded_reply = tracer.timed("net.decode_reply", id, || message_of(&reply_frame))?;
        tracer.end(request);

        if decoded_reply != reply
            || reply
                != (Message::BatchResult {
                    outcomes: vec![kernel],
                })
        {
            return Err(format!("request {index}: pool, kernel and codec disagree"));
        }
        counts.request_bytes.push(frame.len() as f64);
        counts.reply_bytes.push(reply_frame.len() as f64);
        counts.hits.push(kernel.hits as f64);
        counts.messages.push(kernel.messages as f64);
        replayed.push(kernel);
    }
    Ok(replayed)
}

impl Probe {
    fn request_path(&mut self, topology: &Topology) -> Result<Vec<SearchOutcome>> {
        let count: u64 = if self.args.workload == "serve-small" {
            2000
        } else {
            300
        };
        // The daemon serves the whole snapshot as one shard on a two-worker pool.
        let graph = Arc::new(ShardedCsr::from_csr_owned(topology.csr.clone(), 1));
        let pool = WorkerPool::new(EngineConfig::with_workers(2));

        // Warm the pool and the caches, then the same replay untraced and traced: the
        // difference is what recording spans costs.
        let mut off = Tracer::new(false);
        replay(
            &self.shape,
            topology,
            &graph,
            &pool,
            count.min(50),
            &mut off,
            &mut ReplayCounts::default(),
        )?;
        let untraced_start = Instant::now();
        let untraced = replay(
            &self.shape,
            topology,
            &graph,
            &pool,
            count,
            &mut off,
            &mut ReplayCounts::default(),
        )?;
        let untraced_s = untraced_start.elapsed().as_secs_f64();
        let mut counts = ReplayCounts::default();
        let traced_start = Instant::now();
        let replayed = replay(
            &self.shape,
            topology,
            &graph,
            &pool,
            count,
            &mut self.tracer,
            &mut counts,
        )?;
        let traced_s = traced_start.elapsed().as_secs_f64();
        self.checks.check(untraced == replayed, || {
            "traced and untraced replays returned different outcomes".to_string()
        });
        self.checks.attempted += count;

        for (metric, span) in [
            ("scenario.request_build_us", "scenario.request_build"),
            ("net.encode_request_us", "net.encode_request"),
            ("net.decode_request_us", "net.decode_request"),
            ("scenario.build_search_us", "scenario.build_search"),
            ("engine.batch_us", "engine.batch"),
            ("search.kernel_us", "search.kernel"),
            ("net.encode_reply_us", "net.encode_reply"),
            ("net.decode_reply_us", "net.decode_reply"),
        ] {
            self.measured
                .set(metric, self.tracer.median_us(span)?, "us");
        }
        self.measured.set(
            "engine.dispatch_self_us",
            self.tracer.median_us("engine.batch")? - self.tracer.median_us("search.kernel")?,
            "us",
        );
        self.measured
            .set("net.request_bytes", mean(&counts.request_bytes), "bytes");
        self.measured
            .set("net.reply_bytes", mean(&counts.reply_bytes), "bytes");
        self.measured
            .set("search.hits_per_job", mean(&counts.hits), "count");
        self.measured
            .set("search.messages_per_job", mean(&counts.messages), "count");
        let messages: f64 = counts.messages.iter().sum();
        self.measured.set(
            "search.ns_per_message",
            counts.kernel_ns as f64 / messages.max(1.0),
            "ns",
        );
        self.measured.set(
            "trace.overhead_share",
            (traced_s - untraced_s) / untraced_s,
            "ratio",
        );
        self.measured
            .set("trace.replayed_requests", count as f64, "count");
        Ok(replayed)
    }
}

impl Probe {
    fn obs(&mut self) {
        const RECORDS: u64 = 1_000_000;
        let histogram = Histogram::new();
        let start = Instant::now();
        for value in 0..RECORDS {
            histogram.record(black_box(value & 0xffff));
        }
        let nanos = start.elapsed().as_nanos() as f64;
        assert_eq!(black_box(histogram.count()), RECORDS);
        self.measured
            .set("obs.record_ns", nanos / RECORDS as f64, "ns");
    }
}

// ---------------------------------------------------------------------------
// Placed path: one search hopping between two slices.

/// What the in-process placed replay produced, for the live replay to be held to.
struct PlacedReplay {
    outcomes: Vec<SearchOutcome>,
    hops: u64,
}

fn placed_job(shape: &RequestShape, job: u64, node_count: u64) -> (sfo_graph::NodeId, u32) {
    let (_, source, ttl) = shape.request(job, node_count);
    (source, ttl.min(PLACED_TTL_CAP))
}

impl Probe {
    fn placed_path(&mut self, topology: &Topology) -> Result<PlacedReplay> {
        let node_count = topology.csr.node_count();
        let algorithm =
            placed_algorithm(self.shape.search(), topology.m).map_err(|e| e.to_string())?;
        let serial = table_algorithm::<CsrGraph>(self.shape.search(), topology.m)?;
        let mut scratch = SearchScratch::new();
        let mut stats = StepStats::default();
        let mut frontier_bytes = Vec::new();
        let mut replayed = PlacedReplay {
            outcomes: Vec::new(),
            hops: 0,
        };
        for job in 0..PLACED_JOBS {
            let id = Some(job);
            let (source, ttl) = placed_job(&self.shape, job, node_count as u64);
            let rng = job_rng(self.shape.seed(), job as usize);
            let mut state = placed_start(algorithm, source, ttl, rng.state_words());
            let span = self.tracer.begin("placed.job", id);
            // Every hop is what the dispatcher and a shard host do between them: frame
            // the frontier, decode and validate it, advance it, frame the answer, decode it.
            let outcome = loop {
                let hop = self.tracer.begin("placed.hop", id);
                let owner = state
                    .cursor()
                    .map_or(0, |cursor| shard_of(cursor as usize, node_count, 2));
                let forward = Message::ForwardFrontier {
                    identity: topology.identity,
                    state,
                };
                let frame = self
                    .tracer
                    .timed("net.frontier_encode", id, || frame_of(&forward));
                frontier_bytes.push(frame.len() as f64);
                let Message::ForwardFrontier { state: arrived, .. } =
                    self.tracer
                        .timed("net.frontier_decode", id, || message_of(&frame))?
                else {
                    return Err("a frontier frame decoded to another message".to_string());
                };
                self.tracer
                    .timed("net.frontier_validate", id, || {
                        validate_state(&arrived, node_count)
                    })
                    .map_err(|e| e.to_string())?;
                let step = self.tracer.timed("engine.placed_advance", id, || {
                    placed_advance(&topology.slices[owner], arrived, &mut scratch, &mut stats)
                });
                let answer = Message::FrontierResult(match step {
                    PlacedStep::Done(outcome) => FrontierResult::Done(outcome),
                    PlacedStep::Forward(next) => FrontierResult::Continue(next),
                });
                let answer_frame = self
                    .tracer
                    .timed("net.frontier_result_encode", id, || frame_of(&answer));
                let Message::FrontierResult(result) =
                    self.tracer.timed("net.frontier_result_decode", id, || {
                        message_of(&answer_frame)
                    })?
                else {
                    return Err("a frontier result decoded to another message".to_string());
                };
                self.tracer.end(hop);
                replayed.hops += 1;
                match result {
                    FrontierResult::Done(outcome) => break outcome,
                    FrontierResult::Continue(next) => state = next,
                }
            };
            self.tracer.end(span);
            let mut rng = job_rng(self.shape.seed(), job as usize);
            let expected = serial.search(&topology.csr, source, ttl, &mut rng);
            self.checks.check(outcome == expected, || {
                format!("placed job {job}: {outcome:?}, serial oracle {expected:?}")
            });
            replayed.outcomes.push(outcome);
        }

        self.measured.set(
            "engine.placed_hops_per_job",
            replayed.hops as f64 / PLACED_JOBS as f64,
            "count",
        );
        self.measured.set(
            "engine.placed_advance_us",
            self.tracer.median_us("engine.placed_advance")?,
            "us",
        );
        self.measured.set(
            "engine.placed_entries_scanned",
            stats.entries_scanned as f64,
            "count",
        );
        self.measured.set(
            "engine.placed_entries_cross",
            stats.entries_cross as f64,
            "count",
        );
        self.measured.set(
            "net.frontier_encode_us",
            self.tracer.median_us("net.frontier_encode")?,
            "us",
        );
        self.measured.set(
            "net.frontier_decode_us",
            self.tracer.median_us("net.frontier_decode")?,
            "us",
        );
        self.measured
            .set("net.frontier_bytes_mean", mean(&frontier_bytes), "bytes");
        Ok(replayed)
    }
}

// ---------------------------------------------------------------------------
// Live floors: the same requests and hops against real daemons.

impl Probe {
    /// One whole-snapshot daemon, closed loop at depth 1, the replayed requests again:
    /// the round-trip floor, and the daemon's own account of the same requests.
    fn request_floor(&mut self, topology: &Topology, replayed: &[SearchOutcome]) -> Result<()> {
        let node_count = topology.csr.node_count() as u64;
        let daemon = Daemon::spawn(
            &self.args.sfo,
            &topology.snapshot,
            &["--engine-workers", "2", "--queue-bound", "1024"],
            &self.args.log_path(),
        )?;
        let (mut stream, _) = daemon.connect()?;
        let mut round_trip = |message: &Message| -> Result<Message> {
            send_message(&mut stream, message).map_err(|e| e.to_string())?;
            recv_message(&mut stream).map_err(|e| e.to_string())
        };
        for index in 0..50.min(replayed.len() as u64) {
            round_trip(&self.shape.request(index, node_count).0)?;
        }
        let before = daemon.stats()?;
        let cpu_before = CpuReading::of(daemon.pid())?;
        for (index, expected) in replayed.iter().enumerate() {
            let (message, _, _) = self.shape.request(index as u64, node_count);
            let reply = self
                .tracer
                .timed("net.rtt", Some(index as u64), || round_trip(&message))?;
            let wanted = Message::BatchResult {
                outcomes: vec![*expected],
            };
            self.checks.check(reply == wanted, || {
                format!("request {index}: the daemon answered {reply:?}, the replay {expected:?}")
            });
        }
        let cpu_s = CpuReading::of(daemon.pid())?.since(&cpu_before);
        self.measured.set(
            "net.srv_cpu_us_per_req",
            cpu_s * 1e6 / replayed.len() as f64,
            "us",
        );
        for (name, value, unit) in stats_delta(&before, &daemon.stats()?) {
            self.measured.set(name, value, unit);
        }
        daemon.stop()?;

        let tracer = &self.tracer;
        let rtt_floor = tracer.median_us("net.rtt")?;
        let mut blocking = 0.0;
        for span in [
            "net.encode_request",
            "net.decode_request",
            "scenario.build_search",
            "engine.batch",
            "net.encode_reply",
            "net.decode_reply",
        ] {
            blocking += tracer.median_us(span)?;
        }
        self.measured.set("net.rtt_floor_us", rtt_floor, "us");
        self.measured
            .set("net.wire_handoff_us", rtt_floor - blocking, "us");
        // The daemon times execute_request (table build + batch), not its codec work,
        // and its histogram yields an exact mean: compare with the same spans' means.
        let server_side = mean(&tracer.durations_us("scenario.build_search"))
            + mean(&tracer.durations_us("engine.batch"));
        let own = self.measured.get("net.srv_request_us_mean").unwrap_or(0.0);
        self.measured
            .set("trace.srv_span_ratio", own / server_side, "ratio");
        Ok(())
    }

    /// Two pinned shard daemons: the placed jobs again, hop by hop over the wire.
    fn hop_floor(&mut self, topology: &Topology, placed: &PlacedReplay) -> Result<()> {
        let node_count = topology.csr.node_count();
        let pinned: Vec<Daemon> = ["0", "1"]
            .iter()
            .map(|shard| {
                Daemon::spawn(
                    &self.args.sfo,
                    &topology.snapshot,
                    &["--shards", "2", "--shard", shard, "--engine-workers", "1"],
                    &self.args.log_path(),
                )
            })
            .collect::<Result<_>>()?;
        let mut clients: Vec<WorkerClient> = pinned
            .iter()
            .map(|daemon| WorkerClient::connect(&daemon.addr).map_err(|e| e.to_string()))
            .collect::<Result<_>>()?;
        let algorithm =
            placed_algorithm(self.shape.search(), topology.m).map_err(|e| e.to_string())?;
        let mut live_hops = 0u64;
        for job in 0..PLACED_JOBS {
            let (source, ttl) = placed_job(&self.shape, job, node_count as u64);
            let rng = job_rng(self.shape.seed(), job as usize);
            let mut state = placed_start(algorithm, source, ttl, rng.state_words());
            let outcome = loop {
                let owner = state
                    .cursor()
                    .map_or(0, |cursor| shard_of(cursor as usize, node_count, 2));
                let result = self
                    .tracer
                    .timed("net.hop_rtt", Some(job), || {
                        clients[owner].forward_frontier(topology.identity, state)
                    })
                    .map_err(|e| e.to_string())?;
                live_hops += 1;
                match result {
                    FrontierResult::Done(outcome) => break outcome,
                    FrontierResult::Continue(next) => state = next,
                }
            };
            let expected = placed.outcomes[job as usize];
            self.checks.check(outcome == expected, || {
                format!(
                    "placed job {job}: the daemons answered {outcome:?}, the replay {expected:?}"
                )
            });
        }
        self.checks.check(live_hops == placed.hops, || {
            format!(
                "the live placed replay took {live_hops} hops, the in-process one {}",
                placed.hops
            )
        });
        drop(clients);
        for daemon in pinned {
            daemon.stop()?;
        }

        let hop_rtt = self.tracer.median_us("net.hop_rtt")?;
        let mut hop_work = 0.0;
        for span in [
            "net.frontier_encode",
            "net.frontier_decode",
            "net.frontier_validate",
            "engine.placed_advance",
            "net.frontier_result_encode",
            "net.frontier_result_decode",
        ] {
            hop_work += self.tracer.median_us(span)?;
        }
        self.measured.set("net.hop_rtt_us", hop_rtt, "us");
        self.measured
            .set("net.hop_wire_us", hop_rtt - hop_work, "us");
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scenario layer: parse, run with a registry, emit.

impl Probe {
    fn scenario_layer(&mut self) -> Result<()> {
        // The workload's own scenario when it generates inline; otherwise the scenario
        // its snapshot is built from (a snapshot-backed run has no generate phase).
        let text = if self.args.workload == "scenario-sweep" {
            seeded_workload_json(&self.args.workload, self.args.seed)?.to_pretty_string()
        } else {
            read_workload_file(&format!(
                "snapshots/{}.json",
                snapshot_spec_of(&self.args.workload)
            ))?
        };
        let mut parses = Vec::new();
        for _ in 0..200 {
            let start = Instant::now();
            black_box(ScenarioSpec::parse(black_box(&text)).map_err(|e| e.to_string())?);
            parses.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        self.measured
            .set("scenario.spec_parse_us", median(&parses), "us");

        let spec = ScenarioSpec::parse(&text).map_err(|e| e.to_string())?;
        let registry = Arc::new(Registry::new());
        let report = self
            .tracer
            .timed("scenario.run", None, || {
                ScenarioRunner::new()
                    .with_metrics(Arc::clone(&registry))
                    .run(&spec)
            })
            .map_err(|e| e.to_string())?;
        let emitted = self
            .tracer
            .timed("scenario.report_emit", None, || report.to_json_string());
        black_box(emitted);
        self.measured.set(
            "scenario.report_emit_ms",
            self.tracer.total_s("scenario.report_emit") * 1e3,
            "ms",
        );
        let phases = registry.snapshot();
        for (metric, histogram) in [
            ("scenario.generate_s_sum", "scenario.generate_micros"),
            ("scenario.freeze_s_sum", "scenario.freeze_micros"),
            ("scenario.sweep_s_sum", "scenario.sweep_micros"),
        ] {
            let sum = phases.histogram(histogram).map_or(0, |h| h.sum);
            self.measured.set(metric, sum as f64 / 1e6, "s");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------

/// Derives what needs both runs: the open-loop latency no layer accounts for.
fn fold_in_end_to_end(e2e: &Measured, measured: &mut Measured) {
    let (Some(p50), Some(late), Some(floor)) = (
        e2e.get("latency_p50_ms"),
        e2e.get("driver.late_p50_ms"),
        measured.get("net.rtt_floor_us"),
    ) else {
        return; // An offline workload: no open loop to explain.
    };
    measured.set("net.idle_wake_us", (p50 - late) * 1e3 - floor, "us");
}

fn write_trace(path: &Path, args: &Args, tracer: &Tracer, measured: &Measured) -> Result<()> {
    let optional = |value: Option<u64>| value.map_or(JsonValue::Null, JsonValue::from_u64);
    let spans = tracer
        .spans
        .iter()
        .map(|span| {
            JsonValue::Array(vec![
                JsonValue::from_str_value(span.name),
                JsonValue::from_u64(span.start_ns),
                JsonValue::from_u64(span.end_ns),
                optional(span.parent.map(u64::from)),
                optional(span.request),
            ])
        })
        .collect();
    let fields = ["name", "start_ns", "end_ns", "parent", "request"];
    let trace = JsonValue::Object(vec![
        (
            "workload".to_string(),
            JsonValue::from_str_value(&args.workload),
        ),
        ("seed".to_string(), JsonValue::from_u64(args.seed)),
        ("metrics".to_string(), measured.to_json()),
        (
            "span_fields".to_string(),
            JsonValue::Array(
                fields
                    .iter()
                    .map(|f| JsonValue::from_str_value(f))
                    .collect(),
            ),
        ),
        ("spans".to_string(), JsonValue::Array(spans)),
    ]);
    std::fs::write(path, trace.to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
