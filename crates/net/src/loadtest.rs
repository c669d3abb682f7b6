//! The open-loop load driver behind `sfo loadtest`.
//!
//! [`run_loadtest`] replays a [`WorkloadSpec`]'s derived arrival schedule against one
//! or many `sfo serve` workers: requests go out at their scheduled times whether or
//! not earlier replies have returned (*open loop* — the arrival process never slows
//! down to match the server, which is what makes tail latency measurable), spread
//! round-robin over `workers × connections` pipelined connections. Each connection is
//! a sender/receiver thread pair over one duplicated socket; because the worker
//! answers strictly in arrival order, the receiver matches replies to send times with
//! a plain FIFO — a channel from the sender, which is also what the receiver blocks on
//! when it has caught up (never a poll: a sleeping receiver would add its wake-up
//! period to every latency sample at low rates).
//!
//! The driver records client-side service time into a `loadtest.latency_micros`
//! histogram and the in-flight depth at each send into `loadtest.inflight`, and it
//! *counts* the worker's typed [`Message::Overloaded`] sheds instead of dying on
//! them — driving a worker past saturation is the point, not a failure.
//!
//! Load testing is observational by construction: request `i` carries the batch seed
//! and the global index offset `i × jobs_per_request`, so every job's RNG stream —
//! and therefore every `BatchResult` payload — is byte-identical to an unloaded run
//! no matter how saturated the worker was or which other requests were shed
//! (determinism rule 6).

use crate::frame::{FrameReader, FrameWriter};
use crate::message::{BatchRequest, Hello, Message};
use crate::stream::NetStream;
use crate::NetError;
use sfo_engine::QueryBatch;
use sfo_graph::NodeId;
use sfo_obs::{Counter, Histogram, HistogramSnapshot};
use sfo_scenario::WorkloadSpec;
use sfo_search::SearchOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One load-test run: the workload plus where to aim it.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// The workload to replay.
    pub spec: WorkloadSpec,
    /// Worker addresses (`host:port` or `unix:/path`); the driver opens
    /// [`WorkloadSpec::connections`] connections to each and requires every worker
    /// to announce the same snapshot identity.
    pub workers: Vec<String>,
    /// Keep every completed request's outcomes for verification. Costs memory
    /// proportional to the schedule; the byte-identity tests use it, benches don't.
    pub record_outcomes: bool,
}

/// What a load-test run measured.
///
/// The counter identity `sent == completed + shed + errors` holds whenever
/// `decode_errors` is 0 (a decode error abandons its connection's remaining
/// replies).
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Requests the schedule offered (its arrival count).
    pub offered: u64,
    /// Requests actually written to a socket.
    pub sent: u64,
    /// Requests answered with a `BatchResult`.
    pub completed: u64,
    /// Requests the worker shed with a typed `Overloaded` reply.
    pub shed: u64,
    /// Requests refused with a typed `Error` reply.
    pub errors: u64,
    /// Replies that failed to decode (these abort their connection).
    pub decode_errors: u64,
    /// Wall-clock run length, first send to last reply.
    pub elapsed_secs: f64,
    /// The spec's long-run offered rate, in requests per second.
    pub offered_rate_hz: f64,
    /// Completed requests per second of elapsed time.
    pub achieved_rate_hz: f64,
    /// Client-side request latency in microseconds (completed requests only).
    pub latency: HistogramSnapshot,
    /// Exact smallest completed-request latency in microseconds (the log-bucketed
    /// histogram keeps `max` exactly but not `min`).
    pub min_latency_micros: u64,
    /// In-flight request depth sampled at each send.
    pub inflight: HistogramSnapshot,
    /// Per-request outcomes, indexed by request index, when
    /// [`LoadtestConfig::record_outcomes`] was set; `None` marks requests that were
    /// shed, refused, or never sent.
    pub outcomes: Vec<Option<Vec<SearchOutcome>>>,
}

/// Everything the per-connection threads share.
struct Shared {
    sent: Counter,
    completed: Counter,
    shed: Counter,
    errors: Counter,
    decode_errors: Counter,
    latency: Histogram,
    inflight_hist: Histogram,
    inflight: AtomicU64,
    min_latency: AtomicU64,
    outcomes: Option<Mutex<Vec<Option<Vec<SearchOutcome>>>>>,
}

/// One connection's send plan: `(request index, send offset in µs)`.
type Plan = Vec<(u64, u64)>;

/// Replays the workload against the configured workers and reports what happened.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] when the spec does not validate or the workers
/// disagree about the snapshot they serve, and [`NetError::Io`] when a connection
/// cannot be established. Overload, refused requests, and reply decode failures are
/// *not* errors — they are counted in the report.
pub fn run_loadtest(config: &LoadtestConfig) -> Result<LoadtestReport, NetError> {
    let spec = &config.spec;
    let schedule = spec
        .schedule()
        .map_err(|e| NetError::protocol(format!("workload does not validate: {e}")))?;
    if config.workers.is_empty() {
        return Err(NetError::protocol("loadtest needs at least one worker"));
    }

    // Dial every connection up front; the run starts with all lanes open.
    let mut connections: Vec<(Lane, Hello)> = Vec::new();
    for addr in &config.workers {
        for _ in 0..spec.connections {
            let mut lane = NetStream::connect(addr)?.split()?;
            let hello = match lane.0.recv()? {
                Message::Hello(hello) => hello,
                other => {
                    return Err(NetError::protocol(format!(
                        "expected a Hello from {addr}, got {other:?}"
                    )))
                }
            };
            connections.push((lane, hello));
        }
    }
    let identity = connections[0].1.identity;
    let node_count = connections[0].1.node_count;
    for (i, (_, hello)) in connections.iter().enumerate() {
        if hello.identity != identity {
            return Err(NetError::protocol(format!(
                "workers disagree about the snapshot: connection {i} announces \
                 {:#018x}, connection 0 announces {identity:#018x}",
                hello.identity
            )));
        }
    }

    // Round-robin the schedule over connections; each lane keeps its own FIFO plan.
    let lanes = connections.len();
    let mut plans: Vec<Plan> = vec![Vec::new(); lanes];
    for (index, &offset) in schedule.iter().enumerate() {
        plans[index % lanes].push((index as u64, offset));
    }

    let shared = Arc::new(Shared {
        sent: Counter::new(),
        completed: Counter::new(),
        shed: Counter::new(),
        errors: Counter::new(),
        decode_errors: Counter::new(),
        latency: Histogram::new(),
        inflight_hist: Histogram::new(),
        inflight: AtomicU64::new(0),
        min_latency: AtomicU64::new(u64::MAX),
        outcomes: config
            .record_outcomes
            .then(|| Mutex::new(vec![None; schedule.len()])),
    });

    let start = Instant::now();
    let mut pairs = Vec::new();
    for ((lane, _), plan) in connections.into_iter().zip(plans) {
        pairs.push(spawn_lane(lane, plan, spec, node_count, &shared, start)?);
    }
    for (sender, receiver) in pairs {
        let _ = sender.join();
        let _ = receiver.join();
    }
    let elapsed_secs = start.elapsed().as_secs_f64();

    let completed = shared.completed.get();
    let outcomes = match &shared.outcomes {
        Some(lock) => std::mem::take(&mut *lock.lock().expect("outcomes lock")),
        None => Vec::new(),
    };
    Ok(LoadtestReport {
        offered: schedule.len() as u64,
        sent: shared.sent.get(),
        completed,
        shed: shared.shed.get(),
        errors: shared.errors.get(),
        decode_errors: shared.decode_errors.get(),
        elapsed_secs,
        offered_rate_hz: spec.arrivals.offered_rate_hz(),
        achieved_rate_hz: if elapsed_secs > 0.0 {
            completed as f64 / elapsed_secs
        } else {
            0.0
        },
        latency: shared.latency.snapshot(),
        min_latency_micros: match shared.min_latency.load(Ordering::SeqCst) {
            u64::MAX => 0,
            min => min,
        },
        inflight: shared.inflight_hist.snapshot(),
        outcomes,
    })
}

/// Builds request `index` of the workload: the job mix is derived purely from
/// `(seed, name, index)`, and the batch carries `index × jobs_per_request` as its
/// global index offset — the same `(batch seed, global job index)` streams a local
/// or dispatcher run would use.
fn build_request(spec: &WorkloadSpec, index: u64, node_count: u64) -> Message {
    let mut batch = QueryBatch::new();
    for source in spec.request_sources(index, node_count) {
        batch.push(NodeId::new(source as usize), 0, spec.ttl);
    }
    Message::SubmitBatch(BatchRequest::Queries {
        seed: spec.seed,
        index_offset: index * spec.jobs_per_request as u64,
        algorithms: vec![spec.search.clone()],
        batch,
    })
}

/// One connection's framed halves.
type Lane = (FrameReader<NetStream>, FrameWriter<NetStream>);

type LaneThreads = (std::thread::JoinHandle<()>, std::thread::JoinHandle<()>);

/// Spawns one connection's sender/receiver pair.
fn spawn_lane(
    (mut reader, mut writer): Lane,
    plan: Plan,
    spec: &WorkloadSpec,
    node_count: u64,
    shared: &Arc<Shared>,
    start: Instant,
) -> Result<LaneThreads, NetError> {
    // `(request index, send instant)` of every request written, in send order. The
    // worker replies strictly in arrival order, so the receiver pairs each reply with
    // the next entry; with none outstanding it blocks here, and the sender hanging up
    // its end is how it learns the lane is done.
    let (written, outstanding) = mpsc::channel::<(u64, Instant)>();

    let sender = {
        let spec = spec.clone();
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("sfo-loadtest-send".to_string())
            .spawn(move || {
                for (index, offset) in plan {
                    // Open loop: wait for the *schedule*, never for replies.
                    let deadline = start + Duration::from_micros(offset);
                    if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let request = build_request(&spec, index, node_count);
                    let sent_at = Instant::now();
                    if writer.send(&request).is_err() {
                        // The connection is gone; the receiver sees the same death.
                        break;
                    }
                    shared.sent.inc();
                    let depth = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
                    shared.inflight_hist.record(depth);
                    if written.send((index, sent_at)).is_err() {
                        // The receiver gave up on the connection.
                        break;
                    }
                }
            })
            .map_err(|e| NetError::protocol(format!("cannot spawn a sender thread: {e}")))?
    };

    let receiver = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("sfo-loadtest-recv".to_string())
            .spawn(move || {
                for (index, sent_at) in outstanding {
                    let reply = match reader.recv() {
                        Ok(reply) => reply,
                        Err(_) => {
                            shared.decode_errors.inc();
                            return;
                        }
                    };
                    shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    match reply {
                        Message::BatchResult { outcomes } => {
                            let micros = sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
                            shared.latency.record(micros);
                            shared.min_latency.fetch_min(micros, Ordering::SeqCst);
                            shared.completed.inc();
                            if let Some(lock) = &shared.outcomes {
                                lock.lock().expect("outcomes lock")[index as usize] =
                                    Some(outcomes);
                            }
                        }
                        Message::Overloaded { .. } => shared.shed.inc(),
                        Message::Error { .. } => shared.errors.inc(),
                        _ => {
                            shared.decode_errors.inc();
                            return;
                        }
                    }
                }
            })
            .map_err(|e| NetError::protocol(format!("cannot spawn a receiver thread: {e}")))?
    };
    Ok((sender, receiver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfo_scenario::ArrivalSpec;

    #[test]
    fn requests_are_pure_functions_of_the_index() {
        let spec = WorkloadSpec {
            name: "pure".to_string(),
            arrivals: ArrivalSpec::Poisson { rate_hz: 10.0 },
            duration_secs: 1.0,
            connections: 1,
            jobs_per_request: 3,
            search: sfo_scenario::SearchSpec::Flooding,
            ttl: 2,
            seed: 9,
        };
        let a = build_request(&spec, 5, 100);
        let b = build_request(&spec, 5, 100);
        assert_eq!(a, b, "a request must not depend on timing or call order");
        let (ty_a, bytes_a) = a.encode();
        let (ty_b, bytes_b) = b.encode();
        assert_eq!((ty_a, bytes_a), (ty_b, bytes_b));
        let Message::SubmitBatch(BatchRequest::Queries { index_offset, .. }) = &a else {
            panic!("loadtest requests are explicit query batches");
        };
        assert_eq!(*index_offset, 15, "request 5 × 3 jobs starts at job 15");
    }

    #[test]
    fn an_unreachable_worker_is_a_typed_error() {
        let config = LoadtestConfig {
            spec: WorkloadSpec {
                name: "dead".to_string(),
                arrivals: ArrivalSpec::Poisson { rate_hz: 10.0 },
                duration_secs: 0.1,
                connections: 1,
                jobs_per_request: 1,
                search: sfo_scenario::SearchSpec::Flooding,
                ttl: 1,
                seed: 1,
            },
            workers: vec!["127.0.0.1:1".to_string()],
            record_outcomes: false,
        };
        assert!(matches!(run_loadtest(&config), Err(NetError::Io { .. })));
    }
}
