//! Shared plumbing of the two benchmark binaries: argument parsing, exact-sample
//! statistics, the result line, child-process handling, and the workload table.
//!
//! Nothing here calls into a layer under test beyond the wire vocabulary
//! (`sfo_net::message`, `QueryBatch`, `WorkloadSpec`) and the JSON dialect, so the
//! end-to-end binary keeps building when an internal API moves.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls wait4(2): 64-bit Linux only");

use sfo_engine::QueryBatch;
use sfo_graph::{GraphView, NodeId};
use sfo_net::frame::encode_frame;
use sfo_net::message::{recv_message, BatchRequest, Hello, Message};
use sfo_net::{NetStream, WorkerClient};
use sfo_obs::MetricsSnapshot;
use sfo_scenario::json::JsonValue;
use sfo_scenario::{ArrivalSpec, BuiltSearch, SearchSpec, WorkloadSpec};
use sfo_search::SearchAlgorithm;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Every error of the harness is a message for the operator; nothing is recovered.
pub type Result<T> = std::result::Result<T, String>;

/// Directory (relative to the checkout root, the harness's working directory) that
/// holds the checked-in workload files.
pub const WORKLOAD_DIR: &str = "benchmark/workloads";

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "serve-small",
    "serve-flood",
    "scenario-sweep",
    "placed-sweep",
];

/// Arguments both binaries take (the driver's contract plus where things live).
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seeds the arrival schedule, every job's source node, and the offline specs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// The `sfo` binary under test.
    pub sfo: PathBuf,
    /// Scratch directory (snapshots, logs, traces).
    pub out: PathBuf,
    /// Where to write every measured value, declared or not, as JSON.
    pub report: Option<PathBuf>,
    /// A report of the other binary's run to fold into derived metrics.
    pub merge: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --sfo PATH --out DIR [--report FILE]
    /// [--merge FILE]`.
    pub fn parse() -> Result<Args> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument '{flag}'"));
            };
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            values.insert(name.to_string(), value);
        }
        let mut take = |name: &str| values.remove(name);
        let required = |name: &str, value: Option<String>| {
            value.ok_or_else(|| format!("--{name} is required"))
        };
        let number = |name: &str, value: String| {
            value
                .parse::<u64>()
                .map_err(|_| format!("--{name} takes a whole number, got '{value}'"))
        };
        let workload = required("workload", take("workload"))?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
            ));
        }
        let args = Args {
            workload,
            seed: number("seed", required("seed", take("seed"))?)?,
            seconds: number("seconds", required("seconds", take("seconds"))?)?.max(1),
            sfo: absolute(&required("sfo", take("sfo"))?)?,
            out: absolute(&required("out", take("out"))?)?,
            report: take("report").map(PathBuf::from),
            merge: take("merge").map(PathBuf::from),
        };
        if let Some((name, _)) = values.into_iter().next() {
            return Err(format!("unknown option --{name}"));
        }
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
        Ok(args)
    }

    /// The log every child process of this run writes to.
    pub fn log_path(&self) -> PathBuf {
        self.out.join(format!("{}.log", self.workload))
    }
}

/// The run's private scratch directory under `--out`, removed when the run ends.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out>/run-<pid>/`.
    pub fn create(args: &Args) -> Result<ScratchDir> {
        let dir = args.out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.0
    }

    /// A file in the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn absolute(path: &str) -> Result<PathBuf> {
    std::path::absolute(path).map_err(|e| format!("cannot resolve {path}: {e}"))
}

/// Reads a checked-in workload file.
pub fn read_workload_file(name: &str) -> Result<String> {
    let path = Path::new(WORKLOAD_DIR).join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Statistics over exact sample buffers.

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns them (NaN-free by construction: all are timings/counts).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

// ---------------------------------------------------------------------------
// Measured values and the result line.

/// Every value one run measured, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    values: BTreeMap<String, (f64, String)>,
}

impl Measured {
    /// Records `name = value unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(value, _)| *value)
    }

    /// Prints every value, one `name value unit` row per line.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for (name, (value, unit)) in &self.values {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// Every value as `{name: {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.values
                .iter()
                .map(|(name, (value, unit))| (name.clone(), metric_json(*value, unit)))
                .collect(),
        )
    }

    /// Writes every value to `path` as `{name: {"value": v, "unit": u}}`.
    pub fn write_report(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_json().to_pretty_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Reads a report written by [`Measured::write_report`].
    pub fn read_report(path: &Path) -> Result<Measured> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut measured = Measured::default();
        for (name, entry) in json.as_object().unwrap_or(&[]) {
            let value = entry.get("value").and_then(JsonValue::as_f64);
            let unit = entry.get("unit").and_then(JsonValue::as_str);
            if let (Some(value), Some(unit)) = (value, unit) {
                measured.set(name, value, unit);
            }
        }
        Ok(measured)
    }
}

fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("value".to_string(), JsonValue::from_f64(value)),
        ("unit".to_string(), JsonValue::from_str_value(unit)),
    ])
}

/// Prints the run's result line — the last line of standard output — holding exactly
/// the metrics `BENCHMARK.json` declares in `section` (`end_to_end` or `per_layer`),
/// and returns whether the run counts as correct.
///
/// The declaration is read from the file rather than repeated here, so the two cannot
/// drift: a declared metric the run did not measure, or measured in another unit, is
/// an error.
pub fn emit_result(
    section: &str,
    measured: &Measured,
    attempted: u64,
    failed: u64,
) -> Result<bool> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let declaration = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = declaration
        .get(section)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no \"{section}\" list"))?;
    let mut metrics = Vec::new();
    for entry in declared {
        let name = entry.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let unit = entry.get("unit").and_then(JsonValue::as_str).unwrap_or("");
        let Some((value, measured_unit)) = measured.values.get(name) else {
            return Err(format!(
                "BENCHMARK.json declares {name}, which this run did not measure"
            ));
        };
        if measured_unit != unit {
            return Err(format!(
                "{name} is declared in {unit} but measured in {measured_unit}"
            ));
        }
        metrics.push((name.to_string(), metric_json(*value, unit)));
    }
    let correct = failed == 0;
    let line = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::from_u64(attempted.max(1)),
        ),
        ("failed".to_string(), JsonValue::from_u64(failed)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ]);
    let compact: String = line
        .to_pretty_string()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(" ");
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{compact}").map_err(|e| format!("cannot write the result line: {e}"))?;
    stdout
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    Ok(correct)
}

// ---------------------------------------------------------------------------
// Child processes.

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals followed by fourteen longs, of which
/// only the first (`ru_maxrss`, in KiB) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What the kernel accounted to a child over its whole life.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Whether the child exited with status 0.
    pub success: bool,
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set, in MB (`ru_maxrss`).
    pub peak_rss_mb: f64,
}

/// Reaps `child` with `wait4(2)`, which — unlike `Child::wait` — also returns the
/// child's exact CPU time and peak resident set.
pub fn reap(child: Child) -> Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid exceeds i32".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` names a child this process spawned and has not waited for (the
    // `Child` is consumed here and std never reaps on drop), and both out-pointers
    // reference live, correctly laid-out locals for the duration of the call.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(Reaped {
        // WIFEXITED && WEXITSTATUS == 0 is exactly "the raw status word is zero".
        success: status == 0,
        cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

/// One finished CLI command.
#[derive(Debug, Clone, Copy)]
pub struct CommandRun {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// The kernel's accounting of the child.
    pub reaped: Reaped,
}

/// Runs `command` to completion with its output sent to `log`.
pub fn run_command(command: &mut Command, log: &Path) -> Result<CommandRun> {
    let open = || {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))
    };
    command.stdin(Stdio::null()).stdout(open()?).stderr(open()?);
    let start = Instant::now();
    let child = command
        .spawn()
        .map_err(|e| format!("cannot spawn {command:?}: {e}"))?;
    let reaped = reap(child)?;
    Ok(CommandRun {
        wall_s: start.elapsed().as_secs_f64(),
        reaped,
    })
}

/// [`run_command`] that turns a non-zero exit into an error naming the log.
pub fn run_command_ok(command: &mut Command, log: &Path) -> Result<CommandRun> {
    let run = run_command(command, log)?;
    if !run.reaped.success {
        return Err(format!("{command:?} failed; see {}", log.display()));
    }
    Ok(run)
}

/// Two readings of the CPU time the kernel has accounted to a live process.
#[derive(Debug, Clone, Copy)]
pub struct CpuReading {
    /// `utime + stime` of `/proc/<pid>/stat`: every thread, dead ones included, but
    /// reported in 10 ms ticks.
    ticks_s: f64,
    /// On-CPU time summed over `/proc/<pid>/task/*/schedstat`: nanosecond resolution,
    /// but only the threads alive at the reading.
    threads_s: f64,
}

/// Tick length of `/proc/<pid>/stat` times (`USER_HZ`, 100 on every Linux ABI).
const TICK_S: f64 = 0.01;

impl CpuReading {
    /// Reads both clocks of process `pid`.
    pub fn of(pid: u32) -> Result<CpuReading> {
        let path = format!("/proc/{pid}/stat");
        let stat =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // The command name (field 2) may hold spaces; fields are counted after its ')'.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("{path}: no command field"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // utime and stime are fields 14 and 15 of the file, 11 and 12 after the command.
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{path}: field {} missing", i + 3))
        };
        let ticks_s = (ticks(11)? + ticks(12)?) as f64 * TICK_S;

        let tasks = format!("/proc/{pid}/task");
        let mut nanos = 0u64;
        for task in std::fs::read_dir(&tasks).map_err(|e| format!("cannot read {tasks}: {e}"))? {
            let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread may exit between the listing and the read; it is skipped.
            if let Ok(text) = std::fs::read_to_string(&path) {
                nanos += text
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        Ok(CpuReading {
            ticks_s,
            threads_s: nanos as f64 / 1e9,
        })
    }

    /// CPU seconds the process used between `earlier` and `self`.
    ///
    /// The per-thread clock is exact while the same threads live through the window —
    /// the daemon's pool, reader and executor do — and under-counts when threads came
    /// and went; the tick clock counts those but may read a tick early. So the answer
    /// is the per-thread difference unless the tick difference, less its one-tick
    /// error, proves it short.
    pub fn since(&self, earlier: &CpuReading) -> f64 {
        (self.threads_s - earlier.threads_s).max(self.ticks_s - earlier.ticks_s - TICK_S)
    }
}

/// Host-wide CPU ticks from the first line of `/proc/stat`: those the hypervisor
/// stole from this machine, and all of them.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the counters now.
    pub fn now() -> Result<HostCpu> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]; the
        // guest columns are already counted inside user and nice.
        if ticks.len() < 8 {
            return Err("/proc/stat: the cpu line has fewer than 8 fields".to_string());
        }
        Ok(HostCpu {
            steal: ticks[7],
            total: ticks[..8].iter().sum(),
        })
    }

    /// Share of the machine's CPU time since `earlier` that the hypervisor gave to
    /// someone else.
    pub fn stolen_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// A live `sfo serve` daemon. Dropping it kills and reaps the process, so no error
/// path leaves an orphan behind.
pub struct Daemon {
    child: Option<Child>,
    log: Option<std::thread::JoinHandle<()>>,
    /// The address the daemon announced on its `serving ... on <addr>` line.
    pub addr: String,
}

impl Daemon {
    /// Spawns `sfo serve <snapshot> --listen 127.0.0.1:0 <flags>` and waits for the
    /// announcement line; everything the daemon prints goes to `log`.
    pub fn spawn(sfo: &Path, snapshot: &Path, flags: &[&str], log: &Path) -> Result<Daemon> {
        let mut child = Command::new(sfo)
            .arg("serve")
            .arg(snapshot)
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", sfo.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let (announce, announced) = std::sync::mpsc::channel::<String>();
        let pump = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(|l| l.ok()) {
                let _ = writeln!(log_file, "{line}");
                if let Some(addr) = parse_announcement(&line) {
                    let _ = announce.send(addr);
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            log: Some(pump),
            addr: String::new(),
        };
        // The sender drops when the daemon's stderr closes, so a daemon that dies
        // before announcing ends this wait instead of hanging it.
        daemon.addr = announced
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| {
                format!(
                    "sfo serve never announced an address; see {}",
                    log.display()
                )
            })?;
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("a live daemon").id()
    }

    /// Opens a connection and reads the daemon's `Hello`.
    pub fn connect(&self) -> Result<(NetStream, Hello)> {
        let mut stream = NetStream::connect(&self.addr).map_err(|e| e.to_string())?;
        match recv_message(&mut stream).map_err(|e| e.to_string())? {
            Message::Hello(hello) => Ok((stream, hello)),
            other => Err(format!(
                "expected a Hello from {}, got {other:?}",
                self.addr
            )),
        }
    }

    /// Polls the daemon's telemetry over a connection of its own.
    pub fn stats(&self) -> Result<MetricsSnapshot> {
        WorkerClient::connect(&self.addr)
            .and_then(|mut client| client.stats())
            .map_err(|e| format!("cannot poll {}: {e}", self.addr))
    }

    /// Kills the daemon and returns the kernel's whole-life accounting of it.
    pub fn stop(mut self) -> Result<Reaped> {
        self.shutdown()
            .ok_or_else(|| "the daemon was already stopped".to_string())?
    }

    fn shutdown(&mut self) -> Option<Result<Reaped>> {
        let mut child = self.child.take()?;
        let _ = child.kill();
        let reaped = reap(child);
        if let Some(pump) = self.log.take() {
            let _ = pump.join();
        }
        Some(reaped)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The daemon's own view of one window: differences of its counters and of its
/// histograms' exact sums and counts (its log2-bucket quantiles are not used).
pub fn stats_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Vec<(&'static str, f64, &'static str)> {
    let counter = |name: &str| {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    };
    let histogram = |name: &str| {
        let part = |s: &MetricsSnapshot| {
            s.histogram(name)
                .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
        };
        let (sum_after, count_after) = part(after);
        let (sum_before, count_before) = part(before);
        (sum_after - sum_before, count_after - count_before)
    };
    let mean = |(sum, count): (f64, f64)| if count > 0.0 { sum / count } else { 0.0 };
    let requests = histogram("net.request_micros.SubmitBatch");
    let per_request = |total: f64| mean((total, requests.1));
    vec![
        ("net.srv_request_us_mean", mean(requests), "us"),
        (
            "engine.srv_batch_us_mean",
            mean(histogram("engine.batch_micros")),
            "us",
        ),
        (
            "net.srv_queue_depth_mean",
            mean(histogram("net.queue_depth")),
            "count",
        ),
        ("net.srv_shed_total", counter("net.shed_total"), "count"),
        ("engine.srv_steals", counter("engine.steals"), "count"),
        (
            "net.srv_bytes_in_per_req",
            per_request(counter("net.bytes_in")),
            "bytes",
        ),
        (
            "net.srv_bytes_out_per_req",
            per_request(counter("net.bytes_out")),
            "bytes",
        ),
    ]
}

/// Extracts `<addr>` from `serving <file> on <addr> — ...`.
fn parse_announcement(line: &str) -> Option<String> {
    let rest = line.strip_prefix("serving ")?;
    let (_, after) = rest.split_once(" on ")?;
    after.split_whitespace().next().map(str::to_string)
}

// ---------------------------------------------------------------------------
// The workload table.

/// The job mix a workload sends (or, for the offline workloads, the job shape its
/// command runs), as the per-layer probes replay it request by request.
#[derive(Debug, Clone)]
pub struct RequestShape {
    /// The `WorkloadSpec` whose source stream the requests draw from. Only `name`
    /// (the workload's), `seed`, `search` and `jobs_per_request` (1) matter; the arrival
    /// fields are placeholders.
    sources: WorkloadSpec,
    /// TTLs, cycled over requests (the serve workloads have one).
    ttls: Vec<u32>,
}

impl RequestShape {
    /// The search every job runs.
    pub fn search(&self) -> &SearchSpec {
        &self.sources.search
    }

    /// Batch seed of every request and seed of the source stream.
    pub fn seed(&self) -> u64 {
        self.sources.seed
    }

    /// Request `index` as the wire message a client sends — one job from a seeded
    /// source, carrying `index` as its global job index — with the job's source and TTL.
    pub fn request(&self, index: u64, node_count: u64) -> (Message, NodeId, u32) {
        let ttl = self.ttls[(index % self.ttls.len() as u64) as usize];
        let source = NodeId::new(self.sources.request_sources(index, node_count)[0] as usize);
        let mut batch = QueryBatch::new();
        batch.push(source, 0, ttl);
        let message = Message::SubmitBatch(BatchRequest::Queries {
            seed: self.seed(),
            index_offset: index,
            algorithms: vec![self.search().clone()],
            batch,
        });
        (message, source, ttl)
    }
}

/// The frame a message travels in.
pub fn frame_of(message: &Message) -> Vec<u8> {
    let (message_type, payload) = message.encode();
    encode_frame(message_type, &payload)
}

/// Compiles `search` for graphs of backend `G`, as the server does per request.
pub fn table_algorithm<G: GraphView + ?Sized>(
    search: &SearchSpec,
    m: usize,
) -> Result<Box<dyn SearchAlgorithm<G> + Send + Sync>> {
    match search.build_for::<G>(m).map_err(|e| e.to_string())? {
        BuiltSearch::Algorithm(algorithm) => Ok(algorithm),
        BuiltSearch::RwNormalizedToNf { .. } => {
            Err("rw_normalized_to_nf is not a table algorithm".to_string())
        }
    }
}

/// Which snapshot build spec (under `workloads/snapshots/`) a workload's topology
/// comes from. `scenario-sweep` generates inline; the probes use the 10^5-node spec,
/// the size and family of the graphs its command builds.
pub fn snapshot_spec_of(workload: &str) -> &'static str {
    match workload {
        "serve-small" => "pa1m",
        "serve-flood" => "pa30k",
        _ => "pa100k",
    }
}

/// The workload's checked-in file with `"seed"` replaced by the run's seed.
///
/// `placed-sweep` keeps its file's seed: a snapshot sweep must name the seed its
/// snapshot was built with, and the snapshots are fixed realizations.
pub fn seeded_workload_json(workload: &str, seed: u64) -> Result<JsonValue> {
    let text = read_workload_file(&format!("{workload}.json"))?;
    let mut json = JsonValue::parse(&text).map_err(|e| format!("{workload}.json: {e}"))?;
    if workload != "placed-sweep" {
        let JsonValue::Object(fields) = &mut json else {
            return Err(format!("{workload}.json is not a JSON object"));
        };
        let field = fields
            .iter_mut()
            .find(|(name, _)| name == "seed")
            .ok_or_else(|| format!("{workload}.json has no \"seed\""))?;
        field.1 = JsonValue::from_u64(seed);
    }
    Ok(json)
}

/// The request shape of `workload` under `seed`, read from its checked-in file.
pub fn request_shape(workload: &str, seed: u64) -> Result<RequestShape> {
    let json = seeded_workload_json(workload, seed)?;
    let context = |e: sfo_scenario::ScenarioError| format!("{workload}.json: {e}");
    let search_json = json
        .get("search")
        .ok_or_else(|| format!("{workload}.json has no \"search\""))?;
    let search =
        <SearchSpec as sfo_scenario::json::FromJson>::from_json(search_json).map_err(context)?;
    // A serve workload carries one `ttl`; a scenario carries its sweep's grid.
    let ttls: Vec<u32> = match json.get("ttl").and_then(JsonValue::as_u64) {
        Some(ttl) => vec![ttl as u32],
        None => json
            .get("sweep")
            .and_then(|sweep| sweep.get("ttls"))
            .and_then(JsonValue::as_array)
            .map(|ttls| {
                ttls.iter()
                    .filter_map(JsonValue::as_u64)
                    .map(|t| t as u32)
                    .collect()
            })
            .unwrap_or_default(),
    };
    if ttls.is_empty() {
        return Err(format!("{workload}.json names no TTL"));
    }
    Ok(RequestShape {
        sources: WorkloadSpec {
            name: workload.to_string(),
            arrivals: ArrivalSpec::Poisson { rate_hz: 1.0 },
            duration_secs: 1.0,
            connections: 1,
            jobs_per_request: 1,
            search,
            ttl: ttls[0],
            seed,
        },
        ttls,
    })
}
