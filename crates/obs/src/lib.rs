//! # sfo-obs
//!
//! The workspace's telemetry substrate: lock-free [`Counter`]s, log-bucketed latency
//! [`Histogram`]s with p50/p95/p99/max extraction, monotonic [`PhaseTimer`]s, and a
//! named-metric [`Registry`] whose [`MetricsSnapshot`] travels over the SFNF wire
//! protocol and through the scenario JSON dialect.
//!
//! The crate exists so the runtime layers — `sfo-engine`'s worker pool, `sfo-net`'s
//! server and dispatcher, the `sfo-overlay` failure detector, `sfo-scenario`'s runner —
//! can be *observed* without being *perturbed*. Two rules make that possible, and every
//! instrumented call site in the workspace is audited against them:
//!
//! 1. **Telemetry never touches an RNG stream.** Recording is pure memory traffic
//!    (relaxed atomics) plus monotonic-clock reads; no metric derives from or advances
//!    any random state, so the workspace's `stream_rng` determinism contract — results
//!    byte-identical across worker counts, shard counts, and transports — is untouched.
//! 2. **Telemetry never reorders work.** Counters and histograms are recorded at
//!    points the schedulers already pass through; no lock added for metrics is held
//!    across job execution, and no instrumented path gains a new branch that depends
//!    on a metric's value.
//!
//! Consequently a metrics-on run produces a byte-identical `ScenarioReport` to a
//! metrics-off run of the same spec and seed (the workspace tests pin this). Placed
//! (shard-routed) execution leans on this harder than any other layer: the
//! `placed.*` family — `placed.frontiers_served` / `placed.frontiers_forwarded` /
//! `placed.frontier_entries_scanned` / `placed.frontier_entries_cross` on workers,
//! `placed.frontiers_sent` and the `placed.hop_micros` histogram on the dispatcher —
//! observes cross-host frontier traffic whose *results* must remain byte-identical
//! to the serial run, so every one of those call sites obeys rules 1 and 2. On a
//! full flood, `frontier_entries_cross / frontier_entries_scanned` equals the
//! topology's `boundary_fraction()` exactly (an integer identity the workspace
//! tests pin).
//!
//! # Bucketing
//!
//! Histograms are log2-bucketed: sample `v` lands in bucket `64 - v.leading_zeros()`
//! (bucket 0 holds exactly the value 0, bucket `b ≥ 1` holds `[2^(b-1), 2^b - 1]`).
//! Quantiles return the inclusive upper bound of the bucket containing the requested
//! rank, clamped to the exact observed maximum — a deliberate overestimate of at most
//! 2x, in exchange for constant memory and wait-free recording. Snapshots of the same
//! bucketing merge exactly (bucket-wise sums), so per-worker histograms can be combined
//! by a dispatcher without loss beyond the original bucketing.
//!
//! # Example
//!
//! ```
//! use sfo_obs::{PhaseTimer, Registry};
//!
//! let registry = Registry::new();
//! registry.counter("engine.jobs").add(128);
//! let hist = registry.histogram("net.request_micros");
//! for v in [120, 130, 900, 15_000] {
//!     hist.record(v);
//! }
//! let timer = PhaseTimer::start();
//! registry.histogram("scenario.sweep_micros").record(timer.elapsed_micros());
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("engine.jobs"), Some(128));
//! let req = snapshot.histogram("net.request_micros").unwrap();
//! assert_eq!(req.count, 4);
//! assert_eq!(req.max, 15_000);
//! assert_eq!(req.quantile(0.50), 255); // bucket [128, 255]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 for the value 0, plus one bucket per
/// possible bit width of a non-zero `u64` sample.
pub const BUCKET_COUNT: usize = 65;

/// The bucket a sample lands in: 0 for 0, otherwise the sample's bit width
/// (`64 - leading_zeros`), so bucket `b ≥ 1` spans `[2^(b-1), 2^b - 1]`.
#[must_use]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive upper bound of a bucket: 0 for bucket 0, `2^b - 1` otherwise
/// (`u64::MAX` for the top bucket).
///
/// # Panics
///
/// Panics if `bucket >= BUCKET_COUNT`.
#[must_use]
pub(crate) fn bucket_bound(bucket: usize) -> u64 {
    assert!(bucket < BUCKET_COUNT, "bucket {bucket} out of range");
    match bucket {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A lock-free monotonically increasing counter.
///
/// All operations are relaxed atomics: recording threads never synchronize with each
/// other through a counter, and readers see a value that is exact once the writers
/// have quiesced (which is when snapshots are taken).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wait-free log2-bucketed histogram (see the crate docs for the bucketing rule).
///
/// Recording is three relaxed `fetch_add`s and one `fetch_max`; there is no lock and
/// no allocation on the hot path. Quantiles and merging operate on
/// [`HistogramSnapshot`]s.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow, like the atomics beneath).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram as plain data.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..BUCKET_COUNT)
            .filter_map(|b| {
                let n = self.buckets[b].load(Ordering::Relaxed);
                (n > 0).then_some((b as u8, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }

    /// Convenience quantile over a fresh snapshot; see [`HistogramSnapshot::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Plain-data copy of a [`Histogram`]: occupied buckets only, in ascending bucket
/// order, plus the exact count/sum/max at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// `(bucket index, samples in bucket)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The quantile estimate for `q` in `[0, 1]`: the inclusive upper bound of the
    /// bucket containing the `ceil(q * count)`-th smallest sample, clamped to the
    /// exact observed maximum. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_bound(bucket as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (`quantile(0.50)`).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The exact combination of two snapshots of the same bucketing: bucket-wise and
    /// field-wise sums (max of maxes). Associative and commutative, with the empty
    /// snapshot as identity — a dispatcher can fold per-worker snapshots in any order.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(bucket, n) in &other.buckets {
            *buckets.entry(bucket).or_insert(0) += n;
        }
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets: buckets.into_iter().collect(),
        }
    }
}

/// A started monotonic timer for one phase of work; read it with
/// [`elapsed_micros`](PhaseTimer::elapsed_micros) and record the result into a
/// [`Histogram`]. Wall-clock only — never part of any deterministic computation.
#[derive(Debug)]
pub struct PhaseTimer {
    start: Instant,
}

impl PhaseTimer {
    /// Starts the timer now.
    #[must_use]
    pub fn start() -> Self {
        PhaseTimer {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since [`PhaseTimer::start`], saturated to `u64`.
    #[must_use]
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records the elapsed microseconds into `hist` and returns them.
    pub fn observe(&self, hist: &Histogram) -> u64 {
        let micros = self.elapsed_micros();
        hist.record(micros);
        micros
    }
}

impl Default for PhaseTimer {
    fn default() -> Self {
        PhaseTimer::start()
    }
}

/// A named-metric registry: the one object an instrumented subsystem shares.
///
/// Metrics are created on first use and live for the registry's lifetime; callers
/// resolve a name once (a brief `Mutex`-guarded map lookup) and then record through
/// the returned `Arc` without any further locking. Snapshots list metrics in
/// name-sorted order, so two registries with the same recorded history serialize
/// identically.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created empty on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned (a recording thread panicked).
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created empty on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned (a recording thread panicked).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A point-in-time copy of every metric, name-sorted.
    ///
    /// # Panics
    ///
    /// Panics if a registry mutex is poisoned (a recording thread panicked).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry lock")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A point-in-time copy of a [`Registry`]: plain data, name-sorted, ready to encode
/// as an SFNF `StatsReport` frame or through the scenario JSON dialect.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in ascending name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, in ascending name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of the counter named `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The snapshot of the histogram named `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Name-wise union of two snapshots: counters add, histograms
    /// [`merge`](HistogramSnapshot::merge), names stay sorted. Associative and
    /// commutative — fold any number of per-worker snapshots in any order.
    #[must_use]
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self.counters.iter().cloned().collect();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.iter().cloned().collect();
        for (name, h) in &other.histograms {
            let merged = match histograms.get(name) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            histograms.insert(name.clone(), merged);
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }

    /// True when the snapshot holds no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_cover_their_ranges() {
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(10), 1023);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every non-top bucket's bound is the largest value mapping back to it.
        for b in 1..64 {
            assert_eq!(bucket_index(bucket_bound(b)), b);
            assert_eq!(bucket_index(bucket_bound(b) + 1), b + 1);
        }
    }

    #[test]
    fn counter_adds_and_reads() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counters_are_exact_under_contention() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot().p99(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_stream_is_exact_at_every_quantile() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(7);
        }
        let s = h.snapshot();
        // All samples sit in bucket 3 with bound 7; the max clamp makes it exact.
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 7000);
        assert_eq!(s.max, 7);
        assert_eq!(s.p50(), 7);
        assert_eq!(s.p95(), 7);
        assert_eq!(s.p99(), 7);
        assert_eq!(s.buckets, vec![(3, 1000)]);
    }

    #[test]
    fn uniform_stream_quantiles_match_the_documented_bucketing() {
        let h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // rank 50 = value 50, bucket [32, 63] -> bound 63.
        assert_eq!(s.p50(), 63);
        // rank 95 = value 95, bucket [64, 127] -> bound 127, clamped to max 100.
        assert_eq!(s.p95(), 100);
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(0.0), 1); // rank clamps to 1 -> bucket of value 1
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(0, 2), (3, 1)]);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), 5);
    }

    fn from_values(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn merge_is_associative_commutative_with_identity() {
        let a = from_values(&[1, 2, 3, 1000]);
        let b = from_values(&[0, 7, 7, 64]);
        let c = from_values(&[u64::MAX, 5]);
        let empty = HistogramSnapshot::default();

        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&empty), a);
        assert_eq!(empty.merge(&a), a);
    }

    #[test]
    fn merge_equals_recording_the_union_stream() {
        let left = [1u64, 5, 9, 200, 200];
        let right = [0u64, 3, 1 << 40];
        let both: Vec<u64> = left.iter().chain(right.iter()).copied().collect();
        assert_eq!(
            from_values(&left).merge(&from_values(&right)),
            from_values(&both)
        );
    }

    #[test]
    fn registry_returns_the_same_metric_for_the_same_name() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        r.histogram("h").record(9);
        r.histogram("h").record(17);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.histogram("h").unwrap().count, 2);
        assert_eq!(s.counter("missing"), None);
        assert!(s.histogram("missing").is_none());
    }

    #[test]
    fn snapshots_are_name_sorted_and_deterministic() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.histogram("mid").record(1);
        r.histogram("aaa").record(2);
        let s = r.snapshot();
        let counter_names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        let hist_names: Vec<&str> = s.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(counter_names, vec!["alpha", "zeta"]);
        assert_eq!(hist_names, vec!["aaa", "mid"]);
        assert_eq!(r.snapshot(), s);
    }

    #[test]
    fn snapshot_merge_unions_names() {
        let r1 = Registry::new();
        r1.counter("shared").add(2);
        r1.counter("only1").inc();
        r1.histogram("h").record(3);
        let r2 = Registry::new();
        r2.counter("shared").add(5);
        r2.counter("only2").inc();
        r2.histogram("h").record(300);
        r2.histogram("h2").record(1);

        let merged = r1.snapshot().merge(&r2.snapshot());
        assert_eq!(merged.counter("shared"), Some(7));
        assert_eq!(merged.counter("only1"), Some(1));
        assert_eq!(merged.counter("only2"), Some(1));
        assert_eq!(merged.histogram("h").unwrap().count, 2);
        assert_eq!(merged.histogram("h").unwrap().max, 300);
        assert_eq!(merged.histogram("h2").unwrap().count, 1);
        // Merge of snapshots is commutative too.
        assert_eq!(merged, r2.snapshot().merge(&r1.snapshot()));
    }

    #[test]
    fn phase_timer_records_into_a_histogram() {
        let h = Histogram::new();
        let t = PhaseTimer::start();
        let micros = t.observe(&h);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), micros);
        assert!(t.elapsed_micros() >= micros);
    }
}
