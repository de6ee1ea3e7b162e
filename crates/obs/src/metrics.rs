//! Named atomic metrics: sharded counters, gauges, fixed-bucket
//! histograms and bounded series, collected in [`Registry`] instances.
//!
//! The hot-path contract is that recording is wait-free and uncontended:
//! counters stripe their cells across cache-line-padded shards picked per
//! thread, histograms touch one bucket cell plus two accumulators, and
//! nothing allocates after the handle has been resolved. Handles are
//! `Arc`s returned by the registry; instrumented code resolves them once
//! (typically into a `OnceLock`) and increments forever after.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of cache-line-padded cells per [`Counter`]. Power of two so the
/// per-thread pick is a mask, sized at the worker-pool scale (the runtime
/// caps useful parallelism well below this on target hardware).
const COUNTER_SHARDS: usize = 16;

/// One atomic cell alone on its cache line, so two workers bumping
/// different shards never ping-pong a line between cores.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// Round-robin source for per-thread shard indices.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The shard this thread increments. Assigned round-robin on first
    /// use so the scoped workers of one pool call land on distinct cells.
    static SHARD_INDEX: usize =
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
}

/// A monotonically increasing counter, sharded for uncontended
/// increments. Reads sum the shards; resets zero them in place so
/// outstanding handles stay valid.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedCell; COUNTER_SHARDS],
}

impl Counter {
    /// A detached counter (registry-less; mostly for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        SHARD_INDEX.with(|&i| self.shards[i].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero every shard. Handles remain usable.
    pub fn reset(&self) {
        for c in &self.shards {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins `f64` gauge stored as atomic bits.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A detached gauge initialised to `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Reset to `0.0`.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Default histogram bounds for latencies in seconds: a 1–2–5 ladder
/// from 1 µs to 10 s (22 buckets plus overflow).
pub const DEFAULT_LATENCY_BOUNDS: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0,
];

/// Default histogram bounds for counts (chunks per worker, tokens per
/// phrase, …): a 1–2–5 ladder from 1 to 1e6.
pub const DEFAULT_COUNT_BOUNDS: [f64; 19] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5,
    5e5, 1e6,
];

/// Sum accumulator resolution: values are accumulated in integer
/// micro-units so the sum is a single `fetch_add` (no CAS loop on f64).
const MICRO: f64 = 1e6;

/// A fixed-bucket histogram over non-negative `f64` samples.
///
/// Bucket `i` counts samples `v <= bounds[i]` (with `bounds[i-1] < v`);
/// one extra bucket counts overflow. Recording touches one bucket cell,
/// the total count, the micro-unit sum, and the min/max cells — all
/// relaxed atomics. Quantiles are interpolated within the winning
/// bucket, which is exactly as much resolution as the bounds provide.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micro: AtomicU64,
    /// Bit patterns of non-negative f64s order like the floats, so
    /// min/max work as integer `fetch_min`/`fetch_max` on the bits.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
        }
    }

    /// A histogram with [`DEFAULT_LATENCY_BOUNDS`].
    pub fn latency() -> Self {
        Self::new(&DEFAULT_LATENCY_BOUNDS)
    }

    /// Index of the bucket that counts `v`.
    #[inline]
    fn bucket_of(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }

    /// Record one sample. Negative samples are clamped to `0.0`.
    #[inline]
    pub fn record(&self, v: f64) {
        let v = v.max(0.0);
        self.buckets[self.bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micro
            .fetch_add((v * MICRO).round() as u64, Ordering::Relaxed);
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (micro-unit resolution).
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / MICRO
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The quantile `q` in `[0, 1]`, linearly interpolated inside the
    /// winning bucket ([`crate::window::quantile_from_counts`]).
    pub fn quantile(&self, q: f64) -> f64 {
        crate::window::quantile_from_counts(&self.bounds, &self.bucket_counts(), q)
    }

    /// Smallest recorded sample (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Summary snapshot for export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum();
        let buckets = self.bucket_counts();
        let q = |q| crate::window::quantile_from_counts(&self.bounds, &buckets, q);
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            min: self.min(),
            max: self.max(),
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            bounds: self.bounds.clone(),
            buckets,
        }
    }

    /// Zero all cells in place.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micro.store(0, Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0, Ordering::Relaxed);
    }
}

/// Exported summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (micro-unit resolution).
    pub sum: f64,
    /// Arithmetic mean (`0.0` when empty).
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median, interpolated from the buckets.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Bucket upper bounds (overflow excluded).
    pub bounds: Vec<f64>,
    /// Cumulative per-bucket counts, overflow last: a reader takes the
    /// difference of two scrapes to get an interval's quantiles.
    pub buckets: Vec<u64>,
}

/// A bounded, ordered sequence of `f64` observations (e.g. the K-Means
/// inertia trajectory). Pushes beyond the capacity are dropped — the
/// series reports how many were seen in total.
#[derive(Debug)]
pub struct Series {
    values: Mutex<Vec<f64>>,
    cap: usize,
    seen: AtomicU64,
}

impl Series {
    /// A series that keeps at most `cap` values.
    pub fn new(cap: usize) -> Self {
        Series {
            values: Mutex::new(Vec::new()),
            cap,
            seen: AtomicU64::new(0),
        }
    }

    /// Append a value (dropped once the capacity is reached).
    pub fn push(&self, v: f64) {
        self.seen.fetch_add(1, Ordering::Relaxed);
        let mut vals = self.values.lock().expect("series lock");
        if vals.len() < self.cap {
            vals.push(v);
        }
    }

    /// The retained values, in push order.
    pub fn values(&self) -> Vec<f64> {
        self.values.lock().expect("series lock").clone()
    }

    /// Total number of pushes, including dropped ones.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Clear the series in place.
    pub fn reset(&self) {
        self.values.lock().expect("series lock").clear();
        self.seen.store(0, Ordering::Relaxed);
    }
}

/// Default retained length for [`Registry::series`].
const DEFAULT_SERIES_CAP: usize = 4096;

/// A named collection of metrics. Handles are created on first use and
/// live for the registry's lifetime; [`Registry::reset`] zeroes values
/// without invalidating handles.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    series: Mutex<BTreeMap<String, Arc<Series>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram `name` with the given bounds. The
    /// bounds of an existing histogram are kept (first creation wins).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(bounds));
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Get or create the latency histogram `name` with
    /// [`DEFAULT_LATENCY_BOUNDS`].
    pub fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &DEFAULT_LATENCY_BOUNDS)
    }

    /// Get or create the count histogram `name` with
    /// [`DEFAULT_COUNT_BOUNDS`].
    pub fn count_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &DEFAULT_COUNT_BOUNDS)
    }

    /// Get or create the series `name` (default retained capacity).
    pub fn series(&self, name: &str) -> Arc<Series> {
        let mut map = self.series.lock().expect("registry lock");
        if let Some(s) = map.get(name) {
            return Arc::clone(s);
        }
        let s = Arc::new(Series::new(DEFAULT_SERIES_CAP));
        map.insert(name.to_string(), Arc::clone(&s));
        s
    }

    /// Snapshot every metric's current value, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            series: self
                .series
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.values()))
                .collect(),
        }
    }

    /// Zero every metric in place; existing handles keep working.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("registry lock").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("registry lock").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("registry lock").values() {
            h.reset();
        }
        for s in self.series.lock().expect("registry lock").values() {
            s.reset();
        }
    }
}

/// Point-in-time values of every metric in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained series values by name.
    pub series: BTreeMap<String, Vec<f64>>,
}

impl RegistrySnapshot {
    /// Merge `other` into `self` (same-name entries are overwritten;
    /// registries are expected to use disjoint name prefixes).
    pub fn merge(&mut self, other: RegistrySnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.series.extend(other.series);
    }
}

/// The process-global registry used by instrumented hot paths.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Exact percentile of an already **sorted ascending** slice, with
/// linear interpolation between adjacent samples. `p` is in `[0, 1]`.
/// Returns `0.0` for an empty slice. This is the single percentile
/// implementation shared by the bench harness and the CLI telemetry.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Exact summary statistics over a set of raw samples (used by the
/// bench harness, where every sample is retained).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSummary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Exact median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Exact 90th percentile (interpolated).
    pub p90: f64,
    /// Exact 99th percentile (interpolated).
    pub p99: f64,
    /// Exact 99.9th percentile (interpolated). With fewer than ~1000
    /// samples this interpolates toward the maximum — still useful as a
    /// tail-latency bound, identical to `max` in the limit.
    pub p999: f64,
}

impl SampleSummary {
    /// Summarise `samples` (consumed: sorted in place). Returns an
    /// all-zero summary for an empty input.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        Self::from_sorted(&samples)
    }

    /// Summarise an already sorted ascending slice.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return SampleSummary {
                n: 0,
                mean: 0.0,
                median: 0.0,
                min: 0.0,
                max: 0.0,
                p90: 0.0,
                p99: 0.0,
                p999: 0.0,
            };
        }
        SampleSummary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            median: percentile_sorted(sorted, 0.5),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p90: percentile_sorted(sorted, 0.9),
            p99: percentile_sorted(sorted, 0.99),
            p999: percentile_sorted(sorted, 0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_shards_sum_exactly_under_concurrency() {
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        c.reset();
        assert_eq!(c.get(), 0);
        c.add(3);
        assert_eq!(c.get(), 3, "handle must survive reset");
    }

    #[test]
    fn gauge_stores_exact_bits() {
        let g = Gauge::new();
        g.set(3.5e-7);
        assert_eq!(g.get().to_bits(), 3.5e-7f64.to_bits());
        g.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Exactly on a bound lands in that bucket; just above spills.
        h.record(1.0);
        h.record(1.0000001);
        h.record(2.0);
        h.record(4.0);
        h.record(4.5); // overflow
        h.record(0.0); // first bucket
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..100 {
            h.record(0.5);
        }
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.0 && p50 <= 1.0, "p50 {p50} outside first bucket");
        // All mass in one bucket: p99 stays inside it too.
        let p99 = h.quantile(0.99);
        assert!(p99 <= 1.0, "p99 {p99} escaped the bucket");
        // Overflow reports the last bound.
        let h2 = Histogram::new(&[1.0, 2.0]);
        h2.record(100.0);
        assert_eq!(h2.quantile(0.5), 2.0);
        // Empty histogram.
        assert_eq!(Histogram::latency().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_sum_min_max_track_samples() {
        let h = Histogram::new(&[1.0]);
        h.record(0.25);
        h.record(0.5);
        assert!((h.sum() - 0.75).abs() < 1e-9);
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 0.5);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert!((snap.mean - 0.375).abs() < 1e-9);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn series_caps_retained_values() {
        let s = Series::new(3);
        for i in 0..5 {
            s.push(i as f64);
        }
        assert_eq!(s.values(), vec![0.0, 1.0, 2.0]);
        assert_eq!(s.seen(), 5);
        s.reset();
        assert_eq!(s.seen(), 0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn registry_returns_shared_handles_and_snapshots() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x.hits").get(), 5);
        r.gauge("x.level").set(1.5);
        r.latency_histogram("x.lat").record(0.001);
        r.series("x.traj").push(9.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters["x.hits"], 5);
        assert_eq!(snap.gauges["x.level"], 1.5);
        assert_eq!(snap.histograms["x.lat"].count, 1);
        assert_eq!(snap.series["x.traj"], vec![9.0]);
        r.reset();
        assert_eq!(a.get(), 0, "reset zeroes in place");
        let snap = r.snapshot();
        assert_eq!(snap.counters["x.hits"], 0);
    }

    #[test]
    fn registry_snapshot_merge_overwrites_by_name() {
        let a = Registry::new();
        a.counter("n").add(1);
        let b = Registry::new();
        b.counter("n").add(7);
        b.counter("m").add(2);
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        assert_eq!(snap.counters["n"], 7);
        assert_eq!(snap.counters["m"], 2);
    }

    #[test]
    fn percentile_sorted_matches_hand_values() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[4.0], 0.99), 4.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 4.0);
        assert!((percentile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        let summary = SampleSummary::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(summary.n, 4);
        assert!((summary.median - 2.5).abs() < 1e-12);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 4.0);
        // The tail percentiles interpolate toward the maximum and order
        // correctly: p90 <= p99 <= p999 <= max.
        assert!(summary.p90 <= summary.p99);
        assert!(summary.p99 <= summary.p999);
        assert!(summary.p999 <= summary.max);
        assert!((summary.p999 - 3.997).abs() < 1e-12);
    }
}
