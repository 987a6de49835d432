//! The metrics registry: named counters, gauges, and log-scale latency
//! histograms behind lock-free handles.
//!
//! Metric names follow the `component.verb_noun` convention
//! (`llm.requests_total`, `pipeline.errors_total`, `eval.worker_panics`);
//! histograms append a unit suffix (`llm.request_latency_us`). Handles are
//! `Arc`s obtained once and updated with plain atomics, so the hot path
//! never touches the registry lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways, tracking e.g. in-flight
/// request counts. [`Gauge::set_max`] keeps high-water marks such as
/// `server.concurrent_peak`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `n` and returns the new value.
    pub fn add(&self, n: i64) -> i64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. the range `[2^(i-1), 2^i - 1]`; bucket 0 holds zeros. 64-bit
/// values therefore always land in `0..=64`.
pub const BUCKETS: usize = 65;

/// A log-scale (power-of-two bucketed) histogram of `u64` samples —
/// typically latencies in microseconds. Recording is a single relaxed
/// atomic add; percentile summaries interpolate inside the winning bucket.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    /// Exemplar: the largest traced sample seen, and the trace that
    /// produced it (0 = no exemplar). Lets `/metrics` tail-latency lines
    /// link to a concrete flight-recorder trace.
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket a value falls in: its bit length.
pub(crate) fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive value range `[lo, hi]` covered by bucket `i`.
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else {
        (
            1u64 << (i - 1),
            (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1),
        )
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one sample and offers it as the histogram's exemplar: the
    /// largest traced sample wins, so the p99 line of the exposition can
    /// point at a representative (worst observed) trace id. The two-step
    /// value/trace update is racy under contention, which only risks a
    /// near-maximal sample citing a slightly different trace — fine for a
    /// debugging affordance.
    pub fn record_traced(&self, v: u64, trace: u64) {
        self.record(v);
        if trace != 0 && v >= self.exemplar_value.load(Ordering::Relaxed) {
            self.exemplar_value.store(v, Ordering::Relaxed);
            self.exemplar_trace.store(trace, Ordering::Relaxed);
        }
    }

    /// [`Histogram::record_traced`] for a wall-clock duration.
    pub fn record_duration_traced(&self, d: std::time::Duration, trace: u64) {
        self.record_traced(d.as_micros().min(u64::MAX as u128) as u64, trace);
    }

    /// The current exemplar as `(value, trace_id)`, if any traced sample
    /// has been recorded.
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        let trace = self.exemplar_trace.load(Ordering::Relaxed);
        if trace == 0 {
            return None;
        }
        Some((self.exemplar_value.load(Ordering::Relaxed), trace))
    }

    /// Estimates an arbitrary quantile `q` in `[0, 1]` from the live
    /// bucket counts.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freezes the histogram into a mergeable
    /// [`HistSnapshot`](crate::snapshot::HistSnapshot). Reads are relaxed
    /// and per-field, so a snapshot taken under concurrent recording can
    /// be off by in-flight samples — bounded scrape skew, like any
    /// exposition read.
    pub fn snapshot(&self) -> crate::snapshot::HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            (
                self.min.load(Ordering::Relaxed),
                self.max.load(Ordering::Relaxed),
            )
        };
        crate::snapshot::HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            buckets,
        }
    }

    /// An immutable summary (count/sum/min/max and p50/p95/p99) of the
    /// live buckets, carrying the exemplar a snapshot drops.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            exemplar: self.exemplar(),
            ..self.snapshot().summary()
        }
    }
}

/// Estimates the `q`-quantile from bucket counts by linear interpolation
/// inside the bucket holding the target rank, clamped to the observed
/// min/max so tails don't overshoot real data. Every percentile reads it
/// through [`HistSnapshot::quantile`](crate::snapshot::HistSnapshot::quantile).
pub(crate) fn percentile(counts: &[u64], total: u64, q: f64, min: u64, max: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let (lo, hi) = bucket_bounds(i);
            let within = (rank - seen) as f64 / c as f64;
            let est = lo as f64 + (hi - lo) as f64 * within;
            return est.clamp(min as f64, max as f64);
        }
        seen += c;
    }
    max as f64
}

/// A point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// `(value, trace_id)` of the largest traced sample, if any — the
    /// exposition renders it so a p99 line links to a concrete trace.
    pub exemplar: Option<(u64, u64)>,
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A thread-safe registry of named metrics. Lookup takes a short-lived
/// lock and returns an [`Arc`] handle; updates through the handle are
/// lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry (the global one is usually what you want —
    /// [`global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge map");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Sorted `(name, value)` pairs of every counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().expect("counter map");
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Sorted `(name, value)` pairs of every gauge.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let map = self.gauges.lock().expect("gauge map");
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Sorted `(name, summary)` pairs of every histogram.
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        let map = self.histograms.lock().expect("histogram map");
        map.iter().map(|(k, v)| (k.clone(), v.summary())).collect()
    }

    /// Sorted `(name, snapshot)` pairs of every histogram's raw buckets.
    pub fn histogram_snapshots(&self) -> Vec<(String, crate::snapshot::HistSnapshot)> {
        let map = self.histograms.lock().expect("histogram map");
        map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Drops every registered metric (test isolation).
    pub fn clear(&self) {
        self.counters.lock().expect("counter map").clear();
        self.gauges.lock().expect("gauge map").clear();
        self.histograms.lock().expect("histogram map").clear();
    }
}

/// A metric looked up on first use and held after.
///
/// A hot path keeps one of these instead of looking its metric up by name
/// on every call: the first use takes the registry's lock once, every
/// later one is an atomic load. Resolving on first use rather than at
/// construction keeps a registry's metric set what the by-name lookup
/// gave: a metric appears once something records into it.
pub struct Handle<M> {
    metric: OnceLock<Arc<M>>,
    resolve: Box<dyn Fn() -> Arc<M> + Send + Sync>,
}

impl<M> Handle<M> {
    /// A handle on the metric `resolve` returns, called at most once.
    pub fn new(resolve: impl Fn() -> Arc<M> + Send + Sync + 'static) -> Handle<M> {
        Handle {
            metric: OnceLock::new(),
            resolve: Box::new(resolve),
        }
    }

    /// The metric, resolved on the first call.
    pub fn get(&self) -> &M {
        self.metric.get_or_init(|| (self.resolve)())
    }
}

impl Handle<Counter> {
    /// The counter `name` of `registry`.
    pub fn counter(registry: &Arc<MetricsRegistry>, name: impl Into<String>) -> Handle<Counter> {
        let (registry, name) = (Arc::clone(registry), name.into());
        Handle::new(move || registry.counter(&name))
    }
}

impl Handle<Gauge> {
    /// The gauge `name` of `registry`.
    pub fn gauge(registry: &Arc<MetricsRegistry>, name: impl Into<String>) -> Handle<Gauge> {
        let (registry, name) = (Arc::clone(registry), name.into());
        Handle::new(move || registry.gauge(&name))
    }
}

impl Handle<Histogram> {
    /// The histogram `name` of `registry`.
    pub fn histogram(
        registry: &Arc<MetricsRegistry>,
        name: impl Into<String>,
    ) -> Handle<Histogram> {
        let (registry, name) = (Arc::clone(registry), name.into());
        Handle::new(move || registry.histogram(&name))
    }
}

/// The process-wide registry all instrumented components default to.
pub fn global() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_atomicity_under_threads() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("test.increments_total");
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
        // The registry hands back the same underlying counter.
        assert_eq!(registry.counter("test.increments_total").get(), 80_000);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let g = Gauge::default();
        assert_eq!(g.add(3), 3);
        assert_eq!(g.add(-1), 2);
        g.set_max(10);
        g.set_max(4); // lower — ignored
        assert_eq!(g.get(), 10);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_bucket_bounds_partition_u64() {
        // Buckets tile the space with no gaps or overlaps.
        assert_eq!(bucket_bounds(0), (0, 0));
        for i in 1..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            let (next_lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, next_lo, "bucket {i} must abut bucket {}", i + 1);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_percentiles_on_uniform_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Log-scale buckets are coarse: accept estimates within the true
        // value's power-of-two bucket.
        assert!((256.0..=1024.0).contains(&s.p50), "p50 {}", s.p50);
        assert!((512.0..=1024.0).contains(&s.p95), "p95 {}", s.p95);
        assert!((512.0..=1024.0).contains(&s.p99), "p99 {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_single_value_is_exact() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(42);
        }
        let s = h.summary();
        // All mass in one bucket, clamped to observed min==max.
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p95, 42.0);
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
    }

    #[test]
    fn histogram_empty_summary_is_zero() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!((s.min, s.max), (0, 0));
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_concurrent_records_are_all_counted() {
        let h = Arc::new(Histogram::default());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(h.count(), 20_000);
        let s = h.summary();
        assert_eq!(s.count, 20_000);
    }

    #[test]
    fn traced_records_keep_the_worst_sample_as_exemplar() {
        let h = Histogram::default();
        assert_eq!(h.exemplar(), None);
        h.record(500); // untraced samples never become exemplars
        assert_eq!(h.exemplar(), None);
        h.record_traced(100, 7);
        h.record_traced(900, 8);
        h.record_traced(300, 9); // smaller — ignored
        assert_eq!(h.exemplar(), Some((900, 8)));
        assert_eq!(h.summary().exemplar, Some((900, 8)));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantile_interpolates_like_the_summary_percentiles() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), h.summary().p50);
        assert_eq!(h.quantile(0.99), h.summary().p99);
        let p90 = h.quantile(0.90);
        assert!((512.0..=1024.0).contains(&p90), "p90 {p90}");
        assert_eq!(Histogram::default().quantile(0.9), 0.0);
    }

    /// Records `values` into a fresh histogram and returns the raw bucket
    /// counts plus observed min/max, the exact inputs `percentile` sees.
    fn buckets_of(values: &[u64]) -> (Vec<u64>, u64, u64, u64) {
        let h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        let counts: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (
            counts,
            values.len() as u64,
            *values.iter().min().unwrap(),
            *values.iter().max().unwrap(),
        )
    }

    #[test]
    fn percentile_is_exact_at_bucket_boundaries() {
        // All mass on a single boundary value: min==max clamping pins every
        // quantile to the exact sample, for every power-of-two boundary.
        for k in [0u32, 1, 4, 10, 20, 40, 63] {
            let v = 1u64 << k;
            let (counts, total, min, max) = buckets_of(&vec![v; 100]);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    percentile(&counts, total, q, min, max),
                    v as f64,
                    "boundary 2^{k} at q={q}"
                );
            }
        }
        // The top rank of a bucket interpolates exactly to its high bound;
        // interior ranks stay confined to the bucket.
        let (counts, total, min, max) = buckets_of(&[512, 1023]);
        let p0 = percentile(&counts, total, 0.25, min, max);
        let p1 = percentile(&counts, total, 1.0, min, max);
        assert!(
            (512.0..=1023.0).contains(&p0),
            "rank 1 of 2 stays inside the bucket, got {p0}"
        );
        assert_eq!(p1, 1023.0, "rank 2 of 2 sits at the bucket's high bound");
    }

    #[test]
    fn percentile_mid_bucket_error_is_bounded() {
        // Uniform fill of one bucket: linear interpolation tracks the true
        // quantile to within ~1 part in bucket-width.
        let values: Vec<u64> = (512..=1023).collect();
        let (counts, total, min, max) = buckets_of(&values);
        for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
            let rank = (q * total as f64).ceil().max(1.0);
            let truth = 511.0 + rank; // rank-th smallest of 512..=1023
            let est = percentile(&counts, total, q, min, max);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.01, "q={q}: est {est} vs true {truth} (rel {rel})");
        }

        // Adversarial mass placement (everything at one end of the bucket):
        // the estimate can be off inside the bucket but never escapes it, so
        // the relative error is bounded by the bucket's width (a factor of
        // two on the log scale).
        let mut skewed = vec![512u64; 999];
        skewed.push(1023);
        let (counts, total, min, max) = buckets_of(&skewed);
        let (lo, hi) = bucket_bounds(bucket_index(512));
        for q in [0.5, 0.99] {
            let est = percentile(&counts, total, q, min, max);
            assert!(
                (lo as f64..=hi as f64).contains(&est),
                "q={q}: estimate {est} escaped bucket [{lo}, {hi}]"
            );
            assert!(est / 512.0 <= 2.0, "relative error must stay below 2x");
        }
    }

    #[test]
    fn percentile_single_sample_is_exact() {
        for v in [0u64, 1, 7, 300, 1 << 40] {
            let (counts, total, min, max) = buckets_of(&[v]);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(percentile(&counts, total, q, min, max), v as f64);
            }
        }
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let counts = vec![0u64; BUCKETS];
        for q in [0.0, 0.5, 0.99] {
            assert_eq!(percentile(&counts, 0, q, 0, 0), 0.0);
        }
    }

    #[test]
    fn registry_enumerations_are_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b.z_total").inc();
        r.counter("a.z_total").add(2);
        r.gauge("m.depth").set(5);
        r.histogram("l.latency_us").record(10);
        let names: Vec<String> = r.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["a.z_total".to_string(), "b.z_total".to_string()]
        );
        assert_eq!(r.gauges(), vec![("m.depth".to_string(), 5)]);
        assert_eq!(r.histograms()[0].0, "l.latency_us");
        r.clear();
        assert!(r.counters().is_empty());
    }
}
