//! Mergeable point-in-time metric snapshots — the wire format of the
//! fleet observability plane.
//!
//! A [`Snapshot`] freezes a registry (and optionally its windowed
//! counterpart) into plain data: counter values, gauge values, and raw
//! log-scale bucket arrays for every histogram. Because every process
//! shares the same power-of-two bucket layout
//! ([`crate::registry::BUCKETS`]), two snapshots merge *exactly*:
//! bucket arrays add elementwise, counts and sums add, mins and maxes
//! combine — so a percentile computed from a merged snapshot equals the
//! percentile of the union of the underlying samples recorded into one
//! histogram. No resampling, no approximation on top of the bucket
//! quantization already present in each process.
//!
//! [`Snapshot::merge`] is associative and commutative (every per-field
//! operation is `+`, `min`, or `max`), so a fleet observer may fold
//! replica snapshots in any order — or in a tree — and always obtain the
//! same fleet view. The laws are pinned by property-style tests below.
//!
//! This crate writes no JSON for a snapshot: the `nl2vis.metrics.v1`
//! encoder, decoder and format tag live together in `nl2vis-llm`'s
//! `telemetry` module, which the server and the fleet plane share.

use crate::registry::{percentile, HistogramSummary, MetricsRegistry, BUCKETS};
use crate::window::WindowedRegistry;
use std::collections::BTreeMap;

/// One histogram's raw state: everything needed to recompute summaries,
/// and nothing that can't be merged exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Log-scale bucket counts, [`BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Builds a snapshot from raw parts, padding or truncating `buckets`
    /// to [`BUCKETS`] (decoders hand in possibly-trimmed arrays).
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64, mut buckets: Vec<u64>) -> Self {
        buckets.resize(BUCKETS, 0);
        HistSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }

    /// Merges `other` in: buckets add elementwise, count/sum add,
    /// min/max combine (empty sides contribute nothing).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
    }

    /// Quantile estimate: the one percentile computation, which live,
    /// windowed and merged histograms all read through their snapshots.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.buckets, self.count, q, self.min, self.max)
    }

    /// A [`HistogramSummary`] recomputed from the frozen buckets
    /// (exemplars are per-process and do not survive snapshotting).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            exemplar: None,
        }
    }

    /// Fraction of samples at or below `threshold` (SLO attainment).
    /// Buckets entirely below count in full; the straddling bucket
    /// contributes the linearly interpolated share of its width.
    pub fn fraction_at_or_below(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let mut good = 0.0f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = crate::registry::bucket_bounds(i);
            if hi <= threshold {
                good += c as f64;
            } else if lo <= threshold {
                let width = (hi - lo + 1) as f64;
                good += c as f64 * (threshold - lo + 1) as f64 / width;
            }
        }
        (good / self.count as f64).clamp(0.0, 1.0)
    }
}

impl From<&crate::registry::Histogram> for HistSnapshot {
    fn from(h: &crate::registry::Histogram) -> HistSnapshot {
        h.snapshot()
    }
}

/// A frozen, mergeable view of one process's metrics: the cumulative
/// registry plus (optionally) the sliding-window registry's current
/// window. The unit the fleet plane scrapes, merges, and re-serves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// How many process snapshots were merged into this one (1 for a
    /// freshly collected snapshot; adds on merge).
    pub sources: u64,
    /// Wall-clock actually covered by the windowed sections, in
    /// microseconds (max on merge — replicas share the window span but
    /// may differ in uptime).
    pub window_covered_us: u64,
    /// Cumulative counters (add on merge).
    pub counters: BTreeMap<String, u64>,
    /// Gauges (add on merge: inflight/depth-style gauges sum to the
    /// fleet total; summed high-water marks upper-bound the fleet peak).
    pub gauges: BTreeMap<String, i64>,
    /// Cumulative histograms (exact bucket merge).
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Windowed counter totals over the current window (add on merge).
    pub windowed_counters: BTreeMap<String, u64>,
    /// Windowed histograms over the current window (exact bucket merge).
    pub windowed_histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Freezes `metrics` (and `windowed`, when given) into a snapshot.
    pub fn collect(metrics: &MetricsRegistry, windowed: Option<&WindowedRegistry>) -> Snapshot {
        let mut snap = Snapshot {
            sources: 1,
            counters: metrics.counters().into_iter().collect(),
            gauges: metrics.gauges().into_iter().collect(),
            histograms: metrics.histogram_snapshots().into_iter().collect(),
            ..Snapshot::default()
        };
        if let Some(w) = windowed {
            snap.window_covered_us = w.covered().as_micros() as u64;
            snap.windowed_counters = w.counters().into_iter().collect();
            snap.windowed_histograms = w.histogram_snapshots().into_iter().collect();
        }
        snap
    }

    /// Merges `other` in. Associative and commutative: counters, gauges,
    /// counts, sums, and buckets add; mins/maxes combine; names missing
    /// on either side behave as empty metrics.
    pub fn merge(&mut self, other: &Snapshot) {
        self.sources += other.sources;
        self.window_covered_us = self.window_covered_us.max(other.window_covered_us);
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_default() += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, v) in &other.windowed_counters {
            *self.windowed_counters.entry(name.clone()).or_default() += v;
        }
        for (name, h) in &other.windowed_histograms {
            self.windowed_histograms
                .entry(name.clone())
                .or_default()
                .merge(h);
        }
    }

    /// Folds `snapshots` into one fleet view (empty input → empty
    /// snapshot with `sources == 0`).
    pub fn merged<'a>(snapshots: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
        let mut out = Snapshot::default();
        for s in snapshots {
            out.merge(s);
        }
        out
    }

    /// Cumulative counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Windowed counter total (0 when absent).
    pub fn windowed_counter(&self, name: &str) -> u64 {
        self.windowed_counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Histogram;
    use crate::window::WindowConfig;
    use std::time::Duration;

    /// A tiny deterministic xorshift PRNG — the test harness is
    /// dependency-free, so property-style tests roll their own entropy.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// A sample spread across many octaves so bucket arrays are
        /// exercised broadly.
        fn sample(&mut self) -> u64 {
            let shift = self.next() % 40;
            self.next() >> (24 + shift % 40)
        }
    }

    fn random_snapshot(rng: &mut Rng) -> Snapshot {
        let metrics = MetricsRegistry::new();
        for name in ["a.requests_total", "b.errors_total"] {
            metrics.counter(name).add(rng.next() % 1000);
        }
        metrics.gauge("a.inflight").set((rng.next() % 64) as i64);
        let h = metrics.histogram("a.latency_us");
        for _ in 0..(rng.next() % 200) {
            h.record(rng.sample());
        }
        // One metric present only sometimes, so merges see asymmetric
        // key sets.
        if rng.next() % 2 == 0 {
            metrics.histogram("c.rare_us").record(rng.sample());
        }
        let mut snap = Snapshot::collect(&metrics, None);
        snap.window_covered_us = rng.next() % 10_000_000;
        snap.windowed_counters
            .insert("w.requests".to_string(), rng.next() % 500);
        snap
    }

    #[test]
    fn merge_is_commutative() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for _ in 0..25 {
            let (a, b) = (random_snapshot(&mut rng), random_snapshot(&mut rng));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba);
        }
    }

    #[test]
    fn merge_is_associative() {
        let mut rng = Rng(0xDEADBEEFCAFEF00D);
        for _ in 0..25 {
            let a = random_snapshot(&mut rng);
            let b = random_snapshot(&mut rng);
            let c = random_snapshot(&mut rng);
            let mut left = a.clone(); // (a ⊕ b) ⊕ c
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone(); // a ⊕ (b ⊕ c)
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right);
        }
    }

    #[test]
    fn empty_snapshot_is_the_merge_identity() {
        let mut rng = Rng(42);
        let a = random_snapshot(&mut rng);
        let mut left = Snapshot::default();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&Snapshot::default());
        assert_eq!(left, a);
        assert_eq!(right, a);
    }

    #[test]
    fn merged_percentiles_equal_union_percentiles_exactly() {
        // The acceptance property: replica histograms merged at the
        // bucket level yield the *same* quantile estimates as all
        // samples recorded into one histogram, for every quantile —
        // shared bucket boundaries make the merge lossless.
        let mut rng = Rng(0x1234_5678_9ABC_DEF1);
        for round in 0..10 {
            let (h1, h2, union) = (
                Histogram::default(),
                Histogram::default(),
                Histogram::default(),
            );
            for i in 0..400 {
                let v = rng.sample();
                if i % 3 == 0 {
                    h1.record(v);
                } else {
                    h2.record(v);
                }
                union.record(v);
            }
            let mut merged = h1.snapshot();
            merged.merge(&h2.snapshot());
            let truth = union.snapshot();
            assert_eq!(merged, truth, "round {round}");
            for q in [0.0, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
                assert_eq!(merged.quantile(q), union.quantile(q), "q={q}");
            }
            assert_eq!(merged.summary().p99, union.summary().p99);
        }
    }

    #[test]
    fn merge_handles_empty_and_disjoint_histograms() {
        let mut empty = HistSnapshot::default();
        let h = Histogram::default();
        h.record(100);
        h.record(5000);
        empty.merge(&h.snapshot());
        assert_eq!(empty, h.snapshot(), "empty ⊕ x == x");
        assert_eq!((empty.min, empty.max), (100, 5000));

        let mut x = h.snapshot();
        x.merge(&HistSnapshot::default());
        assert_eq!(x, h.snapshot(), "x ⊕ empty == x");
    }

    #[test]
    fn collect_freezes_both_registries() {
        let metrics = MetricsRegistry::new();
        metrics.counter("s.requests_total").add(7);
        metrics.gauge("s.inflight").set(3);
        metrics.histogram("s.latency_us").record(250);
        let windowed = WindowedRegistry::new(WindowConfig::seconds_10());
        windowed.counter("s.requests").add(4);
        windowed.histogram("s.latency_us").record(250);

        let snap = Snapshot::collect(&metrics, Some(&windowed));
        assert_eq!(snap.sources, 1);
        assert_eq!(snap.counter("s.requests_total"), 7);
        assert_eq!(snap.gauges["s.inflight"], 3);
        assert_eq!(snap.histograms["s.latency_us"].count, 1);
        assert_eq!(snap.windowed_counter("s.requests"), 4);
        assert_eq!(snap.windowed_histograms["s.latency_us"].sum, 250);
        assert!(snap.window_covered_us <= 10_000_000);
    }

    #[test]
    fn fraction_at_or_below_tracks_thresholds() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        assert_eq!(s.fraction_at_or_below(0), 0.0);
        let mid = s.fraction_at_or_below(1000);
        assert!((0.89..=0.91).contains(&mid), "got {mid}");
        assert_eq!(s.fraction_at_or_below(u64::MAX), 1.0);
        assert_eq!(HistSnapshot::default().fraction_at_or_below(1), 1.0);
    }

    #[test]
    fn from_parts_pads_short_bucket_arrays() {
        let s = HistSnapshot::from_parts(2, 30, 10, 20, vec![0, 0, 0, 0, 2]);
        assert_eq!(s.buckets.len(), BUCKETS);
        assert_eq!(s.count, 2);
        let mut other = HistSnapshot::default();
        other.merge(&s);
        assert_eq!(other, s);
    }

    #[test]
    fn windowed_snapshot_ages_out_with_the_window() {
        let windowed = WindowedRegistry::new(WindowConfig {
            bucket: Duration::from_secs(1),
            buckets: 2,
        });
        let h = windowed.histogram("w.latency_us");
        h.record_at(500, Duration::from_millis(100));
        let live = h.snapshot_at(Duration::from_millis(200));
        assert_eq!(live.count, 1);
        assert_eq!(live.sum, 500);
        let aged = h.snapshot_at(Duration::from_secs(5));
        assert_eq!(aged.count, 0);
        assert_eq!(aged, HistSnapshot::default());
    }
}
