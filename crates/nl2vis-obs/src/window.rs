//! Sliding-window aggregation: rolling throughput and latency percentiles
//! over the last N seconds, next to the cumulative registry.
//!
//! Cumulative counters and histograms answer "what happened since the
//! process started"; a sustained load run needs "what is happening *right
//! now*" — rolling throughput, the windowed p99, the shed rate over the
//! last ten seconds. [`WindowedCounter`] and [`WindowedHistogram`] provide
//! that as a ring of fixed-duration buckets: each recording lands in the
//! bucket owning the current time slice, and a read aggregates the
//! buckets still inside the window, so old traffic ages out bucket by
//! bucket instead of lingering forever.
//!
//! Every read goes through [`WindowedHistogram::snapshot`]: the window
//! frozen into a [`HistSnapshot`] in the registry's log-scale bucket
//! layout ([`crate::registry::BUCKETS`]), so a windowed percentile is the
//! same [`HistSnapshot::quantile`] as a cumulative one, and a windowed
//! p99 and a cumulative p99 over the same steady workload converge to
//! the same bucket. A rate divides a window total by
//! [`WindowedRegistry::covered`].
//!
//! Recording is relaxed atomics on the hot path; a bucket is reset under a
//! short per-slot mutex only when the ring rotates into it (once per
//! bucket duration). A thread that stalls between reading the clock and
//! recording can land its sample one bucket late, and samples recorded
//! concurrently with a rotation can be lost — bounded, telemetry-grade
//! imprecision, never unbounded error.
//!
//! Time is measured from a per-structure epoch (`Instant` at
//! construction). Every operation has an `_at` variant taking the elapsed
//! duration explicitly, so tests drive the clock deterministically.

use crate::registry::BUCKETS;
use crate::snapshot::HistSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ring sizing: `buckets` slices of `bucket` each; the window covers
/// `bucket * buckets` of wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Duration of one ring slot.
    pub bucket: Duration,
    /// Number of ring slots.
    pub buckets: usize,
}

impl WindowConfig {
    /// The server default: ten one-second buckets (a 10 s rolling view).
    pub fn seconds_10() -> WindowConfig {
        WindowConfig {
            bucket: Duration::from_secs(1),
            buckets: 10,
        }
    }

    /// Total window span.
    pub fn span(&self) -> Duration {
        self.bucket * self.buckets as u32
    }
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig::seconds_10()
    }
}

/// One ring slot. `generation` holds `tick + 1` of the time slice the slot
/// currently represents (0 = never used); per-slot generations are
/// monotonic because slot `i` only ever holds ticks `≡ i (mod n)`.
#[derive(Debug)]
struct Slot {
    generation: AtomicU64,
    rotate: Mutex<()>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            generation: AtomicU64::new(0),
            rotate: Mutex::new(()),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Slot {
    /// Makes the slot represent `tick`, zeroing stale contents. Returns
    /// `false` when the slot already moved past `tick` (the caller's clock
    /// read is stale; its sample belongs to a newer slice and recording it
    /// there is a bounded, acceptable skew).
    fn rotate_to(&self, tick: u64) -> bool {
        let want = tick + 1;
        let current = self.generation.load(Ordering::Acquire);
        if current == want {
            return true;
        }
        if current > want {
            return false;
        }
        let _guard = self.rotate.lock().expect("window slot rotation");
        let current = self.generation.load(Ordering::Acquire);
        if current >= want {
            return current == want;
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.generation.store(want, Ordering::Release);
        true
    }
}

/// A log-scale histogram over a sliding window: the windowed counterpart
/// of [`crate::registry::Histogram`].
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: Vec<Slot>,
    bucket_us: u64,
    epoch: Instant,
}

impl WindowedHistogram {
    /// An empty windowed histogram; the window starts now.
    pub fn new(config: WindowConfig) -> WindowedHistogram {
        WindowedHistogram::with_epoch(config, Instant::now())
    }

    /// An empty windowed histogram measuring time from `epoch`. A registry
    /// passes its own construction time, so a metric first touched long
    /// after startup still ticks in step with the registry's
    /// [`covered`](WindowedRegistry::covered) duration, the denominator
    /// of its rate.
    pub fn with_epoch(config: WindowConfig, epoch: Instant) -> WindowedHistogram {
        WindowedHistogram {
            slots: (0..config.buckets.max(1))
                .map(|_| Slot::default())
                .collect(),
            bucket_us: (config.bucket.as_micros() as u64).max(1),
            epoch,
        }
    }

    fn tick_of(&self, elapsed: Duration) -> u64 {
        (elapsed.as_micros() as u64) / self.bucket_us
    }

    /// Records one sample at the current time.
    pub fn record(&self, v: u64) {
        self.record_at(v, self.epoch.elapsed());
    }

    /// Records a wall-clock duration in whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one sample as of `elapsed` since the epoch (the
    /// deterministic entry point tests use).
    pub fn record_at(&self, v: u64, elapsed: Duration) {
        let mut tick = self.tick_of(elapsed);
        let mut slot = &self.slots[(tick as usize) % self.slots.len()];
        if !slot.rotate_to(tick) {
            // Our clock read was stale: the ring already moved on. Land the
            // sample in the slice the slot now represents instead of
            // dropping it.
            tick = (slot.generation.load(Ordering::Acquire)).saturating_sub(1);
            slot = &self.slots[(tick as usize) % self.slots.len()];
        }
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(v, Ordering::Relaxed);
        slot.min.fetch_min(v, Ordering::Relaxed);
        slot.max.fetch_max(v, Ordering::Relaxed);
        slot.buckets[crate::registry::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// The current window frozen into a mergeable [`HistSnapshot`] — the
    /// windowed section of a process's `/metrics.json`.
    pub fn snapshot(&self) -> HistSnapshot {
        self.snapshot_at(self.epoch.elapsed())
    }

    /// [`WindowedHistogram::snapshot`] as of `elapsed` since the epoch:
    /// aggregates the slots whose tick lies in `(now_tick - n, now_tick]`.
    pub fn snapshot_at(&self, elapsed: Duration) -> HistSnapshot {
        let now_tick = self.tick_of(elapsed);
        let oldest = (now_tick + 1).saturating_sub(self.slots.len() as u64);
        let mut window = HistSnapshot::default();
        let (mut min, mut max) = (u64::MAX, 0u64);
        for slot in &self.slots {
            let generation = slot.generation.load(Ordering::Acquire);
            if generation == 0 || !(oldest..=now_tick).contains(&(generation - 1)) {
                continue;
            }
            let count = slot.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            window.count += count;
            window.sum += slot.sum.load(Ordering::Relaxed);
            min = min.min(slot.min.load(Ordering::Relaxed));
            max = max.max(slot.max.load(Ordering::Relaxed));
            for (acc, b) in window.buckets.iter_mut().zip(&slot.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        if window.count > 0 {
            (window.min, window.max) = (min, max);
        }
        window
    }
}

/// A counter over a sliding window — rolling rates (requests/sec, sheds in
/// the last N seconds) instead of an ever-growing total.
#[derive(Debug)]
pub struct WindowedCounter {
    inner: WindowedHistogram,
}

impl WindowedCounter {
    /// An empty windowed counter; the window starts now.
    pub fn new(config: WindowConfig) -> WindowedCounter {
        WindowedCounter {
            inner: WindowedHistogram::new(config),
        }
    }

    /// An empty windowed counter measuring time from `epoch` (see
    /// [`WindowedHistogram::with_epoch`]).
    pub fn with_epoch(config: WindowConfig, epoch: Instant) -> WindowedCounter {
        WindowedCounter {
            inner: WindowedHistogram::with_epoch(config, epoch),
        }
    }

    /// Adds `n` at the current time.
    pub fn add(&self, n: u64) {
        self.add_at(n, self.inner.epoch.elapsed());
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` as of `elapsed` since the epoch.
    pub fn add_at(&self, n: u64, elapsed: Duration) {
        // One sample of value n: `sum` aggregates to the windowed total.
        self.inner.record_at(n, elapsed);
    }

    /// Total added inside the window as of now.
    pub fn window_total(&self) -> u64 {
        self.inner.snapshot().sum
    }

    /// Total added inside the window as of `elapsed`.
    pub fn window_total_at(&self, elapsed: Duration) -> u64 {
        self.inner.snapshot_at(elapsed).sum
    }
}

/// A thread-safe registry of named windowed metrics, mirroring
/// [`crate::registry::MetricsRegistry`]'s create-on-first-use contract.
/// All metrics share one [`WindowConfig`].
#[derive(Debug)]
pub struct WindowedRegistry {
    config: WindowConfig,
    /// Shared epoch for every metric: covered durations measure from
    /// registry creation, not first touch, so first-scrape rates are
    /// honest for metrics that start recording late.
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<WindowedCounter>>>,
    histograms: Mutex<BTreeMap<String, Arc<WindowedHistogram>>>,
}

impl WindowedRegistry {
    /// An empty registry whose metrics all use `config`.
    pub fn new(config: WindowConfig) -> WindowedRegistry {
        WindowedRegistry {
            config,
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared window sizing.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// The windowed counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<WindowedCounter> {
        let mut map = self.counters.lock().expect("windowed counter map");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(WindowedCounter::with_epoch(self.config, self.epoch))),
        )
    }

    /// The windowed histogram registered under `name`, created on first
    /// use.
    pub fn histogram(&self, name: &str) -> Arc<WindowedHistogram> {
        let mut map = self.histograms.lock().expect("windowed histogram map");
        Arc::clone(
            map.entry(name.to_string()).or_insert_with(|| {
                Arc::new(WindowedHistogram::with_epoch(self.config, self.epoch))
            }),
        )
    }

    /// Sorted `(name, snapshot)` pairs of every windowed histogram's raw
    /// window buckets.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistSnapshot)> {
        let map = self.histograms.lock().expect("windowed histogram map");
        map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Wall-clock the window currently covers: the registry's age,
    /// saturating at the configured span.
    pub fn covered(&self) -> Duration {
        self.epoch.elapsed().min(self.config.span())
    }

    /// Sorted `(name, window_total)` pairs of every windowed counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().expect("windowed counter map");
        map.iter()
            .map(|(k, v)| (k.clone(), v.window_total()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: WindowConfig = WindowConfig {
        bucket: Duration::from_secs(1),
        buckets: 4,
    };

    fn at(secs: f64) -> Duration {
        Duration::from_secs_f64(secs)
    }

    #[test]
    fn window_aggregates_only_recent_buckets() {
        let h = WindowedHistogram::new(CFG);
        h.record_at(100, at(0.5)); // tick 0
        h.record_at(200, at(1.5)); // tick 1
        h.record_at(400, at(3.5)); // tick 3

        // At t=3.5 every bucket is inside the 4-bucket window.
        let s = h.snapshot_at(at(3.5));
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 700);
        assert_eq!((s.min, s.max), (100, 400));

        // At t=4.5 the window is ticks 1..=4: the t=0.5 sample has aged out.
        let s = h.snapshot_at(at(4.5));
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 600);
        assert_eq!(s.min, 200);

        // At t=8.0 everything has aged out.
        let s = h.snapshot_at(at(8.0));
        assert_eq!(s, HistSnapshot::default());
        assert_eq!(s.quantile(0.99), 0.0);
    }

    #[test]
    fn ring_slots_are_reset_on_reuse() {
        let h = WindowedHistogram::new(CFG);
        h.record_at(1000, at(0.5)); // tick 0 → slot 0
        h.record_at(8, at(4.2)); // tick 4 → slot 0 again, must reset first
        let s = h.snapshot_at(at(4.2));
        assert_eq!(s.count, 1, "stale slot contents must not leak");
        assert_eq!(s.sum, 8);
        assert_eq!(s.max, 8);
    }

    #[test]
    fn stale_clock_reads_do_not_resurrect_old_slots() {
        let h = WindowedHistogram::new(CFG);
        h.record_at(7, at(4.2)); // slot 0 now owns tick 4
                                 // A thread whose clock read predates the rotation must not reset
                                 // slot 0 back to tick 0; its sample lands in the live slice.
        h.record_at(9, at(0.5));
        let s = h.snapshot_at(at(4.2));
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 16);
    }

    #[test]
    fn windowed_percentiles_match_cumulative_on_a_steady_stream() {
        let windowed = WindowedHistogram::new(WindowConfig {
            bucket: Duration::from_millis(250),
            buckets: 8,
        });
        let cumulative = crate::registry::Histogram::default();
        // A steady stream entirely inside the 2 s window: both views see
        // identical samples, so the percentiles must agree exactly.
        for i in 0..2000u64 {
            let v = 100 + (i % 400);
            let elapsed = Duration::from_micros(i * 900); // 1.8 s total
            windowed.record_at(v, elapsed);
            cumulative.record(v);
        }
        let w = windowed.snapshot_at(Duration::from_micros(1999 * 900));
        let c = cumulative.snapshot();
        assert_eq!(w, c, "identical samples, identical buckets");
        assert_eq!(w.quantile(0.50), cumulative.quantile(0.50));
        assert_eq!(w.summary().p99, cumulative.summary().p99);
    }

    #[test]
    fn rate_uses_covered_duration_not_full_span() {
        let r = WindowedRegistry::new(CFG);
        let c = r.counter("load.requests");
        c.add(50);
        c.add(50);
        // The registry is milliseconds old, not a whole 4 s window: a rate
        // divides the window total by the registry's age, not the span.
        let covered = r.covered();
        assert_eq!(c.window_total(), 100);
        assert!(covered < CFG.span(), "covered {covered:?}");
    }

    #[test]
    fn counter_window_totals_age_out() {
        let c = WindowedCounter::new(CFG);
        c.add_at(10, at(0.5));
        c.add_at(5, at(2.5));
        assert_eq!(c.window_total_at(at(2.5)), 15);
        assert_eq!(c.window_total_at(at(4.5)), 5);
        assert_eq!(c.window_total_at(at(9.0)), 0);
    }

    #[test]
    fn registry_hands_back_shared_handles() {
        let r = WindowedRegistry::new(CFG);
        r.counter("load.requests").add_at(3, at(0.1));
        assert_eq!(r.counter("load.requests").window_total_at(at(0.2)), 3);
        r.histogram("load.latency_us").record_at(40, at(0.1));
        assert_eq!(r.histogram("load.latency_us").snapshot_at(at(0.2)).count, 1);
        let names: Vec<String> = r
            .histogram_snapshots()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["load.latency_us".to_string()]);
    }

    #[test]
    fn concurrent_records_survive_rotation() {
        let h = Arc::new(WindowedHistogram::new(WindowConfig {
            bucket: Duration::from_millis(1),
            buckets: 4,
        }));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(i % 997);
                    }
                });
            }
        });
        // Rotation races may drop a handful of samples, never corrupt the
        // structure; with 1 ms buckets nearly everything has aged out of
        // the 4 ms window by now, so only invariants are asserted.
        let s = h.snapshot();
        assert!(s.count <= 20_000);
        assert!(s.quantile(0.50) <= s.quantile(0.99));
    }

    #[test]
    fn registry_metrics_share_the_registry_epoch() {
        let r = WindowedRegistry::new(WindowConfig {
            bucket: Duration::from_millis(10),
            buckets: 1000,
        });
        std::thread::sleep(Duration::from_millis(30));
        // First touch happens well after registry creation: the sample
        // lands at the registry's clock (tick 3 or later), not at tick 0
        // of its own, so its window lines up with the covered duration
        // every rate divides by.
        let h = r.histogram("late.latency_us");
        h.record(100);
        let covered = r.covered();
        assert!(
            covered >= Duration::from_millis(30),
            "covered {covered:?} must measure from registry creation"
        );
        assert_eq!(h.snapshot_at(Duration::from_millis(5)).count, 0);
        assert_eq!(h.snapshot_at(covered).count, 1);
    }
}
