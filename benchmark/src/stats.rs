//! Sampling, scheduling and summary arithmetic shared by every workload.
//!
//! Everything here is independent of the program under test: the input
//! draws use the benchmark's own generator, so a change to the program's
//! RNG never changes which requests a seed produces.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: the benchmark's own seeded generator for request draws.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1 / (r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    #[cfg(test)]
    /// Probability of rank `r`.
    pub fn probability(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A hot set that moves: the ranks a [`Zipf`] sampler draws map to items
/// through a seeded permutation that is redrawn every `period`. One run
/// then averages over several hot sets instead of resting on the few items
/// a single permutation happens to make hot.
#[derive(Debug, Clone)]
pub struct HotSets {
    period: Duration,
    permutations: Vec<Vec<usize>>,
}

impl HotSets {
    /// Permutations of `items` for every period in `span`.
    pub fn new(items: usize, seed: u64, period: Duration, span: Duration) -> HotSets {
        let mut rng = SplitMix64::new(seed ^ 0x4075_E75E);
        let periods = (span.as_nanos() / period.as_nanos()) as usize + 1;
        let permutations = (0..periods)
            .map(|_| {
                let mut p: Vec<usize> = (0..items).collect();
                for i in (1..items).rev() {
                    p.swap(i, rng.below(i + 1));
                }
                p
            })
            .collect();
        HotSets {
            period,
            permutations,
        }
    }

    /// The item that `rank` names at `at` into the run.
    pub fn item(&self, at: Duration, rank: usize) -> usize {
        let p =
            ((at.as_nanos() / self.period.as_nanos()) as usize).min(self.permutations.len() - 1);
        self.permutations[p][rank]
    }
}

/// The fixed intended-send schedule of an open loop: request `j` is due
/// `j / rate` seconds after the epoch, and client thread `k` of `threads`
/// owns requests `k, k + threads, k + 2·threads, ...`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub rate: f64,
    pub threads: usize,
}

impl OpenLoop {
    /// Global index of the `i`-th request of thread `k`.
    pub fn job(&self, k: usize, i: usize) -> usize {
        k + i * self.threads
    }

    /// When request `j` is due, as an offset from the epoch.
    pub fn due(&self, j: usize) -> Duration {
        Duration::from_secs_f64(j as f64 / self.rate)
    }

    /// Requests due strictly before `window` has elapsed.
    pub fn due_within(&self, window: Duration) -> usize {
        (window.as_secs_f64() * self.rate).ceil() as usize
    }
}

/// An open loop is backlogged when what it completed trails what it
/// offered by more than `bound` (a share of the offered rate).
pub fn backlogged(completed_per_s: f64, offered_per_s: f64, bound: f64) -> bool {
    completed_per_s < offered_per_s * (1.0 - bound)
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` and returns `(median, p99)`.
pub fn median_p99(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    (quantile(values, 0.5), quantile(values, 0.99))
}

pub fn median(values: &mut [f64]) -> f64 {
    median_p99(values).0
}

/// Events per second in each whole `window` of `span`, then the median over
/// the windows. `times` are when the events happened, since the run began.
pub fn windowed_rate(
    times: impl Iterator<Item = Duration>,
    window: Duration,
    span: Duration,
) -> f64 {
    let windows = (span.as_nanos() / window.as_nanos()) as usize;
    if windows == 0 {
        return 0.0;
    }
    let mut counts = vec![0.0; windows];
    for at in times {
        if let Some(c) = counts.get_mut((at.as_nanos() / window.as_nanos()) as usize) {
            *c += 1.0;
        }
    }
    median(&mut counts) / window.as_secs_f64()
}

/// Median and p99 computed per `window` of time, then the median of each
/// over the windows. `samples` are `(time since the run started, value)`.
/// Windows holding fewer than `min_samples` (a trailing partial window) are
/// skipped. A one-off stall of the machine then moves the few windows it
/// falls in, not the result. Returns `(p50, p99, windows used)`.
pub fn windowed_p50_p99(
    samples: &[(Duration, f64)],
    window: Duration,
    min_samples: usize,
) -> (f64, f64, usize) {
    let mut windows: BTreeMap<u128, Vec<f64>> = BTreeMap::new();
    for &(at, value) in samples {
        windows
            .entry(at.as_nanos() / window.as_nanos())
            .or_default()
            .push(value);
    }
    let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) = windows
        .into_values()
        .filter(|w| w.len() >= min_samples)
        .map(|mut w| median_p99(&mut w))
        .unzip();
    let used = p50s.len();
    (median(&mut p50s), median(&mut p99s), used)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit, and
/// hold at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_uniform() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(SplitMix64::new(8).next_u64(), xs[0]);

        let mut rng = SplitMix64::new(3);
        let n = 10;
        let draws = 100_000;
        let mut hist = vec![0usize; n];
        for _ in 0..draws {
            hist[rng.below(n)] += 1;
        }
        for (i, &h) in hist.iter().enumerate() {
            let share = h as f64 / draws as f64;
            assert!((share - 0.1).abs() < 0.01, "bucket {i}: {share}");
        }
    }

    #[test]
    fn zipf_matches_its_weights() {
        let n = 522;
        let zipf = Zipf::new(n, 1.1);
        let harmonic: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(1.1)).sum();
        assert!((zipf.probability(0) - 1.0 / harmonic).abs() < 1e-12);
        assert!((1..n).all(|r| zipf.probability(r) < zipf.probability(r - 1)));

        let mut rng = SplitMix64::new(11);
        let draws = 200_000;
        let mut hist = vec![0usize; n];
        for _ in 0..draws {
            hist[zipf.sample(&mut rng)] += 1;
        }
        for r in [0, 1, 9] {
            let share = hist[r] as f64 / draws as f64;
            let want = zipf.probability(r);
            assert!(
                (share - want).abs() < want * 0.05,
                "rank {r}: {share} vs {want}"
            );
        }
    }

    #[test]
    fn hot_sets_are_seeded_permutations_that_move() {
        let second = Duration::from_secs(1);
        let a = HotSets::new(50, 9, second, second * 3);
        let b = HotSets::new(50, 9, second, second * 3);
        for p in &a.permutations {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        }
        assert_eq!(a.permutations, b.permutations);
        assert_eq!(a.permutations.len(), 4);
        let hottest: Vec<usize> = (0..4).map(|p| a.item(second * p, 0)).collect();
        assert!(hottest.windows(2).any(|w| w[0] != w[1]), "{hottest:?}");
        // Within a period the mapping holds; past the span the last one does.
        assert_eq!(
            a.item(Duration::from_millis(10), 3),
            a.item(Duration::from_millis(990), 3)
        );
        assert_eq!(a.item(second * 10, 3), a.item(second * 3, 3));
        assert_ne!(
            HotSets::new(50, 10, second, second).permutations,
            a.permutations[..2]
        );
    }

    #[test]
    fn open_loop_schedule_partitions_and_spaces_requests() {
        let schedule = OpenLoop {
            rate: 1400.0,
            threads: 2,
        };
        // Thread 0 owns the even jobs, thread 1 the odd ones.
        assert_eq!(schedule.job(0, 0), 0);
        assert_eq!(schedule.job(1, 0), 1);
        assert_eq!(schedule.job(0, 3), 6);
        assert_eq!(schedule.job(1, 3), 7);
        // Consecutive jobs are 1/rate apart; one thread's are threads/rate.
        let gap = schedule.due(1) - schedule.due(0);
        assert!((gap.as_secs_f64() - 1.0 / 1400.0).abs() < 1e-9);
        let own_gap = schedule.due(schedule.job(0, 1)) - schedule.due(schedule.job(0, 0));
        assert!((own_gap.as_secs_f64() - 2.0 / 1400.0).abs() < 1e-9);
        assert_eq!(schedule.due(1400), Duration::from_secs(1));
        assert_eq!(schedule.due_within(Duration::from_secs(10)), 14_000);
    }

    #[test]
    fn backlog_flag_uses_the_bound() {
        assert!(!backlogged(1390.0, 1400.0, 0.1));
        assert!(!backlogged(1260.0, 1400.0, 0.1));
        assert!(backlogged(1259.0, 1400.0, 0.1));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        let (p50, p99) = median_p99(&mut v);
        assert_eq!(p50, 3.0);
        assert!((p99 - 4.96).abs() < 1e-9);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_percentiles_ignore_a_stalled_window() {
        let second = Duration::from_secs(1);
        let mut samples = Vec::new();
        for w in 0..5u32 {
            for i in 0..100u32 {
                // Window 2 stalls: every value in it is 100x slower.
                let value = if w == 2 {
                    100.0
                } else {
                    1.0 + i as f64 / 100.0
                };
                samples.push((second * w + Duration::from_millis(i as u64 * 10), value));
            }
        }
        // A trailing partial window is skipped.
        samples.push((second * 5, 1e9));
        let (p50, p99, used) = windowed_p50_p99(&samples, second, 50);
        assert_eq!(used, 5);
        assert!((p50 - 1.495).abs() < 1e-9, "{p50}");
        assert!((p99 - 1.9801).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn windowed_rate_counts_whole_windows() {
        let ms = Duration::from_millis;
        // 10, 20 and 30 events in three half-second windows, plus events in
        // a partial fourth window that must not count.
        let times = (0..10)
            .map(|i| ms(i * 50))
            .chain((0..20).map(|i| ms(500 + i * 25)))
            .chain((0..30).map(|i| ms(1000 + i * 16)))
            .chain((0..5).map(|i| ms(1500 + i)));
        assert_eq!(windowed_rate(times, ms(500), ms(1700)), 40.0);
        assert_eq!(windowed_rate(std::iter::empty(), ms(500), ms(100)), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "throughput",
            "p99_ms",
            "llm.parse_prompt_us",
            "obs.count_by_name_2t_ns",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "has space",
            "slash/name",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
