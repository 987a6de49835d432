//! Declarative service-level objectives with multi-window burn rates.
//!
//! An [`SloSpec`] names an objective — "95% of requests complete within
//! 100 ms", "99% of admissions are not shed" — and a target fraction.
//! Evaluation runs against a [`Snapshot`], which makes the machinery
//! deployment-agnostic: the same spec evaluates a single process's
//! `/metrics.json` or the fleet-merged snapshot the router's observer
//! builds, because both are just snapshots.
//!
//! Following the SRE multi-window convention, each objective is judged
//! over two horizons at once: the **fast** window (the snapshot's
//! sliding-window sections — what is happening right now) and the
//! **slow** window (the cumulative sections — the whole deployment's
//! history standing in for the SLO period). The *burn rate* is the
//! bad-event fraction divided by the error budget `1 - target`: burn 1.0
//! spends the budget exactly at period's end, burn 10 exhausts it ten
//! times too fast. A fast burn spike with a calm slow burn is a blip; both
//! elevated means the budget is genuinely draining.
//!
//! [`publish`] exports statuses as `slo.*` gauges (milli-units, since
//! gauges are integers), so burn rates ride the existing exposition and
//! snapshot plumbing like any other metric.

use crate::registry::MetricsRegistry;
use crate::snapshot::Snapshot;

/// What an SLO measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Good = samples of `histogram` at or below `threshold_us`.
    LatencyBelow {
        /// Histogram name present in both snapshot sections.
        histogram: String,
        /// Attainment threshold in microseconds.
        threshold_us: u64,
    },
    /// Good = `good` counter events; bad = `bad` counter events; the
    /// denominator is their sum (e.g. served vs shed).
    ErrorRate {
        /// Counter of good events.
        good: String,
        /// Counter of bad events.
        bad: String,
    },
}

/// One declared objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Short identifier; becomes the `slo.<name>.*` gauge prefix.
    pub name: String,
    /// What to measure.
    pub objective: Objective,
    /// Target good fraction in `(0, 1)`, e.g. 0.95.
    pub target: f64,
}

impl SloSpec {
    /// A latency-attainment objective.
    pub fn latency(name: &str, histogram: &str, threshold_us: u64, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::LatencyBelow {
                histogram: histogram.to_string(),
                threshold_us,
            },
            target,
        }
    }

    /// An error-rate objective over a good/bad counter pair.
    pub fn error_rate(name: &str, good: &str, bad: &str, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::ErrorRate {
                good: good.to_string(),
                bad: bad.to_string(),
            },
            target,
        }
    }

    /// The serving stack's stock objectives: request latency attainment
    /// at `threshold_us`, and admission availability (served vs shed).
    pub fn server_defaults(threshold_us: u64) -> Vec<SloSpec> {
        vec![
            SloSpec::latency("latency", "llm.request_latency_us", threshold_us, 0.95),
            SloSpec::error_rate(
                "availability",
                "llm.requests_total",
                "server.shed_total",
                0.99,
            ),
        ]
    }

    /// Good fraction and event count over one snapshot section.
    fn measure(&self, snap: &Snapshot, windowed: bool) -> (f64, u64) {
        match &self.objective {
            Objective::LatencyBelow {
                histogram,
                threshold_us,
            } => {
                let section = if windowed {
                    &snap.windowed_histograms
                } else {
                    &snap.histograms
                };
                match section.get(histogram) {
                    Some(h) if h.count > 0 => (h.fraction_at_or_below(*threshold_us), h.count),
                    _ => (1.0, 0),
                }
            }
            Objective::ErrorRate { good, bad } => {
                let read = |name: &str| {
                    if windowed {
                        snap.windowed_counter(name)
                    } else {
                        snap.counter(name)
                    }
                };
                let (good, bad) = (read(good), read(bad));
                let total = good + bad;
                if total == 0 {
                    (1.0, 0)
                } else {
                    (good as f64 / total as f64, total)
                }
            }
        }
    }

    /// Evaluates the objective against both of `snap`'s horizons.
    pub fn evaluate(&self, snap: &Snapshot) -> SloStatus {
        let (fast_good, fast_events) = self.measure(snap, true);
        let (slow_good, slow_events) = self.measure(snap, false);
        let budget = (1.0 - self.target).max(1e-9);
        let slow_burn = (1.0 - slow_good) / budget;
        SloStatus {
            name: self.name.clone(),
            target: self.target,
            fast_good,
            slow_good,
            fast_events,
            slow_events,
            fast_burn: (1.0 - fast_good) / budget,
            slow_burn,
            budget_remaining: 1.0 - slow_burn,
        }
    }
}

/// One objective's evaluation: attainment and burn over both windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The spec's name.
    pub name: String,
    /// The spec's target.
    pub target: f64,
    /// Good fraction over the sliding-window sections (1.0 when idle).
    pub fast_good: f64,
    /// Good fraction over the cumulative sections.
    pub slow_good: f64,
    /// Events in the fast window.
    pub fast_events: u64,
    /// Events in the slow window.
    pub slow_events: u64,
    /// Bad fraction / error budget, fast window.
    pub fast_burn: f64,
    /// Bad fraction / error budget, slow window.
    pub slow_burn: f64,
    /// `1 - slow_burn`: share of the error budget left if the slow
    /// window were the whole SLO period. Negative once over budget.
    pub budget_remaining: f64,
}

/// Evaluates every spec against one snapshot.
pub fn evaluate_all(specs: &[SloSpec], snap: &Snapshot) -> Vec<SloStatus> {
    specs.iter().map(|s| s.evaluate(snap)).collect()
}

/// Exports statuses as `slo.<name>.*` gauges in milli-units:
/// `fast_burn_milli`, `slow_burn_milli`, `fast_good_milli`, and
/// `budget_remaining_milli` (gauges are signed, so over-budget goes
/// negative rather than saturating).
pub fn publish(statuses: &[SloStatus], registry: &MetricsRegistry) {
    let milli = |v: f64| (v * 1000.0).round().clamp(i64::MIN as f64, i64::MAX as f64) as i64;
    for s in statuses {
        let set = |field: &str, v: f64| {
            registry
                .gauge(&format!("slo.{}.{}", s.name, field))
                .set(milli(v));
        };
        set("fast_burn_milli", s.fast_burn);
        set("slow_burn_milli", s.slow_burn);
        set("fast_good_milli", s.fast_good);
        set("budget_remaining_milli", s.budget_remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowConfig, WindowedRegistry};

    /// A snapshot whose fast window is healthy but whose history holds
    /// `slow_bad` bad samples out of `slow_total`.
    fn latency_snapshot(slow_total: u64, slow_bad: u64) -> Snapshot {
        let metrics = MetricsRegistry::new();
        let windowed = WindowedRegistry::new(WindowConfig::seconds_10());
        let h = metrics.histogram("llm.request_latency_us");
        for _ in 0..(slow_total - slow_bad) {
            h.record(10_000); // 10 ms — good
        }
        for _ in 0..slow_bad {
            h.record(10_000_000); // 10 s — bad
        }
        windowed.histogram("llm.request_latency_us").record(10_000);
        Snapshot::collect(&metrics, Some(&windowed))
    }

    #[test]
    fn burn_is_bad_fraction_over_budget() {
        // 10% bad against a 95% target: burn = 0.10 / 0.05 = 2.
        let spec = SloSpec::latency("latency", "llm.request_latency_us", 100_000, 0.95);
        let status = spec.evaluate(&latency_snapshot(100, 10));
        assert!((status.slow_good - 0.90).abs() < 1e-9, "{status:?}");
        assert!((status.slow_burn - 2.0).abs() < 1e-6, "{status:?}");
        assert!((status.budget_remaining + 1.0).abs() < 1e-6, "over budget");
        // The fast window only saw the one good sample.
        assert_eq!(status.fast_events, 1);
        assert!((status.fast_burn).abs() < 1e-9);
        assert_eq!(status.slow_events, 100);
    }

    #[test]
    fn idle_objectives_do_not_burn() {
        let spec = SloSpec::latency("latency", "llm.request_latency_us", 1000, 0.99);
        let status = spec.evaluate(&Snapshot::default());
        assert_eq!((status.fast_events, status.slow_events), (0, 0));
        assert_eq!(status.fast_good, 1.0);
        assert_eq!(status.slow_burn, 0.0);
        assert_eq!(status.budget_remaining, 1.0);
    }

    #[test]
    fn error_rate_counts_good_against_bad() {
        let metrics = MetricsRegistry::new();
        metrics.counter("llm.requests_total").add(98);
        metrics.counter("server.shed_total").add(2);
        let snap = Snapshot::collect(&metrics, None);
        let spec = SloSpec::error_rate(
            "availability",
            "llm.requests_total",
            "server.shed_total",
            0.99,
        );
        let status = spec.evaluate(&snap);
        assert!((status.slow_good - 0.98).abs() < 1e-9);
        assert!((status.slow_burn - 2.0).abs() < 1e-6, "{status:?}");
        assert_eq!(status.slow_events, 100);
    }

    #[test]
    fn statuses_publish_as_milli_gauges() {
        let spec = SloSpec::latency("latency", "llm.request_latency_us", 100_000, 0.95);
        let statuses = evaluate_all(&[spec], &latency_snapshot(100, 10));
        let registry = MetricsRegistry::new();
        publish(&statuses, &registry);
        assert_eq!(registry.gauge("slo.latency.slow_burn_milli").get(), 2000);
        assert_eq!(
            registry.gauge("slo.latency.budget_remaining_milli").get(),
            -1000
        );
        assert_eq!(registry.gauge("slo.latency.fast_good_milli").get(), 1000);
    }

    #[test]
    fn server_defaults_cover_latency_and_availability() {
        let specs = SloSpec::server_defaults(100_000);
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["latency", "availability"]);
        // The merged-fleet evaluation path: merging two replica
        // snapshots then evaluating equals evaluating the union.
        let a = latency_snapshot(50, 5);
        let b = latency_snapshot(50, 5);
        let mut merged = a.clone();
        merged.merge(&b);
        let status = specs[0].evaluate(&merged);
        assert!((status.slow_good - 0.90).abs() < 1e-9);
        assert_eq!(status.slow_events, 100);
    }
}
