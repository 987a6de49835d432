//! Regression detection between two `BENCH_load.json` files, and the
//! merge that builds one such file from several load documents.
//!
//! A run's identity is `(threads, rate, replicas, hedge_ms)` (`replicas`
//! defaults to 1 for pre-topology rows, and `hedge_ms` to 0 for rows
//! written before hedging). The diff matches runs by it, and
//! [`merge_runs`] keys rows by it. A metric regresses when it moves past the
//! relative threshold in the bad direction (throughput down, corrected
//! p50/p99 up, shed rate up). Latency comparisons also require a small
//! absolute movement so micro-runs don't flag on scheduler noise.
//!
//! Runs present in only one file are never silently dropped: both sides'
//! unmatched keys are listed in the report, and `--strict` mode treats a
//! baseline run the candidate lacks as a failure — otherwise deleting a
//! topology row would delete its regression coverage with it.

use nl2vis_data::Json;

/// The outcome of comparing two benchmark files.
pub struct DiffReport {
    /// Fixed-width comparison table, one row per matched (metric, run).
    pub table: String,
    /// Human-readable description of each regression found.
    pub regressions: Vec<String>,
    /// Runs present in only one of the files (total across both sides).
    pub unmatched: usize,
    /// Keys of baseline runs the candidate has no counterpart for — lost
    /// coverage; `--strict` fails on these.
    pub unmatched_baseline: Vec<String>,
    /// Keys of candidate runs the baseline has no counterpart for — new
    /// coverage, informational.
    pub unmatched_candidate: Vec<String>,
}

impl DiffReport {
    /// True when no metric crossed the threshold.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// True when clean *and* every baseline run still has a counterpart —
    /// the bar `--strict` holds the candidate to.
    pub fn strict_clean(&self) -> bool {
        self.clean() && self.unmatched_baseline.is_empty()
    }
}

fn runs_of(doc: &Json) -> Vec<&Json> {
    doc.get("runs")
        .and_then(Json::as_array)
        .map(|runs| runs.iter().collect())
        .unwrap_or_default()
}

#[derive(PartialEq, Clone)]
struct RunKey {
    threads: i64,
    rate: String,
    replicas: i64,
    /// Hedge delay of a routed run (0 = unhedged / pre-hedging rows): a
    /// hedged run and an unhedged one at the same topology are different
    /// experiments, never comparable.
    hedge_ms: i64,
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "threads={} rate={}", self.threads, self.rate)?;
        if self.replicas != 1 {
            write!(f, " replicas={}", self.replicas)?;
        }
        if self.hedge_ms != 0 {
            write!(f, " hedge={}ms", self.hedge_ms)?;
        }
        Ok(())
    }
}

fn run_key(run: &Json) -> RunKey {
    RunKey {
        threads: run.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as i64,
        rate: run
            .get("rate")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        replicas: run.get("replicas").and_then(Json::as_f64).unwrap_or(1.0) as i64,
        hedge_ms: run.get("hedge_ms").and_then(Json::as_f64).unwrap_or(0.0) as i64,
    }
}

/// Folds another load-shaped document into the pending `BENCH_load.json`
/// payload. The first document wins the top-level config fields; runs are
/// appended, and a run whose identity (`run_key`, the one the diff
/// matches on) is already present is dropped: first writer wins. So
/// `load topology` in one invocation yields one trajectory file with every
/// distinct run.
pub fn merge_runs(into: &mut Option<Json>, doc: Json) {
    let Some(existing) = into else {
        *into = Some(doc);
        return;
    };
    let mut runs: Vec<Json> = runs_of(existing).into_iter().cloned().collect();
    let have: Vec<RunKey> = runs.iter().map(run_key).collect();
    for run in runs_of(&doc) {
        if !have.contains(&run_key(run)) {
            runs.push(run.clone());
        }
    }
    existing.set("runs", Json::Array(runs));
}

fn number(run: &Json, path: &[&str]) -> Option<f64> {
    let mut node = run;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64()
}

/// Latency below which relative movement is noise, not regression
/// (milliseconds).
const LATENCY_FLOOR_MS: f64 = 0.5;

/// Compares `baseline` against `candidate`, flagging moves beyond
/// `threshold` (relative, e.g. `0.2` = 20%).
pub fn diff(baseline: &Json, candidate: &Json, threshold: f64) -> DiffReport {
    struct Metric {
        label: &'static str,
        path: &'static [&'static str],
        /// +1: bigger is better (throughput); -1: smaller is better.
        direction: f64,
        /// Absolute slack under which movement is ignored.
        floor: f64,
    }
    const METRICS: &[Metric] = &[
        Metric {
            label: "throughput_rps",
            path: &["throughput_rps"],
            direction: 1.0,
            floor: 1.0,
        },
        Metric {
            label: "p50_corrected_ms",
            path: &["latency_ms", "e2e_corrected", "p50_ms"],
            direction: -1.0,
            floor: LATENCY_FLOOR_MS,
        },
        Metric {
            label: "p99_corrected_ms",
            path: &["latency_ms", "e2e_corrected", "p99_ms"],
            direction: -1.0,
            floor: LATENCY_FLOOR_MS,
        },
        Metric {
            label: "shed_rate",
            path: &["shed_rate"],
            direction: -1.0,
            floor: 0.05,
        },
    ];

    let old_runs = runs_of(baseline);
    let new_runs = runs_of(candidate);
    let mut table = format!(
        "{:<9} {:<10} {:<18} {:>12} {:>12} {:>9}  {}\n{}\n",
        "threads",
        "rate",
        "metric",
        "baseline",
        "candidate",
        "change",
        "verdict",
        "-".repeat(86),
    );
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    let mut unmatched_baseline = Vec::new();

    for old in &old_runs {
        let key = run_key(old);
        let Some(new) = new_runs.iter().find(|r| run_key(r) == key) else {
            unmatched_baseline.push(key.to_string());
            continue;
        };
        matched += 1;
        let rate_cell = if key.replicas == 1 {
            key.rate.clone()
        } else {
            format!("{} x{}", key.rate, key.replicas)
        };
        for metric in METRICS {
            let (Some(was), Some(now)) = (number(old, metric.path), number(new, metric.path))
            else {
                continue;
            };
            let change = if was.abs() < 1e-9 {
                if now.abs() < 1e-9 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (now - was) / was
            };
            // A regression moves against the metric's good direction by
            // more than the threshold AND by more than the absolute floor.
            let bad_move = change * metric.direction < -threshold;
            let past_floor = (now - was).abs() > metric.floor;
            let regressed = bad_move && past_floor;
            let verdict = if regressed {
                "REGRESSED"
            } else if change * metric.direction > threshold && past_floor {
                "improved"
            } else {
                "ok"
            };
            let change_text = if change.is_infinite() {
                "new".to_string()
            } else {
                format!("{:+.1}%", change * 100.0)
            };
            table.push_str(&format!(
                "{:<9} {:<10} {:<18} {:>12.3} {:>12.3} {:>9}  {}\n",
                key.threads, rate_cell, metric.label, was, now, change_text, verdict
            ));
            if regressed {
                regressions.push(format!(
                    "{key}: {} {:.3} -> {:.3} ({})",
                    metric.label, was, now, change_text
                ));
            }
        }
    }
    let unmatched_candidate: Vec<String> = new_runs
        .iter()
        .filter(|new| {
            let key = run_key(new);
            !old_runs.iter().any(|old| run_key(old) == key)
        })
        .map(|new| run_key(new).to_string())
        .collect();
    let unmatched = unmatched_baseline.len() + unmatched_candidate.len();
    if matched == 0 {
        table.push_str("(no comparable runs: thread/rate combinations do not overlap)\n");
    }
    DiffReport {
        table,
        regressions,
        unmatched,
        unmatched_baseline,
        unmatched_candidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(threads: i64, rps: f64, p99: f64, shed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"experiment":"load","runs":[{{"threads":{threads},"rate":"open:500",
                "throughput_rps":{rps},"shed_rate":{shed},
                "latency_ms":{{"e2e_corrected":{{"p50_ms":1.0,"p99_ms":{p99}}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn clean_when_metrics_hold() {
        let report = diff(&doc(8, 500.0, 12.0, 0.0), &doc(8, 495.0, 12.5, 0.0), 0.2);
        assert!(report.clean(), "{:?}", report.regressions);
        assert!(report.table.contains("throughput_rps"), "{}", report.table);
        assert!(report.table.contains("ok"), "{}", report.table);
    }

    #[test]
    fn throughput_drop_and_p99_rise_are_flagged() {
        let report = diff(&doc(8, 500.0, 12.0, 0.0), &doc(8, 300.0, 30.0, 0.0), 0.2);
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
        assert!(report.table.contains("REGRESSED"), "{}", report.table);
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("throughput_rps")));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("p99_corrected_ms")));
    }

    #[test]
    fn tiny_absolute_latency_noise_is_not_a_regression() {
        // 0.1ms -> 0.3ms is +200% but under the absolute floor.
        let report = diff(&doc(8, 500.0, 0.1, 0.0), &doc(8, 500.0, 0.3, 0.0), 0.2);
        assert!(report.clean(), "{:?}", report.regressions);
    }

    #[test]
    fn unmatched_runs_are_listed_on_both_sides() {
        let report = diff(&doc(8, 500.0, 12.0, 0.0), &doc(16, 900.0, 20.0, 0.0), 0.2);
        assert!(report.clean());
        assert!(
            !report.strict_clean(),
            "lost baseline coverage must fail strict"
        );
        assert_eq!(report.unmatched, 2);
        assert_eq!(report.unmatched_baseline, vec!["threads=8 rate=open:500"]);
        assert_eq!(report.unmatched_candidate, vec!["threads=16 rate=open:500"]);
        assert!(
            report.table.contains("no comparable runs"),
            "{}",
            report.table
        );
    }

    fn topology_doc(replicas: i64, extra_plain_run: bool) -> Json {
        let plain = if extra_plain_run {
            r#"{"threads":8,"rate":"open:500","throughput_rps":500.0,"shed_rate":0.0,
                "latency_ms":{"e2e_corrected":{"p50_ms":1.0,"p99_ms":12.0}}},"#
        } else {
            ""
        };
        Json::parse(&format!(
            r#"{{"experiment":"load","runs":[{plain}
                {{"threads":8,"rate":"open:500","replicas":{replicas},
                  "throughput_rps":900.0,"shed_rate":0.0,
                  "latency_ms":{{"e2e_corrected":{{"p50_ms":1.0,"p99_ms":6.0}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn new_candidate_rows_do_not_fail_strict() {
        // The candidate gained a topology row the baseline never had.
        let report = diff(&doc(8, 500.0, 12.0, 0.0), &topology_doc(4, true), 0.2);
        assert!(report.strict_clean(), "{:?}", report.unmatched_baseline);
        assert_eq!(
            report.unmatched_candidate,
            vec!["threads=8 rate=open:500 replicas=4"]
        );
    }

    #[test]
    fn replica_count_separates_otherwise_identical_runs() {
        // Same threads/rate but different replica counts: not comparable.
        let report = diff(&doc(8, 500.0, 12.0, 0.0), &topology_doc(4, false), 0.2);
        assert_eq!(report.unmatched, 2);
        assert!(report.clean());
        assert!(!report.strict_clean());
    }

    fn hedge_doc(hedge_ms: i64) -> Json {
        hedge_doc_at(hedge_ms, 900.0)
    }

    fn hedge_doc_at(hedge_ms: i64, rps: f64) -> Json {
        Json::parse(&format!(
            r#"{{"experiment":"load","runs":[{{"threads":8,"rate":"closed","replicas":4,
                "hedge_ms":{hedge_ms},"throughput_rps":{rps},"shed_rate":0.0,
                "latency_ms":{{"e2e_corrected":{{"p50_ms":1.0,"p99_ms":6.0}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn hedge_delay_separates_otherwise_identical_topology_runs() {
        // Same threads/rate/replicas but hedged vs unhedged: different
        // experiments, never compared against each other.
        let report = diff(&hedge_doc(12), &hedge_doc(0), 0.2);
        assert_eq!(report.unmatched, 2);
        assert_eq!(
            report.unmatched_baseline,
            vec!["threads=8 rate=closed replicas=4 hedge=12ms"]
        );
        let report = diff(&hedge_doc(12), &hedge_doc(12), 0.2);
        assert_eq!(report.unmatched, 0);
        assert!(report.strict_clean());
    }

    #[test]
    fn pre_fleet_baselines_match_fleet_era_candidates() {
        // A baseline written before the router/fleet fields existed has
        // no `replicas`, `hedge_ms`, `router`, or `fleet` members. A
        // candidate row from the fleet-era harness carries all of them
        // (with the default topology). The keys must still match, the
        // extra candidate fields must be ignored, and the diff stays
        // clean when the shared metrics hold.
        let old = Json::parse(
            r#"{"experiment":"load","runs":[{"threads":8,"rate":"open:500",
                "throughput_rps":500.0,"shed_rate":0.0,
                "latency_ms":{"e2e_corrected":{"p50_ms":1.0,"p99_ms":12.0}}}]}"#,
        )
        .unwrap();
        let new = Json::parse(
            r#"{"experiment":"load","runs":[{"threads":8,"rate":"open:500",
                "replicas":1,"hedge_ms":0,
                "throughput_rps":505.0,"shed_rate":0.0,
                "latency_ms":{"e2e_corrected":{"p50_ms":1.0,"p99_ms":12.2}},
                "router":{"requests":100,"hedges_fired":3},
                "fleet":{"replicas_ok":1,"slo":[{"name":"latency","fast_burn":0.0}]}}]}"#,
        )
        .unwrap();
        let report = diff(&old, &new, 0.2);
        assert_eq!(report.unmatched, 0, "{:?}", report.unmatched_baseline);
        assert!(report.strict_clean(), "{:?}", report.regressions);
    }

    #[test]
    fn pre_routing_baselines_match_routing_era_candidates() {
        // A baseline written before tiered routing existed has no `tiers`
        // or `route_policy` members anywhere. An *untiered* candidate row
        // from the routing-era harness adds the top-level fields (empty
        // stack, default policy) but no per-run `tiers` object. Keys must
        // still match and the diff stays clean.
        let old = Json::parse(
            r#"{"experiment":"load","runs":[{"threads":8,"rate":"open:500",
                "throughput_rps":500.0,"shed_rate":0.0,
                "latency_ms":{"e2e_corrected":{"p50_ms":1.0,"p99_ms":12.0}}}]}"#,
        )
        .unwrap();
        let new = Json::parse(
            r#"{"experiment":"load","tiers":[],"route_policy":"cheap-first",
                "runs":[{"threads":8,"rate":"open:500","replicas":1,"hedge_ms":0,
                "throughput_rps":505.0,"shed_rate":0.0,
                "latency_ms":{"e2e_corrected":{"p50_ms":1.0,"p99_ms":12.2}}}]}"#,
        )
        .unwrap();
        let report = diff(&old, &new, 0.2);
        assert_eq!(report.unmatched, 0, "{:?}", report.unmatched_baseline);
        assert!(report.strict_clean(), "{:?}", report.regressions);
    }

    #[test]
    fn merge_keeps_runs_that_differ_only_in_hedge_delay() {
        // Same threads, rate and replicas: only the hedge delay tells
        // these rows apart, as it does for the diff.
        let mut merged = None;
        merge_runs(&mut merged, hedge_doc(12));
        merge_runs(&mut merged, hedge_doc(25));
        merge_runs(&mut merged, hedge_doc(0));
        // An identical row collapses: the first writer wins.
        merge_runs(&mut merged, hedge_doc_at(12, 300.0));
        let merged = merged.expect("merged document");
        let runs = runs_of(&merged);
        let keys: Vec<String> = runs.iter().map(|r| run_key(r).to_string()).collect();
        assert_eq!(keys.len(), 3, "{keys:?}");
        assert_eq!(keys[0], "threads=8 rate=closed replicas=4 hedge=12ms");
        assert_eq!(keys[1], "threads=8 rate=closed replicas=4 hedge=25ms");
        assert_eq!(keys[2], "threads=8 rate=closed replicas=4");
        assert_eq!(
            runs[0].get("throughput_rps").and_then(Json::as_f64),
            Some(900.0)
        );
        // Every merged row still matches itself one to one.
        let report = diff(&merged, &merged, 0.2);
        assert_eq!(report.unmatched, 0);
        assert!(report.strict_clean());
    }

    #[test]
    fn shed_rate_increase_is_flagged() {
        let report = diff(&doc(8, 500.0, 12.0, 0.0), &doc(8, 500.0, 12.0, 0.4), 0.2);
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("shed_rate"));
    }
}
