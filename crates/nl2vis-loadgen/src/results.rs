//! `BENCH_load.json` assembly and the human-readable run table.
//!
//! The file is the perf-regression trajectory: every serving-path PR
//! re-runs the harness and `bench_diff` compares the new file against the
//! previous one, so "did p99 move" is a table, not an argument.

use crate::config::{LoadConfig, SEED};
use crate::prompts::ZIPF_THETA;
use crate::runner::RunStats;
use nl2vis_data::Json;
use nl2vis_obs::HistogramSummary;

fn ms(us: f64) -> f64 {
    (us / 1_000.0 * 1_000.0).round() / 1_000.0
}

/// One latency phase as JSON, milliseconds with µs precision.
fn phase_json(s: &HistogramSummary) -> Json {
    Json::object(vec![
        ("count", Json::from(s.count as i64)),
        ("min_ms", Json::Number(ms(s.min as f64))),
        ("max_ms", Json::Number(ms(s.max as f64))),
        ("mean_ms", Json::Number(ms(s.mean()))),
        ("p50_ms", Json::Number(ms(s.p50))),
        ("p95_ms", Json::Number(ms(s.p95))),
        ("p99_ms", Json::Number(ms(s.p99))),
    ])
}

/// One run (one thread count) as a JSON object.
pub fn run_json(run: &RunStats) -> Json {
    let mut fields = vec![
        ("threads", Json::from(run.threads as i64)),
        ("rate", Json::from(run.rate.as_str())),
        ("replicas", Json::from(run.replicas as i64)),
        ("hedge_ms", Json::from(run.hedge_ms as i64)),
        ("duration_s", Json::Number(run.measured.as_secs_f64())),
        ("requests", Json::from(run.sent as i64)),
        ("ok", Json::from(run.ok as i64)),
        ("shed", Json::from(run.shed as i64)),
        ("errors", Json::from(run.errors as i64)),
        ("throughput_rps", Json::Number(run.throughput_rps())),
        ("shed_rate", Json::Number(run.shed_rate())),
        ("cache_hit_rate", Json::Number(run.cache_hit_rate())),
        (
            "latency_ms",
            Json::object(vec![
                ("e2e_corrected", phase_json(&run.e2e_corrected)),
                ("e2e_uncorrected", phase_json(&run.e2e_uncorrected)),
                ("connect", phase_json(&run.connect)),
                ("queue", phase_json(&run.queue)),
                ("serve", phase_json(&run.serve)),
            ]),
        ),
    ];
    if let Some(router) = &run.router {
        fields.push((
            "router",
            Json::object(vec![
                ("requests", Json::from(router.requests as i64)),
                ("shard_hits", Json::from(router.shard_hits as i64)),
                ("hedges_fired", Json::from(router.hedges_fired as i64)),
                ("hedge_wins", Json::from(router.hedge_wins as i64)),
                ("primary_wins", Json::from(router.primary_wins as i64)),
                ("failovers", Json::from(router.failovers as i64)),
                ("penalties", Json::from(router.penalties as i64)),
                (
                    "penalty_deferrals",
                    Json::from(router.penalty_deferrals as i64),
                ),
                ("ejections", Json::from(router.ejections as i64)),
                ("readmissions", Json::from(router.readmissions as i64)),
            ]),
        ));
    }
    if let Some(stats) = &run.server_stats {
        fields.push(("server_stats", stats.clone()));
    }
    Json::object(fields)
}

/// The whole `BENCH_load.json` document.
pub fn bench_json(config: &LoadConfig, runs: &[RunStats]) -> Json {
    Json::object(vec![
        ("experiment", Json::from("load")),
        ("model", Json::from(config.model.as_str())),
        ("rate", Json::from(config.arrival.label().as_str())),
        ("skew", Json::from(format!("zipf:{ZIPF_THETA}").as_str())),
        ("prompts", Json::from(config.prompts as i64)),
        ("cache_capacity", Json::from(config.cache_capacity as i64)),
        ("service_ms", Json::from(config.service_ms as i64)),
        ("replicas", Json::from(config.replicas as i64)),
        ("hedge_ms", Json::from(config.hedge_ms as i64)),
        ("tail_prob", Json::Number(config.tail_prob)),
        ("tail_ms", Json::from(config.tail_ms as i64)),
        ("warmup_s", Json::Number(config.warmup.as_secs_f64())),
        ("duration_s", Json::Number(config.duration.as_secs_f64())),
        ("seed", Json::from(SEED as i64)),
        ("runs", Json::Array(runs.iter().map(run_json).collect())),
    ])
}

/// Fixed-width summary table of the runs, for stdout.
pub fn render_table(runs: &[RunStats]) -> String {
    let mut out = String::from(
        "threads  rate       rps      ok      shed   err  hit%   p50corr  p99corr  p99uncorr\n",
    );
    out.push_str(&"-".repeat(88));
    out.push('\n');
    for run in runs {
        out.push_str(&format!(
            "{:<7}  {:<9}  {:>7.1}  {:>6}  {:>5}  {:>4}  {:>4.0}%  {:>6.1}ms  {:>6.1}ms  {:>7.1}ms\n",
            run.threads,
            run.rate,
            run.throughput_rps(),
            run.ok,
            run.shed,
            run.errors,
            run.cache_hit_rate() * 100.0,
            run.e2e_corrected.p50 / 1_000.0,
            run.e2e_corrected.p99 / 1_000.0,
            run.e2e_uncorrected.p99 / 1_000.0,
        ));
    }
    out
}
