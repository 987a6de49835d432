//! The nl2vis benchmark: end-to-end metrics of three workloads, or, with
//! `--trace 1`, per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload eval-study --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits with
//! code 1 when any output check failed and 2 on a usage error.

mod eval_study;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod world;

use eval_study::EvalStudy;
use layers::{Probes, Step};
use nl2vis_prompt::PromptFormat;
use report::Outcome;
use serve::{Mode, Serve};
use stats::{backlogged, mean, median, median_p99, peak_rss_mb};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["eval-study", "serve-open", "serve-tiered-cached"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The bound `BENCHMARK.json` sets on `throughput`: `serve-open` is flagged
/// as backlogged when it completes less than this share below its offered
/// rate.
const THROUGHPUT_BOUND: f64 = 0.25;
/// Traced passes of `eval-study` over its split.
const TRACED_EVAL_PASSES: usize = 2;
/// Longest replay of a serving workload's load loop in the traced run.
const TRACED_SERVE_WINDOW: Duration = Duration::from_secs(3);
/// Examples in the runner-overhead probe of the serving workloads.
const RUNNER_PROBE_EXAMPLES: usize = 128;
/// Latency percentiles are taken per window of this length.
const LATENCY_WINDOW: Duration = Duration::from_secs(1);
/// A window with fewer latency samples (the trailing partial one) is
/// skipped; at the workloads' rates a full window holds about 1,000.
const LATENCY_WINDOW_MIN_SAMPLES: usize = 200;
/// Where the traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected all or one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <all|{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&argv));
    }
    let window = Duration::from_secs(args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("eval-study", false) => eval_untraced(args.seed, window),
        ("eval-study", true) => eval_traced(args.seed, window),
        ("serve-open", false) => serve_untraced(Mode::Open, args.seed, window),
        ("serve-open", true) => serve_traced(Mode::Open, args.seed, window),
        ("serve-tiered-cached", false) => serve_untraced(Mode::TieredCached, args.seed, window),
        _ => serve_traced(Mode::TieredCached, args.seed, window),
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print!("{}", outcome.human());
    println!("{}", outcome.json());
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

/// Runs every workload in turn, each in its own process (so peak memory and
/// the program's global metrics stay per workload), with the other
/// arguments unchanged. Returns 0 only when every workload passed.
fn run_all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut worst = 0;
    for workload in WORKLOADS {
        let mut args = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        args[at + 1] = workload.to_string();
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .expect("the benchmark can run itself");
        worst = worst.max(status.code().unwrap_or(1));
    }
    worst
}

/// Sets up `SETUP_REPEATS` times, dropping each set-up before the next,
/// and returns the last with the median set-up time in seconds.
fn repeated_setup<T>(setup: impl Fn() -> T) -> (T, f64) {
    let mut last = None;
    let mut times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            drop(last.take());
            let started = Instant::now();
            last = Some(setup());
            started.elapsed().as_secs_f64()
        })
        .collect();
    (last.expect("at least one set-up"), median(&mut times))
}

fn eval_untraced(seed: u64, window: Duration) -> Outcome {
    let (study, setup_s) = repeated_setup(|| EvalStudy::setup(seed));
    let passes = study.measure(window);
    let (p50, p99, windows) = latency_percentiles(&passes.latency_ns);
    let mut o = Outcome {
        attempted: passes.checked,
        failed: passes.failed,
        ..Outcome::default()
    };
    o.push("setup_s", setup_s, "s");
    o.push("throughput", passes.throughput(), "ops/s");
    o.push("p50_ms", p50 / 1e6, "ms");
    o.push("p99_ms", p99 / 1e6, "ms");
    o.push("exact_acc", passes.exact_acc, "ratio");
    o.push("exec_acc", passes.exec_acc, "ratio");
    o.push("peak_rss_mb", peak_rss_mb(), "MB");
    o.notes.push(format!(
        "{} examples over {:.3} s; {} latency samples in {windows} windows",
        passes.examples,
        passes.wall.as_secs_f64(),
        passes.latency_ns.len()
    ));
    o
}

/// `p50_ms` and `p99_ms` are taken per second of the run, then the median
/// of each over the seconds (see `stats::windowed_p50_p99`).
fn latency_percentiles(samples: &[(Duration, f64)]) -> (f64, f64, usize) {
    stats::windowed_p50_p99(samples, LATENCY_WINDOW, LATENCY_WINDOW_MIN_SAMPLES)
}

fn serve_untraced(mode: Mode, seed: u64, window: Duration) -> Outcome {
    let (serve, setup_s) = repeated_setup(|| Serve::setup(mode, seed, false));
    let load = serve.drive(serve::WARMUP, window, false);
    let (p50, p99, windows) = latency_percentiles(&load.latency_ns);
    let (exact, exec) = load.accuracy(&serve.items);
    let mut o = Outcome {
        attempted: load.attempted(),
        failed: load.failed(),
        ..Outcome::default()
    };
    o.push("setup_s", setup_s, "s");
    o.push("throughput", load.throughput(), "ops/s");
    o.push("p50_ms", p50 / 1e6, "ms");
    o.push("p99_ms", p99 / 1e6, "ms");
    o.push("exact_acc", exact, "ratio");
    o.push("exec_acc", exec, "ratio");
    o.push("peak_rss_mb", peak_rss_mb(), "MB");
    o.notes.push(format!(
        "{} sent, {} ok, {} mismatched, {} shed, {} errors, {} missing; {} latency samples in {windows} windows",
        load.sent,
        load.ok,
        load.mismatches,
        load.shed,
        load.errors,
        load.missing,
        load.latency_ns.len()
    ));
    if mode == Mode::Open {
        let (corrected_p50, corrected_p99) = median_p99(&mut load.corrected_ns.clone());
        let (_, lag_p99) = median_p99(&mut load.lag_ns.clone());
        o.notes.push(format!(
            "from the intended send time: p50 {:.6} ms, p99 {:.6} ms; generator lag p99 {:.6} ms",
            corrected_p50 / 1e6,
            corrected_p99 / 1e6,
            lag_p99 / 1e6
        ));
    }
    if mode == Mode::Open && backlogged(load.throughput(), serve::OPEN_RATE, THROUGHPUT_BOUND) {
        o.notes.push(format!(
            "BACKLOGGED: completed {:.1}/s of {:.1}/s offered",
            load.throughput(),
            serve::OPEN_RATE
        ));
    }
    o
}

/// Span-timed per-layer metrics: `(span name, median metric, p99 metric)`,
/// reported in µs.
const SPAN_METRICS: [(&str, &str, &str); 13] = [
    ("prompt.select", "prompt.select_us", "prompt.select_p99_us"),
    ("prompt.build", "prompt.build_us", "prompt.build_p99_us"),
    (
        "llm.parse_prompt",
        "llm.parse_prompt_us",
        "llm.parse_prompt_p99_us",
    ),
    (
        "llm.understand",
        "llm.understand_us",
        "llm.understand_p99_us",
    ),
    ("llm.ground", "llm.ground_us", "llm.ground_p99_us"),
    ("llm.complete", "llm.complete_us", "llm.complete_p99_us"),
    ("query.extract", "query.extract_us", "query.extract_p99_us"),
    ("query.parse", "query.parse_us", "query.parse_p99_us"),
    ("query.exec", "query.exec_us", "query.exec_p99_us"),
    ("eval.score", "eval.score_us", "eval.score_p99_us"),
    (
        "baselines.t5_predict",
        "baselines.t5_predict_us",
        "baselines.t5_predict_p99_us",
    ),
    ("http.echo", "http.echo_rtt_us", "http.echo_rtt_p99_us"),
    (
        "service.validate_exec",
        "service.validate_exec_us",
        "service.validate_exec_p99_us",
    ),
];

/// What a traced run measured besides the spans and the probes.
struct Traced {
    prompt_bytes: f64,
    runner_overhead_us: f64,
    server: serve::ServerCounters,
    attempts_per_request: f64,
    cache_hit_ratio: f64,
    lag_p99_ms: f64,
    trace_overhead_pct: f64,
}

/// Writes the spans out and reports every per-layer metric.
fn per_layer(
    o: &mut Outcome,
    workload: &str,
    seed: u64,
    spans: &[trace::SpanRec],
    probes: &Probes,
    t: &Traced,
) {
    let path = PathBuf::from(TRACE_DIR).join(format!("trace-{workload}-seed{seed}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => o.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => o
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    let by_name = trace::self_times_by_name(spans);
    o.push("corpus.build_ms", probes.corpus_build_ms, "ms");
    for (span, p50_name, p99_name) in SPAN_METRICS {
        let mut samples = by_name.get(span).cloned().unwrap_or_default();
        if samples.is_empty() {
            o.failed += 1;
            o.notes.push(format!("no `{span}` spans were recorded"));
        }
        let (p50, p99) = median_p99(&mut samples);
        o.push(p50_name, p50 / 1e3, "us");
        o.push(p99_name, p99 / 1e3, "us");
        if span == "llm.complete" {
            let (p50, p99) = median_p99(&mut layers::generate_ns(spans));
            o.push("llm.generate_us", p50 / 1e3, "us");
            o.push("llm.generate_p99_us", p99 / 1e3, "us");
        }
    }
    o.push("prompt.bytes", t.prompt_bytes, "bytes");
    o.push("eval.runner_overhead_us", t.runner_overhead_us, "us");
    o.push("baselines.t5_train_ms", probes.t5_train_ms, "ms");
    o.push("http.echo_rps", probes.http_echo_rps, "1/s");
    o.push("server.avg_batch_size", t.server.avg_batch_size(), "count");
    o.push("server.dedup_ratio", t.server.dedup_ratio(), "ratio");
    o.push("server.shed_total", t.server.shed_total, "count");
    o.push("service.trace_ns", probes.service_trace_ns, "ns");
    o.push("service.metrics_ns", probes.service_metrics_ns, "ns");
    o.push("service.retry_ns", probes.service_retry_ns, "ns");
    o.push("service.tier_ns", probes.service_tier_ns, "ns");
    o.push(
        "route.attempts_per_request",
        t.attempts_per_request,
        "ratio",
    );
    o.push("cache.key_ns", probes.cache_key_ns, "ns");
    o.push("cache.hit_ns", probes.cache_hit_ns, "ns");
    o.push("cache.insert_evict_ns", probes.cache_insert_evict_ns, "ns");
    o.push("cache.hit_ratio", t.cache_hit_ratio, "ratio");
    o.push("obs.count_by_name_ns", probes.obs_count_by_name_ns, "ns");
    o.push(
        "obs.count_by_name_2t_ns",
        probes.obs_count_by_name_2t_ns,
        "ns",
    );
    o.push("obs.counter_ns", probes.obs_counter_ns, "ns");
    o.push("obs.span_ns", probes.obs_span_ns, "ns");
    o.push("driver.lag_p99_ms", t.lag_p99_ms, "ms");
    o.push("bench.trace_overhead_pct", t.trace_overhead_pct, "%");
    o.attempted += probes.attempted;
    o.failed += probes.failed;
}

fn eval_traced(seed: u64, window: Duration) -> Outcome {
    let study = EvalStudy::setup(seed);
    let passes = study.measure(window);
    let (plain_wall, plain_requests, plain_failed, _) = study.compose(TRACED_EVAL_PASSES, false);
    let (wall, requests, traced_failed, texts) = study.compose(TRACED_EVAL_PASSES, true);

    let world = &study.world;
    let tests: Vec<_> = world
        .split
        .test
        .iter()
        .map(|&id| world.example(id))
        .collect();
    let steps: Vec<Step> = tests
        .iter()
        .zip(&texts)
        .map(|(e, (prompt, completion))| Step {
            prompt,
            answer: completion,
            db: world.database(&e.db),
            gold: &e.vql,
        })
        .collect();
    layers::decompose(&steps, &study.llm, None, false);
    let checks: Vec<(String, String)> = tests
        .iter()
        .zip(&texts)
        .map(|(e, (_, completion))| (layers::marker_prompt(&e.db, &e.nl), completion.clone()))
        .collect();
    let prompts: Vec<&str> = texts.iter().map(|(p, _)| p.as_str()).collect();
    let probes = Probes::run(world, seed, &prompts, &checks);
    layers::t5_predict_probe(world, &probes.t5);
    let t = Traced {
        prompt_bytes: mean(&prompts.iter().map(|p| p.len() as f64).collect::<Vec<_>>()),
        runner_overhead_us: layers::runner_overhead_us(
            world,
            &study.llm,
            PromptFormat::Table2Sql,
            world.split.test.len(),
        ),
        server: serve::ServerCounters::default(),
        attempts_per_request: 0.0,
        cache_hit_ratio: 0.0,
        lag_p99_ms: median_p99(&mut passes.gap_ns.clone()).1 / 1e6,
        // The same composition with and without spans, over the same
        // examples.
        trace_overhead_pct: 100.0 * (wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0),
    };
    let mut o = Outcome {
        attempted: passes.checked + plain_requests + requests,
        failed: passes.failed + plain_failed + traced_failed,
        ..Outcome::default()
    };
    per_layer(&mut o, "eval-study", seed, &trace::take(), &probes, &t);
    o
}

fn serve_traced(mode: Mode, seed: u64, window: Duration) -> Outcome {
    let serve = Serve::setup(mode, seed, true);
    let workload = match mode {
        Mode::Open => "serve-open",
        Mode::TieredCached => "serve-tiered-cached",
    };
    let route_before = nl2vis_obs::global()
        .counter("route.tier.requests_total")
        .get();
    let cache_before = serve.cache.as_ref().map(|c| c.stats());
    let counters_before = serve.server_counters();
    let load = serve.drive(serve::WARMUP, window, false);
    let counters_after = serve.server_counters();
    let route_after = nl2vis_obs::global()
        .counter("route.tier.requests_total")
        .get();
    let cache_hit_ratio = match (&serve.cache, cache_before) {
        (Some(cache), Some(before)) => {
            let after = cache.stats();
            let hits = (after.hits - before.hits) as f64;
            hits / (hits + (after.misses - before.misses) as f64).max(1.0)
        }
        _ => 0.0,
    };
    let mut o = Outcome {
        attempted: load.attempted(),
        failed: load.failed(),
        ..Outcome::default()
    };
    let server = match (counters_before, counters_after) {
        (Ok(before), Ok(after)) => after.since(&before),
        (Err(e), _) | (_, Err(e)) => {
            o.failed += 1;
            o.notes.push(format!("server counters unavailable: {e}"));
            serve::ServerCounters::default()
        }
    };

    // The workload's own load loop replayed from its first request twice,
    // back to back: without spans, then with a span per request.
    let replay_window = TRACED_SERVE_WINDOW.min(window);
    let plain = serve.drive(Duration::ZERO, replay_window, false);
    let replay = serve.drive(Duration::ZERO, replay_window, true);
    o.attempted += plain.attempted() + replay.attempted();
    o.failed += plain.failed() + replay.failed();
    let trace_overhead_pct = match mode {
        // Same offered schedule: compare the time each request took.
        Mode::Open => 100.0 * (mean_latency(&replay) / mean_latency(&plain) - 1.0),
        // Same closed loop: compare the wall time per request.
        Mode::TieredCached => 100.0 * (plain.throughput() / replay.throughput() - 1.0),
    };

    let steps: Vec<Step> = serve
        .items
        .iter()
        .map(|item| {
            let e = serve.world.example(item.example);
            Step {
                prompt: &item.prompt,
                answer: &item.expected,
                db: serve.world.database(&e.db),
                gold: &e.vql,
            }
        })
        .collect();
    let t5_service = serve.t5.as_ref().map(|t5| {
        let dbs = serve.databases.clone();
        nl2vis_baselines::ModelService::new(t5.clone(), move |name: &str| dbs.get(name).cloned())
    });
    layers::decompose(
        &steps,
        &serve.llm,
        t5_service
            .as_ref()
            .map(|s| s as &(dyn nl2vis_service::CompletionService + Sync)),
        true,
    );
    let checks: Vec<(String, String)> = serve
        .items
        .iter()
        .map(|item| {
            let e = serve.world.example(item.example);
            (layers::marker_prompt(&e.db, &e.nl), item.expected.clone())
        })
        .collect();
    let prompts: Vec<&str> = serve.items.iter().map(|i| i.prompt.as_str()).collect();
    let probes = Probes::run(&serve.world, seed, &prompts, &checks);
    if serve.t5.is_none() {
        layers::t5_predict_probe(&serve.world, &probes.t5);
    }
    let format = match mode {
        Mode::Open => PromptFormat::Table2Sql,
        Mode::TieredCached => PromptFormat::ColumnListFkValue,
    };
    let mut lag = load.lag_ns.clone();
    let t = Traced {
        prompt_bytes: mean(&prompts.iter().map(|p| p.len() as f64).collect::<Vec<_>>()),
        runner_overhead_us: layers::runner_overhead_us(
            &serve.world,
            &serve.llm,
            format,
            RUNNER_PROBE_EXAMPLES,
        ),
        server,
        attempts_per_request: if mode == Mode::TieredCached {
            (route_after - route_before) as f64 / load.sent.max(1) as f64
        } else {
            0.0
        },
        cache_hit_ratio,
        lag_p99_ms: median_p99(&mut lag).1 / 1e6,
        trace_overhead_pct,
    };
    per_layer(&mut o, workload, seed, &trace::take(), &probes, &t);
    o
}

fn mean_latency(load: &serve::Load) -> f64 {
    mean(
        &load
            .latency_ns
            .iter()
            .map(|&(_, ns)| ns)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&args(&[
            "--workload",
            "serve-open",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-open", 7, 3, true)
        );
        assert!(parse_args(&args(&["--workload", "all"])).is_ok());
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "eval-study", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "eval-study", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
    }

    #[test]
    fn per_layer_metric_names_are_valid() {
        for (span, p50, p99) in SPAN_METRICS {
            assert!(stats::valid_metric_name(span));
            assert!(stats::valid_metric_name(p50));
            assert!(stats::valid_metric_name(p99));
        }
    }
}
