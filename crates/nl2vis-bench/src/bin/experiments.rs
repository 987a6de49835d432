//! The experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p nl2vis-bench --bin experiments --release -- all
//! cargo run -p nl2vis-bench --bin experiments --release -- table3 fig11 --fast
//! cargo run -p nl2vis-bench --bin experiments --release -- all --fast --trace=trace.jsonl
//! cargo run -p nl2vis-bench --bin experiments --release -- transport --fast \
//!     --fault=drop=0.1,500=0.08,stall=0.05,stall_ms=1500,seed=7 --retries=4
//! ```
//!
//! The `transport` experiment serves the model over HTTP twice — cleanly
//! and through a fault-injecting server — and shows that retries keep
//! accuracy identical while residual transport failures land in the
//! `error.transport` bucket. `--fault=<spec>` sets the injected fault rates
//! (see `FaultInjector::parse`), `--retries=<n>` the client attempt budget.
//!
//! The `serving` experiment runs one eval twice through a shared completion
//! cache against a live HTTP server with injected per-request latency: the
//! warm run must match the cold run's scores while serving from memory.
//! `--cache=<capacity>` sets the cache entry budget (default 4096). The
//! cold/warm comparison is also written to `BENCH_serving.json`.
//! `--overload=<threads>` adds an admission-control phase: a burst of that
//! many retrying clients against a tiny bounded server (2 workers, 2-deep
//! queue), reporting the shed rate, recovery, in-flight peak, and p50/p99
//! latency — appended to `BENCH_serving.json` as `overload_*` fields.
//!
//! The `load` experiment runs the `nl2vis-loadgen` harness in both arrival
//! modes (closed-loop, then fixed-rate open-loop with coordinated-omission
//! correction) against a self-hosted server and writes the combined
//! trajectory document to `BENCH_load.json` — the file
//! `scripts/bench_diff` compares across PRs.
//!
//! The `topology` experiment drives the same loadgen harness through the
//! `nl2vis-router` replica router: a single-replica baseline vs a routed
//! 4-replica fleet (prompt-affinity cache sharding must preserve the
//! zipf hit rate) and a hedged-vs-unhedged pair at the fleet topology
//! (hedging at the observed p95 must cut the corrected p99). Its rows
//! merge into `BENCH_load.json` alongside the `load` rows.
//!
//! The `traces` experiment installs the flight recorder, runs a small eval
//! through the full client stack against a fault-injecting server, then
//! pulls `GET /requests` / `GET /trace/<id>` and dumps the slowest and
//! errored span trees — one trace id per example, stitched across the wire.
//!
//! Every phase runs under a `bench.*` span, so the run ends with a
//! telemetry summary table (per-stage latency percentiles plus the
//! pipeline/eval counters accumulated underneath). `--trace=<path>` streams
//! the raw span/counter/error events as JSONL to a file (`-` for stderr).

use nl2vis_bench::experiments;
use nl2vis_bench::ExperimentContext;
use nl2vis_obs as obs;

const ALL: &[&str] = &[
    "table2",
    "fig6",
    "table3",
    "table4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig13",
    "ablations",
    "ext_vega",
    "hardness",
    "transport",
    "serving",
    "routing",
    "traces",
    "load",
    "topology",
];

/// Serializes the serving-path comparison (and, when the run included the
/// `--overload=` phase, its admission-control summary) for
/// `BENCH_serving.json`.
fn serving_json(
    s: &experiments::ServingSummary,
    overload: Option<&experiments::OverloadSummary>,
    cache_capacity: usize,
    fast: bool,
) -> nl2vis_data::Json {
    use nl2vis_data::Json;
    let mut fields = vec![
        ("experiment", Json::String("serving".to_string())),
        (
            "profile",
            Json::String(if fast { "fast" } else { "full" }.to_string()),
        ),
        ("cache_capacity", Json::Number(cache_capacity as f64)),
        ("examples", Json::Number(s.n as f64)),
        ("cold_wall_ms", Json::Number(s.cold_wall_ms)),
        ("warm_wall_ms", Json::Number(s.warm_wall_ms)),
        ("cold_connections", Json::Number(s.cold_connections as f64)),
        ("warm_connections", Json::Number(s.warm_connections as f64)),
        ("warm_hit_rate", Json::Number(s.warm_hit_rate)),
        ("cold_cache_hits", Json::Number(s.cold_hits as f64)),
        ("cold_cache_misses", Json::Number(s.cold_misses as f64)),
        ("warm_cache_hits", Json::Number(s.warm_hits as f64)),
        ("warm_cache_misses", Json::Number(s.warm_misses as f64)),
        ("cold_exact", Json::Number(s.cold.0)),
        ("cold_exec", Json::Number(s.cold.1)),
        ("warm_exact", Json::Number(s.warm.0)),
        ("warm_exec", Json::Number(s.warm.1)),
        ("scores_identical", Json::Bool(s.identical)),
    ];
    if let Some(o) = overload {
        fields.extend([
            ("overload_threads", Json::Number(o.threads as f64)),
            ("overload_requests", Json::Number(o.requests as f64)),
            ("overload_shed_total", Json::Number(o.shed_total as f64)),
            ("overload_shed_rate", Json::Number(o.shed_rate)),
            ("overload_served", Json::Number(o.served as f64)),
            ("overload_recovered", Json::Number(o.recovered as f64)),
            (
                "overload_concurrent_peak",
                Json::Number(o.concurrent_peak as f64),
            ),
            ("overload_pool_size", Json::Number(o.pool_size as f64)),
            ("overload_queue_depth", Json::Number(o.queue_depth as f64)),
            ("overload_p50_ms", Json::Number(o.p50_ms)),
            ("overload_p99_ms", Json::Number(o.p99_ms)),
        ]);
    }
    Json::object(fields)
}

/// Folds another serving-shaped document into the pending
/// `BENCH_serving.json` payload, so `serving routing` in one invocation
/// yields a single file carrying both the cache comparison and the
/// routing policy table.
fn merge_bench_serving(into: &mut Option<nl2vis_data::Json>, doc: nl2vis_data::Json) {
    let Some(existing) = into else {
        *into = Some(doc);
        return;
    };
    if let nl2vis_data::Json::Object(members) = doc {
        for (key, value) in members {
            existing.set(&key, value);
        }
    }
}

/// Serializes the routing policy table for `BENCH_serving.json`.
fn routing_json(rows: &[experiments::RoutingRow]) -> nl2vis_data::Json {
    use nl2vis_data::Json;
    Json::object(vec![
        ("experiment", Json::String("serving".to_string())),
        (
            "routing",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object(vec![
                            ("policy", Json::String(r.policy.clone())),
                            ("exact", Json::Number(r.exact)),
                            ("exec", Json::Number(r.exec)),
                            ("p50_ms", Json::Number(r.p50_ms)),
                            ("p99_ms", Json::Number(r.p99_ms)),
                            ("requests", Json::Number(r.requests as f64)),
                            ("escalations", Json::Number(r.escalations as f64)),
                            (
                                "validation_failures",
                                Json::Number(r.validation_failures as f64),
                            ),
                            ("cost_units", Json::Number(r.cost_units as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Fault spec used by the `transport` experiment when `--fault=` is absent:
/// enough drops, 500s and deadline-tripping stalls to exercise every retry
/// path, deterministic under the fixed seed.
const DEFAULT_FAULT_SPEC: &str = "drop=0.1,500=0.08,stall=0.05,stall_ms=1500,seed=7";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    if let Some(path) = args.iter().find_map(|a| a.strip_prefix("--trace=")) {
        let sink: obs::JsonlSink = if path == "-" {
            obs::JsonlSink::stderr()
        } else {
            match std::fs::File::create(path) {
                Ok(f) => obs::JsonlSink::new(Box::new(f)),
                Err(e) => {
                    eprintln!("cannot open trace file `{path}`: {e}");
                    std::process::exit(2);
                }
            }
        };
        obs::set_sink(std::sync::Arc::new(sink));
    }
    let fault_spec = args
        .iter()
        .find_map(|a| a.strip_prefix("--fault="))
        .unwrap_or(DEFAULT_FAULT_SPEC)
        .to_string();
    if let Err(e) = nl2vis_llm::FaultInjector::parse(&fault_spec) {
        eprintln!("invalid --fault spec: {e}");
        std::process::exit(2);
    }
    let retries: u32 = match args.iter().find_map(|a| a.strip_prefix("--retries=")) {
        None => 4,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid --retries value `{v}`: expected an integer >= 1");
                std::process::exit(2);
            }
        },
    };
    let cache_capacity: usize = match args.iter().find_map(|a| a.strip_prefix("--cache=")) {
        None => 4096,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid --cache value `{v}`: expected an integer >= 1");
                std::process::exit(2);
            }
        },
    };
    let overload: Option<usize> = match args.iter().find_map(|a| a.strip_prefix("--overload=")) {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("invalid --overload value `{v}`: expected an integer >= 1");
                std::process::exit(2);
            }
        },
    };
    let mut requested: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if requested.is_empty() || requested.contains(&"all") {
        requested = ALL.to_vec();
    }
    for r in &requested {
        if !ALL.contains(r) {
            eprintln!("unknown experiment `{r}`; available: all {}", ALL.join(" "));
            std::process::exit(2);
        }
    }

    eprintln!(
        "building corpus ({}) ...",
        if fast { "fast profile" } else { "full profile" }
    );
    let corpus_span = obs::span!("bench.corpus_build");
    let ctx = if fast {
        ExperimentContext::fast()
    } else {
        ExperimentContext::full()
    };
    eprintln!(
        "corpus ready: {} databases, {} examples ({:.1}s)\n",
        ctx.corpus.catalog.len(),
        ctx.corpus.examples.len(),
        corpus_span.elapsed().as_secs_f64()
    );
    drop(corpus_span);

    let mut fig9_done = false;
    let mut bench_load_doc: Option<nl2vis_data::Json> = None;
    let mut bench_serving_doc: Option<nl2vis_data::Json> = None;
    for name in requested {
        let span = obs::span!(format!("bench.{name}"));
        let text = match name {
            "table2" => experiments::table2(&ctx).1,
            "fig6" => experiments::fig6(&ctx).1,
            "table3" => experiments::table3(&ctx).1,
            "table4" => experiments::table4(&ctx).1,
            "fig7" => experiments::fig7(&ctx).1,
            "fig8" => experiments::fig8(&ctx).1,
            "fig9" | "fig10" => {
                if fig9_done {
                    continue;
                }
                fig9_done = true;
                experiments::fig9_fig10(&ctx).1
            }
            "fig11" => experiments::fig11(&ctx).1,
            "fig13" => experiments::fig13(&ctx).1,
            "ablations" => experiments::ablations(&ctx),
            "ext_vega" => experiments::ext_vega(&ctx).1,
            "hardness" => experiments::hardness(&ctx).1,
            "transport" => experiments::transport(&ctx, &fault_spec, retries).1,
            "traces" => experiments::traces(&ctx).1,
            "serving" => {
                let (summary, mut text) = experiments::serving(&ctx, cache_capacity);
                let overload_summary = overload.map(|threads| {
                    let (o, overload_text) = experiments::serving_overload(&ctx, threads);
                    text.push('\n');
                    text.push_str(&overload_text);
                    o
                });
                merge_bench_serving(
                    &mut bench_serving_doc,
                    serving_json(&summary, overload_summary.as_ref(), cache_capacity, fast),
                );
                text
            }
            "routing" => {
                let (rows, text) = experiments::routing(&ctx);
                merge_bench_serving(&mut bench_serving_doc, routing_json(&rows));
                text
            }
            "load" => {
                let (doc, text) = experiments::load(fast);
                if !matches!(doc, nl2vis_data::Json::Null) {
                    nl2vis_loadgen::diff::merge_runs(&mut bench_load_doc, doc);
                }
                text
            }
            "topology" => {
                let (doc, text) = experiments::topology(fast);
                if !matches!(doc, nl2vis_data::Json::Null) {
                    nl2vis_loadgen::diff::merge_runs(&mut bench_load_doc, doc);
                }
                text
            }
            _ => unreachable!("validated above"),
        };
        println!("{text}");
        eprintln!("[{name} took {:.1}s]\n", span.elapsed().as_secs_f64());
    }
    if let Some(doc) = bench_load_doc {
        if let Err(e) = std::fs::write("BENCH_load.json", doc.to_pretty()) {
            eprintln!("cannot write BENCH_load.json: {e}");
        }
    }
    if let Some(doc) = bench_serving_doc {
        if let Err(e) = std::fs::write("BENCH_serving.json", doc.to_pretty()) {
            eprintln!("cannot write BENCH_serving.json: {e}");
        }
    }

    // Everything above recorded into the global registry — the bench.*
    // spans, the eval runner's per-example latencies and worker stats, and
    // any pipeline/llm counters. Close the run with the summary table.
    println!("{}", obs::report::render_summary(obs::global()));
    obs::sink::sink().flush();
}
