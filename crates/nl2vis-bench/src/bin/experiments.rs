//! The experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p nl2vis-bench --bin experiments --release -- all
//! cargo run -p nl2vis-bench --bin experiments --release -- table3 fig11 --fast
//! cargo run -p nl2vis-bench --bin experiments --release -- all --fast --trace=trace.jsonl
//! ```
//!
//! The binary takes experiment names (none or `all` runs every one),
//! `--fast` (the reduced corpus profile) and `--trace=<path>`; any other
//! flag is refused with exit status 2, so a typo never silently runs the
//! default.
//!
//! The `transport` experiment serves the model over HTTP twice — cleanly
//! and through a fault-injecting server — and shows that retries keep
//! accuracy identical while residual transport failures land in the
//! `error.transport` bucket (fault plan `TRANSPORT_FAULT_SPEC`, 4 attempts).
//!
//! The `serving` experiment runs one eval twice through a shared completion
//! cache (4096 entries) against a live HTTP server with injected
//! per-request latency: the warm run must match the cold run's scores
//! while serving from memory. The cold/warm comparison is also written to
//! `BENCH_serving.json`, and the `routing` experiment writes its policy
//! table there too.
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
use nl2vis_data::Json;
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

/// Serializes the serving-path comparison for `BENCH_serving.json`.
fn serving_json(s: &experiments::ServingSummary, fast: bool) -> Json {
    Json::object(vec![
        ("experiment", Json::String("serving".to_string())),
        (
            "profile",
            Json::String(if fast { "fast" } else { "full" }.to_string()),
        ),
        (
            "cache_capacity",
            Json::Number(experiments::SERVING_CACHE_CAPACITY as f64),
        ),
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
    ])
}

/// Folds another serving-shaped document into the pending
/// `BENCH_serving.json` payload: `doc`'s top-level keys replace the
/// payload's. So `serving routing` in one invocation yields a single
/// document carrying both the cache comparison and the routing policy
/// table, and that document replaces only its own keys in the file.
fn merge_bench_serving(into: &mut Option<Json>, doc: Json) {
    let Some(existing) = into else {
        *into = Some(doc);
        return;
    };
    if let Json::Object(members) = doc {
        for (key, value) in members {
            existing.set(&key, value);
        }
    }
}

/// Serializes the routing policy table for `BENCH_serving.json`.
fn routing_json(rows: &[experiments::RoutingRow]) -> Json {
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

fn usage() -> String {
    format!(
        "\
usage: experiments [EXPERIMENT ...] [--fast] [--trace=PATH]
  EXPERIMENT    all (the default) or one of: {}
  --fast        the reduced corpus profile
  --trace=PATH  stream JSONL events to PATH (`-` for stderr)
",
        ALL.join(" ")
    )
}

/// Writes this run's results document to `path`, folded into what the
/// file already holds so that regenerating one experiment keeps another's
/// results: `fold(on_disk, this_run)` is the new content. A file that
/// exists but is not a JSON object is left untouched and reported.
fn save(path: &str, this_run: Json, fold: fn(Json, Json) -> Json) -> Result<(), String> {
    let doc = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => this_run,
        Err(e) => return Err(format!("cannot read {path}: {e}")),
        Ok(text) => match Json::parse(&text) {
            Ok(on_disk @ Json::Object(_)) => fold(on_disk, this_run),
            _ => return Err(format!("{path} is not a JSON object; left it untouched")),
        },
    };
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `BENCH_load.json`: this run's rows go first, so they win a run key the
/// file also has; rows only the file has stay.
fn fold_load(on_disk: Json, this_run: Json) -> Json {
    let mut merged = Some(this_run);
    nl2vis_loadgen::diff::merge_runs(&mut merged, on_disk);
    merged.expect("seeded with this run")
}

/// `BENCH_serving.json`: this run's top-level keys replace the file's.
fn fold_serving(on_disk: Json, this_run: Json) -> Json {
    let mut merged = Some(on_disk);
    merge_bench_serving(&mut merged, this_run);
    merged.expect("seeded with the file")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Refuse unknown flags and experiments before any work (even opening
    // the trace file): a typo that silently fell back to a default would
    // invalidate the run.
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--fast" && !a.starts_with("--trace="))
    {
        eprintln!("unknown flag `{flag}`\n\n{}", usage());
        std::process::exit(2);
    }
    let fast = args.iter().any(|a| a == "--fast");
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
            eprintln!("unknown experiment `{r}`\n\n{}", usage());
            std::process::exit(2);
        }
    }
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
    let mut bench_load_doc: Option<Json> = None;
    let mut bench_serving_doc: Option<Json> = None;
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
            "transport" => experiments::transport(&ctx).1,
            "traces" => experiments::traces(&ctx).1,
            "serving" => {
                let (summary, text) = experiments::serving(&ctx);
                merge_bench_serving(&mut bench_serving_doc, serving_json(&summary, fast));
                text
            }
            "routing" => {
                let (rows, text) = experiments::routing(&ctx);
                merge_bench_serving(&mut bench_serving_doc, routing_json(&rows));
                text
            }
            "load" => {
                let (doc, text) = experiments::load(fast);
                if !matches!(doc, Json::Null) {
                    nl2vis_loadgen::diff::merge_runs(&mut bench_load_doc, doc);
                }
                text
            }
            "topology" => {
                let (doc, text) = experiments::topology(fast);
                if !matches!(doc, Json::Null) {
                    nl2vis_loadgen::diff::merge_runs(&mut bench_load_doc, doc);
                }
                text
            }
            _ => unreachable!("validated above"),
        };
        println!("{text}");
        eprintln!("[{name} took {:.1}s]\n", span.elapsed().as_secs_f64());
    }
    let saved = [
        bench_load_doc.map(|doc| save("BENCH_load.json", doc, fold_load)),
        bench_serving_doc.map(|doc| save("BENCH_serving.json", doc, fold_serving)),
    ];
    let mut save_failed = false;
    for e in saved.into_iter().flatten().filter_map(Result::err) {
        eprintln!("{e}");
        save_failed = true;
    }

    // Everything above recorded into the global registry — the bench.*
    // spans, the eval runner's per-example latencies and worker stats, and
    // any pipeline/llm counters. Close the run with the summary table.
    println!("{}", obs::report::render_summary(obs::global()));
    obs::sink::sink().flush();
    if save_failed {
        std::process::exit(1);
    }
}
