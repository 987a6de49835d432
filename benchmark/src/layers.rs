//! Per-layer measurements of the traced run, all taken from outside the
//! program through its public functions.
//!
//! Two kinds exist. Calls that take microseconds are recorded as spans
//! (see [`crate::trace`]): [`decompose`] replays a workload's requests
//! through each stage function in turn, and the probes below record one
//! span per call. Calls that take nanoseconds are timed in batches, since a
//! span would cost as much as the call; those report the median over
//! [`ROUNDS`] batches of the per-call time.

use crate::serve::database_of;
use crate::stats::median;
use crate::trace;
use crate::world::{World, MODEL_SEED};
use nl2vis_baselines::{ModelService, T5Model, T5Size};
use nl2vis_cache::{completion_key, CompletionCache};
use nl2vis_data::Database;
use nl2vis_eval::runner::{evaluate_llm, pick_demos_pooled};
use nl2vis_eval::score_completion;
use nl2vis_llm::http::{CompletionServer, HttpLlmClient};
use nl2vis_llm::prompt_parse::parse_prompt;
use nl2vis_llm::understand::{ground, parse_question};
use nl2vis_llm::{GenOptions, LlmClient, SimLlm};
use nl2vis_obs as obs;
use nl2vis_obs::MetricsRegistry;
use nl2vis_prompt::{build_prompt, PromptFormat};
use nl2vis_query::ast::VqlQuery;
use nl2vis_query::{execute, extract_vql, parse};
use nl2vis_service::{
    service_fn, CompletionService, Layer, MetricsLayer, RetryLayer, RetryPolicy, RouteLayer,
    RoutePolicy, TraceLayer, ValidateLayer, VqlExecValidator,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Batches per nanosecond-scale measurement.
const ROUNDS: usize = 15;
/// Calls per batch of a nanosecond-scale measurement.
const BATCH: usize = 20_000;
/// Calls per batch when a call touches a multi-kilobyte prompt.
const PROMPT_BATCH: usize = 2_000;
/// How long the echo server is driven for its closed-loop rate.
const ECHO_WINDOW: Duration = Duration::from_secs(1);
/// Sequential echo requests timed for the round trip.
const ECHO_RTTS: usize = 2_000;
/// The constant answer of the echo server.
const ECHO_ANSWER: &str = "VISUALIZE bar SELECT name , COUNT(name) FROM t GROUP BY name";

/// One request replayed through the stage functions.
pub struct Step<'a> {
    pub prompt: &'a str,
    /// The answer the request got.
    pub answer: &'a str,
    pub db: &'a Database,
    pub gold: &'a VqlQuery,
}

/// Replays `steps` on two threads, each a `layers.request` holding one span
/// per stage: the simulated model's prompt parse, question understanding,
/// grounding and whole completion; the `t5-base` baseline (when given);
/// VQL extraction, parsing and execution of the answer; and scoring (when
/// `score`).
pub fn decompose(
    steps: &[Step],
    llm: &SimLlm,
    t5: Option<&(dyn CompletionService + Sync)>,
    score: bool,
) {
    let next = AtomicUsize::new(0);
    let opts = GenOptions::default();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let knows = llm.knowledge_gate();
                while let Some(step) = steps.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let _request = trace::enter("layers.request");
                    if let Some(view) =
                        trace::timed("llm.parse_prompt", || parse_prompt(step.prompt))
                    {
                        let intent =
                            trace::timed("llm.understand", || parse_question(&view.question));
                        trace::timed("llm.ground", || ground(&intent, &view.test_schema, &knows));
                    }
                    trace::timed("llm.complete", || llm.complete_with(step.prompt, &opts));
                    if let Some(t5) = t5 {
                        let _ =
                            trace::timed("baselines.t5_predict", || t5.call(step.prompt, &opts));
                    }
                    let answer = step.answer;
                    if let Some(vql) = trace::timed("query.extract", || extract_vql(answer)) {
                        if let Ok(query) = trace::timed("query.parse", || parse(vql)) {
                            let _ = trace::timed("query.exec", || execute(&query, step.db));
                        }
                    }
                    if score {
                        trace::timed("eval.score", || {
                            score_completion(answer, step.gold, step.db)
                        });
                    }
                }
                trace::flush();
            });
        }
    });
}

/// Per request: the whole completion minus its prompt-parse, understanding
/// and grounding stages, in ns.
pub fn generate_ns(spans: &[trace::SpanRec]) -> Vec<f64> {
    let complete = trace::durations_by_request(spans, "llm.complete");
    let stages: Vec<BTreeMap<u64, f64>> = ["llm.parse_prompt", "llm.understand", "llm.ground"]
        .iter()
        .map(|name| trace::durations_by_request(spans, name))
        .collect();
    complete
        .iter()
        .filter(|(req, _)| stages.iter().all(|s| s.contains_key(req)))
        .map(|(req, total)| total - stages.iter().map(|s| s[req]).sum::<f64>())
        .collect()
}

/// Median over [`ROUNDS`] of the per-call time of `f`, in ns.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for i in 0..calls {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut rounds)
}

/// Median over [`ROUNDS`] of the per-call time of `f` when two threads
/// call it at once (each thread's wall time over its own calls, averaged
/// over the two), in ns.
fn per_call_ns_2t(calls: usize, f: impl Fn(usize, usize) + Sync) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let barrier = Barrier::new(2);
            let total: f64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|t| {
                        let (barrier, f) = (&barrier, &f);
                        scope.spawn(move || {
                            barrier.wait();
                            let started = Instant::now();
                            for i in 0..calls {
                                f(t, i);
                            }
                            started.elapsed().as_nanos() as f64 / calls as f64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .sum()
            });
            total / 2.0
        })
        .collect();
    median(&mut rounds)
}

/// The cost one layer adds over a bare `service_fn` leaf, in ns per call:
/// per batch, the layered time minus the bare leaf's, then the median.
fn layer_ns(prompt: &str, bare: &dyn CompletionService, layered: &dyn CompletionService) -> f64 {
    let opts = GenOptions::default();
    let mut deltas: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let time = |s: &dyn CompletionService| {
                let started = Instant::now();
                for _ in 0..PROMPT_BATCH {
                    let _ = black_box(s.call(black_box(prompt), &opts));
                }
                started.elapsed().as_nanos() as f64 / PROMPT_BATCH as f64
            };
            let bare_ns = time(bare);
            time(layered) - bare_ns
        })
        .collect();
    median(&mut deltas)
}

/// Layer probes that run on every workload.
pub struct Probes {
    pub corpus_build_ms: f64,
    pub t5_train_ms: f64,
    /// The last trained model, for the baseline probe.
    pub t5: T5Model,
    pub service_trace_ns: f64,
    pub service_metrics_ns: f64,
    pub service_retry_ns: f64,
    pub service_tier_ns: f64,
    pub cache_key_ns: f64,
    pub cache_hit_ns: f64,
    pub cache_insert_evict_ns: f64,
    pub obs_count_by_name_ns: f64,
    pub obs_count_by_name_2t_ns: f64,
    pub obs_counter_ns: f64,
    pub obs_span_ns: f64,
    pub http_echo_rps: f64,
    /// Echo answers that differed from the constant.
    pub failed: u64,
    pub attempted: u64,
}

/// A minimal prompt carrying the `Database:` and `Q:` markers the baseline
/// adapter and the execution gate read.
pub fn marker_prompt(db: &str, question: &str) -> String {
    format!("Database: {db}\nQ: {question}\nVQL:")
}

impl Probes {
    /// Runs every probe. `prompts` are the workload's prompts; `checks`
    /// pairs a marker prompt with a real answer for the execution gate.
    pub fn run(world: &World, seed: u64, prompts: &[&str], checks: &[(String, String)]) -> Probes {
        let databases = world.databases();
        let mut builds: Vec<f64> = (0..3)
            .map(|_| World::build(seed).corpus_build.as_secs_f64() * 1e3)
            .collect();
        let mut trains = Vec::new();
        let mut t5 = None;
        for _ in 0..3 {
            let started = Instant::now();
            t5 = Some(T5Model::train(
                &world.corpus,
                &world.split.train,
                T5Size::Base,
                MODEL_SEED,
            ));
            trains.push(started.elapsed().as_secs_f64() * 1e3);
        }
        validate_probe(checks, &databases);
        let (service_trace_ns, service_metrics_ns, service_retry_ns, service_tier_ns) =
            service_probe(prompts[0]);
        let (cache_key_ns, cache_hit_ns, cache_insert_evict_ns) = cache_probe(prompts);
        let (http_echo_rps, attempted, failed) = echo_probe(prompts[0]);
        let counter = obs::global().counter("bench.probe.counter_total");
        Probes {
            corpus_build_ms: median(&mut builds),
            t5_train_ms: median(&mut trains),
            t5: t5.expect("three trainings ran"),
            service_trace_ns,
            service_metrics_ns,
            service_retry_ns,
            service_tier_ns,
            cache_key_ns,
            cache_hit_ns,
            cache_insert_evict_ns,
            obs_count_by_name_ns: per_call_ns(BATCH, |_| obs::count("bench.probe.count_total", 1)),
            obs_count_by_name_2t_ns: per_call_ns_2t(BATCH, |_, _| {
                obs::count("bench.probe.count_total", 1)
            }),
            obs_counter_ns: per_call_ns(BATCH, |_| counter.inc()),
            obs_span_ns: per_call_ns(BATCH, |_| drop(obs::Span::enter("bench.probe.span"))),
            http_echo_rps,
            failed,
            attempted,
        }
    }
}

/// `ModelService::call` on the marker prompt of every test example, one
/// `baselines.t5_predict` span each.
pub fn t5_predict_probe(world: &World, t5: &T5Model) {
    let databases = world.databases();
    let service = ModelService::new(t5.clone(), move |name: &str| databases.get(name).cloned());
    let opts = GenOptions::default();
    for &id in &world.split.test {
        let example = world.example(id);
        let prompt = marker_prompt(&example.db, &example.nl);
        let _ = trace::timed("baselines.t5_predict", || service.call(&prompt, &opts));
    }
    trace::flush();
}

/// The execution gate (`ValidateLayer(VqlExecValidator.require_rows())`)
/// over a leaf that returns each check's answer: one
/// `service.validate_exec` span per call, with the leaf as its child span.
fn validate_probe(checks: &[(String, String)], databases: &Arc<BTreeMap<String, Arc<Database>>>) {
    let current = Cell::new(0usize);
    let leaf = service_fn("leaf", |_: &str, _: &GenOptions| {
        let _leaf = trace::enter("service.leaf");
        Ok(checks[current.get()].1.clone())
    });
    let dbs = Arc::clone(databases);
    let gate = VqlExecValidator::new(move |prompt: &str| {
        database_of(prompt).and_then(|name| dbs.get(name).cloned())
    })
    .require_rows();
    let validated = ValidateLayer::new(gate).layer(&leaf);
    let opts = GenOptions::default();
    for (i, (prompt, _)) in checks.iter().enumerate() {
        current.set(i);
        let _ = trace::timed("service.validate_exec", || validated.call(prompt, &opts));
    }
    trace::flush();
}

/// Trace, metrics, retry and tier layers, each alone over a leaf that
/// answers at once.
fn service_probe(prompt: &str) -> (f64, f64, f64, f64) {
    let answer = |_: &str, _: &GenOptions| Ok(String::new());
    let leaf = service_fn("leaf", answer);
    let traced = TraceLayer::request().layer(&leaf);
    let metered = MetricsLayer::default().layer(&leaf);
    let retried = RetryLayer::new(RetryPolicy::default()).layer(&leaf);
    let tiered = RouteLayer::new(RoutePolicy::CheapFirst)
        .tier("leaf", 1, service_fn("leaf", answer))
        .build()
        .expect("a one-tier router conforms");
    (
        layer_ns(prompt, &leaf, &traced),
        layer_ns(prompt, &leaf, &metered),
        layer_ns(prompt, &leaf, &retried),
        layer_ns(prompt, &leaf, &tiered),
    )
}

/// `completion_key` on the workload's prompts; `get` of a resident key and
/// `insert` into a full 64-entry cache, two threads at once.
fn cache_probe(prompts: &[&str]) -> (f64, f64, f64) {
    let opts = GenOptions::default();
    let model = "T5-Base";
    let key_ns = per_call_ns(PROMPT_BATCH, |i| {
        black_box(completion_key(
            model,
            &opts,
            black_box(prompts[i % prompts.len()]),
        ));
    });
    let keys: Vec<String> = prompts
        .iter()
        .map(|p| completion_key(model, &opts, p))
        .collect();
    let resident = CompletionCache::in_memory(4096);
    let hot = &keys[..keys.len().min(64)];
    for k in hot {
        resident.insert(k, ECHO_ANSWER);
    }
    let hit_ns = per_call_ns_2t(BATCH, |t, i| {
        black_box(resident.get(&hot[(i * 2 + t) % hot.len()]));
    });
    let full = CompletionCache::in_memory(crate::serve::CACHE_ENTRIES);
    let fresh: Vec<Vec<String>> = (0..2)
        .map(|t| {
            (0..PROMPT_BATCH)
                .map(|i| format!("{}#{t}/{i}", keys[i % keys.len()]))
                .collect()
        })
        .collect();
    for k in &fresh[0] {
        full.insert(k, ECHO_ANSWER);
    }
    let insert_ns = per_call_ns_2t(PROMPT_BATCH, |t, i| full.insert(&fresh[t][i], ECHO_ANSWER));
    (key_ns, hit_ns, insert_ns)
}

/// A `CompletionServer` hosting a constant `service_fn` leaf, driven with
/// the workload's first prompt: sequential round trips on one connection
/// (one `http.echo` span each), then a closed loop on two connections.
/// Returns the closed-loop rate, the requests sent and those whose answer
/// was wrong or missing.
fn echo_probe(prompt: &str) -> (f64, u64, u64) {
    let server = CompletionServer::start_with_service_registry(
        service_fn(
            "echo",
            |_: &str, _: &GenOptions| Ok(ECHO_ANSWER.to_string()),
        ),
        Arc::new(MetricsRegistry::new()),
    )
    .expect("the echo server starts on a local port");
    let opts = GenOptions::default();
    let failed = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let ask = |client: &HttpLlmClient| {
        sent.fetch_add(1, Ordering::Relaxed);
        if client.try_complete_with(prompt, &opts).ok().as_deref() != Some(ECHO_ANSWER) {
            failed.fetch_add(1, Ordering::Relaxed);
        }
    };
    let client = HttpLlmClient::new(server.address(), "echo");
    for _ in 0..200 {
        ask(&client);
    }
    for _ in 0..ECHO_RTTS {
        trace::timed("http.echo", || ask(&client));
    }
    trace::flush();
    let done = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let client = HttpLlmClient::new(server.address(), "echo");
                while started.elapsed() < ECHO_WINDOW {
                    ask(&client);
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let rps = done.into_inner() as f64 / started.elapsed().as_secs_f64();
    (rps, sent.into_inner(), failed.into_inner())
}

/// The study runner's cost beyond its stages, in µs per example: the wall
/// time of `evaluate_llm` over the first `examples` test examples on two
/// workers, times the workers, per example, minus the same for the four
/// stages it runs per example (selection, prompt build, completion,
/// scoring) called one by one on two threads. The two alternate, twice,
/// after a warm-up, so a drift in machine speed hits both alike.
pub fn runner_overhead_us(
    world: &World,
    llm: &SimLlm,
    format: PromptFormat,
    examples: usize,
) -> f64 {
    let config = World::eval_config(format, 2);
    let split = &world.split;
    let n = examples.min(split.test.len());
    let pool = world.pool();
    let options = World::prompt_options(&config);
    let runner = || {
        let started = Instant::now();
        evaluate_llm(
            llm,
            &world.corpus,
            &split.train,
            &split.test,
            &config,
            Some(n),
        );
        started.elapsed()
    };
    let stages = || {
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while let Some(&id) = split.test[..n].get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let example = world.example(id);
                        let db = world.database(&example.db);
                        let demos = pick_demos_pooled(&pool, example, &config);
                        let prompt = build_prompt(&options, db, &example.nl, &demos, |d| {
                            world.database(&d.db)
                        });
                        if let Ok(completion) = llm.try_complete_with(&prompt.text, &config.gen) {
                            black_box(score_completion(&completion, &example.vql, db));
                        }
                    }
                });
            }
        });
        started.elapsed()
    };
    runner();
    stages();
    let (mut runner_wall, mut stages_wall) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..2 {
        runner_wall += runner();
        stages_wall += stages();
    }
    let per_example_ns = |wall: Duration| wall.as_nanos() as f64 * 2.0 / (2 * n) as f64;
    (per_example_ns(runner_wall) - per_example_ns(stages_wall)) / 1e3
}
