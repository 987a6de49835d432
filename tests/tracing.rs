//! End-to-end trace propagation: one pipeline request through the full
//! client stack (completion cache → retrying client → pooled HTTP client)
//! against a live fault-injecting server must produce ONE trace whose
//! record — fetched back over `GET /trace/<id>` — covers the client's
//! attempts (including the retry), the cache miss, and the server-side
//! handling span. A repeat of the same request is a cache hit that never
//! touches the wire. Plus: the flight recorder's retention contract under
//! overload, and proof that with no sink and no recorder the tracing
//! machinery changes nothing about evaluation results.

use nl2vis::corpus::{Corpus, CorpusConfig};
use nl2vis::data::schema::{ColumnDef, DatabaseSchema, TableDef};
use nl2vis::data::value::DataType;
use nl2vis::data::{Database, Value};
use nl2vis::eval::runner::{evaluate_llm, LlmEvalConfig};
use nl2vis::llm::fault::{Fault, FaultInjector};
use nl2vis::llm::http::{CompletionServer, HttpLlmClient, ServerConfig};
use nl2vis::llm::{ModelProfile, RetryPolicy, SimLlm};
use nl2vis::obs::{self, recorder, FlightRecorder};
use nl2vis::{Pipeline, StackBuilder};
use std::sync::{Arc, Mutex, MutexGuard};

/// The flight recorder is process-global; tests that install (or assert the
/// absence of) one must not interleave.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn shop_db() -> Database {
    let mut s = DatabaseSchema::new("shop", "retail");
    s.tables.push(TableDef::new(
        "sales",
        vec![
            ColumnDef::new("region", DataType::Text),
            ColumnDef::new("amount", DataType::Int),
        ],
    ));
    let mut d = Database::new(s);
    for (r, a) in [("east", 10i64), ("west", 25), ("east", 5), ("north", 40)] {
        d.insert("sales", vec![r.into(), Value::Int(a)]).unwrap();
    }
    d
}

/// One `Connection: close` GET against the server; returns (status, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    nl2vis::llm::wire::get(addr, path, std::time::Duration::from_secs(5)).expect("GET")
}

#[test]
fn one_trace_covers_retry_cache_miss_and_server_handling() {
    let _guard = recorder_lock();
    let flight = Arc::new(FlightRecorder::new(64));
    recorder::install(Arc::clone(&flight));

    // The first completion request is answered with a 500 — a transient
    // fault the retrying client must absorb; everything after is clean.
    let llm = SimLlm::new(ModelProfile::gpt_4(), 7);
    let registry = Arc::new(obs::MetricsRegistry::new());
    let server = CompletionServer::start_with_service_config(
        llm,
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::Http500]),
        ServerConfig::default(),
    )
    .expect("server starts");
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: std::time::Duration::from_millis(1),
        max_backoff: std::time::Duration::from_millis(2),
        jitter_seed: 7,
    };
    let stack = StackBuilder::over(HttpLlmClient::new(server.address(), "gpt-4"))
        .retry(policy)
        .metrics()
        .trace()
        .build();
    let pipeline = Pipeline::with_service(stack).with_completion_cache(64);

    let db = shop_db();
    let question = "Show a bar chart of the total amount for each region.";
    pipeline.run(&db, question).expect("retry absorbs the 500");

    let first = flight
        .recent(16)
        .into_iter()
        .find(|r| r.root == "pipeline.run")
        .expect("the pipeline run was recorded");

    // One trace id covers the whole request: the cache miss, the retrying
    // request span, both HTTP attempts, and the server-side handling —
    // stitched across the wire by the trace headers.
    assert!(first.has_annotation("cache", "miss"), "{first:?}");
    assert!(first.has_annotation("retry", "1"), "{first:?}");
    assert!(first.has_annotation("retry_outcome", "recovered"));
    assert_eq!(
        first.spans_named("llm.attempt").len(),
        2,
        "the 500 attempt and the recovered attempt both belong to the trace"
    );
    let server_spans = first.spans_named("server.handle");
    assert_eq!(server_spans.len(), 2, "both attempts reached the server");
    // The server spans are parented to client-side spans of the same trace.
    let client_ids: Vec<u64> = first
        .spans_named("llm.attempt")
        .iter()
        .map(|s| s.span_id)
        .collect();
    for s in &server_spans {
        let parent = s.parent.expect("server span has an imported parent");
        assert!(
            client_ids.contains(&parent),
            "server span parented outside the client attempts: {s:?}"
        );
    }
    assert!(first.has_annotation("model", "gpt-4"));
    assert!(first.has_annotation("outcome", "ok"));

    // The record is fetchable over the wire, exactly as an operator would.
    let (status, response) = get(server.address(), &format!("/trace/{}", first.trace_id));
    assert_eq!(status, 200, "{response}");
    assert!(response.contains(&format!("\"trace_id\":{}", first.trace_id)));
    assert!(response.contains("\"name\":\"server.handle\""));
    assert!(response.contains("\"name\":\"llm.attempt\""));
    let (status, index) = get(server.address(), "/requests");
    assert_eq!(status, 200, "{index}");
    assert!(index.contains(&format!("\"trace_id\":{}", first.trace_id)));

    // The identical question again: a cache hit that never touches the
    // wire — no server span, no HTTP attempt, a different trace.
    pipeline.run(&db, question).expect("cached run succeeds");
    let second = flight
        .recent(16)
        .into_iter()
        .find(|r| r.root == "pipeline.run" && r.trace_id != first.trace_id)
        .expect("the repeat run was recorded as its own trace");
    assert!(second.has_annotation("cache", "hit"), "{second:?}");
    assert!(
        !second.has_span("server.handle"),
        "a cache hit must not reach the server: {second:?}"
    );
    assert!(!second.has_span("llm.attempt"));

    recorder::disable();
}

#[test]
fn overloaded_recorder_holds_capacity_and_keeps_errored_traces() {
    let _guard = recorder_lock();
    const CAPACITY: usize = 16;
    let flight = Arc::new(FlightRecorder::new(CAPACITY));
    recorder::install(Arc::clone(&flight));

    // 10x capacity of span-driven traces through the global hooks. Each
    // trace opens a varying number of child spans, so consecutive trace
    // ids take varying strides through the global id counter and land on
    // every recorder shard. The first few traces to reach each shard carry
    // an error (the recorder shards by `trace_id % shard_count`, and 16
    // slots spread over 8 shards); everything after is clean — so errored
    // traces are a small minority of the load, arrive earliest, and would
    // all be gone under plain FIFO eviction.
    let total = CAPACITY * 10;
    let mut seen_per_shard = std::collections::HashMap::new();
    let mut errored_sent = 0usize;
    for i in 0..total {
        let root = obs::Span::enter_root("load.request");
        for _ in 0..(i % 3) {
            let _child = obs::span!("load.stage");
        }
        let seen = seen_per_shard.entry(root.trace() % 8).or_insert(0usize);
        *seen += 1;
        if *seen <= 4 {
            errored_sent += 1;
            obs::error("load", "boom", &format!("request {i} failed"));
        }
    }
    assert!(
        errored_sent * 4 <= total,
        "errored traces are a minority of the load: {errored_sent}/{total}"
    );

    assert_eq!(
        flight.len(),
        CAPACITY,
        "under 10x load the recorder holds exactly its configured capacity"
    );
    let retained = flight.recent(CAPACITY);
    let errored = retained.iter().filter(|r| r.error.is_some()).count();
    assert_eq!(
        errored, CAPACITY,
        "the oldest, minority errored traces outlive the clean flood"
    );
    // Errors carry their note, outcome flips, and the JSON surfaces it.
    let sample = retained
        .iter()
        .find(|r| r.error.is_some())
        .expect("an errored trace is retained");
    assert_eq!(sample.outcome(), "error");
    assert!(sample.to_json().contains("\"kind\":\"boom\""));

    recorder::disable();
}

#[test]
fn tracing_machinery_off_changes_nothing_about_eval() {
    let _guard = recorder_lock();
    assert!(
        !recorder::enabled(),
        "this test asserts the uninstrumented path"
    );

    // Two identical eval runs with the NullSink and no recorder: scores,
    // result order, completions — everything except the globally-unique
    // trace ids — must be byte-identical. The tracing machinery may only
    // observe, never perturb.
    let corpus = Corpus::build(&CorpusConfig::small(2024));
    let split = corpus.split_cross_domain(1);
    let config = LlmEvalConfig::default();
    let run = || {
        let llm = SimLlm::new(ModelProfile::davinci_003(), 11);
        evaluate_llm(&llm, &corpus, &split.train, &split.test, &config, Some(24))
    };
    let a = run();
    let b = run();

    let strip_trace_ids = |csv: &str| -> String {
        csv.lines()
            .map(|l| match l.rfind(',') {
                Some(cut) => &l[..cut],
                None => l,
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_trace_ids(&a.to_csv()),
        strip_trace_ids(&b.to_csv()),
        "identical runs must produce byte-identical per-example results"
    );
    assert_eq!(a.overall().exact(), b.overall().exact());
    assert_eq!(a.overall().exec(), b.overall().exec());
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.completion, y.completion);
        // Trace ids are still assigned (spans exist even unobserved) and
        // still unique per example.
        assert_ne!(x.trace_id, 0);
        assert_ne!(x.trace_id, y.trace_id);
    }
}
