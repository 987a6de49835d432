//! Layer-ordering invariants of the completion stack.
//!
//! The serving stack composes as `Trace(Metrics(Cache(Retry(leaf))))`, and
//! three properties make that order load-bearing: a retried-then-recovered
//! request is cached exactly once, a transport failure is *never*
//! memoized, and one trace id spans every layer including the failed
//! attempt. Plus the non-regression contract: the metric-name surface of
//! the pre-layer wrapper structs is byte-identical.

use nl2vis::cache::{completion_key, CacheLayer, CompletionCache};
use nl2vis::llm::fault::{Fault, FaultInjector};
use nl2vis::llm::http::{CompletionServer, HttpLlmClient, ServerConfig};
use nl2vis::llm::{GenOptions, ModelProfile, RetryPolicy, SimLlm};
use nl2vis::obs::{self, recorder, FlightRecorder};
use nl2vis::pipeline::StackBuilder;
use nl2vis::service::{
    service_fn, stack_of, validate_stack, CompletionService, FaultLayer, Layer, RetryLayer,
    RouteLayer, RoutePolicy, TransportError, TransportErrorKind, ValidateLayer, VqlSyntaxValidator,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The flight recorder and the global metrics registry are process-global;
/// tests reading either must not interleave.
fn global_observability_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fast_policy(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        jitter_seed: 7,
    }
}

fn prompt(i: usize) -> String {
    format!("-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question {i}\nVQL:")
}

/// A retry that recovers mid-request must populate the cache exactly once
/// — with the recovered completion, not the failed attempt.
#[test]
fn recovered_retry_is_cached_exactly_once() {
    let _guard = global_observability_lock();
    let upstream_calls = Arc::new(AtomicUsize::new(0));
    let calls = Arc::clone(&upstream_calls);
    let leaf = service_fn("scripted", move |p, _| {
        calls.fetch_add(1, Ordering::SeqCst);
        Ok(format!("Visualize BAR -- {p}"))
    });
    // The fault layer sits between retry and the leaf: attempt 1 of the
    // first request dies with a 500 before reaching the upstream.
    let faulted = FaultLayer::new(FaultInjector::script(vec![Fault::Http500])).layer(leaf);
    let cache = Arc::new(CompletionCache::in_memory(16));
    let stack = StackBuilder::over(faulted)
        .retry(fast_policy(3))
        .shared_cache(Arc::clone(&cache))
        .build();
    assert_eq!(stack_of(&stack), vec!["cache", "retry", "fault", "fn"]);

    let opts = GenOptions::default();
    let first = stack
        .call("question A", &opts)
        .expect("retry absorbs the 500");
    assert_eq!(
        upstream_calls.load(Ordering::SeqCst),
        1,
        "the injected failure never reached the upstream; the recovery did"
    );
    assert_eq!(cache.stats().insertions, 1, "one request, one cache entry");
    assert_eq!(cache.stats().misses, 1);

    let second = stack.call("question A", &opts).expect("repeat is served");
    assert_eq!(first, second);
    assert_eq!(
        upstream_calls.load(Ordering::SeqCst),
        1,
        "the repeat is a cache hit, not a new upstream call"
    );
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().insertions, 1, "hits never re-insert");
}

/// Failures must never be memoized — in the canonical order, and even in
/// the misordered stack that `validate_stack` exists to reject.
#[test]
fn failures_are_never_memoized_in_either_order() {
    let _guard = global_observability_lock();
    let make_dead_leaf = |calls: Arc<AtomicUsize>| {
        service_fn("dead", move |_p, _| -> Result<String, TransportError> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(TransportError::new(
                TransportErrorKind::Status(500),
                1,
                "http 500: injected",
            ))
        })
    };

    // Canonical order: Cache(Retry(leaf)). The retry budget is spent per
    // request; the error reaches the cache once and is not stored.
    let calls = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(CompletionCache::in_memory(16));
    let stack = StackBuilder::over(make_dead_leaf(Arc::clone(&calls)))
        .retry(fast_policy(2))
        .shared_cache(Arc::clone(&cache))
        .build();
    let opts = GenOptions::default();
    for round in 1..=2 {
        let err = stack.call("q", &opts).expect_err("the leaf always fails");
        assert_eq!(err.kind, TransportErrorKind::Status(500));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2 * round,
            "round {round} re-ran the full retry budget — nothing was memoized"
        );
    }
    assert_eq!(cache.stats().insertions, 0, "errors never enter the cache");
    assert_eq!(cache.stats().hits, 0);

    // Misordered stack: Retry(Cache(leaf)), composed by hand since the
    // typestate builder refuses to. The ordering contract flags it...
    let calls = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(CompletionCache::in_memory(16));
    let misordered = RetryLayer::new(fast_policy(2)).layer(
        CacheLayer::with_cache(Arc::clone(&cache)).layer(make_dead_leaf(Arc::clone(&calls))),
    );
    let tags = stack_of(&misordered);
    assert_eq!(tags, vec!["retry", "cache", "fn"]);
    let violation = validate_stack(&tags).expect_err("cache inside retry is a contract violation");
    assert!(violation.contains("cache sits inside retry"), "{violation}");

    // ... and even misordered, the never-memoize-errors property holds:
    // every attempt goes through the cache as a fresh miss.
    let err = misordered.call("q", &opts).expect_err("still dead");
    assert_eq!(err.kind, TransportErrorKind::Status(500));
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    assert_eq!(cache.stats().insertions, 0);
    assert_eq!(
        cache.stats().misses,
        2,
        "the misordered cache pays one lookup per *attempt* — the pathology the contract bans"
    );
}

/// One request through the full builder stack against a live server: every
/// layer's spans and annotations — including the failed attempt and the
/// server-side handling — share one trace.
#[test]
fn one_trace_spans_every_layer_and_the_retried_attempt() {
    let _guard = global_observability_lock();
    let flight = Arc::new(FlightRecorder::new(64));
    recorder::install(Arc::clone(&flight));

    let registry = Arc::new(obs::MetricsRegistry::new());
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 7),
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::Http500]),
        ServerConfig::default(),
    )
    .expect("server starts");
    let stack = StackBuilder::over(HttpLlmClient::new(server.address(), "gpt-4"))
        .retry(fast_policy(3))
        .cache(16)
        .metrics()
        .trace()
        .build();
    assert_eq!(
        stack_of(&stack),
        vec!["trace", "metrics", "cache", "retry", "http"]
    );

    stack
        .call(&prompt(1), &GenOptions::default())
        .expect("retry absorbs the injected 500");

    let record = flight
        .recent(16)
        .into_iter()
        .find(|r| r.root == "llm.request")
        .expect("the request span was recorded as a trace root");
    assert!(record.has_annotation("cache", "miss"), "{record:?}");
    assert!(record.has_annotation("retry", "1"), "{record:?}");
    assert!(record.has_annotation("retry_outcome", "recovered"));
    let attempts = record.spans_named("llm.attempt");
    assert_eq!(
        attempts.len(),
        2,
        "the 500 and the recovery share the trace"
    );
    let handled = record.spans_named("server.handle");
    assert_eq!(handled.len(), 2, "both attempts reached the server");
    let attempt_ids: Vec<u64> = attempts.iter().map(|s| s.span_id).collect();
    for span in &handled {
        let parent = span.parent.expect("server spans import the client parent");
        assert!(
            attempt_ids.contains(&parent),
            "server span parented outside the client attempts: {span:?}"
        );
    }
    assert_eq!(record.spans_named("cache.lookup").len(), 1);

    recorder::disable();
}

/// The non-regression contract: the composition the pre-layer wrapper
/// structs used — a cache over `Trace(Metrics(Retry(http)))` — touches
/// exactly the metric names it touched before the middleware rewrite —
/// dashboards and the eval runner read these by name.
#[test]
fn shim_path_metric_names_are_byte_identical() {
    let _guard = global_observability_lock();
    let names_before: std::collections::BTreeMap<String, u64> = obs::global()
        .counters()
        .into_iter()
        .chain(
            obs::global()
                .histograms()
                .into_iter()
                .map(|(name, summary)| (name, summary.count)),
        )
        .collect();

    // Scenario 1: a 500-then-clean request through the full stack, then
    // the identical request again (a cache hit).
    let registry = Arc::new(obs::MetricsRegistry::new());
    let server = CompletionServer::start_with_service_config(
        SimLlm::new(ModelProfile::gpt_4(), 7),
        Arc::clone(&registry),
        FaultInjector::script(vec![Fault::Http500]),
        ServerConfig::default(),
    )
    .expect("server starts");
    let resilient = |http: HttpLlmClient, policy: RetryPolicy| {
        StackBuilder::over(http)
            .retry(policy)
            .metrics()
            .trace()
            .build()
    };
    let client = CacheLayer::new(64).layer(resilient(
        HttpLlmClient::new(server.address(), "gpt-4"),
        fast_policy(3),
    ));
    assert_eq!(
        stack_of(&client),
        vec!["cache", "trace", "metrics", "retry", "http"]
    );
    let opts = GenOptions::default();
    client
        .call(&prompt(1), &opts)
        .expect("retry absorbs the 500");
    client
        .call(&prompt(1), &opts)
        .expect("repeat is a cache hit");
    drop(server); // joins the workers, so server-side spans are closed

    // Scenario 2: a dead endpoint without retries — the error-attribution
    // counters.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let dead = resilient(
        HttpLlmClient::new(dead_addr, "gpt-4"),
        RetryPolicy::no_retry(),
    );
    dead.call(&prompt(2), &opts)
        .expect_err("nobody listens there");

    let names_after: std::collections::BTreeMap<String, u64> = obs::global()
        .counters()
        .into_iter()
        .chain(
            obs::global()
                .histograms()
                .into_iter()
                .map(|(name, summary)| (name, summary.count)),
        )
        .collect();
    let mut touched: Vec<&str> = names_after
        .iter()
        .filter(|(name, value)| names_before.get(*name) != Some(value))
        .map(|(name, _)| name.as_str())
        .collect();
    touched.sort_unstable();

    // The golden surface, unchanged since the concrete-wrapper era. A new
    // name appearing here is a dashboard-breaking change; treat any edit
    // to this list as a compatibility decision, not a test fix.
    assert_eq!(
        touched,
        vec![
            "cache.hits",
            "cache.insertions",
            "cache.lookup.duration_us",
            "cache.misses",
            "http.conn_reused",
            "http.connections_opened",
            "llm.attempt.duration_us",
            "llm.error.transport",
            "llm.errors_total",
            "llm.request.duration_us",
            "llm.retries_total",
            "llm.retry_success_total",
            "server.handle.duration_us",
        ],
        "the serving path's metric-name surface drifted"
    );
}

/// A syntactically valid completion the tests route to the strong tier.
fn good_vql() -> &'static str {
    "VQL: VISUALIZE bar SELECT name , COUNT(name) FROM t"
}

/// A two-tier escalating stack: a prose-only cheap tier behind the syntax
/// gate, and a clean strong tier. `bad_calls`/`strong_calls` count leaf
/// invocations.
fn escalating_stack(
    bad_calls: Arc<AtomicUsize>,
    strong_calls: Arc<AtomicUsize>,
) -> impl CompletionService {
    let bad = service_fn("bad", move |_p, _| {
        bad_calls.fetch_add(1, Ordering::SeqCst);
        Ok("I cannot answer that.".to_string())
    });
    let strong = service_fn("strong", move |_p, _| {
        strong_calls.fetch_add(1, Ordering::SeqCst);
        Ok(good_vql().to_string())
    });
    RouteLayer::new(RoutePolicy::CheapFirst)
        .model("tiered")
        .tier("bad", 1, ValidateLayer::new(VqlSyntaxValidator).layer(bad))
        .tier("strong", 38, strong)
        .build()
        .expect("two-tier stack conforms")
}

/// The routing era's addition to the metric-name surface: one escalated
/// request touches exactly these `route.*` names. Like the serving golden
/// list above, an edit here is a dashboard-compatibility decision.
#[test]
fn route_metric_surface_is_the_golden_set() {
    let _guard = global_observability_lock();
    let names_before: std::collections::BTreeMap<String, u64> = obs::global()
        .counters()
        .into_iter()
        .chain(
            obs::global()
                .histograms()
                .into_iter()
                .map(|(name, summary)| (name, summary.count)),
        )
        .collect();

    let stack = escalating_stack(Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let out = stack
        .call(&prompt(10), &GenOptions::default())
        .expect("the strong tier answers");
    assert_eq!(out, good_vql());

    let names_after: std::collections::BTreeMap<String, u64> = obs::global()
        .counters()
        .into_iter()
        .chain(
            obs::global()
                .histograms()
                .into_iter()
                .map(|(name, summary)| (name, summary.count)),
        )
        .collect();
    let mut touched: Vec<&str> = names_after
        .iter()
        .filter(|(name, value)| {
            name.starts_with("route.") && names_before.get(*name) != Some(value)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    touched.sort_unstable();
    assert_eq!(
        touched,
        vec![
            "route.cost_units",
            "route.error.validation",
            "route.errors_total",
            "route.request.duration_us",
            "route.tier.bad.duration_us",
            "route.tier.bad.escalations_total",
            "route.tier.bad.requests_total",
            "route.tier.escalations_total",
            "route.tier.requests_total",
            "route.tier.strong.duration_us",
            "route.tier.strong.requests_total",
            "route.tier.validation_failures_total",
        ],
        "the routing metric-name surface drifted"
    );
}

/// Escalation correctness, part 1: a cheap-tier answer the gate rejected
/// is never returned to the caller and never memoized — even when each
/// tier carries its own cache over a *shared* store. The escalated answer
/// lands under the strong tier's completion key only.
#[test]
fn validation_failed_cheap_answer_is_never_returned_or_cached() {
    let _guard = global_observability_lock();
    let bad_calls = Arc::new(AtomicUsize::new(0));
    let strong_calls = Arc::new(AtomicUsize::new(0));
    let shared = Arc::new(CompletionCache::in_memory(32));

    let bad = {
        let calls = Arc::clone(&bad_calls);
        service_fn("bad", move |_p, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok("I cannot answer that.".to_string())
        })
    };
    let strong = {
        let calls = Arc::clone(&strong_calls);
        service_fn("strong", move |_p, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(good_vql().to_string())
        })
    };
    // Per-tier stacks: Cached(Validate(leaf)) — the cache sits *outside*
    // the gate, so a rejected completion surfaces as an error and the
    // never-memoize-errors property keeps it out of the store.
    let stack = RouteLayer::new(RoutePolicy::CheapFirst)
        .model("tiered")
        .tier(
            "bad",
            1,
            CacheLayer::with_cache(Arc::clone(&shared))
                .layer(ValidateLayer::new(VqlSyntaxValidator).layer(bad)),
        )
        .tier(
            "strong",
            38,
            CacheLayer::with_cache(Arc::clone(&shared)).layer(strong),
        )
        .build()
        .expect("cached tiers conform");

    let opts = GenOptions::default();
    let p = prompt(11);
    let first = stack.call(&p, &opts).expect("escalation succeeds");
    assert_eq!(
        first,
        good_vql(),
        "the rejected prose never reaches the caller"
    );
    assert_eq!(
        shared.len(),
        1,
        "exactly one entry: the escalated answer under the strong tier's key"
    );
    assert!(
        shared.get(&completion_key("strong", &opts, &p)).is_some(),
        "the escalated answer is keyed by the tier that produced it"
    );
    assert!(
        shared.get(&completion_key("bad", &opts, &p)).is_none(),
        "the validation-failed answer was memoized"
    );

    // The repeat: the cheap tier's cache misses again (errors are not
    // memoized), the gate rejects again, and the strong tier serves its
    // cached answer without re-invoking the leaf.
    let second = stack.call(&p, &opts).expect("repeat escalation succeeds");
    assert_eq!(second, good_vql());
    assert_eq!(
        bad_calls.load(Ordering::SeqCst),
        2,
        "rejections never memoize"
    );
    assert_eq!(
        strong_calls.load(Ordering::SeqCst),
        1,
        "the escalated answer is served from cache on the repeat"
    );
}

/// Escalation correctness, part 2: a transport failure at the cheap tier
/// escalates rather than surfacing, and when *every* tier fails the
/// caller sees the error — the router never fabricates model output.
#[test]
fn transport_failure_is_never_scored_as_model_output() {
    let _guard = global_observability_lock();
    let dead = |model: &'static str| {
        service_fn(model, move |_p, _| -> Result<String, TransportError> {
            Err(TransportError::new(
                TransportErrorKind::Timeout,
                1,
                format!("{model}: injected timeout"),
            ))
        })
    };

    // Cheap tier times out; the strong tier's answer is what the caller
    // gets, byte for byte.
    let strong_calls = Arc::new(AtomicUsize::new(0));
    let strong = {
        let calls = Arc::clone(&strong_calls);
        service_fn("strong", move |_p, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(good_vql().to_string())
        })
    };
    let stack = RouteLayer::new(RoutePolicy::CheapFirst)
        .model("tiered")
        .tier("dead-cheap", 1, dead("dead-cheap"))
        .tier("strong", 38, strong)
        .build()
        .expect("stack conforms");
    let out = stack
        .call(&prompt(12), &GenOptions::default())
        .expect("the strong tier rescues the timeout");
    assert_eq!(out, good_vql());
    assert_eq!(strong_calls.load(Ordering::SeqCst), 1);

    // Both tiers fail: the call is an error, not an empty or placeholder
    // completion a scorer could mistake for output.
    let all_dead = RouteLayer::new(RoutePolicy::CheapFirst)
        .model("tiered")
        .tier("dead-cheap", 1, dead("dead-cheap"))
        .tier("dead-strong", 38, dead("dead-strong"))
        .build()
        .expect("stack conforms");
    let err = all_dead
        .call(&prompt(12), &GenOptions::default())
        .expect_err("no tier answered");
    assert_eq!(err.kind, TransportErrorKind::Timeout);
    assert!(err.to_string().contains("dead-strong"), "{err}");
}
