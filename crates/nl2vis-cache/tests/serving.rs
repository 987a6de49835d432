//! Serving-path end-to-end: a cached client driving a real eval run
//! against a live [`CompletionServer`].
//!
//! This is the acceptance surface for the cache: a repeated identical eval
//! must serve (almost) entirely from memory — high hit rate, strictly
//! fewer TCP connections, lower wall-clock — while transport failures
//! (injected 500s, tripped deadlines) never poison the cache.

use nl2vis_cache::{CacheLayer, CompletionCache};
use nl2vis_corpus::{Corpus, CorpusConfig};
use nl2vis_eval::runner::{evaluate_llm, EvalReport, LlmEvalConfig};
use nl2vis_llm::fault::{Fault, FaultInjector};
use nl2vis_llm::http::{CompletionServer, HttpLlmClient, ServerConfig, Timeouts};
use nl2vis_llm::{GenOptions, ModelProfile, SimLlm, TransportErrorKind};
use nl2vis_obs::MetricsRegistry;
use nl2vis_service::{CompletionService, Layer};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn accuracy_key(r: &EvalReport) -> Vec<(usize, bool, bool)> {
    r.results
        .iter()
        .map(|x| (x.id, x.outcome.exact, x.outcome.exec))
        .collect()
}

#[test]
fn repeated_eval_serves_from_cache_with_fewer_connections() {
    let corpus = Corpus::build(&CorpusConfig::small(17));
    let split = corpus.split_cross_domain(1);
    let llm = SimLlm::new(ModelProfile::davinci_003(), 5);
    let registry = Arc::new(MetricsRegistry::new());
    // Every completion pays a small injected stall — a deterministic
    // stand-in for real upstream inference latency, so the cold/warm
    // wall-clock gap cannot drown in measurement noise.
    let server = CompletionServer::start_with_service_config(
        llm,
        Arc::clone(&registry),
        FaultInjector::parse("stall=1.0,stall_ms=3,seed=1").unwrap(),
        ServerConfig::default(),
    )
    .unwrap();
    let cache = Arc::new(CompletionCache::in_memory(4096));
    let client = CacheLayer::with_cache(Arc::clone(&cache))
        .layer(HttpLlmClient::new(server.address(), "text-davinci-003"));
    let config = LlmEvalConfig::default();
    let limit = Some(30);

    let cold_started = Instant::now();
    let cold = evaluate_llm(&client, &corpus, &split.train, &split.test, &config, limit);
    let cold_wall = cold_started.elapsed();
    let cold_conns = registry.counter("server.connections_total").get();
    let cold_stats = cache.stats();

    let warm_started = Instant::now();
    let warm = evaluate_llm(&client, &corpus, &split.train, &split.test, &config, limit);
    let warm_wall = warm_started.elapsed();
    let warm_conns = registry.counter("server.connections_total").get() - cold_conns;
    let stats = cache.stats();

    let n = cold.results.len();
    assert!(n >= 10, "need a meaningful run, got {n} examples");
    assert_eq!(
        accuracy_key(&cold),
        accuracy_key(&warm),
        "a cache hit must reproduce the exact completion, hence the exact score"
    );

    // >= 90% of the warm run's lookups hit.
    let warm_hits = stats.hits - cold_stats.hits;
    let warm_lookups = (stats.hits + stats.misses) - (cold_stats.hits + cold_stats.misses);
    assert!(warm_lookups > 0);
    let warm_hit_rate = warm_hits as f64 / warm_lookups as f64;
    assert!(
        warm_hit_rate >= 0.9,
        "warm hit rate {warm_hit_rate:.3} ({warm_hits}/{warm_lookups})"
    );

    // Strictly fewer TCP connections (typically zero) on the warm run.
    assert!(cold_conns >= 1);
    assert!(
        warm_conns < cold_conns,
        "warm run opened {warm_conns} connections vs {cold_conns} cold"
    );

    // And it is actually faster: the cold run paid >= n * 3 ms of upstream
    // latency that the warm run skipped.
    assert!(
        warm_wall < cold_wall,
        "warm {warm_wall:?} must beat cold {cold_wall:?}"
    );
}

#[test]
fn injected_500_and_timeout_are_never_cached() {
    let llm = SimLlm::new(ModelProfile::davinci_003(), 5);
    let registry = Arc::new(MetricsRegistry::new());
    // Request 1: HTTP 500. Request 2: a stall past the client's read
    // deadline. Request 3 (the retry of the same prompt): clean.
    let server = CompletionServer::start_with_service_config(
        llm,
        Arc::clone(&registry),
        FaultInjector::script(vec![
            Fault::Http500,
            Fault::Stall(Duration::from_millis(600)),
            Fault::None,
            Fault::None,
        ]),
        ServerConfig::default(),
    )
    .unwrap();
    let timeouts = Timeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(200),
        write: Duration::from_secs(2),
    };
    let cache = Arc::new(CompletionCache::in_memory(64));
    let client = CacheLayer::with_cache(Arc::clone(&cache)).layer(HttpLlmClient::with_timeouts(
        server.address(),
        "text-davinci-003",
        timeouts,
    ));
    let prompt = "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question\nVQL:";
    let opts = GenOptions::default();

    // 500 surfaces as a typed status error and caches nothing.
    match client.call(prompt, &opts) {
        Err(e) => assert_eq!(e.kind, TransportErrorKind::Status(500), "{e}"),
        Ok(text) => panic!("the injected 500 must not yield a completion: {text}"),
    }
    assert_eq!(cache.stats().insertions, 0, "an error must never be cached");

    // The tripped deadline surfaces as a timeout and caches nothing.
    match client.call(prompt, &opts) {
        Err(e) => assert_eq!(e.kind, TransportErrorKind::Timeout, "{e}"),
        Ok(text) => panic!("the stalled request must not yield a completion: {text}"),
    }
    assert_eq!(cache.stats().insertions, 0);

    // The same prompt now succeeds — proving the earlier failures were not
    // memoized — and only then becomes cacheable.
    let ok = client.call(prompt, &opts).expect("clean request succeeds");
    assert!(!ok.is_empty());
    assert_eq!(cache.stats().insertions, 1);

    // Fourth call: served from cache, no new upstream completion.
    let upstream_before = registry.counter("llm.requests_total").get();
    let again = client.call(prompt, &opts).unwrap();
    assert_eq!(again, ok);
    assert_eq!(
        registry.counter("llm.requests_total").get(),
        upstream_before,
        "a cache hit must not reach the server"
    );
    assert_eq!(cache.stats().hits, 1);
}
