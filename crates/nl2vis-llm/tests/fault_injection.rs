//! Fault-injection integration tests for the HTTP transport: a
//! deterministic misbehaving server ([`FaultInjector`]) against the
//! deadline-bearing client and the retry policy. Everything runs offline
//! over loopback.

use nl2vis_llm::http::{CompletionServer, HttpError, HttpLlmClient, ServerConfig, Timeouts};
use nl2vis_llm::{
    Fault, FaultInjector, GenOptions, ModelProfile, RetryPolicy, SimLlm, TransportErrorKind,
};
use nl2vis_obs::MetricsRegistry;
use nl2vis_service::{CompletionService, Layer, MetricsLayer, RetryLayer, TraceLayer};
use std::sync::Arc;
use std::time::Duration;

const PROMPT: &str = "-- Test:\n-- Database:\nDatabase: d\nt = [ a , b ]\nQ: question\nVQL:";

fn tight_timeouts() -> Timeouts {
    Timeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(150),
        write: Duration::from_secs(2),
    }
}

fn fast_policy(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        jitter_seed: 11,
    }
}

/// The resilient client stack: `Trace(Metrics(Retry(http)))` with tight
/// deadlines on the leaf.
fn resilient(
    server: &CompletionServer,
    model: &str,
    policy: RetryPolicy,
) -> impl CompletionService {
    let http = HttpLlmClient::with_timeouts(server.address(), model, tight_timeouts());
    TraceLayer::request().layer(MetricsLayer::default().layer(RetryLayer::new(policy).layer(http)))
}

fn server_with(faults: FaultInjector) -> (CompletionServer, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let llm = SimLlm::new(ModelProfile::davinci_003(), 1);
    let server = CompletionServer::start_with_service_config(
        llm,
        Arc::clone(&registry),
        faults,
        ServerConfig::default(),
    )
    .expect("server starts");
    (server, registry)
}

#[test]
fn stalled_server_trips_the_client_read_deadline() {
    let (server, _registry) = server_with(FaultInjector::script(vec![Fault::Stall(
        Duration::from_millis(800),
    )]));
    let client =
        HttpLlmClient::with_timeouts(server.address(), "text-davinci-003", tight_timeouts());
    match client.complete_http(PROMPT) {
        Err(HttpError::Timeout(_)) => {}
        other => panic!("expected a read timeout, got {other:?}"),
    }
    // The stall was consumed by request 0; the transport itself is healthy.
    let ok = client.complete_http(PROMPT).expect("second request clean");
    assert!(!ok.is_empty());
}

#[test]
fn injected_drop_then_success_is_recovered_by_retry() {
    let (server, registry) = server_with(FaultInjector::script(vec![Fault::Drop]));
    let direct = SimLlm::new(ModelProfile::davinci_003(), 1);
    let client = resilient(&server, "text-davinci-003", fast_policy(3));
    let retries_before = nl2vis_obs::global().counter("llm.retries_total").get();
    let out = client
        .call(PROMPT, &GenOptions::default())
        .expect("retry recovers");
    assert_eq!(out, direct.complete(PROMPT), "recovered output is lossless");
    assert!(
        nl2vis_obs::global().counter("llm.retries_total").get() > retries_before,
        "the recovery must be visible on llm.retries_total"
    );
    assert_eq!(registry.counter("server.fault.drop").get(), 1);
    assert_eq!(server.faults().injected(), 1);
}

#[test]
fn stall_timeout_then_success_is_recovered_by_retry() {
    let (server, _registry) = server_with(FaultInjector::script(vec![Fault::Stall(
        Duration::from_millis(800),
    )]));
    let client = resilient(&server, "text-davinci-003", fast_policy(3));
    let out = client
        .call(PROMPT, &GenOptions::default())
        .expect("retry after timeout");
    assert!(!out.is_empty());
}

#[test]
fn persistent_500_exhausts_bounded_attempts_with_typed_error() {
    // Every request answers 500: the client must stop after its budget and
    // return the typed error — never a scoreable string.
    let (server, registry) = server_with(FaultInjector::random(3, 0.0, 1.0, 0.0, Duration::ZERO));
    let client = resilient(&server, "text-davinci-003", fast_policy(3));
    let err = client.call(PROMPT, &GenOptions::default()).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Status(500));
    assert_eq!(err.attempts, 3, "bounded attempts: {err}");
    assert_eq!(
        server.faults().requests(),
        3,
        "each attempt reached the server"
    );
    assert_eq!(registry.counter("server.fault.http500").get(), 3);
}

#[test]
fn semantic_400_is_not_retried() {
    // Wrong model name: a deterministic rejection. Retrying would return
    // the same 400 forever, so the policy must give up after one attempt.
    let (server, _registry) = server_with(FaultInjector::none());
    let client = resilient(&server, "gpt-4", fast_policy(5));
    let err = client.call(PROMPT, &GenOptions::default()).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Status(400));
    assert_eq!(err.attempts, 1, "semantic failures burn one attempt: {err}");
    assert_eq!(server.faults().requests(), 1);
}

#[test]
fn fault_free_injector_is_transparent() {
    let (server, registry) = server_with(FaultInjector::none());
    let direct = SimLlm::new(ModelProfile::davinci_003(), 1);
    let client = HttpLlmClient::new(server.address(), "text-davinci-003");
    for _ in 0..3 {
        assert_eq!(
            client.complete_http(PROMPT).unwrap(),
            direct.complete(PROMPT)
        );
    }
    assert_eq!(registry.counter("server.faults_injected_total").get(), 0);
    assert_eq!(registry.counter("llm.requests_total").get(), 3);
}

#[test]
fn a_lone_faulted_completion_counts_one_batch_and_no_invocation() {
    // A dequeue group is one batch of its size whatever its members draw;
    // `invocations_total` counts only calls that reached the service.
    for (fault, kind) in [
        (Fault::Http500, TransportErrorKind::Status(500)),
        (Fault::Drop, TransportErrorKind::ConnectionClosed),
    ] {
        let (server, registry) = server_with(FaultInjector::script(vec![fault]));
        let client = HttpLlmClient::new(server.address(), "text-davinci-003");
        let err = client.complete_http(PROMPT).unwrap_err();
        assert_eq!(err.transport_kind(), kind, "{fault:?}: {err}");
        drop(server);
        let counter = |name: &str| registry.counter(name).get();
        assert_eq!(counter("server.batch.batches_total"), 1, "{fault:?}");
        assert_eq!(counter("server.batch.requests_total"), 1, "{fault:?}");
        assert_eq!(registry.histogram("server.batch.size").count(), 1);
        assert_eq!(counter("server.batch.invocations_total"), 0, "{fault:?}");
        assert_eq!(counter(&format!("server.fault.{}", fault.label())), 1);
    }
}
