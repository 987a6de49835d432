//! Differential check of the serving path against the bare model.
//!
//! One seeded corpus is evaluated twice: through a bare [`SimLlm`], and
//! through the same model hosted by a [`CompletionServer`] behind the
//! canonical client stack `Trace(Metrics(Cache(Retry(HttpLlmClient))))`
//! with two eval workers. Nothing on the wire may change what the model
//! said: every example must match the bare run byte for byte — id,
//! completion, exact, exec — whether the server coalesces requests into
//! batches or serves them one at a time. Under a seeded fault schedule an
//! example may instead be lost to transport (unscored), but never scored
//! with output the bare model did not produce.

use nl2vis::corpus::{Corpus, CorpusConfig};
use nl2vis::eval::runner::{evaluate_llm, EvalReport, LlmEvalConfig};
use nl2vis::llm::http::{CompletionServer, HttpLlmClient, ServerConfig, ServerTuning, Timeouts};
use nl2vis::llm::{FaultInjector, ModelProfile, RetryPolicy, SimLlm};
use nl2vis::obs::MetricsRegistry;
use nl2vis::service::{CompletionService, RouteLayer, RoutePolicy};
use nl2vis::StackBuilder;
use std::sync::Arc;
use std::time::Duration;

/// Examples evaluated per run.
const EXAMPLES: usize = 40;

/// One row of a report as the comparison sees it.
type Row = (usize, Option<String>, bool, bool);

fn rows(report: &EvalReport) -> Vec<Row> {
    report
        .results
        .iter()
        .map(|r| (r.id, r.completion.clone(), r.outcome.exact, r.outcome.exec))
        .collect()
}

fn model() -> SimLlm {
    SimLlm::new(ModelProfile::davinci_003(), 17)
}

fn config() -> LlmEvalConfig {
    LlmEvalConfig {
        shots: 3,
        workers: Some(2),
        ..LlmEvalConfig::default()
    }
}

/// A single server worker that lingers for a second request with the
/// same options: the two eval workers' requests coalesce whenever the
/// hosted service batches.
fn batching_tuning() -> (ServerConfig, ServerTuning) {
    let config = ServerConfig {
        max_inflight: 1,
        ..ServerConfig::default()
    };
    let tuning = ServerTuning {
        batch_window: Duration::from_millis(20),
        batch_max: 2,
        ..ServerTuning::default()
    };
    (config, tuning)
}

/// A hosted run's report plus the server's view of it.
struct Hosted {
    report: EvalReport,
    registry: Arc<MetricsRegistry>,
    faults_injected: u64,
}

/// Evaluates `service`, hosted with `faults`, through the canonical client
/// stack with `timeouts` on two eval workers.
fn hosted_eval<S>(corpus: &Corpus, service: S, faults: FaultInjector, timeouts: Timeouts) -> Hosted
where
    S: CompletionService + Send + Sync + 'static,
{
    let split = corpus.split_cross_domain(1);
    let registry = Arc::new(MetricsRegistry::new());
    let model = service.model().to_string();
    let (server_config, tuning) = batching_tuning();
    let server = CompletionServer::start_with_tuning(
        service,
        Arc::clone(&registry),
        faults,
        server_config,
        tuning,
    )
    .expect("server starts");
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 5,
    };
    let stack = StackBuilder::over(HttpLlmClient::with_timeouts(
        server.address(),
        model,
        timeouts,
    ))
    .retry(policy)
    .cache(256)
    .metrics()
    .trace()
    .build();
    let report = evaluate_llm(
        &stack,
        corpus,
        &split.train,
        &split.test,
        &config(),
        Some(EXAMPLES),
    );
    let faults_injected = server.faults().injected();
    drop(server);
    Hosted {
        report,
        registry,
        faults_injected,
    }
}

fn bare_eval(corpus: &Corpus) -> EvalReport {
    let split = corpus.split_cross_domain(1);
    evaluate_llm(
        &model(),
        corpus,
        &split.train,
        &split.test,
        &config(),
        Some(EXAMPLES),
    )
}

#[test]
fn serving_matches_the_bare_model_batched_and_unbatched() {
    let corpus = Corpus::build(&CorpusConfig::small(23));
    let bare = bare_eval(&corpus);
    assert_eq!(bare.results.len(), EXAMPLES);
    assert_eq!(bare.transport_failures(), 0);

    // The simulated model batches: requests coalesce into shared batches.
    let batched = hosted_eval(&corpus, model(), FaultInjector::none(), Timeouts::default());
    assert_eq!(rows(&batched.report), rows(&bare), "batched serving");
    let registry = &batched.registry;
    assert!(
        registry.counter("server.batch.requests_total").get()
            > registry.counter("server.batch.batches_total").get(),
        "at least one batch coalesced two requests"
    );

    // A tier router does not batch: with the same tuning, every request
    // is served on its own.
    let router = RouteLayer::new(RoutePolicy::CheapFirst)
        .model(model().profile.name)
        .tier("only", 1, model())
        .build()
        .expect("a one-tier router");
    let unbatched = hosted_eval(&corpus, router, FaultInjector::none(), Timeouts::default());
    assert_eq!(rows(&unbatched.report), rows(&bare), "unbatched serving");
    let registry = &unbatched.registry;
    assert_eq!(
        registry.counter("server.batch.requests_total").get(),
        registry.counter("server.batch.batches_total").get(),
        "a non-batching stack is served one request per batch"
    );
}

#[test]
fn faults_lose_examples_but_never_change_scored_output() {
    let corpus = Corpus::build(&CorpusConfig::small(23));
    let bare = rows(&bare_eval(&corpus));
    let faults = FaultInjector::random(41, 0.2, 0.2, 0.05, Duration::from_millis(500));
    // A read deadline under the injected stall, so a stall is a timeout.
    let timeouts = Timeouts {
        read: Duration::from_millis(300),
        ..Timeouts::default()
    };
    let faulty = hosted_eval(&corpus, model(), faults, timeouts);
    assert!(faulty.faults_injected > 0, "the schedule injected faults");
    assert_eq!(faulty.report.results.len(), bare.len());
    let lost = faulty.report.transport_failures();
    assert!(
        lost > 0 && lost < bare.len(),
        "the schedule both lost and kept examples: {lost} of {} lost",
        bare.len()
    );
    for (result, expected) in faulty.report.results.iter().zip(&bare) {
        if result.scored() {
            let got = (
                result.id,
                result.completion.clone(),
                result.outcome.exact,
                result.outcome.exec,
            );
            assert_eq!(&got, expected, "a scored example changed output");
        } else {
            assert_eq!(result.id, expected.0);
            let error = result.transport_error.as_deref().unwrap_or_default();
            assert!(error.contains("transport error"), "{error}");
        }
    }
}
