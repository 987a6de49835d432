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
//! with output the bare model did not produce. One seeded fault plan
//! loses the same examples whether a `FaultLayer` applies it in process
//! or the server applies it on the wire. A validating two-tier router
//! scores the same in-process and hosted, escalations and `422`
//! rejections included, and a cheap tier that only ever answers prose
//! never reaches grading: the hosted router scores exactly what the bare
//! strong model scores.

use nl2vis::corpus::{Corpus, CorpusConfig};
use nl2vis::eval::runner::{evaluate_llm, EvalReport, LlmEvalConfig};
use nl2vis::llm::http::{CompletionServer, HttpLlmClient, ServerConfig, ServerTuning, Timeouts};
use nl2vis::llm::{FaultInjector, GenOptions, ModelProfile, RetryPolicy, SimLlm};
use nl2vis::obs::{self, MetricsRegistry};
use nl2vis::service::{
    service_fn, CompletionService, FaultLayer, Layer, RouteLayer, RoutePolicy, TieredService,
    ValidateLayer, VqlSyntaxValidator,
};
use nl2vis::StackBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Evaluates through the canonical client stack
/// `Trace(Metrics(Cache(Retry(leaf))))` with a 2-attempt retry policy.
fn client_eval<S>(leaf: S, corpus: &Corpus, config: &LlmEvalConfig) -> EvalReport
where
    S: CompletionService + Send + Sync + 'static,
{
    let split = corpus.split_cross_domain(1);
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 5,
    };
    let stack = StackBuilder::over(leaf)
        .retry(policy)
        .cache(256)
        .metrics()
        .trace()
        .build();
    evaluate_llm(
        &stack,
        corpus,
        &split.train,
        &split.test,
        config,
        Some(EXAMPLES),
    )
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
    let http = HttpLlmClient::with_timeouts(server.address(), model, timeouts);
    let report = client_eval(http, corpus, &config());
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

/// A report's rows, each with the head of its transport error —
/// `transport error (<kind>, <n> attempts)` — when the example was lost.
fn rows_and_losses(report: &EvalReport) -> Vec<(Row, Option<String>)> {
    let losses = report.results.iter().map(|r| {
        let error = r.transport_error.as_deref()?;
        Some(
            error
                .split_once("): ")
                .map_or(error, |(head, _)| head)
                .to_string(),
        )
    });
    rows(report).into_iter().zip(losses).collect()
}

/// One fault plan means the same thing at either end of the wire. The
/// seeded drop/500 plan is applied in process by a `FaultLayer` under the
/// client stack, and on the wire by the server under the same client
/// stack: both runs lose the same examples with the same error kind and
/// attempt count, score the rest identically, and draw the same number
/// of times. One eval worker keeps the order of draws fixed.
///
/// The hosted client opens a fresh connection per request. A pooled
/// client re-sends a request once on a fresh connection when its reused
/// socket closes before the first response byte, so an injected `Drop`
/// on a pooled socket is absorbed below the retry layer, which never
/// sees that attempt: with keep-alive on, the same plan loses 1 example
/// and draws 59 times, where the in-process run loses 5 and draws 54.
#[test]
fn one_fault_plan_loses_the_same_examples_in_process_and_hosted() {
    let corpus = Corpus::build(&CorpusConfig::small(23));
    let config = LlmEvalConfig {
        workers: Some(1),
        ..config()
    };
    let plan = || FaultInjector::random(41, 0.2, 0.2, 0.0, Duration::ZERO);

    let layer = FaultLayer::new(plan());
    let local = client_eval(layer.layer(model()), &corpus, &config);

    let server = CompletionServer::start_with_service_config(
        model(),
        Arc::new(MetricsRegistry::new()),
        plan(),
        ServerConfig::default(),
    )
    .expect("server starts");
    let http = HttpLlmClient::new(server.address(), model().model()).without_keep_alive();
    let hosted = client_eval(http, &corpus, &config);

    assert_eq!(rows_and_losses(&hosted), rows_and_losses(&local));
    assert_eq!(server.faults().requests(), layer.faults().requests());
    let lost = local.transport_failures();
    assert!(
        lost > 0 && lost < EXAMPLES,
        "the plan both lost and kept examples: {lost} of {EXAMPLES} lost"
    );
}

/// A validating two-tier router: the cheap tier answers prose for a
/// deterministic third of the prompts and a weaker model's VQL for the
/// rest, behind a syntax gate; the strong tier is the bare model.
fn two_tier(policy: RoutePolicy) -> TieredService {
    let weak = SimLlm::new(ModelProfile::davinci_002(), 17);
    let cheap = service_fn(weak.profile.name, move |prompt: &str, opts: &GenOptions| {
        if prompt.len() % 3 == 0 {
            Ok("I cannot answer that from this schema.".to_string())
        } else {
            weak.call(prompt, opts)
        }
    });
    RouteLayer::new(policy)
        .model("diff-tiered")
        .tier(
            "diff-cheap",
            1,
            ValidateLayer::new(VqlSyntaxValidator).layer(cheap),
        )
        .tier("diff-strong", 10, model())
        .build()
        .expect("a two-tier router")
}

fn cheap_escalations() -> u64 {
    obs::global()
        .counter("route.tier.diff-cheap.escalations_total")
        .get()
}

#[test]
fn a_validating_tier_router_scores_the_same_in_process_and_hosted() {
    let corpus = Corpus::build(&CorpusConfig::small(23));
    let split = corpus.split_cross_domain(1);
    // Cheap-first escalates every rejected cheap answer to the strong tier;
    // a budget of one unit never affords the strong tier, so a rejected
    // cheap answer is the request's final `422`.
    for (policy, escalates) in [
        (RoutePolicy::CheapFirst, true),
        (RoutePolicy::BudgetCapped(1), false),
    ] {
        let before = cheap_escalations();
        let local = evaluate_llm(
            &two_tier(policy),
            &corpus,
            &split.train,
            &split.test,
            &config(),
            Some(EXAMPLES),
        );
        let local_escalations = cheap_escalations() - before;
        let hosted = hosted_eval(
            &corpus,
            two_tier(policy),
            FaultInjector::none(),
            Timeouts::default(),
        );
        let hosted_escalations = cheap_escalations() - before - local_escalations;
        assert_eq!(rows(&hosted.report), rows(&local), "{policy:?}");
        assert_eq!(hosted.report.transport_failures(), 0, "{policy:?}");

        let rejected = local
            .results
            .iter()
            .filter(|r| r.scored() && r.completion.is_none())
            .count() as u64;
        let status_422 = hosted.registry.counter("llm.status_422").get();
        assert_eq!(status_422, rejected, "{policy:?}: one 422 per rejection");
        if escalates {
            assert!(
                local_escalations > 0 && hosted_escalations > 0,
                "cheap-first escalated: {local_escalations} in process, {hosted_escalations} hosted"
            );
            assert_eq!(rejected, 0, "the strong tier answers every escalation");
        } else {
            assert_eq!(local_escalations + hosted_escalations, 0, "{policy:?}");
            assert!(
                rejected > 0 && rejected < EXAMPLES as u64,
                "the budget both rejected and kept examples: {rejected} of {EXAMPLES}"
            );
        }
    }
}

/// The syntax gate keeps every prose answer of a cheap tier out of
/// grading. The cheap tier answers every prompt with prose and counts its
/// calls; cheap-first routing escalates each rejected answer to the strong
/// tier, the bare model. Hosted behind the canonical client stack, the
/// router must score row for row what the bare model scores, after the
/// cheap tier was actually tried.
#[test]
fn a_prose_cheap_tier_never_reaches_grading() {
    let corpus = Corpus::build(&CorpusConfig::small(23));
    let bare = rows(&bare_eval(&corpus));
    let calls = Arc::new(AtomicUsize::new(0));
    let prose = {
        let calls = Arc::clone(&calls);
        service_fn("prose", move |_: &str, _: &GenOptions| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok("I cannot answer that.".to_string())
        })
    };
    let router = RouteLayer::new(RoutePolicy::CheapFirst)
        .model(model().profile.name)
        .tier(
            "prose-cheap",
            1,
            ValidateLayer::new(VqlSyntaxValidator).layer(prose),
        )
        .tier("prose-strong", 10, model())
        .build()
        .expect("a two-tier router");
    let hosted = hosted_eval(&corpus, router, FaultInjector::none(), Timeouts::default());
    assert!(
        calls.load(Ordering::Relaxed) > 0,
        "the cheap tier was tried"
    );
    assert_eq!(
        rows(&hosted.report),
        bare,
        "every graded answer is the strong model's"
    );
}
