//! Transport-attribution integration tests: the eval runner over a
//! fault-injecting HTTP server. The invariants under test — (1) when
//! retries absorb every injected fault, a faulty run scores identically to
//! a fault-free one; (2) residual transport failures land in the
//! `error.transport` bucket and never move any model-failure count;
//! (3) a validation rejection is a model failure, scored the same
//! in-process and over HTTP, with its own failure-taxonomy count.

use nl2vis_baselines::Nl2VisModel;
use nl2vis_corpus::{Corpus, CorpusConfig};
use nl2vis_data::Database;
use nl2vis_eval::failure::FailureTaxonomy;
use nl2vis_eval::runner::{evaluate_llm, evaluate_model, EvalReport, LlmEvalConfig};
use nl2vis_llm::http::{CompletionServer, HttpLlmClient, ServerConfig, Timeouts};
use nl2vis_llm::{
    Fault, FaultInjector, ModelProfile, RetryPolicy, SimLlm, TransportError, TransportErrorKind,
    VALIDATION_REJECTED_STATUS,
};
use nl2vis_obs::MetricsRegistry;
use nl2vis_query::ast::VqlQuery;
use nl2vis_service::{
    service_fn, CompletionService, Layer, MetricsLayer, RetryLayer, RouteLayer, RoutePolicy,
    TraceLayer, ValidateLayer, VqlSyntaxValidator,
};
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> Corpus {
    Corpus::build(&CorpusConfig {
        seed: 61,
        instances_per_domain: 1,
        queries_per_db: 12,
        paraphrases: (2, 3),
    })
}

fn server_with(faults: FaultInjector) -> CompletionServer {
    let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
    CompletionServer::start_with_service_config(
        llm,
        Arc::new(MetricsRegistry::new()),
        faults,
        ServerConfig::default(),
    )
    .expect("server starts")
}

/// The resilient client stack: `Trace(Metrics(Retry(http)))`.
fn resilient(http: HttpLlmClient, policy: RetryPolicy) -> impl CompletionService + Sync {
    TraceLayer::request().layer(MetricsLayer::default().layer(RetryLayer::new(policy).layer(http)))
}

fn client_for(server: &CompletionServer, policy: RetryPolicy) -> impl CompletionService + Sync {
    // A tight read deadline so injected stalls trip it quickly; generous
    // enough that healthy sim completions never do.
    let timeouts = Timeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(500),
        write: Duration::from_secs(2),
    };
    resilient(
        HttpLlmClient::with_timeouts(server.address(), "text-davinci-003", timeouts),
        policy,
    )
}

fn fast_policy(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: attempts,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        jitter_seed: 9,
    }
}

fn key(r: &EvalReport) -> Vec<(usize, bool, bool)> {
    r.results
        .iter()
        .map(|x| (x.id, x.outcome.exact, x.outcome.exec))
        .collect()
}

/// Drops, 500s and deadline-tripping stalls — every fault class at once —
/// must be invisible in the scores when the retry budget covers them: the
/// faulty run completes (no hang) and matches the fault-free run
/// example-for-example.
#[test]
fn recovered_faults_leave_accuracy_identical_to_clean_run() {
    let corpus = fixture();
    let split = corpus.split_cross_domain(1);
    let config = LlmEvalConfig::default();
    let n = 12;

    let clean_server = server_with(FaultInjector::none());
    let clean = client_for(&clean_server, fast_policy(4));
    let r_clean = evaluate_llm(&clean, &corpus, &split.train, &split.test, &config, Some(n));

    let faulty_server = server_with(FaultInjector::script(vec![
        Fault::Drop,
        Fault::Http500,
        Fault::Stall(Duration::from_millis(1200)),
    ]));
    let faulty = client_for(&faulty_server, fast_policy(4));
    let retries_before = nl2vis_obs::global().counter("llm.retries_total").get();
    let r_faulty = evaluate_llm(
        &faulty,
        &corpus,
        &split.train,
        &split.test,
        &config,
        Some(n),
    );

    assert_eq!(faulty_server.faults().injected(), 3, "all faults fired");
    assert!(
        nl2vis_obs::global().counter("llm.retries_total").get() >= retries_before + 3,
        "each injected fault forces at least one retry"
    );
    assert_eq!(
        r_faulty.transport_failures(),
        0,
        "retries absorbed every fault"
    );
    assert_eq!(
        key(&r_clean),
        key(&r_faulty),
        "scores must be fault-invariant"
    );
    assert_eq!(r_clean.overall().exact(), r_faulty.overall().exact());
    assert_eq!(r_clean.overall().exec(), r_faulty.overall().exec());
}

/// A fault that outlives the retry budget becomes a transport failure on
/// exactly that example: it leaves the accuracy denominator and the failure
/// taxonomy, while every other example scores exactly as in the clean run —
/// the model-failure counts do not move.
#[test]
fn unrecovered_fault_is_excluded_without_moving_model_failures() {
    let corpus = fixture();
    let split = corpus.split_cross_domain(1);
    // Sequential (single worker) so the injected fault lands on the first
    // completion request — i.e. the first test example — deterministically.
    let config = LlmEvalConfig {
        workers: Some(1),
        ..Default::default()
    };
    let n = 6;

    let clean_server = server_with(FaultInjector::none());
    let clean = client_for(&clean_server, fast_policy(4));
    let r_clean = evaluate_llm(&clean, &corpus, &split.train, &split.test, &config, Some(n));

    let faulty_server = server_with(FaultInjector::script(vec![Fault::Drop]));
    let faulty = client_for(&faulty_server, RetryPolicy::no_retry());
    let transport_before = nl2vis_obs::global().counter("eval.error.transport").get();
    let r_faulty = evaluate_llm(
        &faulty,
        &corpus,
        &split.train,
        &split.test,
        &config,
        Some(n),
    );

    // Exactly the first example is lost to transport, and it is reported
    // as such — id, message, counter.
    assert_eq!(r_faulty.transport_failures(), 1);
    let lost = r_faulty.transport_failed_ids();
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].0, split.test[0]);
    assert!(lost[0].1.contains("transport error"), "{}", lost[0].1);
    assert!(nl2vis_obs::global().counter("eval.error.transport").get() > transport_before);

    // Every surviving example scores exactly as in the clean run.
    let clean_rest: Vec<_> = key(&r_clean).into_iter().skip(1).collect();
    let faulty_rest: Vec<_> = key(&r_faulty)
        .into_iter()
        .filter(|(id, _, _)| *id != split.test[0])
        .collect();
    assert_eq!(clean_rest, faulty_rest);

    // The denominator shrinks by one; model-failure counts are untouched.
    assert_eq!(r_faulty.overall().n(), r_clean.overall().n() - 1);
    let tax_clean = FailureTaxonomy::from_report(&r_clean);
    let tax_faulty = FailureTaxonomy::from_report(&r_faulty);
    assert_eq!(tax_faulty.transport_failures, 1);
    let first_failed_clean = r_clean.results[0].outcome.failed() as usize;
    assert_eq!(tax_faulty.failures, tax_clean.failures - first_failed_clean);
    assert_eq!(tax_faulty.parse_failures, tax_clean.parse_failures);
}

/// Total outage: every request dropped, retries exhausted everywhere. The
/// run still terminates, scores nothing, blames the model for nothing.
#[test]
fn total_outage_scores_nothing_and_blames_the_model_for_nothing() {
    let corpus = fixture();
    let split = corpus.split_cross_domain(1);
    let config = LlmEvalConfig::default();
    let n = 5;

    let server = server_with(FaultInjector::random(7, 1.0, 0.0, 0.0, Duration::ZERO));
    let client = client_for(&server, fast_policy(2));
    let transport_before = nl2vis_obs::global().counter("eval.error.transport").get();
    let report = evaluate_llm(
        &client,
        &corpus,
        &split.train,
        &split.test,
        &config,
        Some(n),
    );

    assert_eq!(report.results.len(), n);
    assert_eq!(report.transport_failures(), n);
    assert_eq!(report.overall().n(), 0, "nothing enters the denominator");
    assert!(report.failed_ids().is_empty(), "no model failures");
    assert!(
        nl2vis_obs::global().counter("eval.error.transport").get() >= transport_before + n as u64
    );
    let tax = FailureTaxonomy::from_report(&report);
    assert_eq!(tax.failures, 0);
    assert_eq!(tax.parse_failures, 0);
    assert_eq!(tax.transport_failures, n);
    assert!(tax.buckets.is_empty());
    // Every transport row carries the bounded-attempts message.
    for (_, msg) in report.transport_failed_ids() {
        assert!(msg.contains("2 attempt"), "{msg}");
    }
}

/// A budget-capped router whose cheap tier's answers are all rejected and
/// whose budget cannot pay for the strong tier: every request ends in the
/// validation rejection.
fn rejecting_router() -> impl CompletionService + Send + Sync {
    RouteLayer::new(RoutePolicy::BudgetCapped(20))
        .model("tiered")
        .tier(
            "cheap",
            1,
            ValidateLayer::new(VqlSyntaxValidator).layer(service_fn("cheap", |_, _| {
                Ok("I cannot answer.".to_string())
            })),
        )
        .tier("strong", 38, SimLlm::new(ModelProfile::gpt_4(), 3))
        .build()
        .expect("a valid two-tier router")
}

/// A validation rejection is a verdict on the model's answer, not a lost
/// request: the example stays in the accuracy denominator as a failure
/// with no prediction and moves `eval.error.rejected` — in-process, and
/// over HTTP, where the server answers `422` and the retrying client takes
/// it as final after one attempt.
#[test]
fn validation_rejection_is_scored_as_a_model_failure() {
    let corpus = fixture();
    let split = corpus.split_cross_domain(1);
    let config = LlmEvalConfig::default();
    let n = 4;
    let rejected = || nl2vis_obs::global().counter("eval.error.rejected").get();
    let check = |report: &EvalReport| {
        assert_eq!(report.results.len(), n);
        assert_eq!(report.transport_failures(), 0, "a rejection is no outage");
        assert_eq!(report.overall().n(), n, "every rejection is scored");
        assert_eq!(report.failed_ids().len(), n, "...as a failure");
        for r in &report.results {
            assert!(r.outcome.parse_failed && r.completion.is_none(), "{r:?}");
        }
    };

    let before = rejected();
    let in_process = evaluate_llm(
        &rejecting_router(),
        &corpus,
        &split.train,
        &split.test,
        &config,
        Some(n),
    );
    check(&in_process);
    assert_eq!(rejected(), before + n as u64);

    let registry = Arc::new(MetricsRegistry::new());
    let server =
        CompletionServer::start_with_service_registry(rejecting_router(), Arc::clone(&registry))
            .expect("server starts");
    let client = resilient(
        HttpLlmClient::new(server.address(), "tiered"),
        fast_policy(4),
    );
    let before = rejected();
    let over_http = evaluate_llm(
        &client,
        &corpus,
        &split.train,
        &split.test,
        &config,
        Some(n),
    );
    check(&over_http);
    assert_eq!(rejected(), before + n as u64);
    assert_eq!(key(&in_process), key(&over_http));
    assert_eq!(
        registry.counter("llm.requests_total").get(),
        n as u64,
        "the 422 is not retried: one attempt per example"
    );
    assert_eq!(registry.counter("llm.status_422").get(), n as u64);
    assert_eq!(registry.counter("server.backend_errors_total").get(), 0);
}

/// A baseline that never produces a parse.
struct Mute;

impl Nl2VisModel for Mute {
    fn name(&self) -> &str {
        "mute"
    }

    fn predict(&self, _question: &str, _db: &Database) -> Option<VqlQuery> {
        None
    }
}

/// A rejection has its own taxonomy count and is never a parse failure,
/// yet stays a scored failure in every aggregate and agrees with gold on
/// no component. A baseline's missing parse stays a parse failure.
#[test]
fn rejections_get_their_own_taxonomy_count() {
    let corpus = fixture();
    let split = corpus.split_cross_domain(1);
    let n = 10;
    let llm = SimLlm::new(ModelProfile::gpt_4(), 3);
    let service = service_fn("gpt-4", move |prompt: &str, opts: &_| {
        if prompt.len() % 2 == 0 {
            let status = TransportErrorKind::Status(VALIDATION_REJECTED_STATUS);
            Err(TransportError::new(status, 1, "validation rejected"))
        } else {
            llm.call(prompt, opts)
        }
    });
    let report = evaluate_llm(
        &service,
        &corpus,
        &split.train,
        &split.test,
        &LlmEvalConfig::default(),
        Some(n),
    );
    let rejected: Vec<usize> = report
        .results
        .iter()
        .filter(|r| r.outcome.rejected)
        .map(|r| r.id)
        .collect();
    assert!(
        !rejected.is_empty() && rejected.len() < n,
        "some but not all prompts rejected: {rejected:?}"
    );

    let tax = FailureTaxonomy::from_report(&report);
    assert_eq!(tax.rejections, rejected.len());
    let unparseable = report
        .results
        .iter()
        .filter(|r| r.outcome.parse_failed && !r.outcome.rejected)
        .count();
    assert_eq!(
        tax.parse_failures, unparseable,
        "no rejection is a parse failure"
    );
    assert!(tax.failures >= rejected.len());
    let text = tax.to_text();
    assert!(
        text.contains(&format!("rejected: {}", rejected.len())),
        "{text}"
    );

    // Scored, and failed, in every aggregate.
    assert_eq!(report.transport_failures(), 0);
    assert_eq!(report.overall().n(), n);
    let failed = report.failed_ids();
    assert!(rejected.iter().all(|id| failed.contains(id)), "{failed:?}");
    // Dropping the rejected rows leaves every component's agreement count
    // unchanged: a rejection agrees with gold on no component.
    let answered = EvalReport {
        results: report
            .results
            .iter()
            .filter(|r| !r.outcome.rejected)
            .cloned()
            .collect(),
        ..EvalReport::default()
    };
    let agreeing = |r: &EvalReport| -> Vec<usize> {
        let scored = r.results.len() as f64;
        r.component_accuracy()
            .iter()
            .map(|(_, share)| (share * scored).round() as usize)
            .collect()
    };
    assert_eq!(agreeing(&report), agreeing(&answered));

    // A baseline with no parse is a parse failure, not a rejection.
    let baseline = evaluate_model(&Mute, &corpus, &split.test, Some(n));
    let tax = FailureTaxonomy::from_report(&baseline);
    assert_eq!(
        (tax.failures, tax.parse_failures, tax.rejections),
        (n, n, 0)
    );
    assert!(!tax.to_text().contains("rejected"), "{}", tax.to_text());
}
