//! The evaluation driver: runs a model (simulated LLM or trained baseline)
//! over a test split and aggregates the paper's metrics, with join/non-join
//! and hardness breakdowns. Evaluation parallelizes across examples with
//! scoped threads.

use crate::metrics::{score_completion, score_query, Accuracy, EvalOutcome};
use nl2vis_baselines::Nl2VisModel;
use nl2vis_corpus::{Corpus, Example, Hardness};
use nl2vis_llm::{CompletionService, GenOptions, TransportErrorKind, VALIDATION_REJECTED_STATUS};
use nl2vis_obs as obs;
use nl2vis_prompt::select::DemoPool;
use nl2vis_prompt::{build_prompt, AnswerFormat, PromptFormat, PromptOptions};
use nl2vis_query::component::Component;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Demonstration-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Top-k by Jaccard similarity over the whole pool (the default).
    Similarity,
    /// All k from the single most relevant database (Fig. 8's same-DB rows).
    SameDatabase,
    /// `dbs × per_db` from distinct databases (Fig. 8's grid).
    Grouped {
        /// Number of distinct databases (A).
        dbs: usize,
        /// Examples per database (B).
        per_db: usize,
    },
}

/// Configuration of one LLM evaluation run.
#[derive(Debug, Clone)]
pub struct LlmEvalConfig {
    /// Table serialization format.
    pub format: PromptFormat,
    /// Requested output formalism (VQL or direct Vega-Lite).
    pub answer: AnswerFormat,
    /// Requested demonstration count (k-shot).
    pub shots: usize,
    /// Demonstration selection policy.
    pub selection: Selection,
    /// Prompt token budget (defaults to the model's window).
    pub token_budget: usize,
    /// Chain-of-thought prompting.
    pub chain_of_thought: bool,
    /// Role-play persona.
    pub role_play: bool,
    /// Generation options forwarded to the model.
    pub gen: GenOptions,
    /// Worker-thread cap for parallel evaluation. `None` uses the machine's
    /// available parallelism, capped at 8 (the historical default).
    pub workers: Option<usize>,
}

impl Default for LlmEvalConfig {
    fn default() -> LlmEvalConfig {
        LlmEvalConfig {
            format: PromptFormat::Table2Sql,
            answer: AnswerFormat::Vql,
            shots: 1,
            selection: Selection::Similarity,
            token_budget: 4096,
            chain_of_thought: false,
            role_play: false,
            gen: GenOptions::default(),
            workers: None,
        }
    }
}

/// Result of one evaluated example.
#[derive(Debug, Clone)]
pub struct ExampleResult {
    /// Corpus example id.
    pub id: usize,
    /// Scoring outcome.
    pub outcome: EvalOutcome,
    /// Join scenario?
    pub is_join: bool,
    /// nvBench hardness.
    pub hardness: Hardness,
    /// The raw completion (LLM runs) for failure inspection.
    pub completion: Option<String>,
    /// Set when the transport failed and no completion ever existed. Such
    /// rows are *infrastructure* failures: they are excluded from every
    /// accuracy aggregate and from the failure taxonomy (attributing them
    /// to the model would silently corrupt both, since the model said
    /// nothing), and surface instead through
    /// [`EvalReport::transport_failures`] and the `eval.error.transport`
    /// counter. A validation rejection (status 422: the stack refused the
    /// model's answer) is not one of these — it is scored as a failed
    /// example with no prediction and counted on `eval.error.rejected`.
    pub transport_error: Option<String>,
    /// Trace id of the example's `eval.example` span (0 when the example
    /// was scored without tracing). Joins this row against JSONL sink
    /// events and the flight recorder's `GET /trace/<id>` record.
    pub trace_id: u64,
}

impl ExampleResult {
    /// Whether this example produced a scoreable completion.
    pub fn scored(&self) -> bool {
        self.transport_error.is_none()
    }
}

/// Throughput of one evaluation worker thread.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Examples the worker processed.
    pub examples: usize,
    /// Wall-clock time the worker ran.
    pub elapsed: std::time::Duration,
}

impl WorkerStats {
    /// Examples per second (0 for an instantaneous batch).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.examples as f64 / secs
        }
    }
}

/// An aggregated evaluation report.
#[derive(Debug, Clone, Default)]
pub struct EvalReport {
    /// Per-example results.
    pub results: Vec<ExampleResult>,
    /// Examples dropped because a worker panicked while scoring them (also
    /// counted on the `eval.worker_panics` metric). The rest of the report
    /// stays valid — a panic no longer poisons the whole run.
    pub worker_panics: usize,
    /// Per-worker throughput of the parallel evaluation.
    pub worker_stats: Vec<WorkerStats>,
}

impl EvalReport {
    /// Overall accuracy.
    pub fn overall(&self) -> Accuracy {
        self.accuracy(|_| true)
    }

    /// Accuracy over join scenarios.
    pub fn join(&self) -> Accuracy {
        self.accuracy(|r| r.is_join)
    }

    /// Accuracy over non-join scenarios.
    pub fn non_join(&self) -> Accuracy {
        self.accuracy(|r| !r.is_join)
    }

    /// Accuracy over one hardness level.
    pub fn by_hardness(&self, h: Hardness) -> Accuracy {
        self.accuracy(|r| r.hardness == h)
    }

    /// Accuracy over a filtered subset. Transport-failed examples never
    /// enter the accumulator — neither numerator nor denominator — because
    /// no model output exists to score (the VisEval attribution rule).
    pub fn accuracy<F: Fn(&ExampleResult) -> bool>(&self, keep: F) -> Accuracy {
        let mut acc = Accuracy::default();
        for r in self.results.iter().filter(|r| r.scored() && keep(r)) {
            acc.record(&r.outcome);
        }
        acc
    }

    /// Ids of failed examples (neither exact nor execution accurate).
    /// Transport failures are not model failures and are listed by
    /// [`EvalReport::transport_failed_ids`] instead.
    pub fn failed_ids(&self) -> Vec<usize> {
        self.results
            .iter()
            .filter(|r| r.scored() && r.outcome.failed())
            .map(|r| r.id)
            .collect()
    }

    /// Number of examples whose transport failed (never scored).
    pub fn transport_failures(&self) -> usize {
        self.results.iter().filter(|r| !r.scored()).count()
    }

    /// Ids of examples whose transport failed, with the failure message.
    pub fn transport_failed_ids(&self) -> Vec<(usize, String)> {
        self.results
            .iter()
            .filter_map(|r| r.transport_error.as_ref().map(|e| (r.id, e.clone())))
            .collect()
    }

    /// Exports per-example results as CSV (id, hardness, join, exact, exec,
    /// wrong components, trace id) for external analysis. The `trace_id`
    /// column joins failed rows against JSONL sink events and flight
    /// recorder records.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<Vec<String>> = vec![vec![
            "id".into(),
            "hardness".into(),
            "is_join".into(),
            "exact".into(),
            "exec".into(),
            "parse_failed".into(),
            "wrong_components".into(),
            "transport_failed".into(),
            "trace_id".into(),
        ]];
        for r in &self.results {
            rows.push(vec![
                r.id.to_string(),
                r.hardness.label().to_string(),
                r.is_join.to_string(),
                r.outcome.exact.to_string(),
                r.outcome.exec.to_string(),
                r.outcome.parse_failed.to_string(),
                r.outcome
                    .components_wrong
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(";"),
                (!r.scored()).to_string(),
                r.trace_id.to_string(),
            ]);
        }
        nl2vis_data::csv::write_rows(&rows)
    }

    /// Component accuracy (the paper's third metric): the share of
    /// predictions agreeing with gold on each query component. Unparseable
    /// outputs count as disagreeing on every component; transport failures
    /// are excluded outright (no prediction exists).
    pub fn component_accuracy(&self) -> Vec<(Component, f64)> {
        let n = self.results.iter().filter(|r| r.scored()).count().max(1) as f64;
        Component::all()
            .into_iter()
            .map(|c| {
                let agree = self
                    .results
                    .iter()
                    .filter(|r| {
                        r.scored()
                            && !r.outcome.parse_failed
                            && !r.outcome.components_wrong.contains(&c)
                    })
                    .count() as f64;
                (c, agree / n)
            })
            .collect()
    }

    /// Counts of wrong components across failures.
    pub fn component_failures(&self) -> Vec<(Component, usize)> {
        let mut counts: Vec<(Component, usize)> =
            Component::all().into_iter().map(|c| (c, 0)).collect();
        for r in self
            .results
            .iter()
            .filter(|r| r.scored() && r.outcome.failed())
        {
            for c in &r.outcome.components_wrong {
                if let Some(slot) = counts.iter_mut().find(|(cc, _)| cc == c) {
                    slot.1 += 1;
                }
            }
        }
        counts
    }
}

/// The demonstration pool over the training ids that exist in `corpus`.
pub fn demo_pool<'a>(corpus: &'a Corpus, train_ids: &[usize]) -> DemoPool<'a> {
    let candidates: Vec<&Example> = train_ids
        .iter()
        .filter_map(|id| corpus.example(*id))
        .collect();
    DemoPool::new(&candidates)
}

/// Builds the demonstration list using a precomputed [`DemoPool`].
pub fn pick_demos_pooled<'a>(
    pool: &DemoPool<'a>,
    test: &Example,
    config: &LlmEvalConfig,
) -> Vec<&'a Example> {
    match config.selection {
        Selection::Similarity => pool.select_similar(&test.nl, config.shots, test.id),
        Selection::SameDatabase => pool.select_same_db(&test.nl, config.shots, test.id),
        Selection::Grouped { dbs, per_db } => pool.select_grouped(&test.nl, dbs, per_db, test.id),
    }
}

/// Evaluates an LLM over the test ids, drawing demonstrations from the
/// training ids. `limit` caps the number of evaluated examples for quick
/// runs.
pub fn evaluate_llm(
    llm: &(dyn CompletionService + Sync),
    corpus: &Corpus,
    train_ids: &[usize],
    test_ids: &[usize],
    config: &LlmEvalConfig,
    limit: Option<usize>,
) -> EvalReport {
    evaluate_llm_with_progress(llm, corpus, train_ids, test_ids, config, limit, |_, _| {})
}

/// [`evaluate_llm`] with a progress callback, invoked after each scored
/// example with `(completed, total)` — from evaluation worker threads, so
/// the callback must be cheap and `Sync`.
pub fn evaluate_llm_with_progress(
    llm: &(dyn CompletionService + Sync),
    corpus: &Corpus,
    train_ids: &[usize],
    test_ids: &[usize],
    config: &LlmEvalConfig,
    limit: Option<usize>,
    progress: impl Fn(usize, usize) + Sync,
) -> EvalReport {
    let _span = obs::span!("eval.llm_run");
    let ids: Vec<usize> = test_ids
        .iter()
        .copied()
        .take(limit.unwrap_or(usize::MAX))
        .collect();
    let pool = demo_pool(corpus, train_ids);
    parallel_map(
        &ids,
        config.workers,
        |id| {
            let test = corpus.example(*id)?;
            // Every example is its own trace — even on the inline
            // single-threaded path where the run-level span is live on the
            // same thread — so a failed row's trace_id in the CSV fetches
            // exactly that example's spans from the flight recorder.
            let example_span = obs::Span::enter_root("eval.example");
            example_span.annotate("example", &test.id.to_string());
            let trace_id = example_span.trace();
            let db = corpus.catalog.database(&test.db).ok()?;
            let demos = pick_demos_pooled(&pool, test, config);
            let options = PromptOptions {
                format: config.format,
                answer: config.answer,
                token_budget: config.token_budget,
                chain_of_thought: config.chain_of_thought,
                role_play: config.role_play,
            };
            let prompt = build_prompt(&options, db, &test.nl, &demos, |d| {
                corpus
                    .catalog
                    .database(&d.db)
                    .expect("demo database exists")
            });
            // The typed completion path. A validation rejection means the
            // stack refused the model's answer: that is a model failure, so
            // the example scores like a missing prediction. Any other error
            // means the model never spoke, so the example must land in
            // `eval.error.transport` — not in the accuracy denominator and
            // not in the failure taxonomy.
            let (outcome, completion, transport_error) = match llm.call(&prompt.text, &config.gen) {
                Ok(completion) => (
                    score_completion(&completion, &test.vql, db),
                    Some(completion),
                    None,
                ),
                Err(e) if e.kind == TransportErrorKind::Status(VALIDATION_REJECTED_STATUS) => {
                    obs::error("eval", "rejected", &format!("example {}: {e}", test.id));
                    let outcome = EvalOutcome {
                        rejected: true,
                        ..EvalOutcome::no_prediction()
                    };
                    (outcome, None, None)
                }
                Err(e) => {
                    obs::transport_error("eval", &format!("example {}: {e}", test.id));
                    (EvalOutcome::unscored(), None, Some(e.to_string()))
                }
            };
            Some(ExampleResult {
                id: test.id,
                outcome,
                is_join: test.is_join,
                hardness: test.hardness,
                completion,
                transport_error,
                trace_id,
            })
        },
        progress,
    )
}

/// Evaluates a trained baseline model over the test ids.
pub fn evaluate_model(
    model: &(dyn Nl2VisModel + Sync),
    corpus: &Corpus,
    test_ids: &[usize],
    limit: Option<usize>,
) -> EvalReport {
    evaluate_model_with_progress(model, corpus, test_ids, limit, |_, _| {})
}

/// [`evaluate_model`] with a progress callback (see
/// [`evaluate_llm_with_progress`]).
pub fn evaluate_model_with_progress(
    model: &(dyn Nl2VisModel + Sync),
    corpus: &Corpus,
    test_ids: &[usize],
    limit: Option<usize>,
    progress: impl Fn(usize, usize) + Sync,
) -> EvalReport {
    let _span = obs::span!("eval.model_run");
    let ids: Vec<usize> = test_ids
        .iter()
        .copied()
        .take(limit.unwrap_or(usize::MAX))
        .collect();
    parallel_map(
        &ids,
        None,
        |id| {
            let test = corpus.example(*id)?;
            let example_span = obs::Span::enter_root("eval.example");
            example_span.annotate("example", &test.id.to_string());
            let trace_id = example_span.trace();
            let db = corpus.catalog.database(&test.db).ok()?;
            let outcome = match model.predict(&test.nl, db) {
                Some(pred) => score_query(&pred, &test.vql, db),
                None => EvalOutcome::no_prediction(),
            };
            Some(ExampleResult {
                id: test.id,
                outcome,
                is_join: test.is_join,
                hardness: test.hardness,
                completion: None,
                transport_error: None,
                trace_id,
            })
        },
        progress,
    )
}

/// The default evaluation worker count: available parallelism, capped at 8.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// What every evaluation step of one run shares: the run's size, its
/// completion count and progress callback, and the per-example metric
/// handles, resolved once per run rather than by name (a `String` and the
/// registry mutex) per example.
struct Steps<'p, P> {
    total: usize,
    done: AtomicUsize,
    progress: &'p P,
    latency: Arc<obs::Histogram>,
    examples: Arc<obs::Counter>,
}

/// One instrumented evaluation step: times the example into
/// `eval.example_latency_us`, converts a panic into a counted miss, and
/// reports progress.
fn run_one<F, P>(id: &usize, f: &F, steps: &Steps<P>, panics: &mut usize) -> Option<ExampleResult>
where
    F: Fn(&usize) -> Option<ExampleResult> + Sync,
    P: Fn(usize, usize) + Sync,
{
    let started = std::time::Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(id)));
    steps.latency.record_duration(started.elapsed());
    steps.examples.inc();
    let completed = steps.done.fetch_add(1, Ordering::Relaxed) + 1;
    (steps.progress)(completed, steps.total);
    match result {
        Ok(r) => r,
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            obs::count("eval.worker_panics", 1);
            obs::error("eval", "worker_panic", &format!("example {id}: {message}"));
            *panics += 1;
            None
        }
    }
}

/// Order-preserving parallel map over ids using scoped threads and a
/// shared work queue. Worker panics are caught per example and surfaced as
/// [`EvalReport::worker_panics`] (plus the `eval.worker_panics` counter)
/// instead of aborting the run.
///
/// The queue is a single atomic claim counter: each worker repeatedly
/// claims the next unprocessed index until none remain. Unlike the static
/// chunking this replaced, a worker that draws slow examples (an LLM
/// stall, a retry storm) only delays the examples it has already claimed —
/// the rest of the queue drains through the other workers, so wall-clock
/// tracks the *sum* of work, not the unluckiest chunk. Results land in a
/// preallocated slot per index, so output order is the input order
/// regardless of which worker processed what.
fn parallel_map<F, P>(ids: &[usize], workers: Option<usize>, f: F, progress: P) -> EvalReport
where
    F: Fn(&usize) -> Option<ExampleResult> + Sync,
    P: Fn(usize, usize) + Sync,
{
    let total = ids.len();
    let workers = workers
        .unwrap_or_else(default_workers)
        .max(1)
        .min(total.max(1));
    let steps = Steps {
        total,
        done: AtomicUsize::new(0),
        progress: &progress,
        latency: obs::global().histogram("eval.example_latency_us"),
        examples: obs::global().counter("eval.examples_total"),
    };
    if total < 8 || workers < 2 {
        let started = std::time::Instant::now();
        let mut panics = 0usize;
        let results: Vec<ExampleResult> = ids
            .iter()
            .filter_map(|id| run_one(id, &f, &steps, &mut panics))
            .collect();
        let stats = vec![WorkerStats {
            worker: 0,
            examples: total,
            elapsed: started.elapsed(),
        }];
        return EvalReport {
            results,
            worker_panics: panics,
            worker_stats: stats,
        };
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<ExampleResult>> =
        std::iter::repeat_with(|| None).take(total).collect();
    let mut worker_panics = 0usize;
    let mut worker_stats = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let started = std::time::Instant::now();
                    let mut panics = 0usize;
                    let mut claimed: Vec<(usize, Option<ExampleResult>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let result = run_one(&ids[i], &f, &steps, &mut panics);
                        claimed.push((i, result));
                    }
                    (claimed, panics, started.elapsed())
                })
            })
            .collect();
        for (worker, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok((claimed, panics, elapsed)) => {
                    worker_stats.push(WorkerStats {
                        worker,
                        // Indices this worker actually claimed and ran —
                        // under the queue, per-worker counts reflect real
                        // throughput, not a pre-assigned share.
                        examples: claimed.len(),
                        elapsed,
                    });
                    worker_panics += panics;
                    for (i, result) in claimed {
                        slots[i] = result;
                    }
                }
                // Unreachable in practice (panics are caught per example),
                // but a dead worker must not take the report down with it —
                // at most that worker's claimed results are lost.
                Err(_) => {
                    obs::count("eval.worker_panics", 1);
                    worker_panics += 1;
                }
            }
        }
    });
    EvalReport {
        results: slots.into_iter().flatten().collect(),
        worker_panics,
        worker_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_baselines::{Seq2Vis, T5Model, T5Size};
    use nl2vis_corpus::CorpusConfig;
    use nl2vis_llm::{ModelProfile, SimLlm};

    fn fixture() -> Corpus {
        Corpus::build(&CorpusConfig {
            seed: 61,
            instances_per_domain: 1,
            queries_per_db: 12,
            paraphrases: (2, 3),
        })
    }

    #[test]
    fn llm_in_domain_beats_cross_domain() {
        // Aggregate over several split seeds: which databases land in a
        // cross-domain test fold varies a lot at this corpus size.
        let c = fixture();
        let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
        let config = LlmEvalConfig {
            shots: 5,
            ..Default::default()
        };
        let mut acc_in = Accuracy::default();
        let mut acc_cross = Accuracy::default();
        for seed in 1..=3 {
            let ind = c.split_in_domain(seed);
            let crd = c.split_cross_domain(seed);
            let r_in = evaluate_llm(&llm, &c, &ind.train, &ind.test, &config, Some(40));
            let r_cross = evaluate_llm(&llm, &c, &crd.train, &crd.test, &config, Some(40));
            acc_in.merge(&r_in.overall());
            acc_cross.merge(&r_cross.overall());
        }
        assert!(
            acc_in.exact() > acc_cross.exact(),
            "in-domain {:.2} should beat cross-domain {:.2}",
            acc_in.exact(),
            acc_cross.exact()
        );
    }

    #[test]
    fn baseline_evaluation_report_shapes() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let m = Seq2Vis::train(&c, &split.train);
        let r = evaluate_model(&m, &c, &split.test, Some(30));
        assert_eq!(r.results.len(), 30.min(split.test.len()));
        assert_eq!(r.join().n() + r.non_join().n(), r.overall().n());
        let by_hardness: usize = Hardness::all().iter().map(|h| r.by_hardness(*h).n()).sum();
        assert_eq!(by_hardness, r.overall().n());
    }

    #[test]
    fn t5_beats_seq2vis_cross_domain_via_runner() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let t5 = T5Model::train(&c, &split.train, T5Size::Base, 1);
        let s2v = Seq2Vis::train(&c, &split.train);
        let r_t5 = evaluate_model(&t5, &c, &split.test, Some(50));
        let r_s2v = evaluate_model(&s2v, &c, &split.test, Some(50));
        assert!(r_t5.overall().exact() > r_s2v.overall().exact());
    }

    #[test]
    fn failed_ids_and_component_failures_consistent() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let m = Seq2Vis::train(&c, &split.train);
        let r = evaluate_model(&m, &c, &split.test, Some(30));
        let failed = r.failed_ids();
        assert!(failed.len() <= r.results.len());
        let total_component_failures: usize = r.component_failures().iter().map(|(_, n)| n).sum();
        // Every non-parse failure contributes at least one wrong component.
        let non_parse_failures = r
            .results
            .iter()
            .filter(|x| x.outcome.failed() && !x.outcome.parse_failed)
            .count();
        assert!(total_component_failures >= non_parse_failures);
    }

    #[test]
    fn report_exports_csv() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let m = Seq2Vis::train(&c, &split.train);
        let r = evaluate_model(&m, &c, &split.test, Some(10));
        let csv_text = r.to_csv();
        let records = nl2vis_data::csv::parse(&csv_text).unwrap();
        assert_eq!(records.len(), 11); // header + 10 results
        assert_eq!(records[0][0], "id");
        assert!(
            records[1][1] == "easy"
                || records[1][1] == "medium"
                || records[1][1] == "hard"
                || records[1][1] == "extra hard"
        );
        assert_eq!(records[0].last().map(String::as_str), Some("trace_id"));
    }

    #[test]
    fn every_example_gets_its_own_trace_id() {
        // Trace ids must be nonzero and mutually distinct even when the
        // whole run executes inline on the driver thread (small total →
        // single-threaded path), where a naive nested span would merge all
        // examples into the run-level trace.
        let c = fixture();
        let split = c.split_cross_domain(1);
        let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
        let config = LlmEvalConfig {
            workers: Some(1),
            ..LlmEvalConfig::default()
        };
        let r = evaluate_llm(&llm, &c, &split.train, &split.test, &config, Some(5));
        assert!(!r.results.is_empty());
        let ids: Vec<u64> = r.results.iter().map(|x| x.trace_id).collect();
        assert!(ids.iter().all(|&t| t != 0), "zero trace id in {ids:?}");
        let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate trace ids in {ids:?}");
        // The CSV carries the same ids in its last column.
        let records = nl2vis_data::csv::parse(&r.to_csv()).unwrap();
        for (row, expected) in records[1..].iter().zip(&ids) {
            assert_eq!(
                row.last().map(String::as_str),
                Some(expected.to_string().as_str())
            );
        }
    }

    #[test]
    fn trace_ids_stay_distinct_across_worker_threads() {
        // The multi-worker path: examples claimed from the work queue by
        // several threads must still each get their own nonzero trace id,
        // and order preservation must keep each id attached to its row.
        let c = fixture();
        let split = c.split_cross_domain(1);
        let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
        let config = LlmEvalConfig {
            workers: Some(4),
            ..LlmEvalConfig::default()
        };
        let r = evaluate_llm(&llm, &c, &split.train, &split.test, &config, Some(20));
        assert!(r.results.len() >= 8, "enough examples to engage the queue");
        assert!(
            r.worker_stats.len() > 1,
            "the run actually used multiple workers"
        );
        let ids: Vec<u64> = r.results.iter().map(|x| x.trace_id).collect();
        assert!(ids.iter().all(|&t| t != 0), "zero trace id in {ids:?}");
        let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate trace ids in {ids:?}");
    }

    #[test]
    fn component_accuracy_bounds_and_consistency() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let m = Seq2Vis::train(&c, &split.train);
        let r = evaluate_model(&m, &c, &split.test, Some(30));
        for (component, accuracy) in r.component_accuracy() {
            assert!((0.0..=1.0).contains(&accuracy), "{component}: {accuracy}");
        }
        // Exact matches agree on every component, so each component accuracy
        // is at least the exact accuracy.
        let exact = r.overall().exact();
        for (component, accuracy) in r.component_accuracy() {
            assert!(
                accuracy + 1e-9 >= exact,
                "{component}: {accuracy} < {exact}"
            );
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let c = fixture();
        let split = c.split_in_domain(1);
        let m = Seq2Vis::train(&c, &split.train);
        let r = evaluate_model(&m, &c, &split.test, None);
        let ids: Vec<usize> = r.results.iter().map(|x| x.id).collect();
        assert_eq!(ids, split.test[..ids.len()].to_vec());
        assert_eq!(r.worker_panics, 0);
        let processed: usize = r.worker_stats.iter().map(|w| w.examples).sum();
        assert_eq!(processed, ids.len());
    }

    #[test]
    fn worker_cap_is_configurable_and_results_identical() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
        let base = LlmEvalConfig::default();
        let capped = LlmEvalConfig {
            workers: Some(2),
            ..Default::default()
        };
        let wide = LlmEvalConfig {
            workers: Some(16),
            ..Default::default()
        };
        let r_base = evaluate_llm(&llm, &c, &split.train, &split.test, &base, Some(24));
        let r_capped = evaluate_llm(&llm, &c, &split.train, &split.test, &capped, Some(24));
        let r_wide = evaluate_llm(&llm, &c, &split.train, &split.test, &wide, Some(24));
        let key = |r: &EvalReport| -> Vec<(usize, bool, bool)> {
            r.results
                .iter()
                .map(|x| (x.id, x.outcome.exact, x.outcome.exec))
                .collect()
        };
        assert_eq!(key(&r_base), key(&r_capped));
        assert_eq!(key(&r_base), key(&r_wide));
        // A 2-worker run over >= 8 examples spawns exactly 2 queue workers.
        assert_eq!(r_capped.worker_stats.len(), 2);
        assert!(r_wide.worker_stats.len() > 2);
    }

    /// Adversarial skew: the first example cannot finish until every other
    /// example has been processed. Static chunking deadlocks here (the
    /// blocked example's chunk-mates are stuck behind it in the same
    /// worker); the shared work queue lets the other worker drain the rest
    /// of the queue, which releases the blocked example.
    #[test]
    fn work_queue_drains_around_a_blocked_example() {
        let n = 8usize;
        let ids: Vec<usize> = (0..n).collect();
        let latch = std::sync::Arc::new((std::sync::Mutex::new(n - 1), std::sync::Condvar::new()));
        let r = parallel_map(
            &ids,
            Some(2),
            |id| {
                let (remaining, cv) = &*latch;
                if *id == 0 {
                    let mut left = remaining.lock().unwrap();
                    while *left > 0 {
                        let (next, timed_out) = cv
                            .wait_timeout(left, std::time::Duration::from_secs(10))
                            .unwrap();
                        left = next;
                        assert!(
                            !timed_out.timed_out(),
                            "scheduler failed to drain the queue around a blocked example"
                        );
                    }
                } else {
                    let mut left = remaining.lock().unwrap();
                    *left -= 1;
                    cv.notify_all();
                }
                Some(ExampleResult {
                    id: *id,
                    outcome: EvalOutcome {
                        exact: false,
                        exec: false,
                        components_wrong: Vec::new(),
                        parse_failed: false,
                        rejected: false,
                    },
                    is_join: false,
                    hardness: Hardness::Easy,
                    completion: None,
                    transport_error: None,
                    trace_id: 0,
                })
            },
            |_, _| {},
        );
        assert_eq!(r.worker_panics, 0);
        let got: Vec<usize> = r.results.iter().map(|x| x.id).collect();
        assert_eq!(
            got, ids,
            "order is preserved despite out-of-order completion"
        );
        // The blocked example pinned one worker; the other processed the
        // remaining seven.
        let max_share = r.worker_stats.iter().map(|w| w.examples).max().unwrap();
        assert_eq!(max_share, n - 1);
    }

    #[test]
    fn progress_callback_sees_every_example() {
        let c = fixture();
        let split = c.split_cross_domain(1);
        let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
        let config = LlmEvalConfig::default();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let max_seen = std::sync::atomic::AtomicUsize::new(0);
        let n = 20.min(split.test.len());
        let r = evaluate_llm_with_progress(
            &llm,
            &c,
            &split.train,
            &split.test,
            &config,
            Some(n),
            |done, total| {
                assert_eq!(total, n);
                assert!(done >= 1 && done <= total);
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                max_seen.fetch_max(done, std::sync::atomic::Ordering::Relaxed);
            },
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), n);
        assert_eq!(max_seen.load(std::sync::atomic::Ordering::Relaxed), n);
        assert_eq!(r.results.len(), n);
    }

    /// A model that panics on some questions must not poison the report:
    /// the surviving examples score normally and the panics are counted.
    #[test]
    fn worker_panics_are_counted_not_fatal() {
        struct PanickyLlm {
            inner: SimLlm,
        }
        impl CompletionService for PanickyLlm {
            fn model(&self) -> &str {
                "panicky"
            }
            fn call(
                &self,
                prompt: &str,
                opts: &nl2vis_llm::GenOptions,
            ) -> nl2vis_llm::CompletionOutcome {
                // Deterministic subset: panic whenever the prompt length is
                // divisible by 3 (roughly a third of the examples).
                if prompt.len() % 3 == 0 {
                    panic!("simulated scoring crash");
                }
                self.inner.call(prompt, opts)
            }
        }
        let c = fixture();
        let split = c.split_cross_domain(1);
        let llm = PanickyLlm {
            inner: SimLlm::new(ModelProfile::davinci_003(), 3),
        };
        let config = LlmEvalConfig::default();
        let n = 30.min(split.test.len());
        let panics_before = nl2vis_obs::global().counter("eval.worker_panics").get();
        // The default panic hook prints a backtrace per panic; silence it
        // for this test so the suite's output stays readable.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = evaluate_llm(&llm, &c, &split.train, &split.test, &config, Some(n));
        std::panic::set_hook(prev_hook);
        assert!(r.worker_panics > 0, "the panic subset must be non-empty");
        assert_eq!(r.results.len() + r.worker_panics, n);
        assert!(
            nl2vis_obs::global().counter("eval.worker_panics").get()
                >= panics_before + r.worker_panics as u64
        );
        // Surviving results still aggregate.
        let _ = r.overall();
    }
}
