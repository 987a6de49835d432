//! `eval-study`: the paper's own experiment. `evaluate_llm` runs the
//! simulated text-davinci-003 with 5-shot similarity demonstrations and the
//! `Table2Sql` format over the in-domain test split, pass after pass, on two
//! workers.

use crate::stats::windowed_rate;
use crate::trace;
use crate::world::{World, MODEL_SEED};
use nl2vis_eval::runner::{evaluate_llm, evaluate_llm_with_progress, pick_demos_pooled};
use nl2vis_eval::runner::{EvalReport, LlmEvalConfig};
use nl2vis_eval::score_completion;
use nl2vis_llm::{LlmClient, ModelProfile, SimLlm};
use nl2vis_prompt::{build_prompt, PromptFormat};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;

pub struct EvalStudy {
    pub world: World,
    pub llm: SimLlm,
    pub config: LlmEvalConfig,
    /// `(exact, exec)` per test example id from a single-worker pass.
    pub reference: BTreeMap<usize, (bool, bool)>,
}

/// Timed passes of the untraced run.
#[derive(Debug, Default)]
pub struct Passes {
    /// Examples in the timed passes.
    pub examples: u64,
    /// Examples whose outcome was checked, the warm-up pass included.
    pub checked: u64,
    pub failed: u64,
    /// Time spent inside the timed passes.
    pub wall: Duration,
    /// From the start of the first timed pass to the end of the last.
    pub span: Duration,
    /// Per-example latency in ns: the time between consecutive progress
    /// callbacks on one worker (the first from the start of the pass), with
    /// when the example finished after the timed passes began.
    pub latency_ns: Vec<(Duration, f64)>,
    /// The benchmark loop's turnaround between timed passes (checking one pass's
    /// outcomes before starting the next), in ns.
    pub gap_ns: Vec<f64>,
    pub exact_acc: f64,
    pub exec_acc: f64,
}

impl Passes {
    /// Examples finished per second in each whole second of the timed
    /// passes, the median over the seconds.
    pub fn throughput(&self) -> f64 {
        windowed_rate(
            self.latency_ns.iter().map(|&(at, _)| at),
            Duration::from_secs(1),
            self.span,
        )
    }
}

thread_local! {
    /// (pass number, time of this worker's last progress callback).
    static LAST_DONE: Cell<(u64, Option<Instant>)> = const { Cell::new((0, None)) };
}

impl EvalStudy {
    pub fn setup(seed: u64) -> EvalStudy {
        let world = World::build(seed);
        let llm = SimLlm::new(ModelProfile::davinci_003(), MODEL_SEED ^ 0xD3);
        let config = World::eval_config(PromptFormat::Table2Sql, WORKERS);
        let single = LlmEvalConfig {
            workers: Some(1),
            ..config.clone()
        };
        let report = evaluate_llm(
            &llm,
            &world.corpus,
            &world.split.train,
            &world.split.test,
            &single,
            None,
        );
        let reference = report
            .results
            .iter()
            .filter(|r| r.scored())
            .map(|r| (r.id, (r.outcome.exact, r.outcome.exec)))
            .collect();
        EvalStudy {
            world,
            llm,
            config,
            reference,
        }
    }

    /// Examples of `report` that are missing, unscored or differ from the
    /// reference pass.
    fn check(&self, report: &EvalReport) -> u64 {
        let got: BTreeMap<usize, (bool, bool)> = report
            .results
            .iter()
            .filter(|r| r.scored())
            .map(|r| (r.id, (r.outcome.exact, r.outcome.exec)))
            .collect();
        let wrong = self
            .world
            .split
            .test
            .iter()
            .filter(|id| match (self.reference.get(id), got.get(id)) {
                (Some(want), Some(have)) => want != have,
                _ => true,
            })
            .count();
        wrong as u64
    }

    fn pass(
        &self,
        pass: u64,
        origin: Instant,
        latency_ns: &Mutex<Vec<(Duration, f64)>>,
    ) -> (EvalReport, Duration) {
        let started = Instant::now();
        let report = evaluate_llm_with_progress(
            &self.llm,
            &self.world.corpus,
            &self.world.split.train,
            &self.world.split.test,
            &self.config,
            None,
            |_, _| {
                let now = Instant::now();
                let previous = LAST_DONE.with(|last| {
                    let (p, t) = last.replace((pass, Some(now)));
                    if p == pass {
                        t
                    } else {
                        None
                    }
                });
                let since = now.duration_since(previous.unwrap_or(started));
                latency_ns.lock().expect("latency log poisoned").push((
                    now.saturating_duration_since(origin),
                    since.as_nanos() as f64,
                ));
            },
        );
        (report, started.elapsed())
    }

    /// One untimed warm-up pass, then whole passes until `window` is spent.
    pub fn measure(&self, window: Duration) -> Passes {
        let split = self.world.split.test.len() as u64;
        let (warm, _) = self.pass(1, Instant::now(), &Mutex::new(Vec::new()));
        let mut out = Passes {
            checked: split,
            failed: self.check(&warm),
            ..Passes::default()
        };
        let latency = Mutex::new(Vec::new());
        let origin = Instant::now();
        let mut last_end = None;
        for pass in 2.. {
            if out.wall >= window {
                break;
            }
            if let Some(end) = last_end {
                out.gap_ns
                    .push(Instant::now().duration_since(end).as_nanos() as f64);
            }
            let (report, wall) = self.pass(pass, origin, &latency);
            let end = Instant::now();
            out.span = end.duration_since(origin);
            last_end = Some(end);
            out.failed += self.check(&report);
            out.checked += split;
            out.examples += split;
            out.wall += wall;
            let overall = report.overall();
            out.exact_acc = overall.exact();
            out.exec_acc = overall.exec();
        }
        out.latency_ns = latency.into_inner().expect("latency log poisoned");
        out
    }

    /// The traced pass: the runner's per-example steps called one by one
    /// (`pick_demos_pooled` → `build_prompt` → `try_complete_with` →
    /// `score_completion`) on two threads, `passes` times over the split.
    /// With `traced`, each example is an `eval.example` request holding one
    /// span per step. Returns the wall time, the examples run, the examples
    /// whose outcome differs from the reference, and each test example's
    /// prompt and completion.
    pub fn compose(
        &self,
        passes: usize,
        traced: bool,
    ) -> (Duration, u64, u64, Vec<(String, String)>) {
        let test = &self.world.split.test;
        let pool = self.world.pool();
        let options = World::prompt_options(&self.config);
        let total = passes * test.len();
        let next = AtomicUsize::new(0);
        let failed = AtomicU64::new(0);
        let texts: Mutex<Vec<Option<(String, String)>>> = Mutex::new(vec![None; test.len()]);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let example = self.world.example(test[i % test.len()]);
                        let db = self.world.database(&example.db);
                        let span = |name| traced.then(|| trace::enter(name));
                        let _request = span("eval.example");
                        let demos = {
                            let _span = span("prompt.select");
                            pick_demos_pooled(&pool, example, &self.config)
                        };
                        let prompt = {
                            let _span = span("prompt.build");
                            build_prompt(&options, db, &example.nl, &demos, |d| {
                                self.world.database(&d.db)
                            })
                        };
                        let completion = {
                            let _span = span("llm.complete");
                            self.llm.try_complete_with(&prompt.text, &self.config.gen)
                        };
                        let Ok(completion) = completion else {
                            failed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        let outcome = {
                            let _span = span("eval.score");
                            score_completion(&completion, &example.vql, db)
                        };
                        if self.reference.get(&example.id) != Some(&(outcome.exact, outcome.exec)) {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        if i < test.len() {
                            texts.lock().expect("text slots poisoned")[i] =
                                Some((prompt.text, completion));
                        }
                    }
                    trace::flush();
                });
            }
        });
        let wall = started.elapsed();
        let texts = texts
            .into_inner()
            .expect("text slots poisoned")
            .into_iter()
            .map(|t| t.unwrap_or_default())
            .collect();
        (wall, total as u64, failed.into_inner(), texts)
    }
}
