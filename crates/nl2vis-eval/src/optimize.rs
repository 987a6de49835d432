//! Iterative updating strategies (RQ3-2, Figs. 12-13 of the paper): given
//! the failed cases of a base run, re-prompt with chain-of-thought,
//! role-playing, self-repair, or a code-interpreter loop and measure how
//! many failures the strategy rescues.

use crate::metrics::{score_completion, EvalOutcome};
use crate::runner::{demo_pool, pick_demos_pooled, LlmEvalConfig};
use nl2vis_corpus::{Corpus, Example};
use nl2vis_llm::{GenOptions, ModelProfile, SimLlm};
use nl2vis_prompt::select::DemoPool;
use nl2vis_prompt::{build_prompt, PromptOptions};
use nl2vis_query::execute;

/// An iterative-updating strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Chain-of-thought with a sketch intermediate (gpt-3.5-turbo).
    ChainOfThought,
    /// "You are a data visualization assistant" persona (gpt-3.5-turbo).
    RolePlay,
    /// "Please fix the given VQL" re-prompt (gpt-4).
    SelfRepair,
    /// Execute-and-retry loop over the real engine (gpt-4 code interpreter).
    CodeInterpreter,
}

impl Strategy {
    /// All strategies in Fig. 13 order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::ChainOfThought,
            Strategy::RolePlay,
            Strategy::SelfRepair,
            Strategy::CodeInterpreter,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::ChainOfThought => "CoT",
            Strategy::RolePlay => "Role-play",
            Strategy::SelfRepair => "Self-repair",
            Strategy::CodeInterpreter => "Code-interpreter",
        }
    }

    /// The model the paper pairs with this strategy.
    pub fn model(self) -> ModelProfile {
        match self {
            // The paper drives CoT and role-play through gpt-3.5-turbo.
            Strategy::ChainOfThought | Strategy::RolePlay => ModelProfile::turbo_16k(),
            Strategy::SelfRepair | Strategy::CodeInterpreter => ModelProfile::gpt_4(),
        }
    }
}

/// Applies a strategy to one previously-failed example, drawing its
/// demonstrations from `pool`, and returns the new scoring outcome.
pub fn apply_strategy(
    strategy: Strategy,
    corpus: &Corpus,
    pool: &DemoPool,
    example: &Example,
    base: &LlmEvalConfig,
    seed: u64,
) -> EvalOutcome {
    let llm = SimLlm::new(strategy.model(), seed);
    let db = corpus
        .catalog
        .database(&example.db)
        .expect("example database exists");
    let demos = pick_demos_pooled(pool, example, base);

    let mut options = PromptOptions {
        format: base.format,
        answer: nl2vis_prompt::AnswerFormat::Vql,
        token_budget: llm.profile.context_tokens.min(base.token_budget.max(4096)),
        chain_of_thought: false,
        role_play: false,
    };
    let gen = match strategy {
        Strategy::ChainOfThought => {
            // The sketch-first intermediate suppresses structural slips and
            // mildly reduces overall error.
            options.chain_of_thought = true;
            GenOptions {
                attempt: 101,
                error_scale: 1.02,
                structural_scale: 0.95,
            }
        }
        Strategy::RolePlay => {
            // The persona stabilizes output formatting and focus.
            options.role_play = true;
            GenOptions {
                attempt: 102,
                error_scale: 0.78,
                structural_scale: 1.0,
            }
        }
        Strategy::SelfRepair => {
            // "Fix the given VQL": the model revisits its own output with
            // the error in view; a strong targeted reduction.
            GenOptions {
                attempt: 103,
                error_scale: 0.72,
                structural_scale: 0.72,
            }
        }
        Strategy::CodeInterpreter => {
            // Handled below with an execute-and-retry loop.
            GenOptions {
                attempt: 104,
                error_scale: 0.45,
                structural_scale: 0.45,
            }
        }
    };

    if strategy == Strategy::CodeInterpreter {
        // The code-interpreter uploads the database and *runs* candidates:
        // candidates that fail to execute or return empty results are
        // visibly wrong and discarded; among executable candidates the model
        // keeps the self-consistent one (the execution result produced most
        // often across samples) — the paper's "demonstrate programming
        // proficiency within a conversational context".
        let prompt = build_prompt(&options, db, &example.nl, &demos, |d| {
            corpus
                .catalog
                .database(&d.db)
                .expect("demo database exists")
        });
        let mut executable: Vec<(String, nl2vis_query::ResultSet)> = Vec::new();
        let mut last_completion = String::new();
        for attempt in 0..8u64 {
            let g = GenOptions {
                attempt: 200 + attempt,
                ..gen.clone()
            };
            let completion = llm.complete_with(&prompt.text, &g);
            let parsed =
                nl2vis_llm::extract_vql(&completion).and_then(|t| nl2vis_query::parse(t).ok());
            if let Some(pred) = parsed {
                if let Ok(result) = execute(&pred, db) {
                    if !result.rows.is_empty() {
                        executable.push((completion.clone(), result));
                    }
                }
            }
            last_completion = completion;
        }
        if executable.is_empty() {
            return score_completion(&last_completion, &example.vql, db);
        }
        // Self-consistency vote: the completion whose execution result
        // recurs most often across samples.
        let mut best_idx = 0;
        let mut best_votes = 0;
        for (i, (_, result)) in executable.iter().enumerate() {
            let votes = executable
                .iter()
                .filter(|(_, r)| r.same_data(result))
                .count();
            if votes > best_votes {
                best_votes = votes;
                best_idx = i;
            }
        }
        return score_completion(&executable[best_idx].0, &example.vql, db);
    }

    let prompt = build_prompt(&options, db, &example.nl, &demos, |d| {
        corpus
            .catalog
            .database(&d.db)
            .expect("demo database exists")
    });
    let completion = llm.complete_with(&prompt.text, &gen);
    score_completion(&completion, &example.vql, db)
}

/// Outcome of applying a strategy to a failed set.
#[derive(Debug, Clone)]
pub struct StrategyReport {
    /// Strategy applied.
    pub strategy: Strategy,
    /// Number of failed cases attempted.
    pub attempted: usize,
    /// Cases now execution-accurate.
    pub rescued_exec: usize,
    /// Cases now exactly accurate.
    pub rescued_exact: usize,
    /// Per-extended-chart-type rescue counts (label, attempted, rescued).
    pub by_chart: Vec<(String, usize, usize)>,
}

impl StrategyReport {
    /// Execution-accuracy improvement over the failed set.
    pub fn exec_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.rescued_exec as f64 / self.attempted as f64
        }
    }
}

/// Applies a strategy to every failed example id.
pub fn run_strategy(
    strategy: Strategy,
    corpus: &Corpus,
    train_ids: &[usize],
    failed_ids: &[usize],
    base: &LlmEvalConfig,
    seed: u64,
) -> StrategyReport {
    let mut report = StrategyReport {
        strategy,
        attempted: 0,
        rescued_exec: 0,
        rescued_exact: 0,
        by_chart: Vec::new(),
    };
    let pool = demo_pool(corpus, train_ids);
    for id in failed_ids {
        let Some(example) = corpus.example(*id) else {
            continue;
        };
        report.attempted += 1;
        let outcome = apply_strategy(strategy, corpus, &pool, example, base, seed);
        let chart = example.vql.extended_chart_label().to_string();
        let slot = match report.by_chart.iter_mut().find(|(c, _, _)| *c == chart) {
            Some(s) => s,
            None => {
                report.by_chart.push((chart, 0, 0));
                report.by_chart.last_mut().unwrap()
            }
        };
        slot.1 += 1;
        if outcome.exec {
            report.rescued_exec += 1;
            slot.2 += 1;
        }
        if outcome.exact {
            report.rescued_exact += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_llm;
    use nl2vis_corpus::CorpusConfig;

    fn base_run() -> (Corpus, Vec<usize>, Vec<usize>, LlmEvalConfig) {
        let c = Corpus::build(&CorpusConfig {
            seed: 67,
            instances_per_domain: 1,
            queries_per_db: 12,
            paraphrases: (2, 3),
        });
        let split = c.split_cross_domain(1);
        let config = LlmEvalConfig {
            shots: 5,
            ..Default::default()
        };
        let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
        let report = evaluate_llm(&llm, &c, &split.train, &split.test, &config, Some(60));
        let failed = report.failed_ids();
        (c, split.train, failed, config)
    }

    #[test]
    fn strategies_rescue_some_failures() {
        let (c, train, failed, config) = base_run();
        assert!(
            !failed.is_empty(),
            "base run should have failures to repair"
        );
        let ci = run_strategy(Strategy::CodeInterpreter, &c, &train, &failed, &config, 5);
        assert_eq!(ci.attempted, failed.len());
        assert!(
            ci.rescued_exec > 0,
            "code-interpreter should rescue something"
        );
    }

    #[test]
    fn code_interpreter_beats_single_shot_strategies() {
        let (c, train, failed, config) = base_run();
        if failed.len() < 6 {
            return; // not enough failures to compare meaningfully
        }
        let ci = run_strategy(Strategy::CodeInterpreter, &c, &train, &failed, &config, 5);
        let cot = run_strategy(Strategy::ChainOfThought, &c, &train, &failed, &config, 5);
        assert!(
            ci.exec_rate() >= cot.exec_rate(),
            "code-interpreter ({:.2}) should be at least CoT ({:.2})",
            ci.exec_rate(),
            cot.exec_rate()
        );
    }

    #[test]
    fn strategy_metadata() {
        assert_eq!(Strategy::all().len(), 4);
        assert_eq!(Strategy::SelfRepair.model().name, "gpt-4");
        assert_eq!(Strategy::ChainOfThought.model().name, "gpt-3.5-turbo-16k");
        assert_eq!(Strategy::CodeInterpreter.name(), "Code-interpreter");
    }

    #[test]
    fn by_chart_counts_sum() {
        let (c, train, failed, config) = base_run();
        let r = run_strategy(Strategy::RolePlay, &c, &train, &failed, &config, 5);
        let attempted: usize = r.by_chart.iter().map(|(_, a, _)| a).sum();
        let rescued: usize = r.by_chart.iter().map(|(_, _, n)| n).sum();
        assert_eq!(attempted, r.attempted);
        assert_eq!(rescued, r.rescued_exec);
    }
}
