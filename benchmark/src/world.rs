//! Inputs shared by the workloads: the seeded corpus, its in-domain split,
//! and the 5-shot similarity prompts rendered over the test split.

use crate::trace;
use nl2vis_corpus::{Corpus, CorpusConfig, Example, Split};
use nl2vis_data::Database;
use nl2vis_eval::runner::{pick_demos_pooled, LlmEvalConfig, Selection};
use nl2vis_prompt::select::DemoPool;
use nl2vis_prompt::{build_prompt, PromptFormat, PromptOptions};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Demonstrations per prompt in every workload.
pub const SHOTS: usize = 5;
/// Seed of the simulated models' "weights" and of the baseline's training.
/// Fixed like the corpus: the models are the system under test, not input.
pub const MODEL_SEED: u64 = 20240115;

/// The default corpus and the in-domain split the workload seed picks.
pub struct World {
    pub corpus: Corpus,
    pub split: Split,
    /// How long `Corpus::build` took.
    pub corpus_build: Duration,
}

impl World {
    /// The corpus is the default one (the paper-sized configuration) for
    /// every seed, so every seed costs about the same to serve; the seed
    /// picks which examples are test, training and demonstrations.
    pub fn build(seed: u64) -> World {
        let started = Instant::now();
        let corpus = Corpus::build(&CorpusConfig::default());
        let corpus_build = started.elapsed();
        let split = corpus.split_in_domain(seed);
        World {
            corpus,
            split,
            corpus_build,
        }
    }

    pub fn example(&self, id: usize) -> &Example {
        // Ids are positions: `Corpus::build` numbers examples as it pushes them.
        let e = &self.corpus.examples[id];
        assert_eq!(e.id, id, "corpus example ids are positions");
        e
    }

    pub fn database(&self, name: &str) -> &Database {
        self.corpus
            .catalog
            .database(name)
            .expect("every example's database is in the catalog")
    }

    /// Every database by name, shared for the validators and resolvers of
    /// the serving stack.
    pub fn databases(&self) -> Arc<BTreeMap<String, Arc<Database>>> {
        Arc::new(
            self.corpus
                .catalog
                .iter()
                .map(|d| (d.name().to_string(), Arc::new(d.clone())))
                .collect(),
        )
    }

    /// The study configuration every workload prompts with.
    pub fn eval_config(format: PromptFormat, workers: usize) -> LlmEvalConfig {
        LlmEvalConfig {
            format,
            shots: SHOTS,
            selection: Selection::Similarity,
            workers: Some(workers),
            ..LlmEvalConfig::default()
        }
    }

    pub fn prompt_options(config: &LlmEvalConfig) -> PromptOptions {
        PromptOptions {
            format: config.format,
            answer: config.answer,
            token_budget: config.token_budget,
            chain_of_thought: config.chain_of_thought,
            role_play: config.role_play,
        }
    }

    /// The demonstration pool over the training split.
    pub fn pool(&self) -> DemoPool<'_> {
        let candidates: Vec<&Example> = self
            .split
            .train
            .iter()
            .map(|&id| self.example(id))
            .collect();
        DemoPool::new(&candidates)
    }

    /// Renders one prompt per test example, in split order, as the study
    /// runner does: similarity selection, then prompt assembly. With
    /// `traced`, each call is recorded as a `prompt.select` or
    /// `prompt.build` span under a `setup.render` request.
    pub fn render_prompts(&self, format: PromptFormat, traced: bool) -> Vec<String> {
        let config = World::eval_config(format, 1);
        let options = World::prompt_options(&config);
        let pool = self.pool();
        self.split
            .test
            .iter()
            .map(|&id| {
                let test = self.example(id);
                let db = self.database(&test.db);
                let _request = traced.then(|| trace::enter("setup.render"));
                let demos = {
                    let _span = traced.then(|| trace::enter("prompt.select"));
                    pick_demos_pooled(&pool, test, &config)
                };
                let _span = traced.then(|| trace::enter("prompt.build"));
                build_prompt(&options, db, &test.nl, &demos, |d| self.database(&d.db)).text
            })
            .collect()
    }
}
