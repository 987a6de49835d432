//! RQ3 in miniature: find cases the base model fails, then apply the four
//! iterative-updating strategies (chain-of-thought, role-play, self-repair,
//! code-interpreter) and watch failures get rescued.
//!
//! ```text
//! cargo run --example iterative_repair
//! ```

use nl2vis::corpus::{Corpus, CorpusConfig};
use nl2vis::eval::optimize::{apply_strategy, Strategy};
use nl2vis::eval::runner::{demo_pool, evaluate_llm, LlmEvalConfig};
use nl2vis::prelude::*;

fn main() {
    let corpus = Corpus::build(&CorpusConfig::small(7));
    let split = corpus.split_cross_domain(1);

    // Base run: davinci-003, 5-shot, Table2SQL (cross-domain).
    let llm = SimLlm::new(ModelProfile::davinci_003(), 3);
    let config = LlmEvalConfig {
        shots: 5,
        ..Default::default()
    };
    let report = evaluate_llm(&llm, &corpus, &split.train, &split.test, &config, Some(80));
    let failed = report.failed_ids();
    println!(
        "base run: {} evaluated, exact {:.2}, exec {:.2}, {} failures\n",
        report.overall().n(),
        report.overall().exact(),
        report.overall().exec(),
        failed.len()
    );

    // Walk the first few failures through each strategy.
    let pool = demo_pool(&corpus, &split.train);
    for id in failed.iter().take(4) {
        let example = corpus.example(*id).unwrap();
        println!("Q: {}", example.nl);
        println!("gold: {}", nl2vis::query::printer::print(&example.vql));
        let base_completion = report
            .results
            .iter()
            .find(|r| r.id == *id)
            .and_then(|r| r.completion.clone())
            .unwrap_or_default();
        println!("base: {}", base_completion.lines().last().unwrap_or(""));
        for strategy in Strategy::all() {
            let outcome = apply_strategy(strategy, &corpus, &pool, example, &config, 11);
            println!(
                "  {:<16} ({:<17}) -> exact {} exec {}",
                strategy.name(),
                strategy.model().name,
                outcome.exact,
                outcome.exec
            );
        }
        println!();
    }
}
