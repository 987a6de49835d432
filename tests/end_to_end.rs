//! Cross-crate integration tests: the complete pipeline of the paper's
//! Figure 3, the HTTP transport, and the renderers, over generated corpus
//! databases.

use nl2vis::corpus::{Corpus, CorpusConfig};
use nl2vis::llm::http::{CompletionServer, HttpLlmClient};
use nl2vis::prelude::*;
use nl2vis::prompt::select::select_by_similarity;

fn fixture() -> Corpus {
    Corpus::build(&CorpusConfig::small(2024))
}

#[test]
fn pipeline_solves_corpus_examples_end_to_end() {
    let corpus = fixture();
    let mut pipeline = Pipeline::new("gpt-4", 5);
    pipeline.options.token_budget = 8192;

    let mut attempted = 0;
    let mut produced = 0;
    let mut exec_correct = 0;
    for example in corpus.examples.iter().take(60) {
        let db = corpus.catalog.database(&example.db).unwrap();
        let pool: Vec<&Example> = corpus
            .examples
            .iter()
            .filter(|e| e.id != example.id)
            .collect();
        let demos = select_by_similarity(&pool, &example.nl, 8);
        attempted += 1;
        let Ok(vis) = pipeline.run_with_demos(db, &example.nl, &demos, |d| {
            corpus.catalog.database(&d.db).unwrap()
        }) else {
            continue;
        };
        produced += 1;
        // Renderers always work on an executed result.
        assert!(vis.svg().starts_with("<svg"));
        assert!(!vis.ascii().is_empty());
        let spec = vis.vega_lite();
        assert!(spec.get("mark").is_some());
        assert!(Json::parse(&spec.to_pretty()).is_ok());

        let gold = execute(&example.vql, db).unwrap();
        if vis.data.same_data(&gold) {
            exec_correct += 1;
        }
    }
    assert!(
        produced * 10 >= attempted * 8,
        "most runs should produce charts: {produced}/{attempted}"
    );
    assert!(
        exec_correct * 2 >= attempted,
        "gpt-4 with demos should solve at least half: {exec_correct}/{attempted}"
    );
}

#[test]
fn http_transport_is_equivalent_to_local_model() {
    let corpus = fixture();
    let example = &corpus.examples[3];
    let db = corpus.catalog.database(&example.db).unwrap();

    let local = SimLlm::new(ModelProfile::davinci_003(), 77);
    let server = CompletionServer::start(local.clone()).unwrap();
    let remote = HttpLlmClient::new(server.address(), "text-davinci-003");

    let local_pipeline = Pipeline::with_service(local);
    let remote_pipeline = Pipeline::with_service(remote);

    let a = local_pipeline.run(db, &example.nl);
    let b = remote_pipeline.run(db, &example.nl);
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.completion, y.completion, "transport must be lossless");
            assert!(x.data.same_data(&y.data));
        }
        (Err(_), Err(_)) => {} // both failed identically — still equivalent
        (a, b) => panic!("local/remote disagree: {a:?} vs {b:?}"),
    }
}

#[test]
fn gold_queries_render_through_every_stage() {
    let corpus = fixture();
    for example in corpus.examples.iter().take(80) {
        let db = corpus.catalog.database(&example.db).unwrap();
        // Parse ∘ print is identity on gold queries.
        let printed = nl2vis::query::printer::print(&example.vql);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(reparsed, *example.vql);
        // Execution yields data; renderers accept it.
        let result = execute(&example.vql, db).unwrap();
        assert!(!result.rows.is_empty());
        let spec = nl2vis::vega::to_vega_lite(&example.vql, &result);
        let values = spec
            .get("data")
            .and_then(|d| d.get("values"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(values.len(), result.rows.len());
        let svg = nl2vis::vega::svg::render_svg(&result);
        assert!(svg.ends_with("</svg>\n"));
    }
}

#[test]
fn catalog_integrity_across_corpus() {
    let corpus = fixture();
    corpus
        .catalog
        .validate()
        .expect("every generated database is consistent");
    // Splits cover all examples exactly once.
    for seed in [1u64, 2, 3] {
        for split in [
            corpus.split_in_domain(seed),
            corpus.split_cross_domain(seed),
        ] {
            let mut all: Vec<usize> = split
                .train
                .iter()
                .chain(&split.valid)
                .chain(&split.test)
                .copied()
                .collect();
            all.sort_unstable();
            let mut expected: Vec<usize> = corpus.examples.iter().map(|e| e.id).collect();
            expected.sort_unstable();
            assert_eq!(all, expected);
        }
    }
}

#[test]
fn baselines_and_llms_coexist_in_one_harness() {
    use nl2vis::baselines::{Nl2VisModel, Seq2Vis, T5Model, T5Size};
    use nl2vis::eval::runner::{evaluate_llm, evaluate_model, LlmEvalConfig};

    let corpus = fixture();
    let split = corpus.split_cross_domain(1);
    let t5 = T5Model::train(&corpus, &split.train, T5Size::Base, 1);
    let s2v = Seq2Vis::train(&corpus, &split.train);
    let llm = SimLlm::new(ModelProfile::gpt_4(), 1);

    let r_t5 = evaluate_model(&t5, &corpus, &split.test, Some(40));
    let r_s2v = evaluate_model(&s2v, &corpus, &split.test, Some(40));
    let config = LlmEvalConfig {
        shots: 10,
        token_budget: 8192,
        ..Default::default()
    };
    let r_llm = evaluate_llm(&llm, &corpus, &split.train, &split.test, &config, Some(40));

    // The paper's headline ordering, cross-domain: LLM ≥ fine-tuned ≥ seq2seq.
    assert!(r_llm.overall().exec() >= r_s2v.overall().exec());
    assert!(r_t5.overall().exec() >= r_s2v.overall().exec());
    assert_eq!(t5.name(), "T5-Base");
}
