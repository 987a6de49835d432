//! **T5-Small / T5-Base**: encoder-decoder language models *fine-tuned* on
//! the NL2VIS training split (§4.3 of the paper).
//!
//! The reproduction trains two genuinely learned components on the split:
//!
//! 1. a **lexicon** of phrase-word ↔ schema-word associations, fit from
//!    co-occurrence counts between question words and the identifier tokens
//!    of the gold query's columns — this is how a fine-tuned LM acquires
//!    "pay means salary" *from data* and why it generalizes cross-domain
//!    (the same English words recur across databases);
//! 2. a **memorization head**: near-duplicate training questions from the
//!    same database are reproduced verbatim — the reason the fine-tuned
//!    models post 0.92/0.93 in-domain in Table 3.
//!
//! Capacity (Small vs Base) sets the lexicon's evidence threshold and the
//! residual decoder noise.

use crate::retrieval::RetrievalIndex;
use crate::Nl2VisModel;
use nl2vis_corpus::pools::SYNONYMS;
use nl2vis_corpus::Corpus;
use nl2vis_data::text::{split_identifier, words};
use nl2vis_data::{seed_hash, Database, Rng};
use nl2vis_llm::corrupt_query;
use nl2vis_llm::recover::RecoveredSchema;
use nl2vis_llm::understand::{ground, parse_question};
use nl2vis_query::ast::{ColumnRef, Predicate, SelectExpr, VqlQuery};
use std::collections::HashMap;
use std::sync::Arc;

/// Model capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum T5Size {
    /// 60M parameters.
    Small,
    /// 220M parameters.
    Base,
}

impl T5Size {
    /// Paper-reported parameter count (Table 4).
    pub fn params(self) -> &'static str {
        match self {
            T5Size::Small => "60M",
            T5Size::Base => "220M",
        }
    }

    /// Paper-reported artifact size (Table 4).
    pub fn model_size(self) -> &'static str {
        match self {
            T5Size::Small => "200MB",
            T5Size::Base => "500MB",
        }
    }

    /// Evidence threshold for learning a lexicon entry: the bigger model
    /// picks up rarer associations.
    fn lexicon_threshold(self) -> u32 {
        match self {
            T5Size::Small => 2,
            T5Size::Base => 1,
        }
    }

    /// Residual decoder-slip budget after fine-tuning.
    fn decoder_noise(self) -> f64 {
        match self {
            T5Size::Small => 0.40,
            T5Size::Base => 0.16,
        }
    }

    /// Pretraining world knowledge: T5 is a *pretrained* language model, so
    /// beyond what fine-tuning teaches, it already knows a share of English
    /// synonymy. This is what carries synonym linking onto unseen domains —
    /// the fine-tuned lexicon alone cannot (its domain-specific pairs never
    /// occur in other domains' training data; see Ablation 2).
    fn world_knowledge(self) -> f64 {
        match self {
            T5Size::Small => 0.52,
            T5Size::Base => 0.72,
        }
    }
}

/// The learned phrase-word ↔ schema-word lexicon.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    counts: HashMap<(String, String), u32>,
}

impl Lexicon {
    /// Fits co-occurrence counts between question words and the identifier
    /// tokens of columns referenced by the gold query.
    pub fn fit(corpus: &Corpus, train_ids: &[usize]) -> Lexicon {
        let mut counts: HashMap<(String, String), u32> = HashMap::new();
        for id in train_ids {
            let Some(e) = corpus.example(*id) else {
                continue;
            };
            let q_words = words(&e.nl);
            let mut schema_words = Vec::new();
            collect_column_words(&e.vql, &mut schema_words);
            for qw in &q_words {
                for sw in &schema_words {
                    *counts.entry((qw.clone(), sw.clone())).or_insert(0) += 1;
                }
            }
        }
        Lexicon { counts }
    }

    /// Total observations of (phrase word, schema word).
    pub fn count(&self, phrase_word: &str, schema_word: &str) -> u32 {
        self.counts
            .get(&(phrase_word.to_string(), schema_word.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Has the model learned the synonym-dictionary entry for `alias`?
    /// True when training co-occurrence evidence for (alias, canonical)
    /// meets the capacity threshold.
    pub fn knows_alias(&self, alias: &str, threshold: u32) -> bool {
        SYNONYMS
            .iter()
            .filter(|(a, _)| *a == alias)
            .any(|(a, canonical)| self.count(a, canonical) >= threshold)
    }

    /// Number of learned (above-threshold) synonym entries.
    pub fn learned_entries(&self, threshold: u32) -> usize {
        SYNONYMS
            .iter()
            .filter(|(a, _)| self.knows_alias(a, threshold))
            .count()
    }
}

fn collect_column_words(q: &VqlQuery, out: &mut Vec<String>) {
    let mut push_col = |c: &ColumnRef| {
        out.extend(split_identifier(&c.column));
    };
    if let SelectExpr::Column(c) = &q.x {
        push_col(c);
    }
    match &q.y {
        SelectExpr::Column(c) => push_col(c),
        SelectExpr::Agg { arg: Some(c), .. } => push_col(c),
        SelectExpr::Agg { arg: None, .. } => {}
    }
    if let Some(f) = &q.filter {
        collect_predicate_words(f, out);
    }
    for g in &q.group_by {
        out.extend(split_identifier(&g.column));
    }
}

fn collect_predicate_words(p: &Predicate, out: &mut Vec<String>) {
    match p {
        Predicate::Cmp { col, .. } => out.extend(split_identifier(&col.column)),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            collect_predicate_words(a, out);
            collect_predicate_words(b, out);
        }
        Predicate::InSubquery { col, subquery, .. } => {
            out.extend(split_identifier(&col.column));
            if let Some(inner) = &subquery.filter {
                collect_predicate_words(inner, out);
            }
        }
    }
}

/// A fine-tuned T5 model. Its trained state is shared, so a clone (one per
/// hosted service) costs two reference counts.
#[derive(Debug, Clone)]
pub struct T5Model {
    size: T5Size,
    lexicon: Arc<Lexicon>,
    memory: Arc<RetrievalIndex>,
    seed: u64,
    name: &'static str,
}

impl T5Model {
    /// Fine-tunes the model on a training split.
    pub fn train(corpus: &Corpus, train_ids: &[usize], size: T5Size, seed: u64) -> T5Model {
        T5Model {
            size,
            lexicon: Arc::new(Lexicon::fit(corpus, train_ids)),
            memory: Arc::new(RetrievalIndex::build_with(
                corpus,
                train_ids,
                crate::retrieval::TokenMode::Template,
            )),
            seed,
            name: match size {
                T5Size::Small => "T5-Small",
                T5Size::Base => "T5-Base",
            },
        }
    }

    /// The learned lexicon (exposed for the ablation bench).
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Model capacity.
    pub fn size(&self) -> T5Size {
        self.size
    }
}

impl Nl2VisModel for T5Model {
    fn name(&self) -> &str {
        self.name
    }

    fn predict(&self, question: &str, db: &Database) -> Option<VqlQuery> {
        // Memorization head: a near-duplicate training question over the
        // same database decodes to its memorized target.
        if let Some((score, entry)) = self.memory.best(question) {
            if score >= 0.55 && entry.db == db.name() {
                return Some(entry.vql.clone());
            }
        }

        // Learned semantic parsing: intent parse + grounding where synonym
        // knowledge is the union of (a) what fine-tuning's lexicon picked up
        // from co-occurrence and (b) a capacity-dependent share of
        // pretraining synonymy.
        let schema = RecoveredSchema::from_database(db);
        let intent = parse_question(question);
        let threshold = self.size.lexicon_threshold();
        let lexicon = &self.lexicon;
        let wk = self.size.world_knowledge();
        let seed = self.seed;
        let knows = move |alias: &str| {
            lexicon.knows_alias(alias, threshold)
                || (seed_hash(alias) ^ seed.rotate_left(29)) % 10_000 < (wk * 10_000.0) as u64
        };
        let mut grounding = ground(&intent, &schema, &knows)?;

        // Residual decoder noise (seeded, query-deterministic).
        let mut rng = Rng::new(seed_hash(question) ^ self.seed.rotate_left(13));
        let mut budget = self.size.decoder_noise();
        budget += 0.10 * grounding.risk.filters_unlinked as f64;
        if grounding.risk.x_unlinked {
            budget += 0.20;
        }
        corrupt_query(&mut grounding.query, &schema, budget, 1.0, &mut rng);
        Some(grounding.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::CorpusConfig;
    use nl2vis_query::canon::exact_match;

    fn setup() -> (Corpus, Vec<usize>) {
        let c = Corpus::build(&CorpusConfig {
            seed: 59,
            instances_per_domain: 1,
            queries_per_db: 16,
            paraphrases: (2, 3),
        });
        let ids: Vec<usize> = c.examples.iter().map(|e| e.id).collect();
        (c, ids)
    }

    #[test]
    fn lexicon_learns_synonyms_from_data() {
        let (c, ids) = setup();
        let lex = Lexicon::fit(&c, &ids);
        // Something should be learned: aliases like "pay" co-occur with
        // salary columns across domains.
        let learned = lex.learned_entries(1);
        assert!(learned > 5, "lexicon learned only {learned} entries");
        // Higher thresholds learn less.
        assert!(lex.learned_entries(5) <= learned);
    }

    #[test]
    fn base_learns_more_than_small() {
        let (c, ids) = setup();
        let small = T5Model::train(&c, &ids, T5Size::Small, 1);
        let base = T5Model::train(&c, &ids, T5Size::Base, 1);
        let s = small
            .lexicon()
            .learned_entries(T5Size::Small.lexicon_threshold());
        let b = base
            .lexicon()
            .learned_entries(T5Size::Base.lexicon_threshold());
        assert!(
            b >= s,
            "base ({b}) should learn at least as much as small ({s})"
        );
    }

    #[test]
    fn memorizes_training_examples() {
        let (c, ids) = setup();
        let m = T5Model::train(&c, &ids, T5Size::Base, 1);
        let mut exact = 0;
        for e in c.examples.iter().take(40) {
            let db = c.catalog.database(&e.db).unwrap();
            if m.predict(&e.nl, db)
                .is_some_and(|p| exact_match(&p, &e.vql))
            {
                exact += 1;
            }
        }
        assert!(
            exact >= 36,
            "fine-tuned model should reproduce training data, got {exact}/40"
        );
    }

    #[test]
    fn generalizes_cross_domain_better_than_seq2vis() {
        let (c, _) = setup();
        let split = c.split_cross_domain(1);
        let t5 = T5Model::train(&c, &split.train, T5Size::Base, 1);
        let s2v = crate::Seq2Vis::train(&c, &split.train);
        let mut t5_ok = 0;
        let mut s2v_ok = 0;
        for id in split.test.iter().take(60) {
            let e = c.example(*id).unwrap();
            let db = c.catalog.database(&e.db).unwrap();
            if t5
                .predict(&e.nl, db)
                .is_some_and(|p| exact_match(&p, &e.vql))
            {
                t5_ok += 1;
            }
            if s2v
                .predict(&e.nl, db)
                .is_some_and(|p| exact_match(&p, &e.vql))
            {
                s2v_ok += 1;
            }
        }
        assert!(
            t5_ok > s2v_ok,
            "T5 ({t5_ok}) should beat Seq2Vis ({s2v_ok}) cross-domain"
        );
    }

    #[test]
    fn predictions_are_deterministic() {
        let (c, ids) = setup();
        let m = T5Model::train(&c, &ids, T5Size::Small, 7);
        let e = &c.examples[5];
        let db = c.catalog.database(&e.db).unwrap();
        assert_eq!(m.predict(&e.nl, db), m.predict(&e.nl, db));
    }

    #[test]
    fn size_metadata() {
        assert_eq!(T5Size::Small.params(), "60M");
        assert_eq!(T5Size::Base.model_size(), "500MB");
    }
}
