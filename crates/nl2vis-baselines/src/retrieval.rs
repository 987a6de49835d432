//! A shared retrieval index over training examples, used by every
//! retrieval-based baseline (Seq2Vis, Transformer, ncNet, RGVisNet).

use nl2vis_corpus::Corpus;
use nl2vis_data::text::{jaccard_sets, words};
use nl2vis_query::ast::VqlQuery;
use std::collections::HashSet;

/// Filler words shared by almost every realized question. A contextual
/// encoder (Transformer-family) effectively ignores them when matching
/// paraphrases; a plain LSTM does not — which is one of the reasons the
/// Transformer baseline outscores Seq2Vis in-domain (Table 3).
const FILLER: &[&str] = &[
    "show",
    "draw",
    "plot",
    "visualize",
    "display",
    "give",
    "me",
    "create",
    "a",
    "an",
    "the",
    "of",
    "chart",
    "graph",
    "for",
    "each",
    "by",
    "per",
    "grouped",
    "across",
    "from",
    "in",
    "using",
    "table",
    "records",
    "where",
    "is",
    "order",
    "sorted",
    "ordered",
    "ranked",
    "rank",
    "ascending",
    "descending",
    "and",
    "or",
    "to",
];

/// How the index represents questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenMode {
    /// All surface tokens (LSTM-style surface matching).
    Raw,
    /// Content words only (contextual-encoder-style matching).
    Content,
    /// Content words with numeric literals collapsed to a placeholder
    /// (template-level matching, as a fine-tuned LM's representation does).
    Template,
}

/// One indexed training example.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Training example id.
    pub id: usize,
    /// The training question.
    pub nl: String,
    /// Pre-tokenized question words (per the index's [`TokenMode`]).
    pub tokens: HashSet<String>,
    /// The gold query.
    pub vql: VqlQuery,
    /// Database of the training example.
    pub db: String,
}

/// A token-set similarity index over the training split.
#[derive(Debug, Clone)]
pub struct RetrievalIndex {
    entries: Vec<Entry>,
    mode: TokenMode,
}

impl RetrievalIndex {
    /// Builds a raw-token index (Seq2Vis-style).
    pub fn build(corpus: &Corpus, train_ids: &[usize]) -> RetrievalIndex {
        RetrievalIndex::build_with(corpus, train_ids, TokenMode::Raw)
    }

    /// Builds an index with an explicit token mode.
    pub fn build_with(corpus: &Corpus, train_ids: &[usize], mode: TokenMode) -> RetrievalIndex {
        let entries = train_ids
            .iter()
            .filter_map(|id| corpus.example(*id))
            .map(|e| Entry {
                id: e.id,
                nl: e.nl.clone(),
                tokens: tokenize(&e.nl, mode),
                vql: (*e.vql).clone(),
                db: e.db.clone(),
            })
            .collect();
        RetrievalIndex { entries, mode }
    }

    /// Number of indexed examples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` most similar entries to the question, best first.
    pub fn top(&self, question: &str, k: usize) -> Vec<(f64, &Entry)> {
        let q = tokenize(question, self.mode);
        let mut scored: Vec<(f64, &Entry)> = self
            .entries
            .iter()
            .map(|e| (jaccard_sets(&q, &e.tokens), e))
            .collect();
        // total_cmp, not partial_cmp-to-Equal: a comparator where NaN
        // equals everything is not transitive, and sort_by may reorder
        // well-behaved entries around it.
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.id.cmp(&b.1.id)));
        scored.truncate(k);
        scored
    }

    /// The single best entry, if any.
    pub fn best(&self, question: &str) -> Option<(f64, &Entry)> {
        self.top(question, 1).into_iter().next()
    }
}

/// Tokenizes per mode.
fn tokenize(text: &str, mode: TokenMode) -> HashSet<String> {
    let normalize = |w: String| {
        if w.chars().all(|c| c.is_ascii_digit()) {
            "<num>".to_string()
        } else {
            w
        }
    };
    match mode {
        TokenMode::Raw => words(text).into_iter().collect(),
        TokenMode::Content => words(text)
            .into_iter()
            .filter(|w| !FILLER.contains(&w.as_str()))
            .collect(),
        TokenMode::Template => words(text)
            .into_iter()
            .filter(|w| !FILLER.contains(&w.as_str()))
            .map(normalize)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::CorpusConfig;

    #[test]
    fn retrieves_self_with_score_one() {
        let c = Corpus::build(&CorpusConfig::small(31));
        let ids: Vec<usize> = c.examples.iter().map(|e| e.id).collect();
        let index = RetrievalIndex::build(&c, &ids);
        assert_eq!(index.len(), c.examples.len());
        let probe = &c.examples[7];
        let (score, entry) = index.best(&probe.nl).unwrap();
        assert!((score - 1.0).abs() < 1e-12);
        assert_eq!(entry.id, probe.id);
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let c = Corpus::build(&CorpusConfig::small(31));
        let ids: Vec<usize> = c.examples.iter().map(|e| e.id).collect();
        let index = RetrievalIndex::build(&c, &ids);
        let top = index.top("show a bar chart of the number of things", 5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
    }

    #[test]
    fn empty_index() {
        let c = Corpus::build(&CorpusConfig::small(31));
        let index = RetrievalIndex::build(&c, &[]);
        assert!(index.is_empty());
        assert!(index.best("anything").is_none());
    }
}
