//! A shared retrieval index over training examples, used by every
//! retrieval-based baseline (Seq2Vis, Transformer, ncNet, RGVisNet).

use nl2vis_corpus::Corpus;
use nl2vis_data::text::WordIndex;
use nl2vis_query::ast::VqlQuery;

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
    /// The gold query.
    pub vql: VqlQuery,
    /// Database of the training example.
    pub db: String,
}

/// A token-set similarity index over the training split.
#[derive(Debug, Clone)]
pub struct RetrievalIndex {
    entries: Vec<Entry>,
    /// The entries' questions per the index's [`TokenMode`], by entry index.
    words: WordIndex,
}

impl RetrievalIndex {
    /// Builds a raw-token index (Seq2Vis-style).
    pub fn build(corpus: &Corpus, train_ids: &[usize]) -> RetrievalIndex {
        RetrievalIndex::build_with(corpus, train_ids, TokenMode::Raw)
    }

    /// Builds an index with an explicit token mode.
    pub fn build_with(corpus: &Corpus, train_ids: &[usize], mode: TokenMode) -> RetrievalIndex {
        let mut words = match mode {
            TokenMode::Raw => WordIndex::new(&[], |w| w),
            TokenMode::Content => WordIndex::new(FILLER, |w| w),
            TokenMode::Template => WordIndex::new(FILLER, num_placeholder),
        };
        let entries = train_ids
            .iter()
            .filter_map(|id| corpus.example(*id))
            .map(|e| {
                words.push(&e.nl);
                Entry {
                    id: e.id,
                    vql: (*e.vql).clone(),
                    db: e.db.clone(),
                }
            })
            .collect();
        RetrievalIndex { entries, words }
    }

    /// Number of indexed examples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry most similar to the question, and its score: the highest
    /// score by `total_cmp`, the lowest example id among equals.
    pub fn best(&self, question: &str) -> Option<(f64, &Entry)> {
        let mut best: Option<(f64, &Entry)> = None;
        for (e, score) in self.entries.iter().zip(self.words.scores(question)) {
            if best.is_none_or(|(b, be)| score.total_cmp(&b).then(be.id.cmp(&e.id)).is_gt()) {
                best = Some((score, e));
            }
        }
        best
    }
}

/// [`TokenMode::Template`]'s normalization: an all-digit word becomes the
/// placeholder `<num>`, which no word can spell.
fn num_placeholder(w: &str) -> &str {
    if w.chars().all(|c| c.is_ascii_digit()) {
        "<num>"
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::CorpusConfig;
    use nl2vis_data::text::{jaccard_sets, words};
    use std::collections::HashSet;

    const MODES: [TokenMode; 3] = [TokenMode::Raw, TokenMode::Content, TokenMode::Template];

    /// The index as a linear scan, the reference `best` must match: each
    /// entry keeps its token set, and a query intersects the question's set
    /// with every one and fully sorts the scores (descending by
    /// `total_cmp`, then by id).
    struct LinearScan {
        mode: TokenMode,
        entries: Vec<(usize, HashSet<String>)>,
    }

    impl LinearScan {
        fn build(corpus: &Corpus, train_ids: &[usize], mode: TokenMode) -> LinearScan {
            let entries = train_ids
                .iter()
                .filter_map(|id| corpus.example(*id))
                .map(|e| (e.id, tokenize(&e.nl, mode)))
                .collect();
            LinearScan { mode, entries }
        }

        fn best(&self, question: &str) -> Option<(f64, usize)> {
            let q = tokenize(question, self.mode);
            let mut scored: Vec<(f64, usize)> = self
                .entries
                .iter()
                .map(|(id, tokens)| (jaccard_sets(&q, tokens), *id))
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            scored.into_iter().next()
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

    /// Asserts that, in every mode, the index over `train_ids` answers each
    /// question with the linear scan's best entry: the same id and the same
    /// score bits.
    fn assert_best_matches_linear_scan<'q>(
        corpus: &Corpus,
        train_ids: &[usize],
        questions: impl Iterator<Item = &'q str> + Clone,
    ) {
        for mode in MODES {
            let index = RetrievalIndex::build_with(corpus, train_ids, mode);
            let scan = LinearScan::build(corpus, train_ids, mode);
            for q in questions.clone() {
                assert_eq!(
                    index.best(q).map(|(score, e)| (score.to_bits(), e.id)),
                    scan.best(q).map(|(score, id)| (score.to_bits(), id)),
                    "{mode:?}: question {q:?}"
                );
            }
        }
    }

    /// Questions the corpus does not ask: empty, all filler, unknown
    /// words, numbers, repeats, and mixed case and punctuation.
    fn edge_questions(base: &str) -> Vec<String> {
        vec![
            String::new(),
            "Show me the chart of the records".to_string(),
            "qqq zzyzx quux".to_string(),
            format!("{base} qqq"),
            "top 5 of 12".to_string(),
            format!("{base} 7 42 2024"),
            format!("{base} {base} {base}"),
            format!("¡{}?!", base.to_uppercase().replace(' ', ", ")),
        ]
    }

    /// The index picks exactly what the linear scan picks, for every
    /// question of a small corpus and the edge questions, over a split's
    /// training ids, which come shuffled, so the entry order is not the id
    /// order and the tie rule decides.
    #[test]
    fn best_matches_the_linear_scan() {
        let c = Corpus::build(&CorpusConfig::small(31));
        let split = c.split_in_domain(3);
        let edge = edge_questions(&c.examples[7].nl);
        let questions = c
            .examples
            .iter()
            .map(|e| e.nl.as_str())
            .chain(edge.iter().map(String::as_str));
        assert_best_matches_linear_scan(&c, &split.train, questions);
    }

    /// The paper-sized check: the default corpus's in-domain and
    /// cross-domain splits of two seeds, every test question. Run it with
    /// `cargo test --release -p nl2vis-baselines -- --ignored`.
    #[test]
    #[ignore = "paper-sized; run in release"]
    fn best_matches_the_linear_scan_paper_sized() {
        let c = Corpus::build(&CorpusConfig::default());
        let edge = edge_questions(&c.examples[7].nl);
        let splits = [1, 7]
            .into_iter()
            .flat_map(|seed| [c.split_in_domain(seed), c.split_cross_domain(seed)]);
        // One thread per split: the linear scan intersects every training
        // question's set on every call.
        std::thread::scope(|scope| {
            for split in splits {
                let (c, edge) = (&c, &edge);
                scope.spawn(move || {
                    let questions = split
                        .test
                        .iter()
                        .filter_map(|&id| c.example(id))
                        .map(|e| e.nl.as_str())
                        .chain(edge.iter().map(String::as_str));
                    assert_best_matches_linear_scan(c, &split.train, questions);
                });
            }
        });
    }

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

    /// A question no entry shares a word with scores every entry 0: the
    /// lowest id wins, wherever it sits in the index.
    #[test]
    fn best_breaks_ties_toward_the_lowest_id() {
        let c = Corpus::build(&CorpusConfig::small(31));
        let ids: Vec<usize> = c.examples.iter().rev().map(|e| e.id).collect();
        let lowest = *ids.iter().min().unwrap();
        for mode in MODES {
            let index = RetrievalIndex::build_with(&c, &ids, mode);
            let (score, entry) = index.best("qqq zzyzx").unwrap();
            assert_eq!((score, entry.id), (0.0, lowest), "{mode:?}");
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
