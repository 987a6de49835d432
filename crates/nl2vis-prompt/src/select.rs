//! Demonstration selection for in-context learning.
//!
//! The paper selects demonstrations by Jaccard similarity to the test
//! question (§2.2.2) and, in RQ2-2 / Figure 8, controls the *diversity* of
//! the demonstrations: `A` distinct databases × `B` examples per database.

use nl2vis_corpus::Example;
use nl2vis_data::text::{jaccard_sets, words, WordIndex};
use nl2vis_data::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Template filler words carried by almost every realized question; they
/// would otherwise dominate the Jaccard signal and drown out the schema
/// words that identify the relevant database.
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
    "number",
    "how",
    "many",
    "count",
    "total",
    "sum",
    "average",
    "mean",
    "combined",
];

/// Extracts the content-word set of a question.
fn content_set(text: &str) -> HashSet<String> {
    words(text)
        .into_iter()
        .filter(|w| !FILLER.contains(&w.as_str()))
        .collect()
}

/// One pooled example.
struct Entry<'a> {
    example: &'a Example,
    /// `example.id`, kept beside the scores so that filtering and ranking
    /// the whole pool never dereferences an example.
    id: usize,
    /// Its database's index into [`DemoPool::by_db`].
    db: usize,
}

/// A demonstration pool indexed for repeated selections over one training
/// split. Its [`WordIndex`] holds each question's content words (the
/// [`FILLER`] words skipped), so a selection scores every entry from
/// integer counts with the function [`jaccard_sets`] uses, and so ranks
/// exactly as the tokenize-per-call free functions do.
pub struct DemoPool<'a> {
    entries: Vec<Entry<'a>>,
    /// The entries' questions, by entry index.
    words: WordIndex,
    /// Per database, in name order: its entries, ascending.
    by_db: Vec<Vec<u32>>,
}

impl<'a> DemoPool<'a> {
    /// Builds the pool from candidate examples.
    pub fn new(pool: &[&'a Example]) -> DemoPool<'a> {
        assert!(
            u32::try_from(pool.len()).is_ok(),
            "a pool holds fewer than 2^32 examples"
        );
        let names: BTreeSet<&str> = pool.iter().map(|e| e.db.as_str()).collect();
        let db_index: HashMap<&str, usize> =
            names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut by_db = vec![Vec::new(); names.len()];
        let mut words = WordIndex::new(FILLER, |w| w);
        let mut entries = Vec::with_capacity(pool.len());
        for (i, e) in (0u32..).zip(pool) {
            words.push(&e.nl);
            let db = db_index[e.db.as_str()];
            by_db[db].push(i);
            entries.push(Entry {
                example: e,
                id: e.id,
                db,
            });
        }
        DemoPool {
            entries,
            words,
            by_db,
        }
    }

    /// Number of pooled examples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The top `k` of one database's entries, excluding `exclude_id`.
    fn rank_db(&self, db: usize, scores: &[f64], k: usize, exclude_id: usize) -> Vec<&'a Example> {
        let scored = self.by_db[db]
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| self.entries[i].id != exclude_id)
            .map(|i| (scores[i], self.entries[i].id, self.entries[i].example))
            .collect();
        rank_scored(scored, k)
    }

    /// Top-`k` most similar demonstrations, excluding `exclude_id`.
    pub fn select_similar(&self, question: &str, k: usize, exclude_id: usize) -> Vec<&'a Example> {
        let scored = self
            .entries
            .iter()
            .zip(self.words.scores(question))
            .filter(|(e, _)| e.id != exclude_id)
            .map(|(e, score)| (score, e.id, e.example))
            .collect();
        rank_scored(scored, k)
    }

    /// All `k` demonstrations from the single most relevant database: the
    /// database of the first entry, in pool order, with the best score.
    pub fn select_same_db(&self, question: &str, k: usize, exclude_id: usize) -> Vec<&'a Example> {
        let scores = self.words.scores(question);
        let mut best: Option<(usize, f64)> = None;
        for (e, &score) in self.entries.iter().zip(&scores) {
            if e.id != exclude_id && best.is_none_or(|(_, b)| score.total_cmp(&b).is_gt()) {
                best = Some((e.db, score));
            }
        }
        match best {
            Some((db, _)) => self.rank_db(db, &scores, k, exclude_id),
            None => Vec::new(),
        }
    }

    /// `dbs × per_db` demonstrations from distinct databases.
    pub fn select_grouped(
        &self,
        question: &str,
        dbs: usize,
        per_db: usize,
        exclude_id: usize,
    ) -> Vec<&'a Example> {
        let scores = self.words.scores(question);
        // Each database's best score; one whose only entry is excluded
        // drops out.
        let mut ranked: Vec<(f64, usize)> = self
            .by_db
            .iter()
            .enumerate()
            .filter_map(|(db, members)| {
                members
                    .iter()
                    .filter(|&&i| self.entries[i as usize].id != exclude_id)
                    .map(|&i| scores[i as usize])
                    .max_by(f64::total_cmp)
                    .map(|best| (best, db))
            })
            .collect();
        // Database indices follow name order: ties go to the first name.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked
            .into_iter()
            .take(dbs)
            .flat_map(|(_, db)| self.rank_db(db, &scores, per_db, exclude_id))
            .collect()
    }
}

/// Sorts `(score, example id, demonstration)` triples best-first (ties
/// broken by example id) and returns the top `k` demonstrations. `total_cmp`
/// keeps the comparator a total order — a `partial_cmp`-to-`Equal`
/// fallback makes NaN compare equal to *everything*, which violates sort's
/// transitivity contract and can scramble an otherwise well-ordered list.
/// Only the top `k` are sorted: partitioning around the `k`-th first keeps
/// a 5-of-3,654 selection linear. The order is total over a pool's
/// distinct ids, so this returns exactly what a full sort would.
fn rank_scored(mut scored: Vec<(f64, usize, &Example)>, k: usize) -> Vec<&Example> {
    let order = |a: &(f64, usize, &Example), b: &(f64, usize, &Example)| {
        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
    };
    if k < scored.len() {
        scored.select_nth_unstable_by(k, order);
        scored.truncate(k);
    }
    scored.sort_by(order);
    scored.into_iter().map(|(_, _, e)| e).collect()
}

/// Selects up to `k` demonstrations from the pool, most Jaccard-similar to
/// the question first.
pub fn select_by_similarity<'a>(
    pool: &[&'a Example],
    question: &str,
    k: usize,
) -> Vec<&'a Example> {
    let q = content_set(question);
    let scored = pool
        .iter()
        .map(|e| (jaccard_sets(&q, &content_set(&e.nl)), e.id, *e))
        .collect();
    rank_scored(scored, k)
}

/// Selects demonstrations restricted to one database, which supplies all `k`
/// examples (mimicking "examples drawn from the same database" in Figure
/// 8): the database of the pool's first example, in pool order, with the
/// best similarity to the question.
pub fn select_same_database<'a>(
    pool: &[&'a Example],
    question: &str,
    k: usize,
) -> Vec<&'a Example> {
    let q = content_set(question);
    let mut best: Option<(&str, f64)> = None;
    for e in pool {
        let score = jaccard_sets(&q, &content_set(&e.nl));
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((e.db.as_str(), score));
        }
    }
    match best {
        Some((db, _)) => {
            let same: Vec<&Example> = pool.iter().copied().filter(|e| e.db == db).collect();
            select_by_similarity(&same, question, k)
        }
        None => Vec::new(),
    }
}

/// Selects `n_dbs × per_db` demonstrations from `n_dbs` distinct databases
/// (`A × B` of Figure 8). Databases are ranked by similarity; within each,
/// the most similar examples are taken. Falls back to fewer databases when
/// the pool has too few.
pub fn select_grouped<'a>(
    pool: &[&'a Example],
    question: &str,
    n_dbs: usize,
    per_db: usize,
) -> Vec<&'a Example> {
    let by_db = group_by_db(pool);
    let q = content_set(question);
    let mut ranked: Vec<(&str, f64)> = by_db
        .iter()
        .map(|(db, examples)| {
            let score = examples
                .iter()
                .map(|e| jaccard_sets(&q, &content_set(&e.nl)))
                .fold(f64::MIN, f64::max);
            (*db, score)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = Vec::new();
    for (db, _) in ranked.into_iter().take(n_dbs) {
        out.extend(select_by_similarity(&by_db[db], question, per_db));
    }
    out
}

/// Selects `k` random demonstrations (ablation baseline for the
/// similarity-based selector).
pub fn select_random<'a>(pool: &[&'a Example], k: usize, rng: &mut Rng) -> Vec<&'a Example> {
    let idx = rng.sample_indices(pool.len(), k);
    idx.into_iter().map(|i| pool[i]).collect()
}

fn group_by_db<'a>(pool: &[&'a Example]) -> BTreeMap<&'a str, Vec<&'a Example>> {
    let mut map: BTreeMap<&str, Vec<&Example>> = BTreeMap::new();
    for e in pool {
        map.entry(e.db.as_str()).or_default().push(e);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis_corpus::{Corpus, CorpusConfig};
    use std::collections::HashSet;

    fn corpus() -> Corpus {
        Corpus::build(&CorpusConfig::small(11))
    }

    #[test]
    fn similarity_selection_prefers_similar() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let probe = &c.examples[5];
        let picked = select_by_similarity(&pool, &probe.nl, 3);
        assert_eq!(picked.len(), 3);
        // The probe itself is in the pool and maximally similar.
        assert_eq!(picked[0].id, probe.id);
    }

    #[test]
    fn same_database_selection_is_single_db() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let picked = select_same_database(&pool, &c.examples[0].nl, 4);
        let dbs: HashSet<&str> = picked.iter().map(|e| e.db.as_str()).collect();
        assert_eq!(dbs.len(), 1);
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn grouped_selection_spans_databases() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let picked = select_grouped(&pool, &c.examples[0].nl, 3, 2);
        assert_eq!(picked.len(), 6);
        let dbs: HashSet<&str> = picked.iter().map(|e| e.db.as_str()).collect();
        assert_eq!(dbs.len(), 3);
    }

    #[test]
    fn grouped_caps_at_available_databases() {
        let c = corpus();
        let one_db = c.examples[0].db.clone();
        let pool: Vec<&Example> = c.examples.iter().filter(|e| e.db == one_db).collect();
        let picked = select_grouped(&pool, "anything", 4, 1);
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn random_selection_is_distinct_and_seeded() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let a = select_random(&pool, 5, &mut Rng::new(3));
        let b = select_random(&pool, 5, &mut Rng::new(3));
        assert_eq!(
            a.iter().map(|e| e.id).collect::<Vec<_>>(),
            b.iter().map(|e| e.id).collect::<Vec<_>>()
        );
        let ids: HashSet<usize> = a.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 5);
    }

    /// Asserts that the three pooled selectors pick exactly what the
    /// tokenize-per-call free functions pick over the same pool without
    /// `exclude_id`.
    fn assert_pooled_matches(
        pool: &DemoPool,
        refs: &[&Example],
        question: &str,
        exclude_id: usize,
    ) {
        let rest: Vec<&Example> = refs
            .iter()
            .copied()
            .filter(|e| e.id != exclude_id)
            .collect();
        let ids = |v: Vec<&Example>| v.iter().map(|e| e.id).collect::<Vec<_>>();
        let case = format!("question {question:?}, excluding {exclude_id}");
        assert_eq!(
            ids(pool.select_similar(question, 4, exclude_id)),
            ids(select_by_similarity(&rest, question, 4)),
            "similar: {case}"
        );
        assert_eq!(
            ids(pool.select_same_db(question, 4, exclude_id)),
            ids(select_same_database(&rest, question, 4)),
            "same database: {case}"
        );
        assert_eq!(
            ids(pool.select_grouped(question, 3, 2, exclude_id)),
            ids(select_grouped(&rest, question, 3, 2)),
            "grouped: {case}"
        );
    }

    /// The pooled selectors score from an inverted index; they must pick
    /// exactly what the free functions pick, for every corpus question
    /// (asked by its own example, and by none) and for questions with no
    /// content words, words no entry contains, repeats, and mixed case and
    /// punctuation. One pooled question is all filler, so an empty question
    /// meets an empty entry: Jaccard scores that 1.0.
    #[test]
    fn pooled_selectors_match_free_functions() {
        let c = corpus();
        let filler = Example {
            id: c.examples.len(),
            nl: "Show me the chart of the records".to_string(),
            ..c.examples[3].clone()
        };
        let mut refs: Vec<&Example> = c.examples.iter().collect();
        refs.push(&filler);
        let pool = DemoPool::new(&refs);
        // exclude_id past every id: the pooled methods exclude nothing,
        // same as the free functions.
        let none = usize::MAX;
        // Two threads share the probes: the free functions tokenize the
        // whole pool on every call.
        std::thread::scope(|scope| {
            for probes in c.examples.chunks(c.examples.len().div_ceil(2)) {
                let (pool, refs) = (&pool, &refs);
                scope.spawn(move || {
                    for probe in probes {
                        assert_pooled_matches(pool, refs, &probe.nl, probe.id);
                        assert_pooled_matches(pool, refs, &probe.nl, none);
                    }
                });
            }
        });
        let base = &c.examples[7].nl;
        let questions = [
            String::new(),
            "Show me the chart".to_string(),
            "qqq zzyzx quux".to_string(),
            format!("{base} qqq"),
            format!("{base} {base} {base}"),
            format!("¡{}?!", base.to_uppercase().replace(' ', ", ")),
        ];
        for q in &questions {
            for exclude_id in [none, filler.id, c.examples[7].id] {
                assert_pooled_matches(&pool, &refs, q, exclude_id);
            }
        }
        // The both-empty rule decides these: only the filler entry scores.
        for q in ["", "Show me the chart"] {
            assert_eq!(pool.select_similar(q, 1, none)[0].id, filler.id);
        }
    }

    /// The paper-sized check: the default corpus's in-domain training split
    /// as the pool, every test question as the probe. Run it with
    /// `cargo test --release -p nl2vis-prompt -- --ignored`.
    #[test]
    #[ignore = "paper-sized; run in release"]
    fn pooled_selectors_match_free_functions_paper_sized() {
        let c = Corpus::build(&CorpusConfig::default());
        let split = c.split_in_domain(1);
        let refs: Vec<&Example> = split.train.iter().map(|&id| &c.examples[id]).collect();
        let pool = DemoPool::new(&refs);
        // Two threads share the probes, as in the debug check above.
        std::thread::scope(|scope| {
            for probes in split.test.chunks(split.test.len().div_ceil(2)) {
                let (c, pool, refs) = (&c, &pool, &refs);
                scope.spawn(move || {
                    for &id in probes {
                        let probe = &c.examples[id];
                        assert_pooled_matches(pool, refs, &probe.nl, probe.id);
                    }
                });
            }
        });
    }

    #[test]
    fn pooled_same_db_is_single_db_and_excludes() {
        let c = corpus();
        let pool_refs: Vec<&Example> = c.examples.iter().collect();
        let pool = DemoPool::new(&pool_refs);
        let probe = &c.examples[5];
        let picked = pool.select_same_db(&probe.nl, 4, probe.id);
        let dbs: HashSet<&str> = picked.iter().map(|e| e.db.as_str()).collect();
        assert_eq!(dbs.len(), 1);
        assert!(picked.iter().all(|e| e.id != probe.id));
    }

    #[test]
    fn selection_deterministic_under_ties() {
        let c = corpus();
        let pool: Vec<&Example> = c.examples.iter().collect();
        let a = select_by_similarity(&pool, "completely unrelated words qqq", 4);
        let b = select_by_similarity(&pool, "completely unrelated words qqq", 4);
        assert_eq!(
            a.iter().map(|e| e.id).collect::<Vec<_>>(),
            b.iter().map(|e| e.id).collect::<Vec<_>>()
        );
    }
}
