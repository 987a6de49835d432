//! Text utilities shared by the demonstration selector, the retrieval
//! baselines and the schema linkers: identifier tokenization, lowercase
//! word extraction, Jaccard similarity (the paper selects demonstration
//! rows and examples by Jaccard similarity, §2.2.2 and §5.1.1), and
//! [`WordIndex`], the inverted index that scores a question against many
//! documents at once.

use std::collections::{HashMap, HashSet};

/// Splits an identifier into lowercase word tokens: `snake_case`,
/// `kebab-case`, `camelCase`, `PascalCase` and digit boundaries are all word
/// breaks. `"orderID2"` → `["order", "id", "2"]`.
pub fn split_identifier(ident: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for c in ident.chars() {
        if c == '_' || c == '-' || c == ' ' || c == '.' {
            flush(&mut words, &mut current);
            prev_lower = false;
        } else if c.is_ascii_uppercase() {
            if prev_lower {
                flush(&mut words, &mut current);
            }
            current.push(c.to_ascii_lowercase());
            prev_lower = false;
        } else if c.is_ascii_digit() {
            if !current
                .chars()
                .next_back()
                .is_some_and(|p| p.is_ascii_digit())
                && !current.is_empty()
            {
                flush(&mut words, &mut current);
            }
            current.push(c);
            prev_lower = false;
        } else {
            current.push(c.to_ascii_lowercase());
            prev_lower = true;
        }
    }
    flush(&mut words, &mut current);
    words
}

fn flush(words: &mut Vec<String>, current: &mut String) {
    if !current.is_empty() {
        words.push(std::mem::take(current));
    }
}

/// Lowercase alphanumeric word tokens from free text. Punctuation is
/// discarded; digits stay attached to their run (`"top 5"` → `["top","5"]`).
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_word(text, |w| out.push(w.to_string()));
    out
}

/// Calls `f` on each of [`words`]' tokens in order, through one reused
/// buffer, so a caller that only looks words up allocates nothing per word.
pub fn for_each_word(text: &str, mut f: impl FnMut(&str)) {
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.push(c.to_ascii_lowercase());
        } else if !current.is_empty() {
            f(&current);
            current.clear();
        }
    }
    if !current.is_empty() {
        f(&current);
    }
}

/// Jaccard similarity of the word sets of two strings: |A∩B| / |A∪B|.
/// Returns 1.0 when both are empty.
pub fn jaccard(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = words(a).into_iter().collect();
    let sb: HashSet<String> = words(b).into_iter().collect();
    jaccard_sets(&sa, &sb)
}

/// Jaccard similarity of two pre-tokenized word sets.
pub fn jaccard_sets(sa: &HashSet<String>, sb: &HashSet<String>) -> f64 {
    jaccard_counts(sa.len(), sb.len(), sa.intersection(sb).count())
}

/// Jaccard similarity from set sizes alone: `|A∩B| / |A∪B|` given `|A|`,
/// `|B|` and `|A∩B|`, and 1.0 when both sets are empty. Every Jaccard score
/// is computed here, so a caller that counts the intersection another way
/// (an inverted index) gets bit-identical scores.
pub fn jaccard_counts(a: usize, b: usize, inter: usize) -> f64 {
    if a == 0 && b == 0 {
        return 1.0;
    }
    let inter = inter as f64;
    let union = (a + b) as f64 - inter;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// The word id every skip word is interned to, so that the lookup that finds
/// a word's id also drops skip words.
const SKIP_ID: u32 = u32::MAX;

/// An inverted index over the word sets of a list of documents, scoring a
/// question's Jaccard similarity to every document at once.
///
/// A document's or question's words are [`for_each_word`]'s tokens, each
/// passed through the index's normalization and then dropped if it is one
/// of the skip words; what is left is taken as a set. Each word is interned
/// once to an id that owns the ascending list of the documents containing
/// it, and each document keeps its set size. A question is scored by
/// counting `|A∩B|` for every document along only the question's postings,
/// then calling [`jaccard_counts`] — the function [`jaccard_sets`] uses —
/// so the scores are bit-identical to intersecting per-document sets.
#[derive(Debug, Clone)]
pub struct WordIndex {
    /// Normalized word → word id ([`SKIP_ID`] for a skip word).
    word_ids: HashMap<String, u32>,
    /// Per word id: the documents containing the word, ascending.
    postings: Vec<Vec<u32>>,
    /// Per document: the size of its word set.
    sizes: Vec<u32>,
    normalize: fn(&str) -> &str,
}

impl WordIndex {
    /// An empty index that drops `skip` words and maps every word through
    /// `normalize` first (`|w| w` for none).
    pub fn new(skip: &[&str], normalize: fn(&str) -> &str) -> WordIndex {
        WordIndex {
            word_ids: skip.iter().map(|w| (w.to_string(), SKIP_ID)).collect(),
            postings: Vec::new(),
            sizes: Vec::new(),
            normalize,
        }
    }

    /// Appends a document. Documents are numbered in the order they are
    /// pushed, from 0, and [`scores`](Self::scores) lists them so.
    pub fn push(&mut self, text: &str) {
        let doc =
            u32::try_from(self.sizes.len()).expect("an index holds fewer than 2^32 documents");
        let mut size = 0;
        for_each_word(text, |w| {
            let w = (self.normalize)(w);
            let id = match self.word_ids.get(w) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.postings.len()).expect("fewer than 2^32 words");
                    self.word_ids.insert(w.to_string(), id);
                    self.postings.push(Vec::new());
                    id
                }
            };
            if id == SKIP_ID {
                return;
            }
            // Documents arrive in order, so a word repeated within this one
            // already ends its list.
            let list = &mut self.postings[id as usize];
            if list.last() != Some(&doc) {
                list.push(doc);
                size += 1;
            }
        });
        self.sizes.push(size);
    }

    /// Every document's Jaccard similarity to `question`'s word set, by
    /// document index.
    pub fn scores(&self, question: &str) -> Vec<f64> {
        let mut ids = Vec::new();
        // Words no document contains still count toward the question's set.
        let mut unseen: Vec<String> = Vec::new();
        for_each_word(question, |w| {
            let w = (self.normalize)(w);
            match self.word_ids.get(w) {
                Some(&SKIP_ID) => {}
                Some(&id) => ids.push(id),
                None if unseen.iter().any(|u| u == w) => {}
                None => unseen.push(w.to_string()),
            }
        });
        ids.sort_unstable();
        ids.dedup();
        let size = ids.len() + unseen.len();
        let mut inter = vec![0u32; self.sizes.len()];
        for id in ids {
            for &doc in &self.postings[id as usize] {
                inter[doc as usize] += 1;
            }
        }
        self.sizes
            .iter()
            .zip(inter)
            .map(|(&b, n)| jaccard_counts(size, b as usize, n as usize))
            .collect()
    }
}

/// Crude singularization for schema linking ("technicians" → "technician").
/// Handles the regular English plural suffixes that appear in generated
/// schemas; irregulars go through alias lists instead.
pub fn singularize(word: &str) -> String {
    if let Some(stem) = word.strip_suffix("ies") {
        if stem.len() >= 2 {
            return format!("{stem}y");
        }
    }
    for suffix in ["ses", "xes", "zes", "ches", "shes"] {
        if let Some(stem) = word.strip_suffix(suffix) {
            return format!("{stem}{}", &suffix[..suffix.len() - 2]);
        }
    }
    if let Some(stem) = word.strip_suffix('s') {
        if !stem.ends_with('s') && stem.len() >= 2 {
            return stem.to_string();
        }
    }
    word.to_string()
}

/// Token-set equality after singularization; used to decide whether an NL
/// phrase names a schema identifier.
pub fn phrase_matches_identifier(phrase: &str, ident: &str) -> bool {
    let norm = |s: &str| -> Vec<String> {
        let mut w: Vec<String> = split_identifier(s).iter().map(|t| singularize(t)).collect();
        w.sort();
        w
    };
    norm(phrase) == norm(ident)
}

/// Approximate token count of a prompt string, for the paper's discussion of
/// LLM context-length limits. Counts word and punctuation chunks, roughly
/// matching GPT-style byte-pair tokenizers within a small constant factor.
pub fn approx_token_count(text: &str) -> usize {
    let mut count = 0usize;
    let mut in_word = false;
    for c in text.chars() {
        if c.is_alphanumeric() {
            if !in_word {
                count += 1;
                in_word = true;
            }
        } else {
            in_word = false;
            if !c.is_whitespace() {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_snake_camel_digits() {
        assert_eq!(split_identifier("order_id"), vec!["order", "id"]);
        assert_eq!(split_identifier("orderID2"), vec!["order", "id", "2"]);
        assert_eq!(
            split_identifier("CamelCaseName"),
            vec!["camel", "case", "name"]
        );
        assert_eq!(split_identifier("kebab-case"), vec!["kebab", "case"]);
        assert_eq!(split_identifier("a.b c"), vec!["a", "b", "c"]);
        assert!(split_identifier("").is_empty());
    }

    #[test]
    fn words_strip_punctuation() {
        assert_eq!(
            words("List the top 5, please!"),
            vec!["list", "the", "top", "5", "please"]
        );
    }

    #[test]
    fn jaccard_basic() {
        assert!((jaccard("a b c", "b c d") - 0.5).abs() < 1e-12);
        assert_eq!(jaccard("", ""), 1.0);
        assert_eq!(jaccard("x", ""), 0.0);
        assert_eq!(jaccard("same words", "words same"), 1.0);
    }

    fn index(skip: &[&str], normalize: fn(&str) -> &str, docs: &[&str]) -> WordIndex {
        let mut index = WordIndex::new(skip, normalize);
        for doc in docs {
            index.push(doc);
        }
        index
    }

    #[test]
    fn index_scores_match_jaccard() {
        let docs = ["a b c", "b c d", "", "x"];
        let index = index(&[], |w| w, &docs);
        for q in ["a b c", "b, C!", "", "x y", "c a c"] {
            let want: Vec<u64> = docs.iter().map(|d| jaccard(q, d).to_bits()).collect();
            let got: Vec<u64> = index.scores(q).iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "question {q:?}");
        }
        assert!(WordIndex::new(&[], |w| w).scores("a").is_empty());
    }

    #[test]
    fn index_both_empty_scores_one() {
        let index = index(&["the"], |w| w, &["", "the", "a"]);
        assert_eq!(index.scores(""), vec![1.0, 1.0, 0.0]);
        assert_eq!(index.scores("the"), vec![1.0, 1.0, 0.0]);
        assert_eq!(index.scores("a"), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn index_counts_question_words_no_document_contains() {
        let index = index(&[], |w| w, &["a b"]);
        // |A| = 3 (a, zzz, qqq), |B| = 2, |A∩B| = 1: 1 / 4.
        assert_eq!(index.scores("a zzz qqq zzz"), vec![0.25]);
        assert_eq!(index.scores("zzz"), vec![0.0]);
    }

    #[test]
    fn index_counts_a_repeated_word_once() {
        let index = index(&[], |w| w, &["a a b", "b b b"]);
        // {a} against {a, b} and {b}.
        assert_eq!(index.scores("a A a"), vec![0.5, 0.0]);
        // {b} against {a, b} and {b}.
        assert_eq!(index.scores("b b"), vec![0.5, 1.0]);
    }

    #[test]
    fn index_drops_skip_words() {
        let index = index(&["the", "of"], |w| w, &["the cat", "the of"]);
        // {dog, cat} against {cat} and {}.
        assert_eq!(index.scores("the dog of the cat"), vec![0.5, 0.0]);
        assert_eq!(index.scores("The OF"), vec![0.0, 1.0]);
    }

    #[test]
    fn index_normalizes_before_skipping() {
        fn num(w: &str) -> &str {
            if w.chars().all(|c| c.is_ascii_digit()) {
                "<num>"
            } else {
                w
            }
        }
        let index = index(&["top"], num, &["top 5 cats", "5 7 9"]);
        // {<num>, cats} and {<num>}.
        assert_eq!(index.scores("top 10 cats"), vec![1.0, 0.5]);
        assert_eq!(index.scores("3 4"), vec![0.5, 1.0]);
        // A question word that only normalizes to a known word is unseen.
        assert_eq!(index.scores("num"), vec![0.0, 0.0]);
    }

    #[test]
    fn singularize_rules() {
        assert_eq!(singularize("technicians"), "technician");
        assert_eq!(singularize("cities"), "city");
        assert_eq!(singularize("boxes"), "box");
        assert_eq!(singularize("matches"), "match");
        assert_eq!(singularize("glass"), "glass");
        assert_eq!(singularize("bus"), "bu"); // acceptable crudeness
        assert_eq!(singularize("is"), "is"); // too short to strip
    }

    #[test]
    fn phrase_identifier_match() {
        assert!(phrase_matches_identifier("customer names", "customer_name"));
        assert!(phrase_matches_identifier("OrderId", "order_id"));
        assert!(!phrase_matches_identifier("customer", "customer_name"));
    }

    #[test]
    fn token_count_rough() {
        assert_eq!(approx_token_count("hello world"), 2);
        assert_eq!(approx_token_count("a,b"), 3);
        assert_eq!(approx_token_count(""), 0);
        let long = "word ".repeat(100);
        assert_eq!(approx_token_count(&long), 100);
    }
}
