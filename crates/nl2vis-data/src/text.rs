//! Text utilities shared by the demonstration selector and schema linkers:
//! identifier tokenization, lowercase word extraction, and Jaccard
//! similarity (the paper selects demonstration rows and examples by Jaccard
//! similarity, §2.2.2 and §5.1.1).

use std::collections::HashSet;

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
