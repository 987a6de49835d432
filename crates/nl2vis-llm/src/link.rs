//! Schema linking: resolving a natural-language phrase to a column of the
//! recovered schema.
//!
//! Linking tries the identifier's own words first ("hire date" →
//! `hire_date`), then synonym knowledge ("joined" → `hire_date` via the
//! world-knowledge dictionary). Synonym lookups are gated by a
//! caller-supplied predicate so that model profiles with weaker pretraining
//! knowledge miss more alias phrasings — one of the capability axes that
//! separates the simulated models.

use crate::recover::RecoveredSchema;
use nl2vis_corpus::pools::SYNONYMS;
use nl2vis_data::text::{singularize, split_identifier, words};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Stopwords ignored during phrase↔identifier matching.
const STOPWORDS: &[&str] = &[
    "the", "a", "an", "of", "each", "every", "all", "per", "for", "by", "in", "on", "their", "its",
    "his", "her", "records", "rows", "entries", "table", "is",
];

/// A successful link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The linked column name (as spelled in the schema).
    pub column: String,
    /// The owning table, when attribution was available.
    pub table: Option<String>,
    /// Match confidence in `[0, 1]`.
    pub score: f64,
    /// Whether the link needed synonym knowledge.
    pub via_synonym: bool,
}

/// Normalizes a phrase into content tokens: lowercase, stopwords removed,
/// singularized.
pub fn content_tokens(phrase: &str) -> Vec<String> {
    words(phrase)
        .into_iter()
        .filter(|w| !STOPWORDS.contains(&w.as_str()))
        .map(|w| singularize(&w))
        .collect()
}

/// Singular alias → every `(singular canonical, raw alias)` of [`SYNONYMS`]
/// with that singular alias, in dictionary order.
type SynonymTable = HashMap<String, Vec<(String, &'static str)>>;

/// [`SYNONYMS`] singularized once: linking tests every phrase token against
/// every column token.
fn singular_synonyms() -> &'static SynonymTable {
    static TABLE: OnceLock<SynonymTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = SynonymTable::new();
        for (alias, canonical) in SYNONYMS {
            table
                .entry(singularize(alias))
                .or_default()
                .push((singularize(canonical), *alias));
        }
        table
    })
}

/// Does `token` match the schema word `col_token` through the synonym
/// dictionary? An alias may map to several canonicals ("grade" → score,
/// gpa); the schema context disambiguates, exactly as an LLM would. `knows`
/// gates the alias as the dictionary spells it.
fn synonym_match(token: &str, col_token: &str, knows: &dyn Fn(&str) -> bool) -> bool {
    singular_synonyms().get(token).is_some_and(|pairs| {
        pairs
            .iter()
            .any(|(canonical, alias)| canonical == col_token && knows(alias))
    })
}

/// Links a phrase to the best-matching column of the schema.
///
/// `knows(alias)` gates each synonym-dictionary lookup — a profile with
/// `world_knowledge = 0.9` returns `true` for ~90% of aliases
/// (deterministically per alias).
pub fn link_column(
    phrase: &str,
    schema: &RecoveredSchema,
    knows: &dyn Fn(&str) -> bool,
) -> Option<Link> {
    link_column_in(phrase, schema, knows, None)
}

/// [`link_column`] restricted to a set of in-scope tables (the tables the
/// query already reads). Filters and order targets reference in-scope
/// columns; restricting the search mirrors how a model attends to the
/// active tables.
pub fn link_column_in(
    phrase: &str,
    schema: &RecoveredSchema,
    knows: &dyn Fn(&str) -> bool,
    scope: Option<&[String]>,
) -> Option<Link> {
    let raw_tokens = content_tokens(phrase);
    if raw_tokens.is_empty() {
        return None;
    }

    let in_scope =
        |name: &str| scope.is_none_or(|tables| tables.iter().any(|t| t.eq_ignore_ascii_case(name)));
    let candidates: Vec<(String, Option<String>)> = if schema.attributed {
        schema
            .tables
            .iter()
            .filter(|t| in_scope(&t.name))
            .flat_map(|t| {
                t.columns
                    .iter()
                    .map(move |(c, _)| (c.clone(), Some(t.name.clone())))
            })
            .collect()
    } else {
        schema
            .unattributed_columns
            .iter()
            .map(|c| (c.clone(), None))
            .collect()
    };

    let mut best: Option<Link> = None;
    for (column, table) in candidates {
        let col_tokens: HashSet<String> = split_identifier(&column)
            .iter()
            .map(|w| singularize(w))
            .collect();
        // A phrase token covers a column token directly or via a known
        // synonym entry.
        let mut used_syn = false;
        let mut covered_phrase = 0usize;
        let mut covered_cols: HashSet<&String> = HashSet::new();
        for t in &raw_tokens {
            if col_tokens.contains(t) {
                covered_phrase += 1;
                covered_cols.insert(col_tokens.get(t).unwrap());
            } else if let Some(ct) = col_tokens.iter().find(|ct| synonym_match(t, ct, knows)) {
                covered_phrase += 1;
                covered_cols.insert(ct);
                used_syn = true;
            }
        }
        if covered_phrase == 0 {
            continue;
        }
        let inter = covered_cols.len();
        let union = raw_tokens.len() + col_tokens.len() - inter;
        let jac = inter as f64 / union as f64;
        // Full coverage of the identifier's tokens is a strong match.
        let score = if col_tokens.iter().all(|ct| covered_cols.contains(ct)) {
            0.8 + 0.2 * jac
        } else {
            jac
        };
        let via_synonym = used_syn;
        if score > 0.32 {
            let better = match &best {
                None => true,
                Some(b) => {
                    // Ties prefer a direct (non-synonym) match, then the
                    // alphabetically first column for determinism.
                    score > b.score + 1e-12
                        || ((score - b.score).abs() <= 1e-12
                            && ((!via_synonym && b.via_synonym)
                                || (via_synonym == b.via_synonym && column < b.column)))
                }
            };
            if better {
                best = Some(Link {
                    column,
                    table,
                    score,
                    via_synonym,
                });
            }
        }
    }
    best
}

/// Links a phrase to a table of the schema by name-token overlap (also
/// accepting known synonyms of the table-name words, e.g. "clients" →
/// `customer`).
pub fn link_table(phrase: &str, schema: &RecoveredSchema) -> Option<String> {
    link_table_with(phrase, schema, &|_| true)
}

/// [`link_table`] with an explicit synonym-knowledge gate.
pub fn link_table_with(
    phrase: &str,
    schema: &RecoveredSchema,
    knows: &dyn Fn(&str) -> bool,
) -> Option<String> {
    let tokens: HashSet<String> = content_tokens(phrase).into_iter().collect();
    let mut best: Option<(f64, String)> = None;
    for t in &schema.tables {
        let name_tokens: Vec<String> = split_identifier(&t.name)
            .iter()
            .map(|w| singularize(w))
            .collect();
        let inter = name_tokens
            .iter()
            .filter(|w| tokens.contains(*w) || tokens.iter().any(|p| synonym_match(p, w, knows)))
            .count();
        if inter == 0 {
            continue;
        }
        let score = inter as f64 / name_tokens.len() as f64;
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, t.name.clone()));
        }
    }
    best.map(|(_, name)| name)
}

/// The "label" column of a table: the column a user means when they count
/// the table's entities ("the number of technicians"). Prefers a column
/// named `name`/`title`, else the first text column that is not a key.
pub fn label_column(schema: &RecoveredSchema, table: &str) -> Option<String> {
    let t = schema
        .tables
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(table))?;
    for (c, _) in &t.columns {
        if c == "name" || c == "title" || c.ends_with("_name") || c.ends_with("_title") {
            return Some(c.clone());
        }
    }
    t.columns
        .iter()
        .find(|(c, ty)| {
            !c.ends_with("_id")
                && c != "id"
                && ty
                    .map(|t| t == nl2vis_data::value::DataType::Text)
                    .unwrap_or(true)
        })
        .map(|(c, _)| c.clone())
}

/// Finds a join path between two tables in the recovered schema: first via
/// recovered foreign keys, then (when the format carried none) by guessing a
/// same-named column pair — the heuristic an LLM falls back on, and a source
/// of join errors for FK-less formats.
pub fn find_join(schema: &RecoveredSchema, a: &str, b: &str) -> Option<(String, String, bool)> {
    for (ft, fc, tt, tc) in &schema.fks {
        if ft.eq_ignore_ascii_case(a) && tt.eq_ignore_ascii_case(b) {
            return Some((fc.clone(), tc.clone(), true));
        }
        if ft.eq_ignore_ascii_case(b) && tt.eq_ignore_ascii_case(a) {
            return Some((tc.clone(), fc.clone(), true));
        }
    }
    // Heuristic: a column name shared by both tables.
    let ta = schema
        .tables
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(a))?;
    let tb = schema
        .tables
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(b))?;
    for (ca, _) in &ta.columns {
        if tb.columns.iter().any(|(cb, _)| cb.eq_ignore_ascii_case(ca)) {
            // Prefer id-ish columns.
            if ca.ends_with("_id") || ca == "id" {
                return Some((ca.clone(), ca.clone(), false));
            }
        }
    }
    for (ca, _) in &ta.columns {
        if tb.columns.iter().any(|(cb, _)| cb.eq_ignore_ascii_case(ca)) {
            return Some((ca.clone(), ca.clone(), false));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use crate::{ModelProfile, SimLlm};
    use nl2vis_corpus::domains::all_domains;
    use nl2vis_corpus::generate::instantiate;
    use nl2vis_data::Rng;
    use nl2vis_prompt::PromptFormat;
    use std::collections::BTreeSet;

    fn schema(format: PromptFormat) -> RecoveredSchema {
        let db = instantiate(&all_domains()[0], 0, &mut Rng::new(2));
        recover(&format.serialize(&db, "question"))
    }

    const KNOW_ALL: fn(&str) -> bool = |_| true;
    const KNOW_NONE: fn(&str) -> bool = |_| false;

    #[test]
    fn direct_identifier_words_link() {
        let s = schema(PromptFormat::Table2Sql);
        let l = link_column("hire date", &s, &KNOW_ALL).unwrap();
        assert_eq!(l.column, "hire_date");
        assert_eq!(l.table.as_deref(), Some("technician"));
        assert!(!l.via_synonym);
        assert!(l.score > 0.8);
    }

    #[test]
    fn plural_and_case_tolerated() {
        let s = schema(PromptFormat::Table2Sql);
        let l = link_column("Teams", &s, &KNOW_NONE).unwrap();
        assert_eq!(l.column, "team");
    }

    #[test]
    fn synonym_linking_requires_knowledge() {
        let s = schema(PromptFormat::Table2Sql);
        let with = link_column("pay", &s, &KNOW_ALL).unwrap();
        assert_eq!(with.column, "salary");
        assert!(with.via_synonym);
        assert!(link_column("pay", &s, &KNOW_NONE).is_none());
    }

    #[test]
    fn unattributed_schema_links_without_table() {
        let s = schema(PromptFormat::Schema);
        let l = link_column("team", &s, &KNOW_NONE).unwrap();
        assert_eq!(l.column, "team");
        assert_eq!(l.table, None);
    }

    #[test]
    fn table_linking() {
        let s = schema(PromptFormat::Table2Sql);
        assert_eq!(
            link_table("the technician table", &s).as_deref(),
            Some("technician")
        );
        assert_eq!(link_table("machines", &s).as_deref(), Some("machine"));
        assert_eq!(link_table("the aardvark registry", &s), None);
    }

    #[test]
    fn join_via_fk_vs_heuristic() {
        let with_fk = schema(PromptFormat::Table2Sql);
        let (l, r, confident) = find_join(&with_fk, "machine", "technician").unwrap();
        assert_eq!((l.as_str(), r.as_str()), ("tech_id", "tech_id"));
        assert!(confident);
        // Chat2Vis carries no FKs: fall back to the same-name heuristic.
        let without = schema(PromptFormat::Chat2Vis);
        let (l2, _, confident2) = find_join(&without, "machine", "technician").unwrap();
        assert_eq!(l2, "tech_id");
        assert!(!confident2);
    }

    #[test]
    fn unrelated_phrase_does_not_link() {
        let s = schema(PromptFormat::Table2Sql);
        assert!(link_column("quarterly revenue forecast", &s, &KNOW_NONE).is_none());
    }

    /// Vocabulary closure audit: every alias the corpus realizer may emit
    /// must be resolvable by the linker — directly from identifier tokens,
    /// through the synonym dictionary, or as a table-name reference. An
    /// unlinkable alias would silently depress every model's accuracy.
    #[test]
    fn every_domain_alias_is_linkable() {
        use nl2vis_corpus::domains::all_domains;
        let know_all = |_: &str| true;
        let mut rng = Rng::new(3);
        for spec in all_domains() {
            let db = instantiate(spec, 0, &mut rng);
            let s = recover(&PromptFormat::Table2Sql.serialize(&db, "audit"));
            for t in db.tables() {
                for c in &t.def.columns {
                    for alias in &c.aliases {
                        let column_hit =
                            link_column(alias, &s, &know_all).is_some_and(|l| l.column == c.name);
                        let table_hit = link_table_with(alias, &s, &know_all)
                            .is_some_and(|tn| tn.eq_ignore_ascii_case(&t.def.name));
                        assert!(
                            column_hit || table_hit,
                            "alias `{alias}` for {}.{}.{} does not link",
                            spec.domain,
                            t.def.name,
                            c.name
                        );
                    }
                }
            }
        }
    }

    /// The precomputed synonym table answers exactly as singularizing every
    /// dictionary pair per call did, for every singular alias against every
    /// singular canonical of the dictionary, under any knowledge gate.
    #[test]
    fn synonym_table_matches_per_call_singularizing() {
        let reference = |token: &str, col_token: &str, knows: &dyn Fn(&str) -> bool| {
            SYNONYMS.iter().any(|(alias, canonical)| {
                singularize(alias) == token && singularize(canonical) == col_token && knows(alias)
            })
        };
        let tokens: BTreeSet<String> = SYNONYMS.iter().map(|(a, _)| singularize(a)).collect();
        let col_tokens: BTreeSet<String> = SYNONYMS.iter().map(|(_, c)| singularize(c)).collect();
        // The weakest profile's gate refuses the most aliases.
        let davinci_002 = SimLlm::new(ModelProfile::davinci_002(), 7);
        let model_gate = davinci_002.knowledge_gate();
        assert!(SYNONYMS.iter().any(|(alias, _)| !model_gate(alias)));
        let gates: [&dyn Fn(&str) -> bool; 3] = [&KNOW_ALL, &KNOW_NONE, &model_gate];
        let mut matched = 0;
        for (name, knows) in ["all", "none", "davinci-002"].into_iter().zip(gates) {
            for token in &tokens {
                for col_token in &col_tokens {
                    let want = reference(token, col_token, knows);
                    assert_eq!(
                        synonym_match(token, col_token, knows),
                        want,
                        "{token} ~ {col_token} under the {name} gate"
                    );
                    matched += usize::from(want);
                }
            }
        }
        assert!(matched > 0);
    }

    #[test]
    fn content_tokens_strip_stopwords() {
        assert_eq!(
            content_tokens("the number of the teams"),
            vec!["number", "team"]
        );
    }
}
