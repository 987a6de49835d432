//! Corpus assembly: databases + (NL, VQL) example pairs + dataset splits.
//!
//! The corpus plays the role of nvBench in the reproduction. Examples are
//! split 7:2:1 into train/valid/test under two regimes (§4.1 of the paper):
//!
//! - **in-domain**: random split over examples, so test databases also
//!   appear in training (the setting prior work evaluated);
//! - **cross-domain**: split over *databases*, so test databases are unseen
//!   during training/demonstration selection.

use crate::domains::all_domains;
use crate::generate::instantiate;
use crate::realize::realize;
use crate::synth::{synthesize, Hardness};
use nl2vis_data::{Catalog, Rng};
use nl2vis_query::ast::VqlQuery;
use std::collections::BTreeMap;

/// One benchmark example: a natural-language query paired with its gold VQL
/// over a grounded database.
#[derive(Debug, Clone)]
pub struct Example {
    /// Stable id within the corpus.
    pub id: usize,
    /// Database the query is grounded on.
    pub db: String,
    /// Topical domain of that database.
    pub domain: String,
    /// The user's natural-language request.
    pub nl: String,
    /// Gold VQL query. Boxed so that an `Example` is 96 B rather than
    /// 624 B: a corpus's `examples` buffer then stays small enough that
    /// freeing it does not push glibc's mmap threshold past the blocks a
    /// long run grows later (DESIGN §19).
    pub vql: Box<VqlQuery>,
    /// nvBench hardness level.
    pub hardness: Hardness,
    /// Whether the gold query joins two tables (the paper's join scenario).
    pub is_join: bool,
}

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Master seed; the whole corpus is a pure function of this config.
    pub seed: u64,
    /// Database instances per domain template.
    pub instances_per_domain: usize,
    /// Distinct queries to synthesize per database.
    pub queries_per_db: usize,
    /// Natural-language paraphrases emitted per query, `(min, max)`
    /// inclusive. nvBench pairs 25,750 NL descriptions with 7,247
    /// visualizations (~3.5 paraphrases per query); paraphrase siblings are
    /// what the in-domain setting leaks between train and test.
    pub paraphrases: (usize, usize),
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            seed: 20240115,
            instances_per_domain: 3,
            queries_per_db: 24,
            paraphrases: (2, 4),
        }
    }
}

impl CorpusConfig {
    /// A reduced configuration for fast unit tests and examples.
    pub fn small(seed: u64) -> CorpusConfig {
        CorpusConfig {
            seed,
            instances_per_domain: 1,
            queries_per_db: 10,
            paraphrases: (2, 3),
        }
    }
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All databases.
    pub catalog: Catalog,
    /// All examples.
    pub examples: Vec<Example>,
}

/// Train/valid/test example-id lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training example ids.
    pub train: Vec<usize>,
    /// Validation example ids.
    pub valid: Vec<usize>,
    /// Test example ids.
    pub test: Vec<usize>,
}

impl Corpus {
    /// Builds the corpus from a configuration. Deterministic in the config.
    pub fn build(config: &CorpusConfig) -> Corpus {
        let master = Rng::new(config.seed);
        let mut catalog = Catalog::new();
        let mut examples = Vec::new();
        let mut id = 0usize;

        // Hardness mix follows nvBench's skew toward easier queries.
        let hardness_weights = [
            (Hardness::Easy, 0.35),
            (Hardness::Medium, 0.30),
            (Hardness::Hard, 0.20),
            (Hardness::Extra, 0.15),
        ];

        for (di, spec) in all_domains().iter().enumerate() {
            for instance in 0..config.instances_per_domain {
                let mut db_rng = master.fork((di * 97 + instance) as u64);
                let db = instantiate(spec, instance, &mut db_rng);
                let db_name = db.name().to_string();
                let domain = db.schema.domain.clone();

                let mut synth_rng = db_rng.fork(1);
                let mut nl_rng = db_rng.fork(2);
                let mut made = 0usize;
                let mut attempts = 0usize;
                while made < config.queries_per_db && attempts < config.queries_per_db * 8 {
                    attempts += 1;
                    let weights: Vec<f64> = hardness_weights.iter().map(|(_, w)| *w).collect();
                    let hardness = hardness_weights[synth_rng.pick_weighted(&weights)].0;
                    let Some(vql) = synthesize(&db, hardness, &mut synth_rng) else {
                        continue;
                    };
                    let (lo, hi) = config.paraphrases;
                    let n_para = lo + nl_rng.below_usize(hi.saturating_sub(lo) + 1);
                    for _ in 0..n_para.max(1) {
                        let nl = realize(&vql, &db, &mut nl_rng);
                        examples.push(Example {
                            id,
                            db: db_name.clone(),
                            domain: domain.clone(),
                            nl,
                            is_join: vql.is_join(),
                            vql: Box::new(vql.clone()),
                            hardness,
                        });
                        id += 1;
                    }
                    made += 1;
                }
                catalog.add(db);
            }
        }

        Corpus { catalog, examples }
    }

    /// An example by id. A built corpus numbers its examples by position
    /// and an imported one has unique ids (the importer refuses
    /// duplicates), so the position is tried first and only a corpus whose
    /// ids are not positions is scanned.
    pub fn example(&self, id: usize) -> Option<&Example> {
        match self.examples.get(id) {
            Some(e) if e.id == id => Some(e),
            _ => self.examples.iter().find(|e| e.id == id),
        }
    }

    /// In-domain split: random 7:2:1 over examples, so test databases are
    /// seen in training.
    pub fn split_in_domain(&self, seed: u64) -> Split {
        let mut ids: Vec<usize> = self.examples.iter().map(|e| e.id).collect();
        let mut rng = Rng::new(seed ^ 0x1D);
        rng.shuffle(&mut ids);
        cut(ids)
    }

    /// Cross-domain split: 7:2:1 over *domains*; no database — and no
    /// database sharing a schema with one — in the test set appears in
    /// training. (Instances generated from the same domain template share
    /// table and column names, so splitting by bare database name would
    /// leak schema identity across folds; grouping by domain keeps the
    /// "unseen schema" property the paper's cross-domain setting is about.)
    pub fn split_cross_domain(&self, seed: u64) -> Split {
        let mut by_domain: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut has_join: BTreeMap<&str, bool> = BTreeMap::new();
        for e in &self.examples {
            by_domain.entry(e.domain.as_str()).or_default().push(e.id);
            *has_join.entry(e.domain.as_str()).or_default() |= e.is_join;
        }
        // Stratify by join capability so every fold evaluates both the join
        // and the non-join scenario (single-table domains like weather have
        // no foreign keys).
        let mut rng = Rng::new(seed ^ 0xCD);
        let mut joinable: Vec<&str> = by_domain.keys().copied().filter(|d| has_join[d]).collect();
        let mut plain: Vec<&str> = by_domain.keys().copied().filter(|d| !has_join[d]).collect();
        rng.shuffle(&mut joinable);
        rng.shuffle(&mut plain);
        // Interleave so each decile has a proportional mix.
        let mut domains: Vec<&str> = Vec::with_capacity(joinable.len() + plain.len());
        let (mut ji, mut pi) = (0usize, 0usize);
        while ji < joinable.len() || pi < plain.len() {
            let want_join = (ji as f64 + 1.0) / (joinable.len() as f64 + 1.0)
                <= (pi as f64 + 1.0) / (plain.len() as f64 + 1.0);
            if (want_join && ji < joinable.len()) || pi >= plain.len() {
                domains.push(joinable[ji]);
                ji += 1;
            } else {
                domains.push(plain[pi]);
                pi += 1;
            }
        }
        let n = domains.len();
        let n_train = (n * 7).div_ceil(10);
        let n_valid = (n * 2) / 10;
        let mut split = Split {
            train: vec![],
            valid: vec![],
            test: vec![],
        };
        for (i, domain) in domains.iter().enumerate() {
            let bucket = if i < n_train {
                &mut split.train
            } else if i < n_train + n_valid {
                &mut split.valid
            } else {
                &mut split.test
            };
            bucket.extend(by_domain[domain].iter().copied());
        }
        split
    }
}

fn cut(ids: Vec<usize>) -> Split {
    let n = ids.len();
    let n_train = n * 7 / 10;
    let n_valid = n * 2 / 10;
    Split {
        train: ids[..n_train].to_vec(),
        valid: ids[n_train..n_train + n_valid].to_vec(),
        test: ids[n_train + n_valid..].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn corpus() -> Corpus {
        Corpus::build(&CorpusConfig::small(7))
    }

    #[test]
    fn example_by_position_finds_what_the_scan_finds() {
        let c = corpus();
        for id in 0..c.examples.len() + 3 {
            let scanned = c.examples.iter().find(|e| e.id == id);
            assert_eq!(c.example(id).map(|e| e.id), scanned.map(|e| e.id));
            assert!(c.example(id).map(std::ptr::from_ref) == scanned.map(std::ptr::from_ref));
        }
    }

    #[test]
    fn corpus_has_material() {
        let c = corpus();
        assert!(c.catalog.len() >= 14);
        assert!(c.examples.len() >= 100);
        assert!(c.catalog.domains().len() >= 10);
        // All four hardness levels present.
        let levels: HashSet<_> = c.examples.iter().map(|e| e.hardness).collect();
        assert_eq!(levels.len(), 4);
        // Both join and non-join scenarios present.
        assert!(c.examples.iter().any(|e| e.is_join));
        assert!(c.examples.iter().any(|e| !e.is_join));
    }

    #[test]
    fn examples_execute_on_their_database() {
        let c = corpus();
        for e in &c.examples {
            let db = c.catalog.database(&e.db).unwrap();
            let r = nl2vis_query::execute(&e.vql, db).unwrap();
            assert!(!r.rows.is_empty(), "example {} empty", e.id);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a.examples.len(), b.examples.len());
        for (x, y) in a.examples.iter().zip(&b.examples) {
            assert_eq!(x.nl, y.nl);
            assert_eq!(x.vql, y.vql);
        }
    }

    #[test]
    fn in_domain_split_ratios() {
        let c = corpus();
        let s = c.split_in_domain(3);
        let n = c.examples.len();
        assert_eq!(s.train.len() + s.valid.len() + s.test.len(), n);
        assert!((s.train.len() as f64 / n as f64 - 0.7).abs() < 0.05);
        // No overlap.
        let all: HashSet<_> = s.train.iter().chain(&s.valid).chain(&s.test).collect();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn cross_domain_split_isolates_databases() {
        let c = corpus();
        let s = c.split_cross_domain(3);
        let db_of = |id: &usize| c.example(*id).unwrap().db.clone();
        let train_dbs: HashSet<_> = s.train.iter().map(db_of).collect();
        let test_dbs: HashSet<_> = s.test.iter().map(db_of).collect();
        assert!(
            train_dbs.is_disjoint(&test_dbs),
            "cross-domain split leaks databases"
        );
        assert!(!test_dbs.is_empty());
    }

    #[test]
    fn in_domain_split_shares_databases() {
        // Sanity check that in-domain really is the leaky setting the paper
        // describes for prior work.
        let c = corpus();
        let s = c.split_in_domain(3);
        let db_of = |id: &usize| c.example(*id).unwrap().db.clone();
        let train_dbs: HashSet<_> = s.train.iter().map(db_of).collect();
        let test_dbs: HashSet<_> = s.test.iter().map(db_of).collect();
        assert!(!train_dbs.is_disjoint(&test_dbs));
    }
}
