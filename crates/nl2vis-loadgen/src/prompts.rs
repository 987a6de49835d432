//! The prompt pool and its skewed sampler.
//!
//! Prompts are real: built from the deterministic corpus with the same
//! `build_prompt` path the eval harness uses, so the server parses and
//! completes genuine NL→VQL prompts, not padding. Under Zipf skew the
//! *rank-0* prompt is the hottest — exactly the hot-key pattern that lets
//! the client-side completion cache and the server's single-flight dedup
//! earn their keep under load.

use crate::config::SEED;
use nl2vis_corpus::{Corpus, CorpusConfig};
use nl2vis_data::Rng;
use nl2vis_prompt::{build_prompt, PromptOptions};

/// Zipf exponent of the prompt-key distribution: rank `r` is drawn with
/// probability proportional to `1 / r^ZIPF_THETA`. Values around 0.99–1.2
/// model real workload hot keys.
pub const ZIPF_THETA: f64 = 1.1;

/// A fixed pool of rendered prompts plus the distribution over them.
pub struct PromptPool {
    prompts: Vec<String>,
    /// Cumulative probabilities per rank.
    cdf: Vec<f64>,
}

impl PromptPool {
    /// Builds `n` prompts from the deterministic corpus (cycling the
    /// example set if `n` exceeds it) under Zipf skew. Rank order is the
    /// corpus order, so the hot set is stable across runs.
    pub fn build(n: usize) -> PromptPool {
        let corpus = Corpus::build(&CorpusConfig::small(SEED));
        let mut prompts = Vec::with_capacity(n);
        let options = PromptOptions::default();
        for i in 0..n {
            let example = &corpus.examples[i % corpus.examples.len()];
            let db = corpus
                .catalog
                .database(&example.db)
                .expect("corpus database");
            let mut prompt = build_prompt(&options, db, &example.nl, &[], |d| {
                corpus.catalog.database(&d.db).expect("demo database")
            })
            .text;
            if i >= corpus.examples.len() {
                // Disambiguate recycled examples so every rank is a distinct
                // cache key.
                prompt.push_str(&format!("\n-- variant {}", i / corpus.examples.len()));
            }
            prompts.push(prompt);
        }
        let weights: Vec<f64> = (0..n)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_THETA))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        PromptPool { prompts, cdf }
    }

    /// Number of distinct prompts.
    pub fn len(&self) -> usize {
        self.prompts.len()
    }

    /// True when the pool is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.prompts.is_empty()
    }

    /// Draws a rank from the Zipf distribution.
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        // First rank whose cumulative probability covers `u`.
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.prompts.len() - 1)
    }

    /// The prompt at `rank`.
    pub fn prompt(&self, rank: usize) -> &str {
        &self.prompts[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_produces_distinct_real_prompts() {
        let pool = PromptPool::build(64);
        assert_eq!(pool.len(), 64);
        assert!(pool.prompt(0).contains("VQL"), "real prompt expected");
        let mut seen = std::collections::HashSet::new();
        for r in 0..pool.len() {
            assert!(seen.insert(pool.prompt(r).to_string()), "rank {r} repeats");
        }
    }

    #[test]
    fn zipf_sampling_concentrates_on_low_ranks() {
        let pool = PromptPool::build(100);
        let mut rng = Rng::new(3);
        let mut counts = vec![0u64; pool.len()];
        let draws = 20_000;
        for _ in 0..draws {
            counts[pool.sample_rank(&mut rng)] += 1;
        }
        // Rank 0 carries far more than the uniform share...
        assert!(
            counts[0] as f64 / draws as f64 > 0.10,
            "rank 0 got {} of {draws}",
            counts[0]
        );
        // ...ranks are (statistically) monotone hot→cold at the head...
        assert!(counts[0] > counts[10], "{} vs {}", counts[0], counts[10]);
        assert!(counts[1] > counts[30], "{} vs {}", counts[1], counts[30]);
        // ...and the tail still gets occasional traffic.
        let tail: u64 = counts[50..].iter().sum();
        assert!(tail > 0, "tail never sampled");
    }
}
