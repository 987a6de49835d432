//! A deterministic random number generator, and two stable string hashes.
//!
//! Experiments in this reproduction must be bit-reproducible across runs and
//! platforms; we therefore use a self-contained SplitMix64 generator (public
//! domain algorithm by Sebastiano Vigna) rather than an external crate whose
//! stream could change between versions.

/// Deterministic SplitMix64 RNG.
///
/// Cloning an `Rng` forks the stream: both clones produce identical output
/// from the clone point, which is occasionally useful for counterfactual
/// simulation (e.g. replaying a model's sampling under a different prompt).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Derives an independent child generator, e.g. per test case, so that
    /// adding cases does not perturb the stream other cases observe.
    pub fn fork(&self, stream: u64) -> Rng {
        // Mix the stream id through one SplitMix step of a copied state.
        let mut child = Rng {
            state: self.state ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        child.next_u64();
        child
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Lemire's multiply-shift rejection method for unbiased bounded output.
        loop {
            let x = self.next_u64();
            let m = (u128::from(x)) * (u128::from(n));
            let low = m as u64;
            if low >= n.wrapping_neg() % n.max(1) || n.is_power_of_two() {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi]` inclusive. Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "Rng::range_i64 lo > hi");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// Uniform in `[0, n)` as usize.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Rng::pick on empty slice");
        &items[self.below_usize(items.len())]
    }

    /// Picks an index by non-negative weights. Panics if all weights are zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "Rng::pick_weighted: all-zero weights");
        let mut target = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (k capped at n), in random
    /// order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }

    /// Approximately normal draw (Irwin-Hall sum of 12 uniforms), mean 0,
    /// standard deviation 1. Good enough for timing-model noise.
    pub fn gauss(&mut self) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += self.f64();
        }
        s - 6.0
    }
}

/// FNV-1a's loop: the 64-bit offset basis, then xor-and-multiply by
/// `prime` per byte.
#[inline]
fn fnv1a_with(prime: u64, bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(prime);
    }
    hash
}

/// FNV-1a (64-bit, prime `0x100_0000_01b3`): the std-only stable hash
/// behind the router's hash ring, whose placement must not move between
/// processes or releases. `std::collections` hashing is randomized per
/// process, so the ring may not use it.
#[inline]
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    fnv1a_with(0x0000_0100_0000_01b3, bytes.as_ref())
}

/// The string hash behind every deterministic draw of the simulated
/// models and the trained baselines (seeds, knowledge gates, schema
/// digests). It is FNV-1a's loop with the multiplier `0x1000_0000_01b3`,
/// not FNV's prime: every pinned experiment number depends on its exact
/// values, so it must not be "corrected" to [`fnv1a`].
#[inline]
pub fn seed_hash(s: &str) -> u64 {
    fnv1a_with(0x0000_1000_0000_01b3, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: the router ring's placement (and so the committed
        // topology rows) depends on this hash never moving. The completion
        // cache digests its keys with its own hash.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn seed_hash_is_stable() {
        // Pinned values: SimLlm and baseline seeding, hence every
        // experiment number, depend on this hash never moving.
        assert_eq!(seed_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(seed_hash("a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(seed_hash("gpt-4"), 0x5440_233a_8026_d80b);
    }

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_i64_inclusive() {
        let mut r = Rng::new(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let x = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&x));
            lo_seen |= x == -3;
            hi_seen |= x == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(5);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle should not be identity");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::new(13);
        let s = r.sample_indices(20, 8);
        assert_eq!(s.len(), 8);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
        // k > n caps at n
        assert_eq!(r.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn pick_weighted_respects_zero_weight() {
        let mut r = Rng::new(17);
        for _ in 0..500 {
            let i = r.pick_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let base = Rng::new(100);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
        // Same fork id reproduces.
        let mut a2 = base.fork(1);
        let mut a3 = base.fork(1);
        assert_eq!(a2.next_u64(), a3.next_u64());
    }

    #[test]
    fn gauss_rough_moments() {
        let mut r = Rng::new(23);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
