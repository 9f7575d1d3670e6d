//! Seeded Zipf(α) rank sampler for skewed key-popularity workloads.
//!
//! The read-storm experiment needs a hot-key distribution: a small set of
//! keys receiving most of the gets, with a long cold tail. The standard
//! model is the Zipf distribution — rank `k` (1-based) is drawn with
//! probability `(1/k^α) / H_{n,α}` where `H_{n,α} = Σ_{i=1..n} 1/i^α` is
//! the generalized harmonic number. `α = 0` is uniform; web and KV-store
//! key popularity is typically fit around `α ≈ 0.9–1.1`.
//!
//! The sampler precomputes the cumulative distribution once (`O(n)` space,
//! `O(n)` setup) and draws by binary-searching a uniform variate into it
//! (`O(log n)` per sample), driven entirely by the deterministic
//! [`SimRng`] — no external randomness crates, so seeded experiments
//! replay bit-for-bit.

use simnet::SimRng;

/// Precomputed Zipf(α) distribution over ranks `0..n` (rank 0 is the
/// hottest key).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    /// Number of ranks.
    n: usize,
    /// Skew exponent α (0 = uniform).
    alpha: f64,
    /// `cdf[k]` = P(rank ≤ k); `cdf[n-1]` is 1 up to rounding.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0_f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { n, alpha, cdf }
    }

    /// Number of ranks.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Draw one rank in `0..n`: binary-search a uniform variate into the
    /// CDF (`partition_point` finds the first entry ≥ the variate).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.n - 1)
    }
}

#[cfg(test)]
impl ZipfSampler {
    /// Always false: construction rejects `n == 0`.
    pub(crate) fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-form Zipf pmf for cross-checking the sampled CDF.
    fn closed_form_pmf(n: usize, alpha: f64, k: usize) -> f64 {
        let h: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(alpha)).sum();
        (1.0 / ((k + 1) as f64).powf(alpha)) / h
    }

    /// Probability mass of rank `k`, read off the sampler's CDF.
    fn pmf(z: &ZipfSampler, k: usize) -> f64 {
        z.cdf[k] - if k == 0 { 0.0 } else { z.cdf[k - 1] }
    }

    #[test]
    fn pmf_matches_the_closed_form() {
        let z = ZipfSampler::new(100, 0.99);
        for k in [0, 1, 9, 50, 99] {
            let expect = closed_form_pmf(100, 0.99, k);
            assert!(
                (pmf(&z, k) - expect).abs() < 1e-12,
                "rank {k}: pmf {} vs closed form {expect}",
                pmf(&z, k)
            );
        }
        let mass: f64 = (0..100).map(|k| pmf(&z, k)).sum();
        assert!((mass - 1.0).abs() < 1e-9, "pmf must sum to 1, got {mass}");
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = ZipfSampler::new(64, 0.0);
        for k in 0..64 {
            assert!((pmf(&z, k) - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_head_and_tail_match_the_distribution() {
        // 200k draws at α = 1.0 over 100 ranks: the head rank must carry
        // ~H_100^-1 ≈ 19.3 % of the mass and the cold tail (ranks 50+)
        // ~13.4 %. A 1-percentage-point tolerance is ~14 standard errors,
        // so this cannot flake for a fixed seed.
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = SimRng::seed_from(0x21bf);
        let draws = 200_000usize;
        let mut counts = vec![0u64; 100];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let frac = |c: u64| c as f64 / draws as f64;
        let head_expect = closed_form_pmf(100, 1.0, 0);
        assert!(
            (frac(counts[0]) - head_expect).abs() < 0.01,
            "head rank drew {} expected {head_expect}",
            frac(counts[0])
        );
        let tail: u64 = counts[50..].iter().sum();
        let tail_expect: f64 = (50..100).map(|k| closed_form_pmf(100, 1.0, k)).sum();
        assert!(
            (frac(tail) - tail_expect).abs() < 0.01,
            "tail drew {} expected {tail_expect}",
            frac(tail)
        );
        // Monotone: hotter ranks drawn at least as often as much colder
        // ones (adjacent ranks can tie by sampling noise; compare far
        // apart).
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }

    #[test]
    fn sampling_is_seed_deterministic_and_in_range() {
        let z = ZipfSampler::new(37, 1.2);
        let a: Vec<usize> = {
            let mut rng = SimRng::seed_from(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SimRng::seed_from(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k < 37));
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = SimRng::seed_from(11);
        for _ in 0..20 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }
}
