//! Deterministic random number generation for simulations.
//!
//! Every source of randomness in a run (link latency jitter, packet loss,
//! workload choices, protocol tie-breaking) is derived from a single seed so
//! that a figure can be regenerated bit-for-bit from `(code, seed)`.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman & Vigna) seeded through SplitMix64, so the simulator has no
//! external RNG dependency and the stream is stable across toolchains.

use std::ops::Range;

/// Samples generated per refill of the internal block buffer. Refilling in
/// blocks keeps the xoshiro state in registers across 64 steps, which is
/// what makes the per-hop latency draws in the simulation hot path cheap;
/// the emitted stream is bit-identical to stepping one sample at a time.
const BLOCK: usize = 64;

/// A small, fast, seedable RNG used throughout the simulator.
///
/// The public API is deliberately narrow: the handful of helpers the
/// simulator and workloads actually need, independent of any external RNG
/// crate.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    /// Pre-generated samples; `buf[pos..]` are still unread.
    buf: [u64; BLOCK],
    pos: usize,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        // SplitMix64 expansion guarantees a non-zero xoshiro state for every
        // seed, including 0.
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
            buf: [0; BLOCK],
            pos: BLOCK,
        }
    }

    /// Derive a new independent RNG from this one (used to give each node or
    /// workload stream its own generator while preserving determinism).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// A raw 64-bit sample (xoshiro256++ step), served from the block
    /// buffer. Draw-for-draw identical to an unbuffered stepper: the refill
    /// runs the same recurrence, just 64 steps at a time with the state
    /// held in locals.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let i = self.pos;
        if i < BLOCK {
            // The explicit `i < BLOCK` guard doubles as the bounds check.
            self.pos = i + 1;
            return self.buf[i];
        }
        self.refill();
        self.pos = 1;
        self.buf[0]
    }

    #[cold]
    fn refill(&mut self) {
        let [mut s0, mut s1, mut s2, mut s3] = self.state;
        for slot in &mut self.buf {
            *slot = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.state = [s0, s1, s2, s3];
        self.pos = 0;
    }

    /// Uniform `u64` in `range` (Lemire-style rejection-free enough for
    /// simulation purposes: widening multiply keeps the bias below 2^-64).
    pub fn gen_range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// Uniform `usize` in `range`.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        self.gen_range_u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_usize(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices out of `0..n` (k is clamped to n).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-buffering stepper, kept verbatim as the reference the block
    /// refill must match draw-for-draw.
    struct Reference {
        state: [u64; 4],
    }

    impl Reference {
        fn seed_from(seed: u64) -> Self {
            let mut s = seed;
            Reference {
                state: [
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                    splitmix64(&mut s),
                ],
            }
        }

        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut n2 = s2 ^ s0;
            let n3 = s3 ^ s1;
            let n1 = s1 ^ n2;
            let n0 = s0 ^ n3;
            n2 ^= t;
            self.state = [n0, n1, n2, n3.rotate_left(45)];
            result
        }
    }

    #[test]
    fn buffered_stream_matches_unbuffered_reference() {
        for seed in [0u64, 1, 123, 0xDEAD_BEEF] {
            let mut buffered = SimRng::seed_from(seed);
            let mut reference = Reference::seed_from(seed);
            // Several refills plus a partial block, so both the block
            // boundary and mid-block positions are compared.
            for i in 0..(BLOCK * 3 + 17) {
                assert_eq!(
                    buffered.next_u64(),
                    reference.next_u64(),
                    "seed {seed} draw {i} diverged"
                );
            }
        }
    }

    #[test]
    fn stream_digest_is_pinned() {
        // Freezes the emitted stream across refactors of the buffering:
        // any change to what `next_u64` returns invalidates every recorded
        // figure digest, so it must show up here first.
        let mut rng = SimRng::seed_from(123);
        let digest = (0..1000).fold(0u64, |acc, _| {
            acc.rotate_left(7) ^ rng.next_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let mut reference = Reference::seed_from(123);
        let expected = (0..1000).fold(0u64, |acc, _| {
            acc.rotate_left(7) ^ reference.next_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        assert_eq!(digest, expected);
        assert_eq!(digest, 0x157E_014A_0B3F_ED95, "re-pin only with cause");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = SimRng::seed_from(0);
        let samples: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert!(
            samples.iter().any(|&v| v != 0),
            "state must not collapse to zero"
        );
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::seed_from(99);
        let mut b = SimRng::seed_from(99);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.gen_range_u64(10..20);
            assert!((10..20).contains(&v));
            let u = rng.gen_range_usize(0..3);
            assert!(u < 3);
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_the_span() {
        let mut rng = SimRng::seed_from(6);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range_usize(0..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws must hit all 8 buckets");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    #[test]
    fn shuffle_permutes_in_place() {
        let mut rng = SimRng::seed_from(17);
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }

    #[test]
    fn sample_indices_distinct_and_clamped() {
        let mut rng = SimRng::seed_from(3);
        let s = rng.sample_indices(10, 4);
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
        assert!(rng.sample_indices(0, 5).is_empty());
    }
}
