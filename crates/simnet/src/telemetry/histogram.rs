//! The log₂-bucketed histogram behind the engine's dispatch-cost and
//! barrier-stall measurements.

/// A 64-bucket power-of-two histogram: value `v` lands in bucket
/// `⌈log₂(v+1)⌉`, so bucket `b` covers `[2^(b−1), 2^b)` (bucket 0 holds
/// zeros). Fixed-size, allocation-free recording.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one observation.
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v).min(63)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`), 0 when empty. Log-bucketed, so the answer is
    /// exact to within 2×.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << b.min(63) };
            }
        }
        self.max
    }
}

#[cfg(test)]
impl Histogram {
    /// Smallest observation (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert!(h.mean() > 0.0);
        // Median of {0,1,2,3,1000,1e6} sits in the bucket covering 2..4.
        assert_eq!(h.quantile(0.5), 4);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
    }
}
