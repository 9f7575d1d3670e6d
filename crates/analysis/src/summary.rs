//! Summary statistics of a numeric sample.

use serde::{Deserialize, Serialize};

/// Mean / spread / extremes of a sample of `f64` observations.
///
/// The constructor copies and sorts the sample once so percentiles are exact
/// (nearest-rank); an empty sample produces a struct full of zeros with
/// `count == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Median (50th percentile, nearest rank).
    pub median: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
}

impl SummaryStats {
    /// Compute the statistics of `sample`.
    pub fn of(sample: &[f64]) -> Self {
        if sample.is_empty() {
            return SummaryStats {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
                median: 0.0,
                p95: 0.0,
            };
        }
        let count = sample.len();
        let mean = sample.iter().sum::<f64>() / count as f64;
        let var = sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        SummaryStats {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            stddev: var.sqrt(),
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        }
    }

    /// Nearest-rank percentile of the original sample, `p` in `[0, 100]`.
    pub fn percentile(sample: &[f64], p: f64) -> f64 {
        if sample.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        percentile_sorted(&sorted, p)
    }

    /// The first quartile, the median and the third quartile of `sample`,
    /// each interpolated linearly between the two nearest ranks (the median
    /// of an even sample is the mean of the middle two); zeros for an empty
    /// sample.
    pub fn quartiles(sample: &[f64]) -> [f64; 3] {
        if sample.is_empty() {
            return [0.0; 3];
        }
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        [0.25, 0.5, 0.75].map(|q| {
            let at = q * (sorted.len() - 1) as f64;
            let below = sorted[at.floor() as usize];
            below + (at - at.floor()) * (sorted[at.ceil() as usize] - below)
        })
    }
}

/// `part / whole`, or `of_nothing` when there is no whole to divide by:
/// the one place a rate over an empty sample is decided.
pub fn ratio(part: f64, whole: f64, of_nothing: f64) -> f64 {
    if whole == 0.0 {
        of_nothing
    } else {
        part / whole
    }
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero() {
        let s = SummaryStats::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_observation() {
        let s = SummaryStats::of(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p95, 42.0);
    }

    #[test]
    fn known_sample() {
        let s = SummaryStats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.stddev - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(SummaryStats::percentile(&sample, 95.0), 95.0);
        assert_eq!(SummaryStats::percentile(&sample, 100.0), 100.0);
        assert_eq!(SummaryStats::percentile(&sample, 0.0), 1.0);
        assert_eq!(SummaryStats::percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(
            SummaryStats::quartiles(&[4.0, 1.0, 3.0, 2.0]),
            [1.75, 2.5, 3.25]
        );
        assert_eq!(
            SummaryStats::quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            [2.0, 3.0, 4.0]
        );
        assert_eq!(SummaryStats::quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(SummaryStats::quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn order_does_not_matter() {
        let a = SummaryStats::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let b = SummaryStats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    //! Randomised property checks. The offline build has no `proptest`, so a
    //! tiny deterministic xorshift drives many random cases per property.
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_sample(state: &mut u64, max_len: usize) -> Vec<f64> {
        let len = 1 + (xorshift(state) as usize) % max_len;
        (0..len)
            .map(|_| -1e6 + (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 * 2e6)
            .collect()
    }

    #[test]
    fn mean_lies_between_min_and_max() {
        let mut state = 0x5eed_0006;
        for _ in 0..200 {
            let sample = random_sample(&mut state, 199);
            let s = SummaryStats::of(&sample);
            assert!(s.min <= s.mean + 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.stddev >= 0.0);
            assert!(s.min <= s.median && s.median <= s.max);
            assert!(s.median <= s.p95 + 1e-9);
        }
    }

    #[test]
    fn percentile_is_monotone() {
        let mut state = 0x5eed_0007;
        for _ in 0..200 {
            let sample = random_sample(&mut state, 99);
            let p1 = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            let p2 = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            assert!(SummaryStats::percentile(&sample, lo) <= SummaryStats::percentile(&sample, hi));
        }
    }
}
