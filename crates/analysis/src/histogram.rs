//! Hop-count histograms and the 3-D surfaces of Figures F–I.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Distribution of resolved lookups over the number of hops they needed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HopHistogram {
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl HopHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        HopHistogram::default()
    }

    /// Record one lookup resolved in `hops` hops.
    pub fn record(&mut self, hops: u32) {
        *self.counts.entry(hops).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of lookups resolved in exactly `hops` hops.
    pub(crate) fn count(&self, hops: u32) -> u64 {
        self.counts.get(&hops).copied().unwrap_or(0)
    }

    /// Percentage (0–100) of lookups resolved in exactly `hops` hops.
    pub fn percentage(&self, hops: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(hops) as f64 * 100.0 / self.total as f64
        }
    }

    /// Percentage (0–100) of lookups resolved in at most `hops` hops.
    pub fn cumulative_percentage(&self, hops: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .counts
            .iter()
            .filter(|(h, _)| **h <= hops)
            .map(|(_, c)| *c)
            .sum();
        below as f64 * 100.0 / self.total as f64
    }

    /// Mean number of hops (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().map(|(h, c)| *h as u64 * *c).sum();
        sum as f64 / self.total as f64
    }

    /// Largest recorded hop count.
    pub fn max(&self) -> Option<u32> {
        self.counts.keys().next_back().copied()
    }

    /// The hop count recorded most often (smallest such value on ties).
    pub fn mode(&self) -> Option<u32> {
        self.counts
            .iter()
            .max_by_key(|(h, c)| (**c, std::cmp::Reverse(**h)))
            .map(|(h, _)| *h)
    }

    /// Add every lookup `other` recorded to this histogram.
    pub fn merge(&mut self, other: &HopHistogram) {
        for (&hops, &count) in &other.counts {
            *self.counts.entry(hops).or_insert(0) += count;
        }
        self.total += other.total;
    }
}

/// One of the 3-D surfaces of Figures F–I: for every churn step (fraction of
/// failed nodes, the x axis) the percentage of requests (z axis) resolved in
/// each hop count (y axis).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HopSurface {
    /// `(failed_fraction, histogram)` rows in insertion (churn-step) order.
    rows: Vec<(f64, HopHistogram)>,
}

impl HopSurface {
    /// An empty surface.
    pub fn new() -> Self {
        HopSurface::default()
    }

    /// Append the hop histogram measured at `failed_fraction` (0–1).
    pub fn push(&mut self, failed_fraction: f64, histogram: HopHistogram) {
        self.rows.push((failed_fraction, histogram));
    }

    /// The rows in insertion order.
    pub fn rows(&self) -> &[(f64, HopHistogram)] {
        &self.rows
    }

    /// The largest hop count appearing anywhere on the surface.
    pub fn max_hops(&self) -> u32 {
        self.rows
            .iter()
            .filter_map(|(_, h)| h.max())
            .max()
            .unwrap_or(0)
    }

    /// Render the surface as a dense grid: the header is the hop counts
    /// `0..=max_hops`, each row is `failed_fraction` (as a percentage)
    /// followed by the percentage of requests per hop count. This is the
    /// exact layout of the paper's Figures F–I.
    pub fn to_grid(&self) -> (Vec<u32>, Vec<Vec<f64>>) {
        let max_hops = self.max_hops();
        let header: Vec<u32> = (0..=max_hops).collect();
        let rows = self
            .rows
            .iter()
            .map(|(frac, hist)| {
                let mut row = vec![frac * 100.0];
                row.extend(header.iter().map(|h| hist.percentage(*h)));
                row
            })
            .collect();
        (header, rows)
    }
}

#[cfg(test)]
impl HopHistogram {
    /// Total number of recorded lookups.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded hop count.
    pub(crate) fn min(&self) -> Option<u32> {
        self.counts.keys().next().copied()
    }

    /// Iterate `(hops, count)` in increasing hop order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(h, c)| (*h, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HopHistogram {
        let mut h = HopHistogram::new();
        for hops in [1, 2, 2, 3, 3, 3, 4, 4, 5, 5] {
            h.record(hops);
        }
        h
    }

    #[test]
    fn empty_histogram() {
        let h = HopHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentage(3), 0.0);
        assert_eq!(h.cumulative_percentage(10), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mode(), None);
    }

    #[test]
    fn counts_and_percentages() {
        let h = sample();
        assert_eq!(h.total(), 10);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.percentage(3), 30.0);
        assert_eq!(h.cumulative_percentage(3), 60.0);
        assert_eq!(h.mean(), 3.2);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5));
        assert_eq!(h.mode(), Some(3));
    }

    #[test]
    fn mode_breaks_ties_towards_fewer_hops() {
        let mut h = HopHistogram::new();
        h.record(4);
        h.record(2);
        assert_eq!(h.mode(), Some(2));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.count(3), 6);
        assert_eq!(a.percentage(3), 30.0);
    }

    #[test]
    fn surface_grid_layout() {
        let mut surface = HopSurface::new();
        surface.push(0.0, sample());
        let mut worse = HopHistogram::new();
        for hops in [5, 6, 6, 7] {
            worse.record(hops);
        }
        surface.push(0.5, worse);
        assert_eq!(surface.rows().len(), 2);
        assert_eq!(surface.max_hops(), 7);
        let (header, rows) = surface.to_grid();
        assert_eq!(header, (0..=7).collect::<Vec<u32>>());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], 0.0);
        assert_eq!(rows[1][0], 50.0);
        // Row 1, hop 6 column (offset by the leading x column).
        assert_eq!(rows[1][1 + 6], 50.0);
        assert_eq!(rows[0][1 + 3], 30.0);
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

    fn random_hops(state: &mut u64, max_len: usize, max_hop: u32) -> Vec<u32> {
        let len = 1 + (xorshift(state) as usize) % max_len;
        (0..len)
            .map(|_| (xorshift(state) % max_hop as u64) as u32)
            .collect()
    }

    #[test]
    fn percentages_sum_to_one_hundred() {
        let mut state = 0x5eed_0003;
        for _ in 0..200 {
            let hops = random_hops(&mut state, 299, 40);
            let mut h = HopHistogram::new();
            for x in &hops {
                h.record(*x);
            }
            let sum: f64 = h.iter().map(|(hop, _)| h.percentage(hop)).sum();
            assert!((sum - 100.0).abs() < 1e-6);
            assert_eq!(h.total(), hops.len() as u64);
            assert!(h.mean() <= h.max().unwrap() as f64 + 1e-9);
            assert!(h.mean() >= h.min().unwrap() as f64 - 1e-9);
        }
    }

    #[test]
    fn cumulative_is_monotone() {
        let mut state = 0x5eed_0004;
        for _ in 0..200 {
            let hops = random_hops(&mut state, 299, 40);
            let a = (xorshift(&mut state) % 40) as u32;
            let b = (xorshift(&mut state) % 40) as u32;
            let mut h = HopHistogram::new();
            for x in &hops {
                h.record(*x);
            }
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(h.cumulative_percentage(lo) <= h.cumulative_percentage(hi) + 1e-9);
        }
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything() {
        let mut state = 0x5eed_0005;
        for _ in 0..200 {
            let xs = random_hops(&mut state, 100, 20);
            let ys = random_hops(&mut state, 100, 20);
            let mut a = HopHistogram::new();
            for x in &xs {
                a.record(*x);
            }
            let mut b = HopHistogram::new();
            for y in &ys {
                b.record(*y);
            }
            a.merge(&b);
            let mut all = HopHistogram::new();
            for v in xs.iter().chain(ys.iter()) {
                all.record(*v);
            }
            assert_eq!(a, all);
        }
    }
}
