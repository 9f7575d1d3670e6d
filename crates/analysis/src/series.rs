//! Named `(x, y)` series — the curves of Figures A–E.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One curve: a label and a sequence of `(x, y)` points in insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (e.g. `"G"`, `"NG"`, `"NGSA"`).
    pub name: String,
    /// The `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub(crate) fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The `y` value recorded for the point whose `x` is closest to the
    /// query (`None` for an empty series).
    pub(crate) fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.0 - x)
                    .abs()
                    .partial_cmp(&(b.0 - x).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|p| p.1)
    }
}

/// A set of series sharing the same x axis (one whole figure).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesSet {
    series: BTreeMap<String, Series>,
}

impl SeriesSet {
    /// An empty set.
    pub fn new() -> Self {
        SeriesSet::default()
    }

    /// Append a point to the named series, creating it on first use.
    pub fn push(&mut self, name: &str, x: f64, y: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(name))
            .push(x, y);
    }

    /// Look up a series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Render the set as aligned columns: `x` followed by one `y` column per
    /// series (name order), using the union of the x values.
    pub fn to_rows(&self) -> (Vec<String>, Vec<Vec<f64>>) {
        let mut header = vec!["x".to_string()];
        header.extend(self.series.keys().cloned());
        let mut xs: Vec<f64> = self
            .series
            .values()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let rows = xs
            .into_iter()
            .map(|x| {
                let mut row = vec![x];
                for s in self.series.values() {
                    row.push(s.y_at(x).unwrap_or(f64::NAN));
                }
                row
            })
            .collect();
        (header, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = Series::new("G");
        assert!(s.points.is_empty());
        s.push(0.0, 1.0);
        s.push(10.0, 3.0);
        s.push(20.0, 5.0);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.y_at(9.0), Some(3.0));
        assert_eq!(s.y_at(0.0), Some(1.0));
    }

    #[test]
    fn empty_series_queries() {
        let s = Series::new("empty");
        assert_eq!(s.y_at(1.0), None);
    }

    #[test]
    fn series_set_groups_by_name() {
        let mut set = SeriesSet::new();
        set.push("G", 0.0, 1.0);
        set.push("NG", 0.0, 2.0);
        set.push("G", 5.0, 3.0);
        assert_eq!(set.to_rows().0, ["x", "G", "NG"]);
        assert_eq!(set.get("G").unwrap().points.len(), 2);
        assert_eq!(set.get("NG").unwrap().points.len(), 1);
        assert!(set.get("NGSA").is_none());
    }

    #[test]
    fn to_rows_aligns_on_the_x_union() {
        let mut set = SeriesSet::new();
        set.push("a", 0.0, 1.0);
        set.push("a", 1.0, 2.0);
        set.push("b", 1.0, 20.0);
        let (header, rows) = set.to_rows();
        assert_eq!(header, vec!["x", "a", "b"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec![1.0, 2.0, 20.0]);
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

    fn random_vec(state: &mut u64, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = 1 + (xorshift(state) as usize) % max_len;
        (0..len)
            .map(|_| lo + (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo))
            .collect()
    }

    #[test]
    fn y_at_returns_an_existing_y() {
        let mut state = 0x5eed_0002;
        for _ in 0..200 {
            let ys = random_vec(&mut state, 49, 0.0, 100.0);
            let q = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 60.0;
            let mut s = Series::new("p");
            for (i, y) in ys.iter().enumerate() {
                s.push(i as f64, *y);
            }
            let got = s.y_at(q).unwrap();
            assert!(ys.contains(&got));
        }
    }
}
