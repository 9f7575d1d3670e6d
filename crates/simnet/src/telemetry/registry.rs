//! Allocation-free metrics registry.
//!
//! Metrics are registered once by `&'static str` name and addressed by the
//! returned dense [`MetricId`] from then on, so the record path is a `Vec`
//! index — no hashing, no string allocation. Three shapes:
//!
//! * **counter** — monotonic `u64`, [`MetricsRegistry::add`];
//! * **gauge** — last-write-wins `u64`, [`MetricsRegistry::set`];
//! * **histogram** — log₂-bucketed (64 power-of-two buckets),
//!   [`MetricsRegistry::observe`].
//!
//! [`MetricsRegistry::sample`] snapshots every scalar metric into an
//! in-memory time series at the caller's cadence (the hosts sample on a
//! fixed virtual-time interval, so series are deterministic).

use crate::time::SimTime;

/// Dense handle for a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u16);

/// The shape of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Log₂-bucketed histogram.
    Histogram,
}

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

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
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

/// The registry: names, live values and sampled series for every metric.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    names: Vec<&'static str>,
    kinds: Vec<MetricKind>,
    slots: Vec<u32>,
    values: Vec<u64>,
    hists: Vec<Histogram>,
    series: Vec<Vec<(u64, u64)>>,
    sample_cap: usize,
}

impl MetricsRegistry {
    /// An empty registry retaining at most `sample_cap` samples per scalar
    /// metric.
    pub(crate) fn new(sample_cap: usize) -> Self {
        MetricsRegistry {
            sample_cap,
            ..MetricsRegistry::default()
        }
    }

    fn register(&mut self, name: &'static str, kind: MetricKind) -> MetricId {
        assert!(
            self.names.len() < u16::MAX as usize,
            "metric space exhausted"
        );
        debug_assert!(
            !self.names.contains(&name),
            "metric `{name}` registered twice"
        );
        let id = MetricId(self.names.len() as u16);
        self.names.push(name);
        self.kinds.push(kind);
        match kind {
            MetricKind::Counter | MetricKind::Gauge => {
                self.slots.push(self.values.len() as u32);
                self.values.push(0);
                self.series.push(Vec::new());
            }
            MetricKind::Histogram => {
                self.slots.push(self.hists.len() as u32);
                self.hists.push(Histogram::default());
                self.series.push(Vec::new());
            }
        }
        id
    }

    /// Register a monotonic counter.
    pub(crate) fn counter(&mut self, name: &'static str) -> MetricId {
        self.register(name, MetricKind::Counter)
    }

    /// Register a last-write-wins gauge.
    pub fn gauge(&mut self, name: &'static str) -> MetricId {
        self.register(name, MetricKind::Gauge)
    }

    /// Register a log₂-bucketed histogram.
    pub(crate) fn histogram(&mut self, name: &'static str) -> MetricId {
        self.register(name, MetricKind::Histogram)
    }

    /// Increment a counter (or gauge) by `delta`.
    #[inline]
    pub(crate) fn add(&mut self, id: MetricId, delta: u64) {
        let slot = self.slots[id.0 as usize] as usize;
        self.values[slot] += delta;
    }

    /// Overwrite a gauge (or counter mirror) with `v`.
    #[inline]
    pub fn set(&mut self, id: MetricId, v: u64) {
        let slot = self.slots[id.0 as usize] as usize;
        self.values[slot] = v;
    }

    /// Record `v` into a histogram.
    #[inline]
    pub(crate) fn observe(&mut self, id: MetricId, v: u64) {
        let slot = self.slots[id.0 as usize] as usize;
        self.hists[slot].record(v);
    }

    /// Current value of a scalar metric.
    pub(crate) fn value(&self, id: MetricId) -> u64 {
        match self.kinds[id.0 as usize] {
            MetricKind::Histogram => self.hists[self.slots[id.0 as usize] as usize].count(),
            _ => self.values[self.slots[id.0 as usize] as usize],
        }
    }

    /// The histogram behind `id`, if it is one.
    pub(crate) fn histogram_of(&self, id: MetricId) -> Option<&Histogram> {
        match self.kinds[id.0 as usize] {
            MetricKind::Histogram => Some(&self.hists[self.slots[id.0 as usize] as usize]),
            _ => None,
        }
    }

    /// Snapshot every scalar metric (and histogram count) into its series.
    /// Hosts call this on a fixed virtual-time cadence, so two runs of the
    /// same seed produce identical series.
    pub fn sample(&mut self, now: SimTime) {
        let t = now.as_micros();
        for i in 0..self.names.len() {
            let v = self.value(MetricId(i as u16));
            let s = &mut self.series[i];
            if s.len() < self.sample_cap {
                s.push((t, v));
            }
        }
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
impl MetricsRegistry {
    /// The registered name of `id`.
    pub(crate) fn name(&self, id: MetricId) -> &'static str {
        self.names[id.0 as usize]
    }

    /// Look a metric up by registered name.
    pub(crate) fn by_name(&self, name: &str) -> Option<MetricId> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| MetricId(i as u16))
    }

    /// Sampled `(virtual µs, value)` series for a scalar metric.
    pub(crate) fn series(&self, id: MetricId) -> &[(u64, u64)] {
        &self.series[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_index_without_alloc() {
        let mut r = MetricsRegistry::new(16);
        let c = r.counter("events");
        let g = r.gauge("inflight");
        r.add(c, 3);
        r.add(c, 4);
        r.set(g, 9);
        assert_eq!(r.value(c), 7);
        assert_eq!(r.value(g), 9);
        assert_eq!(r.by_name("events"), Some(c));
        assert_eq!(r.name(g), "inflight");
    }

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

    #[test]
    fn sampling_builds_series() {
        let mut r = MetricsRegistry::new(4);
        let c = r.counter("x");
        r.add(c, 1);
        r.sample(SimTime::from_millis(1));
        r.add(c, 1);
        r.sample(SimTime::from_millis(2));
        assert_eq!(r.series(c), &[(1000, 1), (2000, 2)]);
    }
}
