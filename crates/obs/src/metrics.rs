//! Near-zero-overhead metrics: counters, gauges, and power-of-two
//! histograms.
//!
//! Updates ([`Registry::add`], [`Registry::observe`],
//! [`Registry::gauge_set`]) take one mutex per call, so they mark coarse
//! events — an image linked, a layout built, an epoch served — never a
//! per-event hot loop: no simulator or replay loop records a metric.
//!
//! Snapshots ([`Registry::snapshot`]) are immutable maps rendered to
//! JSON ([`MetricsSnapshot::to_json`]) for the run manifest.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds zeros; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`. 65 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-footprint histogram over `u64` samples with power-of-two
/// buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the inclusive upper edge of
    /// the bucket containing the q-th sample, clamped to the observed
    /// max. Exact for the bucket boundaries, never off by more than one
    /// power of two inside a bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The fixed summary rendered into snapshots.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Immutable summary of a [`Histogram`] at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// JSON rendering used inside the run manifest.
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
        })
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metrics registry: a named set of counters, gauges, and
/// histograms behind one mutex, with an enabled flag checked before the
/// lock so disabled metrics cost one relaxed atomic load.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A new, enabled, empty registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether updates are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.insert(name.to_string(), value);
    }

    /// Records a sample into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Clears every metric (the enabled flag is kept).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        *inner = Inner::default();
    }

    /// An immutable copy of every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Reads one counter (0 when absent). Mostly for tests and report
    /// printing.
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads one gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.get(name).copied()
    }
}

/// Immutable view of a [`Registry`] at one instant: name-sorted maps of
/// counters, gauges, and histogram summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// JSON rendering: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` with names in sorted order.
    pub fn to_json(&self) -> Value {
        let mut counters = serde_json::Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::from(*v));
        }
        let mut gauges = serde_json::Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), Value::from(*v));
        }
        let mut histograms = serde_json::Map::new();
        for (k, h) in &self.histograms {
            histograms.insert(k.clone(), h.to_json());
        }
        json!({
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1119);
        // Median of 9 samples is the 5th (value 3): bucket [2,4) upper
        // edge is 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 clamps to the observed max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // Zeros live in bucket 0.
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        r.add("c", 5);
        r.observe("h", 5);
        r.gauge_set("g", 5.0);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn quantile_estimates_on_known_distributions() {
        // Uniform 0..1024: p50 lands exactly on the [256,512) bucket
        // boundary, p95/p99 in [512,1024) — the estimator returns the
        // inclusive upper edge of the covering bucket.
        let mut uniform = Histogram::new();
        for v in 0..1024u64 {
            uniform.record(v);
        }
        assert_eq!(uniform.quantile(0.50), 511);
        assert_eq!(uniform.quantile(0.95), 1023);
        assert_eq!(uniform.quantile(0.99), 1023);

        // Heavily skewed: 99 fast samples of 1, one slow sample of
        // 1_000_000. p50/p95 sit in the fast bucket; p99 does too (rank
        // 99 of 100), while p100 reaches the outlier.
        let mut skewed = Histogram::new();
        for _ in 0..99 {
            skewed.record(1);
        }
        skewed.record(1_000_000);
        assert_eq!(skewed.quantile(0.50), 1);
        assert_eq!(skewed.quantile(0.95), 1);
        assert_eq!(skewed.quantile(0.99), 1);
        assert_eq!(skewed.quantile(1.0), 1_000_000);

        // A point mass never overshoots: estimates clamp to the max.
        let mut point = Histogram::new();
        for _ in 0..10 {
            point.record(700);
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(point.quantile(q), 700);
        }
        let snap = point.snapshot();
        assert_eq!((snap.p50, snap.p95, snap.p99), (700, 700, 700));
    }

    #[test]
    fn snapshot_json_is_name_sorted() {
        let r = Registry::new();
        r.add("z.last", 1);
        r.add("a.first", 2);
        let s = serde_json::to_string(&r.snapshot().to_json()).unwrap();
        assert!(s.find("a.first").unwrap() < s.find("z.last").unwrap());
    }
}
