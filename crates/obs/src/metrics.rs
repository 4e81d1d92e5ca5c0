//! A registry of named counters, gauges, and fixed-bucket histograms.
//!
//! Everything here is designed around one invariant: **snapshot values are
//! a pure function of the work performed, never of scheduling**. Counters
//! and histogram buckets are commutative sums over atomics, so sharded
//! pipeline stages produce byte-identical snapshots at any `--threads`
//! value; gauges are driver-set configuration/timing values. Histogram
//! buckets are fixed at registration (no dynamic resizing), so two runs
//! that observe the same samples serialize identically.
//!
//! ## Naming scheme
//!
//! Dot-separated lowercase segments, most-general first:
//! `<subsystem>.<noun>[.<qualifier>]` — e.g. `pairs.generated`,
//! `screen.discharged.owner_monitor`, `detect.trials_to_first_confirm`.
//! Wall-clock values are gauges named `stage.<stage>.wall_ns`; the
//! manifest layer routes every `*.wall_ns` gauge into its (run-varying)
//! `timings` section and everything else into the deterministic
//! `metrics` section.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Monotonic counter handle (cheap to clone, safe to update from worker
/// threads).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle. Gauges hold driver-set values (effective
/// thread count, stage wall-clocks); setting one from racing workers would
/// make snapshots schedule-dependent, so don't.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn set_duration(&self, d: Duration) {
        self.set(d.as_nanos() as u64);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; an implicit overflow
    /// bucket catches everything above the last bound.
    bounds: Vec<u64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// Fixed-bucket histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

/// The default bucket bounds for trial-count distributions (1..64,
/// roughly geometric).
pub const TRIAL_BUCKETS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Bucket bounds for wall-clock latency distributions, in nanoseconds:
/// 100µs to 60s, roughly geometric. Used by the service's per-stage and
/// per-job latency histograms (`serve.job.wall_ns.*`,
/// `serve.stage.*.latency`), which live in the server-level registry and
/// are exposed through `health` frames — never in per-job
/// manifests, whose metric section must stay run-invariant.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
    30_000_000_000,
    60_000_000_000,
];

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        let idx = c
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(c.bounds.len());
        c.counts[idx].fetch_add(1, Ordering::Relaxed);
        c.total.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration sample in nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the current bucket
    /// counts — see [`MetricValue::quantile`]. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let c = &self.0;
        let counts: Vec<u64> = c.counts.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        bucket_quantile(&c.bounds, &counts, self.count(), q)
    }
}

/// Shared quantile estimator over fixed buckets: walks the cumulative
/// counts to the target rank and interpolates linearly within the
/// containing bucket. Samples in the overflow bucket are reported as the
/// last finite bound (a deliberate under-estimate: the histogram carries
/// no upper edge there).
fn bucket_quantile(bounds: &[u64], counts: &[u64], total: u64, q: f64) -> Option<u64> {
    if total == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0);
    let mut cum = 0u64;
    for (idx, &n) in counts.iter().enumerate() {
        cum += n;
        if (cum as f64) < rank {
            continue;
        }
        if idx >= bounds.len() {
            return Some(bounds.last().copied().unwrap_or(0));
        }
        let lo = if idx == 0 { 0 } else { bounds[idx - 1] };
        let hi = bounds[idx];
        let into = rank - (cum - n) as f64;
        let frac = if n == 0 { 1.0 } else { into / n as f64 };
        return Some(lo + ((hi - lo) as f64 * frac) as u64);
    }
    Some(bounds.last().copied().unwrap_or(0))
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn read(m: &Metric) -> MetricValue {
    match m {
        Metric::Counter(c) => MetricValue::Counter(c.get()),
        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
        Metric::Histogram(h) => MetricValue::Histogram(
            h.0.bounds.clone(),
            h.0.counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            h.count(),
            h.sum(),
        ),
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(u64),
    /// A histogram's buckets: `(bounds, counts, total, sum)` — `counts`
    /// has one extra trailing overflow entry.
    Histogram(Vec<u64>, Vec<u64>, u64, u64),
}

impl MetricValue {
    /// Serializes one value; scalars become bare integers, histograms an
    /// object tagged `"type": "histogram"`.
    pub fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Json::Int(*v as i64),
            MetricValue::Histogram(bounds, counts, total, sum) => Json::obj()
                .with("type", Json::Str("histogram".into()))
                .with(
                    "le",
                    Json::Arr(bounds.iter().map(|&b| Json::Int(b as i64)).collect()),
                )
                .with(
                    "counts",
                    Json::Arr(counts.iter().map(|&c| Json::Int(c as i64)).collect()),
                )
                .with("count", Json::Int(*total as i64))
                .with("sum", Json::Int(*sum as i64)),
        }
    }

    /// Parses what [`MetricValue::to_json`] wrote. Scalars come back as
    /// counters (the distinction is presentational).
    pub fn from_json(v: &Json) -> Result<MetricValue, String> {
        if let Some(n) = v.as_i64() {
            return Ok(MetricValue::Counter(n as u64));
        }
        let ints = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histogram missing `{key}`"))?
                .iter()
                .map(|x| {
                    x.as_i64()
                        .map(|n| n as u64)
                        .ok_or("non-integer bucket".into())
                })
                .collect()
        };
        match v.get("type").and_then(Json::as_str) {
            Some("histogram") => Ok(MetricValue::Histogram(
                ints("le")?,
                ints("counts")?,
                v.get("count")
                    .and_then(Json::as_i64)
                    .ok_or("histogram missing `count`")? as u64,
                v.get("sum")
                    .and_then(Json::as_i64)
                    .ok_or("histogram missing `sum`")? as u64,
            )),
            _ => Err("metric value is neither an integer nor a histogram".into()),
        }
    }

    /// Estimates the `q`-quantile of a histogram snapshot via cumulative
    /// bucket walk with linear interpolation inside the containing bucket.
    /// `None` for scalars or empty histograms.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        match self {
            MetricValue::Histogram(bounds, counts, total, _) => {
                bucket_quantile(bounds, counts, *total, q)
            }
            _ => None,
        }
    }
}

/// The registry. Shared by reference across a run; handles are registered
/// on first use and live for the registry's lifetime.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Returns the counter named `name`, registering it at zero on first
    /// use. Panics if the name is already registered as another kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.lock().unwrap();
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))));
        match m {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Returns the gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.lock().unwrap();
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))));
        match m {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Returns the histogram named `name`, registering it with `bounds` on
    /// first use (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.inner.lock().unwrap();
        let m = map.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        });
        match m {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Reads one metric's current value without registering anything.
    pub fn value(&self, name: &str) -> Option<MetricValue> {
        let map = self.inner.lock().unwrap();
        map.get(name).map(read)
    }

    /// Reads a counter/gauge scalar without registering anything (0 when
    /// the metric never fired).
    pub fn scalar(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => v,
            _ => 0,
        }
    }

    /// Snapshots every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.inner.lock().unwrap();
        map.iter()
            .map(|(name, m)| (name.clone(), read(m)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_commutatively_across_threads() {
        let m = Metrics::new();
        let c = m.counter("x");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(m.counter("x").get(), 8000);
    }

    #[test]
    fn histogram_buckets_are_fixed_and_deterministic() {
        let m = Metrics::new();
        let h = m.histogram("t", &[1, 2, 4]);
        for v in [1, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        let snap = m.snapshot();
        let (name, v) = &snap[0];
        assert_eq!(name, "t");
        assert_eq!(
            *v,
            MetricValue::Histogram(vec![1, 2, 4], vec![2, 1, 2, 1], 6, 111)
        );
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let m = Metrics::new();
        m.counter("z.last");
        m.gauge("a.first");
        m.counter("m.mid");
        let names: Vec<_> = m.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn metric_value_json_round_trip() {
        for v in [
            MetricValue::Counter(7),
            MetricValue::Histogram(vec![1, 2], vec![1, 0, 3], 4, 9),
        ] {
            let parsed =
                MetricValue::from_json(&Json::parse(&v.to_json().to_compact()).unwrap()).unwrap();
            match (&v, &parsed) {
                (MetricValue::Gauge(a) | MetricValue::Counter(a), MetricValue::Counter(b)) => {
                    assert_eq!(a, b)
                }
                _ => assert_eq!(v, parsed),
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let m = Metrics::new();
        m.gauge("x");
        m.counter("x");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[10, 20, 40]);
        assert_eq!(h.quantile(0.5), None);
        for v in [5, 5, 15, 15, 30, 30, 30, 30] {
            h.observe(v);
        }
        // rank(0.25) = 2 → exactly exhausts bucket le=10.
        assert_eq!(h.quantile(0.25), Some(10));
        // rank(0.5) = 4 → exhausts bucket le=20.
        assert_eq!(h.quantile(0.5), Some(20));
        // rank(0.75) = 6 → 2 of 4 samples into bucket (20, 40].
        assert_eq!(h.quantile(0.75), Some(30));
        assert_eq!(h.quantile(1.0), Some(40));
    }

    #[test]
    fn quantile_overflow_reports_last_bound() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[10, 20]);
        h.observe(1000);
        assert_eq!(h.quantile(0.5), Some(20));
        assert_eq!(h.quantile(0.99), Some(20));
    }
}
