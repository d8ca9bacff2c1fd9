//! The metrics registry: named counters, gauges (direct and callback),
//! and log-bucketed latency histograms, with label support and a
//! point-in-time snapshot API.
//!
//! Naming convention (enforced by debug assertion): `pingmesh_<crate>_<name>`,
//! lowercase `[a-z0-9_]`. Counters end in `_total` by convention.

use parking_lot::{Mutex, RwLock};
use pingmesh_types::{LatencyHistogram, SimDuration};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `pingmesh_agent_probes_sent_total`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        debug_assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "metric name `{name}` must be lowercase snake_case"
        );
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are low-frequency).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A latency histogram metric, backed by the same log-bucketed
/// [`LatencyHistogram`] the paper pipeline aggregates with.
#[derive(Debug, Default)]
pub struct Histogram {
    inner: Mutex<LatencyHistogram>,
}

impl Histogram {
    /// Records a unit-less sample — a count, a size, or a duration in
    /// whatever unit the metric's name carries (`_ms`, `_size`, …). The
    /// buckets are log-spaced over the raw value.
    pub fn record_value(&self, v: u64) {
        self.inner.lock().record(SimDuration::from_micros(v));
    }

    /// Records a sample in microseconds.
    pub fn record_micros(&self, us: u64) {
        self.record_value(us);
    }

    /// Records a virtual-time duration.
    pub fn record(&self, d: SimDuration) {
        self.inner.lock().record(d);
    }

    /// Records a wall-clock duration.
    pub fn record_wall(&self, d: std::time::Duration) {
        self.record_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Copies out the underlying histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.inner.lock().clone()
    }
}

/// Point-in-time summary of one histogram, with cumulative buckets for
/// Prometheus-style encoding.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Smallest sample (µs), if any.
    pub min_us: Option<u64>,
    /// Largest sample (µs), if any.
    pub max_us: Option<u64>,
    /// Mean sample (µs), if any.
    pub mean_us: Option<u64>,
    /// Median (µs), if any.
    pub p50_us: Option<u64>,
    /// 99th percentile (µs), if any.
    pub p99_us: Option<u64>,
    /// 99.9th percentile (µs), if any.
    pub p999_us: Option<u64>,
    /// `(upper_bound_us, cumulative_count)` over non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Summarizes a [`LatencyHistogram`].
    pub fn of(h: &LatencyHistogram) -> HistogramSnapshot {
        let count = h.count();
        let buckets = h
            .cdf_points()
            .into_iter()
            .map(|(d, frac)| (d.as_micros(), (frac * count as f64).round() as u64))
            .collect();
        HistogramSnapshot {
            count,
            min_us: h.min().map(|d| d.as_micros()),
            max_us: h.max().map(|d| d.as_micros()),
            mean_us: h.mean().map(|d| d.as_micros()),
            p50_us: h.p50().map(|d| d.as_micros()),
            p99_us: h.p99().map(|d| d.as_micros()),
            p999_us: h.quantile(0.999).map(|d| d.as_micros()),
            buckets,
        }
    }
}

/// One sampled metric value.
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading (direct or callback).
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A point-in-time snapshot of every registered metric, in deterministic
/// (name, labels) order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All samples.
    pub samples: Vec<(MetricId, SampleValue)>,
}

impl Snapshot {
    /// Finds a sample by metric name (first label set wins).
    pub fn get(&self, name: &str) -> Option<&SampleValue> {
        self.samples
            .iter()
            .find(|(id, _)| id.name == name)
            .map(|(_, v)| v)
    }

    /// Convenience: a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }
}

type CallbackGauge = Box<dyn Fn() -> f64 + Send + Sync>;

/// The metrics registry. Handles returned by the `counter`/`gauge`/
/// `histogram` accessors are `Arc`s — instrumentation sites cache them
/// and touch only an atomic on the hot path.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<MetricId, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<MetricId, Arc<Gauge>>>,
    callbacks: RwLock<BTreeMap<MetricId, CallbackGauge>>,
    histograms: RwLock<BTreeMap<MetricId, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates an unlabeled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Gets or creates a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        if let Some(c) = self.counters.read().get(&id) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(id)
            .or_insert_with(|| Arc::new(Counter::default()))
            .clone()
    }

    /// Gets or creates an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gets or creates a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        if let Some(g) = self.gauges.read().get(&id) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(id)
            .or_insert_with(|| Arc::new(Gauge::default()))
            .clone()
    }

    /// Registers (or replaces) a callback gauge, sampled at snapshot time.
    /// Useful to bridge foreign atomics into the registry without copies.
    pub fn callback_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let id = MetricId::new(name, labels);
        self.callbacks.write().insert(id, Box::new(f));
    }

    /// Gets or creates an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Gets or creates a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        if let Some(h) = self.histograms.read().get(&id) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(id)
            .or_insert_with(|| Arc::new(Histogram::default()))
            .clone()
    }

    /// Samples every registered metric at this instant, in deterministic
    /// order (counters, then gauges, then callback gauges, then histograms,
    /// each sorted by id).
    pub fn snapshot(&self) -> Snapshot {
        let mut samples = Vec::new();
        for (id, c) in self.counters.read().iter() {
            samples.push((id.clone(), SampleValue::Counter(c.get())));
        }
        for (id, g) in self.gauges.read().iter() {
            samples.push((id.clone(), SampleValue::Gauge(g.get())));
        }
        for (id, f) in self.callbacks.read().iter() {
            samples.push((id.clone(), SampleValue::Gauge(f())));
        }
        for (id, h) in self.histograms.read().iter() {
            samples.push((
                id.clone(),
                SampleValue::Histogram(HistogramSnapshot::of(&h.snapshot())),
            ));
        }
        Snapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_and_accumulation() {
        let r = Registry::new();
        let a = r.counter("pingmesh_test_hits_total");
        let b = r.counter("pingmesh_test_hits_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        let ok = r.counter_with("pingmesh_test_req_total", &[("code", "200")]);
        let err = r.counter_with("pingmesh_test_req_total", &[("code", "500")]);
        ok.add(3);
        err.inc();
        assert!(!Arc::ptr_eq(&ok, &err));
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 2);
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        let a = r.counter_with("pingmesh_test_m_total", &[("b", "2"), ("a", "1")]);
        let b = r.counter_with("pingmesh_test_m_total", &[("a", "1"), ("b", "2")]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauge_set_add_get() {
        let r = Registry::new();
        let g = r.gauge("pingmesh_test_depth");
        g.set(2.5);
        g.add(1.0);
        assert!((g.get() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn callback_gauge_sampled_at_snapshot() {
        let r = Registry::new();
        let src = Arc::new(AtomicU64::new(7));
        let src2 = src.clone();
        r.callback_gauge("pingmesh_test_bridge", &[], move || {
            src2.load(Ordering::Relaxed) as f64
        });
        assert_eq!(r.snapshot().gauge("pingmesh_test_bridge"), Some(7.0));
        src.store(9, Ordering::Relaxed);
        assert_eq!(r.snapshot().gauge("pingmesh_test_bridge"), Some(9.0));
    }

    #[test]
    fn histogram_snapshot_has_quantiles_and_buckets() {
        let r = Registry::new();
        let h = r.histogram("pingmesh_test_rtt_us");
        for us in [100u64, 200, 300, 400, 50_000] {
            h.record_micros(us);
        }
        let snap = r.snapshot();
        let Some(SampleValue::Histogram(hs)) = snap.get("pingmesh_test_rtt_us") else {
            panic!("histogram sample missing");
        };
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min_us, Some(100));
        assert_eq!(hs.max_us, Some(50_000));
        assert!(hs.p50_us.is_some());
        assert!(!hs.buckets.is_empty());
        // Buckets are cumulative and end at the total count.
        assert_eq!(hs.buckets.last().unwrap().1, 5);
        let mut prev = 0;
        for &(_, c) in &hs.buckets {
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter("pingmesh_test_b_total").inc();
        r.counter("pingmesh_test_a_total").inc();
        let names: Vec<String> = r
            .snapshot()
            .samples
            .iter()
            .map(|(id, _)| id.name.clone())
            .collect();
        assert_eq!(
            names,
            vec!["pingmesh_test_a_total", "pingmesh_test_b_total"]
        );
    }
}
