//! Lock-cheap metrics: atomic counters and gauges, a fixed-bucket log2
//! histogram with quantile estimates, RAII span timers, and a
//! [`MetricsRegistry`] that renders a text snapshot.
//!
//! All handles are `Arc`-backed clones of shared state, so the same
//! counter can live in a registry *and* inside a codec without
//! synchronisation beyond the atomics themselves.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonically increasing `u64` counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed gauge for levels that move both ways (queue depth, members).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Fixed-bucket log2 histogram of `u64` samples (typically nanoseconds).
///
/// Bucket `i` holds samples whose value fits in `i` bits, so quantiles are
/// power-of-two upper bounds — coarse, but lock-free and constant-size,
/// which is what a protocol hot path can afford.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        inner.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time view for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                inner.min.load(Ordering::Relaxed)
            },
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Start a span whose elapsed nanoseconds land here on drop.
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer::start(self)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Frozen view of a [`Histogram`] used for quantile math and rendering.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total samples in `buckets` (re-summed at snapshot time).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (exact; 0 when empty).
    pub min: u64,
    /// Largest recorded value (exact, not a bucket bound).
    pub max: u64,
    /// Per-bucket counts; bucket `i` covers values needing `i` bits.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimate of quantile `q` in `[0, 1]`; 0 when the histogram is
    /// empty.
    ///
    /// The quantile rank is located in its log2 bucket and then linearly
    /// interpolated within the bucket's value span (midpoint convention:
    /// the j-th of c samples sits at fraction `(j - 0.5) / c`), assuming
    /// samples spread uniformly across the bucket. Snapping to the bucket
    /// upper bound — the old behaviour — was off by up to 2× for
    /// mid-bucket distributions; interpolation is exact for uniform data
    /// and never leaves the bucket. The top populated bucket's span is
    /// clamped to the recorded maximum, so `quantile(1.0)` can never
    /// exceed `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if before + c >= rank {
                if i == 0 {
                    return 0; // bucket 0 holds only the value 0
                }
                // The exact recorded min/max tighten the end buckets: a
                // degenerate all-one-value distribution reports that value
                // exactly instead of an interpolated guess.
                let lo = (1u64 << (i - 1)).max(self.min.min(self.max));
                let hi = ((1u64 << i) - 1).min(self.max).max(lo);
                let frac = ((rank - before) as f64 - 0.5) / c as f64;
                let v = lo as f64 + (hi - lo) as f64 * frac;
                return (v.round() as u64).clamp(lo, hi);
            }
            before += c;
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// RAII timer: measures from construction to drop and records the elapsed
/// nanoseconds into its histogram.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Start timing into `hist`.
    #[expect(
        clippy::disallowed_methods,
        reason = "a span timer measures wall time by definition"
    )]
    pub fn start(hist: &'a Histogram) -> Self {
        SpanTimer {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.hist.record(ns);
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// See [`Counter`].
    Counter(Counter),
    /// See [`Gauge`].
    Gauge(Gauge),
    /// See [`Histogram`].
    Histogram(Histogram),
}

/// Named collection of metrics with get-or-create registration and
/// a text snapshot. Registration order is preserved.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        entries.push((name.to_string(), m.clone()));
        m
    }

    /// Counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gauge named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Histogram named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Point-in-time copy of every registered `(name, metric)` pair, in
    /// registration order. Handles are `Arc`-backed clones, so reading
    /// them reflects live values — the exporter renders from this.
    pub fn entries(&self) -> Vec<(String, Metric)> {
        self.entries.lock().expect("registry poisoned").clone()
    }

    /// Human-readable dump, one metric per line, in registration order.
    pub fn render_text(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, metric) in entries.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!(
                        "{name} count={} mean={:.1} p50={} p90={} p99={} max={}\n",
                        s.count,
                        s.mean(),
                        s.quantile(0.50),
                        s.quantile(0.90),
                        s.quantile(0.99),
                        s.max,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_share_state_across_clones() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("sent");
        let b = reg.counter("sent");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        let g = reg.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(reg.gauge("depth").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);

        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 1000);
        assert_eq!(s.quantile(0.50), 1);
        // p99 rank = ceil(0.99*10) = 10 → the 1000 sample's bucket
        // [512, min(1023, max)] = [512, 1000]; the single sample sits at
        // the bucket midpoint: 512 + 488 * 0.5 = 756 (not the old
        // snapped-to-1023 bound).
        assert_eq!(s.quantile(0.99), 756);
        assert!((s.mean() - 100.9).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_to_exact_percentiles() {
        // Uniform 1..=1000: the exact percentile is known in closed form,
        // so this pins the interpolation error — the old bucket-bound
        // quantization was off by up to 2× (p50 = 511 instead of 500).
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let got = s.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 0.01,
                "q={q}: got {got}, exact {exact} (err {err:.3})"
            );
        }
        assert_eq!(s.quantile(1.0), 1000, "p100 is the recorded max");
        // Degenerate one-value distributions are exact, not interpolated.
        let one = Histogram::new();
        for _ in 0..100 {
            one.record(7);
        }
        let snap = one.snapshot();
        assert_eq!(snap.quantile(0.5), 7);
        assert_eq!(snap.quantile(0.99), 7);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = Histogram::new();
        {
            let _t = h.span();
        }
        assert_eq!(h.count(), 1);
        let timer: Option<&Histogram> = Some(&h);
        {
            let _t = timer.map(SpanTimer::start);
        }
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_renders_text() {
        let reg = MetricsRegistry::new();
        reg.counter("np.data_sent").add(12);
        reg.gauge("hub.members").set(3);
        reg.histogram("decode_ns").record(900);
        let text = reg.render_text();
        assert!(text.contains("np.data_sent 12"));
        assert!(text.contains("hub.members 3"));
        assert!(text.contains("decode_ns count=1"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
