//! Lock-free metrics: atomic counters, gauges, and log₂-bucket
//! histograms behind a pre-registration [`Registry`].
//!
//! Registration (`registry.counter("...")` etc.) happens at setup and
//! may lock and allocate; it is idempotent — asking for the same
//! (name, labels) twice hands back a handle to the same cell, so
//! forked components naturally aggregate. The recording path
//! (`inc`/`add`/`set`/`record`) is wait-free: a relaxed load of the
//! shared enabled flag, then relaxed `fetch_add`s. No locks, no
//! allocation, no ordering constraints — these are statistics, not
//! synchronization.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets. Bucket `i ≥ 1` holds values `v` with
/// `2^(i-1) ≤ v < 2^i` (upper bound `2^i − 1`); bucket 0 holds `v = 0`.
/// 40 buckets cover `[0, 2^40)` — about 18 minutes when recording
/// nanoseconds — and anything larger clamps into the last bucket.
const BUCKETS: usize = 40;

/// The shared state of one histogram.
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i`.
    fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }
}

/// A monotonically increasing counter handle. Cheap to clone; all
/// clones share one cell.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1. When the registry is disabled this is one relaxed load.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. When the registry is disabled this is one relaxed load.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (reads even while disabled).
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed up/down gauge handle.
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Add `d` (may be negative). Disabled cost: one relaxed load.
    #[inline]
    pub fn add(&self, d: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrite the value. Disabled cost: one relaxed load.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (reads even while disabled).
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A log₂-bucket histogram handle. `record` is three relaxed
/// `fetch_add`s when enabled, one relaxed load when disabled.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.buckets[HistogramCell::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.cell.sum.fetch_add(v, Ordering::Relaxed);
            self.cell.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile estimate (`q` in `[0, 100]`), reported
    /// as the upper bound of the bucket holding that rank. Because
    /// buckets are powers of two, the estimate `e` of a true value `t`
    /// satisfies `t ≤ e < 2·t` (exact for 0). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.cell.buckets[i].load(Ordering::Relaxed);
            if cum >= rank {
                return HistogramCell::upper_bound(i);
            }
        }
        HistogramCell::upper_bound(BUCKETS - 1)
    }
}

enum Kind {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCell>),
}

struct Entry {
    name: String,
    /// Pre-formatted label pairs, e.g. `worker="3"` — empty when none.
    labels: String,
    kind: Kind,
}

/// A set of named metrics. Pre-register handles at setup; record
/// through the handles on the hot path. See the module docs for the
/// cost model.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    entries: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn format_labels(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

impl Registry {
    /// A fresh, **disabled** registry. Call [`Registry::enable`] (or
    /// [`crate::enable`] for the global one) to start recording.
    pub fn new() -> Self {
        Registry { enabled: Arc::new(AtomicBool::new(false)), entries: Mutex::new(Vec::new()) }
    }

    /// Start recording on all handles issued by this registry.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording. Values are retained and still readable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register (or look up) a counter. Setup-path only.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Register (or look up) a labeled counter, e.g.
    /// `counter_with("dk_tcp_frames_total", &[("worker", "3")])`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = format_labels(labels);
        let mut entries = self.lock();
        let cell = match entries.iter().find(|e| e.name == name && e.labels == labels) {
            Some(Entry { kind: Kind::Counter(c), .. }) => c.clone(),
            Some(_) => panic!("metric {name} already registered with a different type"),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                entries.push(Entry { name: name.to_string(), labels, kind: Kind::Counter(c.clone()) });
                c
            }
        };
        Counter { enabled: self.enabled.clone(), cell }
    }

    /// Register (or look up) a gauge. Setup-path only.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Register (or look up) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = format_labels(labels);
        let mut entries = self.lock();
        let cell = match entries.iter().find(|e| e.name == name && e.labels == labels) {
            Some(Entry { kind: Kind::Gauge(c), .. }) => c.clone(),
            Some(_) => panic!("metric {name} already registered with a different type"),
            None => {
                let c = Arc::new(AtomicI64::new(0));
                entries.push(Entry { name: name.to_string(), labels, kind: Kind::Gauge(c.clone()) });
                c
            }
        };
        Gauge { enabled: self.enabled.clone(), cell }
    }

    /// Register (or look up) a histogram. Setup-path only.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Register (or look up) a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = format_labels(labels);
        let mut entries = self.lock();
        let cell = match entries.iter().find(|e| e.name == name && e.labels == labels) {
            Some(Entry { kind: Kind::Histogram(c), .. }) => c.clone(),
            Some(_) => panic!("metric {name} already registered with a different type"),
            None => {
                let c = Arc::new(HistogramCell::new());
                entries
                    .push(Entry { name: name.to_string(), labels, kind: Kind::Histogram(c.clone()) });
                c
            }
        };
        Histogram { enabled: self.enabled.clone(), cell }
    }

    /// Prometheus text exposition (`# TYPE` lines, `_bucket`/`_sum`/
    /// `_count` expansion for histograms). Values read relaxed — a
    /// scrape concurrent with recording sees a near-consistent view.
    pub fn render_prometheus(&self) -> String {
        let entries = self.lock();
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for e in entries.iter() {
            let ty = match e.kind {
                Kind::Counter(_) => "counter",
                Kind::Gauge(_) => "gauge",
                Kind::Histogram(_) => "histogram",
            };
            if !typed.contains(&e.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", e.name, ty));
                typed.push(e.name.as_str());
            }
            let braced = |extra: &str| -> String {
                match (e.labels.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{}}}", e.labels),
                    (false, false) => format!("{{{},{extra}}}", e.labels),
                }
            };
            match &e.kind {
                Kind::Counter(c) => {
                    out.push_str(&format!("{}{} {}\n", e.name, braced(""), c.load(Ordering::Relaxed)));
                }
                Kind::Gauge(g) => {
                    out.push_str(&format!("{}{} {}\n", e.name, braced(""), g.load(Ordering::Relaxed)));
                }
                Kind::Histogram(h) => {
                    let mut cum = 0u64;
                    for i in 0..BUCKETS {
                        let n = h.buckets[i].load(Ordering::Relaxed);
                        cum += n;
                        // Keep the exposition compact: only emit
                        // buckets that bound at least one observation.
                        if n > 0 {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                e.name,
                                braced(&format!("le=\"{}\"", HistogramCell::upper_bound(i))),
                                cum
                            ));
                        }
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        braced("le=\"+Inf\""),
                        h.count.load(Ordering::Relaxed)
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        braced(""),
                        h.sum.load(Ordering::Relaxed)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        braced(""),
                        h.count.load(Ordering::Relaxed)
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
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        c.inc();
        g.set(7);
        h.record(100);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        r.enable();
        c.inc();
        g.set(7);
        h.record(100);
        assert_eq!(c.value(), 1);
        assert_eq!(g.value(), 7);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        r.enable();
        let a = r.counter_with("jobs", &[("worker", "1")]);
        let b = r.counter_with("jobs", &[("worker", "1")]);
        let other = r.counter_with("jobs", &[("worker", "2")]);
        a.add(3);
        b.add(4);
        other.inc();
        assert_eq!(a.value(), 7);
        assert_eq!(other.value(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics_at_setup() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn multithreaded_counts_are_exact_under_contention() {
        let r = Registry::new();
        r.enable();
        let c = r.counter("contended");
        let g = r.gauge("updown");
        let h = r.histogram("lat");
        const THREADS: usize = 8;
        const PER: u64 = 50_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = c.clone();
                let g = g.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        c.inc();
                        g.inc();
                        g.dec();
                        h.record((t as u64) * PER + i);
                    }
                });
            }
        });
        assert_eq!(c.value(), THREADS as u64 * PER);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), THREADS as u64 * PER);
        let expect_sum: u64 = (0..(THREADS as u64 * PER)).sum();
        assert_eq!(h.sum(), expect_sum);
    }

    #[test]
    fn histogram_percentiles_bound_sorted_reference() {
        let r = Registry::new();
        r.enable();
        let h = r.histogram("h");
        // A spread of magnitudes, recorded in scrambled order.
        let mut vals: Vec<u64> = (0..1000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        vals.push(0);
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1];
            let est = h.percentile(q);
            // Log2 buckets: the reported bound is at least the true
            // value and less than twice it (0 maps exactly).
            assert!(est >= exact, "p{q}: est {est} < exact {exact}");
            assert!(est <= exact.saturating_mul(2).max(1), "p{q}: est {est} > 2*exact {exact}");
        }
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.enable();
        r.counter("dk_test_total").add(5);
        r.gauge_with("dk_depth", &[("lane", "0")]).set(3);
        let h = r.histogram("dk_wait_us");
        h.record(3);
        h.record(300);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE dk_test_total counter"));
        assert!(text.contains("dk_test_total 5"));
        assert!(text.contains("# TYPE dk_depth gauge"));
        assert!(text.contains("dk_depth{lane=\"0\"} 3"));
        assert!(text.contains("# TYPE dk_wait_us histogram"));
        assert!(text.contains("dk_wait_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dk_wait_us_sum 303"));
        assert!(text.contains("dk_wait_us_count 2"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_split_once_space();
            assert!(value.parse::<i64>().is_ok(), "unparseable line: {line}");
        }
    }

    trait RSplit {
        fn rsplit_split_once_space(&self) -> (&str, &str);
    }
    impl RSplit for str {
        fn rsplit_split_once_space(&self) -> (&str, &str) {
            self.rsplit_once(' ').expect("line has a value field")
        }
    }
}
