//! Serving metrics: recorded live by the server threads, snapshotted
//! into [`ServerMetrics`], and rendered through
//! `dk_perf::report::serving_table` or scraped as Prometheus text.
//!
//! The counters live in a private, always-enabled [`dk_obs::Registry`]
//! (one per server — exact-count tests must not cross-contaminate
//! through the process-global registry), so every recording is a
//! relaxed `fetch_add` and the whole set renders through the standard
//! `render_prometheus` exposition. Queue-wait latency is
//! booked once, in the `dk_serve_queue_wait_us` histogram: scrapes and
//! the serving report's percentiles both read it.

use dk_core::DarknightError;
use dk_gpu::{GpuError, WorkerId};
use dk_obs::{Counter, Gauge, Histogram, Registry};
use dk_perf::ServingRow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thread-shared recorder: every recording is lock-free (it runs on the
/// TEE lanes), save a quarantine, which takes a lock to learn whether
/// another lane convicted the same worker first.
pub(crate) struct MetricsRecorder {
    started: Instant,
    registry: Registry,
    submitted: Counter,
    served: Counter,
    shed: Counter,
    failed: Counter,
    batches: Counter,
    real_rows: Counter,
    padded_rows: Counter,
    repaired: Counter,
    worker_lost: Counter,
    timeouts: Counter,
    quarantined: Counter,
    /// The workers counted in `quarantined`: each lane convicts on its
    /// own fleet replica, so one worker can be convicted once per lane.
    convicted: Mutex<Vec<WorkerId>>,
    repaired_rows: Counter,
    scale_ups: Counter,
    scale_downs: Counter,
    queue_depth: Gauge,
    pool_workers: Gauge,
    queue_wait_us: Histogram,
    /// When the latest response was routed, in microseconds (at least
    /// 1) since `started`; 0 until the first response.
    last_response_us: AtomicU64,
}

impl std::fmt::Debug for MetricsRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRecorder")
            .field("submitted", &self.submitted.value())
            .field("served", &self.served.value())
            .field("shed", &self.shed.value())
            .field("failed", &self.failed.value())
            .finish_non_exhaustive()
    }
}

impl MetricsRecorder {
    pub fn new() -> Self {
        let registry = Registry::new();
        registry.enable();
        let c = |name: &str| registry.counter(name);
        Self {
            started: Instant::now(),
            submitted: c("dk_serve_submitted_total"),
            served: c("dk_serve_served_total"),
            shed: c("dk_serve_shed_total"),
            failed: c("dk_serve_failed_total"),
            batches: c("dk_serve_batches_total"),
            real_rows: c("dk_serve_real_rows_total"),
            padded_rows: c("dk_serve_padded_rows_total"),
            repaired: c("dk_serve_repaired_total"),
            worker_lost: c("dk_serve_worker_lost_total"),
            timeouts: c("dk_serve_timeouts_total"),
            quarantined: c("dk_serve_quarantined_total"),
            convicted: Mutex::new(Vec::new()),
            repaired_rows: c("dk_serve_repaired_rows_total"),
            scale_ups: c("dk_serve_scale_ups_total"),
            scale_downs: c("dk_serve_scale_downs_total"),
            queue_depth: registry.gauge("dk_serve_queue_depth"),
            pool_workers: registry.gauge("dk_serve_pool_workers"),
            queue_wait_us: registry.histogram("dk_serve_queue_wait_us"),
            last_response_us: AtomicU64::new(0),
            registry,
        }
    }

    pub fn record_submitted(&self) {
        self.submitted.inc();
    }

    pub fn record_shed(&self) {
        self.shed.inc();
    }

    pub fn record_batch(&self, real_rows: usize, padded_rows: usize) {
        self.batches.inc();
        self.real_rows.add(real_rows as u64);
        self.padded_rows.add(padded_rows as u64);
    }

    /// Classifies a batch-aborting error into the fault-path counters
    /// (one event per failed batch, not per batched request).
    pub fn record_fault(&self, e: &DarknightError) {
        if let DarknightError::GpuFault { fault, .. } = e {
            match fault {
                GpuError::WorkerLost { .. } => self.worker_lost.inc(),
                GpuError::Timeout { .. } => self.timeouts.inc(),
                _ => {}
            }
        }
    }

    /// Publishes how many admitted requests wait for a lane (set under
    /// the intake's lock).
    pub fn set_queue_depth(&self, n: usize) {
        self.queue_depth.set(n as i64);
    }

    /// Publishes the current pool size (workers still being fed).
    pub fn set_pool_workers(&self, n: usize) {
        self.pool_workers.set(n as i64);
    }

    /// One autoscale step in the given direction.
    pub fn record_scale(&self, up: bool) {
        if up {
            self.scale_ups.inc();
        } else {
            self.scale_downs.inc();
        }
    }

    /// Admitted requests no lane has taken yet (controller signal).
    pub fn queue_depth_now(&self) -> u64 {
        self.queue_depth.value().max(0) as u64
    }

    /// Total requests shed so far (controller computes deltas).
    pub fn shed_total(&self) -> u64 {
        self.shed.value()
    }

    /// Workers a lane newly quarantined while serving one batch; each
    /// worker counts once per server, whichever lanes convict it.
    pub fn record_quarantined(&self, workers: &[WorkerId]) {
        if workers.is_empty() {
            return;
        }
        let mut convicted = self.convicted.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for &w in workers {
            if !convicted.contains(&w) {
                convicted.push(w);
                self.quarantined.inc();
            }
        }
    }

    /// Real request rows served out of a TEE-repaired batch.
    pub fn record_repaired_rows(&self, rows: usize) {
        self.repaired_rows.add(rows as u64);
    }

    pub fn record_response(&self, queue_wait: Duration, ok: bool, repaired: bool) {
        if ok {
            self.served.inc();
        } else {
            self.failed.inc();
        }
        if repaired {
            self.repaired.inc();
        }
        self.queue_wait_us.record(queue_wait.as_micros() as u64);
        // A statistic that publishes nothing else: relaxed. `fetch_max`
        // keeps it the latest across concurrently routing lanes.
        let now_us = self.started.elapsed().as_micros() as u64;
        self.last_response_us.fetch_max(now_us.max(1), Ordering::Relaxed);
    }

    /// Prometheus text exposition of every serving metric.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    pub fn snapshot(&self) -> ServerMetrics {
        let wall = match self.last_response_us.load(Ordering::Relaxed) {
            0 => self.started.elapsed(),
            us => Duration::from_micros(us),
        };
        let (real_rows, padded_rows) = (self.real_rows.value(), self.padded_rows.value());
        let total_rows = real_rows + padded_rows;
        let served = self.served.value();
        ServerMetrics {
            submitted: self.submitted.value(),
            served,
            shed: self.shed.value(),
            failed: self.failed.value(),
            repaired: self.repaired.value(),
            batches: self.batches.value(),
            real_rows,
            padded_rows,
            worker_lost: self.worker_lost.value(),
            timeouts: self.timeouts.value(),
            quarantined: self.quarantined.value(),
            repaired_rows: self.repaired_rows.value(),
            pool_workers: self.pool_workers.value().max(0) as u64,
            scale_ups: self.scale_ups.value(),
            scale_downs: self.scale_downs.value(),
            batch_fill_ratio: if total_rows == 0 {
                1.0
            } else {
                real_rows as f64 / total_rows as f64
            },
            p50_queue: Duration::from_micros(self.queue_wait_us.percentile(50.0)),
            p95_queue: Duration::from_micros(self.queue_wait_us.percentile(95.0)),
            wall,
            throughput_rps: if wall.is_zero() { 0.0 } else { served as f64 / wall.as_secs_f64() },
        }
    }
}

/// A point-in-time summary of one server's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerMetrics {
    /// Requests accepted by admission control.
    pub submitted: u64,
    /// Requests answered with an output.
    pub served: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests whose batch failed (integrity violation or other
    /// session error); they received an error response, not an output.
    pub failed: u64,
    /// Requests served out of a batch that tripped the redundant
    /// equation and was repaired by the recovery extension — correct
    /// outputs, but evidence of active tampering in the fleet.
    pub repaired: u64,
    /// Virtual batches dispatched.
    pub batches: u64,
    /// Real request rows across all dispatched batches.
    pub real_rows: u64,
    /// All-zero padding rows across all dispatched batches.
    pub padded_rows: u64,
    /// Batches aborted by a lost GPU worker (fail-closed mode only —
    /// with recovery on, a lost worker is repaired, not failed).
    pub worker_lost: u64,
    /// Batches aborted by a worker deadline expiry.
    pub timeouts: u64,
    /// Distinct workers quarantined by the recovery extension across all
    /// batches and lanes.
    pub quarantined: u64,
    /// Real request rows served out of TEE-repaired batches.
    pub repaired_rows: u64,
    /// Workers currently being fed (a retired worker leaves this gauge
    /// immediately but still drains its in-flight batches).
    pub pool_workers: u64,
    /// Workers spawned over the server's lifetime (initial spawns,
    /// autoscale growth and manual resizes alike).
    pub scale_ups: u64,
    /// Workers retired over the server's lifetime (autoscale shrink or
    /// manual resize; a retired worker drains, it is never killed).
    pub scale_downs: u64,
    /// `real_rows / (real_rows + padded_rows)`; `1.0` when no batch
    /// was dispatched (or none needed padding).
    pub batch_fill_ratio: f64,
    /// Median submission → dispatch wait over all responses, read from
    /// the log₂-bucket `dk_serve_queue_wait_us` histogram: the upper
    /// bound of the bucket holding the median, so for a true value `t`
    /// µs this reads `e` with `t ≤ e < 2t` (exact waits travel in
    /// [`crate::Response::queue_wait`]).
    pub p50_queue: Duration,
    /// 95th-percentile submission → dispatch wait, at the same
    /// histogram resolution (`t ≤ e < 2t`).
    pub p95_queue: Duration,
    /// Server start → last routed response.
    pub wall: Duration,
    /// `served / wall`.
    pub throughput_rps: f64,
}

impl ServerMetrics {
    /// Converts to the renderer-facing row consumed by
    /// `dk_perf::report::serving_table`.
    pub fn row(&self, label: impl Into<String>) -> ServingRow {
        ServingRow {
            label: label.into(),
            throughput_rps: self.throughput_rps,
            p50_queue_ms: self.p50_queue.as_secs_f64() * 1e3,
            p95_queue_ms: self.p95_queue.as_secs_f64() * 1e3,
            batch_fill: self.batch_fill_ratio,
            served: self.served,
            shed: self.shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_and_snapshots() {
        let rec = MetricsRecorder::new();
        rec.record_submitted();
        rec.record_submitted();
        rec.record_shed();
        rec.record_batch(2, 2);
        rec.record_response(Duration::from_millis(2), true, false);
        rec.record_response(Duration::from_millis(4), false, false);
        let m = rec.snapshot();
        assert_eq!(m.submitted, 2);
        assert_eq!(m.served, 1);
        assert_eq!(m.shed, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.batches, 1);
        assert_eq!((m.real_rows, m.padded_rows), (2, 2));
        assert!((m.batch_fill_ratio - 0.5).abs() < 1e-12);
        // Histogram resolution: a true percentile `t` reads `e` with
        // `t ≤ e < 2t`.
        let (ms2, ms4) = (Duration::from_millis(2), Duration::from_millis(4));
        assert!(ms2 <= m.p50_queue && m.p50_queue < 2 * ms2, "{:?}", m.p50_queue);
        assert!(ms4 <= m.p95_queue && m.p95_queue < 2 * ms4, "{:?}", m.p95_queue);
        assert!(m.wall > Duration::ZERO);
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let m = MetricsRecorder::new().snapshot();
        assert_eq!(m.served, 0);
        assert_eq!(m.batch_fill_ratio, 1.0);
        assert_eq!(m.p50_queue, Duration::ZERO);
        assert_eq!(m.throughput_rps, 0.0);
        assert_eq!((m.worker_lost, m.timeouts, m.quarantined, m.repaired_rows), (0, 0, 0, 0));
    }

    #[test]
    fn row_conversion_carries_fields() {
        let rec = MetricsRecorder::new();
        rec.record_batch(3, 1);
        rec.record_response(Duration::from_millis(1), true, false);
        let row = rec.snapshot().row("pool=1");
        assert_eq!(row.label, "pool=1");
        assert_eq!(row.served, 1);
        assert!((row.batch_fill - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_classify_gpu_faults() {
        let rec = MetricsRecorder::new();
        rec.record_fault(&DarknightError::GpuFault {
            layer_id: 1,
            phase: "forward",
            fault: GpuError::lost(dk_gpu::WorkerId(2), "conn reset"),
        });
        rec.record_fault(&DarknightError::GpuFault {
            layer_id: 1,
            phase: "forward",
            fault: GpuError::Timeout { worker: dk_gpu::WorkerId(0), waited_ms: 50 },
        });
        // Non-GPU errors classify as neither.
        rec.record_fault(&DarknightError::BatchShape { expected: 4, actual: 2 });
        rec.record_quarantined(&[dk_gpu::WorkerId(1), dk_gpu::WorkerId(3)]);
        rec.record_repaired_rows(3);
        let m = rec.snapshot();
        assert_eq!(m.worker_lost, 1);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.quarantined, 2);
        assert_eq!(m.repaired_rows, 3);
    }

    /// Each lane convicts on its own fleet replica: the same worker
    /// convicted by two lanes, and again by the first, is one worker.
    #[test]
    fn quarantine_counts_workers_not_convictions() {
        let rec = MetricsRecorder::new();
        let lanes = [[dk_gpu::WorkerId(2)], [dk_gpu::WorkerId(2)], [dk_gpu::WorkerId(2)]];
        std::thread::scope(|s| {
            for lane in &lanes {
                s.spawn(|| rec.record_quarantined(lane));
            }
        });
        rec.record_quarantined(&[]);
        assert_eq!(rec.snapshot().quarantined, 1);
        rec.record_quarantined(&[dk_gpu::WorkerId(0), dk_gpu::WorkerId(2)]);
        assert_eq!(rec.snapshot().quarantined, 2);
    }

    #[test]
    fn elastic_gauges_and_scale_counters() {
        let rec = MetricsRecorder::new();
        rec.set_queue_depth(2);
        rec.set_queue_depth(1);
        rec.set_pool_workers(3);
        rec.record_scale(true);
        rec.record_scale(true);
        rec.record_scale(false);
        assert_eq!(rec.queue_depth_now(), 1);
        let m = rec.snapshot();
        assert_eq!(m.pool_workers, 3);
        assert_eq!((m.scale_ups, m.scale_downs), (2, 1));
        let text = rec.render_prometheus();
        assert!(text.contains("dk_serve_pool_workers 3"));
        assert!(text.contains("dk_serve_queue_depth 1"));
        assert!(text.contains("dk_serve_scale_ups_total 2"));
    }

    #[test]
    fn prometheus_exposition_carries_serving_counters() {
        let rec = MetricsRecorder::new();
        rec.record_submitted();
        rec.record_batch(4, 0);
        rec.record_response(Duration::from_micros(250), true, false);
        let text = rec.render_prometheus();
        assert!(text.contains("# TYPE dk_serve_submitted_total counter"));
        assert!(text.contains("dk_serve_submitted_total 1"));
        assert!(text.contains("dk_serve_real_rows_total 4"));
        assert!(text.contains("dk_serve_queue_wait_us_count 1"));
    }
}
