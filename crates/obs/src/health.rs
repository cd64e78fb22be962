//! Fleet health: per-worker fault and throughput accounting.
//!
//! The dispatcher, the TCP transport, the session, and the recovery
//! path all report into one process-global [`FleetHealth`] through
//! cheap per-worker [`WorkerHandle`]s (registered at setup). Recording
//! is gated on the master switch ([`crate::enabled`], one relaxed
//! load when disabled) and is lock-free when enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Coarse classification of a `GpuError` (mirrors `dk_gpu`'s variants
/// without depending on it — `dk_obs` sits below every other crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Worker thread/process/connection gone.
    WorkerLost,
    /// Deadline expired waiting for a reply.
    Timeout,
    /// More jobs than workers.
    Oversubscribed,
    /// Remote worker reported a protocol-level failure.
    Remote,
    /// Malformed or incompatible wire frame.
    Protocol,
}

impl FaultKind {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            FaultKind::WorkerLost => 0,
            FaultKind::Timeout => 1,
            FaultKind::Oversubscribed => 2,
            FaultKind::Remote => 3,
            FaultKind::Protocol => 4,
        }
    }

    /// Short label used in rendered tables.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::WorkerLost => "lost",
            FaultKind::Timeout => "timeout",
            FaultKind::Oversubscribed => "oversub",
            FaultKind::Remote => "remote",
            FaultKind::Protocol => "protocol",
        }
    }

    fn all() -> [FaultKind; Self::COUNT] {
        [
            FaultKind::WorkerLost,
            FaultKind::Timeout,
            FaultKind::Oversubscribed,
            FaultKind::Remote,
            FaultKind::Protocol,
        ]
    }
}

struct WorkerCell {
    id: usize,
    jobs: AtomicU64,
    busy_ns: AtomicU64,
    frames: AtomicU64,
    bytes_framed: AtomicU64,
    reconnects: AtomicU64,
    faults: [AtomicU64; FaultKind::COUNT],
    quarantines: AtomicU64,
    repairs: AtomicU64,
    withheld: AtomicU64,
}

/// A recording handle for one worker. Clone freely; all clones share
/// the same cells. Every recording method is a no-op (one relaxed
/// load) while observability is disabled.
#[derive(Clone)]
pub struct WorkerHandle(Arc<WorkerCell>);

impl WorkerHandle {
    /// One job executed, occupying the worker for `busy_ns`.
    #[inline]
    pub fn job_done(&self, busy_ns: u64) {
        if crate::enabled() {
            self.0.jobs.fetch_add(1, Ordering::Relaxed);
            self.0.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        }
    }

    /// One wire frame of `bytes` moved to/from this worker.
    #[inline]
    pub fn framed(&self, bytes: u64) {
        if crate::enabled() {
            self.0.frames.fetch_add(1, Ordering::Relaxed);
            self.0.bytes_framed.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// The transport re-established this worker's connection.
    #[inline]
    pub fn reconnected(&self) {
        if crate::enabled() {
            self.0.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A fault of `kind` was attributed to this worker.
    #[inline]
    pub fn fault(&self, kind: FaultKind) {
        if crate::enabled() {
            self.0.faults[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The session quarantined this worker.
    #[inline]
    pub fn quarantined(&self) {
        if crate::enabled() {
            self.0.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The TEE repaired `rows` results owed by this worker.
    #[inline]
    pub fn repaired(&self, rows: u64) {
        if crate::enabled() {
            self.0.repairs.fetch_add(rows, Ordering::Relaxed);
        }
    }

    /// The session withheld `jobs` jobs from this worker (it was
    /// convicted of lying) and computed them in the TEE instead.
    #[inline]
    pub fn withheld(&self, jobs: u64) {
        if crate::enabled() {
            self.0.withheld.fetch_add(jobs, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of one worker's health counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Worker id (the fleet's `WorkerId` index).
    pub worker: usize,
    /// Jobs executed.
    pub jobs: u64,
    /// Total execution occupancy, nanoseconds.
    pub busy_ns: u64,
    /// Wire frames moved (0 for in-process workers).
    pub frames: u64,
    /// Wire bytes moved (0 for in-process workers).
    pub bytes_framed: u64,
    /// Transport reconnects (redials).
    pub reconnects: u64,
    /// Faults by kind, indexed like [`FaultKind`].
    pub faults: [u64; 5],
    /// Times the session quarantined this worker.
    pub quarantines: u64,
    /// Rows the TEE recomputed on this worker's behalf.
    pub repairs: u64,
    /// Jobs never sent to this worker because it was convicted of
    /// lying (each one was computed in the TEE instead).
    pub withheld: u64,
}

/// The process-global per-worker health aggregate.
pub struct FleetHealth {
    workers: Mutex<Vec<Arc<WorkerCell>>>,
}

static FLEET: OnceLock<FleetHealth> = OnceLock::new();

/// The process-global [`FleetHealth`].
pub fn fleet() -> &'static FleetHealth {
    FLEET.get_or_init(|| FleetHealth { workers: Mutex::new(Vec::new()) })
}

impl FleetHealth {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<WorkerCell>>> {
        self.workers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The recording handle for `worker` (created on first request).
    /// Setup-path only: may lock and allocate.
    pub fn worker(&self, worker: usize) -> WorkerHandle {
        let mut cells = self.lock();
        if let Some(c) = cells.iter().find(|c| c.id == worker) {
            return WorkerHandle(c.clone());
        }
        let cell = Arc::new(WorkerCell {
            id: worker,
            jobs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            bytes_framed: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            faults: std::array::from_fn(|_| AtomicU64::new(0)),
            quarantines: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            withheld: AtomicU64::new(0),
        });
        cells.push(cell.clone());
        WorkerHandle(cell)
    }

    /// Copies of all registered workers' counters, sorted by id.
    pub fn snapshot(&self) -> Vec<WorkerHealth> {
        let cells = self.lock();
        let mut out: Vec<WorkerHealth> = cells
            .iter()
            .map(|c| WorkerHealth {
                worker: c.id,
                jobs: c.jobs.load(Ordering::Relaxed),
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
                frames: c.frames.load(Ordering::Relaxed),
                bytes_framed: c.bytes_framed.load(Ordering::Relaxed),
                reconnects: c.reconnects.load(Ordering::Relaxed),
                faults: std::array::from_fn(|i| c.faults[i].load(Ordering::Relaxed)),
                quarantines: c.quarantines.load(Ordering::Relaxed),
                repairs: c.repairs.load(Ordering::Relaxed),
                withheld: c.withheld.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|w| w.worker);
        out
    }

    /// Zero every counter (workers stay registered).
    pub fn reset(&self) {
        let cells = self.lock();
        for c in cells.iter() {
            c.jobs.store(0, Ordering::Relaxed);
            c.busy_ns.store(0, Ordering::Relaxed);
            c.frames.store(0, Ordering::Relaxed);
            c.bytes_framed.store(0, Ordering::Relaxed);
            c.reconnects.store(0, Ordering::Relaxed);
            for f in &c.faults {
                f.store(0, Ordering::Relaxed);
            }
            c.quarantines.store(0, Ordering::Relaxed);
            c.repairs.store(0, Ordering::Relaxed);
            c.withheld.store(0, Ordering::Relaxed);
        }
    }

    /// A human-readable table of [`FleetHealth::snapshot`].
    pub fn render_table(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>8} {:>10} {:>8} {:>12} {:>9} {:>24} {:>11} {:>8} {:>8}\n",
            "worker", "jobs", "busy_ms", "frames", "bytes", "redials", "faults", "quarantines", "repairs",
            "withheld"
        ));
        for w in &snap {
            let faults: Vec<String> = FaultKind::all()
                .iter()
                .zip(w.faults.iter())
                .filter(|(_, &n)| n > 0)
                .map(|(k, n)| format!("{}:{n}", k.as_str()))
                .collect();
            let faults = if faults.is_empty() { "-".to_string() } else { faults.join(" ") };
            out.push_str(&format!(
                "gpu{:<5} {:>8} {:>10.1} {:>8} {:>12} {:>9} {:>24} {:>11} {:>8} {:>8}\n",
                w.worker,
                w.jobs,
                w.busy_ns as f64 / 1e6,
                w.frames,
                w.bytes_framed,
                w.reconnects,
                faults,
                w.quarantines,
                w.repairs,
                w.withheld
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Uses the process-global switch + fleet, so this test keeps to
    // workers other unit tests don't touch and restores the switch.
    #[test]
    fn gated_recording_and_snapshot() {
        let h = fleet().worker(900);
        h.job_done(10);
        assert_eq!(
            fleet().snapshot().iter().find(|w| w.worker == 900).unwrap().jobs,
            0,
            "disabled recording must be a no-op"
        );
        crate::enable();
        h.job_done(10);
        h.framed(128);
        h.reconnected();
        h.fault(FaultKind::Timeout);
        h.quarantined();
        h.repaired(3);
        h.withheld(2);
        crate::disable();
        let snap = fleet().snapshot();
        let w = snap.iter().find(|w| w.worker == 900).unwrap();
        assert_eq!(w.jobs, 1);
        assert_eq!(w.busy_ns, 10);
        assert_eq!(w.frames, 1);
        assert_eq!(w.bytes_framed, 128);
        assert_eq!(w.reconnects, 1);
        assert_eq!(w.faults[FaultKind::Timeout.index()], 1);
        assert_eq!(w.quarantines, 1);
        assert_eq!(w.repairs, 3);
        assert_eq!(w.withheld, 2);
        let table = fleet().render_table();
        assert!(table.contains("gpu900"));
        assert!(table.contains("timeout:1"));
    }
}
