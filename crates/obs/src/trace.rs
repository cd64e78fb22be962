//! Tracing spans: per-lane ring buffers and chrome://tracing export.
//!
//! Every thread that records a span lazily claims one fixed-capacity
//! ring buffer (the "lane") in a process-global sink — the one-time
//! allocation happens on the first span a thread ever records (during
//! warm-up in practice), after which recording is allocation-free:
//! `Instant::now` twice plus a handful of relaxed stores into a
//! pre-allocated slot. When the ring wraps, the oldest spans are
//! overwritten — the newest window is always retained.
//!
//! A ring retires with its thread and is claimed again by the next
//! thread of the same name, which keeps writing where the last one
//! stopped. Code that starts short-lived threads over and over (the
//! pipelined engine's `dk-lane-{i}` threads, fresh on every call) thus
//! holds one ring and one chrome `tid` per *name*, not per thread ever
//! started.
//!
//! When observability is disabled ([`crate::enabled`] is false),
//! [`span`] costs one relaxed atomic load and returns an inert guard.
//!
//! Export with [`export_chrome`]: a chrome://tracing / Perfetto
//! "traceEvents" JSON document with one `tid` per lane, so the §7.1
//! encode/compute/decode overlap across pipeline lanes is directly
//! visible on a timeline. [`snapshot`] returns the same data as
//! structured [`SpanRecord`]s for tests.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which stage of the TEE/GPU protocol a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Float → field quantization of activations in the TEE.
    Quantize,
    /// Algorithm-1 masking: noise draw + coefficient-matrix encode.
    Encode,
    /// Jobs handed to the accelerator backend (includes the wait for
    /// results in sequential mode; only the submit+redeem in pipelined).
    Dispatch,
    /// TEE decode with `A⁻¹` (forward or backward).
    Decode,
    /// The §4.4 redundant-equation integrity check.
    Verify,
    /// TEE recomputation repairing quarantined / faulty worker rows.
    Repair,
}

impl Stage {
    /// Short lowercase name (used for chrome event names and metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Quantize => "quantize",
            Stage::Encode => "encode",
            Stage::Dispatch => "dispatch",
            Stage::Decode => "decode",
            Stage::Verify => "verify",
            Stage::Repair => "repair",
        }
    }

    fn from_u64(v: u64) -> Stage {
        match v {
            0 => Stage::Quantize,
            1 => Stage::Encode,
            2 => Stage::Dispatch,
            3 => Stage::Decode,
            4 => Stage::Verify,
            _ => Stage::Repair,
        }
    }
}

/// One completed span, as read back by [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Lane (ring) index, in registration order — one per recording
    /// thread alive at a time, handed down between threads of one name.
    /// Becomes the chrome `tid`.
    pub lane: usize,
    /// Name of the recording thread(s) (may be empty).
    pub thread: String,
    /// Protocol stage.
    pub stage: Stage,
    /// Virtual-batch number the span belongs to.
    pub batch: u64,
    /// Layer ordinal within the step (0 when not layer-scoped).
    pub layer: u64,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Per-lane monotonic sequence number (1-based write index).
    pub seq: u64,
}

/// Default per-lane ring capacity (spans retained per thread).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Ring capacity applied to lanes registered *after* this call.
/// Intended for tests and long soaks; existing lanes keep their size.
pub fn set_ring_capacity(cap: usize) {
    RING_CAP.store(cap.max(1), Ordering::Relaxed);
}

static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

struct SpanSlot {
    /// 1-based write index; 0 marks an empty slot.
    seq: AtomicU64,
    stage: AtomicU64,
    batch: AtomicU64,
    layer: AtomicU64,
    start_us: AtomicU64,
    dur_ns: AtomicU64,
}

struct LaneRing {
    lane: usize,
    thread: String,
    /// True while a live thread records into this ring. Only read and
    /// written under the sink lock.
    claimed: AtomicBool,
    cursor: AtomicUsize,
    slots: Box<[SpanSlot]>,
}

impl LaneRing {
    #[inline]
    fn push(&self, stage: Stage, batch: u64, layer: u64, start_us: u64, dur_ns: u64) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let s = &self.slots[i % self.slots.len()];
        s.stage.store(stage as u64, Ordering::Relaxed);
        s.batch.store(batch, Ordering::Relaxed);
        s.layer.store(layer, Ordering::Relaxed);
        s.start_us.store(start_us, Ordering::Relaxed);
        s.dur_ns.store(dur_ns, Ordering::Relaxed);
        // Written last: a concurrent snapshot treats seq = 0 as empty.
        s.seq.store(i as u64 + 1, Ordering::Relaxed);
    }
}

static SINK: OnceLock<Mutex<Vec<Arc<LaneRing>>>> = OnceLock::new();

fn sink() -> &'static Mutex<Vec<Arc<LaneRing>>> {
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process trace epoch — all span timestamps are relative to this.
/// Initialized the first time anything asks for it.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// A thread's hold on its ring; dropped with the thread's locals, which
/// retires the ring for the next thread of the same name.
struct RingClaim(Arc<LaneRing>);

impl Drop for RingClaim {
    fn drop(&mut self) {
        let _rings = sink().lock().unwrap_or_else(|e| e.into_inner());
        self.0.claimed.store(false, Ordering::Relaxed);
    }
}

thread_local! {
    static LOCAL_RING: OnceCell<RingClaim> = const { OnceCell::new() };
}

/// Claims the calling thread's ring: a retired one registered under the
/// same thread name if there is one, a newly registered one otherwise.
fn claim_ring() -> RingClaim {
    let current = std::thread::current();
    let name = current.name().unwrap_or("");
    let mut rings = sink().lock().unwrap_or_else(|e| e.into_inner());
    let retired =
        rings.iter().find(|r| r.thread == name && !r.claimed.load(Ordering::Relaxed));
    if let Some(ring) = retired {
        ring.claimed.store(true, Ordering::Relaxed);
        return RingClaim(ring.clone());
    }
    let cap = RING_CAP.load(Ordering::Relaxed);
    let slots: Box<[SpanSlot]> = (0..cap)
        .map(|_| SpanSlot {
            seq: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            batch: AtomicU64::new(0),
            layer: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        })
        .collect();
    let ring = Arc::new(LaneRing {
        lane: rings.len(),
        thread: name.to_string(),
        claimed: AtomicBool::new(true),
        cursor: AtomicUsize::new(0),
        slots,
    });
    rings.push(ring.clone());
    RingClaim(ring)
}

/// An in-flight span. Records itself into the calling thread's lane
/// ring when dropped. Inert (a `None` payload) when observability was
/// disabled at creation.
pub struct SpanGuard {
    live: Option<(Instant, Stage, u64, u64)>,
}

/// Open a span for `stage` of (`batch`, `layer`). Disabled cost: one
/// relaxed atomic load. The span closes (and is recorded) when the
/// returned guard drops.
#[inline]
pub fn span(stage: Stage, batch: u64, layer: u64) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    // Touch the epoch before taking the start timestamp so the first
    // span of the process can't start before its own epoch.
    let _ = epoch();
    SpanGuard { live: Some((Instant::now(), stage, batch, layer)) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, stage, batch, layer)) = self.live.take() {
            let end = Instant::now();
            let start_us = start.saturating_duration_since(epoch()).as_micros() as u64;
            let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
            LOCAL_RING.with(|c| {
                c.get_or_init(claim_ring).0.push(stage, batch, layer, start_us, dur_ns);
            });
        }
    }
}

/// All retained spans across all lanes, ordered by lane then sequence.
pub fn snapshot() -> Vec<SpanRecord> {
    let rings = sink().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for ring in rings.iter() {
        let cap = ring.slots.len();
        let mut lane_spans: Vec<SpanRecord> = ring
            .slots
            .iter()
            .filter_map(|s| {
                let seq = s.seq.load(Ordering::Relaxed);
                if seq == 0 {
                    return None;
                }
                Some(SpanRecord {
                    lane: ring.lane,
                    thread: ring.thread.clone(),
                    stage: Stage::from_u64(s.stage.load(Ordering::Relaxed)),
                    batch: s.batch.load(Ordering::Relaxed),
                    layer: s.layer.load(Ordering::Relaxed),
                    start_us: s.start_us.load(Ordering::Relaxed),
                    dur_ns: s.dur_ns.load(Ordering::Relaxed),
                    seq,
                })
            })
            .collect();
        lane_spans.sort_by_key(|s| s.seq);
        // A wrapped ring can hold at most `cap` live spans; torn reads
        // during concurrent recording can momentarily show more — keep
        // the newest window.
        if lane_spans.len() > cap {
            lane_spans.drain(..lane_spans.len() - cap);
        }
        out.extend(lane_spans);
    }
    out
}

/// Drop all retained spans (ring memory is kept). Lanes stay
/// registered; sequence numbers continue from where they were.
pub fn clear() {
    let rings = sink().lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        for s in ring.slots.iter() {
            s.seq.store(0, Ordering::Relaxed);
        }
    }
}

/// Render every retained span as a chrome://tracing (Perfetto) JSON
/// document: complete (`"ph": "X"`) events with one `tid` per lane,
/// plus thread-name metadata events. Load via chrome://tracing "Load"
/// or <https://ui.perfetto.dev>.
pub fn export_chrome() -> String {
    let spans = snapshot();
    let mut events = Vec::new();
    let rings = sink().lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        let label = if ring.thread.is_empty() {
            format!("lane-{}", ring.lane)
        } else {
            format!("lane-{} ({})", ring.lane, ring.thread)
        };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            ring.lane, label
        ));
    }
    drop(rings);
    for s in &spans {
        // chrome ts/dur are microseconds; keep sub-µs spans visible.
        let dur_us = (s.dur_ns as f64 / 1000.0).max(0.001);
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"dk\",\"ph\":\"X\",\"ts\":{},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"batch\":{},\"layer\":{}}}}}",
            s.stage.as_str(),
            s.start_us,
            dur_us,
            s.lane,
            s.batch,
            s.layer
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}
