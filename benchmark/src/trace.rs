//! The benchmark's own spans, recorded from outside the program.
//!
//! Tracing is off in end-to-end runs. In the traced run every call the
//! harness makes into a layer records one span here: the operation
//! itself, and (for the session workloads) each call the session makes
//! into its [`GpuExec`] backend, through [`TimedExec`]. Spans of one
//! operation share its id; a layer's self time is its span minus its
//! children. Spans stay in memory, in a buffer sized up front so that
//! recording never allocates, and are written out once at exit.

use dk_field::F25;
use dk_gpu::{GpuError, GpuExec, LinearJob, WorkerId, WorkerResult};
use dk_linalg::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One operation of the workload, as the caller sees it.
    Op,
    /// `GpuExec::execute` / `execute_into`.
    Execute,
    /// `GpuExec::execute_on`.
    ExecuteOn,
    /// `GpuExec::store_encodings`.
    Store,
    /// `GpuExec::release_contexts`.
    Release,
    /// `GpuExec::recycle_outputs`.
    Recycle,
    /// `ServerHandle::submit`.
    Submit,
}

impl Kind {
    /// `(layer, name)` for the trace file.
    pub fn label(self) -> (&'static str, &'static str) {
        match self {
            Kind::Op => ("bench", "op"),
            Kind::Execute => ("dk_gpu", "execute"),
            Kind::ExecuteOn => ("dk_gpu", "execute_on"),
            Kind::Store => ("dk_gpu", "store_encodings"),
            Kind::Release => ("dk_gpu", "release_contexts"),
            Kind::Recycle => ("dk_gpu", "recycle_outputs"),
            Kind::Submit => ("dk_serve", "submit"),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// The operation that caused it.
    pub op: u64,
    /// Start, nanoseconds since tracing was switched on.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Multiply-accumulates of the jobs in the call (`LinearJob::macs`).
    pub macs: u64,
    /// Tensor bytes handed over by the call.
    pub bytes: u64,
    /// Jobs in the call.
    pub jobs: u32,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans kept per run; recording past it counts drops, it never grows.
const CAPACITY: usize = 1 << 19;

static ON: AtomicBool = AtomicBool::new(false);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    RECORDER.lock().expect("a span recorder panicked")
}

/// Switches span recording on and empties the buffer.
pub fn start() {
    *recorder() = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(CAPACITY),
        dropped: 0,
    });
    ON.store(true, Ordering::SeqCst);
}

/// Switches recording off and hands back the spans and the drop count.
pub fn stop() -> (Vec<Span>, u64) {
    ON.store(false, Ordering::SeqCst);
    recorder()
        .take()
        .map_or((Vec::new(), 0), |r| (r.spans, r.dropped))
}

/// Is recording on? One atomic load; the untraced path pays only this.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Names the operation that spans recorded from now on belong to.
pub fn set_op(op: u64) {
    CURRENT_OP.store(op, Ordering::Relaxed);
}

/// Records a span that started at `t0` and ends now, for operation `op`.
pub fn record_for(op: u64, kind: Kind, t0: Instant, macs: u64, bytes: u64, jobs: u32) {
    let end = Instant::now();
    if let Some(r) = recorder().as_mut() {
        if r.spans.len() == CAPACITY {
            r.dropped += 1;
            return;
        }
        r.spans.push(Span {
            kind,
            op,
            start_ns: t0.saturating_duration_since(r.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(t0).as_nanos() as u64,
            macs,
            bytes,
            jobs,
        });
    }
}

/// [`record_for`] the current operation.
pub fn record(kind: Kind, t0: Instant, macs: u64, bytes: u64, jobs: u32) {
    record_for(
        CURRENT_OP.load(Ordering::Relaxed),
        kind,
        t0,
        macs,
        bytes,
        jobs,
    );
}

/// Chrome trace format (`chrome://tracing`, Perfetto), like
/// `dk_obs::trace::export_chrome`: one complete event per span, one
/// `tid` per layer so children nest under the operation visually.
pub fn export_chrome(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let (layer, name) = s.kind.label();
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{layer}.{name}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"macs\":{},\"bytes\":{},\"jobs\":{}}}}}",
            if s.kind == Kind::Op { 0 } else { 1 },
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.op,
            s.macs,
            s.bytes,
            s.jobs
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn job_bytes(job: &LinearJob) -> u64 {
    let t = |t: &Tensor<F25>| tensor_bytes(std::slice::from_ref(t));
    match job {
        LinearJob::ConvForward { x, .. } | LinearJob::DenseForward { x, .. } => t(x),
        LinearJob::ConvWeightGrad { delta, x, .. } | LinearJob::DenseWeightGrad { delta, x } => {
            t(delta) + t(x)
        }
        LinearJob::ConvBackwardData { delta, .. } | LinearJob::DenseBackwardData { delta, .. } => {
            t(delta)
        }
        LinearJob::ConvWeightGradStored { delta_batch, .. }
        | LinearJob::DenseWeightGradStored { delta_batch, .. } => t(delta_batch),
    }
}

/// A [`GpuExec`] backend that records one span per call and otherwise
/// forwards it untouched, all seven methods, so the session keeps the
/// backend's zero-allocation `execute_into` / `recycle_outputs` path.
#[derive(Debug)]
pub struct TimedExec<X: GpuExec> {
    inner: X,
}

impl<X: GpuExec> TimedExec<X> {
    /// Wraps `inner`.
    pub fn new(inner: X) -> Self {
        Self { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &X {
        &self.inner
    }

    /// The wrapped backend, mutably (fleet shutdown).
    pub fn inner_mut(&mut self) -> &mut X {
        &mut self.inner
    }
}

fn tensor_bytes(tensors: &[Tensor<F25>]) -> u64 {
    tensors
        .iter()
        .map(|t| (t.len() * std::mem::size_of::<F25>()) as u64)
        .sum()
}

/// `(macs, bytes, jobs)` of a call's jobs.
fn jobs_cost(jobs: &[LinearJob]) -> (u64, u64, u32) {
    (
        jobs.iter().map(LinearJob::macs).sum(),
        jobs.iter().map(job_bytes).sum(),
        jobs.len() as u32,
    )
}

/// Makes `call`, and with tracing on records its span with `cost`.
fn timed<R>(kind: Kind, cost: impl FnOnce() -> (u64, u64, u32), call: impl FnOnce() -> R) -> R {
    if !on() {
        return call();
    }
    let t0 = Instant::now();
    let r = call();
    let (macs, bytes, jobs) = cost();
    record(kind, t0, macs, bytes, jobs);
    r
}

impl<X: GpuExec> GpuExec for TimedExec<X> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError> {
        timed(
            Kind::Execute,
            || jobs_cost(jobs),
            || self.inner.execute(tag, jobs),
        )
    }

    fn execute_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        timed(
            Kind::Execute,
            || jobs_cost(jobs),
            || self.inner.execute_into(tag, jobs, out),
        )
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        timed(
            Kind::Recycle,
            || (0, 0, 0),
            || self.inner.recycle_outputs(outputs),
        );
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        timed(
            Kind::ExecuteOn,
            || jobs_cost(std::slice::from_ref(job)),
            || self.inner.execute_on(id, job),
        )
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        // The call consumes the tensors: size them first.
        let bytes = if on() { tensor_bytes(&encodings) } else { 0 };
        timed(
            Kind::Store,
            || (0, bytes, 0),
            || self.inner.store_encodings(ctx_id, encodings),
        );
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        timed(
            Kind::Release,
            || (0, 0, 0),
            || self.inner.release_contexts(ctx_ids),
        );
    }
}

/// Per-operation sums of the spans of one traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpBreakdown {
    /// The operation span, milliseconds.
    pub op_ms: f64,
    /// Time inside `execute*` calls.
    pub execute_ms: f64,
    /// Time inside `store_encodings`.
    pub store_ms: f64,
    /// Time inside the other backend calls (release, recycle).
    pub other_backend_ms: f64,
    /// Jobs dispatched.
    pub jobs: u64,
    /// MACs dispatched.
    pub macs: u64,
}

impl OpBreakdown {
    /// The operation's self time: what the TEE side spent outside the
    /// backend.
    pub fn tee_ms(&self) -> f64 {
        self.op_ms - self.execute_ms - self.store_ms - self.other_backend_ms
    }
}

/// Groups spans by operation id. Operations without an `Op` span (the
/// buffer filled, or warm-up) are left out.
pub fn per_op(spans: &[Span]) -> Vec<OpBreakdown> {
    use std::collections::BTreeMap;
    let mut ops: BTreeMap<u64, (OpBreakdown, bool)> = BTreeMap::new();
    for s in spans {
        let (b, seen) = ops.entry(s.op).or_default();
        let ms = s.dur_ns as f64 / 1e6;
        match s.kind {
            Kind::Op => {
                b.op_ms = ms;
                *seen = true;
            }
            Kind::Execute | Kind::ExecuteOn => {
                b.execute_ms += ms;
                b.jobs += u64::from(s.jobs);
                b.macs += s.macs;
            }
            Kind::Store => b.store_ms += ms,
            Kind::Release | Kind::Recycle => b.other_backend_ms += ms,
            Kind::Submit => {}
        }
    }
    ops.into_values()
        .filter_map(|(b, seen)| seen.then_some(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_operation_minus_its_children() {
        let span = |kind, op, dur_ns, jobs, macs| Span {
            kind,
            op,
            start_ns: 0,
            dur_ns,
            macs,
            bytes: 0,
            jobs,
        };
        let spans = [
            span(Kind::Execute, 1, 2_000_000, 6, 100),
            span(Kind::Execute, 1, 1_000_000, 6, 50),
            span(Kind::Recycle, 1, 500_000, 0, 0),
            span(Kind::Op, 1, 10_000_000, 0, 0),
            // Operation 2 has no Op span: dropped.
            span(Kind::Execute, 2, 1_000_000, 6, 50),
        ];
        let ops = per_op(&spans);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].execute_ms, 3.0);
        assert_eq!(ops[0].jobs, 12);
        assert_eq!(ops[0].macs, 150);
        assert_eq!(ops[0].tee_ms(), 6.5);
        let json = export_chrome(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"dk_gpu.execute\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
    }
}
