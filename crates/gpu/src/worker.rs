//! A single simulated GPU worker.

use crate::behavior::Behavior;
use crate::job::{JobOutput, LinearJob};
use dk_field::{F25, FieldRng};
use dk_linalg::{Tensor, Workspace};
use std::collections::HashMap;

/// Worker identity within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Byte budget of the retained adversary-view record, per worker. The
/// privacy audits consume a few dozen observations; an unbounded log
/// (or one bounded only by entry count, whatever the entries weigh)
/// would grow for the whole lifetime of a training run. Past the budget
/// the record wraps and overwrites the oldest entries in place — the
/// retained view is a window of recent traffic, which is exactly what
/// the chi-square uniformity audit samples.
const OBSERVATION_BUDGET_BYTES: usize = 4 << 20;

/// Ring slots, reserved up front so the record never reallocates (warm
/// training steps stay allocation-steady): the budget in 1 KiB entries.
const OBSERVATION_SLOTS: usize = OBSERVATION_BUDGET_BYTES / 1024;

/// A simulated accelerator.
///
/// Besides executing jobs, the worker does two things a real deployment
/// does:
///
/// * it **stores the forward encodings** it receives, keyed by layer, so
///   the backward pass can reuse them without re-transmission (§6 of the
///   paper: "our current implementation of DarKnight stores these
///   encoded inputs within the GPU memory");
/// * it **records every masked vector it observes** (up to
///   [`OBSERVATION_BUDGET_BYTES`], then a wrapping window), which is
///   exactly the adversary's view — the collusion analyzer consumes
///   this.
#[derive(Debug, Clone)]
pub struct GpuWorker {
    id: WorkerId,
    behavior: Behavior,
    rng: FieldRng,
    stored_encodings: HashMap<u64, Tensor<F25>>,
    observations: Vec<Vec<F25>>,
    /// Bytes of field elements the record holds.
    obs_bytes: usize,
    /// Ring cursor into `observations` once the record has wrapped;
    /// `None` while it is still growing.
    obs_next: Option<usize>,
    jobs_executed: u64,
    macs_executed: u64,
    latency: Option<crate::LatencyModel>,
    /// Kernel scratch pool (im2col columns, packed panels): one per
    /// worker, reused across the job stream. Cloned/forked workers
    /// start with a fresh pool — scratch carries no state.
    ws: Workspace,
}

impl GpuWorker {
    /// Creates a worker with the given behaviour.
    pub fn new(id: WorkerId, behavior: Behavior, seed: u64) -> Self {
        Self {
            id,
            behavior,
            rng: FieldRng::seed_from(seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9)),
            stored_encodings: HashMap::new(),
            observations: Vec::with_capacity(OBSERVATION_SLOTS),
            obs_bytes: 0,
            obs_next: None,
            jobs_executed: 0,
            macs_executed: 0,
            latency: None,
            ws: Workspace::new(),
        }
    }

    /// Attaches (or clears) a modeled execution-latency profile. When
    /// set, [`GpuWorker::execute`] sleeps for the modeled accelerator
    /// time after computing the (host-CPU-simulated) result, so
    /// wall-clock measurements reflect device latency rather than the
    /// speed of the simulation itself.
    pub fn set_latency(&mut self, latency: Option<crate::LatencyModel>) {
        self.latency = latency;
    }

    /// The modeled latency profile, if any.
    pub fn latency(&self) -> Option<crate::LatencyModel> {
        self.latency
    }

    /// The worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The configured behaviour.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Reconfigures the behaviour (tests flip workers malicious
    /// mid-session: the paper's *dynamic* adversary).
    pub fn set_behavior(&mut self, b: Behavior) {
        self.behavior = b;
    }

    /// Stores a forward encoding for later backward reuse and records it
    /// as an observation.
    pub fn store_encoding(&mut self, layer_id: u64, encoding: Tensor<F25>) {
        self.observe(encoding.as_slice());
        self.stored_encodings.insert(layer_id, encoding);
    }

    /// Adds one masked vector to the adversary-view record, keeping the
    /// record inside [`OBSERVATION_BUDGET_BYTES`].
    fn observe(&mut self, seen: &[F25]) {
        let bytes = std::mem::size_of_val(seen);
        let slots = self.observations.len();
        if self.obs_next.is_none()
            && slots < OBSERVATION_SLOTS
            && (slots == 0 || self.obs_bytes + bytes <= OBSERVATION_BUDGET_BYTES)
        {
            self.observations.push(seen.to_vec());
            self.obs_bytes += bytes;
            return;
        }
        // Full: overwrite the oldest slot in place, reusing its
        // allocation when the new observation fits.
        let at = self.obs_next.unwrap_or(0);
        let slot = &mut self.observations[at];
        self.obs_bytes -= std::mem::size_of_val(slot.as_slice());
        slot.clear();
        slot.extend_from_slice(seen);
        self.obs_bytes += bytes;
        // A larger observation than the one it replaced also evicts the
        // next-oldest ones (their slots keep their allocation and refill
        // as the cursor comes round, so a turned-over record stops
        // allocating).
        let mut next = (at + 1) % slots;
        while self.obs_bytes > OBSERVATION_BUDGET_BYTES && next != at {
            let evicted = &mut self.observations[next];
            self.obs_bytes -= std::mem::size_of_val(evicted.as_slice());
            evicted.clear();
            next = (next + 1) % slots;
        }
        self.obs_next = Some((at + 1) % slots);
    }

    /// Retrieves the stored encoding for a layer.
    pub fn stored_encoding(&self, layer_id: u64) -> Option<&Tensor<F25>> {
        self.stored_encodings.get(&layer_id)
    }

    /// Clears stored encodings (between virtual batches).
    pub fn clear_encodings(&mut self) {
        self.stored_encodings.clear();
    }

    /// Removes one stored encoding by context id. Pipelined execution
    /// keys contexts per `(virtual batch, layer)` and releases them
    /// individually, since several batches share the worker at once.
    pub fn remove_encoding(&mut self, ctx_id: u64) {
        self.take_encoding(ctx_id);
    }

    /// [`GpuWorker::remove_encoding`], handing the released tensor back
    /// so its buffers can return to the pool the encoding came from.
    pub fn take_encoding(&mut self, ctx_id: u64) -> Option<Tensor<F25>> {
        self.stored_encodings.remove(&ctx_id)
    }

    /// True once a [`Behavior::Crash`] worker has spent its honest-job
    /// budget: the execution backends consult this before running a job
    /// and simulate the worker's death instead (thread exit / typed
    /// [`crate::GpuError::WorkerLost`]).
    pub fn crash_pending(&self) -> bool {
        matches!(self.behavior, Behavior::Crash { after } if self.jobs_executed >= after)
    }

    /// True if this worker holds every stored encoding the job needs —
    /// i.e. [`GpuWorker::try_execute`] would not refuse it.
    pub fn can_execute(&self, job: &LinearJob) -> bool {
        match job {
            LinearJob::ConvWeightGradStored { layer_id, .. }
            | LinearJob::DenseWeightGradStored { layer_id, .. } => {
                self.stored_encodings.contains_key(layer_id)
            }
            _ => true,
        }
    }

    /// Executes a job, applying the adversarial behaviour to the result.
    ///
    /// # Panics
    ///
    /// Panics if a `*Stored` job references a layer this worker has no
    /// stored encoding for. The execution backends use
    /// [`GpuWorker::try_execute`], where that is a typed fault.
    pub fn execute(&mut self, job: &LinearJob) -> JobOutput {
        self.try_execute(job).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`GpuWorker::execute`] for the execution backends: a `*Stored`
    /// job for a context this worker does not hold (a protocol gap — a
    /// dropped store, a replay that missed) is a
    /// [`GpuError::Remote`](crate::GpuError::Remote) refusal that costs
    /// the session one repaired slot, not a dead worker thread. The
    /// refused job is not counted as executed.
    ///
    /// # Errors
    ///
    /// [`GpuError::Remote`](crate::GpuError::Remote) as described.
    pub fn try_execute(&mut self, job: &LinearJob) -> crate::WorkerResult {
        let mut macs = job.macs();
        // Record what the job reveals: the masked input (forward) or the
        // stored encoding is already recorded; backward-data inputs are
        // deltas, which the threat model treats as non-sensitive.
        let honest = match (self.behavior, job) {
            // `*Stored` jobs run against a borrow of the stored encoding.
            (_, LinearJob::ConvWeightGradStored { delta_batch, beta, layer_id, shape }) => {
                let x = self.stored_encodings.get(layer_id).ok_or_else(|| missing(self.id, *layer_id))?;
                let delta = crate::job::beta_combine(delta_batch, beta, &mut self.ws);
                let dw = dk_linalg::conv::conv2d_backward_weight_ws(&delta, x, shape, &mut self.ws);
                self.ws.give_tensor(delta);
                dw
            }
            (_, LinearJob::DenseWeightGradStored { delta_batch, beta, layer_id }) => {
                let x = self.stored_encodings.get(layer_id).ok_or_else(|| missing(self.id, *layer_id))?;
                let delta = crate::job::beta_combine(delta_batch, beta, &mut self.ws);
                // The `out·in` outer product the job could not count.
                macs += (delta.len() * x.len()) as u64;
                let dw = crate::job::dense_weight_grad(&delta, x, &mut self.ws);
                self.ws.give_tensor(delta);
                dw
            }
            _ => job.execute_ws(&mut self.ws),
        };
        self.jobs_executed += 1;
        self.macs_executed += macs;
        if let Some(l) = self.latency {
            std::thread::sleep(l.delay(macs));
        }
        Ok(self.behavior.corrupt(honest, &mut self.rng))
    }

    /// Returns an output tensor this worker produced back to its
    /// scratch pool, so the next job's output reuses the buffer instead
    /// of allocating. Called by the TEE side once a batch is decoded.
    pub fn recycle_output(&mut self, t: Tensor<F25>) {
        self.ws.give_tensor(t);
    }

    /// Everything this worker has observed (the adversary's view).
    pub fn observations(&self) -> &[Vec<F25>] {
        &self.observations
    }

    /// Number of jobs executed.
    pub fn jobs_executed(&self) -> u64 {
        self.jobs_executed
    }

    /// Total MACs executed (perf accounting).
    pub fn macs_executed(&self) -> u64 {
        self.macs_executed
    }
}

fn missing(worker: WorkerId, layer_id: u64) -> crate::GpuError {
    crate::GpuError::Remote { worker, message: format!("no stored encoding for layer {layer_id}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::LinearOp;
    use dk_linalg::Conv2dShape;
    use std::sync::Arc;

    fn conv_job() -> LinearJob {
        let shape = Conv2dShape::simple(1, 2, 3, 1, 1);
        LinearJob::ConvForward {
            weights: Arc::new(Tensor::from_fn(&shape.weight_shape(), |i| F25::new(i as u64))),
            x: Tensor::from_fn(&[1, 1, 4, 4], |i| F25::new(i as u64)),
            shape,
        }
    }

    #[test]
    fn honest_worker_matches_job() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 1);
        let job = conv_job();
        assert_eq!(w.execute(&job), job.execute());
        assert_eq!(w.jobs_executed(), 1);
        assert!(w.macs_executed() > 0);
    }

    #[test]
    fn malicious_worker_corrupts() {
        let mut w = GpuWorker::new(WorkerId(1), Behavior::AdditiveNoise, 2);
        let job = conv_job();
        assert_ne!(w.execute(&job), job.execute());
    }

    #[test]
    fn stale_input_gives_zero_conv() {
        let mut w = GpuWorker::new(WorkerId(2), Behavior::StaleInput, 3);
        let job = conv_job();
        let out = w.execute(&job);
        assert!(out.as_slice().iter().all(|v| v.is_zero()));
    }

    #[test]
    fn encoding_storage_round_trip() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 4);
        let enc = Tensor::from_fn(&[1, 2, 2, 2], |i| F25::new(i as u64 * 11));
        w.store_encoding(5, enc.clone());
        assert_eq!(w.stored_encoding(5), Some(&enc));
        assert!(w.stored_encoding(6).is_none());
        w.clear_encodings();
        assert!(w.stored_encoding(5).is_none());
        // Observation survives clearing (the adversary remembers).
        assert_eq!(w.observations().len(), 1);
    }

    #[test]
    fn observation_record_stays_inside_its_byte_budget() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 6);
        // Mixed sizes, well past the budget: 3 000 × (8 | 24) KiB.
        for i in 0..3_000u64 {
            let len = if i % 3 == 0 { 3 * 1024 } else { 1024 };
            w.store_encoding(i % 7, Tensor::from_fn(&[1, len], |j| F25::new(i + j as u64)));
            let held: usize = w.observations().iter().map(|o| o.len() * 8).sum();
            assert!(held <= OBSERVATION_BUDGET_BYTES, "record holds {held} bytes after {i} stores");
        }
        // The window is recent traffic: the newest observation is in it.
        let newest = F25::new(2_999);
        assert!(w.observations().iter().any(|o| o.first() == Some(&newest)));
        assert!(w.observations().len() <= OBSERVATION_SLOTS);
    }

    #[test]
    fn stored_job_without_its_context_is_refused_not_fatal() {
        let mut w = GpuWorker::new(WorkerId(3), Behavior::Honest, 7);
        let job = LinearJob::DenseWeightGradStored {
            delta_batch: Arc::new(Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1))),
            beta: vec![F25::ONE],
            layer_id: 9,
        };
        assert!(!w.can_execute(&job));
        let err = w.try_execute(&job).unwrap_err();
        assert!(matches!(err, crate::GpuError::Remote { worker: WorkerId(3), .. }), "{err}");
        assert_eq!(w.jobs_executed(), 0);
        // With the context stored the same job runs, against a borrow.
        let enc = Tensor::from_fn(&[1, 3], |i| F25::new(i as u64 + 2));
        w.store_encoding(9, enc.clone());
        let want = LinearJob::DenseWeightGrad {
            delta: Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1)),
            x: enc.clone(),
        }
        .execute();
        assert_eq!(w.try_execute(&job), Ok(want));
        assert_eq!(w.stored_encoding(9), Some(&enc));
    }

    /// A `*Stored` job and the explicit job on the same operands book
    /// the same MACs, up to the β-combination only the stored form does.
    #[test]
    fn stored_and_explicit_weight_grads_book_the_same_macs() {
        let beta = vec![F25::new(3), F25::new(5)];
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let conv = (
            LinearOp::Conv(shape),
            Tensor::from_fn(&[2, 3, 4, 4], |i| F25::new(i as u64 % 11)),
            Tensor::from_fn(&[1, 2, 4, 4], |i| F25::new(i as u64 % 7)),
        );
        let dense = (
            LinearOp::Dense { in_features: 6, out_features: 4 },
            Tensor::from_fn(&[2, 4], |i| F25::new(i as u64 + 1)),
            Tensor::from_fn(&[1, 6], |i| F25::new(i as u64 + 2)),
        );
        for (op, delta_batch, enc) in [conv, dense] {
            let mut stored = GpuWorker::new(WorkerId(0), Behavior::Honest, 8);
            stored.store_encoding(4, enc.clone());
            let combine = delta_batch.len() as u64;
            let combined = crate::job::beta_combine(&delta_batch, &beta, &mut Workspace::new());
            let explicit_job = op.weight_grad_job(combined, enc);
            let stored_job = op.weight_grad_stored_job(Arc::new(delta_batch), beta.clone(), 4);
            let mut explicit = GpuWorker::new(WorkerId(1), Behavior::Honest, 8);
            assert_eq!(stored.execute(&stored_job), explicit.execute(&explicit_job), "{op:?}");
            assert_eq!(stored.macs_executed(), explicit.macs_executed() + combine, "{op:?}");
        }
    }

    #[test]
    fn behavior_can_change_dynamically() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 5);
        let job = conv_job();
        assert_eq!(w.execute(&job), job.execute());
        w.set_behavior(Behavior::ZeroOutput);
        assert!(w.execute(&job).as_slice().iter().all(|v| v.is_zero()));
    }
}
