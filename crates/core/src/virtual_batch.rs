//! Large-batch weight aggregation — Algorithm 2 of the paper.
//!
//! SGX cannot hold the per-virtual-batch weight updates `∇W_v` of a full
//! training batch (e.g. 128 images = 32 virtual batches of `K = 4`), so
//! DarKnight:
//!
//! 1. computes `∇W_v` per virtual batch inside the enclave,
//! 2. splits it into **shards**, seals each shard (encrypt + MAC) and
//!    evicts it to untrusted memory (Algorithm 2 lines 9–10),
//! 3. after the last virtual batch, reloads shard-by-shard, unseals and
//!    accumulates inside the enclave (`UpdateAggregation`), and
//! 4. applies one SGD step with the batch-wide aggregate.
//!
//! Sharding bounds the enclave working set during aggregation to one
//! shard regardless of model size — the paper's "pipelined approach to
//! shard-wise aggregation".

use crate::checkpoint::TrainingCheckpoint;
use crate::engine::PipelineEngine;
use crate::error::DarknightError;
use crate::session::{DarknightSession, StepReport};
use dk_gpu::GpuExec;
use dk_linalg::Tensor;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_tee::crypto::{bytes_to_f32s, f32s_to_bytes, SealedBlob};
use dk_tee::{Enclave, UntrustedStore};

/// Telemetry from one large-batch training step.
#[derive(Debug, Clone, Default)]
pub struct LargeBatchReport {
    /// Per-virtual-batch loss.
    pub losses: Vec<f32>,
    /// Per-virtual-batch training accuracy.
    pub accuracies: Vec<f32>,
    /// Number of virtual batches processed.
    pub virtual_batches: usize,
    /// Seal (encrypt+evict) operations performed.
    pub seal_ops: u64,
    /// Unseal (reload+decrypt) operations performed.
    pub unseal_ops: u64,
    /// Bytes moved to untrusted memory.
    pub bytes_evicted: u64,
    /// Bytes reloaded during aggregation.
    pub bytes_reloaded: u64,
}

impl LargeBatchReport {
    /// Mean loss across virtual batches.
    pub fn mean_loss(&self) -> f32 {
        if self.losses.is_empty() {
            0.0
        } else {
            self.losses.iter().sum::<f32>() / self.losses.len() as f32
        }
    }
}

/// Number of virtual batches in a large batch `x` of `[N, ...]`.
///
/// # Errors
///
/// [`DarknightError::BatchShape`] if `N` is not a positive multiple of
/// `K`, or if there is not exactly one label per sample.
pub(crate) fn virtual_batch_count(
    x: &Tensor<f32>,
    labels: &[usize],
    k: usize,
) -> Result<usize, DarknightError> {
    let n = x.shape()[0];
    if !n.is_multiple_of(k) || n == 0 {
        return Err(DarknightError::BatchShape { expected: k, actual: n });
    }
    if labels.len() != n {
        return Err(DarknightError::BatchShape { expected: n, actual: labels.len() });
    }
    Ok(n / k)
}

/// Slices virtual batch `v` (`K` consecutive samples) out of `x`.
fn slice_virtual_batch(x: &Tensor<f32>, v: usize, k: usize) -> Tensor<f32> {
    let sample_elems: usize = x.shape()[1..].iter().product();
    let mut shape = x.shape().to_vec();
    shape[0] = k;
    Tensor::from_vec(&shape, x.as_slice()[v * k * sample_elems..(v + 1) * k * sample_elems].to_vec())
}

/// One virtual batch's `∇W_v` as it leaves the enclave: sharded and
/// sealed (Algorithm 2 lines 8–10), the blobs living in untrusted memory.
pub(crate) struct SealedGradient {
    report: StepReport,
    blobs: Vec<SealedBlob>,
}

impl SealedGradient {
    /// Extracts the gradient `model` holds after virtual batch `v`'s
    /// backward pass, shards it and seals each shard with `enclave`.
    fn seal(
        report: StepReport,
        model: &mut Sequential,
        enclave: &mut Enclave,
        shard_elems: usize,
    ) -> Self {
        let blobs = model
            .grad_vector()
            .chunks(shard_elems)
            .map(|shard| enclave.seal(&f32s_to_bytes(shard)))
            .collect();
        Self { report, blobs }
    }
}

/// Algorithm 2's per-virtual-batch body (lines 3–10), the part both
/// trainers share: slices virtual batch `v` out of the large batch,
/// computes its `∇W_v` into `model`'s (zeroed) gradient buffers on
/// `session`'s installed batch, and seals it shard by shard with the
/// session's enclave.
///
/// # Errors
///
/// Any private-execution error of the forward/backward pass.
pub(crate) fn seal_virtual_batch_gradient<X: GpuExec>(
    session: &mut DarknightSession<X>,
    model: &mut Sequential,
    x: &Tensor<f32>,
    labels: &[usize],
    v: usize,
    shard_elems: usize,
) -> Result<SealedGradient, DarknightError> {
    let k = session.config().k();
    let vb = slice_virtual_batch(x, v, k);
    model.zero_grad();
    let report = session.accumulate_gradients(model, &vb, &labels[v * k..(v + 1) * k])?;
    Ok(SealedGradient::seal(report, model, session.enclave_mut(), shard_elems))
}

/// `UpdateAggregation` and the step (Algorithm 2 lines 12–21), the tail
/// both trainers share: reloads the sealed gradients shard by shard — so
/// `tee` only ever holds one shard of the aggregate — unseals and sums
/// them **in batch order**, takes the mean over virtual batches,
/// installs it as the model's gradient and applies one SGD update
/// (`W ← W − η·∇W`).
///
/// # Errors
///
/// The enclave's authentication failure if a blob was tampered with.
pub(crate) fn aggregate_and_step(
    tee: &mut Enclave,
    grads: &[SealedGradient],
    model: &mut Sequential,
    sgd: &mut Sgd,
) -> Result<LargeBatchReport, DarknightError> {
    let mut report = LargeBatchReport { virtual_batches: grads.len(), ..Default::default() };
    for g in grads {
        report.losses.push(g.report.loss);
        report.accuracies.push(g.report.accuracy);
        report.seal_ops += g.blobs.len() as u64;
        report.bytes_evicted += g.blobs.iter().map(|b| b.len() as u64).sum::<u64>();
    }
    let mut aggregate: Vec<f32> = Vec::with_capacity(model.num_params());
    for s in 0..grads[0].blobs.len() {
        let mut acc: Vec<f32> = Vec::new();
        for g in grads {
            report.bytes_reloaded += g.blobs[s].len() as u64;
            let shard = bytes_to_f32s(&tee.unseal(&g.blobs[s])?);
            report.unseal_ops += 1;
            if acc.is_empty() {
                acc = shard;
            } else {
                for (a, b) in acc.iter_mut().zip(shard) {
                    *a += b;
                }
            }
        }
        aggregate.append(&mut acc);
    }
    let inv_v = 1.0 / grads.len() as f32;
    for g in aggregate.iter_mut() {
        *g *= inv_v;
    }
    model.set_grad_vector(&aggregate);
    sgd.step(model);
    Ok(report)
}

/// How the trainer executes its virtual batches.
#[derive(Debug)]
enum Backend {
    /// Blocking reference: one batch at a time on one session.
    Sequential(Box<DarknightSession>),
    /// Overlapped execution on the pipelined engine ([`crate::engine`]);
    /// bit-for-bit identical results.
    Pipelined(Box<PipelineEngine>),
}

/// Trains on batches larger than the virtual batch by aggregating
/// sealed per-virtual-batch gradients (Algorithm 2), sequentially or —
/// the production path — pipelined across TEE lanes and persistent GPU
/// worker threads.
#[derive(Debug)]
pub struct LargeBatchTrainer {
    backend: Backend,
    shard_elems: usize,
    steps: u64,
    checkpoint_every: Option<u64>,
    /// Sealed checkpoints evicted to untrusted storage, keyed by step.
    checkpoints: UntrustedStore,
    latest_checkpoint_step: Option<u64>,
}

impl LargeBatchTrainer {
    /// Wraps a session (sequential reference mode). `shard_elems` is the
    /// shard granularity for sealed gradient blobs (Algorithm 2's
    /// sharding; the paper uses "a set of DNN layers" per shard —
    /// element-granular shards subsume that).
    ///
    /// # Panics
    ///
    /// Panics if `shard_elems == 0`.
    pub fn new(session: DarknightSession, shard_elems: usize) -> Self {
        Self::with_backend(Backend::Sequential(Box::new(session)), shard_elems)
    }

    /// Wraps a pipelined engine: gradient accumulation streams the
    /// virtual batches of each large batch across the engine's lanes
    /// (weights are frozen until the step, so the batches are
    /// independent), with results bit-for-bit equal to
    /// [`LargeBatchTrainer::new`].
    ///
    /// # Panics
    ///
    /// Panics if `shard_elems == 0`.
    pub fn pipelined(engine: PipelineEngine, shard_elems: usize) -> Self {
        Self::with_backend(Backend::Pipelined(Box::new(engine)), shard_elems)
    }

    fn with_backend(backend: Backend, shard_elems: usize) -> Self {
        assert!(shard_elems > 0, "shard size must be positive");
        Self {
            backend,
            shard_elems,
            steps: 0,
            checkpoint_every: None,
            checkpoints: UntrustedStore::new(),
            latest_checkpoint_step: None,
        }
    }

    /// Enables automatic sealed checkpoints every `every` large-batch
    /// steps (see [`crate::checkpoint`]). Blobs accumulate in an
    /// untrusted store, retrievable via
    /// [`LargeBatchTrainer::latest_checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_checkpoint_interval(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
        self
    }

    /// Large-batch steps completed so far (across resume boundaries).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The most recent sealed checkpoint, if any was taken.
    pub fn latest_checkpoint(&mut self) -> Option<SealedBlob> {
        let step = self.latest_checkpoint_step?;
        self.checkpoints.get(step)
    }

    /// Captures, seals and evicts a checkpoint of the current training
    /// state (call at a step boundary: after
    /// [`LargeBatchTrainer::train_large_batch`] returns, never between).
    pub fn checkpoint(&mut self, model: &mut Sequential, sgd: &Sgd) -> SealedBlob {
        let cursor = match &self.backend {
            Backend::Sequential(s) => s.batch_index(),
            Backend::Pipelined(e) => e.batches_consumed(),
        };
        let cfg = match &self.backend {
            Backend::Sequential(s) => *s.config(),
            Backend::Pipelined(e) => *e.config(),
        };
        let ckpt = TrainingCheckpoint::capture(&cfg, cursor, self.steps, model, sgd);
        let bytes = ckpt.to_bytes();
        let blob = match &mut self.backend {
            Backend::Sequential(s) => s.enclave_mut().seal(&bytes),
            Backend::Pipelined(e) => e.seal(&bytes),
        };
        self.checkpoints.put(self.steps, blob.clone());
        self.latest_checkpoint_step = Some(self.steps);
        blob
    }

    /// Resumes a sequential trainer from a sealed checkpoint: unseals
    /// with the fresh session's enclave (same code identity ⇒ same seal
    /// key), validates the configuration, installs weights / optimizer
    /// state / BatchNorm running statistics, and fast-forwards the
    /// virtual-batch cursor so every subsequent derived mask stream is
    /// bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Enclave authentication failure (tampered blob) or
    /// [`DarknightError::Checkpoint`] on any mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `shard_elems == 0`.
    pub fn resume(
        mut session: DarknightSession,
        shard_elems: usize,
        blob: &SealedBlob,
        model: &mut Sequential,
        sgd: &mut Sgd,
    ) -> Result<Self, DarknightError> {
        let bytes = session.enclave_mut().unseal(blob)?;
        let ckpt = TrainingCheckpoint::from_bytes(&bytes)?;
        ckpt.validate_config(session.config())?;
        ckpt.install(model, sgd)?;
        session.resume_at_batch(ckpt.next_batch);
        let mut t = Self::new(session, shard_elems);
        t.steps = ckpt.steps;
        Ok(t)
    }

    /// Resumes onto a pipelined engine — bit-identical to
    /// [`LargeBatchTrainer::resume`] by the engine's sequential
    /// equivalence, at any lane count.
    ///
    /// # Errors
    ///
    /// Same as [`LargeBatchTrainer::resume`].
    ///
    /// # Panics
    ///
    /// Panics if `shard_elems == 0`.
    pub fn resume_pipelined(
        mut engine: PipelineEngine,
        shard_elems: usize,
        blob: &SealedBlob,
        model: &mut Sequential,
        sgd: &mut Sgd,
    ) -> Result<Self, DarknightError> {
        let bytes = engine.unseal(blob)?;
        let ckpt = TrainingCheckpoint::from_bytes(&bytes)?;
        ckpt.validate_config(engine.config())?;
        ckpt.install(model, sgd)?;
        engine.resume_at_batch(ckpt.next_batch);
        let mut t = Self::pipelined(engine, shard_elems);
        t.steps = ckpt.steps;
        Ok(t)
    }

    /// The wrapped session (sequential mode).
    ///
    /// # Panics
    ///
    /// Panics in pipelined mode — use [`LargeBatchTrainer::engine`].
    pub fn session(&self) -> &DarknightSession {
        match &self.backend {
            Backend::Sequential(s) => s,
            Backend::Pipelined(_) => panic!("pipelined trainer has no single session"),
        }
    }

    /// The wrapped engine, if this trainer is pipelined.
    pub fn engine(&self) -> Option<&PipelineEngine> {
        match &self.backend {
            Backend::Pipelined(e) => Some(e),
            Backend::Sequential(_) => None,
        }
    }

    /// Runs one large-batch step: `x` is `[N, ...]` with
    /// `N = V·K`, `labels.len() == N`. Performs Algorithm 2 and one SGD
    /// update.
    ///
    /// # Errors
    ///
    /// Any private-execution error; [`DarknightError::BatchShape`] if
    /// `N` is not a multiple of `K` or `labels.len()` differs from `N`.
    pub fn train_large_batch(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        sgd: &mut Sgd,
    ) -> Result<LargeBatchReport, DarknightError> {
        let shard_elems = self.shard_elems;
        let report = match &mut self.backend {
            Backend::Pipelined(engine) => {
                engine.train_large_batch(model, x, labels, sgd, shard_elems)
            }
            Backend::Sequential(session) => {
                train_sequential(session, model, x, labels, sgd, shard_elems)
            }
        }?;
        self.steps += 1;
        if self.checkpoint_every.is_some_and(|every| self.steps.is_multiple_of(every)) {
            let _ = self.checkpoint(model, sgd);
        }
        Ok(report)
    }
}

/// The blocking reference implementation of Algorithm 2: one virtual
/// batch at a time on one session, gradients landing in `model`'s own
/// buffers.
fn train_sequential(
    session: &mut DarknightSession,
    model: &mut Sequential,
    x: &Tensor<f32>,
    labels: &[usize],
    sgd: &mut Sgd,
    shard_elems: usize,
) -> Result<LargeBatchReport, DarknightError> {
    let v_count = virtual_batch_count(x, labels, session.config().k())?;
    let grads = (0..v_count)
        .map(|v| seal_virtual_batch_gradient(session, model, x, labels, v, shard_elems))
        .collect::<Result<Vec<_>, _>>()?;
    aggregate_and_step(session.enclave_mut(), &grads, model, sgd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DarknightConfig;
    use dk_gpu::GpuCluster;
    use dk_nn::layers::{Dense, Flatten, Layer, Relu};

    fn model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(18, 8, seed)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(8, 3, seed ^ 1)),
        ])
    }

    fn trainer(k: usize, shard: usize) -> LargeBatchTrainer {
        let cfg = DarknightConfig::new(k, 1).with_seed(77);
        let cluster = GpuCluster::honest(cfg.workers_required(), 21);
        LargeBatchTrainer::new(DarknightSession::new(cfg, cluster).unwrap(), shard)
    }

    fn batch(n: usize) -> (Tensor<f32>, Vec<usize>) {
        let x = Tensor::from_fn(&[n, 2, 3, 3], |i| ((i % 11) as f32 - 5.0) * 0.08);
        let labels = (0..n).map(|i| i % 3).collect();
        (x, labels)
    }

    #[test]
    fn large_batch_step_runs_and_counts() {
        let mut t = trainer(2, 16);
        let mut m = model(1);
        let mut sgd = Sgd::new(0.05);
        let (x, labels) = batch(8); // 4 virtual batches of K=2
        let report = t.train_large_batch(&mut m, &x, &labels, &mut sgd).unwrap();
        assert_eq!(report.virtual_batches, 4);
        assert_eq!(report.losses.len(), 4);
        // params = 18*8+8 + 8*3+3 = 179 -> ceil(179/16)=12 shards/VB
        assert_eq!(report.seal_ops, 4 * 12);
        assert_eq!(report.unseal_ops, 4 * 12);
        assert!(report.bytes_evicted > 0);
    }

    #[test]
    fn aggregate_matches_sum_of_virtual_batches() {
        // Running Algorithm 2 must equal accumulating all virtual
        // batches' gradients directly (same session RNG stream) and
        // stepping once with the mean.
        let (x, labels) = batch(4);
        let mut sgd_a = Sgd::new(0.1);
        let mut m_a = model(2);
        let mut t = trainer(2, 7);
        t.train_large_batch(&mut m_a, &x, &labels, &mut sgd_a).unwrap();

        // Reference: same masked execution (same seed), manual mean.
        let cfg = DarknightConfig::new(2, 1).with_seed(77);
        let cluster = GpuCluster::honest(cfg.workers_required(), 21);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut m_b = model(2);
        let mut grads_sum: Vec<f32> = Vec::new();
        for v in 0..2 {
            let mut vb = Tensor::zeros(&[2, 2, 3, 3]);
            for i in 0..2 {
                vb.batch_item_mut(i).copy_from_slice(x.batch_item(v * 2 + i));
            }
            m_b.zero_grad();
            session.accumulate_gradients(&mut m_b, &vb, &labels[v * 2..(v + 1) * 2]).unwrap();
            let mut flat = Vec::new();
            m_b.visit_params(&mut |_, g| flat.extend_from_slice(g.as_slice()));
            if grads_sum.is_empty() {
                grads_sum = flat;
            } else {
                for (a, b) in grads_sum.iter_mut().zip(flat) {
                    *a += b;
                }
            }
        }
        let mut off = 0;
        m_b.visit_params(&mut |_, g| {
            for v in g.as_mut_slice() {
                *v = grads_sum[off] * 0.5;
                off += 1;
            }
        });
        let mut sgd_b = Sgd::new(0.1);
        sgd_b.step(&mut m_b);

        // The two models must end up with identical weights (sealing is
        // lossless; float sum order is identical shard-wise vs direct
        // because shards partition contiguous ranges).
        let snap_b = m_b.snapshot_params();
        let diff = m_a.max_param_diff(&snap_b);
        assert!(diff < 1e-6, "diff={diff}");
    }

    #[test]
    fn non_multiple_batch_rejected() {
        let mut t = trainer(2, 16);
        let mut m = model(3);
        let mut sgd = Sgd::new(0.1);
        let (x, labels) = batch(5);
        assert!(matches!(
            t.train_large_batch(&mut m, &x, &labels, &mut sgd),
            Err(DarknightError::BatchShape { expected: 2, actual: 5 })
        ));
        // A label-count mismatch is the same typed error, on both
        // trainers, not a panic.
        let (x, labels) = batch(4);
        assert!(matches!(
            t.train_large_batch(&mut m, &x, &labels[..3], &mut sgd),
            Err(DarknightError::BatchShape { expected: 4, actual: 3 })
        ));
        let cfg = DarknightConfig::new(2, 1).with_seed(77);
        let engine = PipelineEngine::new(
            cfg,
            GpuCluster::honest(cfg.workers_required(), 21),
            crate::engine::EngineOptions::default(),
        )
        .unwrap();
        let mut pipelined = LargeBatchTrainer::pipelined(engine, 16);
        assert!(matches!(
            pipelined.train_large_batch(&mut m, &x, &labels[..3], &mut sgd),
            Err(DarknightError::BatchShape { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn training_over_epochs_reduces_loss() {
        let mut t = trainer(2, 64);
        let mut m = model(4);
        let mut sgd = Sgd::new(0.3);
        let (x, labels) = batch(8);
        let first = t.train_large_batch(&mut m, &x, &labels, &mut sgd).unwrap().mean_loss();
        let mut last = first;
        for _ in 0..30 {
            last = t.train_large_batch(&mut m, &x, &labels, &mut sgd).unwrap().mean_loss();
        }
        assert!(last < first * 0.6, "first={first} last={last}");
    }

    #[test]
    fn pipelined_trainer_is_bitwise_equal_to_sequential() {
        use crate::engine::{EngineOptions, PipelineEngine};
        let (x, labels) = batch(8);
        let mut m_seq = model(9);
        let mut m_pipe = model(9);
        let mut sgd_a = Sgd::new(0.1);
        let mut sgd_b = Sgd::new(0.1);
        let mut seq = trainer(2, 7);
        let cfg = DarknightConfig::new(2, 1).with_seed(77);
        let cluster = GpuCluster::honest(cfg.workers_required(), 21);
        let engine = PipelineEngine::new(cfg, cluster, EngineOptions::default()).unwrap();
        let mut pipe = LargeBatchTrainer::pipelined(engine, 7);
        assert!(pipe.engine().is_some());
        for _ in 0..3 {
            let ra = seq.train_large_batch(&mut m_seq, &x, &labels, &mut sgd_a).unwrap();
            let rb = pipe.train_large_batch(&mut m_pipe, &x, &labels, &mut sgd_b).unwrap();
            assert_eq!(ra.losses, rb.losses, "per-batch losses must match bitwise");
            assert_eq!(ra.seal_ops, rb.seal_ops);
            assert_eq!(ra.bytes_evicted, rb.bytes_evicted);
            assert_eq!(m_seq.max_param_diff(&m_pipe.snapshot_params()), 0.0);
        }
    }

    #[test]
    fn shard_size_does_not_change_result() {
        let (x, labels) = batch(4);
        let mut results = Vec::new();
        for shard in [4usize, 64, 4096] {
            let mut t = trainer(2, shard);
            let mut m = model(5);
            let mut sgd = Sgd::new(0.1);
            t.train_large_batch(&mut m, &x, &labels, &mut sgd).unwrap();
            results.push(m.snapshot_params());
        }
        for pair in results.windows(2) {
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                assert!(a.max_abs_diff(b) < 1e-6);
            }
        }
    }
}
