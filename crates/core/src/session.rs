//! The DarKnight session: the §3.1 execution flow.
//!
//! One session owns the (simulated) enclave and an execution backend
//! over the GPU fleet, and drives a [`dk_nn::Sequential`] model through
//! private forward/backward passes:
//!
//! 1. activations are max-abs normalized and quantized into the field
//!    (Algorithm 1) **inside the TEE**;
//! 2. the virtual batch of `K` activations plus `M` fresh noise vectors
//!    is masked by the current [`EncodingScheme`] and shipped to GPUs,
//!    which also *store* the encodings for backward reuse (§6);
//! 3. GPUs run the bilinear op; the TEE decodes with `A^{-1}`, checks
//!    the redundant equation, dequantizes, adds bias and runs the
//!    non-linear layers on plaintext floats;
//! 4. backward: bias gradients and non-linear backprop stay in the TEE;
//!    data gradients are offloaded unencoded (they carry no input
//!    information, §4.2); weight gradients come back only as the
//!    aggregate `∇W = (1/K)·Σ_j γ_j Eq_j`.
//!
//! Because the encoding mixes the `K` samples linearly, all samples of a
//! virtual batch share one quantization scale per layer — otherwise the
//! γ-weighted aggregate would blend incompatible fixed-point scales.
//!
//! # A layer pass is one round
//!
//! Each offloaded layer makes exactly one dispatch into the backend per
//! pass ([`GpuExec::execute_round_into`]; [`dk_gpu::exec`] has the
//! contract). Both halves build one `Round` (in `session/round.rs`) and
//! drive it the same way: jobs → dispatch → shape check and fault fold →
//! verify → decode → every buffer back to its pool, on every path. What
//! differs is data the round holds:
//!
//! * the job kind and coefficient block: forward, the `K+M(+1)` encoded
//!   jobs decoded with `A⁻¹` plus the redundant equation (§4.4);
//!   backward, the `K+M` `*Stored` weight-gradient jobs (§6) decoded
//!   with β/γ;
//! * each positional slot's explicit form: forward the job itself;
//!   backward the TEE regenerates `x̄_j` from its retained quantized
//!   inputs and noise;
//! * whether the workers store the encodings for the backward half;
//! * the backward round's addressed part. The spare worker recomputes
//!   one TEE-chosen `Eq_{j*}` on the explicit form, "redundant
//!   computation to verify the results" (§4.5); with recovery on, every
//!   `Eq_j` is recomputed instead, by the next worker round the ring. The
//!   unencoded data-gradient job (it carries no input information, §4.2)
//!   goes to the first worker not convicted of lying and, with integrity
//!   on, also to the last.
//!
//! # Recovery
//!
//! Every disagreement — a missing reply, a failed redundant equation, an
//! answer against its duplicate — goes through one conviction fold. Equal
//! answers stand; otherwise the layer fails closed or, with recovery, the
//! TEE's own recomputation decides and convicts whoever it contradicts. A
//! convicted worker is sent nothing again; a lost or late one is only
//! quarantined. `session/round.rs` gives the rationale and what is booked.
//!
//! Issuing a check concurrently with the job it checks concedes nothing.
//! `j*` comes from the TEE-only `(seed, batch, layer)` stream and is
//! revealed only to the spot-checker, by the job it receives. A checker
//! that colludes with worker `j*` defeats the comparison in either order,
//! by echoing `j*`'s answer, and one that does not collude tells worker
//! `j*` nothing in either order.
//!
//! In `dk_obs` terms the wait for the replies is the `Dispatch` span, the
//! backward comparisons the `Verify` span, and forward localization the
//! `Repair` span inside `Decode`.
//!
//! # Execution backends and determinism
//!
//! The traversal is not the session's: [`dk_nn`]'s walk
//! ([`Sequential::forward_with`] / [`Sequential::backward_with`]) visits
//! the layers, numbers the offloaded ones, runs the non-linear ones on
//! the session's workspace and recycles every intermediate; the session
//! supplies only its step at an offloaded layer (`forward_linear` /
//! `backward_linear`), which a [`dk_gpu::LinearOp`] makes the same code
//! for a convolution and a dense layer.
//!
//! The session is generic over a [`GpuExec`] backend. With the default
//! [`GpuCluster`] it is the **sequential reference**: one virtual batch
//! in flight, rounds run inline. The pipelined engine
//! ([`crate::engine`]) runs the *same* session code on several TEE
//! lanes, each over its own [replica](GpuCluster::replica) of the
//! fleet, with several numbered batches in flight at once.
//!
//! What makes the two modes bit-for-bit identical is that **all
//! per-batch randomness is derived statelessly**: batch `b` of a session
//! seeded `s` draws its scheme from `derive(s, b)` and its layer-`l`
//! noise from `derive(derive(s, b), l)` — never from a shared mutable
//! RNG stream whose position would depend on execution order. The same
//! derivation also makes recovery/replay deterministic.
//!
//! # Virtual-batch lifecycle
//!
//! [`DarknightSession::begin_virtual_batch`] is the *single owner* of
//! batch state: it retires the previous batch (contexts, stored
//! encodings, retained enclave bytes) and installs the next numbered
//! batch. Every public pass entry point routes through it — a pass on a
//! batch that already ran one auto-begins the next batch, so stale
//! contexts can never be reused across entry points.

use crate::config::DarknightConfig;
use crate::engine::StepPlan;
use crate::error::DarknightError;
use crate::scheme::EncodingScheme;
use dk_field::{derive_seed, F25, FieldRng, P25, QuantConfig};
use dk_gpu::{GpuCluster, GpuExec, LinearJob, LinearOp, WorkerId};
use dk_linalg::{Tensor, Workspace};
use dk_nn::layers::{LayerExec, LinearMut};
use dk_nn::loss::softmax_cross_entropy_into;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_obs::Stage;
use dk_tee::{Enclave, EpcConfig};
use round::Coefficients;
use std::collections::HashMap;
use std::sync::Arc;

mod round;

/// Domain separators for the stateless per-batch seed derivation.
const DOMAIN_SCHEME: u64 = 0x5343_4845;
const DOMAIN_NOISE: u64 = 0x4e4f_4953;
const DOMAIN_JSTAR: u64 = 0x4a53_5441;

/// Counters describing one session's offload traffic and work.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Linear jobs dispatched to GPUs (jobs withheld from a convicted
    /// worker and computed in the TEE are not counted).
    pub linear_jobs: u64,
    /// Field elements produced by TEE encoding.
    pub encoded_elems: u64,
    /// Field elements consumed by TEE decoding.
    pub decoded_elems: u64,
    /// Bytes of masked data sent TEE→GPU, in-memory, 8 B per element
    /// (the `TcpFleet` wire carries 4 B per element).
    pub bytes_to_gpus: u64,
    /// Bytes of results received GPU→TEE, in-memory, 8 B per element
    /// (the `TcpFleet` wire carries 4 B per element).
    pub bytes_from_gpus: u64,
    /// Redundant-equation / spot checks performed.
    pub integrity_checks: u64,
    /// Elements processed by non-linear TEE ops.
    pub nonlinear_elems: u64,
    /// Recovery-mode TEE interventions: one per layer pass whose result
    /// set needed a TEE-computed slot (a localized lie, a lost worker's
    /// row, or the row withheld from a convicted worker), plus one per
    /// backward check or data gradient the TEE recomputed.
    pub recoveries: u64,
}

impl SessionStats {
    /// Adds another session's counters into this one (the pipelined
    /// engine aggregates its lanes this way).
    pub fn merge(&mut self, o: &SessionStats) {
        self.linear_jobs += o.linear_jobs;
        self.encoded_elems += o.encoded_elems;
        self.decoded_elems += o.decoded_elems;
        self.bytes_to_gpus += o.bytes_to_gpus;
        self.bytes_from_gpus += o.bytes_from_gpus;
        self.integrity_checks += o.integrity_checks;
        self.nonlinear_elems += o.nonlinear_elems;
        self.recoveries += o.recoveries;
    }
}

/// Appends `w` unless the list already holds it; says whether it did.
/// Worker lists are a handful long and kept in detection order.
pub(crate) fn push_unique(list: &mut Vec<WorkerId>, w: WorkerId) -> bool {
    let new = !list.contains(&w);
    if new {
        list.push(w);
    }
    new
}

/// Result of one private training step.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Mean softmax cross-entropy of the virtual batch.
    pub loss: f32,
    /// Training accuracy of the virtual batch.
    pub accuracy: f32,
}

/// Per-linear-layer state the TEE keeps between forward and backward.
#[derive(Debug, Clone)]
struct LinearCtx {
    norm_x: f32,
    norm_w: f32,
    input_shape: Vec<usize>,
    weights_q: Arc<Tensor<F25>>,
    /// Noise vectors used at this layer (needed to regenerate `x̄_{j*}`
    /// for the backward spot check).
    noise: Vec<Vec<F25>>,
    /// Quantized inputs, kept for the same check.
    inputs_q: Vec<Vec<F25>>,
    enclave_bytes: usize,
}

/// A DarKnight execution session (see module docs). Generic over the
/// [`GpuExec`] backend; `DarknightSession` (the default) is the blocking
/// sequential reference over a [`GpuCluster`].
#[derive(Debug)]
pub struct DarknightSession<X: GpuExec = GpuCluster> {
    cfg: DarknightConfig,
    enclave: Enclave,
    cluster: X,
    scheme: EncodingScheme,
    ctxs: HashMap<u64, LinearCtx>,
    stats: SessionStats,
    /// Number of the installed virtual batch; batch `b`'s randomness is
    /// derived from `(cfg.seed, b)` alone.
    batch_index: u64,
    batch_seed: u64,
    /// Context ids of the installed batch start here (`batch << 32`),
    /// so concurrently in-flight batches never collide on a worker:
    /// layer `ordinal` of the walk is context `ctx_base + ordinal`.
    ctx_base: u64,
    /// True once a pass ran on the installed batch: the next pass entry
    /// auto-begins a fresh batch instead of reusing stale contexts.
    pass_started: bool,
    /// Context ids whose encodings the backend currently stores for this
    /// batch (released when the batch retires).
    stored_ctxs: Vec<u64>,
    /// Optional pre-quantized weights for the current step (weights are
    /// frozen within a step, so the engine extracts them once).
    plan: Option<Arc<StepPlan>>,
    quarantined: Vec<WorkerId>,
    /// The quarantined workers the TEE's own recomputation caught
    /// *lying* (not merely lost or late). Conviction changes routing:
    /// for the rest of the session they are sent no job, no encoding
    /// and no store, and the TEE computes their slot itself. Only ever
    /// grows, by `push` — a prefix is a snapshot.
    convicted: Vec<WorkerId>,
    /// The session's TEE-side buffer pool: quantization rows, noise
    /// vectors, stacking buffers, decoded rows and float activations
    /// all cycle through it across virtual batches, so the steady state
    /// stops re-allocating per layer per batch. Each pipelined lane
    /// owns one session and therefore one workspace — no sharing.
    ws: Workspace,
}

impl DarknightSession<GpuCluster> {
    /// Creates a session over the given cluster with the default SGXv1
    /// enclave budget.
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the cluster is smaller
    /// than `K + M (+1)`.
    pub fn new(cfg: DarknightConfig, cluster: GpuCluster) -> Result<Self, DarknightError> {
        Self::with_enclave(cfg, cluster, EpcConfig::default())
    }

    /// Creates a session with a custom enclave memory budget (memory
    /// experiments shrink it to force paging).
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the cluster is smaller
    /// than `K + M (+1)`.
    pub fn with_enclave(
        cfg: DarknightConfig,
        cluster: GpuCluster,
        epc: EpcConfig,
    ) -> Result<Self, DarknightError> {
        Self::with_backend(cfg, cluster, epc)
    }
}

impl<X: GpuExec> DarknightSession<X> {
    /// Creates a session over an arbitrary execution backend: a
    /// [`dk_gpu::DispatchClient`], a [`dk_gpu::TcpFleet`], or a fleet
    /// replica (the pipelined engine builds its TEE lanes this way).
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the backend exposes
    /// fewer workers than `K + M (+1)`.
    pub fn with_backend(
        cfg: DarknightConfig,
        cluster: X,
        epc: EpcConfig,
    ) -> Result<Self, DarknightError> {
        if cluster.num_workers() < cfg.workers_required() {
            return Err(DarknightError::InsufficientWorkers {
                required: cfg.workers_required(),
                available: cluster.num_workers(),
            });
        }
        // Batch-0 state, built once (identical to `install_batch(0)`).
        let batch_seed = derive_seed(cfg.seed(), 0);
        let scheme = EncodingScheme::generate(
            cfg.k(),
            cfg.m(),
            cfg.integrity(),
            &mut FieldRng::derived(batch_seed, DOMAIN_SCHEME),
        );
        Ok(Self {
            cfg,
            enclave: Enclave::new(epc, b"darknight-enclave-v1"),
            cluster,
            scheme,
            ctxs: HashMap::new(),
            stats: SessionStats::default(),
            batch_index: 0,
            batch_seed,
            ctx_base: 0,
            // A fresh session's first pass must open batch 1, not run
            // on the constructor's batch-0 state.
            pass_started: true,
            stored_ctxs: Vec::new(),
            plan: None,
            quarantined: Vec::new(),
            convicted: Vec::new(),
            ws: Workspace::new(),
        })
    }

    /// Allocation counters of the session's TEE-side buffer pool.
    pub fn workspace_stats(&self) -> dk_linalg::WorkspaceStats {
        self.ws.stats()
    }

    /// Returns a batch of recycled row vectors (and their outer vector)
    /// to the buffer pool.
    fn give_rows(&mut self, mut rows: Vec<Vec<F25>>) {
        for r in rows.drain(..) {
            self.ws.give(r);
        }
        self.ws.give(rows);
    }

    /// Recycles a retired context's quantized inputs and noise vectors.
    fn recycle_ctx(&mut self, ctx: LinearCtx) {
        self.give_rows(ctx.inputs_q);
        self.give_rows(ctx.noise);
        self.ws.give_shape(ctx.input_shape);
    }

    /// Returns a pass output (from [`DarknightSession::private_forward`]
    /// and friends) to the session pool once the caller is done with it,
    /// so the next pass's activations reuse the buffer. Purely an
    /// optimization — dropping the tensor is always correct.
    pub fn recycle_output(&mut self, t: Tensor<f32>) {
        self.ws.give_tensor(t);
    }

    /// The session configuration.
    pub fn config(&self) -> &DarknightConfig {
        &self.cfg
    }

    /// Offload/work counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The counters so far, leaving them at zero: how the pipelined
    /// engine folds a lane's per-call delta into its own.
    pub(crate) fn take_stats(&mut self) -> SessionStats {
        std::mem::take(&mut self.stats)
    }

    /// Enclave memory statistics so far.
    pub fn enclave_stats(&self) -> dk_tee::MemoryStats {
        self.enclave.stats()
    }

    /// The enclave and the session's buffer pool at once: Algorithm 2
    /// seals and aggregates gradient shards in buffers drawn from the
    /// pool.
    pub(crate) fn tee_parts(&mut self) -> (&mut Enclave, &mut Workspace) {
        (&mut self.enclave, &mut self.ws)
    }

    /// Mutable enclave access, used by the Algorithm 2 large-batch
    /// trainer to seal/unseal gradient shards with the session's keys.
    pub fn enclave_mut(&mut self) -> &mut Enclave {
        &mut self.enclave
    }

    /// The execution backend (e.g. to inspect worker observations in
    /// privacy experiments).
    pub fn cluster(&self) -> &X {
        &self.cluster
    }

    /// Mutable backend access (e.g. to flip a worker malicious
    /// mid-session — the paper's dynamic adversary).
    pub fn cluster_mut(&mut self) -> &mut X {
        &mut self.cluster
    }

    /// The active encoding scheme (white-box privacy audits).
    pub fn scheme(&self) -> &EncodingScheme {
        &self.scheme
    }

    /// The number of the currently installed virtual batch.
    pub fn batch_index(&self) -> u64 {
        self.batch_index
    }

    /// Workers the recovery extension has sidelined — caught lying, lost
    /// or timed out — in detection order (duplicates removed). Empty
    /// unless recovery is enabled and a fault occurred.
    pub fn quarantined(&self) -> &[WorkerId] {
        &self.quarantined
    }

    /// The quarantined workers that were caught *lying*: the ones this
    /// session no longer sends anything to.
    pub(crate) fn convicted(&self) -> &[WorkerId] {
        &self.convicted
    }

    /// Starts the session with `liars` already convicted (the engine
    /// hands each fresh lane what earlier lanes found out, so a known
    /// liar is not rediscovered per lane per call). They count as
    /// quarantined from the start, not as newly quarantined by any
    /// batch this session runs.
    pub(crate) fn seed_convictions(&mut self, liars: &[WorkerId]) {
        for &w in liars {
            push_unique(&mut self.quarantined, w);
            push_unique(&mut self.convicted, w);
        }
    }

    /// Installs (or clears, with `None`) a pre-quantized weight plan for
    /// the current step. The plan must have been extracted from the
    /// exact weights the passes will run with; callers are responsible
    /// for clearing it when weights change (e.g. after an SGD step).
    pub fn set_step_plan(&mut self, plan: Option<Arc<StepPlan>>) {
        self.plan = plan;
    }

    /// Starts the next virtual batch: derives the fresh `A`, `B`, `Γ`
    /// (§4.1) for batch number `batch_index + 1` and retires the
    /// previous batch's contexts, stored encodings and retained enclave
    /// bytes. This is the single owner of batch lifecycle — every public
    /// pass entry point routes through it.
    pub fn begin_virtual_batch(&mut self) {
        let next = self.batch_index + 1;
        self.begin_numbered_batch(next);
    }

    /// Starts a specific numbered virtual batch. The pipelined engine
    /// assigns numbers in stream order so lane scheduling cannot change
    /// any batch's masks.
    pub(crate) fn begin_numbered_batch(&mut self, index: u64) {
        self.retire_batch();
        self.install_batch(index);
    }

    /// Fast-forwards the batch cursor to `index` as if that batch had
    /// just completed: the scheme for batch `index` is installed and
    /// marked used, so the next pass begins batch `index + 1` with masks
    /// bit-identical to an uninterrupted run (checkpoint resume). Any
    /// in-flight batch state is retired first.
    pub fn resume_at_batch(&mut self, index: u64) {
        self.begin_numbered_batch(index);
        self.pass_started = true;
    }

    /// Retires the installed batch: drops per-layer contexts, releases
    /// their retained enclave bytes and the backend-stored encodings.
    /// Also runs on drop — a backend can outlive the session (a shared
    /// dispatcher with its persistent workers), so the final batch's
    /// encodings must not be left behind.
    pub(crate) fn retire_batch(&mut self) {
        let mut retained = 0usize;
        let mut ctxs = std::mem::take(&mut self.ctxs);
        for (_, ctx) in ctxs.drain() {
            retained += ctx.enclave_bytes;
            self.recycle_ctx(ctx);
        }
        self.ctxs = ctxs;
        let _ = self.enclave.release(retained);
        if !self.stored_ctxs.is_empty() {
            // Split-borrow so the id list can be passed by reference and
            // cleared in place instead of `mem::take`-ing a fresh Vec
            // every batch.
            let Self { stored_ctxs, cluster, ws, .. } = self;
            cluster.release_contexts(stored_ctxs);
            stored_ctxs.clear();
            cluster.reclaim_stored(ws);
        }
        self.publish_workspace_gauges();
    }

    /// Publishes the TEE-side buffer-pool counters as gauges, so fleet
    /// dashboards can watch the steady state settle (misses flat = the
    /// round-trip is closed). Batch-boundary cadence keeps the hot path
    /// untouched.
    fn publish_workspace_gauges(&self) {
        if !dk_obs::enabled() {
            return;
        }
        let s = self.ws.stats();
        let m = dk_obs::global();
        m.gauge("dk_session_ws_takes").set(s.takes as i64);
        m.gauge("dk_session_ws_misses").set(s.misses as i64);
        m.gauge("dk_session_ws_live_bytes").set(s.live_bytes as i64);
        m.gauge("dk_session_ws_peak_bytes").set(s.peak_bytes as i64);
    }

    fn install_batch(&mut self, index: u64) {
        self.batch_index = index;
        self.batch_seed = derive_seed(self.cfg.seed(), index);
        let mut srng = FieldRng::derived(self.batch_seed, DOMAIN_SCHEME);
        // In-place regeneration: same draws, same matrices, bit for bit
        // — but every `A`/`B`/`Γ` buffer of the previous batch is
        // rewritten instead of reallocated.
        self.scheme.regenerate(&mut srng);
        self.ctx_base = index << 32;
        self.pass_started = false;
    }

    /// Marks a pass as running on the installed batch, auto-beginning a
    /// fresh batch first if one already ran (so no entry point can reuse
    /// stale contexts).
    fn start_pass(&mut self) {
        if self.pass_started {
            self.begin_virtual_batch();
        }
        self.pass_started = true;
    }

    /// A deterministic per-(batch, layer) stream: independent of
    /// execution order by construction.
    fn layer_rng(&self, domain: u64, ordinal: u64) -> FieldRng {
        FieldRng::derived(derive_seed(self.batch_seed, domain), ordinal)
    }

    /// Private forward pass over one virtual batch (`x: [K, ...]`).
    ///
    /// Runs on the installed virtual batch if no pass has used it yet
    /// (e.g. right after [`DarknightSession::begin_virtual_batch`]);
    /// otherwise begins the next batch first.
    ///
    /// # Errors
    ///
    /// Batch-shape mismatch, quantization failure, or an integrity
    /// violation detected by the redundant equation.
    pub fn private_forward(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        train: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        if x.shape()[0] != self.cfg.k() {
            return Err(DarknightError::BatchShape {
                expected: self.cfg.k(),
                actual: x.shape()[0],
            });
        }
        self.start_pass();
        model.forward_with(x, train, &mut Pass { session: self, per_sample: false })
    }

    /// Private backward pass from the loss gradient; accumulates all
    /// parameter gradients (aggregate `∇W` for linear layers).
    ///
    /// # Errors
    ///
    /// Quantization failure, a backward integrity violation, or
    /// [`DarknightError::MissingForwardContext`] if no training-mode
    /// forward pass of the installed batch retained the layer's context.
    pub fn private_backward(
        &mut self,
        model: &mut Sequential,
        dloss: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        model.backward_with(dloss, &mut Pass { session: self, per_sample: false })
    }

    /// Full private training step on one virtual batch: forward, loss,
    /// backward, SGD update.
    ///
    /// # Errors
    ///
    /// Any forward/backward error, or [`DarknightError::BatchShape`] if
    /// `labels.len() != K`; on error no weight update happens.
    pub fn train_step(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        sgd: &mut Sgd,
    ) -> Result<StepReport, DarknightError> {
        let report = self.accumulate_gradients_zeroing(model, x, labels, true)?;
        sgd.step(model);
        Ok(report)
    }

    /// Accumulates gradients for one virtual batch without updating
    /// weights (used by the Algorithm 2 large-batch trainer, which
    /// aggregates across virtual batches before stepping). Does *not*
    /// zero existing gradients.
    ///
    /// # Errors
    ///
    /// Any forward/backward error, or [`DarknightError::BatchShape`] if
    /// `labels.len() != K`.
    pub fn accumulate_gradients(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
    ) -> Result<StepReport, DarknightError> {
        self.accumulate_gradients_zeroing(model, x, labels, false)
    }

    fn accumulate_gradients_zeroing(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        zero_first: bool,
    ) -> Result<StepReport, DarknightError> {
        if labels.len() != self.cfg.k() {
            return Err(DarknightError::BatchShape {
                expected: self.cfg.k(),
                actual: labels.len(),
            });
        }
        if zero_first {
            model.zero_grad();
        }
        let logits = self.private_forward(model, x, true)?;
        let mut dlogits = self.ws.take_tensor_dirty::<f32>(logits.shape());
        let loss = softmax_cross_entropy_into(&logits, labels, &mut dlogits);
        let accuracy = dk_nn::loss::accuracy(&logits, labels);
        self.ws.give_tensor(logits);
        let dx = self.private_backward(model, &dlogits);
        self.ws.give_tensor(dlogits);
        self.ws.give_tensor(dx?);
        Ok(StepReport { loss, accuracy })
    }

    /// Private inference over one virtual batch.
    ///
    /// # Errors
    ///
    /// Any forward error.
    pub fn private_inference(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.private_forward(model, x, false)
    }

    // -----------------------------------------------------------------
    // Forward internals
    // -----------------------------------------------------------------

    /// The session's forward step at offloaded layer `ordinal` of the
    /// walk: quantize, mask, one `Round` (dispatch, decode, dequantize),
    /// then the bias on plaintext floats in the TEE. Returns `W ⋆ x + b`,
    /// each decoded row dequantized by its own scale (`norm_w · norm_x_i`;
    /// all equal in shared mode).
    ///
    /// `per_sample` selects the quantization policy for the inputs — one
    /// shared max-abs scale (training; the backward γ-aggregate needs it)
    /// vs one scale per row (serving inference; rows stay numerically
    /// independent). A training pass with a shared scale retains the
    /// layer for the backward half: the encodings are stored on the
    /// workers and a [`LinearCtx`] is kept. Otherwise nothing outlives
    /// the call and every buffer — encodings, worker outputs, decode rows
    /// — completes a pool round-trip.
    fn forward_linear(
        &mut self,
        ordinal: usize,
        layer: &LinearMut<'_>,
        x: &Tensor<f32>,
        train: bool,
        per_sample: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        let layer_id = self.ctx_base + ordinal as u64;
        let op = LinearOp::new(layer.conv_shape(), layer.weights().shape());
        let retain = train && !per_sample;
        let (k, m, quant) = (self.cfg.k(), self.cfg.m(), self.cfg.quant());
        let (batch, ordinal) = (self.batch_index, ordinal as u64);
        let sp = dk_obs::span(Stage::Quantize, batch, ordinal);
        // Quantized weights: from the step plan when one is installed
        // (weights are frozen within a step, so the engine quantizes them
        // once), freshly computed otherwise. Identical bits either way.
        let (weights_q, norm_w) = match self.plan.as_ref().and_then(|p| p.linear(ordinal)) {
            Some(planned) => (planned.weights_q.clone(), planned.norm_w),
            None => {
                let (wq, norm_w) = quant.normalize_quantize(layer.weights().as_slice())?;
                (Arc::new(Tensor::from_vec(layer.weights().shape(), wq)), norm_w)
            }
        };
        let rest: usize = x.shape()[1..].iter().product();
        // Quantization rows come out of the session pool; they are
        // either retained in the backward context (and recycled when it
        // retires) or given back at the end of this call.
        let mut inputs_q: Vec<Vec<F25>> = self.ws.take_cleared(k);
        let mut norms: Vec<f32> = self.ws.take_cleared(k);
        // One scan of the whole batch in shared mode, one per row
        // otherwise; either way each row is quantized once, straight
        // into its own buffer.
        let shared = (!per_sample).then(|| QuantConfig::max_abs_norm(x.as_slice()));
        let quantized = (0..k).try_for_each(|i| {
            let src = &x.as_slice()[i * rest..(i + 1) * rest];
            let norm_x = shared.unwrap_or_else(|| QuantConfig::max_abs_norm(src));
            norms.push(norm_x);
            inputs_q.push(self.ws.take_cleared::<F25>(rest));
            quant.quantize_slice_into(src, 1.0 / norm_x, &mut inputs_q[i])
        });
        if let Err(e) = quantized {
            self.give_rows(inputs_q);
            self.ws.give(norms);
            return Err(e.into());
        }
        drop(sp);
        let sp = dk_obs::span(Stage::Encode, batch, ordinal);
        // Per-(batch, layer) derived noise: the masks of batch `b`,
        // layer `l` are a pure function of (seed, b, l), so pipelined
        // lanes draw exactly the masks sequential execution would.
        let mut nrng = self.layer_rng(DOMAIN_NOISE, ordinal);
        // Enclave working set: float input + quantized copies + noise +
        // encodings. The fused path never materializes the noise rows,
        // but the charge is kept identical in both branches so paging
        // accounting stays a pure function of shape, not of mode.
        let s_cols = self.scheme.num_encodings();
        let work_bytes = x.len() * 4 + k * rest * 8 + (m + s_cols) * rest * 8;
        let _paged = self.enclave.alloc_paged(work_bytes);
        let (mut encodings, noise) = if retain {
            // The backward spot check replays encodings from the stored
            // noise rows, so a training pass still materializes them.
            let mut rows: Vec<Vec<F25>> = self.ws.take_cleared(m);
            for _ in 0..m {
                let mut v = self.ws.take_cleared::<F25>(rest);
                nrng.uniform_extend::<P25>(rest, &mut v);
                rows.push(v);
            }
            (self.scheme.encode_ws(&inputs_q, &rows, &mut self.ws), rows)
        } else {
            // Inference never revisits the noise: draw it in cache-sized
            // chunks fused straight into the encodings. Identical draw
            // order and count, so bits and RNG stream position match the
            // materialized branch exactly.
            (self.scheme.encode_fused_ws(&inputs_q, &mut nrng, &mut self.ws), Vec::new())
        };
        self.stats.encoded_elems += (s_cols * rest) as u64;
        // Convicted workers are sent nothing — no store, no job — so
        // their encodings never leave the TEE.
        let sent = s_cols - self.withheld_among(s_cols);
        self.stats.bytes_to_gpus += (sent * rest * 8) as u64;
        drop(sp);
        let sp = dk_obs::span(Stage::Dispatch, batch, ordinal);
        // Each pool-backed encoded row becomes one sample-shaped job
        // input. Only a pass with a backward half has the workers keep a
        // (pooled) copy (§6 stored-input reuse); the backend hands
        // released encodings back when the batch retires
        // (`GpuExec::reclaim_stored`).
        let mut stored: Option<Vec<Tensor<F25>>> = retain.then(|| self.ws.take_cleared(s_cols));
        let mut jobs: Vec<LinearJob> = self.ws.take_cleared(s_cols);
        for row in encodings.drain(..) {
            let mut enc_shape = self.ws.take_shape(x.shape());
            enc_shape[0] = 1;
            let t = Tensor::from_parts(enc_shape, row);
            if let Some(stored) = stored.as_mut() {
                stored.push(self.ws.take_tensor_copy(t.shape(), t.as_slice()));
            }
            jobs.push(op.forward_job(weights_q.clone(), t));
        }
        self.ws.give(encodings);
        let mut round = self.open_round(layer_id, sp, jobs, Coefficients::Forward, None);
        round.stored = stored;
        round.scales.extend(norms.iter().map(|&norm_x| norm_w * norm_x));
        round.reply_shape.extend_from_slice(op.sample_output_shape(x.shape(), &mut [0; 4]));
        let norm_x = norms[0];
        self.ws.give(norms);
        let y = self.run_round(round).map(|(y, _)| y);
        // An aborted batch must not leak its charged working set: serving
        // reuses one session across unboundedly many batches, so a leak
        // here would grow `current_bytes` under attack and turn every
        // later honest batch into paging traffic.
        let released = if retain && y.is_ok() {
            // The retained context (noise + quantized inputs for the
            // backward spot check) stays charged.
            let retained = (m + k) * rest * 8;
            let input_shape = self.ws.take_shape(x.shape());
            let ctx = LinearCtx {
                norm_x,
                norm_w,
                input_shape,
                weights_q,
                noise,
                inputs_q,
                enclave_bytes: retained,
            };
            self.ctxs.insert(layer_id, ctx);
            self.enclave.release(work_bytes.saturating_sub(retained))
        } else {
            self.give_rows(inputs_q);
            self.give_rows(noise);
            self.enclave.release(work_bytes)
        };
        let mut y = y?;
        released?;
        op.add_bias(&mut y, layer.bias().as_slice());
        self.stats.nonlinear_elems += y.len() as u64;
        Ok(y)
    }

    // -----------------------------------------------------------------
    // Per-sample-scale inference (serving mode)
    // -----------------------------------------------------------------

    /// Private inference where every sample of the virtual batch is
    /// quantized with its **own** max-abs scale instead of one scale
    /// shared across the batch.
    ///
    /// The shared scale of [`DarknightSession::private_forward`] exists
    /// for the backward pass — the γ-weighted aggregate of Eq. 4–6
    /// cannot blend per-sample fixed-point scales — but it couples
    /// samples numerically: row `i`'s quantization step depends on the
    /// other rows' magnitudes. Forward-only execution has no such
    /// constraint. The decode separates the `K` results exactly in the
    /// field, so each row can be dequantized with its own scale, and
    /// output row `i` is **bit-for-bit** identical to running that
    /// sample alone through [`crate::reference::QuantizedReference`]
    /// with `k = 1`, no matter what else shares the virtual batch.
    /// `dk_serve` builds on exactly this property to aggregate
    /// independent requests (including padded all-zero rows) into full
    /// virtual batches without perturbing anyone's answer.
    ///
    /// Privacy and integrity are unchanged: the GPUs still see only
    /// masked field vectors, and the redundant equation still covers
    /// every offloaded layer.
    ///
    /// # Errors
    ///
    /// Batch-shape mismatch, quantization failure, or an integrity
    /// violation detected by the redundant equation.
    pub fn private_inference_per_sample(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        if x.shape()[0] != self.cfg.k() {
            return Err(DarknightError::BatchShape {
                expected: self.cfg.k(),
                actual: x.shape()[0],
            });
        }
        self.start_pass();
        model.forward_with(x, false, &mut Pass { session: self, per_sample: true })
    }

    // -----------------------------------------------------------------
    // Backward internals
    // -----------------------------------------------------------------

    fn quarantine(&mut self, w: WorkerId) {
        if push_unique(&mut self.quarantined, w) && dk_obs::enabled() {
            dk_obs::fleet().worker(w.0).quarantined();
        }
    }

    /// How many of the first `slots` workers a dispatch would skip.
    fn withheld_among(&self, slots: usize) -> usize {
        self.convicted.iter().filter(|w| w.0 < slots).count()
    }

    /// Quarantines a worker whose answer the TEE's own ground truth
    /// contradicted, and stops routing to it.
    fn convict(&mut self, w: WorkerId) {
        self.quarantine(w);
        push_unique(&mut self.convicted, w);
    }

    /// The backward offload round of one `op` layer: quantize `δ`, then
    /// one `Round` holding everything the layer asks of the fleet (see
    /// the module docs) — the `K+M` `*Stored` weight-gradient jobs, their
    /// checks on TEE-regenerated encodings, and both copies of the
    /// unencoded data-gradient job. Returns the dequantized aggregate
    /// weight gradient and data gradient.
    fn offload_backward(
        &mut self,
        layer_id: u64,
        dy: &Tensor<f32>,
        op: LinearOp,
        ctx: &LinearCtx,
    ) -> Result<(Tensor<f32>, Tensor<f32>), DarknightError> {
        let s_sq = self.cfg.k() + self.cfg.m();
        let (batch, ordinal) = (self.batch_index, layer_id - self.ctx_base);
        let (recovery, integrity) = (self.cfg.recovery(), self.scheme.has_integrity());
        let sp = dk_obs::span(Stage::Quantize, batch, ordinal);
        let mut dq = self.ws.take_cleared::<F25>(dy.len());
        let norm_d = match self.cfg.quant().normalize_quantize_into(dy.as_slice(), &mut dq) {
            Ok(norm) => norm,
            Err(e) => {
                self.ws.give(dq);
                return Err(e.into());
            }
        };
        let dq = Tensor::from_parts(self.ws.take_shape(dy.shape()), dq);
        let delta_q = self.ws.share(dq);
        drop(sp);
        let sp = dk_obs::span(Stage::Dispatch, batch, ordinal);
        // The aggregate weight gradient via the encoded scheme. Convicted
        // workers are sent nothing; the round fills their slots.
        let mut jobs: Vec<LinearJob> = self.ws.take_cleared(s_sq);
        for j in 0..s_sq {
            let beta = self.ws.take_copy(self.scheme.beta_row(j));
            jobs.push(op.weight_grad_stored_job(delta_q.clone(), beta, layer_id));
        }
        let sent = s_sq - self.withheld_among(s_sq);
        self.stats.bytes_to_gpus += (sent * delta_q.len() * 8) as u64;
        // The data gradient: offloaded unencoded (§4.2 item 2), to the
        // first worker not convicted of lying and, when integrity is on,
        // also to the last — workers `0` and `K' − 1` on a clean fleet.
        // The job carries no secret state, so routing it past a
        // convicted worker costs the TEE nothing.
        let (primary, spare) = {
            let mut healthy =
                (0..self.cluster.num_workers()).map(WorkerId).filter(|w| !self.convicted.contains(w));
            (healthy.next(), healthy.next_back().filter(|_| integrity))
        };
        let dj = op.backward_data_job(
            ctx.weights_q.clone(),
            self.ws.take_tensor_copy(delta_q.shape(), delta_q.as_slice()),
            &ctx.input_shape,
        );
        let coefficients =
            Coefficients::Backward { delta_q, op, ctx, dx_scale: norm_d * ctx.norm_w };
        let mut round = self.open_round(layer_id, sp, jobs, coefficients, Some(dj));
        (round.primary, round.spare) = (primary, spare);
        // The checks: which `Eq_j` get recomputed, and by whom. `j*` is
        // derived per (batch, layer) from the TEE-only seed, so it is
        // identical whether the batch runs sequentially or on a pipeline
        // lane. With recovery on, every `Eq_j` a worker is asked for is
        // recomputed by the next worker round the ring of those offered
        // work (the TEE where there is none): each worker additionally
        // observes one neighbouring encoding — one and never two — so an
        // M-tolerant configuration effectively tolerates ⌊M/2⌋ colluders
        // in that mode.
        if integrity && recovery {
            let offered = |w: &WorkerId| !self.convicted.contains(w);
            round.checked.extend(
                (0..s_sq)
                    .filter(|&j| offered(&WorkerId(j)))
                    .map(|j| (j, (1..s_sq).map(|d| WorkerId((j + d) % s_sq)).find(offered))),
            );
        } else if integrity {
            let jstar = self.layer_rng(DOMAIN_JSTAR, ordinal).index(s_sq);
            round.checked.push((jstar, Some(WorkerId(self.cluster.num_workers() - 1))));
        }
        // Unscale `∇W` by `norm_d · norm_x`; the 1/K of Eq. 3 is already
        // folded into the mean-reduced loss gradients.
        round.scales.push(norm_d * ctx.norm_x);
        round.reply_shape.extend_from_slice(ctx.weights_q.shape());
        self.run_round(round)
    }

    /// The session's backward step at offloaded layer `ordinal` of the
    /// walk: the bias gradient is a cheap float reduction inside the
    /// TEE, the weight and data gradients are one offload round against
    /// the context the forward pass retained.
    fn backward_linear(
        &mut self,
        ordinal: usize,
        layer: &mut LinearMut<'_>,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let layer_id = self.ctx_base + ordinal as u64;
        let op = LinearOp::new(layer.conv_shape(), layer.weights().shape());
        let mut db = self.ws.take_zeroed::<f32>(layer.bias().len());
        op.bias_grad_into(dy, &mut db);
        layer.accumulate_bias_grad(&db);
        self.ws.give(db);
        self.stats.nonlinear_elems += dy.len() as u64;
        let Some(ctx) = self.ctxs.remove(&layer_id) else {
            return Err(DarknightError::MissingForwardContext { layer_id });
        };
        let offloaded = self.offload_backward(layer_id, dy, op, &ctx);
        // The context retires also when the offload failed, so an
        // aborted step leaks neither its retained bytes nor its buffers.
        let _ = self.enclave.release(ctx.enclave_bytes);
        self.recycle_ctx(ctx);
        let (gw, dx) = offloaded?;
        layer.accumulate_weight_grad(&gw);
        self.ws.give_tensor(gw);
        Ok(dx)
    }
}

/// One pass of a session over a model: the executor [`dk_nn`]'s walk
/// drives. The traversal — order, ordinals, residual blocks, recycling
/// of intermediates into the session pool — is the walk's; the session
/// supplies its per-layer step and counts the TEE-side elements.
struct Pass<'a, X: GpuExec> {
    session: &'a mut DarknightSession<X>,
    /// One quantization scale per row (serving inference) instead of
    /// one shared by the virtual batch.
    per_sample: bool,
}

impl<X: GpuExec> LayerExec for Pass<'_, X> {
    type Error = DarknightError;

    fn workspace(&mut self) -> &mut Workspace {
        &mut self.session.ws
    }

    fn linear_forward(
        &mut self,
        ordinal: usize,
        layer: LinearMut<'_>,
        x: &Tensor<f32>,
        train: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.session.forward_linear(ordinal, &layer, x, train, self.per_sample)
    }

    fn linear_backward(
        &mut self,
        ordinal: usize,
        mut layer: LinearMut<'_>,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.session.backward_linear(ordinal, &mut layer, dy)
    }

    fn touched(&mut self, elems: usize) {
        self.session.stats.nonlinear_elems += elems as u64;
    }
}

impl<X: GpuExec> Drop for DarknightSession<X> {
    fn drop(&mut self) {
        self.retire_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_gpu::Behavior;
    use dk_nn::arch::{mini_mobilenet, mini_resnet, mini_vgg};
    use dk_nn::loss::softmax_cross_entropy;
    use dk_nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};

    fn small_model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(dk_linalg::Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
            Layer::Relu(Relu::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(4 * 6 * 6, 3, seed ^ 1)),
        ])
    }

    fn input(k: usize) -> Tensor<f32> {
        Tensor::from_fn(&[k, 2, 6, 6], |i| ((i % 13) as f32 - 6.0) * 0.07)
    }

    #[test]
    fn private_forward_matches_plaintext() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 5);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut private_model = small_model(3);
        let mut plain_model = small_model(3);
        let x = input(2);
        let y_priv = session.private_inference(&mut private_model, &x).unwrap();
        let y_plain = plain_model.forward(&x, false);
        let diff = y_priv.max_abs_diff(&y_plain);
        // l=6 quantization at two linear layers: generous tolerance.
        assert!(diff < 0.05, "diff={diff}");
    }

    #[test]
    fn private_gradients_match_plaintext() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 6);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut private_model = small_model(4);
        let mut plain_model = small_model(4);
        let x = input(2);
        let labels = [0usize, 2];

        // Plaintext reference step gradients.
        plain_model.zero_grad();
        let logits = plain_model.forward(&x, true);
        let (_, dl) = softmax_cross_entropy(&logits, &labels);
        plain_model.backward(&dl);
        let mut plain_grads = Vec::new();
        plain_model.visit_params(&mut |_, g| plain_grads.push(g.clone()));

        // Private step gradients.
        private_model.zero_grad();
        session.begin_virtual_batch();
        let logits_p = session.private_forward(&mut private_model, &x, true).unwrap();
        let (_, dlp) = softmax_cross_entropy(&logits_p, &labels);
        session.private_backward(&mut private_model, &dlp).unwrap();
        let mut priv_grads = Vec::new();
        private_model.visit_params(&mut |_, g| priv_grads.push(g.clone()));

        assert_eq!(plain_grads.len(), priv_grads.len());
        for (i, (pg, qg)) in plain_grads.iter().zip(&priv_grads).enumerate() {
            let scale = pg.max_abs().max(1e-3);
            let rel = pg.max_abs_diff(qg) / scale;
            assert!(rel < 0.08, "param {i}: relative grad diff {rel}");
        }
    }

    #[test]
    fn train_step_reduces_loss() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 7);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(5);
        let mut sgd = Sgd::new(0.05);
        let x = input(2);
        let labels = [1usize, 2];
        let first = session.train_step(&mut model, &x, &labels, &mut sgd).unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = session.train_step(&mut model, &x, &labels, &mut sgd).unwrap();
        }
        assert!(last.loss < first.loss * 0.7, "first={} last={}", first.loss, last.loss);
    }

    #[test]
    fn integrity_catches_malicious_forward() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[1] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 8);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(6);
        let err = session.private_inference(&mut model, &input(2)).unwrap_err();
        assert!(matches!(err, DarknightError::IntegrityViolation { phase: "forward", .. }));
    }

    #[test]
    fn no_integrity_mode_is_silently_wrong_under_attack() {
        // Demonstrates why the redundant equation matters: without it a
        // malicious worker corrupts results undetected.
        let cfg = DarknightConfig::new(2, 1).with_integrity(false);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[0] = Behavior::AdditiveNoise;
        let cluster = GpuCluster::with_behaviors(&behaviors, 9);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(7);
        let mut clean_model = small_model(7);
        let y_bad = session.private_inference(&mut model, &input(2)).unwrap();
        let y_good = clean_model.forward(&input(2), false);
        assert!(y_bad.max_abs_diff(&y_good) > 0.1, "corruption should distort outputs");
    }

    #[test]
    fn insufficient_workers_rejected() {
        let cfg = DarknightConfig::new(4, 2).with_integrity(true); // needs 7
        let cluster = GpuCluster::honest(5, 1);
        assert!(matches!(
            DarknightSession::new(cfg, cluster),
            Err(DarknightError::InsufficientWorkers { required: 7, available: 5 })
        ));
    }

    #[test]
    fn wrong_batch_size_rejected() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 2);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(8);
        let err = session.private_inference(&mut model, &input(3)).unwrap_err();
        assert!(matches!(err, DarknightError::BatchShape { expected: 2, actual: 3 }));
    }

    /// A backward pass with no forward context fails closed with the
    /// typed error, in debug and release alike — there is no layer
    /// counter left to underflow.
    #[test]
    fn backward_before_forward_is_a_typed_error() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 33);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(34);
        let dloss = Tensor::from_fn(&[2, 3], |i| i as f32 * 0.1 - 0.2);
        // Backward meets the dense head — the walk's ordinal 1 — first.
        let err = session.private_backward(&mut model, &dloss).unwrap_err();
        assert_eq!(err, DarknightError::MissingForwardContext { layer_id: 1 });
        // An inference pass retains nothing for a backward pass either.
        let _ = session.private_inference(&mut model, &input(2)).unwrap();
        let err = session.private_backward(&mut model, &dloss).unwrap_err();
        assert!(matches!(err, DarknightError::MissingForwardContext { .. }), "{err}");
    }

    #[test]
    fn wrong_label_count_rejected() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 35);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(36);
        let before = model.snapshot_params();
        let err = session.train_step(&mut model, &input(2), &[1], &mut Sgd::new(0.05)).unwrap_err();
        assert_eq!(err, DarknightError::BatchShape { expected: 2, actual: 1 });
        assert_eq!(model.max_param_diff(&before), 0.0, "a rejected step must not update weights");
    }

    #[test]
    fn mini_models_run_privately() {
        for (mut model, name) in [
            (mini_vgg(8, 4, 11), "vgg"),
            (mini_resnet(8, 4, 12), "resnet"),
            (mini_mobilenet(8, 4, 13), "mobilenet"),
        ] {
            let cfg = DarknightConfig::new(2, 1).with_integrity(true);
            let cluster = GpuCluster::honest(cfg.workers_required(), 14);
            let mut session = DarknightSession::new(cfg, cluster).unwrap();
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 9) as f32 - 4.0) * 0.1);
            let mut plain = model.clone();
            let y_priv = session.private_inference(&mut model, &x).unwrap();
            let y_plain = plain.forward(&x, false);
            let diff = y_priv.max_abs_diff(&y_plain);
            assert!(diff < 0.2, "{name}: diff={diff}");
        }
    }

    #[test]
    fn residual_model_trains_privately() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 15);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = mini_resnet(8, 4, 16);
        let mut sgd = Sgd::new(0.02);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 7) as f32 - 3.0) * 0.1);
        let labels = [0usize, 3];
        for _ in 0..3 {
            session.train_step(&mut model, &x, &labels, &mut sgd).unwrap();
        }
    }

    /// The serving-mode guarantee: with per-sample scales, each output
    /// row is bit-identical to running that sample *alone* through the
    /// quantized reference — even when the rows differ in magnitude by
    /// orders of magnitude (which couples rows under the shared scale).
    #[test]
    fn per_sample_inference_matches_solo_reference_bitwise() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 19);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(20);
        let mut x = input(2);
        for v in x.batch_item_mut(1) {
            *v *= 931.0; // magnitude skew between rows
        }
        let y = session.private_inference_per_sample(&mut model, &x).unwrap();
        for i in 0..2 {
            let xi = Tensor::from_vec(&[1, 2, 6, 6], x.batch_item(i).to_vec());
            let mut reference =
                crate::reference::QuantizedReference::new(1, session.config().quant());
            let mut ref_model = small_model(20);
            let yi = reference.forward(&mut ref_model, &xi, false).unwrap();
            assert_eq!(y.batch_item(i), yi.as_slice(), "row {i} diverged from solo reference");
        }
    }

    /// The shared-scale path does *not* have the solo-equality property
    /// (row 0's quantization step is set by row 1's magnitude) — the
    /// contrast that motivates the per-sample mode.
    #[test]
    fn shared_scale_inference_couples_rows() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 21);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(22);
        let mut x = input(2);
        for v in x.batch_item_mut(1) {
            *v *= 931.0;
        }
        let y = session.private_inference(&mut model, &x).unwrap();
        let x0 = Tensor::from_vec(&[1, 2, 6, 6], x.batch_item(0).to_vec());
        let mut reference = crate::reference::QuantizedReference::new(1, session.config().quant());
        let mut ref_model = small_model(22);
        let y0 = reference.forward(&mut ref_model, &x0, false).unwrap();
        assert_ne!(y.batch_item(0), y0.as_slice(), "shared scale unexpectedly decoupled rows");
    }

    #[test]
    fn per_sample_inference_integrity_catches_tampering() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[2] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 23);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(24);
        let err = session.private_inference_per_sample(&mut model, &input(2)).unwrap_err();
        assert!(matches!(err, DarknightError::IntegrityViolation { phase: "forward", .. }));
    }

    /// Regression: an aborted batch must not leak its charged enclave
    /// working set. A serving worker reuses one session across
    /// unboundedly many batches, so a per-failure leak would grow
    /// `current_bytes` monotonically under attack and corrupt every
    /// later batch's paging accounting.
    #[test]
    fn aborted_batches_release_enclave_working_set() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[1] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 27);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(28);
        for _ in 0..3 {
            let _ = session.private_inference_per_sample(&mut model, &input(2)).unwrap_err();
            session.begin_virtual_batch();
            assert_eq!(
                session.enclave_stats().current_bytes,
                0,
                "failed batch leaked enclave bytes"
            );
        }
        // The session recovers fully once the fleet behaves.
        session.cluster_mut().worker_mut(WorkerId(1)).set_behavior(Behavior::Honest);
        session.private_inference_per_sample(&mut model, &input(2)).unwrap();
    }

    #[test]
    fn per_sample_inference_rejects_wrong_batch() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 25);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(26);
        let err = session.private_inference_per_sample(&mut model, &input(3)).unwrap_err();
        assert!(matches!(err, DarknightError::BatchShape { expected: 2, actual: 3 }));
    }

    #[test]
    fn stats_are_populated() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 17);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(18);
        let _ = session.private_inference(&mut model, &input(2)).unwrap();
        let s = session.stats();
        assert!(s.linear_jobs >= 8); // 2 linear layers x 4 encodings
        assert!(s.encoded_elems > 0);
        assert!(s.decoded_elems > 0);
        assert!(s.bytes_to_gpus > 0);
        assert_eq!(s.integrity_checks, 2);
        assert!(session.enclave_stats().peak_bytes > 0);
    }

    /// Satellite regression: consecutive passes through *any* mix of
    /// entry points get fresh batches — no entry point can replay
    /// context ids against a stale `ctxs` map.
    #[test]
    fn consecutive_passes_never_reuse_batch_state() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 31);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(32);
        let x = input(2);
        // Forward in train mode retains contexts for a backward pass...
        session.begin_virtual_batch();
        let b1 = session.batch_index();
        let _ = session.private_forward(&mut model, &x, true).unwrap();
        // ...but a second forward without backward must not reuse them.
        let _ = session.private_forward(&mut model, &x, true).unwrap();
        assert_eq!(session.batch_index(), b1 + 1, "second pass must open a fresh batch");
        // Mixing entry points keeps advancing the batch number.
        let _ = session.private_inference(&mut model, &x).unwrap();
        assert_eq!(session.batch_index(), b1 + 2);
        let _ = session.private_inference_per_sample(&mut model, &x).unwrap();
        assert_eq!(session.batch_index(), b1 + 3);
        // And an explicit begin is honoured by the next pass (no double
        // begin).
        session.begin_virtual_batch();
        let fresh = session.batch_index();
        let _ = session.private_inference(&mut model, &x).unwrap();
        assert_eq!(session.batch_index(), fresh);
    }

    /// Steady-state invariant: after warm-up batches, the session's
    /// workspace pool stops missing — every per-batch buffer (quantized
    /// rows, noise, stacking, decoded rows, activations) is recycled
    /// rather than re-allocated. This is the session-side half of the
    /// zero-allocation hot path (the counting-allocator test in `dk_nn`
    /// enforces the model-side half down to literal zero).
    #[test]
    fn warm_session_workspace_stops_missing() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 51);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(52);
        let x = input(2);
        for _ in 0..3 {
            let _ = session.private_inference(&mut model, &x).unwrap();
        }
        let misses = session.workspace_stats().misses;
        for _ in 0..5 {
            let _ = session.private_inference(&mut model, &x).unwrap();
        }
        let after = session.workspace_stats();
        // The dropped per-batch output tensor is the only buffer that
        // leaves the pool each batch (callers may recycle it; this test
        // deliberately drops it), so allow exactly that many misses.
        assert!(
            after.misses - misses <= 5 * 2,
            "session workspace kept allocating: {} new misses over 5 warm batches",
            after.misses - misses
        );
        assert!(after.takes > 0);
    }

    /// A step plan (weights quantized once, up front) must be invisible
    /// to the results: same bits as quantizing per batch.
    #[test]
    fn step_plan_is_bit_transparent() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let x = input(2);
        let mut model_a = small_model(40);
        let mut model_b = small_model(40);
        let mut plain = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 41))
            .unwrap();
        let mut planned = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 41))
            .unwrap();
        let plan = crate::engine::StepPlan::extract(&model_b, cfg.quant()).unwrap();
        planned.set_step_plan(Some(Arc::new(plan)));
        let ya = plain.private_inference(&mut model_a, &x).unwrap();
        let yb = planned.private_inference(&mut model_b, &x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice());
    }
}
