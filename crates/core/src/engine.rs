//! Staged pipelined execution: overlap TEE encode / GPU compute / TEE
//! decode across independent virtual batches (§7.1).
//!
//! DarKnight's headline performance claim is that consecutive virtual
//! batches are independent, so the TEE can encode batch `t+1` "under
//! the shadow of GPU execution time" for batch `t` (and decode batch
//! `t−1` likewise). This module makes that real for the actual
//! workloads — the Algorithm 2 large-batch trainer and `dk_serve`'s
//! inference workers — rather than a synthetic demo:
//!
//! * The GPU fleet is driven through [`dk_gpu::GpuDispatcher`]:
//!   persistent per-worker OS threads behind bounded queues, fed by
//!   `submit → Ticket → complete`. Accelerator work proceeds while TEE
//!   threads do other batches' masking.
//! * A [`StepPlan`] is extracted from the [`Sequential`] once per step:
//!   weights are frozen within a step, so their quantization happens
//!   once instead of once per virtual batch and layer.
//! * `lanes` TEE threads stream numbered virtual batches through the
//!   three stages — encode (quantize + mask), GPU linear ops, decode +
//!   §4.4 integrity check. While lane A waits on the fleet for batch
//!   `t`, lane B encodes batch `t+1` and lane C decodes batch `t−1`;
//!   each lane owns a [`DarknightSession`] over a shared
//!   [`DispatchClient`], so the *same* protocol code runs in both
//!   modes.
//!
//! **Determinism.** Every per-batch mask, scheme and spot-check draw is
//! a pure function of `(seed, batch number, layer)` — see
//! [`crate::session`] — and gradient/running-stat reductions happen in
//! batch order after the lanes finish. Pipelined execution is therefore
//! **bit-for-bit identical** to sequential execution: same outputs, same
//! weights, same verdicts, honest or tampering fleet (asserted in
//! `tests/pipelined_equivalence.rs`).
//!
//! The EPC budget is split evenly across lanes: in-flight batches
//! genuinely co-occupy the enclave, so each lane accounts against its
//! share.

use crate::config::DarknightConfig;
use crate::error::DarknightError;
use crate::session::{push_unique, DarknightSession, SessionStats};
use crate::virtual_batch::{
    aggregate_and_step, slice_virtual_batch, virtual_batch_count, LargeBatchReport, SealedGradient,
};
use dk_field::{F25, QuantConfig};
use dk_gpu::dispatch::DispatchClient;
use dk_gpu::{GpuCluster, GpuDispatcher, WorkerId};
use dk_linalg::Tensor;
use dk_nn::layers::Layer;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_tee::crypto::SealedBlob;
use dk_tee::{Enclave, EpcConfig, MemoryStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Pre-quantized weights for one linear layer of a step plan.
#[derive(Debug, Clone)]
pub(crate) struct PlannedLinear {
    pub(crate) weights_q: Arc<Tensor<F25>>,
    pub(crate) norm_w: f32,
}

/// Per-step execution plan extracted from a [`Sequential`] once:
/// the quantized weights of every offloaded linear layer, indexed by the
/// layer's ordinal in the private executor's walk order (main path
/// before shortcut inside residual blocks).
///
/// Weights are frozen within a step — every virtual batch would quantize
/// the exact same floats to the exact same field elements — so the plan
/// is bit-transparent while removing per-batch re-quantization from the
/// hot path.
#[derive(Debug, Clone)]
pub struct StepPlan {
    linears: Vec<PlannedLinear>,
}

impl StepPlan {
    /// Extracts the plan (quantizes every linear layer's weights).
    ///
    /// # Errors
    ///
    /// [`DarknightError::Quant`] if any weight tensor fails Algorithm 1
    /// quantization.
    pub fn extract(model: &Sequential, quant: QuantConfig) -> Result<Self, DarknightError> {
        fn plan(
            vals: &[f32],
            shape: &[usize],
            quant: QuantConfig,
        ) -> Result<PlannedLinear, DarknightError> {
            let (wq, norm_w) = crate::reference::normalize_quantize(quant, vals)?;
            Ok(PlannedLinear { weights_q: Arc::new(Tensor::from_vec(shape, wq)), norm_w })
        }
        fn walk(
            layers: &[Layer],
            quant: QuantConfig,
            out: &mut Vec<PlannedLinear>,
        ) -> Result<(), DarknightError> {
            for l in layers {
                match l {
                    Layer::Conv2d(c) => {
                        out.push(plan(c.weights().as_slice(), &c.shape().weight_shape(), quant)?);
                    }
                    Layer::Dense(d) => {
                        out.push(plan(
                            d.weights().as_slice(),
                            &[d.out_features(), d.in_features()],
                            quant,
                        )?);
                    }
                    Layer::Residual(r) => {
                        walk(r.main(), quant, out)?;
                        walk(r.shortcut(), quant, out)?;
                    }
                    _ => {}
                }
            }
            Ok(())
        }
        let mut linears = Vec::new();
        walk(model.layers(), quant, &mut linears)?;
        Ok(Self { linears })
    }

    /// Number of offloaded linear layers covered.
    pub fn num_linear_layers(&self) -> usize {
        self.linears.len()
    }

    /// The planned weights for the layer with the given walk ordinal.
    pub(crate) fn linear(&self, ordinal: u64) -> Option<&PlannedLinear> {
        self.linears.get(ordinal as usize)
    }
}

/// Bounded inbox depth of each persistent GPU worker thread: room for
/// every job a few lanes' rounds address to one worker, small enough
/// that a flooded fleet backpressures the encoders.
const GPU_QUEUE_DEPTH: usize = 8;

/// Tuning knobs for the pipelined engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// In-flight virtual batches / TEE stage threads. 1 disables
    /// overlap (still dispatcher-backed).
    pub lanes: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self { lanes: 2 }
    }
}

impl EngineOptions {
    /// Sets the lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "the engine needs at least one lane");
        self.lanes = lanes;
        self
    }
}

/// One streamed inference result (see
/// [`PipelineEngine::pump_inference`]).
#[derive(Debug)]
pub struct InferenceOutcome {
    /// The caller-assigned sequence number of the input batch.
    pub seq: u64,
    /// The input batch, handed back so the producer can recycle its
    /// buffer for the next batch (the `dk_serve` feeder keeps a pool of
    /// these — steady-state serving stops allocating batch tensors).
    /// `Option` so consumers can `take()` it without a sentinel.
    pub input: Option<Tensor<f32>>,
    /// The decoded logits, or the error that aborted the batch.
    pub output: Result<Tensor<f32>, DarknightError>,
    /// True if the batch needed TEE-side repair (recovery mode caught
    /// active tampering but served anyway).
    pub repaired: bool,
    /// Workers newly quarantined while serving this batch.
    pub quarantined: Vec<WorkerId>,
    /// Lane wall-clock spent on this batch.
    pub service: Duration,
}

/// One batch result of [`PipelineEngine::infer_batches`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// The decoded logits, or the error that aborted the batch.
    pub output: Result<Tensor<f32>, DarknightError>,
    /// True if the batch needed TEE-side repair.
    pub repaired: bool,
}

#[derive(Default)]
struct LaneAgg {
    stats: SessionStats,
    mem: MemoryStats,
    /// Workers the lanes caught lying (any order, duplicates allowed).
    convicted: Vec<WorkerId>,
}

impl LaneAgg {
    /// Folds a finished lane's counters and convictions in.
    fn absorb(&mut self, lane: &DarknightSession<DispatchClient>) {
        self.stats.merge(&lane.stats());
        self.mem.merge(&lane.enclave_stats());
        self.convicted.extend_from_slice(lane.convicted());
    }
}

/// Captures each BatchNorm layer's per-batch statistics (walk order).
fn collect_bn_stats(model: &mut Sequential) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut v = Vec::new();
    model.visit_leaf_layers_mut(&mut |l| {
        if let Layer::BatchNorm2d(bn) = l {
            if let Some(s) = bn.take_batch_stats() {
                v.push(s);
            }
        }
    });
    v
}

/// Replays one batch's BatchNorm statistics onto the real model, in the
/// same walk order they were captured — restoring the exact sequential
/// running-average chain.
fn replay_bn_stats(model: &mut Sequential, stats: &[(Vec<f32>, Vec<f32>)]) {
    let mut i = 0;
    model.visit_leaf_layers_mut(&mut |l| {
        if let Layer::BatchNorm2d(bn) = l {
            let (mean, var) = &stats[i];
            bn.apply_running_update(mean, var);
            i += 1;
        }
    });
    assert_eq!(i, stats.len(), "BatchNorm layer arity changed mid-step");
}

/// The staged pipelined executor (see module docs).
#[derive(Debug)]
pub struct PipelineEngine {
    cfg: DarknightConfig,
    epc: EpcConfig,
    opts: EngineOptions,
    dispatcher: Arc<GpuDispatcher>,
    /// Aggregation enclave: shares the lane enclaves' code identity, so
    /// it unseals their Algorithm 2 gradient shards.
    tee: Enclave,
    /// Virtual batches are numbered globally across calls, continuing
    /// the same sequence a single sequential session would produce.
    next_batch: u64,
    stats: SessionStats,
    mem: MemoryStats,
    quarantined: Vec<WorkerId>,
    /// The quarantined workers that were caught *lying*. Every fresh
    /// lane session starts with these convicted, so a liar found by one
    /// lane in one call is routed around by every lane of every later
    /// call instead of being rediscovered (a full TEE localization) per
    /// lane per call.
    convicted: Vec<WorkerId>,
}

impl PipelineEngine {
    /// Builds an engine over the fleet: moves the workers onto
    /// persistent dispatcher threads.
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the fleet is smaller
    /// than the configuration requires.
    pub fn new(
        cfg: DarknightConfig,
        cluster: GpuCluster,
        opts: EngineOptions,
    ) -> Result<Self, DarknightError> {
        Self::with_enclave(cfg, cluster, opts, EpcConfig::default())
    }

    /// [`PipelineEngine::new`] with a custom EPC budget (split evenly
    /// across lanes).
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the fleet is smaller
    /// than the configuration requires.
    pub fn with_enclave(
        cfg: DarknightConfig,
        cluster: GpuCluster,
        opts: EngineOptions,
        epc: EpcConfig,
    ) -> Result<Self, DarknightError> {
        assert!(opts.lanes > 0, "the engine needs at least one lane");
        if cluster.len() < cfg.workers_required() {
            return Err(DarknightError::InsufficientWorkers {
                required: cfg.workers_required(),
                available: cluster.len(),
            });
        }
        Ok(Self {
            cfg,
            epc,
            opts,
            dispatcher: Arc::new(cluster.into_dispatcher(GPU_QUEUE_DEPTH)),
            tee: Enclave::new(epc, b"darknight-enclave-v1"),
            next_batch: 0,
            stats: SessionStats::default(),
            mem: MemoryStats::default(),
            quarantined: Vec::new(),
            convicted: Vec::new(),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &DarknightConfig {
        &self.cfg
    }

    /// The engine options.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// Aggregated offload counters across all lanes so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Aggregated enclave counters across all lane enclaves so far
    /// (peaks are summed: lanes are genuinely co-resident).
    pub fn enclave_stats(&self) -> MemoryStats {
        let mut m = self.mem;
        m.merge(&self.tee.stats());
        m
    }

    /// Workers caught lying by the recovery extension, merged across
    /// lanes in virtual-batch order (duplicates removed) — identical to
    /// the list a sequential session accumulates.
    pub fn quarantined(&self) -> &[WorkerId] {
        &self.quarantined
    }

    /// The number of virtual batches consumed so far — the batch cursor
    /// a checkpoint must carry so a resumed engine numbers its next
    /// batch exactly where the interrupted run would have.
    pub fn batches_consumed(&self) -> u64 {
        self.next_batch
    }

    /// Fast-forwards the batch cursor (checkpoint resume): the next
    /// pass will number its first virtual batch `cursor + 1`, so the
    /// derived masks, schemes and spot checks land bit-identical to an
    /// uninterrupted run.
    pub fn resume_at_batch(&mut self, cursor: u64) {
        self.next_batch = cursor;
    }

    /// Seals plaintext with the engine's enclave keys (checkpoint
    /// export). The seal key is derived from the enclave code identity,
    /// so a freshly started engine with the same identity can unseal.
    pub fn seal(&mut self, plaintext: &[u8]) -> SealedBlob {
        self.tee.seal(plaintext)
    }

    /// Unseals a blob produced by [`PipelineEngine::seal`] (or by any
    /// enclave with the same code identity).
    ///
    /// # Errors
    ///
    /// Propagates the enclave's authentication failure if the blob was
    /// tampered with.
    pub fn unseal(&mut self, blob: &SealedBlob) -> Result<Vec<u8>, DarknightError> {
        Ok(self.tee.unseal(blob)?)
    }

    /// Stops the dispatcher threads and returns the fleet with all
    /// accumulated worker state.
    ///
    /// # Panics
    ///
    /// Panics if lane threads are still running (they hold dispatcher
    /// references only during calls, so this cannot happen between
    /// calls).
    pub fn into_cluster(self) -> GpuCluster {
        // Workers lost mid-run were already quarantined (and repaired
        // around) by the lane sessions; `join` respawns them fresh, so
        // the lost list adds nothing here.
        let (cluster, _lost) = Arc::try_unwrap(self.dispatcher)
            .expect("dispatcher still shared — a lane outlived its call")
            .join();
        cluster
    }

    fn lane_session(&self) -> Result<DarknightSession<DispatchClient>, DarknightError> {
        let lane_epc =
            EpcConfig::with_capacity(self.epc.capacity_bytes / self.opts.lanes.max(1));
        let mut lane = DarknightSession::with_backend(
            self.cfg,
            DispatchClient::new(self.dispatcher.clone()),
            lane_epc,
        )?;
        lane.seed_convictions(&self.convicted);
        Ok(lane)
    }

    fn absorb_lane(&mut self, agg: LaneAgg) {
        self.stats.merge(&agg.stats);
        self.mem.merge(&agg.mem);
        for w in agg.convicted {
            push_unique(&mut self.convicted, w);
        }
    }

    fn quarantine_in_order(&mut self, batches: impl Iterator<Item = Vec<WorkerId>>) {
        for delta in batches {
            for w in delta {
                push_unique(&mut self.quarantined, w);
            }
        }
    }

    // -----------------------------------------------------------------
    // Inference
    // -----------------------------------------------------------------

    /// Streams virtual batches through the pipeline: reads `(seq, x)`
    /// items from `input` until it disconnects, serves them on `lanes`
    /// concurrent TEE threads over the shared dispatcher, and emits an
    /// [`InferenceOutcome`] per item on `output` (completion order; use
    /// `seq` to reorder). `dk_serve` workers wrap their dispatch queue
    /// in exactly this.
    ///
    /// Batch `seq` is numbered `next_batch + seq + 1`, so results are
    /// bit-for-bit those of a sequential session consuming the same
    /// stream in `seq` order.
    ///
    /// **Sequence numbers are safety-critical**: each batch's masks are
    /// a pure function of its number, so reusing a `seq` would apply
    /// the same one-time masks to two different plaintexts — exactly
    /// the noise-cancellation attack the scheme's freshness rule (§4.1)
    /// exists to prevent. `seq`s must therefore be strictly increasing;
    /// a violation panics rather than serve.
    ///
    /// # Errors
    ///
    /// Plan extraction failure (weight quantization); per-batch errors
    /// travel in the outcomes instead.
    ///
    /// # Panics
    ///
    /// Panics if the input stream yields a non-increasing `seq`.
    pub fn pump_inference(
        &mut self,
        model: &Sequential,
        per_sample: bool,
        input: mpsc::Receiver<(u64, Tensor<f32>)>,
        output: mpsc::Sender<InferenceOutcome>,
    ) -> Result<(), DarknightError> {
        let plan = Arc::new(StepPlan::extract(model, self.cfg.quant())?);
        let base = self.next_batch;
        struct SeqStream {
            rx: mpsc::Receiver<(u64, Tensor<f32>)>,
            last: Option<u64>,
        }
        let input = Mutex::new(SeqStream { rx: input, last: None });
        let agg = Mutex::new(LaneAgg::default());
        let seq_end = AtomicU64::new(0);
        let lanes = self.opts.lanes;
        let quarantine_log = Mutex::new(Vec::<(u64, Vec<WorkerId>)>::new());
        // Construct every lane session before spawning anything, so a
        // bad configuration fails fast with no threads to unwind.
        let mut sessions = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let mut s = self.lane_session()?;
            s.set_step_plan(Some(plan.clone()));
            sessions.push(s);
        }
        std::thread::scope(|scope| {
            for mut session in sessions {
                let mut lane_model = model.clone();
                let out = output.clone();
                let input = &input;
                let agg = &agg;
                let seq_end = &seq_end;
                let quarantine_log = &quarantine_log;
                scope.spawn(move || {
                    loop {
                        let item = {
                            let mut stream = input.lock().expect("engine input lock");
                            let item = stream.rx.recv();
                            if let Ok((seq, _)) = item {
                                assert!(
                                    stream.last.is_none_or(|l| seq > l),
                                    "pump_inference seq numbers must strictly increase \
                                     (a reused seq would reuse one-time masks)"
                                );
                                stream.last = Some(seq);
                            }
                            item
                        };
                        let Ok((seq, x)) = item else { break };
                        seq_end.fetch_max(seq + 1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        session.begin_numbered_batch(base + seq + 1);
                        let rec0 = session.stats().recoveries;
                        let q0 = session.quarantined().len();
                        let result = if per_sample {
                            session.private_inference_per_sample(&mut lane_model, &x)
                        } else {
                            session.private_inference(&mut lane_model, &x)
                        };
                        let repaired = session.stats().recoveries > rec0;
                        let quarantined = session.quarantined()[q0..].to_vec();
                        if !quarantined.is_empty() {
                            quarantine_log
                                .lock()
                                .expect("quarantine log lock")
                                .push((seq, quarantined.clone()));
                        }
                        if out
                            .send(InferenceOutcome {
                                seq,
                                input: Some(x),
                                output: result,
                                repaired,
                                quarantined,
                                service: t0.elapsed(),
                            })
                            .is_err()
                        {
                            break; // receiver gone: stop consuming
                        }
                    }
                    agg.lock().expect("lane agg lock").absorb(&session);
                });
            }
        });
        drop(output);
        self.next_batch = base + seq_end.load(Ordering::Relaxed);
        let agg = agg.into_inner().expect("lane agg lock");
        self.absorb_lane(agg);
        let mut log = quarantine_log.into_inner().expect("quarantine log lock");
        log.sort_by_key(|(seq, _)| *seq);
        self.quarantine_in_order(log.into_iter().map(|(_, q)| q));
        Ok(())
    }

    /// Pipelined private inference over a slice of pre-formed virtual
    /// batches (each `[K, ...]`); results come back in input order.
    ///
    /// # Errors
    ///
    /// Plan extraction failure; per-batch errors are reported in the
    /// corresponding [`BatchOutcome`].
    pub fn infer_batches(
        &mut self,
        model: &Sequential,
        inputs: &[Tensor<f32>],
        per_sample: bool,
    ) -> Result<Vec<BatchOutcome>, DarknightError> {
        let (tx_in, rx_in) = mpsc::sync_channel(self.opts.lanes.max(1));
        let (tx_out, rx_out) = mpsc::channel();
        std::thread::scope(|scope| -> Result<(), DarknightError> {
            scope.spawn(move || {
                for (i, x) in inputs.iter().enumerate() {
                    if tx_in.send((i as u64, x.clone())).is_err() {
                        return;
                    }
                }
            });
            self.pump_inference(model, per_sample, rx_in, tx_out)
        })?;
        let mut results: Vec<Option<BatchOutcome>> = (0..inputs.len()).map(|_| None).collect();
        for o in rx_out.iter() {
            results[o.seq as usize] =
                Some(BatchOutcome { output: o.output, repaired: o.repaired });
        }
        Ok(results.into_iter().map(|r| r.expect("missing batch outcome")).collect())
    }

    // -----------------------------------------------------------------
    // Training (Algorithm 2, pipelined)
    // -----------------------------------------------------------------

    /// One pipelined Algorithm 2 large-batch step: `x` is `[N, ...]`
    /// with `N = V·K`, `labels.len() == N`. The `V` virtual batches
    /// stream through the lanes (weights are frozen until the step, so
    /// they are independent); each lane seals its per-batch gradient
    /// shards, the engine unseals and aggregates them **in batch
    /// order**, replays BatchNorm running statistics in batch order, and
    /// applies one SGD update — bit-for-bit the sequential
    /// [`crate::virtual_batch::LargeBatchTrainer`] result.
    ///
    /// # Errors
    ///
    /// Any private-execution error (the earliest failing batch wins; no
    /// weight update happens); [`DarknightError::BatchShape`] if `N` is
    /// not a positive multiple of `K`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != N` or `shard_elems == 0`.
    pub fn train_large_batch(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        sgd: &mut Sgd,
        shard_elems: usize,
    ) -> Result<LargeBatchReport, DarknightError> {
        assert!(shard_elems > 0, "shard size must be positive");
        let k = self.cfg.k();
        let v_count = virtual_batch_count(x, labels, k)?;
        let plan = Arc::new(StepPlan::extract(model, self.cfg.quant())?);
        let base = self.next_batch;

        struct VbResult {
            grad: SealedGradient,
            bn: Vec<(Vec<f32>, Vec<f32>)>,
            quarantined: Vec<WorkerId>,
        }
        let results: Mutex<Vec<Option<Result<VbResult, DarknightError>>>> =
            Mutex::new((0..v_count).map(|_| None).collect());
        let next = AtomicU64::new(0);
        let abort = AtomicBool::new(false);
        let agg = Mutex::new(LaneAgg::default());
        let proto = &*model;
        let mut sessions = Vec::with_capacity(self.opts.lanes);
        for _ in 0..self.opts.lanes {
            let mut s = self.lane_session()?;
            s.set_step_plan(Some(plan.clone()));
            sessions.push(s);
        }
        std::thread::scope(|scope| {
            for mut session in sessions {
                let mut lane_model = proto.clone();
                let results = &results;
                let next = &next;
                let abort = &abort;
                let agg = &agg;
                scope.spawn(move || {
                    loop {
                        let v = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if v >= v_count || abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let vb = slice_virtual_batch(x, v, k);
                        let vb_labels = &labels[v * k..(v + 1) * k];
                        lane_model.zero_grad();
                        session.begin_numbered_batch(base + v as u64 + 1);
                        let q0 = session.quarantined().len();
                        let outcome =
                            session.accumulate_gradients(&mut lane_model, &vb, vb_labels);
                        let entry = match outcome {
                            Ok(report) => Ok(VbResult {
                                grad: SealedGradient::seal(
                                    report,
                                    &mut lane_model,
                                    session.enclave_mut(),
                                    shard_elems,
                                ),
                                bn: collect_bn_stats(&mut lane_model),
                                quarantined: session.quarantined()[q0..].to_vec(),
                            }),
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                Err(e)
                            }
                        };
                        results.lock().expect("results lock")[v] = Some(entry);
                    }
                    agg.lock().expect("lane agg lock").absorb(&session);
                });
            }
        });
        self.next_batch = base + v_count as u64;
        self.absorb_lane(agg.into_inner().expect("lane agg lock"));
        let results = results.into_inner().expect("results lock");
        // Earliest failing batch wins (matches sequential order); no
        // weight update on failure.
        let mut per: Vec<VbResult> = Vec::with_capacity(v_count);
        for r in results {
            match r {
                Some(Ok(v)) => per.push(v),
                Some(Err(e)) => return Err(e),
                // Skipped after an abort elsewhere — only reachable
                // together with a Some(Err) at a smaller index... which
                // was returned above, so getting here means a lane
                // raced past the abort flag with no error recorded.
                None => unreachable!("virtual batch skipped without a recorded error"),
            }
        }
        self.quarantine_in_order(per.iter().map(|v| v.quarantined.clone()));

        // BatchNorm running statistics are order-sensitive: replay each
        // batch's captured stats onto the real model in batch order.
        for vb in &per {
            replay_bn_stats(model, &vb.bn);
        }
        // The lanes' shards unseal in the aggregation enclave and sum in
        // batch order — the identical float-sum order to sequential.
        let grads: Vec<SealedGradient> = per.into_iter().map(|vb| vb.grad).collect();
        aggregate_and_step(&mut self.tee, &grads, model, sgd)
    }
}

// ---------------------------------------------------------------------
// Benchmark harness: sequential vs pipelined over real models
// ---------------------------------------------------------------------

/// Wall-clock of the two execution modes over the same workload (the
/// successor of the removed `dk_core::pipeline::compare_pipelining` toy;
/// this one runs the real engine against the real sequential session).
#[derive(Debug, Clone, Copy)]
pub struct PipelineReport {
    /// Sequential (blocking session) wall time.
    pub sequential: Duration,
    /// Pipelined (engine) wall time.
    pub pipelined: Duration,
    /// Virtual batches executed per mode.
    pub batches: usize,
}

impl PipelineReport {
    /// Speedup of pipelined over sequential execution.
    pub fn speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.pipelined.as_secs_f64().max(1e-12)
    }
}

/// Runs `epochs` Algorithm 2 large-batch steps twice — sequential
/// trainer vs pipelined engine, identical seeds and fleet — and returns
/// the wall-clock report plus the final max parameter difference (which
/// must be 0.0: the modes are bit-identical).
///
/// # Errors
///
/// Any private-execution error in either mode.
#[allow(clippy::too_many_arguments)]
pub fn compare_training_modes(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    model: &Sequential,
    x: &Tensor<f32>,
    labels: &[usize],
    epochs: usize,
    lr: f32,
    opts: EngineOptions,
) -> Result<(PipelineReport, f32), DarknightError> {
    let shard = 4096;
    let batches = (x.shape()[0] / cfg.k()) * epochs;

    let mut m_seq = model.clone();
    let mut trainer = crate::virtual_batch::LargeBatchTrainer::new(
        DarknightSession::new(cfg, fleet.fork(cfg.seed()))?,
        shard,
    );
    let mut sgd = Sgd::new(lr);
    let t0 = Instant::now();
    for _ in 0..epochs {
        trainer.train_large_batch(&mut m_seq, x, labels, &mut sgd)?;
    }
    let sequential = t0.elapsed();

    let mut m_pipe = model.clone();
    let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts)?;
    let mut sgd = Sgd::new(lr);
    let t0 = Instant::now();
    for _ in 0..epochs {
        engine.train_large_batch(&mut m_pipe, x, labels, &mut sgd, shard)?;
    }
    let pipelined = t0.elapsed();

    let diff = m_seq.max_param_diff(&m_pipe.snapshot_params());
    Ok((PipelineReport { sequential, pipelined, batches }, diff))
}

/// Runs a stream of inference virtual batches twice — sequential session
/// vs pipelined engine — and returns the wall-clock report plus the max
/// absolute output difference (must be 0.0).
///
/// # Errors
///
/// Any private-execution error in either mode.
pub fn compare_inference_modes(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    model: &Sequential,
    inputs: &[Tensor<f32>],
    opts: EngineOptions,
) -> Result<(PipelineReport, f32), DarknightError> {
    let mut m_seq = model.clone();
    let mut session = DarknightSession::new(cfg, fleet.fork(cfg.seed()))?;
    let t0 = Instant::now();
    let mut seq_out = Vec::with_capacity(inputs.len());
    for x in inputs {
        seq_out.push(session.private_inference(&mut m_seq, x)?);
    }
    let sequential = t0.elapsed();

    let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts)?;
    let t0 = Instant::now();
    let outcomes = engine.infer_batches(model, inputs, false)?;
    let pipelined = t0.elapsed();

    let mut diff = 0.0f32;
    for (s, p) in seq_out.iter().zip(&outcomes) {
        match &p.output {
            Ok(y) => diff = diff.max(s.max_abs_diff(y)),
            Err(e) => return Err(e.clone()),
        }
    }
    Ok((PipelineReport { sequential, pipelined, batches: inputs.len() }, diff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_nn::layers::{Dense, Flatten, Relu};

    fn model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(18, 8, seed)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(8, 3, seed ^ 1)),
        ])
    }

    #[test]
    fn step_plan_covers_linear_layers_in_walk_order() {
        let m = model(1);
        let plan = StepPlan::extract(&m, QuantConfig::new(6)).unwrap();
        assert_eq!(plan.num_linear_layers(), 2);
        assert_eq!(plan.linear(0).unwrap().weights_q.shape(), &[8, 18]);
        assert_eq!(plan.linear(1).unwrap().weights_q.shape(), &[3, 8]);
        assert!(plan.linear(2).is_none());
    }

    #[test]
    fn engine_inference_matches_sequential_bitwise() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let fleet = GpuCluster::honest(cfg.workers_required(), 9);
        let m = model(2);
        let inputs: Vec<Tensor<f32>> = (0..6)
            .map(|b| {
                Tensor::from_fn(&[2, 2, 3, 3], move |i| ((i + b) % 11) as f32 * 0.05 - 0.2)
            })
            .collect();
        let (report, diff) =
            compare_inference_modes(cfg, &fleet, &m, &inputs, EngineOptions::default()).unwrap();
        assert_eq!(report.batches, 6);
        assert_eq!(diff, 0.0, "pipelined inference must be bit-identical");
    }

    #[test]
    fn engine_training_matches_sequential_bitwise() {
        let cfg = DarknightConfig::new(2, 1).with_seed(77);
        let fleet = GpuCluster::honest(cfg.workers_required(), 21);
        let m = model(3);
        let x = Tensor::from_fn(&[8, 2, 3, 3], |i| ((i % 11) as f32 - 5.0) * 0.08);
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let (report, diff) =
            compare_training_modes(cfg, &fleet, &m, &x, &labels, 3, 0.1, EngineOptions::default())
                .unwrap();
        assert_eq!(report.batches, 12);
        assert_eq!(diff, 0.0, "pipelined training must be bit-identical");
    }

    #[test]
    fn engine_rejects_small_fleet() {
        let cfg = DarknightConfig::new(4, 2).with_integrity(true); // needs 7
        let fleet = GpuCluster::honest(5, 3);
        assert!(matches!(
            PipelineEngine::new(cfg, fleet, EngineOptions::default()),
            Err(DarknightError::InsufficientWorkers { required: 7, available: 5 })
        ));
    }

    #[test]
    fn into_cluster_returns_fleet_state() {
        let cfg = DarknightConfig::new(2, 1);
        let fleet = GpuCluster::honest(cfg.workers_required(), 4);
        let mut engine = PipelineEngine::new(cfg, fleet, EngineOptions::default()).unwrap();
        let m = model(5);
        let x = Tensor::from_fn(&[2, 2, 3, 3], |i| (i % 5) as f32 * 0.1);
        let _ = engine.infer_batches(&m, &[x], false).unwrap();
        assert!(engine.stats().linear_jobs > 0);
        let cluster = engine.into_cluster();
        assert!(cluster.total_macs() > 0, "worker state must survive the dispatcher");
    }

    /// Regression: lane sessions must retire their final batch on drop —
    /// the dispatcher workers are persistent, so a leaked context would
    /// accumulate activation-sized encodings on every engine call.
    #[test]
    fn retired_lanes_leave_no_stored_encodings_behind() {
        let cfg = DarknightConfig::new(2, 1);
        let fleet = GpuCluster::honest(cfg.workers_required(), 6);
        let mut engine = PipelineEngine::new(cfg, fleet, EngineOptions::default()).unwrap();
        let m = model(7);
        let inputs: Vec<Tensor<f32>> =
            (0..5).map(|b| Tensor::from_fn(&[2, 2, 3, 3], move |i| ((i + b) % 5) as f32 * 0.1)).collect();
        let n_batches = inputs.len() as u64;
        let _ = engine.infer_batches(&m, &inputs, false).unwrap();
        let cluster = engine.into_cluster();
        for w in cluster.workers() {
            for batch in 1..=n_batches {
                for layer in 0..2u64 {
                    assert!(
                        w.stored_encoding((batch << 32) + layer).is_none(),
                        "worker {} leaked encoding for batch {batch} layer {layer}",
                        w.id()
                    );
                }
            }
        }
    }
}
