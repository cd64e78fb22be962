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
//! * Each lane drives its own [replica](GpuCluster::replica) of the
//!   fleet: the same worker ids, behaviours and modeled devices, with an
//!   execution state of its own. A lane runs a round inline, on its own
//!   thread, right after writing the round's encodings — no thread
//!   hand-off, no job copy, no reply board per job. Accelerator work of
//!   one lane proceeds while the other lanes do their batches' masking;
//!   on a fleet with modeled latency the replicas of a worker share its
//!   device, so two lanes' jobs on one worker still queue behind each
//!   other.
//! * A [`StepPlan`] is extracted from the [`Sequential`] once per step:
//!   weights are frozen within a step, so their quantization happens
//!   once instead of once per virtual batch and layer (and into the
//!   previous call's buffers).
//! * `lanes` TEE threads stream numbered virtual batches through the
//!   three stages — encode (quantize + mask), GPU linear ops, decode +
//!   §4.4 integrity check. While lane A runs the fleet's jobs for batch
//!   `t`, lane B encodes batch `t+1` and lane C decodes batch `t−1`;
//!   each lane owns a [`DarknightSession`] over its replica, so the
//!   *same* protocol code runs in both modes.
//!
//! **One lane loop.** Virtual batches are independent, so the lanes are
//! the only concurrency there is, and every lane — inference, training,
//! a `dk_serve` pool worker — is the same loop on one thread: pull the
//! next unit of work, run it on the lane's session, deliver the result.
//! One private scaffold (`run_lanes`) readies the lanes, starts the
//! named threads (`dk-lane-{i}`), joins them and hands back, in batch
//! order, what the lanes report; nothing relays a batch to or from a
//! lane.
//!
//! **Lanes outlive a call.** The first call builds each lane — a
//! session with its warm workspace and fleet replica, and a copy of the
//! model — and every later call reuses it. Per call a lane takes
//! the caller's weights and running statistics in place, installs the
//! call's step plan and the engine's convictions, restarts its enclave
//! counters (the engine folds per-call deltas), and retires its last
//! batch before its thread ends, so no stored encoding outlives the
//! call. Buffers a lane's batches hand the engine — sealed gradient
//! shards, BatchNorm statistics — go back to that lane's workspace
//! after aggregation. [`PipelineEngine::into_cluster`] folds every
//! lane's replica back into the fleet.
//!
//! **Numbering is the engine's.** A batch's masks are a pure function of
//! its number, so a number must never be used twice (§4.1). The engine
//! assigns it at the pull, from one strictly increasing cursor
//! ([`PipelineEngine::batches_consumed`]); callers never name a batch.
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
    aggregate_and_step, seal_virtual_batch_gradient, virtual_batch_count, LargeBatchReport,
    SealedGradient,
};
use dk_field::{F25, QuantConfig};
use dk_gpu::{GpuCluster, WorkerId};
use dk_linalg::{Tensor, Workspace};
use dk_nn::layers::Layer;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_tee::crypto::SealedBlob;
use dk_tee::{Enclave, EpcConfig, MemoryStats};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Pre-quantized weights for one linear layer of a step plan.
#[derive(Debug, Clone)]
pub(crate) struct PlannedLinear {
    pub(crate) weights_q: Arc<Tensor<F25>>,
    pub(crate) norm_w: f32,
}

/// Per-step execution plan extracted from a [`Sequential`] once:
/// the quantized weights of every offloaded linear layer, indexed by the
/// ordinal [`dk_nn`]'s walk gives the layer
/// ([`Sequential::try_visit_linear`]).
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
        let mut linears = Vec::new();
        model.try_visit_linear(|ordinal, layer| {
            debug_assert_eq!(ordinal, linears.len());
            let weights = layer.weights();
            let (wq, norm_w) = quant.normalize_quantize(weights.as_slice())?;
            let weights_q = Arc::new(Tensor::from_vec(weights.shape(), wq));
            linears.push(PlannedLinear { weights_q, norm_w });
            Ok::<(), DarknightError>(())
        })?;
        Ok(Self { linears })
    }

    /// Number of offloaded linear layers covered.
    pub fn num_linear_layers(&self) -> usize {
        self.linears.len()
    }

    /// Re-quantizes the plan for `model`'s current weights in place,
    /// reusing every buffer. False when it cannot — a planned tensor is
    /// still shared, or the model's linear layers are not the planned
    /// ones — and the plan is then to be discarded.
    ///
    /// # Errors
    ///
    /// As [`StepPlan::extract`].
    fn refresh(&mut self, model: &Sequential, quant: QuantConfig) -> Result<bool, DarknightError> {
        let (mut same, mut count) = (true, 0);
        let linears = &mut self.linears;
        model.try_visit_linear(|ordinal, layer| {
            count += 1;
            let w = layer.weights();
            let Some(planned) = linears.get_mut(ordinal) else {
                same = false;
                return Ok(());
            };
            let Some(t) = Arc::get_mut(&mut planned.weights_q).filter(|t| t.shape() == w.shape()) else {
                same = false;
                return Ok(());
            };
            let (shape, mut data) = std::mem::take(t).into_parts();
            let norm = quant.normalize_quantize_into(w.as_slice(), &mut data);
            *t = Tensor::from_parts(shape, data);
            planned.norm_w = norm?;
            Ok::<(), DarknightError>(())
        })?;
        Ok(same && count == linears.len())
    }

    /// The planned weights for the layer with the given walk ordinal.
    pub(crate) fn linear(&self, ordinal: u64) -> Option<&PlannedLinear> {
        self.linears.get(ordinal as usize)
    }
}

/// Tuning knobs for the pipelined engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// In-flight virtual batches: TEE lane threads, each driving its own
    /// replica of the fleet. 1 disables overlap: one thread runs every
    /// batch and every round in turn.
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

/// One served virtual batch: what [`PipelineEngine::infer_batches`]
/// returns per input and [`PipelineEngine::pump`] hands to its sink.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The decoded logits, or the error that aborted the batch.
    pub output: Result<Tensor<f32>, DarknightError>,
    /// True if the batch needed TEE-side repair (recovery mode caught
    /// active tampering but served anyway).
    pub repaired: bool,
}

/// One TEE lane: a session over the lane's replica of the fleet and
/// the lane's own copy of the model.
#[derive(Debug)]
struct Lane {
    index: usize,
    session: DarknightSession<GpuCluster>,
    model: Sequential,
}

/// Each BatchNorm layer's per-batch statistics in walk order — every
/// layer's means, then its variances — in a buffer drawn from `ws`.
fn collect_bn_stats(model: &mut Sequential, ws: &mut Workspace) -> Vec<f32> {
    let mut len = 0;
    model.visit_leaf_layers_mut(&mut |l| {
        if let Layer::BatchNorm2d(bn) = l {
            len += 2 * bn.channels();
        }
    });
    let mut out = ws.take_cleared(len);
    model.visit_leaf_layers_mut(&mut |l| {
        if let Layer::BatchNorm2d(bn) = l {
            if let Some((mean, var)) = bn.batch_stats() {
                out.extend_from_slice(mean);
                out.extend_from_slice(var);
            }
        }
    });
    out
}

/// Replays one batch's BatchNorm statistics onto the real model, in the
/// same walk order they were captured — restoring the exact sequential
/// running-average chain.
fn replay_bn_stats(model: &mut Sequential, stats: &[f32]) {
    let mut rest = stats;
    model.visit_leaf_layers_mut(&mut |l| {
        if let Layer::BatchNorm2d(bn) = l {
            let c = bn.channels();
            let (mean, tail) = rest.split_at(c);
            let (var, tail) = tail.split_at(c);
            bn.apply_running_update(mean, var);
            rest = tail;
        }
    });
    assert!(rest.is_empty(), "BatchNorm layer arity changed mid-step");
}

/// The staged pipelined executor (see module docs).
#[derive(Debug)]
pub struct PipelineEngine {
    cfg: DarknightConfig,
    epc: EpcConfig,
    opts: EngineOptions,
    /// The fleet the lanes replicate; it takes their state back in
    /// [`PipelineEngine::into_cluster`].
    fleet: GpuCluster,
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
    /// The TEE lanes, kept from call to call (see
    /// [`PipelineEngine::run_lanes`]); empty until the first call.
    lanes: Vec<Lane>,
    /// The last call's step plan, re-quantized in place by the next.
    plan: Option<Arc<StepPlan>>,
    /// The aggregation enclave's buffer pool.
    ws: Workspace,
}

impl PipelineEngine {
    /// Builds an engine over the fleet. No thread starts here: a call
    /// starts its lanes, and the first call builds each lane's replica
    /// of the fleet.
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
            fleet: cluster,
            tee: Enclave::new(epc, b"darknight-enclave-v1"),
            next_batch: 0,
            stats: SessionStats::default(),
            mem: MemoryStats::default(),
            quarantined: Vec::new(),
            convicted: Vec::new(),
            lanes: Vec::new(),
            plan: None,
            ws: Workspace::new(),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &DarknightConfig {
        &self.cfg
    }

    /// Aggregated offload counters across all lanes so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Aggregated enclave counters across all lane enclaves so far.
    /// Counters add up over every lane of every call; the peak is that
    /// of the fullest single call — its lanes' peaks summed, since lanes
    /// of one call are genuinely co-resident, while the lanes of two
    /// calls never are — plus the aggregation enclave's own.
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

    /// Returns the fleet with every lane replica's state folded in: per
    /// worker the jobs and MACs the lanes ran, what they observed and
    /// any encoding they still hold (none between calls: a lane retires
    /// its last batch before its thread ends).
    pub fn into_cluster(mut self) -> GpuCluster {
        for lane in &mut self.lanes {
            self.fleet.absorb(lane.session.cluster_mut());
        }
        self.fleet
    }

    fn lane_session(&self, index: usize) -> Result<DarknightSession<GpuCluster>, DarknightError> {
        let lane_epc =
            EpcConfig::with_capacity(self.epc.capacity_bytes / self.opts.lanes.max(1));
        // A replica's worker RNGs are a function of the engine seed and
        // the lane, so a rerun makes the same corruptions.
        let seed = self.cfg.seed() ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut lane = DarknightSession::with_backend(self.cfg, self.fleet.replica(seed), lane_epc)?;
        lane.seed_convictions(&self.convicted);
        Ok(lane)
    }

    /// The lane scaffold, owned once: extracts the step plan, readies
    /// `lanes` sessions and model copies, runs `body` on each on its own
    /// named thread, and after the join folds every lane's counters and
    /// convictions into the engine. `body` returns what its lane has to
    /// report per batch, keyed by batch; the lanes' reports come back
    /// merged **in batch order**, which is the order every
    /// order-sensitive reduction (quarantine list, BatchNorm replay,
    /// gradient sums) must run in.
    ///
    /// **Lanes outlive a call.** The sessions, with their warm
    /// workspaces and fleet replicas, and the model copies are built by
    /// the first call and kept. What a lane resets per call:
    /// - its model copy takes the caller's weights and running
    ///   statistics in place ([`Sequential::copy_state_from`]);
    /// - its session installs this call's [`StepPlan`] and is seeded
    ///   with every conviction the engine knows of;
    /// - its enclave counters restart, so the lane's peak is this call's
    ///   and its counters this call's delta; its session counters are
    ///   taken (left at zero) when the call folds them in;
    /// - before its thread ends it retires its last batch, so no
    ///   encoding it stored outlives the call.
    ///
    /// # Errors
    ///
    /// Plan extraction (weight quantization) or lane-session
    /// construction; no thread has started when either fails.
    fn run_lanes<R: Send>(
        &mut self,
        model: &Sequential,
        body: impl Fn(&mut Lane) -> Vec<(u64, R)> + Sync,
    ) -> Result<Vec<R>, DarknightError> {
        let quant = self.cfg.quant();
        let mut plan = self.plan.take();
        let fresh = match plan.as_mut().and_then(Arc::get_mut) {
            Some(planned) => !planned.refresh(model, quant)?,
            None => true,
        };
        let plan = match plan {
            Some(plan) if !fresh => plan,
            _ => Arc::new(StepPlan::extract(model, quant)?),
        };
        self.plan = Some(plan.clone());
        // Sessions and model copies are all readied here, on the calling
        // thread, before any lane starts: a bad configuration fails with
        // nothing to unwind, and `Sequential` is `Send` but not `Sync`.
        while self.lanes.len() < self.opts.lanes {
            let index = self.lanes.len();
            let lane = Lane { index, session: self.lane_session(index)?, model: model.clone() };
            self.lanes.push(lane);
        }
        for Lane { session, model: copy, .. } in &mut self.lanes {
            copy.copy_state_from(model);
            session.set_step_plan(Some(plan.clone()));
            session.seed_convictions(&self.convicted);
            session.enclave_mut().reset_stats();
        }
        // Stable names, call after call: `dk_obs` keys a lane's span
        // ring on them. A named caller (a `dk_serve` pool worker) shows
        // up as a prefix, so two engines' lanes stay apart in a trace.
        let caller = std::thread::current();
        let prefix = match caller.name() {
            Some(name) if name != "main" => format!("{name}/"),
            _ => String::new(),
        };
        let body = &body;
        let finished: Vec<(Vec<(u64, R)>, &mut Lane)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| {
                    #[allow(clippy::expect_used, reason = "documented: an engine without threads cannot run")]
                    std::thread::Builder::new()
                        .name(format!("{prefix}dk-lane-{i}"))
                        .spawn_scoped(scope, move || {
                            let report = body(lane);
                            // Nothing of this call stays referenced: no
                            // stored encoding on the replica, no planned
                            // tensor (the next call re-quantizes in place).
                            lane.session.retire_batch();
                            lane.session.set_step_plan(None);
                            (report, lane)
                        })
                        .expect("spawn lane thread")
                })
                .collect();
            // Joined one by one (not left to the scope) so each thread
            // has fully exited, thread-locals included, on return.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        let mut reports = Vec::new();
        let mut call_mem = MemoryStats::default();
        for (report, lane) in finished {
            self.stats.merge(&lane.session.take_stats());
            call_mem.merge(&lane.session.enclave_stats());
            for &w in lane.session.convicted() {
                push_unique(&mut self.convicted, w);
            }
            reports.extend(report);
        }
        // This call's lanes were resident together, and their peaks were
        // restarted at its start: their peaks add, successive calls' don't.
        let peak = self.mem.peak_bytes.max(call_mem.peak_bytes);
        self.mem.merge(&call_mem);
        self.mem.peak_bytes = peak;
        reports.sort_by_key(|(batch, _)| *batch);
        Ok(reports.into_iter().map(|(_, r)| r).collect())
    }

    fn quarantine_in_order(&mut self, batches: impl IntoIterator<Item = Vec<WorkerId>>) {
        for w in batches.into_iter().flatten() {
            push_unique(&mut self.quarantined, w);
        }
    }

    // -----------------------------------------------------------------
    // Inference
    // -----------------------------------------------------------------

    /// Serves a stream of virtual batches on `lanes` concurrent TEE
    /// threads, each over its own fleet replica. Every lane runs the
    /// same loop until `source` returns `None`: pull, run, deliver.
    ///
    /// * `source(spare)` yields the next `[K, ...]` batch plus a ticket
    ///   (whatever the caller needs to recognize the answer). `spare` is
    ///   the batch this lane pulled last time, handed back so a source
    ///   that assembles batches can refill it instead of allocating.
    ///   Calls are serialized under the engine's lock; `source` may
    ///   block.
    /// * `sink(ticket, outcome, quarantined)` runs on the lane thread the
    ///   moment the batch finishes (completion order, concurrently
    ///   across lanes), with the workers the batch newly quarantined. An
    ///   output tensor it returns goes back to the lane's buffer pool.
    ///
    /// **The engine numbers the batches**, in the same critical section
    /// as the pull: the `i`-th batch `source` yields is batch
    /// `batches_consumed() + i`. A batch's one-time masks are a pure
    /// function of its number (§4.1), so a caller cannot make two
    /// batches share them, and results are bit-for-bit those of a
    /// sequential session consuming the batches in pull order.
    ///
    /// # Errors
    ///
    /// Plan extraction failure (weight quantization), before anything
    /// is pulled; per-batch errors travel in the outcomes instead.
    pub fn pump<X: Borrow<Tensor<f32>>, T>(
        &mut self,
        model: &Sequential,
        per_sample: bool,
        source: impl FnMut(Option<X>) -> Option<(X, T)> + Send,
        sink: impl Fn(T, BatchOutcome, &[WorkerId]) -> Option<Tensor<f32>> + Sync,
    ) -> Result<(), DarknightError> {
        let base = self.next_batch;
        // (the source, batches pulled): pull order is numbering order.
        let pull = Mutex::new((source, 0u64));
        let logs = self.run_lanes(model, |Lane { session, model, .. }| {
            let mut quarantine_log = Vec::new();
            let mut spare = None;
            loop {
                let (number, x, ticket) = {
                    // Poisoned: a sibling lane panicked inside `source`.
                    // Stop pulling; its panic resurfaces at the join.
                    let Ok(mut pull) = pull.lock() else { break };
                    let Some((x, ticket)) = (pull.0)(spare.take()) else { break };
                    pull.1 += 1;
                    (base + pull.1, x, ticket)
                };
                session.begin_numbered_batch(number);
                let rec0 = session.stats().recoveries;
                let q0 = session.quarantined().len();
                let output = if per_sample {
                    session.private_inference_per_sample(model, x.borrow())
                } else {
                    session.private_inference(model, x.borrow())
                };
                let outcome = BatchOutcome { output, repaired: session.stats().recoveries > rec0 };
                let quarantined = &session.quarantined()[q0..];
                if !quarantined.is_empty() {
                    quarantine_log.push((number, quarantined.to_vec()));
                }
                if let Some(y) = sink(ticket, outcome, quarantined) {
                    session.recycle_output(y);
                }
                spare = Some(x);
            }
            quarantine_log
        })?;
        let (_, pulled) = pull.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.next_batch = base + pulled;
        self.quarantine_in_order(logs);
        Ok(())
    }

    /// Pipelined private inference over a slice of pre-formed virtual
    /// batches (each `[K, ...]`); results come back in input order, and
    /// `inputs[i]` is batch `batches_consumed() + i + 1` — the numbers
    /// (so the workers' view, not just the outputs) a sequential session
    /// would give the same stream.
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
        let slots: Vec<OnceLock<BatchOutcome>> = inputs.iter().map(|_| OnceLock::new()).collect();
        let mut stream = inputs.iter().enumerate();
        self.pump(
            model,
            per_sample,
            |_spare| stream.next().map(|(i, x)| (x, i)),
            |i: usize, outcome, _| {
                // Each index is pulled once, so its slot is empty.
                let _ = slots[i].set(outcome);
                None
            },
        )?;
        // `pump` delivers every batch it pulls, so every slot is set.
        Ok(slots.into_iter().filter_map(OnceLock::into_inner).collect())
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
    /// not a positive multiple of `K` or `labels.len() != N`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_elems == 0`.
    pub fn train_large_batch(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        sgd: &mut Sgd,
        shard_elems: usize,
    ) -> Result<LargeBatchReport, DarknightError> {
        assert!(shard_elems > 0, "shard size must be positive");
        let v_count = virtual_batch_count(x, labels, self.cfg.k())?;
        let base = self.next_batch;

        struct VbResult {
            grad: SealedGradient,
            bn: Vec<f32>,
            quarantined: Vec<WorkerId>,
            lane: usize,
        }
        impl AsRef<SealedGradient> for VbResult {
            fn as_ref(&self) -> &SealedGradient {
                &self.grad
            }
        }
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let results = self.run_lanes(model, |Lane { index, session, model }| {
            let mut done = Vec::new();
            loop {
                let v = next.fetch_add(1, Ordering::Relaxed);
                if v >= v_count || abort.load(Ordering::Relaxed) {
                    break;
                }
                session.begin_numbered_batch(base + v as u64 + 1);
                let q0 = session.quarantined().len();
                let result =
                    seal_virtual_batch_gradient(session, model, x, labels, v, shard_elems).map(|grad| {
                        let bn = collect_bn_stats(model, session.tee_parts().1);
                        let quarantined = session.quarantined()[q0..].to_vec();
                        VbResult { grad, bn, quarantined, lane: *index }
                    });
                if result.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                done.push((v as u64, result));
            }
            done
        })?;
        self.next_batch = base + v_count as u64;
        // A batch is only ever skipped after a lower-numbered one has
        // failed (the abort flag is raised by a batch claimed earlier),
        // so in batch order the earliest failure is met before any gap:
        // it wins, as in sequential order, and no weight update happens.
        let per = results.into_iter().collect::<Result<Vec<VbResult>, _>>()?;
        self.quarantine_in_order(per.iter().map(|vb| vb.quarantined.clone()));

        // BatchNorm running statistics are order-sensitive: replay each
        // batch's captured stats onto the real model in batch order.
        for vb in &per {
            replay_bn_stats(model, &vb.bn);
        }
        // The lanes' shards unseal in the aggregation enclave and sum in
        // batch order — the identical float-sum order to sequential.
        let report = aggregate_and_step((&mut self.tee, &mut self.ws), &per, model, sgd);
        // Each batch's buffers go home to the lane that sealed it.
        for vb in per {
            let ws = self.lanes[vb.lane].session.tee_parts().1;
            ws.give(vb.bn);
            vb.grad.recycle_into(ws);
        }
        report
    }
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

    /// Through residual blocks too, entry `i` of the plan is the `i`-th
    /// linear leaf in the walk's order (main path before shortcut).
    #[test]
    fn step_plan_follows_the_walk_through_residual_blocks() {
        let quant = QuantConfig::new(6);
        let mut m = dk_nn::arch::mini_resnet(8, 4, 5);
        let plan = StepPlan::extract(&m, quant).unwrap();
        let mut leaves = Vec::new();
        m.visit_leaf_layers_mut(&mut |l| {
            leaves.extend(l.as_linear().map(|lin| lin.weights().clone()));
        });
        assert_eq!(plan.num_linear_layers(), leaves.len());
        assert!(m.layers().iter().any(|l| l.kind() == "residual"));
        for (i, w) in leaves.iter().enumerate() {
            let (wq, norm_w) = quant.normalize_quantize(w.as_slice()).unwrap();
            let planned = plan.linear(i as u64).unwrap();
            assert_eq!(planned.weights_q.as_slice(), wq.as_slice(), "linear layer {i}");
            assert_eq!(planned.weights_q.shape(), w.shape(), "linear layer {i}");
            assert_eq!(planned.norm_w, norm_w, "linear layer {i}");
        }
    }

    /// The enclave high-water is a property of one call's co-resident
    /// lanes, not of how many calls were made: the same batches run five
    /// times over report the peak of running them once, while the
    /// allocation counter keeps counting.
    ///
    /// A call's peak sums the peaks of the lanes that ran a batch, so
    /// every call must give both lanes one: each lane holds its first
    /// batch's delivery until the other lane has delivered one too.
    #[test]
    fn peak_epc_does_not_grow_with_the_number_of_calls() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let m = model(6);
        let inputs: Vec<Tensor<f32>> =
            (0..4).map(|b| Tensor::from_fn(&[2, 2, 3, 3], move |i| ((i + b) % 7) as f32 * 0.1)).collect();
        let run = |calls: usize| {
            let fleet = GpuCluster::honest(cfg.workers_required(), 12);
            let mut engine = PipelineEngine::new(cfg, fleet, EngineOptions::default()).unwrap();
            assert_eq!(engine.opts.lanes, 2);
            for _ in 0..calls {
                let both_lanes = std::sync::Barrier::new(2);
                let mut stream = inputs.iter().enumerate();
                engine
                    .pump(
                        &m,
                        false,
                        |_spare| stream.next().map(|(i, x)| (x, i)),
                        |i, outcome, _| {
                            // Batches 0 and 1 are each lane's first.
                            if i < 2 {
                                both_lanes.wait();
                            }
                            outcome.output.unwrap();
                            None
                        },
                    )
                    .unwrap();
            }
            engine.enclave_stats()
        };
        let (once, five) = (run(1), run(5));
        assert!(once.peak_bytes > 0);
        assert_eq!(five.peak_bytes, once.peak_bytes);
        assert_eq!(five.alloc_count, 5 * once.alloc_count);
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
        assert!(cluster.total_macs() > 0, "worker state must survive the lanes");
    }

    /// Every lane's replica folds back: after a 2-lane training call the
    /// fleet holds, per worker, the jobs and MACs a sequential session
    /// runs on the same fleet and batches.
    #[test]
    fn into_cluster_folds_every_lane_replica() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(9);
        let fleet = GpuCluster::honest(cfg.workers_required(), 33);
        let m = model(10);
        let (v_count, k) = (8, cfg.k());
        let x = Tensor::from_fn(&[v_count * k, 2, 3, 3], |i| (i % 11) as f32 * 0.1 - 0.5);
        let labels: Vec<usize> = (0..v_count * k).map(|i| i % 3).collect();
        let per_worker = |cluster: &GpuCluster| -> Vec<(u64, u64)> {
            cluster.workers().iter().map(|w| (w.jobs_executed(), w.macs_executed())).collect()
        };

        let mut trainer = crate::virtual_batch::LargeBatchTrainer::new(
            DarknightSession::new(cfg, fleet.fork(1)).unwrap(),
            64,
        );
        trainer.train_large_batch(&mut m.clone(), &x, &labels, &mut Sgd::new(0.1)).unwrap();
        let sequential = per_worker(trainer.session().cluster());
        assert!(sequential.iter().all(|&(jobs, macs)| jobs > 0 && macs > 0));

        let opts = EngineOptions::default().with_lanes(2);
        let mut engine = PipelineEngine::new(cfg, fleet.fork(2), opts).unwrap();
        engine.train_large_batch(&mut m.clone(), &x, &labels, &mut Sgd::new(0.1), 64).unwrap();
        assert_eq!(per_worker(&engine.into_cluster()), sequential);
    }

    /// Freshness under concurrency (§4.1). Outputs cannot catch a batch
    /// number used twice — decode is exact whatever the mask — but the
    /// workers' view can: fed `V` *identical* virtual batches, a worker
    /// is handed the same masked vector twice exactly when two batches
    /// shared a number. (Workers record the encodings they are asked to
    /// store, i.e. training's forward pass.) At every lane count the
    /// view must also be, as a multiset, the one a sequential session
    /// leaves behind.
    #[test]
    fn identical_batches_get_fresh_masks_at_every_lane_count() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(5);
        let fleet = GpuCluster::honest(cfg.workers_required(), 31);
        let m = model(8);
        let (v_count, k) = (6, cfg.k());
        let x = Tensor::from_fn(&[v_count * k, 2, 3, 3], |i| (i % (k * 18) % 7) as f32 * 0.1 - 0.3);
        let labels: Vec<usize> = (0..v_count * k).map(|i| i % k).collect();
        let views = |cluster: &GpuCluster| -> Vec<Vec<Vec<F25>>> {
            cluster
                .workers()
                .iter()
                .map(|w| {
                    let mut seen = w.observations().to_vec();
                    seen.sort();
                    seen
                })
                .collect()
        };

        let mut trainer = crate::virtual_batch::LargeBatchTrainer::new(
            DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap(),
            64,
        );
        trainer.train_large_batch(&mut m.clone(), &x, &labels, &mut Sgd::new(0.1)).unwrap();
        let sequential = views(trainer.session().cluster());
        for seen in &sequential {
            assert_eq!(seen.len(), v_count * 2, "one observation per batch and linear layer");
            assert!(seen.windows(2).all(|w| w[0] != w[1]), "a mask was used twice");
        }

        for lanes in [1, 2, 4] {
            let opts = EngineOptions::default().with_lanes(lanes);
            let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts).unwrap();
            engine.train_large_batch(&mut m.clone(), &x, &labels, &mut Sgd::new(0.1), 64).unwrap();
            assert_eq!(engine.batches_consumed(), v_count as u64);
            assert_eq!(
                views(&engine.into_cluster()),
                sequential,
                "{lanes} lanes: the workers' view differs from the sequential session's"
            );
        }
    }

    /// Regression: lanes must retire their final batch — a lane's fleet
    /// replica outlives the call, so a leaked context would accumulate
    /// activation-sized encodings on every engine call.
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
