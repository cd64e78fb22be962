//! One protocol round, and the one conviction fold that settles it.
//!
//! Both offload halves build a [`Round`] and hand it to
//! [`DarknightSession::run_round`]: jobs → one
//! [`GpuExec::execute_round_into`] → shape check and fault fold → verify
//! → decode → every buffer back where it came from. What differs between
//! the halves is data the round holds: the job kind and coefficient block
//! ([`Coefficients`]), each positional slot's explicit form, whether the
//! encodings are stored for the backward half (§6), and the backward
//! round's addressed part (the checks and both data-gradient copies).
//!
//! # The conviction fold
//!
//! Every disagreement goes through [`DarknightSession::settle`]: a slot
//! whose worker failed to answer, a positional slot after the forward
//! redundant equation failed (localization: the fold over every
//! positional slot, with no duplicate), and a backward answer against its
//! duplicate. Equal answers stand. Otherwise, without recovery the layer
//! fails closed; with it the TEE computes the ground truth itself (it
//! holds the quantized weights and can rebuild the explicit job it
//! dispatched) and convicts whoever it contradicts.
//!
//! §4.4 detects a violation but leaves "corrective action, such as
//! executing on another GPU worker" out of scope; this fold is that
//! extension. The layer on which a liar is first caught pays `K+M+1` TEE
//! jobs once (about one SGX-only execution of the layer). After that a
//! convicted worker is sent nothing (see [`dk_gpu::exec`]): its slot comes
//! back `Withheld`, the TEE computes that one job, and the fused check
//! still covers the complete result set on every layer, so a second
//! worker that starts lying later is caught as the first was.
//!
//! **Lying versus loss.** Only a worker the TEE's recomputation
//! contradicts is convicted. A lost or late worker is quarantined but
//! still offered work: its slot already costs one TEE job (a fault
//! arrives instead of an answer, so there is nothing to localize), and
//! being offered work is what lets a transport's redial re-admit it.
//!
//! **Privacy.** Conviction only removes disclosure: the TEE-computed slot
//! uses an encoding the TEE made anyway, which then never leaves it.
//! Every other worker still sees one encoding per layer (plus one
//! neighbour's in the backward check ring).
//!
//! **What gets booked.** `SessionStats::recoveries` counts one per round
//! whose positional slots the TEE computed (however many), plus one per
//! addressed answer (a check or the data gradient) the TEE recomputed.
//! With `dk_obs` enabled the fold books each fault's kind and each
//! quarantine, `withheld` for a convicted worker's slot and `repairs` for
//! an answer it replaced, on the worker; and on the global registry
//! `dk_recovery_passes_total` (rounds with a judged answer),
//! `dk_recovery_jobs_recomputed_total` (jobs recomputed to judge an
//! answer, so fault fills with no answer to judge are not among them),
//! and how many of those contradicted a worker
//! (`dk_recovery_faulty_jobs_total`) or confirmed every answer
//! (`dk_recovery_cleared_jobs_total`).

use super::{DarknightSession, LinearCtx};
use crate::error::DarknightError;
use dk_field::F25;
use dk_gpu::{GpuError, GpuExec, LinearJob, LinearOp, WorkerId, WorkerResult};
use dk_linalg::coded::MAX_TERMS;
use dk_linalg::Tensor;
use dk_obs::trace::SpanGuard;
use dk_obs::{FaultKind, Stage};
use std::sync::Arc;

/// The coefficient block a round decodes with, and what its half needs
/// besides.
pub(super) enum Coefficients<'c> {
    /// `A⁻¹` plus the redundant equation (§4.4): `K` decoded rows. Each
    /// positional job is already explicit.
    Forward,
    /// β/γ (Eq. 4–6): one decoded row, the aggregate `∇W`. Slot `j`'s
    /// explicit form is regenerated from `ctx`; the data gradient is
    /// dequantized by `dx_scale`.
    Backward { delta_q: Arc<Tensor<F25>>, op: LinearOp, ctx: &'c LinearCtx, dx_scale: f32 },
}

/// One offloaded layer's §4 round (see the module docs). Slots `0..n`
/// are positional (worker `j` answers job `j`); backward, slot `n` is
/// the data gradient.
pub(super) struct Round<'c> {
    layer_id: u64,
    /// `"forward"` or `"backward"`, as errors name the half.
    phase: &'static str,
    batch: u64,
    ordinal: u64,
    span: Option<SpanGuard>,
    coefficients: Coefficients<'c>,
    jobs: Vec<LinearJob>,
    /// Explicit forms built so far (backward; `explicit[n]` is the data
    /// gradient job). Empty forward, where the job is explicit.
    explicit: Vec<Option<LinearJob>>,
    /// Copies of the encodings for the workers to keep (§6).
    pub(super) stored: Option<Vec<Tensor<F25>>>,
    /// Backward checks: slot `j`'s explicit form to a checker (`None`:
    /// the TEE is its own checker).
    pub(super) checked: Vec<(usize, Option<WorkerId>)>,
    /// Backward: who answers the data gradient, and who checks it.
    pub(super) primary: Option<WorkerId>,
    pub(super) spare: Option<WorkerId>,
    /// One dequantization scale per decoded row.
    pub(super) scales: Vec<f32>,
    /// The shape every positional reply must have.
    pub(super) reply_shape: Vec<usize>,
    results: Vec<WorkerResult>,
    outputs: Vec<Tensor<F25>>,
    /// Bit `i`: slot `i`'s tensor the TEE computed out of the session
    /// pool (`K+M ≤ MAX_TERMS`, so every slot has a bit).
    tee_filled: u32,
    /// The fold has booked a judged answer for this round.
    judged: bool,
}

/// What [`DarknightSession::settle`] settles.
#[derive(Clone, Copy)]
enum Disputed {
    /// Positional slot `j` with no duplicate: a fault in its place, or
    /// an answer a failed redundant equation puts in doubt.
    Slot(usize),
    /// Slot `i`'s answer against its check: a positional `Eq_j`, or
    /// (slot `n`) the data gradient against its spare copy.
    Check(usize),
}

impl Round<'_> {
    /// Closes the open stage span and opens `stage`'s.
    fn enter(&mut self, stage: Stage) {
        self.span = None;
        self.span = Some(dk_obs::span(stage, self.batch, self.ordinal));
    }
}

/// Slot `i`'s explicit form: the built one where there is one, else the
/// positional job.
fn job_of<'r>(jobs: &'r [LinearJob], explicit: &'r [Option<LinearJob>], i: usize) -> &'r LinearJob {
    explicit.get(i).and_then(Option::as_ref).unwrap_or_else(|| &jobs[i])
}

/// The reply in slot `s`, leaving an empty shell behind. A reply of any
/// shape but the one its job's geometry dictates is a fault of the
/// worker that sent it ([`GpuError::Protocol`]): neither the decode nor
/// a duplicate comparison ever sees it.
fn take_reply(results: &mut [WorkerResult], s: usize, expect: &[usize]) -> WorkerResult {
    match std::mem::replace(&mut results[s], Ok(Tensor::default())) {
        Ok(t) if t.shape() != expect => Err(GpuError::Protocol {
            detail: format!("reply shaped {:?}, its job's {expect:?}", t.shape()),
        }),
        reply => reply,
    }
}

/// The health column a per-slot fault is booked under; `None` for a
/// withheld slot, which is not a fault.
fn fault_kind(fault: &GpuError) -> Option<FaultKind> {
    Some(match fault {
        GpuError::WorkerLost { .. } => FaultKind::WorkerLost,
        GpuError::Timeout { .. } => FaultKind::Timeout,
        GpuError::Oversubscribed { .. } => FaultKind::Oversubscribed,
        GpuError::Remote { .. } => FaultKind::Remote,
        GpuError::Protocol { .. } => FaultKind::Protocol,
        GpuError::Withheld { .. } => return None,
    })
}

/// Books one judged job on the global registry (a cold path: it runs
/// only after a disagreement).
fn book_verdict(first_in_round: bool, contradicted: bool) {
    if dk_obs::enabled() {
        let count = |name: &str, yes: bool| dk_obs::global().counter(name).add(u64::from(yes));
        count("dk_recovery_passes_total", first_in_round);
        count("dk_recovery_jobs_recomputed_total", true);
        count("dk_recovery_faulty_jobs_total", contradicted);
        count("dk_recovery_cleared_jobs_total", !contradicted);
    }
}

impl<X: GpuExec> DarknightSession<X> {
    /// A round of `jobs` for `layer_id`, under the open `Dispatch` span;
    /// backward, `data_job` is the unencoded data-gradient job.
    pub(super) fn open_round<'c>(
        &mut self,
        layer_id: u64,
        span: SpanGuard,
        jobs: Vec<LinearJob>,
        coefficients: Coefficients<'c>,
        data_job: Option<LinearJob>,
    ) -> Round<'c> {
        let n = jobs.len();
        let mut explicit = self.ws.take_cleared(n + 1);
        if let Some(job) = data_job {
            explicit.resize_with(n, || None);
            explicit.push(Some(job));
        }
        Round {
            layer_id,
            phase: if let Coefficients::Forward = coefficients { "forward" } else { "backward" },
            batch: self.batch_index,
            ordinal: layer_id - self.ctx_base,
            span: Some(span),
            coefficients,
            jobs,
            explicit,
            stored: None,
            checked: self.ws.take_cleared(n),
            primary: None,
            spare: None,
            scales: self.ws.take_cleared(self.cfg.k()),
            reply_shape: self.ws.take_shape(&[]),
            results: self.ws.take_cleared(2 * n + 2),
            outputs: self.ws.take_cleared(n + 1),
            tee_filled: 0,
            judged: false,
        }
    }

    /// Runs `round` and returns every buffer it holds, on every path.
    /// Returns the decoded, dequantized result (`W ⋆ x` forward, the
    /// aggregate `∇W` backward) and the data gradient (backward; empty
    /// forward).
    pub(super) fn run_round(
        &mut self,
        mut round: Round<'_>,
    ) -> Result<(Tensor<f32>, Tensor<f32>), DarknightError> {
        let done = self.drive(&mut round);
        self.close(round);
        done
    }

    fn drive(
        &mut self,
        round: &mut Round<'_>,
    ) -> Result<(Tensor<f32>, Tensor<f32>), DarknightError> {
        let (layer_id, phase, n) = (round.layer_id, round.phase, round.jobs.len());
        let recovery = self.cfg.recovery();
        let fail = |fault| DarknightError::GpuFault { layer_id, phase, fault };
        if let Some(stored) = round.stored.take() {
            self.cluster.store_encodings_sparse(layer_id, stored, &self.convicted);
            self.stored_ctxs.push(layer_id);
        }
        for c in 0..round.checked.len() {
            let j = round.checked[c].0;
            self.build_explicit(round, j);
        }
        let (primary, spare) = (round.primary, round.spare);
        let sent = n - self.withheld_among(n);
        self.stats.linear_jobs += (sent + usize::from(primary.is_some())) as u64;
        // The addressed part: each check, then the data gradient to its
        // primary and its spare (at most one check per `Eq_j`).
        let (jobs, explicit) = (&round.jobs, &round.explicit);
        let mut extra = [(WorkerId(0), &jobs[0]); MAX_TERMS + 2];
        let mut n_extra = 0;
        let checks =
            round.checked.iter().filter_map(|&(j, v)| Some((v?, job_of(jobs, explicit, j))));
        let data = primary.into_iter().chain(spare).map(|w| (w, job_of(jobs, explicit, n)));
        for slot in checks.chain(data) {
            extra[n_extra] = slot;
            n_extra += 1;
        }
        let (extra, results) = (&extra[..n_extra], &mut round.results);
        self.cluster
            .execute_round_into(layer_id, jobs, &self.convicted, extra, results)
            .map_err(fail)?;
        if results.len() != n + n_extra {
            let detail = format!("{} replies to a round of {} slots", results.len(), n + n_extra);
            return Err(fail(GpuError::Protocol { detail }));
        }
        for j in 0..n {
            match take_reply(&mut round.results, j, &round.reply_shape) {
                Ok(t) => round.outputs.push(t),
                Err(fault) => {
                    round.outputs.push(Tensor::default());
                    self.settle(round, Disputed::Slot(j), Some(fault), None)?;
                }
            }
        }
        let reply_len: usize = round.reply_shape.iter().product();
        self.stats.bytes_from_gpus += (sent * reply_len * 8) as u64;
        self.stats.integrity_checks += u64::from(self.scheme.has_integrity());
        if let Coefficients::Backward { ctx, .. } = round.coefficients {
            round.enter(Stage::Verify);
            // The addressed replies, in the order they were asked for.
            let mut s = n;
            for c in 0..round.checked.len() {
                let (j, checker) = round.checked[c];
                let dup = checker.map(|v| {
                    s += 1;
                    (v, take_reply(&mut round.results, s - 1, &round.reply_shape))
                });
                self.settle(round, Disputed::Check(j), None, dup)?;
            }
            let x_shape = ctx.input_shape.as_slice();
            let answer = primary.map(|_| {
                s += 1;
                take_reply(&mut round.results, s - 1, x_shape)
            });
            let (answer, fault) = match answer {
                Some(Ok(t)) => (t, None),
                Some(Err(fault)) => (Tensor::default(), Some(fault)),
                None => (Tensor::default(), None),
            };
            let missing = fault.is_some() || primary.is_none();
            round.outputs.push(answer);
            if self.scheme.has_integrity() || missing {
                let dup = spare.map(|v| (v, take_reply(&mut round.results, s, x_shape)));
                self.settle(round, Disputed::Check(n), fault, dup)?;
            }
            self.stats.bytes_from_gpus += (round.outputs[n].len() * 8) as u64;
        }
        round.enter(Stage::Decode);
        let rows = match round.coefficients {
            Coefficients::Forward => {
                match self.scheme.decode_forward_ws(&round.outputs, layer_id, &mut self.ws) {
                    // Localization: every positional slot goes through the
                    // fold, and the repaired set is decoded again.
                    Err(violation @ DarknightError::IntegrityViolation { .. }) if recovery => {
                        let _sp = dk_obs::span(Stage::Repair, round.batch, round.ordinal);
                        let filled = round.tee_filled;
                        for j in 0..n {
                            self.settle(round, Disputed::Slot(j), None, None)?;
                        }
                        if round.tee_filled == filled {
                            // Detection without a localizable fault should not
                            // happen with explicit jobs; surface the original.
                            return Err(violation);
                        }
                        self.scheme.decode_forward_ws(&round.outputs, layer_id, &mut self.ws)?
                    }
                    decoded => decoded?,
                }
            }
            Coefficients::Backward { .. } => {
                let mut rows = self.ws.take_cleared(1);
                rows.push(self.scheme.decode_backward_ws(&round.outputs[..n], &mut self.ws));
                rows
            }
        };
        round.span = None;
        // The result stacks one reply-shaped row per scale.
        let mut shape = self.ws.take_shape(&round.reply_shape);
        shape[0] *= round.scales.len();
        let mut y = self.ws.take_tensor::<f32>(&shape);
        self.ws.give_shape(shape);
        let quant = self.cfg.quant();
        let row_len = y.len() / round.scales.len();
        for ((row, out), &scale) in
            rows.iter().zip(y.as_mut_slice().chunks_mut(row_len)).zip(&round.scales)
        {
            quant.dequantize_product_slice_into(row, scale, out);
        }
        self.give_rows(rows);
        self.stats.decoded_elems += y.len() as u64;
        let dx = match round.coefficients {
            Coefficients::Backward { dx_scale, .. } => {
                let field = &round.outputs[n];
                let mut dx = self.ws.take_tensor::<f32>(field.shape());
                quant.dequantize_product_slice_into(field.as_slice(), dx_scale, dx.as_mut_slice());
                dx
            }
            Coefficients::Forward => Tensor::default(),
        };
        Ok((y, dx))
    }

    /// Builds slot `i`'s explicit form if the round regenerates it and
    /// has not yet: the TEE regenerates `x̄_i` from the retained context
    /// (encodings are row-independent, so one coefficient row reproduces
    /// it bit for bit) and β-combines `δ` itself.
    fn build_explicit(&mut self, round: &mut Round<'_>, i: usize) {
        if let (Coefficients::Backward { delta_q, op, ctx, .. }, Some(slot @ None)) =
            (&round.coefficients, round.explicit.get_mut(i))
        {
            let row = self.scheme.encode_row_ws(i, &ctx.inputs_q, &ctx.noise, &mut self.ws);
            let mut enc_shape = self.ws.take_shape(&ctx.input_shape);
            enc_shape[0] = 1;
            let delta = dk_gpu::job::beta_combine(delta_q, self.scheme.beta_row(i), &mut self.ws);
            *slot = Some(op.weight_grad_job(delta, Tensor::from_parts(enc_shape, row)));
        }
    }

    /// The one conviction fold (see the module docs). The disputed answer
    /// sits in its slot of `round.outputs` unless `fault` kept it from
    /// arriving (or no worker was asked); `dup` is what a second worker
    /// said to the same explicit job. On return the slot holds the answer
    /// that stands, and is listed in `tee_filled` if the TEE computed it.
    fn settle(
        &mut self,
        round: &mut Round<'_>,
        at: Disputed,
        fault: Option<GpuError>,
        dup: Option<(WorkerId, WorkerResult)>,
    ) -> Result<(), DarknightError> {
        let (layer_id, phase, recovery) = (round.layer_id, round.phase, self.cfg.recovery());
        let (Disputed::Slot(i) | Disputed::Check(i)) = at;
        let owner = if i < round.jobs.len() { Some(WorkerId(i)) } else { round.primary };
        let faulted = |s: &mut Self, w: WorkerId, fault: GpuError| {
            let w = fault.worker().unwrap_or(w);
            match fault_kind(&fault) {
                _ if !recovery => return Err(DarknightError::GpuFault { layer_id, phase, fault }),
                Some(kind) => {
                    s.quarantine(w);
                    if dk_obs::enabled() {
                        dk_obs::fleet().worker(w.0).fault(kind);
                    }
                }
                None if dk_obs::enabled() => dk_obs::fleet().worker(w.0).withheld(1),
                None => {}
            }
            Ok(())
        };
        let answered = if fault.is_none() { owner } else { None };
        if let (Some(fault), Some(w)) = (fault, owner) {
            faulted(self, w, fault)?;
        }
        let dup = match dup {
            Some((v, Ok(d))) if answered.is_some() && d == round.outputs[i] => {
                self.cluster.recycle_output_of(v, d);
                return Ok(());
            }
            Some((_, Ok(d))) if !recovery => {
                let answer = round.outputs[i].as_slice();
                let mismatches = d.as_slice().iter().zip(answer).filter(|(a, b)| a != b).count();
                return Err(DarknightError::IntegrityViolation { layer_id, phase, mismatches });
            }
            Some((v, Err(fault))) => {
                faulted(self, v, fault)?;
                None
            }
            dup => dup.and_then(|(v, r)| Some((v, r.ok()?))),
        };
        self.build_explicit(round, i);
        let judged = answered.is_some() || dup.is_some();
        let mut truth = job_of(&round.jobs, &round.explicit, i).execute_ws(&mut self.ws);
        let mut contradicted = false;
        if let Some((v, d)) = dup {
            if truth != d {
                self.convict(v);
                contradicted = true;
            }
        }
        let first_fill = round.tee_filled == 0;
        if answered.is_none() || truth != round.outputs[i] {
            if let Some(w) = answered {
                self.convict(w);
                contradicted = true;
                if dk_obs::enabled() {
                    dk_obs::fleet().worker(w.0).repaired(1);
                }
            }
            std::mem::swap(&mut round.outputs[i], &mut truth);
            round.tee_filled |= 1 << i;
        }
        // A round counts its positional slots once, each addressed answer
        // on its own.
        if !matches!(at, Disputed::Slot(_)) || first_fill && round.tee_filled != 0 {
            self.stats.recoveries += 1;
        }
        self.ws.give_tensor(truth);
        if judged {
            book_verdict(!round.judged, contradicted);
            round.judged = true;
        }
        Ok(())
    }

    /// Returns every buffer `round` holds to the pool it came from:
    /// worker replies to their workers, TEE-computed slots, jobs and
    /// bookkeeping to the session's.
    fn close(&mut self, mut round: Round<'_>) {
        round.span = None;
        let (n, tee) = (round.jobs.len(), round.tee_filled);
        for (i, slot) in round.outputs.iter_mut().enumerate() {
            match round.primary {
                _ if tee >> i & 1 == 1 => self.ws.give_tensor(std::mem::take(slot)),
                Some(w) if i == n => self.cluster.recycle_output_of(w, std::mem::take(slot)),
                _ => {}
            }
        }
        // What is left is positional, worker `j`'s in slot `j`.
        round.outputs.truncate(n);
        self.cluster.recycle_outputs(&mut round.outputs);
        round.results.clear();
        for job in round.explicit.drain(..).flatten() {
            job.recycle_into(&mut self.ws);
        }
        for job in round.jobs.drain(..) {
            match round.coefficients {
                Coefficients::Forward => job.recycle_into(&mut self.ws),
                Coefficients::Backward { .. } => job.recycle_decoded_into(&mut self.ws),
            }
        }
        if let Coefficients::Backward { delta_q, .. } = round.coefficients {
            self.ws.give_shared(delta_q);
        }
        self.ws.give(round.jobs);
        self.ws.give(round.explicit);
        self.ws.give(round.checked);
        self.ws.give(round.scales);
        self.ws.give_shape(round.reply_shape);
        self.ws.give(round.results);
        self.ws.give(round.outputs);
    }
}

#[cfg(test)]
mod tests {
    //! Localization through the fold, on whole sessions: a failed
    //! redundant equation sends every positional slot through `settle`,
    //! which convicts exactly the workers the TEE contradicts and leaves
    //! the honest result behind.

    use crate::{DarknightConfig, DarknightSession};
    use dk_gpu::{Behavior, GpuCluster, WorkerId};
    use dk_linalg::Tensor;
    use dk_nn::layers::{Dense, Flatten, Layer, Relu};
    use dk_nn::Sequential;

    /// Inference on a `K = 2`, `M = 2` fleet (five slots) with the given
    /// workers lying from the first layer on: the output, the
    /// quarantine list and the recoveries counted.
    fn infer(liars: &[(usize, Behavior)]) -> (Tensor<f32>, Vec<WorkerId>, u64) {
        let cfg = DarknightConfig::new(2, 2).with_integrity(true).with_recovery(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        for &(w, how) in liars {
            behaviors[w] = how;
        }
        let mut session =
            DarknightSession::new(cfg, GpuCluster::with_behaviors(&behaviors, 5)).unwrap();
        let mut model = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(6, 4, 3)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(4, 3, 4)),
        ]);
        let x = Tensor::from_fn(&[2, 6], |i| (i as f32 - 5.0) * 0.1);
        let y = session.private_inference(&mut model, &x).unwrap();
        (y, session.quarantined().to_vec(), session.stats().recoveries)
    }

    #[test]
    fn honest_outputs_report_no_faults() {
        let (_, quarantined, recoveries) = infer(&[]);
        assert!(quarantined.is_empty());
        assert_eq!(recoveries, 0);
    }

    #[test]
    fn single_fault_located_and_repaired() {
        let (clean, _, _) = infer(&[]);
        let (y, quarantined, recoveries) = infer(&[(2, Behavior::SingleElement)]);
        assert_eq!(quarantined, vec![WorkerId(2)]);
        assert_eq!(y.as_slice(), clean.as_slice(), "repair must restore honest outputs");
        // The first layer localizes, the second computes the withheld slot.
        assert_eq!(recoveries, 2);
    }

    /// With every other worker convicted, the one left offered work has
    /// no checker but the TEE, and the round reads the data gradient's
    /// replies in their own slots.
    #[test]
    fn the_tee_checks_the_last_offered_worker_itself() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true);
        let run = |liars: &[usize]| {
            let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
            for &w in liars {
                behaviors[w] = Behavior::SingleElement;
            }
            let cluster = GpuCluster::with_behaviors(&behaviors, 6);
            let mut session = DarknightSession::new(cfg, cluster).unwrap();
            let mut model = Sequential::new(vec![
                Layer::Flatten(Flatten::new()),
                Layer::Dense(Dense::new(6, 4, 3)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(4, 3, 4)),
            ]);
            let x = Tensor::from_fn(&[2, 6], |i| (i as f32 - 5.0) * 0.1);
            session.accumulate_gradients(&mut model, &x, &[0, 2]).unwrap();
            (model.grad_vector(), session.quarantined().to_vec())
        };
        let (clean, _) = run(&[]);
        let (grads, quarantined) = run(&[0, 1]);
        assert_eq!(quarantined, vec![WorkerId(0), WorkerId(1)]);
        assert_eq!(grads, clean, "the TEE's own check keeps the gradients honest");
    }

    #[test]
    fn multiple_faults_located() {
        let (clean, _, _) = infer(&[]);
        let liars = [(0, Behavior::SingleElement), (4, Behavior::AdditiveNoise)];
        let (y, quarantined, _) = infer(&liars);
        assert_eq!(quarantined, vec![WorkerId(0), WorkerId(4)]);
        assert_eq!(y.as_slice(), clean.as_slice(), "repair must restore honest outputs");
    }
}
