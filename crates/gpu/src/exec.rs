//! The execution-backend abstraction the TEE-side protocol is generic
//! over.
//!
//! `dk-core`'s session implements DarKnight's §3.1 flow once, against
//! this trait; the backend decides *how* the linear jobs reach the
//! accelerators:
//!
//! * [`crate::GpuCluster`] — the inline backend: jobs run on the
//!   calling thread, one after another, inside the call. A session over
//!   the fleet is the sequential reference; the pipelined engine gives
//!   each of its lanes a [replica](crate::GpuCluster::replica) of the
//!   fleet, so several virtual batches are in flight on as many threads
//!   with no hand-off per job.
//! * [`crate::DispatchClient`] — the threaded backend: jobs are
//!   submitted to a shared [`crate::GpuDispatcher`] whose persistent
//!   per-worker threads run one round's `K'` jobs at once, each reply
//!   held to an optional deadline.
//! * [`crate::TcpFleet`] — the wire backend: jobs travel as framed
//!   messages to remote worker processes over TCP.
//!
//! # A layer pass is one round
//!
//! Everything a layer pass asks of the fleet depends only on what the
//! TEE holds when the pass starts, so the session builds all of it,
//! hands it over in **one** call and waits once. Forward that is the
//! `K+M(+1)` encoded jobs. Backward it is the `K+M` `*Stored`
//! weight-gradient jobs *and* the explicit weight-gradient recomputation
//! that checks them *and* both copies of the unencoded data-gradient
//! job. Issued one blocking call at a time, the single-job ones aimed
//! at the first and the last worker are where pipelined lanes queue
//! behind each other while the rest of the fleet idles.
//!
//! The call is [`GpuExec::execute_round_into`], the one dispatch verb
//! the session uses. A round has a positional part — job `i` goes to
//! worker `i` unless the caller names that worker in `withheld`, in
//! which case nothing is sent and the slot comes back as
//! [`GpuError::Withheld`] — and an addressed part, `extra`, whose jobs
//! name their worker (empty on a forward pass). A worker may appear in
//! both, or several times in `extra`: its jobs run in round order
//! (per-worker FIFO). Every backend here implements the round natively
//! — all jobs out before the first reply is awaited, except that
//! [`crate::TcpFleet`] holds a worker's second job until its first
//! reply is read, so two full socket buffers can never face each other
//! — and serves `execute` / `execute_into` as the round with nothing
//! withheld and no `extra`. One native dispatch path per backend.
//! [`GpuExec::store_encodings_sparse`] is the same skip-set idea for
//! the §6 forward-encoding stores.
//!
//! The defaults of the two newer methods are written in terms of the
//! original seven, so a wrapper that forwards only those (a tracing
//! shim, say) stays correct and sees the traffic it always saw: a
//! round's positional part reaches its inner backend as one
//! `execute_into` when nothing is withheld, else as one `execute_on`
//! per worker that is offered work, and each `extra` job as one
//! `execute_on`. That is why the round keeps its positional part
//! instead of being a bare address list.
//!
//! # Faults and routing
//!
//! Faults are part of the contract, not panics. A dispatch reports
//! per-slot outcomes ([`WorkerResult`]) so the session can route around
//! one bad worker while using the others' answers. Whole-call failures
//! (oversubscription) surface as the outer [`GpuError`].
//!
//! An `Ok` slot is still only a claim. A backend hands the session
//! whatever tensor the worker produced — [`crate::TcpFleet`] whatever
//! an `Output` frame carried — so the session checks each reply's
//! shape against the one its job's geometry dictates before anything
//! reads it, and books a mismatch as a fault of that worker
//! ([`GpuError::Protocol`]) like a lost one: fail closed without
//! recovery, quarantine plus a TEE-filled slot with it.
//!
//! Who gets skipped is the session's policy, and it separates two kinds
//! of bad worker:
//!
//! * A worker the TEE's own recomputation caught **lying** is
//!   *convicted*: for the rest of that session it is sent no job, no
//!   encoding and no store. The TEE computes that one slot itself and
//!   the redundant-equation check still runs over the complete
//!   `K+M+1`-slot set, so a convicted worker costs one TEE job per
//!   layer — not a corrupted answer, a failed check, a `K+M+1`-job
//!   localization and a second decode per layer. It is also the better
//!   privacy position: a worker known to be adversarial stops
//!   receiving encodings at all.
//! * A worker that was **lost or timed out** is quarantined but keeps
//!   being offered work. Its slot already costs one TEE job per layer
//!   (the fault arrives instead of an answer, nothing needs
//!   localizing), and being offered work is how a transport's redial
//!   (e.g. [`crate::TcpFleet`]) gets the chance to re-admit it.
//!
//! # Context ids
//!
//! Context ids are the protocol's handle for stored forward encodings
//! (§6 backward reuse). Sequential execution could key them by layer
//! alone, but pipelined execution has many batches resident on each
//! worker at once, so ids are globally unique per `(virtual batch,
//! layer)` and released per batch rather than wholesale.

use crate::error::GpuError;
use crate::job::{JobOutput, LinearJob};
use crate::worker::WorkerId;
use dk_field::F25;
use dk_linalg::{Tensor, Workspace};

/// One worker's outcome for one job: the output, or the fault that kept
/// it from answering.
pub type WorkerResult = Result<JobOutput, GpuError>;

/// Slot `s` of a round (see [`GpuExec::execute_round_into`]): the
/// worker it belongs to, and its job unless that worker is withheld.
pub(crate) fn round_slot<'a>(
    jobs: &'a [LinearJob],
    withheld: &[WorkerId],
    extra: &[(WorkerId, &'a LinearJob)],
    s: usize,
) -> (WorkerId, Option<&'a LinearJob>) {
    match s.checked_sub(jobs.len()) {
        Some(i) => (extra[i].0, Some(extra[i].1)),
        None => (WorkerId(s), (!withheld.contains(&WorkerId(s))).then(|| &jobs[s])),
    }
}

/// An execution backend for the offloaded linear operations.
pub trait GpuExec {
    /// Number of workers (`K'`).
    fn num_workers(&self) -> usize;

    /// Executes `jobs[i]` on worker `i` and returns per-worker outcomes
    /// in worker order. `tag` identifies the virtual-batch context the
    /// jobs belong to (used for tracing and queue bookkeeping by
    /// asynchronous backends; the blocking backend ignores it).
    ///
    /// # Errors
    ///
    /// [`GpuError::Oversubscribed`] if more jobs than workers were
    /// submitted. Per-worker faults (loss, timeout) are reported in the
    /// corresponding [`WorkerResult`] slot, never as the outer error —
    /// the caller decides whether to repair around them.
    fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError>;

    /// Like [`GpuExec::execute`], but appends the per-worker outcomes to
    /// a caller-provided buffer instead of allocating a fresh `Vec` —
    /// the session keeps that buffer in its workspace pool, so the
    /// steady-state round-trip allocates nothing. The default forwards
    /// to `execute` and drains; backends override to skip the
    /// intermediate `Vec` entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`GpuExec::execute`]; on error `out` is left
    /// unchanged.
    fn execute_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        out.append(&mut self.execute(tag, jobs)?);
        Ok(())
    }

    /// One dispatch round (see the module docs): `jobs[i]` goes to
    /// worker `i` unless it is in `withheld` — that slot comes back as
    /// [`GpuError::Withheld`] and its job (encoded input included) never
    /// leaves the caller — then each `extra` job to the worker it names,
    /// queued behind whatever the round already sent that worker.
    /// Appends one outcome per slot to `out`: the `jobs.len()`
    /// positional ones in worker order, then one per `extra` entry in
    /// order. The default serves the positional part with one
    /// [`GpuExec::execute_into`] when nothing is withheld, else with one
    /// [`GpuExec::execute_on`] per worker that is offered work, and each
    /// `extra` job with one `execute_on`; backends override it so the
    /// whole round is in flight at once.
    ///
    /// # Errors
    ///
    /// Same contract as [`GpuExec::execute`] (only the positional part
    /// can oversubscribe); on error `out` is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if an `extra` job names a worker outside the fleet.
    fn execute_round_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        withheld: &[WorkerId],
        extra: &[(WorkerId, &LinearJob)],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        if withheld.is_empty() {
            self.execute_into(tag, jobs, out)?;
        } else {
            if jobs.len() > self.num_workers() {
                return Err(GpuError::Oversubscribed {
                    jobs: jobs.len(),
                    workers: self.num_workers(),
                });
            }
            for (i, job) in jobs.iter().enumerate() {
                let worker = WorkerId(i);
                out.push(if withheld.contains(&worker) {
                    Err(GpuError::Withheld { worker })
                } else {
                    self.execute_on(worker, job)
                });
            }
        }
        out.extend(extra.iter().map(|&(w, job)| self.execute_on(w, job)));
        Ok(())
    }

    /// Hands decoded output tensors back to the backend so their buffers
    /// can return to whichever pool produced them: the worker workspaces
    /// of the in-process backends, the pool [`crate::TcpFleet`] decodes
    /// `Output` frames into. Drains `outputs`; the `Vec` itself stays
    /// with the caller for reuse. Best-effort — the default simply drops
    /// the tensors, which is always correct.
    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        outputs.clear();
    }

    /// Hands one output back to the pool of `worker`, the worker that
    /// produced it: a reply the caller took out of a round's `extra`
    /// part, whose position does not say whose it is (what
    /// [`GpuExec::recycle_outputs`] goes by). Best-effort — the default
    /// drops it.
    fn recycle_output_of(&mut self, _worker: WorkerId, _output: Tensor<F25>) {}

    /// Gives back, into `ws`, the encodings the workers have released
    /// ([`GpuExec::release_contexts`]) and the vectors the stores
    /// arrived in, where the backend keeps them: [`crate::DispatchClient`]
    /// does, so a caller that draws its stores from `ws` gets them home
    /// one release later. Best-effort — the default returns nothing.
    fn reclaim_stored(&mut self, _ws: &mut Workspace) {}

    /// Executes a single job on a specific worker, blocking until it
    /// answers. The session never calls this (a layer pass is one
    /// round); it is what the default [`GpuExec::execute_round_into`]
    /// is written in.
    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult;

    /// Stores per-worker forward encodings (worker `i` receives
    /// `encodings[i]`) under the given context id for backward reuse.
    /// Best-effort: a store that cannot reach a dead worker is dropped
    /// silently — that worker's subsequent jobs fail with a typed error
    /// and the session repairs around it.
    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>);

    /// [`GpuExec::store_encodings`] that sends nothing to the workers
    /// in `withheld` (the caller will never send them the `*Stored` job
    /// that would read the encoding). The positional dense store cannot
    /// skip a slot, so the default swaps each withheld encoding for a
    /// zero-length tensor — the worker still hears of the context but
    /// learns nothing; backends override it to send nothing at all.
    fn store_encodings_sparse(
        &mut self,
        ctx_id: u64,
        mut encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        for w in withheld {
            if let Some(slot) = encodings.get_mut(w.0) {
                *slot = Tensor::zeros(&[0]);
            }
        }
        self.store_encodings(ctx_id, encodings);
    }

    /// Releases stored encodings for the given context ids (virtual
    /// batch retired). Best-effort, like `store_encodings`.
    fn release_contexts(&mut self, ctx_ids: &[u64]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuCluster;
    use std::sync::Arc;

    /// A wrapper that forwards the original seven methods and nothing
    /// else (what a tracing shim outside this crate does), counting the
    /// dispatch calls that reach the inner backend.
    struct SevenMethods {
        inner: GpuCluster,
        execute_into: usize,
        execute_on: Vec<WorkerId>,
    }

    impl GpuExec for SevenMethods {
        fn num_workers(&self) -> usize {
            self.inner.num_workers()
        }
        fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError> {
            self.inner.execute(tag, jobs)
        }
        fn execute_into(
            &mut self,
            tag: u64,
            jobs: &[LinearJob],
            out: &mut Vec<WorkerResult>,
        ) -> Result<(), GpuError> {
            self.execute_into += 1;
            self.inner.execute_into(tag, jobs, out)
        }
        fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
            self.inner.recycle_outputs(outputs);
        }
        fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
            self.execute_on.push(id);
            self.inner.execute_on(id, job)
        }
        fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
            self.inner.store_encodings(ctx_id, encodings);
        }
        fn release_contexts(&mut self, ctx_ids: &[u64]) {
            self.inner.release_contexts(ctx_ids);
        }
    }

    fn job(scale: u64) -> LinearJob {
        LinearJob::DenseForward {
            weights: Arc::new(Tensor::from_fn(&[2, 3], |i| F25::new(i as u64 + 1))),
            x: Tensor::from_fn(&[1, 3], move |i| F25::new((i as u64 + 1) * scale)),
        }
    }

    /// The default round shows a seven-method wrapper one `execute_into`
    /// for a dense positional part, one `execute_on` per offered worker
    /// for a sparse one, and one `execute_on` per `extra` job — with the
    /// native round's answers, slot for slot.
    #[test]
    fn default_round_reaches_a_seven_method_wrapper_as_the_original_calls() {
        let jobs: Vec<_> = (1..=3).map(job).collect();
        let spare = job(9);
        let extra = [(WorkerId(3), &spare), (WorkerId(0), &spare)];
        for (withheld, into, on) in [
            (vec![], 1, vec![3, 0]),
            (vec![WorkerId(1)], 0, vec![0, 2, 3, 0]),
        ] {
            let mut wrapped = SevenMethods {
                inner: GpuCluster::honest(4, 5),
                execute_into: 0,
                execute_on: Vec::new(),
            };
            let mut got = Vec::new();
            wrapped.execute_round_into(7, &jobs, &withheld, &extra, &mut got).unwrap();
            assert_eq!(wrapped.execute_into, into);
            assert_eq!(wrapped.execute_on, on.into_iter().map(WorkerId).collect::<Vec<_>>());
            let mut native = Vec::new();
            GpuCluster::honest(4, 5)
                .execute_round_into(7, &jobs, &withheld, &extra, &mut native)
                .unwrap();
            assert_eq!(got, native);
            assert_eq!(got.len(), jobs.len() + extra.len());
        }
        // Only the positional part can oversubscribe, and it leaves
        // `out` alone when it does.
        let mut small =
            SevenMethods { inner: GpuCluster::honest(2, 5), execute_into: 0, execute_on: vec![] };
        let mut out = Vec::new();
        for withheld in [vec![], vec![WorkerId(0)]] {
            let err = small.execute_round_into(7, &jobs, &withheld, &[], &mut out).unwrap_err();
            assert_eq!(err, GpuError::Oversubscribed { jobs: 3, workers: 2 });
            assert!(out.is_empty() && small.execute_on.is_empty());
        }
    }
}
