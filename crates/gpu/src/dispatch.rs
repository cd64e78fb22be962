//! Asynchronous job dispatch over persistent per-worker OS threads.
//!
//! This is the one way the fleet's workers run concurrently (the
//! blocking [`GpuExec`] impl of [`GpuCluster`] remains as the inline,
//! serial reference): a [`GpuDispatcher`] owns one long-lived OS thread
//! per worker, each fed by a bounded channel. Callers
//! [`submit`](GpuDispatcher::submit) a virtual batch of jobs and get a
//! [`Ticket`] back immediately; [`complete`](GpuDispatcher::complete)
//! blocks until the results are in. Between the two calls the submitting
//! (TEE) thread is free to encode the next virtual batch or decode the
//! previous one — the §7.1 overlap, for real.
//!
//! Guarantees:
//!
//! * **Per-worker FIFO.** Messages to one worker are processed in send
//!   order, so a stored encoding is always visible to the `*Stored` jobs
//!   submitted after it by the same thread.
//! * **Bounded queues.** Each worker's channel holds at most `depth`
//!   messages; a flooded fleet backpressures encoders instead of
//!   buffering unboundedly.
//! * **State fidelity.** Workers keep their full state (behaviour, RNG,
//!   stored encodings, observations, counters) across the dispatcher's
//!   lifetime; [`join`](GpuDispatcher::join) reassembles the original
//!   [`GpuCluster`] with everything the workers accumulated.
//! * **Worker loss is a value, not a panic.** A worker whose thread
//!   exited (crash behaviour, panic) yields
//!   [`GpuError::WorkerLost`] from `submit`/`complete`; a worker that
//!   blows the optional reply deadline yields [`GpuError::Timeout`].
//!   `join` replaces lost workers with fresh respawns and reports their
//!   ids. Nothing in this module aborts the process over a dead worker.

use crate::cluster::GpuCluster;
use crate::error::GpuError;
use crate::exec::{GpuExec, WorkerResult};
use crate::job::LinearJob;
use crate::worker::{GpuWorker, WorkerId};
use dk_field::F25;
use dk_linalg::Tensor;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Identifies the virtual batch a submission belongs to, for the
/// submitter's own bookkeeping: the dispatcher keeps no record of it
/// (a [`Ticket`] redeems its own slots, in worker order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchTag(pub u64);

/// What flows to a worker thread.
enum WorkerMsg {
    Run { job: Box<LinearJob>, reply: mpsc::Sender<WorkerResult> },
    Store { ctx_id: u64, encoding: Tensor<F25> },
    Release { ctx_id: u64 },
}

/// One job's pending reply: either a live receiver or the fault that
/// already claimed the slot at submission time.
#[derive(Debug)]
struct ReplySlot {
    worker: WorkerId,
    rx: Result<mpsc::Receiver<WorkerResult>, GpuError>,
}

/// A pending virtual-batch submission: redeem with
/// [`GpuDispatcher::complete`].
#[derive(Debug)]
pub struct Ticket {
    slots: Vec<ReplySlot>,
}

impl Ticket {
    /// Number of jobs in flight under this ticket.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the ticket covers no jobs.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A pending single-job submission: redeem with
/// [`GpuDispatcher::complete_one`].
#[derive(Debug)]
pub struct JobTicket {
    slot: ReplySlot,
}

/// What it takes to respawn a lost worker at `join` time: identity and
/// configuration survive a crash, accumulated state (RNG, encodings,
/// observations, counters) does not — exactly like replacing a dead GPU.
#[derive(Debug, Clone, Copy)]
struct WorkerSpec {
    id: WorkerId,
    behavior: crate::Behavior,
    latency: Option<crate::LatencyModel>,
}

/// Persistent-thread asynchronous dispatcher over a worker fleet (see
/// module docs). Created with
/// [`GpuCluster::into_dispatcher`](crate::GpuCluster::into_dispatcher).
///
/// All methods take `&self`: the dispatcher is shared between the TEE
/// stage threads of a pipelined engine (typically behind an [`Arc`]).
pub struct GpuDispatcher {
    senders: Vec<mpsc::SyncSender<WorkerMsg>>,
    handles: Vec<JoinHandle<GpuWorker>>,
    specs: Vec<WorkerSpec>,
    reply_timeout: Option<Duration>,
    /// Jobs submitted and not yet redeemed (submit-side view, so a
    /// dying worker cannot leak depth — its faulted slots still get
    /// redeemed). Recording is a no-op while `dk_obs` is disabled.
    queue_depth: dk_obs::Gauge,
    jobs_total: dk_obs::Counter,
}

impl std::fmt::Debug for GpuDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDispatcher")
            .field("workers", &self.senders.len())
            .field("reply_timeout", &self.reply_timeout)
            .finish()
    }
}

fn worker_main(
    mut worker: GpuWorker,
    rx: mpsc::Receiver<WorkerMsg>,
    health: dk_obs::WorkerHandle,
) -> GpuWorker {
    for msg in rx.iter() {
        match msg {
            WorkerMsg::Run { job, reply } => {
                // A crash-behaviour worker whose budget is spent dies
                // here: the thread exits, the inbox closes, queued and
                // future messages fail over to typed worker-lost errors
                // at the submitting side.
                if worker.crash_pending() {
                    return worker;
                }
                let t0 = dk_obs::enabled().then(std::time::Instant::now);
                // A job the worker cannot run (a `*Stored` job whose
                // context never arrived) is answered with the typed
                // refusal; the thread lives on.
                let out = worker.try_execute(&job);
                if let Some(t0) = t0 {
                    health.job_done(t0.elapsed().as_nanos() as u64);
                }
                // A send error means the submitter gave up on the
                // ticket; the job still ran (state advanced), which
                // mirrors a real accelerator that cannot be recalled.
                let _ = reply.send(out);
            }
            WorkerMsg::Store { ctx_id, encoding } => worker.store_encoding(ctx_id, encoding),
            WorkerMsg::Release { ctx_id } => worker.remove_encoding(ctx_id),
        }
    }
    worker
}

impl GpuDispatcher {
    /// Spawns one thread per worker with a `depth`-bounded inbox.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or thread spawning fails.
    pub(crate) fn spawn(workers: Vec<GpuWorker>, depth: usize) -> Self {
        assert!(depth > 0, "worker queues need capacity");
        let mut senders = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        let mut specs = Vec::with_capacity(workers.len());
        for w in workers {
            specs.push(WorkerSpec { id: w.id(), behavior: w.behavior(), latency: w.latency() });
            let (tx, rx) = mpsc::sync_channel(depth);
            let name = format!("dk-gpu-{}", w.id());
            let health = dk_obs::fleet().worker(w.id().0);
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_main(w, rx, health))
                    .expect("spawn gpu worker thread"),
            );
            senders.push(tx);
        }
        Self {
            senders,
            handles,
            specs,
            reply_timeout: None,
            queue_depth: dk_obs::global().gauge("dk_dispatch_queue_depth"),
            jobs_total: dk_obs::global().counter("dk_dispatch_jobs_total"),
        }
    }

    /// Sets (or clears) a per-job reply deadline. When set, `complete`
    /// waits at most this long for each outstanding job; a straggler
    /// surfaces as [`GpuError::Timeout`] and the session treats it like
    /// a lost worker (quarantine + TEE repair). Configure before sharing
    /// the dispatcher.
    pub fn with_reply_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    fn send(&self, w: usize, msg: WorkerMsg) -> Result<(), GpuError> {
        self.senders[w]
            .send(msg)
            .map_err(|_| GpuError::lost(WorkerId(w), "worker thread terminated (inbox closed)"))
    }

    /// Submits `jobs[i]` to worker `i` and returns immediately. A dead
    /// worker does not fail the submission: its slot carries the fault
    /// and [`GpuDispatcher::complete`] reports it in worker order.
    ///
    /// # Errors
    ///
    /// [`GpuError::Oversubscribed`] if more jobs than workers are
    /// supplied.
    pub fn submit(&self, _tag: BatchTag, jobs: Vec<LinearJob>) -> Result<Ticket, GpuError> {
        if jobs.len() > self.senders.len() {
            return Err(GpuError::Oversubscribed { jobs: jobs.len(), workers: self.senders.len() });
        }
        Ok(self.submit_slots(jobs.into_iter().enumerate().map(|(i, j)| (WorkerId(i), Some(j)))))
    }

    /// The one submission path: each slot names its worker, and a worker
    /// named twice runs its slots in order (per-worker FIFO). A `None`
    /// slot is withheld — nothing is sent and the slot redeems as
    /// [`GpuError::Withheld`]. Every slot is queued before this returns.
    fn submit_slots(&self, slots: impl Iterator<Item = (WorkerId, Option<LinearJob>)>) -> Ticket {
        let slots = slots
            .map(|(worker, job)| match job {
                Some(job) => self.submit_on(worker, job).slot,
                None => ReplySlot { worker, rx: Err(GpuError::Withheld { worker }) },
            })
            .collect();
        Ticket { slots }
    }

    fn redeem(&self, slot: ReplySlot) -> WorkerResult {
        let ReplySlot { worker, rx } = slot;
        // Balanced against the `inc` in submit_on: every submitted slot
        // — including faulted ones — passes through here exactly once.
        // A withheld slot was never submitted.
        if !matches!(rx, Err(GpuError::Withheld { .. })) {
            self.queue_depth.dec();
        }
        let rx = rx?;
        let dropped = || GpuError::lost(worker, "worker thread dropped the job");
        match self.reply_timeout {
            None => rx.recv().map_err(|_| dropped())?,
            Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    GpuError::Timeout { worker, waited_ms: t.as_millis() as u64 }
                }
                mpsc::RecvTimeoutError::Disconnected => dropped(),
            })?,
        }
    }

    /// Blocks until every job under the ticket finished (or faulted);
    /// per-worker outcomes are in worker order. A lost or timed-out
    /// worker claims only its own slot — the other workers' outputs are
    /// still returned, which is what lets the TEE repair around it.
    pub fn complete(&self, ticket: Ticket) -> Vec<WorkerResult> {
        let mut out = Vec::with_capacity(ticket.len());
        self.complete_into(ticket, &mut out);
        out
    }

    /// [`GpuDispatcher::complete`], appending to a caller-owned buffer.
    fn complete_into(&self, ticket: Ticket, out: &mut Vec<WorkerResult>) {
        out.extend(ticket.slots.into_iter().map(|slot| self.redeem(slot)));
    }

    /// Submits one job to a specific worker.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn submit_on(&self, id: WorkerId, job: LinearJob) -> JobTicket {
        let (tx, rx) = mpsc::channel();
        let rx = self
            .send(id.0, WorkerMsg::Run { job: Box::new(job), reply: tx })
            .map(|()| rx);
        self.queue_depth.inc();
        self.jobs_total.inc();
        JobTicket { slot: ReplySlot { worker: id, rx } }
    }

    /// Blocks until a single-job submission finished (or faulted).
    pub fn complete_one(&self, ticket: JobTicket) -> WorkerResult {
        self.redeem(ticket.slot)
    }

    /// Stores per-worker forward encodings under a context id (worker
    /// `i` receives `encodings[i]`). Per-worker FIFO ordering makes the
    /// encoding visible to any job this thread submits afterwards.
    /// Best-effort: a dead worker's store is dropped — its jobs fail
    /// with a typed error and the session repairs around it.
    ///
    /// # Panics
    ///
    /// Panics if more encodings than workers are supplied.
    pub fn store_encodings(&self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.store_encodings_sparse(ctx_id, encodings, &[]);
    }

    /// [`GpuDispatcher::store_encodings`] that sends nothing to the
    /// workers in `withheld`.
    fn store_encodings_sparse(
        &self,
        ctx_id: u64,
        encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        assert!(encodings.len() <= self.senders.len(), "more encodings than workers");
        for (i, e) in encodings.into_iter().enumerate() {
            if !withheld.contains(&WorkerId(i)) {
                let _ = self.send(i, WorkerMsg::Store { ctx_id, encoding: e });
            }
        }
    }

    /// Releases the stored encodings of a retired virtual-batch context
    /// on every worker (best-effort on dead workers).
    pub fn release_context(&self, ctx_id: u64) {
        for i in 0..self.senders.len() {
            let _ = self.send(i, WorkerMsg::Release { ctx_id });
        }
    }

    fn shutdown(&mut self) -> (Vec<GpuWorker>, Vec<WorkerId>) {
        self.senders.clear(); // closing every inbox ends the worker loops
        let mut lost = Vec::new();
        let workers = std::mem::take(&mut self.handles)
            .into_iter()
            .zip(&self.specs)
            .map(|(h, spec)| {
                h.join().unwrap_or_else(|_| {
                    // The thread panicked mid-job (e.g. a protocol
                    // violation inside the worker). Report the loss and
                    // respawn a fresh worker under the same identity and
                    // configuration — accumulated state died with the
                    // thread, as it would with a real device.
                    lost.push(spec.id);
                    let mut w = GpuWorker::new(
                        spec.id,
                        spec.behavior,
                        0xDEAD_0000 ^ spec.id.0 as u64,
                    );
                    w.set_latency(spec.latency);
                    w
                })
            })
            .collect();
        (workers, lost)
    }

    /// Stops the worker threads and reassembles the fleet, with all the
    /// state the workers accumulated (counters, observations, stored
    /// encodings, behaviours). Workers whose thread panicked are
    /// respawned fresh (same id, behaviour and latency; state lost) and
    /// reported in the second return value instead of panicking the
    /// caller.
    pub fn join(mut self) -> (GpuCluster, Vec<WorkerId>) {
        let (workers, lost) = self.shutdown();
        (GpuCluster::from_workers(workers), lost)
    }
}

impl Drop for GpuDispatcher {
    fn drop(&mut self) {
        // Idempotent with `join` (which empties the handle list first).
        let _ = self.shutdown();
    }
}

/// A cloneable [`GpuExec`] backend over a shared dispatcher. Each
/// pipelined TEE lane holds one client; all clients feed the same
/// persistent worker threads.
#[derive(Debug, Clone)]
pub struct DispatchClient {
    inner: Arc<GpuDispatcher>,
}

impl DispatchClient {
    /// Wraps a shared dispatcher.
    pub fn new(inner: Arc<GpuDispatcher>) -> Self {
        Self { inner }
    }
}

impl GpuExec for DispatchClient {
    fn num_workers(&self) -> usize {
        self.inner.len()
    }

    fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError> {
        let mut out = Vec::with_capacity(jobs.len());
        self.execute_round_into(tag, jobs, &[], &[], &mut out)?;
        Ok(out)
    }

    fn execute_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        self.execute_round_into(tag, jobs, &[], &[], out)
    }

    /// One submit/complete round whatever the skip set and the `extra`
    /// jobs: every job that is offered is queued before the first reply
    /// is awaited.
    fn execute_round_into(
        &mut self,
        _tag: u64,
        jobs: &[LinearJob],
        withheld: &[WorkerId],
        extra: &[(WorkerId, &LinearJob)],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        if jobs.len() > self.inner.len() {
            return Err(GpuError::Oversubscribed { jobs: jobs.len(), workers: self.inner.len() });
        }
        let positional = jobs.iter().enumerate().map(|(i, job)| {
            let worker = WorkerId(i);
            (worker, (!withheld.contains(&worker)).then(|| job.clone()))
        });
        let addressed = extra.iter().map(|&(w, job)| (w, Some(job.clone())));
        let ticket = self.inner.submit_slots(positional.chain(addressed));
        self.inner.complete_into(ticket, out);
        Ok(())
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        self.inner.complete_one(self.inner.submit_on(id, job.clone()))
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.inner.store_encodings(ctx_id, encodings);
    }

    fn store_encodings_sparse(
        &mut self,
        ctx_id: u64,
        encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        self.inner.store_encodings_sparse(ctx_id, encodings, withheld);
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        for &c in ctx_ids {
            self.inner.release_context(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::job::JobOutput;
    use std::sync::Arc as StdArc;

    fn dense_job(scale: u64) -> LinearJob {
        LinearJob::DenseForward {
            weights: StdArc::new(Tensor::from_fn(&[2, 3], |i| F25::new(i as u64 + 1))),
            x: Tensor::from_fn(&[1, 3], move |i| F25::new((i as u64 + 1) * scale)),
        }
    }

    fn oks(results: Vec<WorkerResult>) -> Vec<JobOutput> {
        results.into_iter().map(|r| r.expect("worker fault")).collect()
    }

    #[test]
    fn submit_complete_matches_blocking_execute() {
        let jobs: Vec<_> = (1..=3).map(dense_job).collect();
        let mut blocking = GpuCluster::honest(3, 1);
        let expect = blocking.execute(1, &jobs).unwrap();
        let d = GpuCluster::honest(3, 1).into_dispatcher(4);
        assert_eq!(d.complete(d.submit(BatchTag(1), jobs).unwrap()), expect);
    }

    #[test]
    fn interleaved_batches_keep_worker_order() {
        let d = GpuCluster::honest(2, 2).into_dispatcher(4);
        let t1 = d.submit(BatchTag(1), (1..=2).map(dense_job).collect()).unwrap();
        let t2 = d.submit(BatchTag(2), (3..=4).map(dense_job).collect()).unwrap();
        let o2 = oks(d.complete(t2));
        let o1 = oks(d.complete(t1));
        assert_eq!(o1[0], dense_job(1).execute());
        assert_eq!(o1[1], dense_job(2).execute());
        assert_eq!(o2[0], dense_job(3).execute());
        assert_eq!(o2[1], dense_job(4).execute());
    }

    #[test]
    fn store_then_stored_job_sees_encoding() {
        let d = GpuCluster::honest(1, 3).into_dispatcher(4);
        let enc = Tensor::from_fn(&[1, 3], |i| F25::new(i as u64 + 2));
        d.store_encodings(77, vec![enc.clone()]);
        let delta = StdArc::new(Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1)));
        let job = LinearJob::DenseWeightGradStored {
            delta_batch: delta.clone(),
            beta: vec![F25::ONE],
            layer_id: 77,
        };
        let out = d.complete_one(d.submit_on(WorkerId(0), job)).unwrap();
        let expect = LinearJob::DenseWeightGrad {
            delta: (*delta).clone(),
            x: enc,
        }
        .execute();
        assert_eq!(out, expect);
    }

    #[test]
    fn release_context_drops_encoding() {
        let mut cluster = GpuCluster::honest(1, 4);
        let d = cluster.clone().into_dispatcher(4);
        d.store_encodings(5, vec![Tensor::from_fn(&[1, 2], |i| F25::new(i as u64))]);
        d.release_context(5);
        cluster = d.join().0;
        assert!(cluster.worker(WorkerId(0)).stored_encoding(5).is_none());
        // But the observation (the adversary's view) survives.
        assert_eq!(cluster.worker(WorkerId(0)).observations().len(), 1);
    }

    #[test]
    fn join_preserves_worker_state() {
        let d = GpuCluster::with_behaviors(&[Behavior::Honest, Behavior::Scale(2)], 5)
            .into_dispatcher(4);
        let _ = d.complete(d.submit(BatchTag(0), (1..=2).map(dense_job).collect()).unwrap());
        let (cluster, lost) = d.join();
        assert!(lost.is_empty());
        assert_eq!(cluster.len(), 2);
        assert_eq!(cluster.worker(WorkerId(0)).jobs_executed(), 1);
        assert_eq!(cluster.worker(WorkerId(1)).behavior(), Behavior::Scale(2));
    }

    #[test]
    fn concurrent_submitters_share_the_fleet() {
        let d = StdArc::new(GpuCluster::honest(2, 6).into_dispatcher(2));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let d = d.clone();
                s.spawn(move || {
                    for r in 0..8u64 {
                        let jobs: Vec<_> = (1..=2).map(|i| dense_job(i + t + r)).collect();
                        let expect: Vec<_> = jobs.iter().map(LinearJob::execute).collect();
                        let outs = oks(d.complete(d.submit(BatchTag(t), jobs).unwrap()));
                        assert_eq!(outs, expect);
                    }
                });
            }
        });
    }

    #[test]
    fn too_many_jobs_is_a_typed_error() {
        let d = GpuCluster::honest(1, 7).into_dispatcher(2);
        let err = d.submit(BatchTag(0), (1..=2).map(dense_job).collect()).unwrap_err();
        assert_eq!(err, GpuError::Oversubscribed { jobs: 2, workers: 1 });
    }

    #[test]
    fn crashed_worker_surfaces_as_worker_lost_not_panic() {
        let d = GpuCluster::with_behaviors(
            &[Behavior::Honest, Behavior::Crash { after: 0 }, Behavior::Honest],
            8,
        )
        .into_dispatcher(4);
        let results = d.complete(d.submit(BatchTag(0), (1..=3).map(dense_job).collect()).unwrap());
        assert_eq!(results[0], Ok(dense_job(1).execute()));
        assert!(matches!(results[1], Err(GpuError::WorkerLost { worker: WorkerId(1), .. })));
        assert_eq!(results[2], Ok(dense_job(3).execute()));
        // Subsequent submissions keep reporting the loss (dead inbox or
        // dropped reply, depending on the race) — never a panic.
        let again = d.complete(d.submit(BatchTag(1), (1..=3).map(dense_job).collect()).unwrap());
        assert!(again[1].is_err());
        assert_eq!(again[0], Ok(dense_job(1).execute()));
        // Store/release to the dead worker are silently dropped.
        d.store_encodings(9, vec![Tensor::from_fn(&[1, 2], |i| F25::new(i as u64)); 3]);
        d.release_context(9);
        let (cluster, lost) = d.join();
        // The crash was a clean simulated exit, not a thread panic.
        assert!(lost.is_empty());
        assert_eq!(cluster.len(), 3);
    }

    #[test]
    fn crash_after_budget_executes_honestly_first() {
        let d = GpuCluster::with_behaviors(&[Behavior::Crash { after: 2 }], 9).into_dispatcher(4);
        for round in 1..=2u64 {
            let out = d.complete_one(d.submit_on(WorkerId(0), dense_job(round))).unwrap();
            assert_eq!(out, dense_job(round).execute());
        }
        let err = d.complete_one(d.submit_on(WorkerId(0), dense_job(3))).unwrap_err();
        assert!(matches!(err, GpuError::WorkerLost { worker: WorkerId(0), .. }));
    }

    #[test]
    fn reply_timeout_surfaces_straggler() {
        let mut cluster = GpuCluster::honest(2, 10);
        cluster
            .worker_mut(WorkerId(1))
            .set_latency(Some(crate::LatencyModel { base_ns: 200_000_000, ns_per_kmac: 0 }));
        let d = cluster.into_dispatcher(4).with_reply_timeout(Some(Duration::from_millis(25)));
        let results = d.complete(d.submit(BatchTag(0), (1..=2).map(dense_job).collect()).unwrap());
        assert_eq!(results[0], Ok(dense_job(1).execute()));
        assert!(matches!(results[1], Err(GpuError::Timeout { worker: WorkerId(1), .. })));
    }
}
