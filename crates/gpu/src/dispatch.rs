//! Asynchronous job dispatch over persistent per-worker OS threads.
//!
//! A [`GpuDispatcher`] runs the jobs of *one* session's round at once:
//! it owns one long-lived OS thread per worker, each fed by a bounded
//! channel, and can hold each reply to a deadline. (The [`GpuExec`] impl
//! of [`GpuCluster`] runs a round inline on the calling thread; the
//! pipelined engine gets its concurrency from lanes that each drive
//! their own [replica](GpuCluster::replica) of the fleet that way, with
//! no thread hand-off per job.) Callers
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
//!
//! # Buffers are lent and come back
//!
//! A job's answer lands in a slot of a reply board (a `Mutex`ed slot
//! vector and a `Condvar`) instead of a channel made for it: the worker
//! posts the result together with the job it ran, and a slot stamped
//! with an older round ignores a straggler's late post. A
//! [`DispatchClient`] owns one board for its lifetime, so a round makes
//! no channel and boxes nothing. What crosses threads goes home:
//!
//! * the copy of each job a worker runs is drawn from the client's
//!   workspace and returned to it when the answer is redeemed;
//! * an output the session has decoded is pushed onto its worker's
//!   return bin ([`GpuExec::recycle_outputs`] by position,
//!   [`GpuExec::recycle_output_of`] by worker), which the worker empties
//!   into its own workspace before its next job — no inbox message, no
//!   wakeup. The empty slot of a job the TEE ran itself is not pushed:
//!   a withheld or dead worker would never empty its bin;
//! * an encoding a worker stored is handed back on release to the
//!   client that stored it, and leaves it through
//!   [`GpuExec::reclaim_stored`].
//!
//! A warm round therefore allocates nothing on either side
//! (`crates/core/tests/session_alloc.rs`).

use crate::cluster::GpuCluster;
use crate::error::GpuError;
use crate::exec::{GpuExec, WorkerResult};
use crate::job::LinearJob;
use crate::worker::{GpuWorker, WorkerId};
use dk_field::F25;
use dk_linalg::Tensor;
use crate::exec::round_slot;
use dk_linalg::Workspace;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies the virtual batch a submission belongs to, for the
/// submitter's own bookkeeping: the dispatcher keeps no record of it
/// (a [`Ticket`] redeems its own slots, in worker order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchTag(pub u64);

/// What flows to a worker thread.
enum WorkerMsg {
    Run { job: LinearJob, reply: Reply },
    Store { ctx_id: u64, encoding: Tensor<F25> },
    /// Drops a stored context; its encoding goes to `home`, the
    /// releasing client's bin (see [`DispatchClient`]).
    Release { ctx_id: u64, home: Arc<Bin> },
}

/// Tensors in transit back to the pool of another thread.
type Bin = Mutex<Vec<Tensor<F25>>>;

/// A poisoned lock only means another thread panicked while holding it;
/// the plain vectors behind these locks stay valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job's answer, and the job itself handed back so its buffers can
/// go home.
type Answer = (WorkerResult, Option<LinearJob>);

/// Where the answers of a round land: one slot per job, each stamped
/// with the round it belongs to, so a straggler's late answer to an
/// abandoned round is dropped instead of landing in a later one. A
/// [`DispatchClient`] keeps one board for its lifetime; a public
/// [`Ticket`] brings its own.
#[derive(Debug, Default)]
struct Board {
    slots: Mutex<Vec<(u64, Option<Answer>)>>,
    posted: Condvar,
}

impl Board {
    /// Empties slots `0..n` and stamps them with `round`.
    fn open(&self, n: usize, round: u64) {
        let mut slots = lock(&self.slots);
        if slots.len() < n {
            slots.resize_with(n, || (0, None));
        }
        for slot in &mut slots[..n] {
            *slot = (round, None);
        }
    }

    fn post(&self, slot: usize, round: u64, answer: Answer) {
        let mut slots = lock(&self.slots);
        if let Some(s) = slots.get_mut(slot).filter(|s| s.0 == round) {
            s.1 = Some(answer);
        }
        drop(slots);
        self.posted.notify_all();
    }

    /// Blocks until slot `slot` is answered, or `timeout` passes.
    fn wait(&self, slot: usize, timeout: Option<Duration>) -> Option<Answer> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut slots = lock(&self.slots);
        loop {
            if let Some(answer) = slots[slot].1.take() {
                return Some(answer);
            }
            slots = match deadline {
                None => self.posted.wait(slots).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.checked_duration_since(Instant::now())?;
                    self.posted.wait_timeout(slots, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

/// A worker's claim on one board slot. Posting consumes it; one dropped
/// unposted — the worker thread died with the job queued or running —
/// answers the slot with [`GpuError::WorkerLost`], so no waiter hangs.
struct Reply {
    board: Arc<Board>,
    slot: usize,
    round: u64,
    worker: WorkerId,
    armed: bool,
}

impl Reply {
    fn post(mut self, result: WorkerResult, job: LinearJob) {
        self.armed = false;
        self.board.post(self.slot, self.round, (result, Some(job)));
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if self.armed {
            let lost = GpuError::lost(self.worker, "worker thread dropped the job");
            self.board.post(self.slot, self.round, (Err(lost), None));
        }
    }
}

/// One job of a submission: the board slot its answer lands in, or the
/// fault that already claimed it at submission time.
#[derive(Debug)]
struct Pending {
    worker: WorkerId,
    slot: Result<usize, GpuError>,
}

/// A pending virtual-batch submission: redeem with
/// [`GpuDispatcher::complete`].
#[derive(Debug)]
pub struct Ticket {
    board: Arc<Board>,
    slots: Vec<Pending>,
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
    /// Per worker, the outputs the TEE has decoded and handed back: the
    /// worker moves them into its own pool before its next job.
    returns: Vec<Arc<Bin>>,
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

fn worker_main(mut worker: GpuWorker, rx: mpsc::Receiver<WorkerMsg>, returns: Arc<Bin>) -> GpuWorker {
    for msg in rx.iter() {
        match msg {
            WorkerMsg::Run { job, reply } => {
                // A crash-behaviour worker whose budget is spent dies
                // here: the thread exits, the inbox closes, and this and
                // every queued reply answer as worker-lost.
                if worker.crash_pending() {
                    return worker;
                }
                for t in lock(&returns).drain(..) {
                    worker.recycle_output(t);
                }
                // A job the worker cannot run (a `*Stored` job whose
                // context never arrived) is answered with the typed
                // refusal; the thread lives on.
                let out = worker.run(&job);
                worker.wait_for_device();
                // Nobody may be waiting any more (a timed-out round);
                // the job still ran (state advanced), which mirrors a
                // real accelerator that cannot be recalled.
                reply.post(out, job);
            }
            WorkerMsg::Store { ctx_id, encoding } => worker.store_encoding(ctx_id, encoding),
            WorkerMsg::Release { ctx_id, home } => {
                if let Some(t) = worker.take_encoding(ctx_id) {
                    lock(&home).push(t);
                }
            }
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
        let mut returns = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        let mut specs = Vec::with_capacity(workers.len());
        for w in workers {
            specs.push(WorkerSpec { id: w.id(), behavior: w.behavior(), latency: w.latency() });
            let (tx, rx) = mpsc::sync_channel(depth);
            let bin = Arc::new(Bin::default());
            let name = format!("dk-gpu-{}", w.id());
            let home = bin.clone();
            #[allow(clippy::expect_used, reason = "documented: a fleet without threads cannot run")]
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_main(w, rx, home))
                    .expect("spawn gpu worker thread"),
            );
            senders.push(tx);
            returns.push(bin);
        }
        Self {
            senders,
            returns,
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

    /// Queues `job` on `worker`, its answer to land in `board` slot
    /// `slot` of round `round`.
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    fn send_job(
        &self,
        board: &Arc<Board>,
        (slot, round): (usize, u64),
        worker: WorkerId,
        job: LinearJob,
    ) -> Pending {
        let reply = Reply { board: board.clone(), slot, round, worker, armed: true };
        self.queue_depth.inc();
        self.jobs_total.inc();
        let sent = self.senders[worker.0].send(WorkerMsg::Run { job, reply }).map_err(|e| {
            if let WorkerMsg::Run { mut reply, .. } = e.0 {
                reply.armed = false;
            }
            GpuError::lost(worker, "worker thread terminated (inbox closed)")
        });
        Pending { worker, slot: sent.map(|()| slot) }
    }

    /// Waits for one pending job's answer.
    fn redeem(&self, board: &Board, pending: Pending) -> Answer {
        let Pending { worker, slot } = pending;
        // Balanced against the `inc` in `send_job`: every submitted
        // slot — faulted ones included — passes through here once. A
        // withheld slot was never submitted.
        if !matches!(slot, Err(GpuError::Withheld { .. })) {
            self.queue_depth.dec();
        }
        let slot = match slot {
            Ok(slot) => slot,
            Err(fault) => return (Err(fault), None),
        };
        board.wait(slot, self.reply_timeout).unwrap_or_else(|| {
            let waited_ms = self.reply_timeout.map_or(0, |t| t.as_millis() as u64);
            (Err(GpuError::Timeout { worker, waited_ms }), None)
        })
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
        let board = Arc::new(Board::default());
        board.open(jobs.len(), 0);
        let slots = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| self.send_job(&board, (i, 0), WorkerId(i), job))
            .collect();
        Ok(Ticket { board, slots })
    }

    /// Blocks until every job under the ticket finished (or faulted);
    /// per-worker outcomes are in worker order. A lost or timed-out
    /// worker claims only its own slot — the other workers' outputs are
    /// still returned, which is what lets the TEE repair around it.
    pub fn complete(&self, ticket: Ticket) -> Vec<WorkerResult> {
        let Ticket { board, slots } = ticket;
        slots.into_iter().map(|p| self.redeem(&board, p).0).collect()
    }

    /// Stores per-worker forward encodings under a context id (worker
    /// `i` receives the `i`-th, except the workers in `withheld`, which
    /// are sent nothing). Per-worker FIFO ordering makes the encoding
    /// visible to any job this thread submits afterwards. Best-effort: a
    /// dead worker's store is dropped — its jobs fail with a typed error
    /// and the session repairs around it.
    ///
    /// # Panics
    ///
    /// Panics if more encodings than workers are supplied.
    fn store_encodings_sparse(
        &self,
        ctx_id: u64,
        encodings: impl ExactSizeIterator<Item = Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        assert!(encodings.len() <= self.senders.len(), "more encodings than workers");
        for (i, e) in encodings.enumerate() {
            if !withheld.contains(&WorkerId(i)) {
                let _ = self.send(i, WorkerMsg::Store { ctx_id, encoding: e });
            }
        }
    }

    /// Releases the stored encodings of a retired virtual-batch context
    /// on every worker (best-effort on dead workers); they come back to
    /// `home`.
    fn release_context_to(&self, ctx_id: u64, home: &Arc<Bin>) {
        for i in 0..self.senders.len() {
            let _ = self.send(i, WorkerMsg::Release { ctx_id, home: home.clone() });
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

/// A [`GpuExec`] backend over a shared dispatcher. Each session holds
/// one client; all clients feed the same persistent worker threads.
///
/// **A round lends and gets back.** The session keeps its jobs, so the
/// copy each worker runs is made here, from the client's own pool, and
/// comes back with the answer: a worker posts the result *and the job*
/// to the client's reply board (one slot per job, reused round after
/// round), and the client returns the job's buffers to its pool before
/// the round ends. Outputs the session has decoded go to the producing
/// worker's return bin, which that worker empties into its own pool
/// when it next runs a job — no inbox message, no wakeup. Encodings a
/// worker stored come back to the client on release and leave through
/// [`GpuExec::reclaim_stored`]. Once every pool has seen a round's
/// sizes, a round allocates nothing: no job clone, no reply channel, no
/// `Box`.
#[derive(Debug)]
pub struct DispatchClient {
    inner: Arc<GpuDispatcher>,
    board: Arc<Board>,
    round: u64,
    pending: Vec<Pending>,
    ws: Workspace,
    /// Encodings the workers released, on their way back to the caller.
    home: Arc<Bin>,
    /// The emptied vectors stores arrived in, likewise.
    spent: Vec<Vec<Tensor<F25>>>,
}

impl Clone for DispatchClient {
    /// A second client on the same dispatcher, with its own board and
    /// pools.
    fn clone(&self) -> Self {
        Self::new(self.inner.clone())
    }
}

impl DispatchClient {
    /// Wraps a shared dispatcher.
    pub fn new(inner: Arc<GpuDispatcher>) -> Self {
        Self {
            inner,
            board: Arc::new(Board::default()),
            round: 0,
            pending: Vec::new(),
            ws: Workspace::new(),
            home: Arc::new(Bin::default()),
            spent: Vec::new(),
        }
    }

    /// Runs one round: slot `s` goes to `slot(s).0` with a pooled copy
    /// of job `slot(s).1` (`None`: withheld), every job is queued before
    /// the first answer is awaited, and `sink` gets the answers in slot
    /// order.
    fn round<'a>(
        &mut self,
        slots: usize,
        slot: impl Fn(usize) -> (WorkerId, Option<&'a LinearJob>),
        mut sink: impl FnMut(WorkerResult),
    ) {
        let Self { inner, board, round, pending, ws, .. } = self;
        *round += 1;
        board.open(slots, *round);
        for s in 0..slots {
            pending.push(match slot(s) {
                (worker, Some(job)) => inner.send_job(board, (s, *round), worker, job.clone_in(ws)),
                (worker, None) => Pending { worker, slot: Err(GpuError::Withheld { worker }) },
            });
        }
        for p in pending.drain(..) {
            let (result, job) = inner.redeem(board, p);
            if let Some(job) = job {
                job.recycle_decoded_into(ws);
            }
            sink(result);
        }
    }
}

/// Puts an output on its worker's return bin, unless it is an empty
/// shell: the slot of a job the TEE ran itself (a withheld, convicted
/// or lost worker) comes back with its buffers already in the session
/// pool, and that worker may never run a job again to empty its bin.
fn bin_output(bin: &Bin, t: Tensor<F25>) {
    if !t.is_empty() {
        lock(bin).push(t);
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
        let slot = |s| round_slot(jobs, withheld, extra, s);
        self.round(jobs.len() + extra.len(), slot, |r| out.push(r));
        Ok(())
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        // Worker `i` produced `outputs[i]`.
        for (t, bin) in outputs.drain(..).zip(&self.inner.returns) {
            bin_output(bin, t);
        }
    }

    fn recycle_output_of(&mut self, worker: WorkerId, output: Tensor<F25>) {
        if let Some(bin) = self.inner.returns.get(worker.0) {
            bin_output(bin, output);
        }
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        let mut answer = Err(GpuError::lost(id, "no answer"));
        self.round(1, |_| (id, Some(job)), |r| answer = r);
        answer
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.store_encodings_sparse(ctx_id, encodings, &[]);
    }

    fn store_encodings_sparse(
        &mut self,
        ctx_id: u64,
        mut encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        self.inner.store_encodings_sparse(ctx_id, encodings.drain(..), withheld);
        self.spent.push(encodings);
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        for &c in ctx_ids {
            self.inner.release_context_to(c, &self.home);
        }
    }

    fn reclaim_stored(&mut self, into: &mut Workspace) {
        for t in lock(&self.home).drain(..) {
            into.give_tensor(t);
        }
        for v in self.spent.drain(..) {
            into.give(v);
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

    /// A dispatcher behind a client, and a way back to it for `join`.
    fn client(cluster: GpuCluster) -> (StdArc<GpuDispatcher>, DispatchClient) {
        let d = StdArc::new(cluster.into_dispatcher(4));
        (d.clone(), DispatchClient::new(d))
    }

    fn join(d: StdArc<GpuDispatcher>) -> (GpuCluster, Vec<WorkerId>) {
        StdArc::into_inner(d).expect("every client dropped").join()
    }

    #[test]
    fn store_then_stored_job_sees_encoding() {
        let (_d, mut c) = client(GpuCluster::honest(1, 3));
        let enc = Tensor::from_fn(&[1, 3], |i| F25::new(i as u64 + 2));
        c.store_encodings(77, vec![enc.clone()]);
        let delta = StdArc::new(Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1)));
        let job = LinearJob::DenseWeightGradStored {
            delta_batch: delta.clone(),
            beta: vec![F25::ONE],
            layer_id: 77,
        };
        let out = c.execute_on(WorkerId(0), &job).unwrap();
        let expect = LinearJob::DenseWeightGrad {
            delta: (*delta).clone(),
            x: enc,
        }
        .execute();
        assert_eq!(out, expect);
    }

    #[test]
    fn release_context_drops_encoding() {
        let (d, mut c) = client(GpuCluster::honest(1, 4));
        let enc = Tensor::from_fn(&[1, 2], |i| F25::new(i as u64));
        c.store_encodings(5, vec![enc.clone()]);
        c.release_contexts(&[5]);
        drop(c);
        let cluster = join(d).0;
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
        let (d, mut c) = client(GpuCluster::with_behaviors(
            &[Behavior::Honest, Behavior::Crash { after: 0 }, Behavior::Honest],
            8,
        ));
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
        c.store_encodings(9, vec![Tensor::from_fn(&[1, 2], |i| F25::new(i as u64)); 3]);
        c.release_contexts(&[9]);
        drop(c);
        let (cluster, lost) = join(d);
        // The crash was a clean simulated exit, not a thread panic.
        assert!(lost.is_empty());
        assert_eq!(cluster.len(), 3);
    }

    #[test]
    fn crash_after_budget_executes_honestly_first() {
        let (_d, mut c) = client(GpuCluster::with_behaviors(&[Behavior::Crash { after: 2 }], 9));
        for round in 1..=2u64 {
            let out = c.execute_on(WorkerId(0), &dense_job(round)).unwrap();
            assert_eq!(out, dense_job(round).execute());
        }
        let err = c.execute_on(WorkerId(0), &dense_job(3)).unwrap_err();
        assert!(matches!(err, GpuError::WorkerLost { worker: WorkerId(0), .. }));
    }

    /// A worker that is withheld for good (convicted, say) never runs a
    /// job again, so nothing would ever empty its return bin: the empty
    /// slots the TEE filled for it must not land there.
    #[test]
    fn a_withheld_workers_bin_stays_empty() {
        let d = StdArc::new(GpuCluster::honest(2, 11).into_dispatcher(4));
        let mut client = DispatchClient::new(d.clone());
        let jobs: Vec<_> = (1..=2).map(dense_job).collect();
        let mut out = Vec::new();
        for _ in 0..64 {
            client.execute_round_into(0, &jobs, &[WorkerId(1)], &[], &mut out).unwrap();
            assert!(matches!(out[1], Err(GpuError::Withheld { worker: WorkerId(1) })));
            // What the session hands back: worker 0's output, and the
            // shell of the slot it filled in the TEE (buffers kept).
            let mut outputs = vec![out.remove(0).unwrap(), Tensor::default()];
            out.clear();
            client.recycle_outputs(&mut outputs);
            client.recycle_output_of(WorkerId(1), Tensor::default());
        }
        assert!(lock(&d.returns[1]).is_empty());
        // Worker 0 empties its bin before each job: one output waits.
        assert_eq!(lock(&d.returns[0]).len(), 1);
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
