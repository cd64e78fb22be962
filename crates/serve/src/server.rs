//! The serving runtime: admission → batch formation on a free lane →
//! pipelined engine pool → response routing.
//!
//! Thread topology (all std, matching the workspace's no-crossbeam
//! convention):
//!
//! ```text
//! callers ──admit──▶ Intake  [Mutex<BatchAggregator> + Condvar]
//!                      (bounded: max(K, queue_capacity) unboarded requests)
//!                          │ a free lane waits on the condvar and
//!                          │ leaves with the batch it will run
//!            ┌─────────────┼─────────────┐
//!        worker 0      worker 1  …   worker N-1
//!        (each: PipelineEngine, `pipeline_lanes` TEE lanes)
//!            │               │             │
//!            └── per-request reply slot ───┴──▶ Ticket::wait
//! ```
//!
//! After admission a request meets one thread: the TEE lane that takes
//! it. Every pool worker owns a [`dk_core::PipelineEngine`] over a
//! [`GpuCluster::fork`] of one shared fleet. A free lane takes its next
//! batch out of the shared intake itself — a full batch as soon as `K`
//! requests wait, a padded one once the earliest deadline has passed —
//! assembles `[K, …]` into its own reused tensor, runs it on its session
//! over its own replica of the engine's fleet, the round's jobs inline
//! on the lane thread — so one lane encodes batch `t+1` while another
//! runs batch `t`'s jobs (§7.1) — and routes the
//! per-request responses itself, in completion order. Responses are
//! bit-for-bit unchanged from the sequential path (the engine's
//! determinism guarantee) — per-sample quantization scales make every
//! answer identical to running that request alone.
//!
//! Backpressure is one bound: a lane takes requests only when it is free
//! to run them, so busy lanes leave them in the intake, and once
//! `max(K, queue_capacity)` wait there `submit` sheds instead of queueing
//! unboundedly (the overload policy). Outstanding admitted work is
//! therefore bounded end to end: the intake's bound, plus at most
//! `pipeline_lanes` batches per worker between the intake and the reply.

use crate::aggregator::{Batch, BatchAggregator, Pending};
use crate::autoscale::{decide, AutoscaleConfig, ScaleDecision, TickSignals};
use crate::error::{ConfigError, ServeError};
use crate::metrics::{MetricsRecorder, ServerMetrics};
use crate::request::{
    reply_pair, InferenceRequest, IntegrityVerdict, ReplyPool, RequestId, Response, Shed,
    ShedReason, Ticket,
};
use dk_core::engine::BatchOutcome;
use dk_core::{DarknightConfig, DarknightError, EngineOptions, PipelineEngine};
use dk_gpu::GpuCluster;
use dk_linalg::Tensor;
use dk_nn::Sequential;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deployment parameters for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-worker session parameters; `session.k()` is the virtual
    /// batch size requests are aggregated into.
    pub session: DarknightConfig,
    /// Shape of one request sample (no batch dimension).
    pub sample_shape: Vec<usize>,
    /// Session threads in the pool.
    pub workers: usize,
    /// Admission bound: once `max(K, queue_capacity)` admitted requests
    /// wait for a lane, `submit` sheds.
    pub queue_capacity: usize,
    /// Default cap on how long a request may wait for its batch to
    /// fill before a padded partial batch dispatches.
    pub max_batch_wait: Duration,
    /// In-flight virtual batches per worker engine (TEE lane threads);
    /// 1 disables overlap.
    pub pipeline_lanes: usize,
    /// Elastic-pool controller; `None` keeps the pool fixed at
    /// `workers` (unless resized manually via [`Server::resize_pool`]).
    pub autoscale: Option<AutoscaleConfig>,
}

impl ServerConfig {
    /// A 2-worker pool admitting up to 64 waiting requests, with a 2 ms
    /// aggregation deadline.
    pub fn new(session: DarknightConfig, sample_shape: &[usize]) -> Self {
        Self {
            session,
            sample_shape: sample_shape.to_vec(),
            workers: 2,
            queue_capacity: 64,
            max_batch_wait: Duration::from_millis(2),
            pipeline_lanes: 2,
            autoscale: None,
        }
    }

    /// Sets the pool size (the *initial* size when autoscaling). No
    /// validation happens here — [`Server::start`] returns
    /// [`ConfigError::ZeroWorkers`] for `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission bound (see [`ServerConfig::queue_capacity`]).
    /// Validated at [`Server::start`].
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the default aggregation deadline.
    pub fn with_max_batch_wait(mut self, max_batch_wait: Duration) -> Self {
        self.max_batch_wait = max_batch_wait;
        self
    }

    /// Sets the per-worker pipeline lane count (in-flight virtual
    /// batches; 1 disables stage overlap). Validated at
    /// [`Server::start`].
    pub fn with_pipeline_lanes(mut self, pipeline_lanes: usize) -> Self {
        self.pipeline_lanes = pipeline_lanes;
        self
    }

    /// Enables the autoscale controller (see [`AutoscaleConfig`]). The
    /// initial pool size is `workers` clamped into the autoscale range.
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Checks every bound the runtime depends on; called once by
    /// [`Server::start`].
    fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.pipeline_lanes == 0 {
            return Err(ConfigError::ZeroPipelineLanes);
        }
        if let Some(a) = &self.autoscale {
            if a.min_workers == 0 || a.min_workers > a.max_workers {
                return Err(ConfigError::AutoscaleRange {
                    min: a.min_workers,
                    max: a.max_workers,
                });
            }
        }
        Ok(())
    }
}

/// Where admitted requests wait for a lane: the batch policy's pending
/// set and an open flag behind one lock, and the condvar free lanes wait
/// on. Callers admit into it; a pool lane takes out the batch it will
/// run itself.
///
/// No lane sleeps through work it has to do. A waiting lane sleeps until
/// the earliest pending deadline, so admission wakes every waiting lane
/// when a request brings that deadline forward, and one lane when a
/// request completes a batch; retiring a worker or closing the intake
/// wakes them all. A lane that leaves with a batch needs to wake no
/// one: every other waiting lane's timer is already due no later than
/// what is left.
#[derive(Debug)]
struct Intake {
    state: Mutex<IntakeState>,
    wake: Condvar,
    k: usize,
    /// Unboarded requests at which admission sheds:
    /// `max(K, queue_capacity)`.
    bound: usize,
    metrics: Arc<MetricsRecorder>,
}

#[derive(Debug)]
struct IntakeState {
    pending: BatchAggregator,
    /// Cleared by [`Intake::close`]: admission sheds, and the lanes
    /// serve what is left and exit.
    open: bool,
}

impl Intake {
    fn new(k: usize, queue_capacity: usize, metrics: Arc<MetricsRecorder>) -> Self {
        Self {
            state: Mutex::new(IntakeState { pending: BatchAggregator::new(k), open: true }),
            wake: Condvar::new(),
            k,
            bound: queue_capacity.max(k),
            metrics,
        }
    }

    /// Admits a request, or hands it back with the reason it was shed.
    fn admit(&self, p: Pending) -> Result<(), (ShedReason, Pending)> {
        let mut s = lock_unpoisoned(&self.state);
        if !s.open {
            return Err((ShedReason::ShuttingDown, p));
        }
        if s.pending.len() >= self.bound {
            return Err((ShedReason::QueueFull, p));
        }
        let due_first = s.pending.next_deadline().is_none_or(|d| p.deadline < d);
        s.pending.add(p);
        let n = s.pending.len();
        self.metrics.set_queue_depth(n);
        drop(s);
        if due_first {
            // Every waiting lane re-arms its timer.
            self.wake.notify_all();
        } else if n.is_multiple_of(self.k) {
            // Takes remove `K` requests or all of them, so `n` is a
            // multiple of `K` exactly when this request completed a
            // batch.
            self.wake.notify_one();
        }
        Ok(())
    }

    /// A lane's pull: blocks until there is a batch for it — a full one,
    /// a padded one whose earliest deadline has passed, or, once the
    /// intake is closed, whatever is left — and takes it. `None` once
    /// `retire` is set (the pending requests stay for the other lanes)
    /// or the intake is closed and empty.
    fn take(&self, retire: &AtomicBool) -> Option<Batch> {
        let mut s = lock_unpoisoned(&self.state);
        let batch = loop {
            if retire.load(Ordering::Acquire) {
                break None;
            }
            let now = Instant::now();
            let batch = if s.open {
                s.pending.take_full(now).or_else(|| s.pending.flush_due(now))
            } else {
                s.pending.drain()
            };
            if batch.is_some() || !s.open {
                break batch;
            }
            s = match s.pending.next_deadline() {
                Some(d) => {
                    let wait = d.saturating_duration_since(now);
                    self.wake.wait_timeout(s, wait).unwrap_or_else(PoisonError::into_inner).0
                }
                None => self.wake.wait(s).unwrap_or_else(PoisonError::into_inner),
            };
        };
        self.metrics.set_queue_depth(s.pending.len());
        drop(s);
        let batch = batch?;
        self.metrics.record_batch(batch.entries.len(), batch.padded_rows());
        Some(batch)
    }

    /// Sets a worker's retire flag and wakes its waiting lane.
    fn retire(&self, flag: &AtomicBool) {
        // Under the lock: a lane checks the flag and starts waiting in
        // one critical section, so it either sees the flag or is
        // already waiting when the wake comes.
        let s = lock_unpoisoned(&self.state);
        flag.store(true, Ordering::Release);
        drop(s);
        self.wake.notify_all();
    }

    /// Stops admission; the lanes serve every admitted request and exit.
    fn close(&self) {
        lock_unpoisoned(&self.state).open = false;
        self.wake.notify_all();
    }
}

/// The callers' hold on the intake: dropping the last [`ServerHandle`]
/// closes it.
#[derive(Debug)]
struct Admission(Arc<Intake>);

impl Drop for Admission {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A caller-side handle: cheap to clone, shareable across client
/// threads. All clones feed the same server.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    intake: Arc<Admission>,
    next_id: Arc<AtomicU64>,
    metrics: Arc<MetricsRecorder>,
    sample_shape: Vec<usize>,
    max_batch_wait: Duration,
    /// Reply slots tickets have handed back.
    replies: Arc<ReplyPool>,
}

impl ServerHandle {
    /// Submits a request. On acceptance returns a [`Ticket`] that
    /// blocks until the response is routed back; on overload (the
    /// admission bound reached), after shutdown, or for an input the
    /// model cannot take (wrong shape, non-finite values) the request is
    /// handed back in a [`Shed`].
    pub fn submit(&self, request: InferenceRequest) -> Result<Ticket, Shed> {
        // Reject malformed inputs here, where only the offending caller
        // pays: a request comes from outside, so a wrong shape is an
        // answer, not a panic; and admitted into a batch, a single NaN
        // row would abort quantization for the whole virtual batch and
        // fail its innocent batch-mates.
        let malformed = if request.input.shape() != &self.sample_shape[..] {
            Some(ShedReason::WrongShape)
        } else if !request.input.as_slice().iter().all(|v| v.is_finite()) {
            Some(ShedReason::NonFiniteInput)
        } else {
            None
        };
        if let Some(reason) = malformed {
            self.metrics.record_shed();
            return Err(Shed { reason, request });
        }
        let max_wait = request.max_wait;
        let id = RequestId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (reply, ticket) = reply_pair(id, Some(&self.replies));
        let now = Instant::now();
        // Clamp to a day so a huge caller-supplied max_wait (e.g.
        // Duration::MAX as "no deadline") cannot overflow Instant
        // arithmetic; a day already means "effectively never" here.
        let wait = max_wait.unwrap_or(self.max_batch_wait).min(Duration::from_secs(86_400));
        let pending = Pending {
            id,
            input: request.input,
            priority: request.priority,
            seq: 0, // assigned by the aggregator
            enqueued: now,
            deadline: now + wait,
            reply,
        };
        match self.intake.0.admit(pending) {
            Ok(()) => {
                self.metrics.record_submitted();
                Ok(ticket)
            }
            Err((reason, p)) => {
                self.metrics.record_shed();
                Err(Shed {
                    reason,
                    request: InferenceRequest { input: p.input, priority: p.priority, max_wait },
                })
            }
        }
    }

    /// Live metrics snapshot.
    pub fn metrics(&self) -> ServerMetrics {
        self.metrics.snapshot()
    }

    /// Prometheus text exposition of the server's metrics — the
    /// `/metrics` endpoint body for whatever transport fronts this
    /// server.
    pub fn render_metrics(&self) -> String {
        self.metrics.render_prometheus()
    }
}

/// The elastic worker pool: everything needed to mint a new worker on
/// demand (prototype model/fleet/config), plus the live slot table.
///
/// Slot numbers increase monotonically and are never reused — each
/// slot's engine seed feeds a distinct mask-stream universe, and
/// replaying a retired slot's seed would replay its masks.
struct Pool {
    session: DarknightConfig,
    opts: EngineOptions,
    intake: Arc<Intake>,
    metrics: Arc<MetricsRecorder>,
    /// Prototypes and the slot table live behind one lock — the model
    /// prototype owns a scratch [`dk_linalg` workspace] and is only
    /// `Send`, so it cannot sit in a bare `Sync` field.
    inner: Mutex<PoolInner>,
}

struct PoolInner {
    model: Sequential,
    cluster: GpuCluster,
    next_slot: u64,
    /// Workers currently being fed, in spawn order (retire pops the
    /// newest).
    active: Vec<WorkerSlot>,
    /// Retired workers still draining their in-flight batches; joined
    /// at shutdown.
    retired: Vec<JoinHandle<()>>,
}

struct WorkerSlot {
    retire: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("active", &self.active_count()).finish_non_exhaustive()
    }
}

impl Pool {
    fn active_count(&self) -> usize {
        lock_unpoisoned(&self.inner).active.len()
    }

    /// Spawns one worker on a fresh slot: a new [`PipelineEngine`] over
    /// a [`GpuCluster::fork`] with a slot-derived session seed (no two
    /// slots ever share a mask stream), fed from the shared intake.
    fn spawn_worker(&self) -> Result<(), DarknightError> {
        let mut inner = lock_unpoisoned(&self.inner);
        let slot = inner.next_slot;
        let seed = self.session.seed() ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let session_cfg = self.session.with_seed(seed);
        let engine =
            PipelineEngine::new(session_cfg, inner.cluster.fork(seed ^ 0x5EED), self.opts)?;
        let retire = Arc::new(AtomicBool::new(false));
        let intake = self.intake.clone();
        let metrics = self.metrics.clone();
        let model = inner.model.clone();
        let flag = retire.clone();
        #[allow(clippy::expect_used, reason = "documented: a pool without threads cannot serve")]
        let handle = std::thread::Builder::new()
            .name(format!("dk-serve-worker-{slot}"))
            .spawn(move || worker_loop(engine, model, &intake, &metrics, &flag))
            .expect("spawn worker thread");
        inner.next_slot = slot + 1;
        inner.active.push(WorkerSlot { retire, handle });
        self.metrics.set_pool_workers(inner.active.len());
        self.metrics.record_scale(true);
        Ok(())
    }

    /// Retires the newest active worker: stop feeding, never kill. The
    /// worker finishes every batch already in its engine (bit-identical
    /// to a fixed-size run — per-sample quantization makes each
    /// response independent of which engine serves it) and exits; its
    /// thread is joined at shutdown. Returns `false` when only one
    /// worker remains (the pool never leaves the intake unserved).
    fn retire_worker(&self) -> bool {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.active.len() <= 1 {
            return false;
        }
        let Some(WorkerSlot { retire, handle }) = inner.active.pop() else { return false };
        self.intake.retire(&retire);
        inner.retired.push(handle);
        self.metrics.set_pool_workers(inner.active.len());
        self.metrics.record_scale(false);
        true
    }

    /// Spawns/retires toward `target` (clamped to at least 1), one step
    /// at a time. Returns the resulting active count.
    fn resize(&self, target: usize) -> Result<usize, DarknightError> {
        let target = target.max(1);
        loop {
            let n = self.active_count();
            if n < target {
                self.spawn_worker()?;
            } else if n > target {
                if !self.retire_worker() {
                    return Ok(self.active_count());
                }
            } else {
                return Ok(n);
            }
        }
    }

    /// Joins every worker thread, active and retired (shutdown path —
    /// the intake must already be closed or the lanes never exit).
    fn join_all(&self) {
        let (active, retired) = {
            let mut inner = lock_unpoisoned(&self.inner);
            self.metrics.set_pool_workers(0);
            (std::mem::take(&mut inner.active), std::mem::take(&mut inner.retired))
        };
        for slot in active {
            // A worker that died mid-run already shed or dropped its
            // in-flight requests; the survivors' metrics still count.
            let _ = slot.handle.join();
        }
        for handle in retired {
            let _ = handle.join();
        }
    }
}

/// A running serving deployment (see module docs for the topology).
///
/// Dropping a `Server` without calling [`Server::shutdown`] detaches
/// its threads; they keep serving outstanding [`ServerHandle`] clones,
/// and dropping the last one closes the intake: the lanes serve what it
/// holds and exit.
#[derive(Debug)]
pub struct Server {
    /// The prototype handle all caller handles are cloned from.
    handle: ServerHandle,
    pool: Arc<Pool>,
    /// Autoscale controller: dropping the sender stops it.
    controller: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

impl Server {
    /// Builds the pool and starts serving.
    ///
    /// Every worker gets its own [`PipelineEngine`] over a
    /// [`GpuCluster::fork`] of `cluster` (same fleet behaviours,
    /// independent execution state) and its own clone of `model`, with
    /// per-slot session seeds so no two workers — across the server's
    /// whole elastic lifetime — share a mask stream. Within each
    /// engine, `pipeline_lanes` TEE threads stream batches over
    /// their own replicas of the engine's fleet. With
    /// [`ServerConfig::with_autoscale`], a controller thread resizes
    /// the pool between `min_workers` and `max_workers` from the
    /// waiting-batch and shed pressure signals.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid bounds (zero workers/queues,
    /// an empty autoscale range); [`ServeError::Session`] if the fleet
    /// is too small for the session configuration or the model's
    /// weights cannot be quantized.
    pub fn start(
        config: ServerConfig,
        model: &Sequential,
        cluster: &GpuCluster,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        // Fail fast on a model whose weights cannot survive Algorithm 1
        // quantization: the engines extract this exact plan inside
        // their workers, and a worker dying there would silently strand
        // every request routed to it.
        let _ = dk_core::StepPlan::extract(model, config.session.quant())
            .map_err(ServeError::Session)?;

        let metrics = Arc::new(MetricsRecorder::new());
        let intake =
            Arc::new(Intake::new(config.session.k(), config.queue_capacity, metrics.clone()));
        let pool = Arc::new(Pool {
            session: config.session,
            opts: EngineOptions::default().with_lanes(config.pipeline_lanes),
            intake: intake.clone(),
            metrics: metrics.clone(),
            inner: Mutex::new(PoolInner {
                model: model.clone(),
                cluster: cluster.fork(config.session.seed() ^ 0x9001),
                next_slot: 0,
                active: Vec::new(),
                retired: Vec::new(),
            }),
        });

        // The first spawn constructs a full engine and hits every
        // validation path the rest would, so a bad session configuration
        // fails here, before any caller could have been admitted.
        let initial = match &config.autoscale {
            Some(a) => config.workers.clamp(a.min_workers, a.max_workers),
            None => config.workers,
        };
        for _ in 0..initial {
            if let Err(e) = pool.spawn_worker() {
                intake.close(); // the lanes already spawned exit
                pool.join_all();
                return Err(ServeError::Session(e));
            }
        }

        let controller = config.autoscale.map(|auto| {
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            let pool = pool.clone();
            let metrics = metrics.clone();
            #[allow(clippy::expect_used, reason = "documented: autoscaling needs its thread")]
            let handle = std::thread::Builder::new()
                .name("dk-serve-autoscale".into())
                .spawn(move || controller_loop(&auto, &pool, &metrics, &stop_rx))
                .expect("spawn autoscale thread");
            (stop_tx, handle)
        });

        Ok(Self {
            handle: ServerHandle {
                intake: Arc::new(Admission(intake)),
                next_id: Arc::new(AtomicU64::new(0)),
                metrics,
                sample_shape: config.sample_shape,
                max_batch_wait: config.max_batch_wait,
                replies: Arc::default(),
            },
            pool,
            controller,
        })
    }

    /// A new caller handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Live metrics snapshot.
    pub fn metrics(&self) -> ServerMetrics {
        self.handle.metrics()
    }

    /// Workers currently being fed.
    pub fn pool_workers(&self) -> usize {
        self.pool.active_count()
    }

    /// Manually resizes the pool toward `workers` (clamped to ≥ 1):
    /// scale-up spawns fresh never-reused-seed engines, scale-down
    /// retires newest-first with the same drain-to-completion guarantee
    /// as the autoscale controller. Mostly useful for tests and
    /// operational overrides; with autoscaling enabled the controller
    /// will keep adjusting afterwards. Returns the resulting size.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] if a new engine cannot be constructed.
    pub fn resize_pool(&self, workers: usize) -> Result<usize, ServeError> {
        Ok(self.pool.resize(workers)?)
    }

    /// Stops the server: admission closes, every admitted request is
    /// still served (partial batches dispatch padded), the pool is
    /// joined — retired workers included — and the final metrics are
    /// returned.
    ///
    /// Outstanding [`ServerHandle`] clones remain valid, but their
    /// `submit` sheds with [`ShedReason::ShuttingDown`]. Admission and
    /// the close take the same lock, so a submission racing this call
    /// is either admitted before the close, and then served, or shed:
    /// its [`Ticket::wait`] never returns `None`.
    pub fn shutdown(self) -> ServerMetrics {
        let Server { handle, pool, controller } = self;
        pool.intake.close();
        // Stop the controller so it cannot resize a draining pool, then
        // join the workers, whose lanes exit once the intake is empty.
        if let Some((stop_tx, h)) = controller {
            drop(stop_tx);
            let _ = h.join();
        }
        pool.join_all();
        handle.metrics.snapshot()
    }
}

/// The autoscale controller thread: ticks on `auto.interval`, reads the
/// pressure signals, and resizes one step at a time. `stop` doubles as
/// the tick timer — dropping the sender wakes and stops the loop.
fn controller_loop(
    auto: &AutoscaleConfig,
    pool: &Pool,
    metrics: &MetricsRecorder,
    stop: &mpsc::Receiver<()>,
) {
    let mut last_shed = metrics.shed_total();
    let mut calm_ticks = 0u32;
    loop {
        match stop.recv_timeout(auto.interval) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
        let shed = metrics.shed_total();
        let signals = TickSignals {
            shed_delta: shed - last_shed,
            full_batch_waits: metrics.queue_depth_now() >= pool.session.k() as u64,
        };
        last_shed = shed;
        match decide(auto, signals, pool.active_count(), &mut calm_ticks) {
            ScaleDecision::Up => {
                // An engine that cannot be built now (e.g. the fleet
                // prototype shrank) is not fatal: the pool keeps
                // serving at its current size and retries next tick
                // (spawn/retire record the scale counters themselves).
                let _ = pool.spawn_worker();
            }
            ScaleDecision::Down => {
                let _ = pool.retire_worker();
            }
            ScaleDecision::Hold => {}
        }
    }
}

/// Locks a mutex, recovering the value if a previous holder panicked.
/// Everything behind these locks is mutated through single push / pop /
/// insert / remove calls (no multi-step invariants), so the data is
/// consistent even after a panicking holder — the poison flag alone must
/// not take down the rest of the server with the one dead thread.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pool worker: its [`PipelineEngine`]'s TEE lanes take batches out
/// of the shared intake, serve them concurrently (encode of batch `t+1`
/// under the shadow of GPU work for batch `t`) and route the per-request
/// responses themselves, in completion order. This thread only parks
/// until the lanes are done.
fn worker_loop(
    mut engine: PipelineEngine,
    model: Sequential,
    intake: &Intake,
    metrics: &MetricsRecorder,
    retire: &AtomicBool,
) {
    let k = engine.config().k();
    let integrity = engine.config().integrity();
    // A lane's pull: the batch it takes out of the intake, assembled
    // into the tensor the lane got last time (`spare`), plus what
    // `route_batch` needs to answer it. Drain-on-retire: once the flag
    // is up the lanes stop taking and exit; a batch already taken is
    // still served and routed, so a retired worker is never killed
    // mid-batch.
    let pull = |spare: Option<Tensor<f32>>| {
        let batch = intake.take(retire)?;
        debug_assert!(!batch.entries.is_empty() && batch.entries.len() <= k);
        let taken_at = Instant::now();
        // Assemble [K, sample...]: real rows first, all-zero padding
        // after. Per-sample quantization scales make the padding
        // numerically invisible to the real rows, and re-zeroing it
        // makes a reused tensor identical to a fresh one.
        let sample = batch.entries[0].input.shape();
        let mut x = spare
            .filter(|t| t.shape()[0] == k && &t.shape()[1..] == sample)
            .unwrap_or_else(|| {
                let mut shape = vec![k];
                shape.extend_from_slice(sample);
                Tensor::<f32>::zeros(&shape)
            });
        for (i, p) in batch.entries.iter().enumerate() {
            x.batch_item_mut(i).copy_from_slice(p.input.as_slice());
        }
        for i in batch.entries.len()..k {
            x.batch_item_mut(i).fill(0.0);
        }
        Some((x, (batch, taken_at)))
    };
    let route = |(batch, taken_at): (Batch, Instant), outcome, quarantined: &[_]| {
        metrics.record_quarantined(quarantined);
        route_batch(outcome, batch, taken_at, integrity, metrics)
    };
    // An error is weight quantization failing at plan extraction, which
    // `Server::start` checked on this very model: nothing was taken,
    // and the intake is left to the other workers.
    let _ = engine.pump(&model, true, pull, route);
}

/// Turns one engine outcome into per-request responses, dropping padded
/// rows (only real requests receive responses). Hands the output tensor
/// back for the lane to reuse.
fn route_batch(
    outcome: BatchOutcome,
    mut batch: Batch,
    taken_at: Instant,
    integrity: bool,
    metrics: &MetricsRecorder,
) -> Option<Tensor<f32>> {
    // Measured from the moment a lane took the batch: queue_wait +
    // service_time must cover the request's whole journey.
    let service_time = taken_at.elapsed();
    let fill = batch.fill();
    let served = outcome.output.is_ok();
    let repaired = served && outcome.repaired;
    let verdict = match &outcome.output {
        // A successful decode that needed TEE-side repair is still
        // evidence of active tampering: surface it as `Repaired`, never
        // as a clean `Verified`.
        Ok(_) if repaired => {
            metrics.record_repaired_rows(batch.entries.len());
            IntegrityVerdict::Repaired
        }
        Ok(_) if integrity => IntegrityVerdict::Verified,
        Ok(_) => IntegrityVerdict::Unchecked,
        Err(e) => {
            metrics.record_fault(e);
            match e {
                DarknightError::IntegrityViolation { .. } => IntegrityVerdict::Violated,
                _ => IntegrityVerdict::Unchecked,
            }
        }
    };
    for (i, p) in batch.entries.drain(..).enumerate() {
        let queue_wait = taken_at.duration_since(p.enqueued);
        metrics.record_response(queue_wait, served, repaired);
        let output = match &outcome.output {
            Ok(y) => Ok(Tensor::from_vec(&y.shape()[1..], y.batch_item(i).to_vec())),
            Err(e) => Err(e.clone()),
        };
        p.reply.send(Response {
            id: p.id,
            output,
            verdict,
            queue_wait,
            service_time,
            batch_fill: fill,
        });
    }
    batch.spent();
    outcome.output.ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use dk_core::QuantizedReference;
    use dk_field::QuantConfig;
    use dk_gpu::Behavior;
    use dk_nn::arch::mini_vgg;

    const HW: usize = 8;

    fn sample(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(&[3, HW, HW], |i| {
            (((i as u64).wrapping_mul(seed * 2 + 1) % 23) as f32 - 11.0) * 0.04
        })
    }

    fn server(workers: usize, wait: Duration) -> (Server, Sequential, DarknightConfig) {
        let model = mini_vgg(HW, 4, 77);
        let cfg = DarknightConfig::new(4, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 7);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW]).with_workers(workers).with_max_batch_wait(wait),
            &model,
            &cluster,
        )
        .unwrap();
        (server, model, cfg)
    }

    fn solo_reference(model: &Sequential, x: &Tensor<f32>, quant: QuantConfig) -> Tensor<f32> {
        QuantizedReference::forward_solo(model, x, quant).unwrap()
    }

    #[test]
    fn full_batches_serve_exactly() {
        let (server, model, cfg) = server(2, Duration::from_millis(50));
        let handle = server.handle();
        let tickets: Vec<(Tensor<f32>, Ticket)> = (0..8)
            .map(|i| {
                let x = sample(i);
                let t = handle.submit(InferenceRequest::new(x.clone())).unwrap();
                (x, t)
            })
            .collect();
        for (x, t) in tickets {
            let resp = t.wait().expect("server alive");
            assert_eq!(resp.verdict, IntegrityVerdict::Verified);
            let y = resp.output.expect("served");
            assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        }
        let m = server.shutdown();
        assert_eq!(m.served, 8);
        assert_eq!(m.failed, 0);
        assert_eq!(m.shed, 0);
        assert_eq!(m.real_rows, 8);
    }

    /// The padding satellite: a partial batch is padded with zero rows,
    /// the padded rows are dropped before routing, and the real
    /// response is still bit-exact.
    #[test]
    fn partial_batch_pads_and_drops_padding() {
        let (server, model, cfg) = server(1, Duration::from_millis(1));
        let handle = server.handle();
        let x = sample(3);
        let ticket = handle.submit(InferenceRequest::new(x.clone())).unwrap();
        let resp = ticket.wait().expect("server alive");
        assert!((resp.batch_fill - 0.25).abs() < 1e-12, "1 of K=4 rows is real");
        let y = resp.output.expect("served");
        assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        let m = server.shutdown();
        assert_eq!(m.served, 1, "exactly one response for one request");
        assert_eq!(m.batches, 1);
        assert_eq!(m.real_rows, 1);
        assert_eq!(m.padded_rows, 3, "K-1 rows were padding");
        assert!((m.batch_fill_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_zero_request_is_served() {
        // A legitimate all-zero input must be indistinguishable from
        // padding handling-wise: it still gets its own response.
        let (server, model, cfg) = server(1, Duration::from_millis(1));
        let handle = server.handle();
        let x = Tensor::<f32>::zeros(&[3, HW, HW]);
        let resp = handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
        let y = resp.output.expect("served");
        assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let (server, _model, _cfg) = server(2, Duration::from_secs(10));
        let handle = server.handle();
        // With a 10 s deadline and only 3 of K=4 requests, dispatch can
        // only come from the shutdown drain.
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| handle.submit(InferenceRequest::new(sample(i))).unwrap())
            .collect();
        let m = server.shutdown();
        assert_eq!(m.served, 3);
        for t in tickets {
            assert!(t.try_wait().is_some(), "drained response must be waiting");
        }
    }

    /// Regression: a poisoned (non-finite) input must be refused at
    /// admission — admitted, it would abort quantization for the whole
    /// virtual batch and fail its innocent batch-mates.
    #[test]
    fn non_finite_input_is_refused_and_cannot_poison_batch_mates() {
        let (server, model, cfg) = server(1, Duration::from_millis(5));
        let handle = server.handle();
        let mut poison = sample(0);
        poison.as_mut_slice()[7] = f32::NAN;
        let shed = handle.submit(InferenceRequest::new(poison)).unwrap_err();
        assert_eq!(shed.reason, ShedReason::NonFiniteInput);
        // An innocent request submitted around it is served normally.
        let x = sample(1);
        let resp = handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
        let y = resp.output.expect("innocent request must not fail");
        assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        let m = server.shutdown();
        assert_eq!(m.shed, 1);
        assert_eq!(m.served, 1);
        assert_eq!(m.failed, 0);
    }

    #[test]
    fn submit_after_shutdown_sheds() {
        let (server, _model, _cfg) = server(1, Duration::from_millis(1));
        let handle = server.handle();
        server.shutdown();
        let shed = handle.submit(InferenceRequest::new(sample(1))).unwrap_err();
        assert_eq!(shed.reason, ShedReason::ShuttingDown);
        assert_eq!(shed.request.input().shape(), &[3, HW, HW], "request handed back intact");
    }

    #[test]
    fn overload_sheds_instead_of_queueing() {
        let model = mini_vgg(HW, 4, 78);
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 8);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_queue_capacity(2)
                .with_max_batch_wait(Duration::from_secs(10)),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let mut shed = 0;
        let mut tickets = Vec::new();
        // Far more submissions than the 2-deep intake can hold while
        // the single worker grinds: some must shed.
        for i in 0..64 {
            match handle.submit(InferenceRequest::new(sample(i))) {
                Ok(t) => tickets.push(t),
                Err(s) => {
                    assert_eq!(s.reason, ShedReason::QueueFull);
                    shed += 1;
                }
            }
        }
        assert!(shed > 0, "the bounded intake must shed under overload");
        let m = server.shutdown();
        assert_eq!(m.shed, shed);
        assert_eq!(m.served as usize, tickets.len(), "admitted requests all served");
        for t in tickets {
            assert!(t.try_wait().is_some());
        }
    }

    #[test]
    fn priority_rides_earlier_batches() {
        // One slow worker, K=2: flood Low requests, then one High; the
        // High request must overtake the tail.
        let model = mini_vgg(HW, 4, 79);
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 9);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_queue_capacity(32)
                .with_max_batch_wait(Duration::from_millis(1)),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let lows: Vec<Ticket> = (0..12)
            .map(|i| {
                handle
                    .submit(InferenceRequest::new(sample(i)).with_priority(Priority::Low))
                    .unwrap()
            })
            .collect();
        let high = handle
            .submit(InferenceRequest::new(sample(99)).with_priority(Priority::High))
            .unwrap();
        let high_id = high.id();
        let m = server.shutdown();
        assert_eq!(m.served, 13);
        let high_wait = high.wait().unwrap().queue_wait;
        let last_low_wait =
            lows.into_iter().map(|t| t.wait().unwrap().queue_wait).max().unwrap();
        assert!(
            high_wait <= last_low_wait,
            "high-priority {high_id} waited {high_wait:?}, longer than the slowest low \
             ({last_low_wait:?})"
        );
    }

    #[test]
    fn integrity_violation_routes_error_verdicts() {
        let model = mini_vgg(HW, 4, 80);
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[1] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 10);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_max_batch_wait(Duration::from_millis(1)),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let resp =
            handle.submit(InferenceRequest::new(sample(5))).unwrap().wait().expect("alive");
        assert_eq!(resp.verdict, IntegrityVerdict::Violated);
        assert!(matches!(
            resp.output,
            Err(DarknightError::IntegrityViolation { phase: "forward", .. })
        ));
        let m = server.shutdown();
        assert_eq!(m.failed, 1);
        assert_eq!(m.served, 0);
    }

    #[test]
    fn recovery_mode_serves_through_tampering() {
        let model = mini_vgg(HW, 4, 81);
        let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[0] = Behavior::AdditiveNoise;
        let cluster = GpuCluster::with_behaviors(&behaviors, 11);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_max_batch_wait(Duration::from_millis(1)),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let x = sample(6);
        let resp = handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
        assert_eq!(
            resp.verdict,
            IntegrityVerdict::Repaired,
            "a repaired batch must not masquerade as cleanly Verified"
        );
        let y = resp.output.expect("repaired and served");
        assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        let m = server.shutdown();
        assert_eq!(m.repaired, 1);
        assert_eq!(m.served, 1);
    }

    #[test]
    fn dead_worker_mid_batch_serves_repaired_not_dead() {
        // A fail-stop worker (dies on its very first job) must behave
        // exactly like a tampering one under recovery: the batch is
        // repaired by the TEE, the verdict says so, the answer is
        // bit-exact — and the server survives to shut down cleanly.
        let model = mini_vgg(HW, 4, 83);
        let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[2] = Behavior::Crash { after: 0 };
        let cluster = GpuCluster::with_behaviors(&behaviors, 13);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_max_batch_wait(Duration::from_millis(1)),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let x = sample(7);
        let resp = handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
        assert_eq!(resp.verdict, IntegrityVerdict::Repaired, "worker loss must be visible");
        let y = resp.output.expect("repaired and served");
        assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        let m = server.shutdown();
        assert_eq!(m.repaired, 1);
        assert_eq!(m.served, 1);
    }

    #[test]
    fn dead_worker_without_recovery_sheds_the_batch_not_the_server() {
        // Fail closed: no recovery → typed GpuFault responses for the
        // affected batch, and the *next* batches still get served (the
        // worker loop and the intake survive).
        let model = mini_vgg(HW, 4, 84);
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[1] = Behavior::Crash { after: 0 };
        let cluster = GpuCluster::with_behaviors(&behaviors, 14);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_max_batch_wait(Duration::from_millis(1)),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let resp =
            handle.submit(InferenceRequest::new(sample(8))).unwrap().wait().expect("alive");
        assert!(
            matches!(resp.output, Err(DarknightError::GpuFault { phase: "forward", .. })),
            "{:?}",
            resp.output
        );
        let m = server.shutdown();
        assert_eq!(m.failed, 1);
        assert_eq!(m.served, 0);
    }

    #[test]
    fn insufficient_cluster_fails_fast() {
        let model = mini_vgg(HW, 4, 82);
        let cfg = DarknightConfig::new(4, 2).with_integrity(true); // needs 7
        let cluster = GpuCluster::honest(5, 12);
        assert!(matches!(
            Server::start(ServerConfig::new(cfg, &[3, HW, HW]), &model, &cluster),
            Err(ServeError::Session(DarknightError::InsufficientWorkers {
                required: 7,
                available: 5
            }))
        ));
    }

    #[test]
    fn zero_bounds_are_typed_errors_not_panics() {
        let model = mini_vgg(HW, 4, 85);
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 15);
        let base = || ServerConfig::new(cfg, &[3, HW, HW]);
        for (config, want) in [
            (base().with_workers(0), ConfigError::ZeroWorkers),
            (base().with_queue_capacity(0), ConfigError::ZeroQueueCapacity),
            (base().with_pipeline_lanes(0), ConfigError::ZeroPipelineLanes),
            (
                base().with_autoscale(AutoscaleConfig::new(0, 2)),
                ConfigError::AutoscaleRange { min: 0, max: 2 },
            ),
            (
                base().with_autoscale(AutoscaleConfig::new(3, 2)),
                ConfigError::AutoscaleRange { min: 3, max: 2 },
            ),
        ] {
            match Server::start(config, &model, &cluster) {
                Err(ServeError::Config(e)) => assert_eq!(e, want),
                other => panic!("expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn manual_resize_scales_up_and_down_and_keeps_serving_exactly() {
        let (server, model, cfg) = server(1, Duration::from_millis(1));
        let handle = server.handle();
        assert_eq!(server.pool_workers(), 1);
        assert_eq!(server.resize_pool(3).unwrap(), 3);
        assert_eq!(server.metrics().pool_workers, 3);
        for i in 0..6 {
            let x = sample(i + 40);
            let resp =
                handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
            let y = resp.output.expect("served");
            assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        }
        // Scale back down; the retired workers drain and responses stay
        // exact.
        assert_eq!(server.resize_pool(1).unwrap(), 1);
        for i in 0..4 {
            let x = sample(i + 60);
            let resp =
                handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
            let y = resp.output.expect("served");
            assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        }
        let m = server.shutdown();
        assert_eq!(m.served, 10);
        assert_eq!(m.failed, 0);
    }

    #[test]
    fn autoscaler_grows_under_pressure_and_shrinks_when_calm() {
        use dk_gpu::LatencyModel;
        let model = mini_vgg(HW, 4, 86);
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        // Modeled per-job latency makes the single initial worker
        // visibly too slow for the burst, so queue pressure builds.
        let cluster = GpuCluster::honest(cfg.workers_required(), 16)
            .with_latency(Some(LatencyModel { base_ns: 300_000, ns_per_kmac: 0 }));
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_queue_capacity(64)
                .with_max_batch_wait(Duration::from_millis(1))
                .with_autoscale(
                    AutoscaleConfig::new(1, 3)
                        .with_interval(Duration::from_millis(5))
                        .with_idle_ticks(2),
                ),
            &model,
            &cluster,
        )
        .unwrap();
        let handle = server.handle();
        let mut tickets = Vec::new();
        for i in 0..48 {
            if let Ok(t) = handle.submit(InferenceRequest::new(sample(i))) {
                tickets.push(t);
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        // Calm traffic now: give the controller a few idle ticks to
        // walk back down to min.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.pool_workers() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let m = server.shutdown();
        // scale_ups counts every spawn, including the initial worker —
        // controller-driven growth means strictly more than 1.
        assert!(m.scale_ups > 1, "burst must have grown the pool: {m:?}");
        assert!(m.scale_downs > 0, "calm must have shrunk the pool: {m:?}");
        assert_eq!(m.pool_workers, 0, "shutdown empties the pool gauge");
    }

    /// Bounded staging: a lane takes requests only when it is free to
    /// run them, so the batches a worker has taken and not yet routed
    /// never exceed the lane count. Each request here is due on arrival
    /// and is admitted only once the previous one has left the intake,
    /// so every take is one batch; `route_batch` sends the replies
    /// before the lane takes again, so after the `n`-th take at least
    /// `n − lanes` batches must already have their reply waiting. The
    /// modeled fleet latency makes a batch take milliseconds, so
    /// anything staged ahead of the lanes would show.
    #[test]
    fn a_worker_never_holds_more_batches_than_lanes() {
        use dk_gpu::LatencyModel;
        const LANES: usize = 2;
        let model = mini_vgg(HW, 4, 87);
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 17)
            .with_latency(Some(LatencyModel { base_ns: 200_000, ns_per_kmac: 0 }));
        let engine =
            PipelineEngine::new(cfg, cluster, EngineOptions::default().with_lanes(LANES)).unwrap();
        let metrics = Arc::new(MetricsRecorder::new());
        let intake = Intake::new(cfg.k(), 1, metrics.clone());
        let retire = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| worker_loop(engine, model, &intake, &metrics, &retire));
            let mut replies = Vec::new();
            for n in 1..=24usize {
                let (reply, ticket) = reply_pair(RequestId(n as u64), None);
                let now = Instant::now();
                let entry = Pending {
                    id: RequestId(n as u64),
                    input: sample(n as u64),
                    priority: Priority::Normal,
                    seq: 0,
                    enqueued: now,
                    deadline: now,
                    reply,
                };
                assert!(intake.admit(entry).is_ok(), "the previous request has left");
                while metrics.queue_depth_now() > 0 {
                    std::thread::yield_now();
                }
                replies.push((ticket, false));
                for (ticket, routed) in replies.iter_mut().filter(|(_, routed)| !routed) {
                    *routed = ticket.try_wait().is_some();
                }
                let held = replies.iter().filter(|(_, routed)| !routed).count();
                assert!(held <= LANES, "after take {n} the worker holds {held} batches");
            }
            intake.close(); // the lanes finish what they hold and exit
        });
        assert_eq!(metrics.snapshot().served, 24);
    }

    /// The admission bound is `max(K, queue_capacity)` requests no lane
    /// has taken: with the only lane busy on a slow batch, exactly that
    /// many are admitted, the next sheds `QueueFull`, and every admitted
    /// one is served.
    #[test]
    fn the_intake_admits_exactly_its_bound_while_the_lane_is_busy() {
        use dk_gpu::LatencyModel;
        for (k, capacity) in [(4, 2), (2, 5)] {
            let model = mini_vgg(HW, 4, 88);
            let cfg = DarknightConfig::new(k, 1);
            // Every job sleeps 20 ms: the lane's batch outlasts the
            // submissions below by orders of magnitude.
            let cluster = GpuCluster::honest(cfg.workers_required(), 18)
                .with_latency(Some(LatencyModel { base_ns: 20_000_000, ns_per_kmac: 0 }));
            let server = Server::start(
                ServerConfig::new(cfg, &[3, HW, HW])
                    .with_workers(1)
                    .with_pipeline_lanes(1)
                    .with_queue_capacity(capacity)
                    .with_max_batch_wait(Duration::from_secs(10)),
                &model,
                &cluster,
            )
            .unwrap();
            let handle = server.handle();
            // One full batch occupies the only lane.
            let submit = |i: usize| handle.submit(InferenceRequest::new(sample(i as u64)));
            let mut tickets: Vec<Ticket> = (0..k).map(|i| submit(i).unwrap()).collect();
            while handle.metrics.queue_depth_now() > 0 {
                std::thread::yield_now();
            }
            let bound = capacity.max(k);
            for i in 0..bound {
                tickets.push(submit(100 + i).expect("below the bound"));
            }
            let shed = submit(99).unwrap_err();
            assert_eq!(shed.reason, ShedReason::QueueFull, "K={k} capacity={capacity}");
            let m = server.shutdown();
            assert_eq!((m.served, m.shed), ((k + bound) as u64, 1));
            for t in tickets {
                assert!(t.try_wait().is_some(), "admitted requests are all served");
            }
        }
    }

    /// A submission racing `shutdown` is either admitted before the
    /// intake closes, and then served, or shed `ShuttingDown`: no
    /// ticket is ever left without a response.
    #[test]
    fn a_submission_racing_shutdown_is_served_or_shed() {
        let (server, _model, _cfg) = server(2, Duration::from_millis(1));
        let handle = server.handle();
        let submitter = std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for i in 0.. {
                match handle.submit(InferenceRequest::new(sample(i))) {
                    Ok(t) => tickets.push(t),
                    Err(s) if s.reason == ShedReason::QueueFull => std::thread::yield_now(),
                    Err(s) => {
                        assert_eq!(s.reason, ShedReason::ShuttingDown);
                        break;
                    }
                }
            }
            tickets
        });
        std::thread::sleep(Duration::from_millis(20));
        let m = server.shutdown();
        let tickets = submitter.join().unwrap();
        assert!(!tickets.is_empty());
        assert_eq!(m.served, tickets.len() as u64, "everything admitted was served");
        for t in tickets {
            assert!(t.wait().is_some(), "no admitted request is dropped");
        }
    }

    /// Drain-on-retire under sparse arrivals: each request arrives
    /// alone, and a worker is retired while it waits for batch-mates.
    /// The retired worker's lanes leave it in the intake, and the
    /// remaining worker serves it at its deadline, not at shutdown.
    #[test]
    fn a_retire_under_sparse_arrivals_strands_no_request() {
        let (server, model, cfg) = server(1, Duration::from_millis(2));
        let handle = server.handle();
        for i in 0..20 {
            assert_eq!(server.resize_pool(2).unwrap(), 2);
            let x = sample(i + 200);
            let ticket = handle.submit(InferenceRequest::new(x.clone())).unwrap();
            assert_eq!(server.resize_pool(1).unwrap(), 1);
            let resp = ticket.wait().expect("alive");
            assert!(resp.queue_wait < Duration::from_secs(1), "stranded: {:?}", resp.queue_wait);
            let y = resp.output.expect("served");
            assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        }
        let m = server.shutdown();
        assert_eq!((m.served, m.scale_downs), (20, 20));
    }

    /// Retiring wakes the worker's waiting lane: with nothing to serve
    /// and nothing arriving, the retired worker's thread still exits.
    #[test]
    fn a_retired_worker_exits_without_waiting_for_traffic() {
        let (server, _model, _cfg) = server(2, Duration::from_millis(1));
        // Time for both workers' lanes to reach the intake and wait.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(server.resize_pool(1).unwrap(), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        let finished = || lock_unpoisoned(&server.pool.inner).retired[0].is_finished();
        while !finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(finished(), "the retired worker is still waiting on an idle intake");
        server.shutdown();
    }

    /// Regression: a request of the wrong shape comes from outside the
    /// program, so it must be handed back, not panic the caller's
    /// thread — and the server keeps serving.
    #[test]
    fn wrong_sample_shape_is_shed_and_the_server_keeps_serving() {
        let (server, model, cfg) = server(1, Duration::from_millis(1));
        let handle = server.handle();
        let shed =
            handle.submit(InferenceRequest::new(Tensor::zeros(&[3, HW + 2, HW]))).unwrap_err();
        assert_eq!(shed.reason, ShedReason::WrongShape);
        assert_eq!(shed.request.input().shape(), &[3, HW + 2, HW], "request handed back intact");
        let x = sample(1);
        let resp = handle.submit(InferenceRequest::new(x.clone())).unwrap().wait().expect("alive");
        let y = resp.output.expect("a well-formed request is still served");
        assert_eq!(y.as_slice(), solo_reference(&model, &x, cfg.quant()).as_slice());
        let m = server.shutdown();
        assert_eq!((m.shed, m.served, m.failed), (1, 1, 0));
    }
}
