//! Quarantine that routes: once the TEE's own ground truth has
//! contradicted a worker, the session sends that worker nothing more —
//! no job, no encoding, no store — computes its one slot itself, and
//! keeps checking the complete result set on every layer.
//!
//! Pinned here, on all three backends (`GpuCluster`, a 2-lane
//! `PipelineEngine` over the dispatcher, a loopback `TcpFleet`):
//!
//! * privacy — a convicted worker's job and observation counters stop;
//! * exactness — every output stays bit-equal to `QuantizedReference`,
//!   every training step lands the honest fleet's weights;
//! * integrity — a second liar, or a one-element tamper by any healthy
//!   worker on any layer of a degraded batch, is still caught;
//! * recovery off — nothing changes: every batch fails closed;
//! * loss is not lying — a lost worker keeps being offered work and is
//!   re-admitted by the transport's redial;
//! * degraded dispatch stays batched on the dispatcher and on the wire.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use darknight::core::virtual_batch::LargeBatchTrainer;
use darknight::core::{
    DarknightConfig, DarknightError, DarknightSession, EngineOptions, PipelineEngine,
    QuantizedReference,
};
use darknight::field::F25;
use darknight::gpu::wire::{self, WireMsg};
use darknight::gpu::{
    Behavior, DispatchClient, FleetManifest, GpuCluster, GpuError, GpuExec, GpuWorker,
    LatencyModel, LinearJob, TcpFleet, WorkerId, WorkerResult,
};
use darknight::linalg::{Conv2dShape, Tensor};
use darknight::nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;
use darknight::tee::EpcConfig;

/// Offloaded linear layers of [`model`]: one dispatch each per pass.
const LAYERS: usize = 2;

fn model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, seed ^ 1)),
    ])
}

fn input(k: usize, seed: u64) -> Tensor<f32> {
    Tensor::from_fn(&[k, 2, 6, 6], |i| (((i as u64 * 31 + seed * 7) % 17) as f32 - 8.0) * 0.06)
}

fn cfg(seed: u64) -> DarknightConfig {
    DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(seed)
}

fn lying_fleet(cfg: DarknightConfig, liar: usize, how: Behavior, seed: u64) -> GpuCluster {
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[liar] = how;
    GpuCluster::with_behaviors(&behaviors, seed)
}

/// What the clear-text oracle computes for `x` on the model as it is now.
fn oracle(cfg: DarknightConfig, model: &Sequential, x: &Tensor<f32>) -> Tensor<f32> {
    QuantizedReference::new(cfg.k(), cfg.quant())
        .forward(&mut model.clone(), x, false)
        .expect("reference forward")
}

/// `(jobs executed, encodings observed)` of one in-process worker.
fn seen(cluster: &GpuCluster, w: usize) -> (u64, usize) {
    let w = cluster.worker(WorkerId(w));
    (w.jobs_executed(), w.observations().len())
}

/// A backend wrapper that watches (and can tamper with) the traffic a
/// session generates. It forwards the sparse calls as sparse calls, so
/// routing underneath is exactly what the session asked for.
struct Probe<X: GpuExec> {
    inner: X,
    /// Layer dispatches so far.
    rounds: usize,
    /// `(round, worker)`: flip one element of that worker's answer in
    /// that dispatch.
    tamper: Option<(usize, usize)>,
    /// Every skip set a dispatch carried.
    withheld_seen: Vec<Vec<WorkerId>>,
    /// The most explicit weight-gradient jobs (the backward duplicate
    /// check) any worker was sent in one dispatch.
    max_verifying: usize,
}

impl<X: GpuExec> Probe<X> {
    fn new(inner: X) -> Self {
        Self {
            inner,
            rounds: 0,
            tamper: None,
            withheld_seen: Vec::new(),
            max_verifying: 0,
        }
    }
}

impl<X: GpuExec> GpuExec for Probe<X> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError> {
        let mut out = Vec::new();
        self.execute_round_into(tag, jobs, &[], &[], &mut out)?;
        Ok(out)
    }

    fn execute_round_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        withheld: &[WorkerId],
        extra: &[(WorkerId, &LinearJob)],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        let first = out.len();
        self.inner.execute_round_into(tag, jobs, withheld, extra, out)?;
        if let Some((_, w)) = self.tamper.filter(|&(round, _)| round == self.rounds) {
            let answer = out[first + w].as_mut().expect("tampering with an answer that arrived");
            answer.as_mut_slice()[0] += F25::ONE;
        }
        self.rounds += 1;
        self.withheld_seen.push(withheld.to_vec());
        let mut verifying: HashMap<usize, usize> = HashMap::new();
        for (w, job) in extra {
            if matches!(job, LinearJob::ConvWeightGrad { .. } | LinearJob::DenseWeightGrad { .. }) {
                let n = verifying.entry(w.0).or_insert(0);
                *n += 1;
                self.max_verifying = self.max_verifying.max(*n);
            }
        }
        Ok(())
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        self.inner.recycle_outputs(outputs);
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        self.inner.execute_on(id, job)
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
        self.inner.release_contexts(ctx_ids);
    }
}

fn probed(cfg: DarknightConfig, fleet: GpuCluster) -> DarknightSession<Probe<GpuCluster>> {
    DarknightSession::with_backend(cfg, Probe::new(fleet), EpcConfig::default()).expect("session")
}

// ---------------------------------------------------------------------
// GpuCluster
// ---------------------------------------------------------------------

/// (a) In every fleet position: the liar is convicted on the first
/// layer it lies on, and from then on its counters stand still while
/// inference and training keep producing the oracle's bits. Each
/// degraded layer still counts as one recovery.
#[test]
fn cluster_convicted_liar_is_sent_nothing_and_outputs_stay_exact() {
    let cfg = cfg(3);
    for liar in 0..cfg.workers_required() {
        let mut session =
            DarknightSession::new(cfg, lying_fleet(cfg, liar, Behavior::SingleElement, 40)).unwrap();
        let mut m = model(5);
        let y = session.private_inference(&mut m, &input(2, 0)).unwrap();
        assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, 0)).as_slice(), "liar {liar}");
        assert_eq!(session.quarantined(), [WorkerId(liar)]);
        let at_conviction = seen(session.cluster(), liar);
        assert_eq!(at_conviction.0, 1, "liar {liar}: convicted on its first lie");

        for step in 1..=4u64 {
            let x = input(2, step);
            let rec0 = session.stats().recoveries;
            if step % 2 == 0 {
                // Training stores encodings on the workers: the liar's
                // record of observations must not grow either.
                session.train_step(&mut m, &x, &[0, 2], &mut Sgd::new(0.05)).unwrap();
            } else {
                let y = session.private_inference(&mut m, &x).unwrap();
                assert_eq!(y.as_slice(), oracle(cfg, &m, &x).as_slice(), "liar {liar} step {step}");
                assert_eq!(
                    session.stats().recoveries - rec0,
                    LAYERS as u64,
                    "one recovery per layer whose result set needed a TEE-filled slot"
                );
            }
            assert_eq!(seen(session.cluster(), liar), at_conviction, "liar {liar} step {step}");
        }
        assert_eq!(session.quarantined(), [WorkerId(liar)]);
    }
}

/// (b) A second worker that starts lying after the first conviction is
/// detected, convicted, repaired — and then also sent nothing.
#[test]
fn cluster_second_liar_after_conviction_is_caught_too() {
    let cfg = cfg(7);
    let mut session =
        DarknightSession::new(cfg, lying_fleet(cfg, 1, Behavior::SingleElement, 41)).unwrap();
    let mut m = model(9);
    session.private_inference(&mut m, &input(2, 0)).unwrap();
    assert_eq!(session.quarantined(), [WorkerId(1)]);

    session.cluster_mut().worker_mut(WorkerId(3)).set_behavior(Behavior::AdditiveNoise);
    let before = seen(session.cluster(), 3);
    let y = session.private_inference(&mut m, &input(2, 1)).unwrap();
    assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, 1)).as_slice());
    assert_eq!(session.quarantined(), [WorkerId(1), WorkerId(3)]);
    assert_eq!(seen(session.cluster(), 3).0, before.0 + 1, "convicted on its first lie");

    let (first, second) = (seen(session.cluster(), 1), seen(session.cluster(), 3));
    let mut honest = DarknightSession::new(cfg, GpuCluster::honest(4, 41)).unwrap();
    let mut m_honest = m.clone();
    for step in 2..5u64 {
        session.train_step(&mut m, &input(2, step), &[1, 0], &mut Sgd::new(0.05)).unwrap();
        honest.train_step(&mut m_honest, &input(2, step), &[1, 0], &mut Sgd::new(0.05)).unwrap();
        assert_eq!(m.max_param_diff(&m_honest.snapshot_params()), 0.0, "step {step}");
    }
    assert_eq!(seen(session.cluster(), 1), first);
    assert_eq!(seen(session.cluster(), 3), second);
}

/// (b) Integrity is not weakened while degraded: a one-element tamper by
/// any healthy worker, on any layer of any degraded batch, is caught by
/// that layer's redundant equation (the only thing that can convict)
/// and the output is still exact.
#[test]
fn cluster_single_element_tamper_is_caught_on_every_degraded_layer() {
    let cfg = cfg(11);
    let liar = 1usize;
    for culprit in (0..cfg.workers_required()).filter(|&w| w != liar) {
        for batch in 1..3usize {
            for layer in 0..LAYERS {
                let mut session = probed(cfg, lying_fleet(cfg, liar, Behavior::SingleElement, 42));
                session.cluster_mut().tamper = Some((batch * LAYERS + layer, culprit));
                let mut m = model(13);
                for b in 0..3usize {
                    let x = input(2, b as u64);
                    let y = session.private_inference(&mut m, &x).unwrap();
                    assert_eq!(
                        y.as_slice(),
                        oracle(cfg, &m, &x).as_slice(),
                        "culprit {culprit} batch {batch} layer {layer}: output of batch {b}"
                    );
                    let caught = session.quarantined().contains(&WorkerId(culprit));
                    assert_eq!(
                        caught,
                        b >= batch,
                        "culprit {culprit}: tamper on batch {batch} layer {layer} must be \
                         caught in that batch, not before (seen after batch {b})"
                    );
                }
                // Routing follows each conviction from the next dispatch on.
                let tampered = batch * LAYERS + layer;
                for (round, withheld) in session.cluster().withheld_seen.iter().enumerate() {
                    let expect = usize::from(round > 0) + usize::from(round > tampered);
                    assert_eq!(withheld.len(), expect, "dispatch {round} withheld {withheld:?}");
                }
            }
        }
    }
}

/// (c) Recovery off: nothing routes, nothing repairs. Every batch fails
/// closed on the first lie, and the liar keeps being asked.
#[test]
fn cluster_without_recovery_fails_closed_on_every_batch() {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(17);
    let mut session = probed(cfg, lying_fleet(cfg, 2, Behavior::SingleElement, 43));
    let mut m = model(19);
    for b in 0..4u64 {
        let err = session.private_inference(&mut m, &input(2, b)).unwrap_err();
        assert!(matches!(err, DarknightError::IntegrityViolation { phase: "forward", .. }), "{err}");
        assert_eq!(seen(&session.cluster().inner, 2).0, b + 1, "the liar is asked again");
    }
    assert!(session.quarantined().is_empty());
    assert_eq!(session.stats().recoveries, 0);
    assert!(session.cluster().withheld_seen.iter().all(Vec::is_empty));
}

/// (d) `train_step` under a liar, in every position: weights land
/// bit-identical to the honest fleet; after conviction the liar gets no
/// `*Stored` job, no store and no duplicate-verification job; and no
/// healthy worker ever verifies more than one neighbour per layer.
#[test]
fn cluster_training_under_a_liar_matches_honest_fleet() {
    let cfg = cfg(23);
    let n = cfg.workers_required();
    for liar in 0..n {
        let mut session = probed(cfg, lying_fleet(cfg, liar, Behavior::Scale(3), 44));
        let mut honest = DarknightSession::new(cfg, GpuCluster::honest(n, 44)).unwrap();
        let (mut m, mut m_honest) = (model(29), model(29));
        let mut at_conviction = None;
        for step in 0..3u64 {
            let x = input(2, step);
            session.train_step(&mut m, &x, &[0, 2], &mut Sgd::new(0.05)).unwrap();
            honest.train_step(&mut m_honest, &x, &[0, 2], &mut Sgd::new(0.05)).unwrap();
            assert_eq!(
                m.max_param_diff(&m_honest.snapshot_params()),
                0.0,
                "liar {liar} step {step}: weights diverged from the honest fleet"
            );
            let now = seen(&session.cluster().inner, liar);
            // Convicted on the first forward layer: one store, one job.
            assert_eq!(*at_conviction.get_or_insert(now), now, "liar {liar} step {step}");
        }
        assert_eq!(at_conviction, Some((1, 1)));
        assert_eq!(session.quarantined(), [WorkerId(liar)]);
        let probe = session.cluster();
        assert!(probe.max_verifying <= 1, "liar {liar}: a worker verified {} neighbours", probe.max_verifying);
        assert!(probe.withheld_seen[1..].iter().all(|w| w == &[WorkerId(liar)]));
    }
}

/// (e) Loss is not lying: a worker that died is quarantined, but no
/// dispatch ever withholds from it.
#[test]
fn cluster_lost_worker_is_still_offered_work() {
    let cfg = cfg(31);
    let mut session = probed(cfg, lying_fleet(cfg, 2, Behavior::Crash { after: 1 }, 45));
    let mut m = model(37);
    for b in 0..3u64 {
        let y = session.private_inference(&mut m, &input(2, b)).unwrap();
        assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, b)).as_slice());
    }
    assert_eq!(session.quarantined(), [WorkerId(2)]);
    assert_eq!(session.cluster().withheld_seen.len(), 3 * LAYERS);
    assert!(session.cluster().withheld_seen.iter().all(Vec::is_empty));
}

// ---------------------------------------------------------------------
// PipelineEngine / dispatcher
// ---------------------------------------------------------------------

/// (a) + (d) on a 2-lane engine. Within one call each lane has to find
/// the liar out for itself; every later call starts its lanes with the
/// engine's convictions, so across three inference calls and three
/// training steps the liar is sent at most one job (and one encoding)
/// per lane — not one per lane per call.
#[test]
fn engine_lanes_inherit_convictions_across_calls() {
    let cfg = cfg(41);
    let lanes = 2;
    let liar = 1usize;
    let fleet = lying_fleet(cfg, liar, Behavior::SingleElement, 46);
    let opts = EngineOptions::default().with_lanes(lanes);

    // Inference: three calls of four batches.
    let m = model(43);
    let mut engine = PipelineEngine::new(cfg, fleet.fork(46), opts).unwrap();
    for call in 0..3u64 {
        let inputs: Vec<Tensor<f32>> = (0..4).map(|b| input(2, call * 4 + b)).collect();
        for (x, o) in inputs.iter().zip(engine.infer_batches(&m, &inputs, false).unwrap()) {
            assert_eq!(o.output.unwrap().as_slice(), oracle(cfg, &m, x).as_slice());
            assert!(o.repaired, "a batch with a TEE-filled slot still reports Repaired");
        }
    }
    assert_eq!(engine.quarantined(), [WorkerId(liar)]);
    let (jobs, _) = seen(&engine.into_cluster(), liar);
    assert!((1..=lanes as u64).contains(&jobs), "liar ran {jobs} jobs over three calls");

    // Training: three large-batch steps against the sequential trainer
    // on an honest fleet.
    let x = Tensor::from_fn(&[8, 2, 6, 6], |i| ((i % 13) as f32 - 6.0) * 0.07);
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    let mut engine = PipelineEngine::new(cfg, fleet.fork(46), opts).unwrap();
    let mut reference = LargeBatchTrainer::new(
        DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 46)).unwrap(),
        256,
    );
    let (mut m_pipe, mut m_ref) = (model(47), model(47));
    let (mut sgd_pipe, mut sgd_ref) = (Sgd::new(0.05), Sgd::new(0.05));
    for step in 0..3 {
        engine.train_large_batch(&mut m_pipe, &x, &labels, &mut sgd_pipe, 256).unwrap();
        reference.train_large_batch(&mut m_ref, &x, &labels, &mut sgd_ref).unwrap();
        assert_eq!(m_pipe.max_param_diff(&m_ref.snapshot_params()), 0.0, "step {step}");
    }
    assert_eq!(engine.quarantined(), [WorkerId(liar)]);
    let (jobs, stores) = seen(&engine.into_cluster(), liar);
    assert!((1..=lanes as u64).contains(&jobs), "liar ran {jobs} jobs over three steps");
    assert!(stores <= lanes, "liar was sent {stores} encodings over three steps");
}

/// A degraded layer on the dispatcher is still one submit/complete
/// round: with every worker modelled at 250 ms a job, a batch of two
/// layers takes about two job times, not two times `K+M` of them. (The
/// job time is that long so the 750 ms between the two outcomes dwarfs
/// any scheduling delay the other tests of this binary can cause.)
#[test]
fn dispatcher_degraded_layer_is_one_round() {
    let job_time = Duration::from_millis(250);
    let cfg = DarknightConfig::new(4, 1).with_integrity(true).with_recovery(true).with_seed(53);
    let healthy = cfg.workers_required() - 1;
    let fleet = lying_fleet(cfg, 1, Behavior::SingleElement, 47).with_latency(Some(LatencyModel {
        base_ns: job_time.as_nanos() as u64,
        ns_per_kmac: 0,
    }));
    let dispatcher = Arc::new(fleet.into_dispatcher(4));
    let mut session = DarknightSession::with_backend(
        cfg,
        DispatchClient::new(dispatcher.clone()),
        EpcConfig::default(),
    )
    .unwrap();
    let mut m = model(59);
    session.private_inference(&mut m, &input(4, 0)).unwrap();
    assert_eq!(session.quarantined(), [WorkerId(1)]);

    let t0 = Instant::now();
    let y = session.private_inference(&mut m, &input(4, 1)).unwrap();
    let took = t0.elapsed();
    assert_eq!(y.as_slice(), oracle(cfg, &m, &input(4, 1)).as_slice());
    assert!(took >= job_time * LAYERS as u32);
    assert!(
        took < job_time * (LAYERS * healthy) as u32 / 2,
        "a degraded batch took {took:?}: its {healthy} jobs per layer ran one after another"
    );
    drop(session);
    let (cluster, _) = Arc::try_unwrap(dispatcher).expect("session dropped").join();
    assert_eq!(seen(&cluster, 1).0, 1, "the liar ran only the job that convicted it");
}

// ---------------------------------------------------------------------
// TcpFleet
// ---------------------------------------------------------------------

/// A loopback worker host whose workers can lie or die, and which
/// counts what it is sent.
#[derive(Default)]
struct Host {
    /// Per-worker behaviour (by `Hello` id); honest if absent.
    behaviors: HashMap<u64, Behavior>,
    /// This worker's *first* connection swallows its n-th frame after
    /// the handshake and hangs up (a process killed mid-job).
    dies: Option<(u64, usize)>,
    /// Frames that carry work or data (`Run`, `Store`, and the replies),
    /// per worker. `Release` is bookkeeping broadcast to the whole
    /// fleet and is not counted.
    frames: Mutex<HashMap<u64, usize>>,
    connections: Mutex<HashMap<u64, usize>>,
    /// When non-zero, a `Run` is answered only once this many `Run`s of
    /// its layer have arrived: a fleet that waited for a reply before
    /// writing the next `Run` would stall into its I/O timeout.
    gate: AtomicUsize,
    arrived: Mutex<usize>,
    all_arrived: Condvar,
}

impl Host {
    fn spawn(self) -> (String, Arc<Host>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let host = Arc::new(self);
        let served = host.clone();
        // Detached: the accept loop lives as long as the test process.
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { return };
                let host = served.clone();
                std::thread::spawn(move || host.serve(stream));
            }
        });
        (addr, host)
    }

    fn frames_of(&self, worker: u64) -> usize {
        self.frames.lock().unwrap().get(&worker).copied().unwrap_or(0)
    }

    fn total_frames(&self) -> usize {
        self.frames.lock().unwrap().values().sum()
    }

    fn count(&self, worker: u64) -> usize {
        let mut frames = self.frames.lock().unwrap();
        let n = frames.entry(worker).or_insert(0);
        *n += 1;
        *n
    }

    /// Holds a `Run` until its whole layer has been written.
    fn wait_for_layer(&self) {
        let gate = self.gate.load(Ordering::SeqCst);
        if gate == 0 {
            return;
        }
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        let layer_end = (*arrived - 1) / gate * gate + gate;
        self.all_arrived.notify_all();
        // Bounded: a serial fleet shows up as its own I/O timeout (and
        // the quarantine that follows), not as a hung test.
        let _ = self
            .all_arrived
            .wait_timeout_while(arrived, Duration::from_secs(3), |a| *a < layer_end)
            .unwrap();
    }

    fn serve(&self, mut stream: TcpStream) {
        let Ok(WireMsg::Hello { worker_id, seed, .. }) = wire::read_msg(&mut stream) else {
            return;
        };
        let first_conn = {
            let mut conns = self.connections.lock().unwrap();
            let n = conns.entry(worker_id).or_insert(0);
            *n += 1;
            *n == 1
        };
        let behavior = self.behaviors.get(&worker_id).copied().unwrap_or(Behavior::Honest);
        let mut worker = GpuWorker::new(WorkerId(worker_id as usize), behavior, seed);
        if wire::write_msg(&mut stream, &WireMsg::HelloAck).is_err() {
            return;
        }
        let mut on_this_conn = 0usize;
        while let Ok(msg) = wire::read_msg(&mut stream) {
            if !matches!(msg, WireMsg::Release { .. }) {
                self.count(worker_id);
            }
            on_this_conn += 1;
            if first_conn && self.dies == Some((worker_id, on_this_conn)) {
                return;
            }
            match msg {
                WireMsg::Run { job } => {
                    self.wait_for_layer();
                    let reply = if worker.can_execute(&job) {
                        WireMsg::Output { tensor: worker.execute(&job) }
                    } else {
                        WireMsg::Fail { message: "no stored encoding".into() }
                    };
                    // Counted before it is written: the test reads the
                    // counters as soon as the fleet has the reply.
                    self.count(worker_id);
                    if wire::write_msg(&mut stream, &reply).is_err() {
                        return;
                    }
                }
                WireMsg::Store { ctx_id, tensor } => worker.store_encoding(ctx_id, tensor),
                WireMsg::Release { ctx_id } => worker.remove_encoding(ctx_id),
                _ => return,
            }
        }
    }
}

fn tcp_session(cfg: DarknightConfig, addr: &str) -> DarknightSession<TcpFleet> {
    let fleet = TcpFleet::from_manifest(&FleetManifest {
        workers: vec![addr.to_string(); cfg.workers_required()],
        io_timeout_ms: 2_000,
        ..FleetManifest::default()
    });
    DarknightSession::with_backend(cfg, fleet, EpcConfig::default()).unwrap()
}

/// (a) + (d) over the wire, and the batching condition: with one
/// convicted worker a layer moves exactly `2·(K+M)` frames, all `Run`s
/// written before the first reply is read (the host refuses to answer
/// any earlier), and the liar's connection goes silent — through
/// inference and a training step that lands the honest fleet's weights.
#[test]
fn tcp_convicted_liar_goes_silent_and_dispatch_stays_pipelined() {
    let cfg = cfg(61);
    let healthy = cfg.workers_required() - 1; // K + M
    let liar = 1u64;
    let (addr, host) =
        Host { behaviors: HashMap::from([(liar, Behavior::SingleElement)]), ..Host::default() }
            .spawn();
    let mut session = tcp_session(cfg, &addr);
    let mut local = DarknightSession::new(cfg, GpuCluster::honest(healthy + 1, 48)).unwrap();
    let (mut m, mut m_local) = (model(67), model(67));

    let y = session.private_inference(&mut m, &input(2, 0)).unwrap();
    assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, 0)).as_slice());
    assert_eq!(session.quarantined(), [WorkerId(liar as usize)]);
    local.private_inference(&mut m_local, &input(2, 0)).unwrap();
    let (liar_frames, total) = (host.frames_of(liar), host.total_frames());
    assert_eq!(liar_frames, 2, "one Run, one (lying) Output");

    // A degraded batch, with the host holding every reply back until
    // the layer's K+M Runs are all in.
    host.gate.store(healthy, Ordering::SeqCst);
    let rec0 = session.stats().recoveries;
    let y = session.private_inference(&mut m, &input(2, 1)).unwrap();
    host.gate.store(0, Ordering::SeqCst);
    assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, 1)).as_slice());
    local.private_inference(&mut m_local, &input(2, 1)).unwrap();
    assert_eq!(session.quarantined(), [WorkerId(liar as usize)], "nobody stalled into a timeout");
    assert_eq!(session.stats().recoveries - rec0, LAYERS as u64);
    assert_eq!(host.total_frames() - total, LAYERS * 2 * healthy, "2·(K+M) frames per layer");
    assert_eq!(host.frames_of(liar), liar_frames);

    // Training: no Store, no `*Stored` job, no duplicate check.
    session.train_step(&mut m, &input(2, 2), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    local.train_step(&mut m_local, &input(2, 2), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    assert_eq!(m.max_param_diff(&m_local.snapshot_params()), 0.0);
    assert_eq!(host.frames_of(liar), liar_frames, "the liar was sent no work and no data");
    assert_eq!(session.cluster().reconnects(), 0);
}

/// (e) Over the wire, loss keeps today's behaviour: the worker whose
/// process died mid-job is quarantined and its row repaired, but it is
/// offered the very next layer, the redial re-admits it, and later
/// batches use its answers (no further recoveries).
#[test]
fn tcp_lost_worker_is_offered_work_and_readmitted_after_redial() {
    let cfg = cfg(71);
    let victim = 2u64;
    let (addr, host) = Host { dies: Some((victim, 1)), ..Host::default() }.spawn();
    let mut session = tcp_session(cfg, &addr);
    let mut m = model(73);

    let y = session.private_inference(&mut m, &input(2, 0)).unwrap();
    assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, 0)).as_slice());
    assert_eq!(session.quarantined(), [WorkerId(victim as usize)]);
    assert_eq!(session.stats().recoveries, 1, "only the layer it died on needed repair");
    assert_eq!(session.cluster().reconnects(), 1, "redialed for the next layer");
    let after_first = host.frames_of(victim);
    assert_eq!(after_first, 1 + 2, "the swallowed Run, then a served one");

    for b in 1..3u64 {
        let y = session.private_inference(&mut m, &input(2, b)).unwrap();
        assert_eq!(y.as_slice(), oracle(cfg, &m, &input(2, b)).as_slice());
    }
    assert_eq!(session.stats().recoveries, 1, "re-admitted: its answers are used again");
    assert_eq!(host.frames_of(victim), after_first + 2 * 2 * LAYERS);
    assert_eq!(session.quarantined(), [WorkerId(victim as usize)]);
}
