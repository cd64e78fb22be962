//! A backward layer is one dispatch round: the `K+M` `*Stored`
//! weight-gradient jobs, the explicit recomputation that checks them and
//! both copies of the data-gradient job go to the fleet together, and the
//! TEE waits once.
//!
//! Pinned here:
//!
//! * (a) exactness — per-layer weight gradients, the data gradient and
//!   the loss are bit-equal on `GpuCluster`, `DispatchClient` and a
//!   loopback `TcpFleet`, and equal to `QuantizedReference`, recovery on
//!   and off;
//! * (b) integrity — a one-element tamper in each backward role is caught
//!   exactly as the sequential checks caught it, and 100 honest seeds
//!   never trip them;
//! * (c) faults — a crash or a reply timeout in each role is repaired
//!   bit-identically with recovery and fails closed, typed, without;
//! * (d) one backend call per layer per pass, and none that blocks on a
//!   single job;
//! * (e) over TCP, a round with two jobs for one worker and payloads
//!   larger than the loopback socket buffers completes;
//! * a `*Stored` job whose context never reached the worker costs one
//!   repaired slot, never the worker.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use darknight::core::{DarknightConfig, DarknightError, DarknightSession, QuantizedReference};
use darknight::field::F25;
use darknight::gpu::wire::{self, WireMsg};
use darknight::gpu::{
    serve_fleet_worker, Behavior, DispatchClient, FleetManifest, GpuCluster, GpuError, GpuExec,
    GpuWorker, LinearJob, TcpFleet, WorkerId, WorkerResult,
};
use darknight::linalg::{Conv2dShape, Tensor};
use darknight::nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use darknight::nn::loss::softmax_cross_entropy;
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;
use darknight::tee::EpcConfig;

/// Offloaded linear layers of [`model`].
const LAYERS: usize = 2;
const LABELS: [usize; 2] = [0, 2];

fn model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, seed ^ 1)),
    ])
}

fn input(seed: u64) -> Tensor<f32> {
    Tensor::from_fn(&[2, 2, 6, 6], |i| (((i as u64 * 31 + seed * 7) % 17) as f32 - 8.0) * 0.06)
}

fn cfg(recovery: bool, seed: u64) -> DarknightConfig {
    DarknightConfig::new(2, 1).with_integrity(true).with_recovery(recovery).with_seed(seed)
}

/// What one slot of a backward round is for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// Worker `j`'s `*Stored` weight-gradient job.
    Stored(usize),
    /// The `i`-th explicit weight-gradient recomputation: the spot check
    /// (recovery off) or one link of the duplicate ring (recovery on).
    Checker(usize),
    DataPrimary,
    DataDuplicate,
}

/// The backward roles a `K = 2, M = 1` round has.
fn roles(recovery: bool) -> Vec<Role> {
    let checkers = if recovery { 3 } else { 1 };
    (0..3)
        .map(Role::Stored)
        .chain((0..checkers).map(Role::Checker))
        .chain([Role::DataPrimary, Role::DataDuplicate])
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Inject {
    /// Flip one element of the answer.
    Tamper,
    /// The answer never arrives: the worker is gone.
    Lost,
    /// The answer never arrives: the reply deadline passed.
    Timeout,
}

/// A backend wrapper that counts the calls a session makes and can alter
/// the outcome of one slot of one backward round, as the TEE sees it.
struct Probe<X: GpuExec> {
    inner: X,
    /// Calls that dispatch a layer's jobs.
    dispatches: usize,
    /// Of those, rounds with addressed jobs: backward layers.
    backward_rounds: usize,
    /// Calls that block on one job.
    blocking: usize,
    /// `(backward round, role, what)`.
    inject: Option<(usize, Role, Inject)>,
    /// The worker whose slot was altered.
    injected: Option<WorkerId>,
    /// Encodings are never stored on this worker.
    drop_stores_of: Option<WorkerId>,
}

impl<X: GpuExec> Probe<X> {
    fn new(inner: X) -> Self {
        Self {
            inner,
            dispatches: 0,
            backward_rounds: 0,
            blocking: 0,
            inject: None,
            injected: None,
            drop_stores_of: None,
        }
    }
}

/// The slot of `role` in a round, and the worker it was addressed to.
fn find_slot(
    role: Role,
    jobs: &[LinearJob],
    extra: &[(WorkerId, &LinearJob)],
) -> Option<(usize, WorkerId)> {
    let is_check =
        |j: &LinearJob| matches!(j, LinearJob::ConvWeightGrad { .. } | LinearJob::DenseWeightGrad { .. });
    let nth = |want_check: bool, n: usize| {
        extra
            .iter()
            .enumerate()
            .filter(|(_, (_, job))| is_check(job) == want_check)
            .nth(n)
            .map(|(i, &(w, _))| (jobs.len() + i, w))
    };
    match role {
        Role::Stored(j) => (j < jobs.len()).then_some((j, WorkerId(j))),
        Role::Checker(i) => nth(true, i),
        Role::DataPrimary => nth(false, 0),
        Role::DataDuplicate => nth(false, 1),
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
        self.dispatches += 1;
        let first = out.len();
        self.inner.execute_round_into(tag, jobs, withheld, extra, out)?;
        // A forward round has no addressed part; only backward rounds
        // are numbered and injected into.
        if extra.is_empty() {
            return Ok(());
        }
        let round = self.backward_rounds;
        self.backward_rounds += 1;
        if let Some((_, role, what)) = self.inject.filter(|&(at, ..)| at == round) {
            if let Some((slot, worker)) = find_slot(role, jobs, extra) {
                self.injected = Some(worker);
                let answer = &mut out[first + slot];
                match what {
                    Inject::Tamper => {
                        answer.as_mut().expect("an answer to tamper with").as_mut_slice()[0] +=
                            F25::ONE;
                    }
                    Inject::Lost => *answer = Err(GpuError::lost(worker, "injected")),
                    Inject::Timeout => *answer = Err(GpuError::Timeout { worker, waited_ms: 1 }),
                }
            }
        }
        Ok(())
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        self.inner.recycle_outputs(outputs);
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        self.blocking += 1;
        self.inner.execute_on(id, job)
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.store_encodings_sparse(ctx_id, encodings, &[]);
    }

    fn store_encodings_sparse(
        &mut self,
        ctx_id: u64,
        encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        let skip: Vec<WorkerId> = withheld.iter().copied().chain(self.drop_stores_of).collect();
        self.inner.store_encodings_sparse(ctx_id, encodings, &skip);
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        self.inner.release_contexts(ctx_ids);
    }
}

fn probed(cfg: DarknightConfig, fleet_seed: u64) -> DarknightSession<Probe<GpuCluster>> {
    let fleet = GpuCluster::honest(cfg.workers_required(), fleet_seed);
    DarknightSession::with_backend(cfg, Probe::new(fleet), EpcConfig::default()).expect("session")
}

/// The weights one honest `train_step` on `input(seed)` lands.
fn honest_step(cfg: DarknightConfig, seed: u64) -> Vec<Tensor<f32>> {
    let mut m = model(seed);
    DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 1))
        .unwrap()
        .train_step(&mut m, &input(seed), &LABELS, &mut Sgd::new(0.05))
        .expect("honest step");
    m.snapshot_params()
}

fn spawn_worker_host() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || serve_fleet_worker(listener));
    addr
}

fn tcp_fleet(addr: &str, workers: usize) -> TcpFleet {
    TcpFleet::from_manifest(&FleetManifest {
        workers: vec![addr.to_string(); workers],
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    })
}

// ---------------------------------------------------------------------
// (a) Exactness on every backend
// ---------------------------------------------------------------------

/// Loss, every parameter gradient and the data gradient of one pass, as
/// bit patterns.
#[derive(Debug, PartialEq)]
struct Pass {
    loss: u32,
    grads: Vec<Vec<u32>>,
    dx: Vec<u32>,
}

fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn grads_of(m: &mut Sequential) -> Vec<Vec<u32>> {
    let mut grads = Vec::new();
    m.visit_params(&mut |_, g| grads.push(bits(g)));
    grads
}

fn private_pass<X: GpuExec>(s: &mut DarknightSession<X>, m: &mut Sequential, x: &Tensor<f32>) -> Pass {
    m.zero_grad();
    s.begin_virtual_batch();
    let logits = s.private_forward(m, x, true).expect("forward");
    let (loss, dl) = softmax_cross_entropy(&logits, &LABELS);
    let dx = s.private_backward(m, &dl).expect("backward");
    Pass { loss: loss.to_bits(), grads: grads_of(m), dx: bits(&dx) }
}

fn reference_pass(cfg: DarknightConfig, m: &mut Sequential, x: &Tensor<f32>) -> Pass {
    m.zero_grad();
    let mut reference = QuantizedReference::new(cfg.k(), cfg.quant());
    let logits = reference.forward(m, x, true).expect("reference forward");
    let (loss, dl) = softmax_cross_entropy(&logits, &LABELS);
    let dx = reference.backward(m, &dl).expect("reference backward");
    Pass { loss: loss.to_bits(), grads: grads_of(m), dx: bits(&dx) }
}

#[test]
fn gradients_and_losses_are_bit_equal_on_every_backend_and_to_the_reference() {
    for recovery in [false, true] {
        let cfg = cfg(recovery, 5);
        let n = cfg.workers_required();
        let dispatcher = Arc::new(GpuCluster::honest(n, 2).into_dispatcher(4));
        let addr = spawn_worker_host();
        let mut on_cluster = DarknightSession::new(cfg, GpuCluster::honest(n, 2)).unwrap();
        let mut on_dispatcher = DarknightSession::with_backend(
            cfg,
            DispatchClient::new(dispatcher.clone()),
            EpcConfig::default(),
        )
        .unwrap();
        let mut on_tcp =
            DarknightSession::with_backend(cfg, tcp_fleet(&addr, n), EpcConfig::default()).unwrap();
        for batch in 0..3u64 {
            let x = input(batch);
            let want = reference_pass(cfg, &mut model(7), &x);
            assert_eq!(want.grads.len(), 2 * LAYERS, "a weight and a bias gradient per layer");
            let what = format!("recovery {recovery}, batch {batch}");
            assert_eq!(private_pass(&mut on_cluster, &mut model(7), &x), want, "GpuCluster, {what}");
            assert_eq!(
                private_pass(&mut on_dispatcher, &mut model(7), &x),
                want,
                "DispatchClient, {what}"
            );
            assert_eq!(private_pass(&mut on_tcp, &mut model(7), &x), want, "TcpFleet, {what}");
        }
        for (quarantined, recoveries) in [
            (on_cluster.quarantined(), on_cluster.stats().recoveries),
            (on_dispatcher.quarantined(), on_dispatcher.stats().recoveries),
            (on_tcp.quarantined(), on_tcp.stats().recoveries),
        ] {
            assert!(quarantined.is_empty() && recoveries == 0, "an honest fleet needs no repair");
        }
        on_tcp.cluster_mut().shutdown();
    }
}

// ---------------------------------------------------------------------
// (b) Integrity in every backward role
// ---------------------------------------------------------------------

/// Recovery on: whichever slot of whichever backward round is tampered
/// with, the step is repaired — it lands the honest fleet's weights —
/// and exactly the worker that sent the tampered answer is convicted.
#[test]
fn tamper_in_each_role_is_repaired_and_convicts_the_right_worker() {
    let cfg = cfg(true, 11);
    let want = honest_step(cfg, 11);
    for round in 0..LAYERS {
        for role in roles(true) {
            let mut session = probed(cfg, 3);
            session.cluster_mut().inject = Some((round, role, Inject::Tamper));
            let mut m = model(11);
            session
                .train_step(&mut m, &input(11), &LABELS, &mut Sgd::new(0.05))
                .unwrap_or_else(|e| panic!("round {round} {role:?}: {e}"));
            assert_eq!(m.max_param_diff(&want), 0.0, "round {round} {role:?}");
            let liar = session.cluster().injected.expect("the role exists in the round");
            assert_eq!(session.quarantined(), [liar], "round {round} {role:?}");
            assert!(session.stats().recoveries > 0, "round {round} {role:?}: reported as repaired");
        }
    }
}

/// Recovery off: a tamper fails the step closed with no weight update —
/// in every role but one. The spot check is the paper's probabilistic
/// one: of the `K+M` `*Stored` answers only `Eq_{j*}` is recomputed, so
/// exactly one tampered position per layer is caught, and `j*` moves
/// with the seed.
#[test]
fn tamper_in_each_role_fails_closed_without_recovery() {
    let mut checked_positions = std::collections::BTreeSet::new();
    for seed in 0..6u64 {
        let cfg = cfg(false, seed);
        for round in 0..LAYERS {
            let mut caught_stored = Vec::new();
            for role in roles(false) {
                let mut session = probed(cfg, 4);
                session.cluster_mut().inject = Some((round, role, Inject::Tamper));
                let mut m = model(seed);
                let before = m.snapshot_params();
                let result = session.train_step(&mut m, &input(seed), &LABELS, &mut Sgd::new(0.05));
                let what = format!("seed {seed} round {round} {role:?}");
                match (role, result) {
                    // Away from `j*`: not recomputed, not noticed.
                    (Role::Stored(_), Ok(_)) => {}
                    (_, Ok(_)) => panic!("{what}: the tamper went through"),
                    (_, Err(DarknightError::IntegrityViolation { phase: "backward", .. })) => {
                        assert_eq!(m.max_param_diff(&before), 0.0, "{what}: weights moved");
                        if let Role::Stored(j) = role {
                            caught_stored.push(j);
                        }
                    }
                    (_, Err(e)) => panic!("{what}: {e}"),
                }
                assert!(session.quarantined().is_empty(), "{what}");
            }
            assert_eq!(caught_stored.len(), 1, "seed {seed} round {round}: one `j*` per layer");
            checked_positions.insert(caught_stored[0]);
        }
    }
    assert!(checked_positions.len() > 1, "`j*` never moved: {checked_positions:?}");
}

#[test]
fn honest_fleet_never_false_positives_across_100_seeds() {
    for seed in 0..100u64 {
        for recovery in [false, true] {
            let cfg = cfg(recovery, seed);
            let mut session =
                DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 3000 + seed))
                    .unwrap();
            session
                .train_step(&mut model(seed), &input(seed), &[1, 0], &mut Sgd::new(0.05))
                .unwrap_or_else(|e| panic!("seed {seed} recovery {recovery}: {e}"));
            assert!(session.quarantined().is_empty(), "seed {seed} recovery {recovery}");
            assert_eq!(session.stats().recoveries, 0, "seed {seed} recovery {recovery}");
            // One redundant-equation check and one backward check a layer.
            assert_eq!(session.stats().integrity_checks, 2 * LAYERS as u64);
        }
    }
}

// ---------------------------------------------------------------------
// (c) Faults in every backward role
// ---------------------------------------------------------------------

/// A reply that never arrives — worker gone, or deadline passed — in
/// each role, injected where the TEE reads the round's outcome.
#[test]
fn lost_or_late_reply_in_each_role_is_repaired_or_fails_closed_typed() {
    for what in [Inject::Lost, Inject::Timeout] {
        let is_expected = |fault: &GpuError| match what {
            Inject::Lost => matches!(fault, GpuError::WorkerLost { .. }),
            _ => matches!(fault, GpuError::Timeout { .. }),
        };
        for round in 0..LAYERS {
            // With recovery: quarantined, repaired, bit-identical.
            let with = cfg(true, 13);
            let want = honest_step(with, 13);
            for role in roles(true) {
                let mut session = probed(with, 5);
                session.cluster_mut().inject = Some((round, role, what));
                let mut m = model(13);
                session
                    .train_step(&mut m, &input(13), &LABELS, &mut Sgd::new(0.05))
                    .unwrap_or_else(|e| panic!("{what:?} round {round} {role:?}: {e}"));
                assert_eq!(
                    m.max_param_diff(&want),
                    0.0,
                    "{what:?} round {round} {role:?}"
                );
                let victim = session.cluster().injected.expect("the role exists in the round");
                assert_eq!(session.quarantined(), [victim], "{what:?} round {round} {role:?}");
                assert!(session.stats().recoveries > 0);
            }
            // Without: the typed fault, and no weight update.
            let without = cfg(false, 13);
            for role in roles(false) {
                let mut session = probed(without, 5);
                session.cluster_mut().inject = Some((round, role, what));
                let mut m = model(13);
                let before = m.snapshot_params();
                let err = session
                    .train_step(&mut m, &input(13), &LABELS, &mut Sgd::new(0.05))
                    .expect_err("an unverified step must not pass");
                match err {
                    DarknightError::GpuFault { phase: "backward", ref fault, .. }
                        if is_expected(fault) => {}
                    other => panic!("{what:?} round {round} {role:?}: {other}"),
                }
                assert_eq!(m.max_param_diff(&before), 0.0, "{what:?} round {round} {role:?}");
            }
        }
    }
}

/// `Behavior::Crash` for real, on the blocking cluster and on the
/// dispatcher's worker threads: every worker dies at its first, second
/// or third backward job (two forward jobs come first), which between
/// them covers every role a worker can hold.
#[test]
fn crash_in_each_role_is_repaired_or_fails_closed_never_a_panic() {
    fn step<X: GpuExec>(
        mut session: DarknightSession<X>,
        m: &mut Sequential,
    ) -> (Result<(), DarknightError>, Vec<WorkerId>) {
        let result = session.train_step(m, &input(17), &LABELS, &mut Sgd::new(0.05)).map(drop);
        (result, session.quarantined().to_vec())
    }
    for recovery in [true, false] {
        let cfg = cfg(recovery, 17);
        let n = cfg.workers_required();
        let want = honest_step(cfg, 17);
        for victim in 0..n {
            for after in 2..=4u64 {
                let mut behaviors = vec![Behavior::Honest; n];
                behaviors[victim] = Behavior::Crash { after };
                for dispatcher in [false, true] {
                    let fleet = GpuCluster::with_behaviors(&behaviors, 6);
                    let mut m = model(17);
                    let before = m.snapshot_params();
                    let (result, quarantined) = if dispatcher {
                        let client = DispatchClient::new(Arc::new(fleet.into_dispatcher(4)));
                        step(
                            DarknightSession::with_backend(cfg, client, EpcConfig::default()).unwrap(),
                            &mut m,
                        )
                    } else {
                        step(DarknightSession::new(cfg, fleet).unwrap(), &mut m)
                    };
                    let what = format!(
                        "recovery {recovery} victim {victim} after {after} dispatcher {dispatcher}"
                    );
                    match result {
                        Ok(()) => {
                            assert_eq!(m.max_param_diff(&want), 0.0, "{what}");
                            // A worker with at most `after` jobs in the
                            // step never got to die.
                            assert!(quarantined.iter().all(|&w| w == WorkerId(victim)), "{what}");
                            assert!(recovery || quarantined.is_empty(), "{what}");
                            assert!(after > 2 || !quarantined.is_empty(), "{what}");
                        }
                        Err(DarknightError::GpuFault { phase: "backward", fault, .. }) => {
                            assert!(!recovery, "{what}: recovery must repair {fault}");
                            assert!(matches!(fault, GpuError::WorkerLost { .. }), "{what}: {fault}");
                            assert_eq!(m.max_param_diff(&before), 0.0, "{what}: weights moved");
                        }
                        Err(e) => panic!("{what}: {e}"),
                    }
                }
            }
        }
    }
}

/// A `*Stored` job for a context the worker never received is a typed
/// refusal: the TEE repairs that one slot, the step lands the honest
/// weights, and the worker thread is still there to be joined.
#[test]
fn missing_context_costs_one_repaired_slot_not_the_worker() {
    let cfg = cfg(true, 19);
    let want = honest_step(cfg, 19);
    let dispatcher = Arc::new(GpuCluster::honest(cfg.workers_required(), 7).into_dispatcher(4));
    let mut probe = Probe::new(DispatchClient::new(dispatcher.clone()));
    probe.drop_stores_of = Some(WorkerId(1));
    let mut session = DarknightSession::with_backend(cfg, probe, EpcConfig::default()).unwrap();
    let mut m = model(19);
    session.train_step(&mut m, &input(19), &LABELS, &mut Sgd::new(0.05)).unwrap();
    assert_eq!(m.max_param_diff(&want), 0.0);
    assert_eq!(session.quarantined(), [WorkerId(1)]);
    drop(session);
    let (fleet, lost) = Arc::try_unwrap(dispatcher).expect("session dropped").join();
    assert!(lost.is_empty(), "a protocol gap must not kill the worker thread");
    assert!(fleet.worker(WorkerId(1)).jobs_executed() > 0);

    // Without recovery the same gap is the typed fault, not a panic.
    let cfg = cfg.with_recovery(false);
    let mut probe = Probe::new(GpuCluster::honest(cfg.workers_required(), 7));
    probe.drop_stores_of = Some(WorkerId(1));
    let mut session = DarknightSession::with_backend(cfg, probe, EpcConfig::default()).unwrap();
    let err = session.train_step(&mut model(19), &input(19), &LABELS, &mut Sgd::new(0.05)).unwrap_err();
    assert!(
        matches!(
            err,
            DarknightError::GpuFault {
                phase: "backward",
                fault: GpuError::Remote { worker: WorkerId(1), .. },
                ..
            }
        ),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// (d) One backend call per layer per pass
// ---------------------------------------------------------------------

#[test]
fn every_layer_pass_is_exactly_one_dispatch_round() {
    let modes = [
        DarknightConfig::new(2, 1).with_integrity(false),
        DarknightConfig::new(2, 1).with_integrity(true),
        DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true),
    ];
    for cfg in modes {
        let mut session = probed(cfg, 8);
        let mut m = model(23);
        session.private_inference(&mut m, &input(0)).unwrap();
        assert_eq!(session.cluster().dispatches, LAYERS, "{cfg:?}: one per forward layer");
        for step in 1..=3usize {
            session.train_step(&mut m, &input(step as u64), &LABELS, &mut Sgd::new(0.05)).unwrap();
            let probe = session.cluster();
            assert_eq!(probe.dispatches, LAYERS + step * 2 * LAYERS, "{cfg:?} step {step}");
            assert_eq!(probe.backward_rounds, step * LAYERS, "{cfg:?}: one per backward layer");
        }
        assert_eq!(session.cluster().blocking, 0, "{cfg:?}: no single-job round trip");
    }
}

// ---------------------------------------------------------------------
// (e) Two jobs for one worker, payloads larger than the socket buffers
// ---------------------------------------------------------------------

/// A loopback worker host that checks, each time it has read a `Run`,
/// that nothing is queued behind it on the connection: the fleet keeps
/// one job in flight per worker. Returns its address and the flag it
/// raises otherwise.
fn spawn_strict_host() -> (String, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let pipelined = Arc::new(AtomicBool::new(false));
    let flag = pipelined.clone();
    // Detached: the accept loop lives as long as the test process.
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { return };
            let flag = flag.clone();
            std::thread::spawn(move || {
                let Ok(WireMsg::Hello { worker_id, seed, .. }) = wire::read_msg(&mut stream) else {
                    return;
                };
                let mut worker = GpuWorker::new(WorkerId(worker_id as usize), Behavior::Honest, seed);
                if wire::write_msg(&mut stream, &WireMsg::HelloAck).is_err() {
                    return;
                }
                while let Ok(WireMsg::Run { job }) = wire::read_msg(&mut stream) {
                    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
                    if matches!(stream.peek(&mut [0u8; 1]), Ok(n) if n > 0) {
                        flag.store(true, Ordering::SeqCst);
                    }
                    stream.set_read_timeout(None).unwrap();
                    let reply = WireMsg::Output { tensor: worker.execute(&job) };
                    if wire::write_msg(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, pipelined)
}

/// 4 MiB each way per job, past the default socket buffers. A fleet
/// that wrote a worker's second job before reading the reply to its
/// first could block on that write while the worker blocks writing the
/// reply — so it must not, whatever the kernel's buffers happen to hold.
#[test]
fn tcp_round_with_two_large_jobs_for_one_worker_completes() {
    let shape = Conv2dShape::simple(2, 2, 1, 1, 0);
    let weights = Arc::new(Tensor::from_fn(&shape.weight_shape(), |i| F25::new(i as u64 + 1)));
    let big = |salt: u64| LinearJob::ConvForward {
        weights: weights.clone(),
        x: Tensor::from_fn(&[1, 2, 1024, 512], move |i| F25::new((i as u64).wrapping_mul(salt) % 9973)),
        shape,
    };
    let jobs = [big(3), big(5)];
    let second = big(7);
    let (addr, pipelined) = spawn_strict_host();
    let mut fleet = tcp_fleet(&addr, 2);
    let mut out = Vec::new();
    let extra = [(WorkerId(0), &second), (WorkerId(1), &jobs[0]), (WorkerId(0), &jobs[1])];
    fleet.execute_round_into(0, &jobs, &[], &extra, &mut out).unwrap();
    let want = [&jobs[0], &jobs[1], &second, &jobs[0], &jobs[1]];
    assert_eq!(out.len(), want.len());
    for (slot, (got, job)) in out.iter().zip(want).enumerate() {
        assert_eq!(got.as_ref().expect("no fault"), &job.execute(), "slot {slot}");
    }
    assert!(!pipelined.load(Ordering::SeqCst), "a second job was written behind an unanswered one");
    assert_eq!(fleet.reconnects(), 0);
}
