//! What the protocol round books and refuses: per-worker occupancy, fault
//! kinds and backward convictions reach `dk_obs`'s fleet health, and a
//! backend that appends fewer replies than the round has slots is a
//! typed fault, not a panic.
//!
//! Runs as its own integration binary: the fleet health table and the
//! observability switch are process-global. Each test books its faults
//! onto workers no other test here touches; occupancy, which every test
//! books, is read as increases.

use dk_core::{DarknightConfig, DarknightError, DarknightSession};
use dk_field::F25;
use dk_gpu::{Behavior, GpuCluster, GpuError, GpuExec, LinearJob, WorkerId, WorkerResult};
use dk_linalg::Tensor;
use dk_nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use dk_nn::loss::softmax_cross_entropy;
use dk_nn::Sequential;

const LABELS: [usize; 2] = [0, 2];

fn model() -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(dk_linalg::Conv2dShape::simple(2, 4, 3, 1, 1), 5)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, 6)),
    ])
}

fn input() -> Tensor<f32> {
    Tensor::from_fn(&[2, 2, 6, 6], |i| ((i % 13) as f32 - 6.0) * 0.07)
}

fn cfg(recovery: bool) -> DarknightConfig {
    DarknightConfig::new(2, 1).with_integrity(true).with_recovery(recovery).with_seed(12)
}

fn health(worker: usize) -> dk_obs::WorkerHealth {
    let snapshot = dk_obs::fleet().snapshot();
    snapshot.into_iter().find(|w| w.worker == worker).expect("the worker was booked")
}

/// A forward and a backward pass; the gradients they leave.
fn step<X: GpuExec>(
    session: &mut DarknightSession<X>,
    model: &mut Sequential,
    between: impl FnOnce(&mut DarknightSession<X>),
) -> Result<Vec<f32>, DarknightError> {
    model.zero_grad();
    let logits = session.private_forward(model, &input(), true)?;
    let (_, dlogits) = softmax_cross_entropy(&logits, &LABELS);
    between(session);
    session.private_backward(model, &dlogits)?;
    Ok(model.grad_vector())
}

#[test]
fn a_crashed_worker_is_booked_as_lost() {
    dk_obs::enable();
    let crasher = 3;
    let mut behaviors = vec![Behavior::Honest; cfg(true).workers_required()];
    behaviors[crasher] = Behavior::Crash { after: 1 };
    let cluster = GpuCluster::with_behaviors(&behaviors, 7);
    let mut session = DarknightSession::new(cfg(true), cluster).unwrap();
    let mut model = model();
    for _ in 0..2 {
        session.private_inference(&mut model, &input()).unwrap();
    }
    assert!(session.quarantined().contains(&WorkerId(crasher)));
    // Faults are indexed like `FaultKind`, `WorkerLost` first.
    assert!(health(crasher).faults[0] > 0, "{}", dk_obs::fleet().render_table());
}

/// With `dk_obs` on, a session over the inline `GpuCluster` books each
/// job's occupancy on the health cell of the worker that ran it, as the
/// dispatcher's worker threads do. (Other tests here book onto the same
/// workers, so this one reads increases.)
#[test]
fn an_inline_round_books_every_workers_occupancy() {
    dk_obs::enable();
    let booked = |snapshot: &[dk_obs::WorkerHealth], worker: usize| {
        snapshot.iter().find(|w| w.worker == worker).map_or((0, 0), |w| (w.jobs, w.busy_ns))
    };
    let before = dk_obs::fleet().snapshot();
    let mut session = DarknightSession::new(cfg(false), GpuCluster::honest(4, 9)).unwrap();
    session.private_inference(&mut model(), &input()).unwrap();
    for w in session.cluster().workers() {
        let (jobs, busy_ns) = booked(&before, w.id().0);
        let now = health(w.id().0);
        assert!(w.jobs_executed() > 0, "the round used {}", w.id());
        assert!(now.jobs >= jobs + w.jobs_executed(), "{}", dk_obs::fleet().render_table());
        assert!(now.busy_ns > busy_ns, "{}", dk_obs::fleet().render_table());
    }
}

#[test]
fn a_liar_convicted_by_the_backward_round_is_booked_as_repaired() {
    dk_obs::enable();
    let liar = 1;
    let honest = {
        let mut session =
            DarknightSession::new(cfg(true), GpuCluster::honest(4, 8)).unwrap();
        step(&mut session, &mut model(), |_| {}).unwrap()
    };
    let mut session = DarknightSession::new(cfg(true), GpuCluster::honest(4, 8)).unwrap();
    let turn = |s: &mut DarknightSession| {
        s.cluster_mut().worker_mut(WorkerId(liar)).set_behavior(Behavior::SingleElement);
    };
    let grads = step(&mut session, &mut model(), turn).unwrap();
    assert_eq!(grads, honest, "the backward round repairs the lie");
    assert!(session.quarantined().contains(&WorkerId(liar)));
    assert!(health(liar).repairs >= 1, "{}", dk_obs::fleet().render_table());
}

/// A backend that, once `on`, drops the last reply of every round: a
/// broken `GpuExec` contract.
struct DropsLastReply {
    inner: GpuCluster,
    on: bool,
}

impl GpuExec for DropsLastReply {
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
        self.inner.execute_round_into(tag, jobs, withheld, extra, out)?;
        if self.on {
            out.pop();
        }
        Ok(())
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        self.inner.execute_on(id, job)
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.inner.store_encodings(ctx_id, encodings);
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        self.inner.release_contexts(ctx_ids);
    }
}

fn is_short_round(err: &DarknightError, half: &str) -> bool {
    matches!(err, DarknightError::GpuFault { phase, fault: GpuError::Protocol { .. }, .. } if *phase == half)
}

#[test]
fn a_round_short_of_replies_is_a_typed_protocol_fault_in_both_halves() {
    for recovery in [false, true] {
        let session = |on| {
            let backend = DropsLastReply { inner: GpuCluster::honest(4, 9), on };
            DarknightSession::with_backend(cfg(recovery), backend, Default::default()).unwrap()
        };
        let err = session(true).private_inference(&mut model(), &input()).unwrap_err();
        assert!(is_short_round(&err, "forward"), "recovery {recovery}: {err}");
        // Backward alone: the forward pass runs on an intact fleet.
        let err = step(&mut session(false), &mut model(), |s| s.cluster_mut().on = true);
        assert!(is_short_round(&err.unwrap_err(), "backward"), "recovery {recovery}");
    }
}
