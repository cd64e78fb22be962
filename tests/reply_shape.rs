//! A worker reply of the wrong shape is a fault of that worker, never a
//! TEE panic.
//!
//! Nothing a worker sends is trusted, its tensor's shape included: the
//! session knows from the op's geometry what every reply of a round
//! must look like, and a reply that looks otherwise is booked exactly
//! like a lost worker — fail closed, typed, without recovery;
//! quarantine plus a TEE-filled slot (and bit-identical results) with
//! it. Pinned here for every reply slot of a forward and of a backward
//! round, on a conv and on a dense layer, and over loopback TCP for a
//! host that answers `Run` with a short `Output` frame.

use std::net::{TcpListener, TcpStream};

use darknight::core::{DarknightConfig, DarknightError, DarknightSession};
use darknight::field::F25;
use darknight::gpu::wire::{self, WireMsg};
use darknight::gpu::{
    serve_fleet_worker, Behavior, FleetManifest, GpuCluster, GpuError, GpuExec, GpuWorker,
    LinearJob, TcpFleet, WorkerId, WorkerResult,
};
use darknight::linalg::{Conv2dShape, Tensor};
use darknight::nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;
use darknight::tee::EpcConfig;

/// Offloaded linear layers of [`model`]: a conv, then a dense.
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

fn cfg(recovery: bool) -> DarknightConfig {
    DarknightConfig::new(2, 1).with_integrity(true).with_recovery(recovery).with_seed(9)
}

/// The same values, one element short, as a flat tensor.
fn one_short(t: &Tensor<F25>) -> Tensor<F25> {
    let keep = t.len() - 1;
    Tensor::from_vec(&[keep], t.as_slice()[..keep].to_vec())
}

/// A backend that hands back one reply of one round one element short.
struct Short {
    inner: GpuCluster,
    /// `(backward?, which round of that direction, reply slot)`.
    at: (bool, usize, usize),
    /// Rounds seen so far, forward and backward.
    seen: [usize; 2],
    /// The worker whose reply was shortened, and how many slots the
    /// round it happened in had.
    hit: Option<(WorkerId, usize)>,
}

impl GpuExec for Short {
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
        // A forward round has no addressed part.
        let backward = !extra.is_empty();
        let round = self.seen[usize::from(backward)];
        self.seen[usize::from(backward)] += 1;
        let (want_backward, want_round, slot) = self.at;
        if (backward, round) == (want_backward, want_round) && slot < out.len() - first {
            let worker = slot.checked_sub(jobs.len()).map_or(WorkerId(slot), |i| extra[i].0);
            let answer = out[first + slot].as_mut().expect("an honest fleet answers");
            *answer = one_short(answer);
            self.hit = Some((worker, out.len() - first));
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

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        self.inner.release_contexts(ctx_ids);
    }
}

/// The weights one honest `train_step` lands (recovery changes no bit).
fn honest_step() -> Vec<Tensor<f32>> {
    let cfg = cfg(true);
    let mut m = model(3);
    DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 1))
        .unwrap()
        .train_step(&mut m, &input(3), &LABELS, &mut Sgd::new(0.05))
        .expect("honest step");
    m.snapshot_params()
}

/// One `train_step` with the reply at `at` shortened. Returns the
/// step's outcome, the session, and the model it trained.
fn short_step(
    recovery: bool,
    at: (bool, usize, usize),
) -> (Result<(), DarknightError>, DarknightSession<Short>, Sequential) {
    let cfg = cfg(recovery);
    let inner = GpuCluster::honest(cfg.workers_required(), 1);
    let backend = Short { inner, at, seen: [0; 2], hit: None };
    let mut session =
        DarknightSession::with_backend(cfg, backend, EpcConfig::default()).expect("session");
    let mut m = model(3);
    let outcome = session.train_step(&mut m, &input(3), &LABELS, &mut Sgd::new(0.05)).map(|_| ());
    (outcome, session, m)
}

#[test]
fn a_short_reply_in_any_slot_of_any_round_is_a_fault_of_its_worker() {
    let want = honest_step();
    for backward in [false, true] {
        let phase = if backward { "backward" } else { "forward" };
        for round in 0..LAYERS {
            for recovery in [false, true] {
                // Slots past the round's last are never hit; the first
                // miss ends the sweep.
                for slot in 0.. {
                    let what = format!("{phase} round {round}, slot {slot}, recovery {recovery}");
                    let (outcome, session, mut m) = short_step(recovery, (backward, round, slot));
                    let Some((worker, slots)) = session.cluster().hit else {
                        // Forward: K+M+1 jobs. Backward: K+M stored jobs,
                        // their checkers and two data-gradient copies.
                        assert!(slot >= if backward { 6 } else { 4 }, "{what}: round too small");
                        outcome.expect("an untouched step succeeds");
                        break;
                    };
                    assert!(slot < slots);
                    if recovery {
                        outcome.unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(m.max_param_diff(&want), 0.0, "{what}: repaired bits");
                        assert_eq!(session.quarantined(), &[worker], "{what}");
                        assert!(session.stats().recoveries > 0, "{what}");
                    } else {
                        match outcome {
                            Err(DarknightError::GpuFault {
                                phase: got,
                                fault: GpuError::Protocol { .. },
                                ..
                            }) => assert_eq!(got, phase, "{what}"),
                            other => panic!("{what}: expected a typed protocol fault, got {other:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// Serves one worker connection like the real host, but answers every
/// `Run` with its output one element short.
fn short_connection(mut stream: TcpStream) {
    let Ok(WireMsg::Hello { worker_id, seed, .. }) = wire::read_msg(&mut stream) else {
        return;
    };
    let mut worker = GpuWorker::new(WorkerId(worker_id as usize), Behavior::Honest, seed);
    if wire::write_msg(&mut stream, &WireMsg::HelloAck).is_err() {
        return;
    }
    loop {
        match wire::read_msg(&mut stream) {
            Ok(WireMsg::Run { job }) => {
                let reply = WireMsg::Output { tensor: one_short(&worker.execute(&job)) };
                if wire::write_msg(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Ok(WireMsg::Store { ctx_id, tensor }) => worker.store_encoding(ctx_id, tensor),
            Ok(WireMsg::Release { ctx_id }) => worker.remove_encoding(ctx_id),
            _ => return,
        }
    }
}

#[test]
fn a_short_output_frame_over_tcp_is_served_around_or_fails_closed() {
    let healthy = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let healthy_addr = healthy.local_addr().unwrap().to_string();
    std::thread::spawn(move || serve_fleet_worker(healthy));
    let short = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let short_addr = short.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in short.incoming() {
            let Ok(stream) = conn else { return };
            std::thread::spawn(move || short_connection(stream));
        }
    });

    let victim = 1usize;
    let fleet = |cfg: DarknightConfig| {
        let mut workers = vec![healthy_addr.clone(); cfg.workers_required()];
        workers[victim] = short_addr.clone();
        TcpFleet::from_manifest(&FleetManifest {
            workers,
            io_timeout_ms: 10_000,
            ..FleetManifest::default()
        })
    };
    let want = DarknightSession::new(cfg(true), GpuCluster::honest(4, 1))
        .unwrap()
        .private_inference(&mut model(3), &input(3))
        .expect("honest inference");

    let mut repairing =
        DarknightSession::with_backend(cfg(true), fleet(cfg(true)), EpcConfig::default()).unwrap();
    let got = repairing.private_inference(&mut model(3), &input(3)).expect("served around");
    assert_eq!(got.as_slice(), want.as_slice(), "served bit-identically");
    assert_eq!(repairing.quarantined(), &[WorkerId(victim)]);
    assert_eq!(repairing.stats().recoveries, LAYERS as u64);

    let mut closed =
        DarknightSession::with_backend(cfg(false), fleet(cfg(false)), EpcConfig::default()).unwrap();
    match closed.private_inference(&mut model(3), &input(3)) {
        Err(DarknightError::GpuFault { phase: "forward", fault: GpuError::Protocol { .. }, .. }) => {}
        other => panic!("expected a typed protocol fault, got {other:?}"),
    }
    // One `Shutdown` ends a host for every connection it serves.
    drop(closed);
    repairing.cluster_mut().shutdown();
}
