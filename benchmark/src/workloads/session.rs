//! The three closed-loop session workloads: `infer_direct`,
//! `infer_repair`, `infer_tcp`. One caller, one virtual batch in
//! flight; an operation is one `private_inference` call.

use super::{
    bits_eq, closed_loop, err, timed_call, Counters, Finish, Instance, Spec, Window, WorkloadId,
};
use crate::gen;
use crate::trace::TimedExec;
use dk_core::{DarknightSession, QuantizedReference, StepPlan};
use dk_gpu::{
    serve_fleet_worker, Behavior, FleetManifest, GpuCluster, GpuExec, TcpFleet, WorkerId,
};
use dk_linalg::Tensor;
use dk_nn::Sequential;
use dk_tee::EpcConfig;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct virtual batches a run cycles through.
const POOL: usize = 16;
/// `infer_repair`: the worker that corrupts one element of every output.
pub const LIAR: usize = 1;

/// Inputs of a session workload and what the oracle expects for them.
#[derive(Debug)]
pub struct SessionInputs {
    /// Which of the three.
    pub id: WorkloadId,
    /// The run's seed (the program only sees what is derived here).
    pub seed: u64,
    /// Sizing.
    pub spec: Spec,
    /// The model, freshly initialised.
    pub model: Sequential,
    /// Virtual batches `[K, 3, hw, hw]`.
    pub batches: Vec<Tensor<f32>>,
    /// `QuantizedReference::forward` of each batch.
    pub expected: Vec<Tensor<f32>>,
}

impl SessionInputs {
    /// Generates the pool and its expected outputs.
    pub fn generate(id: WorkloadId, seed: u64) -> Result<Self, String> {
        let spec = id.spec();
        let model = spec.build_model(seed);
        let batches = gen::tensors(seed, POOL, &spec.batch_shape());
        let mut reference = QuantizedReference::new(spec.k, spec.config(seed).quant());
        let mut oracle_model = model.clone();
        let expected = batches
            .iter()
            .map(|x| reference.forward(&mut oracle_model, x, false).map_err(err))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            id,
            seed,
            spec,
            model,
            batches,
            expected,
        })
    }
}

/// A backend the harness can also tear down.
pub trait Backend: GpuExec {
    /// Tells remote worker processes to stop (no-op in process).
    fn shutdown(&mut self) {}
    /// Transport reconnects so far.
    fn reconnects(&self) -> Option<u64> {
        None
    }
}

impl Backend for GpuCluster {}

impl Backend for TcpFleet {
    fn shutdown(&mut self) {
        TcpFleet::shutdown(self);
    }
    fn reconnects(&self) -> Option<u64> {
        Some(TcpFleet::reconnects(self))
    }
}

impl<X: Backend> Backend for TimedExec<X> {
    fn shutdown(&mut self) {
        self.inner_mut().shutdown();
    }
    fn reconnects(&self) -> Option<u64> {
        self.inner().reconnects()
    }
}

/// A session workload, set up.
pub struct SessionRun<'a, X: Backend> {
    inputs: &'a SessionInputs,
    session: DarknightSession<X>,
    model: Sequential,
    /// The in-process `serve_fleet_worker` accept loop (`infer_tcp`).
    remote: Option<JoinHandle<std::io::Result<()>>>,
    next: usize,
    ops: u64,
}

impl<'a, X: Backend> SessionRun<'a, X> {
    fn new(
        inputs: &'a SessionInputs,
        backend: X,
        remote: Option<JoinHandle<std::io::Result<()>>>,
    ) -> Result<Self, String> {
        let cfg = inputs.spec.config(inputs.seed);
        let model = inputs.model.clone();
        let mut session =
            DarknightSession::with_backend(cfg, backend, EpcConfig::default()).map_err(err)?;
        // Inference weights are frozen: quantize them once, as the
        // engine and `dk_serve` do, so the warm step allocates nothing.
        let plan = StepPlan::extract(&model, cfg.quant()).map_err(err)?;
        session.set_step_plan(Some(Arc::new(plan)));
        let mut run = Self {
            inputs,
            session,
            model,
            remote,
            next: 0,
            ops: 0,
        };
        let mut first = Window::default();
        run.op(&mut first, Instant::now());
        if first.failed > 0 {
            run.teardown();
            return Err(format!(
                "{}: first operation failed its check",
                inputs.id.name()
            ));
        }
        Ok(run)
    }

    /// Stops the remote accept loop, if there is one, and waits for it.
    fn teardown(&mut self) -> Option<String> {
        self.session.cluster_mut().shutdown();
        match self.remote.take()?.join() {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(format!("fleet worker loop: {e}")),
            Err(_) => Some("fleet worker loop panicked".into()),
        }
    }

    /// One operation: a private inference over the next pooled batch,
    /// compared with the oracle after the clock has stopped.
    fn op(&mut self, w: &mut Window, window_start: Instant) {
        let i = self.next;
        self.next = (self.next + 1) % self.inputs.batches.len();
        self.ops += 1;
        let call = timed_call(self.ops, || {
            self.session
                .private_inference(&mut self.model, &self.inputs.batches[i])
        });
        let ok = call
            .out
            .as_ref()
            .is_ok_and(|y| bits_eq(y, &self.inputs.expected[i]));
        w.book(
            &call,
            window_start,
            if ok {
                self.inputs.spec.samples_per_op
            } else {
                0
            },
            true,
        );
        if let Ok(y) = call.out {
            self.session.recycle_output(y);
        }
    }
}

impl<X: Backend> Instance for SessionRun<'_, X> {
    fn run(&mut self, dur: Duration) -> Window {
        closed_loop(dur, |w, start| self.op(w, start))
    }

    fn counters(&self) -> Counters {
        Counters {
            session: Some(self.session.stats()),
            enclave: Some(self.session.enclave_stats()),
            workspace_misses: Some(self.session.workspace_stats().misses),
            reconnects: self.session.cluster().reconnects(),
            quarantined: self.session.quarantined().iter().map(|w| w.0).collect(),
            ..Counters::default()
        }
    }

    fn finish(mut self: Box<Self>) -> Finish {
        let mut fin = Finish::default();
        if self.inputs.id == WorkloadId::InferRepair {
            let stats = self.session.stats();
            if stats.recoveries == 0 || self.session.quarantined() != [WorkerId(LIAR)] {
                fin.error = Some(format!(
                    "infer_repair: {} recoveries, quarantined {:?}; expected worker {LIAR} caught",
                    stats.recoveries,
                    self.session.quarantined()
                ));
            }
        }
        if let Some(e) = self.teardown() {
            fin.error = Some(e);
        }
        fin
    }
}

/// Logical workers of the loopback fleet (`K + M + 1`).
fn fleet_size(spec: &Spec, seed: u64) -> usize {
    spec.config(seed).workers_required()
}

fn boxed<'a, X: Backend + 'a>(
    inputs: &'a SessionInputs,
    backend: X,
    remote: Option<JoinHandle<std::io::Result<()>>>,
    traced: bool,
) -> Result<Box<dyn Instance + 'a>, String> {
    Ok(if traced {
        Box::new(SessionRun::new(inputs, TimedExec::new(backend), remote)?)
    } else {
        Box::new(SessionRun::new(inputs, backend, remote)?)
    })
}

/// Builds fleet and session and runs the first verified operation.
pub fn setup(
    id: WorkloadId,
    inputs: &SessionInputs,
    traced: bool,
) -> Result<Box<dyn Instance + '_>, String> {
    let spec = &inputs.spec;
    let n = fleet_size(spec, inputs.seed);
    let fleet_seed = spec.fleet_seed(inputs.seed);
    match id {
        WorkloadId::InferDirect => boxed(inputs, GpuCluster::honest(n, fleet_seed), None, traced),
        WorkloadId::InferRepair => {
            let mut behaviors = vec![Behavior::Honest; n];
            behaviors[LIAR] = Behavior::SingleElement;
            boxed(
                inputs,
                GpuCluster::with_behaviors(&behaviors, fleet_seed),
                None,
                traced,
            )
        }
        WorkloadId::InferTcp => {
            let (fleet, remote) = loopback_fleet(n, fleet_seed)?;
            boxed(inputs, fleet, Some(remote), traced)
        }
        _ => Err(format!("{} is not a session workload", id.name())),
    }
}

/// The same model and inputs on an honest in-process fleet, traced:
/// the reference `infer_tcp`'s backend time is compared with.
pub fn setup_in_process(inputs: &SessionInputs) -> Result<Box<dyn Instance + '_>, String> {
    let fleet = GpuCluster::honest(
        fleet_size(&inputs.spec, inputs.seed),
        inputs.spec.fleet_seed(inputs.seed),
    );
    boxed(inputs, fleet, None, true)
}

/// A `TcpFleet` of `n` logical workers dialled at one in-process
/// `serve_fleet_worker` accept loop on a loopback port.
pub fn loopback_fleet(
    n: usize,
    seed: u64,
) -> Result<(TcpFleet, JoinHandle<std::io::Result<()>>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let remote = std::thread::Builder::new()
        .name("fleet-worker".into())
        .spawn(move || serve_fleet_worker(listener))
        .map_err(err)?;
    let manifest = FleetManifest {
        workers: vec![addr.to_string(); n],
        seed,
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    };
    Ok((TcpFleet::from_manifest(&manifest), remote))
}
