//! The six workloads: what runs, how the load is offered, and the
//! oracle every output is checked against.
//!
//! Sizes are fixed here (`BENCHMARK.json` admits only a name and a
//! reason per workload). Every workload is also a check: outputs are
//! compared bit for bit with `dk_core::QuantizedReference`, outside the
//! timed latency of any operation.

pub mod serve;
pub mod session;
pub mod train;

use crate::stats::{ms, OpSample};
use crate::trace::{self, Kind};
use dk_core::session::SessionStats;
use dk_core::DarknightConfig;
use dk_field::derive_seed;
use dk_linalg::workspace::alloc_counts;
use dk_linalg::Tensor;
use dk_nn::Sequential;
use dk_tee::MemoryStats;
use std::time::{Duration, Instant};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Private inference on an in-process fleet, nothing around it.
    InferDirect,
    /// The same with one worker lying on every job.
    InferRepair,
    /// Private inference over a loopback `TcpFleet`.
    InferTcp,
    /// Algorithm 2 large-batch training on the pipelined engine.
    TrainPipelined,
    /// `dk_serve` with eight requests always outstanding.
    ServeSaturated,
    /// `dk_serve` under Poisson arrivals sparser than the batch wait.
    ServeSparse,
}

/// Every workload, in the order a set runs them.
pub const ALL: [WorkloadId; 6] = [
    WorkloadId::InferDirect,
    WorkloadId::InferRepair,
    WorkloadId::InferTcp,
    WorkloadId::TrainPipelined,
    WorkloadId::ServeSaturated,
    WorkloadId::ServeSparse,
];

/// The models the workloads run (`dk_nn::arch` mini models, 10 classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `mini_vgg`.
    Vgg,
    /// `mini_resnet`.
    Resnet,
    /// `mini_mobilenet`.
    Mobilenet,
}

/// The fixed sizing of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Virtual-batch size.
    pub k: usize,
    /// Noise vectors (collusion tolerance).
    pub m: usize,
    /// Model.
    pub model: ModelKind,
    /// Input is `3 x hw x hw`.
    pub hw: usize,
    /// Samples one operation completes.
    pub samples_per_op: usize,
    /// Recovery extension on (repair in the TEE instead of failing closed).
    pub recovery: bool,
}

/// Output classes of every model.
pub const CLASSES: usize = 10;
/// `serve_sparse`: mean arrival rate.
pub const SPARSE_RPS: usize = 200;
/// `serve_saturated`: requests the client keeps outstanding.
pub const OUTSTANDING: usize = 8;
/// `dk_serve`: aggregation deadline.
pub const MAX_BATCH_WAIT: Duration = Duration::from_millis(2);
/// `train_pipelined`: gradient shard size in elements (Algorithm 2).
pub const SHARD_ELEMS: usize = 4096;
/// `train_pipelined`: learning rate.
pub const LEARNING_RATE: f32 = 0.01;
/// `train_pipelined`: step losses compared with the sequential trainer.
pub const TRAIN_ORACLE_STEPS: usize = 8;

/// Seed-derivation labels.
const DOMAIN_MODEL: u64 = 0x4d4f_444c;
const DOMAIN_SESSION: u64 = 0x5345_5353;
const DOMAIN_FLEET: u64 = 0x464c_4545;

impl WorkloadId {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::InferDirect => "infer_direct",
            WorkloadId::InferRepair => "infer_repair",
            WorkloadId::InferTcp => "infer_tcp",
            WorkloadId::TrainPipelined => "train_pipelined",
            WorkloadId::ServeSaturated => "serve_saturated",
            WorkloadId::ServeSparse => "serve_sparse",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's sizing.
    pub fn spec(self) -> Spec {
        let (k, m, model, hw, samples_per_op) = match self {
            WorkloadId::InferDirect | WorkloadId::InferRepair => (4, 1, ModelKind::Vgg, 32, 4),
            WorkloadId::InferTcp => (4, 1, ModelKind::Mobilenet, 16, 4),
            WorkloadId::TrainPipelined => (2, 1, ModelKind::Resnet, 16, 8),
            WorkloadId::ServeSaturated | WorkloadId::ServeSparse => (4, 1, ModelKind::Vgg, 16, 1),
        };
        Spec {
            k,
            m,
            model,
            hw,
            samples_per_op,
            recovery: self == WorkloadId::InferRepair,
        }
    }

    /// Does the workload go through `dk_serve`?
    pub fn is_serve(self) -> bool {
        matches!(self, WorkloadId::ServeSaturated | WorkloadId::ServeSparse)
    }

    /// Is it one of the three closed-loop session workloads, where the
    /// backend can be wrapped in `TimedExec`?
    pub fn is_session(self) -> bool {
        matches!(
            self,
            WorkloadId::InferDirect | WorkloadId::InferRepair | WorkloadId::InferTcp
        )
    }
}

impl Spec {
    /// The session configuration: integrity on everywhere.
    pub fn config(&self, seed: u64) -> DarknightConfig {
        DarknightConfig::new(self.k, self.m)
            .with_integrity(true)
            .with_recovery(self.recovery)
            .with_seed(derive_seed(seed, DOMAIN_SESSION))
    }

    /// A freshly initialised model.
    pub fn build_model(&self, seed: u64) -> Sequential {
        let s = derive_seed(seed, DOMAIN_MODEL);
        match self.model {
            ModelKind::Vgg => dk_nn::arch::mini_vgg(self.hw, CLASSES, s),
            ModelKind::Resnet => dk_nn::arch::mini_resnet(self.hw, CLASSES, s),
            ModelKind::Mobilenet => dk_nn::arch::mini_mobilenet(self.hw, CLASSES, s),
        }
    }

    /// The fleet's seed.
    pub fn fleet_seed(&self, seed: u64) -> u64 {
        derive_seed(seed, DOMAIN_FLEET)
    }

    /// Shape of one sample.
    pub fn sample_shape(&self) -> [usize; 3] {
        [3, self.hw, self.hw]
    }

    /// Shape of one virtual batch.
    pub fn batch_shape(&self) -> [usize; 4] {
        [self.k, 3, self.hw, self.hw]
    }
}

/// Bit-for-bit equality of two float tensors (shape and every bit).
pub fn bits_eq(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one response of `dk_serve` looked like from outside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeObs {
    /// `Response::queue_wait`.
    pub queue_wait_ms: f64,
    /// `Response::service_time`.
    pub service_ms: f64,
    /// Submit call started → response observed.
    pub total_ms: f64,
    /// Time inside `ServerHandle::submit`.
    pub submit_us: f64,
    /// How late the open-loop sender ran for this request.
    pub late_ms: f64,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// One entry per operation attempted.
    pub samples: Vec<OpSample>,
    /// Operations that errored, were shed, or mismatched the oracle.
    pub failed: u64,
    /// Outputs compared with the oracle so far.
    pub compared: u64,
    /// Per-response observations (`dk_serve` workloads).
    pub serve: Vec<ServeObs>,
    /// Heap allocations and bytes requested while operations ran: read
    /// around each call for the single-caller workloads, over the
    /// whole window (client side included) for `dk_serve`.
    pub allocs: u64,
    /// See `allocs`.
    pub alloc_bytes: u64,
}

impl Window {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Successful latencies in milliseconds, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        crate::stats::sorted(
            self.samples
                .iter()
                .filter(|s| s.samples > 0)
                .map(|s| s.latency_ms)
                .collect(),
        )
    }
}

/// One call into the program by a single caller, as measured.
#[derive(Debug)]
pub struct Call<T> {
    /// What the program returned.
    pub out: T,
    t0: Instant,
    latency: Duration,
    allocs: u64,
    alloc_bytes: u64,
}

/// Times operation number `op` of a closed-loop, single-caller
/// workload: latency, heap allocations made meanwhile, and (traced) its
/// operation span. Everything the harness does with the result (the
/// oracle comparison above all) happens after the clock has stopped.
pub fn timed_call<T>(op: u64, f: impl FnOnce() -> T) -> Call<T> {
    trace::set_op(op);
    let (a0, b0) = alloc_counts();
    let t0 = Instant::now();
    let out = f();
    let latency = t0.elapsed();
    let (a1, b1) = alloc_counts();
    if trace::on() {
        trace::record(Kind::Op, t0, 0, 0, 0);
    }
    Call {
        out,
        t0,
        latency,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

impl Window {
    /// Books a [`timed_call`]: `samples` completed (0 = failed), and
    /// whether its output was compared bit for bit with the oracle.
    pub fn book<T>(
        &mut self,
        call: &Call<T>,
        window_start: Instant,
        samples: usize,
        compared: bool,
    ) {
        self.samples.push(OpSample {
            at_s: call
                .t0
                .saturating_duration_since(window_start)
                .as_secs_f64(),
            latency_ms: ms(call.latency),
            samples: samples as u32,
        });
        self.failed += u64::from(samples == 0);
        self.compared += u64::from(compared);
        self.allocs += call.allocs;
        self.alloc_bytes += call.alloc_bytes;
    }
}

/// One caller, one operation in flight, for `dur`.
pub fn closed_loop(dur: Duration, mut op: impl FnMut(&mut Window, Instant)) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    while start.elapsed() < dur {
        op(&mut w, start);
    }
    w
}

/// Public counters of the program, read between windows.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `SessionStats` of the session or engine, where one is reachable.
    pub session: Option<SessionStats>,
    /// `enclave_stats()`, where reachable.
    pub enclave: Option<MemoryStats>,
    /// `workspace_stats().misses` of the session.
    pub workspace_misses: Option<u64>,
    /// `TcpFleet::reconnects`.
    pub reconnects: Option<u64>,
    /// Quarantined workers, in detection order.
    pub quarantined: Vec<usize>,
    /// `ServerHandle::metrics()`.
    pub server: Option<dk_serve::ServerMetrics>,
    /// How long `Server::start` took for this instance.
    pub server_start_ms: Option<f64>,
}

/// What tearing an instance down reported.
#[derive(Debug, Default)]
pub struct Finish {
    /// Outputs compared after the run (`dk_serve`: every response).
    pub compared: u64,
    /// Of those, mismatches.
    pub mismatches: u64,
    /// `Server::shutdown` time.
    pub shutdown_ms: Option<f64>,
    /// Final `ServerMetrics`.
    pub server: Option<dk_serve::ServerMetrics>,
    /// A workload-specific condition that did not hold.
    pub error: Option<String>,
}

/// A set-up workload: program objects built, first verified operation
/// done.
pub trait Instance {
    /// Offers load for `dur` and reports what happened. Sample times
    /// are relative to the start of this call.
    fn run(&mut self, dur: Duration) -> Window;

    /// Reads the program's public counters.
    fn counters(&self) -> Counters;

    /// Stops everything the instance started and runs the checks that
    /// wait for the end.
    fn finish(self: Box<Self>) -> Finish;
}

/// Inputs of one run, generated from the seed before anything is timed.
#[derive(Debug)]
pub enum Inputs {
    /// The three session workloads.
    Session(session::SessionInputs),
    /// `train_pipelined`.
    Train(train::TrainInputs),
    /// The two `dk_serve` workloads.
    Serve(serve::ServeInputs),
}

impl Inputs {
    /// Generates the inputs (and the oracle's expected outputs) of a
    /// run of `seconds` at most.
    pub fn generate(id: WorkloadId, seed: u64, seconds: f64) -> Result<Self, String> {
        Ok(match id {
            _ if id.is_session() => Inputs::Session(session::SessionInputs::generate(id, seed)?),
            WorkloadId::TrainPipelined => Inputs::Train(train::TrainInputs::generate(seed)?),
            _ => Inputs::Serve(serve::ServeInputs::generate(id, seed, seconds)?),
        })
    }

    /// The model the workload starts from.
    pub fn model(&self) -> &Sequential {
        match self {
            Inputs::Session(i) => &i.model,
            Inputs::Train(i) => &i.model,
            Inputs::Serve(i) => &i.model,
        }
    }

    /// One virtual batch `[K, 3, hw, hw]` of the workload's inputs, for
    /// the probes.
    pub fn probe_batch(&self) -> Tensor<f32> {
        match self {
            Inputs::Session(i) => i.batches[0].clone(),
            Inputs::Train(i) => i.batch(0).0,
            Inputs::Serve(i) => i.probe_batch(),
        }
    }
}

/// Builds the workload's program objects and runs the first verified
/// operation: everything `setup_s` covers. `traced` wraps the session
/// workloads' backend in `TimedExec`.
pub fn setup(
    id: WorkloadId,
    inputs: &Inputs,
    traced: bool,
) -> Result<Box<dyn Instance + '_>, String> {
    match inputs {
        Inputs::Session(i) => session::setup(id, i, traced),
        Inputs::Train(i) => train::setup(i),
        Inputs::Serve(i) => serve::setup(id, i),
    }
}

/// Formats any error for a `Result<_, String>`.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }

    #[test]
    fn bits_eq_is_bitwise() {
        let a = Tensor::from_vec(&[2], vec![0.0f32, 1.0]);
        assert!(bits_eq(&a, &a.clone()));
        assert!(!bits_eq(&a, &Tensor::from_vec(&[2], vec![-0.0f32, 1.0])));
        assert!(!bits_eq(&a, &Tensor::from_vec(&[1, 2], vec![0.0f32, 1.0])));
        let nan = Tensor::from_vec(&[1], vec![f32::NAN]);
        assert!(bits_eq(&nan, &nan.clone()));
    }
}
