//! `train_pipelined`: Algorithm 2 large-batch training on the pipelined
//! engine. One caller; an operation is one `train_large_batch` step of
//! `N = 8` samples (`V = 4` virtual batches of `K = 2`).

use super::{
    closed_loop, err, timed_call, Counters, Finish, Instance, Spec, Window, WorkloadId, CLASSES,
    LEARNING_RATE, SHARD_ELEMS, TRAIN_ORACLE_STEPS,
};
use dk_core::virtual_batch::LargeBatchTrainer;
use dk_core::{DarknightSession, EngineOptions, PipelineEngine};
use dk_field::derive_seed;
use dk_gpu::GpuCluster;
use dk_linalg::Tensor;
use dk_nn::data::Dataset;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use std::time::{Duration, Instant};

/// Samples per class in the synthetic dataset (160 samples, 20 steps an
/// epoch).
const PER_CLASS: usize = 16;
const DOMAIN_DATA: u64 = 0x4441_5441;

/// Inputs of the training workload.
#[derive(Debug)]
pub struct TrainInputs {
    /// The run's seed.
    pub seed: u64,
    /// Sizing.
    pub spec: Spec,
    /// The model at step 0.
    pub model: Sequential,
    /// The dataset steps cycle through.
    pub data: Dataset,
    /// Per-virtual-batch losses of the first steps, from the sequential
    /// trainer started from the same model, data and seed.
    pub expected_losses: Vec<Vec<f32>>,
}

impl TrainInputs {
    /// Generates model and data, and runs the sequential oracle.
    pub fn generate(seed: u64) -> Result<Self, String> {
        let spec = WorkloadId::TrainPipelined.spec();
        let model = spec.build_model(seed);
        let data = Dataset::synthetic(
            CLASSES,
            PER_CLASS,
            (3, spec.hw, spec.hw),
            0.5,
            derive_seed(seed, DOMAIN_DATA),
        );
        let mut inputs = Self {
            seed,
            spec,
            model,
            data,
            expected_losses: Vec::new(),
        };
        let mut trainer = inputs.sequential_trainer()?;
        let mut model = inputs.model.clone();
        let mut sgd = Sgd::new(LEARNING_RATE);
        for step in 0..TRAIN_ORACLE_STEPS {
            let (x, labels) = inputs.batch(step);
            let report = trainer
                .train_large_batch(&mut model, &x, &labels, &mut sgd)
                .map_err(err)?;
            inputs.expected_losses.push(report.losses);
        }
        Ok(inputs)
    }

    /// The large batch of step `step`: `[N, 3, hw, hw]` and its labels.
    pub fn batch(&self, step: usize) -> (Tensor<f32>, Vec<usize>) {
        let n = self.spec.samples_per_op;
        let steps_per_epoch = self.data.len() / n;
        let (x, labels) = self.data.batch((step % steps_per_epoch) * n, n);
        (x, labels.to_vec())
    }

    /// Workers the fleet needs.
    pub fn fleet(&self) -> GpuCluster {
        let n = self.spec.config(self.seed).workers_required();
        GpuCluster::honest(n, self.spec.fleet_seed(self.seed))
    }

    /// The sequential reference trainer (`LargeBatchTrainer::new`).
    pub fn sequential_trainer(&self) -> Result<LargeBatchTrainer, String> {
        let session =
            DarknightSession::new(self.spec.config(self.seed), self.fleet()).map_err(err)?;
        Ok(LargeBatchTrainer::new(session, SHARD_ELEMS))
    }

    /// The trainer under test (`LargeBatchTrainer::pipelined`).
    pub fn pipelined_trainer(&self) -> Result<LargeBatchTrainer, String> {
        let engine = PipelineEngine::new(
            self.spec.config(self.seed),
            self.fleet(),
            EngineOptions::default(),
        )
        .map_err(err)?;
        Ok(LargeBatchTrainer::pipelined(engine, SHARD_ELEMS))
    }
}

/// The training workload, set up.
pub struct TrainRun<'a> {
    inputs: &'a TrainInputs,
    trainer: LargeBatchTrainer,
    model: Sequential,
    sgd: Sgd,
    step: usize,
}

impl TrainRun<'_> {
    /// One operation: one large-batch step. The first steps must match
    /// the sequential trainer's losses bit for bit; later ones must at
    /// least stay finite.
    fn op(&mut self, w: &mut Window, window_start: Instant) {
        let step = self.step;
        self.step += 1;
        let (x, labels) = self.inputs.batch(step);
        let call = timed_call(step as u64 + 1, || {
            self.trainer
                .train_large_batch(&mut self.model, &x, &labels, &mut self.sgd)
        });
        let want = self.inputs.expected_losses.get(step);
        let ok = call.out.as_ref().is_ok_and(|report| match want {
            Some(want) => {
                want.len() == report.losses.len()
                    && want
                        .iter()
                        .zip(&report.losses)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            None => report.losses.iter().all(|l| l.is_finite()),
        });
        w.book(
            &call,
            window_start,
            if ok {
                self.inputs.spec.samples_per_op
            } else {
                0
            },
            want.is_some(),
        );
    }
}

impl Instance for TrainRun<'_> {
    fn run(&mut self, dur: Duration) -> Window {
        closed_loop(dur, |w, start| self.op(w, start))
    }

    fn counters(&self) -> Counters {
        let engine = self
            .trainer
            .engine()
            .expect("the trainer under test is pipelined");
        Counters {
            session: Some(engine.stats()),
            enclave: Some(engine.enclave_stats()),
            quarantined: engine.quarantined().iter().map(|w| w.0).collect(),
            ..Counters::default()
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish::default()
    }
}

/// Builds fleet, engine and trainer and runs step 0, verified against
/// the sequential trainer's step 0.
pub fn setup(inputs: &TrainInputs) -> Result<Box<dyn Instance + '_>, String> {
    let mut run = TrainRun {
        inputs,
        trainer: inputs.pipelined_trainer()?,
        model: inputs.model.clone(),
        sgd: Sgd::new(LEARNING_RATE),
        step: 0,
    };
    let mut first = Window::default();
    run.op(&mut first, Instant::now());
    if first.failed > 0 {
        return Err("train_pipelined: step 0 differs from the sequential trainer".into());
    }
    Ok(Box::new(run))
}
