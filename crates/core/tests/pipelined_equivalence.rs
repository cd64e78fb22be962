//! Property + regression suite: the pipelined engine is **bit-for-bit**
//! identical to sequential execution.
//!
//! DarKnight's §7.1 pipelining is only admissible if overlap changes
//! nothing observable: same outputs, same weights after training, same
//! integrity verdicts — whether the fleet is honest or actively
//! tampering, including the recovery extension's `Repaired` path. The
//! engine earns this via stateless per-(batch, layer) seed derivation
//! and batch-ordered reductions; this suite is the enforcement.

use dk_core::engine::{EngineOptions, PipelineEngine};
use dk_core::virtual_batch::LargeBatchTrainer;
use dk_core::{DarknightConfig, DarknightError, DarknightSession};
use dk_gpu::{Behavior, GpuCluster};
use dk_linalg::Tensor;
use dk_nn::arch::mini_resnet;
use dk_nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use proptest::prelude::*;

fn small_model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(dk_linalg::Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, seed ^ 1)),
    ])
}

fn batches(n: usize, k: usize, seed: u64) -> Vec<Tensor<f32>> {
    (0..n)
        .map(|b| {
            Tensor::from_fn(&[k, 2, 6, 6], move |i| {
                let h = (i as u64 + 17 * b as u64).wrapping_mul(seed * 2 + 1);
                ((h % 23) as f32 - 11.0) * 0.05
            })
        })
        .collect()
}

fn training_batch(n: usize, seed: u64) -> (Tensor<f32>, Vec<usize>) {
    let x = Tensor::from_fn(&[n, 2, 6, 6], move |i| {
        (((i as u64).wrapping_mul(seed + 3) % 19) as f32 - 9.0) * 0.06
    });
    let labels = (0..n).map(|i| i % 3).collect();
    (x, labels)
}

/// Runs `epochs` Algorithm 2 large-batch steps in both modes — the
/// sequential trainer, then the pipelined engine, identical seeds and
/// fleet — and asserts the final parameters are bitwise equal.
#[allow(clippy::too_many_arguments)]
fn assert_training_modes_agree(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    model: &Sequential,
    x: &Tensor<f32>,
    labels: &[usize],
    epochs: usize,
    lr: f32,
    opts: EngineOptions,
) {
    let shard = 4096;
    let mut m_seq = model.clone();
    let session = DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap();
    let mut trainer = LargeBatchTrainer::new(session, shard);
    let mut sgd = Sgd::new(lr);
    for _ in 0..epochs {
        trainer
            .train_large_batch(&mut m_seq, x, labels, &mut sgd)
            .unwrap();
    }
    let mut m_pipe = model.clone();
    let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts).unwrap();
    let mut sgd = Sgd::new(lr);
    for _ in 0..epochs {
        engine
            .train_large_batch(&mut m_pipe, x, labels, &mut sgd, shard)
            .unwrap();
    }
    assert_eq!(
        m_seq.max_param_diff(&m_pipe.snapshot_params()),
        0.0,
        "pipelined training diverged"
    );
}

/// Runs a stream of inference virtual batches in both modes — the
/// sequential session, then the pipelined engine — and asserts the
/// outputs are bitwise equal.
fn assert_inference_modes_agree(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    model: &Sequential,
    inputs: &[Tensor<f32>],
    opts: EngineOptions,
) {
    let mut m_seq = model.clone();
    let mut session = DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap();
    let seq: Vec<_> = inputs
        .iter()
        .map(|x| session.private_inference(&mut m_seq, x).unwrap())
        .collect();
    let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts).unwrap();
    let outcomes = engine.infer_batches(model, inputs, false).unwrap();
    assert_eq!(outcomes.len(), inputs.len());
    for (s, p) in seq.iter().zip(&outcomes) {
        assert_eq!(
            s.as_slice(),
            p.output.as_ref().unwrap().as_slice(),
            "pipelined inference diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Deterministic regressions
// ---------------------------------------------------------------------

/// Shared-scale inference: pipelined outputs are bitwise the sequential
/// session's, across several lanes' worth of in-flight batches.
#[test]
fn inference_bitwise_equal_honest() {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(5);
    let fleet = GpuCluster::honest(cfg.workers_required(), 11);
    let model = small_model(6);
    let inputs = batches(9, 2, 7);
    for lanes in [1usize, 2, 3] {
        let opts = EngineOptions::default().with_lanes(lanes);
        assert_inference_modes_agree(cfg, &fleet, &model, &inputs, opts);
    }
}

/// Per-sample (serving-mode) inference: outputs and repaired flags are
/// identical to running the same numbered batches sequentially.
#[test]
fn per_sample_inference_bitwise_equal() {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(9);
    let fleet = GpuCluster::honest(cfg.workers_required(), 13);
    let model = small_model(8);
    let inputs = batches(6, 2, 3);

    let mut m_seq = model.clone();
    let mut session = DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap();
    let mut expected = Vec::new();
    for x in &inputs {
        expected.push(session.private_inference_per_sample(&mut m_seq, x).unwrap());
    }

    let mut engine =
        PipelineEngine::new(cfg, fleet.fork(cfg.seed()), EngineOptions::default().with_lanes(3))
            .unwrap();
    let outcomes = engine.infer_batches(&model, &inputs, true).unwrap();
    for (e, o) in expected.iter().zip(&outcomes) {
        assert!(!o.repaired);
        assert_eq!(e.as_slice(), o.output.as_ref().unwrap().as_slice());
    }
}

/// Multi-epoch training on a BatchNorm-bearing residual model: the
/// pipelined trainer's weights *and* BN running statistics must land
/// bitwise on the sequential result (running averages are
/// order-sensitive — the engine replays them in batch order).
#[test]
fn training_with_batchnorm_bitwise_equal_across_epochs() {
    let cfg = DarknightConfig::new(2, 1).with_seed(23);
    let fleet = GpuCluster::honest(cfg.workers_required(), 29);
    let model = mini_resnet(8, 4, 31);
    let x = Tensor::from_fn(&[8, 3, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.07);
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
    let opts = EngineOptions::default().with_lanes(3);
    assert_training_modes_agree(cfg, &fleet, &model, &x, &labels, 3, 0.03, opts);

    // Eval-mode forward uses the running statistics — equality there is
    // the BN-replay proof (the check above compares only parameters,
    // which exclude running stats).
    let mut seq_trainer =
        LargeBatchTrainer::new(DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap(), 512);
    let engine = PipelineEngine::new(
        cfg,
        fleet.fork(cfg.seed()),
        EngineOptions::default().with_lanes(2),
    )
    .unwrap();
    let mut pipe_trainer = LargeBatchTrainer::pipelined(engine, 512);
    let mut m_seq = model.clone();
    let mut m_pipe = model.clone();
    let mut sgd_a = Sgd::new(0.03);
    let mut sgd_b = Sgd::new(0.03);
    for _ in 0..2 {
        seq_trainer.train_large_batch(&mut m_seq, &x, &labels, &mut sgd_a).unwrap();
        pipe_trainer.train_large_batch(&mut m_pipe, &x, &labels, &mut sgd_b).unwrap();
    }
    let eval_seq = m_seq.forward(&x, false);
    let eval_pipe = m_pipe.forward(&x, false);
    assert_eq!(
        eval_seq.as_slice(),
        eval_pipe.as_slice(),
        "BN running statistics diverged between modes"
    );
}

/// The `Repaired` path: an actively tampering worker under recovery
/// mode. Training must (a) succeed in both modes, (b) produce bitwise
/// equal weights (repairs land on TEE ground truth), and (c) quarantine
/// the same workers in the same batch order.
#[test]
fn tampering_with_recovery_bitwise_equal_and_same_quarantine() {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(41);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[0] = Behavior::AdditiveNoise;
    let fleet = GpuCluster::with_behaviors(&behaviors, 43);
    let model = small_model(44);
    let (x, labels) = training_batch(6, 45);

    let mut seq_trainer =
        LargeBatchTrainer::new(DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap(), 256);
    let engine = PipelineEngine::new(
        cfg,
        fleet.fork(cfg.seed()),
        EngineOptions::default().with_lanes(2),
    )
    .unwrap();
    let mut pipe_trainer = LargeBatchTrainer::pipelined(engine, 256);
    let mut m_seq = model.clone();
    let mut m_pipe = model.clone();
    let mut sgd_a = Sgd::new(0.05);
    let mut sgd_b = Sgd::new(0.05);
    for _ in 0..2 {
        let ra = seq_trainer.train_large_batch(&mut m_seq, &x, &labels, &mut sgd_a).unwrap();
        let rb = pipe_trainer.train_large_batch(&mut m_pipe, &x, &labels, &mut sgd_b).unwrap();
        assert_eq!(ra.losses, rb.losses);
    }
    assert_eq!(m_seq.max_param_diff(&m_pipe.snapshot_params()), 0.0);
    let seq_q = seq_trainer.session().quarantined().to_vec();
    let pipe_q = pipe_trainer.engine().unwrap().quarantined().to_vec();
    assert!(!seq_q.is_empty(), "recovery should have caught the liar");
    assert_eq!(seq_q, pipe_q, "quarantine lists must match in batch order");
    assert!(seq_trainer.session().stats().recoveries > 0);
    assert!(pipe_trainer.engine().unwrap().stats().recoveries > 0);
}

/// Serving-style repaired verdicts: per-sample inference over a
/// tampering fleet with recovery reports `repaired` on exactly the
/// batches the sequential session repairs (here: all of them), with
/// bitwise equal outputs.
#[test]
fn repaired_inference_outcomes_match_sequential() {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(51);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[1] = Behavior::SingleElement;
    let fleet = GpuCluster::with_behaviors(&behaviors, 53);
    let model = small_model(54);
    let inputs = batches(4, 2, 55);

    let mut m_seq = model.clone();
    let mut session = DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap();
    let mut expected = Vec::new();
    for x in &inputs {
        let rec0 = session.stats().recoveries;
        let y = session.private_inference_per_sample(&mut m_seq, x).unwrap();
        expected.push((y, session.stats().recoveries > rec0));
    }

    let mut engine =
        PipelineEngine::new(cfg, fleet.fork(cfg.seed()), EngineOptions::default().with_lanes(2))
            .unwrap();
    let outcomes = engine.infer_batches(&model, &inputs, true).unwrap();
    for ((y, repaired), o) in expected.iter().zip(&outcomes) {
        assert_eq!(*repaired, o.repaired, "repaired flags must agree per batch");
        assert!(*repaired, "the tampering fleet should force repairs");
        assert_eq!(y.as_slice(), o.output.as_ref().unwrap().as_slice());
    }
}

/// Without recovery, tampering aborts both modes with the same verdict
/// kind, and neither updates weights.
#[test]
fn tampering_without_recovery_fails_identically() {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(61);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[2] = Behavior::ZeroOutput;
    let fleet = GpuCluster::with_behaviors(&behaviors, 63);
    let model = small_model(64);
    let (x, labels) = training_batch(4, 65);

    let mut seq_trainer =
        LargeBatchTrainer::new(DarknightSession::new(cfg, fleet.fork(cfg.seed())).unwrap(), 256);
    let engine =
        PipelineEngine::new(cfg, fleet.fork(cfg.seed()), EngineOptions::default()).unwrap();
    let mut pipe_trainer = LargeBatchTrainer::pipelined(engine, 256);
    let mut m_seq = model.clone();
    let mut m_pipe = model.clone();
    let snap = m_seq.snapshot_params();
    let ea = seq_trainer
        .train_large_batch(&mut m_seq, &x, &labels, &mut Sgd::new(0.05))
        .unwrap_err();
    let eb = pipe_trainer
        .train_large_batch(&mut m_pipe, &x, &labels, &mut Sgd::new(0.05))
        .unwrap_err();
    assert!(matches!(ea, DarknightError::IntegrityViolation { .. }));
    assert!(matches!(eb, DarknightError::IntegrityViolation { .. }));
    assert_eq!(m_seq.max_param_diff(&snap), 0.0, "failed step must not update weights");
    assert_eq!(m_pipe.max_param_diff(&snap), 0.0, "failed step must not update weights");
}

// ---------------------------------------------------------------------
// Property test
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random configuration sweep: training and inference stay bitwise
    /// equal across seeds, batch geometry, lane counts, epochs, and
    /// honest vs tampering-with-recovery fleets.
    #[test]
    fn pipelined_equals_sequential(
        seed in 0u64..10_000,
        k in 2usize..4,
        m in 1usize..3,
        lanes in 1usize..4,
        epochs in 1usize..3,
        v_count in 2usize..4,
        tamper in any::<bool>(),
    ) {
        let mut cfg = DarknightConfig::new(k, m).with_integrity(true).with_seed(seed);
        let fleet = if tamper {
            cfg = cfg.with_recovery(true);
            let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
            behaviors[seed as usize % cfg.workers_required()] = Behavior::AdditiveNoise;
            GpuCluster::with_behaviors(&behaviors, seed ^ 0xF1EE7)
        } else {
            GpuCluster::honest(cfg.workers_required(), seed ^ 0xF1EE7)
        };
        let model = small_model(seed ^ 0xABCD);
        let (x, labels) = training_batch(v_count * k, seed);
        let opts = EngineOptions::default().with_lanes(lanes);
        assert_training_modes_agree(cfg, &fleet, &model, &x, &labels, epochs, 0.05, opts);
        assert_inference_modes_agree(cfg, &fleet, &model, &batches(lanes + 2, k, seed ^ 0x77), opts);
    }
}
