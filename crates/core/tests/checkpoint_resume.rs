//! Kill-and-resume determinism for sealed training checkpoints.
//!
//! The claim (ISSUE tentpole 2): a training run killed at *any*
//! large-batch step boundary and resumed from its sealed checkpoint —
//! by a fresh enclave, over a fresh fleet, even into a pipelined engine
//! or over an adversarial fleet — lands **bit-identical** to the
//! uninterrupted run: same per-step losses, same final weights, same
//! BatchNorm running statistics. This holds because every per-batch
//! mask/scheme derives from `(seed, batch#)` and the checkpoint carries
//! exactly `(seed, batch cursor)` plus the model/optimizer state.

use dk_core::virtual_batch::LargeBatchTrainer;
use dk_core::{DarknightConfig, DarknightError, DarknightSession, EngineOptions, PipelineEngine};
use dk_gpu::{Behavior, GpuCluster};
use dk_linalg::Tensor;
use dk_nn::layers::{BatchNorm2d, Conv2d, Dense, Flatten, Layer, Relu};
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_linalg::Conv2dShape;
use dk_tee::UntrustedStore;

const K: usize = 2;
const SEED: u64 = 0xC4C4;
const STEPS: u64 = 4;
const LR: f32 = 0.2;
const MOMENTUM: f32 = 0.9;

/// A small model *with* BatchNorm, so resume has running statistics to
/// get wrong.
fn model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
        Layer::BatchNorm2d(BatchNorm2d::new(4)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 4 * 4, 3, seed ^ 1)),
    ])
}

fn sgd() -> Sgd {
    Sgd::new(LR).with_momentum(MOMENTUM)
}

fn config() -> DarknightConfig {
    DarknightConfig::new(K, 1).with_seed(SEED)
}

fn batch(n: usize) -> (Tensor<f32>, Vec<usize>) {
    let x = Tensor::from_fn(&[n, 2, 4, 4], |i| ((i % 13) as f32 - 6.0) * 0.07);
    let labels = (0..n).map(|i| i % 3).collect();
    (x, labels)
}

type BnStats = Vec<(Vec<f32>, Vec<f32>)>;

fn bn_stats(m: &mut Sequential) -> BnStats {
    let mut out = Vec::new();
    m.visit_leaf_layers_mut(&mut |l| {
        if let Layer::BatchNorm2d(bn) = l {
            let (mean, var) = bn.running_stats();
            out.push((mean.to_vec(), var.to_vec()));
        }
    });
    out
}

/// The uninterrupted reference: `STEPS` large-batch steps on one
/// trainer. Returns per-step mean losses, final params, final BN stats.
fn uninterrupted(cfg: DarknightConfig) -> (Vec<f32>, Vec<Tensor<f32>>, BnStats) {
    let cluster = GpuCluster::honest(cfg.workers_required(), 21);
    let session = DarknightSession::new(cfg, cluster).unwrap();
    let mut t = LargeBatchTrainer::new(session, 16);
    let mut m = model(7);
    let mut opt = sgd();
    let (x, labels) = batch(2 * K);
    let mut losses = Vec::new();
    for _ in 0..STEPS {
        losses.push(t.train_large_batch(&mut m, &x, &labels, &mut opt).unwrap().mean_loss());
    }
    (losses, m.snapshot_params(), bn_stats(&mut m))
}

#[test]
fn resume_at_every_step_boundary_is_bit_identical() {
    let cfg = config();
    let (ref_losses, ref_params, ref_bn) = uninterrupted(cfg);
    let (x, labels) = batch(2 * K);

    for kill_after in 1..STEPS {
        // Phase 1: train to the kill point, checkpointing every step.
        let cluster = GpuCluster::honest(cfg.workers_required(), 21);
        let session = DarknightSession::new(cfg, cluster).unwrap();
        let mut t = LargeBatchTrainer::new(session, 16).with_checkpoint_interval(1);
        let mut m = model(7);
        let mut opt = sgd();
        for s in 0..kill_after {
            let loss = t.train_large_batch(&mut m, &x, &labels, &mut opt).unwrap().mean_loss();
            assert_eq!(loss.to_bits(), ref_losses[s as usize].to_bits());
        }
        let blob = t.latest_checkpoint().expect("interval-1 trainer has a checkpoint");
        drop(t); // the "kill": trainer, session, enclave, fleet all gone

        // Phase 2: a fresh enclave + fresh fleet resume from the blob.
        let cluster = GpuCluster::honest(cfg.workers_required(), 99); // different fleet seed
        let session = DarknightSession::new(cfg, cluster).unwrap();
        let mut m2 = model(1234); // wrong init, must be overwritten
        let mut opt2 = Sgd::new(LR).with_momentum(MOMENTUM);
        let mut t2 = LargeBatchTrainer::resume(session, 16, &blob, &mut m2, &mut opt2).unwrap();
        assert_eq!(t2.steps(), kill_after);
        for s in kill_after..STEPS {
            let loss = t2.train_large_batch(&mut m2, &x, &labels, &mut opt2).unwrap().mean_loss();
            assert_eq!(
                loss.to_bits(),
                ref_losses[s as usize].to_bits(),
                "loss diverged at step {s} after resume from step {kill_after}"
            );
        }
        assert_eq!(
            m2.max_param_diff(&ref_params),
            0.0,
            "weights diverged after resume from step {kill_after}"
        );
        assert_eq!(bn_stats(&mut m2), ref_bn, "BN stats diverged (kill at {kill_after})");
    }
}

#[test]
fn resume_into_a_pipelined_engine_is_bit_identical() {
    // The uninterrupted reference ran on a sequential session; kill at
    // step 2, then resume on a two-lane pipelined engine — the engine's
    // sequential-equivalence guarantee says nothing changes.
    let cfg = config();
    let (ref_losses, ref_params, ref_bn) = uninterrupted(cfg);
    let (x, labels) = batch(2 * K);

    let cluster = GpuCluster::honest(cfg.workers_required(), 21);
    let session = DarknightSession::new(cfg, cluster).unwrap();
    let mut t = LargeBatchTrainer::new(session, 16).with_checkpoint_interval(2);
    let mut m = model(7);
    let mut opt = sgd();
    for _ in 0..2 {
        t.train_large_batch(&mut m, &x, &labels, &mut opt).unwrap();
    }
    let blob = t.latest_checkpoint().unwrap();
    drop(t);

    let cluster = GpuCluster::honest(cfg.workers_required(), 5);
    let engine = PipelineEngine::new(cfg, cluster, EngineOptions::default().with_lanes(2)).unwrap();
    let mut m2 = model(0);
    let mut opt2 = sgd();
    let mut t2 = LargeBatchTrainer::resume_pipelined(engine, 16, &blob, &mut m2, &mut opt2)
        .expect("resume from the sealed checkpoint");
    let resumed_losses: Vec<f32> = (2..STEPS)
        .map(|_| t2.train_large_batch(&mut m2, &x, &labels, &mut opt2).expect("resumed step"))
        .map(|r| r.mean_loss())
        .collect();
    let expected: Vec<u32> = ref_losses[2..].iter().map(|l| l.to_bits()).collect();
    let got: Vec<u32> = resumed_losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(got, expected, "pipelined resume diverged");
    assert_eq!(m2.max_param_diff(&ref_params), 0.0);
    assert_eq!(bn_stats(&mut m2), ref_bn);
}

#[test]
fn resume_with_an_adversarial_fleet_is_bit_identical_and_still_detects() {
    // Integrity + recovery on; worker 0 tampers in both halves. The
    // TEE detects and repairs every batch, so training results are the
    // honest results — and the resumed half must re-detect on its own.
    let cfg = config().with_integrity(true).with_recovery(true);
    let adversarial = |fleet_seed: u64| {
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[0] = Behavior::AdditiveNoise;
        GpuCluster::with_behaviors(&behaviors, fleet_seed)
    };
    let (x, labels) = batch(2 * K);

    // Uninterrupted adversarial run.
    let session = DarknightSession::new(cfg, adversarial(31)).unwrap();
    let mut t = LargeBatchTrainer::new(session, 16).with_checkpoint_interval(1);
    let mut m = model(7);
    let mut opt = sgd();
    let mut ref_losses = Vec::new();
    let mut blob_at_2 = None;
    for s in 0..STEPS {
        ref_losses.push(t.train_large_batch(&mut m, &x, &labels, &mut opt).unwrap().mean_loss());
        if s == 1 {
            blob_at_2 = t.latest_checkpoint();
        }
    }
    assert!(!t.session().quarantined().is_empty(), "tampering must be caught");
    let ref_params = m.snapshot_params();

    // Killed at step 2, resumed over a *fresh* adversarial fleet.
    let session = DarknightSession::new(cfg, adversarial(87)).unwrap();
    let mut m2 = model(7);
    let mut opt2 = sgd();
    let mut t2 =
        LargeBatchTrainer::resume(session, 16, &blob_at_2.unwrap(), &mut m2, &mut opt2).unwrap();
    for s in 2..STEPS {
        let loss = t2.train_large_batch(&mut m2, &x, &labels, &mut opt2).unwrap().mean_loss();
        assert_eq!(loss.to_bits(), ref_losses[s as usize].to_bits());
    }
    assert_eq!(m2.max_param_diff(&ref_params), 0.0);
    assert!(
        !t2.session().quarantined().is_empty(),
        "the resumed session must re-detect the tamperer itself"
    );
}

#[test]
fn tampered_checkpoint_blob_is_rejected() {
    let cfg = config();
    let session = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 21)).unwrap();
    let mut t = LargeBatchTrainer::new(session, 16);
    let mut m = model(7);
    let mut opt = sgd();
    let (x, labels) = batch(2 * K);
    t.train_large_batch(&mut m, &x, &labels, &mut opt).unwrap();
    let blob = t.checkpoint(&mut m, &opt);

    // Route the blob through an untrusted store that flips one byte.
    let mut store = UntrustedStore::new();
    store.put(0, blob);
    assert!(store.tamper(0, 17));
    let tampered = store.get(0).unwrap();

    let session = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 21)).unwrap();
    let mut m2 = model(7);
    let mut opt2 = sgd();
    let err = LargeBatchTrainer::resume(session, 16, &tampered, &mut m2, &mut opt2).unwrap_err();
    assert!(
        matches!(err, DarknightError::Enclave(_) | DarknightError::Checkpoint { .. }),
        "got {err:?}"
    );
}

#[test]
fn checkpoint_config_mismatch_is_rejected_with_a_typed_error() {
    let cfg = config();
    let session = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 21)).unwrap();
    let mut t = LargeBatchTrainer::new(session, 16);
    let mut m = model(7);
    let mut opt = sgd();
    let (x, labels) = batch(2 * K);
    t.train_large_batch(&mut m, &x, &labels, &mut opt).unwrap();
    let blob = t.checkpoint(&mut m, &opt);

    // A session with a different seed derives different mask streams —
    // resuming into it would silently break determinism, so it must be
    // refused outright.
    let other = DarknightConfig::new(K, 1).with_seed(SEED ^ 1);
    let session =
        DarknightSession::new(other, GpuCluster::honest(other.workers_required(), 21)).unwrap();
    let mut m2 = model(7);
    let mut opt2 = sgd();
    let err = LargeBatchTrainer::resume(session, 16, &blob, &mut m2, &mut opt2).unwrap_err();
    assert!(matches!(err, DarknightError::Checkpoint { .. }), "got {err:?}");
}
