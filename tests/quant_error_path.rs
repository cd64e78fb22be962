//! A batch the TEE cannot quantize must cost that batch and nothing
//! else: `DarknightError::Quant` comes back from the first offloaded
//! layer, every buffer that layer had taken goes back to the session's
//! pool (the forward step unwinds a finished row, a half-written row
//! and the norms), nothing stays charged to the enclave, and the next
//! honest batch runs exactly as in a session that never saw the bad
//! one — same output bits, same pool counters.
//!
//! The value a session can fail on is a non-finite one. Inputs and
//! weights are max-abs normalized before Algorithm 1 sees them, so a
//! finite value — however large — lands in `[-2^l, 2^l]` and
//! `QuantError::Overflow` is unreachable here; the last test pins that,
//! with a value that does overflow when quantized raw at `l = 8`.

use darknight::core::{DarknightConfig, DarknightError, DarknightSession};
use darknight::field::{QuantConfig, QuantError, P25};
use darknight::gpu::GpuCluster;
use darknight::linalg::{Conv2dShape, Tensor};
use darknight::nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;

const K: usize = 2;
const ROW: usize = 2 * 6 * 6;

fn config() -> DarknightConfig {
    DarknightConfig::new(K, 1).with_integrity(true).with_quant(QuantConfig::new(8)).with_seed(0xbad)
}

fn session() -> DarknightSession {
    let cfg = config();
    DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 5)).expect("session")
}

fn model() -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 4, 3, 1, 1), 3)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, 4)),
    ])
}

fn input(seed: u64) -> Tensor<f32> {
    Tensor::from_fn(&[K, 2, 6, 6], |i| (((i as u64 * 31 + seed * 7) % 17) as f32 - 8.0) * 0.06)
}

/// `input(seed)` with `bad` in the second sample, so the first sample's
/// row is already quantized when the error surfaces.
fn poisoned(seed: u64, bad: f32) -> Tensor<f32> {
    let mut x = input(seed);
    x.as_mut_slice()[ROW + 17] = bad;
    x
}

/// What a failed batch must leave untouched.
fn footprint(s: &DarknightSession) -> (u64, usize, usize) {
    let ws = s.workspace_stats();
    (ws.misses, ws.live_bytes, s.enclave_stats().current_bytes)
}

fn infer(
    s: &mut DarknightSession,
    m: &mut Sequential,
    x: &Tensor<f32>,
    per_sample: bool,
) -> Result<Vec<f32>, DarknightError> {
    let y =
        if per_sample { s.private_inference_per_sample(m, x) } else { s.private_inference(m, x) }?;
    let bits = y.as_slice().to_vec();
    s.recycle_output(y);
    Ok(bits)
}

#[test]
fn a_non_finite_batch_fails_inference_and_leaves_no_trace() {
    for per_sample in [false, true] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (mut seen, mut clean) = (session(), session());
            let (mut seen_model, mut clean_model) = (model(), model());
            for warm in 0..2 {
                infer(&mut seen, &mut seen_model, &input(warm), per_sample).expect("warm-up");
                infer(&mut clean, &mut clean_model, &input(warm), per_sample).expect("warm-up");
            }
            let err = infer(&mut seen, &mut seen_model, &poisoned(7, bad), per_sample).unwrap_err();
            assert!(
                matches!(err, DarknightError::Quant(QuantError::NotFinite)),
                "per_sample={per_sample} bad={bad}: {err:?}"
            );
            assert_eq!(footprint(&seen), footprint(&clean), "per_sample={per_sample} bad={bad}");
            let after =
                infer(&mut seen, &mut seen_model, &input(3), per_sample).expect("honest batch");
            let never =
                infer(&mut clean, &mut clean_model, &input(3), per_sample).expect("honest batch");
            assert_eq!(
                after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                never.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "per_sample={per_sample} bad={bad}"
            );
            assert_eq!(
                footprint(&seen),
                footprint(&clean),
                "per_sample={per_sample} bad={bad}: after"
            );
        }
    }
}

#[test]
fn a_non_finite_batch_fails_a_training_step_and_leaves_no_trace() {
    for bad in [f32::NAN, f32::INFINITY] {
        let (mut seen, mut clean) = (session(), session());
        let (mut seen_model, mut clean_model) = (model(), model());
        let (mut seen_sgd, mut clean_sgd) = (Sgd::new(0.05), Sgd::new(0.05));
        for warm in 0..2 {
            seen.train_step(&mut seen_model, &input(warm), &[0, 2], &mut seen_sgd)
                .expect("warm-up");
            clean
                .train_step(&mut clean_model, &input(warm), &[0, 2], &mut clean_sgd)
                .expect("warm-up");
        }
        let err = seen
            .train_step(&mut seen_model, &poisoned(7, bad), &[1, 0], &mut seen_sgd)
            .unwrap_err();
        assert!(matches!(err, DarknightError::Quant(QuantError::NotFinite)), "bad={bad}: {err:?}");
        assert_eq!(
            seen_model.max_param_diff(&clean_model.snapshot_params()),
            0.0,
            "no update on error"
        );
        // The failed step retired the previous batch's retained
        // contexts, as any next pass does; the sessions are level again
        // once the clean one has begun its next batch too.
        let after =
            seen.train_step(&mut seen_model, &input(3), &[2, 1], &mut seen_sgd).expect("honest");
        let never =
            clean.train_step(&mut clean_model, &input(3), &[2, 1], &mut clean_sgd).expect("honest");
        assert_eq!(after.loss.to_bits(), never.loss.to_bits(), "bad={bad}");
        assert_eq!(seen_model.max_param_diff(&clean_model.snapshot_params()), 0.0, "bad={bad}");
        assert_eq!(footprint(&seen), footprint(&clean), "bad={bad}");
    }
}

#[test]
fn a_finite_value_cannot_overflow_a_session() {
    // Raw, 1e9 does not fit the field at l = 8 ...
    let raw = config().quant().quantize::<P25>(1.0e9);
    assert!(matches!(raw, Err(QuantError::Overflow { .. })), "{raw:?}");
    // ... but a session normalizes by the batch's largest magnitude first.
    let (mut s, mut m) = (session(), model());
    for per_sample in [false, true] {
        for big in [1.0e9, f32::MAX, -f32::MAX] {
            infer(&mut s, &mut m, &poisoned(1, big), per_sample)
                .expect("a large finite value is only rescaled");
        }
    }
}
