//! Empirical privacy validation (the paper's §5, checked by experiment).
//!
//! Lemma 1 of the paper says every masked value a GPU observes is
//! uniform on `F_p` and independent of the raw data. These utilities
//! validate the claim on the *actual* system:
//!
//! * [`gpu_view_chi_square`] — goodness-of-fit of everything the
//!   cluster's workers observed against the uniform distribution;
//! * [`distinguishing_advantage`] — a two-world indistinguishability
//!   game: an adversary holding one worker's observations guesses which
//!   of two known candidate inputs was encoded; the advantage over
//!   coin-flipping must be ≈ 0;
//! * [`audit_collusion_boundary`] — white-box audit wiring the session's
//!   secret `A2` into the `dk-gpu` noise-cancellation attack to confirm
//!   tolerance is exactly `M`.

use crate::scheme::EncodingScheme;
use dk_field::{F25, FieldRng, P25};
use dk_gpu::collusion::{noise_cancellation_attack, uniformity_chi_square, AttackOutcome};
use dk_gpu::GpuCluster;

/// Chi-square statistic (with `buckets − 1` degrees of freedom) of all
/// values observed by all workers in a cluster.
///
/// Returns `None` if no observations were recorded yet.
pub fn gpu_view_chi_square(cluster: &GpuCluster, buckets: usize) -> Option<f64> {
    let values: Vec<F25> = cluster
        .workers()
        .iter()
        .flat_map(|w| w.observations().iter().flatten().copied())
        .collect();
    if values.is_empty() {
        None
    } else {
        Some(uniformity_chi_square(&values, buckets))
    }
}

/// Runs the two-world distinguishing game `trials` times and returns
/// the adversary's advantage `|2·Pr[guess right] − 1|`.
///
/// Worlds: input set 0 is all zeros; input set 1 is all `+0.9` (as
/// different as bounded data gets). Each trial freshly encodes world
/// `b` and hands ONE encoding (one honest worker's view) to a
/// correlation adversary that guesses the world by comparing the
/// observation's mean distance to the field representatives of the two
/// candidate inputs. Perfect masking ⇒ advantage ≈ 0.
pub fn distinguishing_advantage(k: usize, m: usize, n: usize, trials: usize, seed: u64) -> f64 {
    let mut rng = FieldRng::seed_from(seed);
    // Each world's quantized representative at `l = 8`: 0 and
    // `Round(0.9 · 2⁸) = 230`.
    let world_value = |b: usize| F25::new(if b == 0 { 0 } else { 230 });
    let mut correct = 0usize;
    for t in 0..trials {
        let b = (rng.next_u64() & 1) as usize;
        let scheme = EncodingScheme::generate(k, m, false, &mut rng);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| vec![world_value(b); n]).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let encodings = scheme.encode(&inputs, &noise);
        // Adversary sees worker (t mod encodings) view only.
        let view = &encodings[t % encodings.len()];
        // Correlation adversary: distance of observed values to each
        // world's quantized representative, in the centered metric.
        let dist = |target: F25| -> f64 {
            view.iter()
                .map(|&v| {
                    let d = (v - target).to_centered_i64().unsigned_abs();
                    d as f64
                })
                .sum::<f64>()
        };
        let guess = if dist(world_value(0)) <= dist(world_value(1)) { 0 } else { 1 };
        if guess == b {
            correct += 1;
        }
    }
    (2.0 * correct as f64 / trials as f64 - 1.0).abs()
}

/// White-box collusion audit on a live session scheme: returns the
/// attack outcome for a coalition of the given worker indices.
///
/// The coalition's observations are simulated as fresh encodings of the
/// supplied inputs (the real observations live in the workers; this
/// audit isolates the algebra).
///
/// # Panics
///
/// Panics if a coalition index is out of range.
pub fn audit_collusion_boundary(
    scheme: &EncodingScheme,
    coalition: &[usize],
    inputs: &[Vec<F25>],
    noise: &[Vec<F25>],
) -> AttackOutcome {
    let encodings = scheme.encode(inputs, noise);
    let a2 = scheme.a2_block();
    let rows: Vec<usize> = (0..a2.rows()).collect();
    let a2_coal = a2.submatrix(&rows, coalition);
    let observations: Vec<Vec<F25>> =
        coalition.iter().map(|&j| encodings[j].clone()).collect();
    noise_cancellation_attack(&a2_coal, &observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DarknightConfig;
    use crate::session::DarknightSession;
    use dk_field::QuantConfig;
    use dk_gpu::collusion::chi_square_threshold_999;
    use dk_linalg::Tensor;
    use dk_nn::layers::{Dense, Flatten, Layer};
    use dk_nn::Sequential;

    #[test]
    fn real_session_gpu_view_is_uniform() {
        // Run a real private forward and test everything the workers saw.
        let cfg = DarknightConfig::new(2, 1).with_seed(31);
        let cluster = GpuCluster::honest(cfg.workers_required(), 32);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(512, 16, 1)),
        ]);
        // Highly structured (non-uniform) input data. Train-mode
        // forwards: those store the encodings on the workers, which is
        // what populates the observation record this test audits (the
        // masked job inputs are distributed identically either way).
        let x = Tensor::from_fn(&[2, 2, 16, 16], |i| if i % 2 == 0 { 0.5 } else { -0.5 });
        for _ in 0..12 {
            let _ = session.private_forward(&mut model, &x, true).unwrap();
        }
        let buckets = 16;
        let chi2 = gpu_view_chi_square(session.cluster(), buckets).unwrap();
        assert!(
            chi2 < chi_square_threshold_999(buckets - 1),
            "GPU view failed uniformity: chi2={chi2}"
        );
    }

    #[test]
    fn raw_quantized_data_is_not_uniform() {
        // Sanity check of the test's power: the *unmasked* quantized
        // data fails the same uniformity test by orders of magnitude.
        let quant = QuantConfig::new(8);
        let values: Vec<F25> = (0..20_000)
            .map(|i| quant.quantize::<P25>(((i % 100) as f64 - 50.0) / 64.0).unwrap())
            .collect();
        let chi2 = uniformity_chi_square(&values, 16);
        assert!(chi2 > chi_square_threshold_999(15) * 100.0);
    }

    #[test]
    fn distinguishing_advantage_is_negligible() {
        // The adversary's world-1 representative is `+0.9` quantized.
        assert_eq!(QuantConfig::new(8).quantize::<P25>(0.9).unwrap(), F25::new(230));
        let adv = distinguishing_advantage(2, 1, 64, 400, 33);
        assert!(adv < 0.15, "advantage={adv}");
    }

    #[test]
    fn collusion_boundary_is_exact() {
        let mut rng = FieldRng::seed_from(34);
        let (k, m, n) = (2, 2, 32);
        let scheme = EncodingScheme::generate(k, m, false, &mut rng);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| rng.uniform_vec::<P25>(n)).collect();
        // Coalition of size M: no breach.
        let ok = audit_collusion_boundary(&scheme, &[0, 2], &inputs, &noise);
        assert!(!ok.is_breach());
        // Coalition of size M+1: breach (the audit proves tolerance is
        // tight, exactly as §4.5 claims).
        let bad = audit_collusion_boundary(&scheme, &[0, 1, 3], &inputs, &noise);
        assert!(bad.is_breach());
    }
}
