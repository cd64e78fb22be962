//! Softmax cross-entropy loss.

use dk_linalg::ops::softmax_rows;
use dk_linalg::Tensor;

/// Softmax cross-entropy over a `[n, classes]` logit matrix.
///
/// Returns `(mean_loss, dlogits)` where `dlogits` is the gradient of the
/// mean loss with respect to the logits — i.e. `(softmax − onehot)/n`,
/// ready to feed into [`crate::Sequential::backward`].
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is
/// out of range.
pub fn softmax_cross_entropy(logits: &Tensor<f32>, labels: &[usize]) -> (f32, Tensor<f32>) {
    assert_eq!(logits.ndim(), 2, "logits must be [n, classes]");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), n, "one label per sample");
    let probs = softmax_rows(logits);
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    let inv_n = 1.0 / n as f32;
    for (ni, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let p = probs.get(&[ni, label]).max(1e-12);
        loss -= p.ln();
        let g = grad.as_mut_slice();
        g[ni * c + label] -= 1.0;
    }
    for g in grad.as_mut_slice() {
        *g *= inv_n;
    }
    (loss * inv_n, grad)
}

/// Classification accuracy of a logit matrix against labels.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor<f32>, labels: &[usize]) -> f32 {
    let preds = dk_linalg::ops::argmax_rows(logits);
    assert_eq!(preds.len(), labels.len());
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_low_loss() {
        let logits = Tensor::from_vec(&[1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6, "loss={loss}");
    }

    #[test]
    fn uniform_prediction_log_c_loss() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[1, 3]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 0.5, -1.0, 0.0, 3.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for ni in 0..2 {
            let s: f32 = grad.as_slice()[ni * 3..(ni + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_numerical() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        let labels = [1usize, 2];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for p in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[p] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[p] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.as_slice()[p]).abs() < 1e-4, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor::zeros(&[1, 3]);
        let _ = softmax_cross_entropy(&logits, &[3]);
    }

    #[test]
    fn accuracy_counts() {
        let logits =
            Tensor::from_vec(&[3, 2], vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_scores_a_diverged_model() {
        // The sign-set NaN x86 arithmetic produces (`∞ − ∞`) ranks
        // below every number.
        let nan = f32::from_bits(0xffc0_0000);
        let logits = Tensor::from_vec(&[2, 2], vec![nan, 0.3, 0.6, 0.4]);
        assert!((accuracy(&logits, &[1, 0]) - 1.0).abs() < 1e-6);
    }
}
