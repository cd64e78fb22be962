//! Elementwise and activation operations (TEE-side, float domain).
//!
//! ReLU, bias addition, softmax and friends are the paper's "non-linear"
//! category: they always run inside the enclave on decoded plaintext
//! (§3.1 step 6), so they are float-only.

use crate::tensor::Tensor;

/// The one ReLU gate predicate: the forward and backward passes below (and
/// therefore every execution path — clear-text reference and private
/// alike) routes through this, so the gating can never silently diverge
/// between paths.
#[inline]
fn relu_gate(v: f32, pass: f32) -> f32 {
    if v > 0.0 {
        pass
    } else {
        0.0
    }
}

/// ReLU forward in place, `max(0, x)` elementwise (callers copy `x`
/// into a recycled buffer first).
pub fn relu_in_place(y: &mut Tensor<f32>) {
    for v in y.as_mut_slice() {
        *v = relu_gate(*v, *v);
    }
}

/// ReLU backward: gates `dy` by the sign of the forward *input*,
/// writing into a caller-provided tensor.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relu_backward_into(dy: &Tensor<f32>, x: &Tensor<f32>, dx: &mut Tensor<f32>) {
    assert_eq!(dy.shape(), x.shape(), "relu gradient shape mismatch");
    assert_eq!(dy.shape(), dx.shape(), "relu output shape mismatch");
    for ((d, &g), &v) in dx.as_mut_slice().iter_mut().zip(dy.as_slice()).zip(x.as_slice()) {
        *d = relu_gate(v, g);
    }
}

/// Adds a per-output-channel bias to an NCHW tensor in place.
///
/// # Panics
///
/// Panics if `bias.len()` differs from the channel count.
pub fn add_bias_nchw(y: &mut Tensor<f32>, bias: &[f32]) {
    assert_eq!(y.ndim(), 4);
    let (n, c, h, w) = (y.shape()[0], y.shape()[1], y.shape()[2], y.shape()[3]);
    assert_eq!(bias.len(), c, "bias per channel");
    let plane = h * w;
    let ys = y.as_mut_slice();
    for ni in 0..n {
        for (ci, &b) in bias.iter().enumerate() {
            let base = (ni * c + ci) * plane;
            for v in &mut ys[base..base + plane] {
                *v += b;
            }
        }
    }
}

/// Adds a per-feature bias to a `[n, f]` matrix in place.
///
/// # Panics
///
/// Panics if `bias.len()` differs from the feature count.
pub fn add_bias_rows(y: &mut Tensor<f32>, bias: &[f32]) {
    assert_eq!(y.ndim(), 2);
    let (n, f) = (y.shape()[0], y.shape()[1]);
    assert_eq!(bias.len(), f, "bias per feature");
    let ys = y.as_mut_slice();
    for ni in 0..n {
        for (v, &b) in ys[ni * f..(ni + 1) * f].iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Gradient of the NCHW bias: sums `dy` over batch and spatial dims.
///
/// # Panics
///
/// Panics if `dy` is not 4-D.
pub fn bias_grad_nchw(dy: &Tensor<f32>) -> Vec<f32> {
    assert_eq!(dy.ndim(), 4);
    let (n, c, h, w) = (dy.shape()[0], dy.shape()[1], dy.shape()[2], dy.shape()[3]);
    let plane = h * w;
    let mut g = vec![0.0f32; c];
    for ni in 0..n {
        for (ci, gc) in g.iter_mut().enumerate() {
            let base = (ni * c + ci) * plane;
            *gc += dy.as_slice()[base..base + plane].iter().sum::<f32>();
        }
    }
    g
}

/// Gradient of the row bias: sums `dy` over the batch dimension.
///
/// # Panics
///
/// Panics if `dy` is not 2-D.
pub fn bias_grad_rows(dy: &Tensor<f32>) -> Vec<f32> {
    assert_eq!(dy.ndim(), 2);
    let (n, f) = (dy.shape()[0], dy.shape()[1]);
    let mut g = vec![0.0f32; f];
    for ni in 0..n {
        for (gi, &v) in g.iter_mut().zip(&dy.as_slice()[ni * f..(ni + 1) * f]) {
            *gi += v;
        }
    }
    g
}

/// Numerically-stable row softmax for a `[n, classes]` matrix.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn softmax_rows(x: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(x.ndim(), 2);
    let (n, f) = (x.shape()[0], x.shape()[1]);
    let mut out = x.clone();
    for ni in 0..n {
        let row = &mut out.as_mut_slice()[ni * f..(ni + 1) * f];
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut z = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
        let inv = 1.0 / z;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Index of the maximum element of each row of a `[n, f]` matrix; of
/// equal maxima, the last.
///
/// Elements are ordered by [`f32::total_cmp`], so a diverged model's
/// logits still score instead of panicking: a NaN with the sign bit
/// clear ranks above `+∞`, one with it set (what x86 arithmetic
/// produces, e.g. `∞ − ∞`) below `−∞`, and `−0.0` below `+0.0`.
///
/// # Panics
///
/// Panics if `x` is not 2-D or has zero-width rows.
pub fn argmax_rows(x: &Tensor<f32>) -> Vec<usize> {
    assert_eq!(x.ndim(), 2);
    let f = x.shape()[1];
    assert!(f > 0);
    x.as_slice()
        .chunks_exact(f)
        .map(|row| {
            (1..f).fold(0, |best, i| if row[i].total_cmp(&row[best]).is_ge() { i } else { best })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -0.5]);
        relu_in_place(&mut x);
        assert_eq!(x.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_gates() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.5, 2.0, -0.5]);
        let dy = Tensor::from_vec(&[4], vec![10.0, 10.0, 10.0, 10.0]);
        let mut dx = Tensor::from_vec(&[4], vec![-7.0; 4]);
        relu_backward_into(&dy, &x, &mut dx);
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 10.0, 0.0]);
    }

    #[test]
    fn bias_nchw_and_grad_are_adjoint() {
        let mut y = Tensor::zeros(&[2, 3, 2, 2]);
        add_bias_nchw(&mut y, &[1.0, 2.0, 3.0]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.get(&[1, 2, 1, 1]), 3.0);
        // grad of sum-loss wrt bias = count of elements per channel.
        let dy = Tensor::ones(&[2, 3, 2, 2]);
        assert_eq!(bias_grad_nchw(&dy), vec![8.0, 8.0, 8.0]);
    }

    #[test]
    fn bias_rows_and_grad() {
        let mut y = Tensor::zeros(&[2, 3]);
        add_bias_rows(&mut y, &[1.0, 2.0, 3.0]);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let dy = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(bias_grad_rows(&dy), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&x);
        for ni in 0..2 {
            let sum: f32 = s.as_slice()[ni * 3..(ni + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(s.get(&[0, 2]) > s.get(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(&[1, 3], vec![1000.0, 1001.0, 1002.0]);
        let b = Tensor::from_vec(&[1, 3], vec![0.0, 1.0, 2.0]);
        let sa = softmax_rows(&a);
        let sb = softmax_rows(&b);
        assert!(sa.max_abs_diff(&sb) < 1e-6);
        assert!(sa.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn argmax_rows_basic() {
        let x = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.2, 0.7, 0.1, 0.3]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_ranks_nan_by_total_order() {
        let (nan, neg_nan) = (f32::from_bits(0x7fc0_0000), f32::from_bits(0xffc0_0000));
        let x = Tensor::from_vec(
            &[4, 3],
            vec![0.1, nan, 0.2, 0.7, neg_nan, 0.3, nan, nan, nan, 0.5, 0.5, f32::NEG_INFINITY],
        );
        // A positive NaN beats every number, a negative one loses to
        // every number; equal maxima go to the last index.
        assert_eq!(argmax_rows(&x), vec![1, 0, 2, 1]);
    }
}
