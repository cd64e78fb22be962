//! Reference kernels: the original scalar implementations that reduce
//! on **every** multiply-accumulate, and the scalar loops of the TEE's
//! element passes (pooling, ReLU, bias, batch-norm's affine step, the
//! max-abs scan).
//!
//! These are the pre-optimization code paths, preserved verbatim for two
//! jobs:
//!
//! * the oracle in the fast-vs-naive property tests (the fast kernels
//!   must be bit-for-bit identical to these — field arithmetic is exact,
//!   and the float loops accumulate in the same per-element order), and
//! * the "before" side of the `dk_bench` speedup measurements.
//!
//! Do not use them on hot paths; use the [`mod@crate::matmul`],
//! [`mod@crate::pool`] and [`mod@crate::ops`] kernels.

use crate::pool::Pool2dShape;
use crate::scalar::Scalar;
use crate::tensor::Tensor;

/// `C[m×n] = A[m×k] · B[k×n]`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    let mut c = vec![T::zero(); m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &aip) in arow.iter().enumerate() {
            if aip == T::zero() {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aip * bj;
            }
        }
    }
    c
}

/// `C[m×n] = Aᵀ · B` with `A` stored `k×m`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul_at_b<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    let mut c = vec![T::zero(); m * n];
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &api) in arow.iter().enumerate() {
            if api == T::zero() {
                continue;
            }
            let crow = &mut c[i * n..(i + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += api * bj;
            }
        }
    }
    c
}

/// `C[m×n] = A · Bᵀ` with `B` stored `n×k`, reducing after every product.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn naive_matmul_a_bt<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    let mut c = vec![T::zero(); m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = T::zero();
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// `outs[r] += Σ_p coeff[r·cstride + col0 + p] · x[p]` — the coded
/// combine (coefficient rows against separately stored stacked rows),
/// reducing after every product. Oracle for the streaming
/// [`crate::coded`] kernels: same ascending-`p` order, same zero-skip.
///
/// # Panics
///
/// Panics if row lengths differ or `coeff` is too small.
pub fn naive_coded_combine_acc<T: Scalar, S: AsRef<[T]>>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
) {
    for (r, out) in outs.iter_mut().enumerate() {
        for (p, xr) in x.iter().enumerate() {
            let c = coeff[r * cstride + col0 + p];
            if c == T::zero() {
                continue;
            }
            let xr = xr.as_ref();
            assert_eq!(xr.len(), out.len(), "row length");
            for (o, &v) in out.iter_mut().zip(xr) {
                *o += c * v;
            }
        }
    }
}

// --- The TEE's element passes, as scalar loops -------------------------
//
// The branchy per-element loops the enclave's non-linear pass ran
// before those passes became tier bodies: the oracles of the per-tier
// tests (every output and argmax bit-equal) and the "before" side of
// the `dk_bench` rows.

/// Max pooling forward over an NCHW tensor: per window, the taps in
/// row-major order, a tap winning only if strictly greater than the
/// best so far (from `−∞`). `arg` receives each output's flat input
/// index, `usize::MAX` where no tap beat `−∞` (every tap NaN or `−∞`).
///
/// # Panics
///
/// Panics if `x` is not NCHW or the window does not fit.
pub fn naive_maxpool2d_forward(
    x: &Tensor<f32>,
    s: &Pool2dShape,
    arg: &mut Vec<usize>,
) -> Tensor<f32> {
    assert_eq!(x.ndim(), 4, "input must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw((h, w));
    let mut y = Tensor::zeros(&[n, c, oh, ow]);
    arg.clear();
    arg.resize(n * c * oh * ow, 0usize);
    let xs = x.as_slice();
    let mut oidx = 0;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = usize::MAX;
                    for ky in 0..s.kernel.0 {
                        let iy = (oy * s.stride.0 + ky) as isize - s.padding.0 as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..s.kernel.1 {
                            let ix = (ox * s.stride.1 + kx) as isize - s.padding.1 as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = base + iy as usize * w + ix as usize;
                            if xs[idx] > best {
                                best = xs[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    y.as_mut_slice()[oidx] = best;
                    arg[oidx] = best_idx;
                    oidx += 1;
                }
            }
        }
    }
    y
}

/// ReLU in place, `max(0, x)` with NaN and `−0.0` going to `+0.0`.
pub fn naive_relu_in_place(y: &mut [f32]) {
    for v in y {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// ReLU backward: `dy` where the forward input was positive, else 0.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn naive_relu_backward(dy: &[f32], x: &[f32]) -> Vec<f32> {
    assert_eq!(dy.len(), x.len(), "relu gradient shape mismatch");
    dy.iter().zip(x).map(|(&g, &v)| if v > 0.0 { g } else { 0.0 }).collect()
}

/// Adds a per-channel bias to an NCHW tensor in place.
///
/// # Panics
///
/// Panics if `y` is not 4-D or `bias` is not one entry per channel.
pub fn naive_add_bias_nchw(y: &mut Tensor<f32>, bias: &[f32]) {
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
/// Panics if `y` is not 2-D or `bias` is not one entry per feature.
pub fn naive_add_bias_rows(y: &mut Tensor<f32>, bias: &[f32]) {
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

/// Batch normalization's affine step over an NCHW tensor, channel by
/// channel: `xhat = (x − mean[c]) · inv_std[c]`, `y = γ[c] · xhat + β[c]`,
/// both written out.
///
/// # Panics
///
/// Panics if `x` is not 4-D or a per-channel slice is short.
pub fn naive_batchnorm_affine(
    x: &Tensor<f32>,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
) -> (Tensor<f32>, Tensor<f32>) {
    assert_eq!(x.ndim(), 4);
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let plane = h * w;
    let mut y = Tensor::zeros(x.shape());
    let mut xhat = Tensor::zeros(x.shape());
    for ci in 0..c {
        for ni in 0..n {
            let base = (ni * c + ci) * plane;
            for i in base..base + plane {
                let xh = (x.as_slice()[i] - mean[ci]) * inv_std[ci];
                xhat.as_mut_slice()[i] = xh;
                y.as_mut_slice()[i] = gamma[ci] * xh + beta[ci];
            }
        }
    }
    (y, xhat)
}

/// The largest `|v|` of a slice, NaN ignored, 0 for an empty or
/// all-NaN one: one dependent `max` per element.
pub fn naive_max_abs(vs: &[f32]) -> f32 {
    vs.iter().fold(0.0f32, |m, v| m.max(v.abs()))
}
