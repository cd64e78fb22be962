//! Elementwise and activation operations (TEE-side, float domain).
//!
//! ReLU, bias addition, softmax and friends are the paper's "non-linear"
//! category: they always run inside the enclave on decoded plaintext
//! (§3.1 step 6), so they are float-only.
//!
//! The element passes between two offloads — ReLU both ways, the bias
//! adds and batch-norm's affine step — are branch-free loops compiled
//! once per vector tier ([`Tier::run`]), one body per pass. None of them
//! reassociates anything, so every tier writes the bits of the scalar
//! loops in [`crate::reference`] (up to which NaN an addition of two
//! NaNs returns, the instruction's choice), which the tests below check
//! on every tier.

use crate::tensor::Tensor;
use dk_field::tier::{Body, Tier, Width};

/// The one ReLU gate predicate: the forward and backward passes below (and
/// therefore every execution path — clear-text reference and private
/// alike) routes through this, so the gating can never silently diverge
/// between paths. A select, not a branch: NaN and `−0.0` gate to `+0.0`.
#[inline(always)]
fn relu_gate(v: f32, pass: f32) -> f32 {
    if v > 0.0 {
        pass
    } else {
        0.0
    }
}

/// ReLU forward, `x > 0 ? x : 0` elementwise, in one pass from `x` into
/// `y`, whose previous contents are ignored (a dirty workspace buffer
/// will do).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn relu_into(x: &Tensor<f32>, y: &mut Tensor<f32>) {
    relu_on(Tier::best(), x, y);
}

fn relu_on(tier: Tier, x: &Tensor<f32>, y: &mut Tensor<f32>) {
    assert_eq!(x.shape(), y.shape(), "relu output shape mismatch");
    tier.run(Relu { x: x.as_slice(), y: y.as_mut_slice() });
}

struct Relu<'a> {
    x: &'a [f32],
    y: &'a mut [f32],
}

impl Body for Relu<'_> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        for (d, &v) in self.y.iter_mut().zip(self.x) {
            *d = relu_gate(v, v);
        }
    }
}

/// ReLU backward: gates `dy` by the sign of the forward *input*,
/// writing into a caller-provided tensor.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relu_backward_into(dy: &Tensor<f32>, x: &Tensor<f32>, dx: &mut Tensor<f32>) {
    relu_backward_on(Tier::best(), dy, x, dx);
}

fn relu_backward_on(tier: Tier, dy: &Tensor<f32>, x: &Tensor<f32>, dx: &mut Tensor<f32>) {
    assert_eq!(dy.shape(), x.shape(), "relu gradient shape mismatch");
    assert_eq!(dy.shape(), dx.shape(), "relu output shape mismatch");
    tier.run(ReluBackward { dy: dy.as_slice(), x: x.as_slice(), dx: dx.as_mut_slice() });
}

struct ReluBackward<'a> {
    dy: &'a [f32],
    x: &'a [f32],
    dx: &'a mut [f32],
}

impl Body for ReluBackward<'_> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        for ((d, &g), &v) in self.dx.iter_mut().zip(self.dy).zip(self.x) {
            *d = relu_gate(v, g);
        }
    }
}

/// Adds a per-output-channel bias to an NCHW tensor in place.
///
/// # Panics
///
/// Panics if `bias.len()` differs from the channel count.
pub fn add_bias_nchw(y: &mut Tensor<f32>, bias: &[f32]) {
    add_bias_on(Tier::best(), y, bias, 4);
}

/// Adds a per-feature bias to a `[n, f]` matrix in place.
///
/// # Panics
///
/// Panics if `bias.len()` differs from the feature count.
pub fn add_bias_rows(y: &mut Tensor<f32>, bias: &[f32]) {
    add_bias_on(Tier::best(), y, bias, 2);
}

/// Both bias adds: `bias[i]` goes onto every element of the `i`-th
/// run of `stride` elements along dimension 1 (an NCHW plane, or one
/// element of a `[n, f]` row), cycling over the batch.
fn add_bias_on(tier: Tier, y: &mut Tensor<f32>, bias: &[f32], ndim: usize) {
    assert_eq!(y.ndim(), ndim);
    let stride: usize = y.shape()[2..].iter().product();
    assert_eq!(bias.len(), y.shape()[1], "bias per channel or feature");
    if y.is_empty() {
        return;
    }
    tier.run(AddBias { y: y.as_mut_slice(), bias, stride });
}

struct AddBias<'a> {
    y: &'a mut [f32],
    bias: &'a [f32],
    stride: usize,
}

impl Body for AddBias<'_> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Self { y, bias, stride } = self;
        if stride == 1 {
            for row in y.chunks_exact_mut(bias.len()) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        } else {
            for (run, &b) in y.chunks_exact_mut(stride).zip(bias.iter().cycle()) {
                for v in run {
                    *v += b;
                }
            }
        }
    }
}

/// Batch normalization's affine step over an NCHW tensor, in one pass
/// per channel plane: `y = γ[c] · ((x − mean[c]) · inv_std[c]) + β[c]`,
/// and the normalized `(x − mean[c]) · inv_std[c]` into `xhat` when a
/// training forward needs it for its backward. `y` and `xhat` are
/// written in full (dirty buffers will do).
///
/// # Panics
///
/// Panics if `x` is not 4-D, `y` (or `xhat`) differs from it in shape,
/// or a per-channel slice is not one entry per channel.
pub fn batchnorm_affine_into(
    x: &Tensor<f32>,
    stats: [&[f32]; 4],
    y: &mut Tensor<f32>,
    xhat: Option<&mut Tensor<f32>>,
) {
    batchnorm_affine_on(Tier::best(), x, stats, y, xhat);
}

fn batchnorm_affine_on(
    tier: Tier,
    x: &Tensor<f32>,
    stats: [&[f32]; 4],
    y: &mut Tensor<f32>,
    xhat: Option<&mut Tensor<f32>>,
) {
    assert_eq!(x.ndim(), 4, "batch norm expects NCHW");
    assert_eq!(x.shape(), y.shape(), "batch norm output shape mismatch");
    let c = x.shape()[1];
    assert!(stats.iter().all(|s| s.len() == c), "one statistic per channel");
    let plane = x.shape()[2] * x.shape()[3];
    if x.is_empty() {
        return;
    }
    let xhat = xhat.map(|t| {
        assert_eq!(t.shape(), x.shape(), "batch norm cache shape mismatch");
        t.as_mut_slice()
    });
    tier.run(Affine { x: x.as_slice(), stats, plane, y: y.as_mut_slice(), xhat });
}

struct Affine<'a> {
    x: &'a [f32],
    /// `[mean, inv_std, γ, β]`, one entry per channel each.
    stats: [&'a [f32]; 4],
    plane: usize,
    y: &'a mut [f32],
    xhat: Option<&'a mut [f32]>,
}

impl Body for Affine<'_> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Self { x, stats: [mean, inv_std, gamma, beta], plane, y, xhat } = self;
        let c = mean.len();
        let planes = x.chunks_exact(plane).zip(y.chunks_exact_mut(plane));
        match xhat {
            Some(xhat) => {
                for (p, ((xp, yp), hp)) in planes.zip(xhat.chunks_exact_mut(plane)).enumerate() {
                    let ci = p % c;
                    let (m, s, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                    for ((d, h), &v) in yp.iter_mut().zip(hp).zip(xp) {
                        let xh = (v - m) * s;
                        *h = xh;
                        *d = g * xh + b;
                    }
                }
            }
            None => {
                for (p, (xp, yp)) in planes.enumerate() {
                    let ci = p % c;
                    let (m, s, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                    for (d, &v) in yp.iter_mut().zip(xp) {
                        *d = g * ((v - m) * s) + b;
                    }
                }
            }
        }
    }
}

/// Gradient of the NCHW bias — `dy` summed over batch and spatial
/// dims — added into `g` (one entry per channel; zero it for the
/// gradient itself).
///
/// # Panics
///
/// Panics if `dy` is not 4-D or `g` is not one entry per channel.
pub fn bias_grad_nchw_into(dy: &Tensor<f32>, g: &mut [f32]) {
    assert_eq!(dy.ndim(), 4);
    let (n, c, h, w) = (dy.shape()[0], dy.shape()[1], dy.shape()[2], dy.shape()[3]);
    assert_eq!(g.len(), c, "one bias gradient per channel");
    let plane = h * w;
    for ni in 0..n {
        for (ci, gc) in g.iter_mut().enumerate() {
            let base = (ni * c + ci) * plane;
            *gc += dy.as_slice()[base..base + plane].iter().sum::<f32>();
        }
    }
}

/// Gradient of the row bias — `dy` summed over the batch dimension —
/// added into `g` (one entry per column; zero it for the gradient
/// itself).
///
/// # Panics
///
/// Panics if `dy` is not 2-D or `g` is not one entry per column.
pub fn bias_grad_rows_into(dy: &Tensor<f32>, g: &mut [f32]) {
    assert_eq!(dy.ndim(), 2);
    let (n, f) = (dy.shape()[0], dy.shape()[1]);
    assert_eq!(g.len(), f, "one bias gradient per column");
    for ni in 0..n {
        for (gi, &v) in g.iter_mut().zip(&dy.as_slice()[ni * f..(ni + 1) * f]) {
            *gi += v;
        }
    }
}

/// Numerically-stable row softmax of a `[n, classes]` matrix, in
/// place.
///
/// # Panics
///
/// Panics if `out` is not 2-D.
pub fn softmax_rows_in_place(out: &mut Tensor<f32>) {
    assert_eq!(out.ndim(), 2);
    let (n, f) = (out.shape()[0], out.shape()[1]);
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
pub fn argmax_rows(x: &Tensor<f32>) -> impl Iterator<Item = usize> + '_ {
    assert_eq!(x.ndim(), 2);
    let f = x.shape()[1];
    assert!(f > 0);
    x.as_slice().chunks_exact(f).map(move |row| {
        (1..f).fold(0, |best, i| if row[i].total_cmp(&row[best]).is_ge() { i } else { best })
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::{
        naive_add_bias_nchw, naive_add_bias_rows, naive_batchnorm_affine, naive_relu_backward,
        naive_relu_in_place,
    };

    /// Deterministic floats for the per-tier tests: about a third from
    /// the awkward cases (NaN of both signs, `±0.0`, `±∞`, a subnormal,
    /// exact ties), the rest ordinary values of both signs.
    pub(crate) fn tricky_f32(seed: u64, len: usize) -> Vec<f32> {
        const SPECIAL: [f32; 10] = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-40,
            1.0,
            -1.0,
            0.5,
        ];
        (0..len)
            .map(|i| {
                let w = dk_field::derive_seed(seed, i as u64);
                if w.is_multiple_of(3) {
                    SPECIAL[(w >> 8) as usize % SPECIAL.len()]
                } else {
                    ((w >> 16) % 2001) as f32 / 250.0 - 4.0
                }
            })
            .collect()
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN as one: which NaN an arithmetic operation
    /// on two NaN operands (or `∞ − ∞`) returns is the instruction's
    /// choice, not the program's, and may differ with operand order.
    pub(crate) fn value_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    #[test]
    fn relu_passes_are_the_scalar_loops_on_every_tier() {
        for tier in Tier::offered() {
            for len in (0..=70).chain([1023, 4099]) {
                let x = Tensor::from_vec(&[len], tricky_f32(0x5e1 + len as u64, len));
                let dy = Tensor::from_vec(&[len], tricky_f32(0xd1 + len as u64, len));
                let mut want = x.as_slice().to_vec();
                naive_relu_in_place(&mut want);
                let mut y = Tensor::from_vec(&[len], vec![f32::NAN; len]);
                relu_on(tier, &x, &mut y);
                assert_eq!(bits(y.as_slice()), bits(&want), "{tier:?} forward len={len}");
                let mut dx = Tensor::from_vec(&[len], vec![f32::NAN; len]);
                relu_backward_on(tier, &dy, &x, &mut dx);
                let want = naive_relu_backward(dy.as_slice(), x.as_slice());
                assert_eq!(bits(dx.as_slice()), bits(&want), "{tier:?} backward len={len}");
            }
        }
    }

    #[test]
    fn bias_adds_are_the_scalar_loops_on_every_tier() {
        for tier in Tier::offered() {
            for (i, shape) in
                [[2, 3, 5, 7], [1, 4, 1, 1], [3, 2, 4, 4], [2, 5, 3, 1], [2, 3, 0, 4], [1, 17, 9, 11]]
                    .iter()
                    .enumerate()
            {
                let len = shape.iter().product();
                let bias = tricky_f32(0xb1a5 + i as u64, shape[1]);
                let mut want = Tensor::from_vec(shape, tricky_f32(0x7e + i as u64, len));
                let mut got = want.clone();
                naive_add_bias_nchw(&mut want, &bias);
                add_bias_on(tier, &mut got, &bias, 4);
                assert_eq!(value_bits(got.as_slice()), value_bits(want.as_slice()), "{tier:?} {shape:?}");
            }
            for (i, shape) in [[3, 17], [1, 1], [0, 5], [4, 64], [2, 33]].iter().enumerate() {
                let len = shape.iter().product();
                let bias = tricky_f32(0xfea + i as u64, shape[1]);
                let mut want = Tensor::from_vec(shape, tricky_f32(0x12 + i as u64, len));
                let mut got = want.clone();
                naive_add_bias_rows(&mut want, &bias);
                add_bias_on(tier, &mut got, &bias, 2);
                assert_eq!(value_bits(got.as_slice()), value_bits(want.as_slice()), "{tier:?} {shape:?}");
            }
        }
    }

    #[test]
    fn batchnorm_affine_is_the_scalar_loop_on_every_tier() {
        for tier in Tier::offered() {
            for (i, shape) in [[2, 3, 5, 7], [4, 2, 1, 1], [1, 16, 8, 8], [3, 5, 3, 9]].iter().enumerate() {
                let (c, len) = (shape[1], shape.iter().product());
                let x = Tensor::from_vec(shape, tricky_f32(0xb0 + i as u64, len));
                let stat = |seed: u64| -> Vec<f32> {
                    tricky_f32(seed, c).iter().map(|v| if v.is_nan() { 0.25 } else { *v }).collect()
                };
                let (mean, inv_std, gamma, beta) = (stat(1), stat(2), stat(3), stat(4));
                let stats = [&mean[..], &inv_std[..], &gamma[..], &beta[..]];
                let (want_y, want_xhat) = naive_batchnorm_affine(&x, &mean, &inv_std, &gamma, &beta);
                let mut y = Tensor::from_vec(shape, vec![f32::NAN; len]);
                let mut xhat = Tensor::from_vec(shape, vec![f32::NAN; len]);
                batchnorm_affine_on(tier, &x, stats, &mut y, Some(&mut xhat));
                assert_eq!(value_bits(y.as_slice()), value_bits(want_y.as_slice()), "{tier:?} {shape:?}");
                assert_eq!(value_bits(xhat.as_slice()), value_bits(want_xhat.as_slice()), "{tier:?} {shape:?}");
                let mut y = Tensor::from_vec(shape, vec![f32::NAN; len]);
                batchnorm_affine_on(tier, &x, stats, &mut y, None);
                assert_eq!(value_bits(y.as_slice()), value_bits(want_y.as_slice()), "{tier:?} {shape:?} eval");
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -0.5]);
        let mut y = Tensor::from_vec(&[4], vec![f32::NAN; 4]);
        relu_into(&x, &mut y);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
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
        let mut g = vec![1.0; 3];
        bias_grad_nchw_into(&dy, &mut g);
        assert_eq!(g, vec![9.0, 9.0, 9.0], "added into what g held");
    }

    #[test]
    fn bias_rows_and_grad() {
        let mut y = Tensor::zeros(&[2, 3]);
        add_bias_rows(&mut y, &[1.0, 2.0, 3.0]);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let dy = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let mut g = vec![0.0; 3];
        bias_grad_rows_into(&dy, &mut g);
        assert_eq!(g, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut s = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows_in_place(&mut s);
        for ni in 0..2 {
            let sum: f32 = s.as_slice()[ni * 3..(ni + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(s.get(&[0, 2]) > s.get(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut sa = Tensor::from_vec(&[1, 3], vec![1000.0, 1001.0, 1002.0]);
        let mut sb = Tensor::from_vec(&[1, 3], vec![0.0, 1.0, 2.0]);
        softmax_rows_in_place(&mut sa);
        softmax_rows_in_place(&mut sb);
        assert!(sa.max_abs_diff(&sb) < 1e-6);
        assert!(sa.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn argmax_rows_basic() {
        let x = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.2, 0.7, 0.1, 0.3]);
        assert_eq!(argmax_rows(&x).collect::<Vec<_>>(), vec![1, 0]);
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
        assert_eq!(argmax_rows(&x).collect::<Vec<_>>(), vec![1, 0, 2, 1]);
    }
}
