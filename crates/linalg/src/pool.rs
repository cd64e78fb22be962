//! Pooling kernels.
//!
//! Pooling is a *non-linear* operation in DarKnight's taxonomy: it always
//! executes inside the TEE on plaintext floats (§3.1, step 6), never on
//! the masked GPUs. The kernels are therefore implemented for `f32` only.
//!
//! Max pooling runs as a branch-free body compiled once per vector tier
//! ([`Tier::run`]). Each output takes its window's taps in row-major
//! order, a tap winning only when strictly greater than the best so far
//! (from `−∞`): the first of equal maxima wins (post-ReLU zero ties are
//! the common case) and a NaN never does. The outputs and the argmax
//! are those of the scalar loop in [`crate::reference`], on every tier.
//! The 2×2 / stride-2 window, every pool of `dk_nn::arch`, has its own
//! pass over two input rows at a time.

use crate::im2col::out_hw;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use dk_field::tier::{Body, Tier, Width};

/// Static geometry of a 2-D pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dShape {
    /// Pooling window.
    pub kernel: (usize, usize),
    /// Stride.
    pub stride: (usize, usize),
    /// Symmetric zero padding.
    pub padding: (usize, usize),
}

impl Pool2dShape {
    /// Creates a pooling descriptor.
    ///
    /// # Panics
    ///
    /// Panics if any kernel/stride dimension is zero.
    pub fn new(kernel: (usize, usize), stride: (usize, usize), padding: (usize, usize)) -> Self {
        assert!(kernel.0 > 0 && kernel.1 > 0 && stride.0 > 0 && stride.1 > 0);
        Self { kernel, stride, padding }
    }

    /// The standard `k×k` window with stride `k` (non-overlapping).
    pub fn square(k: usize) -> Self {
        Self::new((k, k), (k, k), (0, 0))
    }

    /// Output spatial size for the given input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn out_hw(&self, hw: (usize, usize)) -> (usize, usize) {
        out_hw(hw, self.kernel, self.stride, self.padding)
    }
}

/// Max pooling forward with the pooled tensor drawn from `ws`. With
/// `arg`, the flat argmax (into the input tensor) of every output
/// element, which the backward pass scatters gradients through, is
/// written into the caller's reusable vector; an inference forward
/// passes `None` and pays for none of it. An output none of whose taps
/// beats `−∞` (every tap NaN or `−∞`) is `−∞` with argmax `usize::MAX`.
///
/// # Panics
///
/// Panics if `x` is not NCHW or the window does not fit.
pub fn maxpool2d_forward_ws(
    x: &Tensor<f32>,
    s: &Pool2dShape,
    ws: &mut Workspace,
    arg: Option<&mut Vec<usize>>,
) -> Tensor<f32> {
    maxpool2d_forward_on(Tier::best(), x, s, ws, arg)
}

fn maxpool2d_forward_on(
    tier: Tier,
    x: &Tensor<f32>,
    s: &Pool2dShape,
    ws: &mut Workspace,
    arg: Option<&mut Vec<usize>>,
) -> Tensor<f32> {
    assert_eq!(x.ndim(), 4, "input must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw((h, w));
    let mut y = ws.take_tensor_dirty(&[n, c, oh, ow]);
    let arg = arg.map(|a| {
        a.clear();
        a.resize(y.len(), usize::MAX);
        a.as_mut_slice()
    });
    if x.is_empty() {
        // Every window lies in the padding: no tap, no winner.
        y.as_mut_slice().fill(f32::NEG_INFINITY);
    } else {
        let body = MaxPool { x: x.as_slice(), hw: (h, w), s: *s, ohw: (oh, ow), y: y.as_mut_slice(), arg };
        tier.run(body);
    }
    y
}

/// The max-pool forward pass over every plane of the batch.
struct MaxPool<'a> {
    x: &'a [f32],
    hw: (usize, usize),
    s: Pool2dShape,
    ohw: (usize, usize),
    y: &'a mut [f32],
    arg: Option<&'a mut [usize]>,
}

/// The strict-`>` select every tap goes through: `(best, index)` after
/// offering tap `v` at `i`.
#[inline(always)]
fn offer(v: f32, i: usize, best: f32, at: usize) -> (f32, usize) {
    let wins = v > best;
    (if wins { v } else { best }, if wins { i } else { at })
}

impl Body for MaxPool<'_> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Self { x, hw, s, ohw, y, arg } = self;
        if s.kernel == (2, 2) && s.stride == (2, 2) && s.padding == (0, 0) {
            pairs(x, hw, ohw, y, arg);
        } else {
            windows(x, hw, s, ohw, y, arg);
        }
    }
}

/// The 2×2 / stride-2 window: two input rows per output row, four taps
/// per output, one pass. Without `arg` the indices are dead code and
/// the pass is four selects per output. On mini_vgg's first pool
/// (`[4, 16, 32, 32]`) it takes 7–9 µs where [`windows`] takes
/// 140–240 µs (2-vCPU AVX-512 host).
#[inline(always)]
fn pairs(
    x: &[f32],
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    y: &mut [f32],
    mut arg: Option<&mut [usize]>,
) {
    for (p, (xp, yp)) in x.chunks_exact(h * w).zip(y.chunks_exact_mut(oh * ow)).enumerate() {
        for (oy, yr) in yp.chunks_exact_mut(ow).enumerate() {
            let (r0, r1) = (2 * oy * w, (2 * oy + 1) * w);
            let taps = xp[r0..][..2 * ow].chunks_exact(2).zip(xp[r1..][..2 * ow].chunks_exact(2));
            let (i0, i1) = (p * h * w + r0, p * h * w + r1);
            let best = |ox: usize, (a, b): (&[f32], &[f32])| {
                let (m, i) = offer(a[0], i0 + 2 * ox, f32::NEG_INFINITY, usize::MAX);
                let (m, i) = offer(a[1], i0 + 2 * ox + 1, m, i);
                let (m, i) = offer(b[0], i1 + 2 * ox, m, i);
                offer(b[1], i1 + 2 * ox + 1, m, i)
            };
            match arg.as_deref_mut() {
                None => {
                    for (ox, (d, t)) in yr.iter_mut().zip(taps).enumerate() {
                        *d = best(ox, t).0;
                    }
                }
                Some(arg) => {
                    let ar = &mut arg[(p * oh + oy) * ow..][..ow];
                    for (ox, ((d, at), t)) in yr.iter_mut().zip(ar).zip(taps).enumerate() {
                        (*d, *at) = best(ox, t);
                    }
                }
            }
        }
    }
}

/// Any window. The rows a window holds are worked out once per output
/// row and its columns once per window, so a padded border clips its
/// tap range instead of testing every tap, and an interior window reads
/// its rows as plain slices.
#[inline(always)]
fn windows(
    x: &[f32],
    (h, w): (usize, usize),
    s: Pool2dShape,
    (oh, ow): (usize, usize),
    y: &mut [f32],
    mut arg: Option<&mut [usize]>,
) {
    let ((kh, kw), (sy, sx), (py, px)) = (s.kernel, s.stride, s.padding);
    for (p, (xp, yp)) in x.chunks_exact(h * w).zip(y.chunks_exact_mut(oh * ow)).enumerate() {
        for (oy, yr) in yp.chunks_exact_mut(ow).enumerate() {
            // Window rows inside the image: `0 ≤ oy·sy + ky − py < h`.
            let top = oy * sy;
            let rows = py.saturating_sub(top)..kh.min((h + py).saturating_sub(top));
            for (ox, d) in yr.iter_mut().enumerate() {
                let left = ox * sx;
                let kx0 = px.saturating_sub(left);
                let cols = kw.min((w + px).saturating_sub(left)).saturating_sub(kx0);
                let (mut m, mut i) = (f32::NEG_INFINITY, usize::MAX);
                if cols > 0 {
                    for ky in rows.clone() {
                        let at = (top + ky - py) * w + left + kx0 - px;
                        for (j, &v) in xp[at..][..cols].iter().enumerate() {
                            (m, i) = offer(v, p * h * w + at + j, m, i);
                        }
                    }
                }
                *d = m;
                if let Some(arg) = arg.as_deref_mut() {
                    arg[(p * oh + oy) * ow + ox] = i;
                }
            }
        }
    }
}

/// Max pooling backward with the gradient image drawn from `ws`:
/// routes each output gradient to the input element that won the
/// forward max, in output order (overlapping windows accumulate in the
/// order the scalar loop did). An output with no winner (argmax
/// `usize::MAX`, every tap NaN or `−∞`) passes no gradient on.
///
/// # Panics
///
/// Panics if `dy.len() != argmax.len()`, or if an argmax other than
/// `usize::MAX` is out of range.
pub fn maxpool2d_backward_ws(
    dy: &Tensor<f32>,
    argmax: &[usize],
    input_shape: &[usize],
    ws: &mut Workspace,
) -> Tensor<f32> {
    assert_eq!(dy.len(), argmax.len(), "argmax bookkeeping mismatch");
    let mut dx = ws.take_tensor(input_shape);
    let d = dx.as_mut_slice();
    for (&g, &a) in dy.as_slice().iter().zip(argmax) {
        if a != usize::MAX {
            d[a] += g;
        }
    }
    dx
}

/// Global average pooling `[n, c, h, w] → [n, c]` with the output
/// drawn from `ws`.
///
/// # Panics
///
/// Panics if `x` is not NCHW.
pub fn global_avg_pool_forward_ws(x: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
    assert_eq!(x.ndim(), 4, "input must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let inv = 1.0 / (h * w) as f32;
    let mut y = ws.take_tensor(&[n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = x.as_slice()[base..base + h * w].iter().sum();
            y.set(&[ni, ci], s * inv);
        }
    }
    y
}

/// Global average pooling backward with the gradient image drawn from
/// `ws`: broadcasts `dy/(h·w)` over the plane.
///
/// # Panics
///
/// Panics if `dy` is not `[n, c]` matching the input shape.
pub fn global_avg_pool_backward_ws(
    dy: &Tensor<f32>,
    input_shape: &[usize],
    ws: &mut Workspace,
) -> Tensor<f32> {
    assert_eq!(input_shape.len(), 4);
    let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    assert_eq!(dy.shape(), &[n, c], "dy shape mismatch");
    let inv = 1.0 / (h * w) as f32;
    let mut dx = ws.take_tensor(input_shape);
    for ni in 0..n {
        for ci in 0..c {
            let g = dy.get(&[ni, ci]) * inv;
            let base = (ni * c + ci) * h * w;
            for v in &mut dx.as_mut_slice()[base..base + h * w] {
                *v = g;
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tests::{bits, tricky_f32};
    use crate::reference::naive_maxpool2d_forward;

    /// Checks the tier's forward, with and without argmax, against the
    /// scalar loop, bit for bit.
    fn check_against_oracle(tier: Tier, x: &Tensor<f32>, s: &Pool2dShape, what: &str) {
        let mut ws = Workspace::new();
        let mut want_arg = Vec::new();
        let want = naive_maxpool2d_forward(x, s, &mut want_arg);
        let mut arg = vec![7; 3];
        let got = maxpool2d_forward_on(tier, x, s, &mut ws, Some(&mut arg));
        assert_eq!(got.shape(), want.shape(), "{tier:?} {what}");
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{tier:?} {what}");
        assert_eq!(arg, want_arg, "{tier:?} {what} argmax");
        ws.give_tensor(got);
        let got = maxpool2d_forward_on(tier, x, s, &mut ws, None);
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{tier:?} {what} without argmax");
    }

    #[test]
    fn maxpool_is_the_scalar_loop_on_every_tier() {
        let geometries = [
            (Pool2dShape::square(2), [2, 3, 8, 8]),
            // Odd planes: the last input row and column belong to no window.
            (Pool2dShape::square(2), [1, 2, 7, 9]),
            // Rows wider than any lane count, with a tail.
            (Pool2dShape::square(2), [1, 1, 4, 75]),
            (Pool2dShape::square(3), [2, 2, 9, 10]),
            (Pool2dShape::new((2, 2), (1, 1), (0, 0)), [1, 2, 5, 6]),
            (Pool2dShape::new((3, 3), (2, 2), (1, 1)), [2, 2, 7, 7]),
            (Pool2dShape::new((3, 3), (1, 1), (1, 1)), [1, 3, 6, 5]),
            (Pool2dShape::new((3, 2), (1, 2), (1, 0)), [1, 2, 5, 9]),
            (Pool2dShape::new((2, 3), (3, 1), (1, 2)), [2, 1, 8, 4]),
            (Pool2dShape::new((1, 1), (2, 2), (0, 0)), [1, 2, 5, 5]),
            (Pool2dShape::new((3, 3), (2, 2), (1, 1)), [1, 1, 1, 1]),
            // Corner windows, or every window, wholly in the padding.
            (Pool2dShape::new((1, 1), (1, 1), (1, 1)), [1, 2, 3, 3]),
            (Pool2dShape::new((1, 1), (1, 1), (1, 1)), [1, 2, 0, 3]),
        ];
        for tier in Tier::offered() {
            for (g, (s, shape)) in geometries.iter().enumerate() {
                let len = shape.iter().product();
                for (name, data) in [
                    ("tricky", tricky_f32(0x9001 + g as u64, len)),
                    ("zeros", vec![0.0; len]),
                    ("signed zeros", (0..len).map(|i| if i % 3 == 0 { 0.0 } else { -0.0 }).collect()),
                    ("NaN and -inf", (0..len).map(|i| [f32::NAN, f32::NEG_INFINITY][i % 2]).collect()),
                    ("ramp", (0..len).map(|i| (i % 13) as f32 - 6.0).collect()),
                ] {
                    let x = Tensor::from_vec(shape, data);
                    check_against_oracle(tier, &x, s, &format!("{s:?} {shape:?} {name}"));
                }
            }
        }
    }

    #[test]
    fn maxpool_first_maximum_wins_and_nan_never_does() {
        for tier in Tier::offered() {
            // A post-ReLU window of zeros: the first tap.
            let x = Tensor::from_vec(&[1, 1, 2, 2], vec![0.0, 0.0, 0.0, 0.0]);
            let mut arg = Vec::new();
            let y = maxpool2d_forward_on(tier, &x, &Pool2dShape::square(2), &mut Workspace::new(), Some(&mut arg));
            assert_eq!((y.as_slice(), &arg[..]), (&[0.0][..], &[0][..]), "{tier:?}");
            // NaN first, ties after it: the first non-NaN maximum.
            let x = Tensor::from_vec(&[1, 1, 2, 2], vec![f32::NAN, 1.0, 3.0, 3.0]);
            let y = maxpool2d_forward_on(tier, &x, &Pool2dShape::square(2), &mut Workspace::new(), Some(&mut arg));
            assert_eq!((y.as_slice(), &arg[..]), (&[3.0][..], &[2][..]), "{tier:?}");
            // Nothing beats −∞: −∞ and no argmax.
            let x = Tensor::from_vec(&[1, 1, 2, 2], vec![f32::NAN, f32::NEG_INFINITY, f32::NAN, f32::NAN]);
            let y = maxpool2d_forward_on(tier, &x, &Pool2dShape::square(2), &mut Workspace::new(), Some(&mut arg));
            assert_eq!((y.as_slice(), &arg[..]), (&[f32::NEG_INFINITY][..], &[usize::MAX][..]), "{tier:?}");
            // ... and no gradient back.
            let dy = Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]);
            let dx = maxpool2d_backward_ws(&dy, &arg, x.shape(), &mut Workspace::new());
            assert_eq!(dx.as_slice(), &[0.0; 4], "{tier:?}");
        }
    }

    #[test]
    fn maxpool_2x2_basic() {
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let mut arg = Vec::new();
        let y = maxpool2d_forward_ws(&x, &Pool2dShape::square(2), &mut Workspace::new(), Some(&mut arg));
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_negative_values() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![-5.0, -2.0, -8.0, -3.0]);
        let y = maxpool2d_forward_ws(
            &x,
            &Pool2dShape::square(2),
            &mut Workspace::new(),
            None,
        );
        assert_eq!(y.as_slice(), &[-2.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]);
        let (s, mut ws, mut arg) = (Pool2dShape::square(2), Workspace::new(), Vec::new());
        maxpool2d_forward_ws(&x, &s, &mut ws, Some(&mut arg));
        let dy = Tensor::from_vec(&[1, 1, 1, 1], vec![2.5]);
        let dx = maxpool2d_backward_ws(&dy, &arg, &[1, 1, 2, 2], &mut ws);
        assert_eq!(dx.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_overlapping_windows_accumulate_grad() {
        // stride 1 window 2: input max at center gets grads from several windows.
        let x = Tensor::from_vec(&[1, 1, 3, 3], vec![0., 0., 0., 0., 9., 0., 0., 0., 0.]);
        let s = Pool2dShape::new((2, 2), (1, 1), (0, 0));
        let (mut ws, mut arg) = (Workspace::new(), Vec::new());
        let y = maxpool2d_forward_ws(&x, &s, &mut ws, Some(&mut arg));
        assert_eq!(y.as_slice(), &[9.0; 4]);
        let dy = Tensor::ones(&[1, 1, 2, 2]);
        let dx = maxpool2d_backward_ws(&dy, &arg, &[1, 1, 3, 3], &mut ws);
        assert_eq!(dx.get(&[0, 0, 1, 1]), 4.0);
    }

    #[test]
    fn maxpool_multichannel_batches() {
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| (i % 17) as f32);
        let mut arg = Vec::new();
        let y = maxpool2d_forward_ws(&x, &Pool2dShape::square(2), &mut Workspace::new(), Some(&mut arg));
        assert_eq!(y.shape(), &[2, 3, 2, 2]);
        assert_eq!(arg.len(), y.len());
        // Every argmax must point inside its own (n, c) plane.
        for (o, &a) in arg.iter().enumerate() {
            let plane = o / 4;
            assert_eq!(a / 16, plane, "argmax escaped its plane");
        }
    }

    #[test]
    fn numerical_gradient_maxpool() {
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 7 + 3) % 11) as f32 * 0.1);
        let (s, mut ws, mut arg) = (Pool2dShape::square(2), Workspace::new(), Vec::new());
        maxpool2d_forward_ws(&x, &s, &mut ws, Some(&mut arg));
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        let dx = maxpool2d_backward_ws(&dy, &arg, x.shape(), &mut ws);
        let eps = 1e-3;
        for probe in [0usize, 5, 10, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let lp = maxpool2d_forward_ws(&xp, &s, &mut ws, Some(&mut arg)).sum();
            let lm = maxpool2d_forward_ws(&xm, &s, &mut ws, Some(&mut arg)).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx.as_slice()[probe]).abs() < 1e-3, "probe {probe}");
        }
    }

    #[test]
    fn global_avg_pool_values() {
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let y = global_avg_pool_forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
    }

    #[test]
    fn global_avg_pool_backward_broadcast() {
        let dy = Tensor::from_vec(&[1, 2], vec![4.0, 8.0]);
        let dx = global_avg_pool_backward_ws(&dy, &[1, 2, 2, 2], &mut Workspace::new());
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_out_hw() {
        assert_eq!(Pool2dShape::square(2).out_hw((8, 8)), (4, 4));
        assert_eq!(Pool2dShape::new((3, 3), (2, 2), (1, 1)).out_hw((7, 7)), (4, 4));
    }
}
