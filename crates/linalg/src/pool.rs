//! Pooling kernels.
//!
//! Pooling is a *non-linear* operation in DarKnight's taxonomy: it always
//! executes inside the TEE on plaintext floats (§3.1, step 6), never on
//! the masked GPUs. The kernels are therefore implemented for `f32` only.

use crate::im2col::out_hw;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

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

/// Max pooling forward with the pooled tensor drawn from `ws`. The flat
/// argmax (into the input tensor) of every output element, which the
/// backward pass scatters gradients through, is written into the
/// caller's reusable `arg`.
///
/// # Panics
///
/// Panics if `x` is not NCHW or the window does not fit.
pub fn maxpool2d_forward_ws(
    x: &Tensor<f32>,
    s: &Pool2dShape,
    ws: &mut Workspace,
    arg: &mut Vec<usize>,
) -> Tensor<f32> {
    assert_eq!(x.ndim(), 4, "input must be NCHW");
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw((h, w));
    let mut y = ws.take_tensor(&[n, c, oh, ow]);
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
                    // A window fully in padding would have no taps; the
                    // geometry check in out_hw prevents that.
                    debug_assert_ne!(best_idx, usize::MAX);
                    y.as_mut_slice()[oidx] = best;
                    arg[oidx] = best_idx;
                    oidx += 1;
                }
            }
        }
    }
    y
}

/// Max pooling backward with the gradient image drawn from `ws`:
/// routes each output gradient to the input element that won the
/// forward max.
///
/// # Panics
///
/// Panics if `dy.len() != argmax.len()`.
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
        d[a] += g;
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
        let y = maxpool2d_forward_ws(&x, &Pool2dShape::square(2), &mut Workspace::new(), &mut arg);
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
            &mut vec![],
        );
        assert_eq!(y.as_slice(), &[-2.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]);
        let (s, mut ws, mut arg) = (Pool2dShape::square(2), Workspace::new(), Vec::new());
        maxpool2d_forward_ws(&x, &s, &mut ws, &mut arg);
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
        let y = maxpool2d_forward_ws(&x, &s, &mut ws, &mut arg);
        assert_eq!(y.as_slice(), &[9.0; 4]);
        let dy = Tensor::ones(&[1, 1, 2, 2]);
        let dx = maxpool2d_backward_ws(&dy, &arg, &[1, 1, 3, 3], &mut ws);
        assert_eq!(dx.get(&[0, 0, 1, 1]), 4.0);
    }

    #[test]
    fn maxpool_multichannel_batches() {
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| (i % 17) as f32);
        let mut arg = Vec::new();
        let y = maxpool2d_forward_ws(&x, &Pool2dShape::square(2), &mut Workspace::new(), &mut arg);
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
        maxpool2d_forward_ws(&x, &s, &mut ws, &mut arg);
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        let dx = maxpool2d_backward_ws(&dy, &arg, x.shape(), &mut ws);
        let eps = 1e-3;
        for probe in [0usize, 5, 10, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let lp = maxpool2d_forward_ws(&xp, &s, &mut ws, &mut arg).sum();
            let lm = maxpool2d_forward_ws(&xm, &s, &mut ws, &mut arg).sum();
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
