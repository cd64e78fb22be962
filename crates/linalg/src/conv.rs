//! 2-D convolution: forward, input-gradient and weight-gradient passes.
//!
//! These are the three bilinear operations DarKnight offloads to GPUs:
//! the forward `⟨W, x⟩`, the backward data term `⟨δ_{l+1}, g'⟩` and the
//! backward weight term `⟨δ, x⟩` (Eq. 3 in the paper). All three are
//! implemented once, generically over [`Scalar`], as matrix products
//! against the column matrix of the input (see [`crate::im2col`]), so
//! the masked field execution is bit-identical in structure to the
//! float reference. Per sample and group, with `krows = ic/g · kh · kw`
//! and `ocols = oh · ow`:
//!
//! * **forward** — `y[oc/g × ocols] = W[oc/g × krows] · cols(x)`. The
//!   column matrix is never built: [`mod@crate::matmul`]'s strip kernel
//!   runs column strips outermost and asks
//!   [`Window::fill_panel`](crate::im2col) for one `[≤256 × 16]` block
//!   of `cols(x)` at a time, gathered straight from the NCHW image (row
//!   copies, clipped at the padding; any stride, padding, grouping,
//!   depthwise, 1×1) into an L1-resident panel over which all `oc/g`
//!   filter rows run before the next strip is touched. The kernel
//!   overwrites its output, so the output tensor is taken from the
//!   workspace uncleared. Each output element is the reference
//!   recurrence over ascending `(ci, ki, kj)`, so results are
//!   bit-identical to im2col-then-[`crate::reference::naive_matmul`] in
//!   both domains.
//! * **input gradient** — `dcols = Wᵀ · dy` ([`matmul_at_b_into`], the
//!   same strip kernel reading `W` transposed in place), scatter-added
//!   into the image by [`col2im_acc_into`].
//! * **weight gradient** — `dW += dy · cols(x)ᵀ`: the contraction runs
//!   over output positions, so this pass does materialize `cols(x)` row
//!   by row ([`im2col_into`], its only caller) for the dot-orientation
//!   kernel [`matmul_a_bt_into`].
//!
//! Grouped convolution is supported (`groups > 1`); depthwise convolution
//! — the core of MobileNet — is the special case `groups == in_channels`.

use crate::im2col::{col2im_acc_into, im2col_into, out_hw, Window};
use crate::matmul::{gemm_packed, matmul_a_bt_into, matmul_at_b_into, Panel};
use crate::scalar::Scalar;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Static geometry of a 2-D convolution layer.
///
/// Weights are laid out `[out_channels, in_channels/groups, kh, kw]` and
/// activations `[n, channels, h, w]` (NCHW).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dShape {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Kernel height/width.
    pub kernel: (usize, usize),
    /// Stride.
    pub stride: (usize, usize),
    /// Symmetric zero padding.
    pub padding: (usize, usize),
    /// Channel groups (`in_channels` for depthwise).
    pub groups: usize,
}

impl Conv2dShape {
    /// Creates a shape descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts, or any
    /// dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        groups: usize,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && groups > 0);
        assert!(kernel.0 > 0 && kernel.1 > 0 && stride.0 > 0 && stride.1 > 0);
        assert_eq!(in_channels % groups, 0, "groups must divide in_channels");
        assert_eq!(out_channels % groups, 0, "groups must divide out_channels");
        Self { in_channels, out_channels, kernel, stride, padding, groups }
    }

    /// Convenience constructor for an ungrouped square convolution.
    pub fn simple(in_channels: usize, out_channels: usize, k: usize, stride: usize, pad: usize) -> Self {
        Self::new(in_channels, out_channels, (k, k), (stride, stride), (pad, pad), 1)
    }

    /// Depthwise convolution: one filter per channel.
    pub fn depthwise(channels: usize, k: usize, stride: usize, pad: usize) -> Self {
        Self::new(channels, channels, (k, k), (stride, stride), (pad, pad), channels)
    }

    /// Input channels per group.
    pub fn cg_in(&self) -> usize {
        self.in_channels / self.groups
    }

    /// Output channels per group.
    pub fn cg_out(&self) -> usize {
        self.out_channels / self.groups
    }

    /// Output spatial size for the given input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_hw(&self, hw: (usize, usize)) -> (usize, usize) {
        out_hw(hw, self.kernel, self.stride, self.padding)
    }

    /// The weight tensor shape `[oc, ic/g, kh, kw]`.
    pub fn weight_shape(&self) -> [usize; 4] {
        [self.out_channels, self.cg_in(), self.kernel.0, self.kernel.1]
    }

    /// Multiply-accumulate count of one forward pass over an `n`-sample
    /// batch with the given input spatial size (used by the perf model).
    pub fn forward_macs(&self, n: usize, hw: (usize, usize)) -> u64 {
        let (oh, ow) = self.out_hw(hw);
        (n * self.out_channels * oh * ow * self.cg_in() * self.kernel.0 * self.kernel.1) as u64
    }

    fn check_weights<T: Scalar>(&self, w: &Tensor<T>) {
        assert_eq!(w.shape(), &self.weight_shape(), "weight tensor shape mismatch");
    }

    fn check_input<T: Scalar>(&self, x: &Tensor<T>) {
        assert_eq!(x.ndim(), 4, "input must be NCHW");
        assert_eq!(x.shape()[1], self.in_channels, "input channel mismatch");
    }
}

/// Forward convolution `y = W ∗ x` (no bias; bias lives in the layer),
/// with the output tensor drawn from `ws`, so a warm caller allocates
/// nothing (give the returned tensor back to the workspace when done
/// with it). See the module docs for the kernel.
///
/// `x: [n, ic, h, w]`, `w: [oc, ic/g, kh, kw]` → `y: [n, oc, oh, ow]`.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_forward_ws<T: Scalar>(
    x: &Tensor<T>,
    w: &Tensor<T>,
    s: &Conv2dShape,
    ws: &mut Workspace,
) -> Tensor<T> {
    s.check_input(x);
    s.check_weights(w);
    let n = x.shape()[0];
    let hw = (x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw(hw);
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let krows = cgi * s.kernel.0 * s.kernel.1;
    let ocols = oh * ow;
    let win = Window::new(hw, s.kernel, s.stride, s.padding);
    // Every output element is stored by the kernel.
    let mut y = ws.take_tensor_dirty(&[n, s.out_channels, oh, ow]);
    let mut panel = Panel::new();
    for ni in 0..n {
        let xi = x.batch_item(ni);
        let yi = y.batch_item_mut(ni);
        for g in 0..s.groups {
            let xg = &xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
            let wg = &w.as_slice()[g * cgo * krows..(g + 1) * cgo * krows];
            let yg = &mut yi[g * cgo * ocols..(g + 1) * cgo * ocols];
            // yg[cgo x ocols] = wg[cgo x krows] · cols(xg)[krows x ocols],
            // the column matrix packed one panel block at a time.
            let fill = |p0, j0, rows: &mut [T]| win.fill_panel(xg, p0, j0, rows);
            gemm_packed(wg, (krows, 1), yg, (cgo, krows, ocols), &mut panel, &fill);
        }
    }
    y
}

/// Convolution input gradient: `dx = Wᵀ ⊛ dy`.
///
/// `dy: [n, oc, oh, ow]` → `dx: [n, ic, h, w]` for the original input
/// spatial size `hw`.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_backward_input_ws<T: Scalar>(
    dy: &Tensor<T>,
    w: &Tensor<T>,
    s: &Conv2dShape,
    hw: (usize, usize),
    ws: &mut Workspace,
) -> Tensor<T> {
    s.check_weights(w);
    assert_eq!(dy.shape()[1], s.out_channels, "dy channel mismatch");
    let n = dy.shape()[0];
    let (oh, ow) = s.out_hw(hw);
    assert_eq!((dy.shape()[2], dy.shape()[3]), (oh, ow), "dy spatial mismatch");
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let krows = cgi * s.kernel.0 * s.kernel.1;
    let ocols = oh * ow;
    let mut dx = ws.take_tensor(&[n, s.in_channels, hw.0, hw.1]);
    let mut dcol = ws.take_dirty::<T>(krows * ocols);
    for ni in 0..n {
        let dyi = dy.batch_item(ni);
        let dxi = dx.batch_item_mut(ni);
        for g in 0..s.groups {
            let wg = &w.as_slice()[g * cgo * krows..(g + 1) * cgo * krows];
            let dyg = &dyi[g * cgo * ocols..(g + 1) * cgo * ocols];
            // dcol[krows x ocols] = wgᵀ[krows x cgo] · dyg[cgo x ocols],
            // then one fused scatter-add into the (zero-initialized)
            // gradient image — contribution order is identical to the
            // old dcol → col2im → add triple pass, so float bits are
            // unchanged.
            matmul_at_b_into(wg, dyg, &mut dcol, krows, cgo, ocols);
            let dst = &mut dxi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
            col2im_acc_into(&dcol, cgi, hw, s.kernel, s.stride, s.padding, dst);
        }
    }
    ws.give(dcol);
    dx
}

/// Convolution weight gradient: `dW = dy ⊛ x` summed over the batch.
///
/// This is the bilinear op of the paper's Eq. 3 — the one DarKnight's
/// backward encoding protects.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_backward_weight_ws<T: Scalar>(
    dy: &Tensor<T>,
    x: &Tensor<T>,
    s: &Conv2dShape,
    ws: &mut Workspace,
) -> Tensor<T> {
    s.check_input(x);
    assert_eq!(dy.shape()[1], s.out_channels, "dy channel mismatch");
    let n = x.shape()[0];
    assert_eq!(dy.shape()[0], n, "batch mismatch");
    let hw = (x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw(hw);
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let krows = cgi * s.kernel.0 * s.kernel.1;
    let ocols = oh * ow;
    let mut dw = ws.take_tensor(&s.weight_shape());
    // Both fully overwritten before each use.
    let mut cols = ws.take_dirty::<T>(krows * ocols);
    let mut dwg = ws.take_dirty::<T>(cgo * krows);
    for ni in 0..n {
        let xi = x.batch_item(ni);
        let dyi = dy.batch_item(ni);
        for g in 0..s.groups {
            let xg = &xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
            im2col_into(xg, cgi, hw, s.kernel, s.stride, s.padding, &mut cols);
            let dyg = &dyi[g * cgo * ocols..(g + 1) * cgo * ocols];
            // dwg[cgo x krows] = dyg[cgo x ocols] · colsᵀ[ocols x krows];
            // accumulated into dw as a separate elementwise pass so the
            // float summation order matches the allocating original.
            matmul_a_bt_into(dyg, &cols, &mut dwg, cgo, ocols, krows);
            let dst = &mut dw.as_mut_slice()[g * cgo * krows..(g + 1) * cgo * krows];
            for (d, &v) in dst.iter_mut().zip(dwg.iter()) {
                *d += v;
            }
        }
    }
    ws.give(dwg);
    ws.give(cols);
    dw
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::F25;

    /// Direct (nested-loop) convolution reference used to validate the
    /// lowered kernels.
    fn conv_reference(x: &Tensor<f32>, w: &Tensor<f32>, s: &Conv2dShape) -> Tensor<f32> {
        let n = x.shape()[0];
        let (h, wd) = (x.shape()[2], x.shape()[3]);
        let (oh, ow) = s.out_hw((h, wd));
        let (cgi, cgo) = (s.cg_in(), s.cg_out());
        let mut y = Tensor::zeros(&[n, s.out_channels, oh, ow]);
        for ni in 0..n {
            for oc in 0..s.out_channels {
                let g = oc / cgo;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..cgi {
                            let ic = g * cgi + ci;
                            for ky in 0..s.kernel.0 {
                                for kx in 0..s.kernel.1 {
                                    let iy = (oy * s.stride.0 + ky) as isize - s.padding.0 as isize;
                                    let ix = (ox * s.stride.1 + kx) as isize - s.padding.1 as isize;
                                    if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < wd
                                    {
                                        acc += x.get(&[ni, ic, iy as usize, ix as usize])
                                            * w.get(&[oc, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        y.set(&[ni, oc, oy, ox], acc);
                    }
                }
            }
        }
        y
    }

    fn seq_tensor(shape: &[usize], scale: f32, offset: f32) -> Tensor<f32> {
        Tensor::from_fn(shape, |i| (i as f32) * scale + offset)
    }

    #[test]
    fn forward_matches_reference_basic() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(3, 4, 3, 1, 1);
        let x = seq_tensor(&[2, 3, 5, 5], 0.01, -0.5);
        let w = seq_tensor(&s.weight_shape(), 0.02, -0.3);
        let y = conv2d_forward_ws(&x, &w, &s, &mut ws);
        let r = conv_reference(&x, &w, &s);
        assert!(y.max_abs_diff(&r) < 1e-4, "diff={}", y.max_abs_diff(&r));
    }

    #[test]
    fn forward_matches_reference_strided() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(2, 3, 3, 2, 1);
        let x = seq_tensor(&[1, 2, 7, 7], 0.03, -1.0);
        let w = seq_tensor(&s.weight_shape(), -0.01, 0.2);
        assert!(
            conv2d_forward_ws(&x, &w, &s, &mut ws).max_abs_diff(&conv_reference(&x, &w, &s)) < 1e-4
        );
    }

    #[test]
    fn forward_matches_reference_depthwise() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::depthwise(4, 3, 1, 1);
        let x = seq_tensor(&[2, 4, 6, 6], 0.05, -0.7);
        let w = seq_tensor(&s.weight_shape(), 0.04, -0.1);
        assert!(
            conv2d_forward_ws(&x, &w, &s, &mut ws).max_abs_diff(&conv_reference(&x, &w, &s)) < 1e-4
        );
    }

    #[test]
    fn forward_matches_reference_grouped() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::new(4, 6, (3, 3), (1, 1), (0, 0), 2);
        let x = seq_tensor(&[1, 4, 5, 5], 0.02, 0.0);
        let w = seq_tensor(&s.weight_shape(), 0.03, -0.2);
        assert!(
            conv2d_forward_ws(&x, &w, &s, &mut ws).max_abs_diff(&conv_reference(&x, &w, &s)) < 1e-4
        );
    }

    #[test]
    fn pointwise_conv_is_channel_matmul() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(3, 2, 1, 1, 0);
        let x = seq_tensor(&[1, 3, 2, 2], 1.0, 0.0);
        let w = seq_tensor(&s.weight_shape(), 1.0, 0.0);
        let y = conv2d_forward_ws(&x, &w, &s, &mut ws);
        // y[0,0,0,0] = sum_c w[0,c] * x[c,0,0] = 0*0 + 1*4 + 2*8 = 20
        assert_eq!(y.get(&[0, 0, 0, 0]), 20.0);
    }

    #[test]
    fn field_forward_matches_float_on_integers() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(2, 2, 3, 1, 1);
        let xf = Tensor::<f32>::from_fn(&[1, 2, 4, 4], |i| (i % 5) as f32);
        let wf = Tensor::<f32>::from_fn(&s.weight_shape(), |i| (i % 3) as f32);
        let xq: Tensor<F25> = xf.map(|v| F25::new(v as u64));
        let wq: Tensor<F25> = wf.map(|v| F25::new(v as u64));
        let yf = conv2d_forward_ws(&xf, &wf, &s, &mut ws);
        let yq = conv2d_forward_ws(&xq, &wq, &s, &mut ws);
        for (a, b) in yf.as_slice().iter().zip(yq.as_slice()) {
            assert_eq!(*a as u64, b.value());
        }
    }

    /// Numerical-gradient check for the input gradient.
    #[test]
    fn backward_input_matches_numerical() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(2, 2, 3, 1, 1);
        let x = seq_tensor(&[1, 2, 4, 4], 0.1, -0.5);
        let w = seq_tensor(&s.weight_shape(), 0.1, -0.2);
        // Loss = sum(y); dL/dy = ones.
        let (oh, ow) = s.out_hw((4, 4));
        let dy = Tensor::<f32>::ones(&[1, 2, oh, ow]);
        let dx = conv2d_backward_input_ws(&dy, &w, &s, (4, 4), &mut ws);
        let eps = 1e-2;
        for probe in [0usize, 7, 15, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let lp = conv2d_forward_ws(&xp, &w, &s, &mut ws).sum();
            let lm = conv2d_forward_ws(&xm, &w, &s, &mut ws).sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = dx.as_slice()[probe];
            assert!((num - ana).abs() < 1e-2, "probe {probe}: num={num} ana={ana}");
        }
    }

    /// Numerical-gradient check for the weight gradient.
    #[test]
    fn backward_weight_matches_numerical() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(2, 3, 3, 2, 1);
        let x = seq_tensor(&[2, 2, 5, 5], 0.07, -0.4);
        let w = seq_tensor(&s.weight_shape(), 0.05, -0.15);
        let (oh, ow) = s.out_hw((5, 5));
        let dy = Tensor::<f32>::ones(&[2, 3, oh, ow]);
        let dw = conv2d_backward_weight_ws(&dy, &x, &s, &mut ws);
        let eps = 1e-2;
        for probe in [0usize, 10, 25, 40, dw.len() - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[probe] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[probe] -= eps;
            let lp = conv2d_forward_ws(&x, &wp, &s, &mut ws).sum();
            let lm = conv2d_forward_ws(&x, &wm, &s, &mut ws).sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw.as_slice()[probe];
            assert!((num - ana).abs() < 2e-2, "probe {probe}: num={num} ana={ana}");
        }
    }

    #[test]
    fn backward_weight_depthwise_matches_numerical() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::depthwise(3, 3, 1, 1);
        let x = seq_tensor(&[1, 3, 4, 4], 0.09, -0.3);
        let w = seq_tensor(&s.weight_shape(), 0.06, -0.1);
        let (oh, ow) = s.out_hw((4, 4));
        let dy = Tensor::<f32>::ones(&[1, 3, oh, ow]);
        let dw = conv2d_backward_weight_ws(&dy, &x, &s, &mut ws);
        let eps = 1e-2;
        for probe in 0..dw.len() {
            let mut wp = w.clone();
            wp.as_mut_slice()[probe] += eps;
            let lp = conv2d_forward_ws(&x, &wp, &s, &mut ws).sum();
            let mut wm = w.clone();
            wm.as_mut_slice()[probe] -= eps;
            let lm = conv2d_forward_ws(&x, &wm, &s, &mut ws).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dw.as_slice()[probe]).abs() < 2e-2, "probe {probe}");
        }
    }

    #[test]
    fn macs_counting() {
        // 3x3 conv, 3->4 channels, 5x5 input pad 1 -> 5x5 out.
        let s = Conv2dShape::simple(3, 4, 3, 1, 1);
        assert_eq!(s.forward_macs(1, (5, 5)), 4 * 25 * 3 * 9);
        // Depthwise halves... exactly: per out channel only 1 in channel.
        let d = Conv2dShape::depthwise(4, 3, 1, 1);
        assert_eq!(d.forward_macs(1, (5, 5)), 4 * 25 * 9);
    }

    #[test]
    #[should_panic(expected = "groups must divide")]
    fn bad_groups_panics() {
        let _ = Conv2dShape::new(3, 4, (3, 3), (1, 1), (1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "weight tensor shape")]
    fn bad_weight_shape_panics() {
        let mut ws = Workspace::new();
        let s = Conv2dShape::simple(3, 4, 3, 1, 1);
        let x = Tensor::<f32>::zeros(&[1, 3, 5, 5]);
        let w = Tensor::<f32>::zeros(&[4, 3, 2, 2]);
        let _ = conv2d_forward_ws(&x, &w, &s, &mut ws);
    }
}
