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
//!   column matrix is neither built nor packed: it is read where it
//!   already lies. Per sample and group the image is written once into
//!   a **staging buffer** from the workspace, zero-padded and split into
//!   `sh·sw` **phase planes** per channel, each `⌈(h+2ph)/sh⌉ ×
//!   ⌈(w+2pw)/sw⌉` (`wq` columns): plane `(a, b)` holds the padded
//!   pixels `(a + sh·r, b + sw·c)`. The output is computed in **wide**
//!   coordinates, `oh × wq`, where tap `(ki, kj)` of output `(oy, ox)`
//!   is element `(oy + ⌊ki/sh⌋, ox + ⌊kj/sw⌋)` of plane
//!   `(ki mod sh, kj mod sw)`; so row `(ci, ki, kj)` of the column
//!   matrix, over the wide plane, is one contiguous run of the staging
//!   buffer starting at a fixed offset, and the strip kernel of
//!   [`mod@crate::matmul`] reads its `B` rows there
//!   ([`InPlace`](crate::matmul)). The `wq − ow` surplus columns of each
//!   wide row are computed and dropped when the `ow` valid ones are
//!   copied into `y` (written straight into `y` when there are none).
//!   The last wide row's surplus columns and the last strip's lanes past
//!   the wide plane read past the last phase plane, fewer than
//!   `LANES + kw` elements: the buffer carries that much **slack**. The
//!   buffer is zeroed once per call — borders, phase positions past the
//!   image and slack; each (sample, group) then overwrites the same
//!   interior — so padding taps read zeros. This is one path for every
//!   stride, padding and grouping, depthwise and 1×1 included, in both
//!   domains. Each output element is the reference recurrence over
//!   ascending `(ci, ki, kj)`, zero weights skipped, so results are
//!   bit-identical to im2col-then-[`crate::reference::naive_matmul`] in
//!   both domains.
//! * **input gradient** (`dx = Wᵀ ⊛ dy`). Two passes, one choice made
//!   on [`Scalar::EXACT`] and the stride, as the dot kernel already
//!   chooses:
//!   - a stride-1 `F25` layer whose padding is below its kernel is the
//!     *transposed convolution*: the forward pass above run on `dy`
//!     with the filter flipped in both spatial axes and its two channel
//!     axes swapped per group, padded by `k − 1 − p`. Each `dx` element
//!     is then one tile reduction over `(co, ki, kj)`; no `dcol` is
//!     written and nothing is scattered. The field sum is exact, so the
//!     result is the same value whatever order the taps arrive in;
//!   - a strided layer, and every `f32` call, computes
//!     `dcols = Wᵀ · dy` ([`matmul_at_b_into`], the strip kernel reading
//!     `W` transposed in place) and scatter-adds it into the image with
//!     [`col2im_acc_into`]. `f32` is the plain baseline and keeps this
//!     recurrence bit for bit: per `dx` element, the taps in ascending
//!     `(ki, kj)`, each its own ascending-`co` sum.
//! * **weight gradient** (`dW = Σ_n dy · cols(x)ᵀ`). The contraction
//!   runs over output positions. For `F25` the column matrix is read
//!   where it lies, as in the forward pass: each (sample, group) is
//!   staged once into the same padded, phase-split buffer, and one
//!   packed-panel product per (sample, group) computes
//!   `dWᵀ[krows × cgo] = cols(x) · dyᵀ` over the **wide** plane
//!   (`K = oh · wq`), its `A` rows named by the staging offsets
//!   ([`ARows::At`](crate::matmul)). The panel filler packs `dyᵀ` in
//!   wide order with zeros at each output row's `wq − ow` surplus
//!   columns, so the surplus taps add nothing, and the field sum is
//!   exact whatever its order. The product is stored into `dW`
//!   transposed (the first sample stores, later ones add). `f32` keeps
//!   the dot-orientation kernel [`matmul_a_bt_into`] over a
//!   materialized column matrix ([`im2col_into`], its only caller),
//!   whose ascending-`p` sums with no zero skip are its reference bits.
//!
//! Grouped convolution is supported (`groups > 1`); depthwise convolution
//! — the core of MobileNet — is the special case `groups == in_channels`.

use crate::im2col::{col2im_acc_into, im2col_into, out_hw};
use crate::matmul::{
    fill_wide, gemm_packed_on, matmul_a_bt_into, matmul_at_b_into, store_transposed, ARows, InPlace,
    Panel, Rows, LANES,
};
use crate::scalar::Scalar;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use dk_field::tier::Tier;

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
    conv2d_forward_on(Tier::best(), x, w, s, ws)
}

/// [`conv2d_forward_ws`] on a given tier, as
/// [`crate::matmul::gemm_packed_on`]; the tests drive every tier the
/// host offers through it.
pub(crate) fn conv2d_forward_on<T: Scalar>(
    tier: Tier,
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
    let st = Staging::new(hw, s);
    let wide = oh * st.wq;
    // Every output element is stored below.
    let mut y = ws.take_tensor_dirty(&[n, s.out_channels, oh, ow]);
    // One scratch buffer: the staging buffer, then the wide output
    // unless there is no surplus column to drop. The staging part is
    // zeroed once: staging the next (sample, group) writes the same
    // interior positions, so the borders, the unused phase positions
    // and the slack stay zero for the whole call.
    let surplus = if st.wq == ow { 0 } else { cgo * wide };
    let mut scratch = ws.take_dirty::<T>(st.len + surplus);
    let (stage, ywide) = scratch.split_at_mut(st.len);
    stage.fill(T::zero());
    let mut offs = ws.take_cleared::<usize>(krows);
    st.offsets(cgi, &mut offs);
    for ni in 0..n {
        let xi = x.batch_item(ni);
        let yi = y.batch_item_mut(ni);
        for g in 0..s.groups {
            st.stage(&xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1], stage);
            let wg = &w.as_slice()[g * cgo * krows..(g + 1) * cgo * krows];
            let yg = &mut yi[g * cgo * oh * ow..(g + 1) * cgo * oh * ow];
            // yg[cgo x wide] = wg[cgo x krows] · cols(xg)[krows x wide],
            // the column matrix read where it lies in the staging buffer.
            let rows = Rows::InPlace(InPlace::new(stage, &offs, wide));
            let a_index = (ARows::Every(krows), 1);
            if st.wq == ow {
                gemm_packed_on(tier, wg, a_index, yg, (cgo, krows, wide), rows);
            } else {
                gemm_packed_on(tier, wg, a_index, ywide, (cgo, krows, wide), rows);
                for (dst, src) in yg.chunks_exact_mut(ow).zip(ywide.chunks_exact(st.wq)) {
                    dst.copy_from_slice(&src[..ow]);
                }
            }
        }
    }
    ws.give(offs);
    ws.give(scratch);
    y
}

/// The forward convolution's staging layout for one (sample, group):
/// each of the `cgi` channels, zero-padded, split into `sh·sw` phase
/// planes of `hq × wq`, where plane `(a, b)` holds the padded pixels
/// `(a + sh·r, b + sw·c)`, followed by `LANES + kw` zeros of slack. In
/// these coordinates tap `(ki, kj)` of output `(oy, ox)` is element
/// `(oy + ki/sh, ox + kj/sw)` of phase plane `(ki mod sh, kj mod sw)`:
/// row `(ci, ki, kj)` of the column matrix, over the "wide" output
/// plane `oh × wq`, is one contiguous run of the buffer.
#[derive(Debug, Clone, Copy)]
struct Staging {
    hw: (usize, usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    /// Columns of a phase plane, and of a wide output row.
    wq: usize,
    /// Elements of a phase plane.
    plane: usize,
    /// Elements of the whole buffer, slack included.
    len: usize,
}

impl Staging {
    fn new(hw: (usize, usize), s: &Conv2dShape) -> Self {
        let ((sh, sw), (ph, pw)) = (s.stride, s.padding);
        let hq = (hw.0 + 2 * ph).div_ceil(sh);
        let wq = (hw.1 + 2 * pw).div_ceil(sw);
        let plane = hq * wq;
        // A wide row `oy` plus the deepest tap row stays inside its
        // plane (`oh + (kh−1)/sh ≤ hq`, and likewise across); what runs
        // past the plane is the last wide row's `(kw−1)/sw` surplus
        // columns and the lanes of the last strip past the wide plane,
        // fewer than `LANES + kw` elements.
        let len = s.cg_in() * sh * sw * plane + LANES + s.kernel.1;
        Self { hw, kernel: s.kernel, stride: s.stride, padding: s.padding, wq, plane, len }
    }

    /// Appends to `offs` where each row `p = (ci, ki, kj)` of the column
    /// matrix starts, for `cgi` channels: its element for wide output
    /// column `j` is at `offs[p] + j`. (A division per tap, not per row:
    /// a channel's rows are the first channel's, one channel further.)
    fn offsets(&self, cgi: usize, offs: &mut Vec<usize>) {
        let ((kh, kw), (sh, sw)) = (self.kernel, self.stride);
        offs.extend((0..kh * kw).map(|t| {
            let (ki, kj) = (t / kw, t % kw);
            (ki % sh * sw + kj % sw) * self.plane + ki / sh * self.wq + kj / sw
        }));
        let channel = sh * sw * self.plane;
        for ci in 1..cgi {
            offs.extend_from_within(..kh * kw);
            for o in &mut offs[ci * kh * kw..] {
                *o += ci * channel;
            }
        }
    }

    /// Writes the pixels of `image` (`[cgi, h, w]`) to their phase
    /// positions in `stage`; nothing else is written. The divisions are
    /// per phase, not per row: consecutive image rows of one row phase
    /// land on consecutive rows of its planes.
    fn stage<T: Scalar>(&self, image: &[T], stage: &mut [T]) {
        let ((h, w), (sh, sw), (ph, pw)) = (self.hw, self.stride, self.padding);
        if h * w == 0 {
            return;
        }
        // Column phase `b` takes the pixels `ix ≡ b − pw (mod sw)`, from
        // `ix0` on, to columns `c0..c0 + count` of its planes; row phase
        // `a` likewise.
        let first = |b: usize, s: usize, p: usize| (b + s - p % s) % s;
        for b in 0..sw {
            let ix0 = first(b, sw, pw);
            if ix0 >= w {
                continue;
            }
            let (c0, count) = ((ix0 + pw) / sw, (w - ix0).div_ceil(sw));
            for a in 0..sh {
                let iy0 = first(a, sh, ph);
                if iy0 >= h {
                    continue;
                }
                let at = (a * sw + b) * self.plane + (iy0 + ph) / sh * self.wq + c0;
                for (c, plane) in image.chunks_exact(h * w).enumerate() {
                    let rows = plane.chunks_exact(w).skip(iy0).step_by(sh);
                    let dst = &mut stage[at + c * sh * sw * self.plane..];
                    for (dst, row) in dst.chunks_mut(self.wq).zip(rows) {
                        let dst = &mut dst[..count];
                        if sw == 1 {
                            dst.copy_from_slice(row);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(row[ix0..].iter().step_by(sw)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convolution input gradient: `dx = Wᵀ ⊛ dy`.
///
/// `dy: [n, oc, oh, ow]` → `dx: [n, ic, h, w]` for the original input
/// spatial size `hw`. See the module docs for the two passes.
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
    let (kh, kw) = s.kernel;
    let (ph, pw) = s.padding;
    if T::EXACT && s.stride == (1, 1) && ph < kh && pw < kw {
        return transposed_conv(dy, w, s, ws);
    }
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let krows = cgi * kh * kw;
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
            // then one scatter-add into the (zero-initialized) image.
            matmul_at_b_into(wg, dyg, &mut dcol, krows, cgo, ocols);
            let dst = &mut dxi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
            col2im_acc_into(&dcol, cgi, hw, s.kernel, s.stride, s.padding, dst);
        }
    }
    ws.give(dcol);
    dx
}

/// The stride-1 input gradient as a forward convolution of `dy`: the
/// filter `W[oc, ci, ki, kj]` becomes `Wᵗ[ic, co, kh−1−ki, kw−1−kj]`
/// (group by group, so a group's output channels become its input
/// channels) and the padding `k − 1 − p`, which maps an `oh × ow`
/// gradient back onto the `h × w` image.
fn transposed_conv<T: Scalar>(
    dy: &Tensor<T>,
    w: &Tensor<T>,
    s: &Conv2dShape,
    ws: &mut Workspace,
) -> Tensor<T> {
    let ((kh, kw), (ph, pw)) = (s.kernel, s.padding);
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let t = Conv2dShape::new(
        s.out_channels,
        s.in_channels,
        s.kernel,
        (1, 1),
        (kh - 1 - ph, kw - 1 - pw),
        s.groups,
    );
    // Every element is written: the loops cover `[ic, cgo, kh, kw]`.
    let mut wt = ws.take_tensor_dirty::<T>(&t.weight_shape());
    let taps = kh * kw;
    let dst = wt.as_mut_slice();
    for (row, filter) in w.as_slice().chunks_exact(cgi * taps).enumerate() {
        let (g, co) = (row / cgo, row % cgo);
        for (ci, src) in filter.chunks_exact(taps).enumerate() {
            let out = &mut dst[((g * cgi + ci) * cgo + co) * taps..][..taps];
            for (d, &v) in out.iter_mut().zip(src.iter().rev()) {
                *d = v;
            }
        }
    }
    let dx = conv2d_forward_ws(dy, &wt, &t, ws);
    ws.give_tensor(wt);
    dx
}

/// Convolution weight gradient: `dW = dy ⊛ x` summed over the batch.
///
/// This is the bilinear op of the paper's Eq. 3 — the one DarKnight's
/// backward encoding protects. See the module docs for the kernel.
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
    conv2d_backward_weight_on(Tier::best(), dy, x, s, ws)
}

/// [`conv2d_backward_weight_ws`] on a given tier, as
/// [`conv2d_forward_on`].
pub(crate) fn conv2d_backward_weight_on<T: Scalar>(
    tier: Tier,
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
    assert_eq!((dy.shape()[2], dy.shape()[3]), (oh, ow), "dy spatial mismatch");
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let krows = cgi * s.kernel.0 * s.kernel.1;
    let ocols = oh * ow;
    let st = Staging::new(hw, s);
    let mut dw = ws.take_tensor(&s.weight_shape());
    // The staging buffer (`F25`) or the column matrix (`f32`), then one
    // (sample, group)'s product, fully overwritten by each. The staging
    // buffer is zeroed once, as the forward's.
    let cols_len = if T::EXACT { st.len } else { krows * ocols };
    let mut scratch = ws.take_dirty::<T>(cols_len + krows * cgo);
    let (cols, dwg) = scratch.split_at_mut(cols_len);
    let mut offs = ws.take_cleared::<usize>(krows);
    if T::EXACT {
        cols.fill(T::zero());
        st.offsets(cgi, &mut offs);
    }
    let mut panel = Panel::new();
    for ni in 0..n {
        let xi = x.batch_item(ni);
        let dyi = dy.batch_item(ni);
        for g in 0..s.groups {
            let xg = &xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
            let dyg = &dyi[g * cgo * ocols..(g + 1) * cgo * ocols];
            let dst = &mut dw.as_mut_slice()[g * cgo * krows..(g + 1) * cgo * krows];
            if T::EXACT {
                // dwgᵀ[krows x cgo] = cols(xg)[krows x wide] · dygᵀ[wide x cgo]:
                // the column matrix read where it lies, `dyᵀ` packed in
                // wide order with zeros at the surplus columns.
                st.stage(xg, cols);
                let fill = fill_wide(dyg, (oh, ow, st.wq), cgo);
                let (a, rows) = ((ARows::At(&offs), 1), Rows::Packed(&mut panel, &fill));
                gemm_packed_on(tier, cols, a, dwg, (krows, oh * st.wq, cgo), rows);
                store_transposed(dwg, (krows, cgo), dst, ni > 0);
            } else {
                // dwg[cgo x krows] = dyg[cgo x ocols] · colsᵀ[ocols x krows],
                // added into dw as a separate elementwise pass.
                im2col_into(xg, cgi, hw, s.kernel, s.stride, s.padding, cols);
                matmul_a_bt_into(dyg, cols, dwg, cgo, ocols, krows);
                for (d, &v) in dst.iter_mut().zip(dwg.iter()) {
                    *d += v;
                }
            }
        }
    }
    ws.give(offs);
    ws.give(scratch);
    dw
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::F25;

    /// Direct (nested-loop) convolution reference used to validate the
    /// lowered kernels.
    fn conv_reference<T: Scalar>(x: &Tensor<T>, w: &Tensor<T>, s: &Conv2dShape) -> Tensor<T> {
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
                        let mut acc = T::zero();
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

    /// The forward pass on every tier the host offers, the baseline's
    /// portable strip included, exactly against the reference: dense,
    /// strided and grouped, depthwise, a reduction past one block, and a
    /// 1×1 kernel narrower than its stride.
    #[test]
    fn forward_on_every_tier_matches_reference() {
        let mut rng = dk_field::FieldRng::seed_from(0x7133);
        for s in [
            Conv2dShape::simple(16, 16, 3, 1, 1),
            Conv2dShape::new(4, 6, (3, 3), (2, 2), (1, 1), 2),
            Conv2dShape::depthwise(8, 3, 2, 1),
            Conv2dShape::simple(30, 5, 3, 1, 1),
            Conv2dShape::new(3, 4, (1, 1), (3, 2), (0, 0), 1),
        ] {
            let x = Tensor::from_fn(&[2, s.in_channels, 9, 13], |_| rng.uniform::<{ dk_field::P25 }>());
            let w = Tensor::from_fn(&s.weight_shape(), |_| rng.uniform::<{ dk_field::P25 }>());
            let want = conv_reference(&x, &w, &s);
            for tier in Tier::offered() {
                let mut ws = Workspace::new();
                let got = conv2d_forward_on(tier, &x, &w, &s, &mut ws);
                assert_eq!(got.as_slice(), want.as_slice(), "{tier:?} {s:?}");
            }
        }
    }

    /// Direct (nested-loop) weight gradient: `dW[oc, ci, ky, kx] =
    /// Σ_{n, oy, ox} dy[n, oc, oy, ox] · x[n, g·cgi + ci, iy, ix]`.
    fn weight_grad_reference(dy: &Tensor<F25>, x: &Tensor<F25>, s: &Conv2dShape) -> Tensor<F25> {
        let n = x.shape()[0];
        let (h, wd) = (x.shape()[2], x.shape()[3]);
        let (oh, ow) = s.out_hw((h, wd));
        let (cgi, cgo) = (s.cg_in(), s.cg_out());
        let mut dw = Tensor::zeros(&s.weight_shape());
        for oc in 0..s.out_channels {
            for ci in 0..cgi {
                for ky in 0..s.kernel.0 {
                    for kx in 0..s.kernel.1 {
                        let mut acc = F25::ZERO;
                        for ni in 0..n {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let iy = (oy * s.stride.0 + ky) as isize - s.padding.0 as isize;
                                    let ix = (ox * s.stride.1 + kx) as isize - s.padding.1 as isize;
                                    if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < wd {
                                        let ic = oc / cgo * cgi + ci;
                                        acc += dy.get(&[ni, oc, oy, ox])
                                            * x.get(&[ni, ic, iy as usize, ix as usize]);
                                    }
                                }
                            }
                        }
                        dw.set(&[oc, ci, ky, kx], acc);
                    }
                }
            }
        }
        dw
    }

    /// The `F25` weight gradient on every tier the host offers, exactly
    /// against the direct reference: dense with a wide plane wider than
    /// the output (`wq ≠ ow`), stride 2, 1×1 at stride 2, no padding,
    /// grouped, depthwise, more output channels than one strip, and a
    /// reduction past one panel block; each at `n = 1` and at `n = 2`
    /// (samples accumulated), over a workspace whose recycled buffers
    /// hold stale values.
    #[test]
    fn backward_weight_on_every_tier_matches_reference() {
        let mut rng = dk_field::FieldRng::seed_from(0x3d3);
        for (s, hw) in [
            (Conv2dShape::simple(16, 16, 3, 1, 1), (9, 13)),
            (Conv2dShape::simple(4, 6, 3, 2, 1), (9, 13)),
            (Conv2dShape::new(3, 5, (1, 1), (2, 2), (0, 0), 1), (9, 13)),
            (Conv2dShape::simple(5, 3, 3, 1, 0), (7, 10)),
            (Conv2dShape::new(4, 6, (3, 3), (2, 1), (1, 0), 2), (9, 13)),
            (Conv2dShape::depthwise(8, 3, 2, 1), (9, 13)),
            (Conv2dShape::simple(3, 21, 3, 1, 1), (20, 19)),
        ] {
            for n in [1, 2] {
                let (oh, ow) = s.out_hw(hw);
                let mut draw = |shape: &[usize]| Tensor::from_fn(shape, |_| rng.uniform::<{ dk_field::P25 }>());
                let x = draw(&[n, s.in_channels, hw.0, hw.1]);
                let dy = draw(&[n, s.out_channels, oh, ow]);
                let want = weight_grad_reference(&dy, &x, &s);
                for tier in Tier::offered() {
                    let mut ws = Workspace::new();
                    for _ in 0..2 {
                        let got = conv2d_backward_weight_on(tier, &dy, &x, &s, &mut ws);
                        assert_eq!(got.as_slice(), want.as_slice(), "{tier:?} n={n} {s:?} {hw:?}");
                        ws.give_tensor(got);
                        let stale = ws.take_tensor_dirty::<F25>(&s.weight_shape());
                        ws.give_tensor(stale.map(|_| F25::new(0x1ab_cdef)));
                    }
                }
            }
        }
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
