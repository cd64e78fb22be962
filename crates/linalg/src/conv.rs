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
//!   **phase planes** per channel, each `⌈(h+2ph)/sh⌉ × ⌈(w+2pw)/sw⌉`
//!   (`wq` columns): plane `(a, b)` holds the padded pixels
//!   `(a + sh·r, b + sw·c)`. Only the planes some tap reads are staged —
//!   all `sh·sw` of them for a kernel at least as large as its stride,
//!   plane `(0, 0)` alone for a strided 1×1 — and each image row goes to
//!   its column phases by a strided extract the tier vectorizes (a copy
//!   at stride 1). The output is computed in **wide** coordinates,
//!   `oh × wq`, where tap `(ki, kj)` of output `(oy, ox)` is element
//!   `(oy + ⌊ki/sh⌋, ox + ⌊kj/sw⌋)` of plane `(ki mod sh, kj mod sw)`; so
//!   row `(ci, ki, kj)` of the column matrix, over the wide plane, is
//!   one contiguous run of the staging buffer starting at a fixed
//!   offset, and the strip kernel of [`mod@crate::matmul`] reads its `B`
//!   rows there ([`InPlace`](crate::matmul)). The `wq − ow` surplus
//!   columns of each wide row are computed and dropped when the `ow`
//!   valid ones are copied into `y` (written straight into `y` when
//!   there are none). The last wide row's surplus columns and the last
//!   strip's lanes past the wide plane read past the last phase plane,
//!   fewer than `LANES + kw` elements: the buffer carries that much
//!   **slack**. The buffer is zeroed once per call — borders, phase
//!   positions past the image and slack; each (sample, group) then
//!   overwrites the same interior — so padding taps read zeros. A 1×1,
//!   stride-1, unpadded layer stages nothing: its image's channel planes
//!   are the column matrix's rows, and the strip kernel packs only a
//!   last strip that would read past the tensor. This is one path for
//!   every stride, padding and grouping, depthwise included, in both
//!   domains. Each output element is the reference recurrence over
//!   ascending `(ci, ki, kj)`, zero weights skipped, so results are
//!   bit-identical to im2col-then-[`crate::reference::naive_matmul`] in
//!   both domains.
//! * **input gradient** (`dx = Wᵀ ⊛ dy`). Two passes, one choice made
//!   on [`Scalar::EXACT`]:
//!   - `F25` splits the image into its `sh·sw` **output phases**: the
//!     pixels `(a − ph + sh·r, b − pw + sw·c)` take exactly the kernel
//!     taps `(a + sh·t, b + sw·u)`, and in `(r, c)` that is a stride-1
//!     convolution of `dy` with those taps reversed and the filter's two
//!     channel axes swapped per group — at stride 1, the one phase is
//!     the transposed convolution. `dy` is staged once per sample,
//!     zero-padded so every tap of every phase reads inside it (read in
//!     place where no padding is needed: the 1×1 layers), and each
//!     phase is one tile product over its wide plane, reading `dy`'s
//!     rows in place as the forward reads the image's. A row phase's
//!     column phases are then woven into `dx`'s rows in one
//!     interleaving pass. No `dcol` is formed and nothing is
//!     scatter-added; a pixel whose phase has no tap (a kernel
//!     narrower than its stride) is zero. Each `dx` element is one tile
//!     reduction over `(co, t, u)`; the field sum is exact, so the
//!     result is the same value whatever order the taps arrive in;
//!   - `f32` computes `dcols = Wᵀ · dy` ([`matmul_at_b_into`], the strip
//!     kernel reading `W` transposed in place) and scatter-adds it into
//!     the image with [`col2im_acc_into`]. `f32` is the plain baseline
//!     and keeps this recurrence bit for bit: per `dx` element, the taps
//!     in ascending `(ki, kj)`, each its own ascending-`co` sum.
//! * **weight gradient** (`dW = Σ_n dy · cols(x)ᵀ`). The contraction
//!   runs over output positions. For `F25` the column matrix is read
//!   where it lies, as in the forward pass: each (sample, group) is
//!   staged once into the same padded, phase-split buffer (or read from
//!   the image itself, for a 1×1 stride-1 unpadded layer), and one
//!   packed-panel product per (sample, group) computes
//!   `dWᵀ[krows × cgo] = cols(x) · dyᵀ` over the **narrow** plane
//!   (`K = oh · ow`): its `A` rows are named by the staging offsets and
//!   its positions by one offset each, `oy·wq + ox`, that all rows of a
//!   tile share ([`ARows::Gather`](crate::matmul)), so no tap is spent
//!   on the wide plane's surplus columns. The panel filler packs
//!   `dyᵀ` as it is. The product is stored into `dW` transposed (the
//!   first sample stores, later ones add). `f32` keeps the
//!   dot-orientation kernel [`matmul_a_bt_into`] over a materialized
//!   column matrix ([`im2col_into`], its only caller), whose
//!   ascending-`p` sums with no zero skip are its reference bits.
//!
//! Grouped convolution is supported (`groups > 1`); depthwise convolution
//! — the core of MobileNet — is the special case `groups == in_channels`.

use crate::im2col::{col2im_acc_into, im2col_into, out_hw};
use crate::matmul::{
    fill_columns, gemm_packed_on, matmul_a_bt_into, matmul_at_b_into, store_transposed, ARows, InPlace,
    Panel, Rows, LANES,
};
use crate::scalar::Scalar;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use dk_field::tier::{Body, Tier, Width};

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
    // One scratch buffer: the staging buffer (none when the image is
    // its own), then the wide output unless there is no surplus column
    // to drop. The staging part is zeroed once: staging the next
    // (sample, group) writes the same interior positions, so the
    // borders, the unused phase positions and the slack stay zero for
    // the whole call.
    let stage_len = if st.in_place() { 0 } else { st.len };
    let surplus = if st.wq == ow { 0 } else { cgo * wide };
    let mut scratch = ws.take_dirty::<T>(stage_len + surplus);
    let (stage, ywide) = scratch.split_at_mut(stage_len);
    stage.fill(T::zero());
    let mut offs = ws.take_cleared::<usize>(krows);
    st.offsets(cgi, &mut offs);
    for ni in 0..n {
        let xi = x.batch_item(ni);
        let yi = y.batch_item_mut(ni);
        for g in 0..s.groups {
            let cols = st.columns(tier, &xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1], stage);
            let wg = &w.as_slice()[g * cgo * krows..(g + 1) * cgo * krows];
            let yg = &mut yi[g * cgo * oh * ow..(g + 1) * cgo * oh * ow];
            // yg[cgo x wide] = wg[cgo x krows] · cols(xg)[krows x wide],
            // the column matrix read where it lies.
            let rows = Rows::InPlace(InPlace::new(cols, &offs, wide));
            let a_index = (ARows::Every(krows), 1);
            if st.wq == ow {
                gemm_packed_on(tier, wg, a_index, yg, (cgo, krows, wide), rows);
            } else {
                gemm_packed_on(tier, wg, a_index, ywide, (cgo, krows, wide), rows);
                for (dst, src) in yg.chunks_exact_mut(ow).zip(ywide.chunks_exact(st.wq)) {
                    copy(dst, &src[..ow]);
                }
            }
        }
    }
    ws.give(offs);
    ws.give(scratch);
    y
}

/// The forward convolution's staging layout for one (sample, group):
/// each of the `cgi` channels, zero-padded, split into the phase planes
/// of `hq × wq` some tap reads, plane `(a, b)` holding the padded pixels
/// `(a + sh·r, b + sw·c)` (all `sh·sw` of them when the kernel is at
/// least as large as the stride, plane `(0, 0)` alone for a strided
/// 1×1), followed by `LANES + kw` zeros of slack. In these coordinates
/// tap `(ki, kj)` of output `(oy, ox)` is element `(oy + ki/sh,
/// ox + kj/sw)` of phase plane `(ki mod sh, kj mod sw)`: row
/// `(ci, ki, kj)` of the column matrix, over the "wide" output plane
/// `oh × wq`, is one contiguous run of the buffer. A 1×1, stride-1,
/// unpadded layer's image is that layout already, and is not copied.
#[derive(Debug, Clone, Copy)]
struct Staging {
    hw: (usize, usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    /// Row and column phases staged: those a tap reads.
    phases: (usize, usize),
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
        let phases = (sh.min(s.kernel.0), sw.min(s.kernel.1));
        // A wide row `oy` plus the deepest tap row stays inside its
        // plane (`oh + (kh−1)/sh ≤ hq`, and likewise across); what runs
        // past the plane is the last wide row's `(kw−1)/sw` surplus
        // columns and the lanes of the last strip past the wide plane,
        // fewer than `LANES + kw` elements.
        let len = s.cg_in() * phases.0 * phases.1 * plane + LANES + s.kernel.1;
        Self { hw, kernel: s.kernel, stride: s.stride, padding: s.padding, phases, wq, plane, len }
    }

    /// A 1×1, stride-1, unpadded layer: the image's channel planes are
    /// the column matrix's rows.
    fn in_place(&self) -> bool {
        (self.kernel, self.stride, self.padding) == ((1, 1), (1, 1), (0, 0))
    }

    /// Appends to `offs` where each row `p = (ci, ki, kj)` of the column
    /// matrix starts, for `cgi` channels: its element for wide output
    /// column `j` is at `offs[p] + j`. (A division per tap, not per row:
    /// a channel's rows are the first channel's, one channel further.)
    fn offsets(&self, cgi: usize, offs: &mut Vec<usize>) {
        let ((kh, kw), (sh, sw), (na, nb)) = (self.kernel, self.stride, self.phases);
        offs.extend((0..kh * kw).map(|t| {
            let (ki, kj) = (t / kw, t % kw);
            (ki % sh * nb + kj % sw) * self.plane + ki / sh * self.wq + kj / sw
        }));
        let channel = na * nb * self.plane;
        for ci in 1..cgi {
            offs.extend_from_within(..kh * kw);
            for o in &mut offs[ci * kh * kw..] {
                *o += ci * channel;
            }
        }
    }

    /// The buffer the column matrix of `image` (`[cgi, h, w]`) is read
    /// from: `image` itself for an [`in_place`](Self::in_place) layer,
    /// otherwise `stage` with the image's pixels written to their phase
    /// positions (nothing else is written).
    fn columns<'a, T: Scalar>(&self, tier: Tier, image: &'a [T], stage: &'a mut [T]) -> &'a [T] {
        if self.in_place() {
            return image;
        }
        tier.run(Split { st: self, image, stage: &mut *stage });
        stage
    }
}

/// The phase split of one (sample, group) as a pass on the tier: per
/// image row and column phase, one strided extract that the tier's
/// shuffles vectorize at stride 2 ([`every_other`]).
struct Split<'a, T> {
    st: &'a Staging,
    image: &'a [T],
    stage: &'a mut [T],
}

impl<T: Scalar> Body for Split<'_, T> {
    type Out = ();

    /// The divisions are per phase, not per row: consecutive image rows
    /// of one row phase land on consecutive rows of its planes.
    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Split { st, image, stage } = self;
        let ((h, w), (sh, sw), (ph, pw), (na, nb)) = (st.hw, st.stride, st.padding, st.phases);
        if h * w == 0 {
            return;
        }
        // Phase `a` of an axis padded by `p` takes the pixels
        // `i ≡ a − p (mod s)`, from the first one on, to positions
        // `(i + p) / s` of its planes' rows (columns).
        let first = |a: usize, s: usize, p: usize| (a + s - p % s) % s;
        for b in 0..nb {
            let ix0 = first(b, sw, pw);
            if ix0 >= w {
                continue;
            }
            let (c0, count) = ((ix0 + pw) / sw, (w - ix0).div_ceil(sw));
            for a in 0..na {
                let iy0 = first(a, sh, ph);
                let at = (a * nb + b) * st.plane + (iy0 + ph) / sh * st.wq + c0;
                for (c, pixels) in image.chunks_exact(h * w).enumerate() {
                    let rows = pixels.chunks_exact(w).skip(iy0).step_by(sh);
                    let dst = &mut stage[at + c * na * nb * st.plane..];
                    for (dst, row) in dst.chunks_mut(st.wq).zip(rows) {
                        let (src, dst) = (&row[ix0..], &mut dst[..count]);
                        match sw {
                            1 => copy(dst, src),
                            2 => every_other(src, dst),
                            _ => dst.iter_mut().zip(src.iter().step_by(sw)).for_each(|(d, &v)| *d = v),
                        }
                    }
                }
            }
        }
    }
}

/// `dst[c] = src[2c]` for the `⌈src.len() / 2⌉` elements of `dst`:
/// whole pairs as a fixed-shape gather, then the last element.
#[inline(always)]
fn every_other<T: Copy>(src: &[T], dst: &mut [T]) {
    let (groups, rest) = src.as_chunks::<2>();
    let (body, tail) = dst.split_at_mut(groups.len());
    for (d, g) in body.iter_mut().zip(groups) {
        *d = g[0];
    }
    if let (Some(d), Some(&v)) = (tail.first_mut(), rest.first()) {
        *d = v;
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
    conv2d_backward_input_on(Tier::best(), dy, w, s, hw, ws)
}

/// [`conv2d_backward_input_ws`] on a given tier, as
/// [`conv2d_forward_on`].
pub(crate) fn conv2d_backward_input_on<T: Scalar>(
    tier: Tier,
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
    if T::EXACT {
        return phase_convolutions(tier, dy, w, s, hw, ws);
    }
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
            // then one scatter-add into the (zero-initialized) image.
            matmul_at_b_into(wg, dyg, &mut dcol, krows, cgo, ocols);
            let dst = &mut dxi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
            col2im_acc_into(&dcol, cgi, hw, s.kernel, s.stride, s.padding, dst);
        }
    }
    ws.give(dcol);
    dx
}

/// One output phase of the input gradient along one axis: the image
/// coordinates `first + s·r`, `r < count` (those `≡ a − p (mod s)`),
/// take the kernel taps `a + s·t`, `t < taps`, each from `dy` at
/// `q0 + r − t` (zero outside `dy`). In `r` that is a stride-1
/// correlation of `dy` with the phase's taps in reverse order.
#[derive(Debug, Clone, Copy)]
struct Phase {
    a: usize,
    s: usize,
    taps: usize,
    q0: usize,
    count: usize,
    first: usize,
}

impl Phase {
    /// Phase `a` of an axis of `len` pixels, kernel `k`, stride `s`,
    /// padding `p`.
    fn new(len: usize, k: usize, s: usize, p: usize, a: usize) -> Self {
        let taps = if a < k { (k - a).div_ceil(s) } else { 0 };
        let q0 = p.saturating_sub(a).div_ceil(s);
        let count = (len + p).saturating_sub(a).div_ceil(s).saturating_sub(q0);
        Self { a, s, taps, q0, count, first: a + s * q0 - p }
    }

    /// The phase has pixels and taps to give them.
    fn live(&self) -> bool {
        self.taps > 0 && self.count > 0
    }

    /// Where, in a `dy` axis staged after `pad` zeros, output `r = 0`
    /// reads its first tap (`t = taps − 1`); tap `t` of output `r` is
    /// `taps − 1 − t + r` further on.
    fn start(&self, pad: usize) -> usize {
        pad + self.q0 + 1 - self.taps
    }

    /// The kernel index of the phase's `u`-th tap in reading order.
    fn tap(&self, u: usize) -> usize {
        self.a + self.s * (self.taps - 1 - u)
    }
}

/// The `dy` layout the phases of one axis read: `pad` zeros before the
/// `o` positions of `dy`, and `len` positions in all.
fn dy_axis(phases: impl Iterator<Item = Phase> + Clone, o: usize) -> (usize, usize) {
    let live = phases.filter(Phase::live);
    let pad = live.clone().map(|q| (q.taps - 1).saturating_sub(q.q0)).max().unwrap_or(0);
    let len = pad + live.map(|q| q.q0 + q.count).max().unwrap_or(0).max(o);
    (pad, len)
}

/// The `F25` input gradient as `sh·sw` stride-1 convolutions of `dy`,
/// one per output phase `(a, b)`: the phase's pixels take the kernel
/// taps `(a + sh·t, b + sw·u)` in reverse order, channel axes swapped
/// per group, over `dy` padded so that every tap of every phase reads
/// inside it (see the module docs).
fn phase_convolutions<T: Scalar>(
    tier: Tier,
    dy: &Tensor<T>,
    w: &Tensor<T>,
    s: &Conv2dShape,
    hw: (usize, usize),
    ws: &mut Workspace,
) -> Tensor<T> {
    let n = dy.shape()[0];
    let (oh, ow) = s.out_hw(hw);
    let ((kh, kw), (sh, sw), (ph, pw)) = (s.kernel, s.stride, s.padding);
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let rows = move |a| Phase::new(hw.0, kh, sh, ph, a);
    let cols = move |b| Phase::new(hw.1, kw, sw, pw, b);
    let phases = move || {
        let live = (0..sh).flat_map(move |a| (0..sw).map(move |b| (rows(a), cols(b))));
        live.filter(|(r, c)| r.live() && c.live())
    };
    let ((ty, hs), (tx, wd)) = (dy_axis((0..sh).map(rows), oh), dy_axis((0..sw).map(cols), ow));
    let dplane = hs * wd;
    // `dy` needs no padding (1×1 layers): its channel planes are read
    // where they lie.
    let in_place = (ty, tx, hs, wd) == (0, 0, oh, ow);
    // A pixel whose phase has no tap (a kernel narrower than its
    // stride) is never written: only then is `dx` cleared first.
    let mut dx = match kh < sh || kw < sw {
        true => ws.take_tensor(&[n, s.in_channels, hw.0, hw.1]),
        false => ws.take_tensor_dirty(&[n, s.in_channels, hw.0, hw.1]),
    };
    // Each phase's taps in reading order, `cgo` positions per tap: the
    // `B` row offsets into a staged group of `dy`, and where the weight
    // `W[g·cgo + co, ci, tap]` lies past filter row `ci` of group `g`'s
    // first filter (`A` read in place: rows `ci·kh·kw` apart, each
    // position at its own offset). `first[(a, b)]` is where the phase's
    // positions start.
    let taps = kh * kw;
    let len = 2 * cgo * taps + cgi + sh * sw;
    let mut idx = ws.take_cleared::<usize>(len);
    idx.resize(len, 0);
    let (offs, rest) = idx.split_at_mut(cgo * taps);
    let (wcols, rest) = rest.split_at_mut(cgo * taps);
    let (wrows, first) = rest.split_at_mut(cgi);
    wrows.iter_mut().enumerate().for_each(|(ci, o)| *o = ci * taps);
    let mut at = 0;
    for (r, c) in phases() {
        first[r.a * sw + c.a] = at;
        for co in 0..cgo {
            for t in 0..r.taps {
                for u in 0..c.taps {
                    offs[at] = co * dplane + (r.start(ty) + t) * wd + c.start(tx) + u;
                    wcols[at] = co * cgi * taps + r.tap(t) * kw + c.tap(u);
                    at += 1;
                }
            }
        }
    }
    // The staged `dy` of one sample (zeroed once; each sample rewrites
    // the same interior), with the slack the last wide row and strip
    // read past it, then one row phase's products, `cgi × count·wd`
    // per column phase; a column phase with no tap stays zero.
    let stage_len = if in_place { 0 } else { s.out_channels * dplane + wd + LANES };
    let wide = (0..sh).map(rows).filter(Phase::live).map(|r| r.count * wd).max().unwrap_or(0);
    let part = cgi * wide;
    let mut scratch = ws.take_dirty::<T>(stage_len + sw * part);
    let (stage, cwide) = scratch.split_at_mut(stage_len);
    stage.fill(T::zero());
    for b in (0..sw).filter(|&b| !cols(b).live()) {
        cwide[b * part..][..part].fill(T::zero());
    }
    for ni in 0..n {
        let dyi = dy.batch_item(ni);
        let src: &[T] = if in_place {
            dyi
        } else {
            tier.run(Pad { dy: dyi, stage: &mut *stage, ohw: (oh, ow), plane: dplane, at: ty * wd + tx, wd });
            stage
        };
        let dxi = dx.batch_item_mut(ni);
        for r in (0..sh).map(rows).filter(Phase::live) {
            let wide = r.count * wd;
            for g in 0..s.groups {
                for c in (0..sw).map(cols).filter(Phase::live) {
                    let (at, k) = (first[r.a * sw + c.a], cgo * r.taps * c.taps);
                    let wg = &w.as_slice()[g * cgo * cgi * taps..];
                    let a_rows = ARows::Gather(wrows, &wcols[at..at + k]);
                    let b = &src[g * cgo * dplane..];
                    let rows = Rows::InPlace(InPlace::new(b, &offs[at..at + k], wide));
                    let cg = &mut cwide[c.a * part..][..cgi * wide];
                    gemm_packed_on(tier, wg, (a_rows, 0), cg, (cgi, k, wide), rows);
                }
                let planes = &mut dxi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
                let rows = (r.first, sh, wide, wd);
                tier.run(Weave { planes, from: cwide, hw, rows, s: sw, lead: pw % sw, part });
            }
        }
    }
    ws.give(scratch);
    ws.give(idx);
    dx
}

/// One sample's `dy` (`[oc, oh, ow]`) into the interior of its padded
/// staging planes, `plane` apart, row `r` of a channel at
/// `at + r·wd`, as a pass on the tier.
struct Pad<'a, T> {
    dy: &'a [T],
    stage: &'a mut [T],
    ohw: (usize, usize),
    plane: usize,
    at: usize,
    wd: usize,
}

impl<T: Scalar> Body for Pad<'_, T> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Pad { dy, stage, ohw: (oh, ow), plane, at, wd } = self;
        for (dst, src) in stage.chunks_exact_mut(plane).zip(dy.chunks_exact(oh * ow)) {
            for (d, row) in dst[at..].chunks_mut(wd).zip(src.chunks_exact(ow)) {
                copy(&mut d[..ow], row);
            }
        }
    }
}

/// One row phase's image rows of `cgi` planes (`h × w` each), each
/// woven from the phase's output rows (`wd` apart, a plane's `wide`
/// apart, each column phase's `part` apart in `from`): column `s·k + j`
/// of the image row is element `k` of column phase `(j + pw) mod s`'s
/// row. One interleaving pass on the tier.
struct Weave<'a, T> {
    planes: &'a mut [T],
    from: &'a [T],
    hw: (usize, usize),
    /// The phase's first image row, the row step, and the spacing of
    /// its output planes and rows.
    rows: (usize, usize, usize, usize),
    s: usize,
    lead: usize,
    part: usize,
}

impl<T: Scalar> Body for Weave<'_, T> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Weave { planes, from, hw: (h, w), rows: (first, step, wide, wd), s, lead, part } = self;
        let phase = |j: usize| if j + lead < s { j + lead } else { j + lead - s } * part;
        for (ci, plane) in planes.chunks_exact_mut(h * w).enumerate() {
            for (q, line) in plane.chunks_exact_mut(w).skip(first).step_by(step).enumerate() {
                let at = ci * wide + q * wd;
                match s {
                    1 => copy(line, &from[at..][..w]),
                    2 => {
                        let (pairs, tail) = line.as_chunks_mut::<2>();
                        let even = &from[phase(0) + at..][..pairs.len() + tail.len()];
                        let odd = &from[phase(1) + at..][..pairs.len()];
                        for ((d, &x), &y) in pairs.iter_mut().zip(even).zip(odd) {
                            *d = [x, y];
                        }
                        if let (Some(d), Some(&v)) = (tail.first_mut(), even.get(pairs.len())) {
                            *d = v;
                        }
                    }
                    _ => {
                        for (k, group) in line.chunks_mut(s).enumerate() {
                            for (j, d) in group.iter_mut().enumerate() {
                                *d = from[phase(j) + at + k];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `dst = src` for a short row: eight elements at a time, so the copy
/// is a few vector moves instead of a `memcpy` call.
#[inline(always)]
fn copy<T: Copy>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "copy between rows of different lengths");
    let ((d8, dr), (s8, sr)) = (dst.as_chunks_mut::<8>(), src.as_chunks::<8>());
    d8.iter_mut().zip(s8).for_each(|(d, s)| *d = *s);
    dr.iter_mut().zip(sr).for_each(|(d, s)| *d = *s);
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
    // The first `F25` sample stores every element; `f32` adds into it.
    let mut dw = match T::EXACT && n > 0 {
        true => ws.take_tensor_dirty(&s.weight_shape()),
        false => ws.take_tensor(&s.weight_shape()),
    };
    // The staging buffer (`F25`, none when the image is its own) or the
    // column matrix (`f32`), then one (sample, group)'s product, fully
    // overwritten by each. The staging buffer is zeroed once, as the
    // forward's.
    let cols_len = match T::EXACT {
        true if st.in_place() => 0,
        true => st.len,
        false => krows * ocols,
    };
    let mut scratch = ws.take_dirty::<T>(cols_len + krows * cgo);
    let (cols, dwg) = scratch.split_at_mut(cols_len);
    // The column matrix's row starts, and where each narrow output
    // position `(oy, ox)` lies in a row: `oy·wq + ox`.
    let mut idx = ws.take_cleared::<usize>(krows + ocols);
    if T::EXACT {
        cols.fill(T::zero());
        st.offsets(cgi, &mut idx);
        idx.extend((0..oh).flat_map(|oy| (0..ow).map(move |ox| oy * st.wq + ox)));
    }
    // (Both empty for `f32`.)
    let (offs, narrow) = idx.split_at(idx.len().min(krows));
    let mut panel = Panel::new();
    for ni in 0..n {
        let (xi, dyi) = (x.batch_item(ni), dy.batch_item(ni));
        if T::EXACT {
            // dwgᵀ[krows x cgo] = cols(xg)[krows x ocols] · dygᵀ[ocols x cgo]
            // per group: the column matrix read where it lies, over the
            // narrow plane, `dyᵀ` packed as it is.
            for g in 0..s.groups {
                let a = st.columns(tier, &xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1], cols);
                let fill = fill_columns(&dyi[g * cgo * ocols..(g + 1) * cgo * ocols], ocols, cgo);
                let a_rows = ARows::Gather(offs, narrow);
                gemm_packed_on(tier, a, (a_rows, 1), dwg, (krows, ocols, cgo), Rows::Packed(&mut panel, &fill));
                let dst = &mut dw.as_mut_slice()[g * cgo * krows..(g + 1) * cgo * krows];
                store_transposed(dwg, (krows, cgo), dst, ni > 0);
            }
        } else {
            for g in 0..s.groups {
                // dwg[cgo x krows] = dyg[cgo x ocols] · colsᵀ[ocols x krows],
                // added into dw as a separate elementwise pass.
                let xg = &xi[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
                im2col_into(xg, cgi, hw, s.kernel, s.stride, s.padding, cols);
                matmul_a_bt_into(&dyi[g * cgo * ocols..(g + 1) * cgo * ocols], cols, dwg, cgo, ocols, krows);
                let dst = &mut dw.as_mut_slice()[g * cgo * krows..(g + 1) * cgo * krows];
                for (d, &v) in dst.iter_mut().zip(dwg.iter()) {
                    *d += v;
                }
            }
        }
    }
    ws.give(idx);
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
    /// against the direct reference: dense with a staged plane wider
    /// than the output (`wq ≠ ow`, positions gathered), stride 2, 1×1 at stride 2, no padding,
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

    /// Direct (scatter) input gradient: every tap of every output
    /// position adds `W[oc, ci, ky, kx] · dy[n, oc, oy, ox]` to the pixel
    /// it read, if it read one.
    fn input_grad_reference(dy: &Tensor<F25>, w: &Tensor<F25>, s: &Conv2dShape, hw: (usize, usize)) -> Tensor<F25> {
        let n = dy.shape()[0];
        let (oh, ow) = s.out_hw(hw);
        let (cgi, cgo) = (s.cg_in(), s.cg_out());
        let mut dx = Tensor::zeros(&[n, s.in_channels, hw.0, hw.1]);
        for ni in 0..n {
            for oc in 0..s.out_channels {
                for ci in 0..cgi {
                    let ic = oc / cgo * cgi + ci;
                    for ky in 0..s.kernel.0 {
                        for kx in 0..s.kernel.1 {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let iy = (oy * s.stride.0 + ky) as isize - s.padding.0 as isize;
                                    let ix = (ox * s.stride.1 + kx) as isize - s.padding.1 as isize;
                                    if iy >= 0 && ix >= 0 && (iy as usize) < hw.0 && (ix as usize) < hw.1 {
                                        let at = [ni, ic, iy as usize, ix as usize];
                                        let v = dx.get(&at) + w.get(&[oc, ci, ky, kx]) * dy.get(&[ni, oc, oy, ox]);
                                        dx.set(&at, v);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    /// Both `F25` backward passes on every tier the host offers, exactly
    /// against the direct references: stride {1, 2, 3} × padding
    /// {0, 1, 2} × kernel {1×1, 2×3, 3×3} × grouping {dense, grouped,
    /// depthwise}, each on an image whose padded size less the kernel is
    /// a multiple of the stride on both axes and on one that is not (the
    /// last output phase is then ragged), from a workspace whose pooled
    /// buffers hold garbage and again on the buffers the first call
    /// dirtied.
    #[test]
    fn field_backward_passes_on_every_tier() {
        let mut rng = dk_field::FieldRng::seed_from(0x7e0);
        for stride in [1, 2, 3] {
            for pad in [0, 1, 2] {
                for kernel in [(1, 1), (2, 3), (3, 3)] {
                    // The smallest sizes from 5 on whose `h + 2p − k` is
                    // a multiple of the stride, then one past them.
                    let fit = |k: usize| (5..).find(|&h: &usize| (h + 2 * pad - k).is_multiple_of(stride)).unwrap_or(5);
                    let fitted = (fit(kernel.0), fit(kernel.1) + stride);
                    for hw in [fitted, (fitted.0 + 1, fitted.1 + 1)] {
                        for (ic, oc, groups) in [(4, 6, 1), (4, 6, 2), (4, 4, 4)] {
                            let s = Conv2dShape::new(ic, oc, kernel, (stride, stride), (pad, pad), groups);
                            let (oh, ow) = s.out_hw(hw);
                            let mut draw = |shape: &[usize]| Tensor::from_fn(shape, |_| rng.uniform::<{ dk_field::P25 }>());
                            let x = draw(&[2, ic, hw.0, hw.1]);
                            let w = draw(&s.weight_shape());
                            let dy = draw(&[2, oc, oh, ow]);
                            let want_dx = input_grad_reference(&dy, &w, &s, hw);
                            let want_dw = weight_grad_reference(&dy, &x, &s);
                            for tier in Tier::offered() {
                                let mut ws = Workspace::new();
                                let big = 4 * (x.len() + dy.len() + w.len()) + 256;
                                for _ in 0..4 {
                                    ws.give(vec![F25::new(0x1ab_cdef); big]);
                                }
                                for round in 0..2 {
                                    let what = format!("{tier:?} {s:?} hw={hw:?} round {round}");
                                    let dx = conv2d_backward_input_on(tier, &dy, &w, &s, hw, &mut ws);
                                    assert_eq!(dx.as_slice(), want_dx.as_slice(), "dx {what}");
                                    let dw = conv2d_backward_weight_on(tier, &dy, &x, &s, &mut ws);
                                    assert_eq!(dw.as_slice(), want_dw.as_slice(), "dW {what}");
                                    ws.give_tensor(dx);
                                    ws.give_tensor(dw);
                                }
                            }
                        }
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
