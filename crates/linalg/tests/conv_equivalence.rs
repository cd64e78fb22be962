//! The three convolution passes against direct-convolution oracles.
//!
//! `conv2d_forward_ws` never builds a column matrix: it stages each
//! sample's image once, padded and split into stride phases, and its
//! strip kernel reads the column matrix's rows where they lie there,
//! over a "wide" output plane whose surplus columns it drops. The oracle
//! here knows nothing about strips, panels or lowering — it is the
//! definition of a convolution, one output element at a time, with the
//! reference recurrence spelled out (ascending `(ci, ki, kj)`, terms
//! whose *weight* is zero skipped, padding read as zero). The kernel
//! must match it **bit for bit** in f32 — signed zeros, infinities and
//! where the NaNs fall included — and exactly in the field, from a
//! workspace full of garbage.
//!
//! The backward passes get the same treatment. Their oracles are the
//! definitions of `∂L/∂x` and `∂L/∂W` spelled out one element at a
//! time, in the summation order the `f32` kernels keep (the plain
//! baseline's bits); `F25` sums are exact, so the same loops are its
//! oracle too, whichever kernel — transposed convolution, packed-panel
//! weight gradient, or the strided scatter — produced the value.

use dk_field::{FieldRng, F25, P25};
use dk_linalg::conv::{conv2d_backward_input_ws, conv2d_backward_weight_ws, conv2d_forward_ws};
use dk_linalg::im2col::{col2im_acc_into, im2col_into};
use dk_linalg::reference::{naive_matmul_a_bt, naive_matmul_at_b};
use dk_linalg::{Conv2dShape, Scalar, Tensor, Workspace};

/// `y[n, oc, oy, ox] = Σ_{ci,ki,kj} w[oc, ci, ki, kj] · x[n, g·cgi+ci, iy, ix]`.
fn direct_conv<T: Scalar>(x: &Tensor<T>, w: &Tensor<T>, s: &Conv2dShape) -> Tensor<T> {
    let (n, h, wd) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw((h, wd));
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let mut y = Tensor::zeros(&[n, s.out_channels, oh, ow]);
    for ni in 0..n {
        for oc in 0..s.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = T::zero();
                    for ci in 0..cgi {
                        for ki in 0..s.kernel.0 {
                            for kj in 0..s.kernel.1 {
                                let wv = w.get(&[oc, ci, ki, kj]);
                                if wv == T::zero() {
                                    continue;
                                }
                                let (iy, ix) = (oy * s.stride.0 + ki, ox * s.stride.1 + kj);
                                let (ph, pw) = s.padding;
                                let inside = iy >= ph && iy - ph < h && ix >= pw && ix - pw < wd;
                                let xv = if inside {
                                    x.get(&[ni, oc / cgo * cgi + ci, iy - ph, ix - pw])
                                } else {
                                    T::zero()
                                };
                                acc += wv * xv;
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

/// Bit patterns, so `0.0 != -0.0` and a NaN equals a NaN. Which NaN is
/// not compared: its sign and payload depend on the operand order the
/// compiler picks for a commutative add, not on the recurrence.
trait Bits: Scalar {
    fn bits(self) -> u64;
}
impl Bits for f32 {
    fn bits(self) -> u64 {
        if self.is_nan() {
            u64::MAX
        } else {
            self.to_bits() as u64
        }
    }
}
impl Bits for F25 {
    fn bits(self) -> u64 {
        self.value()
    }
}

/// A workspace whose pooled buffers hold nonzero garbage at exactly the
/// lengths the convolution is about to take, so a kernel that trusted
/// its output or scratch to be cleared would show.
fn poisoned_workspace<T: Scalar>(lens: &[usize]) -> Workspace {
    let mut ws = Workspace::new();
    for &len in lens {
        ws.give((0..len).map(|i| if i % 2 == 0 { T::one() } else { -T::one() }).collect::<Vec<T>>());
    }
    ws
}

fn assert_conv<T: Bits>(mut gen: impl FnMut() -> T, s: Conv2dShape, n: usize, hw: (usize, usize)) {
    let x = Tensor::from_fn(&[n, s.in_channels, hw.0, hw.1], |_| gen());
    let w = Tensor::from_fn(&s.weight_shape(), |_| gen());
    assert_conv_on(&x, &w, &s);
}

/// The forward pass's own scratch for `x`'s geometry, one buffer: the
/// staging part (`cgi` channels of the phase planes a tap reads,
/// `min(sh, kh) · min(sw, kw)` of `hq × wq` each, and `LANES + kw` of
/// slack) and the wide output (`cgo × oh × wq`) when it has surplus
/// columns. Returns both parts' lengths.
fn forward_scratch_lens(s: &Conv2dShape, hw: (usize, usize)) -> [usize; 2] {
    const LANES: usize = 16;
    let ((sh, sw), (ph, pw), (kh, kw)) = (s.stride, s.padding, s.kernel);
    let (hq, wq) = ((hw.0 + 2 * ph).div_ceil(sh), (hw.1 + 2 * pw).div_ceil(sw));
    let (oh, ow) = s.out_hw(hw);
    let wide = if wq == ow { 0 } else { s.cg_out() * oh * wq };
    [s.cg_in() * sh.min(kh) * sw.min(kw) * hq * wq + LANES + kw, wide]
}

fn assert_conv_on<T: Bits>(x: &Tensor<T>, w: &Tensor<T>, s: &Conv2dShape) {
    let want = direct_conv(x, w, s);
    let [stage, wide] = forward_scratch_lens(s, (x.shape()[2], x.shape()[3]));
    let mut ws = poisoned_workspace::<T>(&[want.len(), want.len() + 7, stage + wide]);
    let got = conv2d_forward_ws(x, w, s, &mut ws);
    assert_eq!(got.shape(), want.shape(), "{s:?}");
    for (i, (g, e)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.bits(), e.bits(), "{s:?} input {:?}: element {i}: {g:?} != {e:?}", x.shape());
    }
    // A second call reuses the buffers the first one dirtied.
    ws.give_tensor(got);
    let again = conv2d_forward_ws(x, w, s, &mut ws);
    assert!(again.as_slice().iter().zip(want.as_slice()).all(|(g, e)| g.bits() == e.bits()));
}

/// Field generator with a sprinkling of zeros (exercises the zero-skip).
fn field_gen(seed: u64) -> impl FnMut() -> F25 {
    let mut rng = FieldRng::seed_from(seed);
    move || {
        let v = rng.uniform::<P25>();
        if v.value().is_multiple_of(7) {
            F25::ZERO
        } else {
            v
        }
    }
}

/// Float generator whose products and sums round (thirds), with zeros:
/// only the exact reference order reproduces the bits.
fn float_gen(seed: u64) -> impl FnMut() -> f32 {
    let mut rng = FieldRng::seed_from(seed);
    move || {
        let v = rng.uniform::<P25>().value();
        if v.is_multiple_of(7) {
            0.0
        } else {
            ((v % 2001) as f32 - 1000.0) / 3.0
        }
    }
}

fn all_domains(seed: u64, s: Conv2dShape, n: usize, hw: (usize, usize)) {
    assert_conv(field_gen(seed), s, n, hw);
    assert_conv(float_gen(seed ^ 0xF32), s, n, hw);
}

/// Stride × padding × grouping × kernel × batch, on an input whose
/// output width is never a multiple of the strip width, so strips span
/// output rows and end mid-row.
#[test]
fn geometry_sweep_matches_direct_convolution() {
    let mut seed = 0xC0_4E;
    for kernel in [(1, 1), (3, 3), (2, 3)] {
        for stride in [1, 2] {
            for pad in [0, 1, 2] {
                for (ic, oc, groups) in [(4, 6, 1), (4, 6, 2), (4, 4, 4)] {
                    for n in [1, 3] {
                        let s = Conv2dShape::new(ic, oc, kernel, (stride, stride), (pad, pad), groups);
                        seed += 1;
                        all_domains(seed, s, n, (7, 11));
                    }
                }
            }
        }
    }
}

/// Output planes around the strip width: one short of a strip, exactly
/// one, one over, several strips per output row, rows shorter than a
/// strip, and a single output element.
#[test]
fn strip_boundaries_match_direct_convolution() {
    let s3 = Conv2dShape::simple(3, 5, 3, 1, 1);
    for hw in [(3, 5), (4, 4), (1, 17), (17, 1), (5, 7), (2, 40), (9, 33), (1, 1)] {
        all_domains(hw.0 as u64 * 64 + hw.1 as u64, s3, 2, hw);
    }
    // Asymmetric stride/padding/kernel, so the two axes cannot be swapped.
    let s = Conv2dShape::new(2, 4, (3, 2), (2, 1), (0, 2), 2);
    all_domains(0xA5, s, 2, (9, 20));
}

/// The window is larger than the unpadded image: every tap row and
/// column is clipped, some windows are padding only.
#[test]
fn kernel_larger_than_unpadded_input() {
    all_domains(1, Conv2dShape::simple(2, 3, 3, 1, 1), 2, (2, 2));
    all_domains(2, Conv2dShape::simple(2, 3, 3, 1, 2), 1, (1, 2));
    all_domains(3, Conv2dShape::new(2, 2, (5, 3), (2, 1), (2, 2), 2), 1, (2, 1));
    all_domains(4, Conv2dShape::depthwise(3, 3, 2, 2), 2, (1, 1));
}

/// More than one `k` block per strip (`ic/g · kh · kw > 256`), with the
/// block boundary falling inside a channel's taps.
#[test]
fn reduction_crosses_the_panel_block() {
    all_domains(0xB10C, Conv2dShape::simple(30, 3, 3, 1, 1), 1, (5, 6));
    all_domains(0xB10D, Conv2dShape::new(58, 4, (3, 3), (2, 2), (1, 1), 2), 2, (6, 5));
}

/// `F25` operands at `p − 1`: every lane of every strip carries the
/// largest unreduced products the `u64` accumulators will ever see.
#[test]
fn worst_case_field_operands() {
    let s = Conv2dShape::simple(40, 2, 3, 1, 1);
    let x = Tensor::from_fn(&[1, 40, 6, 6], |_| F25::new(P25 - 1));
    let w = Tensor::from_fn(&s.weight_shape(), |_| F25::new(P25 - 1));
    assert_conv_on(&x, &w, &s);
}

/// Non-finite f32 inputs propagate exactly as in the reference: a zero
/// *weight* removes its term (so `0 · ∞` never appears there), a zero
/// *pixel* or a padding tap does not (`w · 0` with `w = ∞` is NaN).
#[test]
fn f32_non_finite_propagation() {
    let s = Conv2dShape::simple(2, 3, 3, 1, 1);
    let mut gen = float_gen(0x1F);
    let mut x = Tensor::from_fn(&[2, 2, 5, 6], |_| gen());
    let mut w = Tensor::from_fn(&s.weight_shape(), |_| gen());
    x.set(&[0, 0, 2, 3], f32::INFINITY);
    x.set(&[0, 1, 0, 0], f32::NAN);
    x.set(&[1, 1, 4, 5], f32::NEG_INFINITY);
    x.set(&[1, 0, 1, 1], -0.0);
    w.set(&[0, 0, 1, 1], 0.0); // meets the ∞ pixel: term skipped
    w.set(&[1, 1, 0, 0], f32::INFINITY); // meets zero pixels and padding: NaN
    w.set(&[2, 0, 2, 2], f32::NAN);
    w.set(&[2, 1, 1, 0], -0.0); // -0.0 == 0.0: skipped too
    let want = direct_conv(&x, &w, &s);
    assert!(want.as_slice().iter().any(|v| v.is_nan()));
    assert!(want.as_slice().iter().any(|v| v.is_infinite()));
    assert!(want.as_slice().iter().any(|v| v.is_finite()));
    assert_conv_on(&x, &w, &s);
}

/// Strides past 2, and unequal ones, on padded sizes that are not a
/// multiple of the stride: the phase planes are ragged (their last row
/// or column is partly padding past the image), and some phases are
/// never read (a kernel narrower than its stride).
#[test]
fn uneven_strides_match_direct_convolution() {
    for (s, hw) in [
        (Conv2dShape::new(3, 4, (3, 3), (3, 3), (1, 1), 1), (11, 12)),
        (Conv2dShape::new(4, 6, (3, 3), (2, 3), (1, 2), 2), (9, 10)),
        (Conv2dShape::new(2, 3, (3, 2), (3, 1), (2, 0), 1), (10, 7)),
        (Conv2dShape::new(3, 3, (1, 2), (3, 3), (0, 1), 3), (8, 7)),
        (Conv2dShape::depthwise(4, 3, 3, 1), (13, 14)),
    ] {
        let (h, w) = (hw.0 + 2 * s.padding.0, hw.1 + 2 * s.padding.1);
        assert!(h % s.stride.0 != 0 || w % s.stride.1 != 0, "{s:?} {hw:?}");
        all_domains(hw.0 as u64 * 131 + hw.1 as u64, s, 2, hw);
    }
}

/// Wide output planes one column past a whole number of strips
/// (`oh·wq = 33`, `81`, `33`): the last strip is one column wide, so
/// its surplus lanes read past the last phase plane into the staging
/// buffer's slack — checked here against the layout, so the shapes keep
/// testing what they claim to.
#[test]
fn last_strip_reads_into_the_staging_slack() {
    const LANES: usize = 16;
    for (s, hw) in [
        (Conv2dShape::simple(3, 5, 3, 1, 1), (3, 9)),
        (Conv2dShape::depthwise(2, 3, 2, 1), (17, 16)),
        (Conv2dShape::new(2, 2, (3, 5), (1, 1), (0, 2), 1), (5, 7)),
    ] {
        let ((kh, kw), (sh, sw), (ph, pw)) = (s.kernel, s.stride, s.padding);
        let (hq, wq) = ((hw.0 + 2 * ph).div_ceil(sh), (hw.1 + 2 * pw).div_ceil(sw));
        let wide = s.out_hw(hw).0 * wq;
        assert_eq!(wide % LANES, 1, "{s:?}");
        // The furthest tap row of the last channel, plus the last strip.
        let deepest = (0..kh * kw)
            .map(|t| {
                let (ki, kj) = (t / kw, t % kw);
                ((s.cg_in() - 1) * sh * sw + ki % sh * sw + kj % sw) * hq * wq + ki / sh * wq + kj / sw
            })
            .max()
            .unwrap();
        let reach = deepest + (wide - 1) / LANES * LANES + LANES;
        let [stage, _] = forward_scratch_lens(&s, hw);
        let planes = s.cg_in() * sh * sw * hq * wq;
        assert!(planes < reach && reach <= stage, "{s:?}: {planes} < {reach} <= {stage}");
        all_domains(wide as u64 * 7 + kw as u64, s, 2, hw);
    }
}

/// Non-finite f32 inputs through a strided layer: the padding taps of
/// the phase planes read zero, so an infinite weight meeting them is NaN
/// exactly where the reference puts it.
#[test]
fn f32_non_finite_propagation_strided() {
    let s = Conv2dShape::new(2, 3, (3, 3), (2, 2), (1, 1), 1);
    let mut gen = float_gen(0x2F);
    let mut x = Tensor::from_fn(&[2, 2, 7, 8], |_| gen());
    let mut w = Tensor::from_fn(&s.weight_shape(), |_| gen());
    x.set(&[0, 0, 3, 3], f32::INFINITY);
    x.set(&[0, 1, 0, 0], f32::NAN);
    x.set(&[1, 1, 6, 7], f32::NEG_INFINITY);
    x.set(&[1, 0, 2, 4], -0.0);
    w.set(&[0, 0, 1, 1], 0.0);
    w.set(&[1, 1, 0, 0], f32::INFINITY);
    w.set(&[2, 0, 2, 2], f32::NAN);
    w.set(&[2, 1, 1, 0], -0.0);
    let want = direct_conv(&x, &w, &s);
    assert!(want.as_slice().iter().any(|v| v.is_nan()));
    assert!(want.as_slice().iter().any(|v| v.is_infinite()));
    assert!(want.as_slice().iter().any(|v| v.is_finite()));
    assert_conv_on(&x, &w, &s);
}

/// A ragged grouped shape: 29 × 31 outputs per plane are 57 strips,
/// the last one ragged, over two groups of channels.
#[test]
fn ragged_grouped_shape_matches_direct_convolution() {
    let grouped = Conv2dShape::new(16, 24, (3, 3), (1, 1), (1, 1), 2);
    all_domains(0x5E44, grouped, 2, (29, 31));
}

/// `dx[n, ic, iy, ix] = Σ_{ki,kj} Σ_co w[co, ci, ki, kj] · dy[n, co, oy, ox]`
/// over the taps that land on `(iy, ix)`: taps in ascending `(ki, kj)`,
/// each its own ascending-`co` sum with zero *weights* skipped, added
/// to a zero image.
fn direct_conv_backward_input<T: Scalar>(
    dy: &Tensor<T>,
    w: &Tensor<T>,
    s: &Conv2dShape,
    (h, wd): (usize, usize),
) -> Tensor<T> {
    let n = dy.shape()[0];
    let (oh, ow) = s.out_hw((h, wd));
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let ((sh, sw), (ph, pw)) = (s.stride, s.padding);
    // The output position tap `k` of a window reads pixel `i` from.
    let at = |i: usize, k: usize, p: usize, st: usize, o: usize| {
        let q = (i + p).checked_sub(k)?;
        (q % st == 0 && q / st < o).then_some(q / st)
    };
    let mut dx = Tensor::zeros(&[n, s.in_channels, h, wd]);
    for ni in 0..n {
        for ic in 0..s.in_channels {
            let (g, ci) = (ic / cgi, ic % cgi);
            for iy in 0..h {
                for ix in 0..wd {
                    let mut acc = T::zero();
                    for ki in 0..s.kernel.0 {
                        for kj in 0..s.kernel.1 {
                            let (Some(oy), Some(ox)) = (at(iy, ki, ph, sh, oh), at(ix, kj, pw, sw, ow))
                            else {
                                continue;
                            };
                            let mut tap = T::zero();
                            for co in g * cgo..(g + 1) * cgo {
                                let wv = w.get(&[co, ci, ki, kj]);
                                if wv != T::zero() {
                                    tap += wv * dy.get(&[ni, co, oy, ox]);
                                }
                            }
                            acc += tap;
                        }
                    }
                    dx.set(&[ni, ic, iy, ix], acc);
                }
            }
        }
    }
    dx
}

/// `dW[oc, ci, ki, kj] = Σ_n Σ_{oy,ox} dy[n, oc, oy, ox] · x[n, ic, iy, ix]`:
/// per sample one ascending sum over output positions, nothing skipped
/// and padding read as zero, the samples' sums added in order.
fn direct_conv_backward_weight<T: Scalar>(dy: &Tensor<T>, x: &Tensor<T>, s: &Conv2dShape) -> Tensor<T> {
    let (n, h, wd) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw((h, wd));
    let (cgi, cgo) = (s.cg_in(), s.cg_out());
    let ((sh, sw), (ph, pw)) = (s.stride, s.padding);
    let mut dw = Tensor::zeros(&s.weight_shape());
    for oc in 0..s.out_channels {
        let ic0 = oc / cgo * cgi;
        for ci in 0..cgi {
            for ki in 0..s.kernel.0 {
                for kj in 0..s.kernel.1 {
                    let mut acc = T::zero();
                    for ni in 0..n {
                        let mut sample = T::zero();
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let (iy, ix) = (oy * sh + ki, ox * sw + kj);
                                let inside = iy >= ph && iy - ph < h && ix >= pw && ix - pw < wd;
                                let xv = if inside {
                                    x.get(&[ni, ic0 + ci, iy - ph, ix - pw])
                                } else {
                                    T::zero()
                                };
                                sample += dy.get(&[ni, oc, oy, ox]) * xv;
                            }
                        }
                        acc += sample;
                    }
                    dw.set(&[oc, ci, ki, kj], acc);
                }
            }
        }
    }
    dw
}

fn assert_bits<T: Bits>(got: &Tensor<T>, want: &Tensor<T>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, e)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.bits(), e.bits(), "{what}: element {i}: {g:?} != {e:?}");
    }
}

/// Both backward passes on `(x, w, dy)`, from a workspace poisoned at
/// every length they take, then again on the buffers the first call
/// dirtied.
fn assert_backward_on<T: Bits>(x: &Tensor<T>, w: &Tensor<T>, dy: &Tensor<T>, s: &Conv2dShape) {
    let hw = (x.shape()[2], x.shape()[3]);
    let (oh, ow) = s.out_hw(hw);
    let krows = s.cg_in() * s.kernel.0 * s.kernel.1;
    let want_dx = direct_conv_backward_input(dy, w, s, hw);
    let want_dw = direct_conv_backward_weight(dy, x, s);
    let mut ws = poisoned_workspace::<T>(&[
        want_dx.len(),
        want_dw.len(),
        krows * oh * ow,
        s.cg_out() * krows,
        x.len(),
        dy.len(),
    ]);
    for round in 0..2 {
        let what = format!("{s:?} n={} hw={hw:?} round {round}", x.shape()[0]);
        let dx = conv2d_backward_input_ws(dy, w, s, hw, &mut ws);
        assert_bits(&dx, &want_dx, &format!("dx {what}"));
        let dw = conv2d_backward_weight_ws(dy, x, s, &mut ws);
        assert_bits(&dw, &want_dw, &format!("dW {what}"));
        ws.give_tensor(dx);
        ws.give_tensor(dw);
    }
}

fn assert_backward<T: Bits>(mut gen: impl FnMut() -> T, s: Conv2dShape, n: usize, hw: (usize, usize)) {
    let (oh, ow) = s.out_hw(hw);
    let x = Tensor::from_fn(&[n, s.in_channels, hw.0, hw.1], |_| gen());
    let w = Tensor::from_fn(&s.weight_shape(), |_| gen());
    let dy = Tensor::from_fn(&[n, s.out_channels, oh, ow], |_| gen());
    assert_backward_on(&x, &w, &dy, &s);
}

fn backward_all_domains(seed: u64, s: Conv2dShape, n: usize, hw: (usize, usize)) {
    assert_backward(field_gen(seed), s, n, hw);
    assert_backward(float_gen(seed ^ 0xF32), s, n, hw);
}

/// Stride × padding (0 to 2, past the kernel for 1×1) × kernel ×
/// grouping (dense, grouped, depthwise) × batch, for both backward
/// passes: the `F25` stride-1 layers take the transposed convolution
/// and the others the scatter, every `F25` weight gradient the packed
/// panel.
#[test]
fn backward_geometry_sweep_matches_direct_definitions() {
    let mut seed = 0xBAC_0000;
    for kernel in [(1, 1), (3, 3), (2, 3)] {
        for stride in [1, 2] {
            for pad in [0, 1, 2] {
                for (ic, oc, groups) in [(4, 6, 1), (4, 6, 2), (4, 4, 4)] {
                    for n in [1, 2, 3] {
                        let s = Conv2dShape::new(ic, oc, kernel, (stride, stride), (pad, pad), groups);
                        seed += 1;
                        backward_all_domains(seed, s, n, (7, 11));
                    }
                }
            }
        }
    }
}

/// More output positions than a panel block (`ocols > 256`): the
/// weight gradient's reduction carries across blocks; more output
/// channels than a strip, so `dyᵀ` spans two panel strips.
#[test]
fn backward_reduction_crosses_the_panel_block() {
    backward_all_domains(0xB1, Conv2dShape::simple(3, 18, 3, 1, 1), 2, (17, 17));
    backward_all_domains(0xB2, Conv2dShape::new(4, 34, (3, 3), (2, 2), (1, 1), 2), 1, (35, 33));
    backward_all_domains(0xB3, Conv2dShape::depthwise(5, 3, 1, 1), 3, (16, 19));
}

/// `F25` operands at `p − 1`: the largest unreduced products through
/// the transposed convolution, the panel weight gradient and the
/// strided scatter, from a poisoned workspace.
#[test]
fn backward_worst_case_field_operands() {
    let top = || F25::new(P25 - 1);
    for s in [Conv2dShape::simple(20, 17, 3, 1, 1), Conv2dShape::simple(20, 17, 3, 2, 1)] {
        let x = Tensor::from_fn(&[2, 20, 17, 16], |_| top());
        let (oh, ow) = s.out_hw((17, 16));
        let w = Tensor::from_fn(&s.weight_shape(), |_| top());
        let dy = Tensor::from_fn(&[2, 17, oh, ow], |_| top());
        assert_backward_on(&x, &w, &dy, &s);
    }
}

/// The `f32` backward passes are the plain baseline's bits: per sample
/// and group, the strided input gradient is `dk_linalg::reference`'s
/// `Wᵀ·dy` scattered by `col2im`, and the weight gradient its
/// `dy · cols(x)ᵀ` over the `im2col` column matrix, the samples added
/// in order.
#[test]
fn f32_backward_passes_are_the_reference_lowering() {
    for (s, hw) in [
        (Conv2dShape::simple(16, 32, 3, 2, 1), (16, 16)),
        (Conv2dShape::simple(16, 32, 1, 2, 0), (16, 16)),
        (Conv2dShape::new(4, 6, (2, 3), (3, 2), (1, 2), 2), (11, 10)),
        (Conv2dShape::depthwise(4, 3, 2, 1), (9, 8)),
    ] {
        let mut gen = float_gen(hw.0 as u64 * 97 + s.out_channels as u64);
        let (n, (oh, ow)) = (2, s.out_hw(hw));
        let (cgi, cgo, krows) = (s.cg_in(), s.cg_out(), s.cg_in() * s.kernel.0 * s.kernel.1);
        let x = Tensor::from_fn(&[n, s.in_channels, hw.0, hw.1], |_| gen());
        let w = Tensor::from_fn(&s.weight_shape(), |_| gen());
        let dy = Tensor::from_fn(&[n, s.out_channels, oh, ow], |_| gen());
        let mut want_dx = Tensor::<f32>::zeros(&[n, s.in_channels, hw.0, hw.1]);
        let mut want_dw = Tensor::<f32>::zeros(&s.weight_shape());
        let mut cols = vec![0.0f32; krows * oh * ow];
        for ni in 0..n {
            for g in 0..s.groups {
                let wg = &w.as_slice()[g * cgo * krows..(g + 1) * cgo * krows];
                let dyg = &dy.batch_item(ni)[g * cgo * oh * ow..(g + 1) * cgo * oh * ow];
                let xg = &x.batch_item(ni)[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
                let dcol = naive_matmul_at_b(wg, dyg, krows, cgo, oh * ow);
                let dxg = &mut want_dx.batch_item_mut(ni)[g * cgi * hw.0 * hw.1..(g + 1) * cgi * hw.0 * hw.1];
                col2im_acc_into(&dcol, cgi, hw, s.kernel, s.stride, s.padding, dxg);
                im2col_into(xg, cgi, hw, s.kernel, s.stride, s.padding, &mut cols);
                let dwg = naive_matmul_a_bt(dyg, &cols, cgo, oh * ow, krows);
                let dst = &mut want_dw.as_mut_slice()[g * cgo * krows..(g + 1) * cgo * krows];
                dst.iter_mut().zip(&dwg).for_each(|(d, &v)| *d += v);
            }
        }
        let mut ws = Workspace::new();
        let dx = conv2d_backward_input_ws(&dy, &w, &s, hw, &mut ws);
        assert_bits(&dx, &want_dx, &format!("f32 dx {s:?}"));
        let dw = conv2d_backward_weight_ws(&dy, &x, &s, &mut ws);
        assert_bits(&dw, &want_dw, &format!("f32 dW {s:?}"));
    }
}
