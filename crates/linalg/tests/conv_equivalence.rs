//! The forward convolution against a direct-convolution oracle.
//!
//! `conv2d_forward_ws` never builds a column matrix: its strip kernel
//! gathers each panel block straight from the NCHW image. The oracle
//! here knows nothing about strips, panels or lowering — it is the
//! definition of a convolution, one output element at a time, with the
//! reference recurrence spelled out (ascending `(ci, ki, kj)`, terms
//! whose *weight* is zero skipped, padding read as zero). The kernel
//! must match it **bit for bit** in f32 — signed zeros, infinities and
//! where the NaNs fall included — and exactly in the field, from a
//! workspace full of garbage.

use dk_field::{FieldRng, F25, P25};
use dk_linalg::conv::conv2d_forward_ws;
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

fn assert_conv_on<T: Bits>(x: &Tensor<T>, w: &Tensor<T>, s: &Conv2dShape) {
    let want = direct_conv(x, w, s);
    let mut ws = poisoned_workspace::<T>(&[want.len(), want.len() + 7]);
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

/// A ragged grouped shape: 29 × 31 outputs per plane are 57 strips,
/// the last one ragged, over two groups of channels.
#[test]
fn ragged_grouped_shape_matches_direct_convolution() {
    let grouped = Conv2dShape::new(16, 24, (3, 3), (1, 1), (1, 1), 2);
    all_domains(0x5E44, grouped, 2, (29, 31));
}
