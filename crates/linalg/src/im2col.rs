//! Sliding-window geometry, and the im2col / col2im lowering built on it.
//!
//! A convolution is a matrix product against the *column matrix* of
//! its input: row `(ci, ki, kj)` holds, for every output position, the
//! pixel that kernel tap `(ki, kj)` of channel `ci` reads there (zero
//! where the tap lands in the padding). `Window` is that geometry,
//! generic over [`Scalar`] so the identical lowering runs in the float
//! and field domains, and it lowers only for the `f32` **weight
//! gradient**: that pass keeps the dot-orientation kernel, which wants
//! whole column-matrix rows contiguous, and it is the one caller of
//! [`im2col_into`]. The forward convolution and the `F25` weight
//! gradient read the column matrix in place from a padded, phase-split
//! copy of the image instead (see [`crate::conv`]). The `f32`
//! input-gradient pass goes the other way through [`col2im_acc_into`];
//! the `F25` one is a stride-1 convolution of `dy` per output phase and
//! needs neither.
//!
//! [`im2col_into`] writes every tap exactly once — a copy where the tap
//! is inside the image, a zero where it is padding — so it needs no
//! cleared destination.

use crate::scalar::Scalar;
use std::ops::Range;

/// Computes the output spatial size of a convolution/pooling window.
///
/// Returns `(out_h, out_w)` for input `(h, w)`, kernel `(kh, kw)`,
/// stride `(sh, sw)` and symmetric zero padding `(ph, pw)`.
///
/// # Panics
///
/// Panics if the window does not fit (output would be empty).
pub fn out_hw(
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
) -> (usize, usize) {
    assert!(h + 2 * ph >= kh && w + 2 * pw >= kw, "kernel larger than padded input");
    ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1)
}

/// One sliding-window geometry: which pixel of an `h × w` plane kernel
/// tap `(ki, kj)` reads at output position `(oy, ox)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    hw: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    out: (usize, usize),
}

impl Window {
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub(crate) fn new(
        hw: (usize, usize),
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        Self { hw, stride, padding, out: out_hw(hw, kernel, stride, padding) }
    }

    /// The output columns `ox` at which tap column `kj` lands inside an
    /// image row (`0 <= ox·sw + kj − pw < w`); everywhere else in the
    /// row it reads padding. Only the first and last `pw` columns can,
    /// so each loop runs at most `pw + 1` steps.
    fn ox_inside(&self, kj: usize) -> Range<usize> {
        let ((_, w), (_, ow), (_, sw), (_, pw)) = (self.hw, self.out, self.stride, self.padding);
        let mut lo = 0;
        while lo < ow && lo * sw + kj < pw {
            lo += 1;
        }
        let mut hi = ow;
        while hi > lo && (hi - 1) * sw + kj >= w + pw {
            hi -= 1;
        }
        lo..hi
    }

    /// Writes tap `(ki, kj)` of `plane` for the `dst.len()` consecutive
    /// output positions (row-major over the output plane) starting at
    /// `(oy, ox)`: the pixel where the tap is inside the image, zero
    /// where it is padding. Every element of `dst` is written exactly
    /// once. `inside` is [`Window::ox_inside`] of `kj`.
    fn gather_tap<T: Scalar>(
        &self,
        plane: &[T],
        (ki, kj): (usize, usize),
        inside: &Range<usize>,
        (mut oy, mut ox): (usize, usize),
        mut dst: &mut [T],
    ) {
        let ((h, w), (_, ow), (sh, sw), (ph, pw)) = (self.hw, self.out, self.stride, self.padding);
        while !dst.is_empty() {
            let run = (ow - ox).min(dst.len());
            let (seg, rest) = std::mem::take(&mut dst).split_at_mut(run);
            let iy = oy * sh + ki;
            if iy < ph || iy - ph >= h {
                seg.fill(T::zero());
            } else {
                let end = ox + seg.len();
                let (lo, hi) = (inside.start.clamp(ox, end), inside.end.clamp(ox, end));
                if lo > ox {
                    seg[..lo - ox].fill(T::zero());
                }
                if hi < end {
                    seg[hi - ox..].fill(T::zero());
                }
                let src = &plane[(iy - ph) * w..(iy - ph + 1) * w];
                let mid = &mut seg[lo - ox..hi - ox];
                if !mid.is_empty() {
                    let ix = lo * sw + kj - pw;
                    if sw == 1 {
                        mid.copy_from_slice(&src[ix..ix + mid.len()]);
                    } else {
                        for (t, d) in mid.iter_mut().enumerate() {
                            *d = src[ix + t * sw];
                        }
                    }
                }
            }
            (oy, ox, dst) = (oy + 1, 0, rest);
        }
    }
}

/// Lowers one sample's channel block `[c, h, w]` into a caller-provided
/// column-matrix buffer of shape `[c*kh*kw, out_h*out_w]` (row-major,
/// flat). Every element is written exactly once (padding taps become
/// `T::zero()`), so a reused scratch buffer with stale contents is
/// fine — the weight-gradient pass calls it with
/// [`crate::workspace::Workspace`] scratch.
///
/// # Panics
///
/// Panics if `input.len() != c*h*w` or `out.len()` does not match the
/// geometry.
pub fn im2col_into<T: Scalar>(
    input: &[T],
    c: usize,
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    out: &mut [T],
) {
    assert_eq!(input.len(), c * h * w, "input volume mismatch");
    let win = Window::new((h, w), (kh, kw), stride, padding);
    let cols = win.out.0 * win.out.1;
    assert_eq!(out.len(), c * kh * kw * cols, "column matrix volume mismatch");
    for kj in 0..kw {
        let inside = win.ox_inside(kj);
        for ci in 0..c {
            let plane = &input[ci * h * w..(ci + 1) * h * w];
            for ki in 0..kh {
                let row = (ci * kh + ki) * kw + kj;
                let dst = &mut out[row * cols..(row + 1) * cols];
                win.gather_tap(plane, (ki, kj), &inside, (0, 0), dst);
            }
        }
    }
}

/// Inverse of [`im2col_into`]: **scatter-adds** a column matrix into an
/// image block of shape `[c, h, w]`, accumulating on top of whatever
/// `out` already holds. This is the fused form the convolution
/// input-gradient pass uses — the old
/// `col2im → fresh image → elementwise add` triple pass collapses into
/// this single scatter, with contributions applied in the identical
/// order (so float results are bit-for-bit unchanged; field results
/// trivially so).
///
/// # Panics
///
/// Panics if `cols_mat.len()` or `out.len()` is inconsistent with the
/// geometry.
pub fn col2im_acc_into<T: Scalar>(
    cols_mat: &[T],
    c: usize,
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
    out: &mut [T],
) {
    let (oh, ow) = out_hw((h, w), (kh, kw), (sh, sw), (ph, pw));
    let cols = oh * ow;
    assert_eq!(cols_mat.len(), c * kh * kw * cols, "column matrix volume mismatch");
    assert_eq!(out.len(), c * h * w, "image volume mismatch");
    for ci in 0..c {
        let plane_off = ci * h * w;
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let src = &cols_mat[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * sh + ki) as isize - ph as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * sw + kj) as isize - pw as isize;
                        if ix >= 0 && ix < w as isize {
                            out[plane_off + iy as usize * w + ix as usize] += src[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::F25;

    #[test]
    fn out_hw_basic() {
        assert_eq!(out_hw((4, 4), (3, 3), (1, 1), (0, 0)), (2, 2));
        assert_eq!(out_hw((4, 4), (3, 3), (1, 1), (1, 1)), (4, 4));
        assert_eq!(out_hw((8, 8), (2, 2), (2, 2), (0, 0)), (4, 4));
        assert_eq!(out_hw((7, 7), (3, 3), (2, 2), (1, 1)), (4, 4));
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn kernel_too_big_panics() {
        let _ = out_hw((2, 2), (3, 3), (1, 1), (0, 0));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix == input.
        let input: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut cols = vec![-1.0; 12];
        im2col_into(&input, 3, (2, 2), (1, 1), (1, 1), (0, 0), &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_3x3_no_pad() {
        // Single channel 3x3, kernel 2x2 stride 1 -> 2x2 output, 4 rows.
        let input: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        // rows: k(0,0), k(0,1), k(1,0), k(1,1); columns: 4 windows
        let mut cols = vec![-1.0; 4 * 4];
        im2col_into(&input, 1, (3, 3), (2, 2), (1, 1), (0, 0), &mut cols);
        assert_eq!(&cols[0..4], &[1.0, 2.0, 4.0, 5.0]); // top-left tap of each window
        assert_eq!(&cols[12..16], &[5.0, 6.0, 8.0, 9.0]); // bottom-right tap
    }

    #[test]
    fn im2col_padding_zeros() {
        let input = vec![1.0f32; 4]; // 1ch 2x2 of ones
                                     // 2x2 output, each window has some zero (padding) taps.
        let (oh, ow) = out_hw((2, 2), (3, 3), (1, 1), (1, 1));
        assert_eq!((oh, ow), (2, 2));
        let mut cols = vec![-1.0; 9 * 4];
        im2col_into(&input, 1, (2, 2), (3, 3), (1, 1), (1, 1), &mut cols);
        // Tap (0,0) of window (0,0) is padding -> zero.
        assert_eq!(cols[0], 0.0);
        // Center tap (1,1) of window (0,0) is input(0,0) = 1.
        let center_row = (3 + 1) * 4;
        assert_eq!(cols[center_row], 1.0);
    }

    #[test]
    fn col2im_roundtrip_counts_overlaps() {
        // im2col then col2im multiplies each pixel by its window coverage.
        let input: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        let geom = ((4, 4), (3, 3), (1, 1), (0, 0));
        let mut cols = vec![0.0; 9 * 4];
        im2col_into(&input, 1, geom.0, geom.1, geom.2, geom.3, &mut cols);
        let mut back = vec![0.0; 16];
        col2im_acc_into(&cols, 1, geom.0, geom.1, geom.2, geom.3, &mut back);
        // Corner pixel participates in exactly 1 window, center in 4.
        assert_eq!(back[0], input[0]);
        assert_eq!(back[5], 4.0 * input[5]);
    }

    #[test]
    fn field_domain_im2col_matches_f32_pattern() {
        let input_f: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let input_q: Vec<F25> = (0..18).map(|i| F25::new(i as u64)).collect();
        let (mut cf, mut cq) = (vec![0.0; 8 * 4], vec![F25::ZERO; 8 * 4]);
        im2col_into(&input_f, 2, (3, 3), (2, 2), (1, 1), (0, 0), &mut cf);
        im2col_into(&input_q, 2, (3, 3), (2, 2), (1, 1), (0, 0), &mut cq);
        for (a, b) in cf.iter().zip(&cq) {
            assert_eq!(*a as u64, b.value());
        }
    }

    #[test]
    fn strided_dims() {
        let input = vec![0.5f32; 2 * 8 * 8];
        let (oh, ow) = out_hw((8, 8), (3, 3), (2, 2), (1, 1));
        assert_eq!((oh, ow), (4, 4));
        let mut cols = vec![-1.0; 2 * 9 * oh * ow];
        im2col_into(&input, 2, (8, 8), (3, 3), (2, 2), (1, 1), &mut cols);
        assert!(cols.iter().all(|&v| v == 0.0 || v == 0.5));
    }
}
