//! Fixed-point quantization into the field (Algorithm 1 of the paper).
//!
//! DarKnight performs GPU linear algebra in `F_p`, so floating-point
//! tensors are first converted to fixed point and mapped into the field:
//!
//! * inputs and weights are scaled by `2^l` and rounded
//!   (`X_q = Field(Round(X · 2^l))`),
//! * biases stay in floats: the TEE adds them after dequantization,
//! * after the linear operation the TEE applies the *centered lift*
//!   (values above `p/2` become negative) and rescales:
//!   `Y = Round(Y_q · 2^{-l}) · 2^{-l}`.
//!
//! The scheme is exact as long as the true integer result of the bilinear
//! op stays inside `(−p/2, p/2)` — [`QuantConfig::max_dot_terms`] exposes
//! that bound, and [`QuantConfig::normalize`] implements the paper's
//! dynamic max-abs normalization used for VGG-style networks (§5).
//!
//! # The slice forms
//!
//! Quantize and dequantize run over every activation element of every
//! offloaded layer, inside the TEE, so their slice forms are written to
//! vectorize: a branch-free, call-free body per element, compiled once
//! per vector tier ([`crate::tier`]). The
//! single-value functions ([`QuantConfig::quantize`],
//! [`QuantConfig::dequantize_product`]) are the definition, and the
//! oracle the slice forms are tested against bit for bit.
//!
//! * **Rounding without `floor`.** Baseline x86-64 has no vector
//!   `floor`, and a float-to-int cast saturates (a branch per element).
//!   Both go through one addition instead: for `|y| < 2^51`,
//!   `y + 1.5·2^52` is `y` rounded to the nearest integer, which its bit
//!   pattern holds in two's complement in the low mantissa bits. One
//!   compare turns nearest into `⌊y⌋` (subtract one where the rounded
//!   value exceeds `y`).
//! * **A chunk** is 256 (`CHUNK`) consecutive elements of a quantize call.
//!   An element Algorithm 1 rejects — NaN, `±∞`, or `|Round(v·2^l)|`
//!   above `p/2` — does not leave the loop; it clears one flag for its
//!   chunk (`⌊y⌋ ∈ [−p/2, p/2] ⇔ −p/2 ≤ y < p/2 + 1`, and every
//!   non-finite `y` fails the comparison), and its lane is clamped so
//!   the integer extraction stays defined.
//! * **The error is rebuilt on the cold path.** A flagged chunk is
//!   discarded and the slice is re-run from that chunk's first element
//!   through the single-value function, which stops at the offending
//!   element with the exact [`QuantError`] — so `out` holds exactly the
//!   elements before it, as the contract always was.
//! * Field values and their centered lifts fit the bodies' 32-bit lanes
//!   because every [`Fp`] modulus is below `2^31`, a bound `Fp` checks
//!   at compile time.

use crate::fp::Fp;
use crate::tier::{Body, Tier, Width};

/// Elements per quantize chunk: the granularity of the range flag, and
/// so of the work thrown away when a slice holds a bad element. 1 KiB of
/// input, 2 KiB of output.
const CHUNK: usize = 256;

/// `1.5 · 2^52`: added to a double below `2^51` in magnitude, it leaves
/// that double rounded to the nearest integer (ties to even) in the low
/// mantissa bits of the sum, in two's complement.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `⌊y⌋` for `|y| < 2^51`, with no `floor` call: round to nearest
/// through [`ROUND_MAGIC`], then step down where that rounded up.
#[inline(always)]
fn floor_small(y: f64) -> f64 {
    let nearest = (y + ROUND_MAGIC) - ROUND_MAGIC;
    nearest - if nearest > y { 1.0 } else { 0.0 }
}

/// Errors produced by the quantization pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// A value was too large to represent at the configured scale without
    /// leaving the safe half-field range.
    Overflow {
        /// The offending value after scaling.
        scaled: i128,
        /// The representable bound (`p/2`).
        bound: i128,
    },
    /// Input contained a NaN or infinity.
    NotFinite,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Overflow { scaled, bound } => {
                write!(f, "quantized value {scaled} exceeds field half-range {bound}")
            }
            QuantError::NotFinite => write!(f, "input value is NaN or infinite"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Fixed-point quantization parameters.
///
/// `frac_bits` is the paper's `l` (8 for their experiments). Smaller
/// values trade precision for headroom against field overflow in layers
/// with large fan-in.
///
/// # Example
///
/// ```
/// use dk_field::{QuantConfig, P25};
///
/// let q = QuantConfig::new(8);
/// let x = q.quantize::<P25>(1.5).unwrap();
/// assert_eq!(q.dequantize_input(x), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    frac_bits: u32,
}

impl Default for QuantConfig {
    /// The paper's setting: `l = 8`.
    fn default() -> Self {
        Self::new(8)
    }
}

impl QuantConfig {
    /// Creates a configuration with `l = frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 20` (no prime we use could hold products).
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 20, "frac_bits {frac_bits} leaves no field headroom");
        Self { frac_bits }
    }

    /// The number of fractional bits `l`.
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// The input/weight scale `2^l`.
    pub fn scale(self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// `Field(Round(v · scale))` with the paper's round-half-up (Algorithm
    /// 1, lines 12-17). The rounded value goes through `i64` (the cast
    /// saturates, so anything past `±2^63` still fails the range check)
    /// and one conditional add; the 128-bit integer exists only inside
    /// the `Overflow` error.
    #[inline]
    fn quantize_scaled<const P: u64>(v: f64, scale: f64) -> Result<Fp<P>, QuantError> {
        if !v.is_finite() {
            return Err(QuantError::NotFinite);
        }
        let r = (v * scale + 0.5).floor();
        let i = r as i64;
        if i.unsigned_abs() > P / 2 {
            return Err(QuantError::Overflow { scaled: r as i128, bound: (P / 2) as i128 });
        }
        Ok(Fp::from_canonical(if i < 0 { (i + P as i64) as u64 } else { i as u64 }))
    }

    /// Quantizes a single input/weight value: `Field(Round(v · 2^l))`.
    ///
    /// # Errors
    ///
    /// [`QuantError::NotFinite`] for NaN/inf; [`QuantError::Overflow`] if
    /// the scaled value exceeds `p/2` in magnitude (it could not be
    /// recovered by the centered lift).
    #[inline]
    pub fn quantize<const P: u64>(self, v: f64) -> Result<Fp<P>, QuantError> {
        Self::quantize_scaled(v, self.scale())
    }

    /// Quantizes a slice of inputs/weights.
    ///
    /// # Errors
    ///
    /// Returns the first element error encountered.
    pub fn quantize_slice<const P: u64>(self, vs: &[f32]) -> Result<Vec<Fp<P>>, QuantError> {
        let mut out = Vec::new();
        self.quantize_slice_into(vs, 1.0, &mut out)?;
        Ok(out)
    }

    /// Appends `Field(Round((v · pre) · 2^l))` for every `v` to `out`,
    /// the `v · pre` product taken in `f32` — the form max-abs
    /// normalization feeds (`pre = 1/max`); `pre = 1.0` is plain
    /// [`QuantConfig::quantize_slice`]. The private session and the
    /// clear-text reference both quantize through this loop.
    ///
    /// # Errors
    ///
    /// Returns the first element error encountered; `out` then holds the
    /// elements before it.
    pub fn quantize_slice_into<const P: u64>(
        self,
        vs: &[f32],
        pre: f32,
        out: &mut Vec<Fp<P>>,
    ) -> Result<(), QuantError> {
        self.quantize_slice_on(Tier::best(), vs, pre, out)
    }

    /// [`QuantConfig::quantize_slice_into`] on a given tier.
    fn quantize_slice_on<const P: u64>(
        self,
        tier: Tier,
        vs: &[f32],
        pre: f32,
        out: &mut Vec<Fp<P>>,
    ) -> Result<(), QuantError> {
        let scale = self.scale();
        out.reserve(vs.len());
        let clean = tier.run(QuantizeChunks { vs, pre, scale, out: &mut *out });
        // The chunk at `clean` holds an element Algorithm 1 rejects: the
        // single-value function finds it and names the error.
        for &v in &vs[clean..] {
            out.push(Self::quantize_scaled((v * pre) as f64, scale)?);
        }
        Ok(())
    }

    /// The max-abs norm of a tensor: its largest absolute entry, or 1.0
    /// for an all-zero one, so `1/norm` is always a usable pre-scale for
    /// [`QuantConfig::quantize_slice_into`]. The scan half of
    /// [`QuantConfig::normalize_quantize_into`], callable on its own
    /// where several slices share one scale.
    pub fn max_abs_norm(vs: &[f32]) -> f32 {
        let max_abs = vs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if max_abs > 0.0 { max_abs } else { 1.0 }
    }

    /// Max-abs normalization followed by Algorithm 1 quantization:
    /// clears `out`, fills it with the quantized `vs / norm` and returns
    /// `norm`. The private session, the clear-text reference, the step
    /// plan and the Slalom baseline all quantize through this one
    /// function, so they can never diverge numerically.
    ///
    /// # Errors
    ///
    /// As [`QuantConfig::quantize_slice_into`].
    pub fn normalize_quantize_into<const P: u64>(
        self,
        vs: &[f32],
        out: &mut Vec<Fp<P>>,
    ) -> Result<f32, QuantError> {
        let norm = Self::max_abs_norm(vs);
        out.clear();
        self.quantize_slice_into(vs, 1.0 / norm, out)?;
        Ok(norm)
    }

    /// Allocating form of [`QuantConfig::normalize_quantize_into`].
    ///
    /// # Errors
    ///
    /// As [`QuantConfig::quantize_slice_into`].
    pub fn normalize_quantize<const P: u64>(
        self,
        vs: &[f32],
    ) -> Result<(Vec<Fp<P>>, f32), QuantError> {
        let mut out = Vec::new();
        let norm = self.normalize_quantize_into(vs, &mut out)?;
        Ok((out, norm))
    }

    /// Recovers a float from a quantized *input-scale* value (`2^l`).
    pub fn dequantize_input<const P: u64>(self, x: Fp<P>) -> f64 {
        x.to_centered_i64() as f64 / self.scale()
    }

    /// Recovers the result of a bilinear op on two quantized operands
    /// (product scale `2^{2l}`), applying the paper's two-step rounding
    /// `Round(Y_q · 2^{-l}) · 2^{-l}`.
    pub fn dequantize_product<const P: u64>(self, y: Fp<P>) -> f64 {
        let centered = y.to_centered_i64() as f64;
        let first = (centered / self.scale() + 0.5).floor();
        first / self.scale()
    }

    /// Recovers a slice of bilinear-op results.
    pub fn dequantize_product_slice<const P: u64>(self, ys: &[Fp<P>]) -> Vec<f32> {
        let mut out = vec![0.0; ys.len()];
        self.dequantize_product_slice_into(ys, 1.0, &mut out);
        out
    }

    /// Writes `dequantize_product(y) as f32 · post` for every `y` into
    /// `out` — the unscale every decoded layer output and gradient goes
    /// through (`post` undoes the max-abs normalization), shared by the
    /// private session and the clear-text reference.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dequantize_product_slice_into<const P: u64>(
        self,
        ys: &[Fp<P>],
        post: f32,
        out: &mut [f32],
    ) {
        self.dequantize_product_slice_on(Tier::best(), ys, post, out);
    }

    /// [`QuantConfig::dequantize_product_slice_into`] on a given tier.
    fn dequantize_product_slice_on<const P: u64>(
        self,
        tier: Tier,
        ys: &[Fp<P>],
        post: f32,
        out: &mut [f32],
    ) {
        assert_eq!(ys.len(), out.len(), "dequantize: length mismatch");
        // Dividing by `2^l` and multiplying by `2^-l` are the same exact
        // operation; only the second is one the vector unit has.
        tier.run(Dequantize { ys, unscale: 1.0 / self.scale(), post, out });
    }

    /// The worst-case quantization error of a single value: `2^{-l-1}`.
    pub fn unit_error(self) -> f64 {
        0.5 / self.scale()
    }

    /// Overflow analysis: the maximum number of product terms `N` such
    /// that a dot product of `N` terms with |w| ≤ `w_max`, |x| ≤ `x_max`
    /// is guaranteed to stay inside `(−p/2, p/2)` at product scale.
    ///
    /// This is the real fidelity limit of the paper's scheme: with
    /// `l = 8` and unit-magnitude operands in `F_{2^25−39}`, only ~256
    /// terms fit, which is why the paper normalizes VGG activations.
    pub fn max_dot_terms<const P: u64>(self, w_max: f64, x_max: f64) -> usize {
        let per_term = (w_max * self.scale()).ceil() * (x_max * self.scale()).ceil();
        if per_term <= 0.0 {
            return usize::MAX;
        }
        ((P / 2) as f64 / per_term).floor() as usize
    }

    /// Dynamic max-abs normalization (the paper's VGG workaround):
    /// divides the slice by its maximum absolute entry if that entry
    /// exceeds `limit`, returning the divisor used (1.0 if untouched).
    pub fn normalize(self, vs: &mut [f32], limit: f32) -> f32 {
        let max = vs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max > limit && max > 0.0 {
            let inv = limit / max;
            for v in vs.iter_mut() {
                *v *= inv;
            }
            max / limit
        } else {
            1.0
        }
    }
}

/// The quantize pass: appends whole clean chunks to `out` and returns
/// how many elements that was — `vs.len()`, or the offset of the first
/// chunk holding an element out of range (nothing of it is appended).
struct QuantizeChunks<'a, const P: u64> {
    vs: &'a [f32],
    pre: f32,
    scale: f64,
    out: &'a mut Vec<Fp<P>>,
}

impl<const P: u64> Body for QuantizeChunks<'_, P> {
    type Out = usize;

    #[inline(always)]
    fn run<W: Width>(self, _: W) -> usize {
        let Self { vs, pre, scale, out } = self;
        let half = (P / 2) as f64;
        // Clamp bound: one past the range on either side, so a clamped
        // lane still maps to a canonical value.
        let bound = half + 1.0;
        let mut buf = [Fp::ZERO; CHUNK];
        for (c, chunk) in vs.chunks(CHUNK).enumerate() {
            let mut in_range = true;
            for (dst, &v) in buf.iter_mut().zip(chunk) {
                let y = (v * pre) as f64 * scale + 0.5;
                in_range &= (y >= -half) & (y < bound);
                // NaN compares false both times and lands on `bound`.
                let y = if y < bound { y } else { bound };
                let y = if y > -bound { y } else { -bound };
                let nearest = y + ROUND_MAGIC;
                let floor =
                    (nearest.to_bits() as u32).wrapping_sub(u32::from(nearest - ROUND_MAGIC > y));
                // Negative (bit 31 set): add `p`.
                let lift = (P as u32) & 0u32.wrapping_sub(floor >> 31);
                *dst = Fp::from_canonical(u64::from(floor.wrapping_add(lift)));
            }
            if !in_range {
                return c * CHUNK;
            }
            out.extend_from_slice(&buf[..chunk.len()]);
        }
        vs.len()
    }
}

/// The dequantize pass: `out[i] = Round(ys[i] · 2^-l) · 2^-l · post`
/// over the centered lift of `ys[i]`, `unscale = 2^-l`.
struct Dequantize<'a, const P: u64> {
    ys: &'a [Fp<P>],
    unscale: f64,
    post: f32,
    out: &'a mut [f32],
}

impl<const P: u64> Body for Dequantize<'_, P> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Self { ys, unscale, post, out } = self;
        for (dst, y) in out.iter_mut().zip(ys) {
            let v = y.value() as i32;
            // Centered lift: subtract `p` above `p/2`, by mask.
            let centered = v - (P as i32 & -i32::from(v > (P / 2) as i32));
            let first = floor_small(f64::from(centered) * unscale + 0.5);
            *dst = (first * unscale) as f32 * post;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{F25, P25};

    #[test]
    fn round_trip_exact_values() {
        let q = QuantConfig::new(8);
        for v in [-2.0, -0.5, 0.0, 0.25, 1.0, 3.75] {
            let x = q.quantize::<P25>(v).unwrap();
            assert_eq!(q.dequantize_input(x), v, "v={v}");
        }
    }

    #[test]
    fn round_trip_error_bounded() {
        let q = QuantConfig::new(8);
        for i in 0..1000 {
            let v = (i as f64 - 500.0) * 0.00317;
            let x = q.quantize::<P25>(v).unwrap();
            let back = q.dequantize_input(x);
            assert!((back - v).abs() <= q.unit_error() + 1e-12, "v={v} back={back}");
        }
    }

    #[test]
    fn product_dequantization() {
        let q = QuantConfig::new(8);
        // (1.5 * 2.0) at product scale 2^16.
        let w = q.quantize::<P25>(1.5).unwrap();
        let x = q.quantize::<P25>(2.0).unwrap();
        let y = w * x;
        assert!((q.dequantize_product(y) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn negative_product_dequantization() {
        let q = QuantConfig::new(8);
        let w = q.quantize::<P25>(-1.25).unwrap();
        let x = q.quantize::<P25>(2.0).unwrap();
        let y = w * x;
        assert!((q.dequantize_product(y) + 2.5).abs() < 1e-9);
    }

    #[test]
    fn dot_product_in_field_matches_float() {
        let q = QuantConfig::new(8);
        let ws = [0.5f32, -0.25, 1.0, 0.125];
        let xs = [1.0f32, 2.0, -0.5, 4.0];
        let wq = q.quantize_slice::<P25>(&ws).unwrap();
        let xq = q.quantize_slice::<P25>(&xs).unwrap();
        let acc: F25 = wq.iter().zip(&xq).map(|(&a, &b)| a * b).sum();
        let float: f32 = ws.iter().zip(&xs).map(|(a, b)| a * b).sum();
        assert!((q.dequantize_product(acc) as f32 - float).abs() < 1e-4);
    }

    #[test]
    fn overflow_detected() {
        let q = QuantConfig::new(8);
        let err = q.quantize::<P25>(1.0e9).unwrap_err();
        assert!(matches!(err, QuantError::Overflow { .. }));
    }

    #[test]
    fn nan_rejected() {
        let q = QuantConfig::new(8);
        assert_eq!(q.quantize::<P25>(f64::NAN).unwrap_err(), QuantError::NotFinite);
    }

    #[test]
    fn max_dot_terms_matches_paper_headroom() {
        let q = QuantConfig::new(8);
        // |w|,|x| <= 1 at l=8: each product <= 2^16, half-field ~2^24
        // => about 2^8 = 256 terms.
        let n = q.max_dot_terms::<P25>(1.0, 1.0);
        assert!((250..=260).contains(&n), "n={n}");
    }

    #[test]
    fn overflow_bound_is_tight() {
        let q = QuantConfig::new(8);
        let n = q.max_dot_terms::<P25>(1.0, 1.0);
        let one = q.quantize::<P25>(1.0).unwrap();
        // Summing n products of 1.0*1.0 stays recoverable...
        let acc: F25 = (0..n).map(|_| one * one).sum();
        assert_eq!(q.dequantize_product(acc), n as f64);
        // ...but ~2x that wraps around and becomes wrong.
        let acc2: F25 = (0..2 * n + 10).map(|_| one * one).sum();
        assert_ne!(q.dequantize_product(acc2), (2 * n + 10) as f64);
    }

    #[test]
    fn normalize_rescales_when_needed() {
        let q = QuantConfig::new(8);
        let mut vs = vec![2.0f32, -8.0, 1.0];
        let div = q.normalize(&mut vs, 4.0);
        assert!((div - 2.0).abs() < 1e-6);
        assert_eq!(vs, vec![1.0, -4.0, 0.5]);
        // Already in range: untouched.
        let mut vs2 = vec![0.5f32, -1.0];
        assert_eq!(q.normalize(&mut vs2, 4.0), 1.0);
        assert_eq!(vs2, vec![0.5, -1.0]);
    }

    #[test]
    fn normalize_quantize_is_scan_then_prescaled_quantize() {
        let q = QuantConfig::new(6);
        let vs = [0.3f32, -2.5, 1.25, 0.0];
        assert_eq!(QuantConfig::max_abs_norm(&vs), 2.5);
        assert_eq!(QuantConfig::max_abs_norm(&[0.0, -0.0]), 1.0);
        let (got, norm) = q.normalize_quantize::<P25>(&vs).unwrap();
        assert_eq!(norm, 2.5);
        let want: Vec<F25> =
            vs.iter().map(|&v| q.quantize::<P25>((v * (1.0 / norm)) as f64).unwrap()).collect();
        assert_eq!(got, want);
        // The `_into` form clears what the buffer held.
        let mut out = vec![F25::ONE; 9];
        assert_eq!(q.normalize_quantize_into::<P25>(&vs, &mut out), Ok(norm));
        assert_eq!(out, want);
        assert_eq!(q.normalize_quantize::<P25>(&[f32::NAN]), Err(QuantError::NotFinite));
    }

    #[test]
    fn smaller_frac_bits_more_headroom() {
        let q5 = QuantConfig::new(5);
        let q8 = QuantConfig::new(8);
        assert!(q5.max_dot_terms::<P25>(1.0, 1.0) > q8.max_dot_terms::<P25>(1.0, 1.0));
    }

    /// Deterministic stand-in for a random stream in the tier tests.
    fn word(seed: u64, i: usize) -> u64 {
        crate::derive_seed(seed, i as u64)
    }

    /// The per-element definition of `quantize_slice_into`: the result,
    /// and what `out` must hold alongside it.
    fn quantize_one_by_one(
        q: QuantConfig,
        vs: &[f32],
        pre: f32,
    ) -> (Result<(), QuantError>, Vec<F25>) {
        let mut out = Vec::new();
        for &v in vs {
            match q.quantize::<P25>((v * pre) as f64) {
                Ok(x) => out.push(x),
                Err(e) => return (Err(e), out),
            }
        }
        (Ok(()), out)
    }

    #[test]
    fn quantize_slice_is_the_single_value_function_on_every_tier() {
        const MAX_LEN: usize = 2 * CHUNK + 1;
        for tier in Tier::offered() {
            for l in 0..=20u32 {
                let q = QuantConfig::new(l);
                let half = (P25 / 2) as f32;
                let pre = [1.0, 0.37, -2.5][l as usize % 3];
                // In-range values with fractions on and around the
                // rounding edges, both signs, out to `±p/2` itself.
                let clean: Vec<f32> = (0..MAX_LEN)
                    .map(|i| {
                        let w = word(0xc1ea ^ u64::from(l), i);
                        let int = (w % (P25 / 2 + 1)) as f32 * [1.0, 0.001, 1e-6][i % 3];
                        let frac = [0.0, 0.5, 0.25, 0.499_999_97, 0.75][(w >> 40) as usize % 5];
                        let sign = if w >> 63 == 0 { 1.0 } else { -1.0 };
                        (sign * (int + frac)).clamp(-half, half) / q.scale() as f32 / pre
                    })
                    .collect();
                let faults = [
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::MAX,
                    (half + 1.0) / q.scale() as f32 / pre,
                    -(half + 1.0) / q.scale() as f32 / pre,
                    1.0e30,
                ];
                let mut out = vec![F25::ONE; 3];
                for len in 0..=MAX_LEN {
                    let mut vs = clean[..len].to_vec();
                    out.truncate(3);
                    let got = q.quantize_slice_on(tier, &vs, pre, &mut out);
                    let (want, want_out) = quantize_one_by_one(q, &vs, pre);
                    assert_eq!(want, Ok(()), "the clean slice is clean (l={l})");
                    assert_eq!((got, &out[3..]), (want, &want_out[..]), "{tier:?} l={l} len={len}");
                    if len == 0 {
                        continue;
                    }
                    // One fault, then a second one behind it: the first
                    // is the one reported, `out` stops short of it.
                    let w = word(0xfa17 ^ u64::from(l), len);
                    let at = w as usize % len;
                    vs[at] = faults[(w >> 32) as usize % faults.len()];
                    vs[len - 1] = if at == len - 1 { vs[at] } else { f32::NAN };
                    out.truncate(3);
                    let got = q.quantize_slice_on(tier, &vs, pre, &mut out);
                    let (want, want_out) = quantize_one_by_one(q, &vs, pre);
                    assert!(want.is_err() && want_out.len() == at, "fault at {at}: {want:?}");
                    assert_eq!(
                        (got, &out[3..]),
                        (want, &want_out[..]),
                        "{tier:?} l={l} len={len} fault at {at}"
                    );
                }
                // Arbitrary bit patterns for the values and the pre-scale.
                for round in 0..64 {
                    let pre = f32::from_bits(word(0x9e ^ u64::from(l), round) as u32);
                    let vs: Vec<f32> = (0..CHUNK + 9)
                        .map(|i| f32::from_bits(word(0xb175 + round as u64, i) as u32))
                        .collect();
                    for pre in [pre, 1.0e-30, 0.0] {
                        out.clear();
                        let got = q.quantize_slice_on(tier, &vs, pre, &mut out);
                        let (want, want_out) = quantize_one_by_one(q, &vs, pre);
                        assert_eq!((got, &out), (want, &want_out), "{tier:?} l={l} pre={pre:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn dequantize_slice_is_the_single_value_function_on_every_tier() {
        let mut ys: Vec<F25> =
            [0, 1, 2, P25 / 2 - 1, P25 / 2, P25 / 2 + 1, P25 / 2 + 2, P25 - 2, P25 - 1]
                .map(F25::new)
                .to_vec();
        // Around every rounding edge of every scale: `k · 2^l ± {0, 1}`
        // and the half-way points, both signs.
        for l in 0..=20u32 {
            for k in [0i64, 1, 2, 3, 1000] {
                for d in [-1, 0, 1] {
                    let v = (k << l) + (1 << l >> 1) + d;
                    ys.extend([
                        F25::from_i64(v % (P25 as i64 / 2)),
                        F25::from_i64(-v % (P25 as i64 / 2)),
                    ]);
                }
            }
        }
        ys.extend((0..4096).map(|i| F25::new(word(0xde9, i))));
        for tier in Tier::offered() {
            for l in 0..=20u32 {
                let q = QuantConfig::new(l);
                for round in 0..8 {
                    let post = match round {
                        0 => 1.0,
                        1 => -0.0,
                        _ => f32::from_bits(word(0x9057 ^ u64::from(l), round) as u32),
                    };
                    for len in [0, 1, 7, 8, 9, 31, ys.len()] {
                        let mut got = vec![f32::NAN; len];
                        q.dequantize_product_slice_on(tier, &ys[..len], post, &mut got);
                        for (g, &y) in got.iter().zip(&ys) {
                            let want = q.dequantize_product(y) as f32 * post;
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "{tier:?} l={l} y={y} post={post:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
