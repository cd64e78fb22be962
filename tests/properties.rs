//! Property-based tests over the core cryptographic and numerical
//! invariants, spanning crates.
//!
//! The slice forms of `dk_field` (quantize, dequantize, the bulk noise
//! draw) run a vectorized body picked per call for the widest tier the
//! CPU offers; the properties here hold them, through the public API, to
//! their per-element definitions — the `i128` formula below, the public
//! single-value functions. The same comparisons on **every** tier the
//! host offers, the baseline body included, live beside the bodies
//! (`dk_field`'s `quant` and `rng` unit tests), where the tier can be
//! named.

use darknight::core::EncodingScheme;
use darknight::field::vandermonde::{is_mds, mds_matrix};
use darknight::field::{F25, FieldMatrix, FieldRng, QuantConfig, QuantError, P25};
use darknight::linalg::Workspace;
use darknight::tee::crypto::SealKey;
use proptest::prelude::*;

fn arb_seed() -> impl Strategy<Value = u64> {
    any::<u64>()
}

/// Algorithm 1's `Field(Round(v · 2^l))` as first written — through
/// `i128` and `rem_euclid` — kept here as the oracle for the division-free
/// form `QuantConfig::quantize` uses. (`checked_abs`: the original
/// overflowed on `i128::MIN`, where the new form reports `Overflow`.)
fn quantize_via_i128(q: QuantConfig, v: f64) -> Result<F25, QuantError> {
    if !v.is_finite() {
        return Err(QuantError::NotFinite);
    }
    let scaled = (v * q.scale() + 0.5).floor() as i128;
    let bound = (P25 / 2) as i128;
    if scaled.checked_abs().is_none_or(|a| a > bound) {
        return Err(QuantError::Overflow { scaled, bound });
    }
    Ok(F25::new(scaled.rem_euclid(P25 as i128) as u64))
}

/// The named edges: both sides of `±p/2`, half-way roundings, signed
/// zero, subnormals, and everything not finite or not representable.
#[test]
fn quantize_matches_the_i128_formula_on_the_edges() {
    for l in [0u32, 1, 6, 8, 20] {
        let q = QuantConfig::new(l);
        let half = (P25 / 2) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            1.0e30,
            -1.0e30,
        ];
        for k in [half, half + 1.0, half - 1.0, 0.0, 1.0, 2.0, 1000.0] {
            for frac in [0.0, 0.5, 0.5 - f64::EPSILON, 0.5 + f64::EPSILON, 0.25, 0.75] {
                for sign in [1.0, -1.0] {
                    edges.push(sign * (k + frac) / q.scale());
                    edges.push(sign * (k - frac) / q.scale());
                }
            }
        }
        for v in edges {
            assert_eq!(q.quantize::<P25>(v), quantize_via_i128(q, v), "l={l} v={v:e}");
            let (mut one, narrow) = (Vec::new(), v as f32);
            let sliced = q.quantize_slice_into::<P25>(&[narrow], 1.0, &mut one).map(|()| one[0]);
            assert_eq!(sliced, quantize_via_i128(q, narrow as f64), "l={l} v={v:e} (slice)");
        }
    }
}

/// Longest slice of the sweeps below: two quantize chunks (256 elements
/// each, see `dk_field::quant`) and one element over.
const SWEEP: usize = 2 * 256 + 1;

/// `quantize_slice_into` by definition: element by element through the
/// `i128` formula, stopping at the first error.
fn quantize_slice_via_i128(
    q: QuantConfig,
    vs: &[f32],
    pre: f32,
) -> (Result<(), QuantError>, Vec<F25>) {
    let mut out = Vec::new();
    for &v in vs {
        match quantize_via_i128(q, (v * pre) as f64) {
            Ok(x) => out.push(x),
            Err(e) => return (Err(e), out),
        }
    }
    (Ok(()), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunked quantize pass is the per-element formula at every
    /// length up to two chunks and one: same values when every element
    /// is in range, and with arbitrary bit patterns dropped in, the same
    /// error and the same elements in `out` before it.
    #[test]
    fn quantize_slice_matches_the_i128_formula_element_by_element(
        seed in arb_seed(),
        len in 0usize..=SWEEP,
        l in 0u32..21,
        pre_bits in any::<u32>(),
        faults in 0usize..3,
    ) {
        let q = QuantConfig::new(l);
        let mut rng = FieldRng::seed_from(seed);
        // Two cases in three keep a pre-scale that leaves the values in
        // range, so the clean prefix is as long as the faults allow.
        let pre = [1.0, -0.37, f32::from_bits(pre_bits)][pre_bits as usize % 3];
        let reach = (P25 / 2) as f32 / q.scale() as f32 / if pre.is_normal() { pre.abs() } else { 1.0 };
        let mut vs: Vec<f32> = (0..len).map(|_| rng.uniform_f32(-reach, reach)).collect();
        for _ in 0..faults.min(len) {
            let at = rng.index(len);
            vs[at] = f32::from_bits(rng.next_u64() as u32);
        }
        let mut out = vec![F25::ONE];
        let got = q.quantize_slice_into::<P25>(&vs, pre, &mut out);
        let (want, want_out) = quantize_slice_via_i128(q, &vs, pre);
        prop_assert_eq!(got, want);
        prop_assert_eq!(&out[1..], &want_out[..]);
        prop_assert_eq!(out[0], F25::ONE);
    }

    /// The dequantize pass is `dequantize_product` per element, bit for
    /// bit, at the centered lift's edges and anywhere else, under any
    /// post-scale.
    #[test]
    fn dequantize_slice_matches_the_single_value_function(
        seed in arb_seed(),
        len in 0usize..=SWEEP,
        l in 0u32..21,
        post_bits in any::<u32>(),
    ) {
        let q = QuantConfig::new(l);
        let post = f32::from_bits(post_bits);
        let mut ys: Vec<F25> = [0, 1, P25 / 2, P25 / 2 + 1, P25 - 1].map(F25::new).to_vec();
        ys.extend(FieldRng::seed_from(seed).uniform_vec::<P25>(len));
        let mut got = vec![0.0f32; ys.len()];
        q.dequantize_product_slice_into(&ys, post, &mut got);
        for (g, &y) in got.iter().zip(&ys) {
            let want = q.dequantize_product(y) as f32 * post;
            prop_assert_eq!(g.to_bits(), want.to_bits());
        }
    }

    /// `uniform_extend(n)` is `n` calls of `uniform` and leaves the
    /// generator where they do — from any stream position (mid-block,
    /// mid-value after 32-bit draws), for `n` on both sides of a block,
    /// a refill and a pass of the bulk body, with `next_u64`, `fork` and
    /// 32-bit draws in between.
    #[test]
    fn uniform_extend_is_uniform_repeated(
        seed in arb_seed(),
        skip_u32 in 0usize..40,
        ns in proptest::collection::vec(0usize..600, 1..6),
    ) {
        let mut bulk = FieldRng::seed_from(seed);
        for _ in 0..skip_u32 {
            bulk.uniform_f32(0.0, 1.0);
        }
        let mut single = bulk.clone();
        for (step, n) in ns.into_iter().enumerate() {
            // Lengths off the random draw, then right on the boundaries.
            for n in [n, [8, 64, 256][step % 3] + n % 3 - 1] {
                let mut got = vec![F25::ZERO; step];
                bulk.uniform_extend::<P25>(n, &mut got);
                let want: Vec<F25> = (0..n).map(|_| single.uniform()).collect();
                prop_assert_eq!(&got[step..], &want[..]);
            }
            match step % 3 {
                0 => prop_assert_eq!(bulk.next_u64(), single.next_u64()),
                1 => prop_assert_eq!(bulk.fork(7).next_u64(), single.fork(7).next_u64()),
                _ => prop_assert_eq!(bulk.uniform_f32(-1.0, 1.0), single.uniform_f32(-1.0, 1.0)),
            }
        }
        prop_assert_eq!(bulk.next_u64(), single.next_u64());
    }

    /// Quantization without the 128-bit division is the same function:
    /// every `f64` and `f32` bit pattern, every scale, value or error.
    #[test]
    fn quantize_matches_the_i128_formula(bits in any::<u64>(), l in 0u32..21, pre_bits in any::<u32>()) {
        let q = QuantConfig::new(l);
        // Raw bit patterns reach NaNs, infinities and subnormals; the
        // last value sweeps fractions across the field and a little past
        // `±p/2` on either side.
        let near = ((bits % (2 * P25)) as f64 - P25 as f64) / 1.7 / q.scale();
        for v in [f64::from_bits(bits), (bits as i64) as f64 / 4096.0, near] {
            prop_assert_eq!(q.quantize::<P25>(v), quantize_via_i128(q, v));
        }
        let (v, pre) = (f32::from_bits(bits as u32), f32::from_bits(pre_bits));
        let mut out = Vec::new();
        let sliced = q.quantize_slice_into::<P25>(&[1.0, v], pre, &mut out).map(|()| out[1]);
        let want = quantize_via_i128(q, pre as f64).and_then(|_| quantize_via_i128(q, (v * pre) as f64));
        prop_assert_eq!(sliced, want);
    }

    /// Field axioms on random triples: associativity, commutativity,
    /// distributivity, inverses.
    #[test]
    fn field_axioms(a in 0u64..P25, b in 0u64..P25, c in 0u64..P25) {
        let (x, y, z) = (F25::new(a), F25::new(b), F25::new(c));
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!((x * y) * z, x * (y * z));
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!(x * (y + z), x * y + x * z);
        prop_assert_eq!(x + (-x), F25::ZERO);
        if !x.is_zero() {
            prop_assert_eq!(x * x.inv().unwrap(), F25::ONE);
        }
    }

    /// Centered lift inverts the signed embedding over the full safe
    /// range.
    #[test]
    fn centered_lift_round_trip(v in -((P25 as i64)/2)..=(P25 as i64)/2) {
        prop_assert_eq!(F25::from_i64(v).to_centered_i64(), v);
    }

    /// Random square matrices over F_p invert correctly whenever an
    /// inverse exists.
    #[test]
    fn matrix_inverse_round_trip(seed in arb_seed(), n in 1usize..6) {
        let mut rng = FieldRng::seed_from(seed);
        let m = FieldMatrix::<P25>::random(n, n, &mut rng);
        if let Some(inv) = m.inverse() {
            prop_assert_eq!(&m * &inv, FieldMatrix::identity(n));
            prop_assert_eq!(&inv * &m, FieldMatrix::identity(n));
        }
    }

    /// Vandermonde-based generator always yields MDS matrices.
    #[test]
    fn mds_generator_property(seed in arb_seed(), rows in 1usize..4, extra in 0usize..4) {
        let mut rng = FieldRng::seed_from(seed);
        let cols = rows + extra;
        let m = mds_matrix::<P25>(rows, cols, &mut rng);
        prop_assert!(is_mds(&m));
    }

    /// Encode→decode is the identity for any (K, M, integrity, length).
    #[test]
    fn encode_decode_identity(
        seed in arb_seed(),
        k in 1usize..5,
        m in 1usize..4,
        integrity in any::<bool>(),
        n in 1usize..40,
    ) {
        let mut rng = FieldRng::seed_from(seed);
        let scheme = EncodingScheme::generate(k, m, integrity, &mut rng);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let encodings = scheme.encode(&inputs, &noise);
        let decoded = scheme.decode_forward_ws(&encodings, 0, &mut Workspace::new()).unwrap();
        prop_assert_eq!(decoded, inputs);
    }

    /// Any single-element corruption of any worker output is detected
    /// when integrity is enabled.
    #[test]
    fn integrity_catches_arbitrary_corruption(
        seed in arb_seed(),
        k in 1usize..4,
        m in 1usize..3,
        victim_sel in any::<u32>(),
        elem_sel in any::<u32>(),
        bump in 1u64..P25,
    ) {
        let mut rng = FieldRng::seed_from(seed);
        let scheme = EncodingScheme::generate(k, m, true, &mut rng);
        let n = 8;
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let mut outputs = scheme.encode(&inputs, &noise);
        let victim = victim_sel as usize % outputs.len();
        let elem = elem_sel as usize % n;
        outputs[victim][elem] += F25::new(bump);
        prop_assert!(scheme.decode_forward_ws(&outputs, 0, &mut Workspace::new()).is_err());
    }

    /// The Eq. 5 relation holds for every sampled scheme.
    #[test]
    fn backward_relation_always_holds(
        seed in arb_seed(),
        k in 1usize..5,
        m in 1usize..4,
        integrity in any::<bool>(),
    ) {
        let mut rng = FieldRng::seed_from(seed);
        let scheme = EncodingScheme::generate(k, m, integrity, &mut rng);
        prop_assert!(scheme.verify_relation());
    }

    /// Quantization round-trips within the documented error bound for
    /// all in-range floats.
    #[test]
    fn quantization_error_bound(v in -100.0f64..100.0, l in 4u32..10) {
        let q = QuantConfig::new(l);
        let x = q.quantize::<P25>(v).unwrap();
        let back = q.dequantize_input(x);
        prop_assert!((back - v).abs() <= q.unit_error() + 1e-9);
    }

    /// Seal→unseal is the identity; any single-byte corruption of the
    /// ciphertext is rejected.
    #[test]
    fn sealing_round_trip_and_tamper(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        corrupt_at in any::<u32>(),
    ) {
        let mut key = SealKey::derive(b"prop");
        let blob = key.seal(&payload);
        prop_assert_eq!(key.unseal(&blob).unwrap(), payload.clone());
        if !blob.ciphertext.is_empty() {
            let mut bad = blob.clone();
            let i = corrupt_at as usize % bad.ciphertext.len();
            bad.ciphertext[i] ^= 0x01;
            prop_assert!(key.unseal(&bad).is_err());
        }
    }

    /// The masked view leaks nothing: for ANY two fixed input batches,
    /// the marginal of each encoding is uniform — checked here via the
    /// weaker but testable invariant that encodings of identical inputs
    /// under fresh noise never repeat.
    #[test]
    fn fresh_noise_never_repeats_encodings(seed in arb_seed(), n in 1usize..32) {
        let mut rng = FieldRng::seed_from(seed);
        let scheme = EncodingScheme::generate(2, 1, false, &mut rng);
        let inputs: Vec<Vec<F25>> = (0..2).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let n1: Vec<Vec<F25>> = vec![rng.uniform_vec::<P25>(n)];
        let n2: Vec<Vec<F25>> = vec![rng.uniform_vec::<P25>(n)];
        if n1 != n2 {
            let e1 = scheme.encode(&inputs, &n1);
            let e2 = scheme.encode(&inputs, &n2);
            prop_assert_ne!(e1, e2);
        }
    }
}
