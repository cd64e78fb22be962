//! Streamed scheme ≡ definition, bit-for-bit.
//!
//! The encode/decode fast path streams the coded combines (one pass
//! over the stacked rows, fused RNG noise, fused §4.4 check) — every
//! output bit must still match the scheme's textbook definition,
//! reconstructed here directly from the white-box coefficient views:
//!
//! * `encode` / `encode_row` vs `x̄_j = Σ_i Aᵀ[j][i]·x_i + Σ_t
//!   Aᵀ[j][K+t]·r_t` evaluated per-MAC in ascending order;
//! * `encode_fused_ws` vs materialize-the-noise-then-encode, **and**
//!   the RNG must land on the identical stream position (the fused
//!   chunks consume exactly the draws the materialized rows would);
//! * `decode_forward_ws` vs `Y = (A_sq⁻¹)ᵀ·Ȳ` plus the
//!   `w = A_sq⁻¹·a_last` redundant-equation count — including that a
//!   tampered worker output still raises `IntegrityViolation` with the
//!   exact mismatch count;
//! * `decode_backward_ws` vs the γ-weighted sum;
//! * all of it on workspaces whose pooled buffers were deliberately
//!   poisoned with garbage, since every hot-path buffer is recycled.
//!
//! Shapes sweep `n ∈ {0, 1}` and a deterministic case past the 2^14
//! `F25` fold boundary, where the identity-op round trip (decoding the
//! encodings themselves) must also give back the inputs.

use dk_core::error::DarknightError;
use dk_core::scheme::EncodingScheme;
use dk_field::{F25, FieldRng, P25};
use dk_linalg::Workspace;
use proptest::prelude::*;

fn poisoned_ws(k: usize, m: usize, integrity: bool, n: usize) -> Workspace {
    // Seed the pool with garbage-filled buffers of exactly the sizes the
    // streamed paths recycle; a correct implementation must be
    // insensitive to stale contents.
    let mut ws = Workspace::new();
    let s_cols = k + m + usize::from(integrity);
    for _ in 0..s_cols + 2 {
        ws.give(vec![F25::new(0x1ABBA6E); n.max(1)]);
    }
    ws.give(vec![vec![F25::new(7); n.max(1)]; s_cols]);
    ws.give(vec![F25::new(13); 64]); // noise-chunk sized odd buffer
    ws
}

fn gen_rows(r: &mut FieldRng, rows: usize, n: usize) -> Vec<Vec<F25>> {
    (0..rows)
        .map(|_| {
            let mut v = r.uniform_vec::<P25>(n);
            // Sprinkle zeros so the kernels' zero-skip is exercised.
            for x in v.iter_mut().step_by(7) {
                *x = F25::ZERO;
            }
            v
        })
        .collect()
}

/// `x̄_j` from the definition, per-MAC in ascending stacked-row order.
fn naive_encoding(scheme: &EncodingScheme, j: usize, inputs: &[Vec<F25>], noise: &[Vec<F25>]) -> Vec<F25> {
    let n = inputs.first().map_or(0, Vec::len);
    let crow = scheme.a_transpose().row(j);
    let mut out = vec![F25::ZERO; n];
    for (p, row) in inputs.iter().chain(noise).enumerate() {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += crow[p] * v;
        }
    }
    out
}

fn scheme_for(seed: u64, k: usize, m: usize, integrity: bool) -> (EncodingScheme, FieldRng) {
    let mut r = FieldRng::seed_from(seed);
    let scheme = EncodingScheme::generate(k, m, integrity, &mut r);
    (scheme, r)
}

/// encode / encode_ws / encode_row_ws ≡ the definition, on a poisoned
/// workspace.
fn assert_encode_matches(seed: u64, k: usize, m: usize, integrity: bool, n: usize) {
    let (scheme, mut r) = scheme_for(seed, k, m, integrity);
    let inputs = gen_rows(&mut r, k, n);
    let noise = gen_rows(&mut r, m, n);
    let want: Vec<Vec<F25>> =
        (0..scheme.num_encodings()).map(|j| naive_encoding(&scheme, j, &inputs, &noise)).collect();
    assert_eq!(scheme.encode(&inputs, &noise), want, "encode at k={k} m={m} n={n}");
    let mut ws = poisoned_ws(k, m, integrity, n);
    assert_eq!(
        scheme.encode_ws(&inputs, &noise, &mut ws),
        want,
        "encode_ws (poisoned ws) at k={k} m={m} n={n}"
    );
    for (j, wj) in want.iter().enumerate() {
        assert_eq!(
            &scheme.encode_row_ws(j, &inputs, &noise, &mut ws),
            wj,
            "encode_row_ws at j={j} k={k} m={m} n={n}"
        );
    }
}

/// encode_fused_ws ≡ materialize + encode_ws, and the RNG stream lands
/// on the identical position.
fn assert_fused_encode_matches(seed: u64, k: usize, m: usize, integrity: bool, n: usize) {
    let (scheme, mut r) = scheme_for(seed, k, m, integrity);
    let inputs = gen_rows(&mut r, k, n);
    let mut rng_mat = FieldRng::seed_from(seed ^ 0x4e4f_4953);
    let mut rng_fused = rng_mat.clone();
    let noise: Vec<Vec<F25>> = (0..m).map(|_| rng_mat.uniform_vec::<P25>(n)).collect();
    let want = scheme.encode_ws(&inputs, &noise, &mut Workspace::new());
    let mut ws = poisoned_ws(k, m, integrity, n);
    let got = scheme.encode_fused_ws(&inputs, &mut rng_fused, &mut ws);
    assert_eq!(got, want, "fused encode at k={k} m={m} n={n}");
    for d in 0..4 {
        assert_eq!(
            rng_fused.uniform::<P25>(),
            rng_mat.uniform::<P25>(),
            "RNG stream diverged {d} draws after fused encode at k={k} m={m} n={n}"
        );
    }
}

/// decode_forward_ws ≡ `(A_sq⁻¹)ᵀ·Ȳ` + the redundant-equation count, with
/// tampering detected exactly.
fn assert_decode_forward_matches(seed: u64, k: usize, m: usize, integrity: bool, n: usize, taint: usize) {
    let (scheme, mut r) = scheme_for(seed, k, m, integrity);
    let s_sq = k + m;
    let mut outputs = gen_rows(&mut r, scheme.num_encodings(), n);
    if integrity {
        // Make the redundant row consistent: ȳ_last = Σ_p w_p·ȳ_p.
        let w = scheme.integrity_weights().to_vec();
        let last = scheme.num_encodings() - 1;
        outputs[last] = (0..n)
            .map(|j| (0..s_sq).map(|p| w[p] * outputs[p][j]).fold(F25::ZERO, |a, b| a + b))
            .collect();
    }
    let inv_t = scheme.a_sq_inv_transpose();
    let want: Vec<Vec<F25>> = (0..k)
        .map(|i| {
            let crow = inv_t.row(i);
            let mut out = vec![F25::ZERO; n];
            for p in 0..s_sq {
                for (o, &v) in out.iter_mut().zip(&outputs[p]) {
                    *o += crow[p] * v;
                }
            }
            out
        })
        .collect();
    let mut ws = poisoned_ws(k, m, integrity, n);
    assert_eq!(
        scheme.decode_forward_ws(&outputs, 7, &mut ws).expect("consistent outputs decode"),
        want,
        "decode_forward_ws at k={k} m={m} n={n}"
    );
    if integrity && n > 0 {
        // Tamper `taint` distinct positions of one worker's output: the
        // fused check must report exactly that many mismatches.
        let hits = taint.clamp(1, n);
        for j in 0..hits {
            outputs[s_sq / 2][j * (n / hits).max(1)] += F25::ONE;
        }
        // Each tampered ȳ column perturbs the redundant equation at
        // that column (w entries are nonzero with overwhelming
        // probability for sampled schemes; the seed sweep keeps this
        // deterministic per case).
        match scheme.decode_forward_ws(&outputs, 9, &mut ws) {
            Err(DarknightError::IntegrityViolation { layer_id, phase, mismatches }) => {
                assert_eq!((layer_id, phase), (9, "forward"));
                assert!(
                    mismatches >= 1 && mismatches <= hits,
                    "expected 1..={hits} mismatches, got {mismatches}"
                );
            }
            other => panic!("tampered decode must fail, got {other:?}"),
        }
    }
}

/// decode_backward_ws ≡ the γ-weighted sum.
fn assert_decode_backward_matches(seed: u64, k: usize, m: usize, integrity: bool, n: usize) {
    let (scheme, mut r) = scheme_for(seed, k, m, integrity);
    let s_sq = k + m;
    let eqs = gen_rows(&mut r, scheme.num_encodings(), n);
    let gamma = scheme.gamma_coeffs();
    let mut want = vec![F25::ZERO; n];
    for (j, eq) in eqs.iter().take(s_sq).enumerate() {
        for (o, &v) in want.iter_mut().zip(eq) {
            *o += gamma[j] * v;
        }
    }
    let mut ws = poisoned_ws(k, m, integrity, n);
    assert_eq!(
        scheme.decode_backward_ws(&eqs, &mut ws),
        want,
        "decode_backward_ws (poisoned ws) at k={k} m={m} n={n}"
    );
}

fn check_all(seed: u64, k: usize, m: usize, integrity: bool, n: usize, taint: usize) {
    assert_encode_matches(seed, k, m, integrity, n);
    assert_fused_encode_matches(seed, k, m, integrity, n);
    assert_decode_forward_matches(seed, k, m, integrity, n, taint);
    assert_decode_backward_matches(seed, k, m, integrity, n);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Shape sweep including the degenerate widths n ∈ {0, 1}.
    #[test]
    fn streamed_scheme_matches_definition(
        seed in any::<u64>(),
        k in 1usize..5,
        m in 1usize..4,
        integrity in any::<bool>(),
        n in 0usize..48,
        taint in 1usize..6,
    ) {
        check_all(seed, k, m, integrity, n, taint);
    }
}

#[test]
fn streamed_scheme_is_bit_identical_to_definition() {
    // Deterministic wide case: n past the 2^14 F25 fold boundary, so
    // the streamed column chunks cross a Barrett-fold-relevant width.
    let n = (1 << 14) + 33;
    check_all(0xDEC0DE, 4, 2, true, n, 3);
    // Identity-op round trip at that width, integrity row included:
    // decoding the encodings recovers the inputs.
    let (scheme, mut r) = scheme_for(0xC0DE, 3, 2, true);
    let inputs = gen_rows(&mut r, 3, n);
    let noise = gen_rows(&mut r, 2, n);
    let encodings = scheme.encode(&inputs, &noise);
    let decoded = scheme.decode_forward_ws(&encodings, 0, &mut Workspace::new());
    assert_eq!(decoded.expect("honest encodings decode"), inputs);
}
