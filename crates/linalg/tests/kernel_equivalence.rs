//! Fast-vs-naive kernel equivalence: the non-negotiable invariant of the
//! delayed-reduction rewrite.
//!
//! Every blocked kernel must produce **bit-for-bit** the same
//! output as the original per-MAC-reducing scalar path preserved in
//! `dk_linalg::reference` — for all three matmul orientations, in the
//! float domain (identical per-element accumulation order) and in both
//! field domains (exact arithmetic: deferring reduction can never change
//! the value mod p). Shapes cover the degenerate `m/k/n ∈ {0, 1}` edges
//! ([`degenerate_shapes_match_naive`]), `k > 2^14` (the `F25`
//! u64-accumulator fold boundary, in every domain in
//! [`fold_boundary_shapes_match_naive`]), and — in
//! [`strip_sweep_matches_naive`] — output widths around and far past
//! the sixteen-lane strip with `k` crossing the packed panel's 256-row
//! block, which the small property shapes never reach.

use dk_field::{F25, F61, FieldRng, P25, P61};
use dk_linalg::im2col::{col2im, col2im_acc_into, im2col, im2col_into, out_hw};
use dk_linalg::reference::{
    naive_matmul, naive_matmul_a_bt, naive_matmul_acc, naive_matmul_at_b, naive_matvec,
};
use dk_linalg::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_acc, matmul_at_b, matmul_at_b_into, matmul_into,
    matvec, matvec_into, Scalar,
};
use proptest::prelude::*;

/// A buffer pre-poisoned with nonzero garbage, so the `_into` checks
/// also prove the kernels fully overwrite stale contents.
fn poisoned<T: Scalar>(len: usize) -> Vec<T> {
    (0..len).map(|i| if i % 2 == 0 { T::one() } else { -T::one() }).collect()
}

/// Checks all three orientations plus matvec on one random shape —
/// both the allocating entry points and the `_into` variants (the
/// latter against a reused, garbage-filled workspace buffer).
fn assert_equiv<T: Scalar>(mut gen: impl FnMut() -> T, m: usize, k: usize, n: usize) {
    let a: Vec<T> = (0..m * k).map(|_| gen()).collect();
    let b: Vec<T> = (0..k * n).map(|_| gen()).collect();
    let want = naive_matmul(&a, &b, m, k, n);
    assert_eq!(matmul(&a, &b, m, k, n), want, "matmul {m}x{k}x{n}");
    let mut c = poisoned::<T>(m * n);
    matmul_into(&a, &b, &mut c, m, k, n);
    assert_eq!(c, want, "matmul_into {m}x{k}x{n}");

    let a_t: Vec<T> = (0..k * m).map(|_| gen()).collect();
    let want = naive_matmul_at_b(&a_t, &b, m, k, n);
    assert_eq!(matmul_at_b(&a_t, &b, m, k, n), want, "at_b {m}x{k}x{n}");
    let mut c = poisoned::<T>(m * n);
    matmul_at_b_into(&a_t, &b, &mut c, m, k, n);
    assert_eq!(c, want, "at_b_into {m}x{k}x{n}");

    let b_t: Vec<T> = (0..n * k).map(|_| gen()).collect();
    let want = naive_matmul_a_bt(&a, &b_t, m, k, n);
    assert_eq!(matmul_a_bt(&a, &b_t, m, k, n), want, "a_bt {m}x{k}x{n}");
    let mut c = poisoned::<T>(m * n);
    matmul_a_bt_into(&a, &b_t, &mut c, m, k, n);
    assert_eq!(c, want, "a_bt_into {m}x{k}x{n}");

    let x: Vec<T> = (0..k).map(|_| gen()).collect();
    let want = naive_matvec(&a, &x, m, k);
    assert_eq!(matvec(&a, &x, m, k), want, "matvec {m}x{k}");
    let mut y = poisoned::<T>(m);
    matvec_into(&a, &x, &mut y, m, k);
    assert_eq!(y, want, "matvec_into {m}x{k}");
}

/// im2col/col2im geometry sweep: the `_into` forms against the
/// allocating references, with poisoned scratch for `im2col_into` and
/// a nonzero accumulation base for `col2im_acc_into` (whose contract is
/// `out += col2im(cols)` with contributions in identical order).
fn assert_lowering_equiv<T: Scalar>(
    mut gen: impl FnMut() -> T,
    c: usize,
    hw: (usize, usize),
    k: (usize, usize),
    s: (usize, usize),
    p: (usize, usize),
) {
    if hw.0 + 2 * p.0 < k.0 || hw.1 + 2 * p.1 < k.1 {
        return; // kernel does not fit; out_hw would panic
    }
    let input: Vec<T> = (0..c * hw.0 * hw.1).map(|_| gen()).collect();
    let want = im2col(&input, c, hw, k, s, p);
    let mut cols = poisoned::<T>(want.len());
    im2col_into(&input, c, hw, k, s, p, &mut cols);
    assert_eq!(cols, want, "im2col_into c={c} hw={hw:?} k={k:?} s={s:?} p={p:?}");

    let cols_mat: Vec<T> = (0..want.len()).map(|_| gen()).collect();
    let img = col2im(&cols_mat, c, hw, k, s, p);
    // col2im == acc_into onto zeros...
    let mut acc = vec![T::zero(); c * hw.0 * hw.1];
    col2im_acc_into(&cols_mat, c, hw, k, s, p, &mut acc);
    assert_eq!(acc, img, "col2im_acc_into (zero base)");
    // ...and onto a nonzero base it must equal base + col2im, added in
    // the same elementwise order the old triple pass used.
    let base: Vec<T> = (0..c * hw.0 * hw.1).map(|_| gen()).collect();
    let mut acc = base.clone();
    col2im_acc_into(&cols_mat, c, hw, k, s, p, &mut acc);
    let mut want_acc = base;
    for (d, v) in want_acc.iter_mut().zip(img) {
        *d += v;
    }
    assert_eq!(acc, want_acc, "col2im_acc_into (accumulating base)");
    let _ = out_hw(hw, k, s, p);
}

/// Field generator with a deliberate sprinkling of zeros so the
/// zero-skip paths get exercised.
fn field_gen<const P: u64>(seed: u64) -> impl FnMut() -> dk_field::Fp<P> {
    let mut rng = FieldRng::seed_from(seed);
    move || {
        let v = rng.uniform::<P>();
        if v.value().is_multiple_of(7) {
            dk_field::Fp::ZERO
        } else {
            v
        }
    }
}

/// Finite float generator (integers scaled down), also with zeros.
fn float_gen(seed: u64) -> impl FnMut() -> f32 {
    let mut rng = FieldRng::seed_from(seed);
    move || {
        let v = rng.uniform::<P25>().value();
        if v.is_multiple_of(7) {
            0.0
        } else {
            (v % 2001) as f32 * 0.125 - 125.0
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_matches_naive_f25(seed in any::<u64>(), m in 0usize..6, k in 0usize..24, n in 0usize..6) {
        assert_equiv(field_gen::<P25>(seed), m, k, n);
    }

    #[test]
    fn fast_matches_naive_f61(seed in any::<u64>(), m in 0usize..6, k in 0usize..24, n in 0usize..6) {
        assert_equiv(field_gen::<P61>(seed), m, k, n);
    }

    #[test]
    fn fast_matches_naive_f32(seed in any::<u64>(), m in 0usize..6, k in 0usize..24, n in 0usize..6) {
        assert_equiv(float_gen(seed), m, k, n);
    }

    /// Wider, flatter shapes: k dominates, n crosses no tile boundary.
    #[test]
    fn fast_matches_naive_tall_k(seed in any::<u64>(), k in 200usize..600) {
        assert_equiv(field_gen::<P25>(seed), 2, k, 3);
        assert_equiv(float_gen(seed ^ 1), 2, k, 3);
    }

    /// Tall outputs: m crosses the at_b packed-panel boundary (64 rows
    /// per panel).
    #[test]
    fn fast_matches_naive_tall_m(seed in any::<u64>(), m in 60usize..140) {
        assert_equiv(field_gen::<P25>(seed), m, 5, 3);
        assert_equiv(float_gen(seed ^ 1), m, 5, 3);
    }

    /// im2col/col2im `_into` forms across random geometry, all domains.
    /// (The float generator only produces dyadic values whose sums stay
    /// exactly representable, so even the accumulating-base check is an
    /// exact-equality check in every domain.)
    #[test]
    fn lowering_into_matches_reference(
        seed in any::<u64>(),
        c in 1usize..3,
        h in 1usize..7,
        w in 1usize..7,
        kh in 1usize..4,
        kw in 1usize..4,
        sh in 1usize..3,
        sw in 1usize..3,
        ph in 0usize..2,
        pw in 0usize..2,
    ) {
        assert_lowering_equiv(field_gen::<P25>(seed), c, (h, w), (kh, kw), (sh, sw), (ph, pw));
        assert_lowering_equiv(field_gen::<P61>(seed ^ 1), c, (h, w), (kh, kw), (sh, sw), (ph, pw));
        assert_lowering_equiv(float_gen(seed ^ 2), c, (h, w), (kh, kw), (sh, sw), (ph, pw));
    }
}

/// The packed-panel products on one shape: `matmul`, `matmul_into` and
/// `matmul_at_b_into` into poisoned outputs, and `matmul_acc` on top of
/// a nonzero base.
fn assert_strip_equiv<T: Scalar>(mut gen: impl FnMut() -> T, m: usize, k: usize, n: usize) {
    let a: Vec<T> = (0..m * k).map(|_| gen()).collect();
    let b: Vec<T> = (0..k * n).map(|_| gen()).collect();
    let want = naive_matmul(&a, &b, m, k, n);
    assert_eq!(matmul(&a, &b, m, k, n), want, "matmul {m}x{k}x{n}");
    let mut c = poisoned::<T>(m * n);
    matmul_into(&a, &b, &mut c, m, k, n);
    assert_eq!(c, want, "matmul_into {m}x{k}x{n}");

    let base: Vec<T> = (0..m * n).map(|_| gen()).collect();
    let mut want_acc = base.clone();
    naive_matmul_acc(&a, &b, &mut want_acc, m, k, n);
    let mut c = base;
    matmul_acc(&a, &b, &mut c, m, k, n);
    assert_eq!(c, want_acc, "matmul_acc {m}x{k}x{n}");

    let a_t: Vec<T> = (0..k * m).map(|_| gen()).collect();
    let mut c = poisoned::<T>(m * n);
    matmul_at_b_into(&a_t, &b, &mut c, m, k, n);
    assert_eq!(c, naive_matmul_at_b(&a_t, &b, m, k, n), "at_b_into {m}x{k}x{n}");
}

/// Output widths one short of, at, and one past one, two and three
/// strips, and many strips wide; row counts from none to more than a
/// panel serves at once; `k` one past the panel's 256-row block, so
/// every strip carries its accumulators across a block boundary through
/// `C`. The full `F25` grid exercises the SIMD body; the other domains
/// take the corners (the float values round, so only the reference
/// order reproduces their bits).
#[test]
fn strip_sweep_matches_naive() {
    const NS: [usize; 9] = [15, 16, 17, 31, 32, 33, 48, 256, 1024];
    const MS: [usize; 9] = [0, 1, 2, 3, 4, 5, 16, 17, 65];
    let k = 257;
    let mut f25 = field_gen::<P25>(0x57A1);
    let mut f61 = field_gen::<P61>(0x57A2);
    let mut rng = FieldRng::seed_from(0x57A3);
    let mut f32s = move || ((rng.uniform::<P25>().value() % 2001) as f32 - 1000.0) / 3.0;
    for n in NS {
        for m in MS {
            assert_strip_equiv(&mut f25, m, k, n);
            if [15, 17, 32, 1024].contains(&n) && [0, 1, 5, 17].contains(&m) {
                assert_strip_equiv(&mut f61, m, k, n);
                assert_strip_equiv(&mut f32s, m, k, n);
            }
        }
    }
    // Two and three blocks, the last one a single row; and a `k` that
    // fills its blocks exactly.
    for k in [512, 513, 769] {
        assert_strip_equiv(&mut f25, 3, k, 33);
        assert_strip_equiv(&mut f32s, 3, k, 33);
    }
}

/// `k` past both the panel block and the `F25` fold boundary with every
/// operand — and the accumulation base — at `p − 1`, at widths with a
/// full and a ragged strip.
#[test]
fn strip_worst_case_operands_cross_fold_boundary() {
    let k = F25::FOLD_INTERVAL + 21;
    let big = || F25::new(P25 - 1);
    for (m, n) in [(1, 17), (2, 32)] {
        assert_strip_equiv(big, m, k, n);
    }
}

/// `k` past the `F25` fold boundary (2^14 MACs per accumulator), with
/// worst-case operands `p−1` so the u64 accumulator is driven right up
/// to its overflow margin before the Barrett fold kicks in.
#[test]
fn f25_crosses_fold_boundary_with_worst_case_operands() {
    let k = F25::FOLD_INTERVAL + 21;
    let m = 1;
    let n = 2;
    let a = vec![F25::new(P25 - 1); m * k];
    let b = vec![F25::new(P25 - 1); k * n];
    assert_eq!(matmul(&a, &b, m, k, n), naive_matmul(&a, &b, m, k, n));
    let b_t = vec![F25::new(P25 - 1); n * k];
    assert_eq!(matmul_a_bt(&a, &b_t, m, k, n), naive_matmul_a_bt(&a, &b_t, m, k, n));
    let a_t = vec![F25::new(P25 - 1); k * m];
    assert_eq!(matmul_at_b(&a_t, &b, m, k, n), naive_matmul_at_b(&a_t, &b, m, k, n));
}

/// Same boundary crossing with random data, all orientations.
#[test]
fn f25_crosses_fold_boundary_random() {
    assert_equiv(field_gen::<P25>(0xF01D), 2, (1 << 14) + 1, 2);
}

/// Every shape with `m`, `n` ∈ {0, 1} (empty outputs, single rows and
/// columns) at short and long reductions, and `k` ∈ {0, 1} under
/// multi-strip outputs, in all three domains.
#[test]
fn degenerate_shapes_match_naive() {
    let mut seed = 0xDE6E;
    let mut shapes = Vec::new();
    for m in [0, 1] {
        for n in [0, 1] {
            for k in [0, 1, 2, 23, 300] {
                shapes.push((m, k, n));
            }
        }
    }
    for k in [0, 1] {
        shapes.extend([(3, k, 17), (17, k, 3), (1, k, 33), (33, k, 1)]);
    }
    for (m, k, n) in shapes {
        seed += 1;
        assert_equiv(field_gen::<P25>(seed), m, k, n);
        assert_equiv(field_gen::<P61>(seed ^ 0x5EED), m, k, n);
        assert_equiv(float_gen(seed ^ 0xF10A7), m, k, n);
    }
}

/// `k` past the `F25` fold boundary (2^14 unreduced MACs per `u64`
/// accumulator) with several rows and columns, `n` past one strip for
/// the packed-panel products: every domain must reduce exactly where
/// the reference does.
#[test]
fn fold_boundary_shapes_match_naive() {
    for (i, (m, extra, n)) in [(4, 1, 4), (5, 63, 17), (6, 127, 39)].into_iter().enumerate() {
        let (k, seed) = ((1 << 14) + extra, 0xF01D + i as u64);
        assert_equiv(field_gen::<P25>(seed), m, k, n);
        assert_equiv(field_gen::<P61>(seed ^ 0x5EED), m, k, n);
        assert_equiv(float_gen(seed ^ 0xF10A7), m, k, n);
    }
}

/// Float non-finite semantics: `matvec` and `matmul_a_bt` never skip
/// zero operands for floats, so `0.0 · ∞ = NaN` propagates exactly as
/// in the original scalar kernels.
#[test]
fn f32_non_finite_propagation_matches_naive() {
    let a = [0.0f32, 1.0];
    let x = [f32::INFINITY, 2.0];
    let fast = matvec(&a, &x, 1, 2);
    let naive = naive_matvec(&a, &x, 1, 2);
    assert_eq!(fast[0].to_bits(), naive[0].to_bits());
    assert!(fast[0].is_nan());

    let b_t = [f32::NEG_INFINITY, 3.0]; // B stored n×k with n = 1
    let fast = matmul_a_bt(&a, &b_t, 1, 2, 1);
    let naive = naive_matmul_a_bt(&a, &b_t, 1, 2, 1);
    assert_eq!(fast[0].to_bits(), naive[0].to_bits());
    assert!(fast[0].is_nan());
}

/// The Mersenne field never folds (pre-folded products), but long chains
/// must still reduce exactly.
#[test]
fn f61_long_chain_exact() {
    let mut gen = field_gen::<P61>(0x61);
    let k = 20_000;
    let a: Vec<F61> = (0..k).map(|_| gen()).collect();
    let b: Vec<F61> = (0..k).map(|_| gen()).collect();
    assert_eq!(matmul(&a, &b, 1, k, 1), naive_matmul(&a, &b, 1, k, 1));
}
