//! Fast-vs-naive kernel equivalence: the non-negotiable invariant of the
//! delayed-reduction rewrite.
//!
//! Every blocked kernel must produce **bit-for-bit** the same
//! output as the original per-MAC-reducing scalar path preserved in
//! `dk_linalg::reference` — for all three matmul orientations, in the
//! float domain (identical per-element accumulation order) and in the
//! field (exact arithmetic: deferring reduction can never change the
//! value mod p). Shapes cover the degenerate `m/k/n ∈ {0, 1}` edges
//! ([`degenerate_shapes_match_naive`]), `k > 2^14` (the `F25`
//! u64-accumulator fold boundary, in both domains in
//! [`fold_boundary_shapes_match_naive`]), and — in
//! [`strip_sweep_matches_naive`] — output widths around and far past
//! the sixteen-lane strip with `k` crossing the packed panel's 256-row
//! block, which the small property shapes never reach. These run on the
//! host's best vector tier; the portable kernels `F25` takes on the
//! baseline tier are driven directly by the per-tier unit tests of
//! `dk_linalg::matmul`.

use dk_field::{F25, FieldRng, P25};
use dk_linalg::im2col::{col2im_acc_into, im2col_into, out_hw};
use dk_linalg::reference::{naive_matmul, naive_matmul_a_bt, naive_matmul_at_b};
use dk_linalg::{matmul_a_bt_into, matmul_at_b_into, matmul_into, Scalar};
use proptest::prelude::*;

/// A buffer pre-poisoned with nonzero garbage, so every check also
/// proves the kernels fully overwrite stale contents.
fn poisoned<T: Scalar>(len: usize) -> Vec<T> {
    (0..len).map(|i| if i % 2 == 0 { T::one() } else { -T::one() }).collect()
}

/// Checks all three orientations on one random shape, each into a
/// garbage-filled output buffer.
fn assert_equiv<T: Scalar>(mut gen: impl FnMut() -> T, m: usize, k: usize, n: usize) {
    let a: Vec<T> = (0..m * k).map(|_| gen()).collect();
    let b: Vec<T> = (0..k * n).map(|_| gen()).collect();
    let mut c = poisoned::<T>(m * n);
    matmul_into(&a, &b, &mut c, m, k, n);
    assert_eq!(c, naive_matmul(&a, &b, m, k, n), "matmul_into {m}x{k}x{n}");

    let a_t: Vec<T> = (0..k * m).map(|_| gen()).collect();
    let mut c = poisoned::<T>(m * n);
    matmul_at_b_into(&a_t, &b, &mut c, m, k, n);
    assert_eq!(
        c,
        naive_matmul_at_b(&a_t, &b, m, k, n),
        "at_b_into {m}x{k}x{n}"
    );

    let b_t: Vec<T> = (0..n * k).map(|_| gen()).collect();
    let mut c = poisoned::<T>(m * n);
    matmul_a_bt_into(&a, &b_t, &mut c, m, k, n);
    assert_eq!(
        c,
        naive_matmul_a_bt(&a, &b_t, m, k, n),
        "a_bt_into {m}x{k}x{n}"
    );
}

/// The definition of the column matrix of a `[c, h, w]` image, one
/// entry per row `(ci, ki, kj)` and column `(oy, ox)`, in row-major
/// order: the image index that tap reads there, or `None` where it
/// lands in the padding.
fn tap_sources(
    c: usize,
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
) -> Vec<Option<usize>> {
    let (oh, ow) = out_hw((h, w), (kh, kw), (sh, sw), (ph, pw));
    let mut src = Vec::with_capacity(c * kh * kw * oh * ow);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (iy, ix) = (oy * sh + ki, ox * sw + kj);
                        let inside = iy >= ph && iy - ph < h && ix >= pw && ix - pw < w;
                        src.push(inside.then(|| (ci * h + iy - ph) * w + ix - pw));
                    }
                }
            }
        }
    }
    src
}

/// im2col/col2im geometry sweep against [`tap_sources`]: `im2col_into`
/// gathers it into poisoned scratch, and `col2im_acc_into` is its
/// transpose, scatter-added onto a nonzero base in the definition's
/// order (so float bits match too).
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
    let src = tap_sources(c, hw, k, s, p);
    let input: Vec<T> = (0..c * hw.0 * hw.1).map(|_| gen()).collect();
    let mut cols = poisoned::<T>(src.len());
    im2col_into(&input, c, hw, k, s, p, &mut cols);
    let want: Vec<T> = src.iter().map(|t| t.map_or(T::zero(), |i| input[i])).collect();
    assert_eq!(cols, want, "im2col_into c={c} hw={hw:?} k={k:?} s={s:?} p={p:?}");

    let cols_mat: Vec<T> = (0..src.len()).map(|_| gen()).collect();
    let base: Vec<T> = (0..c * hw.0 * hw.1).map(|_| gen()).collect();
    let mut acc = base.clone();
    col2im_acc_into(&cols_mat, c, hw, k, s, p, &mut acc);
    let mut want = base;
    for (t, &v) in src.iter().zip(&cols_mat) {
        if let Some(i) = *t {
            want[i] += v;
        }
    }
    assert_eq!(
        acc, want,
        "col2im_acc_into c={c} hw={hw:?} k={k:?} s={s:?} p={p:?}"
    );
}

/// Field generator with a deliberate sprinkling of zeros so the
/// zero-skip paths get exercised.
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
        assert_equiv(field_gen(seed), m, k, n);
    }

    #[test]
    fn fast_matches_naive_f32(seed in any::<u64>(), m in 0usize..6, k in 0usize..24, n in 0usize..6) {
        assert_equiv(float_gen(seed), m, k, n);
    }

    /// Wider, flatter shapes: k dominates, n crosses no tile boundary.
    #[test]
    fn fast_matches_naive_tall_k(seed in any::<u64>(), k in 200usize..600) {
        assert_equiv(field_gen(seed), 2, k, 3);
        assert_equiv(float_gen(seed ^ 1), 2, k, 3);
    }

    /// Tall outputs: m crosses the at_b packed-panel boundary (64 rows
    /// per panel).
    #[test]
    fn fast_matches_naive_tall_m(seed in any::<u64>(), m in 60usize..140) {
        assert_equiv(field_gen(seed), m, 5, 3);
        assert_equiv(float_gen(seed ^ 1), m, 5, 3);
    }

    /// im2col/col2im across random geometry, both domains.
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
        assert_lowering_equiv(field_gen(seed), c, (h, w), (kh, kw), (sh, sw), (ph, pw));
        assert_lowering_equiv(float_gen(seed ^ 2), c, (h, w), (kh, kw), (sh, sw), (ph, pw));
    }
}

/// The packed-panel products on one shape: `matmul_into` and
/// `matmul_at_b_into` into poisoned outputs.
fn assert_strip_equiv<T: Scalar>(mut gen: impl FnMut() -> T, m: usize, k: usize, n: usize) {
    let a: Vec<T> = (0..m * k).map(|_| gen()).collect();
    let b: Vec<T> = (0..k * n).map(|_| gen()).collect();
    let mut c = poisoned::<T>(m * n);
    matmul_into(&a, &b, &mut c, m, k, n);
    assert_eq!(c, naive_matmul(&a, &b, m, k, n), "matmul_into {m}x{k}x{n}");

    let a_t: Vec<T> = (0..k * m).map(|_| gen()).collect();
    let mut c = poisoned::<T>(m * n);
    matmul_at_b_into(&a_t, &b, &mut c, m, k, n);
    assert_eq!(c, naive_matmul_at_b(&a_t, &b, m, k, n), "at_b_into {m}x{k}x{n}");
}

/// Output widths one short of, at, and one past one, two and three
/// strips, and many strips wide; row counts from none to more than a
/// panel serves at once; `k` one past the panel's 256-row block, so
/// every strip carries its accumulators across a block boundary through
/// `C`. The full `F25` grid exercises the SIMD body; `f32` takes the
/// corners (its values round, so only the reference order reproduces
/// their bits).
#[test]
fn strip_sweep_matches_naive() {
    const NS: [usize; 9] = [15, 16, 17, 31, 32, 33, 48, 256, 1024];
    const MS: [usize; 9] = [0, 1, 2, 3, 4, 5, 16, 17, 65];
    let k = 257;
    let mut f25 = field_gen(0x57A1);
    let mut rng = FieldRng::seed_from(0x57A3);
    let mut f32s = move || ((rng.uniform::<P25>().value() % 2001) as f32 - 1000.0) / 3.0;
    for n in NS {
        for m in MS {
            assert_strip_equiv(&mut f25, m, k, n);
            if [15, 17, 32, 1024].contains(&n) && [0, 1, 5, 17].contains(&m) {
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
/// operand at `p − 1`, at widths with a full and a ragged strip.
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
    assert_equiv(|| F25::new(P25 - 1), m, k, n);
}

/// Same boundary crossing with random data, all orientations.
#[test]
fn f25_crosses_fold_boundary_random() {
    assert_equiv(field_gen(0xF01D), 2, (1 << 14) + 1, 2);
}

/// Every shape with `m`, `n` ∈ {0, 1} (empty outputs, single rows and
/// columns) at short and long reductions, and `k` ∈ {0, 1} under
/// multi-strip outputs, in both domains.
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
        assert_equiv(field_gen(seed), m, k, n);
        assert_equiv(float_gen(seed ^ 0xF10A7), m, k, n);
    }
}

/// `k` past the `F25` fold boundary (2^14 unreduced MACs per `u64`
/// accumulator) with several rows and columns, `n` past one strip for
/// the packed-panel products: both domains must reduce exactly where
/// the reference does.
#[test]
fn fold_boundary_shapes_match_naive() {
    for (i, (m, extra, n)) in [(4, 1, 4), (5, 63, 17), (6, 127, 39)].into_iter().enumerate() {
        let (k, seed) = ((1 << 14) + extra, 0xF01D + i as u64);
        assert_equiv(field_gen(seed), m, k, n);
        assert_equiv(float_gen(seed ^ 0xF10A7), m, k, n);
    }
}

/// Float non-finite semantics: `A·Bᵀ` never skips zero operands for
/// floats, so `0.0 · ∞ = NaN` propagates exactly as in the original
/// scalar kernels.
#[test]
fn f32_non_finite_propagation_matches_naive() {
    let a = [0.0f32, 1.0];
    for b_t in [[f32::INFINITY, 2.0], [f32::NEG_INFINITY, 3.0]] {
        let mut fast = [0.0f32];
        matmul_a_bt_into(&a, &b_t, &mut fast, 1, 2, 1);
        let naive = naive_matmul_a_bt(&a, &b_t, 1, 2, 1);
        assert_eq!(fast[0].to_bits(), naive[0].to_bits());
        assert!(fast[0].is_nan());
    }
}
