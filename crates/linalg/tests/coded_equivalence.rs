//! Streaming coded-combine kernels vs the per-MAC-reducing oracle.
//!
//! A coded combine restructures the coding matmul — the whole
//! coefficient matrix against each column chunk of the stacked rows in
//! one pass — but every output element must still see exactly the
//! ascending-`p` reference recurrence of
//! [`dk_linalg::reference::naive_coded_combine_acc`], in both the field
//! and float domains. The three entry points production runs are the
//! three tested here, over the whole shape they accept:
//!
//! * `coded_combine_write` at every row count `0..=MAX_ROWS` and term
//!   count `0..=MAX_TERMS`, offset coefficient columns, lane-misaligned
//!   and degenerate widths, into poisoned / wrong-length output rows
//!   (write mode must not read them);
//! * `coded_combine_check_write`, whose outputs must equal the plain
//!   write's and whose mismatch count must equal the exact number of
//!   corrupted positions;
//! * the rank-1 `coded_axpy_acc` applied in uneven column chunks, which
//!   must reproduce the oracle's single pass bit-for-bit;
//! * one step past the bound, which every entry point refuses.

use dk_field::{FieldRng, F25, P25};
use dk_linalg::coded::{MAX_ROWS, MAX_TERMS};
use dk_linalg::reference::naive_coded_combine_acc;
use dk_linalg::{coded_axpy_acc, coded_combine_check_write, coded_combine_write, Scalar};
use proptest::prelude::*;

/// Field generator with a sprinkling of zeros (exercises zero-skip).
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

struct Case<T> {
    coeff: Vec<T>,
    cstride: usize,
    col0: usize,
    x: Vec<Vec<T>>,
    /// Arbitrary length-`n` row contents: what the axpy accumulates
    /// into, and the poison a write must not read.
    init: Vec<Vec<T>>,
    n: usize,
}

fn make_case<T: Scalar>(
    mut gen: impl FnMut() -> T,
    rows: usize,
    kdim: usize,
    col0: usize,
    n: usize,
) -> Case<T> {
    let cstride = col0 + kdim;
    Case {
        coeff: (0..rows.max(1) * cstride).map(|_| gen()).collect(),
        cstride,
        col0,
        x: (0..kdim).map(|_| (0..n).map(|_| gen()).collect()).collect(),
        init: (0..rows).map(|_| (0..n).map(|_| gen()).collect()).collect(),
        n,
    }
}

impl<T: Scalar> Case<T> {
    /// The oracle's answer: the reference recurrence into zeroed rows.
    fn oracle(&self) -> Vec<Vec<T>> {
        let mut want: Vec<Vec<T>> = self.init.iter().map(|_| vec![T::zero(); self.n]).collect();
        naive_coded_combine_acc(&self.coeff, self.cstride, self.col0, &self.x, &mut want);
        want
    }

    /// Output rows as a recycled pool hands them over: poisoned, and of
    /// every wrong length (too long, too short, no capacity at all).
    fn poisoned(&self) -> Vec<Vec<T>> {
        let mut rows = self.init.clone();
        for (r, row) in rows.iter_mut().enumerate() {
            match r % 4 {
                0 => row.extend_from_slice(&self.init[0]),
                1 => row.truncate(self.n / 2),
                2 => *row = Vec::new(),
                _ => {}
            }
        }
        rows
    }
}

/// Write ≡ oracle from zero, whatever the output rows held.
fn assert_write_matches_naive<T: Scalar>(gen: impl FnMut() -> T, rows: usize, kdim: usize, col0: usize, n: usize) {
    let c = make_case(gen, rows, kdim, col0, n);
    let mut got = c.poisoned();
    coded_combine_write(&c.coeff, c.cstride, c.col0, &c.x, &mut got, c.n);
    assert_eq!(got, c.oracle(), "write diverged at rows={rows} kdim={kdim} col0={col0} n={n}");
}

/// Fused check ≡ plain write on the outputs, and the mismatch count
/// equals the exact number of corrupted positions.
fn assert_check_exact(seed: u64, rows: usize, kdim: usize, n: usize, corrupt: &[usize]) {
    let mut gen = field_gen(seed);
    let c = make_case(&mut gen, rows, kdim, 0, n);
    let w: Vec<F25> = (0..kdim).map(|_| gen()).collect();
    let mut pred = vec![vec![F25::ZERO; n]];
    naive_coded_combine_acc(&w, kdim, 0, &c.x, &mut pred);
    let mut expect = pred.pop().unwrap();
    let mut got = c.poisoned();
    let mm = coded_combine_check_write(&c.coeff, c.cstride, 0, &c.x, &mut got, n, &w, &expect);
    assert_eq!(mm, 0, "clean row must verify at rows={rows} kdim={kdim} n={n}");
    assert_eq!(got, c.oracle(), "fused check changed outputs at rows={rows} kdim={kdim} n={n}");
    // Corrupt a deduplicated set of positions: the count must be exact.
    let mut hit: Vec<usize> = corrupt.iter().filter(|_| n > 0).map(|&p| p % n).collect();
    hit.sort_unstable();
    hit.dedup();
    for &p in &hit {
        expect[p] += F25::ONE;
    }
    let mut got = c.poisoned();
    let mm = coded_combine_check_write(&c.coeff, c.cstride, 0, &c.x, &mut got, n, &w, &expect);
    assert_eq!(mm, hit.len(), "mismatch count at rows={rows} kdim={kdim} n={n}");
    assert_eq!(got, c.oracle(), "a failed check changed outputs at rows={rows} kdim={kdim} n={n}");
}

/// The rank-1 noise update applied in uneven chunks ≡ one oracle pass
/// over the full row.
fn assert_axpy_chunked(seed: u64, rows: usize, kdim: usize, col: usize, n: usize, step: usize) {
    let mut gen = field_gen(seed);
    let c = make_case(&mut gen, rows, kdim.max(col + 1), 0, n);
    let noise: Vec<F25> = (0..n).map(|_| gen()).collect();
    let mut want = c.init.clone();
    naive_coded_combine_acc(&c.coeff, c.cstride, col, std::slice::from_ref(&noise), &mut want);
    let mut got = c.init.clone();
    let mut j0 = 0;
    let mut bump = 0;
    while j0 < n {
        let j1 = n.min(j0 + step + bump);
        coded_axpy_acc(&c.coeff, c.cstride, col, &noise[j0..j1], &mut got, j0);
        j0 = j1;
        bump = (bump + 3) % 11; // uneven, lane-misaligned chunk widths
    }
    assert_eq!(got, want, "chunked axpy diverged at rows={rows} col={col} n={n} step={step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The whole accepted shape against the oracle: every row count up
    // to MAX_ROWS, every term count up to MAX_TERMS, lane-misaligned
    // widths, offset coefficient columns. Includes degenerate n and
    // empty row sets.
    #[test]
    fn write_matches_naive(
        seed in any::<u64>(),
        rows in 0usize..=MAX_ROWS,
        kdim in 0usize..=MAX_TERMS,
        col0 in 0usize..3,
        n in 0usize..70,
    ) {
        assert_write_matches_naive(field_gen(seed), rows, kdim, col0, n);
        assert_write_matches_naive(float_gen(seed ^ 0xF10A7), rows, kdim, col0, n);
    }

    // The fused integrity check: exact mismatch counting at every
    // width, including positions in the vector tail.
    #[test]
    fn check_counts_are_exact(
        seed in any::<u64>(),
        rows in 0usize..=MAX_ROWS,
        kdim in 0usize..=MAX_TERMS,
        n in 0usize..70,
        corrupt in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        assert_check_exact(seed, rows, kdim, n, &corrupt);
    }

    // Chunked noise application ≡ whole-row pass.
    #[test]
    fn axpy_chunking_is_invisible(
        seed in any::<u64>(),
        rows in 0usize..=MAX_ROWS,
        kdim in 1usize..8,
        col in 0usize..8,
        n in 0usize..90,
        step in 1usize..40,
    ) {
        assert_axpy_chunked(seed, rows, kdim, col, n, step);
    }
}

/// One term or one row past the bound is refused by the entry point
/// itself, before anything is written.
#[test]
fn bound_is_enforced() {
    let refused = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    let n = 5;
    let coeff = vec![F25::ONE; (MAX_ROWS + 1) * (MAX_TERMS + 1)];
    let x = vec![vec![F25::ONE; n]; MAX_TERMS + 1];
    let rows = |r: usize| vec![vec![F25::ZERO; n]; r];
    let (w, against) = (vec![F25::ONE; MAX_TERMS + 1], vec![F25::ZERO; n]);
    let stride = MAX_TERMS + 1;
    assert!(refused(&|| coded_combine_write(&coeff, stride, 0, &x, &mut rows(1), n)));
    assert!(refused(&|| coded_combine_write(&coeff, stride, 0, &x[..1], &mut rows(MAX_ROWS + 1), n)));
    assert!(refused(&|| {
        coded_combine_check_write(&coeff, stride, 0, &x, &mut rows(1), n, &w, &against);
    }));
    assert!(refused(&|| {
        let mut outs = rows(MAX_ROWS + 1);
        coded_combine_check_write(&coeff, stride, 0, &x[..1], &mut outs, n, &w[..1], &against);
    }));
    assert!(refused(&|| coded_axpy_acc(&coeff, stride, 0, &x[0], &mut rows(MAX_ROWS + 1), 0)));
    // The bound itself is inside.
    let mut outs = rows(MAX_ROWS);
    coded_combine_write(&coeff, stride, 0, &x[..MAX_TERMS], &mut outs, n);
    assert_eq!(outs, vec![vec![F25::new(MAX_TERMS as u64); n]; MAX_ROWS]);
}
