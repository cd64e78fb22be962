//! Streaming kernels for the coding shapes: a small coefficient matrix
//! against a few stacked rows of enormous `n`.
//!
//! The generic blocked matmuls tile for square-ish operands, which is
//! exactly wrong here: encoding/decoding a virtual batch multiplies a
//! handful of coefficient rows (the whole matrix fits in registers)
//! against megabyte-scale data rows, so a row-at-a-time matmul re-reads
//! the huge operand once **per output row** and the stacking copy the
//! flat layout needs re-touches it again. A coded combine instead
//! streams each column chunk of the input rows exactly once and produces
//! **all** output rows in that single pass.
//!
//! # One shape
//!
//! A DarKnight scheme is small on purpose: the paper sweeps `K = 2…5`,
//! finds `K = 4` best and larger virtual batches losing to enclave
//! paging, and uses `M = 1–2` noise vectors. The kernels are built for
//! that and nothing else: at most [`MAX_TERMS`] reduction terms (the
//! `K+M` stacked rows) by at most [`MAX_ROWS`] output rows, asserted by
//! every entry point and rejected where a scheme is configured
//! (`DarknightConfig::new`, `EncodingScheme::generate` in `dk_core`).
//! Sixteen terms are **one register group**: the coefficient row and
//! the row-slice table stay on the stack, and for `F25` a canonical
//! carry-in plus sixteen unreduced 50-bit products stay below `2^55`,
//! so a strip never folds mid-way (far inside the `2^58` the vector
//! reduce of [`crate::simd`] is argued for). Within the bound:
//!
//! * inputs stay as separate row vectors (`AsRef<[T]>`) — no stacking
//!   copy, no flat `(k+m)·n` buffer;
//! * for `F25` on a vector tier (AVX-512 with IFMA, or AVX2; resolved
//!   once per combine) a strip is the register tile of
//!   [`crate::simd`]: all output rows — the check row riding as the
//!   last — accumulate while each source chunk is loaded **once**, not
//!   once per output row;
//!   everything else runs the [`LANES`]-wide portable strip, row by
//!   row, which the autovectorizer lowers for floats;
//! * **write mode is the only mode** of a combine: the accumulators
//!   start at zero and the finished lanes go straight to the
//!   destination, so recycled output buffers need no `memset` and are
//!   never read — every output byte is touched exactly once per call.
//!   `acc_lift(0) = 0` exactly in both domains, so the result is what
//!   accumulating into zeroed rows would give;
//! * a redundant-equation check ([`coded_combine_check_write`]) rides
//!   the same pass: the §4.4 integrity dot-product reads the worker
//!   outputs while they are hot instead of in a second sweep;
//! * [`coded_axpy_acc`] is the rank-1 update the fused-RNG encode
//!   streams freshly drawn noise chunks through — the one place a strip
//!   accumulates into existing values, because a rank-1 update is that
//!   by definition.
//!
//! Five callers, all of them a scheme's coefficient rows against
//! activation-sized vectors: the encoder (`encode_ws`, `encode_row_ws`,
//! and `encode_fused_ws` with the axpy for its noise), the forward
//! decoder with or without the fused check (`decode_forward_ws`), the
//! backward γ-sum (`decode_backward_ws`), and the β-combine of a
//! `*Stored` weight-gradient job (`dk_gpu::job::beta_combine`).
//!
//! Threading partitions output **columns** (row partitioning cannot
//! split `k+m` rows): every task runs the identical per-element
//! recurrence over a disjoint [`LANES`]-aligned column range, so
//! results are bit-for-bit independent of the thread count in both
//! domains — columns never share an accumulator — and each element sees
//! the single ascending-`p` reference recurrence of
//! [`crate::reference::naive_coded_combine_acc`].

use crate::matmul::{per_lane, LANES};
use crate::scalar::Scalar;
use crate::simd;
use crate::threadpool::{self, SendPtr};
use crate::threads::col_partition;
use dk_field::tier::Tier;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum reduction length (`x.len()`, a scheme's `K+M`) of a coded
/// combine: one register group, so no strip folds mid-way and the
/// fused check's predicted row completes in the pass that produces the
/// outputs.
pub const MAX_TERMS: usize = 16;

/// Maximum output-row count of a coded combine: bounds the stack table
/// of row pointers shared with the pool. A scheme writes at most
/// `K+M+1` rows.
pub const MAX_ROWS: usize = 32;

/// One full-width portable strip: `cs[l] += Σ_p crow[p] · xs[p][j+l]`,
/// at most [`MAX_TERMS`] terms. Same structure as the matmul lane
/// strip, but each reduction position reads its own row slice.
#[inline]
fn coded_strip<T: Scalar>(crow: &[T], xs: &[&[T]], cs: &mut [T; LANES], j: usize) {
    // A lifted value plus one group's products never needs a fold.
    const { assert!(MAX_TERMS <= T::FOLD_INTERVAL) };
    debug_assert!(crow.len() <= MAX_TERMS && xs.len() == crow.len());
    let mut acc = [T::acc_zero(); LANES];
    per_lane!(L => acc[L] = cs[L].acc_lift());
    for (&aip, xr) in crow.iter().zip(xs) {
        if aip == T::zero() {
            continue;
        }
        let brow: &[T; LANES] = xr[j..j + LANES].try_into().unwrap();
        per_lane!(L => acc[L] = T::mac(acc[L], aip, brow[L]));
    }
    per_lane!(L => cs[L] = T::acc_finish(acc[L]));
}

/// The variable-width remainder strip (`cs.len() < LANES`), same
/// recurrence and term bound as [`coded_strip`].
fn coded_strip_tail<T: Scalar>(crow: &[T], xs: &[&[T]], cs: &mut [T], j: usize) {
    let w = cs.len();
    debug_assert!(w < LANES && crow.len() <= MAX_TERMS && xs.len() == crow.len());
    let mut acc = [T::acc_zero(); LANES];
    for (aj, &cj) in acc.iter_mut().zip(cs.iter()) {
        *aj = cj.acc_lift();
    }
    for (&aip, xr) in crow.iter().zip(xs) {
        if aip == T::zero() {
            continue;
        }
        for (aj, &bj) in acc[..w].iter_mut().zip(&xr[j..j + w]) {
            *aj = T::mac(*aj, aip, bj);
        }
    }
    for (cj, &aj) in cs.iter_mut().zip(acc[..w].iter()) {
        *cj = T::acc_finish(aj);
    }
}

/// Columns `j0..j1` of every output row (and optionally the check row)
/// in one pass over the input rows: on a vector `tier`, with `T` =
/// `F25`, the register tile of [`crate::simd`], all rows of a strip per
/// source load; otherwise the portable strips, row by row. With `load` the
/// rows accumulate on top of what they hold; without, they are written
/// and never read, so they may be uninitialized. Returns the mismatch
/// count of the check row (`0` when `check` is `None`).
///
/// # Safety
///
/// Every pointer in `ptrs` must be valid for writes (and, with `load`,
/// initialized reads) of `j1` elements and exclusively owned for
/// columns `j0..j1` (no two concurrent callers may overlap column
/// ranges on the same rows). Every row in `xs` must hold at least `j1`
/// elements, `coeff` every `r·cstride + col0 + p` for `r < ptrs.len()`,
/// `p < xs.len()`, and the check pair `xs.len()` weights and `j1`
/// expected values.
#[allow(clippy::too_many_arguments)]
unsafe fn coded_block<T: Scalar>(
    tier: Tier,
    coeff: &[T],
    cstride: usize,
    col0: usize,
    xs: &[&[T]],
    ptrs: &[SendPtr<T>],
    (j0, j1): (usize, usize),
    load: bool,
    check: Option<(&[T], &[T])>,
) -> usize {
    let kdim = xs.len();
    // `wrapping_add`: with no output rows `col0` is unconstrained.
    let cp = coeff.as_ptr().wrapping_add(col0);
    // SAFETY: the caller's contract, restated in pointers.
    if let Some(mismatches) = unsafe { simd::coded_block(tier, cp, cstride, xs, ptrs, (j0, j1), load, check) } {
        return mismatches;
    }
    let strip = |crow: &[T], cs: &mut [T; LANES], j: usize, w: usize| match w {
        LANES => coded_strip(crow, xs, cs, j),
        _ => coded_strip_tail(crow, xs, &mut cs[..w], j),
    };
    let mut mismatches = 0usize;
    for j in (j0..j1).step_by(LANES) {
        let w = LANES.min(j1 - j);
        for (r, pr) in ptrs.iter().enumerate() {
            let mut local = [T::zero(); LANES];
            // SAFETY: columns `j..j+w` of row `r` are this caller's, and
            // initialized when `load` asks to read them.
            unsafe {
                if load {
                    std::ptr::copy_nonoverlapping(pr.0.add(j), local.as_mut_ptr(), w);
                }
                strip(&coeff[r * cstride + col0..][..kdim], &mut local, j, w);
                std::ptr::copy_nonoverlapping(local.as_ptr(), pr.0.add(j), w);
            }
        }
        if let Some((cw, expect)) = check {
            let mut pred = [T::zero(); LANES];
            strip(cw, &mut pred, j, w);
            for (pv, &ev) in pred[..w].iter().zip(&expect[j..j + w]) {
                mismatches += usize::from(*pv != ev);
            }
        }
    }
    mismatches
}

/// The one fan-out driver: checks the shape against the bound, gives
/// every output row capacity for `n`, partitions columns across the
/// pool, runs [`coded_block`] over each range and sets the rows to
/// length `n`. Returns the check row's mismatch count (a sum over
/// disjoint column ranges, hence thread-count independent; `0` without
/// a check). `tier` is resolved once per combine by the public entry
/// points; the tests pass each one the host offers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fan_out<T: Scalar, S: AsRef<[T]>>(
    tier: Tier,
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
    check: Option<(&[T], &[T])>,
) -> usize {
    let (kdim, rows) = (x.len(), outs.len());
    assert!(kdim <= MAX_TERMS, "a coded combine takes at most MAX_TERMS input rows");
    assert!(rows <= MAX_ROWS, "a coded combine writes at most MAX_ROWS output rows");
    if let Some(r) = rows.checked_sub(1) {
        assert!(coeff.len() >= r * cstride + col0 + kdim, "coefficient matrix too small");
    }
    if let Some((w, expect)) = check {
        assert_eq!(w.len(), kdim, "check weight length");
        assert_eq!(expect.len(), n, "check row length");
    }
    // Resolve the row slices once; every strip then indexes the table.
    let mut xs: [&[T]; MAX_TERMS] = [&[]; MAX_TERMS];
    for (s, xr) in xs.iter_mut().zip(x) {
        *s = xr.as_ref();
        assert_eq!(s.len(), n, "input row length");
    }
    let xs = &xs[..kdim];
    let mut ptrs = [SendPtr(std::ptr::null_mut::<T>()); MAX_ROWS];
    for (pr, o) in ptrs.iter_mut().zip(outs.iter_mut()) {
        o.clear();
        o.reserve(n);
        *pr = SendPtr(o.as_mut_ptr());
    }
    let ptrs = &ptrs[..rows];
    let macs = (rows + usize::from(check.is_some())).saturating_mul(kdim).saturating_mul(n);
    let (tasks, cols_per) = col_partition(n, LANES, macs);
    let mismatches = if tasks <= 1 {
        // SAFETY: full column range, exclusive access via `outs`, each
        // row reserved for `n` elements above; shapes asserted above.
        unsafe { coded_block(tier, coeff, cstride, col0, xs, ptrs, (0, n), false, check) }
    } else {
        let total = AtomicUsize::new(0);
        threadpool::run_tasks(tasks, &|t| {
            let cols = (t * cols_per, n.min((t + 1) * cols_per));
            // SAFETY: tasks own disjoint LANES-aligned column ranges of
            // rows reserved for `n` elements above.
            let mm = unsafe { coded_block(tier, coeff, cstride, col0, xs, ptrs, cols, false, check) };
            if mm > 0 {
                total.fetch_add(mm, Ordering::Relaxed);
            }
        });
        total.into_inner()
    };
    for o in outs.iter_mut() {
        // SAFETY: the store-mode pass wrote all `n` elements of every
        // row (the column partition covers `0..n` and every strip
        // stores unconditionally), within the reserved capacity.
        unsafe { o.set_len(n) };
    }
    mismatches
}

/// `outs[r][j] = Σ_p coeff[r·cstride + col0 + p] · x[p][j]` for every
/// output row `r` and column `j`, streaming each input row exactly once
/// while all output rows are produced in the same pass. Coefficients
/// for consecutive `p` are contiguous, so a scheme coefficient row
/// needs no gathering. Overwrite semantics with **no pre-zeroing**:
/// prior contents (and lengths) of the output rows are irrelevant —
/// each row is cleared, given capacity for `n`, written entirely by the
/// pass, and set to length `n` (all zero when `x` is empty). Fans
/// output columns across the persistent pool on large shapes —
/// bit-for-bit identical to serial, and to
/// [`crate::reference::naive_coded_combine_acc`] into zeroed rows.
///
/// # Panics
///
/// Panics if `x.len() > MAX_TERMS`, `outs.len() > MAX_ROWS`, an input
/// row's length differs from `n`, or `coeff` is too small.
pub fn coded_combine_write<T: Scalar, S: AsRef<[T]>>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
) {
    fan_out(Tier::best(), coeff, cstride, col0, x, outs, n, None);
}

/// [`coded_combine_write`] with a fused redundant-equation check: the
/// same streaming pass also evaluates `pred[j] = Σ_p check_w[p]·x[p][j]`
/// and counts positions where it differs from `check_against` — the
/// §4.4 integrity verification rides the decode pass, so the worker
/// outputs are read once for both. Returns the mismatch count.
///
/// # Panics
///
/// As [`coded_combine_write`], or if `check_w.len() != x.len()` or
/// `check_against.len() != n`.
#[allow(clippy::too_many_arguments)]
pub fn coded_combine_check_write<T: Scalar, S: AsRef<[T]>>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
    check_w: &[T],
    check_against: &[T],
) -> usize {
    fan_out(Tier::best(), coeff, cstride, col0, x, outs, n, Some((check_w, check_against)))
}

/// Rank-1 column-chunk update:
/// `outs[r][j0 + l] += coeff[r·cstride + col] · chunk[l]` for every
/// output row. This is the noise pass of the fused-RNG encode: a
/// freshly drawn chunk is applied to all encodings while it is still in
/// cache, so the noise row as a whole is never materialized. Serial by
/// design (chunks are cache-sized); rows with a zero coefficient are
/// skipped, which is the identity in every domain (the strip's
/// `acc_finish(acc_lift(v))` round-trip is `v` on canonical values).
///
/// # Panics
///
/// Panics if `outs.len() > MAX_ROWS`, `chunk` does not fit in every
/// output row at `j0`, or `coeff` is too small.
pub fn coded_axpy_acc<T: Scalar>(
    coeff: &[T],
    cstride: usize,
    col: usize,
    chunk: &[T],
    outs: &mut [Vec<T>],
    j0: usize,
) {
    coded_axpy_on(Tier::best(), coeff, cstride, col, chunk, outs, j0);
}

/// [`coded_axpy_acc`] on a given tier, as [`fan_out`].
pub(crate) fn coded_axpy_on<T: Scalar>(
    tier: Tier,
    coeff: &[T],
    cstride: usize,
    col: usize,
    chunk: &[T],
    outs: &mut [Vec<T>],
    j0: usize,
) {
    assert!(outs.len() <= MAX_ROWS, "a coded combine writes at most MAX_ROWS output rows");
    if let Some(rows) = outs.len().checked_sub(1) {
        assert!(coeff.len() > rows * cstride + col, "coefficient matrix too small");
    }
    let mut ptrs = [SendPtr(std::ptr::null_mut::<T>()); MAX_ROWS];
    for (pr, o) in ptrs.iter_mut().zip(outs.iter_mut()) {
        *pr = SendPtr(o[j0..j0 + chunk.len()].as_mut_ptr());
    }
    // SAFETY: every row was just sliced at `j0..j0 + chunk.len()`
    // (initialized, exclusively borrowed through `outs`), the one input
    // row is `chunk` itself and the coefficient column was checked above.
    unsafe {
        coded_block(tier, coeff, cstride, col, &[chunk], &ptrs[..outs.len()], (0, chunk.len()), true, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_coded_combine_acc;
    use dk_field::F25;

    /// Output rows as a recycled pool hands them over: wrong lengths,
    /// stale contents, one with no capacity at all.
    fn stale_rows(rows: usize, n: usize) -> Vec<Vec<F25>> {
        (0..rows)
            .map(|r| match r % 3 {
                0 => vec![F25::new(777); n + 9],
                1 => Vec::new(),
                _ => vec![F25::ONE; 1],
            })
            .collect()
    }

    fn field_rows(kdim: usize, n: usize, mul: usize) -> Vec<Vec<F25>> {
        (0..kdim).map(|p| (0..n).map(|j| F25::new((p * mul + j) as u64 + 1)).collect()).collect()
    }

    #[test]
    fn combine_matches_naive_small() {
        let coeff: Vec<F25> = (0..3 * 4).map(|i| F25::new(i as u64 * 7 + 1)).collect();
        let x = field_rows(4, 21, 5);
        let mut outs = stale_rows(3, 21);
        let mut want = vec![vec![F25::ZERO; 21]; 3];
        coded_combine_write(&coeff, 4, 0, &x, &mut outs, 21);
        naive_coded_combine_acc(&coeff, 4, 0, &x, &mut want);
        assert_eq!(outs, want);
    }

    #[test]
    fn check_counts_exact_mismatches() {
        let n = LANES + 9;
        let coeff: Vec<F25> = (0..2 * 3).map(|i| F25::new(i as u64 * 5 + 1)).collect();
        let w: Vec<F25> = (0..3).map(|i| F25::new(i as u64 + 11)).collect();
        let x = field_rows(3, n, 3);
        let mut pred = vec![vec![F25::ZERO; n]];
        naive_coded_combine_acc(&w, 3, 0, &x, &mut pred);
        let mut expect = pred.pop().unwrap();
        // Clean row: zero mismatches, outputs equal the plain combine.
        let mut outs = stale_rows(2, n);
        assert_eq!(coded_combine_check_write(&coeff, 3, 0, &x, &mut outs, n, &w, &expect), 0);
        let mut want = vec![vec![F25::ZERO; n]; 2];
        naive_coded_combine_acc(&coeff, 3, 0, &x, &mut want);
        assert_eq!(outs, want);
        // Corrupt three positions (one in the tail): exactly 3 mismatches.
        expect[0] += F25::ONE;
        expect[LANES - 1] += F25::ONE;
        expect[n - 1] += F25::ONE;
        assert_eq!(coded_combine_check_write(&coeff, 3, 0, &x, &mut outs, n, &w, &expect), 3);
        assert_eq!(outs, want);
    }

    #[test]
    fn axpy_matches_combine_pass() {
        let n = 3 * LANES + 4;
        let kdim = 5;
        let coeff: Vec<F25> = (0..4 * kdim).map(|i| F25::new(i as u64 * 3 + 1)).collect();
        let noise: Vec<F25> = (0..n).map(|j| F25::new(j as u64 * 7 + 2)).collect();
        // Applying the noise row as one reference pass...
        let mut want = vec![vec![F25::new(5); n]; 4];
        let mut outs = want.clone();
        naive_coded_combine_acc(&coeff, kdim, 2, std::slice::from_ref(&noise), &mut want);
        // ...must equal applying it in uneven column chunks.
        let mut j0 = 0;
        for (i, step) in [7usize, LANES, 2 * LANES + 3, n].iter().enumerate() {
            let j1 = n.min(j0 + step + i);
            coded_axpy_acc(&coeff, kdim, 2, &noise[j0..j1], &mut outs, j0);
            j0 = j1;
        }
        assert_eq!(outs, want);
    }

    #[test]
    fn degenerate_shapes() {
        let coeff = vec![F25::ONE; 4];
        let mut none: [Vec<F25>; 0] = [];
        // n == 0 leaves empty rows, whatever they held.
        let mut outs = stale_rows(2, 4);
        coded_combine_write(&coeff, 2, 0, &[&[][..], &[]], &mut outs, 0);
        assert!(outs.iter().all(Vec::is_empty));
        let x0: [&[F25]; 1] = [&[]];
        assert_eq!(coded_combine_check_write(&coeff, 2, 0, &x0, &mut none, 0, &[F25::ONE], &[]), 0);
        // No input rows: length-n rows of zeros, and the predicted row
        // is zero too.
        let empty: [&[F25]; 0] = [];
        let mut outs = stale_rows(2, 4);
        coded_combine_write(&coeff, 2, 0, &empty, &mut outs, 4);
        assert_eq!(outs, vec![vec![F25::ZERO; 4]; 2]);
        let against = [F25::ZERO, F25::ONE, F25::ZERO];
        assert_eq!(coded_combine_check_write(&coeff, 2, 0, &empty, &mut outs, 3, &[], &against), 1);
        // No output rows.
        let x = [&[F25::ONE][..]];
        coded_combine_write(&coeff, 2, 0, &x, &mut none, 1);
        // n == 1 exercises the pure-tail path.
        let mut one = stale_rows(1, 1);
        coded_combine_write(&[F25::new(3)], 1, 0, &x, &mut one, 1);
        assert_eq!(one, vec![vec![F25::new(3)]]);
        coded_axpy_acc(&[F25::new(2)], 1, 0, &[F25::new(5)], &mut one, 0);
        assert_eq!(one[0][0], F25::new(13));
    }

    #[test]
    fn write_mode_matches_acc_from_zero() {
        // Output rows arrive with garbage lengths and contents (even
        // length 0 with stale capacity): the write pass must produce
        // exactly what accumulating into zeroed rows would, at the full
        // register group.
        let kdim = MAX_TERMS;
        let n = 2 * LANES + 3;
        let coeff: Vec<F25> = (0..3 * kdim).map(|i| F25::new(i as u64 * 13 + 1)).collect();
        let x = field_rows(kdim, n, 7);
        let mut want = vec![vec![F25::ZERO; n]; 3];
        naive_coded_combine_acc(&coeff, kdim, 0, &x, &mut want);
        let mut outs = vec![vec![F25::new(777); n + 9], Vec::with_capacity(n), vec![F25::ONE; 1]];
        coded_combine_write(&coeff, kdim, 0, &x, &mut outs, n);
        assert_eq!(outs, want);
    }

    #[test]
    fn check_write_ignores_stale_rows() {
        let n = 2 * LANES + 6;
        let kdim = 4;
        let coeff: Vec<F25> = (0..3 * kdim).map(|i| F25::new(i as u64 * 9 + 2)).collect();
        let w: Vec<F25> = (0..kdim).map(|i| F25::new(i as u64 + 5)).collect();
        let x = field_rows(kdim, n, 5);
        let mut expect = vec![vec![F25::ZERO; n]];
        naive_coded_combine_acc(&w, kdim, 0, &x, &mut expect);
        let mut expect = expect.pop().unwrap();
        expect[3] += F25::ONE;
        expect[n - 1] += F25::ONE;
        // The fused check changes nothing about the rows written.
        let mut want = stale_rows(3, n);
        coded_combine_write(&coeff, kdim, 0, &x, &mut want, n);
        let mut outs = vec![vec![F25::new(5); 1], Vec::new(), vec![F25::new(8); n + 4]];
        let mm = coded_combine_check_write(&coeff, kdim, 0, &x, &mut outs, n, &w, &expect);
        assert_eq!((mm, outs), (2, want));
    }

    #[test]
    fn tile_matches_reference_on_every_tier() {
        // Term counts up to the register group, output rows around the
        // tile heights (with and without the check row riding last),
        // widths around the strip and past the fan-out threshold; rows
        // arrive stale, the check row with two corrupted positions.
        let mut rng = dk_field::FieldRng::seed_from(0xc0de);
        for kdim in [0usize, 1, 3, 7, MAX_TERMS] {
            for rows in [0usize, 1, 4, 7, 8, 9, 17, MAX_ROWS] {
                for n in [0usize, 1, 15, 16, 17, 48, 1000, 20_000] {
                    if n == 20_000 && (kdim, rows) != (7, 7) {
                        continue;
                    }
                    let (cstride, col0) = (kdim + 3, 2);
                    let coeff = rng.uniform_vec(rows * cstride + col0);
                    let w = rng.uniform_vec(kdim);
                    let x: Vec<Vec<F25>> = (0..kdim).map(|_| rng.uniform_vec(n)).collect();
                    let mut want = vec![vec![F25::ZERO; n]; rows];
                    naive_coded_combine_acc(&coeff, cstride, col0, &x, &mut want);
                    let mut expect = vec![vec![F25::ZERO; n]];
                    naive_coded_combine_acc(&w, kdim, 0, &x, &mut expect);
                    let mut expect = expect.pop().unwrap();
                    for j in [0, n.saturating_sub(1)].into_iter().take(n) {
                        expect[j] += F25::ONE;
                    }
                    for tier in Tier::offered() {
                        let mut outs = stale_rows(rows, n);
                        fan_out(tier, &coeff, cstride, col0, &x, &mut outs, n, None);
                        assert_eq!(outs, want, "{tier:?} {rows}x{kdim}x{n}");
                        let mut outs = stale_rows(rows, n);
                        let check = Some((&w[..], &expect[..]));
                        let mm = fan_out(tier, &coeff, cstride, col0, &x, &mut outs, n, check);
                        assert_eq!((mm, &outs), (n.min(2), &want), "{tier:?} check {rows}x{kdim}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_holds_the_worst_case_group_and_the_axpy_on_every_tier() {
        let top = F25::new(dk_field::P25 - 1);
        let mut rng = dk_field::FieldRng::seed_from(0xa9);
        for tier in Tier::offered() {
            // A full register group of (P−1)·(P−1) products per lane.
            let n = 2 * LANES + 5;
            let x = vec![vec![top; n]; MAX_TERMS];
            let coeff = vec![top; 9 * MAX_TERMS];
            let mut want = vec![vec![F25::ZERO; n]; 9];
            naive_coded_combine_acc(&coeff, MAX_TERMS, 0, &x, &mut want);
            let mut outs = stale_rows(9, n);
            fan_out(tier, &coeff, MAX_TERMS, 0, &x, &mut outs, n, None);
            assert_eq!(outs, want, "{tier:?} worst case");
            // The rank-1 update accumulates: uneven chunks at uneven
            // offsets on top of what the rows hold, zero coefficients
            // included.
            for rows in [1usize, 8, 9, MAX_ROWS] {
                let mut coeff = rng.uniform_vec(rows * 3);
                coeff[1] = F25::ZERO;
                let noise = rng.uniform_vec(n);
                let mut want: Vec<Vec<F25>> = (0..rows).map(|_| rng.uniform_vec(n)).collect();
                let mut outs = want.clone();
                naive_coded_combine_acc(&coeff, 3, 1, std::slice::from_ref(&noise), &mut want);
                for (j0, j1) in [(0, 7), (7, 7), (7, 7 + LANES), (7 + LANES, n)] {
                    coded_axpy_on(tier, &coeff, 3, 1, &noise[j0..j1], &mut outs, j0);
                }
                assert_eq!(outs, want, "{tier:?} axpy {rows} rows");
            }
        }
    }

    #[test]
    fn combine_matches_naive_floats() {
        // Float domain: the strip recurrence must reproduce the naive
        // order exactly, into rows whose contents it never reads.
        let kdim = MAX_TERMS;
        let n = LANES + 7;
        let coeff: Vec<f32> = (0..2 * kdim).map(|i| i as f32 * 0.25 - 3.0).collect();
        let x: Vec<Vec<f32>> = (0..kdim)
            .map(|p| (0..n).map(|j| ((p * n + j) % 13) as f32 * 0.5 - 2.0).collect())
            .collect();
        let mut outs = vec![vec![f32::NAN; 2], Vec::new()];
        let mut want = vec![vec![0.0f32; n]; 2];
        coded_combine_write(&coeff, kdim, 0, &x, &mut outs, n);
        naive_coded_combine_acc(&coeff, kdim, 0, &x, &mut want);
        assert_eq!(outs, want);
    }
}
