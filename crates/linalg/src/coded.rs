//! Streaming kernels for the coding shapes: a small `(k+m) × S`
//! coefficient matrix against `S` stacked rows of enormous `n`.
//!
//! The generic blocked matmuls tile for square-ish operands, which is
//! exactly wrong here: encoding/decoding a virtual batch multiplies a
//! handful of coefficient rows (the whole matrix fits in registers)
//! against megabyte-scale data rows, so a row-at-a-time matmul re-reads
//! the huge operand once **per output row** and the stacking copy the
//! flat layout needs re-touches it again. The `coded_combine` family
//! instead streams each column chunk of the input rows exactly once and
//! accumulates **all** output rows in that single pass:
//!
//! * inputs stay as separate row vectors (`AsRef<[T]>`) — no stacking
//!   copy, no flat `(k+m)·n` buffer;
//! * the reduction dimension is register-grouped at [`PGROUP`]
//!   positions, and the inner loop is the PR-8 [`LANES`]-wide
//!   accumulator strip (AVX2 `vpmuludq`/`vpaddq` for `F25`, the
//!   autovectorized portable strip otherwise) with the delayed
//!   Barrett-fold schedule;
//! * a redundant-equation check ([`coded_combine_check_acc`]) can ride
//!   the same pass: the §4.4 integrity dot-product reads the worker
//!   outputs while they are hot instead of in a second sweep;
//! * [`coded_axpy_acc`] is the rank-1 update the fused-RNG encode
//!   streams freshly drawn noise chunks through;
//! * the `_write` variants ([`coded_combine_write`],
//!   [`coded_combine_check_write`]) overwrite instead of accumulating:
//!   the first reduction group runs store-mode strips whose
//!   accumulators start at zero and whose finished lanes go straight
//!   to the destination, so recycled output buffers need no `memset`
//!   and are never read — on the memory-bound coding shapes that
//!   roughly halves the traffic.
//!   `acc_lift(0) = 0` exactly in both domains, so the results are
//!   bit-identical to accumulating into zeroed rows.
//!
//! Threading partitions output **columns** (row partitioning cannot
//! split `k+m` rows): every task runs the identical per-element
//! recurrence over a disjoint [`LANES`]-aligned column range, so
//! results are bit-for-bit independent of the thread count in both
//! domains — columns never share an accumulator. Splitting the
//! reduction at [`PGROUP`] boundaries is equally invisible: the
//! intermediate `acc_finish`/`acc_lift` round-trip is the identity on
//! canonical values (exact in a field, a no-op for floats), so each
//! element still sees the single ascending-`p` reference recurrence of
//! [`crate::reference::naive_coded_combine_acc`].

use crate::matmul::{per_lane, LANES};
use crate::scalar::Scalar;
use crate::threadpool::{self, SendPtr};
use crate::threads::col_partition;

/// Reduction positions per register group: the coefficient sub-row and
/// the row-slice table both stay on the stack, and (for `F25`) the
/// whole group's products fit one unreduced accumulator.
const PGROUP: usize = 16;

/// Output rows per fan-out batch: bounds the stack array of row
/// pointers shared with the pool. Coding shapes use `k+m+1` rows, far
/// below this; larger row counts are processed in batches.
const MAX_FAN_ROWS: usize = 32;

/// Maximum reduction length (`x.len()`) the fused-check entry points
/// accept: one register group, so the predicted row is complete in the
/// same pass that produces the outputs.
pub const CHECK_MAX_KDIM: usize = PGROUP;

/// Maximum output-row count the fused-check entry points accept.
pub const CHECK_MAX_ROWS: usize = MAX_FAN_ROWS;

/// One full-width strip: `cs[l] += Σ_p crow[p] · xs[p][j+l]`. Same
/// structure as the matmul lane strip, but each reduction position
/// reads its own row slice.
#[inline]
fn coded_strip<T: Scalar>(crow: &[T], xs: &[&[T]], cs: &mut [T; LANES], j: usize) {
    if crate::simd::try_f25_coded_strip(crow, xs, cs, j) {
        return;
    }
    let kdim = crow.len();
    debug_assert_eq!(xs.len(), kdim);
    let mut acc = [T::acc_zero(); LANES];
    per_lane!(L => acc[L] = cs[L].acc_lift());
    let mut p0 = 0;
    while p0 < kdim {
        let pend = kdim.min(p0.saturating_add(T::FOLD_INTERVAL));
        for p in p0..pend {
            let aip = crow[p];
            if aip == T::zero() {
                continue;
            }
            let brow: &[T; LANES] = xs[p][j..j + LANES].try_into().unwrap();
            per_lane!(L => acc[L] = T::mac(acc[L], aip, brow[L]));
        }
        p0 = pend;
        if p0 < kdim {
            per_lane!(L => acc[L] = T::acc_fold(acc[L]));
        }
    }
    per_lane!(L => cs[L] = T::acc_finish(acc[L]));
}

/// Store-mode full-width strip: `out[l] = Σ_p crow[p] · xs[p][j+l]`
/// written straight through `out` without ever reading it. The
/// accumulators start from the canonical lift of zero, which is
/// exactly what accumulating into a zeroed strip produces — so this is
/// bit-identical to [`coded_strip`] on zeroed lanes, minus the
/// destination read and the zeroing traffic.
///
/// # Safety
///
/// `out` must be valid for `LANES` writes and every row in `xs` must
/// hold at least `j + LANES` elements.
#[inline]
unsafe fn coded_strip_store<T: Scalar>(crow: &[T], xs: &[&[T]], out: *mut T, j: usize) {
    // SAFETY: forwarded caller contract.
    if unsafe { crate::simd::try_f25_coded_strip_store(crow, xs, out, j) } {
        return;
    }
    let mut local = [T::zero(); LANES];
    coded_strip(crow, xs, &mut local, j);
    // SAFETY: `out` is valid for `LANES` writes; plain stores.
    unsafe { std::ptr::copy_nonoverlapping(local.as_ptr(), out, LANES) };
}

/// The variable-width remainder strip (`cs.len() < LANES`).
fn coded_strip_tail<T: Scalar>(crow: &[T], xs: &[&[T]], cs: &mut [T], j: usize) {
    let kdim = crow.len();
    let w = cs.len();
    debug_assert!(w < LANES);
    let mut acc = [T::acc_zero(); LANES];
    for (aj, &cj) in acc.iter_mut().zip(cs.iter()) {
        *aj = cj.acc_lift();
    }
    let mut p0 = 0;
    while p0 < kdim {
        let pend = kdim.min(p0.saturating_add(T::FOLD_INTERVAL));
        for p in p0..pend {
            let aip = crow[p];
            if aip == T::zero() {
                continue;
            }
            let brow = &xs[p][j..j + w];
            for (aj, &bj) in acc[..w].iter_mut().zip(brow) {
                *aj = T::mac(*aj, aip, bj);
            }
        }
        p0 = pend;
        if p0 < kdim {
            for aj in acc[..w].iter_mut() {
                *aj = T::acc_fold(*aj);
            }
        }
    }
    for (cj, &aj) in cs.iter_mut().zip(acc[..w].iter()) {
        *cj = T::acc_finish(aj);
    }
}

/// Streams columns `j0..j1` of every output row (and optionally the
/// check row) in one pass over the input rows, [`PGROUP`] reduction
/// positions at a time. Returns the mismatch count of the check row
/// (`0` when `check` is `None`).
///
/// # Safety
///
/// Every pointer in `ptrs` must reference an initialized row of at
/// least `j1` elements, exclusively owned for columns `j0..j1` (no two
/// concurrent callers may overlap column ranges on the same rows).
#[allow(clippy::too_many_arguments)]
unsafe fn coded_block<T: Scalar, S: AsRef<[T]>>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    ptrs: &[SendPtr<T>],
    j0: usize,
    j1: usize,
    check: Option<(&[T], &[T])>,
    init: bool,
) -> usize {
    let kdim = x.len();
    debug_assert!(kdim > 0);
    debug_assert!(check.is_none() || kdim <= PGROUP);
    let mut mismatches = 0usize;
    let mut p0 = 0;
    while p0 < kdim {
        let pw = (kdim - p0).min(PGROUP);
        // In write mode the first reduction group computes each strip
        // into a zeroed stack-local and raw-copies it out: `acc_lift`
        // of zero is zero exactly in every domain, so this is
        // bit-identical to accumulating into zeroed rows — without ever
        // reading the destination, which may be recycled pool capacity
        // that was never initialized.
        let store = init && p0 == 0;
        // Resolve the group's row slices once; the column loop then
        // streams every slice exactly once.
        let mut xs: [&[T]; PGROUP] = [&[]; PGROUP];
        for (s, xr) in xs.iter_mut().zip(&x[p0..p0 + pw]) {
            *s = xr.as_ref();
        }
        let xs = &xs[..pw];
        let mut j = j0;
        while j + LANES <= j1 {
            for (r, pr) in ptrs.iter().enumerate() {
                let base = r * cstride + col0 + p0;
                if store {
                    // SAFETY: disjoint column range per the caller
                    // contract; the strip writes all `LANES` lanes and
                    // never reads the destination.
                    unsafe { coded_strip_store(&coeff[base..base + pw], xs, pr.0.add(j), j) };
                } else {
                    // SAFETY: disjoint column range per the caller contract.
                    let cs = unsafe { &mut *(pr.0.add(j) as *mut [T; LANES]) };
                    coded_strip(&coeff[base..base + pw], xs, cs, j);
                }
            }
            if let Some((w, expect)) = check {
                // A checked combine is always a single reduction group
                // (`kdim <= PGROUP`), so the prediction is a complete
                // from-zero strip: store mode applies.
                let mut pred = [T::zero(); LANES];
                // SAFETY: `pred` is a local array of `LANES` lanes.
                unsafe { coded_strip_store(&w[p0..p0 + pw], xs, pred.as_mut_ptr(), j) };
                for (pv, &ev) in pred.iter().zip(&expect[j..j + LANES]) {
                    mismatches += usize::from(*pv != ev);
                }
            }
            j += LANES;
        }
        if j < j1 {
            let wdt = j1 - j;
            for (r, pr) in ptrs.iter().enumerate() {
                let base = r * cstride + col0 + p0;
                if store {
                    let mut local = [T::zero(); LANES];
                    coded_strip_tail(&coeff[base..base + pw], xs, &mut local[..wdt], j);
                    // SAFETY: as above; the tail never crosses `j1`.
                    unsafe { std::ptr::copy_nonoverlapping(local.as_ptr(), pr.0.add(j), wdt) };
                } else {
                    // SAFETY: as above; the tail never crosses `j1`.
                    let cs = unsafe { std::slice::from_raw_parts_mut(pr.0.add(j), wdt) };
                    coded_strip_tail(&coeff[base..base + pw], xs, cs, j);
                }
            }
            if let Some((w, expect)) = check {
                let mut pred = [T::zero(); LANES];
                coded_strip_tail(&w[p0..p0 + pw], xs, &mut pred[..wdt], j);
                for (pv, &ev) in pred[..wdt].iter().zip(&expect[j..j1]) {
                    mismatches += usize::from(*pv != ev);
                }
            }
        }
        p0 += pw;
    }
    mismatches
}

fn check_shapes<T: Scalar, S: AsRef<[T]>>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &[Vec<T>],
    n: usize,
) {
    for xr in x {
        assert_eq!(xr.as_ref().len(), n, "input row length");
    }
    for o in outs {
        assert_eq!(o.len(), n, "output row length");
    }
    if let Some(rows) = outs.len().checked_sub(1) {
        assert!(
            coeff.len() >= rows * cstride + col0 + x.len(),
            "coefficient matrix too small"
        );
    }
}

/// `outs[r][j] += Σ_p coeff[r·cstride + col0 + p] · x[p][j]` for every
/// output row `r` and column `j`, streaming each input row exactly once
/// (per [`PGROUP`] group) while all output rows accumulate in the same
/// pass. Coefficients for consecutive `p` are contiguous, so a scheme
/// coefficient row needs no gathering. Fans output columns across the
/// persistent pool on large shapes — bit-for-bit identical to serial.
///
/// # Panics
///
/// Panics if row lengths differ from `n` or `coeff` is too small.
pub fn coded_combine_acc<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
) {
    check_shapes(coeff, cstride, col0, x, outs, n);
    let (kdim, rows) = (x.len(), outs.len());
    if rows == 0 || kdim == 0 || n == 0 {
        return;
    }
    combine_driver(coeff, cstride, col0, x, outs, n, false);
}

/// [`coded_combine_acc`] with overwrite semantics and **no
/// pre-zeroing**: prior contents (and lengths) of the output rows are
/// irrelevant — each row is cleared, given capacity for `n`, written
/// entirely by the streaming pass, and set to length `n`. The first
/// reduction group stores instead of accumulating, which on the coding
/// shapes (`k+m ≤ 16`, one group) means every output byte is touched
/// exactly once per call — no `memset` and no read-back of zeroes.
/// Bit-identical to [`coded_combine_acc`] on zeroed rows.
///
/// # Panics
///
/// Panics if input row lengths differ from `n` or `coeff` is too small.
pub fn coded_combine_write<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
) {
    for xr in x {
        assert_eq!(xr.as_ref().len(), n, "input row length");
    }
    let (kdim, rows) = (x.len(), outs.len());
    if let Some(r) = rows.checked_sub(1) {
        assert!(coeff.len() >= r * cstride + col0 + kdim, "coefficient matrix too small");
    }
    if rows == 0 {
        return;
    }
    if kdim == 0 || n == 0 {
        for o in outs.iter_mut() {
            o.clear();
            o.resize(n, T::zero());
        }
        return;
    }
    for o in outs.iter_mut() {
        o.clear();
        o.reserve(n);
    }
    combine_driver(coeff, cstride, col0, x, outs, n, true);
    for o in outs.iter_mut() {
        // SAFETY: the write-mode pass stored all `n` elements of every
        // row (the column partition covers `0..n` and the first group
        // stores unconditionally), within the reserved capacity.
        unsafe { o.set_len(n) };
    }
}

/// Shared fan-out driver: batches rows at [`MAX_FAN_ROWS`], partitions
/// columns across the pool, dispatches [`coded_block`].
fn combine_driver<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
    init: bool,
) {
    let (kdim, rows) = (x.len(), outs.len());
    let macs = rows.saturating_mul(kdim).saturating_mul(n);
    let (tasks, cols_per) = col_partition(n, LANES, macs);
    let mut done = 0;
    while done < rows {
        let take = (rows - done).min(MAX_FAN_ROWS);
        let mut ptrs = [SendPtr(std::ptr::null_mut::<T>()); MAX_FAN_ROWS];
        for (pr, o) in ptrs.iter_mut().zip(outs[done..done + take].iter_mut()) {
            *pr = SendPtr(o.as_mut_ptr());
        }
        let ptrs = &ptrs[..take];
        let cbase = &coeff[done * cstride..];
        if tasks <= 1 {
            // SAFETY: full column range, exclusive access via `outs`.
            unsafe { coded_block(cbase, cstride, col0, x, ptrs, 0, n, None, init) };
        } else {
            threadpool::run_tasks(tasks, &|t| {
                let j0 = t * cols_per;
                let j1 = n.min(j0 + cols_per);
                // SAFETY: tasks own disjoint LANES-aligned column ranges.
                unsafe { coded_block(cbase, cstride, col0, x, ptrs, j0, j1, None, init) };
            });
        }
        done += take;
    }
}

/// [`coded_combine_acc`] into freshly zeroed outputs (overwrite
/// semantics on rows that already have length `n`).
pub fn coded_combine_into<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
) {
    for o in outs.iter_mut() {
        for v in o.iter_mut() {
            *v = T::zero();
        }
    }
    coded_combine_acc(coeff, cstride, col0, x, outs, n);
}

/// [`coded_combine_acc`] with a fused redundant-equation check: the
/// same streaming pass also evaluates `pred[j] = Σ_p check_w[p]·x[p][j]`
/// and counts positions where it differs from `check_against` — the
/// §4.4 integrity verification rides the decode pass, so the worker
/// outputs are read once for both. Returns the mismatch count (a sum
/// over disjoint column ranges, hence thread-count independent).
///
/// # Panics
///
/// Panics on shape mismatches, `x.len() > CHECK_MAX_KDIM` (the check
/// row must complete within one register group), or
/// `outs.len() > CHECK_MAX_ROWS`.
#[allow(clippy::too_many_arguments)]
pub fn coded_combine_check_acc<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
    check_w: &[T],
    check_against: &[T],
) -> usize {
    check_shapes(coeff, cstride, col0, x, outs, n);
    check_driver(coeff, cstride, col0, x, outs, n, check_w, check_against, false)
}

/// [`coded_combine_check_acc`] with the no-pre-zeroing overwrite
/// semantics of [`coded_combine_write`]: output rows are cleared,
/// written entirely by the fused pass, and set to length `n`.
/// Bit-identical results and mismatch count.
///
/// # Panics
///
/// As [`coded_combine_check_acc`], with no requirement on the output
/// rows' prior lengths.
#[allow(clippy::too_many_arguments)]
pub fn coded_combine_check_write<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
    check_w: &[T],
    check_against: &[T],
) -> usize {
    for xr in x {
        assert_eq!(xr.as_ref().len(), n, "input row length");
    }
    if let Some(r) = outs.len().checked_sub(1) {
        assert!(coeff.len() >= r * cstride + col0 + x.len(), "coefficient matrix too small");
    }
    if n == 0 {
        for o in outs.iter_mut() {
            o.clear();
        }
    } else {
        for o in outs.iter_mut() {
            o.clear();
            o.reserve(n);
        }
    }
    let mm = check_driver(coeff, cstride, col0, x, outs, n, check_w, check_against, true);
    for o in outs.iter_mut() {
        // SAFETY: the write-mode pass stored all `n` elements of every
        // row (single reduction group — `kdim ≤ PGROUP` — storing
        // unconditionally over the full column partition).
        unsafe { o.set_len(n) };
    }
    mm
}

#[allow(clippy::too_many_arguments)]
fn check_driver<T: Scalar, S: AsRef<[T]> + Sync>(
    coeff: &[T],
    cstride: usize,
    col0: usize,
    x: &[S],
    outs: &mut [Vec<T>],
    n: usize,
    check_w: &[T],
    check_against: &[T],
    init: bool,
) -> usize {
    let (kdim, rows) = (x.len(), outs.len());
    assert!((1..=CHECK_MAX_KDIM).contains(&kdim), "check needs 1..=CHECK_MAX_KDIM inputs");
    assert!(rows <= CHECK_MAX_ROWS, "too many output rows for fused check");
    assert_eq!(check_w.len(), kdim, "check weight length");
    assert_eq!(check_against.len(), n, "check row length");
    if n == 0 {
        return 0;
    }
    let macs = (rows + 1).saturating_mul(kdim).saturating_mul(n);
    let (tasks, cols_per) = col_partition(n, LANES, macs);
    let mut ptrs = [SendPtr(std::ptr::null_mut::<T>()); MAX_FAN_ROWS];
    for (pr, o) in ptrs.iter_mut().zip(outs.iter_mut()) {
        *pr = SendPtr(o.as_mut_ptr());
    }
    let ptrs = &ptrs[..rows];
    let check = Some((check_w, check_against));
    if tasks <= 1 {
        // SAFETY: full column range, exclusive access via `outs`.
        return unsafe { coded_block(coeff, cstride, col0, x, ptrs, 0, n, check, init) };
    }
    let total = std::sync::atomic::AtomicUsize::new(0);
    threadpool::run_tasks(tasks, &|t| {
        let j0 = t * cols_per;
        let j1 = n.min(j0 + cols_per);
        // SAFETY: tasks own disjoint LANES-aligned column ranges.
        let mm = unsafe { coded_block(coeff, cstride, col0, x, ptrs, j0, j1, check, init) };
        if mm > 0 {
            total.fetch_add(mm, std::sync::atomic::Ordering::Relaxed);
        }
    });
    total.into_inner()
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
/// Panics if `chunk` does not fit in every output row at `j0` or
/// `coeff` is too small.
pub fn coded_axpy_acc<T: Scalar>(
    coeff: &[T],
    cstride: usize,
    col: usize,
    chunk: &[T],
    outs: &mut [Vec<T>],
    j0: usize,
) {
    let w = chunk.len();
    if let Some(rows) = outs.len().checked_sub(1) {
        assert!(coeff.len() > rows * cstride + col, "coefficient matrix too small");
    }
    if w == 0 {
        return;
    }
    let xs: [&[T]; 1] = [chunk];
    for (r, out) in outs.iter_mut().enumerate() {
        let cval = [coeff[r * cstride + col]];
        if cval[0] == T::zero() {
            continue;
        }
        let dst = &mut out[j0..j0 + w];
        let mut l = 0;
        while l + LANES <= w {
            let cs: &mut [T; LANES] = (&mut dst[l..l + LANES]).try_into().unwrap();
            coded_strip(&cval, &xs, cs, l);
            l += LANES;
        }
        if l < w {
            coded_strip_tail(&cval, &xs, &mut dst[l..], l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_coded_combine_acc;
    use dk_field::F25;

    fn rows_of(vals: &[Vec<u64>]) -> Vec<Vec<F25>> {
        vals.iter().map(|r| r.iter().map(|&v| F25::new(v)).collect()).collect()
    }

    #[test]
    fn combine_matches_naive_small() {
        let coeff: Vec<F25> = (0..3 * 4).map(|i| F25::new(i as u64 * 7 + 1)).collect();
        let x = rows_of(&[
            (0..21).map(|i| i * 3 + 1).collect(),
            (0..21).map(|i| i * 5 + 2).collect(),
            (0..21).map(|i| i * 11 + 3).collect(),
            (0..21).map(|i| i * 13 + 4).collect(),
        ]);
        let mut outs = vec![vec![F25::ZERO; 21]; 3];
        let mut want = outs.clone();
        coded_combine_acc(&coeff, 4, 0, &x, &mut outs, 21);
        naive_coded_combine_acc(&coeff, 4, 0, &x, &mut want);
        assert_eq!(outs, want);
    }

    #[test]
    fn combine_crosses_pgroup_boundary() {
        // kdim > PGROUP forces multiple register groups; the canonical
        // finish/lift round-trip between groups must be invisible.
        let kdim = PGROUP + 7;
        let n = 2 * LANES + 5;
        let coeff: Vec<F25> = (0..2 * kdim).map(|i| F25::new(i as u64 * 17 + 2)).collect();
        let x: Vec<Vec<F25>> =
            (0..kdim).map(|p| (0..n).map(|j| F25::new((p * n + j) as u64 + 1)).collect()).collect();
        let mut outs = vec![vec![F25::ZERO; n]; 2];
        let mut want = outs.clone();
        coded_combine_acc(&coeff, kdim, 0, &x, &mut outs, n);
        naive_coded_combine_acc(&coeff, kdim, 0, &x, &mut want);
        assert_eq!(outs, want);
    }

    #[test]
    fn combine_accumulates_and_into_overwrites() {
        let coeff: Vec<F25> = (0..2 * 2).map(|i| F25::new(i as u64 + 3)).collect();
        let x = rows_of(&[vec![1, 2, 3], vec![4, 5, 6]]);
        let mut acc = vec![vec![F25::new(100); 3], vec![F25::new(200); 3]];
        let mut want = acc.clone();
        coded_combine_acc(&coeff, 2, 0, &x, &mut acc, 3);
        naive_coded_combine_acc(&coeff, 2, 0, &x, &mut want);
        assert_eq!(acc, want);
        let mut stale = vec![vec![F25::new(999); 3], vec![F25::new(999); 3]];
        coded_combine_into(&coeff, 2, 0, &x, &mut stale, 3);
        let mut fresh = vec![vec![F25::ZERO; 3]; 2];
        naive_coded_combine_acc(&coeff, 2, 0, &x, &mut fresh);
        assert_eq!(stale, fresh);
    }

    #[test]
    fn check_counts_exact_mismatches() {
        let n = LANES + 9;
        let coeff: Vec<F25> = (0..2 * 3).map(|i| F25::new(i as u64 * 5 + 1)).collect();
        let w: Vec<F25> = (0..3).map(|i| F25::new(i as u64 + 11)).collect();
        let x: Vec<Vec<F25>> =
            (0..3).map(|p| (0..n).map(|j| F25::new((p + j * 3) as u64 + 1)).collect()).collect();
        let mut pred = vec![vec![F25::ZERO; n]];
        naive_coded_combine_acc(&w, 3, 0, &x, &mut pred);
        let mut expect = pred.pop().unwrap();
        // Clean row: zero mismatches, outputs equal the plain combine.
        let mut outs = vec![vec![F25::ZERO; n]; 2];
        assert_eq!(coded_combine_check_acc(&coeff, 3, 0, &x, &mut outs, n, &w, &expect), 0);
        let mut want = vec![vec![F25::ZERO; n]; 2];
        naive_coded_combine_acc(&coeff, 3, 0, &x, &mut want);
        assert_eq!(outs, want);
        // Corrupt three positions (one in the tail): exactly 3 mismatches.
        expect[0] += F25::ONE;
        expect[LANES - 1] += F25::ONE;
        expect[n - 1] += F25::ONE;
        let mut outs = vec![vec![F25::ZERO; n]; 2];
        assert_eq!(coded_combine_check_acc(&coeff, 3, 0, &x, &mut outs, n, &w, &expect), 3);
    }

    #[test]
    fn axpy_matches_combine_pass() {
        let n = 3 * LANES + 4;
        let kdim = 5;
        let coeff: Vec<F25> = (0..4 * kdim).map(|i| F25::new(i as u64 * 3 + 1)).collect();
        let noise: Vec<F25> = (0..n).map(|j| F25::new(j as u64 * 7 + 2)).collect();
        // Applying the noise row as one combine pass...
        let mut want = vec![vec![F25::new(5); n]; 4];
        let mut outs = want.clone();
        coded_combine_acc(&coeff, kdim, 2, std::slice::from_ref(&noise), &mut want, n);
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
        // n == 0
        let mut outs: Vec<Vec<F25>> = vec![Vec::new(); 2];
        coded_combine_acc(&coeff, 2, 0, &[&[][..], &[]], &mut outs, 0);
        assert!(outs.iter().all(Vec::is_empty));
        let x0: [&[F25]; 1] = [&[]];
        assert_eq!(coded_combine_check_acc(&coeff, 2, 0, &x0, &mut none, 0, &[F25::ONE], &[]), 0);
        // no input rows / no output rows
        let empty: &[&[F25]] = &[];
        coded_combine_acc(&coeff, 2, 0, empty, &mut outs, 0);
        let x = [&[F25::ONE][..]];
        coded_combine_acc(&coeff, 2, 0, &x, &mut none, 1);
        // n == 1 exercises the pure-tail path.
        let mut one = vec![vec![F25::new(9)]];
        coded_combine_acc(&[F25::new(3)], 1, 0, &x, &mut one, 1);
        assert_eq!(one[0][0], F25::new(12));
        coded_axpy_acc(&[F25::new(2)], 1, 0, &[F25::new(5)], &mut one, 0);
        assert_eq!(one[0][0], F25::new(22));
    }

    #[test]
    fn write_mode_matches_acc_from_zero() {
        // Output rows arrive with garbage lengths and contents (even
        // length 0 with stale capacity): the write pass must produce
        // exactly what accumulating into zeroed rows would.
        let kdim = PGROUP + 5; // crosses into an accumulating group
        let n = 2 * LANES + 3;
        let coeff: Vec<F25> = (0..3 * kdim).map(|i| F25::new(i as u64 * 13 + 1)).collect();
        let x: Vec<Vec<F25>> =
            (0..kdim).map(|p| (0..n).map(|j| F25::new((p * 7 + j) as u64 + 1)).collect()).collect();
        let mut want = vec![vec![F25::ZERO; n]; 3];
        coded_combine_acc(&coeff, kdim, 0, &x, &mut want, n);
        let mut outs = vec![vec![F25::new(777); n + 9], Vec::with_capacity(n), vec![F25::ONE; 1]];
        coded_combine_write(&coeff, kdim, 0, &x, &mut outs, n);
        assert_eq!(outs, want);
        // Float domain too.
        let cf: Vec<f32> = (0..2 * 3).map(|i| i as f32 - 2.5).collect();
        let xf: Vec<Vec<f32>> =
            (0..3).map(|p| (0..n).map(|j| (p * n + j) as f32 * 0.25).collect()).collect();
        let mut wantf = vec![vec![0.0f32; n]; 2];
        coded_combine_acc(&cf, 3, 0, &xf, &mut wantf, n);
        let mut outf = vec![vec![9.9f32; 2], Vec::new()];
        coded_combine_write(&cf, 3, 0, &xf, &mut outf, n);
        assert_eq!(outf, wantf);
        // Degenerate: kdim == 0 and n == 0 still leave length-n rows.
        let none: [&[F25]; 0] = [];
        let mut outs = vec![vec![F25::ONE; 5]];
        coded_combine_write(&coeff, kdim, 0, &none, &mut outs, 4);
        assert_eq!(outs, vec![vec![F25::ZERO; 4]]);
        coded_combine_write(&coeff, kdim, 0, &none, &mut outs, 0);
        assert!(outs[0].is_empty());
    }

    #[test]
    fn check_write_matches_check_acc() {
        let n = 2 * LANES + 6;
        let kdim = 4;
        let coeff: Vec<F25> = (0..3 * kdim).map(|i| F25::new(i as u64 * 9 + 2)).collect();
        let w: Vec<F25> = (0..kdim).map(|i| F25::new(i as u64 + 5)).collect();
        let x: Vec<Vec<F25>> =
            (0..kdim).map(|p| (0..n).map(|j| F25::new((p + j * 5) as u64 + 1)).collect()).collect();
        let mut expect = vec![vec![F25::ZERO; n]];
        naive_coded_combine_acc(&w, kdim, 0, &x, &mut expect);
        let mut expect = expect.pop().unwrap();
        expect[3] += F25::ONE;
        expect[n - 1] += F25::ONE;
        let mut want = vec![vec![F25::ZERO; n]; 3];
        let mm_acc = coded_combine_check_acc(&coeff, kdim, 0, &x, &mut want, n, &w, &expect);
        let mut outs = vec![vec![F25::new(5); 1], Vec::new(), vec![F25::new(8); n + 4]];
        let mm_w = coded_combine_check_write(&coeff, kdim, 0, &x, &mut outs, n, &w, &expect);
        assert_eq!((mm_w, outs), (mm_acc, want));
        assert_eq!(mm_w, 2);
    }

    #[test]
    fn combine_matches_naive_floats() {
        // Float domain: the strip recurrence (and the PGROUP split's
        // identity lift/finish) must reproduce the naive order exactly.
        let kdim = PGROUP + 3;
        let n = LANES + 7;
        let coeff: Vec<f32> = (0..2 * kdim).map(|i| i as f32 * 0.25 - 3.0).collect();
        let x: Vec<Vec<f32>> = (0..kdim)
            .map(|p| (0..n).map(|j| ((p * n + j) % 13) as f32 * 0.5 - 2.0).collect())
            .collect();
        let mut outs = vec![vec![0.5f32; n]; 2];
        let mut want = outs.clone();
        coded_combine_acc(&coeff, kdim, 0, &x, &mut outs, n);
        naive_coded_combine_acc(&coeff, kdim, 0, &x, &mut want);
        assert_eq!(outs, want);
    }
}
