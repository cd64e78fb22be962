//! Generic dense matrix multiplication kernels.
//!
//! Three orientations are provided because the convolution passes need
//! all of them without materializing transposes at the call sites:
//!
//! * [`matmul_into`] — `C[m×n] = A[m×k] · B[k×n]`
//! * [`matmul_at_b_into`] — `C[m×n] = Aᵀ · B` with `A[k×m]`
//! * [`matmul_a_bt_into`] — `C[m×n] = A · Bᵀ` with `B[n×k]`
//!
//! # The outer-product orientations: one strip kernel, two row sources
//!
//! `A·B`, `Aᵀ·B` and the forward convolution are one kernel
//! (`gemm_packed`) over `LANES`-wide strips of output columns, blocks
//! of `PANEL_ROWS` reduction positions, and every output row of a
//! strip per block. What differs is where a block's `B` rows come from
//! (`Rows`); either way a block is a base slice and one offset per
//! reduction position, row `p` being the `LANES` elements at
//! `base[offs[p]..]`, and that is all the micro-kernels read:
//!
//! ```text
//! Packed (the matmuls, the F25 weight gradient): strips outermost
//!   for each strip j0, for each block p0
//!     fill B[p0..p0+kb, j0..j0+LANES] into a contiguous [kb × LANES] panel
//!     C[·, strip] (= if p0 = 0, else +=) A[·, p0..p0+kb] · panel
//! InPlace (the forward convolution): the rows already lie in memory
//!   for each block p0, for each strip j0
//!     C[·, strip] (=|+=) A[·, p0..p0+kb] · B rows at base[offs[p] + j0..]
//! ```
//!
//! The panel (`Panel`, at most 32 KB, cache-line aligned) is written
//! once and then read by *all* `m` rows while it sits in L1, so `B` is
//! streamed from memory exactly once per product whatever `m` is, and
//! the micro-kernel's `B` loads are unit-stride whatever `n` is. The
//! matmuls copy row segments of a row-major `B` into it; the `F25`
//! convolution weight gradient packs `dyᵀ` down its lanes
//! (`fill_transposed`). The forward convolution packs nothing: its
//! column matrix's rows are contiguous runs of a padded, phase-split
//! copy of the image (see [`crate::conv`]), so a block names them by
//! offset (`InPlace`) and one call covers every strip; the buffer
//! carries the slack the last strip's surplus lanes read. `A` is read
//! in place through a `(row, column)` stride pair — `(k, 1)` for `A·B`,
//! `(1, m)` for `Aᵀ·B` — so no transpose is packed either. A strip
//! narrower than `LANES` (the last one when `n % LANES ≠ 0`) is the
//! same full-width kernel over rows whose surplus lanes are zero (a
//! panel) or whatever follows (in place); only the strip's own lanes
//! are stored.
//!
//! The portable micro-kernel (`lane_strip`) holds `LANES`
//! independent [`Scalar::Acc`] accumulators in registers — one per
//! output column — and runs the **reference recurrence** on each:
//! ascending `p`, terms with `A[i,p] = 0` skipped, exactly as
//! [`crate::reference::naive_matmul`] does. Blocking `k` does not
//! reorder it: a block ends with [`Scalar::acc_finish`] into `C` and
//! the next starts from [`Scalar::acc_lift`] of that value, which for
//! floats are both the identity (the running sum round-trips through
//! `C` untouched) and for the field a canonical reduction, which can
//! never change a value mod `p`. So f32 results are bit-identical to
//! the reference — loop order and row source only change *which
//! register serves which column*, never the order of any element's
//! additions — and field results are exact. `PANEL_ROWS` is below
//! every domain's [`Scalar::FOLD_INTERVAL`], so a block never needs a
//! fold in the middle. The first block starts from `acc_lift(0) = 0`
//! instead of reading `C`, so the output may hold stale data.
//!
//! For `F25` on a vector tier ([`dk_field::tier`]: AVX-512 with IFMA,
//! or AVX2) the rows of a block do not go through `lane_strip` one at a
//! time: the whole block goes to the register tile of `simd`,
//! `MR` output rows of a strip per pass over its `B` rows (one tile body,
//! two lane widths; the tier is resolved once per product in
//! `gemm_packed`). A field sum is exact whatever its shape, so the
//! tile has no zero test and reduces once per block in register. `f32`,
//! and `F25` on the baseline tier, run the portable body below, which
//! the autovectorizer lowers to vector multiply-adds.
//!
//! # The dot orientation
//!
//! `A·Bᵀ` vectorizes along the reduction dimension instead
//! ([`Scalar::EXACT`] domains only; float dots keep the reference
//! recurrence order bit-for-bit — see `a_bt_block_ordered`). The
//! field kernels there do reassociate across lanes, which is
//! value-transparent because field arithmetic is exact; the float
//! kernels never reassociate. `F25` on a vector tier
//! runs `simd`'s dot block: two rows of `A` against four of
//! `B` per pass.
//!
//! Every kernel writes into a caller-provided buffer, so steady-state
//! callers (layers, jobs, the encoding scheme) perform **zero heap
//! allocations** per step. Results are **bit-for-bit identical** to
//! [`crate::reference`] in both domains — see
//! `tests/kernel_equivalence.rs` and `tests/conv_equivalence.rs`.

use crate::scalar::Scalar;
use crate::simd;
use dk_field::tier::Tier;

/// Width of the struct-of-arrays accumulator strip: independent
/// [`Scalar::Acc`] lanes held in registers across a whole panel.
/// Sixteen `u64` lanes are two AVX-512 registers or four AVX2
/// registers — within budget everywhere, and what leaves the register
/// tile of [`crate::simd`] room for eight (six) output rows at once.
pub(crate) const LANES: usize = 16;

/// Reduction positions per packed panel (the `k` block): with 8-byte
/// elements the panel is exactly 32 KB.
pub(crate) const PANEL_ROWS: usize = 256;

/// One packed block of `B`: `[kb × LANES]` row-major with `kb ≤
/// PANEL_ROWS`, lanes past the strip's width zero. Cache-line aligned
/// so no vector load of a panel row straddles two lines.
#[repr(C, align(64))]
pub(crate) struct Panel<T>([T; PANEL_ROWS * LANES]);

impl<T: Scalar> Panel<T> {
    pub(crate) fn new() -> Self {
        const { assert!(std::mem::size_of::<T>() * PANEL_ROWS * LANES <= 32 << 10) };
        // A block is at most PANEL_ROWS products on top of one lifted
        // value, so `lane_strip` never has to fold mid-block.
        const { assert!(PANEL_ROWS <= T::FOLD_INTERVAL) };
        Self([T::zero(); PANEL_ROWS * LANES])
    }
}

/// Expands `$body` once per lane with `$l` bound to a **const** index.
///
/// Every access to the accumulator array must go through a constant
/// index (no slices, no iterators — their `&[T]` borrows make the array
/// address escape): that is what lets SROA split the array into sixteen
/// independent SSA scalars the SLP vectorizer packs into SIMD registers
/// for the whole reduction loop, instead of round-tripping the strip
/// through the stack per product.
macro_rules! per_lane {
    ($l:ident => $body:expr) => {{
        macro_rules! arm {
            ($idx:expr) => {{
                const $l: usize = $idx;
                $body;
            }};
        }
        arm!(0);
        arm!(1);
        arm!(2);
        arm!(3);
        arm!(4);
        arm!(5);
        arm!(6);
        arm!(7);
        arm!(8);
        arm!(9);
        arm!(10);
        arm!(11);
        arm!(12);
        arm!(13);
        arm!(14);
        arm!(15);
    }};
}
pub(crate) use per_lane;

/// The portable micro-kernel: `cs[l] (=|+=) Σ_p a[p·a_stride] ·
/// B[p][l]` for `l = 0..LANES`, over the `offs.len()` rows of one block,
/// row `p` of `B` being the [`LANES`] elements at `b[offs[p]..]`.
///
/// `load` selects carry-in (start from the lifted `cs`) or a first
/// block (start from zero; `cs` is not read). The body is one zero-test on
/// the `A` element (hoisted over all lanes) and a branch-free
/// fully-unrolled lane group ([`per_lane`]) that stays in registers.
/// Per output element this is the reference recurrence: ascending `p`,
/// zero elements of `A` skipped.
///
/// # Safety
///
/// `b[offs[p]..]` holds `LANES` elements for every `p`: the row is read
/// unchecked, since a bounds check per row is a fifth of the `f32`
/// body.
#[inline]
unsafe fn lane_strip<T: Scalar>(
    a: &[T],
    a_stride: usize,
    (b, offs): (&[T], &[usize]),
    cs: &mut [T; LANES],
    load: bool,
) {
    let mut acc = [T::acc_zero(); LANES];
    if load {
        per_lane!(L => acc[L] = cs[L].acc_lift());
    }
    for (p, &o) in offs.iter().enumerate() {
        let aip = a[p * a_stride];
        if aip == T::zero() {
            continue;
        }
        // SAFETY: `o + LANES ≤ b.len()` by the function contract.
        let brow = unsafe { &*(b.as_ptr().add(o) as *const [T; LANES]) };
        per_lane!(L => acc[L] = T::mac(acc[L], aip, brow[L]));
    }
    per_lane!(L => cs[L] = T::acc_finish(acc[L]));
}

/// Row offsets of a packed block: row `p` of the panel at `p · LANES`.
const PANEL_OFFS: [usize; PANEL_ROWS] = {
    let mut offs = [0; PANEL_ROWS];
    let mut p = 0;
    while p < PANEL_ROWS {
        offs[p] = p * LANES;
        p += 1;
    }
    offs
};

/// Where the `B` rows of [`gemm_packed`] come from. Either way one
/// block of a strip is a base slice and one offset per reduction
/// position: row `p` is the [`LANES`] elements at `base[offs[p]..]`,
/// which is what the register tile and [`lane_strip`] read.
pub(crate) enum Rows<'a, T> {
    /// Packed: `fill(p0, j0, rows)` overwrites `rows` (`kb × LANES`,
    /// row-major) with `B[p0..p0+kb, j0..j0+LANES]`, zero in the lanes
    /// past column `n`, and the rows are read from the panel.
    Packed(&'a mut Panel<T>, &'a dyn Fn(usize, usize, &mut [T])),
    /// Read where they lie (see [`InPlace`]).
    InPlace(InPlace<'a, T>),
}

/// `B` rows that already lie in memory: row `p` of the strip at column
/// `j0` is `b[offs[p] + j0..][..LANES]`. The lanes past column `n` read
/// whatever follows (never stored), so `b` carries the slack for them.
pub(crate) struct InPlace<'a, T> {
    b: &'a [T],
    offs: &'a [usize],
    n: usize,
}

impl<'a, T> InPlace<'a, T> {
    /// The rows `offs` of `b` for an `n`-column product.
    ///
    /// # Panics
    ///
    /// If a row of the last strip would read past `b`: every
    /// `offs[p] + j0 + LANES` must be at most `b.len()` for the last
    /// strip's first column `j0`.
    pub(crate) fn new(b: &'a [T], offs: &'a [usize], n: usize) -> Self {
        let last = n.saturating_sub(1) / LANES * LANES;
        let reach = offs.iter().max().map_or(0, |&o| o + last + LANES);
        assert!(reach <= b.len(), "in-place B rows reach past their buffer");
        Self { b, offs, n }
    }
}

/// `C[m×n] = A · B` with `A[i, p]` read at `a[i·a_row + p·a_col]` and
/// `B` from `rows`, in strips and blocks (see the module docs). `C` is
/// overwritten (prior contents are irrelevant). A caller issuing many
/// small packed products passes one panel to all of them.
pub(crate) fn gemm_packed<T: Scalar>(
    a: &[T],
    a_strides: (usize, usize),
    c: &mut [T],
    dims: (usize, usize, usize),
    rows: Rows<'_, T>,
) {
    gemm_packed_on(Tier::best(), a, a_strides, c, dims, rows);
}

/// [`gemm_packed`] on a given tier (the baseline: the portable kernel):
/// the tier is resolved once per product, here, and the tests drive each
/// one the host offers directly. A packed block is one strip's; an
/// in-place block covers every strip of its reduction positions, so an
/// in-place product is one block call per [`PANEL_ROWS`] positions.
pub(crate) fn gemm_packed_on<T: Scalar>(
    tier: Tier,
    a: &[T],
    a_strides: (usize, usize),
    c: &mut [T],
    (m, k, n): (usize, usize, usize),
    mut rows: Rows<'_, T>,
) {
    assert_eq!(c.len(), m * n, "C size");
    if let Rows::InPlace(r) = &rows {
        assert_eq!((r.offs.len(), r.n), (k, n), "in-place B shape");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(T::zero());
        return;
    }
    assert!((m - 1) * a_strides.0 + (k - 1) * a_strides.1 < a.len(), "A size");
    let blocks = (0..k).step_by(PANEL_ROWS).map(|p0| (p0, PANEL_ROWS.min(k - p0)));
    match &mut rows {
        Rows::Packed(panel, fill) => {
            for j0 in (0..n).step_by(LANES) {
                for (p0, kb) in blocks.clone() {
                    let packed = &mut panel.0[..kb * LANES];
                    fill(p0, j0, packed);
                    let (b, cols) = ((&*packed, &PANEL_OFFS[..kb]), j0..LANES.min(n - j0) + j0);
                    // SAFETY: one strip, its rows at `p·LANES < kb·LANES`.
                    unsafe { block(tier, (a, a_strides, p0), b, c, (m, n), cols) };
                }
            }
        }
        Rows::InPlace(r) => {
            for (p0, kb) in blocks {
                let b = (r.b, &r.offs[p0..p0 + kb]);
                // SAFETY: `InPlace::new` bounded every row, slack included,
                // for the last strip of the `n` columns, so for all of them.
                unsafe { block(tier, (a, a_strides, p0), b, c, (m, n), 0..n) };
            }
        }
    }
}

/// One block of [`gemm_packed_on`]: reduction positions
/// `p0..p0 + offs.len()` into columns `cols` of every row of the `m × n`
/// matrix `c` (`=` for the first block, `+=` after), row `p0 + p` of
/// `B` for column `cols.start + j` being the [`LANES`] elements at
/// `b[offs[p] + j..]`. On a vector tier with `T` = `F25` this is one
/// register-tile call; otherwise [`lane_strip`] per strip and row.
///
/// # Safety
///
/// `b[offs[p] + j..]` holds `LANES` elements for every `p` and every
/// strip start `j < cols.len()`: both kernels read `B` unchecked.
unsafe fn block<T: Scalar>(
    tier: Tier,
    (a, (a_row, a_col), p0): (&[T], (usize, usize), usize),
    (b, offs): (&[T], &[usize]),
    c: &mut [T],
    (m, n): (usize, usize),
    cols: std::ops::Range<usize>,
) {
    let load = p0 > 0;
    // SAFETY: `A[i, p0 + p]` for `i < m`, `p < offs.len()` is inside `a`
    // by `gemm_packed_on`'s assert, the `B` rows by the function
    // contract, and columns `cols` of every row of the `m × n` matrix
    // `c`, exclusively borrowed, lie inside it.
    let tiled = unsafe {
        let (ap, cp) = (a.as_ptr().add(p0 * a_col), c.as_mut_ptr().add(cols.start));
        simd::gemm_block(tier, ap, (a_row, a_col), (b, offs), cp, n, (m, cols.len()), load)
    };
    if tiled.is_some() {
        return;
    }
    for j0 in cols.clone().step_by(LANES) {
        let w = LANES.min(cols.end - j0);
        let strip = (&b[j0 - cols.start..], offs);
        for i in 0..m {
            let ai = &a[i * a_row + p0 * a_col..];
            let cs = &mut c[i * n + j0..][..w];
            if let Ok(cs) = <&mut [T; LANES]>::try_from(&mut *cs) {
                // SAFETY: this strip's `B` rows, by the function contract.
                unsafe { lane_strip(ai, a_col, strip, cs, load) };
            } else {
                let mut full = [T::zero(); LANES];
                if load {
                    full[..w].copy_from_slice(cs);
                }
                // SAFETY: as above.
                unsafe { lane_strip(ai, a_col, strip, &mut full, load) };
                cs.copy_from_slice(&full[..w]);
            }
        }
    }
}

/// The panel filler for a row-major `B[k×n]`: row segments copied as
/// they are, surplus lanes of the last strip zeroed.
fn fill_from_rows<T: Scalar>(b: &[T], n: usize) -> impl Fn(usize, usize, &mut [T]) + '_ {
    move |p0, j0, rows| {
        let w = LANES.min(n - j0);
        for (r, row) in rows.chunks_exact_mut(LANES).enumerate() {
            let src = &b[(p0 + r) * n + j0..][..w];
            // A full strip copies a fixed sixteen elements: a few vector
            // moves instead of a `memcpy` call per panel row.
            if let Ok(src) = <&[T; LANES]>::try_from(src) {
                row.copy_from_slice(src);
            } else {
                row[..w].copy_from_slice(src);
                row[w..].fill(T::zero());
            }
        }
    }
}

/// The panel filler for `B = Bᵗᵀ` with `Bᵗ[n×k]` row-major: column
/// `j` of `B` is row `j` of `bt`, so each lane of a block is one
/// contiguous run of `bt` written down the panel; lanes past column `n`
/// are zero. The convolution weight gradient packs `dyᵀ` with it.
pub(crate) fn fill_transposed<T: Scalar>(
    bt: &[T],
    k: usize,
    n: usize,
) -> impl Fn(usize, usize, &mut [T]) + '_ {
    move |p0, j0, rows| {
        let w = LANES.min(n - j0);
        let kb = rows.len() / LANES;
        if w < LANES {
            rows.fill(T::zero());
        }
        for l in 0..w {
            let src = &bt[(j0 + l) * k + p0..][..kb];
            for (row, &v) in rows.chunks_exact_mut(LANES).zip(src) {
                row[l] = v;
            }
        }
    }
}

/// Exact-domain dot kernel: `C[rows×n] = A[rows×k] · Bᵀ`, vectorized
/// along the **reduction** dimension.
///
/// Each dot product runs [`LANES`] sub-accumulators striding `k`, so
/// both operand loads are contiguous SIMD loads. Chunks are capped at
/// [`Scalar::FOLD_INTERVAL`] *total* positions so the final lane merge
/// ([`Scalar::acc_add`], a raw integer sum) stays within the combined
/// capacity contract; this reassociates the reduction, which is
/// value-exact in a field and therefore still bit-identical to
/// [`crate::reference::naive_matmul_a_bt`]. Only [`Scalar::EXACT`]
/// domains take this path.
fn a_bt_block_exact<T: Scalar>(a: &[T], b: &[T], c: &mut [T], rows: usize, k: usize, n: usize) {
    debug_assert!(T::EXACT && T::FOLD_INTERVAL >= LANES);
    // Positions per fold chunk, aligned down to the lane width; the
    // *sum* of all lanes' products per chunk stays within one
    // accumulator's budget.
    let chunk = T::FOLD_INTERVAL - T::FOLD_INTERVAL % LANES;
    let kv = k - k % LANES;
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        for (j, cj) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = [T::acc_zero(); LANES];
            let mut p0 = 0;
            let mut merged = T::acc_zero();
            while p0 < kv {
                let pend = kv.min(p0.saturating_add(chunk));
                // `pend − p0` is a multiple of LANES: no remainder chunks.
                let avs = arow[p0..pend].as_chunks::<LANES>().0;
                let bvs = brow[p0..pend].as_chunks::<LANES>().0;
                for (av, bv) in avs.iter().zip(bvs) {
                    per_lane!(L => acc[L] = T::mac(acc[L], av[L], bv[L]));
                }
                p0 = pend;
                if p0 < kv {
                    per_lane!(L => acc[L] = T::acc_fold(acc[L]));
                }
            }
            // Merge the lanes (raw sums — within the chunk's combined
            // budget), then run the scalar tail on the folded result.
            per_lane!(L => merged = T::acc_add(merged, acc[L]));
            if kv < k {
                merged = T::acc_fold(merged);
                for p in kv..k {
                    merged = T::mac(merged, arow[p], brow[p]);
                }
            }
            *cj = T::acc_finish(merged);
        }
    }
}

/// Ordered dot kernel, the float path: `C[rows×n] = A[rows×k] · Bᵀ`
/// for domains where reassociation changes results.
///
/// Four rows of `B` are consumed per pass over the `A` row, each with
/// its own register accumulator, so every element keeps the exact
/// reference recurrence: ascending `p`, no zero skip (`0.0 · ∞ = NaN`
/// must propagate bit-identically to the naive kernel) and no fold
/// (a float accumulator never needs one).
fn a_bt_block_ordered<T: Scalar>(a: &[T], b: &[T], c: &mut [T], rows: usize, k: usize, n: usize) {
    debug_assert!(!T::EXACT);
    const DOTS: usize = 4;
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let mut j = 0;
        while j + DOTS <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [T::acc_zero(); DOTS];
            for (p, &x) in arow.iter().enumerate() {
                acc[0] = T::mac(acc[0], x, b0[p]);
                acc[1] = T::mac(acc[1], x, b1[p]);
                acc[2] = T::mac(acc[2], x, b2[p]);
                acc[3] = T::mac(acc[3], x, b3[p]);
            }
            for (l, &aj) in acc.iter().enumerate() {
                c[i * n + j + l] = T::acc_finish(aj);
            }
            j += DOTS;
        }
        while j < n {
            let brow = &b[j * k..(j + 1) * k];
            let acc = arow.iter().zip(brow).fold(T::acc_zero(), |acc, (&x, &y)| T::mac(acc, x, y));
            c[i * n + j] = T::acc_finish(acc);
            j += 1;
        }
    }
}

/// `C[m×n] = A[m×k] · B[k×n]` into a caller-provided buffer
/// (overwritten; prior contents are irrelevant).
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_into<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), k * n, "B size");
    gemm_packed(a, (k, 1), c, (m, k, n), Rows::Packed(&mut Panel::new(), &fill_from_rows(b, n)));
}

/// `C[m×n] = Aᵀ · B` (with `A` stored `k×m`) into a caller-provided
/// buffer (overwritten). `Aᵀ` is never materialized: the strip kernel
/// reads column `i` of `A` in place at stride `m`, and the block of
/// `A` rows a panel needs stays cache-resident across the `m` output
/// rows that share it.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_at_b_into<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "A size");
    assert_eq!(b.len(), k * n, "B size");
    gemm_packed(a, (1, m), c, (m, k, n), Rows::Packed(&mut Panel::new(), &fill_from_rows(b, n)));
}

/// `C[m×n] = A · Bᵀ` (with `B` stored `n×k`) into a caller-provided
/// buffer (overwritten).
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_a_bt_into<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    matmul_a_bt_on(Tier::best(), a, b, c, m, k, n);
}

/// [`matmul_a_bt_into`] on a given tier, as [`gemm_packed_on`]: the
/// register tile's dot block or, off it, the portable bodies.
pub(crate) fn matmul_a_bt_on<T: Scalar>(
    tier: Tier,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A size");
    assert_eq!(b.len(), n * k, "B size");
    assert_eq!(c.len(), m * n, "C size");
    if m == 0 || n == 0 || simd::a_bt_block(tier, a, b, c, (m, k, n)).is_some() {
        return;
    }
    if T::EXACT {
        a_bt_block_exact(a, b, c, m, k, n);
    } else {
        a_bt_block_ordered(a, b, c, m, k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{naive_matmul, naive_matmul_a_bt};
    use dk_field::F25;

    fn naive<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
        let mut c = vec![T::zero(); m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    let prod = a[i * k + p] * b[p * n + j];
                    c[i * n + j] += prod;
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_f32() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.25 - 1.0).collect();
        let mut c = vec![0.0; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn matmul_matches_naive_field() {
        let (m, k, n) = (4, 3, 4);
        let a: Vec<F25> = (0..m * k).map(|i| F25::new(i as u64 * 7 + 1)).collect();
        let b: Vec<F25> = (0..k * n).map(|i| F25::new(i as u64 * 13 + 5)).collect();
        let mut c = vec![F25::ZERO; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn matmul_wide_output_crosses_lane_strips() {
        // n far from a LANES multiple exercises both the full strips
        // and the variable-width remainder strip.
        let (m, k, n) = (2, 3, 33 * LANES + 3);
        let a: Vec<F25> = (0..m * k).map(|i| F25::new(i as u64 + 1)).collect();
        let b: Vec<F25> = (0..k * n).map(|i| F25::new(i as u64 * 31 + 2)).collect();
        let mut c = vec![F25::ZERO; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn at_b_matches_transposed_input() {
        let (m, k, n) = (3, 4, 2);
        // A stored k x m; build its transpose m x k and use plain matmul.
        let a_kxm: Vec<f32> = (0..k * m).map(|i| i as f32).collect();
        let mut a_mxk = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a_mxk[i * k + p] = a_kxm[p * m + i];
            }
        }
        let b: Vec<f32> = (0..k * n).map(|i| (i * i) as f32).collect();
        let (mut got, mut want) = (vec![0.0; m * n], vec![0.0; m * n]);
        matmul_at_b_into(&a_kxm, &b, &mut got, m, k, n);
        matmul_into(&a_mxk, &b, &mut want, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn at_b_crosses_panel_boundary() {
        // k > PANEL_ROWS forces a second packed block per strip.
        let (m, k, n) = (9, PANEL_ROWS + 9, 3);
        let a: Vec<F25> = (0..k * m).map(|i| F25::new(i as u64 % 97 + 1)).collect();
        let b: Vec<F25> = (0..k * n).map(|i| F25::new(i as u64 % 89 + 2)).collect();
        let mut a_t = vec![F25::ZERO; m * k];
        for p in 0..k {
            for i in 0..m {
                a_t[i * k + p] = a[p * m + i];
            }
        }
        let (mut got, mut want) = (vec![F25::ZERO; m * n], vec![F25::ZERO; m * n]);
        matmul_at_b_into(&a, &b, &mut got, m, k, n);
        matmul_into(&a_t, &b, &mut want, m, k, n);
        assert_eq!(got, want);
    }

    /// `B` stored `n×k` and its transpose `k×n`.
    fn with_transpose<T: Scalar>(b_nxk: &[T], k: usize, n: usize) -> Vec<T> {
        let mut b_kxn = vec![T::zero(); k * n];
        for j in 0..n {
            for p in 0..k {
                b_kxn[p * n + j] = b_nxk[j * k + p];
            }
        }
        b_kxn
    }

    #[test]
    fn a_bt_matches_transposed_input() {
        let (m, k, n) = (2, 5, 3);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.1).collect();
        let b_nxk: Vec<f32> = (0..n * k).map(|i| i as f32 - 4.0).collect();
        let (mut got, mut want) = (vec![0.0; m * n], vec![0.0; m * n]);
        matmul_a_bt_into(&a, &b_nxk, &mut got, m, k, n);
        matmul_into(&a, &with_transpose(&b_nxk, k, n), &mut want, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn a_bt_field_crosses_lane_and_tail_boundaries() {
        // k straddling the vectorizable prefix (k % LANES != 0) plus a
        // multi-strip n exercises the exact-domain dot path end to end.
        let (m, k, n) = (3, 2 * LANES + 7, LANES + 5);
        let a: Vec<F25> = (0..m * k).map(|i| F25::new(i as u64 * 17 + 3)).collect();
        let b_nxk: Vec<F25> = (0..n * k).map(|i| F25::new(i as u64 * 23 + 9)).collect();
        let (mut got, mut want) = (vec![F25::ZERO; m * n], vec![F25::ZERO; m * n]);
        matmul_a_bt_into(&a, &b_nxk, &mut got, m, k, n);
        matmul_into(&a, &with_transpose(&b_nxk, k, n), &mut want, m, k, n);
        assert_eq!(got, want);
    }

    /// A matrix–vector product is a one-column product in either
    /// orientation: the dot kernel at `n = 1` against the strip kernel.
    #[test]
    fn matvec_matches_matmul() {
        let (m, k) = (4, 6);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32).collect();
        let x: Vec<f32> = (0..k).map(|i| i as f32).collect();
        let (mut dot, mut strip) = (vec![0.0; m], vec![0.0; m]);
        matmul_a_bt_into(&a, &x, &mut dot, m, k, 1);
        matmul_into(&a, &x, &mut strip, m, k, 1);
        assert_eq!(dot, strip);
    }

    #[test]
    fn identity_matmul() {
        let n = 4;
        let mut id = vec![0.0f32; n * n];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        let b: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        let mut c = vec![0.0; n * n];
        matmul_into(&id, &b, &mut c, n, n, n);
        assert_eq!(c, b);
    }

    #[test]
    fn field_matmul_wraps_mod_p() {
        let a = vec![F25::new(dk_field::P25 - 1)]; // -1
        let b = vec![F25::new(dk_field::P25 - 1)]; // -1
        let mut c = vec![F25::ZERO];
        matmul_into(&a, &b, &mut c, 1, 1, 1);
        assert_eq!(c[0], F25::ONE);
    }

    #[test]
    fn empty_dims_are_fine() {
        matmul_into::<F25>(&[], &[], &mut [], 0, 3, 0);
        matmul_into::<F25>(&[], &[], &mut [], 0, 0, 4);
        let mut c = vec![F25::ONE; 15];
        matmul_into::<F25>(&[], &[], &mut c, 3, 0, 5);
        assert!(c.iter().all(|v| v.is_zero()));
        matmul_a_bt_into::<f32>(&[], &[], &mut [], 0, 2, 0);
        matmul_at_b_into::<f32>(&[], &[], &mut [], 0, 0, 0);
        let mut c = vec![F25::ONE; 6];
        matmul_at_b_into::<F25>(&[], &[], &mut c, 3, 0, 2);
        assert!(c.iter().all(|v| v.is_zero()));
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<F25> = (0..m * k).map(|i| F25::new(i as u64 + 1)).collect();
        let b: Vec<F25> = (0..k * n).map(|i| F25::new(i as u64 * 3 + 2)).collect();
        let mut c = vec![F25::new(999); m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive_matmul(&a, &b, m, k, n));

        let bt: Vec<F25> = (0..n * k).map(|i| F25::new(i as u64 * 7 + 3)).collect();
        let mut c = vec![F25::new(999); m * n];
        matmul_a_bt_into(&a, &bt, &mut c, m, k, n);
        assert_eq!(c, naive_matmul_a_bt(&a, &bt, m, k, n));

        let at: Vec<F25> = (0..k * m).map(|i| F25::new(i as u64 * 11 + 4)).collect();
        let mut c = vec![F25::new(999); m * n];
        matmul_at_b_into(&at, &b, &mut c, m, k, n);
        assert_eq!(c, crate::reference::naive_matmul_at_b(&at, &b, m, k, n));
    }

    /// `A` stored both ways: row-major `m×k` (strides `(k, 1)`) and as
    /// its transpose `k×m` (strides `(1, m)`).
    fn both_layouts(a: &[F25], m: usize, k: usize) -> [(Vec<F25>, (usize, usize)); 2] {
        let mut a_t = vec![F25::ZERO; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        [(a.to_vec(), (k, 1)), (a_t, (1, m))]
    }

    /// Runs one product on every tier the host offers, over a poisoned
    /// `C`, both stride pairs, against the per-MAC reference.
    fn check_tile(a: &[F25], b: &[F25], dims: (usize, usize, usize)) {
        let (m, k, n) = dims;
        let want = naive_matmul(a, b, m, k, n);
        let fill = fill_from_rows(b, n);
        for (a, strides) in both_layouts(a, m, k) {
            for tier in Tier::offered() {
                let mut c = vec![F25::new(0x1ab_cdef); m * n];
                gemm_packed_on(tier, &a, strides, &mut c, dims, Rows::Packed(&mut Panel::new(), &fill));
                assert_eq!(c, want, "{tier:?} {dims:?} strides {strides:?}");
            }
        }
    }

    #[test]
    fn tile_matches_reference_on_every_tier() {
        // Rows around every tile height and its tails, reduction lengths
        // around the panel block, widths around the strip. The widest
        // shape (many strips) takes three row counts: the per-MAC
        // reference is what this test's time goes to.
        let mut rng = dk_field::FieldRng::seed_from(0x711e);
        for k in [0usize, 1, 9, 27, 255, 256, 257, 600] {
            for n in [1usize, 15, 16, 17, 48, 1000] {
                let b = rng.uniform_vec(k * n);
                for m in (0..=17).filter(|m| n < 1000 || [1, 9, 17].contains(m)) {
                    check_tile(&rng.uniform_vec(m * k), &b, (m, k, n));
                }
            }
        }
    }

    #[test]
    fn tile_holds_the_worst_case_block_on_every_tier() {
        // All-(P−1) operands fill every lane of a block to the `< 2^58`
        // budget the vector reduce is argued for, on top of the carry-in
        // from the block before it; all-zero operands are the case the
        // old kernels branched around.
        let top = F25::new(dk_field::P25 - 1);
        for k in [PANEL_ROWS, PANEL_ROWS + 1, 600] {
            for n in [16usize, 17] {
                for m in [1usize, 8, 9, 17] {
                    let b = vec![top; k * n];
                    check_tile(&vec![top; m * k], &b, (m, k, n));
                    check_tile(&vec![F25::ZERO; m * k], &b, (m, k, n));
                }
            }
        }
    }

    #[test]
    fn dot_block_matches_reference_on_every_tier() {
        // Reduction lengths around the lane width and around the fold
        // period of both tiers (255 steps of 4 or 8 positions); row and
        // column counts around the 2×4 block.
        let mut rng = dk_field::FieldRng::seed_from(0xd07);
        let top = F25::new(dk_field::P25 - 1);
        for tier in Tier::offered() {
            for k in [0usize, 1, 7, 8, 9, 27, 1019, 1020, 1021, 2039, 2040, 2041, 4100] {
                for n in [1usize, 3, 4, 5, 9] {
                    for m in 1..=3 {
                        for worst in [false, true] {
                            let (a, b) = match worst {
                                true => (vec![top; m * k], vec![top; n * k]),
                                false => (rng.uniform_vec(m * k), rng.uniform_vec(n * k)),
                            };
                            let mut c = vec![F25::new(0x1ab_cdef); m * n];
                            matmul_a_bt_on(tier, &a, &b, &mut c, m, k, n);
                            assert_eq!(c, naive_matmul_a_bt(&a, &b, m, k, n), "{tier:?} {m}x{k}x{n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_boundary_on_every_tier() {
        // `k` past the `F25` fold interval (2^14 unreduced products per
        // `u64` lane) with worst-case operands: the baseline tier's dot
        // kernel folds mid-row here, and every strip carries `C` across
        // 65 panel blocks.
        let top = F25::new(dk_field::P25 - 1);
        let k = F25::FOLD_INTERVAL + LANES + 5;
        for (m, n) in [(1, 1), (2, 5)] {
            let (a, b) = (vec![top; m * k], vec![top; n * k]);
            for tier in Tier::offered() {
                let mut c = vec![F25::new(0x1ab_cdef); m * n];
                matmul_a_bt_on(tier, &a, &b, &mut c, m, k, n);
                assert_eq!(c, naive_matmul_a_bt(&a, &b, m, k, n), "{tier:?} dot {m}x{k}x{n}");
            }
            check_tile(&a, &b, (m, k, n));
        }
    }

    #[test]
    #[should_panic(expected = "A size")]
    fn dimension_mismatch_panics() {
        let a = vec![0.0f32; 5];
        let b = vec![0.0f32; 6];
        matmul_into(&a, &b, &mut [0.0; 4], 2, 3, 2);
    }
}
