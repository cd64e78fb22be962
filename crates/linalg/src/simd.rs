//! The `F25` register-tile micro-kernel, written once over a lane shim.
//!
//! The generic kernels in [`crate::matmul`] and [`crate::coded`] are
//! written so the autovectorizer *can* emit SIMD for them, and it does
//! for floats — but for the 25-bit field the widening multiply chain
//! defeats it. Canonical `F25` values are `u64`s below `2^25`, so a
//! product is below `2^50`: it fits the 52-bit multiplier of AVX-512
//! IFMA (`vpmadd52luq`: eight exact multiply-accumulates in one
//! instruction — the reason the prime has 25 bits) and the 32-bit
//! widening multiply of AVX2 (`vpmuludq` + `vpaddq`: four in two).
//! Field arithmetic is exact ([`crate::Scalar::EXACT`]): no lane split,
//! tile shape or fold placement can move a bit, and a zero operand adds
//! zero, so the bodies here carry no zero test. They stay bit-for-bit
//! identical to [`crate::reference`], which this module's tests, the
//! `*_equivalence` suites and the workspace's golden table check.
//!
//! # One body per shape, one lane shim per tier
//!
//! Everything is written **once** over [`Lanes`], a shim of a dozen
//! one-line operations (load, masked load/store, broadcast,
//! multiply-accumulate, reduce, horizontal sum) on a register of `W`
//! `u64` lanes:
//!
//! * the **tile** — `MR` output rows × two registers of columns held as
//!   `2·MR` accumulators across a whole reduction block: each `B` row is
//!   loaded once per `MR` output rows, each `A` element is broadcast
//!   straight from memory, nothing but multiply-accumulates runs in the
//!   loop;
//! * its **epilogue** — [`Lanes::reduce`], two or three pseudo-Mersenne
//!   folds (`2^25 ≡ 39`, `2^50 ≡ 39²  (mod 2^25 − 39)`) and one
//!   conditional subtract, in register, for any lane below `2^58` (one
//!   canonical carry-in plus [`PANEL_ROWS`] products), then a masked
//!   store so a partial strip writes only its own columns;
//! * the **packed-panel block** ([`gemm_block`]) and the **coded
//!   block** ([`coded_block`]): the same tile over `B` rows that are
//!   panel rows in one and the scheme's separate source vectors in the
//!   other — every output row of a strip, the §4.4 check row included,
//!   from one load of each source chunk;
//! * the **dot block** ([`a_bt_block`]): two rows of `A` against four
//!   rows of `B` along the reduction dimension, merged exactly at the
//!   end.
//!
//! The tiers are `dk_field`'s ([`dk_field::tier`]): one ladder,
//! detected once per process there. Each shape is a [`Tiled`] body that
//! [`on_lanes`] hands to [`Tier::run`], which compiles it once per tier;
//! the body picks its shim from the tier it is compiled for. The AVX-512
//! tier runs eight lanes with `MR = 8` (16 of 32 `zmm` accumulate), the
//! AVX2 tier four lanes with `MR = 6` (12 of 16 `ymm`, a strip in two
//! column halves). The baseline tier has no shim — no host that builds
//! this repository would run an SSE2 one — so there, and for `f32`, the
//! entry points return `None` and the caller runs the portable kernels:
//! `f32` on every host, `F25` on the baseline tier, which
//! [`Tier::offered`] always includes, so the per-tier tests reach them.

// Off x86-64 no tier has a lane shim: the bodies type-check but are
// never run.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use crate::coded::{MAX_ROWS, MAX_TERMS};
use crate::matmul::{LANES, PANEL_ROWS};
use dk_field::tier::{Body, Kind, Tier, Width};
use std::any::TypeId;

/// What a tier is to the tile: a register of [`Lanes::W`] `u64` lanes,
/// the operations the bodies below are written over, and the tile
/// height its register file affords.
///
/// # Safety
///
/// Every method compiles to the tier's instructions, so it may only be
/// reached from the function [`Tier::run`] compiles for that tier, into
/// which the `#[inline(always)]` bodies and methods dissolve. Pointer
/// arguments must be valid for the lanes named.
trait Lanes {
    /// The register type.
    type V: Copy;
    /// `u64` lanes per register.
    const W: usize;
    /// Output rows per tile: `2·MR` accumulators plus two `B` registers,
    /// one broadcast and a product must fit the register file.
    const MR: usize;

    /// All lanes zero.
    unsafe fn zero() -> Self::V;
    /// `W` lanes from `p`.
    unsafe fn load(p: *const u64) -> Self::V;
    /// The first `n ≤ W` lanes from `p`, the rest zero; memory past lane
    /// `n` is not touched.
    unsafe fn load_masked(p: *const u64, n: usize) -> Self::V;
    /// The first `n ≤ W` lanes to `p`; memory past lane `n` is not
    /// touched.
    unsafe fn store_masked(p: *mut u64, n: usize, v: Self::V);
    /// `*p` in every lane.
    unsafe fn splat(p: *const u64) -> Self::V;
    /// `acc + a·b` per lane, exact for `a, b < 2^32` (the sum must fit 64
    /// bits).
    unsafe fn mac(acc: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// Every lane, each below `2^58`, to its canonical residue mod `P25`
    /// — the bits [`dk_field::F25::reduce_u64`] gives, since the
    /// canonical residue is unique.
    ///
    /// With `v = lo + 2^25·mid + 2^50·hi` (`lo, mid < 2^25`, `hi < 2^8`):
    /// `v₁ = lo + 39·mid + 39²·hi < 2^30.4` is congruent to `v`,
    /// `v₂ = (v₁ mod 2^25) + 39·(v₁ ≫ 25) < 2^25 + 39·41 < 2·P25`
    /// likewise, and one conditional subtract lands in `[0, P25)`. A tier
    /// whose multiplier takes the 33-bit `v ≫ 25` whole folds `mid` and
    /// `hi` together.
    unsafe fn reduce(v: Self::V) -> Self::V;
    /// The sum of all lanes (which must fit 64 bits).
    unsafe fn hsum(v: Self::V) -> u64;
}

/// A kernel body written once over [`Lanes`]; [`on_lanes`] runs it.
trait Tiled {
    type Out;
    /// # Safety
    ///
    /// The body's own contract, and [`Lanes`]'.
    unsafe fn run<L: Lanes>(self) -> Self::Out;
}

/// Runs `body` on `tier`'s lane shim. `None` when `T` is not `F25` (the
/// tile is an `F25` kernel; the test folds away at compile time) or the
/// tier is the baseline, which has no shim: the caller then runs the
/// portable kernels.
///
/// # Safety
///
/// `body`'s contract.
#[inline]
unsafe fn on_lanes<T: 'static, B: Tiled>(tier: Tier, body: B) -> Option<B::Out> {
    /// Built only here, so its `run` inherits `on_lanes`' contract.
    struct OnLanes<B>(B);
    impl<B: Tiled> Body for OnLanes<B> {
        type Out = Option<B::Out>;
        #[inline(always)]
        fn run<W: Width>(self, _: W) -> Option<B::Out> {
            match W::KIND {
                Kind::Baseline => None,
                // SAFETY: `on_lanes`' caller vouches for the body, and
                // only `Tier::run` makes a `W` of this kind: for a
                // detected AVX2 tier, inside its function compiled with
                // the AVX2 features.
                #[cfg(target_arch = "x86_64")]
                Kind::Avx2 => Some(unsafe { self.0.run::<x86::Avx2>() }),
                // SAFETY: as above, with the AVX-512 features (IFMA
                // among them).
                #[cfg(target_arch = "x86_64")]
                Kind::Avx512 => Some(unsafe { self.0.run::<x86::Avx512>() }),
            }
        }
    }
    if TypeId::of::<T>() != TypeId::of::<dk_field::F25>() {
        return None;
    }
    tier.run(OnLanes(body))
}

/// One packed block of a strip, all `m` output rows:
/// `C[i, 0..w] (=|+=) Σ_{p<kb} A[i, p] · panel[p][0..w]`, with
/// `A[i, p]` at `a[i·a_row + p·a_col]`, `panel` `kb × LANES` row-major
/// and `C[i, ·]` at `c[i·ldc ..]`. `load` accumulates on top of `C`
/// (canonical values); otherwise `C` is written without being read.
/// `None` (nothing done) off the tile, as [`on_lanes`].
///
/// # Safety
///
/// `a` is valid for reads at every `i·a_row + p·a_col`, `i < m`,
/// `p < kb`; `panel` for `kb · LANES` reads; `c` for reads and writes of
/// `w ≤ LANES` elements at every `i·ldc`, `i < m`, shared with no one
/// for the call.
///
/// # Panics
///
/// If `kb > PANEL_ROWS`: the tile reduces once per block, on that
/// budget.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_block<T: 'static>(
    tier: Tier,
    a: *const T,
    (a_row, a_col): (usize, usize),
    kb: usize,
    panel: *const T,
    c: *mut T,
    ldc: usize,
    m: usize,
    w: usize,
    load: bool,
) -> Option<()> {
    assert!(kb <= PANEL_ROWS, "a block holds at most PANEL_ROWS products per lane");
    debug_assert!((1..=LANES).contains(&w));
    // `F25` is `repr(transparent)` over `u64`, so the casts are
    // identities wherever the body runs.
    let (a, panel, c) = (a as *const u64, panel as *const u64, c as *mut u64);
    let body = GemmBlock { a, a_row, a_col, kb, panel, c, ldc, m, w, load };
    // SAFETY: the caller's contract is the body's.
    unsafe { on_lanes::<T, _>(tier, body) }
}

struct GemmBlock {
    a: *const u64,
    a_row: usize,
    a_col: usize,
    kb: usize,
    panel: *const u64,
    c: *mut u64,
    ldc: usize,
    m: usize,
    w: usize,
    load: bool,
}

impl Tiled for GemmBlock {
    type Out = ();

    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        let GemmBlock { a, a_row, a_col, kb, panel, c, ldc, m, w, load } = self;
        for i in (0..m).step_by(L::MR) {
            // SAFETY: rows `i..i+rows` of `A` and `C` and rows `< kb` of
            // the panel, all inside what `gemm_block`'s caller vouched
            // for.
            unsafe {
                tile_rows::<L>(
                    L::MR.min(m - i),
                    &|r| a.add((i + r) * a_row),
                    a_col,
                    kb,
                    &|p| panel.add(p * LANES),
                    &|r| c.add((i + r) * ldc),
                    w,
                    load,
                );
            }
        }
    }
}

/// Columns `0..n` of a coded combine, every output row in one pass:
/// `outs[r][j] (=|+=) Σ_p coeff[r·cstride + p] · xs[p][j]`, plus — with
/// `check = (w, expect)` — the predicted row `Σ_p w[p] · xs[p][j]`
/// compared against `expect[j]`; returns the number of mismatches, or
/// `None` (nothing done) off the tile, as [`on_lanes`]. `load`
/// accumulates on top of canonical `outs`; otherwise they are written
/// without being read.
///
/// # Safety
///
/// Every `xs[p]` holds at least `n` elements, every `outs[r]` is valid
/// for `n` writes (and reads, with `load`) and shared with no one for
/// the call; `coeff` is valid for reads at `r·cstride + p` for every
/// output row `r` and `p < xs.len()`; `w` holds `xs.len()` weights and
/// `expect` `n` values.
///
/// # Panics
///
/// If `xs` holds more than [`MAX_TERMS`] rows or `outs` more than
/// [`MAX_ROWS`].
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn coded_block<T: 'static>(
    tier: Tier,
    coeff: *const T,
    cstride: usize,
    xs: &[&[T]],
    outs: &[*mut T],
    n: usize,
    load: bool,
    check: Option<(&[T], &[T])>,
) -> Option<usize> {
    assert!(xs.len() <= MAX_TERMS, "a coded combine takes at most MAX_TERMS input rows");
    assert!(outs.len() <= MAX_ROWS, "a coded combine writes at most MAX_ROWS output rows");
    let mut body = CodedBlock {
        coeff: coeff as *const u64,
        cstride,
        xs: [std::ptr::null(); MAX_TERMS],
        kdim: xs.len(),
        outs: [std::ptr::null_mut(); MAX_ROWS],
        rows: outs.len(),
        n,
        load,
        check: check.map(|(w, e)| (w.as_ptr() as *const u64, e.as_ptr() as *const u64)),
    };
    for (d, s) in body.xs.iter_mut().zip(xs) {
        *d = s.as_ptr() as *const u64;
    }
    for (d, s) in body.outs.iter_mut().zip(outs) {
        *d = *s as *mut u64;
    }
    // SAFETY: the caller's contract, restated in pointers.
    unsafe { on_lanes::<T, _>(tier, body) }
}

struct CodedBlock {
    coeff: *const u64,
    cstride: usize,
    xs: [*const u64; MAX_TERMS],
    kdim: usize,
    outs: [*mut u64; MAX_ROWS],
    rows: usize,
    n: usize,
    load: bool,
    check: Option<(*const u64, *const u64)>,
}

impl Tiled for CodedBlock {
    type Out = usize;

    /// Per strip, one [`tile`] pass per `L::MR` output rows — the check
    /// row rides as the last row, written to a local strip and
    /// compared. `B` rows of a full strip are the sources in place; the
    /// one partial strip (`n` not a multiple of [`LANES`]) reads a
    /// zero-padded copy, so the tile's `B` loads are full-width
    /// everywhere.
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) -> usize {
        let CodedBlock { coeff, cstride, xs, kdim, outs, rows, n, load, check } = self;
        let outs = &outs[..rows];
        let total = rows + usize::from(check.is_some());
        let mut padded = [0u64; MAX_TERMS * LANES];
        let mut pred = [0u64; LANES];
        let (padded_p, pred_p) = (padded.as_mut_ptr(), pred.as_mut_ptr());
        let check_w = check.map_or(std::ptr::null(), |(w, _)| w);
        let mut mismatches = 0usize;
        for j in (0..n).step_by(LANES) {
            let w = LANES.min(n - j);
            let mut bp = [std::ptr::null::<u64>(); MAX_TERMS];
            for (p, (b, &x)) in bp.iter_mut().zip(&xs[..kdim]).enumerate() {
                // SAFETY: `x` holds `n ≥ j + w` elements.
                *b = unsafe { x.add(j) };
                if w < LANES {
                    // SAFETY: `w` elements from the source into row `p`
                    // (`p < MAX_TERMS`) of the zero-initialized panel.
                    unsafe {
                        let row = padded_p.add(p * LANES);
                        std::ptr::copy_nonoverlapping(*b, row, w);
                        *b = row;
                    }
                }
            }
            for r0 in (0..total).step_by(L::MR) {
                // SAFETY: output rows `r0..r0+rows` at columns `j..j+w`
                // (the check row reads `w`'s `kdim` weights and writes
                // the local strip), `B` rows `LANES` wide by the above.
                unsafe {
                    tile_rows::<L>(
                        L::MR.min(total - r0),
                        &|r| if r0 + r < rows { coeff.add((r0 + r) * cstride) } else { check_w },
                        1,
                        kdim,
                        &|p| bp[p],
                        &|r| outs.get(r0 + r).map_or(pred_p, |o| o.add(j)),
                        w,
                        load,
                    );
                }
            }
            if let Some((_, expect)) = check {
                for l in 0..w {
                    // SAFETY: `expect` holds `n ≥ j + w` elements and
                    // the tile just wrote `w` lanes of `pred`.
                    mismatches += usize::from(unsafe { *pred_p.add(l) != *expect.add(j + l) });
                }
            }
        }
        mismatches
    }
}

/// `C[rows×n] = A[rows×k] · Bᵀ` (`B` stored `n×k`): the dot
/// orientation, vectorized along the reduction dimension. `None`
/// (nothing done) off the tile, as [`on_lanes`].
///
/// # Panics
///
/// If a slice is shorter than its matrix.
pub(crate) fn a_bt_block<T: 'static>(
    tier: Tier,
    a: &[T],
    b: &[T],
    c: &mut [T],
    (rows, k, n): (usize, usize, usize),
) -> Option<()> {
    assert!(a.len() >= rows * k && b.len() >= n * k && c.len() >= rows * n);
    let (a, b, c) = (a.as_ptr() as *const u64, b.as_ptr() as *const u64, c.as_mut_ptr() as *mut u64);
    // SAFETY: the assert above bounds every access the body makes
    // (`rows × k`, `n × k`, `rows × n`).
    unsafe { on_lanes::<T, _>(tier, ABtBlock { a, b, c, rows, k, n }) }
}

struct ABtBlock {
    a: *const u64,
    b: *const u64,
    c: *mut u64,
    rows: usize,
    k: usize,
    n: usize,
}

impl Tiled for ABtBlock {
    type Out = ();

    /// 2×4 dot blocks, then what is left of the rows and columns at 1×
    /// and ×1.
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        let ABtBlock { a, b, c, rows, k, n } = self;
        let n4 = n - n % 4;
        for i in (0..rows).step_by(2) {
            // SAFETY: rows `i`, `i+1` (when there) of `A` and `C`, rows
            // `j..j+4` or `j` of `B`: inside the three matrices.
            unsafe {
                let (ai, ci) = (a.add(i * k), c.add(i * n));
                let pair = i + 1 < rows;
                for j in (0..n4).step_by(4) {
                    let bj: [*const u64; 4] = std::array::from_fn(|l| b.add((j + l) * k));
                    if pair {
                        dot_block::<L, 2, 4>([ai, ai.add(k)], bj, k, [ci.add(j), ci.add(n + j)]);
                    } else {
                        dot_block::<L, 1, 4>([ai], bj, k, [ci.add(j)]);
                    }
                }
                for j in n4..n {
                    let bj = [b.add(j * k)];
                    if pair {
                        dot_block::<L, 2, 1>([ai, ai.add(k)], bj, k, [ci.add(j), ci.add(n + j)]);
                    } else {
                        dot_block::<L, 1, 1>([ai], bj, k, [ci.add(j)]);
                    }
                }
            }
        }
    }
}

/// The register tile: `C[r][0..w] (=|+=) Σ_{p<kb} A[r][p] · B[p][0..w]`
/// for `r < MR`, where row `r` of `A` starts at `arow(r)` with
/// consecutive `p` `a_col` apart, row `p` of `B` is the [`LANES`]
/// elements at `brow(p)` and row `r` of `C` the `w ≤ LANES` elements at
/// `crow(r)`. `2·MR` accumulators live in registers across the whole `p`
/// loop; they start from `C` (`load`; canonical values) or zero, take at
/// most `PANEL_ROWS` products each, are reduced once and stored under
/// the strip's column mask.
///
/// # Safety
///
/// As [`Lanes`]; `arow(r)` valid for reads at `p·a_col`, `p < kb`;
/// `brow(p)` for `LANES` reads (all of them, whatever `w` is); `crow(r)`
/// for `w` writes, and reads with `load`. `kb ≤ PANEL_ROWS`.
#[inline(always)]
unsafe fn tile<L: Lanes, const MR: usize>(
    arow: &impl Fn(usize) -> *const u64,
    a_col: usize,
    kb: usize,
    brow: &impl Fn(usize) -> *const u64,
    crow: &impl Fn(usize) -> *mut u64,
    w: usize,
    load: bool,
) {
    let ap: [*const u64; MR] = std::array::from_fn(arow);
    let cp: [*mut u64; MR] = std::array::from_fn(crow);
    for c0 in (0..w).step_by(2 * L::W) {
        // Valid lanes of this column group's two registers.
        let n0 = L::W.min(w - c0);
        let n1 = L::W.min(w - c0 - n0);
        // SAFETY: per the function contract — `c0 + n0 + n1 ≤ w` bounds
        // the masked `C` accesses, `c0 + 2·W ≤ LANES` the `B` loads,
        // `p < kb` the `A` reads.
        unsafe {
            let mut acc = [[L::zero(); 2]; MR];
            if load {
                for r in 0..MR {
                    acc[r] = [L::load_masked(cp[r].add(c0), n0), L::load_masked(cp[r].add(c0 + n0), n1)];
                }
            }
            for p in 0..kb {
                let bp = brow(p).add(c0);
                let (b0, b1) = (L::load(bp), L::load(bp.add(L::W)));
                for r in 0..MR {
                    let av = L::splat(ap[r].add(p * a_col));
                    acc[r] = [L::mac(acc[r][0], av, b0), L::mac(acc[r][1], av, b1)];
                }
            }
            for r in 0..MR {
                L::store_masked(cp[r].add(c0), n0, L::reduce(acc[r][0]));
                L::store_masked(cp[r].add(c0 + n0), n1, L::reduce(acc[r][1]));
            }
        }
    }
}

/// [`tile`] at the instantiation for `rows` output rows: full tiles at
/// `L::MR`, the last rows of a matrix at whatever is left.
///
/// # Safety
///
/// As [`tile`]; `1 ≤ rows ≤ L::MR`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_rows<L: Lanes>(
    rows: usize,
    arow: &impl Fn(usize) -> *const u64,
    a_col: usize,
    kb: usize,
    brow: &impl Fn(usize) -> *const u64,
    crow: &impl Fn(usize) -> *mut u64,
    w: usize,
    load: bool,
) {
    debug_assert!((1..=L::MR).contains(&rows));
    macro_rules! arms {
        ($($mr:literal)*) => {
            match rows.min(L::MR) {
                // SAFETY: the caller's contract, for `rows` rows.
                $($mr => unsafe { tile::<L, $mr>(arow, a_col, kb, brow, crow, w, load) },)*
                _ => unreachable!("a tile holds 1..=MR rows"),
            }
        };
    }
    arms!(1 2 3 4 5 6 7 8);
}

/// Reduction positions a dot accumulator takes between two
/// [`Lanes::reduce`]s: one fewer than the budget, so the masked tail step
/// always fits on top.
const DOT_STEPS: usize = PANEL_ROWS - 1;

/// `C[i][j] = A[i] · B[j]` for `i < MA`, `j < NB`, `k` long: `MA·NB`
/// accumulators, each lane summing the products of its own residue class
/// of positions (value-exact in a field), reduced at least every
/// [`PANEL_ROWS`] products; the last `k % W` positions are a masked load.
/// Lanes are merged by a reduce (`< P25` each), a horizontal sum
/// (`< 8·P25`) and a scalar reduce.
///
/// # Safety
///
/// As [`Lanes`]; every `a[i]`, `b[j]` valid for `k` reads, every `c[i]`
/// for `NB` writes.
#[inline(always)]
unsafe fn dot_block<L: Lanes, const MA: usize, const NB: usize>(
    a: [*const u64; MA],
    b: [*const u64; NB],
    k: usize,
    c: [*mut u64; MA],
) {
    // SAFETY: per the function contract; `p + W ≤ kv ≤ k` bounds the full
    // loads, `kv + (k − kv) = k` the masked one.
    unsafe {
        let mut acc = [[L::zero(); NB]; MA];
        let kv = k - k % L::W;
        let mut p = 0;
        while p < kv {
            let pend = kv.min(p + DOT_STEPS * L::W);
            while p < pend {
                let av: [L::V; MA] = std::array::from_fn(|i| L::load(a[i].add(p)));
                for j in 0..NB {
                    let bv = L::load(b[j].add(p));
                    for i in 0..MA {
                        acc[i][j] = L::mac(acc[i][j], av[i], bv);
                    }
                }
                p += L::W;
            }
            for row in acc.iter_mut() {
                for v in row.iter_mut() {
                    *v = L::reduce(*v);
                }
            }
        }
        if kv < k {
            let av: [L::V; MA] = std::array::from_fn(|i| L::load_masked(a[i].add(kv), k - kv));
            for j in 0..NB {
                let bv = L::load_masked(b[j].add(kv), k - kv);
                for i in 0..MA {
                    acc[i][j] = L::mac(acc[i][j], av[i], bv);
                }
            }
        }
        for (ci, row) in c.iter().zip(&acc) {
            for (j, &v) in row.iter().enumerate() {
                *ci.add(j) = dk_field::F25::reduce_u64(L::hsum(L::reduce(v))).value();
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, LANES, PANEL_ROWS};
    use core::arch::x86_64::*;
    use dk_field::P25;

    const M25: i64 = (1 << 25) - 1;
    /// `2^25 mod P25`; its square is `2^50 mod P25`.
    const C25: i64 = (1 << 25) - P25 as i64;
    const P: i64 = P25 as i64;

    /// AVX2: four lanes, the 32-bit widening multiply.
    pub(super) struct Avx2;

    impl Avx2 {
        /// All-ones in the first `n` lanes.
        #[inline(always)]
        unsafe fn mask(n: usize) -> __m256i {
            // SAFETY: AVX2 per the trait contract.
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
        }
    }

    // SAFETY (every method body here and in `mask`, each an `unsafe fn`
    // under the trait's contract): AVX2 intrinsics, available per that
    // contract; the pointer forms touch exactly the lanes the trait
    // names, which the caller vouches for.
    impl Lanes for Avx2 {
        type V = __m256i;
        const W: usize = 4;
        const MR: usize = 6;

        #[inline(always)]
        unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn load(p: *const u64) -> __m256i {
            _mm256_loadu_si256(p as *const __m256i)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const u64, n: usize) -> __m256i {
            _mm256_maskload_epi64(p as *const i64, Self::mask(n))
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut u64, n: usize, v: __m256i) {
            _mm256_maskstore_epi64(p as *mut i64, Self::mask(n), v)
        }
        #[inline(always)]
        unsafe fn splat(p: *const u64) -> __m256i {
            _mm256_set1_epi64x(*p as i64)
        }
        #[inline(always)]
        unsafe fn mac(acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
            _mm256_add_epi64(acc, _mm256_mul_epu32(a, b))
        }
        #[inline(always)]
        unsafe fn reduce(v: __m256i) -> __m256i {
            let (m, c) = (_mm256_set1_epi64x(M25), _mm256_set1_epi64x(C25));
            let mid = _mm256_and_si256(_mm256_srli_epi64(v, 25), m);
            let hi = _mm256_srli_epi64(v, 50);
            let v1 = Self::mac(Self::mac(_mm256_and_si256(v, m), mid, c), hi, _mm256_set1_epi64x(C25 * C25));
            let v2 = Self::mac(_mm256_and_si256(v1, m), _mm256_srli_epi64(v1, 25), c);
            // `v2 < 2^26`: the high dwords are zero on both sides of the
            // 32-bit signed compare, so it is exact.
            let ge = _mm256_cmpgt_epi32(v2, _mm256_set1_epi64x(P - 1));
            _mm256_sub_epi64(v2, _mm256_and_si256(ge, _mm256_set1_epi64x(P)))
        }
        #[inline(always)]
        unsafe fn hsum(v: __m256i) -> u64 {
            let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
            (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64(s, 1) as u64)
        }
    }

    /// AVX-512 with IFMA: eight lanes, the 52-bit multiply-accumulate.
    pub(super) struct Avx512;

    // SAFETY (every method body): as for `Avx2`, with AVX-512 F and
    // IFMA.
    impl Lanes for Avx512 {
        type V = __m512i;
        const W: usize = 8;
        const MR: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> __m512i {
            _mm512_setzero_si512()
        }
        #[inline(always)]
        unsafe fn load(p: *const u64) -> __m512i {
            _mm512_loadu_si512(p as *const __m512i)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const u64, n: usize) -> __m512i {
            _mm512_maskz_loadu_epi64(((1u32 << n) - 1) as __mmask8, p as *const i64)
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut u64, n: usize, v: __m512i) {
            _mm512_mask_storeu_epi64(p as *mut i64, ((1u32 << n) - 1) as __mmask8, v)
        }
        #[inline(always)]
        unsafe fn splat(p: *const u64) -> __m512i {
            _mm512_set1_epi64(*p as i64)
        }
        #[inline(always)]
        unsafe fn mac(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
            _mm512_madd52lo_epu64(acc, a, b)
        }
        #[inline(always)]
        unsafe fn reduce(v: __m512i) -> __m512i {
            // The multiplier takes 52-bit operands, so `mid` and `hi` fold
            // as one: `v ≫ 25 < 2^33`, `v₁ < 2^38.3`,
            // `v₂ < 2^25 + 39·2^13.3 < 2·P25`.
            let (m, c) = (_mm512_set1_epi64(M25), _mm512_set1_epi64(C25));
            let v1 = Self::mac(_mm512_and_si512(v, m), _mm512_srli_epi64(v, 25), c);
            let v2 = Self::mac(_mm512_and_si512(v1, m), _mm512_srli_epi64(v1, 25), c);
            // `v2 − P` wraps past `v2` exactly when `v2 < P`.
            _mm512_min_epu64(v2, _mm512_sub_epi64(v2, _mm512_set1_epi64(P)))
        }
        #[inline(always)]
        unsafe fn hsum(v: __m512i) -> u64 {
            _mm512_reduce_add_epi64(v) as u64
        }
    }

    // A strip is a whole number of two-register column groups, and a tile
    // is at most the eight rows `tile_rows` instantiates.
    const _: () = assert!(LANES.is_multiple_of(2 * Avx2::W) && LANES.is_multiple_of(2 * Avx512::W));
    const _: () = assert!(Avx2::MR <= 8 && Avx512::MR <= 8);
    // `reduce`'s budget: one canonical carry-in plus a block's products.
    const _: () = assert!(
        (P25 - 1) as u128 + PANEL_ROWS as u128 * ((P25 - 1) as u128 * (P25 - 1) as u128) < 1 << 58
    );
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use dk_field::{derive_seed, F25, P25};

    /// The most a tile lane can hold: one canonical carry-in plus
    /// `PANEL_ROWS` worst-case products.
    const BOUND: u64 = (P25 - 1) + PANEL_ROWS as u64 * (P25 - 1) * (P25 - 1);

    /// `L::reduce` over `vals` (a multiple of `L::W` long), and `L::hsum`
    /// of each reduced register.
    struct ReduceProbe<'a>(&'a [u64]);

    impl Tiled for ReduceProbe<'_> {
        type Out = (Vec<u64>, Vec<u64>);

        #[inline(always)]
        unsafe fn run<L: Lanes>(self) -> Self::Out {
            let (mut out, mut sums) = (vec![0u64; self.0.len()], Vec::new());
            for (src, dst) in self.0.chunks_exact(L::W).zip(out.chunks_exact_mut(L::W)) {
                // SAFETY: both chunks are `W` long; features per the caller.
                unsafe {
                    let r = L::reduce(L::load(src.as_ptr()));
                    L::store_masked(dst.as_mut_ptr(), L::W, r);
                    sums.push(L::hsum(r));
                }
            }
            (out, sums)
        }
    }

    #[test]
    fn vector_reduce_is_the_scalar_reduce_on_every_tier() {
        let mut vals = vec![
            0,
            1,
            P25 - 1,
            P25,
            P25 + 1,
            2 * P25 - 1,
            2 * P25,
            1 << 25,
            (1 << 25) - 1,
            (1 << 50) - 1,
            1 << 50,
            (1 << 50) + 1,
            BOUND - 1,
            BOUND,
            (1 << 58) - 1,
            ((1 << 58) - 1) / P25 * P25,
        ];
        const { assert!(BOUND < 1 << 58) };
        vals.extend((0..4096u64).map(|i| derive_seed(0x5ed, i) >> (6 + i % 40)));
        for tier in Tier::offered() {
            // SAFETY: the probe touches only its own vectors.
            let Some((got, sums)) = (unsafe { on_lanes::<F25, _>(tier, ReduceProbe(&vals)) }) else {
                assert_eq!(tier, Tier::BASELINE, "every vector tier has a lane shim");
                continue;
            };
            let want: Vec<u64> = vals.iter().map(|&v| F25::reduce_u64(v).value()).collect();
            assert_eq!(got, want, "{tier:?}");
            let lanes = vals.len() / sums.len();
            let want_sums: Vec<u64> = want.chunks(lanes).map(|c| c.iter().sum()).collect();
            assert_eq!(sums, want_sums, "{tier:?} hsum");
        }
    }
}
