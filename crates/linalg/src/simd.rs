//! Hand-vectorized `F25` inner kernels for x86-64.
//!
//! The generic lane-strip kernels in [`crate::matmul`] are written so
//! the autovectorizer *can* emit SIMD for them, and it does for floats —
//! but for the 25-bit field the widening `u32×u32→u64` multiply chain
//! defeats both the loop vectorizer (it keeps the accumulator strip
//! stack-resident) and the SLP vectorizer (it leaves eight scalar
//! `imul`s). The fix that actually sticks is explicit AVX2: canonical
//! `F25` values are `u64`s below `2^25`, so the packed widening multiply
//! (`vpmuludq`, which reads the low 32 bits of each 64-bit lane)
//! computes four exact unreduced products per instruction, and `vpaddq`
//! accumulates them — the same delayed-Barrett-fold schedule as the
//! generic kernel, four lanes at a time.
//!
//! There is one hand-written tier. AVX2 is detected at runtime; an
//! x86-64 CPU without it takes the portable kernels — the path aarch64
//! runs, and the one the `f32` / `F61` instantiations exercise on every
//! host — rather than a second, SSE2 copy of each kernel that no AVX2
//! host (CI, the benchmark host, every committed number) would ever
//! execute or test.
//!
//! Dispatch is by `TypeId` from the generic kernels: the comparison is
//! against a monomorphized constant, so every non-`F25` instantiation
//! const-folds the check away and keeps its portable loop. Field
//! arithmetic is exact ([`crate::Scalar::EXACT`]), so lane splits and
//! fold placement cannot change any result: these kernels remain
//! bit-for-bit identical to [`crate::reference`], which the
//! `kernel_equivalence` and proptest suites check on every run.
//!
//! Without AVX2 — and on non-x86-64 targets — every `try_*` entry point
//! returns `false` and the portable kernels run unchanged.

#[cfg(target_arch = "x86_64")]
use crate::coded::MAX_TERMS;
use crate::matmul::LANES;
use crate::scalar::Scalar;
use std::any::TypeId;

/// `true` iff the monomorphized element type is exactly [`dk_field::F25`].
/// Compares two constants, so it folds to `true`/`false` at compile time.
#[inline(always)]
fn is_f25<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<dk_field::F25>()
}

/// The packed-panel matmul micro-kernel (contract as
/// [`crate::matmul`]'s `lane_strip`). Returns `false` (caller runs the
/// portable kernel) unless `T` is `F25` on x86-64 with AVX2.
#[inline(always)]
pub(crate) fn try_f25_lane_strip<T: Scalar>(
    a: &[T],
    a_stride: usize,
    panel: &[T],
    cs: &mut [T; LANES],
    load: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if is_f25::<T>() && x86::has_avx2() {
            let kb = panel.len() / LANES;
            assert!(panel.len() == kb * LANES && (kb == 0 || (kb - 1) * a_stride < a.len()));
            // One block's products must fit the u64 lanes without a fold.
            assert!(kb <= <dk_field::F25 as Scalar>::FOLD_INTERVAL);
            // SAFETY: `T == F25` (TypeId-checked), so these casts are
            // identities; `F25` is `repr(transparent)` over `u64`.
            let (a, panel, cs) = unsafe {
                (
                    cast_slice::<T>(a),
                    cast_slice::<T>(panel),
                    &mut *(cs as *mut [T; LANES] as *mut [dk_field::F25; LANES]),
                )
            };
            // SAFETY: the assert above is the body's precondition, and
            // `has_avx2()` was checked on the way in.
            unsafe { x86::lane_strip_avx2(a, a_stride, panel, cs, load) };
            return true;
        }
    }
    let _ = (a, a_stride, panel, cs, load);
    false
}

/// `C[rows×n] = A[rows×k] · Bᵀ` (`B` stored `n×k`) — the dot-orientation
/// block, vectorized along the reduction dimension. Returns `false`
/// unless `T` is `F25` on x86-64 with AVX2.
pub(crate) fn try_f25_a_bt_block<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    rows: usize,
    k: usize,
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if is_f25::<T>() && x86::has_avx2() {
            // SAFETY: identity casts as in `try_f25_lane_strip`.
            let (a, b, c) = unsafe {
                (
                    cast_slice::<T>(a),
                    cast_slice::<T>(b),
                    std::slice::from_raw_parts_mut(c.as_mut_ptr() as *mut dk_field::F25, c.len()),
                )
            };
            for i in 0..rows {
                let arow = &a[i * k..(i + 1) * k];
                for (j, cj) in c[i * n..(i + 1) * n].iter_mut().enumerate() {
                    let brow = &b[j * k..(j + 1) * k];
                    // SAFETY: equal-length rows; AVX2 was detected above.
                    *cj = unsafe { x86::dot_avx2(arow, brow) };
                }
            }
            return true;
        }
    }
    let _ = (a, b, c, rows, k, n);
    false
}

/// `C strip += Σ_p crow[p] · xs[p][j..j+LANES]` — the coded-combine
/// strip, where each reduction position reads its **own** row slice
/// instead of a stride of one flat matrix. Returns `false` unless `T`
/// is `F25` on x86-64 with AVX2.
///
/// # Panics
///
/// On the AVX2 path, if `crow` holds more than
/// [`MAX_TERMS`](crate::coded::MAX_TERMS) terms or
/// `xs` a different number of rows: one register group is the kernel's
/// precondition (the canonical strip init plus that many products stay
/// far below the u64 budget, so there are no mid-strip folds).
#[inline(always)]
pub(crate) fn try_f25_coded_strip<T: Scalar>(
    crow: &[T],
    xs: &[&[T]],
    cs: &mut [T; LANES],
    j: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if is_f25::<T>() && x86::has_avx2() {
            assert!(crow.len() <= MAX_TERMS && xs.len() == crow.len());
            // SAFETY: identity casts as in `try_f25_lane_strip`.
            let crow_f = unsafe { cast_slice::<T>(crow) };
            let mut xp = [std::ptr::null::<dk_field::F25>(); MAX_TERMS];
            for (d, s) in xp.iter_mut().zip(xs.iter()) {
                debug_assert!(s.len() >= j + LANES);
                *d = s.as_ptr() as *const dk_field::F25;
            }
            let cs_f = unsafe { &mut *(cs as *mut [T; LANES] as *mut [dk_field::F25; LANES]) };
            // SAFETY: strip callers guarantee `j + LANES` elements in
            // every row; AVX2 was detected above.
            unsafe { x86::coded_strip_avx2(crow_f, &xp[..crow_f.len()], cs_f, j) };
            return true;
        }
    }
    let _ = (crow, xs, cs, j);
    false
}

/// Store-mode variant of [`try_f25_coded_strip`]: accumulators start
/// from the canonical lift of zero and the finished lanes are written
/// straight through `out` — the destination is never read, so it may
/// be uninitialized (recycled pool capacity).
///
/// # Panics
///
/// As [`try_f25_coded_strip`].
///
/// # Safety
///
/// `out` must be valid for [`LANES`] writes and every row in `xs` must
/// hold at least `j + LANES` elements.
pub(crate) unsafe fn try_f25_coded_strip_store<T: Scalar>(
    crow: &[T],
    xs: &[&[T]],
    out: *mut T,
    j: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if is_f25::<T>() && x86::has_avx2() {
            assert!(crow.len() <= MAX_TERMS && xs.len() == crow.len());
            // SAFETY: identity casts as in `try_f25_lane_strip`.
            let crow_f = unsafe { cast_slice::<T>(crow) };
            let mut xp = [std::ptr::null::<dk_field::F25>(); MAX_TERMS];
            for (d, s) in xp.iter_mut().zip(xs.iter()) {
                debug_assert!(s.len() >= j + LANES);
                *d = s.as_ptr() as *const dk_field::F25;
            }
            let out_f = out as *mut dk_field::F25;
            // SAFETY: caller guarantees `j + LANES` elements per row and
            // `LANES` writable slots at `out`; AVX2 was detected above.
            unsafe { x86::coded_strip_store_avx2(crow_f, &xp[..crow_f.len()], out_f, j) };
            return true;
        }
    }
    let _ = (crow, xs, out, j);
    false
}

/// Reinterprets `&[T]` as `&[F25]`. Caller must have proven `T == F25`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn cast_slice<T: 'static>(s: &[T]) -> &[dk_field::F25] {
    debug_assert!(is_f25::<T>());
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const dk_field::F25, s.len()) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LANES;
    use crate::scalar::Scalar;
    use core::arch::x86_64::*;
    use dk_field::F25;
    use std::sync::OnceLock;

    // The strip kernels hard-code their register allocation: 16 lanes
    // are four AVX2 accumulators.
    const _: () = assert!(LANES == 16);

    /// One fold chunk: the per-lane unreduced-product budget of the
    /// `u64` accumulator (2^14 for the 25-bit prime).
    const CHUNK: usize = <F25 as Scalar>::FOLD_INTERVAL;

    pub(super) fn has_avx2() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// Reduces all four `u64` lanes to canonical `F25` entirely
    /// in-register, for lanes bounded by the coded-strip budget:
    /// at most `MAX_TERMS = 16` products plus one
    /// canonical carry-in, i.e. `v < 2^25 + 16·(P25−1)² < 2^54.1`.
    ///
    /// Two pseudo-Mersenne folds (`2^25 ≡ 39 (mod P25)`) bring the
    /// value under `2·P25`, then one masked subtract lands canonical —
    /// the canonical residue is unique, so the bits match the scalar
    /// Barrett [`F25::reduce_u64`] exactly. After the first fold
    /// `v₁ ≤ 2^25 + (2^29)·39 < 2^34.3`; after the second
    /// `v₂ ≤ 2^25 + 625·39 < 2·P25` and fits in 31 bits, so the
    /// 32-bit signed compare used for the subtract mask is exact (the
    /// high dwords are zero on both sides and compare false).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce4_coded(v: __m256i) -> __m256i {
        {
            let mask = _mm256_set1_epi64x((1i64 << 25) - 1);
            let c39 = _mm256_set1_epi64x(39);
            let v1 = _mm256_add_epi64(
                _mm256_and_si256(v, mask),
                _mm256_mul_epu32(_mm256_srli_epi64(v, 25), c39),
            );
            let v2 = _mm256_add_epi64(
                _mm256_and_si256(v1, mask),
                _mm256_mul_epu32(_mm256_srli_epi64(v1, 25), c39),
            );
            let p = _mm256_set1_epi64x(dk_field::P25 as i64);
            let gt = _mm256_cmpgt_epi32(v2, _mm256_set1_epi64x((dk_field::P25 - 1) as i64));
            _mm256_sub_epi64(v2, _mm256_and_si256(gt, p))
        }
    }

    /// Folds all four `u64` lanes back to canonical range.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold4(v: __m256i) -> __m256i {
        let mut t = [0u64; 4];
        unsafe { _mm256_storeu_si256(t.as_mut_ptr() as *mut __m256i, v) };
        _mm256_set_epi64x(
            F25::reduce_u64(t[3]).value() as i64,
            F25::reduce_u64(t[2]).value() as i64,
            F25::reduce_u64(t[1]).value() as i64,
            F25::reduce_u64(t[0]).value() as i64,
        )
    }

    /// AVX2 matmul strip over one packed panel block: sixteen column
    /// accumulators in four `ymm` registers, four exact widening
    /// products per `vpmuludq`, panel rows at the constant stride
    /// [`LANES`]. With `load`, the accumulators start from the lifted C
    /// strip, exactly like the portable kernel (`acc_lift` is the
    /// canonical value). A block holds at most `PANEL_ROWS` products per
    /// lane on top of one canonical value, far inside the `u64` budget,
    /// so there is no fold inside the loop.
    ///
    /// # Safety
    ///
    /// With `kb = panel.len() / LANES`: `panel.len() == kb * LANES` and
    /// `a` holds element `(kb - 1) * a_stride`. The CPU must support
    /// AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_strip_avx2(
        a: &[F25],
        a_stride: usize,
        panel: &[F25],
        cs: &mut [F25; LANES],
        load: bool,
    ) {
        unsafe {
            let z = _mm256_setzero_si256();
            let (mut a0, mut a1, mut a2, mut a3) = (z, z, z, z);
            if load {
                let cp = cs.as_ptr() as *const __m256i;
                a0 = _mm256_loadu_si256(cp);
                a1 = _mm256_loadu_si256(cp.add(1));
                a2 = _mm256_loadu_si256(cp.add(2));
                a3 = _mm256_loadu_si256(cp.add(3));
            }
            for p in 0..panel.len() / LANES {
                let aip = a.get_unchecked(p * a_stride).value();
                if aip == 0 {
                    continue;
                }
                let av = _mm256_set1_epi64x(aip as i64);
                let bp = panel.as_ptr().add(p * LANES) as *const __m256i;
                a0 = _mm256_add_epi64(a0, _mm256_mul_epu32(av, _mm256_loadu_si256(bp)));
                a1 = _mm256_add_epi64(a1, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(1))));
                a2 = _mm256_add_epi64(a2, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(2))));
                a3 = _mm256_add_epi64(a3, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(3))));
            }
            let mut t = [0u64; LANES];
            _mm256_storeu_si256(t.as_mut_ptr() as *mut __m256i, a0);
            _mm256_storeu_si256(t.as_mut_ptr().add(4) as *mut __m256i, a1);
            _mm256_storeu_si256(t.as_mut_ptr().add(8) as *mut __m256i, a2);
            _mm256_storeu_si256(t.as_mut_ptr().add(12) as *mut __m256i, a3);
            for (c, &v) in cs.iter_mut().zip(t.iter()) {
                *c = F25::reduce_u64(v);
            }
        }
    }

    /// AVX2 coded-combine strip: like [`lane_strip_avx2`] but each
    /// reduction position `p` loads from its own row pointer `xp[p]`
    /// (the stacked coding rows are separate workspace vectors, never
    /// copied flat). At most 16 positions per call — the canonical
    /// strip init plus 16 unreduced products stay below `2^55`, so no
    /// mid-strip folds are needed.
    ///
    /// # Safety
    ///
    /// Every `xp[p]` must be valid for `j + LANES` elements, and the
    /// CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn coded_strip_avx2(
        crow: &[F25],
        xp: &[*const F25],
        cs: &mut [F25; LANES],
        j: usize,
    ) {
        unsafe {
            let cp = cs.as_ptr() as *const __m256i;
            let mut a0 = _mm256_loadu_si256(cp);
            let mut a1 = _mm256_loadu_si256(cp.add(1));
            let mut a2 = _mm256_loadu_si256(cp.add(2));
            let mut a3 = _mm256_loadu_si256(cp.add(3));
            for (p, &xr) in xp.iter().enumerate() {
                let aip = crow.get_unchecked(p).value();
                if aip == 0 {
                    continue;
                }
                let av = _mm256_set1_epi64x(aip as i64);
                let bp = xr.add(j) as *const __m256i;
                a0 = _mm256_add_epi64(a0, _mm256_mul_epu32(av, _mm256_loadu_si256(bp)));
                a1 = _mm256_add_epi64(a1, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(1))));
                a2 = _mm256_add_epi64(a2, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(2))));
                a3 = _mm256_add_epi64(a3, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(3))));
            }
            let out = cs.as_mut_ptr() as *mut __m256i;
            _mm256_storeu_si256(out, reduce4_coded(a0));
            _mm256_storeu_si256(out.add(1), reduce4_coded(a1));
            _mm256_storeu_si256(out.add(2), reduce4_coded(a2));
            _mm256_storeu_si256(out.add(3), reduce4_coded(a3));
        }
    }

    /// AVX2 coded-combine strip, store mode: the accumulators start at
    /// zero (the canonical lift of a zeroed strip, so bit-identical to
    /// accumulating into zeroed lanes) and the finished values go
    /// straight through `out` — the destination is never read.
    ///
    /// # Safety
    ///
    /// As [`coded_strip_avx2`], plus `out` must be valid for [`LANES`]
    /// writes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn coded_strip_store_avx2(
        crow: &[F25],
        xp: &[*const F25],
        out: *mut F25,
        j: usize,
    ) {
        unsafe {
            let mut a0 = _mm256_setzero_si256();
            let mut a1 = _mm256_setzero_si256();
            let mut a2 = _mm256_setzero_si256();
            let mut a3 = _mm256_setzero_si256();
            for (p, &xr) in xp.iter().enumerate() {
                let aip = crow.get_unchecked(p).value();
                if aip == 0 {
                    continue;
                }
                let av = _mm256_set1_epi64x(aip as i64);
                let bp = xr.add(j) as *const __m256i;
                a0 = _mm256_add_epi64(a0, _mm256_mul_epu32(av, _mm256_loadu_si256(bp)));
                a1 = _mm256_add_epi64(a1, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(1))));
                a2 = _mm256_add_epi64(a2, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(2))));
                a3 = _mm256_add_epi64(a3, _mm256_mul_epu32(av, _mm256_loadu_si256(bp.add(3))));
            }
            let op = out as *mut __m256i;
            _mm256_storeu_si256(op, reduce4_coded(a0));
            _mm256_storeu_si256(op.add(1), reduce4_coded(a1));
            _mm256_storeu_si256(op.add(2), reduce4_coded(a2));
            _mm256_storeu_si256(op.add(3), reduce4_coded(a3));
        }
    }

    /// Adds the two `u64` halves of an `xmm` accumulator pair-tree and
    /// runs the scalar tail: the dot kernel's epilogue.
    ///
    /// Capacity: the caller guarantees at most [`CHUNK`] unreduced
    /// products (plus up to one canonical carry-over per sub-lane) are
    /// spread across the lanes being merged, which is within a single
    /// accumulator's budget — the same reassociation argument as the
    /// portable `a_bt_block_exact`, value-exact in a field.
    #[inline(always)]
    unsafe fn dot_tail(merged: __m128i, arow: &[F25], brow: &[F25], kv: usize) -> F25 {
        let mut t = [0u64; 2];
        unsafe { _mm_storeu_si128(t.as_mut_ptr() as *mut __m128i, merged) };
        let mut acc = t[0] + t[1];
        if kv < arow.len() {
            acc = F25::acc_fold(acc);
            for p in kv..arow.len() {
                acc = F25::mac(acc, arow[p], brow[p]);
            }
        }
        F25::acc_finish(acc)
    }

    /// AVX2 dot product along `k`: sixteen sub-accumulators in four
    /// `ymm` registers, merged exactly at the end.
    ///
    /// # Safety
    ///
    /// Requires `brow.len() >= arow.len()`, and the CPU must support
    /// AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_avx2(arow: &[F25], brow: &[F25]) -> F25 {
        unsafe {
            let k = arow.len();
            const STRIDE: usize = 16;
            let kv = k - k % STRIDE;
            let mut a0 = _mm256_setzero_si256();
            let mut a1 = _mm256_setzero_si256();
            let mut a2 = _mm256_setzero_si256();
            let mut a3 = _mm256_setzero_si256();
            let chunk = CHUNK - CHUNK % STRIDE;
            let mut p0 = 0;
            while p0 < kv {
                let pend = kv.min(p0.saturating_add(chunk));
                let mut p = p0;
                while p < pend {
                    let ap = arow.as_ptr().add(p) as *const __m256i;
                    let bp = brow.as_ptr().add(p) as *const __m256i;
                    a0 = _mm256_add_epi64(
                        a0,
                        _mm256_mul_epu32(_mm256_loadu_si256(ap), _mm256_loadu_si256(bp)),
                    );
                    a1 = _mm256_add_epi64(
                        a1,
                        _mm256_mul_epu32(_mm256_loadu_si256(ap.add(1)), _mm256_loadu_si256(bp.add(1))),
                    );
                    a2 = _mm256_add_epi64(
                        a2,
                        _mm256_mul_epu32(_mm256_loadu_si256(ap.add(2)), _mm256_loadu_si256(bp.add(2))),
                    );
                    a3 = _mm256_add_epi64(
                        a3,
                        _mm256_mul_epu32(_mm256_loadu_si256(ap.add(3)), _mm256_loadu_si256(bp.add(3))),
                    );
                    p += STRIDE;
                }
                p0 = pend;
                if p0 < kv {
                    a0 = fold4(a0);
                    a1 = fold4(a1);
                    a2 = fold4(a2);
                    a3 = fold4(a3);
                }
            }
            let s = _mm256_add_epi64(_mm256_add_epi64(a0, a1), _mm256_add_epi64(a2, a3));
            let merged =
                _mm_add_epi64(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
            dot_tail(merged, arow, brow, kv)
        }
    }
}
