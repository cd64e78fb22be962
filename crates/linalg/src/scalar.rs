//! The element trait shared by the float and field compute domains.
//!
//! Besides ring arithmetic, every [`Scalar`] exposes an **unreduced
//! accumulator** ([`Scalar::Acc`]) so the dense kernels can delay modular
//! reduction: for the 25-bit DarKnight prime, products of two canonical
//! elements fit in 50 bits, so a `u64` accumulator absorbs 2^14
//! multiply-accumulates before a single Barrett fold. `f32` uses a
//! trivial pass-through accumulator, so one generic kernel serves both
//! domains with zero abstraction cost.

use dk_field::{F25, Fp, P25};
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A ring element the generic kernels can compute with.
///
/// Implemented for exactly two element types, `f32` and [`F25`], so the
/// identical im2col/matmul code paths serve both the TEE's float domain
/// and the GPU workers' masked field domain.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// The unreduced dot-product accumulator.
    ///
    /// Kernel contract: starting from [`Scalar::acc_lift`] of a canonical
    /// value, at most [`Scalar::FOLD_INTERVAL`] [`Scalar::mac`] steps may
    /// elapse before [`Scalar::acc_fold`] is called; [`Scalar::acc_finish`]
    /// then produces the exact reduced result. Reduction is *deferred*,
    /// never approximated — the final value is bit-identical to reducing
    /// after every multiply.
    type Acc: Copy + Send + Sync + 'static;

    /// Maximum number of [`Scalar::mac`] steps between folds.
    ///
    /// `usize::MAX` means the accumulator never needs folding (floats).
    const FOLD_INTERVAL: usize;

    /// Whether arithmetic in this domain is **exact** — i.e. results do
    /// not depend on association order or on where fold boundaries land.
    ///
    /// True for the prime fields (addition mod `p` is associative and
    /// commutative, and [`Scalar::acc_fold`] is value-transparent), false
    /// for floats (rounding makes `(a+b)+c ≠ a+(b+c)` in general).
    /// Kernels may only reassociate reductions — e.g. split a dot product
    /// across independent SIMD lanes and sum the lanes at the end — when
    /// this is set; float paths must preserve the reference recurrence
    /// order bit-for-bit, including NaN/∞ propagation.
    const EXACT: bool;

    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// An empty accumulator.
    fn acc_zero() -> Self::Acc;
    /// Lifts a canonical value into the accumulator domain.
    fn acc_lift(self) -> Self::Acc;
    /// One unreduced multiply-accumulate: `acc + a·b`.
    fn mac(acc: Self::Acc, a: Self, b: Self) -> Self::Acc;
    /// Adds two accumulators: the raw sum, with no reduction.
    ///
    /// Capacity contract: the *combined* number of unreduced products
    /// (and lifts) across both operands since their last folds must
    /// respect [`Scalar::FOLD_INTERVAL`], exactly as if all of them had
    /// landed on a single accumulator. Only the [`Scalar::EXACT`]
    /// kernels may use this (it reassociates the reduction); it exists
    /// so a dot product split across SIMD lanes can merge the lanes
    /// without one full modular reduction per lane.
    fn acc_add(a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// Compresses the accumulator back into canonical range (a no-op for
    /// floats, a Barrett reduction for the field).
    fn acc_fold(acc: Self::Acc) -> Self::Acc;
    /// Final exact reduction back to the scalar domain.
    fn acc_finish(acc: Self::Acc) -> Self;
}

impl Scalar for f32 {
    /// Floats accumulate natively; no folding is ever needed.
    type Acc = f32;
    const FOLD_INTERVAL: usize = usize::MAX;
    const EXACT: bool = false;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn acc_zero() -> Self {
        0.0
    }
    #[inline]
    fn acc_lift(self) -> Self {
        self
    }
    #[inline]
    fn mac(acc: Self, a: Self, b: Self) -> Self {
        acc + a * b
    }
    #[inline]
    fn acc_add(a: Self, b: Self) -> Self {
        a + b
    }
    #[inline]
    fn acc_fold(acc: Self) -> Self {
        acc
    }
    #[inline]
    fn acc_finish(acc: Self) -> Self {
        acc
    }
}

/// Largest `n` such that `(P−1) + n·(P−1)²` still fits in a `u64` — the
/// number of unreduced MACs a `u64` accumulator absorbs. For
/// `P = 2^25 − 39` this is exactly `2^14 = 16384`.
const fn u64_fold_interval(p: u64) -> usize {
    let max_term = (p - 1) as u128 * (p - 1) as u128;
    ((u64::MAX as u128 - (p - 1) as u128) / max_term) as usize
}

impl Scalar for F25 {
    /// Products of canonical 25-bit elements fit in 50 bits, so a plain
    /// `u64` absorbs 2^14 of them before one Barrett fold.
    type Acc = u64;
    const FOLD_INTERVAL: usize = u64_fold_interval(P25);
    const EXACT: bool = true;

    fn zero() -> Self {
        Fp::ZERO
    }
    fn one() -> Self {
        Fp::ONE
    }
    #[inline]
    fn acc_zero() -> u64 {
        0
    }
    #[inline]
    fn acc_lift(self) -> u64 {
        self.value()
    }
    #[inline]
    fn mac(acc: u64, a: Self, b: Self) -> u64 {
        // Canonical values are < 2^25, so the product of the low 32 bits
        // is the full product; phrasing it as a 32×32→64 multiply lets
        // the autovectorizer use the packed widening multiply (`pmuludq`)
        // instead of a full 64×64 lane multiply.
        acc + (a.value() as u32 as u64) * (b.value() as u32 as u64)
    }
    #[inline]
    fn acc_add(a: u64, b: u64) -> u64 {
        a + b
    }
    #[inline]
    fn acc_fold(acc: u64) -> u64 {
        F25::reduce_u64(acc).value()
    }
    #[inline]
    fn acc_finish(acc: u64) -> Self {
        F25::reduce_u64(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_dot<T: Scalar>(a: &[T], b: &[T]) -> T {
        let mut acc = T::zero();
        for (&x, &y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    #[test]
    fn dot_works_in_both_domains() {
        let af = [1.0f32, 2.0, 3.0];
        let bf = [4.0f32, 5.0, 6.0];
        assert_eq!(generic_dot(&af, &bf), 32.0);

        let aq: Vec<F25> = [1u64, 2, 3].iter().map(|&v| F25::new(v)).collect();
        let bq: Vec<F25> = [4u64, 5, 6].iter().map(|&v| F25::new(v)).collect();
        assert_eq!(generic_dot(&aq, &bq), F25::new(32));
    }

    #[test]
    fn identities() {
        assert_eq!(f32::zero() + f32::one(), 1.0);
        assert_eq!(F25::zero() + F25::one(), F25::ONE);
    }

    #[test]
    fn f25_fold_interval_is_2_pow_14() {
        assert_eq!(F25::FOLD_INTERVAL, 1 << 14);
    }

    #[test]
    fn f25_acc_saturates_exactly_at_interval() {
        // FOLD_INTERVAL worst-case MACs on top of a lifted canonical
        // value must not overflow, and the fold must reduce exactly.
        let big = F25::new(dk_field::P25 - 1);
        let mut acc = big.acc_lift();
        for _ in 0..F25::FOLD_INTERVAL {
            acc = F25::mac(acc, big, big);
        }
        let expect = {
            let mut v = big;
            let sq = big * big;
            for _ in 0..F25::FOLD_INTERVAL {
                v += sq;
            }
            v
        };
        assert_eq!(F25::acc_finish(acc), expect);
        assert_eq!(F25::acc_finish(F25::acc_fold(acc)), expect);
    }
}
