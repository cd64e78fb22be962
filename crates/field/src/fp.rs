//! Constant-modulus prime-field scalars.
//!
//! [`Fp<P>`] stores a canonical representative in `[0, P)` as a `u64`.
//! The modulus is bounded once, at compile time: `P < 2^31`. Under that
//! bound a product of two canonical elements plus a third fits a `u64`,
//! so every multiply reduces with one Barrett step (multiply + shift, no
//! hardware division), and every value and centered lift fits the 32-bit
//! lanes the quantize, dequantize and wire passes compute in. DarKnight
//! computes in one field:
//!
//! * [`F25`] with `p = 2^25 − 39 = 33_554_393` — the paper's data-plane
//!   prime (§5: "the largest prime with 25 bits"), chosen so that products
//!   of two canonical elements fit comfortably in accelerator arithmetic.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The DarKnight data-plane prime `2^25 − 39`, the largest 25-bit prime.
pub const P25: u64 = (1 << 25) - 39;

/// An element of the prime field `F_P`, stored canonically in `[0, P)`.
///
/// The type is `Copy` and 8 bytes. `P` must be below `2^31`; a larger
/// modulus is refused where the type is first used:
///
/// ```compile_fail,E0080
/// let _ = dk_field::Fp::<{ 1 << 31 }>::new(1);
/// ```
///
/// # Example
///
/// ```
/// use dk_field::F25;
///
/// let x = F25::from_i64(-3); // negative values map to p - 3
/// assert_eq!(x.to_centered_i64(), -3);
/// assert_eq!(x + F25::new(3), F25::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Fp<const P: u64>(u64);

/// DarKnight's data-plane field (`p = 2^25 − 39`).
pub type F25 = Fp<P25>;

impl<const P: u64> Fp<P> {
    /// The modulus bound, evaluated wherever an element is made.
    const BOUND: () = assert!(P < 1 << 31, "Fp needs a modulus below 2^31");

    /// The additive identity.
    pub const ZERO: Self = {
        let () = Self::BOUND;
        Fp(0)
    };
    /// The multiplicative identity.
    pub const ONE: Self = {
        let () = Self::BOUND;
        Fp(1)
    };
    /// The field modulus.
    pub const MODULUS: u64 = P;

    /// Barrett reciprocal `⌊2^64 / P⌋`.
    const BARRETT_MU: u64 = ((1u128 << 64) / P as u128) as u64;

    /// Reduces an arbitrary `u64` modulo `P` by Barrett reduction: one
    /// widening multiply, one shift, one multiply-subtract and a
    /// conditional subtract.
    #[inline]
    pub fn reduce_u64(x: u64) -> Self {
        let () = Self::BOUND;
        // q = ⌊x·µ / 2^64⌋ ∈ {⌊x/P⌋ − 1, ⌊x/P⌋}, so x − q·P ∈ [0, 2P).
        let q = ((x as u128 * Self::BARRETT_MU as u128) >> 64) as u64;
        let mut r = x - q * P;
        if r >= P {
            r -= P;
        }
        Fp(r)
    }

    /// Creates a field element, reducing `v` modulo `P`.
    #[inline]
    pub fn new(v: u64) -> Self {
        Self::reduce_u64(v)
    }

    /// Creates a field element from a canonical representative.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v >= P`.
    #[inline]
    pub fn from_canonical(v: u64) -> Self {
        let () = Self::BOUND;
        debug_assert!(v < P, "non-canonical representative {v} for modulus {P}");
        Fp(v)
    }

    /// Maps a signed integer into the field: negatives become `P − |v| mod P`.
    ///
    /// This is the `Field` procedure of Algorithm 1 in the paper.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        let () = Self::BOUND;
        let m = v.rem_euclid(P as i64);
        Fp(m as u64)
    }

    /// Returns the canonical representative in `[0, P)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Centered lift: returns the representative in `(−P/2, P/2]`.
    ///
    /// The paper's decoder "subtracts p from all the elements larger than
    /// p/2 to restore negative numbers" (§5, Quantization); this is that
    /// operation.
    #[inline]
    pub fn to_centered_i64(self) -> i64 {
        if self.0 > P / 2 {
            self.0 as i64 - P as i64
        } else {
            self.0 as i64
        }
    }

    /// True if this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Raises `self` to the power `e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// Returns `None` for zero, which has no inverse.
    #[inline]
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(P - 2))
        }
    }

    /// Computes `a*b + c` with a single reduction: `a·b + c < 2^63`.
    #[inline]
    pub fn mul_add(a: Self, b: Self, c: Self) -> Self {
        Self::reduce_u64(a.0 * b.0 + c.0)
    }

    /// Batch inversion (Montgomery's trick): inverts every nonzero element
    /// of `xs` in place with one field inversion and `3n` multiplications.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert(xs: &mut [Self]) {
        Self::batch_invert_with(xs, &mut Vec::with_capacity(xs.len()));
    }

    /// Scratch-reusing variant of [`Fp::batch_invert`]: the prefix
    /// products go into the caller's `prefix` buffer (cleared first),
    /// so warm callers invert without touching the allocator. Results
    /// are bit-identical to [`Fp::batch_invert`].
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert_with(xs: &mut [Self], prefix: &mut Vec<Self>) {
        if xs.is_empty() {
            return;
        }
        prefix.clear();
        let mut acc = Self::ONE;
        for &x in xs.iter() {
            assert!(!x.is_zero(), "batch_invert: zero element");
            prefix.push(acc);
            acc *= x;
        }
        // The assert above admits only nonzero factors, and a product of
        // nonzero elements of a prime field is nonzero: `inv` is `Some`.
        #[allow(clippy::expect_used)]
        let mut inv_acc = acc.inv().expect("product of nonzeros is nonzero");
        for i in (0..xs.len()).rev() {
            let orig = xs[i];
            xs[i] = inv_acc * prefix[i];
            inv_acc *= orig;
        }
    }
}

impl<const P: u64> Default for Fp<P> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const P: u64> fmt::Debug for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp<{P}>({})", self.0)
    }
}

impl<const P: u64> fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const P: u64> Add for Fp<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let s = self.0 + rhs.0;
        Fp(if s >= P { s - P } else { s })
    }
}

impl<const P: u64> AddAssign for Fp<P> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const P: u64> Sub for Fp<P> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let s = self.0 + P - rhs.0;
        Fp(if s >= P { s - P } else { s })
    }
}

impl<const P: u64> SubAssign for Fp<P> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const P: u64> Mul for Fp<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        // Both operands are canonical (< 2^31), so the product fits a
        // u64 and Barrett reduction avoids any division.
        Self::reduce_u64(self.0 * rhs.0)
    }
}

impl<const P: u64> MulAssign for Fp<P> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const P: u64> Div for Fp<P> {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    // Field division IS multiplication by the inverse. Zero has none, and
    // `Div` has no way to say so but to panic: the documented contract,
    // as for integer division. Fallible callers use `inv`.
    #[allow(clippy::suspicious_arithmetic_impl, clippy::expect_used)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv().expect("division by zero field element")
    }
}

impl<const P: u64> DivAssign for Fp<P> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const P: u64> Neg for Fp<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Fp(P - self.0)
        }
    }
}

impl<const P: u64> Sum for Fp<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<const P: u64> Product for Fp<P> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<const P: u64> From<u64> for Fp<P> {
    fn from(v: u64) -> Self {
        Self::new(v)
    }
}

impl<const P: u64> From<u32> for Fp<P> {
    fn from(v: u32) -> Self {
        Self::new(v as u64)
    }
}

impl<const P: u64> From<i64> for Fp<P> {
    fn from(v: i64) -> Self {
        Self::from_i64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_prime_sized() {
        assert_eq!(P25, 33_554_393);
    }

    #[test]
    fn add_wraps() {
        let a = F25::new(P25 - 1);
        assert_eq!(a + F25::ONE, F25::ZERO);
        assert_eq!(a + F25::new(2), F25::ONE);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(F25::ZERO - F25::ONE, F25::new(P25 - 1));
    }

    #[test]
    fn neg_zero_is_zero() {
        assert_eq!(-F25::ZERO, F25::ZERO);
        assert_eq!(-F25::ONE, F25::new(P25 - 1));
    }

    #[test]
    fn mul_matches_u128_reference() {
        let a = F25::new(12_345_678);
        let b = F25::new(23_456_789);
        let expect = (12_345_678u128 * 23_456_789u128 % P25 as u128) as u64;
        assert_eq!((a * b).value(), expect);
    }

    #[test]
    fn fermat_inverse() {
        for v in [1u64, 2, 3, 255, 65_537, P25 - 1] {
            let x = F25::new(v);
            assert_eq!(x * x.inv().unwrap(), F25::ONE, "v={v}");
        }
        assert!(F25::ZERO.inv().is_none());
    }

    #[test]
    fn from_i64_negative() {
        let x = F25::from_i64(-1);
        assert_eq!(x.value(), P25 - 1);
        assert_eq!(x.to_centered_i64(), -1);
    }

    #[test]
    fn centered_lift_boundaries() {
        assert_eq!(F25::new(P25 / 2).to_centered_i64(), (P25 / 2) as i64);
        assert_eq!(F25::new(P25 / 2 + 1).to_centered_i64(), -((P25 / 2) as i64));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let x = F25::new(3);
        let mut acc = F25::ONE;
        for e in 0..20u64 {
            assert_eq!(x.pow(e), acc);
            acc *= x;
        }
    }

    #[test]
    fn batch_invert_matches_single() {
        let mut xs: Vec<F25> = (1..100u64).map(F25::new).collect();
        let expect: Vec<F25> = xs.iter().map(|x| x.inv().unwrap()).collect();
        F25::batch_invert(&mut xs);
        assert_eq!(xs, expect);
    }

    #[test]
    fn batch_invert_empty_ok() {
        let mut xs: Vec<F25> = vec![];
        F25::batch_invert(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_invert_rejects_zero() {
        let mut xs = vec![F25::ONE, F25::ZERO];
        F25::batch_invert(&mut xs);
    }

    #[test]
    fn sum_and_product_traits() {
        let xs = [F25::new(2), F25::new(3), F25::new(4)];
        assert_eq!(xs.iter().copied().sum::<F25>(), F25::new(9));
        assert_eq!(xs.iter().copied().product::<F25>(), F25::new(24));
    }

    #[test]
    fn mul_add_single_reduction() {
        let a = F25::new(P25 - 2);
        let b = F25::new(P25 - 3);
        let c = F25::new(P25 - 5);
        assert_eq!(F25::mul_add(a, b, c), a * b + c);
    }

    #[test]
    fn division() {
        let a = F25::new(84);
        let b = F25::new(12);
        assert_eq!(a / b, F25::new(7));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<F25>();
    }

    #[test]
    fn barrett_reduce_u64_matches_modulo() {
        // Walk the full u64 range with a coarse stride plus the edges of
        // every multiple-of-P window near powers of two.
        let mut xs = vec![0u64, 1, P25 - 1, P25, P25 + 1, 2 * P25 - 1, u64::MAX, u64::MAX - 1];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            xs.push(x);
        }
        for &v in &xs {
            assert_eq!(F25::reduce_u64(v).value(), v % P25, "v={v}");
        }
    }

    #[test]
    fn mul_add_matches_u128_reference() {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (a, b, c) = (x % P25, x.rotate_left(17) % P25, x.rotate_left(41) % P25);
            let want = ((a as u128 * b as u128 + c as u128) % P25 as u128) as u64;
            let [a, b, c] = [a, b, c].map(F25::from_canonical);
            assert_eq!(F25::mul_add(a, b, c).value(), want);
        }
    }

    #[test]
    fn mul_exhaustive_boundary_products() {
        // Products of near-modulus operands stress the Barrett bound.
        for a in (P25 - 50)..P25 {
            for b in (P25 - 50)..P25 {
                let expect = (a as u128 * b as u128 % P25 as u128) as u64;
                assert_eq!((F25::from_canonical(a) * F25::from_canonical(b)).value(), expect);
            }
        }
    }
}
