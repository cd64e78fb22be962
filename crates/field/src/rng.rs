//! Uniform sampling of field elements.
//!
//! All randomness in the framework flows through [`FieldRng`], a thin
//! wrapper over a seedable ChaCha PRNG, so that every experiment is
//! reproducible from a single seed. Sampling uses rejection to guarantee a
//! perfectly uniform distribution over `[0, P)` — a biased sampler would
//! weaken the one-time-pad argument of the paper's Lemma 1.
//!
//! # Bulk draws
//!
//! Masking one layer draws a uniform element per activation element per
//! noise row, inside the TEE, and nearly all of that time is the ChaCha
//! block function. [`FieldRng::uniform_extend`] therefore asks the
//! generator for the next several hundred `u64`s at once
//! (`ChaCha12Rng::fill_u64`: eight blocks per refill, computed side by
//! side), then rejects and reduces over that buffer, the whole pass
//! compiled once per vector tier ([`crate::tier`]). The stream is
//! unchanged: the refill produces blocks in counter order, so the
//! buffer holds exactly the words that many [`FieldRng::next_u64`]
//! calls return, it never asks for more values than are still wanted
//! (a rejected one is replaced by a further draw, as in
//! [`FieldRng::uniform`]), and the generator is left at the same
//! block, word and counter — so `uniform_extend(n)` is `n` calls of
//! `uniform`, and whatever is drawn next (`fork`, `uniform_f32`,
//! `index`, another `uniform`) sees the stream it always did.

use crate::fp::Fp;
use crate::tier::{Body, Tier, Width};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Deterministically mixes a seed with a label into a new seed
/// (splitmix64 finalizer over the xor-folded pair).
///
/// This is the workspace's *stateless* seed-derivation primitive: unlike
/// [`FieldRng::fork`], which consumes state from a running stream,
/// `derive_seed(seed, label)` depends only on its arguments. The
/// pipelined executor leans on this to give every `(virtual batch,
/// layer)` pair its own mask stream no matter which thread — or in what
/// order — the batch is processed, which is what makes overlapped
/// execution bit-for-bit identical to sequential execution.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable source of uniform field elements.
///
/// # Example
///
/// ```
/// use dk_field::{FieldRng, F25};
///
/// let mut rng = FieldRng::seed_from(42);
/// let x: F25 = rng.uniform();
/// let y: F25 = rng.uniform();
/// assert_ne!(x, y); // overwhelmingly likely
/// ```
#[derive(Debug, Clone)]
pub struct FieldRng {
    inner: ChaCha12Rng,
}

impl FieldRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self { inner: ChaCha12Rng::seed_from_u64(seed) }
    }

    /// Creates a generator from a statelessly derived seed — shorthand
    /// for `seed_from(derive_seed(seed, label))`.
    pub fn derived(seed: u64, label: u64) -> Self {
        Self::seed_from(derive_seed(seed, label))
    }

    /// Derives an independent child generator; used to give each subsystem
    /// (encoder, noise, TEE, workers) its own stream from one master seed.
    pub fn fork(&mut self, label: u64) -> Self {
        let s = self.inner.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::seed_from(s)
    }

    /// Samples a uniformly random element of `F_P` (rejection sampling).
    pub fn uniform<const P: u64>(&mut self) -> Fp<P> {
        self.uniform_below(rejection_zone::<P>())
    }

    /// [`FieldRng::uniform`] with the rejection zone given: the first
    /// draw below `zone`, reduced.
    fn uniform_below<const P: u64>(&mut self, zone: u64) -> Fp<P> {
        loop {
            let v = self.inner.next_u64();
            if v < zone {
                return Fp::new(v);
            }
        }
    }

    /// Samples a uniformly random *nonzero* element of `F_P`.
    pub fn uniform_nonzero<const P: u64>(&mut self) -> Fp<P> {
        loop {
            let x = self.uniform::<P>();
            if !x.is_zero() {
                return x;
            }
        }
    }

    /// Fills a vector with `n` uniform field elements.
    pub fn uniform_vec<const P: u64>(&mut self, n: usize) -> Vec<Fp<P>> {
        let mut out = Vec::new();
        self.uniform_extend(n, &mut out);
        out
    }

    /// Appends `n` uniform field elements to a caller-provided buffer —
    /// the draws of `n` calls of [`FieldRng::uniform`], in bulk (see the
    /// module docs) and without an allocation when `out` has the room
    /// (hot paths pass workspace-recycled buffers).
    pub fn uniform_extend<const P: u64>(&mut self, n: usize, out: &mut Vec<Fp<P>>) {
        self.uniform_extend_on(Tier::best(), rejection_zone::<P>(), n, out);
    }

    /// [`FieldRng::uniform_extend`] on a given tier, with the rejection
    /// zone given.
    fn uniform_extend_on<const P: u64>(
        &mut self,
        tier: Tier,
        zone: u64,
        n: usize,
        out: &mut Vec<Fp<P>>,
    ) {
        out.reserve(n);
        tier.run(UniformExtend { rng: &mut self.inner, zone, n, out });
    }

    /// Samples a uniform `f32` in `[lo, hi)`; used for float-domain
    /// initialization and synthetic data.
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Samples an approximately standard-normal `f32` (sum of uniforms).
    pub fn normal_f32(&mut self) -> f32 {
        // Irwin–Hall with 12 uniforms: mean 6, variance 1.
        let s: f32 = (0..12).map(|_| self.inner.gen::<f32>()).sum();
        s - 6.0
    }

    /// Samples a uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Returns a raw `u64` from the underlying stream.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// The rejection zone of `F_P`, shared by [`FieldRng::uniform`] and
/// [`UniformExtend`]: the largest multiple of `P` below `2^64`. A draw at
/// or above it is replaced by the next one.
const fn rejection_zone<const P: u64>() -> u64 {
    u64::MAX - u64::MAX % P
}

/// `u64`s drawn per pass of [`UniformExtend`]: four wide refills.
const DRAWS: usize = 256;

/// The bulk draw: `n` values below `zone` appended to `out`.
struct UniformExtend<'a, const P: u64> {
    rng: &'a mut ChaCha12Rng,
    zone: u64,
    n: usize,
    out: &'a mut Vec<Fp<P>>,
}

impl<const P: u64> Body for UniformExtend<'_, P> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Self { rng, zone, n, out } = self;
        let target = out.len() + n;
        let mut draws = [0u64; DRAWS];
        while out.len() < target {
            // Never more than are still wanted: each draw yields at most
            // one value, so the stream ends where `n` `uniform`s end it.
            let draws = &mut draws[..(target - out.len()).min(DRAWS)];
            rng.fill_u64(draws);
            out.extend(draws.iter().filter(|&&v| v < zone).map(|&v| Fp::new(v)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{F25, P25};

    #[test]
    fn deterministic_from_seed() {
        let mut a = FieldRng::seed_from(7);
        let mut b = FieldRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform::<P25>(), b.uniform::<P25>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FieldRng::seed_from(1);
        let mut b = FieldRng::seed_from(2);
        let same = (0..64).filter(|_| a.uniform::<P25>() == b.uniform::<P25>()).count();
        assert!(same < 4, "streams should be independent, got {same} collisions");
    }

    #[test]
    fn derive_seed_is_stateless_and_label_sensitive() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        let mut a = FieldRng::derived(9, 1);
        let mut b = FieldRng::derived(9, 2);
        let same = (0..64).filter(|_| a.uniform::<P25>() == b.uniform::<P25>()).count();
        assert!(same < 4, "derived streams should be independent, got {same}");
    }

    #[test]
    fn fork_is_independent() {
        let mut root = FieldRng::seed_from(9);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..64).filter(|_| c1.uniform::<P25>() == c2.uniform::<P25>()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_is_in_range() {
        let mut rng = FieldRng::seed_from(3);
        for _ in 0..10_000 {
            let x: F25 = rng.uniform();
            assert!(x.value() < P25);
        }
    }

    #[test]
    fn nonzero_never_zero() {
        let mut rng = FieldRng::seed_from(4);
        for _ in 0..1_000 {
            assert!(!rng.uniform_nonzero::<P25>().is_zero());
        }
    }

    #[test]
    fn uniformity_chi_square_rough() {
        // 16 buckets over F_p; chi-square should be near 15 for uniform.
        let mut rng = FieldRng::seed_from(5);
        let n = 64_000usize;
        let buckets = 16usize;
        let mut counts = vec![0usize; buckets];
        for _ in 0..n {
            let x: F25 = rng.uniform();
            let b = (x.value() as u128 * buckets as u128 / P25 as u128) as usize;
            counts[b] += 1;
        }
        let expected = n as f64 / buckets as f64;
        let chi2: f64 =
            counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
        // df = 15; P(chi2 > 40) < 0.001 — generous bound to avoid flakiness.
        assert!(chi2 < 40.0, "chi2 = {chi2}");
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = FieldRng::seed_from(6);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal_f32()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    /// A generator left at every kind of stream position: fresh, inside
    /// a block, after an odd number of 32-bit draws (so every later
    /// 64-bit value straddles two words, and some of them two blocks).
    fn at_position(seed: u64, skip_u64: usize, skip_u32: usize) -> FieldRng {
        let mut rng = FieldRng::seed_from(seed);
        for _ in 0..skip_u64 {
            rng.next_u64();
        }
        for _ in 0..skip_u32 {
            rng.uniform_f32(0.0, 1.0);
        }
        rng
    }

    /// `uniform_extend(n)` against `n` calls of `uniform`, both with the
    /// rejection zone `zone`, from one position, then the two generators
    /// against each other.
    fn check_bulk<const P: u64>(
        tier: Tier,
        zone: u64,
        bulk: &mut FieldRng,
        single: &mut FieldRng,
        n: usize,
    ) {
        let mut got = vec![Fp::<P>::ONE; 2];
        bulk.uniform_extend_on(tier, zone, n, &mut got);
        let want: Vec<Fp<P>> = (0..n).map(|_| single.uniform_below(zone)).collect();
        assert_eq!(got[2..], want[..], "{tier:?} n={n}: appended values");
        assert_eq!(got[..2], [Fp::ONE; 2], "{tier:?} n={n}: what `out` held stays");
        assert_eq!(bulk.next_u64(), single.next_u64(), "{tier:?} n={n}: position");
        assert_eq!(
            bulk.fork(n as u64).uniform::<P>(),
            single.fork(n as u64).uniform::<P>(),
            "{tier:?} n={n}: fork"
        );
    }

    #[test]
    fn bulk_draw_is_the_single_draw_stream_on_every_tier() {
        // Around one value, one block (8 values), one wide refill (64)
        // and one pass of the body (256).
        let lens =
            [0, 1, 2, 7, 8, 9, 15, 63, 64, 65, 71, 72, 127, 128, 129, 255, 256, 257, 321, 1037];
        // F25's own zone, where a draw is rejected with probability under
        // `2^-38`, and one that rejects about half the draws, so that the
        // replacement path runs: a rejected value is replaced by a further
        // draw, and the stream still ends where `n` single draws end it.
        // (That zone is no multiple of `P`: the path is under test here,
        // not uniformity.)
        let zones = [rejection_zone::<P25>(), u64::MAX / 2];
        for tier in Tier::offered() {
            for zone in zones {
                for (skip_u64, skip_u32) in
                    [(0, 0), (3, 0), (8, 0), (5, 1), (7, 1), (0, 3), (64, 15)]
                {
                    for &n in &lens {
                        let mut bulk = at_position(n as u64, skip_u64, skip_u32);
                        let mut single = bulk.clone();
                        check_bulk::<P25>(tier, zone, &mut bulk, &mut single, n);
                        // And again from wherever that left them,
                        // interleaved with a 32-bit draw.
                        assert_eq!(bulk.uniform_f32(0.0, 1.0), single.uniform_f32(0.0, 1.0));
                        check_bulk::<P25>(tier, zone, &mut bulk, &mut single, 200 - n.min(100));
                    }
                }
            }
            // The largest modulus `Fp` admits, `2^31 − 1`: other Barrett
            // constants, the same stream.
            const P31: u64 = (1 << 31) - 1;
            let mut bulk = FieldRng::seed_from(77);
            let mut single = bulk.clone();
            for n in [1, 64, 300, 1000] {
                check_bulk::<P31>(tier, rejection_zone::<P31>(), &mut bulk, &mut single, n);
                check_bulk::<P31>(tier, u64::MAX / 2, &mut bulk, &mut single, n);
            }
        }
    }

    #[test]
    fn uniform_vec_is_uniform_extend() {
        let (mut a, mut b) = (FieldRng::seed_from(8), FieldRng::seed_from(8));
        let v: Vec<F25> = a.uniform_vec(100);
        assert_eq!(v, (0..100).map(|_| b.uniform()).collect::<Vec<F25>>());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
