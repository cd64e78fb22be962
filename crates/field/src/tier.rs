//! The workspace's vector tiers: one ladder, detected once, and one way
//! to compile a pass for each rung.
//!
//! The ladder, best first:
//!
//! * **AVX-512** — F, VL, DQ, BW *and* IFMA: 512-bit lanes, 32
//!   registers, a vector rotate, and the 52-bit multiply-accumulate
//!   (`vpmadd52luq`) the 25-bit prime is sized for. Every SGX-capable
//!   Xeon from Ice Lake-SP on offers all five; a CPU with AVX-512 but no
//!   IFMA runs the AVX2 rung.
//! * **AVX2** — 256-bit integer lanes beside the float ones.
//! * **Baseline** — whatever the build targets (SSE2 on x86-64), and the
//!   only rung on every other architecture.
//!
//! [`Tier::best`] asks the CPU once per process; this module is the only
//! place in the workspace that asks. No environment variable, feature,
//! option or size threshold chooses a tier.
//!
//! A pass is written once, as a [`Body`], and [`Tier::run`] compiles it
//! once per rung: as it stands for the baseline, and inside a
//! `#[target_feature]` function for each wider rung. The body learns the
//! rung through its [`Width`] parameter. This crate's element passes —
//! quantize, dequantize, the noise draw and its ChaCha refills, the
//! wire's lane pack and unpack — and `dk_tee`'s seal cipher ignore it:
//! they are branch-free loops the compiler vectorizes at whatever width
//! it may use. `dk_linalg`'s register tile picks its lane shim by
//! [`Width::KIND`]. Every instantiation computes the same bits,
//! which the per-tier tests of both crates check on every rung
//! [`Tier::offered`] names.

use std::sync::OnceLock;

/// A pass [`Tier::run`] compiles once per tier. Implement `run` with
/// `#[inline(always)]`, and everything it calls in the loop likewise, so
/// the whole pass lands inside the tier's function.
pub trait Body {
    type Out;
    /// The pass as compiled for `W`. Only [`Tier::run`] can supply a
    /// `W`, from inside a function carrying its `#[target_feature]`s, so
    /// the pass may use `W::KIND`'s instructions.
    fn run<W: Width>(self, width: W) -> Self::Out;
}

/// The rung one instantiation of a [`Body`] is compiled for. Sealed: its
/// only implementors are private to this module.
pub trait Width: sealed::Sealed {
    const KIND: Kind;
}

mod sealed {
    pub trait Sealed {}
}

/// The rungs by name. Naming one proves nothing; holding a [`Tier`] does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

struct OnBaseline;
impl sealed::Sealed for OnBaseline {}
impl Width for OnBaseline {
    const KIND: Kind = Kind::Baseline;
}

#[cfg(target_arch = "x86_64")]
struct OnAvx2;
#[cfg(target_arch = "x86_64")]
impl sealed::Sealed for OnAvx2 {}
#[cfg(target_arch = "x86_64")]
impl Width for OnAvx2 {
    const KIND: Kind = Kind::Avx2;
}

#[cfg(target_arch = "x86_64")]
struct OnAvx512;
#[cfg(target_arch = "x86_64")]
impl sealed::Sealed for OnAvx512 {}
#[cfg(target_arch = "x86_64")]
impl Width for OnAvx512 {
    const KIND: Kind = Kind::Avx512;
}

impl Kind {
    /// Every rung, best first.
    const ALL: &[Kind] = &[
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512,
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2,
        Kind::Baseline,
    ];

    fn offered(self) -> bool {
        match self {
            Kind::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512ifma")
            }
        }
    }
}

/// A tier this CPU offers. Only detection builds a vector one
/// ([`Tier::best`], [`Tier::offered`]), so holding a `Tier` is the proof
/// [`Tier::run`]'s `#[target_feature]` calls need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tier(Kind);

impl Tier {
    /// The baseline rung: always offered, so it proves nothing.
    pub const BASELINE: Tier = Tier(Kind::Baseline);

    /// The widest tier this CPU offers, detected once per process.
    #[inline]
    pub fn best() -> Tier {
        static BEST: OnceLock<Tier> = OnceLock::new();
        *BEST.get_or_init(|| Tier::offered_quietly().next().unwrap_or(Tier::BASELINE))
    }

    /// Every tier this CPU offers, best first, the baseline last: what
    /// the per-tier tests of this crate and `dk_linalg` iterate. The
    /// rungs it lacks are printed once per process, so a test log says
    /// what was skipped.
    pub fn offered() -> Vec<Tier> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            for kind in Kind::ALL.iter().filter(|k| !k.offered()) {
                println!("tier {kind:?} is not offered by this CPU: skipped");
            }
        });
        Tier::offered_quietly().collect()
    }

    fn offered_quietly() -> impl Iterator<Item = Tier> {
        Kind::ALL.iter().filter(|k| k.offered()).map(|&k| Tier(k))
    }

    /// Runs `body` as compiled for this tier.
    #[inline]
    pub fn run<B: Body>(self, body: B) -> B::Out {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn avx2<B: Body>(body: B) -> B::Out {
            body.run(OnAvx2)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw,avx512ifma")]
        fn avx512<B: Body>(body: B) -> B::Out {
            body.run(OnAvx512)
        }
        match self.0 {
            Kind::Baseline => body.run(OnBaseline),
            // SAFETY: a `Tier` of this kind exists only where
            // `Kind::offered` saw `is_x86_feature_detected!("avx2")`.
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => unsafe { avx2(body) },
            // SAFETY: as above, for all five AVX-512 features enabled.
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => unsafe { avx512(body) },
        }
    }
}
