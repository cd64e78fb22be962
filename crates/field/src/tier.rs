//! One body, compiled once per vector tier.
//!
//! The TEE's per-element passes — quantize, dequantize, the noise draw —
//! are plain loops written so that a compiler vectorizes them: no
//! branch, no call, no early exit in the loop body.
//! How wide they run is then a matter of which instructions the
//! compiler may use, so each is a [`Body`] whose `run` is
//! `#[inline(always)]` and [`Tier::run`] instantiates it once per tier:
//! as it stands for the build's baseline target, and again inside a
//! `#[target_feature]` function for each wider unit an x86-64 CPU may
//! offer. Every instantiation computes the same bits — the bodies use
//! only IEEE operations and integer arithmetic, which a wider register
//! does not change — which the per-tier tests of [`crate::quant`] and
//! [`crate::rng`] check on every tier the host offers. Other
//! architectures run the baseline instantiation of the same body.
//!
//! The tier is looked up per slice call (`is_x86_feature_detected!`
//! caches CPUID in an atomic): no environment variable, feature, option
//! or size threshold chooses it.

/// A loop body [`Tier::run`] compiles once per tier. Implement `run`
/// with `#[inline(always)]`, and everything it calls in the loop
/// likewise, so the whole pass lands inside the tier's function.
pub(crate) trait Body {
    type Out;
    fn run(self) -> Self::Out;
}

/// A vector tier this CPU offers. Only detection builds one
/// ([`Tier::best`], [`Tier::offered`]), so holding a `Tier` is the proof
/// [`Tier::run`]'s `#[target_feature]` calls need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Tier(Kind);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Whatever the build targets (SSE2 on x86-64).
    Baseline,
    /// AVX2: 256-bit integer lanes beside the float ones.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 F/VL/DQ/BW: 512-bit lanes, 32 registers, a vector
    /// rotate. Quantize and dequantize measure 1.5–1.9× faster on it
    /// than on AVX2 (Sapphire Rapids), the noise draw ≈ 1.2×.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kind {
    /// Every tier, best first.
    const ALL: &[Kind] = &[
        #[cfg(target_arch = "x86_64")]
        Kind::Avx512,
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2,
        Kind::Baseline,
    ];

    fn detect(self) -> Option<Tier> {
        let offered = match self {
            Kind::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
        };
        offered.then_some(Tier(self))
    }
}

impl Tier {
    /// The widest tier this CPU offers.
    #[inline]
    pub(crate) fn best() -> Tier {
        Kind::ALL.iter().find_map(|k| k.detect()).expect("the baseline tier is always offered")
    }

    /// Every tier this CPU offers, the baseline included; the ones it
    /// does not are printed once, so a test log says what was skipped.
    #[cfg(test)]
    pub(crate) fn offered() -> Vec<Tier> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            for kind in Kind::ALL.iter().filter(|k| k.detect().is_none()) {
                println!("tier {kind:?} is not offered by this CPU: skipped");
            }
        });
        Kind::ALL.iter().filter_map(|k| k.detect()).collect()
    }

    /// Runs `body` as compiled for this tier.
    #[inline]
    pub(crate) fn run<B: Body>(self, body: B) -> B::Out {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn avx2<B: Body>(body: B) -> B::Out {
            body.run()
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
        fn avx512<B: Body>(body: B) -> B::Out {
            body.run()
        }
        match self.0 {
            Kind::Baseline => body.run(),
            // SAFETY: a `Tier` of this kind exists only where
            // `Kind::detect` saw `is_x86_feature_detected!("avx2")`.
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => unsafe { avx2(body) },
            // SAFETY: as above, for all four of `avx512f`, `avx512vl`,
            // `avx512dq` and `avx512bw`.
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => unsafe { avx512(body) },
        }
    }
}
