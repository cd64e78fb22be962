//! Session configuration.

use dk_field::QuantConfig;
use dk_linalg::coded::MAX_TERMS;

/// DarKnight deployment parameters.
///
/// * `k` — virtual batch size (inputs linearly combined per encoding
///   round; the paper finds `K = 4` optimal under SGXv1 memory, Fig. 3).
/// * `m` — number of noise vectors = collusion tolerance (§4.5). The
///   base scheme of §4.1 is the `m = 1` case.
/// * `integrity` — adds one redundant equation (and thus one worker) for
///   fault detection (§4.4).
///
/// Worker requirement: `K' ≥ K + M (+1 with integrity)`.
///
/// # Example
///
/// ```
/// use dk_core::DarknightConfig;
///
/// let cfg = DarknightConfig::new(4, 1).with_integrity(true);
/// assert_eq!(cfg.num_encodings(), 6); // K + M + redundant
/// assert_eq!(cfg.workers_required(), 6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DarknightConfig {
    k: usize,
    m: usize,
    integrity: bool,
    recovery: bool,
    quant: QuantConfig,
    seed: u64,
}

impl DarknightConfig {
    /// Creates a configuration with virtual batch `k` and collusion
    /// tolerance `m` (defaults: integrity off, `l = 6` fractional bits,
    /// seed 0xDA2C).
    ///
    /// The default `l` is chosen so that worst-case dot products of the
    /// mini evaluation models stay inside `(−p/2, p/2)`; the paper's
    /// `l = 8` is available via [`DarknightConfig::with_quant`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `m == 0` (at least one noise vector is
    /// required for the one-time-pad argument of §5), or if
    /// `k + m > MAX_TERMS` (16): a scheme is bounded where it is built,
    /// so everything downstream of it — the coded kernels of
    /// [`dk_linalg::coded`] first of all — has one shape. The paper's
    /// own sizing is far inside it (`K = 4` best, `K > 4` losing to
    /// enclave paging, `M = 1–2`).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k > 0, "virtual batch size must be positive");
        assert!(m > 0, "at least one noise vector is required for privacy");
        assert!(k + m <= MAX_TERMS, "k + m must not exceed MAX_TERMS = {MAX_TERMS}");
        Self { k, m, integrity: false, recovery: false, quant: QuantConfig::new(6), seed: 0xDA2C }
    }

    /// Enables/disables the redundant integrity equation.
    pub fn with_integrity(mut self, on: bool) -> Self {
        self.integrity = on;
        self
    }

    /// Enables fault localization and repair on integrity violations
    /// (extension beyond the paper — see [`crate::session`]). Implies
    /// nothing unless integrity is also on: without the redundant
    /// equation, violations are never detected in the first place.
    pub fn with_recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Overrides the quantization parameters.
    pub fn with_quant(mut self, quant: QuantConfig) -> Self {
        self.quant = quant;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Virtual batch size `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Collusion tolerance / noise vector count `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether the redundant integrity equation is enabled.
    pub fn integrity(&self) -> bool {
        self.integrity
    }

    /// Whether integrity violations trigger TEE-side localization and
    /// repair instead of aborting.
    pub fn recovery(&self) -> bool {
        self.recovery
    }

    /// Quantization parameters.
    pub fn quant(&self) -> QuantConfig {
        self.quant
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of masked encodings produced per virtual batch:
    /// `K + M`, plus one if integrity is on.
    pub fn num_encodings(&self) -> usize {
        self.k + self.m + usize::from(self.integrity)
    }

    /// Minimum worker count `K'` (each worker receives at most one
    /// encoding, §3.1 step 4).
    pub fn workers_required(&self) -> usize {
        self.num_encodings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_counts() {
        assert_eq!(DarknightConfig::new(12, 4).num_encodings(), MAX_TERMS);
        let base = DarknightConfig::new(4, 1);
        assert_eq!(base.num_encodings(), 5);
        assert_eq!(base.with_integrity(true).num_encodings(), 6);
        let collusion = DarknightConfig::new(2, 3).with_integrity(true);
        assert_eq!(collusion.num_encodings(), 6);
        assert_eq!(collusion.workers_required(), 6);
    }

    #[test]
    #[should_panic(expected = "noise vector")]
    fn zero_noise_rejected() {
        let _ = DarknightConfig::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_k_rejected() {
        let _ = DarknightConfig::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "MAX_TERMS")]
    fn scheme_past_the_bound_rejected() {
        let _ = DarknightConfig::new(12, 5);
    }

    #[test]
    fn builder_chains() {
        let cfg = DarknightConfig::new(2, 1)
            .with_integrity(true)
            .with_recovery(true)
            .with_quant(QuantConfig::new(8))
            .with_seed(99);
        assert!(cfg.integrity());
        assert!(cfg.recovery());
        assert_eq!(cfg.quant().frac_bits(), 8);
        assert_eq!(cfg.seed(), 99);
    }
}
