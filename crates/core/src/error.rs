//! Error types for the DarKnight core.

use dk_field::QuantError;
use dk_tee::EnclaveError;

/// Errors surfaced by DarKnight sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DarknightError {
    /// Not enough GPU workers for the configuration
    /// (`K' < K + M (+1)`).
    InsufficientWorkers {
        /// Workers required by the configuration.
        required: usize,
        /// Workers available in the cluster.
        available: usize,
    },
    /// The redundant-equation check failed: at least one GPU returned a
    /// tampered result (§4.4).
    IntegrityViolation {
        /// Which linear layer (traversal index) failed.
        layer_id: u64,
        /// `"forward"` or `"backward"`.
        phase: &'static str,
        /// Number of mismatching elements in the redundant equation.
        mismatches: usize,
    },
    /// Quantization failed (non-finite input or field overflow).
    Quant(QuantError),
    /// Enclave failure (protected memory / sealing).
    Enclave(EnclaveError),
    /// The model/input shapes are inconsistent with the virtual batch.
    BatchShape {
        /// Expected count: `K` (or a multiple of it) for a leading
        /// dimension, the sample count `N` for a label list.
        expected: usize,
        /// Actual leading dimension or label count.
        actual: usize,
    },
    /// A GPU fault (worker loss, timeout, remote refusal) that the
    /// session could not repair around — either recovery is disabled or
    /// the TEE-side repair itself was impossible. With recovery enabled
    /// a single fault never surfaces here: the lost worker is
    /// quarantined and the batch completes.
    GpuFault {
        /// Which linear layer (traversal index) was executing.
        layer_id: u64,
        /// `"forward"` or `"backward"`.
        phase: &'static str,
        /// The underlying fault.
        fault: dk_gpu::GpuError,
    },
    /// A backward pass referenced a layer the forward pass never
    /// recorded a context for — fail closed instead of panicking.
    MissingForwardContext {
        /// The offending linear layer.
        layer_id: u64,
    },
    /// A sealed checkpoint could not be restored: truncated/corrupt
    /// payload, or its recorded session/model configuration does not
    /// match the session it is being resumed into.
    Checkpoint {
        /// What failed to match or parse.
        reason: &'static str,
    },
}

impl std::fmt::Display for DarknightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DarknightError::InsufficientWorkers { required, available } => write!(
                f,
                "insufficient GPU workers: configuration needs {required}, cluster has {available}"
            ),
            DarknightError::IntegrityViolation { layer_id, phase, mismatches } => write!(
                f,
                "integrity violation in {phase} pass at linear layer {layer_id} ({mismatches} mismatching elements)"
            ),
            DarknightError::Quant(e) => write!(f, "quantization error: {e}"),
            DarknightError::Enclave(e) => write!(f, "enclave error: {e}"),
            DarknightError::BatchShape { expected, actual } => write!(
                f,
                "batch of {actual} samples or labels where the virtual batch calls for {expected}"
            ),
            DarknightError::GpuFault { layer_id, phase, fault } => write!(
                f,
                "unrecoverable GPU fault in {phase} pass at linear layer {layer_id}: {fault}"
            ),
            DarknightError::MissingForwardContext { layer_id } => write!(
                f,
                "backward pass at linear layer {layer_id} has no stored forward context"
            ),
            DarknightError::Checkpoint { reason } => {
                write!(f, "checkpoint restore failed: {reason}")
            }
        }
    }
}

impl std::error::Error for DarknightError {}

impl From<QuantError> for DarknightError {
    fn from(e: QuantError) -> Self {
        DarknightError::Quant(e)
    }
}

impl From<EnclaveError> for DarknightError {
    fn from(e: EnclaveError) -> Self {
        DarknightError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DarknightError::InsufficientWorkers { required: 6, available: 3 };
        assert!(e.to_string().contains("needs 6"));
        let e = DarknightError::IntegrityViolation { layer_id: 2, phase: "forward", mismatches: 5 };
        assert!(e.to_string().contains("forward"));
        assert!(e.to_string().contains("layer 2"));
    }

    #[test]
    fn gpu_fault_display_names_the_fault() {
        let e = DarknightError::GpuFault {
            layer_id: 3,
            phase: "backward",
            fault: dk_gpu::GpuError::lost(dk_gpu::WorkerId(2), "connection reset"),
        };
        let s = e.to_string();
        assert!(s.contains("backward"), "{s}");
        assert!(s.contains("gpu2"), "{s}");
        let e = DarknightError::MissingForwardContext { layer_id: 7 };
        assert!(e.to_string().contains("layer 7"));
    }

    #[test]
    fn conversions() {
        let q: DarknightError = QuantError::NotFinite.into();
        assert!(matches!(q, DarknightError::Quant(_)));
    }
}
