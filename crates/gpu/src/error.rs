//! Typed accelerator faults.
//!
//! The original dispatch layer treated a dead worker thread as a bug in
//! the simulation and panicked. A wire-protocol fleet cannot: worker
//! processes crash, hang, and reconnect as a matter of routine, and the
//! TEE-side protocol must keep serving through all of it. Every backend
//! fault therefore surfaces as a [`GpuError`] value that the `dk-core`
//! session either converts into the quarantine + recovery flow (the TEE
//! reconstructs a lost worker's row, and keeps offering it work — see
//! [`crate::exec`]) or fails closed with a typed session error — never
//! a process abort. [`GpuError::Withheld`] is the one variant that is
//! not a fault of the worker: the caller asked for it to be skipped.

use crate::worker::WorkerId;

/// A fault in the accelerator backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// The worker is unreachable: its thread terminated, its process
    /// died, or its connection broke and could not be re-established.
    WorkerLost {
        /// Which worker was lost.
        worker: WorkerId,
        /// Human-readable cause (channel closed, connect refused, ...).
        detail: String,
    },
    /// The worker did not answer within the configured deadline. A
    /// timed-out worker may still be alive (straggler); the caller
    /// decides whether to route around it.
    Timeout {
        /// Which worker timed out.
        worker: WorkerId,
        /// How long the caller waited, in milliseconds.
        waited_ms: u64,
    },
    /// More jobs were submitted than the fleet has workers.
    Oversubscribed {
        /// Jobs in the submission.
        jobs: usize,
        /// Workers in the fleet.
        workers: usize,
    },
    /// A remote worker answered with a protocol-level failure (e.g. a
    /// `*Stored` job referencing an encoding it does not hold).
    Remote {
        /// Which worker reported the failure.
        worker: WorkerId,
        /// The worker's error message.
        message: String,
    },
    /// A malformed or incompatible wire frame.
    Protocol {
        /// What was wrong with the frame.
        detail: String,
    },
    /// The caller asked for this worker to be skipped
    /// ([`GpuExec::execute_round_into`](crate::GpuExec::execute_round_into)):
    /// nothing was sent, so there is nothing to wait for. Not a failure
    /// of the worker — the slot is the caller's to fill.
    Withheld {
        /// Which worker was skipped.
        worker: WorkerId,
    },
}

impl GpuError {
    /// Shorthand constructor for [`GpuError::WorkerLost`].
    pub fn lost(worker: WorkerId, detail: impl Into<String>) -> Self {
        GpuError::WorkerLost { worker, detail: detail.into() }
    }

    /// The worker the fault is attributable to, if any.
    pub fn worker(&self) -> Option<WorkerId> {
        match self {
            GpuError::WorkerLost { worker, .. }
            | GpuError::Timeout { worker, .. }
            | GpuError::Remote { worker, .. }
            | GpuError::Withheld { worker } => Some(*worker),
            GpuError::Oversubscribed { .. } | GpuError::Protocol { .. } => None,
        }
    }
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::WorkerLost { worker, detail } => {
                write!(f, "{worker} lost: {detail}")
            }
            GpuError::Timeout { worker, waited_ms } => {
                write!(f, "{worker} timed out after {waited_ms} ms")
            }
            GpuError::Oversubscribed { jobs, workers } => {
                write!(f, "more jobs ({jobs}) than workers ({workers})")
            }
            GpuError::Remote { worker, message } => {
                write!(f, "{worker} reported a failure: {message}")
            }
            GpuError::Protocol { detail } => write!(f, "wire protocol error: {detail}"),
            GpuError::Withheld { worker } => write!(f, "{worker} was sent nothing (withheld)"),
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_attribution() {
        let e = GpuError::lost(WorkerId(3), "inbox closed");
        assert!(e.to_string().contains("gpu3"));
        assert_eq!(e.worker(), Some(WorkerId(3)));
        let t = GpuError::Timeout { worker: WorkerId(1), waited_ms: 40 };
        assert!(t.to_string().contains("40 ms"));
        assert_eq!(t.worker(), Some(WorkerId(1)));
        let o = GpuError::Oversubscribed { jobs: 5, workers: 3 };
        assert!(o.to_string().contains("more jobs"));
        assert_eq!(o.worker(), None);
        let w = GpuError::Withheld { worker: WorkerId(2) };
        assert!(w.to_string().contains("gpu2"));
        assert_eq!(w.worker(), Some(WorkerId(2)));
    }
}
