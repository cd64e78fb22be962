//! Comparison baselines for DarKnight's evaluation.
//!
//! The paper compares against three systems; all are implemented here so
//! the benchmark harness exercises real code, not constants:
//!
//! * [`sgx_only`] — everything (linear *and* non-linear) computed inside
//!   the enclave simulator, with protected-memory accounting. This is
//!   the paper's baseline for every training speedup.
//! * [`slalom`] — Tramèr & Boneh's blinded inference (§7.2): additive
//!   stream-cipher blinding `x + r` with *precomputed* unblinding
//!   factors `W·r` sealed in untrusted memory, plus Freivalds-style
//!   integrity checks. Includes the demonstration of **why Slalom cannot
//!   train**: weight updates invalidate the precomputed factors.
//! * [`gpu_plain`] — non-private GPU execution (Table 4's upper bound).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gpu_plain;
pub mod sgx_only;
pub mod slalom;

pub use sgx_only::SgxOnlyRunner;
pub use slalom::{SlalomError, SlalomSession};
