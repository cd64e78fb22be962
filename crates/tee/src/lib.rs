//! A software simulation of an SGX-style trusted execution environment.
//!
//! The paper runs DarKnight's encoder/decoder inside an Intel SGX enclave.
//! No SGX hardware exists in this environment, so this crate provides the
//! *algorithmic surface* of the enclave instead:
//!
//! * [`enclave::Enclave`] — a protected-memory budget (the 128 MB EPC of
//!   the paper's hardware), allocation tracking and paging-event
//!   counters. DarKnight's virtual-batch sizing (`K = 4` optimum in
//!   Fig. 3/6b) is entirely a consequence of this budget, so the
//!   simulator enforces it for real.
//! * [`crypto`] — the primitives a real enclave gets from hardware or
//!   its SDK, implemented from scratch: SHA-256 (measurements), ChaCha20
//!   (sealing confidentiality: `dk_field`'s ChaCha block function at 20
//!   rounds, eight blocks per pass, compiled for the CPU's widest vector
//!   tier), SipHash-2-4 (sealing integrity, scalar), and an
//!   encrypt-then-MAC [`crypto::SealKey`], which verifies a blob's tag
//!   before it decrypts a byte.
//! * [`attestation`] — simulated local/remote attestation: code
//!   measurement, quote generation/verification and a toy
//!   Diffie–Hellman key exchange for the TEE↔GPU secure channels.
//! * [`sealed_store`] — the untrusted memory region where Algorithm 2
//!   parks encrypted per-virtual-batch weight updates.
//! * [`channel`] — authenticated-encryption message channels between the
//!   enclave and GPU workers.
//!
//! # Security disclaimer
//!
//! These primitives are faithful implementations of the published
//! algorithms but exist to *simulate* a TEE for research reproduction.
//! Nothing here is hardened (no constant-time guarantees, no side-channel
//! defenses — which the paper also scopes out, §2.1).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attestation;
pub mod channel;
pub mod crypto;
pub mod enclave;
pub mod sealed_store;

pub use enclave::{Enclave, EnclaveError, EpcConfig, MemoryStats};
pub use sealed_store::UntrustedStore;
