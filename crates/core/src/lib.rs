//! DarKnight: privacy- and integrity-preserving deep learning on
//! untrusted accelerators — a full reproduction of Hashemi, Wang &
//! Annavaram, *DarKnight* (MICRO 2021), in Rust.
//!
//! The framework splits every training/inference step between a trusted
//! execution environment and untrusted GPU workers:
//!
//! * the TEE quantizes activations into `F_{2^25−39}`, masks a *virtual
//!   batch* of `K` inputs with `M` uniform noise vectors through a secret
//!   coefficient matrix `A` ([`scheme::EncodingScheme`], Eq. 1/10 of the
//!   paper), and ships the masked vectors to GPUs;
//! * GPUs run all bilinear ops (conv/dense forward, weight gradients,
//!   data gradients) on masked data (`dk-gpu`);
//! * the TEE decodes results with `A^{-1}` (Eq. 2), runs every
//!   non-linear op on plaintext floats, and for backward passes decodes
//!   only the *aggregate* weight update `∇W = (1/K)·Σ_j γ_j Eq_j`
//!   (Eq. 4–6) — never materializing per-example gradients;
//! * one redundant masked equation per layer detects tampered GPU
//!   results ([`scheme`], §4.4), and the MDS structure of the noise
//!   block tolerates up to `M` colluding GPUs (§4.5, §5).
//!
//! Entry points:
//!
//! * [`session::DarknightSession`] — the §3.1 flow: private forward,
//!   private backward, full train step, private inference. The
//!   blocking, one-batch-at-a-time **sequential reference**.
//! * [`engine::PipelineEngine`] — the overlapped (pipelined) execution
//!   mode of §7.1: TEE encode of batch `t+1` under the shadow of GPU
//!   work for batch `t`, bit-for-bit identical to the sequential path.
//!   This is what the Algorithm 2 trainer and `dk_serve` workers run on.
//! * [`virtual_batch::LargeBatchTrainer`] — Algorithm 2: per-virtual-
//!   batch gradient sealing/eviction and shard-wise aggregation, in
//!   sequential or pipelined mode.
//! * [`privacy`] — empirical privacy validation (uniformity of the GPU
//!   view; collusion-boundary audits).
//!
//! # Example
//!
//! ```
//! use dk_core::{DarknightConfig, session::DarknightSession};
//! use dk_gpu::GpuCluster;
//! use dk_nn::arch::mini_vgg;
//! use dk_linalg::Tensor;
//!
//! let cfg = DarknightConfig::new(2, 1).with_integrity(true);
//! let cluster = GpuCluster::honest(cfg.workers_required(), 7);
//! let mut session = DarknightSession::new(cfg, cluster).unwrap();
//! let mut model = mini_vgg(16, 10, 42);
//! let x = Tensor::<f32>::from_fn(&[2, 3, 16, 16], |i| ((i % 11) as f32 - 5.0) * 0.05);
//! let logits = session.private_inference(&mut model, &x).unwrap();
//! assert_eq!(logits.shape(), &[2, 10]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod privacy;
pub mod reference;
pub mod scheme;
pub mod session;
pub mod virtual_batch;

pub use checkpoint::TrainingCheckpoint;
pub use config::DarknightConfig;
pub use engine::{EngineOptions, PipelineEngine, StepPlan};
pub use error::DarknightError;
pub use reference::QuantizedReference;
pub use scheme::EncodingScheme;
pub use session::DarknightSession;
