//! `dk_serve` — concurrent private-inference serving with dynamic
//! virtual-batch aggregation.
//!
//! DarKnight's performance story (paper §3.1, §7.1) amortizes one TEE
//! encode/decode over a virtual batch of `K` inputs. A production
//! deployment, though, does not receive `K`-sized batches — it receives
//! a stream of independent single-sample requests from many callers.
//! This crate closes that gap:
//!
//! * [`ServerHandle::submit`] accepts individual [`InferenceRequest`]s
//!   (with priorities and per-request aggregation deadlines) from any
//!   number of caller threads into one bounded intake, whose admission
//!   control sheds on overload instead of queueing unboundedly;
//! * a pool of workers, each owning a [`dk_core::PipelineEngine`] over
//!   a [`dk_gpu::GpuCluster::fork`] of one shared fleet, serves them:
//!   a free TEE lane takes its own `K`-sized virtual batch out of the
//!   intake — a full batch as soon as `K` requests wait, and never
//!   later than a request's deadline: on expiry the partial batch is
//!   padded with all-zero rows, which are dropped again before
//!   responses are routed (when every lane is busy, an expired batch
//!   waits for the next free one — the deadline bounds the wait for
//!   batch-mates, not end-to-end latency) — runs it and routes the
//!   responses itself;
//! * each caller's [`Ticket`] resolves to a [`Response`] carrying the
//!   output, an [`IntegrityVerdict`], and queue/service timings, and
//!   [`ServerMetrics`] snapshots the deployment (throughput, p50/p95
//!   queue latency, batch-fill ratio, shed count) for
//!   `dk_perf::report::serving_table`.
//!
//! **Exactness under aggregation.** The lanes' sessions run
//! [`dk_core::DarknightSession::private_inference_per_sample`], which
//! quantizes every row with its own scale, so the answer each caller
//! receives is bit-for-bit the answer [`dk_core::QuantizedReference`]
//! produces for that request *alone* — batch-mates and padding cannot
//! perturb it. The property tests in `tests/serving_exactness.rs` pin
//! this across random batch-fill patterns.
//!
//! # Example
//!
//! ```
//! use dk_core::DarknightConfig;
//! use dk_gpu::GpuCluster;
//! use dk_linalg::Tensor;
//! use dk_nn::arch::mini_vgg;
//! use dk_serve::{InferenceRequest, Server, ServerConfig};
//!
//! let model = mini_vgg(8, 4, 42);
//! let cfg = DarknightConfig::new(4, 1).with_integrity(true);
//! let cluster = GpuCluster::honest(cfg.workers_required(), 7);
//! let server = Server::start(ServerConfig::new(cfg, &[3, 8, 8]), &model, &cluster).unwrap();
//! let handle = server.handle();
//! let x = Tensor::<f32>::from_fn(&[3, 8, 8], |i| ((i % 11) as f32 - 5.0) * 0.05);
//! let ticket = handle.submit(InferenceRequest::new(x)).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.output.unwrap().shape(), &[4]);
//! let metrics = server.shutdown();
//! assert_eq!(metrics.served, 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod aggregator;
mod autoscale;
mod error;
mod metrics;
mod request;
mod server;

pub use autoscale::AutoscaleConfig;
pub use error::{ConfigError, ServeError};
pub use metrics::ServerMetrics;
pub use request::{
    InferenceRequest, IntegrityVerdict, Priority, RequestId, Response, Shed, ShedReason, Ticket,
};
pub use server::{Server, ServerConfig, ServerHandle};
