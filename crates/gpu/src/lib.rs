//! Simulated untrusted GPU accelerators for DarKnight.
//!
//! Real GPUs in the paper's deployment only ever see (a) the public
//! quantized model weights, (b) masked field-domain activations
//! `x̄ = XA + RA'`, (c) the public backward matrix `B`, and quantized
//! gradients `δ` — and they only ever run *bilinear* operations on them.
//! This crate reproduces exactly that interface:
//!
//! * [`job::LinearJob`] — the five bilinear operations DarKnight
//!   offloads (conv forward / input-grad / weight-grad, dense forward /
//!   weight-grad), all over `F_{2^25−39}`; [`job::LinearOp`] is the
//!   one description of "convolution or dense" the TEE-side executors
//!   build them from.
//! * [`worker::GpuWorker`] — executes jobs, stores forward encodings for
//!   backward reuse (§6, "Encoded Data Storage During Forward Pass"),
//!   records everything it observes (for collusion analysis), and can be
//!   configured with adversarial [`behavior::Behavior`]s that corrupt
//!   results — the faults DarKnight's integrity check (§4.4) must catch.
//! * [`dispatch::GpuDispatcher`] — the one concurrent in-process
//!   executor: asynchronous `submit(batch_tag, jobs) → Ticket` /
//!   `complete(Ticket)` dispatch over persistent per-worker OS threads
//!   with bounded queues, so the `K'` workers run at once and TEE
//!   encode/decode work overlaps accelerator execution (§7.1's
//!   pipelined mode).
//! * [`cluster::GpuCluster`] — the fleet container (worker state), and
//!   the blocking reference backend: its `GpuExec` impl runs jobs
//!   inline, one after another.
//! * [`exec::GpuExec`] — the backend abstraction the `dk-core` session
//!   is generic over: the same TEE-side protocol code drives a blocking
//!   cluster, a shared dispatcher or a TCP fleet.
//! * [`collusion`] — the empirical privacy harness: uniformity testing
//!   of observations and a white-box noise-cancellation audit that
//!   demonstrates the exact collusion-tolerance boundary `M`.
//! * [`error::GpuError`] — the typed fault vocabulary: worker loss,
//!   timeouts, oversubscription, remote refusals, protocol violations.
//!   Every backend reports faults as values; none of them panic the
//!   process over a dead worker.
//! * [`wire`] / [`tcp`] — the framed wire protocol and the TCP
//!   transport ([`tcp::TcpFleet`]) that lets remote worker processes
//!   (the `dk_gpu_worker` binary) join the fleet from a
//!   [`tcp::FleetManifest`], with reconnect-and-replay of stored
//!   encodings after a connection loss.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod behavior;
pub mod cluster;
pub mod collusion;
pub mod dispatch;
pub mod error;
pub mod exec;
pub mod job;
pub mod tcp;
pub mod wire;
pub mod worker;

pub use behavior::Behavior;
pub use cluster::GpuCluster;
pub use dispatch::{BatchTag, DispatchClient, GpuDispatcher, Ticket};
pub use error::GpuError;
pub use exec::{GpuExec, WorkerResult};
pub use job::{JobOutput, LinearJob, LinearOp};
pub use tcp::{serve_fleet_worker, serve_fleet_worker_verbose, ConnSummary, FleetManifest, TcpFleet};
pub use worker::{GpuWorker, WorkerId};

/// A modeled accelerator execution-latency profile.
///
/// The workers in this crate *simulate* GPUs on the host CPU, so by
/// default a job takes however long the host needs to run the field
/// kernels — which says nothing about real accelerator timing. Attaching
/// a `LatencyModel` makes every job additionally occupy the worker for
/// `base_ns + macs·ns_per_kmac/1000` of wall-clock time (a fixed
/// dispatch/transfer overhead plus a throughput term), without consuming
/// host CPU. Pipeline experiments use this to measure *overlap*: TEE
/// encode/decode compute can genuinely hide under the modeled device
/// time, exactly as §7.1 hides it under real GPU execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-job overhead (kernel launch + PCIe transfer), in ns.
    pub base_ns: u64,
    /// Throughput term: nanoseconds per thousand MACs.
    pub ns_per_kmac: u64,
}

impl LatencyModel {
    /// The modeled wall-clock occupancy of a job with `macs` MACs.
    pub fn delay(&self, macs: u64) -> std::time::Duration {
        std::time::Duration::from_nanos(self.base_ns + macs.saturating_mul(self.ns_per_kmac) / 1000)
    }
}
