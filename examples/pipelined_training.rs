//! Pipelined private training (§7.1): the staged engine with its
//! default lanes vs the same engine with one virtual batch in flight,
//! on the same Algorithm 2 workload.
//!
//! The engine streams independent virtual batches through three stages —
//! TEE encode, GPU linear ops, TEE decode + integrity check — so the
//! enclave encodes batch `t+1` "under the shadow of GPU execution time"
//! for batch `t`. The GPU fleet here is simulated on the host CPU, so
//! the workers carry a modeled accelerator latency profile
//! (`dk_gpu::LatencyModel`): wall clock then reflects device occupancy,
//! and the overlap is measurable exactly as it would be against real
//! hardware. Both runs drive the fleet through the engine's dispatcher
//! (the paper's `K'` concurrent GPUs), so they differ only in how many
//! virtual batches are in flight.
//!
//! The punchline is printed twice: the measured speedup, and the proof
//! that it costs nothing — final weights are **bit-for-bit identical**
//! at every lane count (per-(batch, layer) seed derivation makes the
//! masks independent of execution order).
//!
//! Run with: `cargo run --release --example pipelined_training`

use darknight::core::engine::{EngineOptions, PipelineEngine};
use darknight::core::DarknightConfig;
use darknight::gpu::{GpuCluster, LatencyModel};
use darknight::linalg::Tensor;
use darknight::nn::arch::mini_vgg;
use darknight::nn::optim::Sgd;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DarknightConfig::new(2, 1).with_seed(1234);
    // One fleet model for both runs: a modeled per-job device latency.
    let fleet = GpuCluster::honest(cfg.workers_required(), 99)
        .with_latency(Some(LatencyModel { base_ns: 150_000, ns_per_kmac: 500 }));
    let model = mini_vgg(8, 4, 7);
    let x = Tensor::from_fn(&[8, 3, 8, 8], |i| ((i % 23) as f32 - 11.0) * 0.04);
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();

    let epochs = 3;
    let train = |opts: EngineOptions| {
        let mut m = model.clone();
        let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts)?;
        let mut sgd = Sgd::new(0.05);
        let t0 = Instant::now();
        for _ in 0..epochs {
            engine.train_large_batch(&mut m, &x, &labels, &mut sgd, 4096)?;
        }
        Ok::<_, darknight::core::DarknightError>((t0.elapsed(), m))
    };
    let (one_lane, mut m_one) = train(EngineOptions::default().with_lanes(1))?;
    let (pipelined, mut m_pipe) = train(EngineOptions::default())?;
    let diff = m_one.max_param_diff(&m_pipe.snapshot_params());

    let batches = x.shape()[0] / cfg.k() * epochs;
    println!("Pipelined Algorithm 2 training (MiniVGG, {batches} virtual batches)");
    println!("---------------------------------------------------------------");
    println!("one lane           : {one_lane:>10.1?}");
    println!("pipelined engine   : {pipelined:>10.1?}");
    println!("speedup            : {:>9.2}x", one_lane.as_secs_f64() / pipelined.as_secs_f64());
    println!("max weight diff    : {diff} (bit-for-bit equality required)");
    assert_eq!(diff, 0.0, "lane count changed the trained weights");
    println!("\nBoth runs produced identical weights — the overlap is free.");
    Ok(())
}
