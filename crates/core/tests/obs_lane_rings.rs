//! Span rings must not leak per engine call: the engine starts fresh
//! lane threads on every `infer_batches` / `train_large_batch`, and each
//! of them has to pick up the ring the previous call's lane of the same
//! name left behind.
//!
//! Its own integration binary: the ring sink and the observability
//! switch are process-global.

use dk_core::engine::{EngineOptions, PipelineEngine};
use dk_core::DarknightConfig;
use dk_gpu::GpuCluster;
use dk_linalg::Tensor;
use dk_nn::layers::{Dense, Flatten, Layer, Relu};
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_obs::{trace, Stage};
use std::collections::BTreeSet;

const BATCHES_PER_CALL: u64 = 4;

fn model() -> Sequential {
    Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(18, 8, 3)),
        Layer::Relu(Relu::new()),
        Layer::Dense(Dense::new(8, 3, 4)),
    ])
}

fn engine(lanes: usize) -> PipelineEngine {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true);
    let fleet = GpuCluster::honest(cfg.workers_required(), 23);
    PipelineEngine::new(cfg, fleet, EngineOptions::default().with_lanes(lanes)).unwrap()
}

/// Rings registered so far, spans or not: one chrome `tid` row each.
fn rings() -> usize {
    trace::export_chrome().matches("\"ph\":\"M\"").count()
}

#[test]
fn engine_calls_reuse_their_lane_rings() {
    dk_obs::enable();
    let mut m = model();
    let inputs: Vec<Tensor<f32>> = (0..BATCHES_PER_CALL as usize)
        .map(|b| Tensor::from_fn(&[2, 2, 3, 3], move |i| ((i + b) % 11) as f32 * 0.05 - 0.2))
        .collect();

    // One lane, ten calls: every span is `dk-lane-0`'s, so all of them
    // must sit in one ring, under one chrome `tid`, with a name.
    let mut one = engine(1);
    for _ in 0..10 {
        one.infer_batches(&m, &inputs, false).unwrap();
    }
    let spans = trace::snapshot();
    assert_eq!(rings(), 1, "ten calls of a 1-lane engine left more than one ring");
    assert!(spans.iter().all(|s| s.thread.ends_with("dk-lane-0")), "lane threads are named");
    let calls: BTreeSet<u64> = spans.iter().map(|s| (s.batch - 1) / BATCHES_PER_CALL).collect();
    assert_eq!(calls.len(), 10, "the one ring holds the spans of every call");
    let mut seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), spans.len(), "a reclaimed ring keeps counting where it stopped");

    // Two lanes, ten more calls, inference and training alternating:
    // `dk-lane-0` picks the retired ring up again, `dk-lane-1` adds one.
    trace::clear();
    let mut two = engine(2);
    let x = Tensor::from_fn(&[8, 2, 3, 3], |i| ((i % 11) as f32 - 5.0) * 0.08);
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    let mut sgd = Sgd::new(0.05);
    for call in 0..10 {
        if call % 2 == 0 {
            two.infer_batches(&m, &inputs, false).unwrap();
        } else {
            two.train_large_batch(&mut m, &x, &labels, &mut sgd, 64).unwrap();
        }
    }
    assert!(rings() <= 2, "20 engine calls left {} rings for 2 lanes", rings());
    // The numbers the lanes ran under, as the trace shows them: every
    // batch of every call exactly once, none skipped, none used twice —
    // whichever lane pulled it.
    let mut numbers: Vec<u64> = trace::snapshot()
        .iter()
        .filter(|s| s.stage == Stage::Encode && s.layer == 0)
        .map(|s| s.batch)
        .collect();
    numbers.sort_unstable();
    assert_eq!(numbers, (1..=10 * BATCHES_PER_CALL).collect::<Vec<u64>>());
    dk_obs::disable();
}
