//! `TimedExec` is transparent: a session over the wrapped backend
//! returns the same bits as one over the bare backend, and the warm
//! `infer_direct` step still allocates nothing with tracing on.
//!
//! One `#[test]`, so no other test thread touches the allocation
//! counters or the global span recorder.

use dk_benchmark::trace::{self, Kind, TimedExec};
use dk_benchmark::workloads::session::SessionInputs;
use dk_benchmark::workloads::{bits_eq, WorkloadId};
use dk_core::{DarknightSession, StepPlan};
use dk_gpu::{GpuCluster, GpuExec};
use dk_linalg::workspace::{alloc_counts, CountingAllocator};
use dk_linalg::Tensor;
use dk_tee::EpcConfig;
use std::sync::Arc;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const SEED: u64 = 11;

fn session<X: GpuExec>(inputs: &SessionInputs, backend: X) -> DarknightSession<X> {
    let cfg = inputs.spec.config(SEED);
    let mut s =
        DarknightSession::with_backend(cfg, backend, EpcConfig::default()).expect("session");
    let plan = StepPlan::extract(&inputs.model, cfg.quant()).expect("plan");
    s.set_step_plan(Some(Arc::new(plan)));
    s
}

#[test]
fn timed_exec_is_transparent() {
    dk_linalg::set_max_threads(1);
    let inputs = SessionInputs::generate(WorkloadId::InferDirect, SEED).expect("inputs");
    let fleet = || {
        let n = inputs.spec.config(SEED).workers_required();
        GpuCluster::honest(n, inputs.spec.fleet_seed(SEED))
    };
    let mut bare = session(&inputs, fleet());
    let mut wrapped = session(&inputs, TimedExec::new(fleet()));
    let (mut model_a, mut model_b) = (inputs.model.clone(), inputs.model.clone());

    // Same bits, tracing off and on, and equal to the oracle.
    for traced in [false, true] {
        if traced {
            trace::start();
        }
        for (x, want) in inputs.batches.iter().zip(&inputs.expected).take(4) {
            let a: Tensor<f32> = bare.private_inference(&mut model_a, x).expect("bare");
            let b: Tensor<f32> = wrapped.private_inference(&mut model_b, x).expect("wrapped");
            assert!(
                bits_eq(&a, &b),
                "wrapped output differs from bare (traced = {traced})"
            );
            assert!(bits_eq(&a, want), "output differs from QuantizedReference");
            bare.recycle_output(a);
            wrapped.recycle_output(b);
        }
    }
    assert_eq!(bare.stats().linear_jobs, wrapped.stats().linear_jobs);

    // Warm, traced, and still allocation-free: spans go into a buffer
    // sized when tracing was switched on.
    let x = &inputs.batches[0];
    let (a0, _) = alloc_counts();
    for _ in 0..5 {
        let y = wrapped.private_inference(&mut model_b, x).expect("steady");
        wrapped.recycle_output(y);
    }
    let (a1, _) = alloc_counts();
    let (spans, dropped) = trace::stop();
    assert_eq!(a1 - a0, 0, "the wrapped warm step allocated");
    assert_eq!(dropped, 0);
    // Five linear layers, one `execute_into` each, per pass; nine traced
    // passes in all.
    let executes = spans.iter().filter(|s| s.kind == Kind::Execute).count();
    assert_eq!(executes, 9 * 5, "one span per backend call");
    assert!(spans
        .iter()
        .filter(|s| s.kind == Kind::Execute)
        .all(|s| s.jobs == 6 && s.macs > 0));
    assert_eq!(
        spans.iter().filter(|s| s.kind == Kind::Recycle).count(),
        9 * 5
    );
}
