//! The zero-allocation invariant of the steady-state hot path, enforced
//! by a counting global allocator.
//!
//! This test binary installs a `#[global_allocator]` that counts every
//! allocation (and the bytes requested), warms a model's workspace up,
//! and then asserts:
//!
//! * a steady-state **inference** step performs **zero** heap
//!   allocations — activations, caches, pooling bookkeeping and kernel
//!   scratch all cycle through the model-owned
//!   [`dk_linalg::Workspace`] — **with observability enabled**: spans,
//!   counters, gauges and histograms recording on every step must not
//!   allocate either (rings and cells are pre-registered at setup);
//! * a steady-state **training** step (forward, loss, backward, SGD)
//!   performs a small *constant* number of allocations — the loss pair
//!   and a handful of small gradient staging vectors — that does not
//!   grow from step to step.
//!
//! The counts are the test thread's own
//! ([`dk_linalg::workspace::thread_alloc_counts`]): the harness's main
//! thread allocates while a test runs, and a process-wide count sees it.

use dk_linalg::workspace::{thread_alloc_counts as counts, CountingAllocator};
use dk_linalg::Tensor;
use dk_nn::arch::{mini_resnet, mini_vgg};
use dk_nn::loss::softmax_cross_entropy;
use dk_nn::optim::Sgd;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_allocation_budget() {
    // Observability ENABLED: the instrumented hot path must stay
    // allocation-free too. Handles are pre-registered (setup-path
    // allocations happen here), and the first span below registers this
    // thread's ring during warm-up.
    dk_obs::enable();
    let steps = dk_obs::global().counter("alloc_test_steps_total");
    let depth = dk_obs::global().gauge("alloc_test_depth");
    let lat = dk_obs::global().histogram("alloc_test_ns");

    // ----- inference: exactly zero allocations once warm --------------
    for (mut model, name) in
        [(mini_vgg(8, 4, 11), "mini_vgg"), (mini_resnet(8, 4, 12), "mini_resnet")]
    {
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.07);
        // Warm-up: populate the workspace pool (first steps allocate)
        // and register this thread's span ring.
        for _ in 0..3 {
            let sp = dk_obs::span(dk_obs::Stage::Dispatch, 0, 0);
            let y = model.forward(&x, false);
            drop(sp);
            model.give_back(y);
        }
        let misses_warm = model.workspace_stats().misses;
        let (a0, b0) = counts();
        for s in 0..5u64 {
            // The full instrument-site mix a serving step exercises:
            // span enter/exit, counter, gauge, histogram — all must be
            // allocation-free while enabled.
            let sp = dk_obs::span(dk_obs::Stage::Dispatch, s, 0);
            depth.inc();
            let y = model.forward(&x, false);
            steps.inc();
            lat.record(1 + s * 1000);
            depth.dec();
            drop(sp);
            model.give_back(y);
        }
        let (a1, b1) = counts();
        assert_eq!(
            a1 - a0,
            0,
            "{name}: warm inference (observability enabled) must be allocation-free \
             (got {} allocs / {} bytes over 5 steps)",
            a1 - a0,
            b1 - b0
        );
        assert_eq!(
            model.workspace_stats().misses,
            misses_warm,
            "{name}: warm workspace must not miss"
        );
    }
    // The instruments really recorded (this wasn't a disabled no-op).
    assert_eq!(steps.value(), 10, "5 measured steps per model must have counted");
    assert_eq!(lat.count(), 10);
    assert!(
        dk_obs::trace::snapshot().iter().any(|s| s.stage == dk_obs::Stage::Dispatch),
        "measured spans must be in the ring"
    );

    // ----- training: a bounded constant per step ----------------------
    let mut model = mini_vgg(8, 4, 21);
    let mut sgd = Sgd::new(0.05).with_momentum(0.9);
    let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 11) as f32 - 5.0) * 0.06);
    let labels = [1usize, 3];
    let step = |model: &mut dk_nn::Sequential, sgd: &mut Sgd| {
        model.zero_grad();
        let logits = model.forward(&x, true);
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        model.give_back(logits);
        let dx = model.backward(&dlogits);
        model.give_back(dx);
        sgd.step(model);
    };
    for _ in 0..3 {
        step(&mut model, &mut sgd);
    }
    let (a0, _) = counts();
    step(&mut model, &mut sgd);
    let (a1, _) = counts();
    step(&mut model, &mut sgd);
    let (a2, _) = counts();
    let (first, second) = (a1 - a0, a2 - a1);
    assert_eq!(
        first, second,
        "training-step allocation count must be a steady constant ({first} vs {second})"
    );
    // The constant covers the loss pair and per-layer bias-gradient
    // staging only — measured at exactly 14 today; anything near the
    // old per-step hundreds (fresh activations, im2col buffers, caches)
    // is a regression.
    assert!(first <= 14, "training step allocates too much: {first} allocations per step");
}
