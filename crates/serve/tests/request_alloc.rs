//! The allocation ratchet of a warm `dk_serve` request, counted
//! process-wide (pool worker, lane and GPU worker threads included) by
//! a counting global allocator.
//!
//! Per request the server allocates exactly the response it hands the
//! caller — the output tensor's shape and data, which the caller owns
//! and keeps. Everything else cycles: the reply slot goes back to the
//! handle's pool when its ticket is done, batch vectors go back to the
//! intake, the assembled `[K, …]` input and the engine's lanes,
//! sessions and dispatch rounds are reused from batch to batch.

use dk_core::DarknightConfig;
use dk_gpu::GpuCluster;
use dk_linalg::workspace::{alloc_counts, CountingAllocator};
use dk_linalg::Tensor;
use dk_nn::arch::mini_vgg;
use dk_serve::{InferenceRequest, Server, ServerConfig, Ticket};
use std::collections::VecDeque;
use std::time::Duration;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const HW: usize = 8;
const OUTSTANDING: usize = 8;

#[test]
fn a_warm_request_allocates_only_its_response() {
    let cfg = DarknightConfig::new(4, 1).with_integrity(true);
    let model = mini_vgg(HW, 4, 51);
    let fleet = GpuCluster::honest(cfg.workers_required(), 52);
    let config = ServerConfig::new(cfg, &[3, HW, HW])
        .with_workers(1)
        .with_pipeline_lanes(2)
        .with_queue_capacity(64)
        .with_max_batch_wait(Duration::from_millis(2));
    let server = Server::start(config, &model, &fleet).expect("server");
    let handle = server.handle();
    let (warm, measured) = (400, 200);
    // Every request is built before anything is counted. The window
    // starts and ends with nothing in flight (the tickets are drained
    // at both edges), so every response allocated inside it is one
    // answered inside it: requests still in flight at an edge would
    // put theirs on either side of it by timing alone.
    let mut requests: VecDeque<InferenceRequest> = (0..warm + measured + 2 * OUTSTANDING)
        .map(|i| InferenceRequest::new(Tensor::from_fn(&[3, HW, HW], |j| ((i + j) % 13) as f32 * 0.05)))
        .collect();
    let mut pending = VecDeque::with_capacity(OUTSTANDING);
    let drain = |pending: &mut VecDeque<Ticket>| {
        let mut answered = 0u64;
        while let Some(ticket) = pending.pop_front() {
            let response = ticket.wait().expect("served");
            assert!(response.output.is_ok());
            answered += 1;
        }
        answered
    };
    let (mut window, mut answered) = ((0, 0), 0u64);
    for op in 0..warm + measured {
        if op == warm {
            drain(&mut pending);
            window.0 = alloc_counts().0;
        }
        while pending.len() < OUTSTANDING {
            let request = requests.pop_front().expect("built above");
            pending.push_back(handle.submit(request).expect("admitted"));
        }
        let ticket = pending.pop_front().expect("in flight");
        let response = ticket.wait().expect("served");
        assert!(response.output.is_ok());
        answered += u64::from(op >= warm);
    }
    answered += drain(&mut pending);
    window.1 = alloc_counts().0;
    let allocs = window.1 - window.0;
    // Two per response; the slack admits the rare reply slot made fresh
    // when a ticket is done before its replier has let go.
    assert!(
        allocs <= 2 * answered + 4,
        "{allocs} allocations over {answered} warm requests (2 each is the response tensor)"
    );
    drop(pending);
    server.shutdown();
}
