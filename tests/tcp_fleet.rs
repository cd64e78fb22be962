//! Loopback-TCP fleet suite: the wire-protocol backend must be
//! indistinguishable from the in-process cluster — bit for bit — and a
//! worker process dying mid-batch must be survivable exactly like an
//! in-process crash.
//!
//! Worker processes are modeled by threads running
//! [`darknight::gpu::serve_fleet_worker`] (the same loop behind the
//! `dk_gpu_worker` binary) on ephemeral loopback ports; the
//! `remote_fleet` example exercises real OS processes.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use darknight::core::{DarknightConfig, DarknightSession};
use darknight::field::F25;
use darknight::gpu::wire::{self, WireMsg};
use darknight::gpu::{
    serve_fleet_worker, Behavior, FleetManifest, GpuCluster, GpuError, GpuExec, GpuWorker,
    LinearJob, TcpFleet, WorkerId,
};
use darknight::linalg::workspace::{thread_alloc_counts, CountingAllocator};
use darknight::linalg::{Conv2dShape, Tensor};
use darknight::nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;
use darknight::tee::EpcConfig;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn model(seed: u64) -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, seed ^ 1)),
    ])
}

fn input(seed: u64) -> Tensor<f32> {
    Tensor::from_fn(&[2, 2, 6, 6], |i| (((i as u64 * 31 + seed * 7) % 17) as f32 - 8.0) * 0.06)
}

/// Binds an ephemeral loopback port and serves fleet-worker connections
/// on it from a background thread (detached: it exits when the fleet
/// sends `Shutdown`).
fn spawn_worker_host() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || serve_fleet_worker(listener));
    addr
}

fn fleet_for(addr: &str, workers: usize) -> TcpFleet {
    TcpFleet::from_manifest(&FleetManifest {
        workers: vec![addr.to_string(); workers],
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    })
}

/// One worker host, every logical worker connected to it: inference and
/// a full training step produce exactly the bits the in-process cluster
/// produces.
#[test]
fn tcp_fleet_matches_in_process_cluster_bit_for_bit() {
    let cfg =
        DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(21);
    let n = cfg.workers_required();

    let mut local = DarknightSession::new(cfg, GpuCluster::honest(n, 500)).unwrap();
    let mut local_model = model(21);
    let local_y = local.private_inference(&mut local_model, &input(21)).unwrap();
    local.train_step(&mut local_model, &input(21), &[0, 2], &mut Sgd::new(0.05)).unwrap();

    let addr = spawn_worker_host();
    let mut remote =
        DarknightSession::with_backend(cfg, fleet_for(&addr, n), EpcConfig::default()).unwrap();
    let mut remote_model = model(21);
    let remote_y = remote.private_inference(&mut remote_model, &input(21)).unwrap();
    assert_eq!(remote_y.as_slice(), local_y.as_slice(), "inference must be bit-identical");
    remote.train_step(&mut remote_model, &input(21), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    assert_eq!(
        remote_model.max_param_diff(&local_model.snapshot_params()),
        0.0,
        "training over TCP must land identical weights"
    );
    assert!(remote.quarantined().is_empty());
    assert_eq!(remote.stats().recoveries, 0);
    remote.cluster_mut().shutdown();
}

/// Severing a connection between steps is invisible: the fleet redials,
/// replays its stored encodings, and the next step is bit-identical —
/// no quarantine, no recovery, just a reconnect.
#[test]
fn severed_connection_reconnects_transparently() {
    let cfg =
        DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(22);
    let n = cfg.workers_required();

    let mut local_model = model(22);
    let mut local = DarknightSession::new(cfg, GpuCluster::honest(n, 501)).unwrap();
    for step in 0..2u64 {
        local.train_step(&mut local_model, &input(22 + step), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    }

    let addr = spawn_worker_host();
    let mut remote =
        DarknightSession::with_backend(cfg, fleet_for(&addr, n), EpcConfig::default()).unwrap();
    let mut remote_model = model(22);
    remote.train_step(&mut remote_model, &input(22), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    remote.cluster_mut().sever_connection(WorkerId(1));
    remote.train_step(&mut remote_model, &input(23), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    assert_eq!(remote_model.max_param_diff(&local_model.snapshot_params()), 0.0);
    assert!(remote.cluster().reconnects() >= 1, "the severed worker must have redialed");
    assert!(remote.quarantined().is_empty(), "a clean reconnect is not a fault");
    assert_eq!(remote.stats().recoveries, 0);
    remote.cluster_mut().shutdown();
}

/// A worker host whose first connection dies mid-step (after the
/// forward stores/jobs, before the backward reply): the session
/// quarantines the lost worker, the TEE reconstructs its row, the step
/// completes bit-identically — and the *replacement* connection the
/// fleet later dials gets the stored encodings replayed.
#[test]
fn worker_process_death_mid_batch_is_repaired() {
    let cfg =
        DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(23);
    let n = cfg.workers_required();

    let mut local_model = model(23);
    DarknightSession::new(cfg, GpuCluster::honest(n, 502)).unwrap().train_step(
        &mut local_model,
        &input(23),
        &[0, 2],
        &mut Sgd::new(0.05),
    ).unwrap();

    // Healthy host for everyone except the victim.
    let healthy = spawn_worker_host();
    // Victim host: its FIRST connection dies while the 5th
    // post-handshake frame is in flight — it has served Store+Run for
    // both forward layers, then swallows the first backward job without
    // replying, so the TEE observes a worker dying mid-batch (not a
    // stale connection it could transparently redial). Reconnections
    // are served faithfully (with the fleet's replayed stores).
    let victim_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let victim_addr = victim_listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut first = true;
        for conn in victim_listener.incoming() {
            let Ok(stream) = conn else { return };
            let die_after = if first { Some(5) } else { None };
            first = false;
            std::thread::spawn(move || flaky_connection(stream, die_after));
        }
    });

    let victim = 1usize;
    let mut addrs = vec![healthy.clone(); n];
    addrs[victim] = victim_addr;
    let fleet = TcpFleet::from_manifest(&FleetManifest {
        workers: addrs,
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    });
    let mut session = DarknightSession::with_backend(cfg, fleet, EpcConfig::default()).unwrap();
    let mut m = model(23);
    session.train_step(&mut m, &input(23), &[0, 2], &mut Sgd::new(0.05)).unwrap();
    assert_eq!(
        m.max_param_diff(&local_model.snapshot_params()),
        0.0,
        "step through a dying worker process must land identical weights"
    );
    assert!(session.stats().recoveries > 0, "the death must surface as a recovery");
    assert!(session.quarantined().contains(&WorkerId(victim)));
    session.cluster_mut().shutdown();
}

fn conv_job(scale: u64) -> LinearJob {
    let shape = Conv2dShape::simple(2, 4, 3, 1, 1);
    LinearJob::ConvForward {
        weights: Arc::new(Tensor::from_fn(&shape.weight_shape(), |i| F25::new(i as u64 * scale))),
        x: Tensor::from_fn(&[1, 2, 6, 6], move |i| F25::new((i as u64 + scale) * 7_919)),
        shape,
    }
}

/// The TEE end's buffer pool survives the fault paths: worker 1's
/// process dies mid-round (it reads its job and hangs up), then the TEE
/// drops worker 2's connection. The next rounds redial both, their
/// outputs are bit-identical to a fresh fleet's, and once warm again a
/// round allocates nothing on the TEE end — nothing a fault unwound
/// kept a buffer checked out or let the pool run dry.
#[test]
fn fault_paths_leave_the_fleet_pool_sound() {
    let healthy = spawn_worker_host();
    // Worker 1's host: the first connection dies mid-round; every later
    // one is served by the real loop.
    let victim = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let victim_addr = victim.local_addr().unwrap().to_string();
    let victim_host = std::thread::spawn(move || {
        if let Ok((stream, _)) = victim.accept() {
            flaky_connection(stream, Some(1));
        }
        serve_fleet_worker(victim)
    });
    let mut addrs = vec![healthy; 3];
    addrs[1] = victim_addr;
    let mut fleet = TcpFleet::from_manifest(&FleetManifest {
        workers: addrs,
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    });
    let jobs: Vec<LinearJob> = (1..=3).map(conv_job).collect();
    let (mut results, mut outputs) = (Vec::new(), Vec::new());

    fleet.execute_round_into(0, &jobs, &[], &[], &mut results).unwrap();
    let lost = matches!(results[1], Err(GpuError::WorkerLost { worker: WorkerId(1), .. }));
    assert!(lost, "{results:?}");
    outputs.extend(results.drain(..).filter_map(Result::ok));
    assert_eq!(outputs.len(), 2, "the other workers answer the round");
    fleet.recycle_outputs(&mut outputs);
    fleet.sever_connection(WorkerId(2));

    let fresh_host = spawn_worker_host();
    let mut fresh = fleet_for(&fresh_host, 3);
    let expect = fresh.execute(0, &jobs).unwrap();
    let mut round = |fleet: &mut TcpFleet| {
        fleet.execute_round_into(0, &jobs, &[], &[], &mut results).unwrap();
        assert!(results == expect, "an honest round after the faults must match a fresh fleet");
        outputs.extend(results.drain(..).map(|r| r.expect("an honest worker answers")));
        fleet.recycle_outputs(&mut outputs);
    };
    for _ in 0..3 {
        round(&mut fleet);
    }
    let (allocs, bytes) = thread_alloc_counts();
    for _ in 0..10 {
        round(&mut fleet);
    }
    let (allocs, bytes) = (thread_alloc_counts().0 - allocs, thread_alloc_counts().1 - bytes);
    assert_eq!((allocs, bytes), (0, 0), "warm rounds after the faults allocated on the TEE end");
    assert_eq!(fleet.reconnects(), 2, "both dropped workers redialed");
    fleet.shutdown();
    fresh.shutdown();
    victim_host.join().expect("victim host thread").expect("accept loop");
}

/// Serves one worker connection like the real host, but optionally
/// hangs up (process death) with the `die_after`-th post-handshake
/// frame swallowed — read but never answered, like a process killed
/// mid-execution.
fn flaky_connection(mut stream: TcpStream, die_after: Option<usize>) {
    let Ok(WireMsg::Hello { worker_id, seed, .. }) = wire::read_msg(&mut stream) else {
        return;
    };
    let mut worker = GpuWorker::new(WorkerId(worker_id as usize), Behavior::Honest, seed);
    if wire::write_msg(&mut stream, &WireMsg::HelloAck).is_err() {
        return;
    }
    let mut frames = 0usize;
    loop {
        let msg = wire::read_msg(&mut stream);
        frames += 1;
        if die_after == Some(frames) {
            return; // simulated process death: the frame dies with us
        }
        match msg {
            Ok(WireMsg::Run { job }) => {
                let reply = if worker.can_execute(&job) {
                    WireMsg::Output { tensor: worker.execute(&job) }
                } else {
                    WireMsg::Fail { message: "no stored encoding".into() }
                };
                if wire::write_msg(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Ok(WireMsg::Store { ctx_id, tensor }) => worker.store_encoding(ctx_id, tensor),
            Ok(WireMsg::Release { ctx_id }) => worker.remove_encoding(ctx_id),
            _ => return,
        }
    }
}
