//! Transport-level loopback tests for the TCP fleet: framed execution
//! parity with in-process workers, reconnect-with-replay of stored
//! encodings, and clean shutdown.

use std::net::TcpListener;
use std::sync::Arc;

use dk_field::F25;
use dk_gpu::{
    serve_fleet_worker, Behavior, FleetManifest, GpuCluster, GpuExec, GpuWorker, LinearJob,
    TcpFleet, WorkerId,
};
use dk_linalg::{Conv2dShape, Tensor};

fn spawn_host() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || serve_fleet_worker(listener));
    addr
}

fn fleet(addr: &str, n: usize) -> TcpFleet {
    TcpFleet::from_manifest(&FleetManifest {
        workers: vec![addr.to_string(); n],
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    })
}

fn conv_job(scale: u64) -> LinearJob {
    let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
    LinearJob::ConvForward {
        weights: Arc::new(Tensor::from_fn(&shape.weight_shape(), |i| F25::new(i as u64 * scale))),
        x: Tensor::from_fn(&[1, 2, 5, 5], move |i| F25::new((i as u64 + scale) % 97)),
        shape,
    }
}

/// Remote execution returns exactly what an honest in-process worker
/// computes, across every job kind the forward path uses.
#[test]
fn remote_execution_matches_in_process_bit_for_bit() {
    let addr = spawn_host();
    let mut fleet = fleet(&addr, 3);
    let jobs: Vec<LinearJob> = (1..=3).map(conv_job).collect();
    let mut reference = GpuCluster::honest(3, 1);
    let expect = reference.execute(7, &jobs).unwrap();
    assert_eq!(fleet.execute(7, &jobs).unwrap(), expect);
    fleet.shutdown();
}

/// The replay cache reconstructs a reconnected worker's stored
/// encodings: a `*Stored` backward job after a severed connection
/// returns the same bits as before the loss.
#[test]
fn reconnect_replays_stored_encodings_bit_identically() {
    let addr = spawn_host();
    let mut fleet = fleet(&addr, 1);
    let enc = Tensor::from_fn(&[1, 6], |i| F25::new(i as u64 * 13 + 1));
    let delta = Arc::new(Tensor::from_fn(&[2, 4], |i| F25::new(i as u64 * 5 + 2)));
    let beta = vec![F25::new(3), F25::new(11)];
    fleet.store_encodings(42, vec![enc.clone()]);
    let job = LinearJob::DenseWeightGradStored {
        delta_batch: delta.clone(),
        beta: beta.clone(),
        layer_id: 42,
    };
    let before = fleet.execute_on(WorkerId(0), &job).unwrap();
    // The local ground truth the worker should be computing.
    let mut local = GpuWorker::new(WorkerId(0), Behavior::Honest, 9);
    local.store_encoding(42, enc);
    assert_eq!(before, local.execute(&job));
    // Sever: the remote side's per-connection state (the stored
    // encoding) is gone. The next use must redial and replay it.
    fleet.sever_connection(WorkerId(0));
    let after = fleet.execute_on(WorkerId(0), &job).unwrap();
    assert_eq!(after, before, "replayed encoding must reproduce the same bits");
    assert_eq!(fleet.reconnects(), 1);
    // A released context is dropped from the cache: after another
    // sever, the job is refused rather than served from stale state.
    fleet.release_contexts(&[42]);
    fleet.sever_connection(WorkerId(0));
    let refused = fleet.execute_on(WorkerId(0), &job);
    assert!(matches!(refused, Err(dk_gpu::GpuError::Remote { .. })), "{refused:?}");
    fleet.shutdown();
}

/// `shutdown` stops the host's accept loop; later dials are typed
/// worker-lost errors, not hangs or panics.
#[test]
fn shutdown_terminates_the_host() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let host = std::thread::spawn(move || serve_fleet_worker(listener));
    let mut fleet = fleet(&addr, 2);
    let jobs: Vec<LinearJob> = (1..=2).map(conv_job).collect();
    let results = fleet.execute(0, &jobs).unwrap();
    assert!(results.iter().all(Result::is_ok));
    fleet.shutdown();
    host.join().expect("host thread").expect("accept loop");
}
