//! Static `Send`/`Sync` assertions for every type the serving runtime
//! shares across threads.
//!
//! The server moves sessions, models and clusters into worker threads
//! (`Send`), and shares handles, configs and the metrics recorder
//! between caller threads (`Send + Sync`). These bounds are API
//! contracts: losing one (say, by slipping an `Rc` into a config) would
//! break every downstream embedder, so they are pinned here at compile
//! time — the assertions fail to *build*, not to run, if a bound
//! regresses.

use dk_core::{DarknightConfig, DarknightError, DarknightSession, EncodingScheme};
use dk_field::QuantConfig;
use dk_gpu::GpuCluster;
use dk_nn::Sequential;
use dk_serve::{
    InferenceRequest, IntegrityVerdict, Priority, RequestId, Response, Server, ServerConfig,
    ServerHandle, ServerMetrics, Shed, Ticket,
};

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_configuration_types_are_send_and_sync() {
    // Cloned into every worker thread and readable from any of them.
    assert_send_sync::<DarknightConfig>();
    assert_send_sync::<QuantConfig>();
    assert_send_sync::<EncodingScheme>();
    assert_send_sync::<ServerConfig>();
}

#[test]
fn request_and_response_types_are_send() {
    // Cross from the caller through the intake to a lane and back.
    assert_send_sync::<InferenceRequest>();
    assert_send_sync::<RequestId>();
    assert_send_sync::<Priority>();
    assert_send_sync::<IntegrityVerdict>();
    assert_send::<Response>();
    assert_send::<Shed>();
    // A ticket is one request's reply slot: movable to a waiter
    // thread.
    assert_send::<Ticket>();
}

#[test]
fn runtime_types_are_send() {
    // Moved into worker threads at pool construction.
    assert_send::<DarknightSession>();
    assert_send::<GpuCluster>();
    assert_send::<Sequential>();
    assert_send::<DarknightError>();
    // Shared by arbitrarily many caller threads.
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<Server>();
    assert_send_sync::<ServerMetrics>();
}
