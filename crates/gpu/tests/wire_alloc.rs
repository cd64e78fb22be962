//! The wire's allocation rules, enforced by a counting global
//! allocator.
//!
//! A worker's reply is untrusted input to a TEE whose memory is sized
//! in megabytes: a frame that *claims* a huge tensor, or a huge
//! payload, without sending it must come back as a typed error having
//! cost at most one read chunk — not an allocation-failure abort. And
//! an honest round, once both ends are warm, costs the allocator
//! nothing at all.
//!
//! Both tests read process-wide counters (the worker end runs on its
//! own threads), so they take one lock: no other test of this binary
//! runs while either counts. libtest's main thread still allocates once
//! while it reports whichever test finished first; see the rounds
//! test for how it is kept out of the count.

use dk_field::F25;
use dk_gpu::wire::{self, WireMsg, MAGIC, MAX_PAYLOAD, VERSION};
use dk_gpu::{serve_fleet_worker, FleetManifest, GpuCluster, GpuExec, LinearJob, TcpFleet};
use dk_linalg::workspace::{alloc_counts, CountingAllocator};
use dk_linalg::{Conv2dShape, Tensor};
use std::io::ErrorKind;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn header(msg_type: u16, len: u32) -> Vec<u8> {
    let mut frame = MAGIC.to_le_bytes().to_vec();
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&msg_type.to_le_bytes());
    frame.extend_from_slice(&len.to_le_bytes());
    frame
}

/// Bytes requested of the allocator while reading `frame`, and the
/// kind of error the read ended in.
fn read_cost(frame: &[u8]) -> (u64, ErrorKind) {
    let (_, before) = alloc_counts();
    let kind = wire::read_msg(&mut &frame[..]).expect_err("a hostile frame").kind();
    (alloc_counts().1 - before, kind)
}

#[test]
fn hostile_claims_cost_at_most_one_read_chunk() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const OUTPUT: u16 = 4;
    const BUDGET: u64 = 2 << 20;

    // 20 bytes: an `Output` whose rank-1 tensor claims 2^26 elements
    // and carries none.
    let mut claims_elements = header(OUTPUT, 8);
    claims_elements.extend_from_slice(&1u32.to_le_bytes());
    claims_elements.extend_from_slice(&(1u32 << 26).to_le_bytes());
    assert_eq!(claims_elements.len(), 20);
    let (bytes, kind) = read_cost(&claims_elements);
    assert_eq!(kind, ErrorKind::InvalidData);
    assert!(bytes < BUDGET, "a 20-byte frame made the decoder request {bytes} bytes");

    // 12 bytes: a bare header claiming the largest payload there is.
    let (bytes, kind) = read_cost(&header(OUTPUT, MAX_PAYLOAD));
    assert_eq!(kind, ErrorKind::UnexpectedEof);
    assert!(bytes < BUDGET, "a bare header made the reader request {bytes} bytes");

    // The same claim backed by a few chunks, then silence: the buffer
    // follows the bytes received, not the claim.
    let mut trickle = header(OUTPUT, MAX_PAYLOAD);
    trickle.resize(12 + (5 << 19), 0);
    let (bytes, kind) = read_cost(&trickle);
    assert_eq!(kind, ErrorKind::UnexpectedEof);
    // 2.5 MiB arrived: the buffer was sized 1, 2, then 3 MiB.
    assert!(bytes < (6 << 20) + 4096, "2.5 MiB of payload made the reader request {bytes} bytes");

    // A β row is decoded by the same rule: a `Run` of a stored
    // weight-gradient job whose β claims 2^30 entries.
    let mut claims_beta = header(3, 0);
    claims_beta.push(7); // DenseWeightGradStored
    claims_beta.extend_from_slice(&1u32.to_le_bytes()); // delta_batch: rank 1,
    claims_beta.extend_from_slice(&0u32.to_le_bytes()); // no elements
    claims_beta.extend_from_slice(&(1u32 << 30).to_le_bytes());
    let len = (claims_beta.len() - 12) as u32;
    claims_beta[8..12].copy_from_slice(&len.to_le_bytes());
    let (bytes, kind) = read_cost(&claims_beta);
    assert_eq!(kind, ErrorKind::InvalidData);
    assert!(bytes < BUDGET, "a claimed β row made the decoder request {bytes} bytes");

    // An honest frame larger than one chunk still arrives whole.
    let big = WireMsg::Output { tensor: Tensor::from_fn(&[3, 1 << 17], |i| F25::new(i as u64)) };
    let mut frame = Vec::new();
    wire::write_msg(&mut frame, &big).unwrap();
    assert!(frame.len() > 1 << 20);
    assert_eq!(wire::read_msg(&mut &frame[..]).unwrap(), big);
}

fn conv_job(scale: u64) -> LinearJob {
    let shape = Conv2dShape::simple(4, 8, 3, 1, 1);
    LinearJob::ConvForward {
        weights: Arc::new(Tensor::from_fn(&shape.weight_shape(), |i| F25::new(i as u64 * scale))),
        x: Tensor::from_fn(&[1, 4, 9, 9], move |i| F25::new((i as u64 + scale) * 7_919)),
        shape,
    }
}

/// Loopback `TcpFleet` rounds of `ConvForward` jobs against an
/// in-process `serve_fleet_worker`, outputs handed back with
/// `recycle_outputs`: once warm, a round allocates nothing — not on the
/// TEE end (frame, payload, decoded outputs) and not on the worker end
/// (payload, decoded job and its weights' `Arc`, reply frame, output).
/// The rounds are counted in windows and one window must be clean: a
/// round that allocates does so in every window, libtest's one report
/// in at most one.
#[test]
fn warm_loopback_rounds_allocate_nothing_on_either_end() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: usize = 20;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let host = std::thread::spawn(move || serve_fleet_worker(listener));
    let mut fleet = TcpFleet::from_manifest(&FleetManifest {
        workers: vec![addr; 3],
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    });
    let jobs: Vec<LinearJob> = (1..=3).map(conv_job).collect();
    let expect = GpuCluster::honest(3, 1).execute(0, &jobs).unwrap();
    let (mut results, mut outputs) = (Vec::with_capacity(3), Vec::with_capacity(3));
    let mut round = |fleet: &mut TcpFleet| {
        fleet.execute_round_into(0, &jobs, &[], &[], &mut results).unwrap();
        outputs.extend(results.drain(..).map(|r| r.expect("an honest worker answers")));
        assert!(outputs.iter().zip(&expect).all(|(got, want)| Ok(got) == want.as_ref()));
        fleet.recycle_outputs(&mut outputs);
    };
    for _ in 0..3 {
        round(&mut fleet);
    }
    let mut window = || {
        let (allocs, bytes) = alloc_counts();
        for _ in 0..ROUNDS {
            round(&mut fleet);
        }
        (alloc_counts().0 - allocs, alloc_counts().1 - bytes)
    };
    let (allocs, bytes) = (0..4).map(|_| window()).min().unwrap();
    assert_eq!((allocs, bytes), (0, 0), "{ROUNDS} warm rounds allocated {allocs}× ({bytes} B)");
    fleet.shutdown();
    host.join().expect("host thread").expect("accept loop");
}
