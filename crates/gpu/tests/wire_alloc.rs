//! The wire decoder allocates only for bytes it holds, enforced by a
//! counting global allocator.
//!
//! A worker's reply is untrusted input to a TEE whose memory is sized
//! in megabytes: a frame that *claims* a huge tensor, or a huge
//! payload, without sending it must come back as a typed error having
//! cost at most one read chunk — not an allocation-failure abort.
//!
//! Everything runs inside one `#[test]` so no concurrent test thread
//! can pollute the counters.

use dk_field::F25;
use dk_gpu::wire::{self, WireMsg, MAGIC, MAX_PAYLOAD, VERSION};
use dk_linalg::workspace::{alloc_counts, CountingAllocator};
use dk_linalg::Tensor;
use std::io::ErrorKind;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

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
