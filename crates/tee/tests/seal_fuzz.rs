//! Seeded mutational fuzz of [`Enclave::unseal_into`], the enclave's
//! reader of blobs that come back from untrusted storage (gradient
//! shards, Slalom's blinding factors).
//!
//! Blobs sealed by one enclave — empty, one byte, a ChaCha block and a
//! byte either side of it, an eight-block pass, several passes — are
//! mutated: one bit flipped in the nonce, the ciphertext or the tag; the
//! ciphertext truncated or extended; nonce or tag taken from another
//! blob; and blobs sealed under another code identity, presented as this
//! enclave's own. For every mutant:
//!
//! * the result is [`EnclaveError::Seal`]; nothing panics;
//! * `out` is left as it was: the same bytes in the same allocation;
//! * the call requests at most the ciphertext's bytes plus one
//!   [`CHUNK`] of the allocator (counted on this thread).
//!
//! Unmutated blobs unseal to their plaintext within the same bound.

use dk_field::derive_seed;
use dk_linalg::workspace::{thread_alloc_counts, CountingAllocator};
use dk_tee::crypto::SealedBlob;
use dk_tee::{Enclave, EnclaveError, EpcConfig};

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// The allocation an unseal may make beyond the ciphertext it reads.
const CHUNK: u64 = 64 << 10;

/// Plaintext lengths: empty, one byte, around one 64-byte ChaCha block,
/// around one eight-block pass, and several passes with a ragged end.
const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 511, 512, 2_000];

fn plaintext(len: usize, seed: u64) -> Vec<u8> {
    (0..len).map(|i| derive_seed(seed, i as u64) as u8).collect()
}

/// Every mutant of `blob`, named: each bit of the nonce and the tag,
/// seeded bits of the ciphertext (its first and last byte's always),
/// truncations and extensions, and `other`'s nonce or tag.
fn mutants(blob: &SealedBlob, other: &SealedBlob, seed: u64) -> Vec<(String, SealedBlob)> {
    let mut out = Vec::new();
    for bit in 0..96 {
        let mut m = blob.clone();
        m.nonce[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("nonce bit {bit}"), m));
    }
    for bit in 0..64 {
        let mut m = blob.clone();
        m.tag ^= 1 << bit;
        out.push((format!("tag bit {bit}"), m));
    }
    let len = blob.ciphertext.len();
    if len > 0 {
        let seeded = (0..32).map(|i| derive_seed(seed, i) as usize % (8 * len));
        for bit in [0, 7, 8 * len - 8, 8 * len - 1].into_iter().chain(seeded) {
            let mut m = blob.clone();
            m.ciphertext[bit / 8] ^= 1 << (bit % 8);
            out.push((format!("ciphertext bit {bit}"), m));
        }
        for keep in [0, len / 2, len - 1] {
            let mut m = blob.clone();
            m.ciphertext.truncate(keep);
            out.push((format!("truncated to {keep}"), m));
        }
    }
    for extra in [1usize, 63, 64, 4_096] {
        let mut m = blob.clone();
        m.ciphertext.extend((0..extra).map(|i| derive_seed(seed ^ 0xE7, i as u64) as u8));
        out.push((format!("extended by {extra}"), m));
    }
    let mut m = blob.clone();
    m.nonce = other.nonce;
    out.push(("another blob's nonce".into(), m));
    let mut m = blob.clone();
    m.tag = other.tag;
    out.push(("another blob's tag".into(), m));
    out
}

/// Unseals `blob` into a buffer holding earlier contents; returns the
/// result, whether the buffer is untouched, and the bytes requested.
fn unseal(enclave: &mut Enclave, blob: &SealedBlob) -> (Result<Vec<u8>, EnclaveError>, bool, u64) {
    let mut out = Vec::with_capacity(3_000);
    out.extend_from_slice(b"earlier contents");
    let (ptr, cap) = (out.as_ptr(), out.capacity());
    let (_, before) = thread_alloc_counts();
    let result = enclave.unseal_into(blob, &mut out);
    let (_, after) = thread_alloc_counts();
    let untouched = out == b"earlier contents" && out.as_ptr() == ptr && out.capacity() == cap;
    (result.map(|()| out), untouched, after - before)
}

#[test]
fn mutated_blobs_fail_closed_and_leave_the_buffer_alone() {
    let mut enclave = Enclave::new(EpcConfig::default(), b"darknight-enclave");
    let mut impostor = Enclave::new(EpcConfig::default(), b"another-enclave");
    let mut tried = 0;
    for (i, &len) in LENGTHS.iter().enumerate() {
        let data = plaintext(len, i as u64);
        let blob = enclave.seal(&data);
        let other = enclave.seal(&plaintext(len + 3, i as u64 ^ 0x5EA1));
        // The blob unseals, within the bound, whatever the buffer held.
        let (result, _, requested) = unseal(&mut enclave, &blob);
        assert_eq!(result.as_deref().ok(), Some(&data[..]), "len {len}");
        assert!(requested <= len as u64 + CHUNK, "len {len}: {requested} bytes requested");
        // The same plaintext sealed under another identity is a forgery
        // here.
        let foreign = impostor.seal(&data);
        let mut all = mutants(&blob, &other, i as u64);
        all.push(("sealed under another identity".into(), foreign));
        for (what, mutant) in all {
            let (result, untouched, requested) = unseal(&mut enclave, &mutant);
            assert!(matches!(result, Err(EnclaveError::Seal(_))), "len {len}, {what}: {result:?}");
            assert!(untouched, "len {len}, {what}: the output buffer changed");
            let bound = mutant.ciphertext.len() as u64 + CHUNK;
            assert!(requested <= bound, "len {len}, {what}: {requested} bytes requested, bound {bound}");
            tried += 1;
        }
    }
    assert!(tried > LENGTHS.len() * 160, "{tried} mutants");
}
