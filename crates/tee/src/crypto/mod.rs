//! Cryptographic primitives for the TEE simulation.
//!
//! All implemented from scratch (the dependency policy permits no crypto
//! crates): [`sha256`] for measurements, [`chacha`] for sealing
//! confidentiality, [`siphash`] for sealing integrity, composed into the
//! encrypt-then-MAC [`SealKey`].
//!
//! Algorithm 2 seals every virtual batch's gradient shard by shard and
//! unseals them all for the aggregate, so a training step's sealing
//! time is the cipher's and the MAC's, per byte. [`chacha::ChaCha20`] runs
//! `dk_field`'s block function ([`dk_field::chacha`]) eight blocks per
//! pass inside a [`dk_field::tier`] body and XORs as it goes; sealing
//! encrypts the caller's buffer in place, and [`SealKey::unseal_into`]
//! checks the tag over the ciphertext first, then decrypts from the
//! ciphertext straight into the caller's buffer. SipHash-2-4 stays
//! scalar.

pub mod chacha;
pub mod sha256;
pub mod siphash;

use chacha::ChaCha20;
use sha256::Sha256;
use siphash::siphash24_parts;

/// A sealed (encrypted + authenticated) blob, as produced by
/// [`SealKey::seal`]. This is what Algorithm 2 writes to untrusted
/// memory between virtual batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// Per-blob nonce (derived from the sealing sequence number).
    pub nonce: [u8; 12],
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// SipHash-2-4 tag over nonce ‖ ciphertext.
    pub tag: u64,
}

impl SealedBlob {
    /// Total size in bytes (for memory accounting).
    pub fn len(&self) -> usize {
        12 + self.ciphertext.len() + 8
    }

    /// True if the ciphertext is empty.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }
}

/// Errors from unsealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The MAC did not verify: the blob was corrupted or forged.
    TagMismatch,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::TagMismatch => write!(f, "sealed blob failed authentication"),
        }
    }
}

impl std::error::Error for SealError {}

/// An enclave sealing key: encrypt-then-MAC with independent subkeys
/// derived from a master secret.
#[derive(Debug, Clone)]
pub struct SealKey {
    enc_key: [u8; 32],
    mac_key: [u8; 16],
    seq: u64,
}

impl SealKey {
    /// Derives a sealing key from master secret bytes (domain-separated
    /// SHA-256, mimicking SGX's EGETKEY derivation).
    pub fn derive(master: &[u8]) -> Self {
        let mut enc = Sha256::new();
        enc.update(b"darknight-seal-enc");
        enc.update(master);
        let mut mac = Sha256::new();
        mac.update(b"darknight-seal-mac");
        mac.update(master);
        let mac_digest = mac.finalize();
        let mut mac_key = [0u8; 16];
        mac_key.copy_from_slice(&mac_digest[..16]);
        Self { enc_key: enc.finalize(), mac_key, seq: 0 }
    }

    /// Seals a plaintext: encrypts with a fresh nonce and appends a MAC.
    pub fn seal(&mut self, plaintext: &[u8]) -> SealedBlob {
        self.seal_vec(plaintext.to_vec())
    }

    /// [`SealKey::seal`] of the bytes in `buf`, encrypted in place: the
    /// buffer becomes the blob's ciphertext.
    pub fn seal_vec(&mut self, mut ciphertext: Vec<u8>) -> SealedBlob {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.seq.to_le_bytes());
        self.seq += 1;
        ChaCha20::new(&self.enc_key, &nonce).apply(&mut ciphertext);
        let tag = self.compute_tag(&nonce, &ciphertext);
        SealedBlob { nonce, ciphertext, tag }
    }

    /// Unseals a blob, verifying integrity first.
    ///
    /// # Errors
    ///
    /// [`SealError::TagMismatch`] if the blob was tampered with.
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>, SealError> {
        let mut plaintext = Vec::new();
        self.unseal_into(blob, &mut plaintext)?;
        Ok(plaintext)
    }

    /// [`SealKey::unseal`] into a caller's buffer, whose contents are
    /// replaced (its allocation is reused): the tag is verified over the
    /// ciphertext, and only then is the ciphertext decrypted into `out`,
    /// in one pass. On error `out` is left unchanged.
    ///
    /// # Errors
    ///
    /// [`SealError::TagMismatch`] if the blob was tampered with.
    pub fn unseal_into(&self, blob: &SealedBlob, out: &mut Vec<u8>) -> Result<(), SealError> {
        let expect = self.compute_tag(&blob.nonce, &blob.ciphertext);
        if expect != blob.tag {
            return Err(SealError::TagMismatch);
        }
        out.clear();
        ChaCha20::new(&self.enc_key, &blob.nonce).apply_into(&blob.ciphertext, out);
        Ok(())
    }

    /// SipHash-2-4 over nonce ‖ ciphertext, streamed over the two
    /// slices rather than copied into one.
    fn compute_tag(&self, nonce: &[u8; 12], ciphertext: &[u8]) -> u64 {
        siphash24_parts(&self.mac_key, &[nonce, ciphertext])
    }
}

/// Serializes a slice of `f32` to little-endian bytes (sealing payloads).
pub fn f32s_to_bytes(vals: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    extend_f32s_as_bytes(vals, &mut out);
    out
}

/// Appends `vals` to `out` as little-endian bytes, in one pass.
pub fn extend_f32s_as_bytes(vals: &[f32], out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + 4 * vals.len(), 0);
    for (b, v) in out[at..].as_chunks_mut::<4>().0.iter_mut().zip(vals) {
        *b = v.to_le_bytes();
    }
}

/// Deserializes little-endian bytes back to `f32`s.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    assert_eq!(bytes.len() % 4, 0, "byte length must be a multiple of 4");
    bytes.as_chunks::<4>().0.iter().map(|&c| f32::from_le_bytes(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let mut key = SealKey::derive(b"master secret");
        let blob = key.seal(b"gradient update bytes");
        assert_eq!(key.unseal(&blob).unwrap(), b"gradient update bytes");
    }

    /// The tag is SipHash-2-4 of nonce ‖ ciphertext, as the blob
    /// documents.
    #[test]
    fn tag_is_siphash_of_nonce_and_ciphertext() {
        let mut key = SealKey::derive(b"m");
        for len in [0usize, 3, 4, 11, 64, 333] {
            let blob = key.seal(&vec![0x5a; len]);
            let mut msg = blob.nonce.to_vec();
            msg.extend_from_slice(&blob.ciphertext);
            assert_eq!(blob.tag, siphash::siphash24(&key.mac_key, &msg), "len {len}");
        }
    }

    #[test]
    fn tamper_detected_in_ciphertext() {
        let mut key = SealKey::derive(b"m");
        let mut blob = key.seal(b"payload");
        blob.ciphertext[0] ^= 1;
        assert_eq!(key.unseal(&blob), Err(SealError::TagMismatch));
    }

    #[test]
    fn tamper_detected_in_nonce() {
        let mut key = SealKey::derive(b"m");
        let mut blob = key.seal(b"payload");
        blob.nonce[0] ^= 1;
        assert_eq!(key.unseal(&blob), Err(SealError::TagMismatch));
    }

    #[test]
    fn tamper_detected_in_tag() {
        let mut key = SealKey::derive(b"m");
        let mut blob = key.seal(b"payload");
        blob.tag ^= 1;
        assert_eq!(key.unseal(&blob), Err(SealError::TagMismatch));
    }

    #[test]
    fn nonces_are_unique_per_seal() {
        let mut key = SealKey::derive(b"m");
        let a = key.seal(b"same");
        let b = key.seal(b"same");
        assert_ne!(a.nonce, b.nonce);
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn different_masters_cannot_unseal() {
        let mut k1 = SealKey::derive(b"alpha");
        let k2 = SealKey::derive(b"beta");
        let blob = k1.seal(b"secret");
        assert!(k2.unseal(&blob).is_err());
    }

    #[test]
    fn f32_bytes_round_trip() {
        let vals = [1.5f32, -0.25, 1e-9, f32::MAX];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&vals)), vals);
    }

    #[test]
    fn empty_blob_round_trip() {
        let mut key = SealKey::derive(b"m");
        let blob = key.seal(b"");
        assert!(blob.is_empty());
        assert_eq!(key.unseal(&blob).unwrap(), Vec::<u8>::new());
    }
}
