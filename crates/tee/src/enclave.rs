//! The enclave simulator: protected-memory budget and sealing.
//!
//! SGX's defining performance constraint is its small protected memory
//! (the paper's hardware has a 128 MB EPC, ~93 MB usable). Everything
//! DarKnight does with virtual batches — why `K` is 4-8 and not 128, why
//! Fig. 3 has a sweet spot, why Fig. 6b degrades past `K = 4`, why SGX
//! multithreading *hurts* (Fig. 7) — follows from this budget. The
//! simulator therefore enforces the budget on every allocation the
//! private executor makes and counts paging events when the working set
//! exceeds it.

use crate::crypto::{SealError, SealKey, SealedBlob, sha256::Sha256};

/// Enclave protected-memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcConfig {
    /// Usable protected bytes.
    pub capacity_bytes: usize,
}

impl EpcConfig {
    /// The paper's platform: SGXv1 with 128 MB EPC, ~93 MB usable after
    /// metadata (the commonly cited figure for SGXv1).
    pub fn sgx_v1() -> Self {
        Self { capacity_bytes: 93 * 1024 * 1024 }
    }

    /// A custom capacity (tests use small budgets to force paging).
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        Self { capacity_bytes }
    }
}

impl Default for EpcConfig {
    fn default() -> Self {
        Self::sgx_v1()
    }
}

/// Counters describing enclave memory behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    // NOTE: every field participates in [`MemoryStats::merge`] below —
    // keep the two in sync when adding counters.
    /// Bytes currently allocated inside the enclave.
    pub current_bytes: usize,
    /// Peak allocation.
    pub peak_bytes: usize,
    /// Number of successful allocations.
    pub alloc_count: u64,
    /// EPC paging events (allocations that exceeded capacity and had to
    /// evict+encrypt pages, SGX's dominant overhead).
    pub paging_events: u64,
    /// Bytes moved by paging.
    pub paged_bytes: u64,
    /// Bytes sealed out to untrusted memory.
    pub sealed_out_bytes: u64,
    /// Bytes unsealed back in.
    pub sealed_in_bytes: u64,
    /// Number of seal operations.
    pub seal_count: u64,
    /// Number of unseal operations.
    pub unseal_count: u64,
}

impl MemoryStats {
    /// Adds another enclave's counters into this one. Used to aggregate
    /// across co-resident enclaves (e.g. the pipelined engine's lanes);
    /// peaks and current bytes are summed because the enclaves occupy
    /// protected memory simultaneously.
    pub fn merge(&mut self, o: &MemoryStats) {
        self.current_bytes += o.current_bytes;
        self.peak_bytes += o.peak_bytes;
        self.alloc_count += o.alloc_count;
        self.paging_events += o.paging_events;
        self.paged_bytes += o.paged_bytes;
        self.sealed_out_bytes += o.sealed_out_bytes;
        self.sealed_in_bytes += o.sealed_in_bytes;
        self.seal_count += o.seal_count;
        self.unseal_count += o.unseal_count;
    }
}

/// Errors from enclave operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveError {
    /// A strict allocation did not fit in the EPC.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// Unsealing failed authentication.
    Seal(SealError),
    /// Attempt to release more bytes than are allocated.
    ReleaseUnderflow,
}

impl std::fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveError::OutOfMemory { requested, available } => {
                write!(f, "enclave out of protected memory: requested {requested}, available {available}")
            }
            EnclaveError::Seal(e) => write!(f, "sealing failure: {e}"),
            EnclaveError::ReleaseUnderflow => write!(f, "released more enclave memory than allocated"),
        }
    }
}

impl std::error::Error for EnclaveError {}

impl From<SealError> for EnclaveError {
    fn from(e: SealError) -> Self {
        EnclaveError::Seal(e)
    }
}

/// A simulated SGX enclave.
///
/// # Example
///
/// ```
/// use dk_tee::{Enclave, EpcConfig};
///
/// let mut enclave = Enclave::new(EpcConfig::with_capacity(1024), b"darknight-v1");
/// enclave.alloc(512).unwrap();
/// assert!(enclave.alloc(600).is_err()); // budget enforced
/// enclave.release(512).unwrap();
/// ```
#[derive(Debug)]
pub struct Enclave {
    config: EpcConfig,
    stats: MemoryStats,
    seal_key: SealKey,
    measurement: [u8; 32],
}

impl Enclave {
    /// Creates an enclave whose measurement is the SHA-256 of
    /// `code_identity` (standing in for MRENCLAVE).
    pub fn new(config: EpcConfig, code_identity: &[u8]) -> Self {
        let measurement = Sha256::digest(code_identity);
        let mut key_material = b"seal:".to_vec();
        key_material.extend_from_slice(&measurement);
        Self {
            config,
            stats: MemoryStats::default(),
            seal_key: SealKey::derive(&key_material),
            measurement,
        }
    }

    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// The configured protected capacity.
    pub fn capacity(&self) -> usize {
        self.config.capacity_bytes
    }

    /// Bytes still available before paging.
    pub fn available(&self) -> usize {
        self.config.capacity_bytes.saturating_sub(self.stats.current_bytes)
    }

    /// Strictly allocates protected memory; fails if it does not fit.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::OutOfMemory`] if the allocation exceeds capacity.
    pub fn alloc(&mut self, bytes: usize) -> Result<(), EnclaveError> {
        if bytes > self.available() {
            return Err(EnclaveError::OutOfMemory { requested: bytes, available: self.available() });
        }
        self.stats.current_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.current_bytes);
        self.stats.alloc_count += 1;
        Ok(())
    }

    /// Allocates with overcommit: succeeds always, but every byte beyond
    /// capacity is charged as paging traffic (the SGX EWB/ELD path).
    /// Returns the number of paged bytes.
    pub fn alloc_paged(&mut self, bytes: usize) -> usize {
        let fits = self.available().min(bytes);
        let overflow = bytes - fits;
        self.stats.current_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.current_bytes);
        self.stats.alloc_count += 1;
        if overflow > 0 {
            self.stats.paging_events += 1;
            self.stats.paged_bytes += overflow as u64;
        }
        overflow
    }

    /// Releases previously allocated protected memory.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::ReleaseUnderflow`] if more is released than held.
    pub fn release(&mut self, bytes: usize) -> Result<(), EnclaveError> {
        if bytes > self.stats.current_bytes {
            return Err(EnclaveError::ReleaseUnderflow);
        }
        self.stats.current_bytes -= bytes;
        Ok(())
    }

    /// Seals data for storage outside the enclave (Algorithm 2 line 9).
    pub fn seal(&mut self, plaintext: &[u8]) -> SealedBlob {
        self.seal_vec(plaintext.to_vec())
    }

    /// [`Enclave::seal`] of the bytes in `buf`, encrypted in place: the
    /// buffer becomes the blob's ciphertext.
    pub fn seal_vec(&mut self, buf: Vec<u8>) -> SealedBlob {
        self.stats.seal_count += 1;
        self.stats.sealed_out_bytes += buf.len() as u64;
        self.seal_key.seal_vec(buf)
    }

    /// Unseals data previously sealed by this enclave (Algorithm 2
    /// line 19).
    ///
    /// # Errors
    ///
    /// [`EnclaveError::Seal`] on authentication failure.
    pub fn unseal(&mut self, blob: &SealedBlob) -> Result<Vec<u8>, EnclaveError> {
        let mut plaintext = Vec::new();
        self.unseal_into(blob, &mut plaintext)?;
        Ok(plaintext)
    }

    /// [`Enclave::unseal`] into a caller's buffer, whose contents are
    /// replaced (its allocation is reused).
    ///
    /// # Errors
    ///
    /// [`EnclaveError::Seal`] on authentication failure.
    pub fn unseal_into(&mut self, blob: &SealedBlob, out: &mut Vec<u8>) -> Result<(), EnclaveError> {
        self.seal_key.unseal_into(blob, out)?;
        self.stats.unseal_count += 1;
        self.stats.sealed_in_bytes += out.len() as u64;
        Ok(())
    }

    /// Memory statistics so far.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// Resets the counters (capacity and keys retained).
    pub fn reset_stats(&mut self) {
        let current = self.stats.current_bytes;
        self.stats = MemoryStats { current_bytes: current, peak_bytes: current, ..Default::default() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_within_capacity() {
        let mut e = Enclave::new(EpcConfig::with_capacity(100), b"x");
        assert!(e.alloc(60).is_ok());
        assert_eq!(e.available(), 40);
        assert!(e.alloc(41).is_err());
        assert!(e.alloc(40).is_ok());
        assert_eq!(e.available(), 0);
    }

    #[test]
    fn release_returns_budget() {
        let mut e = Enclave::new(EpcConfig::with_capacity(100), b"x");
        e.alloc(80).unwrap();
        e.release(50).unwrap();
        assert!(e.alloc(60).is_ok());
    }

    #[test]
    fn release_underflow_detected() {
        let mut e = Enclave::new(EpcConfig::with_capacity(100), b"x");
        e.alloc(10).unwrap();
        assert_eq!(e.release(11), Err(EnclaveError::ReleaseUnderflow));
    }

    #[test]
    fn paged_alloc_counts_overflow() {
        let mut e = Enclave::new(EpcConfig::with_capacity(100), b"x");
        assert_eq!(e.alloc_paged(80), 0);
        assert_eq!(e.alloc_paged(50), 30);
        let s = e.stats();
        assert_eq!(s.paging_events, 1);
        assert_eq!(s.paged_bytes, 30);
        assert_eq!(s.peak_bytes, 130);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut e = Enclave::new(EpcConfig::with_capacity(1000), b"x");
        e.alloc(500).unwrap();
        e.release(400).unwrap();
        e.alloc(200).unwrap();
        assert_eq!(e.stats().peak_bytes, 500);
        assert_eq!(e.stats().current_bytes, 300);
    }

    #[test]
    fn seal_counts_bytes() {
        let mut e = Enclave::new(EpcConfig::default(), b"x");
        let blob = e.seal(&[1, 2, 3, 4]);
        let back = e.unseal(&blob).unwrap();
        assert_eq!(back, vec![1, 2, 3, 4]);
        let s = e.stats();
        assert_eq!(s.sealed_out_bytes, 4);
        assert_eq!(s.sealed_in_bytes, 4);
        assert_eq!((s.seal_count, s.unseal_count), (1, 1));
    }

    #[test]
    fn measurement_depends_on_identity() {
        let a = Enclave::new(EpcConfig::default(), b"code-v1");
        let b = Enclave::new(EpcConfig::default(), b"code-v2");
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn different_enclaves_cannot_unseal_each_other() {
        let mut a = Enclave::new(EpcConfig::default(), b"code-v1");
        let mut b = Enclave::new(EpcConfig::default(), b"code-v2");
        let blob = a.seal(b"secret");
        assert!(b.unseal(&blob).is_err());
    }

    #[test]
    fn default_capacity_is_sgx_v1() {
        let e = Enclave::new(EpcConfig::default(), b"x");
        assert_eq!(e.capacity(), 93 * 1024 * 1024);
    }

    #[test]
    fn reset_stats_keeps_current() {
        let mut e = Enclave::new(EpcConfig::with_capacity(100), b"x");
        e.alloc(30).unwrap();
        e.seal(b"abc");
        e.reset_stats();
        let s = e.stats();
        assert_eq!(s.current_bytes, 30);
        assert_eq!(s.seal_count, 0);
    }
}
