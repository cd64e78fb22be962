//! Simulated local/remote attestation and session-key establishment.
//!
//! The paper's system model (§3) requires (a) the client to verify the
//! code running in the enclave before sending data, and (b) pairwise
//! secure channels between the TEE and each GPU, "established using a
//! secret key exchange protocol at the beginning of the session". This
//! module simulates both with a quote structure signed by a platform key
//! (standing in for the EPID/DCAP infrastructure) and a toy
//! Diffie–Hellman exchange in the multiplicative group modulo the prime
//! `2^61 − 1`, whose arithmetic is the private `mod_pow` below.
//!
//! **Not real cryptography** — a 61-bit DH group is trivially breakable;
//! it exists to exercise the protocol shape. See the crate-level
//! disclaimer.

use crate::crypto::sha256::Sha256;
use crate::crypto::siphash::siphash24;
use dk_field::FieldRng;

/// The group modulus of the toy exchange: the prime `2^61 − 1`.
const MODULUS: u64 = (1 << 61) - 1;

/// The DH generator used by the toy exchange.
const GENERATOR: u64 = 5;

/// `base^e mod 2^61 − 1` by square-and-multiply. Operands are reduced
/// below the modulus, so every product fits a `u128`.
fn mod_pow(base: u64, mut e: u64) -> u64 {
    let mul = |a: u64, b: u64| (a as u128 * b as u128 % MODULUS as u128) as u64;
    let (mut base, mut acc) = (base % MODULUS, 1);
    while e > 0 {
        if e & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        e >>= 1;
    }
    acc
}

/// A Diffie–Hellman key pair modulo `2^61 − 1`.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: u64,
    public: u64,
}

impl KeyPair {
    /// Generates a key pair from the given RNG.
    pub fn generate(rng: &mut FieldRng) -> Self {
        // Secret in [2, p-2].
        let secret = 2 + rng.next_u64() % (MODULUS - 3);
        let public = mod_pow(GENERATOR, secret);
        Self { secret, public }
    }

    /// The public half, a group element below `2^61 − 1`.
    pub fn public(&self) -> u64 {
        self.public
    }

    /// Computes the shared secret with a peer's public value and derives
    /// a 32-byte session key (SHA-256 over the shared group element and
    /// a context label).
    pub fn session_key(&self, peer_public: u64, context: &[u8]) -> [u8; 32] {
        let shared = mod_pow(peer_public, self.secret);
        let mut h = Sha256::new();
        h.update(b"darknight-session");
        h.update(&shared.to_le_bytes());
        h.update(context);
        h.finalize()
    }
}

/// An attestation quote: the enclave's measurement bound to caller
/// report data (e.g. its DH public key), signed by the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// MRENCLAVE analogue.
    pub measurement: [u8; 32],
    /// 32 bytes of caller-chosen report data.
    pub report_data: [u8; 32],
    /// Platform signature (keyed MAC in this simulation).
    pub signature: u64,
}

/// The platform quoting key (simulates the attestation infrastructure;
/// shared between quote generation and verification).
#[derive(Debug, Clone)]
pub struct PlatformKey([u8; 16]);

impl PlatformKey {
    /// Derives the platform key from provisioning material.
    pub fn from_seed(seed: u64) -> Self {
        let d = Sha256::digest(&seed.to_le_bytes());
        let mut k = [0u8; 16];
        k.copy_from_slice(&d[..16]);
        Self(k)
    }

    /// Produces a quote over a measurement and report data.
    pub fn quote(&self, measurement: [u8; 32], report_data: [u8; 32]) -> Quote {
        let mut msg = Vec::with_capacity(64);
        msg.extend_from_slice(&measurement);
        msg.extend_from_slice(&report_data);
        Quote { measurement, report_data, signature: siphash24(&self.0, &msg) }
    }

    /// Verifies a quote's signature and (optionally) its measurement
    /// against an expected value.
    pub fn verify(&self, quote: &Quote, expected_measurement: Option<&[u8; 32]>) -> bool {
        if let Some(m) = expected_measurement {
            if m != &quote.measurement {
                return false;
            }
        }
        let mut msg = Vec::with_capacity(64);
        msg.extend_from_slice(&quote.measurement);
        msg.extend_from_slice(&quote.report_data);
        siphash24(&self.0, &msg) == quote.signature
    }
}

/// Runs the full attested key exchange between a client and an enclave:
/// both sides generate key pairs, the enclave's public key is bound into
/// its quote's report data, the client verifies the quote, and both
/// derive the same session key. Returns `(client_key, enclave_key)`.
///
/// # Errors
///
/// Returns `Err` if quote verification fails.
pub fn attested_key_exchange(
    platform: &PlatformKey,
    enclave_measurement: [u8; 32],
    expected_measurement: &[u8; 32],
    rng: &mut FieldRng,
) -> Result<([u8; 32], [u8; 32]), &'static str> {
    let client = KeyPair::generate(rng);
    let enclave = KeyPair::generate(rng);
    // Enclave binds its DH public key into the quote.
    let mut report = [0u8; 32];
    report[..8].copy_from_slice(&enclave.public().to_le_bytes());
    let quote = platform.quote(enclave_measurement, report);
    if !platform.verify(&quote, Some(expected_measurement)) {
        return Err("quote verification failed");
    }
    let quoted_pub = u64::from_le_bytes(quote.report_data[..8].try_into().expect("8 bytes"));
    let client_key = client.session_key(quoted_pub, b"client-enclave");
    let enclave_key = enclave.session_key(client.public(), b"client-enclave");
    Ok((client_key, enclave_key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_pow_is_the_group_power() {
        assert_eq!(mod_pow(GENERATOR, 0), 1);
        assert_eq!(mod_pow(GENERATOR, 3), 125);
        assert_eq!(mod_pow(MODULUS + 5, 2), 25, "the base is reduced first");
        assert_eq!(mod_pow(MODULUS - 1, 2), 1, "(−1)² = 1");
        assert_eq!(mod_pow(GENERATOR, MODULUS - 1), 1, "Fermat: the modulus is prime");
    }

    #[test]
    fn dh_agreement() {
        let mut rng = FieldRng::seed_from(1);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(
            a.session_key(b.public(), b"ctx"),
            b.session_key(a.public(), b"ctx")
        );
    }

    #[test]
    fn dh_context_separation() {
        let mut rng = FieldRng::seed_from(2);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_ne!(
            a.session_key(b.public(), b"ctx1"),
            a.session_key(b.public(), b"ctx2")
        );
    }

    #[test]
    fn quote_round_trip() {
        let pk = PlatformKey::from_seed(9);
        let m = Sha256::digest(b"enclave code");
        let q = pk.quote(m, [7u8; 32]);
        assert!(pk.verify(&q, Some(&m)));
        assert!(pk.verify(&q, None));
    }

    #[test]
    fn forged_signature_rejected() {
        let pk = PlatformKey::from_seed(9);
        let m = Sha256::digest(b"enclave code");
        let mut q = pk.quote(m, [7u8; 32]);
        q.signature ^= 1;
        assert!(!pk.verify(&q, Some(&m)));
    }

    #[test]
    fn wrong_measurement_rejected() {
        let pk = PlatformKey::from_seed(9);
        let m1 = Sha256::digest(b"good code");
        let m2 = Sha256::digest(b"evil code");
        let q = pk.quote(m2, [0u8; 32]);
        // Signature is valid but measurement does not match expectation.
        assert!(pk.verify(&q, None));
        assert!(!pk.verify(&q, Some(&m1)));
    }

    #[test]
    fn wrong_platform_key_rejected() {
        let pk1 = PlatformKey::from_seed(1);
        let pk2 = PlatformKey::from_seed(2);
        let m = Sha256::digest(b"code");
        let q = pk1.quote(m, [0u8; 32]);
        assert!(!pk2.verify(&q, Some(&m)));
    }

    #[test]
    fn full_attested_exchange() {
        let mut rng = FieldRng::seed_from(5);
        let pk = PlatformKey::from_seed(11);
        let m = Sha256::digest(b"darknight enclave v1");
        let (ck, ek) = attested_key_exchange(&pk, m, &m, &mut rng).unwrap();
        assert_eq!(ck, ek);
    }

    #[test]
    fn exchange_rejects_wrong_code() {
        let mut rng = FieldRng::seed_from(6);
        let pk = PlatformKey::from_seed(11);
        let good = Sha256::digest(b"darknight enclave v1");
        let evil = Sha256::digest(b"backdoored enclave");
        assert!(attested_key_exchange(&pk, evil, &good, &mut rng).is_err());
    }
}
