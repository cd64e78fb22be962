//! ChaCha20 stream cipher (RFC 8439), the confidentiality half of the
//! enclave's sealing primitive.
//!
//! The keystream is `dk_field`'s block function
//! ([`dk_field::chacha::blocks`]) at 20 rounds with RFC 8439's 32-bit
//! counter: eight blocks per pass, XORed into the data as it comes, the
//! whole pass compiled for the CPU's widest vector tier
//! ([`dk_field::tier`]). A tail shorter than eight blocks takes one more
//! pass, and the counter advances by the blocks the data spanned.

use dk_field::chacha::{self, Counter, WORDS};
use dk_field::tier::{Body, Tier, Width};

/// Keystream bytes one pass of the block function yields.
const PASS: usize = 4 * WORDS;

/// ChaCha20 keystream generator / XOR cipher.
///
/// Encryption and decryption are the same XOR operation.
///
/// # Example
///
/// ```
/// use dk_tee::crypto::chacha::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut data = b"secret gradient shard".to_vec();
/// ChaCha20::new(&key, &nonce).apply(&mut data);
/// assert_ne!(&data, b"secret gradient shard");
/// ChaCha20::new(&key, &nonce).apply(&mut data);
/// assert_eq!(&data, b"secret gradient shard");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    /// The next block's counter.
    counter: u32,
    nonce: [u32; 3],
}

impl ChaCha20 {
    /// Creates a cipher instance with block counter 0.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        Self::with_counter(key, nonce, 0)
    }

    /// Creates a cipher instance starting at the given block counter.
    pub fn with_counter(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let (key, _) = key.as_chunks::<4>();
        let (nonce, _) = nonce.as_chunks::<4>();
        let key = std::array::from_fn(|i| u32::from_le_bytes(key[i]));
        let nonce = std::array::from_fn(|i| u32::from_le_bytes(nonce[i]));
        Self { key, counter, nonce }
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    pub fn apply(&mut self, data: &mut [u8]) {
        self.apply_on(Tier::best(), data);
    }

    /// Appends `input` XOR the keystream to `out`: [`ChaCha20::apply`]
    /// from one buffer into another, in one pass.
    pub fn apply_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        self.apply_into_on(Tier::best(), input, out);
    }

    /// [`ChaCha20::apply`] on a given tier; the tests drive every tier
    /// the host offers through it.
    fn apply_on(&mut self, tier: Tier, data: &mut [u8]) {
        let len = data.len();
        self.keystream(tier, len, |at, ks| {
            for (d, k) in data[at..].iter_mut().zip(ks) {
                *d ^= k;
            }
        });
    }

    /// [`ChaCha20::apply_into`] on a given tier.
    fn apply_into_on(&mut self, tier: Tier, input: &[u8], out: &mut Vec<u8>) {
        out.reserve(input.len());
        self.keystream(tier, input.len(), |at, ks| {
            out.extend(input[at..].iter().zip(ks).map(|(d, k)| d ^ k));
        });
    }

    /// Runs the keystream for `len` bytes past `xor`, one pass of
    /// [`chacha::BLOCKS`] blocks at a time (`xor(at, ks)`: the keystream
    /// for the bytes from `at` on), compiled for `tier`, and advances the
    /// counter by the `⌈len/64⌉` blocks used.
    fn keystream(&mut self, tier: Tier, len: usize, xor: impl FnMut(usize, &[u8])) {
        tier.run(Keystream { cipher: self, len, xor });
    }
}

/// The body of [`ChaCha20::keystream`].
struct Keystream<'a, F> {
    cipher: &'a mut ChaCha20,
    len: usize,
    xor: F,
}

impl<F: FnMut(usize, &[u8])> Body for Keystream<'_, F> {
    type Out = ();

    #[inline(always)]
    fn run<W: Width>(self, _: W) {
        let Self { cipher, len, mut xor } = self;
        let (mut words, mut bytes) = ([0u32; WORDS], [0u8; PASS]);
        for at in (0..len).step_by(PASS) {
            chacha::blocks::<20>(&cipher.key, Counter::Narrow(cipher.counter, cipher.nonce), &mut words);
            for (b, w) in bytes.as_chunks_mut::<4>().0.iter_mut().zip(&words) {
                *b = w.to_le_bytes();
            }
            let used = PASS.min(len - at);
            xor(at, &bytes[..used]);
            cipher.counter = cipher.counter.wrapping_add(used.div_ceil(64) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RFC_KEY: [u8; 32] = {
        let mut key = [0u8; 32];
        let mut i = 0;
        while i < 32 {
            key[i] = i as u8;
            i += 1;
        }
        key
    };

    impl ChaCha20 {
        /// The next block's sixteen input words, as RFC 8439 §2.3 lays
        /// them out.
        fn state(&self) -> [u32; 16] {
            let mut state = [0u32; 16];
            state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
            state[4..12].copy_from_slice(&self.key);
            state[12] = self.counter;
            state[13..].copy_from_slice(&self.nonce);
            state
        }
    }

    /// The scalar block function, one block at a time, as RFC 8439 §2.3
    /// writes it: the reference the eight-block passes are held to.
    fn block(state: &[u32; 16]) -> [u8; 64] {
        fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut working = *state;
        for _ in 0..10 {
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for (o, (w, s)) in out.chunks_exact_mut(4).zip(working.iter().zip(state)) {
            o.copy_from_slice(&w.wrapping_add(*s).to_le_bytes());
        }
        out
    }

    /// [`ChaCha20::apply`] by the scalar block, one block per 64 bytes,
    /// byte by byte; returns the state it leaves.
    fn reference_apply(mut state: [u32; 16], data: &mut [u8]) -> [u32; 16] {
        for chunk in data.chunks_mut(64) {
            for (d, k) in chunk.iter_mut().zip(block(&state)) {
                *d ^= k;
            }
            state[12] = state[12].wrapping_add(1);
        }
        state
    }

    /// RFC 8439 §2.3.2: the keystream block for the standard key, nonce
    /// and counter, all 64 bytes, by the scalar block and by the cipher.
    #[test]
    fn rfc8439_block_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let want: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block(&ChaCha20::with_counter(&RFC_KEY, &nonce, 1).state()), want);
        let mut keystream = [0u8; 64];
        ChaCha20::with_counter(&RFC_KEY, &nonce, 1).apply(&mut keystream);
        assert_eq!(keystream, want);
    }

    /// RFC 8439 §2.4.2: the whole 114-byte ciphertext, in place and from
    /// one buffer into another.
    #[test]
    fn rfc8439_encrypt_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plain = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let want: [u8; 114] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59,
            0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab,
            0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
            0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
            0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9,
            0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42,
            0x87, 0x4d,
        ];
        let mut data = plain.to_vec();
        ChaCha20::with_counter(&RFC_KEY, &nonce, 1).apply(&mut data);
        assert_eq!(data, want);
        let mut out = vec![0xee; 3];
        ChaCha20::with_counter(&RFC_KEY, &nonce, 1).apply_into(plain, &mut out);
        assert_eq!((&out[..3], &out[3..]), (&[0xee; 3][..], &want[..]));
    }

    /// Both forms on every tier against the scalar reference, at lengths
    /// around one block and one eight-block pass, from counters that stay
    /// clear of the 32-bit wrap and from counters that cross it; the
    /// state each leaves continues the stream.
    #[test]
    fn apply_is_the_scalar_cipher_on_every_tier_and_length() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 29 + 3) as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| (i * 7 + 1) as u8);
        for tier in Tier::offered() {
            for counter in [0, 1, u32::MAX - 70, u32::MAX - 7, u32::MAX - 2, u32::MAX] {
                for len in [0usize, 1, 63, 64, 65, 511, 512, 513, 4173] {
                    let plain: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
                    let mut want = plain.clone();
                    let start = ChaCha20::with_counter(&key, &nonce, counter).state();
                    let left = reference_apply(start, &mut want);
                    let what = format!("{tier:?} counter {counter} len {len}");

                    let mut cipher = ChaCha20::with_counter(&key, &nonce, counter);
                    let mut got = plain.clone();
                    cipher.apply_on(tier, &mut got);
                    assert_eq!(got, want, "{what}: apply");
                    assert_eq!(cipher.state(), left, "{what}: apply's counter");

                    let mut cipher = ChaCha20::with_counter(&key, &nonce, counter);
                    let mut got = Vec::new();
                    cipher.apply_into_on(tier, &plain, &mut got);
                    assert_eq!(got, want, "{what}: apply_into");
                    assert_eq!(cipher.state(), left, "{what}: apply_into's counter");
                }
            }
        }
    }

    #[test]
    fn round_trip_various_lengths() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut data = original.clone();
            ChaCha20::new(&key, &nonce).apply(&mut data);
            if len > 8 {
                assert_ne!(data, original, "len={len}");
            }
            ChaCha20::new(&key, &nonce).apply(&mut data);
            assert_eq!(data, original, "len={len}");
        }
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ChaCha20::new(&key, &[0u8; 12]).apply(&mut a);
        ChaCha20::new(&key, &[1u8; 12]).apply(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_continuation_matches_streaming() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let mut whole = vec![0u8; 128];
        ChaCha20::new(&key, &nonce).apply(&mut whole);
        let mut first = vec![0u8; 64];
        ChaCha20::with_counter(&key, &nonce, 0).apply(&mut first);
        let mut second = vec![0u8; 64];
        ChaCha20::with_counter(&key, &nonce, 1).apply(&mut second);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }
}
