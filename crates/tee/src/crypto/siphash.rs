//! SipHash-2-4 keyed MAC (Aumasson–Bernstein), the integrity half of the
//! enclave's sealing primitive.

/// Computes the 64-bit SipHash-2-4 tag of `data` under a 128-bit key.
///
/// # Example
///
/// ```
/// use dk_tee::crypto::siphash::siphash24;
///
/// let key = [0u8; 16];
/// assert_ne!(siphash24(&key, b"a"), siphash24(&key, b"b"));
/// ```
pub fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    siphash24_parts(key, &[data])
}

/// The SipHash-2-4 tag of the concatenation of `parts`, streamed: equal
/// to [`siphash24`] of the joined bytes, without joining them. A block
/// that straddles two parts is assembled in an 8-byte buffer.
pub fn siphash24_parts(key: &[u8; 16], parts: &[&[u8]]) -> u64 {
    // Bytes 0..8 and 8..16, little-endian.
    let k = u128::from_le_bytes(*key);
    let (k0, k1) = (k as u64, (k >> 64) as u64);
    let mut v = [
        0x736f6d6570736575u64 ^ k0,
        0x646f72616e646f6du64 ^ k1,
        0x6c7967656e657261u64 ^ k0,
        0x7465646279746573u64 ^ k1,
    ];
    let mut pending = [0u8; 8];
    let mut held = 0;
    let mut len = 0usize;
    for &part in parts {
        len += part.len();
        let mut part = part;
        if held > 0 {
            let take = (8 - held).min(part.len());
            pending[held..held + take].copy_from_slice(&part[..take]);
            (held, part) = (held + take, &part[take..]);
            if held < 8 {
                continue;
            }
            compress(&mut v, u64::from_le_bytes(pending));
        }
        let (blocks, rest) = part.as_chunks::<8>();
        for block in blocks {
            compress(&mut v, u64::from_le_bytes(*block));
        }
        pending[..rest.len()].copy_from_slice(rest);
        held = rest.len();
    }
    // Final block: remaining bytes plus the length in the top byte.
    let mut last = (len as u64) << 56;
    for (i, &b) in pending[..held].iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    compress(&mut v, last);
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// One message block: two compression rounds.
#[inline]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper (Appendix A): key
    /// 000102…0f, messages of increasing length 0,1,2,…
    #[test]
    fn paper_test_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let expected: [u64; 8] = [
            0x726fdb47dd0e0e31,
            0x74f839c593dc67fd,
            0x0d6c8009d9a94f5a,
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
        ];
        let data: Vec<u8> = (0..8u8).collect();
        for (len, &want) in expected.iter().enumerate() {
            assert_eq!(siphash24(&key, &data[..len]), want, "len={len}");
        }
    }

    #[test]
    fn key_sensitivity() {
        let k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k2[15] = 1;
        assert_ne!(siphash24(&k1, b"message"), siphash24(&k2, b"message"));
    }

    #[test]
    fn message_sensitivity() {
        let key = [7u8; 16];
        let a = siphash24(&key, b"gradient shard 0");
        let b = siphash24(&key, b"gradient shard 1");
        assert_ne!(a, b);
    }

    /// Streaming over parts equals hashing their concatenation, for
    /// every split of messages around the 8-byte block, empty parts
    /// included.
    #[test]
    fn parts_equal_the_concatenation() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let data: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(31)).collect();
        for len in 0..data.len() {
            let msg = &data[..len];
            let whole = siphash24(&key, msg);
            for a in 0..=len {
                for b in a..=len {
                    let parts = [&msg[..a], &msg[a..b], &[][..], &msg[b..]];
                    assert_eq!(siphash24_parts(&key, &parts), whole, "len {len} split {a}/{b}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let key = [3u8; 16];
        assert_eq!(siphash24(&key, b"x"), siphash24(&key, b"x"));
    }
}
