//! The ChaCha block function, eight blocks side by side: the one
//! keystream core of the workspace.
//!
//! Two generators share it, at two round counts and two counter
//! layouts: [`crate::FieldRng`] draws from ChaCha12 with a 64-bit block
//! counter and no nonce, and `dk_tee`'s sealing cipher is ChaCha20 with
//! RFC 8439's 32-bit counter and 96-bit nonce. Each calls [`blocks`]
//! from inside a [`crate::tier`] body, so it is compiled for the widest
//! vector unit the CPU offers.
//!
//! The state is held **word-sliced** — `s[w][b]` is word `w` of block
//! `b` — and each double round runs as one loop over the blocks whose
//! body is the scalar double round: the shape a compiler turns into one
//! vector instruction per [`BLOCKS`] blocks, on any target. The output
//! is the blocks in counter order, so how many a call computes is not
//! observable in either stream.

/// Blocks one call of [`blocks`] computes.
pub const BLOCKS: usize = 8;
/// Words one call of [`blocks`] writes: [`BLOCKS`] blocks of sixteen.
pub const WORDS: usize = 16 * BLOCKS;

/// The first block's counter, and where it sits in the state. Words
/// 0–3 are the "expand 32-byte k" constants and 4–11 the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// 64 bits over words 12 (low) and 13, words 14–15 zero: the
    /// original ChaCha layout, with no nonce.
    Wide(u64),
    /// 32 bits in word 12, wrapping mod `2^32`, and the nonce in words
    /// 13–15: RFC 8439.
    Narrow(u32, [u32; 3]),
}

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

#[inline(always)]
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

/// One column round and one diagonal round.
#[inline(always)]
fn double_round(s: &mut [u32; 16]) {
    quarter_round(s, 0, 4, 8, 12);
    quarter_round(s, 1, 5, 9, 13);
    quarter_round(s, 2, 6, 10, 14);
    quarter_round(s, 3, 7, 11, 15);
    quarter_round(s, 0, 5, 10, 15);
    quarter_round(s, 1, 6, 11, 12);
    quarter_round(s, 2, 7, 8, 13);
    quarter_round(s, 3, 4, 9, 14);
}

/// The ChaCha block function with `ROUNDS` rounds under `key` over the
/// [`BLOCKS`] blocks from counter `first` on, written to `out` in
/// counter order: each block is `input + permuted(input)` (the
/// feed-forward that makes the permutation one-way). Compiled into its
/// caller (`#[inline(always)]`), so a caller built for a wider vector
/// unit runs it there, and the words a caller fixes (the constants, a
/// zero nonce) fold into the rounds.
#[inline(always)]
pub fn blocks<const ROUNDS: usize>(key: &[u32; 8], first: Counter, out: &mut [u32; WORDS]) {
    const { assert!(ROUNDS.is_multiple_of(2), "ChaCha runs whole double rounds") };
    let mut input = [[0u32; BLOCKS]; 16];
    for w in 0..4 {
        input[w] = [SIGMA[w]; BLOCKS];
    }
    for w in 0..8 {
        input[4 + w] = [key[w]; BLOCKS];
    }
    match first {
        Counter::Wide(first) => {
            let counters: [u64; BLOCKS] = std::array::from_fn(|b| first.wrapping_add(b as u64));
            input[12] = counters.map(|c| c as u32);
            input[13] = counters.map(|c| (c >> 32) as u32);
        }
        Counter::Narrow(first, nonce) => {
            input[12] = std::array::from_fn(|b| first.wrapping_add(b as u32));
            for (lanes, word) in input[13..].iter_mut().zip(nonce) {
                *lanes = [word; BLOCKS];
            }
        }
    }
    let mut s = input;
    for _ in 0..ROUNDS / 2 {
        for b in 0..BLOCKS {
            let mut x: [u32; 16] = std::array::from_fn(|w| s[w][b]);
            double_round(&mut x);
            for (lanes, word) in s.iter_mut().zip(x) {
                lanes[b] = word;
            }
        }
    }
    for (b, block) in out.chunks_exact_mut(16).enumerate() {
        for ((word, lanes), init) in block.iter_mut().zip(&s).zip(&input) {
            *word = lanes[b].wrapping_add(init[b]);
        }
    }
}

/// The sixteen input words of block `counter` (its own counter, not the
/// first of a call) under `key`.
#[cfg(test)]
pub(crate) fn block_input(key: &[u32; 8], counter: Counter) -> [u32; 16] {
    let mut input = [0u32; 16];
    input[..4].copy_from_slice(&SIGMA);
    input[4..12].copy_from_slice(key);
    match counter {
        Counter::Wide(c) => (input[12], input[13]) = (c as u32, (c >> 32) as u32),
        Counter::Narrow(c, nonce) => {
            input[12] = c;
            input[13..].copy_from_slice(&nonce);
        }
    }
    input
}

/// One block the way the RFC writes it: the oracle for the
/// word-sliced function.
#[cfg(test)]
pub(crate) fn block<const ROUNDS: usize>(input: &[u32; 16]) -> [u32; 16] {
    let mut s = *input;
    for _ in 0..ROUNDS / 2 {
        double_round(&mut s);
    }
    for (out, inp) in s.iter_mut().zip(input.iter()) {
        *out = out.wrapping_add(*inp);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::{Body, Tier, Width};

    struct Blocks<const ROUNDS: usize>([u32; 8], Counter);

    impl<const ROUNDS: usize> Body for Blocks<ROUNDS> {
        type Out = [u32; WORDS];
        #[inline(always)]
        fn run<W: Width>(self, _: W) -> [u32; WORDS] {
            let mut out = [0u32; WORDS];
            blocks::<ROUNDS>(&self.0, self.1, &mut out);
            out
        }
    }

    /// Every tier, both round counts, both counter layouts, across each
    /// layout's carry: block `b` of a call is the scalar block at the
    /// first counter plus `b`, and a narrow counter wraps without
    /// touching the nonce.
    #[test]
    fn blocks_are_the_scalar_blocks_on_every_tier() {
        let key: [u32; 8] = std::array::from_fn(|i| 0x0101_0101 * i as u32 + 7);
        let firsts = [
            Counter::Wide(0),
            Counter::Wide(u64::from(u32::MAX) - 3),
            Counter::Wide(u64::MAX - 2),
            Counter::Narrow(1, [9, 0x4a, 0]),
            Counter::Narrow(u32::MAX - 4, [0xdead, 0xbeef, 7]),
        ];
        for tier in Tier::offered() {
            for first in firsts {
                let got12 = tier.run(Blocks::<12>(key, first));
                let got20 = tier.run(Blocks::<20>(key, first));
                for b in 0..BLOCKS {
                    let counter = match first {
                        Counter::Wide(c) => Counter::Wide(c.wrapping_add(b as u64)),
                        Counter::Narrow(c, nonce) => Counter::Narrow(c.wrapping_add(b as u32), nonce),
                    };
                    let input = block_input(&key, counter);
                    let what = format!("{tier:?} {first:?} block {b}");
                    assert_eq!(got12[16 * b..16 * b + 16], block::<12>(&input), "{what}");
                    assert_eq!(got20[16 * b..16 * b + 16], block::<20>(&input), "{what}");
                }
            }
        }
    }
}
