//! Seeded mutational fuzz of the checkpoint parser, and its length bound.
//!
//! [`TrainingCheckpoint::from_bytes`] reads a payload back from
//! untrusted storage. Valid payloads are mutated — bit flips,
//! truncation, trailing bytes, and lies in every length prefix
//! (`params`, `bn_count`, each BatchNorm mean and variance, `v_count`,
//! each velocity row) — and parsed. For every mutant:
//!
//! * the result is a typed [`DarknightError::Checkpoint`], or a
//!   checkpoint that re-encodes to the bytes it was read from; nothing
//!   panics;
//! * the parse requests at most the bytes it was given plus one
//!   [`CHUNK`] of the allocator (counted on this thread).

use dk_core::{DarknightError, TrainingCheckpoint};
use dk_field::derive_seed;
use dk_linalg::workspace::{thread_alloc_counts, CountingAllocator};
use proptest::prelude::*;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// The allocation a parse may make beyond the bytes it holds.
const CHUNK: u64 = 64 << 10;
/// Where the flags byte sits: after magic, seed, `k` and `m`.
const FLAGS_AT: usize = 8 + 8 + 4 + 4;
/// Where the `params` length sits: after the flags, `frac_bits`,
/// `next_batch` and `steps`.
const PARAMS_AT: usize = FLAGS_AT + 1 + 4 + 8 + 8;

fn vals(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| (derive_seed(seed, i as u64) % 2000) as f32 * 0.01 - 10.0)
        .collect()
}

/// A checkpoint with every section populated, and one with every
/// section empty.
fn corpus() -> [TrainingCheckpoint; 2] {
    let full = TrainingCheckpoint {
        seed: 42,
        k: 4,
        m: 1,
        integrity: true,
        recovery: false,
        frac_bits: 6,
        next_batch: 17,
        steps: 3,
        params: vals(300, 1),
        bn_stats: vec![
            (vals(4, 2), vals(4, 3)),
            (Vec::new(), Vec::new()),
            (vals(2, 4), vals(2, 5)),
        ],
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        velocity: vec![vals(20, 6), Vec::new(), vals(7, 7)],
    };
    let empty = TrainingCheckpoint {
        params: Vec::new(),
        bn_stats: Vec::new(),
        velocity: Vec::new(),
        ..full.clone()
    };
    [full, empty]
}

/// The offset of every length prefix in `c`'s encoding.
fn length_prefixes(c: &TrainingCheckpoint) -> Vec<usize> {
    let mut out = vec![PARAMS_AT];
    let mut at = PARAMS_AT + 8 + 4 * c.params.len();
    out.push(at); // bn_count
    at += 8;
    for (mean, var) in &c.bn_stats {
        out.push(at);
        at += 8 + 4 * mean.len();
        out.push(at);
        at += 8 + 4 * var.len();
    }
    at += 3 * 4; // lr, momentum, weight decay
    out.push(at); // v_count
    at += 8;
    for v in &c.velocity {
        out.push(at);
        at += 8 + 4 * v.len();
    }
    out
}

/// Parses `bytes`; returns the outcome and the bytes this thread
/// requested of the allocator meanwhile.
fn parse(bytes: &[u8]) -> (Result<TrainingCheckpoint, DarknightError>, u64) {
    let (_, before) = thread_alloc_counts();
    let got = TrainingCheckpoint::from_bytes(bytes);
    (got, thread_alloc_counts().1 - before)
}

/// Applies mutation `kind` to `bytes`, drawing from `seed`.
fn mutate(bytes: &mut Vec<u8>, prefixes: &[usize], kind: u64, seed: u64) {
    let mut draws = (0..).map(|i| derive_seed(seed, i));
    let mut draw = |n: usize| (draws.next().unwrap() % n as u64) as usize;
    match kind {
        0 => {
            for _ in 0..1 + draw(4) {
                let bit = draw(8 * bytes.len());
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => bytes.truncate(draw(bytes.len())),
        2 => {
            let extra = 1 + draw(16);
            bytes.extend((0..extra).map(|_| draw(256) as u8));
        }
        _ => {
            let at = prefixes[draw(prefixes.len())];
            let was = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let left = (bytes.len() - at - 8) as u64;
            let lies = [
                0,
                1,
                was + 1,
                was.saturating_sub(1),
                left / 16 + 1,
                left / 4 + 1,
                left,
                1 << 32,
                1 << 62,
                u64::MAX,
            ];
            bytes[at..at + 8].copy_from_slice(&lies[draw(lies.len())].to_le_bytes());
        }
    }
}

#[test]
fn a_length_past_a_quarter_of_the_bytes_left_is_refused_before_allocating() {
    let bytes = corpus()[0].to_bytes();
    let left = (bytes.len() - PARAMS_AT - 8) as u64;
    for n in [left / 4 + 1, left / 2, left] {
        let mut lied = bytes.clone();
        lied[PARAMS_AT..PARAMS_AT + 8].copy_from_slice(&n.to_le_bytes());
        let (got, spent) = parse(&lied);
        assert!(
            matches!(
                got,
                Err(DarknightError::Checkpoint {
                    reason: "truncated payload"
                })
            ),
            "n={n}: {got:?}"
        );
        assert!(
            spent <= lied.len() as u64,
            "a {}-byte payload claiming {n} values made the parser request {spent} bytes",
            lied.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_checkpoints_are_typed_errors_or_their_own_bytes(
        which in 0usize..2,
        kind in 0u64..4,
        seed in any::<u64>(),
    ) {
        let original = &corpus()[which];
        let mut bytes = original.to_bytes();
        mutate(&mut bytes, &length_prefixes(original), kind, seed);
        let (got, spent) = parse(&bytes);
        prop_assert!(
            spent <= bytes.len() as u64 + CHUNK,
            "a {}-byte payload made the parser request {spent} bytes", bytes.len()
        );
        match got {
            Ok(back) => {
                let mut again = back.to_bytes();
                // Only the two low bits of the flags byte mean anything.
                prop_assert_eq!(again[FLAGS_AT], bytes[FLAGS_AT] & 3);
                again[FLAGS_AT] = bytes[FLAGS_AT];
                prop_assert_eq!(again, bytes);
            }
            Err(e) => prop_assert!(matches!(e, DarknightError::Checkpoint { .. }), "untyped error {e:?}"),
        }
    }
}
