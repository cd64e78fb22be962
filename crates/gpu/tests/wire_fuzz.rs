//! Seeded mutational fuzz of the wire decoder.
//!
//! Valid frames of every message and job variant are mutated — bit
//! flips, truncation, trailing bytes, lies in the header length or in a
//! tensor's rank, dims or β count, a value `≥ p` in the first, middle
//! or last lane of a tensor or β row — and read with
//! [`wire::read_msg_into`] against a warm pool. For every mutant:
//!
//! * the result is a typed error, or a message that re-encodes to the
//!   very bytes it was read from; nothing panics;
//! * the read requests at most the bytes it was given plus one read
//!   chunk of the allocator (counted on this thread);
//! * a rejected frame leaves the pool holding every buffer it held: no
//!   buffer stays checked out, and the original frame then decodes
//!   with no more allocation than a warm read of it makes (none, but
//!   for a `Fail`'s text).
//!
//! The fleet manifest, text an operator hands a TEE-side fleet, is held
//! to the same rule: mutants — dropped and duplicated tokens, huge
//! numbers, stray `#`, cuts and splices that split a multi-byte
//! character — parse to a typed error or a manifest whose addresses are
//! tokens of the text, with at most the text's bytes plus one chunk
//! requested.

use dk_field::{derive_seed, F25, P25};
use dk_gpu::wire::{self, WireMsg, MAX_PAYLOAD};
use dk_gpu::{FleetManifest, LinearJob};
use dk_linalg::workspace::{thread_alloc_counts, CountingAllocator};
use dk_linalg::{Conv2dShape, Tensor, Workspace};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::sync::Arc;

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const HEADER: usize = 12;
const READ_CHUNK: u64 = 1 << 20;

/// Where a frame's claims and values sit: the offsets of its count
/// fields (a tensor's rank and dims, a β count) and of each run of
/// value lanes, `(offset, lanes)`.
#[derive(Debug, Default)]
struct Layout {
    counts: Vec<usize>,
    values: Vec<(usize, usize)>,
}

impl Layout {
    /// Records a tensor encoded at `at`; returns the offset after it.
    fn tensor(&mut self, at: usize, t: &Tensor<F25>) -> usize {
        self.counts.extend((0..=t.ndim()).map(|i| at + 4 * i));
        let values = at + 4 * (1 + t.ndim());
        self.values.push((values, t.len()));
        values + 4 * t.len()
    }

    fn beta(&mut self, at: usize, beta: &[F25]) {
        self.counts.push(at);
        self.values.push((at + 4, beta.len()));
    }
}

fn tensor(shape: &[usize], seed: u64) -> Tensor<F25> {
    Tensor::from_fn(shape, |i| F25::new(derive_seed(seed, i as u64) % P25))
}

/// One valid frame of every message and job variant, with its layout.
fn corpus() -> Vec<(Vec<u8>, Layout)> {
    use LinearJob::*;
    let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
    let w = Arc::new(tensor(&shape.weight_shape(), 1));
    let dw = Arc::new(tensor(&[3, 5], 2));
    let beta = vec![F25::new(3), F25::new(P25 - 1)];
    let jobs = vec![
        ConvForward { weights: w.clone(), x: tensor(&[1, 2, 4, 4], 3), shape },
        ConvWeightGrad { delta: tensor(&[1, 3, 4, 4], 4), x: tensor(&[1, 2, 4, 4], 5), shape },
        ConvBackwardData { weights: w, delta: tensor(&[2, 3, 4, 4], 6), shape, input_hw: (4, 4) },
        DenseForward { weights: dw.clone(), x: tensor(&[1, 5], 7) },
        DenseWeightGrad { delta: tensor(&[1, 3], 8), x: tensor(&[1, 5], 9) },
        DenseBackwardData { weights: dw, delta: tensor(&[2, 3], 10) },
        ConvWeightGradStored {
            delta_batch: Arc::new(tensor(&[2, 3, 4, 4], 11)),
            beta: beta.clone(),
            layer_id: (7 << 32) | 2,
            shape,
        },
        DenseWeightGradStored { delta_batch: Arc::new(tensor(&[2, 3], 12)), beta, layer_id: 5 },
    ];
    let mut msgs = Vec::new();
    for job in jobs {
        let mut l = Layout::default();
        let at = HEADER + 1; // after the job tag
        match &job {
            ConvForward { weights, x, .. }
            | ConvBackwardData { weights, delta: x, .. }
            | DenseForward { weights, x }
            | DenseBackwardData { weights, delta: x } => {
                let at = l.tensor(at, weights);
                l.tensor(at, x);
            }
            ConvWeightGrad { delta, x, .. } | DenseWeightGrad { delta, x } => {
                let at = l.tensor(at, delta);
                l.tensor(at, x);
            }
            ConvWeightGradStored { delta_batch, beta, .. }
            | DenseWeightGradStored { delta_batch, beta, .. } => {
                let at = l.tensor(at, delta_batch);
                l.beta(at, beta);
            }
        }
        msgs.push((WireMsg::Run { job }, l));
    }
    let (mut out, mut store) = (Layout::default(), Layout::default());
    let y = tensor(&[1, 3, 4, 4], 13);
    out.tensor(HEADER, &y);
    msgs.push((WireMsg::Output { tensor: y }, out));
    let s = tensor(&[1, 2, 4, 4], 14);
    store.tensor(HEADER + 8, &s);
    msgs.push((WireMsg::Store { ctx_id: 9, tensor: s }, store));
    for msg in [
        WireMsg::Hello { worker_id: 3, seed: 42, latency: (1000, 25) },
        WireMsg::HelloAck,
        WireMsg::Release { ctx_id: 3 },
        WireMsg::Fail { message: "no stored encoding for layer 7".into() },
        WireMsg::Shutdown,
    ] {
        msgs.push((msg, Layout::default()));
    }
    msgs.into_iter()
        .map(|(msg, l)| {
            let mut frame = Vec::new();
            wire::encode_msg(&mut frame, &msg);
            (frame, l)
        })
        .collect()
}

fn put_u32(frame: &mut [u8], at: usize, v: u32) {
    frame[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Applies mutation `kind` to `frame`, drawing from `seed`. Returns the
/// exact error a value mutation must produce.
fn mutate(frame: &mut Vec<u8>, layout: &Layout, kind: u64, seed: u64) -> Option<String> {
    let mut draws = (0..).map(|i| derive_seed(seed, i));
    let mut draw = |n: usize| (draws.next().unwrap() % n as u64) as usize;
    let pick = |draw: &mut dyn FnMut(usize) -> usize, xs: &[u32]| xs[draw(xs.len())];
    match kind {
        // Bit flips anywhere, header included.
        0 => {
            for _ in 0..1 + draw(4) {
                let bit = draw(8 * frame.len());
                frame[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => frame.truncate(draw(frame.len())),
        // Trailing bytes, inside or outside the declared payload.
        2 => {
            let extra = 1 + draw(16);
            frame.extend((0..extra).map(|_| draw(256) as u8));
            if draw(2) == 0 {
                let len = (frame.len() - HEADER) as u32;
                put_u32(frame, 8, len);
            }
        }
        // A lie in the header's payload length.
        3 => {
            let len = (frame.len() - HEADER) as u32;
            let short = len.saturating_sub(1);
            let lies = [0, short, len + 1, len + 4, 1 << 20, MAX_PAYLOAD, MAX_PAYLOAD + 1, u32::MAX];
            put_u32(frame, 8, pick(&mut draw, &lies));
        }
        // A lie in a rank, a dim or a β count.
        4 if !layout.counts.is_empty() => {
            let at = layout.counts[draw(layout.counts.len())];
            let was = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
            let lies = [0, 1, 2, 8, 9, was + 1, was.saturating_sub(1), 1 << 26, 1 << 30, u32::MAX];
            put_u32(frame, at, pick(&mut draw, &lies));
        }
        // A value `≥ p` in the first, middle or last lane of a run.
        5 if layout.values.iter().any(|&(_, n)| n > 0) => {
            let runs: Vec<_> = layout.values.iter().filter(|&&(_, n)| n > 0).collect();
            let &(at, n) = runs[draw(runs.len())];
            let lane = [0, n / 2, n - 1][draw(3)];
            let bad = pick(&mut draw, &[P25 as u32, P25 as u32 + 38, 1 << 25, u32::MAX]);
            put_u32(frame, at + 4 * lane, bad);
            return Some(format!("field value {bad} out of range"));
        }
        _ => return mutate(frame, layout, 0, seed),
    }
    None
}

/// Reads `frame` with the warm buffers; returns the outcome and the
/// bytes this thread requested of the allocator meanwhile.
fn read(
    frame: &[u8],
    payload: &mut Vec<u8>,
    ws: &mut Workspace,
) -> (std::io::Result<(WireMsg, usize)>, u64) {
    let (_, before) = thread_alloc_counts();
    let got = wire::read_msg_into(&mut &frame[..], payload, ws);
    (got, thread_alloc_counts().1 - before)
}

/// Every directive, a repeated address, comments and multi-byte text.
const MANIFEST: &str = "# fleet — deux hôtes\nworker 127.0.0.1:7501   # first\nworker 127.0.0.1:7501\n\
    worker hôte.local:7502\nseed 42\nlatency 50000 25\nio_timeout_ms 2000\nconnect_timeout_ms 77\n\
    redial_backoff_ms 5\nredial_backoff_max_ms 500\n";

/// Applies manifest mutation `kind` to `text`, drawing from `seed`.
fn mutate_manifest(text: &str, kind: u64, seed: u64) -> String {
    let mut draws = (0..).map(|i| derive_seed(seed, i));
    let mut draw = |n: usize| (draws.next().unwrap() % n.max(1) as u64) as usize;
    let mut lines: Vec<Vec<&str>> =
        text.lines().map(|l| l.split_whitespace().collect()).collect();
    let at = draw(lines.len());
    let line = &mut lines[at];
    let i = draw(line.len());
    match kind {
        0 if !line.is_empty() => {
            line.remove(i);
        }
        1 if !line.is_empty() => line.insert(i, line[i]),
        2 => {
            let huge =
                ["18446744073709551615", "18446744073709551616", "99999999999999999999999", "-1", "+5", "0x10"];
            match line.iter().position(|t| t.parse::<u64>().is_ok()) {
                Some(n) => line[n] = huge[draw(huge.len())],
                None => line.push(huge[draw(huge.len())]),
            }
        }
        3 => line.insert(i, "#"),
        _ => {
            let bytes = text.as_bytes();
            let (cut, resume) = (draw(bytes.len()), draw(bytes.len()));
            let spliced = [&bytes[..cut], &bytes[resume.max(cut)..]].concat();
            return String::from_utf8_lossy(&spliced).into_owned();
        }
    }
    lines.iter().map(|l| l.join(" ")).collect::<Vec<_>>().join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_manifests_are_typed_errors_or_their_own_tokens(kind in 0u64..5, seed in any::<u64>()) {
        let text = mutate_manifest(MANIFEST, kind, seed);
        let (_, before) = thread_alloc_counts();
        let got = FleetManifest::parse(&text);
        let spent = thread_alloc_counts().1 - before;
        prop_assert!(
            spent <= text.len() as u64 + READ_CHUNK,
            "a {}-byte manifest made the parser request {spent} bytes", text.len()
        );
        match got {
            Ok(m) => {
                prop_assert!(!m.workers.is_empty());
                for addr in &m.workers {
                    let token = text.split_whitespace().any(|t| t == addr);
                    prop_assert!(token && !addr.contains('#'), "address {addr:?} is not a token of {text:?}");
                }
            }
            Err(e) => prop_assert!(
                e.starts_with("line ") || e == "manifest declares no workers",
                "untyped error {e:?}"
            ),
        }
    }

    #[test]
    fn mutated_frames_are_typed_errors_or_their_own_bytes(
        which in 0usize..18,
        kind in 0u64..6,
        seed in any::<u64>(),
    ) {
        let corpus = corpus();
        let (original, layout) = &corpus[which % corpus.len()];
        let (mut payload, mut ws) = (Vec::new(), Workspace::new());
        // Warm the pool on the original, as a live connection is, and
        // note what a warm read of it allocates (a `Fail`'s text only).
        let mut warm = 0;
        for _ in 0..2 {
            let (allocs, _) = thread_alloc_counts();
            let (msg, _) = wire::read_msg_into(&mut &original[..], &mut payload, &mut ws).unwrap();
            warm = thread_alloc_counts().0 - allocs;
            wire::recycle_msg(msg, &mut ws);
        }
        let mut frame = original.clone();
        let expect_err = mutate(&mut frame, layout, kind, seed);
        let live = ws.stats().live_bytes;

        let (got, spent) = read(&frame, &mut payload, &mut ws);
        prop_assert!(
            spent <= frame.len() as u64 + READ_CHUNK,
            "a {}-byte frame made the decoder request {spent} bytes", frame.len()
        );
        match got {
            Ok((msg, n)) => {
                prop_assert!(expect_err.is_none(), "accepted a frame carrying {expect_err:?}");
                let mut again = Vec::new();
                wire::encode_msg(&mut again, &msg);
                prop_assert_eq!(&again[..], &frame[..n]);
                wire::recycle_msg(msg, &mut ws);
            }
            Err(e) => {
                prop_assert!(
                    matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                    "untyped error {e:?}"
                );
                if let Some(want) = expect_err {
                    prop_assert_eq!(e.to_string(), want);
                }
                prop_assert!(ws.stats().live_bytes == live, "a rejected frame kept a buffer");
                let (allocs, _) = thread_alloc_counts();
                let (msg, _) =
                    wire::read_msg_into(&mut &original[..], &mut payload, &mut ws).unwrap();
                let drained = thread_alloc_counts().0 - allocs != warm;
                prop_assert!(!drained, "a rejected frame drained the pool");
                wire::recycle_msg(msg, &mut ws);
            }
        }
    }
}
