//! Kernel/encoding/offload micro-benchmarks with machine-readable
//! output, and the evaluation report.
//!
//! Measures the delayed-reduction fast kernels against the preserved
//! per-MAC-reducing scalar baselines (`dk_linalg::reference`) on the
//! shapes the offload path actually runs, and the TEE's element passes
//! (`dk_field`'s quantize, dequantize and noise draw) against the public
//! per-element functions that define them, the enclave's non-linear
//! pass (max-pool, ReLU, the max-abs scan) against the scalar loops in
//! `dk_linalg::reference`, and Algorithm 2's sealing of
//! one training step's gradient shards against ChaCha20 run one block
//! at a time, as RFC 8439 writes it. Also measures the staged
//! engine at its default lane count against the same engine with one
//! virtual batch in flight, over the same fleet, on a
//! real multi-layer model (the §7.1 overlap claim) and, with `--alloc`,
//! the allocation behaviour of steady-state steps via a counting global
//! allocator. Everything lands in `BENCH_kernels.json` so the kernel
//! trajectory is tracked across PRs (end-to-end and per-layer numbers
//! are `benchmark/`'s). CI runs `--fast --alloc --obs` as a smoke test
//! and gates on the recorded invariants: zero steady-state inference
//! allocations, and three timing gates that all take one form
//! ([`PairedRatio::verdict`]) — per-pair ratios over 5 (`--fast`) or 7
//! interleaved A/B pairs, judged on their median, `REGRESSION` only
//! when the pairs agree with each other to within the margin policed
//! and `unresolved` (printed, exit 0) when their own quartile spread is
//! wider than it. The three: the tracked kernels' fast:scalar speedup —
//! conv forward and backward, the field matmul, the streaming
//! encode/decode, the gradient-shard seal and unseal, max-pool, ReLU
//! and the max-abs scan — not
//! more than 10% under the lower quartile the committed record states
//! for that row (25% when that row was measured at another size); the
//! default lane count not more than 10%
//! slower than one lane; and, with `--obs`, the session step with the
//! `dk_obs` registry enabled not more than 3% slower than disabled. The
//! JSON is uploaded as an artifact. What pairs inside one run cannot
//! see is the host having shifted since the committed record's run
//! (its scalar:fast ratios move ±15% between runs on a shared host):
//! the cross-run gate therefore reads the record's own `speedup_q1`,
//! not its median, and the record is committed from a run whose own
//! pairs agree.
//!
//! `dk_bench report` prints every table and figure of the paper's
//! evaluation section instead: Tables 1–4 and Figures 3/5/6a/6b/7 from
//! the calibrated performance model, Figure 4 from real (mini-model)
//! training, plus a measured pipelining comparison on this host.
//!
//! Usage: `cargo run --release -p dk_bench --bin dk_bench --
//! [--fast] [--alloc] [--obs] [--out PATH]`, or
//! `… -- report [--quick|--full]`

use dk_bench::{
    fig4, lanes_inference, lanes_training, render_fig4, Fig4Config, GateVerdict, PairedRatio,
};
use dk_core::scheme::EncodingScheme;
use dk_core::DarknightConfig;
use dk_field::{F25, FieldRng, P25};
use dk_gpu::{GpuCluster, LatencyModel};
use dk_linalg::conv::{conv2d_backward_input_ws, conv2d_backward_weight_ws, conv2d_forward_ws};
use dk_linalg::im2col::{col2im_acc_into, im2col_into};
use dk_linalg::pool::maxpool2d_forward_ws;
use dk_linalg::reference::{
    naive_matmul, naive_matmul_a_bt, naive_matmul_at_b, naive_max_abs, naive_maxpool2d_forward,
    naive_relu_in_place,
};
use dk_linalg::{matmul_a_bt_into, matmul_at_b_into, matmul_into, Conv2dShape, Tensor, Workspace};
use dk_nn::arch::mini_vgg;
use dk_linalg::workspace::{alloc_counts, CountingAllocator};
use dk_perf::{DeviceProfile, PipelineRow};
use std::time::Instant;

// The --alloc measurements read this via `alloc_counts()`; the shared
// implementation in dk_linalg keeps this gate and the alloc_regression
// test counting identically.
#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Doubles the batch of `f` until one batch takes roughly `target_ms`.
fn calibrate(target_ms: u64, f: &mut impl FnMut()) -> u64 {
    let target = std::time::Duration::from_millis(target_ms);
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= target || iters >= 1 << 20 {
            return iters;
        }
        iters = iters.saturating_mul(2);
    }
}

/// ns/iteration of one batch of `iters` calls.
fn sample_ns(iters: u64, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// One interleaved A/B timing: each side's median ns/iteration, and the
/// per-pair `a / b` ratios a gate judges (how many times faster `b`
/// ran than the `a` sample taken right before it).
struct Paired {
    a_ns: f64,
    b_ns: f64,
    ratio: PairedRatio,
}

impl Paired {
    fn of(a: &[f64], b: &[f64]) -> Self {
        let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| a / b).collect();
        Self { a_ns: median(a), b_ns: median(b), ratio: PairedRatio::of(&ratios) }
    }
}

/// Calibrates both sides to roughly `target_ms` a batch, then takes
/// `pairs` samples of each, alternating — so drift on a shared host
/// lands on both sides of a pair instead of on one side of the row.
fn time_pairs(target_ms: u64, pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Paired {
    let (ia, ib) = (calibrate(target_ms, &mut a), calibrate(target_ms, &mut b));
    let (mut an, mut bn) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for _ in 0..pairs {
        an.push(sample_ns(ia, &mut a));
        bn.push(sample_ns(ib, &mut b));
    }
    Paired::of(&an, &bn)
}

/// One kernel row: the per-MAC-reducing scalar baseline against the
/// fast kernel, as interleaved pairs.
struct Entry {
    name: String,
    macs: u64,
    timing: Paired,
}

impl Entry {
    fn scalar_ns(&self) -> f64 {
        self.timing.a_ns
    }
    fn fast_ns(&self) -> f64 {
        self.timing.b_ns
    }
    fn mops(&self, ns: f64) -> f64 {
        self.macs as f64 / ns * 1e3 // MACs/ns → M ops/s
    }
    fn to_json(&self) -> String {
        let q = &self.timing.ratio;
        format!(
            "    {{\"name\": \"{}\", \"macs\": {}, \"scalar_ns_per_op\": {:.1}, \"fast_ns_per_op\": {:.1}, \"scalar_mops\": {:.1}, \"fast_mops\": {:.1}, \"speedup\": {:.2}, \"pairs\": {}, \"speedup_q1\": {:.2}, \"speedup_q3\": {:.2}}}",
            self.name,
            self.macs,
            self.scalar_ns(),
            self.fast_ns(),
            self.mops(self.scalar_ns()),
            self.mops(self.fast_ns()),
            q.median,
            q.pairs,
            q.q1,
            q.q3
        )
    }
}

/// Pulls `"key": <number>` out of a (flat) JSON object snippet — the
/// workspace has no JSON dependency, and the file format is ours.
fn json_number(snippet: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = snippet.find(&pat)? + pat.len();
    let rest = snippet[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Finds the object snippet for the named bench row in a JSON string.
fn json_row<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let at = doc.find(&format!("\"name\": \"{name}\""))?;
    let end = doc[at..].find('}')? + at;
    Some(&doc[at..end])
}

/// A timing gate: `q`'s median must reach `floor` to within `margin` (a
/// share). Prints the verdict — `ok`, `unresolved` when the median
/// misses but the pairs' own quartile spread is wider than the margin
/// (the runs cannot tell, and the run does not fail), `REGRESSION` when
/// it misses and they agree — and returns `true` on a regression.
fn gate(what: &str, q: &PairedRatio, floor: f64, margin: f64) -> bool {
    let detail = format!(
        "{what}: median {:.3} over {} pairs, quartiles [{:.3}, {:.3}]; floor {floor:.3}, margin {:.0}%",
        q.median,
        q.pairs,
        q.q1,
        q.q3,
        margin * 100.0
    );
    let verdict = q.verdict(floor, margin);
    match verdict {
        GateVerdict::Ok => println!("ok: {detail}"),
        GateVerdict::Unresolved => eprintln!("unresolved: {detail}"),
        GateVerdict::Regressed => eprintln!("REGRESSION: {detail}"),
    }
    verdict == GateVerdict::Regressed
}

/// ChaCha20 as RFC 8439 §2.3–2.4 writes it: one 64-byte block of
/// keystream at a time from the scalar block function, XORed in byte by
/// byte (counter 0). The scalar side of the seal row.
fn rfc_chacha20(key: &[u8; 32], nonce: &[u8; 12], data: &mut [u8]) {
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
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
    for i in 0..8 {
        state[4 + i] = word(&key[4 * i..]);
    }
    for i in 0..3 {
        state[13 + i] = word(&nonce[4 * i..]);
    }
    for chunk in data.chunks_mut(64) {
        let mut x = state;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        let mut ks = [0u8; 64];
        for (k, (w, s)) in ks.chunks_exact_mut(4).zip(x.iter().zip(&state)) {
            k.copy_from_slice(&w.wrapping_add(*s).to_le_bytes());
        }
        for (d, k) in chunk.iter_mut().zip(ks) {
            *d ^= k;
        }
        state[12] = state[12].wrapping_add(1);
    }
}

fn field_vec(rng: &mut FieldRng, len: usize) -> Vec<F25> {
    rng.uniform_vec::<P25>(len)
}

/// The `report` sub-command (see the module docs).
fn report(mode: &str) {
    let profile = DeviceProfile::calibrated();

    println!("=================================================================");
    println!(" DarKnight reproduction — evaluation report");
    println!("=================================================================\n");
    println!("{}", dk_perf::report::full_report(&profile));

    println!("----------------------------------------------------------------\n");
    let fig4_cfg = match mode {
        "--quick" => Fig4Config { per_class: 12, epochs: 4, ..Default::default() },
        "--full" => Fig4Config { hw: 12, per_class: 50, epochs: 14, ..Default::default() },
        _ => Fig4Config::default(),
    };
    println!("{}", render_fig4(&fig4(fig4_cfg)));

    println!("----------------------------------------------------------------\n");
    println!("Measured pipelining (this host; functional analogue of Fig. 5):\n");
    // Real Algorithm 2 training on a multi-layer model, one virtual batch
    // in flight vs the engine's default lanes, over a fleet with a
    // modeled accelerator latency (the workers simulate GPUs on this
    // CPU; the latency model is what makes wall clock reflect device
    // occupancy — see dk_gpu::LatencyModel).
    let epochs = if mode == "--quick" { 1 } else { 3 };
    let cfg = DarknightConfig::new(2, 1).with_seed(7);
    let fleet = GpuCluster::honest(cfg.workers_required(), 7)
        .with_latency(Some(LatencyModel { base_ns: 120_000, ns_per_kmac: 600 }));
    let model = mini_vgg(8, 4, 42);
    let x = Tensor::from_fn(&[8, 3, 8, 8], |i| ((i % 23) as f32 - 11.0) * 0.04);
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
    let (r, diff) = lanes_training(cfg, &fleet, &model, &x, &labels, epochs, 0.05);
    assert_eq!(diff, 0.0, "lane count changed the trained weights");
    println!(
        "  one lane: {:>8.1?}   pipelined: {:>8.1?}   speedup: {:.2}x  (bit-identical weights)\n",
        r.sequential,
        r.pipelined,
        r.speedup()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "report") {
        return report(args.get(1).map_or("", String::as_str));
    }
    let fast = args.iter().any(|a| a == "--fast");
    let measure_alloc = args.iter().any(|a| a == "--alloc");
    let measure_obs = args.iter().any(|a| a == "--obs");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    // The committed record this run will overwrite doubles as the CI
    // regression baseline; read it before writing.
    let committed = std::fs::read_to_string(&out_path).ok();
    let target_ms: u64 = if fast { 5 } else { 25 };
    // Every timed comparison below is this many interleaved A/B pairs;
    // a row reports the medians, its gate judges the per-pair ratios
    // against their own quartile spread — a single wall-clock pair on a
    // shared host says nothing either way.
    let pairs = if fast { 5 } else { 7 };
    // The two sizes that differ between the modes: the 16→32 conv's
    // spatial side and the encoding rows' length.
    let (hw, coded_n) = if fast { (8usize, 4096usize) } else { (16, 16384) };
    let mut rng = FieldRng::seed_from(0xBE4C);
    let mut entries: Vec<Entry> = Vec::new();
    let mut bench = |name: String, macs: u64, scalar: &mut dyn FnMut(), kernel: &mut dyn FnMut()| {
        entries.push(Entry { name, macs, timing: time_pairs(target_ms, pairs, scalar, kernel) });
    };

    // --- kernels: the three matmul orientations -------------------------
    // The fast side writes into one buffer per product, as its callers
    // do; the scalar side allocates, as the code it preserves did.
    let (m, k, n) = (64usize, 128, 64);
    let macs = (m * k * n) as u64;
    let a = field_vec(&mut rng, m * k);
    let b = field_vec(&mut rng, k * n);
    let mut c = vec![F25::ZERO; m * n];
    bench(
        format!("matmul_{m}x{k}x{n}/field"),
        macs,
        &mut || {
            std::hint::black_box(naive_matmul(&a, &b, m, k, n));
        },
        &mut || {
            matmul_into(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        },
    );
    // The pre-optimization arithmetic in full: per-MAC `u128 %` division
    // (the baselines above already use the new Barrett scalar multiply,
    // so this entry records the complete before/after journey).
    let mut divmod_matmul = || {
        let mut c = vec![0u64; m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p].value();
                for j in 0..n {
                    let wide = aip as u128 * b[p * n + j].value() as u128 + c[i * n + j] as u128;
                    c[i * n + j] = (wide % P25 as u128) as u64;
                }
            }
        }
        std::hint::black_box(c);
    };
    bench(
        format!("matmul_{m}x{k}x{n}/field_vs_divmod"),
        macs,
        &mut divmod_matmul,
        &mut || {
            matmul_into(&a, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        },
    );
    let af: Vec<f32> = (0..m * k).map(|i| (i % 9) as f32 * 0.1).collect();
    let bf: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.1).collect();
    let mut cf = vec![0.0f32; m * n];
    bench(
        format!("matmul_{m}x{k}x{n}/f32"),
        macs,
        &mut || {
            std::hint::black_box(naive_matmul(&af, &bf, m, k, n));
        },
        &mut || {
            matmul_into(&af, &bf, &mut cf, m, k, n);
            std::hint::black_box(&cf);
        },
    );
    let at = field_vec(&mut rng, k * m);
    bench(
        format!("matmul_at_b_{m}x{k}x{n}/field"),
        macs,
        &mut || {
            std::hint::black_box(naive_matmul_at_b(&at, &b, m, k, n));
        },
        &mut || {
            matmul_at_b_into(&at, &b, &mut c, m, k, n);
            std::hint::black_box(&c);
        },
    );
    let bt = field_vec(&mut rng, n * k);
    bench(
        format!("matmul_a_bt_{m}x{k}x{n}/field"),
        macs,
        &mut || {
            std::hint::black_box(naive_matmul_a_bt(&a, &bt, m, k, n));
        },
        &mut || {
            matmul_a_bt_into(&a, &bt, &mut c, m, k, n);
            std::hint::black_box(&c);
        },
    );

    // --- conv2d forward (the GPU worker's hot job) ----------------------
    let shape = Conv2dShape::simple(16, 32, 3, 1, 1);
    let conv_macs = shape.forward_macs(1, (hw, hw));
    let xq = Tensor::<F25>::from_fn(&[1, 16, hw, hw], |i| F25::new(i as u64 * 31 % P25));
    let wq = Tensor::<F25>::from_fn(&shape.weight_shape(), |i| F25::new(i as u64 * 17 % P25));
    // Baseline: the identical im2col lowering feeding the naive kernel.
    // The fast side draws its output from a warm workspace.
    let mut kws = Workspace::new();
    let mut naive_conv = || {
        let (oh, ow) = shape.out_hw((hw, hw));
        let krows = shape.cg_in() * 9;
        let mut cols = vec![F25::ZERO; krows * oh * ow];
        im2col_into(xq.batch_item(0), 16, (hw, hw), (3, 3), (1, 1), (1, 1), &mut cols);
        std::hint::black_box(naive_matmul(wq.as_slice(), &cols, 32, krows, oh * ow));
    };
    bench(
        format!("conv2d_forward_16c32c3x3_{hw}x{hw}/field"),
        conv_macs,
        &mut naive_conv,
        &mut || {
            let y = conv2d_forward_ws(&xq, &wq, &shape, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );

    // The shapes the `infer_direct` workload actually offloads: the
    // 16→16 conv of mini_vgg(32) at 32×32 (same size in both modes, so
    // the ratio gate compares like with like) and the bare product
    // underneath it. With `n = 1024` the whole `B` operand no longer
    // fits L1, which the `n = 64` rows above cannot show.
    let shape32 = Conv2dShape::simple(16, 16, 3, 1, 1);
    let x32 = Tensor::<F25>::from_fn(&[1, 16, 32, 32], |i| F25::new(i as u64 * 31 % P25));
    let w32 = Tensor::<F25>::from_fn(&shape32.weight_shape(), |i| F25::new(i as u64 * 17 % P25));
    let (cm, ck, cn) = (16usize, 144, 1024);
    bench(
        "conv2d_forward_16c16c3x3_32x32/field".to_string(),
        shape32.forward_macs(1, (32, 32)),
        &mut || {
            let mut cols = vec![F25::ZERO; ck * cn];
            im2col_into(x32.batch_item(0), 16, (32, 32), (3, 3), (1, 1), (1, 1), &mut cols);
            std::hint::black_box(naive_matmul(w32.as_slice(), &cols, cm, ck, cn));
        },
        &mut || {
            let y = conv2d_forward_ws(&x32, &w32, &shape32, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );
    let x32f = Tensor::<f32>::from_fn(&[1, 16, 32, 32], |i| (i % 23) as f32 * 0.05 - 0.5);
    let w32f = Tensor::<f32>::from_fn(&shape32.weight_shape(), |i| (i % 7) as f32 * 0.1 - 0.3);
    bench(
        "conv2d_forward_16c16c3x3_32x32/f32".to_string(),
        shape32.forward_macs(1, (32, 32)),
        &mut || {
            let mut cols = vec![0.0f32; ck * cn];
            im2col_into(x32f.batch_item(0), 16, (32, 32), (3, 3), (1, 1), (1, 1), &mut cols);
            std::hint::black_box(naive_matmul(w32f.as_slice(), &cols, cm, ck, cn));
        },
        &mut || {
            let y = conv2d_forward_ws(&x32f, &w32f, &shape32, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );
    let a32 = field_vec(&mut rng, cm * ck);
    let b32 = field_vec(&mut rng, ck * cn);
    let mut c32 = vec![F25::ZERO; cm * cn];
    bench(
        format!("matmul_{cm}x{ck}x{cn}/field"),
        (cm * ck * cn) as u64,
        &mut || {
            std::hint::black_box(naive_matmul(&a32, &b32, cm, ck, cn));
        },
        &mut || {
            matmul_into(&a32, &b32, &mut c32, cm, ck, cn);
            std::hint::black_box(&c32);
        },
    );

    // The thinnest product: a depthwise 3×3 (`mini_mobilenet`'s, what
    // `infer_tcp` offloads) is one `m = 1`, `k = 9` product per channel,
    // one output row to tile and nine products per column.
    let dw = Conv2dShape::new(32, 32, (3, 3), (1, 1), (1, 1), 32);
    let xdw = Tensor::<F25>::from_fn(&[1, 32, 16, 16], |i| F25::new(i as u64 * 31 % P25));
    let wdw = Tensor::<F25>::from_fn(&dw.weight_shape(), |i| F25::new(i as u64 * 17 % P25));
    bench(
        "conv2d_forward_dw32c3x3_16x16/field".to_string(),
        dw.forward_macs(1, (16, 16)),
        &mut || {
            for (plane, taps) in xdw.batch_item(0).chunks(16 * 16).zip(wdw.as_slice().chunks(9)) {
                let mut cols = vec![F25::ZERO; 9 * 16 * 16];
                im2col_into(plane, 1, (16, 16), (3, 3), (1, 1), (1, 1), &mut cols);
                std::hint::black_box(naive_matmul(taps, &cols, 1, 9, 16 * 16));
            }
        },
        &mut || {
            let y = conv2d_forward_ws(&xdw, &wdw, &dw, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );

    // The strided layers of the same models at 16×16: `mini_mobilenet`'s
    // stride-2 depthwise 3×3 and `mini_resnet`'s stride-2 16→32 3×3.
    // Same size in both modes.
    let dws2 = Conv2dShape::new(32, 32, (3, 3), (2, 2), (1, 1), 32);
    let (dh, dw_) = dws2.out_hw((16, 16));
    bench(
        "conv2d_forward_dw32c3x3s2_16x16/field".to_string(),
        dws2.forward_macs(1, (16, 16)),
        &mut || {
            for (plane, taps) in xdw.batch_item(0).chunks(16 * 16).zip(wdw.as_slice().chunks(9)) {
                let mut cols = vec![F25::ZERO; 9 * dh * dw_];
                im2col_into(plane, 1, (16, 16), (3, 3), (2, 2), (1, 1), &mut cols);
                std::hint::black_box(naive_matmul(taps, &cols, 1, 9, dh * dw_));
            }
        },
        &mut || {
            let y = conv2d_forward_ws(&xdw, &wdw, &dws2, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );
    let s2 = Conv2dShape::simple(16, 32, 3, 2, 1);
    let (sh, sw) = s2.out_hw((16, 16));
    let xs2 = Tensor::<F25>::from_fn(&[1, 16, 16, 16], |i| F25::new(i as u64 * 31 % P25));
    bench(
        "conv2d_forward_16c32c3x3s2_16x16/field".to_string(),
        s2.forward_macs(1, (16, 16)),
        &mut || {
            let mut cols = vec![F25::ZERO; 144 * sh * sw];
            im2col_into(xs2.batch_item(0), 16, (16, 16), (3, 3), (2, 2), (1, 1), &mut cols);
            std::hint::black_box(naive_matmul(wq.as_slice(), &cols, 32, 144, sh * sw));
        },
        &mut || {
            let y = conv2d_forward_ws(&xs2, &wq, &s2, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );

    // --- conv2d backward: the two training products -------------------
    // mini_resnet's 16→16 3×3 layer at 16×16. The weight gradient is
    // one encoded sample (what a worker's `*Stored` job runs); the
    // input gradient is the unencoded `δ` of a `K = 2` batch. Baselines:
    // the same im2col lowering feeding the naive dot kernel, and the
    // naive `Wᵀ·δ` scattered by col2im.
    let bshape = Conv2dShape::simple(16, 16, 3, 1, 1);
    let bmacs = bshape.forward_macs(1, (16, 16));
    let xb = Tensor::<F25>::from_fn(&[1, 16, 16, 16], |i| F25::new(i as u64 * 31 % P25));
    let wb = Tensor::<F25>::from_fn(&bshape.weight_shape(), |i| F25::new(i as u64 * 17 % P25));
    let dyb = Tensor::<F25>::from_fn(&[2, 16, 16, 16], |i| F25::new(i as u64 * 13 % P25));
    let dy1 = Tensor::<F25>::from_fn(&[1, 16, 16, 16], |i| F25::new(i as u64 * 13 % P25));
    let (bk, bn) = (144usize, 256usize);
    bench(
        "conv2d_backward_weight_16c16c3x3_16x16/field".to_string(),
        bmacs,
        &mut || {
            let mut cols = vec![F25::ZERO; bk * bn];
            im2col_into(xb.batch_item(0), 16, (16, 16), (3, 3), (1, 1), (1, 1), &mut cols);
            std::hint::black_box(naive_matmul_a_bt(dy1.as_slice(), &cols, 16, bn, bk));
        },
        &mut || {
            let dw = conv2d_backward_weight_ws(&dy1, &xb, &bshape, &mut kws);
            kws.give_tensor(std::hint::black_box(dw));
        },
    );
    // mini_resnet's stride-2 16→32 layer, one encoded sample, as the
    // row above.
    let dys2 = Tensor::<F25>::from_fn(&[1, 32, sh, sw], |i| F25::new(i as u64 * 13 % P25));
    bench(
        "conv2d_backward_weight_16c32c3x3s2_16x16/field".to_string(),
        s2.forward_macs(1, (16, 16)),
        &mut || {
            let mut cols = vec![F25::ZERO; 144 * sh * sw];
            im2col_into(xs2.batch_item(0), 16, (16, 16), (3, 3), (2, 2), (1, 1), &mut cols);
            std::hint::black_box(naive_matmul_a_bt(dys2.as_slice(), &cols, 32, sh * sw, 144));
        },
        &mut || {
            let dw = conv2d_backward_weight_ws(&dys2, &xs2, &s2, &mut kws);
            kws.give_tensor(std::hint::black_box(dw));
        },
    );
    bench(
        "conv2d_backward_input_16c16c3x3_16x16_n2/field".to_string(),
        2 * bmacs,
        &mut || {
            let mut dx = vec![F25::ZERO; 2 * 16 * 16 * 16];
            for (dyi, dxi) in dyb.as_slice().chunks(16 * bn).zip(dx.chunks_mut(16 * 16 * 16)) {
                let dcol = naive_matmul_at_b(wb.as_slice(), dyi, bk, 16, bn);
                col2im_acc_into(&dcol, 16, (16, 16), (3, 3), (1, 1), (1, 1), dxi);
            }
            std::hint::black_box(dx);
        },
        &mut || {
            let dx = conv2d_backward_input_ws(&dyb, &wb, &bshape, (16, 16), &mut kws);
            kws.give_tensor(std::hint::black_box(dx));
        },
    );

    // The same input gradient through mini_resnet's stride-2 16→32
    // layer: four stride-1 phase convolutions of `δ` against the naive
    // `Wᵀ·δ` scattered by col2im.
    let dyb2 = Tensor::<F25>::from_fn(&[2, 32, sh, sw], |i| F25::new(i as u64 * 13 % P25));
    bench(
        "conv2d_backward_input_16c32c3x3s2_16x16_n2/field".to_string(),
        2 * s2.forward_macs(1, (16, 16)),
        &mut || {
            let mut dx = vec![F25::ZERO; 2 * 16 * 16 * 16];
            for (dyi, dxi) in dyb2.as_slice().chunks(32 * sh * sw).zip(dx.chunks_mut(16 * 16 * 16)) {
                let dcol = naive_matmul_at_b(wq.as_slice(), dyi, 144, 32, sh * sw);
                col2im_acc_into(&dcol, 16, (16, 16), (3, 3), (2, 2), (1, 1), dxi);
            }
            std::hint::black_box(dx);
        },
        &mut || {
            let dx = conv2d_backward_input_ws(&dyb2, &wq, &s2, (16, 16), &mut kws);
            kws.give_tensor(std::hint::black_box(dx));
        },
    );
    // mini_resnet's stride-2 1×1 shortcut (16→32, 16×16 → 8×8), one
    // sample: a `K = 16` product behind the one phase its tap reads.
    let p2 = Conv2dShape::simple(16, 32, 1, 2, 0);
    let wp2 = Tensor::<F25>::from_fn(&p2.weight_shape(), |i| F25::new(i as u64 * 17 % P25));
    bench(
        "conv2d_forward_16c32c1x1s2_16x16/field".to_string(),
        p2.forward_macs(1, (16, 16)),
        &mut || {
            let mut cols = vec![F25::ZERO; 16 * sh * sw];
            im2col_into(xs2.batch_item(0), 16, (16, 16), (1, 1), (2, 2), (0, 0), &mut cols);
            std::hint::black_box(naive_matmul(wp2.as_slice(), &cols, 32, 16, sh * sw));
        },
        &mut || {
            let y = conv2d_forward_ws(&xs2, &wp2, &p2, &mut kws);
            kws.give_tensor(std::hint::black_box(y));
        },
    );
    // mini_resnet's 32→32 3×3 layer at 8×8, one sample: the output plane
    // where the staged rows' `wq − ow` surplus is a fifth of them.
    let w8 = Conv2dShape::simple(32, 32, 3, 1, 1);
    let x8 = Tensor::<F25>::from_fn(&[1, 32, 8, 8], |i| F25::new(i as u64 * 31 % P25));
    let dy8 = Tensor::<F25>::from_fn(&[1, 32, 8, 8], |i| F25::new(i as u64 * 13 % P25));
    bench(
        "conv2d_backward_weight_32c32c3x3_8x8/field".to_string(),
        w8.forward_macs(1, (8, 8)),
        &mut || {
            let mut cols = vec![F25::ZERO; 288 * 64];
            im2col_into(x8.batch_item(0), 32, (8, 8), (3, 3), (1, 1), (1, 1), &mut cols);
            std::hint::black_box(naive_matmul_a_bt(dy8.as_slice(), &cols, 32, 64, 288));
        },
        &mut || {
            let dw = conv2d_backward_weight_ws(&dy8, &x8, &w8, &mut kws);
            kws.give_tensor(std::hint::black_box(dw));
        },
    );

    // --- encoding: Algorithm-1 masking as coefficient-matrix matmuls ----
    let (ek, em, en) = (4usize, 2, coded_n);
    let scheme = EncodingScheme::generate(ek, em, true, &mut rng);
    let s_cols = scheme.num_encodings();
    let inputs: Vec<Vec<F25>> = (0..ek).map(|_| field_vec(&mut rng, en)).collect();
    let noise: Vec<Vec<F25>> = (0..em).map(|_| field_vec(&mut rng, en)).collect();
    // Baseline: the old per-MAC-reducing loop ≡ naive Aᵀ·X of the same shape.
    let enc_a = field_vec(&mut rng, (ek + em) * s_cols);
    let enc_x: Vec<F25> = inputs.iter().chain(&noise).flatten().copied().collect();
    // The fast side measures the steady state the session actually
    // runs: a warm workspace, rows recycled after every call (so the
    // per-call zeroing is counted, the allocations are not).
    let mut cws = Workspace::new();
    bench(
        format!("encode_k{ek}_m{em}_n{en}/field"),
        (s_cols * (ek + em) * en) as u64,
        &mut || {
            std::hint::black_box(naive_matmul_at_b(&enc_a, &enc_x, s_cols, ek + em, en));
        },
        &mut || {
            let mut enc = scheme.encode_ws(&inputs, &noise, &mut cws);
            std::hint::black_box(&mut enc);
            for row in enc.drain(..) {
                cws.give(row);
            }
            cws.give(enc);
        },
    );
    let encodings = scheme.encode(&inputs, &noise);
    let s_sq = ek + em;
    // Baseline: naive decode matmul + naive integrity-prediction matvec.
    let dec_inv = field_vec(&mut rng, s_sq * s_sq);
    let dec_y: Vec<F25> = encodings.iter().take(s_sq).flatten().copied().collect();
    let dec_col = field_vec(&mut rng, s_sq);
    bench(
        format!("decode_forward_k{ek}_m{em}_n{en}/field"),
        ((s_sq * s_sq + s_sq) * en) as u64,
        &mut || {
            let y = naive_matmul_at_b(&dec_inv, &dec_y, s_sq, s_sq, en);
            std::hint::black_box(naive_matmul(&dec_col, &y, 1, s_sq, en));
        },
        &mut || {
            let mut dec = scheme.decode_forward_ws(&encodings, 0, &mut cws).unwrap();
            std::hint::black_box(&mut dec);
            for row in dec.drain(..) {
                cws.give(row);
            }
            cws.give(dec);
        },
    );
    // The γ-weighted backward aggregate (Eq. 6): one output row over
    // the first K+M equations.
    let gam = field_vec(&mut rng, s_sq);
    bench(
        format!("decode_backward_k{ek}_m{em}_n{en}/field"),
        (s_sq * en) as u64,
        &mut || {
            std::hint::black_box(naive_matmul(&gam, &dec_y, 1, s_sq, en));
        },
        &mut || {
            let out = scheme.decode_backward_ws(&encodings, &mut cws);
            std::hint::black_box(&out);
            cws.give(out);
        },
    );

    // --- offload: a dense-layer forward job (dk_serve's hot path) -------
    let (dn, din, dout) = (1usize, 784, 256);
    let w = field_vec(&mut rng, dout * din);
    let x = field_vec(&mut rng, dn * din);
    let mut y = vec![F25::ZERO; dn * dout];
    bench(
        format!("dense_forward_{din}to{dout}/field"),
        (dn * din * dout) as u64,
        &mut || {
            std::hint::black_box(naive_matmul_a_bt(&x, &w, dn, din, dout));
        },
        &mut || {
            matmul_a_bt_into(&x, &w, &mut y, dn, din, dout);
            std::hint::black_box(&y);
        },
    );

    // --- the TEE's element passes: quantize, dequantize, noise draw -----
    // Scalar side: the public single-value function in a loop — the
    // definition the slice forms are tested against, not a replica of
    // an older loop. "MACs" counts elements here.
    let en = 32_768usize;
    let quant = dk_field::QuantConfig::new(6);
    let ex: Vec<f32> = (0..en).map(|_| rng.uniform_f32(-3.0, 3.0)).collect();
    let ey = field_vec(&mut rng, en);
    let (pre, post) = (1.0 / 3.0f32, 1.7f32);
    let mut eq: Vec<F25> = Vec::with_capacity(en);
    let mut eq_fast: Vec<F25> = Vec::with_capacity(en);
    bench(
        format!("quantize_n{en}"),
        en as u64,
        &mut || {
            eq.clear();
            eq.extend(ex.iter().map(|&v| quant.quantize::<P25>((v * pre) as f64).expect("in range")));
            std::hint::black_box(&eq);
        },
        &mut || {
            eq_fast.clear();
            quant.quantize_slice_into(&ex, pre, &mut eq_fast).expect("in range");
            std::hint::black_box(&eq_fast);
        },
    );
    let mut ef = vec![0.0f32; en];
    let mut ef_fast = vec![0.0f32; en];
    bench(
        format!("dequantize_product_n{en}"),
        en as u64,
        &mut || {
            for (dst, &y) in ef.iter_mut().zip(&ey) {
                *dst = quant.dequantize_product(y) as f32 * post;
            }
            std::hint::black_box(&ef);
        },
        &mut || {
            quant.dequantize_product_slice_into(&ey, post, &mut ef_fast);
            std::hint::black_box(&ef_fast);
        },
    );
    let (mut nrng, mut nrng_fast) = (rng.fork(1), rng.fork(2));
    let mut noise_row: Vec<F25> = Vec::with_capacity(en);
    let mut noise_row_fast: Vec<F25> = Vec::with_capacity(en);
    bench(
        format!("noise_uniform_n{en}"),
        en as u64,
        &mut || {
            noise_row.clear();
            noise_row.extend((0..en).map(|_| nrng.uniform::<P25>()));
            std::hint::black_box(&noise_row);
        },
        &mut || {
            noise_row_fast.clear();
            nrng_fast.uniform_extend(en, &mut noise_row_fast);
            std::hint::black_box(&noise_row_fast);
        },
    );

    // --- the enclave's non-linear pass: max-pool, ReLU, max-abs scan ---
    // `mini_vgg`'s first pool and its ReLU at K = 4 (four 16×32×32
    // images, post-ReLU for the pool: half its taps are zero), and a
    // max-abs scan the length of one quantized activation. Scalar side:
    // the loops in `dk_linalg::reference` these passes replaced, as an
    // inference forward ran them (the pool wrote its argmax, the ReLU
    // copied and then clamped); fast side: the tier bodies as an
    // inference forward calls them. "MACs" counts outputs.
    let pool = dk_linalg::Pool2dShape::square(2);
    let act: Vec<f32> = (0..4 * 16 * 32 * 32).map(|_| rng.uniform_f32(-1.0, 1.0)).collect();
    let act = Tensor::from_vec(&[4, 16, 32, 32], act);
    let mut pooled_in = act.clone();
    naive_relu_in_place(pooled_in.as_mut_slice());
    let mut pool_arg = Vec::new();
    let mut nl_ws = Workspace::new();
    bench(
        "maxpool2d_2x2_16c32x32_n4/f32".to_string(),
        (act.len() / 4) as u64,
        &mut || {
            std::hint::black_box(naive_maxpool2d_forward(&pooled_in, &pool, &mut pool_arg));
        },
        &mut || {
            let y = maxpool2d_forward_ws(&pooled_in, &pool, &mut nl_ws, None);
            std::hint::black_box(&y);
            nl_ws.give_tensor(y);
        },
    );
    let mut relu_y = act.clone();
    let mut relu_y_fast = act.clone();
    bench(
        "relu_16c32x32_n4/f32".to_string(),
        act.len() as u64,
        &mut || {
            relu_y.as_mut_slice().copy_from_slice(act.as_slice());
            naive_relu_in_place(relu_y.as_mut_slice());
            std::hint::black_box(&relu_y);
        },
        &mut || {
            dk_linalg::ops::relu_into(&act, &mut relu_y_fast);
            std::hint::black_box(&relu_y_fast);
        },
    );
    let scan = &act.as_slice()[..16_384];
    bench(
        "max_abs_n16384".to_string(),
        scan.len() as u64,
        &mut || {
            std::hint::black_box(naive_max_abs(std::hint::black_box(scan)));
        },
        &mut || {
            std::hint::black_box(dk_field::QuantConfig::max_abs_norm(std::hint::black_box(scan)));
        },
    );

    // --- Algorithm 2's sealing: one training step's gradient shards ----
    // `train_pipelined`'s step: `mini_resnet`'s gradient for each of its
    // four virtual batches, in shards of 4096 floats, sealed and then
    // unsealed (the row is named by the bytes through the cipher, both
    // ways). Scalar side: the same encrypt-then-MAC with ChaCha20 run
    // the way RFC 8439 writes it — one block, then a byte-by-byte XOR —
    // and the same SipHash. "MACs" counts those bytes here.
    let step_floats = 4 * dk_nn::arch::mini_resnet(16, 10, 1).num_params();
    let shards: Vec<Vec<u8>> = (0..step_floats)
        .step_by(4096)
        .map(|s0| (s0..step_floats.min(s0 + 4096)).flat_map(|i| (i as f32).to_le_bytes()).collect())
        .collect();
    let step_bytes: usize = shards.iter().map(Vec::len).sum();
    let mut key = dk_tee::crypto::SealKey::derive(b"dk_bench seal");
    let mut plain = Vec::new();
    let seal_row = format!("seal_unseal_{}KB", 2 * step_bytes / 1000);
    bench(
        seal_row.clone(),
        2 * step_bytes as u64,
        &mut || {
            for (i, shard) in shards.iter().enumerate() {
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
                let mut ct = shard.clone();
                rfc_chacha20(&[7; 32], &nonce, &mut ct);
                let tag = dk_tee::crypto::siphash::siphash24_parts(&[9; 16], &[&nonce[..], &ct[..]]);
                assert_eq!(dk_tee::crypto::siphash::siphash24_parts(&[9; 16], &[&nonce[..], &ct[..]]), tag);
                rfc_chacha20(&[7; 32], &nonce, &mut ct);
                std::hint::black_box(&ct);
            }
        },
        &mut || {
            for shard in &shards {
                let mut ct = Vec::with_capacity(shard.len());
                ct.extend_from_slice(shard);
                let blob = key.seal_vec(ct);
                key.unseal_into(&blob, &mut plain).expect("own blob");
                std::hint::black_box(&plain);
            }
        },
    );

    // --- pipeline: default lanes vs one lane, same fleet ----------------
    // Both sides run the engine; each lane runs its rounds inline on its
    // own replica of the fleet, so what differs is how many virtual
    // batches (and so threads) are in flight. The workers simulate GPUs
    // on this host's CPU, so two flavours are measured: `compute-only`
    // (pure host compute — overlap can only pay on a multi-core host)
    // and `modeled-gpu` (workers additionally occupy wall-clock per the
    // LatencyModel, standing in for real device execution/transfer time
    // — the §7.1 "shadow of GPU execution" the TEE stages hide under,
    // measurable even on one core). Both runs assert bit-identical
    // results as they go.
    let epochs = if fast { 1 } else { 3 };
    let pcfg = DarknightConfig::new(2, 1).with_seed(0xBE4C);
    let latency = LatencyModel { base_ns: 150_000, ns_per_kmac: 500 };
    let pm = mini_vgg(8, 4, 42);
    let px = Tensor::from_fn(&[8, 3, 8, 8], |i| ((i % 23) as f32 - 11.0) * 0.04);
    let plabels: Vec<usize> = (0..8).map(|i| i % 4).collect();
    let analytical =
        dk_perf::cost::darknight_training(&dk_nn::arch::vgg16(), &DeviceProfile::calibrated(), 2, 1, false)
            .pipeline_gain();
    let mut pipeline_rows: Vec<PipelineRow> = Vec::new();
    let mut pipeline_ratios: Vec<PairedRatio> = Vec::new();
    // Each comparison call is one interleaved one-lane/pipelined
    // pair; the row reports the median pair.
    let mut pipeline_row = |label: &str, fleet: &GpuCluster, train: bool| {
        let mut runs = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let (r, diff) = if train {
                lanes_training(pcfg, fleet, &pm, &px, &plabels, epochs, 0.05)
            } else {
                let inputs: Vec<Tensor<f32>> = (0..4 * epochs)
                    .map(|b| {
                        Tensor::from_fn(&[2, 3, 8, 8], move |i| ((i + b) % 9) as f32 * 0.1 - 0.4)
                    })
                    .collect();
                lanes_inference(pcfg, fleet, &pm, &inputs)
            };
            assert_eq!(diff, 0.0, "{label}: lane count changed the result");
            runs.push(r);
        }
        runs.sort_by(|a, b| a.speedup().total_cmp(&b.speedup()));
        let speedups: Vec<f64> = runs.iter().map(|r| r.speedup()).collect();
        pipeline_ratios.push(PairedRatio::of(&speedups));
        let r = runs[runs.len() / 2];
        pipeline_rows.push(PipelineRow {
            label: label.to_string(),
            batches: r.batches,
            sequential_ms: r.sequential.as_secs_f64() * 1e3,
            pipelined_ms: r.pipelined.as_secs_f64() * 1e3,
            measured_speedup: r.speedup(),
            analytical_speedup: analytical,
            analytical_arch: "VGG16".to_string(),
        });
    };
    let plain_fleet = GpuCluster::honest(pcfg.workers_required(), 7);
    let modeled_fleet =
        GpuCluster::honest(pcfg.workers_required(), 7).with_latency(Some(latency));
    pipeline_row("train/mini_vgg compute-only", &plain_fleet, true);
    pipeline_row("train/mini_vgg modeled-gpu", &modeled_fleet, true);
    pipeline_row("infer/mini_vgg modeled-gpu", &modeled_fleet, false);

    // --- alloc: steady-state allocation behaviour (--alloc) -------------
    // Counts heap allocations per warm step with the counting global
    // allocator: plain-model inference must be exactly zero (the
    // workspace invariant), training a small constant, and the full
    // private offload round-trip is recorded so its allocation budget
    // (dominated by TEE↔GPU transfer copies) is tracked across PRs.
    struct AllocRow {
        name: String,
        allocs_per_step: u64,
        bytes_per_step: u64,
        /// Untruncated allocation count over all measured steps — the
        /// zero-allocation gate checks this, so even a single stray
        /// allocation across the window fails (per-step integer
        /// division would round it away).
        total_allocs: u64,
    }
    let mut alloc_rows: Vec<AllocRow> = Vec::new();
    if measure_alloc {
        let steps = 5u64;
        let mut measure = |name: &str, mut f: Box<dyn FnMut() + '_>| {
            for _ in 0..3 {
                f(); // warm-up: populate the pools
            }
            let (a0, b0) = alloc_counts();
            for _ in 0..steps {
                f();
            }
            let (a1, b1) = alloc_counts();
            alloc_rows.push(AllocRow {
                name: name.to_string(),
                allocs_per_step: (a1 - a0) / steps,
                bytes_per_step: (b1 - b0) / steps,
                total_allocs: a1 - a0,
            });
        };
        {
            let mut model = mini_vgg(8, 4, 31);
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.07);
            measure(
                "infer/mini_vgg steady-state",
                Box::new(|| {
                    let y = model.forward(&x, false);
                    model.give_back(y);
                }),
            );
        }
        {
            let mut model = mini_vgg(8, 4, 32);
            let mut sgd = dk_nn::optim::Sgd::new(0.05);
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 11) as f32 - 5.0) * 0.06);
            let labels = [1usize, 3];
            measure(
                "train/mini_vgg step",
                Box::new(|| {
                    model.zero_grad();
                    let logits = model.forward(&x, true);
                    let (_, dlogits) = dk_nn::loss::softmax_cross_entropy(&logits, &labels);
                    model.give_back(logits);
                    let dx = model.backward(&dlogits);
                    model.give_back(dx);
                    sgd.step(&mut model);
                }),
            );
        }
        {
            let cfg = DarknightConfig::new(2, 1).with_integrity(true);
            let quant = cfg.quant();
            let fleet = GpuCluster::honest(cfg.workers_required(), 33);
            let mut session =
                dk_core::DarknightSession::new(cfg, fleet).expect("alloc-bench session");
            let mut model = mini_vgg(8, 4, 33);
            // Serving shape: weights are frozen, so quantize them once
            // into a step plan; each step recycles its output tensor.
            // With both in place the whole session round-trip — encode,
            // dispatch, decode, dequantize — runs out of the pools.
            let plan = dk_core::StepPlan::extract(&model, quant).expect("alloc-bench plan");
            session.set_step_plan(Some(std::sync::Arc::new(plan)));
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.07);
            measure(
                "private_infer/mini_vgg session step",
                Box::new(|| {
                    let y = session.private_inference(&mut model, &x).expect("private inference");
                    session.recycle_output(y);
                }),
            );
        }
    }

    // --- obs: instrumentation overhead of the session step (--obs) ------
    // The full stack is instrumented (session stage spans, dispatcher
    // gauges, recovery counters); the promise is that turning dk_obs ON
    // costs ≲3% on a real private-inference step, and OFF costs one
    // relaxed load per site. Measured as interleaved disabled/enabled
    // pairs of the same step (`a` = off, `b` = on).
    let mut obs_row: Option<Paired> = None;
    if measure_obs {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let fleet = GpuCluster::honest(cfg.workers_required(), 34);
        let mut session = dk_core::DarknightSession::new(cfg, fleet).expect("obs-bench session");
        let mut model = mini_vgg(8, 4, 34);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.07);
        let mut step = || {
            let _ = session.private_inference(&mut model, &x).expect("obs step");
        };
        // Warm both the workspace pools and (enabled) the span ring /
        // registry cells, so neither side pays one-time setup.
        dk_obs::enable();
        for _ in 0..3 {
            step();
        }
        dk_obs::disable();
        let iters = calibrate(target_ms, &mut step);
        let (mut off, mut on) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
        for _ in 0..pairs {
            off.push(sample_ns(iters, &mut step));
            dk_obs::enable();
            on.push(sample_ns(iters, &mut step));
            dk_obs::disable();
        }
        obs_row = Some(Paired::of(&off, &on));
    }

    // --- report ---------------------------------------------------------
    println!("DarKnight kernel micro-benches ({} mode)", if fast { "fast" } else { "full" });
    println!("{:<44} {:>12} {:>12} {:>8}", "bench", "scalar Mops", "fast Mops", "speedup");
    for e in &entries {
        println!(
            "{:<44} {:>12.1} {:>12.1} {:>7.2}x",
            e.name,
            e.mops(e.scalar_ns()),
            e.mops(e.fast_ns()),
            e.timing.ratio.median
        );
    }

    println!();
    println!("{}", dk_perf::report::pipeline_table(&pipeline_rows));
    if !alloc_rows.is_empty() {
        println!();
        println!("{:<44} {:>14} {:>14}", "alloc (per warm step)", "allocations", "bytes");
        for r in &alloc_rows {
            println!("{:<44} {:>14} {:>14}", r.name, r.allocs_per_step, r.bytes_per_step);
        }
    }
    if let Some(o) = &obs_row {
        println!();
        println!(
            "obs overhead: session step {:.1} µs off / {:.1} µs on ({:+.2}%)",
            o.a_ns / 1e3,
            o.b_ns / 1e3,
            (o.b_ns / o.a_ns - 1.0) * 100.0
        );
    }

    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let pipeline_json = pipeline_rows
        .iter()
        .zip(&pipeline_ratios)
        .map(|(r, q)| {
            format!(
                "    {{\"name\": \"{}\", \"batches\": {}, \"sequential_ms\": {:.1}, \"pipelined_ms\": {:.1}, \"speedup\": {:.2}, \"pairs\": {}, \"speedup_q1\": {:.2}, \"speedup_q3\": {:.2}, \"analytical_fig5_gain\": {:.2}, \"analytical_arch\": \"{}\"}}",
                r.label,
                r.batches,
                r.sequential_ms,
                r.pipelined_ms,
                r.measured_speedup,
                q.pairs,
                q.q1,
                q.q3,
                r.analytical_speedup,
                r.analytical_arch
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let mut extra_sections = String::new();
    if !alloc_rows.is_empty() {
        let rows = alloc_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"allocs_per_step\": {}, \"bytes_per_step\": {}}}",
                    r.name, r.allocs_per_step, r.bytes_per_step
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        extra_sections.push_str(&format!(",\n  \"alloc\": [\n{rows}\n  ]"));
    }
    if let Some(o) = &obs_row {
        extra_sections.push_str(&format!(
            ",\n  \"obs\": [\n    {{\"name\": \"private_infer/mini_vgg session step\", \"off_ns_per_step\": {:.1}, \"on_ns_per_step\": {:.1}, \"overhead_ratio\": {:.4}, \"pairs\": {}, \"off_over_on_q1\": {:.4}, \"off_over_on_median\": {:.4}, \"off_over_on_q3\": {:.4}}}\n  ]",
            o.a_ns,
            o.b_ns,
            o.b_ns / o.a_ns,
            o.ratio.pairs,
            o.ratio.q1,
            o.ratio.median,
            o.ratio.q3
        ));
    }
    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"unix_time\": {},\n  \"benches\": [\n{}\n  ],\n  \"pipeline\": [\n{}\n  ]{}\n}}\n",
        if fast { "fast" } else { "full" },
        ts,
        entries.iter().map(Entry::to_json).collect::<Vec<_>>().join(",\n"),
        pipeline_json,
        extra_sections
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");

    // Smoke check: the fast kernels must actually beat the scalar path on
    // the field shapes (CI fails loudly if the optimization regresses).
    let field_regressions: Vec<&Entry> = entries
        .iter()
        .filter(|e| e.name.ends_with("/field") && e.fast_ns() > e.scalar_ns())
        .collect();
    if !field_regressions.is_empty() {
        for e in field_regressions {
            eprintln!("REGRESSION: {} fast path slower than scalar baseline", e.name);
        }
        std::process::exit(1);
    }
    // The three timing gates, one form each (see `gate`). First: the
    // engine's default lanes must not lose to one lane under modeled
    // accelerator latency (where the §7.1 overlap must pay). On a host
    // with real parallelism the pure-compute overlap must pay too, but
    // on one or two hardware threads the second lane only time-slices
    // with the first and with the worker threads (1.03–1.06x on two),
    // so that gate arms from three up.
    let can_overlap = std::thread::available_parallelism().map_or(1, usize::from) > 2;
    let mut regressed = false;
    for (r, q) in pipeline_rows.iter().zip(&pipeline_ratios) {
        let armed = r.label.contains("modeled-gpu")
            || (can_overlap && r.label.contains("compute-only"));
        if armed {
            regressed |= gate(&format!("{} default lanes vs one lane", r.label), q, 1.0, 0.10);
        }
    }
    // Observability gate: the fully-instrumented session step (spans +
    // counters live on every stage) must cost within 3% of the
    // uninstrumented one — the whole point of the lock-free registry.
    if let Some(o) = &obs_row {
        regressed |= gate("session step, dk_obs off vs on", &o.ratio, 1.0, 0.03);
    }
    // Kernel-trajectory gate against the committed record: raw ns/op is
    // host-dependent, so the comparison is normalized by each run's own
    // same-host scalar baseline — each tracked kernel's scalar:fast
    // speedup must not be more than 10% under the lower quartile of the
    // committed row's own pairs (`speedup_q1`: the record states how low
    // an unchanged binary read on its own day, so a run of one does not
    // trip on the record's median; 25%
    // when the committed row was measured at a different size, e.g. a
    // fast-mode CI run gating against the committed full-mode record:
    // the ratio shifts a few percent with shape, the margin absorbs it).
    // Tracked kernels, each row by its exact name: the conv forward (the
    // offload's dominant cost) at every recorded shape — dense, depthwise
    // and strided, the strided 1×1 — training's backward products (the
    // weight gradient at a dense, a strided and an 8×8 layer, the input
    // gradient at a dense and a strided one), the field matmul
    // (the SIMD kernel this ratio was built to protect), the TEE-side
    // streaming encode/decode (the coded-combine fast path),
    // Algorithm 2's seal-and-unseal of one step's gradient shards, and
    // the enclave's non-linear pass (max-pool, ReLU, the max-abs scan).
    if let Some(doc) = &committed {
        let tracked = [
            format!("conv2d_forward_16c32c3x3_{hw}x{hw}/field"),
            "conv2d_forward_16c16c3x3_32x32/field".to_string(),
            "conv2d_forward_dw32c3x3_16x16/field".to_string(),
            "conv2d_forward_dw32c3x3s2_16x16/field".to_string(),
            "conv2d_forward_16c32c3x3s2_16x16/field".to_string(),
            "conv2d_backward_weight_16c16c3x3_16x16/field".to_string(),
            "conv2d_backward_weight_16c32c3x3s2_16x16/field".to_string(),
            "conv2d_backward_weight_32c32c3x3_8x8/field".to_string(),
            "conv2d_backward_input_16c16c3x3_16x16_n2/field".to_string(),
            "conv2d_backward_input_16c32c3x3s2_16x16_n2/field".to_string(),
            "conv2d_forward_16c32c1x1s2_16x16/field".to_string(),
            "matmul_64x128x64/field".to_string(),
            format!("encode_k4_m2_n{coded_n}/field"),
            format!("decode_forward_k4_m2_n{coded_n}/field"),
            seal_row,
            "maxpool2d_2x2_16c32x32_n4/f32".to_string(),
            "relu_16c32x32_n4/f32".to_string(),
            "max_abs_n16384".to_string(),
        ];
        for name in &tracked {
            let Some(new) = entries.iter().find(|e| &e.name == name) else {
                eprintln!("REGRESSION: tracked kernel row {name} was not measured");
                regressed = true;
                continue;
            };
            // The same kernel at the record's other size: the row whose
            // name differs only in its last `_`-separated field.
            let committed_row = json_row(doc, name).map(|r| (r, 0.10)).or_else(|| {
                let (stem, _) = name.rsplit_once('_')?;
                let at = doc.find(&format!("\"name\": \"{stem}_"))?;
                let end = doc[at..].find('}')? + at;
                Some((&doc[at..end], 0.25))
            });
            let Some((row, margin)) = committed_row else { continue };
            if let Some(floor) = json_number(row, "speedup_q1") {
                let what = format!("{name} speedup over scalar vs the committed record's q1");
                regressed |= gate(&what, &new.timing.ratio, floor, margin);
            }
        }
    }
    if regressed {
        std::process::exit(1);
    }
    // Allocation gate: steady-state inference must stay at exactly zero
    // heap allocations — gated on the untruncated total over the whole
    // measured window.
    if let Some(r) = alloc_rows.iter().find(|r| r.name.starts_with("infer/")) {
        if r.total_allocs > 0 {
            eprintln!(
                "REGRESSION: {} performs {} allocations over the warm window (must be 0)",
                r.name, r.total_allocs
            );
            std::process::exit(1);
        }
    }
    // The private session round-trip is held to the same standard: with
    // a step plan installed and outputs recycled, the whole encode →
    // dispatch → decode → dequantize loop cycles through pooled buffers
    // and a warm serving step performs exactly zero heap allocations.
    if let Some(r) = alloc_rows.iter().find(|r| r.name.starts_with("private_infer/")) {
        if r.total_allocs > 0 {
            eprintln!(
                "REGRESSION: {} performs {} allocations over the warm window (must be 0)",
                r.name, r.total_allocs
            );
            std::process::exit(1);
        }
    }
}
