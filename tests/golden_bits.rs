//! Golden bits: the private path's outputs pinned **across commits**.
//!
//! `private ≡ QuantizedReference` pins the session against an oracle
//! that lives in the same commit; a change that moves both the same way
//! passes it. This suite pins the bits themselves: every case below is
//! folded into one 64-bit value and compared against the checked-in
//! table `tests/golden_bits.txt`. A kernel, scheme or session rewrite
//! must leave the table byte-identical; a PR that moves a bit on purpose
//! regenerates it (`cargo test --test golden_bits -- --ignored
//! --nocapture`) and says why in the same diff.
//!
//! Cases: `mini_vgg`, `mini_resnet`, `mini_mobilenet` × {no integrity,
//! integrity, recovery with worker 1 a `SingleElement` liar} ×
//!
//! * `train` — three training steps: every loss, logit, `dx` and
//!   parameter gradient;
//! * `infer` — shared-scale, per-sample and planned (pre-quantized
//!   weights) inference on the trained model: every logit;
//! * `view` — what is left behind: `SessionStats`, the quarantine list
//!   and each worker's recorded observations (the adversary's view,
//!   which no equality-with-oracle test covers).
//!
//! Two more groups pin what the model cases cannot see:
//!
//! * `rng_position` — `encode_fused_ws` at (K, M) = (2,1) (4,1) (4,2)
//!   (3,3) over rows of 4096 + 1037 elements (two noise chunks, the
//!   second a multiple of no power of two above 1): every encoding and
//!   where the noise generator stands afterwards (its next `next_u64`);
//! * `tcp_fleet` — every byte a loopback [`TcpFleet`] and its worker
//!   host exchange over one private inference, per worker and
//!   direction, read off a relay between them.
//!
//! The table is computed twice, with the kernel thread cap at 1 and at
//! 4 (16×16 inputs put the larger layers over the fan-out threshold),
//! and both must match.

use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use darknight::core::{DarknightConfig, DarknightSession, EncodingScheme, StepPlan};
use darknight::field::{derive_seed, FieldRng, F25, P25};
use darknight::gpu::{serve_fleet_worker, Behavior, FleetManifest, GpuCluster, TcpFleet};
use darknight::linalg::{set_max_threads, Conv2dShape, Tensor, Workspace};
use darknight::nn::arch::{mini_mobilenet, mini_resnet, mini_vgg};
use darknight::nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use darknight::nn::loss::softmax_cross_entropy;
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;

const TABLE: &str = include_str!("golden_bits.txt");

const HW: usize = 16;
const CLASSES: usize = 4;
const K: usize = 2;
const LABELS: [usize; K] = [1, 3];
const STEPS: u64 = 3;

/// An order-sensitive 64-bit fold (splitmix64 via [`derive_seed`]).
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Self(0x676f_6c64_656e)
    }
    fn u64(&mut self, v: u64) {
        self.0 = derive_seed(self.0, v);
    }
    fn f32s(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(u64::from(v.to_bits()));
        }
    }
    fn field(&mut self, vs: &[F25]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.value());
        }
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        for b in bs {
            self.u64(u64::from(*b));
        }
    }
}

fn input(step: u64) -> Tensor<f32> {
    Tensor::from_fn(&[K, 3, HW, HW], |i| {
        (((i as u64 * 31 + step * 7) % 23) as f32 - 11.0) * 0.04
    })
}

type Build = fn(usize, usize, u64) -> Sequential;
const MODELS: [(&str, Build); 3] =
    [("mini_vgg", mini_vgg), ("mini_resnet", mini_resnet), ("mini_mobilenet", mini_mobilenet)];
const MODES: [&str; 3] = ["plain", "integrity", "recovery_liar"];

/// Runs one (model, mode) pair and appends its three rows.
fn run_case(table: &mut String, name: &str, build: Build, mode: &str) {
    let cfg = DarknightConfig::new(K, 1)
        .with_integrity(mode != "plain")
        .with_recovery(mode == "recovery_liar")
        .with_seed(0x60_1d);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    if mode == "recovery_liar" {
        behaviors[1] = Behavior::SingleElement;
    }
    let cluster = GpuCluster::with_behaviors(&behaviors, 77);
    let mut session = DarknightSession::new(cfg, cluster).expect("session");
    let mut model = build(HW, CLASSES, 5);
    let mut sgd = Sgd::new(0.05);
    let mut row = |phase: &str, f: &Fold| {
        writeln!(table, "{name}/{mode}/{phase} {:016x}", f.0).expect("write to a String");
    };

    let mut f = Fold::new();
    for step in 0..STEPS {
        model.zero_grad();
        let logits = session.private_forward(&mut model, &input(step), true).expect("forward");
        let (loss, dlogits) = softmax_cross_entropy(&logits, &LABELS);
        let dx = session.private_backward(&mut model, &dlogits).expect("backward");
        f.u64(u64::from(loss.to_bits()));
        f.f32s(logits.as_slice());
        f.f32s(dx.as_slice());
        f.f32s(&model.grad_vector());
        sgd.step(&mut model);
    }
    row("train", &f);

    let mut f = Fold::new();
    let x = input(STEPS);
    f.f32s(session.private_inference(&mut model, &x).expect("shared").as_slice());
    f.f32s(session.private_inference_per_sample(&mut model, &x).expect("per-sample").as_slice());
    let plan = StepPlan::extract(&model, cfg.quant()).expect("plan");
    session.set_step_plan(Some(Arc::new(plan)));
    f.f32s(session.private_inference(&mut model, &x).expect("planned").as_slice());
    session.set_step_plan(None);
    row("infer", &f);

    let mut f = Fold::new();
    let s = session.stats();
    for v in [
        s.linear_jobs,
        s.encoded_elems,
        s.decoded_elems,
        s.bytes_to_gpus,
        s.bytes_from_gpus,
        s.integrity_checks,
        s.nonlinear_elems,
        s.recoveries,
    ] {
        f.u64(v);
    }
    f.u64(session.quarantined().len() as u64);
    for w in session.quarantined() {
        f.u64(w.0 as u64);
    }
    for w in session.cluster().workers() {
        f.u64(w.observations().len() as u64);
        for obs in w.observations() {
            f.u64(obs.len() as u64);
            for v in obs {
                f.u64(v.value());
            }
        }
    }
    row("view", &f);
}

/// Row length of the `rng_position` cases: one full noise chunk of
/// `encode_fused_ws` plus an odd-sized second one.
const FUSED_ROW: usize = 4096 + 1037;

/// The fused encoder's outputs and the noise generator's position after
/// it, one row per scheme size.
fn rng_position_rows(table: &mut String) {
    for (k, m) in [(2, 1), (4, 1), (4, 2), (3, 3)] {
        let mut rng = FieldRng::seed_from(0x706f_7369 ^ (k * 16 + m) as u64);
        let scheme = EncodingScheme::generate(k, m, true, &mut rng);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| rng.uniform_vec::<P25>(FUSED_ROW)).collect();
        let mut nrng = rng.fork(1);
        let mut f = Fold::new();
        for enc in scheme.encode_fused_ws(&inputs, &mut nrng, &mut Workspace::new()) {
            f.field(&enc);
        }
        f.u64(nrng.next_u64());
        writeln!(table, "rng_position/k{k}_m{m} {:016x}", f.0).expect("write to a String");
    }
}

/// Every byte one relayed connection carried `(to, from)` its upstream
/// side.
type Relayed = (Vec<u8>, Vec<u8>);

/// A loopback relay in front of `upstream` for one connection: forwards
/// both directions and returns what it carried.
fn recording_relay(upstream: String) -> (String, JoinHandle<Relayed>) {
    fn pump(mut src: TcpStream, mut dst: TcpStream) -> Vec<u8> {
        let (mut seen, mut buf) = (Vec::new(), [0u8; 1 << 14]);
        while let Ok(n @ 1..) = src.read(&mut buf) {
            seen.extend_from_slice(&buf[..n]);
            if dst.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = dst.shutdown(Shutdown::Write);
        seen
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("relay address").to_string();
    let relay = std::thread::spawn(move || {
        let (down, _) = listener.accept().expect("fleet dials the relay");
        let up = TcpStream::connect(upstream).expect("relay dials the worker host");
        let (down2, up2) = (down.try_clone().expect("clone"), up.try_clone().expect("clone"));
        let from = std::thread::spawn(move || pump(up2, down2));
        (pump(down, up), from.join().expect("relay pump"))
    });
    (addr, relay)
}

/// Every byte of one private inference over a loopback `TcpFleet`.
fn tcp_fleet_row(table: &mut String) {
    let cfg = DarknightConfig::new(K, 1).with_integrity(true).with_seed(0x7c9);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let host = listener.local_addr().expect("host address").to_string();
    let server = std::thread::spawn(move || serve_fleet_worker(listener));
    let (addrs, relays): (Vec<_>, Vec<_>) =
        (0..cfg.workers_required()).map(|_| recording_relay(host.clone())).unzip();
    let fleet = TcpFleet::from_manifest(&FleetManifest {
        workers: addrs,
        io_timeout_ms: 10_000,
        ..FleetManifest::default()
    });
    let mut session =
        DarknightSession::with_backend(cfg, fleet, Default::default()).expect("session");
    let mut model = Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 4, 3, 1, 1), 9)),
        Layer::Relu(Relu::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dense(Dense::new(4 * 6 * 6, 3, 10)),
    ]);
    let x = Tensor::from_fn(&[K, 2, 6, 6], |i| ((i * 31 % 17) as f32 - 8.0) * 0.06);
    let mut f = Fold::new();
    f.f32s(session.private_inference(&mut model, &x).expect("inference over tcp").as_slice());
    session.cluster_mut().shutdown();
    for relay in relays {
        let (to, from) = relay.join().expect("relay");
        f.bytes(&to);
        f.bytes(&from);
    }
    server.join().expect("worker host").expect("worker host exits cleanly");
    writeln!(table, "tcp_fleet/inference_bytes {:016x}", f.0).expect("write to a String");
}

fn fresh_table() -> String {
    let mut table = String::new();
    for (name, build) in MODELS {
        for mode in MODES {
            run_case(&mut table, name, build, mode);
        }
    }
    rng_position_rows(&mut table);
    tcp_fleet_row(&mut table);
    table
}

#[test]
fn bits_match_the_checked_in_table_at_1_and_4_threads() {
    for threads in [1, 4] {
        set_max_threads(threads);
        let fresh = fresh_table();
        set_max_threads(0);
        for (got, want) in fresh.lines().zip(TABLE.lines()) {
            assert_eq!(got, want, "a bit moved ({threads} kernel threads)");
        }
        assert_eq!(fresh.lines().count(), TABLE.lines().count(), "table length");
    }
}

#[test]
#[ignore = "prints a fresh table for tests/golden_bits.txt"]
fn print_fresh_table() {
    print!("{}", fresh_table());
}
