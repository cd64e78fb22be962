//! Adversarial soak harness — compressed hours-equivalent churn against
//! the full TEE/GPU serving and training stack, reported as an honest
//! claim-falsification checklist.
//!
//! Each phase tries to *break* a robustness claim rather than
//! demonstrate it:
//!
//! * tampering from **every** worker position, and collusion up to `M`,
//!   against per-sample bit-exactness vs [`dk_core::QuantizedReference`];
//! * fail-stop crash churn and TCP redial churn (connection severing,
//!   dead-endpoint backoff) against availability and replay correctness;
//! * a deadline storm against bounded-queue admission control;
//! * elastic scale oscillation (autoscaler + manual resizes at batch
//!   boundaries) against drain-on-retire exactness;
//! * a mid-run checkpoint / kill / resume cycle — the resumed half on a
//!   fresh two-lane pipelined engine — against bit-identical training;
//! * a counting global allocator against the zero-alloc steady state.
//!
//! A watchdog thread converts any deadlock into a hard failure. Exit
//! status is non-zero if **any** claim falsifies; the markdown report
//! lands at `--out` (default `SOAK_report.md`). `--seconds N` scales
//! the schedule (default ≈20 s of compressed traffic).
//!
//! Usage: `cargo run --release -p dk_bench --bin dk_soak --
//! [--seconds N] [--out PATH]`

use dk_core::virtual_batch::LargeBatchTrainer;
use dk_core::{
    DarknightConfig, DarknightSession, EngineOptions, PipelineEngine, QuantizedReference, StepPlan,
};
use dk_gpu::tcp::{serve_fleet_worker, FleetManifest, TcpFleet};
use dk_gpu::{Behavior, GpuCluster, GpuExec, LinearJob, WorkerId};
use dk_linalg::workspace::{alloc_counts, CountingAllocator};
use dk_linalg::Tensor;
use dk_nn::arch::mini_vgg;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_serve::{
    AutoscaleConfig, InferenceRequest, IntegrityVerdict, Server, ServerConfig, Ticket,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// The zero-alloc phase reads this; sharing dk_linalg's implementation
// keeps the soak gate counting identically to the CI alloc gate.
#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const HW: usize = 8;
const CLASSES: usize = 4;

/// One falsification attempt: the claim, whether it survived, and the
/// evidence.
struct Check {
    claim: &'static str,
    pass: bool,
    detail: String,
}

fn check(checks: &mut Vec<Check>, claim: &'static str, pass: bool, detail: String) {
    println!("[dk_soak] {} {claim} — {detail}", if pass { "PASS" } else { "FAIL" });
    checks.push(Check { claim, pass, detail });
}

fn sample(seed: u64, i: u64) -> Tensor<f32> {
    let magnitude = 0.02 * (1 + (seed ^ i) % 40) as f32;
    Tensor::from_fn(&[3, HW, HW], |j| {
        let h = (j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed.wrapping_mul(31).wrapping_add(i));
        ((h % 29) as f32 - 14.0) * magnitude
    })
}

fn solo(model: &Sequential, x: &Tensor<f32>, cfg: DarknightConfig) -> Vec<f32> {
    QuantizedReference::forward_solo(model, x, cfg.quant()).unwrap().into_vec()
}

/// Drives `n` requests through `server`, asserting every response is
/// bit-exact vs the solo reference. Returns
/// `(exact, wrong, failed, repaired)` counts.
fn drive(
    server: &Server,
    model: &Sequential,
    cfg: DarknightConfig,
    seed: u64,
    n: u64,
) -> (u64, u64, u64, u64) {
    let handle = server.handle();
    let tickets: Vec<(Tensor<f32>, Ticket)> = (0..n)
        .filter_map(|i| {
            let x = sample(seed, i);
            handle.submit(InferenceRequest::new(x.clone())).ok().map(|t| (x, t))
        })
        .collect();
    let (mut exact, mut wrong, mut failed, mut repaired) = (0u64, 0u64, 0u64, 0u64);
    for (x, t) in tickets {
        let Some(resp) = t.wait() else {
            failed += 1;
            continue;
        };
        if resp.verdict == IntegrityVerdict::Repaired {
            repaired += 1;
        }
        match &resp.output {
            Ok(y) if y.as_slice() == &solo(model, &x, cfg)[..] => exact += 1,
            Ok(_) => wrong += 1,
            Err(_) => failed += 1,
        }
    }
    (exact, wrong, failed, repaired)
}

/// Tampering from every worker position — each Byzantine behavior in
/// turn — plus collusion up to `M`, all under the elastic autoscaler.
fn phase_adversarial(checks: &mut Vec<Check>, factor: u64) {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(0x50AC);
    let model = mini_vgg(HW, CLASSES, 0x50AC);
    let byzantine = [
        Behavior::AdditiveNoise,
        Behavior::SingleElement,
        Behavior::ZeroOutput,
        Behavior::Scale(3),
        Behavior::StaleInput,
    ];
    let positions = cfg.workers_required();
    let (mut exact, mut wrong, mut failed, mut repaired) = (0u64, 0u64, 0u64, 0u64);
    for p in 0..positions {
        let mut behaviors = vec![Behavior::Honest; positions];
        behaviors[p] = byzantine[p % byzantine.len()];
        let cluster = GpuCluster::with_behaviors(&behaviors, 16 + p as u64);
        let server = Server::start(
            ServerConfig::new(cfg, &[3, HW, HW])
                .with_workers(1)
                .with_max_batch_wait(Duration::from_millis(1))
                .with_autoscale(AutoscaleConfig::new(1, 3).with_interval(Duration::from_millis(5))),
            &model,
            &cluster,
        )
        .expect("server start");
        let (e, w, f, r) = drive(&server, &model, cfg, p as u64, 6 * factor);
        exact += e;
        wrong += w;
        failed += f;
        repaired += r;
        server.shutdown();
    }
    check(
        checks,
        "tampering in every worker position: zero undetected corruptions",
        wrong == 0 && failed == 0 && exact > 0,
        format!("{positions} positions x {} reqs: {exact} exact, {wrong} wrong, {failed} failed", 6 * factor),
    );
    check(
        checks,
        "active tampering raises the Repaired alarm",
        repaired > 0,
        format!("{repaired} responses flagged Repaired"),
    );

    // Conviction changes routing. The servers above fork the fleet, so
    // this drives sessions directly to keep the workers' own counters
    // in view: after the step that convicts it, a liar's job count and
    // its record of observed encodings must stand still through more
    // inference and training, which must stay exact meanwhile.
    let rounds = 2 * factor;
    let (mut leaked_jobs, mut leaked_encodings, mut inexact) = (0u64, 0u64, 0u64);
    for p in 0..positions {
        let mut behaviors = vec![Behavior::Honest; positions];
        behaviors[p] = byzantine[p % byzantine.len()];
        let mut session =
            DarknightSession::new(cfg, GpuCluster::with_behaviors(&behaviors, 32 + p as u64)).unwrap();
        let mut honest =
            DarknightSession::new(cfg, GpuCluster::honest(positions, 32 + p as u64)).unwrap();
        let (mut m, mut m_honest) = (model.clone(), model.clone());
        let batch = |i: u64| {
            let rows: Vec<f32> = (0..2).flat_map(|r| sample(p as u64, 2 * i + r).into_vec()).collect();
            Tensor::from_vec(&[2, 3, HW, HW], rows)
        };
        let seen = |s: &DarknightSession| {
            let w = s.cluster().worker(WorkerId(p));
            (w.jobs_executed(), w.observations().len() as u64)
        };
        // One round: an inference batch, then a training step (which is
        // what stores encodings on the workers), both against an honest
        // fleet in lockstep.
        let mut sgd = (Sgd::new(0.05), Sgd::new(0.05));
        let mut step = |session: &mut DarknightSession, honest: &mut DarknightSession, i: u64| {
            let x = batch(i);
            let y = session.private_inference(&mut m, &x).expect("degraded inference");
            let want = honest.private_inference(&mut m_honest, &x).expect("honest inference");
            session.train_step(&mut m, &x, &[0, 1], &mut sgd.0).expect("degraded step");
            honest.train_step(&mut m_honest, &x, &[0, 1], &mut sgd.1).expect("honest step");
            u64::from(y.as_slice() != want.as_slice())
                + u64::from(m.max_param_diff(&m_honest.snapshot_params()) != 0.0)
        };
        inexact += step(&mut session, &mut honest, 0);
        let at_conviction = seen(&session);
        for i in 1..=rounds {
            inexact += step(&mut session, &mut honest, i);
        }
        let after = seen(&session);
        leaked_jobs += after.0 - at_conviction.0;
        leaked_encodings += after.1 - at_conviction.1;
        if session.quarantined() != [WorkerId(p)] {
            inexact += 1;
        }
    }
    check(
        checks,
        "a convicted worker receives zero jobs and zero encodings after conviction, at every worker position",
        leaked_jobs == 0 && leaked_encodings == 0 && inexact == 0,
        format!(
            "{positions} positions x {rounds} inference+training rounds after conviction: \
             {leaked_jobs} jobs, {leaked_encodings} encodings sent to the liar; {inexact} inexact results"
        ),
    );

    // Collusion up to M: with M = 2, two workers lie at once.
    let cfg = DarknightConfig::new(2, 2).with_integrity(true).with_recovery(true).with_seed(0xC011);
    let model = mini_vgg(HW, CLASSES, 0xC011);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[0] = Behavior::AdditiveNoise;
    behaviors[1] = Behavior::Scale(5);
    let cluster = GpuCluster::with_behaviors(&behaviors, 77);
    let server = Server::start(
        ServerConfig::new(cfg, &[3, HW, HW]).with_workers(2),
        &model,
        &cluster,
    )
    .expect("server start");
    let (e, w, f, r) = drive(&server, &model, cfg, 0xC011, 8 * factor);
    server.shutdown();
    check(
        checks,
        "collusion of M=2 workers: still exact, still detected",
        w == 0 && f == 0 && e > 0 && r > 0,
        format!("{e} exact, {w} wrong, {f} failed, {r} repaired"),
    );
}

/// Fail-stop churn: a worker that dies mid-run is repaired by the TEE.
fn phase_crash_churn(checks: &mut Vec<Check>, factor: u64) {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true).with_seed(0xDEAD);
    let model = mini_vgg(HW, CLASSES, 0xDEAD);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[1] = Behavior::Crash { after: 4 };
    let cluster = GpuCluster::with_behaviors(&behaviors, 5);
    let server = Server::start(
        ServerConfig::new(cfg, &[3, HW, HW]).with_workers(1),
        &model,
        &cluster,
    )
    .expect("server start");
    let (e, w, f, _) = drive(&server, &model, cfg, 0xDEAD, 10 * factor);
    let m = server.shutdown();
    check(
        checks,
        "fail-stop crash mid-stream: every admitted request still served exactly",
        w == 0 && f == 0 && e == 10 * factor,
        format!("{e} exact, {w} wrong, {f} failed (lost workers seen: {})", m.worker_lost),
    );
}

/// TCP redial churn: sever live connections mid-stream (replay must
/// reconstruct state) and dial a dead endpoint (backoff must suppress
/// the dial storm).
fn phase_redial_churn(checks: &mut Vec<Check>, factor: u64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve_fleet_worker(listener));
    let m = FleetManifest {
        workers: vec![addr.to_string(), addr.to_string()],
        ..FleetManifest::default()
    };
    let mut fleet = TcpFleet::from_manifest(&m);
    let job = |i: u64| LinearJob::DenseForward {
        weights: Arc::new(Tensor::from_fn(&[2, 3], |j| dk_field::F25::new(j as u64 + i + 1))),
        x: Tensor::from_fn(&[2, 3], |j| dk_field::F25::new((j as u64 * 7 + i) % 31)),
    };
    let mut wrong = 0u64;
    let rounds = 12 * factor;
    for i in 0..rounds {
        let j = job(i);
        let expected = j.execute();
        let got = fleet.execute_on(WorkerId((i % 2) as usize), &j).expect("tcp exec");
        if got.as_slice() != expected.as_slice() {
            wrong += 1;
        }
        if i % 3 == 2 {
            fleet.sever_connection(WorkerId((i % 2) as usize));
        }
    }
    let reconnects = fleet.reconnects();
    fleet.shutdown();
    server.join().unwrap().expect("fleet worker server");
    check(
        checks,
        "connection churn: severed connections redial + replay to correct results",
        wrong == 0 && reconnects > 0,
        format!("{rounds} jobs, {wrong} wrong, {reconnects} redials"),
    );

    // A dead endpoint must arm backoff instead of stalling every dial.
    let before = dk_obs::global().counter("dk_fleet_redial_backoff").value();
    let m = FleetManifest {
        workers: vec!["127.0.0.1:1".into()],
        connect_timeout_ms: 100,
        redial_backoff_ms: 5_000,
        redial_backoff_max_ms: 30_000,
        ..FleetManifest::default()
    };
    let mut dead = TcpFleet::from_manifest(&m);
    let j = job(0);
    let first = dead.execute_on(WorkerId(0), &j);
    let t0 = std::time::Instant::now();
    let second = dead.execute_on(WorkerId(0), &j);
    let suppressed_fast = t0.elapsed() < Duration::from_millis(80);
    let after = dk_obs::global().counter("dk_fleet_redial_backoff").value();
    check(
        checks,
        "dead endpoint: redial backoff armed, repeat dials suppressed instantly",
        first.is_err() && second.is_err() && suppressed_fast && after > before,
        format!("dk_fleet_redial_backoff {before} -> {after}, repeat dial {:?}", t0.elapsed()),
    );
}

/// Deadline storm: a burst far beyond queue capacity with near-zero
/// aggregation deadlines. Sheds are expected; silent drops, wrong
/// answers, or hangs are not.
fn phase_deadline_storm(checks: &mut Vec<Check>, factor: u64) {
    let cfg = DarknightConfig::new(4, 1).with_integrity(true).with_seed(0x57);
    let model = mini_vgg(HW, CLASSES, 0x57);
    let cluster = GpuCluster::honest(cfg.workers_required(), 0x57);
    let server = Server::start(
        ServerConfig::new(cfg, &[3, HW, HW])
            .with_workers(2)
            .with_queue_capacity(8)
            .with_max_batch_wait(Duration::from_micros(300)),
        &model,
        &cluster,
    )
    .expect("server start");
    let handle = server.handle();
    let n = 48 * factor;
    let mut shed = 0u64;
    let mut tickets = Vec::new();
    for i in 0..n {
        let x = sample(0x57, i);
        match handle.submit(InferenceRequest::new(x.clone()).with_max_wait(Duration::ZERO)) {
            Ok(t) => tickets.push((x, t)),
            Err(_) => shed += 1,
        }
    }
    let admitted = tickets.len() as u64;
    let mut exact = 0u64;
    let mut partial_batches = 0u64;
    for (x, t) in tickets {
        let resp = t.wait().expect("admitted requests are always answered");
        if resp.batch_fill < 1.0 {
            partial_batches += 1;
        }
        if resp.output.as_ref().map(|y| y.as_slice() == &solo(&model, &x, cfg)[..]).unwrap_or(false)
        {
            exact += 1;
        }
    }
    let metrics = server.shutdown();
    check(
        checks,
        "deadline storm: every admitted request answered exactly, overflow shed loudly",
        exact == admitted && metrics.served == admitted && metrics.shed == shed,
        format!(
            "{n} submitted: {admitted} admitted (all exact: {}), {shed} shed, {partial_batches} rode partial batches",
            exact == admitted
        ),
    );
}

/// Elastic oscillation: the autoscaler plus manual resizes at batch
/// boundaries, against drain-on-retire exactness and the pool gauges.
fn phase_oscillation(checks: &mut Vec<Check>, factor: u64) {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_seed(0x05C);
    let model = mini_vgg(HW, CLASSES, 0x05C);
    let cluster = GpuCluster::honest(cfg.workers_required(), 0x05C);
    let server = Server::start(
        ServerConfig::new(cfg, &[3, HW, HW])
            .with_workers(2)
            .with_max_batch_wait(Duration::from_millis(1))
            .with_autoscale(AutoscaleConfig::new(1, 4).with_interval(Duration::from_millis(4))),
        &model,
        &cluster,
    )
    .expect("server start");
    let cycle = [3usize, 1, 4, 2, 1, 3];
    let (mut exact, mut wrong, mut failed) = (0u64, 0u64, 0u64);
    for (wave, target) in cycle.iter().cycle().take((2 * factor) as usize).enumerate() {
        let (e, w, f, _) = drive(&server, &model, cfg, wave as u64, 4);
        exact += e;
        wrong += w;
        failed += f;
        server.resize_pool(*target).expect("resize");
    }
    let m = server.shutdown();
    check(
        checks,
        "scale oscillation at every batch boundary: drain-on-retire keeps answers exact",
        wrong == 0 && failed == 0 && exact > 0,
        format!("{exact} exact, {wrong} wrong, {failed} failed across {} resizes", 2 * factor),
    );
    check(
        checks,
        "pool observably scaled up AND down (dk_obs-backed counters/gauges)",
        m.scale_ups > 2 && m.scale_downs > 0 && m.pool_workers == 0,
        format!(
            "scale_ups={} scale_downs={} pool_workers(final)={}",
            m.scale_ups, m.scale_downs, m.pool_workers
        ),
    );
}

/// Mid-run checkpoint / kill / resume, the resumed half on a two-lane
/// pipelined engine — must be bit-identical to the uninterrupted run.
fn phase_checkpoint_resume(checks: &mut Vec<Check>, factor: u64) {
    let steps = 2 + 2 * factor.min(3);
    let cfg = DarknightConfig::new(2, 1).with_seed(0xCC);
    let model0 = || mini_vgg(HW, CLASSES, 3);
    let x = Tensor::from_fn(&[4, 3, HW, HW], |i| ((i % 13) as f32 - 6.0) * 0.07);
    let labels: Vec<usize> = (0..4).map(|i| i % CLASSES).collect();

    // Uninterrupted reference.
    let session = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 21)).unwrap();
    let mut t = LargeBatchTrainer::new(session, 64);
    let mut m_ref = model0();
    let mut sgd_ref = Sgd::new(0.1).with_momentum(0.9);
    let mut ref_losses = Vec::new();
    for _ in 0..steps {
        ref_losses
            .push(t.train_large_batch(&mut m_ref, &x, &labels, &mut sgd_ref).unwrap().mean_loss());
    }

    // Killed at the midpoint, resumed from the sealed checkpoint by a
    // fresh enclave driving a pipelined engine.
    let kill_at = steps / 2;
    let session = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 21)).unwrap();
    let mut t = LargeBatchTrainer::new(session, 64).with_checkpoint_interval(kill_at);
    let mut m = model0();
    let mut sgd = Sgd::new(0.1).with_momentum(0.9);
    for _ in 0..kill_at {
        t.train_large_batch(&mut m, &x, &labels, &mut sgd).unwrap();
    }
    let blob = t.latest_checkpoint().expect("checkpoint at the kill point");
    drop(t);

    let engine = PipelineEngine::new(
        cfg,
        GpuCluster::honest(cfg.workers_required(), 99),
        EngineOptions::default().with_lanes(2),
    )
    .unwrap();
    let mut m2 = model0();
    let mut sgd2 = Sgd::new(0.1).with_momentum(0.9);
    let mut t2 = LargeBatchTrainer::resume_pipelined(engine, 64, &blob, &mut m2, &mut sgd2)
        .expect("resume from sealed checkpoint");
    let mut resumed_losses = Vec::new();
    for _ in kill_at..steps {
        resumed_losses
            .push(t2.train_large_batch(&mut m2, &x, &labels, &mut sgd2).unwrap().mean_loss());
    }

    let loss_bits_match = ref_losses[kill_at as usize..]
        .iter()
        .zip(&resumed_losses)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let weight_diff = m2.max_param_diff(&m_ref.snapshot_params());
    check(
        checks,
        "kill/resume at a step boundary (resumed pipelined): bit-identical",
        loss_bits_match && weight_diff == 0.0,
        format!(
            "{steps} steps, killed at {kill_at}; losses match: {loss_bits_match}, max weight diff: {weight_diff}"
        ),
    );
}

/// The warm private-inference step must not allocate.
fn phase_zero_alloc(checks: &mut Vec<Check>) {
    let cfg = DarknightConfig::new(2, 1).with_integrity(true);
    let fleet = GpuCluster::honest(cfg.workers_required(), 41);
    let mut session = DarknightSession::new(cfg, fleet).expect("session");
    let mut model = mini_vgg(HW, CLASSES, 42);
    let plan = StepPlan::extract(&model, cfg.quant()).expect("plan");
    session.set_step_plan(Some(Arc::new(plan)));
    let x = Tensor::from_fn(&[2, 3, HW, HW], |i| ((i % 13) as f32 - 6.0) * 0.07);
    for _ in 0..3 {
        let y = session.private_inference(&mut model, &x).expect("warmup");
        session.recycle_output(y);
    }
    let (a0, b0) = alloc_counts();
    for _ in 0..5 {
        let y = session.private_inference(&mut model, &x).expect("steady");
        session.recycle_output(y);
    }
    let (a1, b1) = alloc_counts();
    check(
        checks,
        "zero-alloc steady state: 5 warm private-inference steps, 0 heap allocations",
        a1 == a0,
        format!("{} allocs / {} bytes over 5 steps", a1 - a0, b1 - b0),
    );
}

fn write_report(path: &str, seconds: u64, checks: &[Check]) {
    let failed = checks.iter().filter(|c| !c.pass).count();
    let mut out = String::new();
    out.push_str("# DarKnight adversarial soak report\n\n");
    out.push_str(&format!(
        "Compressed schedule: ~{seconds}s. Verdict: **{}** ({} / {} claims held).\n\n",
        if failed == 0 { "PASS" } else { "FAIL" },
        checks.len() - failed,
        checks.len()
    ));
    out.push_str("Claim-falsification checklist — each line is an attempt to break the claim:\n\n");
    for c in checks {
        out.push_str(&format!(
            "- [{}] {} — {}\n",
            if c.pass { 'x' } else { ' ' },
            c.claim,
            c.detail
        ));
    }
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("[dk_soak] could not write report to {path}: {e}");
    } else {
        println!("[dk_soak] report written to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds: u64 = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "SOAK_report.md".to_string());
    let factor = (seconds / 10).max(1);
    dk_obs::enable();

    // Watchdog: a hang IS a finding. Generous budget so slow CI runners
    // don't false-positive; a real deadlock blows well past it.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = done.clone();
        let budget = Duration::from_secs(seconds * 6 + 120);
        std::thread::spawn(move || {
            std::thread::sleep(budget);
            if !done.load(Ordering::SeqCst) {
                eprintln!("[dk_soak] WATCHDOG: still running after {budget:?} — deadlock/hang");
                std::process::exit(2);
            }
        });
    }

    let mut checks = Vec::new();
    phase_adversarial(&mut checks, factor);
    phase_crash_churn(&mut checks, factor);
    phase_redial_churn(&mut checks, factor);
    phase_deadline_storm(&mut checks, factor);
    phase_oscillation(&mut checks, factor);
    phase_checkpoint_resume(&mut checks, factor);
    phase_zero_alloc(&mut checks);
    done.store(true, Ordering::SeqCst);

    write_report(&out_path, seconds, &checks);
    let failed = checks.iter().filter(|c| !c.pass).count();
    if failed > 0 {
        eprintln!("[dk_soak] {failed} claim(s) falsified");
        std::process::exit(1);
    }
    println!("[dk_soak] all {} claims held", checks.len());
}
