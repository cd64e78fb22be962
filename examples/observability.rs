//! End-to-end observability: spans, metrics, and fleet health under fire.
//!
//! Two serving bursts run against a 2-worker session pool with the full
//! `dk_obs` stack enabled:
//!
//! 1. a **tampered** burst — one GPU worker adds noise to every result,
//!    so every virtual batch trips the redundant integrity equation and
//!    flows through localize → quarantine → repair;
//! 2. a **worker-crash** burst — one GPU worker dies mid-burst and the
//!    recovery path recomputes its share inside the TEE.
//!
//! Afterwards the example prints the Prometheus scrape (server counters
//! plus the global registry), the per-worker fleet-health table, and
//! writes the retained spans as a chrome://tracing JSON document to
//! `target/observability_trace.json` (load it via chrome://tracing or
//! <https://ui.perfetto.dev>). It then self-checks — valid trace with at
//! least two concurrently-active lanes, parseable exposition, repairs
//! actually recorded — and exits nonzero on any failure, so CI can run
//! it as a smoke test.
//!
//! Run with: `cargo run --release --example observability`

use darknight::core::DarknightConfig;
use darknight::gpu::{Behavior, GpuCluster};
use darknight::linalg::Tensor;
use darknight::nn::arch::mini_vgg;
use darknight::obs;
use darknight::serve::{InferenceRequest, Server, ServerConfig, ServerMetrics};
use std::time::Duration;

const HW: usize = 8;
const CLIENTS: usize = 4;
const PER_CLIENT: usize = 8;

fn sample(client: u64, i: u64) -> Tensor<f32> {
    Tensor::from_fn(&[3, HW, HW], |j| {
        let h = (j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(client * 131 + i * 17);
        ((h % 23) as f32 - 11.0) * 0.04
    })
}

/// Push `CLIENTS x PER_CLIENT` requests through a fresh server over the
/// given cluster and return its final metrics. Every response must be
/// produced (the faulty worker is repaired around, not surfaced).
fn burst(label: &str, cluster: &GpuCluster, cfg: DarknightConfig) -> (ServerMetrics, String) {
    let model = mini_vgg(HW, 4, 2021);
    let server = Server::start(
        ServerConfig::new(cfg, &[3, HW, HW])
            .with_workers(2)
            .with_queue_capacity(128)
            .with_max_batch_wait(Duration::from_millis(1)),
        &model,
        cluster,
    )
    .expect("server start");
    let handle = server.handle();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS as u64 {
            let handle = server.handle();
            scope.spawn(move || {
                let tickets: Vec<_> = (0..PER_CLIENT as u64)
                    .map(|i| handle.submit(InferenceRequest::new(sample(c, i))).expect("admitted"))
                    .collect();
                for ticket in tickets {
                    let resp = ticket.wait().expect("server alive");
                    resp.output.expect("fault must be repaired, not surfaced");
                }
            });
        }
    });

    // Scrape while the server is still alive — the `/metrics`-style
    // dump a sidecar would poll.
    let scrape = handle.render_metrics();
    println!("--- {label}: live scrape (excerpt) ---");
    for line in scrape.lines().filter(|l| !l.starts_with('#') && !l.contains("_bucket")).take(10) {
        println!("{line}");
    }
    println!();
    let metrics = server.shutdown();
    assert_eq!(metrics.served as usize, CLIENTS * PER_CLIENT, "{label}: every request served");
    (metrics, scrape)
}

/// Every non-comment exposition line must be `name{labels} value` with
/// a finite numeric value.
fn check_prometheus(text: &str, what: &str) {
    let mut lines = 0usize;
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("{what}: exposition line without value: {line:?}");
        });
        assert!(!name.is_empty(), "{what}: empty metric name in {line:?}");
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{what}: non-numeric sample {value:?} in {line:?}"));
        assert!(v.is_finite(), "{what}: non-finite sample in {line:?}");
        lines += 1;
    }
    assert!(lines > 0, "{what}: exposition is empty");
}

fn main() {
    obs::enable();

    // Burst 1: one worker tampers with every result (additive noise);
    // integrity + recovery repair every batch inside the TEE.
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    behaviors[0] = Behavior::AdditiveNoise;
    let (tampered, tampered_scrape) =
        burst("tampered burst", &GpuCluster::with_behaviors(&behaviors, 11), cfg);
    assert!(tampered.repaired > 0, "tampering must trip the integrity check and be repaired");
    assert!(tampered.quarantined > 0, "the tamperer must be quarantined");
    assert_eq!(tampered.failed, 0, "recovery must keep tampered batches servable");

    // Burst 2: one worker crashes mid-burst; the fault-dispatch path
    // recomputes its jobs and the burst completes.
    let cfg = DarknightConfig::new(2, 1).with_integrity(true).with_recovery(true);
    let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
    let crasher = behaviors.len() - 1;
    behaviors[crasher] = Behavior::Crash { after: 4 };
    let (crashed, _) = burst("worker-crash burst", &GpuCluster::with_behaviors(&behaviors, 13), cfg);
    assert_eq!(crashed.failed, 0, "crash must be absorbed, not surfaced");
    // Fault kinds are indexed like `FaultKind`, `WorkerLost` first.
    let snapshot = obs::fleet().snapshot();
    let lost = snapshot.iter().find(|w| w.worker == crasher).map_or(0, |w| w.faults[0]);
    assert!(lost > 0, "the crashed worker must be booked as lost in fleet health");

    // ---- global registry scrape (dispatch / recovery counters) -------
    let global = obs::global().render_prometheus();
    println!("--- global registry scrape ---");
    for line in global.lines().filter(|l| !l.starts_with('#') && !l.contains("_bucket")) {
        println!("{line}");
    }
    check_prometheus(&global, "global registry");

    // ---- per-worker fleet health -------------------------------------
    println!();
    println!("{}", obs::fleet().render_table());

    // ---- span trace ---------------------------------------------------
    let spans = obs::trace::snapshot();
    let mut lanes: Vec<usize> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert!(
        lanes.len() >= 2,
        "expected spans from >=2 lanes (pool threads), got {}",
        lanes.len()
    );
    assert!(
        spans.iter().all(|s| s.thread.contains("/dk-lane-")),
        "every span comes from a named lane of a named pool worker"
    );
    // At least one pair of spans on *different* lanes must overlap in
    // wall time — the pool really ran concurrently.
    let overlap = spans.iter().any(|a| {
        let a_end = a.start_us + a.dur_ns / 1000;
        spans
            .iter()
            .any(|b| b.lane != a.lane && b.start_us <= a_end && a.start_us <= b.start_us + b.dur_ns / 1000)
    });
    assert!(overlap, "no overlapping spans across lanes — pool did not run concurrently?");
    assert!(
        spans.iter().any(|s| s.stage == obs::Stage::Repair),
        "tampered burst must leave Repair spans in the trace"
    );

    let chrome = obs::trace::export_chrome();
    assert!(chrome.starts_with("{\"traceEvents\":["), "chrome export must be a trace document");
    assert!(chrome.matches("\"ph\":\"M\"").count() >= 2, "thread-name metadata per lane");
    assert!(chrome.matches("\"ph\":\"X\"").count() >= spans.len(), "one complete event per span");
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/observability_trace.json", &chrome).expect("write trace");

    // ---- serve-side exposition self-check -----------------------------
    check_prometheus(&tampered_scrape, "serve registry");

    println!();
    println!(
        "spans: {} across {} lanes ({} repair); trace -> target/observability_trace.json",
        spans.len(),
        lanes.len(),
        spans.iter().filter(|s| s.stage == obs::Stage::Repair).count()
    );
    println!(
        "tampered burst: served={} repaired={} quarantined={} | crash burst: served={} \
         worker_lost={} repaired_rows={}",
        tampered.served,
        tampered.repaired,
        tampered.quarantined,
        crashed.served,
        crashed.worker_lost,
        crashed.repaired_rows
    );
    println!("observability example: all self-checks passed");
}
