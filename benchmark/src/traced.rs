//! The traced run: per-layer metrics of one workload.
//!
//! Four sources, kept apart below. **W**: spans recorded by the
//! harness around calls into a layer (the `TimedExec` backend wrapper,
//! `submit`, the operation itself). **P**: the probes. **C**: deltas of
//! the program's public counters over the traced window, per
//! operation. **D**: derived from the other three.

use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::probes::{self, ProbeCtx};
use crate::run::{out_dir, secs, warmup_s, RunConfig, RunResult, Tally, GEN_LATE_FLAG_MS};
use crate::stats::{median, percentile_any, sorted, split_segments, spread};
use crate::trace::{self, OpBreakdown, Span};
use crate::workloads::{self, Counters, Finish, Inputs, Instance, ServeObs, Window, WorkloadId};
use dk_core::session::SessionStats;
use dk_obs::{SpanRecord, Stage, WorkerHealth};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Fractions of `--seconds` the traced run spends in each window.
const UNTRACED_SHARE: f64 = 0.2;
const PREROLL_SHARE: f64 = 0.02;
const TRACED_SHARE: f64 = 0.4;
/// Four alternating segments (`dk_obs` on, off, on, off), this share
/// each.
const OBS_SEGMENT_SHARE: f64 = 0.05;

/// Metric values by name; a name never set reads 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}

/// `num / den`, or 0 when there is no denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50(w: &Window) -> f64 {
    percentile_any(&w.latencies(), 0.5).unwrap_or(0.0)
}

/// Everything measured in the traced run, before any arithmetic.
struct Measured {
    id: WorkloadId,
    /// Reference window, tracing off (the wrapper passes calls through).
    untraced: Window,
    /// The traced window.
    traced: Window,
    wall_s: f64,
    /// The program's counters at the traced window's two ends.
    before: Counters,
    after: Counters,
    spans: Vec<Span>,
    dropped: u64,
    obs_spans: Vec<SpanRecord>,
    health: Vec<WorkerHealth>,
    /// Latencies with `dk_obs` on and off, interleaved segments.
    obs_on: Vec<f64>,
    obs_off: Vec<f64>,
    /// `infer_tcp`: backend time per operation of the same model on an
    /// in-process fleet.
    cluster_execute_ms: Option<f64>,
    fin: Finish,
    /// Virtual batches one operation of the workload's inputs takes
    /// (the serve workloads read theirs off `ServerMetrics`).
    batches_per_input: f64,
}

impl Measured {
    fn ops(&self) -> f64 {
        self.traced.attempted().max(1) as f64
    }

    /// A counter's growth over the traced window, per operation.
    fn per_op(&self, f: impl Fn(&Counters) -> Option<f64>) -> f64 {
        match (f(&self.before), f(&self.after)) {
            (Some(a), Some(b)) => (b - a) / self.ops(),
            _ => 0.0,
        }
    }

    fn busy_ns(&self) -> f64 {
        self.health.iter().map(|h| h.busy_ns).sum::<u64>() as f64
    }

    /// Batches the server dispatched in the traced window.
    fn server_batches(&self) -> Option<f64> {
        let (a, b) = (self.before.server.as_ref()?, self.after.server.as_ref()?);
        Some((b.batches - a.batches) as f64)
    }
}

fn measure(
    config: RunConfig,
    inputs: &Inputs,
    instance: &mut dyn Instance,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let id = config.id;
    let mut window = |instance: &mut dyn Instance, share: f64| {
        let w = instance.run(secs(config.seconds * share));
        tally.window(&w);
        w
    };
    let untraced = window(instance, UNTRACED_SHARE);

    // A short pre-roll with everything on comes first, so that one-time
    // costs of switching on (each thread's span ring) stay out of the
    // traced window's counts.
    dk_obs::enable();
    trace::start();
    window(instance, PREROLL_SHARE);
    dk_obs::trace::clear();
    dk_obs::fleet().reset();
    trace::start();
    let before = instance.counters();
    let t0 = Instant::now();
    let traced = window(instance, TRACED_SHARE);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = instance.counters();
    let (spans, dropped) = trace::stop();
    dk_obs::disable();
    let obs_spans = dk_obs::trace::snapshot();
    let health = dk_obs::fleet().snapshot();

    // `dk_obs` on against off, interleaved so both see the same host.
    let (mut obs_on, mut obs_off) = (Vec::new(), Vec::new());
    for on in [true, false, true, false] {
        if on {
            dk_obs::enable();
        }
        let w = window(instance, OBS_SEGMENT_SHARE);
        dk_obs::disable();
        if on { &mut obs_on } else { &mut obs_off }.extend(w.latencies());
    }

    let cluster_execute_ms = match inputs {
        Inputs::Session(s) if id == WorkloadId::InferTcp => {
            let dur = secs(config.seconds * OBS_SEGMENT_SHARE * 2.0);
            Some(probes::in_process_execute_ms(s, dur)?)
        }
        _ => None,
    };
    Ok(Measured {
        id,
        untraced,
        traced,
        wall_s,
        before,
        after,
        spans,
        dropped,
        obs_spans,
        health,
        obs_on,
        obs_off,
        cluster_execute_ms,
        fin: Finish::default(),
        batches_per_input: (inputs.probe_batch().shape()[0] / id.spec().k) as f64,
    })
}

/// W: the backend wrapper's spans (session workloads), or fleet-health
/// occupancy where the dispatcher books it (engine and serve).
fn backend_metrics(m: &Measured, v: &mut Values) {
    let per_op = trace::per_op(&m.spans);
    let med = |f: &dyn Fn(&OpBreakdown) -> f64| {
        median(&per_op.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    if m.id.is_session() {
        let tee_ms = med(&|o| o.tee_ms());
        v.set("dk_gpu.execute_ms_per_op", med(&|o| o.execute_ms));
        v.set("dk_core.tee_ms_per_op", tee_ms);
        v.set("dk_core.tee_share", ratio(tee_ms, p50(&m.traced)));
        v.set("dk_gpu.store_ms_per_op", med(&|o| o.store_ms));
        v.set("dk_gpu.jobs_per_op", med(&|o| o.jobs as f64));
        v.set("dk_gpu.mmacs_per_op", med(&|o| o.macs as f64 / 1e6));
        let mmacs: f64 = per_op.iter().map(|o| o.macs as f64 / 1e6).sum();
        let execute_s: f64 = per_op.iter().map(|o| o.execute_ms / 1e3).sum();
        v.set("dk_linalg.field_mmacs_per_s", ratio(mmacs, execute_s));
        let attributed = v.sum(&[
            "dk_field.quantize_ms_per_op",
            "dk_field.dequantize_ms_per_op",
            "dk_core.encode_ms_per_op",
            "dk_core.decode_ms_per_op",
            "dk_nn.nonlinear_ms_per_op",
        ]);
        v.set("dk_core.unattributed_ms_per_op", tee_ms - attributed);
    } else {
        v.set("dk_gpu.execute_ms_per_op", m.busy_ns() / 1e6 / m.ops());
    }
    let busy_workers = m.health.iter().filter(|h| h.jobs > 0).count().max(1) as f64;
    v.set(
        "dk_gpu.worker_busy_share",
        m.busy_ns() / 1e9 / (m.wall_s * busy_workers),
    );
    if let Some(cluster_ms) = m.cluster_execute_ms {
        v.set(
            "dk_gpu.wire_ms_per_op",
            v.get("dk_gpu.execute_ms_per_op") - cluster_ms,
        );
    }
}

/// C: deltas of public getters over the traced window.
fn counter_metrics(m: &Measured, v: &mut Values) {
    v.set("dk_linalg.allocs_per_op", m.traced.allocs as f64 / m.ops());
    v.set(
        "dk_linalg.alloc_bytes_per_op",
        m.traced.alloc_bytes as f64 / m.ops(),
    );
    v.set(
        "dk_linalg.workspace_misses_per_op",
        m.per_op(|c| c.workspace_misses.map(|n| n as f64)),
    );
    type Field = fn(&SessionStats) -> u64;
    let session: [(&'static str, Field); 8] = [
        ("dk_core.linear_jobs_per_op", |s| s.linear_jobs),
        ("dk_core.encoded_elems_per_op", |s| s.encoded_elems),
        ("dk_core.decoded_elems_per_op", |s| s.decoded_elems),
        ("dk_core.bytes_to_gpus_per_op", |s| s.bytes_to_gpus),
        ("dk_core.bytes_from_gpus_per_op", |s| s.bytes_from_gpus),
        ("dk_core.integrity_checks_per_op", |s| s.integrity_checks),
        ("dk_core.nonlinear_elems_per_op", |s| s.nonlinear_elems),
        ("dk_core.recoveries_per_op", |s| s.recoveries),
    ];
    for (name, field) in session {
        v.set(
            name,
            m.per_op(|c| c.session.as_ref().map(|s| field(s) as f64)),
        );
    }
    v.set(
        "dk_tee.sealed_bytes_per_op",
        m.per_op(|c| {
            c.enclave
                .map(|e| (e.sealed_out_bytes + e.sealed_in_bytes) as f64)
        }),
    );
    v.set(
        "dk_tee.seal_count_per_op",
        m.per_op(|c| c.enclave.map(|e| e.seal_count as f64)),
    );
    v.set(
        "dk_tee.paging_events_per_op",
        m.per_op(|c| c.enclave.map(|e| e.paging_events as f64)),
    );
    v.set(
        "dk_tee.peak_epc_bytes",
        m.after.enclave.map_or(0.0, |e| e.peak_bytes as f64),
    );
    v.set("dk_gpu.reconnects", m.after.reconnects.unwrap_or(0) as f64);
    let framed = |f: fn(&WorkerHealth) -> u64| m.health.iter().map(f).sum::<u64>() as f64;
    v.set(
        "dk_gpu.wire_bytes_per_op",
        framed(|h| h.bytes_framed) / m.ops(),
    );
    v.set("dk_gpu.wire_frames_per_op", framed(|h| h.frames) / m.ops());
}

/// C: `dk_obs`'s own spans, the same stages seen from inside. Its rings
/// keep the newest spans only, so the stage time of one operation is
/// the mean over the virtual batches still retained, times the virtual
/// batches an operation takes.
fn obs_metrics(m: &Measured, v: &mut Values) {
    let retained: BTreeSet<u64> = m.obs_spans.iter().map(|s| s.batch).collect();
    let batches_per_op = m
        .server_batches()
        .map_or(m.batches_per_input, |b| b / m.ops());
    for (stage, name) in [
        (Stage::Quantize, "dk_obs.stage_quantize_ms_per_op"),
        (Stage::Encode, "dk_obs.stage_encode_ms_per_op"),
        (Stage::Dispatch, "dk_obs.stage_dispatch_ms_per_op"),
        (Stage::Decode, "dk_obs.stage_decode_ms_per_op"),
        (Stage::Verify, "dk_obs.stage_verify_ms_per_op"),
        (Stage::Repair, "dk_obs.stage_repair_ms_per_op"),
    ] {
        let in_stage = m.obs_spans.iter().filter(|s| s.stage == stage);
        let total_ms = in_stage.map(|s| s.dur_ns).sum::<u64>() as f64 / 1e6;
        v.set(
            name,
            ratio(total_ms, retained.len() as f64) * batches_per_op,
        );
    }
    v.set(
        "dk_obs.overhead_x",
        ratio(
            median(&m.obs_on).unwrap_or(0.0),
            median(&m.obs_off).unwrap_or(0.0),
        ),
    );
}

/// `dk_serve`, from the responses and `ServerMetrics`.
fn serve_metrics(m: &Measured, v: &mut Values) {
    let column = |f: &dyn Fn(&ServeObs) -> f64| sorted(m.traced.serve.iter().map(f).collect());
    let q = |sorted: &[f64], q: f64| percentile_any(sorted, q).unwrap_or(0.0);
    let (wait, service) = (column(&|o| o.queue_wait_ms), column(&|o| o.service_ms));
    v.set("dk_serve.queue_wait_ms_p50", q(&wait, 0.5));
    v.set("dk_serve.queue_wait_ms_p99", q(&wait, 0.99));
    v.set("dk_serve.service_ms_p50", q(&service, 0.5));
    v.set("dk_serve.service_ms_p99", q(&service, 0.99));
    let route = column(&|o| o.total_ms - o.queue_wait_ms - o.service_ms);
    v.set("dk_serve.route_ms_p50", q(&route, 0.5));
    v.set("dk_serve.submit_us_p50", q(&column(&|o| o.submit_us), 0.5));
    v.set("dk_serve.latency_ms_p99", q(&m.traced.latencies(), 0.99));
    let late = column(&|o| o.late_ms);
    v.set("bench.gen_late_ms_p99", q(&late, 0.99));
    v.set("bench.gen_late_ms_max", late.last().copied().unwrap_or(0.0));
    if let (Some(a), Some(b)) = (&m.before.server, &m.after.server) {
        let (real, padded) = (b.real_rows - a.real_rows, b.padded_rows - a.padded_rows);
        v.set(
            "dk_serve.batch_fill_ratio",
            ratio(real as f64, (real + padded) as f64),
        );
        v.set(
            "dk_serve.padded_rows_share",
            ratio(padded as f64, (real + padded) as f64),
        );
        v.set(
            "dk_serve.batches_per_s",
            (b.batches - a.batches) as f64 / m.wall_s,
        );
        let shed = b.shed - a.shed;
        v.set(
            "dk_serve.shed_share",
            ratio(shed as f64, (b.submitted - a.submitted + shed) as f64),
        );
    }
    v.set("dk_serve.start_ms", m.after.server_start_ms.unwrap_or(0.0));
    v.set("dk_serve.shutdown_ms", m.fin.shutdown_ms.unwrap_or(0.0));
}

/// D: the paper's ratios, the measured phase shares, and the harness
/// about itself.
fn derived_metrics(m: &Measured, v: &mut Values, seconds: f64) {
    let (p50_traced, p50_untraced) = (p50(&m.traced), p50(&m.untraced));
    // The probes time one virtual batch. In the server its counterpart
    // is one batch's service time, not one request's latency.
    let (private_ms, op_ms, execute_ms) = match m.server_batches() {
        Some(batches) => {
            let service = v.get("dk_serve.service_ms_p50");
            (service, service, ratio(m.busy_ns() / 1e6, batches))
        }
        None => (p50_untraced, p50_traced, v.get("dk_gpu.execute_ms_per_op")),
    };
    for (name, base) in [
        (
            "dk_baselines.private_over_plain_x",
            "dk_baselines.plain_ms_per_op",
        ),
        (
            "dk_baselines.private_over_reference_x",
            "dk_baselines.reference_ms_per_op",
        ),
        (
            "dk_baselines.private_over_sgx_only_x",
            "dk_baselines.sgx_only_ms_per_op",
        ),
        (
            "dk_baselines.private_over_slalom_x",
            "dk_baselines.slalom_ms_per_op",
        ),
    ] {
        v.set(name, ratio(private_ms, v.get(base)));
    }
    v.set(
        "dk_core.lane_overlap_x",
        ratio(v.get("dk_core.sequential_ms_per_op"), p50_untraced),
    );

    let wire_ms = v.get("dk_gpu.wire_ms_per_op");
    v.set("phase.linear_share", ratio(execute_ms - wire_ms, op_ms));
    v.set("phase.comm_share", ratio(wire_ms, op_ms));
    v.set(
        "phase.nonlinear_share",
        ratio(v.get("dk_nn.nonlinear_ms_per_op"), op_ms),
    );
    let maskio = v.sum(&[
        "dk_field.quantize_ms_per_op",
        "dk_field.dequantize_ms_per_op",
        "dk_core.encode_ms_per_op",
        "dk_core.decode_ms_per_op",
        "dk_core.decode_backward_ms_per_op",
        "dk_core.spot_check_ms_per_op",
    ]);
    v.set("phase.maskio_share", ratio(maskio, op_ms));

    let quarters = split_segments(&m.traced.samples, seconds * TRACED_SHARE / 4.0, 4);
    let quarter_p50: Vec<f64> = quarters
        .iter()
        .filter_map(|q| percentile_any(&sorted(q.iter().map(|o| o.latency_ms).collect()), 0.5))
        .collect();
    v.set("bench.segment_spread_x", spread(&quarter_p50));
    v.set(
        "bench.latency_ms_p90",
        percentile_any(&m.traced.latencies(), 0.9).unwrap_or(0.0),
    );
    v.set("bench.ops", m.traced.attempted() as f64);
    v.set("bench.trace_overhead_x", ratio(p50_traced, p50_untraced));
}

/// Runs the traced pass of a workload.
pub(crate) fn run_traced(config: RunConfig, inputs: &Inputs) -> Result<RunResult, String> {
    let id = config.id;
    let mut tally = Tally::default();
    let mut instance = workloads::setup(id, inputs, true)?;
    tally.attempted += 1;
    tally.compared += 1;
    tally.window(&instance.run(secs(warmup_s(&config))));

    let measured = measure(config, inputs, instance.as_mut(), &mut tally);
    let probed = ProbeCtx::new(id, inputs, config.seed, config.smoke).run();
    // Whatever happened, stop what the instance started.
    let fin = instance.finish();
    tally.finish(&fin);
    let m = Measured { fin, ..measured? };

    let mut v = Values(probed?);
    backend_metrics(&m, &mut v);
    counter_metrics(&m, &mut v);
    obs_metrics(&m, &mut v);
    if id.is_serve() {
        serve_metrics(&m, &mut v);
    }
    derived_metrics(&m, &mut v, config.seconds);

    let trace_file = write_trace(id, &m.spans)?;
    let (p50_traced, tee_plus_execute) = (
        p50(&m.traced),
        v.sum(&["dk_core.tee_ms_per_op", "dk_gpu.execute_ms_per_op"]),
    );
    let detail = Json::obj([
        ("traced_window_s", Json::Num(m.wall_s)),
        ("traced_ops", Json::Num(m.traced.attempted() as f64)),
        ("traced_op_ms_p50", Json::Num(p50_traced)),
        ("untraced_op_ms_p50", Json::Num(p50(&m.untraced))),
        // Session workloads: the share of the traced op p50 that the
        // TEE's and the backend's self times account for together.
        (
            "tee_plus_execute_over_op_p50",
            if id.is_session() {
                Json::Num(ratio(tee_plus_execute, p50_traced))
            } else {
                Json::Null
            },
        ),
        ("spans", Json::Num(m.spans.len() as f64)),
        ("spans_dropped", Json::Num(m.dropped as f64)),
        ("dk_obs_spans", Json::Num(m.obs_spans.len() as f64)),
        (
            "quarantined",
            Json::Arr(
                m.after
                    .quarantined
                    .iter()
                    .map(|&w| Json::Num(w as f64))
                    .collect(),
            ),
        ),
        (
            "gen_late_flag",
            Json::Bool(v.get("bench.gen_late_ms_max") > GEN_LATE_FLAG_MS),
        ),
        ("trace_file", Json::str(trace_file)),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|spec| (spec, v.get(spec.name)))
        .collect();
    Ok(tally.into_result(config, metrics, detail))
}

fn write_trace(id: WorkloadId, spans: &[Span]) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", id.name()));
    std::fs::write(&path, trace::export_chrome(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
