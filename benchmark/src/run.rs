//! One run of one workload: the end-to-end run (tracing off) or the
//! traced run (per-layer metrics). End-to-end numbers are never taken
//! from a traced run.

use crate::json::Json;
use crate::metrics::{MetricSpec, END_TO_END};
use crate::stats::{latency, median, split_segments, spread, throughput, Estimate};
use crate::workloads::{self, Finish, Inputs, Window, WorkloadId};
use std::time::{Duration, Instant};

/// Segments a measured window is cut into (one, below [`MIN_SEGMENTED_S`]).
pub const SEGMENTS: usize = 6;
/// Windows shorter than this are one segment (`--smoke`).
pub const MIN_SEGMENTED_S: f64 = 6.0;
/// Times the workload is set up in an end-to-end run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 15;
/// Warm-up before any measured window, in seconds.
pub const WARMUP_S: f64 = 1.0;
/// An open-loop run whose sender was ever later than this is flagged.
pub const GEN_LATE_FLAG_MS: f64 = 10.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub id: WorkloadId,
    /// Seed of the inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or end-to-end run.
    pub traced: bool,
    /// Short windows, few probe repetitions, one set-up.
    pub smoke: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration it ran with.
    pub config: RunConfig,
    /// Every check held and no operation failed.
    pub correct: bool,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Errors + sheds + oracle mismatches.
    pub failed: u64,
    /// Outputs compared with the oracle.
    pub compared: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Raw material for the result file: segment values, counts, flags.
    pub detail: Json,
    /// Why `correct` is false, if a named condition failed.
    pub error: Option<String>,
}

impl RunResult {
    /// `{name: {value, unit}}`, in catalogue order.
    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|(spec, value)| {
            let entry = [("value", Json::Num(*value)), ("unit", Json::str(spec.unit))];
            (spec.name, Json::obj(entry))
        }))
    }

    /// The line the driver reads: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The run as it is stored in a result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.config.id.name())),
            ("traced", Json::Bool(self.config.traced)),
            ("seed", Json::Num(self.config.seed as f64)),
            ("seconds", Json::Num(self.config.seconds)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("outputs_compared", Json::Num(self.compared as f64)),
            ("error", self.error.as_ref().map_or(Json::Null, Json::str)),
            ("metrics", self.metrics_json()),
            ("detail", self.detail.clone()),
        ])
    }
}

pub(crate) fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn estimate_json(e: &Estimate) -> Json {
    Json::obj([
        ("value", Json::Num(e.value)),
        ("segments", Json::nums(&e.segments)),
        ("median", Json::Num(e.median)),
        ("spread", Json::Num(spread(&e.segments))),
        ("count", Json::Num(e.count as f64)),
    ])
}

/// Tallies of everything that ran, across warm-up and windows.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) compared: u64,
    errors: Vec<String>,
}

impl Tally {
    pub(crate) fn window(&mut self, w: &Window) {
        self.attempted += w.attempted();
        self.failed += w.failed;
        self.compared += w.compared;
    }

    pub(crate) fn finish(&mut self, f: &Finish) {
        self.compared += f.compared;
        self.failed += f.mismatches;
        self.errors.extend(f.error.clone());
    }

    /// The run's result: correct when nothing failed and every
    /// workload-specific condition held.
    pub(crate) fn into_result(
        self,
        config: RunConfig,
        metrics: Vec<(&'static MetricSpec, f64)>,
        detail: Json,
    ) -> RunResult {
        RunResult {
            config,
            correct: self.failed == 0 && self.errors.is_empty() && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            compared: self.compared,
            metrics,
            detail,
            error: self.errors.into_iter().next(),
        }
    }
}

/// Runs the workload as configured.
pub fn run(config: RunConfig) -> Result<RunResult, String> {
    // The parallelism under test is the protocol's (lanes, dispatcher,
    // pool), not kernel fan-out.
    dk_linalg::set_max_threads(1);
    dk_obs::disable();
    let inputs = Inputs::generate(config.id, config.seed, config.seconds)?;
    if config.traced {
        crate::traced::run_traced(config, &inputs)
    } else {
        run_end_to_end(config, &inputs)
    }
}

pub(crate) fn warmup_s(config: &RunConfig) -> f64 {
    if config.smoke {
        0.3
    } else {
        WARMUP_S
    }
}

fn run_end_to_end(config: RunConfig, inputs: &Inputs) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let reps = if config.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut instance: Option<Box<dyn workloads::Instance + '_>> = None;
    for _ in 0..reps {
        if let Some(previous) = instance.take() {
            tally.finish(&previous.finish());
        }
        let t0 = Instant::now();
        instance = Some(workloads::setup(config.id, inputs, false)?);
        setups.push(t0.elapsed().as_secs_f64());
        // The first verified operation of every set-up.
        tally.attempted += 1;
        tally.compared += 1;
    }
    let mut instance = instance.expect("at least one set-up");
    tally.window(&instance.run(secs(warmup_s(&config))));

    let segments = if config.seconds >= MIN_SEGMENTED_S {
        SEGMENTS
    } else {
        1
    };
    let seg_s = config.seconds / segments as f64;
    let window = instance.run(secs(config.seconds));
    tally.window(&window);
    tally.finish(&instance.finish());

    let per_segment = split_segments(&window.samples, seg_s, segments);
    let too_few = || {
        format!(
            "{}: too few operations for the estimators",
            config.id.name()
        )
    };
    let tput = throughput(&window.samples, seg_s, segments).ok_or_else(too_few)?;
    let p50 = latency(&per_segment, 0.5).ok_or_else(too_few)?;
    // `None` where a segment holds too few operations for it.
    let p90 = latency(&per_segment, 0.9);
    let gen_late_ms_max = window.serve.iter().map(|o| o.late_ms).fold(0.0, f64::max);
    let setup_s = median(&setups).expect("at least one set-up");

    let values = [setup_s, tput.value, p50.value];
    let metrics = END_TO_END.iter().zip(values).collect();
    let detail = Json::obj([
        ("segments", Json::Num(segments as f64)),
        ("segment_s", Json::Num(seg_s)),
        ("setup_s_raw", Json::nums(&setups)),
        ("throughput_sps", estimate_json(&tput)),
        ("latency_ms_p50", estimate_json(&p50)),
        (
            "latency_ms_p90",
            p90.as_ref().map_or(Json::Null, estimate_json),
        ),
        ("window_ops", Json::Num(window.attempted() as f64)),
        // How late the open-loop sender ever ran (0 where there is none).
        ("gen_late_ms_max", Json::Num(gen_late_ms_max)),
        (
            "gen_late_flag",
            Json::Bool(gen_late_ms_max > GEN_LATE_FLAG_MS),
        ),
    ]);
    Ok(tally.into_result(config, metrics, detail))
}

/// Where result and trace files go: `benchmark/out/` from the
/// repository root, `out/` from inside the package.
pub fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}
