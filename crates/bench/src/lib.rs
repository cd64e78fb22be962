//! Shared harness utilities for the `dk_bench` and `dk_soak` binaries.
//!
//! The one experiment that cannot come from the analytical model is the
//! paper's **Figure 4** (training accuracy, raw vs DarKnight): it needs
//! real training. [`fig4`] runs it on the trainable mini models against
//! a synthetic dataset standing in for CIFAR-10/ImageNet and reports
//! the per-epoch accuracy of both modes side by side.
//!
//! [`lanes_training`] / [`lanes_inference`] time the §7.1 overlap: the
//! same engine over the same fleet with one virtual batch in flight,
//! then with [`EngineOptions::default`] lanes.
//! [`PairedRatio`] is the noise rule `dk_bench`'s pipelining gates
//! judge those by: a median over interleaved pairs, and no verdict at
//! all on a miss when the pairs disagree by more than the margin
//! policed.

use dk_core::engine::{EngineOptions, PipelineEngine};
use dk_core::{session::DarknightSession, DarknightConfig};
use dk_gpu::GpuCluster;
use dk_linalg::Tensor;
use dk_nn::data::Dataset;
use dk_nn::model::Sequential;
use dk_nn::optim::Sgd;
use dk_nn::train;
use std::time::{Duration, Instant};

/// Wall-clock of one workload at one lane and at the default lane count.
#[derive(Debug, Clone, Copy)]
pub struct PipelineReport {
    /// One-lane wall time.
    pub sequential: Duration,
    /// Default-lane wall time.
    pub pipelined: Duration,
    /// Virtual batches executed per mode.
    pub batches: usize,
}

impl PipelineReport {
    /// Speedup of the default lane count over one lane.
    pub fn speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.pipelined.as_secs_f64().max(1e-12)
    }
}

/// Runs `run` on an engine with one lane, then with the default lane
/// count. Each lane runs its rounds inline on its own replica of the
/// fleet, so the pair differs only in how many virtual batches are in
/// flight; with modeled latency a round waits about one job time either
/// way. The one-lane time lands in the report's `sequential` field.
fn one_lane_vs_default<T>(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    batches: usize,
    mut run: impl FnMut(&mut PipelineEngine) -> T,
) -> (PipelineReport, [T; 2]) {
    let mut timed = |opts: EngineOptions| {
        let mut engine = PipelineEngine::new(cfg, fleet.fork(cfg.seed()), opts)
            .expect("fleet sized by the configuration");
        let t0 = Instant::now();
        let out = run(&mut engine);
        (t0.elapsed(), out)
    };
    let (sequential, one) = timed(EngineOptions::default().with_lanes(1));
    let (pipelined, many) = timed(EngineOptions::default());
    (PipelineReport { sequential, pipelined, batches }, [one, many])
}

/// `epochs` Algorithm 2 large-batch steps at one lane vs the default
/// lane count: the wall-clock report plus the final max parameter
/// difference (which must be 0.0: lane count never changes a bit).
///
/// # Panics
///
/// Panics if private execution fails (the fleets here are honest).
pub fn lanes_training(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    model: &Sequential,
    x: &Tensor<f32>,
    labels: &[usize],
    epochs: usize,
    lr: f32,
) -> (PipelineReport, f32) {
    let batches = (x.shape()[0] / cfg.k()) * epochs;
    let (report, [mut one, mut many]) = one_lane_vs_default(cfg, fleet, batches, |engine| {
        let mut m = model.clone();
        let mut sgd = Sgd::new(lr);
        for _ in 0..epochs {
            engine.train_large_batch(&mut m, x, labels, &mut sgd, 4096).expect("private training");
        }
        m
    });
    (report, one.max_param_diff(&many.snapshot_params()))
}

/// A stream of inference virtual batches at one lane vs the default
/// lane count: the wall-clock report plus the max absolute output
/// difference (must be 0.0).
///
/// # Panics
///
/// Panics if private execution fails (the fleets here are honest).
pub fn lanes_inference(
    cfg: DarknightConfig,
    fleet: &GpuCluster,
    model: &Sequential,
    inputs: &[Tensor<f32>],
) -> (PipelineReport, f32) {
    let (report, [one, many]) = one_lane_vs_default(cfg, fleet, inputs.len(), |engine| {
        let outcomes = engine.infer_batches(model, inputs, false).expect("private inference");
        outcomes.into_iter().map(|o| o.output.expect("honest fleet")).collect::<Vec<_>>()
    });
    let diff = one.iter().zip(&many).map(|(a, b)| a.max_abs_diff(b)).fold(0.0, f32::max);
    (report, diff)
}

/// What a gate may conclude from a set of paired ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// The median meets the floor, or misses it by no more than the
    /// margin.
    Ok,
    /// The median misses the floor by more than the margin, and the
    /// pairs agree to within it.
    Regressed,
    /// The median misses the floor, but the pairs disagree among
    /// themselves by more than the margin: the runs cannot tell.
    Unresolved,
}

/// Median and quartiles of the per-pair ratios of an interleaved A/B
/// timing (here: sequential time over pipelined time, pair by pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedRatio {
    /// Pairs measured.
    pub pairs: usize,
    /// Lower quartile.
    pub q1: f64,
    /// Median: the value a gate judges.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

impl PairedRatio {
    /// Quartiles by the exclusive method (what Python's
    /// `statistics.quantiles(v, n=4)` and `dk_benchmark compare` use).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two ratios.
    pub fn of(ratios: &[f64]) -> Self {
        let mut s = ratios.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        assert!(n >= 2, "a paired ratio needs at least two pairs");
        let q = |k: usize| {
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
        };
        Self { pairs: n, q1: q(1), median: q(2), q3: q(3) }
    }

    /// Judges `median >= floor` to within `margin` (a share, e.g. `0.10`),
    /// by the rule `dk_benchmark compare` applies to a bounded metric: a
    /// set of pairs whose quartile spread (over their median) is wider
    /// than the margin can neither pass nor fail a miss; otherwise a
    /// miss counts once it exceeds the margin.
    pub fn verdict(&self, floor: f64, margin: f64) -> GateVerdict {
        if self.median >= floor {
            GateVerdict::Ok
        } else if (self.q3 - self.q1) / self.median > margin {
            GateVerdict::Unresolved
        } else if self.median < floor * (1.0 - margin) {
            GateVerdict::Regressed
        } else {
            GateVerdict::Ok
        }
    }
}

/// Accuracy trajectories of one model under both training modes.
#[derive(Debug, Clone)]
pub struct Fig4Curve {
    /// Model name.
    pub model: String,
    /// Eval accuracy per epoch, plaintext float training ("Raw Data").
    pub raw: Vec<f32>,
    /// Eval accuracy per epoch, DarKnight masked training.
    pub darknight: Vec<f32>,
}

impl Fig4Curve {
    /// Final-epoch accuracy gap `raw − darknight` (the paper reports
    /// < 0.01 degradation).
    pub fn final_gap(&self) -> f32 {
        self.raw.last().copied().unwrap_or(0.0) - self.darknight.last().copied().unwrap_or(0.0)
    }
}

/// Experiment scale knobs for [`fig4`].
#[derive(Debug, Clone, Copy)]
pub struct Fig4Config {
    /// Image side (models are built for `3×hw×hw`).
    pub hw: usize,
    /// Classes in the synthetic task.
    pub classes: usize,
    /// Samples per class.
    pub per_class: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self { hw: 8, classes: 8, per_class: 30, epochs: 8, lr: 0.002, seed: 2024 }
    }
}

/// Trains one model both ways and returns the two accuracy curves.
///
/// # Panics
///
/// Panics if the private executor fails (honest workers never trigger
/// integrity errors; quantization is bounded by construction).
pub fn fig4_one(
    name: &str,
    build: impl Fn(u64) -> Sequential,
    cfg: Fig4Config,
) -> Fig4Curve {
    let data = Dataset::synthetic(cfg.classes, cfg.per_class, (3, cfg.hw, cfg.hw), 0.5, cfg.seed);
    let (train_set, eval_set) = data.split(0.8);

    // Raw float training.
    let mut raw_model = build(cfg.seed ^ 0xF10A);
    let mut sgd = Sgd::new(cfg.lr);
    let report = train::train(&mut raw_model, &train_set, Some(&eval_set), cfg.epochs, 2, &mut sgd);
    let raw = report.epoch_eval_acc.clone();

    // DarKnight masked training (virtual batch K=2, M=1).
    let dk_cfg = DarknightConfig::new(2, 1).with_seed(cfg.seed);
    let cluster = GpuCluster::honest(dk_cfg.workers_required(), cfg.seed ^ 0x6A);
    let mut session = DarknightSession::new(dk_cfg, cluster).expect("cluster sized by config");
    let mut dk_model = build(cfg.seed ^ 0xF10A); // identical initialization
    let mut sgd = Sgd::new(cfg.lr);
    let mut darknight = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for (x, labels) in train_set.batches(2) {
            session
                .train_step(&mut dk_model, &x, labels, &mut sgd)
                .expect("honest cluster: private step cannot fail");
        }
        darknight.push(train::evaluate(&mut dk_model, &eval_set, 2));
    }

    Fig4Curve { model: name.to_string(), raw, darknight }
}

/// Runs Figure 4 for the three mini models.
pub fn fig4(cfg: Fig4Config) -> Vec<Fig4Curve> {
    vec![
        fig4_one("MiniVGG", |s| dk_nn::arch::mini_vgg(cfg.hw, cfg.classes, s), cfg),
        fig4_one("MiniResNet", |s| dk_nn::arch::mini_resnet(cfg.hw, cfg.classes, s), cfg),
        fig4_one("MiniMobileNet", |s| dk_nn::arch::mini_mobilenet(cfg.hw, cfg.classes, s), cfg),
    ]
}

/// Renders Figure 4 curves as text.
pub fn render_fig4(curves: &[Fig4Curve]) -> String {
    let mut s = String::from(
        "Fig. 4: training accuracy, raw float vs DarKnight masked training\n\
         (mini models on the synthetic dataset; paper reports <0.01 final gap)\n\n",
    );
    for c in curves {
        s.push_str(&format!("{}\n  epoch:     ", c.model));
        for e in 0..c.raw.len() {
            s.push_str(&format!("{:>6}", e + 1));
        }
        s.push_str("\n  raw:       ");
        for v in &c.raw {
            s.push_str(&format!("{v:>6.2}"));
        }
        s.push_str("\n  darknight: ");
        for v in &c.darknight {
            s.push_str(&format!("{v:>6.2}"));
        }
        s.push_str(&format!("\n  final gap: {:+.3}\n\n", c.final_gap()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_ratio_quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let r = PairedRatio::of(&[3.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!((r.pairs, r.q1, r.median, r.q3), (5, 1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let r = PairedRatio::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((r.q1, r.median, r.q3), (1.25, 2.5, 3.75));
    }

    #[test]
    fn a_miss_the_pairs_cannot_resolve_is_unresolved_not_regressed() {
        let v = |ratios: &[f64]| PairedRatio::of(ratios).verdict(1.0, 0.10);
        // Tight pairs well below the floor: a regression.
        assert_eq!(v(&[0.84, 0.85, 0.85, 0.86, 0.85]), GateVerdict::Regressed);
        // Tight pairs inside the margin: not one.
        assert_eq!(v(&[0.92, 0.93, 0.94, 0.93, 0.95]), GateVerdict::Ok);
        // The same low median from pairs that disagree by more than the
        // margin says nothing either way...
        assert_eq!(v(&[0.70, 1.20, 0.84, 1.10, 0.80]), GateVerdict::Unresolved);
        // ...but a median over the floor passes however noisy.
        assert_eq!(v(&[0.84, 1.20, 1.05, 1.10, 1.30]), GateVerdict::Ok);
    }

    #[test]
    fn fig4_small_run_parity() {
        // A very small configuration to keep the test fast; the full
        // run lives in the report binary.
        let cfg = Fig4Config { per_class: 16, epochs: 6, classes: 4, ..Default::default() };
        let curve = fig4_one("MiniVGG", |s| dk_nn::arch::mini_vgg(cfg.hw, cfg.classes, s), cfg);
        assert_eq!(curve.raw.len(), cfg.epochs);
        assert_eq!(curve.darknight.len(), cfg.epochs);
        // Both modes must actually learn…
        assert!(curve.raw.last().unwrap() > &0.5, "raw failed to learn: {:?}", curve.raw);
        assert!(
            curve.darknight.last().unwrap() > &0.5,
            "darknight failed to learn: {:?}",
            curve.darknight
        );
        // …and land close to each other (quantized masked training).
        assert!(curve.final_gap().abs() < 0.25, "gap {:?}", curve.final_gap());
    }
}
