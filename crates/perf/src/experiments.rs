//! One generator per paper table/figure.
//!
//! Each function returns plain data; [`crate::report`] renders it in the
//! same rows/series the paper prints. Figure 4 (training accuracy) is
//! the one experiment that needs *real* execution rather than the cost
//! model — it lives in the `dk-bench` report binary, which has access to
//! the full stack.

use crate::cost::{
    aggregation_time, darknight_inference, darknight_training, gpu_plain_training, sgx_inference,
    sgx_multithread_latency, sgx_training, slalom_inference,
};
use crate::device::DeviceProfile;
use dk_nn::arch::{mobilenet_v1, mobilenet_v2, resnet50, vgg16, SpecKind};

/// Table 1: per-op GPU-vs-SGX speedups for VGG16 training.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// `(operation, forward speedup, backward speedup)`.
    pub rows: Vec<(String, f64, f64)>,
}

/// Table 1 generator. The per-op rows reproduce the calibration inputs;
/// the `Total` row is a model *output* (op-count-weighted composition)
/// that should land near the paper's 119.03 / 124.56.
pub fn table1(p: &DeviceProfile) -> Table1 {
    let spec = vgg16();
    let linear_fwd = spec.total_fwd_macs() as f64;
    let linear_bwd = spec.total_bwd_macs() as f64;
    let relu = spec.nonlinear_elems(Some(SpecKind::Relu)) as f64;
    let pool = spec.nonlinear_elems(Some(SpecKind::MaxPool)) as f64;

    let sgx_fwd = linear_fwd / (p.sgx_linear_fwd * 1e9)
        + relu / (p.sgx_relu_fwd * 1e9)
        + pool / (p.sgx_pool_fwd * 1e9);
    let gpu_fwd = linear_fwd / (p.gpu_linear_fwd * 1e9)
        + relu / (p.gpu_relu_fwd * 1e9)
        + pool / (p.gpu_pool_fwd * 1e9);
    let sgx_bwd = linear_bwd / (p.sgx_linear_bwd * 1e9)
        + relu / (p.sgx_relu_bwd * 1e9)
        + pool / (p.sgx_pool_bwd * 1e9);
    let gpu_bwd = linear_bwd / (p.gpu_linear_bwd * 1e9)
        + relu / (p.gpu_relu_bwd * 1e9)
        + pool / (p.gpu_pool_bwd * 1e9);

    Table1 {
        rows: vec![
            (
                "Linear Ops".to_string(),
                p.gpu_linear_fwd / p.sgx_linear_fwd,
                p.gpu_linear_bwd / p.sgx_linear_bwd,
            ),
            (
                "Maxpool Time".to_string(),
                p.gpu_pool_fwd / p.sgx_pool_fwd,
                p.gpu_pool_bwd / p.sgx_pool_bwd,
            ),
            (
                "Relu Time".to_string(),
                p.gpu_relu_fwd / p.sgx_relu_fwd,
                p.gpu_relu_bwd / p.sgx_relu_bwd,
            ),
            ("Total".to_string(), sgx_fwd / gpu_fwd, sgx_bwd / gpu_bwd),
        ],
    }
}

/// One row of Table 2's qualitative capability matrix.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Scheme name.
    pub method: &'static str,
    /// Capability flags, in the paper's column order: training,
    /// inference, DP, MPC, HE, TEE, data privacy, model privacy
    /// (client), model privacy (server), integrity, GPU acceleration,
    /// large DNNs.
    pub flags: [bool; 12],
}

/// Table 2: the paper's comparison matrix, encoded as data.
pub fn table2() -> Vec<Table2Row> {
    let r = |method, flags| Table2Row { method, flags };
    vec![
        r("SecureNN", [true, true, false, true, false, false, true, true, true, false, true, false]),
        r("Chiron", [true, true, false, false, false, true, true, true, true, true, false, false]),
        r("MSP", [true, true, false, false, false, true, true, true, true, true, false, false]),
        r("Gazelle", [false, true, false, false, true, false, true, false, false, false, true, true]),
        r("MiniONN", [false, true, false, true, true, false, true, true, false, false, true, true]),
        r("CryptoNets", [false, true, false, true, true, false, true, true, false, false, true, true]),
        r("Slalom", [false, true, false, false, false, true, true, true, false, true, true, true]),
        r("Origami", [false, true, false, false, false, true, true, false, false, false, true, true]),
        r("Occlumency", [false, true, false, false, false, true, true, true, true, true, false, true]),
        r("Delphi", [false, true, false, true, true, false, true, true, false, false, true, true]),
        r("DarKnight", [true, true, false, true, false, true, true, true, false, true, true, true]),
    ]
}

/// One model's Table 3 entry: phase fractions for DarKnight and the
/// SGX-only baseline.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Model name.
    pub model: String,
    /// DarKnight fractions `(linear, nonlinear, enc/dec, comm)`.
    pub darknight: (f64, f64, f64, f64),
    /// Baseline fractions (same order; enc/dec and comm are zero).
    pub baseline: (f64, f64, f64, f64),
}

/// Table 3: training-time breakdowns (K=2, M=1, 3 GPUs — §7.1 setup).
pub fn table3(p: &DeviceProfile) -> Vec<Table3Row> {
    [vgg16(), resnet50(), mobilenet_v2()]
        .into_iter()
        .map(|spec| Table3Row {
            model: spec.name.clone(),
            darknight: darknight_training(&spec, p, 2, 1, false).fractions(),
            baseline: sgx_training(&spec, p).fractions(),
        })
        .collect()
}

/// One row of Table 4: unprotected 3-GPU training speedups.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Model name.
    pub model: String,
    /// Speedup of non-private 3-GPU training over DarKnight (3 GPUs).
    pub over_darknight: f64,
    /// Speedup of non-private 3-GPU training over SGX-only.
    pub over_sgx: f64,
}

/// Table 4 generator.
pub fn table4(p: &DeviceProfile) -> Vec<Table4Row> {
    [vgg16(), resnet50(), mobilenet_v2()]
        .into_iter()
        .map(|spec| {
            let plain = gpu_plain_training(&spec, p, 3).total_serial();
            let dk = darknight_training(&spec, p, 2, 1, false).total_serial();
            let sgx = sgx_training(&spec, p).total_serial();
            Table4Row { model: spec.name.clone(), over_darknight: dk / plain, over_sgx: sgx / plain }
        })
        .collect()
}

/// Fig. 3 series for one model: aggregation speedup vs `K`.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    /// Model name.
    pub model: String,
    /// `(K, speedup relative to K=1)` for K = 2..=5.
    pub points: Vec<(usize, f64)>,
}

/// Fig. 3 generator (batch 128, M=1, as in the paper).
pub fn fig3(p: &DeviceProfile) -> Vec<Fig3Series> {
    [vgg16(), resnet50(), mobilenet_v2()]
        .into_iter()
        .map(|spec| {
            let t1 = aggregation_time(&spec, p, 1, 1, 128);
            let points = (2..=5)
                .map(|k| (k, t1 / aggregation_time(&spec, p, k, 1, 128)))
                .collect();
            Fig3Series { model: spec.name.clone(), points }
        })
        .collect()
}

/// Fig. 5 entry for one model.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Model name.
    pub model: String,
    /// Total training speedup over SGX, non-pipelined.
    pub total_nonpipelined: f64,
    /// Total training speedup over SGX, pipelined.
    pub total_pipelined: f64,
    /// Linear-op-path speedup (linear+mask+comm vs baseline linear),
    /// non-pipelined.
    pub linear_nonpipelined: f64,
    /// Same, pipelined.
    pub linear_pipelined: f64,
}

/// Fig. 5 generator (K=2, M=1, 3 GPUs).
pub fn fig5(p: &DeviceProfile) -> Vec<Fig5Row> {
    [vgg16(), resnet50(), mobilenet_v2()]
        .into_iter()
        .map(|spec| {
            let sgx = sgx_training(&spec, p);
            let dk = darknight_training(&spec, p, 2, 1, false);
            let lin_base = sgx.linear;
            let lin_np = dk.linear + dk.maskio + dk.comm;
            let lin_pl = dk.linear.max(dk.maskio + dk.comm);
            Fig5Row {
                model: spec.name.clone(),
                total_nonpipelined: sgx.total_serial() / dk.total_serial(),
                total_pipelined: sgx.total_serial() / dk.total_pipelined(),
                linear_nonpipelined: lin_base / lin_np,
                linear_pipelined: lin_base / lin_pl,
            }
        })
        .collect()
}

/// Fig. 6a entry: inference speedups over the SGX baseline.
#[derive(Debug, Clone)]
pub struct Fig6aRow {
    /// Model name.
    pub model: String,
    /// Slalom (no integrity).
    pub slalom: f64,
    /// DarKnight with virtual batch 4, no integrity.
    pub darknight4: f64,
    /// Slalom with Freivalds integrity.
    pub slalom_integrity: f64,
    /// DarKnight with virtual batch 3 plus the redundant equation.
    pub darknight3_integrity: f64,
}

/// Fig. 6a generator (VGG16 and MobileNetV1, as in the paper).
pub fn fig6a(p: &DeviceProfile) -> Vec<Fig6aRow> {
    [vgg16(), mobilenet_v1()]
        .into_iter()
        .map(|spec| {
            let sgx = sgx_inference(&spec, p).total_serial();
            Fig6aRow {
                model: spec.name.clone(),
                slalom: sgx / slalom_inference(&spec, p, false).total_serial(),
                darknight4: sgx / darknight_inference(&spec, p, 4, 1, false).total_serial(),
                slalom_integrity: sgx / slalom_inference(&spec, p, true).total_serial(),
                darknight3_integrity: sgx
                    / darknight_inference(&spec, p, 3, 1, true).total_serial(),
            }
        })
        .collect()
}

/// Fig. 6b: per-phase inference speedups vs DarKnight(1) for VGG16.
#[derive(Debug, Clone)]
pub struct Fig6b {
    /// Virtual batch sizes evaluated.
    pub ks: Vec<usize>,
    /// `(category, speedups per K relative to K=1)`.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// Fig. 6b generator.
pub fn fig6b(p: &DeviceProfile) -> Fig6b {
    let spec = vgg16();
    let ks = vec![1usize, 2, 4, 6];
    let detail = |k: usize| -> (f64, f64, f64, f64, f64) {
        let b = darknight_inference(&spec, p, k, 1, false);
        // Split maskio into blinding (input-sized share) and unblinding
        // (output-sized share) using the same proportions as the model.
        let kf = k as f64;
        let s = (k + 1) as f64;
        let mut enc = 0.0;
        let mut dec = 0.0;
        for l in &spec.layers {
            if l.fwd_macs == 0 {
                continue;
            }
            enc += s * l.in_elems as f64;
            dec += (s + kf) * l.out_elems as f64;
        }
        let enc_frac = enc / (enc + dec);
        let relu = spec.nonlinear_elems(Some(SpecKind::Relu)) as f64
            / (p.sgx_relu_fwd * 1e9)
            / p.sgx_light_relief;
        let pool = spec.nonlinear_elems(Some(SpecKind::MaxPool)) as f64
            / (p.sgx_pool_fwd * 1e9)
            / p.sgx_light_relief;
        (b.maskio * enc_frac, b.maskio * (1.0 - enc_frac), relu, pool, b.total_serial())
    };
    let base = detail(1);
    let series_for = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| -> Vec<f64> {
        ks.iter().map(|&k| f(&base) / f(&detail(k)).max(1e-30)).collect()
    };
    Fig6b {
        ks: ks.clone(),
        series: vec![
            ("Blinding", series_for(|d| d.0)),
            ("Unblinding", series_for(|d| d.1)),
            ("Relu", series_for(|d| d.2)),
            ("Maxpooling", series_for(|d| d.3)),
            ("Total", series_for(|d| d.4)),
        ],
    }
}

/// Fig. 7: SGX baseline training latency vs thread count (relative to
/// one thread).
pub fn fig7(p: &DeviceProfile) -> Vec<(usize, f64)> {
    let spec = vgg16();
    let base = sgx_multithread_latency(&spec, p, 1);
    (1..=4).map(|t| (t, sgx_multithread_latency(&spec, p, t) / base)).collect()
}

/// Headline summary: average training and inference speedups across the
/// evaluated models (the paper's "6.5× training / 12.5× inference").
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Mean non-pipelined training speedup over SGX.
    pub avg_training_speedup: f64,
    /// Mean DarKnight(4) inference speedup over SGX.
    pub avg_inference_speedup: f64,
}

/// Summary generator.
pub fn summary(p: &DeviceProfile) -> Summary {
    let train: Vec<f64> = fig5(p).iter().map(|r| r.total_nonpipelined).collect();
    let inf: Vec<f64> = [vgg16(), resnet50(), mobilenet_v1(), mobilenet_v2()]
        .into_iter()
        .map(|spec| {
            sgx_inference(&spec, p).total_serial()
                / darknight_inference(&spec, p, 4, 1, false).total_serial()
        })
        .collect();
    Summary {
        avg_training_speedup: train.iter().sum::<f64>() / train.len() as f64,
        avg_inference_speedup: inf.iter().sum::<f64>() / inf.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DeviceProfile {
        DeviceProfile::calibrated()
    }

    #[test]
    fn table1_totals_near_paper() {
        let t = table1(&p());
        let total = &t.rows[3];
        // Paper: fwd 119.03, bwd 124.56. Same order of magnitude and
        // direction; composition should land within ~25%.
        assert!((total.1 - 119.0).abs() / 119.0 < 0.25, "fwd total {}", total.1);
        assert!((total.2 - 124.6).abs() / 124.6 < 0.35, "bwd total {}", total.2);
    }

    #[test]
    fn table2_darknight_row_matches_paper() {
        let t = table2();
        let dk = t.iter().find(|r| r.method == "DarKnight").unwrap();
        // Training, inference, MPC-like coding, TEE, data privacy,
        // client model privacy, integrity, GPU, large DNNs.
        assert_eq!(
            dk.flags,
            [true, true, false, true, false, true, true, true, false, true, true, true]
        );
        // Slalom: inference-only.
        let sl = t.iter().find(|r| r.method == "Slalom").unwrap();
        assert!(!sl.flags[0] && sl.flags[1]);
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn table3_shapes_match_paper() {
        for row in table3(&p()) {
            let (b_lin, ..) = row.baseline;
            let (d_lin, d_nl, d_mask, d_comm) = row.darknight;
            // Baseline is linear-dominated for VGG16 (paper: 84%);
            // BN-heavy models keep a larger non-linear share in our
            // Table-1-consistent calibration than the paper reports
            // (deviation recorded in EXPERIMENTS.md).
            if row.model == "VGG16" {
                assert!(b_lin > 0.5, "{}: baseline linear {b_lin}", row.model);
            }
            assert!(b_lin > d_lin, "{}: offload must shrink the linear share", row.model);
            assert!(d_lin < 0.2, "{}: darknight linear {d_lin}", row.model);
            // VGG16 lands near 0.31 under our Table-1-consistent
            // calibration (paper: 0.50); BN-heavy models exceed 0.5.
            assert!(d_nl > 0.25, "{}: darknight nonlinear {d_nl}", row.model);
            assert!(d_mask + d_comm > 0.05, "{}: overheads missing", row.model);
        }
    }

    #[test]
    fn table4_ordering_matches_paper() {
        let rows = table4(&p());
        for r in &rows {
            assert!(r.over_darknight > 5.0, "{}: {}", r.model, r.over_darknight);
            assert!(r.over_sgx > r.over_darknight, "{}", r.model);
        }
        // Paper: MobileNetV2 has the smallest SGX gap (80× vs 273/217).
        let sgx: Vec<f64> = rows.iter().map(|r| r.over_sgx).collect();
        assert!(sgx[2] < sgx[0] && sgx[2] < sgx[1], "{sgx:?}");
    }

    #[test]
    fn fig3_peaks_at_k4() {
        for series in fig3(&p()) {
            let s: std::collections::HashMap<usize, f64> = series.points.iter().copied().collect();
            assert!(s[&4] > s[&2], "{}: K=4 should beat K=2", series.model);
            assert!(s[&4] > 1.5 && s[&4] < 5.0, "{}: magnitude {}", series.model, s[&4]);
            // The K=5 EPC degradation only emerges for VGG16, whose
            // masking working set genuinely crosses the 93 MB EPC at
            // K=5. ResNet50/MobileNetV2 activations are far smaller, so
            // a faithful memory model cannot reproduce the paper's drop
            // there (recorded as a deviation in EXPERIMENTS.md).
            if series.model == "VGG16" {
                assert!(s[&4] > s[&5], "{}: K=5 should degrade (EPC)", series.model);
            }
        }
    }

    #[test]
    fn fig5_ordering_matches_paper() {
        let rows = fig5(&p());
        let by_name: std::collections::HashMap<&str, &Fig5Row> =
            rows.iter().map(|r| (r.model.as_str(), r)).collect();
        let vgg = by_name["VGG16"];
        let rn = by_name["ResNet50"];
        let mb = by_name["MobileNetV2"];
        // Paper: VGG16 ~8x, ResNet50 ~4.2x, MobileNetV2 ~2.2x (ordering
        // is the load-bearing claim).
        assert!(vgg.total_nonpipelined > rn.total_nonpipelined);
        assert!(rn.total_nonpipelined > mb.total_nonpipelined);
        assert!(vgg.total_nonpipelined > 4.0 && vgg.total_nonpipelined < 20.0);
        assert!(mb.total_nonpipelined > 1.2 && mb.total_nonpipelined < 5.0);
        // Pipelining helps everywhere.
        for r in &rows {
            assert!(r.total_pipelined >= r.total_nonpipelined);
            assert!(r.linear_pipelined > r.linear_nonpipelined);
        }
        // Paper: linear-op speedup ~23x non-pipelined for VGG16.
        assert!(vgg.linear_nonpipelined > 10.0 && vgg.linear_nonpipelined < 60.0,
            "linear np {}", vgg.linear_nonpipelined);
    }

    #[test]
    fn fig6a_ordering_matches_paper() {
        let rows = fig6a(&p());
        let vgg = &rows[0];
        // Paper: DarKnight(4) ≈ 15x > Slalom; DarKnight(3)+I > Slalom+I
        // by ~1.45x.
        assert!(vgg.darknight4 > vgg.slalom, "{vgg:?}");
        assert!(vgg.darknight3_integrity > vgg.slalom_integrity, "{vgg:?}");
        assert!(vgg.darknight4 > 5.0 && vgg.darknight4 < 40.0);
        let ratio = vgg.darknight3_integrity / vgg.slalom_integrity;
        assert!(ratio > 1.1 && ratio < 2.5, "integrity ratio {ratio}");
    }

    #[test]
    fn fig6b_improves_then_degrades() {
        let f = fig6b(&p());
        let total = &f.series.iter().find(|(n, _)| *n == "Total").unwrap().1;
        // K index: 0->1, 1->2, 2->4, 3->6.
        assert!(total[2] > total[1], "K=4 should beat K=2: {total:?}");
        assert!(total[2] > total[3], "K=6 should degrade: {total:?}");
        // Blinding/unblinding speedups grow toward K=4.
        let blind = &f.series[0].1;
        assert!(blind[2] > blind[0], "{blind:?}");
    }

    #[test]
    fn fig7_latency_grows() {
        let pts = fig7(&p());
        assert_eq!(pts[0], (1, 1.0));
        for w in pts.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // Paper's figure tops out around 7x at 4 threads.
        let four = pts[3].1;
        assert!(four > 4.0 && four < 10.0, "4-thread latency {four}");
    }

    #[test]
    fn summary_near_paper_claims() {
        let s = summary(&p());
        // Paper: 6.5x average training, 12.5x average inference.
        assert!(s.avg_training_speedup > 3.0 && s.avg_training_speedup < 13.0,
            "training {}", s.avg_training_speedup);
        assert!(s.avg_inference_speedup > 6.0 && s.avg_inference_speedup < 25.0,
            "inference {}", s.avg_inference_speedup);
    }
}
