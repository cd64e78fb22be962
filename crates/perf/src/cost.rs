//! End-to-end time composition for every evaluated system.
//!
//! All functions return a per-image [`Breakdown`] for an ImageNet-scale
//! [`ArchSpec`], composed from exact per-layer operation counts and the
//! calibrated [`DeviceProfile`] rates. The four buckets match the
//! paper's Table 3 categories: linear (accelerator compute), non-linear
//! (TEE float ops), encoding/decoding (TEE masking work), and
//! communication (TEE↔GPU wire time).

use crate::device::DeviceProfile;
use dk_nn::arch::{ArchSpec, SpecKind};

/// Per-image time decomposition (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Linear-op compute (on whichever device runs it).
    pub linear: f64,
    /// Non-linear ops (ReLU, pooling, batch norm, add — TEE side for
    /// the protected systems).
    pub nonlinear: f64,
    /// Masking work: DarKnight encode/decode, Slalom blind/unblind and
    /// unblinding-factor fetch.
    pub maskio: f64,
    /// TEE↔GPU communication.
    pub comm: f64,
}

impl Breakdown {
    /// Serialized total: every phase back-to-back (the paper's
    /// non-pipelined configuration).
    pub fn total_serial(&self) -> f64 {
        self.linear + self.nonlinear + self.maskio + self.comm
    }

    /// Pipelined total: masking and communication overlap accelerator
    /// compute (§7.1 "the communication overhead can be easily hidden"),
    /// leaving the TEE-resident non-linear work exposed.
    pub fn total_pipelined(&self) -> f64 {
        self.nonlinear + self.linear.max(self.maskio + self.comm)
    }

    /// Phase fractions of the serialized total
    /// `(linear, nonlinear, maskio, comm)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total_serial().max(1e-30);
        (self.linear / t, self.nonlinear / t, self.maskio / t, self.comm / t)
    }

    /// The Fig.-5 pipelining gain this breakdown predicts:
    /// `total_serial / total_pipelined` — how much wall clock the §7.1
    /// overlap recovers. The measured counterpart is
    /// `dk_bench::PipelineReport::speedup`, and
    /// [`crate::report::pipeline_table`] renders the two side by side.
    pub fn pipeline_gain(&self) -> f64 {
        self.total_serial() / self.total_pipelined().max(1e-30)
    }
}

/// Per-layer SGX linear rate (GMAC/s): grouped/depthwise convs are
/// memory-bound and run at `sgx_linear_dw`.
fn sgx_linear_rate(l: &dk_nn::arch::LayerSpec, p: &DeviceProfile) -> f64 {
    if l.groups > 1 {
        p.sgx_linear_dw
    } else {
        p.sgx_linear_fwd
    }
}

/// Per-layer GPU linear rate (GMAC/s) for the given pass.
fn gpu_linear_rate(l: &dk_nn::arch::LayerSpec, p: &DeviceProfile, backward: bool) -> f64 {
    if l.groups > 1 {
        p.gpu_linear_dw
    } else if backward {
        p.gpu_linear_bwd
    } else {
        p.gpu_linear_fwd
    }
}

/// Per-image non-linear time at the given SGX rates, with `relief`
/// applied (DarKnight's light-footprint advantage; 1.0 for the
/// everything-resident baseline). At inference time batch-norm folds
/// into the preceding convolution (standard deployment practice, which
/// the paper's inference baselines also use), so it costs nothing.
fn nonlinear_time(spec: &ArchSpec, p: &DeviceProfile, relief: f64, training: bool) -> f64 {
    let mut t = 0.0;
    for l in &spec.layers {
        let e = l.nonlinear_elems as f64;
        if e == 0.0 {
            continue;
        }
        t += match l.kind {
            SpecKind::Relu => {
                let fwd = e / (p.sgx_relu_fwd * 1e9);
                let bwd = if training { e / (p.sgx_relu_bwd * 1e9) } else { 0.0 };
                fwd + bwd
            }
            SpecKind::MaxPool => {
                let fwd = e / (p.sgx_pool_fwd * 1e9);
                let bwd = if training { e / (p.sgx_pool_bwd * 1e9) } else { 0.0 };
                fwd + bwd
            }
            SpecKind::BatchNorm => {
                if training {
                    2.0 * e / (p.sgx_batchnorm * 1e9)
                } else {
                    0.0 // folded into the conv weights at inference
                }
            }
            SpecKind::AvgPool | SpecKind::Add => {
                let per_pass = e / (p.sgx_add * 1e9);
                if training {
                    2.0 * per_pass
                } else {
                    per_pass
                }
            }
            SpecKind::Conv | SpecKind::Dense => 0.0,
        } / relief;
    }
    t
}

/// SGX-only baseline, training (per image).
pub fn sgx_training(spec: &ArchSpec, p: &DeviceProfile) -> Breakdown {
    let mut linear = 0.0;
    for l in &spec.layers {
        let rate = sgx_linear_rate(l, p) * 1e9;
        linear += (l.fwd_macs + l.bwd_data_macs + l.bwd_weight_macs) as f64 / rate;
    }
    Breakdown {
        linear,
        nonlinear: nonlinear_time(spec, p, 1.0, true),
        maskio: 0.0,
        comm: 0.0,
    }
}

/// SGX-only baseline, inference (per image).
pub fn sgx_inference(spec: &ArchSpec, p: &DeviceProfile) -> Breakdown {
    let mut linear = 0.0;
    for l in &spec.layers {
        linear += l.fwd_macs as f64 / (sgx_linear_rate(l, p) * 1e9);
    }
    Breakdown {
        linear,
        nonlinear: nonlinear_time(spec, p, 1.0, false),
        maskio: 0.0,
        comm: 0.0,
    }
}

/// DarKnight training (per image) with virtual batch `k`, noise count
/// `m` and optional integrity equation. `K' = k + m (+1)` workers run
/// concurrently; each holds one encoding.
pub fn darknight_training(
    spec: &ArchSpec,
    p: &DeviceProfile,
    k: usize,
    m: usize,
    integrity: bool,
) -> Breakdown {
    let kf = k as f64;
    let s_sq = (k + m) as f64;
    let s_tot = s_sq + if integrity { 1.0 } else { 0.0 };
    let workers = s_tot;
    let mut linear = 0.0;
    let mut maskio = 0.0;
    let mut comm = 0.0;
    for l in &spec.layers {
        if l.fwd_macs == 0 {
            continue;
        }
        let (fwd, bwd_w, bwd_d) =
            (l.fwd_macs as f64, l.bwd_weight_macs as f64, l.bwd_data_macs as f64);
        let (in_e, out_e, w_e) = (l.in_elems as f64, l.out_elems as f64, l.weight_elems as f64);
        // GPU wall time per virtual batch: encodings run concurrently,
        // so forward and Eq_j cost one sample's work; the unencoded
        // data-gradient term (K samples) is split across all workers.
        let g_fwd = gpu_linear_rate(l, p, false) * 1e9;
        let g_bwd = gpu_linear_rate(l, p, true) * 1e9;
        linear += fwd / g_fwd + bwd_w / g_bwd + kf * bwd_d / (g_bwd * workers);
        // TEE masking (bandwidth-bound, §5 / Fig. 6b): encode touches
        // S_tot input-sized vectors, forward decode S_sq+K output-sized,
        // backward Eq decode S_sq+1 weight-sized, δ quantization K
        // output-sized.
        maskio += p.mask_time(s_tot * in_e + (s_sq + kf) * out_e)
            + p.mask_time((s_sq + 1.0) * w_e + kf * out_e);
        // Wire: every worker has its own 40 Gb/s link (the paper's
        // switch topology), so per-worker traffic moves in parallel and
        // the wall time is the per-worker maximum: one encoding out and
        // one masked output back (forward); K δ's in, one Eq_j gradient
        // back (backward); the data-grad result returns on one link.
        comm += p.link_time(in_e + out_e) + p.link_time(kf * out_e + w_e) + p.link_time(kf * in_e);
    }
    Breakdown {
        linear: linear / kf,
        nonlinear: nonlinear_time(spec, p, p.sgx_light_relief, true),
        maskio: maskio / kf,
        comm: comm / kf,
    }
}

/// DarKnight inference (per image).
pub fn darknight_inference(
    spec: &ArchSpec,
    p: &DeviceProfile,
    k: usize,
    m: usize,
    integrity: bool,
) -> Breakdown {
    let kf = k as f64;
    let s_sq = (k + m) as f64;
    let s_tot = s_sq + if integrity { 1.0 } else { 0.0 };
    let mut linear = 0.0;
    let mut maskio = 0.0;
    let mut comm = 0.0;
    // Enclave working set of the masking stage: larger virtual batches
    // hold more simultaneous copies; past the EPC limit the TEE-side
    // masking pays the paging penalty (the Fig. 6b degradation at K>4).
    let ws = p.masking_working_set(k, spec.max_activation_elems() as f64);
    let paging = p.paging_multiplier(ws);
    for l in &spec.layers {
        if l.fwd_macs == 0 {
            continue;
        }
        let fwd = l.fwd_macs as f64;
        let (in_e, out_e) = (l.in_elems as f64, l.out_elems as f64);
        linear += fwd / (gpu_linear_rate(l, p, false) * 1e9);
        maskio += p.mask_time(s_tot * in_e + (s_sq + kf) * out_e) * paging;
        // Per-worker links in parallel: one encoding out, one result back.
        comm += p.link_time(in_e + out_e);
    }
    Breakdown {
        linear: linear / kf,
        nonlinear: nonlinear_time(spec, p, p.sgx_light_relief, false),
        maskio: maskio / kf,
        comm: comm / kf,
    }
}

/// Slalom inference (per image), optionally with Freivalds integrity.
pub fn slalom_inference(spec: &ArchSpec, p: &DeviceProfile, integrity: bool) -> Breakdown {
    let mut linear = 0.0;
    let mut maskio = 0.0;
    let mut comm = 0.0;
    for l in &spec.layers {
        if l.fwd_macs == 0 {
            continue;
        }
        let fwd = l.fwd_macs as f64;
        let (in_e, out_e) = (l.in_elems as f64, l.out_elems as f64);
        linear += fwd / (gpu_linear_rate(l, p, false) * 1e9);
        // Blind (add r) + unblind (subtract u): touch in+out elements;
        // plus fetching and decrypting the sealed (r, u) pair from
        // untrusted memory — Slalom's distinguishing cost (§7.2: "At
        // each layer, they retrieve the necessary unblinding factors
        // into SGX, then decrypt them").
        maskio += p.mask_time(in_e + out_e) + p.seal_time((in_e + out_e) * 4.0);
        comm += p.link_time(in_e + out_e);
        if integrity {
            // Freivalds: the enclave convolves the blinded input with
            // the s-projected single-output filter (cost macs/out_ch)
            // and projects the claimed outputs (out_e MACs).
            let oc = l.out_channels.max(1) as f64;
            linear += (fwd / oc) / (sgx_linear_rate(l, p) * 1e9);
            maskio += p.mask_time(out_e);
        }
    }
    Breakdown {
        linear,
        nonlinear: nonlinear_time(spec, p, p.sgx_light_relief, false),
        maskio,
        comm,
    }
}

/// Non-private training on `n_gpus` data-parallel GPUs (per image).
pub fn gpu_plain_training(spec: &ArchSpec, p: &DeviceProfile, n_gpus: usize) -> Breakdown {
    let g = n_gpus as f64;
    let mut linear = 0.0;
    let mut nl = 0.0;
    for l in &spec.layers {
        let g_fwd = gpu_linear_rate(l, p, false) * 1e9;
        let g_bwd = gpu_linear_rate(l, p, true) * 1e9;
        linear += l.fwd_macs as f64 / g_fwd + (l.bwd_data_macs + l.bwd_weight_macs) as f64 / g_bwd;
        let e = l.nonlinear_elems as f64;
        nl += match l.kind {
            SpecKind::Relu => e / (p.gpu_relu_fwd * 1e9) + e / (p.gpu_relu_bwd * 1e9),
            SpecKind::MaxPool => e / (p.gpu_pool_fwd * 1e9) + e / (p.gpu_pool_bwd * 1e9),
            SpecKind::Conv | SpecKind::Dense => 0.0,
            // BN / residual adds: reduction-heavy, closer to the slow
            // backward-relu rate than the streaming forward one.
            _ => 2.0 * e / (p.gpu_relu_bwd * 1e9),
        };
    }
    Breakdown {
        linear: linear / g,
        nonlinear: nl / g,
        maskio: 0.0,
        // Gradient all-reduce per batch, amortized: negligible per image
        // at 128-image batches; charge the per-image share.
        comm: p.link_time(2.0 * spec.total_params() as f64 / 128.0),
    }
}

/// Fig. 3 model: wall time of the Algorithm 2 aggregation phase for a
/// training batch of `batch` images with virtual batch `k`, noise `m`.
///
/// Per virtual batch the TEE decodes `S·|W|` masked gradient elements,
/// seals/evicts `|W|` floats and later reloads+unseals them. Larger `K`
/// means fewer virtual batches (less per-batch fixed work) until the
/// encode working set exceeds the EPC.
pub fn aggregation_time(spec: &ArchSpec, p: &DeviceProfile, k: usize, m: usize, batch: usize) -> f64 {
    let params = spec.total_params() as f64;
    let v = (batch as f64 / k as f64).ceil();
    let s_sq = (k + m) as f64;
    let ws = p.masking_working_set(k, spec.max_activation_elems() as f64);
    let paging = p.paging_multiplier(ws);
    let per_vb = p.mask_time(s_sq * params) // γ-weighted Eq decode
        + 2.0 * p.seal_time(params * 4.0); // seal+evict, reload+unseal
    v * per_vb * paging
}

/// Fig. 7 model: relative latency of the SGX-only baseline when `t`
/// training threads share the enclave (working set scales with `t`;
/// everything beyond the EPC pays the paging penalty).
pub fn sgx_multithread_latency(spec: &ArchSpec, p: &DeviceProfile, threads: usize) -> f64 {
    let base_ws = (spec.total_params() as f64 * 3.0 + spec.max_activation_elems() as f64 * 4.0) * 4.0;
    let t = threads as f64;
    // Per-batch latency: compute parallelizes across threads, but the
    // shared memory-encryption engine saturates and paging grows with
    // the combined working set.
    let single = sgx_training(spec, p).total_serial();
    single * p.paging_multiplier(base_ws * t) / p.paging_multiplier(base_ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_nn::arch::{mobilenet_v2, vgg16};

    fn p() -> DeviceProfile {
        DeviceProfile::calibrated()
    }

    #[test]
    fn sgx_training_dominated_by_linear_for_vgg() {
        let b = sgx_training(&vgg16(), &p());
        let (lin, _, _, _) = b.fractions();
        // Paper Table 3: baseline VGG16 spends 84% in linear ops.
        assert!(lin > 0.7, "linear fraction = {lin}");
    }

    #[test]
    fn darknight_flips_the_breakdown() {
        let b = darknight_training(&vgg16(), &p(), 2, 1, false);
        let (lin, nl, _, _) = b.fractions();
        // Paper Table 3: DarKnight VGG16 linear 4%, nonlinear 50%.
        assert!(lin < 0.15, "linear fraction = {lin}");
        assert!(nl > 0.3, "nonlinear fraction = {nl}");
    }

    #[test]
    fn darknight_beats_sgx_training() {
        for spec in [vgg16(), mobilenet_v2()] {
            let sgx = sgx_training(&spec, &p()).total_serial();
            let dk = darknight_training(&spec, &p(), 2, 1, false).total_serial();
            assert!(sgx / dk > 1.5, "{}: speedup {}", spec.name, sgx / dk);
        }
    }

    #[test]
    fn pipelined_no_slower_than_serial() {
        let b = darknight_training(&vgg16(), &p(), 2, 1, false);
        assert!(b.total_pipelined() <= b.total_serial());
    }

    #[test]
    fn plain_gpu_fastest() {
        let spec = vgg16();
        let plain = gpu_plain_training(&spec, &p(), 3).total_serial();
        let dk = darknight_training(&spec, &p(), 2, 1, false).total_serial();
        let sgx = sgx_training(&spec, &p()).total_serial();
        assert!(plain < dk && dk < sgx);
    }

    #[test]
    fn slalom_integrity_costs_more() {
        let spec = vgg16();
        let base = slalom_inference(&spec, &p(), false).total_serial();
        let with = slalom_inference(&spec, &p(), true).total_serial();
        assert!(with > base);
    }

    #[test]
    fn aggregation_time_improves_then_degrades() {
        let spec = vgg16();
        let t1 = aggregation_time(&spec, &p(), 1, 1, 128);
        let t4 = aggregation_time(&spec, &p(), 4, 1, 128);
        assert!(t4 < t1, "K=4 should beat K=1");
    }

    #[test]
    fn multithreading_hurts() {
        let spec = vgg16();
        let l1 = sgx_multithread_latency(&spec, &p(), 1);
        let l4 = sgx_multithread_latency(&spec, &p(), 4);
        assert!((l1 - sgx_training(&spec, &p()).total_serial()).abs() < 1e-9);
        assert!(l4 / l1 > 3.0, "4-thread latency ratio {}", l4 / l1);
    }
}
