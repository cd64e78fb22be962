//! Architecture descriptions of the paper's evaluation models.
//!
//! Two kinds of artifacts live here:
//!
//! 1. **[`ArchSpec`]** — exact layer-by-layer descriptions (shapes, MACs,
//!    activation element counts) of the ImageNet-scale models the paper
//!    times: VGG16, ResNet50, MobileNetV1 and MobileNetV2 at 224×224.
//!    These drive the performance model (`dk-perf`); they are *not*
//!    executable networks. Parameter totals are asserted against the
//!    published counts (138.4 M, 25.6 M, 4.2 M, 3.5 M) in tests.
//!
//! 2. **Mini builders** ([`mini_vgg`], [`mini_resnet`],
//!    [`mini_mobilenet`]) — small trainable versions with the same layer
//!    *types* (plain conv stacks, residual bottlenecks with batch norm,
//!    depthwise-separable convolutions), used for the functional and
//!    accuracy experiments (paper Fig. 4) where an actual network must
//!    train on a CPU in this environment.

use crate::layers::{
    BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, Residual,
};
use crate::model::Sequential;
use dk_linalg::{Conv2dShape, Pool2dShape};

/// The operation class a spec layer belongs to, mirroring the paper's
/// linear / non-linear execution split (Table 3 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// Convolution (bilinear, offloaded).
    Conv,
    /// Fully-connected (bilinear, offloaded).
    Dense,
    /// ReLU (TEE).
    Relu,
    /// Max pooling (TEE).
    MaxPool,
    /// Batch normalization (TEE; the paper calls out that BN cannot be
    /// offloaded and dominates ResNet/MobileNet non-linear time).
    BatchNorm,
    /// Global average pooling (TEE).
    AvgPool,
    /// Residual addition (TEE, cheap).
    Add,
}

/// Shape/cost description of one layer of an ImageNet-scale model.
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// Human-readable name, e.g. `conv3_2`.
    pub name: String,
    /// Operation class.
    pub kind: SpecKind,
    /// Forward multiply-accumulate count (zero for non-linear ops).
    pub fwd_macs: u64,
    /// Input-gradient MACs of the backward pass.
    pub bwd_data_macs: u64,
    /// Weight-gradient MACs of the backward pass.
    pub bwd_weight_macs: u64,
    /// Elements processed by a non-linear op (zero for linear ops).
    pub nonlinear_elems: u64,
    /// Trainable parameter count.
    pub weight_elems: u64,
    /// Input activation element count (per sample).
    pub in_elems: u64,
    /// Output activation element count (per sample).
    pub out_elems: u64,
    /// Output channels (conv) or output features (dense); 0 otherwise.
    pub out_channels: usize,
    /// Convolution groups (1 for dense/ungrouped; `in_channels` for
    /// depthwise). Depthwise convs have far lower arithmetic intensity,
    /// which the performance model penalizes on both devices.
    pub groups: usize,
}

/// A full model description.
#[derive(Debug, Clone)]
pub struct ArchSpec {
    /// Model name as used in the paper's tables.
    pub name: String,
    /// Input shape `(c, h, w)`.
    pub input: (usize, usize, usize),
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl ArchSpec {
    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_elems).sum()
    }

    /// Total forward linear MACs per sample.
    pub fn total_fwd_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.fwd_macs).sum()
    }

    /// Total backward linear MACs per sample (data + weight terms).
    pub fn total_bwd_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.bwd_data_macs + l.bwd_weight_macs).sum()
    }

    /// Total non-linear elements per sample, optionally filtered by kind.
    pub fn nonlinear_elems(&self, kind: Option<SpecKind>) -> u64 {
        self.layers
            .iter()
            .filter(|l| kind.map_or(l.fwd_macs == 0, |k| l.kind == k))
            .map(|l| l.nonlinear_elems)
            .sum()
    }

    /// Largest single-layer activation (elements per sample); bounds the
    /// enclave working set.
    pub fn max_activation_elems(&self) -> u64 {
        self.layers.iter().map(|l| l.out_elems.max(l.in_elems)).max().unwrap_or(0)
    }

    /// Layers of a given kind.
    pub fn layers_of(&self, kind: SpecKind) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(move |l| l.kind == kind)
    }
}

/// Incremental builder tracking the current activation shape.
struct SpecBuilder {
    cur: (usize, usize, usize),
    layers: Vec<LayerSpec>,
}

impl SpecBuilder {
    fn new(input: (usize, usize, usize)) -> Self {
        Self { cur: input, layers: Vec::new() }
    }

    fn elems(&self) -> u64 {
        (self.cur.0 * self.cur.1 * self.cur.2) as u64
    }

    fn conv(&mut self, name: &str, out_c: usize, k: usize, s: usize, p: usize, groups: usize) {
        let (c, h, w) = self.cur;
        let shape = Conv2dShape::new(c, out_c, (k, k), (s, s), (p, p), groups);
        let (oh, ow) = shape.out_hw((h, w));
        let macs = shape.forward_macs(1, (h, w));
        let weights = (out_c * (c / groups) * k * k + out_c) as u64;
        self.layers.push(LayerSpec {
            name: name.to_string(),
            kind: SpecKind::Conv,
            fwd_macs: macs,
            bwd_data_macs: macs,
            bwd_weight_macs: macs,
            nonlinear_elems: 0,
            weight_elems: weights,
            in_elems: self.elems(),
            out_elems: (out_c * oh * ow) as u64,
            out_channels: out_c,
            groups,
        });
        self.cur = (out_c, oh, ow);
    }

    fn dense(&mut self, name: &str, out_f: usize) {
        let in_f = self.cur.0 * self.cur.1 * self.cur.2;
        let macs = (in_f * out_f) as u64;
        self.layers.push(LayerSpec {
            name: name.to_string(),
            kind: SpecKind::Dense,
            fwd_macs: macs,
            bwd_data_macs: macs,
            bwd_weight_macs: macs,
            nonlinear_elems: 0,
            weight_elems: (in_f * out_f + out_f) as u64,
            in_elems: in_f as u64,
            out_elems: out_f as u64,
            out_channels: out_f,
            groups: 1,
        });
        self.cur = (out_f, 1, 1);
    }

    fn pointwise(&mut self, name: &str, kind: SpecKind) {
        let e = self.elems();
        self.layers.push(LayerSpec {
            name: name.to_string(),
            kind,
            fwd_macs: 0,
            bwd_data_macs: 0,
            bwd_weight_macs: 0,
            nonlinear_elems: e,
            weight_elems: if kind == SpecKind::BatchNorm { 2 * self.cur.0 as u64 } else { 0 },
            in_elems: e,
            out_elems: e,
            out_channels: 0,
            groups: 1,
        });
    }

    fn relu(&mut self, name: &str) {
        self.pointwise(name, SpecKind::Relu);
    }

    fn bn(&mut self, name: &str) {
        self.pointwise(name, SpecKind::BatchNorm);
    }

    fn add(&mut self, name: &str) {
        self.pointwise(name, SpecKind::Add);
    }

    fn maxpool(&mut self, name: &str, k: usize, s: usize, p: usize) {
        let (c, h, w) = self.cur;
        let shape = Pool2dShape::new((k, k), (s, s), (p, p));
        let (oh, ow) = shape.out_hw((h, w));
        let in_e = self.elems();
        self.cur = (c, oh, ow);
        self.layers.push(LayerSpec {
            name: name.to_string(),
            kind: SpecKind::MaxPool,
            fwd_macs: 0,
            bwd_data_macs: 0,
            bwd_weight_macs: 0,
            nonlinear_elems: in_e,
            weight_elems: 0,
            in_elems: in_e,
            out_elems: self.elems(),
            out_channels: 0,
            groups: 1,
        });
    }

    fn global_avg_pool(&mut self, name: &str) {
        let (c, _, _) = self.cur;
        let in_e = self.elems();
        self.cur = (c, 1, 1);
        self.layers.push(LayerSpec {
            name: name.to_string(),
            kind: SpecKind::AvgPool,
            fwd_macs: 0,
            bwd_data_macs: 0,
            bwd_weight_macs: 0,
            nonlinear_elems: in_e,
            weight_elems: 0,
            in_elems: in_e,
            out_elems: c as u64,
            out_channels: 0,
            groups: 1,
        });
    }

    fn finish(self, name: &str, input: (usize, usize, usize)) -> ArchSpec {
        ArchSpec { name: name.to_string(), input, layers: self.layers }
    }
}

/// VGG16 at 224×224 (the paper's primary benchmark; ~138.4 M params).
pub fn vgg16() -> ArchSpec {
    let input = (3, 224, 224);
    let mut b = SpecBuilder::new(input);
    let blocks: &[&[usize]] = &[&[64, 64], &[128, 128], &[256, 256, 256], &[512, 512, 512], &[512, 512, 512]];
    for (bi, widths) in blocks.iter().enumerate() {
        for (ci, &wd) in widths.iter().enumerate() {
            let name = format!("conv{}_{}", bi + 1, ci + 1);
            b.conv(&name, wd, 3, 1, 1, 1);
            b.relu(&format!("relu{}_{}", bi + 1, ci + 1));
        }
        b.maxpool(&format!("pool{}", bi + 1), 2, 2, 0);
    }
    b.dense("fc6", 4096);
    b.relu("relu6");
    b.dense("fc7", 4096);
    b.relu("relu7");
    b.dense("fc8", 1000);
    b.finish("VGG16", input)
}

/// ResNet50 at 224×224 (~25.6 M params).
pub fn resnet50() -> ArchSpec {
    let input = (3, 224, 224);
    let mut b = SpecBuilder::new(input);
    b.conv("conv1", 64, 7, 2, 3, 1);
    b.bn("bn1");
    b.relu("relu1");
    b.maxpool("pool1", 3, 2, 1);
    // (stage, out_channels, blocks, stride of first block)
    let stages = [(2usize, 256usize, 3usize, 1usize), (3, 512, 4, 2), (4, 1024, 6, 2), (5, 2048, 3, 2)];
    for (si, out_c, blocks, stride) in stages {
        let mid = out_c / 4;
        for bi in 0..blocks {
            let s = if bi == 0 { stride } else { 1 };
            let prefix = format!("res{si}_{}", bi + 1);
            let entry_shape = b.cur;
            b.conv(&format!("{prefix}_1x1a"), mid, 1, 1, 0, 1);
            b.bn(&format!("{prefix}_bn_a"));
            b.relu(&format!("{prefix}_relu_a"));
            b.conv(&format!("{prefix}_3x3"), mid, 3, s, 1, 1);
            b.bn(&format!("{prefix}_bn_b"));
            b.relu(&format!("{prefix}_relu_b"));
            b.conv(&format!("{prefix}_1x1b"), out_c, 1, 1, 0, 1);
            b.bn(&format!("{prefix}_bn_c"));
            if bi == 0 {
                // Projection shortcut from the block entry shape.
                let exit_shape = b.cur;
                b.cur = entry_shape;
                b.conv(&format!("{prefix}_proj"), out_c, 1, s, 0, 1);
                b.bn(&format!("{prefix}_bn_proj"));
                b.cur = exit_shape;
            }
            b.add(&format!("{prefix}_add"));
            b.relu(&format!("{prefix}_relu_out"));
        }
    }
    b.global_avg_pool("gap");
    b.dense("fc", 1000);
    b.finish("ResNet50", input)
}

/// MobileNetV1 at 224×224 (~4.2 M params) — used in the paper's
/// inference comparison against Slalom (Fig. 6a).
pub fn mobilenet_v1() -> ArchSpec {
    let input = (3, 224, 224);
    let mut b = SpecBuilder::new(input);
    b.conv("conv1", 32, 3, 2, 1, 1);
    b.bn("bn1");
    b.relu("relu1");
    // (out_channels, stride)
    let blocks = [
        (64usize, 1usize),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (i, (out_c, s)) in blocks.iter().enumerate() {
        let c = b.cur.0;
        b.conv(&format!("dw{}", i + 1), c, 3, *s, 1, c);
        b.bn(&format!("dw{}_bn", i + 1));
        b.relu(&format!("dw{}_relu", i + 1));
        b.conv(&format!("pw{}", i + 1), *out_c, 1, 1, 0, 1);
        b.bn(&format!("pw{}_bn", i + 1));
        b.relu(&format!("pw{}_relu", i + 1));
    }
    b.global_avg_pool("gap");
    b.dense("fc", 1000);
    b.finish("MobileNetV1", input)
}

/// MobileNetV2 at 224×224 (~3.5 M params) — the paper's worst-case
/// training benchmark (depthwise separable convs minimize GPU-friendly
/// linear work).
pub fn mobilenet_v2() -> ArchSpec {
    let input = (3, 224, 224);
    let mut b = SpecBuilder::new(input);
    b.conv("conv1", 32, 3, 2, 1, 1);
    b.bn("bn1");
    b.relu("relu1");
    // (expansion t, out_channels c, repeats n, stride s)
    let cfg = [(1usize, 16usize, 1usize, 1usize), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2), (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)];
    let mut idx = 0;
    for (t, c_out, n, s) in cfg {
        for r in 0..n {
            idx += 1;
            let stride = if r == 0 { s } else { 1 };
            let c_in = b.cur.0;
            let hidden = c_in * t;
            let will_add = stride == 1 && c_in == c_out;
            if t != 1 {
                b.conv(&format!("ir{idx}_expand"), hidden, 1, 1, 0, 1);
                b.bn(&format!("ir{idx}_expand_bn"));
                b.relu(&format!("ir{idx}_expand_relu"));
            }
            b.conv(&format!("ir{idx}_dw"), hidden, 3, stride, 1, hidden);
            b.bn(&format!("ir{idx}_dw_bn"));
            b.relu(&format!("ir{idx}_dw_relu"));
            b.conv(&format!("ir{idx}_project"), c_out, 1, 1, 0, 1);
            b.bn(&format!("ir{idx}_project_bn"));
            if will_add {
                b.add(&format!("ir{idx}_add"));
            }
        }
    }
    b.conv("conv_last", 1280, 1, 1, 0, 1);
    b.bn("bn_last");
    b.relu("relu_last");
    b.global_avg_pool("gap");
    b.dense("fc", 1000);
    b.finish("MobileNetV2", input)
}

/// All four paper models.
pub fn paper_models() -> Vec<ArchSpec> {
    vec![vgg16(), resnet50(), mobilenet_v1(), mobilenet_v2()]
}

// ---------------------------------------------------------------------
// Trainable mini models (functional / accuracy experiments)
// ---------------------------------------------------------------------

/// A small VGG-style plain conv stack for `3×hw×hw` inputs.
///
/// # Panics
///
/// Panics if `hw` is not divisible by 4.
pub fn mini_vgg(hw: usize, classes: usize, seed: u64) -> Sequential {
    assert_eq!(hw % 4, 0, "input size must be divisible by 4");
    let q = hw / 4;
    Sequential::named(
        "MiniVGG",
        vec![
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(3, 16, 3, 1, 1), seed ^ 1)),
            Layer::Relu(Relu::new()),
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(16, 16, 3, 1, 1), seed ^ 2)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(Pool2dShape::square(2))),
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(16, 32, 3, 1, 1), seed ^ 3)),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(Pool2dShape::square(2))),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(32 * q * q, 64, seed ^ 4)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(64, classes, seed ^ 5)),
        ],
    )
}

/// A small ResNet-style model with batch norm and two residual blocks.
pub fn mini_resnet(hw: usize, classes: usize, seed: u64) -> Sequential {
    let block = |c_in: usize, c_out: usize, stride: usize, s: u64| {
        let main = vec![
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(c_in, c_out, 3, stride, 1), s ^ 11)),
            Layer::BatchNorm2d(BatchNorm2d::new(c_out)),
            Layer::Relu(Relu::new()),
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(c_out, c_out, 3, 1, 1), s ^ 12)),
            Layer::BatchNorm2d(BatchNorm2d::new(c_out)),
        ];
        let shortcut = if c_in != c_out || stride != 1 {
            vec![
                Layer::Conv2d(Conv2d::new(Conv2dShape::simple(c_in, c_out, 1, stride, 0), s ^ 13)),
                Layer::BatchNorm2d(BatchNorm2d::new(c_out)),
            ]
        } else {
            vec![]
        };
        Layer::Residual(Residual::new(main, shortcut))
    };
    let _ = hw;
    Sequential::named(
        "MiniResNet",
        vec![
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(3, 16, 3, 1, 1), seed ^ 21)),
            Layer::BatchNorm2d(BatchNorm2d::new(16)),
            Layer::Relu(Relu::new()),
            block(16, 16, 1, seed ^ 22),
            Layer::Relu(Relu::new()),
            block(16, 32, 2, seed ^ 23),
            Layer::Relu(Relu::new()),
            Layer::GlobalAvgPool(GlobalAvgPool::new()),
            Layer::Dense(Dense::new(32, classes, seed ^ 24)),
        ],
    )
}

/// A small MobileNet-style model built from depthwise-separable blocks.
pub fn mini_mobilenet(hw: usize, classes: usize, seed: u64) -> Sequential {
    let _ = hw;
    let dw_sep = |c_in: usize, c_out: usize, stride: usize, s: u64| {
        vec![
            Layer::Conv2d(Conv2d::new(
                Conv2dShape::new(c_in, c_in, (3, 3), (stride, stride), (1, 1), c_in),
                s ^ 31,
            )),
            Layer::BatchNorm2d(BatchNorm2d::new(c_in)),
            Layer::Relu(Relu::new()),
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(c_in, c_out, 1, 1, 0), s ^ 32)),
            Layer::BatchNorm2d(BatchNorm2d::new(c_out)),
            Layer::Relu(Relu::new()),
        ]
    };
    let mut layers = vec![
        Layer::Conv2d(Conv2d::new(Conv2dShape::simple(3, 16, 3, 1, 1), seed ^ 41)),
        Layer::BatchNorm2d(BatchNorm2d::new(16)),
        Layer::Relu(Relu::new()),
    ];
    layers.extend(dw_sep(16, 32, 1, seed ^ 42));
    layers.extend(dw_sep(32, 64, 2, seed ^ 43));
    layers.push(Layer::GlobalAvgPool(GlobalAvgPool::new()));
    layers.push(Layer::Dense(Dense::new(64, classes, seed ^ 44)));
    Sequential::named("MiniMobileNet", layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_linalg::Tensor;

    #[test]
    fn vgg16_param_count_matches_paper() {
        let spec = vgg16();
        let p = spec.total_params();
        // Paper: "VGG16 with 138 million parameters".
        assert!((138_000_000..139_000_000).contains(&p), "params={p}");
    }

    #[test]
    fn vgg16_macs_are_imagenet_scale() {
        let spec = vgg16();
        let g = spec.total_fwd_macs();
        // Known value ~15.5 GMACs for VGG16 @224.
        assert!((15_000_000_000..16_000_000_000).contains(&g), "macs={g}");
    }

    #[test]
    fn resnet50_param_count() {
        let spec = resnet50();
        let p = spec.total_params();
        // torchvision: 25.557M. (Paper rounds to "23 million".)
        assert!((25_000_000..26_100_000).contains(&p), "params={p}");
    }

    #[test]
    fn resnet50_macs() {
        let g = resnet50().total_fwd_macs();
        // Known ~4.1 GMACs.
        assert!((3_800_000_000..4_400_000_000).contains(&g), "macs={g}");
    }

    #[test]
    fn mobilenet_v1_counts() {
        let spec = mobilenet_v1();
        let p = spec.total_params();
        assert!((4_100_000..4_350_000).contains(&p), "params={p}");
        let g = spec.total_fwd_macs();
        // Known ~569 MMACs.
        assert!((540_000_000..600_000_000).contains(&g), "macs={g}");
    }

    #[test]
    fn mobilenet_v2_counts() {
        let spec = mobilenet_v2();
        let p = spec.total_params();
        // Paper: "MobileNetV2 with 3.4 million parameters".
        assert!((3_300_000..3_600_000).contains(&p), "params={p}");
        let g = spec.total_fwd_macs();
        // Known ~300-320 MMACs.
        assert!((280_000_000..340_000_000).contains(&g), "macs={g}");
    }

    #[test]
    fn mobilenet_linear_fraction_below_vgg() {
        // The paper chose MobileNetV2 as worst case *because* it strips
        // linear work; verify that structural property.
        let vgg = vgg16();
        let mnv2 = mobilenet_v2();
        let ratio = |s: &ArchSpec| s.total_fwd_macs() as f64 / s.nonlinear_elems(None) as f64;
        assert!(ratio(&mnv2) < ratio(&vgg) / 5.0, "vgg={} mnv2={}", ratio(&vgg), ratio(&mnv2));
    }

    #[test]
    fn batchnorm_presence() {
        assert_eq!(vgg16().layers_of(SpecKind::BatchNorm).count(), 0);
        assert!(resnet50().layers_of(SpecKind::BatchNorm).count() > 50);
        assert!(mobilenet_v2().layers_of(SpecKind::BatchNorm).count() > 30);
    }

    #[test]
    fn spec_shapes_flow_correctly() {
        // If any layer disagreed on shapes the builders would panic in
        // Conv2dShape / out_hw; building all four is itself the test.
        for spec in paper_models() {
            assert!(!spec.layers.is_empty());
            assert!(spec.total_fwd_macs() > 0);
        }
    }

    #[test]
    fn mini_models_forward_and_train_shapes() {
        for (mut m, hw) in [
            (mini_vgg(16, 10, 1), 16usize),
            (mini_resnet(16, 10, 2), 16),
            (mini_mobilenet(16, 10, 3), 16),
        ] {
            let x = Tensor::<f32>::from_fn(&[2, 3, hw, hw], |i| ((i % 7) as f32 - 3.0) * 0.1);
            let y = m.forward(&x, true);
            assert_eq!(y.shape(), &[2, 10], "{}", m.name());
            let dx = m.backward(&Tensor::ones(y.shape()));
            assert_eq!(dx.shape(), x.shape(), "{}", m.name());
        }
    }

    #[test]
    fn mini_models_have_modest_size() {
        assert!(mini_vgg(16, 10, 0).num_params() < 50_000);
        assert!(mini_resnet(16, 10, 0).num_params() < 50_000);
        assert!(mini_mobilenet(16, 10, 0).num_params() < 50_000);
    }
}
