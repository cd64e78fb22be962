//! The layer zoo, and the one walk over it.
//!
//! [`Layer`] is an *enum*, not a trait object; each variant owns its
//! parameters, gradients and forward caches. DarKnight's execution flow
//! (§3.1) is one rule applied layer by layer: a bilinear layer (conv,
//! dense) is offloaded, everything else (ReLU, pooling, batch norm —
//! the paper's "non-linear" category) runs on plaintext floats in the
//! TEE. The traversal that rule is applied over is written once, here:
//! [`crate::Sequential::forward_with`] / [`crate::Sequential::backward_with`]
//! walk a model on behalf of a [`LayerExec`], which supplies only what
//! happens at an offloaded layer. There are four: **plain** float
//! execution (this crate: the linear step is the layer's own kernel),
//! the **private session** and the **clear-text reference** (`dk_core`),
//! and the **Slalom baseline** (`dk_baselines`, forward only). None of
//! them traverses a model, counts layers or knows that a residual block
//! has two paths.
//!
//! **Order contract.** Forward visits layers in list order and, inside
//! a [`Residual`] block, the main path before the shortcut. Offloaded
//! layers are numbered from 0 in that order — the *ordinal*. Backward
//! visits the exact reverse and hands each offloaded layer the ordinal
//! it had forward. The walk computes the ordinal; executors never
//! count. [`crate::Sequential::try_visit_linear`] and
//! [`crate::Sequential::visit_leaf_layers_mut`] enumerate in forward
//! order. Stored encodings, planned weights and retained backward
//! contexts are all keyed by the ordinal: their agreement is decided
//! here and nowhere else.
//!
//! **Recycling contract.** Every intermediate the walk creates — each
//! layer's output but the last, a residual block's second operand —
//! goes back to [`LayerExec::workspace`] once its consumer has run, on
//! the error path too: a pass that fails midway leaves the pool where a
//! successful one does. The final output is the caller's to recycle.

use crate::init;
use dk_linalg::conv::{conv2d_backward_input_ws, conv2d_backward_weight_ws, conv2d_forward_ws};
use dk_linalg::ops;
use dk_linalg::pool::{
    global_avg_pool_backward_ws, global_avg_pool_forward_ws, maxpool2d_backward_ws,
    maxpool2d_forward_ws,
};
use dk_linalg::{
    matmul_a_bt_into, matmul_at_b_into, matmul_into, Conv2dShape, Pool2dShape, Tensor, Workspace,
};
use std::convert::Infallible;
use std::ops::Deref;

/// `acc += g`, element by element.
fn add_into(acc: &mut Tensor<f32>, g: &[f32]) {
    for (a, &v) in acc.as_mut_slice().iter_mut().zip(g) {
        *a += v;
    }
}

/// Replaces a forward cache slot with a copy of `x`, recycling the
/// previous cache's buffers through the workspace — in steady state
/// the same buffer ping-pongs between the slot and the pool, so
/// caching allocates nothing after warm-up. Without `x` (an inference
/// forward) the slot is left empty, so a backward after it panics
/// instead of reading what an earlier training forward cached.
fn recache(slot: &mut Option<Tensor<f32>>, x: Option<&Tensor<f32>>, ws: &mut Workspace) {
    if let Some(old) = slot.take() {
        ws.give_tensor(old);
    }
    *slot = x.map(|x| ws.take_tensor_copy(x.shape(), x.as_slice()));
}

/// A single network layer.
///
/// Construct variants with the provided constructors
/// ([`Conv2d::new`], [`Dense::new`], …) and compose them in a
/// [`crate::model::Sequential`].
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution (bilinear — offloadable).
    Conv2d(Conv2d),
    /// Fully-connected layer (bilinear — offloadable).
    Dense(Dense),
    /// ReLU activation (TEE-side).
    Relu(Relu),
    /// Max pooling (TEE-side).
    MaxPool2d(MaxPool2d),
    /// Global average pooling (TEE-side).
    GlobalAvgPool(GlobalAvgPool),
    /// Batch normalization (TEE-side).
    BatchNorm2d(BatchNorm2d),
    /// Reshape `[n, c, h, w] → [n, c·h·w]`.
    Flatten(Flatten),
    /// Residual block with a main path and an optional projection
    /// shortcut (empty shortcut = identity).
    Residual(Residual),
}

impl Layer {
    /// Runs the forward pass, caching whatever the backward pass needs.
    ///
    /// `train` selects batch-statistics (true) vs running-statistics
    /// (false) behaviour in batch norm. An inference forward
    /// (`train == false`) writes no ReLU, max-pool or batch-norm cache
    /// and drops the ones a training forward left, so only a training
    /// forward can be followed by [`Layer::backward`]. Allocating
    /// wrapper over [`Layer::forward_ws`].
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        self.forward_ws(x, train, &mut Workspace::new())
    }

    /// Runs the forward pass with every intermediate (output tensor,
    /// im2col scratch, forward caches) drawn from `ws` — the
    /// zero-allocation hot path. Results are bit-for-bit identical to
    /// [`Layer::forward`]; only buffer provenance differs. Give the
    /// returned tensor back to `ws` once it is consumed.
    pub fn forward_ws(&mut self, x: &Tensor<f32>, train: bool, ws: &mut Workspace) -> Tensor<f32> {
        match self {
            Layer::Conv2d(l) => l.forward(x, ws),
            Layer::Dense(l) => l.forward(x, ws),
            Layer::Relu(l) => l.forward(x, train, ws),
            Layer::MaxPool2d(l) => l.forward(x, train, ws),
            Layer::GlobalAvgPool(l) => l.forward(x, ws),
            Layer::BatchNorm2d(l) => l.forward(x, train, ws),
            Layer::Flatten(l) => l.forward(x, ws),
            Layer::Residual(l) => l.forward(x, train, ws),
        }
    }

    /// Runs the backward pass, accumulating parameter gradients and
    /// returning the input gradient. Allocating wrapper over
    /// [`Layer::backward_ws`].
    ///
    /// # Panics
    ///
    /// Panics if the layer holds no forward cache: before any forward,
    /// and for ReLU, max-pool and batch norm after an inference one.
    pub fn backward(&mut self, dy: &Tensor<f32>) -> Tensor<f32> {
        self.backward_ws(dy, &mut Workspace::new())
    }

    /// Runs the backward pass with intermediates drawn from `ws`.
    /// Bit-for-bit identical to [`Layer::backward`].
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`], with the message
    /// "`<Layer>::backward before forward`".
    pub fn backward_ws(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        match self {
            Layer::Conv2d(l) => l.backward(dy, ws),
            Layer::Dense(l) => l.backward(dy, ws),
            Layer::Relu(l) => l.backward(dy, ws),
            Layer::MaxPool2d(l) => l.backward(dy, ws),
            Layer::GlobalAvgPool(l) => l.backward(dy, ws),
            Layer::BatchNorm2d(l) => l.backward(dy, ws),
            Layer::Flatten(l) => l.backward(dy, ws),
            Layer::Residual(l) => l.backward(dy, ws),
        }
    }

    /// Visits every `(parameter, gradient)` pair in a fixed order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        match self {
            Layer::Conv2d(l) => {
                f(&mut l.w, &mut l.dw);
                f(&mut l.b, &mut l.db);
            }
            Layer::Dense(l) => {
                f(&mut l.w, &mut l.dw);
                f(&mut l.b, &mut l.db);
            }
            Layer::BatchNorm2d(l) => {
                f(&mut l.gamma, &mut l.dgamma);
                f(&mut l.beta, &mut l.dbeta);
            }
            Layer::Residual(l) => {
                for sub in l.main.iter_mut().chain(l.shortcut.iter_mut()) {
                    sub.visit_params(f);
                }
            }
            _ => {}
        }
    }

    /// Makes this layer's parameters and running statistics those of
    /// `src`, in place, if the two are the same kind of layer with the
    /// same shapes, and says whether they were (when not, this layer is
    /// left partly copied). Gradients and forward caches are not copied:
    /// the next pass rewrites them.
    fn copy_state_from(&mut self, src: &Layer) -> bool {
        fn copy(d: &mut Tensor<f32>, s: &Tensor<f32>) -> bool {
            let same = d.shape() == s.shape();
            if same {
                d.as_mut_slice().copy_from_slice(s.as_slice());
            }
            same
        }
        match (self, src) {
            (Layer::Conv2d(d), Layer::Conv2d(s)) => {
                d.shape == s.shape && copy(&mut d.w, &s.w) && copy(&mut d.b, &s.b)
            }
            (Layer::Dense(d), Layer::Dense(s)) => copy(&mut d.w, &s.w) && copy(&mut d.b, &s.b),
            (Layer::BatchNorm2d(d), Layer::BatchNorm2d(s)) => {
                let same = d.channels == s.channels && copy(&mut d.gamma, &s.gamma) && copy(&mut d.beta, &s.beta);
                if same {
                    d.running_mean.copy_from_slice(&s.running_mean);
                    d.running_var.copy_from_slice(&s.running_var);
                    (d.eps, d.momentum) = (s.eps, s.momentum);
                }
                same
            }
            (Layer::MaxPool2d(d), Layer::MaxPool2d(s)) => d.shape == s.shape,
            (Layer::Residual(d), Layer::Residual(s)) => {
                copy_layers(&mut d.main, &s.main) && copy_layers(&mut d.shortcut, &s.shortcut)
            }
            (Layer::Relu(_), Layer::Relu(_))
            | (Layer::GlobalAvgPool(_), Layer::GlobalAvgPool(_))
            | (Layer::Flatten(_), Layer::Flatten(_)) => true,
            _ => false,
        }
    }

    /// True for the bilinear layers DarKnight offloads to GPUs.
    pub fn is_linear(&self) -> bool {
        self.as_linear().is_some()
    }

    /// The linear view of a bilinear (offloaded) layer; `None` for
    /// every other kind.
    pub fn as_linear(&self) -> Option<LinearRef<'_>> {
        match self {
            Layer::Conv2d(l) => Some(Linear(Kind::Conv(l))),
            Layer::Dense(l) => Some(Linear(Kind::Dense(l))),
            _ => None,
        }
    }

    /// [`Layer::as_linear`], able to accumulate gradients.
    pub fn as_linear_mut(&mut self) -> Option<LinearMut<'_>> {
        match self {
            Layer::Conv2d(l) => Some(Linear(Kind::Conv(l))),
            Layer::Dense(l) => Some(Linear(Kind::Dense(l))),
            _ => None,
        }
    }

    /// A short human-readable kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::Dense(_) => "dense",
            Layer::Relu(_) => "relu",
            Layer::MaxPool2d(_) => "maxpool2d",
            Layer::GlobalAvgPool(_) => "global_avg_pool",
            Layer::BatchNorm2d(_) => "batchnorm2d",
            Layer::Flatten(_) => "flatten",
            Layer::Residual(_) => "residual",
        }
    }
}

/// The one view of an offloaded (bilinear) layer — all an executor may
/// know about it: weights, bias, geometry and, through [`LinearMut`],
/// where the gradients it computed go. Which of [`Conv2d`] / [`Dense`]
/// is behind it stays in this module.
pub struct Linear<C, D>(Kind<C, D>);

enum Kind<C, D> {
    Conv(C),
    Dense(D),
}

/// A read-only [`Linear`] view.
pub type LinearRef<'a> = Linear<&'a Conv2d, &'a Dense>;
/// A [`Linear`] view that can also accumulate gradients.
pub type LinearMut<'a> = Linear<&'a mut Conv2d, &'a mut Dense>;

impl<C: Deref<Target = Conv2d>, D: Deref<Target = Dense>> Linear<C, D> {
    /// The convolution geometry; `None` for a dense layer, whose
    /// geometry is its `[out, in]` weight shape.
    pub fn conv_shape(&self) -> Option<Conv2dShape> {
        match &self.0 {
            Kind::Conv(l) => Some(l.shape),
            Kind::Dense(_) => None,
        }
    }

    /// The weight tensor (`[oc, ic/g, kh, kw]` or `[out, in]`).
    pub fn weights(&self) -> &Tensor<f32> {
        match &self.0 {
            Kind::Conv(l) => &l.w,
            Kind::Dense(l) => &l.w,
        }
    }

    /// The bias vector, one entry per output channel / feature.
    pub fn bias(&self) -> &Tensor<f32> {
        match &self.0 {
            Kind::Conv(l) => &l.b,
            Kind::Dense(l) => &l.b,
        }
    }
}

impl LinearMut<'_> {
    /// Accumulates an externally-computed weight gradient (DarKnight's
    /// decoded aggregate `∇W`). Panics on a shape mismatch.
    pub fn accumulate_weight_grad(&mut self, dw: &Tensor<f32>) {
        match &mut self.0 {
            Kind::Conv(l) => l.dw.add_assign(dw),
            Kind::Dense(l) => l.dw.add_assign(dw),
        }
    }

    /// Accumulates an externally-computed bias gradient. Panics on a
    /// length mismatch.
    pub fn accumulate_bias_grad(&mut self, db: &[f32]) {
        let acc = match &mut self.0 {
            Kind::Conv(l) => &mut l.db,
            Kind::Dense(l) => &mut l.db,
        };
        assert_eq!(acc.len(), db.len(), "bias gradient length mismatch");
        for (a, &v) in acc.as_mut_slice().iter_mut().zip(db) {
            *a += v;
        }
    }

    /// The layer's own float kernel — the plain executor's linear step.
    fn forward(self, x: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        match self.0 {
            Kind::Conv(l) => l.forward(x, ws),
            Kind::Dense(l) => l.forward(x, ws),
        }
    }

    fn backward(self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        match self.0 {
            Kind::Conv(l) => l.backward(dy, ws),
            Kind::Dense(l) => l.backward(dy, ws),
        }
    }
}

/// What happens at an offloaded layer: the per-layer step an executor
/// supplies to the walk (module docs: the order and recycling contracts
/// the walk keeps on its behalf).
pub trait LayerExec {
    /// The executor's failure type; the walk stops at the first one.
    type Error;

    /// The pool the non-linear layers, the residual add and the walk's
    /// recycling draw from and return to.
    fn workspace(&mut self) -> &mut Workspace;

    /// Runs offloaded layer number `ordinal` forward: `y = W ⋆ x + b`.
    fn linear_forward(
        &mut self,
        ordinal: usize,
        layer: LinearMut<'_>,
        x: &Tensor<f32>,
        train: bool,
    ) -> Result<Tensor<f32>, Self::Error>;

    /// Runs offloaded layer number `ordinal` backward: accumulates its
    /// weight and bias gradients into `layer` and returns `∂L/∂x`.
    fn linear_backward(
        &mut self,
        ordinal: usize,
        layer: LinearMut<'_>,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, Self::Error>;

    /// Told how many elements each TEE-side step (a non-linear layer, a
    /// residual add) touched, for executors that account for it.
    fn touched(&mut self, _elems: usize) {}
}

/// Plain float execution: the linear step is the layer's own kernel,
/// and nothing can fail.
pub(crate) struct Plain<'a>(pub(crate) &'a mut Workspace);

impl LayerExec for Plain<'_> {
    type Error = Infallible;

    fn workspace(&mut self) -> &mut Workspace {
        self.0
    }

    fn linear_forward(
        &mut self,
        _ordinal: usize,
        layer: LinearMut<'_>,
        x: &Tensor<f32>,
        _train: bool,
    ) -> Result<Tensor<f32>, Infallible> {
        Ok(layer.forward(x, self.0))
    }

    fn linear_backward(
        &mut self,
        _ordinal: usize,
        layer: LinearMut<'_>,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, Infallible> {
        Ok(layer.backward(dy, self.0))
    }
}

/// 2-D convolution with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    shape: Conv2dShape,
    w: Tensor<f32>,
    b: Tensor<f32>,
    dw: Tensor<f32>,
    db: Tensor<f32>,
    x_cache: Option<Tensor<f32>>,
}

impl Conv2d {
    /// Creates a convolution layer with He-initialized weights.
    pub fn new(shape: Conv2dShape, seed: u64) -> Self {
        let fan_in = shape.cg_in() * shape.kernel.0 * shape.kernel.1;
        let w = init::he_normal(&shape.weight_shape(), fan_in, seed);
        Self {
            shape,
            w,
            b: Tensor::zeros(&[shape.out_channels]),
            dw: Tensor::zeros(&shape.weight_shape()),
            db: Tensor::zeros(&[shape.out_channels]),
            x_cache: None,
        }
    }

    /// The convolution geometry.
    pub fn shape(&self) -> &Conv2dShape {
        &self.shape
    }

    /// The weight tensor `[oc, ic/g, kh, kw]`.
    pub fn weights(&self) -> &Tensor<f32> {
        &self.w
    }

    /// Mutable weights.
    pub fn weights_mut(&mut self) -> &mut Tensor<f32> {
        &mut self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor<f32> {
        &self.b
    }

    /// Mutable bias.
    pub fn bias_mut(&mut self) -> &mut Tensor<f32> {
        &mut self.b
    }

    fn forward(&mut self, x: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        let mut y = conv2d_forward_ws(x, &self.w, &self.shape, ws);
        ops::add_bias_nchw(&mut y, self.b.as_slice());
        recache(&mut self.x_cache, Some(x), ws);
        y
    }

    #[allow(clippy::expect_used, reason = "documented: `Layer::backward_ws` panics before a forward")]
    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        let x = self.x_cache.as_ref().expect("Conv2d::backward before forward");
        let hw = (x.shape()[2], x.shape()[3]);
        let dw = conv2d_backward_weight_ws(dy, x, &self.shape, ws);
        self.dw.add_assign(&dw);
        ws.give_tensor(dw);
        let mut bg = ws.take_zeroed::<f32>(self.db.len());
        ops::bias_grad_nchw_into(dy, &mut bg);
        add_into(&mut self.db, &bg);
        ws.give(bg);
        conv2d_backward_input_ws(dy, &self.w, &self.shape, hw, ws)
    }
}

/// Fully-connected layer `y = x·Wᵀ + b`, weights stored `[out, in]`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    w: Tensor<f32>,
    b: Tensor<f32>,
    dw: Tensor<f32>,
    db: Tensor<f32>,
    x_cache: Option<Tensor<f32>>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let w = init::he_normal(&[out_features, in_features], in_features, seed);
        Self {
            in_features,
            out_features,
            w,
            b: Tensor::zeros(&[out_features]),
            dw: Tensor::zeros(&[out_features, in_features]),
            db: Tensor::zeros(&[out_features]),
            x_cache: None,
        }
    }

    /// The weight matrix `[out, in]`.
    pub fn weights(&self) -> &Tensor<f32> {
        &self.w
    }

    /// Mutable weights.
    pub fn weights_mut(&mut self) -> &mut Tensor<f32> {
        &mut self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor<f32> {
        &self.b
    }

    /// Mutable bias.
    pub fn bias_mut(&mut self) -> &mut Tensor<f32> {
        &mut self.b
    }

    fn forward(&mut self, x: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        assert_eq!(x.ndim(), 2, "Dense expects [n, features]");
        assert_eq!(x.shape()[1], self.in_features, "feature count mismatch");
        let n = x.shape()[0];
        let mut y = ws.take_tensor(&[n, self.out_features]);
        matmul_a_bt_into(
            x.as_slice(),
            self.w.as_slice(),
            y.as_mut_slice(),
            n,
            self.in_features,
            self.out_features,
        );
        ops::add_bias_rows(&mut y, self.b.as_slice());
        recache(&mut self.x_cache, Some(x), ws);
        y
    }

    #[allow(clippy::expect_used, reason = "documented: `Layer::backward_ws` panics before a forward")]
    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        let x = self.x_cache.as_ref().expect("Dense::backward before forward");
        let n = x.shape()[0];
        // dW[out, in] = dyᵀ[out, n] · x[n, in], accumulated via a scratch
        // buffer so the float summation order matches the original.
        let mut dw = ws.take_zeroed::<f32>(self.out_features * self.in_features);
        matmul_at_b_into(
            dy.as_slice(),
            x.as_slice(),
            &mut dw,
            self.out_features,
            n,
            self.in_features,
        );
        for (d, &v) in self.dw.as_mut_slice().iter_mut().zip(dw.iter()) {
            *d += v;
        }
        ws.give(dw);
        let mut bg = ws.take_zeroed::<f32>(self.db.len());
        ops::bias_grad_rows_into(dy, &mut bg);
        add_into(&mut self.db, &bg);
        ws.give(bg);
        // dx[n, in] = dy[n, out] · W[out, in]
        let mut dx = ws.take_tensor(&[n, self.in_features]);
        matmul_into(
            dy.as_slice(),
            self.w.as_slice(),
            dx.as_mut_slice(),
            n,
            self.out_features,
            self.in_features,
        );
        dx
    }
}

/// ReLU activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    x_cache: Option<Tensor<f32>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool, ws: &mut Workspace) -> Tensor<f32> {
        recache(&mut self.x_cache, train.then_some(x), ws);
        let mut y = ws.take_tensor_dirty(x.shape());
        ops::relu_into(x, &mut y);
        y
    }

    #[allow(clippy::expect_used, reason = "documented: `Layer::backward_ws` panics before a training forward")]
    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        let x = self.x_cache.as_ref().expect("Relu::backward before forward");
        let mut dx = ws.take_tensor_dirty(dy.shape());
        ops::relu_backward_into(dy, x, &mut dx);
        dx
    }
}

/// Max pooling.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    shape: Pool2dShape,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    pub fn new(shape: Pool2dShape) -> Self {
        Self { shape, argmax: Vec::new(), in_shape: Vec::new() }
    }

    /// The pooling geometry.
    pub fn shape(&self) -> &Pool2dShape {
        &self.shape
    }

    /// An inference forward writes no argmax and forgets the input
    /// shape, so a backward after it panics.
    fn forward(&mut self, x: &Tensor<f32>, train: bool, ws: &mut Workspace) -> Tensor<f32> {
        self.in_shape.clear();
        if !train {
            self.argmax.clear();
            return maxpool2d_forward_ws(x, &self.shape, ws, None);
        }
        self.in_shape.extend_from_slice(x.shape());
        maxpool2d_forward_ws(x, &self.shape, ws, Some(&mut self.argmax))
    }

    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        assert!(!self.in_shape.is_empty(), "MaxPool2d::backward before forward");
        maxpool2d_backward_ws(dy, &self.argmax, &self.in_shape, ws)
    }
}

/// Global average pooling `[n, c, h, w] → [n, c]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn forward(&mut self, x: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        self.in_shape.clear();
        self.in_shape.extend_from_slice(x.shape());
        global_avg_pool_forward_ws(x, ws)
    }

    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        assert!(!self.in_shape.is_empty(), "GlobalAvgPool::backward before forward");
        global_avg_pool_backward_ws(dy, &self.in_shape, ws)
    }
}

/// Batch normalization over the channel dimension of NCHW tensors.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor<f32>,
    beta: Tensor<f32>,
    dgamma: Tensor<f32>,
    dbeta: Tensor<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // caches
    xhat: Option<Tensor<f32>>,
    inv_std: Vec<f32>,
    /// Per-channel `(mean, var)` of the last train-mode forward, kept so
    /// a pipelined trainer can replay running-stat updates onto the real
    /// model in virtual-batch order (lane clones compute batches out of
    /// order, but the running-average chain is order-sensitive).
    last_batch_stats: Option<(Vec<f32>, Vec<f32>)>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with `γ = 1`, `β = 0`.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            dgamma: Tensor::zeros(&[channels]),
            dbeta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            xhat: None,
            inv_std: Vec::new(),
            last_batch_stats: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The per-channel `(mean, var)` recorded by the last train-mode
    /// forward (None before the first).
    pub fn batch_stats(&self) -> Option<(&[f32], &[f32])> {
        self.last_batch_stats.as_ref().map(|(m, v)| (m.as_slice(), v.as_slice()))
    }

    /// Per-channel running `(mean, var)` as maintained by train-mode
    /// forwards — the state a checkpoint must carry for eval-mode
    /// inference to be reproducible after a restart.
    pub fn running_stats(&self) -> (&[f32], &[f32]) {
        (&self.running_mean, &self.running_var)
    }

    /// Overwrites the running statistics wholesale (checkpoint restore).
    /// Unlike [`BatchNorm2d::apply_running_update`] this does *not* blend
    /// with the current values.
    ///
    /// # Panics
    ///
    /// If either slice length differs from the channel count.
    pub fn set_running_stats(&mut self, mean: &[f32], var: &[f32]) {
        assert_eq!(mean.len(), self.channels, "running mean length");
        assert_eq!(var.len(), self.channels, "running var length");
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
    }

    /// Folds one batch's `(mean, var)` into the running statistics —
    /// the exact update a train-mode forward performs, exposed so
    /// out-of-order (pipelined) execution can replay updates in batch
    /// order and end bit-for-bit equal to sequential training.
    pub fn apply_running_update(&mut self, mean: &[f32], var: &[f32]) {
        for ci in 0..self.channels {
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
        }
    }

    /// Normalizes with the batch's statistics (`train`, caching `xhat`
    /// for the backward pass) or the running ones (inference: one pass
    /// per channel plane, no `xhat`, and any cached one dropped).
    fn forward(&mut self, x: &Tensor<f32>, train: bool, ws: &mut Workspace) -> Tensor<f32> {
        assert_eq!(x.ndim(), 4, "BatchNorm2d expects NCHW");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.channels, "channel mismatch");
        if let Some(old) = self.xhat.take() {
            ws.give_tensor(old);
        }
        let mut y = ws.take_tensor_dirty(x.shape());
        let eps = self.eps;
        let (gamma, beta) = (self.gamma.as_slice(), self.beta.as_slice());
        if !train {
            self.inv_std.clear();
            self.inv_std.extend(self.running_var.iter().map(|&var| 1.0 / (var + eps).sqrt()));
            let stats = [&self.running_mean[..], &self.inv_std, gamma, beta];
            ops::batchnorm_affine_into(x, stats, &mut y, None);
            return y;
        }
        let plane = h * w;
        let count = (n * plane) as f32;
        // Batch statistics go into the vectors of the last record, so a
        // warm training forward allocates nothing for them.
        let (mut means, mut vars) = self.last_batch_stats.take().unwrap_or_default();
        means.clear();
        vars.clear();
        self.inv_std.clear();
        for ci in 0..c {
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for &v in &x.as_slice()[base..base + plane] {
                    sum += v;
                    sq += v * v;
                }
            }
            let mean = sum / count;
            let var = (sq / count - mean * mean).max(0.0);
            means.push(mean);
            vars.push(var);
            self.inv_std.push(1.0 / (var + eps).sqrt());
        }
        let mut xhat = ws.take_tensor_dirty(x.shape());
        ops::batchnorm_affine_into(x, [&means, &self.inv_std, gamma, beta], &mut y, Some(&mut xhat));
        self.apply_running_update(&means, &vars);
        self.last_batch_stats = Some((means, vars));
        self.xhat = Some(xhat);
        y
    }

    #[allow(clippy::expect_used, reason = "documented: `Layer::backward_ws` panics before a training forward")]
    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        let xhat = self.xhat.as_ref().expect("BatchNorm2d::backward before forward");
        let (n, c, h, w) = (dy.shape()[0], dy.shape()[1], dy.shape()[2], dy.shape()[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut dx = ws.take_tensor(dy.shape());
        for ci in 0..c {
            let g = self.gamma.as_slice()[ci];
            let inv_std = self.inv_std[ci];
            // First pass: per-channel sums.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    let d = dy.as_slice()[i];
                    sum_dy += d;
                    sum_dy_xhat += d * xhat.as_slice()[i];
                }
            }
            self.dbeta.as_mut_slice()[ci] += sum_dy;
            self.dgamma.as_mut_slice()[ci] += sum_dy_xhat;
            // Second pass: dx = g*inv_std/count * (count*dy − Σdy − xhat·Σ(dy·xhat))
            let scale = g * inv_std / count;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    let d = dy.as_slice()[i];
                    let xh = xhat.as_slice()[i];
                    dx.as_mut_slice()[i] = scale * (count * d - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        dx
    }
}

/// Reshapes `[n, ...] → [n, prod(...)]`, remembering the original shape.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn forward(&mut self, x: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        self.in_shape.clear();
        self.in_shape.extend_from_slice(x.shape());
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        ws.take_tensor_copy(&[n, rest], x.as_slice())
    }

    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        assert!(!self.in_shape.is_empty(), "Flatten::backward before forward");
        ws.take_tensor_copy(&self.in_shape, dy.as_slice())
    }
}

/// A residual block: `y = main(x) + shortcut(x)`.
///
/// An empty shortcut is the identity. A projection shortcut (1×1 conv,
/// possibly strided, as in ResNet) is expressed as a one-layer path.
#[derive(Debug, Clone)]
pub struct Residual {
    main: Vec<Layer>,
    shortcut: Vec<Layer>,
}

impl Residual {
    /// Creates a residual block from a main path and a shortcut path.
    ///
    /// # Panics
    ///
    /// Panics if the main path is empty.
    pub fn new(main: Vec<Layer>, shortcut: Vec<Layer>) -> Self {
        assert!(!main.is_empty(), "residual main path must not be empty");
        Self { main, shortcut }
    }

    /// The layers of the main path.
    pub fn main(&self) -> &[Layer] {
        &self.main
    }

    /// The layers of the shortcut path (empty = identity).
    pub fn shortcut(&self) -> &[Layer] {
        &self.shortcut
    }

    fn forward(&mut self, x: &Tensor<f32>, train: bool, ws: &mut Workspace) -> Tensor<f32> {
        let Ok(y) = self.forward_with(x, train, &mut 0, &mut Plain(ws));
        y
    }

    fn backward(&mut self, dy: &Tensor<f32>, ws: &mut Workspace) -> Tensor<f32> {
        let mut next = linear_count(&self.main) + linear_count(&self.shortcut);
        let Ok(dx) = self.backward_with(dy, &mut next, &mut Plain(ws));
        dx
    }

    /// `y = main(x) + shortcut(x)`: main path first, the sum folded in
    /// place.
    #[allow(clippy::expect_used, reason = "`Residual::new` asserts a non-empty main path")]
    fn forward_with<E: LayerExec>(
        &mut self,
        x: &Tensor<f32>,
        train: bool,
        next: &mut usize,
        exec: &mut E,
    ) -> Result<Tensor<f32>, E::Error> {
        let mut m =
            chain_forward(&mut self.main, x, train, next, exec)?.expect("main path nonempty");
        exec.touched(m.len());
        match chain_forward(&mut self.shortcut, x, train, next, exec) {
            Ok(Some(s)) => {
                m.add_assign(&s);
                exec.workspace().give_tensor(s);
            }
            Ok(None) => m.add_assign(x),
            Err(e) => {
                exec.workspace().give_tensor(m);
                return Err(e);
            }
        }
        Ok(m)
    }

    /// The exact reverse of [`Residual::forward_with`]: shortcut first,
    /// then the main path.
    #[allow(clippy::expect_used, reason = "`Residual::new` asserts a non-empty main path")]
    fn backward_with<E: LayerExec>(
        &mut self,
        dy: &Tensor<f32>,
        next: &mut usize,
        exec: &mut E,
    ) -> Result<Tensor<f32>, E::Error> {
        let ds = chain_backward(&mut self.shortcut, dy, next, exec)?;
        let mut dm = match chain_backward(&mut self.main, dy, next, exec) {
            Ok(dm) => dm.expect("main path nonempty"),
            Err(e) => {
                if let Some(s) = ds {
                    exec.workspace().give_tensor(s);
                }
                return Err(e);
            }
        };
        exec.touched(dm.len());
        match ds {
            Some(s) => {
                dm.add_assign(&s);
                exec.workspace().give_tensor(s);
            }
            None => dm.add_assign(dy),
        }
        Ok(dm)
    }
}

/// *The* walk, forward: runs `layers` over `x` on behalf of `exec`,
/// numbering offloaded layers from `*next` and recycling every
/// intermediate activation through the executor's workspace (module
/// docs: order and recycling contracts). `None` for an empty chain (the
/// identity — callers fall back to the borrowed input).
pub(crate) fn chain_forward<E: LayerExec>(
    layers: &mut [Layer],
    x: &Tensor<f32>,
    train: bool,
    next: &mut usize,
    exec: &mut E,
) -> Result<Option<Tensor<f32>>, E::Error> {
    let mut cur: Option<Tensor<f32>> = None;
    for layer in layers {
        let input = cur.as_ref().unwrap_or(x);
        let out = if let Layer::Residual(r) = layer {
            r.forward_with(input, train, next, exec)
        } else if let Some(linear) = layer.as_linear_mut() {
            let ordinal = *next;
            *next += 1;
            exec.linear_forward(ordinal, linear, input, train)
        } else {
            exec.touched(input.len());
            Ok(layer.forward_ws(input, train, exec.workspace()))
        };
        if let Some(prev) = cur.take() {
            exec.workspace().give_tensor(prev);
        }
        cur = Some(out?);
    }
    Ok(cur)
}

/// *The* walk, backward: the exact reverse of [`chain_forward`].
/// `*next` enters as one past the last ordinal of `layers` (see
/// [`linear_count`]) and counts down.
pub(crate) fn chain_backward<E: LayerExec>(
    layers: &mut [Layer],
    dy: &Tensor<f32>,
    next: &mut usize,
    exec: &mut E,
) -> Result<Option<Tensor<f32>>, E::Error> {
    let mut cur: Option<Tensor<f32>> = None;
    for layer in layers.iter_mut().rev() {
        let grad = cur.as_ref().unwrap_or(dy);
        let out = if let Layer::Residual(r) = layer {
            r.backward_with(grad, next, exec)
        } else if let Some(linear) = layer.as_linear_mut() {
            *next -= 1;
            exec.linear_backward(*next, linear, grad)
        } else {
            exec.touched(grad.len());
            Ok(layer.backward_ws(grad, exec.workspace()))
        };
        if let Some(prev) = cur.take() {
            exec.workspace().give_tensor(prev);
        }
        cur = Some(out?);
    }
    Ok(cur)
}

/// Visits every offloaded layer of `layers` with its ordinal, in the
/// walk's forward order, numbering from `*next`; stops at the first
/// error.
pub(crate) fn try_visit_linear<E>(
    layers: &[Layer],
    next: &mut usize,
    f: &mut dyn FnMut(usize, LinearRef<'_>) -> Result<(), E>,
) -> Result<(), E> {
    for layer in layers {
        if let Layer::Residual(r) = layer {
            try_visit_linear(&r.main, next, f)?;
            try_visit_linear(&r.shortcut, next, f)?;
        } else if let Some(linear) = layer.as_linear() {
            f(*next, linear)?;
            *next += 1;
        }
    }
    Ok(())
}

/// [`Layer::copy_state_from`] over two stacks, layer by layer: false if
/// they differ in length, or in any layer's kind or shapes.
pub(crate) fn copy_layers(dst: &mut [Layer], src: &[Layer]) -> bool {
    dst.len() == src.len() && dst.iter_mut().zip(src).all(|(d, s)| d.copy_state_from(s))
}

/// Visits every leaf layer of `layers` in the walk's forward order.
pub(crate) fn visit_leaves_mut(layers: &mut [Layer], f: &mut dyn FnMut(&mut Layer)) {
    for layer in layers {
        if let Layer::Residual(r) = layer {
            visit_leaves_mut(&mut r.main, f);
            visit_leaves_mut(&mut r.shortcut, f);
        } else {
            f(layer);
        }
    }
}

/// How many offloaded layers `layers` holds: where a backward walk
/// starts counting down from.
pub(crate) fn linear_count(layers: &[Layer]) -> usize {
    let mut n = 0;
    let Ok(()) = try_visit_linear::<Infallible>(layers, &mut n, &mut |_, _| Ok(()));
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(
        layer: &mut Layer,
        x: &Tensor<f32>,
        probes: &[usize],
        tol: f32,
    ) {
        // Loss = sum(forward(x)); compare analytic dx against central diff.
        let y = layer.forward(x, true);
        let dy = Tensor::ones(y.shape());
        let dx = layer.backward(&dy);
        let eps = 1e-2;
        for &p in probes {
            let mut xp = x.clone();
            xp.as_mut_slice()[p] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[p] -= eps;
            let lp = layer.forward(&xp, true).sum();
            let lm = layer.forward(&xm, true).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[p]).abs() < tol,
                "probe {p}: num={num} ana={}",
                dx.as_slice()[p]
            );
        }
    }

    #[test]
    fn conv_layer_forward_backward_shapes() {
        let mut l = Layer::Conv2d(Conv2d::new(Conv2dShape::simple(3, 8, 3, 1, 1), 1));
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 13) as f32 * 0.1 - 0.5);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let dx = l.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn conv_layer_input_gradient_numerical() {
        let mut l = Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 3, 3, 1, 1), 2));
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i * 3 + 1) % 11) as f32 * 0.1 - 0.4);
        finite_diff_check(&mut l, &x, &[0, 7, 23, 49], 1e-2);
    }

    #[test]
    fn dense_layer_matches_manual() {
        let mut d = Dense::new(3, 2, 7);
        // Overwrite weights with known values.
        *d.weights_mut() = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        *d.bias_mut() = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let mut l = Layer::Dense(d);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 0.0, -1.0]);
        let y = l.forward(&x, true);
        // y0 = 1 - 3 + 0.5 = -1.5 ; y1 = 4 - 6 - 0.5 = -2.5
        assert_eq!(y.as_slice(), &[-1.5, -2.5]);
    }

    #[test]
    fn dense_gradient_numerical() {
        let mut l = Layer::Dense(Dense::new(4, 3, 9));
        let x = Tensor::from_fn(&[2, 4], |i| (i as f32) * 0.3 - 1.0);
        finite_diff_check(&mut l, &x, &[0, 3, 5, 7], 1e-2);
    }

    #[test]
    fn dense_weight_gradient_accumulates() {
        let mut d = Dense::new(2, 2, 3);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let mut l = Layer::Dense(d.clone());
        let y = l.forward(&x, true);
        l.backward(&Tensor::ones(y.shape()));
        l.backward(&Tensor::ones(y.shape())); // accumulate twice
        let mut grads = Vec::new();
        l.visit_params(&mut |_, g| grads.push(g.clone()));
        // dW = dyᵀ x twice = 2 * [[1,2],[1,2]]
        assert_eq!(grads[0].as_slice(), &[2.0, 4.0, 2.0, 4.0]);
        // keep clippy quiet about the clone above
        let _ = &mut d;
    }

    #[test]
    fn relu_layer_roundtrip() {
        let mut l = Layer::Relu(Relu::new());
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = l.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = l.backward(&Tensor::ones(&[4]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    fn bits(t: &Tensor<f32>) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A training forward and its backward through ReLU and max-pool
    /// give the scalar loops' bits, and an inference forward between
    /// two training ones changes neither.
    #[test]
    fn training_forward_and_backward_are_the_scalar_loops() {
        use dk_linalg::reference::{naive_maxpool2d_forward, naive_relu_backward, naive_relu_in_place};
        let x = Tensor::from_fn(&[2, 3, 9, 8], |i| ((i * 37 % 19) as f32 - 9.0) * 0.25);
        let dy_relu = Tensor::from_fn(x.shape(), |i| (i % 7) as f32 - 3.0);
        let mut relu = Layer::Relu(Relu::new());
        let mut want = x.clone();
        naive_relu_in_place(want.as_mut_slice());
        for train in [true, false, true] {
            assert_eq!(bits(&relu.forward(&x, train)), bits(&want), "train={train}");
        }
        let want_dx = naive_relu_backward(dy_relu.as_slice(), x.as_slice());
        assert_eq!(relu.backward(&dy_relu).as_slice(), &want_dx[..]);

        for s in [Pool2dShape::square(2), Pool2dShape::new((3, 3), (2, 2), (1, 1))] {
            let mut pool = Layer::MaxPool2d(MaxPool2d::new(s));
            let mut want_arg = Vec::new();
            let want = naive_maxpool2d_forward(&x, &s, &mut want_arg);
            let dy = Tensor::from_fn(want.shape(), |i| (i % 5) as f32 + 0.5);
            for train in [true, false, true] {
                assert_eq!(bits(&pool.forward(&x, train)), bits(&want), "{s:?} train={train}");
            }
            let want_dx = maxpool2d_backward_ws(&dy, &want_arg, x.shape(), &mut Workspace::new());
            assert_eq!(bits(&pool.backward(&dy)), bits(&want_dx), "{s:?}");
        }
    }

    /// An inference forward between a training forward and its backward
    /// drops the training caches: the backward panics with the message
    /// `Layer::backward_ws` documents, instead of reading stale data.
    #[test]
    fn inference_forward_drops_the_training_caches() {
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| (i % 9) as f32 - 4.0);
        let layers = [
            (Layer::Relu(Relu::new()), "Relu::backward before forward"),
            (Layer::MaxPool2d(MaxPool2d::new(Pool2dShape::square(2))), "MaxPool2d::backward before forward"),
            (Layer::BatchNorm2d(BatchNorm2d::new(2)), "BatchNorm2d::backward before forward"),
        ];
        for (mut layer, message) in layers {
            let y = layer.forward(&x, true);
            let dy = Tensor::ones(y.shape());
            layer.forward(&x, false);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layer.backward(&dy)))
                .expect_err("a backward after an inference forward must panic");
            let text = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(text.contains(message), "{}: panicked with {text:?}", layer.kind());
            // A training forward re-arms it.
            layer.forward(&x, true);
            assert_eq!(layer.backward(&dy).shape(), x.shape());
        }
    }

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let mut l = Layer::BatchNorm2d(BatchNorm2d::new(2));
        let x = Tensor::from_fn(&[4, 2, 3, 3], |i| (i % 7) as f32 * 2.0 + 1.0);
        let y = l.forward(&x, true);
        // Per-channel mean ~0, var ~1 after normalization.
        let (n, c, plane) = (4, 2, 9);
        for ci in 0..c {
            let mut sum = 0.0;
            let mut sq = 0.0;
            for ni in 0..n {
                for p in 0..plane {
                    let v = y.as_slice()[(ni * c + ci) * plane + p];
                    sum += v;
                    sq += v * v;
                }
            }
            let count = (n * plane) as f32;
            let mean = sum / count;
            let var = sq / count - mean * mean;
            assert!(mean.abs() < 1e-4, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-2, "var={var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut ws = Workspace::new();
        let x = Tensor::from_fn(&[8, 1, 2, 2], |i| i as f32);
        // Train a few times to populate running stats.
        for _ in 0..50 {
            bn.forward(&x, true, &mut ws);
        }
        let y_eval = bn.forward(&x, false, &mut ws);
        let y_train = bn.forward(&x, true, &mut ws);
        // Same input: eval path should now closely match train path.
        assert!(y_eval.max_abs_diff(&y_train) < 0.2);
    }

    #[test]
    fn batchnorm_gradient_numerical() {
        let mut l = Layer::BatchNorm2d(BatchNorm2d::new(2));
        let x = Tensor::from_fn(&[2, 2, 2, 2], |i| ((i * 5 + 2) % 9) as f32 * 0.25);
        // Loss = sum(y * mask) to break the symmetry (sum(y) has zero grad
        // through normalization).
        let y = l.forward(&x, true);
        let mask = Tensor::from_fn(y.shape(), |i| if i % 3 == 0 { 1.0 } else { -0.5 });
        let dx = l.backward(&mask);
        let eps = 1e-2;
        for p in [0usize, 5, 9, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[p] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[p] -= eps;
            let lp: f32 = l
                .forward(&xp, true)
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = l
                .forward(&xm, true)
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx.as_slice()[p]).abs() < 1e-2, "p={p} num={num} ana={}", dx.as_slice()[p]);
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut l = Layer::Flatten(Flatten::new());
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[2, 12]);
        let dx = l.backward(&y);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dx.as_slice(), x.as_slice());
    }

    #[test]
    fn residual_identity_adds_input() {
        // main = ReLU, shortcut = identity: y = relu(x) + x.
        let mut l = Layer::Residual(Residual::new(vec![Layer::Relu(Relu::new())], vec![]));
        let x = Tensor::from_vec(&[1, 1, 1, 2], vec![-2.0, 3.0]);
        let y = l.forward(&x, true);
        assert_eq!(y.as_slice(), &[-2.0, 6.0]);
        let dx = l.backward(&Tensor::ones(y.shape()));
        // d/dx (relu(x) + x): 1 for x<0, 2 for x>0.
        assert_eq!(dx.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn residual_projection_shortcut_shapes() {
        let main = vec![
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(4, 8, 3, 2, 1), 10)),
            Layer::Relu(Relu::new()),
        ];
        let shortcut = vec![Layer::Conv2d(Conv2d::new(Conv2dShape::simple(4, 8, 1, 2, 0), 11))];
        let mut l = Layer::Residual(Residual::new(main, shortcut));
        let x = Tensor::from_fn(&[1, 4, 8, 8], |i| (i % 5) as f32 * 0.1);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let dx = l.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn visit_params_counts() {
        let mut count = 0;
        let mut l = Layer::Residual(Residual::new(
            vec![
                Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 2, 3, 1, 1), 1)),
                Layer::BatchNorm2d(BatchNorm2d::new(2)),
            ],
            vec![Layer::Conv2d(Conv2d::new(Conv2dShape::simple(2, 2, 1, 1, 0), 2))],
        ));
        l.visit_params(&mut |_, _| count += 1);
        // conv(w,b) + bn(gamma,beta) + conv(w,b) = 6
        assert_eq!(count, 6);
    }

    /// A test double for the walk: the plain kernels over its own pool,
    /// recording the ordinals it is handed and failing on request.
    #[derive(Default)]
    struct Recorder {
        ws: Workspace,
        /// `(ordinal, first weight)` of every forward linear step.
        forward: Vec<(usize, f32)>,
        backward: Vec<(usize, f32)>,
        fail_forward_at: Option<usize>,
        fail_backward_at: Option<usize>,
    }

    impl LayerExec for Recorder {
        type Error = usize;

        fn workspace(&mut self) -> &mut Workspace {
            &mut self.ws
        }

        fn linear_forward(
            &mut self,
            ordinal: usize,
            layer: LinearMut<'_>,
            x: &Tensor<f32>,
            _train: bool,
        ) -> Result<Tensor<f32>, usize> {
            self.forward.push((ordinal, layer.weights().as_slice()[0]));
            if self.fail_forward_at == Some(ordinal) {
                return Err(ordinal);
            }
            Ok(layer.forward(x, &mut self.ws))
        }

        fn linear_backward(
            &mut self,
            ordinal: usize,
            layer: LinearMut<'_>,
            dy: &Tensor<f32>,
        ) -> Result<Tensor<f32>, usize> {
            self.backward.push((ordinal, layer.weights().as_slice()[0]));
            if self.fail_backward_at == Some(ordinal) {
                return Err(ordinal);
            }
            Ok(layer.backward(dy, &mut self.ws))
        }
    }

    /// A conv stem; a residual block whose main path nests an
    /// identity-shortcut block after its first conv and whose shortcut
    /// is a two-conv projection; a dense head. Returns the model and
    /// the first weight of every linear layer in the order the contract
    /// promises: list order, main path before shortcut.
    fn nested_model() -> (crate::Sequential, Vec<f32>) {
        let conv = |cin, cout, k, seed| Conv2d::new(Conv2dShape::simple(cin, cout, k, 1, k / 2), seed);
        let (stem, m0, i0, i1, m1) =
            (conv(2, 4, 3, 1), conv(4, 4, 3, 2), conv(4, 4, 3, 3), conv(4, 4, 3, 4), conv(4, 6, 3, 5));
        let (s0, s1) = (conv(4, 5, 1, 6), conv(5, 6, 1, 7));
        let head = Dense::new(6 * 4 * 4, 3, 8);
        let order: Vec<f32> = [&stem, &m0, &i0, &i1, &m1, &s0, &s1]
            .iter()
            .map(|c| c.weights().as_slice()[0])
            .chain([head.weights().as_slice()[0]])
            .collect();
        let mut distinct = order.clone();
        distinct.sort_by(f32::total_cmp);
        distinct.dedup();
        assert_eq!(distinct.len(), order.len(), "test needs distinguishable layers");
        let identity_block = Residual::new(
            vec![Layer::Conv2d(i0), Layer::Relu(Relu::new()), Layer::Conv2d(i1)],
            vec![],
        );
        let block = Residual::new(
            vec![
                Layer::Conv2d(m0),
                Layer::Relu(Relu::new()),
                Layer::Residual(identity_block),
                Layer::Conv2d(m1),
            ],
            vec![Layer::Conv2d(s0), Layer::Relu(Relu::new()), Layer::Conv2d(s1)],
        );
        let model = crate::Sequential::new(vec![
            Layer::Conv2d(stem),
            Layer::Relu(Relu::new()),
            Layer::Residual(block),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(head),
        ]);
        (model, order)
    }

    fn nested_input() -> Tensor<f32> {
        Tensor::from_fn(&[2, 2, 4, 4], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1)
    }

    /// The order contract: forward ordinals are `0..n` in list order,
    /// main path before shortcut; backward is the exact reverse with
    /// the same ordinals; both visitors enumerate in forward order.
    #[test]
    fn walk_numbers_linear_layers_in_list_order_main_before_shortcut() {
        let (mut model, order) = nested_model();
        let want: Vec<(usize, f32)> = order.iter().copied().enumerate().collect();
        let mut exec = Recorder::default();
        let x = nested_input();
        let y = model.forward_with(&x, true, &mut exec).unwrap();
        assert_eq!(exec.forward, want);
        // The recording executor runs the plain kernels: same bits.
        let (mut plain_model, _) = nested_model();
        assert_eq!(y, plain_model.forward(&x, true));
        let dx = model.backward_with(&Tensor::ones(y.shape()), &mut exec).unwrap();
        let reversed: Vec<(usize, f32)> = want.iter().rev().copied().collect();
        assert_eq!(exec.backward, reversed);
        assert_eq!(dx, plain_model.backward(&Tensor::ones(y.shape())));
        assert_eq!(model.grad_vector(), plain_model.grad_vector());

        let mut visited = Vec::new();
        let Ok(()) = model.try_visit_linear(|ordinal, layer| {
            visited.push((ordinal, layer.weights().as_slice()[0]));
            Ok::<(), Infallible>(())
        });
        assert_eq!(visited, want);
        let mut leaves = Vec::new();
        model.visit_leaf_layers_mut(&mut |l| {
            leaves.extend(l.as_linear().map(|lin| lin.weights().as_slice()[0]));
        });
        assert_eq!(leaves, order);
    }

    /// The recycling contract: a pass that fails in the middle of a
    /// shortcut path — main-path output in hand, shortcut intermediate
    /// in flight — returns every intermediate to the pool.
    #[test]
    fn failed_walk_leaves_the_pool_where_a_successful_one_does() {
        let (mut model, _) = nested_model();
        let mut exec = Recorder::default();
        let x = nested_input();
        let warm = |exec: &mut Recorder, model: &mut crate::Sequential| {
            let y = model.forward_with(&x, true, exec).unwrap();
            let dx = model.backward_with(&Tensor::ones(y.shape()), exec).unwrap();
            exec.ws.give_tensor(dx);
            exec.ws.give_tensor(y);
        };
        warm(&mut exec, &mut model);
        warm(&mut exec, &mut model);
        let settled = exec.ws.stats();

        // Ordinal 6 is the second linear layer of the shortcut path.
        exec.fail_forward_at = Some(6);
        assert_eq!(model.forward_with(&x, true, &mut exec), Err(6));
        assert_eq!(exec.ws.stats().live_bytes, settled.live_bytes, "forward abort leaked");
        exec.fail_forward_at = None;

        // Backward meets the shortcut first; ordinal 5 is its second
        // step, and after it the main path fails with `ds` in hand.
        let y = model.forward_with(&x, true, &mut exec).unwrap();
        for at in [5, 3] {
            exec.fail_backward_at = Some(at);
            assert_eq!(model.backward_with(&Tensor::ones(y.shape()), &mut exec), Err(at));
        }
        exec.ws.give_tensor(y);
        assert_eq!(exec.ws.stats().live_bytes, settled.live_bytes, "backward abort leaked");
        exec.fail_backward_at = None;

        // Nothing was dropped on the way: a further pass finds every
        // buffer it needs in the pool.
        warm(&mut exec, &mut model);
        assert_eq!(exec.ws.stats().misses, settled.misses, "an aborted pass drained the pool");
    }

    #[test]
    fn is_linear_classification() {
        assert!(Layer::Conv2d(Conv2d::new(Conv2dShape::simple(1, 1, 1, 1, 0), 0)).is_linear());
        assert!(Layer::Dense(Dense::new(1, 1, 0)).is_linear());
        assert!(!Layer::Relu(Relu::new()).is_linear());
        assert!(!Layer::BatchNorm2d(BatchNorm2d::new(1)).is_linear());
    }
}
