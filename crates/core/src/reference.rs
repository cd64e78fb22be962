//! Quantization-matched clear-text reference execution.
//!
//! DarKnight's correctness claim (§4.1–4.2) is that the masking adds
//! *zero* numerical error: encoding, offloaded bilinear ops, and
//! decoding are exact in `F_p`, so the only approximation in the whole
//! private pipeline is Algorithm 1's fixed-point quantization — which a
//! non-private implementation using the same quantization would pay
//! identically.
//!
//! [`QuantizedReference`] makes that claim testable. It executes a model
//! with the *same* per-layer normalize → quantize → field-kernel →
//! dequantize sequence as [`crate::session::DarknightSession`], but in
//! the clear: no noise, no encoding matrix, no GPU cluster. It shares
//! with the session what is shared by design — the quantization
//! (`dk_field`), the traversal ([`dk_nn`]'s walk) and the job kernels
//! (`dk_gpu`) — and keeps its own per-layer step. A private
//! session and this reference must agree **bit for bit** on every
//! activation and every gradient (the integration tests assert exactly
//! that); any drift between the two would indicate an error introduced
//! by the masking machinery itself.
//!
//! Comparisons against an unquantized float model, by contrast, see
//! genuine fixed-point noise — including occasional ReLU gates flipping
//! on near-zero pre-activations, which perturbs backward gradients by
//! far more than one quantization step. That noise belongs to
//! Algorithm 1, not to DarKnight's privacy layer, and this module is
//! the oracle that separates the two.

use crate::error::DarknightError;
use dk_field::{F25, QuantConfig};
use dk_gpu::LinearOp;
use dk_linalg::{Tensor, Workspace};
use dk_nn::layers::{LayerExec, LinearMut};
use dk_nn::Sequential;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-linear-layer state retained between forward and backward.
#[derive(Debug, Clone)]
struct RefCtx {
    norm_x: f32,
    norm_w: f32,
    input_shape: Vec<usize>,
    weights_q: Arc<Tensor<F25>>,
    /// The quantized inputs, one `[1, ...]` tensor per sample.
    inputs_q: Vec<Tensor<F25>>,
}

/// Clear-text executor with session-identical quantization (see module
/// docs).
#[derive(Debug)]
pub struct QuantizedReference {
    k: usize,
    quant: QuantConfig,
    /// Forward contexts by the walk's layer ordinal.
    ctxs: HashMap<usize, RefCtx>,
    /// Where the walk's intermediates, and this executor's outputs,
    /// cycle.
    ws: Workspace,
}

impl QuantizedReference {
    /// Creates a reference executor for virtual batches of size `k`
    /// under the given quantization.
    pub fn new(k: usize, quant: QuantConfig) -> Self {
        Self { k, quant, ctxs: HashMap::new(), ws: Workspace::new() }
    }

    /// Forward pass with the session's exact quantization pipeline.
    ///
    /// # Errors
    ///
    /// [`DarknightError::BatchShape`] on a batch-size mismatch, or a
    /// quantization failure.
    pub fn forward(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        train: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        if x.shape()[0] != self.k {
            return Err(DarknightError::BatchShape { expected: self.k, actual: x.shape()[0] });
        }
        self.ctxs.clear();
        model.forward_with(x, train, self)
    }

    /// The serving-verification oracle: runs a single sample (no batch
    /// dimension) through a fresh `k = 1` reference on a clone of
    /// `model`, returning the output with the batch dimension stripped.
    ///
    /// `dk_serve` guarantees every served response is bit-for-bit equal
    /// to this function's result for the same sample and quantization —
    /// embedders (and this workspace's own tests/examples) use it to
    /// audit a serving deployment end to end.
    ///
    /// # Errors
    ///
    /// Quantization failure (non-finite input).
    pub fn forward_solo(
        model: &Sequential,
        x: &Tensor<f32>,
        quant: QuantConfig,
    ) -> Result<Tensor<f32>, DarknightError> {
        let mut shape = vec![1];
        shape.extend_from_slice(x.shape());
        let x1 = Tensor::from_vec(&shape, x.as_slice().to_vec());
        let mut reference = Self::new(1, quant);
        let mut model = model.clone();
        let y = reference.forward(&mut model, &x1, false)?;
        let row_shape = y.shape()[1..].to_vec();
        Ok(Tensor::from_vec(&row_shape, y.into_vec()))
    }

    /// Backward pass from the loss gradient; accumulates parameter
    /// gradients exactly as the private session does.
    ///
    /// # Errors
    ///
    /// Quantization failure, or
    /// [`DarknightError::MissingForwardContext`] if no forward pass
    /// left a context for a layer.
    pub fn backward(
        &mut self,
        model: &mut Sequential,
        dloss: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        model.backward_with(dloss, self)
    }
}

/// The reference's per-layer step: the session's flow minus the
/// masking. Each sample runs the *explicit* job the session's `K+M`
/// encodings stand in for, on the very kernels a worker runs.
impl LayerExec for QuantizedReference {
    type Error = DarknightError;

    fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Quantizes weights and the whole input batch (one shared scale,
    /// as the virtual batch requires), runs the forward job per sample,
    /// dequantizes and adds the bias.
    fn linear_forward(
        &mut self,
        ordinal: usize,
        layer: LinearMut<'_>,
        x: &Tensor<f32>,
        _train: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        let op = LinearOp::new(layer.conv_shape(), layer.weights().shape());
        let (wq, norm_w) = self.quant.normalize_quantize(layer.weights().as_slice())?;
        let weights_q = Arc::new(Tensor::from_vec(layer.weights().shape(), wq));
        let (xq, norm_x) = self.quant.normalize_quantize(x.as_slice())?;
        let rest: usize = x.shape()[1..].iter().product();
        let mut sample_shape = x.shape().to_vec();
        sample_shape[0] = 1;
        let inputs_q: Vec<Tensor<F25>> = (0..self.k)
            .map(|i| Tensor::from_vec(&sample_shape, xq[i * rest..(i + 1) * rest].to_vec()))
            .collect();
        let mut shape = op.sample_output_shape(x.shape(), &mut [0; 4]).to_vec();
        shape[0] = self.k;
        let mut y = self.ws.take_tensor(&shape);
        for (i, xt) in inputs_q.iter().enumerate() {
            let yq = op.forward_job(weights_q.clone(), xt.clone()).execute();
            self.quant.dequantize_product_slice_into(
                yq.as_slice(),
                norm_w * norm_x,
                y.batch_item_mut(i),
            );
        }
        op.add_bias(&mut y, layer.bias().as_slice());
        let ctx = RefCtx { norm_x, norm_w, input_shape: x.shape().to_vec(), weights_q, inputs_q };
        self.ctxs.insert(ordinal, ctx);
        Ok(y)
    }

    fn linear_backward(
        &mut self,
        ordinal: usize,
        mut layer: LinearMut<'_>,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let op = LinearOp::new(layer.conv_shape(), layer.weights().shape());
        let mut db = vec![0.0; layer.bias().len()];
        op.bias_grad_into(dy, &mut db);
        layer.accumulate_bias_grad(&db);
        let Some(ctx) = self.ctxs.remove(&ordinal) else {
            return Err(DarknightError::MissingForwardContext { layer_id: ordinal as u64 });
        };
        let (dq, norm_d) = self.quant.normalize_quantize(dy.as_slice())?;
        let delta_q = Tensor::from_vec(dy.shape(), dq);
        // Aggregate ∇W = Σ_i ⟨δ_i, x_i⟩ in the field — the exact value
        // the session recovers via Σ_j γ_j·Eq_j (Eq. 6).
        let mut sample_shape = dy.shape().to_vec();
        sample_shape[0] = 1;
        let mut grad_field = Tensor::<F25>::zeros(layer.weights().shape());
        for (i, xt) in ctx.inputs_q.iter().enumerate() {
            let dt = Tensor::from_vec(&sample_shape, delta_q.batch_item(i).to_vec());
            let gw_i = op.weight_grad_job(dt, xt.clone()).execute();
            for (a, &v) in grad_field.as_mut_slice().iter_mut().zip(gw_i.as_slice()) {
                *a += v;
            }
        }
        let mut gw = Tensor::zeros(grad_field.shape());
        self.quant.dequantize_product_slice_into(
            grad_field.as_slice(),
            norm_d * ctx.norm_x,
            gw.as_mut_slice(),
        );
        layer.accumulate_weight_grad(&gw);
        // Data gradient: the same whole-batch job the session offloads.
        let dx_field =
            op.backward_data_job(ctx.weights_q, delta_q, &ctx.input_shape).execute();
        let mut dx = self.ws.take_tensor(dx_field.shape());
        self.quant.dequantize_product_slice_into(
            dx_field.as_slice(),
            norm_d * ctx.norm_w,
            dx.as_mut_slice(),
        );
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DarknightConfig;
    use crate::session::DarknightSession;
    use dk_gpu::GpuCluster;
    use dk_nn::arch::{mini_mobilenet, mini_resnet, mini_vgg};
    use dk_nn::loss::softmax_cross_entropy;

    /// The reference must agree bit-for-bit with the private session on
    /// logits, gradients, and dx — the module's whole reason to exist.
    #[test]
    fn reference_matches_private_session_exactly() {
        for (build, name) in [
            (mini_vgg as fn(usize, usize, u64) -> Sequential, "vgg"),
            (mini_resnet, "resnet"),
            (mini_mobilenet, "mobilenet"),
        ] {
            let x = Tensor::<f32>::from_fn(&[2, 3, 8, 8], |i| ((i * 5 % 19) as f32 - 9.0) * 0.05);
            let labels = [1usize, 2];

            let cfg = DarknightConfig::new(2, 1).with_seed(31);
            let cluster = GpuCluster::honest(cfg.workers_required(), 32);
            let mut sess = DarknightSession::new(cfg, cluster).unwrap();
            let mut priv_model = build(8, 4, 7);
            priv_model.zero_grad();
            sess.begin_virtual_batch();
            let logits_p = sess.private_forward(&mut priv_model, &x, true).unwrap();
            let (_, dlp) = softmax_cross_entropy(&logits_p, &labels);
            let dx_p = sess.private_backward(&mut priv_model, &dlp).unwrap();

            let mut reference = QuantizedReference::new(2, cfg.quant());
            let mut ref_model = build(8, 4, 7);
            ref_model.zero_grad();
            let logits_r = reference.forward(&mut ref_model, &x, true).unwrap();
            let (_, dlr) = softmax_cross_entropy(&logits_r, &labels);
            let dx_r = reference.backward(&mut ref_model, &dlr).unwrap();

            assert_eq!(logits_p.max_abs_diff(&logits_r), 0.0, "{name}: logits diverged");
            assert_eq!(dx_p.max_abs_diff(&dx_r), 0.0, "{name}: dx diverged");
            let mut pg = Vec::new();
            priv_model.visit_params(&mut |_, g| pg.push(g.clone()));
            let mut rg = Vec::new();
            ref_model.visit_params(&mut |_, g| rg.push(g.clone()));
            assert_eq!(pg.len(), rg.len());
            for (i, (a, b)) in pg.iter().zip(&rg).enumerate() {
                assert_eq!(a.max_abs_diff(b), 0.0, "{name}: grad {i} diverged");
            }
        }
    }

    #[test]
    fn backward_before_forward_is_a_typed_error() {
        let mut reference = QuantizedReference::new(2, QuantConfig::new(6));
        let mut model = mini_vgg(8, 4, 1);
        let dloss = Tensor::<f32>::from_fn(&[2, 4], |i| i as f32 * 0.1);
        let err = reference.backward(&mut model, &dloss).unwrap_err();
        assert!(matches!(err, DarknightError::MissingForwardContext { .. }), "{err}");
    }

    #[test]
    fn wrong_batch_size_rejected() {
        let mut reference = QuantizedReference::new(2, QuantConfig::new(6));
        let mut model = mini_vgg(8, 4, 1);
        let x = Tensor::<f32>::from_fn(&[3, 3, 8, 8], |_| 0.1);
        assert!(matches!(
            reference.forward(&mut model, &x, false),
            Err(DarknightError::BatchShape { expected: 2, actual: 3 })
        ));
    }
}
