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
//! the clear: no noise, no encoding matrix, no GPU cluster. A private
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
use dk_field::{F25, P25, QuantConfig};
use dk_linalg::conv::{conv2d_backward_input, conv2d_backward_weight, conv2d_forward};
use dk_linalg::{matmul, matmul_a_bt, matmul_at_b, ops, Tensor};
use dk_nn::layers::{Conv2d, Dense, Layer};
use dk_nn::Sequential;
use std::collections::HashMap;

/// Max-abs normalization followed by Algorithm 1 quantization — the
/// shared implementation used by both the private session and the
/// clear-text reference, so the two can never diverge numerically.
pub(crate) fn normalize_quantize(
    quant: QuantConfig,
    vals: &[f32],
) -> Result<(Vec<F25>, f32), DarknightError> {
    let mut out = Vec::with_capacity(vals.len());
    let norm = normalize_quantize_into(quant, vals, &mut out)?;
    Ok((out, norm))
}

/// [`normalize_quantize`] writing into a caller-provided (cleared)
/// buffer — the allocation-free form the session hot path uses with
/// workspace-recycled buffers. Element math is shared, so the two forms
/// can never diverge numerically.
pub(crate) fn normalize_quantize_into(
    quant: QuantConfig,
    vals: &[f32],
    out: &mut Vec<F25>,
) -> Result<f32, DarknightError> {
    let max_abs = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let norm = if max_abs > 0.0 { max_abs } else { 1.0 };
    let inv = 1.0 / norm;
    out.clear();
    quant.quantize_slice_into::<P25>(vals, inv, out)?;
    Ok(norm)
}

/// Per-linear-layer state retained between forward and backward.
#[derive(Debug, Clone)]
struct RefCtx {
    norm_x: f32,
    norm_w: f32,
    input_shape: Vec<usize>,
    weights_q: Tensor<F25>,
    inputs_q: Vec<Vec<F25>>,
}

/// Clear-text executor with session-identical quantization (see module
/// docs).
#[derive(Debug)]
pub struct QuantizedReference {
    k: usize,
    quant: QuantConfig,
    ctxs: HashMap<u64, RefCtx>,
    next_id: u64,
}

impl QuantizedReference {
    /// Creates a reference executor for virtual batches of size `k`
    /// under the given quantization.
    pub fn new(k: usize, quant: QuantConfig) -> Self {
        Self { k, quant, ctxs: HashMap::new(), next_id: 0 }
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
        self.next_id = 0;
        self.forward_layers(model.layers_mut(), x.clone(), train)
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
    /// Quantization failure.
    pub fn backward(
        &mut self,
        model: &mut Sequential,
        dloss: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.backward_layers(model.layers_mut(), dloss.clone())
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn untake_id(&mut self) -> u64 {
        debug_assert!(self.next_id > 0, "backward pass saw more linear layers than forward");
        self.next_id -= 1;
        self.next_id
    }

    fn forward_layers(
        &mut self,
        layers: &mut [Layer],
        mut x: Tensor<f32>,
        train: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        for layer in layers.iter_mut() {
            x = match layer {
                Layer::Conv2d(conv) => {
                    let id = self.take_id();
                    self.forward_conv(id, conv, &x)?
                }
                Layer::Dense(dense) => {
                    let id = self.take_id();
                    self.forward_dense(id, dense, &x)?
                }
                Layer::Residual(res) => {
                    let main = self.forward_layers(res.main_mut(), x.clone(), train)?;
                    let short = if res.shortcut().is_empty() {
                        x.clone()
                    } else {
                        self.forward_layers(res.shortcut_mut(), x.clone(), train)?
                    };
                    main.add(&short)
                }
                other => other.forward(&x, train),
            };
        }
        Ok(x)
    }

    /// Quantizes weights and the whole input batch (one shared scale,
    /// as the virtual batch requires), runs the field kernel per
    /// sample, and dequantizes — the session's flow minus the masking.
    fn quantize_layer_io(
        &self,
        x: &Tensor<f32>,
        weights: &Tensor<f32>,
        weight_shape: &[usize],
    ) -> Result<RefCtx, DarknightError> {
        let (wq_flat, norm_w) = normalize_quantize(self.quant, weights.as_slice())?;
        let weights_q = Tensor::from_vec(weight_shape, wq_flat);
        let (xq_flat, norm_x) = normalize_quantize(self.quant, x.as_slice())?;
        let rest: usize = x.shape()[1..].iter().product();
        let inputs_q: Vec<Vec<F25>> =
            (0..self.k).map(|i| xq_flat[i * rest..(i + 1) * rest].to_vec()).collect();
        Ok(RefCtx {
            norm_x,
            norm_w,
            input_shape: x.shape().to_vec(),
            weights_q,
            inputs_q,
        })
    }

    fn forward_conv(
        &mut self,
        layer_id: u64,
        conv: &mut Conv2d,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let shape = *conv.shape();
        let ctx = self.quantize_layer_io(x, conv.weights(), &shape.weight_shape())?;
        let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
        let q = self.quant;
        let scale = ctx.norm_w * ctx.norm_x;
        let mut y: Option<Tensor<f32>> = None;
        for (i, xq) in ctx.inputs_q.iter().enumerate() {
            let xt = Tensor::from_vec(&[1, c, h, w], xq.clone());
            let yq = conv2d_forward(&xt, &ctx.weights_q, &shape);
            let out =
                y.get_or_insert_with(|| Tensor::zeros(&[self.k, yq.shape()[1], yq.shape()[2], yq.shape()[3]]));
            q.dequantize_product_slice_into(yq.as_slice(), scale, out.batch_item_mut(i));
        }
        let mut y = y.expect("k > 0");
        ops::add_bias_nchw(&mut y, conv.bias().as_slice());
        self.ctxs.insert(layer_id, ctx);
        Ok(y)
    }

    fn forward_dense(
        &mut self,
        layer_id: u64,
        dense: &mut Dense,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let in_f = dense.in_features();
        let out_f = dense.out_features();
        let ctx = self.quantize_layer_io(x, dense.weights(), &[out_f, in_f])?;
        let q = self.quant;
        let scale = ctx.norm_w * ctx.norm_x;
        let mut y = Tensor::zeros(&[self.k, out_f]);
        for (i, xq) in ctx.inputs_q.iter().enumerate() {
            let yq = matmul_a_bt(xq, ctx.weights_q.as_slice(), 1, in_f, out_f);
            q.dequantize_product_slice_into(&yq, scale, y.batch_item_mut(i));
        }
        ops::add_bias_rows(&mut y, dense.bias().as_slice());
        self.ctxs.insert(layer_id, ctx);
        Ok(y)
    }

    fn backward_layers(
        &mut self,
        layers: &mut [Layer],
        mut dy: Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        for layer in layers.iter_mut().rev() {
            dy = match layer {
                Layer::Conv2d(conv) => {
                    let id = self.untake_id();
                    self.backward_conv(id, conv, &dy)?
                }
                Layer::Dense(dense) => {
                    let id = self.untake_id();
                    self.backward_dense(id, dense, &dy)?
                }
                Layer::Residual(res) => {
                    let ds = if res.shortcut().is_empty() {
                        dy.clone()
                    } else {
                        self.backward_layers(res.shortcut_mut(), dy.clone())?
                    };
                    let dm = self.backward_layers(res.main_mut(), dy.clone())?;
                    dm.add(&ds)
                }
                other => other.backward(&dy),
            };
        }
        Ok(dy)
    }

    fn backward_conv(
        &mut self,
        layer_id: u64,
        conv: &mut Conv2d,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let bg = ops::bias_grad_nchw(dy);
        conv.accumulate_bias_grad(&Tensor::from_vec(&[bg.len()], bg));
        let ctx = self.ctxs.remove(&layer_id).expect("backward without forward context");
        let shape = *conv.shape();
        let input_hw = (ctx.input_shape[2], ctx.input_shape[3]);
        let (dq_flat, norm_d) = normalize_quantize(self.quant, dy.as_slice())?;
        let delta_q = Tensor::from_vec(dy.shape(), dq_flat);
        // Aggregate ∇W = Σ_i ⟨δ_i, x_i⟩ in the field — the exact value
        // the session recovers via Σ_j γ_j·Eq_j (Eq. 6).
        let enc_shape = [1, ctx.input_shape[1], ctx.input_shape[2], ctx.input_shape[3]];
        let mut grad_field: Option<Tensor<F25>> = None;
        for (i, xq) in ctx.inputs_q.iter().enumerate() {
            let xt = Tensor::from_vec(&enc_shape, xq.clone());
            let mut dshape = dy.shape().to_vec();
            dshape[0] = 1;
            let dt = Tensor::from_vec(&dshape, delta_q.batch_item(i).to_vec());
            let gw_i = conv2d_backward_weight(&dt, &xt, &shape);
            match &mut grad_field {
                None => grad_field = Some(gw_i),
                Some(acc) => {
                    for (a, &v) in acc.as_mut_slice().iter_mut().zip(gw_i.as_slice()) {
                        *a += v;
                    }
                }
            }
        }
        let grad_field = grad_field.expect("k > 0");
        let q = self.quant;
        let wscale = norm_d * ctx.norm_x;
        let mut gw = Tensor::zeros(&shape.weight_shape());
        q.dequantize_product_slice_into(grad_field.as_slice(), wscale, gw.as_mut_slice());
        conv.accumulate_weight_grad(&gw);
        // Data gradient: the same whole-batch kernel the offloaded job
        // runs.
        let dx_field = conv2d_backward_input(&delta_q, &ctx.weights_q, &shape, input_hw);
        let dscale = norm_d * ctx.norm_w;
        let mut dx = Tensor::zeros(dx_field.shape());
        q.dequantize_product_slice_into(dx_field.as_slice(), dscale, dx.as_mut_slice());
        Ok(dx)
    }

    fn backward_dense(
        &mut self,
        layer_id: u64,
        dense: &mut Dense,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let bg = ops::bias_grad_rows(dy);
        dense.accumulate_bias_grad(&Tensor::from_vec(&[bg.len()], bg));
        let ctx = self.ctxs.remove(&layer_id).expect("backward without forward context");
        let in_f = dense.in_features();
        let out_f = dense.out_features();
        let (dq_flat, norm_d) = normalize_quantize(self.quant, dy.as_slice())?;
        let delta_q = Tensor::from_vec(dy.shape(), dq_flat);
        let mut grad_field = vec![F25::ZERO; out_f * in_f];
        for (i, xq) in ctx.inputs_q.iter().enumerate() {
            let gw_i = matmul_at_b(delta_q.batch_item(i), xq, out_f, 1, in_f);
            for (a, v) in grad_field.iter_mut().zip(gw_i) {
                *a += v;
            }
        }
        let q = self.quant;
        let wscale = norm_d * ctx.norm_x;
        let mut gw = Tensor::zeros(&[out_f, in_f]);
        q.dequantize_product_slice_into(&grad_field, wscale, gw.as_mut_slice());
        dense.accumulate_weight_grad(&gw);
        let dx_field = matmul(delta_q.as_slice(), ctx.weights_q.as_slice(), self.k, out_f, in_f);
        let dscale = norm_d * ctx.norm_w;
        let mut dx = Tensor::zeros(&[self.k, in_f]);
        q.dequantize_product_slice_into(&dx_field, dscale, dx.as_mut_slice());
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
