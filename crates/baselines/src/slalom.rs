//! Slalom (Tramèr & Boneh, ICLR'19) — blinded inference with
//! precomputed unblinding factors.
//!
//! Slalom blinds each activation with an additive one-time pad
//! `x̄ = x + r` in `F_p`, offloads `⟨W, x̄⟩` to the GPU and unblinds by
//! subtracting the **precomputed** `u = ⟨W, r⟩` inside the enclave. The
//! `(r, u)` pairs are generated ahead of time, sealed, and parked in
//! untrusted memory (the paper's §7.2 description: "Slalom's
//! implementation encrypts W·r and stores them outside of SGX memory").
//!
//! Two structural properties matter for DarKnight's comparison, and both
//! are reproduced faithfully:
//!
//! 1. **Precomputation is consumable**: each inference consumes one
//!    `(r, u)` pair per linear layer; an exhausted pool is an error.
//! 2. **Training is impossible**: `u = ⟨W, r⟩` is tied to the weights.
//!    After any weight update the pool is stale — detected here by a
//!    weight fingerprint — and recomputing `u` inside the enclave would
//!    be exactly the linear work Slalom set out to offload.
//!
//! Integrity ("Slalom+Integrity" in Fig. 6a) uses a Freivalds-style
//! random projection: the enclave keeps a secret vector `s`, precomputes
//! the projected weights once, and checks `sᵀ·ȳ = (sᵀW)·x̄` per layer.

use dk_field::{F25, FieldRng, P25, QuantConfig};
use dk_gpu::{GpuCluster, LinearOp};
use dk_linalg::conv::conv2d_forward_ws;
use dk_linalg::{matmul_at_b_into, Conv2dShape, Tensor, Workspace};
use dk_nn::layers::{LayerExec, LinearMut};
use dk_nn::Sequential;
use dk_tee::crypto::SealedBlob;
use dk_tee::{Enclave, EpcConfig, UntrustedStore};
use std::collections::HashMap;
use std::sync::Arc;

/// Slalom failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlalomError {
    /// `precompute` was never run for this model.
    NotPrecomputed {
        /// The offending linear layer index.
        layer: u64,
    },
    /// The `(r, u)` pool for a layer ran dry.
    PrecomputeExhausted {
        /// The offending linear layer index.
        layer: u64,
    },
    /// The model weights changed since precomputation — the structural
    /// reason Slalom cannot train (§7.2).
    StaleWeights {
        /// The offending linear layer index.
        layer: u64,
    },
    /// The Freivalds check failed: the GPU returned a wrong product.
    IntegrityViolation {
        /// The offending linear layer index.
        layer: u64,
    },
    /// Quantization failure.
    Quant(dk_field::QuantError),
    /// Sealed blob failed authentication.
    Seal,
    /// What this Slalom port does not run: residual blocks (the
    /// original targets VGG/MobileNet-style sequential models) and any
    /// backward pass (§7.2).
    UnsupportedLayer(&'static str),
}

impl std::fmt::Display for SlalomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlalomError::NotPrecomputed { layer } => {
                write!(f, "layer {layer} has no precomputed blinding factors")
            }
            SlalomError::PrecomputeExhausted { layer } => {
                write!(f, "layer {layer} exhausted its precomputed (r, W·r) pool")
            }
            SlalomError::StaleWeights { layer } => {
                write!(f, "layer {layer} weights changed since precomputation; Slalom cannot train")
            }
            SlalomError::IntegrityViolation { layer } => {
                write!(f, "Freivalds check failed at layer {layer}")
            }
            SlalomError::Quant(e) => write!(f, "quantization error: {e}"),
            SlalomError::Seal => write!(f, "sealed blinding factor failed authentication"),
            SlalomError::UnsupportedLayer(k) => write!(f, "slalom port does not support {k} layers"),
        }
    }
}

impl std::error::Error for SlalomError {}

impl From<dk_field::QuantError> for SlalomError {
    fn from(e: dk_field::QuantError) -> Self {
        SlalomError::Quant(e)
    }
}

/// Freivalds state for one layer.
#[derive(Debug, Clone)]
enum Freivalds {
    Dense {
        s: Vec<F25>,
        /// `sᵀ·W_q ∈ F^in`.
        proj: Vec<F25>,
    },
    Conv {
        s: Vec<F25>,
        /// `Σ_oc s_oc·W_q[oc]` — a single-output-channel filter.
        proj_filter: Tensor<F25>,
        shape: Conv2dShape,
    },
}

#[derive(Debug)]
struct LayerPrecompute {
    norm_w: f32,
    weights_q: Arc<Tensor<F25>>,
    weight_fingerprint: u64,
    blob_ids: Vec<u64>,
    next_blob: usize,
    freivalds: Option<Freivalds>,
    op: LinearOp,
}

/// Counters for Slalom runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlalomStats {
    /// Samples inferred.
    pub samples: u64,
    /// Sealed bytes fetched from untrusted memory at inference time.
    pub unblind_bytes_fetched: u64,
    /// Precomputed pairs consumed.
    pub pairs_consumed: u64,
    /// Freivalds checks run.
    pub freivalds_checks: u64,
}

/// A Slalom inference session.
#[derive(Debug)]
pub struct SlalomSession {
    quant: QuantConfig,
    rng: FieldRng,
    enclave: Enclave,
    store: UntrustedStore,
    cluster: GpuCluster,
    layers: HashMap<u64, LayerPrecompute>,
    integrity: bool,
    auto_refill: bool,
    next_blob_id: u64,
    stats: SlalomStats,
    /// Where the walk's intermediates and the layer outputs cycle.
    ws: Workspace,
}

impl SlalomSession {
    /// Creates a session. `integrity` enables the Freivalds checks
    /// ("Slalom+Integrity" in the paper's Fig. 6a).
    pub fn new(cluster: GpuCluster, integrity: bool, seed: u64) -> Self {
        Self {
            quant: QuantConfig::new(6),
            rng: FieldRng::seed_from(seed),
            enclave: Enclave::new(EpcConfig::default(), b"slalom-enclave"),
            store: UntrustedStore::new(),
            cluster,
            layers: HashMap::new(),
            integrity,
            auto_refill: false,
            next_blob_id: 0,
            stats: SlalomStats::default(),
            ws: Workspace::new(),
        }
    }

    /// Enables on-demand pool refills (benchmark convenience; a real
    /// deployment precomputes offline — refills at inference time are
    /// exactly the cost Slalom tries to avoid).
    pub fn with_auto_refill(mut self, on: bool) -> Self {
        self.auto_refill = on;
        self
    }

    /// Run statistics.
    pub fn stats(&self) -> SlalomStats {
        self.stats
    }

    /// Precomputes `pool_size` blinding pairs per linear layer. Must be
    /// re-run whenever the model weights change — which is exactly what
    /// makes the scheme unusable for training.
    ///
    /// # Errors
    ///
    /// Quantization failure or unsupported layers.
    pub fn precompute(&mut self, model: &mut Sequential, pool_size: usize) -> Result<(), SlalomError> {
        Self::reject_residual(model)?;
        self.layers.clear();
        model.try_visit_linear(|ordinal, layer| {
            let weights = layer.weights();
            let pc = match LinearOp::new(layer.conv_shape(), weights.shape()) {
                LinearOp::Conv(shape) => self.precompute_conv(shape, weights)?,
                op @ LinearOp::Dense { .. } => self.precompute_dense(op, weights)?,
            };
            self.layers.insert(ordinal as u64, pc);
            // Dense geometry is static, so its pool is filled now; a
            // conv layer's waits for the input geometry.
            self.ensure_dense_pool(ordinal as u64, pool_size);
            Ok(())
        })
    }

    /// This port targets VGG/MobileNet-style sequential models.
    fn reject_residual(model: &Sequential) -> Result<(), SlalomError> {
        match model.layers().iter().find(|l| l.kind() == "residual") {
            Some(l) => Err(SlalomError::UnsupportedLayer(l.kind())),
            None => Ok(()),
        }
    }

    fn fingerprint(w: &Tensor<f32>) -> u64 {
        // FNV-1a over the weight bit patterns.
        let mut h = 0xcbf29ce484222325u64;
        for v in w.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    fn seal_pair(&mut self, r: &[F25], u: &[F25]) -> u64 {
        let mut bytes = Vec::with_capacity((r.len() + u.len()) * 8 + 8);
        bytes.extend_from_slice(&(r.len() as u64).to_le_bytes());
        for v in r.iter().chain(u) {
            bytes.extend_from_slice(&v.value().to_le_bytes());
        }
        let blob = self.enclave.seal(&bytes);
        let id = self.next_blob_id;
        self.next_blob_id += 1;
        self.store.put(id, blob);
        id
    }

    fn unseal_pair(&mut self, blob: &SealedBlob) -> Result<(Vec<F25>, Vec<F25>), SlalomError> {
        let bytes = self.enclave.unseal(blob).map_err(|_| SlalomError::Seal)?;
        let r_len = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let vals: Vec<F25> = bytes[8..]
            .chunks_exact(8)
            .map(|c| F25::new(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        let (r, u) = vals.split_at(r_len);
        Ok((r.to_vec(), u.to_vec()))
    }

    /// The input spatial size is only known at first inference, so a
    /// conv layer's `(r, u)` pool is filled lazily per input geometry by
    /// `ensure_conv_pool`.
    fn precompute_conv(
        &mut self,
        shape: Conv2dShape,
        weights: &Tensor<f32>,
    ) -> Result<LayerPrecompute, SlalomError> {
        let (wq, norm_w) = self.quant.normalize_quantize(weights.as_slice())?;
        let weights_q = Arc::new(Tensor::from_vec(weights.shape(), wq));
        let freivalds = if self.integrity && shape.groups == 1 {
            let s: Vec<F25> = (0..shape.out_channels).map(|_| self.rng.uniform_nonzero::<P25>()).collect();
            let krows = shape.cg_in() * shape.kernel.0 * shape.kernel.1;
            let mut proj = vec![F25::ZERO; krows];
            for (oc, &s_oc) in s.iter().enumerate() {
                let filt = &weights_q.as_slice()[oc * krows..(oc + 1) * krows];
                for (p, &w) in proj.iter_mut().zip(filt) {
                    *p = F25::mul_add(s_oc, w, *p);
                }
            }
            let proj_filter = Tensor::from_vec(&[1, shape.cg_in(), shape.kernel.0, shape.kernel.1], proj);
            Some(Freivalds::Conv { s, proj_filter, shape })
        } else {
            None
        };
        Ok(LayerPrecompute {
            norm_w,
            weights_q,
            weight_fingerprint: Self::fingerprint(weights),
            blob_ids: Vec::new(),
            next_blob: 0,
            freivalds,
            op: LinearOp::Conv(shape),
        })
    }

    fn precompute_dense(
        &mut self,
        op: LinearOp,
        weights: &Tensor<f32>,
    ) -> Result<LayerPrecompute, SlalomError> {
        let (out_f, in_f) = (weights.shape()[0], weights.shape()[1]);
        let (wq, norm_w) = self.quant.normalize_quantize(weights.as_slice())?;
        let weights_q = Arc::new(Tensor::from_vec(weights.shape(), wq));
        let freivalds = if self.integrity {
            let s: Vec<F25> = (0..out_f).map(|_| self.rng.uniform_nonzero::<P25>()).collect();
            // proj = sᵀ·W ∈ F^in  (W stored [out, in])
            let mut proj = vec![F25::ZERO; in_f];
            matmul_at_b_into(weights_q.as_slice(), &s, &mut proj, in_f, out_f, 1);
            Some(Freivalds::Dense { s, proj })
        } else {
            None
        };
        Ok(LayerPrecompute {
            norm_w,
            weights_q,
            weight_fingerprint: Self::fingerprint(weights),
            blob_ids: Vec::new(),
            next_blob: 0,
            freivalds,
            op,
        })
    }

    /// Makes sure a dense layer's pool holds `needed` unconsumed pairs
    /// (at precompute time, and on demand in auto-refill mode).
    fn ensure_dense_pool(&mut self, layer: u64, needed: usize) {
        let (op, in_f, weights_q) = {
            let Some(pc) = self.layers.get(&layer) else { return };
            let LinearOp::Dense { in_features, .. } = pc.op else { return };
            (pc.op, in_features, pc.weights_q.clone())
        };
        {
            let pc = self.layers.get_mut(&layer).expect("layer exists");
            if pc.blob_ids.len() - pc.next_blob >= needed {
                return;
            }
        }
        let mut new_ids = Vec::new();
        for _ in 0..needed {
            let r = self.rng.uniform_vec::<P25>(in_f);
            let rt = Tensor::from_vec(&[1, in_f], r.clone());
            let u = op.forward_job(weights_q.clone(), rt).execute().into_vec();
            new_ids.push(self.seal_pair(&r, &u));
        }
        let pc = self.layers.get_mut(&layer).expect("layer exists");
        pc.blob_ids.extend(new_ids);
    }

    /// Lazily fills a conv layer's pool once the input geometry is known.
    fn ensure_conv_pool(&mut self, layer: u64, hw: (usize, usize), needed: usize) {
        let (shape, weights_q) = {
            let pc = self.layers.get(&layer).expect("layer exists");
            let LinearOp::Conv(shape) = pc.op else { return };
            (shape, pc.weights_q.clone())
        };
        let n = shape.in_channels * hw.0 * hw.1;
        let mut new_ids = Vec::new();
        {
            let pc = self.layers.get_mut(&layer).expect("layer exists");
            if pc.blob_ids.len() - pc.next_blob >= needed {
                return;
            }
        }
        for _ in 0..needed {
            let r = self.rng.uniform_vec::<P25>(n);
            let rt = Tensor::from_vec(&[1, shape.in_channels, hw.0, hw.1], r.clone());
            let u = conv2d_forward_ws(&rt, &weights_q, &shape, &mut self.ws).into_vec();
            new_ids.push(self.seal_pair(&r, &u));
        }
        let pc = self.layers.get_mut(&layer).expect("layer exists");
        pc.blob_ids.extend(new_ids);
    }

    /// Blinded inference over a batch `[n, ...]`.
    ///
    /// # Errors
    ///
    /// Stale weights, exhausted pools, failed Freivalds checks, or
    /// unsupported layers.
    pub fn inference(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, SlalomError> {
        Self::reject_residual(model)?;
        self.stats.samples += x.shape()[0] as u64;
        model.forward_with(x, false, self)
    }

    fn take_pair(&mut self, layer: u64) -> Result<(Vec<F25>, Vec<F25>), SlalomError> {
        let blob_id = {
            let pc = self.layers.get_mut(&layer).ok_or(SlalomError::NotPrecomputed { layer })?;
            if pc.next_blob >= pc.blob_ids.len() {
                return Err(SlalomError::PrecomputeExhausted { layer });
            }
            let b = pc.blob_ids[pc.next_blob];
            pc.next_blob += 1;
            b
        };
        let blob = self.store.get(blob_id).ok_or(SlalomError::Seal)?;
        self.stats.unblind_bytes_fetched += blob.len() as u64;
        self.stats.pairs_consumed += 1;
        self.unseal_pair(&blob)
    }

    /// The blinded forward of a conv layer, bias not yet added.
    fn blinded_conv(
        &mut self,
        layer: u64,
        shape: Conv2dShape,
        weights: &Tensor<f32>,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, SlalomError> {
        let n = x.shape()[0];
        let hw = (x.shape()[2], x.shape()[3]);
        {
            let pc = self.layers.get(&layer).ok_or(SlalomError::NotPrecomputed { layer })?;
            if pc.weight_fingerprint != Self::fingerprint(weights) {
                return Err(SlalomError::StaleWeights { layer });
            }
        }
        self.ensure_conv_pool(layer, hw, n);
        let (weights_q, norm_w) = {
            let pc = self.layers.get(&layer).expect("checked above");
            (pc.weights_q.clone(), pc.norm_w)
        };
        let (xq, norm_x) = self.quant.normalize_quantize(x.as_slice())?;
        let rest: usize = x.shape()[1..].iter().product();
        let (oh, ow) = shape.out_hw(hw);
        let mut y = self.ws.take_tensor(&[n, shape.out_channels, oh, ow]);
        for i in 0..n {
            let (r, u) = self.take_pair(layer)?;
            // Blind: x̄ = x_q + r.
            let mut blinded = xq[i * rest..(i + 1) * rest].to_vec();
            for (b, &rv) in blinded.iter_mut().zip(&r) {
                *b += rv;
            }
            let xt = Tensor::from_vec(&[1, shape.in_channels, hw.0, hw.1], blinded.clone());
            let job = LinearOp::Conv(shape).forward_job(weights_q.clone(), xt);
            let out = self.cluster.worker_mut(dk_gpu::WorkerId(0)).execute(&job);
            if let Some(Freivalds::Conv { s, proj_filter, shape }) =
                self.layers.get(&layer).and_then(|pc| pc.freivalds.clone()).as_ref()
            {
                self.stats.freivalds_checks += 1;
                // lhs = Σ_oc s_oc · ȳ[oc]  (per output pixel)
                let plane = oh * ow;
                let mut lhs = vec![F25::ZERO; plane];
                for (oc, &s_oc) in s.iter().enumerate() {
                    let src = &out.as_slice()[oc * plane..(oc + 1) * plane];
                    for (l, &v) in lhs.iter_mut().zip(src) {
                        *l = F25::mul_add(s_oc, v, *l);
                    }
                }
                // rhs = conv(x̄, Σ_oc s_oc·W[oc]) computed in the TEE.
                let xt2 = Tensor::from_vec(&[1, shape.in_channels, hw.0, hw.1], blinded);
                let proj_shape = Conv2dShape::new(
                    shape.in_channels,
                    1,
                    shape.kernel,
                    shape.stride,
                    shape.padding,
                    1,
                );
                let rhs = conv2d_forward_ws(&xt2, proj_filter, &proj_shape, &mut self.ws);
                let tampered = lhs != rhs.as_slice();
                self.ws.give_tensor(rhs);
                if tampered {
                    return Err(SlalomError::IntegrityViolation { layer });
                }
            }
            // Unblind: y_q = ȳ − u.
            let scale = norm_w * norm_x;
            for (dst, (&o, &uv)) in
                y.batch_item_mut(i).iter_mut().zip(out.as_slice().iter().zip(&u))
            {
                let clean = o - uv;
                *dst = self.quant.dequantize_product(clean) as f32 * scale;
            }
        }
        Ok(y)
    }

    /// The blinded forward of a dense layer, bias not yet added.
    fn blinded_dense(
        &mut self,
        layer: u64,
        op: LinearOp,
        weights: &Tensor<f32>,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, SlalomError> {
        let n = x.shape()[0];
        let (out_f, in_f) = (weights.shape()[0], weights.shape()[1]);
        if self.auto_refill {
            self.ensure_dense_pool(layer, n);
        }
        let (weights_q, norm_w) = {
            let pc = self.layers.get(&layer).ok_or(SlalomError::NotPrecomputed { layer })?;
            if pc.weight_fingerprint != Self::fingerprint(weights) {
                return Err(SlalomError::StaleWeights { layer });
            }
            (pc.weights_q.clone(), pc.norm_w)
        };
        let (xq, norm_x) = self.quant.normalize_quantize(x.as_slice())?;
        let mut y = self.ws.take_tensor(&[n, out_f]);
        for i in 0..n {
            let (r, u) = self.take_pair(layer)?;
            let mut blinded = xq[i * in_f..(i + 1) * in_f].to_vec();
            for (b, &rv) in blinded.iter_mut().zip(&r) {
                *b += rv;
            }
            let xt = Tensor::from_vec(&[1, in_f], blinded.clone());
            let job = op.forward_job(weights_q.clone(), xt);
            let out = self.cluster.worker_mut(dk_gpu::WorkerId(0)).execute(&job);
            if let Some(Freivalds::Dense { s, proj }) =
                self.layers.get(&layer).and_then(|pc| pc.freivalds.clone()).as_ref()
            {
                self.stats.freivalds_checks += 1;
                let lhs: F25 = s.iter().zip(out.as_slice()).map(|(&a, &b)| a * b).sum();
                let rhs: F25 = proj.iter().zip(&blinded).map(|(&a, &b)| a * b).sum();
                if lhs != rhs {
                    return Err(SlalomError::IntegrityViolation { layer });
                }
            }
            let scale = norm_w * norm_x;
            for (dst, (&o, &uv)) in
                y.batch_item_mut(i).iter_mut().zip(out.as_slice().iter().zip(&u))
            {
                let clean = o - uv;
                *dst = self.quant.dequantize_product(clean) as f32 * scale;
            }
        }
        Ok(y)
    }
}

/// Slalom's per-layer step for [`dk_nn`]'s walk: blind, offload,
/// verify, unblind. Forward only.
impl LayerExec for SlalomSession {
    type Error = SlalomError;

    fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    fn linear_forward(
        &mut self,
        ordinal: usize,
        layer: LinearMut<'_>,
        x: &Tensor<f32>,
        _train: bool,
    ) -> Result<Tensor<f32>, SlalomError> {
        let (id, weights) = (ordinal as u64, layer.weights());
        let op = LinearOp::new(layer.conv_shape(), weights.shape());
        let mut y = match op {
            LinearOp::Conv(shape) => self.blinded_conv(id, shape, weights, x)?,
            LinearOp::Dense { .. } => self.blinded_dense(id, op, weights, x)?,
        };
        op.add_bias(&mut y, layer.bias().as_slice());
        Ok(y)
    }

    /// `u = ⟨W, r⟩` is tied to the weights: there is no blinded backward
    /// pass (§7.2).
    fn linear_backward(
        &mut self,
        _ordinal: usize,
        _layer: LinearMut<'_>,
        _dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, SlalomError> {
        Err(SlalomError::UnsupportedLayer("backward"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_gpu::Behavior;
    use dk_nn::arch::mini_vgg;
    use dk_nn::optim::Sgd;

    fn cluster(behavior: Behavior) -> GpuCluster {
        GpuCluster::with_behaviors(&[behavior], 41)
    }

    #[test]
    fn blinded_inference_matches_plain() {
        let mut slalom = SlalomSession::new(cluster(Behavior::Honest), false, 42);
        let mut model = mini_vgg(8, 4, 9);
        let mut plain = model.clone();
        slalom.precompute(&mut model, 8).unwrap();
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 9) as f32 - 4.0) * 0.1);
        let y_slalom = slalom.inference(&mut model, &x).unwrap();
        let y_plain = plain.forward(&x, false);
        let diff = y_slalom.max_abs_diff(&y_plain);
        assert!(diff < 0.05, "diff={diff}");
    }

    #[test]
    fn pool_exhaustion_detected() {
        let mut slalom = SlalomSession::new(cluster(Behavior::Honest), false, 43);
        let mut model = mini_vgg(8, 4, 10);
        slalom.precompute(&mut model, 2).unwrap();
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 5) as f32 * 0.1);
        // First batch consumes the dense pools (2 pairs per dense layer).
        slalom.inference(&mut model, &x).unwrap();
        let err = slalom.inference(&mut model, &x).unwrap_err();
        assert!(matches!(err, SlalomError::PrecomputeExhausted { .. }));
    }

    #[test]
    fn training_invalidates_precompute() {
        // THE §7.2 point: after one SGD step the precomputed W·r is
        // stale and Slalom refuses (a real deployment would silently
        // produce garbage).
        let mut slalom = SlalomSession::new(cluster(Behavior::Honest), false, 44);
        let mut model = mini_vgg(8, 4, 11);
        slalom.precompute(&mut model, 8).unwrap();
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 7) as f32 * 0.1);
        slalom.inference(&mut model, &x).unwrap();
        // One plain training step updates W.
        let mut sgd = Sgd::new(0.05);
        model.zero_grad();
        let logits = model.forward(&x, true);
        let (_, dl) = dk_nn::loss::softmax_cross_entropy(&logits, &[0, 1]);
        model.backward(&dl);
        sgd.step(&mut model);
        let err = slalom.inference(&mut model, &x).unwrap_err();
        assert!(matches!(err, SlalomError::StaleWeights { .. }));
    }

    #[test]
    fn freivalds_accepts_honest_gpu() {
        let mut slalom = SlalomSession::new(cluster(Behavior::Honest), true, 45);
        let mut model = mini_vgg(8, 4, 12);
        slalom.precompute(&mut model, 4).unwrap();
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 5) as f32 * 0.1);
        assert!(slalom.inference(&mut model, &x).is_ok());
        assert!(slalom.stats().freivalds_checks > 0);
    }

    #[test]
    fn freivalds_catches_malicious_gpu() {
        let mut slalom = SlalomSession::new(cluster(Behavior::SingleElement), true, 46);
        let mut model = mini_vgg(8, 4, 13);
        slalom.precompute(&mut model, 4).unwrap();
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 5) as f32 * 0.1);
        let err = slalom.inference(&mut model, &x).unwrap_err();
        assert!(matches!(err, SlalomError::IntegrityViolation { .. }));
    }

    #[test]
    fn without_freivalds_malice_is_undetected() {
        let mut slalom = SlalomSession::new(cluster(Behavior::SingleElement), false, 47);
        let mut model = mini_vgg(8, 4, 14);
        let mut plain = model.clone();
        slalom.precompute(&mut model, 4).unwrap();
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 5) as f32 * 0.1);
        let y = slalom.inference(&mut model, &x).unwrap();
        // No error, but outputs are wrong — the attack the check exists for.
        let diff = y.max_abs_diff(&plain.forward(&x, false));
        assert!(diff > 0.01, "diff={diff}");
    }

    #[test]
    fn unblinding_pairs_are_consumed_per_sample() {
        let mut slalom = SlalomSession::new(cluster(Behavior::Honest), false, 48);
        let mut model = mini_vgg(8, 4, 15);
        slalom.precompute(&mut model, 16).unwrap();
        let x = Tensor::from_fn(&[4, 3, 8, 8], |i| (i % 5) as f32 * 0.1);
        slalom.inference(&mut model, &x).unwrap();
        // 3 conv + 2 dense layers, 4 samples each.
        assert_eq!(slalom.stats().pairs_consumed, 5 * 4);
        assert!(slalom.stats().unblind_bytes_fetched > 0);
    }
}
