//! The bilinear jobs DarKnight offloads to accelerators.
//!
//! Everything here is in the masked field domain `F_{2^25−39}`; workers
//! never see floats or raw inputs.

use dk_field::F25;
use dk_linalg::conv::{conv2d_backward_input_ws, conv2d_backward_weight_ws, conv2d_forward_ws};
use dk_linalg::{
    matmul_a_bt_into, matmul_at_b_into, matmul_into, Conv2dShape, Tensor, Workspace,
};
use std::sync::Arc;

/// A bilinear computation request.
///
/// Weights are shared via [`Arc`]: the model is public to all workers
/// (the paper keeps `W` outside the enclave) and can be large.
#[derive(Debug, Clone, PartialEq)]
pub enum LinearJob {
    /// `y = W ∗ x̄` — the forward pass on one encoded input.
    ConvForward {
        /// Quantized public weights `[oc, ic/g, kh, kw]`.
        weights: Arc<Tensor<F25>>,
        /// One encoded input `[1, ic, h, w]`.
        x: Tensor<F25>,
        /// Convolution geometry.
        shape: Conv2dShape,
    },
    /// `Eq_j = ⟨δ̃_j, x̄_j⟩` — the backward weight-gradient term on the
    /// worker's stored encoding (Eq. 4 of the paper).
    ConvWeightGrad {
        /// β-combined quantized gradient `[1, oc, oh, ow]`.
        delta: Tensor<F25>,
        /// The stored encoded input `[1, ic, h, w]`.
        x: Tensor<F25>,
        /// Convolution geometry.
        shape: Conv2dShape,
    },
    /// `dx = Wᵀ ⊛ δ` — the backward data term, offloaded *without*
    /// encoding (contains no input information; §4.2 item 2).
    ConvBackwardData {
        /// Quantized public weights.
        weights: Arc<Tensor<F25>>,
        /// Quantized gradients `[n, oc, oh, ow]`.
        delta: Tensor<F25>,
        /// Convolution geometry.
        shape: Conv2dShape,
        /// Original input spatial size.
        input_hw: (usize, usize),
    },
    /// `y = x̄·Wᵀ` for a dense layer; `x` is `[1, in]`.
    DenseForward {
        /// Quantized public weights `[out, in]`.
        weights: Arc<Tensor<F25>>,
        /// One encoded input row.
        x: Tensor<F25>,
    },
    /// `Eq_j = δ̃_jᵀ·x̄_j` for a dense layer.
    DenseWeightGrad {
        /// β-combined quantized gradient `[1, out]`.
        delta: Tensor<F25>,
        /// Stored encoded input `[1, in]`.
        x: Tensor<F25>,
    },
    /// `dx = δ·W` for a dense layer (unencoded offload).
    DenseBackwardData {
        /// Quantized public weights `[out, in]`.
        weights: Arc<Tensor<F25>>,
        /// Quantized gradients `[n, out]`.
        delta: Tensor<F25>,
    },
    /// `Eq_j = ⟨Σ_i β_{j,i} δ^{(i)}, x̄_j⟩` where `x̄_j` is the encoding
    /// this worker stored during the forward pass. The worker computes
    /// the β-combination itself — exactly the paper's protocol ("δ(i)s
    /// are multiplied with the β_{j,i} in the GPUs", §4.2).
    ConvWeightGradStored {
        /// All K quantized per-example gradients `[k, oc, oh, ow]`.
        delta_batch: Arc<Tensor<F25>>,
        /// This worker's public row of `B`.
        beta: Vec<F25>,
        /// Which stored encoding to use.
        layer_id: u64,
        /// Convolution geometry.
        shape: Conv2dShape,
    },
    /// Dense-layer variant of [`LinearJob::ConvWeightGradStored`].
    DenseWeightGradStored {
        /// All K quantized per-example gradients `[k, out]`.
        delta_batch: Arc<Tensor<F25>>,
        /// This worker's public row of `B`.
        beta: Vec<F25>,
        /// Which stored encoding to use.
        layer_id: u64,
    },
}

/// Computes `δ̃ = Σ_i β_i · δ_i` over the batch dimension, yielding a
/// single gradient image `[1, ...]`.
///
/// # Panics
///
/// Panics if `beta.len()` differs from the batch size.
pub fn beta_combine(delta_batch: &Tensor<F25>, beta: &[F25]) -> Tensor<F25> {
    let k = delta_batch.shape()[0];
    assert_eq!(beta.len(), k, "one beta per gradient");
    let mut shape = delta_batch.shape().to_vec();
    shape[0] = 1;
    if k == 0 {
        return Tensor::zeros(&shape);
    }
    // βᵀ[1 × k] · Δ[k × elems]: one delayed-reduction matmul instead of
    // k scaled-vector passes over the output.
    let elems = delta_batch.len() / k;
    let combined = dk_linalg::matmul(beta, delta_batch.as_slice(), 1, k, elems);
    Tensor::from_vec(&shape, combined)
}

/// `Eq_j = δ̃_jᵀ·x̄_j` for a dense layer, on borrowed operands: the
/// explicit [`LinearJob::DenseWeightGrad`] and a worker running the
/// `*Stored` form against the encoding it holds share this kernel.
pub(crate) fn dense_weight_grad(delta: &Tensor<F25>, x: &Tensor<F25>, ws: &mut Workspace) -> JobOutput {
    let n = x.shape()[0];
    let in_f = x.shape()[1];
    let out_f = delta.shape()[1];
    let mut dw = ws.take_tensor_dirty::<F25>(&[out_f, in_f]);
    matmul_at_b_into(delta.as_slice(), x.as_slice(), dw.as_mut_slice(), out_f, n, in_f);
    dw
}

/// The result of a [`LinearJob`].
pub type JobOutput = Tensor<F25>;

impl LinearJob {
    /// Executes the job honestly (the math a real GPU would run).
    /// Allocating wrapper over [`LinearJob::execute_ws`].
    ///
    /// # Panics
    ///
    /// Panics on `*Stored` variants — those need a worker's stored
    /// encoding; use [`crate::worker::GpuWorker::execute`] instead.
    pub fn execute(&self) -> JobOutput {
        self.execute_ws(&mut Workspace::new())
    }

    /// Executes the job with all kernel scratch (im2col columns,
    /// packed `Aᵀ` panels, gradient columns) *and* the output tensor
    /// drawn from `ws` — workers own one workspace each, so
    /// steady-state job streams stop re-allocating per job. The output
    /// leaves the accelerator for the TEE, which hands it back via
    /// [`crate::GpuExec::recycle_outputs`] once decoded, closing the
    /// loop. Bit-for-bit identical to [`LinearJob::execute`].
    ///
    /// # Panics
    ///
    /// Panics on `*Stored` variants — those need a worker's stored
    /// encoding; use [`crate::worker::GpuWorker::execute`] instead.
    pub fn execute_ws(&self, ws: &mut Workspace) -> JobOutput {
        match self {
            LinearJob::ConvWeightGradStored { .. } | LinearJob::DenseWeightGradStored { .. } => {
                panic!("stored-encoding jobs must be executed by a worker")
            }
            LinearJob::ConvForward { weights, x, shape } => conv2d_forward_ws(x, weights, shape, ws),
            LinearJob::ConvWeightGrad { delta, x, shape } => {
                conv2d_backward_weight_ws(delta, x, shape, ws)
            }
            LinearJob::ConvBackwardData { weights, delta, shape, input_hw } => {
                conv2d_backward_input_ws(delta, weights, shape, *input_hw, ws)
            }
            LinearJob::DenseForward { weights, x } => {
                let n = x.shape()[0];
                let in_f = x.shape()[1];
                let out_f = weights.shape()[0];
                let mut y = ws.take_tensor::<F25>(&[n, out_f]);
                matmul_a_bt_into(x.as_slice(), weights.as_slice(), y.as_mut_slice(), n, in_f, out_f);
                y
            }
            LinearJob::DenseWeightGrad { delta, x } => dense_weight_grad(delta, x, ws),
            LinearJob::DenseBackwardData { weights, delta } => {
                let n = delta.shape()[0];
                let out_f = delta.shape()[1];
                let in_f = weights.shape()[1];
                let mut dx = ws.take_tensor::<F25>(&[n, in_f]);
                matmul_into(delta.as_slice(), weights.as_slice(), dx.as_mut_slice(), n, out_f, in_f);
                dx
            }
        }
    }

    /// Consumes the job, returning the input tensor it owns — the
    /// encoded input, or the data-gradient job's copy of `δ` — for
    /// variants that carry one (the TEE recycles it into its workspace
    /// once the round's outputs are decoded). Variants whose inputs are
    /// shared (`Arc`) or stored worker-side return `None`.
    pub fn into_input(self) -> Option<Tensor<F25>> {
        match self {
            LinearJob::ConvForward { x, .. }
            | LinearJob::ConvWeightGrad { x, .. }
            | LinearJob::DenseForward { x, .. }
            | LinearJob::DenseWeightGrad { x, .. } => Some(x),
            LinearJob::ConvBackwardData { delta, .. }
            | LinearJob::DenseBackwardData { delta, .. } => Some(delta),
            LinearJob::ConvWeightGradStored { .. }
            | LinearJob::DenseWeightGradStored { .. } => None,
        }
    }

    /// Multiply-accumulate count of this job (perf accounting).
    pub fn macs(&self) -> u64 {
        match self {
            LinearJob::ConvForward { x, shape, .. } => {
                shape.forward_macs(x.shape()[0], (x.shape()[2], x.shape()[3]))
            }
            LinearJob::ConvWeightGrad { x, shape, .. } => {
                shape.forward_macs(x.shape()[0], (x.shape()[2], x.shape()[3]))
            }
            LinearJob::ConvBackwardData { delta, shape, input_hw, .. } => {
                shape.forward_macs(delta.shape()[0], *input_hw)
            }
            LinearJob::DenseForward { weights, x } => {
                (x.shape()[0] * weights.len()) as u64
            }
            LinearJob::DenseWeightGrad { delta, x } => {
                (x.shape()[0] * x.shape()[1] * delta.shape()[1]) as u64
            }
            LinearJob::DenseBackwardData { weights, delta } => {
                (delta.shape()[0] * weights.len()) as u64
            }
            LinearJob::ConvWeightGradStored { delta_batch, shape, .. } => {
                // β-combination elements + one wgrad pass; the wgrad MACs
                // equal a forward pass over one (encoded) input with the
                // output spatial size of delta.
                let (oh, ow) = (delta_batch.shape()[2], delta_batch.shape()[3]);
                let combine = delta_batch.len() as u64;
                let wgrad = (shape.out_channels * oh * ow * shape.cg_in() * shape.kernel.0 * shape.kernel.1) as u64;
                combine + wgrad
            }
            LinearJob::DenseWeightGradStored { delta_batch, beta, .. } => {
                let out_f = delta_batch.shape()[1];
                // Combination + outer product; input features unknown here,
                // approximate with out_f * beta.len() for the combine and
                // leave the outer product to worker-side accounting.
                (delta_batch.len() + out_f * beta.len()) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(shape: &[usize], f: impl FnMut(usize) -> F25) -> Tensor<F25> {
        Tensor::from_fn(shape, f)
    }

    #[test]
    fn conv_forward_job_matches_kernel() {
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let w = Arc::new(tensor(&shape.weight_shape(), |i| F25::new(i as u64 % 9)));
        let x = tensor(&[1, 2, 4, 4], |i| F25::new((i * 3) as u64 % 17));
        let job = LinearJob::ConvForward { weights: w.clone(), x: x.clone(), shape };
        assert_eq!(job.execute(), dk_linalg::conv::conv2d_forward(&x, &w, &shape));
    }

    #[test]
    fn dense_forward_job_values() {
        let w = Arc::new(tensor(&[2, 3], |i| F25::new(i as u64 + 1))); // [[1,2,3],[4,5,6]]
        let x = tensor(&[1, 3], |i| F25::new(i as u64 + 1)); // [1,2,3]
        let job = LinearJob::DenseForward { weights: w, x };
        let y = job.execute();
        assert_eq!(y.as_slice(), &[F25::new(14), F25::new(32)]);
    }

    #[test]
    fn dense_weight_grad_outer_product() {
        let delta = tensor(&[1, 2], |i| F25::new([3, 5][i]));
        let x = tensor(&[1, 3], |i| F25::new([1, 2, 4][i]));
        let job = LinearJob::DenseWeightGrad { delta, x };
        let dw = job.execute();
        assert_eq!(dw.shape(), &[2, 3]);
        // outer product [3,5]ᵀ · [1,2,4]
        let expect = [3u64, 6, 12, 5, 10, 20].map(F25::new);
        assert_eq!(dw.as_slice(), &expect);
    }

    #[test]
    fn conv_backward_data_shapes() {
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let w = Arc::new(tensor(&shape.weight_shape(), |i| F25::new(i as u64)));
        let delta = tensor(&[2, 3, 4, 4], |i| F25::new(i as u64 % 7));
        let job = LinearJob::ConvBackwardData {
            weights: w,
            delta,
            shape,
            input_hw: (4, 4),
        };
        assert_eq!(job.execute().shape(), &[2, 2, 4, 4]);
    }

    #[test]
    fn macs_counts_positive() {
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let w = Arc::new(tensor(&shape.weight_shape(), |_| F25::ONE));
        let x = tensor(&[1, 2, 4, 4], |_| F25::ONE);
        let job = LinearJob::ConvForward { weights: w, x, shape };
        assert_eq!(job.macs(), 3 * 16 * 2 * 9);
    }
}
