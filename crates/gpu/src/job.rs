//! The bilinear jobs DarKnight offloads to accelerators.
//!
//! Everything here is in the masked field domain `F_{2^25−39}`; workers
//! never see floats or raw inputs.

use dk_field::F25;
use dk_linalg::conv::{conv2d_backward_input_ws, conv2d_backward_weight_ws, conv2d_forward_ws};
use dk_linalg::coded::MAX_TERMS;
use dk_linalg::{
    coded_combine_write, matmul_a_bt_into, matmul_at_b_into, matmul_into, ops, Conv2dShape, Tensor,
    Workspace,
};
use std::sync::Arc;

/// What an offloaded layer computes — the one description of
/// "convolution or dense" an executor needs. All that differs between
/// the two kinds hangs off it: which [`LinearJob`] variant each of the
/// four protocol jobs is, and which axis the TEE-side bias ops run
/// over. The rest of a layer pass is read off the tensors (an encoding
/// is one sample of the input, the output is the worker's with batch
/// `K`, the weight shape is the weight tensor's own) and needs no kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearOp {
    /// A 2-D convolution of the given geometry.
    Conv(Conv2dShape),
    /// A fully-connected layer, weights stored `[out, in]`.
    Dense {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
    },
}

impl LinearOp {
    /// The op of a layer as `dk_nn`'s linear view describes it: its
    /// convolution geometry if it has one, else the dense layer its
    /// `[out, in]` weight shape spells.
    pub fn new(conv: Option<Conv2dShape>, weight_shape: &[usize]) -> Self {
        match conv {
            Some(shape) => LinearOp::Conv(shape),
            None => LinearOp::Dense { in_features: weight_shape[1], out_features: weight_shape[0] },
        }
    }

    /// `y += b`, broadcast over this op's output layout (`[n, oc, oh,
    /// ow]` per channel, or `[n, out]` per column).
    pub fn add_bias(&self, y: &mut Tensor<f32>, bias: &[f32]) {
        match self {
            LinearOp::Conv(_) => ops::add_bias_nchw(y, bias),
            LinearOp::Dense { .. } => ops::add_bias_rows(y, bias),
        }
    }

    /// `∂L/∂b`: `dy` reduced over everything but this op's bias axis.
    pub fn bias_grad(&self, dy: &Tensor<f32>) -> Vec<f32> {
        match self {
            LinearOp::Conv(_) => ops::bias_grad_nchw(dy),
            LinearOp::Dense { .. } => ops::bias_grad_rows(dy),
        }
    }

    /// The shape of this op's forward output on **one** sample of an
    /// input shaped `input` (`[_, ic, h, w]` or `[_, in]`), written into
    /// `dims` and returned: `[1, oc, oh, ow]` or `[1, out]`. What a
    /// forward reply must look like, from the op's geometry alone.
    pub fn sample_output_shape<'a>(&self, input: &[usize], dims: &'a mut [usize; 4]) -> &'a [usize] {
        match *self {
            LinearOp::Conv(shape) => {
                let (oh, ow) = shape.out_hw((input[2], input[3]));
                *dims = [1, shape.out_channels, oh, ow];
                dims
            }
            LinearOp::Dense { out_features, .. } => {
                dims[..2].copy_from_slice(&[1, out_features]);
                &dims[..2]
            }
        }
    }

    /// The forward job on one encoded input `x` (`[1, ...]`).
    pub fn forward_job(&self, weights: Arc<Tensor<F25>>, x: Tensor<F25>) -> LinearJob {
        match *self {
            LinearOp::Conv(shape) => LinearJob::ConvForward { weights, x, shape },
            LinearOp::Dense { .. } => LinearJob::DenseForward { weights, x },
        }
    }

    /// The explicit weight-gradient job `Eq = ⟨δ̃, x̄⟩` on operands the
    /// sender holds.
    pub fn weight_grad_job(&self, delta: Tensor<F25>, x: Tensor<F25>) -> LinearJob {
        match *self {
            LinearOp::Conv(shape) => LinearJob::ConvWeightGrad { delta, x, shape },
            LinearOp::Dense { .. } => LinearJob::DenseWeightGrad { delta, x },
        }
    }

    /// The weight-gradient job against the encoding the worker stored
    /// under `layer_id` (§6); the worker β-combines `delta_batch` itself.
    pub fn weight_grad_stored_job(
        &self,
        delta_batch: Arc<Tensor<F25>>,
        beta: Vec<F25>,
        layer_id: u64,
    ) -> LinearJob {
        use LinearJob::{ConvWeightGradStored, DenseWeightGradStored};
        match *self {
            LinearOp::Conv(shape) => ConvWeightGradStored { delta_batch, beta, layer_id, shape },
            LinearOp::Dense { .. } => DenseWeightGradStored { delta_batch, beta, layer_id },
        }
    }

    /// The unencoded data-gradient job; `input_shape` is the forward
    /// input's (a convolution needs the spatial size back).
    pub fn backward_data_job(
        &self,
        weights: Arc<Tensor<F25>>,
        delta: Tensor<F25>,
        input_shape: &[usize],
    ) -> LinearJob {
        match *self {
            LinearOp::Conv(shape) => {
                let input_hw = (input_shape[2], input_shape[3]);
                LinearJob::ConvBackwardData { weights, delta, shape, input_hw }
            }
            LinearOp::Dense { .. } => LinearJob::DenseBackwardData { weights, delta },
        }
    }
}

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
/// single gradient image `[1, ...]` drawn from `ws` (give it back once
/// the weight-gradient kernel has read it). One coded combine — a
/// one-row coefficient matrix over the `K` rows of `delta_batch` in
/// place — so every element is written once and nothing is allocated.
///
/// # Panics
///
/// Panics if `beta.len()` differs from the batch size, or the batch
/// size exceeds [`MAX_TERMS`] (a scheme's `K` never does).
pub fn beta_combine(delta_batch: &Tensor<F25>, beta: &[F25], ws: &mut Workspace) -> Tensor<F25> {
    let k = delta_batch.shape()[0];
    assert_eq!(beta.len(), k, "one beta per gradient");
    assert!(k <= MAX_TERMS, "a virtual batch holds at most MAX_TERMS gradients");
    let mut rows: [&[F25]; MAX_TERMS] = [&[]; MAX_TERMS];
    for (i, row) in rows[..k].iter_mut().enumerate() {
        *row = delta_batch.batch_item(i);
    }
    let elems: usize = delta_batch.shape()[1..].iter().product();
    let mut combined = ws.take_cleared::<F25>(elems);
    coded_combine_write(beta, k, 0, &rows[..k], std::slice::from_mut(&mut combined), elems);
    let mut shape = ws.take_shape(delta_batch.shape());
    shape[0] = 1;
    Tensor::from_parts(shape, combined)
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
    /// Executes the job honestly (the math a real GPU would run) on a
    /// fresh workspace: [`LinearJob::execute_ws`] for one-off callers.
    /// The end-to-end benchmark and the Slalom baseline's
    /// precomputation call it; workers run `execute_ws`.
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

    /// Consumes the job, giving every tensor it owns — the encoded
    /// input, an explicit weight-gradient job's β-combined `δ̃`, the
    /// data-gradient job's copy of `δ` — back to `ws` (the TEE does so
    /// once the round's outputs are decoded). Operands that are shared
    /// (`Arc`) or stored worker-side are not the job's to give.
    pub fn recycle_into(self, ws: &mut Workspace) {
        self.give_owned(ws);
    }

    /// [`LinearJob::recycle_into`] for a job whose every operand was
    /// drawn from `ws` — a `Run` a worker decoded off the wire. The
    /// shared operand (weights, or a stored job's `δ` batch) goes back
    /// through [`Workspace::give_shared`], so only if this job holds its
    /// last reference, and β goes back with it.
    pub fn recycle_decoded_into(self, ws: &mut Workspace) {
        let (shared, beta) = self.give_owned(ws);
        if let Some(t) = shared {
            ws.give_shared(t);
        }
        ws.give(beta);
    }

    /// Gives the tensors this job owns to `ws`; returns its shared
    /// operand, if it has one, and its β (empty but for stored jobs).
    fn give_owned(self, ws: &mut Workspace) -> (Option<Arc<Tensor<F25>>>, Vec<F25>) {
        match self {
            LinearJob::ConvForward { weights, x, .. } | LinearJob::DenseForward { weights, x } => {
                ws.give_tensor(x);
                (Some(weights), Vec::new())
            }
            LinearJob::ConvWeightGrad { delta, x, .. } | LinearJob::DenseWeightGrad { delta, x } => {
                ws.give_tensor(delta);
                ws.give_tensor(x);
                (None, Vec::new())
            }
            LinearJob::ConvBackwardData { weights, delta, .. }
            | LinearJob::DenseBackwardData { weights, delta } => {
                ws.give_tensor(delta);
                (Some(weights), Vec::new())
            }
            LinearJob::ConvWeightGradStored { delta_batch, beta, .. }
            | LinearJob::DenseWeightGradStored { delta_batch, beta, .. } => {
                (Some(delta_batch), beta)
            }
        }
    }

    /// Multiply-accumulate count of this job (perf accounting), as far
    /// as the job alone determines it: a `DenseWeightGradStored` job
    /// does not know its input width, so it counts its β-combination
    /// and [`crate::worker::GpuWorker::try_execute`], which holds the
    /// stored encoding, books the outer product on top.
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
            // The β-combination only, as in the conv arm: the `out·in`
            // outer product needs the input width, which only the worker
            // holding the stored encoding knows — it books that part.
            LinearJob::DenseWeightGradStored { delta_batch, .. } => delta_batch.len() as u64,
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
        let want = conv2d_forward_ws(&x, &w, &shape, &mut Workspace::new());
        assert_eq!(job.execute(), want);
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

    /// Each op constructor builds the variant its kind calls for, field
    /// for field, and the TEE-side bias ops run over the op's own axis.
    #[test]
    fn op_constructors_build_the_matching_variants() {
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let conv = LinearOp::new(Some(shape), &shape.weight_shape());
        let dense = LinearOp::new(None, &[4, 6]);
        assert_eq!(conv, LinearOp::Conv(shape));
        assert_eq!(dense, LinearOp::Dense { in_features: 6, out_features: 4 });

        let w = Arc::new(tensor(&[4, 6], |i| F25::new(i as u64)));
        let x = tensor(&[1, 6], |i| F25::new(i as u64 + 1));
        let delta = tensor(&[1, 4], |i| F25::new(i as u64 + 2));
        let batch = Arc::new(tensor(&[2, 4], |i| F25::new(i as u64 + 3)));
        let beta = vec![F25::new(5), F25::new(7)];
        assert_eq!(
            dense.forward_job(w.clone(), x.clone()),
            LinearJob::DenseForward { weights: w.clone(), x: x.clone() }
        );
        assert_eq!(
            dense.weight_grad_job(delta.clone(), x.clone()),
            LinearJob::DenseWeightGrad { delta: delta.clone(), x: x.clone() }
        );
        assert_eq!(
            dense.weight_grad_stored_job(batch.clone(), beta.clone(), 9),
            LinearJob::DenseWeightGradStored {
                delta_batch: batch.clone(),
                beta: beta.clone(),
                layer_id: 9
            }
        );
        assert_eq!(
            dense.backward_data_job(w.clone(), delta.clone(), &[2, 6]),
            LinearJob::DenseBackwardData { weights: w, delta }
        );

        let w = Arc::new(tensor(&shape.weight_shape(), |i| F25::new(i as u64)));
        let x = tensor(&[1, 2, 5, 4], |i| F25::new(i as u64 + 1));
        let delta = tensor(&[1, 3, 5, 4], |i| F25::new(i as u64 + 2));
        let batch = Arc::new(tensor(&[2, 3, 5, 4], |i| F25::new(i as u64 + 3)));
        assert_eq!(
            conv.forward_job(w.clone(), x.clone()),
            LinearJob::ConvForward { weights: w.clone(), x: x.clone(), shape }
        );
        assert_eq!(
            conv.weight_grad_job(delta.clone(), x.clone()),
            LinearJob::ConvWeightGrad { delta: delta.clone(), x, shape }
        );
        assert_eq!(
            conv.weight_grad_stored_job(batch.clone(), beta.clone(), 9),
            LinearJob::ConvWeightGradStored { delta_batch: batch, beta, layer_id: 9, shape }
        );
        assert_eq!(
            conv.backward_data_job(w.clone(), delta.clone(), &[2, 2, 5, 4]),
            LinearJob::ConvBackwardData { weights: w.clone(), delta, shape, input_hw: (5, 4) }
        );

        // A forward reply's shape, from the geometry alone: it is the
        // shape the job really produces.
        let mut dims = [0; 4];
        let y = conv.forward_job(w, tensor(&[1, 2, 5, 4], |i| F25::new(i as u64 + 1))).execute();
        assert_eq!(conv.sample_output_shape(&[7, 2, 5, 4], &mut dims), y.shape());
        assert_eq!(dense.sample_output_shape(&[7, 6], &mut dims), &[1, 4]);

        let bias = [0.5f32, -1.0, 2.0];
        let dy = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32 * 0.25 - 1.0);
        let (mut got, mut want) = (dy.clone(), dy.clone());
        conv.add_bias(&mut got, &bias);
        ops::add_bias_nchw(&mut want, &bias);
        assert_eq!(got, want);
        assert_eq!(conv.bias_grad(&dy), ops::bias_grad_nchw(&dy));
        let dy = Tensor::from_fn(&[2, 3], |i| i as f32 * 0.25 - 1.0);
        let (mut got, mut want) = (dy.clone(), dy.clone());
        dense.add_bias(&mut got, &bias);
        ops::add_bias_rows(&mut want, &bias);
        assert_eq!(got, want);
        assert_eq!(dense.bias_grad(&dy), ops::bias_grad_rows(&dy));
    }

    /// `beta_combine` is `δ̃ = Σ_i β_i·δ_i` reduced after every product,
    /// element for element, whatever the pool hands it to write into.
    #[test]
    fn beta_combine_matches_the_per_mac_definition() {
        use dk_linalg::reference::naive_coded_combine_acc;
        let mut ws = Workspace::new();
        for k in [1, 2, 4, MAX_TERMS] {
            for rest in [vec![3, 5, 7], vec![37]] {
                let shape: Vec<usize> = std::iter::once(k).chain(rest.iter().copied()).collect();
                let elems: usize = rest.iter().product();
                let batch = tensor(&shape, |i| F25::new((i * i) as u64 * 977 + 3));
                let mut beta: Vec<F25> = (0..k).map(|i| F25::new(i as u64 * 7919 + 11)).collect();
                beta[k / 2] = if k > 2 { F25::ZERO } else { beta[k / 2] };
                // Poison the pool: a longer stale buffer and a stale shape.
                ws.give(vec![F25::new(999); elems + 20]);
                ws.give_shape(vec![9; 6]);
                let got = beta_combine(&batch, &beta, &mut ws);
                let rows: Vec<&[F25]> = (0..k).map(|i| batch.batch_item(i)).collect();
                let mut want = vec![vec![F25::ZERO; elems]];
                naive_coded_combine_acc(&beta, k, 0, &rows, &mut want);
                let mut want_shape = shape.clone();
                want_shape[0] = 1;
                let want = Tensor::from_vec(&want_shape, want.remove(0));
                assert_eq!(got, want, "k={k} rest={rest:?}");
                ws.give_tensor(got);
            }
        }
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
