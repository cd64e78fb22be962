//! Property tests for the *bilinearity* of the offloaded kernels —
//! the single mathematical fact DarKnight's masking rests on (§4.1
//! "Key Insight"): for any linear combination of inputs,
//! `op(W, Σ aᵢ·xᵢ) = Σ aᵢ·op(W, xᵢ)` exactly, in the field.
//!
//! If any kernel here ever lost exact linearity (an optimization that
//! reorders modular reductions incorrectly, say), decoding would
//! silently produce garbage; these properties pin that down.

use dk_field::{F25, FieldRng, P25};
use dk_linalg::conv::{conv2d_backward_input_ws, conv2d_backward_weight_ws, conv2d_forward_ws};
use dk_linalg::{matmul_into, Conv2dShape, Tensor, Workspace};
use proptest::prelude::*;

fn combine(a: F25, x: &Tensor<F25>, b: F25, y: &Tensor<F25>) -> Tensor<F25> {
    x.zip_map(y, |u, v| a * u + b * v)
}

fn scale(t: &Tensor<F25>, s: F25) -> Tensor<F25> {
    t.map(|v| v * s)
}

fn rng_tensors(seed: u64, shape: &[usize], n: usize) -> Vec<Tensor<F25>> {
    let mut rng = FieldRng::seed_from(seed);
    (0..n).map(|_| Tensor::from_fn(shape, |_| rng.uniform::<P25>())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward convolution is linear in the input (the forward-pass
    /// masking identity).
    #[test]
    fn conv_forward_linear_in_input(seed in any::<u64>(), a in 1u64..P25, b in 1u64..P25) {
        let mut ws = Workspace::new();
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let ts = rng_tensors(seed, &[1, 2, 5, 5], 2);
        let w = rng_tensors(seed ^ 1, &shape.weight_shape(), 1).pop().unwrap();
        let (a, b) = (F25::new(a), F25::new(b));
        let lhs = conv2d_forward_ws(&combine(a, &ts[0], b, &ts[1]), &w, &shape, &mut ws);
        let rhs = combine(a, &conv2d_forward_ws(&ts[0], &w, &shape, &mut ws), b, &conv2d_forward_ws(&ts[1], &w, &shape, &mut ws));
        prop_assert_eq!(lhs, rhs);
    }

    /// Depthwise convolution is equally linear (MobileNet path).
    #[test]
    fn depthwise_conv_linear_in_input(seed in any::<u64>(), a in 1u64..P25) {
        let mut ws = Workspace::new();
        let shape = Conv2dShape::depthwise(3, 3, 1, 1);
        let ts = rng_tensors(seed, &[1, 3, 4, 4], 2);
        let w = rng_tensors(seed ^ 2, &shape.weight_shape(), 1).pop().unwrap();
        let a = F25::new(a);
        let lhs = conv2d_forward_ws(&combine(a, &ts[0], F25::ONE, &ts[1]), &w, &shape, &mut ws);
        let rhs = combine(a, &conv2d_forward_ws(&ts[0], &w, &shape, &mut ws), F25::ONE, &conv2d_forward_ws(&ts[1], &w, &shape, &mut ws));
        prop_assert_eq!(lhs, rhs);
    }

    /// The weight-gradient op is bilinear: linear in x̄ (the backward
    /// masking identity of Eq. 4) and linear in δ (the β-combination
    /// identity).
    #[test]
    fn wgrad_bilinear(seed in any::<u64>(), a in 1u64..P25, b in 1u64..P25) {
        let mut ws = Workspace::new();
        let shape = Conv2dShape::simple(2, 2, 3, 1, 1);
        let xs = rng_tensors(seed, &[1, 2, 4, 4], 2);
        let ds = rng_tensors(seed ^ 3, &[1, 2, 4, 4], 2);
        let (a, b) = (F25::new(a), F25::new(b));
        // Linear in x.
        let lhs = conv2d_backward_weight_ws(&ds[0], &combine(a, &xs[0], b, &xs[1]), &shape, &mut ws);
        let rhs = combine(
            a, &conv2d_backward_weight_ws(&ds[0], &xs[0], &shape, &mut ws),
            b, &conv2d_backward_weight_ws(&ds[0], &xs[1], &shape, &mut ws),
        );
        prop_assert_eq!(lhs, rhs);
        // Linear in delta.
        let lhs = conv2d_backward_weight_ws(&combine(a, &ds[0], b, &ds[1]), &xs[0], &shape, &mut ws);
        let rhs = combine(
            a, &conv2d_backward_weight_ws(&ds[0], &xs[0], &shape, &mut ws),
            b, &conv2d_backward_weight_ws(&ds[1], &xs[0], &shape, &mut ws),
        );
        prop_assert_eq!(lhs, rhs);
    }

    /// The data-gradient op is linear in δ (offloaded unencoded, but
    /// still must commute with quantization scaling).
    #[test]
    fn data_grad_linear_in_delta(seed in any::<u64>(), a in 1u64..P25) {
        let mut ws = Workspace::new();
        let shape = Conv2dShape::simple(2, 3, 3, 1, 1);
        let w = rng_tensors(seed ^ 4, &shape.weight_shape(), 1).pop().unwrap();
        let ds = rng_tensors(seed, &[1, 3, 4, 4], 2);
        let a = F25::new(a);
        let lhs = conv2d_backward_input_ws(&combine(a, &ds[0], F25::ONE, &ds[1]), &w, &shape, (4, 4), &mut ws);
        let rhs = combine(
            a, &conv2d_backward_input_ws(&ds[0], &w, &shape, (4, 4), &mut ws),
            F25::ONE, &conv2d_backward_input_ws(&ds[1], &w, &shape, (4, 4), &mut ws),
        );
        prop_assert_eq!(lhs, rhs);
    }

    /// Matmul distributes over field addition and commutes with scalar
    /// multiplication (dense-layer masking identity).
    #[test]
    fn matmul_bilinear(seed in any::<u64>(), a in 1u64..P25) {
        let mut rng = FieldRng::seed_from(seed);
        let (m, k, n) = (3usize, 4, 2);
        let w = rng.uniform_vec::<P25>(m * k);
        let x = rng.uniform_vec::<P25>(k * n);
        let y = rng.uniform_vec::<P25>(k * n);
        let a = F25::new(a);
        let xy: Vec<F25> = x.iter().zip(&y).map(|(&u, &v)| a * u + v).collect();
        let (mut lhs, mut wx, mut wy) = (vec![F25::ZERO; m * n], vec![F25::ZERO; m * n], vec![F25::ZERO; m * n]);
        matmul_into(&w, &xy, &mut lhs, m, k, n);
        matmul_into(&w, &x, &mut wx, m, k, n);
        matmul_into(&w, &y, &mut wy, m, k, n);
        let rhs: Vec<F25> = wx.iter().zip(&wy).map(|(&u, &v)| a * u + v).collect();
        prop_assert_eq!(lhs, rhs);
    }

    /// Scaling the weights scales the conv output (needed because the
    /// TEE quantizes weights and inputs with independent normalizers).
    #[test]
    fn conv_linear_in_weights(seed in any::<u64>(), s in 1u64..P25) {
        let mut ws = Workspace::new();
        let shape = Conv2dShape::simple(2, 2, 3, 1, 0);
        let x = rng_tensors(seed, &[1, 2, 5, 5], 1).pop().unwrap();
        let w = rng_tensors(seed ^ 5, &shape.weight_shape(), 1).pop().unwrap();
        let s = F25::new(s);
        let lhs = conv2d_forward_ws(&x, &scale(&w, s), &shape, &mut ws);
        let rhs = scale(&conv2d_forward_ws(&x, &w, &shape, &mut ws), s);
        prop_assert_eq!(lhs, rhs);
    }

    /// Strided and padded geometries preserve linearity too (the
    /// reductions must not depend on data paths).
    #[test]
    fn strided_conv_linear(seed in any::<u64>(), a in 1u64..P25) {
        let mut ws = Workspace::new();
        let shape = Conv2dShape::simple(1, 2, 3, 2, 1);
        let ts = rng_tensors(seed, &[1, 1, 7, 7], 2);
        let w = rng_tensors(seed ^ 6, &shape.weight_shape(), 1).pop().unwrap();
        let a = F25::new(a);
        let lhs = conv2d_forward_ws(&combine(a, &ts[0], F25::ONE, &ts[1]), &w, &shape, &mut ws);
        let rhs = combine(
            a, &conv2d_forward_ws(&ts[0], &w, &shape, &mut ws),
            F25::ONE, &conv2d_forward_ws(&ts[1], &w, &shape, &mut ws),
        );
        prop_assert_eq!(lhs, rhs);
    }
}
