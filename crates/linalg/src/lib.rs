//! Tensors and linear-algebra kernels for DarKnight.
//!
//! DarKnight runs the *same* bilinear operations in two domains: `f32`
//! inside the TEE (reference/non-linear path) and a prime field `F_p` on
//! the untrusted GPUs (masked path). This crate therefore provides a
//! generic [`Tensor<T>`] and generic convolution / matrix-multiplication /
//! pooling kernels parameterized over a [`Scalar`] element, instantiated
//! at exactly two: `f32` and [`dk_field::F25`].
//!
//! The dense kernels run over the unreduced accumulator of
//! [`Scalar::Acc`] (delayed modular reduction with Barrett folds in the
//! field domain) and hold a sixteen-wide struct-of-arrays
//! strip of independent accumulator lanes in registers. The
//! outer-product products and the forward convolution walk the output
//! in column strips, packing each strip's slice of the right-hand
//! operand into an L1-resident panel that every output row then reuses
//! (see [`matmul`](mod@matmul)). Every product runs on its calling
//! thread: DarKnight's parallelism is the worker fleet running at once
//! and the TEE's pipelined lanes, never one product split across CPU
//! threads. Results are bit-for-bit identical to the per-MAC-reducing
//! [`mod@reference`] kernels.
//!
//! Every product, convolution, pooling, lowering and ReLU pass has one
//! entry point, and it takes the caller's buffer: an `_into` form
//! writes into a slice or tensor, a `_ws` form draws its output from
//! the [`Workspace`] buffer pool, and an `_in_place` form rewrites its
//! argument. Steady-state callers therefore perform **zero heap
//! allocations** per step.
//!
//! Kernels included:
//!
//! * [`matmul_into`] and its transpose variants,
//! * 2-D convolution with stride, padding and groups (depthwise
//!   convolutions are `groups == in_channels`), lowered to those
//!   products without materializing the forward column matrix,
//! * the three convolution passes a training step needs: forward,
//!   input-gradient and weight-gradient,
//! * max pooling (with argmax bookkeeping for the backward pass) and
//!   global average pooling,
//! * the elementwise operations used by the non-linear TEE path.
//!
//! # Example
//!
//! ```
//! use dk_linalg::{conv::conv2d_forward_ws, Conv2dShape, Tensor, Workspace};
//!
//! let mut ws = Workspace::new();
//! let shape = Conv2dShape::new(1, 1, (3, 3), (1, 1), (1, 1), 1);
//! let x = Tensor::<f32>::ones(&[1, 1, 4, 4]);
//! let w = Tensor::<f32>::ones(&[1, 1, 3, 3]);
//! let y = conv2d_forward_ws(&x, &w, &shape, &mut ws);
//! assert_eq!(y.shape(), &[1, 1, 4, 4]);
//! assert_eq!(y.get(&[0, 0, 1, 1]), 9.0); // full 3x3 window of ones
//! ws.give_tensor(y); // the next call reuses its buffer
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coded;
pub mod conv;
pub mod im2col;
pub mod matmul;
pub mod ops;
pub mod pool;
pub mod reference;
pub mod scalar;
mod simd;
pub mod tensor;
pub mod workspace;

pub use coded::{coded_axpy_acc, coded_combine_check_write, coded_combine_write};
pub use conv::Conv2dShape;
pub use matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
pub use pool::Pool2dShape;
pub use scalar::Scalar;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};

/// Does nothing: every kernel runs on its calling thread. Kept only so
/// the end-to-end benchmark package, which pins a kernel thread count,
/// builds unchanged; nothing else calls it.
pub fn set_max_threads(_: usize) {}

/// Always 1: every kernel runs on its calling thread. Kept only for the
/// end-to-end benchmark package, which records it; nothing else calls
/// it.
pub fn max_threads() -> usize {
    1
}
