//! Tensors and linear-algebra kernels for DarKnight.
//!
//! DarKnight runs the *same* bilinear operations in two domains: `f32`
//! inside the TEE (reference/non-linear path) and a prime field `F_p` on
//! the untrusted GPUs (masked path). This crate therefore provides a
//! generic [`Tensor<T>`] and generic convolution / matrix-multiplication /
//! pooling kernels parameterized over a [`Scalar`] element, instantiated
//! at both `f32` and [`dk_field::Fp`].
//!
//! The dense kernels run over the unreduced accumulator of
//! [`Scalar::Acc`] (delayed modular reduction with Barrett/Mersenne
//! folds in the field domain) and hold a sixteen-wide struct-of-arrays
//! strip of independent accumulator lanes in registers. The
//! outer-product products and the forward convolution walk the output
//! in column strips, packing each strip's slice of the right-hand
//! operand into an L1-resident panel that every output row then reuses
//! (see [`matmul`](mod@matmul)); large shapes fan out on a
//! lazily-started persistent worker pool (`DK_THREADS` /
//! [`set_max_threads`] bound the fan-out). Results are bit-for-bit
//! identical to the per-MAC-reducing [`mod@reference`] kernels at every
//! thread count.
//!
//! Every kernel also comes in a `_into` form writing into
//! caller-provided buffers; paired with the [`Workspace`] buffer pool
//! (which also backs the convolution/pooling `_ws` entry points),
//! steady-state callers perform **zero heap allocations** per step —
//! the classic allocating signatures remain as thin wrappers.
//!
//! Kernels included:
//!
//! * [`matmul()`] and its transpose variants,
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
//! use dk_linalg::{Tensor, Conv2dShape, conv::conv2d_forward};
//!
//! let shape = Conv2dShape::new(1, 1, (3, 3), (1, 1), (1, 1), 1);
//! let x = Tensor::<f32>::ones(&[1, 1, 4, 4]);
//! let w = Tensor::<f32>::ones(&[1, 1, 3, 3]);
//! let y = conv2d_forward(&x, &w, &shape);
//! assert_eq!(y.shape(), &[1, 1, 4, 4]);
//! assert_eq!(y.get(&[0, 0, 1, 1]), 9.0); // full 3x3 window of ones
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

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
mod threadpool;
pub mod threads;
pub mod workspace;

pub use coded::{coded_axpy_acc, coded_combine_check_write, coded_combine_write};
pub use conv::Conv2dShape;
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_acc, matmul_at_b, matmul_at_b_into,
    matmul_into, matvec, matvec_into,
};
pub use pool::Pool2dShape;
pub use scalar::Scalar;
pub use tensor::Tensor;
pub use threads::{max_threads, set_max_threads, would_parallelize, PAR_MAC_THRESHOLD};
pub use workspace::{Workspace, WorkspaceStats};
