//! Neural-network substrate for DarKnight.
//!
//! The paper evaluates on VGG16, ResNet50, MobileNetV1/V2 trained with
//! SGD. This crate provides everything that stack needs, from scratch:
//!
//! * [`layers`] — an enum-based layer zoo (conv, dense, ReLU, max/global
//!   pooling, batch norm, flatten, residual blocks) and the one walk
//!   over it: which ops are offloaded to masked GPUs (linear) and which
//!   stay inside the TEE (non-linear), in what order, is decided here;
//!   an executor supplies only its per-layer step
//!   ([`layers::LayerExec`]).
//! * [`model`] — [`model::Sequential`], forward/backward (plain, or on
//!   behalf of an executor), parameter and layer visitation.
//! * [`loss`] — softmax cross-entropy.
//! * [`optim`] — SGD with momentum and weight decay.
//! * [`init`] — seeded He/Xavier initialization.
//! * [`data`] — deterministic synthetic image-classification datasets
//!   standing in for CIFAR-10/ImageNet.
//! * [`train`] — the plaintext reference training loop DarKnight's
//!   private loop is validated against.
//! * [`arch`] — exact ImageNet-scale architecture descriptions (layer
//!   shapes, MACs, activation sizes) of the four paper models, consumed
//!   by the performance model, plus trainable mini variants.
//!
//! # Example
//!
//! ```
//! use dk_nn::arch::mini_vgg;
//! use dk_linalg::Tensor;
//!
//! let mut model = mini_vgg(16, 10, 42);
//! let x = Tensor::<f32>::zeros(&[2, 3, 16, 16]);
//! let logits = model.forward(&x, true);
//! assert_eq!(logits.shape(), &[2, 10]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arch;
pub mod data;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod train;

pub use layers::Layer;
pub use model::Sequential;
