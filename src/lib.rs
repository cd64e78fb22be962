//! DarKnight — privacy and integrity preserving deep learning with
//! trusted hardware, reproduced in Rust.
//!
//! This facade crate re-exports the full workspace API. See the README
//! for the architecture overview.

pub use dk_baselines as baselines;
pub use dk_core as core;
pub use dk_field as field;
pub use dk_gpu as gpu;
pub use dk_linalg as linalg;
pub use dk_nn as nn;
pub use dk_obs as obs;
pub use dk_perf as perf;
pub use dk_serve as serve;
pub use dk_tee as tee;
