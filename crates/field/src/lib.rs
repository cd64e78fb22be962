//! Prime-field arithmetic and supporting linear algebra for DarKnight.
//!
//! DarKnight's privacy scheme (Hashemi et al., MICRO '21) operates over the
//! finite field `F_p` with `p = 2^25 − 39`, the largest 25-bit prime. This
//! crate provides:
//!
//! * [`Fp`] — a constant-modulus prime-field scalar with full arithmetic
//!   (modulus below `2^31`, checked at compile time), and [`F25`], the
//!   paper's prime and the one field the framework computes in.
//! * [`FieldMatrix`] — dense matrices over `F_p` with multiplication,
//!   Gauss–Jordan inversion, rank, and submatrix extraction.
//! * [`vandermonde`] — Vandermonde/MDS coefficient generators used to build
//!   encoding matrices whose every square submatrix is invertible (the
//!   collusion-tolerance requirement of §5 of the paper).
//! * [`quant`] — the fixed-point quantization pipeline of Algorithm 1
//!   (scale by `2^l`, map into the field, centered lift on decode).
//! * [`lanes`] — the 4-byte wire form of a field vector, both ways.
//! * [`rng`] — [`FieldRng`], the seeded uniform sampler every mask and
//!   noise row is drawn from.
//! * [`chacha`] — the ChaCha block function, eight blocks per call, at
//!   any round count: `FieldRng`'s generator (12 rounds) and `dk_tee`'s
//!   sealing cipher (ChaCha20) both run it.
//! * [`tier`] — the workspace's one ladder of vector tiers, and the way
//!   a pass is compiled once per tier.
//!
//! # Example
//!
//! ```
//! use dk_field::{F25, FieldMatrix};
//!
//! let a = F25::new(7);
//! let b = F25::new(12);
//! assert_eq!((a * b).value(), 84);
//! assert_eq!(a * a.inv().unwrap(), F25::ONE);
//!
//! // A random invertible matrix round-trips through its inverse.
//! let m = FieldMatrix::<{ dk_field::P25 }>::identity(3);
//! assert_eq!(&m * &m, m);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chacha;
pub mod fp;
pub mod lanes;
pub mod matrix;
pub mod quant;
pub mod rng;
pub mod tier;
pub mod vandermonde;

pub use fp::{Fp, F25, P25};
pub use lanes::{pack_lanes, unpack_lanes};
pub use matrix::FieldMatrix;
pub use quant::{QuantConfig, QuantError};
pub use rng::{derive_seed, FieldRng};
