//! The benchmark of record for the DarKnight reproduction: six
//! end-to-end workloads, per-layer probes, and the noise method that
//! qualifies every number. See `README.md` in this directory.
//!
//! The package stands outside the root workspace and calls the crates'
//! public functions only; no span is added inside any crate.

pub mod cli;
pub mod compare;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
mod traced;
pub mod workloads;
