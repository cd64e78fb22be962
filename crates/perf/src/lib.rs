//! Performance model and experiment generators for DarKnight.
//!
//! Our substrate is a simulator, not the paper's Coffee Lake + GTX 1080 Ti
//! testbed, so absolute wall-clock comparisons are meaningless. Instead
//! this crate follows a calibrate-then-derive discipline:
//!
//! 1. [`device::DeviceProfile::calibrated`] fixes per-operation
//!    SGX/GPU throughput *ratios* to the paper's **Table 1**
//!    measurements (the only table we take as input), plus physically
//!    grounded constants (40 Gb/s link, 93 MB usable EPC, sealing
//!    bandwidth).
//! 2. [`cost`] composes those rates with the *exact* layer-by-layer
//!    operation counts of VGG16 / ResNet50 / MobileNetV1/V2 at 224×224
//!    (`dk_nn::arch`) into end-to-end time breakdowns for every system:
//!    SGX-only, DarKnight (pipelined & not), Slalom (±integrity),
//!    non-private GPU.
//! 3. [`experiments`] derives every other table and figure of the
//!    paper's evaluation from those breakdowns — Table 3/4, Fig. 3, 5,
//!    6a, 6b, 7 — so "who wins, by what factor, where the crossover
//!    falls" is a model *output*, not a constant.
//!
//! [`report`] renders each experiment as the same rows/series the paper
//! prints.

#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod experiments;
pub mod report;
pub mod serving;

pub use device::DeviceProfile;
pub use serving::ServingRow;

/// One measured-vs-analytical pipelining comparison row (rendered by
/// [`report::pipeline_table`]).
///
/// `measured_speedup` comes from actually running the staged engine
/// (`dk_core::engine`) at its default lane count against the same
/// engine with one lane — "sequential" here is one virtual batch in
/// flight over the same fleet; `analytical`
/// is the Fig.-5 overlap gain the cost model predicts for a reference
/// architecture ([`cost::Breakdown::pipeline_gain`]). The two describe
/// different hosts — the measured row is this machine's simulation, the
/// analytical row the paper's calibrated testbed — so the comparison is
/// directional (both must show overlap paying), not an identity.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Workload label (model, mode, latency profile).
    pub label: String,
    /// Virtual batches executed per mode.
    pub batches: usize,
    /// One-lane wall clock, milliseconds.
    pub sequential_ms: f64,
    /// Pipelined wall clock, milliseconds.
    pub pipelined_ms: f64,
    /// Measured `sequential / pipelined`.
    pub measured_speedup: f64,
    /// The cost model's predicted overlap gain for the named reference
    /// architecture.
    pub analytical_speedup: f64,
    /// Which architecture the analytical column refers to.
    pub analytical_arch: String,
}
