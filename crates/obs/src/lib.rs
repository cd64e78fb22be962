//! `dk_obs` — zero-allocation observability for the DarKnight stack.
//!
//! Three coordinated facilities, all designed so the *disabled* state
//! (the default — benches and the alloc-regression gates rely on it)
//! costs at most **one relaxed atomic load per instrument site**, and
//! the *enabled* state stays allocation-free on the hot path:
//!
//! * [`metrics`] — a lock-free [`metrics::Registry`] of atomic
//!   counters, gauges, and fixed-bucket log-scale histograms. Handles
//!   are pre-registered at setup (registration may lock and allocate;
//!   the increment path never does). The process-global registry is
//!   reachable via [`global()`]; standalone registries
//!   ([`metrics::Registry::new`]) serve tests and embedded recorders.
//!   Export via [`metrics::Registry::render_prometheus`] (text
//!   exposition).
//! * [`trace`] — (batch, layer, stage) spans recorded into per-lane
//!   (per-thread) fixed-capacity ring buffers, exportable as
//!   chrome://tracing JSON ([`trace::export_chrome`]) so the §7.1
//!   pipeline overlap is *visible* per run, not just asserted.
//! * [`health`] — a [`health::FleetHealth`] view aggregating
//!   per-worker jobs completed, busy time, bytes framed, reconnects,
//!   fault kinds, quarantines, TEE repairs and jobs withheld from a
//!   convicted worker.
//!
//! The single master switch is [`enable`] / [`disable`]: it governs
//! the global registry, the span layer, and fleet health together.
//! Instrument sites guard on [`enabled`] — one relaxed load — before
//! touching anything else.

#![forbid(unsafe_code)]

pub mod health;
pub mod metrics;
pub mod trace;

pub use health::{fleet, FaultKind, FleetHealth, WorkerHandle, WorkerHealth};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{span, SpanRecord, Stage};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide master switch. Disabled by default; every
/// instrument site loads this (or a registry handle's shared flag)
/// exactly once with `Ordering::Relaxed` before doing any work.
static ENABLED: AtomicBool = AtomicBool::new(false);

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global metrics registry. Created on first use; its
/// enabled flag is kept in lock-step with the master switch.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let r = Registry::new();
        if ENABLED.load(Ordering::Relaxed) {
            r.enable();
        }
        r
    })
}

/// Turn on the global registry, span recording, and fleet health.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
    global().enable();
}

/// Turn everything back off. Already-recorded values are retained.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    global().disable();
}

/// Is the master switch on? One relaxed atomic load — this is the
/// whole disabled-mode cost of span and health instrument sites.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
