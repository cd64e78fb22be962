//! Thread-count policy for the multi-threaded kernels.
//!
//! The matmul kernels split their output across the persistent worker
//! pool (see the `threadpool` module): column-strip ranges for the
//! packed-panel products and the coded combines, row ranges for the dot
//! orientation. How many lanes they may use is resolved here, in
//! priority order:
//!
//! 1. a programmatic override set with [`set_max_threads`] (used by
//!    tests and embedders),
//! 2. the `DK_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Partitioning is by disjoint output-row (or output-column) ranges, and
//! every element is computed by the identical scalar recurrence, so
//! results are **bit-for-bit independent of the thread count** — in the
//! float domain too, since no accumulation order ever crosses a
//! partition boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();

/// Overrides the kernel thread cap for this process (`0` clears the
/// override and falls back to `DK_THREADS` / detected parallelism).
pub fn set_max_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The maximum number of threads a kernel may fan out to (always ≥ 1).
pub fn max_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => *ENV_DEFAULT.get_or_init(|| {
            std::env::var("DK_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                })
        }),
        n => n,
    }
}

/// Kernels stay serial below this many multiply-accumulates: thread
/// spawn/join overhead (~tens of µs) swamps any win on tiny shapes.
pub const PAR_MAC_THRESHOLD: usize = 1 << 18;

/// Resolves the worker count for a kernel processing `units`
/// partitionable output units with `macs` total multiply-accumulates.
pub(crate) fn workers_for(units: usize, macs: usize) -> usize {
    if macs < PAR_MAC_THRESHOLD || units < 2 {
        return 1;
    }
    max_threads().clamp(1, units)
}

/// Whether a kernel over `units` partitionable output units and `macs`
/// multiply-accumulates would fan out under the current policy.
///
/// Callers that choose between layouts depending on threading (e.g. a
/// flat matmul that threads vs. row-at-a-time products that avoid a
/// split copy) should consult this instead of re-deriving the policy.
pub fn would_parallelize(units: usize, macs: usize) -> bool {
    workers_for(units, macs) > 1
}

/// Resolves a **column**-range fan-out as `(tasks, cols_per_task)`.
///
/// Used by the packed-panel products (a task then packs only the panels
/// of its own strips) and by the streaming coded kernels (`k+m` output
/// rows against an enormous `n` leave no rows to split).
/// `cols_per_task` is a multiple of `align`
/// (the SIMD strip width) so no strip ever straddles a partition
/// boundary; columns are independent accumulations, so the split is
/// bit-exact at every thread count in both domains. Returns `(1, n)`
/// when the shape stays serial under [`workers_for`].
pub(crate) fn col_partition(n: usize, align: usize, macs: usize) -> (usize, usize) {
    debug_assert!(align > 0);
    let chunks = n.div_ceil(align.max(1));
    let workers = workers_for(chunks, macs);
    if workers <= 1 {
        return (1, n);
    }
    let cols_per = chunks.div_ceil(workers) * align;
    (n.div_ceil(cols_per), cols_per)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the override is process-global state, and the test
    // harness runs #[test] functions concurrently.
    #[test]
    fn override_policy_and_serial_threshold() {
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        assert_eq!(workers_for(64, PAR_MAC_THRESHOLD), 3);
        // Below the MAC threshold or with a single unit: stay serial.
        assert_eq!(workers_for(64, PAR_MAC_THRESHOLD - 1), 1);
        assert_eq!(workers_for(1, PAR_MAC_THRESHOLD), 1);
        // Column partitioning: aligned ranges covering n exactly, serial
        // below the MAC threshold or when a single aligned chunk covers
        // everything.
        let (tasks, cols) = col_partition(1 << 14, 16, PAR_MAC_THRESHOLD);
        assert_eq!(tasks, 3);
        assert_eq!(cols % 16, 0);
        assert!(cols * tasks >= 1 << 14 && cols * (tasks - 1) < 1 << 14);
        assert_eq!(col_partition(1 << 14, 16, PAR_MAC_THRESHOLD - 1), (1, 1 << 14));
        assert_eq!(col_partition(16, 16, PAR_MAC_THRESHOLD), (1, 16));
        assert_eq!(col_partition(0, 16, PAR_MAC_THRESHOLD), (1, 0));
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }
}
