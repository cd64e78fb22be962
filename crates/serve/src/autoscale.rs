//! The autoscale control loop: a controller thread that watches the
//! pressure signals the serving data plane already publishes (the
//! intake's depth and the shed count) and resizes the worker pool within
//! `[min_workers, max_workers]`.
//!
//! Pressure is a shed request, or a full batch waiting in the intake
//! that no free lane has taken: either way the pool is too small for
//! the traffic. A request waiting for batch-mates under sparse load is
//! not pressure — a bigger pool would not fill its batch any sooner.
//!
//! Scaling **up** spawns a fresh engine lane-set over a new
//! [`dk_gpu::GpuCluster::fork`] with a never-reused slot seed (mask
//! streams must stay unique per engine). Scaling **down** *retires* the
//! newest worker: its lanes stop taking batches and finish the ones
//! they already hold — a retired worker is never
//! killed, so every admitted request completes and, because per-sample
//! quantization makes each response independent of its batch-mates and
//! serving engine, completes **bit-identically** to a fixed-size run.
//!
//! The controller is deliberately boring: threshold-with-hysteresis on
//! metrics deltas, one step per tick. All the correctness weight stays
//! on the data plane's determinism, none on the control loop.

use std::time::Duration;

/// Bounds and cadence for the elastic pool.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// The pool never shrinks below this many workers (≥ 1).
    pub min_workers: usize,
    /// The pool never grows beyond this many workers.
    pub max_workers: usize,
    /// Controller tick interval.
    pub interval: Duration,
    /// Consecutive calm ticks (no sheds, no full batch waiting) before
    /// one worker is retired.
    pub idle_ticks: u32,
}

impl AutoscaleConfig {
    /// An autoscale range with a 10 ms tick and a 3-tick scale-down
    /// hysteresis. Bounds are validated at
    /// [`crate::Server::start`], not here.
    pub fn new(min_workers: usize, max_workers: usize) -> Self {
        Self {
            min_workers,
            max_workers,
            interval: Duration::from_millis(10),
            idle_ticks: 3,
        }
    }

    /// Sets the controller tick interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the calm-tick count required before scaling down.
    pub fn with_idle_ticks(mut self, idle_ticks: u32) -> Self {
        self.idle_ticks = idle_ticks.max(1);
        self
    }
}

/// The pressure signals one controller tick looks at (deltas are
/// against the previous tick).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TickSignals {
    /// Requests shed since the last tick.
    pub shed_delta: u64,
    /// At least `K` admitted requests wait in the intake: a full batch
    /// no free lane has taken.
    pub full_batch_waits: bool,
}

/// What the controller decided to do this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    Up,
    Down,
    Hold,
}

/// Pure decision function, separated from the thread so the policy is
/// unit-testable without a running server: scale up under pressure (a
/// shed, or a full batch waiting), scale down after `idle_ticks`
/// consecutive calm ticks, hold otherwise. `calm_ticks` is caller-owned
/// hysteresis state; this function updates it.
pub(crate) fn decide(
    cfg: &AutoscaleConfig,
    s: TickSignals,
    active: usize,
    calm_ticks: &mut u32,
) -> ScaleDecision {
    if s.shed_delta > 0 || s.full_batch_waits {
        *calm_ticks = 0;
        if active < cfg.max_workers {
            return ScaleDecision::Up;
        }
        return ScaleDecision::Hold;
    }
    if active > cfg.min_workers {
        *calm_ticks += 1;
        if *calm_ticks >= cfg.idle_ticks {
            *calm_ticks = 0;
            return ScaleDecision::Down;
        }
    } else {
        *calm_ticks = 0;
    }
    ScaleDecision::Hold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig::new(1, 4).with_idle_ticks(2)
    }

    #[test]
    fn sheds_scale_up_until_max() {
        let mut calm = 0;
        let s = TickSignals { shed_delta: 3, ..Default::default() };
        assert_eq!(decide(&cfg(), s, 1, &mut calm), ScaleDecision::Up);
        assert_eq!(decide(&cfg(), s, 4, &mut calm), ScaleDecision::Hold, "at max: hold");
    }

    #[test]
    fn standing_queue_scales_up() {
        let mut calm = 0;
        let s = TickSignals { full_batch_waits: true, ..Default::default() };
        assert_eq!(decide(&cfg(), s, 2, &mut calm), ScaleDecision::Up);
    }

    #[test]
    fn scale_down_needs_sustained_calm() {
        let mut calm = 0;
        let calm_s = TickSignals::default();
        assert_eq!(decide(&cfg(), calm_s, 3, &mut calm), ScaleDecision::Hold, "1st calm tick");
        assert_eq!(decide(&cfg(), calm_s, 3, &mut calm), ScaleDecision::Down, "2nd calm tick");
        assert_eq!(calm, 0, "hysteresis resets after a decision");
    }

    #[test]
    fn pressure_resets_hysteresis() {
        let mut calm = 0;
        let calm_s = TickSignals::default();
        decide(&cfg(), calm_s, 3, &mut calm);
        assert_eq!(calm, 1);
        let busy = TickSignals { shed_delta: 1, ..Default::default() };
        decide(&cfg(), busy, 4, &mut calm);
        assert_eq!(calm, 0, "a shed wipes accumulated calm");
    }

    #[test]
    fn never_shrinks_below_min() {
        let mut calm = 0;
        let calm_s = TickSignals::default();
        for _ in 0..10 {
            assert_eq!(decide(&cfg(), calm_s, 1, &mut calm), ScaleDecision::Hold);
        }
    }
}
