//! Segments, percentiles and the run-level estimator.
//!
//! The noise method is part of every metric's definition: a measured
//! window is cut into equal segments, each metric is computed per
//! segment, and the run's value is the second-best segment. Host
//! interference only ever slows a segment, while the program's own
//! periodic costs recur inside every segment, so a high order statistic
//! of the segments tracks the program and ignores most of the host.

use std::time::Duration;

/// One completed (or failed) operation of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// When the operation started (closed loop) or was due (open loop),
    /// in seconds since the window opened. Decides the owning segment.
    pub at_s: f64,
    /// What the caller waited, in milliseconds.
    pub latency_ms: f64,
    /// Samples (images) the operation completed; 0 if it failed.
    pub samples: u32,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like.
    Higher,
    /// Latency-like.
    Lower,
}

/// The segment an operation belongs to: the one its start (or due) time
/// falls in. Operations outside `[0, segments * seg_s)` belong to none.
pub fn segment_of(at_s: f64, seg_s: f64, segments: usize) -> Option<usize> {
    if at_s.is_nan() || at_s < 0.0 {
        return None;
    }
    let i = (at_s / seg_s) as usize;
    (i < segments).then_some(i)
}

/// Splits samples by owning segment.
pub fn split_segments(samples: &[OpSample], seg_s: f64, segments: usize) -> Vec<Vec<OpSample>> {
    let mut out = vec![Vec::new(); segments];
    for s in samples {
        if let Some(i) = segment_of(s.at_s, seg_s, segments) {
            out[i].push(*s);
        }
    }
    out
}

/// Samples a percentile needs beyond it before it is reported
/// (choosing-metrics: "the highest percentile that has at least ten
/// samples beyond it").
pub const SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of ascending `sorted`, or `None` when
/// fewer than [`SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let idx = ((n as f64) * q).ceil() as usize;
    let idx = idx.max(1) - 1;
    (n > idx && n - 1 - idx >= SAMPLES_BEYOND).then(|| sorted[idx])
}

/// Percentile without the sample-count rule, for diagnostics that state
/// their own count. `None` only for an empty slice.
pub fn percentile_any(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1])
}

/// Ascending copy.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted slice (mean of the two middle values for an
/// even count). `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The second-best of the per-segment values: second-highest when
/// higher is better, second-lowest otherwise. With one value, that
/// value. `None` when empty.
pub fn second_best(values: &[f64], better: Better) -> Option<f64> {
    let mut s = sorted(values.to_vec());
    if better == Better::Higher {
        s.reverse();
    }
    s.get(1).or(s.first()).copied()
}

/// `(max - min) / median` of the per-segment values: how far the
/// segments of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match (s.first(), s.last(), median(&s)) {
        (Some(lo), Some(hi), Some(m)) if m != 0.0 => (hi - lo) / m,
        _ => 0.0,
    }
}

/// One metric of one run: the gated value and what it was chosen from.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Second-best segment.
    pub value: f64,
    /// The per-segment values, in segment order (segments too small for
    /// the percentile are absent).
    pub segments: Vec<f64>,
    /// Median of `segments`.
    pub median: f64,
    /// Operations the estimate rests on.
    pub count: usize,
}

impl Estimate {
    fn from_segments(segments: Vec<f64>, better: Better, count: usize) -> Option<Self> {
        let value = second_best(&segments, better)?;
        let median = median(&segments)?;
        Some(Self {
            value,
            segments,
            median,
            count,
        })
    }
}

/// Samples completed per second, per segment. An operation in flight
/// across a boundary is shared between the segments in proportion to
/// the time it spent in each: counting whole operations where they
/// started would quantise a segment of ~50 training steps to 2 %.
pub fn throughput(samples: &[OpSample], seg_s: f64, segments: usize) -> Option<Estimate> {
    let mut done = vec![0.0f64; segments];
    for s in samples.iter().filter(|s| s.samples > 0) {
        let (from, to) = (s.at_s, s.at_s + s.latency_ms / 1e3);
        for (i, d) in done.iter_mut().enumerate() {
            let (lo, hi) = (i as f64 * seg_s, (i + 1) as f64 * seg_s);
            let overlap = (to.min(hi) - from.max(lo)).max(0.0);
            if to > from {
                *d += f64::from(s.samples) * overlap / (to - from);
            } else if (lo..hi).contains(&from) {
                *d += f64::from(s.samples);
            }
        }
    }
    let values = done.iter().map(|d| d / seg_s).collect();
    Estimate::from_segments(values, Better::Higher, samples.len())
}

/// A latency percentile per segment, or `None` unless every segment
/// holds enough samples for `q` (ten beyond it): `train_pipelined`, at
/// ~50 steps a segment, has a median and no p90. `count` says how many
/// operations the window held.
pub fn latency(per_segment: &[Vec<OpSample>], q: f64) -> Option<Estimate> {
    let values: Vec<f64> = per_segment
        .iter()
        .map(|seg| {
            let ok = seg.iter().filter(|s| s.samples > 0);
            percentile(&sorted(ok.map(|s| s.latency_ms).collect()), q)
        })
        .collect::<Option<_>>()?;
    let count = per_segment.iter().map(Vec::len).sum();
    Estimate::from_segments(values, Better::Lower, count)
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median, in milliseconds, of the durations `reps` calls of `f`
/// report: the probes' timing loop. `f` runs its own clock, so it can
/// prepare outside it. One uncounted call comes first, so pools are
/// warm. The first error ends the loop.
pub fn try_median_ms<E>(reps: usize, mut f: impl FnMut() -> Result<Duration, E>) -> Result<f64, E> {
    f()?;
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| f().map(ms))
        .collect::<Result<_, E>>()?;
    Ok(median(&times).expect("at least one repetition"))
}

/// The median time of `reps` whole calls of `f`, which cannot fail.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let timed: Result<f64, std::convert::Infallible> = try_median_ms(reps, || {
        let t = std::time::Instant::now();
        f();
        Ok(t.elapsed())
    });
    match timed {
        Ok(ms) => ms,
    }
}

/// Quartile spread `(Q3 - Q1) / median` as the driver computes it
/// (Python's `statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let m = median(&s)?;
    (m != 0.0).then(|| (q(3) - q(1)) / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(at_s: f64, latency_ms: f64) -> OpSample {
        OpSample {
            at_s,
            latency_ms,
            samples: 4,
        }
    }

    #[test]
    fn an_operation_belongs_to_the_segment_it_started_in() {
        assert_eq!(segment_of(0.0, 4.0, 6), Some(0));
        assert_eq!(segment_of(3.999, 4.0, 6), Some(0));
        // Started in segment 0, finished in segment 1: still segment 0.
        assert_eq!(segment_of(3.999, 4.0, 6), segment_of(0.5, 4.0, 6));
        assert_eq!(segment_of(4.0, 4.0, 6), Some(1));
        assert_eq!(segment_of(23.9, 4.0, 6), Some(5));
        assert_eq!(segment_of(24.0, 4.0, 6), None);
        assert_eq!(segment_of(-0.1, 4.0, 6), None);
        assert_eq!(segment_of(f64::NAN, 4.0, 6), None);
        let segs = split_segments(
            &[op(0.1, 1.0), op(4.1, 1.0), op(4.2, 1.0), op(30.0, 1.0)],
            4.0,
            6,
        );
        assert_eq!(
            segs.iter().map(Vec::len).collect::<Vec<_>>(),
            [1, 2, 0, 0, 0, 0]
        );
    }

    #[test]
    fn second_best_ignores_the_one_lucky_and_all_unlucky_segments() {
        let tput = [303.0, 298.0, 245.0, 291.0, 246.0, 242.0];
        assert_eq!(second_best(&tput, Better::Higher), Some(298.0));
        let lat = [5.1, 5.0, 10.9, 5.4, 5.2, 9.0];
        assert_eq!(second_best(&lat, Better::Lower), Some(5.1));
        assert_eq!(second_best(&[7.0], Better::Lower), Some(7.0));
        assert_eq!(second_best(&[], Better::Lower), None);
    }

    #[test]
    fn percentile_refuses_a_segment_without_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // 99 samples leave 9 beyond the 90th: refused.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        assert_eq!(percentile(&hundred, 0.99), None);
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile_any(&hundred, 0.99), Some(99.0));
    }

    #[test]
    fn a_percentile_needs_enough_samples_in_every_segment() {
        // 60 ops a segment: enough for p50, too few for p90. Segments 1,
        // 3 and 5 run 100 ms slower.
        let segs: Vec<Vec<OpSample>> = (0..6)
            .map(|s| {
                let slow = (s % 2) as f64 * 100.0;
                (0..60)
                    .map(|i| op(s as f64 * 4.0 + i as f64 * 0.06, 50.0 + slow + i as f64))
                    .collect()
            })
            .collect();
        let p50 = latency(&segs, 0.5).unwrap();
        assert_eq!(p50.segments.len(), 6);
        assert_eq!(p50.value, 79.0, "second-lowest segment median");
        assert_eq!(p50.count, 360);
        assert_eq!(latency(&segs, 0.9), None);
    }

    #[test]
    fn throughput_counts_samples_and_shares_straddling_operations() {
        let mut ops = vec![op(0.0, 1.0); 10];
        ops.extend(vec![op(4.0, 1.0); 20]);
        let t = throughput(&ops, 4.0, 2).unwrap();
        assert_eq!(t.segments, [10.0, 20.0]);
        assert_eq!(t.value, 10.0);
        assert_eq!(t.count, 30);
        // 4 samples in flight from 3.0 s to 5.0 s: half to each segment.
        let t = throughput(&[op(3.0, 2000.0)], 4.0, 2).unwrap();
        assert_eq!(t.segments, [0.5, 0.5]);
        // A failed operation completes nothing.
        let failed = OpSample {
            at_s: 1.0,
            latency_ms: 1.0,
            samples: 0,
        };
        assert_eq!(throughput(&[failed], 4.0, 2).unwrap().segments, [0.0, 0.0]);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
