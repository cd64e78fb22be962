//! `dk_benchmark compare A.json[,A2.json,..] B.json[,B2.json,..]`: two
//! sides, each one or more result files of one commit, side by side.
//!
//! Per workload: every end-to-end metric of `BENCHMARK.json` with its
//! bound, the 90th percentile (held to the bound of the median; it is
//! not in `BENCHMARK.json`, see the README) and the share of operations
//! that failed.
//! A side's value is the median of its runs. A pairing is
//!
//! - `unresolved` when the runs of either side disagree among
//!   themselves by more than the bound (quartile distance over their
//!   median, as the driver takes it). A side of one run has no
//!   run-to-run spread; what stands in is how well the run's own samples
//!   support its value (second-best segment against the best and the
//!   third-best; quartiles of the `setup_s` repetitions);
//! - `regressed` when B is worse than A by more than the bound, or when
//!   a larger share of operations failed on B than on A;
//! - `unresolved` when B is *better* than A by more than the bound and
//!   a side has fewer than [`RUNS_TO_RESOLVE`] runs: the host's speed
//!   differs between runs taken minutes apart by as much as the bound,
//!   which one run per side cannot tell from a gain;
//! - `ok` otherwise.
//!
//! The difference is taken as a share of the better of the two values:
//! where B is the worse side that is the driver's "share of the parent's
//! value", and swapping the sides flips the sign and nothing else.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median, sorted, Better};
use crate::workloads::ALL;

/// Runs a side needs before a gain larger than the bound is believed.
pub const RUNS_TO_RESOLVE: usize = 3;

/// The verdict on one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A, or resolvably better.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of the better of the two;
/// negative when `b` is the better one. `worse_by(a, b) == -worse_by(b, a)`.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.min(b),
        Better::Higher => (a - b) / a.max(b),
    }
}

/// Distance between the best and the third-best of a run's per-segment
/// values, as a share of the second-best: how well the chosen value is
/// supported. With fewer than three segments there is nothing to hold
/// it against, and the spread is 0.
pub fn support_spread(segments: &[f64], better: Better) -> f64 {
    let mut s = sorted(segments.to_vec());
    if better == Better::Higher {
        s.reverse();
    }
    if s.len() < 3 {
        return 0.0;
    }
    (s[2] - s[0]).abs() / s[1]
}

/// One metric of one workload on one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median of the side's runs.
    pub value: f64,
    /// Runs it rests on.
    pub runs: usize,
    /// Quartile spread of the runs' values; for one run, the spread of
    /// the samples supporting it.
    pub spread: f64,
}

/// The verdict on a metric with `bound`.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let worse = worse_by(a.value, b.value, better);
    if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound && a.runs.min(b.runs) < RUNS_TO_RESOLVE {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The end-to-end runs of `workload` in a side's files.
fn runs_of<'a>(docs: &'a [Json], workload: &str) -> Vec<&'a Json> {
    docs.iter()
        .filter_map(|d| d.get("runs").and_then(Json::as_arr))
        .flatten()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .collect()
}

fn numbers(j: &Json) -> Option<Vec<f64>> {
    Some(j.as_arr()?.iter().filter_map(Json::as_f64).collect())
}

/// `metric` over those of a side's runs of one workload that carry it
/// (`train_pipelined` has no p90, `infer_repair` one only when every
/// segment reached 100 operations); `None` when none does.
fn side(runs: &[&Json], metric: &str, better: Better) -> Option<Side> {
    let value_of = |run: &Json| {
        let listed = run.get("metrics")?.get(metric);
        let entry = listed.or_else(|| run.get("detail")?.get(metric))?;
        entry.get("value")?.as_f64()
    };
    let carrying: Vec<(&Json, f64)> = runs
        .iter()
        .filter_map(|r| Some((*r, value_of(r)?)))
        .collect();
    let values: Vec<f64> = carrying.iter().map(|(_, v)| *v).collect();
    let spread = match carrying.as_slice() {
        [] => return None,
        [(run, _)] => {
            let detail = run.get("detail")?;
            match metric {
                "setup_s" => iqr_share(&numbers(detail.get("setup_s_raw")?)?).unwrap_or(0.0),
                m => support_spread(&numbers(detail.get(m)?.get("segments")?)?, better),
            }
        }
        _ => iqr_share(&values)?,
    };
    Some(Side {
        value: median(&values)?,
        runs: values.len(),
        spread,
    })
}

/// Failed operations over operations attempted, across a side's runs;
/// NaN if a run lacks either count.
fn failed_share(runs: &[&Json]) -> f64 {
    let sum = |key: &str| -> f64 {
        let count = |r: &&Json| r.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        runs.iter().map(count).sum()
    };
    sum("failed") / sum("attempted")
}

/// `(name, direction, bound)` of every row `compare` judges: the
/// end-to-end metrics of `BENCHMARK.json`, then the p90 under the
/// median's bound.
fn gated(bounds: &Json) -> Result<Vec<(&'static str, Better, f64)>, String> {
    let listed = bounds
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end`")?;
    let bound_of = |name: &str| {
        listed
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|e| e.get("bound")?.as_f64())
            .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))
    };
    let mut rows = Vec::new();
    for spec in &END_TO_END {
        rows.push((spec.name, spec.better, bound_of(spec.name)?));
    }
    rows.push(("latency_ms_p90", Better::Lower, bound_of("latency_ms_p50")?));
    Ok(rows)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A B`, each a comma-separated list of result files;
/// `Ok(false)` on a regression.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_paths, b_paths] = args else {
        return Err("compare takes two sides: A.json[,A2.json,..] B.json[,B2.json,..]".into());
    };
    let bounds_path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| std::path::Path::new(p).exists())
        .ok_or("no BENCHMARK.json here or one directory up")?;
    let rows = gated(&load(bounds_path)?)?;
    let load_side = |paths: &str| paths.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (a_docs, b_docs) = (load_side(a_paths)?, load_side(b_paths)?);

    println!("A = {a_paths}\nB = {b_paths}\nbounds from {bounds_path}\n");
    println!(
        "{:<16} {:<15} {:>4} {:>12} {:>12} {:>9} {:>6} {:>9} {:>9}  verdict",
        "workload", "metric", "runs", "A", "B", "B worse", "bound", "spread A", "spread B"
    );
    let mut counts = [0usize; 3];
    for name in ALL.map(|w| w.name()) {
        let (a_runs, b_runs) = (runs_of(&a_docs, name), runs_of(&b_docs, name));
        if a_runs.is_empty() || b_runs.is_empty() {
            println!("{name:<16} missing from a side");
            continue;
        }
        for &(metric, better, bound) in &rows {
            let (Some(a), Some(b)) = (side(&a_runs, metric, better), side(&b_runs, metric, better))
            else {
                continue;
            };
            let v = verdict(a, b, better, bound);
            counts[v as usize] += 1;
            let runs = format!("{}/{}", a.runs, b.runs);
            println!(
                "{:<16} {:<15} {:>4} {:>12.4} {:>12.4} {:>8.1}% {:>5.0}% {:>8.1}% {:>8.1}%  {}",
                name,
                metric,
                runs,
                a.value,
                b.value,
                100.0 * worse_by(a.value, b.value, better),
                100.0 * bound,
                100.0 * a.spread,
                100.0 * b.spread,
                v.label()
            );
        }
        // Any increase regresses; NaN (a file without the counts) too.
        let (fa, fb) = (failed_share(&a_runs), failed_share(&b_runs));
        let v = if fb <= fa {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        counts[v as usize] += 1;
        println!(
            "{name:<16} {:<15} {:>4} {fa:>12.6} {fb:>12.6}{:37}  {}",
            "failed_share",
            format!("{}/{}", a_runs.len(), b_runs.len()),
            "",
            v.label()
        );
    }
    println!(
        "\n{} ok, {} regressed, {} unresolved",
        counts[Verdict::Ok as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction_and_flips_with_the_sides() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(11.0, 10.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!((worse_by(90.0, 100.0, Better::Higher) + 0.1).abs() < 1e-12);
        // An A/A pair that once read `ok` (-24.7 %) one way round and
        // `regressed` (+32.9 %) the other.
        assert_eq!(
            worse_by(15.84, 11.92, Better::Lower),
            -worse_by(11.92, 15.84, Better::Lower)
        );
        assert!(worse_by(11.92, 15.84, Better::Lower) > 0.25);
    }

    fn one(value: f64, spread: f64) -> Side {
        Side {
            value,
            runs: 1,
            spread,
        }
    }

    #[test]
    fn verdicts() {
        let v = |a, b| verdict(a, b, Better::Lower, 0.10);
        assert_eq!(v(one(10.0, 0.02), one(10.9, 0.03)), Verdict::Ok);
        assert_eq!(v(one(10.0, 0.02), one(11.5, 0.03)), Verdict::Regressed);
        // A side whose own runs (or, for one run, samples) disagree by
        // more than the bound can neither pass nor fail.
        assert_eq!(v(one(10.0, 0.12), one(11.5, 0.03)), Verdict::Unresolved);
        assert_eq!(v(one(10.0, 0.02), one(10.0, 0.30)), Verdict::Unresolved);
    }

    #[test]
    fn a_gain_beyond_the_bound_needs_three_runs_a_side() {
        let three = |value| Side {
            value,
            runs: RUNS_TO_RESOLVE,
            spread: 0.02,
        };
        let v = |a, b| verdict(a, b, Better::Lower, 0.10);
        // One run each: the same pair is never `ok`, whichever side is A.
        assert_eq!(v(one(10.0, 0.02), one(8.0, 0.02)), Verdict::Unresolved);
        assert_eq!(v(one(8.0, 0.02), one(10.0, 0.02)), Verdict::Regressed);
        assert_eq!(v(three(10.0), one(8.0, 0.02)), Verdict::Unresolved);
        assert_eq!(v(three(10.0), three(8.0)), Verdict::Ok);
        assert_eq!(v(three(8.0), three(10.0)), Verdict::Regressed);
    }

    #[test]
    fn support_looks_at_the_best_three_only() {
        // Throughput: three fast segments agree, three slow ones do not
        // matter.
        let tput = [303.0, 298.0, 245.0, 291.0, 246.0, 242.0];
        assert!((support_spread(&tput, Better::Higher) - (303.0 - 291.0) / 298.0).abs() < 1e-12);
        // Latency: the low end is the best one.
        let lat = [5.1, 5.0, 10.9, 5.4, 5.2, 9.0];
        assert!((support_spread(&lat, Better::Lower) - (5.2 - 5.0) / 5.1).abs() < 1e-12);
        assert_eq!(support_spread(&[1.0, 2.0], Better::Lower), 0.0);
    }

    fn run(workload: &str, p50: f64, segments: &[f64], failed: f64) -> Json {
        let estimate = Json::obj([
            ("value", Json::Num(p50)),
            ("segments", Json::nums(segments)),
        ]);
        Json::obj([
            ("workload", Json::str(workload)),
            ("traced", Json::Bool(false)),
            ("failed", Json::Num(failed)),
            ("attempted", Json::Num(100.0)),
            (
                "metrics",
                Json::obj([("latency_ms_p50", Json::obj([("value", Json::Num(p50))]))]),
            ),
            (
                "detail",
                Json::obj([("latency_ms_p50", estimate), ("latency_ms_p90", Json::Null)]),
            ),
        ])
    }

    #[test]
    fn a_side_is_the_median_of_its_runs_with_their_quartile_spread() {
        let file = |runs: Vec<Json>| Json::obj([("runs", Json::Arr(runs))]);
        let docs = [
            file(vec![
                run("w", 10.0, &[10.0, 10.2, 10.4], 0.0),
                run("other", 1.0, &[], 0.0),
            ]),
            file(vec![run("w", 12.0, &[12.0], 1.0)]),
            file(vec![run("w", 11.0, &[11.0], 0.0)]),
        ];
        let runs = runs_of(&docs, "w");
        assert_eq!(runs.len(), 3);
        let s = side(&runs, "latency_ms_p50", Better::Lower).unwrap();
        assert_eq!((s.value, s.runs), (11.0, 3));
        // Three values: the quartiles are the ends.
        assert!((s.spread - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(failed_share(&runs), 1.0 / 300.0);
        // One run: its own segments stand in.
        let s = side(&runs[..1], "latency_ms_p50", Better::Lower).unwrap();
        assert_eq!(s.runs, 1);
        assert!((s.spread - 0.4 / 10.2).abs() < 1e-12);
        // A metric no run carries is no row.
        assert_eq!(side(&runs, "latency_ms_p90", Better::Lower), None);
    }
}
