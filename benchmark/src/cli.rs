//! The command line; [`USAGE`] lists its forms.

use crate::compare;
use crate::json::Json;
use crate::run::{out_dir, run, RunConfig, RunResult};
use crate::workloads::{WorkloadId, ALL};
use std::process::{Command, ExitCode};

/// `--help`.
pub const USAGE: &str = "\
dk_benchmark --workload W --seed N --seconds S --trace 0|1
    one run; the last line of standard output is the driver's JSON object
dk_benchmark [--only W] [--seed N] [--seconds S] [--trace] [--out FILE]
    a set: every workload end to end (with --trace: the traced set); writes a result file
dk_benchmark --smoke [--only W] [--seed N]
    every workload, one 3 s segment, all oracle checks and the traced pass
dk_benchmark compare A.json[,A2.json,..] B.json[,B2.json,..]
    two sides of one or more result files each; per workload and metric: both
    medians, difference, bound from BENCHMARK.json, run-to-run spread, verdict
workloads: infer_direct infer_repair infer_tcp train_pipelined serve_saturated serve_sparse";

/// Default seed of a set.
pub const DEFAULT_SEED: u64 = 11;
/// Measured seconds of a run; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// `--smoke`: one segment of this many seconds, then a traced pass of
/// [`SMOKE_TRACED_SECONDS`].
pub const SMOKE_SECONDS: f64 = 3.0;
/// See [`SMOKE_SECONDS`].
pub const SMOKE_TRACED_SECONDS: f64 = 1.2;

#[derive(Debug, Default)]
struct Args {
    workload: Option<WorkloadId>,
    only: Option<WorkloadId>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let workload = |name: String| {
            WorkloadId::parse(&name).ok_or_else(|| {
                format!(
                    "unknown workload `{name}`; one of {}",
                    ALL.map(WorkloadId::name).join(", ")
                )
            })
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(workload(value("a workload")?)?),
            "--only" => a.only = Some(workload(value("a workload")?)?),
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seed: not a number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                a.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Runs the command line; the process's exit code.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse(&args).and_then(dispatch),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dk_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(a: Args) -> Result<bool, String> {
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    if let Some(id) = a.workload {
        // The driver's form: one run, its JSON object on the last line.
        let config = RunConfig {
            id,
            seed,
            seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
            traced: a.trace.unwrap_or(false),
            smoke: a.smoke,
        };
        let result = run(config)?;
        if let Some(e) = &result.error {
            eprintln!("dk_benchmark: {e}");
        }
        println!("{}", result.driver_line());
        return Ok(result.correct);
    }

    let ids: Vec<WorkloadId> = a.only.map_or(ALL.to_vec(), |w| vec![w]);
    // Passes of a set: (traced, seconds).
    let passes: Vec<(bool, f64)> = if a.smoke {
        vec![(false, SMOKE_SECONDS), (true, SMOKE_TRACED_SECONDS)]
    } else {
        vec![(
            a.trace.unwrap_or(false),
            a.seconds.unwrap_or(DEFAULT_SECONDS),
        )]
    };
    let mut results = Vec::new();
    for &id in &ids {
        for &(traced, seconds) in &passes {
            let result = run(RunConfig {
                id,
                seed,
                seconds,
                traced,
                smoke: a.smoke,
            })?;
            print_run(&result);
            results.push(result);
        }
    }
    let all_correct = results.iter().all(|r| r.correct);
    let doc = Json::obj([
        ("environment", environment(seed)),
        (
            "runs",
            Json::Arr(results.iter().map(RunResult::to_json).collect()),
        ),
    ]);
    let path = match a.out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let kind = match (a.smoke, passes[0].0) {
                (true, _) => "smoke",
                (false, true) => "traced",
                (false, false) => "set",
            };
            out_dir().join(format!("{kind}-seed{seed}.json"))
        }
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresult file: {}", path.display());
    println!(
        "{}",
        if all_correct {
            "all checks held"
        } else {
            "FAILED: see the runs marked incorrect"
        }
    );
    Ok(all_correct)
}

fn print_run(r: &RunResult) {
    println!(
        "\n{} ({}, seed {}, {} s): {} | {} attempted, {} failed, {} outputs compared",
        r.config.id.name(),
        if r.config.traced {
            "traced"
        } else {
            "end to end"
        },
        r.config.seed,
        r.config.seconds,
        if r.correct { "correct" } else { "INCORRECT" },
        r.attempted,
        r.failed,
        r.compared,
    );
    if let Some(e) = &r.error {
        println!("  error: {e}");
    }
    for (spec, value) in &r.metrics {
        println!("  {:<44} {:>16.4} {}", spec.name, value, spec.unit);
    }
    let p90 = r.detail.get("latency_ms_p90").and_then(|e| e.get("value"));
    if let Some(p90) = p90.and_then(Json::as_f64) {
        println!("  {:<44} {:>16.4} ms (compare only)", "latency_ms_p90", p90);
    }
}

/// Trimmed standard output of a command, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8(out.stdout).ok()?.trim().to_string())
}

/// What a result depends on besides the code: recorded in every file.
fn environment(seed: u64) -> Json {
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("dk_threads", Json::Num(dk_linalg::max_threads() as f64)),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Json::Null, Json::str),
        ),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).map_or(Json::Null, Json::str),
        ),
        (
            "git_dirty",
            command_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        ("seed", Json::Num(seed as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_form_and_the_hand_form() {
        let a = parse(&args(
            "--workload infer_tcp --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(WorkloadId::InferTcp));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(12.0), Some(true))
        );
        let a = parse(&args("--workload infer_tcp --trace 0 --seed 7")).unwrap();
        assert_eq!((a.trace, a.seed), (Some(false), Some(7)));
        let a = parse(&args("--trace --only serve_sparse")).unwrap();
        assert_eq!(
            (a.trace, a.only),
            (Some(true), Some(WorkloadId::ServeSparse))
        );
        let a = parse(&args("--smoke --seed 3")).unwrap();
        assert!(a.smoke && a.seed == Some(3) && a.trace.is_none());
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds x",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
