//! `hcl-bench`: one harness, four workloads.
//!
//! ```text
//! hcl-bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!               [--scale full|smoke] [--repeat K] [--out FILE]
//! hcl-bench compare A.json B.json
//! hcl-bench manifest
//! ```
//!
//! `run` builds `target/release/hcl` from the checkout, generates every
//! input from the seed, drives the real binary from outside for the
//! end-to-end metrics (`--trace 0`), and in a separate traced run
//! (`--trace 1`) pushes the same inputs through the library layers with a
//! span around each call for the per-layer metrics. Without `--workload`
//! it runs all four; without `--trace` it makes both runs. See
//! `bench/README.md`.

mod check;
mod compare;
mod gen;
mod host;
mod json;
mod loadgen;
mod metrics;
mod pipelines;
mod proc;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use report::RunRecord;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Profile, Scale, PROFILES};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds` at
/// full scale.
pub const RUN_SECONDS: u64 = 10;

/// Default of `--seconds` at smoke scale.
const SMOKE_SECONDS: f64 = 3.0;

const USAGE: &str = "usage: hcl-bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     [--scale full|smoke] [--repeat K] [--out FILE]\n       \
                     hcl-bench compare A.json B.json\n       \
                     hcl-bench manifest";

struct RunArgs {
    workloads: Vec<&'static Profile>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: an untraced run, then a traced one.
    trace: Option<bool>,
    scale: Scale,
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: PROFILES.iter().collect(),
        seed: 1,
        seconds: None,
        trace: None,
        scale: Scale::Full,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))
                .map(String::as_str)
        };
        let invalid = |v: &str| format!("invalid value for {flag}: `{v}`");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let profile = PROFILES
                    .iter()
                    .find(|p| p.name == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                parsed.workloads = vec![profile];
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| invalid(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| invalid(v))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err(invalid(v));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(invalid(v)),
                });
            }
            "--scale" => {
                parsed.scale = match value()? {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(invalid(v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                parsed.repeat = v
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| invalid(v))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unrecognised argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// What every run of one invocation shares.
struct Plan {
    hcl: PathBuf,
    out_dir: PathBuf,
    nproc: usize,
    scale: Scale,
    seconds: f64,
}

/// One run of one workload in one trace mode, in its own scratch
/// directory (removed on success, kept for inspection on failure).
fn run_one(
    plan: &Plan,
    profile: &'static Profile,
    seed: u64,
    traced: bool,
) -> Result<RunRecord, String> {
    let dir = plan.out_dir.join(format!(
        "tmp-{}-{}-{}",
        std::process::id(),
        profile.name,
        u8::from(traced)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let ctx = Ctx {
        hcl: plan.hcl.clone(),
        dir: dir.clone(),
        nproc: plan.nproc,
    };
    let vertices = plan.scale.vertices(profile);
    // A traced run spends half its time on the live server (for the
    // `cli.*` layers) and the rest in the in-process pipelines.
    let live_seconds = if traced {
        plan.seconds / 2.0
    } else {
        plan.seconds
    };
    let live = workloads::run_live(&ctx, profile, vertices, seed, live_seconds, traced)?;
    let metrics = if traced {
        let mut tracer = trace::Tracer::new();
        let set = traced::run(&ctx, profile, seed, &live, &mut tracer)?;
        let spans = plan.out_dir.join(format!("trace-{}.jsonl", profile.name));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        metrics::check_complete(&set, metrics::PER_LAYER.iter().map(|m| m.name))?;
        set
    } else {
        let set = report::end_to_end(&live);
        metrics::check_complete(&set, metrics::END_TO_END.iter().map(|m| m.name))?;
        set
    };
    let record = RunRecord {
        workload: profile.name,
        seed,
        seconds: plan.seconds,
        traced,
        attempted: live.attempted,
        failed: live.failed,
        drain_exit_code: live.drain_exit_code,
        loadgen_valid: live.loadgen_valid,
        metrics,
    };
    record.print_table();
    for note in report::latency_notes(&live) {
        println!("  {note}");
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(record)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let env = proc::Env::detect();
    let out_dir = proc::repo_root().join("bench").join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let plan = Plan {
        hcl: proc::build_hcl()?,
        out_dir,
        nproc: env.nproc,
        scale: args.scale,
        seconds: args.seconds.unwrap_or(match args.scale {
            Scale::Full => RUN_SECONDS as f64,
            Scale::Smoke => SMOKE_SECONDS,
        }),
    };
    println!(
        "hcl-bench: nproc {}, {}, {}, commit {}, scale {}, {} s per run",
        env.nproc,
        env.cpu_model,
        env.rustc,
        env.git_commit,
        plan.scale.as_str(),
        plan.seconds
    );
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    for rep in 0..args.repeat {
        for &profile in &args.workloads {
            for &traced in modes {
                runs.push(run_one(&plan, profile, args.seed + rep, traced)?);
            }
        }
    }
    let out = args
        .out
        .unwrap_or_else(|| plan.out_dir.join("results.json"));
    let doc = report::results_document(&env, plan.scale.as_str(), &runs);
    std::fs::write(&out, doc.render_pretty(5))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    // The driver reads the last line of stdout: the last run's result.
    let last = runs.last().expect("--repeat is at least 1");
    println!("{}", last.contract_line());
    Ok(if runs.iter().all(RunRecord::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(&args[1], &args[2]).map(|regressed| {
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest(RUN_SECONDS).render_pretty(2));
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
