//! End-to-end benchmark of the spoofwatch pipeline.
//!
//! Two ways in, one measuring routine ([`measure::measure`]), one
//! measurement per process:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` measures one
//!   workload and ends its standard output with one JSON object — the
//!   contract `BENCHMARK.json` describes.
//! * without `--workload`, every workload is measured untraced and
//!   traced in turn — each in a process of its own, started from this
//!   one — every metric is printed by name with its unit, and the result
//!   is written to `benchmark/results/`. `--quick` shrinks inputs
//!   twentyfold and takes one repetition; `--check-repeat` takes every
//!   end-to-end measurement twice and fails unless the two agree within
//!   each metric's own bound.
//!
//! See `README.md` beside this package for the metric glossary.

mod inputs;
mod kernels;
mod measure;
mod modes;
mod report;
mod spec;
mod stats;
mod taps;

use measure::{measure, Options};
use std::process::ExitCode;

const USAGE: &str = "usage: spoofwatch-benchmark [--workload NAME --trace 0|1] [--seed N] \
                     [--seconds S] [--quick] [--check-repeat]";

struct Cli {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
    quick: bool,
    check_repeat: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: None,
        seed: 7,
        seconds: 12.0,
        quick: false,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// One workload: the per-metric lines, a `detail` line (quartiles,
/// repetitions, failures) for the full run to collect, and the
/// contract's JSON object on the last line.
fn run_single(cli: &Cli, name: &str) -> Result<bool, String> {
    let spec = spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let traced = cli
        .trace
        .ok_or("--workload needs --trace 0 (end-to-end) or --trace 1 (per-layer)")?;
    let m = measure(
        spec,
        &Options {
            seed: cli.seed,
            seconds: cli.seconds,
            traced,
            quick: cli.quick,
        },
    )?;
    report::print_measurement(&m);
    println!("{DETAIL_PREFIX}{}", report::detail_json(&m)?);
    println!("{}", report::contract_json(&m)?);
    Ok(m.correct())
}

/// Marks the line of a single-workload run that the full run keeps.
const DETAIL_PREFIX: &str = "detail ";

/// What the full run keeps of one single-workload process.
struct ChildRun {
    workload: &'static str,
    traced: bool,
    /// Exit status: every output check passed.
    correct: bool,
    detail: String,
    contract: String,
}

/// Measure one workload in a process of its own, passing its lines
/// through. A fresh process per measurement is what the acceptance
/// driver does, and it is the only way `peak_rss_mb` means the same
/// thing twice: the allocator keeps what earlier measurements freed.
fn run_child(cli: &Cli, workload: &'static str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()]);
    if cli.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end and collects its stdout;
    // stderr is the parent's.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let contract = lines.pop().unwrap_or_default().to_string();
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{workload}: the run printed no result ({})", output.status))?
        .to_string();
    for line in lines {
        println!("{line}");
    }
    Ok(ChildRun {
        workload,
        traced,
        correct: output.status.success(),
        detail,
        contract,
    })
}

/// Every workload, untraced then traced, each in its own process. With
/// `--check-repeat` every untraced measurement is taken twice, one
/// straight after the other.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let env = report::Environment::probe(cli.seed);
    println!("{env}");
    let mut runs = Vec::new();
    let mut repeats = Vec::new();
    for traced in [false, true] {
        for spec in &spec::WORKLOADS {
            runs.push(run_child(cli, spec.name, traced)?);
            if cli.check_repeat && !traced {
                repeats.push(run_child(cli, spec.name, traced)?);
            }
        }
    }
    let mut ok = true;
    if cli.check_repeat {
        ok &= report::print_repeat_check(&runs, &repeats)?;
    }
    runs.append(&mut repeats);
    ok &= runs.iter().all(|r| r.correct);

    let path = report::write_result(&env, cli.quick, &runs)?;
    println!("result written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_cli().and_then(|cli| match cli.workload.clone() {
        Some(name) => run_single(&cli, &name),
        None => run_all(&cli),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed (see the lines marked CHECK FAILED or DISAGREES)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
