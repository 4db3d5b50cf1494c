//! The Marion benchmark: one command, three seeded workloads.
//!
//! ```text
//! marion-perfbench --workload compile_cold|execute_verify|serve_mix
//!                  --seed N --seconds S --trace 0|1
//! marion-perfbench --self-test [--seed N]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) replays the same inputs with a span around
//! each call into a layer's public function and reports the per-layer
//! metrics. Either prints a human-readable table, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Every output is
//! checked; a failed check counts in `failed` instead of stopping the
//! run. `--self-test` runs every workload twice at one seed, untraced
//! and traced, and fails unless the deterministic metrics repeat
//! exactly and no check failed.

mod compile_cold;
mod execute_verify;
mod inputs;
mod replay;
mod report;
mod serve_mix;
mod span;
mod stats;

use report::{Report, DETERMINISTIC, END_TO_END, PER_LAYER};
use span::{self_times, Recorder};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["compile_cold", "execute_verify", "serve_mix"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> &'static str {
    "usage: marion-perfbench --workload compile_cold|execute_verify|serve_mix \
     --seed N --seconds S --trace 0|1\n       marion-perfbench --self-test [--seed N]"
}

enum Mode {
    Run(Args),
    SelfTest(u64),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut self_test = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(number(value)?),
            "--seconds" => seconds = Some(number(value)?),
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                other => return Err(format!("--trace: `{other}` is not 0 or 1")),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if self_test {
        return Ok(Mode::SelfTest(seed.unwrap_or(1)));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (have: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be between 1 and 3600".to_string());
    }
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Builds a workload's inputs `SETUPS` times with tracing off and
/// returns the last set-up with the median time, in seconds of granted
/// CPU time as `share` measures it.
pub fn repeat_setup<T>(
    share: fn() -> stats::Share,
    mut build: impl FnMut(&mut Recorder) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let mut off = Recorder::new(false, Instant::now());
        let granted = share();
        let began = Instant::now();
        let built = build(&mut off)?;
        times.push(began.elapsed().as_secs_f64() * granted.granted_since());
        last = Some(built);
    }
    let built = last.expect("SETUPS is at least 1");
    Ok((built, stats::median(&times)))
}

/// Copies the set-up layers' self-times into the report.
pub fn report_setup_layers(report: &mut Report, rec: &Recorder) {
    let times = self_times(rec.spans());
    for (layer, name) in [
        ("maril", "maril.ms"),
        ("mdgen", "mdgen.ms"),
        ("workloads", "workloads.ms"),
        ("frontend", "frontend.ms"),
        ("interp", "interp.ms"),
        ("warmup", "warmup.ms"),
    ] {
        report.set(name, times.get(layer).copied().unwrap_or(0) as f64 / 1e6);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "compile_cold" => compile_cold::run(args),
        "execute_verify" => execute_verify::run(args),
        "serve_mix" => serve_mix::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn print_run(args: &Args, report: &Report) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "# {} seed {} seconds {} ({mode}): {} ops attempted, {} failed, failed_ratio {}",
        args.workload,
        args.seed,
        args.seconds,
        report.attempted,
        report.failed,
        report.failed_ratio()
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<24} {value:>16.4} {unit}");
    }
    if !report.table.is_empty() {
        println!(
            "# {} metrics by the names of the workload's own table",
            args.workload
        );
        println!(
            "  {:<24} {:>16.4} ratio",
            "failed_ratio",
            report.failed_ratio()
        );
        for (name, value, unit) in &report.table {
            println!("  {name:<24} {value:>16.4} {unit}");
        }
    }
    for (name, value) in &report.deterministic {
        println!("  deterministic {name:<24} {value}");
    }
    println!("{}", report.json_line(names));
}

/// Runs every workload twice, untraced and traced, at one seed with a
/// short budget, and compares the deterministic metrics.
fn self_test(seed: u64) -> Result<(), String> {
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed,
                seconds: 1,
                trace,
            };
            let first = run(&args)?;
            let second = run(&args)?;
            for r in [&first, &second] {
                if r.failed > 0 {
                    problems.push(format!(
                        "{workload} trace={trace}: {} failed checks",
                        r.failed
                    ));
                }
            }
            for name in DETERMINISTIC {
                let (a, b) = (
                    first.deterministic.get(name),
                    second.deterministic.get(name),
                );
                if a != b {
                    problems.push(format!("{workload} trace={trace}: {name} {a:?} then {b:?}"));
                }
            }
            println!(
                "self-test {workload} trace={trace}: deterministic {:?}",
                first.deterministic
            );
        }
    }
    if problems.is_empty() {
        println!("self-test passed");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("marion-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::SelfTest(seed) => match self_test(seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("marion-perfbench: self-test failed:\n{e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run(args) => match run(&args) {
            Ok(report) => {
                print_run(&args, &report);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("marion-perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
