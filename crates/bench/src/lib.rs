//! # marion-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§5):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — Maril machine description statistics |
//! | `table2` | Table 2 — system source size by component |
//! | `table3` | Table 3 — compile time per strategy/target + dilation |
//! | `table4` | Table 4 — Livermore loops: exec time and actual/estimated |
//! | `fig7`   | Figure 7 — i860 dual-operation schedule for the sample fragment |
//! | `speedup`| §5 headline — RASE/IPS vs Postpass on compute-intensive code |
//!
//! This library holds the shared plumbing: compile a workload for a
//! machine/strategy pair, run it on the simulator, and lay out rows.

pub mod dagviz;
pub mod diff;
pub mod flame;
pub mod html;
pub mod quality;
pub mod serve;

use marion_core::{CompiledProgram, Compiler, StrategyKind};
use marion_machines::MachineSpec;
use marion_sim::{run_program, RunResult, SimConfig, Value};
use marion_workloads::Workload;
use std::time::{Duration, Instant};

/// A compiled-and-measured workload.
pub struct Measurement {
    /// The compiled program.
    pub program: CompiledProgram,
    /// Wall-clock time the back end took.
    pub compile_time: Duration,
    /// Simulation outcome.
    pub run: RunResult,
    /// Scheduler-estimated cycles for the same execution profile.
    pub estimated_cycles: u64,
}

/// Compiles `workload` for `spec` under `strategy` and runs it on the
/// simulator.
///
/// # Panics
///
/// Panics on compilation or simulation failure (bench binaries are
/// expected to run on the bundled, tested workloads).
pub fn measure(
    spec: &MachineSpec,
    strategy: StrategyKind,
    workload: &Workload,
    config: &SimConfig,
) -> Measurement {
    let module = workload.module();
    let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy);
    let start = Instant::now();
    let program = compiler
        .compile_module(&module)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, spec.machine.name()));
    let compile_time = start.elapsed();
    let run = run_program(
        &spec.machine,
        &program,
        "main",
        &[],
        Some(marion_maril::Ty::Int),
        config,
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, spec.machine.name()));
    let estimated_cycles = marion_sim::run::estimated_cycles(&program, &run.block_counts);
    Measurement {
        program,
        compile_time,
        run,
        estimated_cycles,
    }
}

/// The IR interpreter's result for `workload`'s `main`: the checksum
/// every compiled cell of the workload must reproduce. Compute it once
/// per workload, not once per cell.
///
/// # Panics
///
/// Panics on an interpreter fault, or when `main` returns nothing.
pub fn interp_checksum(workload: &Workload) -> Value {
    let module = workload.module();
    let mut interp = marion_ir::interp::Interp::new(&module, 1 << 22).with_budget(400_000_000);
    interp
        .call_by_name("main", &[])
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name))
        .unwrap()
}

/// Verifies a measurement's checksum against the IR interpreter's
/// `expected` one ([`interp_checksum`]).
///
/// # Panics
///
/// Panics on a mismatch — a bench must never report timings for wrong
/// code.
pub fn verify_against_interp(workload: &Workload, expected: Value, m: &Measurement) {
    let got = m.run.result.expect("result");
    match (expected, got) {
        (Value::I(a), Value::I(b)) if a == b => {}
        _ => panic!(
            "{}: checksum mismatch interp {expected:?} vs sim {got:?}",
            workload.name
        ),
    }
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `println!` for the paper-table and tool binaries, whose readers
/// often stop early (`| head -1`, `| grep -q`): once stdout is closed
/// the program ends quietly with status 0 instead of panicking with
/// "failed printing to stdout: Broken pipe".
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::print_line(format_args!($($arg)*))
    };
}

/// `print!` to [`outln!`]'s `println!`.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::print_text(format_args!($($arg)*))
    };
}

/// Writes one line to stdout for [`outln!`].
pub fn print_line(line: std::fmt::Arguments<'_>) {
    print_text(format_args!("{line}\n"));
}

/// Writes text to stdout for [`out!`] and [`outln!`], exiting with
/// status 0 when the reader has gone away.
pub fn print_text(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Prints a row of right-aligned columns under a fixed layout.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn measure_small_kernel_on_r2000() {
        let spec = marion_machines::load("r2000");
        let kernels = marion_workloads::livermore::kernels();
        let ll12 = kernels.iter().find(|k| k.name == "LL12").unwrap();
        let m = measure(&spec, StrategyKind::Postpass, ll12, &SimConfig::default());
        verify_against_interp(ll12, interp_checksum(ll12), &m);
        assert!(m.run.cycles > 0);
        assert!(m.estimated_cycles > 0);
        // Actual (with caches) must not be below the cache-free
        // schedule estimate by more than slack from optimistic block
        // estimates.
        let ratio = m.run.cycles as f64 / m.estimated_cycles as f64;
        assert!(ratio > 0.5 && ratio < 10.0, "implausible ratio {ratio}");
    }
}
