//! `execute_verify`: seeded (machine, strategy, program) cells of the
//! 5 × 3 × 18 quality matrix. Each cell is compiled, run on
//! `marion_sim::run_program` with the default `SimConfig` (caches on),
//! and its checksum compared with the IR interpreter's, computed
//! during set-up and independent of the compiler.
//!
//! Rounds visit the 18 programs in seeded orders; each program's visits
//! step through the machines and strategies (see [`Cells`]), so every
//! program, machine and strategy recurs at the same rate at any seed.

use crate::compile_cold::report_counts;
use crate::inputs::{self, Program, Target};
use crate::replay::{replay, Counts, LAYERS};
use crate::report::Report;
use crate::span::{self_times, Recorder};
use crate::stats;
use crate::Args;
use marion_core::driver::CompiledProgram;
use marion_core::{Compiler, StrategyKind};
use marion_ir::interp::Value;
use marion_maril::{Machine, Ty};
use marion_rng::SplitMix64;
use marion_sim::{run_program, RunResult, SimConfig};
use std::time::Instant;

/// Cells whose results give the deterministic metrics: five rounds, in
/// which every program meets every machine once. They always run, even
/// past `--seconds`.
const DET_CELLS: usize = 90;

struct Setup {
    targets: Vec<Target>,
    compilers: Vec<Vec<Compiler>>,
    programs: Vec<Program>,
    /// Interpreter checksum and statements executed, per program.
    reference: Vec<(i64, u64)>,
}

impl Setup {
    fn new(rec: &mut Recorder) -> Result<Setup, String> {
        let targets = inputs::bundled_targets(rec);
        let workloads = inputs::eval_workloads(rec);
        let programs = inputs::lower(&workloads, rec)?;
        let reference = programs
            .iter()
            .map(|p| {
                inputs::interp_reference(&p.module, rec)
                    .map_err(|e| format!("interpreter, {}: {e}", p.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let compilers = targets
            .iter()
            .map(|t| StrategyKind::ALL.iter().map(|&k| t.compiler(k)).collect())
            .collect();
        Ok(Setup {
            targets,
            compilers,
            programs,
            reference,
        })
    }
}

/// The seeded cell sequence: (program, target, strategy index).
/// Rounds visit every program once, in a seeded order. A program's
/// successive visits step through the machines and the strategies
/// from seeded offsets, so any five visits cover every machine and the
/// heavy programs meet fast and slow machines alike at every seed.
struct Cells {
    rng: SplitMix64,
    ntargets: usize,
    round: Vec<usize>,
    /// Per program: visits so far, machine offset, strategy offset.
    visits: Vec<(usize, usize, usize)>,
}

impl Cells {
    fn new(seed: u64, ntargets: usize, nprograms: usize) -> Cells {
        let mut rng = SplitMix64::new(seed);
        let visits = (0..nprograms)
            .map(|_| (0, rng.index(ntargets), rng.index(StrategyKind::ALL.len())))
            .collect();
        Cells {
            rng,
            ntargets,
            round: Vec::new(),
            visits,
        }
    }

    fn next(&mut self) -> (usize, usize, usize) {
        if self.round.is_empty() {
            self.round = (0..self.visits.len()).collect();
            inputs::shuffle(&mut self.rng, &mut self.round);
        }
        let p = self.round.pop().expect("refilled above");
        let (k, t0, s0) = &mut self.visits[p];
        let cell = (
            p,
            (*t0 + *k) % self.ntargets,
            (*s0 + *k) % StrategyKind::ALL.len(),
        );
        *k += 1;
        cell
    }
}

/// Simulates `main` and compares its result with the interpreter's.
/// A simulator panic counts as a failed check, not a crash.
fn simulate(machine: &Machine, program: &CompiledProgram) -> Result<RunResult, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_program(
            machine,
            program,
            "main",
            &[],
            Some(Ty::Int),
            &SimConfig::default(),
        )
    }))
    .map_err(|_| "simulator panicked".to_string())?
    .map_err(|e| format!("simulator: {e}"))
}

fn checksum_ok(run: &RunResult, expected: i64) -> bool {
    matches!(run.result, Some(Value::I(got)) if got == expected)
}

/// Simulated-run totals over a set of cells.
#[derive(Default)]
struct SimTotals {
    insts: u64,
    cycles: u64,
    stall_cycles: u64,
    miss_cycles: u64,
    cycles_per_stmt: Vec<f64>,
    code_insts: u64,
    est_cycles: u64,
    insts_per_node: Vec<f64>,
    est_per_node: Vec<f64>,
}

impl SimTotals {
    fn push(&mut self, run: &RunResult, stmts: u64, program: &Program, insts: u64, est: u64) {
        let nodes = program.ir_nodes.max(1) as f64;
        self.insts += run.insts_executed;
        self.cycles += run.cycles;
        self.stall_cycles += run.stall_cycles;
        self.miss_cycles += run.miss_cycles;
        self.cycles_per_stmt
            .push(run.cycles as f64 / stmts.max(1) as f64);
        self.code_insts += insts;
        self.est_cycles += est;
        self.insts_per_node.push(insts as f64 / nodes);
        self.est_per_node.push(est as f64 / nodes);
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::default();
    let (setup, setup_s) = crate::repeat_setup(stats::Share::wall, Setup::new)?;
    let mut cells = Cells::new(args.seed, setup.targets.len(), setup.programs.len());
    let mut latencies = Vec::new();
    let mut compile_ms = Vec::new();
    let mut all = SimTotals::default();
    let mut det = SimTotals::default();
    let mut budget = stats::Budget::new(args.seconds as f64, stats::Share::wall());
    while latencies.len() < DET_CELLS || !budget.spent() {
        let (p, t, s) = cells.next();
        let program = &setup.programs[p];
        let target = &setup.targets[t];
        let (expected, stmts) = setup.reference[p];
        report.attempted += 1;
        let began = Instant::now();
        let outcome = setup.compilers[t][s]
            .compile_module(&program.module)
            .map_err(|e| format!("compile: {e}"))
            .and_then(|compiled| {
                compile_ms.push(began.elapsed().as_secs_f64() * 1e3);
                let run = simulate(&target.machine, &compiled)?;
                if checksum_ok(&run, expected) {
                    Ok((compiled, run))
                } else {
                    Err(format!("checksum {:?}, interpreter {expected}", run.result))
                }
            });
        let ms = began.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok((compiled, run)) => {
                latencies.push(ms);
                let (insts, est) = (
                    compiled.stats.insts_generated as u64,
                    compiled.stats.estimated_cycles,
                );
                all.push(&run, stmts, program, insts, est);
                if latencies.len() <= DET_CELLS {
                    det.push(&run, stmts, program, insts, est);
                }
            }
            Err(e) => {
                eprintln!("execute_verify: {} on {}: {e}", program.name, target.name);
                latencies.push(f64::INFINITY);
                report.failed += 1;
            }
        }
    }
    let wall = budget.finish().0;
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set("ops_per_s", latencies.len() as f64 / wall);
    report.set("op_ms_p50", stats::quantile(&latencies, 0.5));
    report.set("op_ms_p90", stats::quantile(&latencies, 0.9));
    report.set("code_insts_per_node", stats::geomean(&det.insts_per_node));
    report.set("est_cycles_per_node", stats::geomean(&det.est_per_node));
    report.det("code_insts", det.code_insts);
    report.det("est_cycles", det.est_cycles);
    report.det("sim_cycles", det.cycles);

    report.row(
        "exec_minsts_per_s",
        all.insts as f64 / wall / 1e6,
        "Minsts/s",
    );
    report.row("sim_cycles", det.cycles as f64, "cycles");
    report.row(
        "sim_cycles_per_stmt",
        stats::geomean(&det.cycles_per_stmt),
        "cycles/stmt",
    );
    report.row("code_insts", det.code_insts as f64, "count");
    report.row("compile_ms_p50", stats::quantile(&compile_ms, 0.5), "ms");
    report.row("cells", latencies.len() as f64, "count");
    Ok(report)
}

/// Alternates, cell by cell, the untraced path (compile_module,
/// simulate, check) and the traced one (replayed compile, then
/// simulate and check inside spans).
fn run_traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut setup_rec = Recorder::new(true, epoch);
    let setup = Setup::new(&mut setup_rec)?;
    crate::report_setup_layers(&mut report, &setup_rec);
    report.set(
        "frontend.ir_nodes",
        setup.programs.iter().map(|p| p.ir_nodes).sum::<usize>() as f64,
    );
    report.set(
        "interp.stmts",
        setup.reference.iter().map(|r| r.1).sum::<u64>() as f64,
    );

    let mut rec = Recorder::new(true, epoch);
    let mut cells = Cells::new(args.seed, setup.targets.len(), setup.programs.len());
    let mut untraced_ns = 0u128;
    let mut traced_ns = 0u128;
    let mut det_counts = Counts::default();
    let mut fallback_ns = 0u64;
    let mut det = SimTotals::default();
    let mut all = SimTotals::default();
    let mut mismatches = 0u64;
    let mut done = 0usize;
    let mut budget = stats::Budget::new(args.seconds as f64, stats::Share::wall());
    let host = stats::Share::host();
    while done < DET_CELLS || !budget.spent() {
        let (p, t, s) = cells.next();
        let program = &setup.programs[p];
        let target = &setup.targets[t];
        let compiler = &setup.compilers[t][s];
        let (expected, stmts) = setup.reference[p];
        report.attempted += 1;
        done += 1;

        let began = Instant::now();
        let untraced = compiler
            .compile_module(&program.module)
            .map_err(|e| e.to_string())
            .and_then(|c| simulate(&target.machine, &c).map(|r| checksum_ok(&r, expected)));
        untraced_ns += began.elapsed().as_nanos();

        let began = Instant::now();
        let traced = replay(
            &mut rec,
            &target.machine,
            &target.escapes,
            compiler.strategy(),
            &program.module,
        )
        .map_err(|e| e.to_string())
        .and_then(|(compiled, c)| {
            let run = rec.time("sim", || simulate(&target.machine, &compiled))?;
            let ok = rec.time("check", || checksum_ok(&run, expected));
            Ok((run, c, ok))
        });
        traced_ns += began.elapsed().as_nanos();

        match (untraced, traced) {
            (Ok(true), Ok((run, c, true))) => {
                fallback_ns += c.sched_fallback_ns;
                all.push(&run, stmts, program, c.emit_insts, c.sched_length_cycles);
                if done <= DET_CELLS {
                    det_counts.add(&c);
                    det.push(&run, stmts, program, c.emit_insts, c.sched_length_cycles);
                }
            }
            (u, t) => {
                let t = t.map(|(_, _, ok)| ok);
                eprintln!(
                    "execute_verify: {} on {} {}: untraced {u:?}, traced {t:?}",
                    program.name,
                    target.name,
                    compiler.strategy().name(),
                );
                if matches!(u, Ok(false)) || matches!(t, Ok(false)) {
                    mismatches += 1;
                }
                report.failed += 1;
            }
        }
    }

    report.set("host.cpu_granted", host.granted_since());
    let times = self_times(rec.spans());
    let ms = |layer: &str| times.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let mut covered = 0.0;
    for (layer, name) in LAYERS
        .into_iter()
        .chain([("sim", "sim.ms"), ("check", "check.ms")])
    {
        covered += ms(layer);
        report.set(name, ms(layer));
    }
    report.set("sched.fallback_ms", fallback_ns as f64 / 1e6);
    report_counts(&mut report, &det_counts);
    report.set(
        "sim.minsts_per_s",
        all.insts as f64 / 1e3 / ms("sim").max(1e-9),
    );
    report.set("sim.insts", det.insts as f64);
    report.set("sim.cycles", det.cycles as f64);
    report.set("sim.cycles_per_stmt", stats::geomean(&det.cycles_per_stmt));
    report.set("sim.stall_cycles", det.stall_cycles as f64);
    report.set("sim.miss_cycles", det.miss_cycles as f64);
    report.det("sim_cycles", det.cycles);
    report.set("check.mismatches", mismatches as f64);
    report.set(
        "trace.overhead_pct",
        (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0,
    );
    report.set("trace.coverage", covered / (traced_ns as f64 / 1e6));
    report.set("failed_ratio", report.failed_ratio());
    Ok(report)
}
