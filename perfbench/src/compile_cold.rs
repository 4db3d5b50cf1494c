//! `compile_cold`: seeded (program, machine, strategy) cells through
//! `Compiler::compile_module`, with no cache, tracing off and one job.
//!
//! A pass compiles 34 programs once each: the 18 evaluation programs
//! and one fresh seeded `gen::random_program` per statement count 5,
//! 10, ..., 80. Its machines are the 5 bundled descriptions and two
//! fresh seeded `marion_mdgen` ones; strategies are all three. Program
//! `i` of pass `p` goes to (machine, strategy) pair `i + p` of a seeded
//! order of the 21 pairs, so passes rotate programs through the pairs.
//! Compile cost varies several-fold between generated draws of the
//! same size, so generated programs and machines change every pass and
//! a run averages over many draws.

use crate::inputs::{self, Program, Target};
use crate::replay::{replay, Counts, LAYERS};
use crate::report::Report;
use crate::span::{self_times, Recorder};
use crate::stats;
use crate::Args;
use marion_core::emit::render_program;
use marion_core::{Compiler, StrategyKind};
use marion_rng::SplitMix64;
use std::time::Instant;

/// Passes whose cells give the deterministic metrics: one turn of the
/// rotation, so every program meets every (machine, strategy) pair
/// once. They always run to the end, even past `--seconds`.
const DET_PASSES: usize = 21;

/// Passes' worth of generated inputs made during set-up; a longer run
/// draws each further pass's inputs when it starts.
const POOL_PASSES: usize = 24;

/// Statement counts of each pass's generated programs.
const STMTS: [u32; 16] = [
    5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80,
];

/// One pass's generated inputs, released once the pass is done.
#[derive(Default)]
struct PassInputs {
    machines: Vec<Target>,
    programs: Vec<Program>,
}

struct Setup {
    bundled: Vec<Target>,
    /// `compilers[t][s]`: bundled target `t`, `StrategyKind::ALL[s]`.
    compilers: Vec<Vec<Compiler>>,
    eval: Vec<Program>,
    passes: Vec<PassInputs>,
    /// Program visit order within a pass: indices below 18 are
    /// evaluation programs, the rest the pass's generated ones.
    order: Vec<usize>,
    /// (target, strategy index) pairs in seeded order; targets past the
    /// bundled five are the pass's generated machines.
    pairs: Vec<(usize, usize)>,
    /// Draws the generated inputs of pass `passes.len()` onwards.
    rng: SplitMix64,
    rejected_machines: usize,
}

impl Setup {
    fn new(seed: u64, rec: &mut Recorder) -> Result<Setup, String> {
        let mut rng = SplitMix64::new(seed);
        let bundled = inputs::bundled_targets(rec);
        let eval = inputs::lower(&inputs::eval_workloads(rec), rec)?;
        let compilers = bundled
            .iter()
            .map(|t| StrategyKind::ALL.iter().map(|&k| t.compiler(k)).collect())
            .collect();
        let mut order: Vec<usize> = (0..eval.len() + STMTS.len()).collect();
        inputs::shuffle(&mut rng, &mut order);
        let mut pairs: Vec<(usize, usize)> = (0..bundled.len() + 2)
            .flat_map(|t| (0..StrategyKind::ALL.len()).map(move |s| (t, s)))
            .collect();
        inputs::shuffle(&mut rng, &mut pairs);
        let mut setup = Setup {
            bundled,
            compilers,
            eval,
            passes: Vec::with_capacity(POOL_PASSES),
            order,
            pairs,
            rng,
            rejected_machines: 0,
        };
        setup.draw_passes(POOL_PASSES, rec)?;
        Ok(setup)
    }

    /// Draws generated inputs until `count` passes have them.
    fn draw_passes(&mut self, count: usize, rec: &mut Recorder) -> Result<(), String> {
        while self.passes.len() < count {
            let (machines, rejected) = inputs::generated_targets(&mut self.rng, 2, rec);
            self.rejected_machines += rejected;
            let sources = inputs::random_workloads(&mut self.rng, &STMTS, rec);
            let programs = inputs::lower(&sources, rec)?;
            self.passes.push(PassInputs { machines, programs });
        }
        Ok(())
    }

    /// Cold compilers for pass `pass`'s generated machines.
    fn pass_compilers(&self, pass: usize) -> Vec<Vec<Compiler>> {
        self.passes[pass]
            .machines
            .iter()
            .map(|t| StrategyKind::ALL.iter().map(|&k| t.compiler(k)).collect())
            .collect()
    }

    /// Program, target and compiler of cell `i` in pass `pass`.
    fn cell<'a>(
        &'a self,
        pass: usize,
        i: usize,
        generated: &'a [Vec<Compiler>],
    ) -> (&'a Program, &'a Target, &'a Compiler) {
        let inputs = &self.passes[pass];
        let p = self.order[i];
        let program = match p.checked_sub(self.eval.len()) {
            Some(g) => &inputs.programs[g],
            None => &self.eval[p],
        };
        let (t, s) = self.pairs[(i + pass) % self.pairs.len()];
        match t.checked_sub(self.bundled.len()) {
            Some(g) => (program, &inputs.machines[g], &generated[g][s]),
            None => (program, &self.bundled[t], &self.compilers[t][s]),
        }
    }

    fn cells_per_pass(&self) -> usize {
        self.order.len()
    }

    /// Frees pass `pass`'s generated inputs, so memory does not grow
    /// with the number of passes a run completes.
    fn release(&mut self, pass: usize) {
        self.passes[pass] = PassInputs::default();
    }
}

/// Per-cell code size and estimated cycles over the deterministic
/// passes.
#[derive(Default)]
struct Quality {
    insts: u64,
    est_cycles: u64,
    insts_per_node: Vec<f64>,
    cycles_per_node: Vec<f64>,
}

impl Quality {
    fn push(&mut self, program: &Program, insts: u64, est_cycles: u64) {
        let nodes = program.ir_nodes.max(1) as f64;
        self.insts += insts;
        self.est_cycles += est_cycles;
        self.insts_per_node.push(insts as f64 / nodes);
        self.cycles_per_node.push(est_cycles as f64 / nodes);
    }

    fn report(&self, r: &mut Report) {
        r.set("code_insts_per_node", stats::geomean(&self.insts_per_node));
        r.set("est_cycles_per_node", stats::geomean(&self.cycles_per_node));
        r.det("code_insts", self.insts);
        r.det("est_cycles", self.est_cycles);
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::default();
    let (mut setup, setup_s) =
        crate::repeat_setup(stats::Share::wall, |rec| Setup::new(args.seed, rec))?;
    let mut off = Recorder::new(false, Instant::now());
    let mut latencies: Vec<f64> = Vec::new();
    let mut funcs = 0u64;
    let mut quality = Quality::default();
    let mut drawing_s = 0.0;
    let mut budget = stats::Budget::new(args.seconds as f64, stats::Share::wall());
    let mut pass = 0;
    while pass < DET_PASSES || !budget.spent() {
        let began = Instant::now();
        setup.draw_passes(pass + 1, &mut off)?;
        let generated = setup.pass_compilers(pass);
        drawing_s += began.elapsed().as_secs_f64();
        for i in 0..setup.cells_per_pass() {
            let (program, target, compiler) = setup.cell(pass, i, &generated);
            let began = Instant::now();
            let result = compiler.compile_module(&program.module);
            let ms = began.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            match result {
                Ok(compiled) => {
                    latencies.push(ms);
                    funcs += compiled.stats.per_func.len() as u64;
                    if pass < DET_PASSES {
                        quality.push(
                            program,
                            compiled.stats.insts_generated as u64,
                            compiled.stats.estimated_cycles,
                        );
                    }
                }
                Err(e) => {
                    eprintln!("compile_cold: {} on {}: {e}", program.name, target.name);
                    latencies.push(f64::INFINITY);
                    report.failed += 1;
                }
            }
        }
        setup.release(pass);
        pass += 1;
    }
    report.attempted += setup.rejected_machines as u64;
    report.failed += setup.rejected_machines as u64;
    let wall = budget.finish().0 - drawing_s;
    let compiles = latencies.len() as f64;
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.set("ops_per_s", compiles / wall);
    report.set("op_ms_p50", stats::quantile(&latencies, 0.5));
    report.set("op_ms_p90", stats::quantile(&latencies, 0.9));
    quality.report(&mut report);

    report.row("compile_funcs_per_s", funcs as f64 / wall, "funcs/s");
    report.row("compile_ms_p50", stats::quantile(&latencies, 0.5), "ms");
    report.row("compile_ms_p90", stats::quantile(&latencies, 0.9), "ms");
    report.row("compiles", compiles, "count");
    report.row("code_insts", quality.insts as f64, "count");
    report.row("est_cycles", quality.est_cycles as f64, "cycles");
    Ok(report)
}

/// Alternates, cell by cell, an untraced `compile_module` and the
/// traced replay of it, then checks that both render the same bytes.
fn run_traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut setup_rec = Recorder::new(true, epoch);
    let mut setup = Setup::new(args.seed, &mut setup_rec)?;
    crate::report_setup_layers(&mut report, &setup_rec);
    let pooled = setup.passes.iter().flat_map(|p| &p.programs);
    report.set(
        "frontend.ir_nodes",
        setup
            .eval
            .iter()
            .chain(pooled)
            .map(|p| p.ir_nodes)
            .sum::<usize>() as f64,
    );

    let mut rec = Recorder::new(true, epoch);
    let mut untraced_ns = 0u128;
    let mut traced_ns = 0u128;
    let mut det_counts = Counts::default();
    let mut fallback_ns = 0u64;
    let mut mismatches = 0u64;
    let mut budget = stats::Budget::new(args.seconds as f64, stats::Share::wall());
    let host = stats::Share::host();
    let mut pass = 0;
    while pass < DET_PASSES || !budget.spent() {
        setup.draw_passes(pass + 1, &mut setup_rec)?;
        let generated = setup.pass_compilers(pass);
        for i in 0..setup.cells_per_pass() {
            let (program, target, compiler) = setup.cell(pass, i, &generated);
            report.attempted += 1;
            // Alternate which path runs first, so neither always finds
            // the other's caches warm.
            let mut compile = || {
                let began = Instant::now();
                let cold = compiler.compile_module(&program.module);
                untraced_ns += began.elapsed().as_nanos();
                cold
            };
            let early = (i % 2 == 0).then(&mut compile);
            let began = Instant::now();
            let replayed = replay(
                &mut rec,
                &target.machine,
                &target.escapes,
                compiler.strategy(),
                &program.module,
            );
            traced_ns += began.elapsed().as_nanos();
            let cold = early.unwrap_or_else(compile);
            let (cold, (warm, counts)) = match (cold, replayed) {
                (Ok(c), Ok(r)) => (c, r),
                (c, r) => {
                    eprintln!(
                        "compile_cold: {} on {}: compile_module {:?}, replay {:?}",
                        program.name,
                        target.name,
                        c.err().map(|e| e.to_string()),
                        r.err().map(|e| e.to_string())
                    );
                    report.failed += 1;
                    continue;
                }
            };
            fallback_ns += counts.sched_fallback_ns;
            let same = rec.time("check", || {
                let machine = &target.machine;
                let stats = &cold.stats;
                cold.render(machine) == render_program(machine, &warm.asm, &warm.symbols)
                    && stats.insts_generated as u64 == counts.emit_insts
                    && stats.estimated_cycles == counts.sched_length_cycles
                    && stats.spills as u64 == counts.regalloc_spills
                    && stats.nops_emitted as u64 == counts.emit_nops
                    && stats.delay_slots_filled as u64 == counts.fill_filled
            });
            if !same {
                eprintln!(
                    "compile_cold: replay of {} on {} {} differs from compile_module",
                    program.name,
                    target.name,
                    compiler.strategy().name()
                );
                mismatches += 1;
                report.failed += 1;
            }
            if pass < DET_PASSES {
                det_counts.add(&counts);
            }
        }
        setup.release(pass);
        pass += 1;
    }

    report.set("host.cpu_granted", host.granted_since());
    report.attempted += setup.rejected_machines as u64;
    report.failed += setup.rejected_machines as u64;
    let times = self_times(rec.spans());
    let ms = |layer: &str| times.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let mut covered = 0.0;
    for (layer, name) in LAYERS {
        covered += ms(layer);
        report.set(name, ms(layer));
    }
    report.set("check.ms", ms("check"));
    report.set("check.mismatches", mismatches as f64);
    report.set("sched.fallback_ms", fallback_ns as f64 / 1e6);
    report_counts(&mut report, &det_counts);
    report.set(
        "trace.overhead_pct",
        (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0,
    );
    report.set("trace.coverage", covered / (traced_ns as f64 / 1e6));
    report.set("failed_ratio", report.failed_ratio());
    Ok(report)
}

/// Per-layer work counts, and the deterministic ones among them.
pub fn report_counts(report: &mut Report, c: &Counts) {
    report.set("select.insts", c.select_insts as f64);
    report.set("regalloc.graph_edges", c.regalloc_graph_edges as f64);
    report.set("regalloc.rounds", c.regalloc_rounds as f64);
    report.set("regalloc.spills", c.regalloc_spills as f64);
    report.set("dag.edges", c.dag_edges as f64);
    report.set("sched.blocks", c.sched_blocks as f64);
    report.set("sched.fallbacks", c.sched_fallbacks as f64);
    report.set("sched.length_cycles", c.sched_length_cycles as f64);
    report.set("sched.stall_cycles", c.sched_stall_cycles as f64);
    report.set("emit.insts", c.emit_insts as f64);
    report.set("emit.nops", c.emit_nops as f64);
    report.set("fill.filled", c.fill_filled as f64);
    report.det("sched.length_cycles", c.sched_length_cycles);
    report.det("regalloc.spills", c.regalloc_spills);
    report.det("emit.nops", c.emit_nops);
    report.det("fill.filled", c.fill_filled);
}
