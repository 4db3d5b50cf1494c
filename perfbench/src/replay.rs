//! The traced replay of `Compiler::compile_module`: the same public
//! functions the driver calls, in the same order, each inside a span
//! of its layer. The driver's own work between them (the module and
//! function clones, the float-constant pool, assembling the program)
//! runs inside `driver` spans, so the layer rows add up to the
//! replay's wall time.
//!
//! When Rule 1 scheduling fails on a block, the replay walks the rest
//! of the fallback ladder through its public rungs instead of calling
//! `schedule_block_robust`, which would redo the failed first rung.

use crate::span::Recorder;
use marion_core::dag::{build_dag, build_dag_with, serialize_same_clock_sequences};
use marion_core::driver::{materialize_float_constants, CompiledProgram};
use marion_core::emit::{emit_func, fill_delay_slots, AsmProgram};
use marion_core::regalloc::allocate;
use marion_core::sched::{
    schedule_block_scratch, serial_schedule, SchedOptions, Schedule, Scratch,
};
use marion_core::strategy::strategy_for;
use marion_core::{CodeBlock, CodeFunc, CodegenError, CompileStats, EscapeRegistry, StrategyKind};
use marion_ir as ir;
use marion_maril::Machine;
use marion_trace::Tracer;
use std::collections::HashMap;

/// The replay's spans and the per-layer metrics that report their
/// self-times.
pub const LAYERS: [(&str, &str); 9] = [
    ("driver", "driver.ms"),
    ("glue", "glue.ms"),
    ("select", "select.ms"),
    ("strategy", "strategy.ms"),
    ("regalloc", "regalloc.ms"),
    ("dag", "dag.ms"),
    ("sched", "sched.ms"),
    ("emit", "emit.ms"),
    ("fill", "fill.ms"),
];

/// Work counted at the layer boundaries of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Instructions selected, before allocation adds spill code.
    pub select_insts: u64,
    /// Interference-graph edges on each Postpass allocation's first
    /// build.
    pub regalloc_graph_edges: u64,
    pub regalloc_rounds: u64,
    /// Virtual registers spilled, by every strategy.
    pub regalloc_spills: u64,
    /// Edges of each Postpass block's first code DAG.
    pub dag_edges: u64,
    /// Postpass blocks scheduled.
    pub sched_blocks: u64,
    /// Postpass blocks on which Rule 1 scheduling failed.
    pub sched_fallbacks: u64,
    /// Nanoseconds of scheduling spent on those blocks, failed first
    /// rung included.
    pub sched_fallback_ns: u64,
    /// Σ final schedule lengths, by every strategy: the estimated
    /// cycles.
    pub sched_length_cycles: u64,
    /// Σ stall cycles of the final schedules, by every strategy.
    pub sched_stall_cycles: u64,
    /// Instructions in the emitted code, after delay-slot filling.
    pub emit_insts: u64,
    pub emit_nops: u64,
    pub fill_filled: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.select_insts += o.select_insts;
        self.regalloc_graph_edges += o.regalloc_graph_edges;
        self.regalloc_rounds += o.regalloc_rounds;
        self.regalloc_spills += o.regalloc_spills;
        self.dag_edges += o.dag_edges;
        self.sched_blocks += o.sched_blocks;
        self.sched_fallbacks += o.sched_fallbacks;
        self.sched_fallback_ns += o.sched_fallback_ns;
        self.sched_length_cycles += o.sched_length_cycles;
        self.sched_stall_cycles += o.sched_stall_cycles;
        self.emit_insts += o.emit_insts;
        self.emit_nops += o.emit_nops;
        self.fill_filled += o.fill_filled;
    }
}

/// Replays `compile_module` on `module` and returns the program it
/// assembles (statistics left empty) with the counts it saw.
///
/// # Errors
///
/// The first phase failure, as the driver would report it.
pub fn replay(
    rec: &mut Recorder,
    machine: &Machine,
    escapes: &EscapeRegistry,
    kind: StrategyKind,
    module: &ir::Module,
) -> Result<(CompiledProgram, Counts), CodegenError> {
    let mut counts = Counts::default();
    let d = rec.begin("driver");
    let mut module = module.clone();
    materialize_float_constants(&mut module);
    let strategy = strategy_for(kind);
    rec.end(d);
    let off = Tracer::off();
    let mut asm = AsmProgram::default();
    for func in &module.funcs {
        let d = rec.begin("driver");
        let mut func = func.clone();
        rec.end(d);
        rec.time("glue", || marion_core::glue::apply_glue(machine, &mut func))?;
        let mut code = rec.time("select", || {
            marion_core::select_func(machine, escapes, &module, &func)
        })?;
        counts.select_insts += code
            .blocks
            .iter()
            .map(|b| b.insts.len() as u64)
            .sum::<u64>();
        let schedules = if kind == StrategyKind::Postpass {
            postpass(rec, machine, &mut code, &mut counts)?
        } else {
            let (schedules, stats) = rec.time("strategy", || {
                strategy.run(machine, &mut code, &off, &func.name)
            })?;
            counts.regalloc_spills += stats.spills as u64;
            schedules
        };
        for s in &schedules {
            counts.sched_length_cycles += u64::from(s.length);
            counts.sched_stall_cycles += s.metrics.stall_cycles as u64;
        }
        let mut emitted = rec.time("emit", || emit_func(machine, &code, &schedules))?;
        let fills = rec.time("fill", || fill_delay_slots(machine, &mut emitted));
        counts.fill_filled += fills.len() as u64;
        counts.emit_insts += emitted.inst_count() as u64;
        counts.emit_nops += emitted.nop_count(machine) as u64;
        asm.funcs.push(emitted);
    }
    let d = rec.begin("driver");
    let symbols = (0..module.symbol_count())
        .map(|i| module.symbol_name(ir::SymbolId(i as u32)).to_owned())
        .collect();
    let globals = module
        .globals
        .iter()
        .map(|g| (g.name.clone(), g.init.clone()))
        .collect();
    let program = CompiledProgram {
        asm,
        globals,
        symbols,
        machine_name: machine.name().to_owned(),
        strategy: kind,
        stats: CompileStats::default(),
        trace: None,
        cache: None,
    };
    rec.end(d);
    Ok((program, counts))
}

/// Postpass, split at its public calls: allocate, then build each
/// block's DAG and schedule it.
fn postpass(
    rec: &mut Recorder,
    machine: &Machine,
    code: &mut CodeFunc,
    counts: &mut Counts,
) -> Result<Vec<Schedule>, CodegenError> {
    let alloc = rec.time("regalloc", || allocate(machine, code, &HashMap::new()))?;
    counts.regalloc_graph_edges += alloc.graph_edges as u64;
    counts.regalloc_rounds += alloc.rounds as u64;
    counts.regalloc_spills += alloc.spills as u64;
    let mut scratch = Scratch::new();
    let code: &CodeFunc = code;
    Ok(code
        .blocks
        .iter()
        .map(|block| schedule_ladder(rec, machine, code, block, &mut scratch, counts))
        .collect())
}

/// Rule 1 list scheduling, then the later rungs of the fallback
/// ladder: same-clock sequence serialisation, latch name-dependences
/// without Rule 1, and a serial thread-order schedule.
fn schedule_ladder(
    rec: &mut Recorder,
    machine: &Machine,
    code: &CodeFunc,
    block: &CodeBlock,
    scratch: &mut Scratch,
    counts: &mut Counts,
) -> Schedule {
    let off = Tracer::off();
    let opts = SchedOptions::default();
    counts.sched_blocks += 1;
    let dag = rec.time("dag", || build_dag(machine, block, true));
    counts.dag_edges += dag.edges.len() as u64;
    let s = rec.begin("sched");
    let rule1 = schedule_block_scratch(machine, code, block, &dag, &opts, &off, scratch);
    let mut spent = rec.end(s);
    if let Ok(schedule) = rule1 {
        return schedule;
    }
    counts.sched_fallbacks += 1;
    let dag2 = rec.time("dag", || {
        let mut dag = build_dag(machine, block, true);
        serialize_same_clock_sequences(&mut dag);
        dag
    });
    let s = rec.begin("sched");
    let serialized = schedule_block_scratch(machine, code, block, &dag2, &opts, &off, scratch);
    spent += rec.end(s);
    let schedule = if let Ok(mut schedule) = serialized {
        schedule.explanation.discipline = "serialized";
        schedule
    } else {
        let dag3 = rec.time("dag", || build_dag_with(machine, block, true, true));
        let relaxed = SchedOptions {
            ignore_rule1: true,
            ..opts
        };
        let s = rec.begin("sched");
        let named = schedule_block_scratch(machine, code, block, &dag3, &relaxed, &off, scratch)
            .unwrap_or_else(|_| serial_schedule(machine, block, &dag3));
        spent += rec.end(s);
        named
    };
    counts.sched_fallback_ns += spent;
    schedule
}
