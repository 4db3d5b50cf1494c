//! Code generation strategies (paper §2): the strategy directs the
//! invocation of, and level of communication between, instruction
//! scheduling and global register allocation.
//!
//! * [`StrategyKind::Postpass`] — global register allocation followed
//!   by instruction scheduling (Gibbons & Muchnick);
//! * [`StrategyKind::Ips`] — Integrated Prepass Scheduling (Goodman &
//!   Hsu): schedule with a limit on local register use, allocate,
//!   then schedule again;
//! * [`StrategyKind::Rase`] — Register Allocation with Schedule
//!   Estimates (Bradlee, Eggers & Henry): invoke the scheduler to
//!   gather schedule cost estimates, allocate with those estimates
//!   biasing spill choices, then do final scheduling.
//!
//! Traced, a run adds per-function counters: allocator graph size,
//! rounds and spills, scheduler fallbacks and work per pass, and the
//! final pass's stall breakdown and issue-slot usage. Nothing is
//! recorded per block: a block's reservation table and narrative are
//! rebuilt from its schedule on demand (`sched::reservation_rows`,
//! `sched::explain_schedule`).

use crate::code::{CodeFunc, Operand, Vreg, VregKind};
use crate::error::CodegenError;
use crate::explain::Discipline;
use crate::regalloc::{allocate_traced, AllocResult};
use crate::sched::{SchedOptions, Schedule};
use marion_maril::Machine;
use marion_trace::Tracer;
use std::collections::HashMap;

/// Which strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Allocate, then schedule.
    Postpass,
    /// Schedule (register-limited), allocate, schedule again.
    Ips,
    /// Estimate schedules, allocate with estimates, schedule.
    Rase,
    /// Ablation baseline: allocate, then keep code-thread order (no
    /// list scheduling at all — only latency/resource legality). Not
    /// part of [`StrategyKind::ALL`]; the paper's comparison point for
    /// "what does scheduling buy".
    NoSchedule,
}

impl StrategyKind {
    /// All strategies, for sweeps.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Postpass,
        StrategyKind::Ips,
        StrategyKind::Rase,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Postpass => "Postpass",
            StrategyKind::Ips => "IPS",
            StrategyKind::Rase => "RASE",
            StrategyKind::NoSchedule => "NoSched",
        }
    }

    /// Parses a [`StrategyKind::name`] (case-insensitive), as accepted
    /// by the `marion-serve` request protocol and CLI flags.
    pub fn parse(name: &str) -> Option<StrategyKind> {
        match name.to_ascii_lowercase().as_str() {
            "postpass" => Some(StrategyKind::Postpass),
            "ips" => Some(StrategyKind::Ips),
            "rase" => Some(StrategyKind::Rase),
            "nosched" | "noschedule" => Some(StrategyKind::NoSchedule),
            _ => None,
        }
    }

    /// Runs the strategy over selected code: allocation and scheduling
    /// in the strategy's order, ending with a final pass that schedules
    /// the allocated (possibly spill-expanded) function. Returns that
    /// pass's per-block schedules. `tracer` collects spans and the
    /// counters (pass a [`Tracer::off`] to collect nothing); `ctx`
    /// scopes the counters, conventionally `machine/function`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn run(
        self,
        machine: &Machine,
        func: &mut CodeFunc,
        tracer: &Tracer,
        ctx: &str,
    ) -> Result<(Vec<Schedule>, StrategyStats), CodegenError> {
        let no_bias = HashMap::new();
        // Everything before the final pass: allocation, and whatever
        // scheduling feeds it. `pass` names the final pass.
        let (alloc, pass, schedule_passes) = match self {
            StrategyKind::Postpass => {
                let alloc = run_allocate(machine, func, &no_bias, tracer, ctx)?;
                (alloc, "sched:postpass", 1)
            }
            StrategyKind::NoSchedule => {
                let alloc = run_allocate(machine, func, &no_bias, tracer, ctx)?;
                // Its final pass is `serial_all`, which opens its own
                // "sched:serial" span.
                (alloc, "sched:serial", 0)
            }
            StrategyKind::Ips => {
                let prepass = schedule_all(
                    machine,
                    func,
                    &limited(ips_limit(machine)),
                    tracer,
                    ctx,
                    "sched:ips-prepass",
                );
                let alloc = allocate_in_order(machine, func, &prepass, &no_bias, tracer, ctx)?;
                (alloc, "sched:ips-final", 2)
            }
            StrategyKind::Rase => {
                let (estimate, bias) = rase_estimates(machine, func, tracer, ctx);
                let alloc = allocate_in_order(machine, func, &estimate, &bias, tracer, ctx)?;
                (alloc, "sched:rase-final", 3)
            }
        };
        let opts = SchedOptions::default();
        let schedules = if self == StrategyKind::NoSchedule {
            serial_all(machine, func, tracer)
        } else {
            schedule_all(machine, func, &opts, tracer, ctx, pass)
        };
        {
            let _span = tracer.span("sched_metrics");
            record_sched_pass(func, &schedules, tracer, ctx);
        }
        let stats = StrategyStats {
            spills: alloc.spills,
            schedule_passes,
            estimated_cycles: schedules.iter().map(|s| s.length as u64).sum(),
        };
        Ok((schedules, stats))
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistics from one strategy run over a function.
#[derive(Debug, Clone, Default)]
pub struct StrategyStats {
    /// Virtual registers spilled.
    pub spills: usize,
    /// Number of per-block scheduling passes performed.
    pub schedule_passes: usize,
    /// Sum of final block cycle estimates.
    pub estimated_cycles: u64,
}

/// Returns `kind` itself, whose [`StrategyKind::run`] runs the
/// strategy. Kept for perfbench's replay, which calls
/// `strategy_for(kind).run(..)`.
pub fn strategy_for(kind: StrategyKind) -> StrategyKind {
    kind
}

/// The ablation baseline's final pass: each block in serial thread
/// order (dependence- and resource-legal, with no reordering), over
/// the plain DAG. Comparing against Postpass isolates what list
/// scheduling itself buys.
fn serial_all(machine: &Machine, func: &CodeFunc, tracer: &Tracer) -> Vec<Schedule> {
    let _span = tracer.span("sched:serial");
    func.blocks
        .iter()
        .map(|block| {
            let dag = {
                let _span = tracer.span("dag_build");
                Discipline::NoSched.dag(machine, block)
            };
            // Serial over the plain DAG, not the ladder's serial rung:
            // name the discipline a replay must rebuild.
            let mut s = crate::sched::serial_schedule(machine, block, &dag);
            s.explanation.discipline = Discipline::NoSched.name();
            s
        })
        .collect()
}

/// Wraps [`allocate`](crate::regalloc::allocate) in a trace span and
/// records its metrics: interference-graph size, simplify/spill rounds,
/// spill count and the loop-weighted cost of what was spilled.
fn run_allocate(
    machine: &Machine,
    func: &mut CodeFunc,
    extra_cost: &HashMap<Vreg, f64>,
    tracer: &Tracer,
    ctx: &str,
) -> Result<AllocResult, CodegenError> {
    let alloc = {
        let _span = tracer.span("regalloc");
        allocate_traced(machine, func, extra_cost, tracer)?
    };
    tracer.add(ctx, "ra_graph_nodes", alloc.graph_nodes as i64);
    tracer.add(ctx, "ra_graph_edges", alloc.graph_edges as i64);
    tracer.add(ctx, "ra_rounds", alloc.rounds as i64);
    tracer.add(ctx, "spills", alloc.spills as i64);
    Ok(alloc)
}

/// Folds a function's final scheduling pass into the trace: the
/// per-block distributions and the per-function counters (stalls by
/// reason, slot usage, temporal groups). Estimate passes record
/// nothing here — their `sched:*` spans remain.
fn record_sched_pass(func: &CodeFunc, schedules: &[Schedule], tracer: &Tracer, ctx: &str) {
    if !tracer.is_on() {
        return;
    }
    for (block, schedule) in func.blocks.iter().zip(schedules) {
        if block.insts.is_empty() {
            continue;
        }
        let m = &schedule.metrics;
        // Per-block distributions at function scope: block stall
        // cycles and final schedule length as log2 histograms, so
        // reports can show the shape, not just the totals.
        tracer.observe(ctx, "block_stall_cycles", m.stall_cycles as u64);
        tracer.observe(ctx, "block_len_cycles", schedule.length as u64);
        tracer.add(ctx, "sched_stall_cycles", m.stall_cycles as i64);
        tracer.add(ctx, "sched_temporal_groups", m.temporal_groups as i64);
        tracer.add(ctx, "issue_slots_used", m.issue_slots_used as i64);
        tracer.add(ctx, "issue_cycles", m.issue_cycles as i64);
        tracer.add(ctx, "packed_words", m.packed_words as i64);
        for (key, cycles) in schedule.explanation.stalls.as_pairs() {
            if cycles > 0 {
                tracer.add(ctx, &format!("stall_{key}"), cycles as i64);
            }
        }
    }
}

/// Schedules every block of `func` with `opts` through the fallback
/// ladder, inside a `pass` span, counting fallbacks and (traced) the
/// pass's scheduler work.
fn schedule_all(
    machine: &Machine,
    func: &CodeFunc,
    opts: &SchedOptions,
    tracer: &Tracer,
    ctx: &str,
    pass: &'static str,
) -> Vec<Schedule> {
    let mut out = Vec::with_capacity(func.blocks.len());
    {
        let _span = tracer.span(pass);
        // One scratch arena reused by every block this pass schedules.
        let mut scratch = crate::sched::Scratch::new();
        for block in &func.blocks {
            let schedule = crate::sched::schedule_block_robust_scratch(
                machine,
                func,
                block,
                opts,
                tracer,
                &mut scratch,
            );
            if schedule.explanation.discipline != Discipline::Rule1.name() {
                // Temporal sequence protection failed to keep plain
                // Rule 1 scheduling live; a fallback discipline
                // rescued the block.
                tracer.add(ctx, "sched_fallbacks", 1);
            }
            out.push(schedule);
        }
    }
    if tracer.is_on() {
        // Deterministic scheduler work, per pass.
        let (stepped, probed) = out.iter().fold((0, 0), |(c, p), s| {
            (
                c + s.metrics.cycles_stepped,
                p + s.metrics.candidates_probed,
            )
        });
        tracer.add(ctx, &format!("{pass}.cycles_stepped"), stepped as i64);
        tracer.add(ctx, &format!("{pass}.candidates_probed"), probed as i64);
    }
    out
}

/// Reorders each block's instructions into schedule order, so that the
/// register allocator sees the scheduled instruction order (the paper:
/// "the register allocator determines interference using the
/// instruction order presented to it").
///
/// Sub-operations packed into one cycle execute with read-old /
/// write-new latch semantics; when the cycle is flattened into a
/// sequence, an instruction *reading* a temporal latch must precede
/// the instruction *writing* it, or the rebuilt code DAG would pair
/// stages with the wrong pipeline occupancy.
fn reorder(machine: &Machine, func: &mut CodeFunc, schedules: &[Schedule], tracer: &Tracer) {
    let _span = tracer.span("reorder");
    for (block, schedule) in func.blocks.iter_mut().zip(schedules) {
        let mut order: Vec<usize> = Vec::with_capacity(block.insts.len());
        for cycle in &schedule.cycles {
            let mut members = cycle.clone();
            // Topological micro-order: readers of a latch before its
            // writer. Cycles are tiny; simple repeated selection.
            let mut placed: Vec<usize> = Vec::with_capacity(members.len());
            while !members.is_empty() {
                let pick = members
                    .iter()
                    .position(|&m| {
                        // m may go next if no other member READS a
                        // latch that m WRITES.
                        let m_t = machine.template(block.insts[m].template);
                        members.iter().all(|&o| {
                            if o == m {
                                return true;
                            }
                            let o_t = machine.template(block.insts[o].template);
                            !o_t.effects
                                .temporal_uses
                                .iter()
                                .any(|u| m_t.effects.temporal_defs.contains(u))
                        })
                    })
                    .unwrap_or(0);
                placed.push(members.remove(pick));
            }
            order.extend(placed);
        }
        debug_assert_eq!(order.len(), block.insts.len());
        let old = std::mem::take(&mut block.insts);
        let mut new_insts = Vec::with_capacity(old.len());
        let mut taken: Vec<Option<crate::code::Inst>> = old.into_iter().map(Some).collect();
        for i in order {
            new_insts.push(taken[i].take().expect("schedule permutes instructions"));
        }
        block.insts = new_insts;
    }
}

/// Scheduler options with a local register limit.
fn limited(limit: usize) -> SchedOptions {
    SchedOptions {
        local_reg_limit: Some(limit),
        ..SchedOptions::default()
    }
}

/// The IPS local-register limit: the smallest general-purpose
/// allocable class, minus headroom for globals.
fn ips_limit(machine: &Machine) -> usize {
    let mut k = usize::MAX;
    for (_, class) in &machine.cwvm().general {
        let n = machine.allocable_of_class(*class).len();
        if n > 0 {
            k = k.min(n);
        }
    }
    if k == usize::MAX {
        8
    } else {
        (k.saturating_sub(2)).max(2)
    }
}

/// RASE's schedule estimates: every block scheduled without a register
/// limit and under a tight one. Global vregs occurring in a block whose
/// schedule the tight limit lengthens are cheaper to spill by that
/// sensitivity: evicting them frees registers exactly where the
/// schedule needs them. Returns the unconstrained schedules and the
/// spill-cost bias.
fn rase_estimates(
    machine: &Machine,
    func: &CodeFunc,
    tracer: &Tracer,
    ctx: &str,
) -> (Vec<Schedule>, HashMap<Vreg, f64>) {
    let default = SchedOptions::default();
    let unlimited = schedule_all(machine, func, &default, tracer, ctx, "sched:rase-estimate");
    let tight_limit = limited((ips_limit(machine) / 2).max(2));
    let tight = schedule_all(machine, func, &tight_limit, tracer, ctx, "sched:rase-tight");
    let mut bias: HashMap<Vreg, f64> = HashMap::new();
    for ((block, u), t) in func.blocks.iter().zip(&unlimited).zip(&tight) {
        let sensitivity = t.length.saturating_sub(u.length) as f64;
        if sensitivity == 0.0 {
            continue;
        }
        for inst in &block.insts {
            for op in &inst.ops {
                if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                    if func.vreg(*v).kind == VregKind::Global {
                        *bias.entry(*v).or_insert(0.0) -= sensitivity;
                    }
                }
            }
        }
    }
    (unlimited, bias)
}

/// The IPS and RASE tail before the final pass: reorder `func` into
/// `order`'s schedule order and allocate it. On register-starved
/// machines the reordered code can be structurally uncolorable; then
/// the code thread order is allocated instead (degrading the strategy
/// towards Postpass for this function rather than failing), and the
/// `reorder_abandoned` counter is bumped.
fn allocate_in_order(
    machine: &Machine,
    func: &mut CodeFunc,
    order: &[Schedule],
    bias: &HashMap<Vreg, f64>,
    tracer: &Tracer,
    ctx: &str,
) -> Result<AllocResult, CodegenError> {
    let before = func.clone();
    reorder(machine, func, order, tracer);
    run_allocate(machine, func, bias, tracer, ctx).or_else(|_| {
        *func = before;
        tracer.add(ctx, "reorder_abandoned", 1);
        run_allocate(machine, func, bias, tracer, ctx)
    })
}
