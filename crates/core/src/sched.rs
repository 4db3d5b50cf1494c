//! List scheduling (paper §4.2–§4.6).
//!
//! The scheduler keeps a list of instructions that are ready to be
//! scheduled without causing a delay and, each iteration, picks the
//! ready instruction with the greatest maximum distance to a leaf of
//! the code DAG. Structural hazards are avoided by intersecting each
//! candidate's *resource vector* with the composite of the resources
//! in use (§4.3); multiple instruction issue falls out of disjoint
//! resource sets. Irregular instruction-word packing is checked with
//! *classes* — two sub-operations pack only if their class
//! intersection is non-empty (§4.5). Explicitly advanced pipelines
//! are handled with *temporal scheduling*: Rule 1 (an instruction that
//! affects clock `k` may not be scheduled before the open destination
//! of a temporal edge on `k`, though it may be packed with it) plus
//! temporal groups, which schedule all open destinations of a clock as
//! one unit (§4.6).
//!
//! One function (`SchedState::blocker`) decides whether a ready
//! instruction may issue this cycle and, if not, why: the first of
//! Rule 1, a resource conflict, the packing classes and the IPS
//! register limit that turns it down. The candidate scan picks and
//! tallies stalls from it, and the provenance replay
//! ([`explain_schedule`]) logs it. Nothing inside the per-cycle loop
//! touches the tracer: its spans are per block (`prep`, `finalize`)
//! and per fallback rung (`dag_build`).

use crate::code::{CodeBlock, CodeFunc, Operand, VregKind};
use crate::dag::{CodeDag, EdgeKind};
use crate::error::{CodegenError, Phase};
use crate::explain::{log_stall, Discipline, ScheduleExplanation, Stall, StallReason};
use crate::quality::StallBreakdown;
use marion_maril::machine::ClockId;
use marion_maril::{Machine, ResSet};
use marion_trace::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable per-block scratch buffers — a small bump arena for the
/// scheduler's hot state. One `Scratch` serves any number of
/// consecutive [`schedule_block_scratch`] calls (each call resets the
/// lengths it needs but keeps the capacity), so a caller walking a
/// whole function allocates the scheduler's working set once instead
/// of once per block. All state is dense: vreg-indexed, cycle-indexed,
/// or clock-indexed arrays — no hashing on the scheduling path.
#[derive(Default)]
pub struct Scratch {
    /// Remaining uses per local vreg (vreg-indexed; 0 = untracked).
    uses_left: Vec<u32>,
    /// Liveness flag per tracked local vreg (vreg-indexed).
    live_local: Vec<bool>,
    /// Temporal edge indices bucketed by clock id.
    temporal_by_clock: Vec<Vec<usize>>,
    /// Open temporal-group destination list.
    dests: Vec<usize>,
    /// Combined group resource vector, cycle-offset-indexed.
    extra: Vec<ResSet>,
    scheduled: Vec<bool>,
    pred_left: Vec<usize>,
    earliest: Vec<u32>,
    timeline: Vec<ResSet>,
    /// Ready-set worklist: instructions with all predecessors issued
    /// and operands arrived, plus each instruction's slot in it.
    ready: Vec<usize>,
    ready_pos: Vec<u32>,
    /// Min-heap of (arrival cycle, instruction) for instructions whose
    /// predecessors all issued but whose operands are still in flight.
    pending: BinaryHeap<Reverse<(u32, usize)>>,
    /// Open temporal edges per clock id.
    open_clock_edges: Vec<u32>,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

/// Scheduling options.
#[derive(Debug, Clone, Default)]
pub struct SchedOptions {
    /// IPS-style limit on simultaneously live *local* virtual
    /// registers per register class (paper §2: "schedules with a limit
    /// on local register use"). `None` = unlimited.
    pub local_reg_limit: Option<usize>,
    /// Skip Rule 1 and temporal grouping; only meaningful with a DAG
    /// built by [`crate::dag::build_dag_with`] with latch
    /// name-dependences, which then provide latch ordering.
    pub ignore_rule1: bool,
}

/// A completed block schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Instructions issued per cycle, in issue order.
    pub cycles: Vec<Vec<usize>>,
    /// Issue cycle of each instruction.
    pub inst_cycle: Vec<u32>,
    /// Schedule length in issue cycles, including the trailing delay
    /// slots of a final branch — the scheduler's *estimate* of the
    /// block's execution cost (used by RASE and by Table 4).
    pub length: u32,
    /// Peak number of simultaneously live local virtual registers
    /// observed while scheduling.
    pub peak_local_pressure: usize,
    /// What the scheduler saw and did (cheap to collect; consumers
    /// decide whether to keep it).
    pub metrics: SchedMetrics,
    /// Why the schedule looks as it does (see [`crate::explain`]): the
    /// discipline, the stall breakdown and the critical-path bound
    /// always; per-instruction placement records, slack and the
    /// critical-path chain only on a schedule from
    /// [`explain_schedule`].
    pub explanation: ScheduleExplanation,
}

/// Per-block scheduler observations: the code DAG's shape, how
/// contended the ready list got, and where cycles went.
#[derive(Debug, Clone, Default)]
pub struct SchedMetrics {
    /// Code DAG nodes (= block instructions).
    pub dag_nodes: usize,
    /// Most instructions simultaneously ready (dependences satisfied,
    /// earliest cycle reached) at any scheduling step.
    pub ready_high_water: usize,
    /// Issue cycles in which nothing could be placed — latency or
    /// structural-hazard stalls the schedule could not fill.
    pub stall_cycles: usize,
    /// Temporal groups placed as a unit (§4.6 sequence scheduling).
    pub temporal_groups: usize,
    /// Sub-operations issued (multi-issue slot usage numerator).
    pub issue_slots_used: usize,
    /// Cycles that issued at least one sub-operation (instruction
    /// words emitted).
    pub issue_cycles: usize,
    /// Cycles that issued at least two sub-operations (packed words).
    pub packed_words: usize,
    /// Cycles the list scheduler stepped through — ran its pick
    /// fixpoint for — as opposed to jumped over (0 for the serial
    /// scheduler). Deterministic work, not schedule quality: a
    /// stepping replay ([`explain_schedule`]) places alike and steps
    /// more.
    pub cycles_stepped: usize,
    /// Ready instructions the pick scans examined, one per
    /// `SchedState::blocker` call (0 for the serial scheduler).
    pub candidates_probed: usize,
}

/// Schedules one block against its code DAG. Like every scheduling
/// entry point except [`explain_schedule`], it builds no
/// per-instruction provenance: the explanation carries the
/// discipline, the stall breakdown and the critical-path bound.
///
/// # Errors
///
/// Fails only on internal deadlock (which temporal-sequence
/// protection is designed to prevent); the error message names the
/// stuck instructions and the cycle from which nothing could issue.
pub fn schedule_block(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    dag: &CodeDag,
    opts: &SchedOptions,
) -> Result<Schedule, CodegenError> {
    schedule_block_scratch(
        machine,
        func,
        block,
        dag,
        opts,
        &Tracer::off(),
        &mut Scratch::new(),
    )
}

/// [`schedule_block`] with caller-provided [`Scratch`] and the
/// tracer's `prep` and `finalize` spans around the cycle loop;
/// nothing inside the loop touches the tracer or allocates, and a
/// caller scheduling many blocks (see [`crate::strategy`]) amortises
/// the scheduler's working set across all of them. This is the hot
/// path: it records nothing per instruction.
pub fn schedule_block_scratch(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    dag: &CodeDag,
    opts: &SchedOptions,
    tracer: &Tracer,
    scratch: &mut Scratch,
) -> Result<Schedule, CodegenError> {
    list_schedule(machine, func, block, dag, opts, tracer, scratch, None)
}

/// The list scheduler. With a `hazard` log it also records, per
/// instruction, one stall tile for every cycle it was ready but could
/// not issue — the raw material of [`explain_schedule`]'s placement
/// records. Placement never depends on the log.
#[allow(clippy::too_many_arguments)]
fn list_schedule(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    dag: &CodeDag,
    opts: &SchedOptions,
    tracer: &Tracer,
    scratch: &mut Scratch,
    mut hazard: Option<&mut [Vec<Stall>]>,
) -> Result<Schedule, CodegenError> {
    let n = block.insts.len();
    let discipline = if opts.ignore_rule1 {
        Discipline::NameDeps
    } else {
        Discipline::Rule1
    };
    if n == 0 {
        let mut empty = Schedule::default();
        empty.explanation.discipline = discipline.name();
        return Ok(empty);
    }
    let prep = tracer.span("prep");
    let priority = dag.critical_path();

    // Local-vreg pressure bookkeeping (for the IPS limit), dense over
    // vreg ids. A vreg the block never uses keeps a zero count, which
    // the dense reads treat exactly like the old missing map entry.
    let nv = func.vregs.len();
    scratch.uses_left.clear();
    scratch.uses_left.resize(nv, 0);
    scratch.live_local.clear();
    scratch.live_local.resize(nv, false);
    for inst in &block.insts {
        for op in inst.use_operands(machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                if func.vreg(*v).kind == VregKind::Local {
                    scratch.uses_left[v.0 as usize] += 1;
                }
            }
        }
    }

    // Temporal edges bucketed per clock, so the group and Rule-1 scans
    // touch only one clock's (few) temporal edges instead of the whole
    // edge list on every probe.
    for list in scratch.temporal_by_clock.iter_mut() {
        list.clear();
    }
    let nclocks = machine.clocks().len();
    if scratch.temporal_by_clock.len() < nclocks {
        scratch.temporal_by_clock.resize_with(nclocks, Vec::new);
    }
    for (ei, e) in dag.edges.iter().enumerate() {
        if let EdgeKind::TrueTemporal(k) = e.kind {
            scratch.temporal_by_clock[k.0 as usize].push(ei);
        }
    }

    scratch.scheduled.clear();
    scratch.scheduled.resize(n, false);
    scratch.pred_left.clear();
    scratch.pred_left.extend(dag.preds.iter().map(|p| p.len()));
    scratch.earliest.clear();
    scratch.earliest.resize(n, 0);
    scratch.timeline.clear();
    // Seed the ready worklist with the DAG roots. An instruction's
    // `earliest` is final once its last predecessor issues (nothing
    // updates it afterwards), so readiness is event-driven: the last
    // releasing `place` either enqueues the successor here or parks it
    // in the pending heap until its operands arrive.
    scratch.ready.clear();
    scratch.ready_pos.clear();
    scratch.ready_pos.resize(n, u32::MAX);
    scratch.pending.clear();
    scratch.open_clock_edges.clear();
    scratch.open_clock_edges.resize(nclocks, 0);
    for i in 0..n {
        if scratch.pred_left[i] == 0 {
            scratch.ready_pos[i] = scratch.ready.len() as u32;
            scratch.ready.push(i);
        }
    }

    let mut state = SchedState {
        machine,
        block,
        dag,
        priority: &priority,
        scheduled: std::mem::take(&mut scratch.scheduled),
        inst_cycle: vec![0u32; n],
        pred_left: std::mem::take(&mut scratch.pred_left),
        earliest: std::mem::take(&mut scratch.earliest),
        timeline: std::mem::take(&mut scratch.timeline),
        cycles: Vec::new(),
        t: 0,
        word_elems: None,
        live_local: std::mem::take(&mut scratch.live_local),
        live_count: 0,
        uses_left: std::mem::take(&mut scratch.uses_left),
        temporal_by_clock: std::mem::take(&mut scratch.temporal_by_clock),
        extra: std::mem::take(&mut scratch.extra),
        ready: std::mem::take(&mut scratch.ready),
        ready_pos: std::mem::take(&mut scratch.ready_pos),
        pending: std::mem::take(&mut scratch.pending),
        open_clock_edges: std::mem::take(&mut scratch.open_clock_edges),
        local_limit: opts.local_reg_limit,
        ignore_rule1: opts.ignore_rule1,
        peak_pressure: 0,
        scan_stalls: StallBreakdown::default(),
        probes: 0,
        func,
    };

    let mut metrics = SchedMetrics {
        dag_nodes: dag.n,
        ..SchedMetrics::default()
    };
    drop(prep);
    // Hazard stalls, one per ready instruction per cycle advanced,
    // taken from the last pick scan of the cycle. Dependence waits are
    // added once the schedule is complete.
    let mut stalls = StallBreakdown::default();
    let mut remaining = n;
    // Backstop only: quiescence (below) ends a deadlock within a few
    // cycles of the last issue.
    let max_cycles = (n as u32 + 8) * 64 + 1024;
    // Consecutive idle cycles, and (debug builds) the cycle at which a
    // deadlock was detected while stepping on to the backstop.
    let mut idle_run = 0u32;
    let mut quiescent_at: Option<u32> = None;
    // Rule-1 destination list, reused across cycles.
    let mut dests = std::mem::take(&mut scratch.dests);
    while remaining > 0 {
        metrics.cycles_stepped += 1;
        // The worklist *is* the ready set.
        debug_assert!(state.ready.iter().all(|&i| state.is_ready(i)));
        debug_assert_eq!(
            state.ready.len(),
            (0..n).filter(|&i| state.is_ready(i)).count()
        );
        metrics.ready_high_water = metrics.ready_high_water.max(state.ready.len());
        let remaining_at_start = remaining;
        let mut progress = true;
        while progress {
            progress = false;
            // 1. Temporal groups: all open destinations of a clock go
            //    together.
            if !opts.ignore_rule1 {
                for k in 0..nclocks {
                    if state.open_clock_edges[k] == 0 {
                        continue;
                    }
                    let clock = ClockId(k as u32);
                    state.open_dests_into(clock, &mut dests);
                    if dests.is_empty() {
                        continue;
                    }
                    if state.try_place_group(&dests) {
                        remaining -= dests.len();
                        metrics.temporal_groups += 1;
                        progress = true;
                    }
                }
            }
            // 2. Best regular candidate.
            if let Some(i) = state.pick_candidate() {
                state.place(i);
                remaining -= 1;
                progress = true;
            }
        }
        debug_assert!(
            quiescent_at.is_none() || remaining == remaining_at_start,
            "issued at cycle {} after quiescence at cycle {quiescent_at:?}",
            state.t
        );
        if remaining > 0 {
            // The fixpoint's last pick scan turned down every ready
            // instruction and tallied its blocker: the cycle's stalls.
            stalls.add_weighted(&state.scan_stalls, 1);
            if let Some(log) = hazard.as_deref_mut() {
                for &i in &state.ready {
                    let reason = state.blocker(i).unwrap_or(StallReason::Other);
                    log_stall(&mut log[i], state.t, reason);
                }
            }
            // Quiescence: once a cycle issues nothing, has nothing in
            // flight and leaves no reservation from the next cycle on,
            // the next cycle starts from a state every later cycle
            // repeats. If that cycle is idle too, nothing can ever
            // issue again.
            if remaining == remaining_at_start && state.quiet_from_next_cycle() {
                idle_run += 1;
            } else {
                idle_run = 0;
            }
            if idle_run >= 2 && quiescent_at.is_none() {
                quiescent_at = Some(state.t);
                // Debug builds keep stepping to the backstop, asserting
                // above that nothing issues on the way.
                if !cfg!(debug_assertions) {
                    return Err(state.deadlock(scratch, dests, quiescent_at));
                }
            }
            // Idle-cycle horizon: after an idle cycle that only resource
            // conflicts and the register limit held up, every cycle
            // until the horizon repeats it stall for stall, so jump
            // there and count the skipped cycles' stalls at once. The
            // recording replay steps instead: its tiles name each
            // cycle's lowest contended resource, which can change on
            // the way.
            if remaining == remaining_at_start
                && hazard.is_none()
                && quiescent_at.is_none()
                && state.scan_stalls.temporal == 0
                && state.scan_stalls.class == 0
                && state.open_clock_edges.iter().all(|&open| open == 0)
                && !state.ready.is_empty()
            {
                let horizon = state.idle_horizon(max_cycles + 1);
                stalls.add_weighted(&state.scan_stalls, u64::from(horizon - state.t - 1));
                // `advance_cycle` steps from here onto the horizon.
                state.t = horizon - 1;
            }
            state.advance_cycle();
            if state.t > max_cycles {
                return Err(state.deadlock(scratch, dests, quiescent_at));
            }
        }
    }

    let _span = tracer.span("finalize");
    metrics.candidates_probed = state.probes;
    let (cycles, inst_cycle, peak_pressure) = state.reclaim(scratch, dests);
    let length = schedule_length(machine, block, &cycles, &inst_cycle);
    metrics.issue_slots_used = n;
    metrics.issue_cycles = cycles.iter().filter(|c| !c.is_empty()).count();
    metrics.packed_words = cycles.iter().filter(|c| c.len() >= 2).count();
    metrics.stall_cycles = cycles.iter().filter(|c| c.is_empty()).count();
    stalls.dependence = crate::explain::dependence_stall_cycles(dag, &inst_cycle);
    let explanation = ScheduleExplanation {
        critical_path_cycles: crate::explain::critical_path_cycles(&priority),
        stalls,
        discipline: discipline.name(),
        ..ScheduleExplanation::default()
    };
    Ok(Schedule {
        cycles,
        inst_cycle,
        length,
        peak_local_pressure: peak_pressure,
        metrics,
        explanation,
    })
}

/// Schedule length: last issue cycle + 1, plus the delay slots of the
/// block's final control transfer.
fn schedule_length(
    machine: &Machine,
    block: &CodeBlock,
    cycles: &[Vec<usize>],
    inst_cycle: &[u32],
) -> u32 {
    let mut length = cycles.len() as u32;
    if let Some(last) = block
        .insts
        .iter()
        .rposition(|inst| inst.is_control(machine))
    {
        let slots = machine.template(block.insts[last].template).slots;
        length = length.max(inst_cycle[last] + 1 + slots.unsigned_abs());
    }
    length
}

/// Schedules a block with the full fallback ladder the strategies
/// use: Rule 1 list scheduling, then same-clock sequence
/// serialisation, then the latch name-dependence discipline, then a
/// serial thread-order schedule. Never fails; the schedule's
/// `explanation.discipline` names the rung that succeeded.
pub fn schedule_block_robust(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    opts: &SchedOptions,
) -> Schedule {
    schedule_block_robust_scratch(
        machine,
        func,
        block,
        opts,
        &Tracer::off(),
        &mut Scratch::new(),
    )
}

/// [`schedule_block_robust`] with span attribution and
/// caller-provided [`Scratch`], reused by every rung of the fallback
/// ladder. DAG construction for each rung folds into `dag_build`, and
/// the list scheduler's interior is traced as in
/// [`schedule_block_scratch`].
pub fn schedule_block_robust_scratch(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    opts: &SchedOptions,
    tracer: &Tracer,
    scratch: &mut Scratch,
) -> Schedule {
    let span = tracer.span("dag_build");
    let mut dag = Discipline::Rule1.dag(machine, block);
    drop(span);
    if let Ok(s) = schedule_block_scratch(machine, func, block, &dag, opts, tracer, scratch) {
        return s;
    }
    // Rung 2 serialises rung 1's DAG in place.
    let span = tracer.span("dag_build");
    crate::dag::serialize_same_clock_sequences(&mut dag);
    drop(span);
    if let Ok(mut s) = schedule_block_scratch(machine, func, block, &dag, opts, tracer, scratch) {
        s.explanation.discipline = Discipline::Serialized.name();
        return s;
    }
    let span = tracer.span("dag_build");
    let dag3 = Discipline::NameDeps.dag(machine, block);
    drop(span);
    let relaxed = SchedOptions {
        ignore_rule1: true,
        ..opts.clone()
    };
    if let Ok(s) = schedule_block_scratch(machine, func, block, &dag3, &relaxed, tracer, scratch) {
        return s;
    }
    // The serial rung's DAG is the name-deps rung's.
    serial_schedule(machine, block, &dag3)
}

/// Provenance on demand: re-runs the deterministic scheduler that
/// produced `schedule` — the one its [`Discipline`] names, against the
/// DAG the discipline rebuilds, with `opts` as the original run had
/// them — with recording on, and returns the replay. Its placement
/// and stall breakdown equal `schedule`'s, and its explanation adds
/// what the hot path never builds: one
/// [`crate::explain::PlacementRecord`] per instruction, per-node slack
/// and a critical-path chain.
///
/// # Errors
///
/// Fails when `schedule` names no discipline, or when the replay
/// deadlocks, places any instruction differently, or its records'
/// stall histogram differs from `schedule`'s breakdown — `schedule`
/// then did not come from this block, discipline and `opts`.
pub fn explain_schedule(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    schedule: &Schedule,
    opts: &SchedOptions,
) -> Result<Schedule, CodegenError> {
    let name = schedule.explanation.discipline;
    let Some(discipline) = Discipline::parse(name) else {
        return Err(CodegenError::new(
            Phase::Schedule,
            format!("schedule names no scheduling discipline ({name:?}); nothing to replay"),
        ));
    };
    let dag = discipline.dag(machine, block);
    let mut hazard = vec![Vec::new(); block.insts.len()];
    let mut replay = if discipline.is_serial() {
        serial(machine, block, &dag, Some(&mut hazard))
    } else {
        let opts = SchedOptions {
            ignore_rule1: !discipline.checks_rule1(),
            ..opts.clone()
        };
        let scratch = &mut Scratch::new();
        let tracer = &Tracer::off();
        list_schedule(
            machine,
            func,
            block,
            &dag,
            &opts,
            tracer,
            scratch,
            Some(&mut hazard),
        )?
    };
    let mismatch = |what: &str, replayed: String, original: String| {
        Err(CodegenError::new(
            Phase::Schedule,
            format!("replaying the {name} schedule gave {what} {replayed}, not {original}"),
        ))
    };
    if replay.inst_cycle != schedule.inst_cycle || replay.cycles != schedule.cycles {
        return mismatch(
            "issue cycles",
            format!("{:?}", replay.inst_cycle),
            format!("{:?}", schedule.inst_cycle),
        );
    }
    let ex = &mut replay.explanation;
    ex.discipline = name;
    ex.records = crate::explain::build_records(&dag, &replay.inst_cycle, hazard);
    (ex.slack, ex.critical_path) = crate::explain::critical_path_slack(&dag);
    // The records, and the replay's own tally, must account for
    // exactly the stalls the hot path tallied: a replay against
    // another DAG or other options can place alike and still differ
    // here.
    let original = schedule.explanation.stalls;
    if let Some(replayed) = [ex.record_stalls(), ex.stalls]
        .into_iter()
        .find(|s| *s != original)
    {
        return mismatch("stalls", format!("{replayed:?}"), format!("{original:?}"));
    }
    Ok(replay)
}

/// A degenerate but always-valid schedule: instructions in code-thread
/// order, one per cycle, delayed only by DAG latencies and structural
/// hazards. Used as the last-resort fallback when list scheduling with
/// Rule 1 deadlocks on a pathological explicitly-advanced-pipeline
/// interleaving: under the simulator's read-old/write-new word
/// semantics, thread order preserves the latch dataflow the code DAG
/// records.
pub fn serial_schedule(machine: &Machine, block: &CodeBlock, dag: &CodeDag) -> Schedule {
    serial(machine, block, dag, None)
}

/// The serial scheduler, logging stall tiles into `hazard` when given
/// one (see [`list_schedule`]).
fn serial(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    mut hazard: Option<&mut [Vec<Stall>]>,
) -> Schedule {
    let n = block.insts.len();
    let mut inst_cycle = vec![0u32; n];
    let mut timeline: Vec<ResSet> = Vec::new();
    let mut t = 0u32;
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut stalls = StallBreakdown::default();
    for i in 0..n {
        let mut dep_at = 0u32;
        for &ei in &dag.preds[i] {
            let e = dag.edges[ei];
            dep_at = dep_at.max(inst_cycle[e.from] + e.latency);
        }
        let mut at = dep_at.max(t);
        if at > dep_at {
            // Waiting for the serial cursor, not for a dependence.
            stalls.order += u64::from(at - dep_at);
            if let Some(log) = hazard.as_deref_mut() {
                log[i].push(Stall {
                    at: dep_at,
                    cycles: at - dep_at,
                    reason: StallReason::ThreadOrder,
                });
            }
        }
        let tmpl = machine.template(block.insts[i].template);
        'search: loop {
            for (c, need) in tmpl.rsrc.iter().enumerate() {
                let idx = at as usize + c;
                if timeline.len() > idx && timeline[idx].intersects(need) {
                    stalls.resource += 1;
                    if let Some(log) = hazard.as_deref_mut() {
                        if let Some(r) = timeline[idx].intersection(need).iter().next() {
                            log_stall(&mut log[i], at, StallReason::Resource { resource: r });
                        }
                    }
                    at += 1;
                    continue 'search;
                }
            }
            break;
        }
        for (c, need) in tmpl.rsrc.iter().enumerate() {
            let idx = at as usize + c;
            if timeline.len() <= idx {
                timeline.resize(idx + 1, ResSet::EMPTY);
            }
            timeline[idx].union_with(need);
        }
        inst_cycle[i] = at;
        while cycles.len() <= at as usize {
            cycles.push(Vec::new());
        }
        cycles[at as usize].push(i);
        // Strictly serial: the next instruction issues later.
        t = at + 1;
    }
    let length = schedule_length(machine, block, &cycles, &inst_cycle);
    let mut metrics = SchedMetrics {
        dag_nodes: dag.n,
        ..SchedMetrics::default()
    };
    metrics.issue_slots_used = n;
    metrics.issue_cycles = cycles.iter().filter(|c| !c.is_empty()).count();
    metrics.packed_words = cycles.iter().filter(|c| c.len() >= 2).count();
    metrics.stall_cycles = cycles.iter().filter(|c| c.is_empty()).count();
    stalls.dependence = crate::explain::dependence_stall_cycles(dag, &inst_cycle);
    let explanation = ScheduleExplanation {
        critical_path_cycles: crate::explain::critical_path_cycles(&dag.critical_path()),
        stalls,
        discipline: Discipline::Serial.name(),
        ..ScheduleExplanation::default()
    };
    Schedule {
        cycles,
        inst_cycle,
        length,
        peak_local_pressure: 0,
        metrics,
        explanation,
    }
}

/// Renders a block schedule as a reservation table: one row per
/// cycle, one column per declared resource, `X` where the cycle
/// claims the resource (§4.3's composite resource vector, unrolled
/// over time). A trailing column lists the sub-operations issued that
/// cycle, so packed words on a multi-issue machine read directly off
/// the table. Empty for an empty block.
pub fn reservation_rows(machine: &Machine, block: &CodeBlock, schedule: &Schedule) -> Vec<String> {
    if block.insts.is_empty() {
        return Vec::new();
    }
    let names = machine.resources();
    let mut timeline: Vec<ResSet> = Vec::new();
    for (i, inst) in block.insts.iter().enumerate() {
        let t = machine.template(inst.template);
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = schedule.inst_cycle[i] as usize + c;
            if timeline.len() <= at {
                timeline.resize(at + 1, ResSet::EMPTY);
            }
            timeline[at].union_with(need);
        }
    }
    let width = names.iter().map(|n| n.len()).max().unwrap_or(1).max(2);
    let mut rows = Vec::with_capacity(timeline.len() + 1);
    let header: Vec<String> = names.iter().map(|n| format!("{n:>width$}")).collect();
    rows.push(format!("cycle | {} | issued", header.join(" ")));
    for (c, used) in timeline.iter().enumerate() {
        let cells: Vec<String> = (0..names.len())
            .map(|r| {
                let mark = if used.contains(r as u32) { "X" } else { "." };
                format!("{mark:>width$}")
            })
            .collect();
        let issued = schedule
            .cycles
            .get(c)
            .map(|members| {
                members
                    .iter()
                    .map(|&i| machine.template(block.insts[i].template).mnemonic.as_str())
                    .collect::<Vec<_>>()
                    .join(" + ")
            })
            .unwrap_or_default();
        rows.push(format!("{c:>5} | {} | {issued}", cells.join(" ")));
    }
    rows
}

struct SchedState<'a> {
    machine: &'a Machine,
    block: &'a CodeBlock,
    dag: &'a CodeDag,
    priority: &'a [u32],
    scheduled: Vec<bool>,
    inst_cycle: Vec<u32>,
    pred_left: Vec<usize>,
    earliest: Vec<u32>,
    timeline: Vec<ResSet>,
    cycles: Vec<Vec<usize>>,
    t: u32,
    /// Intersection of the packing classes issued this cycle.
    word_elems: Option<ResSet>,
    /// Vreg-indexed liveness of tracked locals plus an incrementally
    /// maintained count of `true` entries (the IPS pressure figure).
    live_local: Vec<bool>,
    live_count: usize,
    /// Vreg-indexed remaining-use counts; 0 means untracked.
    uses_left: Vec<u32>,
    /// Temporal edge indices bucketed by clock id, in edge order.
    temporal_by_clock: Vec<Vec<usize>>,
    /// Reusable group resource-probe buffer.
    extra: Vec<ResSet>,
    /// Exactly the instructions for which [`SchedState::is_ready`]
    /// holds, maintained incrementally; `ready_pos[i]` is `i`'s slot
    /// (or `u32::MAX`) so placement removes in O(1). Membership can
    /// only end by issuing: `earliest` never moves once `pred_left`
    /// hits zero and `t` never decreases.
    ready: Vec<usize>,
    ready_pos: Vec<u32>,
    /// Instructions whose predecessors all issued but whose operands
    /// land at a future cycle, keyed by that cycle.
    pending: BinaryHeap<Reverse<(u32, usize)>>,
    /// Open temporal edges per clock (source issued, destination
    /// not): the Rule-1 probe asks "is anything open on this clock"
    /// for every candidate and group member — a counter answers that
    /// without walking the clock's edge bucket.
    open_clock_edges: Vec<u32>,
    local_limit: Option<usize>,
    ignore_rule1: bool,
    peak_pressure: usize,
    /// Ready instructions the last [`SchedState::pick_candidate`] scan
    /// turned down, bucketed by their [`SchedState::blocker`].
    scan_stalls: StallBreakdown,
    /// Blocker calls of every pick scan so far
    /// ([`SchedMetrics::candidates_probed`]).
    probes: usize,
    func: &'a CodeFunc,
}

impl<'a> SchedState<'a> {
    /// Returns the reusable buffers to `scratch` and hands back the
    /// pieces the caller still needs.
    fn reclaim(
        self,
        scratch: &mut Scratch,
        dests: Vec<usize>,
    ) -> (Vec<Vec<usize>>, Vec<u32>, usize) {
        scratch.scheduled = self.scheduled;
        scratch.pred_left = self.pred_left;
        scratch.earliest = self.earliest;
        scratch.timeline = self.timeline;
        scratch.live_local = self.live_local;
        scratch.uses_left = self.uses_left;
        scratch.temporal_by_clock = self.temporal_by_clock;
        scratch.extra = self.extra;
        scratch.ready = self.ready;
        scratch.ready_pos = self.ready_pos;
        scratch.pending = self.pending;
        scratch.open_clock_edges = self.open_clock_edges;
        scratch.dests = dests;
        (self.cycles, self.inst_cycle, self.peak_pressure)
    }

    /// Reclaims the buffers and describes a deadlock: the stuck
    /// instructions, the cycle from which nothing could issue (the
    /// quiescence point when one was seen) and the last issue cycle.
    fn deadlock(
        self,
        scratch: &mut Scratch,
        dests: Vec<usize>,
        quiescent_at: Option<u32>,
    ) -> CodegenError {
        let stopped = quiescent_at.unwrap_or(self.t);
        let n = self.scheduled.len();
        let stuck: Vec<usize> = (0..n).filter(|&i| !self.scheduled[i]).collect();
        let (cycles, _, _) = self.reclaim(scratch, dests);
        let last_issue = cycles.iter().rposition(|c| !c.is_empty());
        CodegenError::new(
            Phase::Schedule,
            format!(
                "scheduling deadlock at cycle {stopped} (last issue at cycle {}); unscheduled instructions {stuck:?}",
                last_issue.map_or_else(|| "none".to_string(), |c| c.to_string())
            ),
        )
    }

    /// Nothing is in flight and the timeline holds no reservation
    /// from the next cycle on — with nothing issued this cycle, the
    /// next one starts from the state every later cycle repeats.
    fn quiet_from_next_cycle(&self) -> bool {
        self.pending.is_empty()
            && self
                .timeline
                .iter()
                .skip(self.t as usize + 1)
                .all(|r| r.is_empty())
    }

    /// Destinations of currently open temporal edges on `clock`:
    /// source scheduled, destination not.
    fn open_dests_into(&self, clock: ClockId, out: &mut Vec<usize>) {
        out.clear();
        for &ei in &self.temporal_by_clock[clock.0 as usize] {
            let e = &self.dag.edges[ei];
            if self.scheduled[e.from] && !self.scheduled[e.to] && !out.contains(&e.to) {
                out.push(e.to);
            }
        }
    }

    /// Whether an instruction needing `rsrc` (one resource set per
    /// cycle offset) would find its resources free if it issued at
    /// cycle `at`.
    fn fits_at(&self, rsrc: &[ResSet], at: u32) -> bool {
        rsrc.iter().enumerate().all(|(c, need)| {
            self.timeline
                .get(at as usize + c)
                .is_none_or(|in_use| !in_use.intersects(need))
        })
    }

    /// The first cycle after this idle one that can differ from it:
    /// the earliest at which some ready instruction's resource fit
    /// changes, or the next operand arrival, capped at `limit`. The
    /// caller has established that this cycle issued nothing, that no
    /// temporal edge is open and that the scan tallied only resource
    /// and register-limit stalls; the ready set, `live_count` and the
    /// pending heap then stay as they are until the horizon, so every
    /// cycle before it turns the same instructions down for the same
    /// reasons. Past the last reservation everything fits, which
    /// bounds each instruction's walk.
    fn idle_horizon(&self, limit: u32) -> u32 {
        let mut horizon = match self.pending.peek() {
            Some(&Reverse((at, _))) => at.min(limit),
            None => limit,
        };
        for &i in &self.ready {
            if horizon == self.t + 1 {
                break;
            }
            let rsrc = &self.machine.template(self.block.insts[i].template).rsrc;
            let fits_now = self.fits_at(rsrc, self.t);
            let mut at = self.t + 1;
            while at < horizon {
                if at as usize >= self.timeline.len() {
                    if !fits_now {
                        horizon = at;
                    }
                    break;
                }
                if self.fits_at(rsrc, at) != fits_now {
                    horizon = at;
                    break;
                }
                at += 1;
            }
        }
        horizon
    }

    fn is_ready(&self, i: usize) -> bool {
        !self.scheduled[i] && self.pred_left[i] == 0 && self.earliest[i] <= self.t
    }

    fn push_ready(&mut self, i: usize) {
        self.ready_pos[i] = self.ready.len() as u32;
        self.ready.push(i);
    }

    fn remove_ready(&mut self, i: usize) {
        let p = self.ready_pos[i] as usize;
        let last = self.ready.pop().expect("ready list underflow");
        if last != i {
            self.ready[p] = last;
            self.ready_pos[last] = p as u32;
        }
        self.ready_pos[i] = u32::MAX;
    }

    /// All of `j`'s predecessors have issued: make it ready now or
    /// park it until its operands arrive.
    fn release(&mut self, j: usize) {
        if self.earliest[j] <= self.t {
            self.push_ready(j);
        } else {
            self.pending.push(Reverse((self.earliest[j], j)));
        }
    }

    fn drain_pending(&mut self) {
        while let Some(&Reverse((at, j))) = self.pending.peek() {
            if at > self.t {
                break;
            }
            self.pending.pop();
            self.push_ready(j);
        }
    }

    /// Why ready instruction `i` cannot issue this cycle — the first of
    /// Rule 1 (§4.6), a resource-vector conflict (§4.3), the word's
    /// packing classes (§4.5) and the IPS register limit that turns it
    /// down — or `None` when it may issue. The only place that order
    /// is written: the pick scan tallies it, and the recording replay
    /// logs it. Forced inline, like the Rule-1 probe, because the pick
    /// scan calls it for every ready instruction: as calls, the two
    /// made the list scheduler about 6 % slower.
    #[inline(always)]
    fn blocker(&self, i: usize) -> Option<StallReason> {
        if let Some(open) = self.open_temporal_edge(i, &[i]) {
            return Some(open);
        }
        let t = self.machine.template(self.block.insts[i].template);
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = self.t as usize + c;
            let in_use = self.timeline.get(at).copied().unwrap_or(ResSet::EMPTY);
            // Test before naming the lowest contended resource:
            // `ResSet::iter` walks ids one by one, and on an empty
            // intersection it would walk all 256 for every candidate.
            if in_use.intersects(need) {
                let clash = in_use.intersection(need);
                let resource = clash
                    .iter()
                    .next()
                    .expect("intersecting sets share a member");
                return Some(StallReason::Resource { resource });
            }
        }
        if !self.class_fits(i, self.word_elems).0 {
            return Some(StallReason::ClassPacking);
        }
        let limit = self.local_limit?;
        (self.live_count as i64 + self.pressure_delta(i) > limit as i64)
            .then_some(StallReason::RegPressure)
    }

    fn class_fits(&self, i: usize, word: Option<ResSet>) -> (bool, Option<ResSet>) {
        let t = self.machine.template(self.block.insts[i].template);
        match t.class {
            None => (true, word),
            Some(cid) => {
                let elems = self.machine.class(cid).elements;
                match word {
                    None => (true, Some(elems)),
                    Some(w) => {
                        let inter = w.intersection(&elems);
                        (!inter.is_empty(), Some(inter))
                    }
                }
            }
        }
    }

    /// Rule 1 (paper §4.6): if there is a temporal edge `(x, y)` based
    /// on clock `k` and `x` has been scheduled, an instruction `z ≠ y`
    /// that affects `k` may not be scheduled before `y` — but may be
    /// *packed* with it. In cycle terms: `i` may issue at cycle `t`
    /// together with `issuing` (which includes `i`) only if every open
    /// temporal edge on `k`, other than those ending in `issuing`, has
    /// its source issued in this same cycle, so the pending latch value
    /// is consumed by the same clock tick `i` rides on. Returns the
    /// first edge that forbids it, as the stall it causes.
    #[inline(always)]
    fn open_temporal_edge(&self, i: usize, issuing: &[usize]) -> Option<StallReason> {
        if self.ignore_rule1 {
            return None;
        }
        let k = self
            .machine
            .template(self.block.insts[i].template)
            .affects_clock?;
        if self.open_clock_edges[k.0 as usize] == 0 {
            return None;
        }
        self.temporal_by_clock[k.0 as usize]
            .iter()
            .map(|&ei| &self.dag.edges[ei])
            .find(|e| {
                self.scheduled[e.from]
                    && !self.scheduled[e.to]
                    && !issuing.contains(&e.to)
                    && self.inst_cycle[e.from] != self.t
            })
            .map(|e| StallReason::Temporal {
                clock: k,
                pending_src: e.from,
                pending_dst: e.to,
            })
    }

    fn pressure_delta(&self, i: usize) -> i64 {
        let inst = &self.block.insts[i];
        let mut delta = 0i64;
        for op in inst.use_operands(self.machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                let vi = v.0 as usize;
                if self.uses_left[vi] == 1 && self.live_local[vi] {
                    delta -= 1;
                }
            }
        }
        for op in inst.def_operands(self.machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                let vi = v.0 as usize;
                if self.func.vreg(*v).kind == VregKind::Local
                    && self.uses_left[vi] > 0
                    && !self.live_local[vi]
                {
                    delta += 1;
                }
            }
        }
        delta
    }

    /// The best ready candidate for this cycle. The scan also tallies
    /// each instruction it turns down under its
    /// [`SchedState::blocker`]; when the scan returns `None` at the
    /// cycle's fixpoint, that tally is the cycle's stalls.
    fn pick_candidate(&mut self) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut relax_best: Option<usize> = None;
        let mut scan = StallBreakdown::default();
        self.probes += self.ready.len();
        // The winner is the maximum of a total order (priority, then
        // lowest index), so walking the unordered ready list picks the
        // same instruction the full 0..n scan did.
        for idx in 0..self.ready.len() {
            let i = self.ready[idx];
            debug_assert!(self.is_ready(i));
            let better = |cur: Option<usize>| {
                cur.is_none_or(|b| {
                    (self.priority[i], std::cmp::Reverse(i))
                        > (self.priority[b], std::cmp::Reverse(b))
                })
            };
            match self.blocker(i) {
                None if better(best) => best = Some(i),
                None => {}
                Some(reason) => {
                    scan.add(reason, 1);
                    if reason == StallReason::RegPressure && better(relax_best) {
                        relax_best = Some(i);
                    }
                }
            }
        }
        self.scan_stalls = scan;
        // When the register limit blocks everything *and* advancing
        // time cannot make anything new ready (every unscheduled
        // instruction either is already ready-but-blocked or waits on
        // a blocked producer — the pending heap holds exactly the
        // released-but-not-arrived ones), exceed the limit rather than
        // deadlock (Goodman–Hsu switch from CSP to CSR).
        match (best, relax_best) {
            (None, Some(r)) if self.pending.is_empty() => Some(r),
            _ => best,
        }
    }

    /// Attempts to place an entire temporal group this cycle.
    fn try_place_group(&mut self, dests: &[usize]) -> bool {
        // Every member must be ready.
        if !dests.iter().all(|&d| self.is_ready(d)) {
            return false;
        }
        // Chained members can affect a *different* clock than the
        // group's (the i860's M1a is a clk_a-edge destination but
        // ticks clk_m): Rule 1 must hold for those clocks too, with
        // edges whose destinations are inside this group counting as
        // satisfied (they issue this very cycle).
        if dests
            .iter()
            .any(|&d| self.open_temporal_edge(d, dests).is_some())
        {
            return false;
        }
        // Combined resources must fit and classes must intersect.
        let mut extra = std::mem::take(&mut self.extra);
        extra.clear();
        let ok = self.group_resources_fit(dests, &mut extra);
        self.extra = extra;
        if !ok {
            return false;
        }
        for &d in dests {
            self.place(d);
        }
        true
    }

    /// Combined resource + class probe for a temporal group, writing
    /// the group's composite resource vector into `extra`.
    fn group_resources_fit(&self, dests: &[usize], extra: &mut Vec<ResSet>) -> bool {
        let mut word = self.word_elems;
        for &d in dests {
            let t = self.machine.template(self.block.insts[d].template);
            let (ok, new_word) = self.class_fits(d, word);
            if !ok {
                return false;
            }
            word = new_word;
            for (c, need) in t.rsrc.iter().enumerate() {
                if extra.len() <= c {
                    extra.resize(c + 1, ResSet::EMPTY);
                }
                if extra[c].intersects(need) {
                    return false;
                }
                extra[c].union_with(need);
            }
        }
        for (c, e) in extra.iter().enumerate() {
            let at = self.t as usize + c;
            let in_use = self.timeline.get(at).copied().unwrap_or(ResSet::EMPTY);
            if in_use.intersects(e) {
                return false;
            }
        }
        true
    }

    fn place(&mut self, i: usize) {
        debug_assert!(!self.scheduled[i]);
        self.remove_ready(i);
        // Reborrow through the 'a references so the operand iterators
        // below don't hold `&self` across the map mutations.
        let block = self.block;
        let machine = self.machine;
        let inst = &block.insts[i];
        let t = machine.template(inst.template);
        // Commit resources.
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = self.t as usize + c;
            if self.timeline.len() <= at {
                self.timeline.resize(at + 1, ResSet::EMPTY);
            }
            self.timeline[at].union_with(need);
        }
        // Commit the word class.
        let (_, word) = self.class_fits(i, self.word_elems);
        self.word_elems = word;
        // Record.
        self.scheduled[i] = true;
        self.inst_cycle[i] = self.t;
        while self.cycles.len() <= self.t as usize {
            self.cycles.push(Vec::new());
        }
        self.cycles[self.t as usize].push(i);
        // Release successors. The last releasing edge fixes the
        // successor's `earliest` for good, so it can be enqueued at
        // exactly that arrival cycle. Issuing a temporal source opens
        // its edge (the destination cannot have issued first — it
        // depends on the source); issuing a destination closes every
        // temporal edge into it.
        for &ei in &self.dag.succs[i] {
            let e = self.dag.edges[ei];
            if let EdgeKind::TrueTemporal(k) = e.kind {
                self.open_clock_edges[k.0 as usize] += 1;
            }
            self.pred_left[e.to] -= 1;
            self.earliest[e.to] = self.earliest[e.to].max(self.t + e.latency);
            if self.pred_left[e.to] == 0 {
                self.release(e.to);
            }
        }
        for &ei in &self.dag.preds[i] {
            if let EdgeKind::TrueTemporal(k) = self.dag.edges[ei].kind {
                self.open_clock_edges[k.0 as usize] -= 1;
            }
        }
        // Pressure bookkeeping. `live_count` tracks the number of
        // `true` liveness flags incrementally: uses first (a final use
        // kills its vreg), then defs (a def of a still-used local
        // makes it live).
        for op in inst.use_operands(machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = *op {
                let vi = v.0 as usize;
                if self.uses_left[vi] > 0 {
                    self.uses_left[vi] -= 1;
                    if self.uses_left[vi] == 0 && self.live_local[vi] {
                        self.live_local[vi] = false;
                        self.live_count -= 1;
                    }
                }
            }
        }
        for op in inst.def_operands(machine) {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = *op {
                let vi = v.0 as usize;
                if self.func.vreg(v).kind == VregKind::Local
                    && self.uses_left[vi] > 0
                    && !self.live_local[vi]
                {
                    self.live_local[vi] = true;
                    self.live_count += 1;
                }
            }
        }
        self.peak_pressure = self.peak_pressure.max(self.live_count);
    }

    fn advance_cycle(&mut self) {
        if self.ready.is_empty() {
            // Nothing can issue until an in-flight result lands: jump
            // straight to the next arrival. The skipped cycles are
            // provably empty, so the schedule is identical — only the
            // walk is shorter. (With unscheduled instructions left,
            // an acyclic DAG always has one ready or pending.)
            self.t = match self.pending.peek() {
                Some(&Reverse((at, _))) => at,
                None => self.t + 1,
            };
        } else {
            self.t += 1;
        }
        self.drain_pending();
        self.word_elems = None;
        while self.cycles.len() < self.t as usize {
            self.cycles.push(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeFunc, ImmVal, Inst, Vreg};
    use crate::dag::build_dag;
    use marion_maril::RegClassId;

    const TOY: &str = r#"
        declare {
            %reg r[0:7] (int);
            %resource IF; ID; IE; IA; IW; MUL;
            %def const16 [-32768:32767];
            %label rlab [-32768:32767] +relative;
            %memory m[0:2147483647];
        }
        cwvm { %general (int) r; %allocable r[1:5]; %sp r[7] +down; %fp r[6] +down; %retaddr r[1]; }
        instr {
            %instr add r, r, r (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr mul r, r, r (int) {$1 = $2 * $3;} [IE; MUL; MUL; MUL;] (1,4,0)
            %instr ld r, r, #const16 (int) {$1 = m[$2+$3];} [IE; IA;] (1,3,0)
            %instr st r, r, #const16 (int) {m[$2+$3] = $1;} [IE; IA;] (1,1,0)
            %instr beq0 r, #rlab {if ($1 == 0) goto $2;} [IE;] (1,2,1)
            %instr nop {} [IE;] (1,1,0)
        }
    "#;

    fn toy() -> Machine {
        Machine::parse("toy", TOY).unwrap()
    }

    fn v(n: u32) -> Operand {
        Operand::Vreg(Vreg(n))
    }

    fn imm(c: i64) -> Operand {
        Operand::Imm(ImmVal::Const(c))
    }

    fn setup(_m: &Machine, insts: Vec<Inst>) -> (CodeFunc, CodeBlock) {
        let mut f = CodeFunc::new("t");
        for _ in 0..20 {
            f.new_vreg(RegClassId(0), VregKind::Local);
        }
        (
            f,
            CodeBlock {
                insts,
                succs: vec![],
            },
        )
    }

    fn inst(m: &Machine, mnem: &str, ops: Vec<Operand>) -> Inst {
        Inst::new(m.template_by_mnemonic(mnem).unwrap(), ops)
    }

    #[test]
    fn fills_load_latency_with_independent_work() {
        let m = toy();
        // ld t1 <- [t0]; add t2 = t1+t1 (dependent, 3 cycles later);
        // add t3 = t4+t5 and add t6 = t7+t8 are independent fillers.
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "add", vec![v(2), v(1), v(1)]),
            inst(&m, "add", vec![v(3), v(4), v(5)]),
            inst(&m, "add", vec![v(6), v(7), v(8)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.inst_cycle[0], 0);
        assert_eq!(s.inst_cycle[1], 3, "dependent add waits for the load");
        assert!(
            s.inst_cycle[2] < 3 && s.inst_cycle[3] < 3,
            "fillers moved up: {s:?}"
        );
        assert_eq!(s.length, 4);
    }

    #[test]
    fn structural_hazard_on_multiplier_serialises() {
        let m = toy();
        // Two independent multiplies fight over the MUL resource
        // (cycles 1-3 of each): second can start only when the
        // pipeline stage frees.
        let insts = vec![
            inst(&m, "mul", vec![v(1), v(0), v(0)]),
            inst(&m, "mul", vec![v(2), v(3), v(3)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.inst_cycle[0], 0);
        assert_eq!(s.inst_cycle[1], 3, "MUL stays busy cycles 1..=3: {s:?}");
    }

    #[test]
    fn critical_path_priority_orders_long_chain_first() {
        let m = toy();
        // A 3-mul chain and one trivial add. The chain instructions
        // should issue as early as their dependences allow.
        let insts = vec![
            inst(&m, "add", vec![v(9), v(8), v(8)]),
            inst(&m, "mul", vec![v(1), v(0), v(0)]),
            inst(&m, "mul", vec![v(2), v(1), v(1)]),
            inst(&m, "mul", vec![v(3), v(2), v(2)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.inst_cycle[1], 0, "chain head first despite thread order");
        assert_eq!(s.inst_cycle[2], 4);
        assert_eq!(s.inst_cycle[3], 8);
    }

    #[test]
    fn branch_scheduled_last_and_slots_counted() {
        let m = toy();
        let insts = vec![
            inst(&m, "add", vec![v(1), v(0), v(0)]),
            inst(
                &m,
                "beq0",
                vec![v(1), Operand::Block(marion_ir::BlockId(0))],
            ),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert!(s.inst_cycle[1] >= s.inst_cycle[0]);
        // length includes the branch delay slot.
        assert_eq!(s.length, s.inst_cycle[1] + 2);
    }

    #[test]
    fn register_limit_caps_pressure() {
        let m = toy();
        // Four independent loads, each value consumed later: with a
        // limit of 2 locals the scheduler must interleave def/use.
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "ld", vec![v(2), v(0), imm(4)]),
            inst(&m, "ld", vec![v(3), v(0), imm(8)]),
            inst(&m, "ld", vec![v(4), v(0), imm(12)]),
            inst(&m, "add", vec![v(5), v(1), v(2)]),
            inst(&m, "add", vec![v(6), v(3), v(4)]),
            inst(&m, "add", vec![v(7), v(5), v(6)]),
        ];
        let (f, block) = setup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let unlimited = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        let limited = schedule_block(
            &m,
            &f,
            &block,
            &dag,
            &SchedOptions {
                local_reg_limit: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(unlimited.peak_local_pressure > 2);
        assert!(
            limited.peak_local_pressure <= 3,
            "limit roughly respected: {limited:?}"
        );
        assert!(limited.length >= unlimited.length);
    }

    const EAP: &str = r#"
        declare {
            %reg d[0:7] (double);
            %resource RM1; RM2; RFWB; RALU;
            %clock clk_m;
            %reg m1 (double; clk_m) +temporal;
            %reg m2 (double; clk_m) +temporal;
            %element pfmul;
            %element pfall;
            %class mul_ops { pfmul, pfall };
            %class all_ops { pfall };
        }
        cwvm { %general (double) d; }
        instr {
            %instr M1 d, d (double; clk_m) <mul_ops> {m1 = $1 * $2;} [RM1;] (1,1,0)
            %instr M2 (double; clk_m) <mul_ops> {m2 = m1;} [RM2;] (1,1,0)
            %instr FWB d (double; clk_m) <mul_ops> {$1 = m2;} [RFWB;] (1,1,0)
            %instr dadd d, d, d (double) <all_ops> {$1 = $2 + $3;} [RALU;] (1,1,0)
        }
    "#;

    fn eap() -> Machine {
        Machine::parse("eap", EAP).unwrap()
    }

    fn dsetup(m: &Machine, insts: Vec<Inst>) -> (CodeFunc, CodeBlock) {
        let mut f = CodeFunc::new("t");
        for _ in 0..20 {
            f.new_vreg(m.reg_class_by_name("d").unwrap(), VregKind::Local);
        }
        (
            f,
            CodeBlock {
                insts,
                succs: vec![],
            },
        )
    }

    #[test]
    fn temporal_sequence_schedules_in_order() {
        let m = eap();
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(2)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert!(s.inst_cycle[0] < s.inst_cycle[1]);
        assert!(s.inst_cycle[1] < s.inst_cycle[2]);
    }

    #[test]
    fn rule1_packs_second_launch_with_advance() {
        let m = eap();
        // Two independent multiplies: M1a; M2a; FWBa; M1b; M2b; FWBb.
        // Rule 1 forbids M1b before M2a but allows packing with it —
        // their resources (RM1 vs RM2) and classes (mul/mul) permit it.
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(2)]),
            inst(&m, "M1", vec![v(3), v(4)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(5)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        // Second launch must not precede the first advance...
        assert!(
            s.inst_cycle[3] >= s.inst_cycle[1],
            "Rule 1 violated: M1b at {} before M2a at {}",
            s.inst_cycle[3],
            s.inst_cycle[1]
        );
        // ...and overlap should beat full serialisation (≤ 5 cycles
        // for 6 sub-operations rather than 6).
        assert!(
            s.length <= 5,
            "pipelines should overlap, got length {} ({:?})",
            s.length,
            s.cycles
        );
        // All temporal-register hazards respected: every M1->M2 pair
        // advances in order.
        assert!(s.inst_cycle[4] > s.inst_cycle[3]);
        assert!(s.inst_cycle[5] > s.inst_cycle[4]);
    }

    #[test]
    fn class_packing_restriction_enforced() {
        let m = eap();
        // dadd is in class all_ops = {pfall}; M1 is in {pfmul, pfall}.
        // They may pack (intersection {pfall}). Two dadds cannot pack
        // with an M2 issued the same cycle if resources clash — here
        // resources differ, so the class rule is what matters: a word
        // already holding M1+M2 (intersection {pfmul, pfall}) still
        // accepts dadd (∩ = {pfall}).
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "dadd", vec![v(2), v(3), v(4)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(
            s.inst_cycle[0], s.inst_cycle[1],
            "compatible classes pack into one word: {s:?}"
        );
    }

    /// Two launches on one clock whose write-backs share a unit: Rule 1
    /// packs the second launch with the first, and then the temporal
    /// group of both write-backs can never be placed.
    const TWIN: &str = r#"
        declare {
            %reg d[0:7] (double);
            %resource RA; RB; RW;
            %clock k;
            %reg t1 (double; k) +temporal;
            %reg t2 (double; k) +temporal;
        }
        cwvm { %general (double) d; }
        instr {
            %instr LA d, d (double; k) {t1 = $1 * $2;} [RA;] (1,1,0)
            %instr LB d, d (double; k) {t2 = $1 + $2;} [RB;] (1,1,0)
            %instr WA d (double; k) {$1 = t1;} [RW;] (1,1,0)
            %instr WB d (double; k) {$1 = t2;} [RW;] (1,1,0)
        }
    "#;

    #[test]
    fn deadlock_is_detected_by_quiescence() {
        let m = Machine::parse("twin", TWIN).unwrap();
        let insts = vec![
            inst(&m, "LA", vec![v(0), v(1)]),
            inst(&m, "WA", vec![v(2)]),
            inst(&m, "LB", vec![v(3), v(4)]),
            inst(&m, "WB", vec![v(5)]),
        ];
        let (f, block) = dsetup(&m, insts);
        let dag = build_dag(&m, &block, true);
        let opts = SchedOptions::default();
        let msg = schedule_block(&m, &f, &block, &dag, &opts)
            .expect_err("the write-back group deadlocks under Rule 1")
            .to_string();
        assert!(msg.contains("unscheduled instructions [1, 3]"), "{msg}");
        let cycle_after = |key: &str| -> u32 {
            msg.split(key)
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("no `{key}` in: {msg}"))
        };
        let stopped = cycle_after("deadlock at cycle ");
        let last_issue = cycle_after("last issue at cycle ");
        assert_eq!(last_issue, 0, "both launches pack into cycle 0: {msg}");
        assert!(stopped <= last_issue + 3, "{msg}");
        let cap = (block.insts.len() as u32 + 8) * 64 + 1024;
        assert!(stopped * 100 < cap, "{msg}");
        // The ladder's second rung serialises the two sequences, and
        // its replay passes the audit.
        let s = schedule_block_robust(&m, &f, &block, &opts);
        assert_eq!(s.explanation.discipline, "serialized");
        crate::explain::audited_replay(&m, &f, &block, &s, &opts).unwrap();
    }

    #[test]
    fn empty_block_schedules_empty() {
        let m = toy();
        let (f, block) = setup(&m, vec![]);
        let dag = build_dag(&m, &block, true);
        let s = schedule_block(&m, &f, &block, &dag, &SchedOptions::default()).unwrap();
        assert_eq!(s.length, 0);
        assert!(s.cycles.is_empty());
    }
}
