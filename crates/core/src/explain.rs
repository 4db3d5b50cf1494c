//! Schedule provenance: *why* each instruction issued when it did.
//!
//! Every schedule carries a [`StallBreakdown`]: stalled cycles per
//! reason, tallied by the list scheduler's candidate scan. On request,
//! [`crate::sched::explain_schedule`] re-runs the deterministic
//! scheduler (paper §4.2–§4.6) with recording on and builds, for every
//! placed instruction, a [`PlacementRecord`]: the cycle it became
//! ready, the cycle its dependence latencies were satisfied, the cycle
//! it actually issued, and a typed [`StallReason`] for every cycle in
//! between — a data/anti/output edge naming the producing DAG node, a
//! resource-vector conflict naming the contended resource (§4.3), an
//! instruction-word packing rejection (§4.5), Rule-1 / temporal
//! sequence protection (§4.6), the IPS register-pressure cap, or the
//! serial fallback's thread-order discipline. The invariant every
//! record obeys (and [`audit_schedule`] enforces):
//!
//! ```text
//! issue_cycle − ready_cycle == Σ stall.cycles
//! ```
//!
//! [`audit_schedule`] is an *independent* cross-check: it re-derives
//! schedule legality from the machine description alone (replaying
//! the reservation timeline cycle by cycle rather than reusing the
//! scheduler's checks) and then validates every recorded stall
//! against the final schedule — provenance that lies is worse than
//! none. [`audited_replay`] does both for one block: replay, then
//! audit the replay against its discipline's DAG. [`dag_to_dot`]
//! renders the annotated code DAG
//! (scheduled cycles, edge kinds, the critical path, stall tooltips)
//! and [`explain_block_text`] produces the cycle-by-cycle narrative
//! used by the `marion-explain` tool.

use crate::code::{CodeBlock, CodeFunc};
use crate::dag::{CodeDag, EdgeKind};
use crate::quality::StallBreakdown;
use crate::sched::{SchedOptions, Schedule};
use marion_maril::machine::ClockId;
use marion_maril::{Machine, ResSet};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Why one instruction could not issue in one particular cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Waiting out the latency of a dependence edge: the producing DAG
    /// node, the edge kind and its label.
    Dependence {
        pred: usize,
        kind: EdgeKind,
        latency: u32,
    },
    /// The composite resource vector already claims `resource` in a
    /// cycle this instruction needs it (§4.3).
    Resource { resource: u32 },
    /// The packing classes of the sub-operations already issued this
    /// cycle leave no long-word slot for this one (§4.5).
    ClassPacking,
    /// Rule 1: this instruction affects `clock`, and the temporal edge
    /// `pending_src -> pending_dst` on that clock is open (§4.6).
    Temporal {
        clock: ClockId,
        pending_src: usize,
        pending_dst: usize,
    },
    /// The IPS limit on simultaneously live local registers.
    RegPressure,
    /// The serial fallback discipline issues at most one instruction
    /// per cycle, in thread order.
    ThreadOrder,
    /// None of the above — recorded defensively; the audit flags any
    /// occurrence as suspect provenance when it can.
    Other,
}

impl StallReason {
    /// Stable short key for histograms, counters and JSONL fields.
    pub fn key(&self) -> &'static str {
        match self {
            StallReason::Dependence { .. } => "dependence",
            StallReason::Resource { .. } => "resource",
            StallReason::ClassPacking => "class",
            StallReason::Temporal { .. } => "temporal",
            StallReason::RegPressure => "pressure",
            StallReason::ThreadOrder => "order",
            StallReason::Other => "other",
        }
    }

    /// Human-readable description, resolving ids against the machine.
    pub fn describe(&self, machine: &Machine, block: &CodeBlock) -> String {
        let mnem = |i: usize| {
            block
                .insts
                .get(i)
                .map(|inst| machine.template(inst.template).mnemonic.as_str())
                .unwrap_or("?")
        };
        match self {
            StallReason::Dependence {
                pred,
                kind,
                latency,
            } => format!(
                "waits on [{pred}] {} ({} edge, latency {latency})",
                mnem(*pred),
                edge_kind_name(*kind)
            ),
            StallReason::Resource { resource } => {
                let name = machine
                    .resources()
                    .get(*resource as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("resource {name} busy")
            }
            StallReason::ClassPacking => "word packing classes exclude it".to_string(),
            StallReason::Temporal {
                clock,
                pending_src,
                pending_dst,
            } => {
                let name = machine
                    .clocks()
                    .get(clock.0 as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!(
                    "Rule 1 on clock {name}: temporal edge [{pending_src}] {} -> [{pending_dst}] {} open",
                    mnem(*pending_src),
                    mnem(*pending_dst)
                )
            }
            StallReason::RegPressure => "local register pressure at the IPS limit".to_string(),
            StallReason::ThreadOrder => "serial discipline: thread order".to_string(),
            StallReason::Other => "unattributed".to_string(),
        }
    }
}

/// Display name of an edge kind (matches the paper's type-1/2/3
/// vocabulary).
pub fn edge_kind_name(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::True => "true",
        EdgeKind::TrueTemporal(_) => "temporal",
        EdgeKind::Anti => "anti",
        EdgeKind::Output => "output",
        EdgeKind::Mem => "mem",
        EdgeKind::Order => "order",
    }
}

/// A run of consecutive cycles stalled for one reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// First stalled cycle.
    pub at: u32,
    /// Number of consecutive cycles.
    pub cycles: u32,
    /// Why.
    pub reason: StallReason,
}

/// The provenance of one placed instruction.
#[derive(Debug, Clone, Default)]
pub struct PlacementRecord {
    /// Instruction index in the block (== DAG node).
    pub inst: usize,
    /// Cycle the last DAG predecessor issued (0 for roots): the
    /// instruction has entered the scheduler's view.
    pub ready_cycle: u32,
    /// Cycle every dependence latency is satisfied (≥ `ready_cycle`).
    pub earliest_cycle: u32,
    /// Cycle the instruction actually issued (≥ `earliest_cycle`).
    pub issue_cycle: u32,
    /// One entry per stalled cycle in `[ready_cycle, issue_cycle)`,
    /// coalesced over consecutive cycles with an identical reason.
    /// The tiles partition the interval exactly, so
    /// `Σ cycles == issue_cycle − ready_cycle`.
    pub stalls: Vec<Stall>,
}

impl PlacementRecord {
    /// Total stalled cycles (must equal `issue_cycle - ready_cycle`).
    pub fn stall_cycles(&self) -> u32 {
        self.stalls.iter().map(|s| s.cycles).sum()
    }
}

/// Everything the scheduler can explain about one block's schedule.
/// Every schedule carries the discipline, the stall breakdown and the
/// critical-path bound; the records, slack and critical-path chain
/// are built only by [`crate::sched::explain_schedule`].
#[derive(Debug, Clone, Default)]
pub struct ScheduleExplanation {
    /// One record per instruction, indexed by instruction (empty
    /// unless replayed).
    pub records: Vec<PlacementRecord>,
    /// Per-node slack against the DAG critical path: 0 = on it (empty
    /// unless replayed).
    pub slack: Vec<u32>,
    /// One maximal zero-slack chain through the DAG, in issue order
    /// (empty unless replayed).
    pub critical_path: Vec<usize>,
    /// The DAG critical path in cycles — the dependence-only lower
    /// bound on any legal schedule's length for this block (see
    /// [`critical_path_cycles`]). Zero for empty blocks.
    pub critical_path_cycles: u32,
    /// Stalled cycles per reason over the block: what the records'
    /// tiles sum to, counted without building them.
    pub stalls: StallBreakdown,
    /// Scheduling discipline that produced the schedule: a
    /// [`Discipline::name`], or empty for a hand-built schedule.
    pub discipline: &'static str,
}

/// The scheduling disciplines: the four rungs of the strategies'
/// fallback ladder (`sched::schedule_block_robust`) and the NoSched
/// baseline. A schedule records its discipline's name, and the name
/// alone fixes the code DAG the schedule was placed against, whether
/// Rule 1 holds of it, and which scheduler placed it — so a replay or
/// an audit rebuilds exactly what the scheduler saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// List scheduling under Rule 1 over the plain DAG.
    Rule1,
    /// Rule 1 over the plain DAG with same-clock sequences serialised.
    Serialized,
    /// List scheduling without Rule 1 over the DAG with latch
    /// name-dependences, which keep latch order instead.
    NameDeps,
    /// Serial thread order over the name-dependence DAG: the ladder's
    /// last rung.
    Serial,
    /// Serial thread order over the plain DAG: the NoSched baseline.
    NoSched,
}

impl Discipline {
    /// The name a schedule's explanation records.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::Rule1 => "rule1",
            Discipline::Serialized => "serialized",
            Discipline::NameDeps => "name-deps",
            Discipline::Serial => "serial",
            Discipline::NoSched => "nosched",
        }
    }

    /// The discipline `name` denotes; `None` for anything else, such
    /// as a hand-built schedule's empty name.
    pub fn parse(name: &str) -> Option<Discipline> {
        [
            Discipline::Rule1,
            Discipline::Serialized,
            Discipline::NameDeps,
            Discipline::Serial,
            Discipline::NoSched,
        ]
        .into_iter()
        .find(|d| d.name() == name)
    }

    /// The code DAG this discipline's schedules are placed against.
    /// The ladder builds the same DAGs, serialising rung 1's in place
    /// for rung 2.
    pub fn dag(self, machine: &Machine, block: &CodeBlock) -> CodeDag {
        match self {
            Discipline::Rule1 | Discipline::NoSched => crate::dag::build_dag(machine, block, true),
            Discipline::Serialized => {
                let mut dag = crate::dag::build_dag(machine, block, true);
                crate::dag::serialize_same_clock_sequences(&mut dag);
                dag
            }
            Discipline::NameDeps | Discipline::Serial => {
                crate::dag::build_dag_with(machine, block, true, true)
            }
        }
    }

    /// Whether Rule 1 holds of this discipline's schedules (and the
    /// list scheduler enforces it).
    pub fn checks_rule1(self) -> bool {
        matches!(self, Discipline::Rule1 | Discipline::Serialized)
    }

    /// Whether the serial scheduler, not the list scheduler, places
    /// this discipline's schedules.
    pub fn is_serial(self) -> bool {
        matches!(self, Discipline::Serial | Discipline::NoSched)
    }
}

impl ScheduleExplanation {
    /// Stalled cycles per reason summed over the placement records;
    /// equal to [`ScheduleExplanation::stalls`] on a replayed
    /// schedule.
    pub fn record_stalls(&self) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for r in &self.records {
            for s in &r.stalls {
                b.add(s.reason, u64::from(s.cycles));
            }
        }
        b
    }
}

/// Instruction `i`'s dependence window in a finished schedule: the
/// cycle its last DAG predecessor issued (0 for roots), the cycle its
/// last latency is satisfied, and the binding edge — the predecessor
/// whose `issue + latency` sets that cycle.
fn dependence_window(
    dag: &CodeDag,
    inst_cycle: &[u32],
    i: usize,
) -> (u32, u32, Option<(usize, EdgeKind, u32)>) {
    let mut ready = 0u32;
    let mut earliest = 0u32;
    let mut binding: Option<(usize, EdgeKind, u32)> = None;
    for &ei in &dag.preds[i] {
        let e = dag.edges[ei];
        ready = ready.max(inst_cycle[e.from]);
        let satisfied = inst_cycle[e.from] + e.latency;
        if satisfied > earliest || binding.is_none() {
            earliest = earliest.max(satisfied);
            if satisfied == earliest {
                binding = Some((e.from, e.kind, e.latency));
            }
        }
    }
    (ready, earliest, binding)
}

/// Cycles the block's instructions spent waiting out dependence
/// latencies: `Σ earliest − ready` — the dependence tiles of the
/// records, without the records.
pub(crate) fn dependence_stall_cycles(dag: &CodeDag, inst_cycle: &[u32]) -> u64 {
    (0..inst_cycle.len())
        .map(|i| {
            let (ready, earliest, _) = dependence_window(dag, inst_cycle, i);
            u64::from(earliest - ready)
        })
        .sum()
}

/// Builds per-instruction records from the final cycle assignment plus
/// the per-cycle hazard reasons logged during scheduling. Dependence
/// waits are derived here, post hoc: the binding edge is the
/// predecessor whose `issue + latency` determines `earliest_cycle`.
pub(crate) fn build_records(
    dag: &CodeDag,
    inst_cycle: &[u32],
    hazard: Vec<Vec<Stall>>,
) -> Vec<PlacementRecord> {
    let mut records = Vec::with_capacity(inst_cycle.len());
    for (i, hz) in hazard.into_iter().enumerate() {
        let (ready, earliest, binding) = dependence_window(dag, inst_cycle, i);
        let mut stalls = Vec::new();
        if earliest > ready {
            let (pred, kind, latency) = binding.expect("earliest > ready implies a pred");
            stalls.push(Stall {
                at: ready,
                cycles: earliest - ready,
                reason: StallReason::Dependence {
                    pred,
                    kind,
                    latency,
                },
            });
        }
        stalls.extend(hz);
        records.push(PlacementRecord {
            inst: i,
            ready_cycle: ready,
            earliest_cycle: earliest,
            issue_cycle: inst_cycle[i],
            stalls,
        });
    }
    records
}

/// Appends one stalled cycle to a per-instruction log, coalescing with
/// the previous tile when it is contiguous and has the same reason.
pub(crate) fn log_stall(log: &mut Vec<Stall>, at: u32, reason: StallReason) {
    if let Some(last) = log.last_mut() {
        if last.reason == reason && last.at + last.cycles == at {
            last.cycles += 1;
            return;
        }
    }
    log.push(Stall {
        at,
        cycles: 1,
        reason,
    });
}

/// The DAG critical path in cycles: `max(ltl) + 1`, where `ltl`
/// (`dag.critical_path()`, the scheduler's priority) is each node's
/// longest latency chain to a leaf. On a DAG this equals
/// `max(est[i] + ltl[i]) + 1` with `est` the earliest dependence-legal
/// issue cycle, since a longest chain starts at a root (`est = 0`). No
/// legal schedule of the block can finish in fewer issue cycles, so
/// this is the quality subsystem's per-block lower bound
/// (`critical_path ≤ est_cycles`). Zero for empty blocks.
pub fn critical_path_cycles(ltl: &[u32]) -> u32 {
    ltl.iter().max().map_or(0, |m| m + 1)
}

/// Computes per-node slack and one zero-slack chain for a DAG.
pub fn critical_path_slack(dag: &CodeDag) -> (Vec<u32>, Vec<usize>) {
    if dag.n == 0 {
        return (Vec::new(), Vec::new());
    }
    let est = dag.earliest_starts();
    let ltl = dag.critical_path();
    let cp_len = (0..dag.n).map(|i| est[i] + ltl[i]).max().unwrap_or(0);
    let slack: Vec<u32> = (0..dag.n).map(|i| cp_len - (est[i] + ltl[i])).collect();
    // One chain: start at the earliest zero-slack node, follow
    // zero-slack edges that carry the full distance.
    let mut cur = (0..dag.n)
        .filter(|&i| slack[i] == 0)
        .min_by_key(|&i| (est[i], i))
        .unwrap_or(0);
    let mut path = vec![cur];
    for _ in 0..dag.n {
        let next = dag.succs[cur].iter().find_map(|&ei| {
            let e = dag.edges[ei];
            (slack[e.to] == 0 && ltl[cur] == e.latency + ltl[e.to]).then_some(e.to)
        });
        match next {
            Some(nxt) => {
                path.push(nxt);
                cur = nxt;
            }
            None => break,
        }
    }
    (slack, path)
}

/// An audit failure, pinpointing the offending instruction where one
/// can be named.
#[derive(Debug, Clone)]
pub struct AuditError {
    /// The instruction at fault, when attributable.
    pub inst: Option<usize>,
    /// Which constraint family failed: `"coverage"`, `"dependence"`,
    /// `"resource"`, `"class"`, `"rule1"` or `"provenance"`.
    pub kind: &'static str,
    /// Details.
    pub detail: String,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inst {
            Some(i) => write!(f, "audit[{}] instruction {i}: {}", self.kind, self.detail),
            None => write!(f, "audit[{}]: {}", self.kind, self.detail),
        }
    }
}

fn fail(inst: Option<usize>, kind: &'static str, detail: String) -> Result<(), AuditError> {
    Err(AuditError { inst, kind, detail })
}

/// Independently re-derives the legality of `schedule` from the
/// machine description and cross-checks the recorded provenance.
///
/// Legality is re-implemented from scratch (timeline replay with an
/// ownership map, rather than `verify_schedule`'s constraint scans) so
/// the two checkers can disagree only if one of them is wrong:
///
/// 1. **coverage** — `cycles` and `inst_cycle` describe the same
///    placement, every instruction exactly once;
/// 2. **dependence** — every DAG edge's latency is respected;
/// 3. **resource** — no resource is claimed by two instructions in the
///    same cycle (names both claimants);
/// 4. **class** — packed words have intersecting classes;
/// 5. **rule1** — (when `check_rule1`) no instruction affecting a
///    clock issues strictly inside an open temporal edge on it;
/// 6. **provenance** — each record's `ready`/`earliest` match a
///    recomputation from the DAG, the stall tiles exactly partition
///    `[ready, issue)`, and every Dependence / Resource / Temporal /
///    ClassPacking stall is corroborated against the final schedule
///    (pressure and thread-order stalls reflect transient scheduler
///    state and are checked arithmetically only). A schedule whose
///    discipline names a scheduler rung must carry records — audit
///    its [`crate::sched::explain_schedule`] replay; only hand-built
///    schedules may have none.
pub fn audit_schedule(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
    check_rule1: bool,
) -> Result<(), AuditError> {
    let n = block.insts.len();
    // 1. Coverage.
    if schedule.inst_cycle.len() != n {
        return fail(
            None,
            "coverage",
            format!(
                "{} cycles recorded for {n} instructions",
                schedule.inst_cycle.len()
            ),
        );
    }
    let mut seen = vec![false; n];
    for (c, members) in schedule.cycles.iter().enumerate() {
        for &i in members {
            if i >= n {
                return fail(
                    None,
                    "coverage",
                    format!("cycle {c} lists instruction {i} of {n}"),
                );
            }
            if seen[i] {
                return fail(
                    Some(i),
                    "coverage",
                    format!("issued twice (again at cycle {c})"),
                );
            }
            seen[i] = true;
            if schedule.inst_cycle[i] as usize != c {
                return fail(
                    Some(i),
                    "coverage",
                    format!(
                        "listed at cycle {c} but inst_cycle says {}",
                        schedule.inst_cycle[i]
                    ),
                );
            }
        }
    }
    if let Some(i) = (0..n).find(|&i| !seen[i]) {
        return fail(Some(i), "coverage", "never issued".to_string());
    }
    // 2. Dependences.
    for e in &dag.edges {
        let (cf, ct) = (schedule.inst_cycle[e.from], schedule.inst_cycle[e.to]);
        if ct < cf + e.latency {
            return fail(
                Some(e.to),
                "dependence",
                format!(
                    "issues at {ct}, but its {} edge from [{}] (cycle {cf}, latency {}) requires ≥ {}",
                    edge_kind_name(e.kind),
                    e.from,
                    e.latency,
                    cf + e.latency
                ),
            );
        }
    }
    // 3. Resources: replay the timeline with an ownership map.
    let mut owner: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, inst) in block.insts.iter().enumerate() {
        let t = machine.template(inst.template);
        for (c, need) in t.rsrc.iter().enumerate() {
            let at = schedule.inst_cycle[i] + c as u32;
            for r in need.iter() {
                if let Some(&prev) = owner.get(&(at, r)) {
                    let name = machine
                        .resources()
                        .get(r as usize)
                        .map(String::as_str)
                        .unwrap_or("?");
                    return fail(
                        Some(i),
                        "resource",
                        format!("claims {name} at cycle {at}, already held by [{prev}]"),
                    );
                }
                owner.insert((at, r), i);
            }
        }
    }
    // 4. Class packing, per issued word.
    for (c, members) in schedule.cycles.iter().enumerate() {
        let mut word: Option<ResSet> = None;
        for &i in members {
            if let Some(cid) = machine.template(block.insts[i].template).class {
                let elems = machine.class(cid).elements;
                let inter = match word {
                    None => elems,
                    Some(w) => w.intersection(&elems),
                };
                if inter.is_empty() {
                    return fail(
                        Some(i),
                        "class",
                        format!("cannot pack into the word issued at cycle {c}"),
                    );
                }
                word = Some(inter);
            }
        }
    }
    // 5. Rule 1.
    if check_rule1 {
        for e in &dag.edges {
            let EdgeKind::TrueTemporal(k) = e.kind else {
                continue;
            };
            let (cf, ct) = (schedule.inst_cycle[e.from], schedule.inst_cycle[e.to]);
            for (z, inst) in block.insts.iter().enumerate() {
                if z == e.from || z == e.to {
                    continue;
                }
                if machine.template(inst.template).affects_clock == Some(k) {
                    let cz = schedule.inst_cycle[z];
                    if cz > cf && cz < ct {
                        return fail(
                            Some(z),
                            "rule1",
                            format!(
                                "affects clock {k} and issues at {cz}, inside temporal edge [{}] -> [{}] ({cf} -> {ct})",
                                e.from, e.to
                            ),
                        );
                    }
                }
            }
        }
    }
    // 6. Provenance.
    audit_provenance(machine, block, dag, schedule, &owner)
}

fn audit_provenance(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
    owner: &HashMap<(u32, u32), usize>,
) -> Result<(), AuditError> {
    let n = block.insts.len();
    let records = &schedule.explanation.records;
    if records.is_empty() && n > 0 {
        let discipline = schedule.explanation.discipline;
        if Discipline::parse(discipline).is_some() {
            return fail(
                None,
                "provenance",
                format!("{discipline} schedule carries no placement records; audit its replay"),
            );
        }
        // Hand-built schedules (tests) carry no provenance; legality
        // alone was audited.
        return Ok(());
    }
    if records.len() != n {
        return fail(
            None,
            "provenance",
            format!("{} records for {n} instructions", records.len()),
        );
    }
    for (i, rec) in records.iter().enumerate() {
        if rec.inst != i {
            return fail(
                Some(i),
                "provenance",
                format!("record claims instruction {}", rec.inst),
            );
        }
        let mut ready = 0u32;
        let mut earliest = 0u32;
        for &ei in &dag.preds[i] {
            let e = dag.edges[ei];
            ready = ready.max(schedule.inst_cycle[e.from]);
            earliest = earliest.max(schedule.inst_cycle[e.from] + e.latency);
        }
        let issue = schedule.inst_cycle[i];
        if rec.ready_cycle != ready || rec.earliest_cycle != earliest || rec.issue_cycle != issue {
            return fail(
                Some(i),
                "provenance",
                format!(
                    "record says ready {} / earliest {} / issue {}, schedule says {ready} / {earliest} / {issue}",
                    rec.ready_cycle, rec.earliest_cycle, rec.issue_cycle
                ),
            );
        }
        // The stall tiles must partition [ready, issue) exactly.
        let mut cursor = ready;
        for s in &rec.stalls {
            if s.at != cursor || s.cycles == 0 {
                return fail(
                    Some(i),
                    "provenance",
                    format!(
                        "stall tile at {} (len {}) does not continue from {cursor}",
                        s.at, s.cycles
                    ),
                );
            }
            cursor += s.cycles;
            audit_stall(machine, block, dag, schedule, owner, i, s)?;
        }
        if cursor != issue {
            return fail(
                Some(i),
                "provenance",
                format!(
                    "stall cycles sum to {} but issue - ready = {}",
                    cursor - ready,
                    issue - ready
                ),
            );
        }
    }
    Ok(())
}

/// Corroborates one stall tile against the final schedule. Resource
/// claims can be checked against the final timeline because usage only
/// grows during scheduling: a conflict observed at decision time is
/// still present in the completed schedule.
fn audit_stall(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
    owner: &HashMap<(u32, u32), usize>,
    i: usize,
    s: &Stall,
) -> Result<(), AuditError> {
    match s.reason {
        StallReason::Dependence {
            pred,
            kind,
            latency,
        } => {
            let rec = &schedule.explanation.records[i];
            let edge_ok = dag.preds[i].iter().any(|&ei| {
                let e = dag.edges[ei];
                e.from == pred && e.kind == kind && e.latency == latency
            });
            if !edge_ok {
                return fail(
                    Some(i),
                    "provenance",
                    format!(
                        "claims a {} edge from [{pred}] that the DAG does not have",
                        edge_kind_name(kind)
                    ),
                );
            }
            if schedule.inst_cycle[pred] + latency != rec.earliest_cycle
                || s.at != rec.ready_cycle
                || s.at + s.cycles != rec.earliest_cycle
            {
                return fail(
                    Some(i),
                    "provenance",
                    format!("dependence stall on [{pred}] does not span ready..earliest"),
                );
            }
        }
        StallReason::Resource { resource } => {
            let t = machine.template(block.insts[i].template);
            for at in s.at..s.at + s.cycles {
                let contended = t.rsrc.iter().enumerate().any(|(c, need)| {
                    need.contains(resource)
                        && owner
                            .get(&(at + c as u32, resource))
                            .is_some_and(|&o| o != i)
                });
                if !contended {
                    let name = machine
                        .resources()
                        .get(resource as usize)
                        .map(String::as_str)
                        .unwrap_or("?");
                    return fail(
                        Some(i),
                        "provenance",
                        format!("claims {name} was contended at cycle {at}, but no other instruction holds it where needed"),
                    );
                }
            }
        }
        StallReason::Temporal {
            clock,
            pending_src,
            pending_dst,
        } => {
            if machine.template(block.insts[i].template).affects_clock != Some(clock) {
                return fail(
                    Some(i),
                    "provenance",
                    format!("claims a Rule 1 stall on clock {clock} it does not affect"),
                );
            }
            let edge_ok = dag.edges.iter().any(|e| {
                e.from == pending_src
                    && e.to == pending_dst
                    && matches!(e.kind, EdgeKind::TrueTemporal(k) if k == clock)
            });
            if !edge_ok {
                return fail(
                    Some(i),
                    "provenance",
                    format!("claims temporal edge [{pending_src}] -> [{pending_dst}] that the DAG does not have"),
                );
            }
            for at in s.at..s.at + s.cycles {
                let (cs, cd) = (
                    schedule.inst_cycle[pending_src],
                    schedule.inst_cycle[pending_dst],
                );
                if !(cs < at && at < cd) {
                    return fail(
                        Some(i),
                        "provenance",
                        format!("temporal edge [{pending_src}] -> [{pending_dst}] was not open at cycle {at}"),
                    );
                }
            }
        }
        StallReason::ClassPacking => {
            let Some(cid) = machine.template(block.insts[i].template).class else {
                return fail(
                    Some(i),
                    "provenance",
                    "claims a packing stall but has no class".to_string(),
                );
            };
            let elems = machine.class(cid).elements;
            for at in s.at..s.at + s.cycles {
                let mut word: Option<ResSet> = None;
                for &m in schedule
                    .cycles
                    .get(at as usize)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                {
                    if let Some(mc) = machine.template(block.insts[m].template).class {
                        let me = machine.class(mc).elements;
                        word = Some(match word {
                            None => me,
                            Some(w) => w.intersection(&me),
                        });
                    }
                }
                let excluded = word.is_some_and(|w| w.intersection(&elems).is_empty());
                if !excluded {
                    return fail(
                        Some(i),
                        "provenance",
                        format!(
                            "claims the cycle-{at} word excluded it, but the classes intersect"
                        ),
                    );
                }
            }
        }
        // Pressure and thread-order stalls depend on transient
        // scheduler state (the live set, the serial cursor) that the
        // final schedule does not retain; the tiling arithmetic above
        // is their check. `Other` likewise.
        StallReason::RegPressure | StallReason::ThreadOrder | StallReason::Other => {}
    }
    Ok(())
}

/// Replays `schedule` for its placement records
/// ([`crate::sched::explain_schedule`], with the `opts` it was
/// scheduled with) and audits the replay with [`audit_schedule`]
/// against the DAG its [`Discipline`] names. Returns the replay and
/// that DAG.
///
/// # Errors
///
/// The replay's failure, or the audit's behind `audit_schedule: `.
pub fn audited_replay(
    machine: &Machine,
    func: &CodeFunc,
    block: &CodeBlock,
    schedule: &Schedule,
    opts: &SchedOptions,
) -> Result<(Schedule, CodeDag), String> {
    let replay = crate::sched::explain_schedule(machine, func, block, schedule, opts)
        .map_err(|e| e.to_string())?;
    let discipline = Discipline::parse(replay.explanation.discipline)
        .expect("a replayed schedule names its discipline");
    let dag = discipline.dag(machine, block);
    audit_schedule(machine, block, &dag, &replay, discipline.checks_rule1())
        .map_err(|e| format!("audit_schedule: {e}"))?;
    Ok((replay, dag))
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `mnemonic op,op,…` display form of one block instruction, as used
/// in DAG node labels (dot and SVG renderings).
pub fn inst_label(machine: &Machine, block: &CodeBlock, i: usize) -> String {
    let inst = &block.insts[i];
    let mut s = machine.template(inst.template).mnemonic.clone();
    for (k, op) in inst.ops.iter().enumerate() {
        s.push(if k == 0 { ' ' } else { ',' });
        let _ = write!(s, "{op}");
    }
    s
}

/// Renders the annotated code DAG as a Graphviz digraph: each node
/// carries its instruction, issue cycle and ready/slack annotation,
/// stall reasons become tooltips, the critical path is highlighted,
/// and edges are styled by kind (solid true, bold+labelled temporal,
/// dashed anti/output, dotted memory/order) with their latency. The
/// annotations need a schedule replayed by
/// [`crate::sched::explain_schedule`].
pub fn dag_to_dot(
    machine: &Machine,
    block: &CodeBlock,
    dag: &CodeDag,
    schedule: &Schedule,
    title: &str,
) -> String {
    let ex = &schedule.explanation;
    let on_path = |i: usize| ex.slack.get(i).copied() == Some(0);
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", dot_escape(title));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box fontname=monospace fontsize=10];");
    for i in 0..dag.n {
        let cycle = schedule.inst_cycle.get(i).copied().unwrap_or(0);
        let (ready, slack) = (
            ex.records.get(i).map(|r| r.ready_cycle).unwrap_or(0),
            ex.slack.get(i).copied().unwrap_or(0),
        );
        let label = format!(
            "[{i}] {}\\n@{cycle} ready {ready} slack {slack}",
            dot_escape(&inst_label(machine, block, i))
        );
        let tooltip = match ex.records.get(i) {
            Some(r) if !r.stalls.is_empty() => r
                .stalls
                .iter()
                .map(|s| {
                    format!(
                        "{} cycle(s): {}",
                        s.cycles,
                        s.reason.describe(machine, block)
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
            _ => "no stalls".to_string(),
        };
        let mut attrs = format!("label=\"{label}\" tooltip=\"{}\"", dot_escape(&tooltip));
        if on_path(i) {
            attrs.push_str(" color=red penwidth=2");
        }
        if ex.records.get(i).is_some_and(|r| r.stall_cycles() > 0) {
            attrs.push_str(" style=filled fillcolor=lightyellow");
        }
        let _ = writeln!(out, "  n{i} [{attrs}];");
    }
    for e in &dag.edges {
        let style = match e.kind {
            EdgeKind::True => "solid".to_string(),
            EdgeKind::TrueTemporal(k) => {
                let clock = machine
                    .clocks()
                    .get(k.0 as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                format!("bold\" label=\"{}", dot_escape(clock))
            }
            EdgeKind::Anti | EdgeKind::Output => "dashed".to_string(),
            EdgeKind::Mem | EdgeKind::Order => "dotted".to_string(),
        };
        let critical = on_path(e.from)
            && on_path(e.to)
            && ex
                .critical_path
                .windows(2)
                .any(|w| w[0] == e.from && w[1] == e.to);
        let color = if critical {
            " color=red penwidth=2"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  n{} -> n{} [style=\"{style}\" taillabel=\"{}\"{color}];",
            e.from, e.to, e.latency
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Structural well-formedness of a [`dag_to_dot`] rendering: braces
/// balance, and the node and edge counts match the DAG. Returns a
/// description of the first problem.
pub fn check_dot(dot: &str, dag: &CodeDag) -> Result<(), String> {
    let opens = dot.matches('{').count();
    let closes = dot.matches('}').count();
    if opens != closes || opens == 0 {
        return Err(format!("unbalanced braces ({opens} open, {closes} close)"));
    }
    let nodes = dot
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            // A node statement is `nNN [attrs];` — `n` then a digit
            // (unlike the `node [..]` default-attribute line).
            l.strip_prefix('n')
                .and_then(|rest| rest.chars().next())
                .is_some_and(|c| c.is_ascii_digit())
                && l.contains('[')
                && !l.contains("->")
        })
        .count();
    if nodes != dag.n {
        return Err(format!("{nodes} node statements for {} DAG nodes", dag.n));
    }
    let edges = dot.lines().filter(|l| l.contains("->")).count();
    if edges != dag.edges.len() {
        return Err(format!(
            "{edges} edge statements for {} DAG edges",
            dag.edges.len()
        ));
    }
    Ok(())
}

/// The per-block cycle-by-cycle narrative: one row per issue cycle
/// listing what issued and what was stalled (and why), followed by a
/// per-instruction placement table, the records' stall histogram and
/// the critical path. The narrative needs a schedule replayed by
/// [`crate::sched::explain_schedule`].
pub fn explain_block_text(machine: &Machine, block: &CodeBlock, schedule: &Schedule) -> String {
    let ex = &schedule.explanation;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "schedule: {} insts, {} cycles (discipline {})",
        block.insts.len(),
        schedule.length,
        if ex.discipline.is_empty() {
            "rule1"
        } else {
            ex.discipline
        }
    );
    // Cycle narrative.
    let ncycles = schedule.cycles.len();
    for t in 0..ncycles as u32 {
        let issued: Vec<String> = schedule
            .cycles
            .get(t as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&i| format!("[{i}] {}", inst_label(machine, block, i)))
            .collect();
        let mut waiting: Vec<String> = Vec::new();
        for r in &ex.records {
            for s in &r.stalls {
                if s.at <= t && t < s.at + s.cycles {
                    waiting.push(format!(
                        "[{}] {}: {}",
                        r.inst,
                        machine.template(block.insts[r.inst].template).mnemonic,
                        s.reason.describe(machine, block)
                    ));
                }
            }
        }
        let issued = if issued.is_empty() {
            "-".to_string()
        } else {
            issued.join("  ")
        };
        let _ = writeln!(out, "  cycle {t:>3} | {issued}");
        for w in waiting {
            let _ = writeln!(out, "            |   stalled {w}");
        }
    }
    // Placement table.
    let _ = writeln!(out, "  placements (inst | ready earliest issue | stalls):");
    for r in &ex.records {
        let stalls = if r.stalls.is_empty() {
            "none".to_string()
        } else {
            r.stalls
                .iter()
                .map(|s| format!("{}x {}", s.cycles, s.reason.key()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            out,
            "    [{}] {:<18} | {:>3} {:>3} {:>3} | {stalls}",
            r.inst,
            machine.template(block.insts[r.inst].template).mnemonic,
            r.ready_cycle,
            r.earliest_cycle,
            r.issue_cycle
        );
    }
    let rendered: Vec<String> = ex
        .record_stalls()
        .as_pairs()
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    if !rendered.is_empty() {
        let _ = writeln!(out, "  stall cycles by reason: {}", rendered.join(", "));
    }
    if !ex.critical_path.is_empty() {
        let chain: Vec<String> = ex.critical_path.iter().map(|i| format!("[{i}]")).collect();
        let _ = writeln!(out, "  critical path: {}", chain.join(" -> "));
    }
    out
}
