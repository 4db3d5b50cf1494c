//! The code DAG (paper §4.1) and temporal-sequence protection (§4.6).
//!
//! Nodes are the instructions of one basic block; directed labelled
//! edges represent dependence. An edge `(x, y)` with label `l` means
//! `y` cannot be scheduled fewer than `l` cycles after `x`. Edge
//! types follow the paper:
//!
//! * **type 1** — true dependences; the label is the producer's
//!   latency, overridden by `%aux` directives for specific
//!   instruction pairs. True dependences through a *temporal
//!   register* are marked with their clock — they are the temporal
//!   edges that drive Rule 1 during scheduling;
//! * **type 2** — memory ordering;
//! * **type 3** — anti- and output-dependences on register names, so
//!   that separate uses of the same register do not overlap.
//!
//! The DAG is threaded by the *code thread* (original instruction
//! order). Before scheduling, temporal sequences are *protected*:
//! for every alternate entry into a sequence, ancestors of the entry
//! that affect the sequence's clock get an extra edge to the
//! sequence's head — exactly the dashed `(p, q)` edge of the paper's
//! Figure 6 — so a non-backtracking scheduler cannot deadlock.

use crate::code::{CodeBlock, Inst, Operand, Vreg};
use marion_maril::machine::{ClockId, TemporalId};
use marion_maril::Machine;
use std::collections::HashMap;

/// Edge classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// True dependence through a register.
    True,
    /// True dependence through a temporal register based on a clock.
    TrueTemporal(ClockId),
    /// Anti-dependence (use before redefinition).
    Anti,
    /// Output dependence (two definitions of the same register).
    Output,
    /// Memory ordering.
    Mem,
    /// Pure ordering (control, protection edges).
    Order,
}

/// A labelled dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source instruction index in the block.
    pub from: usize,
    /// Destination instruction index.
    pub to: usize,
    /// Minimum cycle distance.
    pub latency: u32,
    /// Classification (schedulers do not distinguish types except for
    /// temporal edges, per the paper).
    pub kind: EdgeKind,
}

/// The code DAG of one basic block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodeDag {
    /// Number of instructions.
    pub n: usize,
    /// All edges.
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per node.
    pub succs: Vec<Vec<usize>>,
    /// Incoming edge indices per node.
    pub preds: Vec<Vec<usize>>,
}

impl CodeDag {
    fn add_edge(&mut self, from: usize, to: usize, latency: u32, kind: EdgeKind) {
        if from == to {
            return;
        }
        // Keep the strongest label for duplicate (from, to) pairs;
        // temporal edges are never merged away.
        if !matches!(kind, EdgeKind::TrueTemporal(_)) {
            for &ei in &self.succs[from] {
                let e = &mut self.edges[ei];
                if e.to == to && !matches!(e.kind, EdgeKind::TrueTemporal(_)) {
                    e.latency = e.latency.max(latency);
                    return;
                }
            }
        }
        let idx = self.edges.len();
        self.edges.push(Edge {
            from,
            to,
            latency,
            kind,
        });
        self.succs[from].push(idx);
        self.preds[to].push(idx);
    }

    /// Maximum distance (sum of labels) from each node to any leaf —
    /// the classic list-scheduling priority (paper §4.2).
    pub fn critical_path(&self) -> Vec<u32> {
        let order = self.topo_order();
        let mut dist = vec![0u32; self.n];
        for &i in order.iter().rev() {
            for &ei in &self.succs[i] {
                let e = self.edges[ei];
                dist[i] = dist[i].max(e.latency + dist[e.to]);
            }
        }
        dist
    }

    /// Maximum distance (sum of labels) from any root to each node:
    /// the earliest cycle dependences alone would let the node issue.
    /// Together with [`CodeDag::critical_path`] this gives per-node
    /// slack: `max(est + cp) - (est[i] + cp[i])`.
    pub fn earliest_starts(&self) -> Vec<u32> {
        let order = self.topo_order();
        let mut est = vec![0u32; self.n];
        for &i in &order {
            for &ei in &self.succs[i] {
                let e = self.edges[ei];
                est[e.to] = est[e.to].max(est[i] + e.latency);
            }
        }
        est
    }

    /// A topological order of the nodes. Edges mostly point forward in
    /// the code thread, but protection and serialisation edges (§4.6)
    /// may point backward in index order, so a Kahn sweep is used; any
    /// residue from a (never-constructed) cycle is appended in index
    /// order so callers always receive a permutation.
    pub fn topo_order(&self) -> Vec<usize> {
        let mut indeg: Vec<usize> = self.preds.iter().map(|p| p.len()).collect();
        let mut order = Vec::with_capacity(self.n);
        // Smallest-index-first keeps the order deterministic and equal
        // to the code thread whenever the thread is already topological.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..self.n)
            .filter(|&i| indeg[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            order.push(i);
            for &ei in &self.succs[i] {
                let t = self.edges[ei].to;
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    ready.push(std::cmp::Reverse(t));
                }
            }
        }
        if order.len() < self.n {
            let mut seen = vec![false; self.n];
            for &i in &order {
                seen[i] = true;
            }
            order.extend((0..self.n).filter(|&i| !seen[i]));
        }
        order
    }

    /// Whether `to` is reachable from `from`.
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![from];
        while let Some(i) = stack.pop() {
            for &ei in &self.succs[i] {
                let t = self.edges[ei].to;
                if t == to {
                    return true;
                }
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        false
    }
}

/// Register-name atoms at dependence granularity: virtual register
/// halves and physical register units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Atom {
    VregHalf(Vreg, u8),
    Unit(u32),
    Temporal(TemporalId),
}

fn operand_atoms(machine: &Machine, op: &Operand, out: &mut Vec<Atom>) {
    match op {
        Operand::Vreg(v) => {
            out.push(Atom::VregHalf(*v, 0));
            out.push(Atom::VregHalf(*v, 1));
        }
        Operand::VregHalf(v, h) => out.push(Atom::VregHalf(*v, *h)),
        Operand::Phys(p) => {
            for u in machine.units_of(*p) {
                out.push(Atom::Unit(u));
            }
        }
        _ => {}
    }
}

/// Def and use atom sets of one instruction, written into reusable
/// caller buffers.
fn atoms_of(machine: &Machine, inst: &Inst, defs: &mut Vec<Atom>, uses: &mut Vec<Atom>) {
    defs.clear();
    uses.clear();
    let t = machine.template(inst.template);
    for k in &t.effects.defs {
        if let Some(op) = inst.ops.get((*k - 1) as usize) {
            operand_atoms(machine, op, defs);
            // A half-register def leaves the other half live: it also
            // counts as a use so the whole pair stays intact.
            if let Operand::VregHalf(v, h) = op {
                uses.push(Atom::VregHalf(*v, 1 - *h));
            }
        }
    }
    for k in &t.effects.uses {
        if let Some(op) = inst.ops.get((*k - 1) as usize) {
            operand_atoms(machine, op, uses);
        }
    }
    for p in &inst.extra_defs {
        for u in machine.units_of(*p) {
            defs.push(Atom::Unit(u));
        }
    }
    for p in &inst.extra_uses {
        for u in machine.units_of(*p) {
            uses.push(Atom::Unit(u));
        }
    }
    for t_id in &t.effects.temporal_defs {
        defs.push(Atom::Temporal(*t_id));
    }
    for t_id in &t.effects.temporal_uses {
        uses.push(Atom::Temporal(*t_id));
    }
}

/// Builds the code DAG for one block.
///
/// `include_anti` controls type 3 edges (anti/output on register
/// names): strategies that schedule before register allocation on
/// single-assignment temporaries may leave them out for
/// anti-dependences that cannot matter, but redefinitions of the same
/// name are always ordered.
pub fn build_dag(machine: &Machine, block: &CodeBlock, include_anti: bool) -> CodeDag {
    build_dag_with(machine, block, include_anti, false)
}

/// [`build_dag`] with explicit control over latch name-dependences.
///
/// With `latch_name_deps` set, anti- and output-dependence edges are
/// added on temporal latches like on any register name. On the real
/// machine this is wrong (it forgoes Rule 1's packing freedom and the
/// pipelines physically advance together), but under the simulator's
/// explicit-latch semantics it is a *correct* alternative discipline —
/// used as a deadlock-free fallback when Rule 1 scheduling cannot
/// complete a pathological block.
pub fn build_dag_with(
    machine: &Machine,
    block: &CodeBlock,
    include_anti: bool,
    latch_name_deps: bool,
) -> CodeDag {
    let mut dag = dependence_dag(machine, block, include_anti, latch_name_deps);
    protect_temporal_sequences(machine, block, &mut dag);
    dag
}

/// [`build_dag_with`] before temporal-sequence protection: the
/// dependence edges of §4.1 alone, in the order the scheduler's DAG
/// holds them. Exposed so a reference model of the §4.6 protection
/// step can be checked against the real one on the same input.
pub fn dependence_dag(
    machine: &Machine,
    block: &CodeBlock,
    include_anti: bool,
    latch_name_deps: bool,
) -> CodeDag {
    let n = block.insts.len();
    let mut dag = CodeDag {
        n,
        edges: Vec::new(),
        succs: vec![Vec::new(); n],
        preds: vec![Vec::new(); n],
    };
    // Dense atom ids: the block's atom universe is bounded by the vreg
    // ids it mentions (two halves each) plus the machine's register
    // units and temporal latches, so last-def/last-use tracking is
    // plain array indexing instead of hashing.
    let mut max_vreg: usize = 0;
    for inst in &block.insts {
        for op in &inst.ops {
            if let Operand::Vreg(v) | Operand::VregHalf(v, _) = op {
                max_vreg = max_vreg.max(v.0 as usize + 1);
            }
        }
    }
    let unit_base = 2 * max_vreg;
    let temporal_base = unit_base + machine.unit_count() as usize;
    let universe = temporal_base + machine.temporals().len();
    let atom_id = |a: Atom| -> usize {
        match a {
            Atom::VregHalf(v, h) => (v.0 as usize) * 2 + h as usize,
            Atom::Unit(u) => unit_base + u as usize,
            Atom::Temporal(t) => temporal_base + t.0 as usize,
        }
    };
    let mut last_def: Vec<usize> = vec![usize::MAX; universe];
    let mut last_uses: Vec<Vec<usize>> = vec![Vec::new(); universe];
    let mut defs: Vec<Atom> = Vec::new();
    let mut uses: Vec<Atom> = Vec::new();
    let mut loads_since_store: Vec<usize> = Vec::new();
    let mut last_store: Option<usize> = None;
    let mut last_control: Option<usize> = None;
    let mut last_call: Option<usize> = None;

    let ops_equal = |a: &Inst, b: &Inst, i: u8, j: u8| -> bool {
        match (a.ops.get((i - 1) as usize), b.ops.get((j - 1) as usize)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    };

    for (i, inst) in block.insts.iter().enumerate() {
        let t = machine.template(inst.template);
        atoms_of(machine, inst, &mut defs, &mut uses);
        let reads_mem = t.effects.reads_mem || t.effects.is_call;
        let writes_mem = t.effects.writes_mem || t.effects.is_call;

        for atom in &uses {
            let d = last_def[atom_id(*atom)];
            if d != usize::MAX {
                let producer = &block.insts[d];
                let lat = machine.edge_latency(producer.template, inst.template, &|a, b| {
                    ops_equal(producer, inst, a, b)
                });
                let kind = match atom {
                    Atom::Temporal(tid) => EdgeKind::TrueTemporal(machine.temporal(*tid).clock),
                    _ => EdgeKind::True,
                };
                dag.add_edge(d, i, lat, kind);
            }
            last_uses[atom_id(*atom)].push(i);
        }
        for atom in &defs {
            // Normally no anti/output edges on temporal latches: Rule
            // 1 and temporal groups govern their ordering (adding them
            // would serialise independent EAP sequences the paper
            // explicitly overlaps). The `latch_name_deps` fallback
            // mode adds them instead of relying on Rule 1.
            if matches!(atom, Atom::Temporal(_)) && !latch_name_deps {
                continue;
            }
            let aid = atom_id(*atom);
            if include_anti {
                for &u in &last_uses[aid] {
                    if u != i {
                        dag.add_edge(u, i, 0, EdgeKind::Anti);
                    }
                }
            }
            let d = last_def[aid];
            if d != usize::MAX {
                dag.add_edge(d, i, 1, EdgeKind::Output);
            }
        }
        for atom in &defs {
            let aid = atom_id(*atom);
            last_def[aid] = i;
            last_uses[aid].clear();
        }

        if reads_mem {
            if let Some(s) = last_store {
                let producer = &block.insts[s];
                let lat = machine.edge_latency(producer.template, inst.template, &|a, b| {
                    ops_equal(producer, inst, a, b)
                });
                dag.add_edge(s, i, lat.max(1), EdgeKind::Mem);
            }
            loads_since_store.push(i);
        }
        if writes_mem {
            for &l in &loads_since_store {
                dag.add_edge(l, i, 1, EdgeKind::Mem);
            }
            if let Some(s) = last_store {
                dag.add_edge(s, i, 1, EdgeKind::Mem);
            }
            loads_since_store.clear();
            last_store = Some(i);
        }

        // A call is a full barrier for everything threaded after it:
        // the callee clobbers caller-save registers, memory, and any
        // temporal pipeline state (its own chain sub-ops advance the
        // clocks and overwrite the latches), and — subtler — any
        // later instruction scheduled within `slots` cycles of the
        // call lands in its architectural delay-slot window and
        // executes *before* the transfer. Data edges only cover
        // instructions that touch the call's declared operands, so an
        // independent instruction (say, loading an address into a
        // caller-save register) could otherwise drift into the
        // window. The explicit edge keeps every successor out; the
        // stretch loop below widens it past the delay slots. (The
        // control edges added below keep *pre*-call instructions from
        // sinking past one.)
        if let Some(c) = last_call {
            dag.add_edge(c, i, 1, EdgeKind::Order);
        }
        if t.effects.is_call {
            last_call = Some(i);
        }

        if t.effects.is_control() {
            // Control transfers come after everything before them in
            // the thread; a second transfer (the fall-through goto)
            // stays behind the first by its delay-slot distance.
            for j in 0..i {
                dag.add_edge(j, i, 0, EdgeKind::Order);
            }
            if let Some(c) = last_control {
                let prev = machine.template(block.insts[c].template);
                dag.add_edge(c, i, 1 + prev.slots.unsigned_abs(), EdgeKind::Order);
            }
            last_control = Some(i);
        }
    }
    // Nothing ordered after a call may land in its delay slots: it
    // would execute before the callee runs (and could clobber the
    // just-written return address). Stretch every edge leaving a call
    // past the slots.
    for e in &mut dag.edges {
        let pt = machine.template(block.insts[e.from].template);
        if pt.effects.is_call {
            e.latency = e.latency.max(1 + pt.slots.unsigned_abs());
        }
    }
    dag
}

/// A temporal sequence: a maximal chain of nodes connected by
/// temporal edges on one clock.
#[derive(Debug, Clone)]
pub struct TemporalSequence {
    /// The clock the sequence is based on.
    pub clock: ClockId,
    /// Member instruction indices, in dependence order.
    pub members: Vec<usize>,
    /// The sequence head (first member).
    pub head: usize,
}

/// Finds the temporal sequences of a DAG.
pub fn temporal_sequences(dag: &CodeDag) -> Vec<TemporalSequence> {
    // Union nodes connected by temporal edges of the same clock.
    let mut seqs: Vec<TemporalSequence> = Vec::new();
    let mut member_of: HashMap<(usize, ClockId), usize> = HashMap::new();
    for e in &dag.edges {
        let EdgeKind::TrueTemporal(k) = e.kind else {
            continue;
        };
        let from_seq = member_of.get(&(e.from, k)).copied();
        let to_seq = member_of.get(&(e.to, k)).copied();
        match (from_seq, to_seq) {
            (None, None) => {
                let id = seqs.len();
                seqs.push(TemporalSequence {
                    clock: k,
                    members: vec![e.from, e.to],
                    head: e.from,
                });
                member_of.insert((e.from, k), id);
                member_of.insert((e.to, k), id);
            }
            (Some(s), None) => {
                seqs[s].members.push(e.to);
                member_of.insert((e.to, k), s);
            }
            (None, Some(s)) => {
                seqs[s].members.push(e.from);
                member_of.insert((e.from, k), s);
                if seqs[s].head == e.to {
                    seqs[s].head = e.from;
                }
            }
            (Some(a), Some(b)) if a != b => {
                // Merge b into a.
                let b_members = std::mem::take(&mut seqs[b].members);
                for m in &b_members {
                    member_of.insert((*m, k), a);
                }
                let b_head = seqs[b].head;
                seqs[a].members.extend(b_members);
                if b_head != e.to {
                    // Keep the earlier head.
                    let a_head = seqs[a].head;
                    if dag.reaches(b_head, a_head) {
                        seqs[a].head = b_head;
                    }
                }
            }
            _ => {}
        }
    }
    seqs.retain(|s| !s.members.is_empty());
    for s in &mut seqs {
        s.members.sort_unstable();
        // Head: the member with no incoming temporal edge on the clock
        // from another member.
        s.head = *s
            .members
            .iter()
            .find(|&&m| {
                !dag.preds[m].iter().any(|&ei| {
                    let e = dag.edges[ei];
                    matches!(e.kind, EdgeKind::TrueTemporal(k) if k == s.clock)
                        && s.members.contains(&e.from)
                })
            })
            .unwrap_or(&s.members[0]);
    }
    seqs
}

/// Adds protection edges for every alternate entry into a temporal
/// sequence (paper §4.6, Figure 6): if an ancestor of the entry
/// affects the sequence's clock, an edge is added from that ancestor
/// to the sequence head, forcing it to schedule first — unless the
/// edge would close a cycle.
///
/// Cost: per sequence, one walk over the head's descendants, one walk
/// over the ancestors of all its entries together (a `seen` set shared
/// across entries, so each candidate comes up once, in first-occurrence
/// order), and one more descendant walk that answers the cycle check
/// of every candidate it contributes: O(s·(n + e)) for `s` sequences,
/// with no search per candidate edge.
fn protect_temporal_sequences(machine: &Machine, block: &CodeBlock, dag: &mut CodeDag) {
    let seqs = temporal_sequences(dag);
    if seqs.is_empty() {
        return;
    }
    let affects: Vec<Option<ClockId>> = block
        .insts
        .iter()
        .map(|inst| machine.template(inst.template).affects_clock)
        .collect();
    // Candidate (ancestor, head) edges, one run per sequence. The DAG
    // is not mutated until every candidate is collected, so a
    // sequence's head descendants are computed once and an ancestor
    // already below the head (which would close a cycle) is skipped by
    // a flag lookup.
    let mut new_edges: Vec<(usize, usize)> = Vec::new();
    let mut member_set = vec![false; dag.n];
    let mut head_desc = vec![false; dag.n];
    let mut seen = vec![false; dag.n];
    let mut stack: Vec<usize> = Vec::new();
    for seq in &seqs {
        member_set.fill(false);
        for &m in &seq.members {
            member_set[m] = true;
        }
        mark_descendants(dag, seq.head, &mut head_desc, &mut stack);
        seen.fill(false);
        for &x in &seq.members {
            if x == seq.head {
                continue;
            }
            // Alternate entries: non-temporal predecessors from
            // outside the sequence. An entry already seen is an
            // ancestor of an earlier one, and so are all its own
            // ancestors.
            for &ei in &dag.preds[x] {
                let y = dag.edges[ei].from;
                if member_set[y] || seen[y] {
                    continue;
                }
                // Walk backward from the entry, collecting ancestors
                // (including the entry itself).
                seen[y] = true;
                stack.push(y);
                while let Some(a) = stack.pop() {
                    if affects[a] == Some(seq.clock) && !member_set[a] && !head_desc[a] {
                        // The dashed (p, q) edge of Figure 6.
                        new_edges.push((a, seq.head));
                    }
                    for &ei in &dag.preds[a] {
                        let p = dag.edges[ei].from;
                        if !seen[p] {
                            seen[p] = true;
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }
    // Materialise the protection edges one at a time, dropping any
    // that would close a cycle. The `head_desc` guard above only
    // checked each edge against the *original* DAG; two overlapped
    // sequences on the same clock can each nominate the other's head
    // (13 → 19 and 19 → 13, say), and while neither edge alone cycles,
    // the pair does — and a cyclic DAG is unsatisfiable by any
    // schedule. The paper's "unless it would create a cycle" applies
    // to the DAG as the edges accumulate, so each run of candidates
    // re-reads its head's descendants from the growing graph, keeping
    // whichever edge came first. One walk serves the whole run: an
    // edge into the head cannot add to the head's descendants without
    // closing a cycle.
    let mut run_head = None;
    for (from, to) in new_edges {
        if run_head != Some(to) {
            run_head = Some(to);
            mark_descendants(dag, to, &mut head_desc, &mut stack);
        }
        if !head_desc[from] {
            dag.add_edge(from, to, 1, EdgeKind::Order);
        }
    }
}

/// Sets `mark` to exactly `root` and the nodes reachable from it;
/// `stack` is scratch space, left empty.
fn mark_descendants(dag: &CodeDag, root: usize, mark: &mut [bool], stack: &mut Vec<usize>) {
    mark.fill(false);
    mark[root] = true;
    stack.push(root);
    while let Some(i) = stack.pop() {
        for &ei in &dag.succs[i] {
            let t = dag.edges[ei].to;
            if !mark[t] {
                mark[t] = true;
                stack.push(t);
            }
        }
    }
}

/// Fallback for pathological interleavings: serialises temporal
/// sequences that share a clock (tail of the earlier sequence before
/// the head of the later one). The resulting schedule forgoes EAP
/// overlap for this block but can never deadlock on Rule 1. Edges
/// that would create a cycle are skipped.
pub fn serialize_same_clock_sequences(dag: &mut CodeDag) {
    let seqs = temporal_sequences(dag);
    let mut by_clock: HashMap<ClockId, Vec<&TemporalSequence>> = HashMap::new();
    for s in &seqs {
        by_clock.entry(s.clock).or_default().push(s);
    }
    // Iterate clocks in id order: HashMap order would make the edge
    // insertion order (hence edge indices and succ-list order) vary
    // run to run.
    let mut clocks: Vec<ClockId> = by_clock.keys().copied().collect();
    clocks.sort_by_key(|k| k.0);
    let mut new_edges: Vec<(usize, usize)> = Vec::new();
    for k in clocks {
        let list = by_clock.get_mut(&k).expect("clock key from by_clock");
        list.sort_by_key(|s| s.members.iter().min().copied().unwrap_or(0));
        for pair in list.windows(2) {
            let tail = *pair[0].members.iter().max().unwrap();
            let head = pair[1].head;
            if !dag.reaches(head, tail) {
                new_edges.push((tail, head));
            }
        }
    }
    for (from, to) in new_edges {
        dag.add_edge(from, to, 1, EdgeKind::Order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeFunc, ImmVal, VregKind};
    use marion_maril::{Machine, RegClassId};

    const TOY: &str = r#"
        declare {
            %reg r[0:7] (int);
            %resource IF; ID; IE; IA; IW;
            %def const16 [-32768:32767];
            %label rlab [-32768:32767] +relative;
            %memory m[0:2147483647];
        }
        cwvm { %general (int) r; %allocable r[1:5]; %sp r[7] +down; %fp r[6] +down; %retaddr r[1]; }
        instr {
            %instr add r, r, r (int) {$1 = $2 + $3;} [IF; ID; IE; IA; IW;] (1,1,0)
            %instr ld r, r, #const16 (int) {$1 = m[$2+$3];} [IF; ID; IE; IA; IW;] (1,3,0)
            %instr st r, r, #const16 (int) {m[$2+$3] = $1;} [IF; ID; IE; IA; IW;] (1,1,0)
            %instr beq0 r, #rlab {if ($1 == 0) goto $2;} [IF; ID; IE;] (1,2,1)
            %aux ld : st (1.$1 == 2.$1) (5)
        }
    "#;

    fn toy() -> Machine {
        Machine::parse("toy", TOY).unwrap()
    }

    fn inst(m: &Machine, mnem: &str, ops: Vec<Operand>) -> Inst {
        Inst::new(m.template_by_mnemonic(mnem).unwrap(), ops)
    }

    fn v(n: u32) -> Operand {
        Operand::Vreg(Vreg(n))
    }

    fn imm(c: i64) -> Operand {
        Operand::Imm(ImmVal::Const(c))
    }

    fn func_with(_m: &Machine, insts: Vec<Inst>) -> (CodeFunc, CodeBlock) {
        let mut f = CodeFunc::new("t");
        for _ in 0..10 {
            f.new_vreg(RegClassId(0), VregKind::Local);
        }
        let block = CodeBlock {
            insts,
            succs: vec![],
        };
        (f, block)
    }

    #[test]
    fn true_dependence_labelled_with_latency() {
        let m = toy();
        // t1 = ld t0, 0 ; t2 = add t1, t1
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "add", vec![v(2), v(1), v(1)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        let e = dag
            .edges
            .iter()
            .find(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::True)
            .expect("true edge");
        assert_eq!(e.latency, 3, "load latency");
    }

    #[test]
    fn aux_override_applies_when_condition_holds() {
        let m = toy();
        // ld t1, [t0+0]; st t1, [t2+0] — operand 1 of ld == operand 1 of st.
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "st", vec![v(1), v(2), imm(0)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        let e = dag
            .edges
            .iter()
            .find(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::True)
            .expect("true edge");
        assert_eq!(e.latency, 5, "aux latency override");
    }

    #[test]
    fn memory_edges_order_store_load() {
        let m = toy();
        let insts = vec![
            inst(&m, "st", vec![v(1), v(0), imm(0)]),
            inst(&m, "ld", vec![v(2), v(0), imm(4)]),
            inst(&m, "st", vec![v(3), v(0), imm(8)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::Mem));
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.kind == EdgeKind::Mem));
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 2 && e.kind == EdgeKind::Mem));
    }

    #[test]
    fn anti_and_output_edges_on_redefinition() {
        let m = toy();
        // t2 = add t0, t1 ; t0 = add t3, t4 (anti: 0->1), t0 = add t5, t6 (output: 1->2)
        let insts = vec![
            inst(&m, "add", vec![v(2), v(0), v(1)]),
            inst(&m, "add", vec![v(0), v(3), v(4)]),
            inst(&m, "add", vec![v(0), v(5), v(6)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::Anti));
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.kind == EdgeKind::Output));
    }

    #[test]
    fn branch_is_ordered_last() {
        let m = toy();
        let insts = vec![
            inst(&m, "add", vec![v(1), v(0), v(0)]),
            inst(&m, "add", vec![v(2), v(0), v(0)]),
            inst(
                &m,
                "beq0",
                vec![v(1), Operand::Block(marion_ir::BlockId(1))],
            ),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        assert!(dag.edges.iter().any(|e| e.from == 0 && e.to == 2));
        assert!(dag.edges.iter().any(|e| e.from == 1 && e.to == 2));
    }

    #[test]
    fn critical_path_accumulates_latencies() {
        let m = toy();
        // ld (lat 3) -> add (lat 1) -> add
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "add", vec![v(2), v(1), v(1)]),
            inst(&m, "add", vec![v(3), v(2), v(2)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        let cp = dag.critical_path();
        assert_eq!(cp[0], 4);
        assert_eq!(cp[1], 1);
        assert_eq!(cp[2], 0);
    }

    const EAP: &str = r#"
        declare {
            %reg d[0:7] (double);
            %resource M1; M2; FWB; ALU;
            %clock clk_m;
            %reg m1 (double; clk_m) +temporal;
            %reg m2 (double; clk_m) +temporal;
        }
        cwvm { %general (double) d; }
        instr {
            %instr M1 d, d (double; clk_m) {m1 = $1 * $2;} [M1;] (1,1,0)
            %instr M2 (double; clk_m) {m2 = m1;} [M2;] (1,1,0)
            %instr FWB d (double; clk_m) {$1 = m2;} [FWB;] (1,1,0)
            %instr dadd d, d, d (double) {$1 = $2 + $3;} [ALU;] (1,1,0)
        }
    "#;

    fn eap_machine() -> Machine {
        Machine::parse("eap", EAP).unwrap()
    }

    #[test]
    fn temporal_edges_and_sequences() {
        let m = eap_machine();
        // M1 d0, d1 ; M2 ; FWB d2 — one sequence on clk_m.
        let insts = vec![
            inst(&m, "M1", vec![v(0), v(1)]),
            inst(&m, "M2", vec![]),
            inst(&m, "FWB", vec![v(2)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        let temporal: Vec<&Edge> = dag
            .edges
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::TrueTemporal(_)))
            .collect();
        assert_eq!(temporal.len(), 2, "{temporal:?}");
        let seqs = temporal_sequences(&dag);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].head, 0);
        assert_eq!(seqs[0].members, vec![0, 1, 2]);
    }

    /// A machine with a *chained* sub-operation: `C` reads latch `t1`
    /// and a register, writing latch `t2` (like the i860 add pipe
    /// taking the multiplier output).
    const CHAIN: &str = r#"
        declare {
            %reg d[0:7] (double);
            %resource RL; RC; RW;
            %clock k;
            %reg t1 (double; k) +temporal;
            %reg t2 (double; k) +temporal;
        }
        cwvm { %general (double) d; }
        instr {
            %instr L d, d (double; k) {t1 = $1 * $2;} [RL;] (1,1,0)
            %instr C d (double; k) {t2 = t1 + $1;} [RC;] (1,1,0)
            %instr W d (double; k) {$1 = t2;} [RW;] (1,1,0)
        }
    "#;

    #[test]
    fn fig6_protection_edge_added() {
        // Figure 6's deadlock shape, realised with chaining:
        //   T: j0 = L v4,v5 ; j1 = C v6 ; j2 = W v2
        //   S: i0 = L v0,v1 ; i1 = C v2 ; i2 = W v3
        // i1 (a non-head member of S) truly depends on j2, which
        // affects clock k. Without the dashed protection edge
        // (j2 -> i0), scheduling i0 between j1 and j2 deadlocks:
        // j2 then may not be scheduled before i1 (Rule 1), but must
        // precede it. Protection adds an edge from j2 (an ancestor of
        // the alternate entry that affects k) to S's head i0.
        let m = Machine::parse("chain", CHAIN).unwrap();
        let insts = vec![
            inst(&m, "L", vec![v(4), v(5)]), // j0
            inst(&m, "C", vec![v(6)]),       // j1
            inst(&m, "W", vec![v(2)]),       // j2 — defines v2
            inst(&m, "L", vec![v(0), v(1)]), // i0, head of S
            inst(&m, "C", vec![v(2)]),       // i1 — alternate entry from j2
            inst(&m, "W", vec![v(3)]),       // i2
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        assert!(
            dag.edges
                .iter()
                .any(|e| e.from == 2 && e.to == 3 && e.latency >= 1),
            "protection edge (j2, i0) missing: {:?}",
            dag.edges
        );
    }

    #[test]
    fn chained_program_schedules_without_deadlock() {
        let m = Machine::parse("chain", CHAIN).unwrap();
        let insts = vec![
            inst(&m, "L", vec![v(4), v(5)]),
            inst(&m, "C", vec![v(6)]),
            inst(&m, "W", vec![v(2)]),
            inst(&m, "L", vec![v(0), v(1)]),
            inst(&m, "C", vec![v(2)]),
            inst(&m, "W", vec![v(3)]),
        ];
        let mut f = CodeFunc::new("t");
        let d = m.reg_class_by_name("d").unwrap();
        for _ in 0..10 {
            f.new_vreg(d, crate::code::VregKind::Local);
        }
        let block = CodeBlock {
            insts,
            succs: vec![],
        };
        let dag = build_dag(&m, &block, true);
        let s = crate::sched::schedule_block(
            &m,
            &f,
            &block,
            &dag,
            &crate::sched::SchedOptions::default(),
        )
        .unwrap();
        // Dependence order within each sequence holds.
        assert!(s.inst_cycle[0] < s.inst_cycle[1]);
        assert!(s.inst_cycle[1] < s.inst_cycle[2]);
        assert!(s.inst_cycle[3] < s.inst_cycle[4]);
        assert!(s.inst_cycle[4] < s.inst_cycle[5]);
        // The true dependence j2 -> i1 holds.
        assert!(s.inst_cycle[4] > s.inst_cycle[2]);
    }

    #[test]
    fn dedup_keeps_max_latency() {
        let m = toy();
        // Same operand used twice: one edge with max latency.
        let insts = vec![
            inst(&m, "ld", vec![v(1), v(0), imm(0)]),
            inst(&m, "add", vec![v(2), v(1), v(1)]),
        ];
        let (_f, block) = func_with(&m, insts);
        let dag = build_dag(&m, &block, true);
        let count = dag
            .edges
            .iter()
            .filter(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::True)
            .count();
        assert_eq!(count, 1);
    }
}
