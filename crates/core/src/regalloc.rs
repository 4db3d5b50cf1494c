//! Global register allocation by graph coloring (paper §2.2).
//!
//! The allocator follows Chaitin as refined by Briggs et al.:
//! interference is determined from the instruction order presented to
//! it, simplification is optimistic, and an uncolorable node is
//! spilled for its entire lifetime (load before every use, store
//! after every def) before the whole allocation is retried.
//!
//! Register *pairs* are handled at unit granularity via the
//! description's `%equiv` overlays: a 64-bit `d` register interferes
//! with both 32-bit registers it covers. Values live across calls
//! interfere with the caller-save registers and therefore gravitate
//! to callee-saves.
//!
//! Data layout: everything is dense-id indexed. The liveness key
//! universe is `0..nv` for virtual registers (`Vreg(v)` is bit `v`)
//! followed by `nv..nv+units` for physical register units, so
//! live-in/out/gen/kill are word-parallel [`BitSet`]s and the
//! dataflow fixpoint is a handful of `u64` loops per block. The
//! interference graph is built as a symmetric [`BitMatrix`] (O(1)
//! deduplicated edge insertion) and flattened to a [`Csr`] adjacency
//! array, so simplify/select/evict walk contiguous sorted neighbor
//! slices instead of rehashing per candidate.

use crate::code::*;
use crate::dense::{BitMatrix, BitSet, Csr};
use crate::error::{CodegenError, Phase};
use marion_maril::{Machine, PhysReg};
use marion_trace::Tracer;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Result of one allocation run.
#[derive(Debug, Clone, Default)]
pub struct AllocResult {
    /// Number of virtual registers spilled (total across retries).
    pub spills: usize,
    /// Callee-save registers the function ended up using (to be saved
    /// in the prologue).
    pub used_callee_saves: Vec<PhysReg>,
    /// Number of build/simplify/select iterations.
    pub rounds: usize,
    /// Interference-graph nodes on the first build (the original
    /// allocation problem, before any spill code was inserted).
    pub graph_nodes: usize,
    /// Interference-graph edges (vreg–vreg, undirected) on the first
    /// build.
    pub graph_edges: usize,
}

fn err(msg: impl Into<String>) -> CodegenError {
    CodegenError::new(Phase::RegAlloc, msg)
}

/// Allocates physical registers for `func`, inserting spill code as
/// needed. `extra_cost` biases spill choice (used by RASE's schedule
/// estimates: a high value makes a vreg *less* likely to spill).
///
/// # Errors
///
/// Fails when a class has no allocable registers, when spilling makes
/// no progress, or when the machine lacks spill load/store templates
/// for a class that needs them.
pub fn allocate(
    machine: &Machine,
    func: &mut CodeFunc,
    extra_cost: &HashMap<Vreg, f64>,
) -> Result<AllocResult, CodegenError> {
    allocate_traced(machine, func, extra_cost, &Tracer::off())
}

/// [`allocate`] with span profiling: the interference-graph build,
/// simplify/select coloring loops, eviction scans and spill rewrites
/// each fold into the tracer's call-tree profile (no-ops when the
/// tracer is off).
///
/// # Errors
///
/// Same failure modes as [`allocate`].
pub fn allocate_traced(
    machine: &Machine,
    func: &mut CodeFunc,
    extra_cost: &HashMap<Vreg, f64>,
    tracer: &Tracer,
) -> Result<AllocResult, CodegenError> {
    allocate_with(machine, func, extra_cost, tracer, spill_round)
}

/// Rewrites a function for one round's spill list.
type SpillRound = fn(&Machine, &mut CodeFunc, &[Vreg]) -> Result<(), CodegenError>;

/// The build/color/spill loop of [`allocate_traced`], with the spill
/// rewrite as a parameter so the tests can run whole allocations on
/// the per-vreg reference rewrite. Debug builds check every round of
/// `spill` against that reference.
fn allocate_with(
    machine: &Machine,
    func: &mut CodeFunc,
    extra_cost: &HashMap<Vreg, f64>,
    tracer: &Tracer,
    spill: SpillRound,
) -> Result<AllocResult, CodegenError> {
    let mut result = AllocResult::default();
    // Temporaries created by spilling have minimal live ranges and
    // must never themselves be spilled (that would loop forever).
    // Dense flag per vreg, grown as spill code mints new vregs.
    let mut no_spill: Vec<bool> = Vec::new();
    for round in 0..32 {
        result.rounds = round + 1;
        no_spill.resize(func.vregs.len(), false);
        let graph = {
            let _span = tracer.span("ig_build");
            build_interference(machine, func)
        };
        if round == 0 {
            result.graph_nodes = graph.nv;
            result.graph_edges = graph.adj.total_targets() / 2;
        }
        match color(machine, func, &graph, extra_cost, &no_spill, tracer)? {
            Coloring::Complete { colors } => {
                {
                    let _span = tracer.span("phys_rewrite");
                    rewrite(machine, func, &colors)?;
                }
                let mut saves: Vec<PhysReg> = Vec::new();
                for reg in colors.iter().flatten() {
                    for cs in &machine.cwvm().callee_save {
                        if machine.regs_overlap(*reg, *cs) && !saves.contains(cs) {
                            saves.push(*cs);
                        }
                    }
                }
                saves.sort();
                result.used_callee_saves = saves;
                return Ok(result);
            }
            Coloring::Spill(vregs) => {
                if vregs.is_empty() {
                    return Err(err("allocator failed without spill candidates"));
                }
                // A failing spill temporary must not be re-spilled (that
                // loops): evict a colourable neighbor instead, or give
                // up — the site is structurally over-committed.
                let _span = tracer.span("evict_scan");
                let mut to_spill: Vec<Vreg> = Vec::new();
                for v in vregs {
                    if !no_spill[v.0 as usize] {
                        if !to_spill.contains(&v) {
                            to_spill.push(v);
                        }
                        continue;
                    }
                    // Any neighbor whose class shares register units
                    // with ours frees colours when evicted (on TOYP a
                    // double blocks two integer registers).
                    let shares_units =
                        |a: marion_maril::RegClassId, b: marion_maril::RegClassId| {
                            let ca = machine.reg_class(a);
                            let cb = machine.reg_class(b);
                            let (a0, a1) = (ca.unit_base, ca.unit_base + ca.count * ca.unit_stride);
                            let (b0, b1) = (cb.unit_base, cb.unit_base + cb.count * cb.unit_stride);
                            a0 < b1 && b0 < a1
                        };
                    let neighbor = graph
                        .adj
                        .neighbors(v.0 as usize)
                        .iter()
                        .filter(|n| {
                            !no_spill[**n as usize]
                                && shares_units(func.vreg(Vreg(**n)).class, func.vreg(v).class)
                        })
                        .max_by_key(|n| {
                            // Tie-break on the vreg number so the victim
                            // choice is reproducible.
                            let d = graph.adj.degree(**n as usize);
                            (d, std::cmp::Reverse(**n))
                        })
                        .map(|n| Vreg(*n));
                    match neighbor {
                        Some(n) => {
                            if !to_spill.contains(&n) {
                                to_spill.push(n);
                            }
                        }
                        None => {
                            return Err(err(format!(
                                "no register can hold spill temporary {v} of class `{}`                                  (the machine is structurally over-committed at that point)",
                                machine.reg_class(func.vreg(v).class).name
                            )));
                        }
                    }
                }
                drop(_span);
                let _span = tracer.span("spill_rewrite");
                #[cfg(debug_assertions)]
                let before = func.clone();
                spill(machine, func, &to_spill)?;
                #[cfg(debug_assertions)]
                spill_reference::assert_round_matches(machine, before, func, &to_spill);
                // Every vreg the round minted is a spill temporary.
                no_spill.resize(func.vregs.len(), true);
                result.spills += to_spill.len();
            }
        }
    }
    Err(err("register allocation did not converge after 32 rounds"))
}

/// The interference graph plus loop-weighted occurrence costs, all
/// dense-id indexed by vreg number.
#[derive(Debug, Default)]
struct Graph {
    /// Vreg–vreg adjacency as sorted compressed rows.
    adj: Csr,
    /// Physical units each vreg must avoid: row `v`, column `unit`.
    phys: BitMatrix,
    /// Occurrence cost (def/use count weighted by loop depth).
    cost: Vec<f64>,
    /// Vregs live across at least one call.
    across_call: BitSet,
    /// Vregs that occur at all (have cost or an interference edge);
    /// only these need colors.
    occurs: BitSet,
    /// Number of vregs (dense universe width of the vreg part).
    nv: usize,
}

/// Appends the dense liveness ids of `op`: a vreg is its own number,
/// a physical register contributes `nv + unit` for each unit.
fn dense_ids_of_operand(machine: &Machine, nv: u32, op: &Operand, out: &mut Vec<u32>) {
    match op {
        Operand::Vreg(v) | Operand::VregHalf(v, _) => out.push(v.0),
        Operand::Phys(p) => out.extend(machine.units_of(*p).map(|u| nv + u)),
        _ => {}
    }
}

/// Collects the dense def/use id lists of one instruction.
fn inst_defs_uses_dense(
    machine: &Machine,
    nv: u32,
    inst: &Inst,
    defs: &mut Vec<u32>,
    uses: &mut Vec<u32>,
) {
    for op in inst.def_operands(machine) {
        dense_ids_of_operand(machine, nv, op, defs);
        // Writing half a register keeps the other half live.
        if let Operand::VregHalf(v, _) = op {
            uses.push(v.0);
        }
    }
    for op in inst.use_operands(machine) {
        dense_ids_of_operand(machine, nv, op, uses);
    }
    for p in &inst.extra_defs {
        defs.extend(machine.units_of(*p).map(|u| nv + u));
    }
    for p in &inst.extra_uses {
        uses.extend(machine.units_of(*p).map(|u| nv + u));
    }
}

/// Approximate loop depth per block: an edge to a lower-numbered block
/// is taken as a back edge `latch -> header`, and a block inside
/// `[header, latch]` is inside that loop. Our front end lays loops out
/// this way.
fn loop_depth(func: &CodeFunc) -> Vec<u32> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (bi, block) in func.blocks.iter().enumerate() {
        for succ in &block.succs {
            let h = succ.0 as usize;
            if h <= bi {
                spans.push((h, bi));
            }
        }
    }
    (0..func.blocks.len())
        .map(|bi| spans.iter().filter(|(h, l)| *h <= bi && bi <= *l).count() as u32)
        .collect()
}

fn build_interference(machine: &Machine, func: &CodeFunc) -> Graph {
    let nv = func.vregs.len();
    let nu = machine.unit_count() as usize;
    let nk = nv + nu;
    let nblocks = func.blocks.len();

    // Per-instruction dense def/use id lists, flattened once so the
    // gen/kill pass and the backward interference walk share them.
    let mut ids: Vec<u32> = Vec::new();
    let mut spans: Vec<(u32, u32, u32)> = Vec::new(); // (start, def_end, use_end)
    let mut block_first: Vec<usize> = Vec::with_capacity(nblocks + 1);
    let mut defs_tmp: Vec<u32> = Vec::new();
    let mut uses_tmp: Vec<u32> = Vec::new();
    for block in &func.blocks {
        block_first.push(spans.len());
        for inst in &block.insts {
            defs_tmp.clear();
            uses_tmp.clear();
            inst_defs_uses_dense(machine, nv as u32, inst, &mut defs_tmp, &mut uses_tmp);
            let start = ids.len() as u32;
            ids.extend_from_slice(&defs_tmp);
            let def_end = ids.len() as u32;
            ids.extend_from_slice(&uses_tmp);
            spans.push((start, def_end, ids.len() as u32));
        }
    }
    block_first.push(spans.len());

    // Backward liveness over the dense key universe.
    let mut gen: Vec<BitSet> = (0..nblocks).map(|_| BitSet::new(nk)).collect();
    let mut kill: Vec<BitSet> = (0..nblocks).map(|_| BitSet::new(nk)).collect();
    for bi in 0..nblocks {
        for &(start, def_end, use_end) in &spans[block_first[bi]..block_first[bi + 1]] {
            for &u in &ids[def_end as usize..use_end as usize] {
                if !kill[bi].contains(u as usize) {
                    gen[bi].insert(u as usize);
                }
            }
            for &d in &ids[start as usize..def_end as usize] {
                kill[bi].insert(d as usize);
            }
        }
    }
    let mut live_in: Vec<BitSet> = (0..nblocks).map(|_| BitSet::new(nk)).collect();
    let mut live_out: Vec<BitSet> = (0..nblocks).map(|_| BitSet::new(nk)).collect();
    let mut out = BitSet::new(nk);
    let mut inn = BitSet::new(nk);
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            out.clear();
            for succ in &func.blocks[bi].succs {
                out.union_with(&live_in[succ.0 as usize]);
            }
            // in = gen ∪ (out − kill), fused word-parallel.
            inn.assign_union_minus(&gen[bi], &out, &kill[bi]);
            if out != live_out[bi] || inn != live_in[bi] {
                live_out[bi].copy_from(&out);
                live_in[bi].copy_from(&inn);
                changed = true;
            }
        }
    }

    let depth = loop_depth(func);
    let mut adj = BitMatrix::new(nv, nv);
    let mut phys = BitMatrix::new(nv, nu);
    let mut cost = vec![0.0f64; nv];
    let mut across_call = BitSet::new(nv.max(1));
    let mut occurs = BitSet::new(nv.max(1));
    let mut add_conflict = |a: u32, b: u32, adj: &mut BitMatrix, occurs: &mut BitSet| {
        let (a, b) = (a as usize, b as usize);
        if a < nv && b < nv {
            if a != b {
                adj.set(a, b);
                adj.set(b, a);
                occurs.insert(a);
                occurs.insert(b);
            }
        } else if a < nv {
            phys.set(a, b - nv);
        } else if b < nv {
            phys.set(b, a - nv);
        }
    };

    let mut live = BitSet::new(nk);
    for (bi, block) in func.blocks.iter().enumerate() {
        let weight = 10f64.powi(depth[bi].min(4) as i32);
        live.copy_from(&live_out[bi]);
        for si in (block_first[bi]..block_first[bi + 1]).rev() {
            let (start, def_end, use_end) = spans[si];
            let defs = &ids[start as usize..def_end as usize];
            let uses = &ids[def_end as usize..use_end as usize];
            let inst = &block.insts[si - block_first[bi]];
            let is_call = machine.template(inst.template).effects.is_call;
            for &d in defs {
                if (d as usize) < nv {
                    cost[d as usize] += weight;
                    occurs.insert(d as usize);
                }
                for l in live.iter() {
                    if l != d as usize {
                        add_conflict(d, l as u32, &mut adj, &mut occurs);
                    }
                }
            }
            // Defs of the same instruction conflict with each other.
            for (i, a) in defs.iter().enumerate() {
                for b in &defs[i + 1..] {
                    add_conflict(*a, *b, &mut adj, &mut occurs);
                }
            }
            if is_call {
                for l in live.iter() {
                    if l < nv {
                        across_call.insert(l);
                    }
                }
            }
            for &d in defs {
                live.remove(d as usize);
            }
            for &u in uses {
                if (u as usize) < nv {
                    cost[u as usize] += weight;
                    occurs.insert(u as usize);
                }
                live.insert(u as usize);
            }
        }
    }
    Graph {
        adj: Csr::from_matrix(&adj),
        phys,
        cost,
        across_call,
        occurs,
        nv,
    }
}

enum Coloring {
    Complete { colors: Vec<Option<PhysReg>> },
    Spill(Vec<Vreg>),
}

fn color(
    machine: &Machine,
    func: &CodeFunc,
    graph: &Graph,
    extra_cost: &HashMap<Vreg, f64>,
    no_spill: &[bool],
    tracer: &Tracer,
) -> Result<Coloring, CodegenError> {
    // Colors-per-class, cached by class id.
    let k_by_class: Vec<usize> = (0..machine.reg_classes().len())
        .map(|ci| {
            machine
                .allocable_of_class(marion_maril::RegClassId(ci as u32))
                .len()
        })
        .collect();
    let k_of = |v: u32| -> usize { k_by_class[func.vreg(Vreg(v)).class.0 as usize] };
    // Only vregs that actually occur need colors.
    for v in graph.occurs.iter() {
        if k_of(v as u32) == 0 {
            return Err(err(format!(
                "class `{}` has no allocable registers",
                machine.reg_class(func.vreg(Vreg(v as u32)).class).name
            )));
        }
    }
    let occ_total = graph.occurs.len();

    // Simplify with optimistic push (Briggs). Degrees only decrease,
    // so the low-degree set grows monotonically: a min-id heap seeded
    // with the initially-low nodes and fed on each below-k crossing
    // yields exactly the lowest-numbered low-degree node each step.
    let _span = tracer.span("simplify");
    let mut degree: Vec<u32> = vec![0; graph.nv];
    let mut low: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    for v in graph.occurs.iter() {
        let d = graph.adj.degree(v) as u32;
        degree[v] = d;
        if (d as usize) < k_of(v as u32) {
            low.push(Reverse(v as u32));
        }
    }
    let mut stack: Vec<u32> = Vec::with_capacity(occ_total);
    let mut removed: Vec<bool> = vec![false; graph.nv];
    let mut removed_cnt = 0usize;
    // Spill weight per vreg — cost plus the caller's bias, plus 1e12
    // for spill temporaries — built on the first optimistic pick: a
    // pick reads it for every remaining node.
    let mut spill_weight: Vec<f64> = Vec::new();
    while removed_cnt < occ_total {
        let next_low = loop {
            match low.pop() {
                Some(Reverse(v)) if removed[v as usize] => continue,
                Some(Reverse(v)) => break Some(v),
                None => break None,
            }
        };
        let chosen = match next_low {
            Some(v) => v,
            None => {
                // Optimistic spill candidate: lowest cost/degree, in
                // vreg order with first-minimum-wins. Spill-generated
                // temporaries are strongly avoided.
                if spill_weight.is_empty() {
                    spill_weight = (0..graph.nv)
                        .map(|v| {
                            let mut c = graph.cost[v]
                                + extra_cost.get(&Vreg(v as u32)).copied().unwrap_or(0.0);
                            if no_spill[v] {
                                c += 1e12;
                            }
                            c
                        })
                        .collect();
                }
                let mut best: Option<(f64, u32)> = None;
                for v in graph.occurs.iter() {
                    if removed[v] {
                        continue;
                    }
                    let d = degree[v].max(1) as f64;
                    let metric = spill_weight[v] / d;
                    if best.is_none_or(|(m, _)| metric < m) {
                        best = Some((metric, v as u32));
                    }
                }
                best.map(|(_, v)| v).ok_or_else(|| err("empty worklist"))?
            }
        };
        removed[chosen as usize] = true;
        removed_cnt += 1;
        stack.push(chosen);
        for &n in graph.adj.neighbors(chosen as usize) {
            if !removed[n as usize] {
                let d = degree[n as usize];
                degree[n as usize] = d - 1;
                // Crossed from ≥k to <k: now simplifiable.
                if d as usize == k_of(n) {
                    low.push(Reverse(n));
                }
            }
        }
    }

    // Select. The candidate preference orders are per-class
    // invariants, so they are computed once per class (lazily, first
    // use) instead of being re-sorted per node: one order preferring
    // caller-saves (for values not live across calls) and one
    // preferring callee-saves, each candidate carrying its contiguous
    // unit range. Per node the forbidden units — the precolored row
    // plus every colored neighbor's units — are gathered into one
    // bitset, so the candidate scan is O(candidates · width) bit
    // probes instead of O(candidates · neighbors) overlap tests.
    drop(_span);
    let _span = tracer.span("select_colors");
    let nunits = machine.unit_count() as usize;
    type Order = Vec<(PhysReg, u32, u32)>;
    // [caller-save-first, callee-save-first] per class id.
    let mut orders: Vec<Option<[Order; 2]>> = vec![None; machine.reg_classes().len()];
    let mut forbidden = BitSet::new(nunits);
    let mut colors: Vec<Option<PhysReg>> = vec![None; graph.nv];
    let mut spilled: Vec<Vreg> = Vec::new();
    while let Some(v) = stack.pop() {
        let class = func.vreg(Vreg(v)).class;
        let ci = class.0 as usize;
        if orders[ci].is_none() {
            // Values live across calls prefer callee-saves; leaves
            // prefer caller-saves (so calls need no saves around
            // them). The sorts are stable, so ties keep CWVM order.
            let is_callee_save = |r: &PhysReg| {
                machine
                    .cwvm()
                    .callee_save
                    .iter()
                    .any(|cs| machine.regs_overlap(*r, *cs))
            };
            let base: Vec<(PhysReg, bool)> = machine
                .allocable_of_class(class)
                .into_iter()
                .map(|r| (r, is_callee_save(&r)))
                .collect();
            let ranged = |src: &[(PhysReg, bool)]| -> Order {
                src.iter()
                    .map(|(r, _)| {
                        let (s, e) = machine.unit_range(*r);
                        (*r, s, e)
                    })
                    .collect()
            };
            let mut caller_first = base.clone();
            caller_first.sort_by_key(|(r, cs)| (*cs, r.index));
            let mut callee_first = base;
            callee_first.sort_by_key(|(r, cs)| (!*cs, r.index));
            orders[ci] = Some([ranged(&caller_first), ranged(&callee_first)]);
        }
        let pair = orders[ci].as_ref().unwrap();
        let order = &pair[usize::from(graph.across_call.contains(v as usize))];
        // Precolored conflicts; a value live across a call must not
        // sit in a caller-save register, but the call's extra_defs
        // already created phys conflicts, so that is covered here.
        forbidden.clear();
        for u in graph.phys.row_iter(v as usize) {
            forbidden.insert(u);
        }
        // Colored neighbors (unit overlap).
        for &n in graph.adj.neighbors(v as usize) {
            if let Some(nc) = colors[n as usize] {
                let (s, e) = machine.unit_range(nc);
                for u in s..e {
                    forbidden.insert(u as usize);
                }
            }
        }
        let choice = order
            .iter()
            .find(|(_, s, e)| (*s..*e).all(|u| !forbidden.contains(u as usize)))
            .map(|(r, _, _)| *r);
        match choice {
            Some(c) => colors[v as usize] = Some(c),
            None => spilled.push(Vreg(v)),
        }
    }
    if spilled.is_empty() {
        Ok(Coloring::Complete { colors })
    } else {
        Ok(Coloring::Spill(spilled))
    }
}

/// Rewrites every vreg operand to its physical register.
fn rewrite(
    machine: &Machine,
    func: &mut CodeFunc,
    colors: &[Option<PhysReg>],
) -> Result<(), CodegenError> {
    let vreg_classes: Vec<marion_maril::RegClassId> = func.vregs.iter().map(|i| i.class).collect();
    // Resolve half-references: half i of vreg v is the i-th
    // single-unit register overlapping v's color.
    let half_of = |p: PhysReg, h: u8| -> Result<PhysReg, CodegenError> {
        let units: Vec<u32> = machine.units_of(p).collect();
        let want = *units.get(h as usize).ok_or_else(|| {
            err(format!(
                "register {}{} (class `{}`) has no half {h}",
                machine.reg_class(p.class).name,
                p.index,
                machine.reg_class(p.class).name
            ))
        })?;
        for (ci, c) in machine.reg_classes().iter().enumerate() {
            if c.unit_width == 1 {
                for r in 0..c.count {
                    if c.unit_base + r * c.unit_stride == want {
                        return Ok(PhysReg::new(marion_maril::RegClassId(ci as u32), r));
                    }
                }
            }
        }
        Err(err("no single-unit class overlaps this register"))
    };
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            for op in &mut inst.ops {
                match *op {
                    Operand::Vreg(v) => {
                        let c = colors[v.0 as usize]
                            .ok_or_else(|| err(format!("vreg {v} left uncolored")))?;
                        *op = Operand::Phys(c);
                    }
                    Operand::VregHalf(v, h) => {
                        let c = colors[v.0 as usize]
                            .ok_or_else(|| err(format!("vreg {v} left uncolored")))?;
                        *op = Operand::Phys(half_of(c, h).map_err(|e| {
                            err(format!(
                                "{e} (half of {v}, class `{}`)",
                                machine.reg_class(vreg_classes[v.0 as usize]).name
                            ))
                        })?);
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Recognises a spill run that is a pure register copy between `v`
/// and exactly one physical register of `v`'s class. Returns that
/// register and whether `v` is the source.
///
/// The composed register must belong to `class` (the spilled vreg's
/// own class): a lone half-move — an escape pair split apart by
/// pre-allocation scheduling — composes a single-unit register of the
/// *overlay* class, and transferring through it with the full-width
/// spill template would store the wrong class at the wrong width.
/// Such runs take the general read-modify-write path instead.
fn pure_copy_run(
    machine: &Machine,
    run: &[Inst],
    v: Vreg,
    class: marion_maril::RegClassId,
) -> Option<(PhysReg, bool)> {
    let mut phys_units: Vec<u32> = Vec::new();
    let mut v_source: Option<bool> = None;
    for inst in run {
        let t = machine.template(inst.template);
        // Must be a plain `$a = $b` move shape.
        let (a, b) = match t.sem.as_slice() {
            [marion_maril::expr::Stmt::Assign(
                marion_maril::expr::LValue::Operand(a),
                marion_maril::Expr::Operand(b),
            )] => (*a, *b),
            _ => return None,
        };
        let dst = inst.ops.get((a - 1) as usize)?;
        let src = inst.ops.get((b - 1) as usize)?;
        let (phys_op, this_v_source) = match (dst, src) {
            (Operand::Phys(p), Operand::Vreg(x) | Operand::VregHalf(x, _)) if *x == v => (*p, true),
            (Operand::Vreg(x) | Operand::VregHalf(x, _), Operand::Phys(p)) if *x == v => {
                (*p, false)
            }
            _ => return None,
        };
        if *v_source.get_or_insert(this_v_source) != this_v_source {
            return None;
        }
        phys_units.extend(machine.units_of(phys_op));
    }
    let v_source = v_source?;
    // The physical units must exactly compose one register of a class
    // that the spill load/store for `v` can address; search every
    // class for it.
    phys_units.sort_unstable();
    phys_units.dedup();
    let c = &machine.reg_classes()[class.0 as usize];
    for r in 0..c.count {
        let reg = PhysReg::new(class, r);
        let mut units: Vec<u32> = machine.units_of(reg).collect();
        units.sort_unstable();
        if units == phys_units {
            return Some((reg, v_source));
        }
    }
    None
}

/// Per-position marks of a spill round (see [`spill_round`]).
const DELETED: u8 = 1;
const LOAD_BEFORE: u8 = 2;
const STORE_AFTER: u8 = 4;

/// One spill-code insertion of a round: the instruction goes directly
/// before (`after == false`) or after block `block`'s instruction
/// `pos`; `rank` is the spilled vreg's place in the round's list.
struct Insert {
    block: u32,
    pos: u32,
    after: bool,
    rank: u32,
    inst: Inst,
}

/// Whether `inst` names `v` (only as a half-register operand when
/// `half_only`).
fn mentions(inst: &Inst, v: Vreg, half_only: bool) -> bool {
    inst.ops.iter().any(|op| match op {
        Operand::VregHalf(x, _) => *x == v,
        Operand::Vreg(x) => !half_only && *x == v,
        _ => false,
    })
}

/// Spills every vreg of `to_spill`: each gets a slot, a load before
/// each use and a store after each def, its occurrences rewritten to
/// fresh one-shot temporaries (a run that only copies to or from one
/// physical register transfers it directly; see [`pure_copy_run`]).
///
/// The result is exactly that of spilling the vregs one at a time in
/// list order — the same temporaries, slots and instruction order —
/// but one walk indexes every occurrence, each vreg's rewrite visits
/// only its own occurrences, and each touched block is rebuilt once.
/// Applying the rewrites in list order reproduces the one-at-a-time
/// layout: a later vreg's load goes directly before its instruction,
/// after the loads earlier vregs put there, and its store directly
/// after, ahead of theirs; a half-register run extends only across
/// positions nothing was inserted between; and a pure-copy run is
/// replaced in place. A round costs one pass over the function plus
/// O(occurrences · log occurrences); spilling one vreg at a time
/// (`spill_reference::spill_vreg`) costs a pass per spilled vreg.
fn spill_round(
    machine: &Machine,
    func: &mut CodeFunc,
    to_spill: &[Vreg],
) -> Result<(), CodegenError> {
    // Templates and slots, allocated (and failing) in list order.
    let mut sp = None;
    let mut spills = Vec::with_capacity(to_spill.len());
    for &v in to_spill {
        let class = func.vreg(v).class;
        let missing = |what: &str| {
            err(format!(
                "no spill {what} for class `{}`",
                machine.reg_class(class).name
            ))
        };
        let load = machine.spill_load(class).ok_or_else(|| missing("load"))?;
        let store = machine.spill_store(class).ok_or_else(|| missing("store"))?;
        sp = Some(
            machine
                .cwvm()
                .sp
                .ok_or_else(|| err("machine declares no stack pointer"))?,
        );
        let slot = func.new_spill_slot() as i64;
        spills.push((v, class, load, store, slot));
    }
    let Some(sp) = sp else {
        return Ok(());
    };

    // One walk: (rank, block, position) of every spilled occurrence,
    // and each block's first index into the per-position marks.
    let mut rank = vec![u32::MAX; func.vregs.len()];
    for (k, v) in to_spill.iter().enumerate() {
        rank[v.0 as usize] = k as u32;
    }
    let mut occ: Vec<(u32, u32, u32)> = Vec::new();
    let mut base: Vec<usize> = Vec::with_capacity(func.blocks.len());
    let mut total = 0;
    for (b, block) in func.blocks.iter().enumerate() {
        base.push(total);
        total += block.insts.len();
        for (p, inst) in block.insts.iter().enumerate() {
            for op in &inst.ops {
                if let Operand::Vreg(x) | Operand::VregHalf(x, _) = op {
                    let k = rank[x.0 as usize];
                    if k != u32::MAX {
                        occ.push((k, b as u32, p as u32));
                    }
                }
            }
        }
    }
    occ.sort_unstable();
    occ.dedup();

    let mut marks = vec![0u8; total];
    let mut dirty = vec![false; func.blocks.len()];
    let mut inserts: Vec<Insert> = Vec::new();
    let mut next = 0;
    for (k, &(v, class, load, store, slot)) in spills.iter().enumerate() {
        let mem = |reg: Operand| vec![reg, Operand::Phys(sp), Operand::Imm(ImmVal::Const(slot))];
        // (block, end) of the last run, which consumes occurrences.
        let mut run = (u32::MAX, 0);
        while next < occ.len() && occ[next].0 == k as u32 {
            let (_, b, p) = occ[next];
            next += 1;
            if run.0 == b && p < run.1 {
                continue;
            }
            let (bi, start) = (b as usize, p as usize);
            let at = base[bi];
            let insts = &mut func.blocks[bi].insts;
            // An earlier vreg's pure-copy run may have replaced or
            // deleted the instruction.
            if marks[at + start] & DELETED != 0 || !mentions(&insts[start], v, false) {
                continue;
            }
            // One instruction per run, except half-register (escape
            // pair) sequences, which reload/store as one unit.
            let mut end = start + 1;
            if mentions(&insts[start], v, true) {
                while end < insts.len()
                    && marks[at + end - 1] & STORE_AFTER == 0
                    && marks[at + end] & (LOAD_BEFORE | DELETED) == 0
                    && mentions(&insts[end], v, true)
                {
                    end += 1;
                }
            }
            run = (b, end as u32);
            if let Some((phys, v_is_source)) = pure_copy_run(machine, &insts[start..end], v, class)
            {
                // phys := v loads phys from the slot; v := phys stores it.
                let t = if v_is_source { load } else { store };
                insts[start] = Inst::new(t, mem(Operand::Phys(phys)));
                for m in &mut marks[at + start + 1..at + end] {
                    *m |= DELETED;
                }
                dirty[bi] |= end > start + 1;
                continue;
            }
            let tmp = func.new_vreg(class, VregKind::Local);
            let names_v = |inst: &Inst, positions: &[u8]| {
                positions.iter().any(|k| {
                    matches!(inst.ops.get((*k - 1) as usize),
                        Some(Operand::Vreg(x) | Operand::VregHalf(x, _)) if *x == v)
                })
            };
            let (mut run_uses, mut run_defs, mut half) = (false, false, false);
            for inst in &mut func.blocks[bi].insts[start..end] {
                let effects = &machine.template(inst.template).effects;
                run_uses |= names_v(inst, &effects.uses);
                run_defs |= names_v(inst, &effects.defs);
                for op in &mut inst.ops {
                    match *op {
                        Operand::Vreg(x) if x == v => *op = Operand::Vreg(tmp),
                        Operand::VregHalf(x, h) if x == v => *op = Operand::VregHalf(tmp, h),
                        _ => {}
                    }
                }
                half |= inst
                    .ops
                    .iter()
                    .any(|op| matches!(op, Operand::VregHalf(..)));
            }
            let mut insert = |pos: usize, after: bool, t| {
                inserts.push(Insert {
                    block: b,
                    pos: pos as u32,
                    after,
                    rank: k as u32,
                    inst: Inst::new(t, mem(Operand::Vreg(tmp))),
                });
                marks[at + pos] |= if after { STORE_AFTER } else { LOAD_BEFORE };
                dirty[bi] = true;
            };
            // A run that writes only part of the register (one half)
            // must merge with the slot's existing contents.
            if run_uses || (run_defs && half) {
                insert(start, false, load);
            }
            if run_defs {
                insert(end - 1, true, store);
            }
        }
    }

    // Rebuild each touched block once: at every position, the loads in
    // list order, the instruction, then the stores in reverse order.
    inserts.sort_unstable_by_key(|s| {
        let order = if s.after { u32::MAX - s.rank } else { s.rank };
        (s.block, s.pos, s.after, order)
    });
    let mut inserts = inserts.into_iter().peekable();
    for (bi, block) in func.blocks.iter_mut().enumerate() {
        if !dirty[bi] {
            continue;
        }
        let at = base[bi];
        let old = std::mem::take(&mut block.insts);
        let mut insts = Vec::with_capacity(old.len());
        for (p, inst) in old.into_iter().enumerate() {
            let here = |s: &Insert, after: bool| {
                s.block as usize == bi && s.pos as usize == p && s.after == after
            };
            while let Some(s) = inserts.next_if(|s| here(s, false)) {
                insts.push(s.inst);
            }
            if marks[at + p] & DELETED == 0 {
                insts.push(inst);
            }
            while let Some(s) = inserts.next_if(|s| here(s, true)) {
                insts.push(s.inst);
            }
        }
        block.insts = insts;
    }
    Ok(())
}

/// The per-vreg spill rewrite that [`spill_round`] replaced, kept as
/// its reference model: spilling a round's vregs one at a time with
/// [`spill_reference::spill_vreg`] must leave the function exactly as
/// one [`spill_round`] does. Debug builds check this on every round
/// [`allocate`] runs (tests included), and the unit tests check it on
/// random functions.
#[cfg(any(test, debug_assertions))]
mod spill_reference {
    use super::*;

    /// Panics unless [`spill_round`]'s output `after` equals spilling
    /// `to_spill` one vreg at a time, in order, starting from `before`.
    pub(super) fn assert_round_matches(
        machine: &Machine,
        mut before: CodeFunc,
        after: &CodeFunc,
        to_spill: &[Vreg],
    ) {
        for &v in to_spill {
            spill_vreg(machine, &mut before, v).expect("the round itself succeeded");
        }
        assert!(
            before == *after,
            "spill round over {to_spill:?} differs from the per-vreg rewrite in `{}`",
            after.name
        );
    }

    /// Spills `to_spill` one vreg at a time: a [`SpillRound`].
    #[cfg(test)]
    pub(super) fn spill_each(
        machine: &Machine,
        func: &mut CodeFunc,
        to_spill: &[Vreg],
    ) -> Result<(), CodegenError> {
        to_spill
            .iter()
            .try_for_each(|&v| spill_vreg(machine, func, v))
    }

    /// Spills `v`: allocate a slot, load before each use, store after each
    /// def, rewriting occurrences to fresh one-shot temporaries.
    pub(super) fn spill_vreg(
        machine: &Machine,
        func: &mut CodeFunc,
        v: Vreg,
    ) -> Result<(), CodegenError> {
        let class = func.vreg(v).class;
        let load_t = machine.spill_load(class).ok_or_else(|| {
            err(format!(
                "no spill load for class `{}`",
                machine.reg_class(class).name
            ))
        })?;
        let store_t = machine.spill_store(class).ok_or_else(|| {
            err(format!(
                "no spill store for class `{}`",
                machine.reg_class(class).name
            ))
        })?;
        let sp = machine
            .cwvm()
            .sp
            .ok_or_else(|| err("machine declares no stack pointer"))?;
        let slot = func.new_spill_slot() as i64;
        let kind = func.vreg(v).kind;
        let _ = kind;

        for bi in 0..func.blocks.len() {
            // Blocks that never mention `v` keep their instruction list
            // untouched — no clone, no rebuild. Spilled vregs are almost
            // always block-local, so this skips nearly the whole function.
            if !func.blocks[bi].insts.iter().any(|inst| {
                inst.ops
                    .iter()
                    .any(|op| matches!(op, Operand::Vreg(x) | Operand::VregHalf(x, _) if *x == v))
            }) {
                continue;
            }
            // The old list is consumed in place: untouched instructions
            // move (not clone) into the rebuilt list.
            let mut insts: Vec<Option<Inst>> = std::mem::take(&mut func.blocks[bi].insts)
                .into_iter()
                .map(Some)
                .collect();
            let mut new_insts: Vec<Inst> = Vec::with_capacity(insts.len());
            // Group maximal runs of consecutive instructions touching `v`
            // (a `*func` escape writes a pair register with two adjacent
            // half-moves; the pair must be reloaded/stored as one unit).
            let mut i = 0;
            while i < insts.len() {
                let touches = |inst: &Inst| {
                    inst.ops.iter().any(
                        |op| matches!(op, Operand::Vreg(x) | Operand::VregHalf(x, _) if *x == v),
                    )
                };
                let touches_half = |inst: &Inst| {
                    inst.ops
                        .iter()
                        .any(|op| matches!(op, Operand::VregHalf(x, _) if *x == v))
                };
                if !touches(insts[i].as_ref().expect("instruction already consumed")) {
                    new_insts.push(insts[i].take().expect("instruction already consumed"));
                    i += 1;
                    continue;
                }
                // One instruction per run, except half-register (escape
                // pair) sequences, which must reload/store as one unit.
                // Merging arbitrary touching neighbours would keep the
                // temporary live through unrelated instructions and can
                // make tiny register files uncolourable.
                let mut j = i + 1;
                if touches_half(insts[i].as_ref().expect("instruction already consumed")) {
                    while j < insts.len()
                        && touches_half(insts[j].as_ref().expect("instruction already consumed"))
                    {
                        j += 1;
                    }
                }
                let run: Vec<Inst> = insts[i..j]
                    .iter_mut()
                    .map(|s| s.take().expect("instruction already consumed"))
                    .collect();
                // A run that merely copies between `v` and one physical
                // register (argument/result moves, including half-move
                // pairs from `*func` escapes) needs no temporary at all:
                // transfer directly between the spill slot and that
                // register. This is what keeps call boundaries colourable
                // on machines whose register pairs cover the whole file.
                if let Some((phys, v_is_source)) = pure_copy_run(machine, &run, v, class) {
                    if v_is_source {
                        // phys := v  ==>  load phys from the slot.
                        new_insts.push(Inst::new(
                            load_t,
                            vec![
                                Operand::Phys(phys),
                                Operand::Phys(sp),
                                Operand::Imm(ImmVal::Const(slot)),
                            ],
                        ));
                    } else {
                        // v := phys  ==>  store phys to the slot.
                        new_insts.push(Inst::new(
                            store_t,
                            vec![
                                Operand::Phys(phys),
                                Operand::Phys(sp),
                                Operand::Imm(ImmVal::Const(slot)),
                            ],
                        ));
                    }
                    i = j;
                    continue;
                }
                let tmp = func.new_vreg(class, VregKind::Local);
                let mut run_uses = false;
                let mut run_defs = false;
                let mut rewritten: Vec<Inst> = Vec::with_capacity(run.len());
                for mut inst in run {
                    let t = machine.template(inst.template);
                    for k in &t.effects.uses {
                        if let Some(Operand::Vreg(x)) | Some(Operand::VregHalf(x, _)) =
                            inst.ops.get((*k - 1) as usize)
                        {
                            if *x == v {
                                run_uses = true;
                            }
                        }
                    }
                    for k in &t.effects.defs {
                        if let Some(Operand::Vreg(x)) | Some(Operand::VregHalf(x, _)) =
                            inst.ops.get((*k - 1) as usize)
                        {
                            if *x == v {
                                run_defs = true;
                            }
                        }
                    }
                    for op in &mut inst.ops {
                        match *op {
                            Operand::Vreg(x) if x == v => *op = Operand::Vreg(tmp),
                            Operand::VregHalf(x, h) if x == v => *op = Operand::VregHalf(tmp, h),
                            _ => {}
                        }
                    }
                    rewritten.push(inst);
                }
                // A run that writes only part of the register (one half)
                // must merge with the slot's existing contents.
                let partial_def = run_defs
                    && rewritten.iter().any(|inst| {
                        inst.ops
                            .iter()
                            .any(|op| matches!(op, Operand::VregHalf(..)))
                    });
                if run_uses || partial_def {
                    new_insts.push(Inst::new(
                        load_t,
                        vec![
                            Operand::Vreg(tmp),
                            Operand::Phys(sp),
                            Operand::Imm(ImmVal::Const(slot)),
                        ],
                    ));
                }
                new_insts.extend(rewritten);
                if run_defs {
                    new_insts.push(Inst::new(
                        store_t,
                        vec![
                            Operand::Vreg(tmp),
                            Operand::Phys(sp),
                            Operand::Imm(ImmVal::Const(slot)),
                        ],
                    ));
                }
                i = j;
            }
            func.blocks[bi].insts = new_insts;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_ir::BlockId;
    use marion_maril::RegClassId;

    const TOY: &str = r#"
        declare {
            %reg r[0:7] (int);
            %resource IE;
            %def const16 [-32768:32767];
            %label rlab [-32768:32767] +relative;
            %memory m[0:2147483647];
        }
        cwvm {
            %general (int) r;
            %allocable r[1:5];
            %calleesave r[4:7];
            %sp r[7] +down; %fp r[6] +down; %retaddr r[1];
            %hard r[0] 0;
        }
        instr {
            %instr add r, r, r (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr ld r, r, #const16 (int) {$1 = m[$2+$3];} [IE;] (1,3,0)
            %instr st r, r, #const16 (int) {m[$2+$3] = $1;} [IE;] (1,1,0)
            %move add2 r, r, r[0] {$1 = $2;} [IE;] (1,1,0)
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

    fn inst(m: &Machine, mnem: &str, ops: Vec<Operand>) -> Inst {
        Inst::new(m.template_by_mnemonic(mnem).unwrap(), ops)
    }

    fn phys_ops(f: &CodeFunc) -> Vec<Vec<Operand>> {
        f.blocks
            .iter()
            .flat_map(|b| b.insts.iter().map(|i| i.ops.clone()))
            .collect()
    }

    #[test]
    fn colors_simple_chain() {
        let m = toy();
        let mut f = CodeFunc::new("t");
        let r = RegClassId(0);
        for _ in 0..4 {
            f.new_vreg(r, VregKind::Local);
        }
        f.blocks.push(CodeBlock {
            insts: vec![
                inst(
                    &m,
                    "ld",
                    vec![v(0), Operand::Phys(PhysReg::new(r, 7)), imm(0)],
                ),
                inst(&m, "add", vec![v(1), v(0), v(0)]),
                inst(
                    &m,
                    "st",
                    vec![v(1), Operand::Phys(PhysReg::new(r, 7)), imm(4)],
                ),
            ],
            succs: vec![],
        });
        let res = allocate(&m, &mut f, &HashMap::new()).unwrap();
        assert_eq!(res.spills, 0);
        for ops in phys_ops(&f) {
            for op in ops {
                assert!(!matches!(op, Operand::Vreg(_)), "vreg survived: {op}");
            }
        }
    }

    #[test]
    fn interfering_values_get_distinct_registers() {
        let m = toy();
        let mut f = CodeFunc::new("t");
        let r = RegClassId(0);
        for _ in 0..3 {
            f.new_vreg(r, VregKind::Local);
        }
        let sp = Operand::Phys(PhysReg::new(r, 7));
        // v0 and v1 are simultaneously live.
        f.blocks.push(CodeBlock {
            insts: vec![
                inst(&m, "ld", vec![v(0), sp, imm(0)]),
                inst(&m, "ld", vec![v(1), sp, imm(4)]),
                inst(&m, "add", vec![v(2), v(0), v(1)]),
                inst(&m, "st", vec![v(2), sp, imm(8)]),
            ],
            succs: vec![],
        });
        allocate(&m, &mut f, &HashMap::new()).unwrap();
        let ops = phys_ops(&f);
        let (a, b) = (ops[0][0], ops[1][0]);
        assert_ne!(a, b, "interfering vregs colored alike");
    }

    #[test]
    fn spills_when_pressure_exceeds_registers() {
        let m = toy();
        let mut f = CodeFunc::new("t");
        let r = RegClassId(0);
        // 8 simultaneously-live values, only 5 allocable registers.
        let n = 8;
        for _ in 0..=n {
            f.new_vreg(r, VregKind::Local);
        }
        let sp = Operand::Phys(PhysReg::new(r, 7));
        let mut insts: Vec<Inst> = (0..n)
            .map(|i| inst(&m, "ld", vec![v(i), sp, imm(4 * i as i64)]))
            .collect();
        // One instruction using all of them pairwise.
        let mut acc = 0u32;
        for i in 1..n {
            insts.push(inst(&m, "add", vec![v(acc), v(acc), v(i)]));
            acc = 0;
        }
        insts.push(inst(&m, "st", vec![v(0), sp, imm(64)]));
        f.blocks.push(CodeBlock {
            insts,
            succs: vec![],
        });
        let res = allocate(&m, &mut f, &HashMap::new()).unwrap();
        assert!(res.spills > 0, "must spill: {res:?}");
        assert!(f.spill_size > 0);
        // And the result must be fully physical.
        for ops in phys_ops(&f) {
            for op in ops {
                assert!(!matches!(op, Operand::Vreg(_)));
            }
        }
    }

    #[test]
    fn precolored_conflicts_respected() {
        let m = toy();
        let mut f = CodeFunc::new("t");
        let r = RegClassId(0);
        f.new_vreg(r, VregKind::Local);
        let sp = Operand::Phys(PhysReg::new(r, 7));
        let r2 = Operand::Phys(PhysReg::new(r, 2));
        // v0 live across a def of r2 — must not be colored r2.
        f.blocks.push(CodeBlock {
            insts: vec![
                inst(&m, "ld", vec![v(0), sp, imm(0)]),
                inst(&m, "ld", vec![r2, sp, imm(4)]),
                inst(&m, "add", vec![r2, r2, v(0)]),
                inst(&m, "st", vec![r2, sp, imm(8)]),
            ],
            succs: vec![],
        });
        allocate(&m, &mut f, &HashMap::new()).unwrap();
        let ops = phys_ops(&f);
        assert_ne!(ops[0][0], r2, "v0 colored into a conflicting phys reg");
    }

    #[test]
    fn loop_depth_heuristic() {
        let mut f = CodeFunc::new("t");
        f.blocks = vec![
            CodeBlock {
                insts: vec![],
                succs: vec![BlockId(1)],
            },
            CodeBlock {
                insts: vec![],
                succs: vec![BlockId(2), BlockId(3)],
            },
            CodeBlock {
                insts: vec![],
                succs: vec![BlockId(1)],
            }, // back edge
            CodeBlock {
                insts: vec![],
                succs: vec![],
            },
        ];
        let d = loop_depth(&f);
        assert_eq!(d, vec![0, 1, 1, 0]);
    }

    /// Hash-container reference model of the interference build, kept
    /// as the oracle for the dense CSR rewrite: identical edges,
    /// degrees, phys conflicts, costs and across-call marks on
    /// SplitMix64-random functions.
    mod reference {
        use super::*;
        use std::collections::{HashMap, HashSet};

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        enum Key {
            V(Vreg),
            U(u32),
        }

        #[derive(Debug, Default)]
        pub struct RefGraph {
            pub adj: HashMap<Vreg, HashSet<Vreg>>,
            pub phys: HashMap<Vreg, HashSet<u32>>,
            pub cost: HashMap<Vreg, f64>,
            pub across_call: HashSet<Vreg>,
        }

        fn keys_of_operand(machine: &Machine, op: &Operand, out: &mut Vec<Key>) {
            match op {
                Operand::Vreg(v) | Operand::VregHalf(v, _) => out.push(Key::V(*v)),
                Operand::Phys(p) => out.extend(machine.units_of(*p).map(Key::U)),
                _ => {}
            }
        }

        fn inst_defs_uses(machine: &Machine, inst: &Inst) -> (Vec<Key>, Vec<Key>) {
            let mut defs = Vec::new();
            let mut uses = Vec::new();
            for op in inst.def_operands(machine) {
                keys_of_operand(machine, op, &mut defs);
                if let Operand::VregHalf(v, _) = op {
                    uses.push(Key::V(*v));
                }
            }
            for op in inst.use_operands(machine) {
                keys_of_operand(machine, op, &mut uses);
            }
            for p in &inst.extra_defs {
                defs.extend(machine.units_of(*p).map(Key::U));
            }
            for p in &inst.extra_uses {
                uses.extend(machine.units_of(*p).map(Key::U));
            }
            (defs, uses)
        }

        pub fn build(machine: &Machine, func: &CodeFunc) -> RefGraph {
            let nblocks = func.blocks.len();
            let mut live_in: Vec<HashSet<Key>> = vec![HashSet::new(); nblocks];
            let mut live_out: Vec<HashSet<Key>> = vec![HashSet::new(); nblocks];
            let mut gen: Vec<HashSet<Key>> = vec![HashSet::new(); nblocks];
            let mut kill: Vec<HashSet<Key>> = vec![HashSet::new(); nblocks];
            for (bi, block) in func.blocks.iter().enumerate() {
                for inst in &block.insts {
                    let (defs, uses) = inst_defs_uses(machine, inst);
                    for u in uses {
                        if !kill[bi].contains(&u) {
                            gen[bi].insert(u);
                        }
                    }
                    for d in defs {
                        kill[bi].insert(d);
                    }
                }
            }
            let mut changed = true;
            while changed {
                changed = false;
                for bi in (0..nblocks).rev() {
                    let mut out: HashSet<Key> = HashSet::new();
                    for succ in &func.blocks[bi].succs {
                        out.extend(live_in[succ.0 as usize].iter().copied());
                    }
                    let mut inn: HashSet<Key> = gen[bi].clone();
                    for k in &out {
                        if !kill[bi].contains(k) {
                            inn.insert(*k);
                        }
                    }
                    if out != live_out[bi] || inn != live_in[bi] {
                        live_out[bi] = out;
                        live_in[bi] = inn;
                        changed = true;
                    }
                }
            }

            let depth = loop_depth(func);
            let mut graph = RefGraph::default();
            let add_conflict = |graph: &mut RefGraph, a: Key, b: Key| match (a, b) {
                (Key::V(x), Key::V(y)) if x != y => {
                    graph.adj.entry(x).or_default().insert(y);
                    graph.adj.entry(y).or_default().insert(x);
                }
                (Key::V(x), Key::U(u)) | (Key::U(u), Key::V(x)) => {
                    graph.phys.entry(x).or_default().insert(u);
                }
                _ => {}
            };
            for (bi, block) in func.blocks.iter().enumerate() {
                let weight = 10f64.powi(depth[bi].min(4) as i32);
                let mut live = live_out[bi].clone();
                for inst in block.insts.iter().rev() {
                    let (defs, uses) = inst_defs_uses(machine, inst);
                    let is_call = machine.template(inst.template).effects.is_call;
                    for d in &defs {
                        if let Key::V(v) = d {
                            *graph.cost.entry(*v).or_insert(0.0) += weight;
                        }
                        for l in &live {
                            if l != d {
                                add_conflict(&mut graph, *d, *l);
                            }
                        }
                    }
                    for (i, a) in defs.iter().enumerate() {
                        for b in &defs[i + 1..] {
                            add_conflict(&mut graph, *a, *b);
                        }
                    }
                    if is_call {
                        for l in &live {
                            if let Key::V(v) = l {
                                graph.across_call.insert(*v);
                            }
                        }
                    }
                    for d in &defs {
                        live.remove(d);
                    }
                    for u in uses {
                        if let Key::V(v) = u {
                            *graph.cost.entry(v).or_insert(0.0) += weight;
                        }
                        live.insert(u);
                    }
                }
            }
            graph
        }
    }

    /// Property test: the dense CSR interference graph equals the
    /// hash-container reference model (same edges, same degrees, same
    /// phys conflicts, same costs) on SplitMix64-random functions.
    #[test]
    fn dense_graph_matches_reference_model() {
        use marion_rng::SplitMix64;
        let m = toy();
        let r = RegClassId(0);
        let mut rng = SplitMix64::new(0x5eed_0b0b);
        for _ in 0..40 {
            let nv = 2 + (rng.next_u64() % 12) as u32;
            let nblocks = 1 + (rng.next_u64() % 4) as usize;
            let mut f = CodeFunc::new("t");
            for _ in 0..nv {
                f.new_vreg(r, VregKind::Local);
            }
            let sp = Operand::Phys(PhysReg::new(r, 7));
            for bi in 0..nblocks {
                let ninsts = 3 + (rng.next_u64() % 20) as usize;
                let mut insts = Vec::new();
                for _ in 0..ninsts {
                    let a = (rng.next_u64() % nv as u64) as u32;
                    let b = (rng.next_u64() % nv as u64) as u32;
                    let c = (rng.next_u64() % nv as u64) as u32;
                    match rng.next_u64() % 4 {
                        0 => insts.push(inst(&m, "ld", vec![v(a), sp, imm(4)])),
                        1 => insts.push(inst(&m, "st", vec![v(a), sp, imm(8)])),
                        2 => insts.push(inst(&m, "add", vec![v(a), v(b), v(c)])),
                        _ => {
                            // Mix in a precolored operand for phys
                            // conflicts.
                            let p = Operand::Phys(PhysReg::new(r, 2));
                            insts.push(inst(&m, "add", vec![v(a), p, v(b)]));
                        }
                    }
                }
                // Random successors, including back edges.
                let mut succs = Vec::new();
                if nblocks > 1 && !rng.next_u64().is_multiple_of(3) {
                    succs.push(BlockId((rng.next_u64() % nblocks as u64) as u32));
                }
                if bi + 1 < nblocks {
                    succs.push(BlockId((bi + 1) as u32));
                }
                f.blocks.push(CodeBlock { insts, succs });
            }

            let dense = build_interference(&m, &f);
            let model = reference::build(&m, &f);
            for vi in 0..nv {
                let vr = Vreg(vi);
                let mut want: Vec<u32> = model
                    .adj
                    .get(&vr)
                    .map(|s| s.iter().map(|n| n.0).collect())
                    .unwrap_or_default();
                want.sort_unstable();
                assert_eq!(
                    dense.adj.neighbors(vi as usize),
                    want.as_slice(),
                    "adjacency of {vr} differs"
                );
                assert_eq!(
                    dense.adj.degree(vi as usize),
                    model.adj.get(&vr).map(|s| s.len()).unwrap_or(0),
                    "degree of {vr} differs"
                );
                let mut want_phys: Vec<usize> = model
                    .phys
                    .get(&vr)
                    .map(|s| s.iter().map(|u| *u as usize).collect())
                    .unwrap_or_default();
                want_phys.sort_unstable();
                assert_eq!(
                    dense.phys.row_iter(vi as usize).collect::<Vec<_>>(),
                    want_phys,
                    "phys conflicts of {vr} differ"
                );
                assert_eq!(
                    dense.cost[vi as usize],
                    model.cost.get(&vr).copied().unwrap_or(0.0),
                    "cost of {vr} differs"
                );
                assert_eq!(
                    dense.across_call.contains(vi as usize),
                    model.across_call.contains(&vr),
                    "across-call mark of {vr} differs"
                );
                let occurs_model = model.cost.contains_key(&vr) || model.adj.contains_key(&vr);
                assert_eq!(
                    dense.occurs.contains(vi as usize),
                    occurs_model,
                    "occurs mark of {vr} differs"
                );
            }
        }
    }

    /// Register pairs for the spill-round tests: `d[i]` overlays
    /// `r[2i]:r[2i+1]`, `mov` is TOYP's single move (a `*movd` escape
    /// expands into two of them over register halves), and `mv3`
    /// names a third register it neither reads nor writes.
    const PAIRS: &str = r#"
        declare {
            %reg r[0:11] (int);
            %reg d[0:5] (double);
            %equiv r[0] d[0];
            %resource IE;
            %def const16 [-32768:32767];
            %memory m[0:2147483647];
        }
        cwvm {
            %general (int) r;
            %general (double) d;
            %allocable r[1:9];
            %allocable d[1:4];
            %calleesave r[6:11];
            %sp r[11] +down; %fp r[10] +down; %retaddr r[1];
            %hard r[0] 0;
        }
        instr {
            %instr add r, r, r (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr ld r, r, #const16 (int) {$1 = m[$2+$3];} [IE;] (1,3,0)
            %instr st r, r, #const16 (int) {m[$2+$3] = $1;} [IE;] (1,1,0)
            %instr ld.d d, r, #const16 (double) {$1 = m[$2+$3];} [IE;] (1,3,0)
            %instr st.d d, r, #const16 (double) {m[$2+$3] = $1;} [IE;] (1,1,0)
            %instr addd d, d, d (double) {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr mv3 r, r, r (int) {$1 = $2;} [IE;] (1,1,0)
            %move mov r, r, r[0] {$1 = $2;} [IE;] (1,1,0)
        }
    "#;

    /// Which spill-round situations a random case exercised.
    #[derive(Default)]
    struct Coverage {
        /// Instructions naming two or more spilled vregs.
        several: usize,
        /// Two-instruction copies between a spilled pair and a
        /// physical pair (replaced in place by one spill load/store).
        pure_pairs: usize,
        /// Half-register runs of a spilled pair.
        half_runs: usize,
        /// Half writes of a spilled pair from spilled singles, where an
        /// earlier vreg's spill code splits a later vreg's run.
        split_runs: usize,
        /// Pure-copy pair runs that also name another spilled vreg,
        /// which loses those occurrences if it comes later in the list.
        deleted_mentions: usize,
    }

    /// A SplitMix64-random function over int vregs and register-pair
    /// vregs, with a random spill list (distinct vregs, random order,
    /// some never mentioned), and what it exercises.
    fn random_spill_case(
        m: &Machine,
        rng: &mut marion_rng::SplitMix64,
    ) -> (CodeFunc, Vec<Vreg>, Coverage) {
        let r = m.reg_class_by_name("r").unwrap();
        let d = m.reg_class_by_name("d").unwrap();
        let mut f = CodeFunc::new("t");
        let (mut ints, mut pairs) = (Vec::new(), Vec::new());
        for _ in 0..4 + rng.below(14) {
            if rng.chance(0.6) {
                ints.push(f.new_vreg(r, VregKind::Local));
            } else {
                pairs.push(f.new_vreg(d, VregKind::Global));
            }
        }
        ints.push(f.new_vreg(r, VregKind::Global));
        pairs.push(f.new_vreg(d, VregKind::Local));
        let mut to_spill: Vec<Vreg> = (0..f.vregs.len() as u32)
            .map(Vreg)
            .filter(|_| rng.chance(0.5))
            .collect();
        for i in (1..to_spill.len()).rev() {
            to_spill.swap(i, rng.index(i + 1));
        }
        let spilled = |x: Vreg| to_spill.contains(&x);
        let phys = |c, i| Operand::Phys(PhysReg::new(c, i));
        let (sp, r0) = (phys(r, 11), phys(r, 0));
        let half = |x: Vreg, h| Operand::VregHalf(x, h);
        let mut cov = Coverage::default();
        for bi in 0..1 + rng.below(4) as u32 {
            let mut insts = Vec::new();
            for _ in 0..2 + rng.below(24) {
                let a = *rng.pick(&ints);
                let b = *rng.pick(&ints);
                let c = *rng.pick(&ints);
                let x = *rng.pick(&pairs);
                let y = *rng.pick(&pairs);
                match rng.below(11) {
                    0 => insts.push(inst(m, "ld", vec![v(a.0), sp, imm(4)])),
                    1 => insts.push(inst(m, "st", vec![v(a.0), sp, imm(8)])),
                    2 => insts.push(inst(m, "add", vec![v(a.0), v(b.0), v(c.0)])),
                    3 => insts.push(inst(m, "addd", vec![v(x.0), v(y.0), v(x.0)])),
                    4 => insts.push(inst(m, "mv3", vec![v(a.0), v(b.0), v(c.0)])),
                    5 => {
                        // `*movd x, y`.
                        for h in 0..2 {
                            insts.push(inst(m, "mov", vec![half(x, h), half(y, h), r0]));
                        }
                        cov.half_runs += usize::from(spilled(x) || spilled(y));
                    }
                    6 | 7 => {
                        // Argument / result moves through d1 = r2:r3,
                        // maybe through `mv3` naming a vreg as well.
                        let to_phys = rng.below(2) == 0;
                        let (mnem, third) = if rng.below(2) == 0 {
                            ("mov", r0)
                        } else {
                            ("mv3", v(c.0))
                        };
                        for h in 0..2 {
                            let p = phys(r, 2 + u32::from(h));
                            let ops = if to_phys {
                                vec![p, half(x, h), third]
                            } else {
                                vec![half(x, h), p, third]
                            };
                            insts.push(inst(m, mnem, ops));
                        }
                        cov.pure_pairs += usize::from(spilled(x));
                        cov.deleted_mentions +=
                            usize::from(spilled(x) && mnem == "mv3" && spilled(c));
                    }
                    8 => {
                        // A single copy to or from a physical register,
                        // maybe naming a second vreg it does not touch.
                        let p = phys(r, 2 + rng.below(3) as u32);
                        let other = if rng.below(2) == 0 { r0 } else { v(c.0) };
                        if rng.below(2) == 0 {
                            insts.push(inst(m, "mv3", vec![p, v(a.0), other]));
                        } else {
                            insts.push(inst(m, "mov", vec![v(a.0), p, r0]));
                        }
                    }
                    9 => {
                        // Both halves of x written from int vregs.
                        insts.push(inst(m, "mov", vec![half(x, 0), v(a.0), r0]));
                        insts.push(inst(m, "mov", vec![half(x, 1), v(b.0), r0]));
                        cov.split_runs += usize::from(spilled(x) && (spilled(a) || spilled(b)));
                    }
                    _ => {
                        // A lone half write: a partial def.
                        insts.push(inst(
                            m,
                            "mov",
                            vec![half(x, rng.below(2) as u8), v(a.0), r0],
                        ));
                    }
                }
            }
            for i in &insts {
                let mut named: Vec<Vreg> = i
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        Operand::Vreg(x) | Operand::VregHalf(x, _) if spilled(*x) => Some(*x),
                        _ => None,
                    })
                    .collect();
                named.sort_unstable();
                named.dedup();
                cov.several += usize::from(named.len() >= 2);
            }
            let nblocks = bi + 1;
            f.blocks.push(CodeBlock {
                insts,
                succs: vec![BlockId(rng.below(u64::from(nblocks)) as u32)],
            });
        }
        (f, to_spill, cov)
    }

    /// One spill round leaves the function exactly as spilling its
    /// vregs one at a time, in list order, with the per-vreg reference
    /// rewrite: same instructions in the same order, same temporaries
    /// (vreg table) and same slots (`spill_size`). Whole allocations on
    /// the two rewrites agree too, `AllocResult` included.
    #[test]
    fn spill_rounds_match_the_per_vreg_reference() {
        let m = Machine::parse("pairs", PAIRS).unwrap();
        let mut rng = marion_rng::SplitMix64::new(0x5911_0bad);
        let mut total = Coverage::default();
        let mut allocations = 0;
        for case in 0..600 {
            let (f, to_spill, cov) = random_spill_case(&m, &mut rng);
            let mut round = f.clone();
            let mut each = f.clone();
            spill_round(&m, &mut round, &to_spill).unwrap();
            spill_reference::spill_each(&m, &mut each, &to_spill).unwrap();
            assert_eq!(round, each, "case {case}: spilling {to_spill:?}");
            total.several += cov.several;
            total.pure_pairs += cov.pure_pairs;
            total.half_runs += cov.half_runs;
            total.split_runs += cov.split_runs;
            total.deleted_mentions += cov.deleted_mentions;

            let (mut a, mut b) = (f.clone(), f);
            let tracer = Tracer::off();
            let no_bias = HashMap::new();
            let by_round = allocate_with(&m, &mut a, &no_bias, &tracer, spill_round);
            let by_vreg = allocate_with(&m, &mut b, &no_bias, &tracer, spill_reference::spill_each);
            assert_eq!(
                format!("{by_round:?}"),
                format!("{by_vreg:?}"),
                "case {case}"
            );
            assert_eq!(a, b, "case {case}: allocated functions differ");
            allocations += usize::from(by_round.is_ok_and(|r| r.spills > 0));
        }
        assert!(total.several > 50, "too few multi-vreg instructions");
        assert!(total.pure_pairs > 50, "too few pure-copy pair runs");
        assert!(total.half_runs > 50, "too few half-register runs");
        assert!(total.split_runs > 50, "too few split half runs");
        assert!(
            total.deleted_mentions > 20,
            "too few vregs named by pure copies"
        );
        assert!(
            allocations > 50,
            "too few allocations that spilled: {allocations}"
        );
    }
}
