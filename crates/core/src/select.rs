//! Instruction selection: a recursive-descent brute-force tree
//! pattern matcher (paper §2.1).
//!
//! Patterns are the semantic expressions of the machine description's
//! `%instr` directives, tried **in description order**; the first
//! matching pattern wins and its subtrees are selected recursively.
//! Candidates come from the machine's [`marion_maril::SelectionIndex`],
//! which skips templates that cannot match but never reorders them.
//! Local common subexpressions (IR nodes with more than one parent)
//! are forced into registers, unless they are constants that can be
//! subsumed by an addressing mode or an immediate operand.
//!
//! Two special mechanisms complete the IL-to-target mapping:
//!
//! * **`*func` escapes** — user-supplied functions (Rust closures
//!   registered in an [`EscapeRegistry`]) that expand one matched
//!   pattern into a sequence of individually schedulable
//!   instructions, with access to register halves (paper §3.4);
//! * **temporal chains** — when a pattern's expression mentions a
//!   temporal register (an EAP latch like the i860's `m3`), the
//!   matcher resolves it by matching the templates that *define* that
//!   latch, recursively; selecting `d6 = d4 * d5` against `FWB d
//!   {$1 = m3}` therefore emits the whole `M1; M2; M3; FWB` pipeline
//!   sequence, and chaining between pipelines (an add-pipe launch
//!   reading `m3`) falls out of the same rule (paper §4.5).

use crate::code::*;
use crate::error::{CodegenError, Phase};
use crate::glue::fold_const;
use marion_ir as ir;
use marion_ir::{NodeId, NodeKind};
use marion_maril::expr::{LValue, Stmt};
use marion_maril::{
    BinOp, Expr, Machine, OperandSpec, PhysReg, RegClassId, RootShape, TemplateId, Ty,
};
use std::collections::HashMap;

/// A user-supplied escape function: receives the resolved operands of
/// the matched directive (operand 1 first) and emits replacement
/// instructions through the [`EscapeCtx`].
pub type EscapeFn = fn(&mut EscapeCtx<'_, '_>, &[Operand]) -> Result<(), CodegenError>;

/// Registry of `*func` escapes for one machine.
#[derive(Default, Clone)]
pub struct EscapeRegistry {
    map: HashMap<String, EscapeFn>,
}

impl std::fmt::Debug for EscapeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.map.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("EscapeRegistry")
            .field("escapes", &names)
            .finish()
    }
}

impl EscapeRegistry {
    /// Creates an empty registry.
    pub fn new() -> EscapeRegistry {
        EscapeRegistry::default()
    }

    /// Registers the function implementing escape `name` (the
    /// directive's mnemonic, e.g. `movd` for `*movd`).
    pub fn register(&mut self, name: &str, f: EscapeFn) {
        self.map.insert(name.to_owned(), f);
    }

    /// Looks up an escape.
    pub fn get(&self, name: &str) -> Option<EscapeFn> {
        self.map.get(name).copied()
    }
}

/// Selects code for one IR function, walking the candidate lists of
/// `machine`'s [`marion_maril::SelectionIndex`] in description order.
/// The index only prunes templates that cannot match, so selecting
/// against [`Machine::brute_force_reference`] (every lookup returns
/// every template) picks the same instructions; the selection
/// crosscheck asserts this. `_module` is the function's enclosing
/// module; selection reads only `func`.
///
/// # Errors
///
/// Fails when no pattern (after glue) covers a node — typically a
/// missing directive in the machine description — or when an escape
/// is referenced but not registered.
pub fn select_func(
    machine: &Machine,
    escapes: &EscapeRegistry,
    _module: &ir::Module,
    func: &ir::Function,
) -> Result<CodeFunc, CodegenError> {
    let parents = func.parent_counts();
    let mut out = CodeFunc::new(&func.name);
    out.local_frame_size = (func.frame_locals_size() + 7) & !7;
    for _ in 0..=func.blocks.len() {
        out.blocks.push(CodeBlock::default());
    }
    let mut ctx = SelCtx {
        machine,
        escapes,
        irf: func,
        out,
        cur: 0,
        vmap: vec![None; func.vreg_tys.len()],
        cache: HashMap::new(),
        parents,
    };
    ctx.run()?;
    Ok(ctx.out)
}

fn err(msg: impl Into<String>) -> CodegenError {
    CodegenError::new(Phase::Select, msg)
}

/// True for the int-like types that share registers on a 32-bit RISC.
fn int_family(ty: Ty) -> bool {
    matches!(ty, Ty::Char | Ty::Short | Ty::Int | Ty::Long | Ty::Ptr)
}

/// Template root type constraint check.
fn ty_match(constraint: Option<Ty>, ty: Ty) -> bool {
    match constraint {
        None => true,
        Some(c) => c == ty || (int_family(c) && int_family(ty)),
    }
}

/// Conversion-target match: exact within {Int, Long, Ptr}; `Char` and
/// `Short` are distinct (they need real truncation sequences).
fn cvt_ty_match(pattern: Ty, ty: Ty) -> bool {
    let wide_int = |t| matches!(t, Ty::Int | Ty::Long | Ty::Ptr);
    pattern == ty || (wide_int(pattern) && wide_int(ty))
}

/// How one operand slot will be filled.
#[derive(Debug, Clone)]
enum OpPlan {
    /// Recursively select this node into a register.
    Reg(NodeId),
    /// Already-resolved operand (hard-wired register, immediate...).
    Ready(Operand),
    /// Fill from the destination (the def slot).
    Def,
    /// An unreferenced fixed register from the operand list.
    Unset,
}

/// A successful match: the template plus how to fill each operand, and
/// the temporal-producer chains to emit first.
///
/// Backtracking is checkpoint/rollback, not whole-plan copies: slots
/// are only ever written from `Unset` during matching (a twice-
/// referenced operand is *compared* against its first binding, never
/// overwritten), so undoing a failed sub-match is just resetting the
/// slots recorded since the checkpoint and truncating the chain list.
#[derive(Debug, Clone)]
struct MatchPlan {
    template: TemplateId,
    ops: Vec<OpPlan>,
    chains: Vec<MatchPlan>,
    /// Slot indices bound since creation, in binding order.
    undo: Vec<u32>,
}

/// A rollback point inside a [`MatchPlan`].
#[derive(Debug, Clone, Copy)]
struct PlanMark {
    undo_len: usize,
    chains_len: usize,
}

impl MatchPlan {
    fn new(template: TemplateId, nops: usize) -> MatchPlan {
        MatchPlan {
            template,
            ops: vec![OpPlan::Unset; nops],
            chains: Vec::new(),
            undo: Vec::new(),
        }
    }

    /// Binds a slot during matching, recording it for rollback.
    fn bind(&mut self, slot: usize, plan: OpPlan) {
        self.ops[slot] = plan;
        self.undo.push(slot as u32);
    }

    fn checkpoint(&self) -> PlanMark {
        PlanMark {
            undo_len: self.undo.len(),
            chains_len: self.chains.len(),
        }
    }

    fn rollback(&mut self, mark: PlanMark) {
        for slot in self.undo.drain(mark.undo_len..) {
            self.ops[slot as usize] = OpPlan::Unset;
        }
        self.chains.truncate(mark.chains_len);
    }
}

struct SelCtx<'a> {
    machine: &'a Machine,
    escapes: &'a EscapeRegistry,
    irf: &'a ir::Function,
    out: CodeFunc,
    cur: usize,
    vmap: Vec<Option<Vreg>>,
    cache: HashMap<NodeId, Operand>,
    parents: Vec<u32>,
}

impl<'a> SelCtx<'a> {
    fn run(&mut self) -> Result<(), CodegenError> {
        let epilogue = ir::BlockId(self.irf.blocks.len() as u32);
        // Entry: move incoming arguments from their CWVM registers
        // into the parameter pseudo-registers.
        self.cur = 0;
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        for (v, ty) in self.irf.params.clone() {
            let regs = self.machine.cwvm().arg_regs(ty);
            let used = if ty.is_float() {
                &mut fp_used
            } else {
                &mut int_used
            };
            let Some(reg) = regs.get(*used).copied() else {
                return Err(err(format!(
                    "too many {} parameters (have {} registers)",
                    if ty.is_float() { "floating" } else { "integer" },
                    regs.len()
                )));
            };
            *used += 1;
            let dest = self.map_vreg(v)?;
            self.emit_move(dest, Operand::Phys(reg))?;
        }
        for bi in 0..self.irf.blocks.len() {
            self.cur = bi;
            self.cache.clear();
            let block = &self.irf.blocks[bi];
            for stmt in &block.stmts {
                match stmt {
                    ir::Stmt::SetVreg(v, n) => {
                        let dest = self.map_vreg(*v)?;
                        self.select_into(dest, *n)?;
                    }
                    ir::Stmt::Store { addr, value, ty } => {
                        self.select_store(*addr, *value, *ty)?;
                    }
                    ir::Stmt::CallStmt(n) => {
                        if !self.cache.contains_key(n) {
                            self.select_reg(*n)?;
                        }
                    }
                }
            }
            match &block.term {
                ir::Terminator::Jump(t) => {
                    self.out.blocks[bi].succs = vec![*t];
                    if t.0 as usize != bi + 1 {
                        self.emit_goto(*t)?;
                    }
                }
                ir::Terminator::CondJump {
                    rel,
                    lhs,
                    rhs,
                    then_to,
                    else_to,
                } => {
                    self.select_cond_branch(*rel, *lhs, *rhs, *then_to)?;
                    self.out.blocks[bi].succs = vec![*then_to, *else_to];
                    if else_to.0 as usize != bi + 1 {
                        self.emit_goto(*else_to)?;
                    }
                }
                ir::Terminator::Ret(value) => {
                    if let Some(n) = value {
                        let ty = self.irf.node(*n).ty;
                        let result = self
                            .machine
                            .cwvm()
                            .result_reg(ty)
                            .ok_or_else(|| err(format!("no %result register for {ty}")))?;
                        let src = self.select_reg(*n)?;
                        self.emit_move_phys(result, src)?;
                    }
                    self.out.blocks[bi].succs = vec![epilogue];
                    if epilogue.0 as usize != bi + 1 {
                        self.emit_goto(epilogue)?;
                    }
                }
            }
        }
        // Epilogue: the return instruction (callee-save restores are
        // inserted by the frame pass).
        self.cur = epilogue.0 as usize;
        let ret_t = self
            .machine
            .templates()
            .iter()
            .position(|t| t.effects.is_return)
            .map(|i| TemplateId(i as u32))
            .ok_or_else(|| err("machine has no return instruction"))?;
        let mut inst = Inst::new(ret_t, self.fixed_ops(ret_t));
        if let Some(ra) = self.machine.cwvm().retaddr {
            inst.extra_uses.push(ra);
        }
        if let Some(ret_ty) = self.irf.ret_ty {
            if let Some(r) = self.machine.cwvm().result_reg(ret_ty) {
                inst.extra_uses.push(r);
            }
        }
        self.out.blocks[epilogue.0 as usize].insts.push(inst);
        Ok(())
    }

    /// Operand list for a template with no pattern-bound operands
    /// (fills fixed registers only).
    fn fixed_ops(&self, t: TemplateId) -> Vec<Operand> {
        self.machine
            .template(t)
            .operands
            .iter()
            .map(|spec| match spec {
                OperandSpec::FixedReg(p) => Operand::Phys(*p),
                _ => Operand::Imm(ImmVal::Const(0)),
            })
            .collect()
    }

    fn map_vreg(&mut self, v: ir::VregId) -> Result<Vreg, CodegenError> {
        if let Some(mapped) = self.vmap[v.0 as usize] {
            return Ok(mapped);
        }
        let ty = self.irf.vreg_ty(v);
        let class = self.natural_class(ty)?;
        let mapped = self.out.new_vreg(class, VregKind::Global);
        self.vmap[v.0 as usize] = Some(mapped);
        Ok(mapped)
    }

    fn natural_class(&self, ty: Ty) -> Result<RegClassId, CodegenError> {
        self.machine
            .cwvm()
            .general_class(ty)
            .ok_or_else(|| err(format!("no general-purpose class for type {ty}")))
    }

    // ------------------------------------------------------ values

    /// Selects `id` into a register operand.
    fn select_reg(&mut self, id: NodeId) -> Result<Operand, CodegenError> {
        if let Some(op) = self.cache.get(&id) {
            return Ok(*op);
        }
        let node = self.irf.node(id);
        let op = match &node.kind {
            NodeKind::ReadVreg(v) => Operand::Vreg(self.map_vreg(*v)?),
            NodeKind::ConstI(_) | NodeKind::Un(marion_ir::UnOp::Neg, _)
                if fold_const(self.irf, id).is_some() =>
            {
                let c = fold_const(self.irf, id).unwrap();
                if let Some(p) = self.hard_reg_for(c, self.natural_class(node.ty)?) {
                    Operand::Phys(p)
                } else {
                    self.match_value(id, None)?
                }
            }
            NodeKind::LocalAddr(l) => {
                let offset = self.irf.local_offset(*l) as i64;
                self.emit_sp_offset(offset, None)?
            }
            NodeKind::Call(sym, args) => {
                let args = args.clone();
                self.lower_call(*sym, &args, node.ty, None)?
            }
            _ => self.match_value(id, None)?,
        };
        // Force shared non-constant nodes into a register once.
        if self.parents[id.0 as usize] > 1 && !self.is_subsumable(id) {
            self.cache.insert(id, op);
        }
        Ok(op)
    }

    /// Whether a node is a constant that re-matches cheaply at each
    /// use (never forced into a register for sharing).
    fn is_subsumable(&self, id: NodeId) -> bool {
        matches!(
            self.irf.node(id).kind,
            NodeKind::ConstI(_) | NodeKind::GlobalAddr(_) | NodeKind::LocalAddr(_)
        )
    }

    /// Selects `id` writing the result into `dest`.
    fn select_into(&mut self, dest: Vreg, id: NodeId) -> Result<(), CodegenError> {
        if self.cache.contains_key(&id) || self.parents[id.0 as usize] > 1 {
            let op = self.select_reg(id)?;
            return self.emit_move(dest, op);
        }
        let node = self.irf.node(id);
        match &node.kind {
            NodeKind::ReadVreg(v) => {
                let src = Operand::Vreg(self.map_vreg(*v)?);
                self.emit_move(dest, src)
            }
            NodeKind::LocalAddr(l) => {
                let offset = self.irf.local_offset(*l) as i64;
                self.emit_sp_offset(offset, Some(dest))?;
                Ok(())
            }
            NodeKind::Call(sym, args) => {
                let args = args.clone();
                let op = self.lower_call(*sym, &args, node.ty, Some(dest))?;
                if op != Operand::Vreg(dest) {
                    self.emit_move(dest, op)?;
                }
                Ok(())
            }
            _ => {
                let op = self.match_value(id, Some(dest))?;
                if op != Operand::Vreg(dest) {
                    self.emit_move(dest, op)?;
                }
                Ok(())
            }
        }
    }

    /// A hard-wired register holding constant `c` in class `class`.
    fn hard_reg_for(&self, c: i64, class: RegClassId) -> Option<PhysReg> {
        self.machine
            .cwvm()
            .hard
            .iter()
            .find(|(p, v)| *v == c && p.class == class)
            .map(|(p, _)| *p)
    }

    /// Candidate templates for value node `id`, in description order.
    fn value_candidates(&self, id: NodeId) -> Vec<TemplateId> {
        let shape = match &self.irf.node(id).kind {
            NodeKind::Bin(op, _, _) => RootShape::Bin(*op),
            NodeKind::Un(op, _) => RootShape::Un(match op {
                marion_ir::UnOp::Neg => marion_maril::UnOp::Neg,
                marion_ir::UnOp::Not => marion_maril::UnOp::Not,
            }),
            NodeKind::Load(_) => RootShape::Load,
            NodeKind::Cvt(_) => RootShape::Cvt,
            NodeKind::ConstI(_) | NodeKind::GlobalAddr(_) => RootShape::Imm,
            _ => RootShape::Other,
        };
        let foldable = fold_const(self.irf, id).is_some();
        self.machine
            .selection_index()
            .value_candidates(shape, foldable)
    }

    /// Tries the candidate templates in description order against
    /// value node `id`; emits the first full match.
    fn match_value(&mut self, id: NodeId, dest: Option<Vreg>) -> Result<Operand, CodegenError> {
        let machine = self.machine;
        let node_ty = self.irf.node(id).ty;
        let want_class = self.natural_class(node_ty)?;
        for tid in self.value_candidates(id) {
            let t = machine.template(tid);
            if !ty_match(t.ty, node_ty) || t.def_class() != Some(want_class) {
                continue;
            }
            // Loads must match the access width exactly: an `ld.b`
            // (char) pattern only covers char loads and vice versa.
            if t.effects.reads_mem {
                if let Some(c) = t.ty {
                    let width_ok = match node_ty {
                        Ty::Char | Ty::Short => c == node_ty,
                        _ => c != Ty::Char && c != Ty::Short,
                    };
                    if !width_ok {
                        continue;
                    }
                }
            }
            // Value templates: exactly one `$1 = rhs` statement.
            let [Stmt::Assign(LValue::Operand(1), rhs)] = t.sem.as_slice() else {
                continue;
            };
            // A bare `$1 = $2` with a register spec is a move, not a
            // selection pattern (it would match everything).
            if let Expr::Operand(k) = rhs {
                if matches!(
                    t.operands.get((*k - 1) as usize),
                    Some(OperandSpec::Reg(_)) | Some(OperandSpec::FixedReg(_))
                ) {
                    continue;
                }
            }
            let mut plan = MatchPlan::new(tid, t.operands.len());
            plan.ops[0] = OpPlan::Def;
            if self.match_expr(rhs, id, &mut plan, false) {
                return self.emit_plan(&plan, dest);
            }
        }
        Err(err(format!(
            "no pattern matches `{}` (type {node_ty}) on {}",
            ir::dot::render(self.irf, id),
            self.machine.name()
        )))
    }

    /// Structural match of a pattern expression against an IR node,
    /// recording operand bindings in `plan`. Pure: nothing is emitted.
    fn match_expr(&mut self, pat: &Expr, node: NodeId, plan: &mut MatchPlan, in_mem: bool) -> bool {
        self.match_expr_at(pat, node, plan, in_mem, 0)
    }

    fn match_expr_at(
        &mut self,
        pat: &Expr,
        node: NodeId,
        plan: &mut MatchPlan,
        in_mem: bool,
        depth: u8,
    ) -> bool {
        // Temporal chains on machines with mutually-feeding pipelines
        // (i860 multiply <-> add chaining) can recurse through each
        // other; bound the exploration.
        if depth > 12 {
            return false;
        }
        let nk = &self.irf.node(node).kind;
        match pat {
            Expr::Operand(k) => {
                let slot = (*k - 1) as usize;
                let spec = self.machine.template(plan.template).operands[slot];
                let bind = match spec {
                    OperandSpec::Reg(c) => {
                        let node_ty = self.irf.node(node).ty;
                        if self.natural_class(node_ty).ok() != Some(c) {
                            return false;
                        }
                        // Constants equal to a hard-wired register can
                        // bind directly (TOYP's r[0] = 0).
                        if let Some(v) = fold_const(self.irf, node) {
                            if let Some(p) = self.hard_reg_for(v, c) {
                                OpPlan::Ready(Operand::Phys(p))
                            } else {
                                OpPlan::Reg(node)
                            }
                        } else {
                            OpPlan::Reg(node)
                        }
                    }
                    OperandSpec::FixedReg(p) => {
                        let Some(v) = fold_const(self.irf, node) else {
                            return false;
                        };
                        if !self
                            .machine
                            .cwvm()
                            .hard
                            .iter()
                            .any(|(hp, hv)| *hp == p && *hv == v)
                        {
                            return false;
                        }
                        OpPlan::Ready(Operand::Phys(p))
                    }
                    OperandSpec::Imm(d) => {
                        let def = self.machine.imm_def(d);
                        if let Some(v) = fold_const(self.irf, node) {
                            if !def.contains(v) {
                                return false;
                            }
                            OpPlan::Ready(Operand::Imm(ImmVal::Const(v)))
                        } else if let NodeKind::GlobalAddr(sym) = nk {
                            if !def.flags.iter().any(|f| f == "abs") {
                                return false;
                            }
                            OpPlan::Ready(Operand::Imm(ImmVal::Sym(*sym, 0)))
                        } else {
                            return false;
                        }
                    }
                    OperandSpec::Lab(_) => return false,
                };
                // An operand referenced twice must bind identically.
                match &plan.ops[slot] {
                    OpPlan::Unset => {
                        plan.bind(slot, bind);
                        true
                    }
                    existing => matches!((existing, &bind),
                        (OpPlan::Reg(a), OpPlan::Reg(b)) if a == b),
                }
            }
            Expr::Int(c) => fold_const(self.irf, node) == Some(*c),
            Expr::Bin(op, pa, pb) => {
                // Addressing fallback: inside a memory operand, a
                // `base + imm` pattern can match any address expression
                // as `addr + 0` (the whole address goes to a register).
                let fallback = |this: &mut Self, plan: &mut MatchPlan| -> bool {
                    if !(in_mem && *op == BinOp::Add) {
                        return false;
                    }
                    let Expr::Operand(k) = &**pb else {
                        return false;
                    };
                    let slot = (*k - 1) as usize;
                    let OperandSpec::Imm(d) = this.machine.template(plan.template).operands[slot]
                    else {
                        return false;
                    };
                    if !this.machine.imm_def(d).contains(0) {
                        return false;
                    }
                    let mark = plan.checkpoint();
                    if this.match_expr_at(pa, node, plan, false, depth + 1)
                        && matches!(plan.ops[slot], OpPlan::Unset)
                    {
                        plan.bind(slot, OpPlan::Ready(Operand::Imm(ImmVal::Const(0))));
                        return true;
                    }
                    plan.rollback(mark);
                    false
                };
                let NodeKind::Bin(nop, x, y) = *nk else {
                    return fallback(self, plan);
                };
                if nop != *op {
                    return fallback(self, plan);
                }
                let mark = plan.checkpoint();
                if self.match_expr_at(pa, x, plan, in_mem, depth + 1)
                    && self.match_expr_at(pb, y, plan, in_mem, depth + 1)
                {
                    return true;
                }
                plan.rollback(mark);
                // Commutative retry.
                if matches!(
                    op,
                    BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
                ) && self.match_expr_at(pa, y, plan, in_mem, depth + 1)
                    && self.match_expr_at(pb, x, plan, in_mem, depth + 1)
                {
                    return true;
                }
                plan.rollback(mark);
                fallback(self, plan)
            }
            Expr::Un(op, pa) => {
                let ir_op = match op {
                    marion_maril::UnOp::Neg => marion_ir::UnOp::Neg,
                    marion_maril::UnOp::Not => marion_ir::UnOp::Not,
                };
                match *nk {
                    NodeKind::Un(nop, x) if nop == ir_op => {
                        self.match_expr_at(pa, x, plan, in_mem, depth + 1)
                    }
                    _ => false,
                }
            }
            Expr::Convert(ty, pa) => match *nk {
                NodeKind::Cvt(x) if cvt_ty_match(*ty, self.irf.node(node).ty) => {
                    self.match_expr_at(pa, x, plan, in_mem, depth + 1)
                }
                _ => false,
            },
            Expr::Mem(_, addr_pat) => match *nk {
                NodeKind::Load(addr) => self.match_expr_at(addr_pat, addr, plan, true, depth + 1),
                _ => false,
            },
            Expr::Temporal(name) => {
                // Temporal chain: find a template defining this latch
                // whose rhs matches the node, recursively.
                let machine = self.machine;
                let Some(tid) = machine.temporal_by_name(name) else {
                    return false;
                };
                for &utid in machine.selection_index().temporal_def_candidates(tid) {
                    let u = machine.template(utid);
                    if !u.effects.temporal_defs.contains(&tid) {
                        continue;
                    }
                    // Find the statement assigning this latch.
                    let Some(Stmt::Assign(LValue::Temporal(_), urhs)) = u
                        .sem
                        .iter()
                        .find(|s| matches!(s, Stmt::Assign(LValue::Temporal(t), _) if t == name))
                    else {
                        continue;
                    };
                    if !ty_match(u.ty, self.irf.node(node).ty) {
                        continue;
                    }
                    let mut sub = MatchPlan::new(utid, u.operands.len());
                    if self.match_expr_at(urhs, node, &mut sub, false, depth + 1) {
                        plan.chains.push(sub);
                        return true;
                    }
                }
                false
            }
            Expr::Call(..) => false,
        }
    }

    /// Emits a match plan: chain producers first, then the instruction
    /// itself. Returns the defined operand (for dummies, the forwarded
    /// source operand).
    fn emit_plan(&mut self, plan: &MatchPlan, dest: Option<Vreg>) -> Result<Operand, CodegenError> {
        // Reborrow the machine directly so the template's operand and
        // effect lists stay usable across the `&mut self` calls below
        // (no per-template clones).
        let machine = self.machine;
        let t = machine.template(plan.template);
        let (is_dummy, tid) = (t.is_dummy(), plan.template);
        let operands_spec: &[OperandSpec] = &t.operands;
        let def_slots: &[u8] = &t.effects.defs;
        let use_slots: &[u8] = &t.effects.uses;

        let mut ops: Vec<Operand> = Vec::with_capacity(plan.ops.len());
        let mut def_op: Option<Operand> = None;
        for (i, p) in plan.ops.iter().enumerate() {
            let op = match p {
                OpPlan::Def => {
                    let class = match operands_spec[i] {
                        OperandSpec::Reg(c) => c,
                        OperandSpec::FixedReg(p) => {
                            let op = Operand::Phys(p);
                            def_op = Some(op);
                            ops.push(op);
                            continue;
                        }
                        _ => return Err(err("def operand is not a register")),
                    };
                    let op = if is_dummy && t.escape.is_none() {
                        // Dummies forward their source; placeholder.
                        Operand::Imm(ImmVal::Const(0))
                    } else {
                        match dest {
                            Some(d) if self.out.vreg(d).class == class => Operand::Vreg(d),
                            _ => Operand::Vreg(self.out.new_vreg(class, VregKind::Local)),
                        }
                    };
                    def_op = Some(op);
                    op
                }
                OpPlan::Reg(node) => self.select_reg(*node)?,
                OpPlan::Ready(op) => *op,
                OpPlan::Unset => match operands_spec[i] {
                    OperandSpec::FixedReg(p) => Operand::Phys(p),
                    _ => {
                        // A temporal sub-operation's def slot, or a
                        // genuinely unused operand.
                        if def_slots.contains(&((i + 1) as u8)) {
                            let class = match operands_spec[i] {
                                OperandSpec::Reg(c) => c,
                                _ => return Err(err("unbound def operand")),
                            };
                            let op = Operand::Vreg(self.out.new_vreg(class, VregKind::Local));
                            def_op = Some(op);
                            op
                        } else {
                            return Err(err(format!(
                                "operand {} of `{}` unbound",
                                i + 1,
                                self.machine.template(tid).mnemonic
                            )));
                        }
                    }
                },
            };
            ops.push(op);
        }

        // Temporal chains go immediately before the instruction that
        // consumes their latches: all register operands above are
        // already materialised, so nothing can intervene and clobber
        // the explicitly advanced pipeline state.
        for chain in &plan.chains {
            self.emit_plan(chain, None)?;
        }

        if is_dummy && t.escape.is_none() {
            // Zero-cost dummy: forward the single use operand.
            let src = use_slots
                .first()
                .and_then(|k| ops.get((*k - 1) as usize))
                .copied()
                .ok_or_else(|| err("dummy instruction with no source operand"))?;
            return Ok(src);
        }
        if let Some(name) = &t.escape {
            let f = self
                .escapes
                .get(name)
                .ok_or_else(|| err(format!("escape `*{name}` not registered")))?;
            let mut ectx = EscapeCtx { sel: self };
            f(&mut ectx, &ops)?;
            return Ok(def_op.unwrap_or(Operand::Imm(ImmVal::Const(0))));
        }
        self.push(Inst::new(tid, ops));
        // Stores and branches define nothing; give callers a harmless
        // placeholder (only value selection reads the result).
        Ok(def_op.unwrap_or(Operand::Imm(ImmVal::Const(0))))
    }

    fn push(&mut self, inst: Inst) {
        self.out.blocks[self.cur].insts.push(inst);
    }

    // ------------------------------------------------------ stores

    fn select_store(&mut self, addr: NodeId, value: NodeId, ty: Ty) -> Result<(), CodegenError> {
        let machine = self.machine;
        for &tid in machine.selection_index().store_candidates() {
            let t = machine.template(tid);
            if t.escape.is_some() || !ty_match(t.ty, ty) {
                continue;
            }
            let [Stmt::Assign(LValue::Mem(_, addr_pat), value_pat)] = t.sem.as_slice() else {
                continue;
            };
            // The stored class must suit the value's type.
            let value_class = self.natural_class(self.irf.node(value).ty)?;
            let stored_class = t.operands.iter().find_map(|s| match s {
                OperandSpec::Reg(c) => Some(*c),
                _ => None,
            });
            if stored_class != Some(value_class) {
                continue;
            }
            // Access width must match the store type exactly (st.b vs
            // st.h vs st.w): templates carry it as their ty constraint;
            // widths inside the int family are distinguished by exact
            // type when the constraint names char/short.
            if let Some(c) = t.ty {
                let width_ok = match ty {
                    Ty::Char | Ty::Short => c == ty,
                    _ => c != Ty::Char && c != Ty::Short,
                };
                if !width_ok {
                    continue;
                }
            }
            let mut plan = MatchPlan::new(tid, t.operands.len());
            if self.match_expr(addr_pat, addr, &mut plan, true)
                && self.match_expr(value_pat, value, &mut plan, false)
            {
                self.emit_plan(&plan, None).map(|_| ())?;
                return Ok(());
            }
        }
        Err(err(format!(
            "no store pattern for type {ty} on {}",
            self.machine.name()
        )))
    }

    // ------------------------------------------------------ control

    fn select_cond_branch(
        &mut self,
        rel: BinOp,
        lhs: NodeId,
        rhs: NodeId,
        target: ir::BlockId,
    ) -> Result<(), CodegenError> {
        let machine = self.machine;
        for &tid in machine.selection_index().cond_branch_candidates() {
            let t = machine.template(tid);
            if t.escape.is_some() {
                continue;
            }
            let [Stmt::CondGoto {
                rel: trel,
                lhs: plhs,
                rhs: prhs,
                target: tk,
            }] = t.sem.as_slice()
            else {
                continue;
            };
            let lhs_ty = self.irf.node(lhs).ty;
            if !ty_match(t.ty, lhs_ty) {
                continue;
            }
            let attempts: [(BinOp, NodeId, NodeId); 2] =
                [(rel, lhs, rhs), (rel.swapped(), rhs, lhs)];
            for (arel, albs, arhs) in attempts {
                if *trel != arel {
                    continue;
                }
                let mut plan = MatchPlan::new(tid, t.operands.len());
                let slot = (*tk - 1) as usize;
                plan.ops[slot] = OpPlan::Ready(Operand::Block(target));
                if self.match_expr(plhs, albs, &mut plan, false)
                    && self.match_expr(prhs, arhs, &mut plan, false)
                {
                    self.emit_plan(&plan, None)?;
                    return Ok(());
                }
            }
        }
        Err(err(format!(
            "no branch pattern for `{rel}` on {} (missing %glue rule?)",
            self.machine.name()
        )))
    }

    fn emit_goto(&mut self, target: ir::BlockId) -> Result<(), CodegenError> {
        let machine = self.machine;
        for &tid in machine.selection_index().goto_candidates() {
            let t = machine.template(tid);
            if let [Stmt::Goto(k)] = t.sem.as_slice() {
                let mut ops = self.fixed_ops(tid);
                ops[(*k - 1) as usize] = Operand::Block(target);
                self.push(Inst::new(tid, ops));
                return Ok(());
            }
        }
        Err(err("machine has no unconditional branch"))
    }

    // ------------------------------------------------------ calls

    fn lower_call(
        &mut self,
        sym: ir::SymbolId,
        args: &[NodeId],
        ret_ty: Ty,
        dest: Option<Vreg>,
    ) -> Result<Operand, CodegenError> {
        self.out.has_calls = true;
        let cwvm = self.machine.cwvm();
        // Assign argument registers with per-type counters.
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        let mut moves: Vec<(PhysReg, NodeId)> = Vec::new();
        for &arg in args {
            let ty = self.irf.node(arg).ty;
            let regs = cwvm.arg_regs(ty);
            let used = if ty.is_float() {
                &mut fp_used
            } else {
                &mut int_used
            };
            let Some(reg) = regs.get(*used).copied() else {
                return Err(err(format!(
                    "too many {} arguments (have {} registers)",
                    if ty.is_float() { "floating" } else { "integer" },
                    regs.len()
                )));
            };
            *used += 1;
            moves.push((reg, arg));
        }
        // Select argument values first (they may clobber nothing), then
        // move them into place.
        let mut arg_ops = Vec::with_capacity(moves.len());
        for (_, node) in &moves {
            arg_ops.push(self.select_reg(*node)?);
        }
        for ((reg, _), op) in moves.iter().zip(&arg_ops) {
            self.emit_move_phys(*reg, *op)?;
        }
        // The call instruction.
        let call_t = self
            .machine
            .templates()
            .iter()
            .position(|t| t.effects.is_call)
            .map(|i| TemplateId(i as u32))
            .ok_or_else(|| err("machine has no call instruction"))?;
        let t = self.machine.template(call_t);
        let Some(Stmt::Call(k)) = t.sem.first() else {
            return Err(err("malformed call template"));
        };
        let mut ops = self.fixed_ops(call_t);
        ops[(*k - 1) as usize] = Operand::Func(sym);
        let mut inst = Inst::new(call_t, ops);
        inst.extra_uses = moves.iter().map(|(r, _)| *r).collect();
        // Clobbers: caller-save allocable registers, the return
        // address, and the result registers.
        for reg in &cwvm.allocable {
            let callee_saved = cwvm
                .callee_save
                .iter()
                .any(|cs| self.machine.regs_overlap(*cs, *reg));
            if !callee_saved {
                inst.extra_defs.push(*reg);
            }
        }
        if let Some(ra) = cwvm.retaddr {
            inst.extra_defs.push(ra);
        }
        self.push(inst);
        // Fetch the result, directly into the destination when the
        // caller provided one (avoids a second register-pair copy).
        let result_reg = cwvm
            .result_reg(ret_ty)
            .ok_or_else(|| err(format!("no %result register for {ret_ty}")))?;
        let class = self.natural_class(ret_ty)?;
        let dest = match dest {
            Some(d) if self.out.vreg(d).class == class => d,
            _ => self.out.new_vreg(class, VregKind::Local),
        };
        self.emit_move(dest, Operand::Phys(result_reg))?;
        Ok(Operand::Vreg(dest))
    }

    // ------------------------------------------------------ moves

    /// Emits `sp + offset` into `dest` (or a fresh vreg).
    fn emit_sp_offset(&mut self, offset: i64, dest: Option<Vreg>) -> Result<Operand, CodegenError> {
        let sp = self
            .machine
            .cwvm()
            .sp
            .ok_or_else(|| err("machine declares no stack pointer"))?;
        let tid = self
            .find_addi(sp.class, offset)
            .ok_or_else(|| err("no add-immediate instruction for frame addressing"))?;
        let machine = self.machine;
        let t = machine.template(tid);
        let dest = dest.unwrap_or_else(|| self.out.new_vreg(sp.class, VregKind::Local));
        let mut ops = Vec::with_capacity(t.operands.len());
        let [Stmt::Assign(LValue::Operand(1), Expr::Bin(BinOp::Add, a, b))] = t.sem.as_slice()
        else {
            return Err(err("malformed add-immediate template"));
        };
        let (reg_slot, imm_slot) = match (&**a, &**b) {
            (Expr::Operand(x), Expr::Operand(y)) => (*x, *y),
            _ => return Err(err("malformed add-immediate template")),
        };
        for i in 0..t.operands.len() {
            let k = (i + 1) as u8;
            ops.push(if k == 1 {
                Operand::Vreg(dest)
            } else if k == reg_slot {
                Operand::Phys(sp)
            } else if k == imm_slot {
                Operand::Imm(ImmVal::Const(offset))
            } else if let OperandSpec::FixedReg(p) = t.operands[i] {
                Operand::Phys(p)
            } else {
                Operand::Imm(ImmVal::Const(0))
            });
        }
        self.push(Inst::new(tid, ops));
        Ok(Operand::Vreg(dest))
    }

    /// Finds a `$1 = $2 + #imm` template for `class` whose immediate
    /// range contains `value`.
    fn find_addi(&self, class: RegClassId, value: i64) -> Option<TemplateId> {
        let candidates = self
            .machine
            .selection_index()
            .value_candidates(RootShape::Bin(BinOp::Add), false);
        candidates.into_iter().find(|&tid| {
            let t = self.machine.template(tid);
            if t.escape.is_some() || t.def_class() != Some(class) {
                return false;
            }
            let [Stmt::Assign(LValue::Operand(1), Expr::Bin(BinOp::Add, a, b))] = t.sem.as_slice()
            else {
                return false;
            };
            let (Expr::Operand(x), Expr::Operand(y)) = (&**a, &**b) else {
                return false;
            };
            let (Some(x_spec), Some(y_spec)) = (
                t.operands.get((*x - 1) as usize),
                t.operands.get((*y - 1) as usize),
            ) else {
                return false;
            };
            matches!((x_spec, y_spec),
                (OperandSpec::Reg(c), OperandSpec::Imm(d))
                    if *c == class && self.machine.imm_def(*d).contains(value))
        })
    }

    /// Emits a move of `src` into virtual register `dest`.
    fn emit_move(&mut self, dest: Vreg, src: Operand) -> Result<(), CodegenError> {
        if src == Operand::Vreg(dest) {
            return Ok(());
        }
        let class = self.out.vreg(dest).class;
        self.emit_move_to(Operand::Vreg(dest), class, src)
    }

    /// Emits a move of `src` into physical register `dest`.
    fn emit_move_phys(&mut self, dest: PhysReg, src: Operand) -> Result<(), CodegenError> {
        if src == Operand::Phys(dest) {
            return Ok(());
        }
        self.emit_move_to(Operand::Phys(dest), dest.class, src)
    }

    fn emit_move_to(
        &mut self,
        dest: Operand,
        class: RegClassId,
        src: Operand,
    ) -> Result<(), CodegenError> {
        // Immediate source: use a load-immediate pattern.
        if let Operand::Imm(imm) = src {
            return self.emit_li(dest, class, imm);
        }
        if let Some(tid) = self.machine.move_template(class) {
            let t = self.machine.template(tid);
            let def_slot = *t.effects.defs.first().unwrap_or(&1);
            let use_slot = *t.effects.uses.first().unwrap_or(&2);
            let mut ops = self.fixed_ops(tid);
            ops[(def_slot - 1) as usize] = dest;
            ops[(use_slot - 1) as usize] = src;
            self.push(Inst::new(tid, ops));
            return Ok(());
        }
        if let Some(tid) = self.machine.move_escape(class) {
            let t = self.machine.template(tid);
            let name = t.escape.clone().expect("escape move");
            let f = self
                .escapes
                .get(&name)
                .ok_or_else(|| err(format!("escape `*{name}` not registered")))?;
            let ops = vec![dest, src];
            let mut ectx = EscapeCtx { sel: self };
            f(&mut ectx, &ops)?;
            return Ok(());
        }
        Err(err(format!(
            "no %move directive for class `{}`",
            self.machine.reg_class(class).name
        )))
    }

    /// Emits a load-immediate of `imm` into `dest` using the first
    /// matching `$1 = #imm`-shaped template (or an escape such as a
    /// `lui`/`ori` expansion).
    fn emit_li(
        &mut self,
        dest: Operand,
        class: RegClassId,
        imm: ImmVal,
    ) -> Result<(), CodegenError> {
        let machine = self.machine;
        for &tid in machine.selection_index().load_imm_candidates() {
            let t = machine.template(tid);
            if t.def_class() != Some(class) {
                continue;
            }
            let [Stmt::Assign(LValue::Operand(1), Expr::Operand(k))] = t.sem.as_slice() else {
                continue;
            };
            let slot = (*k - 1) as usize;
            let OperandSpec::Imm(d) = t.operands[slot] else {
                continue;
            };
            let def = self.machine.imm_def(d);
            let ok = match imm {
                ImmVal::Const(v) => def.contains(v),
                ImmVal::Sym(..) => def.flags.iter().any(|f| f == "abs"),
                _ => false,
            };
            if !ok {
                continue;
            }
            if let Some(name) = &t.escape {
                let f = self
                    .escapes
                    .get(name)
                    .ok_or_else(|| err(format!("escape `*{name}` not registered")))?;
                let mut ops = vec![dest; t.operands.len()];
                ops[slot] = Operand::Imm(imm);
                let mut ectx = EscapeCtx { sel: self };
                f(&mut ectx, &ops)?;
                return Ok(());
            }
            let mut ops = self.fixed_ops(tid);
            ops[0] = dest;
            ops[slot] = Operand::Imm(imm);
            self.push(Inst::new(tid, ops));
            return Ok(());
        }
        Err(err(format!(
            "no load-immediate pattern covers `{imm}` for class `{}`",
            self.machine.reg_class(class).name
        )))
    }
}

/// The API surface exposed to `*func` escape functions.
pub struct EscapeCtx<'a, 'b> {
    sel: &'a mut SelCtx<'b>,
}

impl<'a, 'b> EscapeCtx<'a, 'b> {
    /// The machine being targeted.
    pub fn machine(&self) -> &Machine {
        self.sel.machine
    }

    /// Allocates a fresh local virtual register.
    pub fn new_vreg(&mut self, class: RegClassId) -> Vreg {
        self.sel.out.new_vreg(class, VregKind::Local)
    }

    /// Emits the instruction whose directive carries `[label]`, with
    /// the given operands.
    ///
    /// # Errors
    ///
    /// Fails if no directive has that label.
    pub fn emit_labelled(&mut self, label: &str, ops: Vec<Operand>) -> Result<(), CodegenError> {
        let tid = self
            .sel
            .machine
            .template_by_label(label)
            .ok_or_else(|| err(format!("no directive labelled `{label}`")))?;
        self.sel.push(Inst::new(tid, ops));
        Ok(())
    }

    /// Emits the first instruction with the given mnemonic.
    ///
    /// # Errors
    ///
    /// Fails if the mnemonic is unknown.
    pub fn emit(&mut self, mnemonic: &str, ops: Vec<Operand>) -> Result<(), CodegenError> {
        let tid = self
            .sel
            .machine
            .template_by_mnemonic(mnemonic)
            .ok_or_else(|| err(format!("no instruction `{mnemonic}`")))?;
        self.sel.push(Inst::new(tid, ops));
        Ok(())
    }

    /// Half `i` of a register operand (for paired-register escapes).
    ///
    /// # Errors
    ///
    /// Fails on non-register operands.
    pub fn half(&self, op: Operand, i: u8) -> Result<Operand, CodegenError> {
        match op {
            Operand::Vreg(v) => {
                let class = self.sel.out.vreg(v).class;
                if self.sel.machine.reg_class(class).unit_width < 2 {
                    return Err(err(format!(
                        "half of single-unit vreg {v} (class `{}`)",
                        self.sel.machine.reg_class(class).name
                    )));
                }
                Ok(Operand::VregHalf(v, i))
            }
            Operand::Phys(p) => {
                // Find the overlapping narrower class register.
                let machine = self.sel.machine;
                let units: Vec<u32> = machine.units_of(p).collect();
                let want = units
                    .get(i as usize)
                    .copied()
                    .ok_or_else(|| err("register has no such half"))?;
                for (ci, c) in machine.reg_classes().iter().enumerate() {
                    if c.unit_width == 1 {
                        for r in 0..c.count {
                            if c.unit_base + r * c.unit_stride == want {
                                return Ok(Operand::Phys(PhysReg::new(
                                    marion_maril::RegClassId(ci as u32),
                                    r,
                                )));
                            }
                        }
                    }
                }
                Err(err("no single-unit class overlaps this register"))
            }
            other => Err(err(format!("operand {other} has no halves"))),
        }
    }

    /// The high half of an immediate (for `lui`-style sequences).
    pub fn imm_high(&self, imm: ImmVal) -> ImmVal {
        match imm {
            ImmVal::Const(v) => ImmVal::Const(((v as u32) >> 16) as i64),
            ImmVal::Sym(s, a) => ImmVal::SymHigh(s, a),
            other => other,
        }
    }

    /// The low half of an immediate.
    pub fn imm_low(&self, imm: ImmVal) -> ImmVal {
        match imm {
            ImmVal::Const(v) => ImmVal::Const((v as u32 & 0xffff) as i64),
            ImmVal::Sym(s, a) => ImmVal::SymLow(s, a),
            other => other,
        }
    }
}
