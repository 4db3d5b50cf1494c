//! Assembly emission: linearises block schedules into instruction
//! *words* (one word per issue cycle — on a superscalar several
//! sub-operations pack into one word), fills delay slots with `nop`s
//! (paper §4.4: "Marion always fills branch delay slots with nops"),
//! and wraps the function in its prologue and epilogue.
//!
//! An emitted block is flat: its sub-operations sit in issue order in
//! one vector, their operands back to back in a second, and the word
//! boundaries in a third, each built at exact capacity. A block costs three
//! allocations however many instructions it holds, and an instruction
//! costs its template, one operand-pool index and its operands. Only
//! this module knows that layout: everything else reads a block
//! through [`AsmBlock::words`].

use crate::code::*;
use crate::error::{CodegenError, Phase};
use crate::sched::Schedule;
use marion_maril::expr::{LValue, Stmt};
use marion_maril::{BinOp, Expr, Machine, OperandSpec, PhysReg, TemplateId};
use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

/// One machine instruction with fully physical operands: a view into
/// the [`AsmBlock`] that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsmInst<'a> {
    /// The instruction template.
    pub template: TemplateId,
    /// Operands, `$k` = `ops[k-1]` (no virtual registers remain).
    pub ops: &'a [Operand],
}

/// A stored sub-operation. Its operands start where the previous
/// sub-operation's end in the block's operand pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sub {
    template: TemplateId,
    /// End of its operands in [`AsmBlock::ops`].
    ops_end: u32,
}

/// A basic block of emitted words.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct AsmBlock {
    /// Every sub-operation, in issue order.
    subs: Vec<Sub>,
    /// The sub-operations' operands, back to back.
    ops: Vec<Operand>,
    /// Where each word ends in `subs`, in issue order.
    word_ends: Vec<u32>,
    /// The scheduler's cycle estimate for one execution of this block
    /// (used for estimated-vs-actual comparisons, Table 4).
    pub est_cycles: u32,
}

impl AsmBlock {
    /// A block holding `words`, each the sub-operations issued together
    /// in one cycle.
    pub fn from_words<'a, W>(est_cycles: u32, words: impl IntoIterator<Item = W>) -> AsmBlock
    where
        W: IntoIterator<Item = AsmInst<'a>>,
    {
        let mut b = BlockBuilder::default();
        for word in words {
            for inst in word {
                b.push(inst.template, inst.ops.iter().copied());
            }
            b.end_word();
        }
        b.finish(est_cycles)
    }

    /// The words, in execution order.
    pub fn words(
        &self,
    ) -> impl ExactSizeIterator<Item = AsmWord<'_>> + DoubleEndedIterator + Clone + '_ {
        (0..self.word_ends.len()).map(move |w| self.word(w))
    }

    /// Every sub-operation's template and operands, in issue order, for
    /// editing in place (the words keep their shape).
    pub fn insts_mut(&mut self) -> impl Iterator<Item = (&mut TemplateId, &mut [Operand])> {
        let mut rest = &mut self.ops[..];
        let mut start = 0;
        self.subs.iter_mut().map(move |sub| {
            let end = sub.ops_end as usize;
            let (ops, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            (rest, start) = (tail, end);
            (&mut sub.template, ops)
        })
    }

    fn word(&self, w: usize) -> AsmWord<'_> {
        AsmWord {
            block: self,
            start: if w == 0 { 0 } else { self.word_ends[w - 1] },
            end: self.word_ends[w],
        }
    }

    /// Where sub-operation `k`'s operands start in `ops`.
    fn ops_start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.subs[k - 1].ops_end as usize
        }
    }

    fn inst(&self, k: usize) -> AsmInst<'_> {
        let sub = self.subs[k];
        AsmInst {
            template: sub.template,
            ops: &self.ops[self.ops_start(k)..sub.ops_end as usize],
        }
    }

    /// Heap bytes of the three arrays, by capacity.
    fn heap_bytes(&self) -> usize {
        self.subs.capacity() * size_of::<Sub>()
            + self.ops.capacity() * size_of::<Operand>()
            + self.word_ends.capacity() * size_of::<u32>()
    }

    /// Moves word `from` (a lone sub-operation) into the place of the
    /// later word `to` (a lone `nop`), dropping the `nop`; the words
    /// between move up by one. The sub-operation and word arrays keep
    /// their capacity, one entry over their new length: shrinking by
    /// so little would not return memory to the allocator.
    fn hoist_into(&mut self, from: usize, to: usize) {
        let (c, p) = (self.word(from).start as usize, self.word(to).start as usize);
        let (c_start, p_start) = (self.ops_start(c), self.ops_start(p));
        let moved = self.subs[c].ops_end as usize - c_start;
        let dropped = self.subs[p].ops_end as usize - p_start;
        // Operands: [moved][between][nop] becomes [between][moved].
        self.ops[c_start..p_start].rotate_left(moved);
        self.ops.drain(p_start..p_start + dropped);
        for sub in &mut self.subs[c + 1..p] {
            sub.ops_end -= moved as u32;
        }
        self.subs[c].ops_end = p_start as u32;
        self.subs.remove(p);
        self.subs[c..p].rotate_left(1);
        for sub in &mut self.subs[p..] {
            sub.ops_end -= dropped as u32;
        }
        self.word_ends.remove(from);
        for end in &mut self.word_ends[from..] {
            *end -= 1;
        }
    }
}

impl fmt::Debug for AsmBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsmBlock")
            .field("words", &self.words().collect::<Vec<_>>())
            .field("est_cycles", &self.est_cycles)
            .finish()
    }
}

/// One issue cycle's sub-operations (a long instruction word on
/// machines like the i860; a single instruction elsewhere): a view
/// into its [`AsmBlock`].
#[derive(Clone, Copy)]
pub struct AsmWord<'a> {
    block: &'a AsmBlock,
    /// The word's range in the block's sub-operations.
    start: u32,
    end: u32,
}

impl<'a> AsmWord<'a> {
    /// The sub-operations issued together, in issue order.
    pub fn insts(self) -> impl ExactSizeIterator<Item = AsmInst<'a>> + DoubleEndedIterator + Clone {
        let block = self.block;
        (self.start..self.end).map(move |k| block.inst(k as usize))
    }

    /// How many sub-operations the word issues.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the word issues nothing.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

impl fmt::Debug for AsmWord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.insts()).finish()
    }
}

/// Collects one block's words. [`BlockBuilder::finish`] copies them
/// into an exact-capacity [`AsmBlock`] and empties the builder, so one
/// builder's buffers serve every block of a function.
#[derive(Default)]
pub(crate) struct BlockBuilder {
    subs: Vec<Sub>,
    ops: Vec<Operand>,
    word_ends: Vec<u32>,
}

impl BlockBuilder {
    /// Appends a sub-operation to the open word.
    pub(crate) fn push(&mut self, template: TemplateId, ops: impl IntoIterator<Item = Operand>) {
        self.ops.extend(ops);
        self.subs.push(Sub {
            template,
            ops_end: self.ops.len() as u32,
        });
    }

    /// Closes the open word.
    pub(crate) fn end_word(&mut self) {
        self.word_ends.push(self.subs.len() as u32);
    }

    /// Puts `front`'s words ahead of this builder's, emptying `front`.
    fn prepend(&mut self, front: &mut BlockBuilder) {
        let (subs, ops) = (front.subs.len() as u32, front.ops.len() as u32);
        for sub in &mut self.subs {
            sub.ops_end += ops;
        }
        for end in &mut self.word_ends {
            *end += subs;
        }
        self.subs.splice(0..0, front.subs.drain(..));
        self.ops.splice(0..0, front.ops.drain(..));
        self.word_ends.splice(0..0, front.word_ends.drain(..));
    }

    /// The block built so far, at exact capacity; the builder is left
    /// empty.
    pub(crate) fn finish(&mut self, est_cycles: u32) -> AsmBlock {
        debug_assert_eq!(
            self.word_ends.last().copied().unwrap_or(0),
            self.subs.len() as u32,
            "a word is still open"
        );
        let block = AsmBlock {
            subs: self.subs.to_vec(),
            ops: self.ops.to_vec(),
            word_ends: self.word_ends.to_vec(),
            est_cycles,
        };
        self.subs.clear();
        self.ops.clear();
        self.word_ends.clear();
        block
    }
}

/// An emitted function.
///
/// The blocks are shared copy-on-write: cloning an `AsmFunc` clones a
/// pointer, so the compile cache and every program it serves hold one
/// copy of the code. Read them through the field; change them only
/// through [`AsmFunc::blocks_mut`], which copies first when the
/// blocks are shared.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmFunc {
    /// Function name.
    pub name: String,
    /// Blocks, in layout order; branch targets index this vector.
    pub blocks: Arc<Vec<AsmBlock>>,
    /// Total frame size in bytes.
    pub frame_size: u32,
}

impl AsmFunc {
    /// The blocks, for mutation ([`Arc::make_mut`]): this function's
    /// own copy, made first if another holder shares the current one.
    pub fn blocks_mut(&mut self) -> &mut Vec<AsmBlock> {
        Arc::make_mut(&mut self.blocks)
    }

    /// Total number of machine instructions (sub-operations).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.subs.len()).sum()
    }

    /// How many of those instructions are `nop`s (delay-slot padding
    /// the filler could not replace with useful work).
    pub fn nop_count(&self, machine: &Machine) -> usize {
        let Some(nop) = machine.nop_template() else {
            return 0;
        };
        self.blocks
            .iter()
            .flat_map(|b| &b.subs)
            .filter(|s| s.template == nop)
            .count()
    }

    /// Heap bytes the function holds, by capacity, so the figure is
    /// deterministic: its name, the shared block vector and every
    /// block's arrays. A holder of shared blocks counts them in full.
    pub fn heap_bytes(&self) -> usize {
        // The `Arc` allocation holds two reference counts beside the
        // vector.
        let arc = 2 * size_of::<usize>() + size_of::<Vec<AsmBlock>>();
        self.name.capacity()
            + arc
            + self.blocks.capacity() * size_of::<AsmBlock>()
            + self.blocks.iter().map(AsmBlock::heap_bytes).sum::<usize>()
    }
}

/// An emitted program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsmProgram {
    /// Functions in module order.
    pub funcs: Vec<AsmFunc>,
}

impl AsmProgram {
    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&AsmFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Total instruction count (the denominator of the paper's
    /// *dilation* metric).
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }
}

fn err(msg: impl Into<String>) -> CodegenError {
    CodegenError::new(Phase::Emit, msg)
}

/// Emits one function from its scheduled blocks.
///
/// # Errors
///
/// Fails if virtual registers survive (allocation was skipped), if a
/// needed `nop`/add-immediate/spill template is missing, or if the
/// frame does not fit the add-immediate range.
pub fn emit_func(
    machine: &Machine,
    func: &CodeFunc,
    schedules: &[Schedule],
) -> Result<AsmFunc, CodegenError> {
    let cwvm = machine.cwvm();
    let sp = cwvm
        .sp
        .ok_or_else(|| err("machine declares no stack pointer"))?;

    // Frame layout (sp-relative): [locals][spills][saves][ra], rounded
    // to 8.
    let saves = used_callee_saves(machine, func);
    let saves_base = func.local_frame_size + func.spill_size;
    let ra_off = saves_base + 8 * saves.len() as u32;
    let mut frame_size = ra_off + if func.has_calls { 8 } else { 0 };
    frame_size = (frame_size + 7) & !7;

    let mut blocks = Vec::with_capacity(func.blocks.len());
    let (mut words, mut frame) = (BlockBuilder::default(), BlockBuilder::default());
    for (bi, block) in func.blocks.iter().enumerate() {
        let schedule = schedules
            .get(bi)
            .ok_or_else(|| err(format!("missing schedule for block {bi}")))?;
        linearize(&mut words, machine, block, schedule)?;
        if bi == 0 && frame_size > 0 {
            addi(&mut frame, machine, sp, -(frame_size as i64))?;
            if func.has_calls {
                let ra = cwvm.retaddr.ok_or_else(|| err("calls but no %retaddr"))?;
                save_to(&mut frame, machine, ra, sp, ra_off as i64)?;
            }
            for (i, reg) in saves.iter().enumerate() {
                save_to(
                    &mut frame,
                    machine,
                    *reg,
                    sp,
                    (saves_base + 8 * i as u32) as i64,
                )?;
            }
            words.prepend(&mut frame);
        }
        if bi == func.blocks.len() - 1 && frame_size > 0 {
            // Epilogue: restores and the frame pop go before the
            // return instruction (this block holds only the return,
            // already followed by its delay-slot nops).
            for (i, reg) in saves.iter().enumerate() {
                load_from(
                    &mut frame,
                    machine,
                    *reg,
                    sp,
                    (saves_base + 8 * i as u32) as i64,
                )?;
            }
            if func.has_calls {
                let ra = cwvm.retaddr.ok_or_else(|| err("calls but no %retaddr"))?;
                load_from(&mut frame, machine, ra, sp, ra_off as i64)?;
            }
            addi(&mut frame, machine, sp, frame_size as i64)?;
            words.prepend(&mut frame);
        }
        blocks.push(words.finish(schedule.length));
    }
    Ok(AsmFunc {
        name: func.name.clone(),
        blocks: Arc::new(blocks),
        frame_size,
    })
}

fn used_callee_saves(machine: &Machine, func: &CodeFunc) -> Vec<PhysReg> {
    let mut out: Vec<PhysReg> = Vec::new();
    for block in &func.blocks {
        for inst in &block.insts {
            for op in inst.def_operands(machine) {
                if let Operand::Phys(p) = op {
                    for cs in &machine.cwvm().callee_save {
                        // The stack pointer is managed by the prologue
                        // itself; the return address has its own slot.
                        // The frame pointer is NOT exempt: machines
                        // that leave it allocable (TOYP) must preserve
                        // it like any other callee-save.
                        if Some(*cs) == machine.cwvm().sp {
                            continue;
                        }
                        if Some(*cs) == machine.cwvm().retaddr {
                            continue;
                        }
                        if machine.regs_overlap(*p, *cs) && !out.contains(cs) {
                            out.push(*cs);
                        }
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Appends a block schedule's words to `words`, padding mandatory
/// delay slots with `nop`s.
fn linearize(
    words: &mut BlockBuilder,
    machine: &Machine,
    block: &CodeBlock,
    schedule: &Schedule,
) -> Result<(), CodegenError> {
    // Delay slots are architecturally executed: the `pending` counter
    // tracks how many words after a control transfer must exist. Empty
    // cycles inside that window become nops (never drop the cycle — a
    // following goto would otherwise land in the branch's delay slot
    // and hijack the redirect); empty cycles outside it are interlock
    // stalls and need no instruction.
    let mut pending = 0u32;
    for idxs in &schedule.cycles {
        if idxs.is_empty() {
            if pending > 0 {
                nop_word(words, machine)?;
                pending -= 1;
            }
            continue;
        }
        for &i in idxs {
            let inst = &block.insts[i];
            if let Some(op) = inst
                .ops
                .iter()
                .find(|op| matches!(op, Operand::Vreg(_) | Operand::VregHalf(..)))
            {
                return Err(err(format!("virtual register {op} survived to emission")));
            }
            words.push(inst.template, inst.ops.iter().copied());
        }
        words.end_word();
        pending = pending.saturating_sub(1);
        let ctl_slots = word_slots(machine, idxs.iter().map(|&i| block.insts[i].template));
        pending = pending.max(ctl_slots);
    }
    // Remaining delay slots after the final branch: filled with nops
    // ("Marion always fills branch delay slots with nops", §4.4).
    for _ in 0..pending {
        nop_word(words, machine)?;
    }
    Ok(())
}

/// Fills branch delay slots with useful instructions (paper §4.4:
/// "Gross and Hennessy's algorithm for filling delay slots \[GH82\]
/// could be included in Marion as a separate intra-procedural pass
/// after instruction scheduling" — this is that pass, in its
/// conservative fill-from-above form).
///
/// Within each block, a `nop` in an *always-executed* delay slot
/// (positive `slots`) is replaced by hoisting the nearest preceding
/// word when it is safe: a single non-control instruction whose
/// results the branch does not read (the instruction still executes
/// exactly once, before the redirect takes effect, so every
/// downstream consumer still sees it). Annulled slots (negative
/// `slots`) are left as `nop`s. Returns one [`FillRecord`] per slot
/// filled, so the driver can trace which instruction moved where.
pub fn fill_delay_slots(machine: &Machine, func: &mut AsmFunc) -> Vec<FillRecord> {
    let Some(nop) = machine.nop_template() else {
        return Vec::new();
    };
    let mut filled = Vec::new();
    for (bi, block) in func.blocks_mut().iter_mut().enumerate() {
        // At most one fill per block, matching the one branch a block
        // normally ends with.
        if let Some((wi, si, slot, branch)) = find_fill(machine, nop, block) {
            let inst = block.word(wi).insts().next().expect("a lone sub-operation");
            filled.push(FillRecord {
                block: bi,
                inst: inst.template,
                branch,
                slot,
            });
            block.hoist_into(wi, si);
        }
    }
    filled
}

/// The first fill `block` admits: the candidate word, the `nop` word it
/// replaces, the 1-based slot and the branch's template.
fn find_fill(
    machine: &Machine,
    nop: TemplateId,
    block: &AsmBlock,
) -> Option<(usize, usize, usize, TemplateId)> {
    let n = block.word_ends.len();
    for ci in 0..n {
        let branch_word = block.word(ci);
        // Only plain branches: a call's delay slot may not touch the
        // argument registers and a return's may not touch the result
        // registers, and that information is no longer attached at
        // this level — leave their slots as nops.
        let Some(ctl) = branch_word.insts().find(|i| {
            let t = machine.template(i.template);
            (t.effects.is_cond_branch || t.effects.is_goto) && t.slots > 0
        }) else {
            continue;
        };
        let slots = machine.template(ctl.template).slots as usize;
        for s in 1..=slots {
            let si = ci + s;
            if si >= n {
                break;
            }
            let slot = block.word(si);
            let is_nop = slot.len() == 1 && slot.insts().all(|i| i.template == nop);
            if !is_nop {
                continue;
            }
            if let Some(wi) = fill_candidate(machine, nop, block, ci) {
                return Some((wi, si, s, ctl.template));
            }
        }
    }
    None
}

/// The nearest word above the branch word `ci` that may move into one
/// of its delay slots. Never looks past another control transfer: an
/// instruction from before an earlier branch executes on both of its
/// paths, but the delay slot only runs when control reaches this
/// branch.
fn fill_candidate(
    machine: &Machine,
    nop: TemplateId,
    block: &AsmBlock,
    ci: usize,
) -> Option<usize> {
    // The branch word's data uses (condition registers).
    let branch_uses = || {
        block
            .word(ci)
            .insts()
            .flat_map(|i| operands(i, &machine.template(i.template).effects.uses))
    };
    for wi in (0..ci).rev() {
        let w = block.word(wi);
        if w.insts()
            .any(|i| machine.template(i.template).effects.is_control())
        {
            return None;
        }
        let mut insts = w.insts();
        let (Some(inst), None) = (insts.next(), insts.next()) else {
            continue;
        };
        let t = machine.template(inst.template);
        if t.effects.is_control() || inst.template == nop {
            continue;
        }
        // Explicitly-advanced-pipeline sub-operations are
        // position-sensitive (each issue ticks its clock); never move
        // them.
        if t.affects_clock.is_some()
            || !t.effects.temporal_uses.is_empty()
            || !t.effects.temporal_defs.is_empty()
        {
            continue;
        }
        // Its defs must not feed the branch condition, nor anything
        // between it and the branch.
        let defs = operands(inst, &t.effects.defs);
        if clashes(machine, defs.clone(), branch_uses()) {
            continue;
        }
        // Check every word strictly between: no reads of our defs, no
        // writes to our uses or defs, and no memory op if we touch
        // memory.
        let we_touch_mem = t.effects.reads_mem || t.effects.writes_mem;
        let safe = (wi + 1..=ci)
            .flat_map(|mid| block.word(mid).insts())
            .all(|minst| {
                let mt = machine.template(minst.template);
                let mdefs = operands(minst, &mt.effects.defs);
                !(clashes(machine, defs.clone(), operands(minst, &mt.effects.uses))
                    || clashes(machine, defs.clone(), mdefs.clone())
                    || clashes(machine, mdefs, operands(inst, &t.effects.uses))
                    || mt.effects.is_call
                    || (we_touch_mem
                        && (mt.effects.reads_mem || mt.effects.writes_mem || mt.effects.is_call)))
            });
        if safe {
            return Some(wi);
        }
    }
    None
}

/// Operands `$k` of `inst`, for each `k` in `ks` it has.
fn operands<'a>(inst: AsmInst<'a>, ks: &'a [u8]) -> impl Iterator<Item = &'a Operand> + Clone + 'a {
    ks.iter()
        .filter_map(move |k| inst.ops.get((*k - 1) as usize))
}

/// Whether a write to one of `defs` reaches one of `ops`: the same
/// operand, or overlapping physical registers.
fn clashes<'a, 'b>(
    machine: &Machine,
    defs: impl Iterator<Item = &'a Operand> + Clone,
    mut ops: impl Iterator<Item = &'b Operand>,
) -> bool {
    ops.any(|u| {
        defs.clone().any(|d| match (d, u) {
            (Operand::Phys(a), Operand::Phys(b)) => machine.regs_overlap(*a, *b),
            _ => d == u,
        })
    })
}

/// Provenance of one filled branch delay slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillRecord {
    /// Block index within the function.
    pub block: usize,
    /// Template of the instruction hoisted into the slot.
    pub inst: TemplateId,
    /// Template of the branch whose slot was filled.
    pub branch: TemplateId,
    /// 1-based slot position behind the branch.
    pub slot: usize,
}

/// Delay slots demanded by the control transfers among `templates`
/// (one word's).
fn word_slots(machine: &Machine, templates: impl Iterator<Item = TemplateId>) -> u32 {
    templates
        .map(|t| machine.template(t))
        .filter(|t| t.effects.is_control())
        .map(|t| t.slots.unsigned_abs())
        .max()
        .unwrap_or(0)
}

fn nop_word(words: &mut BlockBuilder, machine: &Machine) -> Result<(), CodegenError> {
    let nop = machine
        .nop_template()
        .ok_or_else(|| err("machine has no `nop` (needed for delay slots)"))?;
    words.push(nop, []);
    words.end_word();
    Ok(())
}

/// Appends the word `reg = reg + value`, from the machine's
/// add-immediate pattern.
fn addi(
    words: &mut BlockBuilder,
    machine: &Machine,
    reg: PhysReg,
    value: i64,
) -> Result<(), CodegenError> {
    let (tid, reg_slot, imm_slot) = find_addi(machine, reg, value)
        .ok_or_else(|| err(format!("no add-immediate covers {value}")))?;
    let t = machine.template(tid);
    let ops = t.operands.iter().enumerate().map(|(i, spec)| {
        let k = (i + 1) as u8;
        if k == 1 || k == reg_slot {
            Operand::Phys(reg)
        } else if k == imm_slot {
            Operand::Imm(ImmVal::Const(value))
        } else if let OperandSpec::FixedReg(p) = spec {
            Operand::Phys(*p)
        } else {
            Operand::Imm(ImmVal::Const(0))
        }
    });
    words.push(tid, ops);
    words.end_word();
    Ok(())
}

fn find_addi(machine: &Machine, reg: PhysReg, value: i64) -> Option<(TemplateId, u8, u8)> {
    machine.templates().iter().enumerate().find_map(|(i, t)| {
        if t.escape.is_some() || t.def_class() != Some(reg.class) {
            return None;
        }
        let [Stmt::Assign(LValue::Operand(1), Expr::Bin(BinOp::Add, a, b))] = t.sem.as_slice()
        else {
            return None;
        };
        let (Expr::Operand(x), Expr::Operand(y)) = (&**a, &**b) else {
            return None;
        };
        let x_spec = t.operands.get((*x - 1) as usize)?;
        let y_spec = t.operands.get((*y - 1) as usize)?;
        match (x_spec, y_spec) {
            (OperandSpec::Reg(c), OperandSpec::Imm(d))
                if *c == reg.class && machine.imm_def(*d).contains(value) =>
            {
                Some((TemplateId(i as u32), *x, *y))
            }
            _ => None,
        }
    })
}

/// Appends the word storing `reg` to `offset(sp)`.
fn save_to(
    words: &mut BlockBuilder,
    machine: &Machine,
    reg: PhysReg,
    sp: PhysReg,
    offset: i64,
) -> Result<(), CodegenError> {
    let tid = machine.spill_store(reg.class).ok_or_else(|| {
        err(format!(
            "no store for class `{}`",
            machine.reg_class(reg.class).name
        ))
    })?;
    words.push(tid, frame_slot(reg, sp, offset));
    words.end_word();
    Ok(())
}

/// Appends the word loading `reg` from `offset(sp)`.
fn load_from(
    words: &mut BlockBuilder,
    machine: &Machine,
    reg: PhysReg,
    sp: PhysReg,
    offset: i64,
) -> Result<(), CodegenError> {
    let tid = machine.spill_load(reg.class).ok_or_else(|| {
        err(format!(
            "no load for class `{}`",
            machine.reg_class(reg.class).name
        ))
    })?;
    words.push(tid, frame_slot(reg, sp, offset));
    words.end_word();
    Ok(())
}

/// The operands of a spill-template save or restore.
fn frame_slot(reg: PhysReg, sp: PhysReg, offset: i64) -> [Operand; 3] {
    [
        Operand::Phys(reg),
        Operand::Phys(sp),
        Operand::Imm(ImmVal::Const(offset)),
    ]
}

/// Renders a program as human-readable assembly. `symbols` maps
/// [`marion_ir::SymbolId`] indices to names.
pub fn render_program(machine: &Machine, program: &AsmProgram, symbols: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for func in &program.funcs {
        let _ = writeln!(out, "{}:    # frame {} bytes", func.name, func.frame_size);
        for (bi, block) in func.blocks.iter().enumerate() {
            let _ = writeln!(out, ".L{}_{bi}:", func.name);
            for word in block.words() {
                let text = render_word(machine, word, symbols, &func.name);
                let _ = writeln!(out, "    {text}");
            }
        }
    }
    out
}

/// Renders one word. Packed words are shown joined with `;` and, when
/// every sub-operation carries a packing class, prefixed with the long
/// instruction word's element name.
pub fn render_word(machine: &Machine, word: AsmWord<'_>, symbols: &[String], func: &str) -> String {
    let parts: Vec<String> = word
        .insts()
        .map(|inst| {
            let t = machine.template(inst.template);
            let ops: Vec<String> = inst
                .ops
                .iter()
                .map(|op| render_operand(machine, op, symbols, func))
                .collect();
            if ops.is_empty() {
                t.mnemonic.clone()
            } else {
                format!("{} {}", t.mnemonic, ops.join(", "))
            }
        })
        .collect();
    if word.len() > 1 {
        // Name the long instruction word by the first common element.
        let mut common: Option<marion_maril::ResSet> = None;
        for inst in word.insts() {
            if let Some(cid) = machine.template(inst.template).class {
                let elems = machine.class(cid).elements;
                common = Some(match common {
                    None => elems,
                    Some(c) => c.intersection(&elems),
                });
            }
        }
        if let Some(c) = common {
            if let Some(eid) = c.iter().next() {
                return format!(
                    "[{}] {}",
                    machine.elements()[eid as usize],
                    parts.join(" ; ")
                );
            }
        }
        return parts.join(" ; ");
    }
    parts.join(" ; ")
}

fn render_operand(machine: &Machine, op: &Operand, symbols: &[String], func: &str) -> String {
    match op {
        Operand::Phys(p) => format!("{}{}", machine.reg_class(p.class).name, p.index),
        Operand::Imm(ImmVal::Const(v)) => v.to_string(),
        Operand::Imm(ImmVal::Sym(s, a)) => {
            let name = symbols.get(s.0 as usize).cloned().unwrap_or(s.to_string());
            if *a == 0 {
                name
            } else {
                format!("{name}+{a}")
            }
        }
        Operand::Imm(ImmVal::SymHigh(s, a)) => {
            let name = symbols.get(s.0 as usize).cloned().unwrap_or(s.to_string());
            format!("%hi({name}+{a})")
        }
        Operand::Imm(ImmVal::SymLow(s, a)) => {
            let name = symbols.get(s.0 as usize).cloned().unwrap_or(s.to_string());
            format!("%lo({name}+{a})")
        }
        Operand::Block(b) => format!(".L{func}_{}", b.0),
        Operand::Func(s) => symbols.get(s.0 as usize).cloned().unwrap_or(s.to_string()),
        other => other.to_string(),
    }
}
