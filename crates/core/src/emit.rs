//! Assembly emission: linearises block schedules into instruction
//! *words* (one word per issue cycle — on a superscalar several
//! sub-operations pack into one word), fills delay slots with `nop`s
//! (paper §4.4: "Marion always fills branch delay slots with nops"),
//! and wraps the function in its prologue and epilogue.

use crate::code::*;
use crate::error::{CodegenError, Phase};
use crate::sched::Schedule;
use marion_maril::expr::{LValue, Stmt};
use marion_maril::{BinOp, Expr, Machine, OperandSpec, PhysReg, TemplateId};
use std::sync::Arc;

/// One machine instruction with fully physical operands.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmInst {
    /// The instruction template.
    pub template: TemplateId,
    /// Operands (no virtual registers remain).
    pub ops: Vec<Operand>,
}

/// One issue cycle's worth of instructions (a long instruction word on
/// machines like the i860; a single instruction elsewhere).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Word {
    /// Sub-operations issued together.
    pub insts: Vec<AsmInst>,
}

/// A basic block of emitted words.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsmBlock {
    /// The words, in execution order.
    pub words: Vec<Word>,
    /// The scheduler's cycle estimate for one execution of this block
    /// (used for estimated-vs-actual comparisons, Table 4).
    pub est_cycles: u32,
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
        self.blocks
            .iter()
            .map(|b| b.words.iter().map(|w| w.insts.len()).sum::<usize>())
            .sum()
    }

    /// How many of those instructions are `nop`s (delay-slot padding
    /// the filler could not replace with useful work).
    pub fn nop_count(&self, machine: &Machine) -> usize {
        let Some(nop) = machine.nop_template() else {
            return 0;
        };
        self.blocks
            .iter()
            .flat_map(|b| &b.words)
            .flat_map(|w| &w.insts)
            .filter(|i| i.template == nop)
            .count()
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
    for (bi, block) in func.blocks.iter().enumerate() {
        let schedule = schedules
            .get(bi)
            .ok_or_else(|| err(format!("missing schedule for block {bi}")))?;
        let mut words = linearize(machine, block, schedule)?;
        if bi == 0 && frame_size > 0 {
            let mut pro: Vec<Word> = Vec::new();
            pro.push(single(addi(machine, sp, -(frame_size as i64))?));
            if func.has_calls {
                let ra = cwvm.retaddr.ok_or_else(|| err("calls but no %retaddr"))?;
                pro.push(single(save_to(machine, ra, sp, ra_off as i64)?));
            }
            for (i, reg) in saves.iter().enumerate() {
                pro.push(single(save_to(
                    machine,
                    *reg,
                    sp,
                    (saves_base + 8 * i as u32) as i64,
                )?));
            }
            pro.extend(words);
            words = pro;
        }
        if bi == func.blocks.len() - 1 && frame_size > 0 {
            // Epilogue: restores and the frame pop go before the
            // return instruction (this block holds only the return,
            // already followed by its delay-slot nops).
            let mut epi: Vec<Word> = Vec::new();
            for (i, reg) in saves.iter().enumerate() {
                epi.push(single(load_from(
                    machine,
                    *reg,
                    sp,
                    (saves_base + 8 * i as u32) as i64,
                )?));
            }
            if func.has_calls {
                let ra = cwvm.retaddr.ok_or_else(|| err("calls but no %retaddr"))?;
                epi.push(single(load_from(machine, ra, sp, ra_off as i64)?));
            }
            epi.push(single(addi(machine, sp, frame_size as i64)?));
            epi.extend(words);
            words = epi;
        }
        blocks.push(AsmBlock {
            words,
            est_cycles: schedule.length,
        });
    }
    Ok(AsmFunc {
        name: func.name.clone(),
        blocks: Arc::new(blocks),
        frame_size,
    })
}

fn single(inst: AsmInst) -> Word {
    Word { insts: vec![inst] }
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

/// Turns a block schedule into words, padding mandatory delay slots
/// with `nop`s.
fn linearize(
    machine: &Machine,
    block: &CodeBlock,
    schedule: &Schedule,
) -> Result<Vec<Word>, CodegenError> {
    let mut words: Vec<Word> = Vec::new();
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
                words.push(nop_word(machine)?);
                pending -= 1;
            }
            continue;
        }
        let mut word = Word::default();
        for &i in idxs {
            let inst = &block.insts[i];
            for op in &inst.ops {
                if matches!(op, Operand::Vreg(_) | Operand::VregHalf(..)) {
                    return Err(err(format!("virtual register {op} survived to emission")));
                }
            }
            word.insts.push(AsmInst {
                template: inst.template,
                ops: inst.ops.clone(),
            });
        }
        words.push(word);
        pending = pending.saturating_sub(1);
        let ctl_slots = word_slots(machine, words.last().unwrap());
        pending = pending.max(ctl_slots);
    }
    // Remaining delay slots after the final branch: filled with nops
    // ("Marion always fills branch delay slots with nops", §4.4).
    for _ in 0..pending {
        words.push(nop_word(machine)?);
    }
    Ok(words)
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
    let nop = match machine.nop_template() {
        Some(t) => t,
        None => return Vec::new(),
    };
    let mut filled = Vec::new();
    for (bi, block) in func.blocks_mut().iter_mut().enumerate() {
        // Locate control words with positive slots. (A fill mutates
        // the word list; the guard keeps indices valid and at most one
        // fill happens per block, matching the one branch a block
        // normally ends with.)
        let n = block.words.len();
        'block_scan: for ci in 0..n {
            if ci >= block.words.len() {
                break;
            }
            // Only plain branches: a call's delay slot may not touch
            // the argument registers and a return's may not touch the
            // result registers, and that information is no longer
            // attached at this level — leave their slots as nops.
            let Some(ctl) = block.words[ci].insts.iter().find(|i| {
                let t = machine.template(i.template);
                (t.effects.is_cond_branch || t.effects.is_goto) && t.slots > 0
            }) else {
                continue;
            };
            let branch_mnemonic = machine.template(ctl.template).mnemonic.clone();
            let slots = machine.template(ctl.template).slots as usize;
            // The branch's data uses (condition registers).
            let mut branch_uses: Vec<Operand> = Vec::new();
            for inst in &block.words[ci].insts {
                let t = machine.template(inst.template);
                for k in &t.effects.uses {
                    if let Some(op) = inst.ops.get((*k - 1) as usize) {
                        branch_uses.push(*op);
                    }
                }
            }
            for s in 1..=slots {
                let si = ci + s;
                if si >= block.words.len() {
                    break;
                }
                let is_nop =
                    block.words[si].insts.len() == 1 && block.words[si].insts[0].template == nop;
                if !is_nop {
                    continue;
                }
                // Find the nearest safe candidate above the branch.
                // Never look past another control transfer: an
                // instruction from before an earlier branch executes
                // on both of its paths, but the delay slot only runs
                // when control reaches this branch.
                let mut cand: Option<usize> = None;
                for wi in (0..ci).rev() {
                    let w = &block.words[wi];
                    if wi != ci
                        && w.insts
                            .iter()
                            .any(|i| machine.template(i.template).effects.is_control())
                    {
                        break;
                    }
                    if w.insts.len() != 1 {
                        continue;
                    }
                    let inst = &w.insts[0];
                    let t = machine.template(inst.template);
                    if t.effects.is_control() || inst.template == nop {
                        continue;
                    }
                    // Explicitly-advanced-pipeline sub-operations are
                    // position-sensitive (each issue ticks its clock);
                    // never move them.
                    if t.affects_clock.is_some()
                        || !t.effects.temporal_uses.is_empty()
                        || !t.effects.temporal_defs.is_empty()
                    {
                        continue;
                    }
                    // Its defs must not feed the branch condition, nor
                    // anything between it and the branch.
                    let defs: Vec<Operand> = t
                        .effects
                        .defs
                        .iter()
                        .filter_map(|k| inst.ops.get((*k - 1) as usize).copied())
                        .collect();
                    let feeds = |ops: &[Operand]| {
                        ops.iter().any(|u| {
                            defs.iter().any(|d| match (d, u) {
                                (Operand::Phys(a), Operand::Phys(b)) => {
                                    machine.regs_overlap(*a, *b)
                                }
                                _ => d == u,
                            })
                        })
                    };
                    let mut safe = !feeds(&branch_uses);
                    // Check every word strictly between: no reads of
                    // our defs, no writes to our uses or defs, and no
                    // memory op if we touch memory.
                    let we_touch_mem = t.effects.reads_mem || t.effects.writes_mem;
                    if safe {
                        for mid in wi + 1..=ci {
                            for minst in &block.words[mid].insts {
                                let mt = machine.template(minst.template);
                                let muses: Vec<Operand> = mt
                                    .effects
                                    .uses
                                    .iter()
                                    .filter_map(|k| minst.ops.get((*k - 1) as usize).copied())
                                    .collect();
                                let mdefs: Vec<Operand> = mt
                                    .effects
                                    .defs
                                    .iter()
                                    .filter_map(|k| minst.ops.get((*k - 1) as usize).copied())
                                    .collect();
                                let our_uses: Vec<Operand> = t
                                    .effects
                                    .uses
                                    .iter()
                                    .filter_map(|k| inst.ops.get((*k - 1) as usize).copied())
                                    .collect();
                                if feeds(&muses)
                                    || feeds(&mdefs)
                                    || our_uses.iter().any(|u| {
                                        mdefs.iter().any(|d| match (d, u) {
                                            (Operand::Phys(a), Operand::Phys(b)) => {
                                                machine.regs_overlap(*a, *b)
                                            }
                                            _ => d == u,
                                        })
                                    })
                                    || mt.effects.is_call
                                    || (we_touch_mem
                                        && (mt.effects.reads_mem
                                            || mt.effects.writes_mem
                                            || mt.effects.is_call))
                                {
                                    safe = false;
                                }
                            }
                            if !safe {
                                break;
                            }
                        }
                    }
                    if safe {
                        cand = Some(wi);
                        break;
                    }
                }
                if let Some(wi) = cand {
                    let word = block.words.remove(wi);
                    filled.push(FillRecord {
                        block: bi,
                        inst: machine.template(word.insts[0].template).mnemonic.clone(),
                        branch: branch_mnemonic.clone(),
                        slot: s,
                    });
                    // Removal shifts indices left by one.
                    block.words[si - 1] = word;
                    break 'block_scan; // indices moved
                }
            }
        }
    }
    filled
}

/// Provenance of one filled branch delay slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillRecord {
    /// Block index within the function.
    pub block: usize,
    /// Mnemonic of the instruction hoisted into the slot.
    pub inst: String,
    /// Mnemonic of the branch whose slot was filled.
    pub branch: String,
    /// 1-based slot position behind the branch.
    pub slot: usize,
}

/// Delay slots demanded by the control transfers in a word.
fn word_slots(machine: &Machine, word: &Word) -> u32 {
    word.insts
        .iter()
        .filter(|i| machine.template(i.template).effects.is_control())
        .map(|i| machine.template(i.template).slots.unsigned_abs())
        .max()
        .unwrap_or(0)
}

fn nop_word(machine: &Machine) -> Result<Word, CodegenError> {
    let nop = machine
        .nop_template()
        .ok_or_else(|| err("machine has no `nop` (needed for delay slots)"))?;
    Ok(single(AsmInst {
        template: nop,
        ops: vec![],
    }))
}

/// Builds `reg = reg + value` from the machine's add-immediate
/// pattern.
fn addi(machine: &Machine, reg: PhysReg, value: i64) -> Result<AsmInst, CodegenError> {
    let (tid, reg_slot, imm_slot) = find_addi(machine, reg, value)
        .ok_or_else(|| err(format!("no add-immediate covers {value}")))?;
    let t = machine.template(tid);
    let mut ops = Vec::with_capacity(t.operands.len());
    for i in 0..t.operands.len() {
        let k = (i + 1) as u8;
        ops.push(if k == 1 || k == reg_slot {
            Operand::Phys(reg)
        } else if k == imm_slot {
            Operand::Imm(ImmVal::Const(value))
        } else if let OperandSpec::FixedReg(p) = t.operands[i] {
            Operand::Phys(p)
        } else {
            Operand::Imm(ImmVal::Const(0))
        });
    }
    Ok(AsmInst { template: tid, ops })
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

fn save_to(
    machine: &Machine,
    reg: PhysReg,
    sp: PhysReg,
    offset: i64,
) -> Result<AsmInst, CodegenError> {
    let tid = machine.spill_store(reg.class).ok_or_else(|| {
        err(format!(
            "no store for class `{}`",
            machine.reg_class(reg.class).name
        ))
    })?;
    Ok(AsmInst {
        template: tid,
        ops: vec![
            Operand::Phys(reg),
            Operand::Phys(sp),
            Operand::Imm(ImmVal::Const(offset)),
        ],
    })
}

fn load_from(
    machine: &Machine,
    reg: PhysReg,
    sp: PhysReg,
    offset: i64,
) -> Result<AsmInst, CodegenError> {
    let tid = machine.spill_load(reg.class).ok_or_else(|| {
        err(format!(
            "no load for class `{}`",
            machine.reg_class(reg.class).name
        ))
    })?;
    Ok(AsmInst {
        template: tid,
        ops: vec![
            Operand::Phys(reg),
            Operand::Phys(sp),
            Operand::Imm(ImmVal::Const(offset)),
        ],
    })
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
            for word in &block.words {
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
pub fn render_word(machine: &Machine, word: &Word, symbols: &[String], func: &str) -> String {
    let parts: Vec<String> = word
        .insts
        .iter()
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
    if word.insts.len() > 1 {
        // Name the long instruction word by the first common element.
        let mut common: Option<marion_maril::ResSet> = None;
        for inst in &word.insts {
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
