//! Functional execution of instruction semantics.
//!
//! Each instruction's behaviour is its Maril semantic expression —
//! the same trees the selector matched — evaluated against the
//! simulated register file, latches and memory. A whole instruction
//! word reads pre-word state and commits afterwards (EAP tick
//! semantics).
//!
//! Semantics are compiled once per template into a postfix `Code`
//! program over a small value stack, with latch names resolved to ids;
//! operands are decoded once per sub-operation into `Opnd`s. A
//! problem found while decoding (an unplaceable symbol, an unknown
//! latch) becomes a fault that fires only if the instruction executes.
//!
//! A sub-operation whose semantics have one of the common shapes —
//! a copy, a binary operation, a `mem[a + b]` load or store, a nop, a
//! goto or a conditional branch — and whose data operands are all
//! registers or immediates decodes to a `Form` that runs without the
//! stack. The `Code` program stays the reference: each form calls the
//! helpers its `Code` steps call, in the same order, so effects and
//! fault texts are the same.

use crate::regs::{RegFile, RegSlot};
use crate::{fault, SimError};
use marion_core::{AsmInst, Operand};
use marion_ir::interp::{binop, compare, convert, InterpError, Value};
use marion_maril::expr::{LValue, Stmt};
use marion_maril::{BinOp, Builtin, Expr, Machine, ResSet, Template, Ty, UnOp};

/// A control-flow event produced by an instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Control {
    /// Conditional/unconditional branch to a block of the current
    /// function.
    Branch(marion_ir::BlockId),
    /// Call to a function symbol.
    Call(marion_ir::SymbolId),
    /// Return to the address in the return-address register.
    Return,
}

/// One step of a template's compiled semantics. Expression steps push
/// one value; statement steps pop their operands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Code {
    /// Push operand `$k`.
    Operand(u8),
    /// Push an integer literal.
    Int(i64),
    /// Push a temporal latch.
    Latch(u32),
    /// Pop an address and push the value loaded from it at the
    /// template's width; `record` adds the address to the data-cache
    /// trace (loads nested in another load's address, or in a branch
    /// condition, are not traced).
    Load {
        record: bool,
    },
    Bin(BinOp),
    Un(UnOp),
    Builtin(Builtin),
    Convert(Ty),
    /// Pop a value into register operand `$k`.
    SetReg(u8),
    /// Pop a value into a latch.
    SetLatch(u32),
    /// Pop an address, then the value stored there.
    Store,
    /// Pop the right and left operands; branch to `$k` if the relation
    /// holds.
    CondGoto(BinOp, u8),
    Goto(u8),
    Call(u8),
    Return,
    /// Fail with message `faults[i]`.
    Fault(u32),
}

/// Compiled semantics of the templates a program uses.
#[derive(Debug, Default)]
pub(crate) struct Semantics {
    code: Vec<Code>,
    faults: Vec<String>,
    /// Per template id: its code range, once compiled.
    compiled: Vec<Option<(u32, u32)>>,
}

impl Semantics {
    /// The code range of `template` (index `id`), compiling it on
    /// first use.
    pub(crate) fn of(&mut self, machine: &Machine, id: usize, template: &Template) -> (u32, u32) {
        if self.compiled.len() <= id {
            self.compiled.resize(id + 1, None);
        }
        if let Some(range) = self.compiled[id] {
            return range;
        }
        let start = self.code.len();
        if let Err(msg) = compile_sem(machine, &template.sem, &mut self.code) {
            self.code.truncate(start);
            self.push_fault(msg);
        }
        let range = (start as u32, self.code.len() as u32);
        self.compiled[id] = Some(range);
        range
    }

    /// Code for a sub-operation whose template id is not in the
    /// machine.
    pub(crate) fn unknown_template(&mut self, id: u32) -> (u32, u32) {
        let start = self.code.len() as u32;
        self.push_fault(format!("unknown template #{id}"));
        (start, start + 1)
    }

    fn push_fault(&mut self, msg: String) {
        self.code.push(Code::Fault(self.faults.len() as u32));
        self.faults.push(msg);
    }
}

fn latch(machine: &Machine, name: &str) -> Result<u32, String> {
    machine
        .temporal_by_name(name)
        .map(|id| id.0)
        .ok_or_else(|| format!("unknown latch {name}"))
}

fn compile_sem(machine: &Machine, sem: &[Stmt], out: &mut Vec<Code>) -> Result<(), String> {
    for stmt in sem {
        match stmt {
            Stmt::Nop => {}
            Stmt::Assign(lv, rhs) => {
                compile_expr(machine, rhs, true, out)?;
                let store = match lv {
                    LValue::Operand(k) => Code::SetReg(*k),
                    LValue::Temporal(name) => Code::SetLatch(latch(machine, name)?),
                    LValue::Mem(_, addr) => {
                        compile_expr(machine, addr, true, out)?;
                        Code::Store
                    }
                };
                out.push(store);
            }
            Stmt::CondGoto {
                rel,
                lhs,
                rhs,
                target,
            } => {
                compile_expr(machine, lhs, false, out)?;
                compile_expr(machine, rhs, false, out)?;
                out.push(Code::CondGoto(*rel, *target));
            }
            Stmt::Goto(k) => out.push(Code::Goto(*k)),
            Stmt::Call(k) => out.push(Code::Call(*k)),
            Stmt::Return => out.push(Code::Return),
        }
    }
    Ok(())
}

fn compile_expr(
    machine: &Machine,
    e: &Expr,
    record: bool,
    out: &mut Vec<Code>,
) -> Result<(), String> {
    match e {
        Expr::Operand(k) => out.push(Code::Operand(*k)),
        Expr::Int(v) => out.push(Code::Int(*v)),
        Expr::Temporal(name) => out.push(Code::Latch(latch(machine, name)?)),
        Expr::Mem(_, addr) => {
            compile_expr(machine, addr, false, out)?;
            out.push(Code::Load { record });
        }
        Expr::Bin(op, a, b) => {
            compile_expr(machine, a, record, out)?;
            compile_expr(machine, b, record, out)?;
            out.push(Code::Bin(*op));
        }
        Expr::Un(op, a) => {
            compile_expr(machine, a, record, out)?;
            out.push(Code::Un(*op));
        }
        Expr::Call(b, a) => {
            compile_expr(machine, a, record, out)?;
            out.push(Code::Builtin(*b));
        }
        Expr::Convert(to, a) => {
            compile_expr(machine, a, record, out)?;
            out.push(Code::Convert(*to));
        }
    }
    Ok(())
}

/// A decoded operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Opnd {
    Reg(RegSlot),
    /// An immediate, with symbol addresses resolved.
    Imm(i64),
    Block(marion_ir::BlockId),
    Func(marion_ir::SymbolId),
    /// Unusable as data (a virtual register, a register outside the
    /// machine, a symbol with no data address); faults only if read.
    Bad,
}

impl Opnd {
    pub(crate) fn decode(machine: &Machine, sym_addrs: &[Option<u32>], op: &Operand) -> Opnd {
        let addr = |s: marion_ir::SymbolId| sym_addrs.get(s.0 as usize).copied().flatten();
        match *op {
            Operand::Phys(p) => RegSlot::of(machine, p).map_or(Opnd::Bad, Opnd::Reg),
            Operand::Imm(imm) => match imm {
                marion_core::ImmVal::Const(v) => Some(v),
                marion_core::ImmVal::Sym(s, a) => addr(s).map(|b| b as i64 + a),
                marion_core::ImmVal::SymHigh(s, a) => {
                    addr(s).map(|b| ((b as i64 + a) >> 16) & 0xffff)
                }
                marion_core::ImmVal::SymLow(s, a) => addr(s).map(|b| (b as i64 + a) & 0xffff),
            }
            .map_or(Opnd::Bad, Opnd::Imm),
            Operand::Block(b) => Opnd::Block(b),
            Operand::Func(s) => Opnd::Func(s),
            Operand::Vreg(_) | Operand::VregHalf(..) => Opnd::Bad,
        }
    }
}

/// Operand `$k` (1-based) of a decoded operand list.
pub(crate) fn nth(ops: &[Opnd], k: u8) -> Option<Opnd> {
    ops.get(usize::from(k).wrapping_sub(1)).copied()
}

/// A data operand of a [`Form`], resolved at load time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    Reg(RegSlot),
    /// An immediate operand or a literal of the semantics.
    Imm(i64),
}

/// How a sub-operation executes, decoded once per sub-operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Form {
    /// The template's `Code` program, which every form below but
    /// `Raw` must agree with.
    Code,
    /// A register move between equally wide registers: a raw unit copy
    /// (half-moves shuttle the raw words of a double and must not
    /// round through f32). Not a form of the `Code` program, which
    /// would round.
    Raw { dest: RegSlot, src: RegSlot },
    /// No effect.
    Nop,
    /// `$d = src`.
    Copy { dest: RegSlot, src: Src },
    /// `$d = a op b`.
    Bin {
        op: BinOp,
        dest: RegSlot,
        a: Src,
        b: Src,
    },
    /// `$d = mem[a + b]`.
    Load { dest: RegSlot, a: Src, b: Src },
    /// `mem[a + b] = value`.
    Store { value: Src, a: Src, b: Src },
    /// `goto target`.
    Goto(marion_ir::BlockId),
    /// `if (a rel b) goto target`.
    Branch {
        rel: BinOp,
        a: Src,
        b: Src,
        target: marion_ir::BlockId,
    },
}

impl Form {
    /// The form of semantics `sem` over the decoded operands `ops`.
    pub(crate) fn decode(sem: &[Stmt], ops: &[Opnd]) -> Form {
        let reg = |k: u8| match nth(ops, k) {
            Some(Opnd::Reg(r)) => Some(r),
            _ => None,
        };
        let src = |e: &Expr| match *e {
            Expr::Operand(k) => match nth(ops, k)? {
                Opnd::Reg(r) => Some(Src::Reg(r)),
                Opnd::Imm(v) => Some(Src::Imm(v)),
                _ => None,
            },
            Expr::Int(v) => Some(Src::Imm(v)),
            _ => None,
        };
        let sum = |e: &Expr| match e {
            Expr::Bin(BinOp::Add, a, b) => src(a).zip(src(b)),
            _ => None,
        };
        let block = |k: u8| match nth(ops, k) {
            Some(Opnd::Block(b)) => Some(b),
            _ => None,
        };
        let form = match sem {
            _ if sem.iter().all(|s| matches!(s, Stmt::Nop)) => Some(Form::Nop),
            [Stmt::Assign(LValue::Operand(d), rhs)] => reg(*d).and_then(|dest| match rhs {
                Expr::Bin(op, a, b) => src(a).zip(src(b)).map(|(a, b)| Form::Bin {
                    op: *op,
                    dest,
                    a,
                    b,
                }),
                Expr::Mem(_, addr) => sum(addr).map(|(a, b)| Form::Load { dest, a, b }),
                _ => src(rhs).map(|src| match src {
                    Src::Reg(src) if src.width == dest.width => Form::Raw { dest, src },
                    _ => Form::Copy { dest, src },
                }),
            }),
            [Stmt::Assign(LValue::Mem(_, addr), value)] => src(value)
                .zip(sum(addr))
                .map(|(value, (a, b))| Form::Store { value, a, b }),
            [Stmt::Goto(k)] => block(*k).map(Form::Goto),
            [Stmt::CondGoto {
                rel,
                lhs,
                rhs,
                target,
            }] => src(lhs)
                .zip(src(rhs))
                .zip(block(*target))
                .map(|((a, b), target)| Form::Branch {
                    rel: *rel,
                    a,
                    b,
                    target,
                }),
            _ => None,
        };
        form.unwrap_or(Form::Code)
    }
}

/// Why operand `op` cannot be read as data.
fn bad_operand(op: &Operand) -> SimError {
    SimError(match op {
        Operand::Imm(
            marion_core::ImmVal::Sym(s, _)
            | marion_core::ImmVal::SymHigh(s, _)
            | marion_core::ImmVal::SymLow(s, _),
        ) => format!("symbol {s} has no data address"),
        Operand::Phys(_) => format!("register {op} is outside the register file"),
        other => format!("operand {other} used as data"),
    })
}

/// One sub-operation, decoded at load time.
#[derive(Debug)]
pub(crate) struct SubOp<'a> {
    /// The instruction as emitted: `%aux` latency lookups, their
    /// operand tests and fault messages read it.
    pub(crate) inst: AsmInst<'a>,
    /// How it executes.
    pub(crate) form: Form,
    /// Range of the template's compiled semantics.
    pub(crate) code: (u32, u32),
    /// Range of the decoded operands.
    pub(crate) ops: (u32, u32),
    /// Memory access width.
    pub(crate) width: Ty,
    /// Arithmetic type (the template type, double when untyped).
    pub(crate) arith: Ty,
    pub(crate) reads_mem: bool,
    /// The template's per-cycle resource vector.
    pub(crate) rsrc: &'a [ResSet],
    /// Latency of every edge out of it, or `None` when a `%aux`
    /// directive names its template and the consumer decides.
    pub(crate) latency: Option<u32>,
    /// Where the register-unit ranges it reads (`uses`) and writes
    /// (`defs`) sit in the simulator's unit-range table.
    pub(crate) uses: (u32, u32),
    pub(crate) defs: (u32, u32),
}

/// The buffered effects of one instruction word, cleared and reused
/// word after word.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    /// Register writes to commit.
    pub(crate) reg_writes: Vec<(RegSlot, Value)>,
    /// Raw register-unit writes (bit-exact moves), captured pre-word.
    pub(crate) raw_writes: Vec<(u32, u32)>,
    /// Temporal latch writes to commit.
    pub(crate) latch_writes: Vec<(usize, f64)>,
    /// Memory writes: (address, value, width type).
    pub(crate) mem_writes: Vec<(u32, Value, Ty)>,
    /// Memory addresses read (for the data cache model).
    pub(crate) mem_reads: Vec<u32>,
    /// Control event, if any.
    pub(crate) control: Option<Control>,
    /// Evaluation stack.
    stack: Vec<Value>,
}

impl Effects {
    pub(crate) fn clear(&mut self) {
        self.reg_writes.clear();
        self.raw_writes.clear();
        self.latch_writes.clear();
        self.mem_writes.clear();
        self.mem_reads.clear();
        self.control = None;
    }

    fn pop(&mut self) -> Value {
        self.stack
            .pop()
            .expect("compiled semantics keep the stack balanced")
    }
}

/// The program's decoded semantics and operands, and the pre-word
/// machine state one word reads.
pub(crate) struct ExecCtx<'s> {
    pub(crate) sem: &'s Semantics,
    pub(crate) opnds: &'s [Opnd],
    pub(crate) regs: &'s RegFile,
    pub(crate) mem: &'s [u8],
}

impl ExecCtx<'_> {
    /// Executes one sub-operation's semantics, buffering its effects.
    ///
    /// # Errors
    ///
    /// Faults on invalid memory accesses, division by zero, values of
    /// the wrong kind, malformed operands.
    #[inline]
    pub(crate) fn exec(&self, sub: &SubOp<'_>, out: &mut Effects) -> Result<(), SimError> {
        match sub.form {
            Form::Code => return self.exec_code(sub, out),
            Form::Raw { dest, src } => {
                for i in 0..dest.width {
                    out.raw_writes
                        .push((dest.start + i, self.regs.unit(src.start + i)));
                }
            }
            Form::Nop => {}
            Form::Copy { dest, src } => out.reg_writes.push((dest, self.read(src))),
            Form::Bin { op, dest, a, b } => {
                let v = binop(op, self.read(a), self.read(b), sub.arith).map_err(sim_error)?;
                out.reg_writes.push((dest, v));
            }
            Form::Load { dest, a, b } => {
                let addr = self.sum(a, b, sub.arith)?;
                out.mem_reads.push(addr);
                out.reg_writes
                    .push((dest, read_mem(self.mem, addr, sub.width)?));
            }
            Form::Store { value, a, b } => {
                let v = self.read(value);
                let addr = self.sum(a, b, sub.arith)?;
                out.mem_writes.push((addr, v, sub.width));
            }
            Form::Goto(target) => out.control = Some(Control::Branch(target)),
            Form::Branch { rel, a, b, target } => {
                if compare(rel, self.read(a), self.read(b)).map_err(sim_error)? {
                    out.control = Some(Control::Branch(target));
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn read(&self, src: Src) -> Value {
        match src {
            Src::Reg(r) => self.regs.get(r),
            Src::Imm(v) => Value::I(v),
        }
    }

    /// The address `a + b`, as the `Code` steps `Bin(Add)` and `Load`
    /// or `Store` compute it.
    #[inline]
    fn sum(&self, a: Src, b: Src, arith: Ty) -> Result<u32, SimError> {
        address(binop(BinOp::Add, self.read(a), self.read(b), arith).map_err(sim_error)?)
    }

    /// Executes one sub-operation's `Code` program.
    pub(crate) fn exec_code(&self, sub: &SubOp<'_>, out: &mut Effects) -> Result<(), SimError> {
        let ops = &self.opnds[sub.ops.0 as usize..sub.ops.1 as usize];
        let operand = |k: u8| nth(ops, k);
        out.stack.clear();
        for code in &self.sem.code[sub.code.0 as usize..sub.code.1 as usize] {
            let pushed = match *code {
                Code::Operand(k) => match operand(k) {
                    Some(Opnd::Reg(r)) => self.regs.get(r),
                    Some(Opnd::Imm(v)) => Value::I(v),
                    Some(_) => return Err(bad_operand(&sub.inst.ops[usize::from(k) - 1])),
                    None => return fault(format!("operand ${k} missing")),
                },
                Code::Int(v) => Value::I(v),
                Code::Latch(id) => Value::F(self.regs.read_latch(id as usize)),
                Code::Load { record } => {
                    let a = address(out.pop())?;
                    if record {
                        out.mem_reads.push(a);
                    }
                    read_mem(self.mem, a, sub.width)?
                }
                Code::Bin(op) => {
                    let r = out.pop();
                    let l = out.pop();
                    binop(op, l, r, sub.arith).map_err(sim_error)?
                }
                Code::Un(op) => match (op, out.pop()) {
                    (UnOp::Neg, Value::I(x)) => Value::I(x.wrapping_neg() as i32 as i64),
                    (UnOp::Neg, Value::F(x)) => Value::F(if sub.arith == Ty::Float {
                        (-x) as f32 as f64
                    } else {
                        -x
                    }),
                    (UnOp::Not, Value::I(x)) => Value::I(!x as i32 as i64),
                    (UnOp::Not, Value::F(_)) => return fault("bitwise not on float"),
                },
                Code::Builtin(b) => {
                    let Value::I(v) = out.pop() else {
                        return fault(format!("floating-point argument to `{b}`"));
                    };
                    Value::I(match b {
                        Builtin::High => ((v as u32) >> 16) as i64,
                        Builtin::Low => (v as u32 & 0xffff) as i64,
                        Builtin::Eval => v,
                    })
                }
                Code::Convert(to) => {
                    let v = out.pop();
                    let from = match v {
                        Value::I(_) => Ty::Int,
                        Value::F(_) => Ty::Double,
                    };
                    convert(v, from, to)
                }
                Code::SetReg(k) => {
                    let Some(Opnd::Reg(r)) = operand(k) else {
                        return fault(format!("def operand ${k} is not physical"));
                    };
                    let v = out.pop();
                    out.reg_writes.push((r, v));
                    continue;
                }
                Code::SetLatch(id) => {
                    let f = match out.pop() {
                        Value::F(v) => v,
                        Value::I(v) => v as f64,
                    };
                    out.latch_writes.push((id as usize, f));
                    continue;
                }
                Code::Store => {
                    let a = address(out.pop())?;
                    let v = out.pop();
                    out.mem_writes.push((a, v, sub.width));
                    continue;
                }
                Code::CondGoto(rel, k) => {
                    let r = out.pop();
                    let l = out.pop();
                    if compare(rel, l, r).map_err(sim_error)? {
                        let Some(Opnd::Block(b)) = operand(k) else {
                            return fault("branch target is not a block");
                        };
                        out.control = Some(Control::Branch(b));
                    }
                    continue;
                }
                Code::Goto(k) => {
                    let Some(Opnd::Block(b)) = operand(k) else {
                        return fault("goto target is not a block");
                    };
                    out.control = Some(Control::Branch(b));
                    continue;
                }
                Code::Call(k) => {
                    let Some(Opnd::Func(s)) = operand(k) else {
                        return fault("call target is not a function");
                    };
                    out.control = Some(Control::Call(s));
                    continue;
                }
                Code::Return => {
                    out.control = Some(Control::Return);
                    continue;
                }
                Code::Fault(i) => return fault(self.sem.faults[i as usize].clone()),
            };
            out.stack.push(pushed);
        }
        Ok(())
    }
}

fn sim_error(e: InterpError) -> SimError {
    SimError(e.to_string())
}

/// A value used as a memory address.
fn address(v: Value) -> Result<u32, SimError> {
    match v {
        Value::I(a) => Ok(a as u32),
        Value::F(x) => fault(format!("floating-point value {x} used as an address")),
    }
}

/// Reads a typed value from simulated memory.
///
/// # Errors
///
/// Faults on an out-of-range access.
pub fn read_mem(mem: &[u8], addr: u32, ty: Ty) -> Result<Value, SimError> {
    let size = ty.size() as usize;
    let a = addr as usize;
    if a + size > mem.len() || addr < 64 {
        return fault(format!("load from invalid address {addr:#x}"));
    }
    Ok(match ty {
        Ty::Char => Value::I(mem[a] as i8 as i64),
        Ty::Short => Value::I(i16::from_le_bytes([mem[a], mem[a + 1]]) as i64),
        Ty::Int | Ty::Long | Ty::Ptr => {
            Value::I(i32::from_le_bytes(mem[a..a + 4].try_into().unwrap()) as i64)
        }
        Ty::Float => Value::F(f32::from_le_bytes(mem[a..a + 4].try_into().unwrap()) as f64),
        Ty::Double => Value::F(f64::from_le_bytes(mem[a..a + 8].try_into().unwrap())),
    })
}

/// Writes a typed value to simulated memory.
///
/// # Errors
///
/// Faults on an out-of-range access, and on a value whose kind
/// (integer or floating) does not match the store width `ty`.
pub fn write_mem(mem: &mut [u8], addr: u32, value: Value, ty: Ty) -> Result<(), SimError> {
    let size = ty.size() as usize;
    let a = addr as usize;
    if a + size > mem.len() || addr < 64 {
        return fault(format!("store to invalid address {addr:#x}"));
    }
    match (ty, value) {
        (Ty::Char, Value::I(v)) => mem[a] = v as u8,
        (Ty::Short, Value::I(v)) => mem[a..a + 2].copy_from_slice(&(v as i16).to_le_bytes()),
        (Ty::Int | Ty::Long | Ty::Ptr, Value::I(v)) => {
            mem[a..a + 4].copy_from_slice(&(v as i32).to_le_bytes());
        }
        (Ty::Float, Value::F(v)) => mem[a..a + 4].copy_from_slice(&(v as f32).to_le_bytes()),
        (Ty::Double, Value::F(v)) => mem[a..a + 8].copy_from_slice(&v.to_le_bytes()),
        (ty, value) => return fault(format!("store of {value:?} as {ty}")),
    }
    Ok(())
}
