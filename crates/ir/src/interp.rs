//! A reference interpreter for IR modules.
//!
//! The interpreter defines the *ground-truth semantics* that generated
//! machine code must preserve; the differential tests run the same
//! program here and on the `marion-sim` pipeline simulator and compare
//! results. Integer arithmetic is 32-bit two's-complement; `float`
//! arithmetic rounds through `f32`; memory is a flat little-endian
//! byte array with globals at the bottom and the stack at the top.
//!
//! A node shared by several statements of a block is evaluated once
//! per block execution (loads included: a node is a value, not a
//! re-read). Each call frame memoises node values in a dense array
//! indexed by `NodeId`, each entry stamped with the epoch of the block
//! execution that wrote it: a new block execution takes a fresh epoch,
//! so nothing is cleared and nothing is hashed. Frames take their
//! memos from a pool and return them, so a loop of calls allocates no
//! memo after the first.

use crate::func::*;
use crate::module::{Module, Symbol, SymbolId};
use marion_maril::{BinOp, Ty, UnOp};
use std::error::Error;
use std::fmt;

/// A runtime value: 32-bit integers are kept sign-extended in `I`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (char/short/int/long/ptr).
    I(i64),
    /// Floating (float/double).
    F(f64),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is floating.
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => panic!("expected integer, found float {v}"),
        }
    }

    /// The floating payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            Value::I(v) => panic!("expected float, found integer {v}"),
        }
    }
}

/// A runtime fault: division by zero, out-of-bounds access, missing
/// function, or step-budget exhaustion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError(String);

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter fault: {}", self.0)
    }
}

impl Error for InterpError {}

fn fault<T>(msg: impl Into<String>) -> Result<T, InterpError> {
    Err(InterpError(msg.into()))
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterpStats {
    /// Statements executed.
    pub stmts: u64,
    /// Function calls made.
    pub calls: u64,
}

/// The interpreter. Owns the memory image; create one per program run.
#[derive(Debug)]
pub struct Interp<'m> {
    module: &'m Module,
    /// Flat memory image.
    pub mem: Vec<u8>,
    /// Data address per symbol id; `None` for functions.
    global_addrs: Vec<Option<u32>>,
    sp: u32,
    budget: u64,
    /// Statistics accumulated so far.
    pub stats: InterpStats,
    /// Memos no active frame holds.
    memos: Vec<Memo>,
    /// The last block epoch handed out (memo entries start at 0, which
    /// no block execution gets).
    epoch: u64,
}

/// Node values of one call frame, by `NodeId`: an entry is valid while
/// its epoch is the current block execution's.
type Memo = Vec<(u64, Value)>;

/// One active call.
struct Frame<'m> {
    func: &'m Function,
    vregs: Vec<Value>,
    base: u32,
    memo: Memo,
    /// The current block execution's epoch.
    epoch: u64,
}

/// Base address of the first global (address 0 is kept unmapped).
pub const GLOBAL_BASE: u32 = 64;

impl<'m> Interp<'m> {
    /// Creates an interpreter with `mem_size` bytes of memory and lays
    /// out the module's globals.
    pub fn new(module: &'m Module, mem_size: u32) -> Interp<'m> {
        let mut mem = vec![0u8; mem_size as usize];
        let mut global_addrs = vec![None; module.symbol_count()];
        let mut next = GLOBAL_BASE;
        for (i, addr) in global_addrs.iter_mut().enumerate() {
            if let Symbol::Global(gi) = module.symbol(SymbolId(i as u32)) {
                let g = &module.globals[*gi];
                next = (next + 7) & !7;
                let bytes = g.init.bytes();
                mem[next as usize..next as usize + bytes.len()].copy_from_slice(&bytes);
                *addr = Some(next);
                next += g.init.size().max(1);
            }
        }
        Interp {
            module,
            mem,
            global_addrs,
            sp: mem_size & !7,
            budget: u64::MAX,
            stats: InterpStats::default(),
            memos: Vec::new(),
            epoch: 0,
        }
    }

    /// Limits the number of executed statements (guards against
    /// non-terminating test programs).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// The address a global was laid out at.
    pub fn global_addr(&self, sym: SymbolId) -> Option<u32> {
        self.global_addrs.get(sym.0 as usize).copied().flatten()
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// Returns a fault if the function is missing, arguments are
    /// mistyped, or execution faults.
    pub fn call_by_name(
        &mut self,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, InterpError> {
        let Some(func) = self.module.func_by_name(name) else {
            return fault(format!("no function `{name}`"));
        };
        self.call_func(func, args)
    }

    fn call_func(
        &mut self,
        func: &'m Function,
        args: &[Value],
    ) -> Result<Option<Value>, InterpError> {
        self.stats.calls += 1;
        if args.len() != func.params.len() {
            return fault(format!(
                "`{}` expects {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            ));
        }
        // Frame: allocate locals below the current stack pointer.
        let frame_size = (func.frame_locals_size() + 7) & !7;
        if frame_size as u64 + GLOBAL_BASE as u64 > self.sp as u64 {
            return fault("stack overflow");
        }
        let saved_sp = self.sp;
        self.sp -= frame_size;

        let mut vregs = vec![Value::I(0); func.vreg_tys.len()];
        for ((v, ty), arg) in func.params.iter().zip(args) {
            match (ty.is_float(), arg) {
                (true, Value::F(_)) | (false, Value::I(_)) => vregs[v.0 as usize] = *arg,
                _ => return fault(format!("argument type mismatch for {v}")),
            }
        }
        let mut memo = self.memos.pop().unwrap_or_default();
        if memo.len() < func.nodes.len() {
            memo.resize(func.nodes.len(), (0, Value::I(0)));
        }
        let mut frame = Frame {
            func,
            vregs,
            base: self.sp,
            memo,
            epoch: 0,
        };
        let result = self.run_frame(&mut frame);
        self.memos.push(frame.memo);
        self.sp = saved_sp;
        result
    }

    fn run_frame(&mut self, frame: &mut Frame<'m>) -> Result<Option<Value>, InterpError> {
        let func = frame.func;
        let mut block = func.entry();
        loop {
            let blk = func.block(block);
            self.epoch += 1;
            frame.epoch = self.epoch;
            for stmt in &blk.stmts {
                self.stats.stmts += 1;
                if self.stats.stmts > self.budget {
                    return fault("step budget exhausted");
                }
                match stmt {
                    Stmt::SetVreg(v, n) => {
                        let val = self.eval(frame, *n)?;
                        frame.vregs[v.0 as usize] = val;
                    }
                    Stmt::Store { addr, value, ty } => {
                        let a = self.eval(frame, *addr)?.as_i() as u32;
                        let v = self.eval(frame, *value)?;
                        self.write_mem(a, v, *ty)?;
                    }
                    Stmt::CallStmt(n) => {
                        self.eval(frame, *n)?;
                    }
                }
            }
            self.stats.stmts += 1;
            if self.stats.stmts > self.budget {
                return fault("step budget exhausted");
            }
            match &blk.term {
                Terminator::Jump(b) => block = *b,
                Terminator::CondJump {
                    rel,
                    lhs,
                    rhs,
                    then_to,
                    else_to,
                } => {
                    let l = self.eval(frame, *lhs)?;
                    let r = self.eval(frame, *rhs)?;
                    let taken = compare(*rel, l, r)?;
                    block = if taken { *then_to } else { *else_to };
                }
                Terminator::Ret(Some(n)) => return Ok(Some(self.eval(frame, *n)?)),
                Terminator::Ret(None) => return Ok(None),
            }
        }
    }

    fn eval(&mut self, frame: &mut Frame<'m>, id: NodeId) -> Result<Value, InterpError> {
        let (epoch, v) = frame.memo[id.0 as usize];
        if epoch == frame.epoch {
            return Ok(v);
        }
        let func = frame.func;
        let node = func.node(id);
        let val = match &node.kind {
            NodeKind::ConstI(v) => Value::I(*v),
            NodeKind::ConstF(v) => Value::F(round_ty(*v, node.ty)),
            NodeKind::ReadVreg(v) => frame.vregs[v.0 as usize],
            NodeKind::GlobalAddr(s) => match self.global_addr(*s) {
                Some(a) => Value::I(a as i64),
                None => return fault(format!("address of non-global symbol {s}")),
            },
            NodeKind::LocalAddr(l) => Value::I((frame.base + func.local_offset(*l)) as i64),
            NodeKind::Load(a) => {
                let addr = self.eval(frame, *a)?.as_i() as u32;
                self.read_mem(addr, node.ty)?
            }
            NodeKind::Bin(op, a, b) => {
                let l = self.eval(frame, *a)?;
                let r = self.eval(frame, *b)?;
                binop(*op, l, r, node.ty)?
            }
            NodeKind::Un(op, a) => {
                let v = self.eval(frame, *a)?;
                match (op, v) {
                    (UnOp::Neg, Value::I(x)) => Value::I(wrap32(-x)),
                    (UnOp::Neg, Value::F(x)) => Value::F(round_ty(-x, node.ty)),
                    (UnOp::Not, Value::I(x)) => Value::I(wrap32(!x)),
                    (UnOp::Not, Value::F(_)) => return fault("bitwise not on float"),
                }
            }
            NodeKind::Cvt(a) => {
                let v = self.eval(frame, *a)?;
                convert(v, func.node(*a).ty, node.ty)
            }
            NodeKind::Call(sym, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(frame, *a)?);
                }
                let callee = match self.module.symbol(*sym) {
                    Symbol::Func(i) => &self.module.funcs[*i],
                    _ => {
                        return fault(format!(
                            "call to undefined function `{}`",
                            self.module.symbol_name(*sym)
                        ));
                    }
                };
                match self.call_func(callee, &vals)? {
                    Some(v) => v,
                    None => Value::I(0),
                }
            }
        };
        frame.memo[id.0 as usize] = (frame.epoch, val);
        Ok(val)
    }

    /// Reads a typed value from memory.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range addresses.
    pub fn read_mem(&self, addr: u32, ty: Ty) -> Result<Value, InterpError> {
        let size = ty.size() as usize;
        let a = addr as usize;
        if a + size > self.mem.len() || addr < GLOBAL_BASE {
            return fault(format!("load from invalid address {addr:#x}"));
        }
        Ok(match ty {
            Ty::Char => Value::I(self.mem[a] as i8 as i64),
            Ty::Short => Value::I(i16::from_le_bytes([self.mem[a], self.mem[a + 1]]) as i64),
            Ty::Int | Ty::Long | Ty::Ptr => {
                Value::I(i32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()) as i64)
            }
            Ty::Float => {
                Value::F(f32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()) as f64)
            }
            Ty::Double => Value::F(f64::from_le_bytes(self.mem[a..a + 8].try_into().unwrap())),
        })
    }

    /// Writes a typed value to memory.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range addresses.
    pub fn write_mem(&mut self, addr: u32, value: Value, ty: Ty) -> Result<(), InterpError> {
        let size = ty.size() as usize;
        let a = addr as usize;
        if a + size > self.mem.len() || addr < GLOBAL_BASE {
            return fault(format!("store to invalid address {addr:#x}"));
        }
        match ty {
            Ty::Char => self.mem[a] = value.as_i() as u8,
            Ty::Short => self.mem[a..a + 2].copy_from_slice(&(value.as_i() as i16).to_le_bytes()),
            Ty::Int | Ty::Long | Ty::Ptr => {
                self.mem[a..a + 4].copy_from_slice(&(value.as_i() as i32).to_le_bytes());
            }
            Ty::Float => {
                self.mem[a..a + 4].copy_from_slice(&(value.as_f() as f32).to_le_bytes());
            }
            Ty::Double => self.mem[a..a + 8].copy_from_slice(&value.as_f().to_le_bytes()),
        }
        Ok(())
    }
}

fn wrap32(v: i64) -> i64 {
    v as i32 as i64
}

fn round_ty(v: f64, ty: Ty) -> f64 {
    if ty == Ty::Float {
        v as f32 as f64
    } else {
        v
    }
}

/// Applies a binary operator with C semantics at type `ty`.
///
/// # Errors
///
/// Faults on integer division by zero and on float-only/int-only
/// operator misuse.
#[inline]
pub fn binop(op: BinOp, l: Value, r: Value, ty: Ty) -> Result<Value, InterpError> {
    if op == BinOp::Cmp {
        // The generic compare `::` yields a signum: -1, 0 or +1, so a
        // following relation against zero recovers any comparison.
        let lt = compare(BinOp::Lt, l, r)?;
        let gt = compare(BinOp::Gt, l, r)?;
        return Ok(Value::I(gt as i64 - lt as i64));
    }
    if op.is_relational() {
        // Value-producing comparison (an `slt`-style set): 0/1.
        let b = compare(op, l, r)?;
        return Ok(Value::I(b as i64));
    }
    match (l, r) {
        (Value::I(a), Value::I(b)) => {
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => wrap32(a) * wrap32(b),
                BinOp::Div => {
                    if wrap32(b) == 0 {
                        return fault("integer division by zero");
                    }
                    wrap32(a) / wrap32(b)
                }
                BinOp::Rem => {
                    if wrap32(b) == 0 {
                        return fault("integer remainder by zero");
                    }
                    wrap32(a) % wrap32(b)
                }
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => wrap32(a) << (b & 31),
                BinOp::Shr => wrap32(a) >> (b & 31),
                _ => unreachable!(),
            };
            Ok(Value::I(wrap32(v)))
        }
        (Value::F(a), Value::F(b)) => {
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => return fault(format!("float operand to integer operator `{op}`")),
            };
            Ok(Value::F(round_ty(v, ty)))
        }
        _ => fault(format!("mixed int/float operands to `{op}`")),
    }
}

/// Evaluates a relational comparison.
///
/// # Errors
///
/// Faults on mixed int/float operands.
#[inline]
pub fn compare(rel: BinOp, l: Value, r: Value) -> Result<bool, InterpError> {
    let ord = match (l, r) {
        (Value::I(a), Value::I(b)) => a.partial_cmp(&b),
        (Value::F(a), Value::F(b)) => a.partial_cmp(&b),
        _ => return fault("mixed int/float comparison"),
    };
    Ok(match rel {
        BinOp::Eq => ord == Some(std::cmp::Ordering::Equal),
        BinOp::Ne => ord != Some(std::cmp::Ordering::Equal),
        BinOp::Lt => ord == Some(std::cmp::Ordering::Less),
        BinOp::Le => matches!(
            ord,
            Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
        ),
        BinOp::Gt => ord == Some(std::cmp::Ordering::Greater),
        BinOp::Ge => matches!(
            ord,
            Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
        ),
        other => return fault(format!("`{other}` is not a relation")),
    })
}

/// Converts `v` from type `from` to type `to` with C semantics.
#[inline]
pub fn convert(v: Value, from: Ty, to: Ty) -> Value {
    match (from.is_float(), to.is_float()) {
        (false, false) => {
            let x = v.as_i();
            Value::I(match to {
                Ty::Char => x as i8 as i64,
                Ty::Short => x as i16 as i64,
                _ => wrap32(x),
            })
        }
        (false, true) => Value::F(round_ty(v.as_i() as f64, to)),
        (true, false) => {
            let t = v.as_f().trunc();
            let clamped = t.clamp(i32::MIN as f64, i32::MAX as f64);
            Value::I(clamped as i64)
        }
        (true, true) => Value::F(round_ty(v.as_f(), to)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::{Global, GlobalInit, Module};

    fn int_fn_module(build: impl FnOnce(&mut FuncBuilder)) -> Module {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", Some(Ty::Int));
        build(&mut b);
        m.add_func(b.finish());
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let m = int_fn_module(|b| {
            let a = b.const_i(6, Ty::Int);
            let c = b.const_i(7, Ty::Int);
            let p = b.bin(BinOp::Mul, a, c, Ty::Int);
            b.ret(Some(p));
        });
        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(i.call_by_name("main", &[]).unwrap(), Some(Value::I(42)));
    }

    #[test]
    fn wrapping_is_32_bit() {
        let m = int_fn_module(|b| {
            let a = b.const_i(i32::MAX as i64, Ty::Int);
            let c = b.const_i(1, Ty::Int);
            let p = b.bin(BinOp::Add, a, c, Ty::Int);
            b.ret(Some(p));
        });
        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(
            i.call_by_name("main", &[]).unwrap(),
            Some(Value::I(i32::MIN as i64))
        );
    }

    #[test]
    fn division_by_zero_faults() {
        let m = int_fn_module(|b| {
            let a = b.const_i(1, Ty::Int);
            let z = b.const_i(0, Ty::Int);
            let d = b.bin(BinOp::Div, a, z, Ty::Int);
            b.ret(Some(d));
        });
        let mut i = Interp::new(&m, 1 << 16);
        let e = i.call_by_name("main", &[]).unwrap_err();
        assert!(e.to_string().contains("division by zero"));
    }

    #[test]
    fn loops_and_branches() {
        // sum 1..=10 == 55
        let m = int_fn_module(|b| {
            let sum = b.new_vreg(Ty::Int);
            let i = b.new_vreg(Ty::Int);
            let zero = b.const_i(0, Ty::Int);
            let one = b.const_i(1, Ty::Int);
            b.set_vreg(sum, zero);
            b.set_vreg(i, one);
            let loop_b = b.new_block();
            let body = b.new_block();
            let done = b.new_block();
            b.jump(loop_b);
            b.switch_to(loop_b);
            let iv = b.read_vreg(i);
            let ten = b.const_i(10, Ty::Int);
            b.cond_jump(BinOp::Le, iv, ten, body, done);
            b.switch_to(body);
            let iv2 = b.read_vreg(i);
            let sv = b.read_vreg(sum);
            let ns = b.bin(BinOp::Add, sv, iv2, Ty::Int);
            b.set_vreg(sum, ns);
            let one2 = b.const_i(1, Ty::Int);
            let ni = b.bin(BinOp::Add, iv2, one2, Ty::Int);
            b.set_vreg(i, ni);
            b.jump(loop_b);
            b.switch_to(done);
            let res = b.read_vreg(sum);
            b.ret(Some(res));
        });
        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(i.call_by_name("main", &[]).unwrap(), Some(Value::I(55)));
    }

    #[test]
    fn globals_and_memory() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "x".into(),
            init: GlobalInit::Words(vec![5]),
        });
        let mut b = FuncBuilder::new("main", Some(Ty::Int));
        let addr = b.global_addr(g);
        let v = b.load(addr, Ty::Int);
        let two = b.const_i(2, Ty::Int);
        let dbl = b.bin(BinOp::Mul, v, two, Ty::Int);
        b.store(addr, dbl, Ty::Int);
        let v2 = b.load(addr, Ty::Int);
        b.ret(Some(v2));
        m.add_func(b.finish());
        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(i.call_by_name("main", &[]).unwrap(), Some(Value::I(10)));
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut m = Module::new();
        let mut cb = FuncBuilder::new("twice", Some(Ty::Int));
        let p = cb.param(Ty::Int);
        let x = cb.read_vreg(p);
        let two = cb.const_i(2, Ty::Int);
        let r = cb.bin(BinOp::Mul, x, two, Ty::Int);
        cb.ret(Some(r));
        let twice = m.add_func(cb.finish());

        let mut b = FuncBuilder::new("main", Some(Ty::Int));
        let arg = b.const_i(21, Ty::Int);
        let c = b.call(twice, vec![arg], Ty::Int);
        b.ret(Some(c));
        m.add_func(b.finish());

        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(i.call_by_name("main", &[]).unwrap(), Some(Value::I(42)));
        assert_eq!(i.stats.calls, 2);
    }

    #[test]
    fn float_rounds_through_f32() {
        let m = {
            let mut m = Module::new();
            let mut b = FuncBuilder::new("main", Some(Ty::Float));
            let a = b.const_f(0.1, Ty::Float);
            let c = b.const_f(0.2, Ty::Float);
            let s = b.bin(BinOp::Add, a, c, Ty::Float);
            b.ret(Some(s));
            m.add_func(b.finish());
            m
        };
        let mut i = Interp::new(&m, 1 << 16);
        let got = i.call_by_name("main", &[]).unwrap().unwrap().as_f();
        assert_eq!(got, (0.1f32 + 0.2f32) as f64);
    }

    #[test]
    fn locals_are_addressable() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", Some(Ty::Int));
        let arr = b.new_local("a", 40);
        let base = b.local_addr(arr);
        let idx = b.const_i(3 * 4, Ty::Int);
        let slot = b.bin(BinOp::Add, base, idx, Ty::Ptr);
        let val = b.const_i(99, Ty::Int);
        b.store(slot, val, Ty::Int);
        let rd = b.load(slot, Ty::Int);
        b.ret(Some(rd));
        m.add_func(b.finish());
        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(i.call_by_name("main", &[]).unwrap(), Some(Value::I(99)));
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", None);
        let blk = b.new_block();
        b.jump(blk);
        b.switch_to(blk);
        b.jump(blk);
        m.add_func(b.finish());
        let mut i = Interp::new(&m, 1 << 16).with_budget(1000);
        let e = i.call_by_name("main", &[]).unwrap_err();
        assert!(e.to_string().contains("budget"));
    }

    #[test]
    fn conversions() {
        assert_eq!(convert(Value::I(300), Ty::Int, Ty::Char), Value::I(44));
        assert_eq!(convert(Value::F(3.9), Ty::Double, Ty::Int), Value::I(3));
        assert_eq!(convert(Value::F(-3.9), Ty::Double, Ty::Int), Value::I(-3));
        assert_eq!(convert(Value::I(2), Ty::Int, Ty::Double), Value::F(2.0));
    }

    #[test]
    fn char_loads_sign_extend() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "c".into(),
            init: GlobalInit::Words(vec![0xFF]),
        });
        let mut b = FuncBuilder::new("main", Some(Ty::Int));
        let addr = b.global_addr(g);
        let v = b.load(addr, Ty::Char);
        let w = b.cvt(v, Ty::Int);
        b.ret(Some(w));
        m.add_func(b.finish());
        let mut i = Interp::new(&m, 1 << 16);
        assert_eq!(i.call_by_name("main", &[]).unwrap(), Some(Value::I(-1)));
    }
}
