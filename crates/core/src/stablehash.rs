//! Structural cache-key hashing.
//!
//! [`StableHash`] feeds a value's structure directly into a
//! [`StableHasher`] — no intermediate `Debug`/string rendering, no
//! allocation on the probe path. The encoding discipline makes the
//! byte stream an unambiguous serialisation, so distinct values hash
//! distinct streams:
//!
//! * every variable-length sequence is **length-prefixed**;
//! * every enum writes a **discriminant tag** before its payload;
//! * every `Option` writes 0 (absent) or 1 followed by the value;
//! * fields are written in **declaration order**, so the key is a pure
//!   function of the value and the (versioned) field layout;
//! * `f64` is hashed by its IEEE bit pattern.
//!
//! The machine impl covers everything that can change compiled output:
//! register classes, temporal latches, resources, operand ranges,
//! memory banks, clocks, packing elements and classes, every template
//! (operand shapes, semantics, resource vectors, latencies, slots,
//! effects), auxiliary latencies, glue rules and the CWVM. It
//! deliberately skips `DescriptionStats` (Table 1 metadata — no
//! codegen effect) and the `SelectionIndex` (no codegen effect either:
//! it prunes candidate lists without reordering them, so a machine and
//! its `Machine::brute_force_reference` compile identical code and
//! share every key).

use marion_cache::StableHasher;
use marion_ir as ir;
use marion_maril::expr::LValue;
use marion_maril::machine::{
    AuxLatency, Cwvm, GlueKind, GlueRule, ImmDef, LabelDef, OperandSpec, PackClass, PhysReg,
    RegClass, Template, TemplateEffects, TemporalReg,
};
use marion_maril::{BinOp, Builtin, Expr, Machine, ResSet, Stmt, Ty, UnOp};

/// Structural hashing into a [`StableHasher`].
pub trait StableHash {
    /// Feed this value's structure into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

// --- primitives and containers ---------------------------------------

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for u8 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for u32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableHash for i32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(*self as i64);
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_i64(*self);
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.to_bits());
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.len() as u64);
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash + ?Sized> StableHash for Box<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash> StableHash for (A, B, C) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
        self.2.stable_hash(h);
    }
}

// --- maril machine-description types ---------------------------------

macro_rules! hash_id {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(self.0 as u64);
            }
        }
    )*};
}

hash_id!(
    marion_maril::RegClassId,
    marion_maril::TemplateId,
    marion_maril::machine::ImmDefId,
    marion_maril::machine::LabelDefId,
    marion_maril::machine::ClockId,
    marion_maril::machine::ClassId,
    marion_maril::machine::TemporalId
);

macro_rules! hash_c_enum {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

hash_c_enum!(Ty, BinOp, UnOp, Builtin);

impl StableHash for PhysReg {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.class.stable_hash(h);
        self.index.stable_hash(h);
    }
}

impl StableHash for ResSet {
    fn stable_hash(&self, h: &mut StableHasher) {
        for w in self.words() {
            h.write_u64(*w);
        }
    }
}

impl StableHash for RegClass {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.count.stable_hash(h);
        self.tys.stable_hash(h);
        self.unit_width.stable_hash(h);
        self.unit_base.stable_hash(h);
        self.unit_stride.stable_hash(h);
    }
}

impl StableHash for TemporalReg {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.ty.stable_hash(h);
        self.clock.stable_hash(h);
    }
}

impl StableHash for ImmDef {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.lo.stable_hash(h);
        self.hi.stable_hash(h);
        self.flags.stable_hash(h);
    }
}

impl StableHash for LabelDef {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.lo.stable_hash(h);
        self.hi.stable_hash(h);
        self.relative.stable_hash(h);
    }
}

impl StableHash for PackClass {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.elements.stable_hash(h);
    }
}

impl StableHash for OperandSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            OperandSpec::Reg(c) => {
                h.write_u64(0);
                c.stable_hash(h);
            }
            OperandSpec::FixedReg(p) => {
                h.write_u64(1);
                p.stable_hash(h);
            }
            OperandSpec::Imm(d) => {
                h.write_u64(2);
                d.stable_hash(h);
            }
            OperandSpec::Lab(l) => {
                h.write_u64(3);
                l.stable_hash(h);
            }
        }
    }
}

impl StableHash for Expr {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Expr::Operand(k) => {
                h.write_u64(0);
                k.stable_hash(h);
            }
            Expr::Int(v) => {
                h.write_u64(1);
                v.stable_hash(h);
            }
            Expr::Temporal(name) => {
                h.write_u64(2);
                name.stable_hash(h);
            }
            Expr::Mem(bank, addr) => {
                h.write_u64(3);
                bank.stable_hash(h);
                addr.stable_hash(h);
            }
            Expr::Bin(op, lhs, rhs) => {
                h.write_u64(4);
                op.stable_hash(h);
                lhs.stable_hash(h);
                rhs.stable_hash(h);
            }
            Expr::Un(op, inner) => {
                h.write_u64(5);
                op.stable_hash(h);
                inner.stable_hash(h);
            }
            Expr::Call(b, arg) => {
                h.write_u64(6);
                b.stable_hash(h);
                arg.stable_hash(h);
            }
            Expr::Convert(ty, arg) => {
                h.write_u64(7);
                ty.stable_hash(h);
                arg.stable_hash(h);
            }
        }
    }
}

impl StableHash for LValue {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            LValue::Operand(k) => {
                h.write_u64(0);
                k.stable_hash(h);
            }
            LValue::Temporal(name) => {
                h.write_u64(1);
                name.stable_hash(h);
            }
            LValue::Mem(bank, addr) => {
                h.write_u64(2);
                bank.stable_hash(h);
                addr.stable_hash(h);
            }
        }
    }
}

impl StableHash for Stmt {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Stmt::Assign(lv, e) => {
                h.write_u64(0);
                lv.stable_hash(h);
                e.stable_hash(h);
            }
            Stmt::CondGoto {
                rel,
                lhs,
                rhs,
                target,
            } => {
                h.write_u64(1);
                rel.stable_hash(h);
                lhs.stable_hash(h);
                rhs.stable_hash(h);
                target.stable_hash(h);
            }
            Stmt::Goto(k) => {
                h.write_u64(2);
                k.stable_hash(h);
            }
            Stmt::Call(k) => {
                h.write_u64(3);
                k.stable_hash(h);
            }
            Stmt::Return => h.write_u64(4),
            Stmt::Nop => h.write_u64(5),
        }
    }
}

impl StableHash for TemplateEffects {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.defs.stable_hash(h);
        self.uses.stable_hash(h);
        self.temporal_defs.stable_hash(h);
        self.temporal_uses.stable_hash(h);
        self.reads_mem.stable_hash(h);
        self.writes_mem.stable_hash(h);
        self.is_cond_branch.stable_hash(h);
        self.is_goto.stable_hash(h);
        self.is_call.stable_hash(h);
        self.is_return.stable_hash(h);
    }
}

impl StableHash for Template {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.mnemonic.stable_hash(h);
        self.label.stable_hash(h);
        self.escape.stable_hash(h);
        self.operands.stable_hash(h);
        self.ty.stable_hash(h);
        self.affects_clock.stable_hash(h);
        self.class.stable_hash(h);
        self.sem.stable_hash(h);
        self.rsrc.stable_hash(h);
        self.cost.stable_hash(h);
        self.latency.stable_hash(h);
        self.slots.stable_hash(h);
        self.is_move.stable_hash(h);
        self.effects.stable_hash(h);
    }
}

impl StableHash for AuxLatency {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.first.stable_hash(h);
        self.second.stable_hash(h);
        match self.cond {
            None => h.write_u64(0),
            Some((i, j)) => {
                h.write_u64(1);
                i.stable_hash(h);
                j.stable_hash(h);
            }
        }
        self.latency.stable_hash(h);
    }
}

impl StableHash for GlueKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            GlueKind::Cond {
                from_rel,
                to_rel,
                to_lhs,
                to_rhs,
            } => {
                h.write_u64(0);
                from_rel.stable_hash(h);
                to_rel.stable_hash(h);
                to_lhs.stable_hash(h);
                to_rhs.stable_hash(h);
            }
            GlueKind::Value { from, to } => {
                h.write_u64(1);
                from.stable_hash(h);
                to.stable_hash(h);
            }
        }
    }
}

impl StableHash for GlueRule {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.operand_classes.stable_hash(h);
        self.kind.stable_hash(h);
    }
}

impl StableHash for Cwvm {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.general.stable_hash(h);
        self.allocable.stable_hash(h);
        self.callee_save.stable_hash(h);
        self.sp.stable_hash(h);
        self.fp.stable_hash(h);
        self.retaddr.stable_hash(h);
        self.gp.stable_hash(h);
        self.hard.stable_hash(h);
        self.args.stable_hash(h);
        self.results.stable_hash(h);
        self.stack_down.stable_hash(h);
    }
}

impl StableHash for Machine {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name().stable_hash(h);
        self.reg_classes().stable_hash(h);
        self.temporals().stable_hash(h);
        self.resources().stable_hash(h);
        self.imm_defs().stable_hash(h);
        self.label_defs().stable_hash(h);
        self.memories().stable_hash(h);
        self.clocks().stable_hash(h);
        self.elements().stable_hash(h);
        self.classes().stable_hash(h);
        self.templates().stable_hash(h);
        self.aux_latencies().stable_hash(h);
        self.glue_rules().stable_hash(h);
        self.cwvm().stable_hash(h);
    }
}

// --- IR function types ------------------------------------------------

macro_rules! hash_ir_id {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(self.0 as u64);
            }
        }
    )*};
}

hash_ir_id!(
    ir::NodeId,
    ir::BlockId,
    ir::VregId,
    ir::LocalId,
    ir::SymbolId
);

impl StableHash for ir::NodeKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            ir::NodeKind::ConstI(v) => {
                h.write_u64(0);
                v.stable_hash(h);
            }
            ir::NodeKind::ConstF(v) => {
                h.write_u64(1);
                v.stable_hash(h);
            }
            ir::NodeKind::ReadVreg(v) => {
                h.write_u64(2);
                v.stable_hash(h);
            }
            ir::NodeKind::GlobalAddr(s) => {
                h.write_u64(3);
                s.stable_hash(h);
            }
            ir::NodeKind::LocalAddr(l) => {
                h.write_u64(4);
                l.stable_hash(h);
            }
            ir::NodeKind::Load(a) => {
                h.write_u64(5);
                a.stable_hash(h);
            }
            ir::NodeKind::Bin(op, a, b) => {
                h.write_u64(6);
                op.stable_hash(h);
                a.stable_hash(h);
                b.stable_hash(h);
            }
            ir::NodeKind::Un(op, a) => {
                h.write_u64(7);
                op.stable_hash(h);
                a.stable_hash(h);
            }
            ir::NodeKind::Cvt(a) => {
                h.write_u64(8);
                a.stable_hash(h);
            }
            ir::NodeKind::Call(s, args) => {
                h.write_u64(9);
                s.stable_hash(h);
                args.stable_hash(h);
            }
        }
    }
}

impl StableHash for ir::Node {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.kind.stable_hash(h);
        self.ty.stable_hash(h);
    }
}

impl StableHash for ir::Stmt {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            ir::Stmt::SetVreg(v, n) => {
                h.write_u64(0);
                v.stable_hash(h);
                n.stable_hash(h);
            }
            ir::Stmt::Store { addr, value, ty } => {
                h.write_u64(1);
                addr.stable_hash(h);
                value.stable_hash(h);
                ty.stable_hash(h);
            }
            ir::Stmt::CallStmt(n) => {
                h.write_u64(2);
                n.stable_hash(h);
            }
        }
    }
}

impl StableHash for ir::Terminator {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            ir::Terminator::Jump(b) => {
                h.write_u64(0);
                b.stable_hash(h);
            }
            ir::Terminator::CondJump {
                rel,
                lhs,
                rhs,
                then_to,
                else_to,
            } => {
                h.write_u64(1);
                rel.stable_hash(h);
                lhs.stable_hash(h);
                rhs.stable_hash(h);
                then_to.stable_hash(h);
                else_to.stable_hash(h);
            }
            ir::Terminator::Ret(v) => {
                h.write_u64(2);
                v.stable_hash(h);
            }
        }
    }
}

impl StableHash for ir::Block {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.stmts.stable_hash(h);
        self.term.stable_hash(h);
    }
}

impl StableHash for ir::Local {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.size.stable_hash(h);
    }
}

impl StableHash for ir::Function {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.params.stable_hash(h);
        self.ret_ty.stable_hash(h);
        self.vreg_tys.stable_hash(h);
        self.locals.stable_hash(h);
        self.blocks.stable_hash(h);
        self.nodes.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of<T: StableHash>(v: &T) -> marion_cache::CacheKey {
        let mut h = StableHasher::new();
        v.stable_hash(&mut h);
        h.finish()
    }

    #[test]
    fn length_prefixing_separates_field_boundaries() {
        // ("ab", "c") must hash differently from ("a", "bc").
        let a = (String::from("ab"), String::from("c"));
        let b = (String::from("a"), String::from("bc"));
        assert_ne!(key_of(&a), key_of(&b));
    }

    #[test]
    fn option_and_empty_vec_are_distinct() {
        let none: Option<u32> = None;
        let zero: Option<u32> = Some(0);
        assert_ne!(key_of(&none), key_of(&zero));
        let empty: Vec<u32> = vec![];
        let one_zero: Vec<u32> = vec![0];
        assert_ne!(key_of(&empty), key_of(&one_zero));
    }

    #[test]
    fn float_bits_hash_not_value() {
        assert_ne!(key_of(&0.0f64), key_of(&-0.0f64));
    }

    #[test]
    fn machine_hash_is_structural() {
        let src = r#"
            declare {
                %reg r[0:3] (int);
                %resource IE;
                %def c16 [-32768:32767];
                %memory m[0:65535];
            }
            cwvm { %general (int) r; %allocable r[1:2]; %sp r[3] +down; %fp r[0] +down; %retaddr r[1]; }
            instr {
                %instr add r, r, r (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            }
        "#;
        let m1 = Machine::parse("t", src).unwrap();
        let m2 = Machine::parse("t", src).unwrap();
        assert_eq!(key_of(&m1), key_of(&m2), "same description, same key");
        let m3 = Machine::parse("t", &src.replace("(1,1,0)", "(1,2,0)")).unwrap();
        assert_ne!(key_of(&m1), key_of(&m3), "latency change flips the key");
        let m4 = Machine::parse("u", src).unwrap();
        assert_ne!(key_of(&m1), key_of(&m4), "name change flips the key");
    }
}
