//! The compiled machine model.
//!
//! [`Machine`] is what the Marion *code generator generator* produces
//! from a Maril description: selection patterns (the semantic trees of
//! each template, in description order), scheduling tables (resource
//! vectors, latencies, auxiliary latencies, delay slots, packing
//! classes, clock effects) and the runtime model (CWVM).

use crate::error::MarilError;
use crate::expr::{Expr, LValue, Stmt};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The signed C-language native datatypes Maril supports, plus
/// pointers (paper §3.1: "Maril supports the signed C Language native
/// types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// 8-bit `char`.
    Char,
    /// 16-bit `short`.
    Short,
    /// 32-bit `int`.
    Int,
    /// 32-bit `long` (this is 1991).
    Long,
    /// 32-bit `float`.
    Float,
    /// 64-bit `double`.
    Double,
    /// 32-bit pointer.
    Ptr,
}

impl Ty {
    /// Size of a value of this type, in bytes.
    pub fn size(self) -> u32 {
        match self {
            Ty::Char => 1,
            Ty::Short => 2,
            Ty::Int | Ty::Long | Ty::Float | Ty::Ptr => 4,
            Ty::Double => 8,
        }
    }

    /// True for `float`/`double`.
    pub fn is_float(self) -> bool {
        matches!(self, Ty::Float | Ty::Double)
    }

    /// Parses the Maril keyword spelling of a type.
    pub fn from_keyword(kw: &str) -> Option<Ty> {
        Some(match kw {
            "char" => Ty::Char,
            "short" => Ty::Short,
            "int" => Ty::Int,
            "long" => Ty::Long,
            "float" => Ty::Float,
            "double" => Ty::Double,
            "ptr" => Ty::Ptr,
            _ => return None,
        })
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ty::Char => "char",
            Ty::Short => "short",
            Ty::Int => "int",
            Ty::Long => "long",
            Ty::Float => "float",
            Ty::Double => "double",
            Ty::Ptr => "ptr",
        })
    }
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Index of a register class in [`Machine::reg_classes`].
    RegClassId
);
id_type!(
    /// Index of an instruction template in [`Machine::templates`].
    TemplateId
);
id_type!(
    /// Index of an immediate range (`%def`) in [`Machine::imm_defs`].
    ImmDefId
);
id_type!(
    /// Index of a label range (`%label`) in [`Machine::label_defs`].
    LabelDefId
);
id_type!(
    /// Index of a clock in [`Machine::clocks`].
    ClockId
);
id_type!(
    /// Index of a packing class in [`Machine::classes`].
    ClassId
);
id_type!(
    /// Index of a temporal register in [`Machine::temporals`].
    TemporalId
);

/// A physical register: class plus index within the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg {
    /// The register class.
    pub class: RegClassId,
    /// Index within the class.
    pub index: u32,
}

impl PhysReg {
    /// Creates a physical register reference.
    pub fn new(class: RegClassId, index: u32) -> Self {
        PhysReg { class, index }
    }
}

/// A 256-bit set used both for processor resources and for packing
/// elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResSet {
    words: [u64; 4],
}

impl ResSet {
    /// The empty set.
    pub const EMPTY: ResSet = ResSet { words: [0; 4] };

    /// A set containing every id in `0..n`.
    pub fn all(n: usize) -> ResSet {
        let mut s = ResSet::EMPTY;
        for i in 0..n.min(256) {
            s.insert(i as u32);
        }
        s
    }

    /// Adds `id` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 256`.
    pub fn insert(&mut self, id: u32) {
        assert!(id < 256, "resource/element id {id} out of range");
        self.words[(id / 64) as usize] |= 1u64 << (id % 64);
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        id < 256 && self.words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
    }

    /// Whether the two sets share any member.
    pub fn intersects(&self, other: &ResSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ResSet) -> ResSet {
        let mut out = ResSet::EMPTY;
        for i in 0..4 {
            out.words[i] = self.words[i] & other.words[i];
        }
        out
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &ResSet) {
        for i in 0..4 {
            self.words[i] |= other.words[i];
        }
    }

    /// True when no member is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over member ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..256u32).filter(move |i| self.contains(*i))
    }

    /// The raw 64-bit words (bit `i` of word `i / 64` = member
    /// `i`). Exposed for structural hashing.
    pub fn words(&self) -> &[u64; 4] {
        &self.words
    }
}

/// A register class (one `%reg` array declaration).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct RegClass {
    /// Class name, e.g. `r`.
    pub name: String,
    /// Number of registers in the class.
    pub count: u32,
    /// Datatypes that may live in these registers.
    pub tys: Vec<Ty>,
    /// Width of one register in *register units* (see
    /// [`Machine::units_of`]): 1 for a 32-bit class, 2 for a 64-bit
    /// class overlaying it, etc.
    pub unit_width: u32,
    /// First global unit id of register 0 of this class.
    pub unit_base: u32,
    /// Stride in units between consecutive registers (equals
    /// `unit_width`; kept separate for clarity).
    pub unit_stride: u32,
}

impl RegClass {
    /// Size in bytes of one register (from the largest residing type).
    pub fn reg_size(&self) -> u32 {
        self.tys.iter().map(|t| t.size()).max().unwrap_or(4)
    }
}

/// A temporal register — a latch of an explicitly advanced pipeline,
/// declared `%reg m1 (double; clk_m) +temporal;`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TemporalReg {
    /// Latch name, e.g. `m1`.
    pub name: String,
    /// Value type held in the latch.
    pub ty: Ty,
    /// The clock whose ticks change this latch.
    pub clock: ClockId,
}

/// An immediate operand range (`%def`).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ImmDef {
    /// Name referenced as `#name`.
    pub name: String,
    /// Inclusive minimum.
    pub lo: i64,
    /// Inclusive maximum.
    pub hi: i64,
    /// Raw `+flag`s.
    pub flags: Vec<String>,
}

impl ImmDef {
    /// Whether `v` fits the range.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// A label operand range (`%label`).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct LabelDef {
    /// Name referenced as `#name`.
    pub name: String,
    /// Inclusive offset range.
    pub lo: i64,
    /// Inclusive offset range.
    pub hi: i64,
    /// `+relative` — offset is PC-relative.
    pub relative: bool,
}

/// A packing class: the set of long-instruction-word elements a
/// sub-operation may appear in (paper §4.5).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct PackClass {
    /// Class name.
    pub name: String,
    /// Member elements as a bitset over [`Machine::elements`].
    pub elements: ResSet,
}

/// Compiled operand shape of a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandSpec {
    /// Any register of the class.
    Reg(RegClassId),
    /// A specific register (e.g. hard-wired `r[0]`).
    FixedReg(PhysReg),
    /// An immediate in the given `%def` range.
    Imm(ImmDefId),
    /// A branch/call target in the given `%label` range.
    Lab(LabelDefId),
}

/// An auxiliary latency entry (`%aux`), overriding the producer's
/// normal latency for a particular consumer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AuxLatency {
    /// Producer mnemonic.
    pub first: String,
    /// Consumer mnemonic.
    pub second: String,
    /// Operand-equality condition, `None` = unconditional.
    pub cond: Option<(u8, u8)>,
    /// The overriding latency.
    pub latency: u32,
}

/// A compiled glue transformation.
///
/// The paper's `%glue r, r { ... }` operand prefix constrains the
/// register classes of the matched operands: the rule only fires when
/// operand `$k`'s natural class equals `operand_classes[k-1]`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct GlueRule {
    /// Class constraint per `$k` wildcard (`None` = any).
    pub operand_classes: Vec<Option<RegClassId>>,
    /// The rewrite.
    pub kind: GlueKind,
}

/// The two kinds of glue rewrite.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum GlueKind {
    /// Rewrites a branch condition `a REL b` into `lhs REL' rhs`
    /// (with `$1`/`$2` standing for `a`/`b`).
    Cond {
        /// Relation matched.
        from_rel: crate::expr::BinOp,
        /// Replacement relation.
        to_rel: crate::expr::BinOp,
        /// Replacement left expression.
        to_lhs: Expr,
        /// Replacement right expression.
        to_rhs: Expr,
    },
    /// Rewrites a value tree.
    Value {
        /// Pattern (with `$k` wildcards).
        from: Expr,
        /// Replacement.
        to: Expr,
    },
}

/// The compiled runtime model (`cwvm` section).
#[derive(Debug, Clone, PartialEq, Hash, Default)]
pub struct Cwvm {
    /// General-purpose class per datatype.
    pub general: Vec<(Ty, RegClassId)>,
    /// Registers available to the global register allocator.
    pub allocable: Vec<PhysReg>,
    /// Registers preserved across calls.
    pub callee_save: Vec<PhysReg>,
    /// Stack pointer.
    pub sp: Option<PhysReg>,
    /// Frame pointer.
    pub fp: Option<PhysReg>,
    /// Return-address register.
    pub retaddr: Option<PhysReg>,
    /// Optional global data pointer.
    pub gp: Option<PhysReg>,
    /// Hard-wired registers and their values.
    pub hard: Vec<(PhysReg, i64)>,
    /// Argument registers: (type, register, 1-based position).
    pub args: Vec<(Ty, PhysReg, u32)>,
    /// Result registers per type.
    pub results: Vec<(PhysReg, Ty)>,
    /// Stack grows downward.
    pub stack_down: bool,
}

impl Cwvm {
    /// The general-purpose class for `ty`, if declared.
    pub fn general_class(&self, ty: Ty) -> Option<RegClassId> {
        self.general
            .iter()
            .find(|(t, _)| *t == ty)
            .map(|(_, c)| *c)
            .or_else(|| {
                // Integer-like types share the int class; float falls
                // back to double's class and vice versa.
                let fallback = match ty {
                    Ty::Char | Ty::Short | Ty::Long | Ty::Ptr | Ty::Int => Ty::Int,
                    Ty::Float => Ty::Double,
                    Ty::Double => Ty::Float,
                };
                self.general
                    .iter()
                    .find(|(t, _)| *t == fallback)
                    .map(|(_, c)| *c)
            })
    }

    /// The result register for `ty`, if declared.
    pub fn result_reg(&self, ty: Ty) -> Option<PhysReg> {
        self.results
            .iter()
            .find(|(_, t)| *t == ty)
            .map(|(r, _)| *r)
            .or_else(|| {
                let fallback = match ty {
                    Ty::Char | Ty::Short | Ty::Long | Ty::Ptr => Ty::Int,
                    Ty::Float => Ty::Double,
                    other => other,
                };
                self.results
                    .iter()
                    .find(|(_, t)| *t == fallback)
                    .map(|(r, _)| *r)
            })
    }

    /// Argument registers for `ty`, ordered by position. Exact-type
    /// declarations win; a machine without dedicated `float` argument
    /// registers falls back to its `double` ones (and vice versa).
    pub fn arg_regs(&self, ty: Ty) -> Vec<PhysReg> {
        let key = match ty {
            Ty::Char | Ty::Short | Ty::Long | Ty::Ptr => Ty::Int,
            other => other,
        };
        let collect = |want: Ty| -> Vec<PhysReg> {
            let mut v: Vec<(u32, PhysReg)> = self
                .args
                .iter()
                .filter(|(t, _, _)| {
                    *t == want || (want == Ty::Int && matches!(t, Ty::Ptr | Ty::Long))
                })
                .map(|(_, r, i)| (*i, *r))
                .collect();
            v.sort();
            v.into_iter().map(|(_, r)| r).collect()
        };
        let exact = collect(key);
        if !exact.is_empty() {
            return exact;
        }
        match key {
            Ty::Float => collect(Ty::Double),
            Ty::Double => collect(Ty::Float),
            _ => exact,
        }
    }
}

/// Derived classification of what a template does, computed from its
/// semantic statements.
#[derive(Debug, Clone, PartialEq, Hash, Default)]
pub struct TemplateEffects {
    /// Operand indices (1-based) written by the instruction.
    pub defs: Vec<u8>,
    /// Operand indices (1-based) read by the instruction.
    pub uses: Vec<u8>,
    /// Temporal registers written.
    pub temporal_defs: Vec<TemporalId>,
    /// Temporal registers read.
    pub temporal_uses: Vec<TemporalId>,
    /// Reads a memory bank.
    pub reads_mem: bool,
    /// Writes a memory bank.
    pub writes_mem: bool,
    /// Is a conditional branch.
    pub is_cond_branch: bool,
    /// Is an unconditional branch.
    pub is_goto: bool,
    /// Is a call.
    pub is_call: bool,
    /// Is a return.
    pub is_return: bool,
}

impl TemplateEffects {
    /// True if the instruction transfers control.
    pub fn is_control(&self) -> bool {
        self.is_cond_branch || self.is_goto || self.is_call || self.is_return
    }
}

/// One compiled instruction template (from an `%instr` or `%move`
/// directive).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Template {
    /// Mnemonic as written in the description.
    pub mnemonic: String,
    /// Optional `[label]` naming this directive.
    pub label: Option<String>,
    /// `Some(fn_name)` when this is a `*func` escape to be expanded by
    /// a user-supplied function instead of emitted directly.
    pub escape: Option<String>,
    /// Operand shapes; `$k` refers to `operands[k-1]`.
    pub operands: Vec<OperandSpec>,
    /// Type constraint for selection.
    pub ty: Option<Ty>,
    /// Clock this instruction advances (EAP sub-operations).
    pub affects_clock: Option<ClockId>,
    /// Packing class, restricting which long-word elements this
    /// sub-operation may appear in.
    pub class: Option<ClassId>,
    /// Semantic statements.
    pub sem: Vec<Stmt>,
    /// Resources needed per cycle after issue.
    pub rsrc: Vec<ResSet>,
    /// Cost (0 marks a dummy instruction that is never emitted).
    pub cost: u32,
    /// Normal result latency in cycles.
    pub latency: u32,
    /// Delay slots (sign encodes the execution condition).
    pub slots: i32,
    /// Whether this came from a `%move` directive.
    pub is_move: bool,
    /// Derived def/use/branch classification.
    pub effects: TemplateEffects,
}

impl Template {
    /// True for zero-cost dummy instructions (never emitted).
    pub fn is_dummy(&self) -> bool {
        self.cost == 0 && self.escape.is_none()
    }

    /// The register class written by this instruction, if any.
    pub fn def_class(&self) -> Option<RegClassId> {
        self.effects
            .defs
            .first()
            .and_then(|k| match self.operands.get((*k - 1) as usize) {
                Some(OperandSpec::Reg(c)) => Some(*c),
                Some(OperandSpec::FixedReg(p)) => Some(p.class),
                _ => None,
            })
    }
}

/// The root shape of an IR value node, used to look up selection
/// candidates in a [`SelectionIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootShape {
    /// A binary arithmetic node.
    Bin(crate::expr::BinOp),
    /// A unary arithmetic node.
    Un(crate::expr::UnOp),
    /// A memory load.
    Load,
    /// A type conversion.
    Cvt,
    /// A constant (or constant-foldable) value, or a global address —
    /// anything an immediate operand or `Int` literal pattern could
    /// subsume.
    Imm,
    /// Anything else (only temporal-chain patterns can apply).
    Other,
}

/// A dispatch index from pattern-root shape to the candidate template
/// list, precomputed once per [`Machine`] — the table the "code
/// generator generator" step builds so the selector consults a
/// handful of templates instead of scanning the whole description.
///
/// Every candidate list is stored in **description order** (ascending
/// [`TemplateId`]), so iterating a list preserves the paper's
/// "first declared pattern wins" tie-break exactly. Completeness
/// invariant: for every IR node, the list returned by
/// [`SelectionIndex::value_candidates`] is a superset of the templates
/// the brute-force scan could have matched — templates whose semantic
/// root is a temporal register (chain launchers like the i860's
/// `FWB d {$1 = m3}`) can match *any* node shape through a producer
/// chain, so they appear merged into every lookup.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectionIndex {
    /// Value templates rooted `$1 = a OP b`, per operator.
    bin: Vec<(crate::expr::BinOp, Vec<TemplateId>)>,
    /// Value templates rooted `$1 = OP a`, per operator.
    un: Vec<(crate::expr::UnOp, Vec<TemplateId>)>,
    /// Value templates rooted `$1 = m[addr]`.
    load: Vec<TemplateId>,
    /// Value templates rooted at a conversion.
    cvt: Vec<TemplateId>,
    /// Value templates rooted `$1 = #imm` / `$1 = <literal>` /
    /// `$1 = <hard-wired reg>` — candidates for constants and global
    /// addresses.
    imm: Vec<TemplateId>,
    /// Value templates rooted at a temporal register: candidates for
    /// every node shape (resolved through producer chains).
    chained: Vec<TemplateId>,
    /// Load-immediate templates (`$1 = $k` with an immediate operand
    /// spec), including escape expansions — the `emit_li` scan.
    load_imm: Vec<TemplateId>,
    /// Store templates (`m[addr] = value`).
    stores: Vec<TemplateId>,
    /// Conditional-branch templates (`if (a REL b) goto $k`).
    cond_branches: Vec<TemplateId>,
    /// Unconditional-branch templates (`goto $k`).
    gotos: Vec<TemplateId>,
    /// Templates defining each temporal register, indexed by
    /// [`TemporalId`] — the chain-producer scan.
    temporal_defs: Vec<Vec<TemplateId>>,
}

impl SelectionIndex {
    /// Builds the index from a template list (description order).
    fn build(templates: &[Template], temporal_count: usize) -> SelectionIndex {
        use crate::expr::Expr as E;
        let mut ix = SelectionIndex {
            temporal_defs: vec![Vec::new(); temporal_count],
            ..SelectionIndex::default()
        };
        for (i, t) in templates.iter().enumerate() {
            let tid = TemplateId(i as u32);
            for &td in &t.effects.temporal_defs {
                ix.temporal_defs[td.0 as usize].push(tid);
            }
            match t.sem.as_slice() {
                [Stmt::Assign(LValue::Operand(1), rhs)] => match rhs {
                    E::Bin(op, _, _) => match ix.bin.iter_mut().find(|(o, _)| o == op) {
                        Some((_, v)) => v.push(tid),
                        None => ix.bin.push((*op, vec![tid])),
                    },
                    E::Un(op, _) => match ix.un.iter_mut().find(|(o, _)| o == op) {
                        Some((_, v)) => v.push(tid),
                        None => ix.un.push((*op, vec![tid])),
                    },
                    E::Mem(_, _) => ix.load.push(tid),
                    E::Convert(_, _) => ix.cvt.push(tid),
                    E::Int(_) => ix.imm.push(tid),
                    E::Temporal(_) => ix.chained.push(tid),
                    E::Operand(k) => {
                        // `$1 = $k`: an immediate spec is a
                        // load-immediate pattern; a hard-wired register
                        // spec subsumes constants; a plain register
                        // spec is a move, which value selection skips.
                        match t.operands.get((*k - 1) as usize) {
                            Some(OperandSpec::Imm(_)) => {
                                ix.imm.push(tid);
                                ix.load_imm.push(tid);
                            }
                            Some(OperandSpec::FixedReg(_)) | Some(OperandSpec::Reg(_)) => {}
                            _ => {}
                        }
                    }
                    E::Call(..) => {}
                },
                [Stmt::Assign(LValue::Mem(..), _)] => ix.stores.push(tid),
                [Stmt::CondGoto { .. }] => ix.cond_branches.push(tid),
                [Stmt::Goto(_)] => ix.gotos.push(tid),
                _ => {}
            }
        }
        ix
    }

    /// The brute-force reference index: every lookup returns every
    /// template in description order, so the selector tries them all
    /// and its own filters do the rejecting — the paper's plain ordered
    /// scan, expressed as data. Every template sits in the `chained`
    /// bucket (merged into each value lookup) and in every side list.
    fn brute_force(template_count: usize, temporal_count: usize) -> SelectionIndex {
        let all: Vec<TemplateId> = (0..template_count as u32).map(TemplateId).collect();
        SelectionIndex {
            chained: all.clone(),
            load_imm: all.clone(),
            stores: all.clone(),
            cond_branches: all.clone(),
            gotos: all.clone(),
            temporal_defs: vec![all; temporal_count],
            ..SelectionIndex::default()
        }
    }

    /// Candidate value templates for a node of the given root shape,
    /// in description order. `foldable` marks nodes that fold to an
    /// integer constant (an `Un(Neg)` over a literal also matches
    /// immediate patterns, not just negation patterns).
    pub fn value_candidates(&self, shape: RootShape, foldable: bool) -> Vec<TemplateId> {
        let shaped: &[TemplateId] = match shape {
            RootShape::Bin(op) => self
                .bin
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, v)| v.as_slice())
                .unwrap_or(&[]),
            RootShape::Un(op) => self
                .un
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, v)| v.as_slice())
                .unwrap_or(&[]),
            RootShape::Load => &self.load,
            RootShape::Cvt => &self.cvt,
            RootShape::Imm => &self.imm,
            RootShape::Other => &[],
        };
        // `Imm` already names the immediate bucket; merge it in for
        // foldable nodes of other shapes.
        let imm: &[TemplateId] = if foldable && !matches!(shape, RootShape::Imm) {
            &self.imm
        } else {
            &[]
        };
        let mut out = Vec::with_capacity(shaped.len() + imm.len() + self.chained.len());
        out.extend_from_slice(shaped);
        out.extend_from_slice(imm);
        out.extend_from_slice(&self.chained);
        out.sort_unstable();
        out
    }

    /// Load-immediate templates, in description order.
    pub fn load_imm_candidates(&self) -> &[TemplateId] {
        &self.load_imm
    }

    /// Store templates, in description order.
    pub fn store_candidates(&self) -> &[TemplateId] {
        &self.stores
    }

    /// Conditional-branch templates, in description order.
    pub fn cond_branch_candidates(&self) -> &[TemplateId] {
        &self.cond_branches
    }

    /// Unconditional-branch templates, in description order.
    pub fn goto_candidates(&self) -> &[TemplateId] {
        &self.gotos
    }

    /// Templates defining temporal register `id`, in description
    /// order.
    pub fn temporal_def_candidates(&self, id: TemporalId) -> &[TemplateId] {
        &self.temporal_defs[id.0 as usize]
    }
}

/// The fully compiled machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    name: String,
    reg_classes: Vec<RegClass>,
    temporals: Vec<TemporalReg>,
    resources: Vec<String>,
    imm_defs: Vec<ImmDef>,
    label_defs: Vec<LabelDef>,
    memories: Vec<String>,
    clocks: Vec<String>,
    elements: Vec<String>,
    classes: Vec<PackClass>,
    templates: Vec<Template>,
    aux: Vec<AuxLatency>,
    glue: Vec<GlueRule>,
    cwvm: Cwvm,
    stats: crate::stats::DescriptionStats,
    index: SelectionIndex,
    /// Indices into `aux` whose `first` mnemonic is the template's,
    /// per producer template id — derived at construction so
    /// [`Machine::edge_latency`] touches the aux list only for the
    /// few templates that actually carry `%aux` overrides.
    aux_by_first: Vec<Vec<u32>>,
}

/// What a compile-cache key covers of a machine: its name and the 13
/// tables code generation reads. The pattern names every field, so a
/// new one does not compile until it is hashed or skipped here.
impl Hash for Machine {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let Machine {
            name,
            reg_classes,
            temporals,
            resources,
            imm_defs,
            label_defs,
            memories,
            clocks,
            elements,
            classes,
            templates,
            aux,
            glue,
            cwvm,
            // Table 1 line counts: they change with formatting, not
            // with the code generated.
            stats: _,
            // Prunes candidate lists without reordering them, so a
            // machine and its `brute_force_reference()` compile the
            // same code and must share keys.
            index: _,
            // Derived from `templates` and `aux`.
            aux_by_first: _,
        } = self;
        name.hash(h);
        reg_classes.hash(h);
        temporals.hash(h);
        resources.hash(h);
        imm_defs.hash(h);
        label_defs.hash(h);
        memories.hash(h);
        clocks.hash(h);
        elements.hash(h);
        classes.hash(h);
        templates.hash(h);
        aux.hash(h);
        glue.hash(h);
        cwvm.hash(h);
    }
}

impl Machine {
    /// Parses and analyses a full Maril description.
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic or semantic error found,
    /// with a source span (render it with [`MarilError::render`]).
    pub fn parse(name: &str, src: &str) -> Result<Machine, Box<MarilError>> {
        let tokens = crate::lexer::lex(src).map_err(Box::new)?;
        let desc = crate::parser::parse(&tokens).map_err(Box::new)?;
        crate::sema::analyze_with_source(name, src, &desc).map_err(Box::new)
    }

    /// Internal constructor used by semantic analysis.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        reg_classes: Vec<RegClass>,
        temporals: Vec<TemporalReg>,
        resources: Vec<String>,
        imm_defs: Vec<ImmDef>,
        label_defs: Vec<LabelDef>,
        memories: Vec<String>,
        clocks: Vec<String>,
        elements: Vec<String>,
        classes: Vec<PackClass>,
        templates: Vec<Template>,
        aux: Vec<AuxLatency>,
        glue: Vec<GlueRule>,
        cwvm: Cwvm,
        stats: crate::stats::DescriptionStats,
    ) -> Machine {
        let index = SelectionIndex::build(&templates, temporals.len());
        let aux_by_first: Vec<Vec<u32>> = templates
            .iter()
            .map(|t| {
                aux.iter()
                    .enumerate()
                    .filter(|(_, a)| a.first == t.mnemonic)
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
        Machine {
            name,
            reg_classes,
            temporals,
            resources,
            imm_defs,
            label_defs,
            memories,
            clocks,
            elements,
            classes,
            templates,
            aux,
            glue,
            cwvm,
            stats,
            index,
            aux_by_first,
        }
    }

    /// The precomputed selection dispatch index (built once, at
    /// description-compile time).
    pub fn selection_index(&self) -> &SelectionIndex {
        &self.index
    }

    /// A copy of this machine whose selection index is the brute-force
    /// reference: every lookup returns every template in description
    /// order. It selects exactly what `self` selects, only slower — the
    /// real index prunes templates that cannot match and never reorders
    /// — so it is the reference the selection crosscheck compiles
    /// against.
    pub fn brute_force_reference(&self) -> Machine {
        Machine {
            index: SelectionIndex::brute_force(self.templates.len(), self.temporals.len()),
            ..self.clone()
        }
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All register classes.
    pub fn reg_classes(&self) -> &[RegClass] {
        &self.reg_classes
    }

    /// One register class.
    pub fn reg_class(&self, id: RegClassId) -> &RegClass {
        &self.reg_classes[id.0 as usize]
    }

    /// Looks up a register class by name.
    pub fn reg_class_by_name(&self, name: &str) -> Option<RegClassId> {
        self.reg_classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| RegClassId(i as u32))
    }

    /// All temporal registers.
    pub fn temporals(&self) -> &[TemporalReg] {
        &self.temporals
    }

    /// Looks up a temporal register by name.
    pub fn temporal_by_name(&self, name: &str) -> Option<TemporalId> {
        self.temporals
            .iter()
            .position(|t| t.name == name)
            .map(|i| TemporalId(i as u32))
    }

    /// One temporal register.
    pub fn temporal(&self, id: TemporalId) -> &TemporalReg {
        &self.temporals[id.0 as usize]
    }

    /// Declared resource names; the index is the resource id.
    pub fn resources(&self) -> &[String] {
        &self.resources
    }

    /// Immediate ranges.
    pub fn imm_defs(&self) -> &[ImmDef] {
        &self.imm_defs
    }

    /// One immediate range.
    pub fn imm_def(&self, id: ImmDefId) -> &ImmDef {
        &self.imm_defs[id.0 as usize]
    }

    /// Label ranges.
    pub fn label_defs(&self) -> &[LabelDef] {
        &self.label_defs
    }

    /// Declared memory banks.
    pub fn memories(&self) -> &[String] {
        &self.memories
    }

    /// Declared clocks.
    pub fn clocks(&self) -> &[String] {
        &self.clocks
    }

    /// Declared long-word elements.
    pub fn elements(&self) -> &[String] {
        &self.elements
    }

    /// Declared packing classes.
    pub fn classes(&self) -> &[PackClass] {
        &self.classes
    }

    /// One packing class.
    pub fn class(&self, id: ClassId) -> &PackClass {
        &self.classes[id.0 as usize]
    }

    /// All instruction templates, in description order (the selector
    /// tries them in this order).
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// One template.
    pub fn template(&self, id: TemplateId) -> &Template {
        &self.templates[id.0 as usize]
    }

    /// Finds the first template with the given mnemonic.
    pub fn template_by_mnemonic(&self, mnemonic: &str) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| t.mnemonic == mnemonic)
            .map(|i| TemplateId(i as u32))
    }

    /// Finds a template by its `[label]`.
    pub fn template_by_label(&self, label: &str) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| t.label.as_deref() == Some(label))
            .map(|i| TemplateId(i as u32))
    }

    /// The auxiliary-latency table.
    pub fn aux_latencies(&self) -> &[AuxLatency] {
        &self.aux
    }

    /// Returns a copy of this machine with all `%aux` directives
    /// removed (for ablation experiments on the value of pair-specific
    /// latencies).
    pub fn without_aux(&self) -> Machine {
        let mut m = self.clone();
        m.aux.clear();
        m.aux_by_first = vec![Vec::new(); m.templates.len()];
        m
    }

    /// The latency of every dependence edge out of `first`, when no
    /// `%aux` directive names it as a producer; `None` when
    /// [`Machine::edge_latency`] must look at the consumer.
    pub fn fixed_latency(&self, first: TemplateId) -> Option<u32> {
        self.aux_by_first[first.0 as usize]
            .is_empty()
            .then(|| self.template(first).latency)
    }

    /// Computes the latency of a dependence edge from `first` to
    /// `second`, honouring `%aux` overrides. `ops_equal(i, j)` must
    /// report whether operand `i` of the producer equals operand `j`
    /// of the consumer.
    pub fn edge_latency(
        &self,
        first: TemplateId,
        second: TemplateId,
        ops_equal: &dyn Fn(u8, u8) -> bool,
    ) -> u32 {
        let ft = self.template(first);
        // Only the few templates named in `%aux` directives have
        // candidate overrides; everything else returns immediately.
        let cands = &self.aux_by_first[first.0 as usize];
        if cands.is_empty() {
            return ft.latency;
        }
        let st = self.template(second);
        for &ai in cands {
            let aux = &self.aux[ai as usize];
            if aux.second == st.mnemonic {
                match aux.cond {
                    None => return aux.latency,
                    Some((i, j)) if ops_equal(i, j) => return aux.latency,
                    _ => {}
                }
            }
        }
        ft.latency
    }

    /// Compiled glue transformations, in description order.
    pub fn glue_rules(&self) -> &[GlueRule] {
        &self.glue
    }

    /// The runtime model.
    pub fn cwvm(&self) -> &Cwvm {
        &self.cwvm
    }

    /// Description statistics for Table 1.
    pub fn stats(&self) -> &crate::stats::DescriptionStats {
        &self.stats
    }

    /// Replaces the statistics (used internally once line counts have
    /// been computed against the source text).
    pub(crate) fn set_stats(&mut self, stats: crate::stats::DescriptionStats) {
        self.stats = stats;
    }

    /// Total number of register *units*. Units are the granularity of
    /// interference: `%equiv` overlapping classes map to shared units
    /// (one TOYP `d` register covers two `r` units).
    pub fn unit_count(&self) -> u32 {
        self.reg_classes
            .iter()
            .map(|c| c.unit_base + c.count * c.unit_stride)
            .max()
            .unwrap_or(0)
    }

    /// The register units occupied by a physical register.
    pub fn units_of(&self, reg: PhysReg) -> impl Iterator<Item = u32> + '_ {
        let c = self.reg_class(reg.class);
        let start = c.unit_base + reg.index * c.unit_stride;
        start..start + c.unit_width
    }

    /// The register units occupied by `reg`, as a half-open range
    /// `[start, end)`. Units of one register are always contiguous.
    pub fn unit_range(&self, reg: PhysReg) -> (u32, u32) {
        let c = self.reg_class(reg.class);
        let start = c.unit_base + reg.index * c.unit_stride;
        (start, start + c.unit_width)
    }

    /// Whether two physical registers overlap (same storage). Unit
    /// ranges are contiguous, so this is interval intersection.
    pub fn regs_overlap(&self, a: PhysReg, b: PhysReg) -> bool {
        let (sa, ea) = self.unit_range(a);
        let (sb, eb) = self.unit_range(b);
        sa < eb && sb < ea
    }

    /// Allocable registers of one class, in CWVM order.
    pub fn allocable_of_class(&self, class: RegClassId) -> Vec<PhysReg> {
        self.cwvm
            .allocable
            .iter()
            .filter(|r| r.class == class)
            .copied()
            .collect()
    }

    /// Finds a plain (non-escape) `%move` template copying within
    /// `class`.
    pub fn move_template(&self, class: RegClassId) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| {
                t.is_move
                    && t.escape.is_none()
                    && t.def_class() == Some(class)
                    && t.effects
                        .uses
                        .iter()
                        .any(|k| matches!(t.operands.get((*k - 1) as usize), Some(OperandSpec::Reg(c)) if *c == class))
            })
            .map(|i| TemplateId(i as u32))
    }

    /// Finds an escape `%move` for `class` (used when no single
    /// instruction can copy a register, e.g. TOYP's `*movd`).
    pub fn move_escape(&self, class: RegClassId) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| {
                t.is_move
                    && t.escape.is_some()
                    && matches!(t.operands.first(), Some(OperandSpec::Reg(c)) if *c == class)
            })
            .map(|i| TemplateId(i as u32))
    }

    /// Finds a load template `$1 = m[$2 + $3]` producing `class`, for
    /// spill reloads.
    pub fn spill_load(&self, class: RegClassId) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| {
                if t.def_class() != Some(class) || t.escape.is_some() {
                    return false;
                }
                matches!(
                    t.sem.as_slice(),
                    [Stmt::Assign(LValue::Operand(1), Expr::Mem(_, addr))]
                        if matches!(**addr, Expr::Bin(crate::expr::BinOp::Add, _, _))
                )
            })
            .map(|i| TemplateId(i as u32))
    }

    /// Finds a store template `m[$2 + $3] = $1` consuming `class`, for
    /// spill stores.
    pub fn spill_store(&self, class: RegClassId) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| {
                if t.escape.is_some() {
                    return false;
                }
                let stores_class = matches!(t.operands.first(),
                    Some(OperandSpec::Reg(c)) if *c == class);
                stores_class
                    && matches!(
                        t.sem.as_slice(),
                        [Stmt::Assign(
                            LValue::Mem(_, Expr::Bin(crate::expr::BinOp::Add, _, _)),
                            Expr::Operand(1)
                        )]
                    )
            })
            .map(|i| TemplateId(i as u32))
    }

    /// The machine's `nop` template, required for delay-slot filling.
    pub fn nop_template(&self) -> Option<TemplateId> {
        self.template_by_mnemonic("nop")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resset_basic_ops() {
        let mut a = ResSet::EMPTY;
        a.insert(3);
        a.insert(130);
        assert!(a.contains(3));
        assert!(a.contains(130));
        assert!(!a.contains(4));
        assert_eq!(a.len(), 2);
        let mut b = ResSet::EMPTY;
        b.insert(130);
        assert!(a.intersects(&b));
        b = ResSet::EMPTY;
        b.insert(7);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(7));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 7, 130]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn resset_insert_out_of_range_panics() {
        let mut a = ResSet::EMPTY;
        a.insert(256);
    }

    #[test]
    fn ty_sizes() {
        assert_eq!(Ty::Char.size(), 1);
        assert_eq!(Ty::Int.size(), 4);
        assert_eq!(Ty::Double.size(), 8);
        assert!(Ty::Float.is_float());
        assert!(!Ty::Ptr.is_float());
        assert_eq!(Ty::from_keyword("double"), Some(Ty::Double));
        assert_eq!(Ty::from_keyword("void"), None);
    }

    #[test]
    fn resset_all() {
        let s = ResSet::all(5);
        assert_eq!(s.len(), 5);
        assert!(s.contains(0) && s.contains(4) && !s.contains(5));
    }
}
