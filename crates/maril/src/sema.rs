//! Semantic analysis: checks a parsed [`Description`] and lowers it
//! into the compiled [`Machine`] tables.

use crate::ast::{self, CwvmItem, DeclItem, Description, InstrItem, OperandAst};
use crate::error::{MarilError, Span};
use crate::expr::{Expr, LValue, Stmt};
use crate::machine::{
    AuxLatency, ClassId, ClockId, Cwvm, GlueRule, ImmDef, LabelDef, Machine, OperandSpec,
    PackClass, PhysReg, RegClass, RegClassId, ResSet, Template, TemplateEffects, TemporalId,
    TemporalReg, Ty,
};
use crate::stats::DescriptionStats;
use std::collections::HashMap;

/// Analyses a description against its source text (used for line
/// statistics) and produces the compiled machine.
///
/// # Errors
///
/// Returns the first semantic inconsistency found: duplicate or
/// unknown names, out-of-range register indices, ill-formed `%equiv`
/// overlays, operand references outside the operand list, and so on.
pub fn analyze(name: &str, desc: &Description) -> Result<Machine, MarilError> {
    Analyzer::new(name, desc).run()
}

/// Like [`analyze`], but also computes per-section line counts from
/// the original source.
pub fn analyze_with_source(
    name: &str,
    src: &str,
    desc: &Description,
) -> Result<Machine, MarilError> {
    let mut machine = Analyzer::new(name, desc).run()?;
    let lines = |span: Option<Span>| {
        span.map(|s| src[s.start..s.end.min(src.len())].lines().count())
            .unwrap_or(0)
    };
    let stats = DescriptionStats {
        declare_lines: lines(desc.section_spans.declare),
        cwvm_lines: lines(desc.section_spans.cwvm),
        instr_lines: lines(desc.section_spans.instr),
        ..*machine.stats()
    };
    machine.set_stats(stats);
    Ok(machine)
}

struct Analyzer<'a> {
    name: &'a str,
    desc: &'a Description,
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
    escapes: usize,
}

impl<'a> Analyzer<'a> {
    fn new(name: &'a str, desc: &'a Description) -> Self {
        Analyzer {
            name,
            desc,
            reg_classes: Vec::new(),
            temporals: Vec::new(),
            resources: Vec::new(),
            imm_defs: Vec::new(),
            label_defs: Vec::new(),
            memories: Vec::new(),
            clocks: Vec::new(),
            elements: Vec::new(),
            classes: Vec::new(),
            templates: Vec::new(),
            aux: Vec::new(),
            glue: Vec::new(),
            cwvm: Cwvm::default(),
            escapes: 0,
        }
    }

    fn run(mut self) -> Result<Machine, MarilError> {
        self.declare_pass()?;
        self.equiv_pass()?;
        self.cwvm_pass()?;
        self.instr_pass()?;
        let stats = DescriptionStats {
            declare_lines: 0,
            cwvm_lines: 0,
            instr_lines: 0,
            instr_directives: self.templates.iter().filter(|t| t.escape.is_none()).count(),
            clocks: self.clocks.len(),
            elements: self.elements.len(),
            classes: self.classes.len(),
            aux_lats: self.aux.len(),
            glue_xforms: self.glue.len(),
            funcs: self.escapes,
        };
        Ok(Machine::from_parts(
            self.name.to_owned(),
            self.reg_classes,
            self.temporals,
            self.resources,
            self.imm_defs,
            self.label_defs,
            self.memories,
            self.clocks,
            self.elements,
            self.classes,
            self.templates,
            self.aux,
            self.glue,
            self.cwvm,
            stats,
        ))
    }

    fn clock_id(&self, name: &str, span: Span) -> Result<ClockId, MarilError> {
        self.clocks
            .iter()
            .position(|c| c == name)
            .map(|i| ClockId(i as u32))
            .ok_or_else(|| MarilError::sema(format!("unknown clock `{name}`"), span))
    }

    fn class_id(&self, name: &str) -> Option<RegClassId> {
        self.reg_classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| RegClassId(i as u32))
    }

    fn resolve_reg(&self, r: &ast::RegRef) -> Result<PhysReg, MarilError> {
        let class = self.class_id(&r.class).ok_or_else(|| {
            MarilError::sema(format!("unknown register class `{}`", r.class), r.span)
        })?;
        let c = &self.reg_classes[class.0 as usize];
        if r.index >= c.count {
            return Err(MarilError::sema(
                format!("register index {} out of range for `{}`", r.index, r.class),
                r.span,
            ));
        }
        Ok(PhysReg::new(class, r.index))
    }

    fn declare_pass(&mut self) -> Result<(), MarilError> {
        // Clocks must be visible to temporal %reg declarations that may
        // precede them textually, so gather clocks first.
        for item in &self.desc.declare {
            if let DeclItem::Clock { name, span } = item {
                if self.clocks.contains(name) {
                    return Err(MarilError::sema(format!("duplicate clock `{name}`"), *span));
                }
                self.clocks.push(name.clone());
            }
        }
        for item in &self.desc.declare {
            match item {
                DeclItem::Clock { .. } => {}
                DeclItem::Reg {
                    name,
                    range,
                    tys,
                    clock,
                    temporal,
                    span,
                } => {
                    if *temporal || clock.is_some() {
                        let clock_name = clock.as_deref().ok_or_else(|| {
                            MarilError::sema(
                                format!("temporal register `{name}` needs a clock"),
                                *span,
                            )
                        })?;
                        if range.is_some() {
                            return Err(MarilError::sema(
                                format!("temporal register `{name}` cannot be an array"),
                                *span,
                            ));
                        }
                        let clock = self.clock_id(clock_name, *span)?;
                        if self.temporals.iter().any(|t| t.name == *name) {
                            return Err(MarilError::sema(
                                format!("duplicate temporal register `{name}`"),
                                *span,
                            ));
                        }
                        self.temporals.push(TemporalReg {
                            name: name.clone(),
                            ty: tys.first().copied().unwrap_or(Ty::Int),
                            clock,
                        });
                    } else {
                        if self.reg_classes.iter().any(|c| c.name == *name) {
                            return Err(MarilError::sema(
                                format!("duplicate register class `{name}`"),
                                *span,
                            ));
                        }
                        let (lo, hi) = range.unwrap_or((0, 0));
                        if hi < lo {
                            return Err(MarilError::sema(
                                format!("empty register range for `{name}`"),
                                *span,
                            ));
                        }
                        if lo != 0 {
                            return Err(MarilError::sema(
                                format!("register class `{name}` must start at index 0"),
                                *span,
                            ));
                        }
                        self.reg_classes.push(RegClass {
                            name: name.clone(),
                            count: hi - lo + 1,
                            tys: tys.clone(),
                            unit_width: 0, // assigned by equiv_pass
                            unit_base: 0,
                            unit_stride: 0,
                        });
                    }
                }
                DeclItem::Resource { names, span } => {
                    for n in names {
                        if self.resources.contains(n) {
                            return Err(MarilError::sema(
                                format!("duplicate resource `{n}`"),
                                *span,
                            ));
                        }
                        self.resources.push(n.clone());
                    }
                    if self.resources.len() > 256 {
                        return Err(MarilError::sema("more than 256 resources", *span));
                    }
                }
                DeclItem::Def {
                    name,
                    range,
                    flags,
                    span,
                } => {
                    if self.imm_defs.iter().any(|d| d.name == *name) {
                        return Err(MarilError::sema(format!("duplicate %def `{name}`"), *span));
                    }
                    if range.1 < range.0 {
                        return Err(MarilError::sema(format!("empty range on `{name}`"), *span));
                    }
                    self.imm_defs.push(ImmDef {
                        name: name.clone(),
                        lo: range.0,
                        hi: range.1,
                        flags: flags.clone(),
                    });
                }
                DeclItem::Label {
                    name,
                    range,
                    flags,
                    span,
                } => {
                    if self.label_defs.iter().any(|d| d.name == *name) {
                        return Err(MarilError::sema(
                            format!("duplicate %label `{name}`"),
                            *span,
                        ));
                    }
                    self.label_defs.push(LabelDef {
                        name: name.clone(),
                        lo: range.0,
                        hi: range.1,
                        relative: flags.iter().any(|f| f == "relative"),
                    });
                }
                DeclItem::Memory { name, span, .. } => {
                    if self.memories.contains(name) {
                        return Err(MarilError::sema(
                            format!("duplicate memory bank `{name}`"),
                            *span,
                        ));
                    }
                    self.memories.push(name.clone());
                }
                DeclItem::Element { name, span } => {
                    if self.elements.contains(name) {
                        return Err(MarilError::sema(
                            format!("duplicate element `{name}`"),
                            *span,
                        ));
                    }
                    if self.elements.len() >= 256 {
                        return Err(MarilError::sema("more than 256 elements", *span));
                    }
                    self.elements.push(name.clone());
                }
                DeclItem::Class {
                    name,
                    elements,
                    span,
                } => {
                    if self.classes.iter().any(|c| c.name == *name) {
                        return Err(MarilError::sema(format!("duplicate class `{name}`"), *span));
                    }
                    let mut set = ResSet::EMPTY;
                    for e in elements {
                        let id = self.elements.iter().position(|x| x == e).ok_or_else(|| {
                            MarilError::sema(format!("unknown element `{e}`"), *span)
                        })?;
                        set.insert(id as u32);
                    }
                    self.classes.push(PackClass {
                        name: name.clone(),
                        elements: set,
                    });
                }
                DeclItem::Equiv { .. } => {} // second pass
            }
        }
        Ok(())
    }

    /// Assigns register units. Classes joined by `%equiv` share a unit
    /// space; the overlay follows register sizes (a 64-bit `d`
    /// register covers two 32-bit `r` units).
    fn equiv_pass(&mut self) -> Result<(), MarilError> {
        // Unit granularity is the smallest register size over all
        // classes, in bytes (at least 1).
        let min_size = self
            .reg_classes
            .iter()
            .map(|c| c.reg_size())
            .min()
            .unwrap_or(4);
        for c in &mut self.reg_classes {
            let w = (c.reg_size() / min_size).max(1);
            c.unit_width = w;
            c.unit_stride = w;
        }
        // Union groups of equivalent classes.
        let mut group: Vec<usize> = (0..self.reg_classes.len()).collect();
        fn find(group: &mut [usize], mut i: usize) -> usize {
            while group[i] != i {
                group[i] = group[group[i]];
                i = group[i];
            }
            i
        }
        let mut anchors: Vec<(usize, usize, u32, u32, Span)> = Vec::new();
        for item in &self.desc.declare {
            if let DeclItem::Equiv { a, b, span } = item {
                let ca = self
                    .class_id(&a.class)
                    .ok_or_else(|| {
                        MarilError::sema(format!("unknown register class `{}`", a.class), a.span)
                    })?
                    .0 as usize;
                let cb = self
                    .class_id(&b.class)
                    .ok_or_else(|| {
                        MarilError::sema(format!("unknown register class `{}`", b.class), b.span)
                    })?
                    .0 as usize;
                let ra = find(&mut group, ca);
                let rb = find(&mut group, cb);
                group[rb] = ra;
                anchors.push((ca, cb, a.index, b.index, *span));
            }
        }
        // Lay out unit bases: group leaders first, then overlays.
        let mut next_base = 0u32;
        let mut base_set = vec![false; self.reg_classes.len()];
        for (i, is_base) in base_set.iter_mut().enumerate() {
            if find(&mut group, i) == i {
                self.reg_classes[i].unit_base = next_base;
                *is_base = true;
                next_base += self.reg_classes[i].count * self.reg_classes[i].unit_stride;
            }
        }
        // Propagate anchors until fixpoint (handles chains of equivs).
        let mut progress = true;
        while progress {
            progress = false;
            for &(ca, cb, ia, ib, span) in &anchors {
                let (wa, sa) = {
                    let c = &self.reg_classes[ca];
                    (c.unit_base, c.unit_stride)
                };
                let (wb, sb) = {
                    let c = &self.reg_classes[cb];
                    (c.unit_base, c.unit_stride)
                };
                match (base_set[ca], base_set[cb]) {
                    (true, false) => {
                        // base_b + ib*stride_b == base_a + ia*stride_a
                        let target = wa + ia * sa;
                        let offset = ib * sb;
                        if offset > target {
                            return Err(MarilError::sema(
                                "equiv overlay extends below the unit space",
                                span,
                            ));
                        }
                        self.reg_classes[cb].unit_base = target - offset;
                        base_set[cb] = true;
                        progress = true;
                    }
                    (false, true) => {
                        let target = wb + ib * sb;
                        let offset = ia * sa;
                        if offset > target {
                            return Err(MarilError::sema(
                                "equiv overlay extends below the unit space",
                                span,
                            ));
                        }
                        self.reg_classes[ca].unit_base = target - offset;
                        base_set[ca] = true;
                        progress = true;
                    }
                    (true, true) => {
                        if wa + ia * sa != wb + ib * sb {
                            return Err(MarilError::sema("conflicting %equiv anchors", span));
                        }
                    }
                    (false, false) => {}
                }
            }
        }
        for (i, set) in base_set.iter().enumerate() {
            if !set {
                return Err(MarilError::sema(
                    format!(
                        "register class `{}` has no unit base (broken %equiv chain)",
                        self.reg_classes[i].name
                    ),
                    Span::default(),
                ));
            }
        }
        Ok(())
    }

    fn cwvm_pass(&mut self) -> Result<(), MarilError> {
        for item in &self.desc.cwvm {
            match item {
                CwvmItem::General { ty, class, span } => {
                    let id = self.class_id(class).ok_or_else(|| {
                        MarilError::sema(format!("unknown register class `{class}`"), *span)
                    })?;
                    self.cwvm.general.push((*ty, id));
                }
                CwvmItem::Allocable(range) => {
                    let regs = self.expand_range(range)?;
                    self.cwvm.allocable.extend(regs);
                }
                CwvmItem::CalleeSave(range) => {
                    let regs = self.expand_range(range)?;
                    self.cwvm.callee_save.extend(regs);
                }
                CwvmItem::Sp { reg, down } => {
                    self.cwvm.sp = Some(self.resolve_reg(reg)?);
                    self.cwvm.stack_down = *down;
                }
                CwvmItem::Fp { reg, .. } => {
                    self.cwvm.fp = Some(self.resolve_reg(reg)?);
                }
                CwvmItem::RetAddr(reg) => {
                    self.cwvm.retaddr = Some(self.resolve_reg(reg)?);
                }
                CwvmItem::GlobalPtr(reg) => {
                    self.cwvm.gp = Some(self.resolve_reg(reg)?);
                }
                CwvmItem::Hard { reg, value } => {
                    let r = self.resolve_reg(reg)?;
                    self.cwvm.hard.push((r, *value));
                }
                CwvmItem::Arg { ty, reg, index } => {
                    let r = self.resolve_reg(reg)?;
                    self.cwvm.args.push((*ty, r, *index));
                }
                CwvmItem::Result { reg, ty } => {
                    let r = self.resolve_reg(reg)?;
                    self.cwvm.results.push((r, *ty));
                }
            }
        }
        Ok(())
    }

    fn expand_range(&self, range: &ast::RegRange) -> Result<Vec<PhysReg>, MarilError> {
        let class = self.class_id(&range.class).ok_or_else(|| {
            MarilError::sema(
                format!("unknown register class `{}`", range.class),
                range.span,
            )
        })?;
        let count = self.reg_classes[class.0 as usize].count;
        let (lo, hi) = range.range.unwrap_or((0, count - 1));
        if hi >= count {
            return Err(MarilError::sema(
                format!(
                    "register range {}..{} out of bounds for class `{}` ({} registers)",
                    lo, hi, range.class, count
                ),
                range.span,
            ));
        }
        Ok((lo..=hi).map(|i| PhysReg::new(class, i)).collect())
    }

    fn instr_pass(&mut self) -> Result<(), MarilError> {
        let mut mnemonics: HashMap<String, usize> = HashMap::new();
        for item in &self.desc.instrs {
            match item {
                InstrItem::Instr(def) | InstrItem::Move(def) => {
                    let is_move = matches!(item, InstrItem::Move(_));
                    let tpl = self.compile_instr(def, is_move)?;
                    *mnemonics.entry(tpl.mnemonic.clone()).or_insert(0) += 1;
                    if tpl.escape.is_some() {
                        self.escapes += 1;
                    }
                    self.templates.push(tpl);
                }
                InstrItem::Aux {
                    first,
                    second,
                    cond,
                    latency,
                    span,
                } => {
                    if *latency < 0 {
                        return Err(MarilError::sema(
                            format!("negative %aux latency for pair `{first}`:`{second}`"),
                            *span,
                        ));
                    }
                    self.aux.push(AuxLatency {
                        first: first.clone(),
                        second: second.clone(),
                        cond: cond.map(|c| (c.first_op, c.second_op)),
                        latency: *latency as u32,
                    });
                }
                InstrItem::Glue {
                    rule,
                    operands,
                    span,
                } => {
                    let mut operand_classes = Vec::new();
                    for op in operands {
                        operand_classes.push(match op {
                            OperandAst::RegClass(name) => {
                                Some(self.class_id(name).ok_or_else(|| {
                                    MarilError::sema(
                                        format!("unknown register class `{name}` in %glue"),
                                        *span,
                                    )
                                })?)
                            }
                            _ => None,
                        });
                    }
                    let kind = match rule {
                        ast::GlueRule::Cond {
                            from_rel,
                            to_rel,
                            to_lhs,
                            to_rhs,
                        } => crate::machine::GlueKind::Cond {
                            from_rel: *from_rel,
                            to_rel: *to_rel,
                            to_lhs: to_lhs.clone(),
                            to_rhs: to_rhs.clone(),
                        },
                        ast::GlueRule::Value { from, to } => crate::machine::GlueKind::Value {
                            from: from.clone(),
                            to: to.clone(),
                        },
                    };
                    self.glue.push(GlueRule {
                        operand_classes,
                        kind,
                    });
                }
            }
        }
        // Aux directives must reference known mnemonics.
        for aux in &self.aux {
            for m in [&aux.first, &aux.second] {
                if !mnemonics.contains_key(m) {
                    return Err(MarilError::sema(
                        format!("%aux references unknown instruction `{m}`"),
                        Span::default(),
                    ));
                }
            }
        }
        Ok(())
    }

    fn compile_instr(&self, def: &ast::InstrDef, is_move: bool) -> Result<Template, MarilError> {
        let mut operands = Vec::with_capacity(def.operands.len());
        for op in &def.operands {
            operands.push(match op {
                OperandAst::RegClass(name) => {
                    let id = self.class_id(name).ok_or_else(|| {
                        MarilError::sema(
                            format!(
                                "unknown register class `{name}` in operand list of `{}`",
                                def.mnemonic
                            ),
                            def.span,
                        )
                    })?;
                    OperandSpec::Reg(id)
                }
                OperandAst::FixedReg(r) => OperandSpec::FixedReg(self.resolve_reg(r)?),
                OperandAst::Imm(name) | OperandAst::Lab(name) => {
                    if let Some(i) = self.imm_defs.iter().position(|d| d.name == *name) {
                        OperandSpec::Imm(crate::machine::ImmDefId(i as u32))
                    } else if let Some(i) = self.label_defs.iter().position(|d| d.name == *name) {
                        OperandSpec::Lab(crate::machine::LabelDefId(i as u32))
                    } else {
                        return Err(MarilError::sema(
                            format!(
                                "unknown %def/%label `{name}` on instruction `{}`",
                                def.mnemonic
                            ),
                            def.span,
                        ));
                    }
                }
            });
        }
        // Resource vector.
        let mut rsrc = Vec::with_capacity(def.resources.len());
        for cycle in &def.resources {
            let mut set = ResSet::EMPTY;
            for r in cycle {
                let id = self.resources.iter().position(|x| x == r).ok_or_else(|| {
                    MarilError::sema(
                        format!("unknown resource `{r}` on instruction `{}`", def.mnemonic),
                        def.span,
                    )
                })?;
                set.insert(id as u32);
            }
            rsrc.push(set);
        }
        let affects_clock = match &def.clock {
            Some(c) => Some(self.clock_id(c, def.span)?),
            None => None,
        };
        let class = match &def.class {
            Some(c) => Some(
                self.classes
                    .iter()
                    .position(|x| x.name == *c)
                    .map(|i| ClassId(i as u32))
                    .ok_or_else(|| {
                        MarilError::sema(
                            format!("unknown class `{c}` on instruction `{}`", def.mnemonic),
                            def.span,
                        )
                    })?,
            ),
            None => None,
        };
        if def.cost < 0 || def.latency < 0 {
            return Err(MarilError::sema(
                format!(
                    "negative cost or latency ({}, {}) on instruction `{}`",
                    def.cost, def.latency, def.mnemonic
                ),
                def.span,
            ));
        }
        let effects = self.effects_of(def, &operands)?;
        Ok(Template {
            mnemonic: def.mnemonic.clone(),
            label: def.label.clone(),
            escape: if def.escape {
                Some(def.mnemonic.clone())
            } else {
                None
            },
            operands,
            ty: def.ty,
            affects_clock,
            class,
            sem: def.sem.clone(),
            rsrc,
            cost: def.cost as u32,
            latency: def.latency as u32,
            slots: def.slots as i32,
            is_move,
            effects,
        })
    }

    fn effects_of(
        &self,
        def: &ast::InstrDef,
        operands: &[OperandSpec],
    ) -> Result<TemplateEffects, MarilError> {
        let mut fx = TemplateEffects::default();
        let n = operands.len() as u8;
        let check_ref = |k: u8| -> Result<(), MarilError> {
            if k == 0 || k > n {
                Err(MarilError::sema(
                    format!(
                        "operand reference ${k} out of range in `{}` (instruction has {n} operands)",
                        def.mnemonic
                    ),
                    def.span,
                ))
            } else {
                Ok(())
            }
        };
        // Collects data uses (operand and temporal reads) from an expr.
        fn scan_expr(
            this: &Analyzer<'_>,
            e: &Expr,
            def: &ast::InstrDef,
            fx: &mut TemplateEffects,
            check_ref: &dyn Fn(u8) -> Result<(), MarilError>,
        ) -> Result<(), MarilError> {
            match e {
                Expr::Operand(k) => {
                    check_ref(*k)?;
                    if !fx.uses.contains(k) {
                        fx.uses.push(*k);
                    }
                }
                Expr::Int(_) => {}
                Expr::Temporal(name) => {
                    let id = this.temporal_id(name, def.span)?;
                    if !fx.temporal_uses.contains(&id) {
                        fx.temporal_uses.push(id);
                    }
                }
                Expr::Mem(bank, addr) => {
                    if !this.memories.contains(bank) {
                        return Err(MarilError::sema(
                            format!("unknown memory bank `{bank}`"),
                            def.span,
                        ));
                    }
                    fx.reads_mem = true;
                    scan_expr(this, addr, def, fx, check_ref)?;
                }
                Expr::Bin(_, a, b) => {
                    scan_expr(this, a, def, fx, check_ref)?;
                    scan_expr(this, b, def, fx, check_ref)?;
                }
                Expr::Un(_, a) | Expr::Call(_, a) | Expr::Convert(_, a) => {
                    scan_expr(this, a, def, fx, check_ref)?;
                }
            }
            Ok(())
        }
        for stmt in &def.sem {
            match stmt {
                Stmt::Assign(lv, rhs) => {
                    scan_expr(self, rhs, def, &mut fx, &check_ref)?;
                    match lv {
                        LValue::Operand(k) => {
                            check_ref(*k)?;
                            match operands[(*k - 1) as usize] {
                                OperandSpec::Reg(_) | OperandSpec::FixedReg(_) => {}
                                _ => {
                                    return Err(MarilError::sema(
                                        format!("operand ${k} is assigned but is not a register"),
                                        def.span,
                                    ));
                                }
                            }
                            if !fx.defs.contains(k) {
                                fx.defs.push(*k);
                            }
                        }
                        LValue::Temporal(name) => {
                            let id = self.temporal_id(name, def.span)?;
                            if !fx.temporal_defs.contains(&id) {
                                fx.temporal_defs.push(id);
                            }
                        }
                        LValue::Mem(bank, addr) => {
                            if !self.memories.contains(bank) {
                                return Err(MarilError::sema(
                                    format!("unknown memory bank `{bank}`"),
                                    def.span,
                                ));
                            }
                            fx.writes_mem = true;
                            scan_expr(self, addr, def, &mut fx, &check_ref)?;
                        }
                    }
                }
                Stmt::CondGoto {
                    lhs, rhs, target, ..
                } => {
                    scan_expr(self, lhs, def, &mut fx, &check_ref)?;
                    scan_expr(self, rhs, def, &mut fx, &check_ref)?;
                    check_ref(*target)?;
                    self.check_label_operand(def, operands, *target)?;
                    fx.is_cond_branch = true;
                }
                Stmt::Goto(target) => {
                    check_ref(*target)?;
                    self.check_label_operand(def, operands, *target)?;
                    fx.is_goto = true;
                }
                Stmt::Call(target) => {
                    check_ref(*target)?;
                    self.check_label_operand(def, operands, *target)?;
                    fx.is_call = true;
                }
                Stmt::Return => fx.is_return = true,
                Stmt::Nop => {}
            }
        }
        Ok(fx)
    }

    fn temporal_id(&self, name: &str, span: Span) -> Result<TemporalId, MarilError> {
        self.temporals
            .iter()
            .position(|t| t.name == name)
            .map(|i| TemporalId(i as u32))
            .ok_or_else(|| MarilError::sema(format!("unknown temporal register `{name}`"), span))
    }

    fn check_label_operand(
        &self,
        def: &ast::InstrDef,
        operands: &[OperandSpec],
        k: u8,
    ) -> Result<(), MarilError> {
        match operands.get((k - 1) as usize) {
            Some(OperandSpec::Lab(_)) => Ok(()),
            Some(OperandSpec::Reg(_)) => Ok(()), // indirect jumps via register
            _ => Err(MarilError::sema(
                format!("branch target ${k} is not a label operand"),
                def.span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn machine(src: &str) -> Machine {
        let desc = parse(&lex(src).unwrap()).unwrap();
        analyze("test", &desc).unwrap()
    }

    fn machine_err(src: &str) -> MarilError {
        let desc = parse(&lex(src).unwrap()).unwrap();
        analyze("test", &desc).unwrap_err()
    }

    const TOY_DECLS: &str = r#"
        declare {
            %reg r[0:7] (int);
            %reg d[0:3] (double);
            %equiv r[0] d[0];
            %resource IF; ID; IE; IA; IW;
            %def const16 [-32768:32767];
            %label rlab [-32768:32767] +relative;
            %memory m[0:2147483647];
        }
    "#;

    #[test]
    fn register_units_overlay() {
        let m = machine(TOY_DECLS);
        let r = m.reg_class_by_name("r").unwrap();
        let d = m.reg_class_by_name("d").unwrap();
        // d[0] covers r[0] and r[1]; d[1] covers r[2], r[3]...
        assert!(m.regs_overlap(PhysReg::new(d, 0), PhysReg::new(r, 0)));
        assert!(m.regs_overlap(PhysReg::new(d, 0), PhysReg::new(r, 1)));
        assert!(!m.regs_overlap(PhysReg::new(d, 0), PhysReg::new(r, 2)));
        assert!(m.regs_overlap(PhysReg::new(d, 1), PhysReg::new(r, 2)));
        assert!(!m.regs_overlap(PhysReg::new(r, 3), PhysReg::new(r, 4)));
        assert_eq!(m.unit_count(), 8);
    }

    #[test]
    fn effects_of_add() {
        let m = machine(&format!(
            "{TOY_DECLS} instr {{ %instr add r, r, r (int) {{$1 = $2 + $3;}} [IF; ID; IE; IA; IW;] (1,1,0) }}"
        ));
        let t = &m.templates()[0];
        assert_eq!(t.effects.defs, vec![1]);
        assert_eq!(t.effects.uses, vec![2, 3]);
        assert!(!t.effects.reads_mem && !t.effects.writes_mem);
        assert!(!t.effects.is_control());
        assert_eq!(t.rsrc.len(), 5);
    }

    #[test]
    fn effects_of_load_and_store() {
        let m = machine(&format!(
            "{TOY_DECLS} instr {{
                %instr ld r, r, #const16 {{$1 = m[$2+$3];}} [IF; ID; IE; IA; IW;] (1,3,0)
                %instr st r, r, #const16 {{m[$2+$3] = $1;}} [IF; ID; IE; IA; IW;] (1,1,0)
            }}"
        ));
        let ld = &m.templates()[0];
        assert_eq!(ld.effects.defs, vec![1]);
        assert_eq!(ld.effects.uses, vec![2, 3]);
        assert!(ld.effects.reads_mem);
        let st = &m.templates()[1];
        assert!(st.effects.defs.is_empty());
        assert_eq!(st.effects.uses, vec![1, 2, 3]);
        assert!(st.effects.writes_mem);
        // Spill helpers find them.
        let r = m.reg_class_by_name("r").unwrap();
        assert_eq!(m.spill_load(r), Some(crate::machine::TemplateId(0)));
        assert_eq!(m.spill_store(r), Some(crate::machine::TemplateId(1)));
    }

    #[test]
    fn branch_effects() {
        let m = machine(&format!(
            "{TOY_DECLS} instr {{
                %instr beq0 r, #rlab {{if ($1 == 0) goto $2;}} [IF; ID; IE;] (1,2,1)
            }}"
        ));
        let t = &m.templates()[0];
        assert!(t.effects.is_cond_branch);
        assert_eq!(t.effects.uses, vec![1]);
        assert_eq!(t.slots, 1);
    }

    #[test]
    fn temporal_effects_and_clock() {
        let m = machine(
            r#"
            declare {
                %reg d[0:3] (double);
                %resource M1; M2;
                %clock clk_m;
                %reg m1 (double; clk_m) +temporal;
                %reg m2 (double; clk_m) +temporal;
            }
            instr {
                %instr M1 d, d (double; clk_m) {m1 = $1 * $2;} [M1;] (1,1,0)
                %instr M2 (double; clk_m) {m2 = m1;} [M2;] (1,1,0)
            }
        "#,
        );
        assert_eq!(m.temporals().len(), 2);
        let m1 = &m.templates()[0];
        assert_eq!(m1.affects_clock, Some(ClockId(0)));
        assert_eq!(m1.effects.temporal_defs.len(), 1);
        let m2 = &m.templates()[1];
        assert_eq!(m2.effects.temporal_uses.len(), 1);
        assert_eq!(m2.effects.temporal_defs.len(), 1);
    }

    #[test]
    fn aux_latency_lookup() {
        let m = machine(&format!(
            "{TOY_DECLS} instr {{
                %instr fadd.d d, d, d {{$1 = $2 + $3;}} [IF;] (1,6,0)
                %instr st.d d, r, #const16 {{m[$2+$3] = $1;}} [IF;] (1,1,0)
                %aux fadd.d : st.d (1.$1 == 2.$1) (7)
            }}"
        ));
        let fadd = m.template_by_mnemonic("fadd.d").unwrap();
        let st = m.template_by_mnemonic("st.d").unwrap();
        // Condition holds: override to 7.
        assert_eq!(m.edge_latency(fadd, st, &|i, j| i == 1 && j == 1), 7);
        // Condition fails: normal latency 6.
        assert_eq!(m.edge_latency(fadd, st, &|_, _| false), 6);
        // Unrelated pair: producer's latency.
        assert_eq!(m.edge_latency(st, fadd, &|_, _| false), 1);
        // Only a producer no `%aux` names has a latency of its own.
        assert_eq!(m.fixed_latency(fadd), None);
        assert_eq!(m.fixed_latency(st), Some(1));
        assert_eq!(m.without_aux().fixed_latency(fadd), Some(6));
    }

    #[test]
    fn cwvm_compiled() {
        let m = machine(&format!(
            "{TOY_DECLS}
            cwvm {{
                %general (int) r;
                %general (double) d;
                %allocable r[1:5];
                %calleesave r[4:7];
                %sp r[7] +down;
                %fp r[6] +down;
                %retaddr r[1];
                %hard r[0] 0;
                %arg (int) r[2] 1;
                %arg (int) r[3] 2;
                %result r[2] (int);
            }}"
        ));
        let cw = m.cwvm();
        assert_eq!(cw.allocable.len(), 5);
        assert_eq!(cw.callee_save.len(), 4);
        assert!(cw.stack_down);
        let r = m.reg_class_by_name("r").unwrap();
        assert_eq!(cw.general_class(Ty::Int), Some(r));
        assert_eq!(cw.general_class(Ty::Ptr), Some(r));
        assert_eq!(cw.arg_regs(Ty::Int).len(), 2);
        assert_eq!(cw.result_reg(Ty::Int), Some(PhysReg::new(r, 2)));
        assert_eq!(cw.hard, vec![(PhysReg::new(r, 0), 0)]);
    }

    #[test]
    fn rejects_unknown_resource() {
        let err = machine_err(&format!(
            "{TOY_DECLS} instr {{ %instr add r, r, r {{$1 = $2 + $3;}} [BOGUS;] (1,1,0) }}"
        ));
        assert!(err.to_string().contains("unknown resource"));
    }

    #[test]
    fn rejects_out_of_range_operand_ref() {
        let err = machine_err(&format!(
            "{TOY_DECLS} instr {{ %instr add r, r {{$1 = $2 + $3;}} [IF;] (1,1,0) }}"
        ));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_unknown_temporal() {
        let err = machine_err(&format!(
            "{TOY_DECLS} instr {{ %instr adv {{zz = 1;}} [IF;] (1,1,0) }}"
        ));
        assert!(err.to_string().contains("unknown temporal register"));
    }

    #[test]
    fn rejects_duplicate_class_names() {
        let err = machine_err("declare { %reg r[0:7] (int); %reg r[0:3] (int); }");
        assert!(err.to_string().contains("duplicate register class"));
    }

    #[test]
    fn rejects_aux_on_unknown_mnemonic() {
        let err = machine_err(&format!("{TOY_DECLS} instr {{ %aux foo : bar (3) }}"));
        assert!(err.to_string().contains("unknown instruction"));
    }

    #[test]
    fn stats_count_items() {
        let m = machine(
            r#"
            declare {
                %reg d[0:3] (double);
                %resource M1;
                %clock clk_m;
                %element pfmul;
                %element pfadd;
                %class mul_ops { pfmul };
                %label rlab [-32768:32767] +relative;
            }
            instr {
                %instr M1 d, d (double; clk_m) <mul_ops> {$1 = $2;} [M1;] (1,1,0)
                %move *movd d, d {$1 = $2;} [] (0,0,0)
                %glue d, d {($1 == $2) ==> (($1 :: $2) == 0);}
            }
        "#,
        );
        let s = m.stats();
        assert_eq!(s.clocks, 1);
        assert_eq!(s.elements, 2);
        assert_eq!(s.classes, 1);
        assert_eq!(s.glue_xforms, 1);
        assert_eq!(s.funcs, 1);
    }

    #[test]
    fn move_template_lookup() {
        let m = machine(&format!(
            "{TOY_DECLS} instr {{
                %move [s.movs] add r, r, r[0] {{$1 = $2;}} [IF;] (1,1,0)
                %move *movd d, d {{$1 = $2;}} [] (0,0,0)
            }}"
        ));
        let r = m.reg_class_by_name("r").unwrap();
        let d = m.reg_class_by_name("d").unwrap();
        assert!(m.move_template(r).is_some());
        assert!(m.move_template(d).is_none());
        assert!(m.move_escape(d).is_some());
        assert!(m.template_by_label("s.movs").is_some());
    }
}
