//! Program loading and the in-order timing loop.

use crate::exec::{nth, write_mem, Control, Effects, ExecCtx, Form, Opnd, Semantics, SubOp};
use crate::regs::{RegFile, RegSlot};
use crate::{fault, SimError, Value};
use marion_core::{AsmWord, CompiledProgram};
use marion_maril::{Machine, ResSet, Ty};
use std::collections::HashMap;

/// A direct-mapped cache model: hit or miss per access, fixed miss
/// penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of lines.
    pub lines: u32,
    /// Line size in bytes (or words, for the instruction cache).
    pub line_bytes: u32,
    /// Cycles added on a miss.
    pub miss_penalty: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            lines: 256,
            line_bytes: 16,
            miss_penalty: 6,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Bytes of simulated memory.
    pub mem_size: u32,
    /// Optional instruction cache (indexed by word address).
    pub icache: Option<CacheConfig>,
    /// Optional data cache.
    pub dcache: Option<CacheConfig>,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Return the final memory image in [`RunResult::memory`]
    /// (differential tests compare it against the reference
    /// interpreter's).
    pub keep_memory: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem_size: 1 << 21,
            icache: Some(CacheConfig::default()),
            dcache: Some(CacheConfig::default()),
            max_cycles: 2_000_000_000,
            keep_memory: false,
        }
    }
}

impl SimConfig {
    /// A configuration with no caches: actual cycles then reflect only
    /// interlock stalls (useful for testing the scheduler's estimate).
    pub fn no_caches() -> SimConfig {
        SimConfig {
            icache: None,
            dcache: None,
            ..SimConfig::default()
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Instruction words issued.
    pub words_executed: u64,
    /// Machine instructions (sub-operations) executed — the dilation
    /// numerator.
    pub insts_executed: u64,
    /// Cycles lost to interlock and resource stalls.
    pub stall_cycles: u64,
    /// Cycles lost to cache misses.
    pub miss_cycles: u64,
    /// `nop` sub-operations retired (unfilled delay slots executed).
    pub nops_retired: u64,
    /// The entry function's return value, read from the integer
    /// result register (see also [`RunResult::fp_result`]).
    pub result: Option<Value>,
    /// The value of the floating result register at exit.
    pub fp_result: Option<Value>,
    /// Execution count per (function index, block index).
    pub block_counts: HashMap<(usize, usize), u64>,
    /// The final memory image, when [`SimConfig::keep_memory`] is set.
    pub memory: Option<Vec<u8>>,
}

impl RunResult {
    /// The paper's *dilation*: instructions executed / instructions
    /// generated.
    pub fn dilation(&self, program: &CompiledProgram) -> f64 {
        self.insts_executed as f64 / program.asm.inst_count().max(1) as f64
    }
}

/// The scheduler's whole-run cycle estimate: Σ over blocks of
/// (per-execution estimate × execution count). This is exactly how the
/// paper derives estimated times (block costs × profiled frequencies,
/// no cache effects).
pub fn estimated_cycles(program: &CompiledProgram, counts: &HashMap<(usize, usize), u64>) -> u64 {
    let mut total = 0u64;
    for ((f, b), n) in counts {
        if let Some(block) = program
            .asm
            .funcs
            .get(*f)
            .and_then(|func| func.blocks.get(*b))
        {
            total += block.est_cycles as u64 * n;
        }
    }
    total
}

/// Entries of the resource window: reservations are kept for the next
/// 64 cycles, indexed by cycle modulo 64.
const WINDOW: usize = 64;

/// No producer / not a block head.
const NONE: u32 = u32::MAX;

/// One flat instruction word, decoded at load time.
#[derive(Debug)]
struct Word {
    /// Index of the enclosing function.
    func: u32,
    /// Dense id of the block this word starts, or [`NONE`].
    head: u32,
    /// Range of the word's sub-operations.
    subs: (u32, u32),
    /// Range of its per-cycle resource needs, unioned over the
    /// sub-operations (for the hazard check only).
    needs: (u32, u32),
    /// Delay slots: the maximum over the sub-operations.
    slots: u32,
    /// `nop` sub-operations.
    nops: u32,
}

/// A direct-mapped cache's tags. Indexing uses shift and mask when the
/// line size and line count are both powers of two.
struct Cache {
    tags: Vec<u64>,
    line_bytes: u64,
    lines: u64,
    /// `(log2(line_bytes), lines - 1)` for power-of-two geometry.
    pow2: Option<(u32, u64)>,
    penalty: u64,
}

impl Cache {
    fn new(config: CacheConfig) -> Cache {
        let line_bytes = config.line_bytes.max(1) as u64;
        let lines = config.lines.max(1) as u64;
        Cache {
            tags: vec![u64::MAX; lines as usize],
            line_bytes,
            lines,
            pow2: (line_bytes.is_power_of_two() && lines.is_power_of_two())
                .then(|| (line_bytes.trailing_zeros(), lines - 1)),
            penalty: config.miss_penalty as u64,
        }
    }

    /// Touches the line holding `addr`, filling it on a miss. Returns
    /// whether it missed.
    fn miss(&mut self, addr: u64) -> bool {
        let (line, index) = match self.pow2 {
            Some((shift, mask)) => (addr >> shift, (addr >> shift) & mask),
            None => (addr / self.line_bytes, addr / self.line_bytes % self.lines),
        };
        let tag = &mut self.tags[index as usize];
        let missed = *tag != line;
        *tag = line;
        missed
    }
}

/// A loaded program ready to run: its code decoded once into dense,
/// integer-indexed tables that the timing loop walks without hashing
/// or allocating.
pub struct Simulator<'a> {
    machine: &'a Machine,
    program: &'a CompiledProgram,
    /// Flat code, one entry per instruction word.
    words: Vec<Word>,
    subs: Vec<SubOp<'a>>,
    opnds: Vec<Opnd>,
    sem: Semantics,
    /// Register-unit ranges `[start, end)` read and written by the
    /// sub-operations.
    units: Vec<(u32, u32)>,
    needs: Vec<ResSet>,
    /// (function, block) of each dense block-head id.
    heads: Vec<(usize, usize)>,
    /// Flat index of each (func, block) start.
    block_start: Vec<Vec<usize>>,
    /// Flat entry index per function index.
    func_entry: Vec<usize>,
    /// Function index by symbol id (functions only).
    func_of_symbol: Vec<Option<usize>>,
    /// Data address by symbol index.
    sym_addrs: Vec<Option<u32>>,
    /// First address past the globals.
    data_end: u32,
}

impl<'a> Simulator<'a> {
    /// Loads a compiled program: lays out globals and decodes every
    /// instruction word. Decoding never fails: an operand or template
    /// the simulator cannot use faults only if its word executes.
    pub fn new(machine: &'a Machine, program: &'a CompiledProgram) -> Simulator<'a> {
        // Globals.
        let mut sym_addrs = vec![None; program.symbols.len()];
        let mut next = 64u32;
        let mut by_name: HashMap<&str, u32> = HashMap::new();
        for (name, init) in &program.globals {
            next = (next + 7) & !7;
            by_name.insert(name.as_str(), next);
            next += init.size().max(1);
        }
        let mut func_of_symbol = vec![None; program.symbols.len()];
        for (si, name) in program.symbols.iter().enumerate() {
            sym_addrs[si] = by_name.get(name.as_str()).copied();
            func_of_symbol[si] = program.asm.funcs.iter().position(|f| f.name == *name);
        }
        let mut sim = Simulator {
            machine,
            program,
            words: Vec::new(),
            subs: Vec::new(),
            opnds: Vec::new(),
            sem: Semantics::default(),
            units: Vec::new(),
            needs: Vec::new(),
            heads: Vec::new(),
            block_start: Vec::new(),
            func_entry: Vec::new(),
            func_of_symbol,
            sym_addrs,
            data_end: next,
        };
        for (fi, func) in program.asm.funcs.iter().enumerate() {
            sim.func_entry.push(sim.words.len());
            let mut starts = Vec::new();
            for (bi, block) in func.blocks.iter().enumerate() {
                // An empty block still needs a landing point: its start
                // is the next word. It heads nothing, so counting the
                // later block is enough.
                starts.push(sim.words.len());
                let mut head = NONE;
                if block.words().len() > 0 {
                    head = sim.heads.len() as u32;
                    sim.heads.push((fi, bi));
                }
                for word in block.words() {
                    sim.decode_word(fi as u32, head, word);
                    head = NONE;
                }
            }
            sim.block_start.push(starts);
        }
        sim
    }

    fn decode_word(&mut self, func: u32, head: u32, word: AsmWord<'a>) {
        let machine = self.machine;
        let nop = machine.nop_template();
        let (subs, needs) = (self.subs.len() as u32, self.needs.len());
        let (mut slots, mut nops) = (0, 0);
        for inst in word.insts() {
            let ops_start = self.opnds.len();
            self.opnds.extend(
                inst.ops
                    .iter()
                    .map(|op| Opnd::decode(machine, &self.sym_addrs, op)),
            );
            let ops = (ops_start as u32, self.opnds.len() as u32);
            nops += u32::from(Some(inst.template) == nop);
            let Some(t) = machine.templates().get(inst.template.0 as usize) else {
                let empty = (self.units.len() as u32, self.units.len() as u32);
                self.subs.push(SubOp {
                    inst,
                    form: Form::Code,
                    code: self.sem.unknown_template(inst.template.0),
                    ops,
                    width: Ty::Int,
                    arith: Ty::Double,
                    reads_mem: false,
                    rsrc: &[],
                    // It writes nothing, so no edge leaves it.
                    latency: Some(0),
                    uses: empty,
                    defs: empty,
                });
                continue;
            };
            for (c, need) in t.rsrc.iter().enumerate() {
                match self.needs.get_mut(needs + c) {
                    Some(union) => union.union_with(need),
                    None => self.needs.push(*need),
                }
            }
            slots = slots.max(t.slots.unsigned_abs());
            let decoded = &self.opnds[ops_start..];
            let reg = |k: &u8| match nth(decoded, *k) {
                Some(Opnd::Reg(r)) => Some(r),
                _ => None,
            };
            let uses_start = self.units.len() as u32;
            let ranges = |ks: &'a [u8]| {
                ks.iter()
                    .filter_map(reg)
                    .map(|r| (r.start, r.start + r.width))
            };
            self.units.extend(ranges(&t.effects.uses));
            let defs_start = self.units.len() as u32;
            self.units.extend(ranges(&t.effects.defs));
            self.subs.push(SubOp {
                inst,
                form: Form::decode(&t.sem, decoded),
                code: self.sem.of(machine, inst.template.0 as usize, t),
                ops,
                width: t.ty.unwrap_or(Ty::Int),
                arith: t.ty.unwrap_or(Ty::Double),
                reads_mem: t.effects.reads_mem,
                rsrc: &t.rsrc,
                latency: machine.fixed_latency(inst.template),
                uses: (uses_start, defs_start),
                defs: (defs_start, self.units.len() as u32),
            });
        }
        self.words.push(Word {
            func,
            head,
            subs: (subs, self.subs.len() as u32),
            needs: (needs as u32, self.needs.len() as u32),
            slots,
            nops,
        });
    }

    /// Runs `entry(args)` to completion.
    ///
    /// # Errors
    ///
    /// Faults on unknown entry, runtime errors (bad addresses,
    /// division by zero, values of the wrong kind) or cycle-budget
    /// exhaustion.
    pub fn run(
        &self,
        entry: &str,
        args: &[Value],
        config: &SimConfig,
    ) -> Result<RunResult, SimError> {
        let Some(entry_fi) = self.program.asm.funcs.iter().position(|f| f.name == entry) else {
            return fault(format!("no function `{entry}`"));
        };
        let halt = self.words.len();
        let cwvm = self.machine.cwvm();
        let mut regs = RegFile::new(self.machine);
        let mut mem = vec![0u8; config.mem_size as usize];
        if (self.data_end as usize) >= mem.len() {
            return fault("memory too small for globals");
        }
        // Globals image.
        {
            let mut next = 64u32;
            for (_, init) in &self.program.globals {
                next = (next + 7) & !7;
                let bytes = init.bytes();
                mem[next as usize..next as usize + bytes.len()].copy_from_slice(&bytes);
                next += init.size().max(1);
            }
        }
        // ABI setup.
        let sp = cwvm.sp.ok_or_else(|| SimError("no stack pointer".into()))?;
        regs.write(
            self.machine,
            sp,
            Value::I((config.mem_size as i64 - 64) & !15),
        );
        if let Some(fp) = cwvm.fp {
            regs.write(
                self.machine,
                fp,
                Value::I((config.mem_size as i64 - 64) & !15),
            );
        }
        let ra = cwvm
            .retaddr
            .and_then(|r| RegSlot::of(self.machine, r))
            .ok_or_else(|| SimError("no return-address register".into()))?;
        regs.set(ra, Value::I(halt as i64));
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        for arg in args {
            let (ty, used) = match arg {
                Value::I(_) => (Ty::Int, &mut int_used),
                Value::F(_) => (Ty::Double, &mut fp_used),
            };
            let arg_regs = cwvm.arg_regs(ty);
            let Some(reg) = arg_regs.get(*used).copied() else {
                return fault("too many simulated arguments");
            };
            *used += 1;
            regs.write(self.machine, reg, *arg);
        }

        // Timing state, per register unit: when its last producer's
        // result is ready, and `NONE`; or, for a producer whose
        // latency depends on the consumer (`%aux`), its issue cycle
        // and its sub-operation.
        let mut unit_ready: Vec<(u64, u32)> = vec![(0, NONE); self.machine.unit_count() as usize];
        let mut resource_window = [(u64::MAX, ResSet::EMPTY); WINDOW];
        let mut icache = config.icache.map(Cache::new);
        let mut dcache = config.dcache.map(Cache::new);
        let mut block_counts = vec![0u64; self.heads.len()];
        let mut fx = Effects::default();

        let mut result = RunResult {
            cycles: 0,
            words_executed: 0,
            insts_executed: 0,
            stall_cycles: 0,
            miss_cycles: 0,
            nops_retired: 0,
            result: None,
            fp_result: None,
            block_counts: HashMap::new(),
            memory: None,
        };
        let mut pc = self.func_entry[entry_fi];
        let mut cycle: u64 = 0;
        // Pending redirect: take effect after `countdown` more words.
        let mut redirect: Option<(u32, usize)> = None;

        while pc != halt {
            let Some(word) = self.words.get(pc) else {
                return fault(format!("pc {pc} out of range"));
            };
            if cycle > config.max_cycles {
                return fault(format!("cycle budget exhausted at {cycle}"));
            }
            if word.head != NONE {
                block_counts[word.head as usize] += 1;
            }
            let subs = &self.subs[word.subs.0 as usize..word.subs.1 as usize];
            let needs = &self.needs[word.needs.0 as usize..word.needs.1 as usize];

            // ---- timing: operand interlocks ----
            let mut issue = cycle;
            for sub in subs {
                let inst = sub.inst;
                for &(start, end) in &self.units[sub.uses.0 as usize..sub.uses.1 as usize] {
                    for u in start..end {
                        let (mut ready, producer) = unit_ready[u as usize];
                        if producer != NONE {
                            let producer = self.subs[producer as usize].inst;
                            ready += u64::from(self.machine.edge_latency(
                                producer.template,
                                inst.template,
                                &|a, b| {
                                    producer.ops.get((a - 1) as usize)
                                        == inst.ops.get((b - 1) as usize)
                                },
                            ));
                        }
                        issue = issue.max(ready);
                    }
                }
            }
            // ---- timing: structural hazards ----
            // A window slot meets the word's union of needs at cycle c
            // exactly when it meets one sub-operation's need at c.
            'outer: loop {
                for (c, need) in needs.iter().enumerate() {
                    let at = issue + c as u64;
                    let slot = &resource_window[at as usize % WINDOW];
                    if slot.0 == at && slot.1.intersects(need) {
                        issue += 1;
                        continue 'outer;
                    }
                }
                break;
            }
            // ---- timing: instruction cache ----
            if let Some(ic) = &mut icache {
                if ic.miss(pc as u64) {
                    issue += ic.penalty;
                    result.miss_cycles += ic.penalty;
                }
            }
            result.stall_cycles += issue - cycle;

            // Commit resources sub-operation by sub-operation: a
            // reservation longer than the window aliases its slots, and
            // the order of the updates decides what they hold.
            for sub in subs {
                for (c, need) in sub.rsrc.iter().enumerate() {
                    let at = issue + c as u64;
                    let slot = &mut resource_window[at as usize % WINDOW];
                    if slot.0 != at {
                        *slot = (at, *need);
                    } else {
                        slot.1.union_with(need);
                    }
                }
            }

            // ---- functional execution (pre-word state) ----
            fx.clear();
            let ctx = ExecCtx {
                sem: &self.sem,
                opnds: &self.opnds,
                regs: &regs,
                mem: &mem,
            };
            for sub in subs {
                ctx.exec(sub, &mut fx)
                    .map_err(|e| SimError(format!("at {entry}+{pc}: {e}")))?;
            }
            // ---- data cache ----
            let mut load_extra = 0u64;
            if let Some(dc) = &mut dcache {
                for &addr in &fx.mem_reads {
                    if dc.miss(addr as u64) {
                        load_extra += dc.penalty;
                        result.miss_cycles += dc.penalty;
                    }
                }
                for &(addr, _, _) in &fx.mem_writes {
                    // Write-allocate, but stores don't stall the pipe
                    // (write buffer).
                    dc.miss(addr as u64);
                }
            }

            // ---- commit ----
            for &(unit, bits) in &fx.raw_writes {
                regs.set_unit(unit, bits);
            }
            // Every written unit, raw moves' included, becomes ready
            // when its producer's result does.
            for (i, sub) in subs.iter().enumerate() {
                let ready = issue + if sub.reads_mem { load_extra } else { 0 };
                let entry = match sub.latency {
                    Some(lat) => (ready + u64::from(lat), NONE),
                    None => (ready, word.subs.0 + i as u32),
                };
                for &(start, end) in &self.units[sub.defs.0 as usize..sub.defs.1 as usize] {
                    for u in start..end {
                        unit_ready[u as usize] = entry;
                    }
                }
            }
            for &(reg, value) in &fx.reg_writes {
                regs.set(reg, value);
            }
            for &(latch, value) in &fx.latch_writes {
                regs.write_latch(latch, value);
            }
            for &(addr, value, ty) in &fx.mem_writes {
                write_mem(&mut mem, addr, value, ty)?;
            }
            result.words_executed += 1;
            result.insts_executed += subs.len() as u64;
            result.nops_retired += word.nops as u64;

            // ---- control ----
            let new_target = match fx.control {
                None => None,
                Some(Control::Branch(b)) => {
                    Some(self.block_target(word.func as usize, b.0 as usize)?)
                }
                Some(Control::Call(sym)) => {
                    let callee = self
                        .func_of_symbol
                        .get(sym.0 as usize)
                        .copied()
                        .flatten()
                        .ok_or_else(|| {
                            SimError(format!(
                                "call to undefined function `{}`",
                                self.program
                                    .symbols
                                    .get(sym.0 as usize)
                                    .map_or("?", String::as_str)
                            ))
                        })?;
                    // The return address points past the delay slots.
                    let ret_to = pc + 1 + word.slots as usize;
                    regs.set(ra, Value::I(ret_to as i64));
                    Some(self.func_entry[callee])
                }
                Some(Control::Return) => {
                    let Value::I(target) = regs.get(ra) else {
                        return fault("return address register holds a floating-point value");
                    };
                    if target as usize > halt || target < 0 {
                        return fault(format!("return to invalid address {target}"));
                    }
                    Some(target as usize)
                }
            };
            if let Some(target) = new_target {
                redirect = Some((word.slots, target));
            }

            // Advance.
            cycle = issue + 1;
            match &mut redirect {
                Some((0, target)) => {
                    pc = *target;
                    redirect = None;
                }
                Some((countdown, _)) => {
                    *countdown -= 1;
                    pc += 1;
                }
                None => pc += 1,
            }
        }
        result.cycles = cycle;
        result.block_counts = block_counts
            .iter()
            .zip(&self.heads)
            .filter(|(n, _)| **n > 0)
            .map(|(n, head)| (*head, *n))
            .collect();
        // Entry return value: capture both result registers.
        result.result = cwvm.result_reg(Ty::Int).map(|r| regs.read(self.machine, r));
        result.fp_result = cwvm
            .result_reg(Ty::Double)
            .map(|r| regs.read(self.machine, r));
        if config.keep_memory {
            result.memory = Some(mem);
        }
        Ok(result)
    }

    fn block_target(&self, func: usize, block: usize) -> Result<usize, SimError> {
        // An empty block's start equals the next block's start, which
        // is where execution should land anyway.
        self.block_start
            .get(func)
            .and_then(|s| s.get(block))
            .copied()
            .ok_or_else(|| SimError(format!("branch to unknown block b{block}")))
    }
}

/// Convenience wrapper: load, run, and type the result by the entry
/// point's return type.
///
/// # Errors
///
/// See [`Simulator::run`].
pub fn run_program(
    machine: &Machine,
    program: &CompiledProgram,
    entry: &str,
    args: &[Value],
    ret_ty: Option<Ty>,
    config: &SimConfig,
) -> Result<RunResult, SimError> {
    let sim = Simulator::new(machine, program);
    let mut result = sim.run(entry, args, config)?;
    result.result = match ret_ty {
        None => None,
        Some(ty) if ty.is_float() => result.fp_result,
        Some(_) => result.result,
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_core::{Compiler, StrategyKind};
    use marion_rng::SplitMix64;

    /// Bytes of each seeded memory image. Most seeded register words
    /// point into it, so fast loads and stores both succeed and fault.
    const MEM: u32 = 4096;

    /// Seeded states each decoded sub-operation runs on.
    const TRIALS: usize = 4;

    /// Names of the forms, indexed by [`form_index`].
    const FORMS: [&str; 8] = [
        "code", "nop", "copy", "bin", "load", "store", "goto", "branch",
    ];

    /// `None` for a raw move, which is not a form of the `Code` program.
    fn form_index(form: Form) -> Option<usize> {
        Some(match form {
            Form::Raw { .. } => return None,
            Form::Code => 0,
            Form::Nop => 1,
            Form::Copy { .. } => 2,
            Form::Bin { .. } => 3,
            Form::Load { .. } => 4,
            Form::Store { .. } => 5,
            Form::Goto(_) => 6,
            Form::Branch { .. } => 7,
        })
    }

    fn bits(v: Value) -> (bool, u64) {
        match v {
            Value::I(x) => (false, x as u64),
            Value::F(x) => (true, x.to_bits()),
        }
    }

    /// Everything one sub-operation buffered, floats as bits so that
    /// NaNs compare.
    fn observed(fx: &Effects) -> impl PartialEq + std::fmt::Debug {
        (
            fx.reg_writes
                .iter()
                .map(|&(r, v)| (r, bits(v)))
                .collect::<Vec<_>>(),
            fx.raw_writes.clone(),
            fx.latch_writes
                .iter()
                .map(|&(l, v)| (l, v.to_bits()))
                .collect::<Vec<_>>(),
            fx.mem_writes
                .iter()
                .map(|&(a, v, ty)| (a, bits(v), ty))
                .collect::<Vec<_>>(),
            fx.mem_reads.clone(),
            fx.control,
        )
    }

    fn seeded_state(machine: &Machine, rng: &mut SplitMix64) -> (RegFile, Vec<u8>) {
        let mut regs = RegFile::new(machine);
        for unit in 0..machine.unit_count() {
            let word = if rng.chance(0.75) {
                rng.below(u64::from(MEM) + 64) as u32
            } else {
                rng.next_u64() as u32
            };
            regs.set_unit(unit, word);
        }
        let mem = (0..MEM).map(|_| rng.next_u64() as u8).collect();
        (regs, mem)
    }

    /// Every sub-operation of the 18 evaluation programs × 5 machines
    /// × 3 strategies that decodes to a fast form runs both ways on
    /// seeded register files and memory images: the effects, or the
    /// fault texts, must be equal. Weighted by the block counts of
    /// simulated runs, the fast forms must carry most executions.
    #[test]
    fn fast_forms_agree_with_the_code_program() {
        let mut programs = marion_workloads::livermore::kernels();
        programs.extend(marion_workloads::suite::programs());
        assert_eq!(programs.len(), 18);
        let mut rng = SplitMix64::new(0x5eed);
        // Per form: sub-operations decoded, trials that ran, trials
        // that faulted, trials that branched, and executions in the
        // simulated runs.
        let mut decoded = [0u64; FORMS.len()];
        let mut ran = [0u64; FORMS.len()];
        let mut faulted = [0u64; FORMS.len()];
        let mut branched = [0u64; FORMS.len()];
        let mut executed = [0u64; FORMS.len()];
        let (mut fast, mut code) = (Effects::default(), Effects::default());
        for (mi, name) in marion_machines::EXTENDED.into_iter().enumerate() {
            let spec = marion_machines::load(name);
            for (si, strategy) in StrategyKind::ALL.into_iter().enumerate() {
                let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy);
                for (pi, w) in programs.iter().enumerate() {
                    let cell = format!("{name}/{}/{}", strategy.name(), w.name);
                    let program = compiler
                        .compile_module(&w.module())
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let sim = Simulator::new(&spec.machine, &program);
                    for sub in &sim.subs {
                        if let Some(f @ 1..) = form_index(sub.form) {
                            decoded[f] += 1;
                        }
                    }
                    for _ in 0..TRIALS {
                        let (regs, mem) = seeded_state(&spec.machine, &mut rng);
                        let ctx = ExecCtx {
                            sem: &sim.sem,
                            opnds: &sim.opnds,
                            regs: &regs,
                            mem: &mem,
                        };
                        for sub in &sim.subs {
                            let Some(f @ 1..) = form_index(sub.form) else {
                                continue;
                            };
                            fast.clear();
                            code.clear();
                            let got = ctx.exec(sub, &mut fast);
                            let want = ctx.exec_code(sub, &mut code);
                            assert_eq!(got, want, "{cell}: {:?}", sub.form);
                            if got.is_ok() {
                                assert_eq!(
                                    observed(&fast),
                                    observed(&code),
                                    "{cell}: {:?}",
                                    sub.form
                                );
                            }
                            ran[f] += 1;
                            faulted[f] += u64::from(got.is_err());
                            branched[f] += u64::from(fast.control.is_some());
                        }
                    }
                    // Simulating every cell takes minutes in a debug
                    // build: there, each program runs once, on a
                    // machine and a strategy that rotate with it.
                    if cfg!(debug_assertions) && (mi != pi % 5 || si != pi % 3) {
                        continue;
                    }
                    let run = sim
                        .run("main", &[], &SimConfig::default())
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let mut count = 0;
                    for word in &sim.words {
                        if word.head != NONE {
                            let head = sim.heads[word.head as usize];
                            count = run.block_counts.get(&head).copied().unwrap_or(0);
                        }
                        for sub in &sim.subs[word.subs.0 as usize..word.subs.1 as usize] {
                            if let Some(f) = form_index(sub.form) {
                                executed[f] += count;
                            }
                        }
                    }
                }
            }
        }
        let total: u64 = executed.iter().sum();
        let share = 1.0 - executed[0] as f64 / total as f64;
        for (f, name) in FORMS.iter().enumerate() {
            println!(
                "{name:>5}: {:>6} decoded, {:>7} trials ({:>6} faulted), {:>5.1} % of {total} executions",
                decoded[f],
                ran[f],
                faulted[f],
                100.0 * executed[f] as f64 / total as f64
            );
        }
        for f in 1..FORMS.len() {
            assert!(decoded[f] > 0, "no sub-operation decodes to {}", FORMS[f]);
        }
        // A store's address is checked when the word commits, so only
        // loads fault on one.
        assert!(
            faulted[4] > 0 && faulted[4] < ran[4],
            "load trials should both fault and succeed: {} of {}",
            faulted[4],
            ran[4]
        );
        assert!(
            branched[7] > 0 && branched[7] < ran[7],
            "branch trials should both branch and fall through: {} of {}",
            branched[7],
            ran[7]
        );
        // Measured: 94.0 % over all 270 cells (block counts weight the
        // words after a taken branch too: 91.8 M weighted against 87.8 M
        // executed sub-operations), 95.0 % over a debug build's 18.
        println!("fast forms: {:.1} % of non-raw executions", 100.0 * share);
        assert!(share > 0.92, "fast forms ran {share:.3} of executions");
    }
}
