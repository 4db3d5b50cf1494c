//! The function-level compile cache: key derivation and entry codec
//! over `marion-cache`'s storage layer.
//!
//! ## What the key covers
//!
//! A [`CacheKey`] is a stable 128-bit structural hash over everything
//! that can change a function's compiled output:
//!
//! * the complete compiled [`Machine`] description (every template,
//!   resource vector, latency, glue rule and CWVM entry), fed to the
//!   hasher through `std::hash::Hash`, with no string render and no
//!   allocation. The Maril types derive `Hash`, so a field added to
//!   one is in the key without further work; `Machine`'s own impl
//!   names each of its fields and says why it skips three;
//! * the [`StrategyKind`];
//! * the cache-relevant [`CompileOptions`] field, `fill_delay_slots`;
//! * the IR function body *after*
//!   [`crate::driver::materialize_float_constants`] (its types derive
//!   `Hash` too; `NodeKind` hashes a float constant by its bits), plus
//!   the module's symbol table (cached assembly embeds `SymbolId`s,
//!   which are only meaningful against the same table).
//!
//! Deliberately **excluded**: `jobs` (module-order collection makes
//! output identical at any worker count), the trace configuration (a
//! traced compile never probes or fills the cache), the machine's
//! `SelectionIndex` (it only prunes candidate lists, so it cannot
//! change output: `Machine::brute_force_reference`, whose index returns
//! every template, compiles byte-identical code, which the selection
//! crosscheck asserts), and the cache handle itself. Invalidation is
//! therefore automatic: change the machine description, strategy,
//! relevant options or the function body and the key changes; stale
//! entries age out of the LRU.
//!
//! [`StableHasher`] is seedless, so keys are equal from one process to
//! the next and a disk store outlives its writer. They depend on the
//! `Hash` derives of the toolchain that built the binary, though, so a
//! store written by another build may never hit.
//!
//! ## What an entry holds
//!
//! The emitted [`AsmFunc`] and its [`FuncStats`], nothing else: only
//! untraced compiles use the cache, so no trace data passes through
//! it. A traced compile is always cold; the compile service re-runs
//! a request traced, without the cache, when it needs a profile.
//!
//! An entry's blocks are shared copy-on-write (`AsmFunc::blocks` is an
//! `Arc`). Emission builds every block flat and at exact capacity
//! (see [`crate::emit`]), so a miss stores the emitted blocks as they
//! are and hands the caller a pointer to them; a hit clones a pointer,
//! the name and the per-block quality rows, never the code. A caller that edits a served function goes through
//! `AsmFunc::blocks_mut`, which copies first, so no edit reaches the
//! cache or another caller's program.
//!
//! ## How a compile derives its keys
//!
//! [`base_fingerprint`] (machine, strategy, options) is hashed once
//! per [`crate::Compiler`]; each compile extends it with the module's
//! symbol table once, and each function key extends that prefix with
//! the function body. [`func_key`] computes the same value in one call.

use crate::driver::{CompileOptions, FuncStats};
use crate::emit::{AsmBlock, AsmFunc, BlockBuilder};
use crate::strategy::StrategyKind;
use marion_cache::{CacheKey, DiskStore, ShardedCache, StableHasher};
use marion_ir as ir;
use marion_maril::Machine;
use marion_trace::Fields;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry format version, bumped whenever the payload codec changes so
/// stale disk stores read as corrupt instead of mis-decoding. Public
/// so the serve protocol's `machines` introspection can report it.
pub const FORMAT_VERSION: i64 = 5;

/// One cached compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedFunc {
    /// The emitted assembly.
    pub asm: AsmFunc,
    /// Its per-function statistics.
    pub stats: FuncStats,
}

/// Per-`compile_module` cache accounting, surfaced as
/// [`crate::CompiledProgram::cache`]. Kept out of `CompileStats` so
/// warm and cold statistics stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Functions served from the cache.
    pub hits: u64,
    /// Functions compiled cold (and inserted).
    pub misses: u64,
    /// Entries evicted to make room during this compile.
    pub evictions: u64,
}

/// Shared tally the driver threads update while compiling one module.
#[derive(Default)]
pub(crate) struct CacheTally {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheTally {
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn evict(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn summary(&self) -> CacheSummary {
        CacheSummary {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// What the resident entries' emitted code amounts to
/// ([`FuncCache::footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeFootprint {
    /// Emitted blocks.
    pub blocks: usize,
    /// Emitted sub-operations ([`AsmFunc::inst_count`]).
    pub insts: usize,
    /// Heap bytes of the emitted code ([`AsmFunc::heap_bytes`]).
    pub bytes: usize,
}

/// What loading a disk store found.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheLoad {
    /// Entries restored into the in-memory cache.
    pub loaded: usize,
    /// Lines rejected (bad JSON, bad checksum, or undecodable
    /// payload) — these will be recompiled, never served.
    pub corrupt: usize,
}

/// The content-addressed compile cache shared by one or more
/// [`crate::Compiler`]s (the key embeds machine and strategy, so a
/// single cache safely serves many compilers). In-memory sharded LRU,
/// optionally written through to an append-only checksummed JSONL
/// store.
pub struct FuncCache {
    mem: ShardedCache<CachedFunc>,
    disk: Option<DiskStore>,
    /// What opening the disk store found; `None` for in-memory caches.
    disk_load: Option<CacheLoad>,
}

impl std::fmt::Debug for FuncCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncCache")
            .field("entries", &self.mem.len())
            .field("stats", &self.mem.stats())
            .field("disk", &self.disk.as_ref().map(|d| d.path().to_path_buf()))
            .finish()
    }
}

impl FuncCache {
    /// An in-memory cache holding at most `capacity` functions.
    pub fn in_memory(capacity: usize) -> FuncCache {
        FuncCache {
            mem: ShardedCache::new(capacity),
            disk: None,
            disk_load: None,
        }
    }

    /// A write-through cache backed by the JSONL store at `path`;
    /// existing verified entries are loaded into memory (later
    /// duplicates win), corrupt ones counted and skipped. When the
    /// load rejected a line or saw a key twice, the store is compacted
    /// to the last decodable line of each key; if that fails, the old
    /// file stays, since the store is only an optimisation.
    ///
    /// # Errors
    ///
    /// I/O failures opening or reading the store file.
    pub fn with_disk(
        capacity: usize,
        path: impl AsRef<Path>,
    ) -> io::Result<(FuncCache, CacheLoad)> {
        let (disk, found) = DiskStore::open(path)?;
        let mem = ShardedCache::new(capacity);
        let mut load = CacheLoad {
            loaded: 0,
            corrupt: found.corrupt,
        };
        // Per key, the index in `found.entries` of its last decodable
        // line.
        let mut last = std::collections::HashMap::new();
        for (i, (key, payload)) in found.entries.iter().enumerate() {
            match decode_entry(payload) {
                Some(entry) => {
                    mem.insert(*key, entry);
                    last.insert(*key, i);
                    load.loaded += 1;
                }
                None => load.corrupt += 1,
            }
        }
        if load.corrupt > 0 || last.len() < load.loaded {
            let kept = found
                .entries
                .iter()
                .enumerate()
                .filter(|(i, (key, _))| last.get(key) == Some(i))
                .map(|(_, (key, payload))| (*key, payload.as_str()));
            let _ = disk.rewrite(kept);
        }
        Ok((
            FuncCache {
                mem,
                disk: Some(disk),
                disk_load: Some(load),
            },
            load,
        ))
    }

    /// What opening the disk store found (loaded and corrupt line
    /// counts); `None` when the cache is purely in-memory. Operators
    /// watch the corrupt count to spot store rot without a restart.
    pub fn disk_load(&self) -> Option<CacheLoad> {
        self.disk_load
    }

    /// Looks up a compiled function.
    pub fn get(&self, key: CacheKey) -> Option<CachedFunc> {
        self.mem.get(key)
    }

    /// Stores a compiled function (write-through when disk-backed);
    /// returns how many entries were evicted.
    pub fn insert(&self, key: CacheKey, entry: CachedFunc) -> usize {
        if let Some(disk) = &self.disk {
            // A failed append degrades to in-memory caching; the disk
            // store is an optimisation, not a correctness dependency.
            let _ = disk.append(key, &encode_entry(&entry));
        }
        self.mem.insert(key, entry)
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> marion_cache::CacheStats {
        self.mem.stats()
    }

    /// Functions currently resident in memory.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// The emitted code the resident entries hold.
    pub fn footprint(&self) -> CodeFootprint {
        let mut total = CodeFootprint::default();
        self.mem.for_each(|entry| {
            total.blocks += entry.asm.blocks.len();
            total.insts += entry.asm.inst_count();
            total.bytes += entry.asm.heap_bytes();
        });
        total
    }
}

/// Hashes everything request-invariant: the machine description, the
/// strategy, and the cache-relevant options. Computed once per
/// `compile_module`; per-function keys clone and extend it.
pub fn base_fingerprint(
    machine: &Machine,
    strategy: StrategyKind,
    options: &CompileOptions,
) -> StableHasher {
    let mut h = StableHasher::new();
    h.write_i64(FORMAT_VERSION);
    machine.hash(&mut h);
    h.write_str(strategy.name());
    h.write_u64(options.fill_delay_slots as u64);
    h
}

/// Extends a [`base_fingerprint`] with one function's body and the
/// module's symbol table, yielding the entry's address. Equal to the
/// key the driver derives for `func` when compiling `module`.
pub fn func_key(base: &StableHasher, module: &ir::Module, func: &ir::Function) -> CacheKey {
    body_key(&module_prefix(base, module), func)
}

/// Extends a [`base_fingerprint`] with the module's symbol table: the
/// prefix every function key of one compile shares. Symbol ids
/// embedded in function bodies and in cached assembly are indices into
/// this table, so the mapping is part of the content.
pub(crate) fn module_prefix(base: &StableHasher, module: &ir::Module) -> StableHasher {
    let mut h = base.clone();
    h.write_u64(module.symbol_count() as u64);
    for i in 0..module.symbol_count() {
        h.write_str(module.symbol_name(ir::SymbolId(i as u32)));
    }
    h
}

/// Finishes a [`module_prefix`] with one function's body: blocks,
/// statements, node forest, types and locals, all through
/// `Function`'s derived `Hash`.
pub(crate) fn body_key(prefix: &StableHasher, func: &ir::Function) -> CacheKey {
    let mut h = prefix.clone();
    func.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------
// Entry codec: one flat JSON object (the workspace dialect — scalar
// values only) with the assembly in a compact positional text form.
// ---------------------------------------------------------------------

fn encode_operand(out: &mut String, op: &crate::code::Operand) {
    use crate::code::{ImmVal, Operand};
    use std::fmt::Write as _;
    match op {
        Operand::Phys(p) => {
            let _ = write!(out, "P{}.{}", p.class.0, p.index);
        }
        Operand::Imm(ImmVal::Const(v)) => {
            let _ = write!(out, "C{v}");
        }
        Operand::Imm(ImmVal::Sym(s, a)) => {
            let _ = write!(out, "S{}.{a}", s.0);
        }
        Operand::Imm(ImmVal::SymHigh(s, a)) => {
            let _ = write!(out, "H{}.{a}", s.0);
        }
        Operand::Imm(ImmVal::SymLow(s, a)) => {
            let _ = write!(out, "L{}.{a}", s.0);
        }
        Operand::Block(b) => {
            let _ = write!(out, "B{}", b.0);
        }
        Operand::Func(s) => {
            let _ = write!(out, "F{}", s.0);
        }
        Operand::Vreg(v) => {
            let _ = write!(out, "V{}", v.0);
        }
        Operand::VregHalf(v, h) => {
            let _ = write!(out, "U{}.{h}", v.0);
        }
    }
}

fn decode_operand(text: &str) -> Option<crate::code::Operand> {
    use crate::code::{ImmVal, Operand, Vreg};
    use marion_ir::{BlockId, SymbolId};
    use marion_maril::{PhysReg, RegClassId};
    let (tag, rest) = text.split_at(1);
    let pair = |rest: &str| -> Option<(u32, i64)> {
        let (a, b) = rest.split_once('.')?;
        Some((a.parse().ok()?, b.parse().ok()?))
    };
    Some(match tag {
        "P" => {
            let (class, index) = pair(rest)?;
            Operand::Phys(PhysReg {
                class: RegClassId(class),
                index: u32::try_from(index).ok()?,
            })
        }
        "C" => Operand::Imm(ImmVal::Const(rest.parse().ok()?)),
        "S" => {
            let (s, a) = pair(rest)?;
            Operand::Imm(ImmVal::Sym(SymbolId(s), a))
        }
        "H" => {
            let (s, a) = pair(rest)?;
            Operand::Imm(ImmVal::SymHigh(SymbolId(s), a))
        }
        "L" => {
            let (s, a) = pair(rest)?;
            Operand::Imm(ImmVal::SymLow(SymbolId(s), a))
        }
        "B" => Operand::Block(BlockId(rest.parse().ok()?)),
        "F" => Operand::Func(SymbolId(rest.parse().ok()?)),
        "V" => Operand::Vreg(Vreg(rest.parse().ok()?)),
        "U" => {
            let (v, h) = pair(rest)?;
            Operand::VregHalf(Vreg(v), u8::try_from(h).ok()?)
        }
        _ => return None,
    })
}

/// Compact positional text for a function's blocks: blocks joined by
/// `|`, each `est_cycles@words`; words joined by `;`, sub-operations
/// by `+`; each instruction `template:op,op,...`.
fn encode_blocks(blocks: &[AsmBlock]) -> String {
    let mut out = String::new();
    for (bi, block) in blocks.iter().enumerate() {
        if bi > 0 {
            out.push('|');
        }
        out.push_str(&block.est_cycles.to_string());
        out.push('@');
        for (wi, word) in block.words().enumerate() {
            if wi > 0 {
                out.push(';');
            }
            for (ii, inst) in word.insts().enumerate() {
                if ii > 0 {
                    out.push('+');
                }
                out.push_str(&inst.template.0.to_string());
                out.push(':');
                for (oi, op) in inst.ops.iter().enumerate() {
                    if oi > 0 {
                        out.push(',');
                    }
                    encode_operand(&mut out, op);
                }
            }
        }
    }
    out
}

fn decode_blocks(text: &str) -> Option<Vec<AsmBlock>> {
    use marion_maril::TemplateId;
    if text.is_empty() {
        return Some(Vec::new());
    }
    let (mut words, mut ops) = (BlockBuilder::default(), Vec::new());
    let mut blocks = Vec::with_capacity(text.split('|').count());
    for btext in text.split('|') {
        let (est, words_text) = btext.split_once('@')?;
        if !words_text.is_empty() {
            for wtext in words_text.split(';') {
                if !wtext.is_empty() {
                    for itext in wtext.split('+') {
                        let (template, ops_text) = itext.split_once(':')?;
                        let template = TemplateId(template.parse().ok()?);
                        ops.clear();
                        if !ops_text.is_empty() {
                            for otext in ops_text.split(',') {
                                ops.push(decode_operand(otext)?);
                            }
                        }
                        words.push(template, ops.iter().copied());
                    }
                }
                words.end_word();
            }
        }
        blocks.push(words.finish(est.parse().ok()?));
    }
    Some(blocks)
}

/// Compact positional text for per-block schedule quality: blocks
/// joined by `|`, each block the eleven counters of
/// [`crate::quality::BlockQuality`] joined by `,` (estimate, critical
/// path, issue slots, issue cycles, then the seven stall buckets in
/// [`crate::quality::STALL_KEYS`] order).
fn encode_quality(blocks: &[crate::quality::BlockQuality]) -> String {
    blocks
        .iter()
        .map(|b| {
            let s = &b.stalls;
            format!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                b.est_cycles,
                b.critical_path_cycles,
                b.issue_slots_used,
                b.issue_cycles,
                s.dependence,
                s.resource,
                s.class,
                s.temporal,
                s.pressure,
                s.order,
                s.other
            )
        })
        .collect::<Vec<_>>()
        .join("|")
}

fn decode_quality(text: &str) -> Option<Vec<crate::quality::BlockQuality>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for btext in text.split('|') {
        let mut it = btext.split(',');
        let mut next_u32 = || -> Option<u32> { it.next()?.parse().ok() };
        let mut b = crate::quality::BlockQuality {
            est_cycles: next_u32()?,
            critical_path_cycles: next_u32()?,
            issue_slots_used: next_u32()?,
            issue_cycles: next_u32()?,
            ..Default::default()
        };
        let mut next_u64 = || -> Option<u64> { it.next()?.parse().ok() };
        b.stalls.dependence = next_u64()?;
        b.stalls.resource = next_u64()?;
        b.stalls.class = next_u64()?;
        b.stalls.temporal = next_u64()?;
        b.stalls.pressure = next_u64()?;
        b.stalls.order = next_u64()?;
        b.stalls.other = next_u64()?;
        if it.next().is_some() {
            return None;
        }
        out.push(b);
    }
    Some(out)
}

/// Serialises an entry as one flat JSON line (the disk payload).
pub fn encode_entry(entry: &CachedFunc) -> String {
    let mut obj = marion_trace::json::ObjWriter::new();
    obj.int("v", FORMAT_VERSION);
    obj.str("name", &entry.asm.name);
    obj.int("frame_size", entry.asm.frame_size as i64);
    obj.str("blocks", &encode_blocks(&entry.asm.blocks));
    obj.int("insts_generated", entry.stats.insts_generated as i64);
    obj.int("spills", entry.stats.spills as i64);
    obj.int("schedule_passes", entry.stats.schedule_passes as i64);
    obj.int("estimated_cycles", entry.stats.estimated_cycles as i64);
    obj.int("delay_slots_filled", entry.stats.delay_slots_filled as i64);
    obj.int("nops_emitted", entry.stats.nops_emitted as i64);
    obj.str("quality", &encode_quality(&entry.stats.blocks));
    obj.finish()
}

/// Parses [`encode_entry`]'s form. `None` on any malformation — the
/// caller treats the entry as corrupt and recompiles.
pub fn decode_entry(payload: &str) -> Option<CachedFunc> {
    let fields = marion_trace::json::parse_flat(payload).ok()?;
    if fields.int("v")? != FORMAT_VERSION {
        return None;
    }
    let usize_of = |v: i64| usize::try_from(v).ok();
    let stats = FuncStats {
        insts_generated: usize_of(fields.int("insts_generated")?)?,
        spills: usize_of(fields.int("spills")?)?,
        schedule_passes: usize_of(fields.int("schedule_passes")?)?,
        estimated_cycles: u64::try_from(fields.int("estimated_cycles")?).ok()?,
        delay_slots_filled: usize_of(fields.int("delay_slots_filled")?)?,
        nops_emitted: usize_of(fields.int("nops_emitted")?)?,
        blocks: decode_quality(fields.str("quality")?)?,
    };
    let asm = AsmFunc {
        name: fields.str("name")?.to_string(),
        blocks: std::sync::Arc::new(decode_blocks(fields.str("blocks")?)?),
        frame_size: u32::try_from(fields.int("frame_size")?).ok()?,
    };
    Some(CachedFunc { asm, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{ImmVal, Operand, Vreg};
    use crate::emit::AsmInst;
    use marion_ir::{BlockId, SymbolId};
    use marion_maril::{PhysReg, RegClassId, TemplateId};

    fn sample_entry() -> CachedFunc {
        fn inst(t: u32, ops: &[Operand]) -> AsmInst<'_> {
            AsmInst {
                template: TemplateId(t),
                ops,
            }
        }
        fn phys(c: u32, i: u32) -> Operand {
            Operand::Phys(PhysReg {
                class: RegClassId(c),
                index: i,
            })
        }
        let asm = AsmFunc {
            name: "llk_main".into(),
            frame_size: 48,
            blocks: std::sync::Arc::new(vec![
                AsmBlock::from_words(
                    7,
                    [
                        vec![inst(3, &[phys(0, 2), Operand::Imm(ImmVal::Const(-8))])],
                        vec![
                            inst(9, &[phys(1, 0), Operand::Imm(ImmVal::Sym(SymbolId(4), 12))]),
                            inst(2, &[Operand::Block(BlockId(3))]),
                        ],
                    ],
                ),
                AsmBlock::from_words(
                    1,
                    [[inst(
                        11,
                        &[
                            Operand::Func(SymbolId(2)),
                            Operand::Imm(ImmVal::SymHigh(SymbolId(1), -4)),
                            Operand::Imm(ImmVal::SymLow(SymbolId(1), -4)),
                            Operand::Vreg(Vreg(17)),
                            Operand::VregHalf(Vreg(5), 1),
                        ],
                    )]],
                ),
            ]),
        };
        let stats = FuncStats {
            insts_generated: 4,
            spills: 1,
            schedule_passes: 2,
            estimated_cycles: 8,
            delay_slots_filled: 1,
            nops_emitted: 0,
            blocks: vec![
                crate::quality::BlockQuality {
                    est_cycles: 7,
                    critical_path_cycles: 5,
                    issue_slots_used: 3,
                    issue_cycles: 2,
                    stalls: crate::quality::StallBreakdown {
                        dependence: 2,
                        resource: 1,
                        ..Default::default()
                    },
                },
                crate::quality::BlockQuality {
                    est_cycles: 1,
                    critical_path_cycles: 1,
                    issue_slots_used: 1,
                    issue_cycles: 1,
                    stalls: crate::quality::StallBreakdown::default(),
                },
            ],
        };
        CachedFunc { asm, stats }
    }

    #[test]
    fn entry_codec_round_trips() {
        let entry = sample_entry();
        let decoded = decode_entry(&encode_entry(&entry)).expect("decodes");
        assert_eq!(decoded, entry);
    }

    #[test]
    fn trace_config_does_not_change_the_key() {
        let src = r#"
            declare {
                %reg r[0:3] (int);
                %resource IE;
                %def c16 [-32768:32767];
            }
            cwvm {
                %general (int) r;
                %allocable r[1:2];
                %sp r[3] +down;
                %fp r[0] +down;
                %retaddr r[1];
            }
            instr {
                %instr add r, r, r (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            }
        "#;
        let machine = Machine::parse("tiny", src).expect("parses");
        let key = |trace| {
            let options = CompileOptions {
                trace,
                ..CompileOptions::default()
            };
            base_fingerprint(&machine, StrategyKind::Ips, &options).finish()
        };
        assert_eq!(key(None), key(Some(marion_trace::TraceConfig::default())));
    }

    #[test]
    fn float_constants_key_by_their_bits() {
        let func_returning = |v: f64| ir::Function {
            name: "f".to_string(),
            params: Vec::new(),
            ret_ty: Some(marion_maril::Ty::Double),
            vreg_tys: Vec::new(),
            locals: Vec::new(),
            blocks: vec![ir::Block {
                stmts: Vec::new(),
                term: ir::Terminator::Ret(Some(ir::NodeId(0))),
            }],
            nodes: vec![ir::Node {
                kind: ir::NodeKind::ConstF(v),
                ty: marion_maril::Ty::Double,
            }],
        };
        assert_eq!(func_returning(0.0), func_returning(-0.0));
        let prefix = StableHasher::new();
        assert_ne!(
            body_key(&prefix, &func_returning(0.0)),
            body_key(&prefix, &func_returning(-0.0))
        );
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = encode_entry(&sample_entry());
        assert!(decode_entry("").is_none());
        assert!(decode_entry("{}").is_none());
        assert!(
            decode_entry(&good.replace(&format!("\"v\":{FORMAT_VERSION}"), "\"v\":999")).is_none()
        );
        // A mangled quality payload reads as corrupt, not as zeros.
        assert!(
            decode_entry(&good.replacen("\"quality\":\"7,5", "\"quality\":\"x,5", 1)).is_none()
        );
        assert!(decode_entry(&good.replacen("P0.2", "Q0.2", 1)).is_none());
        assert!(
            decode_entry(&good.replacen("\"frame_size\":48", "\"frame_size\":-1", 1)).is_none()
        );
    }

    #[test]
    fn opening_a_store_compacts_rejected_and_overridden_lines() {
        let dir =
            std::env::temp_dir().join(format!("marion-fcache-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let first = sample_entry();
        let mut second = sample_entry();
        second.asm.frame_size = 64;
        let (a, b, c) = (CacheKey([1, 1]), CacheKey([2, 2]), CacheKey([3, 3]));
        let old_format = encode_entry(&first).replace(
            &format!("\"v\":{FORMAT_VERSION}"),
            &format!("\"v\":{}", FORMAT_VERSION - 1),
        );
        let append = |lines: &[(CacheKey, &str)]| {
            let (store, _) = DiskStore::open(&path).unwrap();
            for (key, payload) in lines {
                store.append(*key, payload).unwrap();
            }
        };
        append(&[(a, &encode_entry(&first))]);
        std::fs::write(
            &path,
            std::fs::read_to_string(&path).unwrap() + "this is not a cache entry\n",
        )
        .unwrap();
        append(&[
            (b, &old_format),
            (c, &encode_entry(&first)),
            (a, &encode_entry(&second)),
        ]);
        let keys = || -> Vec<String> {
            std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .map(|line| {
                    marion_trace::json::parse_flat(line)
                        .unwrap()
                        .str("key")
                        .unwrap()
                        .to_string()
                })
                .collect()
        };

        // The first open reports what the file held, then compacts it to
        // the last decodable line of each key, in file order.
        let (cache, load) = FuncCache::with_disk(16, &path).unwrap();
        assert_eq!((load.loaded, load.corrupt), (3, 2));
        assert_eq!(cache.get(a), Some(second.clone()));
        assert_eq!(keys(), [c.to_hex(), a.to_hex()]);
        // Appends go on to the compacted file.
        cache.insert(b, first.clone());
        drop(cache);
        assert_eq!(keys(), [c.to_hex(), a.to_hex(), b.to_hex()]);

        let (cache, load) = FuncCache::with_disk(16, &path).unwrap();
        assert_eq!((load.loaded, load.corrupt), (3, 0));
        assert_eq!(cache.get(a), Some(second));
        assert_eq!(cache.get(b), Some(first.clone()));
        assert_eq!(cache.get(c), Some(first));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_that_cannot_be_compacted_is_kept_as_it_was() {
        let dir = std::env::temp_dir().join(format!("marion-fcache-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let entry = sample_entry();
        let (a, b) = (CacheKey([1, 1]), CacheKey([2, 2]));
        {
            let (store, _) = DiskStore::open(&path).unwrap();
            store.append(a, &encode_entry(&entry)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap() + "this is not a cache entry\n";
        std::fs::write(&path, &text).unwrap();
        // A directory where the temporary file would go fails the
        // rewrite; the cache must open anyway and append to the old
        // file.
        std::fs::create_dir_all(dir.join("store.jsonl.tmp")).unwrap();
        let (cache, load) = FuncCache::with_disk(16, &path).unwrap();
        assert_eq!((load.loaded, load.corrupt), (1, 1));
        assert_eq!(cache.get(a), Some(entry.clone()));
        cache.insert(b, entry);
        drop(cache);
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.starts_with(&text), "{after}");
        assert_eq!(after.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_function_encodes() {
        let entry = CachedFunc {
            asm: AsmFunc {
                name: "f".into(),
                blocks: Default::default(),
                frame_size: 0,
            },
            stats: FuncStats::default(),
        };
        assert_eq!(decode_entry(&encode_entry(&entry)).unwrap(), entry);
    }
}
