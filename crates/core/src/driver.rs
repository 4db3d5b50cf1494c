//! The compilation driver: glue → selection → strategy → emission,
//! per function, over a whole IR module. [`Compiler::compile_func`] is
//! the back end's one per-function pipeline: [`Compiler::compile_module`]
//! runs it over a module (cached, in parallel) and links the results
//! with [`Compiler::link`], and the tools that inspect compiled code
//! (the retargeting audit, `marion-explain`) call it directly.

use crate::code::CodeFunc;
use crate::emit::{emit_func, AsmFunc, AsmProgram, FillRecord};
use crate::error::CodegenError;
use crate::fcache::{
    base_fingerprint, body_key, module_prefix, CacheSummary, CacheTally, CachedFunc, FuncCache,
};
use crate::glue::apply_glue;
use crate::sched::Schedule;
use crate::select::EscapeRegistry;
use crate::strategy::{StrategyKind, StrategyStats};
use marion_cache::StableHasher;
use marion_ir as ir;
use marion_ir::{Node, NodeId, NodeKind};
use marion_maril::{Machine, Ty};
use marion_trace::{TraceConfig, TraceData, Tracer};
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A fully compiled program, ready for the `marion-sim` simulator.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The emitted code.
    pub asm: AsmProgram,
    /// Global data, in layout order: (name, initialiser).
    pub globals: Vec<(String, ir::GlobalInit)>,
    /// Symbol names indexed by [`ir::SymbolId`].
    pub symbols: Vec<String>,
    /// The machine this was compiled for.
    pub machine_name: String,
    /// Strategy used.
    pub strategy: StrategyKind,
    /// Aggregate statistics.
    pub stats: CompileStats,
    /// The trace collected during compilation, when
    /// [`CompileOptions::trace`] was set.
    pub trace: Option<TraceData>,
    /// Cache accounting for this compile, when
    /// [`CompileOptions::cache`] was set and tracing was off (a traced
    /// compile never touches the cache). Kept out of [`CompileStats`]
    /// so warm and cold statistics stay byte-identical.
    pub cache: Option<CacheSummary>,
}

impl CompiledProgram {
    /// Renders the program as assembly text.
    pub fn render(&self, machine: &Machine) -> String {
        crate::emit::render_program(machine, &self.asm, &self.symbols)
    }
}

/// Aggregate compile statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Machine instructions generated (the dilation denominator).
    pub insts_generated: usize,
    /// Total virtual registers spilled.
    pub spills: usize,
    /// Scheduling passes across all functions.
    pub schedule_passes: usize,
    /// Sum of final block cycle estimates across the program.
    pub estimated_cycles: u64,
    /// Branch delay slots filled with useful instructions instead of
    /// nops (the §4.4 optional pass).
    pub delay_slots_filled: usize,
    /// `nop`s remaining in the emitted code (unfilled delay slots).
    pub nops_emitted: usize,
    /// The same statistics, per function, index-aligned with the
    /// program's `asm.funcs` (which carry the names).
    pub per_func: Vec<FuncStats>,
}

impl CompileStats {
    /// Folds one function's statistics into the aggregate.
    fn accumulate(&mut self, fs: FuncStats) {
        self.insts_generated += fs.insts_generated;
        self.spills += fs.spills;
        self.schedule_passes += fs.schedule_passes;
        self.estimated_cycles += fs.estimated_cycles;
        self.delay_slots_filled += fs.delay_slots_filled;
        self.nops_emitted += fs.nops_emitted;
        self.per_func.push(fs);
    }
}

/// Compile statistics for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Machine instructions generated.
    pub insts_generated: usize,
    /// Virtual registers spilled.
    pub spills: usize,
    /// Scheduling passes performed.
    pub schedule_passes: usize,
    /// Sum of final block cycle estimates.
    pub estimated_cycles: u64,
    /// Delay slots filled with useful instructions.
    pub delay_slots_filled: usize,
    /// `nop`s remaining in the emitted code.
    pub nops_emitted: usize,
    /// Per-block schedule quality (critical-path bound, issue-slot
    /// usage, stall breakdown), index-aligned with the emitted blocks.
    /// Structural — cached entries replay it exactly (see
    /// [`crate::quality`]).
    pub blocks: Vec<crate::quality::BlockQuality>,
}

/// One function compiled through the whole back end, as
/// [`Compiler::compile_func`] returns it.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// The selected, allocated code (spill code included).
    pub code: CodeFunc,
    /// The strategy's final per-block schedules of `code`.
    pub schedules: Vec<Schedule>,
    /// The emitted function.
    pub asm: AsmFunc,
    /// The delay slots the filler filled (none when
    /// [`CompileOptions::fill_delay_slots`] is off).
    pub fills: Vec<FillRecord>,
    /// The function's statistics.
    pub stats: FuncStats,
}

/// Options controlling one [`Compiler`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Fill branch delay slots with useful instructions where possible
    /// (paper §4.4). On by default.
    pub fill_delay_slots: bool,
    /// Collect a trace (the phase-span profile, per-function counters,
    /// histograms and gauges) during compilation; the result lands in
    /// [`CompiledProgram::trace`]. `None` (the default) collects
    /// nothing and costs nothing. A traced compile bypasses
    /// [`CompileOptions::cache`] entirely, so every trace describes a
    /// cold compile.
    pub trace: Option<TraceConfig>,
    /// Worker threads for per-function compilation. `None` (the
    /// default) uses [`std::thread::available_parallelism`]. `1`
    /// compiles strictly serially on the calling thread. Results are
    /// collected in module order regardless, so the emitted assembly
    /// is byte-identical at any job count.
    pub jobs: Option<NonZeroUsize>,
    /// Consult (and populate) a content-addressed compile cache: each
    /// function's key covers the machine description, strategy,
    /// output-relevant options and the function body, so a hit returns
    /// output byte-identical to a cold compile. `None` (the default)
    /// compiles everything cold. The cache is shared — clone the `Arc`
    /// into as many compilers as you like. Consulted only when
    /// [`CompileOptions::trace`] is `None`: a traced compile neither
    /// probes nor fills it.
    pub cache: Option<Arc<FuncCache>>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            fill_delay_slots: true,
            trace: None,
            jobs: None,
            cache: None,
        }
    }
}

/// A Marion code generator for one machine and one strategy.
pub struct Compiler {
    machine: Machine,
    escapes: EscapeRegistry,
    strategy: StrategyKind,
    options: CompileOptions,
    /// [`base_fingerprint`] of the above, hashed by the first cached
    /// compile: machine, strategy and options never change.
    base: OnceLock<StableHasher>,
}

impl Compiler {
    /// Creates a compiler from a compiled machine description, its
    /// escape functions and a strategy, with default options.
    pub fn new(machine: Machine, escapes: EscapeRegistry, strategy: StrategyKind) -> Compiler {
        Compiler::with_options(machine, escapes, strategy, CompileOptions::default())
    }

    /// Creates a compiler with explicit [`CompileOptions`].
    pub fn with_options(
        machine: Machine,
        escapes: EscapeRegistry,
        strategy: StrategyKind,
        options: CompileOptions,
    ) -> Compiler {
        Compiler {
            machine,
            escapes,
            strategy,
            options,
            base: OnceLock::new(),
        }
    }

    /// The target machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The strategy in use.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// The options in use.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compiles an IR module to machine code.
    ///
    /// Functions compile concurrently on [`CompileOptions::jobs`]
    /// scoped worker threads (std only); results are collected in
    /// module order, so the emitted assembly is byte-identical to a
    /// serial run. Each worker traces into its own shard; its profile
    /// paths are nested under `compile_module` and the shard merged
    /// with [`TraceData::merge`], so a parallel trace has the counters
    /// and the profile `(path, calls)` of a serial one.
    ///
    /// # Errors
    ///
    /// Propagates failures from any phase, tagged with the phase name.
    /// When several functions fail, the error of the first failing
    /// function in module order is returned — the same error a serial
    /// run would report.
    pub fn compile_module(&self, module: &ir::Module) -> Result<CompiledProgram, CodegenError> {
        let tracer = self.new_tracer();
        // Materialising is idempotent, so a module with no float
        // constants left (the compile service keeps its modules
        // materialised) compiles in place.
        let module = if has_float_constants(module) {
            let mut module = module.clone();
            materialize_float_constants(&mut module);
            Cow::Owned(module)
        } else {
            Cow::Borrowed(module)
        };
        let module: &ir::Module = &module;
        let module_span = tracer.span("compile_module");

        let jobs = self
            .options
            .jobs
            .map(NonZeroUsize::get)
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(NonZeroUsize::get)
            })
            .unwrap_or(1);
        let workers = jobs.min(module.funcs.len()).max(1);

        // A traced compile never touches the cache, so every trace
        // describes a cold compile. Otherwise the cache key's prefix
        // (the compiler's fingerprint, then this module's symbol
        // table) is hashed once; each function extends a clone.
        let cache = self
            .options
            .cache
            .as_deref()
            .filter(|_| self.options.trace.is_none());
        let prefix = cache.map(|_| {
            let base = self
                .base
                .get_or_init(|| base_fingerprint(&self.machine, self.strategy, &self.options));
            module_prefix(base, module)
        });
        let cached = cache.zip(prefix.as_ref());
        let tally = CacheTally::default();

        let mut funcs = Vec::with_capacity(module.funcs.len());
        let mut shards: Vec<TraceData> = Vec::new();
        if workers <= 1 {
            // Strictly serial: compile on the calling thread, tracing
            // straight into the main tracer.
            for func in &module.funcs {
                funcs.push(self.compile_func_cached(module, func, &tracer, cached, &tally)?);
            }
        } else {
            let n = module.funcs.len();
            let next = AtomicUsize::new(0);
            type Slot = Option<Result<(AsmFunc, FuncStats, Option<TraceData>), CodegenError>>;
            let slots: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| None).collect());
            let module_ref = module;
            let tally_ref = &tally;
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let shard = self.new_tracer();
                        let r = self
                            .compile_func_cached(
                                module_ref,
                                &module_ref.funcs[i],
                                &shard,
                                cached,
                                tally_ref,
                            )
                            .map(|(emitted, fs)| (emitted, fs, shard.finish()));
                        slots.lock().unwrap()[i] = Some(r);
                    });
                }
            });
            for slot in slots.into_inner().unwrap() {
                let (emitted, fs, shard) = slot.expect("worker pool left a function uncompiled")?;
                funcs.push((emitted, fs));
                shards.extend(shard);
            }
        }
        tracer.gauge(self.machine.name(), "workers", workers as i64);
        drop(module_span);
        let mut trace = tracer.finish();
        if let Some(data) = &mut trace {
            for mut shard in shards {
                // Workers trace outside the module span; nest their
                // paths under it, where a serial compile puts them.
                shard.profile = std::mem::take(&mut shard.profile)
                    .into_iter()
                    .map(|(path, prof)| (format!("compile_module/{path}"), prof))
                    .collect();
                data.merge(shard);
            }
        }
        Ok(CompiledProgram {
            trace,
            cache: cached.map(|_| tally.summary()),
            ..self.link(module, funcs)
        })
    }

    /// Links compiled functions, in module order, into a program with
    /// `module`'s symbol and global tables and the functions' summed
    /// statistics; no trace and no cache summary.
    pub fn link(
        &self,
        module: &ir::Module,
        funcs: impl IntoIterator<Item = (AsmFunc, FuncStats)>,
    ) -> CompiledProgram {
        let mut asm = AsmProgram::default();
        let mut stats = CompileStats::default();
        for (emitted, fs) in funcs {
            asm.funcs.push(emitted);
            stats.accumulate(fs);
        }
        let symbols: Vec<String> = (0..module.symbol_count())
            .map(|i| module.symbol_name(ir::SymbolId(i as u32)).to_owned())
            .collect();
        let globals = module
            .globals
            .iter()
            .map(|g| (g.name.clone(), g.init.clone()))
            .collect();
        CompiledProgram {
            asm,
            globals,
            symbols,
            machine_name: self.machine.name().to_owned(),
            strategy: self.strategy,
            stats,
            trace: None,
            cache: None,
        }
    }

    /// [`Compiler::compile_func`] behind the cache, when `cached` holds
    /// one with the module's key prefix (only ever for untraced
    /// compiles): serves a hit, compiles and inserts on a miss. Both
    /// paths return byte-identical output, and both share the cached
    /// blocks with the caller.
    fn compile_func_cached(
        &self,
        module: &ir::Module,
        func: &ir::Function,
        tracer: &Tracer,
        cached: Option<(&FuncCache, &StableHasher)>,
        tally: &CacheTally,
    ) -> Result<(AsmFunc, FuncStats), CodegenError> {
        let Some((cache, prefix)) = cached else {
            let compiled = self.compile_func(module, func, tracer)?;
            return Ok((compiled.asm, compiled.stats));
        };
        let key = body_key(prefix, func);
        if let Some(entry) = cache.get(key) {
            tally.hit();
            return Ok((entry.asm, entry.stats));
        }
        let CompiledFunc {
            asm: emitted,
            stats: fs,
            ..
        } = self.compile_func(module, func, tracer)?;
        let evicted = cache.insert(
            key,
            CachedFunc {
                asm: emitted.clone(),
                stats: fs.clone(),
            },
        );
        tally.miss();
        tally.evict(evicted as u64);
        Ok((emitted, fs))
    }

    fn new_tracer(&self) -> Tracer {
        if self.options.trace.is_some() {
            Tracer::on()
        } else {
            Tracer::off()
        }
    }

    /// Compiles one function of `module`: glue → select → strategy →
    /// emit → delay-slot fill, tracing into `tracer` (pass
    /// [`Tracer::off`] to collect nothing). `func` is one of
    /// `module`'s functions, and `module` must have its float
    /// constants materialised ([`materialize_float_constants`]), as
    /// [`Compiler::compile_module`] does first. The cache is not
    /// consulted.
    ///
    /// # Errors
    ///
    /// The first phase that fails, tagged with the phase name.
    pub fn compile_func(
        &self,
        module: &ir::Module,
        func: &ir::Function,
        tracer: &Tracer,
    ) -> Result<CompiledFunc, CodegenError> {
        let ctx = format!("{}/{}", self.machine.name(), func.name);
        let _func_span = tracer.span("compile_func");
        let mut func = func.clone();
        {
            let _span = tracer.span("glue");
            apply_glue(&self.machine, &mut func)?;
        }
        let mut code: CodeFunc = {
            let _span = tracer.span("select");
            let _cover = tracer.span("match_cover");
            crate::select::select_func(&self.machine, &self.escapes, module, &func)?
        };
        let (schedules, s): (_, StrategyStats) = {
            let _span = tracer.span("strategy");
            self.strategy.run(&self.machine, &mut code, tracer, &ctx)?
        };
        let mut asm = {
            let _span = tracer.span("emit");
            emit_func(&self.machine, &code, &schedules)?
        };
        let fills = if self.options.fill_delay_slots {
            let _span = tracer.span("fill_delay_slots");
            crate::emit::fill_delay_slots(&self.machine, &mut asm)
        } else {
            Vec::new()
        };
        let fs = FuncStats {
            insts_generated: asm.inst_count(),
            spills: s.spills,
            schedule_passes: s.schedule_passes,
            estimated_cycles: s.estimated_cycles,
            delay_slots_filled: fills.len(),
            nops_emitted: asm.nop_count(&self.machine),
            blocks: schedules
                .iter()
                .map(crate::quality::BlockQuality::from_schedule)
                .collect(),
        };
        // "spills" is recorded by the strategy's allocator hook;
        // everything else lands here so the trace and `CompileStats`
        // agree per function.
        tracer.add(&ctx, "insts_generated", fs.insts_generated as i64);
        tracer.add(&ctx, "schedule_passes", fs.schedule_passes as i64);
        tracer.add(&ctx, "estimated_cycles", fs.estimated_cycles as i64);
        tracer.add(&ctx, "delay_slots_filled", fs.delay_slots_filled as i64);
        tracer.add(&ctx, "nops_emitted", fs.nops_emitted as i64);
        // Machine-level size distributions: one sample per function,
        // accumulated across the module into log2 histograms. These
        // are structural (deterministic), so a replay of the same
        // compile reproduces them exactly.
        let mctx = self.machine.name();
        tracer.observe(mctx, "func_insts", fs.insts_generated as u64);
        tracer.observe(mctx, "func_est_cycles", fs.estimated_cycles);
        Ok(CompiledFunc {
            code,
            schedules,
            asm,
            fills,
            stats: fs,
        })
    }
}

/// Whether any function of `module` still holds a `ConstF` node, i.e.
/// whether [`materialize_float_constants`] would change it.
fn has_float_constants(module: &ir::Module) -> bool {
    module.funcs.iter().any(|f| {
        f.nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::ConstF(_)))
    })
}

/// Floating-point constants cannot be instruction immediates on these
/// machines; place them in an anonymous constant pool and rewrite each
/// `ConstF` node into a load. The [`Compiler`] applies this
/// automatically; it is public so tools driving the phases manually
/// (tests, experiments) can do the same.
pub fn materialize_float_constants(module: &mut ir::Module) {
    use std::collections::HashMap;
    let mut pool: HashMap<(u64, bool), ir::SymbolId> = HashMap::new();
    let nfuncs = module.funcs.len();
    for fi in 0..nfuncs {
        // Collect rewrites first to appease the borrow checker.
        let mut rewrites: Vec<(NodeId, f64, Ty)> = Vec::new();
        for (ni, node) in module.funcs[fi].nodes.iter().enumerate() {
            if let NodeKind::ConstF(v) = node.kind {
                rewrites.push((NodeId(ni as u32), v, node.ty));
            }
        }
        for (id, v, ty) in rewrites {
            let single = ty == Ty::Float;
            let key = (v.to_bits(), single);
            let sym = *pool.entry(key).or_insert_with(|| {
                let name = format!("$fc{}", module.globals.len());
                module.add_global(ir::Global {
                    name,
                    init: if single {
                        ir::GlobalInit::Words(vec![(v as f32).to_bits()])
                    } else {
                        ir::GlobalInit::Doubles(vec![v])
                    },
                })
            });
            let func = &mut module.funcs[fi];
            func.nodes.push(Node {
                kind: NodeKind::GlobalAddr(sym),
                ty: Ty::Ptr,
            });
            let addr = NodeId(func.nodes.len() as u32 - 1);
            func.nodes[id.0 as usize] = Node {
                kind: NodeKind::Load(addr),
                ty,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_ir::FuncBuilder;

    #[test]
    fn float_constants_become_pool_loads() {
        let mut module = ir::Module::new();
        let mut b = FuncBuilder::new("f", Some(Ty::Double));
        let c = b.const_f(3.25, Ty::Double);
        let d = b.const_f(3.25, Ty::Double);
        assert_eq!(c, d, "builder CSE");
        b.ret(Some(c));
        module.add_func(b.finish());
        materialize_float_constants(&mut module);
        assert_eq!(module.globals.len(), 1);
        let func = &module.funcs[0];
        assert!(matches!(func.node(c).kind, NodeKind::Load(_)));
    }

    #[test]
    fn distinct_constants_get_distinct_slots() {
        let mut module = ir::Module::new();
        let mut b = FuncBuilder::new("f", Some(Ty::Double));
        let c = b.const_f(1.5, Ty::Double);
        let d = b.const_f(2.5, Ty::Double);
        let s = b.bin(marion_ir::BinOp::Add, c, d, Ty::Double);
        b.ret(Some(s));
        module.add_func(b.finish());
        materialize_float_constants(&mut module);
        assert_eq!(module.globals.len(), 2);
    }
}
