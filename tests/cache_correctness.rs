//! The compile cache must be invisible: warm output byte-identical to
//! cold, keys that never collide for differing inputs, corrupt disk
//! entries detected and recompiled rather than served, and traced
//! compiles kept away from it entirely.

use marion::backend::{
    AsmBlock, CompileOptions, CompiledProgram, Compiler, FuncCache, StrategyKind,
};
use marion::cache::{CacheKey, StableHasher};
use marion::rng::SplitMix64;
use marion::trace::TraceConfig;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const MACHINES: [&str; 5] = ["toyp", "r2000", "m88k", "i860", "rs6000"];
const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Postpass,
    StrategyKind::Ips,
    StrategyKind::Rase,
];

fn compile(
    machine: &str,
    strategy: StrategyKind,
    cache: Option<Arc<FuncCache>>,
) -> CompiledProgram {
    let spec = marion::machines::load(machine);
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes,
        strategy,
        CompileOptions {
            cache,
            ..CompileOptions::default()
        },
    );
    let module = marion::workloads::multi::combined_generated(6, 42);
    compiler
        .compile_module(&module)
        .unwrap_or_else(|e| panic!("{machine}/{strategy:?}: {e}"))
}

#[test]
fn warm_cache_output_is_byte_identical_to_cold() {
    for machine in MACHINES {
        let render = |p: &CompiledProgram| p.render(&marion::machines::load(machine).machine);
        for strategy in STRATEGIES {
            let cold = compile(machine, strategy, None);
            let cache = Arc::new(FuncCache::in_memory(1024));
            let filling = compile(machine, strategy, Some(cache.clone()));
            let warm = compile(machine, strategy, Some(cache.clone()));

            let fill_summary = filling.cache.expect("cache accounting");
            let warm_summary = warm.cache.expect("cache accounting");
            assert_eq!(
                fill_summary.hits, 0,
                "{machine}/{strategy:?}: first run cold"
            );
            assert!(fill_summary.misses > 0);
            assert_eq!(
                warm_summary.misses, 0,
                "{machine}/{strategy:?}: second run fully warm"
            );
            assert_eq!(warm_summary.hits, fill_summary.misses);

            for run in [&filling, &warm] {
                assert_eq!(
                    render(&cold),
                    render(run),
                    "{machine}/{strategy:?}: assembly must not depend on the cache"
                );
                assert_eq!(cold.stats, run.stats, "{machine}/{strategy:?}: stats");
            }
        }
    }
}

/// Cached blocks are shared copy-on-write: a hit hands out the very
/// blocks the miss stored, and a caller editing its program (through
/// `blocks_mut`, which copies first) changes neither the cache nor any
/// other program served from it.
#[test]
fn doctoring_a_served_program_leaves_the_cache_intact() {
    for machine in ["r2000", "i860"] {
        let target = marion::machines::load(machine).machine;
        for strategy in STRATEGIES {
            let cold = compile(machine, strategy, None);
            let cache = Arc::new(FuncCache::in_memory(1024));
            let mut filling = compile(machine, strategy, Some(cache.clone()));
            let mut warm = compile(machine, strategy, Some(cache.clone()));
            for (f, w) in filling.asm.funcs.iter().zip(&warm.asm.funcs) {
                assert!(
                    Arc::ptr_eq(&f.blocks, &w.blocks),
                    "{machine}/{strategy:?}: a hit shares the blocks the miss stored"
                );
            }
            for program in [&mut filling, &mut warm] {
                for func in &mut program.asm.funcs {
                    let blocks = func.blocks_mut();
                    let est_cycles = blocks[0].est_cycles;
                    blocks[0] = AsmBlock::default(); // no words
                    blocks[0].est_cycles = est_cycles + 1;
                    blocks.pop();
                }
                assert_ne!(program.render(&target), cold.render(&target));
            }
            let again = compile(machine, strategy, Some(cache.clone()));
            assert_eq!(again.cache.expect("cache accounting").misses, 0);
            assert_eq!(
                again.render(&target),
                cold.render(&target),
                "{machine}/{strategy:?}: an edit to a served program reached the cache"
            );
            assert_eq!(again.asm, cold.asm);
            assert_eq!(again.stats, cold.stats);
        }
    }
}

/// The public `func_key` (perfbench and other tools derive keys with
/// it) addresses exactly the entries the driver stores.
#[test]
fn func_key_addresses_what_the_driver_cached() {
    use marion::backend::fcache::{base_fingerprint, func_key};
    let machine = "r2000";
    for strategy in STRATEGIES {
        let cache = Arc::new(FuncCache::in_memory(1024));
        let program = compile(machine, strategy, Some(cache.clone()));
        let mut module = marion::workloads::multi::combined_generated(6, 42);
        marion::backend::driver::materialize_float_constants(&mut module);
        let base = base_fingerprint(
            &marion::machines::load(machine).machine,
            strategy,
            &CompileOptions::default(),
        );
        for (func, asm) in module.funcs.iter().zip(&program.asm.funcs) {
            let entry = cache
                .get(func_key(&base, &module, func))
                .unwrap_or_else(|| {
                    panic!("{strategy:?}: no entry under func_key for {}", func.name)
                });
            assert_eq!(&entry.asm, asm);
        }
    }
}

#[test]
fn warm_cache_is_identical_at_any_jobs_count() {
    let machine = "r2000";
    let cold = compile(machine, StrategyKind::Ips, None);
    let cache = Arc::new(FuncCache::in_memory(1024));
    let spec = marion::machines::load(machine);
    let module = marion::workloads::multi::combined_generated(6, 42);
    for jobs in [1usize, 4] {
        let compiler = Compiler::with_options(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Ips,
            CompileOptions {
                cache: Some(cache.clone()),
                jobs: std::num::NonZeroUsize::new(jobs),
                ..CompileOptions::default()
            },
        );
        let program = compiler.compile_module(&module).expect("compiles");
        assert_eq!(
            cold.render(&spec.machine),
            program.render(&spec.machine),
            "jobs={jobs}"
        );
        assert_eq!(cold.stats, program.stats, "jobs={jobs}");
    }
    // First pass filled, second pass hit — across different job counts.
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.misses > 0);
}

/// A traced compile neither probes nor fills an attached cache, so its
/// trace describes a cold compile; its output still equals the cached
/// compile's.
#[test]
fn traced_compile_bypasses_the_cache() {
    let machine = "r2000";
    let spec = marion::machines::load(machine);
    let module = marion::workloads::multi::combined_generated(6, 42);
    let cache = Arc::new(FuncCache::in_memory(1024));
    let cached = compile(machine, StrategyKind::Ips, Some(cache.clone()));
    let (stats, len) = (cache.stats(), cache.len());
    assert!(len > 0);
    for jobs in [1usize, 4] {
        let traced = Compiler::with_options(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Ips,
            CompileOptions {
                trace: Some(TraceConfig::default()),
                cache: Some(cache.clone()),
                jobs: std::num::NonZeroUsize::new(jobs),
                ..CompileOptions::default()
            },
        )
        .compile_module(&module)
        .expect("compiles");
        assert!(traced.trace.is_some(), "jobs={jobs}: traced");
        assert!(traced.cache.is_none(), "jobs={jobs}: no cache accounting");
        assert_eq!(cache.stats(), stats, "jobs={jobs}: no probe, no insert");
        assert_eq!(cache.len(), len, "jobs={jobs}");
        assert_eq!(
            cached.render(&spec.machine),
            traced.render(&spec.machine),
            "jobs={jobs}"
        );
        assert_eq!(cached.stats, traced.stats, "jobs={jobs}");
    }
}

#[test]
fn randomized_inputs_never_collide() {
    let mut rng = SplitMix64::new(0xC0FF_EE00_1234_5678);
    let mut keys: HashSet<CacheKey> = HashSet::new();
    // Random structured inputs: each distinct (byte-string, word
    // pair) must produce a distinct key.
    let mut inputs: HashSet<(Vec<u8>, u64, u64)> = HashSet::new();
    while inputs.len() < 4000 {
        let len = rng.index(48);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        inputs.insert((bytes, rng.next_u64(), rng.next_u64()));
    }
    for (bytes, a, b) in &inputs {
        let mut h = StableHasher::new();
        h.write_bytes(bytes);
        h.write_u64(*a);
        h.write_u64(*b);
        assert!(
            keys.insert(h.finish()),
            "collision for {bytes:?} / {a:#x} / {b:#x}"
        );
    }
    // Flipping any single component must change the key.
    let mut h = StableHasher::new();
    h.write_str("machine");
    h.write_u64(7);
    h.write_str("function body");
    let base = h.finish();
    let variants = [
        {
            let mut h = StableHasher::new();
            h.write_str("machinf");
            h.write_u64(7);
            h.write_str("function body");
            h.finish()
        },
        {
            let mut h = StableHasher::new();
            h.write_str("machine");
            h.write_u64(8);
            h.write_str("function body");
            h.finish()
        },
        {
            let mut h = StableHasher::new();
            h.write_str("machine");
            h.write_u64(7);
            h.write_str("function bodz");
            h.finish()
        },
        // Shifting a boundary must not cancel out.
        {
            let mut h = StableHasher::new();
            h.write_str("machine7");
            h.write_u64(7);
            h.write_str("function body");
            h.finish()
        },
    ];
    for (i, v) in variants.iter().enumerate() {
        assert_ne!(base, *v, "variant {i} collided with the base key");
    }
}

/// The key an earlier fcache computed: `Debug`-render the machine and
/// the function into strings and hash those. Re-implemented here so
/// the structural `Hash` scheme can be crosschecked against it:
/// wherever the render-based key distinguished two inputs, the
/// structural key must too.
fn debug_render_key(
    machine_render: &str,
    strategy: StrategyKind,
    fill_delay_slots: bool,
    module: &marion::ir::Module,
    func: &marion::ir::Function,
) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_i64(marion::backend::fcache::FORMAT_VERSION);
    h.write_str(machine_render);
    h.write_str(strategy.name());
    h.write_u64(fill_delay_slots as u64);
    h.write_str(&format!("{func:?}"));
    h.write_u64(module.symbol_count() as u64);
    for i in 0..module.symbol_count() {
        h.write_str(module.symbol_name(marion::ir::SymbolId(i as u32)));
    }
    h.finish()
}

#[test]
fn structural_keys_are_injective_wherever_render_keys_were() {
    use marion::backend::fcache::{base_fingerprint, func_key};

    // A pool of functions: 18 linked modules over disjoint seed
    // ranges with varying unit counts. Driver `main`s repeat across
    // modules with equal unit counts (same calls, same symbol table) —
    // those are genuinely identical cache inputs, so dedupe by input
    // identity and demand equal keys for them instead.
    let modules: Vec<marion::ir::Module> = (0..18u64)
        .map(|s| marion::workloads::multi::combined_generated(6 + s % 5, 1000 + 100 * s))
        .collect();
    let symtabs: Vec<Vec<&str>> = modules
        .iter()
        .map(|m| {
            (0..m.symbol_count())
                .map(|i| m.symbol_name(marion::ir::SymbolId(i as u32)))
                .collect()
        })
        .collect();

    let mut old_keys: HashSet<CacheKey> = HashSet::new();
    let mut new_keys: HashSet<CacheKey> = HashSet::new();
    let mut seen: BTreeMap<String, (CacheKey, CacheKey)> = BTreeMap::new();
    for machine in MACHINES {
        let spec = marion::machines::load(machine);
        let machine_render = format!("{:?}", spec.machine);
        for strategy in STRATEGIES {
            for fill in [false, true] {
                let options = CompileOptions {
                    fill_delay_slots: fill,
                    ..CompileOptions::default()
                };
                let new_base = base_fingerprint(&spec.machine, strategy, &options);
                for (module, symtab) in modules.iter().zip(&symtabs) {
                    for func in &module.funcs {
                        let old = debug_render_key(&machine_render, strategy, fill, module, func);
                        let new = func_key(&new_base, module, func);
                        // Everything either key scheme covers, rendered
                        // as the input's identity.
                        let input = format!("{machine}/{strategy:?}/{fill}/{symtab:?}/{func:?}");
                        match seen.get(&input) {
                            Some(&(prev_old, prev_new)) => {
                                assert_eq!(prev_old, old, "render key not deterministic");
                                assert_eq!(prev_new, new, "structural key not deterministic");
                            }
                            None => {
                                assert!(
                                    old_keys.insert(old),
                                    "{machine}/{strategy:?}/fill={fill}: render-key collision \
                                     for {}",
                                    func.name
                                );
                                assert!(
                                    new_keys.insert(new),
                                    "{machine}/{strategy:?}/fill={fill}: structural-key \
                                     collision for {}",
                                    func.name
                                );
                                seen.insert(input, (old, new));
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        seen.len() >= 4000,
        "need at least 4000 distinct machine x function variants, swept {}",
        seen.len()
    );
    assert_eq!(old_keys.len(), new_keys.len());
}

#[test]
fn shifting_a_field_boundary_flips_the_structural_key() {
    use marion::ir::{Block, Function, Local, Terminator};

    // Two functions whose locals concatenate to the same byte string:
    // ("ab", "c") vs ("a", "bc"). A length-prefix-free encoding would
    // collide; the structural key must not.
    let func_with_locals = |names: [&str; 2]| Function {
        name: "f".to_string(),
        params: Vec::new(),
        ret_ty: None,
        vreg_tys: Vec::new(),
        locals: names
            .iter()
            .map(|n| Local {
                name: n.to_string(),
                size: 4,
            })
            .collect(),
        blocks: vec![Block {
            stmts: Vec::new(),
            term: Terminator::Ret(None),
        }],
        nodes: Vec::new(),
    };
    let key = |f: &Function| {
        let mut h = StableHasher::new();
        f.hash(&mut h);
        h.finish()
    };
    assert_ne!(
        key(&func_with_locals(["ab", "c"])),
        key(&func_with_locals(["a", "bc"])),
        "local-name boundary shift must flip the function key"
    );

    // Same at the machine level: resources ("AB", "C") vs ("A", "BC").
    let machine_with_resources = |decl: &str| {
        let src = format!(
            r#"
            declare {{
                %reg r[0:3] (int);
                %resource {decl} IE;
                %def c16 [-32768:32767];
            }}
            cwvm {{
                %general (int) r;
                %allocable r[1:2];
                %sp r[3] +down;
                %fp r[0] +down;
                %retaddr r[1];
            }}
            instr {{
                %instr add r, r, r (int) {{$1 = $2 + $3;}} [IE;] (1,1,0)
            }}
        "#
        );
        marion::maril::Machine::parse("bshift", &src).expect("parses")
    };
    let mkey = |m: &marion::maril::Machine| {
        let mut h = StableHasher::new();
        m.hash(&mut h);
        h.finish()
    };
    assert_ne!(
        mkey(&machine_with_resources("AB; C;")),
        mkey(&machine_with_resources("A; BC;")),
        "resource-name boundary shift must flip the machine key"
    );
}

#[test]
fn corrupted_disk_entry_is_recompiled_not_served() {
    let dir = std::env::temp_dir().join(format!("marion-cache-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.jsonl");
    let _ = std::fs::remove_file(&path);

    let machine = "r2000";
    let strategy = StrategyKind::Ips;
    let cold = compile(machine, strategy, None);

    // Fill a disk-backed cache.
    {
        let (cache, load) = FuncCache::with_disk(1024, &path).unwrap();
        assert_eq!(load.loaded, 0);
        let filling = compile(machine, strategy, Some(Arc::new(cache)));
        assert!(filling.cache.unwrap().misses > 0);
    }
    let entries = std::fs::read_to_string(&path).unwrap().lines().count();
    assert!(entries >= 6, "one disk entry per function, got {entries}");

    // Corrupt one entry: flip a payload byte without touching the
    // recorded checksum.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let target = lines[2]
        .find("\"payload\":\"")
        .expect("payload field present")
        + "\"payload\":\"".len()
        + 40;
    let mut bytes = lines[2].clone().into_bytes();
    bytes[target] = if bytes[target] == b'a' { b'b' } else { b'a' };
    lines[2] = String::from_utf8(bytes).unwrap();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    // Reload: the corrupt entry is counted, skipped, and recompiled.
    let (cache, load) = FuncCache::with_disk(1024, &path).unwrap();
    assert_eq!(load.corrupt, 1, "exactly the flipped entry is rejected");
    assert_eq!(load.loaded, entries - 1);
    let reloaded = compile(machine, strategy, Some(Arc::new(cache)));
    let summary = reloaded.cache.unwrap();
    assert_eq!(summary.misses, 1, "only the corrupt entry recompiles");
    assert_eq!(summary.hits as usize, entries - 1);
    assert_eq!(
        cold.render(&marion::machines::load(machine).machine),
        reloaded.render(&marion::machines::load(machine).machine),
        "recompiled output must match the cold compile"
    );
    assert_eq!(cold.stats, reloaded.stats);

    let _ = std::fs::remove_dir_all(&dir);
}

fn machine_key(machine: &marion::maril::Machine) -> CacheKey {
    use marion::backend::fcache::base_fingerprint;
    base_fingerprint(machine, StrategyKind::Ips, &CompileOptions::default()).finish()
}

/// A machine's selection index only prunes candidate lists, so the
/// brute-force reference compiles the same code and must share keys.
#[test]
fn brute_force_reference_shares_the_machine_key() {
    for machine in MACHINES {
        let m = marion::machines::load(machine).machine;
        assert_ne!(
            m.selection_index(),
            m.brute_force_reference().selection_index()
        );
        assert_eq!(
            machine_key(&m),
            machine_key(&m.brute_force_reference()),
            "{machine}: the selection index reached the key"
        );
    }
}

/// Re-printing a description changes its Table 1 line counts, never
/// its code, so the key must not move.
#[test]
fn reprinted_description_shares_the_machine_key() {
    use marion::maril::{lexer::lex, parser::parse, pretty::print_description, Machine};
    let bundled = [
        marion::machines::toyp::text(),
        marion::machines::r2000::text(),
        marion::machines::m88k::text(),
        marion::machines::i860::text(),
        marion::machines::rs6000::text(),
    ];
    for (machine, text) in MACHINES.iter().zip(bundled) {
        let original = Machine::parse(machine, text).expect("parses");
        let printed = print_description(&parse(&lex(text).unwrap()).unwrap());
        let reprinted = Machine::parse(machine, &printed).expect("re-parses");
        assert_ne!(original.stats(), reprinted.stats(), "{machine}");
        assert_eq!(
            machine_key(&original),
            machine_key(&reprinted),
            "{machine}: description line counts reached the key"
        );
    }
}

/// Editing one item of any table code generation reads moves the key.
#[test]
fn editing_any_machine_table_flips_the_key() {
    const TINY: &str = r#"
        declare {
            %reg r[0:7] (int);
            %resource IE; MEM;
            %clock clk; %clock clk2;
            %reg t1 (int; clk) +temporal;
            %element e1; %element e2;
            %class cls { e1 };
            %def c16 [-32768:32767];
            %label lab [-32768:32767] +relative;
            %memory m[0:65535];
        }
        cwvm {
            %general (int) r;
            %allocable r[1:5];
            %sp r[7] +down;
            %fp r[6] +down;
            %retaddr r[1];
        }
        instr {
            %instr add r, r, r (int) <cls> {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr addi r, r, #c16 (int) {$1 = $2 + $3;} [IE;] (1,1,0)
            %instr tadd r (int; clk) {t1 = $1 + t1;} [IE;] (1,1,0)
            %instr ld r, r, #c16 (int) {$1 = m[$2+$3];} [IE; MEM;] (1,2,0)
            %instr br #lab {goto $1;} [IE;] (1,1,1)
            %aux ld : add (1.$1 == 2.$2) (3)
            %glue r {($1 * 2) ==> ($1 + $1);}
        }
    "#;
    let parse = |src: &str| marion::maril::Machine::parse("tiny", src).expect("parses");
    let base = machine_key(&parse(TINY));
    assert_eq!(
        base,
        machine_key(&parse(TINY)),
        "same description, same key"
    );
    assert_ne!(
        base,
        machine_key(&marion::maril::Machine::parse("tinz", TINY).unwrap()),
        "name"
    );
    let edits = [
        ("register class", "%reg r[0:7]", "%reg r[0:8]"),
        ("temporal", "(int; clk) +temporal", "(int; clk2) +temporal"),
        (
            "resource",
            "%resource IE; MEM;",
            "%resource IE; MEM; SPARE;",
        ),
        (
            "immediate",
            "%def c16 [-32768:32767]",
            "%def c16 [-32768:32766]",
        ),
        (
            "label",
            "[-32768:32767] +relative",
            "[-32768:32766] +relative",
        ),
        (
            "memory",
            "%memory m[0:65535];",
            "%memory m[0:65535]; %memory n[0:255];",
        ),
        ("clock", "%clock clk2;", "%clock clk2; %clock clk3;"),
        ("element", "%element e2;", "%element e2; %element e3;"),
        (
            "packing class",
            "%class cls { e1 };",
            "%class cls { e1, e2 };",
        ),
        ("template operand", "addi r, r, #c16", "addi r, r[0], #c16"),
        ("semantics", "{t1 = $1 + t1;}", "{t1 = $1 - t1;}"),
        ("resource vector", "[IE; MEM;]", "[IE; MEM; MEM;]"),
        ("latency", "(1,2,0)", "(1,3,0)"),
        ("slots", "(1,1,1)", "(1,1,2)"),
        ("cost", "(1,1,1)", "(2,1,1)"),
        ("%aux", "(1.$1 == 2.$2) (3)", "(1.$1 == 2.$2) (4)"),
        ("%glue", "==> ($1 + $1)", "==> ($1 << 1)"),
        ("cwvm", "%allocable r[1:5]", "%allocable r[1:4]"),
    ];
    for (table, from, to) in edits {
        assert_eq!(TINY.matches(from).count(), 1, "{table}: `{from}`");
        let edited = machine_key(&parse(&TINY.replace(from, to)));
        assert_ne!(
            base, edited,
            "editing the {table} table left the key unchanged"
        );
    }
}
