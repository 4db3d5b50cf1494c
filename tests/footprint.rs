//! The memory footprint of emitted code, counted by a counting global
//! allocator: emission allocates per block, not per instruction; a
//! compile cache holds a few allocations per cached block; and
//! `AsmFunc::heap_bytes` is exactly what emission leaves allocated.
//! Also, a template with more operands than any bundled machine's
//! (five) emits, renders and round-trips through the cache codec.
//!
//! This binary holds a single test, so no other test allocates while
//! it counts.

use marion::backend::driver::materialize_float_constants;
use marion::backend::emit::{emit_func, fill_delay_slots};
use marion::backend::fcache::{decode_entry, encode_entry};
use marion::backend::{
    CachedFunc, CompileOptions, Compiler, EscapeRegistry, FuncCache, StrategyKind,
};
use marion::maril::Machine;
use marion::trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Counts allocation calls and live allocations and bytes, passing
/// every request to the system allocator.
struct Counting;

/// Allocations and reallocations made.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

fn counted(ptr: *mut u8, allocs: isize, bytes: isize) -> *mut u8 {
    if !ptr.is_null() {
        CALLS.fetch_add(1, Relaxed);
        LIVE_ALLOCS.fetch_add(allocs, Relaxed);
        LIVE_BYTES.fetch_add(bytes, Relaxed);
    }
    ptr
}

// SAFETY: every method forwards its own arguments to `System`, so the
// caller's guarantees are `System`'s and its results are returned
// unchanged; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract.
        counted(unsafe { System.alloc(layout) }, 1, layout.size() as isize)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_ALLOCS.fetch_sub(1, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        // SAFETY: the caller meets `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        counted(moved, 0, new_size as isize - layout.size() as isize)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (allocation calls, live allocations, live bytes) so far.
fn counts() -> (usize, isize, isize) {
    (
        CALLS.load(Relaxed),
        LIVE_ALLOCS.load(Relaxed),
        LIVE_BYTES.load(Relaxed),
    )
}

/// The five bundled machines × three strategies, compiling serially.
fn compilers(cache: Option<&Arc<FuncCache>>) -> Vec<Compiler> {
    let mut out = Vec::new();
    for name in marion::machines::EXTENDED {
        let spec = marion::machines::load(name);
        for kind in StrategyKind::ALL {
            let options = CompileOptions {
                jobs: NonZeroUsize::new(1),
                cache: cache.cloned(),
                ..CompileOptions::default()
            };
            out.push(Compiler::with_options(
                spec.machine.clone(),
                spec.escapes.clone(),
                kind,
                options,
            ));
        }
    }
    out
}

/// `emit_func` and `fill_delay_slots` over every function of combined
/// Livermore on each bundled machine, each strategy's schedules: the
/// allocations they make grow with blocks, and what stays allocated is
/// `heap_bytes`.
fn emission_allocates_per_block() {
    let mut module = marion::workloads::multi::combined_livermore();
    materialize_float_constants(&mut module);
    let (mut calls, mut blocks, mut insts) = (0, 0, 0);
    for compiler in compilers(None) {
        let machine = compiler.machine();
        for func in &module.funcs {
            let compiled = compiler
                .compile_func(&module, func, &Tracer::off())
                .unwrap_or_else(|e| panic!("{}/{}: {e}", machine.name(), func.name));
            let what = format!("{}/{:?}/{}", machine.name(), compiler.strategy(), func.name);
            let (calls0, _, bytes0) = counts();
            let mut asm = emit_func(machine, &compiled.code, &compiled.schedules).unwrap();
            let fills = fill_delay_slots(machine, &mut asm);
            let (calls1, _, _) = counts();
            drop(fills);
            let func_calls = calls1 - calls0;
            assert_eq!(asm, compiled.asm, "{what}");
            assert_eq!(
                counts().2 - bytes0,
                asm.heap_bytes() as isize,
                "{what}: heap_bytes"
            );
            // Three arrays per block; a few more per function for its
            // block vector, name and the emitter's reused buffers.
            assert!(
                func_calls <= 3 * asm.blocks.len() + 64,
                "{what}: {func_calls} allocations for {} blocks",
                asm.blocks.len()
            );
            calls += func_calls;
            blocks += asm.blocks.len();
            insts += asm.inst_count();
        }
    }
    assert!(
        calls * 2 < insts,
        "{calls} allocations for {insts} instructions in {blocks} blocks"
    );
}

/// The 15 machine × strategy compiles of combined Livermore fill a
/// cache; with their outputs dropped, what stays allocated is the
/// cache's, a few allocations per cached block.
fn cache_holds_a_few_allocations_per_block() {
    let module = marion::workloads::multi::combined_livermore();
    let cache = Arc::new(FuncCache::in_memory(4096));
    let compilers = compilers(Some(&cache));
    let (_, allocs0, bytes0) = counts();
    for compiler in &compilers {
        drop(compiler.compile_module(&module).expect("compiles"));
    }
    let (_, allocs1, bytes1) = counts();
    let held = cache.footprint();
    assert_eq!(cache.len(), 15 * module.funcs.len());
    let (allocs, bytes) = ((allocs1 - allocs0) as usize, (bytes1 - bytes0) as usize);
    assert!(
        allocs <= 4 * held.blocks,
        "{allocs} allocations held for {} cached blocks ({} instructions)",
        held.blocks,
        held.insts
    );
    // The code is most of what the cache holds; the rest is the
    // entries' statistics and the shards' maps.
    assert!(
        held.bytes <= bytes && bytes < 2 * held.bytes,
        "{bytes} bytes held, {} of them code",
        held.bytes
    );
}

/// A machine whose fused multiply-add takes five operands.
const FIVE: &str = r#"
declare {
    %reg r[0:15] (int);
    %resource EX; MEM;
    %def imm16 [-32768:32767];
    %def addr [0:1048575] +abs;
    %label off [-32768:32767] +relative;
    %memory m[0:16777215];
}
cwvm {
    %general (int) r;
    %general (double) r;
    %general (float) r;
    %allocable r[1:12];
    %calleesave r[8:13];
    %sp r[15] +down;
    %fp r[14] +down;
    %retaddr r[13];
    %hard r[0] 0;
    %arg (int) r[2] 1;
    %arg (int) r[3] 2;
    %result r[2] (int);
}
instr {
    /* Tried before the plain forms, in description order. */
    %instr madd2 r, r, r, r, r (int) {$1 = $2 * $3 + $4 * $5;} [EX; EX;] (1,2,0)
    %instr addi r, r, #imm16 (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    %instr add r, r, r (int) {$1 = $2 + $3;} [EX;] (1,1,0)
    %instr mul r, r, r (int) {$1 = $2 * $3;} [EX; EX;] (1,2,0)
    %instr li r, r[0], #imm16 (int) {$1 = $3;} [EX;] (1,1,0)
    %instr la r, r[0], #addr (int) {$1 = $3;} [EX;] (1,1,0)
    %instr ld r, r, #imm16 (int) {$1 = m[$2+$3];} [EX; MEM;] (1,2,0)
    %instr st r, r, #imm16 (int) {m[$2+$3] = $1;} [EX; MEM;] (1,1,0)
    %instr jmp #off {goto $1;} [EX;] (1,1,0)
    %instr call #off {call $1;} [EX;] (1,1,0)
    %instr ret {return;} [EX;] (1,1,0)
    %instr nop {} [EX;] (1,1,0)
    %move mov r, r, r[0] {$1 = $2;} [EX;] (1,1,0)
}
"#;

fn five_operand_template_round_trips() {
    let machine = Machine::parse("five", FIVE).expect("parses");
    let madd2 = machine.template_by_mnemonic("madd2").expect("madd2");
    let module = marion::frontend::compile(
        "int a, b, c, d;
         int f() { return a * b + c * d; }",
    )
    .expect("compiles");
    let compiler = Compiler::new(
        machine.clone(),
        EscapeRegistry::new(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).expect("codegen");
    let fused = program
        .asm
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.words())
        .flat_map(|w| w.insts())
        .find(|i| i.template == madd2)
        .expect("the five-operand template is selected");
    assert_eq!(fused.ops.len(), 5);
    let text = program.render(&machine);
    assert!(text.contains("madd2 r"), "{text}");
    for (asm, stats) in program.asm.funcs.iter().zip(&program.stats.per_func) {
        let entry = CachedFunc {
            asm: asm.clone(),
            stats: stats.clone(),
        };
        assert_eq!(decode_entry(&encode_entry(&entry)), Some(entry));
    }
}

#[test]
fn emitted_code_allocates_per_block_not_per_instruction() {
    emission_allocates_per_block();
    cache_holds_a_few_allocations_per_block();
    five_operand_template_round_trips();
}
