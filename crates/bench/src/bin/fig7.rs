//! Figure 7 — code produced by the Marion i860 Postpass compiler for
//!
//! ```c
//! a = (x + b) + (a * z);
//! return (y + z);
//! ```
//!
//! The paper's listing shows dual-operation long instruction words
//! (multiply and add sub-operations packed together, e.g. `m12apm`)
//! and the add pipe taking inputs from both pipe outputs. This binary
//! compiles the same fragment for the bundled i860 and prints the
//! schedule word by word, with the packed sub-operations visible.

use marion_bench::outln;
use marion_core::{Compiler, StrategyKind};

fn main() {
    let spec = marion_machines::load("i860");
    let src = "double a, b, x, y, z;
               double f() {
                   a = (x + b) + (a * z);
                   return (y + z);
               }";
    let module = marion_frontend::compile(src).expect("fragment compiles");
    let compiler = Compiler::new(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).expect("codegen");
    outln!("Figure 7: Marion i860 Postpass code for");
    outln!("    a = (x + b) + (a * z);  return (y + z);");
    outln!();
    let func = program.asm.func("f").expect("f");
    let mut cycle = 0usize;
    let mut packed_words = 0usize;
    let mut sub_ops = 0usize;
    for (bi, block) in func.blocks.iter().enumerate() {
        outln!(".Lf_{bi}:");
        for word in block.words() {
            let text = marion_core::emit::render_word(&spec.machine, word, &program.symbols, "f");
            outln!("  {cycle:>3}  {text}");
            cycle += 1;
            if word.len() > 1 {
                packed_words += 1;
            }
            for inst in word.insts() {
                let t = spec.machine.template(inst.template);
                if t.affects_clock.is_some() {
                    sub_ops += 1;
                }
            }
        }
    }
    outln!();
    outln!("{sub_ops} EAP sub-operations, {packed_words} packed long instruction words");
    assert!(sub_ops >= 8, "expected the add and multiply pipes in use");
}
