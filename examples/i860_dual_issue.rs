//! The i860's explicitly advanced pipelines, up close.
//!
//! ```sh
//! cargo run --example i860_dual_issue
//! ```
//!
//! Compiles a floating-point expression for the i860 lookalike and
//! prints the schedule word by word, annotating:
//!
//! * EAP sub-operations (`M1 M2 M3 MWB` / `A1 A2 A3 AWB`) — the
//!   multiply and add pipelines advance only when one of their
//!   sub-operations issues;
//! * chaining (`A1m`) — the add pipe consuming the multiplier output
//!   latch `m3` directly;
//! * dual-operation long instruction words — sub-operations packed in
//!   one cycle when their packing classes intersect (e.g. `m12apm`),
//!   and core (integer) instructions dual-issued beside them.

use marion::backend::{Compiler, StrategyKind};

fn main() {
    let spec = marion::machines::load("i860");
    let source = "
        double a, b, x, y, z;
        double f() {
            a = (x + b) + (a * z);
            return (y + z);
        }";
    let module = marion::frontend::compile(source).expect("front end");
    let compiler = Compiler::new(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).expect("codegen");

    println!("f():  a = (x + b) + (a * z);  return (y + z);   [i860, Postpass]\n");
    println!("{:>5}  {:<44} notes", "cycle", "word");
    let func = program.asm.func("f").expect("f");
    let mut cycle = 0;
    for block in func.blocks.iter() {
        for word in block.words() {
            let text =
                marion::backend::emit::render_word(&spec.machine, word, &program.symbols, "f");
            let mut notes: Vec<&str> = Vec::new();
            if word.len() > 1 {
                notes.push("packed word");
            }
            for inst in word.insts() {
                let t = spec.machine.template(inst.template);
                if let Some(clock) = t.affects_clock {
                    notes.push(if spec.machine.clocks()[clock.0 as usize] == "clk_m" {
                        "advances multiply pipe"
                    } else {
                        "advances add pipe"
                    });
                }
                if !t.effects.temporal_uses.is_empty() && !t.effects.temporal_defs.is_empty() {
                    let reads_m = t
                        .effects
                        .temporal_uses
                        .iter()
                        .any(|u| spec.machine.temporal(*u).name.starts_with('m'));
                    let writes_a = t
                        .effects
                        .temporal_defs
                        .iter()
                        .any(|d| spec.machine.temporal(*d).name.starts_with('a'));
                    if reads_m && writes_a {
                        notes.push("CHAINED: multiplier feeds adder");
                    }
                }
            }
            notes.dedup();
            println!("{cycle:>5}  {text:<44} {}", notes.join(", "));
            cycle += 1;
        }
    }
}
