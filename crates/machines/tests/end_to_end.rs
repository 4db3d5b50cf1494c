//! End-to-end compilation: C subset → IR → selected, scheduled,
//! allocated machine code, on every bundled machine × every strategy.

use marion_core::{Compiler, StrategyKind};
use marion_machines::load_all;

const PROGRAMS: &[(&str, &str)] = &[
    (
        "sum_loop",
        "int main() {
            int i, s;
            s = 0;
            for (i = 1; i <= 100; i++) s += i;
            return s;
        }",
    ),
    (
        "double_kernel",
        "double x[64]; double y[64];
         double dot(int n) {
            int i; double s = 0.0;
            for (i = 0; i < n; i++) s += x[i] * y[i];
            return s;
         }
         int main() {
            int i;
            for (i = 0; i < 64; i++) { x[i] = i * 0.5; y[i] = i * 0.25; }
            return (int)dot(64);
         }",
    ),
    (
        "calls_and_branches",
        "int abs(int v) { if (v < 0) return -v; return v; }
         int main() {
            int i, s = 0;
            for (i = -5; i < 5; i++) {
                if (i % 2 == 0) s += abs(i); else s -= abs(i);
            }
            return s;
         }",
    ),
    (
        "mixed_arith",
        "int main() {
            int a = 7, b = 3;
            double d = 2.5;
            int c = a * b + a / b - a % b + (a << 2) + (a >> 1) + (a & b) + (a | b) + (a ^ b);
            return c + (int)(d * 4.0);
         }",
    ),
];

#[test]
fn compiles_on_every_machine_and_strategy() {
    for spec in load_all() {
        for strategy in StrategyKind::ALL {
            let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), strategy);
            for (name, src) in PROGRAMS {
                let module = marion_frontend::compile(src)
                    .unwrap_or_else(|e| panic!("{name}: front end: {e}"));
                let program = compiler.compile_module(&module).unwrap_or_else(|e| {
                    panic!("{name} on {} with {strategy}: {e}", spec.machine.name())
                });
                assert!(
                    program.stats.insts_generated > 0,
                    "{name} on {} generated nothing",
                    spec.machine.name()
                );
                // Rendering must not panic and must mention main.
                let text = program.render(&spec.machine);
                assert!(text.contains("main:"), "{text}");
            }
        }
    }
}

#[test]
fn i860_emits_dual_operation_words() {
    // A multiply feeding an add on the i860 should produce EAP
    // sub-operations, and the schedule should pack at least one word
    // with more than one sub-operation.
    let spec = marion_machines::load("i860");
    let compiler = Compiler::new(spec.machine.clone(), spec.escapes, StrategyKind::Postpass);
    let src = "double a, b, x, y, z;
               double f() { return (x + b) + (a * z) + (y * y) + (a + y); }";
    let module = marion_frontend::compile(src).unwrap();
    let program = compiler.compile_module(&module).unwrap();
    let func = program.asm.func("f").expect("f");
    let mnems: Vec<&str> = func
        .blocks
        .iter()
        .flat_map(|b| b.words())
        .flat_map(|w| w.insts())
        .map(|i| spec.machine.template(i.template).mnemonic.as_str())
        .collect();
    assert!(
        mnems.contains(&"M1"),
        "multiplier launch missing: {mnems:?}"
    );
    assert!(
        mnems.contains(&"A1") || mnems.contains(&"A1m"),
        "adder launch missing: {mnems:?}"
    );
    assert!(
        mnems.contains(&"AWB"),
        "adder write-back missing: {mnems:?}"
    );
    let packed = func
        .blocks
        .iter()
        .flat_map(|b| b.words())
        .any(|w| w.len() > 1);
    assert!(packed, "no packed long instruction words: {mnems:?}");
}

#[test]
fn toyp_uses_movd_escape_for_double_copies() {
    let spec = marion_machines::load("toyp");
    let compiler = Compiler::new(spec.machine.clone(), spec.escapes, StrategyKind::Postpass);
    // A double parameter copied through another variable forces moves.
    let src = "double g(double x) { double y; y = x; return y + y; }";
    let module = marion_frontend::compile(src).unwrap();
    let program = compiler.compile_module(&module).unwrap();
    let func = program.asm.func("g").expect("g");
    assert!(func.inst_count() > 0);
}
