//! Every spill round the register allocator runs on the 18 evaluation
//! programs, on the 5 bundled machines under all three strategies,
//! must leave the function exactly as spilling the round's vregs one
//! at a time with the per-vreg reference rewrite would: the same
//! instructions in the same order, the same temporaries and the same
//! slots.
//!
//! The comparison runs inside `regalloc::allocate`: in a debug build
//! it re-spills a copy of the function with the reference after every
//! round and panics on any difference (`regalloc.rs`,
//! `spill_reference`). The bundled machines' escape functions live in
//! `marion-machines`, which depends on `marion-core`, so core's own
//! unit tests cannot compile this matrix; this test compiles it and
//! makes sure rounds actually ran. Those unit tests cover random
//! functions and whole `AllocResult`s.

use marion::backend::driver::materialize_float_constants;
use marion::backend::{Compiler, StrategyKind};
use marion::workloads::{livermore, suite};

#[test]
fn spill_rounds_match_the_per_vreg_reference_on_the_evaluation_matrix() {
    if !cfg!(debug_assertions) {
        eprintln!("release build: allocate checks spill rounds only with debug assertions on");
        return;
    }
    let mut programs = livermore::kernels();
    programs.extend(suite::programs());
    assert_eq!(programs.len(), 18);
    let mut spilled_combos = 0;
    let mut spills = 0;
    for name in marion::machines::EXTENDED {
        for strategy in StrategyKind::ALL {
            let spec = marion::machines::load(name);
            let compiler = Compiler::new(spec.machine, spec.escapes, strategy);
            let mut combo_spills = 0;
            for w in &programs {
                let mut module = w.module();
                materialize_float_constants(&mut module);
                let program = compiler
                    .compile_module(&module)
                    .unwrap_or_else(|e| panic!("{name}/{strategy:?}/{}: {e}", w.name));
                combo_spills += program.stats.spills;
            }
            spills += combo_spills;
            spilled_combos += usize::from(combo_spills > 0);
        }
    }
    // Every combination spills today (2052 vregs in all, 1813 of them
    // on TOYP); the bound leaves room for a better allocator.
    assert!(
        spilled_combos >= 10 && spills >= 500,
        "too little spilling to exercise the check: {spills} spills in \
         {spilled_combos} machine x strategy combinations"
    );
}
