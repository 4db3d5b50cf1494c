//! End-to-end tests of the Maril language features the paper
//! highlights: auxiliary latencies, packing classes, temporal
//! scheduling, delay slots and escapes — observed through the whole
//! compiler rather than unit-by-unit.

use marion::backend::{dag::build_dag, sched, select, Compiler, StrategyKind};
use marion::maril::Machine;

/// `%aux` must stretch the producer-consumer distance in real
/// schedules: storing a just-computed `fadd.d` result on TOYP costs 7
/// cycles instead of 6 (Figure 3's example).
#[test]
fn aux_latency_changes_schedules() {
    let spec = marion::machines::load("toyp");
    let src = "double a, b, c;
               void f() { c = a + b; }";
    let module = marion::frontend::compile(src).unwrap();
    let mut func = module.funcs[0].clone();
    marion::backend::glue::apply_glue(&spec.machine, &mut func).unwrap();
    let code = select::select_func(&spec.machine, &spec.escapes, &module, &func).unwrap();
    // Find the block with fadd.d followed by st.d of its result.
    let fadd = spec.machine.template_by_mnemonic("fadd.d").unwrap();
    let st = spec.machine.template_by_mnemonic("st.d").unwrap();
    let mut found = false;
    for block in &code.blocks {
        let fi = block.insts.iter().position(|i| i.template == fadd);
        let si = block.insts.iter().position(|i| i.template == st);
        if let (Some(fi), Some(si)) = (fi, si) {
            let dag = build_dag(&spec.machine, block, true);
            let sch = sched::schedule_block(&spec.machine, &code, block, &dag, &Default::default())
                .unwrap();
            assert!(
                sch.inst_cycle[si] >= sch.inst_cycle[fi] + 7,
                "aux latency (7) not honoured: fadd at {}, st at {}",
                sch.inst_cycle[fi],
                sch.inst_cycle[si]
            );
            found = true;
        }
    }
    assert!(found, "expected an fadd.d/st.d pair");
}

/// Two sub-operations pack only when their classes intersect: an i860
/// `A1` (class ⊇ {pfadd, m12apm, ...}) and `S1` (class ⊇ {pfsub, ...})
/// can never share a word, while `A1` and `M1` can (via `m12apm`).
#[test]
fn packing_classes_restrict_words() {
    let m = marion::machines::i860::load();
    let class_of = |mnem: &str| {
        let t = m.template_by_mnemonic(mnem).unwrap();
        m.class(m.template(t).class.unwrap()).elements
    };
    assert!(class_of("A1").intersects(&class_of("M1")));
    assert!(!class_of("A1").intersects(&class_of("S1")));
    assert!(class_of("A1m").intersects(&class_of("M2")));
}

/// Branch delay slots are filled with `nop`s (§4.4) — count them in an
/// emitted function with branches on a 1-slot machine.
#[test]
fn delay_slots_filled_with_nops() {
    let spec = marion::machines::load("r2000");
    let src = "int f(int n) {
        int s = 0, i;
        for (i = 0; i < n; i++) if (i % 3 == 0) s += i;
        return s;
    }";
    let module = marion::frontend::compile(src).unwrap();
    let compiler = Compiler::new(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).unwrap();
    let func = program.asm.func("f").unwrap();
    let nop = spec.machine.nop_template().unwrap();
    // Every control word must be followed (in its block or the layout)
    // by something — and at least one nop should exist somewhere,
    // since tight loop branches rarely find fillers for every slot.
    let words: Vec<_> = func.blocks.iter().flat_map(|b| b.words()).collect();
    let mut after_branch_ok = true;
    for (i, w) in words.iter().enumerate() {
        let slots: u32 = w
            .insts()
            .filter(|inst| spec.machine.template(inst.template).effects.is_control())
            .map(|inst| spec.machine.template(inst.template).slots.unsigned_abs())
            .max()
            .unwrap_or(0);
        for s in 1..=slots {
            if i + s as usize >= words.len() {
                after_branch_ok = false;
            }
        }
    }
    assert!(after_branch_ok, "a control word is missing its delay slot");
    let nops = words
        .iter()
        .flat_map(|w| w.insts())
        .filter(|i| i.template == nop)
        .count();
    assert!(nops > 0, "expected nop-filled delay slots");
}

/// The same Maril text always compiles to the same machine.
#[test]
fn description_compilation_is_deterministic() {
    let a = Machine::parse("t", marion::machines::r2000::text()).unwrap();
    let b = Machine::parse("t", marion::machines::r2000::text()).unwrap();
    assert_eq!(a, b);
}

/// Escapes really expand: a double register copy on TOYP becomes two
/// `[s.movs]`-labelled single moves (paper §3.4).
#[test]
fn toyp_movd_escape_expands_to_half_moves() {
    let spec = marion::machines::load("toyp");
    let src = "double g(double x) { double y; y = x; return y; }";
    let module = marion::frontend::compile(src).unwrap();
    let compiler = Compiler::new(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).unwrap();
    let smovs = spec.machine.template_by_label("s.movs").unwrap();
    let count = program
        .asm
        .func("g")
        .unwrap()
        .blocks
        .iter()
        .flat_map(|b| b.words())
        .flat_map(|w| w.insts())
        .filter(|i| i.template == smovs)
        .count();
    assert!(count >= 2, "expected pairs of single moves, found {count}");
    assert_eq!(count % 2, 0, "half-moves must come in pairs");
}

/// The generic compare `::` + glue covers all six relations on every
/// machine: each relation both taken and not taken.
#[test]
fn all_comparisons_work_everywhere() {
    let src = "int main() {
        int a = 5, b = 9, s = 0;
        double x = 1.5, y = 2.5;
        if (a == 5) s += 1;
        if (a != b) s += 2;
        if (a < b) s += 4;
        if (a <= 5) s += 8;
        if (b > a) s += 16;
        if (b >= 9) s += 32;
        if (x < y) s += 64;
        if (y >= 2.5) s += 128;
        if (x == 1.5) s += 256;
        if (x != y) s += 512;
        if (b < a) s += 1024;
        if (y <= x) s += 2048;
        return s;
    }";
    let module = marion::frontend::compile(src).unwrap();
    for name in marion::machines::ALL {
        let spec = marion::machines::load(name);
        let compiler = Compiler::new(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Postpass,
        );
        let program = compiler.compile_module(&module).unwrap();
        let run = marion::sim::run_program(
            &spec.machine,
            &program,
            "main",
            &[],
            Some(marion::maril::Ty::Int),
            &marion::sim::SimConfig::default(),
        )
        .unwrap();
        assert_eq!(
            run.result,
            Some(marion::sim::Value::I(1023)),
            "comparison semantics broken on {name}"
        );
    }
}

/// The §4.4 optional pass: delay slots get useful instructions when a
/// safe candidate exists, and the filled program still computes the
/// right answer (covered globally by the differential tests; here we
/// check the filler actually fires).
#[test]
fn delay_slot_filler_replaces_some_nops() {
    let spec = marion::machines::load("r2000");
    // A loop with independent work before the back-branch gives the
    // filler candidates.
    let src = "int a[32];
        int f() {
            int i, s = 0, t = 0;
            for (i = 0; i < 32; i++) { a[i] = i * 3; t += 2; }
            return s + t;
        }";
    let module = marion::frontend::compile(src).unwrap();
    let compiler = Compiler::new(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).unwrap();
    assert!(
        program.stats.delay_slots_filled > 0,
        "filler never fired:\n{}",
        program.render(&spec.machine)
    );
}

/// The i860's single floating write-back bus: MWB and AWB share the
/// FWB resource, so two write-backs can never issue in one cycle —
/// the structural hazard model of §4.3.
#[test]
fn i860_shared_writeback_bus_serialises() {
    use marion::backend::{dag::build_dag, select::select_func};
    let spec = marion::machines::load("i860");
    // Two independent multiplies and two independent adds: four
    // pipeline results all wanting the write-back bus.
    let src = "double a, b, c, d2, e, f, g, h;
               void k() { e = a * b; f = c * d2; g = a + c; h = b + d2; }";
    let mut module = marion::frontend::compile(src).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    let mut func = module.funcs[0].clone();
    marion::backend::glue::apply_glue(&spec.machine, &mut func).unwrap();
    let code = select_func(&spec.machine, &spec.escapes, &module, &func).unwrap();
    let mwb = spec.machine.template_by_mnemonic("MWB").unwrap();
    let awb = spec.machine.template_by_mnemonic("AWB").unwrap();
    for block in &code.blocks {
        let wbs: Vec<usize> = block
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.template == mwb || i.template == awb)
            .map(|(i, _)| i)
            .collect();
        if wbs.len() < 2 {
            continue;
        }
        let dag = build_dag(&spec.machine, block, true);
        let s =
            sched::schedule_block(&spec.machine, &code, block, &dag, &Default::default()).unwrap();
        for (i, &a) in wbs.iter().enumerate() {
            for &b in &wbs[i + 1..] {
                assert_ne!(
                    s.inst_cycle[a], s.inst_cycle[b],
                    "two write-backs shared the FWB bus in one cycle"
                );
            }
        }
        return;
    }
    panic!("expected a block with several write-backs");
}

/// A `%glue` *value* rule end to end: TOYP strength-reduces `x * 2`
/// into `x + x` before selection, avoiding the 5-cycle multiplier.
#[test]
fn glue_value_rule_strength_reduces_on_toyp() {
    let spec = marion::machines::load("toyp");
    let src = "int f(int x) { return x * 2; }
               int g(int x) { return x * 3; }";
    let module = marion::frontend::compile(src).unwrap();
    let compiler = Compiler::new(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
    );
    let program = compiler.compile_module(&module).unwrap();
    let mul = spec.machine.template_by_mnemonic("mul").unwrap();
    let count_mnemonic = |name: &str, t| {
        program
            .asm
            .func(name)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| b.words())
            .flat_map(|w| w.insts())
            .filter(|i| i.template == t)
            .count()
    };
    assert_eq!(count_mnemonic("f", mul), 0, "x*2 should become x+x");
    assert_eq!(count_mnemonic("g", mul), 1, "x*3 keeps the multiply");
    // And the rewritten code is still correct.
    let run = marion::sim::run_program(
        &spec.machine,
        &program,
        "f",
        &[marion::sim::Value::I(21)],
        Some(marion::maril::Ty::Int),
        &marion::sim::SimConfig::default(),
    )
    .unwrap();
    assert_eq!(run.result, Some(marion::sim::Value::I(42)));
}
