//! The trace must agree with the compiler's own statistics: for every
//! function, the JSONL-visible counters equal the `CompileStats`
//! per-function breakdown, on a tiny machine (TOYP, where spills are
//! easy to provoke) and a real one (R2000). Also covers the
//! reservation tables of the dual-issue i860's final schedules and the
//! JSONL round trip of a whole compile trace.

use marion::backend::{sched, CompileOptions, Compiler, StrategyKind};
use marion::trace::{TraceConfig, TraceData, Tracer};

/// Enough simultaneously-live values to exceed TOYP's five allocable
/// integer registers, plus a call and branches for delay slots.
const PRESSURE: &str = "
int leaf(int x) { return x + 1; }
int main() {
    int a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    int i;
    for (i = 0; i < 4; i++) {
        a += b * c; b += c * d; c += d * e; d += e * f;
        e += f * g; f += g * h; g += h * a; h += a * b;
    }
    return leaf(a + b + c + d + e + f + g + h);
}
";

fn compile_traced(machine: &str, strategy: StrategyKind) -> marion::backend::CompiledProgram {
    let module = marion::frontend::compile(PRESSURE).unwrap();
    let spec = marion::machines::load(machine);
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        strategy,
        CompileOptions {
            trace: Some(TraceConfig::default()),
            ..CompileOptions::default()
        },
    );
    compiler.compile_module(&module).unwrap()
}

fn assert_trace_matches_stats(machine: &str, strategy: StrategyKind) {
    let program = compile_traced(machine, strategy);
    let trace = program.trace.as_ref().expect("tracing was on");
    assert_eq!(program.stats.per_func.len(), 2, "leaf and main");
    for (fs, func) in program.stats.per_func.iter().zip(&program.asm.funcs) {
        let ctx = format!("{machine}/{}", func.name);
        for (counter, expected) in [
            ("insts_generated", fs.insts_generated as i64),
            ("spills", fs.spills as i64),
            ("delay_slots_filled", fs.delay_slots_filled as i64),
            ("schedule_passes", fs.schedule_passes as i64),
            ("estimated_cycles", fs.estimated_cycles as i64),
            ("nops_emitted", fs.nops_emitted as i64),
        ] {
            // A counter that was never bumped (e.g. spills == 0) may
            // be absent from the trace; that still means zero.
            let got = trace.counter(&ctx, counter).unwrap_or(0);
            assert_eq!(
                got, expected,
                "{ctx}: trace {counter} = {got}, stats say {expected}"
            );
        }
    }
    // The aggregate equals the sum of the per-function breakdown.
    let per_func_insts: usize = program
        .stats
        .per_func
        .iter()
        .map(|f| f.insts_generated)
        .sum();
    assert_eq!(program.stats.insts_generated, per_func_insts);
    let per_func_spills: usize = program.stats.per_func.iter().map(|f| f.spills).sum();
    assert_eq!(program.stats.spills, per_func_spills);
    // Phase spans exist for every function.
    let spans = trace.span_totals();
    for phase in ["compile_func", "glue", "select", "strategy", "emit"] {
        assert_eq!(spans[phase].count, 2, "{phase} spans");
    }
}

#[test]
fn trace_counters_match_stats_on_toyp() {
    // TOYP has 5 allocable integer registers: PRESSURE must spill, so
    // the spills counter is exercised with a non-zero value.
    let program = compile_traced("toyp", StrategyKind::Postpass);
    assert!(
        program.stats.spills > 0,
        "PRESSURE should spill on TOYP (got {} spills)",
        program.stats.spills
    );
    assert_trace_matches_stats("toyp", StrategyKind::Postpass);
}

#[test]
fn trace_counters_match_stats_on_r2000() {
    assert_trace_matches_stats("r2000", StrategyKind::Ips);
    assert_trace_matches_stats("r2000", StrategyKind::Rase);
}

#[test]
fn delay_slot_filling_respects_compile_options() {
    let module = marion::frontend::compile(PRESSURE).unwrap();
    let spec = marion::machines::load("r2000");
    let unfilled = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
        CompileOptions {
            fill_delay_slots: false,
            ..CompileOptions::default()
        },
    )
    .compile_module(&module)
    .unwrap();
    assert_eq!(unfilled.stats.delay_slots_filled, 0);
    assert!(unfilled.trace.is_none());
    let filled = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Postpass,
        CompileOptions {
            fill_delay_slots: true,
            ..CompileOptions::default()
        },
    )
    .compile_module(&module)
    .unwrap();
    assert!(
        filled.stats.delay_slots_filled > 0,
        "R2000 branches have delay slots to fill"
    );
    assert!(
        filled.stats.nops_emitted < unfilled.stats.nops_emitted,
        "filling must remove nops ({} vs {})",
        filled.stats.nops_emitted,
        unfilled.stats.nops_emitted
    );
}

#[test]
fn reservation_tables_recorded_for_dual_issue_i860() {
    let mut module = marion::frontend::compile(PRESSURE).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    let spec = marion::machines::load("i860");
    let compiler = Compiler::new(spec.machine, spec.escapes, StrategyKind::Postpass);
    let machine = compiler.machine();
    let mut blocks = 0usize;
    for f in &module.funcs {
        let compiled = compiler.compile_func(&module, f, &Tracer::off()).unwrap();
        for (block, schedule) in compiled.code.blocks.iter().zip(&compiled.schedules) {
            if block.insts.is_empty() {
                continue;
            }
            let table = sched::reservation_rows(machine, block, schedule).join("\n");
            // Header plus at least one cycle row, mentioning a resource.
            assert!(table.lines().count() >= 2, "thin table:\n{table}");
            assert!(table.contains("cycle |"), "missing header:\n{table}");
            // The schedule's metrics carry the DAG shape.
            let m = &schedule.metrics;
            assert!(m.dag_nodes > 0);
            assert_eq!(m.issue_slots_used, block.insts.len());
            assert!(m.issue_cycles <= schedule.length as usize);
            assert!(m.ready_high_water >= 1);
            blocks += 1;
        }
    }
    assert!(blocks > 0, "no reservation tables built");
}

#[test]
fn compile_trace_round_trips_through_jsonl() {
    let program = compile_traced("r2000", StrategyKind::Ips);
    let trace = program.trace.unwrap();
    let jsonl = trace.to_jsonl();
    let parsed = TraceData::parse_jsonl(&jsonl).unwrap();
    assert_eq!(parsed, trace);
    // Spot-check against the stats through the serialised form too.
    assert_eq!(
        parsed.counter_total("insts_generated"),
        program.stats.insts_generated as i64
    );
    assert_eq!(parsed.counter_total("spills"), program.stats.spills as i64);
}
