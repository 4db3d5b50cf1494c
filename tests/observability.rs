//! The trace must agree with the compiler's own statistics: for every
//! function, the JSONL-visible counters equal the `CompileStats`
//! per-function breakdown, on a tiny machine (TOYP, where spills are
//! easy to provoke) and a real one (R2000). Also covers the
//! reservation-table events on the dual-issue i860 and the JSONL
//! round trip of a whole compile trace, and that every narrative of a
//! final schedule replays and agrees with its block's stall counts.

use marion::backend::{CompileOptions, Compiler, StrategyKind};
use marion::trace::{Fields, TraceConfig, TraceData};

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

fn compile_traced(
    machine: &str,
    strategy: StrategyKind,
    reservation_tables: bool,
) -> marion::backend::CompiledProgram {
    let module = marion::frontend::compile(PRESSURE).unwrap();
    let spec = marion::machines::load(machine);
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        strategy,
        CompileOptions {
            trace: Some(TraceConfig {
                reservation_tables,
                explanations: false,
            }),
            ..CompileOptions::default()
        },
    );
    compiler.compile_module(&module).unwrap()
}

fn assert_trace_matches_stats(machine: &str, strategy: StrategyKind) {
    let program = compile_traced(machine, strategy, false);
    let trace = program.trace.as_ref().expect("tracing was on");
    assert_eq!(program.stats.per_func.len(), 2, "leaf and main");
    for fs in &program.stats.per_func {
        let ctx = format!("{machine}/{}", fs.name);
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
    let program = compile_traced("toyp", StrategyKind::Postpass, false);
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
    let program = compile_traced("i860", StrategyKind::Postpass, true);
    let trace = program.trace.as_ref().unwrap();
    let tables = trace.events_named("reservation_table");
    assert!(!tables.is_empty(), "no reservation tables recorded");
    for (ctx, fields) in &tables {
        assert!(ctx.starts_with("i860/"), "table ctx {ctx}");
        let table = fields.str("table").expect("table field");
        // Header plus at least one cycle row, mentioning a resource.
        assert!(table.lines().count() >= 2, "thin table:\n{table}");
        assert!(table.contains("cycle |"), "missing header:\n{table}");
    }
    // The per-block scheduler events carry the DAG shape.
    let blocks = trace.events_named("sched_block");
    assert!(!blocks.is_empty());
    for (_, fields) in &blocks {
        let get = |key: &str| fields.int(key).unwrap_or_else(|| panic!("missing {key}"));
        assert!(get("dag_nodes") > 0);
        assert!(get("issue_slots_used") == get("insts"));
        assert!(get("issue_cycles") <= get("length"));
        assert!(get("ready_high_water") >= 1);
    }
}

#[test]
fn compile_trace_round_trips_through_jsonl() {
    let program = compile_traced("r2000", StrategyKind::Ips, true);
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

/// The `key cycles` pairs of a narrative's `stall cycles by reason:`
/// line (absent when the block never stalled).
fn narrative_stalls(narrative: &str) -> Vec<(String, i64)> {
    let Some(line) = narrative
        .lines()
        .find_map(|l| l.trim().strip_prefix("stall cycles by reason: "))
    else {
        return Vec::new();
    };
    line.split(", ")
        .map(|pair| {
            let (key, cycles) = pair.split_once(' ').expect("`key cycles`");
            (key.to_string(), cycles.parse().expect("stall cycles"))
        })
        .collect()
}

#[test]
fn narratives_replay_every_final_schedule() {
    let kernels = marion::workloads::livermore::kernels();
    let mut sources = vec![PRESSURE.to_string()];
    sources.extend(
        kernels
            .iter()
            .filter(|k| ["LL7", "LL8"].contains(&k.name.as_str()))
            .map(|k| k.source.clone()),
    );
    assert_eq!(sources.len(), 3);
    let (mut narratives, mut stalled) = (0usize, 0usize);
    for machine in ["toyp", "i860"] {
        let spec = marion::machines::load(machine);
        for strategy in StrategyKind::ALL
            .into_iter()
            .chain([StrategyKind::NoSchedule])
        {
            for src in &sources {
                let module = marion::frontend::compile(src).unwrap();
                let compiler = Compiler::with_options(
                    spec.machine.clone(),
                    spec.escapes.clone(),
                    strategy,
                    CompileOptions {
                        trace: Some(TraceConfig {
                            reservation_tables: false,
                            explanations: true,
                        }),
                        ..CompileOptions::default()
                    },
                );
                let program = compiler.compile_module(&module).unwrap();
                let trace = program.trace.as_ref().unwrap();
                let blocks = trace.events_named("sched_block");
                let explains = trace.events_named("sched_explain");
                assert!(!explains.is_empty(), "{machine} {strategy}: no narratives");
                assert_eq!(explains.len(), blocks.len(), "{machine} {strategy}");
                for (ctx, fields) in &explains {
                    let what = format!("{machine} {strategy} {ctx}");
                    let text = fields.str("narrative").expect("narrative field");
                    assert!(!text.starts_with("no narrative"), "{what}: {text}");
                    let [(_, block)] =
                        blocks.iter().filter(|(c, _)| c == ctx).collect::<Vec<_>>()[..]
                    else {
                        panic!("{what}: not one sched_block event");
                    };
                    // The replay's records tell the same story as the
                    // hot path's counts.
                    let stalls = narrative_stalls(text);
                    for (key, cycles) in &stalls {
                        let field = format!("stall_{key}");
                        assert_eq!(block.int(&field), Some(*cycles), "{what}: {key}");
                    }
                    let total: i64 = stalls.iter().map(|(_, c)| c).sum();
                    assert_eq!(block.int("stall_total"), Some(total), "{what}: total");
                    narratives += 1;
                    stalled += usize::from(total > 0);
                }
            }
        }
    }
    assert!(
        stalled > 0 && stalled < narratives,
        "{stalled} of {narratives} stalled"
    );
}
