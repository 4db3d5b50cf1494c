//! marion-explain — why did the scheduler do that?
//!
//! Compiles a source file for one bundled machine, then prints a
//! per-block cycle-by-cycle narrative of the schedule: what issued
//! each cycle, what was ready but stalled (and on which dependence
//! edge, resource, packing class, temporal clock or pressure limit it
//! waited), each instruction's ready/earliest/issue cycles, the
//! per-reason stall histogram, the DAG critical path, and — after the
//! blocks — the delay-slot fill provenance (which instruction moved
//! into which branch's slot, per §4.4). The placement records come
//! from `sched::explain_schedule`, which re-runs the scheduler with
//! recording on; every replay is re-audited with `audit_schedule`, an
//! independent legality checker that also validates the recorded
//! provenance — the tool refuses to explain a schedule it cannot
//! prove.
//!
//! Usage:
//!
//! ```text
//! marion-explain MACHINE FILE.c [--strategy postpass|ips|rase] [--dot] [--check]
//! marion-explain MACHINE FILE.c --compare [FUNC]
//! marion-explain --demo [--dot] [--check] [--compare]
//! ```
//!
//! * `--dot` — after each function, also emit the annotated Graphviz
//!   code DAG (issue cycles, edge kinds, critical path in red, stall
//!   reasons as tooltips) for its largest block;
//! * `--check` — exit non-zero unless every block passes
//!   `audit_schedule` and every emitted DOT is well-formed (used by
//!   CI);
//! * `--compare` — compile each function (or just `FUNC`) under all
//!   three strategies, align the per-instruction placement records by
//!   mnemonic occurrence, and print a stall-diff table: where each
//!   strategy placed the same instruction, how long it stalled and on
//!   what, plus a per-reason totals matrix;
//! * `--demo` — a built-in dot-product kernel on TOYP (latency
//!   stalls) and the dual-issue i860 (packing and temporal stalls).

use marion_core::explain;
use marion_core::sched;
use marion_core::strategy::strategy_for;
use marion_core::{CodeBlock, CodeFunc, StrategyKind};
use marion_maril::Machine;
use marion_trace::Tracer;
use std::collections::BTreeMap;

const DEMO_SRC: &str = "int a[64]; int b[64];
int main() {
    int i; int s = 0;
    for (i = 0; i < 64; i++) s = s + a[i] * b[i];
    return s;
}";

fn usage() -> ! {
    eprintln!("usage: marion-explain MACHINE FILE.c [--strategy NAME] [--dot] [--check]");
    eprintln!("       marion-explain MACHINE FILE.c --compare [FUNC]");
    eprintln!("       marion-explain --demo [--dot] [--check] [--compare]");
    eprintln!("machines: {:?}", marion_machines::EXTENDED);
    std::process::exit(2);
}

struct Options {
    dot: bool,
    check: bool,
    limit: Option<usize>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let opts = Options {
        dot: args.iter().any(|a| a == "--dot"),
        check: args.iter().any(|a| a == "--check"),
        limit: args
            .iter()
            .position(|a| a == "--blocks")
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok()),
    };
    // `--compare [FUNC]`: the optional FUNC rides directly after the
    // flag, so it must not be mistaken for a positional MACHINE/FILE.
    let compare_at = args.iter().position(|a| a == "--compare");
    let compare_func: Option<String> = compare_at
        .and_then(|p| args.get(p + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned();
    let value_positions: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--blocks" || *a == "--compare")
        .filter_map(|(i, _)| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .map(|_| i + 1)
        })
        .collect();
    let mut failures = 0usize;
    if args[0] == "--demo" {
        for machine in ["toyp", "i860"] {
            println!("==== {machine} (demo dot-product) ====");
            if compare_at.is_some() {
                failures += compare_source(machine, DEMO_SRC, compare_func.as_deref());
            } else {
                failures += explain_source(machine, DEMO_SRC, &opts);
            }
        }
    } else {
        let positional: Vec<&String> = args
            .iter()
            .enumerate()
            .filter(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
            .map(|(_, a)| a)
            .collect();
        let (machine, path) = match positional.as_slice() {
            [m, p, ..] => (m.as_str(), p.as_str()),
            _ => usage(),
        };
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("marion-explain: cannot read {path}: {e}");
            std::process::exit(1);
        });
        if compare_at.is_some() {
            failures += compare_source(machine, &src, compare_func.as_deref());
        } else {
            failures += explain_source(machine, &src, &opts);
        }
    }
    if opts.check {
        if failures > 0 {
            eprintln!("marion-explain: {failures} check failure(s)");
            std::process::exit(1);
        }
        println!("all checks passed");
    }
}

/// Compiles `src` for `machine`, explains every scheduled block and
/// returns the number of check failures.
fn explain_source(machine_name: &str, src: &str, opts: &Options) -> usize {
    let spec = marion_machines::load(machine_name);
    let machine = &spec.machine;
    let mut module = marion_frontend::compile(src).unwrap_or_else(|e| {
        eprintln!("marion-explain: {e}");
        std::process::exit(1);
    });
    marion_core::driver::materialize_float_constants(&mut module);
    let mut failures = 0usize;
    for f in &module.funcs {
        let mut f = f.clone();
        if let Err(e) = marion_core::glue::apply_glue(machine, &mut f) {
            eprintln!("marion-explain: glue {}: {e}", f.name);
            failures += 1;
            continue;
        }
        let mut code = match marion_core::select::select_func(machine, &spec.escapes, &module, &f) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("marion-explain: select {}: {e}", f.name);
                failures += 1;
                continue;
            }
        };
        // Postpass-style: allocate, then schedule the allocated code —
        // what the explanation describes is then the final schedule.
        if let Err(e) = marion_core::regalloc::allocate(machine, &mut code, &Default::default()) {
            eprintln!(
                "marion-explain: allocation failed for {}: {e} (skipped)",
                f.name
            );
            continue;
        }
        println!("function {} ({} blocks)", f.name, code.blocks.len());
        failures += explain_func(machine, &code, opts);
    }
    failures
}

/// One strategy's placements for a function, keyed for alignment by
/// `(block, mnemonic, occurrence)` — the same source instruction keeps
/// that key across strategies even when register allocation renames
/// operands or inserts spill code around it.
struct StrategyPlacements {
    name: &'static str,
    total_length: u64,
    total_stalls: u64,
    reason_totals: BTreeMap<&'static str, u64>,
    /// key -> (issue cycle, stalled cycles, dominant reason).
    by_key: BTreeMap<(usize, String, usize), (u32, u32, &'static str)>,
}

/// Runs one strategy over a freshly selected copy of `func` and
/// collects its aligned placements. `None` when any stage fails (the
/// failure is reported).
fn placements_for(
    machine: &Machine,
    escapes: &marion_core::EscapeRegistry,
    module: &marion_ir::Module,
    func: &marion_ir::Function,
    kind: StrategyKind,
) -> Option<StrategyPlacements> {
    let mut f = func.clone();
    if let Err(e) = marion_core::glue::apply_glue(machine, &mut f) {
        eprintln!("marion-explain: glue {}: {e}", f.name);
        return None;
    }
    let mut code = match marion_core::select::select_func(machine, escapes, module, &f) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("marion-explain: select {}: {e}", f.name);
            return None;
        }
    };
    let strategy = strategy_for(kind);
    let tracer = Tracer::off();
    let schedules = match strategy.run(machine, &mut code, &tracer, "compare") {
        Ok((schedules, _)) => schedules,
        Err(e) => {
            eprintln!("marion-explain: {} on {}: {e}", kind.name(), f.name);
            return None;
        }
    };
    let mut out = StrategyPlacements {
        name: kind.name(),
        total_length: 0,
        total_stalls: 0,
        reason_totals: BTreeMap::new(),
        by_key: BTreeMap::new(),
    };
    for (bi, (block, schedule)) in code.blocks.iter().zip(&schedules).enumerate() {
        // Every strategy's final pass runs with default options.
        let schedule =
            match sched::explain_schedule(machine, &code, block, schedule, &Default::default()) {
                Ok(replay) => replay,
                Err(e) => {
                    eprintln!("marion-explain: {} on {}/b{bi}: {e}", kind.name(), f.name);
                    return None;
                }
            };
        out.total_length += schedule.length as u64;
        out.total_stalls += schedule.explanation.stalls.total();
        for (key, cycles) in schedule.explanation.stalls.as_pairs() {
            if cycles > 0 {
                *out.reason_totals.entry(key).or_insert(0) += cycles;
            }
        }
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for record in &schedule.explanation.records {
            let Some(inst) = block.insts.get(record.inst) else {
                continue;
            };
            let mnemonic = machine.template(inst.template).mnemonic.as_str();
            let occurrence = seen.entry(mnemonic).or_insert(0);
            let dominant = record
                .stalls
                .iter()
                .max_by_key(|s| s.cycles)
                .map(|s| s.reason.key())
                .unwrap_or("-");
            out.by_key.insert(
                (bi, mnemonic.to_string(), *occurrence),
                (record.issue_cycle, record.stall_cycles(), dominant),
            );
            *occurrence += 1;
        }
    }
    Some(out)
}

/// Compiles every function (or just `func_filter`) once per strategy
/// and prints the aligned stall-diff tables. Returns the number of
/// functions that failed under some strategy.
fn compare_source(machine_name: &str, src: &str, func_filter: Option<&str>) -> usize {
    let spec = marion_machines::load(machine_name);
    let machine = &spec.machine;
    let mut module = marion_frontend::compile(src).unwrap_or_else(|e| {
        eprintln!("marion-explain: {e}");
        std::process::exit(1);
    });
    marion_core::driver::materialize_float_constants(&mut module);
    let mut failures = 0usize;
    let mut matched = false;
    for f in &module.funcs {
        if func_filter.is_some_and(|want| want != f.name) {
            continue;
        }
        matched = true;
        let all: Vec<StrategyPlacements> = StrategyKind::ALL
            .iter()
            .filter_map(|&kind| placements_for(machine, &spec.escapes, &module, f, kind))
            .collect();
        if all.len() != StrategyKind::ALL.len() {
            failures += 1;
            continue;
        }
        println!("function {} — strategy comparison", f.name);
        println!(
            "  {:<24} {}",
            "totals",
            all.iter()
                .map(|s| format!("{:<22}", s.name))
                .collect::<String>()
        );
        println!(
            "  {:<24} {}",
            "schedule length",
            all.iter()
                .map(|s| format!("{:<22}", s.total_length))
                .collect::<String>()
        );
        println!(
            "  {:<24} {}",
            "stall cycles",
            all.iter()
                .map(|s| format!("{:<22}", s.total_stalls))
                .collect::<String>()
        );
        // Per-reason totals matrix.
        let mut reasons: Vec<&'static str> = all
            .iter()
            .flat_map(|s| s.reason_totals.keys().copied())
            .collect();
        reasons.sort_unstable();
        reasons.dedup();
        for reason in reasons {
            println!(
                "  {:<24} {}",
                format!("stall[{reason}]"),
                all.iter()
                    .map(|s| {
                        format!("{:<22}", s.reason_totals.get(reason).copied().unwrap_or(0))
                    })
                    .collect::<String>()
            );
        }
        // Per-instruction diff rows: the union of aligned keys, in
        // block/occurrence order; `issue@N +S(reason)` per strategy,
        // `-` where the strategy has no matching instruction (e.g.
        // spill code another allocator did not need).
        let mut keys: Vec<&(usize, String, usize)> =
            all.iter().flat_map(|s| s.by_key.keys()).collect();
        keys.sort();
        keys.dedup();
        println!("  per-instruction placements (issue@cycle +stall(reason)):");
        for key in keys {
            let (bi, mnemonic, occurrence) = key;
            let cells: String = all
                .iter()
                .map(|s| match s.by_key.get(key) {
                    Some((issue, 0, _)) => format!("{:<22}", format!("@{issue}")),
                    Some((issue, stall, reason)) => {
                        format!("{:<22}", format!("@{issue} +{stall}({reason})"))
                    }
                    None => format!("{:<22}", "-"),
                })
                .collect();
            println!(
                "    b{bi:<3} {:<18} {cells}",
                format!("{mnemonic}#{occurrence}")
            );
        }
        println!();
    }
    if !matched {
        if let Some(want) = func_filter {
            eprintln!("marion-explain: no function named `{want}`");
            return 1;
        }
    }
    failures
}

fn explain_func(machine: &Machine, code: &CodeFunc, opts: &Options) -> usize {
    let mut failures = 0usize;
    let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
    let mut biggest: Option<(usize, sched::Schedule)> = None;
    let mut explained = 0usize;
    // Every block gets a schedule (empty ones trivially) so the
    // function can be emitted afterwards for delay-slot provenance.
    let mut schedules: Vec<sched::Schedule> = Vec::with_capacity(code.blocks.len());
    let sched_opts = sched::SchedOptions::default();
    for (bi, block) in code.blocks.iter().enumerate() {
        let (schedule, discipline) =
            sched::schedule_block_robust(machine, code, block, &sched_opts);
        if block.insts.is_empty() {
            schedules.push(schedule);
            continue;
        }
        // Records come from a recording replay of the schedule.
        let schedule = match sched::explain_schedule(machine, code, block, &schedule, &sched_opts) {
            Ok(replay) => replay,
            Err(e) => {
                eprintln!("marion-explain: b{bi}: {e}");
                failures += 1;
                schedules.push(schedule);
                continue;
            }
        };
        failures += audit_block(machine, block, &schedule, bi);
        for (key, cycles) in schedule.explanation.stalls.as_pairs() {
            if cycles > 0 {
                *totals.entry(key).or_insert(0) += cycles;
            }
        }
        let show = opts.limit.is_none_or(|lim| explained < lim);
        if show {
            println!("block b{bi} (discipline {discipline}):");
            print!("{}", explain::explain_block_text(machine, block, &schedule));
            explained += 1;
        }
        if biggest
            .as_ref()
            .is_none_or(|(prev, _)| code.blocks[*prev].insts.len() < block.insts.len())
        {
            biggest = Some((bi, schedule.clone()));
        }
        schedules.push(schedule);
    }
    // Delay-slot fill provenance (§4.4): emit from the schedules just
    // explained and run the filler, naming which instruction moved
    // into which branch's slot.
    match marion_core::emit::emit_func(machine, code, &schedules) {
        Ok(mut emitted) => {
            let fills = marion_core::emit::fill_delay_slots(machine, &mut emitted);
            if fills.is_empty() {
                println!("delay slots: none filled");
            } else {
                println!("delay slots filled ({}):", fills.len());
                for f in &fills {
                    println!(
                        "  b{}: `{}` moved into slot {} of `{}`",
                        f.block, f.inst, f.slot, f.branch
                    );
                }
            }
        }
        Err(e) => {
            eprintln!("marion-explain: emit: {e}");
            failures += 1;
        }
    }
    if !totals.is_empty() {
        let mut ranked: Vec<(&str, u64)> = totals.into_iter().collect();
        ranked.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        let rendered: Vec<String> = ranked.iter().map(|(k, c)| format!("{k} {c}")).collect();
        println!("top stall reasons (cycles): {}", rendered.join(", "));
    }
    if let Some((bi, schedule)) = biggest {
        if opts.dot || opts.check {
            let block = &code.blocks[bi];
            let (dag, _) =
                explain::dag_for_discipline(machine, block, schedule.explanation.discipline);
            let dot = explain::dag_to_dot(
                machine,
                block,
                &dag,
                &schedule,
                &format!("{}/b{bi}", machine.name()),
            );
            if let Err(e) = explain::check_dot(&dot, &dag) {
                eprintln!("marion-explain: malformed DOT for b{bi}: {e}");
                failures += 1;
            }
            if opts.dot {
                print!("{dot}");
            }
        }
    }
    println!();
    failures
}

/// Audits one block's schedule against the DAG its discipline used
/// and reports any violation.
fn audit_block(
    machine: &Machine,
    block: &CodeBlock,
    schedule: &sched::Schedule,
    bi: usize,
) -> usize {
    let discipline = schedule.explanation.discipline;
    let (dag, check_rule1) = explain::dag_for_discipline(machine, block, discipline);
    match explain::audit_schedule(machine, block, &dag, schedule, check_rule1) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("marion-explain: b{bi}: {e}");
            1
        }
    }
}
