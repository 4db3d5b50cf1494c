//! marion-explain — why did the scheduler do that?
//!
//! Compiles a source file for one bundled machine under one strategy
//! (Postpass unless `--strategy` names another), then prints a
//! per-block cycle-by-cycle narrative of each final schedule: what issued
//! each cycle, what was ready but stalled (and on which dependence
//! edge, resource, packing class, temporal clock or pressure limit it
//! waited), each instruction's ready/earliest/issue cycles, the
//! per-reason stall histogram, the DAG critical path, then the block's
//! reservation table (cycles × resource vector, §4.3), and — after the
//! blocks — the delay-slot fill provenance (which instruction moved
//! into which branch's slot, per §4.4). Each function is compiled by
//! `Compiler::compile_func`, the driver's own per-function pipeline.
//! The placement records come from `explain::audited_replay`, which
//! re-runs the scheduler with recording on and re-audits the replay
//! with `audit_schedule`, an independent legality checker that also
//! validates the recorded provenance — the tool refuses to explain a
//! schedule it cannot prove.
//!
//! Usage:
//!
//! ```text
//! marion-explain MACHINE FILE.c [--strategy postpass|ips|rase] [--blocks N] [--dot] [--check]
//! marion-explain MACHINE FILE.c --compare [FUNC]
//! marion-explain --demo [--strategy NAME] [--blocks N] [--dot] [--check] [--compare]
//! ```
//!
//! * `--strategy` — the strategy whose final schedules are explained
//!   (`postpass`, `ips`, `rase` or `nosched`; default `postpass`);
//! * `--blocks N` — narrate only the first `N` non-empty blocks of each
//!   function (all are still audited);
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

use marion_bench::{out, outln};
use marion_core::dag::CodeDag;
use marion_core::sched::{self, Schedule};
use marion_core::{audited_replay, explain, CompiledFunc, Compiler, StrategyKind};
use marion_ir::{Function, Module};
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
    eprintln!(
        "usage: marion-explain MACHINE FILE.c [--strategy NAME] [--blocks N] [--dot] [--check]"
    );
    eprintln!("       marion-explain MACHINE FILE.c --compare [FUNC]");
    eprintln!(
        "       marion-explain --demo [--strategy NAME] [--blocks N] [--dot] [--check] [--compare]"
    );
    eprintln!("machines: {:?}", marion_machines::EXTENDED);
    std::process::exit(2);
}

struct Options {
    dot: bool,
    check: bool,
    limit: Option<usize>,
    strategy: StrategyKind,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let strategy = match args.iter().position(|a| a == "--strategy") {
        None => StrategyKind::Postpass,
        Some(p) => args
            .get(p + 1)
            .and_then(|name| StrategyKind::parse(name))
            .unwrap_or_else(|| {
                eprintln!("marion-explain: --strategy takes postpass, ips, rase or nosched");
                usage()
            }),
    };
    let opts = Options {
        dot: args.iter().any(|a| a == "--dot"),
        check: args.iter().any(|a| a == "--check"),
        limit: args.iter().position(|a| a == "--blocks").map(|p| {
            args.get(p + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("marion-explain: --blocks takes a number of blocks");
                    usage()
                })
        }),
        strategy,
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
        .filter(|(_, a)| ["--blocks", "--compare", "--strategy"].contains(&a.as_str()))
        .filter_map(|(i, _)| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .map(|_| i + 1)
        })
        .collect();
    let mut failures = 0usize;
    if args[0] == "--demo" {
        for machine in ["toyp", "i860"] {
            outln!("==== {machine} (demo dot-product) ====");
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
        outln!("all checks passed");
    }
}

/// `src` compiled to IR with its float constants materialised, as
/// `Compiler::compile_func` needs it; a front-end error exits 1.
fn module_of(src: &str) -> Module {
    let mut module = marion_frontend::compile(src).unwrap_or_else(|e| {
        eprintln!("marion-explain: {e}");
        std::process::exit(1);
    });
    marion_core::driver::materialize_float_constants(&mut module);
    module
}

/// Compiles `src` for `machine` under `opts.strategy`, explains every
/// final schedule and returns the number of check failures.
fn explain_source(machine_name: &str, src: &str, opts: &Options) -> usize {
    let spec = marion_machines::load(machine_name);
    let compiler = Compiler::new(spec.machine, spec.escapes, opts.strategy);
    let module = module_of(src);
    let mut failures = 0usize;
    for f in &module.funcs {
        match compiler.compile_func(&module, f, &Tracer::off()) {
            Ok(compiled) => {
                outln!(
                    "function {} ({} blocks)",
                    f.name,
                    compiled.code.blocks.len()
                );
                failures += explain_func(compiler.machine(), &compiled, opts);
            }
            Err(e) => {
                eprintln!("marion-explain: {}: {e}", f.name);
                failures += 1;
            }
        }
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

/// Compiles `func` with `compiler` and collects its strategy's
/// aligned placements. `None` when the compile or a replay fails (the
/// failure is reported).
fn placements_for(
    compiler: &Compiler,
    module: &Module,
    func: &Function,
) -> Option<StrategyPlacements> {
    let machine = compiler.machine();
    let kind = compiler.strategy();
    let f = match compiler.compile_func(module, func, &Tracer::off()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("marion-explain: {} on {}: {e}", kind.name(), func.name);
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
    for (bi, (block, schedule)) in f.code.blocks.iter().zip(&f.schedules).enumerate() {
        // Every strategy's final pass runs with default options.
        let schedule =
            match sched::explain_schedule(machine, &f.code, block, schedule, &Default::default()) {
                Ok(replay) => replay,
                Err(e) => {
                    eprintln!(
                        "marion-explain: {} on {}/b{bi}: {e}",
                        kind.name(),
                        func.name
                    );
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
    let compilers: Vec<Compiler> = StrategyKind::ALL
        .iter()
        .map(|&kind| Compiler::new(spec.machine.clone(), spec.escapes.clone(), kind))
        .collect();
    let module = module_of(src);
    let mut failures = 0usize;
    let mut matched = false;
    for f in &module.funcs {
        if func_filter.is_some_and(|want| want != f.name) {
            continue;
        }
        matched = true;
        let all: Vec<StrategyPlacements> = compilers
            .iter()
            .filter_map(|compiler| placements_for(compiler, &module, f))
            .collect();
        if all.len() != compilers.len() {
            failures += 1;
            continue;
        }
        outln!("function {} — strategy comparison", f.name);
        outln!(
            "  {:<24} {}",
            "totals",
            all.iter()
                .map(|s| format!("{:<22}", s.name))
                .collect::<String>()
        );
        outln!(
            "  {:<24} {}",
            "schedule length",
            all.iter()
                .map(|s| format!("{:<22}", s.total_length))
                .collect::<String>()
        );
        outln!(
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
            outln!(
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
        outln!("  per-instruction placements (issue@cycle +stall(reason)):");
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
            outln!(
                "    b{bi:<3} {:<18} {cells}",
                format!("{mnemonic}#{occurrence}")
            );
        }
        outln!();
    }
    if !matched {
        if let Some(want) = func_filter {
            eprintln!("marion-explain: no function named `{want}`");
            return 1;
        }
    }
    failures
}

fn explain_func(machine: &Machine, f: &CompiledFunc, opts: &Options) -> usize {
    let mut failures = 0usize;
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut biggest: Option<(usize, Schedule, CodeDag)> = None;
    let mut explained = 0usize;
    let sched_opts = sched::SchedOptions::default();
    for (bi, (block, schedule)) in f.code.blocks.iter().zip(&f.schedules).enumerate() {
        if block.insts.is_empty() {
            continue;
        }
        // Every strategy's final pass runs with default options; the
        // records come from an audited replay of its schedule.
        let (schedule, dag) = match audited_replay(machine, &f.code, block, schedule, &sched_opts) {
            Ok(replayed) => replayed,
            Err(e) => {
                eprintln!("marion-explain: b{bi}: {e}");
                failures += 1;
                continue;
            }
        };
        for (key, cycles) in schedule.explanation.stalls.as_pairs() {
            if cycles > 0 {
                *totals.entry(key).or_insert(0) += cycles;
            }
        }
        if opts.limit.is_none_or(|lim| explained < lim) {
            outln!(
                "block b{bi} (discipline {}):",
                schedule.explanation.discipline
            );
            out!("{}", explain::explain_block_text(machine, block, &schedule));
            for row in sched::reservation_rows(machine, block, &schedule) {
                outln!("  {row}");
            }
            explained += 1;
        }
        if biggest
            .as_ref()
            .is_none_or(|(prev, ..)| f.code.blocks[*prev].insts.len() < block.insts.len())
        {
            biggest = Some((bi, schedule, dag));
        }
    }
    // Delay-slot fill provenance (§4.4): which instruction the filler
    // moved into which branch's slot.
    if f.fills.is_empty() {
        outln!("delay slots: none filled");
    } else {
        outln!("delay slots filled ({}):", f.fills.len());
        for fill in &f.fills {
            outln!(
                "  b{}: `{}` moved into slot {} of `{}`",
                fill.block,
                machine.template(fill.inst).mnemonic,
                fill.slot,
                machine.template(fill.branch).mnemonic
            );
        }
    }
    if !totals.is_empty() {
        let mut ranked: Vec<(&str, u64)> = totals.into_iter().collect();
        ranked.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        let rendered: Vec<String> = ranked.iter().map(|(k, c)| format!("{k} {c}")).collect();
        outln!("top stall reasons (cycles): {}", rendered.join(", "));
    }
    if let Some((bi, schedule, dag)) = biggest {
        if opts.dot || opts.check {
            let block = &f.code.blocks[bi];
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
                out!("{dot}");
            }
        }
    }
    outln!();
    failures
}
