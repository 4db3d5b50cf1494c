//! marion-report — aggregates JSONL pipeline traces (see
//! `marion_trace`) into the paper-style summary tables:
//!
//! * a wall-clock table with one row per span name, its calls and
//!   total time summed over every call-tree path that ends in it
//!   (where compile time goes, Table 3's "Marion compilers are not
//!   fast" breakdown);
//! * a per-function summary of the static counters (instructions
//!   generated, spills, estimated cycles, delay slots, stalls — the
//!   Table 1 / Table 2 shape) and the stall attribution by reason;
//! * with `--demo`, every non-empty final block of the demo compiles,
//!   replayed: its reservation table (cycles × resource vector) and
//!   the scheduler's audited cycle-by-cycle stall narrative. A trace
//!   holds no per-block records; blocks are replayed from their
//!   schedules.
//!
//! Usage:
//!
//! ```text
//! marion-report TRACE.jsonl [MORE.jsonl ...]
//! marion-report --demo [--jsonl OUT.jsonl]
//! marion-report --html [--out REPORT.html] [--serve METRICS.json] TRACE.jsonl ...
//! ```
//!
//! `--demo` compiles a Livermore kernel for the R2000 (IPS) and the
//! dual-issue i860 (Postpass) with tracing on, then reports on the
//! result; `--jsonl` additionally writes the merged trace for
//! re-aggregation. `--html` renders the same
//! aggregation as one self-contained HTML page (inline CSS, no
//! external assets — it opens offline from a `file:` URL) to stdout or
//! to `--out`; `--serve` folds one `metrics` response line from
//! `marion-serve` into the page as a request-latency section;
//! `--quality` folds a `BENCH_quality.json` matrix in as the
//! quality-observatory section (cycle heatmap, stall composition,
//! estimate drift, Livermore speedups).
//!
//! Two service-side modes operate on `marion-serve` responses instead
//! of traces:
//!
//! ```text
//! marion-report --check-slo METRICS.jsonl
//! marion-report --dashboard RESPONSES.jsonl [--out DASH.html]
//! ```
//!
//! `--check-slo` scans the file for the first `metrics` response line
//! carrying SLO fields and exits 0 when every objective holds, 1 when
//! any is violated (for CI gates), 2 when the file is unreadable or
//! carries no SLO fields. `--dashboard` extracts the self-contained
//! HTML payload from a `dashboard` response line and writes it out.
//!
//! Trace files hold the JSON Lines of `TraceData::to_jsonl`; several
//! files, or one file that concatenates several traces, read as their
//! merge. A line of a type the format does not have, such as a
//! per-call `span` line or an `event` line of an older build, makes
//! the file unusable. A flag of a mode not chosen (`--serve`,
//! `--quality`, `--retarget`, `--bench-diff` without `--html`, `--out`
//! without `--html` or `--dashboard`, `--jsonl` without `--demo`) is a
//! usage error.
//!
//! Exit codes everywhere: 0 success, 1 a report/check failed (SLO
//! violated, output unwritable), 2 the input was unusable (unreadable
//! or truncated trace file, bad flags, missing fields).

use marion_bench::html::{
    block_details, counter_rows, render_html_with, FUNC_COLUMNS, STALL_COLUMNS,
};
use marion_bench::serve::check_slo_fields;
use marion_bench::{out, outln, row};
use marion_core::sched::{reservation_rows, SchedOptions};
use marion_core::{audited_replay, explain, CompileOptions, Compiler, StrategyKind};
use marion_ir::Module;
use marion_trace::json::parse_flat;
use marion_trace::{Fields, TraceConfig, TraceData, Tracer, Value};
use std::collections::BTreeSet;

/// One replayed block: `(title, reservation table, narrative)`.
type BlockText = (String, String, String);

fn usage() -> ! {
    eprintln!("usage: marion-report TRACE.jsonl [MORE.jsonl ...]");
    eprintln!("       marion-report --demo [--jsonl OUT.jsonl]");
    eprintln!("       marion-report --html [--out REPORT.html] [--serve METRICS.json] [--bench-diff OLD.json NEW.json] [--retarget RETARGET.json] [--quality QUALITY.json] [--demo | TRACE.jsonl ...]");
    eprintln!("       marion-report --check-slo METRICS.jsonl       exit 1 if any SLO is violated");
    eprintln!("       marion-report --dashboard RESP.jsonl [--out DASH.html]");
    std::process::exit(2);
}

/// Reads a file or exits 2 — unreadable input is an environment
/// problem, distinct from a failed report (exit 1).
fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("marion-report: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// `--check-slo`: find the first `metrics` line with SLO fields and
/// report each objective's verdict. Exit 0 all met, 1 any violated,
/// 2 no usable metrics line.
fn check_slo(path: &str) -> ! {
    let text = read_or_die(path);
    let fields = text
        .lines()
        .filter_map(|line| parse_flat(line).ok())
        .find(|fields| fields.field("slo_count").is_some())
        .unwrap_or_else(|| {
            eprintln!("marion-report: {path}: no metrics line with SLO fields found");
            std::process::exit(2);
        });
    let violated = check_slo_fields(&fields).unwrap_or_else(|e| {
        eprintln!("marion-report: {path}: {e}");
        std::process::exit(2);
    });
    // Per-objective summary: every `slo_<name>_violated` key, with its
    // sibling budget/burn fields when present.
    for (key, _) in &fields {
        let Some(name) = key
            .strip_prefix("slo_")
            .and_then(|rest| rest.strip_suffix("_violated"))
        else {
            continue;
        };
        let verdict = if violated.iter().any(|v| v == name) {
            "VIOLATED"
        } else {
            "ok"
        };
        let detail = |suffix: &str| {
            fields
                .field(&format!("slo_{name}_{suffix}"))
                .map(|v| match v {
                    Value::Int(i) => format!(" {suffix}={i}"),
                    Value::Float(f) => format!(" {suffix}={f:.4}"),
                    Value::Str(s) => format!(" {suffix}={s}"),
                })
                .unwrap_or_default()
        };
        outln!(
            "slo {name}: {verdict}{}{}",
            detail("budget_used"),
            detail("burn_rate")
        );
    }
    if violated.is_empty() {
        outln!("all SLOs met");
        std::process::exit(0);
    }
    eprintln!("marion-report: {} SLO(s) violated", violated.len());
    std::process::exit(1);
}

/// `--dashboard`: extract the self-contained HTML payload from the
/// first `dashboard` response line in the file.
fn extract_dashboard(path: &str, out: Option<&str>) -> ! {
    let text = read_or_die(path);
    let html = text
        .lines()
        .filter_map(|line| parse_flat(line).ok())
        .find_map(|fields| fields.str("html").map(str::to_string))
        .unwrap_or_else(|| {
            eprintln!("marion-report: {path}: no `dashboard` response line with an html field");
            std::process::exit(2);
        });
    match out {
        Some(out_path) => {
            std::fs::write(out_path, &html).unwrap_or_else(|e| {
                eprintln!("marion-report: cannot write {out_path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {out_path}");
        }
        None => out!("{html}"),
    }
    std::process::exit(0);
}

fn main() {
    let mut html = false;
    let mut demo_mode = false;
    let mut jsonl_out: Option<String> = None;
    let mut html_out: Option<String> = None;
    let mut serve_path: Option<String> = None;
    let mut check_slo_path: Option<String> = None;
    let mut dashboard_path: Option<String> = None;
    let mut bench_diff: Option<(String, String)> = None;
    let mut retarget_path: Option<String> = None;
    let mut quality_path: Option<String> = None;
    let mut traces: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("marion-report: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--html" => html = true,
            "--demo" => demo_mode = true,
            "--jsonl" => jsonl_out = Some(value("--jsonl")),
            "--out" => html_out = Some(value("--out")),
            "--serve" => serve_path = Some(value("--serve")),
            "--check-slo" => check_slo_path = Some(value("--check-slo")),
            "--dashboard" => dashboard_path = Some(value("--dashboard")),
            "--bench-diff" => {
                let old = value("--bench-diff");
                let new = value("--bench-diff");
                bench_diff = Some((old, new));
            }
            "--retarget" => retarget_path = Some(value("--retarget")),
            "--quality" => quality_path = Some(value("--quality")),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("marion-report: unknown flag `{other}`");
                usage()
            }
            path => traces.push(path.to_string()),
        }
    }
    // A flag of a mode not chosen is a mistake, not a no-op.
    let html_only = [
        ("--serve", serve_path.is_some()),
        ("--bench-diff", bench_diff.is_some()),
        ("--retarget", retarget_path.is_some()),
        ("--quality", quality_path.is_some()),
    ];
    if let Some((flag, _)) = html_only.iter().find(|(_, given)| *given && !html) {
        eprintln!("marion-report: {flag} needs --html");
        usage()
    }
    if html_out.is_some() && !html && dashboard_path.is_none() {
        eprintln!("marion-report: --out needs --html or --dashboard");
        usage()
    }
    if jsonl_out.is_some() && !demo_mode {
        eprintln!("marion-report: --jsonl needs --demo");
        usage()
    }
    if let Some(path) = check_slo_path {
        check_slo(&path);
    }
    if let Some(path) = dashboard_path {
        extract_dashboard(&path, html_out.as_deref());
    }
    if !demo_mode
        && traces.is_empty()
        && bench_diff.is_none()
        && retarget_path.is_none()
        && quality_path.is_none()
    {
        usage();
    }
    // Only the demo has replayed blocks: trace files carry none.
    let (data, blocks) = if !demo_mode && traces.is_empty() {
        // `--bench-diff` alone: a page holding just the before/after
        // subphase table, no trace-derived sections.
        (TraceData::default(), Vec::new())
    } else if demo_mode {
        let (data, blocks) = demo();
        if let Some(path) = &jsonl_out {
            std::fs::write(path, data.to_jsonl()).unwrap_or_else(|e| {
                eprintln!("marion-report: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        (data, blocks)
    } else {
        let parts: Vec<(String, TraceData)> = traces
            .iter()
            .map(|path| {
                let text = read_or_die(path);
                // A truncated or corrupt trace is an unusable input
                // (exit 2), not a failed report.
                let data = TraceData::parse_jsonl(&text).unwrap_or_else(|e| {
                    eprintln!(
                        "marion-report: {path}: unreadable trace (truncated or not \
                         marion_trace JSONL): {e}"
                    );
                    std::process::exit(2);
                });
                (path.clone(), data)
            })
            .collect();
        for warning in mismatch_warnings(&parts) {
            eprintln!("marion-report: warning: {warning}");
        }
        let data = merge_traces(parts.into_iter().map(|(_, d)| d).collect());
        (data, Vec::new())
    };
    if !html {
        out!("{}{}", report(&data), blocks_text(&blocks));
        return;
    }
    // `--serve` points at a file holding one `metrics` response line
    // (extra lines — e.g. a whole response stream — are scanned for
    // the first line carrying `service_buckets`).
    let serve_fields: Option<Vec<(String, Value)>> = serve_path.map(|path| {
        let text = read_or_die(&path);
        text.lines()
            .filter_map(|line| parse_flat(line).ok())
            .find(|fields| fields.field("service_buckets").is_some())
            .unwrap_or_else(|| {
                eprintln!("marion-report: {path}: no `metrics` response line found");
                std::process::exit(2);
            })
    });
    // In demo mode the source is on hand, so the page also embeds
    // per-function dependence-DAG renderings (native SVG, no
    // graphviz) next to the trace-derived sections.
    let mut extra_svg = if demo_mode {
        demo_dag_svgs()
    } else {
        Vec::new()
    };
    if !blocks.is_empty() {
        extra_svg.push((
            "Reservation tables and scheduler narratives (replayed)".to_string(),
            block_details(&blocks),
        ));
    }
    // `--bench-diff OLD.json NEW.json`: a before/after table of
    // strategy-subphase self-times from two BENCH_compile.json files.
    if let Some((old_path, new_path)) = &bench_diff {
        let table =
            marion_bench::html::subphase_diff_table(&read_or_die(old_path), &read_or_die(new_path))
                .unwrap_or_else(|e| {
                    eprintln!("marion-report: --bench-diff: {e}");
                    std::process::exit(2);
                });
        extra_svg.push((
            "Strategy subphase self-time \u{2014} before vs after".to_string(),
            table,
        ));
    }
    // `--retarget BENCH_retarget.json`: the marion-fuzz audit-coverage
    // summary (generated machines, differential-audit verdicts).
    if let Some(path) = &retarget_path {
        let section =
            marion_bench::html::retarget_section(&read_or_die(path)).unwrap_or_else(|e| {
                eprintln!("marion-report: --retarget: {e}");
                std::process::exit(2);
            });
        extra_svg.push(("Retargeting fuzz audit".to_string(), section));
    }
    // `--quality BENCH_quality.json`: the codegen-quality observatory
    // (cycle heatmap, stall composition, drift, Livermore speedups).
    if let Some(path) = &quality_path {
        let section = marion_bench::html::quality_section(&read_or_die(path)).unwrap_or_else(|e| {
            eprintln!("marion-report: --quality: {e}");
            std::process::exit(2);
        });
        extra_svg.push(("Quality observatory".to_string(), section));
    }
    let page = render_html_with(&data, serve_fields.as_deref(), &extra_svg);
    match html_out {
        Some(path) => {
            std::fs::write(&path, &page).unwrap_or_else(|e| {
                eprintln!("marion-report: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => out!("{page}"),
    }
}

/// Merges any number of parsed trace files into one [`TraceData`].
/// Counters with the same `(ctx, name)` sum across files (per-file
/// runs over the same function accumulate, rather than the first
/// file's value shadowing the rest).
fn merge_traces(parts: Vec<TraceData>) -> TraceData {
    let mut data = TraceData::default();
    for part in parts {
        data.merge(part);
    }
    data
}

/// `(machines, scheduling passes)` seen in one trace file: machine
/// names are the first `/`-segment of counter, histogram and gauge
/// contexts; passes are the `sched:*` segments of profile paths. This
/// is the identity a merge must agree on — summing counters from a
/// `r2000` trace into an `i860` one, or IPS passes into Postpass
/// ones, produces a nonsense flame tree.
fn trace_signature(data: &TraceData) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut machines = BTreeSet::new();
    let mut passes = BTreeSet::new();
    let mut ctx_machine = |ctx: &str| {
        let first = ctx.split('/').next().unwrap_or(ctx);
        if !first.is_empty() {
            machines.insert(first.to_string());
        }
    };
    let keys = data.counters.keys().chain(data.gauges.keys());
    let ctxs = keys.chain(data.hists.keys()).map(|(ctx, _)| ctx);
    for ctx in ctxs {
        ctx_machine(ctx);
    }
    for path in data.profile.keys() {
        let sched = path.split('/').filter(|seg| seg.starts_with("sched:"));
        passes.extend(sched.map(str::to_string));
    }
    (machines, passes)
}

/// Mismatched machine or strategy sets between trace files about to
/// be merged. The merge still happens — summing is sometimes wanted —
/// but silently producing a blended flame tree is not.
fn mismatch_warnings(parts: &[(String, TraceData)]) -> Vec<String> {
    let mut warnings = Vec::new();
    let Some(((first_path, first_data), rest)) = parts.split_first() else {
        return warnings;
    };
    let (machines0, passes0) = trace_signature(first_data);
    for (path, data) in rest {
        let (machines, passes) = trace_signature(data);
        if machines != machines0 && !machines.is_empty() && !machines0.is_empty() {
            warnings.push(format!(
                "{path} traces machines {machines:?} but {first_path} traces {machines0:?}; \
                 merged totals mix different targets"
            ));
        }
        if passes != passes0 && !passes.is_empty() && !passes0.is_empty() {
            warnings.push(format!(
                "{path} carries strategy passes {passes:?} but {first_path} carries \
                 {passes0:?}; merged totals mix different strategies"
            ));
        }
    }
    warnings
}

/// Native-SVG dependence DAGs for the demo workload: the largest
/// block of each LL7 function compiled Postpass for the R2000, with
/// its final schedule replayed and audited for the annotations.
fn demo_dag_svgs() -> Vec<(String, String)> {
    let kernels = marion_workloads::livermore::kernels();
    let ll7 = kernels.iter().find(|k| k.name == "LL7").expect("LL7");
    let mut module = ll7.module();
    marion_core::driver::materialize_float_constants(&mut module);
    let spec = marion_machines::load("r2000");
    let compiler = Compiler::new(spec.machine, spec.escapes, StrategyKind::Postpass);
    let machine = compiler.machine();
    let mut out = Vec::new();
    for f in &module.funcs {
        let Ok(compiled) = compiler.compile_func(&module, f, &marion_trace::Tracer::off()) else {
            continue;
        };
        let Some((bi, (block, schedule))) = compiled
            .code
            .blocks
            .iter()
            .zip(&compiled.schedules)
            .enumerate()
            .max_by_key(|(_, (b, _))| b.insts.len())
        else {
            continue;
        };
        if block.insts.is_empty() {
            continue;
        }
        let opts = marion_core::sched::SchedOptions::default();
        let Ok((schedule, dag)) =
            marion_core::audited_replay(machine, &compiled.code, block, schedule, &opts)
        else {
            continue;
        };
        let svg = marion_bench::dagviz::dag_to_svg(
            machine,
            block,
            &dag,
            &schedule,
            &format!(
                "r2000/{} block {bi} ({})",
                f.name, schedule.explanation.discipline
            ),
        );
        out.push((format!("Dependence DAG \u{2014} r2000/{}", f.name), svg));
    }
    out
}

/// Compiles a kernel on a scalar and a dual-issue machine with
/// tracing on; returns the merged trace and every non-empty final
/// block of both compiles, replayed.
fn demo() -> (TraceData, Vec<BlockText>) {
    let kernels = marion_workloads::livermore::kernels();
    let ll7 = kernels
        .iter()
        .find(|k| k.name == "LL7")
        .expect("LL7 kernel");
    let mut module = ll7.module();
    marion_core::driver::materialize_float_constants(&mut module);
    let options = CompileOptions {
        trace: Some(TraceConfig::default()),
        ..CompileOptions::default()
    };
    let mut data = TraceData::default();
    let mut blocks = Vec::new();
    for (machine, strategy) in [
        ("r2000", StrategyKind::Ips),
        ("i860", StrategyKind::Postpass),
    ] {
        let spec = marion_machines::load(machine);
        let compiler =
            Compiler::with_options(spec.machine, spec.escapes, strategy, options.clone());
        let program = compiler
            .compile_module(&module)
            .unwrap_or_else(|e| panic!("LL7 on {machine}: {e}"));
        data.merge(program.trace.expect("tracing was enabled"));
        blocks.extend(replayed_blocks(&compiler, &module));
    }
    (data, blocks)
}

/// Every non-empty final block of `module` compiled by `compiler`:
/// its reservation table and the narrative of its audited replay.
/// The scheduler is deterministic, so compiling again reproduces the
/// schedules of the traced compile.
fn replayed_blocks(compiler: &Compiler, module: &Module) -> Vec<BlockText> {
    let machine = compiler.machine();
    let strategy = compiler.strategy();
    let mut out = Vec::new();
    for f in &module.funcs {
        let compiled = compiler
            .compile_func(module, f, &Tracer::off())
            .unwrap_or_else(|e| panic!("{} on {}: {e}", f.name, machine.name()));
        let code = &compiled.code;
        for (bi, (block, schedule)) in code.blocks.iter().zip(&compiled.schedules).enumerate() {
            if block.insts.is_empty() {
                continue;
            }
            let table = reservation_rows(machine, block, schedule).join("\n");
            // Every strategy's final pass runs with default options.
            let narrative =
                match audited_replay(machine, code, block, schedule, &SchedOptions::default()) {
                    Ok((replay, _)) => explain::explain_block_text(machine, block, &replay),
                    Err(e) => format!("no narrative: {e}"),
                };
            let title = format!("{}/{}/b{bi} ({strategy})", machine.name(), f.name);
            out.push((title, table, narrative));
        }
    }
    out
}

/// The replayed blocks as text: each block's title, its reservation
/// table and its narrative.
fn blocks_text(blocks: &[BlockText]) -> String {
    if blocks.is_empty() {
        return String::new();
    }
    let mut out = String::from("reservation tables and scheduler narratives (replayed)\n");
    let indent = |out: &mut String, text: &str| {
        for line in text.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    };
    for (title, table, narrative) in blocks {
        out.push_str(&format!("\n{title}\n"));
        indent(&mut out, table);
        out.push_str("  narrative:\n");
        indent(&mut out, narrative);
    }
    out
}

/// A per-function counter table over `cols`, titled `title`; nothing
/// when no function has a non-zero value in the columns.
fn counter_table(out: &mut String, data: &TraceData, title: &str, cols: &[(&str, &str)]) {
    let rows = counter_rows(data, cols);
    if rows.is_empty() {
        return;
    }
    let mut widths = vec![28usize];
    widths.extend(cols.iter().map(|(_, h)| h.len().max(7)));
    out.push_str(title);
    out.push('\n');
    let mut header: Vec<String> = vec!["machine/function".into()];
    header.extend(cols.iter().map(|(_, h)| h.to_string()));
    out.push_str(&row(&header, &widths));
    out.push('\n');
    for cells in &rows {
        out.push_str(&row(cells, &widths));
        out.push('\n');
    }
    out.push('\n');
}

/// Renders the summary tables of an aggregated trace.
fn report(data: &TraceData) -> String {
    let mut out = String::new();

    // ---- per-span wall-clock ----
    let phases = data.span_totals();
    if !phases.is_empty() {
        let widths = [24, 12, 8, 10];
        out.push_str("phase timing (wall clock)\n");
        out.push_str(&row(
            &[
                "phase".into(),
                "total us".into(),
                "calls".into(),
                "mean us".into(),
            ],
            &widths,
        ));
        out.push('\n');
        let mut rows: Vec<_> = phases.into_iter().collect();
        rows.sort_by_key(|(_, p)| std::cmp::Reverse(p.total_us));
        for (name, p) in rows {
            out.push_str(&row(
                &[
                    name.into(),
                    p.total_us.to_string(),
                    p.count.to_string(),
                    format!("{:.1}", p.total_us as f64 / p.count.max(1) as f64),
                ],
                &widths,
            ));
            out.push('\n');
        }
        out.push('\n');
    }

    // ---- per-function static counters ----
    counter_table(&mut out, data, "per-function summary", &FUNC_COLUMNS);

    // ---- issue-slot utilization (multi-issue machines) ----
    let mut any_util = false;
    for (ctx, counters) in &data.counters_by_ctx() {
        let slots = counters.get("issue_slots_used").copied().unwrap_or(0);
        let cycles = counters.get("issue_cycles").copied().unwrap_or(0);
        if cycles > 0 && slots > cycles {
            if !any_util {
                out.push_str("issue-slot utilization\n");
                any_util = true;
            }
            out.push_str(&format!(
                "  {ctx:<28} {:.2} sub-ops/word ({slots} ops in {cycles} words)\n",
                slots as f64 / cycles as f64
            ));
        }
    }
    if any_util {
        out.push('\n');
    }

    // ---- stall attribution (scheduler provenance histograms) ----
    counter_table(
        &mut out,
        data,
        "stall attribution (cycles waited, by reason)",
        &STALL_COLUMNS,
    );

    // ---- sample distributions + gauges ----
    if !data.hists.is_empty() {
        out.push_str("sample distributions (log2 buckets)\n");
        for ((ctx, name), hist) in &data.hists {
            out.push_str(&format!("  {ctx} \u{2014} {name}: {}\n", hist.summarize()));
        }
        out.push('\n');
    }
    if !data.gauges.is_empty() {
        out.push_str("gauges (high-water)\n");
        for ((ctx, name), value) in &data.gauges {
            out.push_str(&format!("  {ctx} \u{2014} {name}: {value}\n"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(ctx: &str, insts: i64, stalls: i64) -> TraceData {
        let t = Tracer::on();
        t.add(ctx, "insts_generated", insts);
        t.add(ctx, "stall_resource", stalls);
        t.finish().unwrap()
    }

    #[test]
    fn multiple_jsonl_files_merge_counters() {
        // Two trace files for the same machine/function, round-tripped
        // through JSONL exactly as main() does.
        let a = TraceData::parse_jsonl(&trace_with("m/f", 10, 2).to_jsonl()).unwrap();
        let b = TraceData::parse_jsonl(&trace_with("m/f", 5, 3).to_jsonl()).unwrap();
        let merged = merge_traces(vec![a, b]);
        // Before the merge fix, the first file's counter shadowed the
        // second (counter() returns the first match).
        assert_eq!(merged.counter("m/f", "insts_generated"), Some(15));
        assert_eq!(merged.counter("m/f", "stall_resource"), Some(5));
        let rendered = report(&merged);
        assert!(
            rendered.contains("15"),
            "summed count rendered:\n{rendered}"
        );
        assert!(
            rendered.contains("stall attribution"),
            "stall section rendered:\n{rendered}"
        );
    }

    #[test]
    fn demo_replays_every_final_block_and_agrees_with_the_trace() {
        let (data, blocks) = demo();
        // One `block_len_cycles` sample per non-empty final block.
        let traced: u64 = data
            .hists
            .iter()
            .filter(|((_, name), _)| name == "block_len_cycles")
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(blocks.len() as u64, traced);
        // Each narrative's stall line sums, per function, to the
        // traced stall counters.
        let mut stalls: std::collections::BTreeMap<(String, String), i64> = Default::default();
        for (title, table, narrative) in &blocks {
            assert!(table.starts_with("cycle |"), "{title}:\n{table}");
            assert!(
                !narrative.starts_with("no narrative"),
                "{title}: {narrative}"
            );
            let ctx = &title[..title.rfind("/b").expect("block title")];
            let line = narrative
                .lines()
                .find_map(|l| l.trim().strip_prefix("stall cycles by reason: "));
            for pair in line.into_iter().flat_map(|l| l.split(", ")) {
                let (key, cycles) = pair.split_once(' ').expect("`key cycles`");
                *stalls
                    .entry((ctx.to_string(), format!("stall_{key}")))
                    .or_default() += cycles.parse::<i64>().expect("cycles");
            }
        }
        assert!(!stalls.is_empty(), "no demo block stalled");
        let traced: std::collections::BTreeMap<(String, String), i64> = data
            .counters
            .iter()
            .filter(|((_, name), _)| name.starts_with("stall_"))
            .map(|(key, value)| (key.clone(), *value))
            .collect();
        assert_eq!(stalls, traced);
        let text = blocks_text(&blocks);
        assert_eq!(text.matches("  narrative:").count(), blocks.len());
        let html = block_details(&blocks);
        assert_eq!(html.matches("<details>").count(), blocks.len());
    }

    #[test]
    fn mismatched_machines_and_strategies_warn_on_merge() {
        let t = Tracer::on();
        t.add("r2000/f", "insts_generated", 3);
        {
            let _s = t.span("sched:ips-final");
        }
        let a = t.finish().unwrap();
        let t = Tracer::on();
        t.add("i860/f", "insts_generated", 4);
        {
            let _s = t.span("sched:postpass");
        }
        let b = t.finish().unwrap();
        let warnings = mismatch_warnings(&[("a.jsonl".into(), a), ("b.jsonl".into(), b)]);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("different targets"));
        assert!(warnings[1].contains("different strategies"));
    }

    #[test]
    fn matching_trace_files_merge_without_warnings() {
        let mk = || {
            let t = Tracer::on();
            t.add("r2000/f", "insts_generated", 3);
            {
                let _s = t.span("sched:postpass");
            }
            t.finish().unwrap()
        };
        let warnings = mismatch_warnings(&[("a.jsonl".into(), mk()), ("b.jsonl".into(), mk())]);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn distinct_functions_stay_separate_rows() {
        let a = trace_with("m/f1", 7, 0);
        let b = trace_with("m/f2", 9, 0);
        let merged = merge_traces(vec![a, b]);
        assert_eq!(merged.counter("m/f1", "insts_generated"), Some(7));
        assert_eq!(merged.counter("m/f2", "insts_generated"), Some(9));
        let rendered = report(&merged);
        assert!(rendered.contains("m/f1"));
        assert!(rendered.contains("m/f2"));
    }
}
