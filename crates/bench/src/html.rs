//! Self-contained HTML observability report.
//!
//! [`render_html`] turns an aggregated [`TraceData`] — plus, when
//! available, one `metrics` response line from the compile service —
//! into a single HTML page with **zero external assets**: all CSS is
//! inline in one `<style>` block, charts are plain `<div>` bars, and
//! collapsible sections use `<details>`, so the page renders fully
//! offline from a `file:` URL. The renderer never emits a link or an
//! embedded-resource attribute; CI grep-asserts that the output stays
//! that way.
//!
//! Sections mirror the text report (`marion-report`): phase wall-clock
//! timing, per-function counters, stall attribution per scheduling
//! strategy, the log2 sample distributions recorded by
//! `Tracer::observe`, reservation tables with their scheduler
//! narratives — and, when serve metrics are supplied, request-latency
//! distributions and worker utilization.

use crate::serve::Replay;
use marion_trace::json::Json;
use marion_trace::{hist, Fields, Histogram, Record, TraceData, Value};
use std::collections::BTreeMap;

/// Escapes text for HTML body and attribute positions.
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// A horizontal bar scaled to `value / max`, labelled on the right.
fn bar(out: &mut String, label: &str, value: f64, max: f64, text: &str) {
    let pct = if max > 0.0 {
        (value / max * 100.0).clamp(0.0, 100.0)
    } else {
        0.0
    };
    out.push_str(&format!(
        "<div class=\"barrow\"><span class=\"barlabel\">{}</span>\
         <span class=\"bartrack\"><span class=\"bar\" style=\"width:{pct:.1}%\"></span></span>\
         <span class=\"barvalue\">{}</span></div>\n",
        esc(label),
        esc(text)
    ));
}

fn section(out: &mut String, title: &str) {
    out.push_str(&format!("<h2>{}</h2>\n", esc(title)));
}

fn tile(out: &mut String, label: &str, value: &str) {
    out.push_str(&format!(
        "<div class=\"tile\"><div class=\"tilevalue\">{}</div>\
         <div class=\"tilelabel\">{}</div></div>\n",
        esc(value),
        esc(label)
    ));
}

fn table_open(out: &mut String, headers: &[&str]) {
    out.push_str("<table><thead><tr>");
    for h in headers {
        out.push_str(&format!("<th>{}</th>", esc(h)));
    }
    out.push_str("</tr></thead><tbody>\n");
}

fn table_row(out: &mut String, cells: &[String]) {
    out.push_str("<tr>");
    for (i, c) in cells.iter().enumerate() {
        let class = if i == 0 { " class=\"name\"" } else { "" };
        out.push_str(&format!("<td{class}>{}</td>", esc(c)));
    }
    out.push_str("</tr>\n");
}

fn table_close(out: &mut String) {
    out.push_str("</tbody></table>\n");
}

/// Renders one log2 histogram as bucket bars plus a summary line.
fn hist_block(out: &mut String, title: &str, h: &Histogram, unit: &str) {
    out.push_str(&format!(
        "<div class=\"hist\"><div class=\"histtitle\">{} <span class=\"muted\">{}</span></div>\n",
        esc(title),
        esc(&h.summarize())
    ));
    let max = h.counts().iter().copied().max().unwrap_or(0) as f64;
    for (i, &c) in h.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let label = if i == 0 {
            format!("0 {unit}")
        } else {
            format!(
                "{}\u{2013}{} {unit}",
                hist::bucket_min(i),
                hist::bucket_max(i)
            )
        };
        bar(out, &label, c as f64, max, &c.to_string());
    }
    out.push_str("</div>\n");
}

const STALL_REASONS: [(&str, &str); 6] = [
    ("stall_dependence", "dependence"),
    ("stall_resource", "resource"),
    ("stall_class", "class"),
    ("stall_temporal", "temporal"),
    ("stall_pressure", "pressure"),
    ("stall_order", "order"),
];

const STYLE: &str = "\
:root{color-scheme:light dark}\
body{font-family:ui-monospace,monospace;margin:2rem auto;max-width:70rem;\
padding:0 1rem;line-height:1.5;background:#16181d;color:#d8dee9}\
h1{font-size:1.4rem;border-bottom:2px solid #3b4252;padding-bottom:.4rem}\
h2{font-size:1.05rem;margin-top:2rem;color:#88c0d0}\
h3{font-size:.95rem;margin:.8rem 0 .3rem;color:#a3be8c}\
table{border-collapse:collapse;margin:.5rem 0;font-size:.85rem}\
th,td{border:1px solid #3b4252;padding:.2rem .6rem;text-align:right}\
th{background:#242933;color:#88c0d0}\
td.name{text-align:left;color:#e5e9f0}\
.tiles{display:flex;flex-wrap:wrap;gap:.8rem;margin:.8rem 0}\
.tile{background:#242933;border:1px solid #3b4252;border-radius:6px;\
padding:.6rem 1rem;min-width:8rem;text-align:center}\
.tilevalue{font-size:1.3rem;color:#ebcb8b}\
.tilelabel{font-size:.75rem;color:#81a1c1}\
.barrow{display:flex;align-items:center;gap:.5rem;font-size:.8rem;margin:.12rem 0}\
.barlabel{flex:0 0 16rem;text-align:right;overflow:hidden;\
text-overflow:ellipsis;white-space:nowrap;color:#81a1c1}\
.bartrack{flex:1;background:#242933;border-radius:3px;height:.9rem;overflow:hidden}\
.bar{display:block;height:100%;background:#5e81ac}\
.barvalue{flex:0 0 10rem;color:#d8dee9}\
.hist{margin:.7rem 0 1rem;border-left:3px solid #3b4252;padding-left:.8rem}\
.histtitle{font-size:.9rem;margin-bottom:.2rem;color:#e5e9f0}\
.muted{color:#616e88;font-size:.78rem}\
pre{background:#242933;border:1px solid #3b4252;border-radius:4px;\
padding:.6rem;overflow-x:auto;font-size:.78rem}\
details{margin:.4rem 0}\
summary{cursor:pointer;color:#81a1c1}\
footer{margin-top:2.5rem;font-size:.75rem;color:#616e88;\
border-top:1px solid #3b4252;padding-top:.5rem}";

/// Renders the whole report. `serve` is the parsed flat-JSON field
/// list of one `metrics` response from the compile service (see
/// `serve::PROTOCOL_VERSION` docs); pass `None` for pure compile
/// traces.
pub fn render_html(data: &TraceData, serve: Option<&[(String, Value)]>) -> String {
    render_html_with(data, serve, &[])
}

/// [`render_html`] plus caller-supplied extra sections: `(title, svg)`
/// pairs appended before the footer. The SVG must itself be
/// self-contained (the inline-DAG renderer and the flamegraph
/// renderer both are); titles are escaped here.
pub fn render_html_with(
    data: &TraceData,
    serve: Option<&[(String, Value)]>,
    extra_svg: &[(String, String)],
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    out.push_str("<title>Marion observability report</title>\n");
    out.push_str(&format!("<style>{STYLE}</style>\n"));
    out.push_str("</head><body>\n<h1>Marion observability report</h1>\n");

    // ---- aggregate the counters per ctx once ----
    let mut funcs: BTreeMap<&str, BTreeMap<&str, i64>> = BTreeMap::new();
    let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in &data.records {
        match r {
            Record::Counter { name, ctx, value } => {
                *funcs.entry(ctx).or_default().entry(name).or_insert(0) += value;
            }
            Record::Span { name, dur_us, .. } => {
                let slot = phases.entry(name).or_insert((0, 0));
                slot.0 += dur_us;
                slot.1 += 1;
            }
            _ => {}
        }
    }
    let total = |name: &str| data.counter_total(name);

    // ---- summary tiles ----
    out.push_str("<div class=\"tiles\">\n");
    tile(&mut out, "functions", &funcs.len().to_string());
    tile(
        &mut out,
        "instructions",
        &total("insts_generated").to_string(),
    );
    tile(
        &mut out,
        "estimated cycles",
        &total("estimated_cycles").to_string(),
    );
    tile(
        &mut out,
        "stall cycles",
        &total("sched_stall_cycles").to_string(),
    );
    let wall: u64 = phases.values().map(|(t, _)| t).sum();
    tile(&mut out, "traced wall time", &format!("{wall} us"));
    out.push_str("</div>\n");

    // ---- phase timing ----
    if !phases.is_empty() {
        section(&mut out, "Phase timing (wall clock)");
        let mut rows: Vec<(&str, u64, u64)> =
            phases.iter().map(|(n, (t, c))| (*n, *t, *c)).collect();
        rows.sort_by_key(|(_, t, _)| std::cmp::Reverse(*t));
        let max = rows.first().map(|(_, t, _)| *t).unwrap_or(0) as f64;
        for (name, total, count) in rows {
            bar(
                &mut out,
                name,
                total as f64,
                max,
                &format!("{total} us / {count} span(s)"),
            );
        }
    }

    // ---- strategy-interior flamegraph ----
    // `prof` records (micro-span aggregation) render as a call-tree
    // flamegraph next to the phase bars: where `strategy`'s wall time
    // actually goes, loop by loop.
    let flame_root = crate::flame::flame_tree(data);
    if !flame_root.children.is_empty() {
        section(&mut out, "Where the time goes (self-profile flamegraph)");
        out.push_str(&crate::flame::render_svg(
            &flame_root,
            "micro-span wall-clock attribution (hover for self time)",
        ));
        // Top self-time frames as a table, for grep-ability.
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        collect_self_rows(&flame_root, "", &mut rows);
        rows.sort_by_key(|(_, s, _, _)| std::cmp::Reverse(*s));
        rows.truncate(12);
        if !rows.is_empty() {
            table_open(&mut out, &["frame", "self us", "total us", "calls"]);
            for (path, self_us, total_us, count) in rows {
                table_row(
                    &mut out,
                    &[
                        path,
                        self_us.to_string(),
                        total_us.to_string(),
                        count.to_string(),
                    ],
                );
            }
            table_close(&mut out);
        }
    }

    // ---- per-function counters ----
    if !funcs.is_empty() {
        section(&mut out, "Per-function summary");
        let cols = [
            ("insts_generated", "insts"),
            ("spills", "spills"),
            ("estimated_cycles", "est cycles"),
            ("delay_slots_filled", "filled"),
            ("nops_emitted", "nops"),
            ("sched_stall_cycles", "stalls"),
            ("packed_words", "packed"),
        ];
        let mut headers = vec!["machine/function"];
        headers.extend(cols.iter().map(|(_, h)| *h));
        table_open(&mut out, &headers);
        for (ctx, counters) in &funcs {
            let mut cells = vec![(*ctx).to_string()];
            cells.extend(
                cols.iter()
                    .map(|(key, _)| counters.get(key).copied().unwrap_or(0).to_string()),
            );
            table_row(&mut out, &cells);
        }
        table_close(&mut out);
    }

    // ---- stall reasons per strategy pass ----
    // sched_block events, one per block of a final scheduling pass,
    // carry the pass label ("sched:ips-final", "sched:postpass", …)
    // and typed stall cycles; summing per (pass, reason) gives the
    // strategy-by-strategy breakdown.
    let mut by_pass: BTreeMap<String, BTreeMap<&str, i64>> = BTreeMap::new();
    for (_, fields) in data.events_named("sched_block") {
        // Only traces from older builds (saved JSONL) carry `final`;
        // their estimate passes, marked `final: 0`, would count twice.
        if fields.int("final") == Some(0) {
            continue;
        }
        let pass = fields.str("pass").unwrap_or("?").to_string();
        let slot = by_pass.entry(pass).or_default();
        for (key, reason) in STALL_REASONS {
            *slot.entry(reason).or_insert(0) += fields.int(key).unwrap_or(0);
        }
    }
    by_pass.retain(|_, reasons| reasons.values().any(|&v| v > 0));
    if !by_pass.is_empty() {
        section(&mut out, "Stall reasons by strategy");
        let max = by_pass
            .values()
            .flat_map(|r| r.values())
            .copied()
            .max()
            .unwrap_or(0) as f64;
        for (pass, reasons) in &by_pass {
            out.push_str(&format!("<h3>{}</h3>\n", esc(pass)));
            for (key, reason) in STALL_REASONS {
                let _ = key;
                let cycles = reasons.get(reason).copied().unwrap_or(0);
                if cycles > 0 {
                    bar(
                        &mut out,
                        reason,
                        cycles as f64,
                        max,
                        &format!("{cycles} cycle(s)"),
                    );
                }
            }
        }
    }

    // ---- sample distributions (log2 histograms) ----
    let hists: Vec<(&str, &str, &Histogram)> = data
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Hist { name, ctx, hist } => Some((ctx.as_str(), name.as_str(), hist.as_ref())),
            _ => None,
        })
        .collect();
    if !hists.is_empty() {
        section(&mut out, "Sample distributions (log2 buckets)");
        for (ctx, name, h) in hists {
            hist_block(&mut out, &format!("{ctx} \u{2014} {name}"), h, "");
        }
    }

    // ---- gauges ----
    let gauges: Vec<(&str, &str, i64)> = data
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Gauge { name, ctx, value } => Some((ctx.as_str(), name.as_str(), *value)),
            _ => None,
        })
        .collect();
    if !gauges.is_empty() {
        section(&mut out, "Gauges (high-water)");
        table_open(&mut out, &["context", "gauge", "value"]);
        for (ctx, name, value) in gauges {
            table_row(
                &mut out,
                &[ctx.to_string(), name.to_string(), value.to_string()],
            );
        }
        table_close(&mut out);
    }

    // ---- reservation tables + narratives ----
    let mut narratives: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for (ctx, fields) in data.events_named("sched_explain") {
        let pass = fields.str("pass").unwrap_or("?").to_string();
        if let Some(text) = fields.str("narrative") {
            narratives
                .entry((ctx.to_string(), pass))
                .or_default()
                .push(text.to_string());
        }
    }
    let tables = data.events_named("reservation_table");
    if !tables.is_empty() || !narratives.is_empty() {
        section(&mut out, "Reservation tables and scheduler narratives");
        for (ctx, fields) in tables {
            let pass = fields.str("pass").unwrap_or("?").to_string();
            out.push_str(&format!(
                "<details><summary>{} [{}]</summary>\n",
                esc(ctx),
                esc(&pass)
            ));
            if let Some(table) = fields.str("table") {
                out.push_str(&format!("<pre>{}</pre>\n", esc(table)));
            }
            if let Some(texts) = narratives.remove(&(ctx.to_string(), pass)) {
                for text in texts {
                    out.push_str(&format!("<pre>{}</pre>\n", esc(&text)));
                }
            }
            out.push_str("</details>\n");
        }
        for ((ctx, pass), texts) in narratives {
            out.push_str(&format!(
                "<details><summary>{} [{}] (narrative)</summary>\n",
                esc(&ctx),
                esc(&pass)
            ));
            for text in texts {
                out.push_str(&format!("<pre>{}</pre>\n", esc(&text)));
            }
            out.push_str("</details>\n");
        }
    }

    // ---- serve metrics ----
    if let Some(fields) = serve {
        render_serve_section(&mut out, fields);
    }

    // ---- caller-supplied SVG sections (inline DAGs and the like) ----
    for (title, svg) in extra_svg {
        section(&mut out, title);
        out.push_str(svg);
    }

    out.push_str(
        "<footer>marion-report \u{2014} single-file report, no external assets; \
         percentiles are log2-bucket upper bounds (&lt;2\u{00d7} relative error).</footer>\n",
    );
    out.push_str("</body></html>\n");
    out
}

/// Renders a before/after table of strategy-subphase self-times from
/// two `BENCH_compile.json` documents (the committed baseline and a
/// fresh run). Each row is one subphase (`dag_build`, `ig_build`, …)
/// with its self time summed over every `runs[]` entry of each file
/// and the signed percent change. Returns a self-contained HTML
/// fragment for [`render_html_with`]'s extra-sections slot.
///
/// # Errors
///
/// Either document fails to parse, or neither carries a
/// `subphase_self_ms` map (a pre-subphase-era bench file).
pub fn subphase_diff_table(old_text: &str, new_text: &str) -> Result<String, String> {
    let totals = |text: &str| -> Result<BTreeMap<String, f64>, String> {
        let doc = Json::parse(text)?;
        let mut sums = BTreeMap::new();
        let runs = doc.arr("runs").ok_or("bench document has no runs[]")?;
        for run in runs {
            let Some(subs) = run.get("subphase_self_ms").and_then(Json::as_obj) else {
                continue;
            };
            for (name, v) in subs {
                if let Some(ms) = v.as_f64() {
                    *sums.entry(name.clone()).or_insert(0.0) += ms;
                }
            }
        }
        Ok(sums)
    };
    let (before, after) = (totals(old_text)?, totals(new_text)?);
    if before.is_empty() && after.is_empty() {
        return Err("neither bench file carries subphase_self_ms".into());
    }
    let mut names: Vec<&String> = before.keys().chain(after.keys()).collect();
    names.sort();
    names.dedup();
    let mut out = String::new();
    table_open(
        &mut out,
        &["subphase", "before self ms", "after self ms", "change"],
    );
    for name in names {
        let b = before.get(name).copied();
        let a = after.get(name).copied();
        let change = match (b, a) {
            (Some(b), Some(a)) if b > 0.0 => format!("{:+.1}%", (a - b) / b * 100.0),
            (Some(_), None) => "below floor".into(),
            (None, Some(_)) => "new".into(),
            _ => "\u{2014}".into(),
        };
        let fmt = |v: Option<f64>| {
            v.map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "\u{2014}".into())
        };
        table_row(&mut out, &[name.clone(), fmt(b), fmt(a), change]);
    }
    table_close(&mut out);
    out.push_str(
        "<p class=\"muted\">self time = wall time minus nested micro-spans, \
         summed over all machines and workloads of each bench file; \
         sub-floor entries are omitted at recording time.</p>\n",
    );
    Ok(out)
}

/// Renders the retargeting-fuzz section from a `BENCH_retarget.json`
/// file (written by `marion-fuzz`): the audit-coverage headline
/// numbers and, when the run found anything, the failing machines.
///
/// # Errors
///
/// Returns a description of the problem when the text is not a
/// retarget bench document.
pub fn retarget_section(text: &str) -> Result<String, String> {
    let doc = Json::parse(text)?;
    if doc.str("bench") != Some("retarget") {
        return Err("not a retarget bench document (bench != \"retarget\")".into());
    }
    let mut out = String::new();
    table_open(&mut out, &["metric", "value"]);
    let rows: &[(&str, &str, usize)] = &[
        ("machines generated", "count", 0),
        ("distinct machine texts", "distinct_machines", 0),
        ("workloads per machine", "workloads", 0),
        ("strategies per workload", "strategies", 0),
        ("compilations", "compilations", 0),
        ("blocks audited", "blocks_audited", 0),
        ("failing machines", "failing_machines", 0),
        ("quality observations", "quality_runs", 0),
        ("cross-strategy quality anomalies", "quality_anomalies", 0),
        ("elapsed (s)", "elapsed_sec", 1),
        ("machines / sec", "machines_per_sec", 3),
    ];
    for (label, key, decimals) in rows {
        if let Some(v) = doc.num(key) {
            table_row(
                &mut out,
                &[(*label).to_string(), format!("{v:.*}", decimals)],
            );
        }
    }
    table_close(&mut out);
    // Failing runs, when any: seed and knob summary point straight at
    // the corpus entry the fuzzer wrote.
    let mut failures = String::new();
    for run in doc.arr("runs").unwrap_or_default() {
        if run.str("status") != Some("fail") {
            continue;
        }
        let seed = match run.num("seed") {
            Some(n) => format!("{n:.0}"),
            None => "?".into(),
        };
        let summary = run.str("summary").unwrap_or_default().to_string();
        table_row(&mut failures, &[seed, summary]);
    }
    if failures.is_empty() {
        out.push_str(
            "<p class=\"muted\">every generated machine passed the full \
             differential audit (interp vs sim, per-block legality and \
             provenance, byte-identical recompile).</p>\n",
        );
    } else {
        table_open(&mut out, &["failing seed", "machine"]);
        out.push_str(&failures);
        table_close(&mut out);
        out.push_str(
            "<p class=\"muted\">each failing seed has a minimised reproducer \
             under <code>corpus/</code>.</p>\n",
        );
    }
    Ok(out)
}

/// Renders the quality-observatory section from a
/// `BENCH_quality.json` file (written by `marion-bench quality`): a
/// strategy × machine cycle heatmap (geomean over workloads, shaded
/// by distance from the best strategy on that machine), the
/// stall-reason composition per strategy, the estimate-vs-sim drift
/// table, and the per-Livermore-kernel speedup reproduction of the
/// paper's Table 4 headline.
///
/// # Errors
///
/// Returns a description of the problem when the text is not a
/// quality bench document.
pub fn quality_section(text: &str) -> Result<String, String> {
    let doc = Json::parse(text)?;
    if doc.str("bench") != Some("quality") {
        return Err("not a quality bench document (bench != \"quality\")".into());
    }
    struct Row {
        machine: String,
        strategy: String,
        workload: String,
        sim: f64,
        drift: f64,
        stalls: Vec<(String, f64)>,
        stall_total: f64,
        util: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let runs = doc.arr("runs").ok_or("quality document has no runs[]")?;
    for run in runs {
        let Some(fields) = run.as_obj() else { continue };
        let get_str = |key: &str| run.str(key).map(str::to_string);
        let stalls = fields
            .iter()
            .filter(|(k, _)| k.starts_with("stall_") && k != "stall_total")
            .filter_map(|(k, v)| Some((k["stall_".len()..].to_string(), v.as_f64()?)))
            .collect();
        rows.push(Row {
            machine: get_str("machine").ok_or("run missing machine")?,
            strategy: get_str("strategy").ok_or("run missing strategy")?,
            workload: get_str("workload").ok_or("run missing workload")?,
            sim: run.num("sim_cycles").ok_or("run missing sim_cycles")?,
            drift: run.num("drift_pct").unwrap_or(0.0),
            stalls,
            stall_total: run.num("stall_total").unwrap_or(0.0),
            util: run.num("issue_utilization").unwrap_or(0.0),
        });
    }
    if rows.is_empty() {
        return Err("quality document has no runs".into());
    }
    let mut machines: Vec<String> = Vec::new();
    let mut strategies: Vec<String> = Vec::new();
    for r in &rows {
        if !machines.contains(&r.machine) {
            machines.push(r.machine.clone());
        }
        if !strategies.contains(&r.strategy) {
            strategies.push(r.strategy.clone());
        }
    }
    let geo = |xs: &[f64]| crate::geomean(xs);
    let cell = |machine: &str, strategy: &str| -> Vec<f64> {
        rows.iter()
            .filter(|r| r.machine == machine && r.strategy == strategy)
            .map(|r| r.sim)
            .collect()
    };

    let mut out = String::new();
    // ---- strategy × machine cycle heatmap ----
    out.push_str("<h3>sim-measured cycles (geomean over workloads)</h3>\n");
    out.push_str("<table><thead><tr><th>machine</th>");
    for s in &strategies {
        out.push_str(&format!("<th>{}</th>", esc(s)));
    }
    out.push_str("<th>best</th></tr></thead><tbody>\n");
    for m in &machines {
        let cycles: Vec<f64> = strategies.iter().map(|s| geo(&cell(m, s))).collect();
        let best = cycles.iter().copied().fold(f64::INFINITY, f64::min);
        out.push_str(&format!("<tr><td class=\"name\">{}</td>", esc(m)));
        for c in &cycles {
            // Shade by distance from the machine's best strategy:
            // transparent at parity, saturating red at +30% cycles.
            let excess = if best > 0.0 { c / best - 1.0 } else { 0.0 };
            let alpha = (excess / 0.30).clamp(0.0, 1.0) * 0.55;
            out.push_str(&format!(
                "<td style=\"background:rgba(200,72,56,{alpha:.2})\">{c:.0}</td>"
            ));
        }
        let winner = strategies
            .iter()
            .zip(&cycles)
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(s, _)| s.as_str())
            .unwrap_or("\u{2014}");
        out.push_str(&format!("<td>{}</td></tr>\n", esc(winner)));
    }
    out.push_str("</tbody></table>\n");

    // ---- stall-reason composition per strategy ----
    out.push_str("<h3>stall-cycle composition by strategy</h3>\n");
    let mut max_stall = 0.0f64;
    // (strategy, per-reason stall sums, total stall cycles)
    type StallSums = Vec<(String, f64)>;
    let mut per_strategy: Vec<(String, StallSums, f64)> = Vec::new();
    for s in &strategies {
        let mut sums: Vec<(String, f64)> = Vec::new();
        let mut total = 0.0;
        for r in rows.iter().filter(|r| &r.strategy == s) {
            total += r.stall_total;
            for (reason, cycles) in &r.stalls {
                match sums.iter_mut().find(|(k, _)| k == reason) {
                    Some((_, sum)) => *sum += cycles,
                    None => sums.push((reason.clone(), *cycles)),
                }
            }
        }
        max_stall = max_stall.max(sums.iter().map(|(_, v)| *v).fold(0.0, f64::max));
        per_strategy.push((s.clone(), sums, total));
    }
    for (s, sums, total) in &per_strategy {
        out.push_str(&format!(
            "<div class=\"histtitle\">{} <span class=\"muted\">{total:.0} stall cycles \
             across the whole matrix</span></div>\n",
            esc(s)
        ));
        for (reason, cycles) in sums {
            if *cycles > 0.0 {
                bar(
                    &mut out,
                    reason,
                    *cycles,
                    max_stall,
                    &format!("{cycles:.0}"),
                );
            }
        }
    }

    // ---- estimate drift ----
    out.push_str("<h3>estimate vs sim drift</h3>\n");
    table_open(
        &mut out,
        &[
            "machine",
            "strategy",
            "mean drift %",
            "max drift %",
            "issue util",
        ],
    );
    for m in &machines {
        for s in &strategies {
            let sel: Vec<&Row> = rows
                .iter()
                .filter(|r| &r.machine == m && &r.strategy == s)
                .collect();
            if sel.is_empty() {
                continue;
            }
            let mean = sel.iter().map(|r| r.drift).sum::<f64>() / sel.len() as f64;
            let max = sel.iter().map(|r| r.drift.abs()).fold(0.0, f64::max);
            let util = sel.iter().map(|r| r.util).sum::<f64>() / sel.len() as f64;
            table_row(
                &mut out,
                &[
                    m.clone(),
                    s.clone(),
                    format!("{mean:+.2}"),
                    format!("{max:.2}"),
                    format!("{util:.3}"),
                ],
            );
        }
    }
    table_close(&mut out);
    out.push_str(
        "<p class=\"muted\">drift = (sim \u{2212} estimate) / estimate; the simulator \
         adds cache and memory-system cycles the schedule estimate deliberately \
         excludes, so small positive drift is expected.</p>\n",
    );

    // ---- per-Livermore-kernel speedups vs Postpass ----
    let kernels: Vec<&String> = {
        let mut ks: Vec<&String> = rows
            .iter()
            .map(|r| &r.workload)
            .filter(|w| w.starts_with("LL"))
            .collect();
        ks.sort_by_key(|w| w[2..].parse::<u32>().unwrap_or(0));
        ks.dedup();
        ks
    };
    let is_postpass = |s: &str| s.eq_ignore_ascii_case("postpass");
    let others: Vec<&String> = strategies.iter().filter(|s| !is_postpass(s)).collect();
    if !kernels.is_empty() && strategies.iter().any(|s| is_postpass(s)) && !others.is_empty() {
        out.push_str(
            "<h3>Livermore kernel speedups over Postpass (geomean across machines)</h3>\n",
        );
        let mut headers = vec!["kernel"];
        for s in &others {
            headers.push(s.as_str());
        }
        table_open(&mut out, &headers);
        for k in &kernels {
            let mut cells = vec![(*k).clone()];
            for s in &others {
                let ratios: Vec<f64> = machines
                    .iter()
                    .filter_map(|m| {
                        let base = rows.iter().find(|r| {
                            &r.machine == m && is_postpass(&r.strategy) && &r.workload == *k
                        })?;
                        let new = rows
                            .iter()
                            .find(|r| &r.machine == m && r.strategy == **s && &r.workload == *k)?;
                        (new.sim > 0.0).then(|| base.sim / new.sim)
                    })
                    .collect();
                cells.push(if ratios.is_empty() {
                    "\u{2014}".into()
                } else {
                    format!("{:.3}x", geo(&ratios))
                });
            }
            table_row(&mut out, &cells);
        }
        table_close(&mut out);
    }
    Ok(out)
}

/// Depth-first collection of `(path, self_us, total_us, count)` rows
/// from the flame tree, for the top-frames table.
fn collect_self_rows(
    node: &crate::flame::FlameNode,
    prefix: &str,
    rows: &mut Vec<(String, u64, u64, u64)>,
) {
    for child in &node.children {
        let path = if prefix.is_empty() {
            child.name.clone()
        } else {
            format!("{prefix}/{}", child.name)
        };
        rows.push((path.clone(), child.self_us(), child.total_us, child.count));
        collect_self_rows(child, &path, rows);
    }
}

/// The service section: request-latency distributions, utilization
/// gauges, and cache rates from one `metrics` response line.
fn render_serve_section(out: &mut String, fields: &[(String, Value)]) {
    section(out, "Compile service");
    out.push_str("<div class=\"tiles\">\n");
    for (name, label) in [
        ("requests", "requests served"),
        ("failures", "failures"),
        ("queue_depth", "queue depth"),
        ("busy_workers", "busy workers"),
        ("workers", "workers"),
    ] {
        if let Some(v) = fields.int(name) {
            tile(out, label, &v.to_string());
        }
    }
    if let (Some(busy), Some(workers)) = (fields.int("busy_workers"), fields.int("workers")) {
        if workers > 0 {
            tile(
                out,
                "utilization",
                &format!("{:.0}%", busy as f64 * 100.0 / workers as f64),
            );
        }
    }
    if let Some(Value::Float(rate)) = fields.field("cache_hit_rate") {
        tile(out, "cache hit rate", &format!("{:.0}%", rate * 100.0));
    }
    out.push_str("</div>\n");
    for (prefix, title) in [("service", "Service time"), ("queue_wait", "Queue wait")] {
        let Some(buckets) = fields.str(&format!("{prefix}_buckets")) else {
            continue;
        };
        let sum = fields.int(&format!("{prefix}_sum_us")).unwrap_or(0).max(0) as u64;
        if let Some(h) = Histogram::from_parts(buckets, sum) {
            hist_block(out, title, &h, "us");
        }
    }
}

/// Extra styles for the dashboard page, appended to [`STYLE`].
const DASH_STYLE: &str = "\
.spark{margin:.6rem 0 1rem;border-left:3px solid #3b4252;padding-left:.8rem}\
.sparktitle{font-size:.85rem;color:#e5e9f0;margin-bottom:.2rem}\
.ok{color:#a3be8c}\
.bad{color:#bf616a;font-weight:bold}";

/// One sparkline: the per-window values as a self-contained inline SVG
/// polyline (no external assets), labelled with the last and max
/// values.
fn sparkline(out: &mut String, title: &str, points: &[f64]) {
    const W: f64 = 720.0;
    const H: f64 = 48.0;
    const PAD: f64 = 4.0;
    let max = points.iter().copied().fold(0.0f64, f64::max);
    let last = points.last().copied().unwrap_or(0.0);
    out.push_str(&format!(
        "<div class=\"spark\"><div class=\"sparktitle\">{} \
         <span class=\"muted\">last {} \u{00b7} max {}</span></div>\n",
        esc(title),
        fmt_value(last),
        fmt_value(max)
    ));
    let step = W / (points.len().max(2) - 1) as f64;
    let mut pts = String::new();
    for (i, v) in points.iter().enumerate() {
        let x = i as f64 * step;
        let y = if max > 0.0 {
            H - PAD - (v / max) * (H - 2.0 * PAD)
        } else {
            H - PAD
        };
        pts.push_str(&format!("{x:.1},{y:.1} "));
    }
    out.push_str(&format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"100%\" height=\"48\" \
         preserveAspectRatio=\"none\" role=\"img\" aria-label=\"{}\">\
         <rect x=\"0\" y=\"0\" width=\"{W}\" height=\"{H}\" fill=\"#242933\"/>\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#88c0d0\" stroke-width=\"1.5\"/>\
         </svg></div>\n",
        esc(title),
        pts.trim_end()
    ));
}

/// Compact number for tile/sparkline labels.
fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders the `dashboard` protocol command's page: a self-contained
/// HTML status view of one running service — summary tiles, rolling
/// sparklines, SLO budgets, and flamegraphs of replayed tail
/// exemplars.
/// Same self-containment contract as [`render_html`] (CI grep-asserts
/// it): inline CSS/SVG only, no links, no external assets.
pub fn render_dashboard(d: &crate::serve::DashboardData) -> String {
    let snap = &d.snap;
    let win = &d.windowed;
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    out.push_str("<title>marion-serve dashboard</title>\n");
    out.push_str(&format!("<style>{STYLE}{DASH_STYLE}</style>\n"));
    out.push_str("</head><body>\n<h1>marion-serve dashboard</h1>\n");

    // ---- lifetime tiles ----
    out.push_str("<div class=\"tiles\">\n");
    tile(
        &mut out,
        "uptime",
        &format!("{:.1} s", snap.uptime_us as f64 / 1e6),
    );
    let requests = snap.lifetime.requests();
    tile(&mut out, "requests served", &requests.to_string());
    tile(&mut out, "started", &snap.started.to_string());
    tile(
        &mut out,
        "in flight",
        &snap.started.saturating_sub(requests).to_string(),
    );
    tile(&mut out, "failures", &snap.lifetime.failures.to_string());
    tile(&mut out, "queue depth", &snap.queue_depth.to_string());
    tile(&mut out, "workers", &snap.workers.to_string());
    if let Some(rate) = d.cache_hit_rate {
        tile(&mut out, "cache hit rate", &format!("{:.0}%", rate * 100.0));
    }
    out.push_str("</div>\n");

    // ---- windowed tiles ----
    section(
        &mut out,
        &format!(
            "Last {} window(s) \u{2014} {:.0} s",
            win.windows, win.covered_s
        ),
    );
    out.push_str("<div class=\"tiles\">\n");
    tile(&mut out, "requests", &win.requests.to_string());
    tile(&mut out, "requests / s", &fmt_value(win.rps));
    tile(
        &mut out,
        "hit rate",
        &format!("{:.0}%", win.hit_rate * 100.0),
    );
    tile(
        &mut out,
        "error rate",
        &format!("{:.1}%", win.error_rate * 100.0),
    );
    if let Some(p) = win.p50_us {
        tile(&mut out, "p50", &format!("{p} us"));
    }
    if let Some(p) = win.p99_us {
        tile(&mut out, "p99", &format!("{p} us"));
    }
    out.push_str("</div>\n");

    // ---- sparklines ----
    section(
        &mut out,
        &format!(
            "Rolling windows ({} \u{00d7} {} ms)",
            snap.windows(),
            snap.window_ms
        ),
    );
    for s in &d.series {
        sparkline(&mut out, &s.title, &s.points);
    }

    // ---- SLOs ----
    section(&mut out, "Service-level objectives");
    if d.slos.is_empty() {
        out.push_str(
            "<p class=\"muted\">none configured \u{2014} start marion-serve \
             with --slo to track error budgets here.</p>\n",
        );
    } else {
        table_open(
            &mut out,
            &[
                "objective",
                "target",
                "bad/total",
                "budget used",
                "burn rate",
                "status",
            ],
        );
        for eval in &d.slos {
            let status = if eval.violated { "VIOLATED" } else { "ok" };
            table_row(
                &mut out,
                &[
                    eval.slo.name.clone(),
                    fmt_value(eval.slo.target),
                    format!("{}/{}", eval.bad, eval.total),
                    format!("{:.1}%", eval.budget_used * 100.0),
                    format!("{:.2}\u{00d7}", eval.burn_rate),
                    status.to_string(),
                ],
            );
        }
        table_close(&mut out);
    }

    // ---- tail exemplars ----
    section(&mut out, "Slowest requests (tail exemplars)");
    if d.exemplars.is_empty() {
        out.push_str(
            "<p class=\"muted\">no exemplars yet \u{2014} the slowest compiles \
             per window are kept here and replayed on demand.</p>\n",
        );
    } else {
        out.push_str(
            "<p class=\"muted\">each flame is a replay: the request re-run on a \
             traced compiler with no cache, which must reproduce the served \
             statistics.</p>\n",
        );
        for (ex, replay) in &d.exemplars {
            let o = &ex.outcome;
            out.push_str(&format!(
                "<details open><summary>r{} \u{2014} {}/{} \u{2014} {:.1} ms \
                 <span class=\"muted\">(queue {:.1} ms, {} hit / {} miss, \
                 {} func(s), window {})</span></summary>\n",
                o.request_id,
                esc(&o.machine),
                esc(&o.strategy),
                ex.service_us as f64 / 1000.0,
                ex.queue_wait_us as f64 / 1000.0,
                o.cache_hits,
                o.cache_misses,
                o.funcs,
                ex.window
            ));
            match replay {
                Replay::Reproduced(trace) => out.push_str(&crate::flame::render_svg(
                    &crate::flame::flame_tree(trace),
                    &format!("r{} replay: wall-clock attribution", o.request_id),
                )),
                Replay::Diverged(replayed) => out.push_str(&format!(
                    "<p class=\"bad\">r{} replay diverged: served {}, replay {}.</p>\n",
                    o.request_id, o.served, replayed
                )),
                Replay::Failed(e) => out.push_str(&format!(
                    "<p class=\"bad\">r{} replay failed: {}</p>\n",
                    o.request_id,
                    esc(e)
                )),
            }
            out.push_str("</details>\n");
        }
    }

    // ---- lifetime distributions ----
    section(&mut out, "Lifetime latency distributions");
    hist_block(&mut out, "Service time", &snap.lifetime.service_us, "us");
    hist_block(&mut out, "Queue wait", &snap.queue_wait_us, "us");

    out.push_str(
        "<footer>marion-serve dashboard \u{2014} single-file page, no external \
         assets; percentiles are log2-bucket upper bounds (&lt;2\u{00d7} \
         relative error).</footer>\n",
    );
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_trace::{TraceConfig, Tracer};

    fn sample_trace() -> TraceData {
        let t = Tracer::new(TraceConfig {
            reservation_tables: true,
            explanations: true,
        });
        t.add("r2000/kernel", "insts_generated", 42);
        t.add("r2000/kernel", "sched_stall_cycles", 7);
        t.observe("r2000", "block_stall_cycles", 3);
        t.observe("r2000", "block_stall_cycles", 900);
        t.gauge("module", "workers", 4);
        t.event(
            "r2000/kernel/b0",
            "sched_block",
            &[
                ("pass", Value::from("sched:ips-final")),
                ("stall_dependence", Value::Int(5)),
                ("stall_resource", Value::Int(2)),
            ],
        );
        // An estimate pass as traces from older builds recorded it.
        t.event(
            "r2000/kernel/b0",
            "sched_block",
            &[
                ("pass", Value::from("sched:ips-prepass")),
                ("final", Value::Int(0)),
                ("stall_dependence", Value::Int(9)),
            ],
        );
        t.event(
            "r2000/kernel/b0",
            "reservation_table",
            &[
                ("pass", Value::from("final")),
                ("table", Value::from("cyc0 ALU <raw> & stuff")),
            ],
        );
        t.event(
            "r2000/kernel/b0",
            "sched_explain",
            &[
                ("pass", Value::from("final")),
                ("narrative", Value::from("cycle 1: stalled")),
            ],
        );
        let mut data = t.finish().unwrap();
        for (name, dur_us) in [("select", 120u64), ("sched", 80)] {
            data.records.push(Record::Span {
                name: name.to_string(),
                ctx: "module".to_string(),
                depth: 0,
                start_us: 0,
                dur_us,
            });
        }
        for (path, count, total_us, child_us) in [
            ("compile_func", 1u64, 200u64, 180u64),
            ("compile_func/strategy", 1, 180, 100),
            ("compile_func/strategy/regalloc", 1, 100, 0),
        ] {
            data.records.push(Record::Prof {
                path: path.to_string(),
                count,
                total_us,
                child_us,
            });
        }
        data
    }

    #[test]
    fn page_is_self_contained_with_no_network_references() {
        let html = render_html(&sample_trace(), None);
        // The CI contract, asserted at the source: nothing that could
        // trigger a network fetch or an external asset load.
        assert!(!html.contains("http:"), "no absolute links");
        assert!(!html.contains("https:"), "no absolute links");
        assert!(!html.contains("src="), "no embedded resources");
        assert!(!html.contains("href="), "no links");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("<style>"), "inline styles present");
    }

    #[test]
    fn sections_render_from_a_compile_trace() {
        let html = render_html(&sample_trace(), None);
        for needle in [
            "Phase timing",
            "self-profile flamegraph",
            "<svg ",
            "Per-function summary",
            "Stall reasons by strategy",
            "sched:ips-final",
            "Sample distributions",
            "block_stall_cycles",
            "Gauges",
            "Reservation tables",
        ] {
            assert!(html.contains(needle), "missing section `{needle}`");
        }
        assert!(
            !html.contains("sched:ips-prepass"),
            "old estimate pass counted"
        );
        // Raw event text is escaped, not injected.
        assert!(html.contains("&lt;raw&gt; &amp; stuff"));
        assert!(!html.contains("<raw>"));
    }

    #[test]
    fn serve_metrics_render_latency_and_utilization() {
        let mut service_us = Histogram::new();
        for v in [100u64, 250, 900, 40_000] {
            service_us.record(v);
        }
        let fields = vec![
            ("requests".to_string(), Value::Int(4)),
            ("failures".to_string(), Value::Int(0)),
            ("queue_depth".to_string(), Value::Int(1)),
            ("busy_workers".to_string(), Value::Int(2)),
            ("workers".to_string(), Value::Int(4)),
            ("cache_hit_rate".to_string(), Value::Float(0.75)),
            (
                "service_buckets".to_string(),
                Value::Str(service_us.encode_counts()),
            ),
            (
                "service_sum_us".to_string(),
                Value::Int(service_us.sum() as i64),
            ),
        ];
        let html = render_html(&TraceData::default(), Some(&fields));
        assert!(html.contains("Compile service"));
        assert!(html.contains("Service time"));
        assert!(html.contains("requests served"));
        assert!(html.contains("50%"), "utilization tile: 2 of 4 busy");
        assert!(html.contains("75%"), "cache hit rate tile");
        assert!(!html.contains("https:"));
        assert!(!html.contains("href="));
    }

    #[test]
    fn extra_svg_sections_append_and_stay_self_contained() {
        let extra = vec![(
            "Dependence DAG — main b1".to_string(),
            "<svg viewBox=\"0 0 10 10\"><rect x=\"0\" y=\"0\" width=\"5\" height=\"5\"/></svg>\n"
                .to_string(),
        )];
        let html = render_html_with(&sample_trace(), None, &extra);
        assert!(html.contains("Dependence DAG"));
        assert!(!html.contains("http:") && !html.contains("https:"));
        assert!(!html.contains("src=") && !html.contains("href="));
    }

    #[test]
    fn subphase_diff_table_renders_before_after_and_deltas() {
        let old = r#"{"runs": [
            {"machine": "a", "subphase_self_ms": {"dag_build": 2.0, "ig_build": 1.0}},
            {"machine": "b", "subphase_self_ms": {"dag_build": 2.0, "evict_scan": 0.5}}
        ]}"#;
        let new = r#"{"runs": [
            {"machine": "a", "subphase_self_ms": {"dag_build": 1.0, "ig_build": 1.5}},
            {"machine": "b", "subphase_self_ms": {"dag_build": 1.0, "prep": 0.2}}
        ]}"#;
        let table = subphase_diff_table(old, new).expect("renders");
        // dag_build: 4.0 -> 2.0 = -50%; ig_build: 1.0 -> 1.5 = +50%.
        assert!(table.contains("dag_build"), "{table}");
        assert!(table.contains("-50.0%"), "{table}");
        assert!(table.contains("+50.0%"), "{table}");
        // One-sided rows render as dropped/new, not as errors.
        assert!(table.contains("below floor"), "{table}");
        assert!(table.contains("new"), "{table}");
        // Files without the map are a structured error, not a panic.
        assert!(subphase_diff_table(r#"{"runs": []}"#, r#"{"runs": []}"#).is_err());
    }

    #[test]
    fn quality_section_renders_heatmap_stalls_drift_and_speedups() {
        let text = r#"{
          "bench": "quality",
          "runs": [
            {"machine": "r2000", "strategy": "Postpass", "workload": "LL1",
             "sim_cycles": 1200, "est_cycles": 1100, "drift_pct": 9.09,
             "stall_dependence": 40, "stall_resource": 10, "stall_total": 50,
             "issue_utilization": 0.61},
            {"machine": "r2000", "strategy": "IPS", "workload": "LL1",
             "sim_cycles": 1000, "est_cycles": 950, "drift_pct": 5.26,
             "stall_dependence": 20, "stall_resource": 5, "stall_total": 25,
             "issue_utilization": 0.70},
            {"machine": "r2000", "strategy": "RASE", "workload": "LL1",
             "sim_cycles": 960, "est_cycles": 900, "drift_pct": 6.67,
             "stall_dependence": 15, "stall_resource": 5, "stall_total": 20,
             "issue_utilization": 0.72}
          ]
        }"#;
        let html = quality_section(text).expect("renders");
        // Heatmap: per-machine winner column picks the fewest cycles.
        assert!(html.contains("sim-measured cycles"), "{html}");
        assert!(html.contains("<td>RASE</td>"), "{html}");
        // Stall composition bars carry the per-reason labels.
        assert!(html.contains("stall-cycle composition"), "{html}");
        assert!(html.contains("dependence"), "{html}");
        // Drift table and the Livermore speedup reproduction.
        assert!(html.contains("estimate vs sim drift"), "{html}");
        assert!(html.contains("speedups over Postpass"), "{html}");
        // 1200/1000 and 1200/960 as geomean over one machine.
        assert!(html.contains("1.200x"), "{html}");
        assert!(html.contains("1.250x"), "{html}");
        // Self-contained: no external references, escaped content only.
        assert!(!html.contains("http:") && !html.contains("https:"));
        assert!(!html.contains("src=") && !html.contains("href="));
        // Wrong document kinds are structured errors, not panics.
        assert!(quality_section(r#"{"bench": "serve"}"#).is_err());
        assert!(quality_section("{").is_err());
    }

    #[test]
    fn empty_trace_still_renders_a_valid_page() {
        let html = render_html(&TraceData::default(), None);
        assert!(html.contains("<h1>"));
        assert!(html.ends_with("</html>\n"));
        assert!(!html.contains("Phase timing"), "empty sections elided");
    }
}
