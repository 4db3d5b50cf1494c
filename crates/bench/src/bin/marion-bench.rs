//! `marion-bench` — the compile-time benchmark and selection
//! cross-check harness.
//!
//! Subcommands:
//!
//! * `compile [--iters K] [--out PATH]` — times end-to-end
//!   compilation of the multi-function Livermore and generated suites
//!   on every bundled machine, comparing serial brute-force selection
//!   (through `Machine::brute_force_reference`), serial indexed
//!   selection, and `jobs=4` parallel compilation, and writes the
//!   result trajectory to `BENCH_compile.json` (median-of-K wall
//!   times, functions/sec, per-phase span split).
//! * `crosscheck` — compiles every bundled machine × workload ×
//!   strategy twice, once on the machine and once on its brute-force
//!   reference machine, and asserts identical programs (same template
//!   choices, same stats, byte-identical assembly); exits non-zero on
//!   the first divergence.
//! * `diff OLD.json NEW.json [--tolerance PCT]` — the perf-regression
//!   gate: compares two `BENCH_*.json` files metric by metric
//!   (`*_ms`/`*_cycles` higher-is-worse, `per_sec`/`speedup`
//!   lower-is-worse),
//!   prints per-phase deltas, and exits 1 when any metric regresses
//!   past the tolerance (default 10%), 2 on unreadable input. Run in
//!   CI against the committed baseline.
//! * `serve [--smoke] [--out PATH]` — measures cold vs warm
//!   throughput of the compile service on the combined Livermore
//!   workload: every machine × strategy is requested twice through
//!   the `marion-serve` stream machinery against one shared
//!   content-addressed cache, and the per-request wall times land in
//!   `BENCH_serve.json` with hit/miss counters. Five more warm pass
//!   pairs, alternating a baseline pass with one on a service with
//!   full observability on (tail sampling, access log), record the
//!   median pair's overhead honestly as `observability_overhead_pct`
//!   (with the pair count, `observability_pairs`). Each of those
//!   passes repeats the warm request list (`observability_pass_requests`
//!   requests in all), so a pass lasts long enough for its overhead
//!   reading to mean something. The warm set's size is recorded as
//!   `cached_insts` and `cached_code_bytes` (`AsmFunc::heap_bytes`
//!   summed over the cached functions).
//! * `quality [--smoke] [--out PATH]` — the codegen-quality matrix:
//!   every bundled machine × strategy × workload compiled once,
//!   simulated, and condensed into one `ProgramQuality` row each
//!   (sim vs estimated cycles, critical-path lower bound, stall
//!   breakdown, issue-slot utilization, spill/nop/delay-slot counts)
//!   in `BENCH_quality.json`. Cycle counts are deterministic, so CI
//!   diffs the committed matrix with `--tolerance 0`: any regression
//!   in codegen quality fails the build.

use marion_bench::flame::flame_tree;
use marion_bench::serve::{run_stream, ServeConfig, Service};
use marion_core::{CompileOptions, Compiler, StrategyKind};
use marion_ir::Module;
use marion_machines::MachineSpec;
use marion_maril::Machine;
use marion_trace::json::{parse_flat, ObjWriter};
use marion_trace::{Fields, TraceConfig};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Strategy-interior spans, plus the IPS strategy's two scheduling
/// passes, whose self time (total minus nested children) lands in
/// `BENCH_compile.json` as `subphase_self_ms`, so the perf gate sees
/// where inside the scheduler and allocator the time moved, not just
/// the phase total. A pass's self time is the list scheduler's cycle
/// loop: everything it runs outside the per-block spans.
const SUBPHASES: [&str; 13] = [
    "sched:ips-prepass",
    "sched:ips-final",
    "dag_build",
    "prep",
    "finalize",
    "ig_build",
    "simplify",
    "select_colors",
    "evict_scan",
    "spill_rewrite",
    "phys_rewrite",
    "sched_metrics",
    "reorder",
];

/// Subphase self-times below this floor are omitted from the JSON:
/// sub-50µs medians are timer noise, and gating on their percent
/// deltas would flake. Presence asymmetry between two files is a diff
/// warning, never a regression.
const SUBPHASE_FLOOR_MS: f64 = 0.05;

/// Warm baseline/observed pass pairs `serve` runs to measure the
/// observability overhead; it reports the median pair.
const OBSERVABILITY_PAIRS: usize = 5;

/// Times each observability pass sends the warm request list: one
/// list of warm hits takes a couple of milliseconds, too short for a
/// pass's wall time to rise above timer and scheduler noise.
const OBSERVABILITY_REPEATS: usize = 40;

const USAGE: &str = "usage: marion-bench <compile [--iters K] [--out PATH] \
                     | crosscheck | serve [--smoke] [--out PATH] \
                     | quality [--smoke] [--out PATH] \
                     | diff OLD.json NEW.json [--tolerance PCT]>";

/// Reports a bad command line and exits 2, before any bench work.
fn usage(problem: &str) -> ! {
    eprintln!("marion-bench: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, or a usage error when there is none.
fn value<'a>(flags: &mut impl Iterator<Item = &'a str>, flag: &str) -> &'a str {
    flags
        .next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let mut flags = args.iter().skip(1).map(String::as_str);
    match cmd {
        "compile" => {
            let mut iters: usize = 5;
            let mut out = "BENCH_compile.json";
            while let Some(flag) = flags.next() {
                match flag {
                    "--iters" => {
                        iters = match value(&mut flags, flag).parse() {
                            Ok(n) if n > 0 => n,
                            _ => usage("--iters takes a whole number of at least 1"),
                        }
                    }
                    "--out" => out = value(&mut flags, flag),
                    other => usage(&format!("unknown flag `{other}`")),
                }
            }
            bench_compile(iters, out);
        }
        "crosscheck" => crosscheck(),
        "diff" => {
            let mut tolerance = 10.0f64;
            let mut files: Vec<&str> = Vec::new();
            while let Some(flag) = flags.next() {
                match flag {
                    "--tolerance" => {
                        tolerance = value(&mut flags, flag)
                            .parse()
                            .unwrap_or_else(|_| usage("--tolerance takes a percentage"));
                    }
                    other if other.starts_with('-') => usage(&format!("unknown flag `{other}`")),
                    path => files.push(path),
                }
            }
            let [old_path, new_path] = files.as_slice() else {
                usage("diff takes two files");
            };
            let read = |path: &str| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("marion-bench diff: cannot read {path}: {e}");
                    std::process::exit(2);
                })
            };
            let (old_text, new_text) = (read(old_path), read(new_path));
            match marion_bench::diff::run_diff(&old_text, &new_text, tolerance) {
                Ok((report, code)) => {
                    print!("{report}");
                    std::process::exit(code);
                }
                Err(e) => {
                    eprintln!("marion-bench diff: {e}");
                    std::process::exit(2);
                }
            }
        }
        "serve" | "quality" => {
            let mut smoke = false;
            let mut out: Option<&str> = None;
            while let Some(flag) = flags.next() {
                match flag {
                    "--smoke" => smoke = true,
                    "--out" => out = Some(value(&mut flags, flag)),
                    other => usage(&format!("unknown flag `{other}`")),
                }
            }
            if cmd == "serve" {
                bench_serve(smoke, out.unwrap_or("BENCH_serve.json"));
            } else if smoke {
                bench_quality(smoke, out.unwrap_or("BENCH_quality_smoke.json"));
            } else {
                bench_quality(smoke, out.unwrap_or("BENCH_quality.json"));
            }
        }
        "" => usage("no subcommand"),
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}

fn options(jobs: usize) -> CompileOptions {
    CompileOptions {
        jobs: NonZeroUsize::new(jobs),
        ..CompileOptions::default()
    }
}

/// Median wall-clock milliseconds over `iters` compilations.
fn time_compile(spec: &MachineSpec, module: &Module, jobs: usize, iters: usize) -> f64 {
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Ips,
        options(jobs),
    );
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            compiler
                .compile_module(module)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.machine.name()));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Per-phase and per-subphase `(name, milliseconds)` splits.
type PhaseSplits = (Vec<(String, f64)>, Vec<(&'static str, f64)>);

/// Per-phase wall-time split and per-subphase self-time split
/// (milliseconds), both medians over `iters` traced runs, read from
/// each run's flame tree. Phases are the children of `compile_func`
/// (the driver's spans around glue, select, strategy, emit and
/// delay-slot filling), in name order; a subphase's time is the
/// [`FlameNode::self_us`](marion_bench::flame::FlameNode::self_us) of
/// every tree node with its name, summed.
fn phase_split(spec: &MachineSpec, module: &Module, iters: usize) -> PhaseSplits {
    let opts = CompileOptions {
        trace: Some(TraceConfig::default()),
        ..options(1)
    };
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        StrategyKind::Ips,
        opts,
    );
    let mut per_phase: Vec<(String, Vec<f64>)> = Vec::new();
    let mut per_sub: Vec<Vec<f64>> = vec![Vec::new(); SUBPHASES.len()];
    for _ in 0..iters {
        let program = compiler
            .compile_module(module)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.machine.name()));
        let tree = flame_tree(&program.trace.expect("trace was requested"));
        let phases = tree.find("compile_func").map_or(&[][..], |f| &f.children);
        for (pi, phase) in phases.iter().enumerate() {
            if pi == per_phase.len() {
                per_phase.push((phase.name.clone(), Vec::new()));
            }
            per_phase[pi].1.push(phase.total_us as f64 / 1e3);
        }
        let mut self_us = vec![0u64; SUBPHASES.len()];
        let mut stack = vec![&tree];
        while let Some(node) = stack.pop() {
            if let Some(si) = SUBPHASES.iter().position(|s| *s == node.name) {
                self_us[si] += node.self_us();
            }
            stack.extend(&node.children);
        }
        for (si, us) in self_us.into_iter().enumerate() {
            per_sub[si].push(us as f64 / 1e3);
        }
    }
    let median = |mut times: Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times[times.len() / 2]
    };
    (
        per_phase
            .into_iter()
            .map(|(phase, times)| (phase, median(times)))
            .collect(),
        SUBPHASES
            .iter()
            .zip(per_sub)
            .map(|(sub, times)| (*sub, median(times)))
            .collect(),
    )
}

struct Row {
    machine: String,
    workload: &'static str,
    functions: usize,
    serial_brute_ms: f64,
    serial_indexed_ms: f64,
    parallel4_ms: f64,
    /// Per-phase split of a serial indexed run (trace spans).
    phases: Vec<(String, f64)>,
    /// Per-subphase self-time of the same run (flame tree).
    subphases: Vec<(&'static str, f64)>,
    /// The select phase alone on the brute-force reference machine
    /// (trace spans).
    brute_select_ms: f64,
}

impl Row {
    fn indexed_select_ms(&self) -> f64 {
        self.phases
            .iter()
            .find(|(p, _)| *p == "select")
            .map(|(_, ms)| *ms)
            .unwrap_or(0.0)
    }
    /// Select-phase speedup from paired trace spans — end-to-end wall
    /// time is dominated by scheduling and allocation, so the phase
    /// spans are the signal.
    fn selection_speedup(&self) -> f64 {
        self.brute_select_ms / self.indexed_select_ms()
    }
    fn parallel_speedup(&self) -> f64 {
        self.serial_indexed_ms / self.parallel4_ms
    }
    fn functions_per_sec(&self) -> f64 {
        self.functions as f64 / (self.serial_indexed_ms / 1e3)
    }
}

fn bench_compile(iters: usize, out: &str) {
    let machines = marion_machines::load_extended();
    let workloads: Vec<(&'static str, Module)> = vec![
        (
            "livermore_combined",
            marion_workloads::multi::combined_livermore(),
        ),
        (
            "generated_combined",
            marion_workloads::multi::combined_generated(12, 42),
        ),
    ];
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows = Vec::new();
    for spec in &machines {
        let brute = MachineSpec {
            machine: spec.machine.brute_force_reference(),
            escapes: spec.escapes.clone(),
        };
        for (name, module) in &workloads {
            let serial_brute_ms = time_compile(&brute, module, 1, iters);
            let serial_indexed_ms = time_compile(spec, module, 1, iters);
            let parallel4_ms = time_compile(spec, module, 4, iters);
            let (phases, subphases) = phase_split(spec, module, iters);
            let brute_select_ms = phase_split(&brute, module, iters)
                .0
                .iter()
                .find(|(p, _)| *p == "select")
                .map(|(_, ms)| *ms)
                .unwrap_or(0.0);
            rows.push(Row {
                machine: spec.machine.name().to_owned(),
                workload: name,
                functions: module.funcs.len(),
                serial_brute_ms,
                serial_indexed_ms,
                parallel4_ms,
                phases,
                subphases,
                brute_select_ms,
            });
        }
    }

    // Human-readable table.
    println!(
        "compile bench  (median of {iters}, strategy ips, {cores} core{} available)",
        if cores == 1 { "" } else { "s" }
    );
    println!(
        "{:<8} {:<20} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9} {:>6} {:>6} {:>8}",
        "machine",
        "workload",
        "funcs",
        "brute ms",
        "idx ms",
        "j=4 ms",
        "sel-b ms",
        "sel-i ms",
        "sel x",
        "par x",
        "funcs/s"
    );
    for r in &rows {
        println!(
            "{:<8} {:<20} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>6.2} {:>6.2} {:>8.0}",
            r.machine,
            r.workload,
            r.functions,
            r.serial_brute_ms,
            r.serial_indexed_ms,
            r.parallel4_ms,
            r.brute_select_ms,
            r.indexed_select_ms(),
            r.selection_speedup(),
            r.parallel_speedup(),
            r.functions_per_sec()
        );
    }
    let sel = marion_bench::geomean(&rows.iter().map(Row::selection_speedup).collect::<Vec<_>>());
    let par = marion_bench::geomean(&rows.iter().map(Row::parallel_speedup).collect::<Vec<_>>());
    println!("geomean select-phase speedup (indexed vs brute): {sel:.2}x");
    println!("geomean parallel speedup (jobs=4 vs jobs=1, indexed): {par:.2}x");

    let json = render_json(iters, cores, &rows, sel, par);
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}

fn render_json(iters: usize, cores: usize, rows: &[Row], sel: f64, par: f64) -> String {
    let mut doc = ObjWriter::bench();
    doc.str("bench", "compile");
    doc.str("strategy", "ips");
    doc.int("iterations", iters as i64);
    doc.int("available_parallelism", cores as i64);
    doc.fixed("geomean_select_phase_speedup", sel, 4);
    doc.fixed("geomean_parallel_speedup_jobs4", par, 4);
    let runs: Vec<ObjWriter> = rows
        .iter()
        .map(|r| {
            let mut run = doc.nested();
            run.str("machine", &r.machine);
            run.str("workload", r.workload);
            run.int("functions", r.functions as i64);
            run.fixed("serial_brute_ms", r.serial_brute_ms, 4);
            run.fixed("serial_indexed_ms", r.serial_indexed_ms, 4);
            run.fixed("parallel4_indexed_ms", r.parallel4_ms, 4);
            run.fixed("brute_select_ms", r.brute_select_ms, 4);
            run.fixed("indexed_select_ms", r.indexed_select_ms(), 4);
            run.fixed("selection_speedup", r.selection_speedup(), 4);
            run.fixed("parallel_speedup_jobs4", r.parallel_speedup(), 4);
            run.fixed("functions_per_sec", r.functions_per_sec(), 2);
            let mut phases = run.nested();
            for (phase, ms) in &r.phases {
                phases.fixed(phase, *ms, 4);
            }
            run.obj("phase_ms", phases);
            // Self-times under the noise floor are omitted (see
            // SUBPHASE_FLOOR_MS); the diff tool treats one-sided keys as
            // warnings, not regressions.
            let mut subphases = run.nested();
            for (sub, ms) in r
                .subphases
                .iter()
                .filter(|(_, ms)| *ms >= SUBPHASE_FLOOR_MS)
            {
                subphases.fixed(sub, *ms, 4);
            }
            run.obj("subphase_self_ms", subphases);
            run
        })
        .collect();
    doc.objs("runs", runs);
    doc.finish()
}

/// Cold vs warm throughput of the compile service: the same
/// machine × strategy requests over the combined Livermore workload,
/// issued twice through the serve stream against one shared cache.
fn bench_serve(smoke: bool, out: &str) {
    let machines: Vec<&str> = if smoke {
        vec!["toyp", "r2000"]
    } else {
        marion_machines::EXTENDED.to_vec()
    };
    let strategies = [
        StrategyKind::Postpass,
        StrategyKind::Ips,
        StrategyKind::Rase,
    ];
    // Baseline passes run with observability off (no tail sampling, no
    // access log) so cold/warm numbers measure the compile service
    // itself; the observability cost is measured separately below.
    let service = Service::new(&ServeConfig {
        exemplars: false,
        ..ServeConfig::default()
    })
    .expect("in-memory service");
    let mut requests = String::new();
    let mut pairs = Vec::new();
    for (i, machine) in machines.iter().enumerate() {
        for (j, strategy) in strategies.iter().enumerate() {
            let mut request = ObjWriter::new();
            request.int("id", (i * strategies.len() + j) as i64);
            request.str("machine", machine);
            request.str("strategy", strategy.name());
            request.str("workload", "livermore");
            requests.push_str(&request.finish());
            requests.push('\n');
            pairs.push((machine.to_string(), strategy.name()));
        }
    }

    // One worker and one pass per temperature: per-request wall times
    // then sum cleanly, with no queue or scheduler noise between them.
    let pass = |service: &Service, requests: &str, label: &str| -> Vec<(i64, i64, i64)> {
        let mut output: Vec<u8> = Vec::new();
        let stats = run_stream(service, requests.as_bytes(), &mut output, 1, 8)
            .unwrap_or_else(|e| panic!("{label} pass: {e}"));
        assert_eq!(stats.failures, 0, "{label} pass had failures");
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| {
                let fields = parse_flat(line).expect("response json");
                let get = |name: &str| {
                    fields
                        .int(name)
                        .unwrap_or_else(|| panic!("{label} response missing {name}"))
                };
                (get("wall_us"), get("cache_hits"), get("cache_misses"))
            })
            .collect()
    };
    let cold = pass(&service, &requests, "cold");
    let warm = pass(&service, &requests, "warm");
    assert_eq!(cold.len(), pairs.len());
    assert_eq!(warm.len(), pairs.len());
    // The warm set: the code the cold pass left in the cache.
    let cached = service.cache().expect("the service caches").footprint();

    println!("serve bench  (combined Livermore, cold vs warm through the compile service)");
    println!(
        "{:<8} {:<9} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "machine", "strategy", "cold ms", "warm ms", "speedup", "cold h/m", "warm h/m"
    );
    let mut speedups = Vec::new();
    for (i, (machine, strategy)) in pairs.iter().enumerate() {
        let (cw, ch, cm) = cold[i];
        let (ww, wh, wm) = warm[i];
        let speedup = cw as f64 / (ww.max(1)) as f64;
        speedups.push(speedup);
        println!(
            "{:<8} {:<9} {:>10.2} {:>10.2} {:>7.1}x {:>10} {:>10}",
            machine,
            strategy,
            cw as f64 / 1e3,
            ww as f64 / 1e3,
            speedup,
            format!("{ch}/{cm}"),
            format!("{wh}/{wm}")
        );
    }
    let geomean = marion_bench::geomean(&speedups);
    let cold_total: i64 = cold.iter().map(|(w, _, _)| w).sum();
    let warm_total: i64 = warm.iter().map(|(w, _, _)| w).sum();
    let total_speedup = cold_total as f64 / warm_total.max(1) as f64;
    println!("geomean warm speedup: {geomean:.1}x   total: {total_speedup:.1}x");
    println!(
        "warm set: {} cached instructions in {} bytes of code ({:.1} B/inst)",
        cached.insts,
        cached.bytes,
        cached.bytes as f64 / cached.insts.max(1) as f64
    );

    // Honesty pass: the same warm requests through a service with full
    // observability (tail sampling, access log) so the recorded numbers
    // include what the features cost, not just what they provide. The
    // observed service is primed cold first. One warm list is a few
    // milliseconds of sub-millisecond requests, so each pass sends it
    // OBSERVABILITY_REPEATS times, and the overhead is the median over
    // OBSERVABILITY_PAIRS warm baseline/observed pairs, alternating
    // which side of a pair runs first. `warm_observed_total_ms` is the
    // median observed pass per list, comparable to `warm_total_ms`.
    let log_path = std::env::temp_dir().join(format!("marion-bench-access-{}", std::process::id()));
    let observed_service = Service::new(&ServeConfig {
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    })
    .expect("observed service");
    let _ = pass(&observed_service, &requests, "observed-cold");
    let repeated = requests.repeat(OBSERVABILITY_REPEATS);
    let pass_requests = pairs.len() * OBSERVABILITY_REPEATS;
    let warm_ms = |service: &Service, label: &str| -> f64 {
        let served = pass(service, &repeated, label);
        assert_eq!(served.len(), pass_requests);
        served.iter().map(|(w, _, _)| *w).sum::<i64>() as f64 / 1e3
    };
    let mut overheads = Vec::new();
    let mut observed_ms = Vec::new();
    for pair in 0..OBSERVABILITY_PAIRS {
        let (base, observed) = if pair % 2 == 0 {
            let base = warm_ms(&service, "warm");
            (base, warm_ms(&observed_service, "observed-warm"))
        } else {
            let observed = warm_ms(&observed_service, "observed-warm");
            (warm_ms(&service, "warm"), observed)
        };
        overheads.push((observed - base) * 100.0 / base.max(1e-3));
        observed_ms.push(observed);
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let overhead_pct = median(overheads);
    let observed_total_ms = median(observed_ms) / OBSERVABILITY_REPEATS as f64;
    let access_log_bytes = std::fs::metadata(&log_path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&log_path).ok();
    println!(
        "observability overhead (warm, access log + tail sampling on, median of \
         {OBSERVABILITY_PAIRS} alternating pairs of {pass_requests}-request passes): \
         {observed_total_ms:.2} ms observed per list ({overhead_pct:+.1}%), \
         {access_log_bytes} access-log bytes"
    );

    let mut doc = ObjWriter::bench();
    doc.str("bench", "serve");
    doc.str("workload", "livermore_combined");
    doc.bool("smoke", smoke);
    doc.fixed("geomean_warm_speedup", geomean, 4);
    doc.fixed("total_warm_speedup", total_speedup, 4);
    doc.fixed("cold_total_ms", cold_total as f64 / 1e3, 4);
    doc.fixed("warm_total_ms", warm_total as f64 / 1e3, 4);
    doc.fixed("warm_observed_total_ms", observed_total_ms, 4);
    doc.fixed("observability_overhead_pct", overhead_pct, 4);
    doc.int("observability_pairs", OBSERVABILITY_PAIRS as i64);
    doc.int("observability_pass_requests", pass_requests as i64);
    doc.int("access_log_bytes", access_log_bytes as i64);
    doc.int("cached_insts", cached.insts as i64);
    doc.int("cached_code_bytes", cached.bytes as i64);
    let runs: Vec<ObjWriter> = pairs
        .iter()
        .enumerate()
        .map(|(i, (machine, strategy))| {
            let (cw, ch, cm) = cold[i];
            let (ww, wh, wm) = warm[i];
            let mut run = doc.nested();
            run.str("machine", machine);
            run.str("strategy", strategy);
            run.fixed("cold_ms", cw as f64 / 1e3, 4);
            run.fixed("warm_ms", ww as f64 / 1e3, 4);
            run.fixed("speedup", cw as f64 / (ww.max(1)) as f64, 4);
            run.int("cold_hits", ch);
            run.int("cold_misses", cm);
            run.int("warm_hits", wh);
            run.int("warm_misses", wm);
            run
        })
        .collect();
    doc.objs("runs", runs);
    std::fs::write(out, doc.finish()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}

/// The codegen-quality matrix: machines × strategies × workloads,
/// each cell one deterministic compile-and-simulate condensed into a
/// `ProgramQuality` row.
fn bench_quality(smoke: bool, out: &str) {
    let machines: Vec<&str> = if smoke {
        vec!["toyp", "r2000"]
    } else {
        marion_machines::EXTENDED.to_vec()
    };
    let workloads = if smoke {
        marion_bench::quality::smoke_workloads()
    } else {
        marion_bench::quality::full_workloads()
    };
    let runs = marion_bench::quality::sweep(&machines, &workloads);

    println!(
        "quality bench  ({} machines x {} strategies x {} workloads, deterministic cycles)",
        machines.len(),
        StrategyKind::ALL.len(),
        workloads.len()
    );
    println!(
        "{:<8} {:<9} {:<9} {:>10} {:>10} {:>9} {:>7} {:>7} {:>7}",
        "machine",
        "strategy",
        "workload",
        "sim cyc",
        "est cyc",
        "crit path",
        "drift%",
        "util",
        "stalls"
    );
    for run in &runs {
        let q = &run.quality;
        let t = q.total();
        println!(
            "{:<8} {:<9} {:<9} {:>10} {:>10} {:>9} {:>7.2} {:>7.3} {:>7}",
            q.machine,
            q.strategy,
            q.workload,
            q.sim_cycles,
            t.est_cycles,
            t.critical_path_cycles,
            q.drift_pct(),
            t.issue_utilization(),
            t.stalls.total()
        );
    }

    let json = marion_bench::quality::render_json(smoke, machines.len(), workloads.len(), &runs);
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}

/// Compiles every bundled machine × workload × strategy on the machine
/// and on its brute-force reference machine, and asserts the results
/// are identical.
fn crosscheck() {
    let machines = marion_machines::load_extended();
    let mut workloads: Vec<(String, Module)> = marion_workloads::livermore::kernels()
        .iter()
        .chain(marion_workloads::suite::programs().iter())
        .map(|w| (w.name.clone(), w.module()))
        .collect();
    workloads.push((
        "livermore_combined".into(),
        marion_workloads::multi::combined_livermore(),
    ));
    workloads.push((
        "generated_combined".into(),
        marion_workloads::multi::combined_generated(12, 42),
    ));

    let mut checked = 0usize;
    for spec in &machines {
        let reference = spec.machine.brute_force_reference();
        for (name, module) in &workloads {
            for strategy in [
                StrategyKind::Postpass,
                StrategyKind::Ips,
                StrategyKind::Rase,
            ] {
                let compile = |machine: &Machine| {
                    Compiler::with_options(
                        machine.clone(),
                        spec.escapes.clone(),
                        strategy,
                        options(1),
                    )
                    .compile_module(module)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", name, spec.machine.name()))
                };
                let indexed = compile(&spec.machine);
                let brute = compile(&reference);
                if indexed.render(&spec.machine) != brute.render(&spec.machine)
                    || indexed.stats != brute.stats
                {
                    eprintln!(
                        "CROSSCHECK FAILED: {} on {} ({strategy:?}): brute-force selection \
                         diverges from indexed selection",
                        name,
                        spec.machine.name()
                    );
                    std::process::exit(1);
                }
                checked += 1;
            }
        }
    }
    println!(
        "crosscheck ok: {checked} machine x workload x strategy combinations, \
         indexed == brute-force"
    );
}
