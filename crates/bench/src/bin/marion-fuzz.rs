//! `marion-fuzz` — the retargeting fuzzer.
//!
//! Generates seeded machine descriptions with `marion-mdgen`, pushes
//! each through the real Maril front door, and runs the differential
//! audit: every workload × strategy is compiled with per-block
//! legality/provenance auditing, executed on the pipeline simulator,
//! and cross-checked against the IR reference interpreter, with one
//! rotating (workload, strategy) pair per machine double-compiled for
//! byte-identical reproducibility. Every passing run also records its
//! sim-measured and estimated cycles, and cross-strategy comparison
//! flags quality anomalies — a strategy drastically worse than the
//! best on the same workload, or estimate drift beyond any plausible
//! cache effect (`quality_anomalies` in the JSON; CI expects zero).
//!
//! ```text
//! marion-fuzz [--seed S] [--count N] [--smoke] [--out PATH] [--corpus DIR]
//! ```
//!
//! * `--seed S` base seed (default 0); machine k uses seed S+k.
//! * `--count N` machines to generate and audit (default 200).
//! * `--smoke` CI mode: 4 machines over the reduced workload subset,
//!   writing `BENCH_retarget_smoke.json`.
//! * `--out PATH` where the JSON record lands (default
//!   `BENCH_retarget.json`).
//! * `--corpus DIR` where minimised reproducers land (default
//!   `corpus/`).
//!
//! Any failure is minimised (machine knobs shrunk, then the workload
//! swapped for the simplest reproducing probe) and written into the
//! corpus directory as a replayable entry; the binary then exits 1.
//! Duplicate machine texts across seeds also fail the run — the
//! generator's value is breadth, and silent collapse would fake it.

use marion_mdgen::audit::{prepare_full_suite, prepare_smoke_suite};
use marion_mdgen::corpus::{write_entry, CorpusEntry};
use marion_mdgen::minimize::minimize;
use marion_trace::json::ObjWriter;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 0;
    let mut count: usize = 200;
    let mut count_given = false;
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut corpus_dir = "corpus".to_string();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("marion-fuzz: {flag} needs a value");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = value(&args, &mut i, "--seed");
                seed = v.parse().unwrap_or_else(|e| {
                    eprintln!("marion-fuzz: bad --seed `{v}`: {e}");
                    std::process::exit(2);
                });
            }
            "--count" => {
                let v = value(&args, &mut i, "--count");
                count = v.parse().unwrap_or_else(|e| {
                    eprintln!("marion-fuzz: bad --count `{v}`: {e}");
                    std::process::exit(2);
                });
                count_given = true;
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(value(&args, &mut i, "--out")),
            "--corpus" => corpus_dir = value(&args, &mut i, "--corpus"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: marion-fuzz [--seed S] [--count N] [--smoke] \
                     [--out PATH] [--corpus DIR]"
                );
                std::process::exit(2);
            }
            other => {
                eprintln!("marion-fuzz: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if smoke && !count_given {
        count = 4;
    }
    // Machine k uses seed S+k, written to the bench file as a JSON
    // integer (i64).
    let last_seed = seed.saturating_add((count as u64).saturating_sub(1));
    if last_seed > i64::MAX as u64 {
        eprintln!("marion-fuzz: seeds past {} are not supported", i64::MAX);
        std::process::exit(2);
    }
    let out = out.unwrap_or_else(|| {
        if smoke {
            "BENCH_retarget_smoke.json".to_string()
        } else {
            "BENCH_retarget.json".to_string()
        }
    });

    eprintln!(
        "marion-fuzz: {count} machines from seed {seed} ({} suite)",
        if smoke { "smoke" } else { "full" }
    );
    let workloads = if smoke {
        prepare_smoke_suite()
    } else {
        prepare_full_suite()
    };
    let escapes = marion_machines::toyp::escapes();

    let t0 = Instant::now();
    let mut distinct: HashSet<String> = HashSet::new();
    let mut blocks_audited = 0usize;
    let mut compilations = 0usize;
    let mut failing_machines = 0usize;
    let mut duplicate_machines = 0usize;
    let mut quality_runs = 0usize;
    let mut quality_anomalies = 0usize;
    let mut doc = ObjWriter::bench();
    let mut runs = Vec::new();
    for k in 0..count {
        let s = seed + k as u64;
        let gen = match marion_mdgen::generate(s) {
            Ok(g) => g,
            Err(e) => {
                // The generator's contract is that every seed emits a
                // description the front door accepts; a rejection is
                // itself a finding.
                eprintln!("seed {s}: front door rejected generated text: {e}");
                failing_machines += 1;
                continue;
            }
        };
        let is_new = distinct.insert(gen.text.clone());
        if !is_new {
            eprintln!(
                "seed {s}: duplicate of an earlier machine ({})",
                gen.config.summary()
            );
            duplicate_machines += 1;
        }
        let machine = match gen.machine() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("seed {s}: canonical text failed to re-parse: {e}");
                failing_machines += 1;
                continue;
            }
        };
        let audit = marion_mdgen::audit_machine(&machine, &escapes, &workloads, k);
        blocks_audited += audit.blocks_audited;
        compilations += audit.compilations;
        // Cross-strategy quality differentials: correct-but-terrible
        // code (one strategy far worse than the best, or an estimate
        // implausibly far from the simulator) is a finding the
        // checksum can't see. Anomalies are reported, not failures:
        // they flag schedules for a human, the gate greps the count.
        let anomalies = audit.quality_anomalies();
        for a in &anomalies {
            eprintln!(
                "seed {s}: QUALITY {} {}: {}",
                a.workload,
                a.strategy.name(),
                a.detail
            );
        }
        quality_anomalies += anomalies.len();
        quality_runs += audit.quality.len();
        let status = if audit.passed() { "ok" } else { "fail" };
        let mut run = doc.nested();
        run.int("seed", s as i64);
        run.str("summary", &gen.config.summary());
        run.int("blocks_audited", audit.blocks_audited as i64);
        run.int("quality_runs", audit.quality.len() as i64);
        run.int("quality_anomalies", anomalies.len() as i64);
        run.str("status", status);
        runs.push(run);
        if audit.passed() {
            if (k + 1) % 10 == 0 || k + 1 == count {
                eprintln!(
                    "  {}/{count} audited ({} blocks, {:.1}s)",
                    k + 1,
                    blocks_audited,
                    t0.elapsed().as_secs_f64()
                );
            }
            continue;
        }
        failing_machines += 1;
        for f in &audit.failures {
            eprintln!(
                "seed {s}: FAIL {} {} {}: {}",
                f.kind.tag(),
                f.workload,
                f.strategy.name(),
                f.detail
            );
        }
        // Minimise the first failure and drop it into the corpus.
        let f = &audit.failures[0];
        let entry = match workloads.iter().find(|w| w.name == f.workload) {
            Some(w) => {
                eprintln!("seed {s}: minimising…");
                let min = minimize(&gen, &escapes, w, f);
                eprintln!(
                    "seed {s}: minimised to `{}` on {} (steps: {:?})",
                    min.machine.config.summary(),
                    min.workload_name,
                    min.steps_applied
                );
                CorpusEntry::from_minimized(&min)
            }
            None => CorpusEntry {
                seed: s,
                kind: f.kind,
                strategy: f.strategy,
                workload: f.workload.clone(),
                summary: gen.config.summary(),
                detail: f.detail.replace('\n', " "),
                machine_text: gen.text.clone(),
                program: String::new(),
            },
        };
        match write_entry(Path::new(&corpus_dir), &entry) {
            Ok(path) => eprintln!("seed {s}: reproducer written to {}", path.display()),
            Err(e) => eprintln!("seed {s}: could not write reproducer: {e}"),
        }
    }

    let elapsed = t0.elapsed().as_secs_f64();
    let machines_per_sec = if elapsed > 0.0 {
        count as f64 / elapsed
    } else {
        0.0
    };
    doc.str("bench", "retarget");
    doc.int("seed", seed as i64);
    doc.int("count", count as i64);
    doc.int("distinct_machines", distinct.len() as i64);
    doc.int("duplicate_machines", duplicate_machines as i64);
    doc.int("workloads", workloads.len() as i64);
    doc.int("strategies", marion_core::StrategyKind::ALL.len() as i64);
    doc.int("compilations", compilations as i64);
    doc.int("blocks_audited", blocks_audited as i64);
    doc.int("failing_machines", failing_machines as i64);
    doc.int("quality_runs", quality_runs as i64);
    doc.int("quality_anomalies", quality_anomalies as i64);
    doc.fixed("elapsed_sec", elapsed, 1);
    doc.fixed("machines_per_sec", machines_per_sec, 3);
    doc.objs("runs", runs);
    if let Err(e) = std::fs::write(&out, doc.finish()) {
        eprintln!("marion-fuzz: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "marion-fuzz: {} distinct machines, {compilations} compilations, \
         {blocks_audited} blocks audited in {elapsed:.1}s ({machines_per_sec:.3} machines/sec) -> {out}",
        distinct.len()
    );
    eprintln!(
        "marion-fuzz: {quality_runs} quality observations, \
         {quality_anomalies} cross-strategy anomalies"
    );
    if failing_machines > 0 || duplicate_machines > 0 {
        eprintln!(
            "marion-fuzz: {failing_machines} failing, {duplicate_machines} duplicate — \
             see {corpus_dir}/"
        );
        std::process::exit(1);
    }
    eprintln!("marion-fuzz: all machines passed the differential audit");
}
