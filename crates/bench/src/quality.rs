//! The codegen-quality matrix behind `marion-bench quality`.
//!
//! Sweeps every bundled machine × strategy × workload, assembling one
//! [`ProgramQuality`] per cell from a single compile-and-simulate
//! ([`crate::measure`]), and renders the matrix as
//! `BENCH_quality.json`. Cycle counts are deterministic — the
//! simulator has no noise sources — so the committed matrix is gated
//! *exactly* (`marion-bench diff --tolerance 0`): any kernel whose
//! sim-measured or estimated cycles regress fails CI.
//!
//! The same JSON feeds the `speedup` paper-table binary (per-machine
//! strategy speedups without re-measuring) and the HTML report's
//! "quality observatory" section.

use marion_core::quality::ProgramQuality;
use marion_core::StrategyKind;
use marion_sim::SimConfig;
use marion_trace::json::ObjWriter;
use marion_workloads::Workload;

/// One swept cell: the quality record plus its derived aggregates.
pub struct QualityRun {
    /// The assembled program-level record.
    pub quality: ProgramQuality,
}

/// The workloads of the full quality matrix: all fourteen Livermore
/// kernels plus the compute-intensive suite programs (everything but
/// the integer-branchy `lcc` stand-in) — the same set the paper's §5
/// speedup headline measures.
pub fn full_workloads() -> Vec<Workload> {
    let mut all = marion_workloads::livermore::kernels();
    all.extend(
        marion_workloads::suite::programs()
            .into_iter()
            .filter(|w| w.name != "lcc"),
    );
    all
}

/// The smoke subset (CI): the same four workloads the retargeting
/// fuzzer smokes with — `sphot` plus three short Livermore kernels.
pub fn smoke_workloads() -> Vec<Workload> {
    let keep = ["sphot", "LL1", "LL3", "LL5"];
    full_workloads()
        .into_iter()
        .filter(|w| keep.contains(&w.name.as_str()))
        .collect()
}

/// Sweeps `machines` × `StrategyKind::ALL` × `workloads` and returns
/// one verified run per cell, in deterministic order.
///
/// # Panics
///
/// Panics when a cell miscompiles, its checksum diverges from the IR
/// interpreter, or a quality invariant fails — the bench must never
/// write a matrix describing wrong code.
pub fn sweep(machines: &[&str], workloads: &[Workload]) -> Vec<QualityRun> {
    let config = SimConfig::default();
    let mut runs = Vec::new();
    for &machine in machines {
        let spec = marion_machines::load(machine);
        for w in workloads {
            for &strategy in &StrategyKind::ALL {
                let m = crate::measure(&spec, strategy, w, &config);
                crate::verify_against_interp(w, &m);
                let quality = ProgramQuality::assemble(
                    &m.program,
                    &w.name,
                    m.run.cycles,
                    m.run.nops_retired,
                    &m.run.block_counts,
                );
                // The record's weighted estimate must agree with the
                // simulator's own estimate accounting.
                assert_eq!(
                    quality.total().est_cycles,
                    m.estimated_cycles,
                    "{machine}/{}/{}: quality estimate disagrees with the simulator's",
                    strategy.name(),
                    w.name
                );
                quality
                    .validate()
                    .unwrap_or_else(|e| panic!("quality invariant: {e}"));
                runs.push(QualityRun { quality });
            }
        }
    }
    runs
}

/// Renders the matrix as the `BENCH_quality.json` document.
pub fn render_json(smoke: bool, machines: usize, workloads: usize, runs: &[QualityRun]) -> String {
    let mut doc = ObjWriter::bench();
    doc.str("bench", "quality");
    doc.bool("smoke", smoke);
    doc.int("machines", machines as i64);
    doc.int("strategies", StrategyKind::ALL.len() as i64);
    doc.int("workloads", workloads as i64);
    let rows: Vec<ObjWriter> = runs
        .iter()
        .map(|run| {
            let q = &run.quality;
            let t = q.total();
            let mut row = doc.nested();
            row.str("machine", &q.machine);
            row.str("strategy", &q.strategy);
            row.str("workload", &q.workload);
            row.int("sim_cycles", q.sim_cycles as i64);
            row.int("est_cycles", t.est_cycles as i64);
            row.int("critical_path", t.critical_path_cycles as i64);
            row.fixed("drift_pct", q.drift_pct(), 2);
            for (key, cycles) in t.stalls.as_pairs() {
                row.int(&format!("stall_{key}"), cycles as i64);
            }
            row.int("stall_total", t.stalls.total() as i64);
            row.fixed("issue_utilization", t.issue_utilization(), 4);
            row.int("spills", t.spills as i64);
            row.int("nops_emitted", t.nops_emitted as i64);
            row.int("nops_retired", q.nops_retired as i64);
            row.int("delay_slots_filled", t.delay_slots_filled as i64);
            row.fixed("delay_slot_fill_rate", t.delay_slot_fill_rate(), 4);
            row
        })
        .collect();
    doc.objs("runs", rows);
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_trace::json::Json;

    #[test]
    fn smoke_sweep_on_toyp_is_valid_and_deterministic() {
        let workloads: Vec<Workload> = smoke_workloads()
            .into_iter()
            .filter(|w| w.name == "LL5")
            .collect();
        let a = sweep(&["toyp"], &workloads);
        let b = sweep(&["toyp"], &workloads);
        assert_eq!(a.len(), StrategyKind::ALL.len());
        let ja = render_json(true, 1, 1, &a);
        let jb = render_json(true, 1, 1, &b);
        assert_eq!(ja, jb, "quality matrix must be byte-deterministic");
        // The document parses and every run carries the gated keys.
        let doc = Json::parse(&ja).expect("valid json");
        for run in doc.arr("runs").unwrap() {
            assert!(run.num("sim_cycles").is_some());
            assert!(run.num("est_cycles").is_some());
        }
    }
}
