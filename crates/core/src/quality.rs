//! Schedule-quality telemetry.
//!
//! The paper's evaluation is a code-quality story — per-kernel cycle
//! counts comparing Postpass, IPS and RASE across machines — and this
//! module gives that story a first-class, machine-readable record.
//! A [`QualityRecord`] summarises how good one compiled function's
//! schedules are; [`ProgramQuality`] pairs the per-function records
//! with one simulator run of the whole program and derives the
//! estimate-vs-measured drift. Everything here is assembled from data
//! the pipeline already produces (scheduler estimates, stall counts,
//! simulator counters) — no new instrumentation runs.
//!
//! Invariants (checked by [`ProgramQuality::validate`] and the
//! `quality_telemetry` integration tests):
//!
//! * `critical_path ≤ est_cycles`, per block, per function and in
//!   aggregate — the DAG dependence chain is a lower bound no legal
//!   schedule can beat;
//! * every field is a pure function of the compiler inputs, so two
//!   compiles of the same module (cold or through the compile cache)
//!   produce byte-identical records.
//!
//! The consumers: `marion-bench quality` sweeps machines × strategies
//! × workloads into `BENCH_quality.json` (the committed quality
//! matrix, gated exactly by `marion-bench diff --tolerance 0`),
//! `marion-fuzz` compares strategies against each other on generated
//! machines, and the HTML report renders the "quality observatory"
//! section from the JSON.

use crate::driver::CompiledProgram;
use crate::explain::StallReason;
use crate::sched::Schedule;
use std::collections::HashMap;

/// Stall-cycle keys, in the fixed order used everywhere a breakdown is
/// serialised (matches [`crate::explain::StallReason::key`]).
pub const STALL_KEYS: [&str; 7] = [
    "dependence",
    "resource",
    "class",
    "temporal",
    "pressure",
    "order",
    "other",
];

/// Stall cycles bucketed by [`crate::explain::StallReason::key`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    pub dependence: u64,
    pub resource: u64,
    pub class: u64,
    pub temporal: u64,
    pub pressure: u64,
    pub order: u64,
    pub other: u64,
}

impl StallBreakdown {
    /// Adds `cycles` to the bucket of `reason`.
    pub fn add(&mut self, reason: StallReason, cycles: u64) {
        let bucket = match reason {
            StallReason::Dependence { .. } => &mut self.dependence,
            StallReason::Resource { .. } => &mut self.resource,
            StallReason::ClassPacking => &mut self.class,
            StallReason::Temporal { .. } => &mut self.temporal,
            StallReason::RegPressure => &mut self.pressure,
            StallReason::ThreadOrder => &mut self.order,
            StallReason::Other => &mut self.other,
        };
        *bucket += cycles;
    }

    /// Accumulates another breakdown, scaled by `weight` (block
    /// execution count).
    pub fn add_weighted(&mut self, other: &StallBreakdown, weight: u64) {
        self.dependence += other.dependence * weight;
        self.resource += other.resource * weight;
        self.class += other.class * weight;
        self.temporal += other.temporal * weight;
        self.pressure += other.pressure * weight;
        self.order += other.order * weight;
        self.other += other.other * weight;
    }

    /// `(key, cycles)` pairs in [`STALL_KEYS`] order.
    pub fn as_pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("dependence", self.dependence),
            ("resource", self.resource),
            ("class", self.class),
            ("temporal", self.temporal),
            ("pressure", self.pressure),
            ("order", self.order),
            ("other", self.other),
        ]
    }

    /// Total stalled cycles of every kind.
    pub fn total(&self) -> u64 {
        self.as_pairs().iter().map(|(_, c)| c).sum()
    }
}

/// Static per-block schedule quality, recorded once at compile time
/// and carried in [`crate::driver::FuncStats`] (index-aligned with the
/// function's emitted blocks). All counts are for *one* execution of
/// the block; consumers weight them by block execution counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockQuality {
    /// The scheduler's cycle estimate (== the emitted block's
    /// `est_cycles`).
    pub est_cycles: u32,
    /// The DAG critical-path lower bound in cycles
    /// ([`crate::explain::critical_path_cycles`]); never above
    /// `est_cycles`.
    pub critical_path_cycles: u32,
    /// Sub-operations issued.
    pub issue_slots_used: u32,
    /// Cycles that issued at least one sub-operation.
    pub issue_cycles: u32,
    /// Stalled cycles by reason, as the scheduler tallied them.
    pub stalls: StallBreakdown,
}

impl BlockQuality {
    /// Extracts one block's quality from its final schedule.
    pub fn from_schedule(schedule: &Schedule) -> BlockQuality {
        BlockQuality {
            est_cycles: schedule.length,
            critical_path_cycles: schedule.explanation.critical_path_cycles,
            issue_slots_used: schedule.metrics.issue_slots_used as u32,
            issue_cycles: schedule.metrics.issue_cycles as u32,
            stalls: schedule.explanation.stalls,
        }
    }
}

/// Schedule-quality telemetry for one compiled function. Produced by
/// [`records_for_program`]: static per-block data weighted by the
/// block execution counts of one simulator run, so the numbers answer
/// "where did this function's cycles go" for that run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QualityRecord {
    /// Function name.
    pub func: String,
    /// Scheduler-estimated cycles (Σ block estimate × executions).
    pub est_cycles: u64,
    /// DAG critical-path lower bound over the same profile; invariant
    /// `critical_path_cycles ≤ est_cycles`.
    pub critical_path_cycles: u64,
    /// Stalled cycles by reason over the same profile.
    pub stalls: StallBreakdown,
    /// Sub-operations issued over the profile (utilization numerator).
    pub issue_slots_used: u64,
    /// Cycles that issued at least one sub-operation (denominator).
    pub issue_cycles: u64,
    /// Spill stores inserted by the allocator (static count).
    pub spills: u64,
    /// `nop` instructions in the emitted code (static count).
    pub nops_emitted: u64,
    /// Delay slots the filler replaced with useful work (static).
    pub delay_slots_filled: u64,
}

impl QualityRecord {
    /// Sub-operations per issuing cycle (1.0 on single-issue machines,
    /// above it when long words pack).
    pub fn issue_utilization(&self) -> f64 {
        self.issue_slots_used as f64 / self.issue_cycles.max(1) as f64
    }

    /// Fraction of delay slots the filler closed with useful work;
    /// the remainder retired as `nop`s. 1.0 when the function had no
    /// delay slots at all.
    pub fn delay_slot_fill_rate(&self) -> f64 {
        let total = self.delay_slots_filled + self.nops_emitted;
        if total == 0 {
            1.0
        } else {
            self.delay_slots_filled as f64 / total as f64
        }
    }

    /// Folds another record into this one (aggregation across
    /// functions).
    pub fn accumulate(&mut self, other: &QualityRecord) {
        self.est_cycles += other.est_cycles;
        self.critical_path_cycles += other.critical_path_cycles;
        self.stalls.add_weighted(&other.stalls, 1);
        self.issue_slots_used += other.issue_slots_used;
        self.issue_cycles += other.issue_cycles;
        self.spills += other.spills;
        self.nops_emitted += other.nops_emitted;
        self.delay_slots_filled += other.delay_slots_filled;
    }

    /// Checks the record's internal invariant.
    ///
    /// # Errors
    ///
    /// Describes the violated inequality.
    pub fn validate(&self) -> Result<(), String> {
        if self.critical_path_cycles > self.est_cycles {
            return Err(format!(
                "{}: critical path {} exceeds estimated cycles {}",
                self.func, self.critical_path_cycles, self.est_cycles
            ));
        }
        Ok(())
    }
}

/// Per-function quality records for one compiled program, weighted by
/// the block execution counts of one run (`counts` maps
/// `(func_index, block_index)` to executions, as produced by the
/// simulator). Blocks the run never reached weigh zero.
pub fn records_for_program(
    program: &CompiledProgram,
    counts: &HashMap<(usize, usize), u64>,
) -> Vec<QualityRecord> {
    program
        .asm
        .funcs
        .iter()
        .zip(&program.stats.per_func)
        .enumerate()
        .map(|(fi, (asm, fs))| {
            let mut r = QualityRecord {
                func: asm.name.clone(),
                spills: fs.spills as u64,
                nops_emitted: fs.nops_emitted as u64,
                delay_slots_filled: fs.delay_slots_filled as u64,
                ..QualityRecord::default()
            };
            for (bi, bq) in fs.blocks.iter().enumerate() {
                let weight = counts.get(&(fi, bi)).copied().unwrap_or(0);
                r.est_cycles += bq.est_cycles as u64 * weight;
                r.critical_path_cycles += bq.critical_path_cycles as u64 * weight;
                r.issue_slots_used += bq.issue_slots_used as u64 * weight;
                r.issue_cycles += bq.issue_cycles as u64 * weight;
                r.stalls.add_weighted(&bq.stalls, weight);
            }
            r
        })
        .collect()
}

/// One program's quality story: the per-function records for a run's
/// execution profile plus the simulator's measured cycles for that
/// same run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramQuality {
    /// Machine name.
    pub machine: String,
    /// Strategy name (`postpass` / `ips` / `rase`).
    pub strategy: String,
    /// Workload name.
    pub workload: String,
    /// Simulator-measured cycles for the run.
    pub sim_cycles: u64,
    /// `nop`s the simulator retired during the run.
    pub nops_retired: u64,
    /// Per-function records, in program order.
    pub funcs: Vec<QualityRecord>,
}

impl ProgramQuality {
    /// Assembles the full record for one (program, run) pair.
    /// `sim_cycles`/`nops_retired`/`counts` come from the simulator's
    /// `RunResult` (the sim crate sits above this one, so the fields
    /// arrive as plain values).
    pub fn assemble(
        program: &CompiledProgram,
        workload: &str,
        sim_cycles: u64,
        nops_retired: u64,
        counts: &HashMap<(usize, usize), u64>,
    ) -> ProgramQuality {
        ProgramQuality {
            machine: program.machine_name.clone(),
            strategy: program.strategy.name().to_string(),
            workload: workload.to_string(),
            sim_cycles,
            nops_retired,
            funcs: records_for_program(program, counts),
        }
    }

    /// The aggregate record over every function (`func` = `"*"`).
    pub fn total(&self) -> QualityRecord {
        let mut t = QualityRecord {
            func: "*".to_string(),
            ..QualityRecord::default()
        };
        for f in &self.funcs {
            t.accumulate(f);
        }
        t
    }

    /// Signed estimate drift: `(sim − est) / est × 100`. Positive
    /// means the schedule estimate was optimistic (caches, call
    /// overhead and inter-block effects the per-block estimate cannot
    /// see); negative means pessimistic (overlap across block
    /// boundaries the simulator exploits).
    pub fn drift_pct(&self) -> f64 {
        let est = self.total().est_cycles;
        if est == 0 {
            return 0.0;
        }
        (self.sim_cycles as f64 - est as f64) / est as f64 * 100.0
    }

    /// Checks every per-function invariant plus the aggregate.
    ///
    /// # Errors
    ///
    /// Describes the first violated inequality.
    pub fn validate(&self) -> Result<(), String> {
        let ctx = format!("{}/{}/{}", self.machine, self.strategy, self.workload);
        for f in &self.funcs {
            f.validate().map_err(|e| format!("{ctx}: {e}"))?;
        }
        self.total().validate().map_err(|e| format!("{ctx}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_breakdown_buckets_and_totals() {
        let mut s = StallBreakdown::default();
        let dependence = StallReason::Dependence {
            pred: 0,
            kind: crate::dag::EdgeKind::True,
            latency: 3,
        };
        s.add(dependence, 3);
        s.add(StallReason::Resource { resource: 4 }, 2);
        s.add(StallReason::Other, 1);
        assert_eq!(s.dependence, 3);
        assert_eq!(s.other, 1);
        assert_eq!(s.total(), 6);
        let mut t = StallBreakdown::default();
        t.add_weighted(&s, 10);
        assert_eq!(t.total(), 60);
        assert_eq!(t.resource, 20);
    }

    #[test]
    fn record_invariant_and_rates() {
        let mut r = QualityRecord {
            func: "f".into(),
            est_cycles: 10,
            critical_path_cycles: 7,
            issue_slots_used: 12,
            issue_cycles: 8,
            delay_slots_filled: 3,
            nops_emitted: 1,
            ..QualityRecord::default()
        };
        assert!(r.validate().is_ok());
        assert!((r.issue_utilization() - 1.5).abs() < 1e-12);
        assert!((r.delay_slot_fill_rate() - 0.75).abs() < 1e-12);
        r.critical_path_cycles = 11;
        assert!(r.validate().is_err());
    }

    #[test]
    fn empty_record_rates_are_defined() {
        let r = QualityRecord::default();
        assert!((r.issue_utilization() - 0.0).abs() < 1e-12);
        assert!((r.delay_slot_fill_rate() - 1.0).abs() < 1e-12);
    }
}
