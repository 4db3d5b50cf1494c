//! The differential-audit harness.
//!
//! For one generated machine, every workload in the suite is compiled
//! under all three strategies with three independent cross-checks:
//!
//! * **block legality** — every scheduled block is replayed with
//!   recording on (`sched::explain_schedule`, which must reproduce the
//!   placement) and the replay re-checked with
//!   `explain::audit_schedule` (dependence, resource, packing class
//!   and Rule 1 legality, coverage and provenance) against the DAG its
//!   scheduling discipline used;
//! * **differential execution** — the compiled program runs on the
//!   pipeline simulator and its `main` result must equal the IR
//!   interpreter's checksum (computed once per workload, machines
//!   don't change IR semantics);
//! * **reproducibility** — one rotating (workload, strategy) pair per
//!   machine is compiled again through `Compiler::compile_module`, the
//!   entry point users call, and its rendered assembly must be
//!   byte-identical to the audited program's;
//! * **quality differentials** — every passing run's sim-measured and
//!   estimated cycles are recorded, and cross-strategy comparison
//!   flags a strategy drastically worse than the best on the same
//!   workload or an estimate implausibly far from the simulator —
//!   scheduler bugs that still produce correct code.
//!
//! The harness compiles each function with the driver's own
//! `Compiler::compile_func`, so the audited schedules are exactly the
//! ones behind the simulated program, then links them with
//! `Compiler::link` into the [`CompiledProgram`] `compile_module`
//! would build.

use marion_core::driver::{materialize_float_constants, CompiledProgram};
use marion_core::sched::SchedOptions;
use marion_core::{audited_replay, Compiler, EscapeRegistry, StrategyKind};
use marion_ir::interp::{Interp, Value};
use marion_maril::{Machine, Ty};
use marion_sim::{run_program, SimConfig};
use marion_trace::Tracer;
use marion_workloads::{livermore, suite, Workload};

/// A workload with its IR and interpreter checksum precomputed, so
/// the per-machine audit pays neither front-end nor interpreter cost.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Workload name (`LL3`, `nasker`, ...).
    pub name: String,
    /// C-subset source (kept for corpus entries).
    pub source: String,
    /// Compiled IR.
    pub module: marion_ir::Module,
    /// The interpreter's `main` checksum.
    pub expected: i64,
}

/// Prepares arbitrary workloads (used with probe programs too).
///
/// # Panics
///
/// Panics if a workload fails to compile or interpret — the bundled
/// suite is covered by its own tests, and probes are fixed strings.
pub fn prepare(workloads: &[Workload]) -> Vec<PreparedWorkload> {
    workloads
        .iter()
        .map(|w| {
            let module = w.module();
            let expected = interp_main(&module)
                .unwrap_or_else(|e| panic!("workload {}: interpreter: {e}", w.name));
            PreparedWorkload {
                name: w.name.clone(),
                source: w.source.clone(),
                module,
                expected,
            }
        })
        .collect()
}

/// The full audit suite: the compile-time programs (Table 3's
/// stand-ins) plus all fourteen Livermore kernels.
pub fn prepare_full_suite() -> Vec<PreparedWorkload> {
    let mut all = suite::programs();
    all.extend(livermore::kernels());
    prepare(&all)
}

/// A small deterministic subset for `--smoke` runs and CI: `sphot`
/// (the suite program that has caught every real fuzzer finding so
/// far — calls, doubles, spills) plus three short Livermore kernels
/// covering float pipelines, reductions, and control flow.
pub fn prepare_smoke_suite() -> Vec<PreparedWorkload> {
    let keep = ["sphot", "LL1", "LL3", "LL5"];
    let mut all = suite::programs();
    all.extend(livermore::kernels());
    all.retain(|w| keep.contains(&w.name.as_str()));
    prepare(&all)
}

/// Runs `main` in the IR interpreter and returns its integer result.
pub fn interp_main(module: &marion_ir::Module) -> Result<i64, String> {
    let mut interp = Interp::new(module, 1 << 22).with_budget(400_000_000);
    match interp.call_by_name("main", &[]) {
        Ok(Some(Value::I(v))) => Ok(v),
        Ok(other) => Err(format!("main returned {other:?}, expected an int")),
        Err(e) => Err(e.to_string()),
    }
}

/// What went wrong, at which stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Glue, selection, scheduling, allocation or emission refused a
    /// machine the front door accepted.
    Compile,
    /// `audit_schedule` rejected a block.
    BlockAudit,
    /// Simulator result differs from the interpreter checksum.
    Differential,
    /// Two compiles of the same input rendered different bytes.
    Reproducibility,
}

impl FailureKind {
    /// Stable lowercase tag (corpus files, JSON).
    pub fn tag(&self) -> &'static str {
        match self {
            FailureKind::Compile => "compile",
            FailureKind::BlockAudit => "block-audit",
            FailureKind::Differential => "differential",
            FailureKind::Reproducibility => "reproducibility",
        }
    }

    /// Parses [`FailureKind::tag`].
    pub fn from_tag(tag: &str) -> Option<FailureKind> {
        Some(match tag {
            "compile" => FailureKind::Compile,
            "block-audit" => FailureKind::BlockAudit,
            "differential" => FailureKind::Differential,
            "reproducibility" => FailureKind::Reproducibility,
            _ => return None,
        })
    }
}

/// One audit failure: which workload/strategy tripped, and how.
#[derive(Debug, Clone)]
pub struct AuditFailure {
    /// The check that failed.
    pub kind: FailureKind,
    /// Workload name.
    pub workload: String,
    /// Strategy in use.
    pub strategy: StrategyKind,
    /// Human-readable diagnosis.
    pub detail: String,
}

/// Sim-measured and estimated cycles for one passing
/// (workload, strategy) run — the raw material for cross-strategy
/// quality differentials. Only recorded when the differential check
/// itself passed: cycle counts from wrong code are noise.
#[derive(Debug, Clone)]
pub struct QualityObservation {
    /// Workload name.
    pub workload: String,
    /// Strategy that produced the code.
    pub strategy: StrategyKind,
    /// Simulator-measured cycles (with caches and memory system).
    pub sim_cycles: u64,
    /// Scheduler-estimated cycles for the same execution profile.
    pub est_cycles: u64,
}

/// A cross-strategy quality differential the audit could not explain:
/// either one strategy's code is drastically worse than the best
/// strategy on the same (machine, workload), or the schedule estimate
/// and the simulator disagree beyond any plausible cache effect. Both
/// point at scheduler or description bugs that still produce *correct*
/// code — exactly the class the checksum differential cannot see.
#[derive(Debug, Clone)]
pub struct QualityAnomaly {
    /// Workload name.
    pub workload: String,
    /// Strategy whose numbers look wrong.
    pub strategy: StrategyKind,
    /// Human-readable diagnosis.
    pub detail: String,
}

/// A strategy this much slower (in sim cycles) than the best strategy
/// on the same machine and workload is flagged. Generated machines
/// legitimately spread strategies far wider than the bundled ones —
/// deep exposed pipelines reward scheduling enormously — so the bound
/// is deliberately loose; it exists to catch pathological blowups
/// (a strategy emitting serialized code), not ordinary gaps.
pub const QUALITY_GAP_LIMIT: f64 = 3.0;

/// Sim/estimate ratio bounds. The simulator adds cache and memory
/// cycles the estimate excludes (ratio > 1 expected); a ratio below
/// 0.5 means the estimate double-counts, above 10 that the schedule
/// estimate misses most of the machine's real cost.
pub const QUALITY_DRIFT_RANGE: (f64, f64) = (0.5, 10.0);

/// The audit result for one machine.
#[derive(Debug, Clone, Default)]
pub struct MachineAudit {
    /// Non-empty blocks whose schedules passed both checkers.
    pub blocks_audited: usize,
    /// (workload × strategy) compilations performed.
    pub compilations: usize,
    /// Workloads differentially executed (sim vs interpreter).
    pub workloads_run: usize,
    /// Everything that failed.
    pub failures: Vec<AuditFailure>,
    /// Cycle observations from every passing run.
    pub quality: Vec<QualityObservation>,
}

impl MachineAudit {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Cross-strategy quality differentials: for every workload with
    /// observations from all strategies, flags any strategy more than
    /// [`QUALITY_GAP_LIMIT`]× the best strategy's sim cycles, and any
    /// run whose sim/estimate ratio falls outside
    /// [`QUALITY_DRIFT_RANGE`].
    pub fn quality_anomalies(&self) -> Vec<QualityAnomaly> {
        let mut anomalies = Vec::new();
        let mut workloads: Vec<&str> = self.quality.iter().map(|q| q.workload.as_str()).collect();
        workloads.dedup();
        for w in workloads {
            let obs: Vec<&QualityObservation> =
                self.quality.iter().filter(|q| q.workload == w).collect();
            let best = obs.iter().map(|q| q.sim_cycles).min().unwrap_or(0);
            for q in obs {
                if best > 0 && q.sim_cycles as f64 > best as f64 * QUALITY_GAP_LIMIT {
                    anomalies.push(QualityAnomaly {
                        workload: q.workload.clone(),
                        strategy: q.strategy,
                        detail: format!(
                            "sim {} cycles vs best strategy's {best} (> {QUALITY_GAP_LIMIT}x)",
                            q.sim_cycles
                        ),
                    });
                }
                if q.est_cycles > 0 {
                    let ratio = q.sim_cycles as f64 / q.est_cycles as f64;
                    let (lo, hi) = QUALITY_DRIFT_RANGE;
                    if ratio < lo || ratio > hi {
                        anomalies.push(QualityAnomaly {
                            workload: q.workload.clone(),
                            strategy: q.strategy,
                            detail: format!(
                                "sim {} vs estimate {} cycles (ratio {ratio:.2} outside \
                                 {lo}..{hi})",
                                q.sim_cycles, q.est_cycles
                            ),
                        });
                    }
                }
            }
        }
        anomalies
    }
}

/// Audits one machine over the prepared workloads.
///
/// `repro_rotation` picks which (workload, strategy) pair gets the
/// double-compile byte-identity check — callers rotate it per machine
/// so a 200-machine run covers many pairs without doubling every
/// compile.
pub fn audit_machine(
    machine: &Machine,
    escapes: &EscapeRegistry,
    workloads: &[PreparedWorkload],
    repro_rotation: usize,
) -> MachineAudit {
    let mut audit = MachineAudit::default();
    let compilers: Vec<Compiler> = StrategyKind::ALL
        .iter()
        .map(|&strategy| Compiler::new(machine.clone(), escapes.clone(), strategy))
        .collect();
    let pairs = workloads.len() * compilers.len();
    let repro_pick = if pairs == 0 {
        0
    } else {
        repro_rotation % pairs
    };
    for (wi, w) in workloads.iter().enumerate() {
        for (si, compiler) in compilers.iter().enumerate() {
            let pair_index = wi * compilers.len() + si;
            audit_one(compiler, w, pair_index == repro_pick, &mut audit);
        }
        audit.workloads_run += 1;
    }
    audit
}

/// Audits a single (workload, strategy) pair — the minimiser's and
/// corpus replayer's unit of reproduction. No reproducibility check.
pub fn audit_pair(
    machine: &Machine,
    escapes: &EscapeRegistry,
    w: &PreparedWorkload,
    strategy: StrategyKind,
) -> Vec<AuditFailure> {
    let mut audit = MachineAudit::default();
    let compiler = Compiler::new(machine.clone(), escapes.clone(), strategy);
    audit_one(&compiler, w, false, &mut audit);
    audit.failures
}

/// Compiles one workload with block auditing, then simulates and
/// cross-checks. Failures are appended to `audit`.
fn audit_one(
    compiler: &Compiler,
    w: &PreparedWorkload,
    check_repro: bool,
    audit: &mut MachineAudit,
) {
    let machine = compiler.machine();
    let strategy = compiler.strategy();
    let fail = |audit: &mut MachineAudit, kind, detail: String| {
        audit.failures.push(AuditFailure {
            kind,
            workload: w.name.clone(),
            strategy,
            detail,
        });
    };
    audit.compilations += 1;
    let (program, blocks) = match compile_audited(compiler, &w.module) {
        Ok(ok) => ok,
        Err((kind, detail)) => {
            fail(audit, kind, detail);
            return;
        }
    };
    audit.blocks_audited += blocks;
    if check_repro {
        audit.compilations += 1;
        match compiler.compile_module(&w.module) {
            Ok(second) => {
                if program.render(machine) != second.render(machine) {
                    fail(
                        audit,
                        FailureKind::Reproducibility,
                        "two compiles rendered different assembly".to_string(),
                    );
                }
            }
            Err(e) => {
                fail(
                    audit,
                    FailureKind::Reproducibility,
                    format!("second compile failed: {e}"),
                );
            }
        }
    }
    // The simulator is allowed to panic on machine-level type
    // confusion (a fuzzer finding in itself) — catch it and record a
    // differential failure instead of killing the whole run.
    let sim = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_program(
            machine,
            &program,
            "main",
            &[],
            Some(Ty::Int),
            &SimConfig::default(),
        )
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        Err(marion_sim::SimError(format!("simulator panicked: {msg}")))
    });
    match sim {
        Ok(run) => match run.result {
            Some(Value::I(got)) if got == w.expected => {
                audit.quality.push(QualityObservation {
                    workload: w.name.clone(),
                    strategy,
                    sim_cycles: run.cycles,
                    est_cycles: marion_sim::run::estimated_cycles(&program, &run.block_counts),
                });
            }
            Some(Value::I(got)) => fail(
                audit,
                FailureKind::Differential,
                format!("interp {} != sim {got}", w.expected),
            ),
            other => fail(
                audit,
                FailureKind::Differential,
                format!("sim returned {other:?}, expected {}", w.expected),
            ),
        },
        Err(e) => fail(audit, FailureKind::Differential, format!("simulator: {e}")),
    }
}

/// Compiles `module` one function at a time with
/// [`Compiler::compile_func`], audits every non-empty block's final
/// schedule with [`audited_replay`], and links the functions into the
/// program [`Compiler::compile_module`] would build. Returns the
/// program and the number of audited blocks.
pub fn compile_audited(
    compiler: &Compiler,
    module: &marion_ir::Module,
) -> Result<(CompiledProgram, usize), (FailureKind, String)> {
    let mut module = module.clone();
    materialize_float_constants(&mut module);
    let machine = compiler.machine();
    let tracer = Tracer::off();
    let mut funcs = Vec::with_capacity(module.funcs.len());
    let mut blocks_audited = 0usize;
    for func in &module.funcs {
        let f = compiler
            .compile_func(&module, func, &tracer)
            .map_err(|e| (FailureKind::Compile, format!("{}: {e}", func.name)))?;
        for (bi, (block, schedule)) in f.code.blocks.iter().zip(&f.schedules).enumerate() {
            if block.insts.is_empty() {
                continue;
            }
            // Every strategy's final pass runs with default options.
            audited_replay(machine, &f.code, block, schedule, &SchedOptions::default())
                .map_err(|e| (FailureKind::BlockAudit, format!("{}/b{bi}: {e}", func.name)))?;
            blocks_audited += 1;
        }
        funcs.push((f.asm, f.stats));
    }
    Ok((compiler.link(&module, funcs), blocks_audited))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit harness must agree with reality on a known-good
    /// machine: TOYP over one small kernel passes every check.
    #[test]
    fn toyp_passes_the_audit_on_a_small_kernel() {
        let spec = marion_machines::load("toyp");
        let kernels = livermore::kernels();
        let small: Vec<Workload> = kernels.into_iter().filter(|k| k.name == "LL3").collect();
        let prepared = prepare(&small);
        let audit = audit_machine(&spec.machine, &spec.escapes, &prepared, 0);
        assert!(audit.passed(), "failures: {:?}", audit.failures);
        assert!(audit.blocks_audited > 0);
        assert_eq!(audit.workloads_run, 1);
        // The rotation doubled exactly one compile.
        assert_eq!(audit.compilations, StrategyKind::ALL.len() + 1);
        // Every passing run left a cycle observation, and a known-good
        // machine shows no cross-strategy anomaly.
        assert_eq!(audit.quality.len(), StrategyKind::ALL.len());
        assert!(audit.quality.iter().all(|q| q.sim_cycles > 0));
        assert!(audit.quality_anomalies().is_empty());
    }

    /// The anomaly detector fires on a pathological gap and on
    /// implausible drift, and stays quiet inside the bounds.
    #[test]
    fn quality_anomalies_flag_gaps_and_drift() {
        let obs = |strategy, sim, est| QualityObservation {
            workload: "LL1".to_string(),
            strategy,
            sim_cycles: sim,
            est_cycles: est,
        };
        let mut audit = MachineAudit {
            quality: vec![
                obs(StrategyKind::Postpass, 1000, 900),
                obs(StrategyKind::Ips, 900, 850),
                obs(StrategyKind::Rase, 880, 840),
            ],
            ..MachineAudit::default()
        };
        assert!(audit.quality_anomalies().is_empty());
        // One strategy 4x the best: a gap anomaly.
        audit.quality[0].sim_cycles = 4000;
        let anomalies = audit.quality_anomalies();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert!(anomalies[0].detail.contains("best strategy"));
        // Estimate wildly below sim: a drift anomaly.
        audit.quality[0].sim_cycles = 1000;
        audit.quality[0].est_cycles = 50;
        let anomalies = audit.quality_anomalies();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert!(anomalies[0].detail.contains("ratio"));
    }
}
