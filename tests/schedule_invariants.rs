//! Property: every schedule the compiler produces satisfies the
//! paper's constraints — dependences, structural hazards, packing
//! classes and Rule 1 — and its recording replay
//! ([`sched::explain_schedule`]) carries provenance that accounts for
//! every stall, as checked by [`marion::backend::audit_schedule`].
//! Random programs on every machine, plus the Livermore kernels on the
//! EAP machine.
//!
//! Random programs come from deterministic in-repo seeds
//! ([`marion::rng::SplitMix64`]); a failure names its seed
//! and reproduces exactly.

use marion::backend::code::{CodeBlock, CodeFunc};
use marion::backend::dag::{build_dag, build_dag_with};
use marion::backend::{audit_schedule, explain::Discipline, sched::Schedule};
use marion::backend::{regalloc::allocate, sched, select::select_func};
use marion::maril::Machine;
use marion::rng::SplitMix64;
use marion::workloads::gen::{random_program, GenConfig};

/// The recording replay of `schedule`, which must reproduce it.
fn replay(machine: &Machine, code: &CodeFunc, block: &CodeBlock, schedule: &Schedule) -> Schedule {
    sched::explain_schedule(machine, code, block, schedule, &Default::default())
        .unwrap_or_else(|e| panic!("{}: replay: {e}", machine.name()))
}

/// Every placed instruction's stall tiles must exactly account for
/// the gap between its ready and issue cycles (the provenance
/// acceptance identity).
fn assert_stalls_account(machine_name: &str, block: &CodeBlock, schedule: &Schedule) {
    let records = &schedule.explanation.records;
    assert_eq!(records.len(), block.insts.len(), "{machine_name}: records");
    for r in records {
        assert_eq!(
            r.stall_cycles(),
            r.issue_cycle - r.ready_cycle,
            "{machine_name}: [{}] stall tiles don't cover ready {} .. issue {}: {:?}",
            r.inst,
            r.ready_cycle,
            r.issue_cycle,
            r.stalls
        );
    }
}

/// Select, allocate (Postpass-style) and schedule every block,
/// verifying each schedule.
fn check_all_schedules(machine_name: &str, src: &str) {
    let spec = marion::machines::load(machine_name);
    let mut module = marion::frontend::compile(src).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let code_res = select_func(&spec.machine, &spec.escapes, &module, &f);
        let mut code = code_res.unwrap_or_else(|e| panic!("{machine_name}: select: {e}"));
        if allocate(&spec.machine, &mut code, &Default::default()).is_err() {
            // Structural overcommit on tiny machines is handled by the
            // strategies' fallbacks; scheduling invariants are then
            // checked through the driver path instead.
            continue;
        }
        for block in &code.blocks {
            if block.insts.is_empty() {
                continue;
            }
            let dag = build_dag(&spec.machine, block, true);
            match sched::schedule_block(&spec.machine, &code, block, &dag, &Default::default()) {
                Ok(schedule) => {
                    let schedule = replay(&spec.machine, &code, block, &schedule);
                    audit_schedule(&spec.machine, block, &dag, &schedule, true)
                        .unwrap_or_else(|e| panic!("{machine_name}: invalid schedule: {e}"));
                    assert_stalls_account(machine_name, block, &schedule);
                }
                Err(_) => {
                    // The strategies' fallback discipline: latch
                    // name-dependences instead of Rule 1. Verified
                    // against its own DAG, minus the Rule 1 check.
                    let dag2 = build_dag_with(&spec.machine, block, true, true);
                    let opts = sched::SchedOptions {
                        ignore_rule1: true,
                        ..Default::default()
                    };
                    let schedule =
                        match sched::schedule_block(&spec.machine, &code, block, &dag2, &opts) {
                            Ok(s) => s,
                            Err(_) => sched::serial_schedule(&spec.machine, block, &dag2),
                        };
                    let schedule = replay(&spec.machine, &code, block, &schedule);
                    audit_schedule(&spec.machine, block, &dag2, &schedule, false)
                        .unwrap_or_else(|e| panic!("{machine_name}: invalid fallback: {e}"));
                    assert_stalls_account(machine_name, block, &schedule);
                }
            }
        }
    }
}

#[test]
fn schedules_valid_on_all_machines() {
    // 16 deterministic random programs (the proptest suite ran 16
    // cases), each checked on every bundled machine.
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..16 {
        let seed = rng.below(100_000);
        let src = random_program(seed, &GenConfig::default());
        for machine in marion::machines::EXTENDED {
            check_all_schedules(machine, &src);
        }
    }
}

#[test]
fn livermore_schedules_valid_on_i860() {
    // The EAP machine is where Rule 1 and packing classes bite.
    for kernel in marion::workloads::livermore::kernels() {
        check_all_schedules("i860", &kernel.source);
    }
}

#[test]
fn serial_fallback_schedules_are_valid_too() {
    let spec = marion::machines::load("i860");
    let kernels = marion::workloads::livermore::kernels();
    let ll7 = kernels.iter().find(|k| k.name == "LL7").unwrap();
    let mut module = ll7.module();
    marion::backend::driver::materialize_float_constants(&mut module);
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
        for block in &code.blocks {
            if block.insts.is_empty() {
                continue;
            }
            // NoSched's serial schedule over the plain DAG, and the
            // ladder's serial rung over the DAG with latch
            // name-dependences.
            let plain = build_dag(&spec.machine, block, true);
            let mut nosched = sched::serial_schedule(&spec.machine, block, &plain);
            nosched.explanation.discipline = Discipline::NoSched.name();
            let named = build_dag_with(&spec.machine, block, true, true);
            let serial = sched::serial_schedule(&spec.machine, block, &named);
            assert_eq!(serial.explanation.discipline, Discipline::Serial.name());
            for (dag, schedule) in [(&plain, &nosched), (&named, &serial)] {
                let schedule = replay(&spec.machine, &code, block, schedule);
                // The serial fallback must satisfy dependences and
                // resources, and its records must match this DAG;
                // Rule 1 is intentionally waived for it (the
                // simulator's per-word semantics make thread order
                // safe), so only blocks without temporal edges get the
                // Rule-1 check.
                let has_temporal = dag
                    .edges
                    .iter()
                    .any(|e| matches!(e.kind, marion::backend::dag::EdgeKind::TrueTemporal(_)));
                audit_schedule(&spec.machine, block, dag, &schedule, !has_temporal)
                    .unwrap_or_else(|e| panic!("serial schedule invalid: {e}"));
                assert_stalls_account("i860", block, &schedule);
            }
        }
    }
}

/// The critical-path bound each schedule records, `max(ltl) + 1` from
/// the scheduler's priority vector, equals `max(est + ltl) + 1`
/// computed with a second topological sweep, on every block DAG the
/// three strategies build for the 18 evaluation programs on every
/// bundled machine: the selected code their pre-allocation passes
/// schedule and the allocated code of their final passes, under every
/// rung of the fallback ladder. A rung's graph can have a cycle (rung
/// 2's serialisation may close one); no schedule is placed against
/// it, so it records no bound and is skipped here.
#[test]
fn critical_path_bound_is_the_longest_latency_chain() {
    use marion::backend::dag::CodeDag;
    use marion::backend::explain::critical_path_cycles;
    use marion::backend::{Compiler, StrategyKind};
    use marion::trace::Tracer;

    let via_earliest_starts = |dag: &CodeDag| {
        let (est, ltl) = (dag.earliest_starts(), dag.critical_path());
        (0..dag.n).map(|i| est[i] + ltl[i] + 1).max().unwrap_or(0)
    };
    let is_acyclic = |dag: &CodeDag| {
        let mut position = vec![0; dag.n];
        for (p, i) in dag.topo_order().into_iter().enumerate() {
            position[i] = p;
        }
        dag.edges.iter().all(|e| position[e.from] < position[e.to])
    };
    let mut cyclic = 0;
    let mut check = |machine: &Machine, block: &CodeBlock, what: &str| {
        for discipline in [
            Discipline::Rule1,
            Discipline::Serialized,
            Discipline::NameDeps,
        ] {
            let dag = discipline.dag(machine, block);
            if !is_acyclic(&dag) {
                cyclic += 1;
                continue;
            }
            assert_eq!(
                critical_path_cycles(&dag.critical_path()),
                via_earliest_starts(&dag),
                "{what}, {}",
                discipline.name()
            );
        }
    };
    let mut programs = marion::workloads::livermore::kernels();
    programs.extend(marion::workloads::suite::programs());
    let mut blocks = 0;
    for name in marion::machines::EXTENDED {
        let spec = marion::machines::load(name);
        for program in &programs {
            let mut module = program.module();
            marion::backend::driver::materialize_float_constants(&mut module);
            for f in &module.funcs {
                let what = format!("{name}/{}/{}", program.name, f.name);
                let mut glued = f.clone();
                marion::backend::glue::apply_glue(&spec.machine, &mut glued).unwrap();
                let selected = select_func(&spec.machine, &spec.escapes, &module, &glued).unwrap();
                for block in &selected.blocks {
                    check(&spec.machine, block, &format!("{what}, selected"));
                    blocks += 1;
                }
                for kind in StrategyKind::ALL {
                    let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), kind);
                    let compiled = compiler
                        .compile_func(&module, f, &Tracer::off())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    for (block, schedule) in compiled.code.blocks.iter().zip(&compiled.schedules) {
                        check(&spec.machine, block, &format!("{what}, {kind:?}"));
                        let dag = Discipline::parse(schedule.explanation.discipline)
                            .expect("a ladder discipline")
                            .dag(&spec.machine, block);
                        assert_eq!(
                            schedule.explanation.critical_path_cycles,
                            via_earliest_starts(&dag),
                            "{what}, {kind:?}: recorded bound"
                        );
                        blocks += 1;
                    }
                }
            }
        }
    }
    assert!(blocks > 1000, "only {blocks} blocks checked");
    assert!(
        cyclic * 100 < blocks,
        "{cyclic} cyclic graphs in {blocks} blocks"
    );
}
