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
