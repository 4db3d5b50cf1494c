//! The list scheduler jumps over idle cycles that provably repeat the
//! one before them (an idle-cycle horizon); the recording replay,
//! `sched::explain_schedule`, steps through every cycle. Both must
//! produce the same schedule — issue cycles, words, length, metrics
//! other than the two work counters, and stall breakdown — on every
//! block of the 18 evaluation programs, on the bundled machines and on
//! generated machines with explicitly advanced pipelines, with no
//! local-register limit and at the IPS and RASE-tight limits, before
//! and after register allocation.

use marion::backend::code::CodeFunc;
use marion::backend::driver::materialize_float_constants;
use marion::backend::glue::apply_glue;
use marion::backend::regalloc::allocate;
use marion::backend::sched::{
    explain_schedule, schedule_block_robust, SchedMetrics, SchedOptions, Schedule,
};
use marion::backend::select::select_func;
use marion::backend::EscapeRegistry;
use marion::ir::Module;
use marion::maril::Machine;
use marion::workloads::{livermore, suite};

/// The 18 evaluation programs, float constants materialised.
fn evaluation_modules() -> Vec<Module> {
    let mut programs = livermore::kernels();
    programs.extend(suite::programs());
    programs
        .iter()
        .map(|w| {
            let mut module = w.module();
            materialize_float_constants(&mut module);
            module
        })
        .collect()
}

/// The IPS strategy's local-register limit (smallest general-purpose
/// allocable class, minus two for globals, at least two) and RASE's
/// tight estimate limit (half of it, at least two).
fn register_limits(machine: &Machine) -> [Option<usize>; 3] {
    let k = machine
        .cwvm()
        .general
        .iter()
        .map(|(_, class)| machine.allocable_of_class(*class).len())
        .filter(|&n| n > 0)
        .min();
    let ips = k.map_or(8, |k| k.saturating_sub(2).max(2));
    [None, Some(ips), Some((ips / 2).max(2))]
}

/// Metrics with the work counters cleared: a stepping replay places
/// alike and steps more.
fn placement_metrics(m: &SchedMetrics) -> String {
    format!(
        "{:?}",
        SchedMetrics {
            cycles_stepped: 0,
            candidates_probed: 0,
            ..m.clone()
        }
    )
}

#[derive(Default)]
struct Tally {
    blocks: usize,
    /// Schedules whose scheduler stepped fewer cycles than its replay.
    jumped: usize,
    /// Schedules placed under a register limit that stalled on it.
    pressure_stalls: usize,
}

fn check_blocks(
    machine: &Machine,
    label: &str,
    code: &CodeFunc,
    limits: &[Option<usize>],
    tally: &mut Tally,
) {
    for (bi, block) in code.blocks.iter().enumerate() {
        for &local_reg_limit in limits {
            let opts = SchedOptions {
                local_reg_limit,
                ..SchedOptions::default()
            };
            let what = || format!("{label}, block {bi}, limit {local_reg_limit:?}");
            let s = schedule_block_robust(machine, code, block, &opts);
            let replay: Schedule = explain_schedule(machine, code, block, &s, &opts)
                .unwrap_or_else(|e| panic!("{}: replay: {e}", what()));
            assert_eq!(s.cycles, replay.cycles, "{}", what());
            assert_eq!(s.inst_cycle, replay.inst_cycle, "{}", what());
            assert_eq!(s.length, replay.length, "{}", what());
            assert_eq!(
                s.peak_local_pressure,
                replay.peak_local_pressure,
                "{}",
                what()
            );
            assert_eq!(
                placement_metrics(&s.metrics),
                placement_metrics(&replay.metrics),
                "{}",
                what()
            );
            assert_eq!(
                s.explanation.stalls,
                replay.explanation.stalls,
                "{}",
                what()
            );
            assert!(
                s.metrics.cycles_stepped <= replay.metrics.cycles_stepped,
                "{}",
                what()
            );
            tally.blocks += 1;
            tally.jumped += usize::from(s.metrics.cycles_stepped < replay.metrics.cycles_stepped);
            tally.pressure_stalls += usize::from(s.explanation.stalls.pressure > 0);
        }
    }
}

/// Every function of every evaluation program on `machine`: selected
/// code at all three limits, then allocated code with no limit, as
/// the final passes schedule it.
fn check_machine(machine: &Machine, escapes: &EscapeRegistry, label: &str) -> Tally {
    let limits = register_limits(machine);
    let mut tally = Tally::default();
    for module in &evaluation_modules() {
        for func in &module.funcs {
            let mut f = func.clone();
            apply_glue(machine, &mut f).unwrap_or_else(|e| panic!("{label}: glue: {e}"));
            let mut code = select_func(machine, escapes, module, &f)
                .unwrap_or_else(|e| panic!("{label}: select {}: {e}", f.name));
            let what = format!("{label}, {}", f.name);
            check_blocks(
                machine,
                &format!("{what}, selected"),
                &code,
                &limits,
                &mut tally,
            );
            allocate(machine, &mut code, &Default::default())
                .unwrap_or_else(|e| panic!("{what}: allocate: {e}"));
            check_blocks(
                machine,
                &format!("{what}, allocated"),
                &code,
                &[None],
                &mut tally,
            );
        }
    }
    tally
}

fn assert_exercised(label: &str, tally: &Tally) {
    assert!(tally.blocks > 0, "{label}: no blocks");
    assert!(
        tally.jumped > 0,
        "{label}: no schedule jumped an idle cycle"
    );
}

#[test]
fn idle_horizons_match_the_stepping_replay_on_bundled_machines() {
    let mut total = Tally::default();
    for name in marion::machines::EXTENDED {
        let spec = marion::machines::load(name);
        let tally = check_machine(&spec.machine, &spec.escapes, name);
        assert_exercised(name, &tally);
        total.blocks += tally.blocks;
        total.jumped += tally.jumped;
        total.pressure_stalls += tally.pressure_stalls;
    }
    assert!(
        total.pressure_stalls > 0,
        "no schedule stalled on a register limit"
    );
}

#[test]
fn idle_horizons_match_the_stepping_replay_on_generated_eap_machines() {
    let escapes = marion::machines::toyp::escapes();
    let mut machines = 0;
    for seed in 0.. {
        let gen =
            marion_mdgen::generate(seed).unwrap_or_else(|e| panic!("seed {seed}: generator: {e}"));
        if gen.config.eap.is_none() {
            continue;
        }
        let machine = gen
            .machine()
            .unwrap_or_else(|e| panic!("seed {seed}: front door: {e}"));
        let label = format!("seed {seed} ({})", gen.config.summary());
        assert_exercised(&label, &check_machine(&machine, &escapes, &label));
        machines += 1;
        if machines == 6 {
            break;
        }
    }
}
