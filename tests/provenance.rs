//! Schedule provenance properties:
//!
//! * `audit_schedule` is a real, independent checker — mutate a valid
//!   schedule (swap two cycles, issue under a latency, double-claim a
//!   resource, pack an illegal word, issue inside a temporal edge) and
//!   it must pinpoint the offending instruction and constraint family;
//! * corrupted stall records are caught by the provenance audit;
//! * the acceptance identity `issue − ready == Σ stall cycles` holds
//!   for every instruction of every block over SplitMix64-generated
//!   TOYP programs, with the auditor agreeing throughout;
//! * the recording replay (`sched::explain_schedule`) reproduces every
//!   compiled schedule, NoSched's included, and its records sum to the
//!   stall counts the hot path tallied without them; a schedule whose
//!   counts the records miss is refused;
//! * the annotated DOT export is structurally well-formed and
//!   `check_dot` rejects tampering.

use marion::backend::code::{CodeBlock, CodeFunc};
use marion::backend::dag::{build_dag, CodeDag, Edge, EdgeKind};
use marion::backend::explain::{self, StallReason};
use marion::backend::regalloc::allocate;
use marion::backend::sched::{self, SchedOptions, Schedule};
use marion::backend::select::select_func;
use marion::backend::{audit_schedule, Compiler, StrategyKind};
use marion::machines::MachineSpec;
use marion::maril::Machine;
use marion::rng::SplitMix64;
use marion::trace::Tracer;
use marion::workloads::gen::{random_program, GenConfig};

const DOT_PRODUCT: &str = "int a[64]; int b[64];
int main() {
    int i; int s = 0;
    for (i = 0; i < 64; i++) s = s + a[i] * b[i];
    return s;
}";

/// Compiles `src` on `machine_name` Postpass-style and returns every
/// nonempty block with a Rule-1 schedule, replayed for its placement
/// records (blocks that needed a fallback discipline are skipped — the
/// mutation tests want the primary path).
fn scheduled_blocks(spec: &MachineSpec, src: &str) -> Vec<(CodeBlock, CodeDag, Schedule)> {
    let mut module = marion::frontend::compile(src).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    let mut out = Vec::new();
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let mut code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
        if allocate(&spec.machine, &mut code, &Default::default()).is_err() {
            continue;
        }
        for block in &code.blocks {
            if block.insts.is_empty() {
                continue;
            }
            let dag = build_dag(&spec.machine, block, true);
            let opts = SchedOptions::default();
            if let Ok(s) = sched::schedule_block(&spec.machine, &code, block, &dag, &opts) {
                let s = sched::explain_schedule(&spec.machine, &code, block, &s, &opts)
                    .unwrap_or_else(|e| panic!("replay: {e}"));
                assert_eq!(s.explanation.records.len(), block.insts.len());
                out.push((block.clone(), dag, s));
            }
        }
    }
    out
}

/// Moves instruction `i` from its scheduled cycle to `to`, keeping
/// `cycles` and `inst_cycle` mutually consistent (so the coverage
/// audit passes and the interesting family reports instead).
fn move_inst(schedule: &mut Schedule, i: usize, to: u32) {
    let from = schedule.inst_cycle[i] as usize;
    schedule.cycles[from].retain(|&x| x != i);
    if schedule.cycles.len() <= to as usize {
        schedule.cycles.resize(to as usize + 1, Vec::new());
    }
    schedule.cycles[to as usize].push(i);
    schedule.inst_cycle[i] = to;
}

#[test]
fn audit_pinpoints_latency_violation() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    // Find a binding edge with real latency and issue its sink one
    // cycle too early.
    let mut tested = 0;
    for (block, dag, schedule) in &blocks {
        let Some(e) = dag.edges.iter().find(|e| {
            e.latency >= 2 && schedule.inst_cycle[e.to] == schedule.inst_cycle[e.from] + e.latency
        }) else {
            continue;
        };
        let mut bad = schedule.clone();
        move_inst(&mut bad, e.to, schedule.inst_cycle[e.to] - 1);
        let err = audit_schedule(&spec.machine, block, dag, &bad, true)
            .expect_err("latency violation must be caught");
        assert_eq!(err.kind, "dependence", "wrong family: {err}");
        assert_eq!(err.inst, Some(e.to), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no block with a latency-binding edge found");
}

#[test]
fn audit_pinpoints_swapped_cycles() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    let mut tested = 0;
    for (block, dag, schedule) in &blocks {
        // Swap the cycles of two dependent instructions.
        let Some(e) = dag
            .edges
            .iter()
            .find(|e| e.latency >= 1 && schedule.inst_cycle[e.from] < schedule.inst_cycle[e.to])
        else {
            continue;
        };
        let (cf, ct) = (schedule.inst_cycle[e.from], schedule.inst_cycle[e.to]);
        let mut bad = schedule.clone();
        move_inst(&mut bad, e.from, ct);
        move_inst(&mut bad, e.to, cf);
        let err = audit_schedule(&spec.machine, block, dag, &bad, true)
            .expect_err("swapped dependent instructions must be caught");
        assert_eq!(err.kind, "dependence", "wrong family: {err}");
        assert_eq!(err.inst, Some(e.to), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no block with a dependence edge found");
}

/// Issue cycles this far apart keep every reservation row clear of
/// the next instruction's.
const STRIDE: u32 = 64;

/// `schedule` re-issued one instruction per `STRIDE` cycles, so a
/// mutation on top of it trips only the constraint family it targets.
fn spread(machine: &Machine, block: &CodeBlock, schedule: &Schedule) -> Schedule {
    for inst in &block.insts {
        assert!(machine.template(inst.template).rsrc.len() < STRIDE as usize / 2);
    }
    let mut s = schedule.clone();
    let n = s.inst_cycle.len();
    s.cycles = vec![Vec::new(); n * STRIDE as usize];
    for i in 0..n {
        s.inst_cycle[i] = i as u32 * STRIDE;
        s.cycles[i * STRIDE as usize].push(i);
    }
    s
}

/// `dag` with only `edges` left.
fn with_edges(dag: &CodeDag, edges: Vec<Edge>) -> CodeDag {
    CodeDag {
        n: dag.n,
        edges,
        succs: vec![Vec::new(); dag.n],
        preds: vec![Vec::new(); dag.n],
    }
}

/// Every block of the Livermore kernels on i860, the machine with
/// packing classes and temporal clocks.
fn i860_blocks(spec: &MachineSpec) -> Vec<(CodeBlock, CodeDag, Schedule)> {
    marion::workloads::livermore::kernels()
        .iter()
        .flat_map(|k| scheduled_blocks(spec, &k.source))
        .collect()
}

#[test]
fn audit_pinpoints_resource_conflict() {
    let spec = marion::machines::load("toyp");
    let machine = &spec.machine;
    let mut tested = 0;
    for (block, dag, schedule) in &scheduled_blocks(&spec, DOT_PRODUCT) {
        let first_row = |i: usize| machine.template(block.insts[i].template).rsrc.first();
        let n = block.insts.len();
        let Some((i, j)) = (0..n).flat_map(|j| (0..j).map(move |i| (i, j))).find(
            |&(i, j)| matches!((first_row(i), first_row(j)), (Some(a), Some(b)) if a.intersects(b)),
        ) else {
            continue;
        };
        let mut bad = spread(machine, block, schedule);
        let to = bad.inst_cycle[i];
        move_inst(&mut bad, j, to);
        let err = audit_schedule(machine, block, &with_edges(dag, Vec::new()), &bad, true)
            .expect_err("a doubly claimed resource must be caught");
        assert_eq!(err.kind, "resource", "wrong family: {err}");
        assert_eq!(err.inst, Some(j), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(
        tested > 0,
        "no block with two instructions sharing a resource"
    );
}

#[test]
fn audit_pinpoints_unpackable_word() {
    let spec = marion::machines::load("i860");
    let machine = &spec.machine;
    let mut tested = 0;
    for (block, dag, schedule) in &i860_blocks(&spec) {
        let template = |i: usize| machine.template(block.insts[i].template);
        let class = |i: usize| Some(machine.class(template(i).class?).elements);
        let n = block.insts.len();
        // Two classed sub-operations with disjoint classes and no
        // shared resource: only the packing check can object.
        let Some((i, j)) = (0..n)
            .flat_map(|j| (0..n).map(move |i| (i, j)))
            .find(|&(i, j)| {
                let (Some(ci), Some(cj)) = (class(i), class(j)) else {
                    return false;
                };
                !ci.intersects(&cj)
                    && template(i)
                        .rsrc
                        .iter()
                        .zip(&template(j).rsrc)
                        .all(|(a, b)| !a.intersects(b))
            })
        else {
            continue;
        };
        let mut bad = spread(machine, block, schedule);
        let to = bad.inst_cycle[i];
        move_inst(&mut bad, j, to);
        let err = audit_schedule(machine, block, &with_edges(dag, Vec::new()), &bad, true)
            .expect_err("an unpackable word must be caught");
        assert_eq!(err.kind, "class", "wrong family: {err}");
        assert_eq!(err.inst, Some(j), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no block with two unpackable sub-operations");
}

#[test]
fn audit_pinpoints_rule1_violation() {
    let spec = marion::machines::load("i860");
    let machine = &spec.machine;
    let mut tested = 0;
    for (block, dag, schedule) in &i860_blocks(&spec) {
        // A temporal edge on clock k and another instruction that
        // advances k.
        let Some((e, z)) = dag.edges.iter().find_map(|e| {
            let EdgeKind::TrueTemporal(k) = e.kind else {
                return None;
            };
            let z = (0..block.insts.len()).find(|&z| {
                z != e.from
                    && z != e.to
                    && machine.template(block.insts[z].template).affects_clock == Some(k)
            })?;
            (e.from < e.to).then_some((*e, z))
        }) else {
            continue;
        };
        let mut bad = spread(machine, block, schedule);
        let inside = bad.inst_cycle[e.from] + STRIDE / 2;
        move_inst(&mut bad, z, inside);
        let err = audit_schedule(machine, block, &with_edges(dag, vec![e]), &bad, true)
            .expect_err("an instruction inside a temporal edge must be caught");
        assert_eq!(err.kind, "rule1", "wrong family: {err}");
        assert_eq!(err.inst, Some(z), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(
        tested > 0,
        "no block with a temporal edge and a third user of its clock"
    );
}

#[test]
fn audit_rejects_corrupted_stall_records() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    let mut tested = 0;
    for (block, dag, schedule) in &blocks {
        let records = &schedule.explanation.records;
        assert_eq!(records.len(), block.insts.len());
        let Some(victim) = records.iter().position(|r| !r.stalls.is_empty()) else {
            continue;
        };
        // Claim the stall was a conflict on a resource the
        // instruction never uses and nobody holds.
        let mut bad = schedule.clone();
        bad.explanation.records[victim].stalls[0].reason = StallReason::Resource { resource: 200 };
        let err = audit_schedule(&spec.machine, block, dag, &bad, true)
            .expect_err("fabricated stall reason must be caught");
        assert_eq!(err.kind, "provenance", "wrong family: {err}");
        assert_eq!(err.inst, Some(victim), "wrong instruction: {err}");
        tested += 1;
    }
    assert!(tested > 0, "no stalled instruction found to corrupt");
}

/// Schedules one random TOYP program's blocks and asserts the
/// acceptance identity plus auditor agreement on each.
fn check_toyp_program(spec: &MachineSpec, seed: u64) {
    let src = random_program(seed, &GenConfig::default());
    for (block, dag, schedule) in &scheduled_blocks(spec, &src) {
        let ex = &schedule.explanation;
        assert_eq!(ex.records.len(), block.insts.len(), "seed {seed}");
        for r in &ex.records {
            assert_eq!(
                r.stall_cycles(),
                r.issue_cycle - r.ready_cycle,
                "seed {seed}: [{}] ready {} issue {} stalls {:?}",
                r.inst,
                r.ready_cycle,
                r.issue_cycle,
                r.stalls
            );
            assert!(r.earliest_cycle >= r.ready_cycle, "seed {seed}");
            assert!(r.issue_cycle >= r.earliest_cycle, "seed {seed}");
        }
        audit_schedule(&spec.machine, block, dag, schedule, true)
            .unwrap_or_else(|e| panic!("seed {seed}: audit: {e}"));
    }
}

#[test]
fn stalls_account_for_every_wait_cycle_on_toyp() {
    let spec = marion::machines::load("toyp");
    let mut rng = SplitMix64::new(0xA11D17);
    for _ in 0..12 {
        check_toyp_program(&spec, rng.below(100_000));
    }
}

#[test]
fn audit_rejects_scheduler_output_without_records() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    assert!(!blocks.is_empty());
    for (block, dag, schedule) in &blocks {
        // What the hot path hands out: the same schedule, no records.
        let mut bare = schedule.clone();
        bare.explanation.records.clear();
        let err = audit_schedule(&spec.machine, block, dag, &bare, true)
            .expect_err("a rule1 schedule without records must not pass silently");
        assert_eq!(err.kind, "provenance", "wrong family: {err}");
        // A hand-built schedule names no discipline and may omit them.
        bare.explanation.discipline = "";
        audit_schedule(&spec.machine, block, dag, &bare, true)
            .unwrap_or_else(|e| panic!("hand-built schedule rejected: {e}"));
    }
}

/// Replays `schedule` and checks the replay against it: the same
/// placement, one record per instruction, and records that sum to the
/// stall counts the hot path tallied without building them.
fn assert_replay_matches(
    machine: &Machine,
    code: &CodeFunc,
    block: &CodeBlock,
    schedule: &Schedule,
    opts: &SchedOptions,
    what: &str,
) {
    let replay = sched::explain_schedule(machine, code, block, schedule, opts)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(replay.inst_cycle, schedule.inst_cycle, "{what}");
    let ex = &replay.explanation;
    assert_eq!(ex.records.len(), block.insts.len(), "{what}");
    assert_eq!(ex.record_stalls(), schedule.explanation.stalls, "{what}");
}

#[test]
fn fused_stall_counts_match_replayed_provenance() {
    let mut programs = marion::workloads::livermore::kernels();
    programs.extend(marion::workloads::suite::programs());
    let mut blocks = 0usize;
    for machine_name in marion::machines::EXTENDED {
        let spec = marion::machines::load(machine_name);
        for w in &programs {
            let mut module = w.module();
            marion::backend::driver::materialize_float_constants(&mut module);
            // The three strategies, plus the NoSched baseline, whose
            // serial schedules use the plain DAG.
            for kind in StrategyKind::ALL
                .into_iter()
                .chain([StrategyKind::NoSchedule])
            {
                let compiler = Compiler::new(spec.machine.clone(), spec.escapes.clone(), kind);
                for f in &module.funcs {
                    let compiled = compiler.compile_func(&module, f, &Tracer::off()).unwrap();
                    let code = &compiled.code;
                    for (bi, (block, schedule)) in
                        code.blocks.iter().zip(&compiled.schedules).enumerate()
                    {
                        // Every strategy's final pass runs with default
                        // options.
                        let what = format!("{machine_name} {} {kind} {}/b{bi}", w.name, f.name);
                        let opts = SchedOptions::default();
                        assert_replay_matches(&spec.machine, code, block, schedule, &opts, &what);
                        blocks += 1;
                    }
                }
            }
        }
    }
    assert!(blocks > 0);
    // Register-pressure stalls: the IPS prepass schedules unallocated
    // code under a local register limit.
    let spec = marion::machines::load("toyp");
    let opts = SchedOptions {
        local_reg_limit: Some(3),
        ..SchedOptions::default()
    };
    let mut rng = SplitMix64::new(0x1D5);
    let mut pressure = 0u64;
    for _ in 0..8 {
        let seed = rng.below(100_000);
        let src = random_program(seed, &GenConfig::default());
        let mut module = marion::frontend::compile(&src).unwrap();
        marion::backend::driver::materialize_float_constants(&mut module);
        for f in &module.funcs {
            let mut f = f.clone();
            marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
            let code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
            for (bi, block) in code.blocks.iter().enumerate() {
                let schedule = sched::schedule_block_robust(&spec.machine, &code, block, &opts);
                let what = format!("toyp seed {seed} {}/b{bi}", f.name);
                assert_replay_matches(&spec.machine, &code, block, &schedule, &opts, &what);
                pressure += schedule.explanation.stalls.pressure;
            }
        }
    }
    assert!(
        pressure > 0,
        "the register limit never stalled an instruction"
    );
}

#[test]
fn replay_refuses_a_schedule_it_does_not_reproduce() {
    let spec = marion::machines::load("toyp");
    let mut module = marion::frontend::compile(DOT_PRODUCT).unwrap();
    marion::backend::driver::materialize_float_constants(&mut module);
    let opts = SchedOptions::default();
    let mut tested = 0;
    for f in &module.funcs {
        let mut f = f.clone();
        marion::backend::glue::apply_glue(&spec.machine, &mut f).unwrap();
        let code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
        for block in code.blocks.iter().filter(|b| !b.insts.is_empty()) {
            let schedule = sched::schedule_block_robust(&spec.machine, &code, block, &opts);
            let replay =
                |s: &Schedule| sched::explain_schedule(&spec.machine, &code, block, s, &opts);
            replay(&schedule).unwrap_or_else(|e| panic!("replay: {e}"));
            // The same placement with a breakdown the records do not
            // sum to, as a replay against the wrong DAG would give.
            let mut bad = schedule.clone();
            bad.explanation.stalls.dependence += 1;
            let err = replay(&bad).expect_err("a breakdown the records miss must be refused");
            assert!(err.to_string().contains("stalls"), "{err}");
            // A schedule that names no discipline has nothing to
            // replay.
            let mut bad = schedule.clone();
            bad.explanation.discipline = "";
            replay(&bad).expect_err("a hand-built schedule has no replay");
            tested += 1;
        }
    }
    assert!(tested > 0);
}

fn dot_for(machine: &Machine, block: &CodeBlock, dag: &CodeDag, schedule: &Schedule) -> String {
    explain::dag_to_dot(machine, block, dag, schedule, "test/b0")
}

#[test]
fn dot_export_is_well_formed_and_tamper_evident() {
    let spec = marion::machines::load("toyp");
    let blocks = scheduled_blocks(&spec, DOT_PRODUCT);
    assert!(!blocks.is_empty());
    let mut checked = 0;
    for (block, dag, schedule) in &blocks {
        let dot = dot_for(&spec.machine, block, dag, schedule);
        explain::check_dot(&dot, dag).unwrap_or_else(|e| panic!("malformed DOT: {e}\n{dot}"));
        checked += 1;
        if dag.n >= 2 && !dag.edges.is_empty() {
            // Drop one node statement: count mismatch.
            let cut: Vec<&str> = dot
                .lines()
                .filter(|l| !l.trim_start().starts_with("n0 ["))
                .collect();
            assert!(explain::check_dot(&cut.join("\n"), dag).is_err());
            // Unbalance the braces.
            assert!(explain::check_dot(dot.trim_end().trim_end_matches('}'), dag).is_err());
        }
    }
    assert!(checked > 0);
}
