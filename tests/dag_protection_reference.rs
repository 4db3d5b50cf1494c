//! Temporal-sequence protection (paper §4.6) must add exactly what the
//! per-edge algorithm adds — the same edges, in the same order — on
//! every block of the 18 evaluation programs, on the i860 and on
//! generated machines with explicitly advanced pipelines (EAPs), both
//! before and after register allocation, under every DAG option the
//! scheduler's fallback ladder uses. Blocks are checked in code-thread
//! order and in list-schedule order (the order IPS and RASE allocate
//! and rebuild DAGs in): only the latter interleaves same-clock
//! sequences enough for candidate edges to close cycles.

use marion::backend::code::{CodeBlock, CodeFunc};
use marion::backend::dag::{build_dag_with, dependence_dag};
use marion::backend::driver::materialize_float_constants;
use marion::backend::glue::apply_glue;
use marion::backend::regalloc::allocate;
use marion::backend::sched::schedule_block_robust;
use marion::backend::select::select_func;
use marion::backend::EscapeRegistry;
use marion::ir::Module;
use marion::maril::Machine;
use marion::workloads::{livermore, suite};

/// The per-edge protection algorithm, kept as the oracle for the
/// walk-sharing one in `dag.rs`: a fresh ancestor walk per distinct
/// entry (so candidates repeat across entries) and a reachability DFS
/// per candidate edge against the growing DAG.
mod reference {
    use marion::backend::code::CodeBlock;
    use marion::backend::dag::{temporal_sequences, CodeDag, Edge, EdgeKind};
    use marion::maril::Machine;

    /// `CodeDag`'s edge insertion: duplicate non-temporal
    /// `(from, to)` pairs keep the larger latency.
    fn add_edge(dag: &mut CodeDag, from: usize, to: usize, latency: u32, kind: EdgeKind) {
        if from == to {
            return;
        }
        if !matches!(kind, EdgeKind::TrueTemporal(_)) {
            for &ei in &dag.succs[from] {
                let e = &mut dag.edges[ei];
                if e.to == to && !matches!(e.kind, EdgeKind::TrueTemporal(_)) {
                    e.latency = e.latency.max(latency);
                    return;
                }
            }
        }
        dag.edges.push(Edge {
            from,
            to,
            latency,
            kind,
        });
        dag.succs[from].push(dag.edges.len() - 1);
        dag.preds[to].push(dag.edges.len() - 1);
    }

    /// Returns how many candidate edges it dropped for closing a cycle.
    pub fn protect(machine: &Machine, block: &CodeBlock, dag: &mut CodeDag) -> usize {
        let seqs = temporal_sequences(dag);
        let affects: Vec<_> = block
            .insts
            .iter()
            .map(|inst| machine.template(inst.template).affects_clock)
            .collect();
        let mut new_edges: Vec<(usize, usize)> = Vec::new();
        for seq in &seqs {
            let member = |i: usize| seq.members.contains(&i);
            let below_head = |i: usize| dag.reaches(seq.head, i);
            let mut entries_done: Vec<usize> = Vec::new();
            for &x in &seq.members {
                if x == seq.head {
                    continue;
                }
                for &ei in &dag.preds[x] {
                    let y = dag.edges[ei].from;
                    if member(y) || entries_done.contains(&y) {
                        continue;
                    }
                    entries_done.push(y);
                    let mut seen = vec![false; dag.n];
                    seen[y] = true;
                    let mut stack = vec![y];
                    while let Some(a) = stack.pop() {
                        if affects[a] == Some(seq.clock) && !member(a) && !below_head(a) {
                            new_edges.push((a, seq.head));
                        }
                        for &ei in &dag.preds[a] {
                            let p = dag.edges[ei].from;
                            if !seen[p] {
                                seen[p] = true;
                                stack.push(p);
                            }
                        }
                    }
                }
            }
        }
        let mut dropped = 0;
        for (from, to) in new_edges {
            if dag.reaches(to, from) {
                dropped += 1;
            } else {
                add_edge(dag, from, to, 1, EdgeKind::Order);
            }
        }
        dropped
    }
}

/// The 18 evaluation programs (14 Livermore kernels and the 4
/// compile-suite programs), float constants materialised.
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

/// How many blocks the reference protected, and how many candidate
/// edges it dropped for closing a cycle.
#[derive(Default)]
struct Tally {
    protected: usize,
    dropped: usize,
}

fn check_blocks(machine: &Machine, label: &str, code: &CodeFunc, tally: &mut Tally) {
    for (bi, block) in code.blocks.iter().enumerate() {
        check_block(machine, block, tally, || {
            format!("{label}, function {}, block {bi}", code.name)
        });
    }
}

fn check_block(machine: &Machine, block: &CodeBlock, tally: &mut Tally, what: impl Fn() -> String) {
    for include_anti in [true, false] {
        for latch_name_deps in [false, true] {
            let mut want = dependence_dag(machine, block, include_anti, latch_name_deps);
            let unprotected = want.edges.len();
            tally.dropped += reference::protect(machine, block, &mut want);
            let got = build_dag_with(machine, block, include_anti, latch_name_deps);
            assert!(
                got == want,
                "{} (anti {include_anti}, latch deps {latch_name_deps}): protection differs \
                 from the per-edge reference\n got edges {:?}\nwant edges {:?}",
                what(),
                got.edges,
                want.edges
            );
            tally.protected += usize::from(want.edges.len() > unprotected);
        }
    }
}

/// `code` with each block's instructions permuted into the order its
/// list schedule issues them.
fn schedule_order(machine: &Machine, code: &CodeFunc) -> CodeFunc {
    let mut out = code.clone();
    for (block, scheduled) in code.blocks.iter().zip(&mut out.blocks) {
        let schedule = schedule_block_robust(machine, code, block, &Default::default());
        scheduled.insts = schedule
            .cycles
            .iter()
            .flatten()
            .map(|&i| block.insts[i].clone())
            .collect();
    }
    out
}

/// Selects every function of every evaluation program on `machine`,
/// then checks each block's DAG before allocation and again after a
/// Postpass-style allocation, in code-thread and in schedule order.
fn check_machine(machine: &Machine, escapes: &EscapeRegistry, label: &str) -> Tally {
    let mut tally = Tally::default();
    for module in &evaluation_modules() {
        for func in &module.funcs {
            let mut f = func.clone();
            apply_glue(machine, &mut f).unwrap_or_else(|e| panic!("{label}: glue: {e}"));
            let selected = select_func(machine, escapes, module, &f)
                .unwrap_or_else(|e| panic!("{label}: select {}: {e}", f.name));
            let scheduled = schedule_order(machine, &selected);
            for (order, mut code) in [("thread", selected), ("schedule", scheduled)] {
                let what = format!("{label}, {order} order");
                check_blocks(
                    machine,
                    &format!("{what}, before allocation"),
                    &code,
                    &mut tally,
                );
                // Schedule order can leave a register-starved machine
                // uncolourable; IPS then falls back to thread order.
                if allocate(machine, &mut code, &Default::default()).is_ok() {
                    check_blocks(
                        machine,
                        &format!("{what}, after allocation"),
                        &code,
                        &mut tally,
                    );
                } else {
                    assert_eq!(order, "schedule", "{label}: allocate {}", f.name);
                }
            }
        }
    }
    tally
}

#[test]
fn protection_matches_the_per_edge_reference_on_the_i860() {
    let spec = marion::machines::load("i860");
    let tally = check_machine(&spec.machine, &spec.escapes, "i860");
    assert!(
        tally.protected > 0,
        "no i860 block needed a protection edge"
    );
    assert!(tally.dropped > 0, "no i860 candidate edge closed a cycle");
}

#[test]
fn protection_matches_the_per_edge_reference_on_generated_eap_machines() {
    let escapes = marion::machines::toyp::escapes();
    let mut tally = Tally::default();
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
        let t = check_machine(&machine, &escapes, &label);
        tally.protected += t.protected;
        tally.dropped += t.dropped;
        machines += 1;
        if machines == 6 {
            break;
        }
    }
    assert!(tally.protected > 0, "no block needed a protection edge");
    assert!(tally.dropped > 0, "no candidate edge closed a cycle");
}
