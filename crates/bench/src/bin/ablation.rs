//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Scheduling itself** — Postpass vs the NoSched baseline
//!    (allocation + code-thread order). The gap is what list
//!    scheduling buys on each machine.
//! 2. **Auxiliary latencies** — compile with the `%aux` table removed
//!    and watch the actual/estimated ratio drift: the scheduler
//!    under-spaces producer/consumer pairs and the hardware stalls.
//! 3. **Caches** — run with caches disabled: actual cycles collapse
//!    toward the estimates, confirming where the Table 4 ratios above
//!    1.0 come from.
//! 4. **The IPS local-register limit** — prepass schedule estimates
//!    and peak local pressure of one kernel as the limit grows: the
//!    scheduling/allocation tension RASE exists to balance.

use marion_bench::outln;
use marion_bench::{geomean, measure, row};
use marion_core::{dag::build_dag, sched, select::select_func, Compiler, StrategyKind};
use marion_sim::{run_program, SimConfig};

fn main() {
    let kernels = marion_workloads::livermore::kernels();
    let subset: Vec<_> = kernels
        .iter()
        .filter(|k| {
            matches!(
                k.name.as_str(),
                "LL1" | "LL3" | "LL5" | "LL7" | "LL12" | "LL14"
            )
        })
        .cloned()
        .collect();
    let config = SimConfig::default();

    outln!("Ablation 1: what does list scheduling buy? (geomean cycles, 6 kernels)");
    outln!();
    let widths = [8usize, 12, 12, 12];
    outln!(
        "{}",
        row(
            &[
                "machine".into(),
                "NoSched".into(),
                "Postpass".into(),
                "sched gain".into()
            ],
            &widths
        )
    );
    for machine in marion_machines::EXTENDED {
        let spec = marion_machines::load(machine);
        let mut unsched = Vec::new();
        let mut post = Vec::new();
        for k in &subset {
            unsched.push(
                measure(&spec, StrategyKind::NoSchedule, k, &config)
                    .run
                    .cycles as f64,
            );
            post.push(
                measure(&spec, StrategyKind::Postpass, k, &config)
                    .run
                    .cycles as f64,
            );
        }
        let (u, p) = (geomean(&unsched), geomean(&post));
        outln!(
            "{}",
            row(
                &[
                    machine.into(),
                    format!("{u:.0}"),
                    format!("{p:.0}"),
                    format!("{:+.1}%", (u / p - 1.0) * 100.0),
                ],
                &widths
            )
        );
    }

    outln!();
    outln!("Ablation 2: %aux latencies on the 88000");
    outln!("(compile blind to the pair latencies, run on hardware that has them;");
    outln!(" on an interlocked in-order machine stalls can substitute for schedule");
    outln!(" gaps, so the honest signal is the estimate drifting away from actual)");
    outln!();
    let spec = marion_machines::load("m88k");
    let blind = spec.machine.without_aux();
    outln!(
        "{}",
        row(
            &[
                "kernel".into(),
                "cycles Δ".into(),
                "a/e aware".into(),
                "a/e blind".into(),
            ],
            &[8, 10, 11, 11]
        )
    );
    for k in &subset {
        let aware = measure(&spec, StrategyKind::Postpass, k, &config);
        // Compile against the aux-less description, but execute on the
        // full machine (the template tables are identical, so the
        // program is portable between the two).
        let module = k.module();
        let compiler = Compiler::new(blind.clone(), spec.escapes.clone(), StrategyKind::Postpass);
        let program = compiler.compile_module(&module).unwrap();
        let run = run_program(
            &spec.machine,
            &program,
            "main",
            &[],
            Some(marion_maril::Ty::Int),
            &config,
        )
        .unwrap();
        let est_blind = marion_sim::run::estimated_cycles(&program, &run.block_counts);
        outln!(
            "{}",
            row(
                &[
                    k.name.clone(),
                    format!(
                        "{:+.2}%",
                        (run.cycles as f64 / aware.run.cycles as f64 - 1.0) * 100.0
                    ),
                    format!(
                        "{:.3}",
                        aware.run.cycles as f64 / aware.estimated_cycles.max(1) as f64
                    ),
                    format!("{:.3}", run.cycles as f64 / est_blind.max(1) as f64),
                ],
                &[8, 10, 11, 11]
            )
        );
    }

    outln!();
    outln!("Ablation 3: caches and the Table 4 ratio (r2000, Postpass)");
    outln!();
    let spec = marion_machines::load("r2000");
    outln!(
        "{}",
        row(
            &["kernel".into(), "a/e cached".into(), "a/e no-cache".into()],
            &[8, 12, 14]
        )
    );
    for k in &subset {
        let cached = measure(&spec, StrategyKind::Postpass, k, &config);
        let module = k.module();
        let compiler = Compiler::new(
            spec.machine.clone(),
            spec.escapes.clone(),
            StrategyKind::Postpass,
        );
        let program = compiler.compile_module(&module).unwrap();
        let bare = run_program(
            &spec.machine,
            &program,
            "main",
            &[],
            Some(marion_maril::Ty::Int),
            &SimConfig::no_caches(),
        )
        .unwrap();
        let est_bare = marion_sim::run::estimated_cycles(&program, &bare.block_counts);
        outln!(
            "{}",
            row(
                &[
                    k.name.clone(),
                    format!(
                        "{:.3}",
                        cached.run.cycles as f64 / cached.estimated_cycles.max(1) as f64
                    ),
                    format!("{:.3}", bare.cycles as f64 / est_bare.max(1) as f64),
                ],
                &[8, 12, 14]
            )
        );
    }
    outln!();
    outln!("Ablation 4: the IPS local-register limit (r2000, LL7)");
    outln!("(the scheduling/allocation tension RASE exists to balance: a low");
    outln!(" limit wastes parallelism, a high one inflates pressure and spills)");
    outln!();
    let spec = marion_machines::load("r2000");
    let kernels = marion_workloads::livermore::kernels();
    let ll7 = kernels.iter().find(|k| k.name == "LL7").unwrap();
    outln!(
        "{}",
        row(
            &["limit".into(), "prepass est".into(), "peak live".into()],
            &[6, 12, 10]
        )
    );
    let mut module = ll7.module();
    marion_core::driver::materialize_float_constants(&mut module);
    let f = module
        .funcs
        .iter()
        .find(|f| f.name == "main")
        .unwrap()
        .clone();
    let mut f = f;
    marion_core::glue::apply_glue(&spec.machine, &mut f).unwrap();
    let code = select_func(&spec.machine, &spec.escapes, &module, &f).unwrap();
    for limit in [2usize, 4, 6, 8, 12, 16, 24] {
        let mut est = 0u64;
        let mut peak = 0usize;
        for block in &code.blocks {
            let dag = build_dag(&spec.machine, block, true);
            let s = sched::schedule_block(
                &spec.machine,
                &code,
                block,
                &dag,
                &sched::SchedOptions {
                    local_reg_limit: Some(limit),
                    ..Default::default()
                },
            )
            .unwrap();
            est += s.length as u64;
            peak = peak.max(s.peak_local_pressure);
        }
        outln!(
            "{}",
            row(
                &[limit.to_string(), est.to_string(), peak.to_string()],
                &[6, 12, 10]
            )
        );
    }
}
