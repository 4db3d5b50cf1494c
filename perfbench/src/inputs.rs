//! Inputs shared by the workloads: machines, programs and the seeded
//! draws that pick among them. Every call into a set-up layer runs
//! inside a span of that layer (`maril`, `mdgen`, `workloads`,
//! `frontend`, `interp`).

use crate::span::Recorder;
use marion_core::{CompileOptions, Compiler, EscapeRegistry, StrategyKind};
use marion_ir::interp::{Interp, Value};
use marion_maril::Machine;
use marion_rng::SplitMix64;
use marion_workloads::gen::{random_program, GenConfig};
use marion_workloads::{livermore, suite, Workload};
use std::num::NonZeroUsize;

/// A machine description ready to compile for.
pub struct Target {
    pub name: String,
    pub machine: Machine,
    pub escapes: EscapeRegistry,
}

impl Target {
    /// A cold compiler for one strategy: no cache, no trace, one job.
    pub fn compiler(&self, kind: StrategyKind) -> Compiler {
        Compiler::with_options(
            self.machine.clone(),
            self.escapes.clone(),
            kind,
            CompileOptions {
                jobs: NonZeroUsize::new(1),
                ..CompileOptions::default()
            },
        )
    }
}

/// A program lowered to IR.
pub struct Program {
    pub name: String,
    pub module: marion_ir::Module,
    /// IR nodes over all functions: the back-end-independent size that
    /// code-size and cycle metrics are normalised by.
    pub ir_nodes: usize,
}

/// The five bundled machine descriptions, parsed from Maril.
pub fn bundled_targets(rec: &mut Recorder) -> Vec<Target> {
    marion_machines::EXTENDED
        .iter()
        .map(|name| {
            let spec = rec.time("maril", || marion_machines::load(name));
            Target {
                name: (*name).to_string(),
                machine: spec.machine,
                escapes: spec.escapes,
            }
        })
        .collect()
}

/// `count` seeded `marion_mdgen` descriptions with TOYP's escapes, as
/// the retargeting fuzzer uses them, drawn from those without an
/// explicitly advanced pipeline: on generated pipelined machines one
/// compile costs up to 3 s and the cost varies several-fold between
/// draws, so a handful of draws would set every time metric. The
/// bundled i860 keeps a pipelined machine in every workload. Returns
/// the targets and how many drawn descriptions the front door
/// rejected.
pub fn generated_targets(
    rng: &mut SplitMix64,
    count: usize,
    rec: &mut Recorder,
) -> (Vec<Target>, usize) {
    let escapes = marion_machines::toyp::escapes();
    let mut targets = Vec::with_capacity(count);
    let mut rejected = 0;
    while targets.len() < count {
        let seed = rng.next_u64() >> 16;
        let Ok(gen) = rec.time("mdgen", || marion_mdgen::generate(seed)) else {
            rejected += 1;
            continue;
        };
        if gen.config.eap.is_some() {
            continue;
        }
        match rec.time("maril", || gen.machine()) {
            Ok(machine) => targets.push(Target {
                name: gen.name.clone(),
                machine,
                escapes: escapes.clone(),
            }),
            Err(_) => rejected += 1,
        }
    }
    (targets, rejected)
}

/// The 18 evaluation programs: 14 Livermore kernels, then nasker,
/// sphot, arc2d and lcc.
pub fn eval_workloads(rec: &mut Recorder) -> Vec<Workload> {
    rec.time("workloads", || {
        let mut all = livermore::kernels();
        all.extend(suite::programs());
        all
    })
}

/// Seeded `gen::random_program` sources, one per statement count in
/// `stmts`.
pub fn random_workloads(rng: &mut SplitMix64, stmts: &[u32], rec: &mut Recorder) -> Vec<Workload> {
    rec.time("workloads", || {
        stmts
            .iter()
            .map(|&n| {
                let seed = rng.next_u64() >> 16;
                let config = GenConfig {
                    stmts: n,
                    ..GenConfig::default()
                };
                Workload {
                    name: format!("gen{n}-{seed:x}"),
                    source: random_program(seed, &config),
                    description: String::new(),
                }
            })
            .collect()
    })
}

/// Runs each workload through the front end.
///
/// # Errors
///
/// The first front-end error, naming its workload.
pub fn lower(workloads: &[Workload], rec: &mut Recorder) -> Result<Vec<Program>, String> {
    workloads
        .iter()
        .map(|w| {
            let module = rec
                .time("frontend", || marion_frontend::compile(&w.source))
                .map_err(|e| format!("front end, {}: {e}", w.name))?;
            let ir_nodes = module.funcs.iter().map(|f| f.nodes.len()).sum();
            Ok(Program {
                name: w.name.clone(),
                module,
                ir_nodes,
            })
        })
        .collect()
}

/// The IR interpreter's `main` checksum and the statements it ran.
///
/// # Errors
///
/// An interpreter fault, or a `main` that returns no integer.
pub fn interp_reference(
    module: &marion_ir::Module,
    rec: &mut Recorder,
) -> Result<(i64, u64), String> {
    let mut interp = Interp::new(module, 1 << 22).with_budget(400_000_000);
    let result = rec.time("interp", || interp.call_by_name("main", &[]));
    match result {
        Ok(Some(Value::I(v))) => Ok((v, interp.stats.stmts)),
        Ok(other) => Err(format!("main returned {other:?}, expected an int")),
        Err(e) => Err(e.to_string()),
    }
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}
