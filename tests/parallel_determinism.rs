//! Parallel compilation must be invisible in the output: for any
//! worker count, the assembly is byte-identical to the serial
//! compile, the statistics agree, the merged trace counters sum to
//! the serial totals, and the merged profile has the serial one's
//! paths and calls. Also pins the indexed-selection cross-check:
//! the `SelectionIndex` fast path picks exactly the templates the
//! brute-force reference machine would.

use marion::backend::{CompileOptions, CompiledProgram, Compiler, StrategyKind};
use marion::ir::Module;
use marion::trace::{TraceConfig, TraceData};
use std::num::NonZeroUsize;

const MACHINES: [&str; 3] = ["toyp", "r2000", "i860"];
const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Postpass,
    StrategyKind::Ips,
    StrategyKind::Rase,
];

fn compile(
    machine: &str,
    strategy: StrategyKind,
    module: &Module,
    jobs: usize,
    trace: bool,
) -> CompiledProgram {
    let spec = marion::machines::load(machine);
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes.clone(),
        strategy,
        CompileOptions {
            jobs: NonZeroUsize::new(jobs),
            trace: trace.then(TraceConfig::default),
            ..CompileOptions::default()
        },
    );
    compiler
        .compile_module(module)
        .unwrap_or_else(|e| panic!("{machine}/{strategy:?}: {e}"))
}

fn render(machine: &str, program: &CompiledProgram) -> String {
    program.render(&marion::machines::load(machine).machine)
}

#[test]
fn parallel_assembly_is_byte_identical_to_serial() {
    let module = marion::workloads::multi::combined_livermore();
    for machine in MACHINES {
        for strategy in STRATEGIES {
            let serial = compile(machine, strategy, &module, 1, false);
            let parallel = compile(machine, strategy, &module, 8, false);
            assert_eq!(
                render(machine, &serial),
                render(machine, &parallel),
                "{machine}/{strategy:?}: jobs=8 changed the assembly"
            );
            assert_eq!(
                serial.stats, parallel.stats,
                "{machine}/{strategy:?}: jobs=8 changed the statistics"
            );
        }
    }
}

#[test]
fn parallel_trace_counters_match_serial() {
    let module = marion::workloads::multi::combined_livermore();
    let serial = compile("r2000", StrategyKind::Ips, &module, 1, true);
    let parallel = compile("r2000", StrategyKind::Ips, &module, 8, true);
    let st = serial.trace.expect("serial trace");
    let pt = parallel.trace.expect("parallel trace");
    for counter in [
        "insts_generated",
        "spills",
        "delay_slots_filled",
        "schedule_passes",
        "estimated_cycles",
        "nops_emitted",
    ] {
        assert_eq!(
            st.counter_total(counter),
            pt.counter_total(counter),
            "merged {counter} diverges from serial"
        );
    }
    // The per-function spans all arrived, one per function.
    let calls = |trace: &TraceData| trace.span_totals()["compile_func"].count;
    assert_eq!(calls(&st), calls(&pt));
    assert_eq!(calls(&pt), module.funcs.len() as u64);
    // Worker shards nest under the module span: the parallel profile
    // has the serial one's shape, call for call.
    let shape = |trace: &TraceData| -> Vec<(String, u64)> {
        let profile = trace.profile.iter();
        profile.map(|(path, p)| (path.clone(), p.count)).collect()
    };
    assert_eq!(shape(&pt), shape(&st));
    let top: Vec<&String> = pt.profile.keys().filter(|p| !p.contains('/')).collect();
    assert_eq!(top, ["compile_module"]);
}

#[test]
fn compiling_the_same_module_twice_is_deterministic() {
    // Guards against hash-iteration-order leaks anywhere in the
    // pipeline (the RASE cost biasing and the allocator's eviction
    // path have been bitten before).
    let module = marion::workloads::multi::combined_generated(6, 42);
    for machine in MACHINES {
        for strategy in STRATEGIES {
            let a = compile(machine, strategy, &module, 1, false);
            let b = compile(machine, strategy, &module, 1, false);
            assert_eq!(
                render(machine, &a),
                render(machine, &b),
                "{machine}/{strategy:?}: two identical compiles differ"
            );
        }
    }
}

#[test]
fn fifty_repeated_compiles_per_strategy_are_byte_identical() {
    // Regression guard for hash-iteration-order nondeterminism in the
    // scheduler: same-clock serialisation once walked a `HashMap` of
    // clock buckets in iteration order, so the chain chosen for the
    // i860's explicitly clocked pipelines (and hence the successor
    // lists, priorities and final schedule) could differ from run to
    // run. Fifty identical compiles per strategy on the clocked
    // machine must render the same bytes, serial or parallel.
    let module = marion::workloads::multi::combined_generated(2, 9);
    let machine = "i860";
    for strategy in STRATEGIES {
        let baseline = compile(machine, strategy, &module, 1, false);
        let expected = render(machine, &baseline);
        for run in 1..50usize {
            let jobs = if run % 2 == 0 { 1 } else { 4 };
            let again = compile(machine, strategy, &module, jobs, false);
            assert_eq!(
                expected,
                render(machine, &again),
                "{machine}/{strategy:?}: run {run} (jobs={jobs}) diverged"
            );
            assert_eq!(
                baseline.stats, again.stats,
                "{machine}/{strategy:?}: run {run} (jobs={jobs}) stats diverged"
            );
        }
    }
}

#[test]
fn indexed_selection_matches_brute_force() {
    let module = marion::workloads::multi::combined_livermore();
    for machine in MACHINES {
        let indexed = compile(machine, StrategyKind::Ips, &module, 1, false);
        let spec = marion::machines::load(machine);
        let brute = Compiler::with_options(
            spec.machine.brute_force_reference(),
            spec.escapes,
            StrategyKind::Ips,
            CompileOptions {
                jobs: NonZeroUsize::new(1),
                ..CompileOptions::default()
            },
        )
        .compile_module(&module)
        .unwrap_or_else(|e| panic!("{machine} brute-force reference: {e}"));
        assert_eq!(
            render(machine, &indexed),
            render(machine, &brute),
            "{machine}: SelectionIndex and brute-force matching diverge"
        );
        assert_eq!(indexed.stats, brute.stats);
    }
}
