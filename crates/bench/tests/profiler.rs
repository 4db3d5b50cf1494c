//! End-to-end checks on the self-profiler: the flame tree built from a
//! compile trace must be structurally identical at any `jobs` count,
//! its self-times must telescope exactly to the enclosing `strategy`
//! span, the spans nested in it must account for nearly all of the
//! strategy's wall time on a real workload, and none of them may sit
//! inside the scheduler's per-cycle loop. (A traced compile never
//! touches the compile cache; `tests/cache_correctness.rs` checks that.)

use marion_bench::flame::flame_tree;
use marion_core::{CompileOptions, CompiledProgram, Compiler, StrategyKind};
use marion_trace::TraceConfig;
use std::num::NonZeroUsize;

fn compile_livermore(strategy: StrategyKind, jobs: usize) -> CompiledProgram {
    let spec = marion_machines::load("r2000");
    let compiler = Compiler::with_options(
        spec.machine.clone(),
        spec.escapes,
        strategy,
        CompileOptions {
            trace: Some(TraceConfig::default()),
            jobs: NonZeroUsize::new(jobs),
            ..CompileOptions::default()
        },
    );
    let module = marion_workloads::multi::combined_livermore();
    compiler
        .compile_module(&module)
        .unwrap_or_else(|e| panic!("r2000/{strategy:?}: {e}"))
}

fn tree_of(program: &CompiledProgram) -> marion_bench::flame::FlameNode {
    flame_tree(program.trace.as_ref().expect("tracing was on"))
}

/// The flame tree's *structure* (paths and call counts, no timing) is
/// a pure function of the input module — serial and 8-way parallel
/// compiles must agree node for node.
#[test]
fn flame_tree_structure_is_identical_across_jobs_counts() {
    for strategy in [StrategyKind::Postpass, StrategyKind::Ips] {
        let serial = tree_of(&compile_livermore(strategy, 1));
        let parallel = tree_of(&compile_livermore(strategy, 8));
        assert!(
            !serial.children.is_empty(),
            "{strategy:?}: profiler produced an empty flame tree"
        );
        assert_eq!(
            serial.structure(),
            parallel.structure(),
            "{strategy:?}: flame tree differs between jobs=1 and jobs=8"
        );
    }
}

/// Per-node self-times telescope: summing `self` over the whole
/// `strategy` subtree reproduces the enclosing span's total exactly
/// (no double counting, nothing lost).
#[test]
fn strategy_subtree_self_times_sum_to_span_total() {
    let program = compile_livermore(StrategyKind::Rase, 1);
    let tree = tree_of(&program);
    let strategy = tree
        .find("compile_func/strategy")
        .expect("strategy span in flame tree");
    assert!(strategy.total_us > 0, "strategy span recorded no time");
    assert_eq!(
        strategy.self_sum(),
        strategy.total_us,
        "self-times must telescope to the span total"
    );
}

/// The spans inside `strategy` attribute at least 90% of its wall time
/// on the combined Livermore module — the profiler is dense enough
/// that "where does the time go" has a real answer. The shares are
/// summed over several compiles per strategy: one compile lasts a few
/// milliseconds, and a single preemption on a loaded host can land
/// between two spans and take a tenth of it.
#[test]
fn nested_spans_attribute_at_least_90_percent_of_strategy_time() {
    const COMPILES: usize = 5;
    for strategy in [
        StrategyKind::Postpass,
        StrategyKind::Ips,
        StrategyKind::Rase,
    ] {
        let (mut attributed, mut total) = (0u64, 0u64);
        for _ in 0..COMPILES {
            let tree = tree_of(&compile_livermore(strategy, 1));
            let node = tree
                .find("compile_func/strategy")
                .expect("strategy span in flame tree");
            attributed += node.children.iter().map(|c| c.total_us).sum::<u64>();
            total += node.total_us;
        }
        assert!(
            attributed * 10 >= total * 9,
            "{strategy:?}: over {COMPILES} compiles, nested spans cover {attributed} of {total} us \
             (< 90%)"
        );
    }
}

/// Nothing inside the list scheduler's cycle loop opens a span: below
/// every `sched:*` pass the flame tree holds only the per-block
/// `dag_build`, `prep` and `finalize` spans.
#[test]
fn scheduler_passes_hold_only_per_block_spans() {
    for strategy in [
        StrategyKind::Postpass,
        StrategyKind::Ips,
        StrategyKind::Rase,
        StrategyKind::NoSchedule,
    ] {
        let tree = tree_of(&compile_livermore(strategy, 1));
        let mut passes = 0;
        let mut stack = vec![&tree];
        while let Some(node) = stack.pop() {
            if !node.name.starts_with("sched:") {
                stack.extend(&node.children);
                continue;
            }
            passes += 1;
            let mut below: Vec<_> = node.children.iter().collect();
            while let Some(inner) = below.pop() {
                assert!(
                    matches!(inner.name.as_str(), "dag_build" | "prep" | "finalize"),
                    "{strategy:?}: `{}` below `{}`",
                    inner.name,
                    node.name
                );
                below.extend(&inner.children);
            }
        }
        assert!(
            passes > 0,
            "{strategy:?}: no sched:* pass in the flame tree"
        );
    }
}
