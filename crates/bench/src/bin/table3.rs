//! Table 3 — time spent compiling the program suite, plus dilation.
//!
//! The paper compiled its suite (NAS Kernel, SPHOT, ARC2D, Lcc) for
//! the R2000 and the i860 with all three strategies and reported back
//! end time and dilation (instructions executed / instructions
//! generated). Expected shape: Postpass < IPS < RASE in compile time
//! (IPS schedules twice, RASE four times in effect) and i860
//! compilation roughly twice the R2000's (temporal registers, classes
//! and sub-operations).

use marion_bench::outln;
use marion_bench::{measure, row};
use marion_core::StrategyKind;
use marion_sim::SimConfig;
use std::time::Duration;

fn main() {
    let config = SimConfig::default();
    let suite = marion_workloads::suite::programs();
    outln!("Table 3: back-end compile time for the program suite + dilation");
    outln!("(paper shape: Postpass < IPS < RASE; i860 ≈ 2x R2000)");
    outln!();
    let widths = [7usize, 10, 14, 12];
    outln!(
        "{}",
        row(
            &[
                "target".into(),
                "strategy".into(),
                "time (ms)".into(),
                "dilation".into()
            ],
            &widths
        )
    );
    for machine in ["r2000", "i860"] {
        let spec = marion_machines::load(machine);
        for strategy in StrategyKind::ALL {
            let mut total = Duration::ZERO;
            let mut executed = 0u64;
            let mut generated = 0usize;
            // Compile the whole suite several times so the clock sees
            // more than noise.
            const REPS: u32 = 5;
            for _ in 0..REPS {
                for w in &suite {
                    let m = measure(&spec, strategy, w, &config);
                    total += m.compile_time;
                    executed += m.run.insts_executed;
                    generated += m.program.asm.inst_count();
                }
            }
            outln!(
                "{}",
                row(
                    &[
                        machine.into(),
                        strategy.name().into(),
                        format!("{:.1}", total.as_secs_f64() * 1000.0),
                        format!("{:.2}", executed as f64 / generated as f64),
                    ],
                    &widths
                )
            );
        }
    }
}
