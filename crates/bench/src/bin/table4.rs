//! Table 4 — Livermore Loops: execution time per strategy and the
//! ratio of actual to estimated execution time.
//!
//! The paper ran the Marion-compiled kernels on a 25 MHz DECstation
//! 5000 and compared against the schedulers' per-block cycle
//! estimates (which ignore cache misses). Here "actual" is the
//! pipeline simulator with its I/D caches enabled and "estimated" is
//! Σ block-estimate × execution count, exactly the paper's
//! construction. Expected shape: ratios slightly above 1.0 and
//! consistent across strategies for each loop; per-strategy times
//! close, with IPS/RASE never slower than Postpass on the FP-heavy
//! kernels.

use marion_bench::outln;
use marion_bench::{geomean, measure, row, verify_against_interp};
use marion_core::StrategyKind;
use marion_sim::SimConfig;

fn main() {
    let machine = std::env::args().nth(1).unwrap_or_else(|| "r2000".into());
    let spec = marion_machines::load(&machine);
    let config = SimConfig::default();
    outln!("Table 4: Livermore loops on {machine} — cycles per strategy and actual/estimated");
    outln!("(paper: R2000 at 25MHz; ratios 0.99-1.15, consistent across strategies per loop)");
    outln!();
    let widths = [5usize, 11, 11, 11, 7, 7, 7];
    outln!(
        "{}",
        row(
            &[
                "Ker".into(),
                "Postp cyc".into(),
                "IPS cyc".into(),
                "RASE cyc".into(),
                "P a/e".into(),
                "I a/e".into(),
                "R a/e".into(),
            ],
            &widths
        )
    );
    let mut cyc = [Vec::new(), Vec::new(), Vec::new()];
    let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
    for kernel in marion_workloads::livermore::kernels() {
        let mut cells = vec![kernel.name.clone()];
        let mut rcells = Vec::new();
        for (si, strategy) in StrategyKind::ALL.iter().enumerate() {
            let m = measure(&spec, *strategy, &kernel, &config);
            verify_against_interp(&kernel, &m);
            let ratio = m.run.cycles as f64 / m.estimated_cycles.max(1) as f64;
            cyc[si].push(m.run.cycles as f64);
            ratios[si].push(ratio);
            cells.push(m.run.cycles.to_string());
            rcells.push(format!("{ratio:.2}"));
        }
        cells.extend(rcells);
        outln!("{}", row(&cells, &widths));
    }
    let mut mean = vec!["mean".to_string()];
    let mut rmean = Vec::new();
    for si in 0..3 {
        mean.push(format!("{:.0}", geomean(&cyc[si])));
        rmean.push(format!("{:.2}", geomean(&ratios[si])));
    }
    mean.extend(rmean);
    outln!("{}", row(&mean, &widths));
}
