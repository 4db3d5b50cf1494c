//! §5 headline result — "RASE and IPS both produce code that is 12%
//! faster than that produced by Postpass, on a computation-intensive
//! workload" \[BEH91b\].
//!
//! Reads the committed quality matrix (`BENCH_quality.json`, written
//! by `marion-bench quality`) and prints each strategy's speedup over
//! Postpass per machine (geometric mean over the compute-intensive
//! workload set — the Livermore kernels plus the float suite
//! programs). The table derives from the same measurements the
//! quality-regression gate enforces, so it never re-measures.
//!
//! ```text
//! speedup [--from BENCH_quality.json]
//! ```

use marion_bench::outln;
use marion_bench::{geomean, row};
use marion_trace::json::Json;

struct Run {
    machine: String,
    strategy: String,
    sim_cycles: f64,
}

fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e} (run `marion-bench quality` first)"))?;
    let doc = Json::parse(&text)?;
    if doc.str("bench") != Some("quality") {
        return Err(format!("{path} is not a quality bench document"));
    }
    let runs = doc.arr("runs").ok_or("quality document has no runs[]")?;
    Ok(runs
        .iter()
        .filter_map(|run| {
            Some(Run {
                machine: run.str("machine")?.to_string(),
                strategy: run.str("strategy")?.to_string(),
                sim_cycles: run.num("sim_cycles")?,
            })
        })
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut from = "BENCH_quality.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => {
                i += 1;
                from = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("speedup: --from needs a value");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("speedup: unknown argument `{other}` (usage: speedup [--from PATH])");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let runs = load_runs(&from).unwrap_or_else(|e| {
        eprintln!("speedup: {e}");
        std::process::exit(2);
    });

    let mut machines: Vec<String> = Vec::new();
    for r in &runs {
        if !machines.contains(&r.machine) {
            machines.push(r.machine.clone());
        }
    }
    outln!("Strategy speedups over Postpass (geomean cycles, computation-intensive suite)");
    outln!("(paper: RASE and IPS each about 12% faster than Postpass; from {from})");
    outln!();
    let widths = [7usize, 14, 12, 12];
    outln!(
        "{}",
        row(
            &[
                "target".into(),
                "Postpass cyc".into(),
                "IPS".into(),
                "RASE".into()
            ],
            &widths
        )
    );
    for machine in &machines {
        let cycles = |strategy: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| &r.machine == machine && r.strategy.eq_ignore_ascii_case(strategy))
                .map(|r| r.sim_cycles)
                .collect()
        };
        let post = geomean(&cycles("postpass"));
        let ips = geomean(&cycles("ips"));
        let rase = geomean(&cycles("rase"));
        if post == 0.0 || ips == 0.0 || rase == 0.0 {
            eprintln!("speedup: {machine}: incomplete strategy coverage in {from}");
            std::process::exit(2);
        }
        outln!(
            "{}",
            row(
                &[
                    machine.clone(),
                    format!("{post:.0}"),
                    format!("{:+.1}%", (post / ips - 1.0) * 100.0),
                    format!("{:+.1}%", (post / rase - 1.0) * 100.0),
                ],
                &widths
            )
        );
    }
}
