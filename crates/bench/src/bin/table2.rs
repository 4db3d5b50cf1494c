//! Table 2 — Marion system source code size (in lines of Rust).
//!
//! The paper buckets its C sources into the code generator generator
//! (CGG), the target- and strategy-independent portion (TSI), the
//! target-dependent portion per machine (TD) and the
//! strategy-dependent portion per strategy (SD). The same
//! decomposition maps onto this repository's crates and modules; the
//! shape to expect is the paper's: TD (per machine) and TSI dominate,
//! RASE > IPS > Postpass among the strategies.

use marion_bench::outln;
use std::fs;
use std::path::{Path, PathBuf};

fn loc(path: &Path) -> usize {
    match fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count(),
        Err(_) => 0,
    }
}

fn loc_dir(dir: &Path) -> usize {
    let mut total = 0;
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                total += loc_dir(&p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                total += loc(&p);
            }
        }
    }
    total
}

/// Lines of the braced block that opens at the first `marker` in
/// `src` (0 when there is none).
fn block_lines(src: &str, marker: &str) -> usize {
    let Some(start) = src.find(marker) else {
        return 0;
    };
    let mut depth = 0usize;
    let mut lines = 0usize;
    let mut started = false;
    for line in src[start..].lines() {
        lines += 1;
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if started && depth == 0 {
            break;
        }
    }
    lines
}

/// Lines of one strategy's own code in strategy.rs: its arm of
/// `StrategyKind::run` plus the helpers named after it (`ips_limit`,
/// `rase_estimates`).
fn strategy_lines(src: &str, variant: &str) -> usize {
    let run = src.find("pub fn run(").map_or("", |at| &src[at..]);
    let arm = block_lines(run, &format!("StrategyKind::{variant} =>"));
    let helper = format!("fn {}_", variant.to_lowercase());
    arm + src
        .match_indices(&helper)
        .map(|(at, _)| block_lines(&src[at..], &helper))
        .sum::<usize>()
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    outln!("Table 2: Marion system source size (non-blank lines of Rust)");
    outln!("(paper, in C: CGG 4991; TSI 10877; TD 5512-8492 per target; SD 151/1269/3750)");
    outln!();
    let cgg = loc_dir(&root.join("crates/maril/src"));
    let tsi = loc_dir(&root.join("crates/core/src")) + loc_dir(&root.join("crates/ir/src"));
    outln!("{:44} {:>6}", "Code Generator Generator (CGG = maril)", cgg);
    outln!("{:44} {:>6}", "Target- and strategy-independent (TSI)", tsi);
    for m in ["toyp", "r2000", "m88k", "i860"] {
        let td = loc(&root.join(format!("crates/machines/src/{m}.rs")));
        outln!("{:44} {:>6}", format!("Target-dependent (TD), {m}"), td);
    }
    let strategy_src =
        fs::read_to_string(root.join("crates/core/src/strategy.rs")).unwrap_or_default();
    for s in ["Postpass", "Ips", "Rase"] {
        outln!(
            "{:44} {:>6}",
            format!("Strategy-dependent (SD), {s}"),
            strategy_lines(&strategy_src, s)
        );
    }
    outln!(
        "{:44} {:>6}",
        "Front end (not counted in TSI, as in the paper)",
        loc_dir(&root.join("crates/frontend/src"))
    );
    outln!(
        "{:44} {:>6}",
        "Simulator (the paper used real hardware)",
        loc_dir(&root.join("crates/sim/src"))
    );
}
