//! Table 1 — Maril machine description statistics.
//!
//! The paper reports section sizes (in lines) and item counts for the
//! 88000, R2000 and i860 descriptions; TOYP is added for reference.
//! Shape to expect: only the i860 needs clocks, elements and classes;
//! the R2000 needs no auxiliary latencies; the i860's declare section
//! dwarfs the others.

use marion_bench::outln;
use marion_machines::{load, ALL};

type StatRow = (
    &'static str,
    Box<dyn Fn(&marion_maril::DescriptionStats) -> usize>,
);

fn main() {
    outln!("Table 1: Maril machine description statistics");
    outln!("(paper reported 88000/R2000/i860: clocks 0/0/4, classes 0/0/67, aux 6/0/12)");
    outln!();
    let specs: Vec<_> = ALL.iter().map(|n| load(n)).collect();
    let name_row: Vec<String> = std::iter::once("".to_string())
        .chain(specs.iter().map(|s| s.machine.name().to_string()))
        .collect();
    let widths = [16usize, 8, 8, 8, 8];
    outln!("{}", marion_bench::row(&name_row, &widths));
    let rows: Vec<StatRow> = vec![
        ("Declare lines", Box::new(|s| s.declare_lines)),
        ("Cwvm lines", Box::new(|s| s.cwvm_lines)),
        ("Instr lines", Box::new(|s| s.instr_lines)),
        ("Instr dirs", Box::new(|s| s.instr_directives)),
        ("Clocks", Box::new(|s| s.clocks)),
        ("Elements", Box::new(|s| s.elements)),
        ("Classes", Box::new(|s| s.classes)),
        ("Aux lats", Box::new(|s| s.aux_lats)),
        ("Glue xforms", Box::new(|s| s.glue_xforms)),
        ("funcs", Box::new(|s| s.funcs)),
    ];
    for (label, get) in rows {
        let cells: Vec<String> = std::iter::once(label.to_string())
            .chain(specs.iter().map(|s| get(s.machine.stats()).to_string()))
            .collect();
        outln!("{}", marion_bench::row(&cells, &widths));
    }
}
