//! Multi-function workloads: the Livermore kernels linked into one
//! module.
//!
//! Each kernel ships as a single-`main` translation unit; here they
//! are absorbed into one module under `llN_` prefixes, with a driver
//! `main` that calls every kernel and returns the sum of their
//! checksums. The result is the module-shaped workload the parallel
//! per-function compilation path needs — one compilation unit, many
//! independent functions.

use crate::gen::{random_program, GenConfig};
use crate::livermore;
use marion_ir::{BinOp, FuncBuilder, Module};
use marion_maril::Ty;

/// Links the given single-`main` modules into one module with a
/// driver `main` that calls each absorbed entry (prefix `pN_`) in
/// order and returns the sum of their checksums.
fn link_with_driver(units: &[Module], prefixes: &[String]) -> Module {
    let mut module = Module::new();
    let mut entries = Vec::new();
    for (unit, prefix) in units.iter().zip(prefixes) {
        module.absorb(unit, prefix);
        entries.push(format!("{prefix}main"));
    }
    let mut b = FuncBuilder::new("main", Some(Ty::Int));
    let acc = b.new_vreg(Ty::Int);
    let zero = b.const_i(0, Ty::Int);
    b.set_vreg(acc, zero);
    for name in &entries {
        let sym = module.symbol_id(name).expect("absorbed entry");
        let r = b.call(sym, Vec::new(), Ty::Int);
        let cur = b.read_vreg(acc);
        let sum = b.bin(BinOp::Add, cur, r, Ty::Int);
        b.set_vreg(acc, sum);
    }
    let result = b.read_vreg(acc);
    b.ret(Some(result));
    module.add_func(b.finish());
    module
}

/// The first fourteen Livermore kernels linked into one module, plus
/// a driver `main` calling each `llN_main` in order and accumulating
/// an integer checksum.
pub fn combined_livermore() -> Module {
    let kernels = livermore::kernels();
    let units: Vec<Module> = kernels.iter().map(|w| w.module()).collect();
    let prefixes: Vec<String> = kernels
        .iter()
        .map(|w| format!("{}_", w.name.to_lowercase()))
        .collect();
    link_with_driver(&units, &prefixes)
}

/// `count` seeded random programs (seeds `seed..seed + count`, wrapping
/// past `u64::MAX`) linked into one module with a driver `main` summing
/// their checksums — the generated counterpart of [`combined_livermore`].
pub fn combined_generated(count: u64, seed: u64) -> Module {
    let config = GenConfig::default();
    let units: Vec<Module> = (0..count)
        .map(|i| {
            let seed = seed.wrapping_add(i);
            let src = random_program(seed, &config);
            marion_frontend::compile(&src)
                .unwrap_or_else(|e| panic!("generated program seed {seed}: {e}"))
        })
        .collect();
    let prefixes: Vec<String> = (0..count).map(|i| format!("g{i}_")).collect();
    link_with_driver(&units, &prefixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_ir::interp::Interp;

    #[test]
    fn combined_checksum_is_the_sum_of_the_kernels() {
        let mut expected = 0i64;
        for w in livermore::kernels() {
            let module = w.module();
            let mut interp = Interp::new(&module, 1 << 22).with_budget(200_000_000);
            expected += interp
                .call_by_name("main", &[])
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
                .expect("kernel main returns a checksum")
                .as_i();
        }
        let module = combined_livermore();
        assert_eq!(module.funcs.len(), 15, "14 kernels + driver main");
        let mut interp = Interp::new(&module, 1 << 23).with_budget(3_000_000_000);
        let got = interp
            .call_by_name("main", &[])
            .expect("combined main")
            .expect("combined main returns a checksum")
            .as_i();
        assert_eq!(got, expected);
    }

    #[test]
    fn combined_generated_links_and_runs() {
        let module = combined_generated(6, 42);
        assert_eq!(module.funcs.len(), 7, "6 generated units + driver main");
        let mut interp = Interp::new(&module, 1 << 22).with_budget(500_000_000);
        interp
            .call_by_name("main", &[])
            .expect("combined generated main")
            .expect("checksum");
    }
}
