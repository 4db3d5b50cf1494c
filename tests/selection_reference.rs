//! Indexed instruction selection must pick exactly what the
//! brute-force reference machine picks, on generated machine
//! descriptions as well as the five bundled ones.
//!
//! The `SelectionIndex` is complete only if every template that could
//! match a node is in that node's candidate list. In particular, a
//! node the classifier calls `RootShape::Other` gets only the chained
//! (temporal-rooted) templates, plus immediates when it folds: the
//! claim is that no other pattern can root there. Generated machines
//! vary register classes, immediate ranges, branch forms and EAP
//! chains, so they probe that claim well beyond the hand-written
//! descriptions.

use marion::backend::driver::materialize_float_constants;
use marion::backend::glue::apply_glue;
use marion::backend::select::select_func;
use marion::workloads::{livermore, suite};

#[test]
fn indexed_selection_matches_brute_force_on_generated_machines() {
    let escapes = marion::machines::toyp::escapes();
    // The 18 evaluation programs: 14 Livermore kernels and the 4
    // compile-suite programs.
    let mut programs = livermore::kernels();
    programs.extend(suite::programs());
    let modules: Vec<_> = programs
        .iter()
        .map(|w| {
            let mut module = w.module();
            materialize_float_constants(&mut module);
            module
        })
        .collect();
    let mut eap_machines = 0usize;
    for seed in 0..200u64 {
        let gen =
            marion_mdgen::generate(seed).unwrap_or_else(|e| panic!("seed {seed}: generator: {e}"));
        let machine = gen
            .machine()
            .unwrap_or_else(|e| panic!("seed {seed}: front door: {e}"));
        let reference = machine.brute_force_reference();
        eap_machines += usize::from(gen.config.eap.is_some());
        for module in &modules {
            for func in &module.funcs {
                let mut f = func.clone();
                apply_glue(&machine, &mut f)
                    .unwrap_or_else(|e| panic!("seed {seed}: glue {}: {e}", f.name));
                assert_eq!(
                    select_func(&machine, &escapes, module, &f),
                    select_func(&reference, &escapes, module, &f),
                    "seed {seed} ({}), function {}: indexed selection diverges from brute force",
                    gen.config.summary(),
                    f.name
                );
            }
        }
    }
    assert!(
        eap_machines > 0,
        "no generated machine has an EAP chain, so temporal-chain selection went untested"
    );
}
