//! Seeded random program generation for stress-testing the whole
//! tool chain (front end → selection → scheduling → allocation →
//! simulation).
//!
//! Generated programs are closed (no inputs), deterministic, and
//! terminate; every integer division/remainder is guarded away from
//! zero so both the reference interpreter and generated code are
//! defined. Floating expressions avoid division entirely (values stay
//! in ranges where double rounding is exact enough to compare).
//!
//! Randomness comes from the workspace's [`marion_rng::SplitMix64`]
//! generator, so generation is deterministic across platforms and the
//! crate builds with no external dependencies.

use marion_rng::SplitMix64;

/// Parameters for the generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum expression depth.
    pub max_depth: u32,
    /// Number of scalar int variables.
    pub int_vars: u32,
    /// Number of scalar double variables.
    pub dbl_vars: u32,
    /// Number of statements in the loop body.
    pub stmts: u32,
    /// Loop iterations.
    pub iters: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 4,
            int_vars: 6,
            dbl_vars: 4,
            stmts: 10,
            iters: 8,
        }
    }
}

/// Generates a random self-checking program from a seed.
pub fn random_program(seed: u64, config: &GenConfig) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut src = String::new();
    src.push_str("int main() {\n");
    for i in 0..config.int_vars {
        let init = rng.range(-50, 50);
        src.push_str(&format!("    int i{i} = {init};\n"));
    }
    for d in 0..config.dbl_vars {
        let whole = rng.range(-8, 8);
        let frac = rng.range(0, 16) as f64 / 16.0;
        src.push_str(&format!("    double d{d} = {:.6};\n", whole as f64 + frac));
    }
    src.push_str(&format!(
        "    int it;\n    for (it = 0; it < {}; it++) {{\n",
        config.iters
    ));
    for _ in 0..config.stmts {
        let stmt = random_stmt(&mut rng, config);
        src.push_str("        ");
        src.push_str(&stmt);
        src.push('\n');
    }
    src.push_str("    }\n    return ");
    let mut terms: Vec<String> = (0..config.int_vars).map(|i| format!("i{i}")).collect();
    for d in 0..config.dbl_vars {
        // Clamp doubles into int range before folding them in.
        terms.push(format!(
            "(int)(d{d} - (double)(int)(d{d} * 0.001) * 1000.0)"
        ));
    }
    src.push_str(&terms.join(" + "));
    src.push_str(";\n}\n");
    src
}

fn random_stmt(rng: &mut SplitMix64, config: &GenConfig) -> String {
    if rng.chance(0.3) && config.dbl_vars > 0 {
        let d = rng.below(config.dbl_vars as u64);
        let e = random_dbl_expr(rng, config, config.max_depth);
        // Keep magnitudes bounded so checksums stay exactly
        // representable.
        format!("d{d} = ({e}) * 0.5 + 0.125;")
    } else if rng.chance(0.25) {
        let i = rng.below(config.int_vars as u64);
        let c = random_int_expr(rng, config, 2);
        let t = random_int_expr(rng, config, 2);
        let f = random_int_expr(rng, config, 2);
        format!("if (({c}) % 7 < 3) i{i} = {t}; else i{i} = {f};")
    } else {
        let i = rng.below(config.int_vars as u64);
        let e = random_int_expr(rng, config, config.max_depth);
        format!("i{i} = ({e}) % 100003;")
    }
}

fn random_int_expr(rng: &mut SplitMix64, config: &GenConfig, depth: u32) -> String {
    if depth == 0 || rng.chance(0.3) {
        return if rng.chance(0.5) {
            format!("i{}", rng.below(config.int_vars as u64))
        } else {
            format!("{}", rng.range(-100, 100))
        };
    }
    let a = random_int_expr(rng, config, depth - 1);
    let b = random_int_expr(rng, config, depth - 1);
    match rng.below(8) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        // Division guarded away from zero.
        3 => format!("({a} / (({b}) % 13 + 14))"),
        4 => format!("({a} % (({b}) % 11 + 12))"),
        5 => format!("({a} & {b})"),
        6 => format!("({a} ^ {b})"),
        _ => format!("({a} | {b})"),
    }
}

fn random_dbl_expr(rng: &mut SplitMix64, config: &GenConfig, depth: u32) -> String {
    if depth == 0 || rng.chance(0.35) {
        return if rng.chance(0.6) && config.dbl_vars > 0 {
            format!("d{}", rng.below(config.dbl_vars as u64))
        } else {
            let w = rng.range(-4, 4);
            let f = rng.range(0, 8) as f64 / 8.0;
            format!("{:.6}", w as f64 + f)
        };
    }
    let a = random_dbl_expr(rng, config, depth - 1);
    let b = random_dbl_expr(rng, config, depth - 1);
    match rng.below(3) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        _ => format!("({a} * 0.25 + {b} * 0.125)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_ir::interp::Interp;

    #[test]
    fn generated_programs_compile_and_terminate() {
        let config = GenConfig::default();
        for seed in 0..20 {
            let src = random_program(seed, &config);
            let module = marion_frontend::compile(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let mut interp = Interp::new(&module, 1 << 20).with_budget(10_000_000);
            interp
                .call_by_name("main", &[])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::default();
        assert_eq!(random_program(7, &config), random_program(7, &config));
        assert_ne!(random_program(7, &config), random_program(8, &config));
    }
}
