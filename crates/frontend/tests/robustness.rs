//! Front-end robustness: malformed C must produce diagnostics with
//! line numbers, never panics; fuzzed inputs never crash the
//! lexer/parser/lowerer.
//!
//! Fuzzing is driven by the workspace's shared SplitMix64 stream
//! (`marion-rng`, deterministic); each case can be reproduced from
//! its index.

use marion_frontend::compile;
use marion_rng::SplitMix64;

/// A small character-soup helper over the shared stream.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(SplitMix64::new(seed))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.index(n)
    }

    fn string(&mut self, charset: &[u8], max_len: usize) -> String {
        let len = self.below(max_len + 1);
        (0..len)
            .map(|_| charset[self.below(charset.len())] as char)
            .collect()
    }
}

const BASE: &str = "
double a[8];
int helper(int x) { return x * 2 + 1; }
int main() {
    int i, s = 0;
    for (i = 0; i < 8; i++) {
        a[i] = i * 0.5;
        if (i % 2 == 0) s += helper(i); else s -= i;
    }
    while (s > 100) s /= 3;
    return s + (int)a[3];
}
";

/// Printable-ASCII noise charset (space through tilde).
fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

#[test]
fn truncations_never_panic() {
    // Every truncation point, not just a sample — BASE is small.
    for cut in 0..=BASE.len() {
        if !BASE.is_char_boundary(cut) {
            continue;
        }
        let _ = compile(&BASE[..cut]);
    }
}

#[test]
fn mutations_never_panic() {
    let charset = printable();
    let mut rng = Rng::new(0xF00D);
    for _ in 0..256 {
        let mut pos = rng.below(BASE.len());
        while !BASE.is_char_boundary(pos) {
            pos -= 1;
        }
        let mut noise = rng.string(&charset, 10);
        if noise.is_empty() {
            noise.push('!');
        }
        let mutated = format!("{}{}{}", &BASE[..pos], noise, &BASE[pos..]);
        let _ = compile(&mutated);
    }
}

#[test]
fn source_soup_never_panics() {
    let charset: Vec<u8> =
        b"abcdefghijklmnopqrstuvwxyz0123456789{}()[];,+*/%<>=!&|^~. \n-".to_vec();
    let mut rng = Rng::new(0x50FA);
    for _ in 0..256 {
        let src = rng.string(&charset, 300);
        let _ = compile(&src);
    }
}

#[test]
fn diagnostics_carry_lines_and_descriptions() {
    let cases: &[(&str, &str)] = &[
        ("int main() {\n  return x;\n}", "unknown variable"),
        ("int main() {\n  break;\n}", "break"),
        ("int main() {\n  continue;\n}", "continue"),
        ("void f() {\n  return 1;\n}", "void"),
        (
            "int f();\ndouble f();\nint main() { return 0; }",
            "conflicting",
        ),
        (
            "int main() {\n  int x[2] = {1, 2};\n  return 0;\n}",
            "initialiser",
        ),
        ("int main() {\n  return 1 +;\n}", "expected expression"),
        ("int main() {\n  5 = 3;\n  return 0;\n}", "not assignable"),
        ("int main() {\n  int v;\n  return *v;\n}", "non-pointer"),
        (
            "int main() {\n  double d;\n  return d & 1;\n}",
            "integer operator",
        ),
        ("int x = y;\nint main() { return 0; }", "constant"),
        (
            "int main(int a, int b) { return a; }\nint g() { return main(1); }",
            "arguments",
        ),
    ];
    for (src, needle) in cases {
        let err = compile(src).expect_err(src);
        assert!(
            err.message.contains(needle),
            "for {src:?}: expected {needle:?} in {:?}",
            err.message
        );
        assert!(err.line > 0, "no line for {src:?}");
    }
}

#[test]
fn int_literals_wider_than_32_bits_are_rejected() {
    for (src, literal) in [
        (
            "int main() {\n  int x = 4294967297;\n  return x;\n}",
            "4294967297",
        ),
        ("int main() {\n  return 2147483648;\n}", "2147483648"),
        ("int main() {\n  return 0x100000000;\n}", "4294967296"),
        (
            "int main() {\n  return 0x7fffffffffffffff;\n}",
            "9223372036854775807",
        ),
        ("int main() {\n  return 1 - 2147483648;\n}", "2147483648"),
        ("int main() {\n  return -(2147483648);\n}", "2147483648"),
        (
            "int g;\nint h = 4294967296;\nint main() { return h; }",
            "4294967296",
        ),
        (
            "int main() {\n  int a[4294967297];\n  return 0;\n}",
            "4294967297",
        ),
    ] {
        let err = compile(src).expect_err(src);
        assert!(
            err.message.contains(literal) && err.message.contains("32-bit"),
            "for {src:?}: {:?}",
            err.message
        );
        assert_eq!(err.line, 2, "for {src:?}");
    }
}

#[test]
fn int_min_and_int_max_literals_compile() {
    use marion_ir::interp::{Interp, Value};
    for (src, expected) in [
        ("int main() { return 2147483647; }", i64::from(i32::MAX)),
        ("int main() { return -2147483648; }", i64::from(i32::MIN)),
        (
            "int main() { int x = -2147483648; return x + 1; }",
            i64::from(i32::MIN) + 1,
        ),
    ] {
        let module = compile(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let mut i = Interp::new(&module, 1 << 16);
        assert_eq!(
            i.call_by_name("main", &[]).unwrap(),
            Some(Value::I(expected)),
            "{src}"
        );
    }
}

#[test]
fn subtle_but_legal_programs_compile() {
    for src in [
        // Dangling else binds to the nearest if.
        "int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }",
        // Assignment as a value.
        "int main() { int a, b; a = b = 5; return a + b; }",
        // Unary chains.
        "int main() { return - - -5 + ~~7 + !!9; }",
        // Comparison chains via parens.
        "int main() { return (1 < 2) == (3 < 4); }",
        // Empty statements and blocks.
        "int main() { ;;; {} { ; } return 0; }",
        // Shadowing in nested scopes.
        "int main() { int x = 1; { int x = 2; { int x = 3; } } return x; }",
        // For-loop with declaration in the init clause.
        "int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }",
        // Char arithmetic and promotions.
        "int main() { char c = 'A'; return c + 1; }",
        // Mixed int/double expressions everywhere.
        "int main() { double d = 1; int i = 2.5; return (int)(d + i); }",
        // Deeply nested calls.
        "int id(int x) { return x; } int main() { return id(id(id(id(4)))); }",
    ] {
        compile(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    }
}

#[test]
fn shadowing_semantics_are_correct() {
    use marion_ir::interp::{Interp, Value};
    let module = compile(
        "int main() {
            int x = 1, s = 0;
            { int x = 10; s += x; }
            s += x;
            for (int x = 100; x < 102; x++) s += x;
            s += x;
            return s;
        }",
    )
    .unwrap();
    let mut i = Interp::new(&module, 1 << 16);
    assert_eq!(
        i.call_by_name("main", &[]).unwrap(),
        Some(Value::I(10 + 1 + 100 + 101 + 1))
    );
}
