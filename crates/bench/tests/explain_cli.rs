//! `marion-explain` end to end: `--strategy` selects the strategy
//! whose final schedules are narrated and audited, each narrated block
//! prints its reservation table, an unknown strategy or a `--blocks`
//! without a number is a usage error, and the usage line lists every
//! explain flag.

use std::process::{Command, Output};

/// A floating-point kernel whose IPS and Postpass schedules differ on
/// the R2000.
const KERNEL: &str = "double x[64]; double y[64]; double z[64]; int main() { int i; int n = 0; \
    for (i = 0; i < 64; i++) { double t = x[i] * y[i] + z[i] * x[i] - y[i] * z[i]; \
    z[i] = t * x[i] + y[i] * t; n = n + i; } return n; }";

fn explain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_marion-explain"))
        .args(args)
        .output()
        .expect("marion-explain runs")
}

#[test]
fn strategy_flag_selects_the_explained_schedules() {
    let dir = std::env::temp_dir().join(format!("marion-explain-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("kernel.c");
    std::fs::write(&src, KERNEL).unwrap();
    let src = src.to_str().unwrap();

    let ips = explain(&["r2000", src, "--strategy", "ips", "--check"]);
    let postpass = explain(&["r2000", src, "--strategy", "postpass", "--check"]);
    let bogus = explain(&["r2000", src, "--strategy", "bogus"]);
    let bad_blocks = explain(&["r2000", src, "--blocks", "x"]);
    let no_blocks = explain(&["r2000", src, "--blocks"]);
    std::fs::remove_dir_all(&dir).unwrap();

    for (name, out) in [("ips", &ips), ("postpass", &postpass)] {
        assert!(
            out.status.success(),
            "{name}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.ends_with("all checks passed\n"));
        // Each narrated block is followed by its reservation table.
        let tables = stdout.matches("\n  cycle | ").count();
        assert!(tables > 0, "{name}: no reservation table");
        assert_eq!(
            tables,
            stdout.matches("\nblock b").count(),
            "{name}: a narrated block printed no reservation table"
        );
    }
    assert_ne!(
        ips.stdout, postpass.stdout,
        "IPS explained Postpass's schedules"
    );
    for (name, out) in [
        ("--strategy bogus", &bogus),
        ("--blocks x", &bad_blocks),
        ("--blocks", &no_blocks),
    ] {
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(out.stdout.is_empty(), "{name}: narrated anyway");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.contains("--blocks N"), "{name}: {usage}");
    }
}
