//! `marion-bench` turns a bad command line into its usage line and
//! exit 2 before any bench work starts: nothing reaches stdout and no
//! bench file is written.

use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("marion-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [&[&str]; 10] = [
        &["compile", "--iters"],
        &["compile", "--iters", "x"],
        &["compile", "--iters", "0"],
        &["compile", "--iters", "-1"],
        &["compile", "--out"],
        &["serve", "--out"],
        &["quality", "--out"],
        &["quality", "--smoke", "--bogus"],
        &["diff", "only-one.json"],
        &["frobnicate"],
    ];
    let mut failures = Vec::new();
    for args in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_marion-bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("marion-bench runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        if run.status.code() != Some(2)
            || !stderr.contains("usage: marion-bench")
            || !run.stdout.is_empty()
        {
            failures.push(format!("{args:?}: {:?}\n{stderr}", run.status));
        }
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(written.is_empty(), "a rejected command wrote {written:?}");
}
