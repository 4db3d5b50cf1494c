//! `marion-report` rejects a flag that belongs to a mode the command
//! line did not choose (an HTML-only flag without `--html`, `--out`
//! without `--html` or `--dashboard`, `--jsonl` without `--demo`):
//! usage on stderr and exit 2 before any work, so nothing reaches
//! stdout and no file is written.

use std::process::Command;

#[test]
fn flags_of_an_unchosen_mode_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("marion-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    std::fs::write(
        &trace,
        "{\"t\":\"counter\",\"name\":\"insts_generated\",\"ctx\":\"m/f\",\"value\":3}\n",
    )
    .unwrap();
    let trace = trace.to_str().unwrap();
    let cases: [&[&str]; 8] = [
        &["--quality", "q.json"],
        &["--retarget", "r.json"],
        &["--bench-diff", "a.json", "b.json"],
        &["--quality", "q.json", trace],
        &["--serve", "m.json", trace],
        &["--serve", "m.json", "--demo"],
        &["--out", "o.html", trace],
        &["--jsonl", "o.jsonl", trace],
    ];
    let mut failures = Vec::new();
    for args in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_marion-report"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("marion-report runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        if run.status.code() != Some(2)
            || !stderr.contains("usage: marion-report")
            || !run.stdout.is_empty()
        {
            failures.push(format!("{args:?}: {:?}\n{stderr}", run.status));
        }
    }
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.retain(|name| name != "t.jsonl");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(written.is_empty(), "a rejected command wrote {written:?}");
}
