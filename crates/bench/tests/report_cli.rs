//! `marion-report` rejects a flag that belongs to a mode the command
//! line did not choose (an HTML-only flag without `--html`, `--out`
//! without `--html` or `--dashboard`, `--jsonl` without `--demo`):
//! usage on stderr and exit 2 before any work, so nothing reaches
//! stdout and no file is written. Its text summary names each counter
//! column for what the counter counts.

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

/// The per-function summary's `sched_stall_cycles` column counts issue
/// cycles in which nothing issued, not the cycles instructions waited
/// that the stall-attribution table sums, and its header says so.
#[test]
fn summary_names_cycles_without_issue_empty_cycles() {
    let dir = std::env::temp_dir().join(format!("marion-report-cols-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    std::fs::write(
        &trace,
        "{\"t\":\"counter\",\"name\":\"sched_stall_cycles\",\"ctx\":\"m/f\",\"value\":65}\n\
         {\"t\":\"counter\",\"name\":\"stall_dependence\",\"ctx\":\"m/f\",\"value\":197}\n",
    )
    .unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_marion-report"))
        .arg(&trace)
        .output()
        .expect("marion-report runs");
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{:?}: {stdout}", run.status);
    let summary = stdout
        .split("per-function summary\n")
        .nth(1)
        .expect("a per-function summary");
    let header = summary.lines().next().expect("a header row");
    assert!(header.contains("empty cycles"), "{header}");
    assert!(!header.contains("stalls"), "{header}");
}
