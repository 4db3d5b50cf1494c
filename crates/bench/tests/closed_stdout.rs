//! The paper-table binaries and the `--demo` runs of the explain and
//! report tools are often read by `head` or `grep -q`, which close the
//! pipe before the output is done. Each must then stop quietly —
//! status 0, nothing on stderr — instead of panicking with "failed
//! printing to stdout: Broken pipe".

use std::process::{Command, Stdio};

#[test]
fn paper_tables_stop_quietly_when_stdout_is_closed() {
    let bins: [(&str, &[&str]); 8] = [
        (env!("CARGO_BIN_EXE_table1"), &[]),
        (env!("CARGO_BIN_EXE_table2"), &[]),
        (env!("CARGO_BIN_EXE_table3"), &[]),
        (env!("CARGO_BIN_EXE_table4"), &["toyp"]),
        (env!("CARGO_BIN_EXE_ablation"), &[]),
        (env!("CARGO_BIN_EXE_fig7"), &[]),
        (env!("CARGO_BIN_EXE_marion-explain"), &["--demo"]),
        (env!("CARGO_BIN_EXE_marion-report"), &["--demo"]),
    ];
    for (bin, args) in bins {
        // A pipe whose reader is already gone: the first line written
        // fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn")
            .wait_with_output()
            .expect("wait");
        assert!(
            out.status.success(),
            "{bin}: {:?}, stderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stderr.is_empty(),
            "{bin}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
