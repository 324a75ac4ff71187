//! The `repro` binary's command line: asking for help succeeds, and an
//! unknown experiment fails with the usage text.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert!(out.status.success(), "{flag} exited {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage: repro"), "{flag}: {stdout}");
    }
}

#[test]
fn unknown_experiment_exits_nonzero_with_usage() {
    let out = repro(&["throughput"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown experiment 'throughput'"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
