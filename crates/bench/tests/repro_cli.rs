//! `repro`'s command line: every word it does not know is an error,
//! never a silently ignored target or flag.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// The run exited 2 with `message` on stderr and printed no table.
fn assert_rejected(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr was {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
}

#[test]
fn unknown_target_is_rejected() {
    assert_rejected(&["fig7"], "unknown target `fig7`");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["table1", "--job", "2"], "unknown flag `--job`");
}

#[test]
fn json_without_directory_is_rejected() {
    assert_rejected(&["--json"], "--json expects a directory");
    assert_rejected(
        &["table4", "--json", "--jobs", "2"],
        "--json expects a directory",
    );
}

#[test]
fn bad_flag_values_are_rejected() {
    assert_rejected(&["--jobs", "0"], "--jobs expects a positive number");
    assert_rejected(&["--refs", "many"], "--refs expects a number");
    assert_rejected(&["--refs", "0"], "--refs expects a positive number");
    assert_rejected(&["--scale", "huge"], "unknown scale `huge`");
}

#[test]
fn known_target_writes_its_record() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    let out = repro(&[
        "table4",
        "--refs",
        "2000",
        "--jobs",
        "2",
        "--json",
        dir.to_str().expect("temp path is UTF-8"),
    ]);
    let written = std::fs::read_to_string(dir.join("table4.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 4"));
    assert!(written.expect("table4.json written").contains("\"table4\""));
}
