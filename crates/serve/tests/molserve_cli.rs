//! `molserve`'s command line: a bad value exits 1 with a message before
//! any traffic is replayed.

use std::process::Command;

fn assert_rejected(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_molserve"))
        .args(args)
        .output()
        .expect("molserve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr was {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} replayed traffic");
}

#[test]
fn bad_flag_values_are_rejected() {
    assert_rejected(&["--refs", "0"], "--refs must be at least 1");
    assert_rejected(&["--refs", "0", "--verify"], "--refs must be at least 1");
    assert_rejected(&["--tenants", "0"], "--tenants must be between 1 and 32767");
    assert_rejected(&["--threads", "0"], "--threads must be at least 1");
    assert_rejected(&["--chunk", "0"], "--chunk must be at least 1");
    assert_rejected(&["--shards", "0"], "--shards must be between 1 and 32767");
    assert_rejected(
        &["--shards", "40000"],
        "--shards must be between 1 and 32767",
    );
}
