//! `repro`'s command line: every word it does not know is an error,
//! never a silently ignored target or flag, and a `--json` record it
//! cannot write fails the run. `molsim`, `molstat` and
//! `moltourney` reject bad flag values the same way, and `molsim`
//! rejects a din trace with a bad line. `molstat`'s telemetry export is
//! pinned byte for byte.

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

/// `name` (built at `bin`) exited 2 with its usage text on stderr and
/// printed nothing on stdout.
fn assert_usage_exit(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?} ran");
}

#[test]
fn molsim_rejects_zero_refs() {
    for args in [
        &["--refs", "0"][..],
        &["--cache", "setassoc", "--refs", "0"],
    ] {
        assert_usage_exit(env!("CARGO_BIN_EXE_molsim"), "molsim", args);
    }
}

#[test]
fn molsim_rejects_an_assoc_that_is_not_a_power_of_two() {
    for assoc in ["0", "3", "12"] {
        for cache in ["molecular", "setassoc"] {
            let args = ["--cache", cache, "--assoc", assoc];
            assert_usage_exit(env!("CARGO_BIN_EXE_molsim"), "molsim", &args);
        }
    }
}

#[test]
fn molstat_and_moltourney_reject_zero_jobs() {
    assert_usage_exit(env!("CARGO_BIN_EXE_molstat"), "molstat", &["--jobs", "0"]);
    assert_usage_exit(
        env!("CARGO_BIN_EXE_moltourney"),
        "moltourney",
        &["--smoke", "--no-write", "--jobs", "0"],
    );
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

#[test]
fn unwritable_record_fails_the_run() {
    // A regular file where the record directory should be.
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("repro-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, "").expect("file written");
    let dir = file.join("out");
    let out = repro(&[
        "table4",
        "--refs",
        "2000",
        "--json",
        dir.to_str().expect("temp path is UTF-8"),
    ]);
    std::fs::remove_file(&file).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&dir.join("table4.json").display().to_string()),
        "stderr names the record: {stderr}"
    );
}

#[test]
fn molsim_rejects_a_malformed_din_trace() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("molsim-bad-{}.din", std::process::id()));
    std::fs::write(&path, "0 40\n1 80\n0 c0\ngarbage line\n0 100\n").expect("trace written");
    let name = path.to_str().expect("temp path is UTF-8");
    for extra in [&[][..], &["--analyze"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_molsim"))
            .args(["--din", name])
            .args(extra)
            .output()
            .expect("molsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(name) && stderr.contains("line 4"),
            "{extra:?}: stderr was {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("refs:"), "{extra:?} reported {stdout}");
    }
    std::fs::remove_file(&path).ok();
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The telemetry JSON export is a bit-identity fixed point: CI's
/// `molstat` smoke command, plus `--power`, must keep printing exactly
/// these bytes (the epoch activity, per-stage series and energy fields
/// included).
#[test]
fn molstat_telemetry_export_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_molstat"))
        .args(["--refs", "60000", "--period", "2000", "--epoch", "5000"])
        .args(["--policy", "randy,random", "--power", "--json"])
        .output()
        .expect("molstat runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout.len(), 184_386);
    assert_eq!(fnv1a64(&out.stdout), 0x2668_5a0a_a76b_6e4a);
}
