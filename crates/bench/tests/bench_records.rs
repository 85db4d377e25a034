//! The committed benchmark records, `results/BENCH_*.json`
//! (`molcache-perfbench-pairs-v1`): each holds the perfbench result lines
//! of one change's alternating parent/change pairs. Every record must
//! parse, and for every workload `BENCHMARK.json` gates it must hold
//! equally many runs of both sides, each correct, with nothing failed and
//! both end-to-end metrics present. CI's timing gate compares against
//! these records, so a broken one must fail here first.

use molcache_metrics::json::{parse, Value};
use std::path::{Path, PathBuf};

const SCHEMA: &str = "molcache-perfbench-pairs-v1";
const SIDES: [&str; 2] = ["parent", "change"];
const METRICS: [&str; 2] = ["setup_s", "run_s"];

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The workload names `BENCHMARK.json` gates.
fn gated_workloads() -> Vec<String> {
    let bench = read_json(&repo_root().join("BENCHMARK.json"));
    let workloads = bench.get("workloads").and_then(Value::as_array);
    workloads
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Value::as_str);
            name.expect("every workload has a name").to_string()
        })
        .collect()
}

/// What is wrong with one record; empty when it passes.
fn check_record(doc: &Value, gated: &[String]) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        problems.push(format!("schema is not {SCHEMA}"));
    }
    // The CI gate picks the record with the highest `pr` as reference.
    if doc.get("pr").and_then(Value::as_f64).is_none() {
        problems.push("no numeric `pr`".into());
    }
    for field in ["date", "machine", "command", "parent"] {
        if doc.get(field).is_none() {
            problems.push(format!("no `{field}`"));
        }
    }
    let Some(runs) = doc.get("runs").and_then(Value::as_array) else {
        problems.push("no `runs` array".into());
        return problems;
    };
    for (i, run) in runs.iter().enumerate() {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let at = format!("run {i} ({workload})");
        let side = run.get("side").and_then(Value::as_str);
        if !side.is_some_and(|s| SIDES.contains(&s)) {
            problems.push(format!("{at}: side {side:?} is not parent or change"));
        }
        for field in ["seed", "pair"] {
            if run.get(field).and_then(Value::as_f64).is_none() {
                problems.push(format!("{at}: no numeric `{field}`"));
            }
        }
        let Some(result) = run.get("result") else {
            problems.push(format!("{at}: no `result`"));
            continue;
        };
        if result.get("correct") != Some(&Value::Bool(true)) {
            problems.push(format!("{at}: result is not correct"));
        }
        if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
            problems.push(format!("{at}: result has failed operations"));
        }
        for metric in METRICS {
            let value = result.get("metrics").and_then(|m| m.get(metric));
            if value
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .is_none()
            {
                problems.push(format!("{at}: result carries no `{metric}`"));
            }
        }
    }
    for workload in gated {
        let count = |side: &str| {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload.as_str()))
                .filter(|r| r.get("side").and_then(Value::as_str) == Some(side))
                .count()
        };
        let (parent, change) = (count(SIDES[0]), count(SIDES[1]));
        if parent == 0 || parent != change {
            problems.push(format!(
                "{workload}: {parent} parent and {change} change runs"
            ));
        }
    }
    problems
}

#[test]
fn committed_records_pass() {
    let gated = gated_workloads();
    assert!(!gated.is_empty(), "BENCHMARK.json gates no workload");
    let mut checked = 0;
    for entry in std::fs::read_dir(repo_root().join("results")).expect("results/ exists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let problems = check_record(&read_json(&path), &gated);
        assert!(problems.is_empty(), "{name}: {}", problems.join("; "));
        checked += 1;
    }
    assert!(checked > 0, "no results/BENCH_*.json record is committed");
}

#[test]
fn check_record_flags_bad_runs() {
    let good = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics":
        {"setup_s": {"value": 0.4, "unit": "s"}, "run_s": {"value": 0.3, "unit": "s"}}}"#;
    let failed = good.replace(r#""failed": 0"#, r#""failed": 1"#);
    let wrong = good.replace("true", "false");
    let no_setup = good.replace("setup_s", "other_s");
    let cases = [
        (&[("parent", good), ("change", good)][..], None),
        (
            &[("parent", good), ("change", &failed)],
            Some("failed operations"),
        ),
        (&[("parent", &wrong), ("change", good)], Some("not correct")),
        (
            &[("parent", good), ("change", &no_setup)],
            Some("no `setup_s`"),
        ),
        (
            &[("parent", good), ("parent", good), ("change", good)],
            Some("2 parent and 1 change"),
        ),
    ];
    for (runs, expected) in cases {
        let runs: Vec<String> = runs
            .iter()
            .map(|(side, result)| {
                format!(r#"{{"workload": "w", "seed": 1, "side": "{side}", "pair": 1, "result": {result}}}"#)
            })
            .collect();
        let text = format!(
            r#"{{"schema": "{SCHEMA}", "pr": 1, "date": "2026-01-01", "machine": "m",
                "command": ["perfbench"], "parent": "abc", "runs": [{}]}}"#,
            runs.join(", ")
        );
        let problems = check_record(&parse(&text).expect("test record is JSON"), &["w".into()]);
        match expected {
            None => assert!(problems.is_empty(), "{problems:?}"),
            Some(needle) => assert!(
                problems.iter().any(|p| p.contains(needle)),
                "{needle}: {problems:?}"
            ),
        }
    }
}
