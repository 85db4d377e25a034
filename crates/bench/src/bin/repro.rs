//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [table1|fig5|table2|table4|fig6|table5|ablations|all]
//!       [--scale smoke|quick|paper] [--refs N] [--json DIR] [--jobs N]
//! ```
//!
//! With `--json DIR` each experiment also writes a machine-readable
//! record as `DIR/<id>.json`. With `--jobs N` independent experiment
//! points fan out over N worker threads; the output is byte-identical
//! to `--jobs 1` because every point owns its cache, reads the trace its
//! experiment built once before the fan-out, and results are merged in a
//! fixed order. An unknown target or flag, or a flag without its value,
//! exits 2 with a message.

use molcache_bench::experiments::ablations::Ablations;
use molcache_bench::experiments::{fig5, fig6, table1, table2, table4, table5};
use molcache_bench::{Engine, ExperimentScale};
use std::io::Write as _;

/// The targets `repro` accepts: every experiment in run order, then `all`.
const TARGETS: [&str; 8] = [
    "table1",
    "fig5",
    "table2",
    "table4",
    "fig6",
    "table5",
    "ablations",
    "all",
];

struct Options {
    targets: Vec<String>,
    scale: ExperimentScale,
    json_dir: Option<String>,
    jobs: usize,
}

/// Rejects the command line: prints `msg` and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        targets: Vec::new(),
        scale: ExperimentScale::Quick,
        json_dir: None,
        jobs: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                opts.scale = match v.as_str() {
                    "smoke" => ExperimentScale::Smoke,
                    "quick" => ExperimentScale::Quick,
                    "paper" => ExperimentScale::Paper,
                    other => usage_error(&format!("unknown scale `{other}` (smoke|quick|paper)")),
                };
            }
            "--refs" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) => opts.scale = ExperimentScale::Custom(n),
                    Err(_) => usage_error(&format!("--refs expects a number, got `{v}`")),
                }
            }
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.jobs = n,
                    _ => usage_error(&format!("--jobs expects a positive number, got `{v}`")),
                }
            }
            "--json" => match args.next() {
                Some(dir) if !dir.starts_with('-') => opts.json_dir = Some(dir),
                _ => usage_error("--json expects a directory"),
            },
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            target if TARGETS.contains(&target) => opts.targets.push(target.to_string()),
            other => usage_error(&format!("unknown target `{other}` ({})", TARGETS.join("|"))),
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".to_string());
    }
    opts
}

fn write_json(dir: &Option<String>, id: &str, json: String) {
    let Some(dir) = dir else { return };
    let path = std::path::Path::new(dir).join(format!("{id}.json"));
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let opts = parse_args();
    let scale = opts.scale;
    let engine = Engine::new(opts.jobs);
    let all = opts.targets.iter().any(|t| t == "all");
    let wants = |name: &str| all || opts.targets.iter().any(|t| t == name);
    let start = std::time::Instant::now();

    if wants("table1") {
        let t = table1::run_with(scale, &engine);
        println!("{}", t.render());
        write_json(&opts.json_dir, "table1", t.record().to_json());
    }
    if wants("fig5") {
        for graph in [fig5::Graph::A, fig5::Graph::B] {
            let f = fig5::run_with(graph, scale, &engine);
            println!("{}", f.render());
            write_json(&opts.json_dir, &f.record().id.clone(), f.record().to_json());
        }
    }
    // Table 2 feeds Table 5; run them together so the measurement is shared.
    let mut t2_cache = None;
    if wants("table2") {
        let t = table2::run_with(scale, &engine);
        println!("{}", t.render());
        write_json(&opts.json_dir, "table2", t.record().to_json());
        t2_cache = Some(t);
    }
    if wants("table4") {
        let t = table4::run_with(scale, &engine);
        println!("{}", t.render());
        write_json(&opts.json_dir, "table4", t.record().to_json());
    }
    if wants("fig6") {
        let f = fig6::run_with(scale, &engine);
        println!("{}", f.render());
        write_json(&opts.json_dir, "fig6", f.record().to_json());
    }
    if wants("table5") {
        let t = match &t2_cache {
            Some(t2) => table5::run_from_table2(t2),
            None => table5::run_with(scale, &engine),
        };
        println!("{}", t.render());
        write_json(&opts.json_dir, "table5", t.record().to_json());
    }
    if wants("ablations") {
        let a = Ablations::measure(scale, &engine);
        println!("{}", a.render());
        write_json(&opts.json_dir, "ablations", a.record().to_json());
    }
    eprintln!(
        "done in {:.1}s ({} references per experiment, {} jobs)",
        start.elapsed().as_secs_f64(),
        scale.references(),
        engine.jobs()
    );
}
