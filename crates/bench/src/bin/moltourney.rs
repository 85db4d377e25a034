//! `moltourney` — the cross-workload resize-policy tournament.
//!
//! Runs every resize policy against every suite workload through the
//! parallel `Engine`, scores each cell on power-deviation product and
//! per-app goal attainment, and writes a schema-versioned
//! `TOURNEY_<date>.json` (`molcache-tourney-v1`) that
//! `molstat --tourney` re-renders.
//!
//! ```text
//! moltourney                      # full tournament, writes results/TOURNEY_<date>.json
//! moltourney --smoke              # reduced scale for CI
//! moltourney --policies paper-algorithm1,memshare-pressure --workloads 3
//! ```
//!
//! Scoring is pure simulation — no wall-clock enters the record — so
//! the JSON is bit-reproducible from `(policies, workloads, refs,
//! seed)` on any host, and the worker count only changes how fast the
//! grid fills in, never what it holds.

use molcache_bench::harness::Engine;
use molcache_bench::tourney::{score_cell, today_utc, TourneyDoc};
use molcache_bench::workloads::{build_workload, tourney_workloads};
use molcache_core::policy::POLICY_NAMES;

struct Args {
    smoke: bool,
    refs: u64,
    seed: u64,
    policies: Vec<String>,
    workloads: Vec<String>,
    jobs: usize,
    out_dir: String,
    out_file: Option<String>,
    write: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: moltourney [--smoke] [--refs N] [--seed N] [--jobs N]\n\
         \u{20}                [--policies NAME[,NAME...]] [--workloads LIST|N]\n\
         \u{20}                [--out DIR] [--out-file NAME] [--no-write]\n\
         \u{20} --smoke        reduced scale (CI): fewer refs per cell\n\
         \u{20} --refs         accesses per (policy, workload) cell (default 120000)\n\
         \u{20} --policies     comma list of resize policies (default: all)\n\
         \u{20} --workloads    comma list of workload names, or a count N\n\
         \u{20}                taking the first N of the suite (default: all)\n\
         \u{20} --jobs         worker threads (default: host parallelism)\n\
         \u{20} --out          directory for TOURNEY_<date>.json (default results)\n\
         \u{20} --out-file     record file name inside the out dir\n\
         \u{20} --no-write     skip writing the record"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        refs: 120_000,
        seed: 7,
        policies: POLICY_NAMES.iter().map(|s| s.to_string()).collect(),
        workloads: tourney_workloads(),
        jobs: std::thread::available_parallelism().map_or(4, usize::from),
        out_dir: "results".into(),
        out_file: None,
        write: true,
    };
    let mut refs_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--refs" => {
                args.refs = value().parse().unwrap_or_else(|_| usage());
                refs_set = true;
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => args.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--policies" => args.policies = value().split(',').map(str::to_string).collect(),
            "--workloads" => {
                let v = value();
                args.workloads = match v.parse::<usize>() {
                    Ok(n) => {
                        let suite = tourney_workloads();
                        if n == 0 || n > suite.len() {
                            usage();
                        }
                        suite.into_iter().take(n).collect()
                    }
                    Err(_) => v.split(',').map(str::to_string).collect(),
                };
            }
            "--out" => args.out_dir = value(),
            "--out-file" => args.out_file = Some(value()),
            "--no-write" => args.write = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.smoke && !refs_set {
        args.refs = 20_000;
    }
    if args.refs == 0 || args.jobs == 0 || args.policies.is_empty() || args.workloads.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();

    // Fail fast on unknown names, before any cell runs.
    for p in &args.policies {
        if !POLICY_NAMES.contains(&p.as_str()) {
            eprintln!(
                "moltourney: unknown policy '{p}' (known: {})",
                POLICY_NAMES.join(", ")
            );
            std::process::exit(2);
        }
    }
    for w in &args.workloads {
        if build_workload(w, 1, args.seed).is_none() {
            eprintln!(
                "moltourney: unknown workload '{w}' (known: {})",
                tourney_workloads().join(", ")
            );
            std::process::exit(2);
        }
    }

    let cells: Vec<(String, String)> = args
        .policies
        .iter()
        .flat_map(|p| args.workloads.iter().map(move |w| (p.clone(), w.clone())))
        .collect();
    println!(
        "moltourney: {} policies x {} workloads = {} cells, {} refs/cell, {} jobs{}",
        args.policies.len(),
        args.workloads.len(),
        cells.len(),
        args.refs,
        args.jobs,
        if args.smoke { " [smoke]" } else { "" },
    );

    let refs = args.refs;
    let seed = args.seed;
    let engine = Engine::new(args.jobs);
    let entries = engine.run(cells, |(policy, workload)| {
        let built = build_workload(&workload, refs, seed).expect("validated above");
        score_cell(&policy, built).expect("validated above")
    });

    let doc = TourneyDoc {
        date: today_utc(),
        smoke: args.smoke,
        refs: args.refs,
        seed: args.seed,
        entries,
    };

    println!();
    print!("{}", doc.render());

    let json = match doc.to_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("moltourney: TOURNEY record serialization failed: {e}");
            std::process::exit(1);
        }
    };
    if args.write {
        let file_name = args.out_file.clone().unwrap_or_else(|| doc.file_name());
        let path = std::path::Path::new(&args.out_dir).join(file_name);
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("moltourney: cannot create {}: {e}", args.out_dir);
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("moltourney: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {}", path.display());
    }
}
