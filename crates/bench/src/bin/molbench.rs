//! `molbench` — wall-clock performance harness for the molecular cache.
//!
//! Runs a fixed suite of workloads through the simulator, measures
//! ns/access and accesses/sec with warm-up and repeated samples
//! (min/median/mean over individually-timed iterations), and emits a
//! schema-versioned `BENCH_<date>.json` (`molcache-bench-v1`) carrying
//! the machine info next to the numbers. The suite:
//!
//! | workload | what it drives |
//! |---|---|
//! | `single:<bm>` | one benchmark's stream through a 1 MB molecular cache |
//! | `miss_storm` | uniform-random lines over a region spanning all tiles (~0% hit) |
//! | `mixed12` | the Table 2 MIXED12 workload through the 6 MB cache |
//! | `access_batch` | the same MIXED12 stream via `access_batch` chunks |
//! | `engine_sweep_x4` | four SPEC4 experiments fanned out through `Engine` |
//! | `serve_mt:<n>` | 4-tenant molserve replay on n OS threads (smoke: n=1) |
//!
//! ```text
//! molbench                                   # full suite, writes results/BENCH_<date>.json
//! molbench --smoke                           # reduced scale for CI
//! molbench --compare results/BENCH_baseline.json   # exit 1 on >20% regression
//! ```
//!
//! Built with `--features stage-profiler`, a separate profiled pass also
//! reports where the *host* nanoseconds go across the five pipeline
//! stages, next to the simulated-cycle split; default builds print the
//! split as unavailable and stay bit-identical on the access path.

use molcache_bench::experiments::table2;
use molcache_bench::harness::{molecular_cache, run_workload_on, workload_requests, Engine};
use molcache_bench::machine::MachineInfo;
use molcache_bench::report::{
    compare, floor_check, regressions, render_comparison, scale_fairness_warning, today_utc,
    BenchDoc, StageProfileRecord, WorkloadResult, REGRESSION_TOLERANCE,
};
use molcache_bench::stopwatch::{machine_line, measure, measure_paired, section, Timing};
use molcache_bench::workloads::{
    cache_1mb, miss_storm_cache, miss_storm_requests, single_requests, SINGLES,
};
use molcache_core::{MolecularCache, RegionPolicy};
use molcache_serve::{replay, CacheService, ReplayOptions};
use molcache_sim::{CacheModel, Request};
use molcache_trace::presets::Benchmark;
use std::time::{Duration, Instant};

/// Worker count of the `engine_sweep_x4` workload (fixed, not
/// host-derived: workload definitions must be identical across machines
/// for `--compare` to match them up).
const SWEEP_JOBS: usize = 4;

/// Chunk size of the `access_batch` workload — matches the batched
/// driver in `molcache_sim::cmp`.
const BATCH_CHUNK: usize = 1024;

use molcache_bench::workloads::SERVE_TENANTS;

/// Workload-name prefixes the `--floor` gate holds to a strict win: the
/// single-stream workloads (the memo front-end's beneficiaries) and the
/// Ulmo-dominated `miss_storm` (the cached search lists' beneficiary).
const FLOOR_PREFIXES: &[&str] = &["single:", "miss_storm"];

/// Noise allowance of the `--floor` gate, as a fraction of the floor
/// throughput. On miss-dominated workloads memo-on vs memo-off is a
/// tie in expectation (the miss-path overhaul left the memo nothing to
/// shortcut there), and same-job best-of-N still swings ±5–10 % on the
/// shared bimodally-throttled hosts — a literally strict floor would
/// fail at random on a tie, so the gate fails only on a shortfall past
/// this allowance (a structural pessimization on these paths costs far
/// more; pre-overhaul the miss pipeline was ~5× slower).
const FLOOR_TOLERANCE: f64 = 0.10;

/// Thread counts the `serve_mt` family sweeps in a full run. Smoke runs
/// keep only the single-thread variant, which is what the CI baseline
/// gates — multi-thread wall-clock depends on the host's core count.
const SERVE_THREADS: [usize; 3] = [1, 2, 4];

#[derive(Debug, Clone)]
struct Args {
    smoke: bool,
    refs: u64,
    samples: usize,
    budget: Duration,
    seed: u64,
    out_dir: String,
    out_file: Option<String>,
    write: bool,
    compare_to: Option<String>,
    floor: Option<String>,
    tolerance: f64,
    profile_every: u64,
    memo: bool,
    paired_floor: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: molbench [--smoke] [--refs N] [--samples N] [--budget-ms N]\n\
         \u{20}              [--seed N] [--out DIR] [--out-file NAME] [--no-write]\n\
         \u{20}              [--compare FILE] [--floor FILE] [--tolerance F]\n\
         \u{20}              [--no-memo] [--paired-floor] [--profile-every N]\n\
         \u{20} --smoke         reduced scale (CI): fewer refs, tighter budget\n\
         \u{20} --refs          accesses per timed iteration (default 100000)\n\
         \u{20} --samples       max timed iterations per workload (default 15)\n\
         \u{20} --budget-ms     per-workload sampling budget (default 1500)\n\
         \u{20} --out           directory for BENCH_<date>.json (default results)\n\
         \u{20} --out-file      record file name inside the out dir (default\n\
         \u{20}                 BENCH_<date>.json; use to keep several same-day\n\
         \u{20}                 records apart, e.g. BENCH_<date>-memo-off.json)\n\
         \u{20} --no-write      skip writing the BENCH_<date>.json record\n\
         \u{20} --no-memo       disable the memoization front-end for the run\n\
         \u{20}                 (measures the raw staged pipeline)\n\
         \u{20} --compare FILE  diff against a baseline record; exit 1 when any\n\
         \u{20}                 workload regresses by more than the tolerance\n\
         \u{20} --floor FILE    exit 1 when any single:* or miss_storm workload is\n\
         \u{20}                 >10% slower than in FILE (CI's strict-win gate,\n\
         \u{20}                 with a noise allowance for tied workloads)\n\
         \u{20} --paired-floor  re-run the floor-gated workloads memo-on vs\n\
         \u{20}                 memo-off with interleaved samples in this process\n\
         \u{20}                 and exit 1 past the same 10% allowance (immune to\n\
         \u{20}                 cross-run host drift; CI's memo gate)\n\
         \u{20} --tolerance F   regression tolerance (default 0.20 = 20%)\n\
         \u{20} --profile-every sample stride of the stage profiler (default 64;\n\
         \u{20}                 needs a build with --features stage-profiler)"
    );
    std::process::exit(2);
}

/// The paired memo floor gate (`--paired-floor`): re-runs every
/// floor-gated workload twice — memoization on and off — with samples
/// interleaved inside this very process, so both sides of each
/// comparison see the same host frequency mode (see
/// `stopwatch::measure_paired`; cross-run A/B records on the shared
/// hosts drift by ±15 %-class, which dwarfs the margins under test on
/// miss-dominated workloads). Fails when memo-on's best sample falls
/// more than `FLOOR_TOLERANCE` below memo-off's on any gated workload.
/// Returns the violating workload names.
fn paired_floor_gate(args: &Args) -> Vec<String> {
    section("paired memo floor");
    let mut violations = Vec::new();
    let mut gate =
        |name: &str, reqs: &[Request], mut on: MolecularCache, mut off: MolecularCache| {
            let (t_on, t_off) = measure_paired(
                args.samples,
                args.budget,
                &mut || {
                    for req in reqs {
                        std::hint::black_box(on.access(*req));
                    }
                },
                &mut || {
                    for req in reqs {
                        std::hint::black_box(off.access(*req));
                    }
                },
            );
            let aps = |t: &Timing| args.refs as f64 / t.min_ns().max(1) as f64 * 1e9;
            let (aps_on, aps_off) = (aps(&t_on), aps(&t_off));
            let ok = aps_on >= aps_off * (1.0 - FLOOR_TOLERANCE);
            println!(
                "{name:<24} memo-on {aps_on:>12.0} acc/s   memo-off {aps_off:>12.0} acc/s   {}",
                if ok { "ok" } else { "BELOW FLOOR" }
            );
            if !ok {
                violations.push(name.to_string());
            }
        };

    for bm in SINGLES {
        let reqs = single_requests(bm, args.refs, args.seed);
        let name = format!("single:{}", bm.name().to_ascii_lowercase());
        let mut on = cache_1mb(args.seed);
        on.set_memo_front(true);
        let mut off = cache_1mb(args.seed);
        off.set_memo_front(false);
        gate(&name, &reqs, on, off);
    }
    let reqs = miss_storm_requests(args.refs, args.seed);
    gate(
        "miss_storm",
        &reqs,
        miss_storm_cache(args.seed, true),
        miss_storm_cache(args.seed, false),
    );
    violations
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        refs: 100_000,
        samples: 15,
        budget: Duration::from_millis(1_500),
        seed: 7,
        out_dir: "results".into(),
        out_file: None,
        write: true,
        compare_to: None,
        floor: None,
        tolerance: REGRESSION_TOLERANCE,
        profile_every: 64,
        memo: true,
        paired_floor: false,
    };
    let mut refs_set = false;
    let mut budget_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--refs" => {
                args.refs = value().parse().unwrap_or_else(|_| usage());
                refs_set = true;
            }
            "--samples" => args.samples = value().parse().unwrap_or_else(|_| usage()),
            "--budget-ms" => {
                args.budget = Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
                budget_set = true;
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out_dir = value(),
            "--out-file" => args.out_file = Some(value()),
            "--no-write" => args.write = false,
            "--no-memo" => args.memo = false,
            "--paired-floor" => args.paired_floor = true,
            "--compare" => args.compare_to = Some(value()),
            "--floor" => args.floor = Some(value()),
            "--tolerance" => args.tolerance = value().parse().unwrap_or_else(|_| usage()),
            "--profile-every" => args.profile_every = value().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.smoke {
        if !refs_set {
            args.refs = 20_000;
        }
        // Keep the full sample count at smoke scale: the gate statistic
        // is best-of-N, and a deeper N is what makes it noise-robust.
        if !budget_set {
            args.budget = Duration::from_millis(600);
        }
    }
    if args.refs == 0 || args.samples == 0 || args.tolerance < 0.0 {
        usage();
    }
    args
}

/// One line of memo front-end effectiveness for a finished workload.
fn memo_line(cache: &MolecularCache) -> String {
    match cache.memo_stats() {
        Some(s) if s.enabled => format!(
            "  memo: {} hits / {} lookups ({:.1}% hit rate), {} stale, {} generation bumps",
            s.hits,
            s.lookups(),
            s.hit_rate() * 100.0,
            s.stale,
            s.generation_bumps,
        ),
        _ => "  memo: disabled (--no-memo)".into(),
    }
}

/// Runs the whole suite, printing one human + one `#BENCH` line per
/// workload, and returns the normalized results in suite order.
fn run_suite(args: &Args) -> Vec<WorkloadResult> {
    let mut results = Vec::new();
    let mut record = |name: &str, accesses: u64, t: &Timing| {
        println!("{}", machine_line(name, Some(accesses), t));
        results.push(WorkloadResult::from_timing(name, accesses, t));
    };

    section("single-stream");
    for bm in SINGLES {
        let reqs = single_requests(bm, args.refs, args.seed);
        let mut cache = cache_1mb(args.seed);
        cache.set_memo_front(args.memo);
        let t = measure(args.samples, args.budget, &mut || {
            for req in &reqs {
                std::hint::black_box(cache.access(*req));
            }
        });
        record(
            &format!("single:{}", bm.name().to_ascii_lowercase()),
            args.refs,
            &t,
        );
        println!("{}", memo_line(&cache));
    }

    section("miss_storm");
    // The dedicated Ulmo gate statistic: the region is grown to span
    // every tile of the cluster, then bombarded with uniform-random
    // lines, so virtually every access misses the home tile and drives
    // the cross-tile search over all three remote tiles.
    let reqs = miss_storm_requests(args.refs, args.seed);
    let mut cache = miss_storm_cache(args.seed, args.memo);
    let t = measure(args.samples, args.budget, &mut || {
        for req in &reqs {
            std::hint::black_box(cache.access(*req));
        }
    });
    record("miss_storm", args.refs, &t);
    println!("{}", memo_line(&cache));

    section("mixed12");
    let reqs = workload_requests(&Benchmark::MIXED12, args.refs, args.seed);
    let mut cache = table2::molecular_6mb(RegionPolicy::Randy, args.seed);
    cache.set_memo_front(args.memo);
    let t = measure(args.samples, args.budget, &mut || {
        for req in &reqs {
            std::hint::black_box(cache.access(*req));
        }
    });
    record("mixed12", args.refs, &t);
    println!("{}", memo_line(&cache));

    section("access_batch");
    let mut cache = table2::molecular_6mb(RegionPolicy::Randy, args.seed);
    cache.set_memo_front(args.memo);
    let t = measure(args.samples, args.budget, &mut || {
        for chunk in reqs.chunks(BATCH_CHUNK) {
            std::hint::black_box(cache.access_batch(chunk));
        }
    });
    record("access_batch", args.refs, &t);
    println!("{}", memo_line(&cache));

    section("engine");
    let per_item = (args.refs / SWEEP_JOBS as u64).max(1);
    let seed = args.seed;
    let memo = args.memo;
    let t = measure(args.samples, args.budget, &mut || {
        let engine = Engine::new(SWEEP_JOBS);
        let summaries = engine.run(vec![1u64, 2, 3, 4], |item| {
            let mut cache = molecular_cache(1 << 20, 1, 4, RegionPolicy::Randy, 0.1, item);
            cache.set_memo_front(memo);
            run_workload_on(
                &Benchmark::SPEC4,
                &mut cache,
                per_item,
                seed.wrapping_add(item),
            )
        });
        std::hint::black_box(summaries);
    });
    record("engine_sweep_x4", per_item * SWEEP_JOBS as u64, &t);

    section("serve_mt");
    // Interleaved multi-tenant replay through the sharded service: the
    // trace set and the per-shard caches are identical across thread
    // counts (the replay is deterministic by construction), so the
    // variants differ only in wall-clock. Each timed iteration builds a
    // fresh service so every sample replays against cold shards.
    let per_tenant = (args.refs / SERVE_TENANTS as u64).max(1);
    let traces = molcache_trace::tenants::tenant_traces(SERVE_TENANTS, per_tenant, args.seed);
    let memo = args.memo;
    let serve_seed = args.seed;
    let threads: &[usize] = if args.smoke {
        &SERVE_THREADS[..1]
    } else {
        &SERVE_THREADS
    };
    for &n in threads {
        let t = measure(args.samples, args.budget, &mut || {
            let service = CacheService::new(SERVE_TENANTS, |i| {
                let mut cache = molecular_cache(
                    1 << 20,
                    1,
                    4,
                    RegionPolicy::Randy,
                    0.1,
                    serve_seed.wrapping_add(i as u64),
                );
                cache.set_memo_front(memo);
                cache
            });
            let report = replay(
                &service,
                &traces,
                ReplayOptions {
                    threads: n,
                    chunk: 256,
                },
            )
            .expect("replay traffic is well-formed");
            std::hint::black_box(report);
        });
        record(
            &format!("serve_mt:{n}"),
            per_tenant * SERVE_TENANTS as u64,
            &t,
        );
    }

    results
}

/// Runs the profiled MIXED12 pass and renders the host-time split next
/// to the simulated-cycle split. Returns the record for the JSON doc, or
/// `None` when the binary was built without the `stage-profiler`
/// feature.
fn run_stage_profile(args: &Args) -> Option<StageProfileRecord> {
    section("stage wall-time profile");
    let reqs = workload_requests(&Benchmark::MIXED12, args.refs, args.seed);
    let mut cache = table2::molecular_6mb(RegionPolicy::Randy, args.seed);
    cache.set_memo_front(args.memo);
    cache.enable_stage_profiler(args.profile_every);
    let wall = Instant::now();
    for req in &reqs {
        std::hint::black_box(cache.access(*req));
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let Some(profile) = cache.stage_wall_profile() else {
        println!(
            "stage profiler not compiled in; rebuild with \
             `--features stage-profiler` for the host-time split"
        );
        return None;
    };
    let activity = cache.activity();
    let sim_total = activity.stages.total_cycles().max(1);
    let host_total = profile.total_sampled_ns().max(1);
    println!(
        "mixed12, {} accesses, every {}th sampled ({} sampled, {} ns wall):",
        args.refs, args.profile_every, profile.sampled_accesses, wall_ns
    );
    println!(
        "  {:<12} {:>14} {:>7} {:>14} {:>7}",
        "stage", "sim-cycles", "sim-%", "host-ns", "host-%"
    );
    for (stage, totals) in activity.stages.iter() {
        let host_ns = profile.stage_ns_of(stage);
        println!(
            "  {:<12} {:>14} {:>6.1}% {:>14} {:>6.1}%",
            stage.name(),
            totals.cycles,
            totals.cycles as f64 * 100.0 / sim_total as f64,
            host_ns,
            host_ns as f64 * 100.0 / host_total as f64,
        );
    }
    Some(StageProfileRecord {
        sample_every: profile.sample_every,
        sampled_accesses: profile.sampled_accesses,
        stages: profile
            .iter()
            .map(|(stage, ns)| (stage.name().to_string(), ns))
            .collect(),
    })
}

fn main() {
    let args = parse_args();
    let machine = MachineInfo::detect();
    println!(
        "molbench: {} ({} cores), {}, rev {}{}",
        machine.cpu_model,
        machine.cores,
        machine.rustc,
        machine.git_sha,
        if args.smoke { " [smoke]" } else { "" },
    );

    let workloads = run_suite(&args);
    let stage_profile = run_stage_profile(&args);

    let doc = BenchDoc {
        date: today_utc(),
        smoke: args.smoke,
        memo: Some(args.memo),
        machine,
        workloads,
        stage_profile,
    };

    println!();
    for w in &doc.workloads {
        println!(
            "{:<24} {:>10.1} ns/access (median)   {:>12.0} accesses/sec (best)",
            w.name, w.median_ns_per_access, w.accesses_per_sec
        );
    }

    let json = match doc.to_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("molbench: BENCH record serialization failed: {e}");
            std::process::exit(1);
        }
    };
    if args.write {
        let file_name = args.out_file.clone().unwrap_or_else(|| doc.file_name());
        let path = std::path::Path::new(&args.out_dir).join(file_name);
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("molbench: cannot create {}: {e}", args.out_dir);
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("molbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {}", path.display());
    }

    if let Some(baseline_path) = &args.compare_to {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("molbench: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = match BenchDoc::from_json(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("molbench: invalid baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        // Stderr, never stdout: piped-JSON workflows must not see it.
        if let Some(warning) = scale_fairness_warning(&baseline, &doc) {
            eprintln!("{warning}");
        }
        let deltas = compare(&baseline, &doc, args.tolerance);
        println!(
            "\ncomparison against {baseline_path} ({}, {}):",
            baseline.date, baseline.machine.cpu_model
        );
        print!("{}", render_comparison(&deltas, args.tolerance));
        let failed = regressions(&deltas);
        if !failed.is_empty() {
            eprintln!(
                "molbench: {} workload(s) regressed beyond {:.0}%",
                failed.len(),
                args.tolerance * 100.0
            );
            std::process::exit(1);
        }
        println!("no regressions beyond {:.0}%", args.tolerance * 100.0);
    }

    if let Some(floor_path) = &args.floor {
        let text = match std::fs::read_to_string(floor_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("molbench: cannot read floor record {floor_path}: {e}");
                std::process::exit(1);
            }
        };
        let floor = match BenchDoc::from_json(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("molbench: invalid floor record {floor_path}: {e}");
                std::process::exit(1);
            }
        };
        if let Some(warning) = scale_fairness_warning(&floor, &doc) {
            eprintln!("{warning}");
        }
        let violations = floor_check(&floor, &doc, FLOOR_PREFIXES, FLOOR_TOLERANCE);
        if violations.is_empty() {
            println!("\nno single:*/miss_storm workload below the floor record {floor_path}");
        } else {
            for v in &violations {
                eprintln!(
                    "molbench: {} fell below the floor record: {} acc/s vs {} acc/s",
                    v.name,
                    v.current_aps
                        .map_or("missing".to_string(), |aps| format!("{aps:.0}")),
                    v.floor_aps.round(),
                );
            }
            eprintln!(
                "molbench: {} floor-gated workload(s) slower than {floor_path}",
                violations.len()
            );
            std::process::exit(1);
        }
    }

    if args.paired_floor {
        let violations = paired_floor_gate(&args);
        if violations.is_empty() {
            println!("\npaired memo floor clean: no single:*/miss_storm workload below memo-off");
        } else {
            for name in &violations {
                eprintln!("molbench: {name} fell below the paired memo-off floor");
            }
            eprintln!(
                "molbench: {} workload(s) below the paired memo floor",
                violations.len()
            );
            std::process::exit(1);
        }
    }
}
