//! `molstat` — partition-timeline inspector for the molecular cache.
//!
//! Runs the Table 2 mixed workload (12 benchmarks over the 6 MB
//! molecular cache) cold — no warmup — with a telemetry recorder
//! attached, then prints the per-partition epoch timeline, the resize
//! event log and the latency histogram, or exports the whole time-series
//! as JSON.
//!
//! ```text
//! molstat                                # randy timeline, 200K refs
//! molstat --policy randy,random --jobs 2 # one run per policy, fanned out
//! molstat --stages --power               # per-stage cycles/events/energy
//! molstat --refs 60000 --period 2000 --epoch 5000 --json > series.json
//! molstat --serve serve.json             # render a molserve replay record
//! molstat --tourney TOURNEY_2026-08-08.json  # render a policy tournament
//! ```
//!
//! `--serve FILE` is a standalone viewer mode: it renders a
//! `molcache-serve-v1` document (written by `molserve --json`) as
//! per-tenant hit-rate and per-cluster contention tables and exits
//! without running any simulation. `--tourney FILE` does the same for a
//! `molcache-tourney-v1` record written by `moltourney`: per-workload
//! league tables plus the cross-workload summary.
//!
//! One run per listed policy; `--jobs N` fans the runs across workers.
//! Runs are merged back in policy-list order, so the output (text and
//! JSON) is identical for any `--jobs` value.
//!
//! `--stages` prints the pipeline-stage breakdown of the whole run and
//! self-checks the staging contract — the per-stage cycles must sum to
//! the total access latency the statistics reported — exiting 1 on any
//! mismatch, which makes it usable as a CI smoke check.

use molcache_bench::experiments::table2;
use molcache_bench::harness::{run_workload_recorded, Engine};
use molcache_bench::tourney::TourneyDoc;
use molcache_core::{MemoStats, MolecularCache, RegionPolicy};
use molcache_power::calibrate::molecule_report;
use molcache_power::tech::TechNode;
use molcache_power::EnergyMeter;
use molcache_serve::ServeDoc;
use molcache_sim::cmp::RunSummary;
use molcache_sim::{Activity, CacheModel};
use molcache_telemetry::runs_to_json;
use molcache_trace::presets::Benchmark;

#[derive(Debug)]
struct Args {
    policies: Vec<RegionPolicy>,
    refs: u64,
    epoch: u64,
    period: u64,
    seed: u64,
    jobs: usize,
    json: bool,
    power: bool,
    stages: bool,
    memo: bool,
    serve: Option<String>,
    tourney: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: molstat [--policy randy,random,lru-direct] [--refs N]\n\
         \u{20}             [--epoch N] [--period N] [--seed N] [--jobs N]\n\
         \u{20}             [--power] [--stages] [--json]\n\
         \u{20} --refs    references to simulate (default 200000)\n\
         \u{20} --epoch   accesses per telemetry epoch (default 10000)\n\
         \u{20} --period  initial per-app resize period (default 5000)\n\
         \u{20} --power   price epoch activity into energy (70nm CACTI model)\n\
         \u{20} --stages  print the pipeline-stage breakdown and self-check\n\
         \u{20}           that stage cycles sum to the total access latency\n\
         \u{20} --memo    print the line-index front-end's counters (lookups\n\
         \u{20}           that found the line, hit rate, index buckets, generation\n\
         \u{20}           bumps; stale entries are always 0)\n\
         \u{20} --json    print the merged time-series as JSON on stdout\n\
         \u{20} --serve FILE  render a molserve replay record (molcache-serve-v1\n\
         \u{20}           JSON from `molserve --json`) and exit: per-tenant\n\
         \u{20}           hit-rate table plus per-cluster contention counters\n\
         \u{20} --tourney FILE  render a policy-tournament record\n\
         \u{20}           (molcache-tourney-v1 JSON from `moltourney`) and exit:\n\
         \u{20}           per-workload league tables plus cross-workload means"
    );
    std::process::exit(2);
}

fn parse_policy(name: &str) -> RegionPolicy {
    match name.to_ascii_lowercase().as_str() {
        "random" => RegionPolicy::Random,
        "randy" => RegionPolicy::Randy,
        "lru-direct" | "lrudirect" => RegionPolicy::LruDirect,
        _ => usage(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        policies: vec![RegionPolicy::Randy],
        refs: 200_000,
        epoch: 10_000,
        period: 5_000,
        seed: 7,
        jobs: 1,
        json: false,
        power: false,
        stages: false,
        memo: false,
        serve: None,
        tourney: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--policy" => args.policies = value().split(',').map(parse_policy).collect(),
            "--refs" => args.refs = value().parse().unwrap_or_else(|_| usage()),
            "--epoch" => args.epoch = value().parse().unwrap_or_else(|_| usage()),
            "--period" => args.period = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => args.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--json" => args.json = true,
            "--power" => args.power = true,
            "--stages" => args.stages = true,
            "--memo" => args.memo = true,
            "--serve" => args.serve = Some(value()),
            "--tourney" => args.tourney = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.policies.is_empty()
        || args.refs == 0
        || args.epoch == 0
        || args.period == 0
        || args.jobs == 0
    {
        usage();
    }
    args
}

struct RunResult {
    policy: RegionPolicy,
    summary: RunSummary,
    description: String,
    resize_rounds: u64,
    free_molecules: usize,
    activity: Activity,
    /// Line-index front-end counters.
    memo: MemoStats,
}

/// Renders the line-index front-end's counters for one run (the
/// heading keeps the name "memo front-end").
/// `epoch_memo_hits` is the per-epoch hit series carried (JSON-excluded)
/// on the recorder's epoch samples.
fn report_memo(run: &RunResult, epoch_memo_hits: &[u64]) {
    let s = run.memo;
    println!("memo front-end ({}):", run.policy);
    println!(
        "  {} hits / {} lookups ({:.1}% hit rate), {} stale entries",
        s.hits,
        s.lookups(),
        s.hit_rate() * 100.0,
        s.stale,
    );
    println!(
        "  {} index buckets, generation {} after {} structural bumps",
        s.slots, s.generation, s.generation_bumps,
    );
    if !epoch_memo_hits.is_empty() {
        let total: u64 = epoch_memo_hits.iter().sum();
        let peak = epoch_memo_hits.iter().copied().max().unwrap_or(0);
        println!(
            "  per-epoch hits: {} epochs, {} total, peak {} in one epoch",
            epoch_memo_hits.len(),
            total,
            peak,
        );
    }
}

/// Renders the run's pipeline-stage breakdown and verifies the staging
/// contract: stage cycles must sum to the total latency the statistics
/// reported. Returns `false` (after printing the discrepancy) on a
/// violated contract.
fn report_stages(run: &RunResult, meter: Option<&EnergyMeter>) -> bool {
    let energy = meter.map(|m| m.stage_energy_nj(&run.activity));
    println!("pipeline stages ({}):", run.policy);
    print!(
        "  {:<12} {:>14} {:>14} {:>12} {:>10}",
        "stage", "cycles", "asid-compares", "tag-probes", "frames"
    );
    if energy.is_some() {
        print!(" {:>14}", "energy-nJ");
    }
    println!();
    for (stage, totals) in run.activity.stages.iter() {
        print!(
            "  {:<12} {:>14} {:>14} {:>12} {:>10}",
            stage.name(),
            totals.cycles,
            totals.asid_compares,
            totals.tag_probes,
            totals.frames_touched,
        );
        if let Some(e) = &energy {
            print!(" {:>14.1}", e.stage(stage));
        }
        println!();
    }
    let stage_cycles = run.activity.stages.total_cycles();
    let latency = run.summary.total_latency();
    if stage_cycles == latency {
        println!("  stage cycles {stage_cycles} == total access latency: ok");
        true
    } else {
        eprintln!(
            "molstat: staging contract violated for {}: stage cycles {stage_cycles} != total access latency {latency}",
            run.policy
        );
        false
    }
}

/// Renders a `molcache-serve-v1` replay record: run parameters,
/// per-tenant hit-rate table and per-cluster contention counters.
fn report_serve(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = ServeDoc::from_json(&text).map_err(|e| format!("invalid record {path}: {e}"))?;
    println!(
        "molserve replay: {} tenants on {} threads over {} shards, \
         {} refs/tenant, seed {}",
        doc.tenants, doc.threads, doc.shards, doc.refs_per_tenant, doc.seed,
    );
    println!(
        "  wall {:.1} ms, {:.0} accesses/sec, imbalance {:.3}",
        doc.wall_ns as f64 / 1e6,
        doc.accesses_per_sec,
        doc.imbalance,
    );
    println!();
    println!("  tenant  benchmark   shard   accesses      hit%   writebacks   avg-lat");
    for t in &doc.per_tenant {
        println!(
            "  {:>6}  {:<10} {:>5} {:>10}   {:>6.2}% {:>12} {:>9.1}",
            t.asid,
            t.benchmark,
            t.shard,
            t.stats.accesses,
            t.stats.hit_rate() * 100.0,
            t.stats.writebacks,
            t.stats.avg_latency(),
        );
    }
    println!();
    println!("  shard   acquisitions  contended  cont%   wait(us)  maxq   accesses    hit%");
    for s in &doc.per_shard {
        println!(
            "  {:>5} {:>14} {:>10} {:>5.1}% {:>10.1} {:>5} {:>10}  {:>5.1}%",
            s.shard,
            s.acquisitions,
            s.contended,
            s.contention_rate() * 100.0,
            s.lock_wait_ns as f64 / 1e3,
            s.max_queue_depth,
            s.accesses,
            s.hit_rate() * 100.0,
        );
    }
    Ok(())
}

/// Renders a `molcache-tourney-v1` policy-tournament record: run
/// parameters, the per-workload league tables and the cross-workload
/// summary.
fn report_tourney(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = TourneyDoc::from_json(&text).map_err(|e| format!("invalid record {path}: {e}"))?;
    println!(
        "policy tournament {}: {} policies x {} workloads, {} refs/cell, seed {}{}",
        doc.date,
        doc.policies().len(),
        doc.workloads().len(),
        doc.refs,
        doc.seed,
        if doc.smoke { " [smoke]" } else { "" },
    );
    println!();
    print!("{}", doc.render());
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.serve {
        if let Err(msg) = report_serve(path) {
            eprintln!("molstat: {msg}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(path) = &args.tourney {
        if let Err(msg) = report_tourney(path) {
            eprintln!("molstat: {msg}");
            std::process::exit(1);
        }
        return;
    }
    let (refs, seed, period) = (args.refs, args.seed, args.period);

    let results = Engine::new(args.jobs).run_recorded(
        args.policies.clone(),
        args.epoch,
        move |policy, sink| {
            let mut cache: MolecularCache =
                table2::molecular_6mb_with_period(policy, seed, period).with_sink(sink.clone());
            let summary = run_workload_recorded(&Benchmark::MIXED12, &mut cache, refs, seed, &sink);
            RunResult {
                policy,
                summary,
                description: cache.describe(),
                resize_rounds: cache.resize_rounds(),
                free_molecules: cache.free_molecules(),
                activity: cache.activity(),
                memo: cache.memo_stats().unwrap_or_default(),
            }
        },
    );

    let meter = args.power.then(|| {
        EnergyMeter::for_molecular(&molecule_report(&TechNode::nm70()), &TechNode::nm70())
    });
    let mut recorders = Vec::new();
    let mut runs = Vec::new();
    for (run, mut recorder) in results {
        recorder.set_label(format!("{} seed {}", run.description, seed));
        if let Some(meter) = meter {
            recorder.set_energy_meter(meter);
        }
        recorders.push(recorder);
        runs.push(run);
    }

    if args.json {
        if args.stages {
            // Keep stdout pure JSON; the contract check still gates the
            // exit status so `--stages --json` works as a CI smoke.
            for run in &runs {
                let stage_cycles = run.activity.stages.total_cycles();
                let latency = run.summary.total_latency();
                if stage_cycles != latency {
                    eprintln!(
                        "molstat: staging contract violated for {}: stage cycles \
                         {stage_cycles} != total access latency {latency}",
                        run.policy
                    );
                    std::process::exit(1);
                }
            }
        }
        match runs_to_json(&recorders) {
            Ok(doc) => println!("{doc}"),
            Err(e) => {
                eprintln!("telemetry export failed: {e:?}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut contract_ok = true;
    for (run, recorder) in runs.iter().zip(&recorders) {
        println!("{}", recorder.render());
        println!(
            "{}: {} refs, global miss rate {:.4}, avg latency {:.1} cycles, \
             {} resize rounds, {} free molecules",
            run.policy,
            run.summary.accesses(),
            run.summary.global.miss_rate(),
            run.summary.avg_latency(),
            run.resize_rounds,
            run.free_molecules,
        );
        if args.stages {
            contract_ok &= report_stages(run, meter.as_ref());
        }
        if args.memo {
            let epoch_hits: Vec<u64> = recorder.epochs().iter().map(|e| e.memo_hits).collect();
            report_memo(run, &epoch_hits);
        }
        println!();
    }
    if !contract_ok {
        std::process::exit(1);
    }
}
