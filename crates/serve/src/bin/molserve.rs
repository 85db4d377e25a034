//! molserve — replay interleaved multi-tenant traffic through a
//! sharded cache service.
//!
//! ```text
//! molserve [--tenants N] [--threads M] [--shards K] [--refs N]
//!          [--seed S] [--chunk C] [--policy NAME[,NAME...]]
//!          [--verify] [--json]
//! ```
//!
//! Defaults: 4 tenants driven by 4 threads, 100k accesses per tenant,
//! and one shard per tenant unless `--shards` sets the count (1 to
//! 32767). `--policy` assigns resize policies to shards round-robin
//! (one name = homogeneous, a list = heterogeneous service; see
//! `molcache_core::policy::POLICY_NAMES`). `--verify` re-runs the same
//! traffic on a fresh, identically configured service with one thread
//! and checks that every tenant's statistics are bit-identical (exit 1
//! if not) — the determinism property the shard-partitioned replay
//! guarantees, which holds for any policy mix. `--json` emits the
//! `molcache-serve-v1` document on stdout instead of the human-readable
//! tables (pipe into a file for `molstat --serve`).

use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_serve::{replay, CacheService, ReplayOptions, ReplayReport, ServeDoc};
use molcache_trace::tenants::{tenant_traces, TenantTrace};
use std::process::ExitCode;

struct Args {
    tenants: usize,
    threads: usize,
    shards: usize,
    refs: u64,
    seed: u64,
    chunk: usize,
    policies: Vec<String>,
    verify: bool,
    json: bool,
}

const USAGE: &str = "usage: molserve [--tenants N] [--threads M] [--shards K] \
                     [--refs N] [--seed S] [--chunk C] \
                     [--policy NAME[,NAME...]] [--verify] [--json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tenants: 4,
        threads: 4,
        shards: 0,
        refs: 100_000,
        seed: 0xA51D,
        chunk: 256,
        policies: Vec::new(),
        verify: false,
        json: false,
    };
    let mut shards = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("bad value for {name}: {e}"))
        };
        match arg.as_str() {
            "--tenants" => args.tenants = num("--tenants")? as usize,
            "--threads" => args.threads = num("--threads")? as usize,
            "--shards" => shards = Some(num("--shards")? as usize),
            "--refs" => args.refs = num("--refs")?,
            "--seed" => args.seed = num("--seed")?,
            "--chunk" => args.chunk = num("--chunk")? as usize,
            "--policy" => {
                let list = it.next().ok_or("--policy needs a value")?;
                args.policies = list.split(',').map(str::to_string).collect();
            }
            "--verify" => args.verify = true,
            "--json" => args.json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.tenants == 0 || args.tenants > 0x7FFF {
        return Err("--tenants must be between 1 and 32767".into());
    }
    args.shards = shards.unwrap_or(args.tenants);
    if args.shards == 0 || args.shards > 0x7FFF {
        return Err("--shards must be between 1 and 32767".into());
    }
    if args.refs == 0 {
        return Err("--refs must be at least 1".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.chunk == 0 {
        return Err("--chunk must be at least 1".into());
    }
    Ok(args)
}

/// One 1 MiB cluster per shard (4 tiles of 32 × 8 KiB molecules),
/// Randy replacement, adaptive Algorithm-1 resizing. Seeds are
/// decorrelated per shard but fixed by `--seed`, so two services built
/// from the same arguments are identical.
fn shard_cache(seed: u64, shard: usize) -> MolecularCache {
    let cfg: MolecularConfig = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(32)
        .tiles_per_cluster(4)
        .clusters(1)
        .policy(RegionPolicy::Randy)
        .miss_rate_goal(0.1)
        .trigger(ResizeTrigger::GlobalAdaptive {
            initial_period: 25_000,
        })
        .seed(seed ^ (shard as u64).wrapping_mul(0x9E3779B97F4A7C15))
        .build()
        .expect("molserve geometry is valid");
    MolecularCache::new(cfg)
}

fn run(args: &Args, traces: &[TenantTrace], threads: usize) -> ReplayReport {
    let service = CacheService::new(args.shards, |i| shard_cache(args.seed, i));
    if !args.policies.is_empty() {
        for shard in 0..args.shards {
            let name = &args.policies[shard % args.policies.len()];
            let cfg = service.with_shard(shard, |c| c.config().clone());
            match molcache_core::policy::by_name(name, &cfg) {
                Some(policy) => service
                    .set_shard_policy(shard, policy)
                    .expect("shard index is in range"),
                None => {
                    eprintln!(
                        "molserve: unknown policy '{name}' (known: {})",
                        molcache_core::policy::POLICY_NAMES.join(", ")
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    let opts = ReplayOptions {
        threads,
        chunk: args.chunk,
    };
    match replay(&service, traces, opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("molserve: replay failed: {e}");
            std::process::exit(1);
        }
    }
}

fn print_report(report: &ReplayReport) {
    println!(
        "replayed {} accesses from {} tenants on {} threads in {:.1} ms ({:.0} acc/s)",
        report.total_accesses,
        report.tenants.len(),
        report.threads,
        report.wall_ns as f64 / 1e6,
        report.accesses_per_sec(),
    );
    println!();
    println!("  tenant  benchmark   shard   accesses      hit%   writebacks");
    for t in &report.tenants {
        println!(
            "  {:>6}  {:<10} {:>5} {:>10}   {:>6.2}% {:>12}",
            t.asid.raw(),
            t.benchmark,
            t.shard,
            t.stats.accesses,
            t.stats.hit_rate() * 100.0,
            t.stats.writebacks,
        );
    }
    println!();
    println!("  shard   acquisitions  contended   wait(us)  maxq   accesses    hit%");
    for s in &report.shards {
        println!(
            "  {:>5} {:>14} {:>10} {:>10.1} {:>5} {:>10}  {:>5.1}%",
            s.shard,
            s.acquisitions,
            s.contended,
            s.lock_wait_ns as f64 / 1e3,
            s.max_queue_depth,
            s.accesses,
            s.hit_rate() * 100.0,
        );
    }
    println!();
    println!("  imbalance {:.3}", report.imbalance());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let traces = tenant_traces(args.tenants, args.refs, args.seed);
    let report = run(&args, &traces, args.threads);

    if args.verify {
        let reference = run(&args, &traces, 1);
        let mut clean = true;
        for (got, want) in report.tenants.iter().zip(&reference.tenants) {
            if got.stats != want.stats {
                eprintln!(
                    "verify: tenant {} diverged: {}-thread {:?} vs 1-thread {:?}",
                    got.asid.raw(),
                    report.threads,
                    got.stats,
                    want.stats,
                );
                clean = false;
            }
        }
        if !clean {
            return ExitCode::FAILURE;
        }
        if !args.json {
            eprintln!(
                "verify: per-tenant stats identical across {} threads vs 1",
                report.threads
            );
        }
    }

    if args.json {
        let doc = ServeDoc::from_report(&report, args.refs, args.seed, args.shards);
        match doc.to_json() {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("molserve: JSON encoding failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        if !args.policies.is_empty() {
            let map: Vec<String> = (0..args.shards)
                .map(|s| format!("{s}:{}", args.policies[s % args.policies.len()]))
                .collect();
            println!("shard policies  {}", map.join("  "));
        }
        print_report(&report);
    }
    ExitCode::SUCCESS
}
