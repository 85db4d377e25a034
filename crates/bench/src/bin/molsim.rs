//! `molsim` — drive any cache model from the command line.
//!
//! ```text
//! molsim --cache molecular --size 2MB --policy randy --goal 0.10 \
//!        --apps art,mcf --refs 1000000
//! molsim --cache setassoc --size 1MB --assoc 4 --apps ammp --refs 500000
//! molsim --cache molecular --size 2MB --din trace.din --refs 100000
//! ```
//!
//! Applications come from the built-in benchmark presets (`--apps`) or a
//! Dinero-format trace file (`--din`, one application). Prints per-app
//! miss rates, region state (molecular), activity counters and — with
//! `--power` — dynamic power at the chosen frequency.

use molcache_bench::harness::{asid_of, Engine};
use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_power::accounting::EnergyMeter;
use molcache_power::cacti::analyze;
use molcache_power::calibrate::molecule_report;
use molcache_power::leakage::leakage_w;
use molcache_power::tech::TechNode;
use molcache_sim::cmp::run_accesses;
use molcache_sim::replacement::Policy;
use molcache_sim::{CacheConfig, CacheModel, SetAssocCache};
use molcache_trace::din::DinSource;
use molcache_trace::gen::BoxedSource;
use molcache_trace::interleave::Workload;
use molcache_trace::presets::Benchmark;

#[derive(Debug)]
struct Args {
    cache: String,
    size: u64,
    assoc: u32,
    policy: RegionPolicy,
    goal: f64,
    apps: Vec<Benchmark>,
    din: Option<String>,
    refs: u64,
    seed: u64,
    power: bool,
    freq_mhz: f64,
    analyze: bool,
    jobs: usize,
}

fn parse_size(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = if let Some(v) = lower.strip_suffix("mb") {
        (v, 1 << 20)
    } else if let Some(v) = lower.strip_suffix("kb") {
        (v, 1 << 10)
    } else {
        (lower.as_str(), 1)
    };
    digits.trim().parse::<u64>().ok().map(|n| n * mult)
}

fn usage() -> ! {
    eprintln!(
        "usage: molsim --cache molecular|setassoc [--size 2MB] [--assoc 4]\n\
         \u{20}             [--policy random|randy|lru-direct] [--goal 0.10]\n\
         \u{20}             [--apps art,mcf,...] [--din FILE] [--refs N]\n\
         \u{20}             [--seed N] [--power] [--freq MHZ] [--analyze] [--jobs N]\n\
         known apps: {}",
        Benchmark::ALL
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cache: "molecular".into(),
        size: 2 << 20,
        assoc: 4,
        policy: RegionPolicy::Randy,
        goal: 0.10,
        apps: vec![Benchmark::Art, Benchmark::Mcf],
        din: None,
        refs: 1_000_000,
        seed: 42,
        power: false,
        freq_mhz: 200.0,
        analyze: false,
        jobs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--cache" => args.cache = value(),
            "--size" => args.size = parse_size(&value()).unwrap_or_else(|| usage()),
            "--assoc" => args.assoc = value().parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                args.policy = match value().to_ascii_lowercase().as_str() {
                    "random" => RegionPolicy::Random,
                    "randy" => RegionPolicy::Randy,
                    "lru-direct" | "lrudirect" => RegionPolicy::LruDirect,
                    _ => usage(),
                }
            }
            "--goal" => args.goal = value().parse().unwrap_or_else(|_| usage()),
            "--apps" => {
                args.apps = value()
                    .split(',')
                    .map(|name| Benchmark::from_name(name).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--din" => args.din = Some(value()),
            "--refs" => {
                args.refs = value().parse().unwrap_or_else(|_| usage());
                if args.refs == 0 {
                    usage();
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--power" => args.power = true,
            "--analyze" => args.analyze = true,
            "--freq" => args.freq_mhz = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                args.jobs = value().parse().unwrap_or_else(|_| usage());
                if args.jobs == 0 {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn build_sources(args: &Args) -> Vec<BoxedSource> {
    if let Some(path) = &args.din {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        vec![Box::new(DinSource::new(
            std::io::BufReader::new(file),
            asid_of(0),
        ))]
    } else {
        args.apps
            .iter()
            .enumerate()
            .map(|(i, b)| b.source(asid_of(i), args.seed))
            .collect()
    }
}

fn report<C: CacheModel>(cache: &C, args: &Args, summary: &molcache_sim::cmp::RunSummary) {
    println!("cache: {}", cache.describe());
    println!(
        "refs: {}  global miss rate: {:.4}  avg latency: {:.1} cycles",
        summary.accesses(),
        summary.global.miss_rate(),
        summary.avg_latency()
    );
    for (asid, stats) in &summary.per_app {
        println!(
            "  {asid}: {} accesses, miss rate {:.4}, {} writebacks",
            stats.accesses,
            stats.miss_rate(),
            stats.writebacks
        );
    }
    let a = cache.activity();
    println!(
        "activity: {:.1} probes/access, {} fills, {} writebacks, {} Ulmo searches",
        a.probes_per_access(),
        a.line_fills,
        a.writebacks,
        a.ulmo_searches
    );
    if args.power {
        let node = TechNode::nm70();
        let dynamic = if args.cache == "molecular" {
            EnergyMeter::for_molecular(&molecule_report(&node), &node)
                .power_at_mhz(&a, args.freq_mhz)
        } else {
            let cfg = CacheConfig::new(args.size, args.assoc, 64).expect("validated");
            EnergyMeter::for_traditional(&analyze(&cfg, &node)).power_at_mhz(&a, args.freq_mhz)
        };
        println!(
            "power @{:.0} MHz: dynamic {:.2} W, leakage {:.2} W",
            args.freq_mhz,
            dynamic,
            leakage_w(args.size, &node)
        );
    }
}

fn analyze_stream(args: &Args) {
    use molcache_trace::gen::TraceSource;
    let sources = build_sources(args);
    let limit = args.refs.min(200_000);
    println!("stream analysis (first {limit} refs per app):");
    // Each stream is analyzed independently; --jobs fans them across
    // workers while keeping the report in app order.
    let lines = Engine::new(args.jobs).run(sources, |mut src| {
        let accs = src.collect_n(limit as usize);
        let stats = molcache_trace::stats::analyze(&accs);
        format!(
            "  {}: {} refs, footprint {} KB, {:.1}% writes, LRU hit@1K lines {:.1}%, @16K {:.1}%",
            src.asid(),
            stats.accesses,
            stats.footprint_bytes() >> 10,
            100.0 * stats.writes as f64 / stats.accesses.max(1) as f64,
            100.0 * stats.hit_fraction_at(1 << 10),
            100.0 * stats.hit_fraction_at(16 << 10),
        )
    });
    for line in lines {
        println!("{line}");
    }
}

fn main() {
    let args = parse_args();
    if args.analyze {
        analyze_stream(&args);
    }
    let sources = build_sources(&args);
    let workload = Workload::new(sources).unwrap_or_else(|e| {
        eprintln!("bad workload: {e}");
        std::process::exit(1);
    });
    let stream = workload.round_robin();

    match args.cache.as_str() {
        "molecular" => {
            let tile_bytes = args.size / 4;
            let config = MolecularConfig::builder()
                .molecule_size(8 * 1024)
                .tile_molecules((tile_bytes / 8192).max(1) as usize)
                .tiles_per_cluster(4)
                .clusters(1)
                .policy(args.policy)
                .miss_rate_goal(args.goal)
                .trigger(ResizeTrigger::GlobalAdaptive {
                    initial_period: 25_000,
                })
                .seed(args.seed)
                .build()
                .unwrap_or_else(|e| {
                    eprintln!("bad molecular config: {e}");
                    std::process::exit(1);
                });
            let mut cache = MolecularCache::new(config);
            let summary = run_accesses(stream, &mut cache, args.refs);
            report(&cache, &args, &summary);
            println!("regions:");
            for snap in cache.snapshots() {
                println!(
                    "  {}: {} molecules / {} rows, goal {:.0}%, lifetime miss {:.4}, HPM {:.3e}",
                    snap.asid,
                    snap.molecules,
                    snap.rows,
                    snap.goal * 100.0,
                    snap.lifetime_miss_rate(),
                    snap.hits_per_molecule
                );
            }
        }
        "setassoc" => {
            let cfg = CacheConfig::new(args.size, args.assoc, 64).unwrap_or_else(|e| {
                eprintln!("bad cache geometry: {e}");
                std::process::exit(1);
            });
            let mut cache = SetAssocCache::new(cfg, Policy::Lru);
            let summary = run_accesses(stream, &mut cache, args.refs);
            report(&cache, &args, &summary);
        }
        _ => usage(),
    }
}
