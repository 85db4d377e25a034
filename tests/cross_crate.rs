//! Cross-crate plumbing: one trace through both cache models, plus the
//! power accounting on measured activity.

use molecular_caches::core::{InitialAllocation, MolecularCache, MolecularConfig};
use molecular_caches::power::accounting::EnergyMeter;
use molecular_caches::power::cacti::analyze;
use molecular_caches::power::calibrate::molecule_report;
use molecular_caches::power::tech::TechNode;
use molecular_caches::sim::cmp::{run_accesses, run_source};
use molecular_caches::sim::{CacheConfig, CacheModel, SetAssocCache};
use molecular_caches::trace::gen::TraceSource;
use molecular_caches::trace::presets::Benchmark;
use molecular_caches::trace::Asid;

fn recorded_trace(n: usize) -> Vec<molecular_caches::trace::MemAccess> {
    let mut src = Benchmark::Parser.source(Asid::new(1), 13);
    src.collect_n(n)
}

#[test]
fn same_trace_through_every_model() {
    let trace = recorded_trace(60_000);
    let mut results = Vec::new();

    let mut set_assoc = SetAssocCache::new(CacheConfig::new(512 << 10, 4, 64).unwrap());
    results.push((
        set_assoc.describe(),
        run_accesses(trace.iter().copied(), &mut set_assoc, u64::MAX),
    ));

    let config = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(16)
        .tiles_per_cluster(4)
        .clusters(1)
        .build()
        .unwrap();
    let mut molecular = MolecularCache::new(config);
    results.push((
        molecular.describe(),
        run_accesses(trace.iter().copied(), &mut molecular, u64::MAX),
    ));

    for (desc, summary) in &results {
        assert_eq!(summary.accesses(), 60_000, "{desc} dropped accesses");
        let mr = summary.global.miss_rate();
        assert!(
            mr > 0.0 && mr < 0.9,
            "{desc}: implausible miss rate {mr:.3}"
        );
    }
    // Unrestricted single-app runs: both models should land in a
    // broadly similar band for the same trace.
    let rates: Vec<f64> = results.iter().map(|(_, s)| s.global.miss_rate()).collect();
    let max = rates.iter().cloned().fold(f64::MIN, f64::max);
    let min = rates.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max < min * 6.0 + 0.05,
        "models diverge too much on one trace: {rates:?}"
    );
}

#[test]
fn measured_activity_prices_to_sane_power() {
    let node = TechNode::nm70();
    let config = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(64)
        .tiles_per_cluster(4)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(16))
        .build()
        .unwrap();
    let mut cache = MolecularCache::new(config);
    // twolf's region settles comfortably inside one tile — the regime
    // the paper's selective-enablement power argument is about.
    run_source(
        Benchmark::Twolf.source(Asid::new(1), 13),
        &mut cache,
        600_000,
    );
    let meter = EnergyMeter::for_molecular(&molecule_report(&node), &node);
    let power = meter.power_at_mhz(&cache.activity(), 200.0);
    // One tile fully enabled would be ~5 W at 200 MHz; a single app
    // using part of one tile must be strictly less, and non-zero.
    assert!(
        power > 0.05 && power < 6.0,
        "implausible power {power:.2} W"
    );

    // Traditional comparison at the same frequency via its own meter.
    let trad_cfg = CacheConfig::new(2 << 20, 4, 64).unwrap().with_ports(4);
    let mut trad = SetAssocCache::new(trad_cfg);
    run_source(
        Benchmark::Twolf.source(Asid::new(1), 13),
        &mut trad,
        600_000,
    );
    let trad_meter = EnergyMeter::for_traditional(&analyze(&trad_cfg, &node));
    let trad_power = trad_meter.power_at_mhz(&trad.activity(), 200.0);
    assert!(
        power < trad_power,
        "molecular {power:.2} W must undercut traditional {trad_power:.2} W"
    );
}
