//! QoS partitioning: the paper's motivating scenario (Table 1 → §3).
//!
//! A latency-sensitive application (`ammp`, small hot set) shares an L2
//! with a cache-hungry one (`mcf`). On a traditional shared cache the
//! small application's miss rate is wrecked by interference; the
//! molecular cache gives each its own region and holds `ammp` at its
//! goal.
//!
//! ```text
//! cargo run --release --example qos_partitioning
//! ```

use molecular_caches::core::{MolecularCache, MolecularConfig};
use molecular_caches::sim::cmp::run_shared;
use molecular_caches::sim::{CacheConfig, SetAssocCache};
use molecular_caches::trace::presets::Benchmark;
use molecular_caches::trace::Asid;

const REFS: u64 = 2_000_000;

fn workload() -> Vec<molecular_caches::trace::gen::BoxedSource> {
    vec![
        Benchmark::Ammp.source(Asid::new(1), 7),
        Benchmark::Mcf.source(Asid::new(2), 7),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Baseline 1: ammp alone on a 1 MB 4-way cache.
    let mut solo = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64)?);
    let s = run_shared(
        vec![Benchmark::Ammp.source(Asid::new(1), 7)],
        &mut solo,
        REFS / 2,
    )?;
    let solo_mr = s.app_miss_rate(Asid::new(1));
    println!("ammp alone on 1MB 4-way:        miss rate {solo_mr:.4}");

    // Baseline 2: shared with mcf — interference.
    let mut shared = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64)?);
    let s = run_shared(workload(), &mut shared, REFS)?;
    let shared_mr = s.app_miss_rate(Asid::new(1));
    println!("ammp sharing 1MB 4-way with mcf: miss rate {shared_mr:.4}");

    // Molecular cache: same 1 MB, ammp gets a QoS goal of 2 %.
    let config = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(32) // 256 KB tiles
        .tiles_per_cluster(4)
        .clusters(1)
        // mcf is best-effort: a ~95% "goal" means any miss rate is
        // acceptable, so Algorithm 1 withdraws its excess molecules
        // instead of letting it squat on the whole cache.
        .miss_rate_goal(0.95)
        .app_goal(Asid::new(1), 0.02) // ammp: tight QoS
        .build()?;
    let mut molecular = MolecularCache::new(config);
    let s = run_shared(workload(), &mut molecular, REFS)?;
    let mol_mr = s.app_miss_rate(Asid::new(1));
    println!("ammp on 1MB molecular (goal 2%): miss rate {mol_mr:.4}");

    for snap in molecular.snapshots() {
        println!(
            "  {}: {} molecules, goal {:.0}%, lifetime miss rate {:.3}",
            snap.asid,
            snap.molecules,
            snap.goal * 100.0,
            snap.lifetime_miss_rate()
        );
    }

    let interference = shared_mr / solo_mr.max(1e-9);
    println!(
        "\ninterference inflated ammp's miss rate {interference:.1}x; \
         the molecular region pulled it back to {mol_mr:.4} ({}the 2% goal)",
        if mol_mr <= 0.03 { "near " } else { "toward " }
    );
    Ok(())
}
