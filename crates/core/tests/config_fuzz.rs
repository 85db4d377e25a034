//! Fuzzes the configuration builder: whatever it is given, `build`
//! returns a typed error or a configuration `MolecularCache::new` can
//! build, and never panics.
//!
//! Inputs mix zeroes, ones, powers of two, arbitrary values and values
//! near the type's top for every count and size; NaN, ±∞, 0, 1 and
//! in-range values for every goal; and ASIDs 0, 65535 and in between for
//! every per-application setting. Every accepted configuration numbers
//! its frames in 32 bits, and the small ones build a cache that serves
//! accesses from each ASID.

use molcache_core::ResizeTrigger;
use molcache_core::{InitialAllocation, MolecularCache, MolecularConfig, RegionPolicy};
use molcache_sim::{CacheModel, Request};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;

/// Zero, one, a power of two, an arbitrary value or one near the type's
/// top, by `pick`.
fn edgy(pick: u64, raw: u64) -> u64 {
    match pick % 5 {
        0 => 0,
        1 => 1,
        2 => 1 << (raw % 64),
        3 => raw,
        _ => u64::MAX - raw % 4,
    }
}

/// Three picks in four `valid`, else an edgy value.
fn mostly(pick: u64, raw: u64, valid: u64) -> u64 {
    if !pick.is_multiple_of(4) {
        valid
    } else {
        edgy(pick / 4, raw)
    }
}

/// Three picks in four a goal inside (0, 1), else NaN, ±∞, 0, 1, a
/// negative one or one above 1.
fn goal(pick: u64, raw: u64) -> f64 {
    let unit = (raw >> 11) as f64 / (1u64 << 53) as f64;
    if !pick.is_multiple_of(4) {
        return 0.01 + 0.98 * unit;
    }
    let edges = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        1.0,
        -unit,
        1.0 + unit,
    ];
    edges[(pick / 4) as usize % edges.len()]
}

/// ASID 0, 65535 or another.
fn asid(pick: u64, raw: u64) -> Asid {
    Asid::new([0, u16::MAX, raw as u16][pick as usize % 3])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn config_builder_never_panics(
        picks in proptest::collection::vec(0u64..64, 16..17),
        raws in proptest::collection::vec(proptest::num::u64::ANY, 16..17),
    ) {
        let (p, r) = (&picks, &raws);
        let small = |i: usize, top: u64| mostly(p[i], r[i], 1 + r[i] % top) as usize;
        let mut b = MolecularConfig::builder();
        b.molecule_size(mostly(p[0], r[0], 64 << (r[0] % 6)))
            .tile_molecules(small(1, 8))
            .tiles_per_cluster(small(2, 4))
            .clusters(small(3, 4))
            .policy([RegionPolicy::Random, RegionPolicy::Randy, RegionPolicy::LruDirect][p[4] as usize % 3])
            .miss_rate_goal(goal(p[5], r[5]))
            .row_max(small(6, 8))
            .seed(r[7]);
        if p[8] % 2 == 0 {
            b.app_goal(asid(p[8] / 2, r[8]), goal(p[8] / 6, r[8]));
        }
        if p[9] % 2 == 0 {
            b.app_line_factor(asid(p[9] / 2, r[9]), mostly(p[9] / 6, r[9], 1) as u32);
        }
        if p[10] % 2 == 0 {
            b.initial_allocation(InitialAllocation::Molecules(small(10, 4)));
        }
        if p[11] % 2 == 0 {
            b.max_allocation(small(11, 8));
        }
        if p[12] % 2 == 0 {
            b.assign_app_to_cluster(asid(p[12] / 2, r[12]), mostly(p[12] / 6, r[12], r[12] % 2) as usize);
        }
        let period = mostly(p[13], r[13], r[13] % 64);
        b.trigger(match p[14] % 3 {
            0 => ResizeTrigger::Constant { period },
            1 => ResizeTrigger::GlobalAdaptive { initial_period: period },
            _ => ResizeTrigger::PerAppAdaptive { initial_period: period },
        });
        let Ok(cfg) = b.build() else {
            return Ok(());
        };
        let frames = cfg.total_molecules() as u128 * cfg.frames_per_molecule() as u128;
        prop_assert!(frames < u128::from(u32::MAX), "{} frames", frames);
        if frames <= 1 << 14 {
            let mut cache = MolecularCache::new(cfg);
            for i in 0..256u64 {
                let asid = [Asid::new(1), Asid::NONE, Asid::new(u16::MAX), Asid::new(2)][i as usize % 4];
                let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                let addr = Address::new((i * 0x9E37 % 4096) * 64 + (u64::from(asid.raw()) << 36));
                cache.access(Request { asid, addr, kind });
            }
            prop_assert_eq!(cache.stats().global.accesses, 256);
        }
    }
}

/// 2^26 molecules of 128 frames: more frames than the tag store numbers.
#[test]
fn config_builder_rejects_frames_beyond_32_bits() {
    let built = MolecularConfig::builder()
        .tile_molecules(1 << 16)
        .tiles_per_cluster(1 << 10)
        .build();
    assert!(built.is_err(), "{built:?}");
}

/// A tile count whose product with the cluster size overflows `usize`
/// is an error, not an arithmetic panic.
#[test]
fn config_builder_rejects_overflowing_counts() {
    let built = MolecularConfig::builder()
        .tile_molecules(usize::MAX / 2)
        .tiles_per_cluster(4)
        .initial_allocation(InitialAllocation::Molecules(3))
        .build();
    assert!(built.is_err(), "{built:?}");
}
