//! Property tests for the fill stage's line-factor contract (§3.2): a
//! `line_factor = k` miss lands its k-line block in k **consecutive
//! frames of one molecule**, so an enlarged line size never straddles a
//! molecule — and therefore never crosses a Randy victim-row boundary,
//! since replacement rows partition whole molecules. After every access
//! each member holds every block wholly or not at all, which is what
//! lets a fill skip looking for stale copies of the block's lines.

use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_sim::{CacheModel, Request};
use molcache_trace::{AccessKind, Address, Asid, LineAddr};
use proptest::prelude::*;

const LINE: u64 = 64;
const MOLECULE: u64 = 1024; // 16 frames of 64 B

fn cache_with_line_factor(k: u32, seed: u64) -> MolecularCache {
    let cfg = MolecularConfig::builder()
        .molecule_size(MOLECULE)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .policy(RegionPolicy::Randy)
        .app_line_factor(Asid::new(1), k)
        .trigger(ResizeTrigger::Constant { period: 500 })
        .seed(seed)
        .build()
        .expect("test geometry is valid");
    MolecularCache::new(cfg)
}

fn read(addr: u64) -> Request {
    Request {
        asid: Asid::new(1),
        addr: Address::new(addr),
        kind: AccessKind::Read,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `line_factor = k` fill lands the whole k-line block in k
    /// consecutive frames of a single molecule of the requesting region,
    /// the block's frames never wrap the molecule, and the landing
    /// molecule sits in exactly one Randy victim row.
    #[test]
    fn block_fills_land_in_one_molecule_and_one_randy_row(
        k_shift in 0u32..4,          // line_factor 1, 2, 4, 8
        seed in 1u64..1024,
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..60),
    ) {
        let k = 1u32 << k_shift;
        let asid = Asid::new(1);
        let mut cache = cache_with_line_factor(k, seed);
        let frames = MOLECULE / LINE;

        for addr in addrs {
            let out = cache.access(read(addr * LINE));
            prop_assert_eq!(cache.find_partial_block(), None, "a block was split");
            prop_assert_eq!(cache.find_duplicate_line(), None);
            if out.hit || out.lines_fetched == 0 {
                continue; // hits and bypassed misses fill nothing
            }
            prop_assert_eq!(out.lines_fetched, k, "a fill fetches the whole block");

            let line = Address::new(addr * LINE).line(LINE);
            let block_start = LineAddr(line.0 - line.0 % u64::from(k));

            // All k lines landed, in one molecule.
            let home = cache
                .resident_molecule_of(asid, block_start)
                .expect("block start is resident after the fill");
            let mut landed_frames = Vec::new();
            for j in 0..u64::from(k) {
                let l = LineAddr(block_start.0 + j);
                prop_assert_eq!(
                    cache.resident_molecule_of(asid, l),
                    Some(home),
                    "line {} of the block left molecule {:?}", j, home
                );
                landed_frames.push(
                    cache
                        .resident_frame_of(home, l)
                        .expect("resident line has a frame"),
                );
            }

            // Frames are consecutive and never wrap the molecule: the
            // block is aligned to k and k divides the frame count.
            let first = landed_frames[0];
            prop_assert!(
                (first as u64).is_multiple_of(u64::from(k)),
                "block is frame-aligned"
            );
            prop_assert!(first as u64 + u64::from(k) <= frames, "block fits the molecule");
            for (j, frame) in landed_frames.iter().enumerate() {
                prop_assert_eq!(*frame, first + j, "frames are consecutive");
            }

            // One molecule means one Randy victim row: the landing
            // molecule is a member of exactly one replacement row.
            let row = cache
                .region_row_of(asid, home)
                .expect("landing molecule belongs to the region's view");
            for j in 1..u64::from(k) {
                let l = LineAddr(block_start.0 + j);
                let m = cache.resident_molecule_of(asid, l).unwrap();
                prop_assert_eq!(
                    cache.region_row_of(asid, m),
                    Some(row),
                    "block crossed a victim-row boundary"
                );
            }
        }

        // Whole blocks kept every line unique.
        prop_assert_eq!(cache.find_duplicate_line(), None);
    }

    /// The contract holds through resizing: Algorithm 1 reshaping the
    /// region (constant trigger, period 500) never leaves a block split
    /// across molecules.
    #[test]
    fn blocks_stay_whole_across_resizes(
        seed in 1u64..256,
        stride in 1u64..9,
    ) {
        let k = 4u32;
        let asid = Asid::new(1);
        let mut cache = cache_with_line_factor(k, seed);
        for i in 0..2_000u64 {
            cache.access(read((i * stride % 600) * LINE));
            prop_assert_eq!(cache.find_partial_block(), None, "access {}", i);
        }
        // Sweep every resident block-start and check wholeness.
        for block in 0..(600 / u64::from(k) + 1) {
            let start = LineAddr(block * u64::from(k));
            let Some(home) = cache.resident_molecule_of(asid, start) else {
                continue;
            };
            for j in 1..u64::from(k) {
                let l = LineAddr(start.0 + j);
                if let Some(m) = cache.resident_molecule_of(asid, l) {
                    prop_assert_eq!(m, home, "resident block {} split", block);
                }
            }
        }
        prop_assert_eq!(cache.find_duplicate_line(), None);
    }
}
