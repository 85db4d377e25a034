//! Subarray organization (CACTI's `Ndwl` / `Ndbl` / `Nspd`).

use molcache_sim::CacheConfig;

/// How the data (or tag) array is partitioned into subarrays.
///
/// * `ndwl` — wordline splits (columns divided across subarrays).
/// * `ndbl` — bitline splits (rows divided across subarrays).
/// * `nspd` — sets mapped onto one physical wordline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Organization {
    /// Wordline splits.
    pub ndwl: u32,
    /// Bitline splits.
    pub ndbl: u32,
    /// Sets per wordline.
    pub nspd: u32,
}

impl Organization {
    /// The trivial single-subarray organization.
    pub const MONOLITHIC: Organization = Organization {
        ndwl: 1,
        ndbl: 1,
        nspd: 1,
    };
}

impl std::fmt::Display for Organization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Ndwl={} Ndbl={} Nspd={}",
            self.ndwl, self.ndbl, self.nspd
        )
    }
}

/// Physical dimensions of one subarray under an organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubarrayDims {
    /// Rows per subarray.
    pub rows: u64,
    /// Columns per subarray (bits along the wordline).
    pub cols: u64,
    /// Subarrays activated per access (one horizontal stripe).
    pub active_subarrays: u64,
}

/// Derives the data-array subarray dimensions, or `None` if the
/// organization does not divide the geometry evenly or violates the
/// aspect-ratio limits (rows/cols within `[MIN_DIM, MAX_DIM]`).
pub fn data_dims(cfg: &CacheConfig, org: Organization) -> Option<SubarrayDims> {
    dims(
        cfg.num_sets(),
        cfg.line_size() * 8 * cfg.assoc() as u64,
        org,
    )
}

/// Minimum rows/columns of a practical subarray.
pub const MIN_DIM: u64 = 32;
/// Maximum rows/columns of a practical subarray.
pub const MAX_DIM: u64 = 8192;

fn dims(sets: u64, bits_per_set: u64, org: Organization) -> Option<SubarrayDims> {
    let denom_rows = org.ndbl as u64 * org.nspd as u64;
    if !sets.is_multiple_of(denom_rows) {
        return None;
    }
    let rows = sets / denom_rows;
    let total_cols = bits_per_set * org.nspd as u64;
    if !total_cols.is_multiple_of(org.ndwl as u64) {
        return None;
    }
    let cols = total_cols / org.ndwl as u64;
    if !(MIN_DIM..=MAX_DIM).contains(&rows) || !(MIN_DIM..=MAX_DIM).contains(&cols) {
        return None;
    }
    Some(SubarrayDims {
        rows,
        cols,
        active_subarrays: org.ndwl as u64,
    })
}

/// Enumerates the organization search space (powers of two, bounded).
pub fn search_space() -> impl Iterator<Item = Organization> {
    const POW2: [u32; 6] = [1, 2, 4, 8, 16, 32];
    POW2.into_iter().flat_map(|ndbl| {
        [1u32, 2, 4, 8, 16, 32].into_iter().flat_map(move |ndwl| {
            [1u32, 2, 4]
                .into_iter()
                .map(move |nspd| Organization { ndwl, ndbl, nspd })
        })
    })
}

/// Width of the address tag stored per line, assuming [`ADDR_BITS`]-bit
/// physical addresses.
pub fn tag_width(cfg: &CacheConfig) -> u64 {
    let index_bits = cfg.num_sets().trailing_zeros() as u64;
    let offset_bits = cfg.line_size().trailing_zeros() as u64;
    ADDR_BITS.saturating_sub(index_bits + offset_bits).max(1)
}

/// Physical address width assumed by the tag model.
pub const ADDR_BITS: u64 = 40;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u64, assoc: u32) -> CacheConfig {
        CacheConfig::new(size, assoc, 64).unwrap()
    }

    #[test]
    fn monolithic_dims() {
        let c = cfg(8 * 1024, 1); // 128 sets x 512 bits
        let d = data_dims(&c, Organization::MONOLITHIC).unwrap();
        assert_eq!(d.rows, 128);
        assert_eq!(d.cols, 512);
        assert_eq!(d.active_subarrays, 1);
    }

    #[test]
    fn splitting_preserves_total_bits() {
        let c = cfg(1 << 20, 4);
        for org in search_space() {
            if let Some(d) = data_dims(&c, org) {
                let total = d.rows * d.cols * org.ndwl as u64 * org.ndbl as u64;
                assert_eq!(total, c.size_bytes() * 8, "org {org} loses bits");
            }
        }
    }

    #[test]
    fn invalid_orgs_rejected() {
        let c = cfg(8 * 1024, 1); // 128 sets
                                  // ndbl*nspd = 256 > sets.
        let org = Organization {
            ndwl: 1,
            ndbl: 128,
            nspd: 2,
        };
        assert!(data_dims(&c, org).is_none());
    }

    #[test]
    fn aspect_limits_enforced() {
        let c = cfg(64 << 20, 1); // 1M sets: monolithic rows > MAX_DIM
        assert!(data_dims(&c, Organization::MONOLITHIC).is_none());
        // But some split works.
        assert!(search_space().any(|o| data_dims(&c, o).is_some()));
    }

    #[test]
    fn tag_width_reasonable() {
        let c = cfg(1 << 20, 4); // 4096 sets, 64B lines: 40-12-6 = 22
        assert_eq!(tag_width(&c), 22);
        let big = cfg(8 << 20, 8); // 16384 sets: 40-14-6 = 20
        assert_eq!(tag_width(&big), 20);
    }

    #[test]
    fn search_space_is_bounded_and_unique() {
        let all: Vec<Organization> = search_space().collect();
        assert_eq!(all.len(), 6 * 6 * 3);
        let mut dedup = all.clone();
        dedup.sort_by_key(|o| (o.ndwl, o.ndbl, o.nspd));
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn display_org() {
        assert_eq!(Organization::MONOLITHIC.to_string(), "Ndwl=1 Ndbl=1 Nspd=1");
    }
}
