//! Molecular-cache configuration (Table 3's parameters).

use crate::error::CoreError;
use crate::resize::ResizeTrigger;
use molcache_trace::Asid;
use std::collections::BTreeMap;

/// Which molecule-selection policy a region uses on replacement (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionPolicy {
    /// Pick any molecule of the region uniformly at random.
    Random,
    /// The paper's *Randy*: pick the row
    /// `(address / molecule_size) mod row_max` of the replacement view,
    /// then a random molecule within that row.
    Randy,
    /// The paper's future-work *LRU-Direct* scheme (§5), realized here
    /// as: the same direct row mapping as Randy, but the victim within
    /// the row is the least-recently-*hit* molecule instead of a random
    /// one — removing the reliance on random numbers entirely at the
    /// cost of per-molecule recency state.
    LruDirect,
}

impl std::fmt::Display for RegionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionPolicy::Random => f.write_str("Random"),
            RegionPolicy::Randy => f.write_str("Randy"),
            RegionPolicy::LruDirect => f.write_str("LRU-Direct"),
        }
    }
}

/// The base line size in bytes: 64, as in the paper (§3, Table 3). A
/// region's line *factor* (§3.2) fetches whole multiples of it.
pub const LINE_SIZE: u64 = 64;
/// Molecule hit latency in cycles.
pub(crate) const HIT_LATENCY: u32 = 4;
/// The ASID-compare stage every lookup passes first, in cycles.
pub(crate) const ASID_STAGE_CYCLES: u32 = 1;
/// Ulmo's remote-search penalty in cycles (§3.2).
pub(crate) const ULMO_PENALTY: u32 = 8;
/// Memory miss penalty in cycles.
pub(crate) const MISS_PENALTY: u32 = 200;

/// How many molecules a new partition starts with (§3.4, "Ground Zero").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialAllocation {
    /// Half the molecules of the home tile (the paper's current scheme).
    HalfTile,
    /// A fixed number of molecules (the paper discusses 2 vs 32).
    Molecules(usize),
}

/// Full configuration of a [`MolecularCache`](crate::MolecularCache).
///
/// Constructed via [`MolecularConfig::builder`]. Defaults follow the
/// paper's Table 3: 8 KB molecules with 64 B lines, 64 molecules per tile
/// (512 KB), 4 tiles per cluster, Randy replacement, adaptive resizing
/// with a 25 000-reference initial period.
#[derive(Debug, Clone, PartialEq)]
pub struct MolecularConfig {
    pub(crate) molecule_size: u64,
    pub(crate) tile_molecules: usize,
    pub(crate) tiles_per_cluster: usize,
    pub(crate) clusters: usize,
    pub(crate) policy: RegionPolicy,
    pub(crate) default_goal: f64,
    pub(crate) goals: BTreeMap<Asid, f64>,
    pub(crate) line_factors: BTreeMap<Asid, u32>,
    /// Molecules a new partition starts with, [`InitialAllocation`]
    /// resolved against the tile size.
    pub(crate) initial_allocation: usize,
    pub(crate) max_allocation: usize,
    pub(crate) trigger: ResizeTrigger,
    pub(crate) row_max: usize,
    pub(crate) app_clusters: BTreeMap<Asid, usize>,
    pub(crate) seed: u64,
}

impl MolecularConfig {
    /// Starts building a configuration with the paper's defaults.
    pub fn builder() -> MolecularConfigBuilder {
        MolecularConfigBuilder::default()
    }

    /// Molecule capacity in bytes.
    pub fn molecule_size(&self) -> u64 {
        self.molecule_size
    }

    /// Line frames per molecule.
    pub fn frames_per_molecule(&self) -> usize {
        (self.molecule_size / LINE_SIZE) as usize
    }

    /// Molecules per tile.
    pub fn tile_molecules(&self) -> usize {
        self.tile_molecules
    }

    /// Tiles per cluster.
    pub fn tiles_per_cluster(&self) -> usize {
        self.tiles_per_cluster
    }

    /// Number of tile clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Total tiles.
    pub fn total_tiles(&self) -> usize {
        self.clusters * self.tiles_per_cluster
    }

    /// Total molecules.
    pub fn total_molecules(&self) -> usize {
        self.total_tiles() * self.tile_molecules
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_molecules() as u64 * self.molecule_size
    }

    /// Tile capacity in bytes.
    pub fn tile_bytes(&self) -> u64 {
        self.tile_molecules as u64 * self.molecule_size
    }

    /// The replacement policy.
    pub fn policy(&self) -> RegionPolicy {
        self.policy
    }

    /// The default miss-rate goal (applications without an override).
    pub fn default_goal(&self) -> f64 {
        self.default_goal
    }

    /// The miss-rate goal for an application.
    pub fn goal(&self, asid: Asid) -> f64 {
        self.goals.get(&asid).copied().unwrap_or(self.default_goal)
    }

    /// The line-size factor for an application (1 = base 64 B lines).
    pub fn line_factor(&self, asid: Asid) -> u32 {
        self.line_factors.get(&asid).copied().unwrap_or(1)
    }

    /// The resize trigger scheme.
    pub fn trigger(&self) -> ResizeTrigger {
        self.trigger
    }

    /// Maximum molecules allocated to one partition in one resize chunk.
    pub fn max_allocation(&self) -> usize {
        self.max_allocation
    }

    /// Maximum rows of a region's replacement view (configured way size).
    pub fn row_max(&self) -> usize {
        self.row_max
    }

    /// Explicit application → cluster assignment, if configured.
    pub fn app_cluster(&self, asid: Asid) -> Option<usize> {
        self.app_clusters.get(&asid).copied()
    }
}

/// Builder for [`MolecularConfig`] (see [`MolecularConfig::builder`]).
#[derive(Debug, Clone)]
pub struct MolecularConfigBuilder {
    molecule_size: u64,
    tile_molecules: usize,
    tiles_per_cluster: usize,
    clusters: usize,
    policy: RegionPolicy,
    default_goal: f64,
    goals: BTreeMap<Asid, f64>,
    line_factors: BTreeMap<Asid, u32>,
    initial_allocation: InitialAllocation,
    max_allocation: Option<usize>,
    trigger: ResizeTrigger,
    row_max: usize,
    app_clusters: BTreeMap<Asid, usize>,
    seed: u64,
}

impl Default for MolecularConfigBuilder {
    fn default() -> Self {
        MolecularConfigBuilder {
            molecule_size: 8 * 1024,
            tile_molecules: 64,
            tiles_per_cluster: 4,
            clusters: 1,
            policy: RegionPolicy::Randy,
            default_goal: 0.10,
            goals: BTreeMap::new(),
            line_factors: BTreeMap::new(),
            initial_allocation: InitialAllocation::HalfTile,
            max_allocation: None,
            trigger: ResizeTrigger::GlobalAdaptive {
                initial_period: 25_000,
            },
            row_max: 8,
            app_clusters: BTreeMap::new(),
            seed: 0x4D01_EC01_u64,
        }
    }
}

impl MolecularConfigBuilder {
    /// Sets the molecule capacity in bytes (8–32 KB in the paper).
    pub fn molecule_size(&mut self, bytes: u64) -> &mut Self {
        self.molecule_size = bytes;
        self
    }

    /// Sets molecules per tile (32–256 in the paper).
    pub fn tile_molecules(&mut self, n: usize) -> &mut Self {
        self.tile_molecules = n;
        self
    }

    /// Sets tiles per cluster (4–8 in the paper).
    pub fn tiles_per_cluster(&mut self, n: usize) -> &mut Self {
        self.tiles_per_cluster = n;
        self
    }

    /// Sets the number of tile clusters.
    pub fn clusters(&mut self, n: usize) -> &mut Self {
        self.clusters = n;
        self
    }

    /// Sets the replacement policy.
    pub fn policy(&mut self, policy: RegionPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Sets the default miss-rate goal for every application.
    pub fn miss_rate_goal(&mut self, goal: f64) -> &mut Self {
        self.default_goal = goal;
        self
    }

    /// Overrides the miss-rate goal for one application.
    pub fn app_goal(&mut self, asid: Asid, goal: f64) -> &mut Self {
        self.goals.insert(asid, goal);
        self
    }

    /// Sets an application's region line-size factor (`k` 64-byte lines
    /// fetched per miss, §3.2). Fixed at region-creation time.
    pub fn app_line_factor(&mut self, asid: Asid, factor: u32) -> &mut Self {
        self.line_factors.insert(asid, factor);
        self
    }

    /// Sets the initial partition allocation scheme. [`build`](Self::build)
    /// resolves it to a molecule count, so `HalfTile` on 64-molecule tiles
    /// builds the same configuration as `Molecules(32)`.
    pub fn initial_allocation(&mut self, alloc: InitialAllocation) -> &mut Self {
        self.initial_allocation = alloc;
        self
    }

    /// Caps molecules allocated to one partition per resize.
    pub fn max_allocation(&mut self, molecules: usize) -> &mut Self {
        self.max_allocation = Some(molecules);
        self
    }

    /// Sets the resize trigger scheme.
    pub fn trigger(&mut self, trigger: ResizeTrigger) -> &mut Self {
        self.trigger = trigger;
        self
    }

    /// Sets the maximum replacement-view rows (configured way size).
    pub fn row_max(&mut self, rows: usize) -> &mut Self {
        self.row_max = rows;
        self
    }

    /// Pins an application to a cluster (e.g. Table 2's three groups).
    pub fn assign_app_to_cluster(&mut self, asid: Asid, cluster: usize) -> &mut Self {
        self.app_clusters.insert(asid, cluster);
        self
    }

    /// Seeds the cache's victim-selection LFSR.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when sizes are not powers of
    /// two, counts are zero, the initial allocation exceeds a tile, a
    /// goal is outside `(0, 1)`, or an assigned cluster is out of range.
    pub fn build(&self) -> Result<MolecularConfig, CoreError> {
        fn err(field: &'static str, constraint: &'static str) -> CoreError {
            CoreError::InvalidConfig { field, constraint }
        }
        if self.molecule_size == 0 || !self.molecule_size.is_power_of_two() {
            return Err(err("molecule_size", "must be a non-zero power of two"));
        }
        if self.molecule_size < LINE_SIZE {
            return Err(err("molecule_size", "must hold at least one line"));
        }
        if self.tile_molecules == 0 {
            return Err(err("tile_molecules", "must be positive"));
        }
        if self.tiles_per_cluster == 0 {
            return Err(err("tiles_per_cluster", "must be positive"));
        }
        if self.clusters == 0 {
            return Err(err("clusters", "must be positive"));
        }
        if !(self.default_goal > 0.0 && self.default_goal < 1.0) {
            return Err(err("miss_rate_goal", "must lie in (0, 1)"));
        }
        for goal in self.goals.values() {
            if !(*goal > 0.0 && *goal < 1.0) {
                return Err(err("app_goal", "must lie in (0, 1)"));
            }
        }
        for factor in self.line_factors.values() {
            if *factor == 0 || !factor.is_power_of_two() {
                return Err(err("line_factor", "must be a non-zero power of two"));
            }
            if *factor as usize > (self.molecule_size / LINE_SIZE) as usize {
                return Err(err("line_factor", "block must fit inside a molecule"));
            }
        }
        let initial_allocation = match self.initial_allocation {
            InitialAllocation::HalfTile => (self.tile_molecules / 2).max(1),
            // The initial grant draws from the home tile first and then
            // the rest of the cluster, so anything up to one cluster's
            // worth of molecules is satisfiable.
            InitialAllocation::Molecules(n)
                if n == 0 || n > self.tile_molecules * self.tiles_per_cluster =>
            {
                return Err(err(
                    "initial_allocation",
                    "must be between 1 and the cluster's molecule count",
                ));
            }
            InitialAllocation::Molecules(n) => n,
        };
        if self.row_max == 0 {
            return Err(err("row_max", "must be positive"));
        }
        for cluster in self.app_clusters.values() {
            if *cluster >= self.clusters {
                return Err(err("app_cluster", "cluster index out of range"));
            }
        }
        let max_allocation = self
            .max_allocation
            .unwrap_or(self.tile_molecules / 4)
            .max(1);
        Ok(MolecularConfig {
            molecule_size: self.molecule_size,
            tile_molecules: self.tile_molecules,
            tiles_per_cluster: self.tiles_per_cluster,
            clusters: self.clusters,
            policy: self.policy,
            default_goal: self.default_goal,
            goals: self.goals.clone(),
            line_factors: self.line_factors.clone(),
            initial_allocation,
            max_allocation,
            trigger: self.trigger,
            row_max: self.row_max,
            app_clusters: self.app_clusters.clone(),
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let cfg = MolecularConfig::builder().clusters(4).build().unwrap();
        assert_eq!(cfg.molecule_size(), 8 * 1024);
        assert_eq!(cfg.tile_bytes(), 512 * 1024);
        assert_eq!(cfg.tiles_per_cluster(), 4);
        assert_eq!(cfg.total_bytes(), 8 << 20); // 4 clusters x 2MB
        assert_eq!(cfg.policy(), RegionPolicy::Randy);
        assert_eq!(cfg.frames_per_molecule(), 128);
    }

    #[test]
    fn goals_and_overrides() {
        let cfg = MolecularConfig::builder()
            .miss_rate_goal(0.25)
            .app_goal(Asid::new(2), 0.05)
            .build()
            .unwrap();
        assert_eq!(cfg.goal(Asid::new(1)), 0.25);
        assert_eq!(cfg.goal(Asid::new(2)), 0.05);
    }

    #[test]
    fn line_factor_defaults_to_one() {
        let cfg = MolecularConfig::builder()
            .app_line_factor(Asid::new(3), 4)
            .build()
            .unwrap();
        assert_eq!(cfg.line_factor(Asid::new(1)), 1);
        assert_eq!(cfg.line_factor(Asid::new(3)), 4);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(MolecularConfig::builder()
            .molecule_size(3000)
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .molecule_size(32)
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .tile_molecules(0)
            .build()
            .is_err());
        assert!(MolecularConfig::builder().clusters(0).build().is_err());
    }

    #[test]
    fn rejects_bad_goals_and_factors() {
        assert!(MolecularConfig::builder()
            .miss_rate_goal(0.0)
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .miss_rate_goal(1.5)
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .app_goal(Asid::new(1), -0.1)
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .app_line_factor(Asid::new(1), 3)
            .build()
            .is_err());
        // Factor larger than molecule capacity in lines.
        assert!(MolecularConfig::builder()
            .molecule_size(128)
            .app_line_factor(Asid::new(1), 4)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_initial_allocation_and_cluster() {
        assert!(MolecularConfig::builder()
            .initial_allocation(InitialAllocation::Molecules(0))
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .tile_molecules(8)
            .tiles_per_cluster(2)
            .initial_allocation(InitialAllocation::Molecules(17))
            .build()
            .is_err());
        assert!(MolecularConfig::builder()
            .tile_molecules(8)
            .tiles_per_cluster(2)
            .initial_allocation(InitialAllocation::Molecules(16))
            .build()
            .is_ok());
        assert!(MolecularConfig::builder()
            .clusters(2)
            .assign_app_to_cluster(Asid::new(1), 2)
            .build()
            .is_err());
    }

    #[test]
    fn half_tile_resolves_to_a_molecule_count() {
        for (tile, half) in [(64, 32), (32, 16)] {
            let build = |alloc| {
                MolecularConfig::builder()
                    .tile_molecules(tile)
                    .initial_allocation(alloc)
                    .build()
                    .unwrap()
            };
            assert_eq!(
                build(InitialAllocation::HalfTile),
                build(InitialAllocation::Molecules(half)),
                "{tile}-molecule tiles"
            );
            assert_ne!(
                build(InitialAllocation::HalfTile),
                build(InitialAllocation::Molecules(half / 2))
            );
        }
    }

    #[test]
    fn max_allocation_defaults_to_quarter_tile() {
        let cfg = MolecularConfig::builder()
            .tile_molecules(64)
            .build()
            .unwrap();
        assert_eq!(cfg.max_allocation(), 16);
        let cfg2 = MolecularConfig::builder()
            .max_allocation(5)
            .build()
            .unwrap();
        assert_eq!(cfg2.max_allocation(), 5);
    }

    #[test]
    fn policy_display() {
        assert_eq!(RegionPolicy::Random.to_string(), "Random");
        assert_eq!(RegionPolicy::Randy.to_string(), "Randy");
    }
}
