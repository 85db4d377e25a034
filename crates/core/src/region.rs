//! Cache regions (partitions) and their replacement view (§3.3, Fig. 4).

use crate::config::RegionPolicy;
use crate::ids::{MoleculeId, TileId};
use molcache_trace::{Address, Asid};

/// An application-exclusive cache partition.
///
/// The *access view* of a region is simply "all molecules configured with
/// my ASID" — lookup scans them hierarchically. The *replacement view* is
/// the 2-D sparse matrix of Figure 4: rows with possibly different
/// molecule counts (non-uniform associativity per row). Random keeps all
/// molecules in a single row; Randy distributes them over up to
/// `row_max` rows and maps each address to a fixed row.
///
/// ```
/// use molcache_core::region::Region;
/// use molcache_core::config::RegionPolicy;
/// use molcache_core::ids::{MoleculeId, TileId};
/// use molcache_trace::{Address, Asid};
///
/// let mut r = Region::new(Asid::new(1), TileId(0), RegionPolicy::Randy, 1, 0.10, 4);
/// for i in 0..4 {
///     r.add_molecule(MoleculeId(i));
/// }
/// assert_eq!(r.num_rows(), 4);
/// // Randy: the address picks the row deterministically.
/// let victim = r.select_victim(Address::new(2 * 8192), 8192, 99, &[]);
/// assert_eq!(victim, Some(MoleculeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Region {
    asid: Asid,
    home_tile: TileId,
    policy: RegionPolicy,
    line_factor: u32,
    goal: f64,
    row_max: usize,
    /// Replacement view: rows of molecules (read and updated by the
    /// [`VictimPolicy`](crate::pipeline::VictimPolicy) implementations).
    pub(crate) rows: Vec<Vec<MoleculeId>>,
    /// Molecules in `rows`, kept by every method that adds or removes
    /// one, so that [`size`](Self::size) (read on every access) does not
    /// sum the rows.
    molecules: usize,
    /// Replacement-miss counter per row (Randy's add/remove guidance).
    pub(crate) row_misses: Vec<u64>,
    // --- resize bookkeeping (§3.4 / Algorithm 1) ---
    window_accesses: u64,
    window_misses: u64,
    last_miss_rate: f64,
    last_allocation: usize,
    /// Time-weighted allocation integral for HPM statistics.
    allocation_integral: u64,
    lifetime_accesses: u64,
    lifetime_hits: u64,
    // --- cached lookup state (see `crate::search_list`) ---
    /// Remote tiles holding member molecules, sorted ascending. Cleared,
    /// never dropped, on a rebuild, so steady state does not allocate.
    pub(crate) search_tiles: Vec<TileId>,
    /// `probes_through[s]`: the molecules the ASID gate passes on lookup
    /// slots `0..=s` (slot 0 is the home tile, slot `1 + i` the `i`-th
    /// search tile) — the tag probes a lookup that stops at slot `s`
    /// charges.
    pub(crate) probes_through: Vec<u32>,
    /// Structural generation the lookup state was built under
    /// (0 = stale).
    pub(crate) search_generation: u64,
}

impl Region {
    /// Creates an empty region.
    pub fn new(
        asid: Asid,
        home_tile: TileId,
        policy: RegionPolicy,
        line_factor: u32,
        goal: f64,
        row_max: usize,
    ) -> Self {
        assert!(row_max > 0, "row_max must be positive");
        Region {
            asid,
            home_tile,
            policy,
            line_factor,
            goal,
            row_max,
            rows: Vec::new(),
            molecules: 0,
            row_misses: Vec::new(),
            window_accesses: 0,
            window_misses: 0,
            last_miss_rate: 1.0,
            last_allocation: 0,
            allocation_integral: 0,
            lifetime_accesses: 0,
            lifetime_hits: 0,
            search_tiles: Vec::new(),
            probes_through: Vec::new(),
            search_generation: 0,
        }
    }

    /// The owning application.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The tile the owning processor is wired to.
    pub fn home_tile(&self) -> TileId {
        self.home_tile
    }

    /// The region's replacement policy.
    pub fn policy(&self) -> RegionPolicy {
        self.policy
    }

    /// Line-size factor `k` (each miss fetches `k` base lines).
    pub fn line_factor(&self) -> u32 {
        self.line_factor
    }

    /// The region's miss-rate goal.
    pub fn goal(&self) -> f64 {
        self.goal
    }

    /// Changes the miss-rate goal at runtime (per-tenant SLA update).
    pub(crate) fn set_goal(&mut self, goal: f64) {
        self.goal = goal;
    }

    /// Molecules currently in the region.
    pub fn size(&self) -> usize {
        self.molecules
    }

    /// Returns `true` when the region holds no molecules.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All member molecules, row by row.
    pub fn molecules(&self) -> impl Iterator<Item = MoleculeId> + '_ {
        self.rows.iter().flatten().copied()
    }

    /// Current number of replacement rows (the configured way size found
    /// "along the first column").
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The molecules of one row (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `row >= num_rows()`.
    pub fn row(&self, row: usize) -> &[MoleculeId] {
        &self.rows[row]
    }

    /// Adds a molecule to the replacement view.
    ///
    /// Randy: while the view has fewer than `row_max` rows a new
    /// single-molecule row is created (building up the way size); after
    /// that the molecule increases the associativity of the row with the
    /// highest miss count (§3.4 "Where to add?"). Random: everything goes
    /// into one row.
    pub fn add_molecule(&mut self, id: MoleculeId) {
        self.molecules += 1;
        match self.policy {
            RegionPolicy::Random => {
                if self.rows.is_empty() {
                    self.rows.push(Vec::new());
                    self.row_misses.push(0);
                }
                self.rows[0].push(id);
            }
            RegionPolicy::Randy | RegionPolicy::LruDirect => {
                if self.rows.len() < self.row_max {
                    self.rows.push(vec![id]);
                    self.row_misses.push(0);
                } else {
                    // §3.4 "Where to add?": rows handling more misses get
                    // more associativity. We rank rows by miss *pressure*
                    // (misses per molecule already present) so that a
                    // multi-molecule grant spreads across rows instead of
                    // piling onto whichever row was hottest at the start
                    // of the grant; ties (e.g. the initial allocation)
                    // fall to the thinnest row, keeping way sizes
                    // balanced until the workload differentiates them.
                    let hottest = (0..self.rows.len())
                        .max_by(|&i, &j| {
                            let di = self.row_misses[i] as f64 / (self.rows[i].len() + 1) as f64;
                            let dj = self.row_misses[j] as f64 / (self.rows[j].len() + 1) as f64;
                            di.partial_cmp(&dj)
                                .expect("densities are finite")
                                .then_with(|| self.rows[j].len().cmp(&self.rows[i].len()))
                        })
                        .unwrap_or(0);
                    self.rows[hottest].push(id);
                }
            }
        }
    }

    /// Picks and removes the coldest molecule (§3.4 "Where to add?" —
    /// withdrawal side), preferring not to empty a row unless it is the
    /// only way to shrink. `molecule_misses` supplies the per-molecule
    /// counters used under Random replacement.
    ///
    /// Returns `None` when the region has no molecules.
    pub fn remove_coldest<F>(&mut self, molecule_misses: F) -> Option<MoleculeId>
    where
        F: Fn(MoleculeId) -> u64,
    {
        if self.rows.is_empty() {
            return None;
        }
        let (row_idx, mol_idx) = match self.policy {
            RegionPolicy::Random => {
                // Per-molecule counters: coldest molecule of the single row.
                let row = 0;
                let idx = self.rows[row]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &m)| molecule_misses(m))
                    .map(|(i, _)| i)?;
                (row, idx)
            }
            RegionPolicy::Randy | RegionPolicy::LruDirect => {
                // Per-row counters: coldest row, preferring rows that keep
                // at least one molecule after removal.
                let candidate = self
                    .row_misses
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| self.rows[*i].len() > 1)
                    .min_by_key(|(_, &m)| m)
                    .map(|(i, _)| i)
                    .or_else(|| {
                        self.row_misses
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| !self.rows[*i].is_empty())
                            .min_by_key(|(_, &m)| m)
                            .map(|(i, _)| i)
                    })?;
                let idx = self.rows[candidate]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &m)| molecule_misses(m))
                    .map(|(i, _)| i)?;
                (candidate, idx)
            }
        };
        let id = self.rows[row_idx].swap_remove(mol_idx);
        self.molecules -= 1;
        if self.rows[row_idx].is_empty() {
            self.rows.remove(row_idx);
            self.row_misses.remove(row_idx);
        }
        Some(id)
    }

    /// Selects the victim molecule for a replacement (§3.3).
    ///
    /// `draw` is one raw random value from the cache's hardware
    /// generator (see [`Lfsr16`](crate::Lfsr16)): Random reduces it modulo
    /// the whole region, Randy modulo the addressed row — which is why
    /// Randy "reduces the reliance on random numbers" (the paper, §3.3).
    /// `last_hit` is LRU-Direct's recency: per molecule index, the clock
    /// of the molecule's last hit (0 if none). The cache keeps it for
    /// every molecule; the other policies ignore it, so they may pass
    /// `&[]`.
    ///
    /// Returns `None` when the region has no molecules.
    pub fn select_victim(
        &mut self,
        addr: Address,
        molecule_size: u64,
        draw: u64,
        last_hit: &[u64],
    ) -> Option<MoleculeId> {
        crate::pipeline::victim::policy_of(self.policy).select(
            self,
            addr,
            molecule_size,
            draw,
            last_hit,
        )
    }

    /// Re-homes the region onto another tile (the paper's non-static
    /// processor-tile mapping: "the processor-tile assignment can be made
    /// non-static by allowing the processor-tile mapping to be changed
    /// during a context-switch"). Molecule membership is untouched —
    /// future lookups simply start their hierarchical search at the new
    /// tile, and previously-home molecules are now reached through Ulmo.
    pub fn set_home_tile(&mut self, tile: TileId) {
        self.home_tile = tile;
    }

    /// Removes every molecule from the replacement view, returning them
    /// (region teardown).
    pub fn drain_molecules(&mut self) -> Vec<MoleculeId> {
        self.row_misses.clear();
        self.molecules = 0;
        self.rows.drain(..).flatten().collect()
    }

    /// Records one access (and whether it missed) for the resize window
    /// and the lifetime HPM statistics.
    pub fn record_access(&mut self, miss: bool) {
        self.window_accesses += 1;
        self.lifetime_accesses += 1;
        self.allocation_integral += self.size() as u64;
        if miss {
            self.window_misses += 1;
        } else {
            self.lifetime_hits += 1;
        }
    }

    /// Miss rate of the current resize window (1.0 before any access).
    pub fn window_miss_rate(&self) -> f64 {
        if self.window_accesses == 0 {
            1.0
        } else {
            self.window_misses as f64 / self.window_accesses as f64
        }
    }

    /// Accesses in the current window.
    pub fn window_accesses(&self) -> u64 {
        self.window_accesses
    }

    /// Miss rate recorded at the previous resize.
    pub fn last_miss_rate(&self) -> f64 {
        self.last_miss_rate
    }

    /// Molecules granted in the previous growth step.
    pub fn last_allocation(&self) -> usize {
        self.last_allocation
    }

    /// Records a growth step of `n` molecules.
    pub fn note_allocation(&mut self, n: usize) {
        if n > 0 {
            self.last_allocation = n;
        }
    }

    /// Closes the resize window: stores its miss rate and clears the
    /// window counters (including per-row miss counters).
    pub fn close_window(&mut self) {
        self.last_miss_rate = self.window_miss_rate();
        self.window_accesses = 0;
        self.window_misses = 0;
        for m in &mut self.row_misses {
            *m = 0;
        }
    }

    /// Lifetime hits of the region.
    pub fn lifetime_hits(&self) -> u64 {
        self.lifetime_hits
    }

    /// Lifetime accesses of the region.
    pub fn lifetime_accesses(&self) -> u64 {
        self.lifetime_accesses
    }

    /// Time-averaged molecule allocation over the region's lifetime.
    pub fn average_allocation(&self) -> f64 {
        if self.lifetime_accesses == 0 {
            self.size() as f64
        } else {
            self.allocation_integral as f64 / self.lifetime_accesses as f64
        }
    }

    /// Hits per molecule: lifetime hit rate divided by the time-averaged
    /// molecule usage (Figure 6's metric).
    pub fn hits_per_molecule(&self) -> f64 {
        let avg = self.average_allocation();
        if avg == 0.0 || self.lifetime_accesses == 0 {
            0.0
        } else {
            (self.lifetime_hits as f64 / self.lifetime_accesses as f64) / avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molcache_trace::rng::Rng;

    fn region(policy: RegionPolicy) -> Region {
        Region::new(Asid::new(1), TileId(0), policy, 1, 0.1, 4)
    }

    /// The molecule count summed over the replacement rows, which the
    /// kept count must equal.
    fn row_sum(r: &Region) -> usize {
        (0..r.num_rows()).map(|i| r.row(i).len()).sum()
    }

    #[test]
    fn random_policy_single_row() {
        let mut r = region(RegionPolicy::Random);
        for i in 0..6 {
            r.add_molecule(MoleculeId(i));
        }
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.size(), 6);
        assert_eq!(r.size(), row_sum(&r));
        assert_eq!(r.drain_molecules().len(), 6);
        assert_eq!((r.size(), row_sum(&r)), (0, 0));
    }

    #[test]
    fn randy_builds_rows_then_widens_hottest() {
        let mut r = region(RegionPolicy::Randy);
        for i in 0..4 {
            r.add_molecule(MoleculeId(i));
        }
        assert_eq!(r.num_rows(), 4, "first molecules become rows");
        // Heat up row 2 via victim selections mapping there.
        let addr = Address::new(2 * 8192); // (addr/8192) % 4 == 2
        r.select_victim(addr, 8192, 5, &[]);
        r.select_victim(addr, 8192, 9, &[]);
        r.add_molecule(MoleculeId(99));
        assert_eq!(r.row(2).len(), 2, "hottest row gains associativity");
    }

    #[test]
    fn randy_victim_row_mapping() {
        let mut r = region(RegionPolicy::Randy);
        for i in 0..4 {
            r.add_molecule(MoleculeId(i));
        }
        // Row 3: molecules were added one per row in order, so row 3
        // holds MoleculeId(3).
        let addr = Address::new(3 * 8192);
        assert_eq!(r.select_victim(addr, 8192, 7, &[]), Some(MoleculeId(3)));
    }

    #[test]
    fn random_victim_uniformish() {
        let mut r = region(RegionPolicy::Random);
        for i in 0..4 {
            r.add_molecule(MoleculeId(i));
        }
        let mut rng = Rng::seeded(3);
        let mut seen = [false; 4];
        for i in 0..200u64 {
            let v = r
                .select_victim(Address::new(i * 64), 8192, rng.next_u64(), &[])
                .unwrap();
            seen[v.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all molecules chosen eventually");
    }

    #[test]
    fn empty_region_has_no_victim() {
        let mut r = region(RegionPolicy::Randy);
        assert_eq!(r.select_victim(Address::new(0), 8192, 1, &[]), None);
        assert!(r.is_empty());
    }

    #[test]
    fn remove_coldest_prefers_wide_rows() {
        let mut r = region(RegionPolicy::Randy);
        for i in 0..5 {
            r.add_molecule(MoleculeId(i)); // rows 0..3, extra joins a row
        }
        assert_eq!(r.num_rows(), 4);
        let before = r.size();
        let removed = r.remove_coldest(|_| 0).unwrap();
        assert_eq!(r.size(), before - 1);
        assert_eq!(r.size(), row_sum(&r));
        let _ = removed;
        // Still 4 rows: removal came from the 2-molecule row.
        assert_eq!(r.num_rows(), 4);
    }

    #[test]
    fn remove_coldest_collapses_single_rows_last() {
        let mut r = region(RegionPolicy::Randy);
        r.add_molecule(MoleculeId(0));
        r.add_molecule(MoleculeId(1));
        assert_eq!(r.num_rows(), 2);
        r.remove_coldest(|_| 0).unwrap();
        assert_eq!(r.num_rows(), 1, "row removed when it was singleton");
        assert_eq!(r.size(), row_sum(&r));
        r.remove_coldest(|_| 0).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.size(), 0);
        assert!(r.remove_coldest(|_| 0).is_none());
    }

    #[test]
    fn random_remove_uses_molecule_counters() {
        let mut r = region(RegionPolicy::Random);
        for i in 0..3 {
            r.add_molecule(MoleculeId(i));
        }
        // Molecule 1 is coldest.
        let removed = r
            .remove_coldest(|m| if m == MoleculeId(1) { 0 } else { 10 })
            .unwrap();
        assert_eq!(removed, MoleculeId(1));
    }

    #[test]
    fn window_bookkeeping() {
        let mut r = region(RegionPolicy::Randy);
        r.add_molecule(MoleculeId(0));
        assert_eq!(r.window_miss_rate(), 1.0, "empty window counts as 100%");
        r.record_access(true);
        r.record_access(false);
        r.record_access(false);
        assert!((r.window_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        r.close_window();
        assert_eq!(r.window_accesses(), 0);
        assert!((r.last_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hpm_accounts_for_allocation() {
        let mut small = region(RegionPolicy::Randy);
        small.add_molecule(MoleculeId(0));
        let mut big = region(RegionPolicy::Randy);
        for i in 0..4 {
            big.add_molecule(MoleculeId(i));
        }
        for _ in 0..100 {
            small.record_access(false);
            big.record_access(false);
        }
        assert!(small.hits_per_molecule() > big.hits_per_molecule());
        assert!((small.average_allocation() - 1.0).abs() < 1e-12);
        assert!((big.average_allocation() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lru_direct_victims_least_recently_hit() {
        let mut r = Region::new(
            Asid::new(1),
            TileId(0),
            RegionPolicy::LruDirect,
            1,
            0.1,
            1, // single row: all molecules compete
        );
        for i in 0..3 {
            r.add_molecule(MoleculeId(i));
        }
        let mut last_hit = [10, 5, 20];
        // Molecule 1 is least recently used.
        assert_eq!(
            r.select_victim(Address::new(0), 8192, 0, &last_hit),
            Some(MoleculeId(1))
        );
        last_hit[1] = 30;
        assert_eq!(
            r.select_victim(Address::new(0), 8192, 0, &last_hit),
            Some(MoleculeId(0))
        );
    }

    #[test]
    fn lru_direct_prefers_never_used_molecules() {
        let mut r = Region::new(Asid::new(1), TileId(0), RegionPolicy::LruDirect, 1, 0.1, 1);
        r.add_molecule(MoleculeId(0));
        r.add_molecule(MoleculeId(1));
        // Molecule 1 never hit: recency 0, chosen first.
        assert_eq!(
            r.select_victim(Address::new(0), 8192, 0, &[42, 0]),
            Some(MoleculeId(1))
        );
    }

    #[test]
    fn random_policy_ignores_recency_updates() {
        // Random and Randy pick the same victims whatever the clocks say.
        for policy in [RegionPolicy::Random, RegionPolicy::Randy] {
            let mut a = region(policy);
            let mut b = region(policy);
            for i in 0..4 {
                a.add_molecule(MoleculeId(i));
                b.add_molecule(MoleculeId(i));
            }
            for i in 0..16u64 {
                let addr = Address::new(i * 8192);
                assert_eq!(
                    a.select_victim(addr, 8192, i * 3, &[]),
                    b.select_victim(addr, 8192, i * 3, &[7, 0, 3, 9]),
                    "{policy:?} draw {i}"
                );
            }
        }
    }

    #[test]
    fn note_allocation_ignores_zero() {
        let mut r = region(RegionPolicy::Randy);
        r.note_allocation(4);
        r.note_allocation(0);
        assert_eq!(r.last_allocation(), 4);
    }
}
