//! The molecular cache: a thin driver over the staged access pipeline.
//!
//! The mechanics of servicing a request live in [`crate::pipeline`], one
//! module per hardware stage; this file owns the cache's physical
//! structure (tile free lists, the flat tag store), the region table,
//! and the [`service`](MolecularCache) driver that sequences the stages
//! and folds their [`StageTrace`](molcache_sim::StageTrace)s, as one
//! [`StageBreakdown`] per access, into the cache-wide [`Activity`].
//! Region allocation and Algorithm-1 resizing live in
//! [`crate::resize`]; telemetry publishing in the `observe` module.

use crate::config::{MolecularConfig, ASID_STAGE_CYCLES, HIT_LATENCY, LINE_SIZE, MISS_PENALTY};
use crate::ids::{MoleculeId, TileId};
use crate::policy::{PaperAlgorithm1, ResizeEvent, ResizePolicy};
use crate::region::Region;
use crate::region_table::RegionTable;
use crate::stats::RegionSnapshot;
use crate::tags::TagStore;
use crate::tile::{Tile, Topology};
use molcache_sim::{
    AccessOutcome, Activity, BatchOutcome, CacheModel, CacheStats, Request, StageBreakdown,
};
use molcache_telemetry::SinkHandle;
use molcache_trace::Asid;

pub use crate::pipeline::victim::Lfsr16;

/// The molecular cache (Figure 1/2 of the paper).
///
/// Create one from a [`MolecularConfig`]; drive it through the
/// [`CacheModel`] trait. Regions are created on demand: the first access
/// from a new ASID assigns the application to a cluster and home tile and
/// grants its initial molecule allocation ("Ground Zero", §3.4).
#[derive(Debug, Clone)]
pub struct MolecularCache {
    pub(crate) cfg: MolecularConfig,
    /// Which tile hosts a molecule and which cluster a tile, as index
    /// arithmetic on the configured geometry.
    pub(crate) topo: Topology,
    /// Flat tag/ASID arrays and the line index for every molecule (the
    /// hot lookup state).
    pub(crate) tags: TagStore,
    /// Per molecule, the misses that chose it as victim in the current
    /// resize window: §3.4's "where to remove?" counter, which
    /// [`Region::remove_coldest`] consults.
    pub(crate) replacement_misses: Vec<u64>,
    /// Each tile's free list.
    pub(crate) tiles: Vec<Tile>,
    pub(crate) regions: RegionTable,
    /// The installed resize decision policy (see [`crate::policy`]);
    /// defaults to [`PaperAlgorithm1`] on the configured trigger.
    pub(crate) resize_policy: Box<dyn ResizePolicy>,
    pub(crate) lfsr: Lfsr16,
    pub(crate) stats: CacheStats,
    pub(crate) activity: Activity,
    pub(crate) next_cluster_rr: usize,
    pub(crate) next_tile_rr: Vec<usize>,
    pub(crate) resize_rounds: u64,
    pub(crate) resize_partitions_touched: u64,
    pub(crate) failed_allocations: u64,
    pub(crate) sink: SinkHandle,
    pub(crate) epoch_index: u64,
    pub(crate) epoch_stats_base: CacheStats,
    pub(crate) epoch_activity_base: Activity,
    /// Structural-topology generation: bumped by
    /// [`note_structural_change`](Self::note_structural_change) on every
    /// grant/shrink/release/re-home/flush event. Regions stamp their
    /// cached Ulmo search lists and probe counts with it; a stale stamp
    /// forces a lazy rebuild. Starts at 1 so a 0 stamp always reads as
    /// stale.
    pub(crate) structure_generation: u64,
    /// The line-index front-end's counters (see
    /// [`crate::pipeline::memo`]); the index itself lives in the tag
    /// store.
    pub(crate) memo: crate::pipeline::memo::MemoFront,
    /// Index hits at the last epoch close, so epoch samples carry the
    /// per-epoch delta.
    pub(crate) epoch_memo_base: u64,
}

impl MolecularCache {
    /// Builds the cache's physical structure from a configuration.
    pub fn new(cfg: MolecularConfig) -> Self {
        let topo = Topology::new(cfg.tile_molecules(), cfg.tiles_per_cluster());
        let molecules = cfg.total_molecules();
        let tiles = (0..cfg.total_tiles() as u32)
            .map(|t| Tile::new(topo.tile_base(TileId(t)), topo.tile_molecules()))
            .collect();
        let tags = TagStore::new(molecules, cfg.frames_per_molecule(), topo);
        let resize_policy: Box<dyn ResizePolicy> = Box::new(PaperAlgorithm1::new(cfg.trigger()));
        let lfsr = Lfsr16::new(cfg.seed as u16);
        let clusters_count = cfg.clusters();
        MolecularCache {
            cfg,
            topo,
            tags,
            replacement_misses: vec![0; molecules],
            tiles,
            regions: RegionTable::new(),
            resize_policy,
            lfsr,
            stats: CacheStats::new(),
            activity: Activity::default(),
            next_cluster_rr: 0,
            next_tile_rr: vec![0; clusters_count],
            resize_rounds: 0,
            resize_partitions_touched: 0,
            failed_allocations: 0,
            sink: SinkHandle::null(),
            epoch_index: 0,
            epoch_stats_base: CacheStats::new(),
            epoch_activity_base: Activity::default(),
            structure_generation: 1,
            memo: crate::pipeline::memo::MemoFront::new(1),
            epoch_memo_base: 0,
        }
    }

    /// Configures a molecule to a new owner through the flat tag store
    /// (flushing its contents) and clears its replacement-miss counter.
    /// Returns the dirty frames flushed.
    pub(crate) fn configure_molecule(&mut self, id: MoleculeId, asid: Asid) -> u64 {
        self.replacement_misses[id.index()] = 0;
        self.tags.configure(id, asid)
    }

    /// Unassigns a molecule: flushes it (dirty frames count as
    /// writebacks) and returns it to its tile's free list.
    pub(crate) fn free_molecule(&mut self, id: MoleculeId) {
        self.activity.writebacks += self.configure_molecule(id, Asid::NONE);
        self.tiles[self.topo.tile_of(id).index()].release(id);
    }

    /// Records a structural change to the cache topology — any
    /// grant/shrink/release/re-home/flush event. One bump lazily
    /// invalidates every region's cached Ulmo search list and probe
    /// counts: all of them are stamped with this generation, and a stale
    /// stamp stops matching. Any call that writes a molecule's ASID or
    /// moves a home tile must make it. The line index needs no bump (the
    /// tag store keeps it exact).
    #[inline]
    pub(crate) fn note_structural_change(&mut self) {
        self.structure_generation += 1;
    }

    /// Attaches a telemetry sink. The cache publishes per-partition epoch
    /// samples, cache-wide epoch activity and resize events into it; with
    /// the default [`SinkHandle::null`] every publish site short-circuits
    /// on a null-check and the cache behaves bit-identically to an
    /// unobserved one.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Builder-style [`set_sink`](Self::set_sink).
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.set_sink(sink);
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &MolecularConfig {
        &self.cfg
    }

    /// Installs a resize decision policy, replacing the current one.
    /// Every existing region is registered with the incoming policy so
    /// per-application trigger timers exist from the first access after
    /// the swap. Mechanism state (allocations, windows, structural
    /// generation) is untouched — only future decisions change.
    pub fn set_resize_policy(&mut self, mut policy: Box<dyn ResizePolicy>) {
        for asid in self.regions.keys() {
            policy.register_app(*asid);
        }
        self.resize_policy = policy;
    }

    /// Stable name of the installed resize policy.
    pub fn resize_policy_name(&self) -> &'static str {
        self.resize_policy.name()
    }

    /// Delivers a declared working-set-size annotation (a trace phase
    /// marker, see `molcache_trace::annotate`) to the installed policy,
    /// converted from bytes to whole molecules. Policies that do not
    /// consume hints ignore it.
    pub fn note_phase_hint(&mut self, asid: Asid, working_set_bytes: u64) {
        let ms = self.cfg.molecule_size();
        let molecules = working_set_bytes.div_ceil(ms).max(1) as usize;
        self.resize_policy.phase_hint(asid, molecules);
    }

    /// Changes one application's miss-rate goal at runtime (per-tenant
    /// SLA adjustment; the configuration's goal map is the initial
    /// value). Returns `false` if the application has no region yet.
    pub fn set_region_goal(&mut self, asid: Asid, goal: f64) -> bool {
        if !(goal > 0.0 && goal < 1.0) {
            return false;
        }
        match self.regions.get_mut(&asid) {
            Some(region) => {
                region.set_goal(goal);
                true
            }
            None => false,
        }
    }

    /// Total free (unassigned) molecules.
    pub fn free_molecules(&self) -> usize {
        self.tiles.iter().map(Tile::free_count).sum()
    }

    /// Number of resize rounds executed so far.
    pub fn resize_rounds(&self) -> u64 {
        self.resize_rounds
    }

    /// Cycles per application the paper budgets for one `resize()`
    /// computation on a host core (§3.4, "Who does the computation?").
    pub const RESIZE_CYCLES_PER_APP: u64 = 1_500;

    /// Estimated cycles an OS-level resize daemon has spent so far
    /// (§3.4: "The resize() function takes about 1500 cycles per
    /// application", scheduled periodically on one of the processors).
    /// One round touches every partition under the constant and
    /// global-adaptive triggers and a single partition under the per-app
    /// trigger; this estimate charges the per-partition cost actually
    /// incurred.
    pub fn estimated_resize_overhead_cycles(&self) -> u64 {
        self.resize_partitions_touched * Self::RESIZE_CYCLES_PER_APP
    }

    /// Number of growth requests that could not be (fully) satisfied for
    /// lack of free molecules — the "no free molecules, no resizing"
    /// phases the paper observes below the threshold cache size.
    pub fn failed_allocations(&self) -> u64 {
        self.failed_allocations
    }

    /// Snapshot of one application's region.
    pub fn region_snapshot(&self, asid: Asid) -> Option<RegionSnapshot> {
        self.regions.get(&asid).map(|r| self.snapshot_of(r))
    }

    /// Snapshots of all regions, in ASID order.
    pub fn snapshots(&self) -> Vec<RegionSnapshot> {
        self.regions.values().map(|r| self.snapshot_of(r)).collect()
    }

    fn snapshot_of(&self, r: &Region) -> RegionSnapshot {
        RegionSnapshot {
            asid: r.asid(),
            molecules: r.size(),
            rows: r.num_rows(),
            avg_molecules: r.average_allocation(),
            accesses: r.lifetime_accesses(),
            hits: r.lifetime_hits(),
            window_miss_rate: r.window_miss_rate(),
            last_window_miss_rate: r.last_miss_rate(),
            goal: r.goal(),
            hits_per_molecule: r.hits_per_molecule(),
        }
    }

    /// Destroys an application's region (process termination): every
    /// member molecule is flushed (dirty lines counted as writebacks) and
    /// returned to its tile's free pool. Returns the number of molecules
    /// released, or `None` if the application had no region.
    pub fn release_region(&mut self, asid: Asid) -> Option<usize> {
        let mut region = self.regions.remove(&asid)?;
        self.note_structural_change();
        let ids = region.drain_molecules();
        let released = ids.len();
        for id in ids {
            self.free_molecule(id);
        }
        Some(released)
    }

    /// Re-homes an application to another tile of its cluster — the
    /// paper's context-switch-time processor-tile remapping. Lookup now
    /// starts at the new tile; existing molecules stay where they are and
    /// are reached via Ulmo until resizing migrates the region.
    ///
    /// Returns `false` (and does nothing) if the application has no
    /// region or `tile_index` is not a tile of the region's cluster.
    pub fn rehome_app(&mut self, asid: Asid, tile_index: usize) -> bool {
        let Some(region) = self.regions.get_mut(&asid) else {
            return false;
        };
        let tid = TileId(tile_index as u32);
        if tile_index >= self.tiles.len()
            || self.topo.cluster_of(tid) != self.topo.cluster_of(region.home_tile())
        {
            return false;
        }
        region.set_home_tile(tid);
        self.note_structural_change();
        true
    }
}

impl CacheModel for MolecularCache {
    fn access(&mut self, req: Request) -> AccessOutcome {
        self.ensure_region(req.asid);
        self.activity.accesses += 1;
        let outcome = self.service(req);
        match self.resize_policy.on_access(req.asid) {
            ResizeEvent::None => {}
            ResizeEvent::AllPartitions => self.resize_all(),
            ResizeEvent::Partition(asid) => self.resize_one(asid),
        }
        self.maybe_close_epoch();
        outcome
    }

    /// Batched entry point: one ASID-gate dispatch (region-presence check
    /// and on-demand creation) per run of same-ASID requests instead of
    /// one per request.
    ///
    /// Bit-identical to the per-request loop: `ensure_region` is
    /// idempotent, so hoisting it across a same-ASID run changes nothing,
    /// and the per-access resize trigger still fires between every two
    /// requests exactly as in [`access`](CacheModel::access). Region
    /// creation order therefore interleaves with resize events precisely
    /// as the serial loop would have it.
    fn access_batch(&mut self, reqs: &[Request]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut i = 0;
        while i < reqs.len() {
            let asid = reqs[i].asid;
            self.ensure_region(asid);
            while i < reqs.len() && reqs[i].asid == asid {
                self.activity.accesses += 1;
                out.note(self.service(reqs[i]));
                match self.resize_policy.on_access(asid) {
                    ResizeEvent::None => {}
                    ResizeEvent::AllPartitions => self.resize_all(),
                    ResizeEvent::Partition(a) => self.resize_one(a),
                }
                self.maybe_close_epoch();
                i += 1;
            }
        }
        out
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn activity(&self) -> Activity {
        self.activity
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.activity = Activity::default();
        // Epoch time restarts with the counters it is derived from.
        self.epoch_index = 0;
        self.epoch_stats_base = CacheStats::new();
        self.epoch_activity_base = Activity::default();
        // The front-end's lifetime counters restart too; the index
        // survives like cache contents do (a stats reset is not a flush).
        self.memo.reset_counters(self.structure_generation);
        self.epoch_memo_base = 0;
    }

    fn describe(&self) -> String {
        let total_mb = self.cfg.total_bytes() as f64 / (1024.0 * 1024.0);
        format!(
            "{}MB molecular ({}, {} clusters x {} tiles x {}KB, {}KB molecules)",
            total_mb,
            self.cfg.policy(),
            self.cfg.clusters(),
            self.cfg.tiles_per_cluster(),
            self.cfg.tile_bytes() >> 10,
            self.cfg.molecule_size() >> 10,
        )
    }
}

impl MolecularCache {
    /// Drives one request through the pipeline.
    ///
    /// Each stage writes what it did into its slot of the
    /// [`StageBreakdown`]; the driver assigns the stage cycles (ASID gate
    /// = the gate stage cycles, home lookup = the hit latency, Ulmo = its
    /// penalty when launched, fill = the miss penalty on a miss, victim =
    /// zero) so that the breakdown's cycles sum exactly to the access's
    /// reported latency on every path, and folds the breakdown into the
    /// cache-wide [`Activity`] exactly once per access.
    fn service(&mut self, req: Request) -> AccessOutcome {
        let asid = req.asid;
        let line = req.addr.line(LINE_SIZE);
        let is_write = req.kind.is_write();

        self.refresh_lookup_cache(asid);
        let mut stages = StageBreakdown::default();
        stages.asid_gate.cycles = ASID_STAGE_CYCLES;
        stages.home_lookup.cycles = HIT_LATENCY;
        // Stage 0 — one line-index probe stands in for stage 1 (ASID
        // gate), stage 2 (home-tile tag probe) and stage 3 (Ulmo's
        // cross-tile search) and charges what their ordered scan would
        // (see `pipeline::memo`).
        let hit = self.index_lookup(asid, line, is_write, &mut stages);
        let mut latency = ASID_STAGE_CYCLES + HIT_LATENCY + stages.ulmo_search.cycles;
        if let Some(hit_mol) = hit {
            return self.finish_hit(asid, hit_mol, latency, stages);
        }

        // Miss: stage 4 — victim selection, stage 5 — block fill.
        latency += MISS_PENALTY;
        stages.fill.cycles = MISS_PENALTY;
        let region = self.regions.get_mut(&asid).expect("region");
        region.record_access(true);
        let line_factor = region.line_factor();
        let (writeback, lines_fetched) = match self.victim_select(asid, req.addr) {
            Some(victim) => {
                self.replacement_misses[victim.index()] += 1;
                let writeback =
                    self.fill_block(victim, line, line_factor, is_write, &mut stages.fill);
                (writeback, line_factor)
            }
            // No region molecules: the request bypasses the cache
            // entirely (the fill stage touches no frame).
            None => (false, 0),
        };
        self.stats.record(asid, false, writeback, latency);
        self.activity.record_stages(&stages);
        AccessOutcome {
            hit: false,
            latency,
            writeback,
            lines_fetched,
        }
    }

    /// Books a hit found by the lookup stages: replacement recency, region
    /// and cache statistics, and the stage activity.
    fn finish_hit(
        &mut self,
        asid: Asid,
        hit_mol: MoleculeId,
        latency: u32,
        stages: StageBreakdown,
    ) -> AccessOutcome {
        let clock = self.activity.accesses;
        let region = self.regions.get_mut(&asid).expect("region");
        region.note_molecule_use(hit_mol, clock);
        region.record_access(false);
        self.stats.record(asid, true, false, latency);
        self.activity.record_stages(&stages);
        AccessOutcome::hit(latency)
    }
}

#[cfg(test)]
#[path = "cache_tests.rs"]
mod tests;
