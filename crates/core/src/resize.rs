//! Resize *mechanism*: region allocation and the resize driver (§3.4).
//!
//! The decision half — triggers, Algorithm 1, and the alternative
//! policies — lives in [`crate::policy`]; this module is the plumbing
//! that applies whatever the installed
//! [`ResizePolicy`](crate::policy::ResizePolicy) decides:
//! granting molecules from the free pools, withdrawing them through the
//! one shared shrink path, and closing observation windows. Every
//! membership change made here bumps the memo/search-list structural
//! generation via `note_structural_change`, no matter which policy asked
//! for it.
//!
//! The decision-layer names are re-exported so long-standing paths like
//! `molcache_core::resize::algorithm1` keep working.

pub use crate::policy::{
    adapt_period, algorithm1, AdaptScope, Decision, ResizeController, ResizeEvent, ResizeTrigger,
    GROWTH_IMPROVEMENT_EPS, PERIOD_HYSTERESIS, PHASE_CHANGE_EPS, SHRINK_MARGIN,
};

use crate::cache::MolecularCache;
use crate::config::InitialAllocation;
use crate::ids::ClusterId;
use crate::policy::{DecisionInputs, PartitionWindow};
use crate::region::Region;
use molcache_telemetry::ResizeKind;
use molcache_trace::Asid;

impl MolecularCache {
    /// Creates `asid`'s region on first contact ("Ground Zero", §3.4):
    /// round-robin cluster and home-tile assignment, then the initial
    /// molecule grant. Idempotent for existing regions.
    pub(crate) fn ensure_region(&mut self, asid: Asid) {
        if self.regions.contains_key(&asid) {
            return;
        }
        let cluster_idx = self.cfg.app_cluster(asid).unwrap_or_else(|| {
            let c = self.next_cluster_rr % self.cfg.clusters();
            self.next_cluster_rr += 1;
            c
        });
        let tile_pos = self.next_tile_rr[cluster_idx] % self.cfg.tiles_per_cluster();
        self.next_tile_rr[cluster_idx] += 1;
        let home = self.clusters[cluster_idx].tiles()[tile_pos];

        let mut region = Region::new(
            asid,
            home,
            ClusterId(cluster_idx as u32),
            self.cfg.policy(),
            self.cfg.line_factor(asid),
            self.cfg.goal(asid),
            self.cfg.row_max(),
        );
        let want = match self.cfg.initial_allocation {
            InitialAllocation::HalfTile => self.cfg.tile_molecules() / 2,
            InitialAllocation::Molecules(n) => n,
        }
        .max(1);
        let granted = self.grant_molecules(&mut region, want);
        region.note_allocation(granted.max(1));
        self.resize_policy.register_app(asid);
        self.regions.insert(asid, region);
    }

    /// Takes up to `want` free molecules (home tile first, then the other
    /// tiles of the region's cluster), configures them into the region.
    pub(crate) fn grant_molecules(&mut self, region: &mut Region, want: usize) -> usize {
        let mut granted = 0;
        let home = region.home_tile();
        let cluster_tiles: Vec<crate::ids::TileId> =
            self.clusters[region.cluster().index()].tiles().to_vec();
        let order = std::iter::once(home).chain(cluster_tiles.into_iter().filter(|t| *t != home));
        for tid in order {
            while granted < want {
                let Some(id) = self.tiles[tid.index()].take_free() else {
                    break;
                };
                let flushed = self.configure_molecule(id, region.asid());
                self.activity.writebacks += flushed;
                region.add_molecule(id);
                granted += 1;
            }
            if granted >= want {
                break;
            }
        }
        if granted < want {
            self.failed_allocations += 1;
        }
        // Any change to the region's membership (and even a failed grant
        // round) is a structural event: drop every memoized location.
        self.note_structural_change();
        granted
    }

    pub(crate) fn resize_partition(&mut self, asid: Asid) -> (u64, u64) {
        let Some(region) = self.regions.get(&asid) else {
            return (0, 0);
        };
        let window = (region.window_accesses(), {
            let r = self.regions.get(&asid).expect("checked");
            (r.window_miss_rate() * r.window_accesses() as f64).round() as u64
        });
        if region.window_accesses() == 0 {
            // Idle partition: nothing to learn this window.
            return window;
        }
        let inputs = DecisionInputs {
            asid,
            window_accesses: region.window_accesses(),
            window_miss_rate: region.window_miss_rate(),
            last_miss_rate: region.last_miss_rate(),
            goal: region.goal(),
            current: region.size(),
            last_allocation: region.last_allocation(),
            max_allocation: self.cfg.max_allocation(),
            free_molecules: self.free_molecules(),
        };
        let decision = self.resize_policy.decide(&inputs);
        let (mr, goal, current) = (inputs.window_miss_rate, inputs.goal, inputs.current);
        match decision {
            Decision::Grow(n) => {
                let mut region = self.regions.remove(&asid).expect("present");
                let granted = self.grant_molecules(&mut region, n);
                region.note_allocation(granted);
                self.regions.insert(asid, region);
                self.publish_resize(
                    asid,
                    ResizeKind::Grow,
                    n,
                    granted,
                    current,
                    mr,
                    goal,
                    &inputs,
                );
            }
            Decision::Shrink(n) => {
                // The one shrink path, shared with the lifecycle API so
                // goal-driven and tenant-driven withdrawal bump the
                // structure generation identically (see `crate::lifecycle`).
                let removed = self.shrink_region(asid, n);
                self.publish_resize(
                    asid,
                    ResizeKind::Shrink,
                    n,
                    removed,
                    current,
                    mr,
                    goal,
                    &inputs,
                );
            }
            Decision::Hold => {}
        }
        // Close the window: store the observed miss rate, clear counters.
        let region = &self.regions[&asid];
        let molecules = &mut self.molecules;
        for id in region.molecules() {
            molecules[id.index()].reset_window_counters();
        }
        self.regions.get_mut(&asid).expect("present").close_window();
        window
    }

    pub(crate) fn resize_all(&mut self) {
        self.resize_rounds += 1;
        self.resize_partitions_touched += self.regions.len() as u64;
        let asids: Vec<Asid> = self.regions.keys().copied().collect();
        // Hand arbitrating policies every partition's closing window
        // before any per-partition decision of this round (a no-op for
        // the default policy).
        let windows: Vec<PartitionWindow> = asids
            .iter()
            .map(|asid| {
                let r = &self.regions[asid];
                PartitionWindow {
                    asid: *asid,
                    window_accesses: r.window_accesses(),
                    window_miss_rate: r.window_miss_rate(),
                    last_miss_rate: r.last_miss_rate(),
                    goal: r.goal(),
                    size: r.size(),
                }
            })
            .collect();
        self.resize_policy.begin_round(&windows);
        let mut total_accesses = 0u64;
        let mut total_misses = 0u64;
        let mut weighted_goal = 0.0;
        for asid in &asids {
            let goal = self.regions[asid].goal();
            let (acc, miss) = self.resize_partition(*asid);
            total_accesses += acc;
            total_misses += miss;
            weighted_goal += goal * acc as f64;
        }
        if total_accesses > 0 {
            let overall_mr = total_misses as f64 / total_accesses as f64;
            let goal = weighted_goal / total_accesses as f64;
            self.resize_policy
                .adapt(AdaptScope::Global, overall_mr, goal);
        }
    }

    pub(crate) fn resize_one(&mut self, asid: Asid) {
        self.resize_rounds += 1;
        self.resize_partitions_touched += 1;
        let Some(region) = self.regions.get(&asid) else {
            return;
        };
        let goal = region.goal();
        let mr = region.window_miss_rate();
        let had_window = region.window_accesses() > 0;
        self.resize_partition(asid);
        if had_window {
            self.resize_policy.adapt(AdaptScope::App(asid), mr, goal);
        }
    }
}
