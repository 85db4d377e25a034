//! Telemetry publish points.
//!
//! The cache publishes into its attached [`SinkHandle`] at three sites:
//! per-partition samples and cache-wide activity (including the
//! per-stage pipeline totals) when an access closes an epoch, and resize
//! records when Algorithm 1 applies a decision. Telemetry only *reads*
//! cache state, so results stay bit-identical whether or not a sink is
//! attached.

use crate::cache::MolecularCache;
use crate::policy::DecisionInputs;
use crate::region::Region;
use molcache_telemetry::{
    EpochActivity, EpochSample, Event, ResizeDecisionInputs, ResizeKind, ResizeRecord,
};
use molcache_trace::Asid;

impl MolecularCache {
    /// Fraction of a region's line frames holding valid lines.
    pub(crate) fn occupancy_of(&self, region: &Region) -> f64 {
        let frames = region.size() * self.cfg.frames_per_molecule();
        if frames == 0 {
            return 0.0;
        }
        let valid: usize = region.molecules().map(|id| self.tags.occupancy(id)).sum();
        valid as f64 / frames as f64
    }

    /// Publishes per-partition samples and cache-wide activity when the
    /// current access closes an epoch.
    pub(crate) fn maybe_close_epoch(&mut self) {
        if !self.sink.is_enabled() || self.activity.accesses == 0 {
            return;
        }
        if !self
            .activity
            .accesses
            .is_multiple_of(self.sink.epoch_length())
        {
            return;
        }
        let epoch = self.epoch_index;
        let delta = self.stats.since(&self.epoch_stats_base);
        let samples: Vec<EpochSample> = self
            .regions
            .iter()
            .map(|(asid, region)| {
                let app = delta.app(*asid);
                EpochSample {
                    epoch,
                    asid: *asid,
                    accesses: app.accesses,
                    misses: app.misses,
                    molecules: region.size(),
                    rows: region.num_rows(),
                    occupancy: self.occupancy_of(region),
                    goal: region.goal(),
                }
            })
            .collect();
        let base = self.epoch_activity_base;
        // Memo hits are a diagnostic side-channel: carried on the sample
        // but excluded from the canonical JSON export (which must be
        // byte-identical memo-on vs memo-off).
        let memo_hits = self.memo.hits() - self.epoch_memo_base;
        let activity = EpochActivity {
            epoch,
            accesses: self.activity.accesses - base.accesses,
            ways_probed: self.activity.ways_probed - base.ways_probed,
            line_fills: self.activity.line_fills - base.line_fills,
            writebacks: self.activity.writebacks - base.writebacks,
            asid_compares: self.activity.asid_compares - base.asid_compares,
            ulmo_searches: self.activity.ulmo_searches - base.ulmo_searches,
            free_molecules: self.free_molecules(),
            memo_hits,
            stages: self.activity.stages.since(&base.stages),
        };
        for sample in &samples {
            self.sink.emit(Event::Partition(sample));
        }
        self.sink.emit(Event::Epoch(&activity));
        self.epoch_index += 1;
        self.epoch_stats_base = self.stats.clone();
        self.epoch_activity_base = self.activity;
        self.epoch_memo_base = self.memo.hits();
    }

    /// Publishes one applied resize decision, tagged with the policy
    /// that fired it and the full decision-input snapshot it saw.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn publish_resize(
        &self,
        asid: Asid,
        kind: ResizeKind,
        requested: usize,
        applied: usize,
        before: usize,
        window_miss_rate: f64,
        goal: f64,
        inputs: &DecisionInputs,
    ) {
        if !self.sink.is_enabled() {
            return;
        }
        let record = ResizeRecord {
            at_access: self.activity.accesses,
            trigger: self.resize_policy.trigger_label().to_string(),
            asid,
            kind,
            requested,
            applied,
            before,
            after: self.regions[&asid].size(),
            window_miss_rate,
            goal,
            policy: self.resize_policy.name().to_string(),
            inputs: ResizeDecisionInputs {
                window_accesses: inputs.window_accesses,
                window_miss_rate: inputs.window_miss_rate,
                last_miss_rate: inputs.last_miss_rate,
                goal: inputs.goal,
                current: inputs.current,
                last_allocation: inputs.last_allocation,
                max_allocation: inputs.max_allocation,
                free_molecules: inputs.free_molecules,
            },
        };
        self.sink.emit(Event::Resize(&record));
    }
}
