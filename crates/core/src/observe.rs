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
        // Index hits are a diagnostic side-channel: carried on the
        // sample but excluded from the canonical JSON export.
        let activity = EpochActivity {
            epoch,
            activity: self.activity.since(&self.epoch_activity_base),
            free_molecules: self.free_molecules(),
            memo_hits: self.memo.hits() - self.epoch_memo_base,
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

    /// Publishes one applied resize decision — `requested` molecules
    /// asked for, `applied` granted or withdrawn — tagged with the policy
    /// that fired it and the decision-input snapshot it saw.
    pub(crate) fn publish_resize(
        &self,
        kind: ResizeKind,
        requested: usize,
        applied: usize,
        inputs: &DecisionInputs,
    ) {
        if !self.sink.is_enabled() {
            return;
        }
        let record = ResizeRecord {
            at_access: self.activity.accesses,
            trigger: self.resize_policy.trigger_label().to_string(),
            asid: inputs.asid,
            kind,
            requested,
            applied,
            after: self.regions[&inputs.asid].size(),
            policy: self.resize_policy.name().to_string(),
            inputs: ResizeDecisionInputs {
                window_miss_rate: inputs.window_miss_rate,
                goal: inputs.goal,
                current: inputs.current,
            },
        };
        self.sink.emit(Event::Resize(&record));
    }
}
