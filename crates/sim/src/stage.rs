//! Per-stage accounting types for staged access pipelines.
//!
//! The molecular cache services a request through an explicit pipeline —
//! ASID gate, home-tile lookup, Ulmo cross-tile search, victim selection,
//! fill — and reports lifetime [`StageActivity`] totals on
//! [`Activity`](crate::Activity), derived from its event counters;
//! `molcache-power` prices them into per-stage energy and
//! `molcache-telemetry` publishes them as epoch series. One access's
//! totals are the [`StageActivity::since`] delta across it. A
//! [`StageBreakdown`] of five [`StageTrace`]s is what the cache's
//! ordered-scan oracle returns for one access, and
//! [`StageActivity::absorb`] folds it into totals a test compares.
//!
//! The invariant every staged implementation must keep: the stage cycles
//! of one access sum exactly to that access's reported latency, so the
//! breakdown is a decomposition of the measured number, never a second
//! estimate of it.

/// One stage of the staged access pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// §3.1 ASID-compare gate at the home tile: decides which molecules
    /// even reach tag lookup.
    AsidGate,
    /// Tag probe of the gated home-tile molecules.
    HomeLookup,
    /// Ulmo's cross-tile search of the cluster (gate + probe on each
    /// remote tile holding region molecules).
    UlmoSearch,
    /// Victim selection (§3.3 Random/Randy/LRU-Direct, plus the shared
    /// fallback of §3.1).
    Victim,
    /// Block fill from the next level: line-factor prefetch, stale-copy
    /// invalidation, writebacks.
    Fill,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::AsidGate,
        Stage::HomeLookup,
        Stage::UlmoSearch,
        Stage::Victim,
        Stage::Fill,
    ];

    /// Lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AsidGate => "asid-gate",
            Stage::HomeLookup => "home-lookup",
            Stage::UlmoSearch => "ulmo-search",
            Stage::Victim => "victim",
            Stage::Fill => "fill",
        }
    }
}

/// What one pipeline stage did while servicing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTrace {
    /// Cycles this stage contributed to the access latency.
    pub cycles: u32,
    /// ASID comparisons performed by this stage.
    pub asid_compares: u32,
    /// Tag (molecule/way) probes performed by this stage.
    pub tag_probes: u32,
    /// Line frames filled by this stage.
    pub frames_touched: u32,
}

/// The five stage traces of one serviced request.
///
/// The per-stage `cycles` sum to the access's latency; the event
/// counters sum to what the access contributed to the cache-wide
/// [`Activity`](crate::Activity) counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBreakdown {
    /// §3.1 ASID gate at the home tile.
    pub asid_gate: StageTrace,
    /// Home-tile tag probe.
    pub home_lookup: StageTrace,
    /// Ulmo cross-tile search (remote gates + probes).
    pub ulmo_search: StageTrace,
    /// Victim selection.
    pub victim: StageTrace,
    /// Block fill.
    pub fill: StageTrace,
}

/// Lifetime totals of one stage's events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTotals {
    /// Cycles the stage contributed across all accesses.
    pub cycles: u64,
    /// ASID comparisons performed by the stage.
    pub asid_compares: u64,
    /// Tag probes performed by the stage.
    pub tag_probes: u64,
    /// Line frames filled by the stage.
    pub frames_touched: u64,
}

impl StageTotals {
    fn absorb(&mut self, t: &StageTrace) {
        self.cycles += u64::from(t.cycles);
        self.asid_compares += u64::from(t.asid_compares);
        self.tag_probes += u64::from(t.tag_probes);
        self.frames_touched += u64::from(t.frames_touched);
    }

    fn merge(&mut self, o: &StageTotals) {
        self.cycles += o.cycles;
        self.asid_compares += o.asid_compares;
        self.tag_probes += o.tag_probes;
        self.frames_touched += o.frames_touched;
    }

    fn since(&self, base: &StageTotals) -> StageTotals {
        StageTotals {
            cycles: self.cycles - base.cycles,
            asid_compares: self.asid_compares - base.asid_compares,
            tag_probes: self.tag_probes - base.tag_probes,
            frames_touched: self.frames_touched - base.frames_touched,
        }
    }
}

/// Per-stage event totals accumulated over a cache's lifetime — the
/// staged decomposition of the aggregate
/// [`Activity`](crate::Activity) counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageActivity {
    /// §3.1 ASID gate at the home tile.
    pub asid_gate: StageTotals,
    /// Home-tile tag probe.
    pub home_lookup: StageTotals,
    /// Ulmo cross-tile search.
    pub ulmo_search: StageTotals,
    /// Victim selection.
    pub victim: StageTotals,
    /// Block fill.
    pub fill: StageTotals,
}

impl StageActivity {
    /// The totals of one stage.
    pub fn stage(&self, stage: Stage) -> &StageTotals {
        match stage {
            Stage::AsidGate => &self.asid_gate,
            Stage::HomeLookup => &self.home_lookup,
            Stage::UlmoSearch => &self.ulmo_search,
            Stage::Victim => &self.victim,
            Stage::Fill => &self.fill,
        }
    }

    /// Stages with their totals, in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &StageTotals)> {
        Stage::ALL.iter().map(move |&s| (s, self.stage(s)))
    }

    /// Folds one access's breakdown into the totals.
    pub fn absorb(&mut self, b: &StageBreakdown) {
        self.asid_gate.absorb(&b.asid_gate);
        self.home_lookup.absorb(&b.home_lookup);
        self.ulmo_search.absorb(&b.ulmo_search);
        self.victim.absorb(&b.victim);
        self.fill.absorb(&b.fill);
    }

    /// Merges another record's totals into this one.
    pub fn merge(&mut self, o: &StageActivity) {
        self.asid_gate.merge(&o.asid_gate);
        self.home_lookup.merge(&o.home_lookup);
        self.ulmo_search.merge(&o.ulmo_search);
        self.victim.merge(&o.victim);
        self.fill.merge(&o.fill);
    }

    /// The delta since an earlier snapshot of the same counters (epoch
    /// accounting).
    pub fn since(&self, base: &StageActivity) -> StageActivity {
        StageActivity {
            asid_gate: self.asid_gate.since(&base.asid_gate),
            home_lookup: self.home_lookup.since(&base.home_lookup),
            ulmo_search: self.ulmo_search.since(&base.ulmo_search),
            victim: self.victim.since(&base.victim),
            fill: self.fill.since(&base.fill),
        }
    }

    /// Sum of all stage cycles — for a staged cache this equals the sum
    /// of every access's latency.
    pub fn total_cycles(&self) -> u64 {
        self.iter().map(|(_, t)| t.cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> StageBreakdown {
        StageBreakdown {
            asid_gate: StageTrace {
                cycles: 1,
                asid_compares: 8,
                ..StageTrace::default()
            },
            home_lookup: StageTrace {
                cycles: 4,
                tag_probes: 3,
                ..StageTrace::default()
            },
            ulmo_search: StageTrace {
                cycles: 8,
                asid_compares: 16,
                tag_probes: 2,
                ..StageTrace::default()
            },
            victim: StageTrace::default(),
            fill: StageTrace {
                cycles: 200,
                frames_touched: 4,
                ..StageTrace::default()
            },
        }
    }

    #[test]
    fn activity_absorb_merge_since() {
        let b = breakdown();
        let mut a = StageActivity::default();
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.total_cycles(), 2 * 213);
        assert_eq!(a.asid_gate.asid_compares, 16);
        assert_eq!(a.fill.frames_touched, 8);

        let snapshot = a;
        a.absorb(&b);
        let delta = a.since(&snapshot);
        assert_eq!(delta.total_cycles(), 213);
        assert_eq!(delta.home_lookup.tag_probes, 3);

        let mut m = StageActivity::default();
        m.merge(&a);
        assert_eq!(m, a);
    }

    #[test]
    fn stage_names_and_order() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["asid-gate", "home-lookup", "ulmo-search", "victim", "fill"]
        );
    }
}
