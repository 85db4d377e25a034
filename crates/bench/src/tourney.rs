//! `TOURNEY_*.json` — the `molcache-tourney-v1` cross-workload resize
//! policy tournament record, and the scoring that fills it.
//!
//! A tournament runs every resize policy (see
//! `molcache_core::policy::POLICY_NAMES`) against every suite workload
//! (see [`crate::workloads::tourney_workloads`]) and scores each
//! `(policy, workload)` cell on the paper's two axes:
//!
//! * **power-deviation product** (Table 5's metric) — dynamic power at
//!   the molecule array's own frequency times the average absolute
//!   deviation of per-application miss rates from their goals;
//! * **goal attainment** — the fraction of applications whose lifetime
//!   miss rate meets its goal, the per-app QoS view the
//!   `per-app-goal` / `memshare-pressure` variants optimize for.
//!
//! Scoring is pure simulation (no wall-clock), so records are
//! bit-reproducible across hosts from `(policies, workloads, refs,
//! seed)` — unlike `BENCH_*.json`, two tournament records from the same
//! arguments are comparable byte-for-byte.

use crate::workloads::BuiltWorkload;
use molcache_core::MolecularCache;
use molcache_metrics::deviation::{average_deviation, MissRateGoal};
use molcache_metrics::json::{parse, JsonError, Value};
use molcache_metrics::power_deviation::power_deviation_product;
use molcache_power::accounting::EnergyMeter;
use molcache_power::calibrate::molecule_report;
use molcache_power::tech::TechNode;
use molcache_sim::CacheModel;
use molcache_trace::annotate::footprint_hints;
use molcache_trace::MemAccess;

/// Schema tag every tournament record carries.
pub const TOURNEY_SCHEMA: &str = "molcache-tourney-v1";

/// One scored `(policy, workload)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TourneyEntry {
    /// Resize policy name (`paper-algorithm1`, ...).
    pub policy: String,
    /// Workload name (`single:ammp`, `mixed12`, ...).
    pub workload: String,
    /// Accesses driven.
    pub accesses: u64,
    /// Cache-wide lifetime miss rate.
    pub global_miss_rate: f64,
    /// Cache-wide average latency in simulated cycles.
    pub avg_latency_cycles: f64,
    /// Dynamic power in watts at the molecule array's frequency.
    pub power_w: f64,
    /// Average absolute deviation of per-app miss rates from goals.
    pub avg_deviation: f64,
    /// Power-deviation product (the paper's Table 5 metric).
    pub pdp: f64,
    /// Fraction of applications whose lifetime miss rate met its goal.
    pub goal_attainment: f64,
    /// Resize rounds the policy executed.
    pub resize_rounds: u64,
    /// Growth requests the free pool could not (fully) satisfy.
    pub failed_allocations: u64,
}

impl TourneyEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("policy".into(), Value::String(self.policy.clone())),
            ("workload".into(), Value::String(self.workload.clone())),
            ("accesses".into(), Value::Number(self.accesses as f64)),
            (
                "global_miss_rate".into(),
                Value::Number(self.global_miss_rate),
            ),
            (
                "avg_latency_cycles".into(),
                Value::Number(self.avg_latency_cycles),
            ),
            ("power_w".into(), Value::Number(self.power_w)),
            ("avg_deviation".into(), Value::Number(self.avg_deviation)),
            ("pdp".into(), Value::Number(self.pdp)),
            (
                "goal_attainment".into(),
                Value::Number(self.goal_attainment),
            ),
            (
                "resize_rounds".into(),
                Value::Number(self.resize_rounds as f64),
            ),
            (
                "failed_allocations".into(),
                Value::Number(self.failed_allocations as f64),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<TourneyEntry> {
        Some(TourneyEntry {
            policy: v.get("policy")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            accesses: v.get("accesses")?.as_f64()? as u64,
            global_miss_rate: v.get("global_miss_rate")?.as_f64()?,
            avg_latency_cycles: v.get("avg_latency_cycles")?.as_f64()?,
            power_w: v.get("power_w")?.as_f64()?,
            avg_deviation: v.get("avg_deviation")?.as_f64()?,
            pdp: v.get("pdp")?.as_f64()?,
            goal_attainment: v.get("goal_attainment")?.as_f64()?,
            resize_rounds: v.get("resize_rounds")?.as_f64()? as u64,
            failed_allocations: v.get("failed_allocations")?.as_f64()? as u64,
        })
    }
}

/// One dated `molcache-tourney-v1` record.
#[derive(Debug, Clone, PartialEq)]
pub struct TourneyDoc {
    /// UTC date the record was taken (`YYYY-MM-DD`).
    pub date: String,
    /// Whether this was a `--smoke` (reduced-scale) run.
    pub smoke: bool,
    /// Accesses per `(policy, workload)` cell.
    pub refs: u64,
    /// Seed the streams and caches were built from.
    pub seed: u64,
    /// One entry per `(policy, workload)` cell, policies outermost.
    pub entries: Vec<TourneyEntry>,
}

impl TourneyDoc {
    /// The file name a record is stored under (`TOURNEY_<date>.json`).
    pub fn file_name(&self) -> String {
        format!("TOURNEY_{}.json", self.date)
    }

    /// Distinct policy names, in first-seen order.
    pub fn policies(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for e in &self.entries {
            if !seen.contains(&e.policy.as_str()) {
                seen.push(e.policy.as_str());
            }
        }
        seen
    }

    /// Distinct workload names, in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for e in &self.entries {
            if !seen.contains(&e.workload.as_str()) {
                seen.push(e.workload.as_str());
            }
        }
        seen
    }

    /// The cell for `(policy, workload)`, if scored.
    pub fn entry(&self, policy: &str, workload: &str) -> Option<&TourneyEntry> {
        self.entries
            .iter()
            .find(|e| e.policy == policy && e.workload == workload)
    }

    /// The record as a JSON value tree.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::String(TOURNEY_SCHEMA.into())),
            ("date".into(), Value::String(self.date.clone())),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("refs".into(), Value::Number(self.refs as f64)),
            ("seed".into(), Value::Number(self.seed as f64)),
            (
                "entries".into(),
                Value::Array(self.entries.iter().map(TourneyEntry::to_value).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON of the record.
    pub fn to_json(&self) -> Result<String, JsonError> {
        self.to_value().to_json()
    }

    /// Parses a record, rejecting unknown schemas and malformed shapes.
    pub fn from_json(text: &str) -> Result<TourneyDoc, String> {
        let v = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema field")?;
        if schema != TOURNEY_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (want {TOURNEY_SCHEMA})"
            ));
        }
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("missing entries array")?
            .iter()
            .map(TourneyEntry::from_value)
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed tournament entry")?;
        Ok(TourneyDoc {
            date: v
                .get("date")
                .and_then(Value::as_str)
                .ok_or("missing date field")?
                .to_string(),
            smoke: matches!(v.get("smoke"), Some(Value::Bool(true))),
            refs: v
                .get("refs")
                .and_then(Value::as_f64)
                .ok_or("missing refs field")? as u64,
            seed: v
                .get("seed")
                .and_then(Value::as_f64)
                .ok_or("missing seed field")? as u64,
            entries,
        })
    }

    /// Renders the per-workload league tables plus the cross-workload
    /// summary `moltourney` prints and `molstat --tourney` re-renders.
    pub fn render(&self) -> String {
        let mut out = format!(
            "policy tournament {} ({} refs/cell, seed {}{})\n",
            self.date,
            self.refs,
            self.seed,
            if self.smoke { ", smoke" } else { "" }
        );
        for workload in self.workloads() {
            let mut rows: Vec<&TourneyEntry> = self
                .entries
                .iter()
                .filter(|e| e.workload == workload)
                .collect();
            rows.sort_by(|a, b| a.pdp.total_cmp(&b.pdp));
            out.push_str(&format!(
                "\n{workload}\n  {:<20} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7}\n",
                "policy", "miss%", "power(W)", "avg dev", "pdp", "goal%", "rounds", "failed"
            ));
            for e in rows {
                out.push_str(&format!(
                    "  {:<20} {:>7.2}% {:>9.4} {:>9.4} {:>8.4} {:>6.0}% {:>7} {:>7}\n",
                    e.policy,
                    e.global_miss_rate * 100.0,
                    e.power_w,
                    e.avg_deviation,
                    e.pdp,
                    e.goal_attainment * 100.0,
                    e.resize_rounds,
                    e.failed_allocations,
                ));
            }
        }
        out.push_str("\ncross-workload summary (mean over workloads)\n");
        out.push_str(&format!(
            "  {:<20} {:>10} {:>10} {:>7}\n",
            "policy", "mean pdp", "mean dev", "goal%"
        ));
        let mut summary: Vec<(String, f64, f64, f64)> = self
            .policies()
            .iter()
            .map(|&p| {
                let cells: Vec<&TourneyEntry> =
                    self.entries.iter().filter(|e| e.policy == p).collect();
                let n = cells.len().max(1) as f64;
                (
                    p.to_string(),
                    cells.iter().map(|e| e.pdp).sum::<f64>() / n,
                    cells.iter().map(|e| e.avg_deviation).sum::<f64>() / n,
                    cells.iter().map(|e| e.goal_attainment).sum::<f64>() / n,
                )
            })
            .collect();
        summary.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (policy, pdp, dev, goal) in summary {
            out.push_str(&format!(
                "  {:<20} {:>10.4} {:>10.4} {:>6.0}%\n",
                policy,
                pdp,
                dev,
                goal * 100.0
            ));
        }
        out
    }
}

/// Scores one `(policy, workload)` cell: installs the policy on the
/// workload's fresh cache, delivers the trace's oracle working-set
/// hints (consumed by `proactive-hint`, ignored by the rest), drives
/// the full stream, and reduces the cache's end state to a
/// [`TourneyEntry`]. Pure simulation — deterministic in the inputs.
pub fn score_cell(policy: &str, mut built: BuiltWorkload) -> Option<TourneyEntry> {
    let installed = molcache_core::policy::by_name(policy, built.cache.config())?;
    built.cache.set_resize_policy(installed);

    // Oracle phase annotations: each application's true line footprint,
    // declared up front (see `molcache_trace::annotate`).
    let line = built.cache.config().line_size();
    let trace: Vec<MemAccess> = built
        .requests
        .iter()
        .map(|r| MemAccess {
            asid: r.asid,
            addr: r.addr,
            kind: r.kind,
        })
        .collect();
    for hint in footprint_hints(&trace, line) {
        built
            .cache
            .note_phase_hint(hint.asid, hint.working_set_bytes);
    }

    for req in &built.requests {
        built.cache.access(*req);
    }
    Some(reduce(policy, &built.name, &built.cache))
}

/// Reduces a driven cache to one tournament entry.
fn reduce(policy: &str, workload: &str, cache: &MolecularCache) -> TourneyEntry {
    let stats = cache.stats();
    let snaps = cache.snapshots();
    let mut goals = MissRateGoal::uniform(cache.config().default_goal());
    for s in &snaps {
        goals = goals.with_override(s.asid, s.goal);
    }
    let lifetime_mr = |s: &molcache_core::stats::RegionSnapshot| {
        if s.accesses == 0 {
            0.0
        } else {
            (s.accesses - s.hits) as f64 / s.accesses as f64
        }
    };
    let avg_deviation = average_deviation(snaps.iter().map(|s| (s.asid, lifetime_mr(s))), &goals);
    let met = snaps
        .iter()
        .filter(|s| lifetime_mr(s) <= goals.goal(s.asid))
        .count();
    let goal_attainment = if snaps.is_empty() {
        0.0
    } else {
        met as f64 / snaps.len() as f64
    };

    let node = TechNode::nm70();
    let report = molecule_report(&node);
    let meter = EnergyMeter::for_molecular(&report, &node);
    let power_w = meter.power_at_mhz(&cache.activity(), report.frequency_mhz());

    TourneyEntry {
        policy: policy.to_string(),
        workload: workload.to_string(),
        accesses: stats.global.accesses,
        global_miss_rate: stats.global.miss_rate(),
        avg_latency_cycles: stats.global.avg_latency(),
        power_w,
        avg_deviation,
        pdp: power_deviation_product(power_w, avg_deviation),
        goal_attainment,
        resize_rounds: cache.resize_rounds(),
        failed_allocations: cache.failed_allocations(),
    }
}

/// Today's UTC date as `YYYY-MM-DD` (the workspace builds without
/// chrono, so the civil-date conversion is hand-rolled).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    date_from_unix(secs)
}

/// `YYYY-MM-DD` (UTC) of a Unix timestamp in seconds.
fn date_from_unix(secs: u64) -> String {
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to (year, month, day), via Howard Hinnant's
/// `civil_from_days` algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_workload;

    #[test]
    fn dates_from_unix_seconds() {
        assert_eq!(date_from_unix(0), "1970-01-01");
        assert_eq!(date_from_unix(86_399), "1970-01-01");
        assert_eq!(date_from_unix(86_400), "1970-01-02");
        assert_eq!(date_from_unix(1_704_067_200), "2024-01-01");
        // Leap day: 2024-02-29 00:00:00 UTC.
        assert_eq!(date_from_unix(1_709_164_800), "2024-02-29");
    }

    fn entry(policy: &str, workload: &str) -> TourneyEntry {
        TourneyEntry {
            policy: policy.into(),
            workload: workload.into(),
            accesses: 1000,
            global_miss_rate: 0.25,
            avg_latency_cycles: 30.5,
            power_w: 0.75,
            avg_deviation: 0.15,
            pdp: 0.1125,
            goal_attainment: 0.5,
            resize_rounds: 3,
            failed_allocations: 1,
        }
    }

    #[test]
    fn doc_round_trips_through_json() {
        let doc = TourneyDoc {
            date: "2026-08-08".into(),
            smoke: true,
            refs: 1000,
            seed: 7,
            entries: vec![
                entry("paper-algorithm1", "mixed12"),
                entry("memshare-pressure", "mixed12"),
                entry("paper-algorithm1", "serve_mt"),
            ],
        };
        let text = doc.to_json().unwrap();
        let back = TourneyDoc::from_json(&text).unwrap();
        assert_eq!(doc, back);
        assert_eq!(back.file_name(), "TOURNEY_2026-08-08.json");
        assert_eq!(back.policies(), ["paper-algorithm1", "memshare-pressure"]);
        assert_eq!(back.workloads(), ["mixed12", "serve_mt"]);
        assert!(back.entry("memshare-pressure", "mixed12").is_some());
        assert!(back.entry("memshare-pressure", "serve_mt").is_none());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = r#"{"schema": "molcache-bench-v1", "entries": []}"#;
        assert!(TourneyDoc::from_json(text).unwrap_err().contains("schema"));
        assert!(TourneyDoc::from_json("not json").is_err());
    }

    #[test]
    fn score_cell_fills_every_metric() {
        let built = build_workload("serve_mt", 4_000, 11).unwrap();
        let e = score_cell("memshare-pressure", built).expect("known policy scores");
        assert_eq!(e.policy, "memshare-pressure");
        assert_eq!(e.workload, "serve_mt");
        assert_eq!(e.accesses, 4_000);
        assert!(e.global_miss_rate > 0.0 && e.global_miss_rate <= 1.0);
        assert!(e.avg_latency_cycles > 0.0);
        assert!(e.power_w > 0.0);
        assert!(e.pdp >= 0.0);
        assert!((0.0..=1.0).contains(&e.goal_attainment));
        assert!(score_cell("bogus", build_workload("serve_mt", 100, 1).unwrap()).is_none());
    }

    #[test]
    fn default_policy_cell_matches_an_untouched_cache() {
        // Scoring through the registry's default policy must be
        // bit-identical to driving the workload's cache as built — the
        // refactor's equivalence contract, checked at the bench layer.
        let scored = score_cell(
            "paper-algorithm1",
            build_workload("mixed12", 6_000, 5).unwrap(),
        )
        .expect("default policy scores");
        let mut raw = build_workload("mixed12", 6_000, 5).unwrap();
        for req in &raw.requests {
            raw.cache.access(*req);
        }
        let reference = reduce("paper-algorithm1", "mixed12", &raw.cache);
        assert_eq!(scored, reference);
    }

    #[test]
    fn render_lists_every_policy_and_workload() {
        let doc = TourneyDoc {
            date: "2026-08-08".into(),
            smoke: false,
            refs: 1000,
            seed: 7,
            entries: vec![
                entry("paper-algorithm1", "mixed12"),
                entry("global-goal", "mixed12"),
            ],
        };
        let text = doc.render();
        assert!(text.contains("mixed12"));
        assert!(text.contains("paper-algorithm1"));
        assert!(text.contains("global-goal"));
        assert!(text.contains("cross-workload summary"));
    }
}
