//! The retaining sink: accumulates epoch streams, histograms and the
//! resize log, then exports them as JSON or rendered reports.

use crate::event::{EpochActivity, EpochSample, Event, ResizeRecord};
use crate::hist::LatencyHistogram;
use crate::sink::Sink;
use molcache_metrics::chart::{bar_chart, sparkline};
use molcache_metrics::json::{JsonError, Value};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_power::accounting::EnergyMeter;
use molcache_trace::Asid;
use std::collections::BTreeMap;

/// A [`Sink`] that keeps everything it is fed.
///
/// One recorder corresponds to one run (one cache, one trace window). The
/// bench `Engine` creates one per experiment point and merges the
/// exported documents in item order, so a multi-run export is identical
/// for any worker count.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    label: String,
    partitions: Vec<EpochSample>,
    epochs: Vec<EpochActivity>,
    resizes: Vec<ResizeRecord>,
    global_latency: LatencyHistogram,
    per_app_latency: BTreeMap<Asid, LatencyHistogram>,
    energy: Option<EnergyMeter>,
}

impl Recorder {
    /// An empty recorder labeled `label` (shown in reports and exports).
    pub fn new(label: impl Into<String>) -> Self {
        Recorder {
            label: label.into(),
            ..Recorder::default()
        }
    }

    /// The run label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Relabels the run.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Prices each epoch's activity with `meter` (adds `energy_nj` to the
    /// exported epoch records).
    pub fn set_energy_meter(&mut self, meter: EnergyMeter) {
        self.energy = Some(meter);
    }

    /// Per-partition epoch samples in publish order (epoch-major, ASID
    /// order within an epoch).
    pub fn partitions(&self) -> &[EpochSample] {
        &self.partitions
    }

    /// Cache-wide epoch activity records.
    pub fn epochs(&self) -> &[EpochActivity] {
        &self.epochs
    }

    /// The resize-event log.
    pub fn resizes(&self) -> &[ResizeRecord] {
        &self.resizes
    }

    /// Latency histogram over all accesses.
    pub fn global_latency(&self) -> &LatencyHistogram {
        &self.global_latency
    }

    /// Per-application latency histograms.
    pub fn per_app_latency(&self) -> &BTreeMap<Asid, LatencyHistogram> {
        &self.per_app_latency
    }

    /// Dynamic energy of one epoch in nanojoules, when a meter is set.
    pub fn epoch_energy_nj(&self, epoch: &EpochActivity) -> Option<f64> {
        self.energy
            .map(|meter| meter.energy_j(&epoch.activity) * 1e9)
    }

    /// Samples of one partition, in epoch order.
    pub fn partition_series(&self, asid: Asid) -> Vec<&EpochSample> {
        self.partitions.iter().filter(|s| s.asid == asid).collect()
    }

    /// ASIDs that published at least one sample.
    pub fn asids(&self) -> Vec<Asid> {
        let mut out: Vec<Asid> = Vec::new();
        for s in &self.partitions {
            if !out.contains(&s.asid) {
                out.push(s.asid);
            }
        }
        out.sort();
        out
    }

    /// The run as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut partitions = Vec::new();
        for asid in self.asids() {
            let samples: Vec<Value> = self
                .partition_series(asid)
                .into_iter()
                .map(|s| {
                    Value::Object(vec![
                        ("epoch".into(), Value::Number(s.epoch as f64)),
                        ("accesses".into(), Value::Number(s.accesses as f64)),
                        ("misses".into(), Value::Number(s.misses as f64)),
                        ("miss_rate".into(), Value::Number(s.miss_rate())),
                        ("molecules".into(), Value::Number(s.molecules as f64)),
                        ("rows".into(), Value::Number(s.rows as f64)),
                        ("occupancy".into(), Value::Number(s.occupancy)),
                        ("goal".into(), Value::Number(s.goal)),
                    ])
                })
                .collect();
            partitions.push(Value::Object(vec![
                ("asid".into(), Value::Number(f64::from(asid.raw()))),
                ("samples".into(), Value::Array(samples)),
            ]));
        }

        let epochs: Vec<Value> = self
            .epochs
            .iter()
            .map(|e| {
                let a = &e.activity;
                let mut fields = vec![
                    ("epoch".into(), Value::Number(e.epoch as f64)),
                    ("accesses".into(), Value::Number(a.accesses as f64)),
                    ("ways_probed".into(), Value::Number(a.ways_probed as f64)),
                    ("line_fills".into(), Value::Number(a.line_fills as f64)),
                    ("writebacks".into(), Value::Number(a.writebacks as f64)),
                    (
                        "asid_compares".into(),
                        Value::Number(a.asid_compares as f64),
                    ),
                    (
                        "ulmo_searches".into(),
                        Value::Number(a.ulmo_searches as f64),
                    ),
                    (
                        "free_molecules".into(),
                        Value::Number(e.free_molecules as f64),
                    ),
                ];
                if let Some(nj) = self.epoch_energy_nj(e) {
                    fields.push(("energy_nj".into(), Value::Number(nj)));
                }
                let stage_energy = self.energy.map(|meter| meter.stage_energy_nj(a));
                let stages: Vec<Value> = a
                    .stages
                    .iter()
                    .map(|(stage, totals)| {
                        let mut f = vec![
                            ("stage".into(), Value::String(stage.name().into())),
                            ("cycles".into(), Value::Number(totals.cycles as f64)),
                            (
                                "asid_compares".into(),
                                Value::Number(totals.asid_compares as f64),
                            ),
                            ("tag_probes".into(), Value::Number(totals.tag_probes as f64)),
                            (
                                "frames_touched".into(),
                                Value::Number(totals.frames_touched as f64),
                            ),
                        ];
                        if let Some(se) = &stage_energy {
                            f.push(("energy_nj".into(), Value::Number(se.stage(stage))));
                        }
                        Value::Object(f)
                    })
                    .collect();
                fields.push(("stages".into(), Value::Array(stages)));
                Value::Object(fields)
            })
            .collect();

        let resizes: Vec<Value> = self
            .resizes
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("at_access".into(), Value::Number(r.at_access as f64)),
                    ("trigger".into(), Value::String(r.trigger.clone())),
                    ("asid".into(), Value::Number(f64::from(r.asid.raw()))),
                    ("kind".into(), Value::String(r.kind.name().into())),
                    ("requested".into(), Value::Number(r.requested as f64)),
                    ("applied".into(), Value::Number(r.applied as f64)),
                    ("before".into(), Value::Number(r.inputs.current as f64)),
                    ("after".into(), Value::Number(r.after as f64)),
                    (
                        "window_miss_rate".into(),
                        Value::Number(r.inputs.window_miss_rate),
                    ),
                    ("goal".into(), Value::Number(r.inputs.goal)),
                ])
            })
            .collect();

        let per_app: Vec<Value> = self
            .per_app_latency
            .iter()
            .map(|(asid, hist)| {
                let mut fields = vec![("asid".into(), Value::Number(f64::from(asid.raw())))];
                fields.extend(histogram_fields(hist));
                Value::Object(fields)
            })
            .collect();

        Value::Object(vec![
            ("label".into(), Value::String(self.label.clone())),
            ("partitions".into(), Value::Array(partitions)),
            ("epochs".into(), Value::Array(epochs)),
            ("resize_events".into(), Value::Array(resizes)),
            (
                "latency".into(),
                Value::Object(vec![
                    (
                        "global".into(),
                        Value::Object(histogram_fields(&self.global_latency)),
                    ),
                    ("per_app".into(), Value::Array(per_app)),
                ]),
            ),
        ])
    }

    /// The run as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`JsonError`] from the encoder (cannot occur for the
    /// finite numbers a recorder holds).
    pub fn to_json(&self) -> Result<String, JsonError> {
        self.to_value().to_json()
    }

    /// Renders the partition timeline, resize log and latency summary as
    /// terminal tables and sparklines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.label.is_empty() {
            out.push_str(&format!("== {} ==\n", self.label));
        }

        let asids = self.asids();
        if !asids.is_empty() {
            let mut t = Table::new(vec![
                "app",
                "molecules",
                "size timeline",
                "miss rate",
                "occupancy",
            ]);
            for asid in &asids {
                let series = self.partition_series(*asid);
                let sizes: Vec<f64> = series.iter().map(|s| s.molecules as f64).collect();
                let last = series.last().expect("non-empty series");
                t.row(vec![
                    format!("{}", asid.raw()),
                    format!("{}", last.molecules),
                    sparkline(&sizes),
                    fmt_f64(last.miss_rate(), 3),
                    fmt_f64(last.occupancy, 3),
                ]);
            }
            out.push_str("Partition timeline (per epoch)\n");
            out.push_str(&t.render());
            out.push('\n');
        }

        if self.resizes.is_empty() {
            out.push_str("Resize events: none\n");
        } else {
            let mut t = Table::new(vec![
                "access",
                "policy",
                "trigger",
                "app",
                "kind",
                "req",
                "applied",
                "size",
                "window mr",
                "goal",
            ]);
            for r in &self.resizes {
                t.row(vec![
                    format!("{}", r.at_access),
                    r.policy.clone(),
                    r.trigger.clone(),
                    format!("{}", r.asid.raw()),
                    r.kind.name().into(),
                    format!("{}", r.requested),
                    format!("{}", r.applied),
                    format!("{}->{}", r.inputs.current, r.after),
                    fmt_f64(r.inputs.window_miss_rate, 3),
                    fmt_f64(r.inputs.goal, 2),
                ]);
            }
            out.push_str(&format!("Resize events ({})\n", self.resizes.len()));
            out.push_str(&t.render());
            out.push('\n');
        }

        if self.global_latency.count() > 0 {
            let h = &self.global_latency;
            out.push_str(&format!(
                "Latency: mean {:.1} cycles, p50 <= {}, p99 <= {}, max {} ({} accesses)\n",
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
                h.count(),
            ));
            let rows: Vec<(String, f64)> = h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| (format!("<={}", LatencyHistogram::bucket_bound(b)), c as f64))
                .collect();
            out.push_str(&bar_chart("Latency histogram (log2 buckets)", &rows, 40));
        }
        out
    }
}

fn histogram_fields(hist: &LatencyHistogram) -> Vec<(String, Value)> {
    let buckets: Vec<Value> = hist
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(bucket, &count)| {
            Value::Object(vec![
                (
                    "le".into(),
                    Value::Number(f64::from(LatencyHistogram::bucket_bound(bucket))),
                ),
                ("count".into(), Value::Number(count as f64)),
            ])
        })
        .collect();
    vec![
        ("count".into(), Value::Number(hist.count() as f64)),
        ("mean".into(), Value::Number(hist.mean())),
        ("p50".into(), Value::Number(f64::from(hist.quantile(0.5)))),
        ("p90".into(), Value::Number(f64::from(hist.quantile(0.9)))),
        ("p99".into(), Value::Number(f64::from(hist.quantile(0.99)))),
        ("max".into(), Value::Number(f64::from(hist.max()))),
        ("buckets".into(), Value::Array(buckets)),
    ]
}

impl Sink for Recorder {
    fn record(&mut self, event: &Event<'_>) {
        match event {
            Event::Access {
                asid,
                hit: _,
                latency,
            } => {
                self.global_latency.record(*latency);
                self.per_app_latency
                    .entry(*asid)
                    .or_default()
                    .record(*latency);
            }
            Event::Partition(sample) => self.partitions.push(**sample),
            Event::Epoch(activity) => self.epochs.push(**activity),
            Event::Resize(record) => self.resizes.push((*record).clone()),
        }
    }
}

/// Bundles several runs into one JSON document, in slice order — callers
/// that fan runs out across workers keep the export deterministic by
/// passing recorders in item order.
pub fn runs_to_value(runs: &[Recorder]) -> Value {
    Value::Object(vec![
        (
            "schema".into(),
            Value::String("molcache-telemetry-v1".into()),
        ),
        (
            "runs".into(),
            Value::Array(runs.iter().map(Recorder::to_value).collect()),
        ),
    ])
}

/// [`runs_to_value`] rendered as pretty JSON.
///
/// # Errors
///
/// Propagates [`JsonError`] from the encoder.
pub fn runs_to_json(runs: &[Recorder]) -> Result<String, JsonError> {
    runs_to_value(runs).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ResizeKind;
    use molcache_metrics::json::parse;

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::new("test-run");
        rec.record(&Event::Access {
            asid: Asid::new(1),
            hit: true,
            latency: 12,
        });
        rec.record(&Event::Access {
            asid: Asid::new(2),
            hit: false,
            latency: 112,
        });
        let sample = EpochSample {
            epoch: 0,
            asid: Asid::new(1),
            accesses: 2,
            misses: 1,
            molecules: 4,
            rows: 4,
            occupancy: 0.25,
            goal: 0.25,
        };
        rec.record(&Event::Partition(&sample));
        let mut activity = molcache_sim::Activity {
            accesses: 2,
            ways_probed: 8,
            line_fills: 1,
            writebacks: 0,
            asid_compares: 8,
            ulmo_searches: 1,
            ..molcache_sim::Activity::default()
        };
        let s = &mut activity.stages;
        s.asid_gate.asid_compares = 8;
        s.asid_gate.cycles = 2;
        s.home_lookup.tag_probes = 8;
        s.home_lookup.cycles = 8;
        s.ulmo_search.cycles = 8;
        s.fill.frames_touched = 1;
        s.fill.cycles = 200;
        let epoch = EpochActivity {
            epoch: 0,
            activity,
            free_molecules: 10,
            memo_hits: 0,
        };
        rec.record(&Event::Epoch(&epoch));
        let resize = ResizeRecord {
            at_access: 25_000,
            trigger: "per-app-adaptive".into(),
            asid: Asid::new(1),
            kind: ResizeKind::Grow,
            requested: 4,
            applied: 4,
            after: 8,
            policy: "paper-algorithm1".into(),
            inputs: crate::event::ResizeDecisionInputs {
                window_accesses: 100,
                window_miss_rate: 0.5,
                last_miss_rate: 1.0,
                goal: 0.25,
                current: 4,
                last_allocation: 4,
                max_allocation: 16,
                free_molecules: 10,
            },
        };
        rec.record(&Event::Resize(&resize));
        rec
    }

    #[test]
    fn recorder_retains_all_streams() {
        let rec = sample_recorder();
        assert_eq!(rec.partitions().len(), 1);
        assert_eq!(rec.epochs().len(), 1);
        assert_eq!(rec.resizes().len(), 1);
        assert_eq!(rec.global_latency().count(), 2);
        assert_eq!(rec.per_app_latency().len(), 2);
        assert_eq!(rec.asids(), vec![Asid::new(1)]);
        assert_eq!(rec.partition_series(Asid::new(1)).len(), 1);
    }

    #[test]
    fn export_is_valid_json_with_expected_fields() {
        let rec = sample_recorder();
        let doc = parse(&rec.to_json().unwrap()).unwrap();
        assert_eq!(doc.get("label").unwrap().as_str(), Some("test-run"));
        let parts = doc.get("partitions").unwrap().as_array().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].get("asid").unwrap().as_f64(), Some(1.0));
        let samples = parts[0].get("samples").unwrap().as_array().unwrap();
        assert_eq!(samples[0].get("miss_rate").unwrap().as_f64(), Some(0.5));
        let resizes = doc.get("resize_events").unwrap().as_array().unwrap();
        assert_eq!(resizes[0].get("kind").unwrap().as_str(), Some("grow"));
        assert_eq!(resizes[0].get("after").unwrap().as_f64(), Some(8.0));
        let latency = doc.get("latency").unwrap();
        let global = latency.get("global").unwrap();
        assert_eq!(global.get("count").unwrap().as_f64(), Some(2.0));
        // No meter set: epochs carry no energy field.
        let epochs = doc.get("epochs").unwrap().as_array().unwrap();
        assert!(epochs[0].get("energy_nj").is_none());
    }

    #[test]
    fn energy_meter_prices_epochs() {
        let mut rec = sample_recorder();
        rec.set_energy_meter(EnergyMeter {
            probe_nj: 1.0,
            fill_nj: 2.0,
            writeback_nj: 3.0,
            asid_compare_nj: 0.5,
            ulmo_search_nj: 4.0,
        });
        // 8 probes + 1 fill + 8 compares*0.5 + 1 ulmo*4 = 18 nJ.
        let nj = rec.epoch_energy_nj(&rec.epochs()[0]).unwrap();
        assert!((nj - 18.0).abs() < 1e-9, "{nj}");
        let doc = parse(&rec.to_json().unwrap()).unwrap();
        let epochs = doc.get("epochs").unwrap().as_array().unwrap();
        let exported = epochs[0].get("energy_nj").unwrap().as_f64().unwrap();
        assert!((exported - 18.0).abs() < 1e-9);
    }

    #[test]
    fn export_carries_per_stage_epoch_series() {
        let mut rec = sample_recorder();
        rec.set_energy_meter(EnergyMeter {
            probe_nj: 1.0,
            fill_nj: 2.0,
            writeback_nj: 3.0,
            asid_compare_nj: 0.5,
            ulmo_search_nj: 4.0,
        });
        let doc = parse(&rec.to_json().unwrap()).unwrap();
        let epochs = doc.get("epochs").unwrap().as_array().unwrap();
        let stages = epochs[0].get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 5, "one record per pipeline stage");
        assert_eq!(stages[0].get("stage").unwrap().as_str(), Some("asid-gate"));
        assert_eq!(stages[0].get("asid_compares").unwrap().as_f64(), Some(8.0));
        assert_eq!(
            stages[1].get("stage").unwrap().as_str(),
            Some("home-lookup")
        );
        assert_eq!(stages[1].get("tag_probes").unwrap().as_f64(), Some(8.0));
        assert_eq!(stages[4].get("stage").unwrap().as_str(), Some("fill"));
        assert_eq!(stages[4].get("frames_touched").unwrap().as_f64(), Some(1.0));
        // With a meter set, each stage also carries its energy, and the
        // stage energies sum to the epoch's total.
        let total: f64 = stages
            .iter()
            .map(|s| s.get("energy_nj").unwrap().as_f64().unwrap())
            .sum();
        let epoch_nj = epochs[0].get("energy_nj").unwrap().as_f64().unwrap();
        assert!((total - epoch_nj).abs() < 1e-9, "{total} vs {epoch_nj}");
    }

    #[test]
    fn render_shows_timeline_and_resizes() {
        let rec = sample_recorder();
        let text = rec.render();
        assert!(text.contains("test-run"));
        assert!(text.contains("Partition timeline"));
        assert!(text.contains("Resize events (1)"));
        assert!(text.contains("grow"));
        assert!(text.contains("4->8"));
        assert!(text.contains("Latency"));
    }

    #[test]
    fn empty_recorder_renders_and_exports() {
        let rec = Recorder::new("");
        assert!(rec.render().contains("Resize events: none"));
        let doc = parse(&rec.to_json().unwrap()).unwrap();
        assert_eq!(doc.get("partitions").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn multi_run_document_keeps_order() {
        let runs = vec![Recorder::new("a"), Recorder::new("b")];
        let doc = parse(&runs_to_json(&runs).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("molcache-telemetry-v1")
        );
        let arr = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(arr[0].get("label").unwrap().as_str(), Some("a"));
        assert_eq!(arr[1].get("label").unwrap().as_str(), Some("b"));
    }
}
