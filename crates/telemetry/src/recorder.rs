//! The retaining sink: accumulates epoch streams, histograms and the
//! resize log, then exports them as JSON or rendered reports.

use crate::event::{EpochActivity, EpochSample, Event, ResizeRecord};
use crate::hist::LatencyHistogram;
use crate::sink::Sink;
use molcache_metrics::chart::{bar_chart, sparkline};
use molcache_metrics::json::{JsonError, JsonWriter};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_power::accounting::EnergyMeter;
use molcache_sim::AppTable;
use molcache_trace::Asid;

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
    per_app_latency: AppTable<LatencyHistogram>,
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

    /// Per-application latency histograms, in ascending ASID order.
    pub fn per_app_latency(&self) -> &AppTable<LatencyHistogram> {
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

    /// The run as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`JsonError`] from the writer (cannot occur for the
    /// finite numbers a recorder holds).
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the run as one JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("label").string(&self.label);

        w.key("partitions").begin_array();
        for asid in self.asids() {
            w.begin_object();
            w.key("asid").number(f64::from(asid.raw()));
            w.key("samples").begin_array();
            for s in self.partition_series(asid) {
                w.begin_object();
                w.key("epoch").number(s.epoch as f64);
                w.key("accesses").number(s.accesses as f64);
                w.key("misses").number(s.misses as f64);
                w.key("miss_rate").number(s.miss_rate());
                w.key("molecules").number(s.molecules as f64);
                w.key("rows").number(s.rows as f64);
                w.key("occupancy").number(s.occupancy);
                w.key("goal").number(s.goal);
                w.end();
            }
            w.end();
            w.end();
        }
        w.end();

        w.key("epochs").begin_array();
        for e in &self.epochs {
            let a = &e.activity;
            w.begin_object();
            w.key("epoch").number(e.epoch as f64);
            w.key("accesses").number(a.accesses as f64);
            w.key("ways_probed").number(a.ways_probed as f64);
            w.key("line_fills").number(a.line_fills as f64);
            w.key("writebacks").number(a.writebacks as f64);
            w.key("asid_compares").number(a.asid_compares as f64);
            w.key("ulmo_searches").number(a.ulmo_searches as f64);
            w.key("free_molecules").number(e.free_molecules as f64);
            if let Some(nj) = self.epoch_energy_nj(e) {
                w.key("energy_nj").number(nj);
            }
            let stage_energy = self.energy.map(|meter| meter.stage_energy_nj(a));
            w.key("stages").begin_array();
            for (stage, totals) in a.stages.iter() {
                w.begin_object();
                w.key("stage").string(stage.name());
                w.key("cycles").number(totals.cycles as f64);
                w.key("asid_compares").number(totals.asid_compares as f64);
                w.key("tag_probes").number(totals.tag_probes as f64);
                w.key("frames_touched").number(totals.frames_touched as f64);
                if let Some(se) = &stage_energy {
                    w.key("energy_nj").number(se.stage(stage));
                }
                w.end();
            }
            w.end();
            w.end();
        }
        w.end();

        w.key("resize_events").begin_array();
        for r in &self.resizes {
            w.begin_object();
            w.key("at_access").number(r.at_access as f64);
            w.key("trigger").string(&r.trigger);
            w.key("asid").number(f64::from(r.asid.raw()));
            w.key("kind").string(r.kind.name());
            w.key("requested").number(r.requested as f64);
            w.key("applied").number(r.applied as f64);
            w.key("before").number(r.inputs.current as f64);
            w.key("after").number(r.after as f64);
            w.key("window_miss_rate").number(r.inputs.window_miss_rate);
            w.key("goal").number(r.inputs.goal);
            w.end();
        }
        w.end();

        w.key("latency").begin_object();
        w.key("global").begin_object();
        write_histogram(w, &self.global_latency);
        w.end();
        w.key("per_app").begin_array();
        for (asid, hist) in &self.per_app_latency {
            w.begin_object();
            w.key("asid").number(f64::from(asid.raw()));
            write_histogram(w, hist);
            w.end();
        }
        w.end();
        w.end();

        w.end();
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

/// Writes a histogram's summary and non-empty buckets as fields of the
/// open object.
fn write_histogram(w: &mut JsonWriter, hist: &LatencyHistogram) {
    w.key("count").number(hist.count() as f64);
    w.key("mean").number(hist.mean());
    w.key("p50").number(f64::from(hist.quantile(0.5)));
    w.key("p90").number(f64::from(hist.quantile(0.9)));
    w.key("p99").number(f64::from(hist.quantile(0.99)));
    w.key("max").number(f64::from(hist.max()));
    w.key("buckets").begin_array();
    for (bucket, &count) in hist.buckets().iter().enumerate() {
        if count > 0 {
            w.begin_object();
            w.key("le")
                .number(f64::from(LatencyHistogram::bucket_bound(bucket)));
            w.key("count").number(count as f64);
            w.end();
        }
    }
    w.end();
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
                self.per_app_latency.entry(*asid).record(*latency);
            }
            Event::Partition(sample) => self.partitions.push(**sample),
            Event::Epoch(activity) => self.epochs.push(**activity),
            Event::Resize(record) => self.resizes.push((*record).clone()),
        }
    }
}

/// Bundles several runs into one `molcache-telemetry-v1` JSON document,
/// in slice order — callers that fan runs out across workers keep the
/// export deterministic by passing recorders in item order.
///
/// # Errors
///
/// Propagates [`JsonError`] from the writer.
pub fn runs_to_json(runs: &[Recorder]) -> Result<String, JsonError> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("molcache-telemetry-v1");
    w.key("runs").begin_array();
    for run in runs {
        run.write_json(&mut w);
    }
    w.end();
    w.end();
    w.finish()
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
                window_miss_rate: 0.5,
                goal: 0.25,
                current: 4,
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

    /// A recorder the size of a `serve_churn` pass's export (about
    /// 430 KB for two recorders): 8 tenants, 150 epochs, 400 resizes.
    fn churn_sized_recorder() -> Recorder {
        let mut rec = Recorder::new("shard0/paper-algorithm1");
        rec.set_energy_meter(EnergyMeter {
            probe_nj: 0.1,
            fill_nj: 0.7,
            writeback_nj: 0.9,
            asid_compare_nj: 0.01,
            ulmo_search_nj: 0.3,
        });
        let template = sample_recorder();
        for epoch in 0..150u64 {
            for t in 1..=8u16 {
                rec.record(&Event::Access {
                    asid: Asid::new(t),
                    hit: epoch % 3 != 0,
                    latency: 12 + u32::from(t) * u32::try_from(epoch).unwrap(),
                });
                let sample = EpochSample {
                    epoch,
                    asid: Asid::new(t),
                    accesses: 1_000 + epoch,
                    misses: 37 * u64::from(t),
                    molecules: 4 + usize::from(t),
                    rows: 2,
                    occupancy: 1.0 / f64::from(t),
                    goal: 0.1,
                };
                rec.record(&Event::Partition(&sample));
            }
            let mut activity = template.epochs()[0];
            activity.epoch = epoch;
            activity.activity.accesses = 8_000 + epoch;
            rec.record(&Event::Epoch(&activity));
        }
        for i in 0..400u64 {
            let mut resize = template.resizes()[0].clone();
            resize.at_access = i * 997;
            resize.asid = Asid::new(1 + (i % 8) as u16);
            resize.inputs.window_miss_rate = i as f64 / 400.0;
            rec.record(&Event::Resize(&resize));
        }
        rec
    }

    #[test]
    fn churn_sized_export_parses_back_field_for_field() {
        let rec = churn_sized_recorder();
        let text = rec.to_json().unwrap();
        assert!(text.len() > 400_000, "{} bytes", text.len());
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("label").unwrap().as_str(),
            Some("shard0/paper-algorithm1")
        );

        let parts = doc.get("partitions").unwrap().as_array().unwrap();
        assert_eq!(parts.len(), 8);
        for (p, asid) in parts.iter().zip(rec.asids()) {
            assert_eq!(p.get("asid").unwrap().as_f64(), Some(f64::from(asid.raw())));
            let samples = p.get("samples").unwrap().as_array().unwrap();
            let series = rec.partition_series(asid);
            assert_eq!(samples.len(), series.len());
            for (got, want) in samples.iter().zip(series) {
                let num = |k: &str| got.get(k).unwrap().as_f64().unwrap();
                assert_eq!(num("epoch"), want.epoch as f64);
                assert_eq!(num("accesses"), want.accesses as f64);
                assert_eq!(num("misses"), want.misses as f64);
                assert_eq!(num("miss_rate"), want.miss_rate());
                assert_eq!(num("molecules"), want.molecules as f64);
                assert_eq!(num("occupancy"), want.occupancy);
            }
        }

        let epochs = doc.get("epochs").unwrap().as_array().unwrap();
        assert_eq!(epochs.len(), rec.epochs().len());
        for (got, want) in epochs.iter().zip(rec.epochs()) {
            let num = |k: &str| got.get(k).unwrap().as_f64().unwrap();
            assert_eq!(num("epoch"), want.epoch as f64);
            assert_eq!(num("accesses"), want.activity.accesses as f64);
            assert_eq!(num("energy_nj"), rec.epoch_energy_nj(want).unwrap());
            let stages = got.get("stages").unwrap().as_array().unwrap();
            assert_eq!(stages.len(), 5);
        }

        let resizes = doc.get("resize_events").unwrap().as_array().unwrap();
        assert_eq!(resizes.len(), 400);
        for (got, want) in resizes.iter().zip(rec.resizes()) {
            let num = |k: &str| got.get(k).unwrap().as_f64().unwrap();
            assert_eq!(num("at_access"), want.at_access as f64);
            assert_eq!(num("asid"), f64::from(want.asid.raw()));
            assert_eq!(num("window_miss_rate"), want.inputs.window_miss_rate);
            assert_eq!(
                got.get("trigger").unwrap().as_str(),
                Some("per-app-adaptive")
            );
        }

        let latency = doc.get("latency").unwrap();
        let global = latency.get("global").unwrap();
        assert_eq!(global.get("count").unwrap().as_f64(), Some(1_200.0));
        assert_eq!(
            global.get("mean").unwrap().as_f64(),
            Some(rec.global_latency().mean())
        );
        let per_app = latency.get("per_app").unwrap().as_array().unwrap();
        assert_eq!(per_app.len(), 8);
        assert!(per_app
            .iter()
            .all(|h| h.get("count").unwrap().as_f64() == Some(150.0)));
    }
}
