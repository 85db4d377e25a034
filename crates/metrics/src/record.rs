//! Machine-readable experiment records.
//!
//! Every experiment in the benchmark harness emits one of these next to
//! its human-readable table, so EXPERIMENTS.md numbers can be regenerated
//! and diffed mechanically. Records are written through
//! [`crate::json::JsonWriter`] (the workspace builds without crates.io
//! access); the emitted shape matches the seed's serde_json output byte
//! for byte.

use crate::json::{self, JsonError, JsonWriter, Value};

/// One measured configuration within an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Configuration label, e.g. `"8MB 4way"` or `"Molecular (Randy)"`.
    pub label: String,
    /// Metric values by name, e.g. `{"avg_deviation": 0.22}`.
    pub metrics: Vec<Metric>,
}

/// A named scalar measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`"avg_deviation"`, `"power_w"`, …).
    pub name: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// A full experiment record: which table/figure it reproduces, the
/// workload, and all configuration results.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Paper artifact id, e.g. `"table2"`, `"fig5a"`.
    pub id: String,
    /// Workload description.
    pub workload: String,
    /// References simulated.
    pub references: u64,
    /// Per-configuration results.
    pub results: Vec<ConfigResult>,
}

impl ExperimentRecord {
    /// Serializes to pretty JSON (2-space indent, stable field order);
    /// `references` is written as an exact integer.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric, naming its configuration and metric:
    /// JSON has no form for it, and no record should carry one.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("id").string(&self.id);
        w.key("workload").string(&self.workload);
        w.key("references").uint(self.references);
        w.key("results").begin_array();
        for r in &self.results {
            w.begin_object();
            w.key("label").string(&r.label);
            w.key("metrics").begin_array();
            for m in &r.metrics {
                assert!(
                    m.value.is_finite(),
                    "record `{}`: metric `{}` of `{}` is {}, which JSON cannot hold",
                    self.id,
                    m.name,
                    r.label,
                    m.value
                );
                w.begin_object();
                w.key("name").string(&m.name);
                w.key("value").number(m.value);
                w.end();
            }
            w.end();
            w.end();
        }
        w.end();
        w.end();
        w.finish().expect("every metric is finite")
    }

    /// Parses a record back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or a missing/mistyped
    /// field.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = json::parse(text)?;
        let results = field(&root, "results")?
            .as_array()
            .ok_or_else(|| type_err("results", "array"))?
            .iter()
            .map(|r| {
                let metrics = field(r, "metrics")?
                    .as_array()
                    .ok_or_else(|| type_err("metrics", "array"))?
                    .iter()
                    .map(|m| {
                        Ok(Metric {
                            name: string_field(m, "name")?,
                            value: number_field(m, "value")?,
                        })
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Ok(ConfigResult {
                    label: string_field(r, "label")?,
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(ExperimentRecord {
            id: string_field(&root, "id")?,
            workload: string_field(&root, "workload")?,
            references: field(&root, "references")?
                .as_u64()
                .ok_or_else(|| type_err("references", "non-negative integer"))?,
            results,
        })
    }

    /// Finds a metric by configuration label and metric name.
    pub fn metric(&self, label: &str, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.label == label)?
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, JsonError> {
    v.get(name)
        .ok_or_else(|| JsonError::new(format!("missing field `{name}`"), 0))
}

fn type_err(name: &str, wanted: &str) -> JsonError {
    JsonError::new(format!("field `{name}` is not a {wanted}"), 0)
}

fn string_field(v: &Value, name: &str) -> Result<String, JsonError> {
    field(v, name)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| type_err(name, "string"))
}

fn number_field(v: &Value, name: &str) -> Result<f64, JsonError> {
    field(v, name)?
        .as_f64()
        .ok_or_else(|| type_err(name, "number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ExperimentRecord {
        ExperimentRecord {
            id: "table2".into(),
            workload: "12-benchmark mixed".into(),
            references: 1_000_000,
            results: vec![ConfigResult {
                label: "6MB Molecular Randy".into(),
                metrics: vec![Metric::new("avg_deviation", 0.222)],
            }],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = record();
        let parsed = ExperimentRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_matches_serde_pretty_layout() {
        // The exact bytes serde_json::to_string_pretty produced for the
        // seed's results/*.json files — layout must stay diff-stable.
        let expected = "{\n  \"id\": \"table2\",\n  \"workload\": \"12-benchmark mixed\",\n  \"references\": 1000000,\n  \"results\": [\n    {\n      \"label\": \"6MB Molecular Randy\",\n      \"metrics\": [\n        {\n          \"name\": \"avg_deviation\",\n          \"value\": 0.222\n        }\n      ]\n    }\n  ]\n}";
        assert_eq!(record().to_json(), expected);
    }

    #[test]
    fn empty_results_serialize_compactly() {
        let r = ExperimentRecord {
            id: "x".into(),
            workload: "w".into(),
            references: 0,
            results: vec![],
        };
        let parsed = ExperimentRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    #[should_panic(expected = "metric `avg_deviation` of `6MB Molecular Randy` is NaN")]
    fn non_finite_metric_panics_naming_it() {
        let mut r = record();
        r.results[0].metrics[0].value = f64::NAN;
        let _ = r.to_json();
    }

    #[test]
    fn metric_lookup() {
        let r = record();
        assert_eq!(
            r.metric("6MB Molecular Randy", "avg_deviation"),
            Some(0.222)
        );
        assert_eq!(r.metric("6MB Molecular Randy", "nope"), None);
        assert_eq!(r.metric("nope", "avg_deviation"), None);
    }

    #[test]
    fn malformed_json_errors() {
        assert!(ExperimentRecord::from_json("{not json").is_err());
        assert!(ExperimentRecord::from_json("{\"id\": \"x\"}").is_err());
        assert!(ExperimentRecord::from_json("[]").is_err());
    }

    #[test]
    fn non_integer_references_are_rejected() {
        let text = record().to_json();
        assert!(ExperimentRecord::from_json(&text).is_ok());
        for bad in ["-5.0", "1.5", "1e300"] {
            let doc = text.replacen("1000000", bad, 1);
            assert_ne!(doc, text);
            let err = ExperimentRecord::from_json(&doc).unwrap_err();
            assert!(err.to_string().contains("references"), "{bad}: {err}");
        }
    }
}
