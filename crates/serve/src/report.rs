//! The `molcache-serve-v1` replay document: what `molserve --json`
//! emits and `molstat --serve` renders, written through
//! `molcache-metrics`' streaming JSON writer.

use crate::replay::ReplayReport;
use molcache_metrics::json::{self, JsonError, JsonWriter, Value};
use molcache_sim::AppStats;
use molcache_telemetry::ShardContention;

/// Schema tag for serve replay documents.
pub const SERVE_SCHEMA: &str = "molcache-serve-v1";

/// A serialization-friendly replay record: the [`ReplayReport`] plus
/// the run parameters needed to reproduce it.
#[derive(Debug, Clone)]
pub struct ServeDoc {
    /// Tenant count.
    pub tenants: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Cluster shards in the service.
    pub shards: usize,
    /// Accesses per tenant.
    pub refs_per_tenant: u64,
    /// Trace seed.
    pub seed: u64,
    /// Wall-clock nanoseconds of the replay.
    pub wall_ns: u64,
    /// Replay throughput.
    pub accesses_per_sec: f64,
    /// Cross-shard load imbalance.
    pub imbalance: f64,
    /// Per-tenant records, admission order.
    pub per_tenant: Vec<TenantRecord>,
    /// Per-shard contention records.
    pub per_shard: Vec<ShardContention>,
}

/// One tenant's row in the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRecord {
    /// Tenant ASID.
    pub asid: u16,
    /// Benchmark personality name.
    pub benchmark: String,
    /// Shard the tenant was served from.
    pub shard: usize,
    /// The shard cache's statistics for this tenant.
    pub stats: AppStats,
}

impl ServeDoc {
    /// Builds a document from a finished replay and its parameters.
    pub fn from_report(
        report: &ReplayReport,
        refs_per_tenant: u64,
        seed: u64,
        shards: usize,
    ) -> Self {
        ServeDoc {
            tenants: report.tenants.len(),
            threads: report.threads,
            shards,
            refs_per_tenant,
            seed,
            wall_ns: report.wall_ns,
            accesses_per_sec: report.accesses_per_sec(),
            imbalance: report.imbalance(),
            per_tenant: report
                .tenants
                .iter()
                .map(|t| TenantRecord {
                    asid: t.asid.raw(),
                    benchmark: t.benchmark.clone(),
                    shard: t.shard,
                    stats: t.stats,
                })
                .collect(),
            per_shard: report.shards.clone(),
        }
    }

    /// Encodes the document as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error when a rate is not finite.
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(SERVE_SCHEMA);
        w.key("tenants").number(self.tenants as f64);
        w.key("threads").number(self.threads as f64);
        w.key("shards").number(self.shards as f64);
        w.key("refs_per_tenant").number(self.refs_per_tenant as f64);
        w.key("seed").number(self.seed as f64);
        w.key("wall_ns").number(self.wall_ns as f64);
        w.key("accesses_per_sec").number(self.accesses_per_sec);
        w.key("imbalance").number(self.imbalance);
        w.key("per_tenant").begin_array();
        for t in &self.per_tenant {
            w.begin_object();
            w.key("asid").number(f64::from(t.asid));
            w.key("benchmark").string(&t.benchmark);
            w.key("shard").number(t.shard as f64);
            w.key("accesses").number(t.stats.accesses as f64);
            w.key("hits").number(t.stats.hits as f64);
            w.key("misses").number(t.stats.misses as f64);
            w.key("writebacks").number(t.stats.writebacks as f64);
            w.key("total_latency").number(t.stats.total_latency as f64);
            w.end();
        }
        w.end();
        w.key("per_shard").begin_array();
        for s in &self.per_shard {
            w.begin_object();
            w.key("shard").number(s.shard as f64);
            w.key("acquisitions").number(s.acquisitions as f64);
            w.key("contended").number(s.contended as f64);
            w.key("lock_wait_ns").number(s.lock_wait_ns as f64);
            w.key("max_queue_depth").number(s.max_queue_depth as f64);
            w.key("accesses").number(s.accesses as f64);
            w.key("hits").number(s.hits as f64);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }

    /// Decodes a document, checking the schema tag.
    pub fn from_json(input: &str) -> Result<ServeDoc, String> {
        let value = json::parse(input).map_err(|e| format!("parse error: {e}"))?;
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema tag")?;
        if schema != SERVE_SCHEMA {
            return Err(format!("expected schema {SERVE_SCHEMA}, got {schema}"));
        }
        let num = |name: &str| -> Result<f64, String> {
            value
                .get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number field '{name}'"))
        };
        let per_tenant = value
            .get("per_tenant")
            .and_then(Value::as_array)
            .ok_or("missing per_tenant array")?
            .iter()
            .map(parse_tenant)
            .collect::<Result<Vec<_>, _>>()?;
        let per_shard = value
            .get("per_shard")
            .and_then(Value::as_array)
            .ok_or("missing per_shard array")?
            .iter()
            .map(parse_shard)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServeDoc {
            tenants: int(&value, "tenants", "document")?,
            threads: int(&value, "threads", "document")?,
            shards: int(&value, "shards", "document")?,
            refs_per_tenant: int(&value, "refs_per_tenant", "document")?,
            seed: int(&value, "seed", "document")?,
            wall_ns: int(&value, "wall_ns", "document")?,
            accesses_per_sec: num("accesses_per_sec")?,
            imbalance: num("imbalance")?,
            per_tenant,
            per_shard,
        })
    }
}

/// Field `name` of `v` as an integer of type `T`: a missing field, or a
/// value that is not an integer `T` holds, is an error naming `record`.
fn int<T: TryFrom<u64>>(v: &Value, name: &str, record: &str) -> Result<T, String> {
    v.get(name)
        .and_then(Value::as_u64)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{record} field '{name}' is missing or not an integer in range"))
}

fn parse_tenant(v: &Value) -> Result<TenantRecord, String> {
    let num = |name: &str| int::<u64>(v, name, "tenant record");
    Ok(TenantRecord {
        asid: int(v, "asid", "tenant record")?,
        benchmark: v
            .get("benchmark")
            .and_then(Value::as_str)
            .ok_or("tenant record missing 'benchmark'")?
            .to_string(),
        shard: int(v, "shard", "tenant record")?,
        stats: AppStats {
            accesses: num("accesses")?,
            hits: num("hits")?,
            misses: num("misses")?,
            writebacks: num("writebacks")?,
            total_latency: num("total_latency")?,
        },
    })
}

fn parse_shard(v: &Value) -> Result<ShardContention, String> {
    let num = |name: &str| int::<u64>(v, name, "shard record");
    Ok(ShardContention {
        shard: int(v, "shard", "shard record")?,
        acquisitions: num("acquisitions")?,
        contended: num("contended")?,
        lock_wait_ns: num("lock_wait_ns")?,
        max_queue_depth: num("max_queue_depth")?,
        accesses: num("accesses")?,
        hits: num("hits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> ServeDoc {
        ServeDoc {
            tenants: 2,
            threads: 4,
            shards: 2,
            refs_per_tenant: 1000,
            seed: 42,
            wall_ns: 5_000_000,
            accesses_per_sec: 400_000.0,
            imbalance: 1.25,
            per_tenant: vec![
                TenantRecord {
                    asid: 1,
                    benchmark: "mcf".into(),
                    shard: 0,
                    stats: AppStats {
                        accesses: 1000,
                        hits: 600,
                        misses: 400,
                        writebacks: 55,
                        total_latency: 123_456,
                    },
                },
                TenantRecord {
                    asid: 2,
                    benchmark: "art".into(),
                    shard: 1,
                    stats: AppStats {
                        accesses: 1000,
                        hits: 900,
                        misses: 100,
                        writebacks: 7,
                        total_latency: 65_432,
                    },
                },
            ],
            per_shard: vec![
                ShardContention {
                    shard: 0,
                    acquisitions: 10,
                    contended: 2,
                    lock_wait_ns: 900,
                    max_queue_depth: 3,
                    accesses: 1000,
                    hits: 600,
                },
                ShardContention {
                    shard: 1,
                    acquisitions: 8,
                    contended: 0,
                    lock_wait_ns: 0,
                    max_queue_depth: 1,
                    accesses: 1000,
                    hits: 900,
                },
            ],
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let original = doc();
        let text = original.to_json().unwrap();
        let parsed = ServeDoc::from_json(&text).unwrap();
        assert_eq!(parsed.tenants, original.tenants);
        assert_eq!(parsed.threads, original.threads);
        assert_eq!(parsed.per_tenant, original.per_tenant);
        assert_eq!(parsed.per_shard, original.per_shard);
        assert_eq!(parsed.wall_ns, original.wall_ns);
    }

    /// The exact bytes of the fixture's document, as the tree printer
    /// wrote them before the streaming writer replaced it.
    #[test]
    fn document_bytes_are_pinned() {
        let expected = r#"{
  "schema": "molcache-serve-v1",
  "tenants": 2.0,
  "threads": 4.0,
  "shards": 2.0,
  "refs_per_tenant": 1000.0,
  "seed": 42.0,
  "wall_ns": 5000000.0,
  "accesses_per_sec": 400000.0,
  "imbalance": 1.25,
  "per_tenant": [
    {
      "asid": 1.0,
      "benchmark": "mcf",
      "shard": 0.0,
      "accesses": 1000.0,
      "hits": 600.0,
      "misses": 400.0,
      "writebacks": 55.0,
      "total_latency": 123456.0
    },
    {
      "asid": 2.0,
      "benchmark": "art",
      "shard": 1.0,
      "accesses": 1000.0,
      "hits": 900.0,
      "misses": 100.0,
      "writebacks": 7.0,
      "total_latency": 65432.0
    }
  ],
  "per_shard": [
    {
      "shard": 0.0,
      "acquisitions": 10.0,
      "contended": 2.0,
      "lock_wait_ns": 900.0,
      "max_queue_depth": 3.0,
      "accesses": 1000.0,
      "hits": 600.0
    },
    {
      "shard": 1.0,
      "acquisitions": 8.0,
      "contended": 0.0,
      "lock_wait_ns": 0.0,
      "max_queue_depth": 1.0,
      "accesses": 1000.0,
      "hits": 900.0
    }
  ]
}"#;
        assert_eq!(doc().to_json().unwrap(), expected);
    }

    #[test]
    fn out_of_range_numbers_are_rejected() {
        // Each value survives an `as` cast (an ASID past u16 becomes
        // tenant 4464, a negative count 0, a fraction its floor), so the
        // reader must reject it instead.
        let text = doc().to_json().unwrap();
        for (from, to) in [
            (r#""asid": 1.0"#, r#""asid": 70000.0"#),
            (r#""accesses": 1000.0"#, r#""accesses": -5.0"#),
            (r#""hits": 600.0"#, r#""hits": 1.5"#),
            (r#""tenants": 2.0"#, r#""tenants": 1e300"#),
            (r#""seed": 42.0"#, r#""seed": 9007199254740994.0"#),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from} not in the fixture");
            let err = ServeDoc::from_json(&bad).unwrap_err();
            let name = from.split('"').nth(1).unwrap();
            assert!(err.contains(name), "{to}: {err}");
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = ServeDoc::from_json(r#"{"schema": "molcache-bench-v1"}"#).unwrap_err();
        assert!(err.contains("molcache-serve-v1"), "{err}");
    }
}
