//! `serve_churn`: eight tenants with hit-heavy and miss-heavy
//! personalities, four per shard of a two-shard `CacheService`, with
//! tenant lifecycle calls interleaved into the traffic.
//!
//! Two workers each drive one shard's group in the chunked round-robin
//! order of `molcache_serve::replay` (256-access `access_batch` calls)
//! and issue the shard's scheduled `resize`, `evict` and
//! `revoke`+`admit_to` calls between batches. Each shard is a 1 MB
//! cluster with a telemetry `Recorder` attached, exported at the end of
//! the pass.

use super::{app_text, energy_meter, timed, CacheSnapshot, Pass, Workload};
use crate::digest::fnv1a;
use crate::schedule::{lifecycle_schedule, LifecycleOp, ScheduledOp, RESIZE_PERIOD};
use crate::spans::{SpanId, Tracer};
use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_power::EnergyMeter;
use molcache_serve::{CacheService, ServeError, TenantHandle};
use molcache_sim::{BatchOutcome, CacheModel, Request};
use molcache_telemetry::{Recorder, Sink, SinkHandle};
use molcache_trace::tenants::{interleave_chunked, tenant_traces, TenantTrace};
use molcache_trace::Asid;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tenants: `Benchmark::ALL[0..8]`, art to twolf.
pub const TENANTS: usize = 8;
/// Cluster shards of the service; one worker drives each.
pub const SHARDS: usize = 2;
/// Accesses per tenant per pass.
pub const REFS_PER_TENANT: u64 = 1 << 17;
/// Accesses per `access_batch` call (the replay default).
pub const CHUNK: usize = 256;
/// Molecules per tile of a shard's cluster.
const TILE_MOLECULES: usize = 32;
/// Tiles of a shard's cluster.
const TILES: usize = 4;
/// Molecules of one shard: 1 MB of 8 KB molecules.
pub const SHARD_MOLECULES: usize = TILES * TILE_MOLECULES;

const WORKER_SPANS: [&str; SHARDS] = ["serve.worker.0", "serve.worker.1"];

/// The shard tenant `t` is placed on.
fn shard_of(tenant: usize) -> usize {
    tenant % SHARDS
}

/// The tenants placed on `shard`, in admission order.
fn group(shard: usize) -> Vec<usize> {
    (0..TENANTS).filter(|&t| shard_of(t) == shard).collect()
}

/// `access_batch` calls a shard's worker makes per pass.
fn turns(shard: usize) -> u64 {
    group(shard).len() as u64 * REFS_PER_TENANT.div_ceil(CHUNK as u64)
}

/// One shard's cluster: 1 MB, 4 tiles of 32 × 8 KB molecules, Randy
/// replacement, a 10 % goal and adaptive Algorithm-1 resizing (the
/// `molserve` geometry), publishing epochs into `recorder`.
fn shard_cache(seed: u64, shard: usize, recorder: &Arc<Mutex<Recorder>>) -> MolecularCache {
    let cfg = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(TILE_MOLECULES)
        .tiles_per_cluster(TILES)
        .clusters(1)
        .policy(RegionPolicy::Randy)
        .miss_rate_goal(0.1)
        .trigger(ResizeTrigger::GlobalAdaptive {
            initial_period: RESIZE_PERIOD,
        })
        .seed(seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .build()
        .expect("serve_churn geometry is valid");
    let sink: Arc<Mutex<dyn Sink>> = recorder.clone();
    MolecularCache::new(cfg).with_sink(SinkHandle::shared(sink, SinkHandle::DEFAULT_EPOCH_LENGTH))
}

/// Inputs of the workload.
pub struct ServeChurn {
    seed: u64,
    requests: Vec<Vec<Request>>,
    schedules: Vec<Vec<ScheduledOp>>,
    meter: EnergyMeter,
}

/// What one worker did.
#[derive(Default)]
struct WorkerOut {
    batch: BatchOutcome,
    batch_us: Vec<f64>,
    lifecycle_us: Vec<f64>,
    ops: u64,
    errors: Vec<String>,
    flushed_lines: u64,
}

impl WorkerOut {
    fn note<T>(&mut self, shard: usize, result: Result<T, ServeError>) -> Option<T> {
        self.ops += 1;
        result
            .map_err(|e| self.errors.push(format!("shard {shard}: {e}")))
            .ok()
    }
}

/// Applies one scheduled lifecycle call. Each call gets a span of its
/// own; a revoke and its readmit make one `lifecycle_us` sample.
fn apply(
    service: &CacheService,
    shard: usize,
    handles: &mut [TenantHandle],
    op: &ScheduledOp,
    out: &mut WorkerOut,
    tracer: &mut Tracer,
    parent: SpanId,
) {
    let h = handles[op.slot];
    let start = Instant::now();
    match op.op {
        LifecycleOp::Resize(target) => {
            let r = tracer.scope("lifecycle.resize", parent, 0, || service.resize(&h, target));
            out.note(shard, r);
        }
        LifecycleOp::Evict => {
            let r = tracer.scope("lifecycle.evict", parent, 0, || service.evict(&h));
            out.flushed_lines += out.note(shard, r).unwrap_or(0);
        }
        LifecycleOp::RevokeReadmit => {
            let r = tracer.scope("lifecycle.revoke", parent, 0, || service.revoke(&h));
            out.note(shard, r);
            let r = tracer.scope("lifecycle.admit", parent, 0, || {
                service.admit_to(h.asid(), shard)
            });
            if let Some(fresh) = out.note(shard, r) {
                handles[op.slot] = fresh;
            }
        }
    }
    out.lifecycle_us.push(start.elapsed().as_secs_f64() * 1e6);
}

/// Drives one shard's group to the end of its traces.
#[allow(clippy::too_many_arguments)]
fn drive(
    service: &CacheService,
    shard: usize,
    group: &[usize],
    handles: &mut [TenantHandle],
    requests: &[Vec<Request>],
    schedule: &[ScheduledOp],
    tracer: &mut Tracer,
    parent: SpanId,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut cursors = vec![0usize; group.len()];
    let mut pending = schedule.iter().peekable();
    let mut turn = 0u64;
    loop {
        let mut live = false;
        for (slot, &tenant) in group.iter().enumerate() {
            let reqs = &requests[tenant];
            let at = cursors[slot];
            if at >= reqs.len() {
                continue;
            }
            live = true;
            while let Some(op) = pending.next_if(|op| op.turn == turn) {
                apply(service, shard, handles, op, &mut out, tracer, parent);
            }
            let end = (at + CHUNK).min(reqs.len());
            let h = &handles[slot];
            let r = timed(
                tracer,
                "serve.access_batch",
                parent,
                (end - at) as u64,
                &mut out.batch_us,
                || service.access_batch(h, &reqs[at..end]),
            );
            if let Some(b) = out.note(shard, r) {
                out.batch.merge(&b);
            }
            cursors[slot] = end;
            turn += 1;
        }
        if !live {
            return out;
        }
    }
}

/// Accesses of shard 0's serialized order the traced-run calibration
/// drives through a bare cache.
const CALIBRATION_REFS: usize = 1 << 17;

/// Traced runs only: times `interleave_chunked` over the tenants'
/// streams, and bare `access_batch` over the first accesses of shard 0's
/// serialized order (its traffic without the service around the cache),
/// so the trace and core layers are measured on serve_churn's streams
/// as on repro_tables'.
fn calibrate(seed: u64, traces: &[TenantTrace], tracer: &mut Tracer) {
    let total = TENANTS as u64 * REFS_PER_TENANT;
    let order = tracer.scope("trace.interleave", None, total, || {
        interleave_chunked(traces, CHUNK)
    });
    let shard0: Vec<Request> = order
        .iter()
        .filter(|a| shard_of(usize::from(a.asid.raw()) - 1) == 0)
        .take(CALIBRATION_REFS)
        .map(|&a| Request::from(a))
        .collect();
    let mut cache = shard_cache(seed, 0, &Arc::default());
    for chunk in shard0.chunks(CHUNK) {
        let out = tracer.scope("core.access_batch", None, chunk.len() as u64, || {
            cache.access_batch(chunk)
        });
        black_box(out);
    }
}

impl Workload for ServeChurn {
    const NAME: &'static str = "serve_churn";
    const START: &'static str = "empty (a fresh two-shard service per pass)";
    const THREADS: usize = SHARDS;

    fn prepare(seed: u64, tracer: &mut Tracer) -> Self {
        let traces = tracer.scope("trace.gen", None, TENANTS as u64 * REFS_PER_TENANT, || {
            tenant_traces(TENANTS, REFS_PER_TENANT, seed)
        });
        if tracer.is_on() {
            calibrate(seed, &traces, tracer);
        }
        let requests = traces
            .iter()
            .map(|t| t.accesses.iter().map(|&a| Request::from(a)).collect())
            .collect();
        let schedules = (0..SHARDS)
            .map(|s| lifecycle_schedule(seed, s, group(s).len(), turns(s)))
            .collect();
        ServeChurn {
            seed,
            requests,
            schedules,
            meter: energy_meter(),
        }
    }

    fn pass(&mut self, tracer: &mut Tracer, parent: SpanId) -> Pass {
        let recorders: Vec<Arc<Mutex<Recorder>>> = (0..SHARDS).map(|_| Arc::default()).collect();
        let service = CacheService::new(SHARDS, |s| shard_cache(self.seed, s, &recorders[s]));
        let mut pass = Pass::default();
        let start = Instant::now();

        let mut handles = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            let asid = Asid::new(t as u16 + 1);
            let r = tracer.scope("lifecycle.admit", parent, 0, || {
                service.admit_to(asid, shard_of(t))
            });
            pass.ops += 1;
            match r {
                Ok(h) => handles.push(h),
                Err(e) => {
                    pass.errors.push(format!("admit {t}: {e}"));
                    return pass;
                }
            }
        }

        let workers: Vec<(WorkerOut, Tracer)> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..SHARDS)
                .map(|shard| {
                    let members = group(shard);
                    let mut owned: Vec<TenantHandle> =
                        members.iter().map(|&t| handles[t]).collect();
                    let mut wt = tracer.child();
                    let (service, requests) = (&service, &self.requests);
                    let schedule = &self.schedules[shard];
                    scope.spawn(move || {
                        let span = wt.open(WORKER_SPANS[shard], None);
                        let out = drive(
                            service, shard, &members, &mut owned, requests, schedule, &mut wt, span,
                        );
                        wt.close(span, out.batch.accesses);
                        (out, wt)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("serve_churn worker panicked"))
                .collect()
        });
        let mut total = BatchOutcome::default();
        let mut flushed_lines = 0;
        for (out, wt) in workers {
            tracer.adopt(wt, parent);
            total.merge(&out.batch);
            pass.batch_us.extend(out.batch_us);
            pass.lifecycle_us.extend(out.lifecycle_us);
            pass.ops += out.ops;
            pass.errors.extend(out.errors);
            flushed_lines += out.flushed_lines;
        }

        let shards: Vec<(CacheSnapshot, String)> = (0..SHARDS)
            .map(|s| {
                service.with_shard(s, |c| {
                    let per_app: Vec<String> = c
                        .stats()
                        .per_app
                        .iter()
                        .map(|(asid, st)| format!("{} {}", asid.raw(), app_text(st)))
                        .collect();
                    (CacheSnapshot::of(c), per_app.join(" | "))
                })
            })
            .collect();
        let contention = service.contention();
        let mut epochs = 0;
        let mut export_bytes = 0;
        for r in &recorders {
            let span = tracer.open("telemetry.export", parent);
            let rec = r.lock().expect("recorder lock");
            match rec.to_json() {
                Ok(json) => export_bytes += json.len(),
                Err(e) => pass.errors.push(format!("telemetry export: {e}")),
            }
            pass.ops += 1;
            epochs += rec.epochs().len();
            drop(rec);
            tracer.close(span, 0);
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.accesses = total.accesses;

        // Accounting identities, for any seed.
        let mut snap = CacheSnapshot::default();
        for (s, _) in &shards {
            snap.merge(s);
        }
        for (t, reqs) in self.requests.iter().enumerate() {
            let asid = Asid::new(t as u16 + 1);
            let st = service.with_shard(shard_of(t), |c| c.stats().app(asid));
            pass.check(st.accesses == reqs.len() as u64, || {
                format!(
                    "tenant {t}: {} accesses for a {}-access trace",
                    st.accesses,
                    reqs.len()
                )
            });
            pass.check(st.hits + st.misses == st.accesses, || {
                format!("tenant {t}: hits + misses != accesses: {}", app_text(&st))
            });
        }
        let shard_accesses: u64 = contention.iter().map(|c| c.accesses).sum();
        pass.check(shard_accesses == total.accesses, || {
            format!(
                "shards counted {shard_accesses} accesses, batches returned {}",
                total.accesses
            )
        });
        pass.check(
            snap.global.hits + snap.global.misses == snap.global.accesses,
            || format!("hits + misses != accesses: {}", app_text(&snap.global)),
        );

        pass.digests = shards
            .iter()
            .enumerate()
            .map(|(s, (_, text))| (format!("shard{s}"), fnv1a(text)))
            .collect();
        let acquisitions: u64 = contention.iter().map(|c| c.acquisitions).sum();
        let contended: u64 = contention.iter().map(|c| c.contended).sum();
        pass.counters = snap.counters(&self.meter);
        pass.counters.extend([
            ("lifecycle.flushed_lines", flushed_lines as f64),
            ("serve.lock_acquisitions", acquisitions as f64),
            (
                "serve.contended_ratio",
                contended as f64 / acquisitions.max(1) as f64,
            ),
            (
                "serve.lock_wait_ns",
                contention.iter().map(|c| c.lock_wait_ns).sum::<u64>() as f64,
            ),
            (
                "serve.imbalance",
                molcache_telemetry::imbalance(&contention),
            ),
            ("telemetry.epochs", epochs as f64),
            ("telemetry.export_bytes", export_bytes as f64),
        ]);
        pass
    }
}
