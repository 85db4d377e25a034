//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro_tables|serve_churn|miss_storm \
//!     [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! The run sets up `SETUP_REPS` times (input generation, construction
//! and one untimed warm-up pass), then repeats timed passes for
//! `--seconds`. Each set-up and each timed pass lies between two
//! timings of the host-speed reference kernel (`perfbench::speed`);
//! `setup_s` and `run_s` are reported at the kernel's reference speed,
//! so most of the shared host's drift cancels. With `--trace 1` it
//! spends half the time untraced and half traced, and reports the
//! per-layer metrics and the tracing overhead instead of the end-to-end
//! metrics. The last line of stdout
//! is one JSON object; the exit code is 1 when an output check failed.
//! `--bless` records the default seed's result digests in
//! `digests.txt`.

use molcache_bench::MachineInfo;
use perfbench::catalog::{self, END_TO_END, PER_LAYER};
use perfbench::spans::{self, Tracer};
use perfbench::speed::{self, Reference};
use perfbench::stats::{median, percentile};
use perfbench::workloads::miss_storm::MissStorm;
use perfbench::workloads::repro_tables::ReproTables;
use perfbench::workloads::serve_churn::ServeChurn;
use perfbench::workloads::{Pass, Workload};
use perfbench::{digest, host};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload repro_tables|serve_churn|miss_storm \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// Seed whose digests `digests.txt` stores.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed passes per phase, however long they take.
const MIN_PASSES: usize = 3;
/// Cores the workloads use at most (`Engine::new(2)`, two serve
/// workers), the base of `harness.cpu_utilization`.
const CORES_USED: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Output checks over every pass of a run.
struct Checks {
    /// Digests every pass must reproduce: the stored ones where they
    /// apply, else the first pass's.
    expected: Option<BTreeMap<String, u64>>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.errors.len() as u64;
        for e in &pass.errors {
            eprintln!("check failed: {e}");
        }
        let expected = self
            .expected
            .get_or_insert_with(|| pass.digests.iter().cloned().collect());
        for (key, got) in &pass.digests {
            self.attempted += 1;
            if expected.get(key) != Some(got) {
                self.failed += 1;
                let want = expected
                    .get(key)
                    .map_or("none".into(), |h| format!("{h:016x}"));
                eprintln!("check failed: digest {key} is {got:016x}, expected {want}");
            }
        }
    }
}

/// Timed passes until `seconds` have elapsed (and at least
/// [`MIN_PASSES`]), each under a `pass` span and each between two
/// timings of the reference kernel, whose mean is the pass's `kernel_s`.
fn measure<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    reference: &mut Reference,
    seconds: f64,
    checks: &mut Checks,
) -> Vec<Pass> {
    let mut time_kernel =
        |tracer: &mut Tracer| tracer.scope("speed.reference", None, 0, || reference.time_s());
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut before = time_kernel(tracer);
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        host::reset_peak_rss();
        let root = tracer.open("pass", None);
        let mut pass = w.pass(tracer, root);
        tracer.close(root, pass.accesses);
        pass.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        let after = time_kernel(tracer);
        pass.kernel_s = (before + after) / 2.0;
        before = after;
        checks.absorb(&pass);
        passes.push(pass);
    }
    passes
}

fn median_wall(passes: &[Pass]) -> f64 {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    median(&walls).expect("at least one pass")
}

/// `run_s`: the median pass wall time at the reference host speed.
fn run_s(passes: &[Pass]) -> f64 {
    let walls: Vec<f64> = passes
        .iter()
        .map(|p| speed::at_reference(p.wall_s, p.kernel_s))
        .collect();
    median(&walls).expect("at least one pass")
}

fn all_samples(passes: &[Pass], f: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p).iter().copied()).collect()
}

/// Prints every end-to-end metric of the report, including those the
/// result line leaves out: some workloads lack them, `error_rate` is 0
/// when all is well, and the peak resident set of `repro_tables` jumps
/// between allocator states from run to run. `setup_wall` is the median
/// host wall time of the set-ups.
fn print_end_to_end(
    values: &BTreeMap<&str, f64>,
    passes: &[Pass],
    setups: usize,
    setup_wall: f64,
    checks: &Checks,
) {
    let kernels: Vec<f64> = passes.iter().map(|p| p.kernel_s).collect();
    println!(
        "# reference kernel: median {:.3} ms around a pass, {:.3} ms at the reference speed",
        median(&kernels).expect("passes ran") * 1e3,
        speed::NOMINAL_S * 1e3
    );
    let line = |name: &str, value: String| println!("e2e {name:<26} {value}");
    line(
        "setup_s",
        format!(
            "{:.6} s at the reference speed (median of {setups} set-ups; host wall {setup_wall:.6} s)",
            values["setup_s"]
        ),
    );
    line(
        "run_s",
        format!(
            "{:.6} s at the reference speed (median of {} passes; host wall {:.6} s)",
            values["run_s"],
            passes.len(),
            median_wall(passes)
        ),
    );
    let accesses: u64 = passes.iter().map(|p| p.accesses).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let na = || "n/a (no access_batch calls)".to_string();
    line(
        "throughput_macc_s",
        if accesses == 0 {
            na()
        } else {
            format!("{:.4} M accesses/s", accesses as f64 / wall / 1e6)
        },
    );
    let batch = all_samples(passes, |p| &p.batch_us);
    let lifecycle = all_samples(passes, |p| &p.lifecycle_us);
    for (name, samples, p) in [
        ("batch_p50_us", &batch, 0.5),
        ("batch_p99_us", &batch, 0.99),
        ("lifecycle_p50_us", &lifecycle, 0.5),
    ] {
        let text = match percentile(samples, p) {
            Some(v) => format!("{v:.3} us (n={})", samples.len()),
            None if samples.is_empty() => "n/a (no such calls)".into(),
            None => format!("n/a (n={} is too few)", samples.len()),
        };
        line(name, text);
    }
    if !lifecycle.is_empty() {
        line(
            "lifecycle_total_ms",
            format!(
                "{:.3} ms per pass, summed over workers (median pass wall {:.3} ms)",
                lifecycle.iter().sum::<f64>() / 1e3 / passes.len() as f64,
                median_wall(passes) * 1e3
            ),
        );
    }
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    line(
        "peak_rss_mb",
        format!(
            "{:.1} MB (median over passes of the pass's peak)",
            median(&rss).expect("passes ran")
        ),
    );
    line(
        "error_rate",
        format!(
            "{} ({} failed of {} attempted)",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            checks.failed,
            checks.attempted
        ),
    );
    let last = passes.last().expect("at least one pass");
    for (name, key, unit) in [
        ("sim_miss_rate", "sim.miss_rate", ""),
        ("sim_cycles_per_access", "sim.cycles_per_access", " cycles"),
        (
            "sim_energy_nj_per_access",
            "sim.energy_nj_per_access",
            " nJ",
        ),
    ] {
        match last.counters.iter().find(|(k, _)| *k == key) {
            Some((_, v)) => line(name, format!("{v}{unit}")),
            None => line(name, "n/a (records only; see their digests)".into()),
        }
    }
}

/// The per-layer metrics of a traced phase.
///
/// `setup_spans` is how many spans set-up recorded before the traced
/// passes began.
fn per_layer(
    tracer: &Tracer,
    setup_spans: usize,
    untraced: &[Pass],
    traced: &[Pass],
    cpu_utilization: f64,
) -> BTreeMap<&'static str, f64> {
    let totals = spans::totals(tracer.spans());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_self = |name: &str| {
        let t = get(name);
        t.self_ns as f64 / t.count.max(1) as f64
    };
    let passes = traced.len() as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut keys: Vec<&'static str> = traced
        .iter()
        .flat_map(|p| p.counters.iter().map(|c| c.0))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.counters.iter().find(|c| c.0 == key).map(|c| c.1))
            .collect();
        m.insert(key, median(&values).expect("key came from a pass"));
    }
    for (metric, span) in [
        ("trace.gen_ns_per_access", "trace.gen"),
        ("trace.interleave_ns_per_access", "trace.interleave"),
        ("core.batch_ns_per_access", "core.access_batch"),
        ("serve.batch_ns_per_access", "serve.access_batch"),
    ] {
        m.insert(metric, get(span).ns_per_item());
    }
    for (metric, span) in [
        ("lifecycle.admit_us", "lifecycle.admit"),
        ("lifecycle.revoke_us", "lifecycle.revoke"),
        ("lifecycle.resize_us", "lifecycle.resize"),
        ("lifecycle.evict_us", "lifecycle.evict"),
    ] {
        m.insert(metric, mean_self(span) / 1e3);
    }
    m.insert(
        "serve.worker_run_s.0",
        get("serve.worker.0").total_ns as f64 / passes / 1e9,
    );
    m.insert(
        "serve.worker_run_s.1",
        get("serve.worker.1").total_ns as f64 / passes / 1e9,
    );
    m.insert(
        "telemetry.export_ms",
        get("telemetry.export").self_ns as f64 / passes / 1e6,
    );
    for e in &catalog::EXPERIMENTS {
        m.insert(e.metric, get(e.span).self_ns as f64 / passes / 1e9);
    }
    m.insert("harness.cpu_utilization", cpu_utilization);
    m.insert("harness.unattributed_s", mean_self("pass") / 1e9);
    m.insert(
        "metrics.record_json_ms",
        get("metrics.record_json").self_ns as f64 / passes / 1e6,
    );
    m.insert("tracing.overhead_s", run_s(traced) - run_s(untraced));
    m.insert(
        "tracing.spans_per_pass",
        (tracer.spans().len() - setup_spans) as f64 / passes,
    );
    m
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    let machine = MachineInfo::detect();
    println!(
        "# machine: cpu {} | nproc {} | {} | git {}",
        machine.cpu_model, machine.cores, machine.rustc, machine.git_sha
    );
    println!(
        "# workload {} | seed {} | {} s measured | caches start {}",
        W::NAME,
        args.seed,
        args.seconds,
        W::START
    );
    println!("# core, resize and sim counters: {}", W::COUNTERS);

    let digest_path = manifest_dir().join("digests.txt");
    let stored_text = std::fs::read_to_string(&digest_path).unwrap_or_default();
    let stored_applies = W::SEED_FREE || args.seed == DEFAULT_SEED;
    if args.bless && !stored_applies {
        eprintln!("--bless records the default seed ({DEFAULT_SEED}) only");
        return ExitCode::from(2);
    }
    let mut checks = Checks {
        expected: (stored_applies && !args.bless).then(|| digest::parse(&stored_text, W::NAME)),
        attempted: 0,
        failed: 0,
    };

    let mut tracer = if args.trace {
        Tracer::on(Instant::now())
    } else {
        Tracer::off()
    };
    let mut reference = Reference::new(W::THREADS);
    let mut setup_wall = Vec::with_capacity(SETUP_REPS);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut work = None;
    let mut before = reference.time_s();
    for _ in 0..SETUP_REPS {
        drop(work.take());
        let start = Instant::now();
        let mut w = W::prepare(args.seed, &mut tracer);
        let warm = w.pass(&mut Tracer::off(), None);
        let wall = start.elapsed().as_secs_f64();
        let after = reference.time_s();
        setup_wall.push(wall);
        setup_s.push(speed::at_reference(wall, (before + after) / 2.0));
        before = after;
        checks.absorb(&warm);
        work = Some(w);
    }
    let mut w = work.expect("at least one set-up");

    let phase = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = measure(
        &mut w,
        &mut Tracer::off(),
        &mut reference,
        phase,
        &mut checks,
    );
    let (defs, values) = if args.trace {
        let setup_spans = tracer.spans().len();
        let cpu_before = host::process_cpu_s();
        let start = Instant::now();
        let traced = measure(&mut w, &mut tracer, &mut reference, phase, &mut checks);
        let wall = start.elapsed().as_secs_f64();
        let cpu = host::process_cpu_s()
            .zip(cpu_before)
            .map_or(0.0, |(a, b)| a - b);
        let values = per_layer(
            &tracer,
            setup_spans,
            &untraced,
            &traced,
            cpu / (wall * CORES_USED),
        );
        for d in PER_LAYER.iter().chain(&catalog::layer_detail()) {
            println!(
                "layer {:<34} {} {}",
                d.name,
                values.get(d.name).copied().unwrap_or(0.0),
                d.unit
            );
        }
        let path = manifest_dir()
            .join("out")
            .join(format!("spans-{}.json", W::NAME));
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        (PER_LAYER, values)
    } else {
        let mut values = BTreeMap::new();
        values.insert("setup_s", median(&setup_s).expect("set-ups ran"));
        values.insert("run_s", run_s(&untraced));
        let setup_wall = median(&setup_wall).expect("set-ups ran");
        print_end_to_end(&values, &untraced, SETUP_REPS, setup_wall, &checks);
        (END_TO_END, values)
    };

    if args.bless && checks.failed == 0 {
        let digests: Vec<(String, u64)> = untraced[0].digests.clone();
        let text = digest::replace(&stored_text, W::NAME, &digests);
        if let Err(e) = std::fs::write(&digest_path, text) {
            eprintln!("could not write {}: {e}", digest_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "# recorded {} digests in {}",
            digests.len(),
            digest_path.display()
        );
    }
    let correct = checks.failed == 0;
    let values: BTreeMap<&str, f64> = values.into_iter().collect();
    println!(
        "{}",
        catalog::result_line(correct, checks.attempted, checks.failed, defs, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        ReproTables::NAME => run::<ReproTables>(&args),
        ServeChurn::NAME => run::<ServeChurn>(&args),
        MissStorm::NAME => run::<MissStorm>(&args),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
