//! The host-speed reference.
//!
//! The benchmark runs on a shared host whose other tenants move its
//! speed by 10–35 % over minutes. The drift slows every experiment of a
//! pass alike, the smallest CPU-bound ones included, and the process's
//! CPU time moves with its wall time, so it is the cores that run
//! slower, not the scheduler that takes them away. More work per run
//! cannot average out a drift that lasts longer than a run. So around
//! every set-up and every timed pass the benchmark times a fixed kernel,
//! and reports each time scaled to the speed at which the kernel takes
//! [`NOMINAL_S`].
//!
//! The kernel is a small cache simulation, the same kind of work as the
//! program's, so the drift moves it as it moves the program. It runs on
//! as many threads as the workload, each on a cache of its own, and
//! takes as long as its slowest thread: a workload whose two threads
//! meet at the end of every experiment waits for the slower core, and
//! so does the kernel. The kernel is this file's code and does not
//! change when the program does: the scaling cancels most of the host's
//! drift and none of a change's effect. On `miss_storm` it cancels too
//! little (the package README has the figures).

use std::hint::black_box;
use std::time::Instant;

/// Sets of the kernel's cache.
const SETS: usize = 4096;
/// Ways per set: 32 768 lines, 256 KB of tags.
const WAYS: usize = 8;
/// Accesses per timing.
const ACCESSES: u32 = 2_000_000;
/// Lines of the hot region three accesses in four fall into; the rest
/// spread over 128 times as many.
const HOT_LINES: u64 = 1 << 15;
const COLD_LINES: u64 = 1 << 22;
/// Kernel time at the reference speed, seconds: about its median on the
/// 2-vCPU Intel Xeon (2.1 GHz) the bounds were set on, so that scaled
/// times read close to that host's seconds.
pub const NOMINAL_S: f64 = 0.03;

/// One thread's cache: a tag and a last-use stamp per line.
struct Lru {
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Lru {
    fn new() -> Self {
        Lru {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
        }
    }

    /// Drives the cache with `ACCESSES` xorshift-generated line
    /// addresses and returns the hits.
    fn run(&mut self) -> u64 {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut hits = 0u64;
        for t in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lines = if x & 3 != 0 { HOT_LINES } else { COLD_LINES };
            let line = (x >> 8) & (lines - 1);
            let base = (line as usize & (SETS - 1)) * WAYS;
            let tag = line >> SETS.trailing_zeros();
            let tags = &mut self.tags[base..base + WAYS];
            let stamps = &mut self.stamps[base..base + WAYS];
            match tags.iter().position(|&w| w == tag) {
                Some(i) => {
                    hits += 1;
                    stamps[i] = t;
                }
                None => {
                    let victim = (0..WAYS)
                        .min_by_key(|&i| stamps[i])
                        .expect("a set has ways");
                    tags[victim] = tag;
                    stamps[victim] = t;
                }
            }
        }
        hits
    }
}

/// The kernel, on a fixed number of threads.
pub struct Reference {
    caches: Vec<Lru>,
}

impl Reference {
    /// A kernel that runs on `threads` threads (at least one).
    pub fn new(threads: usize) -> Self {
        Reference {
            caches: (0..threads.max(1)).map(|_| Lru::new()).collect(),
        }
    }

    /// Runs the kernel once on every thread and returns the wall time
    /// until the last one finished, in seconds.
    pub fn time_s(&mut self) -> f64 {
        let start = Instant::now();
        match self.caches.as_mut_slice() {
            [one] => {
                black_box(one.run());
            }
            many => std::thread::scope(|s| {
                for lru in many {
                    s.spawn(|| black_box(lru.run()));
                }
            }),
        }
        start.elapsed().as_secs_f64()
    }
}

/// `wall_s` scaled to the reference speed, given that the kernel took
/// `kernel_s` on the host around it.
pub fn at_reference(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * NOMINAL_S / kernel_s
}
