//! Working-set generator: Zipf-skewed temporal reuse over a hot set.

use crate::access::{AccessKind, MemAccess};
use crate::addr::{Address, Asid};
use crate::dist::{Geometric, Sample, Zipf};
use crate::gen::TraceSource;
use crate::rng::Rng;

/// Accesses a fixed working set with Zipf-distributed line popularity and
/// geometric sequential runs.
///
/// This is the main temporal-locality archetype: a program touching a hot
/// set of `working_set_bytes` where popular lines are re-referenced far more
/// often than cold ones (`zipf_s` controls the skew), and each selected line
/// is followed by a short sequential run (`run_p` the geometric parameter —
/// `run_p = 1.0` disables runs).
///
/// Miss behaviour: with a cache (or partition) larger than the hot set the
/// miss rate collapses to near zero; smaller partitions see capacity misses
/// in proportion to the Zipf tail — exactly the lever the paper's resizing
/// algorithm responds to.
#[derive(Debug, Clone)]
pub struct WorkingSetSource {
    asid: Asid,
    base: Address,
    lines: u64,
    zipf: Zipf,
    write_frac: f64,
    run_len: Geometric,
    /// Remaining accesses in the current sequential run and its position
    /// (always below `lines`).
    run_remaining: u64,
    run_line: u64,
    rng: Rng,
}

/// Multiplier used for the rank→line pseudo-permutation. Any odd constant
/// is a bijection modulo a power of two; we use a golden-ratio constant for
/// good dispersion and take the result modulo the line or block count.
const PERM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl WorkingSetSource {
    /// Creates a working-set source.
    ///
    /// * `working_set_bytes` — total hot-set footprint (rounded down to a
    ///   whole number of 64-byte lines, minimum one line).
    /// * `zipf_s` — popularity skew (0 = uniform; 0.8–1.2 typical).
    /// * `run_p` — geometric parameter of sequential run lengths after each
    ///   jump (`1.0` = no runs; `0.25` = mean run of 4 lines).
    /// * `write_frac` — store fraction.
    ///
    /// # Panics
    ///
    /// Panics if `working_set_bytes < 64` or parameters are out of range.
    pub fn new(
        asid: Asid,
        base: Address,
        working_set_bytes: u64,
        zipf_s: f64,
        run_p: f64,
        write_frac: f64,
        seed: u64,
    ) -> Self {
        let zipf = Self::popularity(working_set_bytes, zipf_s);
        Self::with_popularity(asid, base, working_set_bytes, zipf, run_p, write_frac, seed)
    }

    /// The popularity table of a working set of `working_set_bytes` with
    /// skew `zipf_s`: one Zipf rank per 64-byte line, capped at 2^20
    /// ranks to bound memory (beyond that the tail is indistinguishable
    /// from uniform for our purposes).
    ///
    /// # Panics
    ///
    /// Panics if `working_set_bytes < 64` or `zipf_s` is negative or not
    /// finite.
    pub(crate) fn popularity(working_set_bytes: u64, zipf_s: f64) -> Zipf {
        assert!(working_set_bytes >= 64, "working set below one line");
        Zipf::new((working_set_bytes / 64).min(1 << 20) as usize, zipf_s)
    }

    /// Creates a working-set source of `working_set_bytes` that samples
    /// `zipf`, the table [`popularity`](Self::popularity) builds for that
    /// size, possibly shared with other sources. Draws the same stream as
    /// [`new`](Self::new) with the table's parameters.
    ///
    /// # Panics
    ///
    /// Panics if `zipf` has a rank count other than that table's, or if
    /// `run_p` is outside `(0, 1]`.
    pub(crate) fn with_popularity(
        asid: Asid,
        base: Address,
        working_set_bytes: u64,
        zipf: Zipf,
        run_p: f64,
        write_frac: f64,
        seed: u64,
    ) -> Self {
        let lines = working_set_bytes / 64;
        assert_eq!(
            zipf.len() as u64,
            lines.min(1 << 20),
            "one Zipf rank per line, up to 2^20"
        );
        assert!(run_p > 0.0 && run_p <= 1.0, "run_p must be in (0,1]");
        WorkingSetSource {
            asid,
            base,
            lines,
            zipf,
            write_frac: write_frac.clamp(0.0, 1.0),
            run_len: Geometric::new(run_p),
            run_remaining: 0,
            run_line: 0,
            rng: Rng::seeded(seed),
        }
    }

    /// Number of 64-byte lines in the hot set.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Lines per block in the rank→line permutation. Hot data in real
    /// programs clusters into contiguous structures (structs, arrays,
    /// pages); permuting at 8 KB-block granularity keeps that clustering
    /// — popular ranks fill whole blocks — while still decorrelating
    /// popularity from the raw address.
    const PERM_BLOCK_LINES: u64 = 128;

    /// The line of popularity rank `rank`, below `lines`.
    fn rank_to_line(&self, rank: u64) -> u64 {
        let bl = Self::PERM_BLOCK_LINES;
        if self.lines <= bl {
            return rank.wrapping_mul(PERM_MUL) % self.lines;
        }
        let nblocks = self.lines / bl;
        let block = (rank / bl).wrapping_mul(PERM_MUL) % nblocks;
        block * bl + rank % bl
    }
}

impl TraceSource for WorkingSetSource {
    fn next_access(&mut self) -> Option<MemAccess> {
        if self.run_remaining == 0 {
            let rank = self.zipf.sample(&mut self.rng);
            self.run_line = self.rank_to_line(rank);
            self.run_remaining = self.run_len.sample(&mut self.rng);
        }
        let line = self.run_line;
        self.run_line += 1;
        if self.run_line == self.lines {
            self.run_line = 0;
        }
        self.run_remaining -= 1;
        let addr = self
            .base
            .byte_add(line * 64 + (self.rng.gen_range(64) & !7));
        let kind = if self.write_frac > 0.0 && self.rng.gen_bool(self.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(MemAccess::new(self.asid, addr, kind))
    }

    fn asid(&self) -> Asid {
        self.asid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stays_inside_working_set() {
        let ws = 64 * 1024u64;
        let mut s =
            WorkingSetSource::new(Asid::new(1), Address::new(1 << 30), ws, 1.0, 0.5, 0.2, 5);
        for _ in 0..10_000 {
            let a = s.next_access().unwrap().addr.raw();
            assert!(a >= (1 << 30) && a < (1 << 30) + ws);
        }
    }

    #[test]
    fn popular_lines_dominate() {
        let mut s = WorkingSetSource::new(Asid::new(1), Address::new(0), 1 << 20, 1.1, 1.0, 0.0, 6);
        let mut counts = std::collections::HashMap::new();
        const N: usize = 40_000;
        for _ in 0..N {
            let line = s.next_access().unwrap().addr.line(64).0;
            *counts.entry(line).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = freqs.iter().take(10).sum();
        // Zipf(1.1) over 16K lines: top-10 lines carry a large share.
        assert!(
            top10 as f64 / N as f64 > 0.2,
            "top10 fraction {}",
            top10 as f64 / N as f64
        );
    }

    #[test]
    fn footprint_covers_many_lines() {
        let mut s =
            WorkingSetSource::new(Asid::new(1), Address::new(0), 256 * 1024, 0.6, 0.5, 0.0, 7);
        let mut lines = HashSet::new();
        for _ in 0..60_000 {
            lines.insert(s.next_access().unwrap().addr.line(64).0);
        }
        // 4096 lines in the set; a long run should touch most of them.
        assert!(lines.len() > 2000, "only {} lines touched", lines.len());
    }

    #[test]
    fn runs_are_sequential() {
        let mut s = WorkingSetSource::new(Asid::new(1), Address::new(0), 1 << 20, 0.0, 0.2, 0.0, 8);
        let mut sequential = 0u32;
        let mut prev = s.next_access().unwrap().addr.line(64).0;
        const N: u32 = 10_000;
        for _ in 0..N {
            let cur = s.next_access().unwrap().addr.line(64).0;
            if cur == prev + 1 || cur == prev {
                sequential += 1;
            }
            prev = cur;
        }
        // Mean run length 5 → ~80 % of transitions are sequential.
        assert!(sequential > N / 2, "sequential {sequential}");
    }

    #[test]
    #[should_panic(expected = "working set below one line")]
    fn tiny_working_set_panics() {
        WorkingSetSource::new(Asid::new(1), Address::new(0), 32, 1.0, 1.0, 0.0, 1);
    }
}
