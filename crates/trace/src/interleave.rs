//! Interleaving per-application streams into a CMP-visible stream.
//!
//! The paper runs benchmarks concurrently on a CMP, so the shared L2
//! observes an interleaving of all applications' (post-L1) reference
//! streams. Two interleavings are provided:
//!
//! * [`RoundRobin`] — one access per application per turn; models equal
//!   per-core progress at reference granularity.
//! * [`Quantum`] — `q` consecutive accesses per application before
//!   switching; models coarser scheduling (and stresses partitions
//!   differently, since bursts from one application arrive back to back).

use crate::access::MemAccess;
use crate::addr::Asid;
use crate::error::TraceError;
use crate::gen::{BoxedSource, TraceSource};

/// A multi-application workload: the set of concurrently running streams.
pub struct Workload {
    sources: Vec<BoxedSource>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("apps", &self.sources.len())
            .finish()
    }
}

impl Workload {
    /// Creates a workload from per-application sources.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyWorkload`] when `sources` is empty and
    /// [`TraceError::DuplicateAsid`] when two sources share an ASID.
    pub fn new(sources: Vec<BoxedSource>) -> Result<Self, TraceError> {
        if sources.is_empty() {
            return Err(TraceError::EmptyWorkload);
        }
        for i in 0..sources.len() {
            for j in i + 1..sources.len() {
                if sources[i].asid() == sources[j].asid() {
                    return Err(TraceError::DuplicateAsid(sources[i].asid()));
                }
            }
        }
        Ok(Workload { sources })
    }

    /// The ASIDs of the participating applications, in source order.
    pub fn asids(&self) -> Vec<Asid> {
        self.sources.iter().map(|s| s.asid()).collect()
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Returns `true` when the workload has no applications (never true for
    /// a constructed `Workload`; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Round-robin interleaving: one access per app per turn.
    pub fn round_robin(self) -> RoundRobin {
        RoundRobin {
            sources: self.sources,
            next: 0,
            live: None,
        }
    }

    /// Quantum interleaving: `quantum` accesses per app before switching.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn quantum(self, quantum: u64) -> Quantum {
        assert!(quantum > 0, "quantum must be positive");
        Quantum {
            sources: self.sources,
            next: 0,
            remaining: quantum,
            quantum,
            live: None,
        }
    }
}

/// Round-robin interleaver (see [`Workload::round_robin`]).
pub struct RoundRobin {
    sources: Vec<BoxedSource>,
    next: usize,
    /// Bitmask-free liveness: indices of exhausted sources are skipped by
    /// retry; `live` caches whether any source still produces accesses.
    live: Option<bool>,
}

impl std::fmt::Debug for RoundRobin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundRobin")
            .field("apps", &self.sources.len())
            .field("next", &self.next)
            .finish()
    }
}

impl Iterator for RoundRobin {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if self.live == Some(false) {
            return None;
        }
        for _ in 0..self.sources.len() {
            let idx = self.next;
            self.next += 1;
            if self.next == self.sources.len() {
                self.next = 0;
            }
            if let Some(acc) = self.sources[idx].next_access() {
                return Some(acc);
            }
        }
        self.live = Some(false);
        None
    }
}

/// Quantum interleaver (see [`Workload::quantum`]).
pub struct Quantum {
    sources: Vec<BoxedSource>,
    next: usize,
    remaining: u64,
    quantum: u64,
    live: Option<bool>,
}

impl std::fmt::Debug for Quantum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quantum")
            .field("apps", &self.sources.len())
            .field("quantum", &self.quantum)
            .finish()
    }
}

impl Iterator for Quantum {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if self.live == Some(false) {
            return None;
        }
        for _ in 0..self.sources.len() {
            if self.remaining == 0 {
                self.next += 1;
                if self.next == self.sources.len() {
                    self.next = 0;
                }
                self.remaining = self.quantum;
            }
            if let Some(acc) = self.sources[self.next].next_access() {
                self.remaining -= 1;
                return Some(acc);
            }
            // Current source exhausted: move on immediately.
            self.remaining = 0;
        }
        self.live = Some(false);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::gen::{ReplaySource, StrideSource};

    fn stream(asid: u16, n: u64) -> BoxedSource {
        let accs = (0..n)
            .map(|i| MemAccess::read(Asid::new(asid), Address::new(i * 64)))
            .collect();
        Box::new(ReplaySource::new(Asid::new(asid), accs))
    }

    #[test]
    fn empty_workload_rejected() {
        assert_eq!(
            Workload::new(vec![]).unwrap_err(),
            TraceError::EmptyWorkload
        );
    }

    #[test]
    fn duplicate_asid_rejected() {
        let err = Workload::new(vec![stream(1, 2), stream(1, 2)]).unwrap_err();
        assert_eq!(err, TraceError::DuplicateAsid(Asid::new(1)));
    }

    #[test]
    fn round_robin_alternates() {
        let w = Workload::new(vec![stream(1, 3), stream(2, 3)]).unwrap();
        let asids: Vec<u16> = w.round_robin().map(|a| a.asid.raw()).collect();
        assert_eq!(asids, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn round_robin_drains_unequal_lengths() {
        let w = Workload::new(vec![stream(1, 1), stream(2, 4)]).unwrap();
        let asids: Vec<u16> = w.round_robin().map(|a| a.asid.raw()).collect();
        assert_eq!(asids, vec![1, 2, 2, 2, 2]);
    }

    #[test]
    fn quantum_runs_in_bursts() {
        let w = Workload::new(vec![stream(1, 4), stream(2, 4)]).unwrap();
        let asids: Vec<u16> = w.quantum(2).map(|a| a.asid.raw()).collect();
        assert_eq!(asids, vec![1, 1, 2, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn quantum_skips_exhausted() {
        let w = Workload::new(vec![stream(1, 1), stream(2, 3)]).unwrap();
        let asids: Vec<u16> = w.quantum(2).map(|a| a.asid.raw()).collect();
        assert_eq!(asids, vec![1, 2, 2, 2]);
    }

    #[test]
    fn infinite_sources_interleave() {
        let a: BoxedSource = Box::new(StrideSource::new(
            Asid::new(1),
            Address::new(0),
            1 << 16,
            64,
            0.0,
            1,
        ));
        let b: BoxedSource = Box::new(StrideSource::new(
            Asid::new(2),
            Address::new(1 << 30),
            1 << 16,
            64,
            0.0,
            2,
        ));
        let w = Workload::new(vec![a, b]).unwrap();
        let first_100: Vec<MemAccess> = w.round_robin().take(100).collect();
        assert_eq!(first_100.len(), 100);
        let ones = first_100.iter().filter(|a| a.asid.raw() == 1).count();
        assert_eq!(ones, 50);
    }
}
