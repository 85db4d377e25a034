//! Strided / streaming access generator.

use crate::access::{AccessKind, MemAccess};
use crate::addr::{Address, Asid};
use crate::gen::TraceSource;
use crate::rng::Rng;

/// Streams through a region with a fixed stride, wrapping at the end.
///
/// Models array scans and media-style streaming kernels: every line is
/// touched once per sweep, so reuse only exists if the whole region fits in
/// the cache. With `stride < 64` consecutive accesses share a line and the
/// stream benefits from larger line sizes (the paper's §3.2 motivation).
///
/// ```
/// use molcache_trace::{gen::{StrideSource, TraceSource}, Asid, Address};
/// let mut s = StrideSource::new(Asid::new(1), Address::new(0), 1 << 20, 64, 0.0, 7);
/// let a = s.next_access().unwrap();
/// let b = s.next_access().unwrap();
/// assert_eq!(b.addr.raw() - a.addr.raw(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct StrideSource {
    asid: Asid,
    base: Address,
    region_bytes: u64,
    /// The stride reduced modulo the region, so a step wraps with one
    /// subtraction.
    stride: u64,
    write_frac: f64,
    cursor: u64,
    rng: Rng,
}

impl StrideSource {
    /// Creates a strided stream.
    ///
    /// * `base` — first byte of the region.
    /// * `region_bytes` — region length; the cursor wraps back to `base`.
    /// * `stride` — byte distance between consecutive accesses.
    /// * `write_frac` — fraction of accesses that are stores.
    ///
    /// # Panics
    ///
    /// Panics if `region_bytes == 0` or `stride == 0`.
    pub fn new(
        asid: Asid,
        base: Address,
        region_bytes: u64,
        stride: u64,
        write_frac: f64,
        seed: u64,
    ) -> Self {
        assert!(region_bytes > 0, "region must be non-empty");
        assert!(stride > 0, "stride must be positive");
        StrideSource {
            asid,
            base,
            region_bytes,
            stride: stride % region_bytes,
            write_frac: write_frac.clamp(0.0, 1.0),
            cursor: 0,
            rng: Rng::seeded(seed),
        }
    }

    /// The stream's region length in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }
}

impl TraceSource for StrideSource {
    fn next_access(&mut self) -> Option<MemAccess> {
        let addr = self.base.byte_add(self.cursor);
        // `cursor + stride` stays below twice the region: past its end,
        // take the region off once. Compared this way, nothing overflows.
        let room = self.region_bytes - self.stride;
        self.cursor = if self.cursor >= room {
            self.cursor - room
        } else {
            self.cursor + self.stride
        };
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

    #[test]
    fn wraps_at_region_end() {
        let mut s = StrideSource::new(Asid::new(1), Address::new(1024), 256, 64, 0.0, 1);
        let addrs: Vec<u64> = (0..6)
            .map(|_| s.next_access().unwrap().addr.raw())
            .collect();
        assert_eq!(addrs, vec![1024, 1088, 1152, 1216, 1024, 1088]);
    }

    #[test]
    fn write_fraction_honoured() {
        let mut s = StrideSource::new(Asid::new(1), Address::new(0), 1 << 20, 8, 0.5, 2);
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| s.next_access().unwrap().kind.is_write())
            .count();
        let frac = writes as f64 / n as f64;
        assert!((0.47..=0.53).contains(&frac), "frac {frac}");
    }

    #[test]
    fn all_reads_when_zero_write_frac() {
        let mut s = StrideSource::new(Asid::new(1), Address::new(0), 4096, 4, 0.0, 3);
        assert!((0..100).all(|_| !s.next_access().unwrap().kind.is_write()));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        StrideSource::new(Asid::new(1), Address::new(0), 4096, 0, 0.0, 1);
    }

    #[test]
    fn sub_line_stride_shares_lines() {
        let mut s = StrideSource::new(Asid::new(1), Address::new(0), 4096, 16, 0.0, 1);
        let a = s.next_access().unwrap().addr;
        let b = s.next_access().unwrap().addr;
        assert_eq!(a.line(64), b.line(64));
    }
}
