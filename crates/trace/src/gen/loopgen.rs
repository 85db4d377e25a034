//! Loop generator: repeated sweeps over a fixed array.

use crate::access::{AccessKind, MemAccess};
use crate::addr::{Address, Asid};
use crate::gen::TraceSource;
use crate::rng::Rng;

/// Repeatedly sweeps an array front-to-back, optionally re-reading each
/// line several times before moving on.
///
/// Models media kernels (`cjpeg`, `epic`, `decode`): a macroblock or row
/// buffer is processed element by element, with each element touched a few
/// times. If the array fits the cache, every sweep after the first hits;
/// otherwise an LRU cache of any smaller size thrashes completely (the
/// classic cyclic-access pathology), making this the archetype where extra
/// partition capacity flips the miss rate from ~100 % to ~0 %.
#[derive(Debug, Clone)]
pub struct LoopSource {
    asid: Asid,
    base: Address,
    lines: u64,
    touches_per_line: u32,
    write_frac: f64,
    cursor: u64,
    touch: u32,
    rng: Rng,
}

impl LoopSource {
    /// Creates a loop over `array_bytes` with `touches_per_line` accesses to
    /// each 64-byte line per sweep.
    ///
    /// # Panics
    ///
    /// Panics if `array_bytes < 64` or `touches_per_line == 0`.
    pub fn new(
        asid: Asid,
        base: Address,
        array_bytes: u64,
        touches_per_line: u32,
        write_frac: f64,
        seed: u64,
    ) -> Self {
        assert!(array_bytes >= 64, "array below one line");
        assert!(touches_per_line > 0, "touches_per_line must be positive");
        LoopSource {
            asid,
            base,
            lines: array_bytes / 64,
            touches_per_line,
            write_frac: write_frac.clamp(0.0, 1.0),
            cursor: 0,
            touch: 0,
            rng: Rng::seeded(seed),
        }
    }

    /// Lines per sweep.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TraceSource for LoopSource {
    fn next_access(&mut self) -> Option<MemAccess> {
        let addr = self
            .base
            .byte_add(self.cursor * 64 + (self.touch as u64 * 8) % 64);
        self.touch += 1;
        if self.touch >= self.touches_per_line {
            self.touch = 0;
            self.cursor += 1;
            if self.cursor == self.lines {
                self.cursor = 0;
            }
        }
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
    fn sweeps_whole_array_then_wraps() {
        let mut s = LoopSource::new(Asid::new(1), Address::new(0), 4 * 64, 1, 0.0, 1);
        let lines: Vec<u64> = (0..8)
            .map(|_| s.next_access().unwrap().addr.line(64).0)
            .collect();
        assert_eq!(lines, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn touches_per_line_respected() {
        let mut s = LoopSource::new(Asid::new(1), Address::new(0), 2 * 64, 3, 0.0, 1);
        let lines: Vec<u64> = (0..6)
            .map(|_| s.next_access().unwrap().addr.line(64).0)
            .collect();
        assert_eq!(lines, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "touches_per_line")]
    fn zero_touches_panics() {
        LoopSource::new(Asid::new(1), Address::new(0), 64, 0, 0.0, 1);
    }
}
