//! Dinero ("din") trace format support.
//!
//! The paper feeds L1-D miss traces to "a modified version of Dinero".
//! Dinero's classic input format is one reference per line:
//!
//! ```text
//! <label> <hex-address>
//! ```
//!
//! with label `0` = data read, `1` = data write, `2` = instruction fetch.
//! This module writes and reads that format so recorded traces (real or
//! synthetic) can round-trip through the same files Dinero-era tooling
//! used. Instruction fetches are mapped to reads on input (the simulators
//! here model unified lines).

use crate::access::{AccessKind, MemAccess};
use crate::addr::{Address, Asid};
use crate::gen::TraceSource;
use std::io::{self, BufRead, Write};

/// Writes accesses in din format (`label hex-address` per line).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_din<'a, I, W>(accesses: I, mut writer: W) -> io::Result<()>
where
    I: IntoIterator<Item = &'a MemAccess>,
    W: Write,
{
    for acc in accesses {
        let label = match acc.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        };
        writeln!(writer, "{label} {:x}", acc.addr.raw())?;
    }
    Ok(())
}

/// Errors from parsing a din trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum DinError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line did not match `<label> <hex-address>`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl std::fmt::Display for DinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DinError::Io(e) => write!(f, "din i/o error: {e}"),
            DinError::Malformed { line, text } => {
                write!(f, "malformed din record at line {line}: `{text}`")
            }
        }
    }
}

impl std::error::Error for DinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DinError::Io(e) => Some(e),
            DinError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for DinError {
    fn from(e: io::Error) -> Self {
        DinError::Io(e)
    }
}

/// Parses a whole din trace into memory, attributing every reference to
/// `asid`.
///
/// ```
/// use molcache_trace::din::read_din;
/// use molcache_trace::Asid;
///
/// let accs = read_din(std::io::Cursor::new("0 1000\n1 2000\n"), Asid::new(1))?;
/// assert_eq!(accs.len(), 2);
/// assert!(accs[1].kind.is_write());
/// # Ok::<(), molcache_trace::din::DinError>(())
/// ```
///
/// # Errors
///
/// Returns [`DinError::Malformed`] on the first unparsable line (blank
/// lines and `#` comments are skipped; see [`DinSource`] for the record
/// grammar) and [`DinError::Io`] on read failures.
pub fn read_din<R: BufRead>(reader: R, asid: Asid) -> Result<Vec<MemAccess>, DinError> {
    let mut src = DinSource::new(reader, asid);
    let mut out = Vec::new();
    while let Some(access) = src.next_access() {
        out.push(access);
    }
    match src.error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Parses one trimmed, non-blank, non-comment record: a label `0`, `1`
/// or `2`, then a hex address that fits 64 bits, written in hex digits
/// after at most one `0x` prefix; anything after the address is ignored.
fn parse_record(record: &str) -> Option<(AccessKind, u64)> {
    let mut parts = record.split_whitespace();
    let kind = match parts.next()? {
        "0" | "2" => AccessKind::Read,
        "1" => AccessKind::Write,
        _ => return None,
    };
    let addr = parts.next()?;
    let digits = addr.strip_prefix("0x").unwrap_or(addr);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    // Only an address beyond 64 bits is left to fail here.
    let addr = u64::from_str_radix(digits, 16).ok()?;
    Some((kind, addr))
}

/// A [`TraceSource`] that streams a din trace lazily from any reader.
///
/// Each line holds one record, `<label> <hex-address>`: label `0` (data
/// read), `1` (data write) or `2` (instruction fetch, read as a read),
/// and a hex address with an optional `0x` prefix. Blank lines and lines
/// starting with `#` are skipped. A line that is not UTF-8 or does not
/// parse ends the stream with [`DinError::Malformed`] at its line.
pub struct DinSource<R> {
    reader: R,
    asid: Asid,
    line: usize,
    /// The bytes of the line being parsed, kept across calls.
    buf: Vec<u8>,
    /// First parse error encountered (the stream ends at it; inspect via
    /// [`DinSource::error`]).
    error: Option<DinError>,
}

impl<R: BufRead> DinSource<R> {
    /// Creates a streaming din source attributed to `asid`.
    pub fn new(reader: R, asid: Asid) -> Self {
        DinSource {
            reader,
            asid,
            line: 0,
            buf: Vec::new(),
            error: None,
        }
    }

    /// The parse error that terminated the stream, if any.
    pub fn error(&self) -> Option<&DinError> {
        self.error.as_ref()
    }
}

impl<R: BufRead> TraceSource for DinSource<R> {
    fn next_access(&mut self) -> Option<MemAccess> {
        if self.error.is_some() {
            return None;
        }
        loop {
            self.buf.clear();
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.error = Some(DinError::Io(e));
                    return None;
                }
            }
            self.line += 1;
            let parsed = match std::str::from_utf8(&self.buf) {
                Ok(text) => {
                    let record = text.trim();
                    if record.is_empty() || record.starts_with('#') {
                        continue;
                    }
                    parse_record(record)
                }
                Err(_) => None,
            };
            if let Some((kind, addr)) = parsed {
                return Some(MemAccess::new(self.asid, Address::new(addr), kind));
            }
            self.error = Some(DinError::Malformed {
                line: self.line,
                text: String::from_utf8_lossy(&self.buf).trim().to_string(),
            });
            return None;
        }
    }

    fn asid(&self) -> Asid {
        self.asid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Benchmark;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_preserves_accesses() {
        let mut src = Benchmark::Ammp.source(Asid::new(3), 21);
        let original = src.collect_n(500);
        let mut bytes = Vec::new();
        write_din(&original, &mut bytes).unwrap();
        let parsed = read_din(io::Cursor::new(&bytes), Asid::new(3)).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn labels_map_to_kinds() {
        let text = "0 1000\n1 2000\n2 3000\n";
        let accs = read_din(io::Cursor::new(text), Asid::new(1)).unwrap();
        assert_eq!(accs.len(), 3);
        assert_eq!(accs[0].kind, AccessKind::Read);
        assert_eq!(accs[1].kind, AccessKind::Write);
        assert_eq!(accs[2].kind, AccessKind::Read, "ifetch maps to read");
        assert_eq!(accs[0].addr, Address::new(0x1000));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a comment\n\n0 40\n";
        let accs = read_din(io::Cursor::new(text), Asid::new(1)).unwrap();
        assert_eq!(accs.len(), 1);
    }

    #[test]
    fn hex_prefix_accepted() {
        let accs = read_din(io::Cursor::new("1 0xdeadbeef\n"), Asid::new(1)).unwrap();
        assert_eq!(accs[0].addr, Address::new(0xdead_beef));
    }

    #[test]
    fn malformed_lines_reported_with_position() {
        let err = read_din(io::Cursor::new("0 40\n7 80\n"), Asid::new(1)).unwrap_err();
        match err {
            DinError::Malformed { line, text } => {
                assert_eq!(line, 2);
                assert_eq!(text, "7 80");
            }
            other => panic!("expected malformed, got {other}"),
        }
        assert!(read_din(io::Cursor::new("0\n"), Asid::new(1)).is_err());
        assert!(read_din(io::Cursor::new("0 zz\n"), Asid::new(1)).is_err());
        // One `0x` prefix and hex digits only: no doubled prefix, no sign,
        // no bare prefix, nothing beyond 64 bits.
        for bad in [
            "0 0x0x40",
            "0 +40",
            "1 0x+40",
            "1 -40",
            "0 0x",
            "2 0X40",
            "0 10000000000000000",
        ] {
            let err = read_din(io::Cursor::new(format!("0 40\n{bad}\n")), Asid::new(1));
            match err {
                Err(DinError::Malformed { line, text }) => {
                    assert_eq!((line, text.as_str()), (2, bad));
                }
                other => panic!("`{bad}` parsed: {other:?}"),
            }
        }
        // A line that is not UTF-8 is malformed at its line, not an i/o
        // error, in both readers.
        let bytes: &[u8] = b"0 40\n\n1 8\xff0\n0 c0\n";
        let want = "malformed din record at line 3: `1 8\u{fffd}0`";
        let err = read_din(io::Cursor::new(bytes), Asid::new(1)).unwrap_err();
        assert_eq!(err.to_string(), want);
        let mut src = DinSource::new(io::Cursor::new(bytes), Asid::new(1));
        assert_eq!(src.collect_n(8).len(), 1);
        assert_eq!(src.error().unwrap().to_string(), want);
    }

    #[test]
    fn streaming_source_yields_and_stops_on_error() {
        let text = "0 40\n1 80\nbogus line\n0 c0\n";
        let mut src = DinSource::new(io::Cursor::new(text), Asid::new(2));
        assert_eq!(src.next_access().unwrap().addr, Address::new(0x40));
        assert_eq!(src.next_access().unwrap().addr, Address::new(0x80));
        assert!(src.next_access().is_none(), "stops at the bad line");
        assert!(src.error().is_some());
        assert_eq!(src.asid(), Asid::new(2));
    }

    #[test]
    fn streamed_equals_batch() {
        let mut gen = Benchmark::Parser.source(Asid::new(1), 5);
        let original = gen.collect_n(200);
        let mut bytes = Vec::new();
        write_din(&original, &mut bytes).unwrap();
        let mut src = DinSource::new(io::Cursor::new(&bytes), Asid::new(1));
        let streamed = src.collect_n(500);
        assert_eq!(streamed, original);
    }

    /// The bytes a din trace is made of, plus a few that break it.
    const DINISH: &[u8] = b"0129x afAF#\n\r-+\xff";

    /// A pinned din trace to damage: 64 accesses of ammp.
    fn trace_bytes() -> Vec<u8> {
        let accesses = Benchmark::Ammp.source(Asid::new(1), 7).collect_n(64);
        let mut bytes = Vec::new();
        write_din(&accesses, &mut bytes).unwrap();
        bytes
    }

    /// Reads `bytes` with both readers (a panic fails the case) and
    /// checks that they agree: the same accesses when the trace parses;
    /// otherwise the same error at the same line, and the source streams
    /// exactly the accesses of the lines before it.
    fn read_both(bytes: &[u8]) -> Result<(), TestCaseError> {
        let batch = read_din(io::Cursor::new(bytes), Asid::new(1));
        let mut src = DinSource::new(io::Cursor::new(bytes), Asid::new(1));
        let mut streamed = Vec::new();
        while let Some(access) = src.next_access() {
            streamed.push(access);
        }
        prop_assert!(src.next_access().is_none(), "a stopped stream restarted");
        match (batch, src.error()) {
            (Ok(all), None) => prop_assert_eq!(all, streamed),
            (
                Err(DinError::Malformed { line, text }),
                Some(DinError::Malformed { line: l, text: t }),
            ) => {
                prop_assert_eq!((line, &text), (*l, t));
                prop_assert!(line >= 1, "lines count from 1");
                prop_assert_eq!(text.trim(), text.as_str(), "the text is trimmed");
                // The lines before the bad one parse on their own, into
                // exactly what the source streamed.
                let before: usize = bytes
                    .split_inclusive(|&b| b == b'\n')
                    .take(line - 1)
                    .map(<[u8]>::len)
                    .sum();
                let prefix = read_din(io::Cursor::new(&bytes[..before]), Asid::new(1));
                prop_assert_eq!(prefix.ok(), Some(streamed));
            }
            (batch, streamed_err) => {
                prop_assert!(
                    false,
                    "the readers disagree: {:?} vs {:?}",
                    batch.err(),
                    streamed_err
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn din_readers_agree_on_random_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            steer in proptest::collection::vec(0usize..DINISH.len(), 0..96),
        ) {
            read_both(&bytes)?;
            // Bytes drawn from the din alphabet reach the address parser.
            let dinish: Vec<u8> = steer.iter().map(|&i| DINISH[i]).collect();
            read_both(&dinish)?;
        }

        #[test]
        fn din_readers_agree_on_damaged_traces(
            cut in proptest::num::u64::ANY,
            edits in proptest::collection::vec(
                (proptest::num::u64::ANY, 0u8..=255, 0u8..3),
                1..6,
            ),
        ) {
            let bytes = trace_bytes();
            read_both(&bytes)?;
            // A truncation anywhere.
            let at = (cut % (bytes.len() as u64 + 1)) as usize;
            read_both(&bytes[..at])?;
            // A few byte edits: overwrite, insert or delete.
            let mut damaged = bytes;
            for &(pos, byte, kind) in &edits {
                let at = (pos % (damaged.len() as u64 + 1)) as usize;
                match kind {
                    0 if at < damaged.len() => damaged[at] = byte,
                    1 => damaged.insert(at, byte),
                    _ if at < damaged.len() => {
                        damaged.remove(at);
                    }
                    _ => {}
                }
            }
            read_both(&damaged)?;
        }
    }
}
