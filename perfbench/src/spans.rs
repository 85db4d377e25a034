//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! are kept in memory while the benchmark runs and written out once at
//! the end, so recording one costs two clock reads and a `Vec` push. A
//! tracer that is off reads no clock at all: the untraced runs that give
//! the end-to-end metrics pay nothing for the instrumentation. A span also
//! counts the items (accesses) its call processed, so per-access costs are
//! measured where the work happens.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `None` when the tracer is off.
pub type SpanId = Option<u32>;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `serve.access_batch`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Items (accesses) the call processed; 0 when not counted.
    pub items: u64,
}

/// Collects spans; worker threads record into their own tracer (see
/// [`Tracer::child`]) and the caller adopts it after joining.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
        }
    }

    /// A recording tracer timing against `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Tracer {
            epoch: Some(epoch),
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same epoch (and on/off state), for a worker
    /// thread.
    pub fn child(&self) -> Self {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Whether the tracer records spans.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let epoch = self.epoch?;
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`], recording the `items`
    /// it processed.
    pub fn close(&mut self, id: SpanId, items: u64) {
        if let (Some(epoch), Some(id)) = (self.epoch, id) {
            let span = &mut self.spans[id as usize];
            span.end_ns = epoch.elapsed().as_nanos() as u64;
            span.items = items;
        }
    }

    /// Runs `f` inside a span named `name` that processes `items`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, items);
        out
    }

    /// Appends a worker's spans; its root spans become children of
    /// `parent`.
    pub fn adopt(&mut self, worker: Tracer, parent: SpanId) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(worker.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            ..s
        }));
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path` as JSON: a name table and one
    /// `[name, parent, start_ns, end_ns, items]` row per span (parent -1
    /// for a root).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(out, "{{\"names\": [{}],", quoted.join(", "))?;
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name is in the table");
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "[{name},{parent},{},{},{}]{sep}",
                s.start_ns, s.end_ns, s.items
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Children that overlap each other (parallel
/// workers) are counted once; the part of a child outside its parent is
/// ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Summed items.
    pub items: u64,
}

impl SpanTotals {
    /// Self time per item, ns (0 when no items were counted).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.items as f64
        }
    }
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
        t.items += s.items;
    }
    out
}
