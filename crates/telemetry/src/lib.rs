//! Epoch-based telemetry bus for the molecular cache.
//!
//! The paper's Algorithm 1 observes per-partition miss rates over
//! windows, resizes regions, and moves on — none of that dynamics is
//! visible in end-of-run summaries. This crate adds an event bus the
//! cache and simulation layers publish into:
//!
//! - [`EpochSample`] — per-partition, per-epoch accesses/misses/size/
//!   occupancy, the time-series behind a partition-size timeline;
//! - [`EpochActivity`] — cache-wide activity deltas per epoch, priced
//!   into energy by `molcache-power`'s `EnergyMeter` when one is set;
//! - [`Event::Access`] — per-reference latencies, folded into
//!   log2-bucketed [`LatencyHistogram`]s per app and globally;
//! - [`ResizeRecord`] — the structured log of every applied grow/shrink
//!   decision: which trigger fired, what was requested, what was applied.
//!
//! Consumers implement [`Sink`]; publishers hold a [`SinkHandle`]. The
//! default handle ([`SinkHandle::null`]) carries no sink, and every
//! publish site gates on [`SinkHandle::is_enabled`] before constructing
//! an event, so an unobserved cache pays one null-check per site and
//! produces bit-identical results. [`Recorder`] is the retaining sink:
//! it exports JSON time-series (via `molcache-metrics`' streaming writer) and
//! renders terminal tables and sparklines.
//!
//! Layering: this crate sits above `trace`/`sim`/`metrics`/`power` and
//! below `core`/`bench`. `core` publishes into it; `sim` stays
//! telemetry-agnostic (the [`SinkHandle`] implements `sim`'s
//! `AccessObserver` hook instead).

pub mod contention;
pub mod event;
pub mod hist;
pub mod recorder;
pub mod sink;

pub use contention::{imbalance, ShardContention};
pub use event::{
    EpochActivity, EpochSample, Event, ResizeDecisionInputs, ResizeKind, ResizeRecord,
};
pub use hist::LatencyHistogram;
pub use recorder::{runs_to_json, Recorder};
pub use sink::{NullSink, Sink, SinkHandle};
