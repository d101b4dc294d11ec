//! # intersect-obs
//!
//! The observability layer of the workspace: structured spans and events,
//! a process-global subscriber, streaming metrics, and exporters — with a
//! disabled-path cost of a single relaxed atomic load and **zero**
//! external dependencies.
//!
//! Every claim in the source paper is a *cost* claim (`O(k)` bits in
//! `O(log* k)` rounds, the `O(k·log^{(r)} k)` / `O(r)` trade-off), so the
//! repository meters everything. This crate is the one stream those meters
//! feed: protocol phases, engine session lifecycle, and per-message channel
//! traffic all become [`Event`]s carrying wall-clock *and* bit/round cost,
//! and one [`Subscriber`] collects them for export.
//!
//! | Piece | What it is |
//! |---|---|
//! | [`Event`] / [`EventKind`] | one record: a completed span (duration + optional [`CostDelta`]), an instant marker, or one message on a channel |
//! | [`Subscriber`] | the process-global collector; [`enabled`] is the only cost when nothing is installed |
//! | [`phase`] | thread-local phase labels and session attribution shared by spans, channels, and `Traced` transcripts |
//! | [`LogHistogram`] | log-bucketed streaming histogram (≤ 6.25 % relative error, exact below 16) |
//! | [`MetricsRegistry`] | named counters, gauges, and histograms (labeled series via [`metrics::labeled`], `# HELP` texts via [`MetricsRegistry::describe`]) |
//! | [`export`] | JSONL event stream, Chrome `chrome://tracing` JSON, Prometheus text exposition |
//! | [`serve`] | embedded zero-dependency HTTP server: `/metrics`, `/healthz`, `/sessions`, `/profile` |
//! | [`folded`] | folded flamegraph stacks (wall-clock or bit weighted) from span events |
//! | [`conformance`] | online checks of observed costs against theory envelopes |
//! | [`tracing`] | distributed trace contexts: deterministic 128-bit trace ids stitched across processes via request lines |
//! | [`flight`] | always-on lock-free flight recorder ring, dumped as JSONL on error, `SIGQUIT`, or `GET /flightrecorder` |
//!
//! # Examples
//!
//! ```
//! use intersect_obs as obs;
//!
//! let sub = obs::Subscriber::new();
//! let installed = sub.install();
//! {
//!     let span = obs::phase::span("demo", "work");
//!     span.finish(obs::CostDelta { bits_sent: 128, bits_received: 64, rounds: 2 });
//! }
//! obs::counter_add("demo_units_total", 1);
//! let events = sub.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "work");
//! drop(installed); // uninstalls; the hot path is a single atomic load again
//! assert!(!obs::enabled());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conformance;
pub mod event;
pub mod export;
pub mod flight;
pub mod folded;
pub mod histogram;
pub mod metrics;
pub mod phase;
pub mod serve;
pub mod subscriber;
pub mod tracing;

pub use conformance::{ConformanceConfig, ConformanceMonitor, ConformanceReport, Envelope, Health};
pub use event::{CostDelta, Direction, Event, EventKind, Party};
pub use histogram::LogHistogram;
pub use metrics::{Metric, MetricsRegistry};
pub use serve::{Sources, TelemetryServer};
pub use subscriber::{
    counter_add, describe, emit_with, enabled, gauge_add, gauge_set, instant, message, observe,
    Installed, Subscriber,
};
pub use tracing::{TraceContext, TraceScope};
