#![forbid(unsafe_code)]
//! # pm-obs — zero-dependency observability for the parity-multicast stack
//!
//! One coherent, typed event vocabulary plus lock-cheap metrics, threaded
//! through every layer of the repo:
//!
//! - **Events** ([`event`]): the [`Event`] enum names everything the
//!   protocol, transports, codec, and simulator can report — session
//!   lifecycle, per-round NAK/repair traffic, suppression decisions,
//!   network faults, decode-cache behaviour. The vocabulary is declared
//!   once, as a table; the enum, [`EVENT_NAMES`], the wire names, session
//!   attribution and [`Event::to_json`] (a flat `{"t": .., "type": .., ..}`
//!   object for JSONL traces) are generated from it.
//! - **Recorders** ([`recorder`]): the [`Recorder`] trait with three
//!   implementations — [`NullRecorder`] (the default; [`Obs::emit`] is a
//!   single branch and never constructs the event), [`JsonlRecorder`]
//!   (one JSON object per line to any writer), and [`RingRecorder`]
//!   (bounded in-memory buffer: tests, and each session's flight
//!   recorder — see [`flight`]). Instrumented types hold an
//!   [`Obs`] handle, defaulting to [`Obs::null`]. Parallel producers
//!   stage events in a thread-local [`EventBuffer`] and flush whole
//!   trials at a time, so multi-threaded traces never interleave
//!   mid-trial.
//! - **Metrics** ([`metrics`]): atomic [`Counter`]s and [`Gauge`]s, a
//!   fixed-bucket log2 [`Histogram`] with p50/p90/p99/max, RAII
//!   [`SpanTimer`]s, and a [`MetricsRegistry`] with a text snapshot.
//! - **Stats** ([`stats`]): the Welford [`RunningStat`] shared with
//!   `pm-sim`, with `NaN`-honest variance and a [`RunningStat::ci95`]
//!   confidence-interval helper.
//!
//! The crate deliberately depends only on the vendored `serde`/
//! `serde_json` already in-tree — no external registry crates.
//!
//! ```
//! use std::sync::Arc;
//! use pm_obs::{Event, Obs, RingRecorder};
//!
//! let ring = Arc::new(RingRecorder::new(16));
//! let obs = Obs::new(ring.clone());
//! obs.emit(0.25, || Event::DataSent { session: 7, group: 0, index: 3 });
//! assert_eq!(ring.events()[0].1.name(), "data_sent");
//! ```

pub mod analyze;
pub mod check;
pub mod event;
pub mod flight;
pub mod metrics;
pub mod recorder;
pub mod stats;

pub use analyze::{analyze_trace, Incident, SessionAnalysis, SessionConfigInfo, TraceAnalysis};
pub use check::{validate_event, validate_trace, Census, TraceError};
pub use event::{Event, MsgKind, Outcome, Role, EVENT_NAMES};
pub use flight::{Postmortem, POSTMORTEM_SCHEMA};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, SpanTimer};
pub use recorder::{
    EventBuffer, JsonlRecorder, NullRecorder, Obs, Recorder, RingRecorder, Stamp, Stopwatch,
};
pub use stats::RunningStat;
