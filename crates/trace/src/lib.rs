//! # snapedge-trace
//!
//! Structured, dependency-free event tracing for the snapedge offloading
//! runtime — the measurement substrate behind every figure the workspace
//! reproduces (the paper's whole evaluation is a decomposition of *where an
//! offloaded inference's time goes*: capture, transfer, restore, per-layer
//! execution).
//!
//! The pieces:
//!
//! * [`Tracer`] — a cheap cloneable recording handle shared by every
//!   component of a simulation (endpoints, links, model hosts). Records
//!   typed [`Event`]s with [`Lane`]/[`EventKind`]/byte counts against the
//!   **virtual** clock (timestamps are plain [`Duration`](std::time::Duration)s supplied by the
//!   caller, typically `SimClock::now()`), supports nested spans via
//!   [`Tracer::begin`]/[`Tracer::end`], and exposes named atomic
//!   [`Counter`]s.
//! * [`Trace`] — a finished, immutable event list with aggregation
//!   helpers: per-name totals and byte counts, window filtering, and
//!   [`Summary`] percentiles across repeated inferences.
//! * Renderers — the ASCII Gantt chart ([`render_ascii`]) and a JSON-lines
//!   exporter/parser ([`Trace::to_jsonl`] / [`Trace::from_jsonl`]) for
//!   bench binaries and offline analysis.
//!
//! ```
//! use snapedge_trace::{Lane, EventKind, Tracer};
//! use std::time::Duration;
//!
//! let tracer = Tracer::new();
//! let ms = Duration::from_millis;
//! let span = tracer.begin("exec_client", Lane::Client, EventKind::Exec, ms(0));
//! tracer.record("conv1", Lane::Client, EventKind::Layer, ms(0), ms(4));
//! tracer.record("pool1", Lane::Client, EventKind::Layer, ms(4), ms(5));
//! tracer.end(span, ms(5));
//!
//! let trace = tracer.finish();
//! assert_eq!(trace.duration_of("exec_client"), ms(5));
//! assert_eq!(trace.events().iter().filter(|e| e.depth == 1).count(), 2);
//! let jsonl = trace.to_jsonl();
//! assert_eq!(snapedge_trace::Trace::from_jsonl(&jsonl).unwrap(), trace);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod jsonl;
mod render;
mod summary;
mod trace;
mod tracer;

pub use event::{Event, EventKind, Lane};
pub use jsonl::TraceParseError;
pub use render::render_ascii;
pub use summary::Summary;
pub use trace::Trace;
pub use tracer::{Counter, SpanId, Tracer};
