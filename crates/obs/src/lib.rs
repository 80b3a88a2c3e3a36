//! # tcvs-obs
//!
//! Structured observability for the trusted-cvs stack: event tracing and a
//! metrics registry, with no dependencies beyond `std`.
//!
//! The paper's whole contribution is *how quickly* a deviating server is
//! detected (`k`-bounded detection, two-epoch bounds); this crate is what
//! lets the rest of the repository *observe* that claim instead of merely
//! asserting it: the simulator and the threaded deployment emit
//! [`Event`]s through a [`Tracer`] and account costs in a
//! [`MetricsRegistry`], and `tcvs-sim`/`tcvs-bench` turn the result into
//! detection-latency reports.
//!
//! Two properties are load-bearing:
//!
//! * **Cheap when dark.** A disabled [`Tracer`] is a `None` check; event
//!   payloads are built inside closures that never run without a sink, so
//!   the hot path allocates nothing. Metrics are plain atomics.
//! * **Deterministic under the simulator.** Events carry *logical* time
//!   (rounds, operation indices, counters) — never wall-clock — and span
//!   identifiers are pure functions of `(user, seq)` plus stage salts, so
//!   two seeded simulator runs render byte-identical logs *and* export
//!   byte-identical artifacts that CI can diff.
//!
//! On top of events and metrics sit three newer pieces:
//!
//! * [`SpanContext`] — wire-propagated trace/span identifiers that stitch
//!   one logical operation into a causally-linked tree across client,
//!   fault link, server, reply, and protocol verdict.
//! * [`FlightRecorder`] — a fixed-size, overwrite-oldest ring sink cheap
//!   enough to leave always-on; its retained tail is what gets dumped
//!   when a deviation verdict or crash fires after hours of traffic.
//! * Exporters — [`render_openmetrics`] (Prometheus/OpenMetrics text) and
//!   [`render_chrome_trace`] (Perfetto-loadable JSON).
//!
//! ```
//! use tcvs_obs::{Event, EventKind, Tracer};
//!
//! let (tracer, sink) = Tracer::memory();
//! tracer.emit(|| Event::new(3, EventKind::OpServed, 0).detail("ctr=3 op=put"));
//! assert_eq!(sink.len(), 1);
//! assert!(sink.render_log().contains("op-served"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod event;
mod export;
mod metrics;
mod recorder;
mod span;
mod trace;

pub use event::{render_log, Event, EventKind, NO_ACTOR};
pub use export::{
    json_escape, render_chrome_trace, render_chrome_trace_with_loss, render_openmetrics, TraceLoss,
};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, MetricEntry, MetricValue,
    MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{FlightRecorder, FLIGHT_RECORDER_DEFAULT_CAP};
pub use span::{stage, SpanContext, SpanId, TraceId};
pub use trace::{EventSink, MemorySink, Tracer, MEMORY_SINK_DEFAULT_CAP};
