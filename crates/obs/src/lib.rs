//! precis-obs — dependency-free tracing and per-query profiling for the
//! précis answer pipeline.
//!
//! Two cooperating layers, both designed around the same disarmed-fast-path
//! discipline as `precis_storage::failpoint` (one relaxed atomic load when
//! nothing is listening):
//!
//! 1. **Spans** ([`tracer`]): lightweight RAII spans with structured fields,
//!    monotonic timestamps, and parent ids. A span site is live only while
//!    the calling thread's current trace has a registered
//!    [`tracer::capture_trace`] buffer, which is also where its closed
//!    spans go — bounded by the capture's span cap, overflow counted. With
//!    no capture registered, `tracer::span` is a single
//!    `Ordering::Relaxed` load.
//! 2. **Profiles** ([`profile`]): an explicit per-query [`QueryProfile`]
//!    collector threaded through `DbGenOptions`, accumulating per-phase wall
//!    time (queue wait, parse, token lookup, schema generation, result
//!    database generation, NLG, rendering) and per-relation traversal counts
//!    (tuples fetched, index probes, tuple reads, dedup cache hits). When a
//!    calibrated cost model is attached, each relation also carries the
//!    paper's Formula 2 *predicted* time next to the *measured* wall time.
//!
//! Exporters ([`export`]): a human-readable profile table, Chrome
//! `trace_event` JSON for `chrome://tracing`, and [`PhaseAgg`] which folds
//! finished profiles into a Prometheus text exposition fragment. The
//! [`promfmt`] module validates Prometheus text expositions (CI pipes live
//! `/metrics` scrapes through it).
//!
//! On top of those sit the always-on layers ([`telemetry`], [`slo`]): wire
//! trace identity (W3C-style `traceparent`), per-request span capture via
//! [`tracer::capture_trace`], a tail sampler that retains only interesting
//! traces into a byte-budgeted store, and an SLO engine computing
//! multi-window error-budget burn rates.

pub mod export;
pub mod profile;
pub mod promfmt;
pub mod sched_obs;
pub mod slo;
pub mod telemetry;
pub mod tracer;

pub use export::{chrome_trace, render_profile_text};
pub use profile::{
    CostParams, Phase, PhaseAgg, ProfileSnapshot, QueryProfile, RelationDelta, RelationProfile,
};
pub use promfmt::validate_exposition;
pub use slo::{SloEngine, SloEvent, SloSpec, SloStatus};
pub use telemetry::{
    retain_reasons, RetainedTrace, SchedDecision, ShedDecision, TelemetryConfig, TraceFilter,
    TraceId, TraceStore,
};
pub use tracer::{
    capture_trace, current_trace, flush_thread, late_spans, new_trace_id, now_ns, span,
    trace_scope, with_trace, CapturedSpans, SpanGuard, SpanRecord, TraceCapture, TraceScope,
};
