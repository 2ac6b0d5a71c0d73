//! precis-obs — dependency-free tracing and per-query profiling for the
//! précis answer pipeline.
//!
//! One recorder, read two ways:
//!
//! 1. **Spans** ([`tracer`]): lightweight RAII spans with structured fields,
//!    monotonic timestamps, and parent ids, recorded into the [`Trace`] the
//!    request owns and the thread has entered — a plain bounded `Vec`, no
//!    registry, no lock. A span site with no trace entered is inert.
//! 2. **Profiles** ([`profile`]): a [`ProfileSnapshot`] is a fold over a
//!    trace's spans — per-phase wall time (queue wait, parse, token lookup,
//!    schema generation, result database generation, NLG, rendering) and
//!    per-relation traversal counts (tuples fetched, index probes, tuple
//!    reads, dedup hits). Given the calibrated cost model's parameters, each
//!    relation also carries the paper's Formula 2 *predicted* time next to
//!    the *measured* wall time.
//!
//! Exporters ([`export`]): a human-readable profile table, Chrome
//! `trace_event` JSON for `chrome://tracing`, and [`PhaseAgg`] which folds
//! finished profiles into a Prometheus text exposition fragment. The
//! [`promfmt`] module validates Prometheus text expositions (CI pipes live
//! `/metrics` scrapes through it).
//!
//! On top of those sit the always-on layers ([`telemetry`], [`slo`]): wire
//! trace identity (W3C-style `traceparent`), a tail sampler that retains
//! only interesting traces into a byte-budgeted store, and an SLO engine
//! computing multi-window error-budget burn rates.

pub mod export;
pub mod profile;
pub mod promfmt;
pub mod record;
pub mod sched_obs;
pub mod slo;
pub mod telemetry;
pub mod tracer;

pub use export::{chrome_trace, render_profile_text};
pub use profile::{CostParams, Phase, PhaseAgg, ProfileSnapshot, RelationProfile};
pub use promfmt::validate_exposition;
pub use record::{Fields, SpanRecord};
pub use slo::{SloEngine, SloEvent, SloSpec, SloStatus};
pub use telemetry::{
    retain_reasons, RetainedTrace, SchedDecision, ShedDecision, TelemetryConfig, TraceFilter,
    TraceId, TraceStore,
};
pub use tracer::{now_ns, span, Entered, SpanGuard, Trace};
