//! The one way out: a request's trace context, and the single exit every
//! response leaves through.
//!
//! Every request gets a 128-bit wire trace id at admission — accepted from
//! an incoming `traceparent` header or minted — and owns the [`Trace`] its
//! handler's spans record into: whichever thread is handling the request
//! enters it, and it travels with the request (inside the query's job, or
//! to the writer thread and back with a mutation's batch) when the request
//! changes threads. Whatever the request turns into is described
//! as an [`Outcome`] and leaves through [`answer`]: it stamps the id on the
//! response, counts the request and writes the bytes, then feeds the SLO
//! engine and runs the tail sampler, whose byte-budgeted trace store is the
//! only record of finished requests (`GET /v1/debug/traces` and
//! `GET /v1/debug/slow` are views over it).
//!
//! Nothing else in the crate writes a response, counts a request, records
//! an SLO event or offers a trace, so "every response carries its trace id
//! and is visible to the SLO engine and the sampler" holds by construction.

use crate::http::{self, Response};
use crate::server::Shared;
use precis_obs::slo::SloEvent;
use precis_obs::telemetry::{
    retain_reasons, RetainedTrace, SchedDecision, TraceId, MAX_SPANS_PER_TRACE,
};
use precis_obs::{ProfileSnapshot, Trace};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-request trace context: the external wire identity plus the recorder
/// of this request's spans.
pub(crate) struct TraceCtx {
    wire: TraceId,
    /// `wire` as 32-hex, cached — it is stamped on headers, envelopes, and
    /// log lines.
    pub(crate) hex: String,
    /// The spans the request's handler opened: whoever handles the request
    /// enters it for as long as it does. Its id is the internal
    /// span-correlation id (from the tracer's sequence, never derived from
    /// the wire id — a hostile `traceparent` cannot alias another request's
    /// spans).
    pub(crate) trace: Trace,
    /// False when no handler ran (see [`TraceCtx::uncaptured`]): nothing
    /// entered the trace, and a retained trace carries a root span
    /// [`answer`] synthesizes.
    handled: bool,
    /// When the acceptor took the connection: the start of the end-to-end
    /// latency the SLO engine and the sampler judge.
    pub(crate) admitted: Instant,
}

impl TraceCtx {
    /// Start the trace of a request a handler is about to serve: accept the
    /// wire id from a `traceparent` header or mint one, and give the request
    /// its recorder. Every handled request records — recording is a push
    /// into a `Vec` the request owns, bounded by [`MAX_SPANS_PER_TRACE`].
    pub(crate) fn begin(traceparent: Option<&str>, admitted: Instant) -> Self {
        let wire = traceparent
            .and_then(TraceId::parse_traceparent)
            .unwrap_or_else(TraceId::mint);
        TraceCtx::new(wire, true, admitted)
    }

    /// A minted trace for a response no request handler is behind (the
    /// acceptor's refusals, the panic rescue): there are no spans to
    /// collect.
    pub(crate) fn uncaptured(admitted: Instant) -> Self {
        TraceCtx::new(TraceId::mint(), false, admitted)
    }

    fn new(wire: TraceId, handled: bool, admitted: Instant) -> Self {
        TraceCtx {
            wire,
            hex: wire.to_hex(),
            trace: Trace::new(MAX_SPANS_PER_TRACE),
            handled,
            admitted,
        }
    }
}

/// What one request turned into, as the exit needs to know it.
pub(crate) struct Outcome<'a> {
    /// The `/v1/metrics` endpoint label.
    pub(crate) endpoint: &'static str,
    /// `"interactive"` / `"batch"` for queries; `""` elsewhere (judged by
    /// the interactive threshold).
    pub(crate) class: &'static str,
    pub(crate) response: Response,
    /// The scheduler's decision record, for requests that reached it.
    pub(crate) sched: Option<SchedDecision>,
    /// The executed query's predicted-vs-measured phases.
    pub(crate) profile: Option<&'a ProfileSnapshot>,
    pub(crate) wal_rollback: bool,
    pub(crate) panicked: bool,
}

impl Outcome<'static> {
    /// An outcome the scheduler never saw: no class, no decision record,
    /// no profile.
    pub(crate) fn of(endpoint: &'static str, response: Response) -> Self {
        Outcome {
            endpoint,
            class: "",
            response,
            sched: None,
            profile: None,
            wal_rollback: false,
            panicked: false,
        }
    }
}

/// Answer one request. First the bytes: echo the wire trace id —
/// `x-precis-trace-id` plus a `traceparent` continuation — embed it in an
/// error envelope's `details` so failures are retrievable by id, count the
/// request under `service` (the duration the endpoint's histogram is defined
/// over) and write. Then the record, so no client waits on it: feed the SLO
/// engine, run the tail sampler, and either retain the request's spans (with
/// the scheduler's decision record and the profile folded from them) or
/// count the drop. Consumes the trace either way.
pub(crate) fn answer(
    shared: &Shared,
    stream: &mut TcpStream,
    ctx: TraceCtx,
    mut outcome: Outcome<'_>,
    service: Duration,
) {
    let response = &mut outcome.response;
    http::embed_trace_id(response, &ctx.hex);
    response
        .extra_headers
        .push(format!("x-precis-trace-id: {}", ctx.hex));
    response.extra_headers.push(format!(
        "traceparent: {}",
        ctx.wire.traceparent(ctx.trace.id())
    ));
    shared
        .metrics
        .record_request(outcome.endpoint, response.status, service);
    // The peer may already be gone, which is its problem, not the server's.
    let _ = http::write_response(stream, response);
    // Admission to last byte written.
    let latency = ctx.admitted.elapsed();
    let status = response.status;

    let telem = &shared.telemetry;
    telem.slo.record(SloEvent {
        class: outcome.class,
        status,
        latency,
    });
    let reasons = retain_reasons(
        &telem.config,
        ctx.wire,
        status,
        latency,
        outcome.class,
        outcome.sched.as_ref(),
        outcome.wal_rollback,
        outcome.panicked,
    );
    if reasons.is_empty() {
        telem.store.drop_uninteresting();
        return;
    }
    if !telem.store.admit_retention(status, &reasons) {
        telem.store.drop_rate_limited();
        return;
    }
    let latency_ns = latency.as_nanos() as u64;
    let captured_at_ns = precis_obs::now_ns();
    let internal = ctx.trace.id();
    let (mut spans, span_drops) = ctx.trace.finish();
    if !ctx.handled {
        // No handler ran, so nothing recorded: synthesize the root span
        // from what the exit already knows so the detail endpoint still
        // shows the request's extent.
        spans.push(precis_obs::SpanRecord {
            trace: internal,
            id: 1,
            parent: 0,
            name: "request.degraded_capture",
            start_ns: captured_at_ns.saturating_sub(latency_ns),
            end_ns: captured_at_ns,
            thread: 0,
            fields: Default::default(),
            label: None,
        });
    }
    telem.store.offer(RetainedTrace {
        trace_id: ctx.hex,
        endpoint: outcome.endpoint,
        class: outcome.class,
        status,
        reasons,
        latency_ns,
        bucket_le: crate::metrics::bucket_le(latency.as_secs_f64()),
        sched: outcome.sched,
        // Cloned only here, after the trace won retention — the common
        // dropped path never copies the phase snapshot.
        profile: outcome.profile.cloned(),
        spans,
        span_drops,
    });
}
