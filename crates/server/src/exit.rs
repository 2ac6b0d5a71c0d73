//! The one way out: a request's trace context, and the single exit every
//! response leaves through.
//!
//! Every request gets a 128-bit wire trace id at admission — accepted from
//! an incoming `traceparent` header or minted — and its spans are captured
//! into a per-request buffer. Whatever the request turns into is described
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
use precis_obs::{ProfileSnapshot, TraceCapture};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-request trace context: the external wire identity plus the internal
/// capture collecting this request's spans.
pub(crate) struct TraceCtx {
    wire: TraceId,
    /// `wire` as 32-hex, cached — it is stamped on headers, envelopes, and
    /// log lines.
    pub(crate) hex: String,
    /// Internal span-correlation id (from the tracer's sequence, never
    /// derived from the wire id — a hostile `traceparent` cannot alias
    /// another request's spans).
    pub(crate) internal: u64,
    /// `None` when the capture bucket was closed at admission: no
    /// per-request buffer is registered, so the request's span sites stay
    /// inert. If the trace still wins retention, [`answer`] synthesizes its
    /// root span.
    capture: Option<TraceCapture>,
    /// When the acceptor took the connection: the start of the end-to-end
    /// latency the SLO engine and the sampler judge.
    pub(crate) admitted: Instant,
}

impl TraceCtx {
    /// Start a trace for one request: accept the wire id from a
    /// `traceparent` header or mint one, allocate a fresh internal span id,
    /// and register the per-request capture buffer.
    pub(crate) fn begin(shared: &Shared, traceparent: Option<&str>, admitted: Instant) -> Self {
        let wire = traceparent
            .and_then(TraceId::parse_traceparent)
            .unwrap_or_else(TraceId::mint);
        let mut ctx = TraceCtx::new(wire, admitted);
        // Span capture is speculative (the tail verdict comes at the exit)
        // and costs tens of microseconds per request, so it is
        // token-bucketed: head-sampled requests always capture — they are
        // the deterministic always-on baseline — and everything else
        // captures only while the capture bucket has tokens.
        if wire.head_sampled() || shared.telemetry.store.admit_capture() {
            ctx.capture = Some(precis_obs::capture_trace(ctx.internal, MAX_SPANS_PER_TRACE));
        }
        ctx
    }

    /// A minted trace with no capture buffer, for a response no request
    /// handler is behind (the acceptor's refusals, the panic rescue): there
    /// are no spans to collect.
    pub(crate) fn uncaptured(admitted: Instant) -> Self {
        TraceCtx::new(TraceId::mint(), admitted)
    }

    fn new(wire: TraceId, admitted: Instant) -> Self {
        TraceCtx {
            wire,
            hex: wire.to_hex(),
            internal: precis_obs::new_trace_id(),
            capture: None,
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
/// engine, run the tail sampler, and either retain the captured spans (with
/// the scheduler's decision record and the profile's predicted-vs-measured
/// phases) or count the drop. Consumes the capture either way.
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
        ctx.wire.traceparent(ctx.internal)
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
        // Dropping the capture unregisters it and discards its spans.
        telem.store.drop_uninteresting();
        return;
    }
    if !telem.store.admit_retention(status, &reasons) {
        telem.store.drop_rate_limited();
        return;
    }
    let latency_ns = latency.as_nanos() as u64;
    let captured_at_ns = precis_obs::now_ns();
    let (spans, span_drops) = match ctx.capture {
        Some(capture) => {
            let captured = capture.take();
            (captured.spans, captured.dropped)
        }
        // Degraded capture: no buffer was registered, yet this trace won
        // retention after all. Synthesize the root span from what the exit
        // already knows so the detail endpoint still shows the request's
        // extent.
        None => (
            vec![precis_obs::SpanRecord {
                trace: ctx.internal,
                id: 1,
                parent: 0,
                name: "request.degraded_capture",
                start_ns: captured_at_ns.saturating_sub(latency_ns),
                end_ns: captured_at_ns,
                thread: 0,
                fields: Vec::new(),
                label: None,
            }],
            0,
        ),
    };
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
        captured_at_ns,
    });
}
