//! One connection, read and dispatched: the parse-error answers, the route
//! table for everything that is not `POST /v1/query`, and the loopback-only
//! debug views over the trace store and the SLO engine.
//!
//! Every endpoint is mounted under `/v1/` (the versioned contract) except
//! `POST /shutdown`; any other path answers `404 not_found`. Non-2xx
//! responses all carry the structured error envelope
//! (`{"error": {"code", "message", ...}}`) from [`Response`].

use crate::debug;
use crate::durable;
use crate::exit::{self, Outcome, TraceCtx};
use crate::http::{self, ParseError, Request, Response};
use crate::mutate;
use crate::query;
use crate::server::{trigger_shutdown, Shared};
use precis_obs::telemetry::TraceFilter;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read one request off the connection and dispatch it. Queries go through
/// cost-aware admission and are answered later by [`query::execute_query`]
/// (or immediately, if shed); a loopback mutation waits here for the writer
/// thread ([`mutate::serve_mutate`]); everything else is answered inline.
///
/// The socket's read/write timeouts are armed first, so a silent or
/// non-reading peer costs the worker at most `io_timeout` before it is
/// answered (`408` on a stalled read) and released back to the queue.
pub(crate) fn serve_connection(shared: &Shared, mut stream: TcpStream, admitted: Instant) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(ParseError::Disconnected) => return,
        Err(e) => {
            let (status, code, message): (u16, &str, String) = match e {
                ParseError::Bad(msg) => (400, "bad_request", msg),
                ParseError::TooLarge => (413, "payload_too_large", "request too large".to_owned()),
                ParseError::TimedOut => (
                    408,
                    "request_timeout",
                    "timed out waiting for request".to_owned(),
                ),
                ParseError::Disconnected => unreachable!("handled above"),
            };
            // No parsed headers → no incoming traceparent to honor, but the
            // refusal still gets an id so the retained trace is findable.
            let ctx = TraceCtx::begin(None, admitted);
            let outcome = Outcome::of("other", Response::error(status, code, &message));
            exit::answer(shared, &mut stream, ctx, outcome, started.elapsed());
            return;
        }
    };

    let peer_is_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    // Time between admission and pickup is the connection-stage queue wait;
    // a query's additional ready-queue wait surfaces in its profile and
    // `"scheduling"` metadata instead.
    shared.metrics.record_queue_wait(admitted.elapsed());

    if request.method == "POST" && request.path == "/v1/query" {
        query::admit_query(shared, stream, &request, admitted, started);
        return;
    }
    // Mutations are unauthenticated, like `/shutdown`: only loopback peers
    // may change the data a public bind is serving (`route` refuses the
    // others).
    if request.method == "POST" && request.path == "/v1/mutate" && peer_is_loopback {
        mutate::serve_mutate(shared, stream, &request, admitted, started);
        return;
    }

    let mut ctx = TraceCtx::begin(request.header("traceparent"), admitted);
    let (endpoint, response, shutdown_after) = {
        // Spans emitted while routing are this request's.
        let _entered = ctx.trace.enter();
        route(shared, &request, peer_is_loopback)
    };
    let outcome = Outcome::of(endpoint, response);
    exit::answer(shared, &mut stream, ctx, outcome, started.elapsed());
    if shutdown_after {
        trigger_shutdown(shared);
    }
}

/// The route table for requests answered inline (a query or a loopback
/// mutation never gets here). Returns the metrics endpoint label, the
/// response, and whether to begin shutdown after answering.
fn route(
    shared: &Shared,
    request: &Request,
    peer_is_loopback: bool,
) -> (&'static str, Response, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/mutate") => (
            "mutate",
            loopback_refusal("mutations are only honored from loopback"),
            false,
        ),
        ("GET", "/v1/healthz") => {
            // An SLO fast-burning its error budget degrades health without
            // failing it — the process is up; the operator should look.
            let fast = shared.telemetry.slo.fast_burning();
            let body = if fast.is_empty() {
                "ok\n".to_owned()
            } else {
                format!("degraded: fast burn on {}\n", fast.join(", "))
            };
            ("healthz", Response::text(200, body), false)
        }
        ("GET", "/v1/metrics") => {
            let engine = shared.engine.load();
            let mut body = shared.metrics.render_prometheus(&engine.cache_stats());
            shared.metrics.write_resident_bytes(&mut body, &engine);
            if let Some(d) = &shared.durability {
                durable::render_wal_metrics(&mut body, d);
            }
            shared.telemetry.store.write_prometheus(&mut body);
            shared.telemetry.slo.write_prometheus(&mut body);
            ("metrics", Response::text(200, body), false)
        }
        // Debug endpoints expose query text and full request traces, so
        // like `/shutdown` they are only honored from loopback peers — and a
        // remote peer's refusal carries the same structured envelope as
        // every other error.
        ("GET", p) if is_debug_path(p) && !peer_is_loopback => (
            "other",
            loopback_refusal("debug endpoints are only honored from loopback"),
            false,
        ),
        ("GET", p) if is_debug_path(p) => ("other", handle_debug(shared, request), false),
        // Shutdown is unauthenticated, so it is only honored from loopback
        // peers; binding a public address must not hand remote process
        // termination to every peer that can reach the port.
        ("POST", "/shutdown") if !peer_is_loopback => (
            "other",
            loopback_refusal("shutdown is only honored from loopback"),
            false,
        ),
        ("POST", "/shutdown") => (
            "other",
            Response::json(200, "{\"shutting_down\": true}\n".to_owned()),
            true,
        ),
        (_, "/v1/query" | "/v1/mutate" | "/v1/healthz" | "/v1/metrics" | "/shutdown") => (
            "other",
            Response::error(405, "method_not_allowed", "method not allowed"),
            false,
        ),
        (_, p) if is_debug_path(p) => (
            "other",
            Response::error(405, "method_not_allowed", "method not allowed"),
            false,
        ),
        _ => (
            "other",
            Response::error(404, "not_found", "no such endpoint"),
            false,
        ),
    }
}

/// The loopback-only debug surface.
fn is_debug_path(path: &str) -> bool {
    path == "/v1/debug/slow"
        || path == "/v1/debug/slo"
        || path == "/v1/debug/traces"
        || path.starts_with("/v1/debug/traces/")
}

/// The uniform refusal every loopback-only endpoint answers a remote peer
/// with: always the structured v1 error envelope, never a bare body.
fn loopback_refusal(message: &str) -> Response {
    Response::error(403, "forbidden", message)
}

/// Dispatch one loopback-only debug GET.
fn handle_debug(shared: &Shared, request: &Request) -> Response {
    let path = request.path.as_str();
    let telem = &shared.telemetry;
    match path {
        "/v1/debug/slow" => Response::json(
            200,
            debug::render_slow(&telem.store.list(&TraceFilter::default())),
        ),
        "/v1/debug/slo" => Response::json(200, debug::render_slo(&telem.slo.snapshot())),
        "/v1/debug/traces" => {
            let filter = TraceFilter {
                outcome: request.query_param("outcome").map(str::to_owned),
                class: request.query_param("class").map(str::to_owned),
                min_latency: request
                    .query_param("min_latency_ms")
                    .and_then(|v| v.parse::<f64>().ok())
                    .and_then(|ms| Duration::try_from_secs_f64(ms / 1e3).ok()),
            };
            Response::json(200, debug::render_trace_list(&telem.store.list(&filter)))
        }
        _ => match path.strip_prefix("/v1/debug/traces/") {
            Some(id) if !id.is_empty() => match telem.store.get(id) {
                Some(trace) if request.query_param("format") == Some("chrome") => {
                    Response::json(200, debug::render_trace_chrome(&trace))
                }
                Some(trace) => Response::json(200, debug::render_trace_detail(&trace)),
                None => Response::error(
                    404,
                    "trace_not_found",
                    "no retained trace with that id (dropped by the sampler, evicted, or never seen)",
                ),
            },
            _ => Response::error(404, "not_found", "no such endpoint"),
        },
    }
}
