//! `POST /v1/query`: cost-aware admission on the worker that read the
//! request, and the execution of a flight with its fan-out to every waiter.

use crate::api;
use crate::exit::{self, Outcome, TraceCtx};
use crate::http::{Request, Response};
use crate::sched::{Admission, Job, Shed, ShedReason};
use crate::server::Shared;
use precis_core::{CoreError, PrecisEngine, QueryPlan};
use precis_obs::sched_obs;
use precis_obs::telemetry::{SchedDecision, ShedDecision};
use precis_obs::{Phase, QueryProfile};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed query waiting for (or undergoing) execution.
pub(crate) struct QueryJob {
    request: api::QueryRequest,
    /// The snapshot admission loaded and the plan it priced there; the
    /// executing worker takes both, and runs the plan iff that snapshot is
    /// still the published one.
    planned: Option<(Arc<PrecisEngine>, QueryPlan)>,
    /// Time the admitting worker spent parsing, attributed to the flight's
    /// profile so per-phase aggregates still see it.
    parse_time: Duration,
    /// The creator's internal span-correlation trace id; the flight's
    /// profile and execution spans record under it so they land in the
    /// creator's capture.
    trace_internal: u64,
}

/// One response destination of a flight.
pub(crate) struct Waiter {
    stream: TcpStream,
    deadline: Option<Instant>,
    wants_profile: bool,
    /// This waiter's own trace (admission spans; execution spans live on
    /// the creator's trace), which also holds when it was admitted.
    trace: TraceCtx,
}

/// Cost-aware admission for one query: parse eagerly, [`price`] with the
/// calibrated Formula-2 model, then shed, coalesce, or enqueue. Shed and
/// error responses are written here; queued/coalesced requests are answered
/// by [`execute_flight`] when their flight completes.
pub(crate) fn admit_query(
    shared: &Shared,
    stream: TcpStream,
    http_request: &Request,
    admitted: Instant,
    started: Instant,
) {
    let ctx = TraceCtx::begin(shared, http_request.header("traceparent"), admitted);
    // Admission spans (pricing, shed, coalesce) record under this request's
    // trace so they land in its capture buffer.
    let _scope = precis_obs::trace_scope(ctx.internal);

    // Answer a query that never becomes (part of) a flight.
    let answer_now = |response: Response,
                      mut stream: TcpStream,
                      ctx: TraceCtx,
                      class: &'static str,
                      sched: Option<SchedDecision>| {
        let outcome = Outcome {
            class,
            sched,
            ..Outcome::of("query", response)
        };
        exit::answer(shared, &mut stream, ctx, outcome, started.elapsed());
    };

    let (payload, predicted_secs) = match price(shared, &http_request.body, ctx.internal) {
        Ok(priced) => priced,
        Err((response, class)) => {
            answer_now(response, stream, ctx, class, None);
            return;
        }
    };
    // Conn-stage queue wait, for the scheduling decision record.
    let conn_wait_ms = (started - admitted).as_secs_f64() * 1e3;

    let request = &payload.request;
    let class = request.priority;
    let class_str = class.as_str();
    let deadline = api::request_budget(request, shared.default_deadline).map(|b| admitted + b);
    let key = api::flight_key(request);
    let waiter = Waiter {
        stream,
        deadline,
        wants_profile: request.profile,
        trace: ctx,
    };

    // The waiter — and with it this trace's capture handle — crosses to an
    // executing worker inside `submit_query`, and a fast flight can
    // finalize the trace before this thread's deferred span flush runs.
    // Publish the admission spans into the capture first.
    precis_obs::flush_thread();
    match shared.sched.submit_query(
        payload,
        class,
        predicted_secs,
        deadline,
        admitted,
        key,
        waiter,
    ) {
        Admission::Queued => {}
        Admission::Coalesced { fanout } => {
            shared.metrics.record_coalesced();
            let span = precis_obs::span(sched_obs::SPAN_COALESCE);
            span.field(sched_obs::FIELD_FANOUT, fanout as u64);
            // Same race as above: the joined flight may finalize this
            // waiter any moment, so flush eagerly; if it already did, the
            // span is discarded and counted late (best-effort).
            drop(span);
            precis_obs::flush_thread();
        }
        Admission::Shed(shed, w) => {
            shared.metrics.record_shed(shed.false_positive);
            emit_shed_span(&shed, predicted_secs);
            let (code, message) = match shed.reason {
                ShedReason::Capacity => ("overloaded", "query queue is full, retry shortly"),
                ShedReason::Deadline => (
                    "shed_deadline",
                    "predicted cost cannot meet the deadline under current load",
                ),
            };
            let decision = SchedDecision {
                predicted_ms: predicted_secs.map(|s| s * 1e3),
                queue_wait_ms: conn_wait_ms,
                coalesced: false,
                fanout: 0,
                reordered: false,
                shed: Some(ShedDecision {
                    reason: match shed.reason {
                        ShedReason::Capacity => "capacity",
                        ShedReason::Deadline => "deadline",
                    },
                    backlog_ms: shed.backlog_secs * 1e3,
                    retry_after_ms: shed.retry_after_ms,
                    false_positive: shed.false_positive,
                }),
            };
            answer_now(
                Response::error_retry(429, code, message, shed.retry_after_ms),
                w.stream,
                w.trace,
                class_str,
                Some(decision),
            );
        }
        Admission::Closed(w) => {
            answer_now(
                Response::error_retry(503, "shutting_down", "server shutting down", 1000),
                w.stream,
                w.trace,
                class_str,
                None,
            );
        }
    }
}

/// Decode the body, resolve the query once and price the plan with Formula 2
/// before it queues; the plan travels with the job, so execution neither
/// looks a token up nor resolves the schema again. An `Err` is the refusal
/// and the class it is accounted under.
fn price(
    shared: &Shared,
    body: &[u8],
    trace_internal: u64,
) -> Result<(QueryJob, Option<f64>), (Response, &'static str)> {
    let bad_request = |message: &str| (Response::error(400, "bad_request", message), "");
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body must be UTF-8"))?;
    let parse_started = Instant::now();
    let request = api::parse_query_request(text).map_err(|msg| bad_request(&msg))?;
    let parse_time = parse_started.elapsed();

    let engine = shared.engine.load();
    let admit_span = precis_obs::span(sched_obs::SPAN_ADMIT);
    let plan = engine
        .plan(&request.query, &request.degree, None)
        .map_err(|e| {
            let response = match e {
                CoreError::EmptyQuery => Response::error(400, "empty_query", "query has no tokens"),
                e => Response::error(500, "internal", &e.to_string()),
            };
            (response, request.priority.as_str())
        })?;
    let predicted_secs = engine.price(&plan, &request.cardinality).predicted_secs;
    admit_span.field(
        sched_obs::FIELD_PREDICTED_NS,
        predicted_secs.map(|s| (s * 1e9) as u64).unwrap_or(0),
    );
    admit_span.field(sched_obs::FIELD_CLASS, request.priority.as_field());
    let job = QueryJob {
        request,
        planned: Some((engine, plan)),
        parse_time,
        trace_internal,
    };
    Ok((job, predicted_secs))
}

fn emit_shed_span(shed: &Shed, predicted_secs: Option<f64>) {
    let span = precis_obs::span(sched_obs::SPAN_SHED);
    span.field(
        sched_obs::FIELD_PREDICTED_NS,
        predicted_secs.map(|s| (s * 1e9) as u64).unwrap_or(0),
    );
    span.field(
        sched_obs::FIELD_BACKLOG_NS,
        (shed.backlog_secs * 1e9) as u64,
    );
    span.field(sched_obs::FIELD_RETRY_AFTER_MS, shed.retry_after_ms);
}

/// Execute one flight and fan its answer out to every waiter. The flight's
/// deadline is the most permissive across the waiters attached at start
/// (joiners arriving mid-execution ride along but cannot extend it), and
/// cancelling — i.e. disconnecting — any single waiter never cancels the
/// flight: the execution runs on its own token and a dead socket just fails
/// its one write at fan-out.
pub(crate) fn execute_flight(shared: &Shared, mut job: Job<QueryJob>) {
    let exec_started = Instant::now();
    // Execution spans record under the flight creator's trace, so the
    // creator's retained trace holds the full admission→execution tree.
    let _scope = precis_obs::trace_scope(job.payload.trace_internal);
    let exec_span = precis_obs::span(sched_obs::SPAN_EXECUTE);
    exec_span.field(
        sched_obs::FIELD_PREDICTED_NS,
        job.predicted_secs.map(|s| (s * 1e9) as u64).unwrap_or(0),
    );
    exec_span.field(sched_obs::FIELD_CLASS, job.class.as_field());

    // Most permissive deadline across the waiters attached so far; `None`
    // anywhere means unbounded wins (it is the most permissive).
    let deadline = shared.sched.with_waiters(&job, |ws| {
        ws.iter()
            .map(|w| w.deadline)
            .reduce(|acc, d| Some(acc?.max(d?)))
            .flatten()
    });

    // Every query is profiled internally — retained traces and the
    // per-phase `/v1/metrics` aggregates need it — but the response only
    // carries the profile when a waiter opted in, so default responses stay
    // byte-identical to an unprofiled server. The profile reuses the
    // creator's internal trace id so engine spans land in its capture.
    let profile = Arc::new(QueryProfile::with_trace_id(job.payload.trace_internal));
    profile.add_phase(Phase::QueueWait, exec_started - job.admitted);
    profile.add_phase(Phase::Parse, job.payload.parse_time);

    // One wait-free snapshot per flight: the query runs against exactly
    // this engine even if `swap_engine` publishes a replacement mid-flight.
    // A flight never answers from a snapshot older than the one current
    // now — a joiner admitted after its own write's ack relies on that — so
    // a plan made before a publish is discarded and the query re-planned.
    let engine = shared.engine.load();
    let planned = job.payload.planned.take();
    // A panic in answer generation must cost one flight, not a worker: the
    // engine's state is all behind Arcs and internally lock-guarded, so an
    // unwound handler leaves nothing half-mutated.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let request = &job.payload.request;
        let plan = match planned {
            Some((planned_on, plan)) if Arc::ptr_eq(&planned_on, &engine) => plan,
            _ => engine.plan(&request.query, &request.degree, None)?,
        };
        api::answer_query_at(
            &engine,
            shared.vocabulary.as_ref(),
            request,
            plan,
            deadline,
            &profile,
        )
    }));
    let service = exec_started.elapsed();
    shared
        .sched
        .complete(job.predicted_secs, service.as_secs_f64());

    // Prepare the shared success body or the shared error. Fan-out happens
    // after `finish` retires the flight, so late joiners are all in the
    // list.
    enum FlightResult {
        Body(String),
        Error(u16, &'static str, String),
    }
    // Snapshot the profile for every outcome — a 504's retained trace must
    // still carry its predicted-vs-measured phase times (`snapshot` works
    // on an unfinished profile; the success path already called `finish`).
    let panicked = outcome.is_err();
    let snap = profile.snapshot();
    let result = match outcome {
        Ok(Ok(body)) => {
            shared.metrics.phases.accumulate(&snap);
            FlightResult::Body(body)
        }
        Ok(Err(CoreError::Cancelled)) => {
            FlightResult::Error(504, "deadline_exceeded", "deadline exceeded".to_owned())
        }
        Ok(Err(CoreError::EmptyQuery)) => {
            FlightResult::Error(400, "empty_query", "query has no tokens".to_owned())
        }
        Ok(Err(e)) => FlightResult::Error(500, "internal", e.to_string()),
        Err(_) => {
            shared.metrics.record_panic();
            FlightResult::Error(500, "internal", "internal error answering query".to_owned())
        }
    };

    let waiters = shared.sched.finish(&job);
    let fanout = waiters.len() as u64;
    exec_span.field(sched_obs::FIELD_FANOUT, fanout);
    drop(exec_span);

    // The creator's wire id, linked from every coalesced waiter's retained
    // trace (the creator's trace holds the execution spans they shared).
    let creator_hex = waiters.first().map(|w| w.trace.hex.clone());

    // Two passes: every waiter's response goes on the wire before any
    // trace is settled, so one waiter's sampling/retention work never sits
    // in front of the next waiter's bytes. The worker still pays for
    // settling, but no client waits on it.
    let mut pending = Vec::with_capacity(waiters.len());
    // Rendered for the first waiter that asked and shared by the rest; most
    // flights have none and never pay for it.
    let mut profile_json: Option<String> = None;
    for (i, mut w) in waiters.into_iter().enumerate() {
        let queue_wait = exec_started.saturating_duration_since(w.trace.admitted);
        // `finish` preserves attach order: index 0 is the flight's creator,
        // everyone after it coalesced onto the flight.
        let coalesced = i > 0;
        let response = match &result {
            FlightResult::Body(body) => {
                let mut body = body.clone();
                if w.wants_profile {
                    let sched_json =
                        api::render_scheduling_json(job.predicted_secs, queue_wait, coalesced);
                    api::splice_json_field(&mut body, "scheduling", &sched_json);
                    let profile_json = profile_json.get_or_insert_with(|| {
                        let mut json = String::new();
                        api::write_profile_json(&mut json, &snap);
                        json
                    });
                    api::splice_json_field(&mut body, "profile", profile_json);
                }
                Response::json(200, body)
            }
            FlightResult::Error(status, code, message) => Response::error(*status, code, message),
        };
        if coalesced {
            w.trace.link = creator_hex.clone().filter(|h| *h != w.trace.hex);
        }
        let outcome = Outcome {
            endpoint: "query",
            class: job.class.as_str(),
            response,
            sched: Some(SchedDecision {
                predicted_ms: job.predicted_secs.map(|s| s * 1e3),
                queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
                coalesced,
                fanout,
                reordered: job.reordered,
                shed: None,
            }),
            profile: Some(&snap),
            wal_rollback: false,
            panicked,
        };
        // An executed flight's histogram sample is its service time.
        let sent = exit::send(shared, &mut w.stream, &w.trace, outcome, service);
        pending.push((w.trace, sent));
    }
    for (trace, sent) in pending {
        exit::settle(shared, trace, sent);
    }
}
