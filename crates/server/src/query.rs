//! `POST /v1/query`: cost-aware admission on the worker that read the
//! request, and the execution of a queued query by the worker that popped
//! it. One request is one job, one execution and one answer — and one
//! trace: the admitting worker enters it around the parse and the plan, it
//! crosses to the executing worker inside the job, and the profile every
//! query gets is folded from its spans once the execution is over.

use crate::api;
use crate::exit::{self, Outcome, TraceCtx};
use crate::http::{Request, Response};
use crate::sched::{Admission, Job, Shed, ShedReason};
use crate::server::Shared;
use precis_core::{CoreError, PrecisEngine, QueryPlan};
use precis_obs::sched_obs;
use precis_obs::telemetry::{SchedDecision, ShedDecision};
use precis_obs::{Phase, ProfileSnapshot};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The snapshot admission loaded and the plan it priced there.
type Planned = (Arc<PrecisEngine>, QueryPlan);

/// A parsed, priced query waiting for (or undergoing) execution, with the
/// connection its answer goes to.
pub(crate) struct QueryJob {
    request: api::QueryRequest,
    /// The executing worker runs the plan iff its snapshot is still the
    /// published one.
    planned: Planned,
    stream: TcpStream,
    /// Absolute: admission plus the request's budget.
    deadline: Option<Instant>,
    /// The request's trace: the admitting worker recorded the parse and the
    /// plan into it, the executing worker enters it again for the rest, and
    /// it holds when the request was admitted.
    trace: TraceCtx,
}

/// Cost-aware admission for one query: [`parse`] eagerly, [`price`] with the
/// calibrated Formula-2 model, then shed or enqueue. Shed and error
/// responses are written here; a queued request is answered by
/// [`execute_query`] when a worker pops it.
pub(crate) fn admit_query(
    shared: &Shared,
    stream: TcpStream,
    http_request: &Request,
    admitted: Instant,
    started: Instant,
) {
    let mut ctx = TraceCtx::begin(http_request.header("traceparent"), admitted);

    // Answer a query that never queues.
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

    // Parsing and pricing record into the request's trace; the guard ends
    // before the trace moves on, into the exit or with the job.
    let entered = ctx.trace.enter();
    let request = match parse(&http_request.body) {
        Ok(request) => request,
        Err(response) => {
            drop(entered);
            return answer_now(response, stream, ctx, "", None);
        }
    };
    let (planned, predicted_secs) = match price(shared, &request) {
        Ok(priced) => priced,
        Err(response) => {
            drop(entered);
            return answer_now(response, stream, ctx, request.priority.as_str(), None);
        }
    };
    drop(entered);
    // Conn-stage queue wait, for the scheduling decision record.
    let conn_wait_ms = (started - admitted).as_secs_f64() * 1e3;

    let class = request.priority;
    let class_str = class.as_str();
    let deadline = api::request_budget(&request, shared.default_deadline).map(|b| admitted + b);
    let job = QueryJob {
        request,
        planned,
        stream,
        deadline,
        trace: ctx,
    };

    match shared
        .sched
        .submit_query(job, class, predicted_secs, deadline, admitted)
    {
        Admission::Queued => {}
        Admission::Shed(shed, mut job) => {
            shared.metrics.record_shed();
            {
                let _entered = job.trace.trace.enter();
                emit_shed_span(&shed, predicted_secs);
            }
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
                reordered: false,
                shed: Some(ShedDecision {
                    reason: match shed.reason {
                        ShedReason::Capacity => "capacity",
                        ShedReason::Deadline => "deadline",
                    },
                    backlog_ms: shed.backlog_secs * 1e3,
                    retry_after_ms: shed.retry_after_ms,
                }),
            };
            answer_now(
                Response::error_retry(429, code, message, shed.retry_after_ms),
                job.stream,
                job.trace,
                class_str,
                Some(decision),
            );
        }
        Admission::Closed(job) => {
            answer_now(
                Response::error_retry(503, "shutting_down", "server shutting down", 1000),
                job.stream,
                job.trace,
                class_str,
                None,
            );
        }
    }
}

/// Decode the body, under the span that is the query's `parse` phase.
fn parse(body: &[u8]) -> Result<api::QueryRequest, Response> {
    let bad_request = |message: &str| Response::error(400, "bad_request", message);
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body must be UTF-8"))?;
    let _span = precis_obs::span(Phase::Parse.span_name());
    api::parse_query_request(text).map_err(|msg| bad_request(&msg))
}

/// Resolve the query once and price the plan with Formula 2 before it
/// queues; the plan travels with the job, so execution neither looks a token
/// up nor resolves the schema again.
fn price(shared: &Shared, request: &api::QueryRequest) -> Result<(Planned, Option<f64>), Response> {
    let engine = shared.engine.load();
    let admit_span = precis_obs::span(sched_obs::SPAN_ADMIT);
    let plan = engine
        .plan(&request.query, &request.degree, None)
        .map_err(|e| match e {
            CoreError::EmptyQuery => Response::error(400, "empty_query", "query has no tokens"),
            e => Response::error(500, "internal", &e.to_string()),
        })?;
    let predicted_secs = engine.price(&plan, &request.cardinality).predicted_secs;
    admit_span.field(
        sched_obs::FIELD_PREDICTED_NS,
        predicted_secs.map(|s| (s * 1e9) as u64).unwrap_or(0),
    );
    admit_span.field(sched_obs::FIELD_CLASS, request.priority.as_field());
    Ok(((engine, plan), predicted_secs))
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

/// Execute one queued query and answer it. A disconnected client never
/// cancels the execution: it runs to its own deadline and a dead socket just
/// fails its one write at the exit.
pub(crate) fn execute_query(shared: &Shared, job: Job<QueryJob>) {
    let exec_started = Instant::now();
    let QueryJob {
        request,
        planned: (planned_on, plan),
        mut stream,
        deadline,
        trace: mut ctx,
    } = job.payload;
    let queue_wait = exec_started.saturating_duration_since(job.admitted);

    // One snapshot per query: it runs against exactly this engine
    // even if `swap_engine` publishes a replacement mid-execution. A query
    // never answers from a snapshot older than the one current now — a
    // client may have seen a write acknowledged while this query was queued
    // — so a plan made before a publish is discarded and the query
    // re-planned.
    let engine = shared.engine.load();
    let (outcome, service) = {
        let _entered = ctx.trace.enter();
        let exec_span = precis_obs::span(sched_obs::SPAN_EXECUTE);
        exec_span.field(
            sched_obs::FIELD_PREDICTED_NS,
            job.predicted_secs.map(|s| (s * 1e9) as u64).unwrap_or(0),
        );
        exec_span.field(sched_obs::FIELD_CLASS, job.class.as_field());
        exec_span.field(sched_obs::FIELD_QUEUE_WAIT_NS, queue_wait.as_nanos() as u64);
        // A panic in answer generation must cost one query, not a worker:
        // the engine's state is all behind Arcs and internally lock-guarded,
        // so an unwound handler leaves nothing half-mutated.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let plan = if Arc::ptr_eq(&planned_on, &engine) {
                plan
            } else {
                engine.plan(&request.query, &request.degree, None)?
            };
            api::answer_query_at(
                &engine,
                shared.vocabulary.as_ref(),
                &request,
                plan,
                deadline,
            )
        }));
        (outcome, exec_started.elapsed())
    };

    // Every query's profile is folded from its spans — retained traces and
    // the per-phase `/v1/metrics` aggregates need it, and a 504's retained
    // trace must still carry its predicted-vs-measured phase times — but
    // the response only carries it when the request opted in, so default
    // responses stay byte-identical to an unprofiled server.
    let panicked = outcome.is_err();
    let query = request.query.tokens().join(" ");
    let snap = ProfileSnapshot::fold(&query, ctx.trace.spans(), engine.cost_params());
    let response = match outcome {
        Ok(Ok(mut body)) => {
            shared.metrics.phases.accumulate(&snap);
            if request.profile {
                let sched_json = api::render_scheduling_json(job.predicted_secs, queue_wait);
                api::splice_json_field(&mut body, "scheduling", &sched_json);
                let mut profile_json = String::new();
                api::write_profile_json(&mut profile_json, &snap);
                api::splice_json_field(&mut body, "profile", &profile_json);
            }
            Response::json(200, body)
        }
        Ok(Err(CoreError::Cancelled)) => {
            Response::error(504, "deadline_exceeded", "deadline exceeded")
        }
        Ok(Err(CoreError::EmptyQuery)) => {
            Response::error(400, "empty_query", "query has no tokens")
        }
        Ok(Err(e)) => Response::error(500, "internal", &e.to_string()),
        Err(_) => {
            shared.metrics.record_panic();
            Response::error(500, "internal", "internal error answering query")
        }
    };
    let outcome = Outcome {
        class: job.class.as_str(),
        sched: Some(SchedDecision {
            predicted_ms: job.predicted_secs.map(|s| s * 1e3),
            queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
            reordered: job.reordered,
            shed: None,
        }),
        profile: Some(&snap),
        panicked,
        ..Outcome::of("query", response)
    };
    // An executed query's histogram sample is its service time.
    exit::answer(shared, &mut stream, ctx, outcome, service);
}
