//! The serving loop: an acceptor thread feeding the cost-aware scheduler,
//! a fixed worker pool draining it, and a handle for graceful shutdown.
//!
//! Workers are read-first: a popped *connection* is parsed immediately —
//! non-query requests are answered inline, queries are priced with the
//! calibrated Formula-2 model and submitted to the scheduler, where they
//! are shed (`429` + `Retry-After`), coalesced onto an identical in-flight
//! query, or queued shortest-predicted-first within their deadline class. A
//! popped *job* is executed once and its answer fanned out to every waiter
//! of the flight. Since parsing is microseconds next to retrieval, the
//! socket queue converts into a cost-ordered job queue as soon as there is
//! any backlog to reorder.
//!
//! Deadlines are end-to-end: the clock starts at admission, so time spent
//! queued counts against the caller's budget — which is what makes the shed
//! rule ("predicted backlog + predicted cost exceed the remaining budget")
//! coherent. The socket's I/O timeouts are armed before the first read, so
//! a silent peer can pin a worker for at most [`ServerConfig::io_timeout`].
//!
//! Every endpoint is mounted under `/v1/` (the versioned contract) except
//! `POST /shutdown`; any other path answers `404 not_found`. Non-2xx
//! responses all carry the structured error envelope
//! (`{"error": {"code", "message", ...}}`) from [`http::Response`].
//!
//! Every request also gets a 128-bit wire trace id at admission — accepted
//! from an incoming `traceparent` header or minted — echoed back as
//! `x-precis-trace-id`/`traceparent` on every response and embedded in
//! every error envelope's `details`. Spans are captured into a per-request
//! buffer, and at completion a tail sampler retains the trace iff it was
//! interesting (slow for its class, non-2xx, shed/coalesce/reorder, WAL
//! rollback, panic) or head-sampled. The byte-budgeted trace store is the
//! only record of finished requests: the loopback-only
//! `GET /v1/debug/traces` endpoints and `GET /v1/debug/slow` are both views
//! over it. Every finished request also feeds the SLO burn-rate engine
//! behind `GET /v1/debug/slo` and the `precis_slo_*` metric families.

use crate::api;
use crate::debug;
use crate::http::{self, ParseError, Request, Response};
use crate::metrics::Metrics;
use crate::mutate::{self, Durability};
use crate::sched::{Admission, ConnRefusal, Job, Scheduler, Shed, ShedReason, Work};
use precis_core::{CoreError, PrecisEngine, QueryPlan, SnapshotCell};
use precis_nlg::Vocabulary;
use precis_obs::sched_obs;
use precis_obs::slo::{SloEngine, SloEvent};
use precis_obs::telemetry::{
    retain_reasons, RetainedTrace, SchedDecision, ShedDecision, TelemetryConfig, TraceFilter,
    TraceId, TraceStore, TraceVerdictInput, MAX_SPANS_PER_TRACE,
};
use precis_obs::{Phase, ProfileSnapshot, QueryProfile, TraceCapture};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bound on each of the scheduler's stages: raw connections waiting to
    /// be read, and parsed queries waiting to execute. Beyond either bound
    /// admission answers 429.
    pub queue_capacity: usize,
    /// Deadline applied to every `/v1/query`; a request's own `deadline_ms`
    /// may only tighten it. The budget is end-to-end from admission.
    /// `None` disables deadlines by default.
    pub default_deadline: Option<Duration>,
    /// Per-socket read/write timeout armed before a worker touches the
    /// connection. A peer that connects and then goes silent (or stops
    /// reading the response) can pin its worker for at most this long: a
    /// stalled read is answered `408` and the connection closed, so the
    /// worker always returns to the queue — and graceful shutdown completes
    /// within one timeout even with connections mid-read. `None` disables
    /// the timeout, restoring the pinning hazard; leave it set in production.
    pub io_timeout: Option<Duration>,
    /// Starvation bound for the cost-ordered queue: a query bypassed this
    /// many times is scheduled next regardless of predicted cost or class.
    pub aging_threshold: u32,
    /// The tail sampler's per-class slow thresholds.
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            default_deadline: Some(Duration::from_secs(10)),
            io_timeout: Some(Duration::from_secs(5)),
            aging_threshold: 8,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Always-on telemetry state shared by the acceptor and workers: the
/// sampler thresholds, the retained-trace store and the SLO engine.
struct Telemetry {
    config: TelemetryConfig,
    store: TraceStore,
    slo: SloEngine,
}

/// A parsed query waiting for (or undergoing) execution.
struct QueryJob {
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

/// Per-request trace context: the external wire identity plus the internal
/// capture collecting this request's spans.
struct TraceCtx {
    wire: TraceId,
    /// `wire` as 32-hex, cached — it is stamped on headers, envelopes, and
    /// log lines.
    hex: String,
    /// Internal span-correlation id (from the tracer's sequence, never
    /// derived from the wire id — a hostile `traceparent` cannot alias
    /// another request's spans).
    internal: u64,
    /// `None` when the capture bucket was closed at admission: no
    /// per-request buffer is registered, so the request's span sites stay
    /// inert. If the trace still wins retention, finalize synthesizes its
    /// root span.
    capture: Option<TraceCapture>,
    /// For coalesced waiters: the flight creator's wire id, whose retained
    /// trace holds the execution spans.
    link: Option<String>,
}

/// One response destination of a flight.
struct Waiter {
    stream: TcpStream,
    admitted: Instant,
    deadline: Option<Instant>,
    wants_profile: bool,
    /// This waiter's own trace (admission spans; execution spans live on
    /// the creator's trace).
    trace: TraceCtx,
}

type Sched = Scheduler<(Instant, TcpStream), QueryJob, Waiter>;

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    /// The engine behind a lock-free snapshot cell: workers take wait-free
    /// `Arc` snapshots per request (no reader lock, no contention), and
    /// [`ServerHandle::swap_engine`] publishes a replacement atomically.
    /// An executing flight keeps the snapshot it started with, so its
    /// answer stays consistent even if a swap lands mid-query.
    engine: SnapshotCell<PrecisEngine>,
    /// Serializes the copy-on-write mutation path (`POST /v1/mutate` and
    /// checkpoints). Readers never touch it — they load snapshots.
    write_lock: Mutex<()>,
    /// WAL + snapshot state when serving with `--data-dir`; `None` for a
    /// purely in-memory server (mutations still work, they just don't
    /// survive a restart).
    durability: Option<Durability>,
    vocabulary: Option<Vocabulary>,
    metrics: Arc<Metrics>,
    /// The cost-aware scheduler: raw connections, the cost-ordered ready
    /// queue, and the single-flight coalescing table.
    sched: Sched,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    default_deadline: Option<Duration>,
    io_timeout: Option<Duration>,
    local_addr: SocketAddr,
}

/// A running server. Dropping the handle without calling [`join`] leaves the
/// threads serving until the process exits.
///
/// [`join`]: ServerHandle::join
pub struct Server;

pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and worker pool, and return immediately.
    pub fn start(
        engine: Arc<PrecisEngine>,
        vocabulary: Option<Vocabulary>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Server::start_durable(engine, vocabulary, config, None)
    }

    /// [`Server::start`] with durable-serving state attached: `POST /v1/mutate`
    /// appends to the WAL before acknowledging and auto-checkpoints at the
    /// configured record threshold.
    pub fn start_durable(
        engine: Arc<PrecisEngine>,
        vocabulary: Option<Vocabulary>,
        config: ServerConfig,
        durability: Option<Durability>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers_n = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine: SnapshotCell::new(engine),
            write_lock: Mutex::new(()),
            durability,
            vocabulary,
            metrics: Arc::new(Metrics::default()),
            sched: Scheduler::new(
                config.queue_capacity,
                config.queue_capacity,
                workers_n,
                config.aging_threshold,
            ),
            telemetry: Telemetry {
                config: config.telemetry,
                store: TraceStore::default(),
                slo: SloEngine::with_defaults(),
            },
            shutdown: AtomicBool::new(false),
            default_deadline: config.default_deadline,
            io_timeout: config.io_timeout,
            local_addr: listener.local_addr()?,
        });

        let workers = (0..workers_n)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("precis-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("precis-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, &shared))?
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// The engine snapshot new requests will be served from.
    pub fn engine(&self) -> Arc<PrecisEngine> {
        self.shared.engine.load()
    }

    /// Atomically replace the engine serving new requests. In-flight
    /// requests finish on the snapshot they took; the old engine is
    /// released once the last of them completes. Workers never block.
    pub fn swap_engine(&self, engine: Arc<PrecisEngine>) {
        self.shared.engine.store(engine);
    }

    /// Begin shutdown without blocking: stop admitting connections and wake
    /// the acceptor. Admitted requests keep draining. Safe to call from any
    /// thread (including a worker handling `POST /shutdown`).
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Graceful shutdown: stop admitting, drain in-flight requests, join
    /// every thread.
    pub fn join(self) {
        self.trigger_shutdown();
        self.wait();
    }

    /// Block until the server shuts down — via [`trigger_shutdown`] from
    /// another thread or a `POST /shutdown` — then reap every thread. This
    /// is the serve-forever mode: it does not initiate shutdown itself.
    ///
    /// [`trigger_shutdown`]: ServerHandle::trigger_shutdown
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.sched.close();
    // The acceptor blocks in accept(); a throwaway connection wakes it so it
    // can observe the flag and exit.
    let _ = TcpStream::connect(shared.local_addr);
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        match shared.sched.try_push_conn((Instant::now(), stream)) {
            Ok(()) => shared.metrics.enqueued(),
            Err(ConnRefusal::Full((_, mut stream))) => {
                shared.metrics.record_rejection();
                let resp = Response::error_retry(
                    429,
                    "overloaded",
                    "server overloaded, retry shortly",
                    1000,
                );
                let _ = http::write_response(&mut stream, &resp);
            }
            Err(ConnRefusal::Closed((_, mut stream))) => {
                let resp =
                    Response::error_retry(503, "shutting_down", "server shutting down", 1000);
                let _ = http::write_response(&mut stream, &resp);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.sched.pop() {
        match work {
            Work::Conn((admitted, stream)) => {
                shared.metrics.dequeued();
                // As in `execute_flight`, a panic must cost one request, not
                // a worker. The handler owns the stream, so keep a second
                // handle for the best-effort 500.
                let rescue = stream.try_clone();
                let served = catch_unwind(AssertUnwindSafe(|| {
                    serve_connection(shared, stream, admitted)
                }));
                if served.is_err() {
                    shared.metrics.record_panic();
                    shared
                        .metrics
                        .record_request("other", 500, admitted.elapsed());
                    if let Ok(mut stream) = rescue {
                        let resp =
                            Response::error(500, "internal", "internal error serving request");
                        let _ = http::write_response(&mut stream, &resp);
                    }
                }
            }
            Work::Job(job) => {
                if job.reordered {
                    shared.metrics.record_reordered();
                }
                execute_flight(shared, job);
            }
        }
    }
}

/// Start a trace for one request: accept the wire id from a `traceparent`
/// header or mint one, allocate a fresh internal span id, and register the
/// per-request capture buffer.
fn begin_trace(shared: &Shared, traceparent: Option<&str>) -> TraceCtx {
    let wire = traceparent
        .and_then(TraceId::parse_traceparent)
        .unwrap_or_else(TraceId::mint);
    let internal = precis_obs::new_trace_id();
    // Span capture is speculative (the tail verdict comes at finalize) and
    // costs tens of microseconds per request, so it is token-bucketed:
    // head-sampled requests always capture — they are the deterministic
    // always-on baseline — and everything else captures only while the
    // capture bucket has tokens. A trace that captures nothing here but
    // still wins retention gets a synthesized root span from finalize.
    let capture = (wire.head_sampled() || shared.telemetry.store.admit_capture())
        .then(|| precis_obs::capture_trace(internal, MAX_SPANS_PER_TRACE));
    TraceCtx {
        wire,
        hex: wire.to_hex(),
        internal,
        capture,
        link: None,
    }
}

/// Echo the wire trace id on the response — `x-precis-trace-id` plus a
/// `traceparent` continuation — and embed it in an error envelope's
/// `details` so failures are retrievable by id.
fn stamp_trace(mut resp: Response, ctx: &TraceCtx) -> Response {
    http::embed_trace_id(&mut resp, &ctx.hex);
    resp.with_header(format!("x-precis-trace-id: {}", ctx.hex))
        .with_header(format!(
            "traceparent: {}",
            ctx.wire.traceparent(ctx.internal)
        ))
}

/// Finish one request's trace: feed the SLO engine, run the tail sampler,
/// and either retain the captured spans (with the scheduler's decision
/// record and the profile's predicted-vs-measured phases) or count the
/// drop. Consumes the capture either way.
fn finalize_trace(
    shared: &Shared,
    ctx: TraceCtx,
    endpoint: &'static str,
    class: &'static str,
    input: TraceVerdictInput,
    sched: Option<SchedDecision>,
    profile: Option<&ProfileSnapshot>,
) {
    let telem = &shared.telemetry;
    telem.slo.record(SloEvent {
        class,
        status: input.status,
        latency: Duration::from_nanos(input.latency_ns),
    });
    let reasons = retain_reasons(&telem.config, ctx.wire, &input);
    if reasons.is_empty() {
        // Dropping the capture unregisters it and discards its spans.
        telem.store.drop_uninteresting();
        return;
    }
    if !telem.store.admit_retention() {
        telem.store.drop_rate_limited();
        return;
    }
    let captured_at_ns = precis_obs::now_ns();
    let (spans, span_drops) = match ctx.capture {
        Some(capture) => {
            let captured = capture.take();
            (captured.spans, captured.dropped)
        }
        // Degraded capture: no buffer was registered because the bucket
        // was closed at admission, yet this trace won retention after all.
        // Synthesize the root span from what finalize already knows so the
        // detail endpoint still shows the request's extent.
        None => (
            vec![precis_obs::SpanRecord {
                trace: ctx.internal,
                id: 1,
                parent: 0,
                name: "request.degraded_capture",
                start_ns: captured_at_ns.saturating_sub(input.latency_ns),
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
        link: ctx.link,
        endpoint,
        class,
        status: input.status,
        reasons,
        latency_ns: input.latency_ns,
        bucket_le: crate::metrics::bucket_le(input.latency_ns as f64 / 1e9),
        sched,
        // Cloned only here, after the trace won retention — the common
        // dropped path never copies the phase snapshot.
        profile: profile.cloned(),
        spans,
        span_drops,
        captured_at_ns,
    });
}

/// Read one request off the connection and dispatch it. Non-query requests
/// are answered inline; queries go through cost-aware admission and are
/// answered later by [`execute_flight`] (or immediately, if shed).
///
/// The socket's read/write timeouts are armed first, so a silent or
/// non-reading peer costs the worker at most `io_timeout` before it is
/// answered (`408` on a stalled read) and released back to the queue.
fn serve_connection(shared: &Shared, mut stream: TcpStream, admitted: Instant) {
    let started = Instant::now();
    if shared.io_timeout.is_some() {
        let _ = stream.set_read_timeout(shared.io_timeout);
        let _ = stream.set_write_timeout(shared.io_timeout);
    }
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
            let ctx = begin_trace(shared, None);
            let resp = stamp_trace(Response::error(status, code, &message), &ctx);
            shared
                .metrics
                .record_request("other", status, started.elapsed());
            let _ = http::write_response(&mut stream, &resp);
            let input = TraceVerdictInput {
                status,
                latency_ns: admitted.elapsed().as_nanos() as u64,
                ..TraceVerdictInput::default()
            };
            finalize_trace(shared, ctx, "other", "", input, None, None);
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
        admit_query(shared, stream, &request, admitted, started);
        return;
    }

    let ctx = begin_trace(shared, request.header("traceparent"));
    let (endpoint, response, shutdown_after) = {
        // Spans emitted while routing record under this request's trace and
        // land in its capture.
        let _scope = precis_obs::trace_scope(ctx.internal);
        route(shared, &request, peer_is_loopback, &ctx.hex)
    };
    // The mutate handler's only 503s are durability failures, which always
    // roll the WAL back (or poison it trying).
    let wal_rollback = endpoint == "mutate" && response.status == 503;
    let response = stamp_trace(response, &ctx);
    shared
        .metrics
        .record_request(endpoint, response.status, started.elapsed());
    let _ = http::write_response(&mut stream, &response);
    let input = TraceVerdictInput {
        status: response.status,
        latency_ns: admitted.elapsed().as_nanos() as u64,
        wal_rollback,
        ..TraceVerdictInput::default()
    };
    finalize_trace(shared, ctx, endpoint, "", input, None, None);
    if shutdown_after {
        trigger_shutdown(shared);
    }
}

/// The route table for non-query requests. Returns the metrics endpoint
/// label, the response, and whether to begin shutdown after answering.
fn route(
    shared: &Shared,
    request: &Request,
    peer_is_loopback: bool,
    trace_hex: &str,
) -> (&'static str, Response, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        // Mutations are unauthenticated, like `/shutdown`: only loopback
        // peers may change the data a public bind is serving.
        ("POST", "/v1/mutate") if !peer_is_loopback => (
            "mutate",
            loopback_refusal("mutations are only honored from loopback"),
            false,
        ),
        ("POST", "/v1/mutate") => (
            "mutate",
            handle_mutate(shared, &request.body, trace_hex),
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
            let cache = shared.engine.load().cache_stats();
            let mut body = shared.metrics.render_prometheus(&cache);
            if let Some(d) = &shared.durability {
                render_wal_metrics(&mut body, d);
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

/// Cost-aware admission for one query: parse eagerly, price with the
/// calibrated Formula-2 model, then shed, coalesce, or enqueue. Shed and
/// error responses are written here; queued/coalesced requests are answered
/// by [`execute_flight`] when their flight completes.
fn admit_query(
    shared: &Shared,
    stream: TcpStream,
    http_request: &Request,
    admitted: Instant,
    started: Instant,
) {
    let ctx = begin_trace(shared, http_request.header("traceparent"));
    // Admission spans (pricing, shed, coalesce) record under this request's
    // trace so they land in its capture buffer.
    let _scope = precis_obs::trace_scope(ctx.internal);

    // Answer an inline (non-flight) query response: trace stamping,
    // metrics, and the trace's SLO + sampler finalization.
    let answer_now = |resp: Response,
                      mut stream: TcpStream,
                      ctx: TraceCtx,
                      class: &'static str,
                      sched: Option<SchedDecision>| {
        let resp = stamp_trace(resp, &ctx);
        shared
            .metrics
            .record_request("query", resp.status, started.elapsed());
        let _ = http::write_response(&mut stream, &resp);
        let input = TraceVerdictInput {
            status: resp.status,
            latency_ns: admitted.elapsed().as_nanos() as u64,
            batch_class: class == "batch",
            shed: sched.as_ref().is_some_and(|s| s.shed.is_some()),
            ..TraceVerdictInput::default()
        };
        finalize_trace(shared, ctx, "query", class, input, sched, None);
    };

    let Ok(text) = std::str::from_utf8(&http_request.body) else {
        answer_now(
            Response::error(400, "bad_request", "body must be UTF-8"),
            stream,
            ctx,
            "",
            None,
        );
        return;
    };
    let parse_started = Instant::now();
    let request = match api::parse_query_request(text) {
        Ok(r) => r,
        Err(msg) => {
            answer_now(
                Response::error(400, "bad_request", &msg),
                stream,
                ctx,
                "",
                None,
            );
            return;
        }
    };
    let parse_time = parse_started.elapsed();
    let class_str = request.priority.as_str();

    // Resolve the query once and price the plan with Formula 2 before it
    // queues; the plan travels with the job, so execution neither looks a
    // token up nor resolves the schema again.
    let engine = shared.engine.load();
    let admit_span = precis_obs::span(sched_obs::SPAN_ADMIT);
    let plan = match engine.plan(&request.query, &request.degree, None) {
        Ok(p) => p,
        Err(CoreError::EmptyQuery) => {
            drop(admit_span);
            answer_now(
                Response::error(400, "empty_query", "query has no tokens"),
                stream,
                ctx,
                class_str,
                None,
            );
            return;
        }
        Err(e) => {
            drop(admit_span);
            answer_now(
                Response::error(500, "internal", &e.to_string()),
                stream,
                ctx,
                class_str,
                None,
            );
            return;
        }
    };
    let predicted_secs = engine.price(&plan, &request.cardinality).predicted_secs;
    admit_span.field(
        sched_obs::FIELD_PREDICTED_NS,
        predicted_secs.map(|s| (s * 1e9) as u64).unwrap_or(0),
    );
    admit_span.field(sched_obs::FIELD_CLASS, request.priority.as_field());
    drop(admit_span);
    // Conn-stage queue wait, for the scheduling decision record.
    let conn_wait_ms = (started - admitted).as_secs_f64() * 1e3;

    let deadline = api::request_budget(&request, shared.default_deadline).map(|b| admitted + b);
    let key = request.coalesce.then(|| api::flight_key(&request));
    let class = request.priority;
    let trace_internal = ctx.internal;
    let waiter = Waiter {
        stream,
        admitted,
        deadline,
        wants_profile: request.profile,
        trace: ctx,
    };
    let payload = QueryJob {
        request,
        planned: Some((engine, plan)),
        parse_time,
        trace_internal,
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
fn execute_flight(shared: &Shared, mut job: Job<QueryJob, Waiter>) {
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
    let deadline = job.inspect_waiters(|ws| {
        ws.iter()
            .map(|w| w.deadline)
            .fold(job.deadline, |acc, d| match (acc, d) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            })
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
    // trace is finalized, so one waiter's sampling/retention work never
    // sits in front of the next waiter's bytes. The worker still pays for
    // finalization, but no client waits on it.
    let mut pending: Vec<(TraceCtx, TraceVerdictInput, SchedDecision)> = Vec::new();
    // Rendered for the first waiter that asked and shared by the rest; most
    // flights have none and never pay for it.
    let mut profile_json: Option<String> = None;
    for (i, mut w) in waiters.into_iter().enumerate() {
        let queue_wait = exec_started.saturating_duration_since(w.admitted);
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
        let response = stamp_trace(response, &w.trace);
        shared
            .metrics
            .record_request("query", response.status, service);
        let _ = http::write_response(&mut w.stream, &response);

        if coalesced {
            w.trace.link = creator_hex.clone().filter(|h| *h != w.trace.hex);
        }
        let decision = SchedDecision {
            predicted_ms: job.predicted_secs.map(|s| s * 1e3),
            queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
            coalesced,
            fanout,
            reordered: job.reordered,
            shed: None,
        };
        let input = TraceVerdictInput {
            status: response.status,
            latency_ns: w.admitted.elapsed().as_nanos() as u64,
            batch_class: job.class.as_str() == "batch",
            coalesced,
            reordered: job.reordered,
            panicked,
            ..TraceVerdictInput::default()
        };
        pending.push((w.trace, input, decision));
    }
    for (trace, input, decision) in pending {
        finalize_trace(
            shared,
            trace,
            "query",
            job.class.as_str(),
            input,
            Some(decision),
            Some(&snap),
        );
    }
}

/// Apply a `/v1/mutate` batch copy-on-write under the write lock: clone the
/// current engine, apply ops in order (each one streaming into the WAL via
/// the database's sink), force the group-commit fsync, publish the new
/// engine, and auto-checkpoint when the record threshold is crossed.
///
/// Any WAL failure — an append refused mid-batch or the group-commit fsync
/// refused — aborts the whole batch: the cloned engine is discarded
/// unpublished and the log is physically rolled back to its pre-batch
/// mark, so served state and log never diverge and the abandoned records'
/// LSNs and tuple slots are reclaimed cleanly by the next batch. If even
/// the rollback fails the durability state is poisoned and every further
/// mutation is refused until restart.
///
/// `503` on this path always means a durability failure (or shutdown) —
/// overload is signalled with `429` by admission, never here.
fn handle_mutate(shared: &Shared, body: &[u8], trace_hex: &str) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "bad_request", "body must be UTF-8");
    };
    let ops = match mutate::parse_mutate_request(text) {
        Ok(ops) => ops,
        Err(msg) => return Response::error(400, "bad_request", &msg),
    };
    let _guard = shared.write_lock.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(d) = &shared.durability {
        if d.is_poisoned() {
            return Response::error(
                503,
                "wal_poisoned",
                "write-ahead log state is inconsistent; mutations are disabled until restart",
            );
        }
    }
    let base = shared.engine.load();
    // Mark the log's end before the first append so a failed batch can be
    // rolled back whole.
    let mark = shared.durability.as_ref().map(|d| d.wal.mark());
    let applied = mutate::apply_ops(&base, &ops);
    // ACK-after-fsync: the group-commit barrier runs before anything is
    // published or acknowledged. If the disk refused an append or refuses
    // the sync, nothing is published and the log is rolled back — the
    // batch never happened as far as readers, the log, and the durability
    // contract are concerned.
    let mut wal_lsn = None;
    if let Some(d) = &shared.durability {
        let mark = mark.expect("mark taken whenever durability is attached");
        if applied.wal_failed {
            let reason = applied.error.as_deref().unwrap_or("write-ahead log error");
            return abort_batch(d, mark, reason, trace_hex);
        }
        if let Err(e) = d.wal.flush() {
            return abort_batch(
                d,
                mark,
                &format!("write-ahead log sync failed: {e}"),
                trace_hex,
            );
        }
        wal_lsn = Some(d.wal.next_lsn().saturating_sub(1));
        d.since_checkpoint
            .fetch_add(applied.applied as u64, Ordering::Relaxed);
    }
    let mut engine = Arc::new(applied.engine);
    shared.engine.store(engine.clone());

    let mut checkpointed = false;
    if let Some(d) = &shared.durability {
        if d.checkpoint_every > 0
            && d.since_checkpoint.load(Ordering::Relaxed) >= d.checkpoint_every
        {
            match mutate::checkpoint_engine(d, &engine) {
                Ok(rebuilt) => {
                    engine = Arc::new(rebuilt);
                    shared.engine.store(engine);
                    checkpointed = true;
                }
                // A failed checkpoint is not a failed mutation: the batch
                // is applied and fsynced, so acknowledge it and leave the
                // longer WAL for the next checkpoint attempt.
                Err(e) => {
                    d.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "precis-server: auto-checkpoint failed (will retry) \
                         trace={trace_hex}: {e}"
                    );
                }
            }
        }
    }

    let body = mutate::render_mutate_response(
        applied.applied,
        &applied.inserted_tids,
        wal_lsn,
        checkpointed,
        applied.error.as_deref(),
    );
    let status = if applied.error.is_some() { 400 } else { 200 };
    if status == 400 {
        // Non-2xx responses carry the envelope; the partial-application
        // report rides along in `details` so callers keep the full picture.
        let message = applied.error.as_deref().unwrap_or("mutation failed");
        return Response::error_detailed(400, "mutate_failed", message, body.trim_end());
    }
    Response::json(status, body)
}

/// Abandon a batch whose WAL writes failed: roll the log back to its
/// pre-batch mark (leaving the published engine untouched) and report 503.
/// A rollback failure leaves the on-disk log unknown — poison durability so
/// no later batch can interleave with the abandoned records.
fn abort_batch(
    d: &Durability,
    mark: precis_durability::WalMark,
    reason: &str,
    trace_hex: &str,
) -> Response {
    match d.wal.truncate_to_mark(mark) {
        Ok(()) => Response::error(503, "wal_failed", &format!("{reason}; batch rolled back")),
        Err(e) => {
            d.poison();
            eprintln!(
                "precis-server: WAL rollback failed after a failed batch; \
                 mutations disabled until restart trace={trace_hex}: {e}"
            );
            Response::error(
                503,
                "wal_poisoned",
                &format!("{reason}; rollback failed ({e}), mutations disabled until restart"),
            )
        }
    }
}

/// Append the `precis_wal_*` series to a `/v1/metrics` exposition.
fn render_wal_metrics(out: &mut String, d: &Durability) {
    use std::fmt::Write as _;
    let stats = d.wal.stats();
    let _ = write!(
        out,
        "# HELP precis_wal_appended_total WAL records appended since start.\n\
         # TYPE precis_wal_appended_total counter\n\
         precis_wal_appended_total {}\n\
         # HELP precis_wal_fsyncs_total WAL fsync calls since start.\n\
         # TYPE precis_wal_fsyncs_total counter\n\
         precis_wal_fsyncs_total {}\n\
         # HELP precis_wal_checkpoints_total Snapshot checkpoints taken since start.\n\
         # TYPE precis_wal_checkpoints_total counter\n\
         precis_wal_checkpoints_total {}\n\
         # HELP precis_wal_checkpoint_seconds_total Time those checkpoints held the write lock.\n\
         # TYPE precis_wal_checkpoint_seconds_total counter\n\
         precis_wal_checkpoint_seconds_total {:.6}\n\
         # HELP precis_wal_checkpoint_failures_total Auto-checkpoint attempts that failed.\n\
         # TYPE precis_wal_checkpoint_failures_total counter\n\
         precis_wal_checkpoint_failures_total {}\n\
         # HELP precis_wal_next_lsn The LSN the next WAL record will carry.\n\
         # TYPE precis_wal_next_lsn gauge\n\
         precis_wal_next_lsn {}\n",
        stats.appended.load(Ordering::Relaxed),
        stats.fsyncs.load(Ordering::Relaxed),
        d.checkpoints.load(Ordering::Relaxed),
        d.checkpoint_micros.load(Ordering::Relaxed) as f64 / 1e6,
        d.checkpoint_failures.load(Ordering::Relaxed),
        d.wal.next_lsn(),
    );
}
