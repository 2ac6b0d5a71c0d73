//! The serving loop: an acceptor thread feeding the cost-aware scheduler,
//! a fixed worker pool draining it, the one writer thread mutations run on,
//! and a handle for graceful shutdown.
//!
//! Workers are read-first: a popped *connection* is parsed immediately
//! ([`crate::routes`]) — queries are priced with the calibrated Formula-2
//! model and submitted to the scheduler ([`crate::query`]), where they are
//! shed (`429` + `Retry-After`) or queued shortest-predicted-first within
//! their deadline class; a mutation is parsed and handed to the
//! `precis-writer` thread ([`crate::mutate`]), which applies, logs, fsyncs,
//! publishes and checkpoints it while the worker that read it blocks for
//! the answer and then writes it; everything else is answered inline. A
//! popped query *job* is executed and answered by the worker that popped
//! it. Since parsing is microseconds next to retrieval, the socket queue
//! converts into a cost-ordered job queue as soon as there is any backlog
//! to reorder.
//!
//! Deadlines are end-to-end: the clock starts at admission, so time spent
//! queued counts against the caller's budget — which is what makes the shed
//! rule ("predicted backlog + predicted cost exceed the remaining budget")
//! coherent. The socket's I/O timeouts are armed before the first read, so
//! a silent peer can pin a worker for at most [`ServerConfig::io_timeout`].
//!
//! Every response — the acceptor's own `429`/`503` refusals and the `500`
//! that rescues a panicked handler included — leaves through the one exit
//! in [`crate::exit`], which is where it gets its trace id, its metrics
//! sample, its SLO event and its tail-sampling verdict.

use crate::durable::Durability;
use crate::exit::{self, Outcome, TraceCtx};
use crate::http::Response;
use crate::metrics::Metrics;
use crate::mutate::{self, WriteJob};
use crate::query::{self, QueryJob};
use crate::routes;
use crate::sched::{ConnRefusal, Scheduler, Work, AGING_THRESHOLD};
use precis_core::{PrecisEngine, SnapshotCell};
use precis_nlg::Vocabulary;
use precis_obs::slo::SloEngine;
use precis_obs::telemetry::{TelemetryConfig, TraceStore};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
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
    /// within one timeout even with connections mid-read.
    pub io_timeout: Duration,
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
            io_timeout: Duration::from_secs(5),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Always-on telemetry state shared by the acceptor and workers: the
/// sampler thresholds, the retained-trace store and the SLO engine.
pub(crate) struct Telemetry {
    pub(crate) config: TelemetryConfig,
    pub(crate) store: TraceStore,
    pub(crate) slo: SloEngine,
}

type Sched = Scheduler<(Instant, TcpStream), QueryJob>;

/// State shared by the acceptor, the workers, and the handle.
pub(crate) struct Shared {
    /// The engine in a snapshot cell: workers take an `Arc` snapshot per
    /// use (a lock held for one reference-count bump), and a mutation batch
    /// or [`ServerHandle::swap_engine`] publishes a replacement atomically.
    /// An executing query keeps the snapshot it started with, so its
    /// answer stays consistent even if a swap lands mid-query.
    pub(crate) engine: SnapshotCell<PrecisEngine>,
    /// The way to the writer thread, which alone runs the copy-on-write
    /// mutation path (`POST /v1/mutate` and checkpoints) — readers never
    /// meet it, they load snapshots. `None` once shutdown began: the writer
    /// finishes what is queued and exits.
    pub(crate) writer: Mutex<Option<Sender<WriteJob>>>,
    /// WAL + snapshot state when serving with `--data-dir`; `None` for a
    /// purely in-memory server (mutations still work, they just don't
    /// survive a restart).
    pub(crate) durability: Option<Durability>,
    pub(crate) vocabulary: Option<Vocabulary>,
    pub(crate) metrics: Arc<Metrics>,
    /// The cost-aware scheduler: raw connections and the cost-ordered
    /// ready queue.
    pub(crate) sched: Sched,
    pub(crate) telemetry: Telemetry,
    shutdown: AtomicBool,
    pub(crate) default_deadline: Option<Duration>,
    pub(crate) io_timeout: Duration,
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
    writer: Option<JoinHandle<()>>,
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
    /// configured record threshold. Durable or not, mutations run on the one
    /// `precis-writer` thread started here.
    pub fn start_durable(
        engine: Arc<PrecisEngine>,
        vocabulary: Option<Vocabulary>,
        config: ServerConfig,
        durability: Option<Durability>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers_n = config.workers.max(1);
        let (to_writer, write_jobs) = mpsc::channel();
        let shared = Arc::new(Shared {
            engine: SnapshotCell::new(engine),
            writer: Mutex::new(Some(to_writer)),
            durability,
            vocabulary,
            metrics: Arc::new(Metrics::default()),
            sched: Scheduler::new(
                config.queue_capacity,
                config.queue_capacity,
                workers_n,
                AGING_THRESHOLD,
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

        let writer = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("precis-writer".to_owned())
                .spawn(move || mutate::writer_loop(&shared, write_jobs))?
        };

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
            writer: Some(writer),
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

    /// Graceful shutdown: stop admitting, drain in-flight requests (the
    /// writer's queued batches included), join every thread.
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
        // Shutdown dropped the way in; the writer ends with its queue.
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

pub(crate) fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.sched.close();
    // No batch is taken from here on: a worker still holding a mutation
    // answers it `503 shutting_down`.
    drop(
        shared
            .writer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take(),
    );
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
        let (admitted, mut stream, response) =
            match shared.sched.try_push_conn((Instant::now(), stream)) {
                Ok(()) => {
                    shared.metrics.enqueued();
                    continue;
                }
                Err(ConnRefusal::Full((admitted, stream))) => {
                    shared.metrics.record_rejection();
                    let response = Response::error_retry(
                        429,
                        "overloaded",
                        "server overloaded, retry shortly",
                        1000,
                    );
                    (admitted, stream, response)
                }
                Err(ConnRefusal::Closed((admitted, stream))) => {
                    let response =
                        Response::error_retry(503, "shutting_down", "server shutting down", 1000);
                    (admitted, stream, response)
                }
            };
        answer_unread(shared, &mut stream, admitted, response, false);
    }
}

/// Answer a connection whose request nobody read, or whose handler is gone:
/// endpoint `other`, a minted trace id and nothing recorded, so a retained
/// trace is the synthesized root span.
fn answer_unread(
    shared: &Shared,
    stream: &mut TcpStream,
    admitted: Instant,
    response: Response,
    panicked: bool,
) {
    let outcome = Outcome {
        panicked,
        ..Outcome::of("other", response)
    };
    let ctx = TraceCtx::uncaptured(admitted);
    exit::answer(shared, stream, ctx, outcome, admitted.elapsed());
}

fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.sched.pop() {
        match work {
            Work::Conn((admitted, stream)) => {
                shared.metrics.dequeued();
                // As in `execute_query`, a panic must cost one request, not
                // a worker. The handler owns the stream, so keep a second
                // handle for the best-effort 500.
                let rescue = stream.try_clone();
                let served = catch_unwind(AssertUnwindSafe(|| {
                    routes::serve_connection(shared, stream, admitted)
                }));
                if served.is_err() {
                    shared.metrics.record_panic();
                    if let Ok(mut stream) = rescue {
                        let response =
                            Response::error(500, "internal", "internal error serving request");
                        answer_unread(shared, &mut stream, admitted, response, true);
                    }
                }
            }
            Work::Job(job) => {
                if job.reordered {
                    shared.metrics.record_reordered();
                }
                query::execute_query(shared, job);
            }
        }
    }
}
