//! Fault injection: storage failpoints, deterministic cancellation, and
//! server resilience.
//!
//! Three layers of assertions:
//!
//! 1. **Storage mapping** — every failpoint site, armed with both `Io` and
//!    `Corrupt`, surfaces exactly the injected [`StorageError`] variant from
//!    the operation that crosses it, and the operation succeeds again once
//!    disarmed (nothing is poisoned).
//! 2. **Engine mapping** — faults injected under a full `answer()` call
//!    surface as `CoreError::Storage(..)` (never a panic), and the engine
//!    returns byte-identical answers after the fault clears. Deterministic
//!    cancellation via [`CancelToken::after_checks`] surfaces only
//!    `CoreError::Cancelled`.
//! 3. **Server resilience** — a loopback server answers 500 to an injected
//!    storage fault, 500 to an injected panic in a query or in a
//!    connection handler (the worker survives either), 504 to an
//!    exhausted deadline, 429 under queue overflow — and returns correct
//!    200 answers after each.
//!
//! The whole suite holds [`failpoint::exclusive`] and uses process-wide
//! participation (the server's workers run on other threads), disarming
//! everything on every exit path.

use precis_core::{AnswerSpec, CancelToken, CoreError, PrecisEngine, PrecisQuery};
use precis_datagen::{movies_graph, movies_vocabulary, woody_allen_instance};
use precis_durability::{encode_frame, read_one, FsyncPolicy, Wal};
use precis_server::{render_answer, Server, ServerConfig};
use precis_storage::failpoint::{self, FailureKind};
use precis_storage::{io as storage_io, Database, StorageError, TupleId, Value, ValueScan, WalOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of the fault suite: how many checks ran, and what failed.
#[derive(Debug, Default)]
pub struct FaultReport {
    pub checks: usize,
    pub failures: Vec<String>,
}

impl FaultReport {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Drop guard: whatever happens, leave no failpoint armed.
struct DisarmOnExit;
impl Drop for DisarmOnExit {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

/// Run the full suite. Serializes on [`failpoint::exclusive`].
pub fn run_fault_suite() -> FaultReport {
    let _gate = failpoint::exclusive();
    let _cleanup = DisarmOnExit;
    failpoint::disarm_all();

    let mut report = FaultReport::default();
    storage_site_mapping(&mut report);
    engine_fault_mapping(&mut report);
    cancel_injection(&mut report);
    server_resilience(&mut report);
    failpoint::disarm_all();
    report
}

fn demo_db() -> Database {
    woody_allen_instance()
}

/// Layer 1: every site × {Io, Corrupt} maps to exactly the injected
/// variant, and the same operation succeeds after disarming.
fn storage_site_mapping(report: &mut FaultReport) {
    let _scope = failpoint::thread_scope();
    let db = demo_db();
    let movie = db.schema().relation_id("MOVIE").expect("demo has MOVIE");
    let genre = db.schema().relation_id("GENRE").expect("demo has GENRE");
    let g_mid = db
        .relation_schema(genre)
        .attr_position("mid")
        .expect("GENRE.mid");
    let (first_tid, first_movie) = db.table(movie).iter().next().expect("demo has movies");
    let mid_value = first_movie.get(0).to_value();
    let dump = storage_io::dump_to_string(&db);
    let dump_path = std::env::temp_dir().join(format!(
        "precis-testkit-faults-{}.precisdb",
        std::process::id()
    ));
    storage_io::dump_to_file(&db, &dump_path).expect("baseline dump");
    let wal_path =
        std::env::temp_dir().join(format!("precis-testkit-faults-{}.wal", std::process::id()));
    let wal_op = WalOp::Delete {
        relation: "MOVIE".to_owned(),
        tid: TupleId(0),
    };
    let wal_frame = encode_frame(0, &wal_op).expect("test record encodes");
    // `Batch(1)`: the first append crosses the append site, then the sync
    // site.
    let append_one = || -> Result<(), StorageError> {
        let mut wal = Wal::create(&wal_path, FsyncPolicy::Batch(1), 0)?;
        wal.append_op(wal_op.clone()).map(|_| ())
    };

    // Each driver runs the operation that crosses one site and reports
    // whether it succeeded (used both for the injected-error assertion and
    // the disarmed-recovery assertion).
    type Driver<'a> = Box<dyn Fn() -> Result<(), StorageError> + 'a>;
    let drivers: Vec<(&'static str, Driver)> = vec![
        (
            "fetch_from",
            Box::new(|| db.fetch_from(movie, first_tid).map(|_| ())),
        ),
        (
            "lookup",
            Box::new(|| db.lookup(genre, g_mid, &mid_value).map(|_| ())),
        ),
        (
            "insert_into",
            Box::new(|| {
                let mut copy = db.clone();
                copy.insert(
                    "GENRE",
                    vec![
                        Value::from(9_999_999),
                        mid_value.clone(),
                        Value::from("faultgenre"),
                    ],
                )
                .map(|_| ())
            }),
        ),
        (
            "value_scan_open",
            Box::new(|| ValueScan::open(&db, genre, g_mid, &mid_value).map(|_| ())),
        ),
        (
            "value_scan_next",
            Box::new(|| {
                // Open while the open-site is not armed; only `next` is.
                let mut scan = ValueScan::open(&db, genre, g_mid, &mid_value)?;
                scan.next_tid(&db).map(|_| ())
            }),
        ),
        (
            "dump_to_file",
            Box::new(|| storage_io::dump_to_file(&db, &dump_path)),
        ),
        (
            "load_from_file",
            Box::new(|| storage_io::load_from_file(&dump_path).map(|_| ())),
        ),
        (
            "load_from_string",
            Box::new(|| storage_io::load_from_string(&dump).map(|_| ())),
        ),
        ("wal_append", Box::new(append_one)),
        ("wal_fsync", Box::new(append_one)),
        (
            "wal_replay",
            Box::new(|| read_one(&wal_frame, 0).map(|_| ())),
        ),
    ];

    assert_eq!(
        drivers.len(),
        failpoint::SITES.len(),
        "every declared failpoint site needs a driver"
    );

    for (site, driver) in &drivers {
        for kind in [FailureKind::Io, FailureKind::Corrupt] {
            failpoint::arm_always(site, kind);
            let got = driver();
            failpoint::disarm(site);
            let mapped = match (&got, kind) {
                (Err(StorageError::Io(msg)), FailureKind::Io) => msg.contains(site),
                (Err(StorageError::Corrupt(msg)), FailureKind::Corrupt) => msg.contains(site),
                _ => false,
            };
            report.check(mapped, || {
                format!(
                    "site {site} armed {kind:?} returned {got:?} instead of the injected variant"
                )
            });
            let recovered = driver();
            report.check(recovered.is_ok(), || {
                format!("site {site} did not recover after disarm: {recovered:?}")
            });
        }
    }

    let _ = std::fs::remove_file(&dump_path);
    let _ = std::fs::remove_file(&wal_path);
}

/// Layer 2a: faults under a full engine answer surface as
/// `CoreError::Storage` with the injected variant — never a panic, never a
/// wrong variant — and answers are byte-identical once the fault clears.
fn engine_fault_mapping(report: &mut FaultReport) {
    failpoint::set_process_wide(true);
    let db = demo_db();
    let vocab = movies_vocabulary(db.schema());
    let engine = PrecisEngine::new(db, movies_graph()).expect("demo engine");
    let q = PrecisQuery::parse("woody comedy");
    let spec = AnswerSpec::paper_example();
    let baseline = {
        failpoint::disarm_all();
        failpoint::set_process_wide(true);
        let a = engine.answer(&q, &spec).expect("baseline answer");
        render_answer(&engine, Some(&vocab), &a)
    };

    // Sites crossed by the answer path; skip values place the fault at
    // different depths of the generation.
    for site in ["fetch_from", "lookup", "value_scan_open"] {
        for skip in [0u64, 1, 3, 7] {
            failpoint::arm(site, FailureKind::Io, skip, u64::MAX);
            let got =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.answer(&q, &spec)));
            failpoint::disarm(site);
            let verdict = match &got {
                Err(_) => Some(format!("site {site} skip {skip}: answer PANICKED")),
                // The fault may land beyond the path actually taken (skip
                // too deep) — then the answer is legitimately Ok.
                Ok(Ok(_)) => None,
                Ok(Err(CoreError::Storage(StorageError::Io(msg)))) if msg.contains(site) => None,
                Ok(Err(e)) => Some(format!(
                    "site {site} skip {skip}: wrong error variant {e:?}"
                )),
            };
            report.check(verdict.is_none(), || verdict.clone().unwrap());
        }
    }

    // Engine answers byte-identically after all faults clear: nothing
    // (caches, pool, stats) was poisoned by the injected errors.
    failpoint::disarm_all();
    failpoint::set_process_wide(true);
    let after = engine
        .answer(&q, &spec)
        .map(|a| render_answer(&engine, Some(&vocab), &a));
    report.check(after.as_deref() == Ok(baseline.as_str()), || {
        "engine answer after faults cleared is not byte-identical to baseline".to_owned()
    });
    failpoint::set_process_wide(false);
}

/// Layer 2b: deterministic cancellation at every generator checkpoint depth
/// surfaces only `CoreError::Cancelled` or a clean answer.
fn cancel_injection(report: &mut FaultReport) {
    let db = demo_db();
    let engine = PrecisEngine::new(db, movies_graph()).expect("demo engine");
    let q = PrecisQuery::parse("woody allen comedy");
    let mut cancelled = 0usize;
    for checks in [0u64, 1, 2, 3, 5, 8, 13, 21, 50, 200] {
        let mut spec = AnswerSpec::paper_example();
        spec.options.cancel = Some(CancelToken::after_checks(checks));
        let got =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.answer(&q, &spec)));
        let verdict = match &got {
            Err(_) => Some(format!("cancel after {checks} checks: answer PANICKED")),
            Ok(Ok(_)) => None,
            Ok(Err(CoreError::Cancelled)) => {
                cancelled += 1;
                None
            }
            Ok(Err(e)) => Some(format!("cancel after {checks} checks: wrong error {e:?}")),
        };
        report.check(verdict.is_none(), || verdict.clone().unwrap());
    }
    report.check(cancelled > 0, || {
        "no checkpoint depth produced CoreError::Cancelled — cancellation never fired".to_owned()
    });
}

/// Layer 3: the server maps injected faults to 500/504/429, keeps its
/// worker pool alive through an injected panic, and answers correctly
/// afterwards.
fn server_resilience(report: &mut FaultReport) {
    let db = demo_db();
    let vocab = movies_vocabulary(db.schema());
    let engine = Arc::new(PrecisEngine::new(db, movies_graph()).expect("demo engine"));
    let server = Server::start(
        Arc::clone(&engine),
        Some(vocab.clone()),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 2,
            default_deadline: Some(Duration::from_secs(5)),
            io_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("fault server starts");
    let addr = server.local_addr();
    let body = r#"{"tokens": "woody comedy"}"#;
    let post = |b: &str| crate::oracle::http_request(addr, "POST", "/v1/query", Some(b));

    // Baseline 200.
    let baseline = post(body);
    let baseline_body = match &baseline {
        Ok((200, b)) => Some(b.clone()),
        _ => None,
    };
    report.check(baseline_body.is_some(), || {
        format!("baseline server query did not answer 200: {baseline:?}")
    });

    // Injected storage fault → 500, then healthy again.
    failpoint::arm("fetch_from", FailureKind::Io, 0, u64::MAX);
    failpoint::set_process_wide(true);
    let faulted = post(body);
    failpoint::disarm_all();
    report.check(matches!(faulted, Ok((500, _))), || {
        format!("injected Io fault should answer 500, got {faulted:?}")
    });
    let healthy = post(body);
    report.check(
        matches!((&healthy, &baseline_body), (Ok((200, b)), Some(base)) if b == base),
        || format!("server did not recover identical 200 after fault: {healthy:?}"),
    );

    // Injected panic → 500, worker pool survives, panic counted.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::arm("fetch_from", FailureKind::Panic, 0, 1);
    failpoint::set_process_wide(true);
    let panicked = post(body);
    failpoint::disarm_all();
    // The same outside any query: the inline mutate handler panics on the
    // connection's own worker, once more often than there are workers.
    failpoint::arm("insert_into", FailureKind::Panic, 0, u64::MAX);
    failpoint::set_process_wide(true);
    let insert = r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
        "values": [777001, "Zzyxgnarp Qblitherton", "Testville", "1970-01-01"]}]}"#;
    let inline_panics: Vec<_> = (0..3)
        .map(|_| crate::oracle::http_request(addr, "POST", "/v1/mutate", Some(insert)))
        .collect();
    failpoint::disarm_all();
    std::panic::set_hook(quiet);
    report.check(matches!(panicked, Ok((500, _))), || {
        format!("injected panic should answer 500, got {panicked:?}")
    });
    report.check(
        inline_panics.iter().all(|r| matches!(r, Ok((500, _)))),
        || format!("panicking connection handlers should answer 500, got {inline_panics:?}"),
    );
    // The rescue's 500 leaves through the same exit as every other
    // response: its envelope names a trace, and that trace was retained
    // with the reason it exists.
    let rescued = inline_panics.first().and_then(|r| r.as_ref().ok());
    let rescued_id = rescued.and_then(|(_, body)| {
        let (_, rest) = body.split_once("\"trace_id\": \"")?;
        Some(rest.split_once('"')?.0.to_owned())
    });
    let rescued_trace = rescued_id.as_ref().map(|id| {
        let path = format!("/v1/debug/traces/{id}");
        crate::oracle::http_request(addr, "GET", &path, None)
    });
    report.check(
        matches!(&rescued_trace, Some(Ok((200, detail))) if detail.contains("\"panic\"")),
        || format!("a rescued panic's 500 should name a trace retained as `panic`: {rescued:?} → {rescued_trace:?}"),
    );
    let after_panic = post(body);
    report.check(
        matches!((&after_panic, &baseline_body), (Ok((200, b)), Some(base)) if b == base),
        || format!("worker pool did not survive injected panic: {after_panic:?}"),
    );
    let metrics = server.metrics();
    report.check(metrics.requests_for("query", 500) >= 2, || {
        "metrics did not count the injected 500s".to_owned()
    });

    // Exhausted deadline → 504.
    let expired = post(r#"{"tokens": "woody comedy", "deadline_ms": 0}"#);
    report.check(matches!(expired, Ok((504, _))), || {
        format!("zero deadline should answer 504, got {expired:?}")
    });

    // Queue overflow → 429 on at least one connection, then recovery.
    // Open idle connections (workers block reading them until io_timeout);
    // with 2 workers + queue 2, the 5th onwards is rejected at admission.
    let mut idle = Vec::new();
    let mut saw_429 = false;
    for _ in 0..8 {
        if let Ok(stream) = std::net::TcpStream::connect(addr) {
            idle.push(stream);
        }
    }
    for stream in &mut idle {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
        let mut buf = [0u8; 128];
        if let Ok(n) = std::io::Read::read(stream, &mut buf) {
            if n > 0 && String::from_utf8_lossy(&buf[..n]).contains("429") {
                saw_429 = true;
            }
        }
    }
    drop(idle);
    report.check(saw_429, || {
        "queue overflow never produced a 429 admission rejection".to_owned()
    });
    // The pool drains its idle connections (408 on stalled reads) and
    // serves correct answers again.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut recovered = false;
    while Instant::now() < deadline {
        if let Ok((200, b)) = post(body) {
            recovered = baseline_body.as_deref() == Some(b.as_str());
            if recovered {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    report.check(recovered, || {
        "server did not recover correct 200 answers after queue overflow".to_owned()
    });
    report.check(metrics.rejected_total() >= 1, || {
        "metrics did not count admission rejections".to_owned()
    });

    server.trigger_shutdown();
    server.join();
}
