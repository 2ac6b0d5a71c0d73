//! End-to-end tests against a live server on an ephemeral loopback port:
//! concurrent responses must be byte-identical to direct engine answers,
//! overload must answer 429 at admission (503 stays reserved for durability
//! failures and shutdown), deadline-exceeded must answer 504 without
//! poisoning the worker pool, every answered query must have been executed
//! for that request alone, only the `/v1/` mounts answer, a misbehaving request
//! must never cost a worker, and shutdown must drain cleanly.

use precis_core::{CostModel, PrecisEngine};
use precis_datagen::{movies_graph, movies_vocabulary, MoviesConfig, MoviesGenerator};
use precis_server::{api, json, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn test_engine() -> Arc<PrecisEngine> {
    let db = MoviesGenerator::new(MoviesConfig {
        movies: 200,
        directors: 20,
        actors: 100,
        theatres: 4,
        plays: 400,
        seed: 0x5E21,
        ..MoviesConfig::default()
    })
    .generate();
    Arc::new(PrecisEngine::new(db, movies_graph()).expect("engine builds"))
}

/// Issue one raw HTTP request and return (status, raw header block, body).
fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    // Tolerate a read error after the response bytes: a 503 written at
    // admission closes the socket without draining the request, which can
    // RST the connection behind the response on loopback.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let response = String::from_utf8(buf).expect("utf-8 response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_owned(), body.to_owned())
}

fn post_query(addr: SocketAddr, body: &str) -> (u16, String, String) {
    roundtrip(
        addr,
        &format!(
            "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn concurrent_responses_are_byte_identical_to_direct_answers() {
    let engine = test_engine();
    let vocab = movies_vocabulary(engine.database().schema());
    let handle = Server::start(
        engine.clone(),
        Some(vocab.clone()),
        ServerConfig {
            workers: 4,
            queue_capacity: 32,
            default_deadline: None,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    let bodies = [
        r#"{"tokens": "comedy"}"#,
        r#"{"tokens": ["drama", "thriller"], "degree": {"minweight": 0.5}}"#,
        r#"{"tokens": "action", "cardinality": {"perrel": 3}, "strategy": "naive"}"#,
        r#"{"tokens": "romance", "strategy": "topweight", "cardinality": {"total": 20}}"#,
    ];
    let expected: Vec<String> = bodies
        .iter()
        .map(|b| {
            let req = api::parse_query_request(b).expect("request parses");
            api::answer_query(&engine, Some(&vocab), &req, None).expect("direct answer")
        })
        .collect();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    let pick = (i + round) % bodies.len();
                    let (status, _, got) = post_query(addr, bodies[pick]);
                    assert_eq!(status, 200, "{got}");
                    assert_eq!(got, expected[pick], "served body diverged from engine");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Every answered query was executed; none was handed another's bytes.
    let answered = handle.metrics().requests_for("query", 200);
    assert_eq!(answered, 24);
    assert_eq!(handle.metrics().phases.queries(), answered);
    handle.join();
}

#[test]
fn overload_answers_429_with_retry_after_and_bounded_queue() {
    let handle = Server::start(
        test_engine(),
        None,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    // Occupy the single worker with a connection that never sends its
    // request, then fill the one queue slot the same way. Each connect gets
    // a settling pause so the acceptor/worker observably consume it.
    let busy = TcpStream::connect(addr).expect("busy conn");
    std::thread::sleep(Duration::from_millis(150));
    let queued = TcpStream::connect(addr).expect("queued conn");
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        handle.metrics().queue_depth() <= 1,
        "queue depth is bounded"
    );

    // Admission control rejects instead of buffering — with 429, the
    // overload status; 503 is reserved for durability failures.
    let (status, head, body) = roundtrip(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body.contains("\"code\": \"overloaded\""), "{body}");
    assert!(body.contains("\"retry_after_ms\""), "{body}");
    assert!(handle.metrics().rejected_total() >= 1);
    // The acceptor's refusal leaves through the same exit as a worker's
    // response: it names a trace in the header and in the envelope.
    let refused_id = trace_id_of(&head);
    assert!(
        body.contains(&format!("\"trace_id\": \"{refused_id}\"")),
        "{body}"
    );
    assert!(head.contains("traceparent: 00-"), "{head}");
    assert!(handle.metrics().requests_for("other", 429) >= 1);

    // Release the held connections; the pool drains and serves again.
    drop(busy);
    drop(queued);
    std::thread::sleep(Duration::from_millis(150));
    let (status, _, body) = roundtrip(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");

    // The refusal's id resolves: nobody read the request, so the retained
    // trace is the synthesized root span, under endpoint `other`.
    let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{refused_id}"));
    assert_eq!(status, 200, "{detail}");
    let doc = json::parse(&detail).expect("refusal trace parses");
    assert_eq!(doc.get("status").and_then(|s| s.as_f64()), Some(429.0));
    assert!(detail.contains("\"endpoint\": \"other\""), "{detail}");
    assert!(detail.contains("request.degraded_capture"), "{detail}");
    handle.join();
}

#[test]
fn deadline_zero_answers_504_without_poisoning_the_pool() {
    let handle = Server::start(
        test_engine(),
        None,
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            default_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    for _ in 0..4 {
        let (status, _, body) = post_query(addr, r#"{"tokens": "comedy", "deadline_ms": 0}"#);
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline"), "{body}");
    }
    assert!(handle.metrics().deadline_exceeded_total() >= 4);

    // The same workers still answer ordinary queries afterwards.
    let (status, _, body) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{body}");
    handle.join();
}

#[test]
fn idle_connection_times_out_with_408_and_frees_its_worker() {
    let handle = Server::start(
        test_engine(),
        None,
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            io_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    // A connection that never sends its request must be answered 408 once
    // the io timeout fires, not hold the lone worker hostage.
    let mut idle = TcpStream::connect(addr).expect("idle conn");
    let mut out = String::new();
    idle.read_to_string(&mut out).expect("server answers");
    assert!(out.starts_with("HTTP/1.1 408"), "{out}");

    // The worker it briefly pinned is back: an ordinary request succeeds.
    let (status, _, body) = roundtrip(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    assert!(handle.metrics().requests_for("other", 408) >= 1);

    // Shutdown completes even with a fresh connection mid-read.
    let _lingering = TcpStream::connect(addr).expect("lingering conn");
    handle.join();
}

#[test]
fn healthz_metrics_and_errors_round_trip() {
    let handle =
        Server::start(test_engine(), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    let (status, _, body) = roundtrip(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let (status, _, body) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = post_query(addr, r#"{"tokens": 42}"#);
    assert_eq!(status, 400, "{body}");
    let (status, _, _) = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _, _) = roundtrip(addr, "DELETE /v1/query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    let (status, _, metrics) = roundtrip(addr, "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    for family in [
        "precis_requests_total{endpoint=\"query\",status=\"200\"} 1",
        "precis_requests_total{endpoint=\"query\",status=\"400\"} 1",
        "precis_request_duration_seconds_bucket",
        "precis_queue_depth",
        "precis_rejected_total",
        "precis_cache_events_total{layer=\"schema\",kind=\"miss\"} 1",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }
    handle.join();
}

/// (hits, misses) of the schema memo as `/v1/metrics` exports them.
fn scraped_schema_events(addr: SocketAddr) -> (u64, u64) {
    let (_, _, metrics) = get_v1(addr, "/v1/metrics");
    let series = |kind: &str| -> u64 {
        let name = format!("precis_cache_events_total{{layer=\"schema\",kind=\"{kind}\"}} ");
        let value = metrics.lines().find_map(|l| l.strip_prefix(name.as_str()));
        value
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name}in:\n{metrics}"))
    };
    (series("hit"), series("miss"))
}

#[test]
fn a_served_query_probes_the_schema_memo_once() {
    let handle =
        Server::start(test_engine(), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    let bodies = [
        r#"{"tokens": "comedy"}"#,
        r#"{"tokens": "drama"}"#,
        r#"{"tokens": "comedy", "degree": {"minweight": 0.5}}"#,
        r#"{"tokens": ["drama", "thriller"], "degree": {"top": 3}}"#,
        r#"{"tokens": "action", "cardinality": {"perrel": 3}, "profile": true}"#,
    ];
    for body in bodies {
        let (status, _, got) = post_query(addr, body);
        assert_eq!(status, 200, "{got}");
    }
    // Admission plans and the worker executes that plan: one token pass
    // and one memo probe per request, not one for pricing and one more for
    // the answer.
    let s = handle.engine().cache_stats();
    assert_eq!(s.schema_hits + s.schema_misses, bodies.len() as u64);
    handle.join();
}

#[test]
fn the_schema_memo_and_its_counters_survive_a_publish() {
    let handle =
        Server::start(test_engine(), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    for _ in 0..2 {
        let (status, _, body) = post_query(addr, r#"{"tokens": "comedy"}"#);
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(scraped_schema_events(addr), (1, 1));

    // Every batch publishes a clone of the engine. The memo holds no stored
    // tuple, so the clone shares it: the counter it exports keeps counting
    // and the next query finds its schema already there.
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999001, "Zzyzx Quine", "Nowhere", "1970-01-01"]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(scraped_schema_events(addr), (2, 1));
    handle.join();
}

#[test]
fn a_flight_planned_before_a_publish_answers_from_the_published_snapshot() {
    let before = test_engine();
    let batch = precis_server::parse_mutate_request(
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999001, "Zzyzx Quine", "Nowhere", "1970-01-01"]}]}"#,
    )
    .expect("batch parses");
    let published = Arc::new(precis_server::mutate::apply_ops(&before, &batch).engine);

    // One worker, and connections are popped ahead of queued queries: a
    // connection that has not sent its request yet parks the worker.
    let config = ServerConfig {
        workers: 1,
        default_deadline: None,
        ..ServerConfig::default()
    };
    let handle = Server::start(before.clone(), None, config).expect("server starts");
    let addr = handle.local_addr();
    let finish = |mut parked: TcpStream| {
        let healthz = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        parked.write_all(healthz).expect("send");
        let mut response = String::new();
        let _ = parked.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    };

    // Park the worker, and line up the query and a second parker behind it.
    let first_parker = TcpStream::connect(addr).expect("connect");
    let body = r#"{"tokens": "zzyzx"}"#;
    let mut query = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    query.write_all((head + body).as_bytes()).expect("send");
    let second_parker = TcpStream::connect(addr).expect("connect");
    let waiting = settled(|| handle.metrics().queue_depth(), |depth| *depth == 2);
    assert_eq!(waiting, 2, "both wait behind the first parker");

    // Released, the worker admits the query — planning it on `before` —
    // and parks again on the second connection with the query queued.
    finish(first_parker);
    let planned = settled(|| before.cache_stats().schema_misses, |misses| *misses == 1);
    assert_eq!(planned, 1, "the query was planned at admission");
    handle.swap_engine(published.clone());
    finish(second_parker);

    // The query runs after the publish: it must not execute the plan made
    // on the replaced snapshot.
    let mut response = String::new();
    let _ = query.read_to_string(&mut response);
    let (head, got) = response.split_once("\r\n\r\n").expect("header block");
    assert!(head.starts_with("HTTP/1.1 200"), "{response}");
    let request = api::parse_query_request(body).expect("request parses");
    let direct = |engine: &PrecisEngine| {
        api::answer_query(engine, None, &request, None).expect("direct answer")
    };
    assert_eq!(got, direct(&published));
    assert_ne!(got, direct(&before), "the snapshots answer differently");
    handle.join();
}

#[test]
fn profiled_queries_feed_the_response_slow_view_and_phase_metrics() {
    let db = MoviesGenerator::new(MoviesConfig {
        movies: 200,
        directors: 20,
        actors: 100,
        theatres: 4,
        plays: 400,
        seed: 0x5E21,
        ..MoviesConfig::default()
    })
    .generate();
    let mut engine = PrecisEngine::new(db, movies_graph()).expect("engine builds");
    engine.set_cost_model(CostModel::new(1e-6, 2e-6));
    let handle = Server::start(Arc::new(engine), None, retain_everything()).expect("server starts");
    let addr = handle.local_addr();

    // Default responses carry no profile object (byte-compat with PR 2).
    let (status, _, plain) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{plain}");
    assert!(!plain.contains("\"profile\""), "{plain}");

    // Opting in appends the profile while leaving the answer bytes intact.
    let (status, _, profiled) = post_query(addr, r#"{"tokens": "comedy", "profile": true}"#);
    assert_eq!(status, 200, "{profiled}");
    let stem = plain.strip_suffix("}\n").unwrap();
    assert!(profiled.starts_with(stem), "profiled body diverged");
    let doc = json::parse(&profiled).expect("profiled body parses");
    let profile = doc.get("profile").expect("profile object present");
    let phases = profile.get("phases").expect("phases present");
    for phase in [
        "queue_wait",
        "parse",
        "token_lookup",
        "schema_gen",
        "db_gen",
    ] {
        assert!(
            phases.get(phase).and_then(json::Json::as_f64).is_some(),
            "missing phase {phase} in {profiled}"
        );
    }
    let relations = match profile.get("relations") {
        Some(json::Json::Array(items)) => items,
        other => panic!("relations not an array: {other:?}"),
    };
    assert!(!relations.is_empty(), "{profiled}");
    for r in relations {
        // Cost model attached → measured and predicted both populated.
        assert!(r.get("measured_ms").and_then(json::Json::as_f64).is_some());
        assert!(r.get("predicted_ms").and_then(json::Json::as_f64).is_some());
        assert!(r.get("tuples").and_then(json::Json::as_usize).is_some());
        assert!(r.get("index_probes").is_some() && r.get("tuple_reads").is_some());
    }
    assert!(
        profile
            .get("predicted_total_ms")
            .and_then(json::Json::as_f64)
            .is_some(),
        "{profiled}"
    );

    // Both queries were over the zero slow threshold, so both are retained
    // and `/v1/debug/slow` lists them, as canonical JSON on loopback. One
    // store, two views: each entry's trace id resolves at
    // `/v1/debug/traces/<id>`, whose detail carries the same profile.
    let (status, _, slow) = settled(
        || get_v1(addr, "/v1/debug/slow"),
        |(_, _, slow)| slow.matches("\"trace_id\"").count() == 2,
    );
    assert_eq!(status, 200, "{slow}");
    let slow_doc = json::parse(&slow).expect("slow view parses");
    let rendered = json::render(&slow_doc);
    assert_eq!(json::parse(&rendered).unwrap(), slow_doc, "round trip");
    let entries = match slow_doc.get("slow_queries") {
        Some(json::Json::Array(items)) => items,
        other => panic!("slow_queries not an array: {other:?}"),
    };
    assert_eq!(entries.len(), 2, "{slow}");
    for entry in entries {
        assert_eq!(
            entry.get("query").and_then(json::Json::as_str),
            Some("comedy")
        );
        assert!(entry.get("bucket_le").is_some(), "{slow}");
        let id = entry.get("trace_id").and_then(json::Json::as_str).unwrap();
        let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{id}"));
        assert_eq!(status, 200, "{detail}");
        let detail = json::parse(&detail).expect("trace detail parses");
        assert_eq!(detail.get("profile"), entry.get("profile"), "{slow}");
        assert!(entry
            .get("profile")
            .is_some_and(|p| p.get("phases").is_some()));
    }

    // Phase aggregates and the queue-wait histogram surface in /metrics,
    // and the whole exposition passes the format checker.
    let (status, _, metrics) = roundtrip(addr, "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    for family in [
        "precis_phase_seconds_total{phase=\"db_gen\"}",
        "precis_profiled_queries_total 2",
        "precis_cost_model_predicted_seconds_total",
        "precis_queue_wait_seconds_count",
        "precis_request_duration_seconds_count{endpoint=\"query\"} 2",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }
    precis_obs::validate_exposition(&metrics).expect("exposition well-formed");
    handle.join();
}

/// Zero slow thresholds: every completed request counts as slow, so the
/// tail sampler deterministically retains it.
fn retain_everything() -> ServerConfig {
    ServerConfig {
        telemetry: precis_obs::TelemetryConfig {
            slow_interactive: Duration::ZERO,
            slow_batch: Duration::ZERO,
        },
        ..ServerConfig::default()
    }
}

/// Durable tests serialize on the storage failpoint gate: the WAL fault
/// tests arm process-wide failpoints, which a concurrently running
/// mutation in another test would trip.
fn durable_gate() -> std::sync::MutexGuard<'static, ()> {
    precis_storage::failpoint::exclusive()
}

fn post_mutate(addr: SocketAddr, body: &str) -> (u16, String, String) {
    roundtrip(
        addr,
        &format!(
            "POST /v1/mutate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The database every durable fixture starts from.
fn durable_db() -> precis_storage::Database {
    MoviesGenerator::new(MoviesConfig {
        movies: 50,
        directors: 8,
        actors: 20,
        theatres: 2,
        plays: 60,
        seed: 0xD0_0D,
        ..MoviesConfig::default()
    })
    .generate()
}

/// Bootstrap a durable data dir with a generated movies database and return
/// the pieces a durable server start needs.
fn durable_fixture(
    dir: &std::path::Path,
) -> (
    Arc<PrecisEngine>,
    precis_server::Durability,
    precis_durability::SharedWal,
) {
    use precis_durability::{DurableStore, FsyncPolicy};
    let store = DurableStore::open(dir).expect("data dir opens");
    // A fresh directory: the snapshot covers the generated data, the WAL
    // starts empty at LSN 0.
    let opened = store
        .open_or_bootstrap(durable_db(), FsyncPolicy::Batch(64))
        .expect("data dir bootstraps");
    assert!(opened.recovered.is_none(), "{:?}", opened.recovered);
    let engine = Arc::new(PrecisEngine::new(opened.db, movies_graph()).expect("engine builds"));
    let durability = precis_server::Durability::new(store, opened.wal.clone(), 0);
    (engine, durability, opened.wal)
}

/// Crash-recover the data dir a durable server left behind.
fn recover(dir: &std::path::Path) -> precis_durability::Recovered {
    precis_durability::DurableStore::open(dir)
        .and_then(|store| store.recover())
        .expect("recovery")
        .expect("state exists")
}

#[test]
fn mutations_survive_kill_and_restart_byte_identically() {
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (engine, durability, _wal) = durable_fixture(&dir);
    let handle = Server::start_durable(engine, None, ServerConfig::default(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();

    // Two inserts: a fresh director and a movie referencing them.
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999001, "Zzyzx Quine", "Nowhere", "1970-01-01"]},
            {"op": "insert", "relation": "MOVIE",
             "values": [999002, "Zzyxfilm", 1999, 999001]}
        ]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"applied\": 2"), "{body}");
    assert!(body.contains("\"durable_lsn\": 1"), "{body}");

    // The published snapshot serves the new tuple immediately.
    let (status, _, q) = post_query(addr, r#"{"tokens": "zzyxfilm"}"#);
    assert_eq!(status, 200, "{q}");
    assert!(q.contains("Zzyxfilm"), "{q}");

    // A batch that fails midway keeps its applied prefix (WAL and served
    // state must never disagree) and reports the failure.
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [
            {"op": "update", "relation": "MOVIE", "tid": 50,
             "values": [999002, "Zzyxfilm Redux", 2001, 999001]},
            {"op": "delete", "relation": "MOVIE", "tid": 123456}
        ]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"applied\": 1"), "{body}");
    assert!(body.contains("\"error\""), "{body}");
    let (_, _, q) = post_query(addr, r#"{"tokens": "redux"}"#);
    assert!(q.contains("Zzyxfilm Redux"), "{q}");

    // WAL metrics surface in the exposition.
    let (_, _, metrics) = roundtrip(addr, "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(metrics.contains("precis_wal_appended_total 3"), "{metrics}");
    assert!(
        metrics.contains("precis_requests_total{endpoint=\"mutate\",status=\"200\"} 1"),
        "{metrics}"
    );

    // "Kill": drop the server without any checkpoint; only the snapshot
    // and WAL survive. Recovery must replay all three acknowledged ops.
    let expected = {
        let e = handle.engine();
        api::answer_query(
            &e,
            None,
            &api::parse_query_request(r#"{"tokens": "redux"}"#).unwrap(),
            None,
        )
        .unwrap()
    };
    handle.join();

    let rec = recover(&dir);
    assert_eq!(rec.report.replayed, 3, "{:?}", rec.report);
    assert!(rec.report.truncated.is_none(), "{:?}", rec.report);
    let engine2 = PrecisEngine::new(rec.db, movies_graph()).expect("engine rebuilds");
    let got = api::answer_query(
        &engine2,
        None,
        &api::parse_query_request(r#"{"tokens": "redux"}"#).unwrap(),
        None,
    )
    .unwrap();
    assert_eq!(got, expected, "recovered answer diverged from live answer");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_integer_a_json_number_cannot_hold_is_refused_and_never_logged() {
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-bigint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (engine, durability, wal) = durable_fixture(&dir);
    let handle = Server::start_durable(engine, None, ServerConfig::default(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();

    // 1e300 used to be stored, logged and acknowledged as i64::MAX, and
    // 2^53 + 1 as its rounded neighbour. The op before the refused one
    // applied and was logged (a batch is an ordered stream); the refused
    // one left no record.
    let director = r#"{"op": "insert", "relation": "DIRECTOR",
                       "values": [999001, "Zzyzx Quine", "Nowhere", null]}, "#;
    for (before, key, applied) in [(director, "1e300", 1), ("", "9007199254740993", 0)] {
        let (status, _, body) = post_mutate(
            addr,
            &format!(
                r#"{{"ops": [{before}{{"op": "insert", "relation": "MOVIE",
                                     "values": [{key}, "Zzyxfilm", 1999, 999001]}}]}}"#
            ),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("mutate_failed"), "{body}");
        assert!(
            body.contains(&format!("ops[{applied}]: attribute mid")),
            "{body}"
        );
        assert!(body.contains("2^53"), "{body}");
        assert!(body.contains(&format!("\"applied\": {applied}")), "{body}");
        assert_eq!(wal.next_lsn(), 1, "{key}");
    }
    let (_, _, q) = post_query(addr, r#"{"tokens": "zzyxfilm"}"#);
    assert!(!q.contains("Zzyxfilm"), "{q}");
    handle.join();
    let rec = recover(&dir);
    assert_eq!(rec.report.replayed, 1, "{:?}", rec.report);
    assert!(!precis_storage::io::dump_to_string(&rec.db).contains("Zzyxfilm"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_checkpoint_writes_a_snapshot_and_publishes_nothing() {
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (engine, mut durability, wal) = durable_fixture(&dir);
    durability.checkpoint_every = 1; // checkpoint after every batch
    let wal_path = durability.store.wal_path();
    let handle = Server::start_durable(engine, None, retain_everything(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();
    let (status, _, q) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{q}");
    let before = handle.engine();

    let insert = |key: u32, name: &str| {
        let (status, head, body) = post_mutate(
            addr,
            &format!(
                r#"{{"ops": [{{"op": "insert", "relation": "DIRECTOR",
                             "values": [{key}, "{name}", "Here", null]}}]}}"#
            ),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"checkpointed\": true"), "{body}");
        (acked(&body).0[0], head)
    };
    let (first, head) = insert(999_003, "Quizzical Zzyx");
    // What readers load is the engine the batch published: it still shares
    // with its predecessor every piece the one insert did not touch (a
    // rebuilt engine would share none of them), and the schema memo with
    // its counters is the same one.
    let published = handle.engine();
    let pieces = published.database().unshared_pieces(before.database());
    assert!(
        (1..=4).contains(&pieces),
        "{pieces} pieces differ across a checkpoint"
    );
    assert_eq!(scraped_schema_events(addr), (0, 1));
    // The batch that paid the checkpoint explains itself: its retained
    // trace names every leg — recorded on the writer thread, into the trace
    // the request lent it — and none of them builds anything.
    let id = trace_id_of(&head);
    let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{id}"));
    assert_eq!(status, 200, "{detail}");
    for leg in [
        "mutate.apply",
        "wal.append",
        "wal.fsync",
        "wal.snapshot_install",
    ] {
        assert!(detail.contains(leg), "no {leg} span in:\n{detail}");
    }
    for gone in ["engine.index_build", "wal.checkpoint.reload"] {
        assert!(!detail.contains(gone), "a {gone} span in:\n{detail}");
    }
    for field in ["\"ops\": 1", "chunks_copied", "bytes_copied"] {
        assert!(
            detail.contains(field),
            "no {field} on mutate.apply:\n{detail}"
        );
    }
    let (_, _, metrics) = get_v1(addr, "/v1/metrics");
    assert!(
        metrics.contains("precis_wal_checkpoints_total 1"),
        "{metrics}"
    );
    // The rotated log is empty, what batches copy is counted (this
    // fixture's tables and maps are too small to be shared, so possibly
    // nothing), and so is the symbol table.
    assert!(metrics.contains("precis_wal_bytes 0"), "{metrics}");
    let gauge = |name: &str| -> f64 {
        let line = metrics.lines().find_map(|l| l.strip_prefix(name));
        line.expect(name).trim().parse().unwrap()
    };
    assert!(
        gauge("precis_mutate_copied_bytes_total ") >= 0.0,
        "{metrics}"
    );
    assert!(gauge("precis_symbols ") > 100.0, "{metrics}");
    // What the published engine keeps resident, by part: the demo's few
    // hundred rows still hold slabs, tables, word lists and symbols.
    for part in [
        "tables",
        "pk_index",
        "join_index",
        "inverted_index",
        "symbols",
    ] {
        let bytes = gauge(&format!("precis_resident_bytes{{part=\"{part}\"}} "));
        assert!(bytes > 100.0, "{part}: {bytes}\n{metrics}");
    }
    assert!(
        gauge("precis_wal_checkpoint_seconds_total ") > 0.0,
        "{metrics}"
    );
    precis_obs::validate_exposition(&metrics).expect("exposition well-formed");
    // The rotated WAL is empty; the snapshot alone carries the state.
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 0);
    assert!(wal.next_lsn() >= 1, "LSNs keep counting across rotation");

    // A tuple id stays good across checkpoints: two batches (and two
    // checkpoints) later, a delete by the id the first insert reported
    // removes exactly that row.
    let (second, _) = insert(999_004, "Quorate Zzyx");
    let (third, _) = insert(999_005, "Quiescent Zzyx");
    assert_eq!((second, third), (first + 1, first + 2));
    let (status, _, body) = post_mutate(
        addr,
        &format!(r#"{{"ops": [{{"op": "delete", "relation": "DIRECTOR", "tid": {first}}}]}}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"checkpointed\": true"), "{body}");
    let (_, _, q) = post_query(addr, r#"{"tokens": "zzyx"}"#);
    assert!(!q.contains("Quizzical Zzyx"), "{q}");
    assert!(q.contains("Quorate Zzyx"), "{q}");
    assert!(q.contains("Quiescent Zzyx"), "{q}");
    let live = precis_storage::io::dump_to_string(handle.engine().database());
    handle.join();

    // The snapshot alone (the log was rotated behind the delete) is the
    // live database tid for tid, the deleted row's hole included.
    let rec = recover(&dir);
    assert_eq!(rec.report.replayed, 0, "{:?}", rec.report);
    assert_eq!(precis_storage::io::dump_to_string(&rec.db), live);
    assert_eq!(rec.db.tombstoned_slots(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that fails part-way must cost nothing: whichever step
/// refuses — the rotation's fsync after the snapshot is installed, or (at
/// the parent of this change) the reload behind a successful rotation — and
/// however long the disk stays unwell afterwards, every batch acknowledged
/// behind it recovers, under the tuple ids the live server reported. A
/// snapshot that renumbered left the log's next insert pointing one slot
/// past where replay put it, and recovery cut the log there.
#[test]
fn a_failed_checkpoint_loses_no_acknowledged_write() {
    use precis_storage::failpoint::{self, FailureKind};
    let _gate = durable_gate();
    // (site, hits to let through): the batch's own group commit is the
    // first `wal_fsync`, the rotation's the second.
    for (site, skip) in [("wal_fsync", 1), ("load_from_string", 0)] {
        let dir = std::env::temp_dir().join(format!(
            "precis-server-ckptfail-{site}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (engine, mut durability, _wal) = durable_fixture(&dir);
        // Batches 1 and 2 stay under the threshold, batch 3 crosses it.
        durability.checkpoint_every = 3;
        let handle = Server::start_durable(engine, None, ServerConfig::default(), Some(durability))
            .expect("server starts");
        let addr = handle.local_addr();
        let insert = |movies: &[(u32, &str)]| -> (Vec<u64>, String) {
            let ops: Vec<String> = movies
                .iter()
                .map(|(key, title)| {
                    format!(
                        r#"{{"op": "insert", "relation": "MOVIE",
                            "values": [{key}, "Zzyxfilm {title}", 1999, 1]}}"#
                    )
                })
                .collect();
            let (status, _, body) =
                post_mutate(addr, &format!(r#"{{"ops": [{}]}}"#, ops.join(", ")));
            assert_eq!(status, 200, "{site}: {body}");
            (acked(&body).0, body)
        };

        // A tombstone in MOVIE: the state in which a renumbering snapshot
        // and the live database disagree about the next tuple id.
        let doomed = insert(&[(999_001, "One")]).0[0];
        let (status, _, body) = post_mutate(
            addr,
            &format!(r#"{{"ops": [{{"op": "delete", "relation": "MOVIE", "tid": {doomed}}}]}}"#),
        );
        assert_eq!(status, 200, "{body}");

        // The batch that pays the checkpoint, with one step of it refused:
        // a failed checkpoint is not a failed batch.
        failpoint::arm(site, FailureKind::Io, skip, 1);
        failpoint::set_process_wide(true);
        let (tids, body) = insert(&[(999_002, "Two")]);
        let fired = failpoint::hits(site) > skip;
        failpoint::disarm_all();
        assert_eq!(tids, [doomed + 1]);
        assert_eq!(body.contains("\"checkpointed\": false"), fired, "{body}");

        // The disk stays unwell: from here on a snapshot cannot even be
        // written (its temporary file's name is taken by a directory), so
        // nothing repairs what the failed checkpoint left behind while two
        // more batches are acknowledged — under the ids the table really
        // handed out.
        std::fs::create_dir(dir.join("snapshot.precisdb.tmp")).unwrap();
        assert_eq!(
            insert(&[(999_003, "Three"), (999_004, "Four")]).0,
            [doomed + 2, doomed + 3]
        );
        assert_eq!(insert(&[(999_005, "Five")]).0, [doomed + 4]);
        let (_, _, metrics) = get_v1(addr, "/v1/metrics");
        assert!(
            !metrics.contains("precis_wal_checkpoint_failures_total 0"),
            "{site}: {metrics}"
        );
        let live = precis_storage::io::dump_to_string(handle.engine().database());
        handle.join();

        let rec = recover(&dir);
        assert_eq!(rec.report.truncated, None, "{site}: {:?}", rec.report);
        assert_eq!(rec.report.replayed, 3, "{site}: {:?}", rec.report);
        let recovered = precis_storage::io::dump_to_string(&rec.db);
        for title in ["Two", "Three", "Four", "Five"] {
            assert!(
                recovered.contains(&format!("Zzyxfilm {title}")),
                "{site}: acknowledged write {title} lost"
            );
        }
        assert!(!recovered.contains("Zzyxfilm One"), "{site}: delete lost");
        assert_eq!(recovered, live, "{site}: recovered tids differ from live");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_append_failure_mid_batch_rolls_back_unpublished() {
    use precis_storage::failpoint::{self, FailureKind};
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-walfail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (engine, durability, _wal) = durable_fixture(&dir);
    let handle = Server::start_durable(engine, None, ServerConfig::default(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();

    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999001, "Zzyzx Quine", "Nowhere", "1970-01-01"]},
            {"op": "insert", "relation": "MOVIE",
             "values": [999002, "Zzyxfilm", 1999, 999001]}
        ]}"#,
    );
    assert_eq!(status, 200, "{body}");

    // Fail the SECOND append of the next batch: the first op applies in
    // memory and logs, then the sink refuses — nothing of the batch may be
    // published or stay in the log.
    failpoint::arm("wal_append", FailureKind::Io, 1, 1);
    failpoint::set_process_wide(true);
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999003, "Abandoned Aborton", "Gone", null]},
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999004, "Another Aborton", "Gone", null]}
        ]}"#,
    );
    failpoint::disarm_all();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("rolled back"), "{body}");

    // The aborted batch is not served (even its successfully-logged-then-
    // rolled-back first op).
    let (_, _, q) = post_query(addr, r#"{"tokens": "aborton"}"#);
    assert!(!q.contains("Aborton"), "{q}");

    // The next batch reclaims the rolled-back LSN and tuple slot exactly:
    // directors 0..=7 are generated, batch 1 claimed tid 8, so this insert
    // lands on tid 9 with LSN 2 (batch 1 wrote LSNs 0 and 1).
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999005, "Quizzical Zzyx", "Here", null]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"inserted_tids\": [9]"), "{body}");
    assert!(body.contains("\"durable_lsn\": 2"), "{body}");
    handle.join();

    // Recovery replays the whole log — no torn tail, no tid mismatch — and
    // serves every acknowledged write, none of the aborted ones.
    let rec = recover(&dir);
    assert!(rec.report.truncated.is_none(), "{:?}", rec.report);
    assert_eq!(rec.report.replayed, 3, "{:?}", rec.report);
    let dump = precis_storage::io::dump_to_string(&rec.db);
    assert!(dump.contains("Quizzical Zzyx"), "post-failure ack lost");
    assert!(dump.contains("Zzyxfilm"), "pre-failure ack lost");
    assert!(!dump.contains("Aborton"), "aborted batch resurrected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_fsync_failure_rolls_back_and_later_acks_survive_recovery() {
    use precis_storage::failpoint::{self, FailureKind};
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-fsyncfail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (engine, durability, _wal) = durable_fixture(&dir);
    let handle = Server::start_durable(engine, None, ServerConfig::default(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();

    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999001, "Zzyzx Quine", "Nowhere", null]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"durable_lsn\": 0"), "{body}");

    // Refuse the group-commit fsync: the batch was appended but cannot be
    // made durable, so it must be rolled back off the log, not abandoned
    // in it (where its record would collide with the next batch's tid).
    failpoint::arm("wal_fsync", FailureKind::Io, 0, 1);
    failpoint::set_process_wide(true);
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999002, "Fsyncless Phantom", "Gone", null]}]}"#,
    );
    failpoint::disarm_all();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("rolled back"), "{body}");
    let (_, _, q) = post_query(addr, r#"{"tokens": "phantom"}"#);
    assert!(!q.contains("Phantom"), "{q}");

    // ACK-after-fsync must hold for every later write: this batch reuses
    // the abandoned tid 9 and LSN 1, fsyncs, and is acknowledged.
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999003, "Quorate Zzyx", "Here", null]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"inserted_tids\": [9]"), "{body}");
    assert!(body.contains("\"durable_lsn\": 1"), "{body}");
    handle.join();

    let rec = recover(&dir);
    assert!(rec.report.truncated.is_none(), "{:?}", rec.report);
    assert_eq!(rec.report.replayed, 2, "{:?}", rec.report);
    let dump = precis_storage::io::dump_to_string(&rec.db);
    assert!(dump.contains("Quorate Zzyx"), "acknowledged write lost");
    assert!(!dump.contains("Phantom"), "unfsynced batch resurrected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_mid_batch_rolls_back_and_later_acks_survive_recovery() {
    use precis_storage::failpoint::{self, FailureKind};
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-walpanic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (engine, durability, _wal) = durable_fixture(&dir);
    let handle = Server::start_durable(engine, None, retain_everything(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();

    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999001, "Zzyzx Quine", "Nowhere", "1970-01-01"]},
            {"op": "insert", "relation": "MOVIE",
             "values": [999002, "Zzyxfilm", 1999, 999001]}
        ]}"#,
    );
    assert_eq!(status, 200, "{body}");

    // Panic in the SECOND append of the next batch: the first op applied in
    // memory and is in the log when the batch unwinds. Nothing of it may be
    // published or stay there — its record would sit at the LSN, and claim
    // the tuple slot, of the next acknowledged batch.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::arm("wal_append", FailureKind::Panic, 1, 1);
    failpoint::set_process_wide(true);
    let (status, head, body) = post_mutate(
        addr,
        r#"{"ops": [
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999003, "Abandoned Aborton", "Gone", null]},
            {"op": "insert", "relation": "DIRECTOR",
             "values": [999004, "Another Aborton", "Gone", null]}
        ]}"#,
    );
    failpoint::disarm_all();
    std::panic::set_hook(quiet);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("rolled back"), "{body}");
    // The 500 is retained for what it was: a panic that cost a rollback.
    let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{}", trace_id_of(&head)));
    assert_eq!(status, 200, "{detail}");
    for reason in ["\"panic\"", "\"wal_rollback\""] {
        assert!(detail.contains(reason), "no {reason} in:\n{detail}");
    }
    let (_, _, q) = post_query(addr, r#"{"tokens": "aborton"}"#);
    assert!(!q.contains("Aborton"), "{q}");

    // The next batch reclaims the rolled-back LSN and tuple slot exactly:
    // directors 0..=7 are generated, batch 1 claimed tid 8, so this insert
    // lands on tid 9 with LSN 2 (batch 1 wrote LSNs 0 and 1).
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                     "values": [999005, "Quizzical Zzyx", "Here", null]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"inserted_tids\": [9]"), "{body}");
    assert!(body.contains("\"durable_lsn\": 2"), "{body}");
    // The writer thread outlived the panic: a third batch is served too.
    let (status, _, body) = post_mutate(
        addr,
        r#"{"ops": [{"op": "update", "relation": "DIRECTOR", "tid": 9,
                     "values": [999005, "Quizzical Zzyx", "There", null]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = get_v1(addr, "/v1/metrics");
    assert!(
        metrics.contains("precis_handler_panics_total 1"),
        "{metrics}"
    );
    handle.join();

    // Recovery replays the whole log — no torn tail, no tid mismatch — and
    // holds every acknowledged write, none of the aborted ones.
    let rec = recover(&dir);
    assert!(rec.report.truncated.is_none(), "{:?}", rec.report);
    assert_eq!(rec.report.replayed, 4, "{:?}", rec.report);
    let dump = precis_storage::io::dump_to_string(&rec.db);
    assert!(dump.contains("Quizzical Zzyx"), "post-panic ack lost");
    assert!(dump.contains("Zzyxfilm"), "pre-panic ack lost");
    assert!(!dump.contains("Aborton"), "aborted batch resurrected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `"inserted_tids"` of a `/v1/mutate` acknowledgement and its
/// `"durable_lsn"`.
fn acked(body: &str) -> (Vec<u64>, u64) {
    let doc = json::parse(body).expect("mutate response is JSON");
    let tids = match doc.get("inserted_tids") {
        Some(json::Json::Array(tids)) => tids
            .iter()
            .map(|t| t.as_usize().expect("tid") as u64)
            .collect(),
        other => panic!("inserted_tids: {other:?}"),
    };
    let lsn = doc.get("durable_lsn").and_then(json::Json::as_usize);
    (tids, lsn.expect("durable_lsn") as u64)
}

#[test]
fn concurrent_writers_are_serialized_by_the_writer_thread() {
    let _gate = durable_gate();
    let dir = std::env::temp_dir().join(format!("precis-server-writers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (engine, durability, _wal) = durable_fixture(&dir);
    let handle = Server::start_durable(engine, None, ServerConfig::default(), Some(durability))
        .expect("server starts");
    let addr = handle.local_addr();

    // Four clients, fifty batches each — two director inserts a batch, keys
    // disjoint by client — with a query after every batch.
    const CLIENTS: u64 = 4;
    const BATCHES: u64 = 50;
    let batch = |client: u64, n: u64| {
        let key = 2_000_000 + client * 10_000 + 2 * n;
        format!(
            r#"{{"ops": [
                {{"op": "insert", "relation": "DIRECTOR",
                  "values": [{key}, "Writer{client} Batch{n}", "Somewhere", null]}},
                {{"op": "insert", "relation": "DIRECTOR",
                  "values": [{}, "Writer{client} Second{n}", "Elsewhere", null]}}
            ]}}"#,
            key + 1
        )
    };
    let mut acks: Vec<(u64, Vec<u64>, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    (0..BATCHES)
                        .map(|n| {
                            let body = batch(client, n);
                            let (status, _, ack) = post_mutate(addr, &body);
                            assert_eq!(status, 200, "{ack}");
                            let (status, _, q) = post_query(addr, r#"{"tokens": "comedy"}"#);
                            assert_eq!(status, 200, "{q}");
                            let (tids, lsn) = acked(&ack);
                            (lsn, tids, body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client"))
            .collect()
    });

    // Every acknowledged slot and LSN was handed out once.
    let mut tids: Vec<u64> = acks.iter().flat_map(|(_, t, _)| t.clone()).collect();
    tids.sort_unstable();
    assert_eq!(tids.len(), (CLIENTS * BATCHES * 2) as usize);
    assert!(
        tids.windows(2).all(|w| w[0] < w[1]),
        "a tid was acked twice"
    );
    acks.sort_by_key(|(lsn, _, _)| *lsn);
    assert!(
        acks.windows(2).all(|w| w[0].0 + 2 == w[1].0),
        "LSNs not dense"
    );

    // The served state is the acknowledged batches replayed one after the
    // other in log order — onto the slots the acknowledgements named.
    let mut serial = PrecisEngine::new(durable_db(), movies_graph()).expect("engine builds");
    for (_, tids, body) in &acks {
        let ops = precis_server::parse_mutate_request(body).expect("own body");
        let applied = precis_server::mutate::apply_ops(&serial, &ops);
        assert_eq!(&applied.inserted_tids, tids, "{:?}", applied.error);
        serial = applied.engine;
    }
    let serial = precis_storage::io::dump_to_string(serial.database());
    let served = precis_storage::io::dump_to_string(handle.engine().database());
    assert!(served == serial, "served state is not the serial replay");
    handle.join();

    // And recovery loses none of it.
    let rec = recover(&dir);
    assert!(rec.report.truncated.is_none(), "{:?}", rec.report);
    assert_eq!(rec.report.replayed as u64, CLIENTS * BATCHES * 2);
    assert!(precis_storage::io::dump_to_string(&rec.db) == serial);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_mutation_after_shutdown_began_is_refused_and_join_returns() {
    let handle = Server::start(test_engine(), None, ServerConfig::default()).expect("starts");
    let addr = handle.local_addr();
    // Admitted before shutdown begins: a worker holds the connection and
    // waits for the request.
    let mut early = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(50));
    handle.trigger_shutdown();
    let body = r#"{"ops": [{"op": "insert", "relation": "DIRECTOR",
                   "values": [999001, "Too Late", "Nowhere", null]}]}"#;
    let request = format!(
        "POST /v1/mutate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    early.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    let _ = early.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("\"shutting_down\""), "{response}");
    // Nothing was applied, and every thread — the writer included — ends.
    let engine = handle.engine();
    handle.join();
    let dump = precis_storage::io::dump_to_string(engine.database());
    assert!(!dump.contains("Too Late"), "a refused batch was applied");
}

#[test]
fn v1_is_the_only_mount_and_errors_carry_the_envelope() {
    let handle =
        Server::start(test_engine(), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    // Unversioned paths are ordinary unknown endpoints; `/v1/*` carries no
    // deprecation signalling.
    for request in [
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    ] {
        let (status, _, body) = roundtrip(addr, request);
        assert_eq!(status, 404, "{request}: {body}");
        assert!(body.contains("\"code\": \"not_found\""), "{body}");
    }
    let (status, head, got) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{got}");
    assert!(!head.contains("Deprecation"), "{head}");
    let (status, head, body) = roundtrip(addr, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    assert!(!head.contains("Deprecation"), "{head}");

    let (status, _, metrics) = roundtrip(addr, "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(metrics.contains("precis_sched_shed_total"), "{metrics}");
    assert!(
        metrics.contains("precis_sched_reordered_total"),
        "{metrics}"
    );
    let (status, _, _) = roundtrip(addr, "GET /v1/debug/slow HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);

    // Every non-2xx answers the structured envelope with a stable code.
    let (status, _, body) = roundtrip(addr, "GET /v1/nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    assert!(body.contains("\"code\": \"not_found\""), "{body}");
    let (status, _, body) = roundtrip(addr, "DELETE /v1/query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert!(body.contains("\"code\": \"method_not_allowed\""), "{body}");
    let (status, _, body) = post_query(addr, r#"{"tokens": 42}"#);
    assert_eq!(status, 400);
    assert!(body.contains("\"code\": \"bad_request\""), "{body}");
    let (status, _, body) = post_query(addr, r#"{"tokens": "comedy", "priority": "urgent"}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("priority"), "{body}");

    // The scheduler's one knob is accepted on the wire.
    let (status, _, body) = post_query(addr, r#"{"tokens": "comedy", "priority": "batch"}"#);
    assert_eq!(status, 200, "{body}");
    handle.join();
}

#[test]
fn scheduling_metadata_reports_prediction_and_queue_wait() {
    let db = MoviesGenerator::new(MoviesConfig {
        movies: 200,
        directors: 20,
        actors: 100,
        theatres: 4,
        plays: 400,
        seed: 0x5E21,
        ..MoviesConfig::default()
    })
    .generate();
    let mut engine = PrecisEngine::new(db, movies_graph()).expect("engine builds");
    engine.set_cost_model(CostModel::new(1e-6, 2e-6));
    let handle =
        Server::start(Arc::new(engine), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    // Default responses carry no scheduling object (byte-compat with PR 7).
    let (status, _, plain) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{plain}");
    assert!(!plain.contains("\"scheduling\""), "{plain}");

    let (status, _, profiled) = post_query(addr, r#"{"tokens": "comedy", "profile": true}"#);
    assert_eq!(status, 200, "{profiled}");
    let doc = json::parse(&profiled).expect("profiled body parses");
    let sched = doc.get("scheduling").expect("scheduling object present");
    assert!(
        sched
            .get("predicted_ms")
            .and_then(json::Json::as_f64)
            .is_some(),
        "cost model attached, prediction expected: {profiled}"
    );
    assert!(
        sched
            .get("queue_wait_ms")
            .and_then(json::Json::as_f64)
            .is_some(),
        "{profiled}"
    );
    let json::Json::Object(fields) = sched else {
        panic!("scheduling is an object: {profiled}");
    };
    assert_eq!(
        fields.keys().collect::<Vec<_>>(),
        ["predicted_ms", "queue_wait_ms"],
        "{profiled}"
    );
    handle.join();
}

#[test]
fn predicted_cost_beyond_deadline_sheds_with_429() {
    let db = MoviesGenerator::new(MoviesConfig {
        movies: 200,
        directors: 20,
        actors: 100,
        theatres: 4,
        plays: 400,
        seed: 0x5E21,
        ..MoviesConfig::default()
    })
    .generate();
    let mut engine = PrecisEngine::new(db, movies_graph()).expect("engine builds");
    // An absurd calibration: every tuple claims 20 seconds, so any priced
    // query predicts far past a 50ms deadline and must be shed up front.
    engine.set_cost_model(CostModel::new(10.0, 10.0));
    let handle = Server::start(
        Arc::new(engine),
        None,
        ServerConfig {
            default_deadline: None,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    let (status, head, body) = post_query(addr, r#"{"tokens": "comedy", "deadline_ms": 50}"#);
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body.contains("\"code\": \"shed_deadline\""), "{body}");
    assert!(body.contains("\"retry_after_ms\""), "{body}");
    assert!(handle.metrics().shed_total() >= 1);
    assert!(handle.metrics().requests_for("query", 429) >= 1);

    // Without a deadline there is nothing to miss: the same query runs.
    let (status, _, body) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{body}");
    handle.join();
}

#[test]
fn shutdown_endpoint_drains_and_joins() {
    let handle =
        Server::start(test_engine(), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    let (status, _, body) = roundtrip(addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body}");

    // join() must return: acceptor wakes, workers drain, threads exit.
    handle.join();

    // The listener is gone; a fresh connect must fail or be answered with a
    // shutdown 503 (the acceptor may answer a last straggler while exiting).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(
                out.is_empty() || out.starts_with("HTTP/1.1 503"),
                "served after shutdown: {out}"
            );
        }
    }
}

/// The echoed wire trace id of a response, from `x-precis-trace-id`.
fn trace_id_of(head: &str) -> String {
    head.lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-precis-trace-id")
                .then(|| value.trim().to_owned())
        })
        .unwrap_or_else(|| panic!("no x-precis-trace-id in:\n{head}"))
}

/// A trace is finalized after its response is on the wire, so a debug view
/// read right behind a response may not hold it yet: re-read until `ok`
/// (or for a second — the caller's assertion then reports what was read).
fn settled<T>(mut read: impl FnMut() -> T, ok: impl Fn(&T) -> bool) -> T {
    for _ in 0..100 {
        let got = read();
        if ok(&got) {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    read()
}

fn get_v1(addr: SocketAddr, path: &str) -> (u16, String, String) {
    roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

#[test]
fn an_unrepresentable_trace_filter_bound_never_costs_a_worker() {
    let workers = 2;
    let handle = Server::start(
        test_engine(),
        None,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();
    // A finite bound too large for a `Duration` is ignored like a
    // non-numeric one. One more request than there are workers: had each
    // taken its worker down, the health probe would find nobody home.
    for _ in 0..=workers {
        let (status, _, body) = get_v1(addr, "/v1/debug/traces?min_latency_ms=1e300");
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, body) = get_v1(addr, "/v1/healthz");
    assert_eq!(status, 200, "{body}");
    handle.trigger_shutdown();
    handle.join();
}

#[test]
fn shed_deadline_and_slow_requests_leave_retrievable_traces() {
    let db = MoviesGenerator::new(MoviesConfig {
        movies: 200,
        directors: 20,
        actors: 100,
        theatres: 4,
        plays: 400,
        seed: 0x5E21,
        ..MoviesConfig::default()
    })
    .generate();
    let mut engine = PrecisEngine::new(db, movies_graph()).expect("engine builds");
    // Calibrated absurdly high so a priced query with a tight deadline is
    // shed at admission; queries without a deadline still run.
    engine.set_cost_model(CostModel::new(10.0, 10.0));
    let handle = Server::start(
        Arc::new(engine),
        None,
        ServerConfig {
            default_deadline: None,
            ..retain_everything()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    // Leg 1: a predicted-cost shed (429) must echo a trace id, embed it in
    // the envelope, and leave a retained trace holding the shed decision.
    let (status, head, body) = post_query(addr, r#"{"tokens": "comedy", "deadline_ms": 50}"#);
    assert_eq!(status, 429, "{body}");
    let shed_id = trace_id_of(&head);
    assert!(
        body.contains(&format!("\"trace_id\": \"{shed_id}\"")),
        "429 envelope must embed its trace id: {body}"
    );

    // Leg 2: a successful query over the zero slow threshold. (The 504 leg
    // lives in `traceparent_round_trips...`: under this absurd cost model a
    // zero deadline is shed at admission before it can expire.)
    let (status, head, _body) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200);
    let slow_id = trace_id_of(&head);

    // Each trace is retrievable by its echoed id, carries the scheduler's
    // decision record, and names why it was retained.
    let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{shed_id}"));
    assert_eq!(status, 200, "{detail}");
    let doc = json::parse(&detail).expect("shed trace parses");
    assert_eq!(doc.get("status").and_then(|s| s.as_f64()), Some(429.0));
    assert!(detail.contains("\"shed\""), "{detail}");
    assert!(detail.contains("\"reason\": \"deadline\""), "{detail}");
    assert!(detail.contains("\"predicted_ms\""), "{detail}");

    let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{slow_id}"));
    assert_eq!(status, 200, "{detail}");
    let doc = json::parse(&detail).expect("slow trace parses");
    assert_eq!(doc.get("status").and_then(|s| s.as_f64()), Some(200.0));
    assert!(detail.contains("\"slow\""), "{detail}");
    // The profile rides along: measured phase times next to the cost
    // model's predictions.
    assert!(detail.contains("\"phases\""), "{detail}");
    assert!(detail.contains("\"predicted_total_ms\""), "{detail}");
    assert!(detail.contains("\"measured_ms\""), "{detail}");
    // And the span tree covers admission through execution.
    assert!(detail.contains("\"spans\": ["), "{detail}");
    assert!(detail.contains("sched.admit"), "{detail}");
    assert!(detail.contains("sched.execute"), "{detail}");
    assert!(detail.contains("engine.answer"), "{detail}");

    // The list view filters by outcome and carries the exemplar bucket.
    let (status, _, list) = get_v1(addr, "/v1/debug/traces?outcome=shed");
    assert_eq!(status, 200);
    let doc = json::parse(&list).expect("list parses");
    assert!(
        doc.get("count").and_then(|c| c.as_f64()).unwrap_or(0.0) >= 1.0,
        "{list}"
    );
    assert!(list.contains(&shed_id), "{list}");
    assert!(!list.contains(&slow_id), "outcome filter leaked: {list}");
    assert!(list.contains("\"bucket_le\""), "{list}");

    // Chrome export of the slow trace is a trace_event document.
    let (status, _, chrome) = get_v1(addr, &format!("/v1/debug/traces/{slow_id}?format=chrome"));
    assert_eq!(status, 200);
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");

    // An unknown id is a structured 404.
    let (status, _, missing) = get_v1(addr, &format!("/v1/debug/traces/{}", "0".repeat(32)));
    assert_eq!(status, 404, "{missing}");
    assert!(
        missing.contains("\"code\": \"trace_not_found\""),
        "{missing}"
    );

    // The trace metric families are exposed.
    let (_, _, metrics) = get_v1(addr, "/v1/metrics");
    assert!(
        metrics.contains("precis_trace_retained_total"),
        "missing trace families"
    );
    assert!(
        metrics.contains("precis_slo_burn_rate"),
        "missing slo families"
    );
    handle.join();
}

#[test]
fn a_burst_leaves_the_last_request_its_own_spans() {
    // Interactive requests are always "slow" and so retained; batch ones keep
    // the default threshold, so the burst below spends recording but (bar
    // its head samples) no retention tokens.
    let config = ServerConfig {
        telemetry: precis_obs::TelemetryConfig {
            slow_interactive: Duration::ZERO,
            ..precis_obs::TelemetryConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = Server::start(test_engine(), None, config).expect("server starts");
    let addr = handle.local_addr();

    // Far more back-to-back requests than any per-second allowance on
    // recording ever admitted: every handled request records, so the last
    // one's trace is as whole as the first's.
    for _ in 0..199 {
        let (status, _, body) = post_query(addr, r#"{"tokens": "comedy", "priority": "batch"}"#);
        assert_eq!(status, 200, "{body}");
    }
    let (status, head, body) = post_query(addr, r#"{"tokens": "comedy"}"#);
    assert_eq!(status, 200, "{body}");
    let last_id = trace_id_of(&head);

    let (status, _, detail) = settled(
        || get_v1(addr, &format!("/v1/debug/traces/{last_id}")),
        |(status, _, _)| *status == 200,
    );
    assert_eq!(status, 200, "{detail}");
    assert!(!detail.contains("request.degraded_capture"), "{detail}");
    let doc = json::parse(&detail).expect("trace detail parses");
    let Some(json::Json::Array(spans)) = doc.get("spans") else {
        panic!("spans not an array: {detail}");
    };
    let span = |name: &str| {
        let named = |s: &&json::Json| s.get("name").and_then(json::Json::as_str) == Some(name);
        let found = spans.iter().find(named);
        found.unwrap_or_else(|| panic!("no {name} span in {detail}"))
    };
    let field = |name: &str, key: &str| {
        let value = span(name).get("fields").and_then(|f| f.get(key));
        let value = value.and_then(json::Json::as_f64);
        value.unwrap_or_else(|| panic!("no {key} on {name} in {detail}"))
    };
    for name in ["api.parse", "sched.admit", "sched.execute", "engine.db_gen"] {
        span(name);
    }
    assert!(span("db_gen.join").get("label").is_some(), "{detail}");
    field("db_gen.join", "tuple_reads");
    // The profile beside them is those spans folded: its queue wait is the
    // number stamped on the execute span.
    let phases = doc.get("profile").and_then(|p| p.get("phases"));
    let queue_wait_ms = phases.and_then(|p| p.get("queue_wait"));
    let queue_wait_ms = queue_wait_ms.and_then(json::Json::as_f64).expect("phase");
    let stamped_ms = field("sched.execute", "queue_wait_ns") / 1e6;
    assert!((queue_wait_ms - stamped_ms).abs() < 1e-6, "{detail}");
    handle.join();
}

#[test]
fn traceparent_round_trips_and_healthz_body_stays_exact() {
    let handle =
        Server::start(test_engine(), None, ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    // An incoming W3C traceparent is adopted: the response echoes the same
    // 128-bit id and a traceparent naming this server's span as parent.
    let incoming = "00-0123456789abcdef0123456789abcdef-00000000000000aa-01";
    let body = r#"{"tokens": "comedy"}"#;
    let (status, head, _body) = roundtrip(
        addr,
        &format!(
            "POST /v1/query HTTP/1.1\r\nHost: t\r\ntraceparent: {incoming}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(trace_id_of(&head), "0123456789abcdef0123456789abcdef");
    assert!(
        head.contains("traceparent: 00-0123456789abcdef0123456789abcdef-"),
        "{head}"
    );

    // `/v1/debug/slow` is a view of the trace store, not a second record:
    // this id is not head-sampled, so under the default thresholds the
    // query is listed there exactly when its trace was retained (it was
    // slow on this host) — never listed with nothing behind the id.
    let (listed, retained, slow) = settled(
        || {
            let (_, _, slow) = get_v1(addr, "/v1/debug/slow");
            let (status, _, _) = get_v1(addr, "/v1/debug/traces/0123456789abcdef0123456789abcdef");
            let listed = slow.contains("0123456789abcdef0123456789abcdef");
            (listed, status == 200, slow)
        },
        |(listed, retained, _)| listed == retained,
    );
    assert_eq!(listed, retained, "{slow}");

    // A malformed traceparent (zero trace id) is rejected: a fresh id is
    // minted instead of propagating the invalid one.
    let zero = format!("00-{}-00000000000000aa-01", "0".repeat(32));
    let (status, head, _body) = roundtrip(
        addr,
        &format!(
            "POST /v1/query HTTP/1.1\r\nHost: t\r\ntraceparent: {zero}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200);
    assert_ne!(trace_id_of(&head), "0".repeat(32));

    // So is one whose fields are not all hex digits: `+` passes integer
    // parsing, but echoing `00123…` would name an id the client never sent.
    let plus = "00-+0123456789abcdef0123456789abcde-+000000000000001-+1";
    let (status, head, _body) = roundtrip(
        addr,
        &format!(
            "POST /v1/query HTTP/1.1\r\nHost: t\r\ntraceparent: {plus}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200);
    assert_ne!(trace_id_of(&head), "00123456789abcdef0123456789abcde");

    // Two bare requests mint distinct ids.
    let (_, head_a, _) = post_query(addr, body);
    let (_, head_b, _) = post_query(addr, body);
    assert_ne!(trace_id_of(&head_a), trace_id_of(&head_b));

    // Telemetry must not perturb response bodies: the health probe is still
    // byte-exactly "ok\n" (integration contracts and CI grep for it). Check
    // before the 504 below — one bad request against four is a fast burn of
    // the availability budget, which legitimately degrades health.
    let (status, _, health) = get_v1(addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert_eq!(health, "ok\n");

    // An expired deadline (504) is an error outcome: its envelope embeds
    // the echoed id and the tail sampler retains the trace.
    let (status, head, late_body) = post_query(addr, r#"{"tokens": "comedy", "deadline_ms": 0}"#);
    assert_eq!(status, 504, "{late_body}");
    let late_id = trace_id_of(&head);
    assert!(
        late_body.contains(&format!("\"trace_id\": \"{late_id}\"")),
        "504 envelope must embed its trace id: {late_body}"
    );
    let (status, _, detail) = get_v1(addr, &format!("/v1/debug/traces/{late_id}"));
    assert_eq!(status, 200, "{detail}");
    let doc = json::parse(&detail).expect("504 trace parses");
    assert_eq!(doc.get("status").and_then(|s| s.as_f64()), Some(504.0));
    assert!(detail.contains("\"error\""), "{detail}");
    assert!(detail.contains("\"sched\""), "{detail}");

    // After the 504, health degrades (still 200 — the process is up) and
    // names the burning objective.
    let (status, _, health) = get_v1(addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert!(health.starts_with("degraded: fast burn on "), "{health}");
    assert!(health.contains("availability_99_9"), "{health}");

    // The SLO surface parses and names the default objectives.
    let (status, _, slo) = get_v1(addr, "/v1/debug/slo");
    assert_eq!(status, 200, "{slo}");
    let doc = json::parse(&slo).expect("slo body parses");
    assert!(doc.get("slos").is_some(), "{slo}");
    assert!(slo.contains("interactive_p99_25ms"), "{slo}");
    assert!(slo.contains("availability_99_9"), "{slo}");
    assert!(slo.contains("\"burn_rate\""), "{slo}");
    handle.join();
}

/// This host's non-loopback self address, if one exists: route a UDP socket
/// at a TEST-NET address (no packets are sent) and read the chosen source
/// IP. Lets a test connect to its own server with a non-loopback peer.
fn non_loopback_self(port: u16) -> Option<SocketAddr> {
    let probe = std::net::UdpSocket::bind("0.0.0.0:0").ok()?;
    probe.connect("192.0.2.1:9").ok()?;
    let ip = probe.local_addr().ok()?.ip();
    (!ip.is_loopback()).then(|| SocketAddr::new(ip, port))
}

#[test]
fn every_loopback_only_endpoint_refuses_remote_peers_with_the_envelope() {
    let handle = Server::start(
        test_engine(),
        None,
        ServerConfig {
            addr: "0.0.0.0:0".to_owned(),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let Some(remote) = non_loopback_self(handle.local_addr().port()) else {
        // No non-loopback interface (unusual CI sandbox): nothing to test.
        handle.trigger_shutdown();
        handle.join();
        return;
    };

    // The full loopback-only surface: every refusal is the structured
    // envelope with a trace id, never a bare 403.
    let paths = [
        ("GET", "/v1/debug/slow"),
        ("GET", "/v1/debug/traces"),
        (
            "GET",
            &format!("/v1/debug/traces/{}", "a".repeat(32)) as &str,
        ),
        ("GET", "/v1/debug/slo"),
        ("POST", "/v1/mutate"),
        ("POST", "/shutdown"),
    ];
    for (method, path) in paths {
        let (status, head, body) = roundtrip(
            remote,
            &format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"),
        );
        assert_eq!(status, 403, "{method} {path}: {body}");
        assert!(
            body.contains("\"code\": \"forbidden\""),
            "{method} {path} refusal is not the envelope: {body}"
        );
        assert!(
            body.contains("\"trace_id\""),
            "{method} {path} refusal lacks a trace id: {body}"
        );
        let _ = trace_id_of(&head);
    }

    // The public surface still answers the remote peer.
    let (status, _, body) = roundtrip(remote, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    handle.trigger_shutdown();
    handle.join();
}
