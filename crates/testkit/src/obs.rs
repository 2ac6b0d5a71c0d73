//! Observability leg: tracing must never change an answer, and the span
//! stream must stay structurally sound.
//!
//! For a slice of the oracle's seeded cases this suite answers and renders
//! each query twice — untraced, then inside an entered [`Trace`] — and
//! asserts:
//!
//! * **Answer invariance** — the rendered answers are byte-identical.
//!   Span sites live on the hot path; any observable difference means
//!   instrumentation leaked into semantics.
//! * **Span-tree well-formedness** — every recorded span is closed with
//!   `end_ns >= start_ns`, belongs to the entered trace, ids are unique,
//!   and (when nothing was dropped) every non-root parent exists, started
//!   no later than its child, and ended no earlier.
//! * **Profile sanity** — the profile folded from those spans has phase
//!   times that fit inside the total and self-consistent relation counters.
//! * **Always-on sampling invariance** — a served default query's body is
//!   byte-identical to the direct engine answer rendered by the server's
//!   own renderer, while every response echoes a trace id; and once the
//!   server is gone a span site with no trace entered costs within a
//!   generous CI bound.

use crate::gen::{mix_seed, CaseSpec};
use crate::oracle::build_dataset;
use precis_core::{AnswerSpec, DbGenOptions, PrecisEngine, PrecisQuery};
use precis_nlg::Vocabulary;
use precis_obs::{ProfileSnapshot, SpanRecord, Trace};
use precis_server::render_answer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Span cap of one traced answer; the largest seeded cases stay well
/// under it.
const MAX_SPANS: usize = 1 << 16;

/// Outcome of the observability suite.
#[derive(Debug)]
pub struct ObsReport {
    pub checks: usize,
    pub failures: Vec<String>,
}

impl ObsReport {
    fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(detail());
        }
    }
}

fn spec_for(case: &CaseSpec) -> AnswerSpec {
    AnswerSpec {
        degree: case.degree.clone(),
        cardinality: case.cardinality.clone(),
        strategy: case.strategy,
        profile: None,
        options: DbGenOptions::default(),
    }
}

/// Validate one trace's span set. `complete` is false when the trace
/// dropped records, in which case parent links may legitimately dangle.
fn check_spans(report: &mut ObsReport, label: &str, spans: &[SpanRecord], complete: bool) {
    let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    for s in spans {
        report.check(s.end_ns >= s.start_ns, || {
            format!("{label}: span {} ({}) ends before it starts", s.id, s.name)
        });
        report.check(by_id.insert(s.id, s).is_none(), || {
            format!("{label}: duplicate span id {}", s.id)
        });
    }
    if !complete {
        return;
    }
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        match by_id.get(&s.parent) {
            None => report.check(false, || {
                format!(
                    "{label}: span {} ({}) has missing parent {}",
                    s.id, s.name, s.parent
                )
            }),
            Some(p) => {
                report.check(p.start_ns <= s.start_ns && p.end_ns >= s.end_ns, || {
                    format!(
                        "{label}: parent {} [{}, {}] does not enclose child {} [{}, {}]",
                        p.name, p.start_ns, p.end_ns, s.name, s.start_ns, s.end_ns
                    )
                });
                report.check(p.id < s.id, || {
                    format!("{label}: parent {} opened after child {}", p.id, s.id)
                });
            }
        }
    }
}

fn run_case_traced(
    report: &mut ObsReport,
    engine: &PrecisEngine,
    vocab: Option<&Vocabulary>,
    case: &CaseSpec,
    label: &str,
) {
    let q = PrecisQuery::new(case.tokens.iter().map(String::as_str));

    // Leg 1: no trace entered — the baseline bytes.
    let baseline = match engine.answer(&q, &spec_for(case)) {
        Ok(a) => render_answer(engine, vocab, &a),
        Err(e) => {
            report.check(false, || format!("{label}: untraced answer errored: {e}"));
            return;
        }
    };

    // Leg 2: the same answer and rendering inside an entered trace.
    let mut trace = Trace::new(MAX_SPANS);
    let traced = {
        let _entered = trace.enter();
        engine
            .answer(&q, &spec_for(case))
            .map(|a| render_answer(engine, vocab, &a))
    };
    let traced = match traced {
        Ok(body) => body,
        Err(e) => {
            report.check(false, || format!("{label}: traced answer errored: {e}"));
            return;
        }
    };

    report.check(baseline == traced, || {
        format!(
            "{label}: traced answer diverged from untraced (lengths {} vs {})",
            baseline.len(),
            traced.len()
        )
    });

    let snap = ProfileSnapshot::fold(&case.tokens.join(" "), trace.spans(), None);
    let id = trace.id();
    let (spans, dropped) = trace.finish();
    report.check(!spans.is_empty(), || {
        format!("{label}: traced answer recorded no spans")
    });
    report.check(spans.iter().all(|s| s.trace == id), || {
        format!("{label}: trace holds another trace's spans")
    });
    check_spans(report, label, &spans, dropped == 0);

    let phase_sum: u64 = precis_obs::Phase::ALL.iter().map(|&p| snap.phase(p)).sum();
    report.check(phase_sum <= snap.total_ns, || {
        format!(
            "{label}: phase sum {} exceeds total {}",
            phase_sum, snap.total_ns
        )
    });
    for r in &snap.relations {
        report.check(r.tuple_reads >= r.tuples || r.tuples == 0, || {
            format!(
                "{label}: relation {} read {} tuples but retained {}",
                r.relation, r.tuple_reads, r.tuples
            )
        });
    }
}

/// One raw HTTP/1.1 exchange returning the full response text (status line,
/// headers, and body) — the sampling check needs to see headers, which
/// [`crate::oracle::http_request`] strips.
fn raw_http(addr: std::net::SocketAddr, body: &str) -> std::io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    let req = format!(
        "POST /v1/query HTTP/1.1\r\nHost: testkit\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Always-on sampling must be invisible in response bodies: the server
/// (every request traced, tail-sampled, SLO-counted) answers a default
/// query byte-identically to the direct engine answer under the server's
/// own renderer, adding only the echoed trace headers. Afterwards one span
/// site with no trace entered must cost no more than a generous CI-tolerant
/// bound.
fn always_on_sampling_check(report: &mut ObsReport) {
    use precis_datagen::{movies_graph, movies_vocabulary, woody_allen_instance};
    use precis_server::{parse_query_request, Server, ServerConfig};

    let db = woody_allen_instance();
    let vocab = movies_vocabulary(db.schema());
    let engine = Arc::new(PrecisEngine::new(db, movies_graph()).expect("demo engine"));
    let server = Server::start(
        Arc::clone(&engine),
        Some(vocab.clone()),
        ServerConfig {
            workers: 2,
            default_deadline: None,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let body = r#"{"tokens": "woody comedy"}"#;
    let request = parse_query_request(body).expect("sampling check body parses");
    let spec = AnswerSpec::new(request.degree, request.cardinality).with_strategy(request.strategy);
    let direct = engine
        .answer(&request.query, &spec)
        .map(|a| render_answer(&engine, Some(&vocab), &a))
        .expect("direct answer");
    for _ in 0..3 {
        let response = match raw_http(server.local_addr(), body) {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("sampling check request failed: {e}"));
                break;
            }
        };
        let (head, served) = response.split_once("\r\n\r\n").unwrap_or_default();
        report.check(served == direct, || {
            format!(
                "always-on sampling changed the response body:\ndirect: {direct}\nserved: {served}"
            )
        });
        let head_lower = head.to_ascii_lowercase();
        report.check(head_lower.contains("x-precis-trace-id:"), || {
            format!("response is missing x-precis-trace-id:\n{head}")
        });
        report.check(head_lower.contains("traceparent:"), || {
            format!("response is missing traceparent:\n{head}")
        });
    }
    server.join();

    // Re-measure the inert path. The real cost is one thread-local read (a
    // few ns); the bound is deliberately generous so shared CI runners never
    // flake, while still catching a span site that reads the clock or
    // allocates with no trace entered.
    let iters: u32 = 2_000_000;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let _s = precis_obs::span("obs.inert_site");
    }
    let per_site_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    report.check(per_site_ns < 250.0, || {
        format!("inert span site costs {per_site_ns:.1} ns, over the 250 ns CI bound")
    });
}

/// Run the observability suite over `cases` seeded cases derived from
/// `seed` (the same derivation as the oracle, so any failure names a case
/// reproducible via `CaseSpec::generate(mix_seed(seed, index))`).
pub fn run_obs_suite(seed: u64, cases: usize) -> ObsReport {
    let mut report = ObsReport {
        checks: 0,
        failures: Vec::new(),
    };
    // Real answers must not see faults armed by concurrent tests. A trace is
    // only reachable from the thread that entered it, so the span side needs
    // no gate.
    let _fp_gate = precis_storage::failpoint::exclusive();
    precis_storage::failpoint::disarm_all();

    let mut engines: BTreeMap<String, (PrecisEngine, Option<Vocabulary>)> = BTreeMap::new();
    for index in 0..cases as u64 {
        let case = CaseSpec::generate(mix_seed(seed, index));
        let key = format!("{:?}", case.dataset);
        if !engines.contains_key(&key) {
            let (db, graph, vocab) = build_dataset(&case.dataset);
            match PrecisEngine::new(db, graph) {
                Ok(engine) => {
                    engines.insert(key.clone(), (engine, vocab));
                }
                Err(e) => {
                    report.check(false, || {
                        format!("case #{index}: engine build failed for {key}: {e}")
                    });
                    continue;
                }
            }
        }
        let (engine, vocab) = &engines[&key];
        let label = format!("case #{index} ({key})");
        run_case_traced(&mut report, engine, vocab.as_ref(), &case, &label);
    }
    always_on_sampling_check(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_checker_flags_malformed_trees() {
        let mut report = ObsReport {
            checks: 0,
            failures: Vec::new(),
        };
        let spans = vec![SpanRecord {
            trace: 1,
            id: 2,
            parent: 9,
            name: "orphan",
            start_ns: 5,
            end_ns: 3,
            thread: 1,
            fields: Default::default(),
            label: None,
        }];
        check_spans(&mut report, "synthetic", &spans, true);
        // Ends-before-start and the dangling parent both fire.
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        // With an incomplete drain the dangling parent is forgiven.
        let mut lenient = ObsReport {
            checks: 0,
            failures: Vec::new(),
        };
        check_spans(&mut lenient, "synthetic", &spans, false);
        assert_eq!(lenient.failures.len(), 1, "{:?}", lenient.failures);
    }

    #[test]
    fn suite_passes_on_a_seeded_slice() {
        let report = run_obs_suite(7, 4);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.checks >= 20, "only {} checks ran", report.checks);
    }
}
