//! The traced run: spans around the client's round trip and around an
//! in-process replay of the same request through each layer's public
//! functions, kept in memory and written out when the run ends.

use crate::http::Client;
use crate::stats;
use precis_core::{
    generate_result_database, generate_result_schema, AnswerSpec, DbGenOptions, PrecisEngine,
    RetrievalStrategy,
};
use precis_nlg::{Translator, Vocabulary};
use precis_server::{parse_query_request, render_answer};
use precis_storage::{RelationId, TupleId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One timed interval. `parent` indexes [`Trace::spans`]; spans of one
/// request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover (overlapping children counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                s.ns() - covered
            })
            .collect()
    }

    /// Duration of every span called `name`, µs, ascending.
    pub fn sorted_us(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    }

    /// Duration of the span recorded last, µs.
    fn last_us(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.ns() as f64 / 1e3)
    }

    pub fn p50_us(&self, name: &str) -> f64 {
        stats::percentile(&self.sorted_us(name), 0.5).unwrap_or(0.0)
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto):
    /// complete events, µs, with the span's request and parent in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"request\": {}, \"parent\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.request,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// Span names. The client phases and [`UNATTRIBUTED`] partition the round
/// trip; the server stages are replayed in process.
pub const ROUND_TRIP: &str = "client.round_trip";
pub const CONNECT: &str = "server.http.connect";
pub const SEND: &str = "server.http.send";
pub const TTFB: &str = "server.http.ttfb";
pub const READ_BODY: &str = "server.http.read_body";
pub const REPLAY: &str = "replay";
pub const PARSE: &str = "server.parse";
pub const PREDICT: &str = "core.predict_cost";
pub const LOOKUP: &str = "index.lookup";
pub const SCHEMA_GEN: &str = "core.schema_gen";
pub const DB_GEN: &str = "core.db_gen";
pub const DB_GEN_NAIVE: &str = "core.db_gen.naive";
pub const DB_GEN_ROUNDROBIN: &str = "core.db_gen.roundrobin";
pub const TRANSLATE: &str = "nlg.translate";
pub const RENDER: &str = "server.render_answer";
pub const ANSWER: &str = "core.answer";
pub const UNATTRIBUTED: &str = "server.unattributed";

/// The replayed stages the server runs once per request, in order: what the
/// wait for the first byte is attributed to.
pub const SERVER_STAGES: [&str; 7] = [
    PARSE, PREDICT, LOOKUP, SCHEMA_GEN, DB_GEN, TRANSLATE, RENDER,
];

/// Counts taken at the span boundaries, summed over the traced requests.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: u64,
    pub tokens: u64,
    pub tids: u64,
    pub result_tuples: u64,
    pub index_probes: u64,
    pub tuple_reads: u64,
    pub narrative_bytes: u64,
    pub render_bytes: u64,
    /// Per request: connect-to-first-byte minus the replayed server stages, µs.
    pub unattributed_us: Vec<f64>,
    /// Per request: `render_answer` minus narrative synthesis, µs.
    pub render_only_us: Vec<f64>,
}

pub struct Traced {
    pub trace: Trace,
    pub counts: Counts,
    /// Requests whose live answer was not a `200`.
    pub failed: u64,
}

/// Send each of `ids` to the live server, one at a time, then replay it in
/// process, until `max_requests` are done or `budget` is spent.
pub fn traced_pass(
    addr: SocketAddr,
    engine: &PrecisEngine,
    vocabulary: &Vocabulary,
    bodies: &[String],
    ids: impl Iterator<Item = usize>,
    max_requests: usize,
    budget: Duration,
) -> Traced {
    let mut trace = Trace::new();
    let mut counts = Counts::default();
    let mut failed = 0;
    let mut client = Client::new(addr);
    let give_up = Instant::now() + budget;
    for (request, id) in ids.take(max_requests).enumerate() {
        if Instant::now() > give_up {
            break;
        }
        let body = &bodies[id];
        let ttfb_us = match client.post("/v1/query", body) {
            Ok(reply) if reply.status == 200 => {
                let p = reply.phases;
                let root = trace.record(ROUND_TRIP, p.start, p.last_byte, None, request);
                trace.record(CONNECT, p.start, p.connected, Some(root), request);
                // On loopback the kernel may run the server's side of the
                // exchange inside the client's `write`, so the write is part
                // of the wait for the first byte, not a phase before it.
                let ttfb = trace.record(TTFB, p.connected, p.first_byte, Some(root), request);
                trace.record(SEND, p.connected, p.sent, Some(ttfb), request);
                trace.record(READ_BODY, p.first_byte, p.last_byte, Some(root), request);
                (p.first_byte - p.connected).as_secs_f64() * 1e6
            }
            _ => {
                failed += 1;
                continue;
            }
        };
        let stages_us = replay(&mut trace, &mut counts, engine, vocabulary, body, request);
        counts.unattributed_us.push(ttfb_us - stages_us);
        counts.requests += 1;
    }
    Traced {
        trace,
        counts,
        failed,
    }
}

/// Run one request body through the layers' public functions, a span around
/// each call. Returns the µs the [`SERVER_STAGES`] took.
fn replay(
    trace: &mut Trace,
    counts: &mut Counts,
    engine: &PrecisEngine,
    vocabulary: &Vocabulary,
    body: &str,
    request: usize,
) -> f64 {
    // The root's end is filled in when the replay is over.
    let now = Instant::now();
    let first_span = trace.record(REPLAY, now, now, None, request);
    let root = Some(first_span);

    let parsed = trace.timed(PARSE, root, request, || parse_query_request(body));
    let parsed = parsed.expect("harness bodies parse");
    let _ = trace.timed(PREDICT, root, request, || {
        engine.predict_cost(&parsed.query, &parsed.degree, &parsed.cardinality)
    });

    // Stage 1, cache bypassed: the index itself, once per token.
    let (db, graph) = (engine.database(), engine.graph());
    let mut origins: Vec<RelationId> = Vec::new();
    let mut seeds: HashMap<RelationId, Vec<TupleId>> = HashMap::new();
    for token in parsed.query.tokens() {
        let occurrences = trace.timed(LOOKUP, root, request, || engine.index().lookup(db, token));
        counts.tokens += 1;
        for occ in &occurrences {
            counts.tids += occ.tids.len() as u64;
            if !origins.contains(&occ.rel) {
                origins.push(occ.rel);
            }
            seeds.entry(occ.rel).or_default().extend(occ.tids.iter());
        }
    }
    // Stage 2, uncached.
    let schema = trace.timed(SCHEMA_GEN, root, request, || {
        generate_result_schema(graph, &origins, &parsed.degree)
    });
    // Stage 3 under the request's own strategy, storage counters read
    // around it.
    let options = DbGenOptions::default();
    let before = db.stats().snapshot();
    let precis = trace.timed(DB_GEN, root, request, || {
        generate_result_database(
            db,
            graph,
            &schema,
            &seeds,
            &parsed.cardinality,
            parsed.strategy,
            &options,
        )
    });
    let used = db.stats().snapshot().since(before);
    counts.index_probes += used.index_probes;
    counts.tuple_reads += used.tuple_reads;
    counts.result_tuples += precis.map_or(0, |p| p.total_tuples() as u64);
    // The whole engine call, caches on; its answer feeds NLG and render.
    let spec = AnswerSpec::new(parsed.degree.clone(), parsed.cardinality.clone())
        .with_strategy(parsed.strategy);
    let answer = trace.timed(ANSWER, root, request, || {
        engine.answer(&parsed.query, &spec)
    });
    let answer = answer.expect("harness queries are not empty");
    // `render_answer` first, as the server runs it: narrative synthesis
    // inside, then serialization. The standalone synthesis after it tells
    // the two apart.
    let rendered = trace.timed(RENDER, root, request, || {
        render_answer(engine, Some(vocabulary), &answer)
    });
    let render_us = trace.last_us();
    counts.render_bytes += rendered.len() as u64;
    let translator = Translator::new(db, graph, vocabulary);
    let narratives = trace.timed(TRANSLATE, root, request, || {
        translator.translate_ranked(&answer)
    });
    counts.render_only_us.push(render_us - trace.last_us());
    counts.narrative_bytes += narratives
        .map(|ns| ns.iter().map(|n| n.text.len() as u64).sum::<u64>())
        .unwrap_or(0);

    // Last, so that they do not sit between the stages above and cool the
    // caches the server would find warm: Stage 3 again under both of the
    // paper's strategies (Fig. 9), same seeds, same schema.
    for (name, strategy) in [
        (DB_GEN_NAIVE, RetrievalStrategy::NaiveQ),
        (DB_GEN_ROUNDROBIN, RetrievalStrategy::RoundRobin),
    ] {
        let _ = trace.timed(name, root, request, || {
            generate_result_database(
                db,
                graph,
                &schema,
                &seeds,
                &parsed.cardinality,
                strategy,
                &options,
            )
        });
    }

    trace.spans[first_span].end_ns = (Instant::now() - trace.origin).as_nanos() as u64;

    // `render_answer` holds one narrative synthesis already, so the stage
    // sum takes the standalone one out.
    trace.spans[first_span + 1..]
        .iter()
        .filter(|s| SERVER_STAGES.contains(&s.name) && s.name != TRANSLATE)
        .map(|s| s.ns() as f64 / 1e3)
        .sum()
}

/// One row of "where a round trip goes".
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub name: &'static str,
    /// Mean per traced request, µs.
    pub mean_us: f64,
}

/// Mean µs per request of each part of the round trip. The rows are the
/// client phases — connect, first byte (counted from the connect, so it
/// holds the request's write), body — with the wait for the first byte split
/// into the replayed server stages and what they leave unattributed, so the
/// rows sum to the round trip.
/// Narrative synthesis is shown on its own row and taken out of
/// `server.render_answer`, which contains it.
pub fn budget(traced: &Traced) -> (Vec<BudgetRow>, f64) {
    let n = traced.counts.requests.max(1) as f64;
    let mut total_us: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &traced.trace.spans {
        *total_us.entry(s.name).or_default() += s.ns() as f64 / 1e3;
    }
    let mean = |name: &str| total_us.get(name).copied().unwrap_or(0.0) / n;
    let mut rows = vec![BudgetRow {
        name: CONNECT,
        mean_us: mean(CONNECT),
    }];
    for stage in SERVER_STAGES {
        let mean_us = match stage {
            RENDER => mean(RENDER) - mean(TRANSLATE),
            other => mean(other),
        };
        rows.push(BudgetRow {
            name: if stage == RENDER {
                "server.render"
            } else {
                stage
            },
            mean_us,
        });
    }
    rows.push(BudgetRow {
        name: UNATTRIBUTED,
        mean_us: stats::mean(&traced.counts.unattributed_us).unwrap_or(0.0),
    });
    rows.push(BudgetRow {
        name: READ_BODY,
        mean_us: mean(READ_BODY),
    });
    (rows, mean(ROUND_TRIP))
}

/// The budget as printed text.
pub fn budget_table(workload: &str, traced: &Traced) -> String {
    let (rows, round_trip) = budget(traced);
    let sum: f64 = rows.iter().map(|r| r.mean_us).sum();
    let mut out = format!(
        "where a round trip goes: {workload} ({} traced requests, mean per request)\n",
        traced.counts.requests
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:<26} {:>10.1} us {:>6.1}%",
            r.name,
            r.mean_us,
            100.0 * r.mean_us / round_trip.max(f64::MIN_POSITIVE)
        );
    }
    let _ = writeln!(out, "  {:<26} {:>10.1} us", "sum of rows", sum);
    let _ = writeln!(out, "  {:<26} {:>10.1} us", ROUND_TRIP, round_trip);

    // Every span by name: total time, and self time (what its children do
    // not cover), which is where a span's own work or waiting shows.
    let mut by_name: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (span, self_ns) in traced.trace.spans.iter().zip(traced.trace.self_ns()) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += span.ns() as f64 / 1e3;
        entry.1 += self_ns as f64 / 1e3;
    }
    let n = traced.counts.requests.max(1) as f64;
    let _ = writeln!(
        out,
        "spans, mean us per traced request\n  {:<26} {:>10} {:>10}",
        "name", "total", "self"
    );
    for (name, (total, own)) in by_name {
        let _ = writeln!(out, "  {name:<26} {:>10.1} {:>10.1}", total / n, own / n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![
                span("root", 0, 100, None),
                span("a", 10, 30, Some(0)),
                // Overlaps `a`: the shared 5 ns count once.
                span("b", 25, 50, Some(0)),
                // Sticks out of the root: clipped to it.
                span("c", 90, 120, Some(0)),
                span("leaf", 12, 20, Some(1)),
                // Outside its parent altogether: covers nothing.
                span("stray", 200, 300, Some(0)),
            ],
        };
        assert_eq!(trace.self_ns(), vec![50, 12, 25, 30, 8, 100]);
    }

    #[test]
    fn chrome_json_is_json_with_one_event_per_span() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![span("root", 0, 1_500, None), span("kid", 100, 600, Some(0))],
        };
        let doc = precis_server::json::parse(&trace.to_chrome_json()).expect("valid JSON");
        let Some(precis_server::json::Json::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("kid"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(0.5));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_usize()),
            Some(0)
        );
    }
}
