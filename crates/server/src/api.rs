//! The `/v1/query` API: request decoding, answer execution under a deadline,
//! and deterministic JSON rendering of the précis (result sub-database +
//! narratives).
//!
//! Rendering lives here — public and pure — so the integration tests can
//! compute the expected body for a query with a direct [`PrecisEngine`]
//! call and assert the served bytes are identical under concurrency.

use crate::json::{self, Json};
use crate::sched::Priority;
use precis_core::{
    AnswerSpec, CancelToken, CardinalityConstraint, CoreError, DegreeConstraint, PrecisAnswer,
    PrecisEngine, PrecisQuery, QueryPlan, RetrievalStrategy,
};
use precis_nlg::{Translator, Vocabulary};
use precis_obs::telemetry::MAX_SPANS_PER_TRACE;
use precis_obs::{Phase, ProfileSnapshot, Trace};
use precis_storage::ValueRef;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A decoded `/v1/query` request body.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub query: PrecisQuery,
    pub degree: DegreeConstraint,
    pub cardinality: CardinalityConstraint,
    pub strategy: RetrievalStrategy,
    /// Per-request deadline override, milliseconds. Capped by the server's
    /// configured default.
    pub deadline_ms: Option<u64>,
    /// Whether the response should carry a `"profile"` object with per-phase
    /// and per-relation timings. The server folds every query's profile from
    /// its spans either way (for retained traces and `/v1/metrics`
    /// aggregates); this flag only controls the response body, so default
    /// responses stay byte-identical.
    pub profile: bool,
    /// Deadline class for the scheduler: interactive queries are ordered
    /// ahead of batch queries.
    pub priority: Priority,
}

/// Decode a request body. Only `tokens` is required:
///
/// ```json
/// {
///   "tokens": "woody allen",            // or ["woody", "allen"]
///   "degree": {"minweight": 0.9},       // or {"top": 3} or {"maxlen": 2}
///   "cardinality": {"perrel": 10},      // or {"total": 50} or "unbounded"
///   "strategy": "roundrobin",           // or "naive" / "topweight"
///   "deadline_ms": 2000,
///   "priority": "interactive"           // or "batch"
/// }
/// ```
pub fn parse_query_request(body: &str) -> Result<QueryRequest, String> {
    let doc = json::parse(body)?;
    let query = match doc.get("tokens") {
        Some(Json::String(s)) => PrecisQuery::parse(s),
        Some(Json::Array(items)) => {
            let tokens: Vec<&str> = items
                .iter()
                .map(|t| t.as_str().ok_or("tokens array must hold strings"))
                .collect::<Result<_, _>>()?;
            PrecisQuery::new(tokens)
        }
        Some(_) => return Err("\"tokens\" must be a string or an array of strings".to_owned()),
        None => return Err("missing required field \"tokens\"".to_owned()),
    };

    let degree = match doc.get("degree") {
        None => DegreeConstraint::MinWeight(0.9),
        Some(d) => {
            if let Some(w) = d.get("minweight").and_then(Json::as_f64) {
                if !(0.0..=1.0).contains(&w) {
                    return Err("degree.minweight must be in [0, 1]".to_owned());
                }
                DegreeConstraint::MinWeight(w)
            } else if let Some(r) = d.get("top").and_then(Json::as_usize) {
                DegreeConstraint::TopProjections(r)
            } else if let Some(l) = d.get("maxlen").and_then(Json::as_usize) {
                DegreeConstraint::MaxPathLength(l)
            } else {
                return Err(
                    "degree must be {\"minweight\": w} | {\"top\": r} | {\"maxlen\": l}".to_owned(),
                );
            }
        }
    };

    let cardinality = match doc.get("cardinality") {
        None => CardinalityConstraint::MaxTuplesPerRelation(10),
        Some(Json::String(s)) if s == "unbounded" => CardinalityConstraint::Unbounded,
        Some(c) => {
            if let Some(n) = c.get("perrel").and_then(Json::as_usize) {
                CardinalityConstraint::MaxTuplesPerRelation(n)
            } else if let Some(n) = c.get("total").and_then(Json::as_usize) {
                CardinalityConstraint::MaxTotalTuples(n)
            } else {
                return Err(
                    "cardinality must be {\"perrel\": n} | {\"total\": n} | \"unbounded\""
                        .to_owned(),
                );
            }
        }
    };

    let strategy = match doc.get("strategy") {
        None => RetrievalStrategy::RoundRobin,
        Some(Json::String(s)) => match s.as_str() {
            "naive" => RetrievalStrategy::NaiveQ,
            "roundrobin" => RetrievalStrategy::RoundRobin,
            "topweight" => RetrievalStrategy::TopWeight,
            other => return Err(format!("unknown strategy {other:?}")),
        },
        Some(_) => return Err("strategy must be a string".to_owned()),
    };

    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or("deadline_ms must be a non-negative integer")? as u64,
        ),
    };

    let profile = match doc.get("profile") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("profile must be a boolean".to_owned()),
    };

    let priority = match doc.get("priority") {
        None => Priority::Interactive,
        Some(Json::String(s)) => match s.as_str() {
            "interactive" => Priority::Interactive,
            "batch" => Priority::Batch,
            other => {
                return Err(format!(
                    "unknown priority {other:?} (expected \"interactive\" | \"batch\")"
                ))
            }
        },
        Some(_) => return Err("priority must be a string".to_owned()),
    };

    Ok(QueryRequest {
        query,
        degree,
        cardinality,
        strategy,
        deadline_ms,
        profile,
        priority,
    })
}

/// Plan and execute a decoded request against the engine under a deadline
/// and render the success body, with the profile object appended when the
/// request asked for it. `Err(CoreError::Cancelled)` means the deadline
/// fired.
pub fn answer_query(
    engine: &PrecisEngine,
    vocabulary: Option<&Vocabulary>,
    request: &QueryRequest,
    default_deadline: Option<Duration>,
) -> Result<String, CoreError> {
    let deadline = request_budget(request, default_deadline).map(|b| Instant::now() + b);
    let mut trace = Trace::new(MAX_SPANS_PER_TRACE);
    let mut body = {
        let _entered = trace.enter();
        let plan = engine.plan(&request.query, &request.degree, None)?;
        answer_query_at(engine, vocabulary, request, plan, deadline)?
    };
    if request.profile {
        let query = request.query.tokens().join(" ");
        let snap = ProfileSnapshot::fold(&query, trace.spans(), engine.cost_params());
        let mut rendered = String::new();
        write_profile_json(&mut rendered, &snap);
        splice_json_field(&mut body, "profile", &rendered);
    }
    Ok(body)
}

/// The wall-clock budget a request is entitled to: its own `deadline_ms`
/// capped by the server default.
pub fn request_budget(
    request: &QueryRequest,
    default_deadline: Option<Duration>,
) -> Option<Duration> {
    match (request.deadline_ms, default_deadline) {
        (Some(ms), Some(cap)) => Some(Duration::from_millis(ms).min(cap)),
        (Some(ms), None) => Some(Duration::from_millis(ms)),
        (None, cap) => cap,
    }
}

/// Execute a decoded request, already planned on `engine`, against an
/// *absolute* deadline — the v1 end-to-end contract, where the clock starts
/// at admission and time spent queued counts against the caller's budget.
/// Its pipeline and rendering spans record into whatever trace the caller
/// has entered. Returns the default body: the `profile` / `scheduling`
/// objects of a request that asked for them are spliced by the caller.
pub fn answer_query_at(
    engine: &PrecisEngine,
    vocabulary: Option<&Vocabulary>,
    request: &QueryRequest,
    plan: QueryPlan,
    deadline: Option<Instant>,
) -> Result<String, CoreError> {
    let mut options = precis_core::DbGenOptions::default();
    let cancel = deadline.map(CancelToken::with_deadline);
    options.cancel = cancel.clone();
    let spec = AnswerSpec::new(request.degree.clone(), request.cardinality.clone())
        .with_strategy(request.strategy)
        .with_options(options);
    let answer = engine.answer_planned(plan, &spec)?;
    // The deadline also covers narrative synthesis: bail before rendering a
    // large answer the caller will never wait for.
    if let Some(c) = &cancel {
        c.check()?;
    }
    Ok(render_answer(engine, vocabulary, &answer))
}

/// Splice `, "<key>": <value_json>` in before the body's closing brace,
/// keeping everything already rendered byte-identical. Bodies from
/// [`render_answer`] always end with `}\n`.
pub fn splice_json_field(body: &mut String, key: &str, value_json: &str) {
    let trimmed = body
        .strip_suffix("}\n")
        .expect("render_answer bodies end with }\\n")
        .len();
    body.truncate(trimmed);
    body.push_str(", \"");
    body.push_str(key);
    body.push_str("\": ");
    body.push_str(value_json);
    body.push_str("}\n");
}

/// Render the `"scheduling"` metadata object a profiled response carries:
/// what the admission controller predicted and how long the request
/// actually queued.
pub fn render_scheduling_json(predicted_secs: Option<f64>, queue_wait: Duration) -> String {
    let mut out = String::from("{\"predicted_ms\": ");
    match predicted_secs {
        Some(s) => json::write_f64(&mut out, s * 1e3),
        None => out.push_str("null"),
    }
    out.push_str(", \"queue_wait_ms\": ");
    json::write_f64(&mut out, queue_wait.as_secs_f64() * 1e3);
    out.push('}');
    out
}

/// Append one [`ProfileSnapshot`] as a deterministic JSON object: phases in
/// [`Phase::ALL`] order, relations in name order (as the snapshot stores
/// them), times in fractional milliseconds.
pub fn write_profile_json(out: &mut String, snap: &ProfileSnapshot) {
    let _ = write!(out, "{{\"trace\": {}, \"total_ms\": ", snap.trace);
    json::write_f64(out, snap.total_ns as f64 / 1e6);
    out.push_str(", \"phases\": {");
    let mut first = true;
    for phase in Phase::ALL {
        let ns = snap.phase(phase);
        if ns == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{}\": ", phase.name());
        json::write_f64(out, ns as f64 / 1e6);
    }
    out.push_str("}, \"relations\": [");
    for (i, r) in snap.relations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"relation\": ");
        json::write_str(out, &r.relation);
        let _ = write!(
            out,
            ", \"tuples\": {}, \"index_probes\": {}, \"tuple_reads\": {}, \"cache_hits\": {}, \
             \"measured_ms\": ",
            r.tuples, r.index_probes, r.tuple_reads, r.cache_hits
        );
        json::write_f64(out, r.wall_ns as f64 / 1e6);
        out.push_str(", \"predicted_ms\": ");
        match r.predicted_secs {
            Some(s) => json::write_f64(out, s * 1e3),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("], \"predicted_total_ms\": ");
    match snap.predicted_total_secs {
        Some(s) => json::write_f64(out, s * 1e3),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// Render one answered query as the deterministic response body. The
/// narrative synthesis inside it has its own span, so a profile charges it
/// to `nlg` and the rest of serialization to `render`.
pub fn render_answer(
    engine: &PrecisEngine,
    vocabulary: Option<&Vocabulary>,
    answer: &PrecisAnswer,
) -> String {
    let _render_span = precis_obs::span(Phase::Render.span_name());
    let mut out = String::with_capacity(1024);
    out.push_str("{\"tokens\": [");
    for (i, m) in answer.matches.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, &m.token);
    }
    out.push_str("], \"unmatched\": [");
    for (i, t) in answer.unmatched_tokens().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, t);
    }
    out.push_str("], \"database\": {");

    let precis_db = &answer.precis.database;
    let mut first_rel = true;
    for (rel, rel_schema) in precis_db.schema().relations() {
        if !first_rel {
            out.push_str(", ");
        }
        first_rel = false;
        json::write_str(&mut out, rel_schema.name());
        out.push_str(": {\"attributes\": [");
        for (i, a) in rel_schema.attributes().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &a.name);
        }
        out.push_str("], \"tuples\": [");
        let mut first_tuple = true;
        for (_, tuple) in precis_db.table(rel).iter() {
            if !first_tuple {
                out.push_str(", ");
            }
            first_tuple = false;
            out.push('[');
            for (i, v) in tuple.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(&mut out, v);
            }
            out.push(']');
        }
        out.push_str("]}");
    }

    let report = &answer.precis.report;
    let _ = write!(
        out,
        "}}, \"report\": {{\"total_tuples\": {}, \"seed_tuples\": {}, \"retrieved_tuples\": {}, \
         \"joins_executed\": {}, \"joins_skipped\": {}, \"repaired_tuples\": {}}}",
        answer.precis.total_tuples(),
        report.seed_tuples,
        report.retrieved_tuples,
        report.joins_executed,
        report.joins_skipped,
        report.repaired_tuples
    );

    out.push_str(", \"narratives\": [");
    let fallback = Vocabulary::new();
    let translator = match vocabulary {
        Some(v) => Translator::new(engine.database(), engine.graph(), v),
        None => {
            Translator::new(engine.database(), engine.graph(), &fallback).with_generic_fallback()
        }
    };
    let nlg_span = precis_obs::span(Phase::Nlg.span_name());
    let translated = translator.translate_ranked(answer);
    drop(nlg_span);
    match translated {
        Ok(narratives) => {
            for (i, n) in narratives.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"token\": ");
                json::write_str(&mut out, &n.token);
                out.push_str(", \"relation\": ");
                json::write_str(&mut out, &n.relation);
                out.push_str(", \"text\": ");
                json::write_str(&mut out, &n.text);
                out.push('}');
            }
            out.push(']');
        }
        Err(e) => {
            out.push_str("], \"narrative_error\": ");
            json::write_str(&mut out, &e.to_string());
        }
    }
    out.push_str("}\n");
    out
}

fn write_value(out: &mut String, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push_str("null"),
        ValueRef::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ValueRef::Float(f) => json::write_f64(out, f),
        ValueRef::Text(s) => json::write_str(out, s),
        ValueRef::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_query_request(
            r#"{"tokens": ["woody", "allen"], "degree": {"top": 3},
               "cardinality": {"total": 50}, "strategy": "naive", "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(r.query.tokens(), ["woody", "allen"]);
        assert_eq!(r.degree, DegreeConstraint::TopProjections(3));
        assert_eq!(r.cardinality, CardinalityConstraint::MaxTotalTuples(50));
        assert_eq!(r.strategy, RetrievalStrategy::NaiveQ);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn string_tokens_use_the_cli_parser_and_defaults_apply() {
        let r = parse_query_request(r#"{"tokens": "\"woody allen\" comedy"}"#).unwrap();
        assert_eq!(r.query.tokens(), ["woody allen", "comedy"]);
        assert_eq!(r.degree, DegreeConstraint::MinWeight(0.9));
        assert_eq!(
            r.cardinality,
            CardinalityConstraint::MaxTuplesPerRelation(10)
        );
        assert_eq!(r.strategy, RetrievalStrategy::RoundRobin);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn bad_requests_are_described() {
        for (body, needle) in [
            ("{}", "tokens"),
            (r#"{"tokens": 5}"#, "tokens"),
            (r#"{"tokens": "x", "degree": {"minweight": 2.0}}"#, "[0, 1]"),
            (r#"{"tokens": "x", "degree": {"nope": 1}}"#, "degree"),
            (
                r#"{"tokens": "x", "cardinality": {"nope": 1}}"#,
                "cardinality",
            ),
            (r#"{"tokens": "x", "strategy": "bogus"}"#, "strategy"),
            (r#"{"tokens": "x", "deadline_ms": -4}"#, "deadline_ms"),
            ("not json", "bad literal"),
        ] {
            let err = parse_query_request(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn unbounded_cardinality_parses() {
        let r = parse_query_request(r#"{"tokens": "x", "cardinality": "unbounded"}"#).unwrap();
        assert_eq!(r.cardinality, CardinalityConstraint::Unbounded);
    }

    #[test]
    fn scheduling_fields_parse_with_defaults() {
        let r = parse_query_request(r#"{"tokens": "x"}"#).unwrap();
        assert_eq!(r.priority, Priority::Interactive);
        let r = parse_query_request(r#"{"tokens": "x", "priority": "batch"}"#).unwrap();
        assert_eq!(r.priority, Priority::Batch);
        let err = parse_query_request(r#"{"tokens": "x", "priority": "urgent"}"#).unwrap_err();
        assert!(err.contains("priority"), "{err}");
    }

    #[test]
    fn scheduling_json_and_splice_compose() {
        let mut body = String::from("{\"tokens\": []}\n");
        let sched = render_scheduling_json(Some(0.0025), Duration::from_micros(1500));
        splice_json_field(&mut body, "scheduling", &sched);
        assert_eq!(
            body,
            "{\"tokens\": [], \"scheduling\": {\"predicted_ms\": 2.5, \
             \"queue_wait_ms\": 1.5}}\n"
        );
        let none = render_scheduling_json(None, Duration::ZERO);
        assert_eq!(none, "{\"predicted_ms\": null, \"queue_wait_ms\": 0}");
    }
}
