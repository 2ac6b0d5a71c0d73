//! JSON rendering for the loopback-only debug endpoints:
//! `GET /v1/debug/traces` (retained-trace list), `GET /v1/debug/traces/<id>`
//! (full span tree + scheduling decision record + predicted-vs-measured
//! phases, or Chrome `trace_event` JSON with `?format=chrome`),
//! `GET /v1/debug/slow` (the slowest retained query traces' profiles), and
//! `GET /v1/debug/slo` (objective statuses with per-window burn rates).
//!
//! Pure functions over the telemetry structures — the server routes here
//! after its loopback check, so these never see a remote peer.

use crate::api::write_profile_json;
use crate::json::write_str;
use precis_obs::slo::SloStatus;
use precis_obs::telemetry::{RetainedTrace, SchedDecision};
use precis_obs::SpanRecord;
use std::fmt::Write as _;

fn write_bucket_le(out: &mut String, bucket_le: f64) {
    if bucket_le.is_finite() {
        let _ = write!(out, "{bucket_le}");
    } else {
        out.push_str("\"+Inf\"");
    }
}

fn write_reasons(out: &mut String, reasons: &[&str]) {
    out.push('[');
    for (i, reason) in reasons.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, reason);
    }
    out.push(']');
}

/// The shared per-trace header fields (list entries and the detail view).
fn write_trace_head(out: &mut String, trace: &RetainedTrace) {
    out.push_str("{\"trace_id\": ");
    write_str(out, &trace.trace_id);
    out.push_str(", \"endpoint\": ");
    write_str(out, trace.endpoint);
    out.push_str(", \"class\": ");
    write_str(out, trace.class);
    let _ = write!(out, ", \"status\": {}", trace.status);
    out.push_str(", \"reasons\": ");
    write_reasons(out, &trace.reasons);
    let _ = write!(
        out,
        ", \"latency_ms\": {:.3}, \"bucket_le\": ",
        trace.latency_ns as f64 / 1e6
    );
    write_bucket_le(out, trace.bucket_le);
}

fn write_sched(out: &mut String, sched: &SchedDecision) {
    out.push_str("{\"predicted_ms\": ");
    match sched.predicted_ms {
        Some(ms) => {
            let _ = write!(out, "{ms:.3}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ", \"queue_wait_ms\": {:.3}, \"reordered\": {}",
        sched.queue_wait_ms, sched.reordered
    );
    if let Some(shed) = &sched.shed {
        out.push_str(", \"shed\": {\"reason\": ");
        write_str(out, shed.reason);
        let _ = write!(
            out,
            ", \"backlog_ms\": {:.3}, \"retry_after_ms\": {}}}",
            shed.backlog_ms, shed.retry_after_ms
        );
    }
    out.push('}');
}

fn write_span(out: &mut String, span: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"id\": {}, \"parent\": {}, \"name\": ",
        span.id, span.parent
    );
    write_str(out, span.name);
    let _ = write!(
        out,
        ", \"thread\": {}, \"start_us\": {:.1}, \"dur_us\": {:.1}",
        span.thread,
        span.start_ns as f64 / 1e3,
        span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3
    );
    if let Some(label) = &span.label {
        out.push_str(", \"label\": ");
        write_str(out, label);
    }
    if !span.fields.is_empty() {
        out.push_str(", \"fields\": {");
        for (i, (name, value)) in span.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_str(out, name);
            let _ = write!(out, ": {value}");
        }
        out.push('}');
    }
    out.push('}');
}

/// The `GET /v1/debug/traces` body: newest-first list entries with the
/// exemplar bucket linkage, without span bodies.
pub fn render_trace_list(traces: &[RetainedTrace]) -> String {
    let mut out = String::with_capacity(128 + traces.len() * 256);
    let _ = write!(out, "{{\"count\": {}, \"traces\": [", traces.len());
    for (i, trace) in traces.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_trace_head(&mut out, trace);
        let _ = write!(
            out,
            ", \"spans\": {}, \"span_drops\": {}}}",
            trace.spans.len(),
            trace.span_drops
        );
    }
    out.push_str("]}\n");
    out
}

/// The `GET /v1/debug/traces/<id>` body: everything the server knows about
/// one request — span tree, scheduler decision record, and the profile's
/// predicted-vs-measured phases.
pub fn render_trace_detail(trace: &RetainedTrace) -> String {
    let mut out = String::with_capacity(1024);
    write_trace_head(&mut out, trace);
    out.push_str(", \"sched\": ");
    match &trace.sched {
        Some(sched) => write_sched(&mut out, sched),
        None => out.push_str("null"),
    }
    out.push_str(", \"profile\": ");
    match &trace.profile {
        Some(snapshot) => write_profile_json(&mut out, snapshot),
        None => out.push_str("null"),
    }
    let _ = write!(out, ", \"span_drops\": {}, \"spans\": [", trace.span_drops);
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_span(&mut out, span);
    }
    out.push_str("]}\n");
    out
}

/// Entries in the `GET /v1/debug/slow` body.
pub const SLOW_VIEW_LIMIT: usize = 8;

/// The `GET /v1/debug/slow` body: of the retained traces, the `query` ones
/// that carry a profile, slowest end-to-end latency first, at most
/// [`SLOW_VIEW_LIMIT`]. A view, not a log — what is here is what the tail
/// sampler kept (slow for its class, or retained for another reason), so
/// every entry's `trace_id` resolves at `/v1/debug/traces/<id>` and the
/// profile there is this one.
pub fn render_slow(traces: &[RetainedTrace]) -> String {
    let mut slow: Vec<_> = traces
        .iter()
        .filter(|t| t.endpoint == "query")
        .filter_map(|t| Some((t, t.profile.as_ref()?)))
        .collect();
    slow.sort_by_key(|(t, _)| std::cmp::Reverse(t.latency_ns));
    slow.truncate(SLOW_VIEW_LIMIT);
    let mut out = String::with_capacity(256 + slow.len() * 512);
    let _ = write!(out, "{{\"capacity\": {SLOW_VIEW_LIMIT}");
    out.push_str(", \"slow_queries\": [");
    for (i, (trace, profile)) in slow.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"query\": ");
        write_str(&mut out, &profile.query);
        out.push_str(", \"trace_id\": ");
        write_str(&mut out, &trace.trace_id);
        out.push_str(", \"bucket_le\": ");
        write_bucket_le(&mut out, trace.bucket_le);
        out.push_str(", \"profile\": ");
        write_profile_json(&mut out, profile);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// The `?format=chrome` export of one retained trace: the spans as Chrome
/// `trace_event` JSON, loadable in `chrome://tracing` / Perfetto.
pub fn render_trace_chrome(trace: &RetainedTrace) -> String {
    precis_obs::chrome_trace(&trace.spans, trace.span_drops)
}

/// The `GET /v1/debug/slo` body.
pub fn render_slo(statuses: &[SloStatus]) -> String {
    let mut out = String::with_capacity(256 + statuses.len() * 256);
    let fast: Vec<&str> = statuses
        .iter()
        .filter(|s| s.fast_burn)
        .map(|s| s.spec.name)
        .collect();
    out.push_str("{\"fast_burn\": ");
    write_reasons(&mut out, &fast);
    out.push_str(", \"slos\": [");
    for (i, status) in statuses.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        write_str(&mut out, status.spec.name);
        out.push_str(", \"statement\": ");
        write_str(&mut out, status.spec.statement);
        let _ = write!(
            out,
            ", \"objective\": {}, \"fast_burn\": {}, \"windows\": [",
            status.spec.objective, status.fast_burn
        );
        for (j, window) in [&status.short, &status.long].into_iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"window_secs\": {}, \"good\": {}, \"bad\": {}, \"burn_rate\": {:.6}}}",
                window.window_secs, window.good, window.bad, window.burn
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_obs::slo::{SloEngine, SloEvent};
    use precis_obs::telemetry::ShedDecision;
    use std::time::Duration;

    fn sample_trace() -> RetainedTrace {
        RetainedTrace {
            trace_id: "f".repeat(32),
            endpoint: "query",
            class: "interactive",
            status: 429,
            reasons: vec!["error", "shed"],
            latency_ns: 2_500_000,
            bucket_le: 0.0025,
            sched: Some(SchedDecision {
                predicted_ms: Some(12.5),
                queue_wait_ms: 0.7,
                reordered: true,
                shed: Some(ShedDecision {
                    reason: "deadline",
                    backlog_ms: 40.0,
                    retry_after_ms: 250,
                }),
            }),
            profile: None,
            spans: vec![SpanRecord {
                trace: 7,
                id: 1,
                parent: 0,
                name: "server.admit",
                start_ns: 100,
                end_ns: 2_100,
                thread: 3,
                fields: [("predicted_ns", 12_500_000)].into_iter().collect(),
                label: Some("movies".to_owned()),
            }],
            span_drops: 2,
        }
    }

    #[test]
    fn list_and_detail_render_parseable_json() {
        let trace = sample_trace();
        let list = render_trace_list(std::slice::from_ref(&trace));
        let doc = crate::json::parse(&list).expect("list parses");
        assert_eq!(
            doc.get("count").and_then(|c| c.as_f64()),
            Some(1.0),
            "{list}"
        );
        assert!(list.contains("\"bucket_le\": 0.0025"));
        assert!(list.contains("\"reasons\": [\"error\", \"shed\"]"));

        let detail = render_trace_detail(&trace);
        let doc = crate::json::parse(&detail).expect("detail parses");
        let sched = doc.get("sched").expect("sched present");
        assert_eq!(
            sched
                .get("shed")
                .and_then(|s| s.get("reason"))
                .and_then(|r| r.as_str()),
            Some("deadline")
        );
        assert!(detail.contains("\"name\": \"server.admit\""), "{detail}");
        assert!(detail.contains("\"predicted_ns\": 12500000"), "{detail}");
        assert!(detail.contains("\"span_drops\": 2"));
        assert!(detail.contains("\"profile\": null"));
    }

    /// A retained successful query whose profile names `query`.
    fn query_trace(query: &str, latency_ns: u64) -> RetainedTrace {
        let profile = precis_obs::ProfileSnapshot::fold(query, &[], None);
        RetainedTrace {
            trace_id: format!("{latency_ns:032x}"),
            status: 200,
            reasons: vec!["slow"],
            latency_ns,
            bucket_le: crate::metrics::bucket_le(latency_ns as f64 / 1e9),
            sched: None,
            profile: Some(profile),
            spans: Vec::new(),
            span_drops: 0,
            ..sample_trace()
        }
    }

    fn slow_queries(body: &str) -> Vec<crate::json::Json> {
        match crate::json::parse(body)
            .expect("slow body parses")
            .get("slow_queries")
        {
            Some(crate::json::Json::Array(items)) => items.clone(),
            other => panic!("slow_queries not an array: {other:?}"),
        }
    }

    #[test]
    fn slow_view_is_the_slowest_profiled_query_traces_with_their_linkage() {
        let mut traces = vec![
            query_trace("fast", 10),
            query_trace("woody \"allen\"", 1_000),
            query_trace("medium", 100),
        ];
        // Not queries, or no profile: never in the view.
        traces.push(sample_trace());
        traces.push(RetainedTrace {
            endpoint: "mutate",
            ..query_trace("a mutation", 1 << 40)
        });
        let body = render_slow(&traces);
        let list = slow_queries(&body);
        let names: Vec<_> = list
            .iter()
            .map(|e| e.get("query").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, ["woody \"allen\"", "medium", "fast"], "{body}");
        assert_eq!(
            list[0].get("trace_id").unwrap().as_str(),
            Some(format!("{:032x}", 1_000).as_str())
        );
        assert!(list[0].get("bucket_le").is_some());
        assert!(list[0]
            .get("profile")
            .and_then(|p| p.get("phases"))
            .is_some());
        assert!(body.starts_with("{\"capacity\": 8, "), "{body}");
        // Canonical-JSON round trip: parse(render(parse(body))) == parse(body).
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(crate::json::parse(&crate::json::render(&doc)).unwrap(), doc);
    }

    #[test]
    fn slow_view_is_bounded_and_renders_an_infinite_bucket_as_a_string() {
        let mut traces: Vec<_> = (1..=20).map(|i| query_trace("q", i)).collect();
        traces[0].bucket_le = f64::INFINITY;
        traces[0].latency_ns = u64::MAX;
        let body = render_slow(&traces);
        assert_eq!(slow_queries(&body).len(), SLOW_VIEW_LIMIT);
        assert!(body.contains("\"bucket_le\": \"+Inf\""), "{body}");
        assert!(render_slow(&[]).contains("\"slow_queries\": []"));
    }

    #[test]
    fn chrome_export_is_the_span_list_in_trace_event_form() {
        let body = render_trace_chrome(&sample_trace());
        assert!(body.contains("\"traceEvents\""), "{body}");
        assert!(body.contains("server.admit"), "{body}");
    }

    #[test]
    fn slo_body_parses_and_names_fast_burning_objectives() {
        let engine = SloEngine::with_defaults();
        engine.record(SloEvent {
            class: "interactive",
            status: 200,
            latency: Duration::from_millis(500),
        });
        let body = render_slo(&engine.snapshot());
        let doc = crate::json::parse(&body).expect("slo body parses");
        assert!(
            body.contains("\"fast_burn\": [\"interactive_p99_25ms\"]"),
            "{body}"
        );
        let slos = match doc.get("slos") {
            Some(crate::json::Json::Array(items)) => items,
            other => panic!("slos not an array: {other:?}"),
        };
        assert_eq!(slos.len(), 3);
        assert_eq!(
            slos[0].get("name").unwrap().as_str(),
            Some("interactive_p99_25ms")
        );
    }
}
