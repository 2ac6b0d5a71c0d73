//! Exporters: human-readable profile tables and Chrome `trace_event` JSON.
//!
//! The Chrome exporter emits complete ("ph":"X") events — one per closed
//! span — wrapped in a `{"traceEvents": [...]}` object that loads directly
//! into `chrome://tracing` or Perfetto. Timestamps are microseconds since
//! the process tracing epoch, as the format requires.

use std::fmt::Write as _;

use crate::profile::{Phase, ProfileSnapshot};
use crate::record::SpanRecord;

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Render a profile as an aligned, human-readable table: phases first, then
/// the per-relation traversal rows with predicted-vs-measured columns.
pub fn render_profile_text(snap: &ProfileSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    if snap.query.is_empty() {
        let _ = writeln!(
            out,
            "query profile (trace {}) — total {} ms",
            snap.trace,
            fmt_ms(snap.total_ns)
        );
    } else {
        let _ = writeln!(
            out,
            "query profile for \"{}\" (trace {}) — total {} ms",
            snap.query,
            snap.trace,
            fmt_ms(snap.total_ns)
        );
    }
    let _ = writeln!(out, "  {:<14} {:>12}  {:>6}", "phase", "time (ms)", "%");
    let total = snap.total_ns.max(1) as f64;
    for phase in Phase::ALL {
        let ns = snap.phase(phase);
        if ns == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>12}  {:>5.1}%",
            phase.name(),
            fmt_ms(ns),
            ns as f64 / total * 100.0
        );
    }
    if !snap.relations.is_empty() {
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>7} {:>7} {:>6} {:>13} {:>14}",
            "relation", "tuples", "probes", "reads", "dedup", "measured (ms)", "predicted (ms)"
        );
        for r in &snap.relations {
            let predicted = match r.predicted_secs {
                Some(s) => format!("{:.3}", s * 1e3),
                None => "-".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>7} {:>7} {:>6} {:>13} {:>14}",
                r.relation,
                r.tuples,
                r.index_probes,
                r.tuple_reads,
                r.cache_hits,
                fmt_ms(r.wall_ns),
                predicted
            );
        }
    }
    if let (Some(predicted), Some(cost)) = (snap.predicted_total_secs, snap.cost) {
        let measured_db_gen = snap.phase(Phase::DbGen) as f64 / 1e9;
        let _ = writeln!(
            out,
            "  cost model: predicted {:.3} ms vs measured db_gen {:.3} ms (IndexTime {:.1} ns, TupleTime {:.1} ns)",
            predicted * 1e3,
            measured_db_gen * 1e3,
            cost.index_time_secs * 1e9,
            cost.tuple_time_secs * 1e9
        );
    }
    out
}

fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serialise spans as Chrome `trace_event` JSON (complete events). The
/// `dropped` count from [`crate::tracer::Trace::finish`] is recorded in the
/// top-level metadata so a trace that hit its span cap says so itself.
pub fn chrome_trace(spans: &[SpanRecord], dropped: u64) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 128);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"droppedSpans\": ");
    let _ = write!(out, "{dropped}");
    out.push_str(", \"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": \"");
        escape_json_into(&mut out, s.name);
        let _ = write!(
            out,
            "\", \"cat\": \"precis\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}",
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.thread
        );
        out.push_str(", \"args\": {");
        let _ = write!(
            out,
            "\"trace\": {}, \"span\": {}, \"parent\": {}",
            s.trace, s.id, s.parent
        );
        if let Some(label) = &s.label {
            out.push_str(", \"label\": \"");
            escape_json_into(&mut out, label);
            out.push('"');
        }
        for (key, value) in s.fields.iter() {
            out.push_str(", \"");
            escape_json_into(&mut out, key);
            let _ = write!(out, "\": {value}");
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CostParams, RelationProfile};

    #[test]
    fn profile_text_shows_phases_relations_and_cost_line() {
        let mut phase_ns = [0; Phase::COUNT];
        phase_ns[Phase::Parse.index()] = 500_000;
        phase_ns[Phase::DbGen.index()] = 2_000_000;
        let snap = ProfileSnapshot {
            query: "woody allen".to_owned(),
            trace: 7,
            total_ns: 3_000_000,
            phase_ns,
            relations: vec![RelationProfile {
                relation: "movies".to_owned(),
                tuples: 10,
                index_probes: 3,
                tuple_reads: 12,
                cache_hits: 1,
                wall_ns: 1_500_000,
                predicted_secs: Some(10.0 * 3e-6),
            }],
            cost: Some(CostParams {
                index_time_secs: 1e-6,
                tuple_time_secs: 2e-6,
            }),
            predicted_total_secs: Some(10.0 * 3e-6),
        };
        let text = render_profile_text(&snap);
        assert!(text.contains("query profile for \"woody allen\""), "{text}");
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("db_gen"), "{text}");
        assert!(text.contains("movies"), "{text}");
        assert!(text.contains("predicted"), "{text}");
        assert!(text.contains("cost model: predicted"), "{text}");
        // 10 tuples × 3µs = 30µs = 0.030 ms.
        assert!(text.contains("0.030"), "{text}");
    }

    #[test]
    fn chrome_trace_emits_complete_events_with_args() {
        let spans = vec![
            SpanRecord {
                trace: 7,
                id: 1,
                parent: 0,
                name: "engine.answer",
                start_ns: 1_000,
                end_ns: 11_000,
                thread: 1,
                fields: [("tokens", 2)].into_iter().collect(),
                label: None,
            },
            SpanRecord {
                trace: 7,
                id: 2,
                parent: 1,
                name: "db_gen.join",
                start_ns: 2_000,
                end_ns: 9_000,
                thread: 3,
                fields: Default::default(),
                label: Some("movies \"quoted\"".to_owned()),
            },
        ];
        let json = chrome_trace(&spans, 5);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"droppedSpans\": 5"));
        assert!(json.contains("\"name\": \"engine.answer\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 1.000"));
        assert!(json.contains("\"dur\": 10.000"));
        assert!(json.contains("\"tokens\": 2"));
        assert!(json.contains("\"parent\": 1"));
        assert!(json.contains("movies \\\"quoted\\\""));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = chrome_trace(&[], 0);
        assert!(json.contains("\"traceEvents\": []"));
    }
}
