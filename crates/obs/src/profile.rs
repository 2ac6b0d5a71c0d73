//! Per-query profiles: phase wall times, per-relation traversal counts, and
//! the paper's cost model prediction next to measured reality — all read off
//! the request's own spans.
//!
//! Nothing is collected twice. The pipeline opens one span per phase (under
//! [`Phase::span_name`], the one phase↔span table) and one per relation step
//! ([`record_step`]), and [`ProfileSnapshot::fold`] turns a trace's spans
//! into plain exportable data.
//!
//! Predicted-vs-actual semantics: given [`CostParams`] (the calibrated
//! `CostModel`'s `IndexTime`/`TupleTime`), each relation's predicted time is
//! Formula 2 evaluated at the cardinality the generator actually retrieved —
//! `card(R′ᵢ) · (IndexTime + TupleTime)` — so the gap between
//! `predicted_secs` and `wall_ns` is exactly the model error the calibration
//! loop (Formula 3) is supposed to close.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::record::SpanRecord;
use crate::sched_obs;
use crate::tracer::SpanGuard;

/// The fixed phase taxonomy of one query's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted connection sat in the server admission queue.
    QueueWait,
    /// HTTP request + JSON body parsing.
    Parse,
    /// Inverted-index token lookup.
    TokenLookup,
    /// Result schema generation (logical subset expansion).
    SchemaGen,
    /// Result database generation (seed install + join traversal).
    DbGen,
    /// Natural-language synthesis of the narrative.
    Nlg,
    /// Serialising the answer (JSON response / CLI output).
    Render,
}

impl Phase {
    pub const COUNT: usize = 7;
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::QueueWait,
        Phase::Parse,
        Phase::TokenLookup,
        Phase::SchemaGen,
        Phase::DbGen,
        Phase::Nlg,
        Phase::Render,
    ];

    pub fn index(self) -> usize {
        match self {
            Phase::QueueWait => 0,
            Phase::Parse => 1,
            Phase::TokenLookup => 2,
            Phase::SchemaGen => 3,
            Phase::DbGen => 4,
            Phase::Nlg => 5,
            Phase::Render => 6,
        }
    }

    /// The span whose time is this phase: every site that opens one names
    /// it through here, and [`ProfileSnapshot::fold`] reads them back. Queue
    /// wait has no extent of its own on any thread — it is the
    /// [`sched_obs::FIELD_QUEUE_WAIT_NS`] the server stamps on the execute
    /// span — and `render` is its span minus the `nlg` spans inside it.
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::QueueWait => sched_obs::SPAN_EXECUTE,
            Phase::Parse => "api.parse",
            Phase::TokenLookup => "engine.token_lookup",
            Phase::SchemaGen => "engine.schema_gen",
            Phase::DbGen => "engine.db_gen",
            Phase::Nlg => "nlg.translate",
            Phase::Render => "api.render",
        }
    }

    /// Stable snake_case name used in JSON, Prometheus labels, and text.
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::Parse => "parse",
            Phase::TokenLookup => "token_lookup",
            Phase::SchemaGen => "schema_gen",
            Phase::DbGen => "db_gen",
            Phase::Nlg => "nlg",
            Phase::Render => "render",
        }
    }
}

/// Calibrated cost-model parameters (seconds per index probe / tuple read),
/// decoupled from `precis-core` so this crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    pub index_time_secs: f64,
    pub tuple_time_secs: f64,
}

/// The spans that are one step of one relation's traversal: a seed install,
/// a join, or the parents foreign-key repair pulled in.
pub const SPAN_SEED: &str = "db_gen.seed";
pub const SPAN_JOIN: &str = "db_gen.join";
pub const SPAN_REPAIRED: &str = "db_gen.repaired";

const FIELD_TUPLES: &str = "tuples";
const FIELD_INDEX_PROBES: &str = "index_probes";
const FIELD_TUPLE_READS: &str = "tuple_reads";
const FIELD_DEDUP_HITS: &str = "dedup_hits";

/// Describe the relation step `span` covers: the relation, the tuples it
/// added to the result, the storage events it cost, and the tuples it found
/// already present (no storage cost paid the second time). The span's own
/// duration is the step's wall time.
pub fn record_step(
    span: &SpanGuard,
    relation: &str,
    tuples: u64,
    index_probes: u64,
    tuple_reads: u64,
    dedup_hits: u64,
) {
    span.label(relation);
    span.field(FIELD_TUPLES, tuples);
    span.field(FIELD_INDEX_PROBES, index_probes);
    span.field(FIELD_TUPLE_READS, tuple_reads);
    span.field(FIELD_DEDUP_HITS, dedup_hits);
}

/// One query's profile as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    pub query: String,
    pub trace: u64,
    /// First span opened to last span closed.
    pub total_ns: u64,
    /// Indexed by [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Sorted by relation name — deterministic output.
    pub relations: Vec<RelationProfile>,
    pub cost: Option<CostParams>,
    /// Formula 1: Σ over relations of Formula 2.
    pub predicted_total_secs: Option<f64>,
}

impl ProfileSnapshot {
    /// Fold one trace's spans into its profile: a phase is the time under
    /// the spans named for it, a relation row is its step spans summed, and
    /// with `cost` each row carries Formula 2 at its measured cardinality.
    pub fn fold(query: &str, spans: &[SpanRecord], cost: Option<CostParams>) -> ProfileSnapshot {
        let per_tuple_secs = cost.map(|c| c.index_time_secs + c.tuple_time_secs);
        let mut phase_ns = [0u64; Phase::COUNT];
        let mut rows: BTreeMap<&str, RelationProfile> = BTreeMap::new();
        let (mut first, mut last, mut nlg_in_render) = (u64::MAX, 0, 0);
        for s in spans {
            first = first.min(s.start_ns);
            last = last.max(s.end_ns);
            let wall_ns = s.end_ns.saturating_sub(s.start_ns);
            if let Some(phase) = Phase::ALL.into_iter().find(|p| p.span_name() == s.name) {
                phase_ns[phase.index()] += match phase {
                    Phase::QueueWait => s.field(sched_obs::FIELD_QUEUE_WAIT_NS),
                    _ => wall_ns,
                };
                let render = Phase::Render.span_name();
                if phase == Phase::Nlg && spans.iter().any(|p| p.id == s.parent && p.name == render)
                {
                    nlg_in_render += wall_ns;
                }
            }
            let step = [SPAN_SEED, SPAN_JOIN, SPAN_REPAIRED].contains(&s.name);
            if let Some(relation) = s.label.as_deref().filter(|_| step) {
                let row = rows.entry(relation).or_insert_with(|| RelationProfile {
                    relation: relation.to_owned(),
                    ..RelationProfile::default()
                });
                row.tuples += s.field(FIELD_TUPLES);
                row.index_probes += s.field(FIELD_INDEX_PROBES);
                row.tuple_reads += s.field(FIELD_TUPLE_READS);
                row.cache_hits += s.field(FIELD_DEDUP_HITS);
                row.wall_ns += wall_ns;
            }
        }
        let render = &mut phase_ns[Phase::Render.index()];
        *render = render.saturating_sub(nlg_in_render);
        let mut relations: Vec<RelationProfile> = rows.into_values().collect();
        for row in &mut relations {
            row.predicted_secs = per_tuple_secs.map(|secs| row.tuples as f64 * secs);
        }
        ProfileSnapshot {
            query: query.to_owned(),
            trace: spans.first().map_or(0, |s| s.trace),
            total_ns: last.saturating_sub(first),
            phase_ns,
            predicted_total_secs: per_tuple_secs
                .map(|_| relations.iter().filter_map(|r| r.predicted_secs).sum()),
            relations,
            cost,
        }
    }

    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }
}

/// One relation's traversal row: measured counts and wall time next to the
/// cost model's Formula 2 prediction at the same cardinality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelationProfile {
    pub relation: String,
    pub tuples: u64,
    pub index_probes: u64,
    pub tuple_reads: u64,
    pub cache_hits: u64,
    pub wall_ns: u64,
    /// `card(R′ᵢ) · (IndexTime + TupleTime)`; `None` without cost params.
    pub predicted_secs: Option<f64>,
}

/// Lock-free accumulation of finished profiles for a Prometheus exposition
/// — the server folds every completed query in and the scrape writes the
/// per-phase totals with `fmt::Write` (no per-series allocation).
#[derive(Debug, Default)]
pub struct PhaseAgg {
    phase_ns: [AtomicU64; Phase::COUNT],
    queries: AtomicU64,
    predicted_us: AtomicU64,
    measured_db_gen_us: AtomicU64,
}

impl PhaseAgg {
    pub fn new() -> Self {
        PhaseAgg::default()
    }

    /// Fold one finished profile into the totals.
    pub fn accumulate(&self, snap: &ProfileSnapshot) {
        for phase in Phase::ALL {
            self.phase_ns[phase.index()].fetch_add(snap.phase(phase), Ordering::Relaxed);
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(predicted) = snap.predicted_total_secs {
            self.predicted_us
                .fetch_add((predicted * 1e6).round() as u64, Ordering::Relaxed);
            self.measured_db_gen_us
                .fetch_add(snap.phase(Phase::DbGen) / 1_000, Ordering::Relaxed);
        }
    }

    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Append the Prometheus text-exposition fragment to `out`. Writes via
    /// `fmt::Write` only — no intermediate strings.
    pub fn write_exposition(&self, out: &mut String) {
        out.push_str(
            "# HELP precis_phase_seconds_total Cumulative wall time spent per query phase.\n",
        );
        out.push_str("# TYPE precis_phase_seconds_total counter\n");
        for phase in Phase::ALL {
            let secs = self.phase_ns[phase.index()].load(Ordering::Relaxed) as f64 / 1e9;
            let _ = writeln!(
                out,
                "precis_phase_seconds_total{{phase=\"{}\"}} {}",
                phase.name(),
                secs
            );
        }
        out.push_str(
            "# HELP precis_profiled_queries_total Queries folded into the phase totals.\n",
        );
        out.push_str("# TYPE precis_profiled_queries_total counter\n");
        let _ = writeln!(
            out,
            "precis_profiled_queries_total {}",
            self.queries.load(Ordering::Relaxed)
        );
        out.push_str("# HELP precis_cost_model_predicted_seconds_total Cost-model (Formula 2) predicted generation time, summed over profiled queries.\n");
        out.push_str("# TYPE precis_cost_model_predicted_seconds_total counter\n");
        let _ = writeln!(
            out,
            "precis_cost_model_predicted_seconds_total {}",
            self.predicted_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        out.push_str("# HELP precis_cost_model_measured_seconds_total Measured db_gen wall time for the same profiled queries.\n");
        out.push_str("# TYPE precis_cost_model_measured_seconds_total counter\n");
        let _ = writeln!(
            out,
            "precis_cost_model_measured_seconds_total {}",
            self.measured_db_gen_us.load(Ordering::Relaxed) as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: 9,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: 1,
            fields: Default::default(),
            label: None,
        }
    }

    fn step(mut span: SpanRecord, relation: &str, counts: [u64; 4]) -> SpanRecord {
        span.label = Some(relation.to_owned());
        let keys = [
            FIELD_TUPLES,
            FIELD_INDEX_PROBES,
            FIELD_TUPLE_READS,
            FIELD_DEDUP_HITS,
        ];
        span.fields = keys.into_iter().zip(counts).collect();
        span
    }

    /// A served query's spans as the tracer hands them over: close order,
    /// admission on one thread and execution on another.
    fn served_query() -> Vec<SpanRecord> {
        let mut execute = span(5, 0, sched_obs::SPAN_EXECUTE, 1_000, 9_000);
        execute.fields = [(sched_obs::FIELD_QUEUE_WAIT_NS, 700)]
            .into_iter()
            .collect();
        vec![
            span(1, 0, Phase::Parse.span_name(), 0, 100),
            span(3, 2, Phase::TokenLookup.span_name(), 110, 150),
            span(4, 2, Phase::SchemaGen.span_name(), 150, 210),
            span(2, 0, sched_obs::SPAN_ADMIT, 100, 300),
            step(span(8, 7, SPAN_SEED, 1_100, 1_400), "movies", [2, 0, 3, 1]),
            step(span(9, 7, SPAN_JOIN, 1_400, 1_900), "actors", [4, 2, 4, 0]),
            step(span(10, 7, SPAN_JOIN, 1_900, 2_500), "movies", [3, 1, 3, 2]),
            step(
                span(12, 11, SPAN_REPAIRED, 2_600, 2_600),
                "movies",
                [1, 1, 1, 0],
            ),
            span(11, 7, "db_gen.repair", 2_500, 2_700),
            span(7, 6, Phase::DbGen.span_name(), 1_050, 3_000),
            span(6, 5, "engine.answer", 1_020, 3_050),
            span(14, 13, Phase::Nlg.span_name(), 4_000, 7_000),
            span(13, 5, Phase::Render.span_name(), 3_100, 8_000),
            execute,
        ]
    }

    #[test]
    fn a_profile_is_a_fold_over_the_requests_spans() {
        let cost = CostParams {
            index_time_secs: 1e-6,
            tuple_time_secs: 3e-6,
        };
        let snap = ProfileSnapshot::fold("woody allen", &served_query(), Some(cost));
        assert_eq!((snap.query.as_str(), snap.trace), ("woody allen", 9));
        assert_eq!(snap.phase(Phase::QueueWait), 700, "the stamped number");
        assert_eq!(snap.phase(Phase::Parse), 100);
        assert_eq!(snap.phase(Phase::TokenLookup), 40);
        assert_eq!(snap.phase(Phase::SchemaGen), 60);
        assert_eq!(snap.phase(Phase::DbGen), 1_950);
        assert_eq!(snap.phase(Phase::Nlg), 3_000);
        // Render is its span minus the narrative synthesis inside it.
        assert_eq!(snap.phase(Phase::Render), 4_900 - 3_000);
        assert_eq!(snap.total_ns, 9_000);
        let phase_sum: u64 = Phase::ALL.iter().map(|&p| snap.phase(p)).sum();
        assert!(phase_sum <= snap.total_ns, "{phase_sum}");

        // Name order; a relation seeded, joined into and repaired is one row
        // whose wall time is its steps' own durations.
        assert_eq!(snap.relations.len(), 2);
        assert_eq!(snap.relations[0].relation, "actors");
        let movies = &snap.relations[1];
        assert_eq!(movies.relation, "movies");
        assert_eq!((movies.tuples, movies.index_probes), (6, 2));
        assert_eq!((movies.tuple_reads, movies.cache_hits), (7, 3));
        assert_eq!(movies.wall_ns, 300 + 600);
        // Formula 2: tuples × (IndexTime + TupleTime).
        let predicted = movies.predicted_secs.expect("cost params given");
        assert!((predicted - 6.0 * 4e-6).abs() < 1e-12);
        let total = snap.predicted_total_secs.expect("total predicted");
        assert!((total - (6.0 + 4.0) * 4e-6).abs() < 1e-12);

        // Without cost params the measured side is unchanged and nothing is
        // predicted.
        let bare = ProfileSnapshot::fold("woody allen", &served_query(), None);
        assert!(bare.relations.iter().all(|r| r.predicted_secs.is_none()));
        assert!(bare.predicted_total_secs.is_none());
        assert_eq!(bare.phase_ns, snap.phase_ns);
    }

    #[test]
    fn narration_outside_a_render_span_is_not_taken_off_it() {
        // The CLI narrates beside its rendering, not inside it.
        let spans = [
            span(1, 0, Phase::Render.span_name(), 0, 50),
            span(2, 0, Phase::Nlg.span_name(), 50, 90),
        ];
        let snap = ProfileSnapshot::fold("", &spans, None);
        assert_eq!(snap.phase(Phase::Render), 50);
        assert_eq!(snap.phase(Phase::Nlg), 40);
        let empty = ProfileSnapshot::fold("", &[], None);
        assert_eq!(
            (empty.trace, empty.total_ns, empty.relations.len()),
            (0, 0, 0)
        );
    }

    #[test]
    fn phase_agg_exposition_is_well_formed() {
        let agg = PhaseAgg::new();
        let cost = CostParams {
            index_time_secs: 1e-6,
            tuple_time_secs: 1e-6,
        };
        let spans = [
            span(1, 0, Phase::DbGen.span_name(), 0, 2_000_000_000),
            step(span(2, 1, SPAN_JOIN, 0, 1), "movies", [100, 0, 0, 0]),
        ];
        let snap = ProfileSnapshot::fold("", &spans, Some(cost));
        agg.accumulate(&snap);
        agg.accumulate(&snap);
        assert_eq!(agg.queries(), 2);
        let mut out = String::new();
        agg.write_exposition(&mut out);
        assert!(out.contains("# TYPE precis_phase_seconds_total counter"));
        assert!(out.contains("precis_phase_seconds_total{phase=\"db_gen\"} 4"));
        assert!(out.contains("precis_profiled_queries_total 2"));
        assert!(out.contains("precis_cost_model_predicted_seconds_total 0.0004"));
        for phase in Phase::ALL {
            assert!(out.contains(&format!("phase=\"{}\"", phase.name())));
        }
    }
}
