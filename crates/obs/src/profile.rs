//! Per-query profiling: phase wall times, per-relation traversal counts,
//! and the paper's cost model prediction next to measured reality.
//!
//! A [`QueryProfile`] is an `Arc`-shared collector threaded through the
//! pipeline (`DbGenOptions.profile`). Phase accumulators are relaxed
//! atomics so parallel join workers can report without coordination;
//! per-relation rows merge under a short-lived mutex (taken once per join
//! task, not per tuple). The pipeline only ever *adds* — a [`snapshot`]
//! turns the accumulator into plain exportable data.
//!
//! Predicted-vs-actual semantics: with [`CostParams`] attached (the
//! calibrated `CostModel`'s `IndexTime`/`TupleTime`), each relation's
//! predicted time is Formula 2 evaluated at the cardinality the generator
//! actually retrieved — `card(R′ᵢ) · (IndexTime + TupleTime)` — so the gap
//! between `predicted_secs` and `wall_ns` is exactly the model error the
//! calibration loop (Formula 3) is supposed to close.
//!
//! [`snapshot`]: QueryProfile::snapshot

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::tracer;

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

/// One join task's contribution to a relation's traversal accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelationDelta {
    /// Tuples added to the result sub-database.
    pub tuples: u64,
    pub index_probes: u64,
    pub tuple_reads: u64,
    /// Tuples that were already present in the result (dedup hits — no
    /// storage cost paid the second time).
    pub cache_hits: u64,
    pub wall_ns: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct RelationAcc {
    tuples: u64,
    index_probes: u64,
    tuple_reads: u64,
    cache_hits: u64,
    wall_ns: u64,
}

/// Shared per-query collector. Cheap to clone via `Arc`; all mutation goes
/// through `&self`.
#[derive(Debug)]
pub struct QueryProfile {
    trace: u64,
    created_ns: u64,
    finished_ns: AtomicU64,
    phase_ns: [AtomicU64; Phase::COUNT],
    relations: Mutex<BTreeMap<String, RelationAcc>>,
    cost: Mutex<Option<CostParams>>,
    query: Mutex<String>,
}

impl Default for QueryProfile {
    fn default() -> Self {
        QueryProfile::new()
    }
}

impl QueryProfile {
    pub fn new() -> Self {
        QueryProfile::with_trace_id(tracer::new_trace_id())
    }

    /// A profile correlated with an already-allocated trace id — the server
    /// allocates the id at admission (so admission spans and the capture
    /// buffer share it) and hands it to the query's profile here.
    pub fn with_trace_id(trace: u64) -> Self {
        QueryProfile {
            trace,
            created_ns: tracer::now_ns(),
            finished_ns: AtomicU64::new(0),
            phase_ns: Default::default(),
            relations: Mutex::new(BTreeMap::new()),
            cost: Mutex::new(None),
            query: Mutex::new(String::new()),
        }
    }

    /// Trace id correlating this profile with its captured spans.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Record the query text (for `/v1/debug/slow` and text export).
    pub fn set_query(&self, query: &str) {
        let mut q = self.query.lock().expect("profile query lock");
        q.clear();
        q.push_str(query);
    }

    /// Attach calibrated cost-model parameters; enables predicted times.
    pub fn set_cost_params(&self, params: CostParams) {
        *self.cost.lock().expect("profile cost lock") = Some(params);
    }

    pub fn add_phase(&self, phase: Phase, elapsed: Duration) {
        self.add_phase_ns(phase, elapsed.as_nanos() as u64);
    }

    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
    }

    /// Time `f` and charge the wall time to `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.add_phase(phase, start.elapsed());
        out
    }

    /// Merge one task's traversal accounting into `relation`'s row.
    pub fn record_relation(&self, relation: &str, delta: RelationDelta) {
        let mut rels = self.relations.lock().expect("profile relations lock");
        let acc = rels.entry(relation.to_owned()).or_default();
        acc.tuples += delta.tuples;
        acc.index_probes += delta.index_probes;
        acc.tuple_reads += delta.tuple_reads;
        acc.cache_hits += delta.cache_hits;
        acc.wall_ns += delta.wall_ns;
    }

    /// Mark the query complete; total time freezes here. Idempotent (first
    /// call wins).
    pub fn finish(&self) {
        let _ = self.finished_ns.compare_exchange(
            0,
            tracer::now_ns().max(self.created_ns + 1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Plain-data view of everything collected so far. Predicted times are
    /// filled in when cost params were attached (Formula 2 per relation).
    pub fn snapshot(&self) -> ProfileSnapshot {
        let end = match self.finished_ns.load(Ordering::Relaxed) {
            0 => tracer::now_ns(),
            ns => ns,
        };
        let cost = *self.cost.lock().expect("profile cost lock");
        let per_tuple_secs = cost.map(|c| c.index_time_secs + c.tuple_time_secs);
        let relations = self
            .relations
            .lock()
            .expect("profile relations lock")
            .iter()
            .map(|(name, acc)| RelationProfile {
                relation: name.clone(),
                tuples: acc.tuples,
                index_probes: acc.index_probes,
                tuple_reads: acc.tuple_reads,
                cache_hits: acc.cache_hits,
                wall_ns: acc.wall_ns,
                predicted_secs: per_tuple_secs.map(|s| acc.tuples as f64 * s),
            })
            .collect::<Vec<_>>();
        let mut phase_ns = [0u64; Phase::COUNT];
        for (slot, atomic) in phase_ns.iter_mut().zip(self.phase_ns.iter()) {
            *slot = atomic.load(Ordering::Relaxed);
        }
        let predicted_total_secs = per_tuple_secs.map(|_| {
            relations
                .iter()
                .map(|r| r.predicted_secs.unwrap_or(0.0))
                .sum()
        });
        ProfileSnapshot {
            query: self.query.lock().expect("profile query lock").clone(),
            trace: self.trace,
            total_ns: end.saturating_sub(self.created_ns),
            phase_ns,
            relations,
            cost,
            predicted_total_secs,
        }
    }
}

/// Exportable view of a [`QueryProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    pub query: String,
    pub trace: u64,
    /// Wall time from profile creation to [`QueryProfile::finish`] (or to
    /// the snapshot, if unfinished).
    pub total_ns: u64,
    /// Indexed by [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Sorted by relation name (BTreeMap order) — deterministic output.
    pub relations: Vec<RelationProfile>,
    pub cost: Option<CostParams>,
    /// Formula 1: Σ over relations of Formula 2.
    pub predicted_total_secs: Option<f64>,
}

impl ProfileSnapshot {
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }
}

/// One relation's traversal row: measured counts and wall time next to the
/// cost model's Formula 2 prediction at the same cardinality.
#[derive(Debug, Clone, PartialEq)]
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

    #[test]
    fn phases_accumulate_and_snapshot() {
        let p = QueryProfile::new();
        p.set_query("woody allen");
        p.add_phase_ns(Phase::Parse, 1_000);
        p.add_phase_ns(Phase::Parse, 500);
        p.add_phase_ns(Phase::DbGen, 2_000_000);
        let out = p.time(Phase::Nlg, || 42);
        assert_eq!(out, 42);
        p.finish();
        let snap = p.snapshot();
        assert_eq!(snap.query, "woody allen");
        assert_eq!(snap.phase(Phase::Parse), 1_500);
        assert_eq!(snap.phase(Phase::DbGen), 2_000_000);
        assert!(snap.phase(Phase::Nlg) > 0, "time() charged the phase");
        assert_eq!(snap.phase(Phase::QueueWait), 0);
        assert!(snap.total_ns > 0);
        // finish() freezes the total.
        let again = p.snapshot();
        assert_eq!(again.total_ns, snap.total_ns);
    }

    #[test]
    fn relations_merge_and_predict_formula_2() {
        let p = QueryProfile::new();
        p.record_relation(
            "movies",
            RelationDelta {
                tuples: 10,
                index_probes: 4,
                tuple_reads: 12,
                cache_hits: 2,
                wall_ns: 5_000,
            },
        );
        p.record_relation(
            "movies",
            RelationDelta {
                tuples: 5,
                index_probes: 1,
                tuple_reads: 5,
                cache_hits: 0,
                wall_ns: 2_000,
            },
        );
        p.record_relation(
            "actors",
            RelationDelta {
                tuples: 3,
                tuple_reads: 3,
                ..RelationDelta::default()
            },
        );
        // No cost params yet: predictions absent.
        let bare = p.snapshot();
        assert!(bare.relations.iter().all(|r| r.predicted_secs.is_none()));
        assert!(bare.predicted_total_secs.is_none());

        p.set_cost_params(CostParams {
            index_time_secs: 1e-6,
            tuple_time_secs: 3e-6,
        });
        let snap = p.snapshot();
        assert_eq!(snap.relations.len(), 2);
        // BTreeMap order: actors before movies.
        assert_eq!(snap.relations[0].relation, "actors");
        let movies = &snap.relations[1];
        assert_eq!(movies.tuples, 15);
        assert_eq!(movies.index_probes, 5);
        assert_eq!(movies.tuple_reads, 17);
        assert_eq!(movies.cache_hits, 2);
        assert_eq!(movies.wall_ns, 7_000);
        // Formula 2: 15 tuples × (1µs + 3µs).
        let predicted = movies.predicted_secs.expect("cost params attached");
        assert!((predicted - 15.0 * 4e-6).abs() < 1e-12);
        let total = snap.predicted_total_secs.expect("total predicted");
        assert!((total - (15.0 + 3.0) * 4e-6).abs() < 1e-12);
    }

    #[test]
    fn phase_agg_exposition_is_well_formed() {
        let agg = PhaseAgg::new();
        let p = QueryProfile::new();
        p.add_phase_ns(Phase::DbGen, 2_000_000_000);
        p.set_cost_params(CostParams {
            index_time_secs: 1e-6,
            tuple_time_secs: 1e-6,
        });
        p.record_relation(
            "movies",
            RelationDelta {
                tuples: 100,
                ..RelationDelta::default()
            },
        );
        agg.accumulate(&p.snapshot());
        agg.accumulate(&p.snapshot());
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
