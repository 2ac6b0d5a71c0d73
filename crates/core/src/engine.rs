//! The précis engine: wires the inverted index, the Result Schema Generator
//! and the Result Database Generator into the pipeline of Figure 2.
//!
//! Each stage runs under one span named by [`Phase::span_name`]; that span
//! is the stage's only clock. A caller that wants the per-phase profile
//! enters a `precis_obs::Trace` around the calls and folds it afterwards.

use crate::cache::{AnswerCache, AnswerCacheStats};
use crate::constraints::{CardinalityConstraint, DegreeConstraint};
use crate::cost::CostModel;
use crate::db_gen::{generate_result_database, DbGenOptions, PrecisDatabase, RetrievalStrategy};
use crate::error::CoreError;
use crate::query::PrecisQuery;
use crate::result_schema::ResultSchema;
use crate::schema_gen::generate_result_schema;
use crate::Result;
use precis_graph::{SchemaGraph, WeightProfile};
use precis_index::{InvertedIndex, Occurrence};
use precis_obs::{CostParams, Phase};
use precis_storage::{Database, RelationId, SymbolTable, TupleId};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How one query token matched the database: the paper's
/// `k_i → {(R_j, A_lj, Tids_lj)}` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenMatch {
    pub token: String,
    pub occurrences: Vec<Occurrence>,
}

/// Everything that parameterizes one précis answer: the two constraint
/// kinds, the retrieval strategy, an optional weight profile, and generator
/// options.
#[derive(Debug, Clone)]
pub struct AnswerSpec {
    pub degree: DegreeConstraint,
    pub cardinality: CardinalityConstraint,
    pub strategy: RetrievalStrategy,
    /// Name of a registered weight profile to personalize the schema graph
    /// with (§3.1), or `None` for the designer defaults.
    pub profile: Option<String>,
    pub options: DbGenOptions,
}

impl AnswerSpec {
    /// The paper's running-example parameters: projections with weight ≥ 0.9,
    /// up to 3 tuples per relation.
    pub fn paper_example() -> Self {
        AnswerSpec {
            degree: DegreeConstraint::MinWeight(0.9),
            cardinality: CardinalityConstraint::MaxTuplesPerRelation(3),
            strategy: RetrievalStrategy::RoundRobin,
            profile: None,
            options: DbGenOptions::default(),
        }
    }

    pub fn new(degree: DegreeConstraint, cardinality: CardinalityConstraint) -> Self {
        AnswerSpec {
            degree,
            cardinality,
            strategy: RetrievalStrategy::RoundRobin,
            profile: None,
            options: DbGenOptions::default(),
        }
    }

    pub fn with_strategy(mut self, strategy: RetrievalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    pub fn with_options(mut self, options: DbGenOptions) -> Self {
        self.options = options;
        self
    }
}

/// A complete précis answer.
#[derive(Debug)]
pub struct PrecisAnswer {
    /// Per-token index matches (empty occurrence lists mean the token was
    /// not found anywhere).
    pub matches: Vec<TokenMatch>,
    /// The result schema D′ (sub-graph G′ of the schema graph), shared with
    /// the engine's schema memo.
    pub schema: Arc<ResultSchema>,
    /// The materialized result database D′ and the original tuples behind it.
    pub precis: PrecisDatabase,
}

impl PrecisAnswer {
    /// Tokens that matched nothing.
    pub fn unmatched_tokens(&self) -> Vec<&str> {
        self.matches
            .iter()
            .filter(|m| m.occurrences.is_empty())
            .map(|m| m.token.as_str())
            .collect()
    }
}

/// A query resolved against one engine: Stages 1 and 2 of Figure 2, run
/// once by [`PrecisEngine::plan`]. Pricing ([`PrecisEngine::price`]) reads
/// it and execution ([`PrecisEngine::answer_planned`]) consumes it, so
/// neither looks a token up or resolves a schema again. A plan is only
/// meaningful on the engine that built it.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Per-token index matches, in query order.
    pub matches: Vec<TokenMatch>,
    /// The matched tuples of each origin.
    pub seeds: HashMap<RelationId, Vec<TupleId>>,
    /// The result schema, shared with the engine's memo.
    pub schema: Arc<ResultSchema>,
}

/// The précis query engine over one database.
///
/// ```
/// # use precis_storage::{Database, DatabaseSchema, RelationSchema, DataType, Value};
/// # use precis_graph::SchemaGraph;
/// # use precis_core::{PrecisEngine, PrecisQuery, AnswerSpec, DegreeConstraint, CardinalityConstraint};
/// # let mut schema = DatabaseSchema::new("d");
/// # schema.add_relation(RelationSchema::builder("R")
/// #     .attr_not_null("id", DataType::Int).attr("name", DataType::Text)
/// #     .primary_key("id").build().unwrap()).unwrap();
/// # let mut db = Database::new(schema).unwrap();
/// # db.insert("R", vec![Value::from(1), Value::from("hello world")]).unwrap();
/// # let graph = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.8, 0.5, 0.9).unwrap();
/// let engine = PrecisEngine::new(db, graph).unwrap();
/// let answer = engine
///     .answer(
///         &PrecisQuery::parse("hello"),
///         &AnswerSpec::new(
///             DegreeConstraint::MinWeight(0.5),
///             CardinalityConstraint::MaxTuplesPerRelation(10),
///         ),
///     )
///     .unwrap();
/// assert_eq!(answer.precis.total_tuples(), 1);
/// ```
///
/// Cloning copies pointers, not data: the database's chunks and index
/// shards, the inverted index's shards and the schema graph are all shared
/// with the original, and [`PrecisEngine::insert`]/[`update`]/[`delete`] on
/// the clone copy only what they touch (the server's write path clones,
/// mutates, and republishes while answers keep reading the original). The
/// schema memo is shared too: its entries depend on no stored tuple, so a
/// clone starts warm and the memo's counters keep counting across publishes.
///
/// [`update`]: PrecisEngine::update
/// [`delete`]: PrecisEngine::delete
#[derive(Debug, Clone)]
pub struct PrecisEngine {
    db: Database,
    graph: Arc<SchemaGraph>,
    index: InvertedIndex,
    profiles: HashMap<String, WeightProfile>,
    cache: Arc<AnswerCache>,
    /// Calibrated micro-costs: what admission prices a plan with, and what
    /// a profile's Formula (2) predictions are computed from.
    cost_model: Option<CostModel>,
}

impl PrecisEngine {
    /// Create an engine, building the inverted index over `db` and making
    /// sure every join endpoint of `graph` is indexed — the schema graph may
    /// declare joins beyond foreign keys ("other joins that are meaningful
    /// to a domain expert", §3.1), whose endpoints the database did not
    /// auto-index.
    pub fn new(db: Database, graph: SchemaGraph) -> Result<Self> {
        check_schema_match(&db, &graph)?;
        let index = InvertedIndex::build(&db);
        Ok(PrecisEngine::with_index(db, graph, index))
    }

    /// Create an engine with a pre-built index (e.g. one maintained
    /// incrementally).
    pub fn with_index(mut db: Database, graph: SchemaGraph, index: InvertedIndex) -> Self {
        ensure_join_indexes(&mut db, &graph);
        PrecisEngine {
            db,
            graph: Arc::new(graph),
            index,
            profiles: HashMap::new(),
            cache: Arc::default(),
            cost_model: None,
        }
    }

    /// Attach a calibrated cost model.
    pub fn set_cost_model(&mut self, model: CostModel) {
        self.cost_model = Some(model);
    }

    /// The attached cost model, if any.
    pub fn cost_model(&self) -> Option<&CostModel> {
        self.cost_model.as_ref()
    }

    /// The attached model's micro-costs in the form
    /// [`precis_obs::ProfileSnapshot::fold`] takes, so a profile of this
    /// engine's answer reports Formula (2) predicted seconds per relation
    /// next to measured wall time.
    pub fn cost_params(&self) -> Option<CostParams> {
        self.cost_model.map(|m| CostParams {
            index_time_secs: m.index_time,
            tuple_time_secs: m.tuple_time,
        })
    }

    /// Insert a tuple into the underlying database, keeping the inverted
    /// index in sync.
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<precis_storage::Value>,
    ) -> Result<precis_storage::TupleId> {
        let rel = self.db.schema().require_relation(relation)?;
        let tid = self.db.insert_into(rel, values)?;
        self.index.add_tuple(&self.db, rel, tid);
        Ok(tid)
    }

    /// Replace a tuple's values in place, keeping the inverted index in
    /// sync. The postings for the old values are removed before the row
    /// changes and the new values are indexed after — no full index
    /// rebuild.
    pub fn update(
        &mut self,
        rel: RelationId,
        tid: TupleId,
        values: Vec<precis_storage::Value>,
    ) -> Result<()> {
        self.index.remove_tuple(&self.db, rel, tid);
        let result = self.db.update(rel, tid, values);
        // Re-index whatever the tuple holds now: the new values on success,
        // the untouched old ones if the update was rejected — either way
        // the index stays consistent with the table.
        if self.db.table(rel).get(tid).is_some() {
            self.index.add_tuple(&self.db, rel, tid);
        }
        result.map_err(Into::into)
    }

    /// Delete a tuple, keeping the inverted index in sync.
    pub fn delete(&mut self, rel: RelationId, tid: TupleId) -> Result<()> {
        self.index.remove_tuple(&self.db, rel, tid);
        self.db.delete(rel, tid)?;
        Ok(())
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn graph(&self) -> &SchemaGraph {
        &self.graph
    }

    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Heap bytes the engine keeps resident, by part and at capacity (buckets
    /// and slab room, not keys and rows): what `/v1/metrics` reports as
    /// `precis_resident_bytes`. `symbols` is the process-wide table, which
    /// every engine of the process shares. Walks every index entry once — a
    /// few milliseconds at 300,000 tuples.
    pub fn resident_bytes(&self) -> [(&'static str, usize); 5] {
        let db = self.db.heap_bytes();
        [
            ("tables", db.tables),
            ("pk_index", db.pk_index),
            ("join_index", db.join_index),
            ("inverted_index", self.index.heap_bytes()),
            ("symbols", SymbolTable::global().heap_bytes()),
        ]
    }

    /// Register a named weight profile for use via
    /// [`AnswerSpec::with_profile`]. Re-registering a name changes what the
    /// memo's keys under it mean, so this engine starts a fresh memo.
    pub fn register_profile(&mut self, profile: WeightProfile) {
        self.profiles.insert(profile.name().to_owned(), profile);
        self.cache = Arc::default();
    }

    pub fn profile(&self, name: &str) -> Option<&WeightProfile> {
        self.profiles.get(name)
    }

    /// Counters of the schema memo.
    pub fn cache_stats(&self) -> AnswerCacheStats {
        self.cache.stats()
    }

    /// Resolve a query: one index pass (Stage 1) and one result schema
    /// (Stage 2, memoized per origins, degree and profile). The only place
    /// tokens are looked up and a schema is resolved; every answering and
    /// pricing entry point goes through it.
    pub fn plan(
        &self,
        query: &PrecisQuery,
        degree: &DegreeConstraint,
        profile: Option<&str>,
    ) -> Result<QueryPlan> {
        if query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let lookup_span = precis_obs::span(Phase::TokenLookup.span_name());
        let matches: Vec<TokenMatch> = query
            .tokens()
            .iter()
            .map(|t| TokenMatch {
                token: t.clone(),
                occurrences: self.index.lookup(&self.db, t),
            })
            .collect();
        drop(lookup_span);
        let (origins, seeds) = origins_and_seeds(&matches);

        let _schema_span = precis_obs::span(Phase::SchemaGen.span_name());
        let key = AnswerCache::schema_key(&origins, degree, profile);
        let schema = match self.cache.get_schema(&key) {
            Some(memoized) => memoized,
            None => {
                let graph = self.graph_for(profile)?;
                let generated = Arc::new(generate_result_schema(&graph, &origins, degree));
                self.cache.put_schema(key, generated.clone());
                generated
            }
        };
        Ok(QueryPlan {
            matches,
            seeds,
            schema,
        })
    }

    /// The schema graph personalized with a registered profile (§3.1), or
    /// the designer's graph for `None`.
    fn graph_for(&self, profile: Option<&str>) -> Result<Cow<'_, SchemaGraph>> {
        let Some(name) = profile else {
            return Ok(Cow::Borrowed(&self.graph));
        };
        let p = self
            .profiles
            .get(name)
            .ok_or_else(|| CoreError::UnknownProfile(name.to_owned()))?;
        Ok(Cow::Owned(self.graph.with_profile(p)?))
    }

    /// Answer a précis query end to end: index lookup → result schema →
    /// result database.
    pub fn answer(&self, query: &PrecisQuery, spec: &AnswerSpec) -> Result<PrecisAnswer> {
        let plan = self.plan(query, &spec.degree, spec.profile.as_deref())?;
        self.answer_planned(plan, spec)
    }

    /// Stage 3 over a plan this engine built for `spec.degree` and
    /// `spec.profile`: generate the result database. Like the plan's, its
    /// spans record into whatever trace the calling thread has entered —
    /// a caller that planned earlier (the server plans at admission) gets
    /// every phase by entering the same trace both times.
    pub fn answer_planned(&self, plan: QueryPlan, spec: &AnswerSpec) -> Result<PrecisAnswer> {
        let _answer_span = precis_obs::span("engine.answer");
        if let Some(cancel) = &spec.options.cancel {
            cancel.check()?;
        }
        let graph = self.graph_for(spec.profile.as_deref())?;

        let db_gen_span = precis_obs::span(Phase::DbGen.span_name());
        let precis = generate_result_database(
            &self.db,
            &graph,
            &plan.schema,
            &plan.seeds,
            &spec.cardinality,
            spec.strategy,
            &spec.options,
        )?;
        drop(db_gen_span);

        Ok(PrecisAnswer {
            matches: plan.matches,
            schema: plan.schema,
            precis,
        })
    }

    /// Answer within a response-time budget: derives the per-relation
    /// cardinality constraint from the paper's Formula (3),
    /// `c_R = cost_M / (n_R · (IndexTime + TupleTime))`, using the result
    /// schema's relation count as `n_R` — "we could define cardinality
    /// constraints based on the desired response time of a query" (§6).
    pub fn answer_within(
        &self,
        query: &PrecisQuery,
        degree: DegreeConstraint,
        model: &crate::cost::CostModel,
        budget_secs: f64,
    ) -> Result<PrecisAnswer> {
        let plan = self.plan(query, &degree, None)?;
        let n_r = plan.schema.relation_count().max(1);
        let c_r = model.cardinality_for_budget(budget_secs, n_r);
        let spec = AnswerSpec::new(degree, CardinalityConstraint::MaxTuplesPerRelation(c_r));
        self.answer_planned(plan, &spec)
    }

    /// Admission-time cost prediction: [`PrecisEngine::plan`] then
    /// [`PrecisEngine::price`]. A caller that goes on to answer the query
    /// keeps the plan instead and calls the two itself.
    pub fn predict_cost(
        &self,
        query: &PrecisQuery,
        degree: &DegreeConstraint,
        cardinality: &CardinalityConstraint,
    ) -> Result<CostPrediction> {
        Ok(self.price(&self.plan(query, degree, None)?, cardinality))
    }

    /// Fold the cardinality constraint into the tuple volume a plan's
    /// result schema admits and price it with Formula (2) — never a
    /// retrieval. This is what a cost-aware scheduler reads before
    /// committing a worker.
    pub fn price(&self, plan: &QueryPlan, cardinality: &CardinalityConstraint) -> CostPrediction {
        let est_tuples = estimate_tuples(&self.db, &plan.schema, cardinality);
        CostPrediction {
            relations: plan.schema.relation_count(),
            seed_tuples: plan.seeds.values().map(|t| t.len() as u64).sum(),
            est_tuples,
            predicted_secs: self.cost_model.map(|m| m.predict_volume(est_tuples)),
        }
    }
}

/// What [`PrecisEngine::predict_cost`] knows before any retrieval runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Relations the result schema will populate (`n_R`).
    pub relations: usize,
    /// Seed tuples the inverted index matched across all tokens.
    pub seed_tuples: u64,
    /// Tuple volume the cardinality constraint admits, capped per relation
    /// by the stored tuple count (a constraint larger than the relation
    /// cannot retrieve more than the relation holds).
    pub est_tuples: u64,
    /// Formula-2 cost in seconds; `None` until a cost model is calibrated.
    pub predicted_secs: Option<f64>,
}

/// Fold a cardinality constraint and a result schema into the tuple volume
/// Formula (2) prices. Per-relation caps sum `min(c_R, |R|)`; a total cap
/// bounds that sum; `Unbounded` assumes the worst case of every stored
/// tuple in every populated relation; a conjunction takes its tightest
/// component.
fn estimate_tuples(
    db: &Database,
    schema: &ResultSchema,
    cardinality: &CardinalityConstraint,
) -> u64 {
    let stored_total: u64 = schema.relations().map(|(rel, _)| db.len(rel) as u64).sum();
    match cardinality {
        CardinalityConstraint::MaxTuplesPerRelation(c) => schema
            .relations()
            .map(|(rel, _)| (db.len(rel) as u64).min(*c as u64))
            .sum(),
        CardinalityConstraint::MaxTotalTuples(t) => stored_total.min(*t as u64),
        CardinalityConstraint::Unbounded => stored_total,
        CardinalityConstraint::All(parts) => parts
            .iter()
            .map(|c| estimate_tuples(db, schema, c))
            .min()
            .unwrap_or(stored_total),
    }
}

/// Fold index matches into the origin relations (first-match order,
/// deduplicated through a set rather than a quadratic `contains` scan) and
/// the per-relation seed tuples.
fn origins_and_seeds(
    matches: &[TokenMatch],
) -> (Vec<RelationId>, HashMap<RelationId, Vec<TupleId>>) {
    let mut origins: Vec<RelationId> = Vec::new();
    let mut seen: HashSet<RelationId> = HashSet::new();
    let mut seeds: HashMap<RelationId, Vec<TupleId>> = HashMap::new();
    for m in matches {
        for occ in &m.occurrences {
            if seen.insert(occ.rel) {
                origins.push(occ.rel);
            }
            seeds.entry(occ.rel).or_default().extend(occ.tids.iter());
        }
    }
    (origins, seeds)
}

/// Verify the graph talks about the same relations (names, arities, order)
/// as the database — a graph built over a different schema would address
/// relations and attributes by position and silently corrupt answers.
fn check_schema_match(db: &Database, graph: &SchemaGraph) -> Result<()> {
    let ds = db.schema();
    let gs = graph.schema();
    if ds.relation_count() != gs.relation_count() {
        return Err(CoreError::SchemaMismatch(format!(
            "database has {} relations, graph has {}",
            ds.relation_count(),
            gs.relation_count()
        )));
    }
    for (id, dr) in ds.relations() {
        let gr = gs.relation(id);
        if dr.name() != gr.name() || dr.arity() != gr.arity() {
            return Err(CoreError::SchemaMismatch(format!(
                "relation {id}: database has {}({}), graph has {}({})",
                dr.name(),
                dr.arity(),
                gr.name(),
                gr.arity()
            )));
        }
    }
    Ok(())
}

/// Build any missing secondary index on a join-edge endpoint.
fn ensure_join_indexes(db: &mut Database, graph: &SchemaGraph) {
    for j in graph.join_edges() {
        for (rel, attr) in [(j.from, j.from_attr), (j.to, j.to_attr)] {
            if !db.has_index(rel, attr) {
                db.create_index(rel, attr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_storage::{DataType, DatabaseSchema, RelationSchema, Value};

    /// Two relations related only by a domain-expert join (same `city`
    /// text attribute), no foreign key anywhere.
    fn expert_join_setup() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("PERSON")
                .attr_not_null("pid", DataType::Int)
                .attr("name", DataType::Text)
                .attr("city", DataType::Text)
                .primary_key("pid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("VENUE")
                .attr_not_null("vid", DataType::Int)
                .attr("vname", DataType::Text)
                .attr("city", DataType::Text)
                .primary_key("vid")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert(
            "PERSON",
            vec![Value::from(1), Value::from("Ada"), Value::from("Athens")],
        )
        .unwrap();
        db.insert(
            "VENUE",
            vec![Value::from(1), Value::from("Odeon"), Value::from("Athens")],
        )
        .unwrap();
        db.insert(
            "VENUE",
            vec![Value::from(2), Value::from("Rex"), Value::from("Rome")],
        )
        .unwrap();
        let graph = SchemaGraph::builder(db.schema().clone())
            .projection("PERSON", "name", 1.0)
            .unwrap()
            .projection("VENUE", "vname", 1.0)
            .unwrap()
            // Expert join on city — no FK backs this, so no auto index.
            .join_both("PERSON", "city", "VENUE", "city", 0.9, 0.9)
            .unwrap()
            .build()
            .unwrap();
        (db, graph)
    }

    #[test]
    fn expert_joins_without_foreign_keys_work() {
        let (db, graph) = expert_join_setup();
        let engine = PrecisEngine::new(db, graph).unwrap();
        let answer = engine
            .answer(
                &PrecisQuery::parse("ada"),
                &AnswerSpec::new(
                    crate::DegreeConstraint::MinWeight(0.5),
                    CardinalityConstraint::Unbounded,
                ),
            )
            .unwrap();
        let venue = engine.database().schema().relation_id("VENUE").unwrap();
        let names: Vec<String> = answer.precis.collected[&venue]
            .iter()
            .map(|tid| {
                engine
                    .database()
                    .table(venue)
                    .get(*tid)
                    .unwrap()
                    .get(1)
                    .to_string()
            })
            .collect();
        assert_eq!(names, vec!["Odeon"], "joined through the shared city");
    }

    #[test]
    fn mismatched_graph_is_rejected() {
        let (db, _) = expert_join_setup();
        // A graph over a completely different schema.
        let mut other = DatabaseSchema::new("other");
        other
            .add_relation(
                RelationSchema::builder("X")
                    .attr_not_null("id", DataType::Int)
                    .primary_key("id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let bad_graph = SchemaGraph::from_foreign_keys(other, 0.5, 0.5, 0.5).unwrap();
        let err = PrecisEngine::new(db, bad_graph).unwrap_err();
        assert!(matches!(err, CoreError::SchemaMismatch(_)));
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn engine_insert_and_delete_keep_the_index_fresh() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );
        assert!(engine
            .answer(&PrecisQuery::parse("grace"), &spec)
            .unwrap()
            .matches[0]
            .occurrences
            .is_empty());

        let tid = engine
            .insert(
                "PERSON",
                vec![Value::from(2), Value::from("Grace"), Value::from("Rome")],
            )
            .unwrap();
        let a = engine.answer(&PrecisQuery::parse("grace"), &spec).unwrap();
        assert_eq!(a.precis.report.seed_tuples, 1);
        // Grace joins to Rome's venue.
        let venue = engine.database().schema().relation_id("VENUE").unwrap();
        assert_eq!(a.precis.collected[&venue].len(), 1);

        let person = engine.database().schema().relation_id("PERSON").unwrap();
        engine.delete(person, tid).unwrap();
        let a = engine.answer(&PrecisQuery::parse("grace"), &spec).unwrap();
        assert!(a.matches[0].occurrences.is_empty());
    }

    #[test]
    fn repeated_answers_hit_the_schema_memo() {
        let (db, graph) = expert_join_setup();
        let engine = PrecisEngine::new(db, graph).unwrap();
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );
        let q = PrecisQuery::parse("ada");
        let first = engine.answer(&q, &spec).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.schema_hits, s.schema_misses), (0, 1));

        let second = engine.answer(&q, &spec).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.schema_hits, s.schema_misses), (1, 1));
        // Memoized answers are identical to computed ones, and the hit
        // shares the stored schema instead of copying it.
        assert_eq!(first.matches, second.matches);
        assert_eq!(first.precis.collected, second.precis.collected);
        assert!(Arc::ptr_eq(&first.schema, &second.schema));
    }

    #[test]
    fn predict_cost_prices_the_constrained_volume_and_warms_the_memo() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        let q = PrecisQuery::parse("ada");
        let degree = crate::DegreeConstraint::MinWeight(0.5);

        // Without a calibrated model the volume is still estimated.
        let p = engine
            .predict_cost(&q, &degree, &CardinalityConstraint::Unbounded)
            .unwrap();
        assert!(p.relations > 0);
        assert!(p.seed_tuples > 0);
        assert!(p.est_tuples > 0);
        assert_eq!(p.predicted_secs, None);

        engine.set_cost_model(CostModel::new(1e-6, 2e-6));
        let unbounded = engine
            .predict_cost(&q, &degree, &CardinalityConstraint::Unbounded)
            .unwrap();
        let secs = unbounded.predicted_secs.unwrap();
        assert!((secs - unbounded.est_tuples as f64 * 3e-6).abs() < 1e-12);

        // A per-relation cap of 1 admits at most one tuple per populated
        // relation, and never more than the unbounded worst case.
        let capped = engine
            .predict_cost(&q, &degree, &CardinalityConstraint::MaxTuplesPerRelation(1))
            .unwrap();
        assert!(capped.est_tuples <= unbounded.relations as u64);
        assert!(capped.est_tuples <= unbounded.est_tuples);

        // A total cap bounds the volume outright; a conjunction takes the
        // tightest component.
        let total = engine
            .predict_cost(&q, &degree, &CardinalityConstraint::MaxTotalTuples(2))
            .unwrap();
        assert!(total.est_tuples <= 2);
        let both = engine
            .predict_cost(
                &q,
                &degree,
                &CardinalityConstraint::All(vec![
                    CardinalityConstraint::MaxTotalTuples(2),
                    CardinalityConstraint::Unbounded,
                ]),
            )
            .unwrap();
        assert_eq!(both.est_tuples, total.est_tuples);

        // The prediction's schema lands in the memo, so the answer that
        // follows reuses it.
        let s = engine.cache_stats();
        assert_eq!(s.schema_misses, 1);
        let spec = AnswerSpec::new(degree.clone(), CardinalityConstraint::Unbounded);
        engine.answer(&q, &spec).unwrap();
        let s2 = engine.cache_stats();
        assert!(s2.schema_hits > s.schema_hits);
        assert_eq!(s2.schema_misses, 1);

        assert!(matches!(
            engine.predict_cost(
                &PrecisQuery::new(Vec::<String>::new()),
                &degree,
                &CardinalityConstraint::Unbounded
            ),
            Err(CoreError::EmptyQuery)
        ));
    }

    #[test]
    fn mutations_are_seen_by_the_next_answer_and_keep_the_memo() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );
        let q = PrecisQuery::parse("grace");
        assert!(engine.answer(&q, &spec).unwrap().matches[0]
            .occurrences
            .is_empty());

        // Every plan reads the index itself, so the empty match for
        // "grace" cannot outlive the insert.
        let tid = engine
            .insert(
                "PERSON",
                vec![Value::from(2), Value::from("Grace"), Value::from("Rome")],
            )
            .unwrap();
        let a = engine.answer(&q, &spec).unwrap();
        assert_eq!(a.precis.report.seed_tuples, 1, "fresh lookup after insert");

        // Same again for delete.
        let person = engine.database().schema().relation_id("PERSON").unwrap();
        engine.delete(person, tid).unwrap();
        assert!(engine.answer(&q, &spec).unwrap().matches[0]
            .occurrences
            .is_empty());

        // The memo holds no stored tuple, so it survives both mutations:
        // the origin-less schema, then PERSON's, then the first again.
        let s = engine.cache_stats();
        assert_eq!((s.schema_hits, s.schema_misses), (1, 2));
    }

    #[test]
    fn a_traced_answer_folds_into_phases_relations_and_predictions() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        engine.set_cost_model(CostModel::new(1e-6, 2e-6));
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );
        let q = PrecisQuery::parse("ada");

        let mut trace = precis_obs::Trace::new(64);
        let a = {
            let _entered = trace.enter();
            engine.answer(&q, &spec).unwrap()
        };
        let snap = precis_obs::ProfileSnapshot::fold("ada", trace.spans(), engine.cost_params());
        assert_eq!((snap.query.as_str(), snap.trace), ("ada", trace.id()));

        assert!(snap.phase(Phase::TokenLookup) > 0);
        assert!(snap.phase(Phase::SchemaGen) > 0);
        assert!(snap.phase(Phase::DbGen) > 0);
        // Seed relation and the joined relation both get traversal rows.
        let rels: Vec<&str> = snap.relations.iter().map(|r| r.relation.as_str()).collect();
        assert_eq!(rels, vec!["PERSON", "VENUE"]);
        for r in &snap.relations {
            assert!(r.tuples > 0, "{r:?}");
            assert!(r.tuple_reads >= r.tuples, "{r:?}");
            assert!(r.wall_ns > 0, "{r:?}");
            // Formula (2): tuples × (IndexTime + TupleTime).
            assert_eq!(r.predicted_secs, Some(r.tuples as f64 * 3e-6), "{r:?}");
        }
        assert!(snap.predicted_total_secs.is_some());

        // Recording never changes the answer itself.
        let b = engine.answer(&q, &spec).unwrap();
        assert_eq!(a.precis.collected, b.precis.collected);
        assert_eq!(a.precis.report, b.precis.report);
    }

    #[test]
    fn answer_within_plans_once() {
        let (db, graph) = expert_join_setup();
        let engine = PrecisEngine::new(db, graph).unwrap();
        let model = crate::cost::CostModel::new(1e-6, 1e-6);
        let a = engine
            .answer_within(
                &PrecisQuery::parse("ada"),
                crate::DegreeConstraint::MinWeight(0.5),
                &model,
                10.0,
            )
            .unwrap();
        assert_eq!(a.precis.report.seed_tuples, 1);
        // The n_R pre-pass and the answer share one plan: one memo probe.
        let s = engine.cache_stats();
        assert_eq!((s.schema_hits, s.schema_misses), (0, 1));
    }

    #[test]
    fn every_entry_point_is_plan_then_answer_planned_or_price() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        engine.set_cost_model(CostModel::new(1e-6, 2e-6));
        let q = PrecisQuery::parse("ada athens");
        let degree = crate::DegreeConstraint::MinWeight(0.5);
        let cardinality = CardinalityConstraint::MaxTuplesPerRelation(1);
        let spec = AnswerSpec::new(degree.clone(), cardinality.clone());

        let plan = engine.plan(&q, &degree, None).unwrap();
        assert_eq!(
            engine.predict_cost(&q, &degree, &cardinality).unwrap(),
            engine.price(&plan, &cardinality)
        );

        let planned = engine.answer_planned(plan.clone(), &spec).unwrap();
        let direct = engine.answer(&q, &spec).unwrap();
        assert_eq!(direct.matches, plan.matches);
        assert_eq!(direct.matches, planned.matches);
        assert_eq!(direct.precis.collected, planned.precis.collected);
        assert_eq!(direct.precis.report, planned.precis.report);
        assert!(Arc::ptr_eq(&direct.schema, &plan.schema));

        // Formula (3) at this budget admits one tuple per relation: the
        // budgeted answer is the planned one under that cap.
        let model = CostModel::new(1.0, 1.0);
        let n_r = plan.schema.relation_count();
        assert_eq!(model.cardinality_for_budget(2.0 * n_r as f64, n_r), 1);
        let within = engine
            .answer_within(&q, degree.clone(), &model, 2.0 * n_r as f64)
            .unwrap();
        assert_eq!(within.matches, planned.matches);
        assert_eq!(within.precis.collected, planned.precis.collected);
        assert!(Arc::ptr_eq(&within.schema, &plan.schema));

        // Four plans in all: one generation, three memo hits.
        let s = engine.cache_stats();
        assert_eq!((s.schema_hits, s.schema_misses), (3, 1));

        // A clone shares the memo; re-registering a profile starts afresh.
        let mut clone = engine.clone();
        let again = clone.plan(&q, &degree, None).unwrap();
        assert!(Arc::ptr_eq(&again.schema, &plan.schema));
        assert_eq!(engine.cache_stats().schema_hits, 4);
        clone.register_profile(precis_graph::WeightProfile::new("p"));
        assert_eq!(clone.cache_stats(), AnswerCacheStats::default());
        assert_eq!(engine.cache_stats().schema_hits, 4);
    }

    #[test]
    fn update_maintains_the_index_like_a_full_rebuild() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        let venue = engine.database().schema().relation_id("VENUE").unwrap();
        engine
            .update(
                venue,
                TupleId(0),
                vec![Value::from(1), Value::from("Pallas"), Value::from("Athens")],
            )
            .unwrap();
        // A failed update (bad tid) must leave the index consistent too.
        assert!(engine.update(venue, TupleId(99), vec![]).is_err());
        let rebuilt = InvertedIndex::build(engine.database());
        for token in ["odeon", "pallas", "rex", "athens", "rome", "ada"] {
            assert_eq!(
                engine.index().lookup(engine.database(), token),
                rebuilt.lookup(engine.database(), token),
                "postings for {token:?} drifted from a full rebuild"
            );
        }
        // And answers see the new value, not the old one.
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );
        assert_eq!(
            engine
                .answer(&PrecisQuery::parse("pallas"), &spec)
                .unwrap()
                .precis
                .total_tuples(),
            2 // the venue plus Ada through the shared city
        );
        assert_eq!(
            engine
                .answer(&PrecisQuery::parse("odeon"), &spec)
                .unwrap()
                .precis
                .total_tuples(),
            0,
            "the overwritten value must stop matching"
        );
    }

    #[test]
    fn a_cloned_engine_shares_everything_and_a_write_copies_a_bounded_few_pieces() {
        // Chunks: the tail and two rows'. Once a delta is sharded, database
        // shards — VENUE's key index and its city join index, per key
        // touched — and word shards — a handful of words per written name;
        // an inline delta the clone copied is no shared piece.
        const BOUND: usize = 30;
        let dump = |e: &PrecisEngine| precis_storage::io::dump_to_string(e.database());
        let unshared = |a: &PrecisEngine, b: &PrecisEngine| {
            a.database().unshared_pieces(b.database()) + a.index().unshared_pieces(b.index())
        };
        for venues in [2_000i64, 20_000] {
            let (mut db, graph) = expert_join_setup();
            for v in 3..venues {
                let name = format!("Venue {v} hall");
                let city = format!("City {}", v % 50);
                let row = vec![Value::from(v), name.as_str().into(), city.as_str().into()];
                db.insert("VENUE", row).unwrap();
            }
            let original = PrecisEngine::new(db, graph).unwrap();
            let before = dump(&original);
            let mut copy = original.clone();
            assert_eq!(unshared(&copy, &original), 0, "{venues} venues");

            let venue = copy.database().schema().relation_id("VENUE").unwrap();
            let row = |v: i64, name: &str| vec![Value::from(v), name.into(), "Athens".into()];
            copy.insert("VENUE", row(venues, "Brand new annex"))
                .unwrap();
            copy.update(venue, TupleId(10), row(11, "Renamed pavilion"))
                .unwrap();
            copy.delete(venue, TupleId(venues as u64 / 2)).unwrap();

            let pieces = unshared(&copy, &original);
            assert!((2..=BOUND).contains(&pieces), "{venues}: {pieces}");
            // The original answers and dumps exactly as before; the copy
            // equals an engine rebuilt from its own dump.
            assert_eq!(dump(&original), before);
            assert!(original
                .index()
                .lookup(original.database(), "annex")
                .is_empty());
            assert_eq!(copy.index().lookup(copy.database(), "annex").len(), 1);
            assert_eq!(
                copy.index(),
                &precis_index::InvertedIndex::build(copy.database())
            );
        }
    }

    #[test]
    fn cloned_engines_mutate_independently() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        let before = engine.clone();
        engine
            .insert(
                "VENUE",
                vec![Value::from(3), Value::from("Annex"), Value::from("Athens")],
            )
            .unwrap();
        assert_eq!(engine.database().total_tuples(), 4);
        assert_eq!(before.database().total_tuples(), 3);
        assert_eq!(
            engine.index().lookup(engine.database(), "annex").len(),
            1,
            "mutated clone indexes the new tuple"
        );
        assert!(
            before.index().lookup(before.database(), "annex").is_empty(),
            "original engine is untouched"
        );
    }
}
