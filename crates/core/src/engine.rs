//! The précis engine: wires the inverted index, the Result Schema Generator
//! and the Result Database Generator into the pipeline of Figure 2.

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
use precis_storage::{Database, RelationId, TupleId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

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
    /// The result schema D′ (sub-graph G′ of the schema graph).
    pub schema: ResultSchema,
    /// The materialized result database D′ with provenance.
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
#[derive(Debug)]
pub struct PrecisEngine {
    db: Database,
    graph: SchemaGraph,
    index: InvertedIndex,
    profiles: HashMap<String, WeightProfile>,
    cache: AnswerCache,
    /// Calibrated micro-costs used to annotate query profiles with the
    /// paper's Formula (2) prediction next to measured wall time.
    cost_model: Option<CostModel>,
}

impl Clone for PrecisEngine {
    /// Deep-copy the engine for copy-on-write mutation (the server's write
    /// path clones, mutates, and republishes). The answer cache is
    /// per-instance state behind mutexes, so the clone starts with a cold
    /// cache rather than sharing one.
    fn clone(&self) -> Self {
        PrecisEngine {
            db: self.db.clone(),
            graph: self.graph.clone(),
            index: self.index.clone(),
            profiles: self.profiles.clone(),
            cache: AnswerCache::default(),
            cost_model: self.cost_model,
        }
    }
}

impl PrecisEngine {
    /// Create an engine, building the inverted index over `db` and making
    /// sure every join endpoint of `graph` is indexed — the schema graph may
    /// declare joins beyond foreign keys ("other joins that are meaningful
    /// to a domain expert", §3.1), whose endpoints the database did not
    /// auto-index.
    pub fn new(mut db: Database, graph: SchemaGraph) -> Result<Self> {
        check_schema_match(&db, &graph)?;
        ensure_join_indexes(&mut db, &graph);
        let index = InvertedIndex::build(&db);
        Ok(PrecisEngine {
            db,
            graph,
            index,
            profiles: HashMap::new(),
            cache: AnswerCache::default(),
            cost_model: None,
        })
    }

    /// Create an engine with a pre-built index (e.g. one maintained
    /// incrementally).
    pub fn with_index(mut db: Database, graph: SchemaGraph, index: InvertedIndex) -> Self {
        ensure_join_indexes(&mut db, &graph);
        PrecisEngine {
            db,
            graph,
            index,
            profiles: HashMap::new(),
            cache: AnswerCache::default(),
            cost_model: None,
        }
    }

    /// Attach a calibrated cost model; subsequent profiled answers report
    /// Formula (2) predicted seconds per relation next to measured wall
    /// time.
    pub fn set_cost_model(&mut self, model: CostModel) {
        self.cost_model = Some(model);
    }

    /// The attached cost model, if any.
    pub fn cost_model(&self) -> Option<&CostModel> {
        self.cost_model.as_ref()
    }

    /// Insert a tuple into the underlying database, keeping the inverted
    /// index in sync and invalidating the answer caches.
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<precis_storage::Value>,
    ) -> Result<precis_storage::TupleId> {
        let rel = self.db.schema().require_relation(relation)?;
        let tid = self.db.insert_into(rel, values)?;
        self.index.add_tuple(&self.db, rel, tid);
        self.cache.bump_generation();
        Ok(tid)
    }

    /// Replace a tuple's values in place, keeping the inverted index in
    /// sync and invalidating the answer caches. The postings for the old
    /// values are removed before the row changes and the new values are
    /// indexed after — no full index rebuild.
    pub fn update(
        &mut self,
        rel: RelationId,
        tid: TupleId,
        values: Vec<precis_storage::Value>,
    ) -> Result<()> {
        self.index.remove_tuple(&self.db, rel, tid);
        self.cache.bump_generation();
        let result = self.db.update(rel, tid, values);
        // Re-index whatever the tuple holds now: the new values on success,
        // the untouched old ones if the update was rejected — either way
        // the index stays consistent with the table.
        if self.db.table(rel).get(tid).is_some() {
            self.index.add_tuple(&self.db, rel, tid);
        }
        result.map_err(Into::into)
    }

    /// Delete a tuple, keeping the inverted index in sync and invalidating
    /// the answer caches.
    pub fn delete(&mut self, rel: RelationId, tid: TupleId) -> Result<()> {
        self.index.remove_tuple(&self.db, rel, tid);
        // The index is already mutated, so invalidate even if the row delete
        // below fails.
        self.cache.bump_generation();
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

    /// Register a named weight profile for use via
    /// [`AnswerSpec::with_profile`].
    pub fn register_profile(&mut self, profile: WeightProfile) {
        self.profiles.insert(profile.name().to_owned(), profile);
    }

    pub fn profile(&self, name: &str) -> Option<&WeightProfile> {
        self.profiles.get(name)
    }

    /// Counters of the answer caches (schema + token layers).
    pub fn cache_stats(&self) -> AnswerCacheStats {
        self.cache.stats()
    }

    /// The answer caches themselves (for capacity tuning or direct probing).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Answer a précis query end to end: index lookup → result schema →
    /// result database.
    pub fn answer(&self, query: &PrecisQuery, spec: &AnswerSpec) -> Result<PrecisAnswer> {
        if query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        if let Some(p) = &spec.options.profile {
            p.set_query(&query.tokens().join(" "));
            if let Some(m) = &self.cost_model {
                p.set_cost_params(CostParams {
                    index_time_secs: m.index_time,
                    tuple_time_secs: m.tuple_time,
                });
            }
        }
        // Unprofiled queries inherit the caller's ambient trace (if any), so
        // their engine spans still land in the request's capture buffer.
        let trace = spec
            .options
            .profile
            .as_ref()
            .map_or_else(precis_obs::current_trace, |p| p.trace());
        precis_obs::with_trace(trace, || {
            let _answer_span = precis_obs::span("engine.answer");
            let graph = match &spec.profile {
                None => None,
                Some(name) => {
                    let p = self
                        .profiles
                        .get(name)
                        .ok_or_else(|| CoreError::UnknownProfile(name.clone()))?;
                    Some(self.graph.with_profile(p)?)
                }
            };
            let graph = graph.as_ref().unwrap_or(&self.graph);

            let lookup_span = precis_obs::span("engine.token_lookup");
            let t0 = Instant::now();
            let matches = self.lookup_tokens(query);
            drop(lookup_span);
            if let Some(p) = &spec.options.profile {
                p.add_phase(Phase::TokenLookup, t0.elapsed());
            }
            self.answer_with_matches(graph, matches, spec)
        })
    }

    /// Stage 1 with the token cache in front: cached tokens are served
    /// directly, each distinct miss is looked up once, and every fresh
    /// occurrence list is published back to the cache.
    fn lookup_tokens(&self, query: &PrecisQuery) -> Vec<TokenMatch> {
        let tokens = query.tokens();
        let mut slots: Vec<Option<Arc<Vec<Occurrence>>>> =
            tokens.iter().map(|t| self.cache.get_token(t)).collect();
        let mut fresh: HashMap<&str, Arc<Vec<Occurrence>>> = HashMap::new();
        for (t, s) in tokens.iter().zip(slots.iter_mut()) {
            if s.is_none() {
                let occurrences = fresh.entry(t.as_str()).or_insert_with(|| {
                    let looked_up = Arc::new(self.index.lookup(&self.db, t));
                    self.cache.put_token(t.clone(), looked_up.clone());
                    looked_up
                });
                *s = Some(occurrences.clone());
            }
        }
        tokens
            .iter()
            .zip(slots)
            .map(|(t, s)| TokenMatch {
                token: t.clone(),
                occurrences: s.expect("every slot filled").as_ref().clone(),
            })
            .collect()
    }

    /// Stages 2 and 3 over already-resolved index matches, with the schema
    /// cache in front of Stage 2. Shared by [`PrecisEngine::answer`] and
    /// [`PrecisEngine::answer_within`] so the index is consulted exactly
    /// once per query.
    fn answer_with_matches(
        &self,
        graph: &SchemaGraph,
        matches: Vec<TokenMatch>,
        spec: &AnswerSpec,
    ) -> Result<PrecisAnswer> {
        if let Some(cancel) = &spec.options.cancel {
            cancel.check()?;
        }
        let (origins, seeds) = origins_and_seeds(&matches);

        // Stage 2: result schema generation, memoized per (origins, degree,
        // profile).
        let schema_span = precis_obs::span("engine.schema_gen");
        let t0 = Instant::now();
        let key = AnswerCache::schema_key(&origins, &spec.degree, spec.profile.as_deref());
        let schema = match self.cache.get_schema(&key) {
            Some(cached) => cached.as_ref().clone(),
            None => {
                let s = generate_result_schema(graph, &origins, &spec.degree);
                self.cache.put_schema(key, Arc::new(s.clone()));
                s
            }
        };
        drop(schema_span);
        if let Some(p) = &spec.options.profile {
            p.add_phase(Phase::SchemaGen, t0.elapsed());
        }

        // Stage 3: result database generation.
        let db_gen_span = precis_obs::span("engine.db_gen");
        let t0 = Instant::now();
        let precis = generate_result_database(
            &self.db,
            graph,
            &schema,
            &seeds,
            &spec.cardinality,
            spec.strategy,
            &spec.options,
        )?;
        drop(db_gen_span);
        if let Some(p) = &spec.options.profile {
            p.add_phase(Phase::DbGen, t0.elapsed());
        }

        Ok(PrecisAnswer {
            matches,
            schema,
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
        if query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        // One index pass, reused for both the n_R pre-pass and the answer
        // itself; the pre-pass schema lands in the cache, so Stage 2 also
        // runs once.
        let matches = self.lookup_tokens(query);
        let (origins, _) = origins_and_seeds(&matches);
        let key = AnswerCache::schema_key(&origins, &degree, None);
        let schema = match self.cache.get_schema(&key) {
            Some(cached) => cached.as_ref().clone(),
            None => {
                let s = generate_result_schema(&self.graph, &origins, &degree);
                self.cache.put_schema(key, Arc::new(s.clone()));
                s
            }
        };
        let n_r = schema.relation_count().max(1);
        let c_r = model.cardinality_for_budget(budget_secs, n_r);
        let spec = AnswerSpec::new(degree, CardinalityConstraint::MaxTuplesPerRelation(c_r));
        self.answer_with_matches(&self.graph, matches, &spec)
    }

    /// Admission-time cost prediction: resolve the query's tokens and
    /// result schema (both cache-fronted, so the work is reused by the
    /// answer that usually follows), fold the cardinality constraint into a
    /// retrieved-tuple volume, and price it with Formula (2). This is the
    /// hook a cost-aware scheduler calls before committing a worker: it
    /// costs a warm-cache token lookup plus a schema-cache probe, never a
    /// retrieval.
    pub fn predict_cost(
        &self,
        query: &PrecisQuery,
        degree: &DegreeConstraint,
        cardinality: &CardinalityConstraint,
    ) -> Result<CostPrediction> {
        if query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let matches = self.lookup_tokens(query);
        let (origins, seeds) = origins_and_seeds(&matches);
        let key = AnswerCache::schema_key(&origins, degree, None);
        let schema = match self.cache.get_schema(&key) {
            Some(cached) => cached.as_ref().clone(),
            None => {
                let s = generate_result_schema(&self.graph, &origins, degree);
                self.cache.put_schema(key, Arc::new(s.clone()));
                s
            }
        };
        let relations = schema.relation_count();
        let seed_tuples: u64 = seeds.values().map(|t| t.len() as u64).sum();
        let est_tuples = estimate_tuples(&self.db, &schema, cardinality);
        Ok(CostPrediction {
            relations,
            seed_tuples,
            est_tuples,
            predicted_secs: self.cost_model.map(|m| m.predict_volume(est_tuples)),
        })
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
    fn repeated_answers_hit_the_schema_and_token_caches() {
        let (db, graph) = expert_join_setup();
        let engine = PrecisEngine::new(db, graph).unwrap();
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );
        let q = PrecisQuery::parse("ada");
        let first = engine.answer(&q, &spec).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.token_hits, s.token_misses), (0, 1));
        assert_eq!((s.schema_hits, s.schema_misses), (0, 1));

        let second = engine.answer(&q, &spec).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.token_hits, s.token_misses), (1, 1));
        assert_eq!((s.schema_hits, s.schema_misses), (1, 1));
        // Cached answers are identical to computed ones.
        assert_eq!(first.matches, second.matches);
        assert_eq!(first.precis.collected, second.precis.collected);
        assert_eq!(
            first.schema.relation_count(),
            second.schema.relation_count()
        );
    }

    #[test]
    fn predict_cost_prices_the_constrained_volume_and_warms_the_caches() {
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

        // The prediction's token and schema lookups land in the caches, so
        // the answer that follows reuses them.
        let s = engine.cache_stats();
        assert!(s.token_misses >= 1);
        let spec = AnswerSpec::new(degree.clone(), CardinalityConstraint::Unbounded);
        engine.answer(&q, &spec).unwrap();
        let s2 = engine.cache_stats();
        assert!(s2.token_hits > s.token_hits);
        assert!(s2.schema_hits > s.schema_hits);

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
    fn mutations_invalidate_the_answer_caches() {
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

        // The insert bumps the generation: the cached empty occurrence list
        // for "grace" must not be served.
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

        // Every probe ran against a bumped generation: no stale hits.
        let s = engine.cache_stats();
        assert_eq!(s.token_hits, 0);
        assert_eq!(s.token_misses, 3);
    }

    #[test]
    fn profiled_answer_fills_phases_relations_and_predictions() {
        let (db, graph) = expert_join_setup();
        let mut engine = PrecisEngine::new(db, graph).unwrap();
        engine.set_cost_model(CostModel::new(1e-6, 2e-6));
        let profile = Arc::new(precis_obs::QueryProfile::new());
        let options = DbGenOptions {
            profile: Some(profile.clone()),
            ..Default::default()
        };
        let spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        )
        .with_options(options);
        let unprofiled_spec = AnswerSpec::new(
            crate::DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::Unbounded,
        );

        let a = engine.answer(&PrecisQuery::parse("ada"), &spec).unwrap();
        profile.finish();
        let snap = profile.snapshot();

        assert_eq!(snap.query, "ada");
        assert!(snap.phase(Phase::TokenLookup) > 0);
        assert!(snap.phase(Phase::SchemaGen) > 0);
        assert!(snap.phase(Phase::DbGen) > 0);
        // Seed relation and the joined relation both get traversal rows.
        let rels: Vec<&str> = snap.relations.iter().map(|r| r.relation.as_str()).collect();
        assert_eq!(rels, vec!["PERSON", "VENUE"]);
        for r in &snap.relations {
            assert!(r.tuples > 0, "{r:?}");
            assert!(r.wall_ns > 0, "{r:?}");
            // Formula (2): tuples × (IndexTime + TupleTime).
            assert_eq!(r.predicted_secs, Some(r.tuples as f64 * 3e-6), "{r:?}");
        }
        assert!(snap.predicted_total_secs.is_some());

        // Profiling never changes the answer itself.
        let b = engine
            .answer(&PrecisQuery::parse("ada"), &unprofiled_spec)
            .unwrap();
        assert_eq!(a.precis.collected, b.precis.collected);
        assert_eq!(a.precis.report, b.precis.report);
    }

    #[test]
    fn answer_within_consults_the_index_once_per_token() {
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
        let s = engine.cache_stats();
        // Previously every lookup ran twice (pre-pass + answer); now the one
        // token is resolved exactly once and the pre-pass schema is reused.
        assert_eq!((s.token_hits, s.token_misses), (0, 1));
        assert_eq!((s.schema_hits, s.schema_misses), (1, 1));
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
