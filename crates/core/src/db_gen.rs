//! The **Result Database Generator** (paper §5.2, Figure 5).
//!
//! Produces the result database D′ for a result schema D′: seeds the
//! relations containing query tokens with their matching tuples, then walks
//! the used join edges in decreasing weight order, retrieving the tuples of
//! the destination relation that join to the tuples already collected in the
//! source relation. No actual join query is ever executed — only selections
//! by tuple id and by join-attribute value.
//!
//! Two retrieval strategies bound each step by the cardinality constraint:
//!
//! * [`RetrievalStrategy::NaiveQ`] — one `attr IN (values) … ROWNUM ≤ k`
//!   style selection; fast but may starve later join values on 1-to-n joins;
//! * [`RetrievalStrategy::RoundRobin`] — one open scan per join value,
//!   retrieving one tuple per scan per round, spreading the budget evenly.
//!
//! Every seed install, join and repaired parent relation is one span
//! carrying the relation, the tuples it added and the index probes and
//! tuple reads it cost (read off a [`ThreadMeter`] around the step, whether
//! or not a trace is listening) — the rows of a query's profile, and what
//! Formula (2)'s per-relation prediction is held against.

use crate::cancel::CancelToken;
use crate::constraints::{CardinalityBudget, CardinalityConstraint};
use crate::data_weights::TupleWeights;
use crate::error::CoreError;
use crate::result_schema::ResultSchema;
use crate::Result;
use precis_graph::SchemaGraph;
use precis_obs::profile::{record_step, SPAN_JOIN, SPAN_REPAIRED, SPAN_SEED};
use precis_storage::{
    Database, DatabaseSchema, Datum, FxHashMap, FxHashSet, RelationId, StatsSnapshot, ThreadMeter,
    TupleId, ValueScan,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How the generator retrieves a bounded subset of joining tuples (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalStrategy {
    /// Submit one selection per join step and keep the first tuples up to
    /// the cardinality allowance (the paper's `RowNum` trick).
    NaiveQ,
    /// Open a scan per join value and take one tuple per scan per round
    /// while the allowance holds.
    RoundRobin,
    /// Gather every joining tuple and keep the ones with the highest
    /// data-value weights ([`crate::TupleWeights`], the paper's §7 ongoing
    /// work). Without configured weights all tuples tie and this degrades
    /// to NaïveQ order.
    TopWeight,
}

/// Knobs of the generator beyond the paper's required inputs.
#[derive(Debug, Clone)]
pub struct DbGenOptions {
    /// After generation, pull in missing referenced (parent) tuples so the
    /// materialized database satisfies every foreign key copied into its
    /// schema — required for the paper's "test database" use case. Repairs
    /// may exceed the cardinality constraint; the overshoot is reported.
    pub repair_foreign_keys: bool,
    /// Postpone joins departing from relations whose arriving joins have not
    /// all executed (the paper's in-degree rule). Disabling this is an
    /// ablation: results may retrieve fewer tuples per relation because a
    /// departing join sees only part of the relation's final contents.
    pub postpone_by_in_degree: bool,
    /// Data-value weights used by [`RetrievalStrategy::TopWeight`] and for
    /// ordering seed tuples under a tight budget.
    pub tuple_weights: Option<std::sync::Arc<TupleWeights>>,
    /// Cooperative cancellation hook polled between retrieval steps. When
    /// the token fires (explicit cancel or deadline), generation stops with
    /// [`CoreError::Cancelled`] instead of running to completion — the abort
    /// path a serving layer needs for per-request deadlines.
    pub cancel: Option<CancelToken>,
}

impl Default for DbGenOptions {
    fn default() -> Self {
        DbGenOptions {
            repair_foreign_keys: true,
            postpone_by_in_degree: true,
            tuple_weights: None,
            cancel: None,
        }
    }
}

/// Counters describing one generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenReport {
    /// Tuples seeded from the inverted-index matches.
    pub seed_tuples: usize,
    /// Tuples retrieved by join steps (excluding seeds and repairs).
    pub retrieved_tuples: usize,
    /// Join edges executed with a positive allowance.
    pub joins_executed: usize,
    /// Join edges skipped because their source relation never populated.
    pub joins_skipped: usize,
    /// Times the in-degree postponement rule had to be broken to make
    /// progress (cyclic used-edge graphs).
    pub deadlocks_broken: usize,
    /// Parent tuples added by foreign-key repair.
    pub repaired_tuples: usize,
}

/// The précis: a freshly materialized database D′ and, by position, the
/// original tuple behind each of its tuples.
#[derive(Debug)]
pub struct PrecisDatabase {
    /// The materialized result database (own schema, constraints, contents).
    pub database: Database,
    /// Original relation id → result relation id.
    pub rel_map: HashMap<RelationId, RelationId>,
    /// Original relation id → stored attribute positions (in the original
    /// relation's numbering), ascending; position `i` of a result tuple
    /// holds original attribute `attr_map[rel][i]`.
    pub attr_map: HashMap<RelationId, Vec<usize>>,
    /// Original relation id → visible attribute positions (original
    /// numbering). Stored-but-not-visible attributes are join endpoints and
    /// primary keys the translator must not verbalize.
    pub visible: HashMap<RelationId, Vec<usize>>,
    /// Original relation id → collected original tids, in retrieval order:
    /// result tuple `i` of the relation is the projection of
    /// `collected[rel][i]`.
    pub collected: BTreeMap<RelationId, Vec<TupleId>>,
    /// Seed tuples per origin relation (original tids that matched tokens),
    /// bounded by the cardinality constraint.
    pub seeds: BTreeMap<RelationId, Vec<TupleId>>,
    /// Run counters.
    pub report: GenReport,
}

impl PrecisDatabase {
    /// Total tuples in the result database (`card(D′)`).
    pub fn total_tuples(&self) -> usize {
        self.database.total_tuples()
    }

    /// Where D′ stores attribute `attr` of original relation `rel`, if it
    /// does.
    fn stored_at(&self, rel: RelationId, attr: usize) -> Option<(RelationId, usize)> {
        let pos = self.attr_map.get(&rel)?.binary_search(&attr).ok()?;
        Some((self.rel_map[&rel], pos))
    }

    /// The collected tuples of `dest` whose `dest_attr` (original numbering)
    /// equals `datum`, as original tids in collection order: the semijoin
    /// every reader of an answer needs, answered by one probe of D′'s own
    /// index on that attribute. Postings ascend by result tid and result
    /// tuple `i` is `collected[dest][i]`, so the order is collection order.
    /// Nothing joins a null, or a relation or attribute D′ does not hold.
    pub fn joined(
        &self,
        dest: RelationId,
        dest_attr: usize,
        datum: Datum,
    ) -> Result<impl Iterator<Item = TupleId> + '_> {
        let postings = match self.stored_at(dest, dest_attr) {
            Some((rel, pos)) => self.database.lookup_datum(rel, pos, datum)?,
            None => &[],
        };
        let collected = self.collected.get(&dest).map_or(&[][..], Vec::as_slice);
        Ok(postings.iter().map(move |tid| collected[tid.as_usize()]))
    }
}

/// Working state per collected relation. Origin-relation tag sets are
/// interned into a per-relation pool: every tuple stores a `u32` handle
/// instead of its own `BTreeSet`, so after interning a step's origin set
/// once, each tuple add is a single hash probe with no set clone (most
/// tuples of a relation share one of a handful of distinct origin sets).
#[derive(Debug, Default)]
struct Collected {
    order: Vec<TupleId>,
    /// Tuple id → position in `order` (and `tag_of`).
    pos: FxHashMap<TupleId, u32>,
    /// Interned origin-set id per collected tuple, parallel to `order`, so
    /// sequential passes (join-value extraction) read tags with zero
    /// hashing.
    tag_of: Vec<u32>,
    /// The interned origin sets; `tag_of` values index into this pool.
    sets: Vec<BTreeSet<RelationId>>,
    set_ids: HashMap<BTreeSet<RelationId>, u32>,
}

impl Collected {
    fn contains(&self, tid: TupleId) -> bool {
        self.pos.contains_key(&tid)
    }

    fn intern(&mut self, set: &BTreeSet<RelationId>) -> u32 {
        if let Some(&id) = self.set_ids.get(set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(set.clone());
        self.set_ids.insert(set.clone(), id);
        id
    }

    /// Add a tuple whose origin set was interned once for the whole step
    /// (every tuple of one retrieval step shares the step's origin set), so
    /// the hot path is a single `pos` probe — no set hash, no set clone.
    /// Returns `true` if the tuple is new to this relation.
    fn add_interned(&mut self, tid: TupleId, id: u32) -> bool {
        use std::collections::hash_map::Entry;
        let at = match self.pos.entry(tid) {
            Entry::Vacant(v) => {
                v.insert(self.order.len() as u32);
                self.order.push(tid);
                self.tag_of.push(id);
                return true;
            }
            Entry::Occupied(o) => *o.get() as usize,
        };
        let cur = self.tag_of[at];
        if cur != id && !self.sets[id as usize].is_subset(&self.sets[cur as usize]) {
            let mut merged = self.sets[cur as usize].clone();
            merged.extend(self.sets[id as usize].iter().copied());
            self.tag_of[at] = self.intern(&merged);
        }
        false
    }

    fn add(&mut self, tid: TupleId, origins: &BTreeSet<RelationId>) -> bool {
        let id = self.intern(origins);
        self.add_interned(tid, id)
    }
}

/// Run the Result Database Generator.
///
/// `seeds` maps each origin relation to the tuple ids where the query tokens
/// were found (from the inverted index). Relations absent from the result
/// schema are ignored.
pub fn generate_result_database(
    db: &Database,
    graph: &SchemaGraph,
    schema: &ResultSchema,
    seeds: &HashMap<RelationId, Vec<TupleId>>,
    cardinality: &CardinalityConstraint,
    strategy: RetrievalStrategy,
    options: &DbGenOptions,
) -> Result<PrecisDatabase> {
    let cancel = options.cancel.clone().unwrap_or_default();
    cancel.check()?;
    let _gen_span = precis_obs::span("db_gen.generate");
    let mut budget = CardinalityBudget::new(cardinality.clone());
    let mut collected: BTreeMap<RelationId, Collected> = BTreeMap::new();
    let mut report = GenReport::default();
    let mut kept_seeds: BTreeMap<RelationId, Vec<TupleId>> = BTreeMap::new();

    // Step 1: D′ ← tuples involving query tokens, bounded by c(·).
    let mut seed_rels: Vec<RelationId> = seeds.keys().copied().collect();
    seed_rels.sort_unstable();
    for rel in seed_rels {
        cancel.check()?;
        if !schema.contains(rel) {
            continue;
        }
        let mut tids = seeds[&rel].clone();
        tids.sort_unstable();
        tids.dedup();
        // With data-value weights, the most important matches survive a
        // tight budget.
        if let Some(w) = &options.tuple_weights {
            w.order_desc(rel, &mut tids);
        }
        let allowance = budget.allowance(rel);
        tids.truncate(allowance);
        if tids.is_empty() {
            continue;
        }
        let seed_span = precis_obs::span(SPAN_SEED);
        let meter = ThreadMeter::new();
        let mut dedup_hits = 0u64;
        let entry = collected.entry(rel).or_default();
        let tag_id = entry.intern(&BTreeSet::from([rel]));
        let mut added = 0;
        for tid in &tids {
            // Count the tuple read (σ_Tids retrieval) and validate liveness.
            // Only a stale posting (tuple deleted since indexing) may be
            // skipped; any other storage failure must surface, not silently
            // shrink the answer.
            match db.fetch_from(rel, *tid) {
                Ok(_) => {
                    if entry.add_interned(*tid, tag_id) {
                        added += 1;
                    } else {
                        dedup_hits += 1;
                    }
                }
                Err(precis_storage::StorageError::NoSuchTuple { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        budget.charge(rel, added);
        report.seed_tuples += added;
        kept_seeds.insert(rel, entry.order.clone());
        let events = meter.events();
        record_step(
            &seed_span,
            db.schema().relation(rel).name(),
            added as u64,
            events.index_probes,
            events.tuple_reads,
            dedup_hits,
        );
    }

    // Step 2: walk the used join edges.
    execute_joins(
        db,
        graph,
        schema,
        strategy,
        options,
        &mut budget,
        &mut collected,
        &mut report,
    )?;

    // Step 3: optional foreign-key repair for structural consistency.
    if options.repair_foreign_keys {
        repair_foreign_keys(db, graph, schema, &mut collected, &mut report, &cancel)?;
    }

    materialize(db, graph, schema, collected, kept_seeds, report)
}

/// The join-processing loop of Figure 5: one used edge per iteration,
/// highest weight first, executed in place on the caller's thread.
#[allow(clippy::too_many_arguments)]
fn execute_joins(
    db: &Database,
    graph: &SchemaGraph,
    schema: &ResultSchema,
    strategy: RetrievalStrategy,
    options: &DbGenOptions,
    budget: &mut CardinalityBudget,
    collected: &mut BTreeMap<RelationId, Collected>,
    report: &mut GenReport,
) -> Result<()> {
    let used = schema.used_joins();
    let mut executed = vec![false; used.len()];
    // Remaining arriving joins per relation — the paper's mutable in-degree.
    let mut pending_in: HashMap<RelationId, usize> = HashMap::new();
    for u in used {
        *pending_in.entry(graph.join_edge(u.edge).to).or_insert(0) += 1;
    }

    let default_weights = TupleWeights::default();
    let weights = options.tuple_weights.as_deref().unwrap_or(&default_weights);
    let cancel = options.cancel.clone().unwrap_or_default();

    loop {
        cancel.check()?;
        let pick = |relaxed| {
            pick_edge(
                graph,
                used,
                &executed,
                collected,
                &pending_in,
                options,
                relaxed,
            )
        };
        let idx = match pick(false) {
            Some(i) => i,
            // Nothing strictly eligible: break one deadlock.
            None => match pick(true) {
                Some(i) => {
                    report.deadlocks_broken += 1;
                    i
                }
                None => break, // nothing has a populated source: done
            },
        };
        let u = &used[idx];
        let e = graph.join_edge(u.edge);
        executed[idx] = true;
        if let Some(p) = pending_in.get_mut(&e.to) {
            *p = p.saturating_sub(1);
        }

        let source = collected.get(&e.from).expect("picked populated source");
        let values = join_values(db, graph, source, u);
        if values.is_empty() {
            report.joins_skipped += 1;
            continue;
        }
        let allowance = budget.allowance(e.to);
        let dest = collected.entry(e.to).or_default();

        let span = precis_obs::span(SPAN_JOIN);
        let meter = ThreadMeter::new();
        let outcome = match strategy {
            RetrievalStrategy::NaiveQ => naive_q(
                db, e.to, e.to_attr, &values, allowance, dest, &u.origins, &cancel,
            ),
            RetrievalStrategy::RoundRobin => round_robin(
                db, e.to, e.to_attr, &values, allowance, dest, &u.origins, &cancel,
            ),
            RetrievalStrategy::TopWeight => top_weight(
                db, e.to, e.to_attr, &values, allowance, dest, &u.origins, weights, &cancel,
            ),
        }?;
        let events = meter.events();
        record_step(
            &span,
            db.schema().relation(e.to).name(),
            outcome.added as u64,
            events.index_probes,
            events.tuple_reads,
            outcome.dedup_hits,
        );
        budget.charge(e.to, outcome.added);
        report.retrieved_tuples += outcome.added;
        report.joins_executed += 1;
    }

    // Any edge never executed had an unpopulatable source.
    report.joins_skipped += executed.iter().filter(|&&x| !x).count();
    Ok(())
}

/// Join values of one executable edge: the distinct, non-null values of the
/// source join attribute over the source tuples reached from the origins
/// whose paths use this edge ("which of the tuples collected in a relation
/// are used for subsequently joining depends on the paths stored in P_d").
fn join_values(
    db: &Database,
    graph: &SchemaGraph,
    source: &Collected,
    u: &crate::result_schema::UsedJoin,
) -> Vec<Datum> {
    let e = graph.join_edge(u.edge);
    let mut values: Vec<Datum> = Vec::new();
    let mut seen_values: FxHashSet<Datum> = FxHashSet::default();
    // Tuples carry interned origin-set ids, and a relation only ever has a
    // handful of distinct sets — decide "does this tag set touch the edge's
    // origins" once per set instead of walking a `BTreeSet` per tuple.
    let relevant: Vec<bool> = source
        .sets
        .iter()
        .map(|tags| tags.iter().any(|o| u.origins.contains(o)))
        .collect();
    let table = db.table(e.from);
    for (tid, &tag) in source.order.iter().zip(&source.tag_of) {
        if relevant[tag as usize] {
            // Re-reading a tuple already in D′: no new storage cost. The
            // join value stays in stored (interned) form — probing the
            // destination index never touches string bytes.
            if let Some(t) = table.get(*tid) {
                let v = t.datum(e.from_attr);
                if !v.is_null() && seen_values.insert(v) {
                    values.push(v);
                }
            }
        }
    }
    values
}

/// What one retrieval step did: tuples newly added to the destination (the
/// paper's charged retrievals) and joining tuples that were already in D′
/// (tag-merged at zero storage cost — the profile's "cache hits").
#[derive(Debug, Default, Clone, Copy)]
struct StepOutcome {
    added: usize,
    dedup_hits: u64,
}

/// Choose the next executable join edge: source populated, and (unless
/// `relaxed`) no pending arrivals at the source — the paper's in-degree
/// postponement. Highest weight wins; ties go to the lowest edge index.
fn pick_edge(
    graph: &SchemaGraph,
    used: &[crate::result_schema::UsedJoin],
    executed: &[bool],
    collected: &BTreeMap<RelationId, Collected>,
    pending_in: &HashMap<RelationId, usize>,
    options: &DbGenOptions,
    relaxed: bool,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, u) in used.iter().enumerate() {
        if executed[i] {
            continue;
        }
        let e = graph.join_edge(u.edge);
        if !collected.contains_key(&e.from) {
            continue;
        }
        let postponed = options.postpone_by_in_degree
            && !relaxed
            && pending_in.get(&e.from).copied().unwrap_or(0) > 0;
        if postponed {
            continue;
        }
        match best {
            Some((w, _)) if w >= e.weight => {}
            _ => best = Some((e.weight, i)),
        }
    }
    best.map(|(_, i)| i)
}

/// NaïveQ: first-N tuples in value-list order (paper's `RowNum` selection).
#[allow(clippy::too_many_arguments)]
fn naive_q(
    db: &Database,
    rel: RelationId,
    attr: usize,
    values: &[Datum],
    allowance: usize,
    dest: &mut Collected,
    origins: &BTreeSet<RelationId>,
    cancel: &CancelToken,
) -> Result<StepOutcome> {
    let mut outcome = StepOutcome::default();
    let origin_id = dest.intern(origins);
    'outer: for v in values {
        cancel.check()?;
        // `lookup_datum` and `fetch_from` both borrow `db` shared, so the
        // posting list is iterated in place — no `to_vec` copy per value.
        let tids = db.lookup_datum(rel, attr, *v)?;
        for &tid in tids {
            if outcome.added >= allowance {
                break 'outer;
            }
            if dest.add_interned(tid, origin_id) {
                db.fetch_from(rel, tid)?; // the TupleTime event
                outcome.added += 1;
            } else {
                outcome.dedup_hits += 1; // merge tags, no charge
            }
        }
    }
    Ok(outcome)
}

/// Round-Robin: one scan per join value, one tuple per scan per round.
#[allow(clippy::too_many_arguments)]
fn round_robin(
    db: &Database,
    rel: RelationId,
    attr: usize,
    values: &[Datum],
    allowance: usize,
    dest: &mut Collected,
    origins: &BTreeSet<RelationId>,
    cancel: &CancelToken,
) -> Result<StepOutcome> {
    let mut scans: Vec<ValueScan> = Vec::with_capacity(values.len());
    for v in values {
        scans.push(ValueScan::open_datum(db, rel, attr, *v)?);
    }
    let mut outcome = StepOutcome::default();
    let origin_id = dest.intern(origins);
    while outcome.added < allowance && scans.iter().any(ValueScan::is_open) {
        cancel.check()?;
        for scan in &mut scans {
            if outcome.added >= allowance {
                break;
            }
            match scan.next_tid(db)? {
                Some(tid) => {
                    if dest.add_interned(tid, origin_id) {
                        outcome.added += 1;
                    } else {
                        outcome.dedup_hits += 1;
                    }
                }
                None => continue,
            }
        }
    }
    Ok(outcome)
}

/// TopWeight: gather every joining tuple, keep the highest-weighted ones
/// (data-value weights, §7 ongoing work).
#[allow(clippy::too_many_arguments)]
fn top_weight(
    db: &Database,
    rel: RelationId,
    attr: usize,
    values: &[Datum],
    allowance: usize,
    dest: &mut Collected,
    origins: &BTreeSet<RelationId>,
    weights: &TupleWeights,
    cancel: &CancelToken,
) -> Result<StepOutcome> {
    let mut candidates: Vec<TupleId> = Vec::new();
    let mut seen: BTreeSet<TupleId> = BTreeSet::new();
    for v in values {
        cancel.check()?;
        for tid in db.lookup_datum(rel, attr, *v)? {
            if seen.insert(*tid) {
                candidates.push(*tid);
            }
        }
    }
    weights.order_desc(rel, &mut candidates);
    let mut outcome = StepOutcome::default();
    let origin_id = dest.intern(origins);
    for tid in candidates {
        if outcome.added >= allowance {
            break;
        }
        if dest.add_interned(tid, origin_id) {
            db.fetch_from(rel, tid)?; // the TupleTime event
            outcome.added += 1;
        } else {
            outcome.dedup_hits += 1;
        }
    }
    Ok(outcome)
}

/// Pull in missing parents for every foreign key that will be copied into
/// the result schema, until a fixpoint. Repair runs on the query thread, so
/// a single [`ThreadMeter`] with before/after snapshots around each storage
/// call attributes probes and reads to the parent relation exactly.
fn repair_foreign_keys(
    db: &Database,
    graph: &SchemaGraph,
    schema: &ResultSchema,
    collected: &mut BTreeMap<RelationId, Collected>,
    report: &mut GenReport,
    cancel: &CancelToken,
) -> Result<()> {
    let span = precis_obs::span("db_gen.repair");
    let meter = ThreadMeter::new();
    // Per parent relation: tuples pulled in, index probes, tuple reads.
    let mut steps: BTreeMap<RelationId, [u64; 3]> = BTreeMap::new();
    let mut charge = |rel: RelationId, before: StatsSnapshot, tuples: u64| {
        let events = meter.events().since(before);
        let step = steps.entry(rel).or_default();
        step[0] += tuples;
        step[1] += events.index_probes;
        step[2] += events.tuple_reads;
    };
    let applicable = applicable_foreign_keys(db.schema(), graph, schema);
    let result = loop {
        if let Err(e) = cancel.check() {
            break Err(e);
        }
        let mut additions: Vec<(RelationId, TupleId)> = Vec::new();
        let mut failed = None;
        // Collected parent values per referenced endpoint, hashed once per
        // round — the present-check is an unmetered in-memory scan either
        // way, but a set probe per child beats rescanning the parent's
        // collected list per child. `collected` is stable during the scan
        // (additions apply after it), so one snapshot per round is exact.
        let mut present_vals: HashMap<(RelationId, usize), FxHashSet<Datum>> = HashMap::new();
        for &(_, _, parent, parent_attr) in &applicable {
            present_vals
                .entry((parent, parent_attr))
                .or_insert_with(|| {
                    collected
                        .get(&parent)
                        .map(|c| {
                            let table = db.table(parent);
                            c.order
                                .iter()
                                .filter_map(|pt| table.get(*pt))
                                .map(|p| p.datum(parent_attr))
                                .filter(|d| !d.is_null())
                                .collect()
                        })
                        .unwrap_or_default()
                });
        }
        'scan: for &(child, child_attr, parent, parent_attr) in &applicable {
            let Some(children) = collected.get(&child) else {
                continue;
            };
            for tid in &children.order {
                let Some(t) = db.table(child).get(*tid) else {
                    continue;
                };
                let v = t.datum(child_attr);
                if v.is_null() {
                    continue;
                }
                if present_vals[&(parent, parent_attr)].contains(&v) {
                    continue;
                }
                let before = meter.events();
                let looked_up = db.lookup_datum(parent, parent_attr, v);
                charge(parent, before, 0);
                match looked_up {
                    Ok(tids) => {
                        for ptid in tids.iter().take(1) {
                            additions.push((parent, *ptid));
                        }
                    }
                    Err(e) => {
                        failed = Some(e.into());
                        break 'scan;
                    }
                }
            }
        }
        if let Some(e) = failed {
            break Err(e);
        }
        if additions.is_empty() {
            break Ok(());
        }
        let tags = BTreeSet::new();
        let mut failed = None;
        for (rel, tid) in additions {
            let entry = collected.entry(rel).or_default();
            if !entry.contains(tid) {
                let before = meter.events();
                let fetched = db.fetch_from(rel, tid);
                charge(rel, before, u64::from(fetched.is_ok()));
                if let Err(e) = fetched {
                    failed = Some(e.into());
                    break;
                }
                entry.add(tid, &tags);
                report.repaired_tuples += 1;
            }
        }
        if let Some(e) = failed {
            break Err(e);
        }
    };
    span.field("repaired", steps.values().map(|step| step[0]).sum());
    for (rel, [tuples, index_probes, tuple_reads]) in steps {
        // Repair interleaves relations, so wall time stays on the spans of
        // the steps that produced it; these carry counts only.
        let repaired = precis_obs::span(SPAN_REPAIRED);
        let name = db.schema().relation(rel).name();
        record_step(&repaired, name, tuples, index_probes, tuple_reads, 0);
    }
    result
}

/// Original-schema foreign keys that survive into the result schema: both
/// relations present and both attributes stored.
/// Returns (child rel, child attr, parent rel, parent attr).
fn applicable_foreign_keys(
    orig: &DatabaseSchema,
    graph: &SchemaGraph,
    schema: &ResultSchema,
) -> Vec<(RelationId, usize, RelationId, usize)> {
    orig.foreign_keys()
        .iter()
        .filter_map(|fk| {
            let child = orig.relation_id(&fk.relation)?;
            let parent = orig.relation_id(&fk.ref_relation)?;
            if !schema.contains(child) || !schema.contains(parent) {
                return None;
            }
            let child_attr = orig.relation(child).attr_position(&fk.attribute)?;
            let parent_attr = orig.relation(parent).attr_position(&fk.ref_attribute)?;
            let child_stored = schema.stored_attrs(graph, child);
            let parent_stored = schema.stored_attrs(graph, parent);
            (child_stored.contains(&child_attr) && parent_stored.contains(&parent_attr))
                .then_some((child, child_attr, parent, parent_attr))
        })
        .collect()
}

/// Build the physical result database from the collected tids.
fn materialize(
    db: &Database,
    graph: &SchemaGraph,
    schema: &ResultSchema,
    collected: BTreeMap<RelationId, Collected>,
    seeds: BTreeMap<RelationId, Vec<TupleId>>,
    report: GenReport,
) -> Result<PrecisDatabase> {
    let orig = db.schema();
    let mut out_schema = DatabaseSchema::new(format!("{}_precis", orig.name()));
    let mut rel_map: HashMap<RelationId, RelationId> = HashMap::new();
    let mut attr_map: HashMap<RelationId, Vec<usize>> = HashMap::new();
    let mut visible: HashMap<RelationId, Vec<usize>> = HashMap::new();

    // Every relation of the result schema appears in D′ — possibly empty
    // ("any relations that may not be eventually populated due to the
    // cardinality constraint would be the most weakly connected").
    for (rel, _) in schema.relations() {
        let stored = schema.stored_attrs(graph, rel);
        if stored.is_empty() {
            continue;
        }
        let projected = orig.relation(rel).project(&stored, None);
        let new_id = out_schema
            .add_relation(projected)
            .map_err(CoreError::from)?;
        rel_map.insert(rel, new_id);
        attr_map.insert(rel, stored);
        visible.insert(rel, schema.visible_attrs(rel));
    }

    // Copy the original foreign keys that survive the projection.
    for fk in orig.foreign_keys() {
        let (Some(child), Some(parent)) = (
            orig.relation_id(&fk.relation),
            orig.relation_id(&fk.ref_relation),
        ) else {
            continue;
        };
        let (Some(_), Some(_)) = (rel_map.get(&child), rel_map.get(&parent)) else {
            continue;
        };
        let child_attr = orig.relation(child).attr_position(&fk.attribute);
        let parent_attr = orig.relation(parent).attr_position(&fk.ref_attribute);
        let (Some(ca), Some(pa)) = (child_attr, parent_attr) else {
            continue;
        };
        if attr_map[&child].contains(&ca) && attr_map[&parent].contains(&pa) {
            out_schema
                .add_foreign_key(fk.clone())
                .map_err(CoreError::from)?;
        }
    }

    let mut precis = PrecisDatabase {
        database: Database::new(out_schema).map_err(CoreError::from)?,
        rel_map,
        attr_map,
        visible,
        collected: BTreeMap::new(),
        seeds,
        report,
    };
    // `PrecisDatabase::joined` probes the arriving end of a used join. Keys
    // and copied foreign keys are indexed already; an expert join is not.
    for u in schema.used_joins() {
        let e = graph.join_edge(u.edge);
        if let Some((rel, pos)) = precis.stored_at(e.to, e.to_attr) {
            if !precis.database.has_index(rel, pos) {
                precis.database.create_index(rel, pos);
            }
        }
    }

    let mut buf: Vec<Datum> = Vec::new();
    for (rel, c) in collected {
        let Some(&new_rel) = precis.rel_map.get(&rel) else {
            continue;
        };
        let stored = &precis.attr_map[&rel];
        let table = db.table(rel);
        precis.database.reserve(new_rel, c.order.len());
        // Interned symbols copy as 16-byte datums — materialization never
        // re-hashes or clones string bytes, and `buf` is the one projection
        // allocation for the whole loop. A tid with no tuple behind it gets
        // no result tuple and leaves `collected`, so positions stay exact.
        let mut kept = Vec::with_capacity(c.order.len());
        for tid in c.order {
            let Some(t) = table.get(tid) else {
                continue;
            };
            t.project_datums_into(stored, &mut buf);
            let new_tid = precis
                .database
                .insert_datums_from(new_rel, &buf)
                .map_err(CoreError::from)?;
            debug_assert_eq!(new_tid.as_usize(), kept.len());
            kept.push(tid);
        }
        precis.collected.insert(rel, kept);
    }
    Ok(precis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::DegreeConstraint;
    use crate::schema_gen::generate_result_schema;
    use precis_storage::{DataType, RelationSchema, Value};

    /// DIRECTOR ←(did) MOVIE ←(mid) GENRE, with one director of 5 movies,
    /// each movie having 2 genres.
    fn tiny_movies() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("m");
        s.add_relation(
            RelationSchema::builder("DIRECTOR")
                .attr_not_null("did", DataType::Int)
                .attr("dname", DataType::Text)
                .primary_key("did")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("MOVIE")
                .attr_not_null("mid", DataType::Int)
                .attr("title", DataType::Text)
                .attr("did", DataType::Int)
                .primary_key("mid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("GENRE")
                .attr_not_null("gid", DataType::Int)
                .attr("mid", DataType::Int)
                .attr("genre", DataType::Text)
                .primary_key("gid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(precis_storage::ForeignKey::new(
            "MOVIE", "did", "DIRECTOR", "did",
        ))
        .unwrap();
        s.add_foreign_key(precis_storage::ForeignKey::new(
            "GENRE", "mid", "MOVIE", "mid",
        ))
        .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("Woody Allen")])
            .unwrap();
        db.insert("DIRECTOR", vec![Value::from(2), Value::from("Other")])
            .unwrap();
        let mut gid = 0;
        for m in 0..5 {
            db.insert(
                "MOVIE",
                vec![Value::from(m), Value::from(format!("M{m}")), Value::from(1)],
            )
            .unwrap();
            for g in ["Comedy", "Drama"] {
                db.insert(
                    "GENRE",
                    vec![Value::from(gid), Value::from(m), Value::from(g)],
                )
                .unwrap();
                gid += 1;
            }
        }
        // One movie by the other director.
        db.insert(
            "MOVIE",
            vec![Value::from(99), Value::from("Other movie"), Value::from(2)],
        )
        .unwrap();
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.9, 0.95, 0.92).unwrap();
        (db, g)
    }

    fn setup(
        cardinality: CardinalityConstraint,
        strategy: RetrievalStrategy,
        options: DbGenOptions,
    ) -> PrecisDatabase {
        let (db, g) = tiny_movies();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::MinWeight(0.7));
        let seeds = HashMap::from([(director, vec![TupleId(0)])]);
        generate_result_database(&db, &g, &schema, &seeds, &cardinality, strategy, &options)
            .unwrap()
    }

    #[test]
    fn generates_connected_subdatabase() {
        let p = setup(
            CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            DbGenOptions::default(),
        );
        let (db, _) = tiny_movies();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let genre = db.schema().relation_id("GENRE").unwrap();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        assert_eq!(p.collected[&director].len(), 1, "seed only");
        assert_eq!(p.collected[&movie].len(), 5, "Allen's movies only");
        assert_eq!(p.collected[&genre].len(), 10);
        assert_eq!(p.total_tuples(), 16);
        assert_eq!(p.report.seed_tuples, 1);
        assert_eq!(p.report.retrieved_tuples, 15);
        assert!(p.report.joins_executed >= 2);
        // Materialized database satisfies its copied constraints.
        assert!(p.database.validate_foreign_keys().is_empty());
    }

    #[test]
    fn cardinality_per_relation_caps_each_relation() {
        let p = setup(
            CardinalityConstraint::MaxTuplesPerRelation(3),
            RetrievalStrategy::NaiveQ,
            DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        );
        for tids in p.collected.values() {
            assert!(tids.len() <= 3, "cap respected: {}", tids.len());
        }
    }

    #[test]
    fn cardinality_total_caps_whole_result() {
        let p = setup(
            CardinalityConstraint::MaxTotalTuples(4),
            RetrievalStrategy::NaiveQ,
            DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        );
        assert!(p.total_tuples() <= 4, "{}", p.total_tuples());
    }

    #[test]
    fn round_robin_balances_genres_across_movies() {
        let p = setup(
            CardinalityConstraint::MaxTuplesPerRelation(5),
            RetrievalStrategy::RoundRobin,
            DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        );
        let (db, _) = tiny_movies();
        let genre = db.schema().relation_id("GENRE").unwrap();
        // 5 genre tuples across 5 movies: round robin gives one per movie.
        let mids: BTreeSet<i64> = p.collected[&genre]
            .iter()
            .map(|tid| db.table(genre).get(*tid).unwrap().get(1).as_int().unwrap())
            .collect();
        assert_eq!(mids.len(), 5, "one genre from each movie");
    }

    #[test]
    fn naive_q_skews_genres_toward_first_movies() {
        let p = setup(
            CardinalityConstraint::MaxTuplesPerRelation(5),
            RetrievalStrategy::NaiveQ,
            DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        );
        let (db, _) = tiny_movies();
        let genre = db.schema().relation_id("GENRE").unwrap();
        let mids: BTreeSet<i64> = p.collected[&genre]
            .iter()
            .map(|tid| db.table(genre).get(*tid).unwrap().get(1).as_int().unwrap())
            .collect();
        assert!(mids.len() <= 3, "first movies exhaust the budget: {mids:?}");
    }

    #[test]
    fn repair_restores_foreign_keys_under_tight_budget() {
        let (db, g) = tiny_movies();
        let genre = db.schema().relation_id("GENRE").unwrap();
        // Seed from GENRE; budget so tight that MOVIE/DIRECTOR parents would
        // be missing without repair.
        let schema = generate_result_schema(&g, &[genre], &DegreeConstraint::MinWeight(0.8));
        let seeds = HashMap::from([(genre, vec![TupleId(0), TupleId(5)])]);
        let no_repair = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::MaxTuplesPerRelation(1),
            RetrievalStrategy::NaiveQ,
            &DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        )
        .unwrap();
        // Seeds themselves are capped at 1 → only genre tid 0.
        assert_eq!(no_repair.collected[&genre].len(), 1);

        let repaired = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::MaxTuplesPerRelation(1),
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        assert!(repaired.database.validate_foreign_keys().is_empty());
    }

    #[test]
    fn result_tuple_i_is_the_projection_of_collected_i() {
        let p = setup(
            CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            DbGenOptions::default(),
        );
        let (db, _) = tiny_movies();
        let mut positions = 0;
        for (rel, tids) in &p.collected {
            let result = p.database.table(p.rel_map[rel]);
            assert_eq!(result.slot_count(), tids.len());
            for (i, orig_tid) in tids.iter().enumerate() {
                let orig = db.table(*rel).get(*orig_tid).unwrap();
                let new = result.get(TupleId(i as u64)).unwrap();
                assert_eq!(new.values(), orig.project(&p.attr_map[rel]));
            }
            positions += tids.len();
        }
        assert_eq!(positions, p.total_tuples());
    }

    #[test]
    fn joined_answers_the_semijoin_in_collection_order() {
        let p = setup(
            CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            DbGenOptions::default(),
        );
        let (db, _) = tiny_movies();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let genre = db.schema().relation_id("GENRE").unwrap();
        let joined = |rel, attr, d| p.joined(rel, attr, d).unwrap().collect::<Vec<_>>();
        // Through a foreign-key index (GENRE.mid) and a key's (MOVIE.mid).
        assert_eq!(joined(genre, 1, Datum::Int(3)), [TupleId(6), TupleId(7)]);
        assert_eq!(joined(movie, 0, Datum::Int(3)), [TupleId(3)]);
        // Every collected movie is Allen's, as a scan of them would say.
        assert_eq!(joined(movie, 2, Datum::Int(1)), p.collected[&movie]);
        // The other director's movie was never collected; nulls join nothing.
        assert!(joined(movie, 0, Datum::Int(99)).is_empty());
        assert!(joined(movie, 2, Datum::Null).is_empty());
        // MOVIE.title is stored but no join arrives there: D′ refuses.
        assert!(matches!(
            p.joined(movie, 1, Datum::Null).map(|_| ()),
            Err(CoreError::Storage(
                precis_storage::StorageError::NoIndex { .. }
            ))
        ));
    }

    #[test]
    fn hidden_attributes_are_join_keys_and_pks() {
        let p = setup(
            CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            DbGenOptions::default(),
        );
        let (db, _) = tiny_movies();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let stored = &p.attr_map[&movie];
        let visible = &p.visible[&movie];
        // title visible; join keys and pk stored; visible ⊆ stored.
        assert!(visible.contains(&1));
        assert!(stored.contains(&0) && stored.contains(&2));
        assert!(visible.iter().all(|a| stored.contains(a)));
    }

    #[test]
    fn empty_seeds_give_empty_but_valid_result() {
        let (db, g) = tiny_movies();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::MinWeight(0.7));
        let seeds = HashMap::new();
        let p = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        assert_eq!(p.total_tuples(), 0);
        assert!(p.report.joins_skipped > 0);
        // Result schema relations still exist, empty.
        assert!(!p.rel_map.is_empty());
    }

    #[test]
    fn top_weight_keeps_the_heaviest_tuples() {
        use crate::data_weights::TupleWeights;
        let (db, g) = tiny_movies();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        // Make M3 and M4 (tids 3, 4) the most important movies.
        let mut w = TupleWeights::new(0.1).unwrap();
        w.set(movie, TupleId(3), 0.9).unwrap();
        w.set(movie, TupleId(4), 0.8).unwrap();
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::MinWeight(0.7));
        let seeds = HashMap::from([(director, vec![TupleId(0)])]);
        let p = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::MaxTuplesPerRelation(2),
            RetrievalStrategy::TopWeight,
            &DbGenOptions {
                repair_foreign_keys: false,
                tuple_weights: Some(std::sync::Arc::new(w)),
                ..DbGenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(p.collected[&movie], vec![TupleId(3), TupleId(4)]);

        // Without weights, TopWeight degrades to index order.
        let p = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::MaxTuplesPerRelation(2),
            RetrievalStrategy::TopWeight,
            &DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(p.collected[&movie], vec![TupleId(0), TupleId(1)]);
    }

    #[test]
    fn weighted_seeds_survive_tight_budgets() {
        use crate::data_weights::TupleWeights;
        let (db, g) = tiny_movies();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let mut w = TupleWeights::new(0.2).unwrap();
        w.set(director, TupleId(1), 0.95).unwrap();
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::MinWeight(0.7));
        let seeds = HashMap::from([(director, vec![TupleId(0), TupleId(1)])]);
        let p = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::MaxTuplesPerRelation(1),
            RetrievalStrategy::NaiveQ,
            &DbGenOptions {
                repair_foreign_keys: false,
                tuple_weights: Some(std::sync::Arc::new(w)),
                ..DbGenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            p.collected[&director],
            vec![TupleId(1)],
            "the heavier seed wins the single slot"
        );
    }

    /// CENTER with four sibling children (B, C, D, E) at distinct weights.
    fn star_db() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("star");
        s.add_relation(
            RelationSchema::builder("CENTER")
                .attr_not_null("id", DataType::Int)
                .attr("name", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        for child in ["B", "C", "D", "E"] {
            s.add_relation(
                RelationSchema::builder(child)
                    .attr_not_null("id", DataType::Int)
                    .attr("cid", DataType::Int)
                    .attr("note", DataType::Text)
                    .primary_key("id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
            s.add_foreign_key(precis_storage::ForeignKey::new(
                child, "cid", "CENTER", "id",
            ))
            .unwrap();
        }
        let mut db = Database::new(s).unwrap();
        for cid in 1..=3 {
            db.insert(
                "CENTER",
                vec![Value::from(cid), Value::from(format!("hub {cid}"))],
            )
            .unwrap();
        }
        let mut id = 0;
        for child in ["B", "C", "D", "E"] {
            for cid in 1..=3 {
                for k in 0..4 {
                    id += 1;
                    db.insert(
                        child,
                        vec![
                            Value::from(id),
                            Value::from(cid),
                            Value::from(format!("{child}-{cid}-{k}")),
                        ],
                    )
                    .unwrap();
                }
            }
        }
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.9, 0.95, 0.92).unwrap();
        (db, g)
    }

    #[test]
    fn a_request_never_leaves_its_thread() {
        // Threads are bounded by construction: parallelism lives across
        // requests (server workers), so every span of one answer — cold
        // token lookups and sibling joins included — records on the
        // caller's thread.
        use crate::{AnswerSpec, PrecisEngine, PrecisQuery};
        let (db, g) = star_db();
        let engine = PrecisEngine::new(db, g).unwrap();
        let spec = AnswerSpec::new(
            DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::MaxTuplesPerRelation(3),
        );
        let mut trace = precis_obs::Trace::new(256);
        {
            let _entered = trace.enter();
            let _caller = precis_obs::span("test.caller");
            engine
                .answer(&PrecisQuery::new(["hub", "b"]), &spec)
                .unwrap();
        }
        let (spans, _) = trace.finish();
        let caller = spans
            .iter()
            .find(|s| s.name == "test.caller")
            .expect("caller span captured")
            .thread;
        let joins = spans.iter().filter(|s| s.name == "db_gen.join").count();
        assert!(joins >= 2, "star fans out to sibling joins: {joins}");
        for s in &spans {
            assert_eq!(s.thread, caller, "{} left the caller's thread", s.name);
        }
    }

    #[test]
    fn traces_on_two_threads_each_hold_only_their_own_answer() {
        // A trace is reachable only from the thread that entered it, so two
        // threads recording at once need no gate: neither sees the other's
        // spans, and each tree is whole.
        use crate::{AnswerSpec, PrecisEngine, PrecisQuery};
        let (db, g) = star_db();
        let engine = PrecisEngine::new(db, g).unwrap();
        let spec = AnswerSpec::new(
            DegreeConstraint::MinWeight(0.5),
            CardinalityConstraint::MaxTuplesPerRelation(3),
        );
        let start = std::sync::Barrier::new(2);
        let answer_traced = |tokens: [&str; 2]| {
            let mut trace = precis_obs::Trace::new(4096);
            start.wait();
            for _ in 0..50 {
                let _entered = trace.enter();
                engine.answer(&PrecisQuery::new(tokens), &spec).unwrap();
            }
            (trace.id(), trace.finish())
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| answer_traced(["hub", "b"]));
            let b = s.spawn(|| answer_traced(["hub", "c"]));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (trace, (spans, dropped)) in [a, b] {
            assert_eq!(dropped, 0);
            let answers = spans.iter().filter(|s| s.name == "engine.answer");
            assert_eq!(answers.count(), 50);
            for s in &spans {
                assert_eq!(s.trace, trace, "{} belongs to the other trace", s.name);
                if s.parent != 0 {
                    let p = spans.iter().find(|p| p.id == s.parent);
                    let p = p.unwrap_or_else(|| panic!("{} lost its parent", s.name));
                    assert!(p.start_ns <= s.start_ns && p.end_ns >= s.end_ns);
                }
            }
        }
    }

    #[test]
    fn total_cap_is_shared_across_sibling_joins() {
        // MaxTotalTuples couples the star's sibling relations through one
        // budget: each join's allowance is what the earlier ones left.
        let (db, g) = star_db();
        let center = db.schema().relation_id("CENTER").unwrap();
        let schema = generate_result_schema(&g, &[center], &DegreeConstraint::MinWeight(0.5));
        let seeds = HashMap::from([(center, vec![TupleId(0)])]);
        let p = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::MaxTotalTuples(6),
            RetrievalStrategy::NaiveQ,
            &DbGenOptions {
                repair_foreign_keys: false,
                ..DbGenOptions::default()
            },
        )
        .unwrap();
        assert!(p.total_tuples() <= 6, "{}", p.total_tuples());
        assert_eq!(p.report.seed_tuples, 1);
    }

    #[test]
    fn cancelled_tokens_abort_generation_cleanly() {
        use crate::cancel::CancelToken;
        let (db, g) = tiny_movies();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::MinWeight(0.7));
        let seeds = HashMap::from([(director, vec![TupleId(0)])]);
        let run = |cancel: CancelToken| {
            generate_result_database(
                &db,
                &g,
                &schema,
                &seeds,
                &CardinalityConstraint::Unbounded,
                RetrievalStrategy::NaiveQ,
                &DbGenOptions {
                    cancel: Some(cancel),
                    ..DbGenOptions::default()
                },
            )
        };
        // An explicitly cancelled token aborts before any retrieval.
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(run(token), Err(CoreError::Cancelled)));
        // An already-expired deadline aborts the same way.
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert!(matches!(run(expired), Err(CoreError::Cancelled)));
        // A live token leaves generation untouched.
        let p = run(CancelToken::new()).unwrap();
        assert_eq!(p.total_tuples(), 16);
    }

    #[test]
    fn seeds_for_relations_outside_schema_are_ignored() {
        let (db, g) = tiny_movies();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let genre = db.schema().relation_id("GENRE").unwrap();
        // Schema restricted to DIRECTOR only (degree excludes everything).
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::TopProjections(1));
        let seeds = HashMap::from([
            (director, vec![TupleId(0)]),
            (genre, vec![TupleId(0)]), // not part of this result schema
        ]);
        let p = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        assert!(!p.collected.contains_key(&genre));
        assert_eq!(p.collected[&director], vec![TupleId(0)]);
    }
}
