//! The differential oracle: one case, five execution paths, one answer.
//!
//! For a given [`CaseSpec`] the oracle asserts:
//!
//! * **Strategy leg** — under an unbounded cardinality constraint, NaïveQ
//!   and Round-Robin must retrieve identical tuple sets from identical
//!   seeds (the paper's claim that strategies differ in cost, not in the
//!   logical answer). Tuple *order* is legitimately strategy-dependent, so
//!   this leg compares canonicalized (sorted) result rows, plus seeds,
//!   unmatched tokens, and foreign-key validity of the result database.
//! * **Cache leg** — a repeated answer (schema memo hit) must be
//!   byte-identical to the first, and an answer after an insert+delete
//!   pair (net no-op on the data, which the memo must survive and the next
//!   plan must see through) must be byte-identical to the answer before
//!   the mutation.
//! * **Server leg** — a loopback `precis-server` round-trip must return
//!   exactly the bytes of [`precis_server::render_answer`] applied to the
//!   in-process answer.
//! * **Durability leg** — a WAL-backed twin of the dataset (an empty
//!   snapshot, then every insert streamed through `precis-durability`'s
//!   log, plus per-case update-to-same-value records and a churn of filler rows that leaves tombstones in the middle
//!   and at the end of a table, with a checkpoint taken mid-stream on every
//!   other case) is crash-recovered from disk — no orderly close, just
//!   [`DurableStore::recover`] over the live files — and must yield a
//!   byte-identical `dump_to_string` (a dump writes tombstoned slots as
//!   holes, so that is the live database tid for tid) AND a byte-identical
//!   rendered answer versus the live engine. No record may be reported
//!   truncated: everything was flushed before the simulated crash.
//! * **Mutation leg** — the server's write path, interleaved with the reads
//!   above: each case applies one batch (inserts, an update, a delete of an
//!   earlier insert) through [`precis_server::mutate::apply_ops`] to the
//!   engine the previous case published, logging to a data directory of its
//!   own that is checkpointed after every other case. The engine the batch
//!   was applied *beside* must answer the case byte-identically to before
//!   the batch — it shares every chunk and shard the batch did not copy —
//!   and what that directory recovers to (a snapshot with holes plus the
//!   log behind it) must be the new engine's database tid for tid and
//!   answer byte-identically to it.

use crate::gen::{CaseSpec, DatasetSpec};
use precis_core::{
    AnswerSpec, CardinalityConstraint, DbGenOptions, PrecisAnswer, PrecisEngine, PrecisQuery,
    RetrievalStrategy,
};
use precis_datagen::{
    chain_db_fanout, movies_graph, movies_vocabulary, woody_allen_instance, MoviesConfig,
    MoviesGenerator,
};
use precis_durability::{DurableStore, FsyncPolicy, SharedWal};
use precis_nlg::Vocabulary;
use precis_server::json::Json;
use precis_server::mutate::apply_ops;
use precis_server::{render_answer, MutateOp, Server, ServerConfig, ServerHandle};
use precis_storage::io as storage_io;
use precis_storage::{Database, TupleId, Value};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Which differential leg a mismatch came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    Strategy,
    Cache,
    Server,
    Durability,
    Mutation,
}

impl std::fmt::Display for Leg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Leg::Strategy => "strategy",
            Leg::Cache => "cache",
            Leg::Server => "server",
            Leg::Durability => "durability",
            Leg::Mutation => "mutation",
        })
    }
}

/// One structured diff entry.
#[derive(Debug, Clone)]
pub struct Mismatch {
    pub leg: Leg,
    pub detail: String,
}

/// Everything a dataset needs to serve all five legs: a shared read-only
/// engine fronted by a loopback server, a private mutable engine for the
/// cache-invalidation leg, and the engine the mutation leg last published.
pub struct DatasetCtx {
    engine: Arc<PrecisEngine>,
    mut_engine: PrecisEngine,
    /// WAL-backed twin for the durability leg: every insert (and each
    /// case's update records) streams through a real on-disk log.
    durable_engine: PrecisEngine,
    durable_wal: SharedWal,
    durable_store: DurableStore,
    /// The filler row the durability leg's last churn left live.
    durable_filler: Option<(&'static str, TupleId)>,
    graph: precis_graph::SchemaGraph,
    vocab: Option<Vocabulary>,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    /// Next primary-key value for cache-invalidation filler rows.
    filler_next: i64,
    /// What the mutation leg's last batch published; each case's batch is
    /// applied beside it.
    published: PrecisEngine,
    /// A filler row the mutation leg inserted and has not deleted yet.
    deletable: Option<(&'static str, u64)>,
    /// The data directory and log the mutation leg's batches stream into.
    mutation_store: DurableStore,
    mutation_wal: SharedWal,
    /// Cases run so far: the durable legs checkpoint on the odd ones, so a
    /// recovery is by turns a snapshot plus a tail and a longer tail.
    cases_run: u64,
}

/// Materialize one dataset spec: database, schema graph, and designer
/// vocabulary when the schema has one. Fully deterministic per spec.
pub fn build_dataset(
    spec: &DatasetSpec,
) -> (Database, precis_graph::SchemaGraph, Option<Vocabulary>) {
    match spec {
        DatasetSpec::Demo => {
            let db = woody_allen_instance();
            let vocab = movies_vocabulary(db.schema());
            (db, movies_graph(), Some(vocab))
        }
        DatasetSpec::Movies { movies, seed } => {
            let db = MoviesGenerator::new(MoviesConfig {
                movies: *movies,
                directors: (movies / 8).max(1),
                actors: (movies / 2).max(1),
                theatres: (movies / 50).max(1),
                plays: movies * 2,
                seed: *seed,
                ..MoviesConfig::default()
            })
            .generate();
            let vocab = movies_vocabulary(db.schema());
            (db, movies_graph(), Some(vocab))
        }
        DatasetSpec::Chain {
            relations,
            rows,
            fanout,
        } => {
            let (db, graph) = chain_db_fanout(*relations, *rows, *fanout, 0);
            (db, graph, None)
        }
    }
}

impl DatasetCtx {
    /// Build the database, graph, vocabulary, engines and loopback server
    /// for one dataset spec. Fully deterministic per spec.
    pub fn build(spec: &DatasetSpec) -> Result<DatasetCtx, String> {
        let (db, graph, vocab) = build_dataset(spec);

        let (durable_db, durable_wal, durable_store) = replay_through_wal(&db)?;
        let durable_engine =
            PrecisEngine::new(durable_db, graph.clone()).map_err(|e| e.to_string())?;
        let engine =
            Arc::new(PrecisEngine::new(db.clone(), graph.clone()).map_err(|e| e.to_string())?);
        // What the mutation leg publishes starts as a durable server does:
        // an initial snapshot, an empty log, the sink attached.
        let mutation_store = scratch_store()?;
        let opened = mutation_store
            .open_or_bootstrap(db.clone(), FSYNC_POLICY)
            .map_err(|e| format!("mutation leg bootstrap: {e}"))?;
        let mutation_wal = opened.wal;
        let published = PrecisEngine::new(opened.db, graph.clone()).map_err(|e| e.to_string())?;
        let mut_engine = PrecisEngine::new(db, graph.clone()).map_err(|e| e.to_string())?;
        let server = Server::start(
            Arc::clone(&engine),
            vocab.clone(),
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                queue_capacity: 16,
                // No server-side deadline: the direct leg runs without a
                // cancel token, so the served leg must too.
                default_deadline: None,
                io_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot start loopback server: {e}"))?;
        let addr = server.local_addr();
        Ok(DatasetCtx {
            engine,
            mut_engine,
            durable_engine,
            durable_wal,
            durable_store,
            durable_filler: None,
            graph,
            vocab,
            server: Some(server),
            addr,
            filler_next: 1_000_000,
            published,
            deletable: None,
            mutation_store,
            mutation_wal,
            cases_run: 0,
        })
    }

    /// Shut the loopback server down and drop the durable legs' scratch
    /// directories (idempotent).
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.trigger_shutdown();
            server.join();
        }
        for store in [&self.durable_store, &self.mutation_store] {
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    /// Whether this case is one the durable legs take a checkpoint on.
    fn checkpoint_due(&self) -> bool {
        self.cases_run % 2 == 1
    }

    /// A valid filler row for the cache leg's mutation step: inserted then
    /// deleted, leaving the logical database unchanged. Returns `(relation, values)` with a fresh primary
    /// key; the FK value is copied from an existing row so the pair is
    /// valid even under enforcement.
    fn filler_row(&mut self) -> Option<(&'static str, Vec<Value>)> {
        let db = self.mut_engine.database();
        let schema = db.schema();
        self.filler_next += 1;
        let key = self.filler_next;
        if let Some(movie) = schema.relation_id("MOVIE") {
            // Demo / synthetic movies schema: GENRE(gid, mid, genre).
            let (_, first) = db.table(movie).iter().next()?;
            let mid = first.get(0).to_value();
            return Some((
                "GENRE",
                vec![Value::from(key), mid, Value::from("testkitfiller")],
            ));
        }
        if schema.relation_id("R0").is_some() {
            // Chain schema: R0(id, payload) has no outgoing FK.
            return Some((
                "R0",
                vec![Value::from(key), Value::from("testkitfiller row")],
            ));
        }
        None
    }
}

/// Rebuild `db` as a WAL-backed twin on disk: a fresh scratch directory
/// opened on an empty snapshot at LSN 0, then every live tuple re-inserted
/// with the log sink attached — so the on-disk WAL alone carries the whole
/// dataset. The generated datasets are append-only, so the replayed tuple
/// ids must coincide with the originals — verified here.
fn replay_through_wal(db: &Database) -> Result<(Database, SharedWal, DurableStore), String> {
    let store = scratch_store()?;
    let empty =
        Database::new(db.schema().clone()).map_err(|e| format!("durable twin schema: {e}"))?;
    let opened = store
        .open_or_bootstrap(empty, FSYNC_POLICY)
        .map_err(|e| format!("durable twin bootstrap: {e}"))?;
    let (mut durable_db, wal) = (opened.db, opened.wal);
    for (rel, _) in db.schema().relations() {
        for (tid, t) in db.table(rel).iter() {
            let replayed = durable_db
                .insert_into(rel, t.values())
                .map_err(|e| format!("durable twin insert failed: {e}"))?;
            if replayed != tid {
                return Err(format!(
                    "durable twin produced {replayed:?} for original {tid:?}"
                ));
            }
        }
    }
    wal.flush()
        .map_err(|e| format!("durable twin flush: {e}"))?;
    Ok((durable_db, wal, store))
}

/// The durable legs' group commit.
const FSYNC_POLICY: FsyncPolicy = FsyncPolicy::Batch(64);

/// A fresh data directory under the system temp dir.
fn scratch_store() -> Result<DurableStore, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "precis-testkit-durable-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    DurableStore::open(&dir).map_err(|e| format!("durable store open: {e}"))
}

/// Crash-recover `store` — nothing is closed, recovery reads whatever the
/// live files hold — and demand the database `live` holds, tid for tid: a
/// dump writes every slot, tombstoned ones as holes, so equal dumps are
/// equal tuples under equal ids and an equal next id.
fn recover_like(store: &DurableStore, live: &Database) -> Result<Database, String> {
    let recovered = store
        .recover()
        .map_err(|e| format!("recovery errored: {e}"))?
        .ok_or("recovery produced no database from a populated directory")?;
    if let Some(why) = &recovered.report.truncated {
        return Err(format!("fully-flushed log reported a torn tail: {why}"));
    }
    let live_dump = storage_io::dump_to_string(live);
    let recovered_dump = storage_io::dump_to_string(&recovered.db);
    if live_dump != recovered_dump {
        return Err(format!(
            "recovered dump differs: {}",
            first_diff(&live_dump, &recovered_dump)
        ));
    }
    Ok(recovered.db)
}

fn base_spec(case: &CaseSpec) -> AnswerSpec {
    AnswerSpec {
        degree: case.degree.clone(),
        cardinality: case.cardinality.clone(),
        strategy: case.strategy,
        profile: None,
        options: DbGenOptions::default(),
    }
}

fn query(case: &CaseSpec) -> PrecisQuery {
    PrecisQuery::new(case.tokens.iter().map(String::as_str))
}

/// Sorted rows per relation of a result database — the strategy-independent
/// canonical form (tuple order is strategy-dependent by design).
fn canonical_rows(db: &Database) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for (rel, rs) in db.schema().relations() {
        let mut rows: Vec<String> = db
            .table(rel)
            .iter()
            .map(|(_, t)| {
                t.values()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect();
        rows.sort();
        out.insert(rs.name().to_owned(), rows);
    }
    out
}

/// Point at the first divergence of two byte-identical-expected strings.
fn first_diff(a: &str, b: &str) -> String {
    let pos = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let ctx = |s: &str| -> String {
        let start = pos.saturating_sub(30);
        let end = (pos + 30).min(s.len());
        // Snap to char boundaries.
        let start = (0..=start)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        let end = (end..=s.len())
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(s.len());
        s[start..end].to_owned()
    };
    format!(
        "lengths {}/{} first divergence at byte {pos}: {:?} vs {:?}",
        a.len(),
        b.len(),
        ctx(a),
        ctx(b)
    )
}

fn render(engine: &PrecisEngine, vocab: Option<&Vocabulary>, answer: &PrecisAnswer) -> String {
    render_answer(engine, vocab, answer)
}

/// Run all five legs of one case. Empty result = the case passes.
pub fn run_case(ctx: &mut DatasetCtx, case: &CaseSpec) -> Vec<Mismatch> {
    let mut out = Vec::new();
    ctx.cases_run += 1;
    strategy_leg(ctx, case, &mut out);
    cache_leg(ctx, case, &mut out);
    server_leg(ctx, case, &mut out);
    durability_leg(ctx, case, &mut out);
    mutation_leg(ctx, case, &mut out);
    out
}

fn strategy_leg(ctx: &DatasetCtx, case: &CaseSpec, out: &mut Vec<Mismatch>) {
    let q = query(case);
    let mut spec = base_spec(case);
    spec.cardinality = CardinalityConstraint::Unbounded;
    spec.strategy = RetrievalStrategy::NaiveQ;
    let naive = match ctx.engine.answer(&q, &spec) {
        Ok(a) => a,
        Err(e) => {
            out.push(Mismatch {
                leg: Leg::Strategy,
                detail: format!("NaiveQ answer errored: {e}"),
            });
            return;
        }
    };
    spec.strategy = RetrievalStrategy::RoundRobin;
    let rr = match ctx.engine.answer(&q, &spec) {
        Ok(a) => a,
        Err(e) => {
            out.push(Mismatch {
                leg: Leg::Strategy,
                detail: format!("RoundRobin answer errored: {e}"),
            });
            return;
        }
    };

    if naive.precis.seeds != rr.precis.seeds {
        out.push(Mismatch {
            leg: Leg::Strategy,
            detail: format!(
                "seed tuples differ: NaiveQ {:?} vs RoundRobin {:?}",
                naive.precis.seeds, rr.precis.seeds
            ),
        });
    }
    let rows_n = canonical_rows(&naive.precis.database);
    let rows_r = canonical_rows(&rr.precis.database);
    if rows_n != rows_r {
        for (rel, rn) in &rows_n {
            let rr_rows = rows_r.get(rel);
            if Some(rn) != rr_rows {
                out.push(Mismatch {
                    leg: Leg::Strategy,
                    detail: format!(
                        "relation {rel}: NaiveQ retrieved {} tuples, RoundRobin {} (sets differ under Unbounded)",
                        rn.len(),
                        rr_rows.map_or(0, Vec::len)
                    ),
                });
            }
        }
    }
    if naive.unmatched_tokens() != rr.unmatched_tokens() {
        out.push(Mismatch {
            leg: Leg::Strategy,
            detail: "unmatched token sets differ between strategies".to_owned(),
        });
    }
    for (name, answer) in [("NaiveQ", &naive), ("RoundRobin", &rr)] {
        let violations = answer.precis.database.validate_foreign_keys();
        if !violations.is_empty() {
            out.push(Mismatch {
                leg: Leg::Strategy,
                detail: format!(
                    "{name} result database violates {} foreign keys: {:?}",
                    violations.len(),
                    violations.first()
                ),
            });
        }
    }
}

fn cache_leg(ctx: &mut DatasetCtx, case: &CaseSpec, out: &mut Vec<Mismatch>) {
    let q = query(case);
    let spec = base_spec(case);

    // Cold vs warm on the shared engine.
    let cold = ctx.engine.answer(&q, &spec);
    let warm = ctx.engine.answer(&q, &spec);
    match (cold, warm) {
        (Ok(c), Ok(w)) => {
            let vocab = ctx.vocab.as_ref();
            let cb = render(&ctx.engine, vocab, &c);
            let wb = render(&ctx.engine, vocab, &w);
            if cb != wb {
                out.push(Mismatch {
                    leg: Leg::Cache,
                    detail: format!("cold vs warm: {}", first_diff(&cb, &wb)),
                });
            }
        }
        (c, w) => {
            out.push(Mismatch {
                leg: Leg::Cache,
                detail: format!(
                    "cold vs warm outcome mismatch: {:?} vs {:?}",
                    c.map(|_| "ok").map_err(|e| e.to_string()),
                    w.map(|_| "ok").map_err(|e| e.to_string())
                ),
            });
            return;
        }
    }

    // Mutation: answer, then a net-no-op insert+delete, then answer again
    // — must be byte-identical.
    let before = match ctx.mut_engine.answer(&q, &spec) {
        Ok(a) => render(&ctx.mut_engine, ctx.vocab.as_ref(), &a),
        Err(e) => {
            out.push(Mismatch {
                leg: Leg::Cache,
                detail: format!("pre-invalidation answer errored: {e}"),
            });
            return;
        }
    };
    let Some((relation, values)) = ctx.filler_row() else {
        return;
    };
    let tid = match ctx.mut_engine.insert(relation, values) {
        Ok(tid) => tid,
        Err(e) => {
            out.push(Mismatch {
                leg: Leg::Cache,
                detail: format!("filler insert into {relation} failed: {e}"),
            });
            return;
        }
    };
    let rel = ctx
        .mut_engine
        .database()
        .schema()
        .relation_id(relation)
        .expect("filler relation exists");
    if let Err(e) = ctx.mut_engine.delete(rel, tid) {
        out.push(Mismatch {
            leg: Leg::Cache,
            detail: format!("filler delete from {relation} failed: {e}"),
        });
        return;
    }
    match ctx.mut_engine.answer(&q, &spec) {
        Ok(a) => {
            let after = render(&ctx.mut_engine, ctx.vocab.as_ref(), &a);
            if before != after {
                out.push(Mismatch {
                    leg: Leg::Cache,
                    detail: format!("post-invalidation: {}", first_diff(&before, &after)),
                });
            }
        }
        Err(e) => out.push(Mismatch {
            leg: Leg::Cache,
            detail: format!("post-invalidation answer errored: {e}"),
        }),
    }
}

/// The WAL round-trip must be invisible: log some update-to-same-value
/// records and a churn of filler rows (net: tombstones), with a checkpoint
/// between the two on every other case, crash-recover the twin from its
/// on-disk state (no orderly close), and demand the recovered database
/// dumps byte-identically — which is tid for tid — and answers the case
/// byte-identically to the live twin.
fn durability_leg(ctx: &mut DatasetCtx, case: &CaseSpec, out: &mut Vec<Mismatch>) {
    let mut fail = |detail: String| {
        out.push(Mismatch {
            leg: Leg::Durability,
            detail,
        })
    };
    // Update the first live tuple of (up to) two relations to its own
    // values: logically a no-op, but each one appends a real Update record
    // and exercises the incremental index-maintenance path.
    let rewrites: Vec<_> = {
        let db = ctx.durable_engine.database();
        db.schema()
            .relations()
            .filter_map(|(rel, _)| {
                db.table(rel)
                    .iter()
                    .next()
                    .map(|(tid, t)| (rel, tid, t.values().to_vec()))
            })
            .take(2)
            .collect()
    };
    for (rel, tid, values) in rewrites {
        if let Err(e) = ctx.durable_engine.update(rel, tid, values) {
            return fail(format!("update-to-same-values failed: {e}"));
        }
    }
    // The checkpoint, mid-stream: it writes a snapshot of the live database
    // and rotates the log, and the live database stays the live one.
    if ctx.checkpoint_due() {
        let db = ctx.durable_engine.database();
        if let Err(e) = ctx.durable_wal.with(|w| ctx.durable_store.snapshot(db, w)) {
            return fail(format!("checkpoint failed: {e}"));
        }
    }
    // Churn behind it: two filler rows in, then the second straight out
    // again (a tombstone at the end of its table) and the one the last case
    // kept (a tombstone in the middle).
    let mut doomed: Vec<_> = ctx.durable_filler.take().into_iter().collect();
    for keep in [true, false] {
        let Some((relation, values)) = ctx.filler_row() else {
            break;
        };
        match ctx.durable_engine.insert(relation, values) {
            Ok(tid) if keep => ctx.durable_filler = Some((relation, tid)),
            Ok(tid) => doomed.push((relation, tid)),
            Err(e) => return fail(format!("filler insert failed: {e}")),
        }
    }
    for (relation, tid) in doomed {
        let schema = ctx.durable_engine.database().schema();
        let rel = schema
            .relation_id(relation)
            .expect("a filler row's relation");
        if let Err(e) = ctx.durable_engine.delete(rel, tid) {
            return fail(format!("filler delete failed: {e}"));
        }
    }
    // Group-commit barrier, then crash.
    if let Err(e) = ctx.durable_wal.flush() {
        return fail(format!("wal flush failed: {e}"));
    }
    let recovered = match recover_like(&ctx.durable_store, ctx.durable_engine.database()) {
        Ok(db) => db,
        Err(e) => return fail(e),
    };
    let recovered_engine = match PrecisEngine::new(recovered, ctx.graph.clone()) {
        Ok(e) => e,
        Err(e) => return fail(format!("recovered engine failed to build: {e}")),
    };
    let q = query(case);
    let spec = base_spec(case);
    let live = ctx.durable_engine.answer(&q, &spec);
    let replayed = recovered_engine.answer(&q, &spec);
    match (live, replayed) {
        (Ok(l), Ok(r)) => {
            let vocab = ctx.vocab.as_ref();
            let lb = render(&ctx.durable_engine, vocab, &l);
            let rb = render(&recovered_engine, vocab, &r);
            if lb != rb {
                fail(format!("rendered answers differ: {}", first_diff(&lb, &rb)));
            }
        }
        (l, r) => fail(format!(
            "live vs recovered outcome mismatch: {:?} vs {:?}",
            l.map(|_| "ok").map_err(|e| e.to_string()),
            r.map(|_| "ok").map_err(|e| e.to_string())
        )),
    }
}

/// A stored value as `/v1/mutate` would carry it.
fn to_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Number(*i as f64),
        Value::Float(f) => Json::Number(*f),
        Value::Text(s) => Json::String(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

/// One write-path batch per case, applied beside the engine the previous
/// case published: the old engine must not notice, and the new one must be
/// what its data directory recovers to.
fn mutation_leg(ctx: &mut DatasetCtx, case: &CaseSpec, out: &mut Vec<Mismatch>) {
    let mut fail = |detail: String| {
        out.push(Mismatch {
            leg: Leg::Mutation,
            detail,
        })
    };
    let q = query(case);
    let spec = base_spec(case);
    let answer_of = |engine: &PrecisEngine, vocab: Option<&Vocabulary>| {
        engine
            .answer(&q, &spec)
            .map(|a| render(engine, vocab, &a))
            .map_err(|e| e.to_string())
    };
    let before = answer_of(&ctx.published, ctx.vocab.as_ref());

    // Two filler inserts, a rewrite of the first live tuple of the first
    // populated relation with a word appended to its texts, and a delete of
    // a filler row an earlier case inserted.
    let mut ops = Vec::new();
    let mut inserted = None;
    for _ in 0..2 {
        let Some((relation, values)) = ctx.filler_row() else {
            return;
        };
        inserted = Some(relation);
        ops.push(MutateOp::Insert {
            relation: relation.to_owned(),
            values: values.iter().map(to_json).collect(),
        });
    }
    let db = ctx.published.database();
    let first = db.schema().relations().find_map(|(rel, schema)| {
        let (tid, t) = db.table(rel).iter().next()?;
        Some((schema.name().to_owned(), tid, t.values()))
    });
    if let Some((relation, tid, mut values)) = first {
        for value in &mut values {
            if let Value::Text(text) = value {
                text.push_str(" revised");
            }
        }
        ops.push(MutateOp::Update {
            relation,
            tid: tid.0,
            values: values.iter().map(to_json).collect(),
        });
    }
    if let Some((relation, tid)) = ctx.deletable.take() {
        ops.push(MutateOp::Delete {
            relation: relation.to_owned(),
            tid,
        });
    }

    let applied = apply_ops(&ctx.published, &ops);
    if let Some(e) = &applied.error {
        return fail(format!("batch stopped after {} ops: {e}", applied.applied));
    }
    ctx.deletable = inserted.zip(applied.inserted_tids.last().copied());
    let next = applied.engine;

    // The engine the batch ran beside answers exactly as it did before.
    let after = answer_of(&ctx.published, ctx.vocab.as_ref());
    match (&before, &after) {
        (Ok(b), Ok(a)) if a == b => {}
        (Ok(b), Ok(a)) => fail(format!(
            "the previous snapshot's answer changed: {}",
            first_diff(b, a)
        )),
        _ => fail(format!(
            "previous snapshot outcome: {before:?} then {after:?}"
        )),
    }
    // What the leg's data directory recovers to — the snapshot of an
    // earlier case, holes and all, plus the log of the batches since — is
    // the new engine's database tid for tid, and answers like it.
    let rebuilt = ctx
        .mutation_wal
        .flush()
        .map_err(|e| format!("wal flush failed: {e}"))
        .and_then(|()| recover_like(&ctx.mutation_store, next.database()))
        .and_then(|db| PrecisEngine::new(db, ctx.graph.clone()).map_err(|e| e.to_string()));
    match rebuilt {
        Ok(rebuilt) => {
            let live = answer_of(&next, ctx.vocab.as_ref());
            let fresh = answer_of(&rebuilt, ctx.vocab.as_ref());
            match (&live, &fresh) {
                (Ok(l), Ok(f)) if l == f => {}
                (Ok(l), Ok(f)) => fail(format!(
                    "new snapshot vs recovered from its log: {}",
                    first_diff(l, f)
                )),
                _ => fail(format!("new snapshot outcome: {live:?} vs {fresh:?}")),
            }
        }
        Err(e) => fail(format!("the new snapshot does not recover: {e}")),
    }
    // A checkpoint between this batch and the next: a snapshot of what was
    // just published, which stays what is published.
    if ctx.checkpoint_due() {
        let db = next.database();
        if let Err(e) = ctx
            .mutation_wal
            .with(|w| ctx.mutation_store.snapshot(db, w))
        {
            fail(format!("checkpoint failed: {e}"));
        }
    }
    ctx.published = next;
}

fn server_leg(ctx: &DatasetCtx, case: &CaseSpec, out: &mut Vec<Mismatch>) {
    let q = query(case);
    let spec = base_spec(case);
    let expected = match ctx.engine.answer(&q, &spec) {
        Ok(a) => render(&ctx.engine, ctx.vocab.as_ref(), &a),
        Err(e) => {
            out.push(Mismatch {
                leg: Leg::Server,
                detail: format!("direct answer errored: {e}"),
            });
            return;
        }
    };
    let body = request_body(case);
    match http_request(ctx.addr, "POST", "/v1/query", Some(&body)) {
        Ok((200, served)) => {
            if served != expected {
                out.push(Mismatch {
                    leg: Leg::Server,
                    detail: first_diff(&expected, &served),
                });
            }
        }
        Ok((status, served)) => out.push(Mismatch {
            leg: Leg::Server,
            detail: format!("expected 200, got {status}: {}", served.trim()),
        }),
        Err(e) => out.push(Mismatch {
            leg: Leg::Server,
            detail: format!("loopback request failed: {e}"),
        }),
    }
}

/// JSON request body for the served leg. Token alphabet is `[a-z0-9]`, so
/// no escaping is needed.
fn request_body(case: &CaseSpec) -> String {
    let tokens: Vec<String> = case.tokens.iter().map(|t| format!("{t:?}")).collect();
    let degree = match &case.degree {
        precis_core::DegreeConstraint::MinWeight(w) => format!("{{\"minweight\": {w}}}"),
        precis_core::DegreeConstraint::TopProjections(r) => format!("{{\"top\": {r}}}"),
        precis_core::DegreeConstraint::MaxPathLength(l) => format!("{{\"maxlen\": {l}}}"),
        precis_core::DegreeConstraint::All(_) => unreachable!("generator never emits All"),
    };
    let cardinality = match &case.cardinality {
        CardinalityConstraint::MaxTuplesPerRelation(n) => format!("{{\"perrel\": {n}}}"),
        CardinalityConstraint::MaxTotalTuples(n) => format!("{{\"total\": {n}}}"),
        CardinalityConstraint::Unbounded => "\"unbounded\"".to_owned(),
        CardinalityConstraint::All(_) => unreachable!("generator never emits All"),
    };
    let strategy = match case.strategy {
        RetrievalStrategy::NaiveQ => "naive",
        RetrievalStrategy::RoundRobin => "roundrobin",
        RetrievalStrategy::TopWeight => "topweight",
    };
    format!(
        "{{\"tokens\": [{}], \"degree\": {degree}, \"cardinality\": {cardinality}, \"strategy\": \"{strategy}\"}}",
        tokens.join(", ")
    )
}

/// Minimal HTTP/1.1 client for the loopback legs.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: testkit\r\nConnection: close\r\n");
    match body {
        Some(b) => {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ));
        }
        None => req.push_str("\r\n"),
    }
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}
