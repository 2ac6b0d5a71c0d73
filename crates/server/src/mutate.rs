//! The `POST /v1/mutate` write path: batched ops applied copy-on-write under
//! the server's single write lock, logged to the WAL (when the server is
//! durable), and published atomically via the engine snapshot cell.
//!
//! Batches are ordered streams, not transactions: ops apply in order and
//! the first failure stops the batch. On an ordinary *validation* failure
//! (unknown relation, bad arity, missing tuple, …) everything applied up
//! to that point is kept, logged, and published — so the served state and
//! the WAL never disagree — and the response reports how far the batch
//! got. A *WAL* failure (append or group-commit fsync refused) instead
//! aborts the whole batch: the cloned engine is discarded unpublished and
//! the log is physically rolled back to its pre-batch mark, because a
//! published mutation the log lacks — or abandoned log records whose LSNs
//! and tuple slots a later batch would reclaim — makes recovery truncate
//! away acknowledged writes.

use crate::json::{self, Json};
use precis_core::{CoreError, PrecisEngine};
use precis_durability::{DurableStore, SharedWal};
use precis_index::InvertedIndex;
use precis_storage::{DataType, RelationId, StorageError, TupleId, Value, WalSink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Durable-serving state attached to a server: where snapshots and the WAL
/// live, the shared append handle, and the auto-checkpoint threshold.
#[derive(Debug)]
pub struct Durability {
    pub store: DurableStore,
    pub wal: SharedWal,
    /// Checkpoint (snapshot + WAL rotation) once this many records have
    /// been appended since the last one. Zero disables auto-checkpointing.
    pub checkpoint_every: u64,
    /// Records appended since the last checkpoint.
    pub since_checkpoint: AtomicU64,
    /// Checkpoints taken by this server (exported as a metric).
    pub checkpoints: AtomicU64,
    /// Microseconds those checkpoints took, snapshot to rebuilt engine —
    /// time the write lock was held on top of the batch (exported as a
    /// metric, in seconds).
    pub checkpoint_micros: AtomicU64,
    /// Auto-checkpoints that failed (exported as a metric). A failed
    /// checkpoint is not a failed mutation — the batch stays acknowledged
    /// and the longer WAL waits for the next attempt.
    pub checkpoint_failures: AtomicU64,
    /// Set when a failed batch could not be rolled back off the WAL: the
    /// log's on-disk state no longer matches what replay would compute, so
    /// every further mutation is refused until restart (recovery truncates
    /// the bad tail). Queries keep serving the last published engine.
    poisoned: AtomicBool,
}

impl Durability {
    pub fn new(store: DurableStore, wal: SharedWal, checkpoint_every: u64) -> Self {
        Durability {
            store,
            wal,
            checkpoint_every,
            since_checkpoint: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_micros: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Refuse all further mutations; see the `poisoned` field.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}

/// One decoded mutation. `values` stay as parsed JSON until apply time —
/// coercion is type-directed by the relation's schema, which lives in the
/// engine snapshot taken under the write lock.
#[derive(Debug)]
pub enum MutateOp {
    Insert {
        relation: String,
        values: Vec<Json>,
    },
    Update {
        relation: String,
        tid: u64,
        values: Vec<Json>,
    },
    Delete {
        relation: String,
        tid: u64,
    },
}

/// Decode a `/v1/mutate` body:
///
/// ```json
/// {"ops": [
///   {"op": "insert", "relation": "MOVIE", "values": [7, "Zelig", 1]},
///   {"op": "update", "relation": "MOVIE", "tid": 0, "values": [7, "Zelig", 2]},
///   {"op": "delete", "relation": "MOVIE", "tid": 3}
/// ]}
/// ```
pub fn parse_mutate_request(body: &str) -> Result<Vec<MutateOp>, String> {
    let doc = json::parse(body)?;
    let Some(Json::Array(items)) = doc.get("ops") else {
        return Err("body must be {\"ops\": [...]}".to_owned());
    };
    if items.is_empty() {
        return Err("ops must not be empty".to_owned());
    }
    items.iter().enumerate().map(decode_op).collect()
}

fn decode_op((i, item): (usize, &Json)) -> Result<MutateOp, String> {
    let kind = item
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("ops[{i}]: missing \"op\""))?;
    let relation = item
        .get("relation")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("ops[{i}]: missing \"relation\""))?
        .to_owned();
    let tid = || {
        item.get("tid")
            .and_then(Json::as_usize)
            .map(|t| t as u64)
            .ok_or_else(|| format!("ops[{i}]: missing \"tid\""))
    };
    let values = || -> Result<Vec<Json>, String> {
        match item.get("values") {
            Some(Json::Array(vs)) => Ok(vs.clone()),
            _ => Err(format!("ops[{i}]: missing \"values\" array")),
        }
    };
    match kind {
        "insert" => Ok(MutateOp::Insert {
            relation,
            values: values()?,
        }),
        "update" => Ok(MutateOp::Update {
            relation,
            tid: tid()?,
            values: values()?,
        }),
        "delete" => Ok(MutateOp::Delete {
            relation,
            tid: tid()?,
        }),
        other => Err(format!("ops[{i}]: unknown op {other:?}")),
    }
}

/// Coerce a parsed JSON value to the column's declared type. JSON numbers
/// are `f64`; integer columns require an integral value.
fn coerce(v: &Json, ty: DataType) -> Result<Value, String> {
    match (v, ty) {
        (Json::Null, _) => Ok(Value::Null),
        (Json::Number(n), DataType::Int) if n.fract() == 0.0 => Ok(Value::Int(*n as i64)),
        (Json::Number(_), DataType::Int) => Err("integer column given a fraction".to_owned()),
        (Json::Number(n), DataType::Float) => Ok(Value::Float(*n)),
        (Json::String(s), DataType::Text) => Ok(Value::Text(s.clone())),
        (Json::Bool(b), DataType::Bool) => Ok(Value::Bool(*b)),
        (v, ty) => Err(format!("cannot store {v:?} in a {ty:?} column")),
    }
}

fn coerce_row(
    engine: &PrecisEngine,
    rel: RelationId,
    values: &[Json],
) -> Result<Vec<Value>, String> {
    let schema = engine.database().relation_schema(rel);
    if values.len() != schema.arity() {
        return Err(format!(
            "{} takes {} values, got {}",
            schema.name(),
            schema.arity(),
            values.len()
        ));
    }
    values
        .iter()
        .zip(schema.attributes())
        .map(|(v, a)| coerce(v, a.ty).map_err(|e| format!("attribute {}: {e}", a.name)))
        .collect()
}

/// Result of applying a batch: how far it got, the tids inserts landed on,
/// and the first error if the batch stopped early. `wal_failed` marks the
/// error as a WAL-sink failure — the stopping op applied in memory but was
/// *not* logged, so `engine` must be discarded, never published.
pub struct Applied {
    pub engine: PrecisEngine,
    pub applied: usize,
    pub inserted_tids: Vec<u64>,
    pub error: Option<String>,
    pub wal_failed: bool,
}

/// Apply `ops` in order to a deep copy of `base`, stopping at the first
/// failure. The copy's database carries whatever WAL sink `base` had, so
/// each successful mutation streams into the log as it applies.
pub fn apply_ops(base: &PrecisEngine, ops: &[MutateOp]) -> Applied {
    let mut engine = base.clone();
    let mut inserted_tids = Vec::new();
    let mut applied = 0usize;
    let mut error = None;
    let mut wal_failed = false;
    for (i, op) in ops.iter().enumerate() {
        let result = apply_one(&mut engine, op, &mut inserted_tids);
        match result {
            Ok(()) => applied += 1,
            Err(e) => {
                wal_failed = e.is_wal_failure;
                error = Some(format!("ops[{i}]: {}", e.message));
                break;
            }
        }
    }
    Applied {
        engine,
        applied,
        inserted_tids,
        error,
        wal_failed,
    }
}

/// An apply-time failure: its message plus whether it was the WAL sink
/// refusing the record (as opposed to the op failing validation).
struct ApplyError {
    message: String,
    is_wal_failure: bool,
}

impl From<String> for ApplyError {
    fn from(message: String) -> Self {
        ApplyError {
            message,
            is_wal_failure: false,
        }
    }
}

impl From<CoreError> for ApplyError {
    fn from(e: CoreError) -> Self {
        ApplyError {
            is_wal_failure: matches!(&e, CoreError::Storage(StorageError::WalFailed(_))),
            message: e.to_string(),
        }
    }
}

fn apply_one(
    engine: &mut PrecisEngine,
    op: &MutateOp,
    inserted_tids: &mut Vec<u64>,
) -> Result<(), ApplyError> {
    match op {
        MutateOp::Insert { relation, values } => {
            let rel = require_relation(engine, relation)?;
            let row = coerce_row(engine, rel, values)?;
            let tid = engine.insert(relation, row)?;
            inserted_tids.push(tid.0);
            Ok(())
        }
        MutateOp::Update {
            relation,
            tid,
            values,
        } => {
            let rel = require_relation(engine, relation)?;
            let row = coerce_row(engine, rel, values)?;
            engine.update(rel, TupleId(*tid), row)?;
            Ok(())
        }
        MutateOp::Delete { relation, tid } => {
            let rel = require_relation(engine, relation)?;
            engine.delete(rel, TupleId(*tid))?;
            Ok(())
        }
    }
}

fn require_relation(engine: &PrecisEngine, name: &str) -> Result<RelationId, String> {
    engine
        .database()
        .schema()
        .relation_id(name)
        .ok_or_else(|| format!("no relation named {name:?}"))
}

/// Checkpoint the engine's database: snapshot + WAL rotation, then rebuild
/// the engine around the compacted reload (fresh index build — allowed at
/// checkpoint time, never on the per-mutation path) with the WAL sink
/// re-attached. Returns the replacement engine to publish; it keeps the
/// cost model, profiles and schema memo of the engine it replaces.
pub fn checkpoint_engine(
    durability: &Durability,
    engine: &PrecisEngine,
) -> Result<PrecisEngine, String> {
    let started = Instant::now();
    // `wal.snapshot_install` and `wal.checkpoint.reload` are recorded inside.
    let mut compacted = durability
        .wal
        .with(|w| durability.store.checkpoint(engine.database(), w))
        .map_err(|e| e.to_string())?;
    compacted.set_wal_sink(Arc::new(durability.wal.clone()) as Arc<dyn WalSink>);
    let index = {
        let _span = precis_obs::span("engine.index_build");
        InvertedIndex::build(&compacted)
    };
    let rebuilt = engine.with_database(compacted, index);
    durability.since_checkpoint.store(0, Ordering::Relaxed);
    durability.checkpoints.fetch_add(1, Ordering::Relaxed);
    durability
        .checkpoint_micros
        .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    Ok(rebuilt)
}

/// Render the `/v1/mutate` response body.
pub fn render_mutate_response(
    applied: usize,
    inserted_tids: &[u64],
    wal_lsn: Option<u64>,
    checkpointed: bool,
    error: Option<&str>,
) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"applied\": {applied}, \"inserted_tids\": [");
    for (i, t) in inserted_tids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{t}");
    }
    out.push_str("], \"durable_lsn\": ");
    match wal_lsn {
        Some(l) => {
            let _ = write!(out, "{l}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ", \"checkpointed\": {checkpointed}");
    if let Some(e) = error {
        out.push_str(", \"error\": ");
        json::write_str(&mut out, e);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_op_kinds() {
        let ops = parse_mutate_request(
            r#"{"ops": [
                {"op": "insert", "relation": "MOVIE", "values": [7, "Zelig", null]},
                {"op": "update", "relation": "MOVIE", "tid": 0, "values": [7, "Zelig", 1]},
                {"op": "delete", "relation": "MOVIE", "tid": 3}
            ]}"#,
        )
        .unwrap();
        assert_eq!(ops.len(), 3);
        assert!(matches!(&ops[0], MutateOp::Insert { relation, values }
            if relation == "MOVIE" && values.len() == 3));
        assert!(matches!(&ops[1], MutateOp::Update { tid: 0, .. }));
        assert!(matches!(&ops[2], MutateOp::Delete { tid: 3, .. }));
    }

    #[test]
    fn bad_bodies_are_described() {
        for (body, needle) in [
            ("{}", "ops"),
            (r#"{"ops": []}"#, "empty"),
            (r#"{"ops": [{"relation": "R"}]}"#, "missing \"op\""),
            (r#"{"ops": [{"op": "insert"}]}"#, "relation"),
            (r#"{"ops": [{"op": "insert", "relation": "R"}]}"#, "values"),
            (r#"{"ops": [{"op": "delete", "relation": "R"}]}"#, "tid"),
            (
                r#"{"ops": [{"op": "upsert", "relation": "R"}]}"#,
                "unknown op",
            ),
        ] {
            let err = parse_mutate_request(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn coercion_is_type_directed() {
        assert_eq!(coerce(&Json::Number(3.0), DataType::Int), Ok(Value::Int(3)));
        assert!(coerce(&Json::Number(3.5), DataType::Int).is_err());
        assert_eq!(
            coerce(&Json::Number(3.0), DataType::Float),
            Ok(Value::Float(3.0))
        );
        assert_eq!(coerce(&Json::Null, DataType::Text), Ok(Value::Null));
        assert!(coerce(&Json::Bool(true), DataType::Text).is_err());
    }

    #[test]
    fn responses_render_deterministically() {
        assert_eq!(
            render_mutate_response(2, &[5, 6], Some(9), false, None),
            "{\"applied\": 2, \"inserted_tids\": [5, 6], \"durable_lsn\": 9, \
             \"checkpointed\": false}\n"
        );
        assert_eq!(
            render_mutate_response(0, &[], None, false, Some("ops[0]: boom")),
            "{\"applied\": 0, \"inserted_tids\": [], \"durable_lsn\": null, \
             \"checkpointed\": false, \"error\": \"ops[0]: boom\"}\n"
        );
    }
}
