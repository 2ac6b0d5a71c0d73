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

use crate::durable::{checkpoint_engine, Durability};
use crate::http::Response;
use crate::json::{self, Json};
use crate::server::Shared;
use precis_core::{CoreError, PrecisEngine};
use precis_durability::WalMark;
use precis_storage::{DataType, RelationId, StorageError, TupleId, Value};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

/// Apply a `/v1/mutate` batch copy-on-write under the write lock: clone the
/// current engine, apply ops in order (each one streaming into the WAL via
/// the database's sink), force the group-commit fsync, publish the new
/// engine, and auto-checkpoint when the record threshold is crossed.
///
/// Any WAL failure — an append refused mid-batch or the group-commit fsync
/// refused — aborts the whole batch: the cloned engine is discarded
/// unpublished and the log is physically rolled back to its pre-batch
/// mark, so served state and log never diverge and the abandoned records'
/// LSNs and tuple slots are reclaimed cleanly by the next batch. If even
/// the rollback fails the durability state is poisoned and every further
/// mutation is refused until restart.
///
/// `503` on this path always means a durability failure (or shutdown) —
/// overload is signalled with `429` by admission, never here.
pub(crate) fn handle_mutate(shared: &Shared, body: &[u8], trace_hex: &str) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "bad_request", "body must be UTF-8");
    };
    let ops = match parse_mutate_request(text) {
        Ok(ops) => ops,
        Err(msg) => return Response::error(400, "bad_request", &msg),
    };
    let _guard = shared.write_lock.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(d) = &shared.durability {
        if d.is_poisoned() {
            return Response::error(
                503,
                "wal_poisoned",
                "write-ahead log state is inconsistent; mutations are disabled until restart",
            );
        }
    }
    let base = shared.engine.load();
    // Mark the log's end before the first append so a failed batch can be
    // rolled back whole.
    let mark = shared.durability.as_ref().map(|d| d.wal.mark());
    let applied = apply_ops(&base, &ops);
    // ACK-after-fsync: the group-commit barrier runs before anything is
    // published or acknowledged. If the disk refused an append or refuses
    // the sync, nothing is published and the log is rolled back — the
    // batch never happened as far as readers, the log, and the durability
    // contract are concerned.
    let mut wal_lsn = None;
    if let Some(d) = &shared.durability {
        let mark = mark.expect("mark taken whenever durability is attached");
        if applied.wal_failed {
            let reason = applied.error.as_deref().unwrap_or("write-ahead log error");
            return abort_batch(d, mark, reason, trace_hex);
        }
        if let Err(e) = d.wal.flush() {
            return abort_batch(
                d,
                mark,
                &format!("write-ahead log sync failed: {e}"),
                trace_hex,
            );
        }
        wal_lsn = Some(d.wal.next_lsn().saturating_sub(1));
        d.since_checkpoint
            .fetch_add(applied.applied as u64, Ordering::Relaxed);
    }
    let mut engine = Arc::new(applied.engine);
    shared.engine.store(engine.clone());

    let mut checkpointed = false;
    if let Some(d) = &shared.durability {
        if d.checkpoint_every > 0
            && d.since_checkpoint.load(Ordering::Relaxed) >= d.checkpoint_every
        {
            match checkpoint_engine(d, &engine) {
                Ok(rebuilt) => {
                    engine = Arc::new(rebuilt);
                    shared.engine.store(engine);
                    checkpointed = true;
                }
                // A failed checkpoint is not a failed mutation: the batch
                // is applied and fsynced, so acknowledge it and leave the
                // longer WAL for the next checkpoint attempt.
                Err(e) => {
                    d.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "precis-server: auto-checkpoint failed (will retry) \
                         trace={trace_hex}: {e}"
                    );
                }
            }
        }
    }

    let body = render_mutate_response(
        applied.applied,
        &applied.inserted_tids,
        wal_lsn,
        checkpointed,
        applied.error.as_deref(),
    );
    let status = if applied.error.is_some() { 400 } else { 200 };
    if status == 400 {
        // Non-2xx responses carry the envelope; the partial-application
        // report rides along in `details` so callers keep the full picture.
        let message = applied.error.as_deref().unwrap_or("mutation failed");
        return Response::error_detailed(400, "mutate_failed", message, body.trim_end());
    }
    Response::json(status, body)
}

/// Abandon a batch whose WAL writes failed: roll the log back to its
/// pre-batch mark (leaving the published engine untouched) and report 503.
/// A rollback failure leaves the on-disk log unknown — poison durability so
/// no later batch can interleave with the abandoned records.
fn abort_batch(d: &Durability, mark: WalMark, reason: &str, trace_hex: &str) -> Response {
    match d.wal.truncate_to_mark(mark) {
        Ok(()) => Response::error(503, "wal_failed", &format!("{reason}; batch rolled back")),
        Err(e) => {
            d.poison();
            eprintln!(
                "precis-server: WAL rollback failed after a failed batch; \
                 mutations disabled until restart trace={trace_hex}: {e}"
            );
            Response::error(
                503,
                "wal_poisoned",
                &format!("{reason}; rollback failed ({e}), mutations disabled until restart"),
            )
        }
    }
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
