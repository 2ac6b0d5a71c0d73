//! The `POST /v1/mutate` write path: batched ops applied copy-on-write by
//! the server's one writer thread, logged to the WAL (when the server is
//! durable), and published atomically via the engine snapshot cell.
//!
//! A worker reads and parses the request, hands the ops and the request's
//! trace to the `precis-writer` thread over a channel and blocks for the
//! answer; the writer owns everything from there — load the published
//! engine, apply to a copy, append, fsync, publish, auto-checkpoint. It is a
//! thread, not a lock a worker takes, because of where memory lands: the
//! copies a batch makes are allocated, freed and reused in the writer's one
//! malloc arena instead of leaving a high-water mark in every worker's
//! (EXPERIMENTS.md "The write path costs what the batch costs"). Being the
//! only writer, the thread is also the serialisation: there is no write
//! lock.
//!
//! The copy is cheap: cloning an engine bumps reference counts, and the ops
//! copy only the chunks, shards and posting lists they touch (see
//! `precis_storage::cow`), so a batch costs what it changes, not what the
//! database holds. A query that loaded its snapshot before the publish
//! reads that snapshot to the end.
//!
//! Batches are ordered streams, not transactions: ops apply in order and
//! the first failure stops the batch. On an ordinary *validation* failure
//! (unknown relation, bad arity, missing tuple, …) everything applied up
//! to that point is kept, logged, and published — so the served state and
//! the WAL never disagree — and the response reports how far the batch
//! got. A *WAL* failure (append or group-commit fsync refused) — and a
//! *panic* anywhere before the publish — instead aborts the whole batch:
//! the copy is discarded unpublished and the log is physically rolled back
//! to its pre-batch mark, because a published mutation the log lacks — or
//! abandoned log records whose LSNs and tuple slots a later batch would
//! reclaim — makes recovery truncate away acknowledged writes.
//!
//! The one publish of a batch is its last word on what is served. The batch
//! that crosses the checkpoint threshold then also writes a snapshot of the
//! engine it published and rotates the log (`Durability::checkpoint`)
//! before it answers — `"checkpointed": true` says this batch paid for
//! that, nothing more. A snapshot keeps every tuple id, so a tuple id
//! reported by `/v1/mutate` is valid for the life of the process that
//! reported it, across any number of checkpoints, failed ones included.

use crate::durable::Durability;
use crate::exit::{self, Outcome, TraceCtx};
use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::server::Shared;
use precis_core::{CoreError, PrecisEngine};
use precis_durability::WalMark;
use precis_obs::Trace;
use precis_storage::cow::{Copied, CopyMeter};
use precis_storage::{DataType, RelationId, StorageError, TupleId, Value};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// One decoded mutation. `values` stay as parsed JSON until apply time —
/// coercion is type-directed by the relation's schema, which lives in the
/// engine snapshot the writer loads.
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

/// Integers of this magnitude and beyond are not all `f64`s: the parser has
/// already rounded them (2^53 + 1 reads as 2^53), so none can be trusted.
const UNSAFE_INT: f64 = 9_007_199_254_740_992.0;

/// Coerce a parsed JSON value to the column's declared type. JSON numbers
/// are `f64`; integer columns require an integral value the `f64` holds
/// exactly, i.e. inside ±2^53.
fn coerce(v: &Json, ty: DataType) -> Result<Value, String> {
    match (v, ty) {
        (Json::Null, _) => Ok(Value::Null),
        (Json::Number(n), DataType::Int) if n.abs() >= UNSAFE_INT => Err(format!(
            "integer column given {n:e}, outside ±2^53 where a JSON number is exact"
        )),
        (Json::Number(n), DataType::Int) if n.fract() != 0.0 => {
            Err("integer column given a fraction".to_owned())
        }
        (Json::Number(n), DataType::Int) => Ok(Value::Int(*n as i64)),
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
    /// What the batch had to copy of `base` to stay out of its way.
    pub copied: Copied,
}

/// Apply `ops` in order to a private copy of `base`, stopping at the first
/// failure. The copy shares everything with `base` until an op touches it,
/// and `base` is never written. The copy's database carries whatever WAL
/// sink `base` had, so each successful mutation streams into the log as it
/// applies. Runs under a `mutate.apply` span that counts what was copied.
pub fn apply_ops(base: &PrecisEngine, ops: &[MutateOp]) -> Applied {
    let span = precis_obs::span("mutate.apply");
    let meter = CopyMeter::new();
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
    let copied = meter.copied();
    span.field("ops", ops.len() as u64);
    span.field("chunks_copied", copied.pieces);
    span.field("bytes_copied", copied.bytes);
    Applied {
        engine,
        applied,
        inserted_tids,
        error,
        wal_failed,
        copied,
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

/// One parsed batch on its way to the writer thread: the ops, the request's
/// span recorder (the writer enters it while it runs the batch, so the
/// apply, WAL and checkpoint spans land in the request's own trace) and
/// where the answer goes.
pub(crate) struct WriteJob {
    ops: Vec<MutateOp>,
    trace: Trace,
    trace_hex: String,
    reply: mpsc::Sender<(Written, Trace)>,
}

/// What the writer made of a batch.
struct Written {
    response: Response,
    /// The batch was rolled back off the log (or the log is poisoned).
    wal_rollback: bool,
    panicked: bool,
}

impl Written {
    fn plain(response: Response) -> Written {
        Written {
            response,
            wal_rollback: false,
            panicked: false,
        }
    }
}

/// Serve one loopback `POST /v1/mutate` on the worker that read it: parse,
/// hand the batch to the writer thread, block for its answer, write it.
///
/// `503` on this path always means a durability failure or shutdown —
/// overload is signalled with `429` by admission, never here.
pub(crate) fn serve_mutate(
    shared: &Shared,
    mut stream: TcpStream,
    request: &Request,
    admitted: Instant,
    started: Instant,
) {
    let mut ctx = TraceCtx::begin(request.header("traceparent"), admitted);
    let written = hand_over(shared, &request.body, &mut ctx);
    let outcome = Outcome {
        wal_rollback: written.wal_rollback,
        panicked: written.panicked,
        ..Outcome::of("mutate", written.response)
    };
    exit::answer(shared, &mut stream, ctx, outcome, started.elapsed());
}

fn hand_over(shared: &Shared, body: &[u8], ctx: &mut TraceCtx) -> Written {
    let Ok(text) = std::str::from_utf8(body) else {
        return Written::plain(Response::error(400, "bad_request", "body must be UTF-8"));
    };
    let ops = match parse_mutate_request(text) {
        Ok(ops) => ops,
        Err(msg) => return Written::plain(Response::error(400, "bad_request", &msg)),
    };
    let (reply, answer) = mpsc::channel();
    let job = WriteJob {
        ops,
        trace: ctx.trace.take(),
        trace_hex: ctx.hex.clone(),
        reply,
    };
    // The sender is gone once shutdown began: the writer finishes what was
    // queued before and takes nothing after.
    let sent = match &*shared.writer.lock().unwrap_or_else(|p| p.into_inner()) {
        Some(writer) => writer.send(job).map_err(|refused| refused.0),
        None => Err(job),
    };
    match sent {
        Ok(()) => match answer.recv() {
            Ok((written, trace)) => {
                ctx.trace = trace;
                written
            }
            // The writer answers every job it takes; only its death can
            // drop one. Nothing of the batch is known to be applied.
            Err(_) => Written {
                panicked: true,
                ..Written::plain(Response::error(
                    500,
                    "internal",
                    "internal error serving request",
                ))
            },
        },
        Err(job) => {
            ctx.trace = job.trace;
            Written::plain(Response::error_retry(
                503,
                "shutting_down",
                "server shutting down",
                1000,
            ))
        }
    }
}

/// The `precis-writer` thread: one batch at a time, in arrival order, until
/// shutdown drops the sending side and the queue is drained.
pub(crate) fn writer_loop(shared: &Shared, jobs: Receiver<WriteJob>) {
    for job in jobs {
        let WriteJob {
            ops,
            mut trace,
            trace_hex,
            reply,
        } = job;
        let written = {
            let _entered = trace.enter();
            write_batch(shared, &ops, &trace_hex)
        };
        // The worker may have given up on its peer; nothing to do about it.
        let _ = reply.send((written, trace));
    }
}

/// Run one batch on the writer thread, under a `catch_unwind` of its own: a
/// panic costs the batch, not the writer, and it is treated exactly like
/// the log refusing a record — if nothing was published yet, whatever the
/// batch appended is cut back off the log, so the records of a batch nobody
/// was told about can never sit in front of a later acknowledged one.
fn write_batch(shared: &Shared, ops: &[MutateOp], trace_hex: &str) -> Written {
    let durability = shared.durability.as_ref();
    if durability.is_some_and(Durability::is_poisoned) {
        return Written {
            wal_rollback: true,
            ..Written::plain(Response::error(
                503,
                "wal_poisoned",
                "write-ahead log state is inconsistent; mutations are disabled until restart",
            ))
        };
    }
    // Mark the log's end before the first append so a failed batch can be
    // rolled back whole.
    let mark = durability.map(|d| d.wal.mark());
    let mut published = false;
    let committed = catch_unwind(AssertUnwindSafe(|| {
        commit(shared, ops, mark, trace_hex, &mut published)
    }));
    committed.unwrap_or_else(|_| {
        shared.metrics.record_panic();
        let message = "internal error serving request";
        match (durability, mark) {
            (Some(d), Some(mark)) if !published => Written {
                panicked: true,
                ..abort_batch(d, mark, 500, message, trace_hex)
            },
            _ => Written {
                panicked: true,
                ..Written::plain(Response::error(500, "internal", message))
            },
        }
    })
}

/// Apply, log, fsync, publish, and auto-checkpoint when the record
/// threshold is crossed. `published` is set the moment the new engine is
/// visible to readers, after which nothing may be rolled back.
///
/// Any WAL failure — an append refused mid-batch or the group-commit fsync
/// refused — aborts the whole batch: the copy is discarded unpublished and
/// the log is physically rolled back to its pre-batch mark, so served state
/// and log never diverge and the abandoned records' LSNs and tuple slots
/// are reclaimed cleanly by the next batch. If even the rollback fails the
/// durability state is poisoned and every further mutation is refused until
/// restart.
fn commit(
    shared: &Shared,
    ops: &[MutateOp],
    mark: Option<WalMark>,
    trace_hex: &str,
    published: &mut bool,
) -> Written {
    let base = shared.engine.load();
    let applied = apply_ops(&base, ops);
    shared.metrics.record_mutate_copied(applied.copied.bytes);
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
            return abort_batch(d, mark, 503, reason, trace_hex);
        }
        if let Err(e) = d.wal.flush() {
            let reason = format!("write-ahead log sync failed: {e}");
            return abort_batch(d, mark, 503, &reason, trace_hex);
        }
        wal_lsn = Some(d.wal.next_lsn().saturating_sub(1));
        d.since_checkpoint
            .fetch_add(applied.applied as u64, Ordering::Relaxed);
    }
    let engine = Arc::new(applied.engine);
    shared.engine.store(engine.clone());
    *published = true;

    let mut checkpointed = false;
    if let Some(d) = &shared.durability {
        if d.checkpoint_every > 0
            && d.since_checkpoint.load(Ordering::Relaxed) >= d.checkpoint_every
        {
            match d.checkpoint(engine.database()) {
                Ok(()) => checkpointed = true,
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
    Written::plain(match applied.error.as_deref() {
        // Non-2xx responses carry the envelope; the partial-application
        // report rides along in `details` so callers keep the full picture.
        Some(message) => Response::error_detailed(400, "mutate_failed", message, body.trim_end()),
        None => Response::json(200, body),
    })
}

/// Abandon a batch that must not reach the log: roll the log back to its
/// pre-batch mark (the published engine was never touched) and report
/// `status` — `503` when the log refused the batch, `500` when the batch
/// panicked. A rollback failure leaves the on-disk log unknown — poison
/// durability so no later batch can interleave with the abandoned records.
fn abort_batch(
    d: &Durability,
    mark: WalMark,
    status: u16,
    reason: &str,
    trace_hex: &str,
) -> Written {
    let code = if status == 500 {
        "internal"
    } else {
        "wal_failed"
    };
    let response = match d.wal.truncate_to_mark(mark) {
        Ok(()) => Response::error(status, code, &format!("{reason}; batch rolled back")),
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
    };
    Written {
        wal_rollback: true,
        ..Written::plain(response)
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
    fn integers_a_json_number_cannot_hold_exactly_are_refused() {
        let safe = 9_007_199_254_740_991i64; // 2^53 - 1
        for n in [safe, -safe, 0] {
            assert_eq!(
                coerce(&Json::Number(n as f64), DataType::Int),
                Ok(Value::Int(n))
            );
        }
        // 1e300 used to be stored as i64::MAX; 2^53 may be a rounded 2^53+1.
        for n in [1e300, -1e300, 9_007_199_254_740_992.0, 1e19, f64::INFINITY] {
            let err = coerce(&Json::Number(n), DataType::Int).unwrap_err();
            assert!(err.contains("2^53"), "{n}: {err}");
        }
        // A float column takes them as they are.
        assert_eq!(
            coerce(&Json::Number(1e300), DataType::Float),
            Ok(Value::Float(1e300))
        );
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
