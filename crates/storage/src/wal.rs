//! The write-ahead-log hook: storage mutations describe themselves as
//! [`WalOp`]s and hand them to an attached [`WalSink`].
//!
//! The storage crate knows nothing about files, fsync policies or record
//! formats — `precis-durability` implements [`WalSink`] over an append-only
//! log, and a database without a sink attached pays one `Option` check per
//! mutation. The sink is called *after* the in-memory mutation succeeds, so
//! a sink error means "the mutation applied in memory but was not made
//! durable". Sink errors are wrapped in [`crate::StorageError::WalFailed`] so
//! callers that promise durability can tell them apart from validation
//! failures: they must treat the operation as failed and discard the
//! in-memory state (the server's mutation path applies batches to a
//! throwaway clone, rolls the log back to its pre-batch offset, and only
//! publishes on success).

use crate::tuple::TupleId;
use crate::value::Value;
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// One logical mutation, in replay order. Tuple ids are slot positions and
/// are deterministic given the operation history (inserts always claim
/// `slot_count`, deletes tombstone without reuse, updates keep their slot),
/// so a log of `WalOp`s replayed against the same starting state reproduces
/// the exact same tuple ids.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A tuple was inserted and assigned `tid`.
    Insert {
        relation: String,
        tid: TupleId,
        values: Vec<Value>,
    },
    /// The tuple at `tid` was replaced in place.
    Update {
        relation: String,
        tid: TupleId,
        values: Vec<Value>,
    },
    /// The tuple at `tid` was deleted (slot tombstoned, never reused).
    Delete { relation: String, tid: TupleId },
}

impl WalOp {
    /// The relation this operation touches.
    pub fn relation(&self) -> &str {
        match self {
            WalOp::Insert { relation, .. }
            | WalOp::Update { relation, .. }
            | WalOp::Delete { relation, .. } => relation,
        }
    }
}

/// Receiver for mutation records. Implementations must be safe to share
/// across threads (the server publishes engine snapshots that all hold the
/// same sink).
pub trait WalSink: Send + Sync + fmt::Debug {
    /// Record one applied mutation. An `Err` means the operation could not
    /// be logged; the in-memory mutation has already happened.
    fn record(&self, op: WalOp) -> Result<()>;
}

/// A sink that buffers records in memory behind a mutex — the reference
/// implementation used by storage tests and the testkit.
#[derive(Debug, Default)]
pub struct MemoryWalSink {
    records: std::sync::Mutex<Vec<WalOp>>,
}

impl MemoryWalSink {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Every record seen so far, in emission order.
    pub fn records(&self) -> Vec<WalOp> {
        self.records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WalSink for MemoryWalSink {
    fn record(&self, op: WalOp) -> Result<()> {
        self.records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(op);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemoryWalSink::new();
        for i in 0..3 {
            sink.record(WalOp::Insert {
                relation: "R".into(),
                tid: TupleId(i),
                values: vec![Value::from(i as i64)],
            })
            .unwrap();
        }
        let recs = sink.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].relation(), "R");
        assert!(matches!(&recs[1], WalOp::Insert { tid, .. } if *tid == TupleId(1)));
    }
}
