//! [`DurableStore`]: the on-disk layout of a durable précis database and
//! the checkpoint that ties its snapshot and its WAL together.
//!
//! A data directory holds exactly two files:
//!
//! ```text
//! <dir>/snapshot.precisdb   latest snapshot (precisnap header + precisdb dump)
//! <dir>/wal.log             append-only record log since that snapshot
//! ```
//!
//! **A checkpoint writes a snapshot.** `precisdb` dumps are lossless in
//! tuple ids (a tombstoned slot is a hole line), so the snapshot of a live
//! database numbers its tuples exactly as the live database does and the
//! log that continues after it replays onto it tid for tid — whichever step
//! of a checkpoint fails. [`DurableStore::snapshot`] is all a running server
//! does: dump at the log's next LSN, install, rotate the log. Both sides of
//! the crash window agree: recover before the rotation and the LSN floor
//! skips the stale log; recover after and the log is empty.
//!
//! **Compaction is a different act**, for when nobody holds a tuple id:
//! [`DurableStore::checkpoint`] renumbers the live tuples densely in memory,
//! snapshots *that* and hands it back to replace the database it was given.
//! `serve --data-dir` does it once, at open, between recovery and the index
//! build — so a tuple id is valid for the life of the process that reported
//! it.

use crate::recover::{recover, Recovered};
use crate::snapshot::write_snapshot;
use crate::wal::{FsyncPolicy, Wal};
use precis_storage::{Database, Result, StorageError};
use std::path::{Path, PathBuf};

/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.precisdb";
/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// A data directory: paths, recovery, and checkpointing.
#[derive(Debug, Clone)]
pub struct DurableStore {
    dir: PathBuf,
}

impl DurableStore {
    /// Open (creating if needed) the data directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<DurableStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::Io(format!("data dir {}: {e}", dir.display())))?;
        Ok(DurableStore { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Recover whatever the directory holds; see [`recover`].
    pub fn recover(&self) -> Result<Option<Recovered>> {
        recover(&self.dir)
    }

    /// Create a fresh, empty WAL (bootstrap, or tests).
    pub fn create_wal(&self, policy: FsyncPolicy, next_lsn: u64) -> Result<Wal> {
        Wal::create(self.wal_path(), policy, next_lsn)
    }

    /// Reopen the WAL for appending after recovery reported `next_lsn`.
    pub fn open_wal(&self, policy: FsyncPolicy, next_lsn: u64) -> Result<Wal> {
        Wal::open_for_append(self.wal_path(), policy, next_lsn)
    }

    /// Snapshot `db` — the live database the log at `wal` describes — as
    /// covering every LSN below `wal.next_lsn()`, then rotate the log. The
    /// caller is the only writer (the server's writer thread); `db` is read,
    /// never replaced: the snapshot numbers its tuples as `db` does.
    pub fn snapshot(&self, db: &Database, wal: &mut Wal) -> Result<()> {
        write_snapshot(db, wal.next_lsn(), self.snapshot_path())?;
        wal.rotate()
    }

    /// The compacting checkpoint: renumber `db`'s live tuples densely
    /// ([`Database::compacted`]), [`snapshot`](DurableStore::snapshot) the
    /// result and return it — it must replace `db`, since the log continues
    /// in its numbering. Tuple ids change: only for a caller nobody has
    /// handed one out yet.
    pub fn checkpoint(&self, db: &Database, wal: &mut Wal) -> Result<Database> {
        let compacted = db.compacted();
        self.snapshot(&compacted, wal)?;
        Ok(compacted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_db, scratch_dir};
    use precis_storage::{io, TupleId, Value};

    #[test]
    fn checkpoint_compacts_tombstones_and_rotates_the_log() {
        let dir = scratch_dir("store-ckpt");
        let store = DurableStore::open(&dir).unwrap();
        let mut db = sample_db();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        // Drop the movie first so DIRECTOR tid 0 is unreferenced, then
        // tombstone it: compaction must renumber the survivor down to 0.
        db.delete(movie, TupleId(0)).unwrap();
        db.delete(director, TupleId(0)).unwrap();
        let mut wal = store.create_wal(crate::FsyncPolicy::Never, 0).unwrap();
        for i in 0..4 {
            wal.append_op(precis_storage::WalOp::Delete {
                relation: "MOVIE".into(),
                tid: TupleId(i),
            })
            .unwrap();
        }
        let compacted = store.checkpoint(&db, &mut wal).unwrap();
        // Tombstoned DIRECTOR slot 0 is gone: the survivor now lives at 0.
        assert_eq!(compacted.len(director), 1);
        assert_eq!(
            compacted.table(director).get(TupleId(0)).unwrap().get(1),
            Value::from("Sofia Coppola")
        );
        // The log restarted empty but LSNs keep counting.
        assert_eq!(std::fs::metadata(store.wal_path()).unwrap().len(), 0);
        assert_eq!(wal.next_lsn(), 4);
        // A recovery right now sees snapshot-only state == the compaction.
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(io::dump_to_string(&rec.db), io::dump_to_string(&compacted));
        assert_eq!(rec.report.snapshot_lsn, Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_is_idempotent_and_paths_are_stable() {
        let dir = scratch_dir("store-open");
        let nested = dir.join("a/b");
        let store = DurableStore::open(&nested).unwrap();
        let store2 = DurableStore::open(&nested).unwrap();
        assert_eq!(store.snapshot_path(), store2.snapshot_path());
        assert_eq!(store.wal_path(), nested.join("wal.log"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
