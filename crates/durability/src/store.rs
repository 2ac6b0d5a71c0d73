//! [`DurableStore`]: the on-disk layout of a durable précis database and
//! the checkpoint protocol that ties snapshots and the WAL together.
//!
//! A data directory holds exactly two files:
//!
//! ```text
//! <dir>/snapshot.precisdb   latest snapshot (precisnap header + precisdb dump)
//! <dir>/wal.log             append-only record log since that snapshot
//! ```
//!
//! **Checkpoint = compaction point.** `precisdb` dumps skip tombstones, so
//! a reloaded snapshot renumbers tuple ids densely. To keep live tids equal
//! to snapshot tids (which insert-replay verification depends on), a
//! checkpoint dumps the live database, rotates the WAL, *reloads the dump*,
//! and hands the compacted reload back to the caller as the new live
//! database. Both sides of the crash window agree: recover before the
//! rotation and the LSN floor skips the stale log; recover after and the
//! log is empty.

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

    /// Checkpoint: snapshot `db` (covering every LSN below `wal.next_lsn()`),
    /// rotate the log, and return the compacted reload that must replace the
    /// live database. The caller is the only writer (the server's writer
    /// thread) and re-attaches its WAL sink and rebuilds its index on the
    /// returned database.
    pub fn checkpoint(&self, db: &Database, wal: &mut Wal) -> Result<Database> {
        write_snapshot(db, wal.next_lsn(), self.snapshot_path())?;
        wal.rotate()?;
        let _span = precis_obs::span("wal.checkpoint.reload");
        let snap = crate::snapshot::load_snapshot(self.snapshot_path())?.ok_or_else(|| {
            StorageError::Corrupt("snapshot vanished immediately after checkpoint".into())
        })?;
        Ok(snap.db)
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
