//! [`DurableStore`]: the on-disk layout of a durable précis database, the
//! one way a process opens it, and the checkpoint that ties its snapshot
//! and its WAL together.
//!
//! A data directory holds exactly two files:
//!
//! ```text
//! <dir>/snapshot.precisdb   latest snapshot (precisnap header + precisdb dump)
//! <dir>/wal.log             append-only record log since that snapshot
//! ```
//!
//! **Opening** is [`DurableStore::open_or_bootstrap`]: recover the snapshot
//! and the log behind it, or — with no snapshot — write the source database
//! as the snapshot at LSN 0 beside an empty log. Either way the database
//! comes back with the log attached as its sink.
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
//! The opener does it when recovery brought back tombstones — between
//! recovery and the index build, so a tuple id is valid for the life of the
//! process that reported it.

use crate::recover::{recover, Recovered, RecoveryReport};
use crate::snapshot::write_snapshot;
use crate::wal::{FsyncPolicy, SharedWal, Wal};
use precis_storage::{Database, Result, StorageError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot file name inside a data directory.
const SNAPSHOT_FILE: &str = "snapshot.precisdb";
/// WAL file name inside a data directory.
const WAL_FILE: &str = "wal.log";

/// A data directory: paths, opening, recovery, and checkpointing.
#[derive(Debug, Clone)]
pub struct DurableStore {
    dir: PathBuf,
}

/// What [`DurableStore::open_or_bootstrap`] hands back: the database to
/// serve, with `wal` attached as its sink, and what opening did.
#[derive(Debug)]
pub struct Opened {
    pub db: Database,
    pub wal: SharedWal,
    /// How recovery went, or `None` when the directory was bootstrapped
    /// from the source.
    pub recovered: Option<RecoveryReport>,
    /// Tombstoned slots the compacting checkpoint at open reclaimed.
    pub compacted: usize,
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

    /// Recover the snapshot and the log behind it; `Ok(None)` when there is
    /// no snapshot (any log is left as it is).
    pub fn recover(&self) -> Result<Option<Recovered>> {
        recover(&self.snapshot_path(), &self.wal_path())
    }

    /// Create a fresh, empty WAL whose first record carries `next_lsn`.
    pub fn create_wal(&self, policy: FsyncPolicy, next_lsn: u64) -> Result<Wal> {
        Wal::create(self.wal_path(), policy, next_lsn)
    }

    /// Bring the directory's database back, or start one from `source`:
    ///
    /// * with a snapshot, recover it and the log behind it (the directory's
    ///   state beats `source`), reopen the log at the next LSN, and compact
    ///   away tombstoned slots if recovery brought any back;
    /// * without one, snapshot `source` at LSN 0 beside an empty log.
    ///
    /// The database comes back with the log attached as its sink.
    pub fn open_or_bootstrap(&self, source: Database, policy: FsyncPolicy) -> Result<Opened> {
        let (mut db, wal, recovered, compacted) = match self.recover()? {
            Some(Recovered { db, report }) => {
                let mut wal = Wal::open_for_append(self.wal_path(), policy, report.next_lsn)?;
                let compacted = db.tombstoned_slots();
                let db = if compacted > 0 {
                    self.checkpoint(&db, &mut wal)?
                } else {
                    db
                };
                (db, wal, Some(report), compacted)
            }
            None => {
                write_snapshot(&source, 0, self.snapshot_path())?;
                (source, self.create_wal(policy, 0)?, None, 0)
            }
        };
        let wal = SharedWal::new(wal);
        db.set_wal_sink(Arc::new(wal.clone()));
        Ok(Opened {
            db,
            wal,
            recovered,
            compacted,
        })
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
    use crate::testutil::{sample_db, scratch_dir, LAZY};
    use precis_storage::{io, TupleId, Value, WalOp};

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
        let mut wal = store.create_wal(LAZY, 0).unwrap();
        for i in 0..4 {
            wal.append_op(WalOp::Delete {
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
        assert_eq!(rec.report.snapshot_lsn, 4);
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

    /// The opener's three outcomes, one start after another on the same
    /// directory: fresh, recovered, and recovered with tombstones compacted.
    #[test]
    fn the_opener_bootstraps_recovers_and_compacts() {
        let dir = scratch_dir("store-opener");
        let store = DurableStore::open(&dir).unwrap();
        let dump = |db: &Database| io::dump_to_string(db);

        // Fresh: the source at LSN 0 beside an empty log, the sink attached.
        let mut opened = store.open_or_bootstrap(sample_db(), LAZY).unwrap();
        assert!(opened.recovered.is_none());
        assert_eq!(opened.compacted, 0);
        assert_eq!(dump(&opened.db), dump(&sample_db()));
        assert_eq!(opened.wal.next_lsn(), 0);
        let movie = opened.db.schema().relation_id("MOVIE").unwrap();
        let interiors = vec![Value::from(11), Value::from("Interiors"), Value::from(1)];
        opened.db.insert_into(movie, interiors).unwrap();
        opened.wal.flush().unwrap();
        let live = dump(&opened.db);
        drop(opened);

        // Recovered: the directory's state beats a source that differs.
        let mut opened = store
            .open_or_bootstrap(Database::new(sample_db().schema().clone()).unwrap(), LAZY)
            .unwrap();
        let report = opened.recovered.clone().unwrap();
        assert_eq!((report.snapshot_lsn, report.replayed), (0, 1));
        assert_eq!(opened.compacted, 0);
        assert_eq!(dump(&opened.db), live);
        assert_eq!(opened.wal.next_lsn(), 1);
        // Its log is open for appending behind the replayed record.
        opened.db.delete(movie, TupleId(0)).unwrap();
        opened.wal.flush().unwrap();
        drop(opened);

        // Recovered and compacted: the tombstone is reclaimed and the
        // compaction is the new snapshot, the log empty behind it.
        let opened = store.open_or_bootstrap(sample_db(), LAZY).unwrap();
        let report = opened.recovered.clone().unwrap();
        assert_eq!((report.snapshot_lsn, report.replayed), (0, 2));
        assert_eq!(opened.compacted, 1);
        assert_eq!(opened.db.tombstoned_slots(), 0);
        assert_eq!(opened.db.len(movie), 1);
        assert_eq!(opened.db.table(movie).slot_count(), 1);
        assert_eq!(std::fs::metadata(store.wal_path()).unwrap().len(), 0);
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.report.snapshot_lsn, 2);
        assert_eq!(dump(&rec.db), dump(&opened.db));
        std::fs::remove_dir_all(&dir).ok();
    }
}
