//! Crash recovery: load the snapshot, replay the WAL behind it, and
//! truncate — never fail — at the first torn, corrupt, or misapplied
//! record.
//!
//! The snapshot is the only base a data directory recovers from: a log
//! holds nothing but [`WalOp`]s, each continuing the database the snapshot
//! holds. The contract is *ACK-after-fsync*: every mutation that was
//! fsynced and acknowledged survives recovery; an unacknowledged tail may be
//! kept (if the OS flushed it) or cut (if it tore). Because the log is
//! applied strictly in order and the snapshot records the first LSN it does
//! *not* cover, recovery is idempotent — crashing during recovery and
//! recovering again yields the identical database.

use crate::snapshot::load_snapshot;
use crate::wal::read_one;
use precis_storage::{Database, Result, StorageError, WalOp};
use std::path::Path;

/// What recovery did, for logs and the server's `/metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot's `next_lsn`: the first LSN it does not cover.
    pub snapshot_lsn: u64,
    /// WAL records applied on top of the snapshot.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already covered them
    /// (a crash landed between snapshot install and WAL rotation).
    pub skipped: usize,
    /// Why the log tail was cut, if it was.
    pub truncated: Option<String>,
    /// The LSN the reopened WAL should assign next.
    pub next_lsn: u64,
}

/// A recovered database plus the [`RecoveryReport`] describing how it was
/// reassembled.
#[derive(Debug)]
pub struct Recovered {
    pub db: Database,
    pub report: RecoveryReport,
}

/// Recover the snapshot at `snapshot_path` and the log at `wal_path`.
/// Returns `Ok(None)` when there is no snapshot (a directory nothing has
/// bootstrapped), leaving any log as it is. A torn or corrupt WAL tail is
/// physically truncated so the next append extends a clean prefix.
pub(crate) fn recover(snapshot_path: &Path, wal_path: &Path) -> Result<Option<Recovered>> {
    let _span = precis_obs::span("wal.replay");
    let Some((mut db, snapshot_lsn)) = load_snapshot(snapshot_path)? else {
        return Ok(None);
    };
    let buf = match std::fs::read(wal_path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(StorageError::Io(format!("wal {}: {e}", wal_path.display()))),
    };

    let mut next_lsn = snapshot_lsn;
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    let mut truncated = None;
    let mut offset = 0usize;
    loop {
        let (consumed, lsn, op) = match read_one(&buf, offset) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                truncated = Some(e.to_string());
                break;
            }
        };
        if lsn < snapshot_lsn {
            skipped += 1;
            offset += consumed;
            continue;
        }
        if let Err(e) = apply(&mut db, &op) {
            // A record that decodes but does not apply means the log and
            // the snapshot disagree (e.g. an insert that would land on a
            // different tuple id). Serving the consistent prefix beats
            // refusing to start.
            truncated = Some(format!("record lsn {lsn}: {e}"));
            break;
        }
        replayed += 1;
        next_lsn = lsn + 1;
        offset += consumed;
    }

    if truncated.is_some() && (offset as u64) < buf.len() as u64 {
        truncate_file(wal_path, offset as u64)?;
    }

    let report = RecoveryReport {
        snapshot_lsn,
        replayed,
        skipped,
        truncated,
        next_lsn,
    };
    Ok(Some(Recovered { db, report }))
}

/// Apply one WAL record to the database being rebuilt. Insert replay
/// verifies the engine hands back the tuple id the record stored — a
/// snapshot numbers its tuples as the database it was taken of, so a
/// mismatch means the files are inconsistent and the log must be cut here.
fn apply(db: &mut Database, op: &WalOp) -> Result<()> {
    match op {
        WalOp::Insert {
            relation,
            tid,
            values,
        } => {
            // Verify BEFORE mutating: inserts claim the next slot, so a
            // mismatch is detectable up front and the database stays
            // exactly at the consistent prefix.
            let rel = db.schema().require_relation(relation)?;
            let next = db.table(rel).slot_count() as u64;
            if next != tid.0 {
                return Err(StorageError::Corrupt(format!(
                    "insert into {relation} would land on tid {next} but the log says {}",
                    tid.0
                )));
            }
            db.insert_into(rel, values.clone()).map(|_| ())
        }
        WalOp::Update {
            relation,
            tid,
            values,
        } => {
            let rel = db.schema().require_relation(relation)?;
            db.update(rel, *tid, values.clone())
        }
        WalOp::Delete { relation, tid } => {
            let rel = db.schema().require_relation(relation)?;
            db.delete(rel, *tid)
        }
    }
}

fn truncate_file(path: &Path, len: u64) -> Result<()> {
    let io_err = |e: std::io::Error| StorageError::Io(format!("wal {}: {e}", path.display()));
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err)?;
    f.set_len(len).map_err(io_err)?;
    f.sync_data().map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use crate::store::DurableStore;
    use crate::testutil::{sample_db, sample_schema, scratch_dir, LAZY};
    use crate::wal::{FsyncPolicy, SharedWal, Wal};
    use precis_storage::cow::CopyMeter;
    use precis_storage::{io, Value};
    use std::path::PathBuf;
    use std::sync::Arc;

    /// Bootstrap a live database whose mutations stream into a fresh WAL
    /// under `dir`, on an empty snapshot at LSN 0.
    fn live_db(dir: &Path) -> (Database, SharedWal) {
        let store = DurableStore::open(dir).unwrap();
        let empty = Database::new(sample_schema()).unwrap();
        let opened = store.open_or_bootstrap(empty, LAZY).unwrap();
        (opened.db, opened.wal)
    }

    fn recover_dir(dir: &Path) -> Result<Option<Recovered>> {
        DurableStore::open(dir)?.recover()
    }

    fn paths(dir: &Path) -> (PathBuf, PathBuf) {
        let store = DurableStore::open(dir).unwrap();
        (store.snapshot_path(), store.wal_path())
    }

    fn populate(db: &mut Database) {
        db.insert(
            "DIRECTOR",
            vec![Value::from(1), Value::from("Allen"), Value::from(7.25)],
        )
        .unwrap();
        db.insert(
            "DIRECTOR",
            vec![Value::from(2), Value::from("Coppola"), Value::Null],
        )
        .unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let t10 = db
            .insert(
                "MOVIE",
                vec![Value::from(10), Value::from("Match Pont"), Value::from(1)],
            )
            .unwrap();
        // Fix the typo via update, then delete and re-add a director's movie.
        db.update(
            movie,
            t10,
            vec![Value::from(10), Value::from("Match Point"), Value::from(1)],
        )
        .unwrap();
        let t11 = db
            .insert(
                "MOVIE",
                vec![Value::from(11), Value::from("Cut Scene"), Value::from(2)],
            )
            .unwrap();
        db.delete(movie, t11).unwrap();
        db.update(
            director,
            precis_storage::TupleId(1),
            vec![Value::from(2), Value::from("S. Coppola"), Value::from(8.0)],
        )
        .unwrap();
    }

    /// `rows` movies under one director, three ways — inserted with a
    /// snapshot kept every eight rows (a served engine's writer, batch by
    /// batch), loaded from the dump, replayed from the log — and the bytes
    /// each way copied, as the storage layer's meter counts them.
    fn copied_loading_one_parent(rows: i64) -> [u64; 3] {
        let dir = scratch_dir("rec-linear");
        let (mut db, wal) = live_db(&dir);
        let parent = vec![Value::from(1), Value::Null, Value::Null];
        db.insert("DIRECTOR", parent).unwrap();
        let meter = CopyMeter::new();
        let mut published = db.clone();
        for mid in 0..rows {
            let row = vec![Value::from(mid), Value::Null, Value::from(1)];
            db.insert("MOVIE", row).unwrap();
            if mid % 8 == 7 {
                published = db.clone();
            }
        }
        let inserted = meter.copied().bytes;
        drop(published);
        wal.flush().unwrap();

        let meter = CopyMeter::new();
        let loaded = io::load_from_string(&io::dump_to_string(&db)).unwrap();
        let loaded_copied = meter.copied().bytes;

        let meter = CopyMeter::new();
        let replayed = recover_dir(&dir).unwrap().unwrap().db;
        let replayed_copied = meter.copied().bytes;

        let movie = db.schema().relation_id("MOVIE").unwrap();
        for other in [&loaded, &replayed] {
            let under_one = other.lookup(movie, 2, &Value::from(1)).unwrap();
            assert_eq!(under_one.len(), rows as usize);
            assert_eq!(under_one, db.lookup(movie, 2, &Value::from(1)).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
        [inserted, loaded_copied, replayed_copied]
    }

    #[test]
    fn rows_under_one_parent_load_in_copies_linear_in_rows() {
        let (few, many) = (50_000, 200_000);
        let (at_few, at_many) = (
            copied_loading_one_parent(few),
            copied_loading_one_parent(many),
        );
        // What a row may cost: under snapshots a batch copies the table's
        // tail chunk, a key shard per row and one segment of the parent's
        // list (at PR 22 all 1.6 MB of it: 200 KB a row); with nothing shared
        // only the list's first thousand appends copy anything.
        let per_row = [
            ("insert loop", 16 << 10),
            ("io::load", 64),
            ("WAL replay", 64),
        ];
        for ((path, allowed), (few_bytes, many_bytes)) in
            per_row.into_iter().zip(at_few.into_iter().zip(at_many))
        {
            assert!(
                many_bytes <= 5 * few_bytes.max(1 << 20),
                "{path}: {few_bytes} B at {few} rows, {many_bytes} B at {many}"
            );
            assert!(
                many_bytes / many as u64 <= allowed,
                "{path}: {many_bytes} B"
            );
        }
    }

    #[test]
    fn empty_dir_recovers_to_nothing() {
        let dir = scratch_dir("rec-empty");
        assert!(recover_dir(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_log_replay_reproduces_the_live_database() {
        let dir = scratch_dir("rec-full");
        let (mut db, wal) = live_db(&dir);
        populate(&mut db);
        wal.flush().unwrap();
        let rec = recover_dir(&dir).unwrap().unwrap();
        assert_eq!(
            io::dump_to_string(&rec.db),
            io::dump_to_string(&db),
            "replay onto the empty snapshot must reproduce the live state"
        );
        assert!(rec.report.truncated.is_none());
        assert_eq!(rec.report.skipped, 0);
        assert_eq!(rec.report.replayed, 7);
        assert_eq!(rec.report.next_lsn, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_plus_tail_recovers_and_checkpoint_compacts() {
        let dir = scratch_dir("rec-snap-tail");
        let store = DurableStore::open(&dir).unwrap();
        let (mut db, wal) = live_db(&dir);
        populate(&mut db);
        // A compacting checkpoint mid-stream: what it returns takes over as
        // the live database, so the log continues in the snapshot's
        // numbering.
        let mut db = wal.with(|w| store.checkpoint(&db, w)).unwrap();
        db.set_wal_sink(Arc::new(wal.clone()));
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let tid = db
            .insert(
                "MOVIE",
                vec![Value::from(12), Value::from("Sleeper"), Value::from(1)],
            )
            .unwrap();
        db.update(
            movie,
            tid,
            vec![
                Value::from(12),
                Value::from("Sleeper (1973)"),
                Value::from(1),
            ],
        )
        .unwrap();
        wal.flush().unwrap();
        let rec = recover_dir(&dir).unwrap().unwrap();
        assert_eq!(io::dump_to_string(&rec.db), io::dump_to_string(&db));
        assert_eq!(rec.report.snapshot_lsn, 7);
        assert_eq!(rec.report.replayed, 2);
        assert_eq!(rec.report.skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_live_snapshot_keeps_tuple_ids_whichever_step_of_it_fails() {
        use precis_storage::failpoint::{self, FailureKind};
        let _gate = failpoint::exclusive();
        for rotate_fails in [false, true] {
            let dir = scratch_dir("rec-live-snap");
            let store = DurableStore::open(&dir).unwrap();
            let (mut db, wal) = live_db(&dir);
            // Leaves MOVIE with a tombstone at tid 1: a snapshot that
            // renumbered would hand the next insert tid 1, the live
            // database hands it tid 2.
            populate(&mut db);
            let snapshot = {
                let _scope = failpoint::thread_scope();
                if rotate_fails {
                    failpoint::arm("wal_fsync", FailureKind::Io, 0, 1);
                }
                let result = wal.with(|w| store.snapshot(&db, w));
                failpoint::disarm_all();
                result
            };
            assert_eq!(snapshot.is_err(), rotate_fails, "{snapshot:?}");
            // The database the snapshot was taken of stays the live one.
            let tid = db
                .insert(
                    "MOVIE",
                    vec![Value::from(12), Value::from("Sleeper"), Value::from(1)],
                )
                .unwrap();
            assert_eq!(tid, precis_storage::TupleId(2));
            wal.flush().unwrap();
            let rec = recover_dir(&dir).unwrap().unwrap();
            assert_eq!(rec.report.truncated, None);
            assert_eq!(rec.report.snapshot_lsn, 7);
            assert_eq!(rec.report.replayed, 1);
            assert_eq!(
                io::dump_to_string(&rec.db),
                io::dump_to_string(&db),
                "recovered tid for tid (rotate failed: {rotate_fails})"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stale_wal_records_are_skipped_not_double_applied() {
        // Simulate a crash between snapshot install and WAL rotation: the
        // snapshot covers everything but the old log is still on disk.
        let dir = scratch_dir("rec-stale");
        let (mut db, wal) = live_db(&dir);
        populate(&mut db);
        wal.flush().unwrap();
        write_snapshot(&db, wal.next_lsn(), paths(&dir).0).unwrap();
        let rec = recover_dir(&dir).unwrap().unwrap();
        assert_eq!(io::dump_to_string(&rec.db), io::dump_to_string(&db));
        assert_eq!(rec.report.replayed, 0);
        assert_eq!(rec.report.skipped, 7);
        assert_eq!(rec.report.next_lsn, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = scratch_dir("rec-torn");
        let (mut db, wal) = live_db(&dir);
        populate(&mut db);
        wal.flush().unwrap();
        let wal_path = paths(&dir).1;
        let full = std::fs::read(&wal_path).unwrap();
        for cut in [full.len() - 1, full.len() - 7, full.len() / 2] {
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let first = recover_dir(&dir).unwrap().unwrap();
            assert!(first.report.truncated.is_some(), "cut at {cut}");
            // The file was physically truncated: a second crash-and-recover
            // sees a clean log and lands on the identical database.
            let second = recover_dir(&dir).unwrap().unwrap();
            assert!(second.report.truncated.is_none());
            assert_eq!(
                io::dump_to_string(&first.db),
                io::dump_to_string(&second.db)
            );
            assert_eq!(first.report.next_lsn, second.report.next_lsn);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_tid_mismatch_cuts_the_log() {
        let dir = scratch_dir("rec-tidmismatch");
        let (snapshot_path, wal_path) = paths(&dir);
        let empty = Database::new(sample_schema()).unwrap();
        write_snapshot(&empty, 0, snapshot_path).unwrap();
        let mut wal = Wal::create(wal_path, LAZY, 0).unwrap();
        wal.append_op(WalOp::Insert {
            relation: "DIRECTOR".into(),
            // A fresh DIRECTOR table hands out tid 0; the log claiming 5
            // means snapshot and log disagree.
            tid: precis_storage::TupleId(5),
            values: vec![Value::from(1), Value::from("X"), Value::Null],
        })
        .unwrap();
        drop(wal);
        let rec = recover_dir(&dir).unwrap().unwrap();
        assert!(rec.report.truncated.unwrap().contains("tid"));
        assert_eq!(rec.db.total_tuples(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_without_a_snapshot_recovers_to_nothing_and_the_opener_bootstraps_it() {
        let dir = scratch_dir("rec-nosnapshot");
        let store = DurableStore::open(&dir).unwrap();
        let mut wal = store.create_wal(LAZY, 0).unwrap();
        wal.append_op(WalOp::Delete {
            relation: "MOVIE".into(),
            tid: precis_storage::TupleId(0),
        })
        .unwrap();
        drop(wal);
        let logged = std::fs::metadata(store.wal_path()).unwrap().len();
        assert!(logged > 0);
        assert!(store.recover().unwrap().is_none());
        // Recovery left the log as it was.
        assert_eq!(std::fs::metadata(store.wal_path()).unwrap().len(), logged);
        // The opener starts from the source: its snapshot at LSN 0, an
        // empty log.
        let opened = store.open_or_bootstrap(sample_db(), LAZY).unwrap();
        assert!(opened.recovered.is_none());
        assert_eq!(opened.wal.next_lsn(), 0);
        assert_eq!(std::fs::metadata(store.wal_path()).unwrap().len(), 0);
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.report.snapshot_lsn, 0);
        assert_eq!(rec.report.replayed, 0);
        assert_eq!(
            io::dump_to_string(&rec.db),
            io::dump_to_string(&sample_db())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_store_reopens_and_keeps_accepting_writes() {
        let dir = scratch_dir("rec-reopen");
        let (mut db, wal) = live_db(&dir);
        populate(&mut db);
        wal.flush().unwrap();
        drop((db, wal));
        // "Restart": recover, reopen the wal at the reported LSN, write more.
        let store = DurableStore::open(&dir).unwrap();
        let empty = Database::new(sample_schema()).unwrap();
        let opened = store
            .open_or_bootstrap(empty, FsyncPolicy::Batch(1))
            .unwrap();
        assert_eq!(opened.recovered.unwrap().next_lsn, 7);
        let (mut db, shared) = (opened.db, opened.wal);
        db.insert(
            "DIRECTOR",
            vec![Value::from(3), Value::from("Lee"), Value::from(9.0)],
        )
        .unwrap();
        drop((db, shared));
        let again = recover_dir(&dir).unwrap().unwrap();
        assert_eq!(again.report.truncated, None);
        let director = again.db.schema().relation_id("DIRECTOR").unwrap();
        assert_eq!(again.db.len(director), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
