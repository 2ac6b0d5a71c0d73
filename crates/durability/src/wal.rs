//! The append-only write-ahead log: group commit, rollback to a mark,
//! rotation at a checkpoint, and [`read_one`], the one way a frame is read
//! back.

use crate::record::{decode_frame, encode_frame};
use precis_storage::{failpoint, Result, StorageError, WalOp, WalSink};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// When appended records reach the disk platter: group commit, an fsync
/// once every `n` appended records and on every explicit [`Wal::flush`].
/// `Batch(1)` syncs every append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    Batch(usize),
}

/// Monotone counters the server exports as `precis_wal_*` metrics.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended since open.
    pub appended: AtomicU64,
    /// fsync calls issued since open.
    pub fsyncs: AtomicU64,
}

/// A point in the log a writer can roll back to: the byte length of the
/// file and the LSN the next record would carry, taken together *before* a
/// batch via [`Wal::mark`]. If any append or fsync in the batch fails,
/// [`Wal::truncate_to_mark`] physically cuts the file back here — erasing
/// half-written frames and abandoned records so they can never interleave
/// with (or steal the LSNs/tids of) later acknowledged writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalMark {
    next_lsn: u64,
    bytes: u64,
}

/// The append side of the log. One writer at a time; share behind
/// [`SharedWal`] for sink use.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_lsn: u64,
    /// Byte length of the fully-written frame prefix. A failed `write_all`
    /// may leave extra partial bytes in the file past this point; rollback
    /// truncates to a mark ≤ this, which erases them.
    bytes: u64,
    /// Appends since the last fsync (drives [`FsyncPolicy::Batch`]).
    unsynced: usize,
    stats: Arc<WalStats>,
}

impl Wal {
    /// Create a fresh, empty log at `path`, truncating any existing file.
    /// The first record will carry LSN `next_lsn`.
    pub fn create(path: impl AsRef<Path>, policy: FsyncPolicy, next_lsn: u64) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        Ok(Wal {
            file,
            path,
            policy,
            next_lsn,
            bytes: 0,
            unsynced: 0,
            stats: Arc::new(WalStats::default()),
        })
    }

    /// Open an existing log for appending. `next_lsn` comes from recovery
    /// (one past the last valid record); recovery has already truncated any
    /// torn tail, so appending extends a clean prefix.
    pub(crate) fn open_for_append(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        next_lsn: u64,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let bytes = file.metadata().map_err(|e| io_err(&path, e))?.len();
        Ok(Wal {
            file,
            path,
            policy,
            next_lsn,
            bytes,
            unsynced: 0,
            stats: Arc::new(WalStats::default()),
        })
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Bytes of fully written frames in the log since its last rotation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Append one storage mutation; returns its LSN. Fsyncs per the policy
    /// — callers that acknowledge writes must still call [`Wal::flush`]
    /// before acknowledging (the group-commit barrier).
    pub fn append_op(&mut self, op: WalOp) -> Result<u64> {
        let _span = precis_obs::span("wal.append");
        failpoint::check("wal_append")?;
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, &op)?;
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, e))?;
        self.next_lsn += 1;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        self.stats.appended.fetch_add(1, Ordering::Relaxed);
        let FsyncPolicy::Batch(n) = self.policy;
        if self.unsynced >= n.max(1) {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Group-commit barrier: push buffered records to disk now.
    pub fn flush(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.sync()
    }

    fn sync(&mut self) -> Result<()> {
        let _span = precis_obs::span("wal.fsync");
        failpoint::check("wal_fsync")?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        self.unsynced = 0;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The current end of the log, for rolling a failed batch back. Take
    /// one before appending a batch; see [`Wal::truncate_to_mark`].
    pub fn mark(&self) -> WalMark {
        WalMark {
            next_lsn: self.next_lsn,
            bytes: self.bytes,
        }
    }

    /// Physically cut the log back to `mark`, durably: every frame appended
    /// after it — including any half-written frame a failed append left —
    /// is erased, and the next append reuses the mark's LSN at the mark's
    /// offset. The server's batch-abort path uses this so abandoned
    /// records can never coexist with later acknowledged ones claiming the
    /// same LSNs and tuple slots (recovery would truncate at the duplicate
    /// and lose acknowledged writes).
    ///
    /// If this itself fails the log's on-disk state is unknown; the caller
    /// must stop appending (the server poisons its durability state and
    /// refuses further mutations until restart).
    pub fn truncate_to_mark(&mut self, mark: WalMark) -> Result<()> {
        use std::io::Seek as _;
        self.file
            .set_len(mark.bytes)
            .map_err(|e| io_err(&self.path, e))?;
        // Rewind: set_len does not move the write cursor, and leaving it
        // past EOF would zero-fill a gap before the next frame. (Files
        // opened in append mode ignore the cursor; seeking is harmless.)
        self.file
            .seek(std::io::SeekFrom::Start(mark.bytes))
            .map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        self.next_lsn = mark.next_lsn;
        self.bytes = mark.bytes;
        self.unsynced = 0;
        Ok(())
    }

    /// Rotate after a checkpoint: the snapshot now covers every record, so
    /// the log restarts empty. LSNs keep counting — recovery uses the
    /// snapshot's LSN to skip anything older, which also makes a crash
    /// between snapshot install and rotation harmless.
    pub fn rotate(&mut self) -> Result<()> {
        use std::io::Seek as _;
        self.file.set_len(0).map_err(|e| io_err(&self.path, e))?;
        // Rewind: set_len does not move the write cursor, and leaving it
        // past EOF would zero-fill a gap before the next frame.
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, e))?;
        self.bytes = 0;
        self.sync()?;
        self.unsynced = 0;
        Ok(())
    }
}

fn io_err(path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("wal {}: {e}", path.display()))
}

/// A [`Wal`] shareable across engine clones: implements the storage
/// [`WalSink`] trait so a `Database` reports every mutation here.
#[derive(Debug, Clone)]
pub struct SharedWal(Arc<Mutex<Wal>>);

impl SharedWal {
    pub fn new(wal: Wal) -> Self {
        SharedWal(Arc::new(Mutex::new(wal)))
    }

    /// Run `f` with the locked writer (append batches, flush, checkpoint).
    pub fn with<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        let mut wal = self.0.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut wal)
    }

    /// Group-commit barrier; see [`Wal::flush`].
    pub fn flush(&self) -> Result<()> {
        self.with(|w| w.flush())
    }

    /// The current end of the log; see [`Wal::mark`].
    pub fn mark(&self) -> WalMark {
        self.with(|w| w.mark())
    }

    /// Roll a failed batch back; see [`Wal::truncate_to_mark`].
    pub fn truncate_to_mark(&self, mark: WalMark) -> Result<()> {
        self.with(|w| w.truncate_to_mark(mark))
    }

    pub fn stats(&self) -> Arc<WalStats> {
        self.with(|w| w.stats())
    }

    pub fn next_lsn(&self) -> u64 {
        self.with(|w| w.next_lsn())
    }
}

impl WalSink for SharedWal {
    fn record(&self, op: WalOp) -> Result<()> {
        self.with(|w| w.append_op(op)).map(|_lsn| ())
    }
}

/// Read the frame at `buf[offset..]`: `Ok(None)` at a clean end of log,
/// `Err(Corrupt)` at a torn or corrupt frame, and injected `wal_replay`
/// faults as errors. Recovery stops at the first error and cuts the log
/// there.
pub fn read_one(
    buf: &[u8],
    offset: usize,
) -> std::result::Result<Option<(usize, u64, WalOp)>, StorageError> {
    failpoint::check("wal_replay")?;
    decode_frame(buf, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, LAZY};
    use precis_storage::{TupleId, Value};

    /// The LSNs of the frames [`read_one`] accepts from the file at `path`,
    /// in order, and why it stopped short of the end, if it did.
    fn read_lsns(path: &Path) -> (Vec<u64>, Option<String>) {
        let buf = std::fs::read(path).unwrap();
        let (mut lsns, mut offset) = (Vec::new(), 0);
        loop {
            match read_one(&buf, offset) {
                Ok(Some((consumed, lsn, _))) => {
                    lsns.push(lsn);
                    offset += consumed;
                }
                Ok(None) => return (lsns, None),
                Err(e) => return (lsns, Some(e.to_string())),
            }
        }
    }

    fn op(i: u64) -> WalOp {
        WalOp::Insert {
            relation: "R".into(),
            tid: TupleId(i),
            values: vec![Value::from(i as i64), Value::from(format!("row {i}"))],
        }
    }

    #[test]
    fn appended_frames_read_back_in_order() {
        let dir = scratch_dir("wal-roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::Batch(1), 1).unwrap();
        for i in 0..10 {
            wal.append_op(op(i)).unwrap();
        }
        wal.flush().unwrap();
        assert_eq!(wal.next_lsn(), 11);
        drop(wal);
        assert_eq!(read_lsns(&path), ((1..11).collect(), None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tails_truncate_at_every_cut_point() {
        let dir = scratch_dir("wal-torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, LAZY, 0).unwrap();
        for i in 0..5 {
            wal.append_op(op(i)).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let frame_len = full.len() / 5;
        let cut_path = dir.join("cut.log");
        for end in 0..full.len() {
            std::fs::write(&cut_path, &full[..end]).unwrap();
            // A cut loses only whole frames off the tail, never earlier
            // records, and says why unless it fell on a frame boundary.
            let (lsns, truncated) = read_lsns(&cut_path);
            assert_eq!(lsns, (0..(end / frame_len) as u64).collect::<Vec<_>>());
            assert_eq!(truncated.is_some(), end % frame_len != 0, "cut at {end}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_record_cuts_the_rest() {
        let dir = scratch_dir("wal-corrupt");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, LAZY, 0).unwrap();
        for i in 0..5 {
            wal.append_op(op(i)).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let frame_len = bytes.len() / 5;
        // Flip a payload byte inside the third record.
        bytes[2 * frame_len + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (lsns, truncated) = read_lsns(&path);
        assert_eq!(lsns, vec![0, 1]);
        assert!(truncated.unwrap().contains("checksum"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_schedules_syncs() {
        let dir = scratch_dir("wal-fsync");
        let append_n = |policy, n: u64| {
            let mut wal = Wal::create(dir.join("w.log"), policy, 0).unwrap();
            for i in 0..n {
                wal.append_op(op(i)).unwrap();
            }
            let stats = wal.stats();
            (
                stats.appended.load(Ordering::Relaxed),
                stats.fsyncs.load(Ordering::Relaxed),
            )
        };
        assert_eq!(append_n(FsyncPolicy::Batch(1), 6), (6, 6));
        assert_eq!(append_n(FsyncPolicy::Batch(4), 6), (6, 1));
        assert_eq!(append_n(FsyncPolicy::Batch(0), 6), (6, 6));
        // An explicit flush syncs pending batch records exactly once.
        let mut wal = Wal::create(dir.join("w.log"), FsyncPolicy::Batch(100), 0).unwrap();
        wal.append_op(op(0)).unwrap();
        wal.flush().unwrap();
        wal.flush().unwrap(); // nothing pending: no extra fsync
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotate_empties_the_log_but_keeps_lsns_monotone() {
        let dir = scratch_dir("wal-rotate");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, LAZY, 0).unwrap();
        for i in 0..3 {
            wal.append_op(op(i)).unwrap();
        }
        wal.rotate().unwrap();
        assert_eq!(wal.next_lsn(), 3);
        wal.append_op(op(99)).unwrap();
        drop(wal);
        assert_eq!(read_lsns(&path), (vec![3], None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_to_mark_erases_a_failed_batch_and_reuses_its_lsns() {
        let dir = scratch_dir("wal-rollback");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, LAZY, 0).unwrap();
        for i in 0..3 {
            wal.append_op(op(i)).unwrap();
        }
        wal.flush().unwrap();
        let mark = wal.mark();
        assert_eq!(
            mark,
            WalMark {
                next_lsn: 3,
                bytes: std::fs::metadata(&path).unwrap().len(),
            }
        );
        // A "failed batch": two appended records plus stray partial bytes
        // from a torn third append land in the file past the mark.
        wal.append_op(op(3)).unwrap();
        wal.append_op(op(4)).unwrap();
        use std::io::Write as _;
        wal.file.write_all(&[0xAB; 7]).unwrap();
        wal.truncate_to_mark(mark).unwrap();
        assert_eq!(wal.next_lsn(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), mark.bytes);
        // The rolled-back LSNs and slots are reclaimed by the next batch;
        // the log reads back clean with no gap and no duplicate.
        wal.append_op(op(3)).unwrap();
        drop(wal);
        assert_eq!(read_lsns(&path), (vec![0, 1, 2, 3], None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_wal_rolls_back_across_restarts() {
        // open_for_append must learn the file's real length, or a later
        // rollback would truncate to the wrong offset.
        let dir = scratch_dir("wal-reopen-mark");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, LAZY, 0).unwrap();
        wal.append_op(op(0)).unwrap();
        drop(wal);
        let mut wal = Wal::open_for_append(&path, LAZY, 1).unwrap();
        let mark = wal.mark();
        assert_eq!(mark.bytes, std::fs::metadata(&path).unwrap().len());
        wal.append_op(op(1)).unwrap();
        wal.truncate_to_mark(mark).unwrap();
        wal.append_op(op(1)).unwrap();
        drop(wal);
        assert_eq!(read_lsns(&path), (vec![0, 1], None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_records_are_refused_at_append_time() {
        let dir = scratch_dir("wal-oversize");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, LAZY, 0).unwrap();
        let err = wal
            .append_op(WalOp::Delete {
                relation: "R".repeat((u16::MAX as usize) + 1),
                tid: TupleId(0),
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::WalFailed(_)), "{err:?}");
        // Nothing reached the file and the LSN did not advance.
        assert_eq!(wal.next_lsn(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_wal_is_a_wal_sink() {
        let dir = scratch_dir("wal-sink");
        let wal = Wal::create(dir.join("wal.log"), LAZY, 0).unwrap();
        let shared = SharedWal::new(wal);
        let sink: &dyn WalSink = &shared;
        sink.record(op(0)).unwrap();
        sink.record(op(1)).unwrap();
        shared.flush().unwrap();
        assert_eq!(shared.next_lsn(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
