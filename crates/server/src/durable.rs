//! What `serve --data-dir` attaches to a server: the snapshot store and the
//! shared WAL handle, the auto-checkpoint that ties them together, and the
//! `precis_wal_*` series that report on both. The write path that appends
//! to the log lives in [`crate::mutate`]; it and the checkpoint both run on
//! the server's one writer thread. A checkpoint reads the published
//! database and writes two files — it builds no engine and publishes none,
//! so nothing a reader holds, and no tuple id a client holds, changes.

use precis_durability::{DurableStore, SharedWal};
use precis_storage::Database;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Microseconds those checkpoints took, snapshot to rotated log — time
    /// the writer thread spent on them inside the batches that paid for
    /// one, with every later batch waiting (exported as a metric, in
    /// seconds).
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

    /// Checkpoint `db`, the database just published: snapshot it at the
    /// log's next LSN and rotate the log (`wal.snapshot_install` and
    /// `wal.fsync` are recorded inside). The snapshot keeps `db`'s tuple
    /// ids, so a failure at either step leaves snapshot, log and served
    /// state in agreement and the next batch simply tries again.
    pub(crate) fn checkpoint(&self, db: &Database) -> precis_storage::Result<()> {
        let started = Instant::now();
        self.wal.with(|w| self.store.snapshot(db, w))?;
        self.since_checkpoint.store(0, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// Append the `precis_wal_*` series to a `/v1/metrics` exposition.
pub(crate) fn render_wal_metrics(out: &mut String, d: &Durability) {
    let stats = d.wal.stats();
    let _ = write!(
        out,
        "# HELP precis_wal_appended_total WAL records appended since start.\n\
         # TYPE precis_wal_appended_total counter\n\
         precis_wal_appended_total {}\n\
         # HELP precis_wal_fsyncs_total WAL fsync calls since start.\n\
         # TYPE precis_wal_fsyncs_total counter\n\
         precis_wal_fsyncs_total {}\n\
         # HELP precis_wal_checkpoints_total Snapshot checkpoints taken since start.\n\
         # TYPE precis_wal_checkpoints_total counter\n\
         precis_wal_checkpoints_total {}\n\
         # HELP precis_wal_checkpoint_seconds_total Time the writer thread spent in those checkpoints, inside the batches that paid for them.\n\
         # TYPE precis_wal_checkpoint_seconds_total counter\n\
         precis_wal_checkpoint_seconds_total {:.6}\n\
         # HELP precis_wal_checkpoint_failures_total Auto-checkpoint attempts that failed.\n\
         # TYPE precis_wal_checkpoint_failures_total counter\n\
         precis_wal_checkpoint_failures_total {}\n\
         # HELP precis_wal_next_lsn The LSN the next WAL record will carry.\n\
         # TYPE precis_wal_next_lsn gauge\n\
         precis_wal_next_lsn {}\n\
         # HELP precis_wal_bytes Bytes in the WAL since its last rotation.\n\
         # TYPE precis_wal_bytes gauge\n\
         precis_wal_bytes {}\n",
        stats.appended.load(Ordering::Relaxed),
        stats.fsyncs.load(Ordering::Relaxed),
        d.checkpoints.load(Ordering::Relaxed),
        d.checkpoint_micros.load(Ordering::Relaxed) as f64 / 1e6,
        d.checkpoint_failures.load(Ordering::Relaxed),
        d.wal.next_lsn(),
        d.wal.with(|w| w.bytes()),
    );
}
