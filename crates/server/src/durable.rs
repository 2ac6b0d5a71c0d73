//! What `serve --data-dir` attaches to a server: the snapshot store and the
//! shared WAL handle, the auto-checkpoint that compacts them, and the
//! `precis_wal_*` series that report on both. The write path that appends
//! to the log lives in [`crate::mutate`]; it and the checkpoint both run on
//! the server's one writer thread, so the second engine a checkpoint builds
//! (the compacted reload and its index) lives in that thread's allocator
//! arena, beside the copies batches make, and nowhere else.

use precis_core::PrecisEngine;
use precis_durability::{DurableStore, SharedWal};
use precis_index::InvertedIndex;
use precis_storage::WalSink;
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
    /// time the writer thread spent on them inside the batches that paid
    /// for one, with every later batch waiting (exported as a metric, in
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
}

/// Checkpoint the engine's database: snapshot + WAL rotation, then rebuild
/// the engine around the compacted reload (fresh index build — allowed at
/// checkpoint time, never on the per-mutation path) with the WAL sink
/// re-attached. Returns the replacement engine to publish; it keeps the
/// cost model, profiles and schema memo of the engine it replaces.
pub(crate) fn checkpoint_engine(
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
