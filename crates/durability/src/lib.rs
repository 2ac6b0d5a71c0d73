//! # precis-durability
//!
//! Durability for the précis engine: a data directory is one snapshot plus
//! the checksummed write-ahead log since it, recovered by replaying the log
//! onto the snapshot and truncating a torn tail instead of refusing to
//! start.
//!
//! The moving parts, bottom-up:
//!
//! * `crc` — dependency-free CRC-32 (IEEE) over record payloads.
//! * `record` — the binary frame codec (`len | crc | lsn kind body`); every
//!   frame is one [`precis_storage::WalOp`]. [`encode_frame`] and
//!   [`read_one`] are public for the fault harness.
//! * [`Wal`] / [`SharedWal`] — the append side with group commit
//!   ([`FsyncPolicy`]); `SharedWal` plugs into [`precis_storage::WalSink`]
//!   so every `Database` mutation streams here.
//! * [`write_snapshot`] — a `precisdb` dump with an LSN header, installed
//!   via temp file + atomic rename. A dump keeps every tuple id (tombstoned
//!   slots are written as holes), so a snapshot numbers its tuples as the
//!   live database does.
//! * [`DurableStore`] — the data-directory layout.
//!   [`DurableStore::open_or_bootstrap`] is the one way in: recover the
//!   snapshot and replay the log behind it ([`DurableStore::recover`], with
//!   an LSN floor and insert-tid verification), or bootstrap a snapshot at
//!   LSN 0 from a source database. A checkpoint is
//!   [`DurableStore::snapshot`] (write the snapshot, rotate the log, touch
//!   nothing else), and [`DurableStore::checkpoint`] is the compacting form
//!   the opener runs when recovery brought back tombstones, before any
//!   tuple id has been handed out.
//!
//! The durability contract is **ACK-after-fsync**: a mutation is durable
//! once [`Wal::flush`] (or a group-commit sync) returns and the write is
//! acknowledged. Unacknowledged tail records may survive a crash or may be
//! cut; either outcome is consistent.

mod crc;
mod record;
mod recover;
mod snapshot;
mod store;
#[cfg(test)]
mod testutil;
mod wal;

pub use record::encode_frame;
pub use recover::{Recovered, RecoveryReport};
pub use snapshot::write_snapshot;
pub use store::{DurableStore, Opened};
pub use wal::{read_one, FsyncPolicy, SharedWal, Wal, WalMark, WalStats};
