//! # precis-durability
//!
//! Durability for the précis engine: an append-only checksummed
//! write-ahead log, atomic snapshots, and crash recovery that truncates a
//! torn tail instead of refusing to start.
//!
//! The moving parts, bottom-up:
//!
//! * [`crc::crc32`] — dependency-free CRC-32 (IEEE) over record payloads.
//! * [`record`] — the binary frame codec (`len | crc | lsn kind body`).
//! * [`Wal`] / [`SharedWal`] — the append side with group commit under a
//!   configurable [`FsyncPolicy`]; `SharedWal` plugs into
//!   [`precis_storage::WalSink`] so every `Database` mutation streams here.
//! * [`write_snapshot`] / [`load_snapshot`] — `precisdb` dumps with an LSN
//!   header, installed via temp file + atomic rename. A dump keeps every
//!   tuple id (tombstoned slots are written as holes), so a snapshot
//!   numbers its tuples as the live database does.
//! * [`recover()`] — snapshot + WAL-tail replay with an LSN floor, insert-tid
//!   verification, and physical truncate-at-first-bad-record.
//! * [`DurableStore`] — the data-directory layout; a checkpoint is
//!   [`DurableStore::snapshot`] (write the snapshot, rotate the log, touch
//!   nothing else), and [`DurableStore::checkpoint`] is the compacting form
//!   a process runs once, at open, before it has handed out a tuple id.
//!
//! The durability contract is **ACK-after-fsync**: a mutation is durable
//! once [`Wal::flush`] (or an `Always`/`Batch` policy sync) returns and the
//! write is acknowledged. Unacknowledged tail records may survive a crash
//! or may be cut; either outcome is consistent.

pub mod crc;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod store;
#[cfg(test)]
mod testutil;
pub mod wal;

pub use record::{decode_frame, encode_frame, WalEntry, MAX_PAYLOAD};
pub use recover::{recover, Recovered, RecoveryReport};
pub use snapshot::{load_snapshot, write_snapshot, Snapshot};
pub use store::{DurableStore, SNAPSHOT_FILE, WAL_FILE};
pub use wal::{read_one, scan_wal, FsyncPolicy, SharedWal, Wal, WalMark, WalScan, WalStats};
