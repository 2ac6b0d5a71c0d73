//! Snapshots: a `precisdb` dump with an LSN header, installed atomically.
//!
//! ```text
//! precisnap 1
//! lsn <next_lsn>
//! <precisdb dump ...>
//! ```
//!
//! `next_lsn` is the first LSN **not** covered by the snapshot: recovery
//! replays only WAL records with `lsn >= next_lsn`, which makes the crash
//! window between installing a snapshot and rotating the WAL harmless —
//! stale records are skipped, never double-applied.

use precis_storage::{io, Database, Result, StorageError};
use std::io::{BufWriter, Write as _};
use std::path::Path;

fn io_err(path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("snapshot {}: {e}", path.display()))
}

/// Write `db` to `path` crash-atomically: stream the dump into a temporary
/// sibling, fsync, rename over `path`, and best-effort fsync the directory.
/// A crash at any point leaves either the old snapshot or the new one.
pub fn write_snapshot(db: &Database, next_lsn: u64, path: impl AsRef<Path>) -> Result<()> {
    let _span = precis_obs::span("wal.snapshot_install");
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let f = std::fs::File::create(&tmp).map_err(|e| io_err(path, e))?;
        let mut w = BufWriter::new(f);
        write!(w, "precisnap 1\nlsn {next_lsn}\n").map_err(|e| io_err(path, e))?;
        io::dump_to(db, &mut w).map_err(|e| io_err(path, e))?;
        let f = w.into_inner().map_err(|e| io_err(path, e.into_error()))?;
        f.sync_all().map_err(|e| io_err(path, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load the snapshot at `path`: the database and the first LSN to replay on
/// top of it. `Ok(None)` when the file does not exist (a directory nothing
/// has bootstrapped); `Err(Corrupt)` when the file
/// exists but cannot be parsed — the atomic install makes that a sign of
/// external damage, not a crash artifact, so recovery refuses it loudly
/// rather than silently serving an empty database.
pub(crate) fn load_snapshot(path: impl AsRef<Path>) -> Result<Option<(Database, u64)>> {
    let path = path.as_ref();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, e)),
    };
    let corrupt = |msg: &str| StorageError::Corrupt(format!("snapshot {}: {msg}", path.display()));
    let rest = text
        .strip_prefix("precisnap 1\n")
        .ok_or_else(|| corrupt("missing precisnap header"))?;
    let (lsn_line, dump) = rest
        .split_once('\n')
        .ok_or_else(|| corrupt("missing lsn line"))?;
    let next_lsn = lsn_line
        .strip_prefix("lsn ")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| corrupt("bad lsn line"))?;
    let db = io::load_from_string(dump)?;
    Ok(Some((db, next_lsn)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{sample_db, scratch_dir};

    #[test]
    fn snapshots_round_trip_with_their_lsn() {
        let dir = scratch_dir("snap-roundtrip");
        let path = dir.join("snapshot.precisdb");
        let db = sample_db();
        write_snapshot(&db, 17, &path).unwrap();
        let (loaded, next_lsn) = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(next_lsn, 17);
        assert_eq!(
            io::dump_to_string(&loaded),
            io::dump_to_string(&db),
            "snapshot must preserve the database byte-for-byte"
        );
        assert!(
            !dir.join("snapshot.precisdb.tmp").exists(),
            "temp file must not survive installation"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_none_and_damage_is_corrupt() {
        let dir = scratch_dir("snap-missing");
        let path = dir.join("snapshot.precisdb");
        assert!(load_snapshot(&path).unwrap().is_none());
        std::fs::write(&path, "not a snapshot at all\n").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::write(&path, "precisnap 1\nlsn banana\nprecisdb 1\n").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reinstall_replaces_wholesale() {
        let dir = scratch_dir("snap-reinstall");
        let path = dir.join("snapshot.precisdb");
        write_snapshot(&sample_db(), 3, &path).unwrap();
        let mut db = sample_db();
        let rel = db.schema().relation_id("MOVIE").unwrap();
        db.insert_into(
            rel,
            vec![
                precis_storage::Value::from(11),
                precis_storage::Value::from("Interiors"),
                precis_storage::Value::from(1),
            ],
        )
        .unwrap();
        write_snapshot(&db, 9, &path).unwrap();
        let (loaded, next_lsn) = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(next_lsn, 9);
        assert_eq!(loaded.total_tuples(), db.total_tuples());
        std::fs::remove_dir_all(&dir).ok();
    }
}
