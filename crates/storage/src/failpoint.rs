//! Failpoints: deterministic fault injection for the storage access paths.
//!
//! A failpoint is a named site in the storage engine (tid fetch, index
//! lookup, scan cursor, dump/load) where a test harness can arm an injected
//! [`StorageError`]. The précis testkit uses these to prove that every layer
//! above storage — result-database generation, the engine, the server —
//! surfaces injected faults as the documented error variants instead of
//! panicking or wedging a worker.
//!
//! Design constraints:
//!
//! * **Cheap when disarmed.** Sites sit on the hottest paths in the engine
//!   (`fetch_from` runs once per tuple read), so the disarmed check is a
//!   single relaxed atomic load of a global counter — no locking, no map
//!   lookup.
//! * **Deterministic.** An armed site fires after a configurable number of
//!   hits and for a configurable number of firings (`skip` / `times`), so a
//!   seed-driven harness can place a fault at exactly the N-th tuple read.
//! * **Scoped.** Arming is registry-global, but firing requires the hitting
//!   thread to participate: either it holds a [`thread_scope`] guard, or
//!   [`set_process_wide`] is on (needed when the faulted path runs on server
//!   worker threads). This keeps unrelated test threads unaffected
//!   by another test's armed faults. Harnesses that arm anything should hold
//!   [`exclusive()`] for the armed section anyway.

use crate::error::StorageError;
use crate::Result;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Every failpoint site threaded through the storage engine, by name.
///
/// Kept in one place so harnesses can iterate "all sites" without chasing
/// call sites; `check()` debug-asserts membership.
pub const SITES: &[&str] = &[
    "fetch_from",
    "lookup",
    "insert_into",
    "value_scan_open",
    "value_scan_next",
    "dump_to_file",
    "load_from_file",
    "load_from_string",
    "wal_append",
    "wal_fsync",
    "wal_replay",
];

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Inject [`StorageError::Io`].
    Io,
    /// Inject [`StorageError::Corrupt`].
    Corrupt,
    /// Panic at the site (the server's worker pool must survive this).
    Panic,
}

#[derive(Debug)]
struct Armed {
    kind: FailureKind,
    /// Hits to let through before the first firing.
    skip: u64,
    /// Firings remaining (`u64::MAX` = unlimited).
    times: u64,
    /// Total hits observed since arming, fired or not.
    hits: u64,
}

/// Count of currently armed sites; the disarmed fast path is a single
/// relaxed load of this.
static ARMED_SITES: AtomicUsize = AtomicUsize::new(0);

/// When set, every thread participates in armed failpoints (server
/// workers). Otherwise only threads inside a [`thread_scope`] do.
static PROCESS_WIDE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
}

fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Serialization guard for harnesses: the registry is process-global, so any
/// test that arms failpoints must hold this for its whole armed section.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Opt the current thread into armed failpoints for the guard's lifetime.
pub fn thread_scope() -> ThreadScope {
    let prev = IN_SCOPE.with(|c| c.replace(true));
    ThreadScope { prev }
}

/// See [`thread_scope`].
#[derive(Debug)]
pub struct ThreadScope {
    prev: bool,
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        IN_SCOPE.with(|c| c.set(self.prev));
    }
}

/// Make every thread participate in armed failpoints (needed when the
/// faulted path runs on server worker threads). Cleared by
/// [`disarm_all`].
pub fn set_process_wide(on: bool) {
    PROCESS_WIDE.store(on, Ordering::SeqCst);
}

fn site_name(site: &str) -> &'static str {
    SITES
        .iter()
        .copied()
        .find(|s| *s == site)
        .unwrap_or_else(|| panic!("unknown failpoint site {site:?}"))
}

/// Arm `site`: after letting `skip` participating hits through, fire `times`
/// times injecting `kind`, then fall dormant (but stay registered for hit
/// counting until [`disarm`]).
pub fn arm(site: &str, kind: FailureKind, skip: u64, times: u64) {
    let site = site_name(site);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if reg
        .insert(
            site,
            Armed {
                kind,
                skip,
                times,
                hits: 0,
            },
        )
        .is_none()
    {
        ARMED_SITES.fetch_add(1, Ordering::SeqCst);
    }
}

/// Arm `site` to fire on every participating hit, indefinitely.
pub fn arm_always(site: &str, kind: FailureKind) {
    arm(site, kind, 0, u64::MAX);
}

/// Disarm one site. Idempotent.
pub fn disarm(site: &str) {
    let site = site_name(site);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if reg.remove(site).is_some() {
        ARMED_SITES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Disarm every site and clear process-wide participation. Call from harness
/// cleanup (including on panic paths).
pub fn disarm_all() {
    PROCESS_WIDE.store(false, Ordering::SeqCst);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let removed = reg.len();
    reg.clear();
    ARMED_SITES.fetch_sub(removed, Ordering::SeqCst);
}

/// Participating hits observed at `site` since it was armed (0 if not
/// armed).
pub fn hits(site: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.get(site).map_or(0, |a| a.hits)
}

/// The check placed at each site. Disarmed cost: one relaxed atomic load.
#[inline]
pub fn check(site: &'static str) -> Result<()> {
    if ARMED_SITES.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    if !PROCESS_WIDE.load(Ordering::Relaxed) && !IN_SCOPE.with(Cell::get) {
        return Ok(());
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &'static str) -> Result<()> {
    debug_assert!(SITES.contains(&site), "unknown failpoint site {site:?}");
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let Some(armed) = reg.get_mut(site) else {
        return Ok(());
    };
    armed.hits += 1;
    if armed.skip > 0 {
        armed.skip -= 1;
        return Ok(());
    }
    if armed.times == 0 {
        return Ok(());
    }
    if armed.times != u64::MAX {
        armed.times -= 1;
    }
    let kind = armed.kind;
    drop(reg);
    match kind {
        FailureKind::Io => Err(StorageError::Io(format!("injected fault at {site}"))),
        FailureKind::Corrupt => Err(StorageError::Corrupt(format!("injected fault at {site}"))),
        FailureKind::Panic => panic!("injected panic at failpoint {site}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_pass() {
        let _gate = exclusive();
        disarm_all();
        let _scope = thread_scope();
        for &site in SITES {
            assert_eq!(check(site), Ok(()));
        }
    }

    #[test]
    fn armed_sites_do_not_fire_outside_a_scope() {
        let _gate = exclusive();
        disarm_all();
        arm_always("fetch_from", FailureKind::Io);
        // This thread has no scope and process-wide is off: nothing fires.
        assert!(check("fetch_from").is_ok());
        assert_eq!(hits("fetch_from"), 0);
        disarm_all();
    }

    #[test]
    fn skip_and_times_schedule_firings_deterministically() {
        let _gate = exclusive();
        disarm_all();
        let _scope = thread_scope();
        // Let 2 hits through, then fire twice, then dormant.
        arm("fetch_from", FailureKind::Io, 2, 2);
        assert!(check("fetch_from").is_ok());
        assert!(check("fetch_from").is_ok());
        assert!(matches!(check("fetch_from"), Err(StorageError::Io(_))));
        assert!(matches!(check("fetch_from"), Err(StorageError::Io(_))));
        assert!(check("fetch_from").is_ok());
        assert_eq!(hits("fetch_from"), 5);
        disarm("fetch_from");
        assert!(check("fetch_from").is_ok());
        assert_eq!(hits("fetch_from"), 0);
    }

    #[test]
    fn corrupt_kind_maps_to_corrupt_variant() {
        let _gate = exclusive();
        disarm_all();
        let _scope = thread_scope();
        arm_always("load_from_string", FailureKind::Corrupt);
        let err = check("load_from_string").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(m) if m.contains("load_from_string")));
        disarm_all();
    }

    #[test]
    fn process_wide_participation_reaches_other_threads() {
        let _gate = exclusive();
        disarm_all();
        arm_always("dump_to_file", FailureKind::Io);
        set_process_wide(true);
        let err = std::thread::spawn(|| check("dump_to_file"))
            .join()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        disarm_all();
        // disarm_all also turned process-wide off.
        assert!(!PROCESS_WIDE.load(Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "unknown failpoint site")]
    fn arming_an_unknown_site_is_a_programming_error() {
        arm("no_such_site", FailureKind::Io, 0, 1);
    }
}
