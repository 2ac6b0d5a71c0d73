//! Lock-free snapshot publication for read-mostly shared state.
//!
//! [`SnapshotCell`] hands out [`Arc`] snapshots of a value to any number of
//! reader threads without a reader-side lock: the load path is an atomic
//! pointer read plus a hazard-slot announcement, both wait-free when a slot
//! is available. Writers swap in a new snapshot and retire the old one only
//! after proving no reader still holds a raw pointer to it.
//!
//! The précis server keeps its engine behind one of these cells so worker
//! threads answering queries never contend on a lock, while engine swaps
//! (bulk reloads, schema changes) stay safe and immediate. Readers that
//! loaded the *old* snapshot keep a consistent engine: its database and
//! index never change under them.
//!
//! ## Protocol
//!
//! Std-only hazard pointers, sized for a fixed reader fleet:
//!
//! 1. A reader loads `current` (`Acquire`), publishes the raw pointer into a
//!    free hazard slot (`SeqCst`), then re-checks `current`. If unchanged,
//!    the writer cannot have retired it (retirement scans slots *after* the
//!    swap); the reader bumps the strong count and clears its slot.
//! 2. If `current` moved mid-announcement, the reader retries; after a few
//!    failed rounds — or when every slot is busy — it falls back to a mutex
//!    shared with writers, where cloning the `Arc` is trivially safe.
//! 3. A writer swaps `current` (`SeqCst`), briefly takes the fallback mutex
//!    (so no fallback reader is mid-clone on the old pointer), spin-waits
//!    until no hazard slot holds the old pointer, then drops its reference.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// Number of hazard slots: bounds the number of *concurrent lock-free*
/// loads, not the number of reader threads (slots are claimed per load and
/// released immediately). Excess concurrent readers fall back to the mutex.
const HAZARD_SLOTS: usize = 64;

/// How often to re-race the fast path before giving up on it.
const FAST_RETRIES: usize = 8;

/// A lock-free publication cell: readers take `Arc` snapshots wait-free,
/// writers atomically replace the value.
///
/// ```
/// use precis_core::SnapshotCell;
/// use std::sync::Arc;
///
/// let cell = SnapshotCell::new(Arc::new(1));
/// let snap = cell.load();
/// cell.store(Arc::new(2));
/// assert_eq!(*snap, 1); // old snapshot stays consistent
/// assert_eq!(*cell.load(), 2); // new readers see the new value
/// ```
pub struct SnapshotCell<T> {
    current: AtomicPtr<T>,
    hazards: Box<[AtomicPtr<T>]>,
    /// Serializes writers, and serves as the readers' fallback path.
    fallback: Mutex<()>,
}

impl<T> SnapshotCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        SnapshotCell {
            current: AtomicPtr::new(Arc::into_raw(value) as *mut T),
            hazards: (0..HAZARD_SLOTS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            fallback: Mutex::new(()),
        }
    }

    /// Take a snapshot of the current value. Wait-free while a hazard slot
    /// is free; degrades to a short mutex hold under extreme reader
    /// concurrency, never to blocking on a writer's whole update.
    pub fn load(&self) -> Arc<T> {
        for _ in 0..FAST_RETRIES {
            let ptr = self.current.load(Ordering::Acquire);
            let Some(slot) = self.claim_slot(ptr) else {
                break;
            };
            // Re-validate: if `current` still equals our announced pointer,
            // any writer that swaps from here on must also see our hazard
            // announcement (both are SeqCst) and will wait for us.
            if self.current.load(Ordering::SeqCst) == ptr {
                // SAFETY: `ptr` came from `Arc::into_raw` and is protected
                // by the hazard slot, so its strong count is ≥ 1 here.
                let arc = unsafe {
                    Arc::increment_strong_count(ptr);
                    Arc::from_raw(ptr)
                };
                slot.store(std::ptr::null_mut(), Ordering::Release);
                return arc;
            }
            // A writer moved `current` between our load and announcement;
            // release the stale claim and race again.
            slot.store(std::ptr::null_mut(), Ordering::Release);
        }
        // Slow path: under the fallback mutex no writer is retiring
        // (writers take this mutex after swapping, before retiring).
        let _guard = self.fallback.lock().unwrap_or_else(|e| e.into_inner());
        let ptr = self.current.load(Ordering::Acquire);
        // SAFETY: the writer holding the previous value cannot retire it
        // while we hold the fallback mutex; the count is ≥ 1.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Publish a new value, retiring the old snapshot once no reader's
    /// hazard slot still references it.
    pub fn store(&self, value: Arc<T>) {
        let new = Arc::into_raw(value) as *mut T;
        let old = self.current.swap(new, Ordering::SeqCst);
        // Lock/unlock the fallback mutex: any fallback reader that loaded
        // `old` has finished its clone once we acquire it, and readers
        // arriving later will load `new`.
        drop(self.fallback.lock().unwrap_or_else(|e| e.into_inner()));
        // Wait out fast-path readers still announcing `old`.
        for slot in self.hazards.iter() {
            while slot.load(Ordering::SeqCst) == old {
                std::hint::spin_loop();
            }
        }
        // SAFETY: `old` came from `Arc::into_raw` in `new`/a prior `store`,
        // no hazard slot references it, and `current` no longer does.
        drop(unsafe { Arc::from_raw(old) });
    }

    /// Announce `ptr` in a free hazard slot, returning the claimed slot.
    fn claim_slot(&self, ptr: *mut T) -> Option<&AtomicPtr<T>> {
        self.hazards.iter().find(|slot| {
            slot.compare_exchange(
                std::ptr::null_mut(),
                ptr,
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_ok()
        })
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        let ptr = *self.current.get_mut();
        // SAFETY: exclusive access; the cell owns one strong count.
        drop(unsafe { Arc::from_raw(ptr) });
    }
}

impl<T> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell").finish_non_exhaustive()
    }
}

// SAFETY: the cell shares `Arc<T>` across threads, so the same bounds as
// `Arc` apply.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// Counts live instances so leaks and double-frees both show up.
    struct Tracked {
        value: usize,
        live: Arc<AtomicUsize>,
    }

    impl Tracked {
        fn new(value: usize, live: &Arc<AtomicUsize>) -> Arc<Self> {
            live.fetch_add(1, Ordering::SeqCst);
            Arc::new(Tracked {
                value,
                live: live.clone(),
            })
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_store_and_drop_balance_counts() {
        let live = Arc::new(AtomicUsize::new(0));
        {
            let cell = SnapshotCell::new(Tracked::new(1, &live));
            let one = cell.load();
            cell.store(Tracked::new(2, &live));
            assert_eq!(one.value, 1);
            assert_eq!(cell.load().value, 2);
            drop(one);
            assert_eq!(live.load(Ordering::SeqCst), 1, "old snapshot retired");
        }
        assert_eq!(live.load(Ordering::SeqCst), 0, "cell drop retires current");
    }

    #[test]
    fn held_snapshots_survive_many_swaps() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(Tracked::new(0, &live));
        let held: Vec<Arc<Tracked>> = (0..10)
            .map(|i| {
                let snap = cell.load();
                cell.store(Tracked::new(i + 1, &live));
                snap
            })
            .collect();
        for (i, h) in held.iter().enumerate() {
            assert_eq!(h.value, i);
        }
        drop(held);
        assert_eq!(live.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(SnapshotCell::new(Tracked::new(0, &live)));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cell = cell.clone();
                let live = live.clone();
                thread::spawn(move || {
                    for i in 0..500 {
                        cell.store(Tracked::new(w * 10_000 + i, &live));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..6)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let mut checksum = 0usize;
                    for _ in 0..2_000 {
                        let snap = cell.load();
                        // The snapshot stays valid while held, even if a
                        // writer retires it concurrently.
                        checksum = checksum.wrapping_add(snap.value);
                    }
                    checksum
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        drop(cell);
        assert_eq!(live.load(Ordering::SeqCst), 0, "every snapshot retired");
    }

    #[test]
    fn contended_slots_fall_back_without_deadlock() {
        // More concurrent readers than hazard slots: the overflow takes the
        // fallback mutex and must still complete.
        let cell = Arc::new(SnapshotCell::new(Arc::new(7usize)));
        let readers: Vec<_> = (0..HAZARD_SLOTS + 8)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    for _ in 0..200 {
                        assert_eq!(*cell.load(), 7);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
    }
}
