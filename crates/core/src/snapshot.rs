//! Snapshot publication for read-mostly shared state.
//!
//! [`SnapshotCell`] hands out [`Arc`] snapshots of a value to any number of
//! reader threads and lets a writer replace the value. A load clones the
//! `Arc` under a read lock held for exactly that clone; a store swaps the
//! `Arc` under the write lock and drops the old one after releasing it. The
//! précis server keeps its engine in one of these: a query loads twice
//! (admission and execution), a mutation batch stores once, so the lock is
//! taken a few thousand times a second and held for a reference-count bump.
//! Readers that loaded the *old* snapshot keep a consistent engine: its
//! database and index never change under them.

use std::sync::{Arc, RwLock};

/// A publication cell: readers take `Arc` snapshots, a writer atomically
/// replaces the value.
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
    current: RwLock<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        SnapshotCell {
            current: RwLock::new(value),
        }
    }

    /// Take a snapshot of the current value.
    pub fn load(&self) -> Arc<T> {
        // A panic cannot leave the slot half-written (a store is one
        // assignment), so a poisoned lock still guards a valid `Arc`.
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publish a new value. The old snapshot lives on in whoever loaded it
    /// and is dropped by its last holder — here, if that is the cell, but
    /// after the lock is released (the guard is a temporary of the `let`).
    pub fn store(&self, value: Arc<T>) {
        let _old = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(|e| e.into_inner()),
            value,
        );
    }
}

impl<T> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
}
