//! Access-path statistics backing the paper's cost model.
//!
//! Formula (1) of the paper charges `IndexTime + TupleTime` per retrieved
//! tuple. We count the two events separately: an *index probe* each time a
//! value is looked up in an index, and a *tuple read* each time a tuple is
//! fetched from its table by id. Benches calibrate the per-event micro-costs
//! and validate Formula (2) against measured wall time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Events performed by *this thread* since it started. Monotonic;
    /// meters diff them like a snapshot.
    static THREAD_PROBES: Cell<u64> = const { Cell::new(0) };
    static THREAD_READS: Cell<u64> = const { Cell::new(0) };
}

fn thread_events() -> StatsSnapshot {
    StatsSnapshot {
        index_probes: THREAD_PROBES.get(),
        tuple_reads: THREAD_READS.get(),
    }
}

/// Meters the storage events performed by the *calling thread* since the
/// meter was created: a before/after reading of the thread's own counter.
/// Unlike the process-global [`AccessStats`] (shared by every concurrent
/// query on a `Database`), it attributes events to exactly one unit of work
/// — the generator reads one around each seed step and join to fill the
/// step's span. Nothing is armed: every storage event is one more
/// thread-local add, whether or not a meter is watching.
#[derive(Debug)]
pub struct ThreadMeter {
    start: StatsSnapshot,
}

impl ThreadMeter {
    /// Snapshot this thread's position.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ThreadMeter {
        ThreadMeter {
            start: thread_events(),
        }
    }

    /// Events this thread performed since the meter was created.
    pub fn events(&self) -> StatsSnapshot {
        thread_events().since(self.start)
    }
}

/// Monotonic counters of storage access events. Uses relaxed atomics so a
/// `Database` stays `Sync` while read paths take `&self`.
#[derive(Debug, Default)]
pub struct AccessStats {
    index_probes: AtomicU64,
    tuple_reads: AtomicU64,
}

impl Clone for AccessStats {
    /// Cloning snapshots the current counter values.
    fn clone(&self) -> Self {
        let s = self.snapshot();
        let c = AccessStats::new();
        c.index_probes.store(s.index_probes, Ordering::Relaxed);
        c.tuple_reads.store(s.tuple_reads, Ordering::Relaxed);
        c
    }
}

impl AccessStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn count_index_probe(&self) {
        self.index_probes.fetch_add(1, Ordering::Relaxed);
        THREAD_PROBES.set(THREAD_PROBES.get() + 1);
    }

    #[inline]
    pub(crate) fn count_tuple_read(&self) {
        self.tuple_reads.fetch_add(1, Ordering::Relaxed);
        THREAD_READS.set(THREAD_READS.get() + 1);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            index_probes: self.index_probes.load(Ordering::Relaxed),
            tuple_reads: self.tuple_reads.load(Ordering::Relaxed),
        }
    }

    /// Reset both counters to zero.
    pub fn reset(&self) {
        self.index_probes.store(0, Ordering::Relaxed);
        self.tuple_reads.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the counters; subtract two snapshots to meter one
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub index_probes: u64,
    pub tuple_reads: u64,
}

impl StatsSnapshot {
    /// Events that happened between `earlier` and `self`.
    pub fn since(&self, earlier: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            index_probes: self.index_probes - earlier.index_probes,
            tuple_reads: self.tuple_reads - earlier.tuple_reads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_meter_counts_only_this_thread_while_armed() {
        let s = AccessStats::new();
        // Events before the meter exists are invisible to it.
        s.count_index_probe();
        let meter = ThreadMeter::new();
        s.count_index_probe();
        s.count_tuple_read();
        s.count_tuple_read();
        // Another thread's events never land in this thread's meter.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.count_index_probe();
                s.count_tuple_read();
            });
        });
        let d = meter.events();
        assert_eq!(d.index_probes, 1);
        assert_eq!(d.tuple_reads, 2);
        // The global stats saw everything.
        assert_eq!(s.snapshot().index_probes, 3);
        assert_eq!(s.snapshot().tuple_reads, 3);
        // Nested meters diff independently.
        let inner = ThreadMeter::new();
        s.count_tuple_read();
        assert_eq!(inner.events().tuple_reads, 1);
        assert_eq!(meter.events().tuple_reads, 3);
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let s = AccessStats::new();
        s.count_index_probe();
        s.count_tuple_read();
        s.count_tuple_read();
        let a = s.snapshot();
        assert_eq!(a.index_probes, 1);
        assert_eq!(a.tuple_reads, 2);
        s.count_index_probe();
        let b = s.snapshot();
        let d = b.since(a);
        assert_eq!(d.index_probes, 1);
        assert_eq!(d.tuple_reads, 0);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
