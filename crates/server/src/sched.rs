//! The cost-aware scheduler: one mutex over the connection queue and the
//! cost-ordered ready queue.
//!
//! Two policies, both driven by the Formula-2 cost prediction computed at
//! admission time (the request is parsed *before* it queues, not when a
//! worker finally picks it up):
//!
//! 1. **Shedding** — a query whose predicted cost cannot meet its deadline
//!    given the predicted backlog ahead of it is refused immediately with a
//!    retry hint, instead of burning a worker on a guaranteed timeout.
//! 2. **Ordering** — the ready queue is popped shortest-predicted-first
//!    within deadline classes (interactive before batch), with an aging
//!    guard: a job bypassed [`AGING_THRESHOLD`] times is scheduled next
//!    regardless of cost, so large queries cannot starve.
//!
//! One request is one job: nothing is shared between requests, so an
//! admitted payload is either in the ready queue or owned by the worker
//! that popped it. Every operation takes the state lock exactly once.
//!
//! The scheduler is generic over the raw-connection and job-payload types
//! so its invariants are testable without sockets: `C` is what the acceptor
//! enqueues, `P` what a parsed query carries into execution (in the server,
//! its socket included). Raw connections are always popped before ready
//! jobs — parsing is microseconds next to retrieval, and every parsed
//! connection improves the ordering information the queue acts on.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Starvation bound for the cost-ordered queue: a query bypassed this many
/// times is scheduled next regardless of predicted cost or class.
pub const AGING_THRESHOLD: u32 = 8;

/// Deadline class of a query. Interactive jobs are always scheduled ahead
/// of batch jobs (aging aside); within a class the cheapest predicted cost
/// wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    #[default]
    Interactive,
    Batch,
}

impl Priority {
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Field encoding for scheduler spans (0 = interactive, 1 = batch).
    pub fn as_field(self) -> u64 {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

/// One admitted query: in the ready queue until a pop hands it to a worker.
#[derive(Debug)]
pub struct Job<P> {
    pub seq: u64,
    pub class: Priority,
    pub predicted_secs: Option<f64>,
    pub admitted: Instant,
    /// Pops that chose a younger job over this one. Crossing the aging
    /// threshold promotes the job to the head of the queue.
    bypassed: u32,
    /// The pop that took this job chose it ahead of at least one older one
    /// (the shortest-predicted-first order disagreed with FIFO).
    pub reordered: bool,
    pub payload: P,
}

/// One unit of work for a worker: an unparsed connection (read it, then
/// either answer inline or submit a query job) or a scheduled query.
pub enum Work<C, P> {
    Conn(C),
    Job(Job<P>),
}

/// Why a raw connection was refused at the acceptor.
#[derive(Debug, PartialEq, Eq)]
pub enum ConnRefusal<C> {
    Full(C),
    Closed(C),
}

/// Admission decision for one parsed query.
#[derive(Debug)]
pub enum Admission<P> {
    /// Queued; a worker will pick it up in cost order.
    Queued,
    /// Refused: executing this query now would be wasted work. The payload
    /// is handed back so the caller can deliver the 429.
    Shed(Shed, P),
    /// The scheduler is closed for shutdown; the payload is handed back.
    Closed(P),
}

/// Why admission shed a query, with the evidence behind the decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shed {
    pub reason: ShedReason,
    /// Predicted seconds of ready work ahead of the query, per worker.
    pub backlog_secs: f64,
    /// Client back-off hint derived from the backlog estimate.
    pub retry_after_ms: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The ready queue is at capacity.
    Capacity,
    /// Predicted backlog + predicted cost exceed the query's deadline.
    Deadline,
}

#[derive(Debug)]
struct State<C, P> {
    conns: VecDeque<C>,
    ready: Vec<Job<P>>,
    next_seq: u64,
    closed: bool,
}

/// The scheduler shared by the acceptor (conn producer), the workers
/// (consumers and query producers), and the handle (close).
#[derive(Debug)]
pub struct Scheduler<C, P> {
    conn_capacity: usize,
    query_capacity: usize,
    workers: usize,
    aging_threshold: u32,
    state: Mutex<State<C, P>>,
    available: Condvar,
}

/// Bounds on the retry hint handed back with a shed: never so small the
/// client hammers, never so large it gives up on a transient burst.
const RETRY_AFTER_MS_MIN: u64 = 25;
const RETRY_AFTER_MS_MAX: u64 = 5_000;

impl<C, P> Scheduler<C, P> {
    /// Capacities of 0 are promoted to 1 — a queue that can hold nothing
    /// would deadlock the acceptor against the workers.
    pub fn new(
        conn_capacity: usize,
        query_capacity: usize,
        workers: usize,
        aging_threshold: u32,
    ) -> Self {
        Scheduler {
            conn_capacity: conn_capacity.max(1),
            query_capacity: query_capacity.max(1),
            workers: workers.max(1),
            aging_threshold: aging_threshold.max(1),
            state: Mutex::new(State {
                conns: VecDeque::new(),
                ready: Vec::new(),
                next_seq: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// The one poison policy: recover. Every update under the lock is a
    /// queue push/remove or a scalar store, so the state is valid at every
    /// step and a panicking holder leaves nothing half-done.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<C, P>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Non-blocking connection admission (the acceptor's fast path).
    pub fn try_push_conn(&self, conn: C) -> Result<(), ConnRefusal<C>> {
        let mut s = self.lock();
        if s.closed {
            return Err(ConnRefusal::Closed(conn));
        }
        if s.conns.len() >= self.conn_capacity {
            return Err(ConnRefusal::Full(conn));
        }
        s.conns.push_back(conn);
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Admit one parsed query: shed it or queue it.
    pub fn submit_query(
        &self,
        payload: P,
        class: Priority,
        predicted_secs: Option<f64>,
        deadline: Option<Instant>,
        admitted: Instant,
    ) -> Admission<P> {
        let mut s = self.lock();
        if s.closed {
            return Admission::Closed(payload);
        }

        let backlog_secs = self.backlog_per_worker(&s);
        let retry_after_ms = (backlog_secs * 1e3).ceil() as u64;
        let retry_after_ms = retry_after_ms.clamp(RETRY_AFTER_MS_MIN, RETRY_AFTER_MS_MAX);

        if s.ready.len() >= self.query_capacity {
            return Admission::Shed(
                Shed {
                    reason: ShedReason::Capacity,
                    backlog_secs,
                    retry_after_ms,
                },
                payload,
            );
        }

        if let (Some(cost), Some(d)) = (predicted_secs, deadline) {
            let remaining = d.saturating_duration_since(Instant::now()).as_secs_f64();
            if backlog_secs + cost > remaining {
                return Admission::Shed(
                    Shed {
                        reason: ShedReason::Deadline,
                        backlog_secs,
                        retry_after_ms,
                    },
                    payload,
                );
            }
        }

        let seq = s.next_seq;
        s.next_seq += 1;
        s.ready.push(Job {
            seq,
            class,
            predicted_secs,
            admitted,
            bypassed: 0,
            reordered: false,
            payload,
        });
        drop(s);
        self.available.notify_one();
        Admission::Queued
    }

    /// Predicted seconds of ready work per worker — the queue-pressure term
    /// of the shed decision.
    fn backlog_per_worker(&self, s: &State<C, P>) -> f64 {
        let total: f64 = s.ready.iter().filter_map(|j| j.predicted_secs).sum();
        total / self.workers as f64
    }

    /// Blocking pop. Raw connections first; then the scheduling policy over
    /// the ready queue. Returns `None` only once the scheduler is closed
    /// *and* drained, so shutdown still answers everything admitted.
    pub fn pop(&self) -> Option<Work<C, P>> {
        let mut s = self.lock();
        loop {
            if let Some(conn) = s.conns.pop_front() {
                return Some(Work::Conn(conn));
            }
            if !s.ready.is_empty() {
                return Some(Work::Job(Self::pick_locked(&mut s, self.aging_threshold)));
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The scheduling policy. Aged jobs (bypassed ≥ threshold) go first,
    /// oldest first — this is the starvation bound: once a job has been
    /// passed over `threshold` times, nothing admitted later can precede
    /// it. Otherwise the best deadline class is served
    /// shortest-predicted-first, ties broken FIFO.
    fn pick_locked(s: &mut State<C, P>, aging_threshold: u32) -> Job<P> {
        debug_assert!(!s.ready.is_empty());
        let aged = s
            .ready
            .iter()
            .enumerate()
            .filter(|(_, j)| j.bypassed >= aging_threshold)
            .min_by_key(|(_, j)| j.seq)
            .map(|(i, _)| i);
        let idx = aged.unwrap_or_else(|| {
            let best_class = s.ready.iter().map(|j| j.class).min().expect("non-empty");
            s.ready
                .iter()
                .enumerate()
                .filter(|(_, j)| j.class == best_class)
                .min_by(|(_, a), (_, b)| {
                    a.predicted_secs
                        .unwrap_or(0.0)
                        .total_cmp(&b.predicted_secs.unwrap_or(0.0))
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i)
                .expect("class filter is non-empty")
        });
        let chosen_seq = s.ready[idx].seq;
        let mut reordered = false;
        for j in &mut s.ready {
            if j.seq < chosen_seq {
                j.bypassed += 1;
                reordered = true;
            }
        }
        let mut job = s.ready.swap_remove(idx);
        job.reordered = reordered;
        job
    }

    /// Close the scheduler: no further admissions; blocked consumers wake
    /// and drain the remainder.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    type S = Scheduler<u32, &'static str>;

    impl<C, P> Scheduler<C, P> {
        /// [`Scheduler::pop`] without the wait: `None` when nothing is queued.
        fn try_pop(&self) -> Option<Work<C, P>> {
            let queued = {
                let s = self.lock();
                !s.conns.is_empty() || !s.ready.is_empty()
            };
            queued.then(|| self.pop().expect("something is queued"))
        }
    }

    fn sched(aging: u32) -> S {
        Scheduler::new(8, 8, 1, aging)
    }

    fn far_deadline() -> Option<Instant> {
        Some(Instant::now() + Duration::from_secs(3600))
    }

    fn submit(s: &S, payload: &'static str, class: Priority, cost: f64) {
        match s.submit_query(payload, class, Some(cost), far_deadline(), Instant::now()) {
            Admission::Queued => {}
            other => panic!("expected Queued, got {other:?}"),
        }
    }

    fn pop_payload(s: &S) -> &'static str {
        match s.try_pop() {
            Some(Work::Job(j)) => j.payload,
            other => panic!("expected a job, got {:?}", other.is_some()),
        }
    }

    #[test]
    fn conns_are_bounded_and_popped_before_jobs() {
        let s: S = Scheduler::new(2, 8, 1, 4);
        s.try_push_conn(1).unwrap();
        s.try_push_conn(2).unwrap();
        assert_eq!(s.try_push_conn(3), Err(ConnRefusal::Full(3)));
        submit(&s, "job", Priority::Interactive, 0.001);
        assert!(matches!(s.try_pop(), Some(Work::Conn(1))));
        assert!(matches!(s.try_pop(), Some(Work::Conn(2))));
        assert!(matches!(s.try_pop(), Some(Work::Job(_))));
        assert!(s.try_pop().is_none());
    }

    #[test]
    fn shortest_predicted_first_never_violates_class_ordering() {
        // Batch jobs are cheaper than every interactive job, yet the
        // interactive class drains first — cost ordering applies only
        // within a deadline class.
        let s = sched(100);
        submit(&s, "batch-cheap", Priority::Batch, 0.000_1);
        submit(&s, "int-expensive", Priority::Interactive, 0.5);
        submit(&s, "int-cheap", Priority::Interactive, 0.001);
        submit(&s, "batch-expensive", Priority::Batch, 0.9);
        assert_eq!(pop_payload(&s), "int-cheap");
        assert_eq!(pop_payload(&s), "int-expensive");
        assert_eq!(pop_payload(&s), "batch-cheap");
        assert_eq!(pop_payload(&s), "batch-expensive");
    }

    #[test]
    fn pops_that_disagree_with_fifo_are_flagged_reordered() {
        let s = sched(100);
        submit(&s, "expensive", Priority::Interactive, 0.5);
        submit(&s, "cheap", Priority::Interactive, 0.001);
        match s.try_pop() {
            Some(Work::Job(j)) => {
                assert_eq!(j.payload, "cheap");
                assert!(j.reordered, "cheap overtook the older expensive job");
            }
            _ => panic!("expected a job"),
        }
        match s.try_pop() {
            Some(Work::Job(j)) => {
                assert_eq!(j.payload, "expensive");
                assert!(!j.reordered, "nothing older remained");
            }
            _ => panic!("expected a job"),
        }
    }

    #[test]
    fn aging_bounds_starvation_to_the_threshold() {
        // A max-cost query under a sustained stream of cheap queries must
        // run after at most `aging_threshold` bypasses: pops 1..=K go to
        // the cheap stream, pop K+1 is the starved job — regardless of how
        // many cheap jobs keep arriving.
        let k = 3u32;
        let s = sched(k);
        submit(&s, "huge", Priority::Interactive, 10.0);
        let mut order = Vec::new();
        for _ in 0..=k {
            submit(&s, "cheap", Priority::Interactive, 0.000_1);
            order.push(pop_payload(&s));
        }
        assert_eq!(
            order.as_slice(),
            ["cheap", "cheap", "cheap", "huge"],
            "the starved job ran within aging_threshold + 1 rounds"
        );
        // Aging also lets a batch job overtake the interactive class.
        let s = sched(k);
        submit(&s, "batch", Priority::Batch, 5.0);
        let mut popped_batch_at = None;
        for round in 0..=k {
            submit(&s, "int", Priority::Interactive, 0.000_1);
            if pop_payload(&s) == "batch" {
                popped_batch_at = Some(round);
                break;
            }
        }
        assert_eq!(popped_batch_at, Some(k), "batch ran after K bypasses");
    }

    #[test]
    fn capacity_and_deadline_sheds_carry_retry_hints() {
        let s: S = Scheduler::new(2, 1, 1, 4);
        submit(&s, "first", Priority::Interactive, 0.050);
        match s.submit_query(
            "overflow",
            Priority::Interactive,
            Some(0.001),
            far_deadline(),
            Instant::now(),
        ) {
            Admission::Shed(shed, handed_back) => {
                assert_eq!(handed_back, "overflow");
                assert_eq!(shed.reason, ShedReason::Capacity);
                assert!(shed.retry_after_ms >= RETRY_AFTER_MS_MIN);
            }
            other => panic!("expected capacity shed, got {other:?}"),
        }

        // Deadline shed: 50ms of backlog ahead, 10ms of budget.
        let s2: S = Scheduler::new(2, 8, 1, 4);
        submit(&s2, "backlog", Priority::Interactive, 0.050);
        match s2.submit_query(
            "late",
            Priority::Interactive,
            Some(0.001),
            Some(Instant::now() + Duration::from_millis(10)),
            Instant::now(),
        ) {
            Admission::Shed(shed, handed_back) => {
                assert_eq!(handed_back, "late");
                assert_eq!(shed.reason, ShedReason::Deadline);
                assert!(shed.backlog_secs >= 0.050 - 1e-9);
            }
            other => panic!("expected deadline shed, got {other:?}"),
        }
        // A query with no deadline (or no prediction) is never deadline-shed.
        assert!(matches!(
            s2.submit_query(
                "nodeadline",
                Priority::Interactive,
                Some(10.0),
                None,
                Instant::now(),
            ),
            Admission::Queued
        ));
    }

    #[test]
    fn close_drains_admitted_work_then_releases_consumers() {
        let s = sched(4);
        s.try_push_conn(7).unwrap();
        submit(&s, "job", Priority::Interactive, 0.001);
        s.close();
        assert_eq!(s.try_push_conn(8), Err(ConnRefusal::Closed(8)));
        assert!(matches!(
            s.submit_query("late", Priority::Interactive, None, None, Instant::now()),
            Admission::Closed("late")
        ));
        assert!(matches!(s.pop(), Some(Work::Conn(7))));
        assert!(matches!(s.pop(), Some(Work::Job(_))));
        assert!(s.pop().is_none());

        // A consumer blocked on an empty scheduler wakes on close.
        let s2: Arc<S> = Arc::new(Scheduler::new(1, 1, 1, 4));
        let consumer = {
            let s2 = Arc::clone(&s2);
            std::thread::spawn(move || s2.pop().is_none())
        };
        std::thread::sleep(Duration::from_millis(20));
        s2.close();
        assert!(consumer.join().unwrap());
    }

    #[test]
    fn a_poisoned_lock_does_not_cost_a_blocked_consumer() {
        let s: Arc<S> = Arc::new(Scheduler::new(1, 1, 1, 4));
        let consumer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.pop().is_none())
        };
        let poisoner = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let _held = s.lock();
                panic!("poison the scheduler lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(s.state.is_poisoned());
        // Whether the consumer is already in `wait` or still on its way to
        // `lock`, it must come back with the close, not with a panic.
        s.close();
        assert!(consumer.join().expect("pop recovers the poisoned lock"));
    }
}
