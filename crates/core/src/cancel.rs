//! Cooperative cancellation for long-running précis generation.
//!
//! A serving layer needs to abort answers that outlive their caller: a
//! request deadline passes, a client disconnects, the process drains for
//! shutdown. [`CancelToken`] is the hook the Result Database Generator polls
//! between retrieval steps — checks are cheap (one atomic load, plus a
//! monotonic clock read when a deadline is set), so the generator can poll
//! at every join step and retrieval round without measurable overhead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation handle, optionally carrying a deadline.
///
/// Cloning shares the underlying flag: cancelling any clone cancels them
/// all. The deadline is immutable per token and combines with the flag —
/// the token reports cancelled as soon as either fires.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    /// Deterministic fault-injection mode: a countdown of observations left
    /// before the token reports cancelled (shared across clones). Wall-clock
    /// deadlines land at a nondeterministic checkpoint; this fires at
    /// exactly the N-th poll, so a harness can reproduce a cancellation at
    /// the same generator step on every run.
    checks_left: Option<Arc<AtomicU64>>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that auto-cancels `budget` from now.
    pub fn with_timeout(budget: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
            checks_left: None,
        }
    }

    /// A token that auto-cancels at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
            checks_left: None,
        }
    }

    /// A token that allows exactly `n` cancellation observations
    /// ([`CancelToken::is_cancelled`] or [`CancelToken::check`]) and then
    /// reports cancelled forever after. `after_checks(0)` is cancelled from
    /// the first poll. Used by the testkit to fire a cancellation at a
    /// deterministic generator checkpoint.
    pub fn after_checks(n: u64) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
            checks_left: Some(Arc::new(AtomicU64::new(n))),
        }
    }

    /// Cancel this token (and every clone sharing its flag).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has the token been cancelled, its deadline passed, or its check
    /// budget run out?
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return true;
        }
        if let Some(checks) = &self.checks_left {
            // Consume one observation; once the countdown is exhausted the
            // token is cancelled for good (the flag latches it so clones
            // agree even after the counter bottoms out).
            let exhausted = checks
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_err();
            if exhausted {
                self.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Time left until the deadline (`None` when no deadline is set).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Error-or-continue form used at generator checkpoints.
    pub fn check(&self) -> crate::Result<()> {
        if self.is_cancelled() {
            Err(crate::CoreError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.remaining().is_none());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert!(matches!(c.check(), Err(crate::CoreError::Cancelled)));
    }

    #[test]
    fn after_checks_fires_at_exactly_the_nth_poll() {
        let t = CancelToken::after_checks(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled());
        // Latched: stays cancelled, and clones made before exhaustion agree.
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(crate::CoreError::Cancelled)));

        let zero = CancelToken::after_checks(0);
        assert!(matches!(zero.check(), Err(crate::CoreError::Cancelled)));
    }

    #[test]
    fn after_checks_budget_is_shared_across_clones() {
        let t = CancelToken::after_checks(2);
        let c = t.clone();
        assert!(!t.is_cancelled());
        assert!(!c.is_cancelled());
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
    }

    #[test]
    fn elapsed_deadline_cancels() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }
}
