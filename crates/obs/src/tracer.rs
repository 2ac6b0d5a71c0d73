//! Span recording: a request owns its trace and the thread borrows it.
//!
//! A [`Trace`] is a plain value — an id, a bounded `Vec` of closed spans and
//! a count of those that did not fit. Whoever handles the request holds it
//! (the server carries it inside the request's job to the executing worker)
//! and [`Trace::enter`] lends it to the calling thread: while the guard
//! lives every [`span`] opened on that thread records into it, and dropping
//! the guard — on unwind too — hands it back. Only the entering thread can
//! reach it, so recording takes no lock and there is nothing to register,
//! look up or flush. A span site with no trace entered is inert (one
//! thread-local read, no clock, no allocation), and a guard that outlives
//! the scope it was opened in records nothing.

use crate::record::{Fields, SpanRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Span/trace ids start at 1: 0 is "no parent", "no trace", the inert guard.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process tracing epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One request's span recorder: at most `cap` closed spans, the overflow
/// counted. Its buffer comes from, and on drop goes back to, the handling
/// thread's few spare ones: workers start and finish requests at the same
/// rate, so in steady state recording allocates only labels (a buffer
/// allocated on one worker and freed on another per request showed in
/// `mixed_write`'s tail; EXPERIMENTS.md "A request owns its trace").
#[derive(Debug)]
pub struct Trace {
    id: u64,
    spans: Vec<SpanRecord>,
    dropped: u64,
    cap: usize,
}

impl Trace {
    /// A fresh trace keeping at most `cap` spans.
    pub fn new(cap: usize) -> Trace {
        Trace {
            id: next_id(),
            spans: CTX.with(|c| c.borrow_mut().spare.pop()).unwrap_or_default(),
            dropped: 0,
            cap: cap.max(1),
        }
    }

    /// "No trace": what a thread holds while nothing is entered, and what
    /// sits in an owner's slot while a thread holds the real one.
    const NONE: Trace = Trace {
        id: 0,
        spans: Vec::new(),
        dropped: 0,
        cap: 0,
    };

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The spans closed so far, in close order (children before parents).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Lend the trace to the calling thread until the guard drops. A trace
    /// entered on one thread, moved, and entered on another collects both
    /// threads' spans.
    pub fn enter(&mut self) -> Entered<'_> {
        let depth = CTX.with(|c| {
            let mut c = c.borrow_mut();
            // The thread takes this trace; the slot keeps what the thread
            // held (`NONE`) until the guard swaps them back.
            std::mem::swap(&mut c.current, self);
            c.stack.len()
        });
        Entered { slot: self, depth }
    }

    /// Move the trace out, leaving "no trace" in its place: how a request's
    /// owner hands the recorder to the thread that will enter it next (the
    /// server's writer) while keeping the slot it comes back to.
    pub fn take(&mut self) -> Trace {
        std::mem::replace(self, Trace::NONE)
    }

    /// Consume the trace: its spans, parents before children (a parent
    /// starts no later, and ids grow in open order), and the overflow count.
    pub fn finish(mut self) -> (Vec<SpanRecord>, u64) {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        (std::mem::take(&mut self.spans), self.dropped)
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        self.spans.clear();
        if self.spans.capacity() > 0 {
            let spare = std::mem::take(&mut self.spans);
            // Not at thread exit, and never from inside the recorder itself.
            let _ = CTX.try_with(|c| {
                if let Ok(mut c) = c.try_borrow_mut() {
                    if c.spare.len() < SPARE_BUFFERS {
                        c.spare.push(spare);
                    }
                }
            });
        }
    }
}

/// Guard returned by [`Trace::enter`]; dropping it hands the trace back to
/// its owner.
pub struct Entered<'a> {
    slot: &'a mut Trace,
    /// Open spans on the thread when it entered.
    depth: usize,
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            // A span still open here outlived its scope: forget it, and its
            // guard will find nothing to close.
            c.stack.truncate(self.depth);
            std::mem::swap(&mut c.current, self.slot);
        });
    }
}

/// Span buffers a thread keeps for its next requests.
const SPARE_BUFFERS: usize = 4;

struct ThreadCtx {
    thread: u64,
    /// The trace this thread is recording into; [`Trace::NONE`] outside
    /// every [`Trace::enter`].
    current: Trace,
    /// Open spans (`end_ns` unset), outermost first.
    stack: Vec<SpanRecord>,
    spare: Vec<Vec<SpanRecord>>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        current: Trace::NONE,
        stack: Vec::new(),
        spare: Vec::new(),
    });
}

/// Open a span in the thread's entered trace; inert when there is none.
pub fn span(name: &'static str) -> SpanGuard {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        if c.current.id == 0 {
            return SpanGuard { depth: 0, id: 0 };
        }
        let id = next_id();
        let depth = c.stack.len();
        let parent = c.stack.last().map_or(0, |s| s.id);
        let (trace, thread) = (c.current.id, c.thread);
        c.stack.push(SpanRecord {
            trace,
            id,
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            thread,
            fields: Fields::default(),
            label: None,
        });
        SpanGuard { depth, id }
    })
}

/// RAII span handle. Dropping it closes the span (and any deeper spans a
/// leaked guard left open, so every recorded span has an end time).
pub struct SpanGuard {
    /// Index of this span in the thread's stack.
    depth: usize,
    /// The span's id; 0 marks the inert guard.
    id: u64,
}

impl SpanGuard {
    /// Run `f` on the thread's state if this guard's span is still open in
    /// it. The stack is cut back whenever a trace is handed back, so a guard
    /// that finds its own span is in the trace it was opened under.
    fn with_open(&self, f: impl FnOnce(&mut ThreadCtx)) {
        if self.id == 0 {
            return;
        }
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            if c.stack.get(self.depth).is_some_and(|o| o.id == self.id) {
                f(&mut c);
            }
        });
    }

    /// Attach a structured counter to the span. No-op when inert.
    pub fn field(&self, key: &'static str, value: u64) {
        self.with_open(|c| c.stack[self.depth].fields.push((key, value)));
    }

    /// Attach a dynamic annotation (e.g. a relation name). No-op when inert.
    pub fn label(&self, label: &str) {
        self.with_open(|c| c.stack[self.depth].label = Some(label.to_owned()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.with_open(|c| {
            let end_ns = now_ns();
            while c.stack.len() > self.depth {
                let mut record = c.stack.pop().expect("stack len checked");
                record.end_ns = end_ns;
                if c.current.spans.len() < c.current.cap {
                    c.current.spans.push(record);
                } else {
                    c.current.dropped += 1;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_holds_nothing() -> bool {
        CTX.with(|c| {
            let c = c.borrow();
            c.current.id == 0 && c.stack.is_empty()
        })
    }

    fn names(trace: Trace) -> Vec<&'static str> {
        trace.finish().0.iter().map(|s| s.name).collect()
    }

    #[test]
    fn nested_spans_form_a_tree_with_parents_first() {
        let mut trace = Trace::new(64);
        let id = trace.id();
        {
            let _entered = trace.enter();
            let root = span("root");
            root.field("answers", 2);
            {
                let child = span("child");
                child.label("movies");
                let _grand = span("grandchild");
            }
            let _sibling = span("sibling");
        }
        let (spans, dropped) = trace.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(dropped, 0);
        assert!(spans.iter().all(|s| s.trace == id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let root = &spans[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.parent, 0);
        assert_eq!(*root.fields, [("answers", 2)]);
        assert_eq!((root.field("answers"), root.field("absent")), (2, 0));
        for (pos, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                let parent_pos = spans.iter().position(|p| p.id == s.parent);
                assert!(parent_pos.expect("parent present") < pos);
            }
        }
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.label.as_deref(), Some("movies"));
        let grand = spans.iter().find(|s| s.name == "grandchild").unwrap();
        assert_eq!(grand.parent, child.id);
        let sib = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(sib.parent, root.id);
    }

    #[test]
    fn a_trace_moved_between_threads_holds_both_threads_spans() {
        let mut trace = Trace::new(64);
        {
            let _entered = trace.enter();
            let admit = span("a.admit");
            let _price = span("a.price");
            drop(admit); // closes the deeper span with it
        }
        assert_eq!(trace.spans().len(), 2, "recorded as each span closed");
        let trace = std::thread::spawn(move || {
            {
                let _entered = trace.enter();
                let _execute = span("b.execute");
                let _answer = span("b.answer");
            }
            assert!(thread_holds_nothing());
            trace
        })
        .join()
        .unwrap();
        assert!(thread_holds_nothing());
        let (spans, _) = trace.finish();
        let order: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(order, ["a.admit", "a.price", "b.execute", "b.answer"]);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, 0, "a root on its own thread");
        assert_eq!(spans[3].parent, spans[2].id);
        assert_eq!(spans[0].thread, spans[1].thread);
        assert_ne!(spans[0].thread, spans[2].thread);
    }

    #[test]
    fn a_site_records_only_inside_an_entered_trace() {
        let inert = span("no.trace");
        inert.field("n", 3);
        inert.label("nobody listening");
        assert_eq!(inert.id, 0);
        drop(inert);
        assert!(thread_holds_nothing());

        // A guard that outlives its scope is forgotten, not queued: it
        // closes into nothing, and not into the trace entered next either.
        let mut first = Trace::new(8);
        let outlives = {
            let _entered = first.enter();
            drop(span("closed.in.scope"));
            span("outlives.scope")
        };
        assert!(thread_holds_nothing());
        let mut second = Trace::new(8);
        {
            let _entered = second.enter();
            let _open = span("second.work");
            outlives.field("late", 1);
            drop(outlives);
        }
        assert_eq!(names(first), ["closed.in.scope"]);
        assert_eq!(names(second), ["second.work"]);
    }

    #[test]
    fn overflow_past_the_cap_is_counted() {
        let mut trace = Trace::new(2);
        {
            let _entered = trace.enter();
            for _ in 0..5 {
                let _s = span("tiny");
            }
        }
        let (spans, dropped) = trace.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn a_panic_hands_the_trace_back_with_every_opened_span_closed() {
        let mut trace = Trace::new(8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _entered = trace.enter();
            let _root = span("panicking.root");
            let _child = span("panicking.child");
            panic!("boom");
        }));
        assert!(caught.is_err());
        assert!(thread_holds_nothing(), "the unwound scope handed it back");
        let (spans, _) = trace.finish();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
