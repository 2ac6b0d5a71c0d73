//! Span collection: RAII guards, per-thread buffers, and per-trace captures.
//!
//! There is one sink: a span site is live iff the calling thread's current
//! trace has a registered [`capture_trace`] buffer. The fast path is the
//! whole design: with no capture registered anywhere in the process,
//! `span()` performs one `Ordering::Relaxed` load and returns an inert
//! guard — no clock read, no allocation, no thread-local borrow.
//!
//! Closed spans are buffered per thread and moved into their trace's
//! capture when the buffer reaches `FLUSH_THRESHOLD` records or when the
//! enclosing [`with_trace`] / [`trace_scope`] ends. A capture holds at most
//! the `max_spans` it was registered with and counts the overflow; a record
//! flushed after its capture was taken or dropped is discarded and counted
//! in [`late_spans`], never queued anywhere.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread buffered spans before a flush into their captures.
const FLUSH_THRESHOLD: usize = 64;

/// Registered captures. Zero means every `span()` call returns an inert
/// guard after a single relaxed load.
static CAPTURE_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Records flushed after their capture was gone.
static LATE_SPANS: AtomicU64 = AtomicU64::new(0);

/// Global span/trace id allocator. Starts at 1 — id 0 is reserved to mean
/// "no parent" / "no trace".
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

/// A closed span as stored in a capture and handed to exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace (query) this span belongs to.
    pub trace: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for roots.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small dense per-process thread number (not the OS tid).
    pub thread: u64,
    /// Structured counters attached via [`SpanGuard::field`].
    pub fields: Vec<(&'static str, u64)>,
    /// Optional dynamic annotation (e.g. a relation name).
    pub label: Option<String>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, u64)>,
    label: Option<String>,
}

struct ThreadCtx {
    trace: u64,
    thread: u64,
    stack: Vec<OpenSpan>,
    buf: Vec<SpanRecord>,
    /// Last trace id whose capture registration this thread looked up, and
    /// what the registry said. Both hits and misses are cached: a request's
    /// span sites and flushes touch the global registry mutex once.
    cached_trace: u64,
    cached_capture: Option<Arc<Mutex<CaptureBuf>>>,
}

impl ThreadCtx {
    /// Capture buffer registered for `trace`, consulting the global registry
    /// only when the cache is for a different trace. Trace ids are never
    /// reused, so a stale entry can only belong to a finished request (whose
    /// buffer is closed and turns further records away).
    fn capture_for(&mut self, trace: u64) -> Option<Arc<Mutex<CaptureBuf>>> {
        if trace == 0 {
            return None;
        }
        if self.cached_trace != trace {
            // With zero registered captures the answer is a guaranteed miss;
            // caching it without the lock is safe for the same reason the
            // cache itself is: captures register before their spans record.
            if CAPTURE_COUNT.load(Ordering::Relaxed) == 0 {
                self.cached_capture = None;
            } else {
                let registry = match captures().lock() {
                    Ok(r) => r,
                    Err(poisoned) => poisoned.into_inner(),
                };
                self.cached_capture = registry.get(&trace).cloned();
            }
            self.cached_trace = trace;
        }
        self.cached_capture.clone()
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        trace: 0,
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: Vec::new(),
        cached_trace: 0,
        cached_capture: None,
    });
}

/// Allocate a fresh trace id for one query.
pub fn new_trace_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records discarded because their capture was already taken or dropped
/// when they were flushed (process-wide, since start).
pub fn late_spans() -> u64 {
    LATE_SPANS.load(Ordering::Relaxed)
}

/// Open a span. With no capture registered: one relaxed atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if CAPTURE_COUNT.load(Ordering::Relaxed) == 0 {
        return SpanGuard { depth: usize::MAX };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        // Some trace is being captured; stay inert unless it is this
        // thread's. The per-thread cache makes that one comparison after
        // the first site of a request.
        let trace = c.trace;
        if c.capture_for(trace).is_none() {
            return SpanGuard { depth: usize::MAX };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = c.stack.last().map(|s| s.id).unwrap_or(0);
        let depth = c.stack.len();
        c.stack.push(OpenSpan {
            id,
            parent,
            name,
            start_ns: now_ns(),
            fields: Vec::new(),
            label: None,
        });
        SpanGuard { depth }
    })
}

/// RAII span handle. Dropping it closes the span (and, defensively, any
/// deeper spans left open by a panic unwind that skipped their guards).
pub struct SpanGuard {
    /// Index of this span in the thread stack; `usize::MAX` marks the inert
    /// guard.
    depth: usize,
}

impl SpanGuard {
    /// Attach a structured counter to the span. No-op when inert.
    pub fn field(&self, key: &'static str, value: u64) {
        if self.depth == usize::MAX {
            return;
        }
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            let depth = self.depth;
            if let Some(open) = c.stack.get_mut(depth) {
                open.fields.push((key, value));
            }
        });
    }

    /// Attach a dynamic annotation (e.g. a relation name). No-op when inert.
    pub fn label(&self, label: &str) {
        if self.depth == usize::MAX {
            return;
        }
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            let depth = self.depth;
            if let Some(open) = c.stack.get_mut(depth) {
                open.label = Some(label.to_owned());
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == usize::MAX {
            return;
        }
        close_to_depth(self.depth);
    }
}

/// Close every span at `depth` or deeper. Closing deeper spans too keeps
/// the tree well-formed when an unwind drops an outer guard while inner
/// guards were leaked/forgotten: every opened span still gets an end time.
fn close_to_depth(depth: usize) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let end_ns = now_ns();
        while c.stack.len() > depth {
            let open = c.stack.pop().expect("stack len checked");
            let rec = SpanRecord {
                trace: c.trace,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                thread: c.thread,
                fields: open.fields,
                label: open.label,
            };
            c.buf.push(rec);
        }
        // Inside a trace scope the scope-exit flush publishes everything at
        // once; flushing on every root-span close there would just pay the
        // lock traffic several times per request for no visibility gain. A
        // guard that outlived its scope closes here with no scope left to
        // flush it.
        if c.buf.len() >= FLUSH_THRESHOLD || (c.stack.is_empty() && c.trace == 0) {
            flush_locked(&mut c);
        }
    });
}

/// Move the thread's buffered records into their traces' captures.
fn flush_locked(c: &mut ThreadCtx) {
    let mut buf = std::mem::take(&mut c.buf);
    for rec in buf.drain(..) {
        let Some(capture) = c.capture_for(rec.trace) else {
            LATE_SPANS.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let mut capture = match capture.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        if capture.closed {
            LATE_SPANS.fetch_add(1, Ordering::Relaxed);
        } else if capture.spans.len() < capture.max_spans {
            capture.spans.push(rec);
        } else {
            capture.dropped += 1;
        }
    }
    // Hand the (empty) allocation back so steady state never allocates.
    c.buf = buf;
}

/// Per-request capture buffer contents.
struct CaptureBuf {
    spans: Vec<SpanRecord>,
    dropped: u64,
    max_spans: usize,
    /// Set when the capture is taken or dropped: threads still holding the
    /// buffer through their lookup cache discard instead of appending.
    closed: bool,
}

fn captures() -> &'static Mutex<HashMap<u64, Arc<Mutex<CaptureBuf>>>> {
    static CAPTURES: OnceLock<Mutex<HashMap<u64, Arc<Mutex<CaptureBuf>>>>> = OnceLock::new();
    CAPTURES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Make span sites running under `trace` (via [`with_trace`] or
/// [`trace_scope`]) live and collect their records in a private buffer,
/// until the returned guard is consumed by [`TraceCapture::take`] or
/// dropped. At most `max_spans` records are kept; overflow is counted,
/// never unbounded.
///
/// Register the capture *before* entering the trace's scope: threads cache
/// their registry lookup per trace id, so a thread that looked `trace` up
/// before the registration keeps treating it as uncaptured. Captures are
/// keyed by trace id and share no other state, so any number of them can be
/// live on any threads at once.
pub fn capture_trace(trace: u64, max_spans: usize) -> TraceCapture {
    let buf = Arc::new(Mutex::new(CaptureBuf {
        spans: Vec::new(),
        dropped: 0,
        max_spans: max_spans.max(1),
        closed: false,
    }));
    let mut registry = match captures().lock() {
        Ok(r) => r,
        Err(poisoned) => poisoned.into_inner(),
    };
    if registry.insert(trace, buf.clone()).is_none() {
        CAPTURE_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    TraceCapture { trace, buf }
}

/// Handle to one registered capture. Dropping it without [`take`]
/// unregisters the trace and discards whatever was captured.
///
/// [`take`]: TraceCapture::take
pub struct TraceCapture {
    trace: u64,
    buf: Arc<Mutex<CaptureBuf>>,
}

/// Everything a [`TraceCapture`] collected, sorted so that parents precede
/// children (parents start no later, and ids grow in open order).
#[derive(Debug)]
pub struct CapturedSpans {
    pub spans: Vec<SpanRecord>,
    /// Records past the capture's `max_spans` cap.
    pub dropped: u64,
}

impl TraceCapture {
    /// The trace id this capture is registered for.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Flush the calling thread, unregister the trace, and return the
    /// captured spans.
    pub fn take(self) -> CapturedSpans {
        flush_thread();
        let (mut spans, dropped) = self.close();
        // `self` unregisters the capture on drop.
        spans.sort_by_key(|s| (s.start_ns, s.id));
        CapturedSpans { spans, dropped }
    }

    /// Turn further records away and take what was collected.
    fn close(&self) -> (Vec<SpanRecord>, u64) {
        let mut buf = match self.buf.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        buf.closed = true;
        (std::mem::take(&mut buf.spans), buf.dropped)
    }
}

impl Drop for TraceCapture {
    fn drop(&mut self) {
        self.close();
        let mut registry = match captures().lock() {
            Ok(r) => r,
            Err(poisoned) => poisoned.into_inner(),
        };
        if registry.remove(&self.trace).is_some() {
            CAPTURE_COUNT.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Move this thread's buffered spans into their captures.
pub fn flush_thread() {
    CTX.with(|c| flush_locked(&mut c.borrow_mut()));
}

/// Set the thread's current trace id until the returned guard drops, which
/// restores the previous id and flushes the thread buffer — including via
/// panic unwind, so pool workers never leak a stale trace id. With no
/// capture registered: one relaxed load, and the id is not set at all (a
/// capture registers before its trace's scope opens, so none can be for
/// `trace`).
pub fn trace_scope(trace: u64) -> TraceScope {
    if CAPTURE_COUNT.load(Ordering::Relaxed) == 0 {
        return TraceScope { prev: None };
    }
    let prev = CTX.with(|c| {
        let mut c = c.borrow_mut();
        std::mem::replace(&mut c.trace, trace)
    });
    TraceScope { prev: Some(prev) }
}

/// Guard returned by [`trace_scope`].
pub struct TraceScope {
    prev: Option<u64>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CTX.with(|c| {
                let mut c = c.borrow_mut();
                c.trace = prev;
                flush_locked(&mut c);
            });
        }
    }
}

/// Closure form of [`trace_scope`].
pub fn with_trace<R>(trace: u64, f: impl FnOnce() -> R) -> R {
    let _scope = trace_scope(trace);
    f()
}

/// The trace id the calling thread is currently recording under (set by an
/// enclosing [`with_trace`]); 0 outside any trace scope or while nothing is
/// captured.
pub fn current_trace() -> u64 {
    if CAPTURE_COUNT.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    CTX.with(|c| c.borrow().trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No test here takes a process-wide gate: a capture sees only its own
    /// trace, so they run concurrently under the default test parallelism.
    fn thread_holds_nothing() -> bool {
        CTX.with(|c| {
            let c = c.borrow();
            c.buf.is_empty() && c.stack.is_empty()
        })
    }

    #[test]
    fn nested_spans_form_a_tree_with_parents_first() {
        let trace = new_trace_id();
        let capture = capture_trace(trace, 64);
        with_trace(trace, || {
            let root = span("root");
            root.field("answers", 2);
            {
                let child = span("child");
                child.label("movies");
                let _grand = span("grandchild");
            }
            let _sibling = span("sibling");
        });
        let got = capture.take();
        assert_eq!(got.spans.len(), 4);
        assert_eq!(got.dropped, 0);
        assert!(got.spans.iter().all(|s| s.trace == trace));
        assert!(got.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let root = &got.spans[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.parent, 0);
        assert_eq!(root.fields, vec![("answers", 2)]);
        // Parents precede children in take order.
        for s in &got.spans {
            if s.parent != 0 {
                let parent_pos = got.spans.iter().position(|p| p.id == s.parent);
                let own_pos = got.spans.iter().position(|p| p.id == s.id);
                assert!(parent_pos.expect("parent present") < own_pos.unwrap());
            }
        }
        let child = got.spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.label.as_deref(), Some("movies"));
        let grand = got.spans.iter().find(|s| s.name == "grandchild").unwrap();
        assert_eq!(grand.parent, child.id);
        let sib = got.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(sib.parent, root.id);
    }

    #[test]
    fn a_site_is_live_only_under_its_threads_captured_trace() {
        let mine = new_trace_id();
        let theirs = new_trace_id();
        // Another thread captures another trace for the whole test, so every
        // site below runs past the nothing-is-captured fast path.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let other = std::thread::spawn(move || {
            let capture = capture_trace(theirs, 16);
            with_trace(theirs, || {
                let _s = span("theirs.work");
            });
            ready_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            capture.take()
        });
        ready_rx.recv().unwrap();

        assert_eq!(span("no.trace").depth, usize::MAX);
        with_trace(mine, || {
            assert_eq!(current_trace(), mine);
            let g = span("uncaptured.closure");
            g.field("n", 3);
            assert_eq!(g.depth, usize::MAX);
        });
        {
            let _scope = trace_scope(mine);
            assert_eq!(span("uncaptured.guard").depth, usize::MAX);
        }
        assert_eq!(current_trace(), 0);
        assert!(thread_holds_nothing());

        done_tx.send(()).unwrap();
        let got = other.join().unwrap();
        assert_eq!(got.spans.len(), 1);
        assert_eq!(got.spans[0].name, "theirs.work");
        assert_eq!(got.spans[0].trace, theirs);
    }

    #[test]
    fn with_trace_restores_the_previous_trace() {
        let outer = new_trace_id();
        let inner = new_trace_id();
        let outer_capture = capture_trace(outer, 64);
        let inner_capture = capture_trace(inner, 64);
        with_trace(outer, || {
            let _a = span("outer.work");
            with_trace(inner, || {
                assert_eq!(current_trace(), inner);
                let _b = span("inner.work");
            });
            assert_eq!(current_trace(), outer);
            let _c = span("outer.again");
        });
        let names = |c: TraceCapture| -> Vec<&'static str> {
            c.take().spans.iter().map(|s| s.name).collect()
        };
        assert_eq!(names(outer_capture), vec!["outer.work", "outer.again"]);
        assert_eq!(names(inner_capture), vec!["inner.work"]);
    }

    #[test]
    fn capture_overflow_counts_and_drop_unregisters() {
        let trace = new_trace_id();
        let capture = capture_trace(trace, 2);
        with_trace(trace, || {
            for _ in 0..5 {
                let _s = span("tiny");
            }
        });
        let got = capture.take();
        assert_eq!(got.spans.len(), 2);
        assert_eq!(got.dropped, 3);

        // Dropping without take unregisters: the trace's sites are inert.
        let trace = new_trace_id();
        drop(capture_trace(trace, 8));
        with_trace(trace, || {
            assert_eq!(span("nobody.listening").depth, usize::MAX);
        });
        assert!(thread_holds_nothing());
    }

    #[test]
    fn a_record_flushed_after_its_capture_is_gone_is_counted_not_kept() {
        let trace = new_trace_id();
        let capture = capture_trace(trace, 8);
        let before = late_spans();
        with_trace(trace, || {
            let _open = span("outlives.capture");
            // Taken on another thread while the span is still open here.
            let got = std::thread::spawn(move || capture.take()).join().unwrap();
            assert!(got.spans.is_empty());
        });
        assert!(late_spans() > before);
        assert!(thread_holds_nothing());
    }

    #[test]
    fn spans_survive_unwind_with_end_times() {
        let trace = new_trace_id();
        let capture = capture_trace(trace, 8);
        let caught = std::panic::catch_unwind(|| {
            let _scope = trace_scope(trace);
            let _root = span("panicking.root");
            let _child = span("panicking.child");
            panic!("boom");
        });
        assert!(caught.is_err());
        assert_eq!(current_trace(), 0, "the unwound scope restored the trace");
        let got = capture.take();
        assert_eq!(got.spans.len(), 2);
        assert!(got.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
