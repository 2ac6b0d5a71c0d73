//! Always-on telemetry: wire trace identity, tail-based sampling, and the
//! bounded in-memory store of retained traces.
//!
//! Every request gets a 128-bit *wire* trace id at admission — accepted
//! from an incoming W3C-style `traceparent` header or minted — which is
//! echoed on the response, embedded in error envelopes, and used to look
//! retained traces up. The wire id is pure identity: span correlation keeps
//! using the small sequential internal ids from [`crate::tracer`], so a
//! hostile or colliding wire id can never alias another request's spans.
//!
//! Every handled request records its spans into the [`crate::tracer::Trace`]
//! it owns; at completion a tail sampler ([`retain_reasons`]) decides whether
//! the trace was *interesting* (slow for its priority class, any non-2xx, a
//! scheduler shed, a WAL rollback, a handler panic) or passes a deterministic
//! 1-in-N head sample. Interesting traces are retained in a byte-budgeted
//! ring ([`TraceStore`]); everything else is dropped with a counted reason,
//! so "we kept nothing" is always distinguishable from "nothing happened".

use crate::profile::ProfileSnapshot;
use crate::record::SpanRecord;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A 128-bit wire trace id (W3C trace-context `trace-id`). Never zero —
/// the spec reserves the all-zero id as invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceId(u128);

/// Counter mixed into minted ids so two requests admitted in the same
/// clock tick still differ.
static MINT_SEQ: AtomicU64 = AtomicU64::new(0);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every byte an ASCII hex digit. `from_str_radix` alone also accepts a
/// leading `+`, which is not a hex digit on the wire.
fn is_hex(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_hexdigit())
}

impl TraceId {
    /// Mint a fresh id from the wall clock and a process-wide counter.
    pub fn mint() -> TraceId {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = MINT_SEQ.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(nanos ^ seq.rotate_left(32));
        let lo = splitmix64(seq ^ nanos.rotate_left(17)).max(1);
        TraceId(((hi as u128) << 64) | lo as u128)
    }

    pub fn from_u128(v: u128) -> Option<TraceId> {
        (v != 0).then_some(TraceId(v))
    }

    /// Parse a 32-lowercase/uppercase-hex trace id.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !is_hex(s) {
            return None;
        }
        u128::from_str_radix(s, 16)
            .ok()
            .and_then(TraceId::from_u128)
    }

    /// Parse a W3C `traceparent` header (`00-<32hex>-<16hex>-<2hex>`) and
    /// return the trace id. Unknown versions are tolerated as long as the
    /// field layout matches; a zero trace id is rejected per spec.
    pub fn parse_traceparent(header: &str) -> Option<TraceId> {
        let mut parts = header.trim().split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let parent = parts.next()?;
        let flags = parts.next()?;
        if version.len() != 2 || parent.len() != 16 || flags.len() != 2 {
            return None;
        }
        if !(is_hex(version) && is_hex(parent) && is_hex(flags)) {
            return None;
        }
        TraceId::from_hex(trace)
    }

    /// The 32-hex wire form.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// A `traceparent` header value naming this trace, with the given
    /// 64-bit parent (span) id and the sampled flag set.
    pub fn traceparent(self, parent: u64) -> String {
        format!("00-{:032x}-{:016x}-01", self.0, parent.max(1))
    }

    /// Deterministic 1-in-[`HEAD_SAMPLE_EVERY`] head sample on the id's low
    /// bits, so a retried request samples the same way.
    pub fn head_sampled(self) -> bool {
        (self.0 as u64).is_multiple_of(HEAD_SAMPLE_EVERY)
    }
}

/// Keep 1 in this many uninteresting traces.
pub const HEAD_SAMPLE_EVERY: u64 = 64;

/// Byte budget of the server's [`TraceStore`]; oldest traces are evicted
/// (and counted) once the estimate exceeds it. This is the one retention
/// policy: everything the server remembers about finished requests lives
/// within this bound.
pub const STORE_BUDGET_BYTES: usize = 4 << 20;

/// Per-request span cap; spans past it are dropped and counted.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// Token-bucket ceiling on retained traces per second (burst = one second's
/// worth). A human reads dozens of traces, not thousands: past this rate an
/// extra retained trace buys nothing and its store churn is pure overhead at
/// exactly the moment the server is busiest, so overflow is counted
/// (`rate_limited`) instead of kept.
pub const RETAIN_PER_SEC: u32 = 128;

/// The share of the retention bucket a refusal cannot take. An overload
/// storm produces thousands of identical 429/503 traces a second; they are
/// retained only while the bucket is above this fraction, so the rest is
/// always there for a `slow`, `panic` or `wal_rollback` trace — the ones
/// that explain the storm.
pub const REFUSAL_RESERVE: f64 = 0.5;

/// The tail sampler's slow thresholds — the two telemetry values callers
/// set (`precis serve --trace-slow-ms`). The defaults match the SLO
/// defaults: a trace slower than its class's latency objective is
/// interesting by definition.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Latency above which an interactive-class request is retained.
    pub slow_interactive: Duration,
    /// Latency above which a batch-class request is retained.
    pub slow_batch: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slow_interactive: Duration::from_millis(25),
            slow_batch: Duration::from_millis(250),
        }
    }
}

/// The scheduler's per-request decision record attached to retained traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedDecision {
    pub predicted_ms: Option<f64>,
    pub queue_wait_ms: f64,
    pub reordered: bool,
    pub shed: Option<ShedDecision>,
}

/// The admission controller's shed verdict, when the request was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedDecision {
    /// `"capacity"` or `"deadline"`.
    pub reason: &'static str,
    pub backlog_ms: f64,
    pub retry_after_ms: u64,
}

/// The tail sampler's verdict on one finished request: why its trace is
/// retained, in a stable order. Empty means "drop it" — nothing about the
/// outcome was interesting and the head sample passed it over. `class` is
/// `"interactive"` / `"batch"` for queries and `""` elsewhere (judged by
/// the interactive threshold); a shed is read off the scheduler's decision
/// record. A reorder alone is not a reason: every one is counted
/// (`precis_sched_reordered_total`), one that hurt is retained as `slow`, and
/// the decision record of a trace kept for another reason still says so.
#[allow(clippy::too_many_arguments)]
pub fn retain_reasons(
    config: &TelemetryConfig,
    id: TraceId,
    status: u16,
    latency: Duration,
    class: &str,
    sched: Option<&SchedDecision>,
    wal_rollback: bool,
    panicked: bool,
) -> Vec<&'static str> {
    let mut reasons = Vec::new();
    let threshold = if class == "batch" {
        config.slow_batch
    } else {
        config.slow_interactive
    };
    if latency > threshold {
        reasons.push("slow");
    }
    if !(200..300).contains(&status) {
        reasons.push("error");
    }
    if sched.is_some_and(|s| s.shed.is_some()) {
        reasons.push("shed");
    }
    if wal_rollback {
        reasons.push("wal_rollback");
    }
    if panicked {
        reasons.push("panic");
    }
    if reasons.is_empty() && id.head_sampled() {
        reasons.push("head_sample");
    }
    reasons
}

/// One retained trace: identity, outcome, the scheduler's decision record,
/// the span tree, and the predicted-vs-measured profile folded from it.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// 32-hex wire trace id.
    pub trace_id: String,
    pub endpoint: &'static str,
    /// `"interactive"` / `"batch"` for queries, `""` elsewhere.
    pub class: &'static str,
    pub status: u16,
    pub reasons: Vec<&'static str>,
    pub latency_ns: u64,
    /// Smallest latency-histogram bucket bound (seconds) this request
    /// landed in — the exemplar linkage back to `/metrics`; `+Inf` is
    /// `f64::INFINITY`.
    pub bucket_le: f64,
    pub sched: Option<SchedDecision>,
    pub profile: Option<ProfileSnapshot>,
    pub spans: Vec<SpanRecord>,
    /// Spans past the per-request cap.
    pub span_drops: u64,
}

impl RetainedTrace {
    /// Rough heap footprint, for the store's byte budget.
    fn approx_bytes(&self) -> usize {
        let spans: usize = self
            .spans
            .iter()
            .map(|s| std::mem::size_of::<SpanRecord>() + s.label.as_ref().map_or(0, String::len))
            .sum();
        let profile = self.profile.as_ref().map_or(0, |p| {
            std::mem::size_of::<ProfileSnapshot>() + p.query.len() + p.relations.len() * 96
        });
        std::mem::size_of::<RetainedTrace>() + self.trace_id.len() + spans + profile
    }
}

/// Filters for listing retained traces.
#[derive(Debug, Default, Clone)]
pub struct TraceFilter {
    /// Keep traces whose reasons include this: one of `"slow"`, `"error"`,
    /// `"shed"`, `"wal_rollback"`, `"panic"`, `"head_sample"`.
    pub outcome: Option<String>,
    /// Keep traces of this priority class.
    pub class: Option<String>,
    pub min_latency: Option<Duration>,
}

struct StoreInner {
    entries: VecDeque<RetainedTrace>,
    bytes: usize,
}

/// The retention token bucket (see [`RETAIN_PER_SEC`]).
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Bounded ring of retained traces. Insertion evicts the oldest entries
/// once the byte estimate exceeds the budget; evictions and sampler drops
/// are both counted by reason so the `precis_trace_*` families always
/// account for every admitted request.
pub struct TraceStore {
    budget_bytes: usize,
    retain_per_sec: f64,
    bucket: Mutex<Bucket>,
    inner: Mutex<StoreInner>,
    retained: Mutex<BTreeMap<&'static str, u64>>,
    dropped: Mutex<BTreeMap<&'static str, u64>>,
    /// Hot-path drop reasons kept as plain atomics (the mutex'd map is
    /// only touched for rare reasons like eviction); merged back into the
    /// `precis_trace_dropped_total` family on scrape.
    dropped_not_interesting: AtomicU64,
    dropped_rate_limited: AtomicU64,
}

impl Default for TraceStore {
    /// The server's store: [`STORE_BUDGET_BYTES`], [`RETAIN_PER_SEC`].
    fn default() -> Self {
        TraceStore::new(STORE_BUDGET_BYTES, RETAIN_PER_SEC)
    }
}

impl TraceStore {
    /// A store evicting past `budget_bytes` and retaining at most
    /// `retain_per_sec` traces per second (zero: unlimited).
    pub fn new(budget_bytes: usize, retain_per_sec: u32) -> TraceStore {
        TraceStore {
            budget_bytes,
            retain_per_sec: f64::from(retain_per_sec),
            bucket: Mutex::new(Bucket {
                tokens: f64::from(retain_per_sec),
                last: Instant::now(),
            }),
            inner: Mutex::new(StoreInner {
                entries: VecDeque::new(),
                bytes: 0,
            }),
            retained: Mutex::new(BTreeMap::new()),
            dropped: Mutex::new(BTreeMap::new()),
            dropped_not_interesting: AtomicU64::new(0),
            dropped_rate_limited: AtomicU64::new(0),
        }
    }

    /// Take one retention token; `false` means the trace must be dropped
    /// (count it with [`TraceStore::drop_rate_limited`]). A refusal — a
    /// 429/503 interesting only as `error`/`shed` — may not take the bucket
    /// below [`REFUSAL_RESERVE`]; every other trace may drain it.
    pub fn admit_retention(&self, status: u16, reasons: &[&'static str]) -> bool {
        let per_sec = self.retain_per_sec;
        if per_sec <= 0.0 {
            return true;
        }
        let refusal =
            matches!(status, 429 | 503) && reasons.iter().all(|r| matches!(*r, "error" | "shed"));
        let reserve = if refusal {
            per_sec * REFUSAL_RESERVE
        } else {
            0.0
        };
        let mut b = self.bucket.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        let elapsed = now.duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + elapsed * per_sec).min(per_sec);
        b.last = now;
        if b.tokens >= reserve + 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Count an interesting trace dropped because retention is
    /// rate-limited.
    pub fn drop_rate_limited(&self) {
        self.dropped_rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    fn bump(map: &Mutex<BTreeMap<&'static str, u64>>, reason: &'static str) {
        *map.lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(reason)
            .or_insert(0) += 1;
    }

    /// Retain one trace; the first reason is the one counted.
    pub fn offer(&self, trace: RetainedTrace) {
        TraceStore::bump(&self.retained, trace.reasons.first().unwrap_or(&"unknown"));
        let bytes = trace.approx_bytes();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.entries.push_back(trace);
        inner.bytes += bytes;
        while inner.bytes > self.budget_bytes && inner.entries.len() > 1 {
            if let Some(old) = inner.entries.pop_front() {
                inner.bytes = inner.bytes.saturating_sub(old.approx_bytes());
                TraceStore::bump(&self.dropped, "evicted");
            }
        }
    }

    /// Count a trace the sampler decided not to keep.
    pub fn drop_uninteresting(&self) {
        self.dropped_not_interesting.fetch_add(1, Ordering::Relaxed);
    }

    /// Newest-first listing matching the filter.
    pub fn list(&self, filter: &TraceFilter) -> Vec<RetainedTrace> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .entries
            .iter()
            .rev()
            .filter(|t| {
                filter
                    .outcome
                    .as_deref()
                    .is_none_or(|o| t.reasons.contains(&o))
                    && filter.class.as_deref().is_none_or(|c| t.class == c)
                    && filter
                        .min_latency
                        .is_none_or(|m| t.latency_ns >= m.as_nanos() as u64)
            })
            .cloned()
            .collect()
    }

    /// Look one trace up by its 32-hex wire id.
    pub fn get(&self, trace_id: &str) -> Option<RetainedTrace> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .entries
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entries
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).bytes
    }

    /// Append the `precis_trace_*` Prometheus families.
    pub fn write_prometheus(&self, out: &mut String) {
        out.push_str("# HELP precis_trace_retained_total Traces kept by the tail sampler, by first reason.\n");
        out.push_str("# TYPE precis_trace_retained_total counter\n");
        let retained = self.retained.lock().unwrap_or_else(|p| p.into_inner());
        if retained.is_empty() {
            out.push_str("precis_trace_retained_total{reason=\"none\"} 0\n");
        }
        for (reason, n) in retained.iter() {
            let _ = writeln!(
                out,
                "precis_trace_retained_total{{reason=\"{reason}\"}} {n}"
            );
        }
        drop(retained);
        out.push_str(
            "# HELP precis_trace_dropped_total Traces dropped (sampler) or evicted (budget).\n",
        );
        out.push_str("# TYPE precis_trace_dropped_total counter\n");
        let mut dropped = self
            .dropped
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        let not_interesting = self.dropped_not_interesting.load(Ordering::Relaxed);
        if not_interesting > 0 {
            dropped.insert("not_interesting", not_interesting);
        }
        let rate_limited = self.dropped_rate_limited.load(Ordering::Relaxed);
        if rate_limited > 0 {
            dropped.insert("rate_limited", rate_limited);
        }
        if dropped.is_empty() {
            out.push_str("precis_trace_dropped_total{reason=\"none\"} 0\n");
        }
        for (reason, n) in dropped.iter() {
            let _ = writeln!(out, "precis_trace_dropped_total{{reason=\"{reason}\"}} {n}");
        }
        let _ = write!(
            out,
            "# HELP precis_trace_store_entries Retained traces currently held.\n\
             # TYPE precis_trace_store_entries gauge\n\
             precis_trace_store_entries {}\n\
             # HELP precis_trace_store_bytes Estimated bytes held by the trace store.\n\
             # TYPE precis_trace_store_bytes gauge\n\
             precis_trace_store_bytes {}\n",
            self.len(),
            self.bytes(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_trace(id: &str, reasons: Vec<&'static str>) -> RetainedTrace {
        RetainedTrace {
            trace_id: id.to_owned(),
            endpoint: "query",
            class: "interactive",
            status: 200,
            reasons,
            latency_ns: 1_000_000,
            bucket_le: 0.0025,
            sched: None,
            profile: None,
            spans: Vec::new(),
            span_drops: 0,
        }
    }

    #[test]
    fn traceparent_round_trips_and_rejects_garbage() {
        let id = TraceId::mint();
        let header = id.traceparent(0xDEAD);
        assert_eq!(TraceId::parse_traceparent(&header), Some(id));
        assert_eq!(header.len(), 2 + 1 + 32 + 1 + 16 + 1 + 2);
        let hex = id.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(TraceId::from_hex(&hex), Some(id));

        for bad in [
            "",
            "00-short-0000000000000000-01",
            "00-00000000000000000000000000000000-0000000000000000-01", // zero id
            "zz-0123456789abcdef0123456789abcdef-0000000000000000-01",
            "00-0123456789abcdef0123456789abcdef-nothex0000000000-01",
            "not a header at all",
            // `from_str_radix` takes a leading `+`; the wire format does not.
            "00-+0123456789abcdef0123456789abcde-0000000000000001-01",
            "00-0123456789abcdef0123456789abcdef-+000000000000001-01",
            "00-0123456789abcdef0123456789abcdef-0000000000000001-+1",
            "+0-0123456789abcdef0123456789abcdef-0000000000000001-01",
            "00-+0123456789abcdef0123456789abcde-+000000000000001-+1",
        ] {
            assert_eq!(TraceId::parse_traceparent(bad), None, "{bad:?}");
        }
        assert_eq!(TraceId::from_hex("+0123456789abcdef0123456789abcde"), None);
    }

    #[test]
    fn minted_ids_are_distinct_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.to_hex(), "0".repeat(32));
    }

    fn decision(reordered: bool, shed: bool) -> SchedDecision {
        SchedDecision {
            predicted_ms: None,
            queue_wait_ms: 0.0,
            reordered,
            shed: shed.then_some(ShedDecision {
                reason: "deadline",
                backlog_ms: 0.0,
                retry_after_ms: 25,
            }),
        }
    }

    #[test]
    fn sampler_keeps_interesting_traces_and_counts_everything_else() {
        let config = TelemetryConfig::default();
        // Not head-sampled, so only the tail verdict decides.
        let id = TraceId::from_u128(1).unwrap();
        let ms = Duration::from_millis;
        let plain = |status, latency, class| {
            retain_reasons(&config, id, status, latency, class, None, false, false)
        };
        assert!(plain(200, ms(1), "interactive").is_empty());
        assert_eq!(plain(200, ms(30), "interactive"), ["slow"]);
        // 30 ms is slow for interactive, fine for batch; no class at all is
        // judged as interactive.
        assert!(plain(200, ms(30), "batch").is_empty());
        assert_eq!(plain(200, ms(30), ""), ["slow"]);

        let shed = decision(false, true);
        assert_eq!(
            retain_reasons(
                &config,
                id,
                429,
                ms(1),
                "interactive",
                Some(&shed),
                false,
                false
            ),
            ["error", "shed"]
        );
        let busy = decision(true, false);
        assert_eq!(
            retain_reasons(
                &config,
                id,
                500,
                ms(30),
                "interactive",
                Some(&busy),
                true,
                true
            ),
            ["slow", "error", "wal_rollback", "panic"]
        );
        // A reorder alone is counted, not retained; the decision record of a
        // trace kept for another reason still carries it.
        assert!(retain_reasons(
            &config,
            id,
            200,
            ms(1),
            "interactive",
            Some(&busy),
            false,
            false
        )
        .is_empty());
        assert_eq!(
            retain_reasons(
                &config,
                id,
                200,
                ms(30),
                "interactive",
                Some(&busy),
                false,
                false
            ),
            ["slow"]
        );
    }

    #[test]
    fn head_sampling_is_deterministic_on_the_wire_id() {
        let config = TelemetryConfig::default();
        let sampled = TraceId::from_u128(u128::from(HEAD_SAMPLE_EVERY) * 3).unwrap();
        let unsampled = TraceId::from_u128(u128::from(HEAD_SAMPLE_EVERY) * 3 + 1).unwrap();
        let boring =
            |id, latency| retain_reasons(&config, id, 200, latency, "", None, false, false);
        let fast = Duration::from_millis(1);
        assert_eq!(boring(sampled, fast), ["head_sample"]);
        assert!(boring(unsampled, fast).is_empty());
        // An interesting trace never double-counts as a head sample.
        assert_eq!(boring(sampled, Duration::from_millis(30)), ["slow"]);
    }

    #[test]
    fn a_refusal_storm_cannot_empty_the_retention_bucket() {
        let store = TraceStore::default();
        let mut kept = 0;
        for i in 0..10 * RETAIN_PER_SEC {
            let (status, reasons): (u16, &[&'static str]) = if i % 2 == 0 {
                (429, &["error", "shed"])
            } else {
                (503, &["error"])
            };
            if store.admit_retention(status, reasons) {
                kept += 1;
            } else {
                store.drop_rate_limited();
            }
        }
        // The loop is one instant to a 128/s bucket; the slack is refill
        // while a loaded host has this thread descheduled.
        let open = RETAIN_PER_SEC - (f64::from(RETAIN_PER_SEC) * REFUSAL_RESERVE) as u32;
        assert!(
            (open..=open + open / 2).contains(&kept),
            "{kept} refusals retained"
        );
        let mut out = String::new();
        store.write_prometheus(&mut out);
        let rate_limited = 10 * RETAIN_PER_SEC - kept;
        assert!(
            out.contains(&format!(
                "precis_trace_dropped_total{{reason=\"rate_limited\"}} {rate_limited}"
            )),
            "{out}"
        );
        // What a refusal could not take is there for the traces that matter,
        // and for an error that is not a refusal.
        assert!(store.admit_retention(500, &["error", "panic"]));
        assert!(store.admit_retention(429, &["slow", "error", "shed"]));
        assert!(store.admit_retention(504, &["error"]));
    }

    #[test]
    fn store_retains_lists_and_gets_by_id() {
        let store = TraceStore::new(1 << 20, 0);
        store.offer(minimal_trace("a".repeat(32).as_str(), vec!["slow"]));
        store.offer({
            let mut t = minimal_trace("b".repeat(32).as_str(), vec!["shed", "error"]);
            t.class = "batch";
            t.latency_ns = 50_000_000;
            t
        });
        store.drop_uninteresting();
        assert_eq!(store.len(), 2);

        let all = store.list(&TraceFilter::default());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].trace_id, "b".repeat(32), "newest first");

        let shed_only = store.list(&TraceFilter {
            outcome: Some("shed".to_owned()),
            ..TraceFilter::default()
        });
        assert_eq!(shed_only.len(), 1);
        let batch_only = store.list(&TraceFilter {
            class: Some("batch".to_owned()),
            ..TraceFilter::default()
        });
        assert_eq!(batch_only.len(), 1);
        let slow_enough = store.list(&TraceFilter {
            min_latency: Some(Duration::from_millis(10)),
            ..TraceFilter::default()
        });
        assert_eq!(slow_enough.len(), 1);

        assert!(store.get(&"a".repeat(32)).is_some());
        assert!(store.get(&"c".repeat(32)).is_none());

        let mut out = String::new();
        store.write_prometheus(&mut out);
        assert!(out.contains("precis_trace_retained_total{reason=\"slow\"} 1"));
        assert!(out.contains("precis_trace_retained_total{reason=\"shed\"} 1"));
        assert!(out.contains("precis_trace_dropped_total{reason=\"not_interesting\"} 1"));
        assert!(out.contains("precis_trace_store_entries 2"));
    }

    #[test]
    fn store_evicts_oldest_over_budget_and_counts_evictions() {
        let store = TraceStore::new(2048, 0);
        for i in 0..64 {
            let mut t = minimal_trace(&format!("{i:032x}"), vec!["slow"]);
            // Pad so a handful of traces overflow the tiny budget.
            t.spans = vec![
                SpanRecord {
                    trace: 1,
                    id: 1,
                    parent: 0,
                    name: "pad",
                    start_ns: 0,
                    end_ns: 1,
                    thread: 1,
                    fields: Default::default(),
                    label: None,
                };
                4
            ];
            store.offer(t);
        }
        assert!(store.len() < 64, "budget evicted something");
        assert!(store.bytes() <= 2048 + 1024, "bytes tracked");
        // The survivors are the newest.
        let newest = store.list(&TraceFilter::default());
        assert_eq!(newest[0].trace_id, format!("{:032x}", 63));
        let mut out = String::new();
        store.write_prometheus(&mut out);
        assert!(out.contains("precis_trace_dropped_total{reason=\"evicted\"}"));
    }
}
