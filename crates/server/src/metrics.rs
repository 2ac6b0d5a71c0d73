//! Lock-free request metrics with a Prometheus text-format exposition.
//!
//! Everything is an atomic counter so the hot path never takes a lock:
//! per-endpoint/status request counts, fixed-bucket latency histograms
//! split into queue-wait and per-endpoint service time, live queue depth,
//! and admission/deadline rejection totals. The schema memo's
//! [`precis_core::AnswerCacheStats`] and the per-phase profile aggregates
//! ([`precis_obs::PhaseAgg`]) are folded into the exposition at scrape
//! time. Scrape handling appends into one output `String` through
//! `fmt::Write` with pre-interned labels, so serving `/v1/metrics` performs
//! no per-series allocation — a scrape observes itself only under the
//! `metrics` endpoint label.

use precis_core::{AnswerCacheStats, PrecisEngine};
use precis_obs::PhaseAgg;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Histogram bucket upper bounds, seconds. Chosen to straddle both cached
/// sub-millisecond answers and multi-second deadline-bounded ones.
pub const LATENCY_BUCKETS: [f64; 12] = [
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
];

/// Statuses tracked per endpoint — every code the server emits. Anything
/// else lands in a dedicated `other` label rather than masquerading as a
/// tracked status.
const STATUSES: [u16; 11] = [200, 400, 403, 404, 405, 408, 413, 429, 500, 503, 504];

/// Index of the catch-all slot for statuses outside [`STATUSES`].
const STATUS_OTHER: usize = STATUSES.len();

/// Pre-interned exposition labels for every status slot (the [`STATUSES`]
/// codes plus the `other` catch-all) — rendering a scrape must not allocate
/// a label string per series.
const STATUS_LABELS: [&str; STATUSES.len() + 1] = [
    "200", "400", "403", "404", "405", "408", "413", "429", "500", "503", "504", "other",
];

/// Endpoints tracked individually; anything else lands in `other`.
const ENDPOINTS: [&str; 5] = ["query", "mutate", "healthz", "metrics", "other"];

/// One latency histogram. Each sample is counted once, in the bucket it
/// lands in; the exposition's cumulative `le` counts are summed when a
/// scrape renders them.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Samples per bucket: above the previous bound, at or under this one.
    /// A sample past the last bound is in `count` alone.
    buckets: [AtomicU64; LATENCY_BUCKETS.len()],
    count: AtomicU64,
    /// Sum in nanoseconds (u64 holds ~584 years of request time).
    sum_nanos: AtomicU64,
}

impl Histogram {
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        if let Some(i) = LATENCY_BUCKETS.iter().position(|le| secs <= *le) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// What the exposition's `le` series report: samples at or under each
    /// bound.
    fn cumulative(&self) -> [u64; LATENCY_BUCKETS.len()] {
        let mut at_or_under = 0;
        std::array::from_fn(|i| {
            at_or_under += self.buckets[i].load(Ordering::Relaxed);
            at_or_under
        })
    }
}

/// The smallest [`LATENCY_BUCKETS`] upper bound covering `secs`, or
/// `+Inf` past the last bucket — the exemplar-style linkage retained
/// traces carry so a histogram spike in `/v1/metrics`
/// is navigable to the concrete requests that landed in that bucket.
pub fn bucket_le(secs: f64) -> f64 {
    LATENCY_BUCKETS
        .iter()
        .copied()
        .find(|le| secs <= *le)
        .unwrap_or(f64::INFINITY)
}

/// All serving metrics, shared across acceptor and workers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// requests[endpoint][status] counters; the final status slot is the
    /// `other` catch-all.
    requests: [[AtomicU64; STATUSES.len() + 1]; ENDPOINTS.len()],
    /// Service-time histograms, one per endpoint label: the clock starts
    /// when a worker picks the connection up, so queue time is excluded —
    /// and a `/v1/metrics` scrape only ever observes itself under the
    /// `metrics` label, never inflating `/v1/query` latency.
    durations: [Histogram; ENDPOINTS.len()],
    /// Time connections spent waiting in the admission queue, server-wide.
    pub queue_wait: Histogram,
    /// Connections currently queued for a worker.
    queue_depth: AtomicU64,
    /// Connections refused at admission (queue full → 429).
    rejected_total: AtomicU64,
    /// Requests aborted by their deadline (→ 504).
    deadline_exceeded_total: AtomicU64,
    /// Handler panics converted to 500s.
    panics_total: AtomicU64,
    /// Bytes `/v1/mutate` batches copied of the engine they were applied
    /// beside (chunks, shards and posting lists a snapshot still shared).
    mutate_copied_bytes_total: AtomicU64,
    /// Queries refused by the cost-aware admission controller (→ 429).
    sched_shed_total: AtomicU64,
    /// Pops where the cost-aware policy disagreed with FIFO order.
    sched_reordered_total: AtomicU64,
    /// Per-phase / cost-model aggregates accumulated from query profiles.
    pub phases: PhaseAgg,
    /// The engine last scraped and its [`PrecisEngine::resident_bytes`]:
    /// computing them walks every index entry, so a scrape does it once per
    /// published engine, not once per scrape. (The `Weak` pins the address
    /// it is compared by, not the engine.)
    resident: Mutex<Option<(Weak<PrecisEngine>, ResidentBytes)>>,
}

type ResidentBytes = [(&'static str, usize); 5];

fn endpoint_slot(endpoint: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|e| *e == endpoint)
        .unwrap_or(ENDPOINTS.len() - 1)
}

fn status_slot(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|s| *s == status)
        .unwrap_or(STATUS_OTHER)
}

impl Metrics {
    pub fn record_request(&self, endpoint: &str, status: u16, latency: Duration) {
        let slot = endpoint_slot(endpoint);
        self.requests[slot][status_slot(status)].fetch_add(1, Ordering::Relaxed);
        self.durations[slot].observe(latency);
        if status == 504 {
            self.deadline_exceeded_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record how long a connection waited between admission and pickup.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.observe(wait);
    }

    /// The service-time histogram for one endpoint label.
    pub fn duration(&self, endpoint: &str) -> &Histogram {
        &self.durations[endpoint_slot(endpoint)]
    }

    pub fn record_rejection(&self) {
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_panic(&self) {
        self.panics_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A batch copied `bytes` of the published engine to stay out of its way.
    pub fn record_mutate_copied(&self, bytes: u64) {
        self.mutate_copied_bytes_total
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// A query was shed at admission.
    pub fn record_shed(&self) {
        self.sched_shed_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_reordered(&self) {
        self.sched_reordered_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn shed_total(&self) -> u64 {
        self.sched_shed_total.load(Ordering::Relaxed)
    }

    pub fn enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    pub fn rejected_total(&self) -> u64 {
        self.rejected_total.load(Ordering::Relaxed)
    }

    pub fn deadline_exceeded_total(&self) -> u64 {
        self.deadline_exceeded_total.load(Ordering::Relaxed)
    }

    pub fn requests_for(&self, endpoint: &str, status: u16) -> u64 {
        self.requests[endpoint_slot(endpoint)][status_slot(status)].load(Ordering::Relaxed)
    }

    /// Render the Prometheus text exposition format (v0.0.4). Appends into
    /// one pre-sized `String` via `fmt::Write`; no per-series allocations.
    pub fn render_prometheus(&self, cache: &AnswerCacheStats) -> String {
        let mut out = String::with_capacity(8192);

        out.push_str("# HELP precis_requests_total Handled requests by endpoint and status.\n");
        out.push_str("# TYPE precis_requests_total counter\n");
        for (ei, endpoint) in ENDPOINTS.iter().enumerate() {
            for (si, counter) in self.requests[ei].iter().enumerate() {
                let n = counter.load(Ordering::Relaxed);
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "precis_requests_total{{endpoint=\"{endpoint}\",status=\"{}\"}} {n}",
                        STATUS_LABELS[si]
                    );
                }
            }
        }

        out.push_str(
            "# HELP precis_request_duration_seconds Request service time by endpoint \
             (queue wait excluded).\n",
        );
        out.push_str("# TYPE precis_request_duration_seconds histogram\n");
        for (ei, endpoint) in ENDPOINTS.iter().enumerate() {
            let h = &self.durations[ei];
            if h.count() == 0 {
                continue;
            }
            for (le, n) in LATENCY_BUCKETS.iter().zip(h.cumulative()) {
                let _ = writeln!(
                    out,
                    "precis_request_duration_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}} {n}"
                );
            }
            let _ = writeln!(
                out,
                "precis_request_duration_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(
                out,
                "precis_request_duration_seconds_sum{{endpoint=\"{endpoint}\"}} {}",
                h.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "precis_request_duration_seconds_count{{endpoint=\"{endpoint}\"}} {}",
                h.count()
            );
        }

        out.push_str(
            "# HELP precis_queue_wait_seconds Time connections waited in the \
             admission queue before a worker picked them up.\n",
        );
        out.push_str("# TYPE precis_queue_wait_seconds histogram\n");
        for (le, n) in LATENCY_BUCKETS.iter().zip(self.queue_wait.cumulative()) {
            let _ = writeln!(out, "precis_queue_wait_seconds_bucket{{le=\"{le}\"}} {n}");
        }
        let _ = writeln!(
            out,
            "precis_queue_wait_seconds_bucket{{le=\"+Inf\"}} {}",
            self.queue_wait.count()
        );
        let _ = writeln!(
            out,
            "precis_queue_wait_seconds_sum {}",
            self.queue_wait.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "precis_queue_wait_seconds_count {}",
            self.queue_wait.count()
        );

        let singles: [(&str, &str, u64); 8] = [
            (
                "precis_queue_depth",
                "Connections waiting for a worker (gauge).",
                self.queue_depth(),
            ),
            (
                "precis_rejected_total",
                "Connections refused at admission with 429.",
                self.rejected_total(),
            ),
            (
                "precis_deadline_exceeded_total",
                "Requests aborted by their deadline with 504.",
                self.deadline_exceeded_total(),
            ),
            (
                "precis_handler_panics_total",
                "Handler panics converted to 500 responses.",
                self.panics_total.load(Ordering::Relaxed),
            ),
            (
                "precis_mutate_copied_bytes_total",
                "Bytes of the published engine that mutation batches copied before changing them.",
                self.mutate_copied_bytes_total.load(Ordering::Relaxed),
            ),
            (
                "precis_symbols",
                "Strings in the process-wide symbol table, which only grows (gauge).",
                precis_storage::SymbolTable::global().len() as u64,
            ),
            (
                "precis_sched_shed_total",
                "Queries refused by cost-aware admission with 429.",
                self.shed_total(),
            ),
            (
                "precis_sched_reordered_total",
                "Scheduler pops that disagreed with FIFO arrival order.",
                self.sched_reordered_total.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in singles {
            let _ = writeln!(out, "# HELP {name} {help}");
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }

        out.push_str("# HELP precis_cache_events_total Schema-memo probes by kind.\n");
        out.push_str("# TYPE precis_cache_events_total counter\n");
        for (kind, value) in [("hit", cache.schema_hits), ("miss", cache.schema_misses)] {
            let _ = writeln!(
                out,
                "precis_cache_events_total{{layer=\"schema\",kind=\"{kind}\"}} {value}"
            );
        }

        self.phases.write_exposition(&mut out);
        out
    }

    /// Append the `precis_resident_bytes` family: what `engine` keeps on the
    /// heap, by part.
    pub fn write_resident_bytes(&self, out: &mut String, engine: &Arc<PrecisEngine>) {
        // A panic cannot leave the memo half-written (a store is one
        // assignment), so a poisoned lock still guards a valid one.
        let mut memo = self.resident.lock().unwrap_or_else(|e| e.into_inner());
        let parts = match &*memo {
            Some((scraped, parts)) if std::ptr::eq(scraped.as_ptr(), Arc::as_ptr(engine)) => *parts,
            _ => {
                let parts = engine.resident_bytes();
                *memo = Some((Arc::downgrade(engine), parts));
                parts
            }
        };
        out.push_str(
            "# HELP precis_resident_bytes Heap bytes the published engine keeps resident, \
             by part, at capacity (gauge).\n# TYPE precis_resident_bytes gauge\n",
        );
        for (part, bytes) in parts {
            let _ = writeln!(out, "precis_resident_bytes{{part=\"{part}\"}} {bytes}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_le_picks_the_covering_bound() {
        assert_eq!(bucket_le(0.0), 0.00025);
        assert_eq!(bucket_le(0.00025), 0.00025);
        assert_eq!(bucket_le(0.0011), 0.0025);
        assert_eq!(bucket_le(5.0), 5.0);
        assert_eq!(bucket_le(5.1), f64::INFINITY);
    }

    #[test]
    fn a_sample_in_every_bucket_and_one_past_the_last_render_cumulatively() {
        let m = Metrics::default();
        // Each bound exactly (a sample at a bound belongs to it), then 60 s.
        for le in LATENCY_BUCKETS {
            m.record_queue_wait(Duration::from_secs_f64(le));
        }
        m.record_queue_wait(Duration::from_secs(60));
        let text = m.render_prometheus(&AnswerCacheStats::default());
        let family: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("precis_queue_wait_seconds"))
            .collect();
        let expected = [
            "precis_queue_wait_seconds_bucket{le=\"0.00025\"} 1",
            "precis_queue_wait_seconds_bucket{le=\"0.0005\"} 2",
            "precis_queue_wait_seconds_bucket{le=\"0.001\"} 3",
            "precis_queue_wait_seconds_bucket{le=\"0.0025\"} 4",
            "precis_queue_wait_seconds_bucket{le=\"0.005\"} 5",
            "precis_queue_wait_seconds_bucket{le=\"0.01\"} 6",
            "precis_queue_wait_seconds_bucket{le=\"0.025\"} 7",
            "precis_queue_wait_seconds_bucket{le=\"0.05\"} 8",
            "precis_queue_wait_seconds_bucket{le=\"0.1\"} 9",
            "precis_queue_wait_seconds_bucket{le=\"0.25\"} 10",
            "precis_queue_wait_seconds_bucket{le=\"1\"} 11",
            "precis_queue_wait_seconds_bucket{le=\"5\"} 12",
            "precis_queue_wait_seconds_bucket{le=\"+Inf\"} 13",
            "precis_queue_wait_seconds_sum 66.44425",
            "precis_queue_wait_seconds_count 13",
        ];
        assert_eq!(family, expected);
    }

    #[test]
    fn exposition_contains_all_families() {
        let m = Metrics::default();
        m.record_request("query", 200, Duration::from_millis(2));
        m.record_request("query", 504, Duration::from_millis(5));
        m.record_rejection();
        m.enqueued();
        let cache = AnswerCacheStats {
            schema_hits: 3,
            schema_misses: 1,
            schema_evictions: 0,
        };
        let text = m.render_prometheus(&cache);
        assert!(text.contains("precis_requests_total{endpoint=\"query\",status=\"200\"} 1"));
        assert!(text.contains("precis_requests_total{endpoint=\"query\",status=\"504\"} 1"));
        assert!(text.contains("precis_request_duration_seconds_count{endpoint=\"query\"} 2"));
        assert!(text
            .contains("precis_request_duration_seconds_bucket{endpoint=\"query\",le=\"+Inf\"} 2"));
        assert!(text.contains("precis_queue_wait_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("precis_queue_wait_seconds_count 0"));
        assert!(text.contains("precis_queue_depth 1"));
        assert!(text.contains("precis_rejected_total 1"));
        assert!(text.contains("precis_deadline_exceeded_total 1"));
        assert!(text.contains("precis_cache_events_total{layer=\"schema\",kind=\"hit\"} 3"));
        assert_eq!(m.deadline_exceeded_total(), 1);
        assert_eq!(m.requests_for("query", 200), 1);
    }

    #[test]
    fn scheduler_counters_export_and_429_has_its_own_label() {
        let m = Metrics::default();
        m.record_request("query", 429, Duration::ZERO);
        m.record_shed();
        m.record_shed();
        m.record_reordered();
        let text = m.render_prometheus(&AnswerCacheStats::default());
        assert!(
            text.contains("precis_requests_total{endpoint=\"query\",status=\"429\"} 1"),
            "429 must not fold into the other catch-all:\n{text}"
        );
        assert!(text.contains("precis_sched_shed_total 2"));
        assert!(text.contains("precis_sched_reordered_total 1"));
        assert_eq!(m.shed_total(), 2);
    }

    #[test]
    fn scrape_latency_lands_only_under_the_metrics_label() {
        let m = Metrics::default();
        m.record_request("query", 200, Duration::from_millis(2));
        m.record_request("metrics", 200, Duration::from_millis(1));
        m.record_request("metrics", 200, Duration::from_millis(1));
        assert_eq!(m.duration("query").count(), 1);
        assert_eq!(m.duration("metrics").count(), 2);
        let text = m.render_prometheus(&AnswerCacheStats::default());
        assert!(text.contains("precis_request_duration_seconds_count{endpoint=\"query\"} 1"));
        assert!(text.contains("precis_request_duration_seconds_count{endpoint=\"metrics\"} 2"));
    }

    #[test]
    fn queue_wait_is_recorded_separately_from_service_time() {
        let m = Metrics::default();
        m.record_queue_wait(Duration::from_millis(3));
        m.record_queue_wait(Duration::from_millis(40));
        m.record_request("query", 200, Duration::from_millis(1));
        assert_eq!(m.queue_wait.count(), 2);
        assert_eq!(m.duration("query").count(), 1);
        let text = m.render_prometheus(&AnswerCacheStats::default());
        assert!(text.contains("precis_queue_wait_seconds_count 2"), "{text}");
        assert!(
            text.contains("precis_queue_wait_seconds_bucket{le=\"0.005\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn unknown_endpoints_and_statuses_fold_into_catchalls() {
        let m = Metrics::default();
        m.record_request("bogus", 418, Duration::ZERO);
        let text = m.render_prometheus(&AnswerCacheStats::default());
        // An unknown status must not masquerade as a 500 server error.
        assert!(
            text.contains("precis_requests_total{endpoint=\"other\",status=\"other\"} 1"),
            "{text}"
        );
        assert!(!text.contains("status=\"500\""), "{text}");
    }

    #[test]
    fn request_policing_statuses_export_under_their_own_labels() {
        let m = Metrics::default();
        m.record_request("other", 405, Duration::ZERO);
        m.record_request("other", 408, Duration::ZERO);
        m.record_request("other", 413, Duration::ZERO);
        let text = m.render_prometheus(&AnswerCacheStats::default());
        for status in ["405", "408", "413"] {
            assert!(
                text.contains(&format!(
                    "precis_requests_total{{endpoint=\"other\",status=\"{status}\"}} 1"
                )),
                "missing status {status} in:\n{text}"
            );
        }
    }

    #[test]
    fn resident_bytes_are_computed_once_per_engine() {
        use precis_datagen::{movies_graph, MoviesConfig, MoviesGenerator};
        let db = MoviesGenerator::new(MoviesConfig {
            movies: 40,
            directors: 6,
            actors: 30,
            theatres: 2,
            plays: 60,
            ..MoviesConfig::default()
        })
        .generate();
        let engine = Arc::new(PrecisEngine::new(db, movies_graph()).unwrap());
        let m = Metrics::default();
        let (mut first, mut second) = (String::new(), String::new());
        m.write_resident_bytes(&mut first, &engine);
        m.write_resident_bytes(&mut second, &engine);
        assert_eq!(first, second);
        precis_obs::validate_exposition(&first).expect("a well-formed gauge family");
        let parts: Vec<&str> = first.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(parts.len(), 5, "{first}");
        assert!(parts.iter().all(|l| !l.ends_with(" 0")), "{first}");
        // The memo remembers the engine by address and does not keep it
        // alive; the next engine scraped takes its place.
        assert_eq!(
            (Arc::weak_count(&engine), Arc::strong_count(&engine)),
            (1, 1)
        );
        let mut next = (*engine).clone();
        next.insert("GENRE", vec![900_001.into(), 1.into(), "Noir".into()])
            .unwrap();
        let next = Arc::new(next);
        let mut third = String::new();
        m.write_resident_bytes(&mut third, &next);
        assert_eq!((Arc::weak_count(&engine), Arc::weak_count(&next)), (0, 1));
        assert_ne!(first, third, "a new row, a new word");
    }
}
