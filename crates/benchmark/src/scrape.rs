//! Reading the server's `/v1/metrics` text exposition.

use std::collections::BTreeMap;

/// The samples of one scrape, keyed by the series as written
/// (`family{label="v",...}` or bare `family`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(exposition: &str) -> Scrape {
        let samples = exposition
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                // The value follows the last space; label values may hold
                // spaces, series names may not.
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.trim().to_owned(), value.parse().ok()?))
            })
            .collect();
        Scrape(samples)
    }

    /// The value of one series, 0 when the server has not emitted it yet
    /// (labelled counters appear with their first event).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// Growth of a counter between two scrapes. A mutation swaps in a fresh
/// engine whose cache counters restart, so a counter that went down is read
/// as having restarted from zero.
pub fn delta(start: &Scrape, end: &Scrape, series: &str) -> f64 {
    let (a, b) = (start.get(series), end.get(series));
    if b >= a {
        b - a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANNED: &str = "\
# HELP precis_requests_total Requests by endpoint and status.
# TYPE precis_requests_total counter
precis_requests_total{endpoint=\"query\",status=\"200\"} 41
precis_requests_total{endpoint=\"query\",status=\"429\"} 1
precis_requests_total{endpoint=\"healthz\",status=\"200\"} 3
precis_request_duration_seconds_bucket{endpoint=\"query\",le=\"0.00025\"} 40
precis_request_duration_seconds_sum{endpoint=\"query\"} 0.006543
precis_request_duration_seconds_count{endpoint=\"query\"} 42
precis_queue_wait_seconds_sum 0.000162974
precis_queue_wait_seconds_count 45

precis_queue_depth 18446744073709551615
precis_sched_coalesced_total 7
precis_cache_events_total{layer=\"token\",kind=\"hit\"} 12
precis_slo_objective{slo=\"a b\"} 0.99
garbage line without a number
";

    #[test]
    fn reads_a_canned_exposition() {
        let s = Scrape::parse(CANNED);
        assert_eq!(
            s.get("precis_requests_total{endpoint=\"query\",status=\"200\"}"),
            41.0
        );
        assert_eq!(
            s.get("precis_request_duration_seconds_sum{endpoint=\"query\"}"),
            0.006543
        );
        assert_eq!(s.get("precis_queue_wait_seconds_count"), 45.0);
        assert_eq!(s.get("precis_sched_coalesced_total"), 7.0);
        assert_eq!(s.get("precis_slo_objective{slo=\"a b\"}"), 0.99);
        assert_eq!(s.get("precis_queue_depth"), 18446744073709551615.0);
        assert_eq!(s.get("precis_never_emitted_total"), 0.0);
    }

    #[test]
    fn delta_treats_a_smaller_counter_as_restarted() {
        let a = Scrape::parse("c 10\nd 10\n");
        let b = Scrape::parse("c 25\nd 4\n");
        assert_eq!(delta(&a, &b, "c"), 15.0);
        assert_eq!(delta(&a, &b, "d"), 4.0);
        assert_eq!(delta(&a, &b, "absent"), 0.0);
    }
}
