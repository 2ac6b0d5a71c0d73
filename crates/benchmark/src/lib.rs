//! `precis-benchmark`: the one serving benchmark for Précis.
//!
//! Four workloads run against an in-process [`precis_server::Server`] over
//! loopback. A *run* ([`run::run`]) is one workload, one seed, one measured
//! window: it generates the database from the seed, sets the server up
//! several times (the median, scaled to the host's speed at the moment, is
//! `setup_s`), drives the workload's request stream, checks every served
//! body against a direct engine call, and reports either the end-to-end
//! metrics or — traced — the per-layer ones.
//! The *suite* ([`suite`]) re-executes this binary once per workload and
//! round, takes medians, and prints the report; `BENCHMARK.json` at the repo
//! root names the same metrics for the regression gate.
//!
//! The harness records its spans around calls into each layer's public
//! functions (see `README.md` for the frozen list); it adds nothing to the
//! program under test.

pub mod http;
pub mod load;
pub mod probes;
pub mod rng;
pub mod run;
pub mod scrape;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;
pub mod world;

/// Any failure of a run, as the `io::Error` its functions return.
pub(crate) fn other(e: impl ToString) -> std::io::Error {
    std::io::Error::other(e.to_string())
}
