//! `precis-server`: a concurrent network front-end for the précis engine.
//!
//! A deliberately dependency-free HTTP/1.1 service over `std::net`: a fixed
//! worker pool fed by a cost-aware scheduler ([`sched`]) that parses each
//! query at admission, prices it with the calibrated Formula-2 model, and
//! then sheds it (overload → `429` + `Retry-After`, never unbounded
//! buffering) or orders it shortest-predicted-first within its deadline
//! class; one request is one execution. Deadlines are
//! end-to-end from admission and abort précis generation cooperatively
//! (→ `504`); a Prometheus-format `/v1/metrics` endpoint covers request
//! counts, latency histograms, queue depth, shed/reorder totals,
//! and the engine's schema-memo statistics.
//!
//! Endpoints (mounted under `/v1/`, the versioned contract; any other path
//! answers `404 not_found`):
//!
//! | Method | Path             | Purpose                                        |
//! |--------|------------------|------------------------------------------------|
//! | POST   | `/v1/query`      | Answer a précis query (JSON in, JSON out; set  |
//! |        |                  | `"profile": true` for per-phase timings and    |
//! |        |                  | `"scheduling"` metadata; `"priority"` picks    |
//! |        |                  | the deadline class)                            |
//! | POST   | `/v1/mutate`     | Apply a batch of insert/update/delete ops      |
//! |        |                  | (loopback only; WAL-durable with `--data-dir`) |
//! | GET    | `/v1/healthz`    | Liveness probe                                 |
//! | GET    | `/v1/metrics`    | Prometheus text exposition                     |
//! | GET    | `/v1/debug/slow` | The slowest retained query traces' profiles    |
//! |        |                  | (loopback only)                                |
//! | GET    | `/v1/debug/traces` | Retained traces from the tail sampler        |
//! |        |                  | (loopback only; filter by `outcome`, `class`,  |
//! |        |                  | `min_latency_ms`)                              |
//! | GET    | `/v1/debug/traces/<id>` | One retained trace: span tree +         |
//! |        |                  | scheduling decision + predicted-vs-measured    |
//! |        |                  | phases (`?format=chrome` for Chrome JSON)      |
//! | GET    | `/v1/debug/slo`  | SLO burn-rate statuses (loopback only)         |
//! | POST   | `/shutdown`      | Graceful shutdown (drains in-flight requests;  |
//! |        |                  | unversioned only)                              |
//!
//! Every non-2xx response carries the structured error envelope
//! `{"error": {"code", "message", "retry_after_ms"?, "details"?}}`. Status
//! semantics: `429` means overload (shed by admission — back off and
//! retry); `503` is reserved for durability failures and shutdown; `504`
//! means the end-to-end deadline fired.
//!
//! Every handled request records its spans into a trace it owns, and every
//! `/v1/query`'s profile (queue wait, parse, token lookup, schema
//! generation, per-relation db_gen traversal, NLG, render) is folded from
//! them via `precis-obs`; profiles feed the per-phase Prometheus aggregates
//! and ride along on retained traces. Every request carries a 128-bit wire
//! trace id (from an incoming `traceparent` or minted) echoed as
//! `x-precis-trace-id` on every response and embedded in every error
//! envelope's `details`; a tail sampler retains the interesting traces in
//! one byte-budgeted store — the only record of finished requests, which
//! `/v1/debug/traces` and `/v1/debug/slow` both read — and an SLO engine
//! tracks error-budget burn rates (`precis_slo_*` families,
//! `/v1/debug/slo`, and a degraded-but-200 `/v1/healthz`).

pub mod api;
pub mod debug;
mod durable;
mod exit;
pub mod http;
pub mod json;
pub mod metrics;
pub mod mutate;
mod query;
mod routes;
pub mod sched;
mod server;

pub use api::{answer_query, parse_query_request, render_answer, write_profile_json, QueryRequest};
pub use durable::Durability;
pub use metrics::Metrics;
pub use mutate::{parse_mutate_request, MutateOp};
pub use sched::{Priority, Scheduler};
pub use server::{Server, ServerConfig, ServerHandle};
