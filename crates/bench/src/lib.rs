//! # precis-bench
//!
//! The benchmark harness reproducing the paper's evaluation (§6):
//!
//! * **Figure 7** — Result Schema Generator time vs. degree `d`;
//! * **Figure 8** — Result Database Generator time vs. tuples/relation
//!   `c_R` at `n_R = 4`, NaïveQ;
//! * **Figure 9** — NaïveQ vs. Round-Robin time vs. `n_R` at `c_R = 50`;
//! * **Formula 2** — cost-model validation (predicted vs. measured);
//! * ablations: best-first pruning, in-degree postponement, and the
//!   keyword-search baseline.
//!
//! The [`figures`] module computes each series and the `experiments` binary
//! prints them as paper-style tables. Everything timed for a change — the
//! serving benchmark and its per-layer probes — is `crates/benchmark`.

pub mod figures;
pub mod workloads;
