//! precis-testkit — deterministic differential oracle and fault-injection
//! harness for the whole précis answer pipeline.
//!
//! The testkit answers two questions no single-crate unit test can:
//!
//! 1. **Do all execution paths agree?** Every generated case is pushed
//!    through five paths that must produce the same answer — retrieval
//!    strategies, cold vs warm vs invalidated caches, a loopback
//!    `precis-server` `/v1/query` round-trip, WAL-replayed crash recovery,
//!    and the engines before and after a write-path batch ([`oracle`]).
//! 2. **Do all failure paths stay inside the error contract?** Faults
//!    injected at every storage failpoint, deterministic cancellations, and
//!    worker panics must map to documented error variants, never poison
//!    state, and leave the server serviceable ([`faults`]).
//!
//! Everything is seeded: `run` with the same [`TestkitConfig`] reproduces
//! the same case sequence, and each case's seed is derived independently
//! ([`gen::mix_seed`]) so a failure is re-derivable from its case seed
//! alone. The workspace proptest shim has no shrinking, so the testkit
//! greedily shrinks failing cases itself ([`gen::CaseSpec::shrink_candidates`])
//! and reports the minimal still-failing variant.

pub mod faults;
pub mod gen;
pub mod obs;
pub mod oracle;

pub use faults::{run_fault_suite, FaultReport};
pub use gen::{mix_seed, CaseSpec, DatasetSpec};
pub use obs::{run_obs_suite, ObsReport};
pub use oracle::{build_dataset, run_case, DatasetCtx, Leg, Mismatch};

use std::collections::HashMap;
use std::time::Instant;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: the default 200 cases, suitable for every push.
    Quick,
    /// Nightly-sized: the default 2000 cases.
    Soak,
}

impl Profile {
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "quick" => Some(Profile::Quick),
            "soak" => Some(Profile::Soak),
            _ => None,
        }
    }

    pub fn default_cases(self) -> usize {
        match self {
            Profile::Quick => 200,
            Profile::Soak => 2000,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Soak => "soak",
        }
    }
}

/// Configuration for one testkit run.
#[derive(Debug, Clone)]
pub struct TestkitConfig {
    pub seed: u64,
    pub cases: usize,
    pub profile: Profile,
}

impl TestkitConfig {
    pub fn new(profile: Profile) -> Self {
        TestkitConfig {
            seed: 42,
            cases: profile.default_cases(),
            profile,
        }
    }
}

impl Default for TestkitConfig {
    fn default() -> Self {
        TestkitConfig::new(Profile::Quick)
    }
}

/// A case the oracle rejected, with its shrunk minimal reproduction.
#[derive(Debug)]
pub struct CaseFailure {
    /// Index in the case sequence (`mix_seed(seed, index)` regenerates it).
    pub index: u64,
    /// The derived per-case seed — `CaseSpec::generate(case_seed)` is the
    /// original failing case on any machine.
    pub case_seed: u64,
    pub original: CaseSpec,
    /// Minimal still-failing variant found by greedy shrinking (equals
    /// `original` when no shrink candidate still failed).
    pub shrunk: CaseSpec,
    /// Mismatches of the *shrunk* case.
    pub mismatches: Vec<Mismatch>,
}

/// Outcome of a full run: oracle failures plus the fault-suite report.
#[derive(Debug)]
pub struct TestkitReport {
    pub seed: u64,
    pub profile: Profile,
    pub cases_run: usize,
    pub failures: Vec<CaseFailure>,
    pub fault_checks: usize,
    pub fault_failures: Vec<String>,
    pub obs_checks: usize,
    pub obs_failures: Vec<String>,
    pub elapsed_ms: u128,
}

impl TestkitReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.fault_failures.is_empty() && self.obs_failures.is_empty()
    }

    /// Human-readable summary for the CLI.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "testkit: profile {} seed {} — {} oracle cases, {} fault checks, {} obs checks in {} ms\n",
            self.profile.name(),
            self.seed,
            self.cases_run,
            self.fault_checks,
            self.obs_checks,
            self.elapsed_ms
        ));
        if self.ok() {
            out.push_str(
                "all legs agree; all faults mapped to contract errors; tracing is inert. PASS\n",
            );
            return out;
        }
        for f in &self.failures {
            out.push_str(&format!(
                "\nFAIL case #{} (case_seed {:#018x})\n  original: {:?}\n  shrunk:   {:?}\n",
                f.index, f.case_seed, f.original, f.shrunk
            ));
            for m in &f.mismatches {
                out.push_str(&format!("  [{}] {}\n", m.leg, m.detail));
            }
        }
        for f in &self.fault_failures {
            out.push_str(&format!("\nFAULT-SUITE FAIL: {f}\n"));
        }
        for f in &self.obs_failures {
            out.push_str(&format!("\nOBS-SUITE FAIL: {f}\n"));
        }
        out.push_str(&format!(
            "\n{} oracle failure(s), {} fault-suite failure(s), {} obs-suite failure(s). FAIL\n",
            self.failures.len(),
            self.fault_failures.len(),
            self.obs_failures.len()
        ));
        out
    }

    /// Machine-readable reproduction artifact (uploaded by CI on failure).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"seed\": {}, \"profile\": \"{}\", \"cases_run\": {}, \"fault_checks\": {}, \"obs_checks\": {}, \"elapsed_ms\": {}, \"ok\": {}",
            self.seed,
            self.profile.name(),
            self.cases_run,
            self.fault_checks,
            self.obs_checks,
            self.elapsed_ms,
            self.ok()
        ));
        out.push_str(", \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"index\": {}, \"case_seed\": {}, \"original\": {}, \"shrunk\": {}, \"mismatches\": [",
                f.index,
                f.case_seed,
                json_string(&format!("{:?}", f.original)),
                json_string(&format!("{:?}", f.shrunk)),
            ));
            for (j, m) in f.mismatches.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"leg\": \"{}\", \"detail\": {}}}",
                    m.leg,
                    json_string(&m.detail)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("], \"fault_failures\": [");
        for (i, f) in self.fault_failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(f));
        }
        out.push_str("], \"obs_failures\": [");
        for (i, f) in self.obs_failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(f));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaper for the repro artifact.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-dataset contexts, built lazily and shared across cases (a context
/// owns an engine and a live loopback server — building one per case would
/// dominate the run).
struct CtxPool {
    pool: HashMap<DatasetSpec, DatasetCtx>,
}

impl CtxPool {
    fn new() -> Self {
        CtxPool {
            pool: HashMap::new(),
        }
    }

    fn run(&mut self, case: &CaseSpec) -> Result<Vec<Mismatch>, String> {
        if !self.pool.contains_key(&case.dataset) {
            let ctx = DatasetCtx::build(&case.dataset)?;
            self.pool.insert(case.dataset.clone(), ctx);
        }
        let ctx = self.pool.get_mut(&case.dataset).expect("just inserted");
        Ok(run_case(ctx, case))
    }

    fn shutdown(self) {
        for (_, ctx) in self.pool {
            ctx.shutdown();
        }
    }
}

const MAX_SHRINK_ROUNDS: usize = 40;

/// Greedily shrink a failing case: adopt the first candidate that still
/// fails, repeat until no candidate fails or the round budget runs out.
fn shrink(
    pool: &mut CtxPool,
    case: &CaseSpec,
    mismatches: Vec<Mismatch>,
) -> (CaseSpec, Vec<Mismatch>) {
    let mut current = case.clone();
    let mut current_mismatches = mismatches;
    for _ in 0..MAX_SHRINK_ROUNDS {
        let mut adopted = false;
        for cand in current.shrink_candidates() {
            match pool.run(&cand) {
                Ok(mm) if !mm.is_empty() => {
                    current = cand;
                    current_mismatches = mm;
                    adopted = true;
                    break;
                }
                // A candidate that passes (or whose dataset cannot be
                // built) is simply not adopted.
                _ => {}
            }
        }
        if !adopted {
            break;
        }
    }
    (current, current_mismatches)
}

/// Run the differential oracle over `config.cases` seeded cases, then the
/// fault-injection suite.
pub fn run(config: &TestkitConfig) -> TestkitReport {
    let start = Instant::now();
    let mut pool = CtxPool::new();
    let mut failures = Vec::new();

    {
        // The oracle legs must not see faults armed by concurrently running
        // tests in this crate; the fault suite takes the same gate itself,
        // so hold it only for the case loop.
        let _gate = precis_storage::failpoint::exclusive();
        precis_storage::failpoint::disarm_all();
        for index in 0..config.cases as u64 {
            let case_seed = mix_seed(config.seed, index);
            let case = CaseSpec::generate(case_seed);
            match pool.run(&case) {
                Ok(mismatches) if mismatches.is_empty() => {}
                Ok(mismatches) => {
                    let (shrunk, mismatches) = shrink(&mut pool, &case, mismatches);
                    failures.push(CaseFailure {
                        index,
                        case_seed,
                        original: case,
                        shrunk,
                        mismatches,
                    });
                }
                Err(e) => failures.push(CaseFailure {
                    index,
                    case_seed,
                    original: case.clone(),
                    shrunk: case,
                    mismatches: vec![Mismatch {
                        leg: Leg::Strategy,
                        detail: format!("dataset context failed to build: {e}"),
                    }],
                }),
            }
        }
    }
    pool.shutdown();

    let fault_report = run_fault_suite();
    // The obs leg replays a slice of the same seeded cases inside an entered
    // trace; its cost is one extra answer per case, so keep it a fraction of
    // the oracle budget.
    let obs_cases = (config.cases / 8).clamp(4, 48);
    let obs_report = run_obs_suite(config.seed, obs_cases);
    TestkitReport {
        seed: config.seed,
        profile: config.profile,
        cases_run: config.cases,
        failures,
        fault_checks: fault_report.checks,
        fault_failures: fault_report.failures,
        obs_checks: obs_report.checks,
        obs_failures: obs_report.failures,
        elapsed_ms: start.elapsed().as_millis(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_smoke_run_passes() {
        // A miniature run across enough cases to hit several datasets and
        // all five legs, plus the full fault suite.
        let config = TestkitConfig {
            seed: 42,
            cases: 12,
            profile: Profile::Quick,
        };
        let report = run(&config);
        assert!(report.ok(), "{}", report.render_text());
        assert_eq!(report.cases_run, 12);
        assert!(report.fault_checks >= 10, "fault suite barely ran");
        assert!(report.obs_checks >= 10, "obs suite barely ran");
    }

    #[test]
    fn report_json_is_parseable_by_the_server_json_module() {
        let report = TestkitReport {
            seed: 7,
            profile: Profile::Quick,
            cases_run: 1,
            failures: vec![CaseFailure {
                index: 0,
                case_seed: 99,
                original: CaseSpec::generate(99),
                shrunk: CaseSpec::generate(99),
                mismatches: vec![Mismatch {
                    leg: Leg::Cache,
                    detail: "quote \" backslash \\ newline \n done".to_owned(),
                }],
            }],
            fault_checks: 0,
            fault_failures: vec!["tab\there".to_owned()],
            obs_checks: 2,
            obs_failures: vec!["armed answer diverged \"quoted\"".to_owned()],
            elapsed_ms: 3,
        };
        let parsed = precis_server::json::parse(&report.to_json()).expect("repro JSON parses");
        assert!(parsed.get("failures").is_some());
        assert_eq!(parsed.get("seed").and_then(|j| j.as_usize()), Some(7));
        let passing = TestkitReport {
            failures: Vec::new(),
            fault_failures: Vec::new(),
            obs_failures: Vec::new(),
            ..report
        };
        assert!(passing.ok());
        precis_server::json::parse(&passing.to_json()).expect("passing repro JSON parses");
    }
}
