//! The whole benchmark in one command: every workload for several rounds,
//! each round a fresh child process of this binary, then one traced child
//! per workload; medians, the report, and the A/A comparison.

use crate::run::RunOutput;
use crate::spec::{self, Better};
use crate::workload::Workload;
use crate::{other, stats, world};
use precis_server::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::process::{Command, Stdio};

/// An open-loop round whose generator ran later than this (p95) is not a
/// measurement of the server: it is rerun once, then reported invalid.
const LATE_LIMIT_MS: f64 = 1.0;

/// Prefix of the line a run prints its [`RunOutput::extra`] on.
const EXTRA_PREFIX: &str = "extra ";

#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub aa: bool,
}

impl SuiteConfig {
    /// Rounds per workload; a metric's value is the median over them.
    pub fn rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

fn number(v: f64) -> Json {
    if v.is_finite() {
        Json::Number(v)
    } else {
        Json::Null
    }
}

/// The two lines a run ends with: its extras, then — last — the result
/// object the regression gate reads.
pub fn encode(out: &RunOutput) -> String {
    let extra: BTreeMap<String, Json> = out
        .extra
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.map_or(Json::Null, number)))
        .collect();
    let metrics: BTreeMap<String, Json> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).expect("every reported metric is in the spec");
            let entry = BTreeMap::from([
                ("value".to_owned(), number(*value)),
                ("unit".to_owned(), Json::String(unit.to_owned())),
            ]);
            ((*name).to_owned(), Json::Object(entry))
        })
        .collect();
    let result = BTreeMap::from([
        ("correct".to_owned(), Json::Bool(out.correct)),
        ("attempted".to_owned(), Json::Number(out.attempted as f64)),
        ("failed".to_owned(), Json::Number(out.failed as f64)),
        ("metrics".to_owned(), Json::Object(metrics)),
    ]);
    format!(
        "{EXTRA_PREFIX}{}\n{}",
        json::render(&Json::Object(extra)),
        json::render(&Json::Object(result))
    )
}

/// What the parent keeps of one child run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Gate metrics and extras together; `None` is an explicit `null`.
    pub values: BTreeMap<String, Option<f64>>,
    /// The child's other output, passed through to the report.
    pub notes: String,
}

/// Read a child's standard output back into a [`ChildResult`].
pub fn decode(stdout: &str) -> Result<ChildResult, String> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the run printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("last line is not JSON ({e}): {last}"))?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result lacks {k:?}"));
    let Json::Bool(correct) = *field("correct")? else {
        return Err("\"correct\" is not a boolean".to_owned());
    };
    let count = |k: &str| {
        field(k)?
            .as_f64()
            .map(|n| n as u64)
            .ok_or_else(|| format!("{k:?} is not a number"))
    };
    let Json::Object(metrics) = field("metrics")? else {
        return Err("\"metrics\" is not an object".to_owned());
    };
    let mut values: BTreeMap<String, Option<f64>> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").and_then(Json::as_f64)))
        .collect();
    if let Some(extra) = lines.last().and_then(|l| l.strip_prefix(EXTRA_PREFIX)) {
        lines.pop();
        if let Json::Object(extra) = json::parse(extra)? {
            values.extend(extra.iter().map(|(k, v)| (k.clone(), v.as_f64())));
        }
    }
    Ok(ChildResult {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
        notes: lines.join("\n"),
    })
}

fn child(config: &SuiteConfig, workload: Workload, trace: bool) -> io::Result<ChildResult> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if config.quick {
        command.arg("--quick");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    // A run that answered wrongly still prints its result and exits 1: the
    // set keeps it, and fails. Only a run without a result ends the suite.
    let stdout = String::from_utf8_lossy(&output.stdout);
    decode(&stdout).map_err(|e| {
        other(format!(
            "{} run exited with {} and no result ({e}): {stdout}",
            workload.name(),
            output.status
        ))
    })
}

/// One pass over every workload: the rounds' results and the traced run's.
#[derive(Debug, Clone, Default)]
pub struct Set {
    pub rounds: BTreeMap<&'static str, Vec<ChildResult>>,
    pub traced: BTreeMap<&'static str, ChildResult>,
    /// Workloads that had a round too late to count, even rerun.
    pub invalid: Vec<&'static str>,
}

impl Set {
    /// Values of `metric` over the rounds of `workload`; empty when the
    /// workload reports `null` for it.
    pub fn samples(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.rounds
            .get(workload)
            .into_iter()
            .flatten()
            .filter_map(|r| r.values.get(metric).copied().flatten())
            .collect()
    }

    pub fn all_correct(&self) -> bool {
        self.invalid.is_empty()
            && self
                .rounds
                .values()
                .flatten()
                .chain(self.traced.values())
                .all(|r| r.correct)
    }
}

fn too_late(result: &ChildResult) -> bool {
    matches!(result.values.get("loadgen.late_p95_ms"), Some(Some(late)) if *late > LATE_LIMIT_MS)
}

/// Rounds interleave the workloads (A B C D, A B C D, …) so that drift of
/// the host over the minutes a set takes lands on all of them alike.
pub fn run_set(config: &SuiteConfig) -> io::Result<Set> {
    let mut set = Set::default();
    for round in 0..config.rounds() {
        for w in Workload::ALL {
            eprintln!("round {}/{}: {}", round + 1, config.rounds(), w.name());
            let mut result = child(config, w, false)?;
            if too_late(&result) {
                eprintln!("  generator ran late; rerunning the round once");
                result = child(config, w, false)?;
                if too_late(&result) && !set.invalid.contains(&w.name()) {
                    set.invalid.push(w.name());
                }
            }
            set.rounds.entry(w.name()).or_default().push(result);
        }
    }
    for w in Workload::ALL {
        eprintln!("traced: {}", w.name());
        set.traced.insert(w.name(), child(config, w, true)?);
    }
    Ok(set)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What tells two result sets apart.
pub fn provenance(config: &SuiteConfig) -> BTreeMap<&'static str, String> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    BTreeMap::from([
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["--version"])),
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
        ("seed", config.seed.to_string()),
        ("rounds", config.rounds().to_string()),
        ("measured_seconds", config.seconds.to_string()),
        (
            "scale",
            if config.quick { "quick" } else { "full" }.to_owned(),
        ),
    ])
}

/// A row of the suite's end-to-end table; `bound` is `None` for the
/// metrics of [`spec::UNRESOLVED`]. `fail_share` has rows of its own.
struct Row {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
}

fn rows() -> impl Iterator<Item = Row> {
    let bounded = spec::END_TO_END.into_iter().map(|m| Row {
        name: m.name,
        unit: m.unit,
        better: m.better,
        bound: Some(m.bound),
    });
    let unresolved = spec::UNRESOLVED.into_iter().map(|m| Row {
        name: m.name,
        unit: m.unit,
        better: m.better,
        bound: None,
    });
    bounded.chain(unresolved)
}

fn fmt_bound(bound: Option<f64>) -> String {
    bound.map_or_else(|| "none".to_owned(), |b| format!("{:.0}%", b * 100.0))
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| format!("{v:.4}"))
}

/// The report of one set, as text.
pub fn report(config: &SuiteConfig, set: &Set) -> String {
    let mut out = String::new();
    for (k, v) in provenance(config) {
        let _ = writeln!(out, "{k}: {v}");
    }
    for w in Workload::ALL {
        let name = w.name();
        let _ = writeln!(out, "\n== {name} ==\n{}", w.why());
        let _ = writeln!(
            out,
            "end to end (median of {} rounds)\n  {:<16} {:>12} {:>12} {:>12}  {:<6} {:<7} bound",
            config.rounds(),
            "metric",
            "median",
            "min",
            "max",
            "unit",
            "better"
        );
        for m in rows() {
            let v = set.samples(name, m.name);
            let min = v.iter().copied().reduce(f64::min);
            let max = v.iter().copied().reduce(f64::max);
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>12}  {:<6} {:<7} {}",
                m.name,
                fmt_value(stats::median(&v)),
                fmt_value(min),
                fmt_value(max),
                m.unit,
                m.better.as_str(),
                fmt_bound(m.bound)
            );
        }
        let fails = set.samples(name, spec::FAIL_SHARE);
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>12}  {:<6} {:<7} {} absolute",
            spec::FAIL_SHARE,
            fmt_value(stats::median(&fails)),
            fmt_value(fails.iter().copied().reduce(f64::min)),
            fmt_value(fails.iter().copied().reduce(f64::max)),
            "share",
            "lower",
            spec::FAIL_SHARE_BOUND
        );
        let samples = |k: &str| fmt_value(stats::median(&set.samples(name, k)));
        let _ = writeln!(
            out,
            "  samples per round: {} queries (highest percentile with ten samples beyond: {}), {} \
             mutate batches",
            samples("query_samples"),
            samples("query_highest_supported_percentile"),
            samples("mutate_samples"),
        );
        if set.invalid.contains(&name) {
            let _ = writeln!(
                out,
                "  INVALID: the generator ran late in a round and its rerun"
            );
        }
        if let Some(traced) = set.traced.get(name) {
            let _ = writeln!(out, "per layer (traced run)");
            for m in spec::PER_LAYER {
                let v = traced.values.get(m.name).copied().flatten();
                let _ = writeln!(out, "  {:<38} {:>14} {}", m.name, fmt_value(v), m.unit);
            }
            let _ = writeln!(out, "{}", traced.notes);
        }
    }
    out
}

/// The set as JSON, for keeping.
pub fn results_json(config: &SuiteConfig, set: &Set) -> String {
    let mut workloads = BTreeMap::new();
    for w in Workload::ALL {
        let mut end_to_end = BTreeMap::new();
        for name in rows().map(|m| m.name).chain([spec::FAIL_SHARE]) {
            let v = set.samples(w.name(), name);
            let entry = BTreeMap::from([
                (
                    "median".to_owned(),
                    stats::median(&v).map_or(Json::Null, number),
                ),
                (
                    "rounds".to_owned(),
                    Json::Array(v.iter().copied().map(number).collect()),
                ),
            ]);
            end_to_end.insert(name.to_owned(), Json::Object(entry));
        }
        let per_layer: BTreeMap<String, Json> = set
            .traced
            .get(w.name())
            .map(|t| {
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        let v = t.values.get(m.name).copied().flatten();
                        (m.name.to_owned(), v.map_or(Json::Null, number))
                    })
                    .collect()
            })
            .unwrap_or_default();
        workloads.insert(
            w.name().to_owned(),
            Json::Object(BTreeMap::from([
                ("end_to_end".to_owned(), Json::Object(end_to_end)),
                ("per_layer".to_owned(), Json::Object(per_layer)),
            ])),
        );
    }
    let provenance = provenance(config)
        .into_iter()
        .map(|(k, v)| (k.to_owned(), Json::String(v)))
        .collect();
    json::render(&Json::Object(BTreeMap::from([
        ("provenance".to_owned(), Json::Object(provenance)),
        ("workloads".to_owned(), Json::Object(workloads)),
    ])))
}

/// By what share of `first` a metric got worse in `second` (negative:
/// better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Compare two sets of the same code: per end-to-end metric and workload,
/// both medians, their relative difference and the bound. Returns the table
/// and whether every difference is within its bound, either way round; a
/// metric without a bound is shown and does not count.
pub fn aa_report(a: &Set, b: &Set) -> (String, bool) {
    let mut out = format!(
        "A/A: two sets of runs of the same code\n  {:<13} {:<16} {:>12} {:>12} {:>9} {:>7}\n",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut pass = a.all_correct() && b.all_correct();
    for w in Workload::ALL {
        for m in rows() {
            let first = stats::median(&a.samples(w.name(), m.name));
            let second = stats::median(&b.samples(w.name(), m.name));
            let (Some(first), Some(second)) = (first, second) else {
                continue;
            };
            let diff = worsening(m.better, first, second);
            let ok = m.bound.is_none_or(|bound| diff.abs() <= bound);
            pass &= ok;
            let _ = writeln!(
                out,
                "  {:<13} {:<16} {:>12.4} {:>12.4} {:>+8.2}% {:>7}{}",
                w.name(),
                m.name,
                first,
                second,
                diff * 100.0,
                fmt_bound(m.bound),
                if ok { "" } else { "  OUT OF BOUND" }
            );
        }
        let fail = |s: &Set| stats::median(&s.samples(w.name(), spec::FAIL_SHARE)).unwrap_or(1.0);
        let (first, second) = (fail(a), fail(b));
        let ok = (second - first).abs() <= spec::FAIL_SHARE_BOUND;
        pass &= ok;
        let _ = writeln!(
            out,
            "  {:<13} {:<16} {:>12.4} {:>12.4} {:>+9.4} {:>7}{}",
            w.name(),
            spec::FAIL_SHARE,
            first,
            second,
            second - first,
            spec::FAIL_SHARE_BOUND,
            if ok { "" } else { "  OUT OF BOUND" }
        );
    }
    out.push_str(if pass { "AA PASS\n" } else { "AA FAIL\n" });
    (out, pass)
}

/// Run the suite; `Ok(false)` when an answer was wrong, an acknowledged
/// write was lost, a round was invalid, or `--aa` found a difference out of
/// bound.
pub fn run(config: &SuiteConfig) -> io::Result<bool> {
    let first = run_set(config)?;
    print!("{}", report(config, &first));
    let dir = world::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("results.json");
    std::fs::write(&path, results_json(config, &first) + "\n")?;
    println!("results written to {}", path.display());
    let mut ok = first.all_correct();
    if config.aa {
        let second = run_set(config)?;
        print!("\nsecond set\n{}", report(config, &second));
        let (table, pass) = aa_report(&first, &second);
        print!("\n{table}");
        ok &= pass;
    }
    if !ok {
        println!("FAILED: see the fail_share, durability.acked_lost and INVALID lines above");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> RunOutput {
        RunOutput {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: BTreeMap::from([("slo_ok_share", 0.9981), ("setup_s", 0.8127)]),
            extra: BTreeMap::from([("mutate_p50_ms", None), (spec::FAIL_SHARE, Some(0.0))]),
            notes: vec![],
        }
    }

    #[test]
    fn a_run_ends_with_the_gate_object_and_decodes_back() {
        let text = format!("a note\nanother\n{}\n", encode(&output()));
        let last = text.lines().last().unwrap();
        let doc = json::parse(last).unwrap();
        let Json::Object(keys) = &doc else { panic!() };
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let back = decode(&text).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1_000, 0));
        assert_eq!(back.values["setup_s"], Some(0.8127));
        assert_eq!(back.values["mutate_p50_ms"], None);
        assert_eq!(back.values[spec::FAIL_SHARE], Some(0.0));
        assert_eq!(back.notes, "a note\nanother");
        assert!(decode("no json here").is_err());
        assert!(decode("").is_err());

        // A run that answered wrongly exits non-zero but still decodes.
        let wrong = RunOutput {
            correct: false,
            failed: 3,
            ..output()
        };
        let back = decode(&encode(&wrong)).unwrap();
        assert!(!back.correct);
        assert_eq!(back.failed, 3);
    }

    fn set_with(workload: &'static str, metric: &str, values: &[f64]) -> Set {
        let mut set = Set::default();
        for w in Workload::ALL {
            let rounds = values
                .iter()
                .map(|v| ChildResult {
                    correct: true,
                    attempted: 1,
                    failed: 0,
                    values: BTreeMap::from([
                        (spec::FAIL_SHARE.to_owned(), Some(0.0)),
                        (
                            metric.to_owned(),
                            Some(if w.name() == workload { *v } else { 1.0 }),
                        ),
                    ]),
                    notes: String::new(),
                })
                .collect();
            set.rounds.insert(w.name(), rounds);
        }
        set
    }

    #[test]
    fn aa_holds_bounded_medians_to_their_bounds_in_both_directions() {
        // peak_rss_mb: lower is better, 10%.
        let base = set_with("hot_closed", "peak_rss_mb", &[108.0, 110.0, 112.0]);
        let near = set_with("hot_closed", "peak_rss_mb", &[104.0, 105.0, 120.0]);
        let (table, pass) = aa_report(&base, &near);
        assert!(pass, "{table}");
        assert!(table.ends_with("AA PASS\n"));
        for far in [90.0, 130.0] {
            let far = set_with("hot_closed", "peak_rss_mb", &[far]);
            let (table, pass) = aa_report(&base, &far);
            assert!(!pass, "{table}");
            assert!(table.contains("OUT OF BOUND") && table.ends_with("AA FAIL\n"));
        }
        assert!(worsening(Better::Lower, 1.0, 1.2) > 0.0);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn aa_shows_an_unresolved_metric_without_judging_it() {
        let base = set_with("hot_closed", "query_per_s", &[3_000.0]);
        let far = set_with("hot_closed", "query_per_s", &[2_000.0]);
        let (table, pass) = aa_report(&base, &far);
        assert!(pass, "{table}");
        assert!(
            table.contains("+33.33%") && table.contains("none"),
            "{table}"
        );
    }

    #[test]
    fn a_wrong_answer_fails_the_set() {
        let mut set = set_with("hot_closed", "peak_rss_mb", &[1.0]);
        assert!(set.all_correct());
        set.rounds.get_mut("mixed_write").unwrap()[0].correct = false;
        assert!(!set.all_correct());
        let mut set = set_with("hot_closed", "peak_rss_mb", &[1.0]);
        set.invalid.push("narrow_open");
        assert!(!set.all_correct());
    }
}
