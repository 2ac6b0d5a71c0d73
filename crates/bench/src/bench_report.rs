//! PR-trajectory benchmark snapshot: a compact JSON report of the answer
//! pipeline's wall-clock medians, throughput, cache behavior, and thread
//! count, committed as `BENCH_PR7.json` so successive PRs can track the
//! trajectory of the same workloads over time.
//!
//! The workloads mirror the paper's evaluation (§6): a Figure-7-style
//! schema-generator sweep, a Figure-8-style database-generator run, a
//! Figure-9 NaïveQ vs Round-Robin pair, plus an end-to-end multi-token
//! [`PrecisEngine`] workload that exercises the parallel index-lookup path
//! and the answer caches. The `wal_append_*` / `recovery_replay` workloads
//! track the durability subsystem: append throughput under each fsync
//! policy, and crash-recovery replay speed.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p precis-bench --bin bench_report -- BENCH_PR7.json
//! ```

use crate::workloads::{
    bench_movies_graph, connected_relation_sets, full_result_schema, random_seed_tids,
    random_seed_tids_in_range, restrict_graph, run_db_generation,
};
use precis_core::{
    generate_result_schema, AnswerSpec, CardinalityConstraint, DegreeConstraint, PrecisEngine,
    PrecisQuery, RetrievalStrategy,
};
use precis_datagen::{chain_db_fanout, movies_graph, MoviesConfig, MoviesGenerator};
use precis_durability::{recover, DurableStore, FsyncPolicy, Wal};
use precis_storage::{Database, RelationId, TupleId, Value, WalOp};
use std::fmt::Write as _;
use std::time::Instant;

/// Label stamped into the JSON snapshot; bumped when a PR regenerates the
/// committed report.
pub const REPORT_LABEL: &str = "BENCH_PR7";

/// Scale knob: `quick` keeps every workload under a second for tests;
/// `full` is the committed-report configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

/// One benchmarked workload.
#[derive(Debug, Clone)]
pub struct WorkloadStat {
    pub name: &'static str,
    /// Timed runs contributing samples.
    pub runs: usize,
    /// Median per-run wall time, seconds.
    pub median_secs: f64,
    /// Tuples retrieved across all runs divided by total wall time;
    /// `None` for workloads that do not retrieve tuples (schema generation).
    pub tuples_per_sec: Option<f64>,
    /// Final schema-cache hit rate, for engine workloads.
    pub schema_hit_rate: Option<f64>,
    /// Final token-cache hit rate, for engine workloads.
    pub token_hit_rate: Option<f64>,
}

/// The full report: one entry per workload.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub workloads: Vec<WorkloadStat>,
}

/// Median of the samples (mean of the middle pair for even counts).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing samples"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn stat_from_samples(
    name: &'static str,
    mut samples: Vec<f64>,
    tuples: Option<usize>,
) -> WorkloadStat {
    let total: f64 = samples.iter().sum();
    let tuples_per_sec = tuples.map(|t| if total > 0.0 { t as f64 / total } else { 0.0 });
    WorkloadStat {
        name,
        runs: samples.len(),
        median_secs: median(&mut samples),
        tuples_per_sec,
        schema_hit_rate: None,
        token_hit_rate: None,
    }
}

/// Figure-7-style workload: schema generation over every origin of the
/// movies graph under a top-projections degree constraint.
fn schema_generator_workload(scale: Scale) -> WorkloadStat {
    let graph = bench_movies_graph();
    let repeats = match scale {
        Scale::Quick => 3,
        Scale::Full => 50,
    };
    let origins: Vec<RelationId> = graph.schema().relations().map(|(id, _)| id).collect();
    let constraint = DegreeConstraint::TopProjections(8);
    let mut samples = Vec::new();
    for _ in 0..repeats {
        for &r0 in &origins {
            let t0 = Instant::now();
            let rs = generate_result_schema(&graph, &[r0], &constraint);
            samples.push(t0.elapsed().as_secs_f64());
            assert!(rs.relation_count() > 0);
        }
    }
    stat_from_samples("fig7_schema_generator", samples, None)
}

/// Figure-8-style workload: database generation over connected 4-relation
/// sets of a synthetic movies database, NaïveQ, `c_R = 50`.
fn db_generator_workload(scale: Scale) -> WorkloadStat {
    let (movies, max_sets, seed_sets) = match scale {
        Scale::Quick => (300, 2, 1),
        Scale::Full => (5_000, 10, 5),
    };
    let db = MoviesGenerator::new(MoviesConfig {
        movies,
        directors: (movies / 12).max(1),
        actors: (movies / 2).max(1),
        theatres: (movies / 60).max(1),
        plays: movies * 2,
        seed: 0xF168,
        ..MoviesConfig::default()
    })
    .generate();
    let graph = bench_movies_graph();
    let c_r = 50;
    let mut samples = Vec::new();
    let mut tuples = 0usize;
    for (i, set) in connected_relation_sets(&graph, 4)
        .into_iter()
        .take(max_sets)
        .enumerate()
    {
        let g = restrict_graph(&graph, &set);
        for &origin in &set {
            let schema = full_result_schema(&g, origin);
            for s in 0..seed_sets {
                let seeds = random_seed_tids(&db, origin, c_r, (i * 31 + s) as u64);
                let t0 = Instant::now();
                let p = run_db_generation(
                    &db,
                    &g,
                    &schema,
                    origin,
                    &seeds,
                    c_r,
                    RetrievalStrategy::NaiveQ,
                    true,
                );
                samples.push(t0.elapsed().as_secs_f64());
                tuples += p.total_tuples();
            }
        }
    }
    stat_from_samples("fig8_database_generator", samples, Some(tuples))
}

/// Figure-9-style workload: one strategy on a chain database with fan-out,
/// fixed `c_R`, exact control of `n_R`.
fn chain_workload(strategy: RetrievalStrategy, scale: Scale) -> WorkloadStat {
    let (rows, repeats) = match scale {
        Scale::Quick => (300, 3),
        Scale::Full => (2_000, 50),
    };
    let (n, c_r, fanout) = (6, 50, 4);
    let (db, graph) = chain_db_fanout(n, rows, fanout, 9 ^ n as u64);
    let r0 = graph.schema().relation_id("R0").expect("chain root");
    let schema = full_result_schema(&graph, r0);
    let seed_range = (rows / fanout).max(1);
    // Untimed warmup faults in caches and allocator arenas.
    let warmup = random_seed_tids_in_range(&db, r0, seed_range, c_r, 9);
    let _ = run_db_generation(&db, &graph, &schema, r0, &warmup, c_r, strategy, true);
    let mut samples = Vec::new();
    let mut tuples = 0usize;
    for rep in 0..repeats {
        let seeds = random_seed_tids_in_range(&db, r0, seed_range, c_r, 9 + rep as u64);
        let t0 = Instant::now();
        let p = run_db_generation(&db, &graph, &schema, r0, &seeds, c_r, strategy, true);
        samples.push(t0.elapsed().as_secs_f64());
        tuples += p.total_tuples();
    }
    let name = match strategy {
        RetrievalStrategy::NaiveQ => "fig9_chain_naiveq",
        RetrievalStrategy::RoundRobin => "fig9_chain_round_robin",
        RetrievalStrategy::TopWeight => "fig9_chain_top_weight",
    };
    stat_from_samples(name, samples, Some(tuples))
}

/// Postings microbench: galloping intersection over skewed sorted posting
/// lists — the primitive behind multi-word phrase lookups and the
/// generator's join probes. Stride-generated lists give controlled
/// selectivity and wildly unequal lengths, the regime galloping wins in.
fn postings_intersection_workload(scale: Scale) -> WorkloadStat {
    use precis_index::{intersect, intersect_many};
    let (universe, repeats) = match scale {
        Scale::Quick => (60_000u32, 3),
        Scale::Full => (2_000_000u32, 40),
    };
    let strides = [3usize, 7, 61, 509];
    let lists: Vec<Vec<u32>> = strides
        .iter()
        .map(|&s| (0..universe).step_by(s).collect())
        .collect();
    let slices: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
    let mut samples = Vec::new();
    let mut produced = 0usize;
    for _ in 0..repeats {
        let t0 = Instant::now();
        // A skewed pair (densest vs sparsest), a balanced pair, and the
        // full k-way intersection.
        produced += intersect(&lists[0], &lists[3]).len();
        produced += intersect(&lists[1], &lists[2]).len();
        produced += intersect_many(&slices).len();
        samples.push(t0.elapsed().as_secs_f64());
    }
    stat_from_samples("postings_intersection", samples, Some(produced))
}

/// Columnar-scan microbench: full passes over the synthetic movies
/// relations, reading one datum per row — the arena-slab read path every
/// scan-shaped operation (value scans, FK repair, NLG binding) sits on.
fn tuple_scan_workload(scale: Scale) -> WorkloadStat {
    let (movies, repeats) = match scale {
        Scale::Quick => (300, 3),
        Scale::Full => (20_000, 40),
    };
    let db = MoviesGenerator::new(MoviesConfig {
        movies,
        directors: (movies / 12).max(1),
        actors: (movies / 2).max(1),
        theatres: (movies / 60).max(1),
        plays: movies * 2,
        seed: 0x5CA4,
        ..MoviesConfig::default()
    })
    .generate();
    let rels: Vec<RelationId> = db.schema().relations().map(|(id, _)| id).collect();
    let mut samples = Vec::new();
    let mut scanned = 0usize;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut checksum = 0i64;
        for &rel in &rels {
            for (_, t) in db.table(rel).iter() {
                if let Some(x) = t.datum(0).as_int() {
                    checksum = checksum.wrapping_add(x);
                }
                scanned += 1;
            }
        }
        std::hint::black_box(checksum);
        samples.push(t0.elapsed().as_secs_f64());
    }
    stat_from_samples("tuple_scan", samples, Some(scanned))
}

/// A fresh scratch directory under the system temp dir, unique per call.
fn wal_scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "precis-bench-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    dir
}

/// A representative mutation record: an int key, a median-length text, and
/// a float — roughly the shape of a movies-row insert.
fn wal_insert_op(i: u64) -> WalOp {
    WalOp::Insert {
        relation: "BENCH".to_owned(),
        tid: TupleId(i),
        values: vec![
            Value::from(i as i64),
            Value::from("a median-sized text payload for the log"),
            Value::from(0.5 + i as f64),
        ],
    }
}

/// Durability workload: raw WAL append throughput under one fsync policy,
/// each repeat ending with the group-commit barrier the server issues
/// before acknowledging a batch. `tuples_per_sec` is records per second.
fn wal_append_workload(policy: FsyncPolicy, scale: Scale) -> WorkloadStat {
    let (records, repeats) = match (policy, scale) {
        // Every append fsyncs: keep record counts small enough that the
        // workload stays seconds, not minutes, on spinning media.
        (FsyncPolicy::Always, Scale::Quick) => (50u64, 3),
        (FsyncPolicy::Always, Scale::Full) => (1_000, 5),
        (_, Scale::Quick) => (2_000, 3),
        (_, Scale::Full) => (100_000, 5),
    };
    let dir = wal_scratch_dir("wal-append");
    let path = dir.join("wal.log");
    let mut samples = Vec::new();
    let mut appended = 0usize;
    for _ in 0..repeats {
        let mut wal = Wal::create(&path, policy, 0).expect("bench wal creates");
        let t0 = Instant::now();
        for i in 0..records {
            wal.append_op(wal_insert_op(i)).expect("append succeeds");
        }
        wal.flush().expect("group-commit barrier");
        samples.push(t0.elapsed().as_secs_f64());
        appended += records as usize;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let name = match policy {
        FsyncPolicy::Never => "wal_append_fsync_never",
        FsyncPolicy::Batch(_) => "wal_append_fsync_batch",
        FsyncPolicy::Always => "wal_append_fsync_always",
    };
    stat_from_samples(name, samples, Some(appended))
}

/// Durability workload: crash-recovery replay speed. A synthetic movies
/// database is logged as schema-install + one insert record per tuple, then
/// [`recover`] rebuilds it from the files alone; `tuples_per_sec` is
/// recovered tuples per second.
fn recovery_replay_workload(scale: Scale) -> WorkloadStat {
    let (movies, repeats) = match scale {
        Scale::Quick => (300, 3),
        Scale::Full => (5_000, 10),
    };
    let db = MoviesGenerator::new(MoviesConfig {
        movies,
        directors: (movies / 12).max(1),
        actors: (movies / 2).max(1),
        theatres: (movies / 60).max(1),
        plays: movies * 2,
        seed: 0xD00D,
        ..MoviesConfig::default()
    })
    .generate();
    let dir = wal_scratch_dir("recovery");
    let store = DurableStore::open(&dir).expect("bench store opens");
    let mut wal = store
        .create_wal(FsyncPolicy::Never, 0)
        .expect("bench wal creates");
    let empty = Database::new(db.schema().clone()).expect("schema twin");
    wal.append_schema_install(&precis_storage::io::dump_to_string(&empty))
        .expect("schema-install record");
    for (rel, rs) in db.schema().relations() {
        for (tid, t) in db.table(rel).iter() {
            wal.append_op(WalOp::Insert {
                relation: rs.name().to_owned(),
                tid,
                values: t.values().to_vec(),
            })
            .expect("insert record");
        }
    }
    drop(wal);
    let mut samples = Vec::new();
    let mut recovered_tuples = 0usize;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let rec = recover(&dir)
            .expect("recovery succeeds")
            .expect("database materializes");
        samples.push(t0.elapsed().as_secs_f64());
        assert!(rec.report.truncated.is_none(), "clean log replays cleanly");
        recovered_tuples += rec.db.total_tuples();
    }
    let _ = std::fs::remove_dir_all(&dir);
    stat_from_samples("recovery_replay", samples, Some(recovered_tuples))
}

/// The PR 1 pipeline fixture: a synthetic movies engine plus the rotating
/// multi-token queries the `multi_token_engine` workload times. Shared with
/// the tracing-overhead measurement so both observe the same workload.
fn pipeline_fixture(scale: Scale) -> (PrecisEngine, AnswerSpec, [PrecisQuery; 3]) {
    let movies = match scale {
        Scale::Quick => 300,
        Scale::Full => 2_000,
    };
    let db = MoviesGenerator::new(MoviesConfig {
        movies,
        directors: (movies / 12).max(1),
        actors: (movies / 2).max(1),
        theatres: (movies / 60).max(1),
        plays: movies * 2,
        seed: 0xE26,
        ..MoviesConfig::default()
    })
    .generate();
    let engine = PrecisEngine::new(db, movies_graph()).expect("engine builds");
    let spec = AnswerSpec::new(
        DegreeConstraint::MinWeight(0.5),
        CardinalityConstraint::MaxTuplesPerRelation(20),
    );
    let queries = [
        PrecisQuery::new(["comedy", "drama", "thriller"]),
        PrecisQuery::new(["romance", "action", "horror"]),
        PrecisQuery::new(["sci-fi", "documentary", "comedy"]),
    ];
    (engine, spec, queries)
}

/// End-to-end engine workload: multi-token précis queries answered
/// repeatedly, so the schema/token caches absorb the repeats.
fn engine_workload(scale: Scale) -> WorkloadStat {
    let rounds = match scale {
        Scale::Quick => 12,
        Scale::Full => 25,
    };
    let (engine, spec, queries) = pipeline_fixture(scale);
    let mut samples = Vec::new();
    let mut tuples = 0usize;
    for _ in 0..rounds {
        for q in &queries {
            let t0 = Instant::now();
            let a = engine.answer(q, &spec).expect("query answers");
            samples.push(t0.elapsed().as_secs_f64());
            tuples += a.precis.total_tuples();
        }
    }
    let stats = engine.cache_stats();
    let mut stat = stat_from_samples("multi_token_engine", samples, Some(tuples));
    stat.schema_hit_rate = Some(stats.schema_hit_rate());
    stat.token_hit_rate = Some(stats.token_hit_rate());
    stat
}

/// Run every workload at the given scale.
pub fn run_report(scale: Scale) -> BenchReport {
    BenchReport {
        workloads: vec![
            schema_generator_workload(scale),
            db_generator_workload(scale),
            chain_workload(RetrievalStrategy::NaiveQ, scale),
            chain_workload(RetrievalStrategy::RoundRobin, scale),
            postings_intersection_workload(scale),
            tuple_scan_workload(scale),
            engine_workload(scale),
            wal_append_workload(FsyncPolicy::Never, scale),
            wal_append_workload(FsyncPolicy::Batch(64), scale),
            wal_append_workload(FsyncPolicy::Always, scale),
            recovery_replay_workload(scale),
        ],
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_owned()
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_owned(),
    }
}

impl BenchReport {
    /// Serialize as pretty-printed JSON (hand-rolled; the workspace carries
    /// no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"report\": \"{REPORT_LABEL}\",");
        let _ = writeln!(out, "  \"workloads\": {}", self.workloads_json_array());
        let _ = writeln!(out, "}}");
        out
    }

    /// The `"workloads"` array alone (pretty-printed at a 2-space base
    /// indent, no trailing newline) — the shape the committed
    /// `BENCH_PR8.json` embeds, which the CI bench-smoke gate compares
    /// `fig8_database_generator` throughput against.
    pub fn workloads_json_array(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[");
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", w.name);
            let _ = writeln!(out, "      \"runs\": {},", w.runs);
            let _ = writeln!(
                out,
                "      \"median_wall_secs\": {},",
                json_f64(w.median_secs)
            );
            let _ = writeln!(
                out,
                "      \"tuples_per_sec\": {},",
                json_opt(w.tuples_per_sec)
            );
            let _ = writeln!(
                out,
                "      \"schema_cache_hit_rate\": {},",
                json_opt(w.schema_hit_rate)
            );
            let _ = writeln!(
                out,
                "      \"token_cache_hit_rate\": {}",
                json_opt(w.token_hit_rate)
            );
            let comma = if i + 1 < self.workloads.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quick_report_covers_every_workload_and_caches_pay_off() {
        let report = run_report(Scale::Quick);
        let names: Vec<&str> = report.workloads.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "fig7_schema_generator",
                "fig8_database_generator",
                "fig9_chain_naiveq",
                "fig9_chain_round_robin",
                "postings_intersection",
                "tuple_scan",
                "multi_token_engine",
                "wal_append_fsync_never",
                "wal_append_fsync_batch",
                "wal_append_fsync_always",
                "recovery_replay",
            ]
        );
        for w in &report.workloads {
            assert!(w.runs > 0, "{}", w.name);
            assert!(w.median_secs >= 0.0, "{}", w.name);
        }
        let replay = report.workloads.last().unwrap();
        assert!(
            replay.tuples_per_sec.unwrap() > 0.0,
            "recovery replays tuples"
        );
        let engine = &report.workloads[6];
        assert_eq!(engine.name, "multi_token_engine");
        assert!(
            engine.schema_hit_rate.unwrap() > 0.9,
            "repeated queries must hit the schema cache: {:?}",
            engine.schema_hit_rate
        );
        assert!(engine.token_hit_rate.unwrap() > 0.9);
    }

    #[test]
    fn report_serializes_to_well_formed_json() {
        let report = BenchReport {
            workloads: vec![
                WorkloadStat {
                    name: "a",
                    runs: 2,
                    median_secs: 0.5,
                    tuples_per_sec: Some(10.0),
                    schema_hit_rate: None,
                    token_hit_rate: None,
                },
                WorkloadStat {
                    name: "b",
                    runs: 1,
                    median_secs: 0.25,
                    tuples_per_sec: None,
                    schema_hit_rate: Some(0.96),
                    token_hit_rate: Some(0.97),
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"tuples_per_sec\": null"));
        assert!(json.contains("\"schema_cache_hit_rate\": 0.960000000"));
        // Crude balance check: every brace and bracket closes.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
