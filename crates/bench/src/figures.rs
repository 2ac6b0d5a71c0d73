//! The figure sweeps of the paper's evaluation (§6), as reusable functions
//! returning structured series.

use crate::workloads::{
    bench_movies_graph, connected_relation_sets, full_result_schema, random_seed_tids,
    random_seed_tids_in_range, restrict_graph, run_db_generation,
};
use precis_core::PrecisEngine;
use precis_core::{
    generate_result_schema, generate_result_schema_instrumented, CostModel, DegreeConstraint,
    RetrievalStrategy, TraversalStats,
};
use precis_datagen::{
    chain_db_fanout, movies_graph, random_weight_graph, tree_schema, MoviesConfig, MoviesGenerator,
};
use precis_graph::SchemaGraph;
use precis_storage::cow::CopyMeter;
use precis_storage::{Database, IndexSize, RelationId, TupleId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One point of the Figure 7 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Degree constraint: maximum number of projections in the answer.
    pub d: usize,
    /// Mean Result Schema Generator wall time, seconds.
    pub mean_secs: f64,
    /// Mean projections actually accepted (saturates at the graph size).
    pub mean_accepted: f64,
    /// Runs averaged.
    pub runs: usize,
}

/// Figure 7: Result Schema Generator execution time as a function of the
/// degree `d` (max number of projected attributes), averaged over
/// `weight_sets` random weight assignments × every relation as the single
/// token relation R₀ (the paper averaged 200 runs per point).
pub fn fig7(
    base: &SchemaGraph,
    d_values: &[usize],
    weight_sets: usize,
    seed: u64,
) -> Vec<Fig7Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graphs: Vec<SchemaGraph> = (0..weight_sets)
        .map(|_| random_weight_graph(base, &mut rng))
        .collect();
    let origins: Vec<RelationId> = base.schema().relations().map(|(id, _)| id).collect();
    d_values
        .iter()
        .map(|&d| {
            let constraint = DegreeConstraint::TopProjections(d);
            let mut total = 0.0;
            let mut accepted = 0usize;
            let mut runs = 0usize;
            for g in &graphs {
                for &r0 in &origins {
                    let t0 = Instant::now();
                    let rs = generate_result_schema(g, &[r0], &constraint);
                    total += t0.elapsed().as_secs_f64();
                    accepted += rs.paths().len();
                    runs += 1;
                }
            }
            Fig7Point {
                d,
                mean_secs: total / runs as f64,
                mean_accepted: accepted as f64 / runs as f64,
                runs,
            }
        })
        .collect()
}

/// The default graph for Figure 7: the paper's movies schema.
pub fn fig7_movies_graph() -> SchemaGraph {
    bench_movies_graph()
}

/// A larger synthetic graph (15-relation binary tree, 4 payload attributes
/// each; with key/fk attributes, 89 projection edges) for sweeping `d`
/// beyond the movies schema.
pub fn fig7_large_graph() -> SchemaGraph {
    SchemaGraph::from_foreign_keys(tree_schema(15, 2, 4), 0.9, 0.8, 0.9).expect("valid tree graph")
}

/// One point of the Figure 8/9 series.
#[derive(Debug, Clone, Copy)]
pub struct DbGenPoint {
    /// Cardinality constraint: max tuples per relation.
    pub c_r: usize,
    /// Relations populated.
    pub n_r: usize,
    pub strategy: RetrievalStrategy,
    /// Mean Result Database Generator wall time, seconds.
    pub mean_secs: f64,
    /// Mean tuples actually retrieved.
    pub mean_tuples: f64,
    pub runs: usize,
}

/// Figure 8: Result Database Generator time as `c_R` grows, with `n_R = 4`
/// and NaïveQ, averaged over connected 4-relation sets × every relation of
/// each set as R₀ × `seed_sets` random seed-tuple sets (the paper's
/// 10 × 4 × 5 = 200 runs per point).
pub fn fig8(
    db: &Database,
    c_values: &[usize],
    max_sets: usize,
    seed_sets: usize,
    seed: u64,
) -> Vec<DbGenPoint> {
    let graph = bench_movies_graph();
    let sets: Vec<Vec<RelationId>> = connected_relation_sets(&graph, 4)
        .into_iter()
        .take(max_sets)
        .collect();
    let restricted: Vec<SchemaGraph> = sets.iter().map(|s| restrict_graph(&graph, s)).collect();
    // Result schemas are prepared outside the timed region: the paper's
    // Figures 8-9 time the Result Database Generator alone.
    type Prepared = (usize, RelationId, precis_core::ResultSchema);
    let prepared: Vec<Prepared> = sets
        .iter()
        .enumerate()
        .flat_map(|(i, set)| {
            let g = &restricted[i];
            set.iter()
                .map(move |&origin| (i, origin, full_result_schema(g, origin)))
                .collect::<Vec<_>>()
        })
        .collect();
    c_values
        .iter()
        .map(|&c_r| {
            let mut total = 0.0;
            let mut tuples = 0usize;
            let mut runs = 0usize;
            for (i, origin, schema) in &prepared {
                let g = &restricted[*i];
                for s in 0..seed_sets {
                    let seeds =
                        random_seed_tids(db, *origin, c_r, seed ^ ((s as u64) << 8) | runs as u64);
                    let t0 = Instant::now();
                    let p = run_db_generation(
                        db,
                        g,
                        schema,
                        *origin,
                        &seeds,
                        c_r,
                        RetrievalStrategy::NaiveQ,
                        true,
                    );
                    total += t0.elapsed().as_secs_f64();
                    tuples += p.total_tuples();
                    runs += 1;
                }
            }
            DbGenPoint {
                c_r,
                n_r: 4,
                strategy: RetrievalStrategy::NaiveQ,
                mean_secs: total / runs as f64,
                mean_tuples: tuples as f64 / runs as f64,
                runs,
            }
        })
        .collect()
}

/// Figure 9: NaïveQ vs. Round-Robin as `n_R` grows, at fixed `c_R`, on
/// chain databases (one relation per chain link gives exact control of
/// `n_R`, which the 7-relation movies schema cannot for n_R = 8).
pub fn fig9(
    n_values: &[usize],
    c_r: usize,
    rows_per_relation: usize,
    fanout: usize,
    repeats: usize,
    seed: u64,
) -> Vec<DbGenPoint> {
    let mut out = Vec::new();
    for &n in n_values {
        let (db, graph) = chain_db_fanout(n, rows_per_relation, fanout, seed ^ n as u64);
        let r0 = graph.schema().relation_id("R0").expect("chain root");
        let schema = full_result_schema(&graph, r0);
        let seed_range = (rows_per_relation / fanout).max(1);
        for strategy in [RetrievalStrategy::NaiveQ, RetrievalStrategy::RoundRobin] {
            let mut total = 0.0;
            let mut tuples = 0usize;
            let mut runs = 0usize;
            // One untimed warmup to fault in caches and allocator arenas.
            let warmup = random_seed_tids_in_range(&db, r0, seed_range, c_r, seed);
            let _ = run_db_generation(&db, &graph, &schema, r0, &warmup, c_r, strategy, true);
            for rep in 0..repeats {
                let seeds = random_seed_tids_in_range(&db, r0, seed_range, c_r, seed + rep as u64);
                let t0 = Instant::now();
                let p = run_db_generation(&db, &graph, &schema, r0, &seeds, c_r, strategy, true);
                total += t0.elapsed().as_secs_f64();
                tuples += p.total_tuples();
                runs += 1;
            }
            out.push(DbGenPoint {
                c_r,
                n_r: n,
                strategy,
                mean_secs: total / runs as f64,
                mean_tuples: tuples as f64 / runs as f64,
                runs,
            });
        }
    }
    out
}

/// One row of the cost-model validation table.
#[derive(Debug, Clone, Copy)]
pub struct CostPoint {
    pub c_r: usize,
    pub n_r: usize,
    pub measured_secs: f64,
    /// Formula (2): c_R · n_R · (IndexTime + TupleTime).
    pub predicted_secs: f64,
}

impl CostPoint {
    pub fn ratio(&self) -> f64 {
        self.measured_secs / self.predicted_secs
    }
}

/// Calibrate the cost model on a chain database and validate Formula (2)
/// across a (c_R, n_R) grid.
pub fn cost_model_validation(
    c_values: &[usize],
    n_values: &[usize],
    rows_per_relation: usize,
    repeats: usize,
    seed: u64,
) -> (CostModel, Vec<CostPoint>) {
    // Calibrate on the largest chain so the micro-costs match the runs.
    let n_max = n_values.iter().copied().max().unwrap_or(2);
    let (db, graph) = chain_db_fanout(n_max, rows_per_relation, 1, seed);
    let r1 = graph.schema().relation_id("R1").expect("chain link");
    let fk_attr = graph
        .schema()
        .relation(r1)
        .attr_position("r0_id")
        .expect("chain fk");
    let samples: Vec<Value> = (0..64)
        .map(|i| Value::from(i % rows_per_relation))
        .collect();
    let model = CostModel::calibrate(&db, r1, fk_attr, &samples, 16).expect("calibration");

    let mut points = Vec::new();
    for &n in n_values {
        let (db, graph) = chain_db_fanout(n, rows_per_relation, 1, seed ^ n as u64);
        let r0 = graph.schema().relation_id("R0").expect("chain root");
        let schema = full_result_schema(&graph, r0);
        for &c_r in c_values {
            let mut total = 0.0;
            for rep in 0..repeats {
                let seeds = random_seed_tids(&db, r0, c_r, seed + rep as u64);
                let t0 = Instant::now();
                let _ = run_db_generation(
                    &db,
                    &graph,
                    &schema,
                    r0,
                    &seeds,
                    c_r,
                    RetrievalStrategy::NaiveQ,
                    true,
                );
                total += t0.elapsed().as_secs_f64();
            }
            points.push(CostPoint {
                c_r,
                n_r: n,
                measured_secs: total / repeats as f64,
                predicted_secs: model.predict(c_r, n),
            });
        }
    }
    (model, points)
}

/// One row of the pruning-ablation table.
#[derive(Debug, Clone, Copy)]
pub struct PruningPoint {
    /// Min-weight threshold w₀ of the degree constraint.
    pub w0: f64,
    pub with_pruning: TraversalStats,
    pub without_pruning: TraversalStats,
    pub speedup_pushed: f64,
}

/// Ablation: how much queue work does Figure 3's prune-on-first-violation
/// save, at identical results? Swept over min-weight thresholds (where
/// pruning bites hardest: every extension below w₀ is cut, with all its
/// lighter siblings).
pub fn ablation_pruning(
    base: &SchemaGraph,
    w0_values: &[f64],
    weight_sets: usize,
    seed: u64,
) -> Vec<PruningPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graphs: Vec<SchemaGraph> = (0..weight_sets)
        .map(|_| random_weight_graph(base, &mut rng))
        .collect();
    let origins: Vec<RelationId> = base.schema().relations().map(|(id, _)| id).collect();
    w0_values
        .iter()
        .map(|&w0| {
            let constraint = DegreeConstraint::MinWeight(w0);
            let mut with = TraversalStats::default();
            let mut without = TraversalStats::default();
            for g in &graphs {
                for &r0 in &origins {
                    let (_, s1) = generate_result_schema_instrumented(g, &[r0], &constraint, true);
                    let (_, s2) = generate_result_schema_instrumented(g, &[r0], &constraint, false);
                    with.pushed += s1.pushed;
                    with.popped += s1.popped;
                    with.accepted += s1.accepted;
                    with.pruned_siblings += s1.pruned_siblings;
                    without.pushed += s2.pushed;
                    without.popped += s2.popped;
                    without.accepted += s2.accepted;
                }
            }
            PruningPoint {
                w0,
                with_pruning: with,
                without_pruning: without,
                speedup_pushed: without.pushed as f64 / with.pushed.max(1) as f64,
            }
        })
        .collect()
}

/// One row of the in-degree postponement ablation.
#[derive(Debug, Clone, Copy)]
pub struct InDegreePoint {
    /// Seed tuples per origin relation.
    pub seeds: usize,
    /// Tuples retrieved with postponement on / off.
    pub tuples_with: f64,
    pub tuples_without: f64,
}

/// Ablation: disabling the in-degree postponement can make a departing join
/// run before all arrivals finished, missing tuples downstream. Uses two
/// origins on the movies schema so MOVIE has in-degree 2 (Figure 4), with
/// MOVIE→GENRE boosted above the actor-side path weights so that, without
/// postponement, the genre join fires before the actor-reached movies
/// arrive — losing their genres.
pub fn ablation_in_degree(db: &Database, seed_counts: &[usize], seed: u64) -> Vec<InDegreePoint> {
    use precis_core::{generate_result_database, CardinalityConstraint, DbGenOptions};
    use precis_graph::WeightProfile;
    use std::collections::HashMap;
    let graph = bench_movies_graph()
        .with_profile(&WeightProfile::new("eager-genres").set("MOVIE->GENRE", 0.97))
        .expect("valid profile");
    let s = graph.schema();
    let director = s.relation_id("DIRECTOR").expect("movies schema");
    let actor = s.relation_id("ACTOR").expect("movies schema");
    let schema = generate_result_schema(
        &graph,
        &[director, actor],
        &DegreeConstraint::MinWeight(0.9),
    );
    seed_counts
        .iter()
        .map(|&n_seeds| {
            let seeds: HashMap<RelationId, Vec<precis_storage::TupleId>> = HashMap::from([
                (director, random_seed_tids(db, director, n_seeds, seed)),
                (actor, random_seed_tids(db, actor, n_seeds, seed + 1)),
            ]);
            let run = |postpone: bool| {
                generate_result_database(
                    db,
                    &graph,
                    &schema,
                    &seeds,
                    &CardinalityConstraint::Unbounded,
                    RetrievalStrategy::NaiveQ,
                    &DbGenOptions {
                        repair_foreign_keys: false,
                        postpone_by_in_degree: postpone,
                        ..DbGenOptions::default()
                    },
                )
                .expect("generation succeeds")
            };
            InDegreePoint {
                seeds: n_seeds,
                tuples_with: run(true).total_tuples() as f64,
                tuples_without: run(false).total_tuples() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::bench_movies_db;

    #[test]
    fn fig7_series_has_sane_shape() {
        let g = fig7_movies_graph();
        let pts = fig7(&g, &[2, 6, 14], 3, 42);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.mean_secs > 0.0);
            assert!(p.mean_accepted <= p.d as f64 + 1e-9);
            assert_eq!(p.runs, 3 * 7);
        }
        // Accepted projections grow with d until saturation.
        assert!(pts[0].mean_accepted < pts[2].mean_accepted);
    }

    #[test]
    fn fig9_round_robin_is_not_cheaper() {
        let pts = fig9(&[2, 4], 20, 200, 4, 2, 7);
        assert_eq!(pts.len(), 4);
        for pair in pts.chunks(2) {
            let naive = &pair[0];
            let rr = &pair[1];
            assert_eq!(naive.n_r, rr.n_r);
            assert!(naive.mean_tuples > 0.0);
            assert!(rr.mean_tuples > 0.0);
        }
    }

    #[test]
    fn cost_model_validation_produces_finite_ratios() {
        let (model, pts) = cost_model_validation(&[10, 30], &[2, 3], 300, 2, 5);
        assert!(model.index_time > 0.0 && model.tuple_time > 0.0);
        for p in pts {
            assert!(p.predicted_secs > 0.0);
            assert!(p.ratio().is_finite() && p.ratio() > 0.0);
        }
    }

    #[test]
    fn pruning_ablation_never_loses_results() {
        let g = fig7_movies_graph();
        let pts = ablation_pruning(&g, &[0.7, 0.4], 2, 9);
        for p in pts {
            assert_eq!(p.with_pruning.accepted, p.without_pruning.accepted);
            assert!(p.with_pruning.pushed <= p.without_pruning.pushed);
            assert!(p.speedup_pushed >= 1.0);
        }
    }

    #[test]
    fn in_degree_ablation_runs() {
        let db = bench_movies_db(77);
        let pts = ablation_in_degree(&db, &[5, 10], 3);
        for p in pts {
            assert!(p.tuples_with > 0.0);
            assert!(p.tuples_without > 0.0);
        }
    }
}

/// The movies database at `movies` films, every other relation in the
/// proportions of [`MoviesConfig::imdb_scale`] — the serving benchmark's
/// database at 34,000.
fn imdb_movies(movies: usize, seed: u64) -> Database {
    let base = MoviesConfig::imdb_scale();
    let scaled = |n: usize| (n * movies / base.movies).max(1);
    MoviesGenerator::new(MoviesConfig {
        movies,
        directors: scaled(base.directors),
        actors: scaled(base.actors),
        theatres: scaled(base.theatres),
        plays: scaled(base.plays),
        seed,
        ..base
    })
    .generate()
}

/// What the engine over the movies database at `movies` films keeps
/// resident.
pub struct Resident {
    /// Live tuples over all relations.
    pub tuples: usize,
    /// [`PrecisEngine::resident_bytes`], the parts `/v1/metrics` exports as
    /// `precis_resident_bytes`.
    pub parts: [(&'static str, usize); 5],
    /// Keys and postings of `pk_index`, `join_index` and `inverted_index`
    /// (whose keys are its words).
    pub indexes: [(&'static str, IndexSize); 3],
}

/// What the engine over the movies database at `movies` films (every other
/// relation in the proportions of [`MoviesConfig::imdb_scale`], as the
/// serving benchmark generates it) keeps resident. Run it in a process of
/// its own: `symbols` is the process's table, and holds whatever else the
/// process interned.
pub fn resident(movies: usize, seed: u64) -> Resident {
    let db = imdb_movies(movies, seed);
    let tuples = db.total_tuples();
    let engine = PrecisEngine::new(db, movies_graph()).expect("movies engine");
    let [pk, join] = engine.database().index_sizes();
    let words = IndexSize {
        keys: engine.index().vocabulary_size(),
        postings: engine.index().postings(),
    };
    Resident {
        tuples,
        parts: engine.resident_bytes(),
        indexes: [
            ("pk_index", pk),
            ("join_index", join),
            ("inverted_index", words),
        ],
    }
}

/// What the write path costs at one database size.
#[derive(Debug, Clone, Copy)]
pub struct WritePathPoint {
    pub movies: usize,
    /// Live tuples over all relations.
    pub tuples: usize,
    /// Median `PrecisEngine::clone`, seconds.
    pub clone_secs: f64,
    /// Median clone-and-apply of one batch, seconds.
    pub apply_secs: f64,
    /// Chunks, shards and posting lists one batch copied (median).
    pub pieces_copied: u64,
    /// Bytes those copies moved (median).
    pub bytes_copied: u64,
}

/// The write path at `movies` films (every other relation in IMDb
/// proportion): `batches` times, clone the engine, apply the serving
/// benchmark's batch to the clone — a new `MOVIE` with two `GENRE` and two
/// `CAST` rows, two updates among the first thousand movies, one delete of
/// the previous batch's last `CAST` row — and keep the clone while the
/// original is still alive, as the server's writer does. The copies are
/// counted by the storage layer's own meter.
pub fn write_path(movies: usize, batches: usize, seed: u64) -> WritePathPoint {
    let base = MoviesConfig::imdb_scale();
    let scaled = |n: usize| (n * movies / base.movies).max(1);
    let db = imdb_movies(movies, seed);
    let tuples = db.total_tuples();
    let rel = |name: &str| db.schema().relation_id(name).expect("movies relation");
    let (movie, cast) = (rel("MOVIE"), rel("CAST"));
    let mut engine = PrecisEngine::new(db, movies_graph()).expect("movies engine");

    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let clone_secs = median(
        (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(engine.clone());
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );

    let (mut apply, mut pieces, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut deletable: Option<TupleId> = None;
    for k in 0..batches as i64 {
        let key = 10_000_000 + k;
        let text = |s: String| Value::from(s.as_str());
        let t = Instant::now();
        let meter = CopyMeter::new();
        let mut next = engine.clone();
        let year = Value::from(1950 + k % 77);
        let director = Value::from(1 + k % scaled(base.directors) as i64);
        next.insert(
            "MOVIE",
            vec![
                Value::from(key),
                text(format!("The Benchmark Premiere {key}")),
                year.clone(),
                director.clone(),
            ],
        )
        .expect("fresh movie key");
        for (i, genre) in ["Drama", "Comedy"].into_iter().enumerate() {
            let row = vec![
                Value::from(2 * key + i as i64),
                Value::from(key),
                Value::from(genre),
            ];
            next.insert("GENRE", row).expect("fresh genre key");
        }
        let mut last_cast = None;
        for (i, role) in ["Lead", "Support"].into_iter().enumerate() {
            let row = vec![
                Value::from(2 * key + i as i64),
                Value::from(key),
                Value::from(1 + (7 * k + i as i64) % scaled(base.actors) as i64),
                Value::from(role),
            ];
            last_cast = Some(next.insert("CAST", row).expect("fresh cast key"));
        }
        for i in 0..2 {
            let tid = (13 * k + 501 * i) % 1_000.min(movies as i64);
            let row = vec![
                Value::from(tid + 1),
                text(format!("The Revised Cut {}", tid + 1)),
                year.clone(),
                director.clone(),
            ];
            next.update(movie, TupleId(tid as u64), row)
                .expect("generated movie");
        }
        if let Some(tid) = deletable {
            next.delete(cast, tid).expect("the previous batch's row");
        }
        deletable = last_cast;
        let copied = meter.copied();
        apply.push(t.elapsed().as_secs_f64());
        pieces.push(copied.pieces as f64);
        bytes.push(copied.bytes as f64);
        engine = next;
    }
    WritePathPoint {
        movies,
        tuples,
        clone_secs,
        apply_secs: median(apply),
        pieces_copied: median(pieces) as u64,
        bytes_copied: median(bytes) as u64,
    }
}
