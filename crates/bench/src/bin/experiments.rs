//! Regenerate every table/figure of the paper's evaluation as text tables.
//!
//! ```text
//! cargo run --release -p precis-bench --bin experiments -- all
//! cargo run --release -p precis-bench --bin experiments -- fig7
//! ```
//!
//! Subcommands: `fig7`, `fig7-large`, `fig8`, `fig9`, `cost-model`,
//! `ablation-pruning`, `ablation-indegree`, `baseline`, `write-path`,
//! `resident`, `all`.

use precis_bench::figures::{
    ablation_in_degree, ablation_pruning, cost_model_validation, fig7, fig7_large_graph,
    fig7_movies_graph, fig8, fig9, resident, write_path,
};
use precis_bench::workloads::bench_movies_db;
use precis_core::RetrievalStrategy;
use std::time::Instant;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let t0 = Instant::now();
    match arg.as_str() {
        "fig7" => run_fig7(),
        "fig7-large" => run_fig7_large(),
        "fig8" => run_fig8(),
        "fig9" => run_fig9(),
        "cost-model" => run_cost_model(),
        "ablation-pruning" => run_ablation_pruning(),
        "ablation-indegree" => run_ablation_indegree(),
        "baseline" => run_baseline(),
        "write-path" => run_write_path(),
        "resident" => run_resident(),
        "all" => {
            run_fig7();
            run_fig7_large();
            run_fig8();
            run_fig9();
            run_cost_model();
            run_ablation_pruning();
            run_ablation_indegree();
            run_baseline();
            run_write_path();
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!("expected: fig7 | fig7-large | fig8 | fig9 | cost-model | ablation-pruning | ablation-indegree | baseline | write-path | resident | all");
            std::process::exit(2);
        }
    }
    eprintln!("\n(total wall time: {:.1}s)", t0.elapsed().as_secs_f64());
}

fn run_fig7() {
    println!("\n## Figure 7 — Result Schema Generator time vs degree d");
    println!("## movies schema graph, 20 random weight sets x 7 origin relations per point");
    println!(
        "{:>4}  {:>12}  {:>10}  {:>5}",
        "d", "mean (µs)", "accepted", "runs"
    );
    for p in fig7(&fig7_movies_graph(), &[1, 2, 4, 6, 8, 10, 12, 14], 20, 42) {
        println!(
            "{:>4}  {:>12.2}  {:>10.1}  {:>5}",
            p.d,
            p.mean_secs * 1e6,
            p.mean_accepted,
            p.runs
        );
    }
}

fn run_fig7_large() {
    println!("\n## Figure 7 (extended) — 15-relation tree schema, 89 projection edges");
    println!(
        "{:>4}  {:>12}  {:>10}  {:>5}",
        "d", "mean (µs)", "accepted", "runs"
    );
    for p in fig7(&fig7_large_graph(), &[5, 10, 20, 30, 40, 50, 60], 20, 43) {
        println!(
            "{:>4}  {:>12.2}  {:>10.1}  {:>5}",
            p.d,
            p.mean_secs * 1e6,
            p.mean_accepted,
            p.runs
        );
    }
}

fn run_fig8() {
    println!("\n## Figure 8 — Result Database Generator time vs c_R (n_R = 4, NaiveQ)");
    println!("## synthetic movies db, 10 connected 4-relation sets x 4 origins x 5 seed sets");
    let db = bench_movies_db(0xF168);
    println!(
        "{:>4}  {:>12}  {:>10}  {:>5}",
        "c_R", "mean (µs)", "tuples", "runs"
    );
    for p in fig8(&db, &[10, 20, 30, 40, 50, 60, 70, 80, 90], 10, 5, 8) {
        println!(
            "{:>4}  {:>12.2}  {:>10.1}  {:>5}",
            p.c_r,
            p.mean_secs * 1e6,
            p.mean_tuples,
            p.runs
        );
    }
}

fn run_fig9() {
    println!("\n## Figure 9 — NaiveQ vs Round-Robin time vs n_R (c_R = 50)");
    println!("## chain databases, 2000 rows per relation, fan-out 8, 50 repeats");
    println!(
        "{:>4}  {:>14}  {:>14}  {:>8}",
        "n_R", "naive (µs)", "rrobin (µs)", "rr/naive"
    );
    let pts = fig9(&[1, 2, 3, 4, 5, 6, 7, 8], 50, 2_000, 8, 50, 9);
    for pair in pts.chunks(2) {
        let naive = pair
            .iter()
            .find(|p| p.strategy == RetrievalStrategy::NaiveQ)
            .expect("naive point");
        let rr = pair
            .iter()
            .find(|p| p.strategy == RetrievalStrategy::RoundRobin)
            .expect("round robin point");
        println!(
            "{:>4}  {:>14.2}  {:>14.2}  {:>8.2}",
            naive.n_r,
            naive.mean_secs * 1e6,
            rr.mean_secs * 1e6,
            rr.mean_secs / naive.mean_secs
        );
    }
}

fn run_cost_model() {
    println!(
        "\n## Formula 2 — cost model validation: Cost(D') = c_R * n_R * (IndexTime + TupleTime)"
    );
    let (model, pts) = cost_model_validation(&[10, 30, 50, 70, 90], &[2, 4, 6, 8], 2_000, 20, 11);
    println!(
        "## calibrated IndexTime = {:.1} ns, TupleTime = {:.1} ns",
        model.index_time * 1e9,
        model.tuple_time * 1e9
    );
    println!(
        "{:>4}  {:>4}  {:>14}  {:>14}  {:>9}",
        "c_R", "n_R", "measured (µs)", "predicted (µs)", "meas/pred"
    );
    for p in pts {
        println!(
            "{:>4}  {:>4}  {:>14.2}  {:>14.2}  {:>9.2}",
            p.c_r,
            p.n_r,
            p.measured_secs * 1e6,
            p.predicted_secs * 1e6,
            p.ratio()
        );
    }
}

fn run_ablation_pruning() {
    println!("\n## Ablation — best-first expansion pruning (identical results, less queue work)");
    println!(
        "{:>4}  {:>10}  {:>12}  {:>10}  {:>8}",
        "w0", "pushed", "pushed(off)", "accepted", "saving"
    );
    for p in ablation_pruning(&fig7_movies_graph(), &[0.9, 0.7, 0.5, 0.3, 0.1], 20, 13) {
        println!(
            "{:>4}  {:>10}  {:>12}  {:>10}  {:>7.2}x",
            p.w0,
            p.with_pruning.pushed,
            p.without_pruning.pushed,
            p.with_pruning.accepted,
            p.speedup_pushed
        );
    }
}

fn run_ablation_indegree() {
    println!("\n## Ablation — in-degree join postponement (tuples reached, two-origin query)");
    let db = bench_movies_db(0xD0_D0);
    println!(
        "{:>6}  {:>12}  {:>14}",
        "seeds", "postponed", "no postponing"
    );
    for p in ablation_in_degree(&db, &[5, 10, 20, 40], 17) {
        println!(
            "{:>6}  {:>12.0}  {:>14.0}",
            p.seeds, p.tuples_with, p.tuples_without
        );
    }
}

fn run_write_path() {
    println!("\n## Write path — clone an engine, apply one 8-op batch to the clone");
    println!("## movies db at two sizes, 48 batches each, medians; copies as the storage meter counts them");
    println!(
        "{:>8}  {:>9}  {:>11}  {:>11}  {:>7}  {:>10}",
        "movies", "tuples", "clone (µs)", "apply (µs)", "pieces", "KB copied"
    );
    for movies in [3_400, 34_000] {
        let p = write_path(movies, 48, 0x3A7E);
        println!(
            "{:>8}  {:>9}  {:>11.1}  {:>11.1}  {:>7}  {:>10.1}",
            p.movies,
            p.tuples,
            p.clone_secs * 1e6,
            p.apply_secs * 1e6,
            p.pieces_copied,
            p.bytes_copied as f64 / 1024.0
        );
    }
}

fn run_resident() {
    println!(
        "\n## Resident bytes — the serving benchmark's engine, by part (precis_resident_bytes)"
    );
    let resident = resident(34_000, 0x3A7E);
    let (tuples, parts) = (resident.tuples, resident.parts);
    println!("## 34,000 movies, {tuples} tuples");
    println!(
        "{:>15}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "part", "MiB", "B/tuple", "keys", "postings", "B/key"
    );
    let total: usize = parts.iter().map(|(_, bytes)| bytes).sum();
    for (part, bytes) in parts.into_iter().chain([("sum", total)]) {
        let size = resident.indexes.iter().find(|(name, _)| *name == part);
        let counts = size.map_or(String::new(), |(_, size)| {
            format!(
                "  {:>9}  {:>9}  {:>9.1}",
                size.keys,
                size.postings,
                bytes as f64 / size.keys as f64
            )
        });
        println!(
            "{part:>15}  {:>9.2}  {:>9.1}{counts}",
            bytes as f64 / (1 << 20) as f64,
            bytes as f64 / tuples as f64
        );
    }
}

fn run_baseline() {
    use precis_baseline::KeywordSearch;
    use precis_core::{
        AnswerSpec, CardinalityConstraint, DegreeConstraint, PrecisEngine, PrecisQuery,
    };
    use precis_datagen::movies_graph;
    use precis_index::InvertedIndex;

    println!("\n## Baseline — precis vs DISCOVER-style keyword search (same substrate)");
    let db = bench_movies_db(0xBA5E);
    let graph = movies_graph();
    let index = InvertedIndex::build(&db);

    let token = "comedy";
    let t0 = Instant::now();
    let ks = KeywordSearch::new(&db, &graph, &index);
    let answers = ks.search(&[token], 4, 200);
    let baseline_secs = t0.elapsed().as_secs_f64();
    let baseline_rows: usize = answers.iter().map(|a| a.rows.len()).sum();

    let engine = PrecisEngine::with_index(db, graph, index);
    let spec = AnswerSpec::new(
        DegreeConstraint::MinWeight(0.5),
        CardinalityConstraint::MaxTotalTuples(200),
    );
    let t1 = Instant::now();
    let answer = engine
        .answer(&PrecisQuery::new([token]), &spec)
        .expect("query answers");
    let precis_secs = t1.elapsed().as_secs_f64();

    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "system", "time (ms)", "rows", "relations"
    );
    println!(
        "{:<22} {:>12.2} {:>10} {:>12}",
        "keyword search",
        baseline_secs * 1e3,
        baseline_rows,
        answers.len()
    );
    println!(
        "{:<22} {:>12.2} {:>10} {:>12}",
        "precis (<=200 tuples)",
        precis_secs * 1e3,
        answer.precis.total_tuples(),
        answer.precis.database.schema().relation_count()
    );
}
