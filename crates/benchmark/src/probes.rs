//! Layer probes that do not depend on the request stream: the write path
//! and the durability layer timed through their public functions, and the
//! cost of narrative synthesis against answer size. They run after the
//! server has shut down, on engines of their own.

use crate::other;
use crate::rng::Rng;
use crate::stats;
use crate::workload::{random_text, Batch, Writer};
use crate::world;
use precis_core::{AnswerSpec, CardinalityConstraint, DegreeConstraint, PrecisEngine, PrecisQuery};
use precis_datagen::{movies_graph, movies_vocabulary};
use precis_durability::{write_snapshot, DurableStore};
use precis_index::InvertedIndex;
use precis_nlg::Translator;
use precis_server::{mutate, parse_mutate_request};
use precis_storage::{Database, MemoryWalSink, WalOp};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Batches applied per database size.
const APPLY_BATCHES: usize = 24;
/// The small database of `server.mutate_apply_ms_small` holds a tenth of the
/// movies of the large one.
const SMALL_DIVISOR: usize = 10;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn median_of(mut f: impl FnMut() -> f64, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    stats::median(&samples).expect("at least one repetition")
}

/// What applying the writer's batches to an engine cost, and the log
/// records they produced.
struct Applied {
    apply_ms: f64,
    parse_us: f64,
    batches: Vec<Batch>,
    /// The records of each batch, as the storage layer emitted them.
    ops: Vec<Vec<WalOp>>,
    /// The database after the last batch.
    engine: PrecisEngine,
}

/// Apply [`APPLY_BATCHES`] writer batches in sequence through
/// `parse_mutate_request` → `mutate::apply_ops`, each on the result of the
/// one before, as the server's write path does.
fn apply_batches(mut db: Database, seed: u64) -> io::Result<Applied> {
    let sink = MemoryWalSink::new();
    db.set_wal_sink(sink.clone());
    let mut writer = Writer::new(&db, seed);
    let mut engine = PrecisEngine::new(db, movies_graph()).map_err(other)?;
    let (mut apply_ms, mut parse_us) = (Vec::new(), Vec::new());
    let (mut batches, mut ops) = (Vec::new(), Vec::new());
    let mut logged = 0;
    for _ in 0..APPLY_BATCHES {
        let batch = writer.next_batch();
        let t = Instant::now();
        let parsed = parse_mutate_request(&batch.body).map_err(other)?;
        parse_us.push(us_since(t));
        let t = Instant::now();
        let applied = mutate::apply_ops(&engine, &parsed);
        apply_ms.push(ms_since(t));
        if let Some(e) = applied.error {
            return Err(other(format!("writer batch refused: {e}")));
        }
        writer.acknowledge(&batch, &applied.inserted_tids, false);
        engine = applied.engine;
        let records = sink.records();
        ops.push(records[logged..].to_vec());
        logged = records.len();
        batches.push(batch);
    }
    Ok(Applied {
        apply_ms: stats::median(&apply_ms).expect("batches were applied"),
        parse_us: stats::median(&parse_us).expect("batches were applied"),
        batches,
        ops,
        engine,
    })
}

/// Narrative synthesis per result tuple at `perrel` tuples per relation,
/// over the whole schema graph from one stored genre.
fn nlg_us_per_tuple(engine: &PrecisEngine, seed: u64, perrel: usize) -> f64 {
    let (db, graph) = (engine.database(), engine.graph());
    let vocabulary = movies_vocabulary(db.schema());
    let genre = random_text(db, &mut Rng::new(seed, 0x7E_0005), "GENRE", "genre");
    let spec = AnswerSpec::new(
        DegreeConstraint::MinWeight(0.0),
        CardinalityConstraint::MaxTuplesPerRelation(perrel),
    );
    let answer = engine
        .answer(&PrecisQuery::new([genre]), &spec)
        .expect("non-empty query");
    let translator = Translator::new(db, graph, &vocabulary);
    let us = median_of(
        || {
            let t = Instant::now();
            let _ = std::hint::black_box(translator.translate_ranked(&answer));
            us_since(t)
        },
        5,
    );
    us / answer.precis.total_tuples().max(1) as f64
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(seed: u64, movies: usize, out_dir: &Path) -> io::Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();

    let small = apply_batches(world::generate(seed, (movies / SMALL_DIVISOR).max(1)), seed)?;
    let db = world::generate(seed, movies);
    let pristine = db.clone();
    let large = apply_batches(db, seed)?;
    out.push(("server.mutate_parse_us", large.parse_us));
    out.push(("server.mutate_apply_ms_small", small.apply_ms));
    out.push(("server.mutate_apply_ms_large", large.apply_ms));
    out.push((
        "server.mutate_apply_size_ratio",
        large.apply_ms / small.apply_ms,
    ));
    drop(small);

    let engine = &large.engine;
    out.push((
        "core.engine_clone_ms",
        median_of(
            || {
                let t = Instant::now();
                std::hint::black_box(engine.clone());
                ms_since(t)
            },
            5,
        ),
    ));
    out.push((
        "index.build_ms",
        median_of(
            || {
                let t = Instant::now();
                std::hint::black_box(InvertedIndex::build(engine.database()));
                ms_since(t)
            },
            3,
        ),
    ));
    out.push(("nlg.us_per_tuple_50", nlg_us_per_tuple(engine, seed, 50)));
    out.push(("nlg.us_per_tuple_200", nlg_us_per_tuple(engine, seed, 200)));

    // The log: the records the batches produced, appended and flushed batch
    // by batch over a snapshot of the database they started from.
    let dir = world::scratch_dir(out_dir, "probe")?;
    let store = DurableStore::open(&dir).map_err(other)?;
    write_snapshot(&pristine, 0, store.snapshot_path()).map_err(other)?;
    drop(pristine);
    let mut wal = store.create_wal(world::FSYNC_POLICY, 0).map_err(other)?;
    let wal_stats = wal.stats();
    let (mut append_us, mut flush_ms) = (Vec::new(), Vec::new());
    let mut appended = 0;
    for batch in &large.ops {
        for op in batch.iter().cloned() {
            let t = Instant::now();
            wal.append_op(op).map_err(other)?;
            append_us.push(us_since(t));
            appended += 1;
        }
        let t = Instant::now();
        wal.flush().map_err(other)?;
        flush_ms.push(ms_since(t));
    }
    let user_bytes: usize = large.batches.iter().map(|b| b.user_bytes).sum();
    let wal_bytes = std::fs::metadata(store.wal_path())?.len();
    out.push((
        "durability.wal_append_us",
        stats::median(&append_us).expect("records were appended"),
    ));
    out.push((
        "durability.flush_ms",
        stats::median(&flush_ms).expect("batches were flushed"),
    ));
    out.push((
        "durability.fsyncs_per_batch",
        wal_stats.fsyncs.load(Ordering::Relaxed) as f64 / large.ops.len() as f64,
    ));
    out.push((
        "durability.wal_bytes_per_user_byte",
        wal_bytes as f64 / user_bytes as f64,
    ));

    let t = Instant::now();
    let recovered = store
        .recover()
        .map_err(other)?
        .ok_or_else(|| other("nothing to recover"))?;
    out.push(("durability.recover_ms", ms_since(t)));
    out.push(("durability.recovered_ops", recovered.report.replayed as f64));
    // Every record was flushed before recovery read the log.
    out.push((
        "durability.acked_lost",
        (appended - recovered.report.replayed.min(appended)) as f64,
    ));
    drop(recovered);

    let t = Instant::now();
    let compacted = store
        .checkpoint(large.engine.database(), &mut wal)
        .map_err(other)?;
    out.push(("durability.checkpoint_ms", ms_since(t)));
    drop(compacted);
    drop(wal);
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}
