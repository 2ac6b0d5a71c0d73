//! Concurrency: the engine is shareable across threads for read queries
//! (the storage stats use relaxed atomics, everything else is immutable at
//! query time). Plus an ignored paper-scale (34k films) smoke test.

use precis::core::{
    AnswerSpec, CardinalityConstraint, DegreeConstraint, PrecisEngine, PrecisQuery,
};
use precis::datagen::{movies_graph, MoviesConfig, MoviesGenerator};

fn engine(movies: usize, seed: u64) -> PrecisEngine {
    let db = MoviesGenerator::new(MoviesConfig {
        movies,
        directors: (movies / 8).max(1),
        actors: (movies / 2).max(1),
        theatres: (movies / 50).max(1),
        plays: movies * 2,
        seed,
        ..MoviesConfig::default()
    })
    .generate();
    PrecisEngine::new(db, movies_graph()).unwrap()
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PrecisEngine>();
}

#[test]
fn parallel_queries_agree_with_serial_ones() {
    let e = engine(400, 99);
    let spec = AnswerSpec::new(
        DegreeConstraint::MinWeight(0.7),
        CardinalityConstraint::MaxTuplesPerRelation(15),
    );
    let tokens = ["comedy", "drama", "thriller", "action"];
    let serial: Vec<usize> = tokens
        .iter()
        .map(|t| {
            e.answer(&PrecisQuery::new([*t]), &spec)
                .unwrap()
                .precis
                .total_tuples()
        })
        .collect();

    let parallel: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = tokens
            .iter()
            .map(|t| {
                let e = &e;
                let spec = &spec;
                s.spawn(move || {
                    e.answer(&PrecisQuery::new([*t]), spec)
                        .unwrap()
                        .precis
                        .total_tuples()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel);
}

/// What the engine keeps resident per tuple at a tenth of the paper's scale
/// (the serving benchmark's proportions: 31,250 tuples of ~60 bytes each),
/// from the same accounting `/v1/metrics` exports as `precis_resident_bytes`.
/// The symbol table is left out — it is the process's, and this process's
/// other tests intern into it.
#[test]
fn the_3400_movie_engine_keeps_under_100_bytes_a_tuple_resident() {
    let scale = MoviesConfig::imdb_scale();
    let db = MoviesGenerator::new(MoviesConfig {
        movies: scale.movies / 10,
        directors: scale.directors / 10,
        actors: scale.actors / 10,
        theatres: scale.theatres / 10,
        plays: scale.plays / 10,
        ..scale
    })
    .generate();
    let tuples = db.total_tuples();
    assert_eq!(tuples, 31_250);
    let e = PrecisEngine::new(db, movies_graph()).unwrap();
    let parts = e.resident_bytes();
    let per_tuple = |part: &str| {
        let (_, bytes) = parts.iter().find(|(name, _)| *name == part).unwrap();
        *bytes as f64 / tuples as f64
    };
    let engine_owned: f64 = ["tables", "pk_index", "join_index", "inverted_index"]
        .into_iter()
        .map(per_tuple)
        .sum();
    assert!(
        engine_owned <= 100.0,
        "{engine_owned:.1} B/tuple: {parts:?}"
    );
    // Each part against what it held when every index was a hash table
    // sized for writes (132 B/tuple over the four): an index is a sorted
    // base — 16 bytes a key, or a key's tids end to end — beside a delta
    // holding what the load wrote since its last merge, at most one key in
    // eight of the base's; and a cell is what its type is (8 bytes an
    // integer, 4 a symbol, a null bit each).
    assert!(per_tuple("pk_index") <= 22.0, "{parts:?}");
    assert!(per_tuple("join_index") <= 22.0, "{parts:?}");
    assert!(per_tuple("inverted_index") <= 32.0, "{parts:?}");
    assert!(per_tuple("tables") <= 30.0, "{parts:?}");
}

/// Paper-scale smoke test: the IMDB dump had 34k+ films. Run with
/// `cargo test --release -- --ignored imdb_scale`.
#[test]
#[ignore = "multi-second paper-scale run; invoke explicitly"]
fn imdb_scale_answers_in_bounded_time() {
    let e = engine(34_000, 7);
    assert!(e.database().total_tuples() > 250_000);
    let t0 = std::time::Instant::now();
    let a = e
        .answer(
            &PrecisQuery::new(["comedy"]),
            &AnswerSpec::new(
                DegreeConstraint::MinWeight(0.7),
                CardinalityConstraint::MaxTuplesPerRelation(50),
            ),
        )
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(a.precis.total_tuples() > 0);
    assert!(elapsed.as_secs() < 30, "paper-scale query took {elapsed:?}");
}
