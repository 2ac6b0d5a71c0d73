//! Response bodies are pinned across commits, not only server-vs-engine
//! within one: a seeded movies database, a fixed list of narrow and broad
//! requests over every strategy, and one folded hash of every
//! [`api::render_answer`] body. The constant was computed at the commit
//! before the translator and the ranker began asking the answer database
//! for its joins; a change that reorders a narrative, drops a clause or
//! renders a value differently moves it.

use precis_core::PrecisEngine;
use precis_datagen::{movies_graph, movies_vocabulary, MoviesConfig, MoviesGenerator};
use precis_server::api;
use precis_storage::{TupleId, ValueRef};

const GOLDEN: u64 = 0x78b7_4b9f_b2a5_a840;

/// FNV-1a over `bytes`, continued from `hash`.
fn fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// First word of the text at `relation.attr` in row `tid`.
fn word_of(engine: &PrecisEngine, relation: &str, attr: &str, tid: u64) -> String {
    let db = engine.database();
    let rel = db.schema().relation_id(relation).expect("movies relation");
    let pos = db.schema().relation(rel).attr_position(attr).unwrap();
    let row = db.table(rel).get(TupleId(tid)).expect("generated row");
    match row.get(pos) {
        ValueRef::Text(text) => text.split(' ').next().unwrap().to_owned(),
        other => panic!("{relation}.{attr} holds {other:?}"),
    }
}

fn engine() -> PrecisEngine {
    let db = MoviesGenerator::new(MoviesConfig {
        movies: 3_400,
        directors: 400,
        actors: 2_000,
        theatres: 50,
        plays: 5_000,
        cast_per_movie: 4,
        seed: 7,
        ..MoviesConfig::default()
    })
    .generate();
    PrecisEngine::new(db, movies_graph()).expect("engine builds")
}

#[test]
fn every_rendered_body_hashes_to_the_pinned_constant() {
    let engine = engine();
    let vocab = movies_vocabulary(engine.database().schema());

    let mut bodies: Vec<String> = Vec::new();
    // Narrow: a person's name or a title's number, alone and in pairs, under
    // the constraint templates the benchmark's narrow requests rotate over.
    let narrow = [
        word_of(&engine, "ACTOR", "aname", 3),
        word_of(&engine, "ACTOR", "aname", 1_250),
        word_of(&engine, "DIRECTOR", "dname", 2),
        word_of(&engine, "DIRECTOR", "dname", 311),
        "117".to_owned(),
        "2048".to_owned(),
    ];
    let templates = [
        "",
        r#", "degree": {"minweight": 0.5}"#,
        r#", "cardinality": {"perrel": 20}, "strategy": "naive""#,
        r#", "cardinality": {"total": 40}, "strategy": "topweight""#,
    ];
    for (i, word) in narrow.iter().enumerate() {
        let template = templates[i % templates.len()];
        bodies.push(format!(r#"{{"tokens": ["{word}"]{template}}}"#));
        let other = &narrow[(i + 3) % narrow.len()];
        let template = templates[(i + 1) % templates.len()];
        bodies.push(format!(r#"{{"tokens": ["{word}", "{other}"]{template}}}"#));
    }
    // Broad: a genre, a birth place or a title word, each matching hundreds
    // of rows, across degree, cardinality and strategy.
    for (i, token) in [
        "Comedy", "Paris", "Crimson", "Thriller", "Athens", "Scorpion",
    ]
    .iter()
    .enumerate()
    {
        let minweight = ["0.0", "0.3"][i % 2];
        let cardinality = [
            r#"{"perrel": 50}"#,
            r#"{"perrel": 200}"#,
            r#"{"total": 400}"#,
        ][i % 3];
        for strategy in ["naive", "roundrobin"] {
            bodies.push(format!(
                r#"{{"tokens": ["{token}"], "degree": {{"minweight": {minweight}}}, "cardinality": {cardinality}, "strategy": "{strategy}"}}"#
            ));
        }
    }
    bodies.push(r#"{"tokens": "comedy zzznothing", "strategy": "topweight"}"#.to_owned());

    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut narrated = 0;
    for (i, body) in bodies.iter().enumerate() {
        let request = api::parse_query_request(body).expect("request parses");
        let plan = engine
            .plan(&request.query, &request.degree, None)
            .expect("plans");
        let spec = precis_core::AnswerSpec::new(request.degree, request.cardinality)
            .with_strategy(request.strategy);
        let answer = engine.answer_planned(plan, &spec).expect("answers");
        // The designer vocabulary, and on every third body the generic
        // clauses of a server started without one.
        let vocabulary = (i % 3 != 2).then_some(&vocab);
        let rendered = api::render_answer(&engine, vocabulary, &answer);
        narrated += usize::from(rendered.contains("\"text\": \""));
        hash = fold(hash, &(rendered.len() as u64).to_le_bytes());
        hash = fold(hash, rendered.as_bytes());
    }
    // The other three end in `narrative_error`: pinned bytes all the same.
    assert_eq!((narrated, bodies.len()), (22, 25));
    assert_eq!(
        hash,
        GOLDEN,
        "a rendered body changed: {hash:#018x} over {} bodies",
        bodies.len()
    );
}

#[test]
fn a_probe_the_answer_refuses_is_a_narrative_error_not_a_shorter_narrative() {
    use precis_storage::failpoint::{self, FailureKind};
    let engine = engine();
    let vocab = movies_vocabulary(engine.database().schema());
    let request = api::parse_query_request(
        r#"{"tokens": "Comedy", "cardinality": {"perrel": 50}, "strategy": "naive"}"#,
    )
    .unwrap();
    let plan = engine.plan(&request.query, &request.degree, None).unwrap();
    let spec = precis_core::AnswerSpec::new(request.degree, request.cardinality)
        .with_strategy(request.strategy);
    let answer = engine.answer_planned(plan, &spec).unwrap();
    let whole = api::render_answer(&engine, Some(&vocab), &answer);
    assert!(whole.contains("\"text\": \"Comedy is a genre."), "{whole}");

    // Armed never to fire, the site counts the probes one rendering makes of
    // the answer database; then each of them fails in turn, from the
    // ranker's first to the narrator's last.
    let _gate = failpoint::exclusive();
    let _scope = failpoint::thread_scope();
    failpoint::arm("lookup", FailureKind::Io, u64::MAX, 0);
    api::render_answer(&engine, Some(&vocab), &answer);
    let probes = failpoint::hits("lookup");
    assert!(probes > 20, "{probes} probes");
    for skip in [0, probes / 2, probes - 1] {
        failpoint::arm("lookup", FailureKind::Io, skip, 1);
        let body = api::render_answer(&engine, Some(&vocab), &answer);
        failpoint::disarm("lookup");
        let refused = "\"narratives\": [], \"narrative_error\": \"answer database: storage error";
        assert!(body.contains(refused), "probe {skip} of {probes}: {body}");
    }
}
