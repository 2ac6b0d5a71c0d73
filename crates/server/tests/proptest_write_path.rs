//! The write path against a plain reference: random batches applied through
//! `mutate::apply_ops` — each to a private copy of the engine before it,
//! every one of those engines kept alive — must end where the same ops
//! applied in place to a database that is never cloned, so never copies on
//! write, with a rebuilt index end, and must leave every engine on the way
//! exactly as it was.

use precis_core::PrecisEngine;
use precis_datagen::{movies_graph, MoviesConfig, MoviesGenerator};
use precis_index::InvertedIndex;
use precis_server::json::Json;
use precis_server::mutate::apply_ops;
use precis_server::{api, MutateOp};
use precis_storage::io::dump_to_string;
use precis_storage::{Database, TupleId, Value, CHUNK_ROWS};
use proptest::prelude::*;

/// Just under a chunk of movies, so the inserts below carry `MOVIE`, and
/// `GENRE` and `CAST` (two and four rows a movie) after it, over a chunk
/// boundary each.
const MOVIES: usize = CHUNK_ROWS - 32;

const WORDS: [&str; 8] = [
    "Comedy", "Midnight", "Harbour", "Drama", "Quiet", "Return", "Garden", "Thriller",
];

fn generated() -> Database {
    MoviesGenerator::new(MoviesConfig {
        movies: MOVIES,
        directors: 60,
        actors: 300,
        theatres: 4,
        plays: 100,
        seed: 0xC0_77,
        ..MoviesConfig::default()
    })
    .generate()
}

/// The same tuples on the same tuple ids, in a database of its own: no
/// chunk of it is shared with `db`.
fn replayed(db: &Database) -> Database {
    let mut fresh = Database::new(db.schema().clone()).unwrap();
    for (rel, _) in db.schema().relations() {
        for (tid, t) in db.table(rel).iter() {
            assert_eq!(fresh.insert_into(rel, t.values()).unwrap(), tid);
        }
    }
    fresh
}

/// One op in both forms: as `/v1/mutate` decodes it, and as a direct call.
struct Op {
    relation: &'static str,
    tid: Option<u64>,
    values: Option<Vec<Value>>,
}

impl Op {
    fn wire(&self) -> MutateOp {
        let relation = self.relation.to_owned();
        let json = |values: &[Value]| {
            values
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Json::Number(*i as f64),
                    Value::Text(s) => Json::String(s.clone()),
                    other => panic!("the generator writes ints and text, not {other:?}"),
                })
                .collect()
        };
        match (self.tid, &self.values) {
            (None, Some(values)) => MutateOp::Insert {
                relation,
                values: json(values),
            },
            (Some(tid), Some(values)) => MutateOp::Update {
                relation,
                tid,
                values: json(values),
            },
            (Some(tid), None) => MutateOp::Delete { relation, tid },
            (None, None) => unreachable!("an op inserts, updates or deletes"),
        }
    }

    fn apply_to(&self, db: &mut Database) -> bool {
        let rel = db.schema().relation_id(self.relation).unwrap();
        match (self.tid, &self.values) {
            (None, Some(values)) => db.insert_into(rel, values.clone()).is_ok(),
            (Some(tid), Some(values)) => db.update(rel, TupleId(tid), values.clone()).is_ok(),
            (Some(tid), None) => db.delete(rel, TupleId(tid)).is_ok(),
            (None, None) => unreachable!(),
        }
    }
}

/// Turn three random numbers into an op against `db` as it stands: mostly
/// inserts (a movie, a genre or a cast row of some movie), some updates of
/// a random movie slot and some deletes of a random genre or cast slot —
/// either of which may hit a dead slot and stop its batch, as on the wire.
fn op_from(db: &Database, fresh: &mut i64, (kind, a, b): (u8, u32, u32)) -> Op {
    let slots = |name: &str| {
        db.table(db.schema().relation_id(name).unwrap())
            .slot_count() as u32
    };
    let (a64, b64) = (a as i64, b as i64);
    let title = || {
        let (x, y) = (WORDS[a as usize % 8], WORDS[b as usize % 8]);
        Value::from(format!("{x} {y} {}", a % 97).as_str())
    };
    *fresh += 1;
    let key = Value::from(1_000_000 + *fresh);
    let some_movie = Value::from(1 + a64 % MOVIES as i64);
    let insert = |relation, values| Op {
        relation,
        tid: None,
        values: Some(values),
    };
    match kind % 10 {
        0..=2 => insert(
            "MOVIE",
            vec![
                key,
                title(),
                (1950 + b64 % 70).into(),
                (1 + b64 % 60).into(),
            ],
        ),
        3 | 4 => insert("GENRE", vec![key, some_movie, WORDS[b as usize % 8].into()]),
        5 | 6 => insert(
            "CAST",
            vec![key, some_movie, (1 + b64 % 300).into(), "Lead".into()],
        ),
        7 | 8 => {
            let tid = (a % slots("MOVIE")) as u64;
            let movie = db.schema().relation_id("MOVIE").unwrap();
            let mid = match db.table(movie).get(TupleId(tid)) {
                Some(t) => t.value(0),
                None => Value::from(0),
            };
            Op {
                relation: "MOVIE",
                tid: Some(tid),
                values: Some(vec![mid, title(), 1999.into(), (1 + b64 % 60).into()]),
            }
        }
        _ => {
            let relation = if b % 2 == 0 { "GENRE" } else { "CAST" };
            Op {
                relation,
                tid: Some((a % slots(relation)) as u64),
                values: None,
            }
        }
    }
}

fn answer(engine: &PrecisEngine, tokens: &str) -> String {
    let request = api::parse_query_request(&format!("{{\"tokens\": \"{tokens}\"}}")).unwrap();
    api::answer_query(engine, None, &request, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batches_through_apply_ops_equal_the_ops_applied_in_place(
        raw in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 700..900),
        batch_len in 5usize..40,
    ) {
        let db = generated();
        let chunks_of = |db: &Database, relation: &str| {
            let rel = db.schema().relation_id(relation).unwrap();
            db.table(rel).slot_count() / CHUNK_ROWS
        };
        let grown = ["MOVIE", "GENRE", "CAST"];
        let chunks_before = grown.map(|r| chunks_of(&db, r));
        let mut reference = replayed(&db);
        let mut engine = PrecisEngine::new(db, movies_graph()).unwrap();
        // Every engine on the way, with its dump as of then.
        let mut kept: Vec<(PrecisEngine, String)> = Vec::new();
        let mut fresh = 0;

        for batch in raw.chunks(batch_len) {
            // Ops are drawn against the batch's starting state, like a
            // client's; the reference stops where the first one fails.
            let ops: Vec<Op> = batch
                .iter()
                .map(|r| op_from(engine.database(), &mut fresh, *r))
                .collect();
            let wire: Vec<MutateOp> = ops.iter().map(Op::wire).collect();
            let applied = apply_ops(&engine, &wire);
            let in_place = ops.iter().take_while(|op| op.apply_to(&mut reference)).count();
            prop_assert_eq!(applied.applied, in_place, "{:?}", applied.error);
            prop_assert_eq!(applied.error.is_some(), in_place < ops.len());
            prop_assert!(!applied.wal_failed);
            let before = dump_to_string(engine.database());
            kept.push((std::mem::replace(&mut engine, applied.engine), before));
        }

        // Long enough: three tables grew over a chunk boundary.
        for (relation, before) in grown.iter().zip(chunks_before) {
            prop_assert!(chunks_of(engine.database(), relation) > before, "{}", relation);
        }

        prop_assert!(dump_to_string(engine.database()) == dump_to_string(&reference));
        prop_assert!(engine.index() == &InvertedIndex::build(&reference));
        let rebuilt = PrecisEngine::new(reference, movies_graph()).unwrap();
        for tokens in ["comedy", "midnight harbour", "lead"] {
            prop_assert_eq!(answer(&engine, tokens), answer(&rebuilt, tokens));
        }
        // No engine on the way was disturbed by the batches after it.
        for (i, (earlier, dump)) in kept.iter().enumerate() {
            prop_assert!(&dump_to_string(earlier.database()) == dump, "engine {} changed", i);
            prop_assert!(earlier.index() == &InvertedIndex::build(earlier.database()));
        }
    }
}
