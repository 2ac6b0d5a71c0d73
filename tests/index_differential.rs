//! Differential check of the inverted index: the column pass of
//! `InvertedIndex::build` against an index maintained one tuple at a time
//! through `add_tuple` / `remove_tuple`, under interleaved inserts, updates
//! and deletes. The two must be *equal* — every posting list, the order of
//! locations within a word, `vocabulary_size` and `indexed_words` — with the
//! default and with a stopword tokenizer — and so must an index that
//! reached its state through generations of clone-and-apply, the way a
//! served engine's does, and one whose delta has been merged into its base
//! again and again: right after each merge it is the very base a build
//! lays out, byte for byte, and a clone taken before the merge reads on
//! as it did.
//!
//! Run this after touching `crates/index` or `crates/storage/src/io.rs`:
//! `cargo test --test index_differential`.

use precis::datagen::{MoviesConfig, MoviesGenerator};
use precis::index::{InvertedIndex, Tokenizer};
use precis::storage::{io, Database, RelationId, TupleId, Value};
use precis_testkit::{build_dataset, DatasetSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tokenizers() -> [Tokenizer; 2] {
    [
        Tokenizer::default(),
        // Words the generated datasets are full of, so dropping them shows.
        Tokenizer::with_stopwords(["the", "of", "payload", "Comedy", "allen"]),
    ]
}

fn assert_same_index(
    maintained: &InvertedIndex,
    db: &Database,
    tokenizer: &Tokenizer,
    at: &str,
) -> InvertedIndex {
    let rebuilt = InvertedIndex::build_with(db, tokenizer.clone());
    assert_eq!(
        (maintained.vocabulary_size(), maintained.indexed_words()),
        (rebuilt.vocabulary_size(), rebuilt.indexed_words()),
        "(vocabulary_size, indexed_words) of maintained vs rebuilt, {at}"
    );
    assert!(
        *maintained == rebuilt,
        "posting lists of the maintained and the rebuilt index differ, {at}"
    );
    rebuilt
}

/// A live tuple of `rel` picked by `rng`, if the relation has any.
fn pick_live(db: &Database, rel: RelationId, rng: &mut StdRng) -> Option<TupleId> {
    let slots = db.table(rel).slot_count();
    (0..8)
        .map(|_| TupleId(rng.gen_range(0..slots.max(1)) as u64))
        .find(|tid| db.table(rel).get(*tid).is_some())
}

/// Replay `source` into an empty database, one insert at a time, with a delete or an update of an earlier tuple thrown in after
/// some of them; the index follows every step through `add_tuple` and
/// `remove_tuple` and is compared with a fresh build along the way.
fn replay_and_compare(source: &Database, tokenizer: &Tokenizer, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(source.schema().clone()).unwrap();
    let mut index = InvertedIndex::build_with(&db, tokenizer.clone());
    let mut steps = 0usize;
    for (rel, rel_schema) in source.schema().relations() {
        // Deleting a referenced tuple would leave a dangling foreign key,
        // which the reload at the end rightly refuses.
        let referenced = source
            .schema()
            .foreign_keys()
            .iter()
            .any(|fk| fk.ref_relation == rel_schema.name());
        for (_, tuple) in source.table(rel).iter() {
            let tid = db.insert_into(rel, tuple.values()).unwrap();
            index.add_tuple(&db, rel, tid);
            let Some(victim) = pick_live(&db, rel, &mut rng) else {
                continue;
            };
            match rng.gen_range(0..6u32) {
                0 if !referenced => {
                    index.remove_tuple(&db, rel, victim);
                    db.delete(rel, victim).unwrap();
                }
                1 => {
                    // Take every non-key value from another live tuple, with
                    // a word appended to each text: types and NOT NULL hold.
                    let donor = pick_live(&db, rel, &mut rng).unwrap_or(victim);
                    let pk = db.relation_schema(rel).primary_key();
                    let mut values = db.table(rel).get(donor).unwrap().values();
                    for (attr, value) in values.iter_mut().enumerate() {
                        if Some(attr) == pk {
                            *value = db.table(rel).get(victim).unwrap().value(attr);
                        } else if let Value::Text(text) = value {
                            text.push_str(" İkinci-Redux the");
                        }
                    }
                    index.remove_tuple(&db, rel, victim);
                    db.update(rel, victim, values).unwrap();
                    index.add_tuple(&db, rel, victim);
                }
                _ => {}
            }
            steps += 1;
            if steps.is_multiple_of(97) {
                assert_same_index(&index, &db, tokenizer, &format!("after {steps} steps"));
            }
        }
    }
    let tombstones: usize = db
        .schema()
        .relations()
        .map(|(rel, _)| db.table(rel).slot_count() - db.len(rel))
        .sum();
    assert!(tombstones > 0, "the replay must leave tombstones behind");
    assert_same_index(&index, &db, tokenizer, "at the end");

    // What a checkpoint does: the compacted reload renumbers tuple ids, and
    // the index built over it equals one maintained from empty over it.
    let reloaded = io::load_from_string(&io::dump_to_string(&db)).unwrap();
    assert_eq!(io::dump_to_string(&reloaded), io::dump_to_string(&db));
    assert_same_index(
        &maintained_from_empty(&reloaded, tokenizer),
        &reloaded,
        tokenizer,
        "over the compacted reload",
    );
}

/// The tuple-at-a-time build `InvertedIndex::build` used to be.
fn maintained_from_empty(db: &Database, tokenizer: &Tokenizer) -> InvertedIndex {
    let empty = Database::new(db.schema().clone()).unwrap();
    let mut index = InvertedIndex::build_with(&empty, tokenizer.clone());
    for (rel, _) in db.schema().relations() {
        for (tid, _) in db.table(rel).iter() {
            index.add_tuple(db, rel, tid);
        }
    }
    index
}

fn dataset(pick: u32, seed: u64) -> DatasetSpec {
    match pick % 4 {
        0 => DatasetSpec::Demo,
        1 => DatasetSpec::Movies {
            movies: 40 + (seed % 80) as usize,
            seed,
        },
        2 => DatasetSpec::Chain {
            relations: 3,
            rows: 40,
            fanout: 1,
        },
        _ => DatasetSpec::Chain {
            relations: 4,
            rows: 24,
            fanout: 2,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn build_equals_the_maintained_index(pick in 0u32..4, seed in any::<u64>()) {
        let (source, _, _) = build_dataset(&dataset(pick, seed));
        for tokenizer in &tokenizers() {
            replay_and_compare(&source, tokenizer, seed);
        }
    }
}

/// The database the serving benchmark sets up from: 34,000 movies.
#[test]
fn build_equals_the_maintained_index_at_benchmark_scale() {
    let db = MoviesGenerator::new(MoviesConfig::imdb_scale()).generate();
    for tokenizer in &tokenizers() {
        assert_same_index(
            &maintained_from_empty(&db, tokenizer),
            &db,
            tokenizer,
            "over the 34,000-movie database",
        );
    }
}

/// What a test of merges keeps between writes: the merges seen, and a clone
/// of the database and its index taken between two of them.
#[derive(Default)]
struct Merges {
    seen: usize,
    held: Option<(Database, InvertedIndex)>,
}

impl Merges {
    /// Index a tuple just inserted, and check the index if that merged its
    /// delta — a non-empty delta left empty, which an add does no other way:
    /// it equals a fresh build and costs exactly what the build costs, and
    /// the clone held from before the merge equals a build over the
    /// database it indexed. A new clone is held once the delta fills again.
    fn add(&mut self, db: &Database, index: &mut InvertedIndex, rel: RelationId, tid: TupleId) {
        let delta = index.delta_words();
        index.add_tuple(db, rel, tid);
        if self.held.is_none() && index.delta_words() >= 8 {
            self.held = Some((db.clone(), index.clone()));
        }
        if delta == 0 || index.delta_words() > 0 {
            return;
        }
        self.seen += 1;
        let (tokenizer, at) = (Tokenizer::default(), format!("after merge {}", self.seen));
        let rebuilt = assert_same_index(index, db, &tokenizer, &at);
        assert_eq!(index.heap_bytes(), rebuilt.heap_bytes(), "{at}");
        if let Some((then_db, then_index)) = self.held.take() {
            assert!(
                then_index.delta_words() >= 8,
                "{at}: the clone kept its delta"
            );
            assert_same_index(&then_index, &then_db, &tokenizer, &format!("{at}, clone"));
        }
    }
}

/// A database filled from empty one tuple at a time, with deletes and
/// updates thrown in, while the index follows it: its delta is merged into
/// its base again and again (see [`Merges::add`] for what is checked at
/// each merge).
#[test]
fn a_maintained_index_equals_build_across_merges() {
    let (source, _, _) = build_dataset(&DatasetSpec::Movies {
        movies: 2_500,
        seed: 0x3E_46,
    });
    let mut rng = StdRng::seed_from_u64(0x3E_46);
    let mut db = Database::new(source.schema().clone()).unwrap();
    let mut index = InvertedIndex::build(&db);
    let mut merges = Merges::default();
    for (rel, rel_schema) in source.schema().relations() {
        let referenced = source
            .schema()
            .foreign_keys()
            .iter()
            .any(|fk| fk.ref_relation == rel_schema.name());
        for (_, tuple) in source.table(rel).iter() {
            let tid = db.insert_into(rel, tuple.values()).unwrap();
            merges.add(&db, &mut index, rel, tid);
            let victim = pick_live(&db, rel, &mut rng).unwrap();
            match rng.gen_range(0..8u32) {
                0 if !referenced => {
                    index.remove_tuple(&db, rel, victim);
                    db.delete(rel, victim).unwrap();
                }
                1 => {
                    let mut values = db.table(rel).get(victim).unwrap().values();
                    for value in values.iter_mut() {
                        if let Value::Text(text) = value {
                            text.push_str(" Redux");
                        }
                    }
                    index.remove_tuple(&db, rel, victim);
                    db.update(rel, victim, values).unwrap();
                    merges.add(&db, &mut index, rel, victim);
                }
                _ => {}
            }
        }
    }
    assert!(merges.seen >= 3, "{} merges", merges.seen);
    assert_same_index(&index, &db, &Tokenizer::default(), "at the end");
}

/// What the server's write path does to an index, sixty times over: clone
/// database and index (the published pair stays alive, as it does for a
/// running answer), change the clones tuple by tuple, publish them. One
/// word is written often enough to outgrow a posting-list segment on the
/// way. The last generation must equal a fresh build — `indexed_words`
/// included — and so must every kept generation over its own database.
#[test]
fn an_index_maintained_through_clone_and_apply_generations_equals_build() {
    let (source, _, _) = build_dataset(&DatasetSpec::Movies {
        movies: 300,
        seed: 0x6E_4E,
    });
    let movie = source.schema().relation_id("MOVIE").unwrap();
    let tokenizer = Tokenizer::default();
    let mut rng = StdRng::seed_from_u64(0x6E_4E);
    let mut published = (source.clone(), InvertedIndex::build(&source));
    let mut kept = Vec::new();
    let mut key = 5_000_000i64;
    for generation in 0..60 {
        let (mut db, mut index) = published.clone();
        for _ in 0..20 {
            key += 1;
            let title = format!("Perennial sequel {}", key % 13);
            let row = vec![key.into(), title.as_str().into(), 2001.into(), 1.into()];
            let tid = db.insert_into(movie, row).unwrap();
            index.add_tuple(&db, movie, tid);
        }
        let renamed = pick_live(&db, movie, &mut rng).unwrap();
        let mut values = db.table(movie).get(renamed).unwrap().values();
        values[1] = format!("Perennial recut {generation}").as_str().into();
        index.remove_tuple(&db, movie, renamed);
        db.update(movie, renamed, values).unwrap();
        index.add_tuple(&db, movie, renamed);
        // `MOVIE` is referenced; the rows deleted are this test's own.
        let victim = TupleId((db.table(movie).slot_count() - 1 - generation) as u64);
        if db.table(movie).get(victim).is_some() {
            index.remove_tuple(&db, movie, victim);
            db.delete(movie, victim).unwrap();
        }
        if generation % 10 == 0 {
            kept.push(published.clone());
        }
        published = (db, index);
    }
    let perennial: usize = published
        .1
        .lookup(&published.0, "perennial")
        .iter()
        .map(|o| o.tids.len())
        .sum();
    assert!(perennial > 1024, "{perennial} postings: one segment");
    assert_same_index(
        &published.1,
        &published.0,
        &tokenizer,
        "after 60 generations",
    );
    for (i, (db, index)) in kept.iter().enumerate() {
        assert_same_index(
            index,
            db,
            &tokenizer,
            &format!("kept generation {}", i * 10),
        );
    }
}
