//! Property tests on the parsing/serialization surfaces: the template
//! language, the free-form query parser, the storage dump/load format, and
//! the inverted index's findability guarantee.

use precis::core::PrecisQuery;
use precis::index::{tokenize, InvertedIndex};
use precis::nlg::{Bindings, Template};
use precis::storage::io::{dump_to_string, load_from_string};
use precis::storage::{
    DataType, Database, DatabaseSchema, ForeignKey, RelationSchema, TupleId, Value,
};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The template parser never panics; it either parses or reports a
    /// structured error.
    #[test]
    fn template_parser_total(src in ".{0,120}") {
        let _ = Template::parse(&src);
    }

    /// Whatever parses also renders (or fails with a structured error) for
    /// arbitrary bindings — no panics, no infinite loops.
    #[test]
    fn template_render_total(
        src in "[ -~]{0,80}",
        values in proptest::collection::vec("[a-z]{0,8}", 0..4),
    ) {
        if let Ok(t) = Template::parse(&src) {
            let mut b = Bindings::new();
            for name in t.variables() {
                b.set(name.to_owned(), values.clone());
            }
            let _ = t.render(&b, &HashMap::new());
        }
    }

    /// Literal-only templates round-trip their text exactly.
    #[test]
    fn literal_templates_echo(src in "[a-zA-Z0-9 .,;:!?'-]{0,80}") {
        let t = Template::parse(&src).expect("no meta characters");
        let out = t.render(&Bindings::new(), &HashMap::new()).unwrap();
        prop_assert_eq!(out, src);
    }

    /// The query parser never panics, drops no non-whitespace input outside
    /// quotes, and produces no empty tokens.
    #[test]
    fn query_parser_total(input in ".{0,100}") {
        let q = PrecisQuery::parse(&input);
        for t in q.tokens() {
            prop_assert!(!t.trim().is_empty());
        }
    }

    /// Unquoted words are preserved verbatim, in order.
    #[test]
    fn query_parser_words_roundtrip(words in proptest::collection::vec("[a-z]{1,10}", 0..8)) {
        let input = words.join(" ");
        let q = PrecisQuery::parse(&input);
        prop_assert_eq!(q.tokens(), words.as_slice());
    }

    /// dump → load → dump is a fixpoint for arbitrary text/int/float/bool
    /// content, including control characters in text.
    #[test]
    fn storage_io_roundtrip(
        rows in proptest::collection::vec(
            ("[ -~\t\n]{0,24}", any::<i64>(), any::<bool>(), proptest::option::of(-1e9f64..1e9)),
            0..24,
        ),
    ) {
        let mut schema = DatabaseSchema::new("prop");
        schema
            .add_relation(
                RelationSchema::builder("R")
                    .attr_not_null("id", DataType::Int)
                    .attr("t", DataType::Text)
                    .attr("n", DataType::Int)
                    .attr("b", DataType::Bool)
                    .attr("f", DataType::Float)
                    .primary_key("id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for (i, (t, n, b, f)) in rows.iter().enumerate() {
            db.insert(
                "R",
                vec![
                    Value::from(i),
                    Value::from(t.as_str()),
                    Value::from(*n),
                    Value::from(*b),
                    f.map(Value::from).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
        }
        let text = dump_to_string(&db);
        let loaded = load_from_string(&text).unwrap();
        prop_assert_eq!(loaded.total_tuples(), db.total_tuples());
        prop_assert_eq!(dump_to_string(&loaded), text);
        let r = loaded.schema().relation_id("R").unwrap();
        for (tid, tup) in db.table(r).iter() {
            prop_assert_eq!(loaded.table(r).get(tid).unwrap(), tup);
        }
    }

    /// A dump is lossless in tuple ids: after a random stream of inserts,
    /// updates and deletes over two relations — one of them possibly wiped,
    /// so it is nothing but tombstones — `load(dump(db))` holds every slot
    /// of `db` (live or tombstoned, trailing ones included) under the same
    /// id and hands out the same next id.
    #[test]
    fn storage_io_keeps_every_tuple_id(
        ops in proptest::collection::vec(
            (0usize..4, 0usize..2, 0usize..64, "[ -~\t\n\\\\]{0,12}"),
            0..48,
        ),
        wipe in any::<bool>(),
    ) {
        let relation = |name: &str| {
            RelationSchema::builder(name)
                .attr_not_null("id", DataType::Int)
                .attr("t", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap()
        };
        let mut schema = DatabaseSchema::new("holes");
        schema.add_relation(relation("A")).unwrap();
        schema.add_relation(relation("B")).unwrap();
        let mut db = Database::new(schema).unwrap();
        let rels = [
            db.schema().relation_id("A").unwrap(),
            db.schema().relation_id("B").unwrap(),
        ];
        for (key, (kind, rel, pick, text)) in ops.iter().enumerate() {
            let rel = rels[*rel];
            let slots = db.table(rel).slot_count();
            let row = vec![Value::from(key), Value::from(text.as_str())];
            // Two in four ops insert; an update or delete that picks a
            // tombstoned slot is refused and changes nothing.
            match kind {
                0 | 1 => drop(db.insert_into(rel, row).unwrap()),
                _ if slots == 0 => {}
                2 => drop(db.update(rel, TupleId((pick % slots) as u64), row)),
                _ => drop(db.delete(rel, TupleId((pick % slots) as u64))),
            }
        }
        if wipe {
            for slot in 0..db.table(rels[1]).slot_count() {
                let _ = db.delete(rels[1], TupleId(slot as u64));
            }
            prop_assert!(db.table(rels[1]).is_empty());
        }

        let text = dump_to_string(&db);
        let mut loaded = load_from_string(&text).unwrap();
        prop_assert_eq!(dump_to_string(&loaded), text.as_str());
        for rel in rels {
            let (live, back) = (db.table(rel), loaded.table(rel));
            prop_assert_eq!(back.slot_count(), live.slot_count());
            prop_assert_eq!(back.len(), live.len());
            for (slot, (a, b)) in live.slots().zip(back.slots()).enumerate() {
                prop_assert_eq!(a, b, "slot {} of {:?}", slot, rel);
            }
            // The next insert lands on the same id on both sides.
            let row = vec![Value::from(1_000_000), Value::from("next")];
            let next = db.insert_into(rel, row.clone()).unwrap();
            prop_assert_eq!(loaded.insert_into(rel, row).unwrap(), next);
        }
    }

    /// Findability: every word of every inserted text value is found by the
    /// index, and every hit actually contains the word.
    #[test]
    fn index_findability(
        names in proptest::collection::vec("[a-zA-Z]{1,12}( [a-zA-Z]{1,12}){0,2}", 1..16),
    ) {
        let mut schema = DatabaseSchema::new("p");
        schema
            .add_relation(
                RelationSchema::builder("R")
                    .attr_not_null("id", DataType::Int)
                    .attr("name", DataType::Text)
                    .primary_key("id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for (i, n) in names.iter().enumerate() {
            db.insert("R", vec![Value::from(i), Value::from(n.as_str())]).unwrap();
        }
        let idx = InvertedIndex::build(&db);
        let r = db.schema().relation_id("R").unwrap();
        for (tid, tup) in db.table(r).iter() {
            let text = tup.get(1).as_text().unwrap();
            for word in tokenize(text) {
                let occs = idx.lookup(&db, &word);
                let hit = occs.iter().any(|o| o.rel == r && o.tids.contains(&tid));
                prop_assert!(hit, "word {word:?} of tuple {tid:?} not found");
            }
            // The full value works as a phrase query too.
            let occs = idx.lookup(&db, text);
            prop_assert!(occs.iter().any(|o| o.tids.contains(&tid)));
        }
        // And every posting is truthful.
        for (i, n) in names.iter().enumerate() {
            for word in tokenize(n) {
                for occ in idx.lookup(&db, &word) {
                    for tid in occ.tids.iter() {
                        let t = db.table(occ.rel).get(*tid).unwrap();
                        let stored = t.get(occ.attr).as_text().unwrap();
                        prop_assert!(
                            tokenize(stored).contains(&word),
                            "posting for {word:?} points at {stored:?}"
                        );
                    }
                }
            }
            let _ = i;
        }
    }

    /// FK round trip: dumped foreign keys reload and validate.
    #[test]
    fn storage_io_fk_roundtrip(n in 1usize..12) {
        let mut schema = DatabaseSchema::new("fks");
        schema
            .add_relation(
                RelationSchema::builder("P")
                    .attr_not_null("id", DataType::Int)
                    .primary_key("id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        schema
            .add_relation(
                RelationSchema::builder("C")
                    .attr_not_null("id", DataType::Int)
                    .attr("p", DataType::Int)
                    .primary_key("id")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        schema
            .add_foreign_key(ForeignKey::new("C", "p", "P", "id"))
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for i in 0..n {
            db.insert("P", vec![Value::from(i)]).unwrap();
            db.insert("C", vec![Value::from(i), Value::from(i)]).unwrap();
        }
        let loaded = load_from_string(&dump_to_string(&db)).unwrap();
        prop_assert!(loaded.validate_foreign_keys().is_empty());
        prop_assert_eq!(loaded.schema().foreign_keys().len(), 1);
    }
}
