//! The typed chunk slab against a model: random schemas over all four
//! types, nullable and NOT NULL, filled past chunk boundaries — so through
//! every doubling of a chunk's room — by interleaved inserts, in-place
//! updates and deletes, with the values a cell's width is most likely to get
//! wrong. The model is the plainest store there is, one `Option<Vec<Value>>`
//! a slot, and mirrors every op the database accepts; it also says which ops
//! the database must refuse. Every slot must read back as the model holds
//! it through `get` and `datum`, and so must the database its dump loads
//! back to.

use precis_storage::io::{dump_to_string, load_from_string};
use precis_storage::{
    DataType, Database, DatabaseSchema, RelationId, RelationSchema, TupleId, Value, CHUNK_ROWS,
};
use proptest::prelude::*;
use std::ops::Range;

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
];

/// A value of `ty` for `pick`: mostly the edge cases, sometimes anything,
/// and a null one time in eight (which a NOT NULL column refuses).
fn value(ty: DataType, pick: u64) -> Value {
    if pick.is_multiple_of(8) {
        return Value::Null;
    }
    let any = pick >> 8;
    match ty {
        DataType::Int => {
            let edges = [i64::MIN, i64::MAX, 0, -1, 1, u32::MAX as i64 + 1];
            Value::Int(
                edges
                    .get((pick >> 3) as usize % 8)
                    .copied()
                    .unwrap_or(any as i64),
            )
        }
        DataType::Float => {
            let edges = [
                -0.0,
                0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                1.5,
                f64::MIN,
            ];
            let f = edges.get((pick >> 3) as usize % 9).copied();
            Value::Float(f.unwrap_or(any as f64 / 7.0))
        }
        DataType::Text => {
            let edges = ["", "a", "typed slab", "tab\there", "\u{1F5C4} unicode"];
            match edges.get((pick >> 3) as usize % 7) {
                Some(s) => Value::from(*s),
                None => Value::Text(format!("text {}", any % 5000)),
            }
        }
        DataType::Bool => Value::Bool(pick >> 3 & 1 == 1),
    }
}

fn database(columns: &[(usize, bool)]) -> (Database, RelationId) {
    let mut relation = RelationSchema::builder("R");
    for (i, &(ty, nullable)) in columns.iter().enumerate() {
        let name = format!("c{i}");
        relation = if nullable {
            relation.attr(name, TYPES[ty])
        } else {
            relation.attr_not_null(name, TYPES[ty])
        };
    }
    let mut schema = DatabaseSchema::new("typed");
    let rel = schema.add_relation(relation.build().unwrap()).unwrap();
    (Database::new(schema).unwrap(), rel)
}

/// What one relation should hold: a slot per tuple id, `None` once
/// deleted, and which columns refuse a null.
struct Model {
    not_null: Vec<bool>,
    slots: Vec<Option<Vec<Value>>>,
}

impl Model {
    fn fits(&self, tuple: &[Value]) -> bool {
        let refused = |(v, not_null): (&Value, &bool)| *not_null && v.is_null();
        !tuple.iter().zip(&self.not_null).any(refused)
    }

    fn is_live(&self, tid: TupleId) -> bool {
        matches!(self.slots.get(tid.as_usize()), Some(Some(_)))
    }

    /// Apply one op as the database should, returning the id it reports
    /// or `None` where it must refuse.
    fn insert(&mut self, tuple: Vec<Value>) -> Option<u64> {
        self.fits(&tuple).then(|| {
            self.slots.push(Some(tuple));
            self.slots.len() as u64 - 1
        })
    }

    fn update(&mut self, tid: TupleId, tuple: Vec<Value>) -> Option<u64> {
        (self.is_live(tid) && self.fits(&tuple)).then(|| {
            self.slots[tid.as_usize()] = Some(tuple);
            tid.0
        })
    }

    fn delete(&mut self, tid: TupleId) -> Option<u64> {
        self.is_live(tid).then(|| {
            self.slots[tid.as_usize()] = None;
            tid.0
        })
    }

    /// Every slot of `rel` in `slots` reads back from `db` as the model
    /// holds it, attribute by attribute, in stored and in borrowed form.
    fn check(
        &self,
        db: &Database,
        rel: RelationId,
        slots: Range<usize>,
    ) -> Result<(), TestCaseError> {
        let table = db.table(rel);
        prop_assert_eq!(table.slot_count(), self.slots.len());
        prop_assert_eq!(table.len(), self.slots.iter().flatten().count());
        for slot in slots {
            let tid = TupleId(slot as u64);
            match (table.get(tid), &self.slots[slot]) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.arity(), y.len());
                    for (attr, value) in y.iter().enumerate() {
                        prop_assert_eq!(
                            x.datum(attr),
                            value.clone(),
                            "slot {} attr {}",
                            slot,
                            attr
                        );
                        prop_assert_eq!(x.get(attr), value.clone(), "slot {} attr {}", slot, attr);
                        prop_assert_eq!(table.datum(tid, attr), Some(x.datum(attr)));
                    }
                }
                (x, y) => prop_assert!(false, "slot {slot}: {x:?} where the model has {y:?}"),
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_typed_slab_reads_back_what_the_model_holds(
        columns in proptest::collection::vec((0usize..4, any::<bool>()), 1..7),
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 4 * CHUNK_ROWS..5 * CHUNK_ROWS),
    ) {
        let (mut db, rel) = database(&columns);
        let mut model = Model {
            not_null: columns.iter().map(|&(_, nullable)| !nullable).collect(),
            slots: Vec::new(),
        };
        // A NOT NULL column is handed a null one time in 64, to be refused.
        let tuple = |seed: u64| -> Vec<Value> {
            let cell = |(i, &(ty, nullable)): (usize, &(usize, bool))| {
                let pick = seed.rotate_left(9 * i as u32);
                match value(TYPES[ty], pick) {
                    Value::Null if !nullable && !pick.is_multiple_of(64) => value(TYPES[ty], pick | 1),
                    v => v,
                }
            };
            columns.iter().enumerate().map(cell).collect()
        };
        let mut checked = 0;
        for &(kind, pick, seed) in &ops {
            let slots = db.table(rel).slot_count() as u64;
            let tid = TupleId(pick % slots.max(1));
            // Five in eight insert; an update or a delete of a tombstoned
            // slot (or of any slot of an empty table) must be refused.
            let (got, want) = match kind {
                0..=4 => (
                    db.insert_into(rel, tuple(seed)).map(|t| t.0),
                    model.insert(tuple(seed)),
                ),
                5 | 6 => (
                    db.update(rel, tid, tuple(seed)).map(|()| tid.0),
                    model.update(tid, tuple(seed)),
                ),
                _ => (db.delete(rel, tid).map(|()| tid.0), model.delete(tid)),
            };
            prop_assert_eq!(got.as_ref().ok(), want.as_ref(), "{:?}", got);
            // The tail chunk whenever its room is about to double (so each
            // check after the first sees a widened chunk), and when it fills.
            let slots = db.table(rel).slot_count();
            let filled = slots % CHUNK_ROWS;
            if slots > checked && (filled == 0 || filled.is_power_of_two()) {
                model.check(&db, rel, (slots - 1) / CHUNK_ROWS * CHUNK_ROWS..slots)?;
                checked = slots;
            }
        }
        let slots = db.table(rel).slot_count();
        prop_assert!(checked >= 2 * CHUNK_ROWS && slots > checked);
        model.check(&db, rel, 0..slots)?;

        let dump = dump_to_string(&db);
        let loaded = load_from_string(&dump).unwrap();
        prop_assert_eq!(dump_to_string(&loaded), dump);
        model.check(&loaded, rel, 0..slots)?;
    }
}
