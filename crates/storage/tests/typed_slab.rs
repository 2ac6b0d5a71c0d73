//! The columnar layout's typed chunk slab against the row store it is
//! checked by: random schemas over all four types, nullable and NOT NULL,
//! filled past chunk boundaries — so through every doubling of a chunk's
//! room — by interleaved inserts, in-place updates and deletes, with the
//! values a cell's width is most likely to get wrong. Every slot must read
//! back alike through `get` and `datum`, and the two databases must dump to
//! the same bytes and load back to what they hold.

use precis_storage::io::{dump_to_string, load_from_string};
use precis_storage::{
    DataType, Database, DatabaseSchema, RelationId, RelationSchema, StorageLayout, TupleId, Value,
    CHUNK_ROWS,
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

fn database(columns: &[(usize, bool)], layout: StorageLayout) -> (Database, RelationId) {
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
    (Database::with_layout(schema, layout).unwrap(), rel)
}

/// Every slot of `rel` in `slots` reads alike in both databases, attribute
/// by attribute, in stored and in borrowed form.
fn same_slots(
    col: &Database,
    row: &Database,
    rel: RelationId,
    slots: Range<usize>,
) -> Result<(), TestCaseError> {
    let (a, b) = (col.table(rel), row.table(rel));
    prop_assert_eq!(a.slot_count(), b.slot_count());
    prop_assert_eq!(a.len(), b.len());
    for slot in slots {
        let tid = TupleId(slot as u64);
        match (a.get(tid), b.get(tid)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.arity(), y.arity());
                for attr in 0..x.arity() {
                    prop_assert_eq!(x.datum(attr), y.datum(attr), "slot {} attr {}", slot, attr);
                    prop_assert_eq!(x.get(attr), y.get(attr), "slot {} attr {}", slot, attr);
                    prop_assert_eq!(a.datum(tid, attr), Some(x.datum(attr)));
                }
            }
            (x, y) => prop_assert!(false, "slot {slot}: {x:?} against {y:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_typed_slab_reads_back_what_the_row_store_holds(
        columns in proptest::collection::vec((0usize..4, any::<bool>()), 1..7),
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 4 * CHUNK_ROWS..5 * CHUNK_ROWS),
    ) {
        let (mut col, rel) = database(&columns, StorageLayout::Columnar);
        let (mut row, _) = database(&columns, StorageLayout::Rows);
        // A NOT NULL column is handed a null one time in 64: refused alike.
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
            let slots = col.table(rel).slot_count() as u64;
            let tid = TupleId(pick % slots.max(1));
            // Five in eight insert; an update or a delete of a tombstoned
            // slot (or of any slot of an empty table) is refused alike.
            let (a, b) = match kind {
                0..=4 => (
                    col.insert_into(rel, tuple(seed)).map(|t| t.0),
                    row.insert_into(rel, tuple(seed)).map(|t| t.0),
                ),
                5 | 6 => (
                    col.update(rel, tid, tuple(seed)).map(|()| tid.0),
                    row.update(rel, tid, tuple(seed)).map(|()| tid.0),
                ),
                _ => (col.delete(rel, tid).map(|()| tid.0), row.delete(rel, tid).map(|()| tid.0)),
            };
            prop_assert_eq!(a.map_err(|e| e.to_string()), b.map_err(|e| e.to_string()));
            // The tail chunk whenever its room is about to double (so each
            // check after the first sees a widened chunk), and when it fills.
            let slots = col.table(rel).slot_count();
            let filled = slots % CHUNK_ROWS;
            if slots > checked && (filled == 0 || filled.is_power_of_two()) {
                same_slots(&col, &row, rel, (slots - 1) / CHUNK_ROWS * CHUNK_ROWS..slots)?;
                checked = slots;
            }
        }
        let slots = col.table(rel).slot_count();
        prop_assert!(checked >= 2 * CHUNK_ROWS && slots > checked);
        same_slots(&col, &row, rel, 0..slots)?;

        let dump = dump_to_string(&col);
        prop_assert_eq!(&dump, &dump_to_string(&row), "the layouts dump alike");
        let loaded = load_from_string(&dump).unwrap();
        prop_assert_eq!(dump_to_string(&loaded), dump);
        same_slots(&loaded, &row, rel, 0..slots)?;
    }
}
