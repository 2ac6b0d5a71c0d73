//! Synthetic database schemas for stress-testing the Result Schema
//! Generator at large degrees (Figure 7 sweeps `d` well beyond the 14
//! projections of the movies schema) and for the controlled (c_R, n_R)
//! sweeps of Figures 8–9.

use precis_graph::SchemaGraph;
use precis_storage::{DataType, Database, DatabaseSchema, ForeignKey, RelationSchema, Value};

fn relation(name: &str, payload_attrs: usize, fk_to: Option<&str>) -> RelationSchema {
    let mut b = RelationSchema::builder(name)
        .attr_not_null("id", DataType::Int)
        .primary_key("id");
    if let Some(parent) = fk_to {
        b = b.attr(format!("{}_id", parent.to_lowercase()), DataType::Int);
    }
    for i in 0..payload_attrs {
        b = b.attr(format!("a{i}"), DataType::Text);
    }
    b.build().expect("valid synthetic relation")
}

fn link(s: &mut DatabaseSchema, child: &str, parent: &str) {
    s.add_foreign_key(ForeignKey::new(
        child,
        format!("{}_id", parent.to_lowercase()),
        parent,
        "id",
    ))
    .expect("valid synthetic fk");
}

/// A chain `R0 ← R1 ← … ← R(n−1)` (each relation references the previous),
/// with `payload_attrs` text attributes per relation.
pub fn chain_schema(n: usize, payload_attrs: usize) -> DatabaseSchema {
    assert!(n >= 1);
    let mut s = DatabaseSchema::new(format!("chain{n}"));
    s.add_relation(relation("R0", payload_attrs, None))
        .expect("unique name");
    for i in 1..n {
        let parent = format!("R{}", i - 1);
        let name = format!("R{i}");
        s.add_relation(relation(&name, payload_attrs, Some(&parent)))
            .expect("unique name");
        link(&mut s, &name, &parent);
    }
    s
}

/// A star: `n − 1` spokes each referencing the hub `R0`.
pub fn star_schema(n: usize, payload_attrs: usize) -> DatabaseSchema {
    assert!(n >= 1);
    let mut s = DatabaseSchema::new(format!("star{n}"));
    s.add_relation(relation("R0", payload_attrs, None))
        .expect("unique name");
    for i in 1..n {
        let name = format!("R{i}");
        s.add_relation(relation(&name, payload_attrs, Some("R0")))
            .expect("unique name");
        link(&mut s, &name, "R0");
    }
    s
}

/// A complete-ish tree with the given fanout: relation `Ri` references its
/// parent `R((i−1)/fanout)`.
pub fn tree_schema(n: usize, fanout: usize, payload_attrs: usize) -> DatabaseSchema {
    assert!(n >= 1 && fanout >= 1);
    let mut s = DatabaseSchema::new(format!("tree{n}x{fanout}"));
    s.add_relation(relation("R0", payload_attrs, None))
        .expect("unique name");
    for i in 1..n {
        let parent = format!("R{}", (i - 1) / fanout);
        let name = format!("R{i}");
        s.add_relation(relation(&name, payload_attrs, Some(&parent)))
            .expect("unique name");
        link(&mut s, &name, &parent);
    }
    s
}

/// A populated chain database for controlled Result-Database-Generator
/// experiments: `n` relations, `rows` tuples each, tuple `row` of a
/// non-root relation referencing parent id `row` (a 1-to-1 join), all join
/// weights 1.
///
/// Each `R0` payload attribute `a0` carries the findable token `seedK`.
pub fn chain_db(n: usize, rows: usize, seed: u64) -> (Database, SchemaGraph) {
    chain_db_fanout(n, rows, 1, seed)
}

/// As [`chain_db`], but each join is 1-to-`fanout`: tuple `row` of a
/// non-root relation references parent `row % (rows / fanout)`, so every
/// referenced parent has exactly `fanout` children. Seed tuples for
/// retrieval experiments should be drawn from that leading id range (tids
/// `0..rows/fanout` of `R0`). The `seed` parameter is kept for signature
/// stability; population is fully deterministic.
pub fn chain_db_fanout(
    n: usize,
    rows: usize,
    fanout: usize,
    _seed: u64,
) -> (Database, SchemaGraph) {
    assert!(fanout >= 1, "fanout must be positive");
    let schema = chain_schema(n, 1);
    let graph =
        SchemaGraph::from_foreign_keys(schema.clone(), 1.0, 1.0, 1.0).expect("valid chain graph");
    let mut db = Database::new(schema).expect("valid chain schema");
    let parent_range = (rows / fanout).max(1);
    for row in 0..rows {
        db.insert(
            "R0",
            vec![Value::from(row), Value::from(format!("seed{row} payload"))],
        )
        .expect("unique id");
    }
    for i in 1..n {
        let name = format!("R{i}");
        for row in 0..rows {
            let parent = row % parent_range;
            db.insert(
                &name,
                vec![
                    Value::from(row),
                    Value::from(parent),
                    Value::from(format!("payload {row}")),
                ],
            )
            .expect("unique id");
        }
    }
    (db, graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_consecutive_relations() {
        let s = chain_schema(4, 2);
        assert_eq!(s.relation_count(), 4);
        assert_eq!(s.foreign_keys().len(), 3);
        let fk = &s.foreign_keys()[0];
        assert_eq!(fk.relation, "R1");
        assert_eq!(fk.ref_relation, "R0");
        // id + fk + 2 payload.
        let r1 = s.relation(s.relation_id("R1").unwrap());
        assert_eq!(r1.arity(), 4);
        let r0 = s.relation(s.relation_id("R0").unwrap());
        assert_eq!(r0.arity(), 3);
    }

    #[test]
    fn star_links_spokes_to_hub() {
        let s = star_schema(5, 1);
        assert_eq!(s.foreign_keys().len(), 4);
        assert!(s.foreign_keys().iter().all(|fk| fk.ref_relation == "R0"));
    }

    #[test]
    fn tree_respects_fanout() {
        let s = tree_schema(7, 2, 1);
        assert_eq!(s.relation_count(), 7);
        let parents: Vec<&str> = s
            .foreign_keys()
            .iter()
            .map(|fk| fk.ref_relation.as_str())
            .collect();
        assert_eq!(parents, vec!["R0", "R0", "R1", "R1", "R2", "R2"]);
    }

    #[test]
    fn single_relation_schemas_work() {
        assert_eq!(chain_schema(1, 3).relation_count(), 1);
        assert_eq!(star_schema(1, 3).foreign_keys().len(), 0);
        assert_eq!(tree_schema(1, 2, 3).relation_count(), 1);
    }

    #[test]
    fn chain_db_is_populated_and_consistent() {
        let (db, graph) = chain_db(4, 25, 9);
        assert_eq!(db.total_tuples(), 100);
        assert!(db.validate_foreign_keys().is_empty());
        assert_eq!(graph.join_edges().len(), 6, "both directions per link");
        // Deterministic.
        let (db2, _) = chain_db(4, 25, 9);
        assert_eq!(db2.total_tuples(), db.total_tuples());
        let r1 = db.schema().relation_id("R1").unwrap();
        for (tid, t) in db.table(r1).iter() {
            assert_eq!(db2.table(r1).get(tid).unwrap(), t);
        }
    }
}
