//! Human-readable renderings of result schemas and précis databases —
//! the textual analogue of the paper's Figure 4 (result schema graph) and
//! Figure 6 (result database instance).

use crate::cache::AnswerCacheStats;
use crate::db_gen::PrecisDatabase;
use crate::result_schema::ResultSchema;
use precis_graph::SchemaGraph;
use precis_storage::Database;
use std::fmt::Write as _;

/// Render a result schema as an indented tree per origin relation, showing
/// visible attributes with their path weights and the join edges used —
/// Figure 4 in text form.
pub fn explain_schema(graph: &SchemaGraph, schema: &ResultSchema) -> String {
    let mut out = String::new();
    let s = graph.schema();
    let _ = writeln!(out, "result schema ({} relations)", schema.relation_count());
    for (rel, info) in schema.relations() {
        let flags = if schema.origins().contains(&rel) {
            " [origin]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {}{} (in-degree {})",
            s.relation(rel).name(),
            flags,
            info.origins.len()
        );
        for attr in &info.visible_attrs {
            let w = graph
                .find_projection(rel, *attr)
                .map(|pe| graph.projection_edge(pe).weight);
            match w {
                Some(w) => {
                    let _ = writeln!(out, "    . {} (w={w:.2})", s.relation(rel).attr_name(*attr));
                }
                None => {
                    let _ = writeln!(out, "    . {}", s.relation(rel).attr_name(*attr));
                }
            }
        }
    }
    if !schema.used_joins().is_empty() {
        let _ = writeln!(out, "  joins:");
        for u in schema.used_joins() {
            let e = graph.join_edge(u.edge);
            let origins: Vec<&str> = u.origins.iter().map(|o| s.relation(*o).name()).collect();
            let _ = writeln!(
                out,
                "    {} -> {} (w={:.2}, via {})",
                s.relation(e.from).name(),
                s.relation(e.to).name(),
                e.weight,
                origins.join(", ")
            );
        }
    }
    out
}

/// Render the contents of a précis database as per-relation tables showing
/// visible attributes only, hidden (join/key) attributes elided — Figure 6
/// in text form. `original` is the database the précis was generated from.
pub fn explain_precis(original: &Database, precis: &PrecisDatabase) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "précis database ({} tuples)", precis.total_tuples());
    for (orig_rel, tids) in &precis.collected {
        let schema = original.schema().relation(*orig_rel);
        let visible = precis.visible.get(orig_rel).cloned().unwrap_or_default();
        let header: Vec<&str> = visible.iter().map(|&a| schema.attr_name(a)).collect();
        let hidden = precis
            .attr_map
            .get(orig_rel)
            .map(|stored| stored.len().saturating_sub(visible.len()))
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "  {} ({} tuples, {} hidden attrs) [{}]",
            schema.name(),
            tids.len(),
            hidden,
            header.join(", ")
        );
        for tid in tids {
            if let Some(t) = original.table(*orig_rel).get(*tid) {
                let row: Vec<String> = visible.iter().map(|&a| t.get(a).to_string()).collect();
                let _ = writeln!(out, "    {}", row.join(" | "));
            }
        }
    }
    out
}

/// Render the engine's schema-memo counters as a one-line summary, e.g.
/// `cache: schema 3/4 hits (75.0%)`.
pub fn explain_cache(stats: &AnswerCacheStats) -> String {
    format!(
        "cache: schema {}/{} hits ({:.1}%)\n",
        stats.schema_hits,
        stats.schema_hits + stats.schema_misses,
        stats.schema_hit_rate() * 100.0,
    )
}

/// Render a result schema as Graphviz DOT — the paper's Figure 4 as a
/// renderable artifact. Origins are filled (shown "in color" in the paper);
/// in-degrees annotate the relation labels.
pub fn schema_dot(graph: &SchemaGraph, schema: &ResultSchema) -> String {
    let mut out = String::new();
    let s = graph.schema();
    let esc = |x: &str| x.replace('\\', "\\\\").replace('"', "\\\"");
    let _ = writeln!(out, "digraph result_schema {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [fontsize=10];");
    for (rel, info) in schema.relations() {
        let style = if schema.origins().contains(&rel) {
            ", style=filled, fillcolor=lightblue"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  r{} [label=\"{} (in {})\", shape=box{style}];",
            rel.0,
            esc(s.relation(rel).name()),
            info.origins.len()
        );
        for attr in &info.visible_attrs {
            let id = format!("a{}_{}", rel.0, attr);
            let _ = writeln!(
                out,
                "  {id} [label=\"{}\", shape=ellipse];",
                esc(s.relation(rel).attr_name(*attr))
            );
            let _ = writeln!(out, "  r{} -> {id} [dir=none, style=dashed];", rel.0);
        }
    }
    for u in schema.used_joins() {
        let e = graph.join_edge(u.edge);
        let _ = writeln!(
            out,
            "  r{} -> r{} [label=\"{:.2}\"];",
            e.from.0, e.to.0, e.weight
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{CardinalityConstraint, DegreeConstraint};
    use crate::db_gen::{generate_result_database, DbGenOptions, RetrievalStrategy};
    use crate::schema_gen::generate_result_schema;
    use precis_storage::{DataType, DatabaseSchema, ForeignKey, RelationSchema, TupleId, Value};
    use std::collections::HashMap;

    fn setup() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("A")
                .attr_not_null("id", DataType::Int)
                .attr("x", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("B")
                .attr_not_null("id", DataType::Int)
                .attr("a_id", DataType::Int)
                .attr("y", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(ForeignKey::new("B", "a_id", "A", "id"))
            .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert("A", vec![Value::from(1), Value::from("hello")])
            .unwrap();
        db.insert(
            "B",
            vec![Value::from(10), Value::from(1), Value::from("world")],
        )
        .unwrap();
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.9, 0.8, 0.7).unwrap();
        (db, g)
    }

    #[test]
    fn schema_explanation_names_everything() {
        let (db, g) = setup();
        let a = db.schema().relation_id("A").unwrap();
        let rs = generate_result_schema(&g, &[a], &DegreeConstraint::MinWeight(0.0));
        let text = explain_schema(&g, &rs);
        assert!(text.contains("A [origin]"));
        assert!(text.contains("B (in-degree 1)"));
        assert!(text.contains(". x (w=0.70)"));
        assert!(text.contains("A -> B (w=0.80, via A)"));
    }

    #[test]
    fn precis_explanation_shows_visible_rows_only() {
        let (db, g) = setup();
        let a = db.schema().relation_id("A").unwrap();
        let rs = generate_result_schema(&g, &[a], &DegreeConstraint::MinWeight(0.0));
        let seeds = HashMap::from([(a, vec![TupleId(0)])]);
        let p = generate_result_database(
            &db,
            &g,
            &rs,
            &seeds,
            &CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        let text = explain_precis(&db, &p);
        assert!(text.contains("précis database (2 tuples)"));
        assert!(text.contains("hello"));
        assert!(text.contains("world"));
    }

    #[test]
    fn dot_export_marks_origins_and_joins() {
        let (db, g) = setup();
        let a = db.schema().relation_id("A").unwrap();
        let rs = generate_result_schema(&g, &[a], &DegreeConstraint::MinWeight(0.0));
        let dot = schema_dot(&g, &rs);
        assert!(dot.starts_with("digraph result_schema {"));
        assert!(dot.contains("fillcolor=lightblue"), "origin highlighted");
        assert!(dot.contains("r0 -> r1 [label=\"0.80\"]"));
        assert!(dot.contains("shape=ellipse"));
    }

    #[test]
    fn cache_stats_render_counts_and_rates() {
        let stats = AnswerCacheStats {
            schema_hits: 3,
            schema_misses: 1,
            ..AnswerCacheStats::default()
        };
        let line = explain_cache(&stats);
        assert_eq!(line, "cache: schema 3/4 hits (75.0%)\n");
        // An untouched cache renders zero rates rather than NaN.
        let line = explain_cache(&AnswerCacheStats::default());
        assert!(line.contains("schema 0/0 hits (0.0%)"), "{line}");
    }

    #[test]
    fn empty_schema_explains_gracefully() {
        let (_, g) = setup();
        let rs = generate_result_schema(&g, &[], &DegreeConstraint::MinWeight(0.9));
        let text = explain_schema(&g, &rs);
        assert!(text.contains("0 relations"));
        assert!(!text.contains("joins:"));
    }
}
