//! Ranking homonym answers.
//!
//! A précis query returns "multiple answers, one for each homonym" (§5.1) —
//! Woody Allen the director and Woody Allen the actor each get a narrative.
//! The paper leaves their presentation order open; related keyword-search
//! systems rank answers (by join count in DBXplorer, by IR relevance in
//! [9]). We rank each seed by the *weighted mass of information connected
//! to it* in the answer: the sum over used join edges reachable from the
//! seed of `edge weight × joined collected tuples`, accumulated breadth
//! first with multiplicative path decay — seeds whose précis says more come
//! first.

use crate::db_gen::PrecisDatabase;
use crate::result_schema::ResultSchema;
use crate::Result;
use precis_graph::SchemaGraph;
use precis_storage::{Database, RelationId, TupleId};
use std::collections::{BTreeSet, VecDeque};

/// One ranked seed: where the token was found and how much connected
/// information its answer carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSeed {
    pub rel: RelationId,
    pub tid: TupleId,
    /// Weighted count of connected collected tuples (≥ 0; 0 means the seed
    /// is isolated in the result database).
    pub score: f64,
}

/// Score every surviving seed of an answer and return them best first.
/// Ties break deterministically by (relation, tid).
pub fn rank_seeds(
    db: &Database,
    graph: &SchemaGraph,
    schema: &ResultSchema,
    precis: &PrecisDatabase,
) -> Result<Vec<RankedSeed>> {
    let mut out: Vec<RankedSeed> = Vec::new();
    for (&rel, tids) in &precis.seeds {
        for &tid in tids {
            out.push(RankedSeed {
                rel,
                tid,
                score: seed_score(db, graph, schema, precis, rel, tid)?,
            });
        }
    }
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.rel.cmp(&b.rel))
            .then(a.tid.cmp(&b.tid))
    });
    Ok(out)
}

/// The connected-information score of one seed: breadth-first over the used
/// join edges tagged with the seed's origin, each reached tuple contributing
/// the product of edge weights along its discovery path. Which collected
/// tuples a tuple reaches is [`PrecisDatabase::joined`]'s answer.
pub fn seed_score(
    db: &Database,
    graph: &SchemaGraph,
    schema: &ResultSchema,
    precis: &PrecisDatabase,
    origin: RelationId,
    seed: TupleId,
) -> Result<f64> {
    let mut score = 0.0;
    let mut visited: BTreeSet<RelationId> = BTreeSet::new();
    visited.insert(origin);
    let mut queue: VecDeque<(RelationId, Vec<TupleId>, f64)> = VecDeque::new();
    queue.push_back((origin, vec![seed], 1.0));

    while let Some((rel, tuples, decay)) = queue.pop_front() {
        for u in schema.used_joins() {
            if !u.origins.contains(&origin) {
                continue;
            }
            let e = graph.join_edge(u.edge);
            if e.from != rel || visited.contains(&e.to) {
                continue;
            }
            let mut joined: Vec<TupleId> = Vec::new();
            for &src in &tuples {
                if let Some(t) = db.table(rel).get(src) {
                    joined.extend(precis.joined(e.to, e.to_attr, t.datum(e.from_attr))?);
                }
            }
            // A tuple two sources reach counts once; the score reads only
            // how many there are, so their order is free.
            joined.sort_unstable();
            joined.dedup();
            if joined.is_empty() {
                continue;
            }
            let edge_decay = decay * e.weight;
            score += edge_decay * joined.len() as f64;
            visited.insert(e.to);
            queue.push_back((e.to, joined, edge_decay));
        }
    }
    Ok(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{CardinalityConstraint, DegreeConstraint};
    use crate::db_gen::{generate_result_database, DbGenOptions, RetrievalStrategy};
    use crate::schema_gen::generate_result_schema;
    use precis_storage::{DataType, DatabaseSchema, ForeignKey, RelationSchema, Value};
    use std::collections::HashMap;

    /// Two directors: one with 3 movies, one with 1.
    fn setup() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("DIRECTOR")
                .attr_not_null("did", DataType::Int)
                .attr("dname", DataType::Text)
                .primary_key("did")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("MOVIE")
                .attr_not_null("mid", DataType::Int)
                .attr("title", DataType::Text)
                .attr("did", DataType::Int)
                .primary_key("mid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(ForeignKey::new("MOVIE", "did", "DIRECTOR", "did"))
            .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert(
            "DIRECTOR",
            vec![Value::from(1), Value::from("Prolific Smith")],
        )
        .unwrap();
        db.insert("DIRECTOR", vec![Value::from(2), Value::from("Quiet Smith")])
            .unwrap();
        for (mid, did) in [(1, 1), (2, 1), (3, 1), (4, 2)] {
            db.insert(
                "MOVIE",
                vec![
                    Value::from(mid),
                    Value::from(format!("M{mid}")),
                    Value::from(did),
                ],
            )
            .unwrap();
        }
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.9, 0.8, 0.9).unwrap();
        (db, g)
    }

    #[test]
    fn better_connected_homonym_ranks_first() {
        let (db, g) = setup();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::MinWeight(0.5));
        // Both Smiths match the token "smith".
        let seeds = HashMap::from([(director, vec![TupleId(0), TupleId(1)])]);
        let precis = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        let ranked = rank_seeds(&db, &g, &schema, &precis).unwrap();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].tid, TupleId(0), "3-movie director first");
        assert_eq!(ranked[1].tid, TupleId(1));
        assert!(ranked[0].score > ranked[1].score);
        // Scores: director→movie edge weight 0.8 × movie count.
        assert!((ranked[0].score - 0.8 * 3.0).abs() < 1e-9);
        assert!((ranked[1].score - 0.8).abs() < 1e-9);
    }

    #[test]
    fn isolated_seed_scores_zero() {
        let (db, g) = setup();
        let director = db.schema().relation_id("DIRECTOR").unwrap();
        // Degree so tight that no joins are used.
        let schema = generate_result_schema(&g, &[director], &DegreeConstraint::TopProjections(1));
        let seeds = HashMap::from([(director, vec![TupleId(0)])]);
        let precis = generate_result_database(
            &db,
            &g,
            &schema,
            &seeds,
            &CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        let ranked = rank_seeds(&db, &g, &schema, &precis).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].score, 0.0);
    }
}
