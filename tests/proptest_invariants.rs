//! Property-based tests over randomized weight sets, constraints and data,
//! checking the core invariants of the précis pipeline.

use precis::core::{
    generate_result_database, generate_result_schema, CardinalityConstraint, DbGenOptions,
    DegreeConstraint, RetrievalStrategy,
};
use precis::datagen::{
    chain_schema, movies_graph, random_weight_graph, MoviesConfig, MoviesGenerator,
};
use precis::graph::SchemaGraph;
use precis::index::InvertedIndex;
use precis::storage::{RelationId, TupleId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn degree_strategy() -> impl Strategy<Value = DegreeConstraint> {
    prop_oneof![
        (0usize..20).prop_map(DegreeConstraint::TopProjections),
        (0.0f64..1.0).prop_map(DegreeConstraint::MinWeight),
        (0usize..5).prop_map(DegreeConstraint::MaxPathLength),
    ]
}

fn cardinality_strategy() -> impl Strategy<Value = CardinalityConstraint> {
    prop_oneof![
        (1usize..40).prop_map(CardinalityConstraint::MaxTuplesPerRelation),
        (1usize..120).prop_map(CardinalityConstraint::MaxTotalTuples),
        Just(CardinalityConstraint::Unbounded),
    ]
}

fn movies_graph_with_seed(seed: u64) -> SchemaGraph {
    random_weight_graph(&movies_graph(), &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accepted projection paths come out weight-sorted and all satisfy the
    /// degree constraint.
    #[test]
    fn schema_gen_respects_degree_constraints(
        seed in 0u64..500,
        origin in 0usize..7,
        degree in degree_strategy(),
    ) {
        let g = movies_graph_with_seed(seed);
        let origins = [RelationId(origin)];
        let rs = generate_result_schema(&g, &origins, &degree);
        let ws: Vec<f64> = rs.paths().iter().map(|p| p.weight()).collect();
        prop_assert!(ws.windows(2).all(|w| w[0] >= w[1] - 1e-12), "{ws:?}");
        match degree {
            DegreeConstraint::TopProjections(r) => prop_assert!(rs.paths().len() <= r),
            DegreeConstraint::MinWeight(w0) => {
                prop_assert!(rs.paths().iter().all(|p| p.weight() >= w0 - 1e-9))
            }
            DegreeConstraint::MaxPathLength(l0) => {
                prop_assert!(rs.paths().iter().all(|p| p.len() <= l0))
            }
            DegreeConstraint::All(_) => unreachable!("not generated"),
        }
        // Origin relations always belong to the schema.
        prop_assert!(rs.contains(RelationId(origin)));
    }

    /// Pruning never changes the outcome, only the work done.
    #[test]
    fn pruning_is_result_invariant(
        seed in 0u64..200,
        origin in 0usize..7,
        degree in degree_strategy(),
    ) {
        use precis::core::generate_result_schema_instrumented as gen;
        let g = movies_graph_with_seed(seed);
        let origins = [RelationId(origin)];
        let (with, s_with) = gen(&g, &origins, &degree, true);
        let (without, s_without) = gen(&g, &origins, &degree, false);
        prop_assert_eq!(with.paths().len(), without.paths().len());
        prop_assert_eq!(with.total_visible_attrs(), without.total_visible_attrs());
        prop_assert!(s_with.pushed <= s_without.pushed);
    }

    /// The generated database obeys its cardinality constraint and only
    /// contains original tuples.
    #[test]
    fn db_gen_respects_cardinality(
        seed in 0u64..40,
        cardinality in cardinality_strategy(),
        naive in any::<bool>(),
    ) {
        let db = MoviesGenerator::new(MoviesConfig {
            movies: 60,
            directors: 10,
            actors: 25,
            theatres: 4,
            plays: 80,
            seed,
            ..MoviesConfig::default()
        }).generate();
        let g = movies_graph_with_seed(seed);
        let index = InvertedIndex::build(&db);
        let occs = index.lookup(&db, "comedy");
        prop_assume!(!occs.is_empty());
        let mut seeds: HashMap<RelationId, Vec<TupleId>> = HashMap::new();
        let mut origins = Vec::new();
        for o in &occs {
            origins.push(o.rel);
            seeds.entry(o.rel).or_default().extend(o.tids.iter());
        }
        let rs = generate_result_schema(&g, &origins, &DegreeConstraint::MinWeight(0.3));
        let strategy = if naive { RetrievalStrategy::NaiveQ } else { RetrievalStrategy::RoundRobin };
        let p = generate_result_database(
            &db, &g, &rs, &seeds, &cardinality, strategy,
            &DbGenOptions { repair_foreign_keys: false, ..Default::default() },
        ).unwrap();

        match cardinality {
            CardinalityConstraint::MaxTuplesPerRelation(c) => {
                for tids in p.collected.values() {
                    prop_assert!(tids.len() <= c);
                }
            }
            CardinalityConstraint::MaxTotalTuples(c) => {
                prop_assert!(p.total_tuples() <= c)
            }
            _ => {}
        }
        // Subset property: every collected tid exists in the original.
        for (rel, tids) in &p.collected {
            for tid in tids {
                prop_assert!(db.table(*rel).get(*tid).is_some());
            }
        }
        // No duplicates per relation.
        for tids in p.collected.values() {
            let mut sorted = tids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), tids.len());
        }
    }

    /// With repair enabled, the materialized database always satisfies its
    /// copied foreign keys, whatever the budget.
    #[test]
    fn repaired_results_always_satisfy_fks(
        seed in 0u64..30,
        per_rel in 1usize..12,
    ) {
        let db = MoviesGenerator::new(MoviesConfig {
            movies: 50,
            directors: 8,
            actors: 20,
            theatres: 3,
            plays: 60,
            seed,
            ..MoviesConfig::default()
        }).generate();
        let g = movies_graph_with_seed(seed);
        let index = InvertedIndex::build(&db);
        let occs = index.lookup(&db, "drama");
        prop_assume!(!occs.is_empty());
        let mut seeds: HashMap<RelationId, Vec<TupleId>> = HashMap::new();
        let mut origins = Vec::new();
        for o in &occs {
            origins.push(o.rel);
            seeds.entry(o.rel).or_default().extend(o.tids.iter());
        }
        let rs = generate_result_schema(&g, &origins, &DegreeConstraint::MinWeight(0.2));
        let p = generate_result_database(
            &db, &g, &rs, &seeds,
            &CardinalityConstraint::MaxTuplesPerRelation(per_rel),
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        ).unwrap();
        prop_assert!(p.database.validate_foreign_keys().is_empty());
    }

    /// Chain schemas of any length produce well-formed graphs whose best
    /// path weights decay monotonically with distance.
    #[test]
    fn chain_path_weights_decay(
        n in 2usize..8,
        w in 0.1f64..1.0,
    ) {
        let schema = chain_schema(n, 2);
        let g = SchemaGraph::from_foreign_keys(schema, w, w, 1.0).unwrap();
        let r0 = g.schema().relation_id("R0").unwrap();
        let rs = generate_result_schema(&g, &[r0], &DegreeConstraint::MinWeight(0.0));
        // For each relation, its best visible path weight is w^distance.
        for i in 1..n {
            let ri = g.schema().relation_id(&format!("R{i}")).unwrap();
            let best = rs
                .paths()
                .iter()
                .filter(|p| p.end_relation() == ri && p.is_projection())
                .map(|p| p.weight())
                .fold(f64::NEG_INFINITY, f64::max);
            let expected = w.powi(i as i32);
            prop_assert!((best - expected).abs() < 1e-9, "i={i} best={best} expected={expected}");
        }
    }
}
