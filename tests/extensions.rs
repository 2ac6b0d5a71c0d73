//! Extensions beyond the paper's core algorithms: data-value weights (§7
//! ongoing work), Formula-3 time-budgeted answering, synonym expansion
//! (§5.1), dump/load, and the explain renderers.

use precis::core::{
    explain, AnswerSpec, CardinalityConstraint, CostModel, DbGenOptions, DegreeConstraint,
    PrecisEngine, PrecisQuery, RetrievalStrategy, TupleWeights,
};
use precis::datagen::{movies_graph, woody_allen_instance};
use precis::index::{InvertedIndex, SynonymMap};
use precis::storage::io::{dump_to_string, load_from_string};
use std::sync::Arc;

fn engine() -> PrecisEngine {
    PrecisEngine::new(woody_allen_instance(), movies_graph()).unwrap()
}

#[test]
fn data_value_weights_bias_retrieval_toward_recent_movies() {
    let e = engine();
    let movie = e.database().schema().relation_id("MOVIE").unwrap();
    let year = e
        .database()
        .schema()
        .relation(movie)
        .attr_position("year")
        .unwrap();
    // Importance = recency.
    let mut w = TupleWeights::default();
    w.load_from_attribute(e.database(), movie, year).unwrap();

    let spec = AnswerSpec::new(
        DegreeConstraint::MinWeight(0.9),
        CardinalityConstraint::MaxTuplesPerRelation(2),
    )
    .with_strategy(RetrievalStrategy::TopWeight)
    .with_options(DbGenOptions {
        repair_foreign_keys: false,
        tuple_weights: Some(Arc::new(w)),
        ..Default::default()
    });
    let a = e
        .answer(&PrecisQuery::parse(r#""Woody Allen""#), &spec)
        .unwrap();
    let titles: Vec<String> = a.precis.collected[&movie]
        .iter()
        .map(|tid| {
            e.database()
                .table(movie)
                .get(*tid)
                .unwrap()
                .get(1)
                .to_string()
        })
        .collect();
    // The two newest reachable movies win the two slots: Match Point (2005)
    // and Melinda and Melinda (2004).
    assert_eq!(titles, vec!["Match Point", "Melinda and Melinda"]);
}

#[test]
fn answer_within_derives_cardinality_from_the_time_budget() {
    let e = engine();
    // A fake (but well-formed) cost model: 1 µs per probe, 1 µs per read.
    let model = CostModel::new(1e-6, 1e-6);
    let tight = e
        .answer_within(
            &PrecisQuery::parse(r#""Woody Allen""#),
            DegreeConstraint::MinWeight(0.9),
            &model,
            20e-6, // room for very few tuples
        )
        .unwrap();
    let loose = e
        .answer_within(
            &PrecisQuery::parse(r#""Woody Allen""#),
            DegreeConstraint::MinWeight(0.9),
            &model,
            1.0, // effectively unbounded
        )
        .unwrap();
    assert!(tight.precis.total_tuples() < loose.precis.total_tuples());
    assert!(tight.precis.total_tuples() > 0);
}

#[test]
fn synonyms_unify_homonym_spellings_end_to_end() {
    let mut db = woody_allen_instance();
    db.insert(
        "DIRECTOR",
        vec![
            precis::storage::Value::from(3),
            "W. Allen".into(),
            "Brooklyn".into(),
            "December 1, 1935".into(),
        ],
    )
    .unwrap();
    let index = InvertedIndex::build(&db);
    let mut syn = SynonymMap::new();
    syn.add_group(["Woody Allen", "W. Allen"]);

    let director = db.schema().relation_id("DIRECTOR").unwrap();
    let hits = index.lookup_with_synonyms(&db, "woody allen", &syn);
    let dir_hits = hits.iter().find(|o| o.rel == director).unwrap();
    assert_eq!(dir_hits.tids.len(), 2, "both spellings found");
}

#[test]
fn precis_results_survive_a_dump_load_round_trip() {
    let e = engine();
    let a = e
        .answer(
            &PrecisQuery::parse(r#""Woody Allen""#),
            &AnswerSpec::new(
                DegreeConstraint::MinWeight(0.9),
                CardinalityConstraint::MaxTuplesPerRelation(10),
            ),
        )
        .unwrap();
    let text = dump_to_string(&a.precis.database);
    let loaded = load_from_string(&text).unwrap();
    assert_eq!(loaded.total_tuples(), a.precis.total_tuples());
    assert_eq!(
        loaded.schema().relation_count(),
        a.precis.database.schema().relation_count()
    );
    assert!(loaded.validate_foreign_keys().is_empty());
}

#[test]
fn ranked_narratives_put_the_better_connected_homonym_first() {
    use precis::datagen::movies_vocabulary;
    use precis::nlg::Translator;
    let e = engine();
    let a = e
        .answer(
            &PrecisQuery::parse(r#""Woody Allen""#),
            &AnswerSpec::new(
                DegreeConstraint::MinWeight(0.9),
                CardinalityConstraint::MaxTuplesPerRelation(10),
            ),
        )
        .unwrap();
    let vocab = movies_vocabulary(e.database().schema());
    let t = Translator::new(e.database(), e.graph(), &vocab);

    // Unranked order follows occurrence (relation-id) order: ACTOR first.
    let plain = t.translate(&a).unwrap();
    assert_eq!(plain[0].relation, "ACTOR");

    // Ranked: the director homonym connects to more information (3 movies +
    // 6 genres vs 2 movies through CAST) and comes first.
    let ranked = t.translate_ranked(&a).unwrap();
    assert_eq!(ranked[0].relation, "DIRECTOR");
    assert_eq!(ranked[1].relation, "ACTOR");

    // Scores agree with the ranking API.
    let seeds = precis::core::rank_seeds(e.database(), e.graph(), &a.schema, &a.precis).unwrap();
    assert_eq!(seeds.len(), 2);
    assert!(seeds[0].score > seeds[1].score);
}

#[test]
fn explain_renders_figure_4_and_figure_6() {
    let e = engine();
    let a = e
        .answer(
            &PrecisQuery::parse(r#""Woody Allen""#),
            &AnswerSpec::new(
                DegreeConstraint::MinWeight(0.9),
                CardinalityConstraint::MaxTuplesPerRelation(10),
            ),
        )
        .unwrap();
    let schema_text = explain::explain_schema(e.graph(), &a.schema);
    assert!(schema_text.contains("DIRECTOR [origin]"));
    assert!(schema_text.contains("MOVIE (in-degree 2)"));
    assert!(schema_text.contains("DIRECTOR -> MOVIE"));

    let db_text = explain::explain_precis(e.database(), &a.precis);
    assert!(db_text.contains("Match Point"));
    assert!(db_text.contains("hidden attrs"));
}
