//! The translator: walks a précis answer outward from each token occurrence
//! and composes clause templates into a narrative (paper §5.3).
//!
//! "The translation is realized separately for every occurrence of a token…
//! the analysis of the query result graph starts from the relation that
//! contains the input token. The labels of the projection edges… are
//! evaluated first… After having constructed the clause for the relation
//! that contains the input token, we compose additional clauses that combine
//! information from more than one relation by using foreign key
//! relationships."
//!
//! Relations without a heading attribute (pure bridges such as CAST) are
//! *transparent*: no clause is emitted at them and their join label — per the
//! paper — "signifies the relationship between the previous and subsequent
//! relations", rendered once with the bindings inherited from the previous
//! non-transparent relation.

use crate::template::Bindings;
use crate::vocabulary::Vocabulary;
use crate::Result;
use precis_core::{PrecisAnswer, PrecisDatabase, ResultSchema};
use precis_graph::{JoinEdge, SchemaGraph};
use precis_storage::{Database, FxHashMap, FxHashSet, RelationId, TupleId};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Cap on recursion depth (paths in the used-edge graph are acyclic per
/// narrative, but the cap keeps pathological vocabularies safe).
const MAX_DEPTH: usize = 32;

/// One rendered narrative: the précis for one occurrence of one token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Narrative {
    /// The query token this narrative answers.
    pub token: String,
    /// Name of the relation the token was found in (homonyms — e.g. Woody
    /// Allen the director vs. the actor — yield one narrative each, as the
    /// paper prescribes "in absence of any information that both instance
    /// values refer to the same physical entity").
    pub relation: String,
    /// The synthesized text.
    pub text: String,
}

/// Renders précis answers as narratives using a designer [`Vocabulary`].
#[derive(Debug, Clone, Copy)]
pub struct Translator<'a> {
    db: &'a Database,
    graph: &'a SchemaGraph,
    vocab: &'a Vocabulary,
    /// When a relation or join has no designer template, emit a generic
    /// mechanical clause instead of staying silent.
    generic_fallback: bool,
}

impl<'a> Translator<'a> {
    /// `db` and `graph` must be the original database and schema graph the
    /// answer was computed against.
    pub fn new(db: &'a Database, graph: &'a SchemaGraph, vocab: &'a Vocabulary) -> Self {
        Translator {
            db,
            graph,
            vocab,
            generic_fallback: false,
        }
    }

    /// Enable generic clauses for relations/joins the vocabulary does not
    /// cover: `"DIRECTOR: dname = Woody Allen; bdate = …"` — clunky but
    /// complete, so *any* schema gets a narrative without a designer.
    pub fn with_generic_fallback(mut self) -> Self {
        self.generic_fallback = true;
        self
    }

    /// Translate a full answer: one narrative per token occurrence per
    /// surviving seed tuple, in occurrence order.
    pub fn translate(&self, answer: &PrecisAnswer) -> Result<Vec<Narrative>> {
        self.narrate_each(answer, surviving_occurrences(answer))
    }

    /// As [`Translator::translate`], but homonym narratives come best-first:
    /// seeds with more (weighted) connected information in the answer rank
    /// higher — see [`precis_core::rank_seeds`].
    pub fn translate_ranked(&self, answer: &PrecisAnswer) -> Result<Vec<Narrative>> {
        let ranked = precis_core::rank_seeds(self.db, self.graph, &answer.schema, &answer.precis)?;
        let rank: FxHashMap<(RelationId, TupleId), usize> = ranked
            .iter()
            .enumerate()
            .map(|(i, r)| ((r.rel, r.tid), i))
            .collect();
        let mut occurrences = surviving_occurrences(answer);
        occurrences
            .sort_by_key(|&(_, rel, tid)| rank.get(&(rel, tid)).copied().unwrap_or(usize::MAX));
        self.narrate_each(answer, occurrences)
    }

    fn narrate_each(
        &self,
        answer: &PrecisAnswer,
        occurrences: Vec<(&str, RelationId, TupleId)>,
    ) -> Result<Vec<Narrative>> {
        let mut out = Vec::with_capacity(occurrences.len());
        for (token, rel, tid) in occurrences {
            out.push(Narrative {
                token: token.to_owned(),
                relation: self.db.schema().relation(rel).name().to_owned(),
                text: self.narrate(&answer.schema, &answer.precis, rel, tid)?,
            });
        }
        Ok(out)
    }

    /// Build the narrative for one seed tuple: the origin relation's clause,
    /// then one clause per (source tuple, used join edge), breadth first —
    /// relations closer to the token are verbalized before distant ones, and
    /// each relation is narrated through the closest used edge only.
    pub fn narrate(
        &self,
        schema: &ResultSchema,
        precis: &PrecisDatabase,
        origin: RelationId,
        seed: TupleId,
    ) -> Result<String> {
        let mut clauses: Vec<String> = Vec::new();

        let mut origin_ctx = Bindings::new();
        self.bind_tuple_scalars(&mut origin_ctx, precis, origin, seed);
        if let Some(t) = self.vocab.relation_clause(origin) {
            clauses.push(t.render(&origin_ctx, self.vocab.macros())?);
        } else if self.generic_fallback {
            if let Some(c) = self.generic_relation_clause(precis, origin, seed) {
                clauses.push(c);
            }
        }

        // Breadth-first over relations. Each relation carries *groups*: a
        // tuple list plus the bindings inherited from the source tuple that
        // reached it, so per-source clauses ("Match Point is Drama,
        // Thriller.") keep their own context.
        let mut scheduled: BTreeSet<RelationId> = BTreeSet::new();
        scheduled.insert(origin);
        let mut groups: HashMap<RelationId, Vec<(Vec<TupleId>, Bindings)>> = HashMap::new();
        groups.insert(origin, vec![(vec![seed], origin_ctx)]);
        let mut queue: VecDeque<(RelationId, usize)> = VecDeque::new();
        queue.push_back((origin, 0));

        while let Some((rel, depth)) = queue.pop_front() {
            if depth >= MAX_DEPTH {
                continue;
            }
            let Some(rel_groups) = groups.remove(&rel) else {
                continue;
            };
            // Bridges without a heading attribute are transparent: their
            // join label "signifies the relationship between the previous
            // and subsequent relations", rendered once per group with the
            // inherited bindings.
            let transparent = self.vocab.heading(rel).is_none() && rel != origin;

            for edge in self.outgoing_used_edges(schema, origin, rel) {
                let e = self.graph.join_edge(edge);
                if scheduled.contains(&e.to) {
                    continue; // already narrated through a closer edge
                }
                let mut dest_groups: Vec<(Vec<TupleId>, Bindings)> = Vec::new();
                for (tuples, ctx) in &rel_groups {
                    // The sources of one clause: the whole group at a
                    // transparent relation, one tuple (whose scalars join
                    // the bindings) at any other.
                    let per_clause = if transparent { tuples.len() } else { 1 };
                    for sources in tuples.chunks(per_clause) {
                        let joined = self.joined_tuples(precis, sources, e)?;
                        if joined.is_empty() {
                            continue;
                        }
                        let mut context = ctx.clone();
                        if !transparent {
                            self.bind_tuple_scalars(&mut context, precis, rel, sources[0]);
                        }
                        if let Some(template) = self.vocab.join_clause(e.from, e.to) {
                            let mut b = context.clone();
                            self.bind_tuple_lists(&mut b, precis, e.to, &joined);
                            clauses.push(template.render(&b, self.vocab.macros())?);
                        } else if self.generic_fallback {
                            if let Some(c) = self.generic_join_clause(precis, e.to, &joined) {
                                clauses.push(c);
                            }
                        }
                        dest_groups.push((joined, context));
                    }
                }
                if !dest_groups.is_empty() {
                    scheduled.insert(e.to);
                    groups.insert(e.to, dest_groups);
                    queue.push_back((e.to, depth + 1));
                }
            }
        }

        Ok(clauses.join(" "))
    }

    /// Used join edges departing `rel` whose paths belong to `origin`,
    /// heaviest first.
    fn outgoing_used_edges(
        &self,
        schema: &ResultSchema,
        origin: RelationId,
        rel: RelationId,
    ) -> Vec<usize> {
        let mut edges: Vec<usize> = schema
            .used_joins()
            .iter()
            .filter(|u| u.origins.contains(&origin))
            .map(|u| u.edge)
            .filter(|&e| self.graph.join_edge(e).from == rel)
            .collect();
        edges.sort_by(|&a, &b| {
            self.graph
                .join_edge(b)
                .weight
                .total_cmp(&self.graph.join_edge(a).weight)
                .then(a.cmp(&b))
        });
        edges
    }

    /// Mechanical clause for a relation the vocabulary does not cover:
    /// `"DIRECTOR: dname = Woody Allen; bdate = December 1, 1935."`.
    fn generic_relation_clause(
        &self,
        precis: &PrecisDatabase,
        rel: RelationId,
        tid: TupleId,
    ) -> Option<String> {
        let t = self.db.table(rel).get(tid)?;
        let attrs = self.narratable_attrs(precis, rel);
        if attrs.is_empty() {
            return None;
        }
        let schema = self.db.schema().relation(rel);
        let parts: Vec<String> = attrs
            .iter()
            .map(|&a| format!("{} = {}", schema.attr_name(a), t.get(a)))
            .collect();
        Some(format!("{}: {}.", schema.name(), parts.join("; ")))
    }

    /// Mechanical clause for a join the vocabulary does not cover:
    /// `"Related MOVIE: Match Point (2005); Melinda and Melinda (2004)."`.
    fn generic_join_clause(
        &self,
        precis: &PrecisDatabase,
        dest: RelationId,
        joined: &[TupleId],
    ) -> Option<String> {
        let attrs = self.narratable_attrs(precis, dest);
        if attrs.is_empty() || joined.is_empty() {
            return None;
        }
        let schema = self.db.schema().relation(dest);
        let rows: Vec<String> = joined
            .iter()
            .filter_map(|tid| self.db.table(dest).get(*tid))
            .map(|t| {
                attrs
                    .iter()
                    .map(|&a| t.get(a).to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        Some(format!("Related {}: {}.", schema.name(), rows.join("; ")))
    }

    /// Collected tuples across edge `e` from any of `sources`, each once, in
    /// the order the sources reach them.
    fn joined_tuples(
        &self,
        precis: &PrecisDatabase,
        sources: &[TupleId],
        e: &JoinEdge,
    ) -> Result<Vec<TupleId>> {
        let mut joined: Vec<TupleId> = Vec::new();
        let mut seen: FxHashSet<TupleId> = FxHashSet::default();
        for &src in sources {
            let Some(t) = self.db.table(e.from).get(src) else {
                continue;
            };
            let reached = precis.joined(e.to, e.to_attr, t.datum(e.from_attr))?;
            // One source's postings hold no tuple twice.
            joined.extend(reached.filter(|tid| sources.len() == 1 || seen.insert(*tid)));
        }
        Ok(joined)
    }

    /// Bind the visible attributes (plus the heading attribute) of one tuple
    /// as scalars.
    fn bind_tuple_scalars(
        &self,
        b: &mut Bindings,
        precis: &PrecisDatabase,
        rel: RelationId,
        tid: TupleId,
    ) {
        let Some(t) = self.db.table(rel).get(tid) else {
            return;
        };
        for attr in self.narratable_attrs(precis, rel) {
            let label = self.attr_label(rel, attr);
            b.set_scalar(label, t.get(attr).to_string());
        }
    }

    /// Bind the visible attributes of a list of tuples as parallel lists.
    fn bind_tuple_lists(
        &self,
        b: &mut Bindings,
        precis: &PrecisDatabase,
        rel: RelationId,
        tids: &[TupleId],
    ) {
        for attr in self.narratable_attrs(precis, rel) {
            let label = self.attr_label(rel, attr);
            let values: Vec<String> = tids
                .iter()
                .filter_map(|tid| self.db.table(rel).get(*tid))
                .map(|t| t.get(attr).to_string())
                .collect();
            b.set(label, values);
        }
    }

    /// Attributes worth binding: the visible set of the answer plus the
    /// heading attribute (whose projection edge implicitly has weight 1 and
    /// "is always present in the result of a précis query").
    fn narratable_attrs(&self, precis: &PrecisDatabase, rel: RelationId) -> Vec<usize> {
        let mut attrs: Vec<usize> = precis.visible.get(&rel).cloned().unwrap_or_default();
        if let Some(h) = self.vocab.heading(rel) {
            if !attrs.contains(&h) {
                attrs.push(h);
            }
        }
        attrs
    }

    fn attr_label(&self, rel: RelationId, attr: usize) -> String {
        let name = self.db.schema().relation(rel).attr_name(attr);
        self.vocab.attr_label(rel, attr, name)
    }
}

/// Token occurrences that survived the cardinality cut, as
/// (token, relation, tid) triples in answer order.
fn surviving_occurrences(answer: &PrecisAnswer) -> Vec<(&str, RelationId, TupleId)> {
    let mut out = Vec::new();
    for m in &answer.matches {
        for occ in &m.occurrences {
            let Some(collected) = answer.precis.collected.get(&occ.rel) else {
                continue;
            };
            // A broad token matches thousands of tuples, sorted by tid, and
            // the answer kept a few: those look themselves up in the matches,
            // and come out in the matches' order.
            let from = out.len();
            for tid in collected {
                if occ.tids.binary_search(tid).is_ok() {
                    out.push((m.token.as_str(), occ.rel, *tid));
                }
            }
            out[from..].sort_unstable_by_key(|&(_, _, tid)| tid);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_core::{
        generate_result_database, generate_result_schema, CardinalityConstraint, DbGenOptions,
        DegreeConstraint, PrecisEngine, PrecisQuery, RetrievalStrategy,
    };
    use precis_storage::{DataType, DatabaseSchema, ForeignKey, RelationSchema, Value};
    use std::collections::HashMap;

    /// AUTHOR ← BOOK, one author with two books.
    fn setup() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("lib");
        s.add_relation(
            RelationSchema::builder("AUTHOR")
                .attr_not_null("aid", DataType::Int)
                .attr("name", DataType::Text)
                .primary_key("aid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("BOOK")
                .attr_not_null("bid", DataType::Int)
                .attr("title", DataType::Text)
                .attr("aid", DataType::Int)
                .primary_key("bid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(ForeignKey::new("BOOK", "aid", "AUTHOR", "aid"))
            .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert("AUTHOR", vec![Value::from(1), Value::from("Le Guin")])
            .unwrap();
        db.insert(
            "BOOK",
            vec![
                Value::from(1),
                Value::from("The Dispossessed"),
                Value::from(1),
            ],
        )
        .unwrap();
        db.insert(
            "BOOK",
            vec![Value::from(2), Value::from("Earthsea"), Value::from(1)],
        )
        .unwrap();
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.9, 0.8, 0.9).unwrap();
        (db, g)
    }

    fn precis_for(db: &Database, g: &SchemaGraph) -> (ResultSchema, PrecisDatabase) {
        let author = db.schema().relation_id("AUTHOR").unwrap();
        let schema = generate_result_schema(g, &[author], &DegreeConstraint::MinWeight(0.5));
        let seeds = HashMap::from([(author, vec![TupleId(0)])]);
        let precis = generate_result_database(
            db,
            g,
            &schema,
            &seeds,
            &CardinalityConstraint::Unbounded,
            RetrievalStrategy::NaiveQ,
            &DbGenOptions::default(),
        )
        .unwrap();
        (schema, precis)
    }

    #[test]
    fn designer_templates_render() {
        let (db, g) = setup();
        let author = db.schema().relation_id("AUTHOR").unwrap();
        let book = db.schema().relation_id("BOOK").unwrap();
        let mut vocab = Vocabulary::new();
        vocab.set_heading(author, 1);
        vocab.set_heading(book, 1);
        vocab
            .set_relation_clause(author, "@NAME writes books.")
            .unwrap();
        vocab
            .set_join_clause(author, book, "Works: @TITLE[*].")
            .unwrap();
        let (schema, precis) = precis_for(&db, &g);
        let t = Translator::new(&db, &g, &vocab);
        let text = t.narrate(&schema, &precis, author, TupleId(0)).unwrap();
        assert_eq!(
            text,
            "Le Guin writes books. Works: The Dispossessed, Earthsea."
        );
    }

    #[test]
    fn generic_fallback_narrates_without_any_vocabulary() {
        let (db, g) = setup();
        let author = db.schema().relation_id("AUTHOR").unwrap();
        let vocab = Vocabulary::new();
        let (schema, precis) = precis_for(&db, &g);

        // Without fallback: silence.
        let silent = Translator::new(&db, &g, &vocab);
        assert_eq!(
            silent
                .narrate(&schema, &precis, author, TupleId(0))
                .unwrap(),
            ""
        );

        // With fallback: mechanical but complete clauses.
        let t = Translator::new(&db, &g, &vocab).with_generic_fallback();
        let text = t.narrate(&schema, &precis, author, TupleId(0)).unwrap();
        assert!(text.contains("AUTHOR:"), "{text}");
        assert!(text.contains("name = Le Guin"), "{text}");
        assert!(text.contains("Related BOOK:"), "{text}");
        assert!(text.contains("The Dispossessed"), "{text}");
    }

    #[test]
    fn translate_walks_every_surviving_occurrence() {
        let (db, g) = setup();
        let vocab = Vocabulary::new();
        let engine = PrecisEngine::new(db, g).unwrap();
        let answer = engine
            .answer(
                &PrecisQuery::parse("guin"),
                &precis_core::AnswerSpec::new(
                    DegreeConstraint::MinWeight(0.5),
                    CardinalityConstraint::Unbounded,
                ),
            )
            .unwrap();
        let t = Translator::new(engine.database(), engine.graph(), &vocab).with_generic_fallback();
        let narratives = t.translate(&answer).unwrap();
        assert_eq!(narratives.len(), 1);
        assert_eq!(narratives[0].relation, "AUTHOR");
        assert_eq!(narratives[0].token, "guin");
        // Ranked translation returns the same set.
        let ranked = t.translate_ranked(&answer).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].text, narratives[0].text);
    }

    #[test]
    fn empty_result_database_yields_no_narratives() {
        let (db, g) = setup();
        let vocab = Vocabulary::new();
        let engine = PrecisEngine::new(db, g).unwrap();
        let answer = engine
            .answer(
                &PrecisQuery::parse("zzznothing"),
                &precis_core::AnswerSpec::new(
                    DegreeConstraint::MinWeight(0.5),
                    CardinalityConstraint::Unbounded,
                ),
            )
            .unwrap();
        assert_eq!(answer.precis.database.total_tuples(), 0);
        assert_eq!(answer.unmatched_tokens(), vec!["zzznothing"]);
        let t = Translator::new(engine.database(), engine.graph(), &vocab).with_generic_fallback();
        assert!(t.translate(&answer).unwrap().is_empty());
        assert!(t.translate_ranked(&answer).unwrap().is_empty());
    }

    #[test]
    fn missing_vocabulary_entries_silence_only_their_own_clauses() {
        let (db, g) = setup();
        let author = db.schema().relation_id("AUTHOR").unwrap();
        let book = db.schema().relation_id("BOOK").unwrap();
        let (schema, precis) = precis_for(&db, &g);

        // Relation clause present, join clause missing: the books go
        // unmentioned, but the author clause still renders.
        let mut partial = Vocabulary::new();
        partial.set_heading(author, 1);
        partial
            .set_relation_clause(author, "@NAME writes books.")
            .unwrap();
        let t = Translator::new(&db, &g, &partial);
        let text = t.narrate(&schema, &precis, author, TupleId(0)).unwrap();
        assert_eq!(text, "Le Guin writes books.");

        // Join clause present, relation clause missing: the narrative opens
        // directly with the join sentence.
        let mut joins_only = Vocabulary::new();
        joins_only.set_heading(author, 1);
        joins_only.set_heading(book, 1);
        joins_only
            .set_join_clause(author, book, "Works: @TITLE[*].")
            .unwrap();
        let t = Translator::new(&db, &g, &joins_only);
        let text = t.narrate(&schema, &precis, author, TupleId(0)).unwrap();
        assert_eq!(text, "Works: The Dispossessed, Earthsea.");
    }

    /// PERSON and VENUE related only by an expert join on `city`: no foreign
    /// key, so no index of D′'s own covers the arriving end.
    fn expert_join_setup() -> (Database, SchemaGraph) {
        let mut s = DatabaseSchema::new("towns");
        for (name, key, label) in [("PERSON", "pid", "name"), ("VENUE", "vid", "vname")] {
            s.add_relation(
                RelationSchema::builder(name)
                    .attr_not_null(key, DataType::Int)
                    .attr(label, DataType::Text)
                    .attr("city", DataType::Text)
                    .primary_key(key)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        let mut db = Database::new(s).unwrap();
        for (pid, name, city) in [(1, "Ada", "Athens"), (2, "Ada", "Rome"), (3, "Bo", "Oslo")] {
            db.insert("PERSON", vec![pid.into(), name.into(), city.into()])
                .unwrap();
        }
        for (vid, vname, city) in [
            (1, "Odeon", "Athens"),
            (2, "Rex", "Rome"),
            (3, "Attikon", "Athens"),
            (4, "Colosseum", "Oslo"),
        ] {
            db.insert("VENUE", vec![vid.into(), vname.into(), city.into()])
                .unwrap();
        }
        let g = SchemaGraph::builder(db.schema().clone())
            .projection("PERSON", "name", 1.0)
            .unwrap()
            .projection("VENUE", "vname", 1.0)
            .unwrap()
            .join_both("PERSON", "city", "VENUE", "city", 0.9, 0.9)
            .unwrap()
            .build()
            .unwrap();
        (db, g)
    }

    #[test]
    fn an_expert_join_narrates_through_the_index_materialize_created() {
        let (db, g) = expert_join_setup();
        let engine = PrecisEngine::new(db, g).unwrap();
        let schema = engine.database().schema();
        let (person, venue) = (
            schema.relation_id("PERSON").unwrap(),
            schema.relation_id("VENUE").unwrap(),
        );
        let mut vocab = Vocabulary::new();
        vocab.set_heading(person, 1);
        vocab.set_heading(venue, 1);
        vocab
            .set_relation_clause(person, "@NAME lives somewhere.")
            .unwrap();
        vocab
            .set_join_clause(person, venue, "Near @NAME: @VNAME[*].")
            .unwrap();
        let answer = engine
            .answer(
                &PrecisQuery::parse("ada"),
                &precis_core::AnswerSpec::new(
                    DegreeConstraint::MinWeight(0.5),
                    CardinalityConstraint::Unbounded,
                ),
            )
            .unwrap();
        // D′ copied no foreign key, yet VENUE.city is indexed there.
        let precis = &answer.precis;
        assert!(precis.database.schema().foreign_keys().is_empty());
        let city = precis.attr_map[&venue]
            .iter()
            .position(|&a| a == 2)
            .unwrap();
        assert!(precis.database.has_index(precis.rel_map[&venue], city));

        let t = Translator::new(engine.database(), engine.graph(), &vocab);
        let texts: Vec<String> = t
            .translate_ranked(&answer)
            .unwrap()
            .into_iter()
            .map(|n| n.text)
            .collect();
        assert_eq!(
            texts,
            [
                "Ada lives somewhere. Near Ada: Odeon, Attikon.",
                "Ada lives somewhere. Near Ada: Rex."
            ]
        );
    }

    #[test]
    fn template_referencing_attribute_absent_from_result_errors_cleanly() {
        let (db, g) = setup();
        let author = db.schema().relation_id("AUTHOR").unwrap();
        // Degree 0.95 drops every 0.8-weight attribute projection, so the
        // result carries AUTHOR without its `name` attribute...
        let schema = generate_result_schema(&g, &[author], &DegreeConstraint::MinWeight(0.95));
        let seeds = HashMap::from([(author, vec![TupleId(0)])]);
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
        assert!(!precis.visible.get(&author).is_some_and(|v| v.contains(&1)));

        // ...and a designer template that verbalizes @NAME anyway must fail
        // with the template error naming the variable, not panic or render
        // a hole.
        let mut vocab = Vocabulary::new();
        vocab
            .set_relation_clause(author, "@NAME writes books.")
            .unwrap();
        let err = Translator::new(&db, &g, &vocab)
            .narrate(&schema, &precis, author, TupleId(0))
            .unwrap_err();
        assert_eq!(err, crate::NlgError::UnknownVariable("NAME".to_owned()));
    }
}
