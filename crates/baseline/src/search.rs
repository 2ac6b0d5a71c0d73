//! Keyword-search evaluation: enumerate join trees, evaluate each into
//! flattened rows, rank by join count.

use crate::join_tree::JoinTree;
use precis_graph::SchemaGraph;
use precis_index::InvertedIndex;
use precis_storage::{Database, RelationId, TupleId, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One flattened result row: the participating tuples and their
/// concatenated attribute values, in tree-discovery order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatRow {
    pub tuples: Vec<(RelationId, TupleId)>,
    pub values: Vec<Value>,
}

/// All rows produced by one join tree.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineAnswer {
    pub tree: JoinTree,
    pub rows: Vec<FlatRow>,
}

impl BaselineAnswer {
    /// Ranking score: fewer joins rank higher (DBXplorer's criterion).
    pub fn score(&self) -> usize {
        self.tree.join_count()
    }
}

use precis_index::tokenize;

/// IR-style relevance of one flattened row (the Related Work's [9]
/// "IR-style answer-relevance ranking"): for every token matched by a tuple
/// of the row, add `idf(token) / words(matching value)` — rare tokens in
/// short fields score highest.
fn row_relevance(db: &Database, index: &InvertedIndex, row: &FlatRow, tokens: &[&str]) -> f64 {
    let mut score = 0.0;
    for token in tokens {
        let words = tokenize(token);
        if words.is_empty() {
            continue;
        }
        let idf = index.idf(token);
        let mut best: Option<usize> = None; // shortest matching value, in words
        for &(rel, tid) in &row.tuples {
            let Some(t) = db.table(rel).get(tid) else {
                continue;
            };
            for v in t.values() {
                let Some(text) = v.as_text() else { continue };
                let vw = tokenize(text);
                if vw.windows(words.len()).any(|w| w == words) {
                    best = Some(best.map_or(vw.len(), |b| b.min(vw.len())));
                }
            }
        }
        if let Some(len) = best {
            score += idf / len.max(1) as f64;
        }
    }
    score
}

/// DISCOVER/DBXplorer-style keyword search over a database.
#[derive(Debug, Clone, Copy)]
pub struct KeywordSearch<'a> {
    db: &'a Database,
    graph: &'a SchemaGraph,
    index: &'a InvertedIndex,
}

impl<'a> KeywordSearch<'a> {
    pub fn new(db: &'a Database, graph: &'a SchemaGraph, index: &'a InvertedIndex) -> Self {
        KeywordSearch { db, graph, index }
    }

    /// Answer a keyword query: every distinct join tree of at most
    /// `max_tree_size` relations that connects one occurrence relation per
    /// token, evaluated to at most `max_rows` flattened rows each, sorted by
    /// ascending join count.
    ///
    /// Returns an empty vector when any token has no occurrences (all
    /// keywords must match, the standard AND semantics).
    pub fn search(
        &self,
        tokens: &[&str],
        max_tree_size: usize,
        max_rows: usize,
    ) -> Vec<BaselineAnswer> {
        if tokens.is_empty() {
            return Vec::new();
        }
        // Token → (relation → matching tids).
        let mut token_tids: Vec<HashMap<RelationId, BTreeSet<TupleId>>> = Vec::new();
        for t in tokens {
            let mut by_rel: HashMap<RelationId, BTreeSet<TupleId>> = HashMap::new();
            for occ in self.index.lookup(self.db, t) {
                by_rel.entry(occ.rel).or_default().extend(occ.tids.iter());
            }
            if by_rel.is_empty() {
                return Vec::new();
            }
            token_tids.push(by_rel);
        }

        // Enumerate assignments token → relation (cartesian product).
        let mut answers: Vec<BaselineAnswer> = Vec::new();
        let mut seen_trees: HashSet<(BTreeSet<RelationId>, BTreeSet<usize>)> = HashSet::new();
        let candidate_rels: Vec<Vec<RelationId>> = token_tids
            .iter()
            .map(|m| {
                let mut v: Vec<RelationId> = m.keys().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut assignment = vec![0usize; tokens.len()];
        loop {
            let terminals: Vec<RelationId> = assignment
                .iter()
                .enumerate()
                .map(|(t, &i)| candidate_rels[t][i])
                .collect();
            if let Some(tree) = JoinTree::connect(self.graph, &terminals, max_tree_size) {
                if seen_trees.insert(tree.canonical_key()) {
                    let rows = self.evaluate(&tree, &terminals, &token_tids, max_rows);
                    if !rows.is_empty() {
                        answers.push(BaselineAnswer { tree, rows });
                    }
                }
            }
            // Advance the odometer.
            let mut pos = 0;
            loop {
                if pos == assignment.len() {
                    answers.sort_by_key(BaselineAnswer::score);
                    return answers;
                }
                assignment[pos] += 1;
                if assignment[pos] < candidate_rels[pos].len() {
                    break;
                }
                assignment[pos] = 0;
                pos += 1;
            }
        }
    }

    /// As [`KeywordSearch::search`], additionally sorting each answer's rows
    /// by descending IR relevance (rare tokens in short fields first) and
    /// breaking answer-level join-count ties by their best row's relevance —
    /// the hybrid of DBXplorer's structural ranking with \[9\]'s IR-style
    /// ranking.
    pub fn search_ranked(
        &self,
        tokens: &[&str],
        max_tree_size: usize,
        max_rows: usize,
    ) -> Vec<BaselineAnswer> {
        let mut answers = self.search(tokens, max_tree_size, max_rows);
        let mut best: Vec<f64> = Vec::with_capacity(answers.len());
        for a in &mut answers {
            let mut scored: Vec<(f64, FlatRow)> = a
                .rows
                .drain(..)
                .map(|r| (row_relevance(self.db, self.index, &r, tokens), r))
                .collect();
            scored.sort_by(|x, y| y.0.total_cmp(&x.0));
            best.push(scored.first().map(|(s, _)| *s).unwrap_or(0.0));
            a.rows = scored.into_iter().map(|(_, r)| r).collect();
        }
        let mut order: Vec<usize> = (0..answers.len()).collect();
        order.sort_by(|&i, &j| {
            answers[i]
                .score()
                .cmp(&answers[j].score())
                .then_with(|| best[j].total_cmp(&best[i]))
        });
        let mut answers: Vec<Option<BaselineAnswer>> = answers.into_iter().map(Some).collect();
        order
            .into_iter()
            .map(|i| answers[i].take().expect("each index used once"))
            .collect()
    }

    /// Evaluate a join tree: backtracking enumeration of joining tuple
    /// combinations, with token-relations restricted to their matching tids.
    fn evaluate(
        &self,
        tree: &JoinTree,
        terminals: &[RelationId],
        token_tids: &[HashMap<RelationId, BTreeSet<TupleId>>],
        max_rows: usize,
    ) -> Vec<FlatRow> {
        // Constraint per relation: intersection of the tid sets of every
        // token assigned to it.
        let mut constraint: HashMap<RelationId, BTreeSet<TupleId>> = HashMap::new();
        for (t, &rel) in terminals.iter().enumerate() {
            let tids = &token_tids[t][&rel];
            constraint
                .entry(rel)
                .and_modify(|s| *s = s.intersection(tids).copied().collect())
                .or_insert_with(|| tids.clone());
        }

        let order = tree.relations().to_vec();
        let mut rows = Vec::new();
        let mut partial: Vec<(RelationId, TupleId)> = Vec::new();
        self.backtrack(tree, &order, &constraint, &mut partial, &mut rows, max_rows);
        rows
    }

    fn backtrack(
        &self,
        tree: &JoinTree,
        order: &[RelationId],
        constraint: &HashMap<RelationId, BTreeSet<TupleId>>,
        partial: &mut Vec<(RelationId, TupleId)>,
        rows: &mut Vec<FlatRow>,
        max_rows: usize,
    ) {
        if rows.len() >= max_rows {
            return;
        }
        let depth = partial.len();
        if depth == order.len() {
            let values: Vec<Value> = partial
                .iter()
                .flat_map(|&(rel, tid)| {
                    self.db
                        .table(rel)
                        .get(tid)
                        .map(|t| t.values().to_vec())
                        .unwrap_or_default()
                })
                .collect();
            rows.push(FlatRow {
                tuples: partial.clone(),
                values,
            });
            return;
        }
        let rel = order[depth];
        // Candidates: joinable with every already-assigned neighbor.
        let neighbor_filters: Vec<(usize, TupleId, bool)> = tree
            .neighbors(self.graph, rel)
            .into_iter()
            .filter_map(|(other, edge)| {
                partial.iter().find(|&&(r, _)| r == other).map(|&(_, tid)| {
                    let e = self.graph.join_edge(edge);
                    // true ⇔ `rel` is the edge's `from` side.
                    (edge, tid, e.from == rel)
                })
            })
            .collect();

        let candidates: Vec<TupleId> =
            if let Some((edge, anchor_tid, rel_is_from)) = neighbor_filters.first().copied() {
                let e = self.graph.join_edge(edge);
                let (anchor_rel, anchor_attr, own_attr) = if rel_is_from {
                    (e.to, e.to_attr, e.from_attr)
                } else {
                    (e.from, e.from_attr, e.to_attr)
                };
                let Some(anchor) = self.db.table(anchor_rel).get(anchor_tid) else {
                    return;
                };
                let v = anchor.datum(anchor_attr);
                if v.is_null() {
                    return;
                }
                match self.db.lookup_datum(rel, own_attr, v) {
                    Ok(tids) => tids.to_vec(),
                    Err(_) => self
                        .db
                        .table(rel)
                        .iter()
                        .filter(|(_, t)| t.datum(own_attr) == v)
                        .map(|(tid, _)| tid)
                        .collect(),
                }
            } else {
                // First relation of the tree: start from its constrained tids,
                // or scan if unconstrained (non-terminal roots are rare).
                match constraint.get(&rel) {
                    Some(tids) => tids.iter().copied().collect(),
                    None => self.db.table(rel).iter().map(|(tid, _)| tid).collect(),
                }
            };

        'cand: for tid in candidates {
            if let Some(allowed) = constraint.get(&rel) {
                if !allowed.contains(&tid) {
                    continue;
                }
            }
            // Check the remaining neighbor joins.
            for &(edge, anchor_tid, rel_is_from) in neighbor_filters.iter().skip(1) {
                let e = self.graph.join_edge(edge);
                let (anchor_rel, anchor_attr, own_attr) = if rel_is_from {
                    (e.to, e.to_attr, e.from_attr)
                } else {
                    (e.from, e.from_attr, e.to_attr)
                };
                let (Some(a), Some(b)) = (
                    self.db.table(anchor_rel).get(anchor_tid),
                    self.db.table(rel).get(tid),
                ) else {
                    continue 'cand;
                };
                if a.datum(anchor_attr) != b.datum(own_attr) {
                    continue 'cand;
                }
            }
            partial.push((rel, tid));
            self.backtrack(tree, order, constraint, partial, rows, max_rows);
            partial.pop();
            if rows.len() >= max_rows {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_storage::{DataType, DatabaseSchema, ForeignKey, RelationSchema};

    /// DIRECTOR ← MOVIE with Woody Allen directing two films.
    fn setup() -> (Database, SchemaGraph, InvertedIndex) {
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
        db.insert("DIRECTOR", vec![1.into(), "Woody Allen".into()])
            .unwrap();
        db.insert("DIRECTOR", vec![2.into(), "Sofia Coppola".into()])
            .unwrap();
        db.insert("MOVIE", vec![1.into(), "Match Point".into(), 1.into()])
            .unwrap();
        db.insert("MOVIE", vec![2.into(), "Anything Else".into(), 1.into()])
            .unwrap();
        db.insert(
            "MOVIE",
            vec![3.into(), "Lost in Translation".into(), 2.into()],
        )
        .unwrap();
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.8, 0.5, 0.9).unwrap();
        let idx = InvertedIndex::build(&db);
        (db, g, idx)
    }

    #[test]
    fn single_keyword_returns_zero_join_answer() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        let answers = ks.search(&["woody"], 3, 100);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].score(), 0);
        assert_eq!(answers[0].rows.len(), 1);
        assert!(answers[0].rows[0]
            .values
            .iter()
            .any(|v| v.as_text() == Some("Woody Allen")));
    }

    #[test]
    fn two_keywords_connect_across_a_join() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        let answers = ks.search(&["woody", "match"], 3, 100);
        assert!(!answers.is_empty());
        let best = &answers[0];
        assert_eq!(best.score(), 1, "one join connects DIRECTOR and MOVIE");
        assert_eq!(best.rows.len(), 1);
        let row = &best.rows[0];
        assert_eq!(row.tuples.len(), 2);
        let text: Vec<&str> = row.values.iter().filter_map(|v| v.as_text()).collect();
        assert!(text.contains(&"Woody Allen"));
        assert!(text.contains(&"Match Point"));
    }

    #[test]
    fn join_semantics_filter_non_joining_pairs() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        // "woody" and "translation" never join: Coppola directed it.
        let answers = ks.search(&["woody", "translation"], 3, 100);
        assert!(answers.iter().all(|a| a.rows.is_empty()) || answers.is_empty());
    }

    #[test]
    fn missing_keyword_yields_no_answers() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        assert!(ks.search(&["woody", "zzzzz"], 3, 100).is_empty());
        assert!(ks.search(&[], 3, 100).is_empty());
    }

    #[test]
    fn max_rows_caps_enumeration() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        // "woody" + "point|else" style: both movies join Allen; cap at 1.
        let answers = ks.search(&["allen"], 3, 1);
        assert_eq!(answers[0].rows.len(), 1);
    }

    #[test]
    fn ir_ranking_prefers_rare_tokens_in_short_fields() {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("DOC")
                .attr_not_null("id", DataType::Int)
                .attr("body", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new(s).unwrap();
        // Same token, one short field and one long field.
        db.insert("DOC", vec![1.into(), "unique".into()]).unwrap();
        db.insert(
            "DOC",
            vec![
                2.into(),
                "unique word inside a much longer body of text here".into(),
            ],
        )
        .unwrap();
        let g = SchemaGraph::from_foreign_keys(db.schema().clone(), 0.8, 0.5, 0.9).unwrap();
        let idx = InvertedIndex::build(&db);
        let ks = KeywordSearch::new(&db, &g, &idx);
        let answers = ks.search_ranked(&["unique"], 2, 10);
        assert_eq!(answers.len(), 1);
        let rows = &answers[0].rows;
        assert_eq!(rows.len(), 2);
        // The short-field match ranks first.
        assert_eq!(rows[0].tuples[0].1, precis_storage::TupleId(0));
    }

    #[test]
    fn ranked_search_preserves_answer_content() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        let plain = ks.search(&["woody", "match"], 3, 100);
        let ranked = ks.search_ranked(&["woody", "match"], 3, 100);
        assert_eq!(plain.len(), ranked.len());
        let plain_rows: usize = plain.iter().map(|a| a.rows.len()).sum();
        let ranked_rows: usize = ranked.iter().map(|a| a.rows.len()).sum();
        assert_eq!(plain_rows, ranked_rows);
        for w in ranked.windows(2) {
            assert!(w[0].score() <= w[1].score());
        }
    }

    #[test]
    fn answers_are_ranked_by_join_count() {
        let (db, g, idx) = setup();
        let ks = KeywordSearch::new(&db, &g, &idx);
        // "allen" occurs only in DIRECTOR; "point" only in MOVIE: the only
        // tree has 1 join. "allen point" vs single-keyword check ordering
        // across a multi-answer query instead:
        let answers = ks.search(&["woody", "allen"], 3, 100);
        for w in answers.windows(2) {
            assert!(w[0].score() <= w[1].score());
        }
    }
}
