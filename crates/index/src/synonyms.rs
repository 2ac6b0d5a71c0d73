//! Synonym handling (paper §5.1): "different values may be used for the
//! same object (synonyms); e.g., W. Allen and Woody Allen that correspond
//! to the same person… there exist approaches for cleaning and homogenizing
//! string data" — the paper treats reconciliation as orthogonal, so we
//! provide the hook: a designer-curated synonym dictionary expanded at
//! lookup time.

use crate::inverted::{InvertedIndex, Occurrence};
use crate::postings::merge_k;
use crate::tokenizer::Tokenizer;
use precis_storage::{Database, TupleId};
use std::collections::HashMap;
use std::sync::Arc;

/// Groups of phrases that denote the same object. Matching is
/// tokenizer-normalized (case- and punctuation-insensitive).
#[derive(Debug, Clone, Default)]
pub struct SynonymMap {
    tokenizer: Tokenizer,
    groups: Vec<Vec<String>>,
    by_phrase: HashMap<String, usize>,
}

impl SynonymMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a group of equivalent phrases. Phrases already in another
    /// group pull that group in (groups merge transitively).
    pub fn add_group<I, S>(&mut self, phrases: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let normalized: Vec<String> = phrases
            .into_iter()
            .map(|p| self.normalize(&p.into()))
            .filter(|p| !p.is_empty())
            .collect();
        if normalized.is_empty() {
            return;
        }
        // Merge with any group an incoming phrase already belongs to.
        let existing: Option<usize> = normalized
            .iter()
            .find_map(|p| self.by_phrase.get(p).copied());
        let gid = existing.unwrap_or_else(|| {
            self.groups.push(Vec::new());
            self.groups.len() - 1
        });
        for p in normalized {
            if !self.groups[gid].contains(&p) {
                self.groups[gid].push(p.clone());
                self.by_phrase.insert(p, gid);
            }
        }
    }

    /// All phrases equivalent to `token` (including its normalized self).
    pub fn expand(&self, token: &str) -> Vec<String> {
        let norm = self.normalize(token);
        match self.by_phrase.get(&norm) {
            Some(&gid) => self.groups[gid].clone(),
            None => vec![norm],
        }
    }

    /// Number of registered groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn normalize(&self, phrase: &str) -> String {
        self.tokenizer.words(phrase).join(" ")
    }
}

impl InvertedIndex {
    /// Lookup with synonym expansion: the union of the occurrences of every
    /// variant of `token`, merged per (relation, attribute).
    pub fn lookup_with_synonyms(
        &self,
        db: &Database,
        token: &str,
        synonyms: &SynonymMap,
    ) -> Vec<Occurrence> {
        let mut merged: HashMap<(precis_storage::RelationId, usize), Vec<Arc<[TupleId]>>> =
            HashMap::new();
        for variant in synonyms.expand(token) {
            for occ in self.lookup(db, &variant) {
                merged
                    .entry((occ.rel, occ.attr))
                    .or_default()
                    .push(occ.tids);
            }
        }
        let mut out: Vec<Occurrence> = merged
            .into_iter()
            .map(|((rel, attr), mut lists)| {
                let tids = if lists.len() == 1 {
                    // Single variant hit: share its postings untouched.
                    lists.pop().expect("one list")
                } else {
                    let slices: Vec<&[TupleId]> = lists.iter().map(|l| &l[..]).collect();
                    merge_k(&slices).into()
                };
                Occurrence { rel, attr, tids }
            })
            .collect();
        out.sort_by_key(|o| (o.rel, o.attr));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_storage::{DataType, DatabaseSchema, RelationSchema, Value};

    fn db() -> Database {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("P")
                .attr_not_null("id", DataType::Int)
                .attr("name", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert("P", vec![Value::from(1), Value::from("Woody Allen")])
            .unwrap();
        db.insert("P", vec![Value::from(2), Value::from("W. Allen")])
            .unwrap();
        db.insert("P", vec![Value::from(3), Value::from("Diane Keaton")])
            .unwrap();
        db
    }

    #[test]
    fn expansion_unifies_variants() {
        let mut syn = SynonymMap::new();
        syn.add_group(["Woody Allen", "W. Allen"]);
        let mut variants = syn.expand("woody allen");
        variants.sort();
        assert_eq!(variants, vec!["w allen", "woody allen"]);
        assert_eq!(syn.expand("diane keaton"), vec!["diane keaton"]);
        assert_eq!(syn.group_count(), 1);
    }

    #[test]
    fn groups_merge_transitively() {
        let mut syn = SynonymMap::new();
        syn.add_group(["A B", "C D"]);
        syn.add_group(["C D", "E F"]);
        assert_eq!(syn.group_count(), 1);
        assert_eq!(syn.expand("a b").len(), 3);
        syn.add_group(Vec::<String>::new()); // no-op
        assert_eq!(syn.group_count(), 1);
    }

    #[test]
    fn lookup_with_synonyms_finds_both_spellings() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let mut syn = SynonymMap::new();
        syn.add_group(["Woody Allen", "W. Allen"]);

        // Plain lookup sees only the exact phrase.
        let plain = idx.lookup(&db, "Woody Allen");
        assert_eq!(plain.iter().map(|o| o.tids.len()).sum::<usize>(), 1);

        // Synonym-expanded lookup unifies both tuples.
        let expanded = idx.lookup_with_synonyms(&db, "Woody Allen", &syn);
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].tids.len(), 2);

        // And the reverse direction works too.
        let expanded = idx.lookup_with_synonyms(&db, "w. allen", &syn);
        assert_eq!(expanded[0].tids.len(), 2);
    }

    #[test]
    fn unknown_tokens_fall_through() {
        let db = db();
        let idx = InvertedIndex::build(&db);
        let syn = SynonymMap::new();
        assert!(idx.lookup_with_synonyms(&db, "nobody", &syn).is_empty());
        let keaton = idx.lookup_with_synonyms(&db, "keaton", &syn);
        assert_eq!(keaton.len(), 1);
    }
}
