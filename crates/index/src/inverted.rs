//! The inverted index proper.
//!
//! Postings are keyed by interned symbol id ([`Sym`]) rather than owned
//! strings, each `(relation, attribute)` location holds a **sorted,
//! deduplicated** tid list — the storage layer's [`TidList`]: inline for the
//! one tuple a rare word is in, one shared allocation for more — and
//! multi-word phrase lookups prefilter candidates with galloping
//! intersection before verifying contiguity against the stored value.
//! Single-word lookups hand back `Arc` clones of the stored lists, so warm
//! lookups allocate nothing per posting (a single tid is boxed on demand).
//!
//! The word map is a [`ShardedMap`] and a word's locations are one shared
//! slice, so cloning an index bumps one reference count per shard
//! and [`InvertedIndex::add_tuple`]/[`InvertedIndex::remove_tuple`] on the
//! clone copy, per word they touch, the word's shard, its few locations and
//! the one tid list — or, of a long list, the one segment — they change:
//! never the map, and never anything while no clone shares it.

use crate::postings::intersect_many;
use crate::tokenizer::Tokenizer;
use precis_storage::cow::{self, ShardedMap};
use precis_storage::{
    DataType, Database, Datum, FxHashMap, RelationId, Sym, SymbolTable, TidList, TupleId, ValueRef,
};
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;

/// An index location: one `(relation, attribute)` pair, in eight bytes.
/// Ordered as the pair is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Loc {
    rel: u32,
    attr: u32,
}

impl Loc {
    fn new(rel: RelationId, attr: usize) -> Loc {
        let narrow = |n: usize| u32::try_from(n).expect("a schema has fewer than 2^32 of anything");
        Loc {
            rel: narrow(rel.0),
            attr: narrow(attr),
        }
    }

    fn rel(self) -> RelationId {
        RelationId(self.rel as usize)
    }

    fn attr(self) -> usize {
        self.attr as usize
    }
}

/// The per-word postings: one sorted tid list per location, sorted by
/// location, in one exact-size allocation. Shared, so copying a shard of
/// words allocates nothing per word.
type LocPostings = Arc<[(Loc, TidList)]>;

/// Heap bytes behind one word's postings.
fn word_bytes(by_loc: &LocPostings) -> usize {
    let lists = by_loc.iter().map(|(_, tids)| tids.heap_bytes());
    cow::arc_bytes(std::mem::size_of_val(&**by_loc)) + lists.sum::<usize>()
}

/// Where `loc` is among a word's locations, or where it goes.
fn find(by_loc: &[(Loc, TidList)], loc: Loc) -> Result<usize, usize> {
    by_loc.binary_search_by_key(&loc, |(at, _)| *at)
}

/// The text attributes of one live tuple as `(attribute, text)`; nothing
/// for a tombstoned or unknown tid.
fn text_values(
    db: &Database,
    rel: RelationId,
    tid: TupleId,
) -> impl Iterator<Item = (usize, &str)> + '_ {
    db.table(rel).get(tid).into_iter().flat_map(|tuple| {
        (0..tuple.arity()).filter_map(move |attr| match tuple.get(attr) {
            ValueRef::Text(text) => Some((attr, text)),
            _ => None,
        })
    })
}

/// One occurrence entry of a token: the `(R_j, A_lj, Tids_lj)` triple the
/// paper's index returns. The tid list is sorted, deduplicated, and shared
/// with the index itself (no copy on lookup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occurrence {
    pub rel: RelationId,
    pub attr: usize,
    pub tids: Arc<[TupleId]>,
}

/// Word-level inverted index over the `Text` attributes of a database.
///
/// ```
/// use precis_storage::{Database, DatabaseSchema, RelationSchema, DataType, Value};
/// use precis_index::InvertedIndex;
///
/// let mut schema = DatabaseSchema::new("d");
/// schema.add_relation(RelationSchema::builder("DIRECTOR")
///     .attr_not_null("did", DataType::Int).attr("dname", DataType::Text)
///     .primary_key("did").build()?)?;
/// let mut db = Database::new(schema)?;
/// db.insert("DIRECTOR", vec![Value::from(1), Value::from("Woody Allen")])?;
///
/// let index = InvertedIndex::build(&db);
/// let occurrences = index.lookup(&db, "woody allen"); // phrases work
/// assert_eq!(occurrences.len(), 1);
/// assert_eq!(occurrences[0].tids.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Two indexes are equal when they would answer every lookup identically
/// and account for the same text: same tokenizer, same word set, the same
/// tids at every location in the same location order (however a long list
/// is cut into segments), and the same word-occurrence count.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    tokenizer: Tokenizer,
    /// word symbol → locations (sorted by `(relation, attribute)`), each
    /// with its sorted tid list.
    postings: ShardedMap<Sym, LocPostings>,
    words: u64,
}

impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        let same = |mine: &LocPostings, theirs: &LocPostings| {
            mine.len() == theirs.len()
                && mine
                    .iter()
                    .zip(theirs.iter())
                    .all(|((at, a), (loc, b))| at == loc && a.iter().eq(b.iter()))
        };
        self.tokenizer == other.tokenizer
            && self.words == other.words
            && self.postings.len() == other.postings.len()
            && self.postings.iter().all(|(word, mine)| {
                other
                    .postings
                    .get(word)
                    .is_some_and(|theirs| same(mine, theirs))
            })
    }
}

impl InvertedIndex {
    /// Build the index over every live tuple of `db`.
    pub fn build(db: &Database) -> Self {
        Self::build_with(db, Tokenizer::default())
    }

    /// Build with a custom tokenizer (e.g. with stopwords).
    ///
    /// One pass per text column, in schema order: rows are walked in tid
    /// order, each *distinct* stored value is tokenized once (its words are
    /// remembered by the value's symbol) and every row counts towards the
    /// lists of its value's words; a second pass over the rows then lays the
    /// lists out one after another in one buffer, each row appending its tid
    /// to its words' lists. Lists therefore come out sorted and deduplicated with no
    /// searching, each is copied once into its final form (nothing for a
    /// single tid, one allocation at its exact length, or a long one's
    /// segments), and locations are pushed in `(relation, attribute)` order
    /// — the same index a tuple-at-a-time [`InvertedIndex::add_tuple`] loop
    /// produces.
    pub fn build_with(db: &Database, tokenizer: Tokenizer) -> Self {
        let symbols = SymbolTable::global();
        // word → locations, in a plain map while it is being filled.
        let mut by_word: FxHashMap<Sym, LocPostings> = FxHashMap::default();
        let mut words = 0u64;
        // By symbol id: the column a stored value was last met in, and its
        // place in that column's `values`. One zeroed allocation serves the
        // whole build; a column touches only its own values' entries. Every
        // stored value was interned before the build began, so its id fits.
        let mut seen: Vec<(u32, u32)> = vec![(0, 0); symbols.len()];
        let mut column = 0u32;
        for (rel, schema) in db.schema().relations() {
            for (attr, def) in schema.attributes().iter().enumerate() {
                if def.ty != DataType::Text {
                    continue;
                }
                column += 1;
                // This column's words: symbol → slot in `lists`, which
                // holds each word and how many tids its list will get.
                let mut slots: FxHashMap<Sym, usize> = FxHashMap::default();
                let mut lists: Vec<(Sym, usize)> = Vec::new();
                // Per distinct value: where its distinct word slots sit in
                // `value_slots`, and how many word occurrences it holds.
                let mut values: Vec<(Range<usize>, u64)> = Vec::new();
                let mut value_slots: Vec<usize> = Vec::new();
                // By slot: the row's place in `values`, if it has text here.
                const NO_TEXT: u32 = u32::MAX;
                let mut rows: Vec<u32> = Vec::new();
                // First pass: tokenize, and count what each list will hold.
                for (tid, tuple) in db.table(rel).iter() {
                    let Datum::Sym(value) = tuple.datum(attr) else {
                        continue;
                    };
                    let id = value.id() as usize;
                    if seen[id].0 != column {
                        let first = value_slots.len();
                        let mut occurrences = 0;
                        tokenizer.for_each_word(value.as_str(), |word| {
                            occurrences += 1;
                            let slot = *slots.entry(symbols.intern(word)).or_insert_with_key(|w| {
                                lists.push((*w, 0));
                                lists.len() - 1
                            });
                            if !value_slots[first..].contains(&slot) {
                                value_slots.push(slot);
                            }
                        });
                        // Distinct values are distinct `u32` symbols, so
                        // their count fits.
                        seen[id] = (column, values.len() as u32);
                        values.push((first..value_slots.len(), occurrences));
                    }
                    rows.resize(tid.as_usize(), NO_TEXT);
                    rows.push(seen[id].1);
                    let (range, occurrences) = &values[seen[id].1 as usize];
                    words += *occurrences;
                    for &slot in &value_slots[range.clone()] {
                        lists[slot].1 += 1;
                    }
                }
                // Second pass: the lists one after another in one buffer,
                // each filled in row order. `cursors` says where each starts
                // — and, as it fills, where its next tid goes.
                let mut cursors: Vec<usize> = lists
                    .iter()
                    .scan(0, |next, (_, n)| Some(std::mem::replace(next, *next + n)))
                    .collect();
                let total = lists.iter().map(|(_, n)| n).sum();
                let mut tids = vec![TupleId(0); total];
                for (tid, value) in rows.into_iter().enumerate() {
                    if value == NO_TEXT {
                        continue;
                    }
                    let tid = TupleId(tid as u64);
                    let (range, _) = &values[value as usize];
                    for &slot in &value_slots[range.clone()] {
                        tids[cursors[slot]] = tid;
                        cursors[slot] += 1;
                    }
                }
                let loc = Loc::new(rel, attr);
                for ((word, n), end) in lists.into_iter().zip(cursors) {
                    // Most words are at one location; a later column's joins
                    // the slice at its end, in `(relation, attribute)` order.
                    let entry = (loc, TidList::from_sorted(&tids[end - n..end]));
                    match by_word.entry(word) {
                        Entry::Vacant(new) => drop(new.insert(Arc::new([entry]))),
                        Entry::Occupied(mut by_loc) => {
                            let grown = cow::slice_with(by_loc.get(), by_loc.get().len(), entry);
                            by_loc.insert(grown);
                        }
                    }
                }
            }
        }
        let mut postings = ShardedMap::new();
        postings.reserve(by_word.len());
        for (word, by_loc) in by_word {
            postings.get_or_insert_with(word, || by_loc);
        }
        InvertedIndex {
            tokenizer,
            postings,
            words,
        }
    }

    /// Index one tuple (call after inserting it into `db`).
    pub fn add_tuple(&mut self, db: &Database, rel: RelationId, tid: TupleId) {
        let symbols = SymbolTable::global();
        for (attr, text) in text_values(db, rel, tid) {
            let loc = Loc::new(rel, attr);
            self.tokenizer.for_each_word(text, |word| {
                self.words += 1;
                let first = || -> LocPostings { Arc::new([(loc, TidList::one(tid))]) };
                let (by_loc, new) = self
                    .postings
                    .get_or_insert_with(symbols.intern(word), first);
                if new {
                    return;
                }
                match find(by_loc, loc) {
                    Ok(i) => cow::make_mut_slice(by_loc)[i].1.insert(tid),
                    Err(i) => *by_loc = cow::slice_with(by_loc, i, (loc, TidList::one(tid))),
                }
            });
        }
    }

    /// Remove one tuple's postings (call before deleting it from `db`).
    /// Undoes exactly what [`InvertedIndex::add_tuple`] did for the tuple,
    /// the word-occurrence count included, so a maintained index and a
    /// rebuilt one report the same [`InvertedIndex::indexed_words`].
    pub fn remove_tuple(&mut self, db: &Database, rel: RelationId, tid: TupleId) {
        let symbols = SymbolTable::global();
        for (attr, text) in text_values(db, rel, tid) {
            let loc = Loc::new(rel, attr);
            self.tokenizer.for_each_word(text, |word| {
                self.words = self.words.saturating_sub(1);
                let Some(sym) = symbols.lookup(word) else {
                    return;
                };
                // A word the tuple is not under (a second removal, or a
                // second occurrence in one value) unshares nothing.
                let listed = |by_loc: &LocPostings| {
                    find(by_loc, loc).is_ok_and(|i| by_loc[i].1.contains(tid))
                };
                let Some(by_loc) = self.postings.get_mut_if(&sym, listed) else {
                    return;
                };
                let i = find(by_loc, loc).expect("probed above");
                if !cow::make_mut_slice(by_loc)[i].1.remove(tid) {
                    return;
                }
                // The location's only tuple: the location goes, and the
                // word's only location: the word.
                if by_loc.len() > 1 {
                    *by_loc = cow::slice_without(by_loc, i);
                } else {
                    self.postings.remove(&sym);
                }
            });
        }
    }

    /// All occurrences of `token` — the paper's
    /// `k_i → {(R_j, A_lj, Tids_lj)}` mapping. `token` may be a multi-word
    /// phrase; a tuple qualifies when its attribute value contains the
    /// phrase's words contiguously and in order.
    ///
    /// Occurrences are sorted by (relation, attribute) and tid lists are
    /// sorted, so results are deterministic. Single-word lookups share the
    /// index's own posting lists (`Arc` clone, no per-tid copying); phrase
    /// lookups intersect the words' postings with galloping search and only
    /// then verify contiguity tuple by tuple.
    pub fn lookup(&self, db: &Database, token: &str) -> Vec<Occurrence> {
        let words = self.tokenizer.words(token);
        if words.is_empty() {
            return Vec::new();
        }
        let table = SymbolTable::global();
        let mut word_postings: Vec<&LocPostings> = Vec::with_capacity(words.len());
        for w in &words {
            // A word the symbol table has never seen is stored nowhere, so
            // the whole phrase misses (and we avoid interning query noise).
            let Some(sym) = table.lookup(w) else {
                return Vec::new();
            };
            let Some(by_loc) = self.postings.get(&sym) else {
                return Vec::new();
            };
            word_postings.push(by_loc);
        }

        let (first, rest) = word_postings.split_first().expect("words is non-empty");
        if rest.is_empty() {
            // Allocation-free warm path: hand out the stored lists.
            return first
                .iter()
                .map(|(loc, tids)| Occurrence {
                    rel: loc.rel(),
                    attr: loc.attr(),
                    tids: tids.shared(),
                })
                .collect();
        }

        let mut out: Vec<Occurrence> = Vec::new();
        'locs: for (loc, first_tids) in first.iter() {
            let (rel, attr) = (loc.rel(), loc.attr());
            // Every word of the phrase must occur at this same location.
            let mut lists: Vec<&[TupleId]> = Vec::with_capacity(words.len());
            lists.push(first_tids.as_slice());
            for by_loc in rest {
                match find(by_loc, *loc) {
                    Ok(i) => lists.push(by_loc[i].1.as_slice()),
                    Err(_) => continue 'locs,
                }
            }
            let candidates = intersect_many(&lists);
            let hits: Vec<TupleId> = candidates
                .into_iter()
                .filter(|&tid| self.phrase_matches(db, rel, attr, tid, &words))
                .collect();
            if !hits.is_empty() {
                out.push(Occurrence {
                    rel,
                    attr,
                    tids: hits.into(),
                });
            }
        }
        out
    }

    /// Verify the phrase occurs contiguously in the stored value.
    fn phrase_matches(
        &self,
        db: &Database,
        rel: RelationId,
        attr: usize,
        tid: TupleId,
        words: &[String],
    ) -> bool {
        let Some(tuple) = db.table(rel).get(tid) else {
            return false;
        };
        let ValueRef::Text(text) = tuple.get(attr) else {
            return false;
        };
        let value_words = self.tokenizer.words(text);
        value_words.windows(words.len()).any(|w| w == words)
    }

    /// Number of distinct indexed words.
    pub fn vocabulary_size(&self) -> usize {
        self.postings.len()
    }

    /// Shards of the word map that `other` does not share by pointer: zero
    /// right after a clone, then one per shard either side has written.
    pub fn unshared_shards(&self, other: &InvertedIndex) -> usize {
        self.postings.unshared_shards(&other.postings)
    }

    /// Total number of word occurrences indexed.
    pub fn indexed_words(&self) -> u64 {
        self.words
    }

    /// Heap bytes behind the index: the word map at its bucket counts, plus
    /// [`InvertedIndex::postings_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.postings.heap_bytes(word_bytes)
    }

    /// Heap bytes behind the word map's values: every word's location slice
    /// and every tid list that is not inline. Unlike the map's own tables
    /// this depends on what is indexed alone, not on how it got there — but
    /// for where a list of more than a segment is cut.
    pub fn postings_bytes(&self) -> usize {
        self.postings.values().map(word_bytes).sum()
    }

    /// Document frequency of a single word: the number of distinct
    /// (relation, attribute, tuple) postings containing it. Phrases return
    /// the df of their rarest word (an upper bound on the phrase's own df).
    pub fn document_frequency(&self, token: &str) -> usize {
        let table = SymbolTable::global();
        let words = self.tokenizer.words(token);
        words
            .iter()
            .map(|w| {
                table
                    .lookup(w)
                    .and_then(|sym| self.postings.get(&sym))
                    .map(|by_loc| by_loc.iter().map(|(_, tids)| tids.len()).sum())
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0)
    }

    /// Inverse document frequency: `ln(1 + total_postings / df)`; rare
    /// tokens score high, missing tokens score 0. The standard IR relevance
    /// ingredient ("IR-style answer-relevance ranking", Related Work \[9\]).
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.document_frequency(token);
        if df == 0 {
            return 0.0;
        }
        (1.0 + self.words as f64 / df as f64).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precis_storage::{DatabaseSchema, RelationSchema, Value};

    fn sample_db() -> Database {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("DIRECTOR")
                .attr_not_null("did", DataType::Int)
                .attr("dname", DataType::Text)
                .attr("blocation", DataType::Text)
                .primary_key("did")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("ACTOR")
                .attr_not_null("aid", DataType::Int)
                .attr("aname", DataType::Text)
                .primary_key("aid")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert(
            "DIRECTOR",
            vec![
                Value::from(1),
                Value::from("Woody Allen"),
                Value::from("Brooklyn, New York, USA"),
            ],
        )
        .unwrap();
        db.insert(
            "DIRECTOR",
            vec![
                Value::from(2),
                Value::from("Allen Smithee"),
                Value::from("Hollywood"),
            ],
        )
        .unwrap();
        db.insert("ACTOR", vec![Value::from(10), Value::from("Woody Allen")])
            .unwrap();
        db
    }

    fn names(db: &Database, occ: &Occurrence) -> (String, String) {
        let r = db.relation_schema(occ.rel);
        (r.name().to_owned(), r.attr_name(occ.attr).to_owned())
    }

    #[test]
    fn single_word_lookup_finds_all_locations() {
        let db = sample_db();
        let idx = InvertedIndex::build(&db);
        let occs = idx.lookup(&db, "allen");
        // DIRECTOR.dname (two tuples) and ACTOR.aname (one tuple).
        assert_eq!(occs.len(), 2);
        let total: usize = occs.iter().map(|o| o.tids.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn single_word_lookup_shares_postings_without_copying() {
        let mut db = sample_db();
        db.insert(
            "DIRECTOR",
            vec![Value::from(3), Value::from("Irwin Allen"), Value::Null],
        )
        .unwrap();
        let idx = InvertedIndex::build(&db);
        let a = idx.lookup(&db, "allen");
        let b = idx.lookup(&db, "allen");
        // The three directors' list is the same `Arc`, not merely equal
        // contents; the one actor is inline in the index and boxed per
        // lookup.
        assert_eq!(a[0].tids.len(), 3);
        assert!(Arc::ptr_eq(&a[0].tids, &b[0].tids));
        assert_eq!(a[1].tids.len(), 1);
        assert_eq!(a[1].tids, b[1].tids);
    }

    #[test]
    fn phrase_lookup_requires_contiguity() {
        let db = sample_db();
        let idx = InvertedIndex::build(&db);
        let occs = idx.lookup(&db, "Woody Allen");
        assert_eq!(occs.len(), 2, "director and actor homonyms");
        for o in &occs {
            assert_eq!(o.tids.len(), 1);
            let (_, attr) = names(&db, o);
            assert!(attr == "dname" || attr == "aname");
        }
        // "Allen Woody" is not contiguous in order anywhere.
        assert!(idx.lookup(&db, "Allen Woody").is_empty());
        // Phrase spanning punctuation still matches the tokenized value.
        let occs = idx.lookup(&db, "new york usa");
        assert_eq!(occs.len(), 1);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let db = sample_db();
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.lookup(&db, "WOODY ALLEN").len(), 2);
        assert_eq!(idx.lookup(&db, "hollywood").len(), 1);
    }

    #[test]
    fn missing_token_and_empty_query() {
        let db = sample_db();
        let idx = InvertedIndex::build(&db);
        assert!(idx.lookup(&db, "scorsese").is_empty());
        assert!(idx.lookup(&db, "  ,;  ").is_empty());
    }

    #[test]
    fn incremental_add_and_remove() {
        let mut db = sample_db();
        let mut idx = InvertedIndex::build(&db);
        let before = idx
            .lookup(&db, "allen")
            .iter()
            .map(|o| o.tids.len())
            .sum::<usize>();
        let tid = db
            .insert("ACTOR", vec![Value::from(11), Value::from("Tim Allen")])
            .unwrap();
        let actor = db.schema().relation_id("ACTOR").unwrap();
        idx.add_tuple(&db, actor, tid);
        let after = idx
            .lookup(&db, "allen")
            .iter()
            .map(|o| o.tids.len())
            .sum::<usize>();
        assert_eq!(after, before + 1);

        idx.remove_tuple(&db, actor, tid);
        db.delete(actor, tid).unwrap();
        let restored = idx
            .lookup(&db, "allen")
            .iter()
            .map(|o| o.tids.len())
            .sum::<usize>();
        assert_eq!(restored, before);
    }

    #[test]
    fn incremental_add_survives_outstanding_lookup_handles() {
        // A held lookup result must not observe later index mutations
        // (copy-on-write via Arc::make_mut).
        let mut db = sample_db();
        let mut idx = InvertedIndex::build(&db);
        let held = idx.lookup(&db, "allen");
        let held_total: usize = held.iter().map(|o| o.tids.len()).sum();
        let tid = db
            .insert("ACTOR", vec![Value::from(11), Value::from("Tim Allen")])
            .unwrap();
        let actor = db.schema().relation_id("ACTOR").unwrap();
        idx.add_tuple(&db, actor, tid);
        let fresh_total: usize = idx.lookup(&db, "allen").iter().map(|o| o.tids.len()).sum();
        assert_eq!(held.iter().map(|o| o.tids.len()).sum::<usize>(), held_total);
        assert_eq!(fresh_total, held_total + 1);
    }

    #[test]
    fn stats_reflect_content() {
        let db = sample_db();
        let idx = InvertedIndex::build(&db);
        assert!(idx.vocabulary_size() >= 8);
        assert!(idx.indexed_words() >= 10);
    }

    #[test]
    fn document_frequency_and_idf() {
        let db = sample_db();
        let idx = InvertedIndex::build(&db);
        // "allen" appears in 3 tuples (2 directors + 1 actor).
        assert_eq!(idx.document_frequency("allen"), 3);
        // "hollywood" appears once.
        assert_eq!(idx.document_frequency("hollywood"), 1);
        assert_eq!(idx.document_frequency("zzz"), 0);
        // Phrase df is bounded by the rarest word.
        assert_eq!(idx.document_frequency("woody allen"), 2);
        // Rare beats common; missing scores zero.
        assert!(idx.idf("hollywood") > idx.idf("allen"));
        assert_eq!(idx.idf("zzz"), 0.0);
    }

    #[test]
    fn repeated_word_in_one_value_indexes_once_per_tuple() {
        let mut db = sample_db();
        let tid = db
            .insert(
                "ACTOR",
                vec![Value::from(12), Value::from("Boutros Boutros")],
            )
            .unwrap();
        let actor = db.schema().relation_id("ACTOR").unwrap();
        let mut idx = InvertedIndex::build(&db);
        let occs = idx.lookup(&db, "boutros");
        assert_eq!(occs.len(), 1);
        assert_eq!(*occs[0].tids, [tid]);
        // And removal clears it fully.
        idx.remove_tuple(&db, actor, tid);
        assert!(idx.lookup(&db, "boutros").is_empty());
    }

    #[test]
    fn out_of_order_adds_keep_postings_sorted() {
        let mut db = sample_db();
        let t1 = db
            .insert("ACTOR", vec![Value::from(21), Value::from("Zed Allen")])
            .unwrap();
        let t2 = db
            .insert("ACTOR", vec![Value::from(22), Value::from("Ada Allen")])
            .unwrap();
        let actor = db.schema().relation_id("ACTOR").unwrap();
        let mut idx = InvertedIndex::default();
        // Index the later tuple first; the list must still come out sorted.
        idx.add_tuple(&db, actor, t2);
        idx.add_tuple(&db, actor, t1);
        idx.add_tuple(&db, actor, t1); // duplicate add is a no-op
        let occs = idx.lookup(&db, "allen");
        assert_eq!(occs.len(), 1);
        assert_eq!(*occs[0].tids, [t1, t2]);
    }
}
