//! The inverted index proper.
//!
//! Postings are keyed by interned symbol id ([`Sym`]) rather than owned
//! strings, each `(relation, attribute)` location holds a **sorted,
//! deduplicated** tid list, and multi-word phrase lookups prefilter
//! candidates with galloping intersection before verifying contiguity
//! against the stored value.
//!
//! Like the storage layer's indexes (`precis_storage::HashIndex`), the word
//! map is a [`Layered`] pair, an immutable base beside a small delta:
//!
//! - the **base**: words sorted by symbol id → each word's locations, in
//!   `(relation, attribute)` order → each location's tids, laid out end to
//!   end in three exact-size arrays with `u32` offsets between them.
//!   [`InvertedIndex::build`] writes it in one go, and it is shared by `Arc`;
//! - the **delta**: a [`ShardedMap`](cow::ShardedMap) from each word a
//!   write has touched since the base was built to the word's whole current
//!   postings — one shared slice of `(location, `[`TidList`]`)` — or to a
//!   mark that the word is gone. It overrides the base.
//!
//! A lookup asks the delta, then the base. [`InvertedIndex::add_tuple`] and
//! [`InvertedIndex::remove_tuple`] change the delta alone — the first write
//! to a word copies its base postings in, a later one copies, of a clone's
//! shared delta, the word's shard, its few locations and the one tid list
//! (or, of a long list, the one segment) it changes — so cloning an index
//! bumps one reference count per delta shard and one for the base. Once
//! [`Layered::merge_if_full`] says so, the delta is merged into a new base
//! built beside the old one, which a snapshot holding it keeps reading.

use crate::postings::intersect_many;
use crate::tokenizer::Tokenizer;
use precis_storage::cow::{self, offset, Base, BaseSize, BaseWriter, Layered};
use precis_storage::{
    DataType, Database, Datum, FxHashMap, RelationId, Sym, SymbolTable, TidList, TupleId, ValueRef,
};
use std::borrow::Cow;
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

/// A word's postings in the delta: one sorted tid list per location,
/// sorted by location, in one exact-size allocation. Shared, so copying a
/// shard of words allocates nothing per word.
type LocPostings = Arc<[(Loc, TidList)]>;

/// Heap bytes behind one word's postings in the delta.
fn word_bytes(by_loc: &LocPostings) -> usize {
    let lists = by_loc.iter().map(|(_, tids)| tids.heap_bytes());
    cow::arc_bytes(std::mem::size_of_val(&**by_loc)) + lists.sum::<usize>()
}

/// Where `loc` is among a word's locations, or where it goes.
fn find(by_loc: &[(Loc, TidList)], loc: Loc) -> Result<usize, usize> {
    by_loc.binary_search_by_key(&loc, |(at, _)| *at)
}

/// A tuple id as the base keeps it: its slot in four bytes — no table has
/// 2^32 slots — where a delta's [`TidList`] and a lookup's [`Occurrence`]
/// hold eight.
fn narrow(tid: TupleId) -> u32 {
    u32::try_from(tid.0).expect("a table holds fewer than 2^32 slots")
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

/// The base: every word's postings, sorted by word, end to end.
#[derive(Debug)]
struct WordBase {
    /// Sorted by symbol id.
    words: Box<[Sym]>,
    /// Word `i`'s locations are `locs[word_offsets[i]..word_offsets[i + 1]]`.
    word_offsets: Box<[u32]>,
    locs: Box<[Loc]>,
    /// Location `j`'s tids are `tids[loc_offsets[j]..loc_offsets[j + 1]]`.
    loc_offsets: Box<[u32]>,
    /// Narrowed ([`narrow`]): half the base's bytes, and lookups copy their
    /// lists out anyway.
    tids: Box<[u32]>,
}

impl Default for WordBase {
    /// No words: what a merge reads where an index has no base yet.
    fn default() -> Self {
        WordBase {
            words: Box::default(),
            word_offsets: Box::new([0]),
            locs: Box::default(),
            loc_offsets: Box::new([0]),
            tids: Box::default(),
        }
    }
}

impl WordBase {
    /// The positions in `locs` of the words at positions `words`.
    fn locs_of(&self, words: Range<usize>) -> Range<usize> {
        self.word_offsets[words.start] as usize..self.word_offsets[words.end] as usize
    }

    /// The positions in `tids` of the locations at positions `locs`.
    fn tids_of(&self, locs: Range<usize>) -> Range<usize> {
        self.loc_offsets[locs.start] as usize..self.loc_offsets[locs.end] as usize
    }

    /// The postings of the word at position `at`.
    fn word(&self, at: usize) -> Postings<'_> {
        Postings::Base(self, self.locs_of(at..at + 1))
    }

    fn get(&self, word: Sym) -> Option<Postings<'_>> {
        self.words.binary_search(&word).ok().map(|at| self.word(at))
    }

    /// The tids at location `j`.
    fn list(&self, j: usize) -> Tids<'_> {
        Tids::Base(&self.tids[self.tids_of(j..j + 1)])
    }
}

impl Base for WordBase {
    type Key = Sym;
    /// `None`: every posting the base holds for the word is gone.
    type Entry = Option<LocPostings>;
    type Writer = WordBaseWriter;

    fn keys(&self) -> &[Sym] {
        &self.words
    }

    fn heap_bytes(&self) -> usize {
        cow::arc_bytes(std::mem::size_of::<WordBase>())
            + cow::boxed_bytes(&self.words)
            + cow::boxed_bytes(&self.word_offsets)
            + cow::boxed_bytes(&self.locs)
            + cow::boxed_bytes(&self.loc_offsets)
            + cow::boxed_bytes(&self.tids)
    }

    fn run_size(&self, run: Range<usize>) -> BaseSize {
        let locs = self.locs_of(run.clone());
        BaseSize {
            keys: run.len(),
            lists: locs.len(),
            tids: self.tids_of(locs).len(),
        }
    }

    fn entry_size(entry: &Option<LocPostings>) -> BaseSize {
        entry.as_deref().map_or(BaseSize::default(), |by_loc| {
            let postings = Postings::Delta(by_loc);
            BaseSize {
                keys: 1,
                lists: postings.len(),
                tids: postings.postings(),
            }
        })
    }
}

/// One location's tids, as the delta or the base keeps them.
#[derive(Debug, Clone, Copy)]
enum Tids<'a> {
    Delta(&'a TidList),
    Base(&'a [u32]),
}

impl<'a> Tids<'a> {
    fn len(self) -> usize {
        match self {
            Tids::Delta(list) => list.len(),
            Tids::Base(tids) => tids.len(),
        }
    }

    fn contains(self, tid: TupleId) -> bool {
        match self {
            Tids::Delta(list) => list.contains(tid),
            Tids::Base(tids) => u32::try_from(tid.0).is_ok_and(|t| tids.binary_search(&t).is_ok()),
        }
    }

    /// Every tid, in order, without putting a long delta list together.
    fn iter(self) -> impl Iterator<Item = TupleId> + 'a {
        let (list, base) = match self {
            Tids::Delta(list) => (Some(list), &[][..]),
            Tids::Base(tids) => (None, tids),
        };
        let list = list.into_iter().flat_map(TidList::iter);
        list.chain(base.iter().map(|tid| TupleId(u64::from(*tid))))
    }

    /// The list as a slice of tuple ids: a delta's borrowed, a base's
    /// widened into a copy.
    fn wide(self) -> Cow<'a, [TupleId]> {
        match self {
            Tids::Delta(list) => Cow::Borrowed(list.as_slice()),
            Tids::Base(_) => Cow::Owned(self.iter().collect()),
        }
    }
}

impl PartialEq for Tids<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A word's postings, wherever they are kept.
#[derive(Debug, Clone)]
enum Postings<'a> {
    Delta(&'a [(Loc, TidList)]),
    /// The base's locations in this range.
    Base(&'a WordBase, Range<usize>),
}

impl<'a> Postings<'a> {
    fn len(&self) -> usize {
        match self {
            Postings::Delta(by_loc) => by_loc.len(),
            Postings::Base(_, locs) => locs.len(),
        }
    }

    /// Location `i` of the word's and its tids.
    fn at(&self, i: usize) -> (Loc, Tids<'a>) {
        match self {
            Postings::Delta(by_loc) => (by_loc[i].0, Tids::Delta(&by_loc[i].1)),
            Postings::Base(base, locs) => (base.locs[locs.start + i], base.list(locs.start + i)),
        }
    }

    /// Every location of the word's with its tids, in location order.
    fn iter(&self) -> impl Iterator<Item = (Loc, Tids<'a>)> + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// The word's tids at `loc`, if it occurs there.
    fn find(&self, loc: Loc) -> Option<Tids<'a>> {
        let at = match self {
            Postings::Delta(by_loc) => find(by_loc, loc).ok()?,
            Postings::Base(base, locs) => base.locs[locs.clone()].binary_search(&loc).ok()?,
        };
        Some(self.at(at).1)
    }

    /// Whether `tid` is among the word's tuples at `loc`.
    fn holds(&self, loc: Loc, tid: TupleId) -> bool {
        self.find(loc).is_some_and(|tids| tids.contains(tid))
    }

    /// Tids over all locations.
    fn postings(&self) -> usize {
        self.iter().map(|(_, tids)| tids.len()).sum()
    }
}

/// The arrays of a [`WordBase`] while they fill: word by word in order at
/// the size they were given, or — a build — all but the tids first.
struct WordBaseWriter {
    words: Vec<Sym>,
    word_offsets: Vec<u32>,
    locs: Vec<Loc>,
    loc_offsets: Vec<u32>,
    tids: Vec<u32>,
}

impl BaseWriter<WordBase> for WordBaseWriter {
    fn with_size(size: BaseSize) -> WordBaseWriter {
        let mut base = WordBaseWriter {
            words: Vec::with_capacity(size.keys),
            word_offsets: Vec::with_capacity(size.keys + 1),
            locs: Vec::with_capacity(size.lists),
            loc_offsets: Vec::with_capacity(size.lists + 1),
            tids: Vec::with_capacity(size.tids),
        };
        base.word_offsets.push(0);
        base.loc_offsets.push(0);
        base
    }

    fn push_run(&mut self, base: &WordBase, run: Range<usize>) {
        let locs = base.locs_of(run.clone());
        let tids = base.tids_of(locs.clone());
        // A run's offsets, moved from where it started in `base` to where it
        // starts here.
        let (from, to) = (locs.start, self.locs.len());
        let word_ends = &base.word_offsets[run.start + 1..=run.end];
        let word_ends = word_ends
            .iter()
            .map(|end| offset(*end as usize - from + to));
        self.word_offsets.extend(word_ends);
        let (from, to) = (tids.start, self.tids.len());
        let loc_ends = &base.loc_offsets[locs.start + 1..=locs.end];
        let loc_ends = loc_ends.iter().map(|end| offset(*end as usize - from + to));
        self.loc_offsets.extend(loc_ends);
        self.words.extend_from_slice(&base.words[run]);
        self.locs.extend_from_slice(&base.locs[locs]);
        self.tids.extend_from_slice(&base.tids[tids]);
    }

    fn push(&mut self, word: Sym, entry: &Option<LocPostings>) {
        let Some(by_loc) = entry else {
            return;
        };
        self.words.push(word);
        for (loc, tids) in Postings::Delta(by_loc).iter() {
            self.locs.push(loc);
            self.tids.extend(tids.iter().map(narrow));
            self.loc_offsets.push(offset(self.tids.len()));
        }
        self.word_offsets.push(offset(self.locs.len()));
    }

    fn finish(self) -> Option<Arc<WordBase>> {
        (!self.words.is_empty()).then(|| {
            Arc::new(WordBase {
                words: self.words.into_boxed_slice(),
                word_offsets: self.word_offsets.into_boxed_slice(),
                locs: self.locs.into_boxed_slice(),
                loc_offsets: self.loc_offsets.into_boxed_slice(),
                tids: self.tids.into_boxed_slice(),
            })
        })
    }
}

/// The word map: a base and the delta over it.
#[derive(Debug, Clone, Default)]
struct WordMap {
    layers: Layered<WordBase>,
}

impl WordMap {
    fn base_get(&self, word: Sym) -> Option<Postings<'_>> {
        self.layers.base().and_then(|base| base.get(word))
    }

    fn get(&self, word: Sym) -> Option<Postings<'_>> {
        match self.layers.delta.get(&word) {
            Some(entry) => entry.as_deref().map(Postings::Delta),
            None => self.base_get(word),
        }
    }

    /// The word's entry in the delta, its base postings copied in if this
    /// is the first write to touch it.
    fn entry_mut(&mut self, word: Sym) -> &mut Option<LocPostings> {
        if !self.layers.delta.contains_key(&word) {
            let copied = self.base_get(word).map(|postings| {
                cow::note_copy(postings.postings() * std::mem::size_of::<TupleId>());
                postings
                    .iter()
                    .map(|(loc, tids)| (loc, TidList::from_sorted(&tids.wide())))
                    .collect::<LocPostings>()
            });
            self.layers.delta.insert_absent(word, copied);
        }
        self.layers.delta.get_mut(&word).expect("inserted above")
    }

    /// Every word with its postings, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (Sym, Postings<'_>)> + '_ {
        let base = self
            .layers
            .kept()
            .map(|(base, at)| (base.words[at], base.word(at)));
        let delta = self
            .layers
            .delta
            .iter()
            .filter_map(|(word, entry)| Some((*word, Postings::Delta(entry.as_deref()?))));
        base.chain(delta)
    }
}

/// One occurrence entry of a token: the `(R_j, A_lj, Tids_lj)` triple the
/// paper's index returns. The tid list is sorted and deduplicated: a
/// single-word lookup copies it out of the index, one allocation a
/// location.
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
/// tids at every location in the same location order (however they are
/// split between base and delta), and the same word-occurrence count.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    tokenizer: Tokenizer,
    postings: WordMap,
    words: u64,
}

impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.tokenizer == other.tokenizer
            && self.words == other.words
            && self.vocabulary_size() == other.vocabulary_size()
            && self.postings.iter().all(|(word, mine)| {
                other
                    .postings
                    .get(word)
                    .is_some_and(|theirs| mine.iter().eq(theirs.iter()))
            })
    }
}

/// One text column's first pass of [`InvertedIndex::build_with`], kept for
/// its second.
struct ColumnPass {
    /// Per distinct value: where its distinct words' runs sit in
    /// `value_runs`, and how many word occurrences it holds.
    values: Vec<(Range<usize>, u64)>,
    /// Run numbers (into the build's `runs`), value by value.
    value_runs: Vec<u32>,
    /// By slot: the row's place in `values`, or [`NO_TEXT`].
    rows: Vec<u32>,
}

/// A row without text in the column.
const NO_TEXT: u32 = u32::MAX;

impl InvertedIndex {
    /// Build the index over every live tuple of `db`.
    pub fn build(db: &Database) -> Self {
        Self::build_with(db, Tokenizer::default())
    }

    /// Build with a custom tokenizer (e.g. with stopwords), straight into
    /// the base.
    ///
    /// A first pass per text column, in schema order, walks the rows in tid
    /// order, tokenizes each *distinct* stored value once (its words are
    /// remembered by the value's symbol) and counts every row towards the
    /// *run* — one word at one location — of each of its value's words. The
    /// runs, sorted by word (and, made in schema order, by location within
    /// a word), say where each starts in the base's one tid array; a second
    /// pass over every column's rows then writes each row's tid at its runs'
    /// next slots. Lists therefore come out sorted and deduplicated with no
    /// searching, every array is allocated once at its exact size, and the
    /// result equals what a tuple-at-a-time [`InvertedIndex::add_tuple`]
    /// loop produces.
    pub fn build_with(db: &Database, tokenizer: Tokenizer) -> Self {
        let symbols = SymbolTable::global();
        let mut words = 0u64;
        // Every run of every column: its word, its location and its length.
        let mut runs: Vec<(Sym, Loc, u32)> = Vec::new();
        let mut columns: Vec<ColumnPass> = Vec::new();
        // By symbol id: the column a stored value was last met in, and its
        // place in that column's `values`. One zeroed allocation serves the
        // whole build; a column touches only its own values' entries. Every
        // stored value was interned before the build began, so its id fits.
        let mut seen: Vec<(u32, u32)> = vec![(0, 0); symbols.len()];
        for (rel, schema) in db.schema().relations() {
            for (attr, def) in schema.attributes().iter().enumerate() {
                if def.ty != DataType::Text {
                    continue;
                }
                let (loc, column) = (Loc::new(rel, attr), offset(columns.len() + 1));
                // This column's words: symbol → run number.
                let mut column_runs: FxHashMap<Sym, u32> = FxHashMap::default();
                let mut pass = ColumnPass {
                    values: Vec::new(),
                    value_runs: Vec::new(),
                    rows: Vec::new(),
                };
                for (tid, tuple) in db.table(rel).iter() {
                    let Datum::Sym(value) = tuple.datum(attr) else {
                        continue;
                    };
                    let id = value.id() as usize;
                    if seen[id].0 != column {
                        let first = pass.value_runs.len();
                        let mut occurrences = 0;
                        tokenizer.for_each_word(value.as_str(), |word| {
                            occurrences += 1;
                            let word = symbols.intern(word);
                            let run = *column_runs.entry(word).or_insert_with(|| {
                                runs.push((word, loc, 0));
                                offset(runs.len() - 1)
                            });
                            if !pass.value_runs[first..].contains(&run) {
                                pass.value_runs.push(run);
                            }
                        });
                        // Distinct values are distinct `u32` symbols, so
                        // their count fits.
                        seen[id] = (column, pass.values.len() as u32);
                        pass.values
                            .push((first..pass.value_runs.len(), occurrences));
                    }
                    pass.rows.resize(tid.as_usize(), NO_TEXT);
                    pass.rows.push(seen[id].1);
                    let (value, occurrences) = &pass.values[seen[id].1 as usize];
                    words += occurrences;
                    for &run in &pass.value_runs[value.clone()] {
                        runs[run as usize].2 += 1;
                    }
                }
                columns.push(pass);
            }
        }
        drop(seen);
        // The runs in base order: by word, and by location within one.
        let mut order: Vec<u32> = (0..offset(runs.len())).collect();
        order.sort_by_key(|&run| runs[run as usize].0);
        let distinct = order.chunk_by(|a, b| runs[*a as usize].0 == runs[*b as usize].0);
        // The tids last: their total is known once the runs are laid out.
        let mut base = WordBaseWriter::with_size(BaseSize {
            keys: distinct.clone().count(),
            lists: runs.len(),
            tids: 0,
        });
        // Where each run's next tid goes, by run number.
        let mut cursors: Vec<u32> = vec![0; runs.len()];
        let mut total = 0;
        for word_runs in distinct {
            base.words.push(runs[word_runs[0] as usize].0);
            for &run in word_runs {
                let (_, loc, len) = runs[run as usize];
                cursors[run as usize] = total;
                total += len;
                base.locs.push(loc);
                base.loc_offsets.push(total);
            }
            base.word_offsets.push(offset(base.locs.len()));
        }
        drop((runs, order));
        base.tids = vec![0; total as usize];
        for pass in columns {
            for (tid, value) in pass.rows.into_iter().enumerate() {
                if value == NO_TEXT {
                    continue;
                }
                let (value, _) = &pass.values[value as usize];
                let tid = narrow(TupleId(tid as u64));
                for &run in &pass.value_runs[value.clone()] {
                    let cursor = &mut cursors[run as usize];
                    base.tids[*cursor as usize] = tid;
                    *cursor += 1;
                }
            }
        }
        InvertedIndex {
            tokenizer,
            postings: WordMap {
                layers: Layered::over(base.finish()),
            },
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
                let word = symbols.intern(word);
                // A second occurrence in one value, or a second add: there
                // is nothing to write, and nothing is copied.
                if self.postings.get(word).is_some_and(|p| p.holds(loc, tid)) {
                    return;
                }
                let entry = self.postings.entry_mut(word);
                match entry {
                    None => *entry = Some(Arc::new([(loc, TidList::one(tid))])),
                    Some(by_loc) => match find(by_loc, loc) {
                        Ok(i) => cow::make_mut_slice(by_loc)[i].1.insert(tid),
                        Err(i) => *by_loc = cow::slice_with(by_loc, i, (loc, TidList::one(tid))),
                    },
                }
            });
        }
        self.postings.layers.merge_if_full();
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
                // A word the tuple is not under (a second removal, or a
                // second occurrence in one value) copies nothing.
                let Some(word) = symbols.lookup(word) else {
                    return;
                };
                if !self.postings.get(word).is_some_and(|p| p.holds(loc, tid)) {
                    return;
                }
                let in_base = self.postings.base_get(word).is_some();
                let entry = self.postings.entry_mut(word);
                let by_loc = entry.as_mut().expect("the tuple is under the word");
                let i = find(by_loc, loc).expect("the tuple is under the word");
                if !cow::make_mut_slice(by_loc)[i].1.remove(tid) {
                    return;
                }
                // The location's only tuple: the location goes, and the
                // word's only location: the word (marked gone, if the base
                // has it).
                if by_loc.len() > 1 {
                    *by_loc = cow::slice_without(by_loc, i);
                } else if in_base {
                    *entry = None;
                } else {
                    self.postings.layers.delta.remove(&word);
                }
            });
        }
        self.postings.layers.merge_if_full();
    }

    /// All occurrences of `token` — the paper's
    /// `k_i → {(R_j, A_lj, Tids_lj)}` mapping. `token` may be a multi-word
    /// phrase; a tuple qualifies when its attribute value contains the
    /// phrase's words contiguously and in order.
    ///
    /// Occurrences are sorted by (relation, attribute) and tid lists are
    /// sorted, so results are deterministic. Single-word lookups copy each
    /// location's list out once; phrase lookups intersect the words' lists
    /// in place with galloping search and only then verify contiguity tuple
    /// by tuple.
    pub fn lookup(&self, db: &Database, token: &str) -> Vec<Occurrence> {
        let words = self.tokenizer.words(token);
        if words.is_empty() {
            return Vec::new();
        }
        let table = SymbolTable::global();
        let mut word_postings: Vec<Postings<'_>> = Vec::with_capacity(words.len());
        for w in &words {
            // A word the symbol table has never seen is stored nowhere, so
            // the whole phrase misses (and we avoid interning query noise).
            let Some(postings) = table.lookup(w).and_then(|sym| self.postings.get(sym)) else {
                return Vec::new();
            };
            word_postings.push(postings);
        }

        let (first, rest) = word_postings.split_first().expect("words is non-empty");
        let occurrence = |loc: Loc, tids: Arc<[TupleId]>| Occurrence {
            rel: loc.rel(),
            attr: loc.attr(),
            tids,
        };
        if rest.is_empty() {
            return first
                .iter()
                .map(|(loc, tids)| occurrence(loc, tids.iter().collect()))
                .collect();
        }

        let mut out: Vec<Occurrence> = Vec::new();
        'locs: for (loc, first_tids) in first.iter() {
            // Every word of the phrase must occur at this same location.
            let mut lists: Vec<Cow<'_, [TupleId]>> = Vec::with_capacity(words.len());
            lists.push(first_tids.wide());
            for postings in rest {
                match postings.find(loc) {
                    Some(tids) => lists.push(tids.wide()),
                    None => continue 'locs,
                }
            }
            let lists: Vec<&[TupleId]> = lists.iter().map(|list| &**list).collect();
            let hits: Vec<TupleId> = intersect_many(&lists)
                .into_iter()
                .filter(|&tid| self.phrase_matches(db, loc.rel(), loc.attr(), tid, &words))
                .collect();
            if !hits.is_empty() {
                out.push(occurrence(loc, hits.into()));
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
        self.postings.iter().count()
    }

    /// Number of `(word, location, tuple)` postings.
    pub fn postings(&self) -> usize {
        self.postings.iter().map(|(_, p)| p.postings()).sum()
    }

    /// Words the delta holds: written since the base was last merged, and
    /// zero right after a build or a merge.
    pub fn delta_words(&self) -> usize {
        self.postings.layers.delta.len()
    }

    /// Pieces of the index that `other` does not share by pointer: zero
    /// right after a clone, then one per delta shard either side has
    /// written, and the base once either side has merged.
    pub fn unshared_pieces(&self, other: &InvertedIndex) -> usize {
        self.postings.layers.unshared_pieces(&other.postings.layers)
    }

    /// Total number of word occurrences indexed.
    pub fn indexed_words(&self) -> u64 {
        self.words
    }

    /// Heap bytes behind the index: the base, and the delta's tables at
    /// their bucket counts with every word's locations and every tid list of
    /// it that is not inline. Right after a build or a merge it is the base
    /// alone, which depends on what is indexed and on nothing else.
    pub fn heap_bytes(&self) -> usize {
        let words = |entry: &Option<LocPostings>| entry.as_ref().map_or(0, word_bytes);
        self.postings.layers.heap_bytes(words)
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
                    .and_then(|sym| self.postings.get(sym))
                    .map_or(0, |postings| postings.postings())
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
    fn a_lookup_reads_the_base_and_the_delta_over_it() {
        let mut db = sample_db();
        // Words enough that a delta of two is not yet due to be merged.
        for aid in 100..140 {
            let name = format!("Extra{aid} Person{aid}");
            db.insert("ACTOR", vec![Value::from(aid), Value::from(name)])
                .unwrap();
        }
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.delta_words(), 0);
        let tid = db
            .insert(
                "DIRECTOR",
                vec![Value::from(3), Value::from("Irwin Allen"), Value::Null],
            )
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let mut grown = idx.clone();
        grown.add_tuple(&db, dir, tid);
        // Two words written: "irwin", new, and "allen", copied in from the
        // base with its two locations and grown at one.
        assert_eq!(grown.delta_words(), 2);
        let a = grown.lookup(&db, "allen");
        assert_eq!((a[0].tids.len(), a[1].tids.len()), (3, 1));
        assert_eq!(grown, InvertedIndex::build(&db));
        // The index it was cloned from shares the base and reads as it did.
        assert_eq!(grown.unshared_pieces(&idx), 0);
        assert_eq!(idx.lookup(&db, "allen")[0].tids.len(), 2);
        assert!(idx.lookup(&db, "irwin").is_empty());
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
