//! Indexes on attributes: an immutable sorted base beside a small delta.
//!
//! The paper assumes "indexes on all join attributes" (§6); `Database`
//! maintains a [`UniqueIndex`] for every primary key and a [`HashIndex`] for
//! every other foreign-key endpoint — an attribute is indexed once, so a
//! join into a primary key is answered by the key's own index.
//!
//! A key is one word — a scalar's bits, or a text's interned symbol. An
//! index is on one typed column and holds keys of that type alone, so the
//! type is not in the key; `Database`, which knows the column's type, turns
//! a probe with a value of another type into a miss before it gets here
//! (the same bits would otherwise find a different value). A key's tuple
//! ids come out sorted, which makes them mergeable/intersectable by the
//! galloping routines in `precis-index` and means "insertion order" and
//! "tid order" coincide for append-only tables.
//!
//! Almost every key arrives in a bulk load and is never written again, so
//! an index is a [`Layered`] pair:
//!
//! - the **base**: immutable, exact-size and sorted by key — a
//!   `UniqueIndex`'s keys beside their tids (16 bytes a key), a
//!   `HashIndex`'s distinct keys, `u32` offsets and tids (CSR) — behind an
//!   `Arc`, so a clone shares it;
//! - the **delta**: a [`ShardedMap`](crate::cow::ShardedMap) holding, for
//!   each key a write has touched since the base was built, the key's whole
//!   current entry (a tid, a [`TidList`]) or a mark that the key is gone. It
//!   overrides the base.
//!
//! A probe asks the delta, then the base (a directory load and a binary
//! search of a bucket), and hands out a slice borrowed from either. A write
//! changes the delta alone, copying the key's base entry in the first time it
//! touches one; a write that changes nothing copies nothing. Once
//! [`Layered::merge_if_full`] says so, the two are merged into a new base
//! built beside the old one — a snapshot holding the old base reads it
//! still. The indexes of a result database stay under the rule's floor: one
//! inline map each, never merged.

use crate::cow::{self, Base, BaseSize, BaseWriter, Layered};
use crate::tidlist::TidList;
use crate::tuple::TupleId;
use crate::value::Datum;
use std::ops::Range;
use std::sync::Arc;

/// One-word index key: the bits of a non-null [`Datum`] (a float by bit
/// pattern, so NaN equals NaN, matching [`crate::Value`] equality). A base
/// is sorted by these bits, which is an order like any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct IndexKey(u64);

impl IndexKey {
    /// `None` for `Null` — nulls are never indexed.
    fn of(d: Datum) -> Option<IndexKey> {
        match d {
            Datum::Null => None,
            Datum::Int(i) => Some(IndexKey(i as u64)),
            Datum::Float(f) => Some(IndexKey(f.to_bits())),
            Datum::Bool(b) => Some(IndexKey(b as u64)),
            Datum::Sym(s) => Some(IndexKey(s.id() as u64)),
        }
    }
}

/// A base's keys, sorted and distinct, with a directory that finds a key
/// without a binary search over all of them: the high bits of the key's
/// distance from the smallest key pick a bucket, the directory says where
/// the bucket's keys start, and a binary search over those few finishes.
/// A binary search of every key costs ~2× a hash probe on 50,000 of them
/// (half its steps miss the cache); the directory's one load and a bucket
/// of one or two cache lines cost about what the probe costs. Keys that
/// crowd into one bucket — a far outlier stretching the range — fall back
/// to that bucket's binary search, never worse than the whole one.
#[derive(Debug)]
struct SortedKeys {
    keys: Box<[IndexKey]>,
    /// Bucket `b`'s keys are `keys[directory[b]..directory[b + 1]]`.
    directory: Box<[u32]>,
    /// A key's bucket is `(key - keys[0]) >> shift`; under 64.
    shift: u32,
}

/// Keys a directory bucket holds on average, give or take a factor of two:
/// its binary search stays within a cache line or two, and the directory
/// costs 4 bytes a bucket.
const BUCKET_KEYS: usize = 8;

impl SortedKeys {
    fn new(keys: Vec<IndexKey>) -> SortedKeys {
        // Two buckets at least, so the shift stays under 64 however far
        // apart the keys are (a negative integer's bits are near the top).
        let bits = (keys.len() / BUCKET_KEYS).max(2).ilog2();
        let span = match (keys.first(), keys.last()) {
            (Some(first), Some(last)) => last.0 - first.0,
            _ => 0,
        };
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(bits);
        let mut directory = Vec::with_capacity((1 << bits) + 1);
        for (at, key) in keys.iter().enumerate() {
            let bucket = ((key.0 - keys[0].0) >> shift) as usize;
            directory.resize(directory.len().max(bucket + 1), cow::offset(at));
        }
        directory.resize((1 << bits) + 1, cow::offset(keys.len()));
        SortedKeys {
            keys: keys.into_boxed_slice(),
            directory: directory.into_boxed_slice(),
            shift,
        }
    }

    /// Where `key` is, if it is here.
    #[inline]
    fn position(&self, key: IndexKey) -> Option<usize> {
        let distance = key.0.checked_sub(self.keys.first()?.0)?;
        let bucket = (distance >> self.shift) as usize;
        let (end, start) = (*self.directory.get(bucket + 1)?, self.directory[bucket]);
        let bucket = &self.keys[start as usize..end as usize];
        bucket
            .binary_search(&key)
            .ok()
            .map(|at| start as usize + at)
    }

    fn heap_bytes(&self) -> usize {
        cow::boxed_bytes(&self.keys) + cow::boxed_bytes(&self.directory)
    }
}

impl Default for SortedKeys {
    /// No keys: what a merge reads where an index has no base yet.
    fn default() -> Self {
        SortedKeys::new(Vec::new())
    }
}

/// Each tuple's datum and tid, nulls included, as `(key, tid)` pairs sorted
/// by key and then tid, nulls dropped: what a base is built from.
fn sorted_pairs(entries: impl IntoIterator<Item = (Datum, TupleId)>) -> Vec<(IndexKey, TupleId)> {
    let mut pairs: Vec<(IndexKey, TupleId)> = entries
        .into_iter()
        .filter_map(|(datum, tid)| Some((IndexKey::of(datum)?, tid)))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// A [`HashIndex`]'s base: its distinct keys, sorted, and their tid lists
/// end to end.
#[derive(Debug)]
struct HashBase {
    keys: SortedKeys,
    /// Key `i`'s tids are `tids[offsets[i]..offsets[i + 1]]`.
    offsets: Box<[u32]>,
    tids: Box<[TupleId]>,
}

impl Default for HashBase {
    /// No keys: what a merge reads where an index has no base yet.
    fn default() -> Self {
        HashBase {
            keys: SortedKeys::default(),
            offsets: Box::new([0]),
            tids: Box::default(),
        }
    }
}

impl HashBase {
    /// The tids of the keys at positions `keys`, end to end.
    fn lists(&self, keys: Range<usize>) -> &[TupleId] {
        &self.tids[self.offsets[keys.start] as usize..self.offsets[keys.end] as usize]
    }

    /// The tids of the key at position `at`.
    fn list(&self, at: usize) -> &[TupleId] {
        self.lists(at..at + 1)
    }

    fn get(&self, key: IndexKey) -> &[TupleId] {
        self.keys.position(key).map_or(&[], |at| self.list(at))
    }
}

impl Base for HashBase {
    type Key = IndexKey;
    /// `None`: every posting the base holds under the key is gone.
    type Entry = Option<TidList>;
    type Writer = HashBaseWriter;

    fn keys(&self) -> &[IndexKey] {
        &self.keys.keys
    }

    fn heap_bytes(&self) -> usize {
        cow::arc_bytes(std::mem::size_of::<HashBase>())
            + self.keys.heap_bytes()
            + cow::boxed_bytes(&self.offsets)
            + cow::boxed_bytes(&self.tids)
    }

    fn run_size(&self, run: Range<usize>) -> BaseSize {
        BaseSize {
            keys: run.len(),
            tids: self.lists(run).len(),
            ..BaseSize::default()
        }
    }

    fn entry_size(entry: &Option<TidList>) -> BaseSize {
        entry.as_ref().map_or(BaseSize::default(), |list| BaseSize {
            keys: 1,
            tids: list.len(),
            ..BaseSize::default()
        })
    }
}

/// A [`HashBase`] being laid out, key by key in order, at the size it was
/// told.
struct HashBaseWriter {
    keys: Vec<IndexKey>,
    offsets: Vec<u32>,
    tids: Vec<TupleId>,
}

impl HashBaseWriter {
    fn end(&self) -> u32 {
        cow::offset(self.tids.len())
    }

    fn push_list(&mut self, key: IndexKey, tids: impl IntoIterator<Item = TupleId>) {
        self.keys.push(key);
        self.tids.extend(tids);
        self.offsets.push(self.end());
    }
}

impl BaseWriter<HashBase> for HashBaseWriter {
    fn with_size(size: BaseSize) -> HashBaseWriter {
        let mut offsets = Vec::with_capacity(size.keys + 1);
        offsets.push(0);
        HashBaseWriter {
            keys: Vec::with_capacity(size.keys),
            offsets,
            tids: Vec::with_capacity(size.tids),
        }
    }

    fn push_run(&mut self, base: &HashBase, run: Range<usize>) {
        let (from, to) = (self.end(), base.offsets[run.start]);
        self.keys.extend_from_slice(&base.keys.keys[run.clone()]);
        self.tids.extend_from_slice(base.lists(run.clone()));
        let ends = &base.offsets[run.start + 1..=run.end];
        self.offsets.extend(ends.iter().map(|end| end - to + from));
    }

    fn push(&mut self, key: IndexKey, entry: &Option<TidList>) {
        if let Some(list) = entry {
            self.push_list(key, list.iter());
        }
    }

    fn finish(self) -> Option<Arc<HashBase>> {
        debug_assert_eq!(self.keys.capacity(), self.keys.len(), "sized as told");
        (!self.keys.is_empty()).then(|| {
            Arc::new(HashBase {
                keys: SortedKeys::new(self.keys),
                offsets: self.offsets.into_boxed_slice(),
                tids: self.tids.into_boxed_slice(),
            })
        })
    }
}

/// A non-unique index: value → sorted list of tuple ids.
///
/// A key's list in the delta is a [`TidList`]: inline for one tid or two,
/// so a result database's index allocates nothing per key until a third
/// posting arrives.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    layers: Layered<HashBase>,
}

impl HashIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// An index over `entries` — each tuple's datum and tid, nulls
    /// included — built straight into an exact-size base.
    pub(crate) fn build(entries: impl IntoIterator<Item = (Datum, TupleId)>) -> Self {
        let pairs = sorted_pairs(entries);
        let lists = || pairs.chunk_by(|a, b| a.0 == b.0);
        let mut base = HashBaseWriter::with_size(BaseSize {
            keys: lists().count(),
            tids: pairs.len(),
            ..BaseSize::default()
        });
        for list in lists() {
            base.push_list(list[0].0, list.iter().map(|(_, tid)| *tid));
        }
        HashIndex {
            layers: Layered::over(base.finish()),
        }
    }

    /// Pre-size the delta for `additional` more distinct keys, if it will
    /// hold them inline (a result database being filled).
    pub fn reserve(&mut self, additional: usize) {
        self.layers.delta.reserve(additional);
    }

    fn base_get(&self, key: IndexKey) -> &[TupleId] {
        self.layers.base().map_or(&[], |base| base.get(key))
    }

    /// Insert a posting for a non-null datum (nulls are ignored).
    pub fn insert(&mut self, datum: Datum, tid: TupleId) {
        let Some(key) = IndexKey::of(datum) else {
            return;
        };
        let delta = &mut self.layers.delta;
        let holds = |entry: &Option<TidList>| entry.as_ref().is_some_and(|list| list.contains(tid));
        if let Some(entry) = delta.get_mut_if(&key, |entry| !holds(entry)) {
            match entry {
                Some(list) => list.insert(tid),
                gone => *gone = Some(TidList::one(tid)),
            }
            return;
        }
        if delta.contains_key(&key) {
            return; // and holds the tid already
        }
        let base = self.base_get(key);
        let Err(at) = base.binary_search(&tid) else {
            return;
        };
        // A key new to the base copies nothing; a base key's list is copied
        // in, grown by the tid.
        let list = if base.is_empty() {
            TidList::one(tid)
        } else {
            cow::note_copy(std::mem::size_of_val(base));
            let tids: Vec<TupleId> = base[..at]
                .iter()
                .chain([&tid])
                .chain(&base[at..])
                .copied()
                .collect();
            TidList::from_sorted(&tids)
        };
        self.layers.delta.insert_absent(key, Some(list));
        self.layers.merge_if_full();
    }

    /// Remove a posting. One that is not there copies nothing.
    pub fn remove(&mut self, datum: Datum, tid: TupleId) {
        let Some(key) = IndexKey::of(datum) else {
            return;
        };
        match self.layers.delta.get(&key) {
            Some(Some(list)) if list.contains(tid) => {
                let in_base = !self.base_get(key).is_empty();
                let delta = &mut self.layers.delta;
                let entry = delta.get_mut(&key).expect("probed above");
                // Its last tid: the key goes, or is marked gone from the base.
                if entry.as_mut().is_some_and(|list| list.remove(tid)) {
                    if in_base {
                        *entry = None;
                    } else {
                        delta.remove(&key);
                    }
                }
            }
            Some(_) => {}
            None => {
                let base = self.base_get(key);
                let Ok(at) = base.binary_search(&tid) else {
                    return;
                };
                cow::note_copy(std::mem::size_of_val(base));
                let rest: Vec<TupleId> =
                    base[..at].iter().chain(&base[at + 1..]).copied().collect();
                let entry = (!rest.is_empty()).then(|| TidList::from_sorted(&rest));
                self.layers.delta.insert_absent(key, entry);
                self.layers.merge_if_full();
            }
        }
    }

    /// Tuple ids whose indexed attribute equals `datum`, in ascending tid
    /// order (== insertion order for append-only tables).
    #[inline]
    pub fn get(&self, datum: Datum) -> &[TupleId] {
        let Some(key) = IndexKey::of(datum) else {
            return &[];
        };
        match self.layers.delta.get(&key) {
            Some(entry) => entry.as_ref().map_or(&[], TidList::as_slice),
            None => self.base_get(key),
        }
    }

    /// The length of every key's list, in no particular order.
    fn lists(&self) -> impl Iterator<Item = usize> + '_ {
        let base = self.layers.kept().map(|(base, at)| base.list(at).len());
        base.chain(self.layers.delta.values().flatten().map(TidList::len))
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.lists().count()
    }

    /// Total number of postings.
    pub fn postings(&self) -> usize {
        self.lists().sum()
    }

    /// Pieces of this index that `other` does not share by pointer: the
    /// delta's shards, and the base once either side has merged.
    pub(crate) fn unshared_pieces(&self, other: &HashIndex) -> usize {
        self.layers.unshared_pieces(&other.layers)
    }

    /// Heap bytes behind this index: the delta's tables at their bucket
    /// counts and every list of it that is not inline, and the base.
    pub fn heap_bytes(&self) -> usize {
        let lists = |entry: &Option<TidList>| entry.as_ref().map_or(0, TidList::heap_bytes);
        self.layers.heap_bytes(lists)
    }
}

/// A tid no tuple has: the delta's mark that a base key is gone.
const GONE: TupleId = TupleId(u64::MAX);

/// A [`UniqueIndex`]'s base: its keys, sorted, beside their tids.
#[derive(Debug, Default)]
struct UniqueBase {
    keys: SortedKeys,
    tids: Box<[TupleId]>,
}

impl UniqueBase {
    fn get(&self, key: IndexKey) -> Option<&TupleId> {
        self.keys.position(key).map(|at| &self.tids[at])
    }
}

impl Base for UniqueBase {
    type Key = IndexKey;
    /// [`GONE`]: the key the base holds was removed.
    type Entry = TupleId;
    type Writer = UniqueBaseWriter;

    fn keys(&self) -> &[IndexKey] {
        &self.keys.keys
    }

    fn heap_bytes(&self) -> usize {
        cow::arc_bytes(std::mem::size_of::<UniqueBase>())
            + self.keys.heap_bytes()
            + cow::boxed_bytes(&self.tids)
    }

    fn run_size(&self, run: Range<usize>) -> BaseSize {
        BaseSize {
            keys: run.len(),
            ..BaseSize::default()
        }
    }

    fn entry_size(tid: &TupleId) -> BaseSize {
        BaseSize {
            keys: usize::from(*tid != GONE),
            ..BaseSize::default()
        }
    }
}

/// A [`UniqueBase`] being laid out: its keys and, beside them, their tids.
struct UniqueBaseWriter {
    keys: Vec<IndexKey>,
    tids: Vec<TupleId>,
}

impl BaseWriter<UniqueBase> for UniqueBaseWriter {
    fn with_size(size: BaseSize) -> UniqueBaseWriter {
        UniqueBaseWriter {
            keys: Vec::with_capacity(size.keys),
            tids: Vec::with_capacity(size.keys),
        }
    }

    fn push_run(&mut self, base: &UniqueBase, run: Range<usize>) {
        self.keys.extend_from_slice(&base.keys.keys[run.clone()]);
        self.tids.extend_from_slice(&base.tids[run]);
    }

    fn push(&mut self, key: IndexKey, tid: &TupleId) {
        if *tid != GONE {
            self.keys.push(key);
            self.tids.push(*tid);
        }
    }

    fn finish(self) -> Option<Arc<UniqueBase>> {
        (!self.keys.is_empty()).then(|| {
            Arc::new(UniqueBase {
                keys: SortedKeys::new(self.keys),
                tids: self.tids.into_boxed_slice(),
            })
        })
    }
}

/// A unique index (primary keys): value → single tuple id.
#[derive(Debug, Clone, Default)]
pub struct UniqueIndex {
    layers: Layered<UniqueBase>,
}

impl UniqueIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// An index over `entries` — each tuple's key and tid, no key twice —
    /// built straight into an exact-size base.
    pub(crate) fn build(entries: impl IntoIterator<Item = (Datum, TupleId)>) -> Self {
        let pairs = sorted_pairs(entries);
        debug_assert!(pairs.windows(2).all(|w| w[0].0 != w[1].0), "a key twice");
        let (keys, tids) = pairs.into_iter().unzip();
        let base = UniqueBaseWriter { keys, tids };
        UniqueIndex {
            layers: Layered::over(base.finish()),
        }
    }

    /// Pre-size the delta for `additional` more keys, if it will hold them
    /// inline (a result database being filled).
    pub fn reserve(&mut self, additional: usize) {
        self.layers.delta.reserve(additional);
    }

    fn base_get(&self, key: IndexKey) -> Option<&TupleId> {
        self.layers.base().and_then(|base| base.get(key))
    }

    /// Insert a key; returns `false` (and leaves the index unchanged, and
    /// everything as shared as it was) if the key is already present.
    pub fn insert(&mut self, datum: Datum, tid: TupleId) -> bool {
        let Some(key) = IndexKey::of(datum) else {
            return false;
        };
        if self.base_get(key).is_some() {
            // Free again only if the delta marks it gone.
            let gone = self.layers.delta.get_mut_if(&key, |t| *t == GONE);
            return gone.map(|gone| *gone = tid).is_some();
        }
        // Not in the base: the delta holds it live, or not at all.
        let new = self.layers.delta.insert_absent(key, tid);
        if new {
            self.layers.merge_if_full();
        }
        new
    }

    pub fn remove(&mut self, datum: Datum) -> Option<TupleId> {
        let key = IndexKey::of(datum)?;
        let in_base = self.base_get(key).is_some();
        let delta = &mut self.layers.delta;
        match delta.get(&key).copied() {
            Some(GONE) => None,
            Some(tid) => {
                if in_base {
                    *delta.get_mut(&key).expect("probed above") = GONE;
                } else {
                    delta.remove(&key);
                }
                Some(tid)
            }
            None => {
                let tid = *self.base_get(key)?;
                self.layers.delta.insert_absent(key, GONE);
                self.layers.merge_if_full();
                Some(tid)
            }
        }
    }

    /// The tuple holding key `datum`, as the list of at most one tid a
    /// [`HashIndex`] on the attribute would hold.
    #[inline]
    pub fn get(&self, datum: Datum) -> &[TupleId] {
        let Some(key) = IndexKey::of(datum) else {
            return &[];
        };
        let tid = match self.layers.delta.get(&key) {
            Some(tid) => (*tid != GONE).then_some(tid),
            None => self.base_get(key),
        };
        tid.map_or(&[], std::slice::from_ref)
    }

    pub fn len(&self) -> usize {
        let live = self.layers.delta.values().filter(|tid| **tid != GONE);
        self.layers.kept().count() + live.count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pieces of this index that `other` does not share by pointer: the
    /// delta's shards, and the base once either side has merged.
    pub(crate) fn unshared_pieces(&self, other: &UniqueIndex) -> usize {
        self.layers.unshared_pieces(&other.layers)
    }

    /// Heap bytes behind this index: the delta's tables at their bucket
    /// counts, and the base.
    pub fn heap_bytes(&self) -> usize {
        self.layers.heap_bytes(|_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cow::{Copied, CopyMeter, DELTA_SHARE, INLINE_KEYS};
    use crate::value::Value;
    use std::collections::BTreeMap;

    fn int(i: i64) -> Datum {
        Datum::Int(i)
    }

    /// Keys the delta holds, and whether the index has a base.
    fn parts<B: Base>(layers: &Layered<B>) -> (usize, bool) {
        (layers.delta.len(), layers.base().is_some())
    }

    #[test]
    fn an_entry_costs_what_its_key_costs() {
        // And an index what its delta map and base pointer cost: a result
        // database makes a dozen per answer, and eight bytes more put them
        // (and the lists of them) in allocator size classes that read 45 %
        // slower to make and drop.
        assert_eq!(std::mem::size_of::<HashIndex>(), 64);
        assert_eq!(std::mem::size_of::<UniqueIndex>(), 64);
        assert_eq!(std::mem::size_of::<IndexKey>(), 8);
        assert_eq!(std::mem::size_of::<(IndexKey, TupleId)>(), 16);
        assert_eq!(std::mem::size_of::<(IndexKey, Option<TidList>)>(), 32);
    }

    #[test]
    fn a_base_finds_every_key_and_no_other_however_its_keys_spread() {
        let dense: Vec<u64> = (0..1_000).collect();
        let sparse: Vec<u64> = (0..1_000u64).map(|k| k * k * 7 + 3).collect();
        // Negative integers: the largest keys by their bits, far from the rest.
        let split: Vec<u64> = (0..500)
            .chain((0..500).map(|k| (-1 - k as i64) as u64))
            .collect();
        let mut lopsided: Vec<u64> = (0..999).collect();
        lopsided.push(u64::MAX);
        // A few keys more than half the word apart: one negative integer
        // beside a non-negative one, or floats of both signs.
        let signed = [[-1, 5], [0, -1], [i64::MIN, i64::MAX]].map(|k| k.map(|k| k as u64).to_vec());
        let floats = [-0.5f64, 0.5, -0.0, f64::NAN].map(f64::to_bits).to_vec();
        let small = signed.into_iter().chain([floats, vec![5], vec![]]);
        for mut keys in [dense, sparse, split, lopsided].into_iter().chain(small) {
            keys.sort_unstable();
            let base = SortedKeys::new(keys.iter().map(|k| IndexKey(*k)).collect());
            for (at, key) in keys.iter().enumerate() {
                assert_eq!(base.position(IndexKey(*key)), Some(at), "{key}");
                for miss in [key.wrapping_sub(1), key.wrapping_add(1)] {
                    let expected = keys.binary_search(&miss).ok();
                    assert_eq!(base.position(IndexKey(miss)), expected, "{miss}");
                }
            }
            // One or two cache lines a bucket, and a directory of at most
            // half a word a key (or two buckets).
            assert!(base.directory.len() <= (keys.len() / BUCKET_KEYS).max(2) + 1);
        }
    }

    #[test]
    fn hash_index_multimap_semantics() {
        let mut idx = HashIndex::new();
        idx.insert(int(1), TupleId(0));
        idx.insert(int(1), TupleId(2));
        idx.insert(int(2), TupleId(1));
        idx.insert(Datum::Null, TupleId(3));
        assert_eq!(idx.get(int(1)), &[TupleId(0), TupleId(2)]);
        assert_eq!(idx.get(int(3)), &[] as &[TupleId]);
        assert_eq!(idx.get(Datum::Null), &[] as &[TupleId]);
        assert_eq!(idx.distinct_values(), 2);
        assert_eq!(idx.postings(), 3);
    }

    #[test]
    fn hash_index_remove_cleans_empty_entries() {
        let mut idx = HashIndex::new();
        idx.insert(int(1), TupleId(0));
        idx.remove(int(1), TupleId(0));
        assert_eq!(idx.distinct_values(), 0);
        // Removing a missing posting is a no-op.
        idx.remove(int(1), TupleId(9));
    }

    #[test]
    fn a_clone_is_a_stable_snapshot_of_base_and_delta() {
        let built = HashIndex::build([(int(1), TupleId(0)), (int(1), TupleId(2))]);
        assert_eq!(parts(&built.layers), (0, true));
        let mut idx = built.clone();
        // Writes after the clone leave it as it was, base and delta alike.
        idx.insert(int(1), TupleId(5));
        idx.remove(int(1), TupleId(0));
        idx.insert(int(3), TupleId(6));
        let snapshot = idx.clone();
        idx.remove(int(3), TupleId(6));
        assert_eq!(built.get(int(1)), &[TupleId(0), TupleId(2)]);
        assert_eq!(idx.get(int(1)), &[TupleId(2), TupleId(5)]);
        assert_eq!(snapshot.get(int(3)), &[TupleId(6)]);
        assert!(idx.get(int(3)).is_empty());
        // The last posting of a base key marks it gone; a new one revives it.
        idx.remove(int(1), TupleId(2));
        idx.remove(int(1), TupleId(5));
        assert!(idx.get(int(1)).is_empty());
        assert_eq!((idx.distinct_values(), idx.postings()), (0, 0));
        idx.insert(int(1), TupleId(7));
        assert_eq!(idx.get(int(1)), &[TupleId(7)]);
        assert_eq!(built.get(int(1)), &[TupleId(0), TupleId(2)]);
    }

    #[test]
    fn postings_stay_sorted_under_out_of_order_inserts() {
        let mut idx = HashIndex::build([(int(1), TupleId(4))]);
        for tid in [5u64, 1, 9, 3, 7] {
            idx.insert(int(1), TupleId(tid));
        }
        assert_eq!(
            idx.get(int(1)),
            &[1, 3, 4, 5, 7, 9].map(TupleId),
            "the base's list copied in and grown in order"
        );
    }

    #[test]
    fn floats_are_keyed_by_bit_pattern() {
        let mut floats = HashIndex::new();
        floats.insert(Datum::Float(f64::NAN), TupleId(2));
        floats.insert(Datum::Float(0.0), TupleId(3));
        assert_eq!(floats.get(Datum::Float(f64::NAN)), &[TupleId(2)]);
        assert!(floats.get(Datum::Float(-0.0)).is_empty());
        let built = HashIndex::build([(Datum::Float(f64::NAN), TupleId(2))]);
        assert_eq!(built.get(Datum::Float(f64::NAN)), &[TupleId(2)]);
    }

    #[test]
    fn un_interned_text_probes_miss_without_interning() {
        let mut idx = HashIndex::new();
        idx.insert(Datum::from_value(&Value::from("idx-stored")), TupleId(0));
        let before = crate::sym::SymbolTable::global().len();
        assert_eq!(
            Datum::probe_value(&Value::from("idx-never-stored-zz")),
            None
        );
        assert_eq!(crate::sym::SymbolTable::global().len(), before);
        let stored = Datum::probe_value(&Value::from("idx-stored")).unwrap();
        assert_eq!(idx.get(stored), &[TupleId(0)]);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let k = Datum::from_value(&Value::from("k"));
        for mut idx in [UniqueIndex::new(), UniqueIndex::build([(k, TupleId(0))])] {
            let fresh = idx.is_empty();
            assert_eq!(idx.insert(k, TupleId(0)), fresh);
            assert!(!idx.insert(k, TupleId(1)));
            assert!(!idx.insert(Datum::Null, TupleId(1)));
            assert_eq!(idx.get(k), &[TupleId(0)]);
            assert_eq!(idx.len(), 1);
            assert_eq!(idx.remove(k), Some(TupleId(0)));
            assert_eq!(idx.remove(k), None);
            assert!(idx.is_empty() && idx.get(k).is_empty());
            assert!(idx.insert(k, TupleId(3)), "a removed key is free again");
            assert_eq!(idx.get(k), &[TupleId(3)]);
        }
    }

    #[test]
    fn a_refused_duplicate_and_a_no_op_remove_copy_nothing() {
        let keys = 40 * crate::cow::SHARD_KEYS as i64;
        let unique = UniqueIndex::build((0..keys).map(|k| (int(k), TupleId(k as u64))));
        let hash = HashIndex::build((0..keys).map(|k| (int(k / 2), TupleId(k as u64))));
        let (mut unique, mut hash, snapshot, hash_snapshot) =
            (unique.clone(), hash.clone(), unique, hash);
        let meter = CopyMeter::new();
        for k in (0..keys).step_by(7) {
            assert!(!unique.insert(int(k), TupleId(0)), "a duplicate key");
            // Not in the key's list; no such key; already in the list.
            hash.remove(int(k / 2), TupleId(keys as u64));
            hash.remove(int(keys), TupleId(0));
            hash.insert(int(k / 2), TupleId(k as u64));
        }
        assert_eq!(meter.copied().pieces, 0);
        assert_eq!(unique.unshared_pieces(&snapshot), 0);
        assert_eq!(hash.unshared_pieces(&hash_snapshot), 0);
        assert_eq!(parts(&hash.layers), (0, true));
        // The writes that do happen copy what they change: a key new to the
        // base goes to the delta and copies nothing, a base key's list is
        // copied into the delta once.
        assert!(unique.insert(int(keys), TupleId(keys as u64)));
        hash.insert(int(keys), TupleId(keys as u64));
        assert_eq!(meter.copied(), Copied::default(), "a new key");
        hash.remove(int(0), TupleId(1));
        hash.insert(int(0), TupleId(keys as u64));
        let copied = meter.copied();
        assert_eq!((copied.pieces, copied.bytes), (1, 16), "{copied:?}");
        assert_eq!(hash.get(int(0)), &[TupleId(0), TupleId(keys as u64)]);
        assert_eq!(hash_snapshot.get(int(0)), &[TupleId(0), TupleId(1)]);
    }

    #[test]
    fn a_bulk_loaded_unique_index_costs_at_most_18_bytes_a_key() {
        // Inserted one key at a time, as a generator, `io::load` and
        // recovery insert: the delta is merged away as it grows, and what
        // is left of it when the load ends is under one key in eight.
        let keys = 100_000;
        let mut idx = UniqueIndex::new();
        for k in 0..keys {
            idx.insert(int(k * 3), TupleId(k as u64));
        }
        assert!(idx.layers.delta.len() <= keys as usize / DELTA_SHARE);
        let per_key = idx.heap_bytes() as f64 / keys as f64;
        assert!((16.0..=18.0).contains(&per_key), "{per_key:.1} B/key");
        // Built in one go, it is the base alone: 16 bytes a key and its
        // share of the directory.
        let built = UniqueIndex::build((0..keys).map(|k| (int(k * 3), TupleId(k as u64))));
        let per_key = built.heap_bytes() as f64 / keys as f64;
        assert!((16.0..=16.5).contains(&per_key), "{per_key:.3} B/key");
    }

    #[test]
    fn a_delta_is_merged_beside_the_base_a_snapshot_still_reads() {
        let n = INLINE_KEYS as u64;
        let mut idx = HashIndex::new();
        for tid in 0..n {
            idx.insert(int(tid as i64 % 700), TupleId(tid));
        }
        // 700 keys: under the floor, one inline map and no base.
        assert_eq!(parts(&idx.layers), (700, false));
        let mut unique = UniqueIndex::new();
        for k in 0..=n {
            assert!(unique.insert(int(k as i64), TupleId(k)));
        }
        // The floor's key and one more: merged, the delta empty again.
        assert_eq!(parts(&unique.layers), (0, true));
        let snapshot = unique.clone();
        for k in 0..=n {
            assert_eq!(unique.remove(int(k as i64)), Some(TupleId(k)));
        }
        // Every key marked gone, then merged into no base at all.
        assert_eq!(parts(&unique.layers), (0, false));
        assert!(unique.is_empty() && unique.heap_bytes() == 0);
        assert_eq!(snapshot.len(), n as usize + 1);
        assert!((0..=n).all(|k| snapshot.get(int(k as i64)) == [TupleId(k)]));
    }

    /// A key-changing update's two halves, as `Database::update` runs them.
    fn update_unique(idx: &mut UniqueIndex, model: &mut BTreeMap<i64, u64>, from: i64, to: i64) {
        if model.contains_key(&to) || !model.contains_key(&from) {
            return;
        }
        let tid = model.remove(&from).unwrap();
        assert_eq!(idx.remove(int(from)), Some(TupleId(tid)));
        assert!(idx.insert(int(to), TupleId(tid)));
        model.insert(to, tid);
    }

    fn unique_matches(idx: &UniqueIndex, model: &BTreeMap<i64, u64>, keys: i64) -> bool {
        idx.len() == model.len()
            && (0..keys).all(|k| idx.get(int(k)) == model.get(&k).map(|t| TupleId(*t)).as_slice())
    }

    fn hash_matches(idx: &HashIndex, model: &BTreeMap<i64, Vec<u64>>, keys: i64) -> bool {
        let list = |k: i64| {
            model
                .get(&k)
                .map_or(Vec::new(), |l| l.iter().map(|t| TupleId(*t)).collect())
        };
        idx.distinct_values() == model.len()
            && idx.postings() == model.values().map(Vec::len).sum::<usize>()
            && (0..keys).all(|k| idx.get(int(k)) == list(k).as_slice())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Both indexes against a `BTreeMap` model under random inserts,
        /// removes and key-changing updates over enough keys that the delta
        /// crosses the merge threshold more than once, starting from a
        /// built base or from nothing, with every 1,000th state kept alive
        /// as a clone and re-read at the end.
        #[test]
        fn an_index_is_its_model_across_merges(
            ops in proptest::collection::vec((0i64..10_000, 0i64..10_000, 0u8..4), 5_000..8_000),
            built in 0i64..3_000,
        ) {
            const KEYS: i64 = 10_000;
            let mut unique_model: BTreeMap<i64, u64> = (0..built).map(|k| (k, k as u64)).collect();
            let mut hash_model: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
            for k in 0..built {
                hash_model.entry(k / 3).or_default().push(k as u64);
            }
            let mut unique = UniqueIndex::build((0..built).map(|k| (int(k), TupleId(k as u64))));
            let mut hash = HashIndex::build((0..built).map(|k| (int(k / 3), TupleId(k as u64))));
            let mut next_tid = built as u64;
            let (mut merges, mut was_base) = (0, unique.layers.base().cloned());
            let mut kept = Vec::new();
            for (step, (a, b, op)) in ops.into_iter().enumerate() {
                match op {
                    // Inserts outnumber the rest so the key count grows.
                    0 | 1 => {
                        let fresh = !unique_model.contains_key(&a);
                        proptest::prop_assert_eq!(unique.insert(int(a), TupleId(next_tid)), fresh);
                        if fresh {
                            unique_model.insert(a, next_tid);
                        }
                        hash.insert(int(b), TupleId(next_tid));
                        hash_model.entry(b).or_default().push(next_tid);
                        next_tid += 1;
                    }
                    2 => {
                        let expected = unique_model.remove(&a).map(TupleId);
                        proptest::prop_assert_eq!(unique.remove(int(a)), expected);
                        // The posting of some tid under `b`, if it has any.
                        if let Some(list) = hash_model.get_mut(&b) {
                            let tid = list.remove(a as usize % list.len());
                            if list.is_empty() {
                                hash_model.remove(&b);
                            }
                            hash.remove(int(b), TupleId(tid));
                        }
                        hash.remove(int(b), TupleId(u64::MAX - 1));
                    }
                    _ => {
                        update_unique(&mut unique, &mut unique_model, a, b);
                        // A posting moves from one key to another.
                        if let Some(list) = hash_model.get_mut(&a) {
                            let tid = list.remove(b as usize % list.len());
                            if list.is_empty() {
                                hash_model.remove(&a);
                            }
                            hash.remove(int(a), TupleId(tid));
                            hash.insert(int(b), TupleId(tid));
                            let list = hash_model.entry(b).or_default();
                            let at = list.partition_point(|t| *t < tid);
                            list.insert(at, tid);
                        }
                    }
                }
                let expected = unique_model.get(&a).map(|t| TupleId(*t));
                proptest::prop_assert_eq!(unique.get(int(a)), expected.as_slice());
                if unique.layers.base().map(Arc::as_ptr) != was_base.as_ref().map(Arc::as_ptr) {
                    merges += 1;
                    was_base = unique.layers.base().cloned();
                }
                if step % 1_000 == 0 {
                    kept.push((unique.clone(), unique_model.clone(), hash.clone(), hash_model.clone()));
                }
            }
            proptest::prop_assert!(merges >= 1, "no merge in {} keys", unique_model.len());
            proptest::prop_assert!(unique_matches(&unique, &unique_model, KEYS));
            proptest::prop_assert!(hash_matches(&hash, &hash_model, KEYS));
            for (unique, unique_model, hash, hash_model) in &kept {
                proptest::prop_assert!(unique_matches(unique, unique_model, KEYS));
                proptest::prop_assert!(hash_matches(hash, hash_model, KEYS));
            }
        }
    }
}
