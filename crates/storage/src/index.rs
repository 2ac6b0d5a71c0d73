//! Hash indexes on attributes.
//!
//! The paper assumes "indexes on all join attributes" (§6); `Database`
//! maintains a [`HashIndex`] for every foreign-key endpoint automatically and
//! a [`UniqueIndex`] for every primary key.
//!
//! Keys are [`IndexKey`]s — the fixed-width projection of a [`Datum`]
//! (scalars inline, text as its interned symbol) — so probing hashes a
//! machine word instead of string bytes. Posting lists are kept sorted by
//! tuple id, which makes them mergeable/intersectable by the galloping
//! routines in `precis-index` and means "insertion order" and "tid order"
//! coincide for append-only tables.
//!
//! Both index kinds keep their entries in a [`ShardedMap`]: cloning an index
//! bumps one reference count per shard, and a mutation copies only the shard
//! of the key it changes — while a snapshot still shares it. The values
//! clone without allocating (a tid, or a posting list that is inline or
//! `Arc`-shared), so copying a shard is copying its table.

use crate::cow::{self, ShardedMap};
use crate::tuple::TupleId;
use crate::value::{Datum, Value};
use std::sync::{Arc, OnceLock};

/// The shared empty posting list handed out for misses by
/// [`HashIndex::get_shared`], so misses never allocate.
fn empty_postings() -> Arc<Vec<TupleId>> {
    static EMPTY: OnceLock<Arc<Vec<TupleId>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new())).clone()
}

/// Fixed-width index key: the hashable projection of a non-null [`Datum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexKey {
    Int(i64),
    /// Float by bit pattern (NaN equals NaN), matching [`Value`] equality.
    FBits(u64),
    Sym(crate::sym::Sym),
    Bool(bool),
}

impl std::hash::Hash for IndexKey {
    /// The payload alone, one word: an index holds the values of one typed
    /// column, so the variant adds nothing a map could use, and a key is
    /// hashed twice per probe (once to pick its shard, once inside it).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(match *self {
            IndexKey::Int(i) => i as u64,
            IndexKey::FBits(bits) => bits,
            IndexKey::Sym(s) => s.id() as u64,
            IndexKey::Bool(b) => b as u64,
        });
    }
}

impl IndexKey {
    /// `None` for `Null` — nulls are never indexed.
    fn from_datum(d: Datum) -> Option<IndexKey> {
        match d {
            Datum::Null => None,
            Datum::Int(i) => Some(IndexKey::Int(i)),
            Datum::Float(f) => Some(IndexKey::FBits(f.to_bits())),
            Datum::Bool(b) => Some(IndexKey::Bool(b)),
            Datum::Sym(s) => Some(IndexKey::Sym(s)),
        }
    }

    /// Probe key for a boundary [`Value`], without interning: `None` means
    /// the value cannot be present in any index (null, or text that was
    /// never interned — and every stored text is).
    fn probe(v: &Value) -> Option<IndexKey> {
        Datum::probe_value(v).and_then(IndexKey::from_datum)
    }
}

/// Insert `tid` into a sorted posting list. Appends are O(1) for the common
/// ascending (append-only) case; out-of-order tids binary-search their slot.
fn sorted_insert(list: &mut Vec<TupleId>, tid: TupleId) {
    match list.last() {
        Some(&last) if last >= tid => {
            let pos = list.partition_point(|&t| t < tid);
            list.insert(pos, tid);
        }
        _ => list.push(tid),
    }
}

/// A sorted posting list with its only-one-tid case stored inline: unique
/// and near-unique indexed attributes (primary-key-like join endpoints)
/// never touch the heap, which is most inserts when materializing a result
/// database. Lists of two or more spill to an `Arc<Vec>` shared with
/// readers and mutated copy-on-write.
#[derive(Debug, Clone)]
enum Postings {
    One(TupleId),
    Many(Arc<Vec<TupleId>>),
}

impl Postings {
    fn as_slice(&self) -> &[TupleId] {
        match self {
            Postings::One(t) => std::slice::from_ref(t),
            Postings::Many(l) => l.as_slice(),
        }
    }

    fn shared(&self) -> Arc<Vec<TupleId>> {
        match self {
            Postings::One(t) => Arc::new(vec![*t]),
            Postings::Many(l) => Arc::clone(l),
        }
    }

    fn insert(&mut self, tid: TupleId) {
        match self {
            Postings::One(a) => {
                let a = *a;
                let pair = if a <= tid { vec![a, tid] } else { vec![tid, a] };
                *self = Postings::Many(Arc::new(pair));
            }
            Postings::Many(l) => sorted_insert(cow::make_mut_vec(l), tid),
        }
    }

    /// Remove `tid` if present; `true` means the list is now empty and the
    /// entry should be dropped.
    fn remove(&mut self, tid: TupleId) -> bool {
        match self {
            Postings::One(t) => *t == tid,
            Postings::Many(l) => {
                cow::make_mut_vec(l).retain(|&t| t != tid);
                l.is_empty()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(l) => l.len(),
        }
    }
}

/// A non-unique hash index: value → sorted list of tuple ids.
///
/// Multi-tuple posting lists are `Arc`-shared so readers (e.g. an open
/// [`crate::ValueScan`]) can hold a snapshot without copying; mutations are
/// copy-on-write via [`Arc::make_mut`], which only clones a list while a
/// snapshot of it is still alive. Single-tuple lists live inline in the
/// map (`Postings::One`) — no allocation until a second posting arrives.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: ShardedMap<IndexKey, Postings>,
}

impl HashIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for `additional` more distinct keys (bulk loads).
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    pub fn insert(&mut self, value: Value, tid: TupleId) {
        self.insert_datum(Datum::from_value(&value), tid);
    }

    /// Insert a posting for a non-null datum (nulls are ignored).
    pub fn insert_datum(&mut self, datum: Datum, tid: TupleId) {
        if let Some(key) = IndexKey::from_datum(datum) {
            let (list, new) = self.map.get_or_insert_with(key, || Postings::One(tid));
            if !new {
                list.insert(tid);
            }
        }
    }

    pub fn remove(&mut self, value: &Value, tid: TupleId) {
        if let Some(d) = Datum::probe_value(value) {
            self.remove_datum(d, tid);
        }
    }

    pub fn remove_datum(&mut self, datum: Datum, tid: TupleId) {
        let Some(key) = IndexKey::from_datum(datum) else {
            return;
        };
        if let Some(list) = self.map.get_mut(&key) {
            if list.remove(tid) {
                self.map.remove(&key);
            }
        }
    }

    /// Tuple ids whose indexed attribute equals `value`, in ascending tid
    /// order (== insertion order for append-only tables).
    pub fn get(&self, value: &Value) -> &[TupleId] {
        IndexKey::probe(value)
            .and_then(|k| self.map.get(&k))
            .map(Postings::as_slice)
            .unwrap_or(&[])
    }

    /// [`HashIndex::get`] keyed by stored datum — the hot-path probe.
    pub fn get_datum(&self, datum: Datum) -> &[TupleId] {
        IndexKey::from_datum(datum)
            .and_then(|k| self.map.get(&k))
            .map(Postings::as_slice)
            .unwrap_or(&[])
    }

    /// Like [`HashIndex::get`], but returns a refcounted snapshot of the
    /// posting list, valid across later index mutations. Multi-tuple lists
    /// share the index's own `Arc`; inline single-tuple lists are boxed up
    /// on demand (the snapshot path is per-scan, not per-insert).
    pub fn get_shared(&self, value: &Value) -> Arc<Vec<TupleId>> {
        IndexKey::probe(value)
            .and_then(|k| self.map.get(&k))
            .map(Postings::shared)
            .unwrap_or_else(empty_postings)
    }

    /// [`HashIndex::get_shared`] keyed by stored datum.
    pub fn get_shared_datum(&self, datum: Datum) -> Arc<Vec<TupleId>> {
        IndexKey::from_datum(datum)
            .and_then(|k| self.map.get(&k))
            .map(Postings::shared)
            .unwrap_or_else(empty_postings)
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings.
    pub fn postings(&self) -> usize {
        self.map.values().map(Postings::len).sum()
    }

    /// Shards of this index that `other` does not share by pointer.
    pub(crate) fn unshared_shards(&self, other: &HashIndex) -> usize {
        self.map.unshared_shards(&other.map)
    }
}

/// A unique hash index (primary keys): value → single tuple id.
#[derive(Debug, Clone, Default)]
pub struct UniqueIndex {
    map: ShardedMap<IndexKey, TupleId>,
}

impl UniqueIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for `additional` more keys (bulk loads).
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Insert a key; returns `false` (and leaves the index unchanged) if the
    /// key is already present.
    pub fn insert(&mut self, value: Value, tid: TupleId) -> bool {
        self.insert_datum(Datum::from_value(&value), tid)
    }

    pub fn insert_datum(&mut self, datum: Datum, tid: TupleId) -> bool {
        let Some(key) = IndexKey::from_datum(datum) else {
            return false;
        };
        self.map.get_or_insert_with(key, || tid).1
    }

    pub fn remove(&mut self, value: &Value) -> Option<TupleId> {
        IndexKey::probe(value).and_then(|k| self.map.remove(&k))
    }

    pub fn remove_datum(&mut self, datum: Datum) -> Option<TupleId> {
        IndexKey::from_datum(datum).and_then(|k| self.map.remove(&k))
    }

    pub fn get(&self, value: &Value) -> Option<TupleId> {
        IndexKey::probe(value).and_then(|k| self.map.get(&k).copied())
    }

    pub fn get_datum(&self, datum: Datum) -> Option<TupleId> {
        IndexKey::from_datum(datum).and_then(|k| self.map.get(&k).copied())
    }

    pub fn contains(&self, value: &Value) -> bool {
        IndexKey::probe(value).is_some_and(|k| self.map.contains_key(&k))
    }

    pub fn contains_datum(&self, datum: Datum) -> bool {
        IndexKey::from_datum(datum).is_some_and(|k| self.map.contains_key(&k))
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Shards of this index that `other` does not share by pointer.
    pub(crate) fn unshared_shards(&self, other: &UniqueIndex) -> usize {
        self.map.unshared_shards(&other.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_multimap_semantics() {
        let mut idx = HashIndex::new();
        idx.insert(Value::from(1), TupleId(0));
        idx.insert(Value::from(1), TupleId(2));
        idx.insert(Value::from(2), TupleId(1));
        assert_eq!(idx.get(&Value::from(1)), &[TupleId(0), TupleId(2)]);
        assert_eq!(idx.get(&Value::from(3)), &[] as &[TupleId]);
        assert_eq!(idx.distinct_values(), 2);
        assert_eq!(idx.postings(), 3);
    }

    #[test]
    fn hash_index_remove_cleans_empty_entries() {
        let mut idx = HashIndex::new();
        idx.insert(Value::from(1), TupleId(0));
        idx.remove(&Value::from(1), TupleId(0));
        assert_eq!(idx.distinct_values(), 0);
        // Removing a missing posting is a no-op.
        idx.remove(&Value::from(1), TupleId(9));
    }

    #[test]
    fn shared_posting_lists_are_stable_snapshots() {
        let mut idx = HashIndex::new();
        idx.insert(Value::from(1), TupleId(0));
        idx.insert(Value::from(1), TupleId(2));
        let snapshot = idx.get_shared(&Value::from(1));
        // Mutations after the snapshot copy-on-write; the snapshot is frozen.
        idx.insert(Value::from(1), TupleId(5));
        idx.remove(&Value::from(1), TupleId(0));
        assert_eq!(snapshot.as_slice(), &[TupleId(0), TupleId(2)]);
        assert_eq!(idx.get(&Value::from(1)), &[TupleId(2), TupleId(5)]);
        // Misses share one static empty list — no allocation per miss.
        let a = idx.get_shared(&Value::from(9));
        let b = idx.get_shared(&Value::from(8));
        assert!(a.is_empty() && std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn postings_stay_sorted_under_out_of_order_inserts() {
        let mut idx = HashIndex::new();
        for tid in [5u64, 1, 9, 3, 7] {
            idx.insert_datum(Datum::Int(1), TupleId(tid));
        }
        assert_eq!(
            idx.get_datum(Datum::Int(1)),
            &[TupleId(1), TupleId(3), TupleId(5), TupleId(7), TupleId(9)]
        );
        // Datum and Value probes agree.
        assert_eq!(idx.get(&Value::from(1)), idx.get_datum(Datum::Int(1)));
        assert_eq!(
            idx.get_shared_datum(Datum::Int(1)).as_slice(),
            idx.get_shared(&Value::from(1)).as_slice()
        );
    }

    #[test]
    fn un_interned_text_probes_miss_without_interning() {
        let mut idx = HashIndex::new();
        idx.insert(Value::from("idx-stored"), TupleId(0));
        let before = crate::sym::SymbolTable::global().len();
        assert!(idx.get(&Value::from("idx-never-stored-zz")).is_empty());
        assert_eq!(crate::sym::SymbolTable::global().len(), before);
        assert_eq!(idx.get(&Value::from("idx-stored")), &[TupleId(0)]);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = UniqueIndex::new();
        assert!(idx.insert(Value::from("k"), TupleId(0)));
        assert!(!idx.insert(Value::from("k"), TupleId(1)));
        assert_eq!(idx.get(&Value::from("k")), Some(TupleId(0)));
        assert!(idx.contains(&Value::from("k")));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(&Value::from("k")), Some(TupleId(0)));
        assert!(idx.is_empty());
        // Datum API mirrors the Value API.
        let d = Datum::from_value(&Value::from(7));
        assert!(idx.insert_datum(d, TupleId(3)));
        assert!(idx.contains_datum(d));
        assert_eq!(idx.get_datum(d), Some(TupleId(3)));
        assert_eq!(idx.remove_datum(d), Some(TupleId(3)));
    }
}
