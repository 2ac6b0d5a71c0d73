//! Hash indexes on attributes.
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
//! (the same bits would otherwise find a different value). Posting lists ([`TidList`]) are kept sorted by tuple id, which makes them
//! mergeable/intersectable by the galloping routines in `precis-index` and
//! means "insertion order" and "tid order" coincide for append-only tables.
//!
//! Both index kinds keep their entries in a [`ShardedMap`]: cloning an index
//! bumps one reference count per shard, and a mutation copies only the shard
//! of the key it changes — while a snapshot still shares it. The values
//! clone without allocating (a tid, or a list that is inline or
//! `Arc`-shared), so copying a shard is copying its table.

use crate::cow::ShardedMap;
use crate::tidlist::TidList;
use crate::tuple::TupleId;
use crate::value::Datum;
use std::sync::{Arc, OnceLock};

/// The shared empty list handed out for misses by the `get_shared` of both
/// index kinds, so misses never allocate.
fn empty_postings() -> Arc<[TupleId]> {
    static EMPTY: OnceLock<Arc<[TupleId]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new([])).clone()
}

/// One-word index key: the bits of a non-null [`Datum`] (a float by bit
/// pattern, so NaN equals NaN, matching [`crate::Value`] equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A non-unique hash index: value → sorted list of tuple ids.
///
/// A list readers may hold on to (e.g. an open [`crate::ValueScan`]) is
/// `Arc`-shared, so a snapshot costs no copy and a later mutation leaves it
/// as it was; a single-tuple list lives inline in the map — no allocation
/// until a second posting arrives, and none left when it goes again.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: ShardedMap<IndexKey, TidList>,
}

impl HashIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for `additional` more distinct keys (bulk loads).
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Insert a posting for a non-null datum (nulls are ignored).
    pub fn insert(&mut self, datum: Datum, tid: TupleId) {
        if let Some(key) = IndexKey::of(datum) {
            let (list, new) = self.map.get_or_insert_with(key, || TidList::one(tid));
            if !new {
                list.insert(tid);
            }
        }
    }

    /// Remove a posting. One that is not there unshares nothing.
    pub fn remove(&mut self, datum: Datum, tid: TupleId) {
        let Some(key) = IndexKey::of(datum) else {
            return;
        };
        if let Some(list) = self.map.get_mut_if(&key, |list| list.contains(tid)) {
            if list.remove(tid) {
                self.map.remove(&key);
            }
        }
    }

    /// Tuple ids whose indexed attribute equals `datum`, in ascending tid
    /// order (== insertion order for append-only tables).
    pub fn get(&self, datum: Datum) -> &[TupleId] {
        IndexKey::of(datum)
            .and_then(|k| self.map.get(&k))
            .map_or(&[], TidList::as_slice)
    }

    /// Like [`HashIndex::get`], but returns a refcounted snapshot of the
    /// posting list, valid across later index mutations. Multi-tuple lists
    /// share the index's own allocation; inline single-tuple lists are boxed
    /// up on demand (the snapshot path is per-scan, not per-insert).
    pub fn get_shared(&self, datum: Datum) -> Arc<[TupleId]> {
        IndexKey::of(datum)
            .and_then(|k| self.map.get(&k))
            .map_or_else(empty_postings, TidList::shared)
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings.
    pub fn postings(&self) -> usize {
        self.map.values().map(TidList::len).sum()
    }

    /// Shards of this index that `other` does not share by pointer.
    pub(crate) fn unshared_shards(&self, other: &HashIndex) -> usize {
        self.map.unshared_shards(&other.map)
    }

    /// Heap bytes behind this index: its tables at their bucket counts and
    /// every list that is not inline.
    pub fn heap_bytes(&self) -> usize {
        self.map.heap_bytes(TidList::heap_bytes)
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

    /// Insert a key; returns `false` (and leaves the index unchanged, and
    /// every shard as shared as it was) if the key is already present.
    pub fn insert(&mut self, datum: Datum, tid: TupleId) -> bool {
        IndexKey::of(datum).is_some_and(|key| self.map.insert_absent(key, tid))
    }

    pub fn remove(&mut self, datum: Datum) -> Option<TupleId> {
        IndexKey::of(datum).and_then(|k| self.map.remove(&k))
    }

    /// The tuple holding key `datum`, as the list of at most one tid a
    /// [`HashIndex`] on the attribute would hold.
    pub fn get(&self, datum: Datum) -> &[TupleId] {
        IndexKey::of(datum)
            .and_then(|k| self.map.get(&k))
            .map_or(&[], std::slice::from_ref)
    }

    /// [`UniqueIndex::get`] as a list of its own, boxed on demand.
    pub fn get_shared(&self, datum: Datum) -> Arc<[TupleId]> {
        match self.get(datum) {
            [] => empty_postings(),
            hit => hit.into(),
        }
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

    /// Heap bytes behind this index: its tables at their bucket counts.
    pub fn heap_bytes(&self) -> usize {
        self.map.heap_bytes(|_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cow::CopyMeter;
    use crate::value::Value;

    fn int(i: i64) -> Datum {
        Datum::Int(i)
    }

    #[test]
    fn an_entry_costs_what_its_key_costs() {
        // And an index what its map costs: a result database makes a dozen
        // per answer, and eight bytes more put them (and the lists of them)
        // in allocator size classes that read 45 % slower to make and drop.
        assert_eq!(std::mem::size_of::<HashIndex>(), 64);
        assert_eq!(std::mem::size_of::<UniqueIndex>(), 64);
        assert_eq!(std::mem::size_of::<IndexKey>(), 8);
        assert_eq!(std::mem::size_of::<(IndexKey, TupleId)>(), 16);
        assert_eq!(std::mem::size_of::<(IndexKey, TidList)>(), 32);
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
    fn shared_posting_lists_are_stable_snapshots() {
        let mut idx = HashIndex::new();
        idx.insert(int(1), TupleId(0));
        idx.insert(int(1), TupleId(2));
        let snapshot = idx.get_shared(int(1));
        // Mutations after the snapshot leave it as it was.
        idx.insert(int(1), TupleId(5));
        idx.remove(int(1), TupleId(0));
        assert_eq!(*snapshot, [TupleId(0), TupleId(2)]);
        assert_eq!(idx.get(int(1)), &[TupleId(2), TupleId(5)]);
        // Misses share one static empty list — no allocation per miss.
        let a = idx.get_shared(int(9));
        let b = UniqueIndex::new().get_shared(int(8));
        assert!(a.is_empty() && Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn postings_stay_sorted_under_out_of_order_inserts() {
        let mut idx = HashIndex::new();
        for tid in [5u64, 1, 9, 3, 7] {
            idx.insert(int(1), TupleId(tid));
        }
        assert_eq!(
            idx.get(int(1)),
            &[TupleId(1), TupleId(3), TupleId(5), TupleId(7), TupleId(9)]
        );
        assert_eq!(*idx.get_shared(int(1)), *idx.get(int(1)));
    }

    #[test]
    fn floats_are_keyed_by_bit_pattern() {
        let mut floats = HashIndex::new();
        floats.insert(Datum::Float(f64::NAN), TupleId(2));
        floats.insert(Datum::Float(0.0), TupleId(3));
        assert_eq!(floats.get(Datum::Float(f64::NAN)), &[TupleId(2)]);
        assert!(floats.get(Datum::Float(-0.0)).is_empty());
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
        let mut idx = UniqueIndex::new();
        let k = Datum::from_value(&Value::from("k"));
        assert!(idx.insert(k, TupleId(0)));
        assert!(!idx.insert(k, TupleId(1)));
        assert!(!idx.insert(Datum::Null, TupleId(1)));
        assert_eq!(idx.get(k), &[TupleId(0)]);
        assert_eq!(*idx.get_shared(k), [TupleId(0)]);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(k), Some(TupleId(0)));
        assert!(idx.is_empty() && idx.get(k).is_empty());
    }

    #[test]
    fn a_refused_duplicate_and_a_no_op_remove_copy_nothing() {
        let keys = 40 * crate::cow::SHARD_KEYS as i64;
        let mut unique = UniqueIndex::new();
        let mut hash = HashIndex::new();
        for k in 0..keys {
            assert!(unique.insert(int(k), TupleId(k as u64)));
            hash.insert(int(k / 2), TupleId(k as u64));
        }
        let (snapshot, hash_snapshot) = (unique.clone(), hash.clone());
        let meter = CopyMeter::new();
        for k in (0..keys).step_by(7) {
            assert!(!unique.insert(int(k), TupleId(0)), "a duplicate key");
            // Not in the key's list; no such key.
            hash.remove(int(k / 2), TupleId(keys as u64));
            hash.remove(int(keys), TupleId(0));
        }
        assert_eq!(meter.copied().pieces, 0);
        assert_eq!(unique.unshared_shards(&snapshot), 0);
        assert_eq!(hash.unshared_shards(&hash_snapshot), 0);
        // The writes that do happen still copy: a shard (two if the new key
        // splits one), and a shard (the list of two is inline in it).
        assert!(unique.insert(int(keys), TupleId(keys as u64)));
        hash.remove(int(0), TupleId(1));
        let copied = meter.copied();
        assert!((2..=3).contains(&copied.pieces), "{copied:?}");
    }

    #[test]
    fn a_bulk_loaded_unique_index_costs_at_most_32_bytes_a_key() {
        let keys = 100_000;
        let mut idx = UniqueIndex::new();
        for k in 0..keys {
            idx.insert(int(k * 3), TupleId(k as u64));
        }
        let per_key = idx.heap_bytes() as f64 / keys as f64;
        assert!((17.0..=32.0).contains(&per_key), "{per_key:.1} B/key");
    }
}
