//! Copy-on-write building blocks: the counted [`make_mut`] every shared
//! piece of an engine is mutated through, [`ShardedMap`], the hash map
//! whose clone is one reference-count bump per shard, and [`Layered`], an
//! index as a sorted base beside a delta of writes, with the one rule by
//! which every index kind folds its delta into its base.
//!
//! A served engine is never mutated in place: the write path clones it,
//! changes the clone and publishes it, while running answers keep reading
//! the snapshot they started on. That is only affordable if the clone shares
//! everything and a mutation copies just what it touches, so tables keep
//! their rows in `Arc`'d chunks (see [`crate::Table`]) and every index is an
//! `Arc`'d immutable base beside a [`ShardedMap`] delta. The bytes those
//! copies cost are counted per thread, where they happen, so the write path
//! can report them ([`CopyMeter`]).

use crate::fasthash::{FxBuildHasher, FxHashMap};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash};
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// Shared pieces this thread had to copy before mutating them, and the
    /// bytes those copies moved. Monotonic; [`CopyMeter`] diffs them.
    static THREAD_COPIES: Cell<u64> = const { Cell::new(0) };
    static THREAD_COPIED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// What a [`CopyMeter`] read: pieces (chunks, shards, posting lists) copied
/// because a snapshot still shared them, and the payload bytes moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Copied {
    pub pieces: u64,
    pub bytes: u64,
}

/// Meters the copy-on-write copies made by the *calling thread* since the
/// meter was created — the write path reads one around a batch.
#[derive(Debug)]
pub struct CopyMeter {
    start: Copied,
}

impl CopyMeter {
    #[allow(clippy::new_without_default)]
    pub fn new() -> CopyMeter {
        CopyMeter {
            start: thread_copied(),
        }
    }

    /// Copies this thread made since the meter was created.
    pub fn copied(&self) -> Copied {
        let now = thread_copied();
        Copied {
            pieces: now.pieces - self.start.pieces,
            bytes: now.bytes - self.start.bytes,
        }
    }
}

fn thread_copied() -> Copied {
    Copied {
        pieces: THREAD_COPIES.get(),
        bytes: THREAD_COPIED_BYTES.get(),
    }
}

/// Count one copy of `bytes()` payload bytes against this thread if `piece`
/// is still shared — that is, if mutating it means copying it. (Nothing
/// here hands out `Weak`s, so the strong count alone says whether it is.)
#[inline]
fn note_if_shared<T: ?Sized>(piece: &Arc<T>, bytes: impl FnOnce() -> usize) {
    if Arc::strong_count(piece) > 1 {
        note_copy(bytes());
    }
}

/// Count one copied piece of `bytes` payload bytes against this thread —
/// say, an entry copied out of an index's immutable base into its delta. (A
/// merge, which writes a new base rather than copying a shared one, is not
/// counted.)
#[inline]
pub fn note_copy(bytes: usize) {
    THREAD_COPIES.set(THREAD_COPIES.get() + 1);
    THREAD_COPIED_BYTES.set(THREAD_COPIED_BYTES.get() + bytes as u64);
}

/// [`Arc::make_mut`], counted: a piece that has to be copied first grows the
/// thread's copy counters by one piece of `bytes(piece)` payload bytes.
#[inline]
pub fn make_mut<T: Clone>(piece: &mut Arc<T>, bytes: impl FnOnce(&T) -> usize) -> &mut T {
    note_if_shared(piece, || bytes(piece));
    Arc::make_mut(piece)
}

/// [`make_mut`] for a shared list, whose payload is its elements.
#[inline]
pub fn make_mut_vec<T: Clone>(piece: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    make_mut(piece, |list| std::mem::size_of_val(list.as_slice()))
}

/// [`make_mut`] for a shared slice: copied whole, one piece.
#[inline]
pub fn make_mut_slice<T: Clone>(piece: &mut Arc<[T]>) -> &mut [T] {
    note_if_shared(piece, || std::mem::size_of_val::<[T]>(piece));
    Arc::make_mut(piece)
}

/// `slice` with `item` put in at `at`: the next version of an exact-size
/// shared list, one allocation. Such a list is rebuilt by every change,
/// shared or not, and counts as one copied piece each time.
pub fn slice_with<T: Clone>(slice: &[T], at: usize, item: T) -> Arc<[T]> {
    note_copy(std::mem::size_of_val(slice));
    let (before, after) = slice.split_at(at);
    before
        .iter()
        .cloned()
        .chain(std::iter::once(item))
        .chain(after.iter().cloned())
        .collect()
}

/// `slice` without the item at `at`; see [`slice_with`].
pub fn slice_without<T: Clone>(slice: &[T], at: usize) -> Arc<[T]> {
    note_copy(std::mem::size_of_val(slice));
    slice[..at]
        .iter()
        .chain(&slice[at + 1..])
        .cloned()
        .collect()
}

/// What an allocation of `payload` bytes takes from the heap, as the system
/// allocator rounds it: an 8-byte header, 16-byte granules, 32 bytes at
/// least. The `heap_bytes` of every structure are sums of these.
pub fn alloc_bytes(payload: usize) -> usize {
    match payload {
        0 => 0,
        _ => (payload + 8).next_multiple_of(16).max(32),
    }
}

/// [`alloc_bytes`] of an `Arc` holding `payload` bytes beside its counts.
pub fn arc_bytes(payload: usize) -> usize {
    alloc_bytes(2 * std::mem::size_of::<usize>() + payload)
}

/// Heap bytes of a standard hash map with room for `capacity` entries of
/// `entry` bytes: power-of-two buckets at 7/8 load, a control byte per bucket
/// and one group of them over.
pub fn table_bytes(capacity: usize, entry: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=3 => 4,
        4..=7 => 8,
        _ => (capacity * 8 / 7).next_power_of_two(),
    };
    alloc_bytes(buckets * (entry + 1) + 16)
}

/// Keys a [`ShardedMap`] holds per shard, on average, before it grows one
/// more shard (a shard holds between half and twice as many). What a write
/// pays to unshare a shard grows with this — one clone per entry, and for
/// the maps whose values are `Arc`s that is a reference-count bump on a cold
/// cache line each — and what a clone pays, one bump per shard, shrinks with
/// it. EXPERIMENTS.md "The write path costs what the batch costs" has the
/// sweep that chose it.
pub const SHARD_KEYS: usize = 192;

/// Keys a [`ShardedMap`] holds as one plain inline map before it is sharded
/// at all. A result database's relations hold tens to a few hundred tuples;
/// under this they pay nothing for the sharding (no reference count on the
/// insert path — a locked instruction per insert otherwise, +30 % on a
/// 1,200-tuple answer). What it costs: a clone copies an inline map, at most
/// this many entries (~25 KB), for each index of the served database whose
/// delta stays this small ([`Layered::over`]). It is also how much an index
/// with no base yet takes in before its first merge
/// ([`Layered::merge_if_full`]).
pub const INLINE_KEYS: usize = 1024;

/// An index's delta is merged into its base once it holds more than one key
/// for every this many of the base's. What the delta keeps resident grows
/// with its share — a hash-table bucket and a whole entry a key, where the
/// base keeps a sorted key and its tids, and a key a write copied out of the
/// base is in both — and what merging costs, writing the base anew, is paid
/// once per that many keys written. EXPERIMENTS.md "An index is a sorted
/// base plus a small delta" has the sweep that chose it.
pub const DELTA_SHARE: usize = 8;

/// Whether a delta of `delta_keys` keys over a base of `base_keys` is due to
/// be merged into a new base: past [`DELTA_SHARE`]'s share of the base, or,
/// with no base at all, past [`INLINE_KEYS`] — the floor that keeps every
/// index of a result database (a few hundred tuples a relation) one inline
/// map that never merges. The floor is not applied over a base: there it
/// would let the delta of an index of a few thousand keys hold most of them,
/// the hottest of them twice.
#[inline]
fn delta_is_full(delta_keys: usize, base_keys: usize) -> bool {
    let room = match base_keys {
        0 => INLINE_KEYS,
        _ => base_keys / DELTA_SHARE,
    };
    delta_keys > room
}

/// An empty delta for a base of `base_keys` keys: one plain inline map if
/// it will be merged before it outgrows one, sharded from the start if not —
/// so a clone of a served engine, whatever its deltas hold, costs a
/// reference count per shard and never a copy of an inline map.
fn delta_over<K, V>(base_keys: usize) -> ShardedMap<K, V> {
    let mut delta = ShardedMap::default();
    if base_keys / DELTA_SHARE > INLINE_KEYS {
        delta.shards = Box::new([Arc::default()]);
    }
    delta
}

/// One step of a merge of a base with its delta: a run of base entries no
/// delta key falls among, or one delta entry.
#[derive(Debug, PartialEq, Eq)]
enum Merged<'a, K, D> {
    /// The base's entries at these positions, untouched by the delta.
    Base(Range<usize>),
    /// The delta's entry for a key (which the base may hold too: the
    /// delta's wins, and may say the key is gone).
    Delta(K, &'a D),
}

/// Walk a base's sorted keys and a delta's entries sorted by key (each
/// holding a key at most once) together, in key order: the runs of base
/// entries between delta keys, which a merge copies whole, and each delta
/// entry. A walk costs a binary search per delta entry, so a merge can walk
/// once to count and again to fill a base of exactly that size.
fn merge_sorted<'a, K: Ord + Copy, D>(
    base: &'a [K],
    delta: &'a [(K, D)],
) -> impl Iterator<Item = Merged<'a, K, D>> + 'a {
    let (mut b, mut d) = (0, 0);
    std::iter::from_fn(move || {
        let end = match delta.get(d) {
            Some((key, _)) => b + base[b..].partition_point(|k| k < key),
            None => base.len(),
        };
        if end > b {
            return Some(Merged::Base(std::mem::replace(&mut b, end)..end));
        }
        let (key, entry) = delta.get(d)?;
        b += usize::from(base.get(b) == Some(key));
        d += 1;
        Some(Merged::Delta(*key, entry))
    })
}

/// A count as a `u32` offset into an index base.
pub fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an index holds fewer than 2^32 postings")
}

/// Heap bytes of a boxed slice.
pub fn boxed_bytes<T>(items: &[T]) -> usize {
    alloc_bytes(std::mem::size_of_val(items))
}

/// What a merge counts before it lays out a base at exact size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseSize {
    pub keys: usize,
    /// The locations under the keys, where a key has several (the inverted
    /// index's words); zero where it has one list or one tid.
    pub lists: usize,
    pub tids: usize,
}

impl std::ops::Add for BaseSize {
    type Output = BaseSize;

    fn add(self, other: BaseSize) -> BaseSize {
        BaseSize {
            keys: self.keys + other.keys,
            lists: self.lists + other.lists,
            tids: self.tids + other.tids,
        }
    }
}

/// The immutable half of a [`Layered`] index: its entries, sorted by key,
/// in exact-size arrays.
pub trait Base: Default + Sized {
    type Key: Copy + Ord + Hash;
    /// A key's whole current entry in the delta, which overrides the
    /// base's — or a mark that the key is gone.
    type Entry: Clone;
    type Writer: BaseWriter<Self>;

    /// The keys, sorted and distinct.
    fn keys(&self) -> &[Self::Key];

    fn heap_bytes(&self) -> usize;

    /// What the keys at positions `run` take up in a base.
    fn run_size(&self, run: Range<usize>) -> BaseSize;

    /// What a delta entry takes up in a base: nothing, if it marks its key
    /// gone.
    fn entry_size(entry: &Self::Entry) -> BaseSize;
}

/// A [`Base`] being laid out in key order, at the size it was told.
pub trait BaseWriter<B: Base> {
    fn with_size(size: BaseSize) -> Self;

    /// Copy the keys at positions `run` of `base`, with their entries.
    fn push_run(&mut self, base: &B, run: Range<usize>);

    /// Write a delta's entry; one that marks its key gone writes nothing.
    fn push(&mut self, key: B::Key, entry: &B::Entry);

    /// The base, or `None` if it holds no key.
    fn finish(self) -> Option<Arc<B>>;
}

/// An index as an immutable sorted base beside a small delta: the base is
/// shared by `Arc`, and the delta — a [`ShardedMap`] from each key a write
/// has touched since the base was laid out to the key's whole current entry
/// ([`Base::Entry`]) — overrides it. A probe asks the delta, then the base.
///
/// Once the delta is due ([`Layered::merge_if_full`]) the two are merged
/// into a new base built beside the old one, and a snapshot holding the old
/// base keeps reading it. Each index kind says how its base is laid out; the
/// rule, the merge walk and the accounting are here.
pub struct Layered<B: Base> {
    pub delta: ShardedMap<B::Key, B::Entry>,
    /// Replaced only by a merge, over which the delta starts anew.
    base: Option<Arc<B>>,
}

impl<B: Base> Clone for Layered<B> {
    fn clone(&self) -> Self {
        Layered {
            delta: self.delta.clone(),
            base: self.base.clone(),
        }
    }
}

impl<B: Base> Default for Layered<B> {
    fn default() -> Self {
        Layered {
            delta: ShardedMap::default(),
            base: None,
        }
    }
}

impl<B: Base + std::fmt::Debug> std::fmt::Debug for Layered<B>
where
    B::Key: std::fmt::Debug,
    B::Entry: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Layered")
            .field("delta", &self.delta)
            .field("base", &self.base)
            .finish()
    }
}

impl<B: Base> Layered<B> {
    /// `base`, with an empty delta over it.
    pub fn over(base: Option<Arc<B>>) -> Self {
        let keys = base.as_ref().map_or(0, |base| base.keys().len());
        Layered {
            delta: delta_over(keys),
            base,
        }
    }

    pub fn base(&self) -> Option<&Arc<B>> {
        self.base.as_ref()
    }

    pub fn base_keys(&self) -> &[B::Key] {
        self.base.as_ref().map_or(&[], |base| base.keys())
    }

    /// The base's keys the delta does not override, with the base, by
    /// position.
    pub fn kept(&self) -> impl Iterator<Item = (&B, usize)> + '_ {
        self.base.iter().flat_map(move |base| {
            let keys = base.keys();
            let kept = (0..keys.len()).filter(move |at| !self.delta.contains_key(&keys[*at]));
            kept.map(move |at| (&**base, at))
        })
    }

    /// Merge the delta into a new base once it holds more than
    /// [`DELTA_SHARE`]'s share of the base's keys, or, with no base, more
    /// than [`INLINE_KEYS`].
    pub fn merge_if_full(&mut self) {
        if delta_is_full(self.delta.len(), self.base_keys().len()) {
            self.merge();
        }
    }

    /// Walk base and delta once to count, and again to fill a base of
    /// exactly that size.
    fn merge(&mut self) {
        let mut delta: Vec<(B::Key, &B::Entry)> = self.delta.iter().map(|(k, v)| (*k, v)).collect();
        delta.sort_unstable_by_key(|(key, _)| *key);
        let empty = B::default();
        let base = self.base.as_deref().unwrap_or(&empty);
        let walk = || merge_sorted(base.keys(), &delta);
        let size = walk()
            .map(|step| match step {
                Merged::Base(run) => base.run_size(run),
                Merged::Delta(_, entry) => B::entry_size(entry),
            })
            .fold(BaseSize::default(), |total, size| total + size);
        let mut merged = B::Writer::with_size(size);
        for step in walk() {
            match step {
                Merged::Base(run) => merged.push_run(base, run),
                Merged::Delta(key, entry) => merged.push(key, entry),
            }
        }
        let merged = merged.finish();
        *self = Layered::over(merged);
    }

    /// Pieces of this index that `other` does not share by pointer: the
    /// delta's shards, and the base once either side has merged.
    pub fn unshared_pieces(&self, other: &Self) -> usize {
        let base = match (&self.base, &other.base) {
            (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
            (mine, _) => mine.is_some(),
        };
        self.delta.unshared_shards(&other.delta) + usize::from(base)
    }

    /// Heap bytes behind the index: the delta's tables at their bucket
    /// counts, what `entry_heap` says each of its entries holds, and the
    /// base.
    pub fn heap_bytes(&self, entry_heap: impl Fn(&B::Entry) -> usize) -> usize {
        self.delta.heap_bytes(entry_heap) + self.base.as_ref().map_or(0, |base| base.heap_bytes())
    }
}

/// A hash map whose clone does not copy it: past [`INLINE_KEYS`] keys it is
/// split into `Arc`-shared shards by linear hashing.
///
/// Cloning bumps one reference count per shard and allocates one pointer
/// array; a mutation copies only the shard its key hashes to (and only while
/// a clone still shares it). The shard count follows the key count — one
/// more shard whenever the map holds more than [`SHARD_KEYS`] keys per shard
/// — and growing splits exactly one shard, so no insert ever rehashes (or
/// copies) more than one shard's keys.
///
/// A map that has never held more than [`INLINE_KEYS`] keys — every index
/// of a typical result database — is one plain hash map, stored inline:
/// mutating it goes through no reference count, and cloning it copies it,
/// which the bound keeps to a few shards' worth.
#[derive(Debug, Clone)]
pub struct ShardedMap<K, V> {
    /// The whole map until it outgrows one shard; empty from then on.
    small: FxHashMap<K, V>,
    /// Shard `i` of `n = 2^level + split` holds the keys whose hash has `i`
    /// in its low `level + 1` bits (shards below `split` and their buddies
    /// at `2^level..n`) or low `level` bits (the not yet split rest). A
    /// boxed slice, not a `Vec`: the word that saves keeps an index, base
    /// pointer included, at 64 bytes.
    shards: Box<[Arc<FxHashMap<K, V>>]>,
    /// Keys over all shards.
    sharded_len: usize,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            small: FxHashMap::default(),
            shards: Box::default(),
            sharded_len: 0,
        }
    }
}

/// Payload bytes of one shard, as the copy counters report them.
fn shard_bytes<K, V>(shard: &FxHashMap<K, V>) -> usize {
    shard.len() * std::mem::size_of::<(K, V)>()
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.small.len() + self.sharded_len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard-picking bits of a key's hash: the upper half of the same
    /// Fx hash the shards use inside, whose *low* bits pick the bucket — a
    /// shard's keys agree on the bits used here and still spread over its
    /// buckets.
    #[inline]
    fn hash_of(key: &K) -> usize {
        (FxBuildHasher::default().hash_one(key) >> 32) as usize
    }

    /// Where `key` lives among the `n >= 1` shards (linear-hash addressing).
    #[inline]
    fn index_of(&self, key: &K) -> usize {
        let (n, hash) = (self.shards.len(), Self::hash_of(key));
        let level = n.ilog2();
        let low = hash & ((1 << level) - 1);
        if low < n - (1 << level) {
            hash & ((2 << level) - 1)
        } else {
            low
        }
    }

    /// The plain map `key` lives in: the inline one, or its shard.
    #[inline]
    fn home(&self, key: &K) -> &FxHashMap<K, V> {
        if self.shards.is_empty() {
            &self.small
        } else {
            &self.shards[self.index_of(key)]
        }
    }

    /// [`ShardedMap::home`] for mutation: a shard is unshared first — the
    /// one copy a mutation pays for.
    fn home_mut(&mut self, key: &K) -> &mut FxHashMap<K, V> {
        if self.shards.is_empty() {
            &mut self.small
        } else {
            let i = self.index_of(key);
            make_mut(&mut self.shards[i], shard_bytes)
        }
    }

    /// Add one shard: the inline map moves out to become the first, or the
    /// next shard due splits. Both halves end up in tables sized for the keys
    /// they hold — filling up again towards its own next split, a half
    /// rehashes once on the way, and until then a write that unshares it
    /// copies a table half the size.
    fn grow(&mut self) {
        let n = self.shards.len();
        let added = if n == 0 {
            self.sharded_len = self.small.len();
            std::mem::take(&mut self.small)
        } else {
            let level = n.ilog2();
            let lower = make_mut(&mut self.shards[n - (1 << level)], shard_bytes);
            let mut upper =
                FxHashMap::with_capacity_and_hasher(lower.len() / 2, FxBuildHasher::default());
            lower.retain(|k, v| {
                let moves = Self::hash_of(k) & (1 << level) != 0;
                if moves {
                    upper.insert(k.clone(), v.clone());
                }
                !moves
            });
            lower.shrink_to_fit();
            upper
        };
        let mut shards = std::mem::take(&mut self.shards).into_vec();
        shards.reserve_exact(1);
        shards.push(Arc::new(added));
        self.shards = shards.into_boxed_slice();
    }

    /// Make room for `additional` more keys while they fit the inline map. A
    /// map they would shard is left as it is: an index's delta is that
    /// large only over a base large enough to allow it, and a bulk load
    /// there merges on the way.
    pub fn reserve(&mut self, additional: usize) {
        if self.shards.is_empty() && self.len() + additional <= INLINE_KEYS {
            self.small.reserve(additional);
        }
    }

    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.home(key).get(key)
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key` for mutation. A miss unshares nothing.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.get_mut_if(key, |_| true)
    }

    /// [`ShardedMap::get_mut`] when the value is also `wanted`: a write that
    /// turns out to have nothing to change unshares nothing either.
    pub fn get_mut_if(&mut self, key: &K, wanted: impl FnOnce(&V) -> bool) -> Option<&mut V> {
        if self.shards.is_empty() {
            // Nothing to unshare: one probe.
            return self.small.get_mut(key).filter(|value| wanted(value));
        }
        if !self.get(key).is_some_and(wanted) {
            return None;
        }
        self.home_mut(key).get_mut(key)
    }

    /// The value of `key`, inserted from `vacant` first if absent; the flag
    /// says whether it was. A present key unshares its own shard (the caller
    /// is handed the value to change) and nothing else: only a new key can
    /// grow the map.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, vacant: impl FnOnce() -> V) -> (&mut V, bool) {
        if self.shards.is_empty() {
            if self.small.len() < INLINE_KEYS || self.small.contains_key(&key) {
                return match self.small.entry(key) {
                    Entry::Occupied(o) => (o.into_mut(), false),
                    Entry::Vacant(v) => (v.insert(vacant()), true),
                };
            }
            self.grow();
        }
        if self.contains_key(&key) {
            let value = self.home_mut(&key).get_mut(&key);
            return (value.expect("probed above"), false);
        }
        (self.insert_new(key, vacant()), true)
    }

    /// Put `value` under `key` unless the key is present; says whether it
    /// did. A present key unshares nothing — a refused duplicate costs a
    /// probe.
    #[inline]
    pub fn insert_absent(&mut self, key: K, value: V) -> bool {
        if self.shards.is_empty() {
            // Nothing to unshare inline.
            return self.get_or_insert_with(key, || value).1;
        }
        if self.contains_key(&key) {
            return false;
        }
        self.insert_new(key, value);
        true
    }

    /// Add a key known to be absent from a map that is already sharded.
    fn insert_new(&mut self, key: K, value: V) -> &mut V {
        if self.sharded_len >= self.shards.len() * SHARD_KEYS {
            self.grow();
        }
        self.sharded_len += 1;
        self.home_mut(&key).entry(key).or_insert(value)
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        self.sharded_len -= !self.shards.is_empty() as usize;
        self.home_mut(key).remove(key)
    }

    /// Every entry (no particular order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let shards = self.shards.iter().flat_map(|s| s.iter());
        self.small.iter().chain(shards)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// How many of this map's shards `other` does not share by pointer:
    /// zero for a fresh clone, one per shard either side has written since.
    /// (An inline map is not a shard: a clone copied it.)
    pub fn unshared_shards(&self, other: &Self) -> usize {
        let shared = self
            .shards
            .iter()
            .zip(&other.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        self.shards.len() - shared
    }

    /// Heap bytes behind this map — every table at its bucket count, not its
    /// key count, the shard list and each shard's `Arc` — plus whatever
    /// `value_heap` says each value holds on its own.
    pub fn heap_bytes(&self, value_heap: impl Fn(&V) -> usize) -> usize {
        let table =
            |map: &FxHashMap<K, V>| table_bytes(map.capacity(), std::mem::size_of::<(K, V)>());
        let shard = arc_bytes(std::mem::size_of::<FxHashMap<K, V>>());
        let shards = self.shards.iter().map(|s| shard + table(s)).sum::<usize>();
        table(&self.small)
            + alloc_bytes(std::mem::size_of_val::<[_]>(&self.shards))
            + shards
            + self.values().map(value_heap).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> ShardedMap<u64, u64> {
        let mut m = ShardedMap::new();
        for k in 0..n {
            assert!(m.get_or_insert_with(k, || k * 2).1);
        }
        m
    }

    #[test]
    fn behaves_like_a_map_across_many_splits() {
        let n = 20 * SHARD_KEYS as u64;
        let mut m = filled(n);
        assert_eq!(m.len(), n as usize);
        assert!(m.shards.len() >= 20, "{} shards", m.shards.len());
        // No shard is far over its share: the hash spreads sequential keys.
        let largest = m.shards.iter().map(|s| s.len()).max().unwrap();
        assert!(largest <= 4 * SHARD_KEYS, "largest shard holds {largest}");
        for k in 0..n {
            assert_eq!(m.get(&k), Some(&(k * 2)), "key {k}");
        }
        assert_eq!(m.get(&n), None);
        assert!(!m.get_or_insert_with(7, || 0).1, "present keys are kept");
        assert_eq!(m.get(&7), Some(&14));
        *m.get_mut(&7).unwrap() = 1;
        assert_eq!(m.remove(&7), Some(1));
        assert_eq!(m.remove(&7), None);
        assert_eq!(m.len(), n as usize - 1);
        assert_eq!(m.iter().count(), m.len());
    }

    #[test]
    fn a_clone_shares_every_shard_and_a_write_unshares_one() {
        let n = 10 * SHARD_KEYS as u64;
        let original = filled(n);
        let mut copy = original.clone();
        assert_eq!(copy.unshared_shards(&original), 0);

        let meter = CopyMeter::new();
        *copy.get_mut(&3).unwrap() = 99;
        assert_eq!(copy.unshared_shards(&original), 1);
        let copied = meter.copied();
        assert_eq!(copied.pieces, 1);
        assert!(copied.bytes > 0 && copied.bytes <= (4 * SHARD_KEYS * 16) as u64);
        // The original is untouched; a second write to the now private
        // shard copies nothing.
        assert_eq!(original.get(&3), Some(&6));
        *copy.get_mut(&3).unwrap() = 100;
        assert_eq!(meter.copied().pieces, 1);
    }

    #[test]
    fn a_small_map_is_one_plain_map_until_it_outgrows_a_shard() {
        let mut m: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(m.get(&1), None);
        assert_eq!(m.remove(&1), None);
        let few = INLINE_KEYS - 8;
        m.reserve(few);
        let capacity = m.small.capacity();
        assert!(capacity >= few);
        for k in 0..few as u64 {
            m.get_or_insert_with(k, || k);
        }
        assert!(m.shards.is_empty());
        assert_eq!(m.small.capacity(), capacity, "no rehash");
        // A clone copies it, and neither side sees the other's writes.
        let mut copy = m.clone();
        assert_eq!(copy.remove(&7), Some(7));
        assert_eq!((m.len(), copy.len()), (few, few - 1));
        // One key too many and it is sharded, with every key still there.
        for k in few as u64..=INLINE_KEYS as u64 {
            m.get_or_insert_with(k, || k);
        }
        assert!(m.small.is_empty() && !m.shards.is_empty());
        assert_eq!(m.len(), INLINE_KEYS + 1);
        assert!((0..=INLINE_KEYS as u64).all(|k| m.get(&k) == Some(&k)));
        // A reservation too big for the inline map reserves nothing.
        let mut big: ShardedMap<u64, u64> = ShardedMap::new();
        big.reserve(INLINE_KEYS + 1);
        assert_eq!((big.small.capacity(), big.shards.len()), (0, 0));
    }

    #[test]
    fn a_merge_walk_hands_out_base_runs_and_delta_entries_in_order() {
        let base = [1u64, 3, 5, 7, 8];
        let delta = [
            (0u64, 'a'),
            (3, 'b'),
            (4, 'c'),
            (6, 'd'),
            (7, 'e'),
            (9, 'f'),
        ];
        let walked: Vec<Merged<'_, u64, char>> = merge_sorted(&base, &delta).collect();
        let expected = [
            Merged::Delta(0, &'a'),
            Merged::Base(0..1),
            Merged::Delta(3, &'b'),
            Merged::Delta(4, &'c'),
            Merged::Base(2..3),
            Merged::Delta(6, &'d'),
            Merged::Delta(7, &'e'),
            Merged::Base(4..5),
            Merged::Delta(9, &'f'),
        ];
        assert_eq!(walked, expected);
        assert_eq!(merge_sorted::<u64, ()>(&[], &[]).count(), 0);
        let all: Vec<_> = merge_sorted::<u64, ()>(&base, &[]).collect();
        assert_eq!(all, [Merged::Base(0..base.len())]);
        // The rule's floor with no base, then its share of one, small or
        // large.
        assert!(!delta_is_full(INLINE_KEYS, 0));
        assert!(delta_is_full(INLINE_KEYS + 1, 0));
        for base in [10 * DELTA_SHARE, 100 * INLINE_KEYS * DELTA_SHARE] {
            assert!(!delta_is_full(base / DELTA_SHARE, base));
            assert!(delta_is_full(base / DELTA_SHARE + 1, base));
        }
    }
}
