//! Global string interning: `Value::Text` payloads become `u32` symbols.
//!
//! The columnar tuple layout stores every text attribute as a [`Sym`] — an
//! index into one process-wide [`SymbolTable`] — so a text cell is its
//! 4-byte id instead of an owned `String`, equality is an integer compare,
//! and index keys hash a `u32` instead of string bytes.
//!
//! The table is append-only for the lifetime of the process. String bytes
//! live in chunked arenas that are never freed, so a resolved `&'static str`
//! stays valid forever and symbol ids are stable across every database and
//! index built in the process — a result database can copy symbols from its
//! source without re-hashing a single string.
//!
//! What an id costs beside its string: 8 bytes where its string is (a `u32`
//! arena offset and a `u32` length, in fixed pages), and a 4-byte key and a
//! control byte in a string → id set whose keys are the ids themselves,
//! hashing and comparing as the strings they name.
//!
//! Concurrency: interning novel strings takes a write lock; looking up an
//! existing string takes a read lock; resolving a symbol to its string is
//! lock-free (an `Acquire` load of the published length orders the slot
//! writes before any reader that can see the id).

use crate::cow::{alloc_bytes, table_bytes};
use crate::fasthash::FxBuildHasher;
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned string: a dense `u32` id into the global [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s`, returning its (possibly freshly assigned) symbol.
    pub fn intern(s: &str) -> Sym {
        SymbolTable::global().intern(s)
    }

    /// The symbol for `s` if it was ever interned; `None` otherwise. A miss
    /// proves the string is stored nowhere — columns and index keys only
    /// ever hold interned text — which makes this the right probe for
    /// lookups that must not populate the table.
    pub fn lookup(s: &str) -> Option<Sym> {
        SymbolTable::global().lookup(s)
    }

    /// The interned string. Lock-free.
    pub fn as_str(self) -> &'static str {
        SymbolTable::global().resolve(self)
    }

    /// The raw id (dense, starting at 0).
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol a stored id names — a text cell read back from a table.
    pub(crate) fn from_id(id: u32) -> Sym {
        Sym(id)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bytes per arena chunk. A string that does not fit the room left in the
/// last chunk starts a new one, and a longer string gets a chunk of its
/// own; either way an arena offset is the chunk's number above
/// [`CHUNK_SHIFT`] bits and the position in it below.
const CHUNK_BYTES: usize = 1 << CHUNK_SHIFT;
const CHUNK_SHIFT: u32 = 16;

/// Slots per page of a [`Pages`] array.
const PAGE_SLOTS: usize = 1024;

/// Doubling segments of page pointers cover `2^32` ids in pages of
/// [`PAGE_SLOTS`]: segment `k` holds pages `[2^k - 1, 2^(k+1) - 1)`.
const DIR_SEGMENTS: usize = 23;

fn segment_of(i: usize) -> (usize, usize) {
    let k = (usize::BITS - 1 - (i + 1).leading_zeros()) as usize;
    (k, i + 1 - (1 << k))
}

/// An append-only array any thread reads without a lock: fixed pages of
/// [`PAGE_SLOTS`] slots, found through doubling segments of page pointers.
/// Only the holder of the table's write lock writes, each slot once and
/// before the table publishes a length covering it (`Release`); a reader
/// reads below a length it loaded with `Acquire`. So a slot costs its size
/// and a page of slack in all, where doubling segments of slots leave up to
/// as many empty as full.
struct Pages<T: Copy> {
    dir: [AtomicPtr<AtomicPtr<T>>; DIR_SEGMENTS],
    /// What a slot of a fresh page holds until it is written.
    blank: T,
}

impl<T: Copy> Pages<T> {
    fn new(blank: T) -> Self {
        Pages {
            dir: [const { AtomicPtr::new(std::ptr::null_mut()) }; DIR_SEGMENTS],
            blank,
        }
    }

    /// Write slot `i`. Only the write-lock holder calls this.
    fn set(&self, i: usize, value: T) {
        let (k, off) = segment_of(i / PAGE_SLOTS);
        let mut segment = self.dir[k].load(Ordering::Acquire);
        if segment.is_null() {
            let fresh: Box<[AtomicPtr<T>]> = (0..1usize << k)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            segment = Box::into_raw(fresh) as *mut AtomicPtr<T>;
            self.dir[k].store(segment, Ordering::Release);
        }
        // SAFETY: `off < 2^k`, the length of the segment allocated above or
        // by an earlier call, which is freed only when `self` is dropped.
        let slot = unsafe { &*segment.add(off) };
        let mut page = slot.load(Ordering::Acquire);
        if page.is_null() {
            let fresh: Box<[T]> = vec![self.blank; PAGE_SLOTS].into_boxed_slice();
            page = Box::into_raw(fresh) as *mut T;
            slot.store(page, Ordering::Release);
        }
        // SAFETY: `i % PAGE_SLOTS` is inside the page. Only the write-lock
        // holder writes, and no reader reads this slot before the table
        // publishes a length covering it, after this write.
        unsafe { *page.add(i % PAGE_SLOTS) = value };
    }

    /// Slot `i`.
    ///
    /// # Safety
    ///
    /// Slot `i` was written by [`Pages::set`] before the caller loaded, with
    /// `Acquire`, the length the table published to cover it — or by the
    /// caller itself — so its segment and page are allocated and published.
    unsafe fn get(&self, i: usize) -> T {
        let (k, off) = segment_of(i / PAGE_SLOTS);
        let segment = self.dir[k].load(Ordering::Acquire);
        let page = (*segment.add(off)).load(Ordering::Acquire);
        *page.add(i % PAGE_SLOTS)
    }

    /// Every allocated segment with the pages it points at.
    fn allocated(&self) -> impl Iterator<Item = (usize, *mut AtomicPtr<T>, Vec<*mut T>)> + '_ {
        self.dir.iter().enumerate().filter_map(|(k, segment)| {
            let segment = segment.load(Ordering::Acquire);
            if segment.is_null() {
                return None;
            }
            // SAFETY: a published segment holds `2^k` slots and is freed only
            // when `self` is dropped.
            let pages = (0..1usize << k)
                .map(|off| unsafe { (*segment.add(off)).load(Ordering::Acquire) })
                .filter(|page| !page.is_null());
            Some((k, segment, pages.collect()))
        })
    }

    /// Heap bytes: the pages and the segments pointing at them.
    fn heap_bytes(&self) -> usize {
        let page = alloc_bytes(PAGE_SLOTS * std::mem::size_of::<T>());
        self.allocated()
            .map(|(k, _, pages)| {
                alloc_bytes((1 << k) * std::mem::size_of::<usize>()) + pages.len() * page
            })
            .sum()
    }
}

impl<T: Copy> Drop for Pages<T> {
    fn drop(&mut self) {
        for (k, segment, pages) in self.allocated() {
            // SAFETY: each pointer came from `Box::into_raw` of a boxed slice
            // of this length in `set`, is freed here once, and nothing reads
            // it after `self` is dropped.
            unsafe {
                for page in pages {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        page, PAGE_SLOTS,
                    )));
                }
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    segment,
                    1 << k,
                )));
            }
        }
    }
}

thread_local! {
    /// The table whose keys this thread is hashing or comparing, for the
    /// length of one operation on its string → id set ([`SymbolTable::keyed`]):
    /// how a 4-byte [`Key`] finds the string it stands for.
    static KEYS_OF: Cell<*const SymbolTable> = const { Cell::new(std::ptr::null()) };
}

/// A string → id entry that is the id alone: it hashes and compares as the
/// string it names, so the set can be probed with a `&str`. Ids are unique
/// per string, so comparing two keys' ids is comparing their strings.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key(u32);

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        let table = KEYS_OF.get();
        assert!(!table.is_null(), "a symbol key resolved outside its table");
        // SAFETY: `keyed` points `KEYS_OF` at the table whose set is being
        // used, for as long as it is, and a key enters the set only after
        // its string's slots are written.
        unsafe { (*table).string(self.0) }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        <Key as Borrow<str>>::borrow(self).hash(state);
    }
}

struct Inner {
    keys: HashSet<Key, FxBuildHasher>,
    /// Byte chunks holding every interned string, allocated once and never
    /// moved or freed: handed-out `&'static str` slices stay valid.
    arena: Vec<String>,
    /// String bytes over all chunks.
    bytes: usize,
}

/// The process-wide append-only symbol table. See the module docs.
pub struct SymbolTable {
    inner: RwLock<Inner>,
    /// Id → its string's arena offset (low half) and length (high half).
    strings: Pages<u64>,
    /// Arena chunk number → its first byte.
    chunks: Pages<*const u8>,
    len: AtomicU32,
}

// SAFETY: `inner` and `len` are `Send + Sync` on their own. The two `Pages`
// hold atomics, plain `u64`s and, in `chunks`, pointers to the first byte of
// the arena chunks `inner` owns: written only under the write lock and
// published by `len`'s `Release` store, and only ever read through, into
// buffers that never move and are freed only with the table itself.
unsafe impl Send for SymbolTable {}
unsafe impl Sync for SymbolTable {}

impl SymbolTable {
    /// A table of its own. Strings it resolves live as long as it does, not
    /// for `'static` as its signatures say: only the process-wide table,
    /// which is never dropped, is handed out.
    fn new() -> Self {
        SymbolTable {
            inner: RwLock::new(Inner {
                keys: HashSet::default(),
                arena: Vec::new(),
                bytes: 0,
            }),
            strings: Pages::new(0),
            chunks: Pages::new(std::ptr::null()),
            len: AtomicU32::new(0),
        }
    }

    /// The one table shared by the whole process.
    pub fn global() -> &'static SymbolTable {
        static TABLE: OnceLock<SymbolTable> = OnceLock::new();
        TABLE.get_or_init(SymbolTable::new)
    }

    /// Run `f`, which uses this table's string → id set, with the set's keys
    /// resolving to this table's strings.
    fn keyed<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(*const SymbolTable);
        impl Drop for Restore {
            fn drop(&mut self) {
                KEYS_OF.set(self.0);
            }
        }
        let _restore = Restore(KEYS_OF.replace(self));
        f()
    }

    pub fn intern(&self, s: &str) -> Sym {
        if let Some(sym) = self.lookup(s) {
            return sym;
        }
        let mut inner = self.inner.write().expect("symbol table poisoned");
        if let Some(key) = self.keyed(|| inner.keys.get(s).copied()) {
            return Sym(key.0); // raced with another writer
        }
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < u32::MAX, "symbol table full");
        let len = u32::try_from(s.len()).expect("a symbol is under 4 GiB");
        let offset = self.alloc(&mut inner, s);
        self.strings
            .set(id as usize, u64::from(offset) | u64::from(len) << 32);
        self.len.store(id + 1, Ordering::Release);
        self.keyed(|| inner.keys.insert(Key(id)));
        Sym(id)
    }

    /// Copy `s` into the arena, returning its offset.
    fn alloc(&self, inner: &mut Inner, s: &str) -> u32 {
        let fits = inner
            .arena
            .last()
            .is_some_and(|chunk| chunk.len() + s.len() < CHUNK_BYTES);
        if !fits {
            let number = inner.arena.len();
            assert!(number < 1 << (32 - CHUNK_SHIFT), "symbol arena full");
            let chunk = String::with_capacity(CHUNK_BYTES.max(s.len()));
            self.chunks.set(number, chunk.as_ptr());
            inner.arena.push(chunk);
        }
        let number = inner.arena.len() - 1;
        let chunk = inner.arena.last_mut().expect("chunk pushed above");
        let at = chunk.len();
        // Resolved strings point into the buffer: it must never move.
        assert!(chunk.capacity() - at >= s.len(), "a chunk outgrew its room");
        chunk.push_str(s);
        inner.bytes += s.len();
        ((number as u32) << CHUNK_SHIFT) | at as u32
    }

    pub fn lookup(&self, s: &str) -> Option<Sym> {
        let inner = self.inner.read().expect("symbol table poisoned");
        self.keyed(|| inner.keys.get(s).map(|key| Sym(key.0)))
    }

    /// Resolve without locking: the `Acquire` load of `len` synchronizes
    /// with the `Release` store that published the slot.
    pub fn resolve(&self, sym: Sym) -> &'static str {
        let n = self.len.load(Ordering::Acquire);
        assert!(sym.0 < n, "symbol {} out of range (len {n})", sym.0);
        // SAFETY: `sym` is below the length just loaded with `Acquire`.
        unsafe { self.string(sym.0) }
    }

    /// The string of `id`.
    ///
    /// # Safety
    ///
    /// `id` is written: below a length this thread loaded with `Acquire`, or
    /// in the string → id set the thread is reading under the lock.
    unsafe fn string(&self, id: u32) -> &'static str {
        // SAFETY: by the caller's guarantee the id's slot and its chunk's
        // slot were written before this read. The offset and length were
        // taken from a `&str` copied into that chunk, whose buffer never
        // moves and is freed only with the table.
        unsafe {
            let at = self.strings.get(id as usize);
            let (offset, len) = (at as u32, (at >> 32) as usize);
            let chunk = self.chunks.get((offset >> CHUNK_SHIFT) as usize);
            let start = chunk.add((offset as usize) & (CHUNK_BYTES - 1));
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(start, len))
        }
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes behind the table: the arena's chunks at their capacity,
    /// the string → id set at its bucket count, and the pages of offsets and
    /// of chunk pointers allocated so far.
    pub fn heap_bytes(&self) -> usize {
        let inner = self.inner.read().expect("symbol table poisoned");
        let arena = inner.arena.iter().map(|c| alloc_bytes(c.capacity()));
        arena.sum::<usize>()
            + alloc_bytes(inner.arena.capacity() * std::mem::size_of::<String>())
            + table_bytes(inner.keys.capacity(), std::mem::size_of::<Key>())
            + self.strings.heap_bytes()
            + self.chunks.heap_bytes()
    }

    /// Total string bytes held in the arena.
    pub fn arena_bytes(&self) -> usize {
        self.inner.read().expect("symbol table poisoned").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::FxHashMap;

    #[test]
    fn interning_is_idempotent_and_resolves_losslessly() {
        let a = Sym::intern("woody allen");
        let b = Sym::intern("woody allen");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "woody allen");
        let c = Sym::intern("manhattan");
        assert_ne!(a, c);
        assert_eq!(c.as_str(), "manhattan");
        assert_eq!(a.to_string(), "woody allen");
    }

    #[test]
    fn lookup_misses_do_not_intern() {
        let before = SymbolTable::global().len();
        assert_eq!(Sym::lookup("sym-test-never-interned-\u{1F5C4}"), None);
        assert_eq!(SymbolTable::global().len(), before);
        let s = Sym::intern("sym-test-now-interned");
        assert_eq!(Sym::lookup("sym-test-now-interned"), Some(s));
    }

    #[test]
    fn oversized_strings_get_their_own_chunk() {
        let table = SymbolTable::new();
        let big = "x".repeat(CHUNK_BYTES * 2 + 7);
        let full = "y".repeat(CHUNK_BYTES - 1);
        let strings = ["before", big.as_str(), full.as_str(), "", "z"];
        let syms: Vec<Sym> = strings.iter().map(|s| table.intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            assert_eq!(table.resolve(*sym), *s);
            assert_eq!(table.lookup(s), Some(*sym));
        }
        // "before"; the big string alone; the one that fills a chunk to a
        // byte short, with "" at that chunk's last position; "z".
        assert_eq!(table.inner.read().unwrap().arena.len(), 4);
        assert_eq!(table.arena_bytes(), 6 + big.len() + full.len() + 1);
    }

    #[test]
    fn concurrent_intern_and_resolve_agree() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| {
                            let s = format!("sym-race-{}", (i * 7 + t) % 100);
                            let sym = Sym::intern(&s);
                            assert_eq!(sym.as_str(), s);
                            (s, sym)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen: FxHashMap<String, Sym> = FxHashMap::default();
        for h in handles {
            for (s, sym) in h.join().unwrap() {
                // Every thread got the same id for the same string.
                assert_eq!(*seen.entry(s).or_insert(sym), sym);
            }
        }
    }

    /// What an id costs beside its string: 8 bytes of offset and length in
    /// pages, and 5 bytes a bucket of the string → id set — at most 14 with
    /// the set as full as it gets (7/8 of 131,072 buckets is 114,688 keys;
    /// just past a doubling it is twice that). Slack: the last arena chunk's
    /// unused room and the last page's.
    #[test]
    fn an_id_costs_its_string_and_fourteen_bytes() {
        let table = SymbolTable::new();
        let n = 114_000;
        let strings: Vec<String> = (0..n).map(|i| format!("budget symbol {i}")).collect();
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(table.intern(s).id() as usize, i);
        }
        for (i, s) in strings.iter().enumerate().step_by(997) {
            assert_eq!(table.resolve(Sym(i as u32)), s);
            assert_eq!(table.lookup(s), Some(Sym(i as u32)));
        }
        let bytes: usize = strings.iter().map(String::len).sum();
        assert_eq!(table.arena_bytes(), bytes);
        let heap = table.heap_bytes();
        assert!(
            heap <= bytes + 14 * n + CHUNK_BYTES,
            "{heap} B for {n} ids of {bytes} B: {:.2} B an id beside its string",
            (heap - bytes) as f64 / n as f64
        );
        let set = table_bytes(table.inner.read().unwrap().keys.capacity(), 4);
        assert!(set <= 6 * n, "{set} B of set");
        assert!(table.strings.heap_bytes() <= 8 * (n + 2 * PAGE_SLOTS));
    }

    // Property test: round-trip through the table is the identity for
    // arbitrary strings (satellite: symbol-table round-trip).
    proptest::proptest! {
        #[test]
        fn round_trip_property(s in "[a-z0-9 çéü_-]{0,40}") {
            let sym = Sym::intern(&s);
            proptest::prop_assert_eq!(sym.as_str(), s.as_str());
            proptest::prop_assert_eq!(Sym::lookup(&s), Some(sym));
            proptest::prop_assert_eq!(Sym::intern(&s), sym);
        }
    }
}
