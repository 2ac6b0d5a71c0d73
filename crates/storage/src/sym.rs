//! Global string interning: `Value::Text` payloads become `u32` symbols.
//!
//! The columnar tuple layout stores every text attribute as a [`Sym`] — an
//! index into one process-wide [`SymbolTable`] — so tuples hold 16-byte
//! [`crate::Datum`]s instead of owned `String`s, equality is an integer
//! compare, and index keys hash a `u32` instead of string bytes.
//!
//! The table is append-only for the lifetime of the process. String bytes
//! live in chunked arenas that are never freed, so a resolved `&'static str`
//! stays valid forever and symbol ids are stable across every database and
//! index built in the process — a result database can copy symbols from its
//! source without re-hashing a single string.
//!
//! Concurrency: interning novel strings takes a write lock; looking up an
//! existing string takes a read lock; resolving a symbol to its string is
//! lock-free (an `Acquire` load of the published length orders the slot
//! write before any reader that can see the id).

use crate::cow::{alloc_bytes, table_bytes};
use crate::fasthash::FxHashMap;
use std::fmt;
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
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Byte chunks holding every interned string, allocated once and never
/// moved or freed: handed-out `&'static str` slices stay valid.
struct ChunkArena {
    chunks: Vec<String>,
    bytes: usize,
}

const CHUNK_BYTES: usize = 64 * 1024;

impl ChunkArena {
    fn new() -> Self {
        ChunkArena {
            chunks: Vec::new(),
            bytes: 0,
        }
    }

    fn alloc(&mut self, s: &str) -> &'static str {
        let need = s.len();
        let fits = self
            .chunks
            .last()
            .is_some_and(|c| c.capacity() - c.len() >= need);
        if !fits {
            self.chunks
                .push(String::with_capacity(CHUNK_BYTES.max(need)));
        }
        let chunk = self.chunks.last_mut().expect("chunk pushed above");
        let start = chunk.len();
        chunk.push_str(s);
        self.bytes += need;
        // Safety: the chunk's buffer never reallocates (pushes are bounded
        // by the reserved capacity) and is never dropped (the arena lives in
        // a process-global `OnceLock`), so the slice is valid for 'static.
        unsafe {
            let bytes = std::slice::from_raw_parts(chunk.as_ptr().add(start), need);
            std::str::from_utf8_unchecked(bytes)
        }
    }
}

struct Inner {
    map: FxHashMap<&'static str, u32>,
    arena: ChunkArena,
}

/// The process-wide append-only symbol table. See the module docs.
pub struct SymbolTable {
    inner: RwLock<Inner>,
    /// Id → string, in doubling segments: segment `k` holds ids
    /// `[2^k - 1, 2^(k+1) - 1)`. Segments are allocated under the write
    /// lock and published with `Release`; entries are plain `&'static str`
    /// written before `len` advances.
    segments: [AtomicPtr<&'static str>; SEGMENTS],
    len: AtomicU32,
}

const SEGMENTS: usize = 32;

fn segment_of(id: u32) -> (usize, usize) {
    let k = (31 - (id + 1).leading_zeros()) as usize;
    (k, (id + 1) as usize - (1usize << k))
}

impl SymbolTable {
    fn new() -> Self {
        SymbolTable {
            inner: RwLock::new(Inner {
                map: FxHashMap::default(),
                arena: ChunkArena::new(),
            }),
            segments: [const { AtomicPtr::new(std::ptr::null_mut()) }; SEGMENTS],
            len: AtomicU32::new(0),
        }
    }

    /// The one table shared by the whole process.
    pub fn global() -> &'static SymbolTable {
        static TABLE: OnceLock<SymbolTable> = OnceLock::new();
        TABLE.get_or_init(SymbolTable::new)
    }

    pub fn intern(&self, s: &str) -> Sym {
        if let Some(&id) = self.inner.read().expect("symbol table poisoned").map.get(s) {
            return Sym(id);
        }
        let mut inner = self.inner.write().expect("symbol table poisoned");
        if let Some(&id) = inner.map.get(s) {
            return Sym(id); // raced with another writer
        }
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < u32::MAX, "symbol table full");
        let stored = inner.arena.alloc(s);
        let (k, off) = segment_of(id);
        let mut seg = self.segments[k].load(Ordering::Acquire);
        if seg.is_null() {
            let fresh: Box<[&'static str]> = vec![""; 1usize << k].into_boxed_slice();
            seg = Box::into_raw(fresh) as *mut &'static str;
            self.segments[k].store(seg, Ordering::Release);
        }
        // Safety: `off < 2^k` by construction; only the write-lock holder
        // writes this slot, exactly once, before publishing `len` below.
        unsafe { *seg.add(off) = stored };
        self.len.store(id + 1, Ordering::Release);
        inner.map.insert(stored, id);
        Sym(id)
    }

    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .map
            .get(s)
            .map(|&id| Sym(id))
    }

    /// Resolve without locking: the `Acquire` load of `len` synchronizes
    /// with the `Release` store that published the slot.
    pub fn resolve(&self, sym: Sym) -> &'static str {
        let n = self.len.load(Ordering::Acquire);
        assert!(sym.0 < n, "symbol {} out of range (len {n})", sym.0);
        let (k, off) = segment_of(sym.0);
        let seg = self.segments[k].load(Ordering::Acquire);
        debug_assert!(!seg.is_null());
        unsafe { *seg.add(off) }
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes behind the table: the arena's chunks at their capacity,
    /// the string → id map at its bucket count and the id → string segments
    /// allocated so far.
    pub fn heap_bytes(&self) -> usize {
        let inner = self.inner.read().expect("symbol table poisoned");
        let arena = inner.arena.chunks.iter().map(|c| c.capacity());
        let segments = (0..SEGMENTS)
            .filter(|k| !self.segments[*k].load(Ordering::Acquire).is_null())
            .map(|k| (1usize << k) * std::mem::size_of::<&str>());
        arena.chain(segments).map(alloc_bytes).sum::<usize>()
            + alloc_bytes(inner.arena.chunks.capacity() * std::mem::size_of::<String>())
            + table_bytes(inner.map.capacity(), std::mem::size_of::<(&str, u32)>())
    }

    /// Total string bytes held in the arena.
    pub fn arena_bytes(&self) -> usize {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .arena
            .bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let big = "x".repeat(CHUNK_BYTES * 2 + 7);
        let s = Sym::intern(&big);
        assert_eq!(s.as_str(), big);
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
