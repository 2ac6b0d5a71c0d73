//! Physical storage of one relation.
//!
//! Two layouts sit behind one API; tuple ids are slot positions in both and
//! remain stable across deletions (slots are tombstoned, not reused), which
//! keeps inverted-index postings valid.
//!
//! * [`StorageLayout::Columnar`] (default): rows are kept in fixed-size
//!   *chunks* of [`CHUNK_ROWS`] slots, each chunk one contiguous column-major
//!   slab of datums (attribute after attribute) behind an `Arc`, and a
//!   bitmap of which slots are live. Cloning a table bumps one reference
//!   count per chunk (and copies the bitmaps, 128 bytes a chunk); an append
//!   or an update copies the slab of the chunk it writes — only while a
//!   clone still shares it ([`crate::cow`]) — and a delete clears a bit.
//!   Scans walk contiguous memory within a chunk and fetches copy nothing —
//!   reads hand out [`TupleRef`] views that borrow the chunk's slab, so the
//!   chunk is resolved once per tuple (a shift and a mask) and an attribute
//!   is then one indexed load.
//! * [`StorageLayout::Rows`]: the legacy `Vec<Option<Tuple>>` slot store,
//!   kept as the differential-testing reference for the columnar path. Its
//!   clone is a deep copy.

use crate::cow;
use crate::schema::RelationSchema;
use crate::tuple::{Tuple, TupleId, TupleRef};
use crate::value::Datum;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

/// Slots per chunk of a columnar table. A power of two, so slot → (chunk,
/// row) is a shift and a mask. It bounds what one write copies (an 8-op
/// batch unshares a handful of chunks of `CHUNK_ROWS × arity × 16` bytes
/// each) against what a clone bumps (one count per chunk); EXPERIMENTS.md
/// "The write path costs what the batch costs" has the sweep that chose it.
pub const CHUNK_ROWS: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK_ROWS.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_ROWS - 1;

/// Which physical layout a table (or whole database) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageLayout {
    /// Chunked per-attribute column slabs of interned datums.
    #[default]
    Columnar,
    /// The legacy row store of owned tuples.
    Rows,
}

/// Up to [`CHUNK_ROWS`] consecutive slots of a columnar table, with room
/// for `stride` of them. A chunk starts small and doubles its room as it
/// fills, so a result database's few rows do not pay for a full chunk, and
/// neither does copying a table's barely begun tail chunk in order to
/// append to it. The slab's `Arc` and the bitmap sit directly in the
/// table's chunk list, so a fetch is list → slab → datum with no pointer in
/// between and the liveness check touches the list alone.
#[derive(Debug, Clone)]
struct Chunk {
    /// Column-major: attribute `a` of row `r` is `slab[a * stride + r]`.
    slab: Arc<[Datum]>,
    stride: usize,
    /// One bit per slot: set = live, clear = tombstoned or not filled yet.
    live: [u64; CHUNK_ROWS / 64],
}

impl Chunk {
    fn with_room(arity: usize, stride: usize) -> Chunk {
        Chunk {
            slab: std::iter::repeat_n(Datum::Null, arity * stride).collect(),
            stride,
            live: [0; CHUNK_ROWS / 64],
        }
    }

    /// Re-lay the chunk out with room for `stride` rows (at least as many
    /// as it has room for now).
    fn widen(&mut self, arity: usize, stride: usize) {
        let mut slab: Vec<Datum> = vec![Datum::Null; arity * stride];
        for a in 0..arity {
            let column = &self.slab[a * self.stride..(a + 1) * self.stride];
            slab[a * stride..a * stride + self.stride].copy_from_slice(column);
        }
        self.slab = slab.into();
        self.stride = stride;
    }

    fn is_live(&self, row: usize) -> bool {
        self.live[row >> 6] >> (row & 63) & 1 == 1
    }

    fn row(&self, row: usize) -> TupleRef<'_> {
        TupleRef::Col {
            slab: &self.slab,
            stride: self.stride,
            row,
        }
    }

    fn write(&mut self, row: usize, datums: &[Datum]) {
        debug_assert!(row < self.stride, "a row past the stride is another column");
        let slab = cow::make_mut_slice(&mut self.slab);
        for (a, d) in datums.iter().enumerate() {
            slab[a * self.stride + row] = *d;
        }
        self.live[row >> 6] |= 1 << (row & 63);
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Columnar {
        /// Every chunk but the last is full.
        chunks: Vec<Chunk>,
        /// Physical slots (live + tombstoned) over all chunks.
        slots: usize,
    },
    Rows {
        slots: Vec<Option<Tuple>>,
    },
}

/// The tuple store of one relation.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<RelationSchema>,
    repr: Repr,
    live: usize,
}

impl Table {
    pub fn new(schema: RelationSchema) -> Self {
        Table::with_layout(schema, StorageLayout::default())
    }

    pub fn with_layout(schema: RelationSchema, layout: StorageLayout) -> Self {
        let repr = match layout {
            StorageLayout::Columnar => Repr::Columnar {
                chunks: Vec::new(),
                slots: 0,
            },
            StorageLayout::Rows => Repr::Rows { slots: Vec::new() },
        };
        Table {
            schema: Arc::new(schema),
            repr,
            live: 0,
        }
    }

    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Pre-size for `additional` more tuples, so the bulk load of a result
    /// database appends without intermediate regrowth: the chunk list for
    /// all of them, and the first chunk for as many as it will hold.
    pub fn reserve(&mut self, additional: usize) {
        let arity = self.schema.arity();
        match &mut self.repr {
            Repr::Columnar { chunks, slots } => {
                chunks.reserve(additional / CHUNK_ROWS);
                let rows = (*slots + additional).min(CHUNK_ROWS);
                match chunks.first_mut() {
                    None if rows > 0 => chunks.push(Chunk::with_room(arity, rows)),
                    Some(first) if first.stride < rows => first.widen(arity, rows),
                    _ => {}
                }
            }
            Repr::Rows { slots } => slots.reserve(additional),
        }
    }

    pub fn layout(&self) -> StorageLayout {
        match self.repr {
            Repr::Columnar { .. } => StorageLayout::Columnar,
            Repr::Rows { .. } => StorageLayout::Rows,
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of physical slots (live + tombstoned); the next append gets
    /// this as its tuple id.
    pub fn slot_count(&self) -> usize {
        match &self.repr {
            Repr::Columnar { slots, .. } => *slots,
            Repr::Rows { slots } => slots.len(),
        }
    }

    /// Append a tuple (validation happens in `Database::insert`).
    #[cfg(test)]
    pub(crate) fn append(&mut self, tuple: Tuple) -> TupleId {
        match &self.repr {
            Repr::Columnar { .. } => {
                let datums: Vec<Datum> = tuple.values().iter().map(Datum::from_value).collect();
                self.append_datums_from(&datums)
            }
            Repr::Rows { .. } => {
                let tid = TupleId(self.slot_count() as u64);
                let Repr::Rows { slots } = &mut self.repr else {
                    unreachable!()
                };
                slots.push(Some(tuple));
                self.live += 1;
                tid
            }
        }
    }

    /// Append a tuple already in stored form, from a borrowed slice
    /// ([`Datum`] is `Copy`), so bulk loaders can reuse one scratch buffer
    /// across appends.
    pub(crate) fn append_datums_from(&mut self, datums: &[Datum]) -> TupleId {
        debug_assert_eq!(datums.len(), self.schema.arity());
        self.append_slot(Some(datums))
    }

    /// Append a slot that is tombstoned from the start: what a dump's hole
    /// line loads back as, so the tuples after it keep their ids.
    pub(crate) fn append_tombstone(&mut self) {
        self.append_slot(None);
    }

    /// Claim the next slot, live with `datums` or tombstoned without.
    fn append_slot(&mut self, datums: Option<&[Datum]>) -> TupleId {
        let arity = self.schema.arity();
        let tid = TupleId(self.slot_count() as u64);
        match &mut self.repr {
            Repr::Columnar { chunks, slots } => {
                let row = *slots & CHUNK_MASK;
                if *slots == chunks.len() * CHUNK_ROWS {
                    chunks.push(Chunk::with_room(arity, 4));
                }
                let tail = chunks.last_mut().expect("a tail chunk was just ensured");
                if row == tail.stride {
                    tail.widen(arity, (2 * row).min(CHUNK_ROWS));
                }
                if let Some(datums) = datums {
                    tail.write(row, datums);
                }
                *slots += 1;
            }
            Repr::Rows { slots } => slots.push(
                datums.map(|datums| Tuple::new(datums.iter().map(|d| d.to_value()).collect())),
            ),
        }
        self.live += usize::from(datums.is_some());
        tid
    }

    /// Fetch a live tuple by id.
    pub fn get(&self, tid: TupleId) -> Option<TupleRef<'_>> {
        let slot = tid.as_usize();
        match &self.repr {
            Repr::Columnar { chunks, .. } => {
                let chunk = chunks.get(slot >> CHUNK_SHIFT)?;
                let row = slot & CHUNK_MASK;
                chunk.is_live(row).then(|| chunk.row(row))
            }
            Repr::Rows { slots } => slots.get(slot)?.as_ref().map(TupleRef::Row),
        }
    }

    /// One attribute of a live tuple, in stored form.
    pub fn datum(&self, tid: TupleId, attr: usize) -> Option<Datum> {
        Some(self.get(tid)?.datum(attr))
    }

    /// Put a tuple into a specific (tombstoned) slot — used by
    /// `Database::update` to replace a tuple while keeping its id.
    pub(crate) fn append_datums_at(&mut self, tid: TupleId, datums: Vec<Datum>) -> TupleId {
        let slot = tid.as_usize();
        assert!(slot < self.slot_count(), "append_at targets existing slots");
        match &mut self.repr {
            Repr::Columnar { chunks, .. } => {
                let chunk = &mut chunks[slot >> CHUNK_SHIFT];
                let row = slot & CHUNK_MASK;
                debug_assert!(!chunk.is_live(row), "append_at requires a free slot");
                chunk.write(row, &datums);
            }
            Repr::Rows { slots } => {
                debug_assert!(slots[slot].is_none(), "append_at requires a free slot");
                let values = datums.iter().map(|d| d.to_value()).collect();
                slots[slot] = Some(Tuple::new(values));
            }
        }
        self.live += 1;
        tid
    }

    /// Tombstone a tuple, returning its stored form if it was live.
    pub(crate) fn remove(&mut self, tid: TupleId) -> Option<Vec<Datum>> {
        let slot = tid.as_usize();
        let removed = match &mut self.repr {
            Repr::Columnar { chunks, .. } => {
                let chunk = chunks.get_mut(slot >> CHUNK_SHIFT)?;
                let row = slot & CHUNK_MASK;
                if !chunk.is_live(row) {
                    return None;
                }
                chunk.live[row >> 6] &= !(1 << (row & 63));
                Some(chunk.row(row).datums())
            }
            Repr::Rows { slots } => {
                let t = slots.get_mut(slot)?.take()?;
                Some(t.values().iter().map(Datum::from_value).collect())
            }
        };
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    /// Every slot in tid order, tombstoned ones as `None`.
    pub fn slots(&self) -> impl Iterator<Item = Option<TupleRef<'_>>> {
        (0..self.slot_count()).map(|slot| self.get(TupleId(slot as u64)))
    }

    /// Iterate over live tuples in tid order.
    pub fn iter(&self) -> TableIter<'_> {
        TableIter {
            table: self,
            next: 0,
        }
    }

    /// Heap bytes behind this table: the chunk list at its capacity and
    /// every slab at the room it has, filled or not. (A row-layout table —
    /// the testing reference — counts its slots and each row's values, not
    /// the text they own.)
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Columnar { chunks, .. } => {
                let slabs = chunks.iter().map(|c| cow::arc_bytes(size_of_val(&*c.slab)));
                cow::alloc_bytes(chunks.capacity() * size_of::<Chunk>()) + slabs.sum::<usize>()
            }
            Repr::Rows { slots } => {
                let rows = slots.iter().flatten().map(|t| size_of_val(t.values()));
                cow::alloc_bytes(slots.capacity() * size_of::<Option<Tuple>>())
                    + rows.map(cow::alloc_bytes).sum::<usize>()
            }
        }
    }

    /// Chunks of this table whose slab `other` does not share by pointer:
    /// zero for a fresh clone, one per chunk either side has written a row
    /// of since. (A row-layout table shares nothing: every slot counts.)
    pub(crate) fn unshared_chunks(&self, other: &Table) -> usize {
        match (&self.repr, &other.repr) {
            (Repr::Columnar { chunks, .. }, Repr::Columnar { chunks: theirs, .. }) => {
                let shared = chunks
                    .iter()
                    .zip(theirs)
                    .filter(|(a, b)| Arc::ptr_eq(&a.slab, &b.slab))
                    .count();
                chunks.len() - shared
            }
            _ => self.slot_count(),
        }
    }
}

/// Iterator over a table's live tuples — see [`Table::iter`].
pub struct TableIter<'a> {
    table: &'a Table,
    next: usize,
}

impl<'a> Iterator for TableIter<'a> {
    type Item = (TupleId, TupleRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.table.slot_count() {
            let tid = TupleId(self.next as u64);
            self.next += 1;
            if let Some(t) = self.table.get(tid) {
                return Some((tid, t));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn table_with(layout: StorageLayout) -> Table {
        Table::with_layout(
            RelationSchema::builder("R")
                .attr("a", DataType::Int)
                .build()
                .unwrap(),
            layout,
        )
    }

    fn table() -> Table {
        table_with(StorageLayout::Columnar)
    }

    #[test]
    fn append_get_roundtrip() {
        let mut t = table();
        let t0 = t.append(Tuple::new(vec![Value::from(10)]));
        let t1 = t.append(Tuple::new(vec![Value::from(20)]));
        assert_eq!(t.get(t0).unwrap().get(0), Value::from(10));
        assert_eq!(t.get(t1).unwrap().get(0), Value::from(20));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn delete_tombstones_without_shifting_ids() {
        for layout in [StorageLayout::Columnar, StorageLayout::Rows] {
            let mut t = table_with(layout);
            let t0 = t.append(Tuple::new(vec![Value::from(10)]));
            let t1 = t.append(Tuple::new(vec![Value::from(20)]));
            assert!(t.remove(t0).is_some());
            assert!(t.remove(t0).is_none());
            assert_eq!(t.len(), 1);
            assert!(t.get(t0).is_none());
            assert_eq!(t.get(t1).unwrap().get(0), Value::from(20));
            // New appends take fresh slots, not the tombstoned one.
            let t2 = t.append(Tuple::new(vec![Value::from(30)]));
            assert_ne!(t2, t0);
            assert_eq!(t.slot_count(), 3);
        }
    }

    #[test]
    fn iter_skips_tombstones_in_tid_order() {
        for layout in [StorageLayout::Columnar, StorageLayout::Rows] {
            let mut t = table_with(layout);
            let ids: Vec<_> = (0..5)
                .map(|i| t.append(Tuple::new(vec![Value::from(i)])))
                .collect();
            t.remove(ids[1]);
            t.remove(ids[3]);
            let seen: Vec<i64> = t
                .iter()
                .map(|(_, tup)| tup.get(0).as_int().unwrap())
                .collect();
            assert_eq!(seen, vec![0, 2, 4]);
        }
    }

    #[test]
    fn get_out_of_range_is_none() {
        let t = table();
        assert!(t.get(TupleId(99)).is_none());
    }

    #[test]
    fn layouts_store_identical_tuples() {
        let rows = vec![
            vec![Value::from(1)],
            vec![Value::from(2)],
            vec![Value::from(3)],
        ];
        let mut a = table_with(StorageLayout::Columnar);
        let mut b = table_with(StorageLayout::Rows);
        for r in &rows {
            let ta = a.append(Tuple::new(r.clone()));
            let tb = b.append(Tuple::new(r.clone()));
            assert_eq!(ta, tb);
        }
        assert_eq!(a.layout(), StorageLayout::Columnar);
        assert_eq!(b.layout(), StorageLayout::Rows);
        for (ta, tb) in a.iter().zip(b.iter()) {
            assert_eq!(ta.0, tb.0);
            assert_eq!(ta.1, tb.1);
        }
    }

    #[test]
    fn ids_reads_and_tombstones_cross_chunk_boundaries() {
        let rows = 3 * CHUNK_ROWS + 7;
        let mut t = table();
        t.reserve(rows);
        for i in 0..rows {
            assert_eq!(t.append_datums_from(&[Datum::Int(i as i64)]).as_usize(), i);
        }
        assert_eq!(t.slot_count(), rows);
        for i in [0, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5, rows - 1] {
            assert_eq!(t.datum(TupleId(i as u64), 0), Some(Datum::Int(i as i64)));
        }
        assert!(t.get(TupleId(rows as u64)).is_none());
        let edge = TupleId(CHUNK_ROWS as u64);
        assert_eq!(t.remove(edge), Some(vec![Datum::Int(CHUNK_ROWS as i64)]));
        assert!(t.get(edge).is_none());
        t.append_datums_at(edge, vec![Datum::Int(-1)]);
        assert_eq!(t.datum(edge, 0), Some(Datum::Int(-1)));
        assert_eq!(t.iter().count(), rows);
        assert!(t.iter().map(|(tid, _)| tid.as_usize()).eq(0..rows));
    }

    #[test]
    fn a_clone_shares_every_chunk_and_a_write_copies_only_its_own() {
        let rows = 5 * CHUNK_ROWS + 10;
        let mut original = table();
        for i in 0..rows {
            original.append_datums_from(&[Datum::Int(i as i64)]);
        }
        let mut copy = original.clone();
        assert_eq!(copy.unshared_chunks(&original), 0);

        let meter = cow::CopyMeter::new();
        // An append copies the tail chunk's slab; a second one finds it
        // private.
        copy.append_datums_from(&[Datum::Int(-1)]);
        copy.append_datums_from(&[Datum::Int(-2)]);
        assert_eq!(copy.unshared_chunks(&original), 1);
        // A delete clears a bit in the copy's own chunk list and copies
        // nothing; an update in place copies the slab of its row's chunk.
        assert!(copy.remove(TupleId(9 * CHUNK_ROWS as u64)).is_none());
        let victim = TupleId(2 * CHUNK_ROWS as u64 + 3);
        assert!(copy.remove(victim).is_some());
        assert!(copy.remove(victim).is_none());
        assert_eq!(meter.copied().pieces, 1);
        copy.append_datums_at(victim, vec![Datum::Int(-3)]);
        assert!(copy.remove(victim).is_some());
        assert_eq!(copy.unshared_chunks(&original), 2);
        let copied = meter.copied();
        assert_eq!(copied.pieces, 2);
        // (The tail had room for 16 rows when it was copied.)
        assert_eq!(copied.bytes, ((16 + CHUNK_ROWS) * 16) as u64);

        // The original never saw any of it.
        assert_eq!(original.slot_count(), rows);
        assert_eq!(original.len(), rows);
        assert_eq!(original.datum(victim, 0), Some(Datum::Int(victim.0 as i64)));
        assert_eq!(copy.len(), rows + 1);
    }

    #[test]
    fn columnar_update_in_place_keeps_slab_rows() {
        let mut t = table();
        let t0 = t.append(Tuple::new(vec![Value::from(1)]));
        t.remove(t0);
        t.append_datums_at(t0, vec![Datum::Int(9)]);
        assert_eq!(t.get(t0).unwrap().get(0), Value::from(9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.slot_count(), 1);
    }
}
