//! Physical storage of one relation.
//!
//! Tuple ids are slot positions and remain stable across deletions (slots
//! are tombstoned, not reused), which keeps inverted-index postings valid.
//! Rows are kept in fixed-size *chunks* of [`CHUNK_ROWS`] slots, each chunk
//! one contiguous column-major slab of 8-byte words behind an `Arc`, and a
//! bitmap of which slots are live. A cell takes what its declared type
//! takes: an `INT` or a `FLOAT` is one word, a `TEXT` (its symbol id) or a
//! `BOOL` half of one, and each column has a null bitmap of its own in the
//! slab ([`Column`]). Cloning a table bumps one reference count per chunk
//! (and copies the bitmaps, 128 bytes a chunk); an append or an update
//! copies the slab of the chunk it writes — only while a clone still shares
//! it ([`crate::cow`]) — and a delete clears a bit. Scans walk contiguous
//! memory within a chunk and fetches copy nothing — reads hand out
//! [`TupleRef`] views that borrow the chunk's slab and the table's column
//! layout, so the chunk is resolved once per tuple (a shift and a mask) and
//! an attribute is then a bit test and one load, rebuilt into a [`Datum`]
//! by its column's type.

use crate::cow;
use crate::schema::RelationSchema;
use crate::sym::Sym;
use crate::tuple::{TupleId, TupleRef};
use crate::value::{DataType, Datum};
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

/// Slots per chunk of a table. A power of two, so slot → (chunk,
/// row) is a shift and a mask. It bounds what one write copies (an 8-op
/// batch unshares a handful of chunks of `CHUNK_ROWS` rows each) against
/// what a clone bumps (one count per chunk); EXPERIMENTS.md "The write path
/// costs what the batch costs" has the sweep that chose it.
pub const CHUNK_ROWS: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK_ROWS.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_ROWS - 1;

/// Where one attribute of a table lives in a chunk's slab,
/// computed once from the schema. For a chunk with room for `stride` rows
/// (always even), column `nth` starts at word `at · stride/2 + nth ·
/// ⌈stride/64⌉`: its null bitmap (a set bit is a null), then its cells —
/// `stride` words for an `INT` or a `FLOAT` (the value's bits), `stride/2`
/// for a `TEXT` (the symbol id) or a `BOOL`, two 4-byte cells to a word.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    ty: DataType,
    /// 4-byte units one row takes in the columns before this one.
    at: u32,
    /// This column's position, which is how many bitmaps precede it.
    nth: u32,
}

impl Column {
    /// The layout of every attribute of `schema`, in order.
    fn all_of(schema: &RelationSchema) -> Arc<[Column]> {
        let mut at = 0;
        let columns = schema.attributes().iter().enumerate().map(|(nth, a)| {
            let column = Column {
                ty: a.ty,
                at,
                nth: nth as u32,
            };
            at += column.units();
            column
        });
        columns.collect()
    }

    /// 4-byte units one row's cell takes.
    fn units(&self) -> u32 {
        match self.ty {
            DataType::Int | DataType::Float => 2,
            DataType::Text | DataType::Bool => 1,
        }
    }

    /// First word of this column's null bitmap, and of its cells.
    #[inline]
    fn start(&self, stride: usize) -> (usize, usize) {
        let bitmap = stride.div_ceil(64);
        let start = self.at as usize * (stride / 2) + self.nth as usize * bitmap;
        (start, start + bitmap)
    }

    /// Words this column takes at `stride`: bitmap and cells.
    fn words(&self, stride: usize) -> usize {
        stride.div_ceil(64) + self.units() as usize * (stride / 2)
    }

    /// The cell of `row`, in stored form.
    #[inline]
    pub(crate) fn read(&self, slab: &[u64], stride: usize, row: usize) -> Datum {
        let (bitmap, cells) = self.start(stride);
        if slab[bitmap + row / 64] >> (row % 64) & 1 == 1 {
            return Datum::Null;
        }
        let half = || (slab[cells + row / 2] >> (row % 2 * 32)) as u32;
        match self.ty {
            DataType::Int => Datum::Int(slab[cells + row] as i64),
            DataType::Float => Datum::Float(f64::from_bits(slab[cells + row])),
            DataType::Text => Datum::Sym(Sym::from_id(half())),
            DataType::Bool => Datum::Bool(half() != 0),
        }
    }

    /// Store `datum` (validated against this column's type) as `row`'s cell.
    fn write(&self, slab: &mut [u64], stride: usize, row: usize, datum: Datum) {
        // The cell's width and meaning come from the column: a datum of
        // another type would be stored as something else.
        assert!(
            datum.conforms_to(self.ty),
            "{datum:?} in a {} column",
            self.ty
        );
        let (bitmap, cells) = self.start(stride);
        let (null, bits) = match datum {
            Datum::Null => (true, 0),
            Datum::Int(i) => (false, i as u64),
            Datum::Float(f) => (false, f.to_bits()),
            Datum::Sym(s) => (false, u64::from(s.id())),
            Datum::Bool(b) => (false, u64::from(b)),
        };
        let flags = &mut slab[bitmap + row / 64];
        *flags = *flags & !(1 << (row % 64)) | u64::from(null) << (row % 64);
        if self.units() == 2 {
            slab[cells + row] = bits;
        } else {
            let shift = row % 2 * 32;
            let word = &mut slab[cells + row / 2];
            *word = *word & !(0xFFFF_FFFF << shift) | bits << shift;
        }
    }
}

/// Up to [`CHUNK_ROWS`] consecutive slots of a table, with room
/// for `stride` of them. A chunk starts small and doubles its room as it
/// fills, so a result database's few rows do not pay for a full chunk, and
/// neither does copying a table's barely begun tail chunk in order to
/// append to it. The slab's `Arc` and the bitmap sit directly in the
/// table's chunk list, so a fetch is list → slab → cell with no pointer in
/// between and the liveness check touches the list alone.
#[derive(Debug, Clone)]
struct Chunk {
    /// Column-major, laid out by the table's [`Column`]s.
    slab: Arc<[u64]>,
    /// Even, so a column of 4-byte cells fills whole words.
    stride: usize,
    /// One bit per slot: set = live, clear = tombstoned or not filled yet.
    live: [u64; CHUNK_ROWS / 64],
}

impl Chunk {
    fn with_room(columns: &[Column], stride: usize) -> Chunk {
        assert!(
            stride.is_multiple_of(2) && stride <= CHUNK_ROWS,
            "stride {stride}"
        );
        let words = columns.iter().map(|c| c.words(stride)).sum();
        Chunk {
            slab: std::iter::repeat_n(0, words).collect(),
            stride,
            live: [0; CHUNK_ROWS / 64],
        }
    }

    /// Re-lay the chunk out with room for `stride` rows (at least as many
    /// as it has room for now). A row keeps its word and bit within its
    /// column's bitmap and cells, so each moves as two copied runs.
    fn widen(&mut self, columns: &[Column], stride: usize) {
        let mut wider = Chunk::with_room(columns, stride);
        let slab = Arc::get_mut(&mut wider.slab).expect("a fresh slab is unshared");
        let bitmap = self.stride.div_ceil(64);
        for c in columns {
            let (from, to) = (c.start(self.stride), c.start(stride));
            let cells = c.units() as usize * (self.stride / 2);
            slab[to.0..to.0 + bitmap].copy_from_slice(&self.slab[from.0..from.0 + bitmap]);
            slab[to.1..to.1 + cells].copy_from_slice(&self.slab[from.1..from.1 + cells]);
        }
        self.slab = wider.slab;
        self.stride = stride;
    }

    fn is_live(&self, row: usize) -> bool {
        self.live[row >> 6] >> (row & 63) & 1 == 1
    }

    fn row<'a>(&'a self, columns: &'a [Column], row: usize) -> TupleRef<'a> {
        TupleRef {
            slab: &self.slab,
            columns,
            stride: self.stride as u32,
            row: row as u32,
        }
    }

    fn write(&mut self, columns: &[Column], row: usize, datums: &[Datum]) {
        debug_assert!(row < self.stride, "a row past the stride is another column");
        let slab = cow::make_mut_slice(&mut self.slab);
        for (c, d) in columns.iter().zip(datums) {
            c.write(slab, self.stride, row, *d);
        }
        self.live[row >> 6] |= 1 << (row & 63);
    }
}

/// The tuple store of one relation.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<RelationSchema>,
    /// Every chunk but the last is full.
    chunks: Vec<Chunk>,
    /// Physical slots (live + tombstoned) over all chunks.
    slots: usize,
    /// Where each attribute lives in a chunk's slab.
    columns: Arc<[Column]>,
    live: usize,
}

impl Table {
    pub fn new(schema: RelationSchema) -> Self {
        Table {
            chunks: Vec::new(),
            slots: 0,
            columns: Column::all_of(&schema),
            schema: Arc::new(schema),
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
        let rows = self.slots + additional;
        let (chunks, columns) = (&mut self.chunks, &self.columns);
        chunks.reserve(rows.div_ceil(CHUNK_ROWS).saturating_sub(chunks.len()));
        let first = rows.min(CHUNK_ROWS).next_multiple_of(2);
        match chunks.first_mut() {
            None if first > 0 => chunks.push(Chunk::with_room(columns, first)),
            Some(chunk) if chunk.stride < first => chunk.widen(columns, first),
            _ => {}
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
        self.slots
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
        let tid = TupleId(self.slots as u64);
        let (chunks, columns) = (&mut self.chunks, &self.columns);
        let row = self.slots & CHUNK_MASK;
        if self.slots == chunks.len() * CHUNK_ROWS {
            chunks.push(Chunk::with_room(columns, 4));
        }
        let tail = chunks.last_mut().expect("a tail chunk was just ensured");
        if row == tail.stride {
            tail.widen(columns, (2 * row).min(CHUNK_ROWS));
        }
        if let Some(datums) = datums {
            tail.write(columns, row, datums);
        }
        self.slots += 1;
        self.live += usize::from(datums.is_some());
        tid
    }

    /// Fetch a live tuple by id.
    pub fn get(&self, tid: TupleId) -> Option<TupleRef<'_>> {
        let slot = tid.as_usize();
        let chunk = self.chunks.get(slot >> CHUNK_SHIFT)?;
        let row = slot & CHUNK_MASK;
        chunk.is_live(row).then(|| chunk.row(&self.columns, row))
    }

    /// One attribute of a live tuple, in stored form.
    pub fn datum(&self, tid: TupleId, attr: usize) -> Option<Datum> {
        Some(self.get(tid)?.datum(attr))
    }

    /// Put a tuple into a specific (tombstoned) slot — used by
    /// `Database::update` to replace a tuple while keeping its id.
    pub(crate) fn append_datums_at(&mut self, tid: TupleId, datums: Vec<Datum>) -> TupleId {
        let slot = tid.as_usize();
        assert!(slot < self.slots, "append_at targets existing slots");
        let chunk = &mut self.chunks[slot >> CHUNK_SHIFT];
        let row = slot & CHUNK_MASK;
        debug_assert!(!chunk.is_live(row), "append_at requires a free slot");
        chunk.write(&self.columns, row, &datums);
        self.live += 1;
        tid
    }

    /// Tombstone a tuple, returning its stored form if it was live.
    pub(crate) fn remove(&mut self, tid: TupleId) -> Option<Vec<Datum>> {
        let slot = tid.as_usize();
        let chunk = self.chunks.get_mut(slot >> CHUNK_SHIFT)?;
        let row = slot & CHUNK_MASK;
        if !chunk.is_live(row) {
            return None;
        }
        chunk.live[row >> 6] &= !(1 << (row & 63));
        self.live -= 1;
        Some(chunk.row(&self.columns, row).datums())
    }

    /// Every slot in tid order, tombstoned ones as `None`.
    pub fn slots(&self) -> impl Iterator<Item = Option<TupleRef<'_>>> {
        (0..self.slots).map(|slot| self.get(TupleId(slot as u64)))
    }

    /// Iterate over live tuples in tid order.
    pub fn iter(&self) -> TableIter<'_> {
        TableIter {
            table: self,
            next: 0,
        }
    }

    /// Heap bytes behind this table: the chunk list at its capacity, every
    /// slab at the room it has, filled or not, and the column layout.
    pub fn heap_bytes(&self) -> usize {
        let slabs = self.chunks.iter().map(|c| size_of_val(&*c.slab));
        cow::alloc_bytes(self.chunks.capacity() * size_of::<Chunk>())
            + cow::arc_bytes(size_of_val(&*self.columns))
            + slabs.map(cow::arc_bytes).sum::<usize>()
    }

    /// Chunks of this table whose slab `other` does not share by pointer:
    /// zero for a fresh clone, one per chunk either side has written a row
    /// of since.
    pub(crate) fn unshared_chunks(&self, other: &Table) -> usize {
        let shared = self.chunks.iter().zip(&other.chunks);
        let shared = shared.filter(|(a, b)| Arc::ptr_eq(&a.slab, &b.slab));
        self.chunks.len() - shared.count()
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
    use crate::value::Value;

    fn table() -> Table {
        Table::new(
            RelationSchema::builder("R")
                .attr("a", DataType::Int)
                .build()
                .unwrap(),
        )
    }

    fn append(t: &mut Table, a: i64) -> TupleId {
        t.append_datums_from(&[Datum::Int(a)])
    }

    #[test]
    fn append_get_roundtrip() {
        let mut t = table();
        let t0 = append(&mut t, 10);
        let t1 = append(&mut t, 20);
        assert_eq!(t.get(t0).unwrap().get(0), Value::from(10));
        assert_eq!(t.get(t1).unwrap().get(0), Value::from(20));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let read: Vec<_> = t.iter().map(|(tid, tup)| (tid, tup.values())).collect();
        assert_eq!(
            read,
            [(t0, vec![Value::from(10)]), (t1, vec![Value::from(20)])]
        );
    }

    #[test]
    fn delete_tombstones_without_shifting_ids() {
        let mut t = table();
        let t0 = append(&mut t, 10);
        let t1 = append(&mut t, 20);
        assert_eq!(t.remove(t0), Some(vec![Datum::Int(10)]));
        assert!(t.remove(t0).is_none());
        assert_eq!(t.len(), 1);
        assert!(t.get(t0).is_none());
        assert_eq!(t.get(t1).unwrap().get(0), Value::from(20));
        // New appends take fresh slots, not the tombstoned one.
        let t2 = append(&mut t, 30);
        assert_ne!(t2, t0);
        assert_eq!(t.slot_count(), 3);
    }

    #[test]
    fn iter_skips_tombstones_in_tid_order() {
        let mut t = table();
        let ids: Vec<_> = (0..5).map(|i| append(&mut t, i)).collect();
        t.remove(ids[1]);
        t.remove(ids[3]);
        let seen: Vec<i64> = t
            .iter()
            .map(|(_, tup)| tup.get(0).as_int().unwrap())
            .collect();
        assert_eq!(seen, vec![0, 2, 4]);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let t = table();
        assert!(t.get(TupleId(99)).is_none());
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

    /// The chunk list's capacity, and the first chunk's room.
    fn reserved(t: &Table) -> (usize, usize) {
        let chunks = &t.chunks;
        (chunks.capacity(), chunks.first().map_or(0, |c| c.stride))
    }

    #[test]
    fn a_reserved_table_fills_without_regrowing_its_chunk_list() {
        // Under one chunk (a result database), a remainder past whole
        // chunks, whole chunks exactly, and a second reservation on top of
        // rows already there. (A `Vec` grows to four at least, so a remainder
        // is one chunk short only past four.)
        for (before, additional) in [
            (0, 3),
            (0, 1000),
            (0, 2 * CHUNK_ROWS + 1),
            (0, 4 * CHUNK_ROWS + 1),
            (0, 3 * CHUNK_ROWS),
            (700, 900),
            (5 * CHUNK_ROWS as i64, 3 * CHUNK_ROWS + 5),
        ] {
            let mut t = table();
            for i in 0..before {
                t.append_datums_from(&[Datum::Int(i)]);
            }
            t.reserve(additional);
            let (capacity, room) = reserved(&t);
            let rows = before as usize + additional;
            assert!(
                capacity >= rows.div_ceil(CHUNK_ROWS),
                "{before} + {additional}"
            );
            assert!(room >= rows.min(CHUNK_ROWS), "{before} + {additional}");
            for i in 0..additional {
                t.append_datums_from(&[Datum::Int(i as i64)]);
                assert_eq!(
                    reserved(&t).0,
                    capacity,
                    "regrew at row {i} of {before} + {additional}"
                );
            }
            assert_eq!(reserved(&t).1, room, "the first chunk widened");
            assert_eq!(t.len(), rows);
        }
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
        // What a slab of `stride` rows of one nullable INT column holds: an
        // 8-byte cell a row and a null bit a row, in whole words. (The tail
        // had room for 16 rows when it was copied.)
        let slab = |stride: usize| 8 * (stride + stride.div_ceil(64));
        assert_eq!(copied.bytes, (slab(16) + slab(CHUNK_ROWS)) as u64);

        // The original never saw any of it.
        assert_eq!(original.slot_count(), rows);
        assert_eq!(original.len(), rows);
        assert_eq!(original.datum(victim, 0), Some(Datum::Int(victim.0 as i64)));
        assert_eq!(copy.len(), rows + 1);
    }

    #[test]
    fn a_cell_takes_its_types_width() {
        let schema = RelationSchema::builder("R")
            .attr_not_null("i", DataType::Int)
            .attr("t", DataType::Text)
            .attr("b", DataType::Bool)
            .attr("f", DataType::Float)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        let row = [
            Datum::Int(i64::MIN),
            Datum::Sym(Sym::intern("a cell takes its type's width")),
            Datum::Bool(true),
            Datum::Null,
        ];
        for _ in 0..CHUNK_ROWS {
            t.append_datums_from(&row);
        }
        // 8 + 4 + 4 + 8 bytes a row, and four 128-byte bitmaps.
        assert_eq!(size_of_val(&*t.chunks[0].slab), CHUNK_ROWS * 24 + 4 * 128);
        assert!(t.iter().all(|(_, tuple)| tuple.datums() == row));
    }

    #[test]
    fn columnar_update_in_place_keeps_slab_rows() {
        let mut t = table();
        let t0 = append(&mut t, 1);
        t.remove(t0);
        t.append_datums_at(t0, vec![Datum::Int(9)]);
        assert_eq!(t.get(t0).unwrap().get(0), Value::from(9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.slot_count(), 1);
    }
}
