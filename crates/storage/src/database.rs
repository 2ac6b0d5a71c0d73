//! The database: schema + tables + indexes + constraint enforcement.
//!
//! A [`Database`] is cheap to clone and cheap to diverge from: the schema is
//! shared, every table is a list of `Arc`'d chunks and every index an
//! `Arc`'d sorted base beside a small delta of `Arc`'d shards
//! ([`crate::cow`]), so `clone()` bumps reference counts and
//! `insert`/`update`/`delete` on the clone copy the tail chunk, the chunks
//! of the rows they touch and, per key they touch, a delta shard and the
//! key's base entry — a cost set by the mutation, not by the size of the
//! database. The original is never written through a clone: whoever holds
//! it keeps reading exactly what it held.

use crate::error::StorageError;
use crate::index::{HashIndex, UniqueIndex};
use crate::schema::{DatabaseSchema, RelationId, RelationSchema};
use crate::stats::AccessStats;
use crate::table::Table;
use crate::tuple::{TupleId, TupleRef};
use crate::value::{DataType, Datum, Value};
use crate::wal::{WalOp, WalSink};
use crate::Result;
use std::sync::Arc;

/// Everything insert/update/delete need to know about one relation,
/// resolved once at schema install instead of per call: the primary-key
/// slot, the secondary indexes by attribute position, and the outgoing
/// foreign keys with both endpoints pre-resolved.
#[derive(Debug, Clone, Default)]
struct RelMeta {
    pk: Option<usize>,
    pk_index: Option<UniqueIndex>,
    /// Secondary indexes, sorted by attribute position. Never one on the
    /// primary key: `pk_index` is the index on that attribute.
    secondary: Vec<(usize, HashIndex)>,
    /// Foreign keys where this relation is the child.
    fks: Vec<FkMeta>,
}

#[derive(Debug, Clone)]
struct FkMeta {
    /// Index into `schema.foreign_keys()` (for error construction).
    fk_no: usize,
    from_pos: usize,
    to: RelationId,
    to_pos: usize,
}

/// `value` as a probe key: text that was never interned is stored nowhere,
/// and probes as the null no index holds.
fn probe_datum(value: &Value) -> Datum {
    Datum::probe_value(value).unwrap_or(Datum::Null)
}

/// Keys and postings an index part holds: a key index holds one posting a
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexSize {
    pub keys: usize,
    pub postings: usize,
}

/// Heap bytes behind a [`Database`], by what holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatabaseBytes {
    /// Row storage: every chunk's slab at the room it has.
    pub tables: usize,
    /// The primary-key indexes.
    pub pk_index: usize,
    /// The join (and any other secondary) indexes, posting lists included.
    pub join_index: usize,
}

/// An in-memory relational database.
///
/// On construction it creates a [`UniqueIndex`] for every declared primary
/// key and a [`HashIndex`] on every other foreign-key endpoint — mirroring
/// the paper's experimental setup, which "created indexes on all join
/// attributes". An attribute is indexed once: a join into a primary key is
/// answered by the key's own index. Additional secondary indexes can be
/// added with [`Database::create_index`].
#[derive(Debug, Clone)]
pub struct Database {
    schema: Arc<DatabaseSchema>,
    tables: Vec<Table>,
    rel_meta: Vec<RelMeta>,
    /// When true, `insert` verifies every FK value resolves (requires parents
    /// inserted first). Off by default so loaders can insert in any order and
    /// check once with [`Database::validate_foreign_keys`].
    enforce_fk: bool,
    stats: AccessStats,
    /// When attached, every successful mutation is described to the sink
    /// after it applies. `None` (the default) is the pure in-memory mode.
    wal: Option<Arc<dyn WalSink>>,
}

impl Database {
    /// Create an empty database for `schema`.
    pub fn new(schema: DatabaseSchema) -> Result<Self> {
        let tables = schema
            .relations()
            .map(|(_, r)| Table::new(r.clone()))
            .collect::<Vec<_>>();
        let mut rel_meta: Vec<RelMeta> = schema
            .relations()
            .map(|(_, r)| RelMeta {
                pk: r.primary_key(),
                pk_index: r.primary_key().map(|_| UniqueIndex::new()),
                secondary: Vec::new(),
                fks: Vec::new(),
            })
            .collect();
        for (fk_no, fk) in schema.foreign_keys().iter().enumerate() {
            let from = schema.relation_id(&fk.relation).unwrap();
            let to = schema.relation_id(&fk.ref_relation).unwrap();
            let from_pos = schema.relation(from).attr_position(&fk.attribute).unwrap();
            let to_pos = schema
                .relation(to)
                .attr_position(&fk.ref_attribute)
                .unwrap();
            rel_meta[from.0].fks.push(FkMeta {
                fk_no,
                from_pos,
                to,
                to_pos,
            });
            // Index every foreign-key endpoint its primary key does not
            // already index.
            for (rel, pos) in [(from, from_pos), (to, to_pos)] {
                let meta = &mut rel_meta[rel.0];
                if meta.pk != Some(pos) && !meta.secondary.iter().any(|(p, _)| *p == pos) {
                    meta.secondary.push((pos, HashIndex::new()));
                }
            }
        }
        for meta in &mut rel_meta {
            meta.secondary.sort_by_key(|(p, _)| *p);
        }
        Ok(Database {
            schema: Arc::new(schema),
            tables,
            rel_meta,
            enforce_fk: false,
            stats: AccessStats::new(),
            wal: None,
        })
    }

    /// Attach a write-ahead-log sink: from now on every successful
    /// insert/update/delete is reported to `sink` in application order.
    /// Replaces any previous sink; clones of this database share the same
    /// sink (it is reference-counted).
    pub fn set_wal_sink(&mut self, sink: Arc<dyn WalSink>) {
        self.wal = Some(sink);
    }

    /// Describe a just-applied insert to the sink. The no-sink check must
    /// stay inlined into the bulk-insert loops: pulling the whole emission
    /// body (tuple re-materialization + `WalOp` construction) into those
    /// loops defeats inlining and costs the pure in-memory mode a call per
    /// tuple, so the body lives out of line behind a `#[cold]` split.
    #[inline(always)]
    fn emit_wal_insert(&self, rel: RelationId, tid: TupleId) -> Result<()> {
        if self.wal.is_some() {
            self.emit_wal_insert_sink(rel, tid)?;
        }
        Ok(())
    }

    /// The sink-attached half of [`Database::emit_wal_insert`]: reads the
    /// stored tuple back so every insert path (values, datums, slices)
    /// pays the materialization cost only when a sink is attached.
    #[cold]
    #[inline(never)]
    fn emit_wal_insert_sink(&self, rel: RelationId, tid: TupleId) -> Result<()> {
        let sink = self.wal.as_ref().expect("caller checked for a sink");
        let values = self.tables[rel.0]
            .get(tid)
            .expect("tuple just inserted")
            .values();
        sink.record(WalOp::Insert {
            relation: self.schema.relation(rel).name().to_owned(),
            tid,
            values,
        })
        .map_err(StorageError::wal_failed)
    }

    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Turn immediate foreign-key checking on or off.
    pub fn set_enforce_foreign_keys(&mut self, on: bool) {
        self.enforce_fk = on;
    }

    pub fn table(&self, rel: RelationId) -> &Table {
        &self.tables[rel.0]
    }

    /// Pre-size one relation's table and index deltas for `additional` more
    /// tuples — a result database about to be filled. A delta is pre-sized
    /// only if it will hold that many keys without being merged (the
    /// reservation over-estimates key counts, distinct keys ≤ tuples, which
    /// costs a little memory, never correctness); past that, the merges size
    /// each base to what it holds.
    pub fn reserve(&mut self, rel: RelationId, additional: usize) {
        self.tables[rel.0].reserve(additional);
        let meta = &mut self.rel_meta[rel.0];
        if let Some(idx) = meta.pk_index.as_mut() {
            idx.reserve(additional);
        }
        for (_, idx) in meta.secondary.iter_mut() {
            idx.reserve(additional);
        }
    }

    /// How many chunks, index bases and delta shards of this database
    /// `other` does not share by pointer: zero right after `other =
    /// self.clone()`, and from then on the number of pieces either side has
    /// had to copy or merge. What a mutation costs in memory, observable
    /// without timing anything.
    pub fn unshared_pieces(&self, other: &Database) -> usize {
        let mut pieces = 0;
        for (mine, theirs) in self.tables.iter().zip(&other.tables) {
            pieces += mine.unshared_chunks(theirs);
        }
        for (mine, theirs) in self.rel_meta.iter().zip(&other.rel_meta) {
            if let (Some(a), Some(b)) = (&mine.pk_index, &theirs.pk_index) {
                pieces += a.unshared_pieces(b);
            }
            for ((_, a), (_, b)) in mine.secondary.iter().zip(&theirs.secondary) {
                pieces += a.unshared_pieces(b);
            }
        }
        pieces
    }

    /// Schema of one relation (convenience passthrough).
    pub fn relation_schema(&self, rel: RelationId) -> &RelationSchema {
        self.schema.relation(rel)
    }

    /// Number of live tuples in one relation.
    pub fn len(&self, rel: RelationId) -> usize {
        self.tables[rel.0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(Table::is_empty)
    }

    /// Total live tuples across all relations (the paper's `card(D')`).
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Slots that hold no tuple any more (deleted and never reused), over
    /// all relations: what [`Database::compacted`] reclaims.
    pub fn tombstoned_slots(&self) -> usize {
        self.tables.iter().map(|t| t.slot_count() - t.len()).sum()
    }

    /// This database with every relation's live tuples renumbered densely in
    /// tuple-id order. Tuple ids change, so nothing that holds one — an
    /// inverted index, a client — may outlive the call: the durable server
    /// compacts once, when it opens its data directory. A relation without
    /// a tombstone stays shared with `self`, as in a clone; one with a
    /// tombstone gets its indexes built anew, each an exact-size base.
    pub fn compacted(&self) -> Database {
        let mut out = self.clone();
        for (rel, table) in self.tables.iter().enumerate() {
            if table.slot_count() == table.len() {
                continue;
            }
            let mut dense = Table::new(table.schema().clone());
            dense.reserve(table.len());
            for (_, t) in table.iter() {
                dense.append_datums_from(&t.datums());
            }
            out.tables[rel] = dense;
            out.build_indexes(RelationId(rel));
        }
        out
    }

    /// `rel`'s column `attr` as an index is built from: each live tuple's
    /// datum and tid, in tid order.
    fn column(&self, rel: RelationId, attr: usize) -> impl Iterator<Item = (Datum, TupleId)> + '_ {
        let table = &self.tables[rel.0];
        table.iter().map(move |(tid, t)| (t.datum(attr), tid))
    }

    /// Build every index of `rel` anew from its table.
    fn build_indexes(&mut self, rel: RelationId) {
        let pk = self.rel_meta[rel.0].pk;
        let pk_index = pk.map(|pk| UniqueIndex::build(self.column(rel, pk)));
        let secondary = self.rel_meta[rel.0]
            .secondary
            .iter()
            .map(|(pos, _)| (*pos, HashIndex::build(self.column(rel, *pos))))
            .collect();
        let meta = &mut self.rel_meta[rel.0];
        meta.pk_index = pk_index;
        meta.secondary = secondary;
    }

    /// Append a tombstoned slot to `rel` — the loader's answer to a dump's
    /// hole line.
    pub(crate) fn append_tombstone(&mut self, rel: RelationId) {
        self.tables[rel.0].append_tombstone();
    }

    /// Insert a tuple by relation name. See [`Database::insert_into`].
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> Result<TupleId> {
        let rel = self.schema.require_relation(relation)?;
        self.insert_into(rel, values)
    }

    /// Insert a tuple, enforcing arity, types, NOT NULL, primary-key
    /// uniqueness and (if enabled) foreign keys. Maintains all indexes. The
    /// row is checked as values: one refused for its arity, a type or a null
    /// interns nothing.
    pub fn insert_into(&mut self, rel: RelationId, values: Vec<Value>) -> Result<TupleId> {
        crate::failpoint::check("insert_into")?;
        self.validate(rel, values.iter().map(Value::data_type))?;
        let datums: Vec<Datum> = values.iter().map(Datum::from_value).collect();
        self.insert_validated(rel, &datums)
    }

    /// [`Database::insert_datums_from`] for a caller that owns its row.
    pub fn insert_datums_into(&mut self, rel: RelationId, datums: Vec<Datum>) -> Result<TupleId> {
        self.insert_datums_from(rel, &datums)
    }

    /// Insert a tuple already in stored form — the allocation-light path
    /// used when copying tuples between databases of the same schema (e.g.
    /// materializing a result database): symbols transfer without touching
    /// a single string, and a bulk copy loop keeps one scratch buffer alive.
    /// Enforces the same constraints as [`Database::insert_into`].
    pub fn insert_datums_from(&mut self, rel: RelationId, datums: &[Datum]) -> Result<TupleId> {
        crate::failpoint::check("insert_into")?;
        self.validate(rel, datums.iter().map(Datum::data_type))?;
        self.insert_validated(rel, datums)
    }

    /// The insert behind every entry point, for a row [`Database::validate`]
    /// passed: key not null, foreign keys if enforced, indexes, table, log.
    fn insert_validated(&mut self, rel: RelationId, datums: &[Datum]) -> Result<TupleId> {
        if let Some(pk) = self.rel_meta[rel.0].pk {
            if datums[pk].is_null() {
                return Err(StorageError::NullPrimaryKey {
                    relation: self.schema.relation(rel).name().to_owned(),
                });
            }
        }
        if self.enforce_fk {
            self.check_foreign_keys(rel, datums)?;
        }
        let tid = self.apply_insert(rel, datums)?;
        self.emit_wal_insert(rel, tid)?;
        Ok(tid)
    }

    /// Arity, type and NOT NULL of a row against the relation schema, read
    /// off the type of each of its scalars (`None` for a null).
    fn validate(
        &self,
        rel: RelationId,
        row: impl ExactSizeIterator<Item = Option<DataType>>,
    ) -> Result<()> {
        let rel_schema = self.schema.relation(rel);
        if row.len() != rel_schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: rel_schema.name().to_owned(),
                expected: rel_schema.arity(),
                actual: row.len(),
            });
        }
        for (pos, (ty, a)) in row.zip(rel_schema.attributes()).enumerate() {
            if ty.map_or(!a.nullable, |ty| ty != a.ty) {
                return Err(StorageError::TypeMismatch {
                    relation: rel_schema.name().to_owned(),
                    attribute: rel_schema.attr_name(pos).to_owned(),
                    expected: a.ty,
                });
            }
        }
        Ok(())
    }

    /// Arity/type/null-PK constraints hold: claim the primary-key slot, add
    /// every secondary posting and append. Primary-key uniqueness is
    /// enforced by the key insert itself (one probe finds the slot or the
    /// duplicate — callers don't pre-check), and a duplicate fails before
    /// anything is modified.
    fn apply_insert(&mut self, rel: RelationId, datums: &[Datum]) -> Result<TupleId> {
        let tid = TupleId(self.tables[rel.0].slot_count() as u64);
        let meta = &mut self.rel_meta[rel.0];
        if let Some(pk) = meta.pk {
            if let Some(idx) = meta.pk_index.as_mut() {
                if !idx.insert(datums[pk], tid) {
                    return Err(StorageError::PrimaryKeyViolation {
                        relation: self.schema.relation(rel).name().to_owned(),
                        key: datums[pk].to_string(),
                    });
                }
            }
        }
        for (pos, idx) in meta.secondary.iter_mut() {
            idx.insert(datums[*pos], tid);
        }
        let appended = self.tables[rel.0].append_datums_from(datums);
        debug_assert_eq!(appended, tid);
        Ok(tid)
    }

    fn fk_violation(&self, fk_no: usize) -> StorageError {
        let fk = &self.schema.foreign_keys()[fk_no];
        StorageError::ForeignKeyViolation {
            relation: fk.relation.clone(),
            attribute: fk.attribute.clone(),
            referenced: fk.ref_relation.clone(),
        }
    }

    fn check_foreign_keys(&self, rel: RelationId, datums: &[Datum]) -> Result<()> {
        for f in &self.rel_meta[rel.0].fks {
            let d = datums[f.from_pos];
            // NULL FKs are vacuously valid.
            if !d.is_null() && !self.fk_datum_exists(f, d) {
                return Err(self.fk_violation(f.fk_no));
            }
        }
        Ok(())
    }

    fn fk_datum_exists(&self, f: &FkMeta, d: Datum) -> bool {
        match self.probe(f.to, f.to_pos, d) {
            Some(tids) => !tids.is_empty(),
            // Fall back to a scan (no index on the referenced attribute).
            None => self.tables[f.to.0]
                .iter()
                .any(|(_, t)| t.datum(f.to_pos) == d),
        }
    }

    /// Check every foreign key of every live tuple; returns the list of
    /// violations (empty means the instance is consistent). Used to verify
    /// that précis result databases satisfy the original constraints.
    pub fn validate_foreign_keys(&self) -> Vec<StorageError> {
        let mut violations = Vec::new();
        for (fk_no, fk) in self.schema.foreign_keys().iter().enumerate() {
            let from = self.schema.relation_id(&fk.relation).unwrap();
            let f = self.rel_meta[from.0]
                .fks
                .iter()
                .find(|f| f.fk_no == fk_no)
                .expect("fk meta built at install");
            for (_, t) in self.tables[from.0].iter() {
                let d = t.datum(f.from_pos);
                if d.is_null() {
                    continue;
                }
                if !self.fk_datum_exists(f, d) {
                    violations.push(self.fk_violation(fk_no));
                }
            }
        }
        violations
    }

    /// Replace a tuple in place, keeping its tuple id stable and maintaining
    /// every index. Enforces the same constraints as [`Database::insert_into`]
    /// (primary-key uniqueness excludes the tuple itself, so updates that
    /// keep the key are fine).
    pub fn update(&mut self, rel: RelationId, tid: TupleId, values: Vec<Value>) -> Result<()> {
        self.validate(rel, values.iter().map(Value::data_type))?;
        let old: Vec<Datum> = self.tables[rel.0]
            .get(tid)
            .ok_or_else(|| StorageError::NoSuchTuple {
                relation: self.schema.relation(rel).name().to_owned(),
                tid,
            })?
            .datums();
        let meta = &self.rel_meta[rel.0];
        if let Some(pk) = meta.pk {
            if values[pk].is_null() {
                return Err(StorageError::NullPrimaryKey {
                    relation: self.schema.relation(rel).name().to_owned(),
                });
            }
            let taken = || {
                let key = Datum::probe_value(&values[pk]).unwrap_or(Datum::Null);
                self.probe(rel, pk, key)
                    .is_some_and(|tids| !tids.is_empty())
            };
            if old[pk] != values[pk] && taken() {
                return Err(StorageError::PrimaryKeyViolation {
                    relation: self.schema.relation(rel).name().to_owned(),
                    key: values[pk].to_string(),
                });
            }
        }
        let new: Vec<Datum> = values.iter().map(Datum::from_value).collect();
        if self.enforce_fk {
            self.check_foreign_keys(rel, &new)?;
        }

        // Point of no return: fix up the indexes and swap the tuple.
        let meta = &mut self.rel_meta[rel.0];
        if let Some(pk) = meta.pk {
            if old[pk] != new[pk] {
                if let Some(idx) = meta.pk_index.as_mut() {
                    idx.remove(old[pk]);
                    idx.insert(new[pk], tid);
                }
            }
        }
        for (pos, idx) in meta.secondary.iter_mut() {
            let (o, n) = (old[*pos], new[*pos]);
            if o != n {
                idx.remove(o, tid);
                idx.insert(n, tid);
            }
        }
        self.tables[rel.0].remove(tid);
        let new_tid = self.tables[rel.0].append_datums_at(tid, new);
        debug_assert_eq!(new_tid, tid);
        if let Some(sink) = &self.wal {
            sink.record(WalOp::Update {
                relation: self.schema.relation(rel).name().to_owned(),
                tid,
                values,
            })
            .map_err(StorageError::wal_failed)?;
        }
        Ok(())
    }

    /// Delete a tuple, maintaining all indexes.
    pub fn delete(&mut self, rel: RelationId, tid: TupleId) -> Result<()> {
        let old = self.tables[rel.0]
            .remove(tid)
            .ok_or_else(|| StorageError::NoSuchTuple {
                relation: self.schema.relation(rel).name().to_owned(),
                tid,
            })?;
        let meta = &mut self.rel_meta[rel.0];
        if let Some(pk) = meta.pk {
            if let Some(idx) = meta.pk_index.as_mut() {
                idx.remove(old[pk]);
            }
        }
        for (pos, idx) in meta.secondary.iter_mut() {
            idx.remove(old[*pos], tid);
        }
        if let Some(sink) = &self.wal {
            sink.record(WalOp::Delete {
                relation: self.schema.relation(rel).name().to_owned(),
                tid,
            })
            .map_err(StorageError::wal_failed)?;
        }
        Ok(())
    }

    /// Fetch a tuple by id (counts one tuple read, the cost model's
    /// `TupleTime` event).
    pub fn fetch(&self, relation: &str, tid: TupleId) -> Result<TupleRef<'_>> {
        let rel = self.schema.require_relation(relation)?;
        self.fetch_from(rel, tid)
    }

    /// Fetch a tuple by id from a resolved relation.
    pub fn fetch_from(&self, rel: RelationId, tid: TupleId) -> Result<TupleRef<'_>> {
        crate::failpoint::check("fetch_from")?;
        self.stats.count_tuple_read();
        self.tables[rel.0]
            .get(tid)
            .ok_or_else(|| StorageError::NoSuchTuple {
                relation: self.schema.relation(rel).name().to_owned(),
                tid,
            })
    }

    /// Build (or rebuild) a secondary index on `rel.attr`, straight into an
    /// exact-size base. The primary key has its index already.
    pub fn create_index(&mut self, rel: RelationId, attr: usize) {
        if self.rel_meta[rel.0].pk == Some(attr) {
            return;
        }
        let idx = HashIndex::build(self.column(rel, attr));
        let meta = &mut self.rel_meta[rel.0];
        match meta.secondary.iter_mut().find(|(p, _)| *p == attr) {
            Some((_, existing)) => *existing = idx,
            None => {
                meta.secondary.push((attr, idx));
                meta.secondary.sort_by_key(|(p, _)| *p);
            }
        }
    }

    pub fn has_index(&self, rel: RelationId, attr: usize) -> bool {
        let meta = &self.rel_meta[rel.0];
        meta.pk == Some(attr) || meta.secondary.iter().any(|(p, _)| *p == attr)
    }

    /// `datum` as a key of `rel.attr`'s index. Every stored value is of the
    /// column's type (inserts are validated), so an index key is the value's
    /// bits alone; a probe of another type holds no stored value and must
    /// not find the one with the same bits, so it probes as null.
    fn key_for(&self, rel: RelationId, attr: usize, datum: Datum) -> Datum {
        if datum.conforms_to(self.schema.relation(rel).attributes()[attr].ty) {
            datum
        } else {
            Datum::Null
        }
    }

    /// What the index on `rel.attr` holds for `datum`: the primary key's
    /// own index answers for the key attribute (at most one tid), a hash
    /// index for any other. `None` when the attribute has no index.
    fn probe(&self, rel: RelationId, attr: usize, datum: Datum) -> Option<&[TupleId]> {
        let datum = self.key_for(rel, attr, datum);
        let meta = &self.rel_meta[rel.0];
        if meta.pk == Some(attr) {
            return meta.pk_index.as_ref().map(|idx| idx.get(datum));
        }
        let (_, idx) = meta.secondary.iter().find(|(p, _)| *p == attr)?;
        Some(idx.get(datum))
    }

    fn no_index(&self, rel: RelationId, attr: usize) -> StorageError {
        StorageError::NoIndex {
            relation: self.schema.relation(rel).name().to_owned(),
            attribute: self.schema.relation(rel).attr_name(attr).to_owned(),
        }
    }

    /// Indexed lookup: tuple ids where `rel.attr == value` (counts one index
    /// probe, the cost model's `IndexTime` event).
    pub fn lookup(&self, rel: RelationId, attr: usize, value: &Value) -> Result<&[TupleId]> {
        self.lookup_datum(rel, attr, probe_datum(value))
    }

    /// [`Database::lookup`] keyed by stored datum — the join-probe hot path,
    /// which never touches string bytes.
    pub fn lookup_datum(&self, rel: RelationId, attr: usize, datum: Datum) -> Result<&[TupleId]> {
        crate::failpoint::check("lookup")?;
        let tids = self.probe(rel, attr, datum);
        let tids = tids.ok_or_else(|| self.no_index(rel, attr))?;
        self.stats.count_index_probe();
        Ok(tids)
    }

    /// Primary-key point lookup (counts one index probe).
    pub fn lookup_pk(&self, rel: RelationId, value: &Value) -> Option<TupleId> {
        let pk = self.rel_meta[rel.0].pk?;
        self.stats.count_index_probe();
        self.probe(rel, pk, probe_datum(value))?.first().copied()
    }

    /// Keys and postings of the key indexes and of the join indexes, over
    /// all relations.
    pub fn index_sizes(&self) -> [IndexSize; 2] {
        let (mut pk, mut join) = (IndexSize::default(), IndexSize::default());
        for meta in &self.rel_meta {
            let keys = meta.pk_index.as_ref().map_or(0, UniqueIndex::len);
            pk.keys += keys;
            pk.postings += keys;
            for (_, idx) in &meta.secondary {
                join.keys += idx.distinct_values();
                join.postings += idx.postings();
            }
        }
        [pk, join]
    }

    /// Heap bytes behind this database, by part: what the rows, the key
    /// indexes and the join indexes keep resident, at capacity.
    pub fn heap_bytes(&self) -> DatabaseBytes {
        let mut bytes = DatabaseBytes {
            tables: self.tables.iter().map(Table::heap_bytes).sum(),
            ..DatabaseBytes::default()
        };
        for meta in &self.rel_meta {
            bytes.pk_index += meta.pk_index.as_ref().map_or(0, UniqueIndex::heap_bytes);
            bytes.join_index += meta
                .secondary
                .iter()
                .map(|(_, idx)| idx.heap_bytes())
                .sum::<usize>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ForeignKey;

    fn movies_schema() -> DatabaseSchema {
        let mut s = DatabaseSchema::new("movies");
        s.add_relation(
            RelationSchema::builder("DIRECTOR")
                .attr_not_null("did", DataType::Int)
                .attr("dname", DataType::Text)
                .primary_key("did")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("MOVIE")
                .attr_not_null("mid", DataType::Int)
                .attr("title", DataType::Text)
                .attr("did", DataType::Int)
                .primary_key("mid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(ForeignKey::new("MOVIE", "did", "DIRECTOR", "did"))
            .unwrap();
        s
    }

    fn movies_db() -> Database {
        Database::new(movies_schema()).unwrap()
    }

    #[test]
    fn insert_and_fetch() {
        let mut db = movies_db();
        let t = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("Woody Allen")])
            .unwrap();
        let tup = db.fetch("DIRECTOR", t).unwrap();
        assert_eq!(tup.get(1), Value::from("Woody Allen"));
        assert_eq!(db.total_tuples(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn insert_validates_arity_type_and_nulls() {
        let mut db = movies_db();
        assert!(matches!(
            db.insert("DIRECTOR", vec![Value::from(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert("DIRECTOR", vec![Value::from("x"), Value::from("y")]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.insert("DIRECTOR", vec![Value::Null, Value::from("y")]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(db.insert("nope", vec![]).is_err());
    }

    /// One row through each of the three insert entry points.
    fn insert_each_way(db: &mut Database, rel: RelationId, row: &[Value]) -> [Result<TupleId>; 3] {
        let datums = |row: &[Value]| row.iter().map(Datum::from_value).collect::<Vec<_>>();
        [
            db.insert_into(rel, row.to_vec()),
            db.insert_datums_into(rel, datums(row)),
            db.insert_datums_from(rel, &datums(row)),
        ]
    }

    #[test]
    fn every_entry_point_refuses_the_same_rows_the_same_way() {
        // A nullable key, so a null reaches the key check.
        let mut s = movies_schema();
        s.add_relation(
            RelationSchema::builder("NOTE")
                .attr("nid", DataType::Int)
                .primary_key("nid")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new(s).unwrap();
        db.set_enforce_foreign_keys(true);
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let note = db.schema().relation_id("NOTE").unwrap();
        db.insert_into(dir, vec![Value::from(1), Value::Null])
            .unwrap();

        type Refusal = fn(&StorageError) -> bool;
        let cases: [(RelationId, Vec<Value>, Refusal); 6] = [
            (dir, vec![Value::from(2)], |e| {
                matches!(e, StorageError::ArityMismatch { actual: 1, .. })
            }),
            (
                dir,
                vec![Value::from(2), Value::from(3)],
                |e| matches!(e, StorageError::TypeMismatch { attribute, .. } if attribute == "dname"),
            ),
            (
                dir,
                vec![Value::Null, Value::Null],
                |e| matches!(e, StorageError::TypeMismatch { attribute, .. } if attribute == "did"),
            ),
            (note, vec![Value::Null], |e| {
                matches!(e, StorageError::NullPrimaryKey { .. })
            }),
            (dir, vec![Value::from(1), Value::Null], |e| {
                matches!(e, StorageError::PrimaryKeyViolation { .. })
            }),
            (
                movie,
                vec![Value::from(1), Value::Null, Value::from(7)],
                |e| matches!(e, StorageError::ForeignKeyViolation { .. }),
            ),
        ];
        for (rel, row, refused) in &cases {
            for (way, result) in insert_each_way(&mut db, *rel, row).iter().enumerate() {
                let e = result.as_ref().expect_err("refused");
                assert!(refused(e), "entry point {way}, row {row:?}: {e}");
            }
        }
        assert_eq!(db.total_tuples(), 1, "a refused row stores nothing");

        // A row of values refused for its arity, a type or a null has not
        // interned its text on the way.
        let text = "a-refused-row-interns-nothing";
        for row in [
            vec![Value::from(text)],
            vec![Value::from(text), Value::from(text)],
            vec![Value::Null, Value::from(text)],
        ] {
            assert!(db.insert_into(dir, row).is_err());
        }
        assert_eq!(crate::sym::Sym::lookup(text), None);

        // The failpoint is checked once per call, whichever way in.
        let _gate = crate::failpoint::exclusive();
        let _scope = crate::failpoint::thread_scope();
        crate::failpoint::arm("insert_into", crate::failpoint::FailureKind::Io, 3, 1);
        let row = [Value::from(1), Value::Null, Value::from(1)];
        let [a, b, c] = insert_each_way(&mut db, movie, &row);
        assert!(a.is_ok(), "{a:?}");
        assert!(matches!(b, Err(StorageError::PrimaryKeyViolation { .. })));
        assert!(matches!(c, Err(StorageError::PrimaryKeyViolation { .. })));
        assert_eq!(crate::failpoint::hits("insert_into"), 3);
        let fired = db.insert_into(movie, vec![Value::from(2), Value::Null, Value::from(1)]);
        crate::failpoint::disarm("insert_into");
        assert!(matches!(fired, Err(StorageError::Io(_))), "{fired:?}");
        assert_eq!(db.len(movie), 1);
    }

    #[test]
    fn primary_key_uniqueness_enforced() {
        let mut db = movies_db();
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let err = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("B")])
            .unwrap_err();
        assert!(matches!(err, StorageError::PrimaryKeyViolation { .. }));
    }

    #[test]
    fn fk_enforcement_is_optional_then_checked() {
        let mut db = movies_db();
        // Orphan insert allowed by default…
        db.insert(
            "MOVIE",
            vec![Value::from(10), Value::from("Orphan"), Value::from(77)],
        )
        .unwrap();
        assert_eq!(db.validate_foreign_keys().len(), 1);

        // …but rejected when enforcement is on.
        db.set_enforce_foreign_keys(true);
        let err = db
            .insert(
                "MOVIE",
                vec![Value::from(11), Value::from("Orphan2"), Value::from(98)],
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));

        // Valid reference accepted.
        db.insert("DIRECTOR", vec![Value::from(99), Value::from("D")])
            .unwrap();
        db.insert(
            "MOVIE",
            vec![Value::from(12), Value::from("Ok"), Value::from(99)],
        )
        .unwrap();
        assert!(db
            .validate_foreign_keys()
            .iter()
            .all(|e| matches!(e, StorageError::ForeignKeyViolation { .. })));
        // Exactly the original orphan remains a violation.
        assert_eq!(db.validate_foreign_keys().len(), 1);
    }

    #[test]
    fn fk_endpoints_are_auto_indexed_and_lookup_counts_probe() {
        let mut db = movies_db();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let did = db.relation_schema(movie).attr_position("did").unwrap();
        assert!(db.has_index(movie, did));
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let m = db
            .insert(
                "MOVIE",
                vec![Value::from(10), Value::from("T"), Value::from(1)],
            )
            .unwrap();
        let before = db.stats().snapshot();
        let hits = db.lookup(movie, did, &Value::from(1)).unwrap();
        assert_eq!(hits, &[m]);
        assert_eq!(db.stats().snapshot().since(before).index_probes, 1);
    }

    #[test]
    fn a_referenced_primary_key_is_indexed_once_and_answers_like_a_join_index() {
        let mut db = movies_db();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        // MOVIE.did → DIRECTOR.did: the referenced end is DIRECTOR's key,
        // which its unique index already indexes; MOVIE.mid is a key nobody
        // references, indexed all the same.
        assert!(db.has_index(dir, 0) && db.has_index(movie, 0));
        assert!(db.rel_meta[dir.0].secondary.is_empty());
        let one = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let two = db
            .insert("DIRECTOR", vec![Value::from(2), Value::from("B")])
            .unwrap();
        let before = db.stats().snapshot();
        assert_eq!(db.lookup(dir, 0, &Value::from(1)).unwrap(), &[one]);
        assert_eq!(db.lookup_datum(dir, 0, Datum::Int(2)).unwrap(), &[two]);
        assert!(db.lookup(dir, 0, &Value::from(3)).unwrap().is_empty());
        assert!(db.lookup(dir, 0, &Value::Null).unwrap().is_empty());
        assert_eq!(db.stats().snapshot().since(before).index_probes, 4);
        // A snapshot outlives the row; the index follows it.
        let held = db.clone();
        db.delete(dir, one).unwrap();
        assert_eq!(held.lookup(dir, 0, &Value::from(1)).unwrap(), &[one]);
        assert!(db.lookup(dir, 0, &Value::from(1)).unwrap().is_empty());
        // Asking for an index on it changes nothing.
        db.create_index(dir, 0);
        assert!(db.rel_meta[dir.0].secondary.is_empty());
        assert_eq!(db.lookup(dir, 0, &Value::from(2)).unwrap(), &[two]);
        db.set_enforce_foreign_keys(true);
        let row = |did| vec![Value::from(10 + did), Value::Null, Value::from(did)];
        assert!(db.insert("MOVIE", row(2)).is_ok());
        assert!(matches!(
            db.insert("MOVIE", row(1)),
            Err(StorageError::ForeignKeyViolation { .. })
        ));
    }

    #[test]
    fn a_probe_of_another_type_misses_instead_of_aliasing() {
        // DIRECTOR.dname, indexed, holds a text whose symbol id is also the
        // key of a director: same bits, different values.
        let mut db = movies_db();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        db.create_index(dir, 1);
        let name = crate::sym::Sym::intern("database-alias-probe");
        let bits = name.id() as i64;
        let by_key = db
            .insert("DIRECTOR", vec![Value::from(bits), Value::from("Other")])
            .unwrap();
        let by_name = db
            .insert(
                "DIRECTOR",
                vec![Value::from(-1), Value::from(name.as_str())],
            )
            .unwrap();
        assert_eq!(
            db.lookup(dir, 1, &Value::from(name.as_str())).unwrap(),
            &[by_name]
        );
        assert_eq!(db.lookup_pk(dir, &Value::from(bits)), Some(by_key));
        assert!(db.lookup(dir, 1, &Value::from(bits)).unwrap().is_empty());
        assert!(db
            .lookup_datum(dir, 0, Datum::Sym(name))
            .unwrap()
            .is_empty());
        assert_eq!(db.lookup_pk(dir, &Value::from(name.as_str())), None);
        assert!(db.lookup(dir, 0, &Value::from(true)).unwrap().is_empty());
    }

    #[test]
    fn a_refused_duplicate_key_copies_nothing_of_the_snapshot_it_was_tried_on() {
        let original = sized_db(30_000);
        let movie = original.schema().relation_id("MOVIE").unwrap();
        let mut copy = original.clone();
        let meter = crate::cow::CopyMeter::new();
        for key in [0, 7, 29_999] {
            let row = vec![Value::from(key), Value::Null, Value::from(0)];
            assert!(matches!(
                copy.insert_into(movie, row),
                Err(StorageError::PrimaryKeyViolation { .. })
            ));
        }
        assert_eq!(meter.copied(), crate::cow::Copied::default());
        assert_eq!(copy.unshared_pieces(&original), 0);
    }

    #[test]
    fn lookup_without_index_errors() {
        let db = movies_db();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let title = db.relation_schema(movie).attr_position("title").unwrap();
        assert!(matches!(
            db.lookup(movie, title, &Value::from("x")),
            Err(StorageError::NoIndex { .. })
        ));
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut db = movies_db();
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let dname = db.relation_schema(dir).attr_position("dname").unwrap();
        db.create_index(dir, dname);
        assert_eq!(db.lookup(dir, dname, &Value::from("A")).unwrap().len(), 1);
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut db = movies_db();
        let t = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        db.delete(dir, t).unwrap();
        assert_eq!(db.len(dir), 0);
        assert_eq!(db.lookup_pk(dir, &Value::from(1)), None);
        // PK value can be reused after delete.
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("B")])
            .unwrap();
        assert!(db.delete(dir, TupleId(77)).is_err());
    }

    #[test]
    fn compaction_renumbers_a_relation_with_tombstones_and_shares_the_rest() {
        let mut db = movies_db();
        for did in 1..=3 {
            db.insert("DIRECTOR", vec![Value::from(did), Value::from("D")])
                .unwrap();
        }
        for (mid, did) in [(10, 1), (11, 3), (12, 3)] {
            db.insert(
                "MOVIE",
                vec![Value::from(mid), Value::from("M"), Value::from(did)],
            )
            .unwrap();
        }
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        db.delete(movie, TupleId(0)).unwrap();
        assert_eq!(db.tombstoned_slots(), 1);

        let compacted = db.compacted();
        assert_eq!(compacted.tombstoned_slots(), 0);
        assert_eq!(compacted.table(movie).slot_count(), 2);
        // Survivors keep their order; key and join indexes follow them.
        assert_eq!(
            compacted.lookup_pk(movie, &Value::from(11)),
            Some(TupleId(0))
        );
        assert_eq!(compacted.lookup_pk(movie, &Value::from(10)), None);
        assert_eq!(
            compacted.lookup(movie, 2, &Value::from(3)).unwrap(),
            &[TupleId(0), TupleId(1)]
        );
        assert!(compacted.validate_foreign_keys().is_empty());
        // DIRECTOR had nothing to reclaim: its chunk is the original's.
        assert_eq!(compacted.table(dir).unshared_chunks(db.table(dir)), 0);
        // The original is untouched.
        assert_eq!(db.lookup_pk(movie, &Value::from(11)), Some(TupleId(1)));
    }

    #[test]
    fn a_compacted_database_costs_no_more_than_a_reload_of_its_dump() {
        // Ten movies to a director, so `MOVIE.did` holds a tenth as many
        // keys as rows: an index sized by the row count is ten times too
        // big. The last director goes, and his ten movies before him (a
        // dump with a dangling key does not load): a tombstone in each
        // relation, so both are compacted.
        let mut db = sized_db(30_000);
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        for m in 29_990..30_000 {
            db.delete(movie, TupleId(m)).unwrap();
        }
        db.delete(dir, TupleId(2_999)).unwrap();
        let compacted = db.compacted();
        assert_eq!(compacted.tombstoned_slots(), 0);
        let reloaded = crate::io::load_from_string(&crate::io::dump_to_string(&compacted)).unwrap();
        let (mine, theirs) = (compacted.heap_bytes(), reloaded.heap_bytes());
        assert!(mine.pk_index <= theirs.pk_index, "{mine:?} vs {theirs:?}");
        assert!(
            mine.join_index <= theirs.join_index,
            "{mine:?} vs {theirs:?}"
        );
        assert!(mine.tables <= theirs.tables, "{mine:?} vs {theirs:?}");
        assert_eq!(compacted.index_sizes(), reloaded.index_sizes());
        for did in [0, 1, 2_998, 2_999] {
            let key = Value::from(did);
            assert_eq!(
                compacted.lookup(movie, 2, &key).unwrap(),
                reloaded.lookup(movie, 2, &key).unwrap()
            );
        }
    }

    #[test]
    fn indexes_built_over_a_few_keys_of_both_signs_find_every_one() {
        // A negative integer's bits are near the top of the word: a few
        // keys of both signs span more than half of it, which a built base
        // — compacted, or from `create_index` — must take in its stride.
        let mut db = movies_db();
        for did in [-1, 5, 9] {
            db.insert("DIRECTOR", vec![Value::from(did), Value::Null])
                .unwrap();
        }
        for (mid, did) in [(i64::MIN, -1), (0, 5), (-7, -1), (i64::MAX, 5)] {
            let row = vec![Value::from(mid), Value::Null, Value::from(did)];
            db.insert("MOVIE", row).unwrap();
        }
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let did = db.relation_schema(movie).attr_position("did").unwrap();
        db.delete(dir, TupleId(2)).unwrap();
        db.delete(movie, TupleId(1)).unwrap();
        let mut compacted = db.compacted();
        assert_eq!(compacted.tombstoned_slots(), 0);
        for (key, tid) in [
            (-1, Some(0)),
            (5, Some(1)),
            (9, None),
            (0, None),
            (-2, None),
        ] {
            assert_eq!(
                compacted.lookup_pk(dir, &Value::from(key)),
                tid.map(TupleId)
            );
        }
        let mids = [
            (i64::MIN, Some(0)),
            (-7, Some(1)),
            (i64::MAX, Some(2)),
            (0, None),
        ];
        for (key, tid) in mids {
            assert_eq!(
                compacted.lookup_pk(movie, &Value::from(key)),
                tid.map(TupleId)
            );
        }
        let by_director = [(-1, &[0, 1][..]), (5, &[2]), (0, &[]), (i64::MIN, &[])];
        for _ in 0..2 {
            for (key, tids) in by_director {
                let tids: Vec<TupleId> = tids.iter().map(|t| TupleId(*t)).collect();
                assert_eq!(
                    compacted.lookup(movie, did, &Value::from(key)).unwrap(),
                    tids
                );
            }
            compacted.create_index(movie, did);
        }
    }

    #[test]
    fn update_replaces_in_place_and_maintains_indexes() {
        let mut db = movies_db();
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let m = db
            .insert(
                "MOVIE",
                vec![Value::from(10), Value::from("Old title"), Value::from(1)],
            )
            .unwrap();
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let did = db.relation_schema(movie).attr_position("did").unwrap();

        db.insert("DIRECTOR", vec![Value::from(2), Value::from("B")])
            .unwrap();
        db.update(
            movie,
            m,
            vec![Value::from(10), Value::from("New title"), Value::from(2)],
        )
        .unwrap();

        // Tid stable, values replaced.
        let t = db.fetch("MOVIE", m).unwrap();
        assert_eq!(t.get(1), Value::from("New title"));
        // Secondary index moved to the new FK value.
        assert!(db.lookup(movie, did, &Value::from(1)).unwrap().is_empty());
        assert_eq!(db.lookup(movie, did, &Value::from(2)).unwrap(), &[m]);
        assert_eq!(db.len(movie), 1);
    }

    #[test]
    fn update_pk_change_maintains_pk_index() {
        let mut db = movies_db();
        let t = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        db.insert("DIRECTOR", vec![Value::from(2), Value::from("B")])
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        // Changing to an occupied key fails…
        assert!(matches!(
            db.update(dir, t, vec![Value::from(2), Value::from("A")]),
            Err(StorageError::PrimaryKeyViolation { .. })
        ));
        // …and the tuple is untouched by the failed attempt.
        assert_eq!(db.fetch("DIRECTOR", t).unwrap().get(0), Value::from(1));
        // Changing to a fresh key moves the pk index entry.
        db.update(dir, t, vec![Value::from(7), Value::from("A")])
            .unwrap();
        assert_eq!(db.lookup_pk(dir, &Value::from(7)), Some(t));
        assert_eq!(db.lookup_pk(dir, &Value::from(1)), None);
        // Keeping the same key is always allowed.
        db.update(dir, t, vec![Value::from(7), Value::from("A2")])
            .unwrap();
    }

    #[test]
    fn update_validates_like_insert() {
        let mut db = movies_db();
        let t = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        assert!(matches!(
            db.update(dir, t, vec![Value::from(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.update(dir, t, vec![Value::from("x"), Value::from("A")]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.update(dir, TupleId(99), vec![Value::from(3), Value::from("A")]),
            Err(StorageError::NoSuchTuple { .. })
        ));
        // FK enforcement applies when enabled.
        db.set_enforce_foreign_keys(true);
        let movie = db.schema().relation_id("MOVIE").unwrap();
        let m = db
            .insert(
                "MOVIE",
                vec![Value::from(10), Value::from("T"), Value::from(1)],
            )
            .unwrap();
        assert!(matches!(
            db.update(
                movie,
                m,
                vec![Value::from(10), Value::from("T"), Value::from(42)]
            ),
            Err(StorageError::ForeignKeyViolation { .. })
        ));
    }

    #[test]
    fn clone_is_a_deep_independent_copy() {
        let mut db = movies_db();
        db.insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let mut copy = db.clone();
        copy.insert("DIRECTOR", vec![Value::from(2), Value::from("B")])
            .unwrap();
        assert_eq!(db.total_tuples(), 1, "original untouched");
        assert_eq!(copy.total_tuples(), 2);
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        // Indexes were cloned too: pk lookups work independently.
        assert_eq!(copy.lookup_pk(dir, &Value::from(2)), Some(TupleId(1)));
        assert_eq!(db.lookup_pk(dir, &Value::from(2)), None);
    }

    /// A movies database of `movies` films, ten to a director. No text is
    /// stored: this crate's symbol-table tests count interned strings while
    /// other tests run beside them.
    fn sized_db(movies: i64) -> Database {
        let mut db = movies_db();
        for d in 0..movies / 10 {
            db.insert("DIRECTOR", vec![Value::from(d), Value::Null])
                .unwrap();
        }
        for m in 0..movies {
            let row = vec![Value::from(m), Value::Null, Value::from(m / 10)];
            db.insert("MOVIE", row).unwrap();
        }
        db
    }

    #[test]
    fn a_clone_shares_everything_and_a_write_copies_a_bounded_few_pieces() {
        // One insert, one update and one delete may unshare: the tail chunk
        // and the chunks of two rows, and — once a delta is sharded — one
        // shard of MOVIE's key index and of its director index per key
        // touched (the update moves a row from one director to another). An
        // inline delta is copied by the clone and is no shared piece; a base
        // is never written, only replaced by a merge.
        const BOUND: usize = 12;
        for movies in [3_000, 30_000] {
            let original = sized_db(movies);
            let before = crate::io::dump_to_string(&original);
            let mut copy = original.clone();
            assert_eq!(copy.unshared_pieces(&original), 0, "{movies} movies");

            let movie = copy.schema().relation_id("MOVIE").unwrap();
            let meter = crate::cow::CopyMeter::new();
            let new = vec![Value::from(movies), Value::Null, Value::from(0)];
            copy.insert("MOVIE", new).unwrap();
            let moved = vec![Value::from(7), Value::Null, Value::from(1)];
            copy.update(movie, TupleId(7), moved).unwrap();
            copy.delete(movie, TupleId(movies as u64 / 2)).unwrap();

            let unshared = copy.unshared_pieces(&original);
            assert!((2..=BOUND).contains(&unshared), "{movies}: {unshared}");
            assert_eq!(original.unshared_pieces(&copy), unshared);
            // The meter agrees (it also counts the posting lists copied).
            let copied = meter.copied();
            assert!(copied.pieces >= unshared as u64, "{copied:?}");
            assert!(copied.pieces <= 2 * BOUND as u64, "{copied:?}");

            // The original is exactly what it was, and the copy diverged.
            assert_eq!(crate::io::dump_to_string(&original), before);
            assert_eq!(original.len(movie), movies as usize);
            assert_eq!(copy.len(movie), movies as usize);
            assert_eq!(
                copy.lookup_pk(movie, &Value::from(movies)).map(|t| t.0),
                Some(movies as u64)
            );
            assert_eq!(original.lookup_pk(movie, &Value::from(movies)), None);
            assert!(original
                .table(movie)
                .get(TupleId(movies as u64 / 2))
                .is_some());
        }
    }

    #[test]
    fn mutations_emit_wal_records_in_order() {
        use crate::wal::{MemoryWalSink, WalOp};
        let mut db = movies_db();
        let sink = MemoryWalSink::new();
        db.set_wal_sink(sink.clone());
        let t = db
            .insert("DIRECTOR", vec![Value::from(1), Value::from("A")])
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        db.update(dir, t, vec![Value::from(1), Value::from("A2")])
            .unwrap();
        db.delete(dir, t).unwrap();
        // A failed mutation emits nothing.
        assert!(db.delete(dir, t).is_err());
        let recs = sink.records();
        assert_eq!(recs.len(), 3);
        assert!(matches!(&recs[0], WalOp::Insert { relation, tid, values }
                if relation == "DIRECTOR" && *tid == t && values[1] == Value::from("A")));
        assert!(matches!(&recs[1], WalOp::Update { tid, values, .. }
                if *tid == t && values[1] == Value::from("A2")));
        assert!(matches!(&recs[2], WalOp::Delete { tid, .. } if *tid == t));
        // Clones share the sink.
        let mut copy = db.clone();
        copy.insert("DIRECTOR", vec![Value::from(9), Value::from("C")])
            .unwrap();
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn pk_point_lookup() {
        let mut db = movies_db();
        let t = db
            .insert("DIRECTOR", vec![Value::from(5), Value::from("A")])
            .unwrap();
        let dir = db.schema().relation_id("DIRECTOR").unwrap();
        assert_eq!(db.lookup_pk(dir, &Value::from(5)), Some(t));
        assert_eq!(db.lookup_pk(dir, &Value::from(6)), None);
    }

    #[test]
    fn datum_inserts_match_value_inserts() {
        // The same rows, inserted as values into one db and as datums into
        // another, read back as the values inserted, on the same tids and
        // with the same index behavior.
        let rows = [
            vec![Value::from(1), Value::from("A")],
            vec![Value::from(2), Value::Null],
        ];
        let mut by_value = movies_db();
        let mut by_datum = movies_db();
        let dir = by_value.schema().relation_id("DIRECTOR").unwrap();
        for r in &rows {
            let a = by_value.insert_into(dir, r.clone()).unwrap();
            let datums = r.iter().map(Datum::from_value).collect();
            let b = by_datum.insert_datums_into(dir, datums).unwrap();
            assert_eq!(a, b);
        }
        for db in [&by_value, &by_datum] {
            assert_eq!(db.len(dir), 2);
            assert_eq!(db.lookup_pk(dir, &Value::from(2)), Some(TupleId(1)));
            for (tid, row) in rows.iter().enumerate() {
                let t = db.fetch_from(dir, TupleId(tid as u64)).unwrap();
                assert_eq!(&t.values(), row);
            }
        }
        // Datum inserts enforce pk uniqueness too.
        let dup = rows[0].iter().map(Datum::from_value).collect();
        assert!(matches!(
            by_datum.insert_datums_into(dir, dup),
            Err(StorageError::PrimaryKeyViolation { .. })
        ));
    }
}
