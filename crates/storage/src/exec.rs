//! Round-Robin's access path: one open scan per join value.
//!
//! The Result Database Generator never executes an actual join; it issues
//! selection queries `σ_Ids(R)` — fetch the tuples whose join attribute is
//! in a value list (paper §5.2). The retrieval strategies that decide *which*
//! of those tuples to take live in `precis-core`'s `db_gen`: **NaïveQ**
//! (`ROWNUM`-style first-N over the value list) and **TopWeight** read the
//! index posting lists directly, and **Round-Robin** opens one
//! [`ValueScan`] per join value and takes one tuple per scan per round.
//!
//! A scan borrows its list from the database it was opened on, which its
//! caller holds for the scan's whole life: an index base is one immutable
//! run of tids, and a slice of it costs nothing to hand out where an `Arc`
//! of it would cost a copy.

use crate::database::Database;
use crate::schema::RelationId;
use crate::tuple::TupleId;
use crate::value::{Datum, Value};
use crate::Result;

/// An open scan of the tuples joining to **one** value — the unit of the
/// paper's Round-Robin retrieval ("for each tuple in R_i', a scan of joining
/// tuples from R_j is opened; each time, only one joining tuple from a scan
/// is retrieved as long as the cardinality constraint holds").
#[derive(Debug)]
pub struct ValueScan<'a> {
    rel: RelationId,
    /// The index's list, borrowed from the database the scan was opened on.
    tids: &'a [TupleId],
    pos: usize,
}

impl<'a> ValueScan<'a> {
    /// Open a scan over the tuples of `rel` whose `attr` equals `value`
    /// (one index probe).
    pub fn open(
        db: &'a Database,
        rel: RelationId,
        attr: usize,
        value: &Value,
    ) -> Result<ValueScan<'a>> {
        crate::failpoint::check("value_scan_open")?;
        let tids = db.lookup(rel, attr, value)?;
        Ok(ValueScan { rel, tids, pos: 0 })
    }

    /// [`ValueScan::open`] keyed by stored datum — the join hot path.
    pub fn open_datum(
        db: &'a Database,
        rel: RelationId,
        attr: usize,
        datum: Datum,
    ) -> Result<ValueScan<'a>> {
        crate::failpoint::check("value_scan_open")?;
        let tids = db.lookup_datum(rel, attr, datum)?;
        Ok(ValueScan { rel, tids, pos: 0 })
    }

    /// Whether the scan still has tuples to deliver.
    pub fn is_open(&self) -> bool {
        self.pos < self.tids.len()
    }

    /// Retrieve the next joining tuple's id (one tuple read, in `db` — the
    /// database the scan was opened on, or a later version of it), or `None`
    /// when the scan is exhausted.
    pub fn next_tid(&mut self, db: &Database) -> Result<Option<TupleId>> {
        crate::failpoint::check("value_scan_next")?;
        while self.pos < self.tids.len() {
            let tid = self.tids[self.pos];
            self.pos += 1;
            // A miss is a tuple tombstoned since the index was read.
            if db.fetch_from(self.rel, tid).is_ok() {
                return Ok(Some(tid));
            }
        }
        Ok(None)
    }

    /// Tuples remaining in the scan.
    pub fn remaining(&self) -> usize {
        self.tids.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatabaseSchema, ForeignKey, RelationSchema};
    use crate::value::DataType;

    /// PLAY(tid, mid) referencing MOVIE(mid): a 1-to-n join.
    fn db_with_plays() -> (Database, RelationId, usize) {
        let mut s = DatabaseSchema::new("d");
        s.add_relation(
            RelationSchema::builder("MOVIE")
                .attr_not_null("mid", DataType::Int)
                .attr("title", DataType::Text)
                .primary_key("mid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::builder("PLAY")
                .attr_not_null("pid", DataType::Int)
                .attr("mid", DataType::Int)
                .attr("date", DataType::Text)
                .primary_key("pid")
                .build()
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key(ForeignKey::new("PLAY", "mid", "MOVIE", "mid"))
            .unwrap();
        let mut db = Database::new(s).unwrap();
        for m in 0..3 {
            db.insert("MOVIE", vec![Value::from(m), Value::from(format!("M{m}"))])
                .unwrap();
        }
        // movie 0 has 4 plays, movie 1 has 2, movie 2 has 1.
        let mut pid = 0;
        for (m, n) in [(0, 4), (1, 2), (2, 1)] {
            for _ in 0..n {
                db.insert(
                    "PLAY",
                    vec![Value::from(pid), Value::from(m), Value::from("2026-01-01")],
                )
                .unwrap();
                pid += 1;
            }
        }
        let play = db.schema().relation_id("PLAY").unwrap();
        let mid = db.relation_schema(play).attr_position("mid").unwrap();
        (db, play, mid)
    }

    #[test]
    fn round_robin_scans_balance_across_values() {
        let (db, play, mid) = db_with_plays();
        let mut scans: Vec<ValueScan> = [0, 1, 2]
            .iter()
            .map(|&m| ValueScan::open(&db, play, mid, &Value::from(m)).unwrap())
            .collect();
        let mut out = Vec::new();
        // One round: one tuple per open scan.
        for s in &mut scans {
            if let Some(tid) = s.next_tid(&db).unwrap() {
                out.push(db.fetch_from(play, tid).unwrap().get(mid).to_value());
            }
        }
        assert_eq!(out, vec![Value::from(0), Value::from(1), Value::from(2)]);
        assert!(scans[2].next_tid(&db).unwrap().is_none());
        assert!(!scans[2].is_open());
        assert_eq!(scans[0].remaining(), 3);
    }

    #[test]
    fn value_scan_reads_the_snapshot_it_was_opened_on() {
        // An open scan borrows the list of the database it was opened on;
        // an insert into a later version does not leak into it.
        let (snapshot, play, mid) = db_with_plays();
        let mut db = snapshot.clone();
        let mut scan = ValueScan::open(&snapshot, play, mid, &Value::from(0)).unwrap();
        assert_eq!(scan.remaining(), 4);
        db.insert(
            "PLAY",
            vec![Value::from(99), Value::from(0), Value::from("2026-02-02")],
        )
        .unwrap();
        let mut n = 0;
        while scan.next_tid(&db).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 4, "snapshot semantics: insert after open is invisible");
        // A fresh scan sees the new tuple.
        let fresh = ValueScan::open(&db, play, mid, &Value::from(0)).unwrap();
        assert_eq!(fresh.remaining(), 5);
    }

    #[test]
    fn value_scan_skips_tombstoned_tuples() {
        let (snapshot, play, mid) = db_with_plays();
        let mut db = snapshot.clone();
        // Find a play of movie 0 and delete it after reading the index.
        let victim = db.lookup(play, mid, &Value::from(0)).unwrap()[0];
        let mut scan = ValueScan::open(&snapshot, play, mid, &Value::from(0)).unwrap();
        db.delete(play, victim).unwrap();
        let mut n = 0;
        while scan.next_tid(&db).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }
}
