//! Tuple identifiers and borrowed views of stored tuples.

use crate::table::Column;
use crate::value::{Datum, Value, ValueRef};
use std::fmt;

/// Identifier of a tuple within one relation, stable for the lifetime of the
/// tuple (the paper's inverted index returns lists of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

impl TupleId {
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A borrowed view of one stored tuple: row `row` of one chunk of a table,
/// which has room for `stride` rows — the chunk's column-major slab of
/// typed cells, and where each attribute's cells are in it (see
/// [`crate::Table`]). All read paths traffic in this type so a fetch never
/// clones a value.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    pub(crate) slab: &'a [u64],
    pub(crate) columns: &'a [Column],
    pub(crate) stride: u32,
    pub(crate) row: u32,
}

impl<'a> TupleRef<'a> {
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Borrow attribute `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> ValueRef<'a> {
        self.datum(idx).value_ref()
    }

    /// Attribute `idx` in stored form: the cell read back by its column's
    /// type.
    #[inline]
    pub fn datum(&self, idx: usize) -> Datum {
        self.columns[idx].read(self.slab, self.stride as usize, self.row as usize)
    }

    /// Materialize attribute `idx` as an owned [`Value`].
    pub fn value(&self, idx: usize) -> Value {
        self.get(idx).to_value()
    }

    /// Project on a set of attribute positions, materializing values.
    pub fn project(&self, positions: &[usize]) -> Vec<Value> {
        positions.iter().map(|&p| self.value(p)).collect()
    }

    /// Project on a set of attribute positions in stored form.
    pub fn project_datums(&self, positions: &[usize]) -> Vec<Datum> {
        positions.iter().map(|&p| self.datum(p)).collect()
    }

    /// [`TupleRef::project_datums`] into a caller-owned buffer, so a bulk
    /// copy loop reuses one allocation for every tuple.
    pub fn project_datums_into(&self, positions: &[usize], out: &mut Vec<Datum>) {
        out.clear();
        out.extend(positions.iter().map(|&p| self.datum(p)));
    }

    /// Materialize every attribute.
    pub fn values(&self) -> Vec<Value> {
        (0..self.arity()).map(|i| self.value(i)).collect()
    }

    /// Every attribute in stored form.
    pub fn datums(&self) -> Vec<Datum> {
        (0..self.arity()).map(|i| self.datum(i)).collect()
    }

    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'a>> + '_ {
        (0..self.arity()).map(move |i| self.get(i))
    }
}

impl PartialEq for TupleRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && self.iter().eq(other.iter())
    }
}

impl Eq for TupleRef<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::table::Table;
    use crate::value::DataType;

    #[test]
    fn tuple_id_display() {
        assert_eq!(TupleId(5).to_string(), "t5");
        assert_eq!(TupleId(5).as_usize(), 5);
    }

    #[test]
    fn tuple_ref_reads_back_what_was_inserted() {
        let schema = RelationSchema::builder("R")
            .attr("i", DataType::Int)
            .attr("t", DataType::Text)
            .attr("f", DataType::Float)
            .build()
            .unwrap();
        let vals = vec![Value::from(1), Value::from("a"), Value::Null];
        let datums: Vec<Datum> = vals.iter().map(Datum::from_value).collect();
        let mut table = Table::new(schema);
        let tid = table.append_datums_from(&datums);
        let col = table.get(tid).unwrap();
        assert_eq!(col.arity(), 3);
        assert_eq!(col.values(), vals);
        assert_eq!(col.datums(), datums);
        assert_eq!(col.project(&[1, 0]), vec![Value::from("a"), Value::from(1)]);
        assert_eq!(col.project_datums(&[1]), vec![datums[1]]);
        assert_eq!(col.get(1), Value::from("a"));
        assert_eq!(col.value(0), Value::from(1));
        assert!(col.get(2).is_null());
        assert_eq!(col, table.get(tid).unwrap());
    }
}
