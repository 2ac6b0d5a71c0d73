//! Tuples and tuple identifiers.

use crate::table::Column;
use crate::value::{Datum, Value, ValueRef};
use std::fmt;
use std::ops::Index;

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

/// A stored tuple: one value per attribute of the owning relation schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Project the tuple on a set of attribute positions.
    pub fn project(&self, positions: &[usize]) -> Vec<Value> {
        positions.iter().map(|&p| self.values[p].clone()).collect()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A borrowed view of one stored tuple, independent of the table's physical
/// layout: row-store tuples borrow the [`Tuple`], columnar tuples borrow the
/// slab of their chunk and the table's column layout (see [`crate::Table`]).
/// All read paths traffic in this type so a fetch never clones a value.
#[derive(Debug, Clone, Copy)]
pub enum TupleRef<'a> {
    /// A tuple in a row-layout table.
    Row(&'a Tuple),
    /// Row `row` of one chunk of a columnar table, which has room for
    /// `stride` rows: the chunk's column-major slab of typed cells, and
    /// where each attribute's cells are in it.
    Col {
        slab: &'a [u64],
        columns: &'a [Column],
        stride: u32,
        row: u32,
    },
}

impl<'a> TupleRef<'a> {
    pub fn arity(&self) -> usize {
        match self {
            TupleRef::Row(t) => t.arity(),
            TupleRef::Col { columns, .. } => columns.len(),
        }
    }

    /// Borrow attribute `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> ValueRef<'a> {
        match self {
            TupleRef::Row(t) => ValueRef::from(&t[idx]),
            TupleRef::Col { .. } => self.datum(idx).value_ref(),
        }
    }

    /// Attribute `idx` in stored form: on a columnar table, the cell read
    /// back by its column's type. On a row-layout table this interns text on
    /// the fly — cheap for the test-only legacy layout.
    #[inline]
    pub fn datum(&self, idx: usize) -> Datum {
        match *self {
            TupleRef::Row(t) => Datum::from_value(&t[idx]),
            TupleRef::Col {
                slab,
                columns,
                stride,
                row,
            } => columns[idx].read(slab, stride as usize, row as usize),
        }
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

    /// Materialize into an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values())
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
    fn projection_selects_positions() {
        let t = Tuple::new(vec![Value::from(1), Value::from("a"), Value::from(2.0)]);
        assert_eq!(t.project(&[2, 0]), vec![Value::from(2.0), Value::from(1)]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[1], Value::from("a"));
    }

    #[test]
    fn tuple_id_display() {
        assert_eq!(TupleId(5).to_string(), "t5");
        assert_eq!(TupleId(5).as_usize(), 5);
    }

    #[test]
    fn tuple_ref_reads_identically_across_layouts() {
        let vals = vec![Value::from(1), Value::from("a"), Value::Null];
        let t = Tuple::new(vals.clone());
        let row = TupleRef::Row(&t);
        let schema = RelationSchema::builder("R")
            .attr("i", DataType::Int)
            .attr("t", DataType::Text)
            .attr("f", DataType::Float)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let tid = table.append(t.clone());
        let col = table.get(tid).unwrap();
        assert!(matches!(col, TupleRef::Col { .. }));
        assert_eq!(row, col);
        assert_eq!(row.values(), col.values());
        assert_eq!(row.project(&[1, 0]), col.project(&[1, 0]));
        assert_eq!(row.project_datums(&[1]), col.project_datums(&[1]));
        assert_eq!(col.get(1), Value::from("a"));
        assert_eq!(col.value(0), Value::from(1));
        assert_eq!(row.datums(), col.datums());
        assert_eq!(col.to_tuple(), t);
        assert!(col.get(2).is_null());
    }
}
