//! Typed scalar values stored in tuples.
//!
//! Three representations share one value model:
//!
//! * [`Value`] — the owned boundary type (API, I/O, NLG);
//! * [`Datum`] — the 16-byte in-register form of a stored value: scalars
//!   inline, text as an interned [`Sym`]. A table does not keep datums: a
//!   columnar chunk keeps each cell at its column type's width (8 bytes an
//!   `INT` or `FLOAT`, 4 a `TEXT` symbol or a `BOOL`, a null bit each) and
//!   rebuilds the datum on read (see [`crate::Table`]);
//! * [`ValueRef`] — a borrowed view over either, used by the read path so
//!   fetches never clone a string.

use crate::sym::Sym;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The data type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A scalar value.
///
/// `Value` implements total equality, ordering and hashing so it can serve as
/// an index key. Floats compare and hash by their bit pattern (NaN equals
/// NaN), which is the behaviour an index needs rather than IEEE semantics.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Belongs to every data type.
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this value may be stored in an attribute of type `ty`.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order values of different variants.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The compact in-register form of a [`Value`]: 16 bytes, `Copy`, text
/// interned — what a table hands out and takes, storing each as a cell of
/// its column's width.
///
/// Equality and hashing mirror [`Value`] exactly (floats by bit pattern,
/// NaN equal to NaN; text by symbol, which the interner makes equivalent to
/// string equality), so deduplicating a column of `Datum`s gives the same
/// set as deduplicating the corresponding `Value`s.
#[derive(Debug, Clone, Copy)]
pub enum Datum {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Sym(Sym),
}

impl Datum {
    /// Convert for storage, interning text payloads.
    pub fn from_value(v: &Value) -> Datum {
        match v {
            Value::Null => Datum::Null,
            Value::Int(i) => Datum::Int(*i),
            Value::Float(f) => Datum::Float(*f),
            Value::Bool(b) => Datum::Bool(*b),
            Value::Text(s) => Datum::Sym(Sym::intern(s)),
        }
    }

    /// Convert for probing, *without* interning: `None` means the text was
    /// never interned and therefore cannot match any stored datum.
    pub fn probe_value(v: &Value) -> Option<Datum> {
        match v {
            Value::Null => Some(Datum::Null),
            Value::Int(i) => Some(Datum::Int(*i)),
            Value::Float(f) => Some(Datum::Float(*f)),
            Value::Bool(b) => Some(Datum::Bool(*b)),
            Value::Text(s) => Sym::lookup(s).map(Datum::Sym),
        }
    }

    /// Materialize back into the owned boundary type.
    pub fn to_value(self) -> Value {
        match self {
            Datum::Null => Value::Null,
            Datum::Int(i) => Value::Int(i),
            Datum::Float(f) => Value::Float(f),
            Datum::Bool(b) => Value::Bool(b),
            Datum::Sym(s) => Value::Text(s.as_str().to_owned()),
        }
    }

    /// Borrow as a [`ValueRef`]; interned text is `'static`.
    pub fn value_ref(self) -> ValueRef<'static> {
        match self {
            Datum::Null => ValueRef::Null,
            Datum::Int(i) => ValueRef::Int(i),
            Datum::Float(f) => ValueRef::Float(f),
            Datum::Bool(b) => ValueRef::Bool(b),
            Datum::Sym(s) => ValueRef::Text(s.as_str()),
        }
    }

    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Sym(_) => Some(DataType::Text),
        }
    }

    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    fn variant_rank(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 3,
            Datum::Sym(_) => 4,
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Datum::Null, Datum::Null) => true,
            (Datum::Int(a), Datum::Int(b)) => a == b,
            (Datum::Float(a), Datum::Float(b)) => a.to_bits() == b.to_bits(),
            (Datum::Bool(a), Datum::Bool(b)) => a == b,
            (Datum::Sym(a), Datum::Sym(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Datum {}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Datum::Null => {}
            Datum::Int(i) => i.hash(state),
            Datum::Float(f) => f.to_bits().hash(state),
            Datum::Bool(b) => b.hash(state),
            Datum::Sym(s) => s.hash(state),
        }
    }
}

impl PartialEq<Value> for Datum {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Datum::Null, Value::Null) => true,
            (Datum::Int(a), Value::Int(b)) => a == b,
            (Datum::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Datum::Bool(a), Value::Bool(b)) => a == b,
            (Datum::Sym(a), Value::Text(b)) => a.as_str() == b,
            _ => false,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value_ref().fmt(f)
    }
}

/// A borrowed scalar: what the read path hands out instead of `&Value`.
///
/// Equality, ordering, hashing and display mirror [`Value`] exactly.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Text(&'a str),
    Bool(bool),
}

impl<'a> ValueRef<'a> {
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
        }
    }

    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Int(_) => Some(DataType::Int),
            ValueRef::Float(_) => Some(DataType::Float),
            ValueRef::Text(_) => Some(DataType::Text),
            ValueRef::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }

    fn variant_rank(&self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) => 2,
            ValueRef::Float(_) => 3,
            ValueRef::Text(_) => 4,
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a.to_bits() == b.to_bits(),
            (ValueRef::Text(a), ValueRef::Text(b)) => a == b,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ValueRef<'_> {}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == ValueRef::from(other)
    }
}

impl PartialEq<ValueRef<'_>> for Value {
    fn eq(&self, other: &ValueRef<'_>) -> bool {
        ValueRef::from(self) == *other
    }
}

impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            ValueRef::Null => {}
            ValueRef::Int(i) => i.hash(state),
            ValueRef::Float(f) => f.to_bits().hash(state),
            ValueRef::Text(s) => s.hash(state),
            ValueRef::Bool(b) => b.hash(state),
        }
    }
}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(b),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(b),
            (ValueRef::Int(a), ValueRef::Float(b)) => (*a as f64).total_cmp(b),
            (ValueRef::Float(a), ValueRef::Int(b)) => a.total_cmp(&(*b as f64)),
            (ValueRef::Text(a), ValueRef::Text(b)) => a.cmp(b),
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => f.write_str("NULL"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Text(s) => f.write_str(s),
            ValueRef::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn conformance_checks_type() {
        assert!(Value::from(3).conforms_to(DataType::Int));
        assert!(!Value::from(3).conforms_to(DataType::Text));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert!(Value::from("x").conforms_to(DataType::Text));
        assert!(Value::from(1.5).conforms_to(DataType::Float));
        assert!(Value::from(true).conforms_to(DataType::Bool));
    }

    #[test]
    fn nan_is_self_equal_for_index_use() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::from(42), Value::from(42i64)),
            (Value::from("abc"), Value::Text("abc".into())),
            (Value::Null, Value::Null),
            (Value::from(false), Value::Bool(false)),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn ordering_is_total_and_numeric_across_int_float() {
        assert!(Value::from(1) < Value::from(2));
        assert!(Value::from(1) < Value::from(1.5));
        assert!(Value::from(2.5) > Value::from(2));
        assert!(Value::Null < Value::from(false));
        assert!(Value::from("a") < Value::from("b"));
        // Different non-numeric variants order by rank, deterministically.
        assert!(Value::from(true) < Value::from(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from(7).to_string(), "7");
        assert_eq!(DataType::Text.to_string(), "TEXT");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from(9).as_int(), Some(9));
        assert_eq!(Value::from("s").as_int(), None);
        assert_eq!(Value::from("s").as_text(), Some("s"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn datum_round_trips_and_mirrors_value_semantics() {
        let vals = [
            Value::Null,
            Value::from(42),
            Value::from(2.5),
            Value::Float(f64::NAN),
            Value::from("datum round trip"),
            Value::from(true),
        ];
        for v in &vals {
            let d = Datum::from_value(v);
            assert_eq!(d.to_value(), *v);
            assert!(&d == v, "Datum == Value for {v}");
            assert_eq!(d.to_string(), v.to_string());
            assert_eq!(d.data_type(), v.data_type());
            // Once interned, probing finds the same datum.
            assert_eq!(Datum::probe_value(v), Some(d));
        }
        assert_eq!(
            Datum::probe_value(&Value::from("datum-never-stored-xx")),
            None
        );
        assert!(Datum::from_value(&Value::from(1.0)).conforms_to(DataType::Float));
        assert_eq!(Datum::from_value(&Value::from(9)).as_int(), Some(9));
    }

    #[test]
    fn value_ref_mirrors_value_eq_ord_hash_display() {
        let vals = [
            Value::Null,
            Value::from(1),
            Value::from(1.5),
            Value::from("abc"),
            Value::from(false),
        ];
        for a in &vals {
            for b in &vals {
                let (ra, rb) = (ValueRef::from(a), ValueRef::from(b));
                assert_eq!(ra == rb, a == b);
                assert_eq!(ra.cmp(&rb), a.cmp(b));
                assert_eq!(ra == *b, a == b);
                assert_eq!(*a == rb, a == b);
            }
            let r = ValueRef::from(a);
            assert_eq!(r.to_string(), a.to_string());
            assert_eq!(r.to_value(), *a);
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            a.hash(&mut h1);
            r.hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash mismatch for {a}");
        }
        assert_eq!(ValueRef::Text("s").as_text(), Some("s"));
        assert_eq!(ValueRef::Int(3).as_int(), Some(3));
        assert!(ValueRef::Null.is_null());
    }
}
