//! Dynamically typed attribute values.
//!
//! Values must be hashable and totally ordered so that (a) join attributes
//! can key hash indexes and (b) output tuples have a canonical identity —
//! the paper's `t.val`, "obtained by concatenating its attribute values
//! using a standard convention" (§3, Example 3). Floats are wrapped in a
//! total order (NaN sorts last) to keep `Eq`/`Hash` lawful.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single attribute value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Equal to itself for hashing purposes (set semantics),
    /// sorts before everything else.
    Null,
    /// 64-bit integer (keys, counts).
    Int(i64),
    /// Float with total ordering (prices, rates).
    Float(f64),
    /// Interned string (names, comments). `Arc` keeps clones cheap.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for integers.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Convenience constructor for floats.
    pub fn float(f: f64) -> Self {
        Value::Float(f)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Rank used to order across variants: Null < Int < Float < Str.
    #[inline]
    pub(crate) fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Null => {}
            Value::Int(i) => state.write_u64(*i as u64),
            Value::Float(f) => state.write_u64(f.to_bits()),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
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
    fn equality_within_variants() {
        assert_eq!(Value::int(3), Value::int(3));
        assert_ne!(Value::int(3), Value::int(4));
        assert_eq!(Value::str("abc"), Value::str("abc"));
        assert_ne!(Value::str("abc"), Value::str("abd"));
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::float(1.5), Value::float(1.5));
    }

    #[test]
    fn cross_variant_never_equal() {
        assert_ne!(Value::int(1), Value::float(1.0));
        assert_ne!(Value::int(0), Value::Null);
        assert_ne!(Value::str("1"), Value::int(1));
    }

    #[test]
    fn nan_is_self_equal_for_set_semantics() {
        let nan = Value::float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::int(42), Value::int(42)),
            (Value::str("xyz"), Value::str("xyz")),
            (Value::float(2.25), Value::float(2.25)),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::str("b"),
            Value::int(10),
            Value::Null,
            Value::float(0.5),
            Value::int(-3),
            Value::str("a"),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::int(-3),
                Value::int(10),
                Value::float(0.5),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::str("q").as_str(), Some("q"));
        assert_eq!(Value::float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::int(0).is_null());
    }

    #[test]
    fn display_round_trip_is_readable() {
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(2.0f64), Value::float(2.0));
        assert_eq!(Value::from(String::from("t")), Value::str("t"));
    }
}
