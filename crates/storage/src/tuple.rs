//! Rows.
//!
//! A [`Tuple`] is an immutable, cheaply clonable row (`Arc<[Value]>`).
//! Sampled tuples flow through rejection, revision, and reuse pools
//! (Algorithms 1 and 2), getting cloned and hashed constantly — the `Arc`
//! representation makes clones O(1) and keeps tuple identity (the paper's
//! `t.val`) structural: two tuples are equal iff their value sequences
//! are equal, regardless of which join produced them.

use crate::value::Value;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable row of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Number of values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> &Value {
        &self.values[pos]
    }

    /// Projects onto the given positions (cloning the selected values
    /// into a single pre-sized allocation).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        let mut vals = Vec::with_capacity(positions.len());
        vals.extend(positions.iter().map(|&p| self.values[p].clone()));
        Tuple::new(vals)
    }

    /// Concatenates two tuples (one pre-sized allocation).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut vals = Vec::with_capacity(self.arity() + other.arity());
        vals.extend_from_slice(&self.values);
        vals.extend_from_slice(&other.values);
        Tuple::new(vals)
    }
}

impl Deref for Tuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Value> for Tuple {
    /// Collects straight into the shared slice: one allocation when
    /// the iterator knows its exact length, no intermediate `Vec`.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Builds a tuple from integer literals — handy in tests.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::collections::HashSet;

    #[test]
    fn structural_identity() {
        let a = tuple![3i64, 6i64, 4i64];
        let b = tuple![3i64, 6i64, 4i64];
        let c = tuple![3i64, 6i64, 5i64];
        assert_eq!(a, b);
        assert_ne!(a, c);

        // Example 3 of the paper: equal value sequences from different
        // joins refer to the same element of the union universe.
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn projection() {
        let t = tuple![1i64, 2i64, 3i64, 4i64];
        let p = t.project(&[3, 0]);
        assert_eq!(p, tuple![4i64, 1i64]);
        assert_eq!(t.arity(), 4);
    }

    #[test]
    fn empty_projection_is_empty_tuple() {
        let t = tuple![1i64];
        assert_eq!(t.project(&[]).arity(), 0);
    }

    #[test]
    fn concat() {
        let a = tuple![1i64, 2i64];
        let b = tuple!["x", "y"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.get(2), &Value::str("x"));
    }

    #[test]
    fn clone_is_cheap_and_shared() {
        let t = tuple![1i64, 2i64, 3i64];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![tuple![2i64, 0i64], tuple![1i64, 9i64], tuple![1i64, 3i64]];
        v.sort();
        assert_eq!(
            v,
            vec![tuple![1i64, 3i64], tuple![1i64, 9i64], tuple![2i64, 0i64]]
        );
    }

    #[test]
    fn display_formats_values() {
        let t = tuple![1i64, "a"];
        assert_eq!(t.to_string(), "[1, a]");
    }

    #[test]
    fn deref_gives_slice_access() {
        let t = tuple![5i64, 6i64];
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], Value::int(6));
        assert_eq!(t.iter().count(), 2);
    }
}
