//! Attribute schemas.
//!
//! The paper assumes "all joins have the same output schema ... in terms
//! of the number and name of attributes" and that "join attributes are
//! standardized to have the same names" (§2). Schemas here are ordered
//! attribute-name lists with O(1) name lookup; self-joins are supported
//! by registering the same data under renamed schemas (e.g. `orderkey1`,
//! `orderkey2` as in Fig. 1's `DoubleOrders_E`).

use crate::error::StorageError;
use crate::hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// An ordered list of attribute names with O(1) position lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Arc<[Arc<str>]>,
    positions: Arc<FxHashMap<Arc<str>, usize>>,
}

impl Schema {
    /// Builds a schema from attribute names. Fails on duplicates or an
    /// empty list.
    pub fn new<I, S>(names: I) -> Result<Self, StorageError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let attrs: Vec<Arc<str>> = names.into_iter().map(|s| Arc::from(s.as_ref())).collect();
        if attrs.is_empty() {
            return Err(StorageError::EmptySchema);
        }
        let mut positions = FxHashMap::default();
        for (i, a) in attrs.iter().enumerate() {
            if positions.insert(a.clone(), i).is_some() {
                return Err(StorageError::DuplicateAttribute(a.to_string()));
            }
        }
        Ok(Self {
            attrs: attrs.into(),
            positions: Arc::new(positions),
        })
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute names in order.
    pub fn attrs(&self) -> &[Arc<str>] {
        &self.attrs
    }

    /// Name of the attribute at `pos`.
    pub fn attr(&self, pos: usize) -> &Arc<str> {
        &self.attrs[pos]
    }

    /// Position of an attribute by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.positions.get(name).copied()
    }

    /// Position of an attribute, as an error if missing.
    pub fn require(&self, name: &str) -> Result<usize, StorageError> {
        self.position(name)
            .ok_or_else(|| StorageError::UnknownAttribute(name.to_string()))
    }

    /// Whether the schema contains an attribute.
    pub fn contains(&self, name: &str) -> bool {
        self.positions.contains_key(name)
    }

    /// Attribute names shared with another schema, in this schema's order.
    pub fn shared_with(&self, other: &Schema) -> Vec<Arc<str>> {
        self.attrs
            .iter()
            .filter(|a| other.contains(a))
            .cloned()
            .collect()
    }

    /// Ordered union of this schema's attributes with another's (first
    /// occurrence wins) — the output schema of a natural join.
    pub fn union(&self, other: &Schema) -> Result<Schema, StorageError> {
        let mut names: Vec<Arc<str>> = self.attrs.to_vec();
        for a in other.attrs.iter() {
            if !self.contains(a) {
                names.push(a.clone());
            }
        }
        Schema::new(names.iter().map(|a| a.as_ref()))
    }

    /// A new schema with attributes renamed through `f`.
    pub fn rename(&self, mut f: impl FnMut(&str) -> String) -> Result<Schema, StorageError> {
        Schema::new(self.attrs.iter().map(|a| f(a)))
    }

    /// Whether two schemas have identical attribute names in identical
    /// order (the paper's "same output schema" requirement).
    pub fn same_as(&self, other: &Schema) -> bool {
        self.attrs.len() == other.attrs.len()
            && self
                .attrs
                .iter()
                .zip(other.attrs.iter())
                .all(|(a, b)| a == b)
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other)
    }
}

impl Eq for Schema {}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let s = Schema::new(["a", "b", "c"]).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position("b"), Some(1));
        assert_eq!(s.position("z"), None);
        assert!(s.contains("c"));
        assert_eq!(s.attr(0).as_ref(), "a");
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert!(matches!(
            Schema::new(["a", "a"]),
            Err(StorageError::DuplicateAttribute(_))
        ));
        assert!(matches!(
            Schema::new(Vec::<&str>::new()),
            Err(StorageError::EmptySchema)
        ));
    }

    #[test]
    fn shared_and_union() {
        let r = Schema::new(["a", "b"]).unwrap();
        let s = Schema::new(["b", "c"]).unwrap();
        let shared = r.shared_with(&s);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].as_ref(), "b");

        let u = r.union(&s).unwrap();
        assert_eq!(
            u.attrs().iter().map(|a| a.as_ref()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn union_is_idempotent_on_same_schema() {
        let r = Schema::new(["x", "y"]).unwrap();
        let u = r.union(&r).unwrap();
        assert!(u.same_as(&r));
    }

    #[test]
    fn rename_supports_self_joins() {
        let orders = Schema::new(["orderkey", "custkey"]).unwrap();
        let orders2 = orders.rename(|a| format!("{a}2")).unwrap();
        assert!(orders2.contains("orderkey2"));
        assert!(!orders2.contains("orderkey"));
    }

    #[test]
    fn equality_is_order_sensitive() {
        let a = Schema::new(["x", "y"]).unwrap();
        let b = Schema::new(["y", "x"]).unwrap();
        let c = Schema::new(["x", "y"]).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn display_is_parenthesized_list() {
        let s = Schema::new(["k", "v"]).unwrap();
        assert_eq!(s.to_string(), "(k, v)");
    }
}
