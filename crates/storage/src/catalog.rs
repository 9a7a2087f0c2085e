//! Relation catalogs.
//!
//! A [`Catalog`] is the "database" handed to workload builders and
//! the one declarative queries resolve against: a named collection of
//! relations. The union workloads (UQ1–UQ3) register one catalog per
//! regional database variant (Fig. 1's `_W`, `_E`, `_MW` schemas) and
//! build joins over them.

use crate::csv::read_csv;
use crate::error::StorageError;
use crate::hash::FxHashMap;
use crate::relation::Relation;
use std::io::Read;
use std::sync::Arc;

/// A named collection of relations. Relations are shared (`Arc`), so
/// registering a relation in several catalogs or joins copies nothing.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: FxHashMap<Arc<str>, Arc<Relation>>,
    order: Vec<Arc<str>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a relation under its own name. Fails on duplicates.
    pub fn register(&mut self, relation: Relation) -> Result<Arc<Relation>, StorageError> {
        self.register_arc(Arc::new(relation))
    }

    /// Registers an already-shared relation under its own name.
    pub fn register_arc(&mut self, relation: Arc<Relation>) -> Result<Arc<Relation>, StorageError> {
        let name: Arc<str> = Arc::from(relation.name());
        if self.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name.to_string()));
        }
        self.relations.insert(name.clone(), relation.clone());
        self.order.push(name);
        Ok(relation)
    }

    /// Loads a relation from CSV (header row = schema; §4's
    /// decentralized data-market setting usually means delimited files)
    /// and registers it under `name`.
    ///
    /// Records stream straight into typed
    /// [`ColumnBuilder`](crate::ColumnBuilder)s — the file is never
    /// buffered as tuples. Each field is inferred in the fixed order
    /// **Int → Float → Str**, with the **empty field as NULL**; a
    /// column whose fields infer to different variants falls back to
    /// the mixed layout, so any input loads losslessly.
    pub fn register_csv(
        &mut self,
        name: impl AsRef<str>,
        reader: impl Read,
    ) -> Result<Arc<Relation>, StorageError> {
        self.register(read_csv(name, reader)?)
    }

    /// Registers every relation of `source` (e.g. the TPC-H generator's
    /// output), in its registration order. Fails — adding nothing — if
    /// any name is already registered. Returns how many were added.
    pub fn import(&mut self, source: &Catalog) -> Result<usize, StorageError> {
        if let Some(name) = source.names().find(|name| self.contains(name)) {
            return Err(StorageError::DuplicateRelation(name.to_string()));
        }
        for name in &source.order {
            self.relations
                .insert(name.clone(), source.relations[name].clone());
            self.order.push(name.clone());
        }
        Ok(source.len())
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Result<Arc<Relation>, StorageError> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Registered relation names in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|n| n.as_ref())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Approximate resident bytes across all relations' columns.
    pub fn memory_bytes(&self) -> usize {
        self.relations.values().map(|r| r.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    fn rel(name: &str, n: i64) -> Relation {
        let schema = Schema::new(["x"]).unwrap();
        let rows = (0..n).map(|i| tuple![i]).collect();
        Relation::new(name, schema, rows).unwrap()
    }

    #[test]
    fn register_and_get() {
        let mut cat = Catalog::new();
        cat.register(rel("a", 3)).unwrap();
        cat.register(rel("b", 5)).unwrap();
        assert_eq!(cat.get("a").unwrap().len(), 3);
        assert!(cat.contains("b"));
        assert!(!cat.contains("c"));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.total_rows(), 8);
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut cat = Catalog::new();
        cat.register(rel("a", 1)).unwrap();
        assert!(matches!(
            cat.register(rel("a", 2)),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn unknown_lookup_fails() {
        let cat = Catalog::new();
        assert!(matches!(
            cat.get("zzz"),
            Err(StorageError::UnknownRelation(_))
        ));
    }

    #[test]
    fn names_preserve_registration_order() {
        let mut cat = Catalog::new();
        for n in ["z", "m", "a"] {
            cat.register(rel(n, 1)).unwrap();
        }
        let names: Vec<&str> = cat.names().collect();
        assert_eq!(names, vec!["z", "m", "a"]);
    }
}
