//! Named relations over typed columns.
//!
//! A [`Relation`] is an immutable bag of rows under a schema, stored
//! **column-major**: one typed [`Column`] per attribute behind a shared
//! `Arc<[Column]>`. Rows are views — [`RowRef`] addresses a row without
//! materializing it; [`Tuple`] survives only as the materialized
//! *output* representation (the paper's `t.val` identity is a property
//! of the value sequence, not of the storage layout). Splitting helpers
//! implement the UQ3 workload construction ("we split them vertically
//! and horizontally to get relations with different schemas", §9) and
//! the splitting method's bookkeeping: a relation derived from another
//! records the original's cardinality, which the histogram-based
//! estimator uses ("split relations keep a record of their original
//! sizes", §5.2).

use crate::column::{CellRef, Column, ColumnBuilder};
use crate::error::StorageError;
use crate::predicate::CompiledPredicate;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable named relation (bag semantics), stored column-major.
#[derive(Debug, Clone)]
pub struct Relation {
    name: Arc<str>,
    schema: Schema,
    columns: Arc<[Column]>,
    len: usize,
    original_size: Option<usize>,
}

impl Relation {
    /// Builds a relation from row-major tuples, validating every row's
    /// arity; the rows are transposed into typed columns.
    pub fn new(
        name: impl AsRef<str>,
        schema: Schema,
        rows: Vec<Tuple>,
    ) -> Result<Self, StorageError> {
        let mut builders: Vec<ColumnBuilder> =
            (0..schema.arity()).map(|_| ColumnBuilder::new()).collect();
        for row in &rows {
            if row.arity() != schema.arity() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.arity(),
                    actual: row.arity(),
                });
            }
            for (b, v) in builders.iter_mut().zip(row.values()) {
                b.push_ref(v);
            }
        }
        let columns: Vec<Column> = builders.into_iter().map(ColumnBuilder::finish).collect();
        Self::from_columns(name, schema, columns)
    }

    /// Builds a relation directly from columns (the streaming import
    /// path — no intermediate tuples). All columns must have the same
    /// length and match the schema's arity.
    pub fn from_columns(
        name: impl AsRef<str>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self, StorageError> {
        if columns.len() != schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: schema.arity(),
                actual: columns.len(),
            });
        }
        let len = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != len {
                return Err(StorageError::Invalid(format!(
                    "ragged columns: {} vs {len} rows",
                    c.len()
                )));
            }
        }
        Ok(Self {
            name: Arc::from(name.as_ref()),
            schema,
            columns: columns.into(),
            len,
            original_size: None,
        })
    }

    /// Starts a builder for incremental row insertion.
    pub fn builder(name: impl AsRef<str>, schema: Schema) -> RelationBuilder {
        let builders = (0..schema.arity()).map(|_| ColumnBuilder::new()).collect();
        RelationBuilder {
            name: Arc::from(name.as_ref()),
            schema,
            builders,
            len: 0,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The typed columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The shared column storage (an `Arc` bump — no data copy).
    /// Indexes hold this to answer probes against dictionary state
    /// without materializing values.
    pub fn shared_columns(&self) -> Arc<[Column]> {
        self.columns.clone()
    }

    /// Column of attribute position `p`.
    #[inline]
    pub fn column(&self, p: usize) -> &Column {
        &self.columns[p]
    }

    /// Zero-copy view of row `i`.
    #[inline]
    pub fn row_ref(&self, i: usize) -> RowRef<'_> {
        debug_assert!(i < self.len, "row {i} out of {}", self.len);
        RowRef {
            relation: self,
            row: i,
        }
    }

    /// Iterates zero-copy row views.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len).map(|i| self.row_ref(i))
    }

    /// Materializes row `i` as an output tuple.
    pub fn tuple_at(&self, i: usize) -> Tuple {
        self.row_ref(i).to_tuple()
    }

    /// Materializes every row (test / ground-truth convenience — the
    /// hot paths read columns or [`RowRef`]s instead).
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.tuple_at(i)).collect()
    }

    /// Cardinality of the relation this one was derived from, if any —
    /// used by the splitting method's size bookkeeping (§5.2).
    pub fn original_size(&self) -> usize {
        self.original_size.unwrap_or(self.len)
    }

    /// Returns a copy carrying `original` as the recorded original size.
    pub fn with_original_size(mut self, original: usize) -> Self {
        self.original_size = Some(original);
        self
    }

    /// Value of attribute `name` in row `i` (materialized; strings are
    /// an `Arc` bump out of the column dictionary).
    pub fn value(&self, i: usize, name: &str) -> Result<Value, StorageError> {
        let pos = self.schema.require(name)?;
        Ok(self.columns[pos].value(i))
    }

    /// Approximate resident bytes of the relation's columns (payload
    /// vectors, string dictionaries, validity bitmaps) — the
    /// prepared-footprint accounting surfaced by run reports.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(Column::memory_bytes).sum()
    }

    /// A new relation keeping only rows satisfying the predicate
    /// (selection push-down, §8.3). Runs the vectorized
    /// [`CompiledPredicate::select`] path, then gathers the surviving
    /// rows column by column.
    pub fn filter(&self, name: impl AsRef<str>, pred: &CompiledPredicate) -> Relation {
        let kept = pred.select(self).to_row_ids();
        self.gather(name, &kept, Some(self.original_size()))
    }

    /// The gathered `rows` (by id, in order) as a new relation.
    fn gather(&self, name: impl AsRef<str>, rows: &[u32], original: Option<usize>) -> Relation {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(rows)).collect();
        Relation {
            name: Arc::from(name.as_ref()),
            schema: self.schema.clone(),
            columns: columns.into(),
            len: rows.len(),
            original_size: original,
        }
    }

    /// Projects onto `attrs` (keeping duplicates — bag projection). The
    /// result records this relation's cardinality as its original size.
    pub fn project(&self, name: impl AsRef<str>, attrs: &[&str]) -> Result<Relation, StorageError> {
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| self.schema.require(a))
            .collect::<Result<_, _>>()?;
        let schema = Schema::new(attrs.iter().copied())?;
        let columns: Vec<Column> = positions.iter().map(|&p| self.columns[p].clone()).collect();
        Ok(Relation {
            name: Arc::from(name.as_ref()),
            schema,
            columns: columns.into(),
            len: self.len,
            original_size: Some(self.original_size()),
        })
    }

    /// Projects onto `attrs` and removes duplicate rows.
    pub fn project_distinct(
        &self,
        name: impl AsRef<str>,
        attrs: &[&str],
    ) -> Result<Relation, StorageError> {
        let projected = self.project(name, attrs)?;
        Ok(projected.distinct())
    }

    /// Removes duplicate rows (set semantics), preserving first-seen
    /// order. Row identity is hashed straight off the columns.
    pub fn distinct(&self) -> Relation {
        let mut buckets: crate::hash::FxHashMap<u64, Vec<u32>> = Default::default();
        let mut kept: Vec<u32> = Vec::new();
        for i in 0..self.len {
            let h = crate::column::hash_cells(self.columns.iter().map(|c| c.cell(i)));
            let ids = buckets.entry(h).or_default();
            let dup = ids
                .iter()
                .any(|&j| self.columns.iter().all(|c| c.cells_eq(j as usize, i)));
            if !dup {
                ids.push(i as u32);
                kept.push(i as u32);
            }
        }
        self.gather(self.name.as_ref(), &kept, self.original_size)
    }

    /// Renames attributes through `f` (used to build self-join variants,
    /// e.g. `orderkey` → `orderkey2`). The columns are shared, not
    /// copied.
    pub fn rename_attrs(
        &self,
        name: impl AsRef<str>,
        f: impl FnMut(&str) -> String,
    ) -> Result<Relation, StorageError> {
        let schema = self.schema.rename(f)?;
        Ok(Relation {
            name: Arc::from(name.as_ref()),
            schema,
            columns: self.columns.clone(),
            len: self.len,
            original_size: self.original_size,
        })
    }

    /// Horizontal split at `fraction` (0..=1): the first relation keeps
    /// the leading `fraction` of rows, the second keeps the rest.
    pub fn split_horizontal(
        &self,
        first_name: impl AsRef<str>,
        second_name: impl AsRef<str>,
        fraction: f64,
    ) -> (Relation, Relation) {
        let cut = ((self.len as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let cut = cut.min(self.len);
        let slice_rel = |name: &str, lo: usize, hi: usize| Relation {
            name: Arc::from(name),
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| c.slice(lo, hi))
                .collect::<Vec<_>>()
                .into(),
            len: hi - lo,
            original_size: Some(self.len),
        };
        (
            slice_rel(first_name.as_ref(), 0, cut),
            slice_rel(second_name.as_ref(), cut, self.len),
        )
    }

    /// Concatenates rows of two same-schema relations (disjoint union of
    /// bags).
    pub fn concat(&self, other: &Relation) -> Result<Relation, StorageError> {
        if !self.schema.same_as(&other.schema) {
            return Err(StorageError::Invalid(format!(
                "cannot concat relations with different schemas: {} vs {}",
                self.schema, other.schema
            )));
        }
        let columns: Vec<Column> = (0..self.schema.arity())
            .map(|p| {
                let mut b = ColumnBuilder::new();
                for i in 0..self.len {
                    b.push(self.columns[p].value(i));
                }
                for i in 0..other.len {
                    b.push(other.columns[p].value(i));
                }
                b.finish()
            })
            .collect();
        Ok(Relation {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: columns.into(),
            len: self.len + other.len,
            original_size: None,
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} [{} rows]", self.name, self.schema, self.len())
    }
}

/// Zero-copy view of one row of a [`Relation`]: a `(relation, row id)`
/// pair. Cell reads go straight to the columns; nothing is materialized
/// until [`RowRef::to_tuple`].
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    relation: &'a Relation,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The relation this row belongs to.
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.relation.schema().arity()
    }

    /// Zero-copy view of the cell at attribute position `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> CellRef<'a> {
        self.relation.columns[pos].cell(self.row)
    }

    /// Materializes the cell at `pos` (strings are an `Arc` bump).
    #[inline]
    pub fn value(&self, pos: usize) -> Value {
        self.relation.columns[pos].value(self.row)
    }

    /// Materializes the row as an output [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        (0..self.arity()).map(|p| self.value(p)).collect()
    }
}

impl PartialEq for RowRef<'_> {
    /// Structural equality of the denoted value sequences (the paper's
    /// `t.val` identity) — rows of different relations compare equal iff
    /// their cells do.
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && (0..self.arity()).all(|p| self.get(p) == other.get(p))
    }
}

impl Eq for RowRef<'_> {}

impl fmt::Display for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for p in 0..self.arity() {
            if p > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.get(p))?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowRef({self})")
    }
}

/// Incremental relation builder: rows stream straight into
/// [`ColumnBuilder`]s — no intermediate tuple storage.
#[derive(Debug)]
pub struct RelationBuilder {
    name: Arc<str>,
    schema: Schema,
    builders: Vec<ColumnBuilder>,
    len: usize,
}

impl RelationBuilder {
    /// Appends a row, validating arity.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<&mut Self, StorageError> {
        if values.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                actual: values.len(),
            });
        }
        for (b, v) in self.builders.iter_mut().zip(values) {
            b.push(v);
        }
        self.len += 1;
        Ok(self)
    }

    /// Number of rows accumulated so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finalizes the relation.
    pub fn build(self) -> Relation {
        let columns: Vec<Column> = self
            .builders
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        Relation {
            name: self.name,
            schema: self.schema,
            columns: columns.into(),
            len: self.len,
            original_size: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Predicate};
    use crate::tuple;

    fn sample_relation() -> Relation {
        let schema = Schema::new(["k", "v"]).unwrap();
        Relation::new(
            "r",
            schema,
            vec![
                tuple![1i64, 10i64],
                tuple![2i64, 20i64],
                tuple![2i64, 20i64],
                tuple![3i64, 30i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_arity() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let err = Relation::new("bad", schema, vec![tuple![1i64]]);
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
    }

    #[test]
    fn from_columns_rejects_ragged_input() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let mut a = ColumnBuilder::new();
        a.push_i64(1);
        a.push_i64(2);
        let mut b = ColumnBuilder::new();
        b.push_i64(1);
        assert!(Relation::from_columns("r", schema.clone(), vec![a.finish(), b.finish()]).is_err());
        assert!(matches!(
            Relation::from_columns("r", schema, vec![ColumnBuilder::new().finish()]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rows_to_columns_to_rows_round_trip() {
        let r = sample_relation();
        assert_eq!(
            r.tuples(),
            vec![
                tuple![1i64, 10i64],
                tuple![2i64, 20i64],
                tuple![2i64, 20i64],
                tuple![3i64, 30i64],
            ]
        );
        assert_eq!(r.tuple_at(3), tuple![3i64, 30i64]);
    }

    #[test]
    fn builder_accumulates_rows() {
        let schema = Schema::new(["a"]).unwrap();
        let mut b = Relation::builder("r", schema);
        b.push_row(vec![Value::int(1)]).unwrap();
        b.push_row(vec![Value::int(2)]).unwrap();
        assert!(b.push_row(vec![]).is_err());
        let r = b.build();
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(), "r");
        assert_eq!(r.column(0).kind(), "i64");
    }

    #[test]
    fn row_ref_reads_cells_without_materializing() {
        let r = sample_relation();
        let row = r.row_ref(1);
        assert_eq!(row.arity(), 2);
        assert!(row.get(0) == CellRef::from(&Value::int(2)));
        assert_eq!(row.value(1), Value::int(20));
        assert_eq!(row.to_tuple(), tuple![2i64, 20i64]);
        // Structural equality across row ids.
        assert_eq!(r.row_ref(1), r.row_ref(2));
        assert_ne!(r.row_ref(0), r.row_ref(1));
        assert_eq!(format!("{row}"), "[2, 20]");
    }

    #[test]
    fn filter_applies_predicate() {
        let r = sample_relation();
        let pred = Predicate::cmp("k", CompareOp::Ge, Value::int(2))
            .compile(r.schema())
            .unwrap();
        let filtered = r.filter("r_f", &pred);
        assert_eq!(filtered.len(), 3);
        assert!(filtered
            .iter_rows()
            .all(|t| matches!(t.get(0), CellRef::Int(k) if k >= 2)));
        // Filtered relation remembers its origin's size.
        assert_eq!(filtered.original_size(), 4);
    }

    #[test]
    fn project_and_distinct() {
        let r = sample_relation();
        let p = r.project("p", &["v"]).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.schema().arity(), 1);
        let d = p.distinct();
        assert_eq!(d.len(), 3);
        let pd = r.project_distinct("pd", &["v"]).unwrap();
        assert_eq!(pd.len(), 3);
    }

    #[test]
    fn project_unknown_attr_fails() {
        let r = sample_relation();
        assert!(r.project("p", &["missing"]).is_err());
    }

    #[test]
    fn horizontal_split_partitions_rows() {
        let r = sample_relation();
        let (a, b) = r.split_horizontal("a", "b", 0.5);
        assert_eq!(a.len() + b.len(), r.len());
        assert_eq!(a.len(), 2);
        assert_eq!(a.original_size(), 4);

        let (all, none) = r.split_horizontal("x", "y", 1.0);
        assert_eq!(all.len(), 4);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn concat_requires_same_schema() {
        let r = sample_relation();
        let (a, b) = r.split_horizontal("a", "b", 0.25);
        let joined = a.concat(&b).unwrap();
        assert_eq!(joined.len(), r.len());
        assert_eq!(joined.tuples(), r.tuples());

        let other = Relation::new("o", Schema::new(["z"]).unwrap(), vec![]).unwrap();
        assert!(r.concat(&other).is_err());
    }

    #[test]
    fn rename_attrs_builds_self_join_variant() {
        let r = sample_relation();
        let r2 = r.rename_attrs("r2", |a| format!("{a}_2")).unwrap();
        assert!(r2.schema().contains("k_2"));
        assert_eq!(r2.len(), r.len());
        assert_eq!(r2.tuple_at(0), r.tuple_at(0));
        // Renaming shares the column storage.
        assert!(Arc::ptr_eq(&r.columns, &r2.columns));
    }

    #[test]
    fn value_accessor() {
        let r = sample_relation();
        assert_eq!(r.value(0, "v").unwrap(), Value::int(10));
        assert!(r.value(0, "nope").is_err());
    }

    #[test]
    fn memory_bytes_counts_columns() {
        let r = sample_relation();
        // Two i64 columns of 4 rows, no nulls: 2 · 4 · 8 bytes.
        assert_eq!(r.memory_bytes(), 64);
        let schema = Schema::new(["s"]).unwrap();
        let s = Relation::new("s", schema, vec![tuple!["abc"], tuple!["abc"]]).unwrap();
        // Dictionary-encoded: one pooled string, two u32 codes.
        assert!(s.memory_bytes() < 2 * (16 + 3) + 100);
        assert!(s.memory_bytes() >= 2 * 4 + 3);
    }

    #[test]
    fn display_mentions_name_and_size() {
        let r = sample_relation();
        let s = r.to_string();
        assert!(s.contains('r'));
        assert!(s.contains("4 rows"));
    }
}
