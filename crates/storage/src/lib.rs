//! In-memory relational storage for the sampling-over-union-of-joins
//! framework.
//!
//! The paper's implementation stores "relations in hash relations with a
//! linear search" (§9); this crate is the Rust equivalent substrate,
//! organized around a **typed columnar engine**:
//!
//! * [`value`] — dynamically typed attribute values with total ordering
//!   and hashing (so tuples can key hash tables).
//! * [`schema`] — attribute lists with O(1) name→position lookup.
//! * [`mod@column`] — typed columns (`Int64` / `Float64` /
//!   dictionary-encoded `Str` with null-validity bitmaps, plus a
//!   `Mixed` fallback), streaming [`ColumnBuilder`]s, and the zero-copy
//!   [`CellRef`] cell view whose hash/equality match [`Value`]'s exactly.
//! * [`relation`] — named relations stored column-major
//!   (`Arc<[Column]>`) with zero-copy [`RowRef`] row views, builders,
//!   vectorized filtering, projection, and the vertical/horizontal
//!   splits used by the UQ3 workload. [`Tuple`] survives as the
//!   materialized *output* representation only.
//! * [`index`] — the one hash index: key (one or more attributes) →
//!   row ids, dictionary encoded with CSR postings over the relation's
//!   shared columns. Over join attributes it drives the samplers; over
//!   every attribute it is the whole-row index behind the membership
//!   oracle.
//! * [`sorted`] — sorted row-id permutations with order-preserving
//!   `i64` key runs and duplicate-block prefix sums: run narrowing by
//!   `partition_point` and O(1) distinct counts, the storage half of
//!   the cyclic-join box sampler.
//! * [`histogram`] — value-frequency histograms and max/average degree
//!   statistics (§5's building blocks), counted once per column into
//!   the column's own representation.
//! * [`predicate`] — selection predicates with a tuple-at-a-time
//!   oracle and a column-at-a-time [`SelectionBitmap`] path for §8.3
//!   push-down.
//! * [`catalog`] — a named collection of relations.
//! * [`csv`] — CSV import/export for relations (header row, quoting,
//!   Int → Float → Str inference, streaming column build).
//! * [`hash`] — a fast non-cryptographic hasher (Fx) used by all hot
//!   hash maps, implemented locally.
//!
//! # Example
//!
//! ```
//! use suj_storage::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = Schema::new(["k", "v"])?;
//! let rel = Relation::new("r", schema, vec![
//!     Tuple::new(vec![Value::int(1), Value::str("x")]),
//!     Tuple::new(vec![Value::int(1), Value::str("y")]),
//!     Tuple::new(vec![Value::int(2), Value::str("z")]),
//! ])?;
//!
//! // Hash index on the key attribute: key 1 holds rows 0 and 1.
//! let idx = HashIndex::build(&rel, &["k".into()]);
//! assert_eq!(idx.rows_matching_projected(&[Value::int(1)], &[0]), &[0, 1]);
//! assert_eq!(idx.max_degree(), 2);
//!
//! // Over every attribute it is a whole-row membership index.
//! let rows = HashIndex::build(&rel, rel.schema().attrs());
//! let probe = [Value::int(2), Value::str("z")];
//! assert!(rows.key_id_projected(&probe, &[0, 1]).is_some());
//!
//! // Histograms: the statistics tier of §5.
//! let hist = FrequencyHistogram::build(&rel, "k");
//! assert_eq!(hist.distinct(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod error;
pub mod hash;
pub mod histogram;
pub mod index;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod sorted;
pub mod tuple;
pub mod value;

/// Commonly used items — the crate's public vocabulary, listed once;
/// the crate root re-exports exactly this set.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::column::{hash_cells, CellRef, Column, ColumnBuilder, StrPool, Validity};
    pub use crate::csv::{read_csv, write_csv};
    pub use crate::error::StorageError;
    pub use crate::hash::{hash_values, FxHashMap, FxHashSet};
    pub use crate::histogram::{DegreeStats, FrequencyHistogram};
    pub use crate::index::{hash_index_builds, HashIndex, NO_KEY};
    pub use crate::predicate::{CompareOp, CompiledPredicate, Predicate, SelectionBitmap};
    pub use crate::relation::{Relation, RelationBuilder, RowRef};
    pub use crate::schema::Schema;
    pub use crate::snapshot::SnapshotError;
    pub use crate::sorted::SortedIndex;
    pub use crate::tuple::Tuple;
    pub use crate::value::Value;
}

pub use prelude::*;
