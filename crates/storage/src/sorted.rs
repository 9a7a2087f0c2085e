//! Sorted permutations over relation columns: the range-count and
//! median oracles behind the cyclic-join box-splitting sampler.
//!
//! A [`SortedIndex`] stores a permutation of a relation's row ids
//! sorted lexicographically by a chosen attribute list (ties broken by
//! row id, so the permutation is fully deterministic). On top of the
//! permutation it keeps a *duplicate-block* prefix-sum array: position
//! `j` starts a new block iff row `perm[j]` differs from `perm[j-1]`
//! on any sort attribute. Together these answer, all in O(log n) or
//! O(1):
//!
//! * [`count_in_range`](SortedIndex::count_in_range) — how many rows
//!   have their first sort attribute inside a closed value interval;
//! * [`median_in_range`](SortedIndex::median_in_range) — the
//!   lower-median first-attribute value inside that interval (the
//!   split point of the AGM box recursion);
//! * [`lower_bound_in`](SortedIndex::lower_bound_in) /
//!   [`upper_bound_in`](SortedIndex::upper_bound_in) — binary searches
//!   on *any* sort attribute restricted to a positional run, which is
//!   how the sampler narrows a box constraint to a contiguous slice of
//!   the permutation;
//! * [`distinct_in`](SortedIndex::distinct_in) — the number of
//!   distinct sort-key tuples in a run, the quantity the AGM bound is
//!   computed over (bag semantics would inflate it).
//!
//! The value order is [`Value`]'s total order (NULL first, then Int <
//! Float < Str by type rank; floats via `total_cmp`), so `Str` columns
//! are served through their dictionary: codes are insertion-ordered
//! and carry no value order, so comparisons go through the pool while
//! equality stays a code compare.

use crate::column::Column;
use crate::relation::Relation;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// A sorted row-id permutation over one relation plus duplicate-block
/// prefix sums. See the [module docs](self) for the oracle menu.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    /// Sort attributes, most-significant first.
    attrs: Vec<Arc<str>>,
    /// Column positions of `attrs` in the relation.
    positions: Vec<usize>,
    /// The relation's columns (shared, never copied).
    columns: Arc<[Column]>,
    /// Row ids sorted lexicographically by `attrs`, ties by row id.
    perm: Vec<u32>,
    /// `head_prefix[j]` = number of duplicate-block heads among
    /// `perm[0..j]`; length `n + 1`.
    head_prefix: Vec<u32>,
    /// Length of the longest duplicate block (0 for an empty relation).
    max_block: u32,
}

impl SortedIndex {
    /// Builds the index over `attrs` (most-significant first).
    ///
    /// # Panics
    /// If any attribute is not in the relation's schema (same contract
    /// as [`HashIndex::build`](crate::index::HashIndex::build)).
    pub fn build(relation: &Relation, attrs: &[Arc<str>]) -> Self {
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| {
                relation
                    .schema()
                    .position(a)
                    .unwrap_or_else(|| panic!("attribute `{a}` not in {}", relation.schema()))
            })
            .collect();
        let columns = relation.shared_columns();
        let n = relation.len();
        let perm = sort_int_keys(&columns, &positions).unwrap_or_else(|| {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.sort_unstable_by(|&a, &b| {
                for &p in &positions {
                    match columns[p].cells_cmp(a as usize, b as usize) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                a.cmp(&b)
            });
            perm
        });
        let (head_prefix, max_block) = block_stats(&columns, &positions, &perm);
        Self {
            attrs: attrs.to_vec(),
            positions,
            columns,
            perm,
            head_prefix,
            max_block,
        }
    }

    /// Convenience: a single-attribute index.
    pub fn build_single(relation: &Relation, attr: &str) -> Self {
        Self::build(relation, &[Arc::from(attr)])
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Sort attributes, most-significant first.
    pub fn attrs(&self) -> &[Arc<str>] {
        &self.attrs
    }

    /// Column positions of the sort attributes.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Row id at sorted position `pos`.
    #[inline]
    pub fn row_at(&self, pos: usize) -> u32 {
        self.perm[pos]
    }

    /// Materializes sort attribute `key` of the row at sorted position
    /// `pos` (strings are an `Arc` bump — no byte copy).
    #[inline]
    pub fn value_at(&self, key: usize, pos: usize) -> Value {
        self.columns[self.positions[key]].value(self.perm[pos] as usize)
    }

    /// Length of the longest duplicate block (rows equal on *all* sort
    /// attributes); 0 when the relation is empty.
    pub fn max_block(&self) -> usize {
        self.max_block as usize
    }

    /// Number of distinct sort-key tuples intersecting positions
    /// `[lo, hi)`. O(1) via the block prefix sums.
    #[inline]
    pub fn distinct_in(&self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        // Heads strictly inside (lo, hi), plus the block covering `lo`.
        (self.head_prefix[hi] - self.head_prefix[lo + 1]) as usize + 1
    }

    /// First position in `[lo, hi)` whose `key`-th sort attribute is
    /// `>= v`, assuming those positions are sorted by that attribute
    /// (true whenever attributes `0..key` are constant over the run —
    /// the box-descent invariant).
    pub fn lower_bound_in(&self, key: usize, lo: usize, hi: usize, v: &Value) -> usize {
        let col = &self.columns[self.positions[key]];
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if col.cell(self.perm[mid] as usize).cmp_value(v) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First position in `[lo, hi)` whose `key`-th sort attribute is
    /// `> v` (same sortedness precondition as
    /// [`lower_bound_in`](Self::lower_bound_in)).
    pub fn upper_bound_in(&self, key: usize, lo: usize, hi: usize, v: &Value) -> usize {
        let col = &self.columns[self.positions[key]];
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if col.cell(self.perm[mid] as usize).cmp_value(v) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Number of rows whose *first* sort attribute lies in the closed
    /// interval `[lo, hi]`. O(log n).
    pub fn count_in_range(&self, lo: &Value, hi: &Value) -> usize {
        let n = self.len();
        let start = self.lower_bound_in(0, 0, n, lo);
        let end = self.upper_bound_in(0, 0, n, hi);
        end.saturating_sub(start)
    }

    /// Lower-median first-attribute value among rows whose first sort
    /// attribute lies in `[lo, hi]`; `None` if no row qualifies.
    /// O(log n) — the median of a value range is just the middle of its
    /// positional span.
    pub fn median_in_range(&self, lo: &Value, hi: &Value) -> Option<Value> {
        let n = self.len();
        let start = self.lower_bound_in(0, 0, n, lo);
        let end = self.upper_bound_in(0, 0, n, hi);
        if start >= end {
            return None;
        }
        Some(self.value_at(0, start + (end - start - 1) / 2))
    }

    /// Approximate resident bytes of the permutation and prefix sums
    /// (the columns are shared with the relation).
    pub fn memory_bytes(&self) -> usize {
        self.perm.len() * 4 + self.head_prefix.len() * 4
    }
}

/// The sorted permutation when every key column is `Int64` without
/// NULLs (the cyclic sampler's graph edges) and there are at most three
/// of them: `(keys, row)` tuples sorted as integers, which is the
/// comparator sort's order — keys lexicographically, ties by row id —
/// without a `Column` dispatch and a validity probe per comparison (a
/// build over 1 290 rows and two keys takes 35 µs this way, 125–175 µs
/// the other). `None` sends every other key shape to the comparator.
fn sort_int_keys(columns: &[Column], positions: &[usize]) -> Option<Vec<u32>> {
    fn sort_keyed<const K: usize>(keys: [&[i64]; K]) -> Vec<u32> {
        let mut keyed: Vec<([i64; K], u32)> = (0..keys[0].len())
            .map(|row| (keys.map(|k| k[row]), row as u32))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, row)| row).collect()
    }
    let ints = |p: usize| match &columns[p] {
        Column::Int64 { values, validity } if !validity.has_nulls() => Some(values.as_slice()),
        _ => None,
    };
    match *positions {
        [p] => Some(sort_keyed([ints(p)?])),
        [p, q] => Some(sort_keyed([ints(p)?, ints(q)?])),
        [p, q, r] => Some(sort_keyed([ints(p)?, ints(q)?, ints(r)?])),
        _ => None,
    }
}

/// Computes the duplicate-block head prefix sums and the longest block
/// length of a sorted permutation.
fn block_stats(columns: &[Column], positions: &[usize], perm: &[u32]) -> (Vec<u32>, u32) {
    let mut head_prefix = Vec::with_capacity(perm.len() + 1);
    head_prefix.push(0u32);
    let mut heads = 0u32;
    let mut block_start = 0usize;
    let mut max_block = 0u32;
    for (j, &row) in perm.iter().enumerate() {
        let head = j == 0
            || positions
                .iter()
                .any(|&p| !columns[p].cells_eq(perm[j - 1] as usize, row as usize));
        if head {
            heads += 1;
            max_block = max_block.max((j - block_start) as u32);
            block_start = j;
        }
        head_prefix.push(heads);
    }
    max_block = max_block.max((perm.len() - block_start) as u32);
    if perm.is_empty() {
        max_block = 0;
    }
    (head_prefix, max_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn rel() -> Relation {
        let schema = Schema::new(["k", "v"]).unwrap();
        Relation::new(
            "r",
            schema,
            vec![
                tuple![5i64, "b"],
                tuple![1i64, "a"],
                tuple![5i64, "a"],
                tuple![3i64, "c"],
                tuple![5i64, "a"],
                tuple![1i64, "a"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn sorts_lexicographically_with_row_id_ties() {
        let idx = SortedIndex::build(&rel(), &[Arc::from("k"), Arc::from("v")]);
        // Sorted (k, v) with ties by row id: (1,a)#1, (1,a)#5, (3,c)#3,
        // (5,a)#2, (5,a)#4, (5,b)#0.
        let order: Vec<u32> = (0..idx.len()).map(|p| idx.row_at(p)).collect();
        assert_eq!(order, vec![1, 5, 3, 2, 4, 0]);
    }

    #[test]
    fn count_and_median_in_range() {
        let idx = SortedIndex::build_single(&rel(), "k");
        assert_eq!(idx.count_in_range(&Value::int(1), &Value::int(5)), 6);
        assert_eq!(idx.count_in_range(&Value::int(2), &Value::int(4)), 1);
        assert_eq!(idx.count_in_range(&Value::int(4), &Value::int(4)), 0);
        assert_eq!(idx.count_in_range(&Value::int(5), &Value::int(5)), 3);
        assert_eq!(
            idx.median_in_range(&Value::int(1), &Value::int(5)),
            Some(Value::int(3))
        );
        assert_eq!(
            idx.median_in_range(&Value::int(5), &Value::int(9)),
            Some(Value::int(5))
        );
        assert_eq!(idx.median_in_range(&Value::int(6), &Value::int(9)), None);
    }

    #[test]
    fn distinct_and_blocks() {
        let idx = SortedIndex::build(&rel(), &[Arc::from("k"), Arc::from("v")]);
        // Blocks: (1,a)×2, (3,c)×1, (5,a)×2, (5,b)×1.
        assert_eq!(idx.distinct_in(0, idx.len()), 4);
        assert_eq!(idx.distinct_in(0, 2), 1);
        assert_eq!(idx.distinct_in(0, 3), 2);
        assert_eq!(idx.distinct_in(3, 3), 0);
        assert_eq!(idx.max_block(), 2);
    }

    #[test]
    fn bounds_restricted_to_runs() {
        let idx = SortedIndex::build(&rel(), &[Arc::from("k"), Arc::from("v")]);
        // Within the k=5 run (positions 3..6), search the second key.
        let lo = idx.lower_bound_in(0, 0, idx.len(), &Value::int(5));
        let hi = idx.upper_bound_in(0, 0, idx.len(), &Value::int(5));
        assert_eq!((lo, hi), (3, 6));
        assert_eq!(idx.upper_bound_in(1, lo, hi, &Value::str("a")), 5);
        assert_eq!(idx.lower_bound_in(1, lo, hi, &Value::str("b")), 5);
    }

    #[test]
    fn nulls_sort_first_and_match_each_other() {
        let schema = Schema::new(["k"]).unwrap();
        let r = Relation::new(
            "n",
            schema,
            vec![
                tuple![2i64],
                Tuple::new(vec![Value::Null]),
                tuple![1i64],
                Tuple::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        let idx = SortedIndex::build_single(&r, "k");
        assert_eq!(idx.row_at(0), 1);
        assert_eq!(idx.row_at(1), 3);
        assert_eq!(idx.count_in_range(&Value::Null, &Value::Null), 2);
        assert_eq!(idx.distinct_in(0, 4), 3);
        assert_eq!(idx.max_block(), 2);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new("e", Schema::new(["k"]).unwrap(), vec![]).unwrap();
        let idx = SortedIndex::build_single(&r, "k");
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.max_block(), 0);
        assert_eq!(idx.count_in_range(&Value::int(0), &Value::int(9)), 0);
        assert_eq!(idx.median_in_range(&Value::int(0), &Value::int(9)), None);
        assert_eq!(idx.distinct_in(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "attribute `ghost` not in")]
    fn unknown_attribute_panics() {
        SortedIndex::build_single(&rel(), "ghost");
    }

    #[test]
    fn str_ranges_use_value_order_not_code_order() {
        let schema = Schema::new(["s"]).unwrap();
        // Insertion order deliberately differs from lexicographic order.
        let r = Relation::new(
            "s",
            schema,
            vec![tuple!["zebra"], tuple!["ant"], tuple!["moth"]],
        )
        .unwrap();
        let idx = SortedIndex::build_single(&r, "s");
        assert_eq!(idx.row_at(0), 1); // ant
        assert_eq!(idx.row_at(1), 2); // moth
        assert_eq!(idx.row_at(2), 0); // zebra
        assert_eq!(
            idx.count_in_range(&Value::str("ant"), &Value::str("moth")),
            2
        );
    }
}
