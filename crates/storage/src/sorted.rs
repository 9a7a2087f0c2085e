//! Sorted permutations over relation columns: the range-count oracles
//! behind the cyclic-join box-splitting sampler.
//!
//! A [`SortedIndex`] stores a permutation of a relation's row ids
//! sorted lexicographically by a chosen attribute list (ties broken by
//! row id, so the permutation is fully deterministic) and, beside it,
//! each sort attribute as an `i64` **key run**: position `pos` of run
//! `k` holds the *order code* of attribute `k` of row `perm[pos]`. On
//! top of the permutation it keeps a *duplicate-block* prefix-sum
//! array: position `j` starts a new block iff row `perm[j]` differs
//! from `perm[j-1]` on any sort attribute. Together these answer:
//!
//! * [`key`](SortedIndex::key) — one sort attribute's codes in sorted
//!   order, as a plain `&[i64]`: inside a run where attributes
//!   `0..k` are constant, run `k` is sorted, so narrowing a box
//!   constraint to a contiguous slice of the permutation is one
//!   `partition_point` and a pin is one integer compare;
//! * [`distinct_in`](SortedIndex::distinct_in) — the number of
//!   distinct sort-key tuples in a run, O(1), the quantity the AGM
//!   bound is computed over (bag semantics would inflate it);
//! * [`max_block`](SortedIndex::max_block) and
//!   [`row_at`](SortedIndex::row_at) — what a unit box needs to draw a
//!   duplicate.
//!
//! Codes preserve [`Value`]'s total order (NULL first, then Int <
//! Float < Str by type rank; floats via `total_cmp`) and its equality.
//! A key that is `Int64` without NULLs is its own code. Any other key —
//! NULLs, floats, strings, `Mixed` columns — is coded by its dense rank
//! among the distinct values of the attribute. [`SortedIndex::build_all`]
//! ranks each attribute once over *every* relation it indexes that
//! holds it, so codes compare across those indexes exactly as the
//! values do; that is what lets the box sampler pin and cut several
//! relations on one boundary code.

use crate::column::Column;
use crate::relation::Relation;
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

/// A sorted row-id permutation over one relation, its key runs and
/// duplicate-block prefix sums. See the [module docs](self) for the
/// oracle menu.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    /// Sort attributes, most-significant first.
    attrs: Vec<Arc<str>>,
    /// Row ids sorted lexicographically by `attrs`, ties by row id.
    perm: Vec<u32>,
    /// The key runs, one after another: `keys[k·n + pos]` is the order
    /// code of attribute `attrs[k]` of row `perm[pos]`.
    keys: Vec<i64>,
    /// `head_prefix[j]` = number of duplicate-block heads among
    /// `perm[0..j]`; length `n + 1`.
    head_prefix: Vec<u32>,
    /// Length of the longest duplicate block (0 for an empty relation).
    max_block: u32,
}

impl SortedIndex {
    /// Builds one index per `(relation, attrs)` pair, sorted by `attrs`
    /// most-significant first, coding each attribute name once over
    /// every pair that sorts by it: a code of one index compares with a
    /// code of another as their values do.
    ///
    /// # Panics
    /// If any attribute is not in its relation's schema (same contract
    /// as [`HashIndex::build`](crate::index::HashIndex::build)).
    pub fn build_all(parts: &[(&Relation, &[Arc<str>])]) -> Vec<Self> {
        // Every attribute name, with the `(part, key)` slots sorting by it.
        let mut slots: Vec<(&str, Vec<(usize, usize)>)> = Vec::new();
        for (j, &(_, attrs)) in parts.iter().enumerate() {
            for (k, a) in attrs.iter().enumerate() {
                match slots.iter_mut().find(|(b, _)| *b == a.as_ref()) {
                    Some((_, held)) => held.push((j, k)),
                    None => slots.push((a, vec![(j, k)])),
                }
            }
        }
        let mut codes: Vec<Vec<Cow<[i64]>>> = parts
            .iter()
            .map(|(_, attrs)| vec![Cow::Borrowed(&[][..]); attrs.len()])
            .collect();
        for (a, held) in slots {
            let columns: Vec<&Column> = held
                .iter()
                .map(|&(j, _)| {
                    let relation = parts[j].0;
                    let p = relation.schema().position(a);
                    relation.column(
                        p.unwrap_or_else(|| panic!("attribute `{a}` not in {}", relation.schema())),
                    )
                })
                .collect();
            for ((j, k), code) in held.into_iter().zip(order_codes(&columns)) {
                codes[j][k] = code;
            }
        }
        parts
            .iter()
            .zip(codes)
            .map(|(&(relation, attrs), codes)| {
                let codes: Vec<&[i64]> = codes.iter().map(|c| c.as_ref()).collect();
                let (perm, keys) = sort_rows(&codes, relation.len());
                let (head_prefix, max_block) = block_stats(&keys, perm.len());
                Self {
                    attrs: attrs.to_vec(),
                    perm,
                    keys,
                    head_prefix,
                    max_block,
                }
            })
            .collect()
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

    /// Row id at sorted position `pos`.
    #[inline]
    pub fn row_at(&self, pos: usize) -> u32 {
        self.perm[pos]
    }

    /// The key run of sort attribute `k`: its order codes in sorted
    /// position order. Sorted over any run of positions on which
    /// attributes `0..k` are constant (the box-descent invariant).
    #[inline]
    pub fn key(&self, k: usize) -> &[i64] {
        let n = self.perm.len();
        &self.keys[k * n..(k + 1) * n]
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

    /// Approximate resident bytes of the permutation, the key runs and
    /// the prefix sums (the columns belong to the relation).
    pub fn memory_bytes(&self) -> usize {
        self.perm.len() * 4 + self.keys.len() * 8 + self.head_prefix.len() * 4
    }
}

/// Row-indexed order codes of one attribute in each of `columns`: the
/// values themselves when every column is `Int64` without NULLs,
/// otherwise each cell's dense rank among the distinct values of all
/// of them, in [`Value`]'s order.
fn order_codes<'c>(columns: &[&'c Column]) -> Vec<Cow<'c, [i64]>> {
    let ints: Option<Vec<&[i64]>> = columns
        .iter()
        .map(|c| match c {
            Column::Int64 { values, validity } if !validity.has_nulls() => Some(values.as_slice()),
            _ => None,
        })
        .collect();
    if let Some(ints) = ints {
        return ints.into_iter().map(Cow::Borrowed).collect();
    }
    let cells = |c: &'c Column| (0..c.len()).map(move |row| c.value(row));
    let mut domain: Vec<Value> = columns.iter().flat_map(|c| cells(c)).collect();
    domain.sort_unstable();
    domain.dedup();
    let rank = |v: Value| domain.binary_search(&v).expect("cell in its own domain") as i64;
    columns
        .iter()
        .map(|c| Cow::Owned(cells(c).map(rank).collect()))
        .collect()
}

/// The permutation sorting rows by `codes` lexicographically, ties by
/// row id, and the key runs in that order: one sort of `(keys, row)`
/// tuples, which needs no comparator and yields the runs in the same
/// pass. Up to three keys (every relation of a cycle or clique) are
/// held inline; more are a `Vec` per row.
fn sort_rows(codes: &[&[i64]], n: usize) -> (Vec<u32>, Vec<i64>) {
    fn sort_keyed<K: Ord + AsRef<[i64]>>(
        width: usize,
        n: usize,
        key: impl Fn(usize) -> K,
    ) -> (Vec<u32>, Vec<i64>) {
        let mut keyed: Vec<(K, u32)> = (0..n).map(|row| (key(row), row as u32)).collect();
        keyed.sort_unstable();
        let keys = (0..width)
            .flat_map(|k| keyed.iter().map(move |(key, _)| key.as_ref()[k]))
            .collect();
        (keyed.into_iter().map(|(_, row)| row).collect(), keys)
    }
    match *codes {
        [a] => sort_keyed(1, n, |r| [a[r]]),
        [a, b] => sort_keyed(2, n, |r| [a[r], b[r]]),
        [a, b, c] => sort_keyed(3, n, |r| [a[r], b[r], c[r]]),
        _ => sort_keyed(codes.len(), n, |r| {
            codes.iter().map(|c| c[r]).collect::<Vec<_>>()
        }),
    }
}

/// The duplicate-block head prefix sums and the longest block length
/// over `n` sorted positions whose key runs are `keys`.
fn block_stats(keys: &[i64], n: usize) -> (Vec<u32>, u32) {
    if n == 0 {
        return (vec![0], 0);
    }
    let mut head_prefix = Vec::with_capacity(n + 1);
    head_prefix.push(0u32);
    let mut heads = 0u32;
    let mut block_start = 0usize;
    let mut max_block = 0u32;
    for j in 0..n {
        if j == 0 || keys.chunks_exact(n).any(|run| run[j] != run[j - 1]) {
            heads += 1;
            max_block = max_block.max((j - block_start) as u32);
            block_start = j;
        }
        head_prefix.push(heads);
    }
    max_block = max_block.max((n - block_start) as u32);
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

    fn build(r: &Relation, attrs: &[&str]) -> SortedIndex {
        let attrs: Vec<Arc<str>> = attrs.iter().map(|&a| a.into()).collect();
        SortedIndex::build_all(&[(r, &attrs)]).remove(0)
    }

    #[test]
    fn sorts_lexicographically_with_row_id_ties() {
        let idx = build(&rel(), &["k", "v"]);
        // Sorted (k, v) with ties by row id: (1,a)#1, (1,a)#5, (3,c)#3,
        // (5,a)#2, (5,a)#4, (5,b)#0.
        let order: Vec<u32> = (0..idx.len()).map(|p| idx.row_at(p)).collect();
        assert_eq!(order, vec![1, 5, 3, 2, 4, 0]);
        // An integer key is its own code; strings get their rank.
        assert_eq!(idx.key(0), &[1, 1, 3, 5, 5, 5]);
        assert_eq!(idx.key(1), &[0, 0, 2, 0, 0, 1]);
    }

    #[test]
    fn distinct_and_blocks() {
        let idx = build(&rel(), &["k", "v"]);
        // Blocks: (1,a)×2, (3,c)×1, (5,a)×2, (5,b)×1.
        assert_eq!(idx.distinct_in(0, idx.len()), 4);
        assert_eq!(idx.distinct_in(0, 2), 1);
        assert_eq!(idx.distinct_in(0, 3), 2);
        assert_eq!(idx.distinct_in(3, 3), 0);
        assert_eq!(idx.max_block(), 2);
    }

    #[test]
    fn bounds_restricted_to_runs() {
        let idx = build(&rel(), &["k", "v"]);
        // Within the k=5 run (positions 3..6), search the second key.
        let k0 = idx.key(0);
        let (lo, hi) = (
            k0.partition_point(|&c| c < 5),
            k0.partition_point(|&c| c <= 5),
        );
        assert_eq!((lo, hi), (3, 6));
        let run = &idx.key(1)[lo..hi];
        let (a, b) = (idx.key(1)[0], idx.key(1)[hi - 1]);
        assert_eq!(lo + run.partition_point(|&c| c <= a), 5);
        assert_eq!(lo + run.partition_point(|&c| c < b), 5);
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
        let idx = build(&r, &["k"]);
        assert_eq!(idx.row_at(0), 1);
        assert_eq!(idx.row_at(1), 3);
        assert_eq!(idx.key(0), &[0, 0, 1, 2]);
        assert_eq!(idx.distinct_in(0, 4), 3);
        assert_eq!(idx.max_block(), 2);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new("e", Schema::new(["k"]).unwrap(), vec![]).unwrap();
        let idx = build(&r, &["k"]);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.max_block(), 0);
        assert!(idx.key(0).is_empty());
        assert_eq!(idx.distinct_in(0, 0), 0);
        assert_eq!(idx.memory_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "attribute `ghost` not in")]
    fn unknown_attribute_panics() {
        build(&rel(), &["ghost"]);
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
        let idx = build(&r, &["s"]);
        assert_eq!(idx.row_at(0), 1); // ant
        assert_eq!(idx.row_at(1), 2); // moth
        assert_eq!(idx.row_at(2), 0); // zebra
        assert_eq!(idx.key(0), &[0, 1, 2]);
    }
}
