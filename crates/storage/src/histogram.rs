//! Column statistics.
//!
//! §5 instantiates the framework with "histograms of columns and even
//! more minimalistic statistics such as maximum degrees of tuples in
//! relations". Two tiers of statistic are modeled:
//!
//! 1. [`FrequencyHistogram`] — exact value→frequency counts (what a DBMS
//!    keeps for low-cardinality columns). Supports the `K(1)` sum over
//!    the common value domain and per-value degrees `d_A(v, R)`.
//! 2. [`DegreeStats`] — just `(max degree, avg degree, distinct, total)`,
//!    the minimum §5.1 needs for the `K(i)` multipliers.
//!
//! A histogram counts its column **once**, into the representation the
//! column's type already has: a table addressed by the key itself where
//! an integer column is dense, a scalar-keyed map where it is not, the
//! per-code array of a dictionary-encoded string column, and a
//! [`Value`]-keyed map only for the `Mixed` fallback. Nothing is
//! re-keyed by `Value` afterwards; [`FrequencyHistogram::degree`]
//! dispatches on the probed value's type instead.

use crate::column::{dense_int_slots, Column, StrPool, Validity};
use crate::hash::FxHashMap;
use crate::relation::Relation;
use crate::value::Value;
use std::sync::Arc;

/// Summary degree statistics of one attribute of one relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Maximum frequency of any value — `M_A(R)`.
    pub max_degree: usize,
    /// Average frequency over distinct values.
    pub avg_degree: f64,
    /// Number of distinct values.
    pub distinct: usize,
    /// Total number of rows.
    pub total: usize,
}

/// Non-NULL value frequencies, in the column's own representation.
#[derive(Debug, Clone)]
enum Counts {
    /// Dense integers: `table[v − min]` (0 for absent values in range).
    Direct { min: i64, table: Vec<u32> },
    /// Sparse integers.
    Int(FxHashMap<i64, u64>),
    /// Floats keyed by bit pattern — exactly the total-order equality
    /// `Value::Float` uses.
    Float(FxHashMap<u64, u64>),
    /// Dictionary strings: one slot per pool code. Probes go through
    /// [`StrPool::code_of`], so values from another relation's pool
    /// still compare by string.
    Str {
        pool: Arc<StrPool>,
        by_code: Vec<u64>,
    },
    /// Heterogeneous cells.
    Mixed(FxHashMap<Value, u64>),
}

/// Exact value-frequency histogram of one attribute.
#[derive(Debug, Clone)]
pub struct FrequencyHistogram {
    counts: Counts,
    /// Frequency of NULL (counted as one more distinct value when > 0).
    nulls: u64,
    /// Distinct values, NULL included.
    distinct: usize,
    total: u64,
    max_degree: u64,
}

/// Calls `f` with every non-NULL cell of a scalar column; returns the
/// NULL count.
#[inline(always)]
fn for_each_valid<T: Copy>(values: &[T], validity: &Validity, mut f: impl FnMut(T)) -> u64 {
    if !validity.has_nulls() {
        values.iter().for_each(|&v| f(v));
        return 0;
    }
    let mut nulls = 0;
    for (i, &v) in values.iter().enumerate() {
        if validity.is_valid(i) {
            f(v);
        } else {
            nulls += 1;
        }
    }
    nulls
}

/// Counts an integer column: into a table addressed by the value
/// itself when the column is dense ([`dense_int_slots`], the rule that
/// also chooses `HashIndex`'s direct probe), through a scalar-keyed map
/// otherwise.
fn count_ints(values: &[i64], validity: &Validity) -> (Counts, u64) {
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    let nulls = for_each_valid(values, validity, |v| {
        min = min.min(v);
        max = max.max(v);
    });
    // `u32` slots: a count cannot exceed the row count.
    let slots =
        dense_int_slots(min, max, values.len()).filter(|_| values.len() <= u32::MAX as usize);
    if let Some(slots) = slots {
        let mut table = vec![0u32; slots];
        for_each_valid(values, validity, |v| table[(v - min) as usize] += 1);
        (Counts::Direct { min, table }, nulls)
    } else {
        let mut by_int: FxHashMap<i64, u64> = FxHashMap::default();
        for_each_valid(values, validity, |v| *by_int.entry(v).or_insert(0) += 1);
        (Counts::Int(by_int), nulls)
    }
}

impl FrequencyHistogram {
    /// Builds the histogram for `attr` of `relation` in one counting
    /// scan of the typed column (integer columns pay a min/max scan
    /// first to choose between a direct-address table and a map).
    ///
    /// # Panics
    /// Panics if the attribute is absent (validated upstream by join
    /// specs).
    pub fn build(relation: &Relation, attr: &str) -> Self {
        let pos = relation
            .schema()
            .position(attr)
            .unwrap_or_else(|| panic!("attribute `{attr}` not in {}", relation.schema()));
        let (counts, nulls) = match relation.column(pos) {
            Column::Int64 { values, validity } => count_ints(values, validity),
            Column::Float64 { values, validity } => {
                let mut by_bits: FxHashMap<u64, u64> = FxHashMap::default();
                let nulls = for_each_valid(values, validity, |v| {
                    *by_bits.entry(v.to_bits()).or_insert(0) += 1
                });
                (Counts::Float(by_bits), nulls)
            }
            Column::Str {
                codes,
                pool,
                validity,
            } => {
                let mut by_code = vec![0u64; pool.len()];
                let nulls = for_each_valid(codes, validity, |code| by_code[code as usize] += 1);
                let pool = pool.clone();
                (Counts::Str { pool, by_code }, nulls)
            }
            Column::Mixed { values } => {
                let mut by_value: FxHashMap<Value, u64> = FxHashMap::default();
                let mut nulls = 0;
                for v in values {
                    if v.is_null() {
                        nulls += 1;
                    } else {
                        *by_value.entry(v.clone()).or_insert(0) += 1;
                    }
                }
                (Counts::Mixed(by_value), nulls)
            }
        };
        // (values present, their largest frequency).
        fn summary(counts: impl Iterator<Item = u64>) -> (usize, u64) {
            let present = counts.filter(|&c| c > 0);
            present.fold((0, 0), |(n, max), c| (n + 1, max.max(c)))
        }
        let (present, max_present) = match &counts {
            Counts::Direct { table, .. } => summary(table.iter().map(|&c| c as u64)),
            Counts::Str { by_code, .. } => summary(by_code.iter().copied()),
            Counts::Int(m) => summary(m.values().copied()),
            Counts::Float(m) => summary(m.values().copied()),
            Counts::Mixed(m) => summary(m.values().copied()),
        };
        Self {
            counts,
            nulls,
            distinct: present + usize::from(nulls > 0),
            total: relation.len() as u64,
            max_degree: max_present.max(nulls),
        }
    }

    /// Frequency of `v` — the degree `d_A(v, R)`. Typing is strict,
    /// exactly [`Value`]'s equality: `Int(3)` has degree 0 in a float
    /// column.
    pub fn degree(&self, v: &Value) -> u64 {
        match (&self.counts, v) {
            (_, Value::Null) => self.nulls,
            (Counts::Direct { min, table }, Value::Int(i)) => i
                .checked_sub(*min)
                .and_then(|slot| usize::try_from(slot).ok())
                .and_then(|slot| table.get(slot))
                .map_or(0, |&c| c as u64),
            (Counts::Int(m), Value::Int(i)) => m.get(i).copied().unwrap_or(0),
            (Counts::Float(m), Value::Float(f)) => m.get(&f.to_bits()).copied().unwrap_or(0),
            (Counts::Str { pool, by_code }, Value::Str(s)) => {
                pool.code_of(s).map_or(0, |code| by_code[code as usize])
            }
            (Counts::Mixed(m), v) => m.get(v).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Maximum degree `M_A(R)`.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Average degree over distinct values.
    pub fn avg_degree(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.total as f64 / self.distinct as f64
        }
    }

    /// Number of distinct values (NULL counts as one).
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Total row count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates `(value, frequency)` pairs of the present values
    /// (arbitrary order; NULL, when present, comes last).
    pub fn entries(&self) -> impl Iterator<Item = (Value, u64)> + '_ {
        let present: Box<dyn Iterator<Item = (Value, u64)> + '_> = match &self.counts {
            // `min + slot` is a value the column holds: it cannot overflow.
            Counts::Direct { min, table } => Box::new(
                table
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(slot, &c)| (Value::Int(*min + slot as i64), c as u64)),
            ),
            Counts::Int(m) => Box::new(m.iter().map(|(&v, &c)| (Value::Int(v), c))),
            Counts::Float(m) => Box::new(
                m.iter()
                    .map(|(&b, &c)| (Value::Float(f64::from_bits(b)), c)),
            ),
            Counts::Str { pool, by_code } => Box::new(
                pool.strings()
                    .zip(by_code)
                    .filter(|&(_, &c)| c > 0)
                    .map(|(s, &c)| (Value::Str(s.clone()), c)),
            ),
            Counts::Mixed(m) => Box::new(m.iter().map(|(v, &c)| (v.clone(), c))),
        };
        present.chain((self.nulls > 0).then_some((Value::Null, self.nulls)))
    }

    /// Summary statistics.
    pub fn stats(&self) -> DegreeStats {
        DegreeStats {
            max_degree: self.max_degree as usize,
            avg_degree: self.avg_degree(),
            distinct: self.distinct(),
            total: self.total as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn rel_with_degrees() -> Relation {
        // value 1 appears 4x, 2 appears 2x, 3..8 appear once.
        let schema = Schema::new(["k"]).unwrap();
        let mut rows = vec![];
        for _ in 0..4 {
            rows.push(tuple![1i64]);
        }
        for _ in 0..2 {
            rows.push(tuple![2i64]);
        }
        for v in 3..=8i64 {
            rows.push(tuple![v]);
        }
        Relation::new("r", schema, rows).unwrap()
    }

    #[test]
    fn frequency_histogram_counts() {
        let h = FrequencyHistogram::build(&rel_with_degrees(), "k");
        assert_eq!(h.degree(&Value::int(1)), 4);
        assert_eq!(h.degree(&Value::int(2)), 2);
        assert_eq!(h.degree(&Value::int(5)), 1);
        assert_eq!(h.degree(&Value::int(99)), 0);
        assert_eq!(h.max_degree(), 4);
        assert_eq!(h.distinct(), 8);
        assert_eq!(h.total(), 12);
        assert!((h.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn frequency_histogram_stats_snapshot() {
        let h = FrequencyHistogram::build(&rel_with_degrees(), "k");
        let s = h.stats();
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.distinct, 8);
        assert_eq!(s.total, 12);
    }

    #[test]
    fn empty_relation_histograms() {
        let r = Relation::new("e", Schema::new(["k"]).unwrap(), vec![]).unwrap();
        let h = FrequencyHistogram::build(&r, "k");
        assert_eq!(h.max_degree(), 0);
        assert_eq!(h.avg_degree(), 0.0);
        assert_eq!(h.distinct(), 0);
        assert_eq!(h.degree(&Value::int(1)), 0);
        assert_eq!(h.entries().count(), 0);
    }

    fn column_of(values: Vec<Value>) -> Relation {
        let rows = values.into_iter().map(|v| Tuple::new(vec![v])).collect();
        Relation::new("c", Schema::new(["k"]).unwrap(), rows).unwrap()
    }

    fn ints(values: impl IntoIterator<Item = i64>) -> Relation {
        column_of(values.into_iter().map(Value::int).collect())
    }

    fn is_direct(h: &FrequencyHistogram) -> bool {
        matches!(h.counts, Counts::Direct { .. })
    }

    /// `degree`, `distinct`, `max_degree`, `avg_degree` and `entries`
    /// against a naive scan of the relation's tuples.
    fn assert_matches_scan(r: &Relation, h: &FrequencyHistogram) {
        let mut naive: std::collections::HashMap<Value, u64> = Default::default();
        for t in r.tuples() {
            *naive.entry(t.get(0).clone()).or_insert(0) += 1;
        }
        assert_eq!(h.distinct(), naive.len());
        assert_eq!(h.max_degree(), naive.values().copied().max().unwrap_or(0));
        assert_eq!(h.total(), r.len() as u64);
        for (v, c) in &naive {
            assert_eq!(h.degree(v), *c, "value {v}");
        }
        let listed: std::collections::HashMap<Value, u64> = h.entries().collect();
        assert_eq!(listed, naive);
        if !naive.is_empty() {
            assert_eq!(h.avg_degree(), r.len() as f64 / naive.len() as f64);
        }
    }

    #[test]
    fn dense_negative_keys_are_direct_addressed() {
        let r = ints(
            (-20..20i64)
                .chain([-20, -20, 19, 0])
                .filter(|v| v.rem_euclid(7) != 3),
        );
        let h = FrequencyHistogram::build(&r, "k");
        assert!(is_direct(&h));
        assert_matches_scan(&r, &h);
        // Absent inside the table's range, just outside it on both
        // sides, and where `v − min` overflows `i64`.
        for absent in [3, -4, -21, 20, i64::MIN, i64::MAX] {
            assert_eq!(h.degree(&Value::int(absent)), 0, "value {absent}");
        }
        assert_eq!(h.degree(&Value::Null), 0);
        assert_eq!(h.degree(&Value::float(0.0)), 0);
        assert_eq!(h.degree(&Value::str("0")), 0);
    }

    #[test]
    fn extreme_and_outlier_ranges_fall_back_to_the_map() {
        // The full `i64` span: the range does not fit `i64`, let alone
        // a table.
        let r = ints([i64::MIN, i64::MAX, 0, i64::MAX]);
        let h = FrequencyHistogram::build(&r, "k");
        assert!(!is_direct(&h));
        assert_matches_scan(&r, &h);
        assert_eq!(h.degree(&Value::int(1)), 0);

        // Dense keys beside one huge outlier: a table would cost
        // gigabytes for 101 rows.
        let r = ints((0..100).chain([1 << 40]));
        let h = FrequencyHistogram::build(&r, "k");
        assert!(!is_direct(&h));
        assert_matches_scan(&r, &h);

        // The boundary itself: range = 8 · rows + 4096 is direct, one
        // more slot is not.
        let at = |range: i64| ints([0, range - 1, 5, 5]);
        assert!(is_direct(&FrequencyHistogram::build(&at(4128), "k")));
        assert!(!is_direct(&FrequencyHistogram::build(&at(4129), "k")));
    }

    #[test]
    fn nulls_count_as_one_value_on_every_path() {
        // All NULL: an `Int64` column with no valid cell, no range.
        let r = column_of(vec![Value::Null; 3]);
        let h = FrequencyHistogram::build(&r, "k");
        assert!(!is_direct(&h));
        assert_matches_scan(&r, &h);
        assert_eq!((h.distinct(), h.max_degree(), h.avg_degree()), (1, 3, 3.0));
        assert_eq!(h.degree(&Value::int(0)), 0, "NULL slots hold 0, not a 0");

        // NULLs beside dense keys stay direct-addressed; the NULL count
        // can be the maximum degree.
        let r = column_of(vec![Value::int(7), Value::Null, Value::int(8), Value::Null]);
        let h = FrequencyHistogram::build(&r, "k");
        assert!(is_direct(&h));
        assert_matches_scan(&r, &h);
        assert_eq!(h.degree(&Value::Null), 2);

        // One repeated value: a one-slot table.
        let r = ints([42; 9]);
        let h = FrequencyHistogram::build(&r, "k");
        assert!(is_direct(&h));
        assert_matches_scan(&r, &h);
        assert_eq!(h.degree(&Value::int(41)), 0);
        assert_eq!(h.degree(&Value::int(43)), 0);
    }

    #[test]
    fn degree_is_strictly_typed_on_every_layout() {
        let floats = column_of(vec![Value::float(3.0), Value::float(-0.0), Value::Null]);
        let h = FrequencyHistogram::build(&floats, "k");
        assert_matches_scan(&floats, &h);
        assert_eq!(h.degree(&Value::int(3)), 0, "Int(3) is not Float(3.0)");
        assert_eq!(h.degree(&Value::float(0.0)), 0, "0.0 is not -0.0");

        // A string probe from another relation's pool compares by
        // string, not by code.
        let strs = column_of(vec![Value::str("b"), Value::str("a"), Value::str("b")]);
        let other = column_of(vec![Value::str("a"), Value::str("zz"), Value::str("b")]);
        let h = FrequencyHistogram::build(&strs, "k");
        assert_matches_scan(&strs, &h);
        for (v, _) in FrequencyHistogram::build(&other, "k").entries() {
            let want = u64::from(v == Value::str("a")) + 2 * u64::from(v == Value::str("b"));
            assert_eq!(h.degree(&v), want, "value {v}");
        }
        assert_eq!(h.degree(&Value::int(0)), 0);

        let mixed = column_of(vec![
            Value::int(1),
            Value::str("1"),
            Value::Null,
            Value::int(1),
        ]);
        let h = FrequencyHistogram::build(&mixed, "k");
        assert!(matches!(h.counts, Counts::Mixed(_)));
        assert_matches_scan(&mixed, &h);
        assert_eq!(h.degree(&Value::float(1.0)), 0);
    }

    #[test]
    fn entries_sum_to_total() {
        let h = FrequencyHistogram::build(&rel_with_degrees(), "k");
        let sum: u64 = h.entries().map(|(_, c)| c).sum();
        assert_eq!(sum, h.total());
    }
}
