//! Column statistics.
//!
//! §5 instantiates the framework with "histograms of columns and even
//! more minimalistic statistics such as maximum degrees of tuples in
//! relations". Three tiers of statistic are modeled, from richest to
//! cheapest:
//!
//! 1. [`FrequencyHistogram`] — exact value→frequency map (what a DBMS
//!    keeps for low-cardinality columns). Supports the `K(1)` sum over
//!    the common value domain and per-value degrees `d_A(v, R)`.
//! 2. [`EquiDepthHistogram`] — bounded-size bucket histogram giving an
//!    upper bound on any value's degree via its bucket's max degree.
//! 3. [`DegreeStats`] — just `(max degree, avg degree, distinct, total)`,
//!    the minimum §5.1 needs for the `K(i)` multipliers.

use crate::column::Column;
use crate::hash::FxHashMap;
use crate::relation::Relation;
use crate::value::Value;

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

/// Exact value-frequency histogram of one attribute.
#[derive(Debug, Clone)]
pub struct FrequencyHistogram {
    counts: FxHashMap<Value, u64>,
    total: u64,
    max_degree: u64,
}

impl FrequencyHistogram {
    /// Builds the histogram for `attr` of `relation`, scanning the
    /// typed column directly: integer and float columns count through
    /// scalar-keyed maps, dictionary-encoded string columns count per
    /// code (one array slot per distinct string — no hashing at all).
    ///
    /// # Panics
    /// Panics if the attribute is absent (validated upstream by join
    /// specs).
    pub fn build(relation: &Relation, attr: &str) -> Self {
        let pos = relation
            .schema()
            .position(attr)
            .unwrap_or_else(|| panic!("attribute `{attr}` not in {}", relation.schema()));
        let mut counts: FxHashMap<Value, u64> = FxHashMap::default();
        let mut nulls = 0u64;
        match relation.column(pos) {
            Column::Int64 { values, validity } => {
                let mut by_int: FxHashMap<i64, u64> = FxHashMap::default();
                for (i, &v) in values.iter().enumerate() {
                    if validity.is_valid(i) {
                        *by_int.entry(v).or_insert(0) += 1;
                    } else {
                        nulls += 1;
                    }
                }
                counts.extend(by_int.into_iter().map(|(v, c)| (Value::Int(v), c)));
            }
            Column::Float64 { values, validity } => {
                // Keyed by bit pattern — exactly the total-order
                // equality `Value::Float` uses.
                let mut by_bits: FxHashMap<u64, u64> = FxHashMap::default();
                for (i, &v) in values.iter().enumerate() {
                    if validity.is_valid(i) {
                        *by_bits.entry(v.to_bits()).or_insert(0) += 1;
                    } else {
                        nulls += 1;
                    }
                }
                counts.extend(
                    by_bits
                        .into_iter()
                        .map(|(b, c)| (Value::Float(f64::from_bits(b)), c)),
                );
            }
            Column::Str {
                codes,
                pool,
                validity,
            } => {
                let mut by_code = vec![0u64; pool.len()];
                for (i, &code) in codes.iter().enumerate() {
                    if validity.is_valid(i) {
                        by_code[code as usize] += 1;
                    } else {
                        nulls += 1;
                    }
                }
                counts.extend(
                    by_code
                        .into_iter()
                        .enumerate()
                        .filter(|&(_, c)| c > 0)
                        .map(|(code, c)| (Value::Str(pool.get(code as u32).clone()), c)),
                );
            }
            Column::Mixed { values } => {
                for v in values {
                    *counts.entry(v.clone()).or_insert(0) += 1;
                }
            }
        }
        if nulls > 0 {
            *counts.entry(Value::Null).or_insert(0) += nulls;
        }
        let max_degree = counts.values().copied().max().unwrap_or(0);
        Self {
            counts,
            total: relation.len() as u64,
            max_degree,
        }
    }

    /// Frequency of `v` — the degree `d_A(v, R)`.
    pub fn degree(&self, v: &Value) -> u64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Maximum degree `M_A(R)`.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Average degree over distinct values.
    pub fn avg_degree(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total as f64 / self.counts.len() as f64
        }
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total row count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates `(value, frequency)` pairs (arbitrary order).
    pub fn entries(&self) -> impl Iterator<Item = (&Value, u64)> {
        self.counts.iter().map(|(v, &c)| (v, c))
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

/// Equi-depth (equal row count) bucket histogram: stores per-bucket value
/// ranges, row counts, and max in-bucket degree. Gives upper bounds on
/// degrees when exact frequencies are unavailable (the paper's
/// decentralized / data-market setting).
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    /// Inclusive lower bound of each bucket.
    lows: Vec<Value>,
    /// Inclusive upper bound of each bucket.
    highs: Vec<Value>,
    /// Rows per bucket.
    counts: Vec<u64>,
    /// Max degree of any single value within the bucket.
    max_degrees: Vec<u64>,
    total: u64,
}

impl EquiDepthHistogram {
    /// Builds an equi-depth histogram with at most `buckets` buckets.
    ///
    /// # Panics
    /// Panics if the attribute is absent or `buckets == 0`.
    pub fn build(relation: &Relation, attr: &str, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let freq = FrequencyHistogram::build(relation, attr);
        let mut values: Vec<(&Value, u64)> = freq.entries().collect();
        values.sort_by(|a, b| a.0.cmp(b.0));

        let total = freq.total();
        let target = (total as f64 / buckets as f64).ceil().max(1.0) as u64;

        let mut lows = Vec::new();
        let mut highs = Vec::new();
        let mut counts = Vec::new();
        let mut max_degrees = Vec::new();

        let mut bucket_count = 0u64;
        let mut bucket_max = 0u64;
        let mut bucket_low: Option<Value> = None;
        let mut bucket_high: Option<Value> = None;

        for (v, c) in values {
            if bucket_low.is_none() {
                bucket_low = Some(v.clone());
            }
            bucket_high = Some(v.clone());
            bucket_count += c;
            bucket_max = bucket_max.max(c);
            if bucket_count >= target {
                lows.push(bucket_low.take().unwrap());
                highs.push(bucket_high.take().unwrap());
                counts.push(bucket_count);
                max_degrees.push(bucket_max);
                bucket_count = 0;
                bucket_max = 0;
            }
        }
        if let (Some(lo), Some(hi)) = (bucket_low, bucket_high) {
            lows.push(lo);
            highs.push(hi);
            counts.push(bucket_count);
            max_degrees.push(bucket_max);
        }

        Self {
            lows,
            highs,
            counts,
            max_degrees,
            total,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total row count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Index of the bucket whose range contains `v`, if any.
    fn bucket_of(&self, v: &Value) -> Option<usize> {
        // Binary search on bucket lower bounds.
        let idx = self.lows.partition_point(|lo| lo <= v);
        if idx == 0 {
            return None;
        }
        let i = idx - 1;
        if v <= &self.highs[i] {
            Some(i)
        } else {
            None
        }
    }

    /// Upper bound on the degree of `v`: the max degree of its bucket,
    /// or 0 when `v` lies outside every bucket range.
    pub fn degree_upper_bound(&self, v: &Value) -> u64 {
        self.bucket_of(v).map(|i| self.max_degrees[i]).unwrap_or(0)
    }

    /// Global max degree across buckets — an upper bound on `M_A(R)`
    /// that is in fact exact (the max over buckets of exact in-bucket
    /// maxima).
    pub fn max_degree(&self) -> u64 {
        self.max_degrees.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

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
        let ed = EquiDepthHistogram::build(&r, "k", 4);
        assert_eq!(ed.buckets(), 0);
        assert_eq!(ed.max_degree(), 0);
        assert_eq!(ed.degree_upper_bound(&Value::int(1)), 0);
    }

    #[test]
    fn equi_depth_buckets_cover_all_values() {
        let r = rel_with_degrees();
        let ed = EquiDepthHistogram::build(&r, "k", 3);
        assert!(ed.buckets() <= 4);
        assert_eq!(ed.total(), 12);
        // Every present value must get a nonzero upper bound ≥ its true
        // degree.
        let h = FrequencyHistogram::build(&r, "k");
        for v in 1..=8i64 {
            let v = Value::int(v);
            assert!(ed.degree_upper_bound(&v) >= h.degree(&v), "value {v}");
        }
    }

    #[test]
    fn equi_depth_out_of_range_values() {
        let ed = EquiDepthHistogram::build(&rel_with_degrees(), "k", 2);
        assert_eq!(ed.degree_upper_bound(&Value::int(-5)), 0);
        assert_eq!(ed.degree_upper_bound(&Value::int(1000)), 0);
    }

    #[test]
    fn equi_depth_single_bucket_degenerates_to_max() {
        let r = rel_with_degrees();
        let ed = EquiDepthHistogram::build(&r, "k", 1);
        assert_eq!(ed.buckets(), 1);
        assert_eq!(ed.degree_upper_bound(&Value::int(7)), 4);
        assert_eq!(ed.max_degree(), 4);
    }

    #[test]
    fn entries_sum_to_total() {
        let h = FrequencyHistogram::build(&rel_with_degrees(), "k");
        let sum: u64 = h.entries().map(|(_, c)| c).sum();
        assert_eq!(sum, h.total());
    }
}
