//! The histogram-based overlap estimator (§5, §8, Theorem 4).
//!
//! Estimates `|O_Δ|` for any subset of joins using only column
//! statistics — no data access beyond histograms and degrees, matching
//! the paper's decentralized / data-market setting. The pipeline:
//!
//! 1. Cyclic joins are decomposed into skeleton + residual (§8.2), the
//!    residual acting as a single relation.
//! 2. A standard template is selected over all joins (§8.1.1) and each
//!    join is split into an equi-length chain of two-attribute
//!    relations (§5.2).
//! 3. Theorem 4's recurrence runs over the aligned chains:
//!    `K(1) = Σ_{v∈C} min_j d_{A_1}(v,R_{j,1})·d_{A_1}(v,R_{j,2})`, then
//!    `K(i) = K(i−1) · min_j M_{j,i}` with `M_{j,i} = 1` across fake
//!    joins.
//! 4. The final bound is capped by the trivial `min_j |J_j|`.
//!
//! The `K(i)` multiplier uses the maximum degree by default; §5.1's
//! refinement ("replace … with the minimum of the average degree") is
//! selected with [`DegreeMode::Avg`] — cheaper bounds that are no longer
//! strict upper bounds but much tighter on skewed data.

use crate::error::CoreError;
use crate::overlap::OverlapMap;
use crate::workload::UnionWorkload;
use suj_join::bounds::{olken_bound_with, StatsCache};
use suj_join::residual::decompose_cyclic;
use suj_join::template::{build_template, split_join_with, DegreeBound, SplitJoin, Template};
use suj_join::JoinSpec;
use suj_storage::Value;

/// Which degree statistic drives the `K(i)` multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeMode {
    /// Maximum degree (strict upper bound, §5.1 base form).
    Max,
    /// Average degree (§5.1 refinement — tighter, no longer a strict
    /// bound).
    Avg,
}

/// Histogram-based overlap estimator over a union workload.
#[derive(Debug)]
pub struct HistogramEstimator {
    n: usize,
    template: Template,
    splits: Vec<SplitJoin>,
    mode: DegreeMode,
    /// Per-join size hints (EW exact sizes or EO bounds) used for
    /// singleton entries and the trivial cap.
    size_hints: Vec<f64>,
}

impl HistogramEstimator {
    /// Builds the estimator. `size_hints` supplies `|J_j|`
    /// estimates (the paper instantiates these with EW ground truth or
    /// EO bounds). `zero_weight` is the §8.1.2 alternating-score
    /// hyper-parameter (0.0 = plain scores).
    pub fn new(
        workload: &UnionWorkload,
        mode: DegreeMode,
        size_hints: Vec<f64>,
        zero_weight: f64,
    ) -> Result<Self, CoreError> {
        let mut stats = StatsCache::default();
        Self::with_stats(workload, mode, size_hints, zero_weight, &mut stats)
    }

    /// [`new`](Self::new) over a statistics cache the caller has
    /// already read from: every member's split shares its histograms.
    fn with_stats(
        workload: &UnionWorkload,
        mode: DegreeMode,
        size_hints: Vec<f64>,
        zero_weight: f64,
        stats: &mut StatsCache,
    ) -> Result<Self, CoreError> {
        let n = workload.n_joins();
        if size_hints.len() != n {
            return Err(CoreError::Invalid(format!(
                "expected {n} join size hints, got {}",
                size_hints.len()
            )));
        }
        // §8.2: treat each cyclic join as skeleton + residual before
        // splitting.
        let prepared_specs: Vec<JoinSpec> = workload
            .joins()
            .iter()
            .map(|j| decompose_cyclic(j).map(|d| d.spec))
            .collect::<Result<_, _>>()
            .map_err(CoreError::Join)?;

        let spec_refs: Vec<&JoinSpec> = prepared_specs.iter().collect();
        let template = build_template(&spec_refs, zero_weight).map_err(CoreError::Join)?;
        let splits: Vec<SplitJoin> = prepared_specs
            .iter()
            .map(|s| split_join_with(s, &template, stats))
            .collect::<Result<_, _>>()
            .map_err(CoreError::Join)?;

        Ok(Self {
            n,
            template,
            splits,
            mode,
            size_hints,
        })
    }

    /// Convenience: estimator with extended-Olken join size hints (the
    /// pure-histogram configuration of §9). The bounds' maximum degrees
    /// and the splits' histograms come from one statistics cache.
    pub fn with_olken(workload: &UnionWorkload, mode: DegreeMode) -> Result<Self, CoreError> {
        let mut stats = StatsCache::default();
        let hints = workload
            .joins()
            .iter()
            .map(|j| olken_bound_with(j, &mut stats))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CoreError::Join)?;
        Self::with_stats(workload, mode, hints, 0.0, &mut stats)
    }

    /// The selected template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The per-join split chains.
    pub fn splits(&self) -> &[SplitJoin] {
        &self.splits
    }

    /// The join size hints in use.
    pub fn size_hints(&self) -> &[f64] {
        &self.size_hints
    }

    fn mode_degree(&self, bound: &DegreeBound) -> f64 {
        match self.mode {
            DegreeMode::Max => bound.max_degree(),
            DegreeMode::Avg => bound.avg_degree(),
        }
    }

    /// Estimates `|O_Δ|` for a set of join indices (Theorem 4). A
    /// singleton returns its size hint.
    pub fn estimate_overlap(&self, joins: &[usize]) -> f64 {
        self.theorem4(joins, || self.k1(joins))
    }

    /// Theorem 4 for one subset, given its `K(1)`: the trivial cases,
    /// the `K(i)` recurrence and the cap by `min_j |J_j|`.
    fn theorem4(&self, joins: &[usize], k1: impl FnOnce() -> f64) -> f64 {
        assert!(!joins.is_empty(), "overlap of the empty set is undefined");
        let cap = joins
            .iter()
            .map(|&j| self.size_hints[j])
            .fold(f64::INFINITY, f64::min);
        let chain_len = self.splits[joins[0]].relations.len();
        // A singleton is its hint; a single-attribute output schema
        // has only the trivial bound.
        if joins.len() == 1 || chain_len == 0 {
            return cap;
        }
        let mut k = k1();

        // K(i) = K(i−1) · min_j M_{j,i}, with fake joins contributing 1.
        // K(1) consumed link 0 (relations[0] ⋈ relations[1]); link `s`
        // connects relations[s] and relations[s+1].
        for s in 1..chain_len.saturating_sub(1) {
            let mult = joins
                .iter()
                .map(|&j| {
                    let split = &self.splits[j];
                    if split.fake_links[s] {
                        1.0
                    } else {
                        self.mode_degree(&split.relations[s + 1].deg_x)
                    }
                })
                .fold(f64::INFINITY, f64::min);
            k *= mult;
            if k == 0.0 {
                break;
            }
        }

        k.min(cap).max(0.0)
    }

    /// The value domain `K(1)` ranges over, as join `j` holds it: the
    /// first join attribute `A_1 = SR_1.y = SR_2.x` (for length-1
    /// chains, the first attribute itself).
    fn k1_domain(&self, j: usize) -> &DegreeBound {
        match self.splits[j].relations.as_slice() {
            [only] => &only.deg_x,
            [first, ..] => &first.deg_y,
            [] => unreachable!("K(1) is only taken over nonempty chains"),
        }
    }

    /// Join `j`'s term of `K(1)` at value `v`: `d_{A_1}(v, R_{j,1}) ·
    /// d_{A_1}(v, R_{j,2})`, or `d_{X_1}(v, SR_1^j)` when the chain is
    /// a single relation. A degree times a product of maximum degrees:
    /// an integer, exactly, while it stays below 2⁵³.
    fn k1_term(&self, j: usize, v: &Value) -> f64 {
        match self.splits[j].relations.as_slice() {
            [only] => only.deg_x.degree(v),
            [first, second, ..] => first.deg_y.degree(v) * second.deg_x.degree(v),
            [] => unreachable!("K(1) is only taken over nonempty chains"),
        }
    }

    /// `K(1) = Σ_{v∈C} min_j term_j(v)` for one subset, over the member
    /// domain with the fewest values (a value outside any member's
    /// domain has a zero term there, so any member's domain will do).
    fn k1(&self, joins: &[usize]) -> f64 {
        let domain = *joins
            .iter()
            .min_by_key(|&&j| self.k1_domain(j).distinct())
            .expect("nonempty join set");
        let mut total = 0.0;
        for v in self.k1_domain(domain).values() {
            let m = joins
                .iter()
                .map(|&j| self.k1_term(j, &v))
                .fold(f64::INFINITY, f64::min);
            if m > 0.0 {
                total += m;
            }
        }
        total
    }

    /// `K(1)` of every subset of two or more joins, indexed by bitmask,
    /// in one pass per member domain. A value with a positive term in
    /// every member of a subset lies in the domain of the subset's
    /// lowest member, so walking join `l`'s domain serves exactly the
    /// subsets whose lowest member is `l`: each value is looked up once
    /// per later member and its minimum credited to every submask of
    /// the later members that hold it. The sums equal [`k1`](Self::k1)'s
    /// bit for bit whatever the order: every term is an integer-valued
    /// `f64`, and integer sums below 2⁵³ are exact.
    fn k1_all_subsets(&self) -> Vec<f64> {
        let n = self.n;
        let mut k1 = vec![0.0f64; 1 << n];
        // Indexed by submask of the later members (bit `i` ↔ join
        // `lowest + 1 + i`): the minimum term over `lowest` and them.
        let mut min_term = vec![0.0f64; 1 << (n - 1)];
        let mut terms = vec![0.0f64; n];
        for lowest in 0..n - 1 {
            for v in self.k1_domain(lowest).values() {
                min_term[0] = self.k1_term(lowest, &v);
                if min_term[0] <= 0.0 {
                    continue;
                }
                let mut held = 0usize;
                for (i, term) in terms[..n - lowest - 1].iter_mut().enumerate() {
                    *term = self.k1_term(lowest + 1 + i, &v);
                    if *term > 0.0 {
                        held |= 1 << i;
                    }
                }
                // Nonempty submasks of `held` in ascending order, so a
                // submask's minimum extends the one without its lowest
                // bit.
                let mut sub = held & held.wrapping_neg();
                while sub != 0 {
                    let low = sub & sub.wrapping_neg();
                    let m = min_term[sub ^ low].min(terms[low.trailing_zeros() as usize]);
                    min_term[sub] = m;
                    k1[(1 << lowest) | (sub << (lowest + 1))] += m;
                    sub = sub.wrapping_sub(held) & held;
                }
            }
        }
        k1
    }

    /// The full overlap map (singletons = hints, larger sets =
    /// Theorem 4 estimates) — [`estimate_overlap`](Self::estimate_overlap)
    /// of every subset, with `K(1)` taken for all of them at once.
    pub fn overlap_map(&self) -> Result<OverlapMap, CoreError> {
        // Taken on first use: `from_fn` has validated `n` by then.
        let mut k1: Option<Vec<f64>> = None;
        OverlapMap::from_fn(self.n, |joins| {
            self.theorem4(joins, || {
                let mask = joins.iter().fold(0usize, |mask, &j| mask | 1 << j);
                k1.get_or_insert_with(|| self.k1_all_subsets())[mask]
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use std::sync::Arc;
    use suj_storage::{Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// Two equi-length chains with controlled overlap: shared rows in
    /// both base relations.
    fn overlapping_chains() -> UnionWorkload {
        let shared_r: Vec<Vec<i64>> = (0..6).map(|i| vec![i, i % 3]).collect();
        let shared_s: Vec<Vec<i64>> = (0..3).map(|b| vec![b, 100 + b]).collect();

        let mut r1_rows = shared_r.clone();
        r1_rows.push(vec![100, 0]);
        let mut r2_rows = shared_r;
        r2_rows.push(vec![200, 1]);
        let mut s1_rows = shared_s.clone();
        s1_rows.push(vec![7, 700]);
        let s2_rows = shared_s;

        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel("r1", &["a", "b"], r1_rows),
                rel("s1", &["b", "c"], s1_rows),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel("r2", &["a", "b"], r2_rows),
                rel("s2", &["b", "c"], s2_rows),
            ],
        )
        .unwrap();
        UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap()
    }

    #[test]
    fn max_mode_bound_dominates_exact_overlap() {
        let w = overlapping_chains();
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes, 0.0).unwrap();
        let bound = est.estimate_overlap(&[0, 1]);
        let truth = exact.overlap.overlap(&[0, 1]);
        assert!(
            bound >= truth - 1e-9,
            "histogram bound {bound} must dominate exact overlap {truth}"
        );
    }

    #[test]
    fn avg_mode_is_tighter_than_max_mode() {
        let w = overlapping_chains();
        let sizes = w.exact_join_sizes().unwrap();
        let max_est = HistogramEstimator::new(&w, DegreeMode::Max, sizes.clone(), 0.0).unwrap();
        let avg_est = HistogramEstimator::new(&w, DegreeMode::Avg, sizes, 0.0).unwrap();
        assert!(avg_est.estimate_overlap(&[0, 1]) <= max_est.estimate_overlap(&[0, 1]) + 1e-9);
    }

    #[test]
    fn singleton_returns_hint() {
        let w = overlapping_chains();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, vec![42.0, 7.0], 0.0).unwrap();
        assert_eq!(est.estimate_overlap(&[0]), 42.0);
        assert_eq!(est.estimate_overlap(&[1]), 7.0);
    }

    #[test]
    fn cap_by_min_join_size() {
        let w = overlapping_chains();
        // Tiny hints force the cap.
        let est = HistogramEstimator::new(&w, DegreeMode::Max, vec![1.0, 1000.0], 0.0).unwrap();
        assert!(est.estimate_overlap(&[0, 1]) <= 1.0);
    }

    #[test]
    fn identical_joins_overlap_estimate_is_large() {
        // Two copies of the same join: the overlap is the whole join.
        let mk = || {
            suj_join::JoinSpec::chain(
                "jx",
                vec![
                    rel("r", &["a", "b"], (0..5).map(|i| vec![i, i % 2]).collect()),
                    rel("s", &["b", "c"], vec![vec![0, 10], vec![1, 11]]),
                ],
            )
            .unwrap()
        };
        let w = UnionWorkload::new(vec![Arc::new(mk()), Arc::new(mk())]).unwrap();
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes.clone(), 0.0).unwrap();
        let bound = est.estimate_overlap(&[0, 1]);
        let truth = exact.overlap.overlap(&[0, 1]);
        assert!(bound >= truth - 1e-9);
        assert!(bound <= sizes[0] + 1e-9, "cap at |J|");
    }

    #[test]
    fn overlap_map_feeds_union_size() {
        let w = overlapping_chains();
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes, 0.0).unwrap();
        let map = est.overlap_map().unwrap();
        // Estimated |U| via Eq. 1: k-overlap clamping keeps it ≥ the
        // exact union's lower pieces; sanity: strictly positive and not
        // absurdly far off.
        let est_u = map.union_size();
        let true_u = exact.union_size() as f64;
        assert!(est_u > 0.0);
        assert!(est_u >= true_u * 0.2, "est {est_u} truth {true_u}");
    }

    #[test]
    fn olken_hint_constructor() {
        let w = overlapping_chains();
        let est = HistogramEstimator::with_olken(&w, DegreeMode::Max).unwrap();
        let exact_sizes = w.exact_join_sizes().unwrap();
        for (hint, exact) in est.size_hints().iter().zip(&exact_sizes) {
            assert!(hint >= exact);
        }
    }

    #[test]
    fn cyclic_join_estimation_via_residual() {
        let tri = |suffix: &str, extra: i64| {
            suj_join::JoinSpec::natural(
                format!("tri{suffix}"),
                vec![
                    rel("x", &["a", "b"], vec![vec![1, 2], vec![extra, 2]]),
                    rel("y", &["b", "c"], vec![vec![2, 3]]),
                    rel("z", &["c", "a"], vec![vec![3, 1], vec![3, extra]]),
                ],
            )
            .unwrap()
        };
        let w = UnionWorkload::new(vec![Arc::new(tri("1", 5)), Arc::new(tri("2", 7))]).unwrap();
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes, 0.0).unwrap();
        let bound = est.estimate_overlap(&[0, 1]);
        let truth = exact.overlap.overlap(&[0, 1]);
        assert!(bound >= truth - 1e-9, "bound {bound} truth {truth}");
    }

    #[test]
    fn rejects_wrong_hint_count() {
        let w = overlapping_chains();
        assert!(HistogramEstimator::new(&w, DegreeMode::Max, vec![1.0], 0.0).is_err());
    }
}
