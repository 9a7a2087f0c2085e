//! The random-walk overlap estimator (§6).
//!
//! During the warm-up phase each join runs wander-join random walks
//! until its Horvitz–Thompson size estimate converges (90% confidence /
//! 1,000 samples in the paper) or a walk budget is exhausted. Each
//! successful walk's tuple is checked against every *other* join's
//! membership oracle — "(N−1)×(M−1) queries with key" — and recorded
//! with its walk probability, yielding:
//!
//! * join sizes `|J_j|` (HT estimates),
//! * overlaps `|O_Δ| = |J_j| · |∩ S'_i| / |S'_j|` (Eq. 2), where `S'_j`
//!   re-weights each sampled tuple by `1/p(t)`,
//! * the Eq. 3 confidence interval for each overlap, and
//! * the per-join `(tuple, p)` pools that Algorithm 2 reuses.

use crate::error::CoreError;
use crate::overlap::OverlapMap;
use crate::workload::UnionWorkload;
use suj_join::{RowDraw, WanderJoin};
use suj_stats::{z_value, ConfidenceInterval, HorvitzThompson, SujRng};
use suj_storage::{FxHashMap, Tuple};

/// Warm-up configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalkEstimatorConfig {
    /// Confidence level for termination (paper: 0.9).
    pub confidence: f64,
    /// Relative CI half-width target.
    pub rel_threshold: f64,
    /// Walk budget per join (paper: terminate at 1,000 samples).
    pub max_walks_per_join: u64,
    /// Minimum walks before testing convergence.
    pub min_walks_per_join: u64,
}

impl Default for WalkEstimatorConfig {
    fn default() -> Self {
        Self {
            confidence: 0.9,
            rel_threshold: 0.05,
            max_walks_per_join: 1000,
            min_walks_per_join: 64,
        }
    }
}

/// Output of the random-walk warm-up.
#[derive(Debug)]
pub struct WalkEstimate {
    n: usize,
    /// HT size estimate per join.
    pub join_sizes: Vec<f64>,
    /// Walks spent per join.
    pub walks_spent: Vec<u64>,
    /// Successful-walk pools per join: canonical tuple + walk
    /// probability (consumed by Algorithm 2's sample reuse).
    pub pools: Vec<Vec<(Tuple, f64)>>,
    /// Per join: HT estimator state.
    pub hts: Vec<HorvitzThompson>,
    /// Per join: Σ 1/p of successful walks grouped by full membership
    /// bitmask.
    mask_weights: Vec<FxHashMap<u32, f64>>,
}

/// One wander-join walker per join of `workload`, in workload order —
/// what [`walk_warmup`] walks. Building one indexes every non-root
/// relation of its join; the walks themselves build nothing.
pub fn walkers(workload: &UnionWorkload) -> Result<Vec<WanderJoin>, CoreError> {
    workload
        .joins()
        .iter()
        .map(|j| WanderJoin::new(j.clone()))
        .collect::<Result<_, _>>()
        .map_err(CoreError::Join)
}

/// Runs the warm-up walks for every join over its walker from
/// [`walkers`].
///
/// # Panics
/// Panics unless `walkers` holds exactly one walker per join.
pub fn walk_warmup(
    workload: &UnionWorkload,
    walkers: &[WanderJoin],
    cfg: &WalkEstimatorConfig,
    rng: &mut SujRng,
) -> Result<WalkEstimate, CoreError> {
    assert_eq!(walkers.len(), workload.n_joins(), "one walker per join");
    let mut est = WalkEstimate::empty(workload.n_joins());
    let mut draw = RowDraw::new();
    for (j, walker) in walkers.iter().enumerate() {
        let mut walks = 0u64;
        while walks < cfg.max_walks_per_join {
            match walker.walk_rows(rng, &mut draw) {
                Some(probability) => {
                    let canonical = workload.gather(j, draw.rows());
                    est.record_success(workload, j, &canonical, probability, true);
                }
                None => est.record_failure(j),
            }
            walks += 1;
            if walks >= cfg.min_walks_per_join
                && walks.is_multiple_of(32)
                && est.hts[j].converged(cfg.confidence, cfg.rel_threshold)
            {
                break;
            }
        }
        est.join_sizes[j] = est.hts[j].estimate();
    }
    Ok(est)
}

impl WalkEstimate {
    /// Creates empty accumulators for `n` joins (the fully-online
    /// Algorithm 2 configuration with no warm-up walks).
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            join_sizes: vec![0.0; n],
            walks_spent: vec![0; n],
            pools: vec![Vec::new(); n],
            hts: vec![HorvitzThompson::new(); n],
            mask_weights: vec![FxHashMap::default(); n],
        }
    }

    /// Number of joins.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records a successful walk of join `j` that produced `canonical`
    /// (a canonical-order tuple): updates the HT estimator and
    /// membership-mask weights, optionally adding the tuple to the
    /// reuse pool.
    pub fn record_success(
        &mut self,
        workload: &UnionWorkload,
        j: usize,
        canonical: &Tuple,
        probability: f64,
        pool: bool,
    ) {
        self.hts[j].push_success(probability);
        self.walks_spent[j] += 1;
        let mut mask = 1u32 << j;
        for (i, oracle) in workload.oracles().iter().enumerate() {
            if i != j && oracle.contains(canonical) {
                mask |= 1 << i;
            }
        }
        *self.mask_weights[j].entry(mask).or_insert(0.0) += 1.0 / probability;
        if pool {
            self.pools[j].push((canonical.clone(), probability));
        }
    }

    /// Records a failed walk of join `j` (contributes `p(t) = 0`).
    pub fn record_failure(&mut self, j: usize) {
        self.hts[j].push_failure();
        self.walks_spent[j] += 1;
    }

    /// Total walks recorded across joins (the `Σ_j |P[j]|` that gates
    /// Algorithm 2's parameter updates).
    pub fn total_walks(&self) -> u64 {
        self.hts.iter().map(|h| h.walks()).sum()
    }

    /// Refreshes `join_sizes` from the HT estimators, keeping
    /// `fallback[j]` for joins with no successful walks yet (the
    /// histogram initialization of Algorithm 2 line 1).
    pub fn refresh_sizes(&mut self, fallback: &[f64]) {
        for (j, ht) in self.hts.iter().enumerate() {
            self.join_sizes[j] = if ht.successes() > 0 {
                ht.estimate()
            } else {
                fallback[j]
            };
        }
    }

    /// Whether join `j` has any successful walk statistics.
    fn has_data(&self, j: usize) -> bool {
        !self.mask_weights[j].is_empty()
    }

    /// Overlap map that falls back to `fallback`'s entries wherever the
    /// anchor join has no walk data yet.
    pub fn overlap_map_with_fallback(
        &self,
        fallback: &OverlapMap,
    ) -> Result<OverlapMap, CoreError> {
        OverlapMap::from_fn(self.n, |indices| {
            if indices.len() == 1 {
                return self.join_sizes[indices[0]].max(0.0);
            }
            let anchor = self.anchor_of(indices);
            if self.has_data(anchor) {
                self.estimate_overlap(indices).max(0.0)
            } else {
                fallback.overlap(indices)
            }
        })
    }

    /// The weighted overlap fraction `|∩_{i∈Δ} S'_i| / |S'_anchor|`
    /// observed from `anchor`'s pool.
    pub fn overlap_fraction(&self, anchor: usize, delta_mask: u32) -> f64 {
        let weights = &self.mask_weights[anchor];
        let total: f64 = weights.values().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let hit: f64 = weights
            .iter()
            .filter(|(m, _)| (*m & delta_mask) == delta_mask)
            .map(|(_, &w)| w)
            .sum();
        hit / total
    }

    /// Picks the anchor join for a subset: the member with the smallest
    /// estimated size (its pool is cheapest to saturate with overlap
    /// hits; any fixed member is valid per §6.2).
    pub fn anchor_of(&self, joins: &[usize]) -> usize {
        *joins
            .iter()
            .min_by(|&&a, &&b| self.join_sizes[a].total_cmp(&self.join_sizes[b]))
            .expect("nonempty subset")
    }

    /// Eq. 2: `|O_Δ| = |J_anchor| · fraction`.
    pub fn estimate_overlap(&self, joins: &[usize]) -> f64 {
        assert!(!joins.is_empty());
        if joins.len() == 1 {
            return self.join_sizes[joins[0]];
        }
        let anchor = self.anchor_of(joins);
        let mut mask = 0u32;
        for &j in joins {
            mask |= 1 << j;
        }
        self.join_sizes[anchor] * self.overlap_fraction(anchor, mask)
    }

    /// Eq. 3: confidence interval for `|O_Δ|`, summing each member
    /// join's variance terms.
    pub fn overlap_ci(&self, joins: &[usize], confidence: f64) -> ConfidenceInterval {
        let estimate = self.estimate_overlap(joins);
        let mut mask = 0u32;
        for &j in joins {
            mask |= 1 << j;
        }
        let mut acc = 0.0;
        let mut total_walks = 0u64;
        for &j in joins {
            let p_hat = self.overlap_fraction(j, mask);
            let t_n = self.hts[j].estimate();
            let t_n2 = self.hts[j].variance();
            acc += t_n2 * p_hat * (1.0 - p_hat) + t_n2 * p_hat + t_n * p_hat * (1.0 - p_hat);
            total_walks += self.hts[j].walks();
        }
        let half_width = if total_walks == 0 {
            f64::INFINITY
        } else {
            z_value(confidence) * (acc / total_walks as f64).sqrt()
        };
        ConfidenceInterval {
            estimate,
            half_width,
            confidence,
        }
    }

    /// Full overlap map from the walk statistics.
    pub fn overlap_map(&self) -> Result<OverlapMap, CoreError> {
        OverlapMap::from_fn(self.n, |indices| self.estimate_overlap(indices).max(0.0))
    }

    /// Worst relative CI half-width over all join-size estimates — the
    /// "confidence level" Algorithm 2 tracks.
    pub fn worst_relative_half_width(&self, confidence: f64) -> f64 {
        self.hts
            .iter()
            .map(|ht| ht.relative_half_width(confidence))
            .fold(0.0, f64::max)
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

    /// Two chains sharing ~half their base data.
    fn workload() -> UnionWorkload {
        let shared_r: Vec<Vec<i64>> = (0..12).map(|i| vec![i, i % 4]).collect();
        let shared_s: Vec<Vec<i64>> = (0..4).map(|b| vec![b, 100 + b]).collect();
        let mut r1 = shared_r.clone();
        r1.extend((100..108).map(|i| vec![i, i % 4]));
        let mut r2 = shared_r;
        r2.extend((200..204).map(|i| vec![i, i % 4]));

        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel("r1", &["a", "b"], r1),
                rel("s1", &["b", "c"], shared_s.clone()),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![rel("r2", &["a", "b"], r2), rel("s2", &["b", "c"], shared_s)],
        )
        .unwrap();
        UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap()
    }

    fn cfg_large() -> WalkEstimatorConfig {
        WalkEstimatorConfig {
            confidence: 0.9,
            rel_threshold: 0.01,
            max_walks_per_join: 30_000,
            min_walks_per_join: 1_000,
        }
    }

    #[test]
    fn join_sizes_converge() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut rng = SujRng::seed_from_u64(101);
        let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg_large(), &mut rng).unwrap();
        for j in 0..2 {
            let truth = exact.join_size(j) as f64;
            let got = est.join_sizes[j];
            let rel_err = (got - truth).abs() / truth;
            assert!(rel_err < 0.1, "join {j}: got {got} truth {truth}");
        }
    }

    #[test]
    fn overlap_estimate_close_to_truth() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut rng = SujRng::seed_from_u64(102);
        let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg_large(), &mut rng).unwrap();
        let truth = exact.overlap.overlap(&[0, 1]);
        let got = est.estimate_overlap(&[0, 1]);
        let rel_err = (got - truth).abs() / truth;
        assert!(rel_err < 0.15, "got {got} truth {truth}");
    }

    #[test]
    fn ci_brackets_truth_most_of_the_time() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let truth = exact.overlap.overlap(&[0, 1]);
        let mut hits = 0;
        for seed in 0..10 {
            let mut rng = SujRng::seed_from_u64(200 + seed);
            let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg_large(), &mut rng).unwrap();
            let ci = est.overlap_ci(&[0, 1], 0.95);
            if ci.contains(truth) {
                hits += 1;
            }
        }
        // Eq. 3 assumes independence between the size estimate and the
        // overlap fraction, so its coverage is approximate; require a
        // majority rather than the nominal 95%.
        assert!(hits >= 5, "95% CI hit only {hits}/10 times");
    }

    #[test]
    fn pools_contain_member_tuples() {
        let w = workload();
        let mut rng = SujRng::seed_from_u64(103);
        let est = walk_warmup(
            &w,
            &walkers(&w).unwrap(),
            &WalkEstimatorConfig::default(),
            &mut rng,
        )
        .unwrap();
        for j in 0..2 {
            assert!(!est.pools[j].is_empty(), "pool {j} empty");
            for (t, p) in &est.pools[j] {
                assert!(w.contains(j, t), "pooled tuple not a member");
                assert!(*p > 0.0 && *p <= 1.0);
            }
        }
    }

    #[test]
    fn default_config_respects_paper_budget() {
        let cfg = WalkEstimatorConfig::default();
        assert_eq!(cfg.max_walks_per_join, 1000);
        assert!((cfg.confidence - 0.9).abs() < 1e-12);
        let w = workload();
        let mut rng = SujRng::seed_from_u64(104);
        let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg, &mut rng).unwrap();
        for j in 0..2 {
            assert!(est.walks_spent[j] <= 1000);
        }
    }

    #[test]
    fn union_size_via_walk_overlaps() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut rng = SujRng::seed_from_u64(105);
        let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg_large(), &mut rng).unwrap();
        let map = est.overlap_map().unwrap();
        let got = map.union_size();
        let truth = exact.union_size() as f64;
        let rel_err = (got - truth).abs() / truth;
        assert!(rel_err < 0.15, "union size {got} truth {truth}");
    }

    #[test]
    fn anchor_prefers_smaller_join() {
        let w = workload();
        let mut rng = SujRng::seed_from_u64(106);
        let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg_large(), &mut rng).unwrap();
        // j2 (16 results) is smaller than j1 (20 results).
        assert_eq!(est.anchor_of(&[0, 1]), 1);
    }

    #[test]
    fn worst_relative_half_width_reports_convergence() {
        let w = workload();
        let mut rng = SujRng::seed_from_u64(107);
        let est = walk_warmup(&w, &walkers(&w).unwrap(), &cfg_large(), &mut rng).unwrap();
        assert!(est.worst_relative_half_width(0.9) < 0.05);
    }
}
