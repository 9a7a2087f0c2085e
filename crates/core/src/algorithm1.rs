//! Algorithm 1: non-Bernoulli union sampling with rejection and
//! revision (§3.1).
//!
//! Join selection draws `J_j` with probability `|J'_j| / |U|` over a
//! cover. A tuple sampled from `J_j` is kept only if `J_j` owns it:
//!
//! * [`CoverPolicy::Record`] — the paper's Algorithm 1: ownership is
//!   tracked in the `orig_join` record of *seen* tuples. Sampling a
//!   tuple from an earlier-cover join than its recorded owner triggers
//!   a **revision**: ownership moves to the earlier join and every copy
//!   of the tuple is purged from the result (lines 10–12). In the
//!   incremental API purges surface as [`Draw::Retract`] events.
//! * [`CoverPolicy::MembershipOracle`] — enforces the cover exactly via
//!   hash-index membership checks (`t` is rejected iff some
//!   earlier-cover join contains it). No revisions are ever needed; this
//!   is the ablation variant available in the centralized setting, and
//!   the one whose [`SampleStream`](crate::stream::SampleStream) output
//!   is exactly i.i.d.
//!
//! Expected cost is `N + N log N` total join-sampling calls (Theorem 2).
//!
//! The sampler implements [`UnionSampler`]; build it through
//! [`SamplerBuilder`](crate::session::SamplerBuilder) with
//! [`Strategy::Rejection`](crate::session::Strategy).

use crate::cover::{Cover, CoverStrategy};
use crate::draw_step::DrawStep;
use crate::error::CoreError;
use crate::overlap::OverlapMap;
use crate::record::OwnershipRecord;
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use suj_join::{JoinSampler, WeightKind};
use suj_stats::{Categorical, SujRng};

/// How cover ownership is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverPolicy {
    /// Paper Algorithm 1: record of seen tuples + revision.
    Record,
    /// Exact membership checks against earlier-cover joins (no
    /// revisions).
    MembershipOracle,
}

/// Configuration of the set-union sampler.
#[derive(Debug, Clone, Copy)]
pub struct UnionSamplerConfig {
    /// Weight instantiation for the per-join subroutine (§3.2).
    pub weights: WeightKind,
    /// Cover ownership policy.
    pub policy: CoverPolicy,
    /// Cover ordering strategy.
    pub strategy: CoverStrategy,
}

/// Cover-rejection retries within one join selection, in Algorithm 1
/// and Algorithm 2 alike. Theorem 1 requires the tuple accepted after
/// selecting `J_j` to be uniform over the cover region `J'_j`, so
/// cover-rejected tuples are redrawn from the *same* join; this caps
/// that loop when a cover region is (near-)empty but its estimated size
/// is positive.
pub(crate) const MAX_COVER_RETRIES: u64 = 100_000;

impl Default for UnionSamplerConfig {
    fn default() -> Self {
        Self {
            weights: WeightKind::Exact,
            policy: CoverPolicy::Record,
            strategy: CoverStrategy::AsGiven,
        }
    }
}

/// The set-union sampler (Algorithm 1): cover selection and cover
/// ownership, over the shared draw step and ownership record.
pub struct SetUnionSampler {
    step: DrawStep,
    cover: Cover,
    selection: Option<Categorical>,
    config: UnionSamplerConfig,
    /// `orig_join` record of seen tuples (paper line 4) with their live
    /// emissions, for revision purges (Record policy).
    record: OwnershipRecord,
    pending: VecDeque<Draw>,
}

impl SetUnionSampler {
    /// Builds the sampler from an overlap map (exact or estimated) over
    /// pre-built per-join samplers (shared with other handles of the
    /// same prepared query; `config.weights` records how they were
    /// built). All mutable record / report state starts fresh, so
    /// handles built over the same shared parts are fully independent
    /// sampling processes.
    pub fn new(
        workload: Arc<UnionWorkload>,
        overlap: &OverlapMap,
        config: UnionSamplerConfig,
        samplers: Vec<Arc<dyn JoinSampler>>,
    ) -> Result<Self, CoreError> {
        let n_joins = workload.n_joins();
        if overlap.n() != n_joins {
            return Err(CoreError::Invalid(format!(
                "overlap map covers {} joins, workload has {n_joins}",
                overlap.n()
            )));
        }
        let cover = Cover::build(overlap, config.strategy);
        let selection = cover.selection();
        Ok(Self {
            step: DrawStep::new(workload, samplers)?,
            cover,
            selection,
            config,
            record: OwnershipRecord::default(),
            pending: VecDeque::new(),
        })
    }
}

impl UnionSampler for SetUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(event);
        }
        let Some(selection) = &self.selection else {
            return Err(CoreError::Invalid(
                "cannot sample a nonempty set from an empty union".into(),
            ));
        };
        loop {
            let j = selection.draw(rng);
            if !self.step.live(j)? {
                continue;
            }
            self.step.report.join_draws[j] += 1;

            // Theorem 1 semantics: the tuple emitted for this selection
            // must be uniform over the cover region J'_j, so cover
            // rejections redraw from the SAME join.
            for _ in 0..MAX_COVER_RETRIES {
                let start = Instant::now();
                let Some(t) = self.step.until_accepted(j, rng) else {
                    self.step.report.rejected_time += start.elapsed();
                    break; // the join just died: reselect
                };
                let idx = self.step.emitted;
                let accept = match self.config.policy {
                    CoverPolicy::MembershipOracle => {
                        // Reject iff an earlier-cover join contains t.
                        let earlier = &self.cover.order()[..self.cover.rank(j)];
                        !earlier.iter().any(|&i| self.step.workload.contains(i, &t))
                    }
                    // Revision retractions queue ahead of the tuple.
                    CoverPolicy::Record => self
                        .record
                        .claim(&t, j, idx..idx + 1, |i| self.cover.precedes(i, j))
                        .settle(&mut self.pending, &mut self.step.report, |_| {}),
                };

                if accept {
                    let event = self.step.emit(t, start);
                    if self.pending.is_empty() {
                        return Ok(event);
                    }
                    self.pending.push_back(event);
                    return Ok(self.pending.pop_front().expect("nonempty queue"));
                }
                self.step.report.rejected_cover += 1;
                self.step.report.rejected_time += start.elapsed();
            }
            // Retry budget exhausted (or the join just died): reselect.
        }
    }

    fn report(&self) -> &RunReport {
        &self.step.report
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.step.report
    }

    fn emitted(&self) -> u64 {
        self.step.emitted
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        &self.step.workload
    }

    fn may_retract(&self) -> bool {
        // The membership oracle enforces the cover exactly; only the
        // record policy revises (and hence retracts).
        self.config.policy == CoverPolicy::Record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use crate::session::{shared_samplers, Estimator, HistogramOptions, SamplerBuilder};
    use suj_storage::{FxHashMap, Relation, Schema, Tuple, Value};

    /// The builder's Algorithm 1 over exact parameters.
    fn build(w: Arc<UnionWorkload>, config: UnionSamplerConfig) -> Box<dyn UnionSampler + Send> {
        SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .weights(config.weights)
            .cover_policy(config.policy)
            .cover_strategy(config.strategy)
            .build()
            .unwrap()
    }

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// Three overlapping joins over (a, b, c).
    fn workload() -> Arc<UnionWorkload> {
        let mk = |name: &str, extra_a: i64, extra_b: i64| {
            let mut r_rows: Vec<Vec<i64>> = vec![
                vec![1, 10],
                vec![2, 10],
                vec![3, 20],
                vec![extra_a, extra_b],
            ];
            r_rows.dedup();
            // b = 10 has degree 2 in s so Extended Olken must reject.
            let s_rows = vec![
                vec![10, 100],
                vec![10, 101],
                vec![20, 200],
                vec![extra_b, extra_b * 10],
            ];
            suj_join::JoinSpec::chain(
                name,
                vec![
                    rel(&format!("{name}_r"), &["a", "b"], r_rows),
                    rel(&format!("{name}_s"), &["b", "c"], s_rows),
                ],
            )
            .unwrap()
        };
        Arc::new(
            UnionWorkload::new(vec![
                Arc::new(mk("j1", 7, 70)),
                Arc::new(mk("j2", 8, 80)),
                Arc::new(mk("j3", 9, 90)),
            ])
            .unwrap(),
        )
    }

    fn assert_uniform_sample(
        samples: &[Tuple],
        universe: &suj_storage::FxHashSet<Tuple>,
        p_min: f64,
    ) {
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in samples {
            assert!(universe.contains(t), "non-member sampled: {t}");
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let observed: Vec<u64> = universe
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(
            outcome.p_value > p_min,
            "not uniform: chi2 = {}, p = {}",
            outcome.statistic,
            outcome.p_value
        );
    }

    #[test]
    fn oracle_policy_is_uniform() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = build(
            w,
            UnionSamplerConfig {
                policy: CoverPolicy::MembershipOracle,
                ..Default::default()
            },
        );
        let mut rng = SujRng::seed_from_u64(1);
        let n = 2_000 * exact.union_size();
        let (samples, report) = sampler.sample(n, &mut rng).unwrap();
        assert_eq!(samples.len(), n);
        assert_eq!(report.revised, 0, "oracle policy never revises");
        assert_uniform_sample(&samples, &exact.union_set, 0.001);
    }

    #[test]
    fn record_policy_is_uniform_and_revises() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = build(
            w,
            UnionSamplerConfig {
                policy: CoverPolicy::Record,
                ..Default::default()
            },
        );
        let mut rng = SujRng::seed_from_u64(2);
        let n = 2_000 * exact.union_size();
        let (samples, report) = sampler.sample(n, &mut rng).unwrap();
        assert_eq!(samples.len(), n);
        assert!(
            report.revised > 0,
            "overlapping joins must trigger revisions"
        );
        // The record policy is asymptotically uniform; allow a softer
        // threshold than the oracle's.
        assert_uniform_sample(&samples, &exact.union_set, 1e-4);
    }

    #[test]
    fn eo_weights_also_uniform() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = build(
            w,
            UnionSamplerConfig {
                weights: WeightKind::ExtendedOlken,
                policy: CoverPolicy::MembershipOracle,
                ..Default::default()
            },
        );
        let mut rng = SujRng::seed_from_u64(3);
        let n = 1_500 * exact.union_size();
        let (samples, report) = sampler.sample(n, &mut rng).unwrap();
        assert!(report.rejected_join > 0, "EO must reject in the subroutine");
        assert_uniform_sample(&samples, &exact.union_set, 0.001);
    }

    #[test]
    fn cover_strategies_preserve_uniformity() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        for strategy in [CoverStrategy::DescendingSize, CoverStrategy::AscendingSize] {
            let mut sampler = build(
                w.clone(),
                UnionSamplerConfig {
                    policy: CoverPolicy::MembershipOracle,
                    strategy,
                    ..Default::default()
                },
            );
            let mut rng = SujRng::seed_from_u64(4);
            let n = 1_500 * exact.union_size();
            let (samples, _) = sampler.sample(n, &mut rng).unwrap();
            assert_uniform_sample(&samples, &exact.union_set, 0.001);
        }
    }

    #[test]
    fn estimated_parameters_still_yield_member_tuples() {
        // Histogram-estimated (loose) parameters: samples remain valid
        // members and the requested count is met; uniformity degrades
        // gracefully with estimate quality (§9 measures this).
        let w = workload();
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Histogram(HistogramOptions::default()))
            .cover_policy(CoverPolicy::MembershipOracle)
            .build()
            .unwrap();
        let mut rng = SujRng::seed_from_u64(5);
        let (samples, _) = sampler.sample(500, &mut rng).unwrap();
        assert_eq!(samples.len(), 500);
        let exact = full_join_union(&w).unwrap();
        for t in &samples {
            assert!(exact.union_set.contains(t));
        }
    }

    #[test]
    fn zero_requested_samples() {
        let w = workload();
        let mut sampler = build(w, UnionSamplerConfig::default());
        let mut rng = SujRng::seed_from_u64(6);
        let (samples, report) = sampler.sample(0, &mut rng).unwrap();
        assert!(samples.is_empty());
        assert_eq!(report.accepted, 0);
    }

    #[test]
    fn workload_with_empty_join_still_fulfills() {
        // One join has no results; estimated parameters may still give
        // it positive mass. The sampler must mark it dead and fulfill
        // the request from the live join.
        let live = suj_join::JoinSpec::chain(
            "live",
            vec![
                rel("lr", &["a", "b"], vec![vec![1, 10], vec![2, 20]]),
                rel("ls", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let empty = suj_join::JoinSpec::chain(
            "empty",
            vec![
                rel("er", &["a", "b"], vec![vec![9, 90]]),
                rel("es", &["b", "c"], vec![vec![80, 800]]),
            ],
        )
        .unwrap();
        let w = Arc::new(UnionWorkload::new(vec![Arc::new(live), Arc::new(empty)]).unwrap());
        // Deliberately wrong estimates giving the empty join mass.
        let map = OverlapMap::new(2, vec![0.0, 2.0, 5.0, 0.0]).unwrap();
        let config = UnionSamplerConfig::default();
        let samplers = shared_samplers(&w, config.weights).unwrap();
        let mut sampler = SetUnionSampler::new(w, &map, config, samplers).unwrap();
        let mut rng = SujRng::seed_from_u64(8);
        let (samples, report) = sampler.sample(50, &mut rng).unwrap();
        assert_eq!(samples.len(), 50);
        assert!(report.accepted >= 50);
    }

    #[test]
    fn mismatched_overlap_map_rejected() {
        let w = workload();
        let bad = OverlapMap::new(1, vec![0.0, 5.0]).unwrap();
        let config = UnionSamplerConfig::default();
        let samplers = shared_samplers(&w, config.weights).unwrap();
        assert!(SetUnionSampler::new(w, &bad, config, samplers).is_err());
    }

    #[test]
    fn expected_cost_tracks_theorem2() {
        // Theorem 2: expected join-subroutine calls ≤ N + N log N. With
        // exact weights the only waste is cover rejection, so total
        // draws should sit well under the bound.
        let w = workload();
        let mut sampler = build(
            w,
            UnionSamplerConfig {
                policy: CoverPolicy::MembershipOracle,
                ..Default::default()
            },
        );
        let mut rng = SujRng::seed_from_u64(7);
        let n = 4_000usize;
        let (_, report) = sampler.sample(n, &mut rng).unwrap();
        let draws: u64 = report.join_draws.iter().sum();
        let bound = n as f64 + n as f64 * (n as f64).ln();
        assert!(
            (draws as f64) < bound,
            "draws {draws} exceed N + N ln N = {bound}"
        );
    }

    #[test]
    fn incremental_draws_match_batch() {
        // draw()-by-draw consumption equals one batch call seed-for-seed
        // (the oracle policy never retracts, so the streams align 1:1).
        let w = workload();
        let cfg = UnionSamplerConfig {
            policy: CoverPolicy::MembershipOracle,
            ..Default::default()
        };
        let mut batch = build(w.clone(), cfg);
        let mut incremental = build(w, cfg);
        let mut rng_a = SujRng::seed_from_u64(17);
        let mut rng_b = SujRng::seed_from_u64(17);
        let (samples, _) = batch.sample(200, &mut rng_a).unwrap();
        let mut one_by_one = Vec::new();
        while one_by_one.len() < 200 {
            if let Draw::Tuple(_, t) = incremental.draw(&mut rng_b).unwrap() {
                one_by_one.push(t);
            }
        }
        assert_eq!(samples, one_by_one);
    }

    #[test]
    fn record_policy_retractions_reference_live_emissions() {
        let w = workload();
        let mut sampler = build(w, UnionSamplerConfig::default());
        let mut rng = SujRng::seed_from_u64(18);
        let mut emitted = 0u64;
        let mut retracted = 0u64;
        for _ in 0..5_000 {
            match sampler.draw(&mut rng).unwrap() {
                Draw::Tuple(idx, _) => {
                    assert_eq!(idx, emitted, "emission indices are sequential");
                    emitted += 1;
                }
                Draw::Retract(idx) => {
                    assert!(idx < emitted, "retraction of a future emission");
                    retracted += 1;
                }
            }
        }
        assert_eq!(emitted, sampler.emitted());
        assert_eq!(retracted, sampler.report().revision_removed);
    }
}
