//! One join per draw: the disjoint union (Definition 1), and the set
//! union once an ownership rule is added (§3).
//!
//! Every selection picks join `J_j` with probability `B_j / ΣB`, where
//! `B_j` is the size bound join `j`'s own sampler rejects against
//! ([`size_info`](suj_join::JoinSampler::size_info)`().bound` — the
//! exact `|J_j|` for an exact-weight sampler), and makes one attempt on
//! it; a rejected attempt re-selects. An attempt lands on each tuple of
//! `J_j` with probability `1/B_j`, so every selection lands on each copy
//! in `V = J_1 ⊎ … ⊎ J_n` with probability `1/ΣB`: accepted draws are
//! exactly `1/|V|` per copy whatever the bounds — the paper evaluates no
//! baseline here because "it has no extra delays".
//!
//! For the set union `U = J_1 ∪ … ∪ J_n`, a [`DesignationPolicy`]
//! keeps a drawn tuple only if `J_j` is its designated join, the §3
//! union trick's ownership rule: each value `u` is then kept with
//! probability `1/ΣB` per selection, so at `ΣB/|U|` selections per
//! tuple — what §3's round of Bernoulli coins costs, without the `|U|`
//! those coins need. The membership oracle designates the first join in
//! workload order that contains `u`, which makes the stream exactly
//! uniform (Kamat & Nandi); the paper's record designates the first
//! join `u` was *sampled from*, which converges to the oracle's as the
//! record fills in (see Algorithm 1).
//!
//! The sampler implements [`UnionSampler`]; a designation rejects new
//! draws and never withdraws old ones, so it emits no
//! [`Draw::Retract`](crate::sampler::Draw) and its
//! [`SampleStream`](crate::stream::SampleStream) is i.i.d.

use crate::draw_step::DrawStep;
use crate::error::CoreError;
use crate::record::{Claim, OwnershipRecord};
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_join::membership::first_containing;
use suj_join::JoinSampler;
use suj_stats::{Categorical, SujRng};
use suj_storage::CompiledPredicate;

/// How a set-union draw designates each value's owning join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignationPolicy {
    /// Exact: `f(u)` = first join (workload order) containing `u`,
    /// decided by the membership oracle.
    Oracle,
    /// The paper's §3 description: `u` is owned by the first join it
    /// was *sampled from*; converges to the oracle assignment as the
    /// record fills in.
    Record,
}

/// Sampler that draws one join per selection, in proportion to the
/// bound its sampler rejects against, over the shared draw step — the
/// disjoint union when every drawn tuple is its own owner, the set
/// union under a [`DesignationPolicy`].
pub struct DisjointUnionSampler {
    step: DrawStep,
    selection: Option<Categorical>,
    designation: Option<DesignationPolicy>,
    /// First join each value was sampled from (record designation).
    record: OwnershipRecord,
}

impl DisjointUnionSampler {
    /// Builds the sampler over pre-built per-join samplers (shared with
    /// other handles of the same prepared query); record state starts
    /// fresh per handle. `designation` is `None` for the disjoint union;
    /// `predicate` is §8.3's reject-mode predicate, compiled against the
    /// workload's canonical schema.
    pub(crate) fn new(
        workload: Arc<UnionWorkload>,
        samplers: Vec<Arc<dyn JoinSampler>>,
        designation: Option<DesignationPolicy>,
        predicate: Option<Arc<CompiledPredicate>>,
    ) -> Result<Self, CoreError> {
        let bounds: Vec<f64> = samplers.iter().map(|s| s.size_info().bound).collect();
        Ok(Self {
            step: DrawStep::new(workload, samplers, predicate)?,
            selection: Categorical::new(&bounds),
            designation,
            record: OwnershipRecord::default(),
        })
    }
}

impl UnionSampler for DisjointUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        let Some(selection) = &self.selection else {
            return Err(CoreError::Invalid(
                "cannot sample from an empty union: every join's size bound is 0".into(),
            ));
        };
        loop {
            // One attempt per selection: a rejection re-selects the join.
            let j = selection.draw(rng);
            if !self.step.live(j)? {
                continue;
            }
            self.step.report.join_draws[j] += 1;
            let start = Instant::now();
            let Some(t) = self.step.attempt(j, rng) else {
                self.step.report.rejected_time += start.elapsed();
                continue;
            };
            let owned = match self.designation {
                None => true,
                // `t` was just drawn from join j, so j designates it
                // iff no earlier join (workload order) holds it.
                Some(DesignationPolicy::Oracle) => {
                    first_containing(&self.step.workload.oracles()[..j], &t).is_none()
                }
                // "retained only if it is sampled from the first join
                // where u was observed" (§3): nothing is ever withdrawn.
                Some(DesignationPolicy::Record) => {
                    matches!(self.record.claim(&t, j, 0..0, |_| true), Claim::Accepted)
                }
            };
            if !owned {
                self.step.report.rejected_cover += 1;
                self.step.report.rejected_time += start.elapsed();
            } else if self.step.passes(&t) {
                return Ok(self.step.emit(t, start));
            } else {
                self.step.reject_predicate(start);
            }
        }
    }

    fn report(&self) -> &RunReport {
        &self.step.report
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.step.report
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        &self.step.workload
    }

    fn may_retract(&self) -> bool {
        false // designation rejects new draws, never withdraws old ones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use crate::session::{shared_samplers, SamplerBuilder, Strategy};
    use suj_join::WeightKind;
    use suj_storage::{FxHashMap, Relation, Schema, Tuple, Value};

    /// The builder's sampler for `strategy` over the given weights.
    fn build(
        w: Arc<UnionWorkload>,
        strategy: Strategy,
        weights: WeightKind,
    ) -> Box<dyn UnionSampler + Send> {
        SamplerBuilder::for_workload(w)
            .strategy(strategy)
            .weights(weights)
            .build()
            .unwrap()
    }

    fn disjoint(w: Arc<UnionWorkload>) -> Box<dyn UnionSampler + Send> {
        build(w, Strategy::Disjoint, WeightKind::Exact)
    }

    fn designated(
        w: Arc<UnionWorkload>,
        policy: DesignationPolicy,
    ) -> Box<dyn UnionSampler + Send> {
        build(w, Strategy::Bernoulli(policy), WeightKind::Exact)
    }

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// `|J1| = 4`, `|J2| = 3`; both hold `(1, 10, 100)`.
    fn workload() -> Arc<UnionWorkload> {
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel(
                    "r1",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 20]],
                ),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel(
                    "r2",
                    &["a", "b"],
                    vec![vec![1, 10], vec![9, 90], vec![8, 90]],
                ),
                rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]),
            ],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    #[test]
    fn disjoint_distribution_counts_duplicates_twice() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = disjoint(w.clone());
        let v = (exact.join_size(0) + exact.join_size(1)) as f64;

        let mut rng = SujRng::seed_from_u64(7);
        let (samples, report) = sampler.sample(25_000, &mut rng).unwrap();
        assert_eq!(samples.len(), 25_000);
        assert_eq!(report.accepted, 25_000);

        // (1,10,100) lives in BOTH joins → expected frequency 2/|V|;
        // single-join tuples get 1/|V|.
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let shared = suj_storage::tuple![1i64, 10i64, 100i64];
        let single = suj_storage::tuple![3i64, 20i64, 200i64];
        let f_shared = counts[&shared] as f64 / 25_000.0;
        let f_single = counts[&single] as f64 / 25_000.0;
        assert!((f_shared - 2.0 / v).abs() < 0.02, "shared freq {f_shared}");
        assert!((f_single - 1.0 / v).abs() < 0.02, "single freq {f_single}");
    }

    #[test]
    fn all_samples_are_members() {
        let w = workload();
        let mut sampler = disjoint(w.clone());
        let mut rng = SujRng::seed_from_u64(9);
        let (samples, _) = sampler.sample(500, &mut rng).unwrap();
        for t in samples {
            assert!(w.contains(0, &t) || w.contains(1, &t));
        }
    }

    #[test]
    fn works_with_olken_weights() {
        let w = workload();
        let mut sampler = build(w, Strategy::Disjoint, WeightKind::ExtendedOlken);
        let mut rng = SujRng::seed_from_u64(10);
        let (samples, report) = sampler.sample(200, &mut rng).unwrap();
        assert_eq!(samples.len(), 200);
        // EO must have rejected at least occasionally on this skew.
        assert!(report.attempts() >= 200);
    }

    #[test]
    fn wrong_size_vector_rejected() {
        let w = workload();
        let samplers = shared_samplers(&w, WeightKind::Exact).unwrap();
        assert!(DisjointUnionSampler::new(w.clone(), samplers[..1].to_vec(), None, None).is_err());
        assert!(DisjointUnionSampler::new(w, samplers, None, None).is_ok());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let w = workload();
        let new = |samplers: Vec<Arc<dyn JoinSampler>>| {
            DisjointUnionSampler::new(w.clone(), samplers, Some(DesignationPolicy::Oracle), None)
        };
        let samplers = shared_samplers(&w, WeightKind::Exact).unwrap();
        assert!(new(samplers[..1].to_vec()).is_err());
        assert!(new(samplers).is_ok());
    }

    #[test]
    fn draw_never_retracts() {
        let w = workload();
        for mut sampler in [
            disjoint(w.clone()),
            designated(w.clone(), DesignationPolicy::Record),
        ] {
            let mut rng = SujRng::seed_from_u64(11);
            for _ in 0..500 {
                assert!(matches!(sampler.draw(&mut rng).unwrap(), Draw::Tuple(..)));
            }
            assert_eq!(sampler.report().accepted, 500);
        }
    }

    #[test]
    fn uniform_over_set_union() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = designated(w.clone(), DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(55);
        let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
        let n = 3_000 * universe.len();
        let (samples, report) = sampler.sample(n, &mut rng).unwrap();
        assert_eq!(samples.len(), n);
        assert!(report.rejected_cover > 0, "overlap must cause rejections");

        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            assert!(exact.union_set.contains(t));
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let observed: Vec<u64> = universe
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(outcome.p_value > 0.001, "p = {}", outcome.p_value);
    }

    #[test]
    fn rejection_rate_grows_with_overlap() {
        // Compare a disjoint workload with a fully-overlapping one.
        let w_overlap = {
            let mk = |n: &str| {
                suj_join::JoinSpec::chain(
                    n,
                    vec![
                        rel(
                            &format!("{n}_r"),
                            &["a", "b"],
                            vec![vec![1, 10], vec![2, 10]],
                        ),
                        rel(&format!("{n}_s"), &["b", "c"], vec![vec![10, 100]]),
                    ],
                )
                .unwrap()
            };
            Arc::new(UnionWorkload::new(vec![Arc::new(mk("x")), Arc::new(mk("y"))]).unwrap())
        };
        let mut sampler = designated(w_overlap, DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(66);
        let (_, report) = sampler.sample(2_000, &mut rng).unwrap();
        // Fully-overlapping joins: half of all selections hit the
        // non-designated join.
        let ratio = report.rejected_cover as f64 / (report.rejected_cover + report.accepted) as f64;
        assert!(ratio > 0.3, "expected heavy rejection, got {ratio}");
    }

    #[test]
    fn record_policy_samples_members_and_rejects_duplicates() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = designated(w, DesignationPolicy::Record);
        let mut rng = SujRng::seed_from_u64(77);
        let (samples, report) = sampler.sample(5_000, &mut rng).unwrap();
        assert_eq!(samples.len(), 5_000);
        for t in &samples {
            assert!(exact.union_set.contains(t));
        }
        // The shared tuple must trigger record-based rejections from the
        // non-owning join.
        assert!(report.rejected_cover > 0);
    }

    #[test]
    fn per_call_reports_are_deltas() {
        let w = workload();
        let mut sampler = designated(w, DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(88);
        let (_, first) = sampler.sample(100, &mut rng).unwrap();
        let (_, second) = sampler.sample(100, &mut rng).unwrap();
        assert_eq!(first.accepted, 100);
        assert_eq!(second.accepted, 100);
        assert_eq!(sampler.report().accepted, 200);
    }
}
