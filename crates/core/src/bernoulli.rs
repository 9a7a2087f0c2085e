//! The Bernoulli "union trick" sampler (§3).
//!
//! Each round iterates all joins, selecting join `J_j` with Bernoulli
//! probability `|J_j|/|U|` (several joins can fire in one round). A
//! selected join contributes one uniform tuple, which is *kept only if
//! `J_j` is the tuple's designated join* — the first join containing it.
//! Every value `u` is then returned with probability
//! `(|J_{f(u)}|/|U|) · (1/|J_{f(u)}|) = 1/|U|`.
//!
//! Two designation mechanisms are provided: the membership oracle
//! computes `f(u)` exactly (first join in workload order containing
//! `u`); the paper's record variant designates the first join `u` was
//! *sampled from*, which converges to the oracle assignment as the
//! record fills in (see Algorithm 1). This sampler exists as the
//! simple baseline the non-Bernoulli cover selection improves upon —
//! "this algorithm has a high rejection ratio for highly overlapping
//! joins".
//!
//! The sampler implements [`UnionSampler`]; designation rejections are
//! plain rejections (no sample is ever withdrawn), so both policies
//! stream without retractions.

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
use suj_stats::SujRng;

/// How the Bernoulli sampler designates each value's owning join.
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

/// Bernoulli union-trick sampler: round-robin Bernoulli selection and a
/// designation rule, over the shared draw step.
pub struct BernoulliUnionSampler {
    step: DrawStep,
    /// Selection probability per join: `|J_j| / |U|`.
    probabilities: Vec<f64>,
    policy: DesignationPolicy,
    /// First join each value was SAMPLED from (Record policy).
    record: OwnershipRecord,
    /// Round-robin cursor into the joins of the current round.
    cursor: usize,
    fired_this_round: bool,
    stall_rounds: u64,
}

impl BernoulliUnionSampler {
    /// Builds the sampler over pre-built per-join samplers (shared with
    /// other handles of the same prepared query); record state starts
    /// fresh per handle. The freeze reads `join_sizes` from the samplers
    /// (`size_info()`) wherever they know their size exactly, and
    /// `union_size` — which no single join knows — from an estimator.
    pub fn new(
        workload: Arc<UnionWorkload>,
        join_sizes: &[f64],
        union_size: f64,
        samplers: Vec<Arc<dyn JoinSampler>>,
        policy: DesignationPolicy,
    ) -> Result<Self, CoreError> {
        let n = workload.n_joins();
        if join_sizes.len() != n {
            return Err(CoreError::Invalid(format!(
                "expected {n} join sizes, got {}",
                join_sizes.len()
            )));
        }
        if union_size <= 0.0 {
            return Err(CoreError::Invalid("union size must be positive".into()));
        }
        let probabilities = join_sizes
            .iter()
            .map(|&s| (s / union_size).clamp(0.0, 1.0))
            .collect();
        Ok(Self {
            step: DrawStep::new(workload, samplers)?,
            probabilities,
            policy,
            record: OwnershipRecord::default(),
            cursor: 0,
            fired_this_round: false,
            stall_rounds: 0,
        })
    }
}

impl UnionSampler for BernoulliUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        let n_joins = self.probabilities.len();
        loop {
            if self.cursor >= n_joins {
                self.stall_rounds = if self.fired_this_round {
                    0
                } else {
                    self.stall_rounds + 1
                };
                if self.stall_rounds > 1_000_000 {
                    return Err(CoreError::Invalid(
                        "Bernoulli sampler stalled: all selection probabilities ~ 0".into(),
                    ));
                }
                self.cursor = 0;
                self.fired_this_round = false;
            }
            let j = self.cursor;
            self.cursor += 1;
            if !self.step.live(j)? || !rng.bernoulli(self.probabilities[j]) {
                continue;
            }
            self.fired_this_round = true;
            self.step.report.join_draws[j] += 1;
            let start = Instant::now();
            let Some(t) = self.step.until_accepted(j, rng) else {
                self.step.report.rejected_time += start.elapsed();
                continue; // join empty or pathological: dead from here on
            };
            let accept = match self.policy {
                DesignationPolicy::Oracle => {
                    // `t` was just drawn from join j, so j designates
                    // it iff no earlier join (workload order) holds it.
                    first_containing(&self.step.workload.oracles()[..j], &t).is_none()
                }
                DesignationPolicy::Record => {
                    // "retained only if it is sampled from the first
                    // join where u was observed" (§3): the owner always
                    // precedes, and nothing is ever withdrawn.
                    matches!(self.record.claim(&t, j, 0..0, |_| true), Claim::Accepted)
                }
            };
            if accept {
                return Ok(self.step.emit(t, start));
            }
            self.step.report.rejected_cover += 1;
            self.step.report.rejected_time += start.elapsed();
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
        false // designation rejects new draws, never withdraws old ones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use crate::session::{shared_samplers, Estimator, SamplerBuilder, Strategy};
    use suj_join::WeightKind;

    /// The builder's Bernoulli sampler over exact parameters.
    fn build(w: Arc<UnionWorkload>, policy: DesignationPolicy) -> Box<dyn UnionSampler + Send> {
        SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .strategy(Strategy::Bernoulli(policy))
            .build()
            .unwrap()
    }
    use suj_storage::{FxHashMap, Relation, Schema, Tuple, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

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
    fn uniform_over_set_union() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = build(w.clone(), DesignationPolicy::Oracle);
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
        let mut sampler = build(w_overlap, DesignationPolicy::Oracle);
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
        let mut sampler = build(w, DesignationPolicy::Record);
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
    fn invalid_inputs_rejected() {
        let w = workload();
        let new = |sizes: &[f64], union_size: f64| {
            let samplers = shared_samplers(&w, WeightKind::Exact).unwrap();
            BernoulliUnionSampler::new(
                w.clone(),
                sizes,
                union_size,
                samplers,
                DesignationPolicy::Oracle,
            )
        };
        assert!(new(&[1.0], 2.0).is_err());
        assert!(new(&[1.0, 1.0], 0.0).is_err());
        assert!(new(&[1.0, 1.0], 2.0).is_ok());
    }

    #[test]
    fn per_call_reports_are_deltas() {
        let w = workload();
        let mut sampler = build(w, DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(88);
        let (_, first) = sampler.sample(100, &mut rng).unwrap();
        let (_, second) = sampler.sample(100, &mut rng).unwrap();
        assert_eq!(first.accepted, 100);
        assert_eq!(second.accepted, 100);
        assert_eq!(sampler.report().accepted, 200);
    }
}
