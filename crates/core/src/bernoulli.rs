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

use crate::error::CoreError;
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_join::membership::first_containing;
use suj_join::JoinSampler;
use suj_stats::SujRng;
use suj_storage::Tuple;

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

/// Attempt budget inside the join-sampling subroutine per draw (guards
/// pathological estimates).
const MAX_JOIN_TRIES: u64 = 1_000_000;

/// Bernoulli union-trick sampler.
pub struct BernoulliUnionSampler {
    workload: Arc<UnionWorkload>,
    /// Shared per-join samplers (see
    /// [`SetUnionSampler::new`](crate::algorithm1::SetUnionSampler::new)).
    samplers: Vec<Arc<dyn JoinSampler>>,
    /// Selection probability per join: `|J_j| / |U|`.
    probabilities: Vec<f64>,
    policy: DesignationPolicy,
    /// First join each value was SAMPLED from (Record policy).
    record: suj_storage::FxHashMap<Tuple, usize>,
    /// Round-robin cursor into the joins of the current round.
    cursor: usize,
    fired_this_round: bool,
    stall_rounds: u64,
    report: RunReport,
    emitted: u64,
    /// Reusable canonicalization scratch (one accepted draw each).
    canon_scratch: Vec<suj_storage::Value>,
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
        if samplers.len() != n {
            return Err(CoreError::Invalid(format!(
                "{} join samplers for {n} joins",
                samplers.len()
            )));
        }
        let probabilities = join_sizes
            .iter()
            .map(|&s| (s / union_size).clamp(0.0, 1.0))
            .collect();
        Ok(Self {
            workload,
            samplers,
            probabilities,
            policy,
            record: Default::default(),
            cursor: 0,
            fired_this_round: false,
            stall_rounds: 0,
            report: RunReport::new(n),
            emitted: 0,
            canon_scratch: Vec::new(),
        })
    }
}

impl UnionSampler for BernoulliUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        let n_joins = self.workload.n_joins();
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
            if !rng.bernoulli(self.probabilities[j]) {
                continue;
            }
            self.fired_this_round = true;
            self.report.join_draws[j] += 1;
            let start = Instant::now();
            let (t_local, tries) = self.samplers[j].sample_until_accepted(rng, MAX_JOIN_TRIES);
            self.report.rejected_join += tries.saturating_sub(1);
            let Some(t_local) = t_local else {
                self.report.rejected_time += start.elapsed();
                continue; // join empty or pathological
            };
            let t = self
                .workload
                .to_canonical_into(j, &t_local, &mut self.canon_scratch);
            let accept = match self.policy {
                DesignationPolicy::Oracle => {
                    // `t` was just drawn from join j, so j designates
                    // it iff no earlier join (workload order) holds it.
                    first_containing(&self.workload.oracles()[..j], &t).is_none()
                }
                DesignationPolicy::Record => {
                    // "retained only if it is sampled from the
                    // first join where u was observed" (§3).
                    *self.record.entry(t.clone()).or_insert(j) == j
                }
            };
            if accept {
                let idx = self.emitted;
                self.emitted += 1;
                self.report.accepted += 1;
                self.report.accepted_time += start.elapsed();
                return Ok(Draw::Tuple(idx, t));
            } else {
                self.report.rejected_cover += 1;
                self.report.rejected_time += start.elapsed();
            }
        }
    }

    fn report(&self) -> &RunReport {
        &self.report
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        &self.workload
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
    use suj_storage::{FxHashMap, Relation, Schema, Value};

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
