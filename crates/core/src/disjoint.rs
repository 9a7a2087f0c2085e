//! Sampling the disjoint union (Definition 1).
//!
//! `V = J_1 ⊎ … ⊎ J_n` keeps duplicates, so sampling is a two-level
//! categorical draw: pick join `J_j` with probability `|J_j| / Σ|J_i|`,
//! then a uniform tuple from `J_j`. Every sample lands with probability
//! `1/|V|`; independence is immediate since draws never interact — the
//! paper evaluates no baseline here because "it has no extra delays".
//!
//! The sampler implements [`UnionSampler`] and never emits
//! [`Draw::Retract`](crate::sampler::Draw), so its
//! [`SampleStream`](crate::stream::SampleStream) is exactly i.i.d.

use crate::draw_step::DrawStep;
use crate::error::CoreError;
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_join::JoinSampler;
use suj_stats::{Categorical, SujRng};

/// Sampler over the disjoint union of a workload's joins: the selection
/// rule alone, over the shared draw step — every drawn tuple is its
/// own owner.
pub struct DisjointUnionSampler {
    step: DrawStep,
    selection: Option<Categorical>,
}

impl DisjointUnionSampler {
    /// Builds the sampler over pre-built per-join samplers (shared with
    /// other handles of the same prepared query). `join_sizes` drive
    /// join selection — the freeze reads them from the samplers
    /// (`size_info()`), and exact sizes give exactly `1/|V|` per tuple.
    pub fn new(
        workload: Arc<UnionWorkload>,
        join_sizes: &[f64],
        samplers: Vec<Arc<dyn JoinSampler>>,
    ) -> Result<Self, CoreError> {
        let n_joins = workload.n_joins();
        if join_sizes.len() != n_joins {
            return Err(CoreError::Invalid(format!(
                "expected {n_joins} join sizes, got {}",
                join_sizes.len()
            )));
        }
        Ok(Self {
            step: DrawStep::new(workload, samplers)?,
            selection: Categorical::new(join_sizes),
        })
    }
}

impl UnionSampler for DisjointUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        let Some(selection) = &self.selection else {
            return Err(CoreError::Invalid(
                "cannot sample from an empty disjoint union".into(),
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
            if let Some(t) = self.step.attempt(j, rng) {
                return Ok(self.step.emit(t, start));
            }
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
        false // draws never interact (Definition 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use crate::session::{shared_samplers, Estimator, SamplerBuilder, Strategy};
    use suj_join::WeightKind;

    /// The builder's disjoint sampler over exact (EW) join sizes.
    fn build(w: Arc<UnionWorkload>, weights: WeightKind) -> Box<dyn UnionSampler + Send> {
        SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .strategy(Strategy::Disjoint)
            .weights(weights)
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
                    vec![vec![1, 10], vec![2, 10], vec![3, 20]],
                ),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel("r2", &["a", "b"], vec![vec![1, 10], vec![9, 90]]),
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
        let mut sampler = build(w.clone(), WeightKind::Exact);
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
        let mut sampler = build(w.clone(), WeightKind::Exact);
        let mut rng = SujRng::seed_from_u64(9);
        let (samples, _) = sampler.sample(500, &mut rng).unwrap();
        for t in samples {
            assert!(w.contains(0, &t) || w.contains(1, &t));
        }
    }

    #[test]
    fn works_with_olken_weights() {
        let w = workload();
        let mut sampler = build(w, WeightKind::ExtendedOlken);
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
        assert!(DisjointUnionSampler::new(w, &[1.0], samplers).is_err());
    }

    #[test]
    fn draw_never_retracts() {
        let w = workload();
        let mut sampler = build(w, WeightKind::Exact);
        let mut rng = SujRng::seed_from_u64(11);
        for _ in 0..500 {
            assert!(matches!(sampler.draw(&mut rng).unwrap(), Draw::Tuple(..)));
        }
        assert_eq!(sampler.emitted(), 500);
    }
}
