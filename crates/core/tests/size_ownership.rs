//! One owner per parameter, seen from outside the freeze: a member is
//! selected by what its own sampler knows — its exact size, else the
//! bound it rejects against — and never by the estimator, which runs
//! only for Algorithm 1's cover; the stamped `sizing=` label says which
//! the sampler selects by.

use std::sync::Arc;
use suj_core::prelude::*;
use suj_join::{JoinSpec, WeightKind};
use suj_storage::{Relation, Schema, Value};

fn rel(name: &str, attrs: [&str; 2], rows: &[[i64; 2]]) -> Arc<Relation> {
    let tuples = rows
        .iter()
        .map(|r| r.iter().map(|&v| Value::int(v)).collect())
        .collect();
    Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
}

/// J1 has 5 result tuples under an Olken bound of 6 (3 rows × max
/// degree 2), J2 has 2 under a bound of 2; they share `(1, 10, 100)`.
fn workload() -> Arc<UnionWorkload> {
    let chain = |name: &str, r: &[[i64; 2]], s: &[[i64; 2]]| {
        let relations = vec![
            rel(&format!("{name}_r"), ["a", "b"], r),
            rel(&format!("{name}_s"), ["b", "c"], s),
        ];
        Arc::new(JoinSpec::chain(name, relations).unwrap())
    };
    let j1 = chain(
        "j1",
        &[[1, 10], [2, 10], [3, 20]],
        &[[10, 100], [10, 101], [20, 200]],
    );
    let j2 = chain("j2", &[[1, 10], [9, 90]], &[[10, 100], [90, 900]]);
    Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
}

/// Freezes one configuration; returns the stamped sizing and the
/// estimation passes paid.
fn freeze(configure: fn(SamplerBuilder) -> SamplerBuilder) -> (Option<Sizing>, u64) {
    let prepared = configure(SamplerBuilder::for_workload(workload()))
        .freeze()
        .unwrap();
    let sizing = prepared.plan().sizing;
    let label = sizing.map(|s| match s {
        Sizing::Exact => "exact",
        Sizing::Histogram => "histogram",
        Sizing::Walk => "walk",
        Sizing::Bound => "bound",
    });
    assert_eq!(prepared.summary().sizing, label);
    assert_eq!(
        prepared.explain().contains("sizing=none"),
        sizing.is_none(),
        "{}",
        prepared.explain()
    );
    (sizing, prepared.estimations())
}

#[test]
fn freeze_reads_sizes_where_they_are_computed() {
    // Exact-weight members know their sizes: neither the disjoint nor
    // the designated set union has anything left to estimate…
    assert_eq!(
        freeze(|b| b.strategy(Strategy::Disjoint)),
        (Some(Sizing::Exact), 0)
    );
    assert_eq!(
        freeze(|b| b.strategy(Strategy::Bernoulli(DesignationPolicy::Record))),
        (Some(Sizing::Exact), 0)
    );
    // …and bound-only members are selected by the bounds their samplers
    // reject against: these strategies take no estimator.
    assert_eq!(
        freeze(|b| {
            b.strategy(Strategy::Disjoint)
                .weights(WeightKind::ExtendedOlken)
        }),
        (Some(Sizing::Bound), 0)
    );
    assert_eq!(
        freeze(|b| {
            b.strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
                .weights(WeightKind::WanderJoin)
        }),
        (Some(Sizing::Bound), 0)
    );
    // Algorithm 1 selects by the estimator's whole map, whose join
    // sizes are the samplers' only under `exact_size_hints`.
    assert_eq!(freeze(|b| b), (Some(Sizing::Histogram), 1));
    assert_eq!(
        freeze(|b| {
            b.strategy(Strategy::Rejection(UnionSamplerConfig {
                estimator: Estimator::Histogram(HistogramOptions {
                    exact_size_hints: true,
                }),
                ..Default::default()
            }))
        }),
        (Some(Sizing::Exact), 1)
    );
    assert_eq!(
        freeze(|b| {
            b.strategy(Strategy::Rejection(UnionSamplerConfig {
                estimator: Estimator::Walk(WalkEstimatorConfig {
                    max_walks_per_join: 100,
                    ..Default::default()
                }),
                ..Default::default()
            }))
        }),
        (Some(Sizing::Walk), 1)
    );
}

/// The sizes Bernoulli selects by are the samplers' (5 and 2), not the
/// histogram's Olken singletons (6 and 2): pooled over fresh handles,
/// join 0 fires 5/7 of the time, not 6/8.
#[test]
fn bernoulli_fires_joins_by_their_exact_sizes() {
    let prepared = SamplerBuilder::for_workload(workload())
        .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
        .freeze()
        .unwrap();
    let mut draws = [0u64; 2];
    for seed in 0..64 {
        let (_, report) = prepared.sample(512, seed).unwrap();
        draws[0] += report.join_draws[0];
        draws[1] += report.join_draws[1];
    }
    let total = (draws[0] + draws[1]) as f64;
    let (share, p) = (draws[0] as f64 / total, 5.0 / 7.0);
    let sigma = (p * (1.0 - p) / total).sqrt();
    assert!(
        (share - p).abs() <= 4.0 * sigma,
        "join 0 fired with share {share:.4}, not {p:.4} (σ = {sigma:.4}; draws {draws:?})"
    );
}
