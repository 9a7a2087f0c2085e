//! Cross-crate integration tests: the full pipeline (estimate → cover →
//! sample → verify) in both the decentralized (histogram) and
//! centralized (random-walk / online) configurations, assembled through
//! the fluent `SamplerBuilder`.

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::walk_estimator::WalkEstimatorConfig;
use suj_join::WeightKind;

/// Algorithm 1 with the given estimator and cover policy.
fn rejection(estimator: Estimator, policy: CoverPolicy) -> Strategy {
    Strategy::Rejection(UnionSamplerConfig {
        estimator,
        policy,
        ..Default::default()
    })
}

/// Decentralized pipeline: histogram parameters only (no data access
/// beyond statistics), EO subroutine — the data-market configuration.
#[test]
fn decentralized_pipeline_histogram_eo() {
    let w = Arc::new(uq1(&UqOptions::new(1, 41, 0.2)).unwrap());
    let mut sampler = SamplerBuilder::for_workload(w.clone())
        .strategy(rejection(
            Estimator::Histogram(HistogramOptions::default()),
            CoverPolicy::Record,
        ))
        .weights(WeightKind::ExtendedOlken)
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(1);
    let (samples, report) = sampler.sample(400, &mut rng).unwrap();
    assert_eq!(samples.len(), 400);

    // Every sample is a true member of the union.
    let exact = full_join_union(&w).unwrap();
    for t in &samples {
        assert!(exact.union_set.contains(t));
    }
    assert!(report.accepted >= 400);
}

/// Prepared-footprint accounting: every built sampler's report carries
/// the workload's columnar resident bytes *plus* the per-join
/// samplers' own structures (indexes, count tables, alias arenas), the
/// summary prints them, and they survive batch deltas.
#[test]
fn reports_carry_prepared_footprint_bytes() {
    let w = Arc::new(uq1(&UqOptions::new(1, 44, 0.2)).unwrap());
    let workload_bytes = w.memory_bytes() as u64;
    assert!(
        workload_bytes > 0,
        "workload must have a measurable footprint"
    );
    let mut sampler = SamplerBuilder::for_workload(w)
        .strategy(rejection(
            Estimator::Histogram(HistogramOptions::default()),
            CoverPolicy::Record,
        ))
        .weights(WeightKind::ExtendedOlken)
        .build()
        .unwrap();
    let total = sampler.report().prepared_bytes;
    assert!(
        total > workload_bytes,
        "footprint ({total}) must include the per-join samplers on top \
         of the workload ({workload_bytes})"
    );
    let mut rng = SujRng::seed_from_u64(4);
    let (_, report) = sampler.sample(50, &mut rng).unwrap();
    assert_eq!(report.prepared_bytes, total);
    assert!(
        report
            .summary()
            .contains(&format!("prepared_bytes={total}")),
        "summary must surface the footprint: {}",
        report.summary()
    );
}

/// Centralized pipeline: random-walk warm-up, EW subroutine.
#[test]
fn centralized_pipeline_random_walk_ew() {
    let w = Arc::new(uq3(&UqOptions::new(1, 42, 0.3)).unwrap());
    let mut sampler = SamplerBuilder::for_workload(w.clone())
        .strategy(rejection(
            Estimator::Walk(WalkEstimatorConfig::default()),
            CoverPolicy::Record,
        ))
        .estimation_seed(2)
        .weights(WeightKind::Exact)
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(2);
    let (samples, _) = sampler.sample(400, &mut rng).unwrap();
    let exact = full_join_union(&w).unwrap();
    for t in &samples {
        assert!(exact.union_set.contains(t));
    }
}

/// Online pipeline (Algorithm 2) across all three workloads, both
/// reuse settings.
#[test]
fn online_pipeline_all_workloads() {
    for (name, w) in [
        ("uq1", uq1(&UqOptions::new(1, 43, 0.2)).unwrap()),
        ("uq2", uq2(&UqOptions::new(1, 43, 0.2)).unwrap()),
        ("uq3", uq3(&UqOptions::new(1, 43, 0.3)).unwrap()),
    ] {
        let w = Arc::new(w);
        let exact = full_join_union(&w).unwrap();
        for reuse in [true, false] {
            let cfg = OnlineConfig {
                reuse,
                warmup: WalkEstimatorConfig {
                    max_walks_per_join: 300,
                    ..Default::default()
                },
                ..Default::default()
            };
            let parts = Arc::new(OnlineParts::new(w.clone()).unwrap());
            let mut sampler = OnlineUnionSampler::new(parts, cfg, CoverStrategy::AsGiven);
            let mut rng = SujRng::seed_from_u64(3);
            let (samples, report) = sampler.sample(200, &mut rng).unwrap();
            assert_eq!(samples.len(), 200, "{name} reuse={reuse}");
            for t in &samples {
                assert!(exact.union_set.contains(t), "{name}: non-member sampled");
            }
            if reuse {
                assert!(report.reuse_accepted > 0, "{name}: no reuse happened");
            } else {
                assert_eq!(report.reuse_accepted, 0);
            }
        }
    }
}

/// Theorem 2's cost shape: total join-subroutine draws stay within
/// N + N·ln N on real workloads with exact parameters.
#[test]
fn sampling_cost_within_theorem2_bound() {
    let w = Arc::new(uq2(&UqOptions::new(1, 44, 0.2)).unwrap());
    let mut sampler = SamplerBuilder::for_workload(w)
        .strategy(rejection(Estimator::Exact, CoverPolicy::MembershipOracle))
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(4);
    let n = 5_000usize;
    let (_, report) = sampler.sample(n, &mut rng).unwrap();
    let draws: u64 = report.join_draws.iter().sum();
    let bound = n as f64 + n as f64 * (n as f64).ln();
    assert!(
        (draws as f64) < bound,
        "draws {draws} exceed Theorem 2 bound {bound:.0}"
    );
}

/// Sampling with replacement: repeated draws of the same tuple occur at
/// the expected rate (birthday-style sanity check, not a full test).
#[test]
fn sampling_is_with_replacement() {
    let w = Arc::new(uq3(&UqOptions::new(1, 45, 0.5)).unwrap());
    let exact = full_join_union(&w).unwrap();
    let u = exact.union_size();
    let mut sampler = SamplerBuilder::for_workload(w)
        .strategy(rejection(Estimator::Exact, CoverPolicy::Record))
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(5);
    let n = 4 * u;
    let (samples, _) = sampler.sample(n, &mut rng).unwrap();
    let distinct: suj_storage::FxHashSet<Tuple> = samples.iter().cloned().collect();
    assert!(
        distinct.len() < samples.len(),
        "drawing 4|U| samples must repeat tuples"
    );
}

/// Reproducibility: identical seeds give identical samples end to end.
#[test]
fn runs_are_reproducible() {
    let w = Arc::new(uq1(&UqOptions::new(1, 46, 0.2)).unwrap());
    let run = |seed: u64| {
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(rejection(Estimator::Exact, CoverPolicy::Record))
            .build()
            .unwrap();
        let mut rng = SujRng::seed_from_u64(seed);
        sampler.sample(100, &mut rng).unwrap().0
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

/// Incremental consumption with early stop: the stream produces valid
/// members lazily and stops exactly where the caller stops.
#[test]
fn streaming_supports_early_stop() {
    let w = Arc::new(uq1(&UqOptions::new(1, 48, 0.2)).unwrap());
    let exact = full_join_union(&w).unwrap();
    let mut sampler = SamplerBuilder::for_workload(w)
        .strategy(rejection(Estimator::Exact, CoverPolicy::MembershipOracle))
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(6);
    let mut stream = SampleStream::over(&mut sampler, &mut rng);
    let mut taken = 0;
    for item in stream.by_ref() {
        let t = item.unwrap();
        assert!(exact.union_set.contains(&t));
        taken += 1;
        if taken == 17 {
            break; // stop mid-stream, no batch size declared anywhere
        }
    }
    assert_eq!(stream.yielded(), 17);
    assert_eq!(sampler.report().accepted, 17);
}

/// The facade crate re-exports a working prelude.
#[test]
fn facade_prelude_is_usable() {
    let opts = UqOptions::new(1, 47, 0.2);
    let w = uq3(&opts).unwrap();
    assert_eq!(w.n_joins(), 3);
    let exact = full_join_union(&w).unwrap();
    assert!(exact.union_size() > 0);
}
