//! Criterion microbench: cover-policy ablation (DESIGN.md #1) — paper
//! Record policy vs MembershipOracle vs the Bernoulli union trick, all
//! with exact parameters on UQ2 (the high-overlap workload where the
//! policies differ most).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use suj_bench::{build_workload, UqOptions};
use suj_core::prelude::*;
use suj_stats::SujRng;

fn bench_cover_policies(c: &mut Criterion) {
    let opts = UqOptions::new(2, 42, 0.2);
    let w = Arc::new(build_workload("uq2", &opts).expect("workload"));

    let mut group = c.benchmark_group("cover_ablation");
    group.sample_size(10);

    for (label, policy) in [
        ("record", CoverPolicy::Record),
        ("oracle", CoverPolicy::MembershipOracle),
    ] {
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .cover_policy(policy)
            .build()
            .expect("sampler");
        group.bench_function(format!("{label}/N=200"), |b| {
            let mut rng = SujRng::seed_from_u64(3);
            b.iter(|| black_box(sampler.sample(200, &mut rng).expect("run").0.len()))
        });
    }

    let mut bernoulli = SamplerBuilder::for_workload(w.clone())
        .estimator(Estimator::Exact)
        .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
        .build()
        .expect("bernoulli");
    group.bench_function("bernoulli/N=200", |b| {
        let mut rng = SujRng::seed_from_u64(4);
        b.iter(|| black_box(bernoulli.sample(200, &mut rng).expect("run").0.len()))
    });

    group.finish();
}

criterion_group!(benches, bench_cover_policies);
criterion_main!(benches);
