//! Cross-crate integration tests: Theorem 1's uniformity guarantee on
//! the paper's actual workloads (UQ1/UQ2/UQ3), checked by chi-square
//! against materialized ground truth. The explicit configurations are
//! assembled through the fluent `SamplerBuilder` and pin
//! `Estimator::Exact`; the last section checks what the *planner* emits
//! by default (histogram estimation, exact weights) and without
//! statistics (the membership-oracle owner sampler), served the way a
//! service serves it — a fresh handle per request. Its `#[ignore]`d
//! large-sample variant is CI's `cargo test --release --test uniformity
//! -- --ignored` step.

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_join::WeightKind;
use suj_storage::FxHashMap;

/// Algorithm 1 over exact parameters under the given cover policy.
fn exact_rejection(policy: CoverPolicy) -> Strategy {
    Strategy::Rejection(UnionSamplerConfig {
        estimator: Estimator::Exact,
        policy,
        ..Default::default()
    })
}

fn assert_uniform(
    workload: &Arc<UnionWorkload>,
    configure: impl FnOnce(SamplerBuilder) -> SamplerBuilder,
    seed: u64,
    draws_per_tuple: usize,
    p_floor: f64,
) {
    let exact = full_join_union(workload).expect("ground truth");
    let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
    assert!(universe.len() >= 4, "universe too small to test");

    let mut sampler = configure(SamplerBuilder::for_workload(workload.clone()))
        .build()
        .expect("build");
    let mut rng = SujRng::seed_from_u64(seed);
    let n = draws_per_tuple * universe.len();
    let (samples, _) = sampler.sample(n, &mut rng).expect("sampling");
    assert_eq!(samples.len(), n);

    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        assert!(exact.union_set.contains(t), "sampled non-member {t}");
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let observed: Vec<u64> = universe
        .iter()
        .map(|t| counts.get(t).copied().unwrap_or(0))
        .collect();
    let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
    assert!(
        outcome.p_value > p_floor,
        "not uniform (chi2 = {:.1}, dof = {}, p = {:e})",
        outcome.statistic,
        outcome.dof,
        outcome.p_value
    );
}

#[test]
fn uq1_uniform_with_oracle_policy_and_exact_weights() {
    let w = Arc::new(uq1(&UqOptions::new(1, 21, 0.3)).expect("uq1"));
    assert_uniform(
        &w,
        |b| {
            b.weights(WeightKind::Exact)
                .strategy(exact_rejection(CoverPolicy::MembershipOracle))
        },
        1,
        400,
        1e-3,
    );
}

#[test]
fn uq1_uniform_with_record_policy() {
    let w = Arc::new(uq1(&UqOptions::new(1, 21, 0.3)).expect("uq1"));
    assert_uniform(
        &w,
        |b| {
            b.weights(WeightKind::Exact)
                .strategy(exact_rejection(CoverPolicy::Record))
        },
        2,
        400,
        1e-4, // record policy converges to uniform; allow early drift
    );
}

#[test]
fn uq2_uniform_under_high_overlap() {
    let w = Arc::new(uq2(&UqOptions::new(1, 22, 0.2)).expect("uq2"));
    assert_uniform(
        &w,
        |b| b.strategy(exact_rejection(CoverPolicy::MembershipOracle)),
        3,
        400,
        1e-3,
    );
}

#[test]
fn uq2_uniform_with_extended_olken_subroutine() {
    let w = Arc::new(uq2(&UqOptions::new(1, 22, 0.2)).expect("uq2"));
    assert_uniform(
        &w,
        |b| {
            b.weights(WeightKind::ExtendedOlken)
                .strategy(exact_rejection(CoverPolicy::MembershipOracle))
        },
        4,
        400,
        1e-3,
    );
}

#[test]
fn uq3_uniform_across_heterogeneous_schemas() {
    let w = Arc::new(uq3(&UqOptions::new(1, 23, 0.4)).expect("uq3"));
    assert_uniform(
        &w,
        |b| b.strategy(exact_rejection(CoverPolicy::MembershipOracle)),
        5,
        400,
        1e-3,
    );
}

#[test]
fn uq3_uniform_with_descending_cover() {
    let w = Arc::new(uq3(&UqOptions::new(1, 23, 0.4)).expect("uq3"));
    assert_uniform(
        &w,
        |b| {
            b.strategy(Strategy::Rejection(UnionSamplerConfig {
                estimator: Estimator::Exact,
                policy: CoverPolicy::MembershipOracle,
                strategy: CoverStrategy::DescendingSize,
            }))
        },
        6,
        400,
        1e-3,
    );
}

#[test]
fn bernoulli_union_trick_uniform_on_uq3() {
    let w = Arc::new(uq3(&UqOptions::new(1, 24, 0.4)).expect("uq3"));
    let exact = full_join_union(&w).expect("ground truth");
    let mut sampler = SamplerBuilder::for_workload(w)
        .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
        .build()
        .expect("sampler");

    let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
    let mut rng = SujRng::seed_from_u64(9);
    let n = 400 * universe.len();
    let (samples, report) = sampler.sample(n, &mut rng).expect("sampling");
    assert_eq!(samples.len(), n);
    assert!(report.rejected_cover > 0, "overlap must cause rejections");

    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let observed: Vec<u64> = universe
        .iter()
        .map(|t| counts.get(t).copied().unwrap_or(0))
        .collect();
    let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
    assert!(outcome.p_value > 1e-3, "p = {:e}", outcome.p_value);
}

#[test]
fn disjoint_union_weights_tuples_by_multiplicity() {
    let w = Arc::new(uq2(&UqOptions::new(1, 25, 0.2)).expect("uq2"));
    let exact = full_join_union(&w).expect("ground truth");
    let mut sampler = SamplerBuilder::for_workload(w.clone())
        .strategy(Strategy::Disjoint)
        .build()
        .expect("sampler");

    let mut rng = SujRng::seed_from_u64(11);
    let n = 120_000;
    let (samples, _) = sampler.sample(n, &mut rng).expect("sampling");

    // Expected frequency of tuple t ∝ number of joins containing it.
    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let v: f64 = (0..w.n_joins()).map(|j| exact.join_size(j) as f64).sum();
    for t in exact.union_set.iter().take(50) {
        let mult = (0..w.n_joins())
            .filter(|&j| exact.join_results[j].contains(t))
            .count() as f64;
        let expected = mult / v;
        let observed = counts.get(t).copied().unwrap_or(0) as f64 / n as f64;
        assert!(
            (observed - expected).abs() < 0.01 + 3.0 * (expected / n as f64).sqrt(),
            "tuple {t}: observed {observed:.5}, expected {expected:.5}"
        );
    }
}

#[test]
fn uq4_cyclic_joins_sample_uniformly() {
    // The cyclic extension workload: spanning-tree sampling with
    // consistency rejection must stay uniform over the union.
    let w = Arc::new(uq4_cyclic(&UqOptions::new(1, 26, 0.3)).expect("uq4"));
    assert_uniform(
        &w,
        |b| b.strategy(exact_rejection(CoverPolicy::MembershipOracle)),
        12,
        400,
        1e-3,
    );
}

#[test]
fn uq3_uniform_with_wander_join_subroutine() {
    // The third §3.2 weight instantiation: wander-join walks
    // uniformized against the Olken bound.
    let w = Arc::new(uq3(&UqOptions::new(1, 27, 0.4)).expect("uq3"));
    assert_uniform(
        &w,
        |b| {
            b.weights(WeightKind::WanderJoin)
                .strategy(exact_rejection(CoverPolicy::MembershipOracle))
        },
        13,
        400,
        1e-3,
    );
}

#[test]
fn streamed_samples_are_uniform_through_trait_object() {
    // Chi-squared uniformity through `SampleStream` over a
    // `Box<dyn UnionSampler>` — the oracle policy stream is exactly
    // i.i.d.
    let w = Arc::new(uq3(&UqOptions::new(1, 28, 0.4)).expect("uq3"));
    let exact = full_join_union(&w).expect("ground truth");
    let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
    let mut sampler: Box<dyn UnionSampler> = SamplerBuilder::for_workload(w)
        .strategy(exact_rejection(CoverPolicy::MembershipOracle))
        .build()
        .expect("sampler");
    let mut rng = SujRng::seed_from_u64(29);
    let n = 400 * universe.len();
    let samples: Vec<Tuple> = SampleStream::over(&mut sampler, &mut rng)
        .take(n)
        .collect::<Result<_, _>>()
        .expect("stream");
    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        assert!(exact.union_set.contains(t));
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let observed: Vec<u64> = universe
        .iter()
        .map(|t| counts.get(t).copied().unwrap_or(0))
        .collect();
    let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
    assert!(outcome.p_value > 1e-3, "p = {:e}", outcome.p_value);
}

// ---------------------------------------------------------------------
// Planner-emitted configurations against exact ground truth.
// ---------------------------------------------------------------------

/// Pools requests of `request_n` tuples, each served by a fresh handle
/// (`prepared.sample(request_n, seed)`), until every tuple of the union
/// is expected `draws_per_tuple` times, and checks that joins were
/// drawn in proportion to their exact sizes `|Jⱼ|/Σ|Jⱼ|` (4σ per join)
/// — and, when no tuple is in two joins or the membership oracle
/// designates each tuple's owner, that the pooled tuples are uniform
/// over the set union.
fn assert_drawn_in_proportion(prepared: &PreparedQuery, request_n: usize, draws_per_tuple: usize) {
    let exact = full_join_union(prepared.workload()).expect("ground truth");
    let n_joins = prepared.workload().n_joins();
    let sizes: Vec<f64> = (0..n_joins).map(|j| exact.join_size(j) as f64).collect();
    let total: f64 = sizes.iter().sum();
    let overlap_free = total == exact.union_size() as f64;
    let oracle = matches!(
        prepared.plan().strategy,
        Strategy::Bernoulli(DesignationPolicy::Oracle)
    );

    let mut join_draws = vec![0u64; n_joins];
    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    let requests = (draws_per_tuple * exact.union_size()).div_ceil(request_n);
    for seed in 0..requests as u64 {
        let (tuples, report) = prepared.sample(request_n, seed).expect("sampling");
        assert_eq!(tuples.len(), request_n);
        for (pooled, drawn) in join_draws.iter_mut().zip(&report.join_draws) {
            *pooled += drawn;
        }
        for t in tuples {
            assert!(exact.union_set.contains(&t), "sampled non-member {t}");
            *counts.entry(t).or_insert(0) += 1;
        }
    }

    let draws = join_draws.iter().sum::<u64>() as f64;
    for (j, &drawn) in join_draws.iter().enumerate() {
        let p = sizes[j] / total;
        let sigma = (p * (1.0 - p) / draws).sqrt();
        let share = drawn as f64 / draws;
        assert!(
            (share - p).abs() <= 4.0 * sigma,
            "{}: join {j} drawn with share {share:.4}, its exact share is {p:.4} \
             (σ = {sigma:.4}; sizes {sizes:?}, draws {join_draws:?})",
            prepared.summary()
        );
    }
    if overlap_free || oracle {
        let observed: Vec<u64> = exact
            .union_set
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
        assert!(
            outcome.p_value > 1e-3,
            "{}: not uniform (chi2 = {:.1}, dof = {}, p = {:e})",
            prepared.summary(),
            outcome.statistic,
            outcome.dof,
            outcome.p_value
        );
    }
}

/// The planner's configurations: what `PreparedQuery::auto` freezes for
/// UQ1 (no tuple in two joins) and UQ3 (overlapping), UQ1 as a disjoint
/// union prepared through the engine — each checked to be the planner's
/// default, histogram estimation over exact-weight samplers — and UQ3
/// prepared by an engine whose planner reads no statistics.
fn default_plans() -> Vec<Arc<PreparedQuery>> {
    let uq1 = uq1(&UqOptions::new(2, 7, 0.2)).expect("uq1");
    let uq3 = uq3(&UqOptions::new(4, 7, 0.2)).expect("uq3");

    // A workload as a caller of the engine holds it: every base
    // relation registered once, and its joins added to `query`.
    let prepare = |workload: &UnionWorkload, mut query: UnionQuery, planner| {
        let mut catalog = Catalog::new();
        for spec in workload.joins() {
            for relation in spec.relations() {
                if !catalog.contains(relation.name()) {
                    catalog.register_arc(relation.clone()).expect("register");
                }
            }
            let names = spec.relations().iter().map(|r| r.name().to_string());
            let def = JoinDef::with_edges(spec.name(), names, spec.edges().to_vec());
            query = query.join(def).expect("join");
        }
        let engine = Engine::with_planner(catalog, planner);
        engine.prepare(&query).expect("prepare")
    };
    let disjoint = prepare(&uq1, UnionQuery::disjoint_union(), Planner::default());
    assert!(disjoint.plan().stats.total_base_rows > 512);
    assert_eq!(
        disjoint.summary().to_string(),
        "strategy=disjoint weights=exact sizing=exact \
         rule=disjoint-semantics"
    );
    // Every member knows its size: there was nothing to estimate.
    assert_eq!(disjoint.estimations(), 0);

    // Without statistics the owner sampler selects by the same exact
    // sizes and estimates nothing either.
    let owner = prepare(&uq3, UnionQuery::set_union(), Planner::without_statistics());
    assert!(owner.plan().stats.total_base_rows > 512);
    assert_eq!(
        owner.summary().to_string(),
        "strategy=bernoulli(oracle) weights=exact sizing=exact \
         rule=no-statistics"
    );
    assert_eq!(owner.estimations(), 0);

    let mut plans = vec![disjoint];
    for workload in [uq1, uq3] {
        let auto = PreparedQuery::auto(Arc::new(workload)).expect("auto");
        assert_eq!(
            auto.summary().to_string(),
            "strategy=bernoulli(record) weights=exact sizing=exact \
             rule=low-overlap"
        );
        plans.push(Arc::new(auto));
    }
    plans.push(owner);
    plans
}

/// `chatty_hot`'s request size. A selection rule whose short requests
/// favour some joins (say, one that starts every fresh handle at join
/// 0) shows up only at a size like this. At 640 expected draws per
/// tuple, 4σ is ≈ 1% of a join's share; at 2 560 it is ≈ 0.5%.
const CHATTY_N: usize = 16;

#[test]
fn default_plans_draw_joins_by_exact_size() {
    for prepared in default_plans() {
        assert_drawn_in_proportion(&prepared, 512, 20);
    }
}

#[test]
fn default_plans_draw_joins_by_exact_size_at_request_size() {
    for prepared in default_plans() {
        assert_drawn_in_proportion(&prepared, CHATTY_N, 640);
    }
}

#[test]
#[ignore = "large sample: run via CI's release-mode uniformity step"]
fn default_plans_draw_joins_by_exact_size_at_large_sample() {
    for prepared in default_plans() {
        assert_drawn_in_proportion(&prepared, 512, 200);
        assert_drawn_in_proportion(&prepared, CHATTY_N, 2_560);
    }
}

// ---------------------------------------------------------------------
// Members that hold only a bound on their size.
// ---------------------------------------------------------------------

/// Two triangle joins `x ⋈ y ⋈ z` and `x ⋈ y ⋈ z2` over an 8×8 grid,
/// `z2 ⊂ z`, each relation padded with dangling rows to well over 512
/// base rows — so the planner estimates by histogram and the members
/// are AGM box samplers, which know only the bound they reject against.
fn padded_triangles() -> (Engine, UnionQuery) {
    let relation = |name: &str, attrs: [&str; 2], rows: Vec<[i64; 2]>| {
        let schema = Schema::new(attrs).expect("schema");
        let tuples = rows
            .into_iter()
            .map(|r| r.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).expect("relation")
    };
    let grid = |keep: fn(i64, i64) -> bool| {
        let mut rows: Vec<[i64; 2]> = (0..8)
            .flat_map(|u| (0..8).map(move |v| [u, v]))
            .filter(|&[u, v]| keep(u, v))
            .collect();
        rows.extend((0..150).map(|i| [100 + i, 1_000 + i]));
        rows
    };
    let mut catalog = Catalog::new();
    for rel in [
        relation("x", ["a", "b"], grid(|_, _| true)),
        relation("y", ["b", "c"], grid(|_, _| true)),
        relation("z", ["c", "a"], grid(|c, a| (c + 2 * a) % 3 != 0)),
        relation("z2", ["c", "a"], grid(|c, a| (c + 2 * a) % 3 == 1 && a < 4)),
    ] {
        catalog.register(rel).expect("register");
    }
    let query = UnionQuery::disjoint_union()
        .join(JoinDef::natural("t1", ["x", "y", "z"]))
        .expect("t1")
        .join(JoinDef::natural("t2", ["x", "y", "z2"]))
        .expect("t2");
    (Engine::new(catalog), query)
}

/// Pearson's χ² p-value of `samples` against each tuple of `expected`'s
/// keys drawn in proportion to its weight.
fn chi_square_p(samples: &[Tuple], expected: &FxHashMap<Tuple, f64>) -> f64 {
    let mut counts: FxHashMap<&Tuple, u64> = FxHashMap::default();
    for t in samples {
        assert!(expected.contains_key(t), "sampled non-member {t}");
        *counts.entry(t).or_insert(0) += 1;
    }
    let total: f64 = expected.values().sum();
    let (observed, expected): (Vec<u64>, Vec<f64>) = expected
        .iter()
        .map(|(t, w)| {
            let n = counts.get(t).copied().unwrap_or(0);
            (n, w / total * samples.len() as f64)
        })
        .unzip();
    let statistic = suj_stats::chi_square_statistic(&observed, &expected);
    suj_stats::chi2::chi_square_survival(statistic, observed.len() as u64 - 1)
}

#[test]
fn bound_only_members_sample_the_disjoint_union_by_multiplicity() {
    let (engine, query) = padded_triangles();
    let prepared = engine.prepare(&query).expect("prepare");
    assert!(prepared.plan().stats.total_base_rows > 512);
    assert_eq!(
        prepared.summary().to_string(),
        "strategy=disjoint weights=agm-box sizing=bound \
         rule=disjoint-semantics"
    );

    // A tuple in both joins is two copies of `V = t1 ⊎ t2`: 2/|V|.
    let exact = full_join_union(prepared.workload()).expect("ground truth");
    let mut multiplicity: FxHashMap<Tuple, f64> = FxHashMap::default();
    for join in &exact.join_results {
        for t in join.iter() {
            *multiplicity.entry(t.clone()).or_insert(0.0) += 1.0;
        }
    }
    assert!(multiplicity.values().any(|&m| m == 2.0));
    let (samples, _) = prepared
        .sample(60 * multiplicity.len(), 31)
        .expect("sampling");
    let p = chi_square_p(&samples, &multiplicity);
    assert!(p > 1e-3, "not in proportion to multiplicity (p = {p:e})");
}

#[test]
fn bound_only_members_sample_the_set_union_uniformly_under_designation() {
    let (engine, query) = padded_triangles();
    let workload = engine.prepare(&query).expect("prepare").workload().clone();
    let prepared = SamplerBuilder::for_workload(workload.clone())
        .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
        .weights(WeightKind::AgmBox)
        .freeze()
        .expect("freeze");
    assert_eq!(prepared.summary().sizing, Some("bound"));

    let exact = full_join_union(&workload).expect("ground truth");
    let uniform: FxHashMap<Tuple, f64> = exact.union_set.iter().map(|t| (t.clone(), 1.0)).collect();
    let (samples, report) = prepared.sample(60 * uniform.len(), 32).expect("sampling");
    assert!(report.rejected_join > 0, "AGM box members must reject");
    assert!(report.rejected_cover > 0, "overlap must cause rejections");
    let p = chi_square_p(&samples, &uniform);
    assert!(p > 1e-3, "not uniform over the set union (p = {p:e})");
}
