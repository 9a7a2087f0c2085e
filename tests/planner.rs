//! Integration tests for the declarative layer and the cost-based
//! planner: `PreparedQuery::auto` must be seed-for-seed identical to
//! the explicit builder configuration it selects, `Plan::explain()` must cite the
//! paper-derived rule that fired, and planning must be deterministic.

use proptest::prelude::*;
use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::session::Strategy as SujStrategy;

fn relation(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .into_iter()
        .map(|vals| vals.into_iter().map(Value::int).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

fn chain_join(name: &str, a: Vec<Vec<i64>>, b: Vec<Vec<i64>>) -> Arc<JoinSpec> {
    Arc::new(
        JoinSpec::chain(
            name,
            vec![
                Arc::new(relation(&format!("{name}_r"), &["a", "b"], a)),
                Arc::new(relation(&format!("{name}_s"), &["b", "c"], b)),
            ],
        )
        .unwrap(),
    )
}

/// Joins over disjoint key ranges: Σ|Jᵢ|/|∪| = 1.
fn low_overlap_workload() -> Arc<UnionWorkload> {
    let j1 = chain_join(
        "j1",
        vec![vec![1, 10], vec![2, 20], vec![3, 20]],
        vec![vec![10, 100], vec![20, 200]],
    );
    let j2 = chain_join(
        "j2",
        vec![vec![7, 70], vec![8, 80]],
        vec![vec![70, 700], vec![80, 800]],
    );
    Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
}

/// Two identical joins: Σ|Jᵢ|/|∪| = 2.
fn high_overlap_workload() -> Arc<UnionWorkload> {
    let rows_r = vec![vec![1, 10], vec![2, 20], vec![3, 20], vec![4, 10]];
    let rows_s = vec![vec![10, 100], vec![20, 200]];
    let j1 = chain_join("j1", rows_r.clone(), rows_s.clone());
    let j2 = chain_join("j2", rows_r, rows_s);
    Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
}

/// One empty join next to a live one.
fn empty_join_workload() -> Arc<UnionWorkload> {
    let j1 = chain_join("full", vec![vec![1, 10], vec![2, 10]], vec![vec![10, 100]]);
    let j2 = chain_join("empty", vec![], vec![]);
    Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
}

/// A handle of the default planner's plan for `workload`.
fn auto_sampler(workload: Arc<UnionWorkload>) -> Box<dyn UnionSampler + Send> {
    PreparedQuery::auto(workload).unwrap().sampler(0).unwrap()
}

/// Builds the explicit builder configuration a plan describes and
/// checks seed-for-seed equality of `PreparedQuery::auto` against it.
fn assert_auto_matches_explicit(workload: Arc<UnionWorkload>, seed: u64) {
    let plan = Planner::default().plan(&workload, UnionSemantics::Set);

    // Planned path.
    let mut auto = auto_sampler(workload.clone());

    // Explicit path: exactly the knobs the plan names, via the public
    // setters (Algorithm 1's estimator and cover ride in its strategy).
    let mut builder = SamplerBuilder::for_workload(workload).strategy(plan.strategy);
    if let Some(w) = plan.weights {
        builder = builder.weights(w);
    }
    let mut explicit = builder.build().unwrap();

    let mut rng_a = SujRng::seed_from_u64(seed);
    let mut rng_b = SujRng::seed_from_u64(seed);
    let (a, report_a) = auto.sample(80, &mut rng_a).unwrap();
    let (b, report_b) = explicit.sample(80, &mut rng_b).unwrap();
    assert_eq!(a, b, "the plan must replay the explicit configuration");
    assert_eq!(report_a.accepted, report_b.accepted);
    // Both record the same resolved configuration; the plan adds the rule.
    let cfg_a = report_a.config.expect("auto config stamped");
    let cfg_b = report_b.config.expect("explicit config stamped");
    assert_eq!(cfg_a.strategy, cfg_b.strategy);
    assert_eq!(cfg_a.estimator, cfg_b.estimator);
    assert_eq!(cfg_a.cover, cfg_b.cover);
    assert!(cfg_a.rule.is_some());
    assert!(cfg_b.rule.is_none());
}

#[test]
fn auto_matches_explicit_on_low_overlap() {
    let w = low_overlap_workload();
    let plan = Planner::default().plan(&w, UnionSemantics::Set);
    assert_eq!(plan.rule, PlanRule::LowOverlap);
    assert!(matches!(plan.strategy, SujStrategy::Bernoulli(_)));
    assert_auto_matches_explicit(w, 101);
}

#[test]
fn auto_matches_explicit_on_high_overlap() {
    let w = high_overlap_workload();
    let plan = Planner::default().plan(&w, UnionSemantics::Set);
    assert_eq!(plan.rule, PlanRule::HighOverlap);
    assert!(matches!(plan.strategy, SujStrategy::Rejection(_)));
    assert_auto_matches_explicit(w, 202);
}

#[test]
fn auto_matches_explicit_on_empty_join() {
    let w = empty_join_workload();
    // Planning must succeed and sampling must only ever return live
    // tuples even with a dead join in the union.
    assert_auto_matches_explicit(w.clone(), 303);
    let mut sampler = auto_sampler(w.clone());
    let exact = full_join_union(&w).unwrap();
    let mut rng = SujRng::seed_from_u64(9);
    let (samples, _) = sampler.sample(30, &mut rng).unwrap();
    for t in &samples {
        assert!(exact.union_set.contains(t));
    }
}

#[test]
fn auto_with_probed_map_matches_fresh_estimation() {
    // Two identical 320-row chains overlap fully and exceed the
    // exact-estimation row threshold, so the planner selects Algorithm
    // 1 over histogram estimation and hands its probed overlap map to
    // the build; the explicit path re-estimates from scratch.
    // Seed-for-seed equality proves the reused map is identical to a
    // fresh estimation.
    let side = |name| {
        chain_join(
            name,
            (0..300).map(|i| vec![i, i % 20]).collect(),
            (0..20).map(|b| vec![b, 100 + b]).collect(),
        )
    };
    let w = Arc::new(UnionWorkload::new(vec![side("j1"), side("j2")]).unwrap());
    let plan = Planner::default().plan(&w, UnionSemantics::Set);
    assert!(matches!(
        plan.strategy,
        SujStrategy::Rejection(UnionSamplerConfig {
            estimator: suj_core::session::Estimator::Histogram(_),
            ..
        })
    ));
    assert_auto_matches_explicit(w, 404);

    // UQ1 at scale 1 is past the threshold too, but barely overlaps:
    // its union-trick plan estimates nothing, and replays as well.
    let w = Arc::new(uq1(&UqOptions::new(1, 7, 0.2)).unwrap());
    let plan = Planner::default().plan(&w, UnionSemantics::Set);
    assert_eq!(plan.summary().estimator, None);
    assert_auto_matches_explicit(w, 404);
}

#[test]
fn explain_cites_the_rule_that_fired() {
    let planner = Planner::default();

    let explain = planner
        .plan(&low_overlap_workload(), UnionSemantics::Set)
        .explain();
    assert!(explain.contains("rule: low-overlap"), "{explain}");
    assert!(explain.contains("§3"), "{explain}");
    assert!(explain.contains("Bernoulli"), "{explain}");

    let explain = planner
        .plan(&high_overlap_workload(), UnionSemantics::Set)
        .explain();
    assert!(explain.contains("rule: high-overlap"), "{explain}");
    assert!(explain.contains("§4–§5"), "{explain}");
    assert!(explain.contains("cover"), "{explain}");

    let explain = planner
        .plan(&high_overlap_workload(), UnionSemantics::Disjoint)
        .explain();
    assert!(explain.contains("rule: disjoint-semantics"), "{explain}");
    assert!(explain.contains("Definition 1"), "{explain}");

    let explain = Planner::without_statistics()
        .plan(&high_overlap_workload(), UnionSemantics::Set)
        .explain();
    assert!(explain.contains("rule: no-statistics"), "{explain}");
    assert!(explain.contains("§3"), "{explain}");
    assert!(explain.contains("membership index"), "{explain}");
}

/// On TPC-H data the histogram's `|∪Jᵢ|` (taken over Olken size
/// bounds) exceeds the exact `Σ|Jᵢ|` and is clamped to it, so the ratio
/// reads 1.000 whatever the overlap: the explanation says so instead of
/// claiming the joins barely overlap. An estimate inside the bracket
/// keeps the plain wording.
#[test]
fn explain_says_when_the_union_estimate_was_clamped() {
    let clamped = "reached Σ|Jᵢ| and was clamped: the ratio carries no overlap information";

    let w = uq1(&UqOptions::new(4, 7, 0.6)).unwrap();
    let plan = Planner::default().plan(&w, UnionSemantics::Set);
    assert_eq!(plan.rule, PlanRule::LowOverlap);
    assert_eq!(plan.stats.union_size_hint, plan.stats.sum_join_sizes());
    let explain = plan.explain();
    assert!(explain.contains(clamped), "{explain}");
    assert!(!explain.contains("barely overlap"), "{explain}");
    assert!(explain.contains("Bernoulli"), "{explain}");

    let plan = Planner::default().plan(&high_overlap_workload(), UnionSemantics::Set);
    assert_eq!(plan.rule, PlanRule::HighOverlap);
    assert!(plan.stats.union_size_hint < plan.stats.sum_join_sizes());
    assert!(!plan.explain().contains("clamped"), "{}", plan.explain());
}

#[test]
fn no_statistics_serves_owner_sampler() {
    // The no-statistics rule plans the union trick under the membership
    // oracle, which needs no statistics; verify the planned
    // configuration actually runs.
    let w = high_overlap_workload();
    let plan = Planner::without_statistics().plan(&w, UnionSemantics::Set);
    let owner = SujStrategy::Bernoulli(DesignationPolicy::Oracle);
    assert_eq!(plan.strategy.label(), owner.label());
    // An engine whose planner consults no statistics serves that plan.
    let mut catalog = Catalog::new();
    let mut query = UnionQuery::set_union();
    for join in w.joins() {
        for relation in join.relations() {
            catalog.register_arc(relation.clone()).unwrap();
        }
        let names = join.relations().iter().map(|r| r.name().to_string());
        query = query.chain(join.name(), names).unwrap();
    }
    let engine = Engine::with_planner(catalog, Planner::without_statistics());
    let prepared = engine.prepare(&query).unwrap();
    assert_eq!(prepared.plan().strategy.label(), owner.label());
    assert_eq!(prepared.estimations(), 0);
    let exact = full_join_union(&w).unwrap();
    let mut rng = SujRng::seed_from_u64(17);
    let (samples, report) = prepared.run(40, &mut rng).unwrap();
    assert_eq!(samples.len(), 40);
    for t in &samples {
        assert!(exact.union_set.contains(t));
    }
    assert_eq!(report.config.unwrap().rule, Some("no-statistics"));
}

#[test]
fn engine_pays_estimation_once_across_runs() {
    // A served workload: prepare once, run many times. Estimation
    // (warm-up) happens at prepare() time, so per-run reports must not
    // accrue further warm-up time.
    let mut catalog = Catalog::new();
    catalog
        .register(relation(
            "r",
            &["a", "b"],
            vec![vec![1, 10], vec![2, 20], vec![3, 20]],
        ))
        .unwrap();
    catalog
        .register(relation(
            "s",
            &["b", "c"],
            vec![vec![10, 100], vec![20, 200]],
        ))
        .unwrap();
    let engine = Engine::new(catalog);
    let query = UnionQuery::set_union().chain("j", ["r", "s"]).unwrap();
    let prepared = engine.prepare(&query).unwrap();
    let mut rng = SujRng::seed_from_u64(23);
    let mut total = RunReport::default();
    for _ in 0..5 {
        let (samples, report) = prepared.run(10, &mut rng).unwrap();
        assert_eq!(samples.len(), 10);
        assert_eq!(report.warmup_time, std::time::Duration::ZERO);
        total.merge(&report);
    }
    assert_eq!(total.accepted, 50);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planning is a pure function of the workload: for any generated
    /// two-join workload, two independent planners produce identical
    /// plans (summary, rule, and explanation), and the planned build is
    /// reproducible seed-for-seed.
    #[test]
    fn planning_is_deterministic(
        rows_a in prop::collection::vec((0i64..6, 0i64..4), 1..10),
        rows_b in prop::collection::vec((0i64..6, 0i64..4), 1..10),
        seed in 0u64..1000,
    ) {
        let mk = || {
            let a: Vec<Vec<i64>> = rows_a.iter().map(|&(x, y)| vec![x, y]).collect();
            let b: Vec<Vec<i64>> = rows_b.iter().map(|&(x, y)| vec![x, y]).collect();
            let s: Vec<Vec<i64>> = (0..4).map(|v| vec![v, 100 + v]).collect();
            let j1 = chain_join("j1", a, s.clone());
            let j2 = chain_join("j2", b, s);
            Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
        };
        let w1 = mk();
        let w2 = mk();
        let p1 = Planner::default().plan(&w1, UnionSemantics::Set);
        let p2 = Planner::default().plan(&w2, UnionSemantics::Set);
        prop_assert_eq!(p1.rule, p2.rule);
        prop_assert_eq!(p1.summary(), p2.summary());
        prop_assert_eq!(p1.explain(), p2.explain());

        // Same workload + same seed → same planned sample sequence.
        let mut s1 = auto_sampler(w1);
        let mut s2 = auto_sampler(w2);
        let mut rng1 = SujRng::seed_from_u64(seed);
        let mut rng2 = SujRng::seed_from_u64(seed);
        let (t1, _) = s1.sample(12, &mut rng1).unwrap();
        let (t2, _) = s2.sample(12, &mut rng2).unwrap();
        prop_assert_eq!(t1, t2);
    }
}
